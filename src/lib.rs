//! # mtbalance — balancing HPC applications through smart allocation of
//! resources in MT processors
//!
//! A from-scratch Rust reproduction of Boneti, Gioiosa, Cazorla, Corbalan,
//! Labarta & Valero, *"Balancing HPC Applications Through Smart Allocation
//! of Resources in MT Processors"* (IPDPS 2008): an IBM-POWER5-like SMT
//! processor model with the hardware thread-priority mechanism, a
//! Linux-like OS layer with the paper's kernel patch, an MPI-like runtime
//! and discrete-event system simulator, the three evaluation workloads
//! (MetBench, BT-MZ, SIESTA), and the balancing policies themselves —
//! static (the paper's experiments) and dynamic (its proposed future
//! work).
//!
//! ## Quick start
//!
//! ```
//! use mtbalance::{execute, StaticRun, PrioritySetting, CtxAddr};
//! use mtbalance::{ProgramBuilder, WorkSpec, Workload, WorkloadProfile, StreamSpec};
//!
//! // Two ranks sharing one SMT core; rank 0 has 3x the work.
//! let load = Workload::with_profile(
//!     "solver", StreamSpec::balanced(1), WorkloadProfile::new(2.8, 0.05, 0.05));
//! let prog = |w: u64| ProgramBuilder::new()
//!     .compute(WorkSpec::new(load.clone(), w)).barrier().build();
//! let programs = vec![prog(3_000_000), prog(1_000_000)];
//! let placement = vec![CtxAddr::from_cpu(0), CtxAddr::from_cpu(1)];
//!
//! // Reference: both at MEDIUM. Balanced: boost the bottleneck.
//! let reference = execute(StaticRun::new(&programs, placement.clone())).unwrap();
//! let balanced = execute(
//!     StaticRun::new(&programs, placement)
//!         .with_priorities(vec![PrioritySetting::ProcFs(5), PrioritySetting::ProcFs(4)]),
//! ).unwrap();
//! assert!(balanced.total_cycles < reference.total_cycles);
//! ```
//!
//! See `DESIGN.md` for the system inventory and `EXPERIMENTS.md` for the
//! paper-vs-measured comparison of every table and figure.

#![forbid(unsafe_code)]

// Full sub-crate access under stable names.
pub use mtb_core as balance;
pub use mtb_mpisim as mpi;
pub use mtb_oskernel as os;
pub use mtb_smtsim as smt;
pub use mtb_trace as trace;
pub use mtb_workloads as workloads;

// The common API surface, flattened for convenience.
pub use mtb_core::analysis::{characterize, render_case_table, CaseRow};
pub use mtb_core::balance::{execute, execute_with, StaticRun};
pub use mtb_core::dynamic::{DynamicBalancer, DynamicConfig};
pub use mtb_core::mapper::pair_by_load;
pub use mtb_core::paper_cases;
pub use mtb_core::policy::PrioritySetting;
pub use mtb_core::redistribution;
pub use mtb_mpisim::engine::{Engine, Observer, RankWindow, RunResult, SimConfig};
pub use mtb_mpisim::program::{Program, ProgramBuilder, TracePhase, WorkSpec};
pub use mtb_oskernel::{CtxAddr, KernelConfig, Machine, NoiseSource, Topology, WaitPolicy};
pub use mtb_smtsim::model::{Workload, WorkloadProfile};
pub use mtb_smtsim::pairmodel::{best_pair, pair_makespan, pair_rates};
pub use mtb_smtsim::{HwPriority, StreamSpec};
pub use mtb_trace::{
    cycles_to_seconds, improvement_pct, render_gantt, GanttConfig, RunMetrics, Table,
};
