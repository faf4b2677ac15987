//! # mtb-smtsim — a POWER5-like SMT processor substrate
//!
//! The paper evaluates its balancing proposal on an IBM POWER5: a dual-core
//! chip whose cores are 2-way SMT and expose a **hardware thread priority**
//! (an integer 0..=7 per hardware context) that steers the core's decode
//! bandwidth between the two contexts. This crate implements that processor
//! model from scratch:
//!
//! * [`priority`] — the priority levels, privilege rules and `or-nop`
//!   encodings of the paper's Table I, plus the Thread Status Register.
//! * [`decode`] — the decode-slot arbitration of Tables II and III:
//!   for priorities X and Y the decode time is sliced into rounds of
//!   `R = 2^(|X-Y|+1)` cycles of which the lower-priority context receives
//!   exactly one, with dedicated semantics when either priority is 0 or 1
//!   (single-thread mode, leftover stealing, power-save mode).
//! * [`inst`] / [`rng`] — synthetic instruction streams with controlled
//!   unit mix, dependency depth and memory behaviour.
//! * [`cache`] — set-associative LRU caches (private L1s, shared L2).
//! * [`units`] — the core's shared execution-unit pool.
//! * [`core`] / [`chip`] — the cycle-level 2-way SMT core and the dual-core
//!   chip built from it.
//! * [`perfmodel`] — a fast *mesoscale* throughput model implementing the
//!   same [`model::CoreModel`] interface, calibrated against the cycle
//!   model; the system-level simulator uses it so that minutes of simulated
//!   machine time stay cheap.
//! * [`pairmodel`] — the two-phase pair model over the same equations
//!   (co-run, then the survivor against the finisher's MPI spin loop) and
//!   the spin workload itself: the one model the predictor, the lints,
//!   the plan search and the dynamic controller evaluate.
//!
//! Everything is deterministic: no wall clock, no global state, seeded
//! stream generation.

#![forbid(unsafe_code)]

pub mod branch;
pub mod cache;
pub mod calibrate;
pub mod chip;
pub mod core;
pub mod decode;
pub(crate) mod hot;
pub mod inst;
pub mod model;
pub mod pairmodel;
pub mod perfmodel;
pub mod priority;
pub mod rng;
pub mod state;
pub mod stats;
pub mod units;

pub use crate::core::{CoreConfig, SmtCore};
pub use chip::{Chip, ChipConfig};
pub use decode::{slot_grant, SlotGrant};
pub use inst::{InstClass, StreamSpec};
pub use model::{CoreModel, ThreadId, WorkloadProfile};
pub use perfmodel::MesoCore;
pub use priority::{HwPriority, PrivilegeLevel, Tsr};
pub use state::CoreState;

/// Simulated time in processor cycles (re-exported convention shared with
/// `mtb-trace`).
pub type Cycles = u64;
