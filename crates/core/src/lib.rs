//! # mtb-core — smart allocation of MT processor resources
//!
//! The paper's contribution: reduce the imbalance of an MPI application —
//! transparently to the user — by steering the SMT hardware thread
//! priorities of the contexts its ranks run on, so the bottleneck rank
//! receives more decode bandwidth and the ranks with slack donate theirs.
//!
//! * [`policy`] — priority settings and how they are applied through the
//!   OS interfaces (`/proc/<pid>/hmt_priority` or or-nop).
//! * [`balance`] — the runner: execute a set of rank programs under a
//!   placement + priority configuration (static balancing, as in the
//!   paper's experiments) or under a feedback policy (dynamic).
//! * [`paper_cases`] — the exact case configurations of Tables IV-VI
//!   (mappings and priorities the authors chose by hand).
//! * [`dynamic`] — the paper's proposed future work (Section VIII):
//!   a policy that observes per-iteration compute/wait times and adjusts
//!   priorities automatically, with bounded differences and hysteresis so
//!   it cannot run into the case-D inversion; and the v2 two-level
//!   controller that equalizes progress against the static plan's
//!   expectation and remaps ranks across cores when intra-core tuning
//!   saturates.
//! * [`mapper`] — core-pairing heuristics (pair the heaviest rank with the
//!   lightest, Section VII-B's mapping argument).
//! * [`observe`] — epoch-window recording for offline analysis of
//!   dynamic behaviour.
//! * [`remap`] — cross-core rank remapping (the Section VII-B pairing
//!   argument applied at run time via process migration, which the
//!   two-level controller's level 1 calls) and [`remap::Composite`],
//!   which runs several observers on every epoch.
//! * [`redistribution`] — the related-work baseline (Section III):
//!   METIS/LPT-style data repartitioning, with its movement cost, so the
//!   two approaches can be compared head-to-head (EXT-4).
//! * [`analysis`] — turns a run into the paper's characterization rows
//!   (Comp %, Sync %, Imb %, execution time).

#![forbid(unsafe_code)]

pub mod analysis;
pub mod balance;
pub mod dynamic;
pub mod mapper;
pub mod observe;
pub mod paper_cases;
pub mod policy;
pub mod redistribution;
pub mod remap;

pub use analysis::{characterize, CaseRow};
pub use balance::execute_with;
pub use balance::{
    execute, execute_chunked, prepare, BalanceError, CheckpointSink, NoCheckpoint, StaticRun,
};
pub use dynamic::{ControllerConfig, DynamicBalancer, DynamicConfig, TwoLevelController};
pub use mapper::pair_by_load;
pub use observe::ProgressModel;
pub use policy::PrioritySetting;
