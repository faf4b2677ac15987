//! # mtb-trace — tracing, metrics and reporting
//!
//! This crate is the measurement substrate of the `mtbalance` project. It
//! plays the role that PARAVER [Labarta et al.] plays in the paper
//! *"Balancing HPC Applications Through Smart Allocation of Resources in MT
//! Processors"* (IPDPS 2008): it records what every simulated process was
//! doing at every instant (computing, waiting at a synchronization point,
//! communicating, being interrupted, ...), derives the paper's metrics from
//! those records (percentage of compute/sync time per process, the
//! *imbalance percentage*, total execution time), renders ASCII Gantt charts
//! equivalent to the paper's Figures 1-4, and formats the result tables
//! (Tables IV-VI).
//!
//! The fundamental unit of time throughout the workspace is the **cycle**
//! (`u64`). A nominal clock frequency converts cycles to "seconds" for
//! table-compatible reporting; absolute seconds are not meaningful in a
//! simulation, only their ratios are.

#![forbid(unsafe_code)]

pub mod energy;
pub mod gantt;
pub mod metrics;
pub mod paraver;
pub mod state;
pub mod stats;
pub mod table;
pub mod timeline;

pub use energy::{EnergyModel, EnergyReport};
pub use gantt::{render_gantt, GanttConfig};
pub use metrics::{improvement_pct, ProcBreakdown, RunMetrics};
pub use state::ProcState;
pub use table::Table;
pub use timeline::{Interval, Timeline, TimelineBuilder};

/// Simulated time, measured in processor cycles.
pub type Cycles = u64;

/// Nominal clock frequency used to convert simulated cycles into "seconds"
/// for human-readable reports (the POWER5 in the paper's OpenPower 710 runs
/// at roughly this frequency). The absolute value is irrelevant to every
/// conclusion; only ratios between runs matter.
pub const NOMINAL_CLOCK_HZ: f64 = 1.5e9;

/// Convert a cycle count to nominal seconds.
pub fn cycles_to_seconds(c: Cycles) -> f64 {
    c as f64 / NOMINAL_CLOCK_HZ
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycles_convert_to_seconds_linearly() {
        assert_eq!(cycles_to_seconds(0), 0.0);
        let one = cycles_to_seconds(NOMINAL_CLOCK_HZ as Cycles);
        assert!((one - 1.0).abs() < 1e-12);
        let two = cycles_to_seconds(2 * NOMINAL_CLOCK_HZ as Cycles);
        assert!((two - 2.0).abs() < 1e-12);
    }
}
