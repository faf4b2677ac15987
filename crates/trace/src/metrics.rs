//! The paper's evaluation metrics.
//!
//! Section VII of the paper uses two headline metrics:
//!
//! 1. **Imbalance percentage** — "the maximum waiting time in percentage of
//!    the processes in the MPI application": for each process, the share of
//!    its lifetime spent waiting at synchronization points; the imbalance of
//!    the run is the *maximum* of those shares, expressed in percent.
//! 2. **Total execution time** — the wall time of the whole application
//!    (here: simulated cycles converted to nominal seconds).
//!
//! Tables IV-VI additionally report, per process, the percentage of time
//! spent computing (`Comp %`) and synchronizing (`Sync %`); this module
//! computes all of those from a set of [`Timeline`]s. Every comparison
//! of two runs is stated as the paper states it, by [`improvement_pct`].

use crate::state::ProcState;
use crate::timeline::Timeline;
use crate::Cycles;

/// Per-process breakdown: one row of the paper's characterization tables.
#[derive(Debug, Clone, PartialEq)]
pub struct ProcBreakdown {
    /// Process id.
    pub pid: usize,
    /// Display label (e.g. "P1").
    pub label: String,
    /// Share of lifetime spent doing useful work, in percent.
    pub comp_pct: f64,
    /// Share of lifetime spent waiting at sync points, in percent.
    pub sync_pct: f64,
    /// Share of lifetime spent communicating, in percent.
    pub comm_pct: f64,
    /// Share of lifetime stolen by OS activity, in percent.
    pub interrupt_pct: f64,
    /// Absolute useful time in cycles.
    pub comp_cycles: Cycles,
    /// Absolute waiting time in cycles.
    pub sync_cycles: Cycles,
    /// Lifetime of the process in cycles.
    pub lifetime: Cycles,
}

/// Aggregated metrics for one application run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunMetrics {
    /// Per-process rows, ordered by pid.
    pub procs: Vec<ProcBreakdown>,
    /// The paper's imbalance metric, in percent (max sync share).
    pub imbalance_pct: f64,
    /// End of the latest timeline minus start of the earliest, in cycles.
    pub exec_cycles: Cycles,
}

impl RunMetrics {
    /// Compute all metrics from per-process timelines.
    ///
    /// Empty input yields zeroed metrics. A process with a zero-length
    /// lifetime contributes 0% to every share.
    pub fn from_timelines(timelines: &[Timeline]) -> RunMetrics {
        let mut procs: Vec<ProcBreakdown> = timelines
            .iter()
            .map(|t| {
                let life = t.duration();
                let pct = |c: Cycles| {
                    if life == 0 {
                        0.0
                    } else {
                        100.0 * c as f64 / life as f64
                    }
                };
                let comp = t.time_where(ProcState::is_useful);
                let sync = t.time_where(ProcState::is_waiting);
                ProcBreakdown {
                    pid: t.pid,
                    label: t.label.clone(),
                    comp_pct: pct(comp),
                    sync_pct: pct(sync),
                    comm_pct: pct(t.time_in(ProcState::Comm)),
                    interrupt_pct: pct(t.time_in(ProcState::Interrupt)),
                    comp_cycles: comp,
                    sync_cycles: sync,
                    lifetime: life,
                }
            })
            .collect();
        procs.sort_by_key(|p| p.pid);

        let imbalance_pct = procs.iter().map(|p| p.sync_pct).fold(0.0_f64, f64::max);

        let start = timelines.iter().map(Timeline::start).min().unwrap_or(0);
        let end = timelines.iter().map(Timeline::end).max().unwrap_or(0);

        RunMetrics {
            procs,
            imbalance_pct,
            exec_cycles: end.saturating_sub(start),
        }
    }

    /// Speedup of `self` relative to `reference` (>1 = faster).
    pub fn speedup_over(&self, reference: &RunMetrics) -> f64 {
        if self.exec_cycles == 0 {
            return f64::INFINITY;
        }
        reference.exec_cycles as f64 / self.exec_cycles as f64
    }
}

/// Percentage improvement of a run taking `cycles` over a reference run
/// taking `reference` (positive = faster), as the paper reports it:
/// `100 * (ref - x) / ref`. A zero-cycle reference gives 0.
pub fn improvement_pct(reference: Cycles, cycles: Cycles) -> f64 {
    if reference == 0 {
        return 0.0;
    }
    100.0 * (reference as f64 - cycles as f64) / reference as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timeline::TimelineBuilder;
    use proptest::prelude::*;

    /// Two processes: P0 computes 100 and waits 0; P1 computes 25, waits 75.
    fn imbalanced_pair() -> Vec<Timeline> {
        let mut b0 = TimelineBuilder::new(0, "P0", 0, ProcState::Compute);
        b0.enter(ProcState::Compute, 0);
        let t0 = b0.finish(100);

        let mut b1 = TimelineBuilder::new(1, "P1", 0, ProcState::Compute);
        b1.enter(ProcState::Sync, 25);
        let t1 = b1.finish(100);
        vec![t0, t1]
    }

    #[test]
    fn imbalance_is_max_waiting_share() {
        let m = RunMetrics::from_timelines(&imbalanced_pair());
        assert!((m.imbalance_pct - 75.0).abs() < 1e-9);
        assert_eq!(m.exec_cycles, 100);
        assert!((m.procs[0].comp_pct - 100.0).abs() < 1e-9);
        assert!((m.procs[1].comp_pct - 25.0).abs() < 1e-9);
        assert!((m.procs[1].sync_pct - 75.0).abs() < 1e-9);
    }

    #[test]
    fn perfectly_balanced_run_has_zero_imbalance() {
        let tls: Vec<Timeline> = (0..4)
            .map(|pid| {
                let b = TimelineBuilder::new(pid, format!("P{pid}"), 0, ProcState::Compute);
                b.finish(50)
            })
            .collect();
        let m = RunMetrics::from_timelines(&tls);
        assert_eq!(m.imbalance_pct, 0.0);
        assert_eq!(m.exec_cycles, 50);
    }

    #[test]
    fn empty_run_yields_zeroes() {
        let m = RunMetrics::from_timelines(&[]);
        assert_eq!(m.exec_cycles, 0);
        assert_eq!(m.imbalance_pct, 0.0);
        assert!(m.procs.is_empty());
    }

    #[test]
    fn improvement_and_speedup_match_paper_convention() {
        let fast = RunMetrics {
            procs: vec![],
            imbalance_pct: 0.0,
            exec_cycles: 80,
        };
        let slow = RunMetrics {
            procs: vec![],
            imbalance_pct: 0.0,
            exec_cycles: 100,
        };
        assert!((improvement_pct(slow.exec_cycles, fast.exec_cycles) - 20.0).abs() < 1e-9);
        assert!((fast.speedup_over(&slow) - 1.25).abs() < 1e-9);
        assert!((improvement_pct(fast.exec_cycles, slow.exec_cycles) + 25.0).abs() < 1e-9);
        assert_eq!(improvement_pct(0, 10), 0.0);
    }

    proptest! {
        /// Percentages are always within [0, 100] and per-process shares sum
        /// to at most 100 (idle may absorb the rest).
        #[test]
        fn prop_percentages_bounded(
            steps in proptest::collection::vec(
                (0usize..7, 1u64..500), 1..40),
        ) {
            let mut b = TimelineBuilder::new(0, "P", 0, ProcState::Compute);
            let mut t = 0;
            for (si, d) in &steps {
                t += d;
                b.enter(ProcState::ALL[*si], t);
            }
            let tl = b.finish(t + 1);
            let m = RunMetrics::from_timelines(&[tl]);
            let p = &m.procs[0];
            for v in [p.comp_pct, p.sync_pct, p.comm_pct, p.interrupt_pct] {
                prop_assert!((0.0..=100.0 + 1e-9).contains(&v));
            }
            prop_assert!(p.comp_pct + p.sync_pct + p.comm_pct + p.interrupt_pct <= 100.0 + 1e-6);
            prop_assert!((0.0..=100.0 + 1e-9).contains(&m.imbalance_pct));
        }

        /// Imbalance equals the max of per-process sync shares.
        #[test]
        fn prop_imbalance_is_max_sync(
            lives in proptest::collection::vec((1u64..1000, 0u64..1000), 1..8),
        ) {
            let tls: Vec<Timeline> = lives.iter().enumerate().map(|(pid, (comp, sync))| {
                let mut b = TimelineBuilder::new(pid, format!("P{pid}"), 0, ProcState::Compute);
                b.enter(ProcState::Sync, *comp);
                b.finish(comp + sync)
            }).collect();
            let m = RunMetrics::from_timelines(&tls);
            let max_sync = m.procs.iter().map(|p| p.sync_pct).fold(0.0, f64::max);
            prop_assert!((m.imbalance_pct - max_sync).abs() < 1e-9);
        }
    }
}
