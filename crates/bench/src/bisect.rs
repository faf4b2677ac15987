//! Checkpoint-to-checkpoint drift bisection.
//!
//! `mtb bisect-drift` replays two engine configurations in lockstep,
//! comparing the canonical state hash ([`mtb_snap::state_hash`]) after
//! every window of N events, and reports the first window in which the
//! two states diverge. Two uses:
//!
//! * **guarding invariants** — `--compare threads` replays the same
//!   configuration at 1 and 4 stepping threads; any divergence is a
//!   determinism bug and the subcommand exits nonzero;
//! * **locating divergence-by-design** — `--compare stepping` or
//!   `--compare fidelity` pins down the exact event window where two
//!   legitimately different models part ways, instead of staring at two
//!   final reports that merely disagree.

use mtb_core::balance::{prepare, BalanceError, StaticRun};
use mtb_mpisim::{Engine, NullObserver};
use mtb_snap::state_hash;

/// Where two replays first disagreed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DivergencePoint {
    /// 1-based index of the divergent window.
    pub window: u64,
    /// First event index inside the divergent window.
    pub events_lo: u64,
    /// Event counts of the two engines at the comparison point.
    pub events: (u64, u64),
    /// The two state hashes that differ.
    pub hashes: (u64, u64),
}

/// The outcome of a lockstep replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BisectReport {
    /// Events compared per window.
    pub window: u64,
    /// Windows replayed (including the divergent one, if any).
    pub windows: u64,
    /// The first divergent window, or `None` if the replays stayed
    /// bit-identical to completion.
    pub divergence: Option<DivergencePoint>,
    /// Total events each engine had executed when the replay stopped.
    pub final_events: (u64, u64),
}

impl BisectReport {
    /// Human-readable summary lines.
    pub fn render(&self) -> String {
        match self.divergence {
            None => format!(
                "bit-identical through {} window(s) of {} events ({} events total)\n",
                self.windows, self.window, self.final_events.0
            ),
            Some(d) => format!(
                "states diverge in window {} (events {}..{}): \
                 hash A {:016x} (at {} events) vs hash B {:016x} (at {} events)\n",
                d.window,
                d.events_lo,
                d.events.0.max(d.events.1),
                d.hashes.0,
                d.events.0,
                d.hashes.1,
                d.events.1
            ),
        }
    }
}

fn hash_of(engine: &Engine) -> u64 {
    state_hash(&engine.save_state())
}

/// Replay `a` and `b` in windows of `window` events, comparing state
/// hashes at every boundary. Stops at the first divergence or when both
/// runs complete.
pub fn bisect_drift(
    a: &StaticRun<'_>,
    b: &StaticRun<'_>,
    window: u64,
) -> Result<BisectReport, BalanceError> {
    let window = window.max(1);
    let mut ea = prepare(a)?;
    let mut eb = prepare(b)?;
    let mut windows = 0u64;
    loop {
        let da = ea.step_events(&mut NullObserver, window)?;
        let db = eb.step_events(&mut NullObserver, window)?;
        windows += 1;
        let (ha, hb) = (hash_of(&ea), hash_of(&eb));
        if ha != hb {
            return Ok(BisectReport {
                window,
                windows,
                divergence: Some(DivergencePoint {
                    window: windows,
                    events_lo: (windows - 1) * window,
                    events: (ea.events(), eb.events()),
                    hashes: (ha, hb),
                }),
                final_events: (ea.events(), eb.events()),
            });
        }
        if da && db {
            return Ok(BisectReport {
                window,
                windows,
                divergence: None,
                final_events: (ea.events(), eb.events()),
            });
        }
        // Identical hashes imply identical `events` counters, so the two
        // replays can only finish together; reaching here means both have
        // work left.
        debug_assert_eq!(da, db);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtb_core::policy::PrioritySetting;
    use mtb_mpisim::Stepping;
    use mtb_workloads::metbench::MetBenchConfig;

    fn base(progs: &[mtb_mpisim::Program]) -> StaticRun<'_> {
        let cases = mtb_core::paper_cases::metbench_cases();
        StaticRun::new(progs, cases[0].placement.clone())
            .with_priorities(cases[0].priorities.clone())
            .with_stepping(Stepping::EventHorizon)
    }

    #[test]
    fn thread_counts_never_diverge() {
        let progs = MetBenchConfig::tiny().programs();
        let report = bisect_drift(&base(&progs), &base(&progs).with_threads(4), 5).unwrap();
        assert!(report.divergence.is_none(), "{}", report.render());
        assert_eq!(report.final_events.0, report.final_events.1);
    }

    #[test]
    fn thread_counts_never_diverge_under_noise() {
        // Noisy meso machines walk their noise edges inside one engine
        // event, sequentially at any thread count, so the event
        // trajectory itself must not move with the threads.
        let progs = MetBenchConfig::tiny().programs();
        let noisy = || base(&progs).with_noise(crate::cli::cpu0_irq_noise(10));
        let report = bisect_drift(&noisy(), &noisy().with_threads(4), 5).unwrap();
        assert!(report.divergence.is_none(), "{}", report.render());
        assert_eq!(report.final_events.0, report.final_events.1);
        assert!(report.windows > 1, "the run spans several windows");
    }

    #[test]
    fn stepping_modes_coincide_below_the_quantum() {
        // With the default 10⁹-cycle quantum and a tiny workload, every
        // event-horizon jump fits inside one quantum, so the two modes
        // take the very same steps — the bisector proves it.
        let progs = MetBenchConfig::tiny().programs();
        let report = bisect_drift(
            &base(&progs),
            &base(&progs).with_stepping(Stepping::Quantum),
            5,
        )
        .unwrap();
        assert!(report.divergence.is_none(), "{}", report.render());
    }

    #[test]
    fn fidelities_diverge_and_the_window_is_located() {
        // Far below tiny scale: the cycle model simulates every cycle the
        // event-horizon jump covers, so keep the jumps short.
        let progs = MetBenchConfig {
            scale: 2e-5,
            ..MetBenchConfig::tiny()
        }
        .programs();
        let report = bisect_drift(&base(&progs), &base(&progs).cycle_accurate(), 5).unwrap();
        // The meso and cycle models carry structurally different state,
        // so the very first window already disagrees — and the report
        // says exactly where.
        let d = report.divergence.expect("fidelities must diverge");
        assert_eq!(d.window, 1);
        assert_eq!(d.events_lo, 0);
        assert_ne!(d.hashes.0, d.hashes.1);
    }

    #[test]
    fn priority_changes_diverge() {
        let progs = MetBenchConfig::tiny().programs();
        let other = base(&progs).with_priorities(vec![
            PrioritySetting::ProcFs(6),
            PrioritySetting::ProcFs(2),
            PrioritySetting::Default,
            PrioritySetting::Default,
        ]);
        let report = bisect_drift(&base(&progs), &other, 3).unwrap();
        assert!(report.divergence.is_some());
    }
}
