//! Energy accounting.
//!
//! The paper's introduction motivates MT processors by their
//! "performance/energy consumption and performance/cost ratios"; this
//! module makes that dimension measurable. A simple first-order model:
//! every core draws a base power while the machine runs; every hardware
//! context draws active power while it executes anything — including an
//! MPI busy-wait, which is exactly why spinning at a synchronization
//! point is costly — and a much smaller idle power once its process has
//! exited; retired instructions add dynamic energy on top.

use crate::timeline::Timeline;
use crate::{Cycles, NOMINAL_CLOCK_HZ};

/// First-order power/energy parameters (POWER5-flavoured defaults).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyModel {
    /// Watts per core, whenever the machine is powered (clock tree,
    /// caches).
    pub core_base_watts: f64,
    /// Watts per hardware context while it executes (compute *or* spin).
    pub ctx_active_watts: f64,
    /// Watts per context while it idles at VERY LOW priority.
    pub ctx_idle_watts: f64,
    /// Nanojoules per retired instruction.
    pub nj_per_instruction: f64,
}

impl Default for EnergyModel {
    fn default() -> Self {
        EnergyModel {
            core_base_watts: 15.0,
            ctx_active_watts: 10.0,
            ctx_idle_watts: 1.5,
            nj_per_instruction: 0.5,
        }
    }
}

/// Energy outcome of a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyReport {
    /// Total energy to solution, joules.
    pub joules: f64,
    /// Mean power over the run, watts.
    pub avg_watts: f64,
    /// Energy-delay product (J·s) — lower is better on both axes.
    pub edp: f64,
}

/// Compute the energy of a run.
///
/// * `timelines` — per-process activity records (a process is *active*
///   for its whole recorded lifetime: waiting ranks spin);
/// * `retired` — per-process retired instruction counts;
/// * `total_cycles` — run length;
/// * `contexts` — hardware contexts in the machine (2 per core); contexts
///   without a process, and every context after its process exits, idle.
pub fn measure(
    timelines: &[Timeline],
    retired: &[u64],
    total_cycles: Cycles,
    contexts: usize,
    model: &EnergyModel,
) -> EnergyReport {
    let seconds = total_cycles as f64 / NOMINAL_CLOCK_HZ;
    let cores = contexts.div_ceil(2);

    // Per-context active/idle split: a context is active while its
    // process's timeline runs (spin included), idle before/after and when
    // it has no process at all.
    let mut active_s = 0.0;
    for t in timelines {
        active_s += t.duration() as f64 / NOMINAL_CLOCK_HZ;
    }
    let total_ctx_s = contexts as f64 * seconds;
    let idle_s = (total_ctx_s - active_s).max(0.0);

    let instructions: u64 = retired.iter().sum();
    let joules = model.core_base_watts * cores as f64 * seconds
        + model.ctx_active_watts * active_s
        + model.ctx_idle_watts * idle_s
        + model.nj_per_instruction * 1e-9 * instructions as f64;

    EnergyReport {
        joules,
        avg_watts: if seconds > 0.0 { joules / seconds } else { 0.0 },
        edp: joules * seconds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::ProcState;
    use crate::timeline::TimelineBuilder;

    fn tl(pid: usize, end: Cycles) -> Timeline {
        TimelineBuilder::new(pid, format!("P{pid}"), 0, ProcState::Compute).finish(end)
    }

    const SEC: Cycles = NOMINAL_CLOCK_HZ as Cycles;

    #[test]
    fn fully_active_machine_draws_full_power() {
        let m = EnergyModel::default();
        let tls = vec![tl(0, SEC), tl(1, SEC), tl(2, SEC), tl(3, SEC)];
        let r = measure(&tls, &[0, 0, 0, 0], SEC, 4, &m);
        // 2 cores base + 4 active contexts, 1 second.
        let expect = 2.0 * m.core_base_watts + 4.0 * m.ctx_active_watts;
        assert!((r.joules - expect).abs() < 1e-9, "{} vs {expect}", r.joules);
        assert!((r.avg_watts - expect).abs() < 1e-9);
    }

    #[test]
    fn early_exits_fall_to_idle_power() {
        let m = EnergyModel::default();
        // One rank runs the whole second; the other exits halfway.
        let tls = vec![tl(0, SEC), tl(1, SEC / 2)];
        let r = measure(&tls, &[0, 0], SEC, 2, &m);
        let expect = m.core_base_watts // one core
            + 1.5 * m.ctx_active_watts
            + 0.5 * m.ctx_idle_watts;
        assert!((r.joules - expect).abs() < 1e-9, "{} vs {expect}", r.joules);
    }

    #[test]
    fn instructions_add_dynamic_energy() {
        let m = EnergyModel::default();
        let tls = vec![tl(0, SEC)];
        let none = measure(&tls, &[0], SEC, 2, &m).joules;
        let some = measure(&tls, &[2_000_000_000], SEC, 2, &m).joules;
        assert!((some - none - 1.0).abs() < 1e-9, "2G inst at 0.5 nJ = 1 J");
    }

    #[test]
    fn edp_penalizes_slow_runs_quadratically_in_time() {
        let m = EnergyModel::default();
        let fast = measure(&[tl(0, SEC)], &[0], SEC, 2, &m);
        let slow = measure(&[tl(0, 2 * SEC)], &[0], 2 * SEC, 2, &m);
        // Same average power, twice the time: 2x energy, 4x EDP.
        assert!((slow.joules / fast.joules - 2.0).abs() < 1e-9);
        assert!((slow.edp / fast.edp - 4.0).abs() < 1e-9);
    }

    #[test]
    fn zero_length_run_is_zero_energy() {
        let r = measure(&[], &[], 0, 4, &EnergyModel::default());
        assert_eq!(r.joules, 0.0);
        assert_eq!(r.avg_watts, 0.0);
    }
}
