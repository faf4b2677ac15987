//! Measured workload calibration.
//!
//! [`StreamSpec::profile`] estimates a workload's steady-state behaviour
//! analytically; this module *measures* it instead, by running the stream
//! on the cycle-level core in single-thread mode. Measured profiles make
//! the mesoscale model track the cycle model closely for workloads whose
//! analytic estimate is off (deep memory behaviour, pathological
//! dependency patterns) — see the `fidelity` ablation binary.

use crate::core::{CoreConfig, SmtCore};
use crate::inst::StreamSpec;
use crate::model::{CoreModel, ThreadId, Workload, WorkloadProfile};
use crate::priority::HwPriority;
use crate::Cycles;

/// Cycles of cache/pipeline warmup before measuring. Long enough to walk
/// an L2-resident working set even at low IPC (cold compulsory misses
/// otherwise dominate the measurement).
pub const WARMUP: Cycles = 400_000;
/// Cycles measured.
pub const MEASURE: Cycles = 200_000;

/// Measure a stream's ST IPC on the cycle-level core and derive the
/// contention fields analytically from the spec.
pub fn calibrated_profile(spec: &StreamSpec) -> WorkloadProfile {
    calibrated_profile_with(spec, &CoreConfig::default())
}

/// [`calibrated_profile`] against a specific core configuration.
pub fn calibrated_profile_with(spec: &StreamSpec, cfg: &CoreConfig) -> WorkloadProfile {
    let mut core = SmtCore::new(cfg.clone());
    core.assign(ThreadId::A, Workload::from_spec("calib", *spec));
    core.set_priority(ThreadId::A, HwPriority::VERY_HIGH);
    core.set_priority(ThreadId::B, HwPriority::OFF);
    core.advance(WARMUP);
    let [retired, _] = core.advance(MEASURE);
    let ipc_st = (retired as f64 / MEASURE as f64).max(0.01);

    let analytic = spec.profile();
    WorkloadProfile {
        ipc_st,
        // Re-derive unit pressure against the measured IPC: pressure is
        // how close the achieved rate sits to the per-class unit bound.
        unit_pressure: (analytic.unit_pressure * ipc_st / analytic.ipc_st).clamp(0.0, 1.0),
        mem_intensity: analytic.mem_intensity,
    }
}

/// Build a [`Workload`] whose profile was measured, not estimated.
pub fn calibrated_workload(name: impl Into<std::sync::Arc<str>>, spec: StreamSpec) -> Workload {
    let profile = calibrated_profile(&spec);
    Workload::with_profile(name, spec, profile)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibrated_ipc_matches_a_direct_run() {
        let spec = StreamSpec::balanced(11);
        let p = calibrated_profile(&spec);
        // Re-measure by hand; must agree exactly (same deterministic run).
        let p2 = calibrated_profile(&spec);
        assert_eq!(p.ipc_st, p2.ipc_st);
        assert!(p.ipc_st > 0.1 && p.ipc_st <= 5.0);
    }

    #[test]
    fn calibration_orders_workloads_like_the_cycle_model() {
        let fe = calibrated_profile(&StreamSpec::frontend_bound(1));
        let fpu = calibrated_profile(&StreamSpec::fpu_bound(1));
        let mem = calibrated_profile(&StreamSpec::mem_bound(1));
        assert!(
            fe.ipc_st > fpu.ipc_st,
            "frontend {} vs fpu {}",
            fe.ipc_st,
            fpu.ipc_st
        );
        assert!(fpu.ipc_st > mem.ipc_st * 0.5, "mem loads are slowest-ish");
        assert!(mem.mem_intensity > fe.mem_intensity);
    }

    #[test]
    fn calibrated_workload_carries_the_measured_profile() {
        let spec = StreamSpec::l2_bound(5);
        let w = calibrated_workload("l2", spec);
        assert_eq!(w.profile, calibrated_profile(&spec));
        assert_eq!(w.stream, spec);
    }
}
