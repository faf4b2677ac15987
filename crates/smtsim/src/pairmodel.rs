//! The two-phase pair model: what a priority pair does to the two ranks
//! that share one SMT core.
//!
//! A priority pair sets each context's decode share (Tables II/III). Both
//! ranks compute at the paired rates ([`MesoConfig::rates`], the equations
//! the mesoscale core executes) until the shorter one finishes. The early
//! finisher does *not* free the core: an MPI blocking call busy-waits
//! ([`spin_workload`]) at its configured priority, so the survivor runs
//! against that spin loop, still throttled by the same pair — which is why
//! Section VI recommends lowering the priority of polling threads.
//!
//! This module is the only statement of that model. The what-if predictor
//! ([`best_pair`]), the case-D inversion lint and the static plan model in
//! `mtb-verify`, and level 2 of the two-level controller all evaluate it;
//! the kernel's `Machine` installs the same [`spin_workload`] in every
//! wait.

use crate::inst::StreamSpec;
use crate::model::{Workload, WorkloadProfile};
use crate::perfmodel::MesoConfig;
use crate::priority::HwPriority;

/// Steady-state profile of the MPI busy-wait loop: a short,
/// cache-resident loop with light unit pressure. Also the profile a rank
/// (or sync epoch) without compute reports.
pub const SPIN_PROFILE: WorkloadProfile = WorkloadProfile {
    ipc_st: 2.0,
    unit_pressure: 0.1,
    mem_intensity: 0.0,
};

/// The busy-wait loop MPI blocking calls execute: a short cache-resident
/// load/compare/branch loop. It retires nothing useful but *consumes the
/// context's decode share* — the paper's motivation for lowering the
/// priority of processes that are "spinning for a lock, polling, etc."
/// (Section VI).
pub fn spin_workload() -> Workload {
    Workload::with_profile(
        "mpi-spin",
        StreamSpec {
            fx: 4,
            fp: 0,
            ls: 3,
            br: 3,
            dep_dist: 4,
            working_set: 256,
            code_kb: 1,
            seed: 0x5049,
        },
        SPIN_PROFILE,
    )
}

/// Steady-state throughputs (instructions/cycle) of `a` and `b` co-running
/// at priorities `pa`/`pb` under the default mesoscale constants.
pub fn pair_rates(
    a: &WorkloadProfile,
    b: &WorkloadProfile,
    pa: HwPriority,
    pb: HwPriority,
) -> [f64; 2] {
    MesoConfig::default().rates([pa, pb], [Some(a), Some(b)])
}

/// Throughput of a rank alone on a core: the sibling context holds no
/// work, both at MEDIUM, so part of the sibling's share is stolen.
pub fn solo_rate(profile: &WorkloadProfile) -> f64 {
    MesoConfig::default().rates([HwPriority::MEDIUM; 2], [Some(profile), None])[0]
}

/// Two-phase makespan (cycles) of a core running `a` for `work_a`
/// instructions and `b` for `work_b` at priorities `pa`/`pb`: both compute
/// until the faster finishes, then the survivor runs against the
/// finisher's spin loop.
///
/// Returns `(makespan, last)` with `last` 0 when `a` finishes last and 1
/// for `b`; an exact tie reports `b`. `None` when the pair or the survivor
/// is starved (a zero rate).
pub fn pair_makespan(
    a: &WorkloadProfile,
    b: &WorkloadProfile,
    work_a: u64,
    work_b: u64,
    pa: HwPriority,
    pb: HwPriority,
) -> Option<(f64, usize)> {
    let [ra, rb] = pair_rates(a, b, pa, pb);
    if ra <= 0.0 || rb <= 0.0 {
        return None;
    }
    let ta = work_a as f64 / ra;
    let tb = work_b as f64 / rb;
    if (ta - tb).abs() < f64::EPSILON {
        return Some((ta, 1));
    }
    let (first, last, left, r_surv) = if ta < tb {
        let r_surv = pair_rates(&SPIN_PROFILE, b, pa, pb)[1];
        (ta, 1, work_b as f64 - ta * rb, r_surv)
    } else {
        let r_surv = pair_rates(a, &SPIN_PROFILE, pa, pb)[0];
        (tb, 0, work_a as f64 - tb * ra, r_surv)
    };
    (r_surv > 0.0).then(|| (first + left.max(0.0) / r_surv, last))
}

/// Search the OS-settable priority pairs (1..=6 each) for the one
/// minimizing [`pair_makespan`]. Returns `(pa, pb, predicted_cycles)`;
/// `(MEDIUM, MEDIUM, INFINITY)` when every pair starves.
///
/// `max_diff` bounds the explored priority difference (the paper's case D
/// shows why unbounded differences are dangerous when the model is
/// imperfect). Ties keep the first pair in `pa`-major order.
pub fn best_pair(
    a: &WorkloadProfile,
    b: &WorkloadProfile,
    work_a: u64,
    work_b: u64,
    max_diff: u8,
) -> (HwPriority, HwPriority, f64) {
    let settable = &HwPriority::ALL[1..=6];
    let mut best = (HwPriority::MEDIUM, HwPriority::MEDIUM, f64::INFINITY);
    for &pa in settable {
        for &pb in settable {
            if pa.diff(pb) > max_diff {
                continue;
            }
            let t = pair_makespan(a, b, work_a, work_b, pa, pb).map_or(f64::INFINITY, |(t, _)| t);
            if t < best.2 {
                best = (pa, pb, t);
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{CoreModel, ThreadId};
    use crate::perfmodel::MesoCore;
    use proptest::prelude::*;

    fn p(v: u8) -> HwPriority {
        HwPriority::ALL[usize::from(v)]
    }

    fn dense(ipc: f64) -> WorkloadProfile {
        WorkloadProfile::new(ipc, 0.05, 0.02)
    }

    fn makespan(w: [u64; 2], prio: [u8; 2]) -> f64 {
        let d = dense(2.6);
        let Some((t, _)) = pair_makespan(&d, &d, w[0], w[1], p(prio[0]), p(prio[1])) else {
            panic!("a dense pair never starves");
        };
        t
    }

    /// Run the pair on a [`MesoCore`] the way the engine does: both
    /// contexts compute until the first finishes, the finisher's context
    /// switches to the spin loop, and the survivor retires its remainder.
    /// The finisher is `a` on a same-cycle finish, matching the model's
    /// tie rule. `None` when a context never finishes.
    fn executed(prof: [WorkloadProfile; 2], work: [u64; 2], prio: [HwPriority; 2]) -> Option<u64> {
        let mut core = MesoCore::default();
        for t in ThreadId::BOTH {
            let i = t.index();
            let w = Workload::with_profile("w", StreamSpec::balanced(i as u64), prof[i]);
            core.assign(t, w);
            core.set_priority(t, prio[i]);
        }
        let ca = core.cycles_to_retire(ThreadId::A, work[0])?;
        let cb = core.cycles_to_retire(ThreadId::B, work[1])?;
        let (first, finisher) = if ca <= cb {
            (ca, ThreadId::A)
        } else {
            (cb, ThreadId::B)
        };
        let survivor = finisher.other();
        core.advance(first);
        core.assign(finisher, spin_workload());
        let left = work[survivor.index()] - core.retired(survivor);
        Some(first + core.cycles_to_retire(survivor, left)?)
    }

    #[test]
    fn spin_workload_carries_the_spin_profile() {
        assert_eq!(spin_workload().profile, SPIN_PROFILE);
        assert_eq!(SPIN_PROFILE, WorkloadProfile::new(2.0, 0.1, 0.0));
    }

    #[test]
    fn rates_match_the_meso_core_by_construction() {
        let [ra, rb] = pair_rates(&dense(2.6), &dense(2.6), p(4), p(4));
        assert_eq!(ra.to_bits(), rb.to_bits());
        assert!(ra <= 2.5 + 1e-9, "equal share supply bound");
        let mut core = MesoCore::default();
        core.assign(
            ThreadId::A,
            Workload::with_profile("a", StreamSpec::balanced(0), dense(2.6)),
        );
        core.set_priority(ThreadId::A, p(4));
        assert_eq!(
            solo_rate(&dense(2.6)).to_bits(),
            core.throughputs()[0].to_bits()
        );
    }

    #[test]
    fn boosting_helps_the_boosted_thread() {
        let [r_hi, r_lo] = pair_rates(&dense(2.6), &dense(2.6), p(6), p(4));
        let [r_eq, _] = pair_rates(&dense(2.6), &dense(2.6), p(4), p(4));
        assert!(r_hi > r_eq);
        assert!(r_lo < r_eq);
    }

    #[test]
    fn makespan_accounts_for_the_solo_tail() {
        // Balanced work at equal priorities: ends together, no tail.
        let t_eq = makespan([1_000_000, 1_000_000], [4, 4]);
        // Heavily skewed work: the light thread finishes early and the
        // heavy one continues against its spin loop.
        let t_skew = makespan([4_000_000, 1_000_000], [4, 4]);
        assert!(t_skew > t_eq);
        assert!(
            t_skew < 4.0 * t_eq,
            "the tail against a spin loop still beats 4 sequential phases"
        );
    }

    #[test]
    fn an_exact_tie_reports_b_last_at_the_common_time() {
        let [ra, _] = pair_rates(&dense(2.6), &dense(2.6), p(4), p(4));
        let got = pair_makespan(&dense(2.6), &dense(2.6), 1_000, 1_000, p(4), p(4));
        assert_eq!(got, Some((1_000.0 / ra, 1)));
    }

    #[test]
    fn starved_pairs_have_no_makespan() {
        let off = pair_makespan(
            &dense(2.6),
            &dense(2.6),
            1_000,
            1_000,
            HwPriority::OFF,
            p(4),
        );
        assert_eq!(off, None);
        let idle = WorkloadProfile::new(0.0, 0.0, 0.0);
        assert_eq!(
            pair_makespan(&idle, &dense(2.6), 1_000, 1_000, p(4), p(4)),
            None
        );
        assert_eq!(
            best_pair(&idle, &idle, 1_000, 1_000, 2),
            (HwPriority::MEDIUM, HwPriority::MEDIUM, f64::INFINITY)
        );
    }

    #[test]
    fn best_pair_for_imbalanced_work_boosts_the_heavy_thread() {
        let (pa, pb, t) = best_pair(&dense(2.6), &dense(2.6), 4_000_000, 1_000_000, 2);
        assert!(
            pa > pb,
            "thread A has 4x the work, it must be boosted: ({pa},{pb})"
        );
        assert!(t.is_finite());
        // And the chosen pair beats the default.
        assert!(t <= makespan([4_000_000, 1_000_000], [4, 4]));
    }

    #[test]
    fn best_pair_for_balanced_work_is_symmetric() {
        let (pa, pb, _) = best_pair(&dense(2.6), &dense(2.6), 1_000_000, 1_000_000, 2);
        assert_eq!(pa, pb, "no reason to skew a balanced pair");
    }

    #[test]
    fn memory_bound_pairs_gain_little_from_priorities() {
        // The SIESTA story: a 1.6-IPC thread is not decode-limited at
        // share 1/2, so boosting the partner barely hurts it.
        let mem = WorkloadProfile::new(1.6, 0.2, 0.5);
        let [_, r_lo_eq] = pair_rates(&mem, &mem, p(4), p(4));
        let [_, r_lo_boosted] = pair_rates(&mem, &mem, p(5), p(4));
        let hit = 1.0 - r_lo_boosted / r_lo_eq;
        assert!(
            hit < 0.05,
            "diff-1 penalty should be tiny for memory-bound code: {hit}"
        );
    }

    #[test]
    fn diff_cap_is_respected() {
        let (pa, pb, _) = best_pair(&dense(2.6), &dense(2.6), 100_000_000, 1_000_000, 1);
        assert!(pa.diff(pb) <= 1);
    }

    proptest! {
        /// The model is what the meso engine executes: over random
        /// profiles, works and OS-settable priorities, the two-phase
        /// makespan lands within 2 cycles of a `MesoCore` driven through
        /// both phases (the core retires whole instructions, the model
        /// fractional ones), and both starve together.
        #[test]
        fn prop_makespan_matches_the_meso_core(
            ipc in (0.3f64..3.5, 0.3f64..3.5),
            unit in (0.0f64..1.0, 0.0f64..1.0),
            mem in (0.0f64..1.0, 0.0f64..1.0),
            work in (1_000u64..5_000_000, 1_000u64..5_000_000),
            prio in (1u8..=6, 1u8..=6),
        ) {
            let prof = [
                WorkloadProfile::new(ipc.0, unit.0, mem.0),
                WorkloadProfile::new(ipc.1, unit.1, mem.1),
            ];
            let (pa, pb) = (p(prio.0), p(prio.1));
            let model = pair_makespan(&prof[0], &prof[1], work.0, work.1, pa, pb);
            let core = executed(prof, [work.0, work.1], [pa, pb]);
            prop_assert_eq!(model.is_none(), core.is_none());
            if let (Some((t, _)), Some(c)) = (model, core) {
                prop_assert!((c as f64 - t).abs() <= 2.0, "core {} vs model {}", c, t);
            }
        }
    }
}
