//! Priority-configuration lints: Table I/III legality, starvation
//! semantics, bounded differences, and the case-D inversion prediction.
//!
//! The inversion lint replays the paper's hazard: a priority pair whose
//! decode-share collapse makes the *light* rank of a core the new
//! bottleneck (MetBench case D, BT-MZ case B, SIESTA case D — Section V).
//! It evaluates the mesoscale decode-share model over the case's
//! placement, including the finished rank's busy-wait spin load, and
//! flags pairs predicted to invert the compute imbalance while worsening
//! the core's makespan. Each rank's load is its inferred profile's
//! [`RankProfile::load`](crate::profile::RankProfile::load): [`crate::verify`]
//! and `mtb suggest`'s hazard filter feed it the same input.

use crate::diag::{codes, Diagnostic, Report, Severity};
use mtb_oskernel::priority_iface::{validate, PrioritySetting};
use mtb_oskernel::{core_pairs, CtxAddr, KernelFlavour};
use mtb_smtsim::model::WorkloadProfile;
use mtb_smtsim::pairmodel::pair_makespan;
use mtb_smtsim::HwPriority;

/// A priority configuration to lint: a named case's placement and
/// per-rank priorities under a kernel flavour.
#[derive(Debug, Clone)]
pub struct CaseSpec {
    /// Case label for messages (e.g. `"metbench/D"`).
    pub name: String,
    /// `placement[rank]` = hardware context.
    pub placement: Vec<CtxAddr>,
    /// Per-rank priority settings (short vectors pad with `Default`).
    pub priorities: Vec<PrioritySetting>,
    /// Kernel flavour the case runs under.
    pub flavour: KernelFlavour,
}

/// Per-rank compute summary the inversion lint predicts from: total
/// instructions and the dominant phase's profile (see
/// [`RankProfile::load`](crate::profile::RankProfile::load)).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RankLoad {
    /// Total compute instructions across the rank's program.
    pub work: u64,
    /// Profile of the rank's dominant compute phase.
    pub profile: WorkloadProfile,
}

/// The bounded-difference limit the lint enforces when the caller does
/// not supply one — the default `DynamicConfig::max_diff`.
pub const DEFAULT_MAX_DIFF: u8 = 2;

/// Relative makespan degradation below which a predicted inversion is
/// not reported (model noise floor).
const INVERT_MARGIN: f64 = 1.02;

/// Lint a priority configuration. `loads` (one per rank, or empty to
/// skip the inversion prediction) feeds the decode-share model.
pub fn check_case(case: &CaseSpec, loads: &[RankLoad]) -> Report {
    let mut report = Report::new();
    let n = case.placement.len();

    // Per-rank legality under the configured interface (Table I).
    for rank in 0..n {
        let spec = setting(case, rank);
        if let Some(via) = spec.via() {
            if let Err(e) = validate(case.flavour, spec.requested(), via) {
                report.push(
                    Diagnostic::new(
                        codes::PRIO_ILLEGAL,
                        Severity::Error,
                        format!(
                            "{}: rank {rank} requests priority {} via {via:?}: {e}",
                            case.name,
                            spec.requested()
                        ),
                    )
                    .with_rank(rank),
                );
            }
        }
        if spec.requested() == 0 {
            report.push(
                Diagnostic::new(
                    codes::PRIO_STARVE,
                    Severity::Error,
                    format!(
                        "{}: rank {rank} at priority 0 — the hardware thread stops \
                         decoding entirely and the rank never finishes",
                        case.name
                    ),
                )
                .with_rank(rank),
            );
        }
    }

    // Pair lints over same-core siblings. The inversion prediction is
    // relative to the *application* baseline: the slowest core at
    // MEDIUM/MEDIUM. A pair whose makespan worsens but stays below that
    // baseline does not invert the run — another core still dominates
    // (BT-MZ case C: one core's pair degrades, the heavy core improves,
    // the application gets faster).
    let pairs = core_pairs(&case.placement);
    let app_base = pairs
        .iter()
        .filter_map(|&(a, b)| {
            let (la, lb) = (loads.get(a)?, loads.get(b)?);
            Some(makespan(la, lb, 4, 4)?.0)
        })
        .fold(0.0_f64, f64::max);
    for (a, b) in pairs {
        let pa = effective(case, a);
        let pb = effective(case, b);
        let (lo_rank, lo, hi) = if pa <= pb { (a, pa, pb) } else { (b, pb, pa) };
        if lo == 1 && hi >= 3 {
            report.push(
                Diagnostic::new(
                    codes::PRIO_STARVE,
                    Severity::Warning,
                    format!(
                        "{}: rank {lo_rank} at priority 1 shares a core with priority \
                         {hi} — its decode share is effectively starved (Table III)",
                        case.name
                    ),
                )
                .with_rank(lo_rank),
            );
        }
        if hi - lo > DEFAULT_MAX_DIFF {
            report.push(
                Diagnostic::new(
                    codes::PRIO_DIFF,
                    Severity::Warning,
                    format!(
                        "{}: ranks {a} and {b} share a core at priorities {pa}/{pb} \
                         (difference {} exceeds the bounded-difference limit {})",
                        case.name,
                        hi - lo,
                        DEFAULT_MAX_DIFF
                    ),
                )
                .with_rank(a),
            );
        }

        // Inversion prediction, when the model can run the pair.
        if let (Some(la), Some(lb)) = (loads.get(a), loads.get(b)) {
            if let Some(msg) = predict_inversion(la, lb, pa, pb, app_base) {
                report.push(
                    Diagnostic::new(
                        codes::PRIO_INVERT,
                        Severity::Warning,
                        format!("{}: ranks {a}/{b}: {msg}", case.name),
                    )
                    .with_rank(a),
                );
            }
        }
    }
    report
}

/// The priority the hardware ends up at, given the kernel flavour: on a
/// vanilla kernel user-settable priorities decay back to MEDIUM at the
/// first interrupt, so pair dynamics behave as 4 (the legality Error is
/// reported separately).
pub(crate) fn effective(case: &CaseSpec, rank: usize) -> u8 {
    match setting(case, rank) {
        PrioritySetting::ProcFs(_) if !case.flavour.has_procfs_interface() => 4,
        spec => spec.requested(),
    }
}

/// The setting `rank` requests (`Default` past the end of a short
/// vector).
fn setting(case: &CaseSpec, rank: usize) -> PrioritySetting {
    case.priorities
        .get(rank)
        .copied()
        .unwrap_or(PrioritySetting::Default)
}

/// Two-phase makespan of a core pair ([`pair_makespan`]): both compute
/// until the faster finishes, then the survivor runs against the
/// finisher's spin loop. Raw priorities clamp into 1..=7 (a priority-0
/// rank is reported as starving by the legality lints, not modelled).
/// Returns `(makespan, last_to_finish)` where `last_to_finish` is 0 for
/// thread a, 1 for b. `None` when a rate is zero (starved pair).
pub(crate) fn makespan(la: &RankLoad, lb: &RankLoad, pa: u8, pb: u8) -> Option<(f64, usize)> {
    let clamp = |p: u8| HwPriority::new(p.clamp(1, 7));
    pair_makespan(
        &la.profile,
        &lb.profile,
        la.work,
        lb.work,
        clamp(pa)?,
        clamp(pb)?,
    )
}

/// Does the pair `(pa, pb)` invert the compute imbalance relative to the
/// default MEDIUM/MEDIUM pair? Returns the explanation when the
/// bottleneck *flips* to the other rank AND the predicted makespan
/// degrades beyond the model's noise margin — both within the pair and
/// against the application baseline `app_base` (the slowest core at
/// MEDIUM/MEDIUM): a pair that worsens but stays below another core's
/// baseline does not become the run's bottleneck.
fn predict_inversion(
    la: &RankLoad,
    lb: &RankLoad,
    pa: u8,
    pb: u8,
    app_base: f64,
) -> Option<String> {
    if (pa, pb) == (4, 4) || la.work == 0 || lb.work == 0 {
        return None;
    }
    let (base_t, base_last) = makespan(la, lb, 4, 4)?;
    let (cfg_t, cfg_last) = makespan(la, lb, pa, pb)?;
    if cfg_last != base_last && cfg_t > base_t * INVERT_MARGIN && cfg_t > app_base * INVERT_MARGIN {
        let pct = (cfg_t / base_t - 1.0) * 100.0;
        Some(format!(
            "priorities {pa}/{pb} are predicted to invert the imbalance: the \
             previously-early thread becomes the bottleneck and the core's \
             makespan degrades by {pct:.0}% vs MEDIUM/MEDIUM"
        ))
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dense(ipc: f64) -> WorkloadProfile {
        WorkloadProfile::new(ipc, 0.05, 0.02)
    }

    fn case(priorities: Vec<PrioritySetting>) -> CaseSpec {
        CaseSpec {
            name: "test".into(),
            placement: (0..priorities.len()).map(CtxAddr::from_cpu).collect(),
            priorities,
            flavour: KernelFlavour::Patched,
        }
    }

    #[test]
    fn procfs_zero_and_seven_are_illegal() {
        let r = check_case(
            &case(vec![PrioritySetting::ProcFs(0), PrioritySetting::ProcFs(7)]),
            &[],
        );
        assert_eq!(r.count(Severity::Error), 3, "{r}"); // 0: illegal+starve, 7: illegal
        assert!(r.has_code(codes::PRIO_ILLEGAL));
        assert!(r.has_code(codes::PRIO_STARVE));
    }

    #[test]
    fn procfs_on_vanilla_kernel_is_illegal() {
        let mut c = case(vec![PrioritySetting::ProcFs(5), PrioritySetting::Default]);
        c.flavour = KernelFlavour::Vanilla;
        let r = check_case(&c, &[]);
        assert!(r.has_code(codes::PRIO_ILLEGAL), "{r}");
    }

    #[test]
    fn starved_low_priority_pair_warns() {
        let r = check_case(
            &case(vec![PrioritySetting::ProcFs(1), PrioritySetting::ProcFs(6)]),
            &[],
        );
        assert!(r.has_code(codes::PRIO_STARVE), "{r}");
        assert!(r.has_code(codes::PRIO_DIFF), "diff 5 > 2: {r}");
        assert!(!r.has_errors(), "legal, just suspicious: {r}");
    }

    #[test]
    fn bounded_difference_respected_pairs_are_quiet() {
        let r = check_case(
            &case(vec![PrioritySetting::ProcFs(4), PrioritySetting::ProcFs(6)]),
            &[],
        );
        assert!(!r.has_code(codes::PRIO_DIFF), "{r}");
    }

    #[test]
    fn inversion_fires_when_the_light_rank_is_crushed() {
        // 4x imbalance; boosting the HEAVY rank by 3 over the light one
        // collapses the light rank's decode share — the paper's case D.
        let light = RankLoad {
            work: 1_000_000,
            profile: dense(2.8),
        };
        let heavy = RankLoad {
            work: 4_000_000,
            profile: dense(2.8),
        };
        let r = check_case(
            &case(vec![PrioritySetting::ProcFs(3), PrioritySetting::ProcFs(6)]),
            &[light, heavy],
        );
        assert!(r.has_code(codes::PRIO_INVERT), "{r}");
    }

    #[test]
    fn moderate_boost_of_the_heavy_rank_is_clean() {
        let light = RankLoad {
            work: 1_000_000,
            profile: dense(2.8),
        };
        let heavy = RankLoad {
            work: 4_000_000,
            profile: dense(2.8),
        };
        let r = check_case(
            &case(vec![PrioritySetting::ProcFs(4), PrioritySetting::ProcFs(6)]),
            &[light, heavy],
        );
        assert!(!r.has_code(codes::PRIO_INVERT), "{r}");
        assert!(!r.has_errors(), "{r}");
    }

    #[test]
    fn default_pair_never_inverts() {
        let l = RankLoad {
            work: 1_000_000,
            profile: dense(2.8),
        };
        let h = RankLoad {
            work: 4_000_000,
            profile: dense(2.8),
        };
        let r = check_case(
            &case(vec![PrioritySetting::Default, PrioritySetting::Default]),
            &[l, h],
        );
        assert!(r.diagnostics.is_empty(), "{r}");
    }
}
