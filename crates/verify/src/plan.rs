//! Static makespan model over `(placement, priority-plan)` space, and
//! the model-driven placement lints.
//!
//! Generalizes the pairwise inversion predictor in [`crate::prio`] to a
//! whole application plan. A [`Plan`] names a rank→context placement and
//! per-rank hardware priorities; [`predict`] evaluates it against the
//! per-phase [`RankProfile`]s from [`crate::profile`]:
//!
//! * **per core, per sync epoch**: a two-phase pair makespan through the
//!   exact Table II/III decode-share semantics (the same `ShareLaw`
//!   equations the mesoscale engine and the `GrantLut` arbitration table
//!   encode — property tests in `smtsim` prove the two agree
//!   cycle-for-cycle over every priority pair), including the finished
//!   rank's busy-wait spin load;
//! * **across cores**: barriers couple the epoch — the application
//!   advances at the *slowest* core's pace, so the predicted makespan is
//!   the sum over epochs of the per-epoch maximum.
//!
//! [`enumerate_plans`] spans the search space `mtb suggest` ranks:
//! every pairing of ranks onto SMT cores × the OS-settable priority
//! ladder within the bounded-difference limit. On top of the model sit
//! three advisory lints (Info severity — the configurations are legal
//! and the paper's own reference cases trigger them by design):
//! `MTB-ILP-CONFLICT`, `MTB-BOTTLENECK-UNPAIRED` and
//! `MTB-PLAN-DOMINATED`.

use crate::diag::{codes, Diagnostic, Report, Severity};
use crate::prio::{self, CaseSpec, RankLoad};
use crate::profile::{corun_interference, IlpClass, RankProfile};
use mtb_oskernel::{core_groups, core_pairs, CtxAddr};
use mtb_smtsim::pairmodel::solo_rate;

/// One candidate static configuration: placement plus effective hardware
/// priorities (1..=6, the OS-settable range), indexed by rank.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// `placement[rank]` = hardware context.
    pub placement: Vec<CtxAddr>,
    /// `priorities[rank]` = effective hardware priority.
    pub priorities: Vec<u8>,
}

impl Plan {
    /// Human-readable plan label: core groups with their priorities,
    /// e.g. `"r0+r3 @4/6 | r1+r2 @4/6"`.
    pub fn label(&self) -> String {
        let mut cores = core_groups(&self.placement);
        cores.sort_by_key(|(core, _)| *core);
        cores
            .iter()
            .map(|(_, ranks)| {
                let names: Vec<String> = ranks.iter().map(|r| format!("r{r}")).collect();
                let prios: Vec<String> = ranks
                    .iter()
                    .map(|&r| self.priorities[r].to_string())
                    .collect();
                format!("{} @{}", names.join("+"), prios.join("/"))
            })
            .collect::<Vec<_>>()
            .join(" | ")
    }
}

/// Predicted outcome of a plan.
#[derive(Debug, Clone, PartialEq)]
pub struct Prediction {
    /// Predicted application makespan (cycles at the model's scale).
    pub makespan: f64,
    /// Per-core `(core, ranks, busy_time)`: the summed per-epoch
    /// completion time of that core's pair.
    pub per_core: Vec<(usize, Vec<usize>, f64)>,
    /// The rank predicted to finish last overall.
    pub bottleneck: usize,
    /// Spread between the slowest and fastest core as a percentage of
    /// the mean core time.
    pub imbalance_pct: f64,
}

/// Per-epoch load vectors for the phase-aligned path: `loads[e][rank]`.
/// `None` when the ranks' sync structures disagree (fall back to
/// whole-program totals — one "epoch").
fn epoch_loads(profiles: &[RankProfile]) -> Option<Vec<Vec<RankLoad>>> {
    let epochs = profiles.first()?.phases.len();
    if profiles.iter().any(|p| p.phases.len() != epochs) {
        return None;
    }
    Some(
        (0..epochs)
            .map(|e| {
                profiles
                    .iter()
                    .map(|p| RankLoad {
                        work: p.phases[e].work,
                        profile: p.phases[e].profile,
                    })
                    .collect()
            })
            .collect(),
    )
}

/// Predict the makespan of `(placement, priorities)` over the inferred
/// rank profiles. Returns `None` when a core hosts more than two ranks,
/// a rank is missing a priority/placement, or a pair is fully starved.
pub fn predict(
    profiles: &[RankProfile],
    placement: &[CtxAddr],
    priorities: &[u8],
) -> Option<Prediction> {
    let n = profiles.len();
    if placement.len() != n || priorities.len() != n || n == 0 {
        return None;
    }
    let groups = core_groups(placement);
    if groups.iter().any(|(_, ranks)| ranks.len() > 2) {
        return None;
    }

    let per_epoch = epoch_loads(profiles).unwrap_or_else(|| {
        vec![profiles
            .iter()
            .map(|p| RankLoad {
                work: p.work,
                profile: p.profile,
            })
            .collect()]
    });

    let mut core_time = vec![0.0f64; groups.len()];
    let mut core_last = vec![0usize; groups.len()];
    let mut makespan = 0.0f64;
    for loads in &per_epoch {
        let mut epoch_max = 0.0f64;
        for (g, (_, ranks)) in groups.iter().enumerate() {
            let (t, last) = match ranks.as_slice() {
                [solo] => {
                    let l = &loads[*solo];
                    let r = solo_rate(&l.profile);
                    if r <= 0.0 {
                        return None;
                    }
                    (l.work as f64 / r, *solo)
                }
                [a, b] => {
                    let (t, last_idx) =
                        prio::makespan(&loads[*a], &loads[*b], priorities[*a], priorities[*b])?;
                    (t, if last_idx == 0 { *a } else { *b })
                }
                _ => return None,
            };
            core_time[g] += t;
            // A zero-work epoch (e.g. a pure-sync segment) finishes
            // instantly and says nothing about who is the straggler.
            if t > 0.0 {
                core_last[g] = last;
            }
            epoch_max = epoch_max.max(t);
        }
        makespan += epoch_max;
    }

    let slowest = core_time
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map(|(g, _)| g)?;
    let mean = core_time.iter().sum::<f64>() / core_time.len() as f64;
    let min = core_time.iter().cloned().fold(f64::INFINITY, f64::min);
    let imbalance_pct = if mean > 0.0 {
        (core_time[slowest] - min) / mean * 100.0
    } else {
        0.0
    };
    Some(Prediction {
        makespan,
        per_core: groups
            .iter()
            .zip(&core_time)
            .map(|((core, ranks), &t)| (*core, ranks.clone(), t))
            .collect(),
        bottleneck: core_last[slowest],
        imbalance_pct,
    })
}

/// The OS-settable priority values the plan search explores. 1 and 2 are
/// excluded: Table III shows priority 1 is effectively starved against
/// any normal sibling, and the bounded-difference limit makes 2 useful
/// only next to 3/4 where 3..=6 already covers the same differences.
pub const PRIORITY_LADDER: &[u8] = &[3, 4, 5, 6];

/// Distinct pairings of `n` ranks onto 2-way SMT cores. For 4 ranks the
/// three perfect matchings; for 2 ranks the single pair; otherwise the
/// identity placement only.
pub fn enumerate_pairings(n: usize) -> Vec<Vec<CtxAddr>> {
    let place = |pairs: &[(usize, usize)]| {
        let mut p = vec![CtxAddr::from_cpu(0); pairs.len() * 2];
        for (core, &(a, b)) in pairs.iter().enumerate() {
            p[a] = CtxAddr::from_cpu(core * 2);
            p[b] = CtxAddr::from_cpu(core * 2 + 1);
        }
        p
    };
    match n {
        2 => vec![place(&[(0, 1)])],
        4 => vec![
            place(&[(0, 1), (2, 3)]),
            place(&[(0, 2), (1, 3)]),
            place(&[(0, 3), (1, 2)]),
        ],
        _ => vec![(0..n).map(CtxAddr::from_cpu).collect()],
    }
}

/// The full plan search space: pairings × per-core priority-ladder
/// assignments within the bounded-difference limit.
pub fn enumerate_plans(n: usize) -> Vec<Plan> {
    let mut plans = Vec::new();
    for placement in enumerate_pairings(n) {
        let groups = core_groups(&placement);
        // Per-core candidate priority pairs.
        let mut pair_choices: Vec<Vec<Vec<(usize, u8)>>> = Vec::new();
        for (_, ranks) in &groups {
            let mut choices = Vec::new();
            match ranks.as_slice() {
                [solo] => choices.push(vec![(*solo, 4u8)]),
                [a, b] => {
                    for &pa in PRIORITY_LADDER {
                        for &pb in PRIORITY_LADDER {
                            if pa.abs_diff(pb) <= prio::DEFAULT_MAX_DIFF {
                                choices.push(vec![(*a, pa), (*b, pb)]);
                            }
                        }
                    }
                }
                _ => continue,
            }
            pair_choices.push(choices);
        }
        // Cartesian product over cores.
        let mut combos: Vec<Vec<(usize, u8)>> = vec![Vec::new()];
        for choices in &pair_choices {
            let mut next = Vec::with_capacity(combos.len() * choices.len());
            for combo in &combos {
                for choice in choices {
                    let mut c = combo.clone();
                    c.extend_from_slice(choice);
                    next.push(c);
                }
            }
            combos = next;
        }
        for combo in combos {
            let mut priorities = vec![4u8; n];
            for (rank, p) in combo {
                priorities[rank] = p;
            }
            plans.push(Plan {
                placement: placement.clone(),
                priorities,
            });
        }
    }
    plans
}

/// Interference score above which two co-scheduled high-ILP ranks are
/// reported.
const ILP_CONFLICT_THRESHOLD: f64 = 0.5;

/// Relative improvement a rival plan must predict before
/// `MTB-PLAN-DOMINATED` / `MTB-BOTTLENECK-UNPAIRED` fire (model noise
/// floor, matching the inversion lint's margin).
const DOMINATED_MARGIN: f64 = 0.05;

/// Model-driven placement lints for one case. All three report at Info:
/// the configurations are legal — the findings say performance is being
/// left on the table, which the paper's own reference cases (case A runs
/// everything at MEDIUM on the default placement) do by design.
pub fn check_plan(case: &CaseSpec, profiles: &[RankProfile]) -> Report {
    let mut report = Report::new();
    let n = profiles.len();
    if n == 0 || case.placement.len() != n || profiles.iter().all(|p| p.work == 0) {
        return report;
    }
    let priorities: Vec<u8> = (0..n).map(|r| prio::effective(case, r)).collect();
    let Some(current) = predict(profiles, &case.placement, &priorities) else {
        return report;
    };

    // MTB-ILP-CONFLICT: two high-ILP ranks fighting over one core's
    // units. Both want more than the fair decode share, and their unit
    // mixes overlap enough that neither gets it.
    for (a, b) in core_pairs(&case.placement) {
        let (pa, pb) = (&profiles[a], &profiles[b]);
        if pa.ilp == IlpClass::High && pb.ilp == IlpClass::High {
            let score = corun_interference(pa, pb);
            if score >= ILP_CONFLICT_THRESHOLD {
                report.push(
                    Diagnostic::new(
                        codes::ILP_CONFLICT,
                        Severity::Info,
                        format!(
                            "{}: ranks {a} and {b} are both high-ILP ({} and {}) and share \
                             a core with unit-mix interference {score:.2} — pairing a \
                             high-ILP rank with a low-ILP one frees decode slots \
                             (ILP-aware co-scheduling)",
                            case.name, pa.bound, pb.bound
                        ),
                    )
                    .with_rank(a),
                );
            }
        }
    }

    // MTB-BOTTLENECK-UNPAIRED: the predicted bottleneck rank is not
    // sharing a core with the shortest rank, and repairing them is
    // predicted to help. Pairing long with short lets the short rank
    // finish early and donate its decode share to the bottleneck.
    let bottleneck = current.bottleneck;
    let shortest = (0..n)
        .filter(|&r| r != bottleneck)
        .min_by(|&a, &b| {
            let ta = profiles[a].work as f64 / profiles[a].profile.ipc_st.max(0.05);
            let tb = profiles[b].work as f64 / profiles[b].profile.ipc_st.max(0.05);
            ta.total_cmp(&tb)
        })
        .unwrap_or(bottleneck);
    let same_core = case.placement[bottleneck].core == case.placement[shortest].core;
    let mut best_alternative: Option<(Plan, f64)> = None;
    if matches!(n, 2 | 4) {
        for plan in enumerate_plans(n) {
            if let Some(p) = predict(profiles, &plan.placement, &plan.priorities) {
                if best_alternative
                    .as_ref()
                    .map_or(true, |(_, t)| p.makespan < *t)
                {
                    best_alternative = Some((plan, p.makespan));
                }
            }
        }
    }
    if !same_core && bottleneck != shortest {
        if let Some((_, best_t)) = &best_alternative {
            if *best_t < current.makespan * (1.0 - DOMINATED_MARGIN) {
                report.push(
                    Diagnostic::new(
                        codes::BOTTLENECK_UNPAIRED,
                        Severity::Info,
                        format!(
                            "{}: predicted bottleneck rank {bottleneck} does not share a \
                             core with the shortest rank {shortest} — the short rank's \
                             early finish would donate decode slots to the bottleneck",
                            case.name
                        ),
                    )
                    .with_rank(bottleneck),
                );
            }
        }
    }

    // MTB-PLAN-DOMINATED: a strictly better plan exists in the search
    // space. Reported with the winning plan so the finding is actionable.
    if let Some((plan, best_t)) = &best_alternative {
        if *best_t < current.makespan * (1.0 - DOMINATED_MARGIN) {
            let gain = (current.makespan / best_t - 1.0) * 100.0;
            report.push(Diagnostic::new(
                codes::PLAN_DOMINATED,
                Severity::Info,
                format!(
                    "{}: the static model predicts plan [{}] is {gain:.0}% faster than \
                     this configuration (`mtb suggest` ranks the full space)",
                    case.name,
                    plan.label()
                ),
            ));
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::infer_profiles;
    use mtb_mpisim::program::WorkSpec;
    use mtb_mpisim::ProgramBuilder;
    use mtb_oskernel::{KernelFlavour, PrioritySetting};
    use mtb_smtsim::model::Workload;
    use mtb_smtsim::StreamSpec;

    /// Four ranks, work 1x/4x/1x/4x, three barrier epochs. The streams
    /// are decode-hungry (high ILP) so priorities actually move the
    /// rates — a unit-bound stream is insensitive to decode shares and
    /// the model rightly predicts priorities cannot help it.
    fn programs(scale: u64) -> Vec<mtb_mpisim::Program> {
        (0..4)
            .map(|rank| {
                let work = if rank % 2 == 1 { 4 * scale } else { scale };
                ProgramBuilder::new()
                    .repeat(3, move |b| {
                        b.compute(WorkSpec::new(
                            Workload::from_spec("w", StreamSpec::frontend_bound(rank as u64)),
                            work,
                        ))
                        .barrier()
                    })
                    .build()
            })
            .collect()
    }

    fn identity(n: usize) -> Vec<CtxAddr> {
        (0..n).map(CtxAddr::from_cpu).collect()
    }

    #[test]
    fn boosting_the_heavy_rank_improves_the_predicted_makespan() {
        let profiles = infer_profiles(&programs(1_000_000));
        let base = predict(&profiles, &identity(4), &[4, 4, 4, 4]).unwrap();
        let boosted = predict(&profiles, &identity(4), &[4, 6, 4, 6]).unwrap();
        assert!(
            boosted.makespan < base.makespan,
            "case-C-style boost must be predicted faster: {} vs {}",
            boosted.makespan,
            base.makespan
        );
        assert!(boosted.imbalance_pct < base.imbalance_pct + 1e-9);
    }

    #[test]
    fn overboosting_inverts_and_degrades() {
        let profiles = infer_profiles(&programs(1_000_000));
        let base = predict(&profiles, &identity(4), &[4, 4, 4, 4]).unwrap();
        let inverted = predict(&profiles, &identity(4), &[3, 6, 3, 6]).unwrap();
        assert!(
            inverted.makespan > base.makespan,
            "case-D overboost must be predicted slower"
        );
        // The bottleneck flips from the heavy ranks to a light one.
        assert_eq!(base.bottleneck % 2, 1);
        assert_eq!(inverted.bottleneck % 2, 0);
    }

    #[test]
    fn epoch_sum_dominates_any_single_core_total() {
        let profiles = infer_profiles(&programs(500_000));
        let p = predict(&profiles, &identity(4), &[4, 4, 4, 4]).unwrap();
        for (_, _, t) in &p.per_core {
            assert!(p.makespan >= *t - 1e-6);
        }
        assert_eq!(p.per_core.len(), 2);
    }

    #[test]
    fn enumeration_covers_pairings_and_the_ladder() {
        let plans = enumerate_plans(4);
        // 3 pairings x 14 legal ladder pairs per core x 2 cores.
        assert_eq!(plans.len(), 3 * 14 * 14);
        assert!(plans
            .iter()
            .all(|p| { p.priorities.iter().all(|&v| PRIORITY_LADDER.contains(&v)) }));
        // Every plan respects the bounded-difference limit per core.
        for plan in &plans {
            for (a, b) in core_pairs(&plan.placement) {
                assert!(plan.priorities[a].abs_diff(plan.priorities[b]) <= 2);
            }
        }
        assert_eq!(enumerate_plans(2).len(), 14);
    }

    #[test]
    fn best_plan_beats_the_default_for_imbalanced_work() {
        let profiles = infer_profiles(&programs(1_000_000));
        let base = predict(&profiles, &identity(4), &[4, 4, 4, 4]).unwrap();
        let best = enumerate_plans(4)
            .into_iter()
            .filter_map(|p| predict(&profiles, &p.placement, &p.priorities))
            .map(|p| p.makespan)
            .fold(f64::INFINITY, f64::min);
        assert!(best < base.makespan, "{best} vs {}", base.makespan);
    }

    #[test]
    fn dominated_default_case_is_flagged_at_info() {
        let profiles = infer_profiles(&programs(1_000_000));
        let case = CaseSpec {
            name: "test/A".into(),
            placement: identity(4),
            priorities: vec![PrioritySetting::Default; 4],
            flavour: KernelFlavour::Patched,
        };
        let r = check_plan(&case, &profiles);
        assert!(r.has_code(codes::PLAN_DOMINATED), "{r}");
        assert_eq!(r.worst(), Some(Severity::Info), "advisory only: {r}");
    }

    #[test]
    fn plan_label_is_readable() {
        let plan = Plan {
            placement: identity(4),
            priorities: vec![4, 6, 4, 6],
        };
        assert_eq!(plan.label(), "r0+r1 @4/6 | r2+r3 @4/6");
    }

    #[test]
    fn prediction_is_deterministic() {
        let profiles = infer_profiles(&programs(750_000));
        let a = predict(&profiles, &identity(4), &[4, 5, 4, 6]);
        let b = predict(&profiles, &identity(4), &[4, 5, 4, 6]);
        assert_eq!(a, b);
    }
}
