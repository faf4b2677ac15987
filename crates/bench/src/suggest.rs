//! `mtb suggest` — static plan search over placements × priority plans,
//! plus the `--validate` calibration harness.
//!
//! [`suggest`] runs the verifier's static makespan model
//! ([`mtb_verify::predict`]) over every candidate [`Plan`] from
//! [`mtb_verify::enumerate_plans`], drops plans the priority lints
//! predict to be hazardous (inversions, starvation, illegal settings),
//! and ranks the survivors by predicted makespan.
//!
//! [`validate_app`] is the calibration harness: for each app it simulates a
//! ladder of configurations — the paper's own cases plus the search's
//! best and worst surviving plans — and compares the *ranking* the
//! static model predicts against the ranking the simulator produces,
//! via Spearman rank correlation. CI gates on ρ ≥ 0.9 per app: the
//! model does not have to hit absolute cycle counts, but it must order
//! configurations the way the machine does, because `mtb suggest` is
//! only as good as its ordering.

use crate::cli::{build_app, smt_cases, AppOverrides, APPS};
use crate::json::Json;
use mtb_core::paper_cases::Case;
use mtb_core::policy::PrioritySetting;
use mtb_oskernel::{core_groups, KernelFlavour};
use mtb_verify::{
    codes, enumerate_plans, infer_profiles, predict, CaseSpec, Plan, Prediction, RankProfile,
};

/// Apps the suggestion search and the calibration harness cover: all of
/// them.
pub const SUGGEST_APPS: &[&str] = APPS;

/// Minimum acceptable Spearman rank correlation between predicted and
/// simulated orderings (the CI calibration gate).
pub const MIN_RANK_CORRELATION: f64 = 0.9;

/// Labels for search-derived evaluation points (plans need `'static`
/// names to become [`Case`]s).
const PLAN_NAMES: &[&str] = &["S1", "S2", "S3", "S4", "S5", "S6", "S7", "S8"];

/// One surviving plan with its prediction.
#[derive(Debug, Clone)]
pub struct RankedPlan {
    /// The placement + priority assignment.
    pub plan: Plan,
    /// The static model's verdict.
    pub prediction: Prediction,
    /// Predicted improvement over the default plan (identity placement,
    /// all MEDIUM), in percent; positive = faster.
    pub speedup_pct: f64,
}

/// Result of the static search for one app.
#[derive(Debug, Clone)]
pub struct Suggestion {
    /// App the search ran over.
    pub app: String,
    /// Prediction for the default plan (identity placement, MEDIUM).
    pub baseline: Prediction,
    /// Surviving plans, best predicted makespan first.
    pub ranked: Vec<RankedPlan>,
    /// Plans the hazard filter dropped (predicted inversion/starvation
    /// or an illegal priority setting).
    pub dropped: usize,
}

/// The default plan every ranking is measured against: ranks in file
/// order on contexts in file order, every priority MEDIUM.
fn default_plan(n: usize) -> Plan {
    Plan {
        placement: (0..n).map(mtb_oskernel::CtxAddr::from_cpu).collect(),
        priorities: vec![4; n],
    }
}

fn plan_case_spec(app: &str, plan: &Plan) -> CaseSpec {
    CaseSpec {
        name: format!("{app}/suggested"),
        placement: plan.placement.clone(),
        priorities: plan
            .priorities
            .iter()
            .map(|&p| PrioritySetting::ProcFs(p))
            .collect(),
        flavour: KernelFlavour::Patched,
    }
}

/// Does the priority linter flag this plan as hazardous? Suggested plans
/// must be clean: no predicted inversion, no starvation, no errors.
fn plan_is_hazardous(spec: &CaseSpec, profiles: &[RankProfile]) -> bool {
    let loads: Vec<_> = profiles.iter().map(|p| p.load()).collect();
    let report = mtb_verify::verify_case(spec, &loads);
    report.has_errors()
        || report.has_code(codes::PRIO_INVERT)
        || report.has_code(codes::PRIO_STARVE)
}

/// Run the static plan search for one app. `ov.scale` shrinks the
/// workload (the *ranking* is scale-invariant; the profiles are not
/// cheaper to infer at scale 1, so pass a small scale freely).
pub fn suggest(app: &str, ov: AppOverrides) -> Result<Suggestion, String> {
    let (programs, _) = build_app(app, default_case_name(app), ov)?;
    let profiles = infer_profiles(&programs);
    let n = profiles.len();
    let base = default_plan(n);
    let baseline = predict(&profiles, &base.placement, &base.priorities)
        .ok_or_else(|| format!("{app}: the default plan is unpredictable"))?;

    let mut ranked = Vec::new();
    let mut dropped = 0usize;
    for plan in enumerate_plans(n) {
        let spec = plan_case_spec(app, &plan);
        if plan_is_hazardous(&spec, &profiles) {
            dropped += 1;
            continue;
        }
        let Some(prediction) = predict(&profiles, &plan.placement, &plan.priorities) else {
            dropped += 1;
            continue;
        };
        let speedup_pct = (baseline.makespan / prediction.makespan - 1.0) * 100.0;
        ranked.push(RankedPlan {
            plan,
            prediction,
            speedup_pct,
        });
    }
    ranked.sort_by(|a, b| a.prediction.makespan.total_cmp(&b.prediction.makespan));
    Ok(Suggestion {
        app: app.to_string(),
        baseline,
        ranked,
        dropped,
    })
}

/// The case whose programs seed profile inference (priorities are
/// ignored; only the workload matters).
fn default_case_name(app: &str) -> &'static str {
    // Every app ships an "A" (reference) case.
    let _ = app;
    "A"
}

/// One (configuration, predicted, simulated) calibration point.
#[derive(Debug, Clone)]
pub struct ValidatePoint {
    /// Case label ("A".."D" for paper cases, "S1".. for search plans).
    pub label: String,
    /// Static model makespan (model cycles).
    pub predicted: f64,
    /// Simulated makespan (engine cycles).
    pub simulated: f64,
}

/// Calibration result for one app.
#[derive(Debug, Clone)]
pub struct AppValidation {
    /// App name.
    pub app: String,
    /// Spearman rank correlation between predicted and simulated
    /// makespans over [`Self::points`].
    pub spearman: f64,
    /// The evaluation ladder.
    pub points: Vec<ValidatePoint>,
    /// Simulated makespan of the search's top surviving plan.
    pub top_plan_sim: f64,
    /// Best (lowest) simulated makespan among the paper's own cases.
    pub best_paper_sim: f64,
}

impl AppValidation {
    /// Does this app pass the calibration gate?
    pub fn passes(&self) -> bool {
        self.spearman >= MIN_RANK_CORRELATION && self.top_plan_beats_paper()
    }

    /// Is the suggested plan at least as fast (within simulator noise)
    /// as the paper's best static setting?
    pub fn top_plan_beats_paper(&self) -> bool {
        self.top_plan_sim <= self.best_paper_sim * 1.02
    }
}

/// Build the evaluation ladder for one app: every SMT paper case (the
/// synthetic app's reference case) plus the search's best three and
/// worst surviving plans (deduplicated against the paper cases by
/// effective configuration; on the patched kernel the paper cases run
/// under, a setting's effective priority is the one it requests).
fn evaluation_ladder(app: &str, suggestion: &Suggestion) -> Result<Vec<Case>, String> {
    let mut ladder = smt_cases(app)?;
    let config_key = |placement: &[mtb_oskernel::CtxAddr], prios: &[u8]| {
        let mut groups: Vec<(Vec<usize>, Vec<u8>)> = core_groups(placement)
            .into_iter()
            .map(|(_, ranks)| {
                let ps: Vec<u8> = ranks.iter().map(|&r| prios[r]).collect();
                (ranks, ps)
            })
            .collect();
        groups.sort();
        format!("{groups:?}")
    };
    let mut seen: Vec<String> = ladder
        .iter()
        .map(|c| {
            let prios: Vec<u8> = c
                .priorities
                .iter()
                .map(PrioritySetting::requested)
                .collect();
            config_key(&c.placement, &prios)
        })
        .collect();

    let mut picks: Vec<&RankedPlan> = Vec::new();
    picks.extend(suggestion.ranked.iter().take(3));
    if let Some(worst) = suggestion.ranked.last() {
        picks.push(worst);
    }
    let mut name_idx = 0usize;
    for rp in picks {
        let key = config_key(&rp.plan.placement, &rp.plan.priorities);
        if seen.contains(&key) || name_idx >= PLAN_NAMES.len() {
            continue;
        }
        seen.push(key);
        ladder.push(Case {
            name: PLAN_NAMES[name_idx],
            placement: rp.plan.placement.clone(),
            priorities: rp
                .plan
                .priorities
                .iter()
                .map(|&p| PrioritySetting::ProcFs(p))
                .collect(),
        });
        name_idx += 1;
    }
    Ok(ladder)
}

/// Spearman rank correlation of two equally-long samples, with average
/// ranks for ties. Returns 1.0 for degenerate (constant or length < 2)
/// inputs — a constant prediction over a constant truth is perfect
/// agreement, and anything else will disagree on some other point.
pub fn spearman(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len());
    let n = xs.len();
    if n < 2 {
        return 1.0;
    }
    let rank = |vals: &[f64]| -> Vec<f64> {
        let mut idx: Vec<usize> = (0..vals.len()).collect();
        idx.sort_by(|&a, &b| vals[a].total_cmp(&vals[b]));
        let mut ranks = vec![0.0; vals.len()];
        let mut i = 0;
        while i < idx.len() {
            let mut j = i;
            while j + 1 < idx.len() && vals[idx[j + 1]] == vals[idx[i]] {
                j += 1;
            }
            // Average rank over the tie group (1-based).
            let avg = (i + j) as f64 / 2.0 + 1.0;
            for &k in &idx[i..=j] {
                ranks[k] = avg;
            }
            i = j + 1;
        }
        ranks
    };
    let (rx, ry) = (rank(xs), rank(ys));
    let mean = (n as f64 + 1.0) / 2.0;
    let mut num = 0.0;
    let mut dx = 0.0;
    let mut dy = 0.0;
    for i in 0..n {
        num += (rx[i] - mean) * (ry[i] - mean);
        dx += (rx[i] - mean).powi(2);
        dy += (ry[i] - mean).powi(2);
    }
    if dx == 0.0 || dy == 0.0 {
        return 1.0;
    }
    num / (dx * dy).sqrt()
}

/// Run the calibration harness for one app: simulate the evaluation
/// ladder and correlate predicted vs simulated orderings.
pub fn validate_app(app: &str, ov: AppOverrides) -> Result<AppValidation, String> {
    let (programs, _) = build_app(app, default_case_name(app), ov)?;
    let profiles = infer_profiles(&programs);
    let suggestion = suggest(app, ov)?;
    let ladder = evaluation_ladder(app, &suggestion)?;

    let mut points = Vec::new();
    for case in &ladder {
        let prios: Vec<u8> = case
            .priorities
            .iter()
            .map(PrioritySetting::requested)
            .collect();
        let predicted = predict(&profiles, &case.placement, &prios)
            .ok_or_else(|| format!("{app}/{}: static model cannot predict", case.name))?
            .makespan;
        let result = crate::run_case(&programs, case);
        points.push(ValidatePoint {
            label: case.name.to_string(),
            predicted,
            simulated: result.total_cycles as f64,
        });
    }

    let xs: Vec<f64> = points.iter().map(|p| p.predicted).collect();
    let ys: Vec<f64> = points.iter().map(|p| p.simulated).collect();
    let rho = spearman(&xs, &ys);

    let paper_labels: Vec<&str> = smt_cases(app)?.iter().map(|c| c.name).collect();
    let best_paper_sim = points
        .iter()
        .filter(|p| paper_labels.contains(&p.label.as_str()))
        .map(|p| p.simulated)
        .fold(f64::INFINITY, f64::min);
    // The top surviving plan: its ladder point if it made the ladder,
    // otherwise it coincided with a paper case — find it by key parity
    // with the best prediction.
    let top_plan_sim = points
        .iter()
        .filter(|p| p.label.starts_with('S'))
        .map(|p| p.simulated)
        .fold(f64::INFINITY, f64::min)
        .min(best_paper_sim);

    Ok(AppValidation {
        app: app.to_string(),
        spearman: rho,
        points,
        top_plan_sim,
        best_paper_sim,
    })
}

/// Render a suggestion for humans.
pub fn suggestion_to_text(s: &Suggestion, top: usize) -> String {
    let mut out = format!(
        "{}: {} candidate plans, {} dropped by the hazard filter\n\
         baseline (identity, all MEDIUM): makespan {:.0}, imbalance {:.1}%\n",
        s.app,
        s.ranked.len() + s.dropped,
        s.dropped,
        s.baseline.makespan,
        s.baseline.imbalance_pct
    );
    for (i, rp) in s.ranked.iter().take(top).enumerate() {
        out.push_str(&format!(
            "  #{}: {}  predicted {:+.1}% vs baseline (makespan {:.0}, imbalance {:.1}%)\n",
            i + 1,
            rp.plan.label(),
            rp.speedup_pct,
            rp.prediction.makespan,
            rp.prediction.imbalance_pct
        ));
    }
    out
}

/// Render a suggestion as JSON (`schema` 1).
pub fn suggestion_to_json(s: &Suggestion, top: usize) -> Json {
    let plans = s
        .ranked
        .iter()
        .take(top)
        .map(|rp| {
            Json::Obj(vec![
                ("plan".into(), Json::Str(rp.plan.label())),
                (
                    "priorities".into(),
                    Json::Arr(
                        rp.plan
                            .priorities
                            .iter()
                            .map(|&p| Json::UInt(p as u64))
                            .collect(),
                    ),
                ),
                (
                    "predicted_makespan".into(),
                    Json::Float(rp.prediction.makespan),
                ),
                (
                    "imbalance_pct".into(),
                    Json::Float(rp.prediction.imbalance_pct),
                ),
                ("speedup_pct".into(), Json::Float(rp.speedup_pct)),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("schema".into(), Json::UInt(1)),
        ("app".into(), Json::Str(s.app.clone())),
        ("baseline_makespan".into(), Json::Float(s.baseline.makespan)),
        ("dropped".into(), Json::UInt(s.dropped as u64)),
        ("plans".into(), Json::Arr(plans)),
    ])
}

/// Render validations for humans.
pub fn validations_to_text(vs: &[AppValidation]) -> String {
    let mut out = String::new();
    for v in vs {
        out.push_str(&format!(
            "{}: spearman {:.3} ({}), top plan {} the paper's best ({:.0} vs {:.0})\n",
            v.app,
            v.spearman,
            if v.spearman >= MIN_RANK_CORRELATION {
                "PASS"
            } else {
                "FAIL"
            },
            if v.top_plan_beats_paper() {
                "matches/beats"
            } else {
                "LOSES TO"
            },
            v.top_plan_sim,
            v.best_paper_sim
        ));
        for p in &v.points {
            out.push_str(&format!(
                "  {:>3}: predicted {:>14.0}  simulated {:>14.0}\n",
                p.label, p.predicted, p.simulated
            ));
        }
    }
    out
}

/// Render validations as the JSON artifact CI uploads (`schema` 1).
pub fn validations_to_json(vs: &[AppValidation]) -> Json {
    let apps = vs
        .iter()
        .map(|v| {
            Json::Obj(vec![
                ("app".into(), Json::Str(v.app.clone())),
                ("spearman".into(), Json::Float(v.spearman)),
                ("pass".into(), Json::Bool(v.passes())),
                ("top_plan_sim".into(), Json::Float(v.top_plan_sim)),
                ("best_paper_sim".into(), Json::Float(v.best_paper_sim)),
                (
                    "points".into(),
                    Json::Arr(
                        v.points
                            .iter()
                            .map(|p| {
                                Json::Obj(vec![
                                    ("label".into(), Json::Str(p.label.clone())),
                                    ("predicted".into(), Json::Float(p.predicted)),
                                    ("simulated".into(), Json::Float(p.simulated)),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("schema".into(), Json::UInt(1)),
        (
            "min_rank_correlation".into(),
            Json::Float(MIN_RANK_CORRELATION),
        ),
        ("apps".into(), Json::Arr(apps)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtb_verify::plan::PRIORITY_LADDER;

    const TINY: AppOverrides = AppOverrides {
        scale: Some(1e-3),
        iterations: None,
        seed: None,
    };

    #[test]
    fn spearman_basics() {
        assert!((spearman(&[1.0, 2.0, 3.0], &[10.0, 20.0, 30.0]) - 1.0).abs() < 1e-12);
        assert!((spearman(&[1.0, 2.0, 3.0], &[30.0, 20.0, 10.0]) + 1.0).abs() < 1e-12);
        // Ties collapse to average ranks; a constant sample is degenerate.
        assert!((spearman(&[1.0, 1.0], &[2.0, 2.0]) - 1.0).abs() < 1e-12);
        let rho = spearman(&[1.0, 2.0, 3.0, 4.0], &[1.0, 3.0, 2.0, 4.0]);
        assert!(rho > 0.0 && rho < 1.0, "{rho}");
    }

    #[test]
    fn search_ranks_plans_and_filters_hazards() {
        for app in SUGGEST_APPS {
            let s = suggest(app, TINY).unwrap_or_else(|e| panic!("{app}: {e}"));
            assert!(!s.ranked.is_empty(), "{app}: no surviving plans");
            assert!(
                s.ranked
                    .windows(2)
                    .all(|w| w[0].prediction.makespan <= w[1].prediction.makespan),
                "{app}: ranking must be sorted"
            );
            // Every surviving plan stays inside the search ladder.
            for rp in &s.ranked {
                assert!(rp
                    .plan
                    .priorities
                    .iter()
                    .all(|p| PRIORITY_LADDER.contains(p)));
            }
        }
    }

    #[test]
    fn no_suggested_plan_is_predicted_to_invert() {
        let s = suggest("metbench", TINY).unwrap();
        let (programs, _) = build_app("metbench", "A", TINY).unwrap();
        let profiles = infer_profiles(&programs);
        for rp in s.ranked.iter().take(5) {
            let spec = plan_case_spec("metbench", &rp.plan);
            assert!(
                !plan_is_hazardous(&spec, &profiles),
                "suggested plan {} must be hazard-free",
                rp.plan.label()
            );
        }
    }

    #[test]
    fn top_suggestion_beats_or_matches_the_paper_baseline() {
        // The acceptance bar: simulated, the top plan is at least as
        // fast as the best paper case, for every app.
        for app in SUGGEST_APPS {
            let v = validate_app(app, TINY).unwrap_or_else(|e| panic!("{app}: {e}"));
            assert!(
                v.top_plan_beats_paper(),
                "{app}: top plan simulated {:.0} loses to paper best {:.0}",
                v.top_plan_sim,
                v.best_paper_sim
            );
        }
    }

    #[test]
    fn calibration_meets_the_rank_correlation_gate() {
        for app in SUGGEST_APPS {
            let v = validate_app(app, TINY).unwrap_or_else(|e| panic!("{app}: {e}"));
            assert!(
                v.spearman >= MIN_RANK_CORRELATION,
                "{app}: spearman {:.3} < {MIN_RANK_CORRELATION}\n{}",
                v.spearman,
                validations_to_text(std::slice::from_ref(&v))
            );
        }
    }

    #[test]
    fn validation_json_round_trips() {
        let v = validate_app("synthetic", TINY).unwrap();
        let doc = validations_to_json(std::slice::from_ref(&v));
        let back = Json::parse(&doc.render()).unwrap();
        assert_eq!(back.get("schema").unwrap().as_u64(), Some(1));
        let apps = back.get("apps").unwrap().as_arr().unwrap();
        assert_eq!(apps[0].get("app").unwrap().as_str(), Some("synthetic"));
    }
}
