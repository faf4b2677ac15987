//! `mtb lint` — static analysis of the shipped workloads and paper
//! cases, plus the harness determinism self-check.
//!
//! Runs [`mtb_verify::verify`] over (app, case) targets, renders the
//! diagnostics human-readably or as JSON (reusing [`crate::json::Json`]),
//! and applies the *expectation table*: the paper reproduces specific
//! inversion configurations on purpose (Table IV MetBench case D,
//! Table V BT-MZ case B, Table VI SIESTA case D), so for those targets
//! the `MTB-PRIO-*` warnings are downgraded to Info — and a *missing*
//! `MTB-PRIO-INVERT` prediction becomes an Error, because then the
//! analyzer no longer reproduces the paper's hazard.

use crate::cli::{app_targets, build_app, AppOverrides, APPS};
use crate::harness::{fnv1a, RunRecord, SweepOptions, SweepRunner};
use crate::json::Json;
use mtb_core::paper_cases::Case;
use mtb_oskernel::KernelFlavour;
use mtb_verify::{codes, CaseSpec, Diagnostic, Report, Severity};
use mtb_workloads::MetBenchConfig;

/// The paper's intentional inversion configurations: `(app, case)`
/// targets where `MTB-PRIO-INVERT` is *expected* (Section V).
pub const EXPECTED_INVERSIONS: &[(&str, &str)] =
    &[("metbench", "D"), ("btmz", "B"), ("siesta", "D")];

/// Every (app, case) target `--all-cases` lints: each app's paper cases,
/// ST rows included.
pub fn all_targets() -> Vec<(&'static str, &'static str)> {
    app_targets(APPS)
}

/// A [`Case`] as the verifier sees it (paper cases always run on the
/// patched kernel).
pub fn case_spec(app: &str, case: &Case) -> CaseSpec {
    CaseSpec {
        name: format!("{app}/{}", case.name),
        placement: case.placement.clone(),
        priorities: case.priorities.clone(),
        flavour: KernelFlavour::Patched,
    }
}

/// Lint one (app, case) target: build the workload, verify programs +
/// priority configuration, then apply the expectation table.
pub fn lint_target(app: &str, case_name: &str) -> Result<Report, String> {
    let (programs, case) = build_app(app, case_name, AppOverrides::default())?;
    let report = mtb_verify::verify(&programs, &case_spec(app, &case));
    Ok(apply_expectations(app, case.name, report))
}

/// Downgrade expected priority hazards to Info; promote a *missing*
/// expected inversion to an Error.
fn apply_expectations(app: &str, case_name: &str, mut report: Report) -> Report {
    let expected = EXPECTED_INVERSIONS
        .iter()
        .any(|&(a, c)| a == app && c.eq_ignore_ascii_case(case_name));
    if !expected {
        return report;
    }
    let mut saw_invert = false;
    for d in &mut report.diagnostics {
        if d.code == codes::PRIO_INVERT {
            saw_invert = true;
        }
        let prio_hazard = matches!(
            d.code,
            codes::PRIO_INVERT | codes::PRIO_DIFF | codes::PRIO_STARVE
        );
        if prio_hazard && d.severity == Severity::Warning {
            d.severity = Severity::Info;
            d.message
                .push_str(" [expected: the paper reproduces this hazard]");
        }
    }
    if !saw_invert {
        report.push(Diagnostic::new(
            codes::PRIO_INVERT,
            Severity::Error,
            format!(
                "{app}/{case_name}: the paper reports this configuration inverts the \
                 imbalance, but the decode-share model no longer predicts it — the \
                 model and the expectation table have drifted apart"
            ),
        ));
    }
    report
}

/// One lint result for rendering.
pub struct LintOutcome {
    /// App name.
    pub app: String,
    /// Case label.
    pub case: String,
    /// Post-expectation report.
    pub report: Report,
}

/// Lint a list of targets, stopping at workload-construction errors.
pub fn lint_targets(targets: &[(&str, &str)]) -> Result<Vec<LintOutcome>, String> {
    targets
        .iter()
        .map(|&(app, case)| {
            Ok(LintOutcome {
                app: app.to_string(),
                case: case.to_string(),
                report: lint_target(app, case)?,
            })
        })
        .collect()
}

/// Render outcomes as the JSON document `--json` prints: stable field
/// order, one entry per target, diagnostics with nullable spans.
pub fn outcomes_to_json(outcomes: &[LintOutcome]) -> Json {
    let diag_json = |d: &Diagnostic| {
        Json::Obj(vec![
            ("code".into(), Json::Str(d.code.to_string())),
            ("severity".into(), Json::Str(d.severity.to_string())),
            (
                "rank".into(),
                d.rank.map_or(Json::Null, |r| Json::UInt(r as u64)),
            ),
            (
                "path".into(),
                d.path.as_ref().map_or(Json::Null, |p| Json::Str(p.clone())),
            ),
            ("message".into(), Json::Str(d.message.clone())),
        ])
    };
    let targets = outcomes
        .iter()
        .map(|o| {
            Json::Obj(vec![
                ("app".into(), Json::Str(o.app.clone())),
                ("case".into(), Json::Str(o.case.clone())),
                (
                    "errors".into(),
                    Json::UInt(o.report.count(Severity::Error) as u64),
                ),
                (
                    "warnings".into(),
                    Json::UInt(o.report.count(Severity::Warning) as u64),
                ),
                (
                    "diagnostics".into(),
                    Json::Arr(o.report.diagnostics.iter().map(diag_json).collect()),
                ),
            ])
        })
        .collect();
    let worst = outcomes
        .iter()
        .filter_map(|o| o.report.worst())
        .max()
        .map_or(Json::Null, |s| Json::Str(s.to_string()));
    Json::Obj(vec![
        ("schema".into(), Json::UInt(1)),
        ("targets".into(), Json::Arr(targets)),
        ("worst".into(), worst),
    ])
}

/// Render outcomes for humans: one block per target.
pub fn outcomes_to_text(outcomes: &[LintOutcome]) -> String {
    let mut out = String::new();
    for o in outcomes {
        let verdict = match o.report.worst() {
            None => "clean".to_string(),
            Some(_) => format!(
                "{} error(s), {} warning(s), {} info",
                o.report.count(Severity::Error),
                o.report.count(Severity::Warning),
                o.report.count(Severity::Info)
            ),
        };
        out.push_str(&format!("{}/{}: {verdict}\n", o.app, o.case));
        for d in &o.report.diagnostics {
            out.push_str(&format!("  {d}\n"));
        }
    }
    out
}

/// Did any outcome reach `deny` severity (the `--deny warnings` /
/// default errors-only gate)?
pub fn any_at_or_above(outcomes: &[LintOutcome], deny: Severity) -> bool {
    outcomes
        .iter()
        .any(|o| o.report.worst().is_some_and(|w| w >= deny))
}

/// The hash the determinism self-check compares: the full [`RunRecord`]
/// JSON (timelines, comm log, metrics) with the wall-clock field zeroed.
pub fn record_hash(case: &Case, result: &mtb_mpisim::engine::RunResult) -> u64 {
    fnv1a(RunRecord::from_run(case, result, 0.0).to_json().as_bytes())
}

/// Harness determinism self-check: run a sampled sweep twice through
/// fresh uncached runners — serially and at `jobs` workers — and diff the
/// per-case record hashes. Returns the per-case hash lines, or the first
/// mismatch as `Err`.
pub fn selftest(jobs: usize) -> Result<Vec<String>, String> {
    let cfg = MetBenchConfig::tiny();
    let cases = mtb_core::paper_cases::metbench_cases();
    let opts = |jobs| SweepOptions {
        jobs,
        cache: false,
        dir: std::env::temp_dir(),
        ..SweepOptions::default()
    };
    let serial = SweepRunner::new(opts(1)).run_sweep(cases.clone(), |_| cfg.programs());
    let parallel = SweepRunner::new(opts(jobs.max(1))).run_sweep(cases, |_| cfg.programs());
    let mut lines = Vec::new();
    for ((case, a), (_, b)) in serial.iter().zip(&parallel) {
        let (ha, hb) = (record_hash(case, a), record_hash(case, b));
        if ha != hb {
            return Err(format!(
                "case {}: record hash diverges between --jobs 1 ({ha:016x}) and \
                 --jobs {jobs} ({hb:016x})",
                case.name
            ));
        }
        lines.push(format!(
            "case {}: {ha:016x} (jobs 1 == jobs {jobs})",
            case.name
        ));
    }
    Ok(lines)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lint_code_catalog_matches_the_documented_table() {
        // EXPERIMENTS.md's lint-code catalog and `codes::ALL` must list
        // exactly the same codes — a new code without documentation (or
        // stale documentation for a removed code) fails here.
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../EXPERIMENTS.md");
        let doc = std::fs::read_to_string(path).expect("EXPERIMENTS.md readable");
        let catalog_start = doc
            .find("### Lint-code catalog")
            .expect("catalog section present");
        let catalog = &doc[catalog_start..];
        let catalog_end = catalog[4..].find("### ").map_or(catalog.len(), |i| i + 4);
        let table = &catalog[..catalog_end];
        let documented: Vec<&str> = table
            .lines()
            .filter_map(|l| l.strip_prefix("| `"))
            .filter_map(|l| l.split('`').next())
            .collect();
        for code in mtb_verify::codes::ALL {
            assert!(
                documented.contains(code),
                "{code} is implemented but missing from the EXPERIMENTS.md catalog"
            );
        }
        for code in &documented {
            assert!(
                mtb_verify::codes::ALL.contains(code),
                "{code} is documented but no longer implemented"
            );
        }
        assert_eq!(documented.len(), mtb_verify::codes::ALL.len());
    }

    #[test]
    fn every_paper_case_lints_without_errors() {
        let outcomes = lint_targets(&all_targets()).unwrap();
        for o in &outcomes {
            assert!(
                !o.report.has_errors(),
                "{}/{} must be error-free:\n{}",
                o.app,
                o.case,
                o.report
            );
        }
    }

    #[test]
    fn expected_inversions_are_predicted_and_downgraded() {
        for &(app, case) in EXPECTED_INVERSIONS {
            let r = lint_target(app, case).unwrap();
            assert!(
                r.has_code(codes::PRIO_INVERT),
                "{app}/{case} must carry the inversion lint:\n{r}"
            );
            assert!(!r.has_errors(), "{app}/{case} expected => no errors:\n{r}");
            assert!(
                r.diagnostics
                    .iter()
                    .filter(|d| d.code == codes::PRIO_INVERT)
                    .all(|d| d.severity == Severity::Info),
                "expected inversions downgrade to info:\n{r}"
            );
        }
    }

    #[test]
    fn unexpected_missing_inversion_is_promoted_to_error() {
        let r = apply_expectations("metbench", "D", Report::new());
        assert!(r.has_errors());
        assert!(r.has_code(codes::PRIO_INVERT));
    }

    #[test]
    fn json_rendering_round_trips() {
        let outcomes = lint_targets(&[("metbench", "D"), ("synthetic", "A")]).unwrap();
        let doc = outcomes_to_json(&outcomes);
        let back = Json::parse(&doc.render()).unwrap();
        assert_eq!(back.get("schema").unwrap().as_u64(), Some(1));
        let targets = back.get("targets").unwrap().as_arr().unwrap();
        assert_eq!(targets.len(), 2);
        assert_eq!(targets[0].get("app").unwrap().as_str(), Some("metbench"));
    }

    #[test]
    fn deny_gate_distinguishes_severities() {
        let outcomes = lint_targets(&[("synthetic", "A")]).unwrap();
        assert!(!any_at_or_above(&outcomes, Severity::Error));
    }

    #[test]
    fn selftest_hashes_agree_across_job_counts() {
        let lines = selftest(4).unwrap();
        assert_eq!(lines.len(), 4);
    }
}
