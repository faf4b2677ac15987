//! `mtb table-dynamic` — the dynamic balancer's validation report.
//!
//! For each paper app this runs three configurations and compares them:
//! the identity baseline (case A: file-order placement, every priority
//! MEDIUM), the best of the paper's hand-tuned static cases, and the v2
//! two-level controller ([`TwoLevelController`](mtb_core::TwoLevelController)) starting from the
//! identity configuration. The controller is accepted when it matches or
//! beats the best static setting (within [`STATIC_TOLERANCE`]) and never
//! reproduces the case-D inversion (ending up *slower* than the
//! untouched baseline — the hazard Section V warns about).
//!
//! The report also proves the determinism contract: the dynamic run is
//! replayed uncached at `--jobs 1` and `--jobs N` and the two record
//! hashes must be bit-identical — controller decisions fire only at
//! epoch boundaries, so the thread count must never leak into results.
//! CI runs `mtb table-dynamic --smoke --json` as the `dynamic-validate`
//! gate; nightly diffs the deterministic fields of the full-scale report
//! against the committed `DYNAMIC_sim.json`.

use crate::cli::{build_app, smt_cases, AppOverrides, PAPER_APPS};
use crate::harness::{run_controller, ControllerStats, SweepRunner};
use crate::json::Json;
use mtb_core::balance::StaticRun;
use mtb_core::paper_cases::Case;
use mtb_core::ControllerConfig;
use mtb_mpisim::program::Program;

/// Apps the dynamic validation covers (the paper's three).
pub const DYNAMIC_APPS: &[&str] = PAPER_APPS;

/// Acceptance slack against the best static setting: the controller must
/// land within 2% of it (same margin the suggest calibration gate uses).
pub const STATIC_TOLERANCE: f64 = 1.02;

/// One app's dynamic-vs-static comparison.
#[derive(Debug, Clone)]
pub struct DynamicRow {
    /// App name.
    pub app: String,
    /// Simulated makespan of the untouched baseline (case A).
    pub identity_cycles: u64,
    /// Label of the fastest paper case.
    pub best_static_case: String,
    /// Simulated makespan of the fastest paper case.
    pub best_static_cycles: u64,
    /// Simulated makespan under the two-level controller.
    pub dynamic_cycles: u64,
    /// The controller's decision counters.
    pub stats: ControllerStats,
    /// Record hash of the dynamic run (the nightly drift anchor).
    pub record_hash: u64,
    /// Thread count the determinism replay compared against 1.
    pub jobs_checked: usize,
    /// Did the `--jobs 1` and `--jobs N` replays hash identically (and
    /// agree with the cached run)?
    pub deterministic: bool,
}

impl DynamicRow {
    /// Does the controller match or beat the best static setting?
    pub fn beats_static(&self) -> bool {
        self.dynamic_cycles as f64 <= self.best_static_cycles as f64 * STATIC_TOLERANCE
    }

    /// Did the controller reproduce the case-D hazard (slower than the
    /// untouched baseline)?
    pub fn inverted(&self) -> bool {
        self.dynamic_cycles > self.identity_cycles
    }

    /// The CI gate for this app.
    pub fn passes(&self) -> bool {
        self.beats_static() && !self.inverted() && self.deterministic
    }
}

/// Replay the dynamic run uncached at `threads` intra-run workers and
/// return `(record_hash, total_cycles)`. The record carries the same
/// `controller:` note [`SweepRunner::run_dynamic`] stores, so the hash is
/// comparable with the cached record's content.
fn dynamic_replay(
    programs: &[Program],
    reference: &Case,
    cfg: &ControllerConfig,
    threads: usize,
) -> Result<(u64, u64), String> {
    let run = StaticRun::new(programs, reference.placement.clone())
        .with_priorities(reference.priorities.clone())
        .with_threads(threads);
    let (result, _) = run_controller(run, cfg).map_err(|e| e.to_string())?;
    let label = Case {
        name: "dynamic",
        placement: reference.placement.clone(),
        priorities: reference.priorities.clone(),
    };
    Ok((
        crate::lint::record_hash(&label, &result),
        result.total_cycles,
    ))
}

/// Evaluate one app: identity baseline, static ladder, cached dynamic
/// run, plus the two uncached determinism replays.
pub fn evaluate_app(
    app: &str,
    ov: AppOverrides,
    cfg: &ControllerConfig,
    jobs: usize,
) -> Result<DynamicRow, String> {
    let (programs, reference) = build_app(app, "A", ov)?;
    let identity = crate::run_case(&programs, &reference).total_cycles;

    let mut best_static_case = reference.name.to_string();
    let mut best_static_cycles = identity;
    // The paper's hand-tuned SMT cases: the static ladder the controller
    // competes against.
    for case in smt_cases(app)? {
        let r = crate::run_case(&programs, &case);
        if r.total_cycles < best_static_cycles {
            best_static_cycles = r.total_cycles;
            best_static_case = case.name.to_string();
        }
    }

    let run = StaticRun::new(&programs, reference.placement.clone())
        .with_priorities(reference.priorities.clone());
    let (result, stats) = SweepRunner::global()
        .run_dynamic(run, cfg)
        .map_err(|e| format!("{app}: {e}"))?;

    let jobs = jobs.max(2);
    let (hash_1, cycles_1) = dynamic_replay(&programs, &reference, cfg, 1)?;
    let (hash_n, _) = dynamic_replay(&programs, &reference, cfg, jobs)?;
    // The cached run must agree with the jobs-1 replay too — a stale or
    // foreign record failing this counts as drift, not as a pass.
    let deterministic = hash_1 == hash_n && cycles_1 == result.total_cycles;

    Ok(DynamicRow {
        app: app.to_string(),
        identity_cycles: identity,
        best_static_case,
        best_static_cycles,
        dynamic_cycles: result.total_cycles,
        stats,
        record_hash: hash_1,
        jobs_checked: jobs,
        deterministic,
    })
}

/// Evaluate every app in [`DYNAMIC_APPS`].
pub fn run_report(
    ov: AppOverrides,
    cfg: &ControllerConfig,
    jobs: usize,
) -> Result<Vec<DynamicRow>, String> {
    DYNAMIC_APPS
        .iter()
        .map(|app| evaluate_app(app, ov, cfg, jobs))
        .collect()
}

/// Render the report for humans.
pub fn report_to_text(rows: &[DynamicRow]) -> String {
    let mut out = String::new();
    for r in rows {
        let vs_static = (r.dynamic_cycles as f64 / r.best_static_cycles as f64 - 1.0) * 100.0;
        let vs_identity = (r.dynamic_cycles as f64 / r.identity_cycles as f64 - 1.0) * 100.0;
        out.push_str(&format!(
            "{}: dynamic {} ({:+.2}% vs best static {} {}, {:+.2}% vs identity {}) [{}]\n",
            r.app,
            r.dynamic_cycles,
            vs_static,
            r.best_static_case,
            r.best_static_cycles,
            vs_identity,
            r.identity_cycles,
            if r.passes() { "PASS" } else { "FAIL" }
        ));
        out.push_str(&format!(
            "  adjustments {} reverts {} remaps {}, record-hash {:016x}, \
             {} at jobs {{1,{}}}{}\n",
            r.stats.adjustments,
            r.stats.reverts,
            r.stats.remaps,
            r.record_hash,
            if r.deterministic {
                "deterministic"
            } else {
                "DRIFTED"
            },
            r.jobs_checked,
            if r.inverted() {
                " — INVERSION vs identity baseline"
            } else {
                ""
            }
        ));
    }
    out
}

/// Render the report as the JSON artifact CI uploads (`schema` 1). Every
/// field except `jobs_checked` is deterministic; nightly diffs them
/// against the committed `DYNAMIC_sim.json`.
pub fn report_to_json(rows: &[DynamicRow]) -> Json {
    let apps = rows
        .iter()
        .map(|r| {
            Json::Obj(vec![
                ("app".into(), Json::Str(r.app.clone())),
                ("identity_cycles".into(), Json::UInt(r.identity_cycles)),
                (
                    "best_static_case".into(),
                    Json::Str(r.best_static_case.clone()),
                ),
                (
                    "best_static_cycles".into(),
                    Json::UInt(r.best_static_cycles),
                ),
                ("dynamic_cycles".into(), Json::UInt(r.dynamic_cycles)),
                ("adjustments".into(), Json::UInt(r.stats.adjustments as u64)),
                ("reverts".into(), Json::UInt(r.stats.reverts as u64)),
                ("remaps".into(), Json::UInt(r.stats.remaps as u64)),
                (
                    "record_hash".into(),
                    Json::Str(format!("{:016x}", r.record_hash)),
                ),
                ("jobs_checked".into(), Json::UInt(r.jobs_checked as u64)),
                ("deterministic".into(), Json::Bool(r.deterministic)),
                ("beats_static".into(), Json::Bool(r.beats_static())),
                ("inverted".into(), Json::Bool(r.inverted())),
                ("pass".into(), Json::Bool(r.passes())),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("schema".into(), Json::UInt(1)),
        ("tolerance".into(), Json::Float(STATIC_TOLERANCE)),
        ("apps".into(), Json::Arr(apps)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    const TINY: AppOverrides = AppOverrides {
        scale: Some(1e-3),
        iterations: None,
        seed: None,
    };

    #[test]
    fn dynamic_matches_or_beats_the_paper_best_static() {
        // The PR's acceptance bar, as a test: on every paper app the
        // controller lands within tolerance of the best static setting,
        // never inverts against the untouched baseline, and hashes
        // identically across thread counts.
        let cfg = ControllerConfig::default();
        for app in DYNAMIC_APPS {
            let row = evaluate_app(app, TINY, &cfg, 4).unwrap_or_else(|e| panic!("{app}: {e}"));
            assert!(
                row.passes(),
                "{app}: {}",
                report_to_text(std::slice::from_ref(&row))
            );
        }
    }

    #[test]
    fn report_json_round_trips() {
        let cfg = ControllerConfig::default();
        let row = evaluate_app("metbench", TINY, &cfg, 2).unwrap();
        let doc = report_to_json(std::slice::from_ref(&row));
        let back = Json::parse(&doc.render()).unwrap();
        assert_eq!(back.get("schema").unwrap().as_u64(), Some(1));
        let apps = back.get("apps").unwrap().as_arr().unwrap();
        assert_eq!(apps[0].get("app").unwrap().as_str(), Some("metbench"));
        assert_eq!(
            apps[0].get("dynamic_cycles").unwrap().as_u64(),
            Some(row.dynamic_cycles)
        );
        assert_eq!(apps[0].get("pass"), Some(&Json::Bool(true)));
    }
}
