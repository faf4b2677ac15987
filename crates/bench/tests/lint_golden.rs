//! Golden-snapshot test for `mtb lint --json` over every paper target.
//!
//! The JSON document is a machine interface (CI and external tooling
//! parse it), so any change to its shape *or* to the diagnostics the
//! analyzer emits on the shipped workloads must show up in review as a
//! diff of `tests/golden/lint_all_cases.json`. Regenerate with:
//!
//! ```sh
//! MTB_BLESS=1 cargo test -p mtb-bench --test lint_golden
//! ```

use mtb_bench::lint::{all_targets, lint_targets, outcomes_to_json};

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/lint_all_cases.json"
);

fn render_current() -> String {
    let outcomes = lint_targets(&all_targets()).expect("all targets lint");
    let mut doc = outcomes_to_json(&outcomes).render();
    doc.push('\n');
    doc
}

#[test]
fn lint_json_matches_the_golden_snapshot() {
    let current = render_current();
    if std::env::var_os("MTB_BLESS").is_some() {
        std::fs::write(GOLDEN, &current).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN)
        .expect("golden snapshot missing — run with MTB_BLESS=1 to create it");
    assert_eq!(
        golden, current,
        "lint --json drifted from tests/golden/lint_all_cases.json; if the \
         change is intentional, regenerate with MTB_BLESS=1"
    );
}

#[test]
fn golden_snapshot_is_valid_json_with_expected_shape() {
    let golden = std::fs::read_to_string(GOLDEN).expect("golden snapshot present");
    let doc = mtb_bench::json::Json::parse(&golden).expect("golden parses");
    assert_eq!(doc.get("schema").and_then(|s| s.as_u64()), Some(1));
    let targets = doc.get("targets").and_then(|t| t.as_arr()).unwrap();
    let expected = all_targets();
    assert_eq!(targets.len(), expected.len());
    for (t, &(app, case)) in targets.iter().zip(&expected) {
        assert_eq!(t.get("app").and_then(|a| a.as_str()), Some(app));
        assert_eq!(t.get("case").and_then(|c| c.as_str()), Some(case));
        // The gate CI enforces: no target may carry errors.
        assert_eq!(t.get("errors").and_then(|e| e.as_u64()), Some(0));
    }
}
