//! Golden-snapshot test for `mtb suggest --json` over every app at the
//! default scale.
//!
//! The plan search reads the analyzer's priority lints, rank loads, IPC
//! bounds and same-core grouping, so a change to any of them that moves
//! which plans survive the hazard filter, how they rank or what the
//! model predicts for them must show up in review as a diff of
//! `tests/golden/suggest_all_apps.json`. The file is byte for byte what
//! `mtb suggest --json` prints. Regenerate with:
//!
//! ```sh
//! MTB_BLESS=1 cargo test -p mtb-bench --test suggest_golden
//! ```

use mtb_bench::cli::AppOverrides;
use mtb_bench::json::Json;
use mtb_bench::suggest::{suggest, suggestion_to_json, SUGGEST_APPS};

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/suggest_all_apps.json"
);

/// `mtb suggest --json`'s default `--top`.
const TOP: usize = 5;

fn render_current() -> String {
    let docs = SUGGEST_APPS
        .iter()
        .map(|app| {
            let s = suggest(app, AppOverrides::default()).unwrap_or_else(|e| panic!("{app}: {e}"));
            suggestion_to_json(&s, TOP)
        })
        .collect();
    let mut doc = Json::Arr(docs).render();
    doc.push('\n');
    doc
}

#[test]
fn suggest_json_matches_the_golden_snapshot() {
    let current = render_current();
    if std::env::var_os("MTB_BLESS").is_some() {
        std::fs::write(GOLDEN, &current).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN)
        .expect("golden snapshot missing — run with MTB_BLESS=1 to create it");
    assert_eq!(
        golden, current,
        "suggest --json drifted from tests/golden/suggest_all_apps.json; if \
         the change is intentional, regenerate with MTB_BLESS=1"
    );
}
