//! Run characterization in the paper's table format.
//!
//! Tables IV-VI report, per case: for each process its core, priority,
//! Comp % and Sync %, plus the run's imbalance percentage and total
//! execution time. [`characterize`] extracts those rows from a
//! [`RunResult`] and [`render_case_table`] formats a whole table.

use crate::paper_cases::Case;
use mtb_mpisim::engine::RunResult;
use mtb_trace::table::{secs, Table};
use mtb_trace::{cycles_to_seconds, improvement_pct};

/// One process row of a characterization table.
#[derive(Debug, Clone, PartialEq)]
pub struct CaseRow {
    /// Process label ("P1"...).
    pub proc: String,
    /// Core the process ran on (1-based, like the paper).
    pub core: usize,
    /// Configured priority.
    pub priority: u8,
    /// Percentage of lifetime spent computing.
    pub comp_pct: f64,
    /// Percentage of lifetime spent waiting.
    pub sync_pct: f64,
}

/// Extract per-process rows for a (case, result) pair.
pub fn characterize(case: &Case, result: &RunResult) -> Vec<CaseRow> {
    result
        .metrics
        .procs
        .iter()
        .map(|p| CaseRow {
            proc: p.label.clone(),
            core: case.placement[p.pid].core + 1,
            priority: case.priorities.get(p.pid).map_or(4, |s| s.requested()),
            comp_pct: p.comp_pct,
            sync_pct: p.sync_pct,
        })
        .collect()
}

/// Render a full paper-style table for a set of (case, result) pairs.
pub fn render_case_table(title: &str, runs: &[(Case, RunResult)]) -> String {
    let mut t = Table::new(&[
        "Test",
        "Proc",
        "Core",
        "P",
        "Comp %",
        "Sync %",
        "Imb %",
        "Exec. Time",
    ])
    .with_title(title.to_string());
    for (i, (case, result)) in runs.iter().enumerate() {
        if i > 0 {
            t.separator();
        }
        let rows = characterize(case, result);
        for (j, r) in rows.iter().enumerate() {
            let first = j == 0;
            t.row_owned(vec![
                if first {
                    case.name.to_string()
                } else {
                    String::new()
                },
                r.proc.clone(),
                r.core.to_string(),
                r.priority.to_string(),
                format!("{:.2}", r.comp_pct),
                format!("{:.2}", r.sync_pct),
                if first {
                    format!("{:.2}", result.metrics.imbalance_pct)
                } else {
                    String::new()
                },
                if first {
                    secs(cycles_to_seconds(result.total_cycles))
                } else {
                    String::new()
                },
            ]);
        }
    }
    t.render()
}

/// Improvement (%) of each case over the named reference case.
pub fn improvements_over(reference: &str, runs: &[(Case, RunResult)]) -> Vec<(String, f64)> {
    let Some(ref_run) = runs.iter().find(|(c, _)| c.name == reference) else {
        return Vec::new();
    };
    let ref_cycles = ref_run.1.total_cycles;
    runs.iter()
        .map(|(c, r)| {
            (
                c.name.to_string(),
                improvement_pct(ref_cycles, r.total_cycles),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::balance::{execute, StaticRun};
    use crate::paper_cases::metbench_cases;
    use mtb_workloads::metbench::MetBenchConfig;

    fn small_run() -> (Case, RunResult) {
        let cfg = MetBenchConfig::tiny();
        let progs = cfg.programs();
        let case = metbench_cases().remove(0);
        let r = execute(
            StaticRun::new(&progs, case.placement.clone()).with_priorities(case.priorities.clone()),
        )
        .unwrap();
        (case, r)
    }

    #[test]
    fn rows_carry_placement_and_priorities() {
        let (case, result) = small_run();
        let rows = characterize(&case, &result);
        assert_eq!(rows.len(), 4);
        assert_eq!(rows[0].proc, "P1");
        assert_eq!(rows[0].core, 1);
        assert_eq!(rows[2].core, 2, "P3 on core 2");
        assert!(rows.iter().all(|r| r.priority == 4));
        // Light ranks wait more than heavy ranks in case A.
        assert!(rows[0].sync_pct > rows[1].sync_pct);
    }

    #[test]
    fn table_renders_all_cases() {
        let (case, result) = small_run();
        let s = render_case_table("TABLE IV", &[(case, result)]);
        assert!(s.starts_with("TABLE IV"));
        assert!(s.contains("P1"));
        assert!(s.contains("Exec. Time"));
    }

    #[test]
    fn improvements_are_relative_to_reference() {
        let (case, result) = small_run();
        let mut r2 = result.clone();
        r2.total_cycles = result.total_cycles / 2;
        let mut case2 = case.clone();
        case2.name = "C";
        let imps = improvements_over("A", &[(case, result), (case2, r2)]);
        assert_eq!(imps[0].0, "A");
        assert!((imps[0].1).abs() < 1e-9);
        assert!((imps[1].1 - 50.0).abs() < 1e-9);
    }
}
