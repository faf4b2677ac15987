//! Run-record cache companion bench: the steps of a cache hit or store —
//! keying the configuration, decoding the record file, rebuilding the
//! result and rendering the record — on paper-case records at paper
//! inputs, plus one warm `SweepRunner::run_case` hit over a temporary
//! record directory, so the harness layer can be measured on its own.
//! MetBench and SIESTA case A are the median record shapes of the e2e
//! `cache-replay` workload, BT-MZ case A its p90 shape.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use mtb_bench::harness::{config_hash, RunRecord, SweepOptions, SweepRunner};
use mtb_core::balance::{execute, StaticRun};
use mtb_core::paper_cases::{btmz_cases, metbench_cases, siesta_cases, Case};
use mtb_mpisim::program::Program;
use mtb_workloads::metbench::MetBenchConfig;
use mtb_workloads::{BtMzConfig, SiestaConfig};
use std::sync::Arc;

fn bench_record_cache(c: &mut Criterion) {
    let shapes: [(&str, Vec<Program>, Case); 3] = [
        (
            "metbench_A",
            MetBenchConfig::default().programs(),
            metbench_cases().remove(0),
        ),
        (
            "siesta_A",
            SiestaConfig::default().programs(),
            siesta_cases().remove(0),
        ),
        (
            "btmz_A",
            BtMzConfig::default().programs(),
            btmz_cases().remove(0),
        ),
    ];
    let mut g = c.benchmark_group("record_cache");
    for (app, programs, case) in &shapes {
        let result = execute(
            StaticRun::new(programs, case.placement.clone())
                .with_priorities(case.priorities.clone()),
        )
        .expect("paper case runs");
        let record = RunRecord::from_run(case, &result, 0.5);
        let text = record.to_json();
        g.bench_function(format!("{app}/config_hash"), |b| {
            b.iter(|| black_box(config_hash(case, programs)))
        });
        g.bench_function(format!("{app}/from_json/{}KiB", text.len() / 1024), |b| {
            b.iter(|| black_box(RunRecord::from_json(&text).expect("record decodes")))
        });
        g.bench_function(format!("{app}/to_run_result"), |b| {
            b.iter(|| black_box(record.to_run_result()))
        });
        g.bench_function(format!("{app}/to_json"), |b| {
            b.iter(|| black_box(record.to_json()))
        });
    }

    // One warm hit end to end: key, read, decode, rebuild.
    let dir = std::env::temp_dir().join(format!("mtb-record-cache-bench-{}", std::process::id()));
    let runner = SweepRunner::new(SweepOptions {
        jobs: 1,
        cache: true,
        dir: dir.clone(),
        budget: Arc::new(mtb_pool::Budget::new(1)),
        checkpoint_every: None,
    });
    let (_, programs, case) = &shapes[0];
    let cold = runner.run_case(programs, case);
    g.bench_function("metbench_A/run_case_hit", |b| {
        b.iter(|| black_box(runner.run_case(programs, case)))
    });
    assert_eq!(runner.run_case(programs, case), cold, "hits replay the run");
    g.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

criterion_group!(benches, bench_record_cache);
criterion_main!(benches);
