//! End-to-end simulation cost of regenerating each paper table (at reduced
//! workload scale, so a bench iteration stays in the milliseconds). The
//! full-scale tables are produced by `mtb tables N`.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use mtb_bench::run_cases;
use mtb_core::paper_cases::{btmz_cases, metbench_cases, siesta_cases};
use mtb_workloads::{BtMzConfig, MetBenchConfig, SiestaConfig};

fn bench_tables(c: &mut Criterion) {
    let mut g = c.benchmark_group("paper_tables");
    g.sample_size(20);

    g.bench_function("table4_metbench/4cases_20iter", |bench| {
        bench.iter(|| {
            let cfg = MetBenchConfig {
                iterations: 20,
                scale: 1e-2,
                ..Default::default()
            };
            black_box(run_cases(metbench_cases(), |_| cfg.programs()))
        })
    });

    g.bench_function("table5_btmz/4cases_40iter", |bench| {
        bench.iter(|| {
            let cfg = BtMzConfig {
                iterations: 40,
                scale: 1e-2,
                ..Default::default()
            };
            black_box(run_cases(btmz_cases(), |_| cfg.programs()))
        })
    });

    g.bench_function("table6_siesta/4cases_10iter", |bench| {
        bench.iter(|| {
            let cfg = SiestaConfig {
                iterations: 10,
                scale: 1e-2,
                ..Default::default()
            };
            black_box(run_cases(siesta_cases(), |_| cfg.programs()))
        })
    });

    g.finish();
}

criterion_group!(benches, bench_tables);
criterion_main!(benches);
