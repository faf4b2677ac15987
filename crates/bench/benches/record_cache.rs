//! Run-record cache companion bench: the three codec steps of a cache
//! hit or store — keying the configuration, decoding the record file and
//! rendering it — on a BT-MZ paper-case record at paper inputs, so the
//! harness layer can be measured on its own.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use mtb_bench::harness::{config_hash, RunRecord};
use mtb_core::balance::{execute, StaticRun};
use mtb_core::paper_cases::btmz_cases;
use mtb_workloads::BtMzConfig;

fn bench_record_cache(c: &mut Criterion) {
    let programs = BtMzConfig::default().programs();
    let case = &btmz_cases()[0];
    let result = execute(
        StaticRun::new(&programs, case.placement.clone()).with_priorities(case.priorities.clone()),
    )
    .expect("paper case runs");
    let record = RunRecord::from_run(case, &result, 0.5);
    let text = record.to_json();
    let mut g = c.benchmark_group("record_cache");
    g.bench_function("btmz_A/config_hash", |b| {
        b.iter(|| black_box(config_hash(case, &programs)))
    });
    g.bench_function(format!("btmz_A/from_json/{}KiB", text.len() / 1024), |b| {
        b.iter(|| black_box(RunRecord::from_json(&text).expect("record decodes")))
    });
    g.bench_function("btmz_A/to_json", |b| b.iter(|| black_box(record.to_json())));
    g.finish();
}

criterion_group!(benches, bench_record_cache);
criterion_main!(benches);
