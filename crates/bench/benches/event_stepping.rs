//! Engine stepping companion bench: event-horizon jumps vs the historical
//! quantum-clamped stepping, on a meso paper case; and the same case under
//! CPU0 interrupt noise, where the machine walks noise edges inside one
//! engine event (`walk`) or ends an event at each of them under
//! `Segmentation::Reference` (`reference`). Outputs are proven identical
//! by the perf module's and the noise-walk differential tests; this
//! measures the wall-clock side of those trades. `btmz_paper_A` is one
//! whole noise-free run of BT-MZ case A at paper scale, `prepare`
//! included: the regime that sets the e2e `plan-sweep` tail (a third of
//! its jobs, each ~5× a MetBench or SIESTA run).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use mtb_bench::cli::cpu0_irq_noise;
use mtb_bench::lint::record_hash;
use mtb_core::balance::{execute, StaticRun};
use mtb_core::paper_cases::{btmz_cases, metbench_cases};
use mtb_mpisim::engine::Stepping;
use mtb_oskernel::Segmentation;
use mtb_workloads::{BtMzConfig, MetBenchConfig};

fn bench_stepping(c: &mut Criterion) {
    let cfg = MetBenchConfig::tiny();
    let programs = cfg.programs();
    let case = &metbench_cases()[3]; // case D: widest priority spread
    let run = || {
        StaticRun::new(&programs, case.placement.clone()).with_priorities(case.priorities.clone())
    };
    let mut g = c.benchmark_group("event_stepping");
    for (name, stepping) in [
        ("event_horizon", Stepping::EventHorizon),
        ("quantum", Stepping::Quantum),
    ] {
        g.bench_function(format!("metbench_tiny_D/{name}"), |bench| {
            bench.iter(|| {
                let r = execute(run().with_stepping(stepping)).expect("paper case runs");
                black_box(record_hash(case, &r))
            })
        });
    }
    for (name, segmentation) in [
        ("walk", Segmentation::Calendar),
        ("reference", Segmentation::Reference),
    ] {
        g.bench_function(format!("metbench_tiny_D_noisy/{name}"), |bench| {
            bench.iter(|| {
                let r = execute(
                    run()
                        .with_noise(cpu0_irq_noise(10))
                        .with_segmentation(segmentation),
                )
                .expect("paper case runs");
                black_box(record_hash(case, &r))
            })
        });
    }
    let programs = BtMzConfig::default().programs();
    let case = &btmz_cases()[0];
    g.bench_function("btmz_paper_A/event_horizon", |bench| {
        bench.iter(|| {
            let r = execute(
                StaticRun::new(&programs, case.placement.clone())
                    .with_priorities(case.priorities.clone()),
            )
            .expect("paper case runs");
            // The e2e timer stops before the record hash, so this row
            // leaves it out too.
            black_box(r.total_cycles)
        })
    });
    g.finish();
}

criterion_group!(benches, bench_stepping);
criterion_main!(benches);
