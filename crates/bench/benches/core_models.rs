//! ABL-1 companion bench: simulation throughput of the two core models.
//! `mtb ext fidelity` reports their *agreement*; this reports their
//! *speed* — the justification for using the mesoscale model in the
//! application experiments (it is several orders of magnitude faster per
//! simulated cycle).

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use mtb_smtsim::inst::StreamSpec;
use mtb_smtsim::model::{CoreModel, ThreadId, Workload};
use mtb_smtsim::perfmodel::{MesoConfig, MesoCore};
use mtb_smtsim::{CoreConfig, HwPriority, SmtCore};

const CYCLES: u64 = 10_000;

fn cycle_core() -> SmtCore {
    let mut core = SmtCore::new(CoreConfig::default());
    core.assign(
        ThreadId::A,
        Workload::from_spec("a", StreamSpec::balanced(1)),
    );
    core.assign(
        ThreadId::B,
        Workload::from_spec("b", StreamSpec::fpu_bound(2)),
    );
    core.set_priority(ThreadId::A, HwPriority::MEDIUM_HIGH);
    core.set_priority(ThreadId::B, HwPriority::MEDIUM);
    core
}

fn meso_core() -> MesoCore {
    let mut core = MesoCore::new(MesoConfig::default());
    core.assign(
        ThreadId::A,
        Workload::from_spec("a", StreamSpec::balanced(1)),
    );
    core.assign(
        ThreadId::B,
        Workload::from_spec("b", StreamSpec::fpu_bound(2)),
    );
    core.set_priority(ThreadId::A, HwPriority::MEDIUM_HIGH);
    core.set_priority(ThreadId::B, HwPriority::MEDIUM);
    core
}

fn bench_models(c: &mut Criterion) {
    let mut g = c.benchmark_group("core_models");
    g.throughput(Throughput::Elements(CYCLES));
    g.bench_function("cycle_level/advance_10k", |bench| {
        let mut core = cycle_core();
        bench.iter(|| black_box(core.advance(CYCLES)))
    });
    g.bench_function("mesoscale/advance_10k", |bench| {
        let mut core = meso_core();
        bench.iter(|| black_box(core.advance(CYCLES)))
    });
    g.bench_function("mesoscale/throughputs_query", |bench| {
        let core = meso_core();
        bench.iter(|| black_box(core.throughputs()))
    });
    g.finish();
}

criterion_group!(benches, bench_models);
criterion_main!(benches);
