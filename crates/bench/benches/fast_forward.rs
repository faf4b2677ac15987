//! Fast-forward companion bench: the cycle-level core's hot engine,
//! which skips quiet stretches in closed form, vs the per-cycle
//! reference path, on the workload regimes the `mtb bench` report
//! sweeps. Latency-bound (serialized pointer chases) is where skipping
//! pays; frontend-bound decodes every cycle and bounds the fast path's
//! bookkeeping overhead.
//!
//! Two companion groups probe the decode-bound hot engine specifically:
//! `steady` drives both contexts frontend-bound across every grant-table
//! template (all 64 priority pairs), the regime where the hot engine's
//! per-window state rebuild is amortized worst; `accounting` isolates
//! the slot-ownership accounting strategies — ranged census over whole
//! grant periods (what the hot engine flushes per slice) against the
//! per-cycle table lookup the reference path performs.
//!
//! `paper_regimes` prices one simulated core-cycle in the regimes the
//! paper cases put a cycle-level core in: the paper loads and the MPI
//! spin stream, paired as the case ladders pair them, at MEDIUM
//! priorities. Each core is warmed for `REGIME_WARMUP` cycles (caches
//! and predictors filled), then advanced `REGIME_CHUNK` cycles per
//! iteration; the throughput line is per core-cycle.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use mtb_smtsim::decode::{grant_census_range, GrantLut, GRANT_PERIOD};
use mtb_smtsim::inst::StreamSpec;
use mtb_smtsim::model::{CoreModel, ThreadId, Workload};
use mtb_smtsim::pairmodel::spin_workload;
use mtb_smtsim::{CoreConfig, HwPriority, SmtCore};
use mtb_workloads::loads::{btmz_load, metbench_load, siesta_load};

const CYCLES: u64 = 50_000;

/// Warm-up cycles before a paper regime is timed.
const REGIME_WARMUP: u64 = 20_000;

/// Cycles per timed `advance` in the paper regimes: the mean length of
/// an `advance` call in the e2e `cycle-cases` workload, so per-call
/// costs (mirror-in, the state check, the exit drain) weigh as they do
/// there. Its `--trace 1` pass at seed 1 makes 238 calls per run over
/// 116k core-cycles (`smtsim.advance_ms` 22.0 ms at
/// `smtsim.ns_per_kcycle` 189k ns), ~490 core-cycles per call.
const REGIME_CHUNK: u64 = 500;

/// Cycles per priority pair in the steady sweep; 64 pairs per iteration.
const STEADY_SLICE: u64 = 512;

type SpecFn = fn(u64) -> StreamSpec;

/// A paper regime: its name and the loads of contexts A and B.
type Regime = (&'static str, fn() -> Workload, fn() -> Workload);

fn core(spec: SpecFn, fast_forward: bool) -> SmtCore {
    let cfg = CoreConfig {
        fast_forward,
        ..CoreConfig::default()
    };
    let mut c = SmtCore::new(cfg);
    c.assign(ThreadId::A, Workload::from_spec("a", spec(1)));
    c.assign(ThreadId::B, Workload::from_spec("b", spec(2)));
    c.set_priority(ThreadId::A, HwPriority::MEDIUM);
    c.set_priority(ThreadId::B, HwPriority::MEDIUM);
    c
}

fn bench_fast_forward(c: &mut Criterion) {
    let mut g = c.benchmark_group("fast_forward");
    g.throughput(Throughput::Elements(CYCLES));
    let regimes: [(&str, SpecFn); 3] = [
        ("latency", StreamSpec::pointer_chase),
        ("mem", StreamSpec::mem_bound),
        ("frontend", StreamSpec::frontend_bound),
    ];
    for (name, spec) in regimes {
        g.bench_function(format!("{name}/fast"), |bench| {
            let mut core = core(spec, true);
            bench.iter(|| black_box(core.advance(CYCLES)))
        });
        g.bench_function(format!("{name}/reference"), |bench| {
            let mut core = core(spec, false);
            bench.iter(|| black_box(core.advance(CYCLES)))
        });
    }
    g.finish();
}

/// Decode-bound steady regime: both contexts frontend-bound, walking all
/// 64 `(prio_a, prio_b)` grant templates. Every `set_priority` call ends
/// the hot engine's window, so this measures steady-state decode *and*
/// the cost of re-entering the fast path under each template.
fn bench_steady_decode(c: &mut Criterion) {
    let mut g = c.benchmark_group("steady_decode");
    g.throughput(Throughput::Elements(STEADY_SLICE * 64));
    for (name, fast) in [("fast", true), ("reference", false)] {
        g.bench_function(name, |bench| {
            let mut core = core(StreamSpec::frontend_bound, fast);
            bench.iter(|| {
                for pa in 0..8u8 {
                    for pb in 0..8u8 {
                        let a = HwPriority::new(pa).expect("0..8 is valid");
                        let b = HwPriority::new(pb).expect("0..8 is valid");
                        core.set_priority(ThreadId::A, a);
                        core.set_priority(ThreadId::B, b);
                        black_box(core.advance(STEADY_SLICE));
                    }
                }
            })
        });
    }
    g.finish();
}

/// Slot-ownership accounting: per-slice ranged census (closed-form over
/// whole grant periods, what the hot engine flushes once per window)
/// vs the per-cycle grant-table lookup the reference path performs.
/// Both walk the same 64-pair × `STEADY_SLICE`-cycle schedule and
/// produce identical totals.
fn bench_accounting(c: &mut Criterion) {
    let mut g = c.benchmark_group("accounting");
    g.throughput(Throughput::Elements(STEADY_SLICE * 64));
    let pairs: Vec<(HwPriority, HwPriority)> = (0..8u8)
        .flat_map(|pa| (0..8u8).map(move |pb| (pa, pb)))
        .map(|(pa, pb)| {
            (
                HwPriority::new(pa).expect("0..8 is valid"),
                HwPriority::new(pb).expect("0..8 is valid"),
            )
        })
        .collect();
    g.bench_function("per_slice", |bench| {
        bench.iter(|| {
            let mut tot = (0u64, 0u64);
            for &(a, b) in &pairs {
                let (sa, sb) = grant_census_range(a, b, 0, STEADY_SLICE);
                tot.0 += sa;
                tot.1 += sb;
            }
            black_box(tot)
        })
    });
    g.bench_function("per_cycle", |bench| {
        let lut = GrantLut::new();
        bench.iter(|| {
            let mut tot = (0u64, 0u64);
            for &(a, b) in &pairs {
                let tpl = lut.period(a, b);
                for cycle in 0..STEADY_SLICE {
                    let sg = tpl[(cycle % GRANT_PERIOD) as usize];
                    tot.0 += u64::from(sg.owner == Some(ThreadId::A));
                    tot.1 += u64::from(sg.owner == Some(ThreadId::B));
                }
            }
            black_box(tot)
        })
    });
    g.finish();
}

/// One core-cycle in each paper regime: context A and B loads, MEDIUM
/// priorities, fast-forward on.
fn bench_paper_regimes(c: &mut Criterion) {
    let mut g = c.benchmark_group("paper_regimes");
    g.throughput(Throughput::Elements(REGIME_CHUNK));
    let regimes: [Regime; 6] = [
        ("spin/spin", spin_workload, spin_workload),
        ("metbench/spin", || metbench_load(1), spin_workload),
        (
            "metbench/metbench",
            || metbench_load(1),
            || metbench_load(2),
        ),
        ("btmz/btmz", || btmz_load(1), || btmz_load(2)),
        ("siesta/siesta", || siesta_load(1), || siesta_load(2)),
        ("siesta/spin", || siesta_load(1), spin_workload),
    ];
    for (name, a, b) in regimes {
        g.bench_function(name, |bench| {
            let mut core = SmtCore::new(CoreConfig::default());
            core.assign(ThreadId::A, a());
            core.assign(ThreadId::B, b());
            core.set_priority(ThreadId::A, HwPriority::MEDIUM);
            core.set_priority(ThreadId::B, HwPriority::MEDIUM);
            core.advance(REGIME_WARMUP);
            bench.iter(|| black_box(core.advance(REGIME_CHUNK)))
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_fast_forward,
    bench_steady_decode,
    bench_accounting,
    bench_paper_regimes
);
criterion_main!(benches);
