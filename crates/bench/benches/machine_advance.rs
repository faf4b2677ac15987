//! Kernel-path stepping: `Machine::advance` under the event-calendar
//! segmentation vs the reference per-segment walk, over the two noise
//! regimes that bracket the win. Noise-dense epochs (a per-context
//! tick + daemon forest and an overlapping CPU0 device stack) are where
//! the reference's per-segment boundary scan and handler re-sync
//! dominate; noise-free epochs bound the calendar's overhead instead —
//! with nothing to segment, both paths should collapse to one `advance`
//! call per core and the bars should coincide.
//!
//! The `machine_advance_engine` group steps the noise-dense machine the
//! way the event engine does on shared-L2 machines and under the
//! reference segmentation: each iteration advances to
//! `next_boundary(now)`, so an epoch crosses at most one noise boundary
//! and the per-epoch cost of the kernel path (calendar upkeep, handler
//! flips, accounting) is what the row times. (A noisy meso machine on
//! the calendar walks such edges inside one `Machine::advance_until`
//! call; `event_stepping`'s `metbench_tiny_D_noisy` rows time that.)
//!
//! Mesoscale cores, like the engine's default fidelity: their O(1)
//! windows expose the segmentation machinery itself rather than
//! per-cycle core modelling. Output identity between the two paths is
//! asserted by the `segmentation_identity` suite, not here.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use mtb_oskernel::{CtxAddr, KernelConfig, Machine, NoiseSource, Segmentation};
use mtb_smtsim::chip::{build_cores_grouped, Fidelity};
use mtb_smtsim::inst::StreamSpec;
use mtb_smtsim::model::Workload;

/// Advance window per iteration — the cycle-fidelity engine's quantum,
/// so the segment population per call matches real runs.
const WINDOW: u64 = 50_000;

/// The noise-dense population: staggered tick plus a small kernel-thread
/// forest on every context, and an overlapping device-interrupt stack
/// routed to CPU0 (Section II-B's interrupt annoyance).
fn dense_noise(n_cores: usize) -> Vec<NoiseSource> {
    let mut v = Vec::new();
    for cpu in 0..n_cores * 2 {
        let c = cpu as u64;
        v.push(NoiseSource::device(
            "tick",
            CtxAddr::from_cpu(cpu),
            50_000,
            400,
            311 * c,
        ));
        let kthreads: [(u64, u64); 4] = [
            (23_000, 260),
            (43_000, 430),
            (79_000, 710),
            (127_000, 1_150),
        ];
        for (j, &(period, cost)) in kthreads.iter().enumerate() {
            v.push(NoiseSource::device(
                format!("kthread{j}"),
                CtxAddr::from_cpu(cpu),
                period + 1_009 * c,
                cost,
                1_777 * c + 5_003 * j as u64,
            ));
        }
    }
    let irqs: [(u64, u64, u64); 4] = [
        (1_100, 440, 0),
        (1_700, 680, 450),
        (2_300, 920, 300),
        (2_900, 1_160, 1_000),
    ];
    for (i, &(period, cost, phase)) in irqs.iter().enumerate() {
        v.push(NoiseSource::device(
            format!("irq{i}"),
            CtxAddr::from_cpu(0),
            period,
            cost,
            phase,
        ));
    }
    v
}

fn loaded_machine(cores: usize, noisy: bool, seg: Segmentation) -> Machine {
    let mut m = Machine::new(
        build_cores_grouped(cores, &Fidelity::Meso(Default::default()), 1),
        KernelConfig::patched(),
    );
    m.set_segmentation(seg);
    for cpu in 0..cores * 2 {
        m.spawn(cpu, format!("p{cpu}"), CtxAddr::from_cpu(cpu))
            .expect("spawn");
        m.run_workload(
            cpu,
            Workload::from_spec("w", StreamSpec::balanced(cpu as u64 + 1)),
        )
        .expect("workload");
        m.set_priority_procfs(cpu, 4).expect("priority");
    }
    if noisy {
        for s in dense_noise(cores) {
            m.add_noise(s);
        }
    }
    m
}

fn bench_machine_advance(c: &mut Criterion) {
    let mut g = c.benchmark_group("machine_advance");
    let paths = [
        ("calendar", Segmentation::Calendar),
        ("reference", Segmentation::Reference),
    ];
    for cores in [2usize, 4, 8] {
        g.throughput(Throughput::Elements(WINDOW * cores as u64));
        for (regime, noisy) in [("noise-dense", true), ("noise-free", false)] {
            for (name, seg) in paths {
                g.bench_function(format!("{cores}c/{regime}/{name}"), |bench| {
                    let mut m = loaded_machine(cores, noisy, seg);
                    bench.iter(|| {
                        m.advance(WINDOW);
                        black_box(m.now())
                    })
                });
            }
        }
    }
    g.finish();

    let mut g = c.benchmark_group("machine_advance_engine");
    for cores in [2usize, 4, 8] {
        for (name, seg) in paths {
            g.bench_function(format!("{cores}c/to-next-boundary/{name}"), |bench| {
                let mut m = loaded_machine(cores, true, seg);
                bench.iter(|| {
                    let now = m.now();
                    let next = m.next_boundary(now).expect("periodic noise");
                    m.advance(next - now);
                    black_box(m.now())
                })
            });
        }
    }
    g.finish();
}

criterion_group!(benches, bench_machine_advance);
criterion_main!(benches);
