//! The noise walk's differential contract, property-tested. A meso
//! machine under noise steps each engine event with one
//! `Machine::advance_until` call that walks every noise edge before the
//! next MPI-visible event; under `Segmentation::Reference` every noise
//! edge still ends an event of its own. Both must produce bit-identical
//! records, and the walk's event trajectory must not depend on the
//! thread count.
//!
//! The runs cross tiny MetBench, BT-MZ and SIESTA programs with random
//! noise (periodic and one-shot sources, windows overlapping on one
//! context, sources on the idle contexts of a third core, and a window
//! that opens exactly when a compute phase completes), patched and
//! vanilla kernels, the three wait policies, and runs with and without
//! the two-level controller.
//!
//! The walk computes a target's completion instant only when it can
//! come before the target's core's next noise edge (or the walk's end),
//! and otherwise looks again at that edge. Scripted machine-level cases
//! pin the edges of that rule against the reference, call by call and
//! state by state: a completion exactly on its core's next edge, one
//! exactly on the walk's end, one found at an edge that flips nothing
//! (two windows overlapping on one context) while the target waited
//! there, and unbounded walks whose only target waits past the last
//! edge, once with a target that completes later and once with one that
//! never can.

use mtb_bench::lint::record_hash;
use mtb_core::balance::{prepare, StaticRun};
use mtb_core::paper_cases::{btmz_cases, metbench_cases, siesta_cases, Case};
use mtb_core::policy::PrioritySetting;
use mtb_core::{ControllerConfig, TwoLevelController};
use mtb_mpisim::engine::{Engine, Observer, RunResult};
use mtb_mpisim::{NullObserver, Program};
use mtb_oskernel::{CtxAddr, KernelConfig, Machine, NoiseSource, Segmentation, WaitPolicy};
use mtb_smtsim::chip::build_cores;
use mtb_smtsim::model::{Workload, WorkloadProfile};
use mtb_smtsim::{Cycles, PrivilegeLevel, StreamSpec};
use mtb_snap::state_hash;
use mtb_workloads::{BtMzConfig, MetBenchConfig, SiestaConfig};
use proptest::prelude::*;

/// Cores on the simulated machine: the paper's two plus an idle third,
/// so noise can land on contexts no rank owns.
const CORES: usize = 3;

/// Events per window of the thread-count lockstep comparison.
const WINDOW: u64 = 7;

/// One randomly drawn noise source; `kind` 3 is a one-shot window.
#[derive(Debug, Clone)]
struct NoiseSpec {
    kind: u8,
    cpu: usize,
    period: u64,
    cost_frac: u64,
    phase: u64,
}

fn noise_spec() -> impl Strategy<Value = NoiseSpec> {
    (
        0u8..4,
        0usize..CORES * 2,
        20_000u64..400_000,
        1u64..60,
        0u64..600_000,
    )
        .prop_map(|(kind, cpu, period, cost_frac, phase)| NoiseSpec {
            kind,
            cpu,
            period,
            cost_frac,
            phase,
        })
}

fn build(spec: &NoiseSpec) -> NoiseSource {
    let cost = (spec.period * spec.cost_frac / 100).clamp(1, spec.period - 1);
    let target = CtxAddr::from_cpu(spec.cpu);
    if spec.kind == 3 {
        NoiseSource::once("once", target, spec.phase, cost)
    } else {
        NoiseSource {
            name: format!("n{}", spec.kind),
            target,
            period: spec.period,
            cost,
            phase: spec.phase,
            one_shot: false,
        }
    }
}

/// Everything one configuration fixes besides the noise.
#[derive(Debug, Clone)]
struct Setup {
    /// 0 MetBench, 1 BT-MZ, 2 SIESTA.
    app: usize,
    /// Index into the app's paper cases.
    case: usize,
    vanilla: bool,
    /// 0 `SpinOwn`, 1 `SpinAt(2)`, 2 `Block`.
    wait: usize,
    controller: bool,
}

fn programs(app: usize) -> Vec<Program> {
    match app {
        0 => MetBenchConfig::tiny().programs(),
        1 => BtMzConfig::tiny().programs(),
        _ => SiestaConfig::tiny().programs(),
    }
}

fn case(s: &Setup) -> Case {
    let cases = match s.app {
        0 => metbench_cases(),
        1 => btmz_cases(),
        _ => siesta_cases(),
    };
    let mut c = cases[s.case % cases.len()].clone();
    if s.vanilla {
        // No procfs on a stock kernel: request each level through the
        // user-space or-nop instead, which reaches 2..=4.
        for p in &mut c.priorities {
            if let PrioritySetting::ProcFs(v) = *p {
                *p = PrioritySetting::OrNop(v.clamp(2, 4), PrivilegeLevel::User);
            }
        }
    }
    c
}

fn static_run<'a>(
    s: &Setup,
    progs: &'a [Program],
    c: &Case,
    noise: &[NoiseSource],
    seg: Segmentation,
    threads: usize,
) -> StaticRun<'a> {
    let mut run = StaticRun::new(progs, c.placement.clone())
        .with_priorities(c.priorities.clone())
        .with_kernel(if s.vanilla {
            KernelConfig::vanilla()
        } else {
            KernelConfig::patched()
        })
        .with_wait_policy(
            [
                WaitPolicy::SpinOwn,
                WaitPolicy::SpinAt(2),
                WaitPolicy::Block,
            ][s.wait],
        )
        .with_noise(noise.to_vec())
        .with_segmentation(seg)
        .with_threads(threads);
    run.cores = CORES;
    run
}

/// The observer a run steps under: a fresh controller, or none.
fn observer(s: &Setup, progs: &[Program], c: &Case) -> Box<dyn Observer> {
    if s.controller {
        Box::new(TwoLevelController::for_programs(
            progs,
            &c.placement,
            ControllerConfig::default(),
        ))
    } else {
        Box::new(NullObserver)
    }
}

fn run(s: &Setup, noise: &[NoiseSource], seg: Segmentation) -> (RunResult, u64) {
    let progs = programs(s.app);
    let c = case(s);
    let mut obs = observer(s, &progs, &c);
    let mut engine = prepare(&static_run(s, &progs, &c, noise, seg, 1)).expect("run builds");
    assert!(engine
        .step_events(obs.as_mut(), u64::MAX)
        .expect("run completes"));
    let events = engine.events();
    (engine.into_result(), events)
}

/// Add a one-shot window that opens exactly when some compute phase of
/// the run under `noise` completes, on the completing rank's context or
/// on its sibling. Nothing differs before that instant, so the window's
/// first edge and the completion coincide in the new run too.
fn edge_on_completion(
    s: &Setup,
    noise: &[NoiseSource],
    pick: usize,
    sibling: bool,
    cost: u64,
) -> Vec<NoiseSource> {
    let (probe, _) = run(s, noise, Segmentation::Calendar);
    let ends: Vec<(usize, u64)> = probe
        .timelines
        .iter()
        .enumerate()
        .flat_map(|(rank, t)| {
            t.intervals()
                .iter()
                .filter(|i| i.state.is_useful() && i.end < probe.total_cycles)
                .map(move |i| (rank, i.end))
        })
        .collect();
    let mut out = noise.to_vec();
    if let Some(&(rank, at)) = ends.get(pick % ends.len().max(1)) {
        let mut ctx = case(s).placement[rank];
        if sibling {
            ctx.thread = ctx.thread.other();
        }
        out.push(NoiseSource::once("edge", ctx, at, cost));
    }
    out
}

/// State hashes after every [`WINDOW`] events, stepping the same
/// configuration at 1 and 4 threads in lockstep; the first window whose
/// hashes differ, if any.
fn first_thread_divergence(s: &Setup, noise: &[NoiseSource]) -> Option<(u64, u64, u64)> {
    let progs = programs(s.app);
    let c = case(s);
    let mut engines: Vec<(Engine, Box<dyn Observer>)> = [1, 4]
        .iter()
        .map(|&threads| {
            let run = static_run(s, &progs, &c, noise, Segmentation::Calendar, threads);
            (prepare(&run).expect("run builds"), observer(s, &progs, &c))
        })
        .collect();
    for window in 1.. {
        let mut done = [false; 2];
        for (i, (engine, obs)) in engines.iter_mut().enumerate() {
            done[i] = engine
                .step_events(obs.as_mut(), WINDOW)
                .expect("run completes");
        }
        let ha = state_hash(&engines[0].0.save_state());
        let hb = state_hash(&engines[1].0.save_state());
        if ha != hb {
            return Some((window, ha, hb));
        }
        if done[0] && done[1] {
            return None;
        }
    }
    unreachable!()
}

fn setup() -> impl Strategy<Value = Setup> {
    (0usize..3, 0usize..5, 0u8..2, 0usize..3, 0u8..2).prop_map(
        |(app, case, vanilla, wait, controller)| Setup {
            app,
            case,
            vanilla: vanilla == 1,
            wait,
            controller: controller == 1,
        },
    )
}

proptest! {
    // Each case runs the configuration five times (a probe for the
    // completion instant, the walk, the reference, and the two lockstep
    // replays); the random dimensions still vary across runs of the
    // suite.
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn walked_runs_match_the_reference_and_ignore_threads(
        s in setup(),
        specs in proptest::collection::vec(noise_spec(), 1..5),
        overlap in 0u8..2,
        edge in (0usize..64, 0u8..2, 1u64..20_000),
    ) {
        let mut specs = specs;
        if overlap == 1 && specs.len() > 1 {
            // Two sources on one context: their windows overlap at times.
            specs[1].cpu = specs[0].cpu;
        }
        let base: Vec<NoiseSource> = specs.iter().map(build).collect();
        let noise = edge_on_completion(&s, &base, edge.0, edge.1 == 1, edge.2);

        let c = case(&s);
        let (walked, walked_events) = run(&s, &noise, Segmentation::Calendar);
        let (reference, reference_events) = run(&s, &noise, Segmentation::Reference);
        prop_assert_eq!(
            record_hash(&c, &walked),
            record_hash(&c, &reference),
            "walk and reference records differ ({:?})", s
        );
        prop_assert!(
            walked_events <= reference_events,
            "the walk stops at a subset of the reference's events: {} vs {}",
            walked_events,
            reference_events
        );
        prop_assert_eq!(first_thread_divergence(&s, &noise), None, "{:?}", s);
    }
}

/// A two-core meso machine under `noise`: process 0 computes on CPU 0
/// and process 1 on its sibling, CPU 1; process 0's workload retires
/// nothing when `stalled`.
fn machine(noise: &[NoiseSource], seg: Segmentation, stalled: bool) -> Machine {
    let mut m = Machine::new(build_cores(2, false), KernelConfig::patched());
    m.set_segmentation(seg);
    for pid in 0..2 {
        m.spawn(pid, format!("rank{pid}"), CtxAddr::from_cpu(pid))
            .unwrap();
        let ipc = if stalled && pid == 0 { 0.0 } else { 2.5 };
        let w = Workload::with_profile(
            "compute",
            StreamSpec::balanced(pid as u64 + 1),
            WorkloadProfile::new(ipc, 0.2, 0.1),
        );
        m.run_workload(pid, w).unwrap();
    }
    for src in noise {
        m.add_noise(src.clone());
    }
    m
}

/// One step of the walk taken on a reference machine, which ends every
/// `advance_until` call at a noise edge: calls repeated, as the engine
/// repeats them, until a target completes, the step's end falls, or a
/// call finds nothing left to step to. Returns what the walk returns.
fn reference_step(
    m: &mut Machine,
    bound: Option<Cycles>,
    limit: Cycles,
    targets: &[(usize, u64)],
) -> Option<Cycles> {
    let start = m.now();
    let end = start + bound.map_or(limit, |b| b.clamp(1, limit));
    loop {
        let now = m.now();
        if m.advance_until(bound.map(|_| end - now), end - now, targets)
            .is_none()
        {
            return (now > start).then(|| now - start);
        }
        let done = targets.iter().any(|&(pid, goal)| m.retired(pid) >= goal);
        if done || m.now() == end {
            return Some(m.now() - start);
        }
    }
}

/// Take `steps` — `(bound, limit, goal of process 0)` each — on a walked
/// and a reference machine in lockstep. Every step must answer the same
/// and leave the same state on both; the walk's answers are returned.
fn walk_vs_reference(
    noise: &[NoiseSource],
    stalled: bool,
    steps: &[(Option<Cycles>, Cycles, u64)],
) -> Vec<Option<Cycles>> {
    let mut walked = machine(noise, Segmentation::Calendar, stalled);
    let mut reference = machine(noise, Segmentation::Reference, stalled);
    steps
        .iter()
        .map(|&(bound, limit, goal)| {
            let targets = [(0, goal)];
            let got = walked.advance_until(bound, limit, &targets);
            let want = reference_step(&mut reference, bound, limit, &targets);
            assert_eq!(got, want, "step ({bound:?}, {limit}, {goal})");
            assert_eq!(walked.save_state(), reference.save_state());
            got
        })
        .collect()
}

/// A periodic window on `cpu`.
fn window(cpu: usize, period: Cycles, cost: Cycles, phase: Cycles) -> NoiseSource {
    NoiseSource::device("w", CtxAddr::from_cpu(cpu), period, cost, phase)
}

#[test]
fn walk_boundary_cases_match_the_reference() {
    const FAR: Cycles = 1 << 40;
    // Windows on both contexts of core 0; the sibling's move process 0's
    // rate. Process 0 completes `goal` at `t`, long after many edges.
    let base = [
        window(0, 100_000, 4_000, 0),
        window(1, 70_000, 9_000, 5_000),
    ];
    let goal = 5_000_000;
    let [Some(t)] = walk_vs_reference(&base, false, &[(None, FAR, goal)])[..] else {
        panic!("process 0 completes");
    };
    assert!(t > 1_000_000, "the completion comes after many edges: {t}");

    // A completion exactly on its core's next edge: a window opens on the
    // sibling at that instant (nothing differs before it).
    let mut on_edge = base.to_vec();
    on_edge.push(NoiseSource::once("edge", CtxAddr::from_cpu(1), t, 3_000));
    assert_eq!(
        walk_vs_reference(&on_edge, false, &[(None, FAR, goal)]),
        [Some(t)]
    );

    // A completion one cycle before the walk's end, exactly on it, and
    // one cycle after it.
    for bound in [t + 1, t, t - 1] {
        assert_eq!(
            walk_vs_reference(&base, false, &[(Some(bound), FAR, goal)]),
            [Some(bound.min(t))]
        );
    }

    // Two windows overlapping on the sibling: the inner one's edges, at
    // 10k and 20k into each period, flip nothing. The goal is what
    // process 0 has retired 25k cycles into the 41st period, so it
    // completes after the inner window's end and before the outer's, at
    // 30k: the walk finds the instant at an edge that flips nothing,
    // where the target has waited since the outer window opened.
    let overlap = [
        window(1, 100_000, 30_000, 0),
        window(1, 100_000, 10_000, 10_000),
    ];
    let mut probe = machine(&overlap, Segmentation::Calendar, false);
    probe.advance(4_025_000);
    let goal = probe.retired(0);
    let [Some(t)] = walk_vs_reference(&overlap, false, &[(None, FAR, goal)])[..] else {
        panic!("process 0 completes");
    };
    assert!((4_020_001..=4_025_000).contains(&t), "{t}");

    // Unbounded walks past the last edge of one-shot windows, with the
    // only target still waiting there. One that completes later runs to
    // the limit; one that never can stops at the last edge it crossed,
    // and the next call advances nothing.
    let finite = [
        NoiseSource::once("a", CtxAddr::from_cpu(1), 10_000, 5_000),
        NoiseSource::once("b", CtxAddr::from_cpu(1), 50_000, 5_000),
    ];
    assert_eq!(
        walk_vs_reference(&finite, false, &[(None, 1_000_000, FAR)]),
        [Some(1_000_000)]
    );
    assert_eq!(
        walk_vs_reference(&finite, true, &[(None, 1_000_000, 1), (None, 1_000_000, 1)]),
        [Some(55_000), None]
    );
}
