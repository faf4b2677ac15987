//! Differential proptest: [`Segmentation::Calendar`] must reproduce the
//! reference per-segment walk bit for bit — full [`MachineState`]
//! equality, not just retired counts — across random noise mixes
//! (periodic and one-shot, overlapping, boundary-coincident), random
//! epoch splits (including splits landing exactly on noise boundaries,
//! the checkpoint-coincident case), both core fidelities, and both the
//! sequential and the 4-worker sharded stepping paths. A scripted variant
//! checks the calendar each conflict domain carries across epochs and the
//! accounting mode each context caches: its scripts rewind to earlier
//! snapshots, add sources mid-run (or to a machine that started with
//! none, whose epochs take the quiet path), detour through the other
//! segmentation, and change process state between epochs — spin, block,
//! new workloads, migrations, swaps, exits and priority writes.

use std::sync::Arc;

use mtb_oskernel::{CtxAddr, KernelConfig, Machine, MachineState, NoiseSource, Segmentation};
use mtb_pool::{Budget, ShardedRunner};
use mtb_smtsim::chip::{build_cores_grouped, Fidelity};
use mtb_smtsim::inst::StreamSpec;
use mtb_smtsim::model::Workload;
use mtb_smtsim::CoreConfig;
use proptest::prelude::*;

const CORES: usize = 4;

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
    (0u8..4, 0usize..CORES * 2, 40u64..4000, 1u64..99, 0u64..6000).prop_map(
        |(kind, cpu, period, cost_frac, phase)| NoiseSpec {
            kind,
            cpu,
            period,
            cost_frac,
            phase,
        },
    )
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

/// Run one machine to completion under the given segmentation and
/// thread count, returning the final full state.
fn run(
    fidelity: &Fidelity,
    cores_per_l2: usize,
    noise: &[NoiseSpec],
    epochs: &[u64],
    seg: Segmentation,
    threads: usize,
) -> MachineState {
    let mut m = loaded(fidelity, cores_per_l2, noise, seg, threads, &[]);
    for &dt in epochs {
        m.advance(dt);
    }
    m.save_state()
}

/// A machine with a running, prioritised process (pid = cpu) on every
/// context but the `free` cpus, and the given noise, under the given
/// segmentation and thread count.
fn loaded(
    fidelity: &Fidelity,
    cores_per_l2: usize,
    noise: &[NoiseSpec],
    seg: Segmentation,
    threads: usize,
    free: &[usize],
) -> Machine {
    let mut m = Machine::new(
        build_cores_grouped(CORES, fidelity, cores_per_l2),
        KernelConfig::patched(),
    );
    m.set_segmentation(seg);
    if threads > 1 {
        // A private roomy budget so workers exist even on a loaded host.
        m.set_runner(Some(ShardedRunner::with_budget(
            threads,
            Arc::new(Budget::new(16)),
        )));
    }
    for cpu in (0..CORES * 2).filter(|c| !free.contains(c)) {
        m.spawn(cpu, format!("P{cpu}"), CtxAddr::from_cpu(cpu))
            .unwrap();
        m.run_workload(
            cpu,
            Workload::from_spec("w", StreamSpec::balanced(cpu as u64 + 1)),
        )
        .unwrap();
        m.set_priority_procfs(cpu, 2 + (cpu % 5) as u8).unwrap();
    }
    for s in noise {
        m.add_noise(build(s));
    }
    m
}

/// Contexts the scripts leave without a process, so migrations can land.
const SCRIPT_FREE: [usize; 2] = [3, 6];

/// One step of a machine script: the operations that move a domain's
/// carried noise calendar away from the next epoch's start or change
/// the source set under it, and the process-state changes a context's
/// cached accounting mode must follow. Process steps name pids
/// `0..CORES * 2`; the free cpus' pids do not exist, so those steps
/// exercise the error paths too.
#[derive(Debug, Clone)]
enum Step {
    /// `advance(dt)` under the script's segmentation.
    Advance(u64),
    /// `add_noise` of a source registered mid-run.
    AddNoise(NoiseSpec),
    /// Remember `save_state()`.
    Save,
    /// `restore_state` of the last `Save` (no-op before the first).
    Restore,
    /// One `advance(dt)` under the other segmentation, then back.
    Detour(u64),
    /// `spin(pid)`: an MPI busy-wait.
    Spin(usize),
    /// `block(pid)`.
    Block(usize),
    /// `run_workload(pid, ..)` of a fresh workload.
    Run(usize, u64),
    /// `migrate(pid, cpu)`.
    Migrate(usize, usize),
    /// `swap(pid, pid)`.
    Swap(usize, usize),
    /// `exit(pid)`.
    Exit(usize),
    /// `set_priority_procfs(pid, value)`, any value 0..=7.
    Priority(usize, u8),
}

/// Half plain epochs; the rest spread over the other steps.
fn step() -> impl Strategy<Value = Step> {
    (
        0u8..21,
        1u64..=3000,
        noise_spec(),
        (0usize..CORES * 2, 0usize..CORES * 2),
    )
        .prop_map(|(kind, dt, spec, (a, b))| match kind {
            0..=9 => Step::Advance(dt),
            10 => Step::AddNoise(spec),
            11 => Step::Save,
            12 => Step::Restore,
            13 => Step::Detour(dt),
            14 => Step::Spin(a),
            15 => Step::Block(a),
            16 => Step::Run(a, dt),
            17 => Step::Migrate(a, b),
            18 => Step::Swap(a, b),
            19 => Step::Exit(a),
            _ => Step::Priority(a, (dt % 8) as u8),
        })
}

/// Play `script` on a loaded machine and return the final full state,
/// plus the outcome of every process step.
fn run_script(
    fidelity: &Fidelity,
    cores_per_l2: usize,
    noise: &[NoiseSpec],
    script: &[Step],
    seg: Segmentation,
    threads: usize,
) -> (MachineState, Vec<String>) {
    let other = match seg {
        Segmentation::Calendar => Segmentation::Reference,
        Segmentation::Reference => Segmentation::Calendar,
    };
    let mut m = loaded(fidelity, cores_per_l2, noise, seg, threads, &SCRIPT_FREE);
    let mut saved = None;
    let mut outcomes = Vec::new();
    for s in script {
        let outcome = match s {
            Step::Advance(dt) => {
                m.advance(*dt);
                None
            }
            Step::AddNoise(spec) => {
                m.add_noise(build(spec));
                None
            }
            Step::Save => {
                saved = Some(m.save_state());
                None
            }
            Step::Restore => {
                if let Some(snap) = &saved {
                    m.restore_state(snap).expect("same machine shape");
                }
                None
            }
            Step::Detour(dt) => {
                m.set_segmentation(other);
                m.advance(*dt);
                m.set_segmentation(seg);
                None
            }
            Step::Spin(pid) => Some(format!("{:?}", m.spin(*pid))),
            Step::Block(pid) => Some(format!("{:?}", m.block(*pid))),
            Step::Run(pid, seed) => Some(format!(
                "{:?}",
                m.run_workload(*pid, Workload::from_spec("r", StreamSpec::balanced(*seed)))
            )),
            Step::Migrate(pid, cpu) => {
                Some(format!("{:?}", m.migrate(*pid, CtxAddr::from_cpu(*cpu))))
            }
            Step::Swap(a, b) => Some(format!("{:?}", m.swap(*a, *b))),
            Step::Exit(pid) => Some(format!("{:?}", m.exit(*pid))),
            Step::Priority(pid, value) => {
                Some(format!("{:?}", m.set_priority_procfs(*pid, *value)))
            }
        };
        outcomes.extend(outcome);
    }
    (m.save_state(), outcomes)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Calendar ≡ Reference on the full machine state, at 1 and 4
    /// workers, for random noise mixes and epoch splits. Epochs are
    /// drawn small enough that boundaries regularly coincide with epoch
    /// bounds (the checkpoint-coincident case) and large enough to span
    /// many boundaries.
    #[test]
    fn calendar_matches_reference_bit_for_bit(
        noise in proptest::collection::vec(noise_spec(), 0..6),
        epochs in proptest::collection::vec(
            // Mixed scales: tiny epochs (bounds land on boundaries),
            // medium, and multi-boundary spans.
            (0u8..3, 0u64..20_000).prop_map(|(k, r)| match k {
                0 => 1 + r % 49,
                1 => 50 + r % 450,
                _ => 500 + r,
            }),
            1..6),
        cores_per_l2 in 1usize..=2,
        cycle in 0u8..2,
    ) {
        let fidelity = if cycle == 1 {
            Fidelity::Cycle(CoreConfig::default())
        } else {
            Fidelity::Meso(Default::default())
        };
        let reference = run(&fidelity, cores_per_l2, &noise, &epochs,
                            Segmentation::Reference, 1);
        for threads in [1, 4] {
            let fast = run(&fidelity, cores_per_l2, &noise, &epochs,
                           Segmentation::Calendar, threads);
            prop_assert_eq!(
                &fast, &reference,
                "calendar drifted from reference at {} threads", threads
            );
        }
    }

    /// A calendar carried across epochs, and the accounting mode each
    /// context caches, stay exact under everything that moves them:
    /// rewinds to an earlier snapshot, sources registered mid-run (also
    /// on machines that start without any), epochs stepped by the other
    /// segmentation, and process-state changes between epochs. Full state
    /// equality with the reference script at 1 and 4 workers.
    #[test]
    fn carried_calendar_matches_reference_under_rewinds(
        noise in proptest::collection::vec(noise_spec(), 0..6),
        script in proptest::collection::vec(step(), 1..40),
        cores_per_l2 in 1usize..=2,
        cycle in 0u8..2,
    ) {
        let fidelity = if cycle == 1 {
            Fidelity::Cycle(CoreConfig::default())
        } else {
            Fidelity::Meso(Default::default())
        };
        let reference = run_script(&fidelity, cores_per_l2, &noise, &script,
                                   Segmentation::Reference, 1);
        for threads in [1, 4] {
            let fast = run_script(&fidelity, cores_per_l2, &noise, &script,
                                  Segmentation::Calendar, threads);
            prop_assert_eq!(
                &fast, &reference,
                "carried calendar drifted from reference at {} threads", threads
            );
        }
    }

    /// Epoch splits are invisible under the calendar path: advancing in
    /// any partition of the same total must land in the same state as
    /// one big epoch (the property fused segments lean on).
    #[test]
    fn calendar_epochs_compose(
        noise in proptest::collection::vec(noise_spec(), 0..5),
        splits in proptest::collection::vec(1u64..8_000, 1..5),
    ) {
        let fidelity = Fidelity::Meso(Default::default());
        let total: u64 = splits.iter().sum();
        let whole = run(&fidelity, 1, &noise, &[total], Segmentation::Calendar, 1);
        let pieces = run(&fidelity, 1, &noise, &splits, Segmentation::Calendar, 1);
        prop_assert_eq!(&pieces, &whole, "epoch split changed the outcome");
    }

    /// Boundaries landing exactly on an epoch bound (the checkpoint-
    /// coincident case): force sources whose period divides the epoch so
    /// entry and exit flips hit the bound, and compare both paths.
    #[test]
    fn boundary_coincident_epoch_bounds_match(
        pidx in 0usize..3,
        cost in 1u64..99,
        reps in 1usize..6,
        cycle in 0u8..2,
    ) {
        let period = [100u64, 250, 500][pidx];
        let fidelity = if cycle == 1 {
            Fidelity::Cycle(CoreConfig::default())
        } else {
            Fidelity::Meso(Default::default())
        };
        // Epoch = 4 periods: flips at 0, cost, period, period+cost, ...
        // land on segment cuts and on the epoch bound itself.
        let noise: Vec<NoiseSpec> = (0..2)
            .map(|i| NoiseSpec {
                kind: 0,
                cpu: i,
                period,
                cost_frac: cost,
                phase: 0,
            })
            .collect();
        let epochs = vec![period * 4; reps];
        let reference = run(&fidelity, 2, &noise, &epochs, Segmentation::Reference, 1);
        let fast = run(&fidelity, 2, &noise, &epochs, Segmentation::Calendar, 1);
        prop_assert_eq!(&fast, &reference);
    }
}
