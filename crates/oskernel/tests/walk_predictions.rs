//! The noise walk of `Machine::advance_until` asks a core for a target's
//! exact completion instant only when [`CoreModel::may_retire_within`]
//! says it can fall before the core's next noise edge. Under the
//! "interrupt annoyance" noise (a tick on every context, device
//! interrupts on CPU0) a compute run crosses a noise edge far more often
//! than a compute phase ends, so the exact `cycles_to_retire` calls of a
//! noisy run to completion must stay a small fraction of its handler
//! flips. Asking after every flip, as a walk that predicts eagerly does,
//! makes about one call per flip. The run must also reach every
//! completion at the instant, and end in the state, that the reference
//! segmentation (one step per noise edge) reaches.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use mtb_oskernel::noise::interrupt_annoyance;
use mtb_oskernel::{CtxAddr, KernelConfig, Machine, MachineState, Segmentation};
use mtb_smtsim::model::{CoreModel, ThreadId, Workload, WorkloadProfile};
use mtb_smtsim::{CoreState, Cycles, HwPriority, MesoCore, StreamSpec};

/// Calls counted across every core of one machine.
#[derive(Default)]
struct Counts {
    /// `cycles_to_retire` calls: exact completion instants.
    exact: AtomicU64,
    /// `assign` and `clear` calls. Once the processes are set up, only
    /// handler windows make them: one per window entry or exit.
    flips: AtomicU64,
}

/// A [`MesoCore`] that forwards every method and counts calls.
struct Counting {
    inner: MesoCore,
    counts: Arc<Counts>,
}

impl CoreModel for Counting {
    fn set_priority(&mut self, t: ThreadId, p: HwPriority) {
        self.inner.set_priority(t, p)
    }

    fn priority(&self, t: ThreadId) -> HwPriority {
        self.inner.priority(t)
    }

    fn assign(&mut self, t: ThreadId, w: Workload) {
        self.counts.flips.fetch_add(1, Ordering::Relaxed);
        self.inner.assign(t, w)
    }

    fn clear(&mut self, t: ThreadId) {
        self.counts.flips.fetch_add(1, Ordering::Relaxed);
        self.inner.clear(t)
    }

    fn has_work(&self, t: ThreadId) -> bool {
        self.inner.has_work(t)
    }

    fn advance(&mut self, cycles: Cycles) -> [u64; 2] {
        self.inner.advance(cycles)
    }

    fn retire_rate(&self, t: ThreadId) -> f64 {
        self.inner.retire_rate(t)
    }

    fn share_group(&self) -> Option<usize> {
        self.inner.share_group()
    }

    fn cycles_to_retire(&self, t: ThreadId, n: u64) -> Option<Cycles> {
        self.counts.exact.fetch_add(1, Ordering::Relaxed);
        self.inner.cycles_to_retire(t, n)
    }

    fn may_retire_within(&self, t: ThreadId, n: u64, dt: Cycles) -> bool {
        self.inner.may_retire_within(t, n, dt)
    }

    fn save_state(&self) -> CoreState {
        self.inner.save_state()
    }

    fn restore_state(&mut self, s: &CoreState) -> Result<(), String> {
        self.inner.restore_state(s)
    }
}

/// Compute phases per process.
const PHASES: usize = 12;

/// Instructions of phase `i` of process `pid`.
fn phase_len(pid: usize, i: usize) -> u64 {
    [3_000_000, 11_000_000, 29_000_000][(pid + i) % 3]
}

/// What one run found: every phase completion as `(pid, instant)` in
/// order, the final state, and the calls its cores counted while the
/// phases ran.
struct Run {
    completions: Vec<(usize, Cycles)>,
    state: MachineState,
    exact: u64,
    flips: u64,
}

/// Run four processes, one per context of two meso cores, through
/// [`PHASES`] compute phases each under the `noisy-dynamic` noise at 5%
/// device duty, stepping with `advance_until` from completion to
/// completion as the MPI engine does while every rank computes.
fn run(seg: Segmentation) -> Run {
    let counts = Arc::new(Counts::default());
    let cores = (0..2)
        .map(|_| {
            Box::new(Counting {
                inner: MesoCore::default(),
                counts: Arc::clone(&counts),
            }) as Box<dyn CoreModel>
        })
        .collect();
    let mut m = Machine::new(cores, KernelConfig::patched());
    m.set_segmentation(seg);
    for pid in 0..4 {
        m.spawn(pid, format!("rank{pid}"), CtxAddr::from_cpu(pid))
            .unwrap();
        let profile = WorkloadProfile::new(1.0 + 0.5 * pid as f64, 0.2, 0.1);
        m.run_workload(
            pid,
            Workload::with_profile("compute", StreamSpec::balanced(pid as u64 + 1), profile),
        )
        .unwrap();
        m.set_priority_procfs(pid, [4, 6, 5, 3][pid]).unwrap();
    }
    for src in interrupt_annoyance(2, 1_500_000, 7_500, 500_000, 25_000) {
        m.add_noise(src);
    }
    let exact0 = counts.exact.load(Ordering::Relaxed);
    let flips0 = counts.flips.load(Ordering::Relaxed);

    let mut phase = [0usize; 4];
    let mut targets: Vec<(usize, u64)> = (0..4).map(|pid| (pid, phase_len(pid, 0))).collect();
    let mut completions = Vec::new();
    while !targets.is_empty() {
        m.advance_until(None, 1 << 40, &targets)
            .expect("a computing process always completes");
        targets.retain_mut(|(pid, goal)| {
            if m.retired(*pid) < *goal {
                return true;
            }
            completions.push((*pid, m.now()));
            phase[*pid] += 1;
            *goal += phase_len(*pid, phase[*pid]);
            phase[*pid] < PHASES
        });
    }
    Run {
        completions,
        state: m.save_state(),
        exact: counts.exact.load(Ordering::Relaxed) - exact0,
        flips: counts.flips.load(Ordering::Relaxed) - flips0,
    }
}

#[test]
fn the_walk_computes_few_completion_instants_and_matches_the_reference() {
    let walked = run(Segmentation::Calendar);
    let reference = run(Segmentation::Reference);
    assert_eq!(walked.completions.len(), 4 * PHASES);
    assert_eq!(walked.completions, reference.completions);
    assert_eq!(walked.state, reference.state);
    assert!(
        walked.flips >= 1_000,
        "the run crosses too few handler flips to tell: {}",
        walked.flips
    );
    assert!(
        walked.exact * 10 <= walked.flips,
        "{} exact completion instants for {} handler flips",
        walked.exact,
        walked.flips
    );
}
