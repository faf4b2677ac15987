//! Seeded input generation.
//!
//! The benchmark fixes its own inputs: every program, noise source and
//! plan list is built here from `mtb_workloads` configurations, the
//! paper's case table and `mtb_verify`'s plan enumeration, driven by one
//! `--seed`. The simulator only ever sees the generated inputs, so the
//! same seed always measures the same work.

use mtb_bench::harness::config_hash_static;
use mtb_core::balance::StaticRun;
use mtb_core::paper_cases::{self, Case};
use mtb_core::policy::PrioritySetting;
use mtb_mpisim::Program;
use mtb_oskernel::noise::interrupt_annoyance;
use mtb_oskernel::{CtxAddr, NoiseSource};
use mtb_smtsim::rng::SplitMix64;
use mtb_verify::Plan;
use mtb_workloads::{BtMzConfig, MetBenchConfig, SiestaConfig};

/// The paper's three applications.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum App {
    /// MetBench (Table IV).
    MetBench,
    /// BT-MZ (Table V).
    BtMz,
    /// SIESTA (Table VI).
    Siesta,
}

impl App {
    /// Every app, in table order.
    pub const ALL: [App; 3] = [App::MetBench, App::BtMz, App::Siesta];

    /// The paper's multi-threaded cases A–D.
    pub fn cases(self) -> Vec<Case> {
        match self {
            App::MetBench => paper_cases::metbench_cases(),
            App::BtMz => paper_cases::btmz_cases(),
            App::Siesta => paper_cases::siesta_cases(),
        }
    }

    /// The paper's iteration count for the 4-rank runs.
    fn paper_iterations(self) -> u32 {
        match self {
            App::MetBench => MetBenchConfig::default().iterations,
            App::BtMz => BtMzConfig::default().iterations,
            App::Siesta => SiestaConfig::default().iterations,
        }
    }
}

/// The size knobs of one 4-rank application instance.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Stream / load-variation seed.
    pub seed: u64,
    /// Barrier-separated iterations.
    pub iterations: u32,
    /// Work multiplier (1.0 = paper scale).
    pub scale: f64,
    /// Boundary-exchange payload (BT-MZ and SIESTA); `None` keeps the
    /// paper's.
    pub exchange_bytes: Option<u64>,
}

/// Build the rank programs of a 4-rank instance.
pub fn programs(app: App, s: &Shape) -> Vec<Program> {
    match app {
        App::MetBench => MetBenchConfig {
            iterations: s.iterations,
            scale: s.scale,
            seed: s.seed,
            ..Default::default()
        }
        .programs(),
        App::BtMz => {
            let d = BtMzConfig::default();
            BtMzConfig {
                iterations: s.iterations,
                scale: s.scale,
                seed: s.seed,
                exchange_bytes: s.exchange_bytes.unwrap_or(d.exchange_bytes),
                ..d
            }
            .programs()
        }
        App::Siesta => {
            let d = SiestaConfig::default();
            SiestaConfig {
                iterations: s.iterations,
                scale: s.scale,
                seed: s.seed,
                exchange_bytes: s.exchange_bytes.unwrap_or(d.exchange_bytes),
                ..d
            }
            .programs()
        }
    }
}

/// One generated application instance.
pub struct Instance {
    /// Which application.
    pub app: App,
    /// Its rank programs.
    pub programs: Vec<Program>,
}

impl Instance {
    fn new(app: App, shape: Shape) -> Instance {
        Instance {
            app,
            programs: programs(app, &shape),
        }
    }
}

/// A paper-table row: the case configuration and the program set it
/// runs (4 ranks, or 2 for the ST rows).
pub struct PaperRow {
    /// Which table.
    pub app: App,
    /// The case as printed in the table.
    pub case: Case,
    /// Index into [`SweepInputs::sets`].
    pub set: usize,
}

/// Program sets of the paper rows: each app's 4-rank programs plus the
/// 2-rank ST partitions of BT-MZ and SIESTA, at the paper's own inputs.
const PAPER_SETS: usize = 5;

/// Tables IV–VI at the paper's own inputs (they do not depend on the
/// seed): the five program sets and the 14 rows, in table order.
fn paper_rows() -> (Vec<Vec<Program>>, Vec<PaperRow>) {
    let sets = vec![
        MetBenchConfig::default().programs(),
        BtMzConfig::st_mode().programs(),
        BtMzConfig::default().programs(),
        SiestaConfig::st_mode().programs(),
        SiestaConfig::default().programs(),
    ];
    let mut rows = Vec::new();
    let mut table = |app: App, st: Option<(Case, usize)>, set: usize| {
        if let Some((case, set)) = st {
            rows.push(PaperRow { app, case, set });
        }
        for case in app.cases() {
            rows.push(PaperRow { app, case, set });
        }
    };
    table(App::MetBench, None, 0);
    table(App::BtMz, Some((paper_cases::btmz_st_case(), 1)), 2);
    table(App::Siesta, Some((paper_cases::siesta_st_case(), 3)), 4);
    debug_assert_eq!(sets.len(), PAPER_SETS);
    (sets, rows)
}

/// How big a generated workload is: the measured benchmark, or the
/// `--smoke` variant the unit tests also use (same code paths, at least
/// 108 jobs per workload, less work per job).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The measured benchmark.
    Full,
    /// `--smoke`.
    Smoke,
}

/// Per-workload generator stream: the same `--seed` drives independent
/// streams for the four workloads.
fn stream(seed: u64, salt: u64) -> SplitMix64 {
    SplitMix64::new(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// `count` iteration multipliers spread evenly over 0.75–1.25 (the
/// middle of each of `count` equal strata), each jittered by at most a
/// tenth of its stratum. Every seed then simulates nearly the same mix of
/// run lengths, so the seed changes the inputs but not the workload's
/// cost distribution.
fn stratified(rng: &mut SplitMix64, count: usize) -> Vec<f64> {
    (0..count)
        .map(|k| {
            let jitter = 0.2 * (rng.unit_f64() - 0.5);
            0.75 + 0.5 * (k as f64 + 0.5 + jitter) / count as f64
        })
        .collect()
}

/// Hash of one generated input: its programs, noise and fidelity, as the
/// run-record cache keys them.
fn input_hash(programs: &[Program], noise: &[NoiseSource], cycle: bool) -> u64 {
    let identity = (0..programs.len()).map(CtxAddr::from_cpu).collect();
    let run = StaticRun::new(programs, identity).with_noise(noise.to_vec());
    config_hash_static(&if cycle { run.cycle_accurate() } else { run })
}

/// `plan-sweep` and `cache-replay` inputs: the paper rows, then every
/// seeded instance under every plan of a list. Each is one job.
pub struct SweepInputs {
    /// Program sets: the paper's five, then the seeded instances'.
    pub sets: Vec<Vec<Program>>,
    /// Tables IV–VI rows.
    pub paper: Vec<PaperRow>,
    /// The plans every instance runs under.
    pub plans: Vec<Plan>,
}

impl SweepInputs {
    /// Seeded 4-rank instances of every app at paper scale with scaled
    /// iteration counts, and every `stride`-th plan.
    fn generate(rng: &mut SplitMix64, per_app: usize, stride: usize) -> SweepInputs {
        let (mut sets, paper) = paper_rows();
        for app in App::ALL {
            for m in stratified(rng, per_app) {
                let iterations = ((app.paper_iterations() as f64 * m).round() as u32).max(1);
                let shape = Shape {
                    seed: rng.next_u64(),
                    iterations,
                    scale: 1.0,
                    exchange_bytes: None,
                };
                sets.push(programs(app, &shape));
            }
        }
        SweepInputs {
            sets,
            paper,
            plans: mtb_verify::enumerate_plans(4)
                .into_iter()
                .step_by(stride)
                .collect(),
        }
    }

    /// Seeded instances.
    pub fn instances(&self) -> usize {
        self.sets.len() - PAPER_SETS
    }

    /// Jobs: every paper row, then every (instance, plan) pair.
    pub fn jobs(&self) -> usize {
        self.paper.len() + self.instances() * self.plans.len()
    }

    /// The jobs of instance `i` (a contiguous range).
    pub fn instance_jobs(&self, i: usize) -> std::ops::Range<usize> {
        let start = self.paper.len() + i * self.plans.len();
        start..start + self.plans.len()
    }

    /// The program set (index into `sets`) and case of `job`.
    pub fn job(&self, job: usize) -> (usize, Case) {
        if let Some(row) = self.paper.get(job) {
            return (row.set, row.case.clone());
        }
        let k = job - self.paper.len();
        let n = self.plans.len();
        (PAPER_SETS + k / n, plan_case(&self.plans[k % n]))
    }

    /// Digest of every program set.
    pub fn digest(&self) -> u64 {
        digest(self.sets.iter().map(|p| (p.as_slice(), &[][..], false)))
    }
}

/// A case running `plan` (effective priorities through /proc).
fn plan_case(plan: &Plan) -> Case {
    Case {
        name: "plan",
        placement: plan.placement.clone(),
        priorities: plan
            .priorities
            .iter()
            .map(|&p| PrioritySetting::ProcFs(p))
            .collect(),
    }
}

/// Generate `plan-sweep`'s inputs.
pub fn plan_sweep(seed: u64, size: Size) -> SweepInputs {
    let (per_app, stride) = match size {
        Size::Full => (5, 8),
        Size::Smoke => (1, 16),
    };
    SweepInputs::generate(&mut stream(seed, 1), per_app, stride)
}

/// One `noisy-dynamic` instance: an app under extrinsic noise.
pub struct NoisyInstance {
    /// The application instance.
    pub instance: Instance,
    /// Timer ticks on every context plus the seeded device IRQs.
    pub noise: Vec<NoiseSource>,
}

/// Device-IRQ duty cycles on CPU0, in percent.
const IRQ_DUTIES_PCT: [u64; 3] = [2, 5, 10];

/// Seeded instances per (app, duty).
const NOISY_SEEDS: usize = 6;

/// Work multiplier of the noisy instances: SIESTA's paper run is ten
/// times longer than the others', so it is scaled ten times further down
/// to keep every run near two seconds of simulated time.
fn noisy_scale(app: App, size: Size) -> f64 {
    let full = match app {
        App::MetBench | App::BtMz => 0.02,
        App::Siesta => 0.002,
    };
    if size == Size::Full {
        full
    } else {
        full / 10.0
    }
}

/// Generate `noisy-dynamic`'s inputs.
pub fn noisy_dynamic(seed: u64, size: Size) -> Vec<NoisyInstance> {
    let mut rng = stream(seed, 2);
    let mut out = Vec::new();
    for app in App::ALL {
        for duty_pct in IRQ_DUTIES_PCT {
            for _ in 0..NOISY_SEEDS {
                let shape = Shape {
                    seed: rng.next_u64(),
                    iterations: app.paper_iterations(),
                    scale: noisy_scale(app, size),
                    exchange_bytes: None,
                };
                // The "interrupt annoyance" set-up: a 1 kHz tick on every
                // context plus device interrupts routed to CPU0, with the
                // device phase drawn from the seed.
                let period = 500_000;
                let mut noise =
                    interrupt_annoyance(2, 1_500_000, 7_500, period, period * duty_pct / 100);
                if let Some(dev) = noise.last_mut() {
                    dev.phase = rng.below(period);
                }
                out.push(NoisyInstance {
                    instance: Instance::new(app, shape),
                    noise,
                });
            }
        }
    }
    out
}

/// Cycle-fidelity instance sizes, chosen so one run takes tens of
/// milliseconds on the reference box.
fn cycle_shape(app: App, seed: u64) -> Shape {
    match app {
        App::MetBench => Shape {
            seed,
            iterations: 8,
            scale: 1e-7,
            exchange_bytes: None,
        },
        App::BtMz => Shape {
            seed,
            iterations: 4,
            scale: 2e-7,
            exchange_bytes: Some(1024),
        },
        App::Siesta => Shape {
            seed,
            iterations: 2,
            scale: 1e-8,
            exchange_bytes: Some(1024),
        },
    }
}

/// Generate `cycle-cases`' inputs: seeded cycle-size instances of every
/// app (each is run under the app's cases A–D).
pub fn cycle_cases(seed: u64, size: Size) -> Vec<Instance> {
    const SEEDS: usize = 9;
    let shrink = if size == Size::Full { 1.0 } else { 0.25 };
    let mut rng = stream(seed, 3);
    App::ALL
        .iter()
        .flat_map(|&app| (0..SEEDS).map(move |_| app))
        .map(|app| {
            let mut shape = cycle_shape(app, rng.next_u64());
            shape.scale *= shrink;
            Instance::new(app, shape)
        })
        .collect()
}

/// Generate `cache-replay`'s inputs: the records a cold sweep writes and
/// later replays.
pub fn cache_replay(seed: u64, size: Size) -> SweepInputs {
    let (per_app, stride) = match size {
        Size::Full => (2, 16),
        Size::Smoke => (1, 12),
    };
    SweepInputs::generate(&mut stream(seed, 4), per_app, stride)
}

/// Digest of generated inputs: `(programs, noise, cycle fidelity)` each.
pub fn digest<'a>(
    inputs: impl IntoIterator<Item = (&'a [Program], &'a [NoiseSource], bool)>,
) -> u64 {
    crate::stats::fnv_u64s(
        inputs
            .into_iter()
            .map(|(progs, noise, cycle)| input_hash(progs, noise, cycle)),
    )
}
