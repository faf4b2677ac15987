//! The `mtb bench` performance layer: measures the simulator's fast
//! paths against their reference implementations and emits
//! `BENCH_sim.json`.
//!
//! Two sweep families:
//!
//! * **core sweeps** — [`SmtCore`] with `fast_forward` on vs off (the
//!   per-cycle reference), over the Table-III priority ladder. The two
//!   paths must produce bit-identical [`CtxStats`]; each entry records
//!   whether they did.
//! * **engine sweeps** — the meso paper cases (Tables IV-VI) under
//!   [`Stepping::EventHorizon`] vs [`Stepping::Quantum`] (the historical
//!   stepping). The two runs must produce identical `RunRecord` hashes.
//!
//! Every entry reports wall-clock for both paths, simulated
//! cycles/second, and the speedup; sweep summaries aggregate by total
//! wall-clock ratio and by geometric mean of the per-case speedups.
//! A sweep with *any* drift (non-identical outputs) is a failure — the
//! speedup of a wrong simulation is meaningless. The report records the
//! host's `available_parallelism`; a scaling sweep asking for more worker
//! threads than that is marked `unmeasurable` and quotes no speedup, since
//! its workers would share the host's CPUs.

use crate::json::Json;
use crate::lint::record_hash;
use mtb_core::balance::{execute, StaticRun};
use mtb_core::paper_cases::{
    btmz_cases, btmz_st_case, metbench_cases, siesta_cases, siesta_st_case, Case,
};
use mtb_core::policy::PrioritySetting;
use mtb_mpisim::engine::Stepping;
use mtb_mpisim::interp::{flatten, FlatOp};
use mtb_mpisim::program::Program;
use mtb_oskernel::{CtxAddr, KernelConfig, Machine, MachineState, NoiseSource, Segmentation};
use mtb_pool::{Budget, ShardedRunner};
use mtb_smtsim::chip::{build_cores_grouped, Fidelity};
use mtb_smtsim::inst::StreamSpec;
use mtb_smtsim::model::{CoreModel, ThreadId, Workload};
use mtb_smtsim::stats::CtxStats;
use mtb_smtsim::{CoreConfig, HwPriority, SmtCore};
use mtb_workloads::btmz::{contiguous_partition, BtMzConfig};
use mtb_workloads::siesta::SiestaConfig;
use mtb_workloads::MetBenchConfig;

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Simulated cycles per core-sweep row in the full run.
const CORE_CYCLES: u64 = 2_000_000;
/// Simulated cycles per core-sweep row under `--smoke`.
const CORE_CYCLES_SMOKE: u64 = 150_000;

/// Timed repetitions per path in each measured entry. Both paths run
/// once untimed first (paging code in and settling frequency scaling),
/// then the timed repetitions interleave fast and reference and keep
/// the per-path minimum. Interleaving cancels slow machine-state drift
/// between the two paths; the minimum discards scheduler noise, which
/// at millisecond scale is large enough to invert a ratio near 1.0
/// (single-shot timing read the table5-btmz ST case as 0.9×).
const TIMING_REPS: usize = 3;

/// Simulated cycles per kernel-path case in the full run. Mesoscale
/// cores simulate cycles ~1000x cheaper than the cycle model, so the
/// counts sit far above the core sweeps' to keep the measurement out of
/// the scheduler-noise floor.
const KERNEL_CYCLES: u64 = 20_000_000;
/// Simulated cycles per kernel-path case under `--smoke`.
const KERNEL_CYCLES_SMOKE: u64 = 2_000_000;
/// Epoch size driving `Machine::advance` in the kernel-path sweep — the
/// same 50k-cycle quantum the cycle-fidelity engine steps between
/// events, so the measured segment population matches real runs.
const KERNEL_EPOCH: u64 = 50_000;

/// How a kernel-path row slices its cycles into `Machine::advance`
/// calls.
#[derive(Clone, Copy)]
enum Epochs {
    /// [`KERNEL_EPOCH`]-cycle epochs, each spanning many noise
    /// boundaries (the `kernel-path` sweep).
    Quantum,
    /// Epochs that end at the next noise boundary, the steps the event
    /// engine takes under noise on shared-L2 machines and under
    /// `Segmentation::Reference` (a noisy meso machine on the calendar
    /// walks these edges inside one `Machine::advance_until` call
    /// instead): each epoch crosses at most one boundary, so the row
    /// prices the calendar's per-epoch upkeep (the `kernel-path-engine`
    /// sweep).
    ToNextBoundary,
}

/// Intra-run worker-thread counts the scaling sweeps measure, and the
/// sweep each lands in. The reference is always the same run at 1 thread.
const SCALING_THREADS: [(usize, &str); 3] =
    [(2, "scaling-2t"), (4, "scaling-4t"), (8, "scaling-8t")];

/// The Table-III priority ladder the core sweeps walk: the normal-mode
/// rows plus the special decode modes (background thread `(0,1)`,
/// low-power `(1,1)`, thread stop `(0,0)`).
const PRIORITY_ROWS: [(u8, u8); 6] = [(4, 4), (1, 4), (1, 1), (0, 4), (0, 1), (0, 0)];

/// One measured case: the same simulation through the fast path and the
/// reference path.
#[derive(Debug, Clone)]
pub struct BenchEntry {
    /// Sweep this entry belongs to.
    pub sweep: &'static str,
    /// Case label within the sweep.
    pub case: String,
    /// Simulated cycles covered by one run.
    pub sim_cycles: u64,
    /// Fast-path wall-clock seconds.
    pub wall_fast_s: f64,
    /// Reference-path wall-clock seconds.
    pub wall_ref_s: f64,
    /// Did the two paths produce identical output (bit-identical stats /
    /// equal record hashes)?
    pub identical: bool,
}

impl BenchEntry {
    /// Reference wall-clock over fast wall-clock.
    pub fn speedup(&self) -> f64 {
        self.wall_ref_s / self.wall_fast_s.max(1e-9)
    }

    /// Simulated megacycles per wall-clock second on the fast path.
    pub fn mcycles_per_s_fast(&self) -> f64 {
        self.sim_cycles as f64 / self.wall_fast_s.max(1e-9) / 1e6
    }

    fn to_json(&self, unmeasurable: bool) -> Json {
        let mut fields = vec![
            ("sweep".into(), Json::Str(self.sweep.into())),
            ("case".into(), Json::Str(self.case.clone())),
            ("sim_cycles".into(), Json::UInt(self.sim_cycles)),
            ("wall_fast_s".into(), Json::Float(self.wall_fast_s)),
            ("wall_ref_s".into(), Json::Float(self.wall_ref_s)),
        ];
        if unmeasurable {
            fields.push(("unmeasurable".into(), Json::Bool(true)));
        } else {
            fields.push(("speedup".into(), Json::Float(self.speedup())));
        }
        fields.push((
            "mcycles_per_s_fast".into(),
            Json::Float(self.mcycles_per_s_fast()),
        ));
        fields.push(("identical".into(), Json::Bool(self.identical)));
        Json::Obj(fields)
    }
}

/// Aggregates over one sweep's entries.
#[derive(Debug, Clone)]
pub struct SweepSummary {
    /// Sweep name.
    pub name: &'static str,
    /// Number of cases.
    pub cases: usize,
    /// Sum of fast-path wall-clock.
    pub wall_fast_s: f64,
    /// Sum of reference wall-clock.
    pub wall_ref_s: f64,
    /// Total-wall-clock speedup (sum ref / sum fast).
    pub speedup_total: f64,
    /// Geometric mean of the per-case speedups (the suite-level metric;
    /// insensitive to which case dominates the wall-clock).
    pub speedup_geomean: f64,
    /// True only if every case in the sweep was drift-free.
    pub all_identical: bool,
    /// A scaling sweep whose thread count exceeds the host's
    /// `available_parallelism`: its speedups measure CPU sharing, not
    /// scaling, so the report quotes none.
    pub unmeasurable: bool,
}

impl SweepSummary {
    fn of(name: &'static str, entries: &[BenchEntry], unmeasurable: bool) -> SweepSummary {
        let mine: Vec<&BenchEntry> = entries.iter().filter(|e| e.sweep == name).collect();
        let wall_fast_s: f64 = mine.iter().map(|e| e.wall_fast_s).sum();
        let wall_ref_s: f64 = mine.iter().map(|e| e.wall_ref_s).sum();
        let geomean = if mine.is_empty() {
            1.0
        } else {
            (mine.iter().map(|e| e.speedup().ln()).sum::<f64>() / mine.len() as f64).exp()
        };
        SweepSummary {
            name,
            cases: mine.len(),
            wall_fast_s,
            wall_ref_s,
            speedup_total: wall_ref_s / wall_fast_s.max(1e-9),
            speedup_geomean: geomean,
            all_identical: mine.iter().all(|e| e.identical),
            unmeasurable,
        }
    }

    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("name".into(), Json::Str(self.name.into())),
            ("cases".into(), Json::UInt(self.cases as u64)),
            ("wall_fast_s".into(), Json::Float(self.wall_fast_s)),
            ("wall_ref_s".into(), Json::Float(self.wall_ref_s)),
        ];
        if !self.unmeasurable {
            fields.push(("speedup_total".into(), Json::Float(self.speedup_total)));
            fields.push(("speedup_geomean".into(), Json::Float(self.speedup_geomean)));
        }
        fields.push(("all_identical".into(), Json::Bool(self.all_identical)));
        fields.push(("unmeasurable".into(), Json::Bool(self.unmeasurable)));
        Json::Obj(fields)
    }
}

/// The full benchmark report.
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// Smoke mode (reduced cycle counts)?
    pub smoke: bool,
    /// `std::thread::available_parallelism` of the host that ran it.
    pub available_parallelism: usize,
    /// Every measured case.
    pub entries: Vec<BenchEntry>,
}

impl BenchReport {
    /// Per-sweep aggregates, in first-seen order.
    pub fn sweeps(&self) -> Vec<SweepSummary> {
        let mut names: Vec<&'static str> = Vec::new();
        for e in &self.entries {
            if !names.contains(&e.sweep) {
                names.push(e.sweep);
            }
        }
        names
            .into_iter()
            .map(|n| SweepSummary::of(n, &self.entries, self.unmeasurable(n)))
            .collect()
    }

    /// Does `sweep` run at more worker threads than the host has?
    fn unmeasurable(&self, sweep: &str) -> bool {
        SCALING_THREADS
            .iter()
            .any(|&(threads, name)| name == sweep && threads > self.available_parallelism)
    }

    /// True only if every case in every sweep was drift-free.
    pub fn all_identical(&self) -> bool {
        self.entries.iter().all(|e| e.identical)
    }

    /// The `BENCH_sim.json` document.
    pub fn to_json(&self) -> String {
        Json::Obj(vec![
            ("schema".into(), Json::UInt(crate::harness::SCHEMA_VERSION)),
            ("kind".into(), Json::Str("mtb-bench".into())),
            ("smoke".into(), Json::Bool(self.smoke)),
            (
                "available_parallelism".into(),
                Json::UInt(self.available_parallelism as u64),
            ),
            ("all_identical".into(), Json::Bool(self.all_identical())),
            (
                "sweeps".into(),
                Json::Arr(self.sweeps().iter().map(SweepSummary::to_json).collect()),
            ),
            (
                "entries".into(),
                Json::Arr(
                    self.entries
                        .iter()
                        .map(|e| e.to_json(self.unmeasurable(e.sweep)))
                        .collect(),
                ),
            ),
        ])
        .render()
    }

    /// Human-readable summary table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:22} {:>6} {:>11} {:>11} {:>9} {:>9}  drift\n",
            "sweep", "cases", "ref wall", "fast wall", "total", "geomean"
        ));
        for s in self.sweeps() {
            let speedups = if s.unmeasurable {
                format!("{:>19}", "unmeasurable")
            } else {
                format!("{:>8.1}x {:>8.1}x", s.speedup_total, s.speedup_geomean)
            };
            out.push_str(&format!(
                "{:22} {:>6} {:>9.2}ms {:>9.2}ms {speedups}  {}\n",
                s.name,
                s.cases,
                s.wall_ref_s * 1e3,
                s.wall_fast_s * 1e3,
                if s.all_identical { "none" } else { "DRIFT" }
            ));
        }
        if self.sweeps().iter().any(|s| s.unmeasurable) {
            out.push_str(&format!(
                "unmeasurable: more worker threads than this host's available_parallelism ({})\n",
                self.available_parallelism
            ));
        }
        out
    }

    /// Write the report to `path` (atomically: tmp + rename).
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
        std::fs::write(&tmp, self.to_json())?;
        std::fs::rename(&tmp, path)
    }
}

fn core_workload(spec: StreamSpec, name: &str) -> Workload {
    Workload::from_spec(name, spec)
}

/// Run one core configuration through both paths and time them
/// (warmup + interleaved min-of-[`TIMING_REPS`]; the warmup runs a
/// tenth of the measured length — enough to fault in both paths'
/// working sets without doubling sweep cost).
fn core_entry(
    sweep: &'static str,
    specs: [Option<StreamSpec>; 2],
    (pa, pb): (u8, u8),
    cycles: u64,
) -> BenchEntry {
    let run = |fast: bool, n: u64| -> (f64, CtxStats, CtxStats, [u64; 2]) {
        let cfg = CoreConfig {
            fast_forward: fast,
            ..CoreConfig::default()
        };
        let mut core = SmtCore::new(cfg);
        if let Some(s) = specs[0] {
            core.assign(ThreadId::A, core_workload(s, "a"));
        }
        if let Some(s) = specs[1] {
            core.assign(ThreadId::B, core_workload(s, "b"));
        }
        core.set_priority(ThreadId::A, HwPriority::new(pa).expect("valid priority"));
        core.set_priority(ThreadId::B, HwPriority::new(pb).expect("valid priority"));
        let t0 = Instant::now();
        let retired = core.advance(n);
        let wall = t0.elapsed().as_secs_f64();
        (
            wall,
            *core.stats(ThreadId::A),
            *core.stats(ThreadId::B),
            retired,
        )
    };
    run(true, cycles / 10 + 1);
    run(false, cycles / 10 + 1);
    let (mut wall_fast, fa, fb, fr) = run(true, cycles);
    let (mut wall_ref, ra, rb, rr) = run(false, cycles);
    for _ in 1..TIMING_REPS {
        wall_fast = wall_fast.min(run(true, cycles).0);
        wall_ref = wall_ref.min(run(false, cycles).0);
    }
    BenchEntry {
        sweep,
        case: format!("({pa},{pb})"),
        sim_cycles: cycles,
        wall_fast_s: wall_fast,
        wall_ref_s: wall_ref,
        identical: fa == ra && fb == rb && fr == rr,
    }
}

/// Run one meso paper case through both stepping modes and time them
/// (warmup + interleaved min-of-[`TIMING_REPS`]; these cases are
/// millisecond-scale, so a full-length warmup is cheap and the noise
/// floor matters most here).
fn engine_entry(sweep: &'static str, programs: &[Program], case: &Case) -> BenchEntry {
    let run = |stepping: Stepping| {
        let t0 = Instant::now();
        let result = execute(
            StaticRun::new(programs, case.placement.clone())
                .with_priorities(case.priorities.clone())
                .with_stepping(stepping),
        )
        .unwrap_or_else(|e| panic!("bench case {} failed: {e}", case.name));
        let wall = t0.elapsed().as_secs_f64();
        let hash = record_hash(case, &result);
        (wall, hash, result.total_cycles)
    };
    run(Stepping::EventHorizon);
    run(Stepping::Quantum);
    let (mut wall_fast, hash_fast, cycles) = run(Stepping::EventHorizon);
    let (mut wall_ref, hash_ref, _) = run(Stepping::Quantum);
    for _ in 1..TIMING_REPS {
        wall_fast = wall_fast.min(run(Stepping::EventHorizon).0);
        wall_ref = wall_ref.min(run(Stepping::Quantum).0);
    }
    BenchEntry {
        sweep,
        case: case.name.to_string(),
        sim_cycles: cycles,
        wall_fast_s: wall_fast,
        wall_ref_s: wall_ref,
        identical: hash_fast == hash_ref,
    }
}

/// Run one cycle-fidelity paper case at every [`SCALING_THREADS`] worker
/// count against its 1-thread reference. `wall_ref_s` is always the
/// 1-thread wall-clock; `identical` compares the full record hash — the
/// sharding contract says intra-run parallelism must be invisible in the
/// output, so any drift here is a bug, not noise.
///
/// Timing follows the same discipline as [`core_entry`]: one untimed
/// warmup at 1 thread (faults in the engine and spins up the worker
/// pool), then [`TIMING_REPS`] interleaved repetitions keeping the
/// per-thread-count minimum. The shared 1-thread reference is re-timed
/// in the same interleave so machine-state drift cancels across all
/// four rows instead of only favouring whichever ran last.
fn scaling_case(
    label: &str,
    programs: &[Program],
    case: &Case,
    (nodes, cores_per_node): (usize, usize),
    entries: &mut Vec<BenchEntry>,
) {
    let run = |threads: usize| {
        let t0 = Instant::now();
        let result = execute(
            StaticRun::new(programs, case.placement.clone())
                .with_priorities(case.priorities.clone())
                .cycle_accurate()
                .on_cluster(nodes, cores_per_node)
                .with_threads(threads),
        )
        .unwrap_or_else(|e| panic!("scaling case {label} failed: {e}"));
        let wall = t0.elapsed().as_secs_f64();
        (wall, record_hash(case, &result), result.total_cycles)
    };
    run(1);
    let (mut wall_1, hash_1, cycles) = run(1);
    // (min wall so far, hash identical to the 1-thread reference).
    let mut timed: Vec<(f64, bool)> = SCALING_THREADS
        .iter()
        .map(|&(threads, _)| {
            let (wall_t, hash_t, _) = run(threads);
            (wall_t, hash_t == hash_1)
        })
        .collect();
    for _ in 1..TIMING_REPS {
        wall_1 = wall_1.min(run(1).0);
        for (row, &(threads, _)) in timed.iter_mut().zip(&SCALING_THREADS) {
            row.0 = row.0.min(run(threads).0);
        }
    }
    for (&(wall_t, identical), &(_, sweep)) in timed.iter().zip(&SCALING_THREADS) {
        entries.push(BenchEntry {
            sweep,
            case: label.to_string(),
            sim_cycles: cycles,
            wall_fast_s: wall_t,
            wall_ref_s: wall_1,
            identical,
        });
    }
}

/// One rank per physical core: rank `r` on the A context of core `r`.
fn one_rank_per_core(ranks: usize) -> Vec<CtxAddr> {
    (0..ranks).map(|r| CtxAddr::from_cpu(2 * r)).collect()
}

/// The intra-run scaling sweeps: the three paper workloads pinned
/// one-rank-per-core on a small cluster so every core is an independent
/// shard, run cycle-accurately at 1/2/4/8 worker threads. Worker threads
/// are drawn from the global permit budget, so the budget total is
/// temporarily raised to the largest requested count (and restored
/// after) — otherwise a `--jobs 1` invocation would measure 1-thread
/// runs four times over.
fn scaling_sweeps(smoke: bool, entries: &mut Vec<BenchEntry>) {
    let budget = mtb_pool::global_budget();
    let prev_total = budget.total();
    let max_threads = SCALING_THREADS.iter().map(|&(t, _)| t).max().unwrap_or(1);
    budget.set_total(prev_total.max(max_threads));

    // Work scales calibrated per workload so the heaviest rank executes
    // ~1M instructions under --smoke (~5M in the full run): enough for
    // the one-dispatch-per-epoch cost to amortize, small enough for CI.
    let boost = if smoke { 1.0 } else { 5.0 };

    let mb = MetBenchConfig {
        iterations: 10,
        scale: 3e-6 * boost,
        ..MetBenchConfig::default()
    };
    let mb_case = Case {
        name: "scaling-metbench",
        placement: one_rank_per_core(4),
        priorities: vec![PrioritySetting::ProcFs(4); 4],
    };
    scaling_case("metbench-4c", &mb.programs(), &mb_case, (4, 1), entries);

    let bt = BtMzConfig {
        ranks: 8,
        iterations: 10,
        scale: 6e-6 * boost,
        // Shrink the boundary exchanges to match the shrunken compute:
        // at paper-size payloads the run is network-bound and measures
        // the (serial) coordinator, not the sharded cores.
        exchange_bytes: 8 << 10,
        ..BtMzConfig::default()
    }
    .with_partition(contiguous_partition(8));
    let bt_case = Case {
        name: "scaling-btmz",
        placement: one_rank_per_core(8),
        priorities: vec![PrioritySetting::ProcFs(4); 8],
    };
    scaling_case("btmz-8c", &bt.programs(), &bt_case, (4, 2), entries);

    let si = SiestaConfig {
        iterations: 6,
        scale: 6e-7 * boost,
        exchange_bytes: 8 << 10,
        ..SiestaConfig::default()
    };
    let si_case = Case {
        name: "scaling-siesta",
        placement: one_rank_per_core(4),
        priorities: vec![PrioritySetting::ProcFs(4); 4],
    };
    scaling_case("siesta-4c", &si.programs(), &si_case, (4, 1), entries);

    budget.set_total(prev_total);
}

/// First computed workload of each rank's program: the instruction mix
/// the paper case actually retires, minus the message-passing layer —
/// the kernel-path sweep measures [`Machine::advance`], not the engine.
fn rank_workloads(programs: &[Program]) -> Vec<Workload> {
    programs
        .iter()
        .enumerate()
        .map(|(rank, p)| {
            flatten(p, rank)
                .into_iter()
                .find_map(|op| match op {
                    FlatOp::Compute(w) => Some(w.workload),
                    _ => None,
                })
                .expect("every paper rank computes")
        })
        .collect()
}

/// The Section II-B noise population, at stress density: a staggered
/// tick plus a small kernel-thread forest on *every* context (the
/// source count is what the reference's per-segment `O(contexts x
/// sources)` handler re-sync pays for), a stack of heavily-overlapping
/// device-interrupt windows all routed to CPU0 (the interrupt-annoyance
/// problem: dense boundaries, almost all of which flip no handler state
/// because another window is already open), and one transient one-shot
/// window. The reference walk cuts every core of the shard at every one
/// of these boundaries; the calendar visits each boundary once on the
/// core that owns it and fuses the no-flip ones.
fn kernel_noise(n_cores: usize) -> Vec<NoiseSource> {
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
        let kthreads: [(u64, u64); 7] = [
            (23_000, 260),
            (43_000, 430),
            (61_000, 580),
            (79_000, 710),
            (101_000, 940),
            (127_000, 1_150),
            (157_000, 1_400),
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
    let irqs: [(u64, u64, u64); 6] = [
        (1_100, 440, 0),
        (1_300, 520, 150),
        (1_700, 680, 450),
        (1_900, 760, 800),
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
    v.push(NoiseSource::once(
        "pagein",
        CtxAddr::from_cpu(0),
        137_000,
        12_000,
    ));
    v
}

/// Run one paper case's compute mix through [`Machine::advance`] under
/// both segmentations and time them (warmup + interleaved
/// min-of-[`TIMING_REPS`]). One rank per core on single-core L2
/// domains: per-core boundary fusion is exact there, which is where the
/// calendar's win lives (a shared L2's access interleaving is
/// observable through its LRU stamps, so multi-core domains keep
/// reference cut parity and win less). `identical` is full
/// [`MachineState`] equality, and additionally requires an untimed
/// 4-worker sharded calendar run to land in the same state
/// (MTB_JOBS-independence of the fast path).
fn kernel_path_entry(label: &str, programs: &[Program], cycles: u64, epochs: Epochs) -> BenchEntry {
    let n = programs.len();
    let workloads = rank_workloads(programs);
    let build = || {
        let mut m = Machine::new(
            build_cores_grouped(n, &Fidelity::Meso(Default::default()), 1),
            KernelConfig::patched(),
        );
        for (r, w) in workloads.iter().enumerate() {
            m.spawn(r, format!("rank{r}"), CtxAddr::from_cpu(2 * r))
                .expect("spawn rank");
            m.run_workload(r, w.clone()).expect("assign workload");
            m.set_priority_procfs(r, 4).expect("set priority");
        }
        for s in kernel_noise(n) {
            m.add_noise(s);
        }
        m
    };
    let drive = |m: &mut Machine, n_cycles: u64| {
        let end = m.now() + n_cycles;
        while m.now() < end {
            let now = m.now();
            let stop = match epochs {
                Epochs::Quantum => now + KERNEL_EPOCH,
                Epochs::ToNextBoundary => m.next_boundary(now).unwrap_or(end),
            };
            m.advance(stop.min(end) - now);
        }
    };
    let run = |seg: Segmentation, n_cycles: u64| -> (f64, MachineState) {
        let mut m = build();
        m.set_segmentation(seg);
        let t0 = Instant::now();
        drive(&mut m, n_cycles);
        let wall = t0.elapsed().as_secs_f64();
        (wall, m.save_state())
    };
    run(Segmentation::Calendar, cycles / 10 + 1);
    run(Segmentation::Reference, cycles / 10 + 1);
    let (mut wall_fast, state_fast) = run(Segmentation::Calendar, cycles);
    let (mut wall_ref, state_ref) = run(Segmentation::Reference, cycles);
    for _ in 1..TIMING_REPS {
        wall_fast = wall_fast.min(run(Segmentation::Calendar, cycles).0);
        wall_ref = wall_ref.min(run(Segmentation::Reference, cycles).0);
    }
    let state_sharded = {
        let mut m = build();
        m.set_segmentation(Segmentation::Calendar);
        m.set_runner(Some(ShardedRunner::with_budget(
            4,
            Arc::new(Budget::new(16)),
        )));
        drive(&mut m, cycles);
        m.save_state()
    };
    BenchEntry {
        sweep: match epochs {
            Epochs::Quantum => "kernel-path",
            Epochs::ToNextBoundary => "kernel-path-engine",
        },
        case: label.to_string(),
        sim_cycles: cycles,
        wall_fast_s: wall_fast,
        wall_ref_s: wall_ref,
        identical: state_fast == state_ref && state_sharded == state_ref,
    }
}

/// The kernel-path sweeps: [`Machine::advance`] throughput, calendar vs
/// reference segmentation, on the three scaling cases' compute mixes
/// under dense Section II-B noise, once in 50k-cycle epochs
/// (`kernel-path`) and once in epochs that stop at every noise boundary,
/// as engine steps do on shared-L2 machines and under the reference
/// segmentation (`kernel-path-engine`). Timed single-threaded — the
/// scaling sweeps already price parallelism; the sharded path is
/// cross-checked for identity but not timed.
fn kernel_path_sweeps(smoke: bool, entries: &mut Vec<BenchEntry>) {
    let cycles = if smoke {
        KERNEL_CYCLES_SMOKE
    } else {
        KERNEL_CYCLES
    };
    let mb = MetBenchConfig::default().programs();
    let bt = BtMzConfig {
        ranks: 8,
        ..BtMzConfig::default()
    }
    .with_partition(contiguous_partition(8))
    .programs();
    let si = SiestaConfig::default().programs();
    for epochs in [Epochs::Quantum, Epochs::ToNextBoundary] {
        entries.push(kernel_path_entry("metbench-4c", &mb, cycles, epochs));
        entries.push(kernel_path_entry("btmz-8c", &bt, cycles, epochs));
        entries.push(kernel_path_entry("siesta-4c", &si, cycles, epochs));
    }
}

fn core_sweep(
    sweep: &'static str,
    spec_of: impl Fn(u64) -> StreamSpec,
    cycles: u64,
    entries: &mut Vec<BenchEntry>,
) {
    for &(pa, pb) in &PRIORITY_ROWS {
        entries.push(core_entry(
            sweep,
            [Some(spec_of(1)), Some(spec_of(2))],
            (pa, pb),
            cycles,
        ));
    }
}

/// Execute the full benchmark suite.
///
/// `smoke` shrinks the core sweeps to CI-friendly cycle counts; the
/// engine sweeps run the real paper cases either way (they are
/// millisecond-scale under both steppings).
pub fn run(smoke: bool) -> BenchReport {
    let cycles = if smoke {
        CORE_CYCLES_SMOKE
    } else {
        CORE_CYCLES
    };
    let mut entries = Vec::new();

    // Core sweeps: the Table-III priority ladder over three workload
    // regimes. Latency-bound (serialized misses) is where cycle-skipping
    // pays; streaming-memory is the middle ground; frontend-bound decodes
    // every cycle, so it bounds the fast path's overhead instead.
    core_sweep(
        "table3-latency",
        StreamSpec::pointer_chase,
        cycles,
        &mut entries,
    );
    core_sweep("table3-mem", StreamSpec::mem_bound, cycles, &mut entries);
    core_sweep(
        "table3-frontend",
        StreamSpec::frontend_bound,
        cycles,
        &mut entries,
    );

    // Engine sweeps: every meso paper case, event-horizon vs quantum.
    let mb = MetBenchConfig::default();
    for case in metbench_cases() {
        entries.push(engine_entry("table4-metbench", &mb.programs(), &case));
    }
    let bt = BtMzConfig::default();
    let bt_st = BtMzConfig::st_mode();
    entries.push(engine_entry(
        "table5-btmz",
        &bt_st.programs(),
        &btmz_st_case(),
    ));
    for case in btmz_cases() {
        entries.push(engine_entry("table5-btmz", &bt.programs(), &case));
    }
    let si = SiestaConfig::default();
    let si_st = SiestaConfig::st_mode();
    entries.push(engine_entry(
        "table6-siesta",
        &si_st.programs(),
        &siesta_st_case(),
    ));
    for case in siesta_cases() {
        entries.push(engine_entry("table6-siesta", &si.programs(), &case));
    }

    // Scaling sweeps: sharded stepping at 2/4/8 intra-run worker threads
    // vs the 1-thread reference, bit-identical records required.
    scaling_sweeps(smoke, &mut entries);

    // Kernel-path sweep: calendar vs reference segmentation on the same
    // three cases' compute mixes under dense noise, full-state identity.
    kernel_path_sweeps(smoke, &mut entries);

    BenchReport {
        smoke,
        available_parallelism: std::thread::available_parallelism().map_or(1, |n| n.get()),
        entries,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn core_entries_are_drift_free_and_positive() {
        let e = core_entry(
            "t",
            [Some(StreamSpec::pointer_chase(1)), None],
            (4, 0),
            20_000,
        );
        assert!(e.identical, "fast path drifted from reference");
        assert!(e.wall_fast_s > 0.0 && e.wall_ref_s > 0.0);
        assert_eq!(e.sim_cycles, 20_000);
    }

    #[test]
    fn engine_entries_hash_identical_on_a_paper_case() {
        let cfg = MetBenchConfig::tiny();
        let case = &metbench_cases()[0];
        let e = engine_entry("t", &cfg.programs(), case);
        assert!(e.identical, "stepping modes disagree on {}", case.name);
        assert!(e.sim_cycles > 0);
    }

    #[test]
    fn scaling_case_is_identical_at_every_thread_count() {
        let cfg = MetBenchConfig {
            iterations: 3,
            scale: 1e-6,
            ..MetBenchConfig::default()
        };
        let case = Case {
            name: "scaling-test",
            placement: one_rank_per_core(4),
            priorities: vec![PrioritySetting::ProcFs(4); 4],
        };
        let mut entries = Vec::new();
        scaling_case("metbench-4c", &cfg.programs(), &case, (4, 1), &mut entries);
        assert_eq!(entries.len(), SCALING_THREADS.len());
        for e in &entries {
            assert!(
                e.identical,
                "{}: record hash drifted at {}",
                e.case, e.sweep
            );
            assert!(e.sim_cycles > 0);
            assert!(e.wall_fast_s > 0.0 && e.wall_ref_s > 0.0);
        }
    }

    #[test]
    fn kernel_path_entry_is_state_identical() {
        let cfg = MetBenchConfig::tiny();
        for epochs in [Epochs::Quantum, Epochs::ToNextBoundary] {
            let e = kernel_path_entry("metbench-tiny", &cfg.programs(), 60_000, epochs);
            assert!(
                e.identical,
                "calendar segmentation drifted from the reference walk ({})",
                e.sweep
            );
            assert_eq!(e.sim_cycles, 60_000);
            assert!(e.wall_fast_s > 0.0 && e.wall_ref_s > 0.0);
        }
    }

    #[test]
    fn report_aggregates_and_serializes() {
        let report = BenchReport {
            smoke: true,
            available_parallelism: 1,
            entries: vec![
                BenchEntry {
                    sweep: "s",
                    case: "x".into(),
                    sim_cycles: 100,
                    wall_fast_s: 0.001,
                    wall_ref_s: 0.010,
                    identical: true,
                },
                BenchEntry {
                    sweep: "s",
                    case: "y".into(),
                    sim_cycles: 100,
                    wall_fast_s: 0.002,
                    wall_ref_s: 0.002,
                    identical: true,
                },
            ],
        };
        let sweeps = report.sweeps();
        assert_eq!(sweeps.len(), 1);
        let s = &sweeps[0];
        assert_eq!(s.cases, 2);
        assert!((s.speedup_total - 4.0).abs() < 1e-9);
        assert!((s.speedup_geomean - (10.0f64).sqrt()).abs() < 1e-9);
        assert!(s.all_identical);
        let doc = crate::json::Json::parse(&report.to_json()).expect("valid json");
        assert_eq!(doc.get("kind").and_then(|j| j.as_str()), Some("mtb-bench"));
        assert_eq!(
            doc.get("sweeps").and_then(|j| j.as_arr()).map(|a| a.len()),
            Some(1)
        );
    }

    /// A scaling sweep asking for more threads than the host has is
    /// marked unmeasurable and quotes no speedup, in its summary and its
    /// entries; one within the host's parallelism quotes both as before.
    #[test]
    fn oversubscribed_scaling_rows_are_unmeasurable() {
        let entry = |sweep: &'static str| BenchEntry {
            sweep,
            case: "c".into(),
            sim_cycles: 100,
            wall_fast_s: 0.001,
            wall_ref_s: 0.002,
            identical: true,
        };
        let report = BenchReport {
            smoke: true,
            available_parallelism: 2,
            entries: vec![
                entry("scaling-2t"),
                entry("scaling-4t"),
                entry("kernel-path"),
            ],
        };
        let unmeasurable: Vec<bool> = report.sweeps().iter().map(|s| s.unmeasurable).collect();
        assert_eq!(unmeasurable, [false, true, false]);
        let doc = crate::json::Json::parse(&report.to_json()).expect("valid json");
        assert_eq!(
            doc.get("available_parallelism").and_then(|j| j.as_u64()),
            Some(2)
        );
        let sweeps = doc.get("sweeps").and_then(|j| j.as_arr()).expect("sweeps");
        let entries = doc
            .get("entries")
            .and_then(|j| j.as_arr())
            .expect("entries");
        for (row, marked) in [(0, false), (1, true), (2, false)] {
            let (s, e) = (&sweeps[row], &entries[row]);
            assert!(matches!(
                s.get("unmeasurable"),
                Some(&crate::json::Json::Bool(b)) if b == marked
            ));
            assert_eq!(s.get("speedup_total").is_none(), marked);
            assert_eq!(s.get("speedup_geomean").is_none(), marked);
            assert_eq!(e.get("speedup").is_none(), marked);
        }
        let text = report.render();
        assert!(text.contains("unmeasurable"), "{text}");
        assert!(text.contains("available_parallelism (2)"), "{text}");
    }

    // The proptest differential: fast vs reference stepping must agree
    // (identical record hashes) over random priority pairs and
    // placements of the tiny paper workload.
    proptest::proptest! {
        #[test]
        fn prop_stepping_hash_identical(
            pa in 1u8..=6, pb in 1u8..=6, pc in 1u8..=6, pd in 1u8..=6,
            flip in 0u8..2,
        ) {
            use mtb_core::policy::PrioritySetting;
            use mtb_oskernel::CtxAddr;
            let cfg = MetBenchConfig::tiny();
            let programs = cfg.programs();
            // Two placements: ranks packed in cpu order, or core-paired
            // the other way around.
            let placement: Vec<CtxAddr> = if flip == 0 {
                (0..4).map(CtxAddr::from_cpu).collect()
            } else {
                [2, 3, 0, 1].iter().map(|&c| CtxAddr::from_cpu(c)).collect()
            };
            let case = Case {
                name: "prop",
                placement,
                priorities: [pa, pb, pc, pd]
                    .iter()
                    .map(|&p| PrioritySetting::ProcFs(p))
                    .collect(),
            };
            let e = engine_entry("prop", &programs, &case);
            proptest::prop_assert!(e.identical, "stepping drift at {:?}", case.priorities);
        }
    }
}
