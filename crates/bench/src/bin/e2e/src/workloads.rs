//! The four workloads: set-up, one run (plain or traced) and the accuracy
//! figures each one guards.

use crate::inputs::{self, Instance, NoisyInstance, PaperRow, Size, SweepInputs};
use crate::trace::{instrument, CoreTimers, TimedObserver, Tracer};
use mtb_bench::harness::{config_hash, ControllerStats, RunRecord, SweepOptions, SweepRunner};
use mtb_bench::suggest::spearman;
use mtb_core::balance::{execute, execute_with, prepare, StaticRun};
use mtb_core::paper_cases::Case;
use mtb_core::{ControllerConfig, TwoLevelController};
use mtb_mpisim::{NullObserver, Observer, Program, RunResult};
use mtb_verify::{infer_profiles, predict, RankProfile};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Static plan search at design-space scale (meso, no noise).
    PlanSweep,
    /// Identity vs the two-level controller under OS noise.
    NoisyDynamic,
    /// The paper cases on the cycle-level core.
    CycleCases,
    /// Warm run-record cache hits.
    CacheReplay,
}

impl Kind {
    /// Every workload, in the order a full pass runs them.
    pub const ALL: [Kind; 4] = [
        Kind::PlanSweep,
        Kind::NoisyDynamic,
        Kind::CycleCases,
        Kind::CacheReplay,
    ];

    /// The workload's name on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Kind::PlanSweep => "plan-sweep",
            Kind::NoisyDynamic => "noisy-dynamic",
            Kind::CycleCases => "cycle-cases",
            Kind::CacheReplay => "cache-replay",
        }
    }

    /// Why the workload is in the benchmark.
    pub fn why(self) -> &'static str {
        let (_, why) = crate::spec::WORKLOADS
            .iter()
            .find(|(name, _)| *name == self.name())
            .expect("every workload is in the table");
        why
    }

    /// Parse a workload name.
    pub fn parse(name: &str) -> Result<Kind, String> {
        Kind::ALL
            .into_iter()
            .find(|k| k.name() == name)
            .ok_or_else(|| {
                let names: Vec<_> = Kind::ALL.iter().map(|k| k.name()).collect();
                format!(
                    "unknown workload {name:?} (expected one of {})",
                    names.join(", ")
                )
            })
    }
}

/// Untimed warm-up runs at the end of each set-up.
const WARMUP_RUNS: usize = 8;

/// How a run makes its layer calls: straight, or wrapped in spans.
pub enum Exec<'t> {
    /// The timed loop: public calls only, nothing in between.
    Plain,
    /// The traced pass: spans around every layer call.
    Traced(&'t mut Tracer),
}

impl Exec<'_> {
    /// Call `f`, inside span `name` when tracing.
    fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        match self {
            Exec::Plain => f(),
            Exec::Traced(tr) => {
                let span = tr.open(name);
                let r = f();
                tr.close(span);
                r
            }
        }
    }

    /// Add to a trace counter (no-op when untraced).
    fn count(&mut self, name: &'static str, v: f64) {
        if let Exec::Traced(tr) = self {
            tr.count(name, v);
        }
    }

    /// `balance::execute`, or `execute_with` when there is an observer;
    /// traced, the same calls with spans, timed cores and a timed
    /// observer ([`traced_execute`]).
    fn execute(
        &mut self,
        run: StaticRun<'_>,
        observer: Option<&mut dyn Observer>,
    ) -> Result<RunResult, String> {
        match (self, observer) {
            (Exec::Plain, None) => execute(run).map_err(|e| e.to_string()),
            (Exec::Plain, Some(obs)) => execute_with(run, obs).map_err(|e| e.to_string()),
            (Exec::Traced(tr), obs) => traced_execute(run, obs, tr),
        }
    }
}

/// `prepare` + `step_events` + `into_result` — the calls
/// `balance::execute` makes — with a span around each, the machine's cores
/// swapped for timed ones, and the observer's epochs timed.
fn traced_execute(
    run: StaticRun<'_>,
    observer: Option<&mut dyn Observer>,
    tr: &mut Tracer,
) -> Result<RunResult, String> {
    let span = tr.open("core.prepare");
    let prepared = prepare(&run);
    tr.close(span);
    let mut engine = prepared.map_err(|e| e.to_string())?;
    let timers = Arc::new(CoreTimers::default());
    instrument(&mut engine, &run, &timers)?;

    let observed = observer.is_some();
    let mut null = NullObserver;
    let mut obs = TimedObserver::new(observer.unwrap_or(&mut null), Arc::clone(&timers));
    let span = tr.open("mpisim.step");
    let stepped = engine.step_events(&mut obs, u64::MAX);
    tr.close(span);
    let (advance_calls, advance_ns, rate_calls, rate_ns) = timers.read();
    tr.leaf(span, "smtsim.advance", advance_calls, advance_ns);
    tr.leaf(span, "smtsim.rate", rate_calls, rate_ns);
    if observed {
        tr.leaf(span, "core.controller", obs.calls, obs.self_ns);
    }
    if !stepped.map_err(|e| e.to_string())? {
        return Err("engine stopped before every rank finished".into());
    }
    tr.count("mpisim.events", engine.events() as f64);

    let span = tr.open("trace.result");
    let result = engine.into_result();
    tr.close(span);

    let sum = |v: &[u64]| v.iter().sum::<u64>() as f64;
    tr.count("oskernel.stolen_cycles", sum(&result.interrupt_cycles));
    tr.count("smtsim.retired", sum(&result.retired));
    tr.count("smtsim.busy", sum(&result.busy_cycles));
    tr.count("smtsim.spin", sum(&result.spin_cycles));
    tr.count(
        "smtsim.core_cycles",
        (result.total_cycles * run.cores as u64) as f64,
    );
    Ok(result)
}

/// A run's output: the case label its record hash is taken under, the
/// simulated (or replayed) result and, for plan runs, the static model's
/// prediction.
pub struct Done {
    /// Label under which the record hash is computed.
    pub case: Case,
    /// The simulated (or replayed) result.
    pub result: RunResult,
    /// `mtb_verify::predict`'s makespan, when the run made one.
    pub predicted: Option<f64>,
}

impl Done {
    fn new(case: Case, result: RunResult) -> Done {
        Done {
            case,
            result,
            predicted: None,
        }
    }

    /// Hash and summarise the run (after its timer stopped).
    pub fn outcome(&self) -> Outcome {
        Outcome {
            hash: mtb_bench::lint::record_hash(&self.case, &self.result),
            sim_cycles: self.result.total_cycles,
            predicted: self.predicted.unwrap_or(f64::NAN),
        }
    }
}

/// What the benchmark keeps of a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Outcome {
    /// `lint::record_hash` of the result.
    pub hash: u64,
    /// Simulated makespan.
    pub sim_cycles: u64,
    /// Predicted makespan (NaN when the run made no prediction).
    pub predicted: f64,
}

/// One accuracy figure and the guard it must pass.
#[derive(Debug, Clone)]
pub struct Guard {
    /// Figure name (`paper_err_pp`, ...).
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
    /// The rule, for the report (`<= 5.25`).
    pub rule: String,
    /// Did the value pass the rule?
    pub ok: bool,
}

fn at_most(name: &'static str, unit: &'static str, value: f64, max: f64) -> Guard {
    Guard {
        name,
        unit,
        value,
        rule: format!("<= {max}"),
        ok: value <= max,
    }
}

fn at_least(name: &'static str, unit: &'static str, value: f64, min: f64) -> Guard {
    Guard {
        name,
        unit,
        value,
        rule: format!(">= {min}"),
        ok: value >= min,
    }
}

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len() as f64
}

/// A set-up workload, ready to run any of its jobs.
pub trait Bench {
    /// Distinct jobs (inputs × configurations).
    fn jobs(&self) -> usize;
    /// Run `job` through the public entry points.
    fn run(&self, job: usize, exec: &mut Exec<'_>) -> Result<Done, String>;
    /// The hash every run of `job` must reproduce, when set-up fixed one.
    fn expected(&self, _job: usize) -> Option<u64> {
        None
    }
    /// Accuracy figures from the first outcome of every job.
    fn accuracy(&self, outcomes: &[Outcome]) -> Vec<Guard>;
    /// Digest of the generated inputs.
    fn inputs_digest(&self) -> u64;
}

/// Time the set-up spent in its parts, for the per-layer split.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupSplit {
    /// Generating the programs and noise sources.
    pub gen_ms: f64,
    /// Mean cold `SweepRunner::run_case` (cache miss), cache-replay only.
    pub miss_ms: f64,
}

/// Generate the inputs and do everything a run needs beforehand,
/// including a few untimed warm-up runs.
pub fn setup(
    kind: Kind,
    seed: u64,
    size: Size,
    scratch: &Path,
) -> Result<(Box<dyn Bench>, SetupSplit), String> {
    let t0 = Instant::now();
    let mut split = SetupSplit::default();
    let bench: Box<dyn Bench> = match kind {
        Kind::PlanSweep => {
            let inputs = inputs::plan_sweep(seed, size);
            split.gen_ms = ms(t0);
            Box::new(PlanSweep::new(inputs))
        }
        Kind::NoisyDynamic => {
            let instances = inputs::noisy_dynamic(seed, size);
            split.gen_ms = ms(t0);
            Box::new(NoisyDynamic { instances })
        }
        Kind::CycleCases => {
            let instances = inputs::cycle_cases(seed, size);
            split.gen_ms = ms(t0);
            Box::new(CycleCases::new(instances)?)
        }
        Kind::CacheReplay => {
            let inputs = inputs::cache_replay(seed, size);
            split.gen_ms = ms(t0);
            let (bench, miss_ms) = CacheReplay::new(inputs, scratch)?;
            split.miss_ms = miss_ms;
            Box::new(bench)
        }
    };
    for job in 0..WARMUP_RUNS.min(bench.jobs()) {
        bench.run(job, &mut Exec::Plain)?;
    }
    Ok((bench, split))
}

fn ms(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e3
}

fn static_run<'a>(programs: &'a [Program], case: &Case) -> StaticRun<'a> {
    StaticRun::new(programs, case.placement.clone()).with_priorities(case.priorities.clone())
}

/// Tables IV–VI's execution-time deltas vs case A as the paper publishes
/// them (percent, positive = faster than A; the "paper Δ vs A" columns of
/// EXPERIMENTS.md).
const PUBLISHED_DELTAS: &[(inputs::App, &str, f64)] = {
    use inputs::App::{BtMz, MetBench, Siesta};
    &[
        (MetBench, "B", 5.71),
        (MetBench, "C", 8.26),
        (MetBench, "D", -17.2),
        (BtMz, "ST", -32.7),
        (BtMz, "B", -56.7),
        (BtMz, "C", 7.37),
        (BtMz, "D", 18.08),
        (Siesta, "ST", -44.0),
        (Siesta, "B", 1.24),
        (Siesta, "C", 8.1),
        (Siesta, "D", -13.7),
    ]
};

/// Ceiling on the mean distance from the published deltas. The
/// reproduction reads 5.21 pp; anything that moves the paper runs by more
/// than a few hundredths of a point fails.
const PAPER_ERR_MAX_PP: f64 = 5.25;

/// Floor on the static model's rank correlation with simulation (the
/// `mtb suggest --validate` gate).
const PLAN_RHO_MIN: f64 = 0.9;

/// Mean |simulated − published| delta vs case A over the non-A rows;
/// `cycles(i)` is the simulated makespan of `rows[i]`.
fn paper_err_pp(rows: &[PaperRow], cycles: impl Fn(usize) -> u64) -> f64 {
    let errs: Vec<f64> = PUBLISHED_DELTAS
        .iter()
        .map(|&(app, name, published)| {
            let row = |n: &str| {
                rows.iter()
                    .position(|r| r.app == app && r.case.name == n)
                    .expect("every published row is generated")
            };
            let a = cycles(row("A")) as f64;
            let x = cycles(row(name)) as f64;
            (100.0 * (a - x) / a - published).abs()
        })
        .collect();
    mean(&errs)
}

/// `plan-sweep`: per run, one `mtb_verify::predict` and one
/// `balance::execute` at meso fidelity, over the paper rows and every
/// (instance, plan) pair.
struct PlanSweep {
    inputs: SweepInputs,
    /// Inferred profiles of every program set.
    profiles: Vec<Vec<RankProfile>>,
}

impl PlanSweep {
    fn new(inputs: SweepInputs) -> PlanSweep {
        PlanSweep {
            profiles: inputs.sets.iter().map(|p| infer_profiles(p)).collect(),
            inputs,
        }
    }
}

impl Bench for PlanSweep {
    fn jobs(&self) -> usize {
        self.inputs.jobs()
    }

    fn run(&self, job: usize, exec: &mut Exec<'_>) -> Result<Done, String> {
        let (set, case) = self.inputs.job(job);
        let prios: Vec<u8> = case.priorities.iter().map(|p| p.requested()).collect();
        let predicted = exec
            .span("verify.predict", || {
                predict(&self.profiles[set], &case.placement, &prios)
            })
            .ok_or_else(|| format!("case {}: the static model cannot predict it", case.name))?
            .makespan;
        let result = exec.execute(static_run(&self.inputs.sets[set], &case), None)?;
        Ok(Done {
            predicted: Some(predicted),
            ..Done::new(case, result)
        })
    }

    fn accuracy(&self, outcomes: &[Outcome]) -> Vec<Guard> {
        let err = paper_err_pp(&self.inputs.paper, |row| outcomes[row].sim_cycles);
        let rho_min = (0..self.inputs.instances())
            .map(|i| {
                let runs = &outcomes[self.inputs.instance_jobs(i)];
                let xs: Vec<f64> = runs.iter().map(|o| o.predicted).collect();
                let ys: Vec<f64> = runs.iter().map(|o| o.sim_cycles as f64).collect();
                spearman(&xs, &ys)
            })
            .fold(f64::INFINITY, f64::min);
        vec![
            at_most("paper_err_pp", "pp", err, PAPER_ERR_MAX_PP),
            at_least("plan_rho_min", "rho", rho_min, PLAN_RHO_MIN),
        ]
    }

    fn inputs_digest(&self) -> u64 {
        self.inputs.digest()
    }
}

/// Floor on the controller's mean speedup over identity under the same
/// noise (it reads ~10% on the full workload).
const DYN_GAIN_MIN_PCT: f64 = 5.0;

/// Floor on the controller's worst speedup: it must never reproduce a
/// case-D-style inversion.
const DYN_WORST_MIN_PCT: f64 = 0.0;

/// `noisy-dynamic`: each instance runs case A as a plain static run
/// (even jobs) and under the two-level controller (odd jobs), both under
/// the same noise.
struct NoisyDynamic {
    instances: Vec<NoisyInstance>,
}

impl Bench for NoisyDynamic {
    fn jobs(&self) -> usize {
        self.instances.len() * 2
    }

    fn run(&self, job: usize, exec: &mut Exec<'_>) -> Result<Done, String> {
        let inst = &self.instances[job / 2];
        let programs = &inst.instance.programs;
        let case_a = inst.instance.app.cases().swap_remove(0);
        let run = static_run(programs, &case_a).with_noise(inst.noise.clone());
        if job % 2 == 0 {
            let result = exec.execute(run, None)?;
            return Ok(Done::new(case_a, result));
        }
        let mut ctl = exec.span("verify.profile", || {
            TwoLevelController::for_programs(
                programs,
                &case_a.placement,
                ControllerConfig::default(),
            )
        });
        let mut result = exec.execute(run, Some(&mut ctl))?;
        let stats = ControllerStats {
            adjustments: ctl.adjustments(),
            reverts: ctl.reverts(),
            remaps: ctl.remaps(),
        };
        exec.count("core.adjustments", stats.adjustments as f64);
        exec.count("core.reverts", stats.reverts as f64);
        exec.count("core.decisions", (stats.adjustments + stats.remaps) as f64);
        // The note the harness stores with dynamic records, so the record
        // hash covers the controller's decisions too.
        result.notes.push(stats.note());
        let case = Case {
            name: "dynamic",
            ..case_a
        };
        Ok(Done::new(case, result))
    }

    fn accuracy(&self, outcomes: &[Outcome]) -> Vec<Guard> {
        let gains: Vec<f64> = outcomes
            .chunks(2)
            .map(|pair| {
                let (identity, dynamic) = (pair[0].sim_cycles as f64, pair[1].sim_cycles as f64);
                100.0 * (identity - dynamic) / identity
            })
            .collect();
        let worst = gains.iter().copied().fold(f64::INFINITY, f64::min);
        vec![
            at_least("dyn_gain_pct", "%", mean(&gains), DYN_GAIN_MIN_PCT),
            at_least("dyn_worst_pct", "%", worst, DYN_WORST_MIN_PCT),
        ]
    }

    fn inputs_digest(&self) -> u64 {
        inputs::digest(
            self.instances
                .iter()
                .map(|i| (i.instance.programs.as_slice(), i.noise.as_slice(), false)),
        )
    }
}

/// Ceiling on the mean meso-vs-cycle makespan error (it reads ~45% on the
/// full workload). The short cycle runs start with empty caches, and
/// SIESTA's analytic profiles diverge from its cycle-level streams
/// (documented in `fidelity.rs`).
const MESO_ERR_MAX_PCT: f64 = 50.0;

/// Paper cases (A–D) per cycle instance.
const CYCLE_CASES: usize = 4;

/// `cycle-cases`: cases A–D of every seeded instance on the cycle-level
/// core. The mesoscale makespans of the same inputs are simulated during
/// set-up, outside the timed loop, for the fidelity check.
struct CycleCases {
    instances: Vec<Instance>,
    meso_cycles: Vec<u64>,
}

impl CycleCases {
    fn new(instances: Vec<Instance>) -> Result<CycleCases, String> {
        let mut bench = CycleCases {
            instances,
            meso_cycles: Vec::new(),
        };
        bench.meso_cycles = (0..bench.jobs())
            .map(|job| {
                let (programs, case) = bench.job(job);
                execute(static_run(programs, &case))
                    .map(|r| r.total_cycles)
                    .map_err(|e| e.to_string())
            })
            .collect::<Result<_, _>>()?;
        Ok(bench)
    }

    fn job(&self, job: usize) -> (&[Program], Case) {
        let inst = &self.instances[job / CYCLE_CASES];
        let case = inst.app.cases().swap_remove(job % CYCLE_CASES);
        (&inst.programs, case)
    }
}

impl Bench for CycleCases {
    fn jobs(&self) -> usize {
        self.instances.len() * CYCLE_CASES
    }

    fn run(&self, job: usize, exec: &mut Exec<'_>) -> Result<Done, String> {
        let (programs, case) = self.job(job);
        let result = exec.execute(static_run(programs, &case).cycle_accurate(), None)?;
        Ok(Done::new(case, result))
    }

    fn accuracy(&self, outcomes: &[Outcome]) -> Vec<Guard> {
        let errs: Vec<f64> = outcomes
            .iter()
            .zip(&self.meso_cycles)
            .map(|(o, &meso)| {
                let cycle = o.sim_cycles as f64;
                100.0 * (meso as f64 - cycle).abs() / cycle
            })
            .collect();
        vec![at_most("meso_err_pct", "%", mean(&errs), MESO_ERR_MAX_PCT)]
    }

    fn inputs_digest(&self) -> u64 {
        inputs::digest(
            self.instances
                .iter()
                .map(|i| (i.programs.as_slice(), &[][..], true)),
        )
    }
}

/// `cache-replay`: set-up runs a cold `SweepRunner::run_case` pass into a
/// fresh record directory; every timed run replays one record through
/// `run_case` and must hit.
struct CacheReplay {
    inputs: SweepInputs,
    runner: SweepRunner,
    /// Record file of each job, found by watching the directory during
    /// the cold pass (the file naming is the harness's business).
    records: Vec<PathBuf>,
    /// Record hash of each job's cold (simulated) result.
    cold: Vec<u64>,
}

impl CacheReplay {
    /// Run the cold pass; also returns the mean miss time in ms.
    fn new(inputs: SweepInputs, dir: &Path) -> Result<(CacheReplay, f64), String> {
        let runner = SweepRunner::new(SweepOptions {
            jobs: 1,
            cache: true,
            dir: dir.to_path_buf(),
            budget: Arc::new(mtb_pool::Budget::new(1)),
            checkpoint_every: None,
        });
        let mut known = std::collections::BTreeSet::new();
        let mut records = Vec::new();
        let mut cold = Vec::new();
        let mut miss_ms = 0.0;
        for job in 0..inputs.jobs() {
            let (set, case) = inputs.job(job);
            let t0 = Instant::now();
            let result = runner.run_case(&inputs.sets[set], &case);
            miss_ms += ms(t0);
            cold.push(mtb_bench::lint::record_hash(&case, &result));
            let mut fresh = Vec::new();
            for entry in std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))? {
                let path = entry.map_err(|e| e.to_string())?.path();
                if known.insert(path.clone()) {
                    fresh.push(path);
                }
            }
            match fresh.as_slice() {
                [record] => records.push(record.clone()),
                _ => {
                    return Err(format!(
                        "job {job}: the cold run wrote {} record files, expected 1",
                        fresh.len()
                    ))
                }
            }
        }
        let mean_miss = miss_ms / inputs.jobs().max(1) as f64;
        Ok((
            CacheReplay {
                inputs,
                runner,
                records,
                cold,
            },
            mean_miss,
        ))
    }
}

impl Bench for CacheReplay {
    fn jobs(&self) -> usize {
        self.inputs.jobs()
    }

    /// Plain: one `run_case` hit. Traced: the hit path one public call at
    /// a time — key the configuration, read the record, decode it,
    /// rebuild the result.
    fn run(&self, job: usize, exec: &mut Exec<'_>) -> Result<Done, String> {
        let (set, case) = self.inputs.job(job);
        let programs = &self.inputs.sets[set];
        let Exec::Traced(tr) = exec else {
            let result = self.runner.run_case(programs, &case);
            return Ok(Done::new(case, result));
        };
        let hit = tr.open("harness.hit");
        let span = tr.open("harness.key");
        std::hint::black_box(config_hash(&case, programs));
        tr.close(span);
        let span = tr.open("harness.read");
        let text = std::fs::read_to_string(&self.records[job]);
        tr.close(span);
        let text = text.map_err(|e| format!("{}: {e}", self.records[job].display()))?;
        tr.count("harness.record_bytes", text.len() as f64);
        let span = tr.open("snap.decode");
        let record = RunRecord::from_json(&text);
        tr.close(span);
        let record = record?;
        let span = tr.open("harness.convert");
        let result = record.to_run_result();
        tr.close(span);
        tr.close(hit);
        Ok(Done::new(case, result))
    }

    fn expected(&self, job: usize) -> Option<u64> {
        self.cold.get(job).copied()
    }

    fn accuracy(&self, _outcomes: &[Outcome]) -> Vec<Guard> {
        let stats = self.runner.stats();
        let replays = stats.cases_run - self.jobs();
        let hit_ratio = stats.cache_hits as f64 / replays.max(1) as f64;
        vec![at_least("cache_hit_ratio", "ratio", hit_ratio, 1.0)]
    }

    fn inputs_digest(&self) -> u64 {
        self.inputs.digest()
    }
}
