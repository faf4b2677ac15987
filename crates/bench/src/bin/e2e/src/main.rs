//! `e2e` — the end-to-end benchmark of the mtbalance stack.
//!
//! ```text
//! e2e --seed S [--workload W] [--seconds T] [--trace 0|1|FILE] [--smoke] [--repeat N]
//! ```
//!
//! With `--workload`, one workload is set up (five times; `setup_s` is
//! the median), run in a closed loop with one client until every job has
//! run once and `--seconds` have passed, checked, and reported; the last
//! line of stdout is one JSON object with `correct`, `attempted`, `failed`
//! and `metrics` — the end-to-end metrics, or with `--trace` the
//! per-layer split of a second, traced loop over the same jobs.
//! `--trace FILE` also writes the spans to FILE as JSON lines.
//!
//! Without `--workload`, every workload runs in its own child process
//! (so peak RSS is per workload), one at a time. `--repeat N` does that N
//! times, alternating the workload order, and prints each metric's median,
//! quartiles and spread against its regression bound. `--smoke` shrinks
//! every workload to a few seconds in all, through the same code paths.
//! See README.md beside this file.

mod inputs;
mod spec;
mod stats;
mod trace;
mod workloads;

use inputs::Size;
use mtb_bench::json::Json;
use spec::{END_TO_END, PER_LAYER, SETUPS};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};
use trace::{Tracer, ROOT};
use workloads::{setup, Bench, Exec, Guard, Kind, Outcome, SetupSplit};

/// How a run is traced.
#[derive(Debug, Clone, PartialEq)]
enum TraceMode {
    /// Untraced: report the end-to-end metrics.
    Off,
    /// Traced pass, spans kept in memory: report the per-layer split.
    On,
    /// As `On`, and write the spans to this file.
    File(PathBuf),
}

#[derive(Debug, Clone)]
struct Args {
    seed: u64,
    workload: Option<Kind>,
    seconds: f64,
    trace: TraceMode,
    smoke: bool,
    repeat: Option<usize>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut seed = None;
    let mut workload = None;
    let mut seconds = None;
    let mut trace = TraceMode::Off;
    let mut smoke = false;
    let mut repeat = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            smoke = true;
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let bad = |what: &str| format!("{flag}: {value:?} is not {what}");
        match flag.as_str() {
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("a seed"))?),
            "--workload" => workload = Some(Kind::parse(value)?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("a duration"))?;
                if !(s.is_finite() && (0.0..=3600.0).contains(&s)) {
                    return Err(bad("a duration in 0..=3600 s"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value {
                    "0" => TraceMode::Off,
                    "1" => TraceMode::On,
                    "" => return Err(bad("0, 1 or a file")),
                    file => TraceMode::File(PathBuf::from(file)),
                }
            }
            "--repeat" => {
                let n: usize = value.parse().map_err(|_| bad("a count"))?;
                if n == 0 {
                    return Err(bad("a positive count"));
                }
                repeat = Some(n);
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    let seed = seed.ok_or("--seed S is required: the seed derives every input")?;
    if repeat.is_some() && trace != TraceMode::Off {
        return Err("--repeat reports the end-to-end metrics; drop --trace".into());
    }
    Ok(Args {
        seed,
        workload,
        seconds: seconds.unwrap_or(if smoke { 1.0 } else { 20.0 }),
        trace,
        smoke,
        repeat,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2e: {e}");
            return ExitCode::from(2);
        }
    };
    let ok = match (args.repeat, args.workload) {
        (Some(n), _) => repeat(&args, n),
        (None, Some(kind)) => single(&args, kind),
        (None, None) => full_pass(&args),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// A measured metric.
#[derive(Debug, Clone)]
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

/// Everything one workload invocation found.
struct Report {
    kind: Kind,
    seed: u64,
    jobs: usize,
    runs: usize,
    inputs_digest: u64,
    output_digest: u64,
    attempted: usize,
    failures: Vec<String>,
    guards: Vec<Guard>,
    end_to_end: Vec<Metric>,
    per_layer: Vec<Metric>,
}

impl Report {
    fn correct(&self) -> bool {
        self.failures.is_empty() && self.guards.iter().all(|g| g.ok)
    }

    /// The deterministic part of the report: identical across runs of
    /// the same seed on the same code.
    fn exact_line(&self) -> String {
        let mut line = format!(
            "exact: {} seed={} inputs={:016x} output={:016x}",
            self.kind.name(),
            self.seed,
            self.inputs_digest,
            self.output_digest
        );
        for g in &self.guards {
            line.push_str(&format!(" {}={:.6}", g.name, g.value));
        }
        line
    }

    fn print(&self, traced: bool) {
        println!("e2e {}: {}", self.kind.name(), self.kind.why());
        println!(
            "e2e {}: seed {} — {} timed runs over {} jobs (each timed as its best run), {} attempted, {} failed",
            self.kind.name(),
            self.seed,
            self.runs,
            self.jobs,
            self.attempted,
            self.failures.len()
        );
        for f in self.failures.iter().take(10) {
            println!("  FAIL {f}");
        }
        for g in &self.guards {
            println!(
                "  guard {} = {:.4} {} ({}) {}",
                g.name,
                g.value,
                g.unit,
                g.rule,
                if g.ok { "ok" } else { "VIOLATED" }
            );
        }
        for m in self.end_to_end.iter().chain(&self.per_layer) {
            println!("  {:<26} {:>14.4} {}", m.name, m.value, m.unit);
        }
        println!("{}", self.exact_line());
        let metrics = if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        println!(
            "{}",
            result_json(
                self.correct(),
                self.attempted,
                self.failures.len(),
                metrics
                    .iter()
                    .map(|m| (m.name.to_string(), m.value, m.unit))
            )
        );
    }
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
fn result_json<'a>(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: impl Iterator<Item = (String, f64, &'a str)>,
) -> String {
    let body: Vec<String> = metrics
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn single(args: &Args, kind: Kind) -> bool {
    let size = if args.smoke { Size::Smoke } else { Size::Full };
    match measure(kind, args.seed, size, args.seconds, &args.trace) {
        Ok(report) => {
            report.print(args.trace != TraceMode::Off);
            report.correct()
        }
        Err(e) => {
            eprintln!("e2e {}: {e}", kind.name());
            false
        }
    }
}

/// A per-invocation scratch directory (the cache-replay record store)
/// inside the build directory, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(kind: Kind) -> Scratch {
        let base = std::env::var_os("CARGO_TARGET_DIR")
            .filter(|d| !d.is_empty())
            .map_or_else(|| PathBuf::from("target"), PathBuf::from);
        Scratch(
            base.join("e2e-scratch")
                .join(format!("{}-{}", kind.name(), std::process::id())),
        )
    }

    /// Empty the directory for a fresh set-up.
    fn reset(&self) -> Result<&Path, String> {
        let _ = std::fs::remove_dir_all(&self.0);
        std::fs::create_dir_all(&self.0).map_err(|e| format!("{}: {e}", self.0.display()))?;
        Ok(&self.0)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            // Only succeeds once no other invocation is using it.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Seeded Fisher–Yates order over the jobs. Every pass visits the jobs in
/// this order, so a stretch of host interference lands on a mix of jobs
/// rather than on one application's.
fn run_order(jobs: usize, seed: u64) -> Vec<usize> {
    let mut rng = mtb_smtsim::rng::SplitMix64::new(seed ^ 0x0e2e_0e2e);
    let mut order: Vec<usize> = (0..jobs).collect();
    for i in (1..jobs).rev() {
        order.swap(i, rng.below(i as u64 + 1) as usize);
    }
    order
}

fn panic_message(p: Box<dyn std::any::Any + Send>) -> String {
    p.downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| p.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "panic".into())
}

/// Check one run: it completed, and its record hash equals the one set-up
/// fixed for the job or, failing that, the job's first run.
fn check(
    bench: &dyn Bench,
    job: usize,
    done: std::thread::Result<Result<workloads::Done, String>>,
    first: &mut [Option<Outcome>],
) -> Result<Outcome, String> {
    let done = done.map_err(|p| format!("panicked: {}", panic_message(p)))??;
    let o = done.outcome();
    if let Some(want) = bench.expected(job).or(first[job].map(|f| f.hash)) {
        if o.hash != want {
            return Err(format!("record hash {:016x}, expected {want:016x}", o.hash));
        }
    }
    first[job].get_or_insert(o);
    Ok(o)
}

/// Peak resident set size of this process (VmHWM), in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Per-job best times of one closed-loop pass set.
struct Timed {
    /// Each job's fastest successful run, in seconds (infinite if none).
    best_s: Vec<f64>,
    /// Successful runs.
    runs: usize,
    /// Runs attempted.
    attempted: usize,
}

impl Timed {
    /// Best times of the jobs that completed, in ms.
    fn best_ms(&self) -> Vec<f64> {
        self.best_s
            .iter()
            .filter(|s| s.is_finite())
            .map(|s| s * 1e3)
            .collect()
    }

    /// Sum of the finite best times, in seconds.
    fn total_s(&self) -> f64 {
        self.best_s.iter().filter(|s| s.is_finite()).sum()
    }
}

/// A closed loop with one client: run the jobs in `order`, cyclically,
/// until every job has run once and `budget` has passed. `run` returns a
/// run's wall time and its checked outcome. A job's time is the best of
/// its runs — the host is shared, and interference only ever adds time.
fn timed_loop(
    order: &[usize],
    budget: Duration,
    label: &str,
    failures: &mut Vec<String>,
    mut run: impl FnMut(usize) -> (f64, Result<Outcome, String>),
) -> Timed {
    let mut t = Timed {
        best_s: vec![f64::INFINITY; order.len()],
        runs: 0,
        attempted: 0,
    };
    let start = Instant::now();
    while t.attempted < order.len() || start.elapsed() < budget {
        let job = order[t.attempted % order.len()];
        t.attempted += 1;
        match run(job) {
            (dt, Ok(_)) => {
                t.runs += 1;
                t.best_s[job] = t.best_s[job].min(dt);
            }
            (_, Err(e)) => failures.push(format!("job {job}{label}: {e}")),
        }
    }
    t
}

/// Set up, run, check and (optionally) trace one workload.
fn measure(
    kind: Kind,
    seed: u64,
    size: Size,
    seconds: f64,
    trace: &TraceMode,
) -> Result<Report, String> {
    let scratch = Scratch::new(kind);
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut splits: Vec<SetupSplit> = Vec::with_capacity(SETUPS);
    let mut bench: Option<Box<dyn Bench>> = None;
    for _ in 0..SETUPS {
        drop(bench.take());
        let dir = scratch.reset()?;
        let t0 = Instant::now();
        let (b, split) = setup(kind, seed, size, dir)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        splits.push(split);
        bench = Some(b);
    }
    let bench = bench.expect("at least one set-up");
    let bench = bench.as_ref();
    let jobs = bench.jobs();
    let order = run_order(jobs, seed);
    let budget = Duration::from_secs_f64(seconds);
    let mut first: Vec<Option<Outcome>> = vec![None; jobs];
    let mut failures = Vec::new();

    let timed = timed_loop(&order, budget, "", &mut failures, |job| {
        let t0 = Instant::now();
        let done = catch_unwind(AssertUnwindSafe(|| bench.run(job, &mut Exec::Plain)));
        let dt = t0.elapsed().as_secs_f64();
        (dt, check(bench, job, done, &mut first))
    });
    let peak_rss = peak_rss_mb()?;

    let outcomes: Option<Vec<Outcome>> = first.iter().copied().collect();
    let (guards, output_digest) = match &outcomes {
        Some(o) => (bench.accuracy(o), stats::fnv_u64s(o.iter().map(|o| o.hash))),
        None => {
            failures.push("some jobs never completed; no accuracy figures".into());
            (Vec::new(), 0)
        }
    };

    let best_ms = timed.best_ms();
    let sim_cycles: u64 = first.iter().flatten().map(|o| o.sim_cycles).sum();
    let mut end_to_end = Vec::new();
    for m in END_TO_END {
        let value = match m.name {
            "run_p50_ms" => stats::median(&best_ms),
            "run_p90_ms" => stats::percentile(&best_ms, 0.9)?,
            "sim_mcycles_per_s" => sim_cycles as f64 / 1e6 / timed.total_s(),
            "setup_s" => stats::median(&setup_s),
            "peak_rss_mb" => peak_rss,
            other => unreachable!("end-to-end metric {other} has no rule"),
        };
        if !(value.is_finite() && value > 0.0) {
            return Err(format!("{} measured {value}", m.name));
        }
        end_to_end.push(Metric {
            name: m.name,
            value,
            unit: m.unit,
        });
    }

    let mut attempted = timed.attempted;
    let per_layer = if *trace == TraceMode::Off {
        Vec::new()
    } else {
        let mut tr = Tracer::default();
        let traced = timed_loop(&order, budget, " (traced)", &mut failures, |job| {
            let t0 = Instant::now();
            let root = tr.begin(job);
            let done = catch_unwind(AssertUnwindSafe(|| {
                bench.run(job, &mut Exec::Traced(&mut tr))
            }));
            tr.close(root);
            let dt = t0.elapsed().as_secs_f64();
            (dt, check(bench, job, done, &mut first))
        });
        attempted += traced.attempted;
        if let TraceMode::File(path) = trace {
            tr.write_jsonl(path)
                .map_err(|e| format!("{}: {e}", path.display()))?;
        }
        let split = SetupSplit {
            gen_ms: stats::median(&splits.iter().map(|s| s.gen_ms).collect::<Vec<_>>()),
            miss_ms: stats::median(&splits.iter().map(|s| s.miss_ms).collect::<Vec<_>>()),
        };
        let overhead_pct = (traced.total_s() / timed.total_s() - 1.0) * 100.0;
        let (layers, gap) = layer_split(&tr, split, overhead_pct);
        if gap > 0.05 {
            failures.push(format!(
                "layer self times plus unattributed miss the traced run time by {:.1}%",
                gap * 100.0
            ));
        }
        layers
    };

    Ok(Report {
        kind,
        seed,
        jobs,
        runs: timed.runs,
        inputs_digest: bench.inputs_digest(),
        output_digest,
        attempted,
        failures,
        guards,
        end_to_end,
        per_layer,
    })
}

/// The per-layer metrics of a traced pass, and the relative gap between
/// the traced run time and the sum of every span's self time.
fn layer_split(tr: &Tracer, split: SetupSplit, overhead_pct: f64) -> (Vec<Metric>, f64) {
    let totals = tr.totals();
    let get = |name: &str| totals.get(name).copied().unwrap_or((0, 0, 0));
    let runs = f64::from(tr.runs().max(1));
    let per_run_ms = |name: &str| get(name).2 as f64 / 1e6 / runs;
    let per_call_us = |name: &str| {
        let (calls, _, self_ns) = get(name);
        self_ns as f64 / 1e3 / calls.max(1) as f64
    };
    let calls_per_run = |name: &str| get(name).0 as f64 / runs;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let c = |name: &str| tr.counter(name);

    let (_, root_busy, root_self) = get(ROOT);
    let self_sum: u64 = totals.values().map(|t| t.2).sum();
    let gap = ratio((self_sum as f64 - root_busy as f64).abs(), root_busy as f64);
    let core_cycles = c("smtsim.core_cycles");
    let (hit_calls, hit_busy, _) = get("harness.hit");

    let value = |name: &str| match name {
        "workloads.gen_ms" => split.gen_ms,
        "verify.profile_ms" => per_run_ms("verify.profile"),
        "verify.predict_calls" => calls_per_run("verify.predict"),
        "verify.predict_us" => per_call_us("verify.predict"),
        "core.prepare_us" => per_run_ms("core.prepare") * 1e3,
        "core.controller_ms" => per_run_ms("core.controller"),
        "core.controller_calls" => calls_per_run("core.controller"),
        "core.decisions" => c("core.decisions") / runs,
        "core.revert_ratio" => ratio(c("core.reverts"), c("core.adjustments")),
        "mpisim.events" => c("mpisim.events") / runs,
        "mpisim.self_ms" => per_run_ms("mpisim.step"),
        "mpisim.ns_per_event" => ratio(get("mpisim.step").2 as f64, c("mpisim.events")),
        "oskernel.stolen_mcycles" => c("oskernel.stolen_cycles") / 1e6 / runs,
        "smtsim.advance_calls" => calls_per_run("smtsim.advance"),
        "smtsim.advance_ms" => per_run_ms("smtsim.advance"),
        "smtsim.rate_calls" => calls_per_run("smtsim.rate"),
        "smtsim.rate_ms" => per_run_ms("smtsim.rate"),
        "smtsim.ns_per_kcycle" => ratio(get("smtsim.advance").2 as f64, core_cycles / 1e3),
        "smtsim.ipc" => ratio(c("smtsim.retired"), core_cycles),
        "smtsim.useful_ratio" => {
            let busy = c("smtsim.busy");
            ratio(busy, busy + c("smtsim.spin") + c("oskernel.stolen_cycles"))
        }
        "trace.result_us" => per_run_ms("trace.result") * 1e3,
        "harness.hit_us" => ratio(hit_busy as f64 / 1e3, hit_calls as f64),
        "harness.key_us" => per_call_us("harness.key"),
        "harness.read_us" => per_call_us("harness.read"),
        "snap.decode_us" => per_call_us("snap.decode"),
        "harness.convert_us" => per_call_us("harness.convert"),
        "harness.record_kb" => ratio(
            c("harness.record_bytes") / 1024.0,
            get("harness.read").0 as f64,
        ),
        "harness.miss_ms" => split.miss_ms,
        "bench.unattributed_ms" => root_self as f64 / 1e6 / runs,
        "bench.trace_overhead_pct" => overhead_pct,
        other => unreachable!("per-layer metric {other} has no rule"),
    };
    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit, _)| Metric {
            name,
            value: value(name),
            unit,
        })
        .collect();
    (metrics, gap)
}

/// One workload's child-process result.
struct ChildResult {
    kind: Kind,
    ok: bool,
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Vec<(String, f64, String)>,
    exact: String,
}

/// Run one workload in a child process and parse its result line.
fn run_child(args: &Args, kind: Kind) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let trace = match &args.trace {
        TraceMode::Off => "0".to_string(),
        TraceMode::On => "1".to_string(),
        TraceMode::File(f) => format!("{}.{}", f.display(), kind.name()),
    };
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", kind.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", &trace]);
    if args.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning the {} child: {e}", kind.name()))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines
        .pop()
        .ok_or_else(|| format!("{}: the child printed nothing", kind.name()))?;
    for l in &lines {
        println!("{l}");
    }
    let doc = Json::parse(last).map_err(|e| format!("{}: bad result line: {e}", kind.name()))?;
    let num = |k: &str| doc.get(k).and_then(Json::as_u64).unwrap_or(0) as usize;
    let metrics = match doc.get("metrics") {
        Some(Json::Obj(fields)) => fields
            .iter()
            .map(|(name, m)| {
                let value = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
                let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
                (name.clone(), value, unit.to_string())
            })
            .collect(),
        _ => Vec::new(),
    };
    Ok(ChildResult {
        kind,
        ok: out.status.success(),
        correct: doc.get("correct") == Some(&Json::Bool(true)),
        attempted: num("attempted"),
        failed: num("failed"),
        metrics,
        exact: lines
            .iter()
            .find(|l| l.starts_with("exact: "))
            .map_or_else(String::new, |l| l.to_string()),
    })
}

fn run_all(args: &Args, order: &[Kind]) -> Result<Vec<ChildResult>, String> {
    order.iter().map(|&k| run_child(args, k)).collect()
}

fn full_pass(args: &Args) -> bool {
    let t0 = Instant::now();
    let results = match run_all(args, &Kind::ALL) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("e2e: {e}");
            return false;
        }
    };
    println!("full pass in {:.1} s", t0.elapsed().as_secs_f64());
    let ok = results.iter().all(|r| r.ok && r.correct);
    let metrics = results.iter().flat_map(|r| {
        r.metrics.iter().map(move |(name, value, unit)| {
            (format!("{}/{name}", r.kind.name()), *value, unit.as_str())
        })
    });
    println!(
        "{}",
        result_json(
            ok,
            results.iter().map(|r| r.attempted).sum(),
            results.iter().map(|r| r.failed).sum(),
            metrics
        )
    );
    ok
}

fn repeat(args: &Args, n: usize) -> bool {
    let rustc = Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!("environment: nproc {nproc}, {rustc}");
    let mut all = Vec::new();
    for rep in 0..n {
        let mut order = Kind::ALL.to_vec();
        if rep % 2 == 1 {
            order.reverse();
        }
        match run_all(args, &order) {
            Ok(r) => all.extend(r),
            Err(e) => {
                eprintln!("e2e: {e}");
                return false;
            }
        }
    }
    let mut ok = all.iter().all(|r| r.ok && r.correct);
    // Six significant digits, whatever the magnitude.
    let sig = |v: f64| {
        let decimals = (5 - v.abs().log10().floor() as i32).clamp(0, 9) as usize;
        format!("{v:.decimals$}")
    };
    println!(
        "{:<14} {:<18} {:>14} {:>14} {:>14} {:>8} {:>6} {:>7}  verdict",
        "workload", "metric", "median", "q1", "q3", "spread", "bound", "better"
    );
    for kind in Kind::ALL {
        let mine: Vec<&ChildResult> = all.iter().filter(|r| r.kind == kind).collect();
        for m in END_TO_END {
            let values: Vec<f64> = mine
                .iter()
                .filter_map(|r| r.metrics.iter().find(|x| x.0 == m.name).map(|x| x.1))
                .collect();
            if values.is_empty() {
                ok = false;
                println!("{:<14} {:<18} missing", kind.name(), m.name);
                continue;
            }
            let med = stats::median(&values);
            let (q1, q3) = stats::quartiles(&values);
            let spread = (q3 - q1) / med;
            println!(
                "{:<14} {:<18} {:>14} {:>14} {:>14} {:>7.1}% {:>5.0}% {:>7}  {}",
                kind.name(),
                m.name,
                sig(med),
                sig(q1),
                sig(q3),
                spread * 100.0,
                m.bound * 100.0,
                m.better.as_str(),
                if spread > m.bound { "unresolved" } else { "ok" }
            );
        }
        let identical = mine.windows(2).all(|w| w[0].exact == w[1].exact);
        ok &= identical;
        println!(
            "{:<14} exact fields {} across {} runs",
            kind.name(),
            if identical { "identical" } else { "DIFFER" },
            mine.len()
        );
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Result<Args, String> {
        parse_args(&v.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn seed_is_required_and_trace_takes_0_1_or_a_file() {
        assert!(args(&["--workload", "plan-sweep"]).is_err());
        let a = args(&["--seed", "3", "--trace", "1", "--seconds", "2"]).unwrap();
        assert_eq!((a.seed, a.trace, a.seconds), (3, TraceMode::On, 2.0));
        let a = args(&["--seed", "3", "--trace", "spans.jsonl", "--smoke"]).unwrap();
        assert_eq!(a.trace, TraceMode::File(PathBuf::from("spans.jsonl")));
        assert_eq!(a.seconds, 1.0, "smoke defaults to one second");
        assert!(args(&["--seed", "1", "--workload", "nope"]).is_err());
        assert!(args(&["--seed", "1", "--repeat", "2", "--trace", "1"]).is_err());
        assert!(args(&["--seed", "1", "--seconds", "-1"]).is_err());
    }

    #[test]
    fn inputs_digest_follows_the_seed() {
        for kind in Kind::ALL {
            let dir = std::env::temp_dir().join(format!("e2e-digest-{}", std::process::id()));
            let digest = |seed| {
                let _ = std::fs::remove_dir_all(&dir);
                std::fs::create_dir_all(&dir).unwrap();
                let (b, _) = setup(kind, seed, Size::Smoke, &dir).unwrap();
                b.inputs_digest()
            };
            let (a, b, c) = (digest(1), digest(1), digest(2));
            let _ = std::fs::remove_dir_all(&dir);
            assert_eq!(a, b, "{}: same seed, same inputs", kind.name());
            assert_ne!(a, c, "{}: another seed, other inputs", kind.name());
        }
    }

    /// Every workload at smoke size, traced: the run passes its checks
    /// (traced hashes equal untraced ones, guards hold) and every metric
    /// is emitted and finite.
    #[test]
    fn every_workload_emits_every_metric_and_traces_identically() {
        for kind in Kind::ALL {
            let r = measure(kind, 7, Size::Smoke, 0.0, &TraceMode::On).unwrap();
            assert!(
                r.correct(),
                "{}: {:?} {:?}",
                kind.name(),
                r.failures,
                r.guards
            );
            assert!(r.runs >= r.jobs, "{}: every job timed", kind.name());
            let names: Vec<&str> = r
                .end_to_end
                .iter()
                .chain(&r.per_layer)
                .map(|m| m.name)
                .collect();
            let expected: Vec<&str> = END_TO_END
                .iter()
                .map(|m| m.name)
                .chain(PER_LAYER.iter().map(|m| m.0))
                .collect();
            assert_eq!(names, expected, "{}", kind.name());
            for m in r.end_to_end.iter().chain(&r.per_layer) {
                assert!(
                    m.value.is_finite(),
                    "{} {} = {}",
                    kind.name(),
                    m.name,
                    m.value
                );
            }
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_json(
            true,
            3,
            0,
            [("run_p50_ms".to_string(), 1.25, "ms")].into_iter(),
        );
        let doc = Json::parse(&line).unwrap();
        let Json::Obj(fields) = &doc else {
            panic!("not an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let m = doc.get("metrics").unwrap().get("run_p50_ms").unwrap();
        assert_eq!(m.get("value").and_then(Json::as_f64), Some(1.25));
    }
}
