//! `mtb` — the mtbalance experiment driver.
//!
//! ```text
//! mtb run --app <metbench|btmz|siesta|synthetic> [options]
//! mtb tables [1..6|all] [--gantt]
//! mtb ext [NAME]
//! mtb sweep --app <app>
//! mtb help
//! ```
//!
//! Run any of the paper's workloads under any case configuration, kernel
//! flavour, noise level and balancing policy from the command line, or
//! regenerate any table, figure or extension experiment:
//!
//! ```sh
//! cargo run -p mtb-bench --release --bin mtb -- run --app btmz --case D --gantt
//! cargo run -p mtb-bench --release --bin mtb -- run --app siesta --dynamic
//! cargo run -p mtb-bench --release --bin mtb -- run --app metbench --case C \
//!     --kernel vanilla --noise 5
//! cargo run -p mtb-bench --release --bin mtb -- tables 5 --gantt
//! cargo run -p mtb-bench --release --bin mtb -- ext noise
//! ```

use mtb_bench::cli::{self, build_app, cpu0_irq_noise, AppOverrides, ArgError, Args};
use mtb_bench::experiments;
use mtb_bench::harness::{config_hash_static, run_static, SweepRunner};
use mtb_core::balance::{prepare, StaticRun};
use mtb_core::paper_cases::Case;
use mtb_core::policy::PrioritySetting;
use mtb_core::ControllerConfig;
use mtb_mpisim::engine::RunResult;
use mtb_mpisim::program::Program;
use mtb_mpisim::{NullObserver, Stepping};
use mtb_oskernel::KernelConfig;
use mtb_snap::{read_snapshot, write_snapshot};
use mtb_trace::{cycles_to_seconds, render_gantt, GanttConfig};

use std::path::Path;
use std::process::ExitCode;

const USAGE: &str = "\
mtb — balancing HPC applications on MT processors (IPDPS 2008 reproduction)

USAGE:
    mtb run --app <APP> [OPTIONS]     simulate one configuration
    mtb tables [N|all] [--gantt]      print paper Tables I-VI (default: all);
                                      --gantt adds Figures 2-4 to IV-VI
    mtb ext [NAME]                    print Figure 1, the report, ABL-1
                                      (fidelity) or an EXT experiment;
                                      without NAME, list every entry
    mtb sweep --app <APP>             sweep the priority difference
    mtb lint [OPTIONS]                static analysis of programs + priorities
    mtb suggest [OPTIONS]             rank (placement, priority) plans statically
    mtb table-dynamic [OPTIONS]       dynamic controller vs best-static report
    mtb bench [OPTIONS]               fast-path vs reference perf report
    mtb bisect-drift [OPTIONS]        locate the first divergent event window
    mtb checkpoint-identity [--smoke] prove save→fresh-process-resume identity
    mtb help                          this text (also `mtb <COMMAND> --help`)

APPS:   metbench | btmz | siesta | synthetic

Options take `--key value` or `--key=value`. An unknown option, a missing
or unparsable value, or an unknown choice is an error.

HARNESS OPTIONS (every command):
    --jobs <n>              sweep worker count          [default: MTB_JOBS]
    --no-cache              bypass the run-record cache (MTB_RUN_DIR)
    --checkpoint-every <n>  snapshot the engine every n events; an
                            interrupted run resumes from its last valid
                            checkpoint on the next invocation

RUN OPTIONS:
    --case <ST|A|B|C|D>     paper case configuration     [default: A]
    --kernel <patched|vanilla>                           [default: patched]
    --dynamic               drive priorities (and remaps) with the
                            two-level controller
    --noise <duty-pct>      CPU0 device-IRQ duty cycle (0-50)
    --scale <f>             work multiplier               [default: 1.0]
    --iterations <n>        override the iteration count
    --seed <n>              workload seed
    --gantt                 render the trace Gantt chart
    --cycle-accurate        use the cycle-level core model (slow)
    --resume <file>         restore a snapshot file and run to completion
                            (config must hash-match the snapshot)

BISECT-DRIFT OPTIONS:
    --compare <threads|stepping|fidelity>    what differs between the replays
    --app <APP> --case <C>  configuration to replay      [default: metbench A]
    --window <n>            events per comparison window [default: 50]
    --scale <f>             work multiplier   [default: 1e-3; 2e-5 for fidelity]
    `threads` must never diverge (exit nonzero if it does); `stepping`
    and `fidelity` locate divergence-by-design.

CHECKPOINT-IDENTITY:
    For every paper case × stepping mode × core fidelity: run whole,
    then save a snapshot at the mid-run event boundary and resume it in
    a fresh process; fail on any record-hash mismatch. `--smoke` covers
    metbench only. MTB_JOBS sets the intra-run thread count (results
    are bit-identical at any value).

LINT OPTIONS:
    --app <APP> --case <C>  lint one (app, case) target
    --all-cases             lint every paper case and workload program
    --json                  machine-readable diagnostics on stdout
    --deny <warnings>       exit nonzero on warnings too (default: errors)
    --selftest              determinism check: --jobs 1 vs --jobs N record hashes
    --jobs <n>              worker count the selftest compares against  [default: 8]

SUGGEST OPTIONS:
    --app <APP|all>         search one app or all four     [default: all]
    --top <n>               plans to print per app         [default: 5]
    --scale <f>             work multiplier for profile inference / validation
    --validate              simulate the evaluation ladder and gate on the
                            predicted-vs-simulated Spearman rank correlation
                            (>= 0.9 per app) and on the top plan matching or
                            beating the paper's best static setting
    --json                  machine-readable output on stdout
    --out <path>            also write the JSON document to a file

TABLE-DYNAMIC OPTIONS:
    --smoke                 CI-sized workloads (scale 1e-3 unless --scale given)
    --scale <f>             work multiplier                [default: 1.0]
    --jobs <n>              intra-run thread count the determinism replay
                            compares against 1   [default: MTB_JOBS, else 4]
    --json                  machine-readable report on stdout
    --out <path>            also write the JSON document to a file
    Per app: the two-level controller vs the best hand-tuned paper case vs
    the identity baseline, with decision counters and the dynamic run's
    record hash. Exits nonzero when any app loses to its best static
    setting beyond 2%, inverts against the identity baseline (the case-D
    hazard), or drifts between thread counts.

BENCH OPTIONS:
    --smoke                 CI-sized cycle counts (seconds, not minutes)
    --out <path>            report destination        [default: BENCH_sim.json,
                            BENCH_smoke.json with --smoke]

PARALLELISM:
    MTB_JOBS=<n>            total worker-thread budget (default: CPU count).
                            One shared permit pool: sweep-level run slots and
                            intra-run core shards draw from the same budget,
                            so <n> bounds live threads no matter how the work
                            splits. Thread count never changes results — the
                            bench scaling-2t/4t/8t sweeps verify bit-identical
                            record hashes at every count and fail on drift.
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("help" | "--help" | "-h") | None => {
            print!("{USAGE}");
            ExitCode::SUCCESS
        }
        Some(name) => match cli::spec(name) {
            Some(spec) => match cli::parse(spec, &args[1..]) {
                Ok(parsed) => dispatch(name, &parsed).unwrap_or_else(|e| usage_error(&e)),
                Err(ArgError::Help) => {
                    print!("{USAGE}");
                    ExitCode::SUCCESS
                }
                Err(ArgError::Invalid(e)) => usage_error(&e),
            },
            None => usage_error(&format!("unknown command {name:?}")),
        },
    };
    mtb_bench::harness::print_summary();
    code
}

/// Run subcommand `name`; an `Err` is a usage error.
fn dispatch(name: &str, args: &Args) -> Result<ExitCode, String> {
    match name {
        "run" => cmd_run(args),
        "tables" => experiments::run_tables(args.positional(), args.flag("gantt"))
            .map(|()| ExitCode::SUCCESS),
        "ext" => experiments::run_ext(args.positional()).map(|()| ExitCode::SUCCESS),
        "sweep" => cmd_sweep(args),
        "lint" => cmd_lint(args),
        "suggest" => cmd_suggest(args),
        "table-dynamic" => cmd_table_dynamic(args),
        "bench" => cmd_bench(args),
        "bisect-drift" => cmd_bisect(args),
        "checkpoint-identity" => Ok(cmd_checkpoint_identity(args)),
        other => unreachable!("no handler for declared command {other:?}"),
    }
}

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("{msg}\n\n{USAGE}");
    ExitCode::FAILURE
}

fn print_result(label: &str, r: &RunResult, gantt: bool) {
    println!(
        "{label}: exec {:.2}s, imbalance {:.2}%",
        cycles_to_seconds(r.total_cycles),
        r.metrics.imbalance_pct
    );
    for p in &r.metrics.procs {
        println!(
            "  {}: comp {:5.2}%  sync {:5.2}%  comm {:4.2}%  interrupted {:4.2}%",
            p.label, p.comp_pct, p.sync_pct, p.comm_pct, p.interrupt_pct
        );
    }
    if gantt {
        println!();
        println!(
            "{}",
            render_gantt(
                &r.timelines,
                &GanttConfig {
                    width: 100,
                    legend: true,
                    title: None,
                    window: None
                }
            )
        );
    }
}

fn cmd_run(args: &Args) -> Result<ExitCode, String> {
    let app = args.value("app").unwrap_or("");
    let case_name = args.value("case").unwrap_or("A");
    let duty: u64 = args.get("noise")?.unwrap_or(0);
    if duty > 50 {
        return Err(format!("--noise {duty}: expected a duty cycle of 0-50 (%)"));
    }
    let kernel = match args.value("kernel") {
        None | Some("patched") => KernelConfig::patched(),
        Some("vanilla") => KernelConfig::vanilla(),
        Some(other) => return Err(format!("--kernel {other:?}: expected patched|vanilla")),
    };
    let (programs, case) = build_app(app, case_name, AppOverrides::from_args(args)?)?;
    let gantt = args.flag("gantt");

    let mut run = StaticRun::new(&programs, case.placement.clone())
        .with_priorities(case.priorities.clone())
        .with_kernel(kernel)
        .with_noise(cpu0_irq_noise(duty));
    if args.flag("cycle-accurate") {
        run = run.cycle_accurate();
    }

    if let Some(path) = args.value("resume") {
        if args.flag("dynamic") {
            eprintln!(
                "--resume cannot drive the dynamic controller (its state is not in the snapshot)"
            );
            return Ok(ExitCode::FAILURE);
        }
        return Ok(match resume_run(&run, Path::new(path)) {
            Ok(r) => {
                print_result(&format!("{app} case {case_name} (resumed)"), &r, gantt);
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("resume failed: {e}");
                ExitCode::FAILURE
            }
        });
    }

    let result = if args.flag("dynamic") {
        SweepRunner::global()
            .run_dynamic(run, &ControllerConfig::default())
            .map(|(r, stats)| {
                println!(
                    "dynamic policy: {} adjustments, {} reverts, {} remaps",
                    stats.adjustments, stats.reverts, stats.remaps
                );
                r
            })
    } else {
        run_static(run)
    };

    Ok(match result {
        Ok(r) => {
            print_result(&format!("{app} case {case_name}"), &r, gantt);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("run failed: {e}");
            ExitCode::FAILURE
        }
    })
}

fn cmd_lint(args: &Args) -> Result<ExitCode, String> {
    use mtb_bench::lint;
    use mtb_verify::Severity;

    let deny = match args.value("deny") {
        None | Some("errors") => Severity::Error,
        Some("warnings") => Severity::Warning,
        Some(other) => return Err(format!("--deny {other:?}: expected errors|warnings")),
    };

    if args.flag("selftest") {
        let jobs: usize = args.get("jobs")?.unwrap_or(8);
        return Ok(match lint::selftest(jobs) {
            Ok(lines) => {
                for line in lines {
                    println!("{line}");
                }
                println!("determinism selftest passed");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("determinism selftest FAILED: {e}");
                ExitCode::FAILURE
            }
        });
    }

    let targets: Vec<(&str, &str)> = if args.flag("all-cases") {
        lint::ALL_TARGETS.to_vec()
    } else {
        let app = args
            .value("app")
            .ok_or("lint needs --app <APP> --case <C>, --all-cases or --selftest")?;
        vec![(app, args.value("case").unwrap_or("A"))]
    };

    let outcomes = match lint::lint_targets(&targets) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("lint failed: {e}");
            return Ok(ExitCode::FAILURE);
        }
    };
    if args.flag("json") {
        println!("{}", lint::outcomes_to_json(&outcomes).render());
    } else {
        print!("{}", lint::outcomes_to_text(&outcomes));
    }
    Ok(if lint::any_at_or_above(&outcomes, deny) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn cmd_bench(args: &Args) -> Result<ExitCode, String> {
    let smoke = args.flag("smoke");
    // A smoke report must not overwrite the committed full-run record.
    let default_out = if smoke {
        "BENCH_smoke.json"
    } else {
        "BENCH_sim.json"
    };
    let out = args.value("out").unwrap_or(default_out);
    let report = mtb_bench::perf::run(smoke);
    print!("{}", report.render());
    if let Err(e) = report.write(Path::new(out)) {
        eprintln!("bench: cannot write {out}: {e}");
        return Ok(ExitCode::FAILURE);
    }
    println!("report written to {out}");
    if !report.all_identical() {
        eprintln!("bench: DRIFT — fast path disagrees with reference output");
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_sweep(args: &Args) -> Result<ExitCode, String> {
    let app = args.value("app").unwrap_or("metbench");
    let (programs, case) = build_app(app, "A", AppOverrides::default())?;
    println!("priority-difference sweep for {app} (light rank demoted, heavy boosted):\n");
    for diff in 0..=4u8 {
        let heavy = 6u8.min(4 + diff);
        let light = heavy - diff;
        let prios: Vec<PrioritySetting> = (0..4)
            .map(|r| PrioritySetting::ProcFs(if r % 2 == 1 { heavy } else { light }))
            .collect();
        match run_static(StaticRun::new(&programs, case.placement.clone()).with_priorities(prios)) {
            Ok(r) => println!(
                "  diff {diff} ({light}/{heavy}): exec {:7.2}s, imbalance {:5.2}%",
                cycles_to_seconds(r.total_cycles),
                r.metrics.imbalance_pct
            ),
            Err(e) => {
                eprintln!("sweep point failed: {e}");
                return Ok(ExitCode::FAILURE);
            }
        }
    }
    Ok(ExitCode::SUCCESS)
}

/// Restore `path` into a fresh engine for `run` and drive it to
/// completion. The snapshot's config hash must match the run's — a
/// snapshot from a different configuration is refused, not coerced.
fn resume_run(run: &StaticRun<'_>, path: &Path) -> Result<RunResult, String> {
    let snap = read_snapshot(path).map_err(|e| e.to_string())?;
    let expect = config_hash_static(run);
    if snap.config_hash != expect {
        return Err(format!(
            "snapshot was taken from config {:016x}, this run is {expect:016x}",
            snap.config_hash
        ));
    }
    let mut engine = prepare(run).map_err(|e| e.to_string())?;
    engine
        .restore_state(&snap.state)
        .map_err(|e| e.to_string())?;
    eprintln!("resumed from {} at {} events", path.display(), snap.events);
    engine
        .step_events(&mut NullObserver, u64::MAX)
        .map_err(|e| e.to_string())?;
    Ok(engine.into_result())
}

fn cmd_bisect(args: &Args) -> Result<ExitCode, String> {
    let compare = match args.value("compare") {
        Some(c @ ("threads" | "stepping" | "fidelity")) => c,
        Some(other) => {
            return Err(format!(
                "--compare {other:?}: expected threads|stepping|fidelity"
            ))
        }
        None => return Err("bisect-drift needs --compare <threads|stepping|fidelity>".into()),
    };
    let app = args.value("app").unwrap_or("metbench");
    let case_name = args.value("case").unwrap_or("A");
    let window: u64 = args.get("window")?.unwrap_or(50);
    // The cycle model simulates every cycle an event jump covers, so the
    // fidelity comparison defaults to a far smaller workload.
    let default_scale = if compare == "fidelity" { 2e-5 } else { 1e-3 };
    let mut ov = AppOverrides::from_args(args)?;
    let scale = *ov.scale.get_or_insert(default_scale);
    let (programs, case) = build_app(app, case_name, ov)?;
    let base = || {
        StaticRun::new(&programs, case.placement.clone())
            .with_priorities(case.priorities.clone())
            .with_stepping(Stepping::EventHorizon)
    };
    let b = match compare {
        "threads" => base().with_threads(4),
        "stepping" => base().with_stepping(Stepping::Quantum),
        _ => base().cycle_accurate(),
    };
    let report = match mtb_bench::bisect::bisect_drift(&base(), &b, window) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("bisect-drift failed: {e}");
            return Ok(ExitCode::FAILURE);
        }
    };
    print!(
        "{app} case {case_name} (scale {scale}), A=base B={compare}: {}",
        report.render()
    );
    // Thread counts must never change results; the other two comparisons
    // locate divergence that is allowed to exist.
    if compare == "threads" && report.divergence.is_some() {
        eprintln!("bisect-drift: determinism violation — thread counts diverged");
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

/// The checkpoint-identity targets: every paper case of every app.
const CI_APPS: &[(&str, &[&str])] = &[
    ("metbench", &["A", "B", "C", "D"]),
    ("btmz", &["ST", "A", "B", "C", "D"]),
    ("siesta", &["ST", "A", "B", "C", "D"]),
];

/// Build one checkpoint-identity target. Parent and children call this
/// with the same arguments, so they reconstruct the identical run — the
/// snapshot's config hash cross-checks that.
fn ci_build(app: &str, case_name: &str, cycle: bool) -> Result<(Vec<Program>, Case), String> {
    let scale = if cycle { 2e-5 } else { 1e-3 };
    build_app(
        app,
        case_name,
        AppOverrides {
            scale: Some(scale),
            ..Default::default()
        },
    )
}

fn ci_run<'a>(
    programs: &'a [Program],
    case: &Case,
    stepping: Stepping,
    cycle: bool,
) -> StaticRun<'a> {
    let threads = std::env::var("MTB_JOBS")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(1);
    let mut run = StaticRun::new(programs, case.placement.clone())
        .with_priorities(case.priorities.clone())
        .with_stepping(stepping)
        .with_threads(threads);
    if cycle {
        run = run.cycle_accurate();
    }
    run
}

fn ci_parse(args: &Args) -> Result<(&str, &str, Stepping, bool), String> {
    let app = args.value("app").ok_or("missing --app")?;
    let case = args.value("case").ok_or("missing --case")?;
    let stepping = match args.value("stepping") {
        Some("event-horizon") => Stepping::EventHorizon,
        Some("quantum") => Stepping::Quantum,
        other => {
            return Err(format!(
                "--stepping {other:?}: expected event-horizon|quantum"
            ))
        }
    };
    let cycle = match args.value("fidelity") {
        Some("meso") => false,
        Some("cycle") => true,
        other => return Err(format!("--fidelity {other:?}: expected meso|cycle")),
    };
    Ok((app, case, stepping, cycle))
}

/// Child phase 1: step to the mid-run event boundary and write the
/// snapshot. The split point is deterministic — half the total event
/// count, probed by a full run in this same process.
fn ci_child_save(args: &Args, path: &str) -> Result<(), String> {
    let (app, case_name, stepping, cycle) = ci_parse(args)?;
    let (programs, case) = ci_build(app, case_name, cycle)?;
    let run = || ci_run(&programs, &case, stepping, cycle);

    let mut probe = prepare(&run()).map_err(|e| e.to_string())?;
    probe
        .step_events(&mut NullObserver, u64::MAX)
        .map_err(|e| e.to_string())?;
    let total = probe.events();
    let split = (total / 2).max(1);

    let mut engine = prepare(&run()).map_err(|e| e.to_string())?;
    engine
        .step_events(&mut NullObserver, split)
        .map_err(|e| e.to_string())?;
    write_snapshot(
        Path::new(path),
        config_hash_static(&run()),
        &engine.save_state(),
    )
    .map_err(|e| e.to_string())?;
    println!("saved at {} of {total} events", engine.events());
    Ok(())
}

/// Child phase 2: restore the snapshot into a freshly prepared engine,
/// finish the run, and print the record hash for the parent to compare.
fn ci_child_restore(args: &Args, path: &str) -> Result<(), String> {
    let (app, case_name, stepping, cycle) = ci_parse(args)?;
    let (programs, case) = ci_build(app, case_name, cycle)?;
    let run = ci_run(&programs, &case, stepping, cycle);
    let result = resume_run(&run, Path::new(path))?;
    println!(
        "record-hash {:016x}",
        mtb_bench::lint::record_hash(&case, &result)
    );
    Ok(())
}

fn cmd_checkpoint_identity(args: &Args) -> ExitCode {
    // Child phases (spawned below with the same binary).
    if let Some(path) = args.value("save") {
        return match ci_child_save(args, path) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("checkpoint-identity save: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if let Some(path) = args.value("restore") {
        return match ci_child_restore(args, path) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("checkpoint-identity restore: {e}");
                ExitCode::FAILURE
            }
        };
    }

    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("checkpoint-identity: cannot locate own binary: {e}");
            return ExitCode::FAILURE;
        }
    };
    let smoke = args.flag("smoke");
    let mut failures = 0usize;
    let mut targets = 0usize;
    for &(app, cases) in CI_APPS {
        if smoke && app != "metbench" {
            continue;
        }
        for &case_name in cases {
            for (stepping, stepping_s) in [
                (Stepping::EventHorizon, "event-horizon"),
                (Stepping::Quantum, "quantum"),
            ] {
                for (cycle, fidelity_s) in [(false, "meso"), (true, "cycle")] {
                    targets += 1;
                    let label = format!("{app} {case_name} {stepping_s} {fidelity_s}");
                    match ci_one_target(
                        &exe, app, case_name, stepping, stepping_s, cycle, fidelity_s,
                    ) {
                        Ok(line) => println!("ok   {label}: {line}"),
                        Err(e) => {
                            failures += 1;
                            eprintln!("FAIL {label}: {e}");
                        }
                    }
                }
            }
        }
    }
    println!(
        "checkpoint-identity: {}/{targets} targets identical",
        targets - failures
    );
    if failures > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// One target: whole-run record hash in-process, then save + restore in
/// fresh child processes, comparing the resumed record hash.
fn ci_one_target(
    exe: &Path,
    app: &str,
    case_name: &str,
    stepping: Stepping,
    stepping_s: &str,
    cycle: bool,
    fidelity_s: &str,
) -> Result<String, String> {
    let (programs, case) = ci_build(app, case_name, cycle)?;
    let run = ci_run(&programs, &case, stepping, cycle);
    let mut engine = prepare(&run).map_err(|e| e.to_string())?;
    engine
        .step_events(&mut NullObserver, u64::MAX)
        .map_err(|e| e.to_string())?;
    let whole = engine.into_result();
    let whole_hash = mtb_bench::lint::record_hash(&case, &whole);

    let snap = std::env::temp_dir().join(format!(
        "mtb-ci-{}-{app}-{case_name}-{stepping_s}-{fidelity_s}.snap",
        std::process::id()
    ));
    let child = |phase: &str| -> Result<String, String> {
        let out = std::process::Command::new(exe)
            .args([
                "checkpoint-identity",
                phase,
                snap.to_str().ok_or("non-UTF-8 temp path")?,
                "--app",
                app,
                "--case",
                case_name,
                "--stepping",
                stepping_s,
                "--fidelity",
                fidelity_s,
            ])
            .output()
            .map_err(|e| format!("spawn: {e}"))?;
        if !out.status.success() {
            return Err(format!(
                "child {phase} failed: {}",
                String::from_utf8_lossy(&out.stderr).trim()
            ));
        }
        Ok(String::from_utf8_lossy(&out.stdout).trim().to_string())
    };
    let result = (|| {
        let saved = child("--save")?;
        let restored = child("--restore")?;
        let resumed_hash = restored
            .lines()
            .find_map(|l| l.strip_prefix("record-hash "))
            .ok_or_else(|| format!("restore child printed no record hash: {restored:?}"))?
            .trim()
            .to_string();
        if resumed_hash != format!("{whole_hash:016x}") {
            return Err(format!(
                "record hash mismatch: whole {whole_hash:016x}, resumed {resumed_hash}"
            ));
        }
        Ok(format!("{saved}, record-hash {whole_hash:016x}"))
    })();
    std::fs::remove_file(&snap).ok();
    result
}

fn cmd_table_dynamic(args: &Args) -> Result<ExitCode, String> {
    use mtb_bench::table_dynamic as td;

    let mut ov = AppOverrides::from_args(args)?;
    ov.scale = ov
        .scale
        .or(Some(if args.flag("smoke") { 1e-3 } else { 1.0 }));
    let jobs = args
        .get::<usize>("jobs")?
        .or_else(|| std::env::var("MTB_JOBS").ok()?.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(4);
    let cfg = mtb_core::ControllerConfig::default();

    let rows = match td::run_report(ov, &cfg, jobs) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("table-dynamic: {e}");
            return Ok(ExitCode::FAILURE);
        }
    };
    let doc = td::report_to_json(&rows);
    if let Some(path) = args.value("out") {
        if let Err(e) = std::fs::write(path, doc.render()) {
            eprintln!("cannot write {path}: {e}");
            return Ok(ExitCode::FAILURE);
        }
    }
    if args.flag("json") {
        println!("{}", doc.render());
    } else {
        print!("{}", td::report_to_text(&rows));
    }
    Ok(if rows.iter().all(td::DynamicRow::passes) {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "dynamic-validate gate FAILED: a regression vs the best static \
             setting, a case-D inversion, or thread-count drift (see report)"
        );
        ExitCode::FAILURE
    })
}

fn cmd_suggest(args: &Args) -> Result<ExitCode, String> {
    use mtb_bench::suggest;

    let apps: Vec<&str> = match args.value("app") {
        None | Some("all") => suggest::SUGGEST_APPS.to_vec(),
        Some(app) => vec![app],
    };
    let top: usize = args.get("top")?.unwrap_or(5);
    let ov = AppOverrides::from_args(args)?;
    let json = args.flag("json");
    let out_path = args.value("out").map(Path::new);

    if args.flag("validate") {
        let mut validations = Vec::new();
        for app in &apps {
            match suggest::validate_app(app, ov) {
                Ok(v) => validations.push(v),
                Err(e) => {
                    eprintln!("suggest --validate {app}: {e}");
                    return Ok(ExitCode::FAILURE);
                }
            }
        }
        let doc = suggest::validations_to_json(&validations);
        if let Some(path) = out_path {
            if let Err(e) = std::fs::write(path, doc.render()) {
                eprintln!("cannot write {}: {e}", path.display());
                return Ok(ExitCode::FAILURE);
            }
        }
        if json {
            println!("{}", doc.render());
        } else {
            print!("{}", suggest::validations_to_text(&validations));
        }
        return Ok(if validations.iter().all(suggest::AppValidation::passes) {
            ExitCode::SUCCESS
        } else {
            eprintln!(
                "calibration gate FAILED: rank correlation < {} or the top \
                 plan loses to the paper's best setting",
                suggest::MIN_RANK_CORRELATION
            );
            ExitCode::FAILURE
        });
    }

    let mut docs = Vec::new();
    for app in &apps {
        match suggest::suggest(app, ov) {
            Ok(s) => {
                docs.push(suggest::suggestion_to_json(&s, top));
                if !json {
                    print!("{}", suggest::suggestion_to_text(&s, top));
                }
            }
            Err(e) => {
                eprintln!("suggest {app}: {e}");
                return Ok(ExitCode::FAILURE);
            }
        }
    }
    let doc = mtb_bench::json::Json::Arr(docs);
    if json {
        println!("{}", doc.render());
    }
    if let Some(path) = out_path {
        if let Err(e) = std::fs::write(path, doc.render()) {
            eprintln!("cannot write {}: {e}", path.display());
            return Ok(ExitCode::FAILURE);
        }
    }
    Ok(ExitCode::SUCCESS)
}
