//! Command-line plumbing for the `mtb` driver binary: the one argument
//! parser every subcommand goes through, and app/case resolution,
//! factored out so they can be unit-tested.

use crate::harness::SweepOptions;
use mtb_core::paper_cases::{self, Case};
use mtb_core::policy::PrioritySetting;
use mtb_mpisim::program::Program;
use mtb_oskernel::noise::interrupt_annoyance;
use mtb_oskernel::NoiseSource;
use mtb_workloads::synthetic::SyntheticConfig;
use mtb_workloads::{BtMzConfig, MetBenchConfig, SiestaConfig};

use std::str::FromStr;

/// The arguments one subcommand accepts, declared once.
#[derive(Debug)]
pub struct Spec {
    /// Subcommand name.
    pub name: &'static str,
    /// Bare `--flag`s.
    pub flags: &'static [&'static str],
    /// `--key value` (or `--key=value`) options.
    pub options: &'static [&'static str],
    /// How many positional arguments it takes at most.
    pub positionals: usize,
}

/// Harness options every subcommand accepts; [`sweep_options`] turns
/// them into the options of the process-wide sweep runner, whatever the
/// subcommand.
const HARNESS_OPTIONS: &[&str] = &["jobs", "checkpoint-every"];
const HARNESS_FLAGS: &[&str] = &["no-cache"];

/// Every `mtb` subcommand but `help`, with the arguments it declares.
#[rustfmt::skip]
const COMMANDS: &[Spec] = &[
    Spec { name: "run", flags: &["dynamic", "gantt", "cycle-accurate"], positionals: 0,
           options: &["app", "case", "kernel", "noise", "scale", "iterations", "seed", "resume"] },
    Spec { name: "tables", flags: &["gantt"], options: &[], positionals: 1 },
    Spec { name: "ext", flags: &[], options: &[], positionals: 1 },
    Spec { name: "sweep", flags: &[], options: &["app"], positionals: 0 },
    Spec { name: "lint", flags: &["all-cases", "json", "selftest"], positionals: 0,
           options: &["app", "case", "deny"] },
    Spec { name: "suggest", flags: &["validate", "json"], positionals: 0,
           options: &["app", "top", "scale", "iterations", "seed", "out"] },
    Spec { name: "table-dynamic", flags: &["smoke", "json"], positionals: 0,
           options: &["scale", "iterations", "seed", "out"] },
    Spec { name: "bench", flags: &["smoke"], options: &["out"], positionals: 0 },
    Spec { name: "bisect-drift", flags: &[], positionals: 0,
           options: &["compare", "app", "case", "window", "scale", "noise"] },
    // `save`/`restore` and the target options are the child phases the
    // command spawns itself.
    Spec { name: "checkpoint-identity", flags: &["smoke"], positionals: 0,
           options: &["save", "restore", "app", "case", "stepping", "fidelity"] },
];

/// The declared arguments of subcommand `name`.
pub fn spec(name: &str) -> Option<&'static Spec> {
    COMMANDS.iter().find(|s| s.name == name)
}

/// Why [`parse`] returned no [`Args`].
#[derive(Debug, PartialEq)]
pub enum ArgError {
    /// `--help` or `-h`: print usage and succeed.
    Help,
    /// Anything else: print the message and usage, and fail.
    Invalid(String),
}

/// One subcommand's parsed arguments.
#[derive(Debug, Default)]
pub struct Args {
    options: Vec<(&'static str, String)>,
    flags: Vec<&'static str>,
    positionals: Vec<String>,
}

impl Args {
    /// Whether `--name` was given.
    pub fn flag(&self, name: &str) -> bool {
        self.flags.contains(&name)
    }

    /// The value of `--name` (the last one when repeated).
    pub fn value(&self, name: &str) -> Option<&str> {
        self.options
            .iter()
            .rev()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }

    /// The value of `--name` parsed as `T`; a value that does not parse is
    /// an error, never a silent default.
    pub fn get<T: FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.value(name)
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("--{name} {v:?}: not a valid value"))
            })
            .transpose()
    }

    /// The first positional argument.
    pub fn positional(&self) -> Option<&str> {
        self.positionals.first().map(String::as_str)
    }
}

/// Parse `args` (the words after the subcommand) against `spec`. Options
/// take `--key value` or `--key=value`; an unknown option, a missing value
/// and an unparsable harness value (`--jobs`, `--checkpoint-every`) are
/// errors. `--help`/`-h` anywhere wins.
pub fn parse(spec: &Spec, args: &[String]) -> Result<Args, ArgError> {
    if args.iter().any(|a| a == "--help" || a == "-h") {
        return Err(ArgError::Help);
    }
    let invalid = |msg: String| ArgError::Invalid(format!("{}: {msg}", spec.name));
    let mut out = Args::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let Some(body) = a.strip_prefix("--") else {
            if out.positionals.len() == spec.positionals {
                return Err(invalid(format!("unexpected argument {a:?}")));
            }
            out.positionals.push(a.clone());
            continue;
        };
        let (key, inline) = match body.split_once('=') {
            Some((k, v)) => (k, Some(v)),
            None => (body, None),
        };
        if let Some(&flag) = spec.flags.iter().chain(HARNESS_FLAGS).find(|f| **f == key) {
            if inline.is_some() {
                return Err(invalid(format!("--{key} takes no value")));
            }
            out.flags.push(flag);
        } else if let Some(&opt) = spec
            .options
            .iter()
            .chain(HARNESS_OPTIONS)
            .find(|o| **o == key)
        {
            let value = match inline {
                Some(v) => v.to_string(),
                None => it
                    .next()
                    .filter(|v| !v.starts_with("--"))
                    .ok_or_else(|| invalid(format!("--{key} needs a value")))?
                    .clone(),
            };
            out.options.push((opt, value));
        } else {
            return Err(invalid(format!("unknown option --{key}")));
        }
    }
    out.get::<usize>("jobs").map_err(invalid)?;
    out.get::<u64>("checkpoint-every").map_err(invalid)?;
    Ok(out)
}

/// The sweep runner's options under `args`' harness options, over
/// [`SweepOptions::default`]: `--jobs N` is the job count (0 means 1),
/// `--no-cache` bypasses the record cache, and `--checkpoint-every N` is
/// the checkpoint interval in engine events (0 disables checkpoints).
pub fn sweep_options(args: &Args) -> Result<SweepOptions, String> {
    let mut opts = SweepOptions::default();
    opts.jobs = args.get::<usize>("jobs")?.unwrap_or(opts.jobs).max(1);
    opts.cache = !args.flag("no-cache");
    if let Some(n) = args.get::<u64>("checkpoint-every")? {
        opts.checkpoint_every = (n > 0).then_some(n);
    }
    Ok(opts)
}

/// Workload overrides shared by the CLI paths.
#[derive(Debug, Clone, Copy, Default)]
pub struct AppOverrides {
    /// Work multiplier (1.0 when `None`).
    pub scale: Option<f64>,
    /// Iteration-count override.
    pub iterations: Option<u32>,
    /// Seed override.
    pub seed: Option<u64>,
}

impl AppOverrides {
    /// `--scale` (a positive, finite multiplier), `--iterations` and
    /// `--seed` from `args`.
    pub fn from_args(args: &Args) -> Result<AppOverrides, String> {
        let scale: Option<f64> = args.get("scale")?;
        if let Some(s) = scale.filter(|s| !(s.is_finite() && *s > 0.0)) {
            return Err(format!("--scale {s}: expected a positive number"));
        }
        Ok(AppOverrides {
            scale,
            iterations: args.get("iterations")?,
            seed: args.get("seed")?,
        })
    }

    /// Apply the iteration and seed overrides to a workload's fields.
    fn apply(self, iterations: &mut u32, seed: &mut u64) {
        if let Some(i) = self.iterations {
            *iterations = i;
        }
        if let Some(s) = self.seed {
            *seed = s;
        }
    }
}

/// Every app [`build_app`] knows, in report order: the paper's three
/// (Tables IV–VI), then the synthetic benchmark.
pub const APPS: &[&str] = &["metbench", "btmz", "siesta", "synthetic"];

/// The apps with a paper table: [`APPS`] without the synthetic benchmark.
pub const PAPER_APPS: &[&str] = APPS.split_at(3).0;

fn unknown_app(app: &str) -> String {
    format!("unknown app {app:?} (expected {})", APPS.join("|"))
}

/// The paper cases of `app`, its ST row first where the paper has one.
pub fn app_cases(app: &str) -> Result<Vec<Case>, String> {
    Ok(match app {
        "metbench" => paper_cases::metbench_cases(),
        "btmz" => std::iter::once(paper_cases::btmz_st_case())
            .chain(paper_cases::btmz_cases())
            .collect(),
        "siesta" => std::iter::once(paper_cases::siesta_st_case())
            .chain(paper_cases::siesta_cases())
            .collect(),
        "synthetic" => vec![Case {
            name: "A",
            placement: SyntheticConfig::default().placement(),
            priorities: vec![PrioritySetting::Default; 4],
        }],
        other => return Err(unknown_app(other)),
    })
}

/// The SMT cases of `app`: its [`app_cases`] without the ST row, whose
/// two-rank programs do not compare with the others. The static ladder
/// the plan search and the controller are measured against.
pub(crate) fn smt_cases(app: &str) -> Result<Vec<Case>, String> {
    let mut cases = app_cases(app)?;
    cases.retain(|c| c.name != "ST");
    Ok(cases)
}

/// Every `(app, case)` pair of `apps`, each app's cases in
/// [`app_cases`] order.
///
/// # Panics
/// Panics on an app outside [`APPS`].
pub fn app_targets(apps: &[&'static str]) -> Vec<(&'static str, &'static str)> {
    apps.iter()
        .flat_map(|&app| {
            app_cases(app)
                .unwrap_or_else(|e| panic!("{e}"))
                .into_iter()
                .map(move |c| (app, c.name))
        })
        .collect()
}

/// The rank programs of `app` under `ov`: its two-rank ST variant when
/// `st` (BT-MZ and SIESTA), the four-rank one otherwise.
pub(crate) fn app_programs(app: &str, st: bool, ov: AppOverrides) -> Result<Vec<Program>, String> {
    let scale = ov.scale.unwrap_or(1.0);
    Ok(match app {
        "metbench" => {
            let mut cfg = MetBenchConfig {
                scale,
                ..Default::default()
            };
            ov.apply(&mut cfg.iterations, &mut cfg.seed);
            cfg.programs()
        }
        "btmz" => {
            let base = if st {
                BtMzConfig::st_mode()
            } else {
                BtMzConfig::default()
            };
            let mut cfg = BtMzConfig { scale, ..base };
            ov.apply(&mut cfg.iterations, &mut cfg.seed);
            cfg.programs()
        }
        "siesta" => {
            let base = if st {
                SiestaConfig::st_mode()
            } else {
                SiestaConfig::default()
            };
            let mut cfg = SiestaConfig { scale, ..base };
            ov.apply(&mut cfg.iterations, &mut cfg.seed);
            cfg.programs()
        }
        "synthetic" => {
            let mut cfg = SyntheticConfig::default();
            cfg.base_work = (cfg.base_work as f64 * scale) as u64;
            ov.apply(&mut cfg.iterations, &mut cfg.seed);
            cfg.programs()
        }
        other => return Err(unknown_app(other)),
    })
}

/// Resolve an app name + case label into rank programs and the case
/// configuration (placement + priorities).
pub fn build_app(
    app: &str,
    case_name: &str,
    ov: AppOverrides,
) -> Result<(Vec<Program>, Case), String> {
    let case = app_cases(app)?
        .into_iter()
        .find(|c| c.name.eq_ignore_ascii_case(case_name))
        .ok_or_else(|| format!("no case {case_name:?} for app {app:?}"))?;
    Ok((app_programs(app, case.name == "ST", ov)?, case))
}

/// The noise `--noise <duty-pct>` asks for: [`cpu0_irq_noise`] at that
/// duty cycle (none when absent); a duty cycle above 50 is an error.
pub fn noise_arg(args: &Args) -> Result<Vec<NoiseSource>, String> {
    let duty: u64 = args.get("noise")?.unwrap_or(0);
    if duty > 50 {
        return Err(format!("--noise {duty}: expected a duty cycle of 0-50 (%)"));
    }
    Ok(cpu0_irq_noise(duty))
}

/// Section II-B's interrupt annoyance on the paper's two cores: 1 kHz
/// timer ticks on every context, plus device interrupts on CPU0 busy for
/// `duty_pct` percent (at most 50) of each 500k-cycle period.
pub fn cpu0_irq_noise(duty_pct: u64) -> Vec<NoiseSource> {
    if duty_pct == 0 {
        return Vec::new();
    }
    let period = 500_000;
    interrupt_annoyance(2, 1_500_000, 7_500, period, period * duty_pct.min(50) / 100)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::config_hash;

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    fn parse_as(cmd: &str, v: &[&str]) -> Result<Args, ArgError> {
        parse(spec(cmd).unwrap(), &args(v))
    }

    fn invalid(r: Result<Args, ArgError>) -> String {
        match r {
            Err(ArgError::Invalid(msg)) => msg,
            other => panic!("expected an error, got {other:?}"),
        }
    }

    #[test]
    fn parses_options_and_flags() {
        let a = parse_as(
            "run",
            &["--app", "btmz", "--case=D", "--gantt", "--dynamic"],
        )
        .unwrap();
        assert_eq!(a.value("app"), Some("btmz"));
        assert_eq!(a.value("case"), Some("D"));
        assert!(a.flag("gantt") && a.flag("dynamic"));
        assert!(!a.flag("cycle-accurate"));
        let a = parse_as("suggest", &["--app", "all", "--validate", "--top", "3"]).unwrap();
        assert!(a.flag("validate"));
        assert_eq!(a.get::<usize>("top"), Ok(Some(3)));
    }

    #[test]
    fn every_command_accepts_the_harness_options_in_both_forms() {
        for s in COMMANDS {
            for form in [
                &["--jobs", "4", "--no-cache", "--checkpoint-every", "10"][..],
                &["--jobs=4", "--no-cache", "--checkpoint-every=10"],
            ] {
                let a = parse(s, &args(form)).unwrap_or_else(|e| panic!("{}: {e:?}", s.name));
                assert_eq!(a.get::<usize>("jobs"), Ok(Some(4)), "{}", s.name);
                assert!(a.flag("no-cache"), "{}", s.name);
            }
        }
    }

    #[test]
    fn typos_and_bad_values_are_errors() {
        assert!(invalid(parse_as("run", &["--scael", "0.001"])).contains("unknown option --scael"));
        assert!(invalid(parse_as("run", &["--app"])).contains("needs a value"));
        assert!(invalid(parse_as("run", &["--app", "--gantt"])).contains("needs a value"));
        assert!(invalid(parse_as("run", &["app"])).contains("unexpected argument"));
        assert!(invalid(parse_as("run", &["--gantt=yes"])).contains("takes no value"));
        assert!(invalid(parse_as("lint", &["--jobs", "x"])).contains("--jobs"));
        assert!(invalid(parse_as("tables", &["4", "5"])).contains("unexpected argument"));
        assert!(invalid(parse_as("bench", &["--checkpoint-every=-1"])).contains("checkpoint"));
        // Typed values fail at the first read, not with a default.
        let a = parse_as("run", &["--scale", "1e-3x", "--noise", "five"]).unwrap();
        assert!(a.get::<f64>("scale").is_err());
        assert!(a.get::<u64>("noise").is_err());
        assert!(AppOverrides::from_args(&a).is_err());
        for bad in ["0", "-1", "NaN", "inf"] {
            let a = parse_as("run", &["--scale", bad]).unwrap();
            assert!(AppOverrides::from_args(&a).is_err(), "--scale {bad}");
        }
        let a = parse_as("suggest", &["--scale=1e-3"]).unwrap();
        assert_eq!(AppOverrides::from_args(&a).unwrap().scale, Some(1e-3));
    }

    #[test]
    fn sweep_options_parse_jobs_and_no_cache() {
        let o = |v: &[&str]| sweep_options(&parse_as("run", v).unwrap()).unwrap();
        let a = o(&["--jobs", "3", "--no-cache", "--app", "btmz"]);
        assert_eq!(a.jobs, 3);
        assert!(!a.cache);
        let a = o(&["--jobs=2"]);
        assert_eq!(a.jobs, 2);
        assert!(a.cache);
        assert_eq!(
            o(&["--jobs", "0"]).jobs,
            1,
            "job count is clamped to at least 1"
        );
        assert_eq!(o(&[]).jobs, SweepOptions::default().jobs.max(1));
        // A malformed value is a usage error, never a silent default.
        assert!(invalid(parse_as("run", &["--jobs", "x"])).contains("--jobs"));
    }

    #[test]
    fn sweep_options_parse_checkpoint_every() {
        let o = |v: &[&str]| sweep_options(&parse_as("tables", v).unwrap()).unwrap();
        assert_eq!(
            o(&["--checkpoint-every", "500"]).checkpoint_every,
            Some(500)
        );
        assert_eq!(o(&["--checkpoint-every=32"]).checkpoint_every, Some(32));
        assert_eq!(
            o(&["--checkpoint-every", "0"]).checkpoint_every,
            None,
            "0 disables checkpointing"
        );
    }

    #[test]
    fn help_wins_anywhere() {
        for cmd in ["run", "tables", "ext", "checkpoint-identity"] {
            assert_eq!(
                parse_as(cmd, &["--bogus", "--help"]).unwrap_err(),
                ArgError::Help
            );
            assert_eq!(parse_as(cmd, &["-h"]).unwrap_err(), ArgError::Help);
        }
    }

    #[test]
    fn positionals_are_counted() {
        let a = parse_as("tables", &["5", "--gantt"]).unwrap();
        assert_eq!(a.positional(), Some("5"));
        assert!(a.flag("gantt"));
        assert_eq!(parse_as("ext", &[]).unwrap().positional(), None);
    }

    /// Every `mtb` invocation the docs and CI workflows show parses.
    #[test]
    fn documented_commands_parse() {
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
        let mut seen = 0;
        for file in [
            "README.md",
            "EXPERIMENTS.md",
            ".github/workflows/ci.yml",
            ".github/workflows/nightly.yml",
        ] {
            let text = std::fs::read_to_string(format!("{root}/{file}")).unwrap();
            let joined = text.replace("\\\n", " ");
            for line in joined.lines() {
                let Some((_, rest)) = line
                    .split_once("--bin mtb -- ")
                    .or_else(|| line.split_once("target/release/mtb "))
                    .or_else(|| line.split_once("ARGS=\""))
                else {
                    continue;
                };
                // The command ends where the shell or markdown syntax starts.
                let rest = rest
                    .split(&['"', '`', '#', '|', '>', '[', ')'][..])
                    .next()
                    .unwrap_or("");
                let words: Vec<String> = rest.split_whitespace().map(String::from).collect();
                let Some(cmd) = words.first() else { continue };
                if cmd == "help" || cmd.starts_with('$') {
                    continue;
                }
                let s = spec(cmd).unwrap_or_else(|| panic!("{file}: unknown command in {line:?}"));
                if let Err(e) = parse(s, &words[1..]) {
                    panic!("{file}: {line:?} does not parse: {e:?}");
                }
                seen += 1;
            }
        }
        assert!(seen >= 30, "found only {seen} documented commands");
    }

    #[test]
    fn builds_every_app_and_case() {
        for &app in APPS {
            let (progs, case) = build_app(
                app,
                "A",
                AppOverrides {
                    scale: Some(1e-3),
                    ..Default::default()
                },
            )
            .unwrap_or_else(|e| panic!("{app}: {e}"));
            assert_eq!(progs.len(), 4, "{app}");
            assert_eq!(case.placement.len(), 4, "{app}");
        }
        // ST variants.
        for app in ["btmz", "siesta"] {
            let (progs, case) = build_app(app, "ST", AppOverrides::default()).unwrap();
            assert_eq!(progs.len(), 2, "{app} ST");
            assert_eq!(case.name, "ST");
        }
    }

    #[test]
    fn unknown_app_and_case_are_errors() {
        assert!(build_app("nope", "A", AppOverrides::default()).is_err());
        assert!(build_app("btmz", "Z", AppOverrides::default()).is_err());
        assert!(build_app("metbench", "ST", AppOverrides::default()).is_err());
    }

    #[test]
    fn case_names_are_case_insensitive() {
        let (_, case) = build_app(
            "metbench",
            "c",
            AppOverrides {
                scale: Some(1e-3),
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(case.name, "C");
    }

    #[test]
    fn overrides_apply() {
        let ov = AppOverrides {
            scale: Some(0.5),
            iterations: Some(7),
            seed: Some(99),
        };
        let (progs, _) = build_app("metbench", "A", ov).unwrap();
        let ops = mtb_mpisim::interp::flatten(&progs[0], 0);
        let barriers = mtb_mpisim::interp::count_sync_epochs(&ops);
        assert_eq!(barriers, 7, "iteration override respected");
    }

    #[test]
    fn seed_applies_to_st_rows() {
        for app in ["btmz", "siesta"] {
            let hash = |seed| {
                let ov = AppOverrides {
                    scale: Some(1e-3),
                    seed,
                    ..Default::default()
                };
                let (progs, case) = build_app(app, "ST", ov).unwrap();
                config_hash(&case, &progs)
            };
            assert_ne!(hash(Some(7)), hash(None), "{app} ST ignores --seed");
        }
    }

    #[test]
    fn irq_noise_clamps_the_duty_cycle() {
        assert!(cpu0_irq_noise(0).is_empty());
        assert_eq!(
            format!("{:?}", cpu0_irq_noise(50)),
            format!("{:?}", cpu0_irq_noise(90))
        );
        assert_ne!(
            format!("{:?}", cpu0_irq_noise(5)),
            format!("{:?}", cpu0_irq_noise(10))
        );
    }
}
