//! End-to-end smoke tests of the `mtb` CLI binary.

use std::path::PathBuf;
use std::process::Command;

fn mtb(args: &[&str]) -> (bool, String, String) {
    mtb_in(None, args)
}

/// Run `mtb`, with `MTB_RUN_DIR` set to `run_dir` when given.
fn mtb_in(run_dir: Option<&std::path::Path>, args: &[&str]) -> (bool, String, String) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_mtb"));
    cmd.args(args);
    if let Some(dir) = run_dir {
        cmd.env("MTB_RUN_DIR", dir);
    }
    let out = cmd.output().expect("mtb binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn help_prints_usage() {
    let (ok, stdout, _) = mtb(&["help"]);
    assert!(ok);
    assert!(stdout.contains("USAGE"));
    assert!(stdout.contains("metbench | btmz | siesta | synthetic"));
}

#[test]
fn run_executes_a_tiny_case() {
    let (ok, stdout, stderr) = mtb(&[
        "run",
        "--app",
        "metbench",
        "--case",
        "C",
        "--scale",
        "0.001",
        "--iterations",
        "5",
    ]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("metbench case C"), "{stdout}");
    assert!(stdout.contains("imbalance"));
}

#[test]
fn run_with_gantt_renders_a_chart() {
    let (ok, stdout, _) = mtb(&[
        "run",
        "--app",
        "synthetic",
        "--scale",
        "0.001",
        "--iterations",
        "2",
        "--gantt",
    ]);
    assert!(ok);
    assert!(stdout.contains("legend:"), "{stdout}");
}

#[test]
fn dynamic_flag_reports_policy_activity() {
    let (ok, stdout, _) = mtb(&[
        "run",
        "--app",
        "metbench",
        "--scale",
        "0.002",
        "--iterations",
        "10",
        "--dynamic",
    ]);
    assert!(ok);
    assert!(stdout.contains("dynamic policy:"), "{stdout}");
}

#[test]
fn vanilla_kernel_rejects_procfs_cases() {
    let (ok, _, stderr) = mtb(&[
        "run", "--app", "metbench", "--case", "C", "--scale", "0.001", "--kernel", "vanilla",
    ]);
    assert!(
        !ok,
        "case C needs priority 6 via procfs — impossible on vanilla"
    );
    assert!(stderr.contains("hmt_priority"), "{stderr}");
}

#[test]
fn bad_arguments_fail_with_usage() {
    let (ok, _, stderr) = mtb(&["run", "--app", "nonsense"]);
    assert!(!ok);
    assert!(stderr.contains("unknown app"));
    let (ok2, _, stderr2) = mtb(&["frobnicate"]);
    assert!(!ok2);
    assert!(stderr2.contains("unknown command"));
}

#[test]
fn sweep_prints_all_differences() {
    let (ok, stdout, _) = mtb(&["sweep", "--app", "synthetic"]);
    assert!(ok);
    for d in 0..=4 {
        assert!(stdout.contains(&format!("diff {d}")), "{stdout}");
    }
}

#[test]
fn typos_and_bad_values_fail_instead_of_running_defaults() {
    let base = ["run", "--app", "metbench", "--iterations", "2"];
    for extra in [
        &["--scael", "0.001"][..],
        &["--scale", "1e-3x"],
        &["--kernel", "vanila"],
        &["--noise", "five"],
        &["--noise", "60"],
        &["--jobs", "two"],
        &["--checkpoint-every=x"],
        &["--scale"],
    ] {
        let args: Vec<&str> = base.iter().chain(extra).copied().collect();
        let (ok, stdout, stderr) = mtb(&args);
        assert!(!ok, "{args:?} ran: {stdout}");
        assert!(stderr.contains("USAGE"), "{args:?}: {stderr}");
        assert!(stdout.is_empty(), "{args:?} printed {stdout}");
    }
}

#[test]
fn help_after_any_command_prints_usage() {
    for cmd in ["run", "tables", "ext", "lint", "checkpoint-identity"] {
        for flag in ["--help", "-h"] {
            let (ok, stdout, _) = mtb(&[cmd, flag]);
            assert!(ok, "{cmd} {flag}");
            assert!(stdout.contains("USAGE"), "{cmd} {flag}: {stdout}");
        }
    }
}

#[test]
fn harness_options_take_both_forms() {
    let (ok, _, stderr) = mtb(&[
        "run",
        "--app",
        "synthetic",
        "--scale=0.001",
        "--iterations",
        "2",
        "--jobs=1",
        "--no-cache",
    ]);
    assert!(ok, "{stderr}");
}

/// A fresh, empty record cache directory for one test.
fn fresh_run_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mtb-cli-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn archive(stem: &str) -> String {
    let path = format!(
        "{}/../../docs/sample_output/{stem}.txt",
        env!("CARGO_MANIFEST_DIR")
    );
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

#[test]
fn registry_commands_reproduce_their_archives() {
    for (stem, args) in [
        ("table1", &["tables", "1"][..]),
        ("table2", &["tables", "2"]),
        ("fig1", &["ext", "fig1"]),
    ] {
        let dir = fresh_run_dir(stem);
        let (ok, stdout, stderr) = mtb_in(Some(&dir), args);
        std::fs::remove_dir_all(&dir).ok();
        assert!(ok, "{args:?}: {stderr}");
        assert!(
            stdout == archive(stem),
            "mtb {args:?} differs from {stem}.txt"
        );
    }
}

#[test]
fn unknown_registry_names_fail_with_the_valid_ones() {
    let (ok, _, stderr) = mtb(&["ext", "nosuch"]);
    assert!(!ok);
    assert!(stderr.contains("fig1, report, fidelity"), "{stderr}");
    let (ok, _, stderr) = mtb(&["tables", "7"]);
    assert!(!ok);
    assert!(stderr.contains("1, 2, 3, 4, 5, 6, all"), "{stderr}");
}

#[test]
fn ext_alone_lists_the_registry() {
    let (ok, stdout, _) = mtb(&["ext"]);
    assert!(ok);
    assert_eq!(stdout.lines().count(), 20, "{stdout}");
    assert!(stdout.contains("mtb tables 5"), "{stdout}");
    assert!(stdout.contains("mtb ext noise"), "{stdout}");
}
