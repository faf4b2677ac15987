//! Resume identity: `run(0..T)` must equal
//! `run(0..k) → snapshot → file → restore → run(k..T)` bit for bit —
//! for random seeds, priorities, placements, split points, stepping
//! modes, thread counts, noise sources and kernels, including splits
//! taken while a noise handler window is open — and corrupt snapshot
//! files must be rejected by the framing layer, never handed to the
//! decoder.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use mtb_core::balance::{execute, execute_chunked, prepare, CheckpointSink, StaticRun};
use mtb_core::PrioritySetting;
use mtb_mpisim::engine::RunResult;
use mtb_mpisim::{Engine, NullObserver, Stepping};
use mtb_oskernel::{CtxAddr, KernelConfig, NoiseSource};
use mtb_smtsim::PrivilegeLevel;
use mtb_snap::{fnv1a, read_snapshot, state_hash, write_snapshot, SnapError};
use mtb_workloads::synthetic::SyntheticConfig;
use proptest::prelude::*;

/// A fresh snapshot path per call so concurrent test threads never race
/// on the same file.
fn snap_path() -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "mtb-snap-test-{}-{}.snap",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Map a Lehmer index in `0..24` to a permutation of the 4 CPUs — a
/// random rank placement.
fn placement_from(perm: usize) -> Vec<CtxAddr> {
    let mut pool = vec![0usize, 1, 2, 3];
    let mut code = perm % 24;
    let mut out = Vec::new();
    for radix in (1..=4).rev() {
        out.push(CtxAddr::from_cpu(pool.remove(code % radix)));
        code /= radix;
    }
    out
}

struct Params {
    seed: u64,
    prios: Vec<PrioritySetting>,
    placement: Vec<CtxAddr>,
    stepping: Stepping,
    threads: usize,
    cycle: bool,
    noise: Vec<NoiseSource>,
    vanilla: bool,
}

fn mk_run<'a>(progs: &'a [mtb_mpisim::Program], p: &Params) -> StaticRun<'a> {
    let mut prios = p.prios.clone();
    let mut kernel = KernelConfig::patched();
    if p.vanilla {
        // No procfs on a stock kernel: the user-space or-nop reaches 2..=4.
        kernel = KernelConfig::vanilla();
        for s in &mut prios {
            if let PrioritySetting::ProcFs(v) = *s {
                *s = PrioritySetting::OrNop(v.clamp(2, 4), PrivilegeLevel::User);
            }
        }
    }
    let mut run = StaticRun::new(progs, p.placement.clone())
        .with_priorities(prios)
        .with_kernel(kernel)
        .with_noise(p.noise.clone())
        .with_stepping(p.stepping)
        .with_threads(p.threads);
    if p.cycle {
        run = run.cycle_accurate();
    }
    run
}

/// One random noise source on one of the 4 contexts: periodic, or a
/// one-shot window when `kind` is 3. Windows take up to 60% of the
/// period, so many engine events fall inside one.
fn noise_source(kind: u8, cpu: usize, period: u64, cost_pct: u64, phase: u64) -> NoiseSource {
    let cost = (period * cost_pct / 100).clamp(1, period - 1);
    let target = CtxAddr::from_cpu(cpu);
    if kind == 3 {
        NoiseSource::once("once", target, phase, cost)
    } else {
        NoiseSource {
            name: format!("n{kind}"),
            target,
            period,
            cost,
            phase,
            one_shot: false,
        }
    }
}

fn synthetic(p: &Params) -> SyntheticConfig {
    SyntheticConfig {
        base_work: if p.cycle { 30_000 } else { 80_000 },
        iterations: 2,
        seed: p.seed,
        ..Default::default()
    }
}

/// The event counts after which some context of `p`'s run sits inside a
/// noise handler window, in order.
fn splits_in_handler_windows(p: &Params) -> Vec<u64> {
    let progs = synthetic(p).programs();
    let mut engine = prepare(&mk_run(&progs, p)).unwrap();
    let mut splits = Vec::new();
    while !engine.step_events(&mut NullObserver, 1).unwrap() {
        let open = engine
            .save_state()
            .machine
            .ctx_state
            .iter()
            .flatten()
            .any(|c| c.in_handler);
        if open {
            splits.push(engine.events());
        }
    }
    splits
}

fn finish(mut engine: Engine) -> RunResult {
    let done = engine.step_events(&mut NullObserver, u64::MAX).unwrap();
    assert!(done);
    engine.into_result()
}

/// The invariant itself: run whole; run split-at-`k` with the state
/// round-tripped through an on-disk snapshot into a *fresh* engine;
/// results must be equal (RunResult includes full timelines, stats and
/// comm logs, so equality is bit-identity of everything observable).
fn assert_resume_identity(p: &Params, split: u64) {
    let progs = synthetic(p).programs();
    let whole = finish(prepare(&mk_run(&progs, p)).unwrap());

    let mut first = prepare(&mk_run(&progs, p)).unwrap();
    let done = first.step_events(&mut NullObserver, split).unwrap();
    if done {
        // Split point beyond the end of the run: nothing left to resume.
        assert_eq!(first.into_result(), whole);
        return;
    }
    let state = first.save_state();
    let config_hash = fnv1a(&p.seed.to_le_bytes());
    let path = snap_path();
    write_snapshot(&path, config_hash, &state).unwrap();
    let snap = read_snapshot(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(snap.config_hash, config_hash);
    assert_eq!(snap.events, state.events);
    assert_eq!(
        state_hash(&snap.state),
        state_hash(&state),
        "file round-trip must be lossless"
    );

    let mut second = prepare(&mk_run(&progs, p)).unwrap();
    second.restore_state(&snap.state).unwrap();
    assert_eq!(
        finish(second),
        whole,
        "resumed run diverged (seed {}, split {split})",
        p.seed
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn meso_resume_is_bit_identical(
        seed in 0u64..10_000,
        raw_prios in (1u8..=6, 1u8..=6),
        perm in 0usize..24,
        split in 1u64..60,
        knobs in (0usize..2, 0usize..2, 0usize..2),
        noise in proptest::collection::vec(
            (0u8..4, 0usize..4, 2_000u64..60_000, 1u64..60, 0u64..80_000), 0..4),
    ) {
        let (threads_sel, stepping_sel, kernel_sel) = knobs;
        let p = Params {
            seed,
            prios: vec![
                PrioritySetting::ProcFs(raw_prios.0),
                PrioritySetting::ProcFs(raw_prios.1),
                PrioritySetting::Default,
                PrioritySetting::Default,
            ],
            placement: placement_from(perm),
            stepping: [Stepping::EventHorizon, Stepping::Quantum][stepping_sel],
            threads: [1, 4][threads_sel],
            cycle: false,
            noise: noise
                .iter()
                .map(|&(kind, cpu, period, cost_pct, phase)| {
                    noise_source(kind, cpu, period, cost_pct, phase)
                })
                .collect(),
            vanilla: kernel_sel == 1,
        };
        // Prefer a split taken while a handler window is open: the
        // resumed machine must rebuild its noise calendars mid-window.
        let open = splits_in_handler_windows(&p);
        let split = if open.is_empty() {
            split
        } else {
            open[split as usize % open.len()]
        };
        assert_resume_identity(&p, split);
    }

    #[test]
    fn cycle_resume_is_bit_identical(
        seed in 0u64..10_000,
        perm in 0usize..24,
        // Wide enough that split points land throughout the run —
        // including mid steady decode window, where the SMT cores' hot
        // engine must exit at the boundary and rebuild on resume.
        split in 1u64..40,
        stepping_sel in 0usize..2,
    ) {
        let p = Params {
            seed,
            prios: vec![PrioritySetting::ProcFs(6), PrioritySetting::ProcFs(2)],
            placement: placement_from(perm),
            stepping: [Stepping::EventHorizon, Stepping::Quantum][stepping_sel],
            threads: 1,
            cycle: true,
            noise: Vec::new(),
            vanilla: false,
        };
        assert_resume_identity(&p, split);
    }
}

/// A sink that only counts offers (no file I/O): used to force the
/// checkpoint machinery at every boundary without measuring the disk.
struct CountSink {
    offers: u64,
}

impl CheckpointSink for CountSink {
    fn on_checkpoint(&mut self, _events: u64, _engine: &Engine) {
        self.offers += 1;
    }
}

/// Cycle-accurate chunked execution with a checkpoint offered at EVERY
/// event: each boundary forces the SMT cores' fast-forward engine to
/// exit mid steady decode window (event boundaries are not aligned to
/// the 64-cycle grant period) and re-enter afterwards. The chunked
/// result must equal straight execution bit for bit.
#[test]
fn cycle_chunked_checkpoints_split_steady_windows() {
    let cfg = SyntheticConfig {
        base_work: 30_000,
        iterations: 2,
        ..Default::default()
    };
    let progs = cfg.programs();
    let mk = || {
        StaticRun::new(&progs, cfg.placement())
            .with_priorities(vec![PrioritySetting::ProcFs(6), PrioritySetting::ProcFs(2)])
            .cycle_accurate()
    };
    let straight = execute(mk()).unwrap();
    let mut sink = CountSink { offers: 0 };
    let chunked = execute_chunked(
        mk().with_checkpoint_every(1),
        None,
        &mut NullObserver,
        &mut sink,
    )
    .unwrap();
    assert_eq!(chunked, straight);
    assert!(
        sink.offers > 1,
        "per-event checkpointing must offer at every boundary"
    );
}

/// A sink that snapshots every offer to one file, like the harness does.
struct FileSink {
    path: PathBuf,
    config_hash: u64,
    offers: u64,
}

impl CheckpointSink for FileSink {
    fn on_checkpoint(&mut self, _events: u64, engine: &Engine) {
        write_snapshot(&self.path, self.config_hash, &engine.save_state()).unwrap();
        self.offers += 1;
    }
}

#[test]
fn chunked_execution_with_sink_matches_execute() {
    let cfg = SyntheticConfig {
        base_work: 80_000,
        iterations: 2,
        ..Default::default()
    };
    let progs = cfg.programs();
    let mk = || {
        StaticRun::new(&progs, cfg.placement()).with_priorities(vec![PrioritySetting::ProcFs(5)])
    };
    let straight = execute(mk()).unwrap();

    let path = snap_path();
    let mut sink = FileSink {
        path: path.clone(),
        config_hash: 7,
        offers: 0,
    };
    let chunked = execute_chunked(
        mk().with_checkpoint_every(2),
        None,
        &mut NullObserver,
        &mut sink,
    )
    .unwrap();
    assert_eq!(chunked, straight);
    assert!(sink.offers > 0, "a multi-chunk run must offer checkpoints");

    // The last offered snapshot resumes to the same result too.
    let snap = read_snapshot(&path).unwrap();
    std::fs::remove_file(&path).ok();
    let resumed = execute_chunked(
        mk(),
        Some(&snap.state),
        &mut NullObserver,
        &mut mtb_core::NoCheckpoint,
    )
    .unwrap();
    assert_eq!(resumed, straight);
}

/// Write one real mid-run snapshot (at half the run's event count) to
/// corrupt in the rejection tests below.
fn one_snapshot() -> (Vec<u8>, RunResult) {
    let cfg = SyntheticConfig {
        base_work: 80_000,
        iterations: 2,
        ..Default::default()
    };
    let progs = cfg.programs();
    let mk = || StaticRun::new(&progs, cfg.placement());
    let mut probe = prepare(&mk()).unwrap();
    assert!(probe.step_events(&mut NullObserver, u64::MAX).unwrap());
    let half = (probe.events() / 2).max(1);

    let mut engine = prepare(&mk()).unwrap();
    assert!(!engine.step_events(&mut NullObserver, half).unwrap());
    let state = engine.save_state();
    let path = snap_path();
    write_snapshot(&path, 42, &state).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();
    (bytes, finish(engine))
}

fn read_bytes(bytes: &[u8]) -> Result<mtb_snap::Snapshot, SnapError> {
    let path = snap_path();
    std::fs::write(&path, bytes).unwrap();
    let r = read_snapshot(&path);
    std::fs::remove_file(&path).ok();
    r
}

#[test]
fn corrupt_snapshots_are_rejected_by_hash_not_parsed() {
    let (good, _) = one_snapshot();
    assert!(read_bytes(&good).is_ok(), "pristine bytes must read back");

    // A single bit flip anywhere in the payload breaks the content hash.
    for &victim in &[44usize, good.len() / 2, good.len() - 1] {
        let mut bad = good.clone();
        bad[victim] ^= 0x10;
        match read_bytes(&bad) {
            Err(SnapError::HashMismatch { .. }) => {}
            other => panic!("bit flip at {victim}: expected HashMismatch, got {other:?}"),
        }
    }
}

#[test]
fn truncated_snapshots_are_rejected() {
    let (good, _) = one_snapshot();
    for keep in [0, 7, 20, 43, 44, good.len() - 1] {
        match read_bytes(&good[..keep]) {
            Err(SnapError::Truncated) => {}
            other => panic!("truncation to {keep} bytes: expected Truncated, got {other:?}"),
        }
    }
}

#[test]
fn wrong_schema_and_magic_are_rejected() {
    let (good, _) = one_snapshot();

    let mut wrong_schema = good.clone();
    wrong_schema[8..12].copy_from_slice(&999u32.to_le_bytes());
    match read_bytes(&wrong_schema) {
        Err(SnapError::BadSchema { found: 999 }) => {}
        other => panic!("expected BadSchema, got {other:?}"),
    }

    let mut wrong_magic = good.clone();
    wrong_magic[0] = b'X';
    match read_bytes(&wrong_magic) {
        Err(SnapError::BadMagic) => {}
        other => panic!("expected BadMagic, got {other:?}"),
    }
}

#[test]
fn restore_into_mismatched_config_is_refused() {
    let cfg = SyntheticConfig {
        base_work: 80_000,
        iterations: 2,
        ..Default::default()
    };
    let progs = cfg.programs();
    let mut engine = prepare(&StaticRun::new(&progs, cfg.placement())).unwrap();
    engine.step_events(&mut NullObserver, 2).unwrap();
    let state = engine.save_state();

    // A cycle-fidelity engine cannot absorb a meso-fidelity snapshot.
    let mut other = prepare(&StaticRun::new(&progs, cfg.placement()).cycle_accurate()).unwrap();
    assert!(other.restore_state(&state).is_err());
}
