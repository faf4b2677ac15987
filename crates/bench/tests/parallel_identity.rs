//! The intra-run parallelism determinism contract, property-tested:
//! for any workload, priority assignment, and stepping mode, the full
//! `RunRecord` hash is identical at 1, 2, 4, and 8 worker threads.
//!
//! This is the load-bearing guarantee of the epoch-sharded stepping
//! layer — worker threads may only change wall-clock, never output. The
//! coordinator computes each epoch's merge point deterministically,
//! whole L2 domains step privately to it on pinned workers, and the
//! merge folds per-shard accounting in shard order, so there is no
//! order in which threads can interleave that is visible to the
//! simulation. A failure here means a shard boundary leaked (e.g. two
//! cores sharing an L2 landed on different workers) and would show up
//! as irreproducible paper tables.
//!
//! Besides the property tests, deterministic tests below pin the epoch
//! boundary edge cases: an epoch bound landing exactly on a checkpoint
//! boundary, the single-shard degenerate machine, more executors than
//! shards (and uneven shard-to-executor mappings), and kill-resume
//! under epoch stepping.

use mtb_bench::lint::record_hash;
use mtb_core::balance::{execute, execute_chunked, prepare, StaticRun};
use mtb_core::paper_cases::Case;
use mtb_core::policy::PrioritySetting;
use mtb_core::NoCheckpoint;
use mtb_mpisim::engine::Stepping;
use mtb_mpisim::NullObserver;
use mtb_oskernel::CtxAddr;
use mtb_workloads::MetBenchConfig;

use proptest::prelude::*;

/// Thread counts every configuration is replayed at.
const JOBS: [usize; 4] = [1, 2, 4, 8];

/// Make sure the global permit budget can actually grant workers: on a
/// small CI runner (or with `MTB_JOBS=1`) the default total would be 1
/// and every pool would degrade to the inline path, testing nothing.
/// Identity must hold at any grant, but the point of this suite is to
/// exercise the threaded path.
fn ensure_workers() {
    let budget = mtb_pool::global_budget();
    budget.set_total(budget.total().max(8));
}

/// Run one configuration at every [`JOBS`] count and return the hashes.
fn hashes_across_jobs(
    cfg: &MetBenchConfig,
    placement: &[CtxAddr],
    priorities: &[PrioritySetting],
    stepping: Stepping,
    cycle: bool,
) -> Vec<u64> {
    ensure_workers();
    let programs = cfg.programs();
    let case = Case {
        name: "parallel-identity",
        placement: placement.to_vec(),
        priorities: priorities.to_vec(),
    };
    JOBS.iter()
        .map(|&jobs| {
            let mut run = StaticRun::new(&programs, placement.to_vec())
                .with_priorities(priorities.to_vec())
                // 4 cores over 2 nodes: two L2 domains of two cores each,
                // so the sharder must keep core pairs together.
                .on_cluster(2, 2)
                .with_stepping(stepping)
                .with_threads(jobs);
            if cycle {
                run = run.cycle_accurate();
            }
            let result = execute(run).expect("run failed");
            record_hash(&case, &result)
        })
        .collect()
}

proptest! {
    // Cycle-fidelity runs cost ~0.2s each in debug builds and every
    // configuration replays at four thread counts, so keep the case
    // count small; the randomized dimensions (seed, priorities, heavy
    // rank, placement) still vary across runs of the suite.
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Cycle fidelity (the sharded `SmtCore` path), event-horizon
    /// stepping, one rank per core.
    #[test]
    fn cycle_event_horizon_identical_across_jobs(
        seed in 0u64..u64::MAX,
        pa in 1u8..=6, pb in 1u8..=6, pc in 1u8..=6, pd in 1u8..=6,
        heavy in 0usize..4,
    ) {
        let cfg = MetBenchConfig {
            iterations: 2,
            scale: 2e-7,
            heavy_ranks: vec![heavy],
            seed,
            ..MetBenchConfig::default()
        };
        let placement: Vec<CtxAddr> = (0..4).map(|r| CtxAddr::from_cpu(2 * r)).collect();
        let prios: Vec<PrioritySetting> =
            [pa, pb, pc, pd].iter().map(|&p| PrioritySetting::ProcFs(p)).collect();
        let hashes = hashes_across_jobs(&cfg, &placement, &prios, Stepping::EventHorizon, true);
        prop_assert!(
            hashes.iter().all(|h| *h == hashes[0]),
            "cycle/event-horizon record hash drifted across jobs {JOBS:?}: {hashes:x?}"
        );
    }

    /// Cycle fidelity under quantum stepping, SMT-paired placement (two
    /// ranks per core, so both hardware contexts are live).
    #[test]
    fn cycle_quantum_identical_across_jobs(
        seed in 0u64..u64::MAX,
        pa in 1u8..=6, pb in 1u8..=6, pc in 1u8..=6, pd in 1u8..=6,
    ) {
        let cfg = MetBenchConfig {
            iterations: 2,
            scale: 2e-7,
            seed,
            ..MetBenchConfig::default()
        };
        let placement: Vec<CtxAddr> = (0..4).map(CtxAddr::from_cpu).collect();
        let prios: Vec<PrioritySetting> =
            [pa, pb, pc, pd].iter().map(|&p| PrioritySetting::ProcFs(p)).collect();
        let hashes = hashes_across_jobs(&cfg, &placement, &prios, Stepping::Quantum, true);
        prop_assert!(
            hashes.iter().all(|h| *h == hashes[0]),
            "cycle/quantum record hash drifted across jobs {JOBS:?}: {hashes:x?}"
        );
    }

    /// Mesoscale fidelity (independent cores, no shared L2) under both
    /// stepping modes.
    #[test]
    fn meso_identical_across_jobs(
        seed in 0u64..u64::MAX,
        pa in 1u8..=6, pb in 1u8..=6, pc in 1u8..=6, pd in 1u8..=6,
        flip in 0u8..2,
    ) {
        let cfg = MetBenchConfig {
            iterations: 4,
            scale: 1e-4,
            seed,
            ..MetBenchConfig::default()
        };
        let placement: Vec<CtxAddr> = (0..4).map(|r| CtxAddr::from_cpu(2 * r)).collect();
        let prios: Vec<PrioritySetting> =
            [pa, pb, pc, pd].iter().map(|&p| PrioritySetting::ProcFs(p)).collect();
        let stepping = if flip == 0 { Stepping::EventHorizon } else { Stepping::Quantum };
        let hashes = hashes_across_jobs(&cfg, &placement, &prios, stepping, false);
        prop_assert!(
            hashes.iter().all(|h| *h == hashes[0]),
            "meso record hash drifted across jobs {JOBS:?}: {hashes:x?}"
        );
    }
}

/// A small cycle-fidelity workload for the deterministic edge-case
/// tests below.
fn edge_cfg(seed: u64) -> MetBenchConfig {
    MetBenchConfig {
        iterations: 2,
        scale: 2e-7,
        heavy_ranks: vec![1],
        seed,
        ..MetBenchConfig::default()
    }
}

fn edge_case(placement: &[CtxAddr], prios: &[PrioritySetting]) -> Case {
    Case {
        name: "parallel-identity-edge",
        placement: placement.to_vec(),
        priorities: prios.to_vec(),
    }
}

/// Epoch bound exactly on a checkpoint boundary: with a checkpoint
/// interval of 1 every single engine event window ends at a
/// checkpoint, so each epoch's merge point coincides with a forced
/// checkpoint merge. The chunked run must equal the straight run at
/// every thread count.
#[test]
fn epoch_bound_on_checkpoint_boundary_identical_across_jobs() {
    ensure_workers();
    let cfg = edge_cfg(0xC0FFEE);
    let programs = cfg.programs();
    let placement: Vec<CtxAddr> = (0..4).map(|r| CtxAddr::from_cpu(2 * r)).collect();
    let prios: Vec<PrioritySetting> = vec![PrioritySetting::ProcFs(5); 4];
    let case = edge_case(&placement, &prios);
    let mk = |jobs: usize| {
        StaticRun::new(&programs, placement.clone())
            .with_priorities(prios.clone())
            .on_cluster(2, 2)
            .with_stepping(Stepping::EventHorizon)
            .cycle_accurate()
            .with_threads(jobs)
    };
    let straight = record_hash(&case, &execute(mk(1)).expect("straight run"));
    for jobs in JOBS {
        let chunked = execute_chunked(mk(jobs), 1, None, &mut NullObserver, &mut NoCheckpoint)
            .expect("chunked run");
        assert_eq!(
            record_hash(&case, &chunked),
            straight,
            "checkpoint-per-event run drifted at {jobs} jobs"
        );
    }
}

/// Single-shard degenerate machine: one node, two cores in one L2
/// domain — the shard plan has exactly one shard, the parallel path is
/// skipped, and extra jobs must change nothing.
#[test]
fn single_shard_machine_identical_across_jobs() {
    ensure_workers();
    let cfg = edge_cfg(0xB0A7);
    let programs = cfg.programs();
    // SMT-paired placement: 4 ranks on the 4 hardware contexts of 2 cores.
    let placement: Vec<CtxAddr> = (0..4).map(CtxAddr::from_cpu).collect();
    let prios: Vec<PrioritySetting> = vec![PrioritySetting::ProcFs(4); 4];
    let case = edge_case(&placement, &prios);
    let hashes: Vec<u64> = JOBS
        .iter()
        .map(|&jobs| {
            let run = StaticRun::new(&programs, placement.clone())
                .with_priorities(prios.clone())
                .on_cluster(1, 2)
                .with_stepping(Stepping::EventHorizon)
                .cycle_accurate()
                .with_threads(jobs);
            record_hash(&case, &execute(run).expect("run failed"))
        })
        .collect();
    assert!(
        hashes.iter().all(|h| *h == hashes[0]),
        "single-shard machine drifted across jobs {JOBS:?}: {hashes:x?}"
    );
}

/// Uneven shard-to-executor mappings: 4 single-core nodes give 4 shards;
/// 3 executors leave one executor with two shards, and 8 executors leave
/// more executors than shards (some workers idle through the epoch).
#[test]
fn uneven_executor_mappings_identical() {
    ensure_workers();
    let cfg = edge_cfg(0x5EED);
    let programs = cfg.programs();
    let placement: Vec<CtxAddr> = (0..4).map(|r| CtxAddr::from_cpu(2 * r)).collect();
    let prios: Vec<PrioritySetting> = vec![PrioritySetting::ProcFs(3); 4];
    let case = edge_case(&placement, &prios);
    let hashes: Vec<u64> = [1usize, 2, 3, 8]
        .iter()
        .map(|&jobs| {
            let run = StaticRun::new(&programs, placement.clone())
                .with_priorities(prios.clone())
                .on_cluster(4, 1)
                .with_stepping(Stepping::Quantum)
                .with_threads(jobs);
            record_hash(&case, &execute(run).expect("run failed"))
        })
        .collect();
    assert!(
        hashes.iter().all(|h| *h == hashes[0]),
        "uneven executor mapping drifted across jobs [1, 2, 3, 8]: {hashes:x?}"
    );
}

/// Kill-resume under epoch stepping: step a few events, snapshot, drop
/// the engine mid-run, rebuild from scratch, restore, and finish — at
/// every thread count the result must equal the straight single-shot
/// run. Checkpoint boundaries are forced merge points, so no shard
/// carries private state across the snapshot.
#[test]
fn kill_resume_under_epoch_stepping_identical_across_jobs() {
    ensure_workers();
    let cfg = edge_cfg(0xDEAD);
    let programs = cfg.programs();
    let placement: Vec<CtxAddr> = (0..4).map(|r| CtxAddr::from_cpu(2 * r)).collect();
    let prios: Vec<PrioritySetting> = vec![
        PrioritySetting::ProcFs(5),
        PrioritySetting::ProcFs(2),
        PrioritySetting::ProcFs(5),
        PrioritySetting::ProcFs(2),
    ];
    let case = edge_case(&placement, &prios);
    let mk = |jobs: usize| {
        StaticRun::new(&programs, placement.clone())
            .with_priorities(prios.clone())
            .on_cluster(2, 2)
            .with_stepping(Stepping::EventHorizon)
            .cycle_accurate()
            .with_threads(jobs)
    };
    let straight = record_hash(&case, &execute(mk(1)).expect("straight run"));
    for jobs in JOBS {
        let mut first = prepare(&mk(jobs)).expect("prepare failed");
        let done = first
            .step_events(&mut NullObserver, 5)
            .expect("step failed");
        let result = if done {
            first.into_result()
        } else {
            let state = first.save_state();
            drop(first); // the "kill": the original engine and its workers die
            let mut second = prepare(&mk(jobs)).expect("re-prepare failed");
            second.restore_state(&state).expect("restore failed");
            assert!(second
                .step_events(&mut NullObserver, u64::MAX)
                .expect("finish failed"));
            second.into_result()
        };
        assert_eq!(
            record_hash(&case, &result),
            straight,
            "kill-resume drifted at {jobs} jobs"
        );
    }
}
