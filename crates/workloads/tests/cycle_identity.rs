//! The cycle core's fast path (the hot engine, which also skips quiet
//! stretches in closed form) is
//! bit-identical to the per-cycle reference on the traffic the paper
//! cases put through it: two-core chips sharing one L2, each context
//! running a paper load, the MPI spin stream or nothing, with priorities
//! rewritten and workloads installed and removed mid-run the way every
//! MPI wait does. Every core's full snapshot is compared after every
//! chunk, so a slip in any cache stamp, predictor entry, scoreboard slot
//! or counter fails the test where it happens.

use mtb_smtsim::chip::{build_cores_grouped, Fidelity};
use mtb_smtsim::model::{ThreadId, Workload};
use mtb_smtsim::pairmodel::spin_workload;
use mtb_smtsim::state::CoreState;
use mtb_smtsim::{CoreConfig, HwPriority};
use mtb_workloads::loads::{btmz_load, metbench_load, siesta_load};
use proptest::prelude::*;

/// Context contents: the three paper loads, the spin stream, or empty.
fn workload(kind: u8, seed: u64) -> Option<Workload> {
    match kind {
        0 => Some(metbench_load(seed)),
        1 => Some(btmz_load(seed)),
        2 => Some(siesta_load(seed)),
        3 => Some(spin_workload()),
        _ => None,
    }
}

/// One scripted action between chunks: 0–3 nothing, 4 set a priority,
/// 5–6 install a workload (`value` picks it), 7 clear a context.
type Step = (u64, u8, usize, u8);

/// A two-core shared-L2 chip set up with `kinds` and `prios`, then run
/// through `steps`; returns every core's snapshot after every chunk.
fn run(fast: bool, kinds: [u8; 4], prios: [u8; 4], seed: u64, steps: &[Step]) -> Vec<CoreState> {
    let cfg = CoreConfig {
        fast_forward: fast,
        ..CoreConfig::default()
    };
    let mut cores = build_cores_grouped(2, &Fidelity::Cycle(cfg), 2);
    let ctx = |i: usize| (i / 2, ThreadId::from_index(i % 2));
    for i in 0..4 {
        let (c, t) = ctx(i);
        if let Some(w) = workload(kinds[i], seed + i as u64) {
            cores[c].assign(t, w);
        }
        cores[c].set_priority(t, HwPriority::new(prios[i]).expect("0..=7"));
    }
    let mut snaps = Vec::new();
    for (n, &(chunk, op, target, value)) in steps.iter().enumerate() {
        let (c, t) = ctx(target);
        match op {
            4 => cores[c].set_priority(t, HwPriority::new(value % 8).expect("0..=7")),
            5 | 6 => match workload(value % 5, seed + 10 + n as u64) {
                Some(w) => cores[c].assign(t, w),
                None => cores[c].clear(t),
            },
            7 => cores[c].clear(t),
            _ => {}
        }
        for core in cores.iter_mut() {
            core.advance(chunk);
        }
        for core in &cores {
            snaps.push(core.save_state());
        }
    }
    snaps
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn fast_path_matches_reference_on_paper_traffic(
        kinds in (0u8..5, 0u8..5, 0u8..5, 0u8..5),
        prios in (0u8..=7, 0u8..=7, 0u8..=7, 0u8..=7),
        seed in 1u64..1_000,
        steps in proptest::collection::vec((1u64..3_000, 0u8..8, 0usize..4, 0u8..8), 1..8),
    ) {
        let kinds = [kinds.0, kinds.1, kinds.2, kinds.3];
        let prios = [prios.0, prios.1, prios.2, prios.3];
        let fast = run(true, kinds, prios, seed, &steps);
        let reference = run(false, kinds, prios, seed, &steps);
        for (k, (f, r)) in fast.iter().zip(&reference).enumerate() {
            prop_assert!(
                f == r,
                "core {} diverged after chunk {} of {steps:?} (kinds {kinds:?}, prios {prios:?}, seed {seed})",
                k % 2,
                k / 2
            );
        }
    }
}
