//! Canonical workload profiles.
//!
//! The paper's three applications respond very differently to hardware
//! priorities, and the difference is explained by *what bounds their
//! throughput* (DESIGN.md §5 reconstructs this from the published tables):
//!
//! * **MetBench** loads are dense compute loops: single-thread IPC ≈ 2.85
//!   on a 5-wide decode. At equal SMT priority each thread gets ~2.5
//!   decode slots/cycle — right at the bound — so shifting decode slots
//!   moves performance strongly (Table IV's 4x collapse at priority
//!   difference 3).
//! * **BT-MZ** is even more ILP-dense (ST IPC ≈ 3.2): threads are
//!   *supply-limited* at equal priority, so the bottleneck rank gains a
//!   lot from extra slots — the paper's best case (18%).
//! * **SIESTA** is memory-bound (ST IPC ≈ 1.6, large working set): a 1/4
//!   decode share still covers its demand, so priorities barely hurt the
//!   penalized rank; gains come from pairing the bottleneck with
//!   often-idle ranks (8.1%), and only a large priority difference
//!   inverts the imbalance (case D).
//!
//! Each function also supplies a concrete instruction stream so the same
//! workloads run on the cycle-level core.

use mtb_smtsim::inst::StreamSpec;
use mtb_smtsim::model::{Workload, WorkloadProfile};

/// MetBench compute load: dense, cache-resident, high ILP.
pub fn metbench_load(seed: u64) -> Workload {
    Workload::with_profile(
        "metbench",
        StreamSpec {
            fx: 4,
            fp: 2,
            ls: 3,
            br: 1,
            dep_dist: 12,
            working_set: 16 << 10,
            code_kb: 16,
            seed,
        },
        WorkloadProfile::new(2.85, 0.05, 0.02),
    )
}

/// MetBench `fpu` unit-stress load (floating-point dependency chains).
pub fn fpu_load(seed: u64) -> Workload {
    Workload::from_spec("metbench-fpu", StreamSpec::fpu_bound(seed))
}

/// MetBench `l2` unit-stress load (working set resident in L2).
pub fn l2_load(seed: u64) -> Workload {
    Workload::from_spec("metbench-l2", StreamSpec::l2_bound(seed))
}

/// MetBench `mem` unit-stress load (streams through memory).
pub fn mem_load(seed: u64) -> Workload {
    Workload::from_spec("metbench-mem", StreamSpec::mem_bound(seed))
}

/// BT-MZ solver load: very high ILP structured-mesh arithmetic.
pub fn btmz_load(seed: u64) -> Workload {
    Workload::with_profile(
        "bt-mz",
        StreamSpec {
            fx: 3,
            fp: 3,
            ls: 3,
            br: 1,
            dep_dist: 16,
            working_set: 24 << 10,
            code_kb: 32,
            seed,
        },
        WorkloadProfile::new(3.2, 0.05, 0.05),
    )
}

/// SIESTA load: memory-bound sparse linear algebra.
pub fn siesta_load(seed: u64) -> Workload {
    Workload::with_profile(
        "siesta",
        StreamSpec {
            fx: 2,
            fp: 3,
            ls: 4,
            br: 1,
            dep_dist: 5,
            working_set: 8 << 20,
            code_kb: 256,
            seed,
        },
        WorkloadProfile::new(1.8, 0.2, 0.7),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_encode_the_calibration_story() {
        let met = metbench_load(1).profile;
        let bt = btmz_load(1).profile;
        let si = siesta_load(1).profile;
        // Decode-boundness ordering: BT-MZ > MetBench > SIESTA.
        assert!(bt.ipc_st > met.ipc_st);
        assert!(met.ipc_st > si.ipc_st);
        // SIESTA is the memory-bound one.
        assert!(si.mem_intensity > bt.mem_intensity);
        assert!(si.mem_intensity > met.mem_intensity);
        // MetBench/BT-MZ sit above the equal-priority supply (2.5), SIESTA
        // far below it — the crux of the priority-sensitivity difference.
        assert!(bt.ipc_st > 2.5);
        assert!(met.ipc_st > 2.5);
        assert!(si.ipc_st < 2.5);
    }

    #[test]
    fn unit_stress_loads_have_distinct_characters() {
        let fpu = fpu_load(1).profile;
        let mem = mem_load(1).profile;
        let l2 = l2_load(1).profile;
        assert!(fpu.mem_intensity < 0.1, "fpu load is cache resident");
        assert!(mem.mem_intensity > 0.3, "mem load misses everywhere");
        assert!(l2.mem_intensity < mem.mem_intensity);
        assert!(fpu.ipc_st < 1.5, "dependency-chained FP is slow");
    }

    #[test]
    fn loads_are_seeded_deterministically() {
        assert_eq!(metbench_load(7), metbench_load(7));
        assert_ne!(metbench_load(7).stream.seed, metbench_load(8).stream.seed);
    }
}
