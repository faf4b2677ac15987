//! EXT-6: network topology as an imbalance source (Section II-B), at
//! cluster scale.
//!
//! An 8-rank BT-MZ-like ring runs on two 2-core nodes (8 hardware
//! contexts total). A topology-oblivious scheduler stripes ranks across
//! nodes, so *every* ring edge crosses the network; a block placement
//! keeps all but the seam edges on-node. On top of the better placement,
//! SMT priorities then address the zone imbalance — the two mechanisms
//! compose, as the paper argues they should.

use mtb_bench::harness::run_static;
use mtb_core::balance::StaticRun;
use mtb_core::mapper::{block_placement, striped_placement};
use mtb_core::policy::PrioritySetting;
use mtb_smtsim::pairmodel::best_pair;
use mtb_trace::cycles_to_seconds;
use mtb_workloads::btmz::{contiguous_partition, BtMzConfig};
use mtb_workloads::loads;

fn main() {
    println!("EXT-6 — cluster topology and placement (8-rank BT-MZ ring, 2 nodes x 2 cores)\n");

    // 8 ranks over the 16 zones; chunkier exchanges make the network
    // latency visible (64 MiB boundaries at ~1 B/cycle).
    let cfg = BtMzConfig {
        ranks: 8,
        iterations: 50,
        exchange_bytes: 64 << 20,
        ..Default::default()
    }
    .with_partition(contiguous_partition(8));
    let progs = cfg.programs();
    let work: Vec<u64> = (0..8).map(|r| cfg.work_of(r)).collect();

    let run = |placement, prios: Vec<PrioritySetting>| {
        run_static(
            StaticRun::new(&progs, placement)
                .on_cluster(2, 2)
                .with_priorities(prios),
        )
        .unwrap()
    };

    let striped = run(striped_placement(8, 2, 2), vec![]);
    let block = run(block_placement(8), vec![]);

    // Priorities on top of the block placement: per SMT pair, ask the
    // predictor (ranks 2k and 2k+1 share core k under block placement).
    let profile = loads::btmz_load(0).profile;
    let mut prios = vec![PrioritySetting::Default; 8];
    for core in 0..4 {
        let (a, b) = (2 * core, 2 * core + 1);
        let (pa, pb, _) = best_pair(&profile, &profile, work[a], work[b], 2);
        prios[a] = PrioritySetting::ProcFs(pa.value());
        prios[b] = PrioritySetting::ProcFs(pb.value());
    }
    let block_prio = run(block_placement(8), prios);

    let base = striped.total_cycles as f64;
    for (label, r) in [
        ("striped across nodes (topology-oblivious)", &striped),
        ("block per node (topology-aware)", &block),
        ("block + predictor priorities", &block_prio),
    ] {
        println!(
            "{label:<44} exec {:7.2}s  imbalance {:5.2}%  vs striped {:+.1}%",
            cycles_to_seconds(r.total_cycles),
            r.metrics.imbalance_pct,
            100.0 * (base - r.total_cycles as f64) / base,
        );
    }
    println!(
        "\nStriping sends all 8 ring edges across the network (10x lower\n\
         bandwidth); the block placement keeps 6 of 8 on-node. SMT priorities\n\
         then attack the zone imbalance on top — the placement and priority\n\
         mechanisms compose."
    );

    mtb_bench::harness::print_summary();
}
