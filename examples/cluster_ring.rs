//! Cluster-scale placement: an 8-rank ring over two 2-core nodes, showing
//! the Section II-B "network topology" imbalance source and how placement
//! and SMT priorities compose.
//!
//! ```sh
//! cargo run --release --example cluster_ring
//! ```

use mtbalance::balance::mapper::{block_placement, striped_placement};
use mtbalance::workloads::btmz::{contiguous_partition, BtMzConfig};
use mtbalance::{
    best_pair, cycles_to_seconds, execute, improvement_pct, CtxAddr, PrioritySetting, StaticRun,
};

fn main() {
    // Eight ranks over the 16 BT-MZ zones, with hefty boundary exchanges
    // so the network tier matters.
    let cfg = BtMzConfig {
        ranks: 8,
        iterations: 50,
        exchange_bytes: 64 << 20,
        ..Default::default()
    }
    .with_partition(contiguous_partition(8));
    let progs = cfg.programs();
    let work: Vec<u64> = (0..8).map(|r| cfg.work_of(r)).collect();

    let run = |label: &str, placement: Vec<CtxAddr>, prios: Vec<PrioritySetting>| {
        let r = execute(
            StaticRun::new(&progs, placement)
                .on_cluster(2, 2) // 2 nodes x 2 SMT cores
                .with_priorities(prios),
        )
        .unwrap();
        println!(
            "{label:<38} exec {:7.2}s  imbalance {:5.2}%",
            cycles_to_seconds(r.total_cycles),
            r.metrics.imbalance_pct
        );
        r.total_cycles
    };

    println!("8-rank BT-MZ ring on a 2-node cluster (64 MiB boundary exchanges)\n");
    let striped = run(
        "striped placement (every edge remote)",
        striped_placement(8, 2, 2),
        vec![],
    );
    run(
        "block placement (edges stay on-node)",
        block_placement(8),
        vec![],
    );

    // Priorities per SMT pair, chosen by the what-if predictor.
    let profile = mtbalance::workloads::loads::btmz_load(0).profile;
    let mut prios = vec![PrioritySetting::Default; 8];
    for core in 0..4 {
        let (a, b) = (2 * core, 2 * core + 1);
        let (pa, pb, _) = best_pair(&profile, &profile, work[a], work[b], 2);
        prios[a] = PrioritySetting::ProcFs(pa.value());
        prios[b] = PrioritySetting::ProcFs(pb.value());
    }
    let best = run("block + predictor priorities", block_placement(8), prios);

    println!(
        "\ntotal gain over the topology-oblivious schedule: {:.1}%",
        improvement_pct(striped, best)
    );
}
