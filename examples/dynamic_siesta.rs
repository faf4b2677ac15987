//! Run a SIESTA-like dynamic application under the automatic balancing
//! policy — the paper's Section VIII future work, implemented.
//!
//! ```sh
//! cargo run --release --example dynamic_siesta
//! ```

use mtbalance::balance::observe::WindowRecorder;
use mtbalance::balance::remap::Composite;
use mtbalance::trace::stats::histogram;
use mtbalance::workloads::siesta::SiestaConfig;
use mtbalance::{
    cycles_to_seconds, execute, execute_with, improvement_pct, DynamicBalancer, DynamicConfig,
    Machine, Observer, RankWindow, StaticRun,
};

/// Wraps the balancer to log what it does at each synchronization epoch.
struct LoggingBalancer {
    inner: DynamicBalancer,
    log_every: usize,
}

impl Observer for LoggingBalancer {
    fn on_epoch(&mut self, epoch: usize, windows: &[RankWindow], machine: &mut Machine) {
        self.inner.on_epoch(epoch, windows, machine);
        if epoch % self.log_every == 0 {
            let bottleneck = windows.iter().max_by_key(|w| w.compute).unwrap();
            println!(
                "epoch {epoch:>3}: bottleneck P{} ({:.1} Mcycles), priorities {:?}",
                bottleneck.rank + 1,
                bottleneck.compute as f64 / 1e6,
                self.inner.current_priorities(),
            );
        }
    }
}

fn main() {
    let cfg = SiestaConfig::default();
    let progs = cfg.programs();
    let placement = cfg.placement_paired();

    println!(
        "SIESTA-like run: 4 ranks, {} iterations, moving bottleneck\n",
        cfg.iterations
    );

    let reference = execute(StaticRun::new(&progs, placement.clone())).unwrap();

    let mut obs = LoggingBalancer {
        inner: DynamicBalancer::new(&placement, DynamicConfig::default()),
        log_every: 8,
    };
    let mut recorder = WindowRecorder::new();
    let mut combo = Composite::new(vec![&mut obs, &mut recorder]);
    let dynamic = execute_with(StaticRun::new(&progs, placement), &mut combo).unwrap();

    println!(
        "\nreference (paired mapping, static MEDIUM): {:.2}s, imbalance {:.1}%",
        cycles_to_seconds(reference.total_cycles),
        reference.metrics.imbalance_pct
    );
    println!(
        "dynamic policy:                            {:.2}s, imbalance {:.1}% ({:+.1}%)",
        cycles_to_seconds(dynamic.total_cycles),
        dynamic.metrics.imbalance_pct,
        improvement_pct(reference.total_cycles, dynamic.total_cycles)
    );
    println!(
        "policy activity: {} adjustments, {} audited reverts",
        obs.inner.adjustments(),
        obs.inner.reverts()
    );

    // Offline analysis of the recorded windows: how dynamic was the run?
    println!(
        "
bottleneck identity changed {} times across {} epochs",
        recorder.bottleneck_moves(),
        recorder.epochs().len()
    );
    if let Some(s) = recorder.compute_summary(3) {
        println!(
            "P4 per-epoch compute: mean {:.1} Mcycles, p95 {:.1} Mcycles, cv {:.2}",
            s.mean / 1e6,
            s.p95 as f64 / 1e6,
            s.cv
        );
        let samples: Vec<u64> = recorder
            .epochs()
            .iter()
            .flat_map(|w| w.iter().filter(|x| x.rank == 3).map(|x| x.compute))
            .collect();
        println!(
            "
P4 per-epoch compute-time distribution:"
        );
        print!("{}", histogram(&samples, 6, 40));
    }
}
