//! Integration tests for the dynamic balancing policy and the predictor —
//! the "future work" extensions built on top of the paper's mechanism.

use mtbalance::workloads::loads;
use mtbalance::workloads::metbench::MetBenchConfig;
use mtbalance::workloads::siesta::SiestaConfig;
use mtbalance::{
    best_pair, execute, execute_with, DynamicBalancer, DynamicConfig, PrioritySetting, StaticRun,
};

#[test]
fn dynamic_policy_recovers_most_of_the_static_metbench_win() {
    let cfg = MetBenchConfig::default();
    let progs = cfg.programs();

    let reference = execute(StaticRun::new(&progs, cfg.placement())).unwrap();
    let best_static = execute(
        StaticRun::new(&progs, cfg.placement()).with_priorities(vec![
            PrioritySetting::ProcFs(4),
            PrioritySetting::ProcFs(6),
            PrioritySetting::ProcFs(4),
            PrioritySetting::ProcFs(6),
        ]),
    )
    .unwrap();

    let mut balancer = DynamicBalancer::with_defaults(&cfg.placement());
    let dynamic = execute_with(StaticRun::new(&progs, cfg.placement()), &mut balancer).unwrap();

    let imp = |r: &mtbalance::RunResult| {
        100.0 * (reference.total_cycles as f64 - r.total_cycles as f64)
            / reference.total_cycles as f64
    };
    let static_imp = imp(&best_static);
    let dyn_imp = imp(&dynamic);
    assert!(
        static_imp > 5.0,
        "static case C regime wins: {static_imp:.1}%"
    );
    assert!(
        dyn_imp > 0.6 * static_imp,
        "dynamic recovers most of the static win: {dyn_imp:.1}% vs {static_imp:.1}%"
    );
}

#[test]
fn dynamic_policy_helps_siesta_where_static_cannot_track_the_bottleneck() {
    let cfg = SiestaConfig::default();
    let progs = cfg.programs();
    let placement = cfg.placement_paired();

    let reference = execute(StaticRun::new(&progs, placement.clone())).unwrap();
    let mut balancer = DynamicBalancer::new(&placement, DynamicConfig::default());
    let dynamic = execute_with(StaticRun::new(&progs, placement), &mut balancer).unwrap();

    assert!(balancer.adjustments() > 0);
    assert!(
        dynamic.total_cycles < reference.total_cycles,
        "the moving-bottleneck workload benefits from feedback: {} vs {}",
        dynamic.total_cycles,
        reference.total_cycles
    );
}

#[test]
fn predictor_choice_matches_simulated_optimum_for_metbench_pair() {
    // Search priorities for one core of MetBench (light 1x + heavy 4.07x)
    // with the predictor, then verify by simulation that the chosen pair
    // is within 2% of the simulated best pair.
    let load = loads::metbench_load(0);
    let cfg = MetBenchConfig {
        ranks: 2,
        heavy_ranks: vec![1],
        ..Default::default()
    };
    let progs = cfg.programs();
    let placement = cfg.placement();

    let work0 = cfg.work_of(0) * u64::from(cfg.iterations);
    let work1 = cfg.work_of(1) * u64::from(cfg.iterations);
    let (p0, p1, _) = best_pair(&load.profile, &load.profile, work0, work1, 2);
    let (p0, p1) = (p0.value(), p1.value());
    assert!(p1 > p0, "the heavy rank gets the boost: ({p0},{p1})");

    let simulate = |a: u8, b: u8| {
        execute(
            StaticRun::new(&progs, placement.clone())
                .with_priorities(vec![PrioritySetting::ProcFs(a), PrioritySetting::ProcFs(b)]),
        )
        .unwrap()
        .total_cycles
    };
    let chosen = simulate(p0, p1);
    let mut best = u64::MAX;
    for a in 1..=6u8 {
        for b in 1..=6u8 {
            if a.abs_diff(b) <= 2 {
                best = best.min(simulate(a, b));
            }
        }
    }
    let rel = chosen as f64 / best as f64;
    assert!(rel < 1.02, "predictor within 2% of simulated best: {rel}");
}

#[test]
fn audited_policy_contains_damage_on_pure_noise_imbalance() {
    use mtbalance::os::noise::interrupt_annoyance;
    use mtbalance::workloads::synthetic::SyntheticConfig;
    let cfg = SyntheticConfig {
        skew: 1.0,
        iterations: 16,
        ..Default::default()
    };
    let progs = cfg.programs();
    let noise = interrupt_annoyance(2, 1_500_000, 7_500, 500_000, 50_000);

    let plain = execute(StaticRun::new(&progs, cfg.placement()).with_noise(noise.clone())).unwrap();
    let mut balancer = DynamicBalancer::with_defaults(&cfg.placement());
    let dynamic = execute_with(
        StaticRun::new(&progs, cfg.placement()).with_noise(noise),
        &mut balancer,
    )
    .unwrap();
    assert!(
        (dynamic.total_cycles as f64) < plain.total_cycles as f64 * 1.10,
        "the audit bounds the damage: {} vs {}",
        dynamic.total_cycles,
        plain.total_cycles
    );
}
