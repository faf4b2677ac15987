//! Property tests for the static *performance* analyses (profile
//! inference, makespan prediction, full `verify`) on the randomized
//! program schema the verdict fuzzer uses (`verdict_fuzz.rs`):
//!
//! * **totality** — `infer_profiles` and `predict` never panic on any
//!   program set the schema generates, for any placement the plan
//!   search enumerates and any priority bytes (the model clamps);
//! * **internal consistency** — per-rank profile work equals the sum of
//!   its phase works, and a nonempty unit mix is a distribution;
//! * **determinism** — the full `verify` report and every prediction
//!   are bit-identical across repeated runs and across `MTB_JOBS`
//!   settings (the analyzer is pure; the env knob that shards the
//!   *simulator* must not leak into static verdicts).

use mtb_mpisim::program::{Program, ProgramBuilder, WorkSpec};
use mtb_oskernel::{CtxAddr, KernelFlavour, PrioritySetting};
use mtb_smtsim::inst::StreamSpec;
use mtb_smtsim::model::{Workload, WorkloadProfile};
use mtb_verify::plan::enumerate_pairings;
use mtb_verify::{enumerate_plans, infer_profiles, predict, CaseSpec};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum OpKind {
    Compute,
    Exchange,
    Barrier,
    AllReduce,
    Bcast,
    Reduce,
}

fn arb_ops() -> impl Strategy<Value = Vec<(OpKind, u64)>> {
    proptest::collection::vec((0usize..6, 1u64..60_000), 1..12).prop_map(|v| {
        v.into_iter()
            .map(|(k, size)| {
                let kind = match k {
                    0 => OpKind::Compute,
                    1 => OpKind::Exchange,
                    2 => OpKind::Barrier,
                    3 => OpKind::AllReduce,
                    4 => OpKind::Bcast,
                    _ => OpKind::Reduce,
                };
                (kind, size)
            })
            .collect()
    })
}

fn build_programs(ops: &[(OpKind, u64)], n_ranks: usize) -> Vec<Program> {
    (0..n_ranks)
        .map(|rank| {
            let load = Workload::with_profile(
                "fuzz",
                StreamSpec::balanced(rank as u64 + 1),
                WorkloadProfile::new(1.0 + rank as f64 * 0.4, 0.1, 0.05),
            );
            let mut b = ProgramBuilder::new();
            for (i, (kind, size)) in ops.iter().enumerate() {
                match kind {
                    OpKind::Compute => {
                        b = b.compute(WorkSpec::new(load.clone(), size * (rank as u64 + 1)));
                    }
                    OpKind::Exchange => {
                        let s = 1 + i % (n_ranks - 1).max(1);
                        let to = (rank + s) % n_ranks;
                        let from = (rank + n_ranks - s) % n_ranks;
                        b = b
                            .isend(to, i as u32, *size % 4096)
                            .irecv(from, i as u32)
                            .waitall();
                    }
                    OpKind::Barrier => b = b.barrier(),
                    OpKind::AllReduce => b = b.allreduce(*size % 1024),
                    OpKind::Bcast => b = b.bcast((*size as usize) % n_ranks, *size % 1024),
                    OpKind::Reduce => b = b.reduce((*size as usize) % n_ranks, *size % 1024),
                }
            }
            b.build()
        })
        .collect()
}

fn case_for(placement: &[CtxAddr], priorities: &[u8]) -> CaseSpec {
    CaseSpec {
        name: "fuzz/plan".into(),
        placement: placement.to_vec(),
        priorities: priorities
            .iter()
            .map(|&p| PrioritySetting::ProcFs(p.clamp(1, 6)))
            .collect(),
        flavour: KernelFlavour::Patched,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Profile inference is total and internally consistent.
    #[test]
    fn profile_inference_is_total_and_consistent(
        ops in arb_ops(),
        n_ranks in 2usize..=4,
    ) {
        let programs = build_programs(&ops, n_ranks);
        let profiles = infer_profiles(&programs);
        prop_assert_eq!(profiles.len(), n_ranks);
        for p in &profiles {
            let phase_work: u64 = p.phases.iter().map(|ph| ph.work).sum();
            prop_assert_eq!(p.work, phase_work, "rank {} work mismatch", p.rank);
            if p.work > 0 {
                let total: f64 = p.mix.iter().sum();
                prop_assert!((total - 1.0).abs() < 1e-6, "mix not a distribution: {total}");
            }
            prop_assert!(p.profile.ipc_st > 0.0);
        }
    }

    /// The makespan model never panics for any enumerated placement and
    /// any priority bytes, and is deterministic call-to-call.
    #[test]
    fn prediction_is_total_and_deterministic(
        ops in arb_ops(),
        n_ranks in 2usize..=4,
        prios in proptest::collection::vec(0u8..=7, 4),
        pairing_pick in 0usize..3,
    ) {
        let programs = build_programs(&ops, n_ranks);
        let profiles = infer_profiles(&programs);
        let pairings = enumerate_pairings(n_ranks);
        let placement = &pairings[pairing_pick % pairings.len()];
        let priorities = &prios[..n_ranks];
        let a = predict(&profiles, placement, priorities);
        let b = predict(&profiles, placement, priorities);
        prop_assert_eq!(&a, &b, "prediction must be deterministic");
        if let Some(p) = a {
            prop_assert!(p.makespan.is_finite() && p.makespan >= 0.0);
            prop_assert!(p.bottleneck < n_ranks);
            prop_assert!(p.imbalance_pct.is_finite() && p.imbalance_pct >= 0.0);
        }
    }

    /// The full verify pass (comm + priorities + plan advisories) never
    /// panics and renders bit-identically across MTB_JOBS settings.
    #[test]
    fn verify_is_deterministic_across_job_counts(
        ops in arb_ops(),
        n_ranks in 2usize..=4,
        prios in proptest::collection::vec(1u8..=6, 4),
    ) {
        let programs = build_programs(&ops, n_ranks);
        let placement: Vec<CtxAddr> = (0..n_ranks).map(CtxAddr::from_cpu).collect();
        let case = case_for(&placement, &prios[..n_ranks]);
        // The static analyzer is pure single-threaded code: the knob
        // that shards the simulator must not change any verdict.
        std::env::set_var("MTB_JOBS", "1");
        let r1 = mtb_verify::verify(&programs, &case).to_string();
        std::env::set_var("MTB_JOBS", "4");
        let r4 = mtb_verify::verify(&programs, &case).to_string();
        std::env::remove_var("MTB_JOBS");
        prop_assert_eq!(r1, r4, "verify output depends on MTB_JOBS");
    }

    /// Every plan the search enumerates round-trips through the model:
    /// predictable, and with a label the suggestion UI can print.
    #[test]
    fn enumerated_plans_are_predictable(
        ops in arb_ops(),
        n_ranks in 2usize..=4,
        plan_pick in 0usize..1024,
    ) {
        let programs = build_programs(&ops, n_ranks);
        let profiles = infer_profiles(&programs);
        let plans = enumerate_plans(n_ranks);
        let plan = &plans[plan_pick % plans.len()];
        let p = predict(&profiles, &plan.placement, &plan.priorities);
        prop_assert!(p.is_some(), "ladder plans are never starved: {}", plan.label());
        prop_assert!(!plan.label().is_empty());
    }
}
