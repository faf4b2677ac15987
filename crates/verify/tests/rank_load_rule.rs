//! One rank-load rule for the priority-inversion lint.
//!
//! `mtb lint` runs [`verify`], and `mtb suggest`'s hazard filter runs
//! [`check_case`] on each rank's [`RankProfile::load`]: the total work and
//! the profile of the heaviest compute op in the rank's heaviest phase.
//! Both must read the same loads, or the two commands judge one program
//! differently. The program here tells the rules apart: the light rank's
//! heaviest single op sits in its lighter phase, and only that op's
//! decode-hungry profile makes the boosted pair invert.

use mtb_mpisim::program::{Program, ProgramBuilder, WorkSpec};
use mtb_oskernel::{CtxAddr, KernelFlavour, PrioritySetting};
use mtb_smtsim::inst::StreamSpec;
use mtb_smtsim::model::{Workload, WorkloadProfile};
use mtb_verify::prio::check_case;
use mtb_verify::{codes, infer_profiles, verify, CaseSpec, RankLoad, RankProfile};

/// A decode-hungry stream, hurt by every decode slot it loses.
const DENSE: f64 = 2.8;
/// A latency-bound stream, nearly indifferent to its decode share.
const SPARSE: f64 = 0.3;

fn work(ipc: f64, instructions: u64) -> WorkSpec {
    WorkSpec::new(
        Workload::with_profile(
            "w",
            StreamSpec::balanced(1),
            WorkloadProfile::new(ipc, 0.2, 0.05),
        ),
        instructions,
    )
}

/// Two ranks, two phases split by a barrier. The light rank computes one
/// dense 400k-instruction op, then four sparse 150k ops (its heavier
/// phase); the heavy rank computes 2M dense instructions per phase.
fn programs() -> Vec<Program> {
    let light = ProgramBuilder::new()
        .compute(work(DENSE, 400_000))
        .barrier()
        .repeat(4, |b| b.compute(work(SPARSE, 150_000)))
        .build();
    let heavy = ProgramBuilder::new()
        .compute(work(DENSE, 2_000_000))
        .barrier()
        .compute(work(DENSE, 2_000_000))
        .build();
    vec![light, heavy]
}

/// Both ranks on core 0, the heavy one boosted three levels above the
/// light one (the paper's case-D shape).
fn case() -> CaseSpec {
    CaseSpec {
        name: "two-phase".into(),
        placement: vec![CtxAddr::from_cpu(0), CtxAddr::from_cpu(1)],
        priorities: vec![PrioritySetting::ProcFs(3), PrioritySetting::ProcFs(6)],
        flavour: KernelFlavour::Patched,
    }
}

#[test]
fn verify_and_the_hazard_filter_read_one_rank_load() {
    let programs = programs();
    let case = case();
    let loads: Vec<RankLoad> = infer_profiles(&programs)
        .iter()
        .map(RankProfile::load)
        .collect();
    assert_eq!(loads[0].work, 1_000_000);
    assert_eq!(
        loads[0].profile.ipc_st, SPARSE,
        "heaviest phase's heaviest op"
    );

    // The program tells the rules apart: with the light rank's heaviest
    // single op (dense) the inversion lint fires, with its heaviest
    // phase's op (sparse) it does not.
    let heaviest_op = [
        RankLoad {
            profile: WorkloadProfile::new(DENSE, 0.2, 0.05),
            ..loads[0]
        },
        loads[1],
    ];
    assert!(check_case(&case, &heaviest_op).has_code(codes::PRIO_INVERT));
    let filter = check_case(&case, &loads).has_code(codes::PRIO_INVERT);
    assert!(!filter);

    let report = verify(&programs, &case);
    assert_eq!(
        report.has_code(codes::PRIO_INVERT),
        filter,
        "verify and the hazard filter disagree on the inversion:\n{report}"
    );
}
