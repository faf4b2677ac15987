//! # mtb-verify — static analysis of rank programs and priority
//! configurations
//!
//! The paper's central hazard is that a *wrong* priority configuration
//! silently inverts the imbalance and loses performance (MetBench case D,
//! BT-MZ case B, SIESTA case D), and a wrong program deadlocks after
//! cycles have been spent. This crate proves a `(programs, case)` pair
//! sane *before* simulation:
//!
//! * [`comm`] — communication-graph checks by time-free abstract
//!   interpretation of the symbolically flattened programs: wait-for
//!   cycles, unmatched sends/receives, orphan `Irecv`s, mismatched
//!   collective participation, out-of-range ranks. Message matching in
//!   the engine is FIFO per `(from, tag)` and time-independent, so the
//!   abstract verdict matches the engine's termination behaviour exactly.
//! * [`prio`] — priority-configuration lints: Table I legality per the
//!   configured kernel interface, priority-0/1 starvation semantics,
//!   bounded-difference violations, and the decode-share *inversion*
//!   prediction over the case's same-core pairs.
//! * [`profile`] — resource-profile inference: per-sync-epoch unit mix,
//!   boundedness and ILP class abstracted from each rank's statement
//!   stream.
//! * [`plan`] — the static makespan model over `(placement,
//!   priority-plan)` space, the plan search `mtb suggest` ranks, and the
//!   model-driven placement lints (`MTB-ILP-CONFLICT`,
//!   `MTB-BOTTLENECK-UNPAIRED`, `MTB-PLAN-DOMINATED`).
//! * [`diag`] — severities, stable `MTB-*` lint codes, spans, and the
//!   [`Report`] all passes write into.
//!
//! Entry points: [`verify_programs`] (comm only), [`verify_case`]
//! (priorities only), [`verify`] (both, deriving per-rank profiles, and
//! the loads the priority lints read from them, from the programs).

#![forbid(unsafe_code)]

pub mod comm;
pub mod diag;
pub mod plan;
pub mod prio;
pub mod profile;

pub use diag::{check_share_groups, codes, Diagnostic, Report, Severity};
pub use plan::{enumerate_plans, predict, Plan, Prediction};
pub use prio::{CaseSpec, RankLoad};
pub use profile::{infer_profiles, Boundedness, IlpClass, RankProfile};

use mtb_mpisim::Program;

/// Check the communication structure of one program per rank.
pub fn verify_programs(programs: &[Program]) -> Report {
    comm::check_programs(programs)
}

/// Check a priority configuration; `loads` feeds the inversion
/// prediction (pass `&[]` to skip it).
pub fn verify_case(case: &CaseSpec, loads: &[RankLoad]) -> Report {
    prio::check_case(case, loads)
}

/// Full verification of a `(programs, case)` pair: communication checks,
/// then the priority lints and the model-driven placement advisories,
/// both over the resource profiles inferred once from the programs'
/// concrete flattening (the priority lints read each rank's
/// [`RankProfile::load`]).
pub fn verify(programs: &[Program], case: &CaseSpec) -> Report {
    let mut report = comm::check_programs(programs);
    let profiles = profile::infer_profiles(programs);
    let loads: Vec<RankLoad> = profiles.iter().map(RankProfile::load).collect();
    report.merge(prio::check_case(case, &loads));
    report.merge(plan::check_plan(case, &profiles));
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtb_mpisim::program::WorkSpec;
    use mtb_mpisim::ProgramBuilder;
    use mtb_smtsim::inst::StreamSpec;
    use mtb_smtsim::model::{Workload, WorkloadProfile};

    fn wl(ipc: f64) -> Workload {
        Workload::with_profile(
            "w",
            StreamSpec::balanced(1),
            WorkloadProfile::new(ipc, 0.2, 0.05),
        )
    }

    #[test]
    fn clean_barrier_program_passes() {
        let prog = |n: u64| {
            ProgramBuilder::new()
                .repeat(3, move |b| b.compute(WorkSpec::new(wl(2.0), n)).barrier())
                .build()
        };
        let r = verify_programs(&[prog(10_000), prog(40_000)]);
        assert!(r.diagnostics.is_empty(), "{r}");
    }

    #[test]
    fn cyclic_recv_flagged_as_deadlock() {
        let p0 = ProgramBuilder::new().recv(1, 1).send(1, 2, 64).build();
        let p1 = ProgramBuilder::new().recv(0, 2).send(0, 1, 64).build();
        let r = verify_programs(&[p0, p1]);
        assert!(r.has_errors());
        assert!(r.has_code(codes::DEADLOCK_CYCLE), "{r}");
    }

    #[test]
    fn missed_barrier_flagged_as_collective_mismatch() {
        let p0 = ProgramBuilder::new().barrier().build();
        let p1 = ProgramBuilder::new().build();
        let r = verify_programs(&[p0, p1]);
        assert!(r.has_errors());
        assert!(r.has_code(codes::COLLECTIVE_MISMATCH), "{r}");
    }

    #[test]
    fn recv_from_finished_rank_flagged_unmatched() {
        let p0 = ProgramBuilder::new().recv(1, 99).build();
        let p1 = ProgramBuilder::new()
            .compute(WorkSpec::new(wl(2.0), 1_000))
            .build();
        let r = verify_programs(&[p0, p1]);
        assert!(r.has_errors());
        assert!(r.has_code(codes::UNMATCHED_RECV), "{r}");
    }

    #[test]
    fn orphan_irecv_and_leaked_send_warn() {
        // Rank 0 posts an irecv it never waits for; rank 1's second send
        // is never received.
        let p0 = ProgramBuilder::new().irecv(1, 1).build();
        let p1 = ProgramBuilder::new().send(0, 1, 64).send(0, 5, 64).build();
        let r = verify_programs(&[p0, p1]);
        assert!(!r.has_errors(), "eager sends complete: {r}");
        assert!(r.has_code(codes::ORPHAN_IRECV), "{r}");
        assert!(r.has_code(codes::UNMATCHED_SEND), "{r}");
    }

    #[test]
    fn ping_pong_with_waitall_is_clean() {
        let p0 = ProgramBuilder::new()
            .isend(1, 7, 4096)
            .irecv(1, 8)
            .waitall()
            .build();
        let p1 = ProgramBuilder::new()
            .isend(0, 8, 4096)
            .irecv(0, 7)
            .waitall()
            .build();
        let r = verify_programs(&[p0, p1]);
        assert!(r.diagnostics.is_empty(), "{r}");
    }

    #[test]
    fn structural_edge_cases_are_infos() {
        let p = ProgramBuilder::new()
            .repeat(0, |b| b.compute(WorkSpec::new(wl(2.0), 1)))
            .waitall()
            .send(0, 1, 8)
            .recv(0, 1)
            .build();
        let r = verify_programs(&[p]);
        assert!(!r.has_errors(), "{r}");
        assert!(r.has_code(codes::EMPTY_LOOP), "{r}");
        assert!(r.has_code(codes::WAITALL_EMPTY), "{r}");
        assert!(r.has_code(codes::SELF_SEND), "{r}");
    }

    #[test]
    fn recv_from_self_before_send_deadlocks() {
        let p = ProgramBuilder::new().recv(0, 1).send(0, 1, 8).build();
        let r = verify_programs(&[p]);
        assert!(r.has_errors());
        assert!(
            r.has_code(codes::DEADLOCK_CYCLE),
            "one-rank self-cycle: {r}"
        );
    }

    #[test]
    fn out_of_range_target_is_an_error() {
        let p = ProgramBuilder::new().send(5, 1, 8).build();
        let r = verify_programs(&[p]);
        assert!(r.has_errors());
        assert!(r.has_code(codes::RANK_RANGE), "{r}");
    }

    #[test]
    fn rooted_collective_order_verified() {
        // Rank 1 reduces before bcasting while rank 0 does the opposite:
        // incompatible kinds at epoch 0.
        let p0 = ProgramBuilder::new().bcast(0, 64).reduce(0, 64).build();
        let p1 = ProgramBuilder::new().reduce(0, 64).bcast(0, 64).build();
        let r = verify_programs(&[p0, p1]);
        assert!(r.has_errors());
        assert!(r.has_code(codes::COLLECTIVE_MISMATCH), "{r}");
    }

    #[test]
    fn barrier_vs_allreduce_mix_is_a_warning_only() {
        let p0 = ProgramBuilder::new().barrier().build();
        let p1 = ProgramBuilder::new().allreduce(64).build();
        let r = verify_programs(&[p0, p1]);
        assert!(!r.has_errors(), "engine-legal: {r}");
        assert!(r.has_code(codes::COLLECTIVE_MISMATCH), "{r}");
    }
}
