//! Resource-profile inference: abstract interpretation of each rank's
//! statement stream into per-phase resource profiles.
//!
//! [`RankProfile::load`] reduces a rank to a single `(work, profile)`
//! pair — enough for the pairwise inversion lint, too coarse for
//! placement search. The phases keep the *structure*: the flat
//! operation stream is segmented at synchronization epochs (`Barrier`,
//! `AllReduce`, `Bcast`, `Reduce` — the same boundaries
//! [`mtb_mpisim::interp::count_sync_epochs`] counts), and each segment is
//! summarized into a [`PhaseProfile`]:
//!
//! * the **unit mix** — the instruction-weighted fraction of fixed-point,
//!   floating-point, load/store and branch instructions (from each
//!   workload's [`StreamSpec`]), i.e. which execution units the phase
//!   occupies;
//! * **boundedness** — which bound of the analytic IPC model binds:
//!   decode bandwidth, a single unit class, the dependency chain, or
//!   memory latency (a dependency bound whose average latency is
//!   dominated by misses past the L2);
//! * an **ILP class** per *ILP Aware Scheduling*: threads whose
//!   standalone IPC exceeds the fair half of the decode bandwidth are
//!   High (they want more than an equal SMT share), threads below 1 IPC
//!   are Low (latency-bound, cheap to co-schedule), the rest Medium.
//!
//! The co-run interference score combines two mixes through a
//! **sublinear response curve**: doubling the unit-mix overlap less than
//! doubles the observed slowdown, because issue slots lost to a busy
//! unit are partially hidden by the out-of-order window. The score
//! drives the `MTB-ILP-CONFLICT` lint and the pairing heuristics in
//! [`crate::plan`]; the makespan *numbers* come from the calibrated
//! mesoscale equations, not from this curve.

use mtb_mpisim::interp::{flatten, FlatOp};
use mtb_mpisim::Program;
use mtb_smtsim::inst::{InstClass, StreamSpec, DECODE_WIDTH, L2_BYTES, MEM_LAT, UNITS};
use mtb_smtsim::model::WorkloadProfile;
use mtb_smtsim::pairmodel::SPIN_PROFILE;

/// ILP class per *ILP Aware Scheduling*: how much of the core's decode
/// bandwidth the thread can convert into retirement when running alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum IlpClass {
    /// Standalone IPC below 1: latency-bound, leaves most slots unused.
    Low,
    /// In between: uses roughly its fair SMT share.
    Medium,
    /// Standalone IPC above half the decode width: wants more than an
    /// equal SMT share and suffers most from decode-share cuts.
    High,
}

impl IlpClass {
    /// Classify a standalone IPC against the decode bandwidth.
    pub fn of_ipc(ipc_st: f64) -> IlpClass {
        if ipc_st > DECODE_WIDTH / 2.0 {
            IlpClass::High
        } else if ipc_st < 1.0 {
            IlpClass::Low
        } else {
            IlpClass::Medium
        }
    }
}

impl std::fmt::Display for IlpClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IlpClass::Low => write!(f, "low-ILP"),
            IlpClass::Medium => write!(f, "medium-ILP"),
            IlpClass::High => write!(f, "high-ILP"),
        }
    }
}

/// Which bound of the analytic IPC model binds a phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Boundedness {
    /// The front end: the phase retires at the decode width.
    Decode,
    /// One execution-unit class saturates first.
    Unit(InstClass),
    /// The dependency chain limits overlap (short `dep_dist`).
    Dependency,
    /// A dependency bound whose latency is dominated by misses past the
    /// L2 — the memory-bound regime.
    Memory,
}

impl std::fmt::Display for Boundedness {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Boundedness::Decode => write!(f, "decode-bound"),
            Boundedness::Unit(InstClass::Fx) => write!(f, "integer-unit-bound"),
            Boundedness::Unit(InstClass::Fp) => write!(f, "FPU-bound"),
            Boundedness::Unit(InstClass::Ls) => write!(f, "load/store-unit-bound"),
            Boundedness::Unit(InstClass::Br) => write!(f, "branch-unit-bound"),
            Boundedness::Dependency => write!(f, "dependency-bound"),
            Boundedness::Memory => write!(f, "memory-bound"),
        }
    }
}

/// One synchronization-epoch segment of a rank's compute.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseProfile {
    /// Sync-epoch index the phase *precedes* (the trailing segment after
    /// the last sync op gets the next index).
    pub epoch: usize,
    /// Compute instructions in the segment.
    pub work: u64,
    /// Instruction-weighted unit mix, indexed by [`InstClass::index`].
    pub mix: [f64; 4],
    /// Mesoscale profile of the segment's dominant workload.
    pub profile: WorkloadProfile,
    /// The binding constraint of the dominant workload.
    pub bound: Boundedness,
    /// ILP class of the segment.
    pub ilp: IlpClass,
}

/// A rank's inferred resource profile: per-phase segments plus
/// whole-program aggregates.
#[derive(Debug, Clone, PartialEq)]
pub struct RankProfile {
    /// Rank index.
    pub rank: usize,
    /// Total compute instructions.
    pub work: u64,
    /// Per-sync-epoch segments (phases with zero compute are kept so
    /// epoch indices align across ranks).
    pub phases: Vec<PhaseProfile>,
    /// Instruction-weighted whole-program unit mix.
    pub mix: [f64; 4],
    /// Mesoscale profile of the dominant workload: the heaviest compute
    /// op of the phase with the most work (the profile
    /// [`RankProfile::load`] hands the priority lints).
    pub profile: WorkloadProfile,
    /// Binding constraint of the dominant workload.
    pub bound: Boundedness,
    /// Whole-program ILP class.
    pub ilp: IlpClass,
}

impl RankProfile {
    /// The rank's load summary, for the pairwise lints.
    pub fn load(&self) -> crate::prio::RankLoad {
        crate::prio::RankLoad {
            work: self.work,
            profile: self.profile,
        }
    }
}

/// Classify which analytic bound binds a stream spec, from the bounds
/// [`StreamSpec::profile`] combines ([`StreamSpec::bounds`]).
pub fn classify_bound(spec: &StreamSpec) -> Boundedness {
    let b = spec.bounds();
    if b.dep <= b.unit && b.dep <= DECODE_WIDTH {
        // Dependency-bound; call it memory-bound when the latency term is
        // dominated by misses that leave the L2.
        let mem_latency =
            b.fractions[InstClass::Ls.index()] * b.miss.l1_miss * b.miss.l2_miss * MEM_LAT;
        if spec.working_set > L2_BYTES && mem_latency > b.avg_lat * 0.5 {
            Boundedness::Memory
        } else {
            Boundedness::Dependency
        }
    } else if b.unit <= DECODE_WIDTH {
        Boundedness::Unit(b.unit_class)
    } else {
        Boundedness::Decode
    }
}

/// Infer per-phase resource profiles for every rank by abstractly
/// interpreting the concrete flat operation stream. Deterministic: the
/// result is a pure function of the programs.
pub fn infer_profiles(programs: &[Program]) -> Vec<RankProfile> {
    programs
        .iter()
        .enumerate()
        .map(|(rank, prog)| infer_rank(rank, prog))
        .collect()
}

/// Accumulates one phase until a sync boundary closes it.
#[derive(Default)]
struct PhaseAcc {
    work: u64,
    weighted_mix: [f64; 4],
    dominant: Option<(u64, StreamSpec, WorkloadProfile)>,
}

impl PhaseAcc {
    fn add(&mut self, ws: &mtb_mpisim::program::WorkSpec) {
        self.work += ws.instructions;
        let f = ws.workload.stream.fractions();
        for (acc, fr) in self.weighted_mix.iter_mut().zip(f) {
            *acc += fr * ws.instructions as f64;
        }
        if self
            .dominant
            .as_ref()
            .map_or(true, |(w, _, _)| ws.instructions > *w)
        {
            self.dominant = Some((ws.instructions, ws.workload.stream, ws.workload.profile));
        }
    }

    fn finish(self, epoch: usize) -> PhaseProfile {
        let mix = if self.work > 0 {
            let mut m = self.weighted_mix;
            for v in &mut m {
                *v /= self.work as f64;
            }
            m
        } else {
            StreamSpec::balanced(0).fractions()
        };
        let (profile, bound) = match &self.dominant {
            Some((_, spec, prof)) => (*prof, classify_bound(spec)),
            None => (SPIN_PROFILE, Boundedness::Decode),
        };
        PhaseProfile {
            epoch,
            work: self.work,
            mix,
            ilp: IlpClass::of_ipc(profile.ipc_st),
            profile,
            bound,
        }
    }
}

fn infer_rank(rank: usize, prog: &Program) -> RankProfile {
    let mut phases = Vec::new();
    let mut acc = PhaseAcc::default();
    for op in flatten(prog, rank) {
        match op {
            FlatOp::Compute(ws) => acc.add(&ws),
            FlatOp::Barrier
            | FlatOp::AllReduce { .. }
            | FlatOp::Bcast { .. }
            | FlatOp::Reduce { .. } => {
                let epoch = phases.len();
                phases.push(std::mem::take(&mut acc).finish(epoch));
            }
            _ => {}
        }
    }
    // Trailing segment after the last sync op (often empty).
    let epoch = phases.len();
    phases.push(acc.finish(epoch));

    // Whole-program aggregates over the phases.
    let work: u64 = phases.iter().map(|p| p.work).sum();
    let mut mix = [0.0f64; 4];
    if work > 0 {
        for p in &phases {
            for (m, v) in mix.iter_mut().zip(p.mix) {
                *m += v * p.work as f64;
            }
        }
        for v in &mut mix {
            *v /= work as f64;
        }
    } else {
        mix = StreamSpec::balanced(0).fractions();
    }
    let dominant = phases
        .iter()
        .max_by_key(|p| p.work)
        .expect("at least the trailing phase");
    let (profile, bound) = if work > 0 {
        (dominant.profile, dominant.bound)
    } else {
        (SPIN_PROFILE, Boundedness::Decode)
    };
    RankProfile {
        rank,
        work,
        phases,
        mix,
        ilp: IlpClass::of_ipc(profile.ipc_st),
        profile,
        bound,
    }
}

/// Exponent of the sublinear unit-bound response curve: observed co-run
/// slowdown grows as `overlap^GAMMA`, with `GAMMA < 1` because the
/// out-of-order window hides part of every additional unit conflict.
pub const RESPONSE_GAMMA: f64 = 0.5;

/// Co-run interference score in `[0, 1]`: how much two unit mixes fight
/// over the same execution units, through the sublinear response curve.
/// `1.0` = both streams queue on identical saturated units; `0.0` = the
/// mixes are disjoint.
pub fn corun_interference(a: &RankProfile, b: &RankProfile) -> f64 {
    // Per-class pressure = fraction of the class's unit bandwidth each
    // thread would consume alone; the overlap is what both want at once.
    let overlap: f64 = (0..4)
        .map(|c| {
            let pa = (a.mix[c] * a.profile.ipc_st / UNITS[c]).min(1.0);
            let pb = (b.mix[c] * b.profile.ipc_st / UNITS[c]).min(1.0);
            pa.min(pb)
        })
        .sum::<f64>()
        .min(1.0);
    overlap.powf(RESPONSE_GAMMA)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtb_mpisim::program::WorkSpec;
    use mtb_mpisim::ProgramBuilder;
    use mtb_smtsim::model::Workload;

    fn wl(spec: StreamSpec) -> Workload {
        Workload::from_spec("t", spec)
    }

    #[test]
    fn phases_split_at_sync_epochs() {
        let prog = ProgramBuilder::new()
            .repeat(3, |b| {
                b.compute(WorkSpec::new(wl(StreamSpec::balanced(1)), 1000))
                    .barrier()
            })
            .build();
        let p = infer_profiles(&[prog]).remove(0);
        // Three barrier-closed phases plus the empty trailing segment.
        assert_eq!(p.phases.len(), 4);
        assert_eq!(p.phases[0].work, 1000);
        assert_eq!(p.phases[3].work, 0);
        assert_eq!(p.work, 3000);
        assert_eq!(
            p.phases.iter().map(|ph| ph.epoch).collect::<Vec<_>>(),
            vec![0, 1, 2, 3]
        );
    }

    #[test]
    fn boundedness_matches_the_stream_archetypes() {
        assert_eq!(
            classify_bound(&StreamSpec::fpu_bound(0)),
            Boundedness::Dependency,
            "fpu_bound: dep_dist 2 against 6-cycle FP latency"
        );
        assert_eq!(
            classify_bound(&StreamSpec::pointer_chase(0)),
            Boundedness::Memory
        );
        // `frontend_bound` is integer-heavy enough that the two FX units
        // saturate just before the 5-wide decode does — still a high-ILP,
        // decode-share-sensitive stream.
        assert_eq!(
            classify_bound(&StreamSpec::frontend_bound(0)),
            Boundedness::Unit(InstClass::Fx)
        );
    }

    #[test]
    fn ilp_classes_bracket_the_fair_share() {
        assert_eq!(IlpClass::of_ipc(3.0), IlpClass::High);
        assert_eq!(IlpClass::of_ipc(2.0), IlpClass::Medium);
        assert_eq!(IlpClass::of_ipc(0.4), IlpClass::Low);
        let chase = StreamSpec::pointer_chase(0).profile();
        assert_eq!(IlpClass::of_ipc(chase.ipc_st), IlpClass::Low);
        let fe = StreamSpec::frontend_bound(0).profile();
        assert_eq!(IlpClass::of_ipc(fe.ipc_st), IlpClass::High);
    }

    #[test]
    fn mix_is_instruction_weighted() {
        // 3/4 of the instructions are pure-FP, 1/4 balanced.
        let prog = ProgramBuilder::new()
            .compute(WorkSpec::new(wl(StreamSpec::fpu_bound(0)), 3000))
            .compute(WorkSpec::new(wl(StreamSpec::balanced(0)), 1000))
            .build();
        let p = infer_profiles(&[prog]).remove(0);
        let fp = p.mix[InstClass::Fp.index()];
        let expect = 0.75 * 0.8 + 0.25 * (2.0 / 11.0);
        assert!((fp - expect).abs() < 1e-9, "fp mix {fp} vs {expect}");
    }

    #[test]
    fn interference_is_high_for_twins_low_for_disjoint() {
        let twins = infer_profiles(&[
            ProgramBuilder::new()
                .compute(WorkSpec::new(wl(StreamSpec::fpu_bound(0)), 1000))
                .build(),
            ProgramBuilder::new()
                .compute(WorkSpec::new(wl(StreamSpec::fpu_bound(1)), 1000))
                .build(),
            ProgramBuilder::new()
                .compute(WorkSpec::new(wl(StreamSpec::branch_bound(2)), 1000))
                .build(),
        ]);
        let same = corun_interference(&twins[0], &twins[1]);
        let diff = corun_interference(&twins[0], &twins[2]);
        assert!(
            same > diff,
            "identical FP streams must interfere more: {same} vs {diff}"
        );
    }

    #[test]
    fn empty_rank_reports_the_spin_profile() {
        let p = infer_profiles(&[ProgramBuilder::new().build()]).remove(0);
        assert_eq!(p.work, 0);
        assert_eq!(p.profile, SPIN_PROFILE);
    }

    #[test]
    fn inference_is_deterministic() {
        let prog = || {
            ProgramBuilder::new()
                .repeat(2, |b| {
                    b.compute(WorkSpec::new(wl(StreamSpec::l2_bound(7)), 5000))
                        .allreduce(64)
                })
                .build()
        };
        assert_eq!(infer_profiles(&[prog()]), infer_profiles(&[prog()]));
    }
}
