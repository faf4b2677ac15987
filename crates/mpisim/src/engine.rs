//! The discrete-event system simulator.
//!
//! The engine owns a [`Machine`] (cores + kernel + noise) and one flattened
//! program per MPI rank. It repeatedly:
//!
//! 1. dispatches every *ready* rank into its next operation (installing a
//!    workload for a compute phase, posting messages, joining a barrier
//!    epoch, ...);
//! 2. computes the earliest MPI-visible event — a message arrival, a
//!    collective release, the end of a local overhead — and lists every
//!    computing rank's instruction target;
//! 3. lets the machine advance to the first of that event and a target's
//!    completion (exact under the mesoscale core model), crossing noise
//!    windows on the way ([`Machine::advance_until`]), then resolves
//!    completions.
//!
//! Because per-context retire rates only change at events (priority
//! changes, workload installs/clears, noise windows), stepping from event
//! to event is *exact*, not approximate, with the mesoscale model — and a
//! configurable quantum bounds the drift with the cycle-level model.
//!
//! Waiting time accrues exactly as in the paper: a rank that reaches its
//! `mpi_waitall`/barrier early sits in `Sync` state while its hardware
//! context *busy-waits* at the process priority (MPICH spins in user
//! space), still consuming its decode share — which is precisely why the
//! paper's priority reassignment matters. A context only goes truly idle
//! (kernel idle loop at VERY LOW priority) when its process exits.

use crate::collective::{EpochKind, SyncEpochs, SyncEpochsState};
use crate::comm::{CommRankState, CommState, LatencyModel, Message};
use crate::interp::{for_each_op, FlatOp, OpRef};
use crate::program::{Program, Rank, Tag, TracePhase, WorkSpec};
use mtb_oskernel::{
    CtxAddr, KernelConfig, Machine, MachineError, MachineState, NoiseError, NoiseSource,
    Segmentation, Topology, WaitPolicy,
};
use mtb_smtsim::chip::{build_cores_grouped, Fidelity};
use mtb_smtsim::model::Workload;
use mtb_trace::paraver::CommEvent;
use mtb_trace::Cycles;
use mtb_trace::{Interval, ProcState, RunMetrics, Timeline, TimelineBuilder};
use std::fmt;

/// What one rank was doing when a run failed — the per-rank detail of
/// [`SimError::Deadlock`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RankSnapshot {
    /// MPI rank.
    pub rank: Rank,
    /// Engine state, rendered (`"WaitRecv { hidx: 0 }"`, ...).
    pub state: String,
    /// Ops already dispatched.
    pub pc: usize,
    /// Total ops in the rank's flat program.
    pub total_ops: usize,
    /// The op the rank would dispatch next, rendered (None at end).
    pub next_op: Option<String>,
    /// Ranks this rank cannot proceed without — its wait-for edges.
    pub waiting_on: Vec<Rank>,
}

/// Why an engine could not be built, or a run could not complete.
///
/// [`Engine::try_new`] / [`Engine::try_run`] return these; the panicking
/// wrappers ([`Engine::new`] / [`Engine::run`]) panic with the same
/// [`fmt::Display`] text.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// `placement.len()` differs from the number of rank programs.
    PlacementMismatch {
        /// Number of rank programs.
        ranks: usize,
        /// Number of placement entries.
        contexts: usize,
    },
    /// A rank could not be pinned to its hardware context.
    Placement {
        /// The offending rank.
        rank: Rank,
        /// The context it was assigned.
        ctx: CtxAddr,
        /// Why the machine refused it.
        source: MachineError,
    },
    /// An op names a peer or root outside `0..n_ranks`.
    InvalidRank {
        /// The rank whose program is broken.
        rank: Rank,
        /// Index of the offending op in the rank's flat program.
        op_index: usize,
        /// The out-of-range target rank.
        target: Rank,
        /// Number of ranks in the run.
        n_ranks: usize,
    },
    /// Ranks disagree on how many collectives they join.
    CollectiveMismatch {
        /// Per-rank collective counts.
        counts: Vec<usize>,
    },
    /// Two ranks join the same epoch with incompatible collective kinds
    /// (e.g. one broadcasts while the other reduces).
    CollectiveKindMismatch {
        /// Epoch index where the streams diverge.
        epoch: usize,
        /// First rank (reference).
        rank_a: Rank,
        /// The disagreeing rank.
        rank_b: Rank,
        /// `rank_a`'s epoch kind.
        kind_a: EpochKind,
        /// `rank_b`'s epoch kind.
        kind_b: EpochKind,
    },
    /// No rank can make progress.
    Deadlock {
        /// Simulation time of the stall.
        at: Cycles,
        /// A cycle in the wait-for graph, if one exists (`[a, b]` means
        /// a waits on b waits on a). Empty when the stall is acyclic,
        /// e.g. a receive from a rank that already finished.
        cycle: Vec<Rank>,
        /// Per-rank state at the stall, rank order.
        per_rank: Vec<RankSnapshot>,
    },
    /// The run exceeded the configured cycle budget.
    MaxCycles {
        /// The configured `max_cycles`.
        limit: Cycles,
    },
    /// A checkpoint could not be restored into this engine — shape
    /// mismatch (different core count, fidelity, rank count, program
    /// length) or internally inconsistent snapshot data.
    Restore(String),
    /// A [`SimConfig::noise`] entry cannot be simulated (its target core
    /// does not exist, or a periodic source's cost does not fit in its
    /// period).
    InvalidNoise {
        /// Index of the offending entry in [`SimConfig::noise`].
        index: usize,
        /// What is wrong with it.
        reason: NoiseError,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::PlacementMismatch { ranks, contexts } => write!(
                f,
                "placement must cover every rank ({contexts} contexts for {ranks} ranks)"
            ),
            SimError::Placement { rank, ctx, source } => {
                write!(f, "cannot place rank {rank} on {ctx:?}: {source}")
            }
            SimError::InvalidRank {
                rank,
                op_index,
                target,
                n_ranks,
            } => write!(
                f,
                "rank {rank} op {op_index} targets rank {target}, \
                 but only ranks 0..{n_ranks} exist"
            ),
            SimError::CollectiveMismatch { counts } => {
                write!(f, "ranks disagree on collective counts: {counts:?}")
            }
            SimError::CollectiveKindMismatch {
                epoch,
                rank_a,
                rank_b,
                kind_a,
                kind_b,
            } => write!(
                f,
                "ranks disagree on the kind of collective {epoch}: \
                 rank {rank_a} joins {kind_a:?}, rank {rank_b} joins {kind_b:?}"
            ),
            SimError::Deadlock {
                at,
                cycle,
                per_rank,
            } => {
                write!(f, "simulation deadlock at cycle {at}")?;
                if !cycle.is_empty() {
                    write!(f, " (wait cycle: {cycle:?})")?;
                }
                writeln!(f, ":")?;
                for s in per_rank {
                    writeln!(
                        f,
                        "  rank {}: state {}, pc {}/{} (next op: {:?}), waiting on {:?}",
                        s.rank, s.state, s.pc, s.total_ops, s.next_op, s.waiting_on
                    )?;
                }
                Ok(())
            }
            SimError::MaxCycles { limit } => {
                write!(f, "simulation exceeded max_cycles ({limit}); livelock?")
            }
            SimError::Restore(why) => write!(f, "cannot restore checkpoint: {why}"),
            SimError::InvalidNoise { index, reason } => {
                write!(f, "invalid noise source {index}: {reason}")
            }
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::Placement { source, .. } => Some(source),
            SimError::InvalidNoise { reason, .. } => Some(reason),
            _ => None,
        }
    }
}

/// Find a cycle in the wait-for graph `waits` (edge `r -> waits[r][i]`).
/// Returns the ranks along the first cycle found, in wait order, or an
/// empty vec if the graph is acyclic. Self-loops (a rank waiting on
/// itself, e.g. a blocking self-receive) are one-element cycles. The
/// engine's deadlock diagnostic and the static analyzer's stall
/// diagnosis both name the cycle this returns.
pub fn find_cycle(waits: &[Vec<Rank>]) -> Vec<Rank> {
    #[derive(Clone, Copy, PartialEq)]
    enum Colour {
        White,
        Grey,
        Black,
    }
    fn visit(
        r: Rank,
        waits: &[Vec<Rank>],
        colour: &mut [Colour],
        stack: &mut Vec<Rank>,
    ) -> Option<Vec<Rank>> {
        colour[r] = Colour::Grey;
        stack.push(r);
        for &next in &waits[r] {
            match colour[next] {
                Colour::Grey => {
                    let start = stack.iter().position(|&x| x == next).unwrap_or(0);
                    return Some(stack[start..].to_vec());
                }
                Colour::White => {
                    if let Some(c) = visit(next, waits, colour, stack) {
                        return Some(c);
                    }
                }
                Colour::Black => {}
            }
        }
        stack.pop();
        colour[r] = Colour::Black;
        None
    }
    let mut colour = vec![Colour::White; waits.len()];
    for r in 0..waits.len() {
        if colour[r] == Colour::White {
            let mut stack = Vec::new();
            if let Some(c) = visit(r, waits, &mut colour, &mut stack) {
                return c;
            }
        }
    }
    Vec::new()
}

/// Per-rank compute/wait accounting over one synchronization window,
/// handed to [`Observer::on_epoch`] — the measurements the paper's
/// envisioned dynamic balancer would sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RankWindow {
    /// MPI rank.
    pub rank: Rank,
    /// Cycles spent computing since the previous epoch release.
    pub compute: Cycles,
    /// Cycles spent waiting since the previous epoch release.
    pub sync: Cycles,
}

/// A callback invoked at every completed synchronization epoch, with
/// mutable access to the machine — the hook the dynamic balancing policy
/// (`mtb-core`) plugs into.
pub trait Observer {
    /// Epoch `epoch` just got its last arrival; `windows` holds per-rank
    /// compute/wait cycles since the previous epoch.
    fn on_epoch(&mut self, epoch: usize, windows: &[RankWindow], machine: &mut Machine);
}

/// A no-op observer.
pub struct NullObserver;

impl Observer for NullObserver {
    fn on_epoch(&mut self, _: usize, _: &[RankWindow], _: &mut Machine) {}
}

/// How [`Engine::try_run_with`] advances simulated time between events.
///
/// An event is an instant where a rank can change state: an op
/// dispatch, an epoch release, a message arrival, a compute phase
/// reaching its target. [`Observer`]s fire at epoch completions (which
/// are events), so skipping straight to the next event visits exactly
/// the same machine states as stepping up to it in quantum-sized slices.
/// A noise boundary is not an event: no rank changes state there, and
/// the machine crosses it inside one [`Machine::advance_until`] call — a
/// noisy meso machine walks every handler flip up to the next event,
/// while a shared-L2 machine, or one under
/// [`mtb_oskernel::Segmentation::Reference`], still ends the step at the
/// boundary and is called again. For the mesoscale core model the
/// progress accounting is segmentation-invariant (anchor-based), making
/// the two modes byte-identical; the cycle-level model's
/// `cycles_to_retire` is a rate *estimate* that the quantum deliberately
/// re-evaluates, so cycle fidelity keeps quantum stepping as its
/// reference behavior.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Stepping {
    /// Event-horizon jumps for mesoscale fidelity, quantum stepping for
    /// cycle fidelity (the right default for both).
    #[default]
    Auto,
    /// Always jump to the next event, regardless of fidelity.
    EventHorizon,
    /// Always clamp each advance to `quantum` (the pre-fast-forward
    /// behavior; the benchmark layer's reference mode).
    Quantum,
}

/// Configuration of a system simulation.
pub struct SimConfig {
    /// Number of SMT cores (the paper's machine has 2).
    pub cores: usize,
    /// Core model and its configuration.
    pub fidelity: Fidelity,
    /// Kernel flavour and priorities.
    pub kernel: KernelConfig,
    /// `placement[rank]` = hardware context the rank is pinned to.
    pub placement: Vec<CtxAddr>,
    /// Communication cost model.
    pub latency: LatencyModel,
    /// Core-to-node grouping (single node by default, like the paper's
    /// OpenPower 710).
    pub topology: Topology,
    /// How ranks wait inside MPI calls (stock-MPICH spinning by default).
    pub wait_policy: WaitPolicy,
    /// Extrinsic noise sources.
    pub noise: Vec<NoiseSource>,
    /// Hard stop: the run fails with [`SimError::MaxCycles`] past this
    /// many cycles (deadlock/livelock guard).
    pub max_cycles: Cycles,
    /// Maximum advance per step (bounds rate drift for the cycle model).
    /// Only binding under [`Stepping::Quantum`] (or [`Stepping::Auto`]
    /// with cycle fidelity).
    pub quantum: Cycles,
    /// Time-advance strategy; see [`Stepping`].
    pub stepping: Stepping,
    /// Intra-run worker threads for machine stepping (1 = sequential).
    /// Each advance window is one **epoch** whose bound is fixed before
    /// any core moves (earliest pending event, kernel quantum, or
    /// checkpoint boundary — nothing a core can change mid-epoch), so
    /// share-group shards step privately on persistent pinned workers
    /// and the coordinator merges per-shard accounting once per epoch;
    /// message delivery and collective release stay on the coordinator
    /// at the merge point. A noisy meso machine is the exception: it
    /// walks its noise edges sequentially inside each event
    /// ([`Machine::advance_until`]), whatever this says. Extra threads
    /// are drawn from the global permit budget *per epoch* (so
    /// sweep-level and run-level parallelism compose without
    /// oversubscription, and an idle run holds no permits) and results,
    /// event counts included, are bit-identical at any setting —
    /// `threads` therefore does *not* enter any record/config hash.
    pub threads: usize,
    /// How the machine segments epochs at noise boundaries (event
    /// calendar vs the reference per-segment scan). Results are
    /// bit-identical either way, so like `threads` this is excluded from
    /// every record/config hash; the knob exists for the differential
    /// suites and the kernel-path benchmarks.
    pub segmentation: Segmentation,
}

impl SimConfig {
    /// The paper's machine: 2 SMT cores, patched kernel, no noise, rank i
    /// pinned to cpu i.
    pub fn power5(n_ranks: usize) -> SimConfig {
        SimConfig {
            cores: 2,
            fidelity: Fidelity::default(),
            kernel: KernelConfig::patched(),
            placement: (0..n_ranks).map(CtxAddr::from_cpu).collect(),
            latency: LatencyModel::default(),
            topology: Topology::single_node(),
            wait_policy: WaitPolicy::default(),
            noise: Vec::new(),
            max_cycles: 20_000_000_000_000,
            quantum: 1_000_000_000,
            stepping: Stepping::default(),
            threads: 1,
            segmentation: Segmentation::default(),
        }
    }
}

/// What a rank is doing, from the engine's point of view. Public so
/// checkpoints ([`EngineState`]) can carry it as plain data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RankState {
    /// Will dispatch its next op at the current instant.
    Ready,
    /// Computing until the machine retires `target` total instructions.
    Computing {
        /// Absolute retired-instruction target.
        target: u64,
    },
    /// Occupied by local communication overhead until the given time.
    CommBusy {
        /// Absolute completion time.
        until: Cycles,
    },
    /// Blocked in a blocking receive on handle `hidx`.
    WaitRecv {
        /// Handle index within the rank's pending set.
        hidx: usize,
    },
    /// Blocked in `mpi_waitall`.
    WaitAll,
    /// Waiting inside collective epoch `idx`.
    InEpoch {
        /// Epoch index.
        idx: usize,
    },
    /// Program finished.
    Done,
}

/// Result of a completed run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Per-rank activity timelines (rank order).
    pub timelines: Vec<Timeline>,
    /// Derived metrics (imbalance %, exec time, per-process breakdown).
    pub metrics: RunMetrics,
    /// Per-rank instructions retired.
    pub retired: Vec<u64>,
    /// Per-rank cycles stolen by noise.
    pub interrupt_cycles: Vec<Cycles>,
    /// Per-rank cycles spent doing useful work.
    pub busy_cycles: Vec<Cycles>,
    /// Per-rank cycles burned busy-waiting in MPI calls — the direct cost
    /// of imbalance on an SMT machine.
    pub spin_cycles: Vec<Cycles>,
    /// Every point-to-point message (for PARAVER export via
    /// [`mtb_trace::paraver::export_with_comm`]).
    pub comm_log: Vec<CommEvent>,
    /// Total execution time in cycles.
    pub total_cycles: Cycles,
    /// Structured runtime notes (stable `MTB-*` codes with explanations),
    /// e.g. a sharding collapse caused by a non-contiguous placement.
    /// Derived from the configuration alone — never from thread count or
    /// schedule — so they are safe to include in record hashes.
    pub notes: Vec<String>,
}

impl RunResult {
    /// Per-rank useful-compute cycles, read off the timelines (rank
    /// order). This is the `Comp` column of the paper's tables in
    /// absolute cycles.
    pub fn compute_cycles(&self) -> Vec<Cycles> {
        self.timelines
            .iter()
            .map(|t| t.time_where(ProcState::is_useful))
            .collect()
    }

    /// Per-rank synchronization-wait cycles (rank order) — the absolute
    /// form of the paper's imbalance metric numerator.
    pub fn sync_cycles(&self) -> Vec<Cycles> {
        self.timelines
            .iter()
            .map(|t| t.time_where(ProcState::is_waiting))
            .collect()
    }
}

/// Plain-data snapshot of one rank's in-progress timeline builder
/// (the raw parts of [`TimelineBuilder`]).
#[derive(Debug, Clone, PartialEq)]
pub struct BuilderSnapshot {
    /// Process id the builder records.
    pub pid: usize,
    /// Human-readable label.
    pub label: String,
    /// Closed intervals so far.
    pub intervals: Vec<Interval>,
    /// The open interval as `(since, state)`, if any.
    pub current: Option<(Cycles, ProcState)>,
}

/// Complete mutable state of an [`Engine`] mid-run, as plain data.
///
/// Captures everything that changes while stepping: the machine (cores,
/// processes, noise phase), the per-rank interpreter position and engine
/// state, the message-matching and collective-epoch trackers, the
/// in-progress timelines and window accumulators, and the event counter.
/// It does *not* capture static configuration — programs, placement,
/// latency model, topology, stepping mode — which the restore target must
/// already have been built with ([`Engine::restore_state`] validates the
/// shapes it can see and trusts the caller for the rest; the snapshot
/// file layer guards the full configuration with a hash).
#[derive(Debug, Clone, PartialEq)]
pub struct EngineState {
    /// Machine state (cores, PCBs, context ownership, noise phase, time).
    pub machine: MachineState,
    /// Events (machine advances) executed so far.
    pub events: u64,
    /// Per-rank index of the next op to dispatch.
    pub pc: Vec<usize>,
    /// Per-rank engine state.
    pub rank_states: Vec<RankState>,
    /// The dispatch worklist (ranks turned Ready, not yet dispatched).
    pub ready: Vec<Rank>,
    /// Per-rank current trace phase.
    pub phase: Vec<TracePhase>,
    /// Per-rank message-matching state.
    pub comm: Vec<CommRankState>,
    /// Collective-epoch tracker state.
    pub epochs: SyncEpochsState,
    /// Per-rank in-progress timeline builders (`None` once finished).
    pub builders: Vec<Option<BuilderSnapshot>>,
    /// Per-rank finished timelines (`None` while still running).
    pub finished: Vec<Option<Timeline>>,
    /// Time each rank entered its current engine state.
    pub state_since: Vec<Cycles>,
    /// Per-rank compute-cycle accumulators since the last epoch release.
    pub win_compute: Vec<Cycles>,
    /// Per-rank sync-cycle accumulators since the last epoch release.
    pub win_sync: Vec<Cycles>,
    /// Every point-to-point message posted so far.
    pub comm_log: Vec<CommEvent>,
}

/// A flattened op as the engine keeps it: a [`FlatOp`] whose compute
/// work names one of the engine's interned workloads
/// ([`Engine::workloads`]) instead of owning a copy, so building a rank's
/// list clones no [`Workload`] and dispatch reads a small `Copy` value in
/// place.
#[derive(Debug, Clone, Copy)]
enum Op {
    Compute { workload: u32, instructions: u64 },
    Send { to: Rank, tag: Tag, bytes: u64 },
    Recv { from: Rank, tag: Tag },
    Isend { to: Rank, tag: Tag, bytes: u64 },
    Irecv { from: Rank, tag: Tag },
    WaitAll,
    Barrier,
    AllReduce { bytes: u64 },
    Bcast { root: Rank, bytes: u64 },
    Reduce { root: Rank, bytes: u64 },
    Phase(TracePhase),
}

impl Op {
    /// The engine form of one op of [`for_each_op`]'s stream, interning
    /// its compute workload into `workloads`.
    fn new(op: OpRef<'_>, workloads: &mut Vec<Workload>) -> Op {
        let op = match op {
            OpRef::Work(w) => return Op::compute(w, workloads),
            OpRef::Op(op) => op,
        };
        match op {
            FlatOp::Compute(w) => Op::compute(&w, workloads),
            FlatOp::Send { to, tag, bytes } => Op::Send { to, tag, bytes },
            FlatOp::Recv { from, tag } => Op::Recv { from, tag },
            FlatOp::Isend { to, tag, bytes } => Op::Isend { to, tag, bytes },
            FlatOp::Irecv { from, tag } => Op::Irecv { from, tag },
            FlatOp::WaitAll => Op::WaitAll,
            FlatOp::Barrier => Op::Barrier,
            FlatOp::AllReduce { bytes } => Op::AllReduce { bytes },
            FlatOp::Bcast { root, bytes } => Op::Bcast { root, bytes },
            FlatOp::Reduce { root, bytes } => Op::Reduce { root, bytes },
            FlatOp::Phase(p) => Op::Phase(p),
        }
    }

    /// Compute work, its workload interned: a value-equal workload (same
    /// name, stream and profile bits) already in `workloads` is reused.
    /// The two are interchangeable: every model reads a workload only
    /// through those fields.
    fn compute(w: &WorkSpec, workloads: &mut Vec<Workload>) -> Op {
        let same = |x: &Workload| {
            let (a, b) = (&x.profile, &w.workload.profile);
            x.name == w.workload.name
                && x.stream == w.workload.stream
                && a.ipc_st.to_bits() == b.ipc_st.to_bits()
                && a.unit_pressure.to_bits() == b.unit_pressure.to_bits()
                && a.mem_intensity.to_bits() == b.mem_intensity.to_bits()
        };
        // Newest first: consecutive compute ops mostly repeat a workload.
        let workload = workloads.iter().rposition(same).unwrap_or_else(|| {
            workloads.push(w.workload.clone());
            workloads.len() - 1
        });
        Op::Compute {
            workload: u32::try_from(workload).expect("fewer than 2^32 workloads"),
            instructions: w.instructions,
        }
    }

    /// The [`FlatOp`] this op stands for (deadlock reports render it).
    fn flat(self, workloads: &[Workload]) -> FlatOp {
        match self {
            Op::Compute {
                workload,
                instructions,
            } => FlatOp::Compute(WorkSpec::new(
                workloads[workload as usize].clone(),
                instructions,
            )),
            Op::Send { to, tag, bytes } => FlatOp::Send { to, tag, bytes },
            Op::Recv { from, tag } => FlatOp::Recv { from, tag },
            Op::Isend { to, tag, bytes } => FlatOp::Isend { to, tag, bytes },
            Op::Irecv { from, tag } => FlatOp::Irecv { from, tag },
            Op::WaitAll => FlatOp::WaitAll,
            Op::Barrier => FlatOp::Barrier,
            Op::AllReduce { bytes } => FlatOp::AllReduce { bytes },
            Op::Bcast { root, bytes } => FlatOp::Bcast { root, bytes },
            Op::Reduce { root, bytes } => FlatOp::Reduce { root, bytes },
            Op::Phase(p) => FlatOp::Phase(p),
        }
    }

    /// The peer or root rank the op names, if any.
    fn target(self) -> Option<Rank> {
        match self {
            Op::Send { to, .. } | Op::Isend { to, .. } => Some(to),
            Op::Recv { from, .. } | Op::Irecv { from, .. } => Some(from),
            Op::Bcast { root, .. } | Op::Reduce { root, .. } => Some(root),
            _ => None,
        }
    }

    /// The collective epoch the op joins, if any.
    fn epoch_kind(self) -> Option<EpochKind> {
        match self {
            Op::Barrier | Op::AllReduce { .. } => Some(EpochKind::AllToAll),
            Op::Bcast { root, .. } => Some(EpochKind::FromRoot { root }),
            Op::Reduce { root, .. } => Some(EpochKind::ToRoot { root }),
            _ => None,
        }
    }
}

/// The synchronization-epoch signature of a rank's ops: the [`EpochKind`]
/// each collective call joins, in program order. Every rank must produce
/// the same signature for the run to terminate, so [`Engine::try_new`]
/// rejects mismatches up front.
fn collective_signature(ops: &[Op]) -> Vec<EpochKind> {
    ops.iter().filter_map(|op| op.epoch_kind()).collect()
}

/// The system simulator.
pub struct Engine {
    machine: Machine,
    cfg_latency: LatencyModel,
    topology: Topology,
    quantum: Cycles,
    /// Resolved from [`SimConfig::stepping`] and the fidelity: jump to
    /// the next event instead of clamping each advance to `quantum`.
    event_jump: bool,
    max_cycles: Cycles,
    n_ranks: usize,
    /// Every distinct workload the programs compute, in first-use order;
    /// [`Op::Compute`] names one by index. Built with `ops` from the
    /// programs, so not part of [`EngineState`].
    workloads: Vec<Workload>,
    ops: Vec<Vec<Op>>,
    pc: Vec<usize>,
    state: Vec<RankState>,
    /// Dispatch worklist: ranks transitioned to [`RankState::Ready`] and
    /// not yet dispatched. Kept in ascending rank order per batch so
    /// dispatch order matches the historical full rescan.
    ready: Vec<Rank>,
    /// The other half of [`Engine::dispatch_ready`]'s double buffer:
    /// empty between calls and not part of [`EngineState`], kept only so
    /// its capacity survives from one event to the next.
    ready_spare: Vec<Rank>,
    phase: Vec<TracePhase>,
    comm: CommState,
    epochs: SyncEpochs,
    builders: Vec<Option<TimelineBuilder>>,
    finished: Vec<Option<Timeline>>,
    /// Time each rank entered its current engine state.
    state_since: Vec<Cycles>,
    /// Per-rank window accumulators since the last epoch release.
    win_compute: Vec<Cycles>,
    win_sync: Vec<Cycles>,
    comm_log: Vec<CommEvent>,
    /// Events (machine advances) executed so far — the unit checkpoints
    /// and the drift bisector count in.
    events: u64,
    /// `(rank, retired target)` of every computing rank, refilled before
    /// each event and handed to [`Machine::advance_until`]; not part of
    /// [`EngineState`], kept only so its capacity survives.
    targets: Vec<(Rank, u64)>,
}

impl Engine {
    /// Build an engine: constructs the machine, spawns one pinned process
    /// per rank (pid = rank) and flattens the programs. Panicking wrapper
    /// around [`Engine::try_new`].
    ///
    /// # Panics
    /// Panics (with the [`SimError`] display text) if placement length
    /// mismatches the program count, a context is double-booked, an op
    /// targets an out-of-range rank, or the ranks disagree on their
    /// collective sequence (which would deadlock real MPI too).
    pub fn new(programs: &[Program], cfg: SimConfig) -> Engine {
        Engine::try_new(programs, cfg).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible constructor: validates placement, rank ranges and
    /// collective-sequence agreement up front, returning a structured
    /// [`SimError`] instead of panicking.
    pub fn try_new(programs: &[Program], cfg: SimConfig) -> Result<Engine, SimError> {
        let n = programs.len();
        if cfg.placement.len() != n {
            return Err(SimError::PlacementMismatch {
                ranks: n,
                contexts: cfg.placement.len(),
            });
        }
        // L2 domains follow the physical packaging: cores of one POWER5
        // chip (2) share an L2, but never across node boundaries.
        let cores_per_l2 = cfg.topology.cores_per_node.min(2);
        let mut machine = Machine::new(
            build_cores_grouped(cfg.cores, &cfg.fidelity, cores_per_l2),
            cfg.kernel,
        );
        machine.set_parallelism(cfg.threads);
        machine.set_segmentation(cfg.segmentation);
        machine.set_wait_policy(cfg.wait_policy);
        for (index, src) in cfg.noise.into_iter().enumerate() {
            machine
                .try_add_noise(src)
                .map_err(|reason| SimError::InvalidNoise { index, reason })?;
        }
        let mut builders = Vec::with_capacity(n);
        let mut ops = Vec::with_capacity(n);
        let mut workloads = Vec::new();
        for (rank, prog) in programs.iter().enumerate() {
            let name = prog
                .name
                .clone()
                .unwrap_or_else(|| format!("P{}", rank + 1));
            machine
                .spawn(rank, name.clone(), cfg.placement[rank])
                .map_err(|source| SimError::Placement {
                    rank,
                    ctx: cfg.placement[rank],
                    source,
                })?;
            builders.push(Some(TimelineBuilder::new(rank, name, 0, ProcState::Idle)));
            let mut rank_ops = Vec::new();
            for_each_op(prog, rank, |op| rank_ops.push(Op::new(op, &mut workloads)));
            ops.push(rank_ops);
        }
        // Every op's peer/root must name an existing rank — checked here
        // so comm/epoch state can index by rank unconditionally.
        for (rank, rank_ops) in ops.iter().enumerate() {
            for (op_index, op) in rank_ops.iter().enumerate() {
                if let Some(target) = op.target() {
                    if target >= n {
                        return Err(SimError::InvalidRank {
                            rank,
                            op_index,
                            target,
                            n_ranks: n,
                        });
                    }
                }
            }
        }
        // Validate the collective sequences agree — counts first, then
        // element-wise kinds. (Barrier and AllReduce both join AllToAll
        // epochs, so mixing those two across ranks stays legal.)
        let sigs: Vec<Vec<EpochKind>> = ops.iter().map(|o| collective_signature(o)).collect();
        if sigs.windows(2).any(|w| w[0].len() != w[1].len()) {
            return Err(SimError::CollectiveMismatch {
                counts: sigs.iter().map(|s| s.len()).collect(),
            });
        }
        if let Some((first, rest)) = sigs.split_first() {
            for (off, sig) in rest.iter().enumerate() {
                for (epoch, (ka, kb)) in first.iter().zip(sig.iter()).enumerate() {
                    if ka != kb {
                        return Err(SimError::CollectiveKindMismatch {
                            epoch,
                            rank_a: 0,
                            rank_b: off + 1,
                            kind_a: *ka,
                            kind_b: *kb,
                        });
                    }
                }
            }
        }

        let event_jump = match cfg.stepping {
            Stepping::Auto => matches!(cfg.fidelity, Fidelity::Meso(_)),
            Stepping::EventHorizon => true,
            Stepping::Quantum => false,
        };
        Ok(Engine {
            machine,
            cfg_latency: cfg.latency,
            topology: cfg.topology,
            quantum: cfg.quantum.max(1),
            event_jump,
            max_cycles: cfg.max_cycles,
            n_ranks: n,
            workloads,
            ops,
            pc: vec![0; n],
            state: vec![RankState::Ready; n],
            ready: (0..n).collect(),
            ready_spare: Vec::with_capacity(n),
            phase: vec![TracePhase::Body; n],
            comm: CommState::new(n),
            epochs: SyncEpochs::new(n),
            builders,
            finished: vec![None; n],
            state_since: vec![0; n],
            win_compute: vec![0; n],
            win_sync: vec![0; n],
            comm_log: Vec::new(),
            events: 0,
            targets: Vec::new(),
        })
    }

    /// Mutable access to the machine, e.g. for a static policy to set
    /// priorities before `run`.
    pub fn machine_mut(&mut self) -> &mut Machine {
        &mut self.machine
    }

    /// Immutable machine access.
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// Snapshot every piece of mutable run state as plain data. Restoring
    /// the snapshot into an engine built from the same programs and
    /// configuration ([`Engine::restore_state`]) and stepping on is
    /// bit-identical to never having stopped.
    pub fn save_state(&self) -> EngineState {
        EngineState {
            machine: self.machine.save_state(),
            events: self.events,
            pc: self.pc.clone(),
            rank_states: self.state.clone(),
            ready: self.ready.clone(),
            phase: self.phase.clone(),
            comm: self.comm.save_state(),
            epochs: self.epochs.save_state(),
            builders: self
                .builders
                .iter()
                .map(|b| {
                    b.as_ref().map(|b| {
                        let (pid, label, intervals, current) = b.save_parts();
                        BuilderSnapshot {
                            pid,
                            label,
                            intervals,
                            current,
                        }
                    })
                })
                .collect(),
            finished: self.finished.clone(),
            state_since: self.state_since.clone(),
            win_compute: self.win_compute.clone(),
            win_sync: self.win_sync.clone(),
            comm_log: self.comm_log.clone(),
        }
    }

    /// Overwrite the engine's mutable state from a snapshot taken on an
    /// engine built from the same programs and configuration. Validates
    /// every shape it can observe (rank counts, pc bounds, machine
    /// geometry, tracker consistency); on `Err` the engine is in an
    /// unspecified but safe state and must not be stepped further.
    pub fn restore_state(&mut self, s: &EngineState) -> Result<(), SimError> {
        let n = self.n_ranks;
        let expect_n = |what: &str, len: usize| {
            if len != n {
                Err(SimError::Restore(format!(
                    "snapshot {what} covers {len} ranks, engine has {n}"
                )))
            } else {
                Ok(())
            }
        };
        expect_n("pc", s.pc.len())?;
        expect_n("rank states", s.rank_states.len())?;
        expect_n("phases", s.phase.len())?;
        expect_n("builders", s.builders.len())?;
        expect_n("finished timelines", s.finished.len())?;
        expect_n("state_since", s.state_since.len())?;
        expect_n("win_compute", s.win_compute.len())?;
        expect_n("win_sync", s.win_sync.len())?;
        for (rank, &pc) in s.pc.iter().enumerate() {
            if pc > self.ops[rank].len() {
                return Err(SimError::Restore(format!(
                    "rank {rank}: pc {pc} exceeds program length {}",
                    self.ops[rank].len()
                )));
            }
        }
        if let Some(&r) = s.ready.iter().find(|&&r| r >= n) {
            return Err(SimError::Restore(format!(
                "ready worklist names rank {r}, engine has {n}"
            )));
        }
        let mut builders = Vec::with_capacity(n);
        for (rank, b) in s.builders.iter().enumerate() {
            builders.push(match b {
                Some(b) => Some(
                    TimelineBuilder::from_parts(
                        b.pid,
                        b.label.clone(),
                        b.intervals.clone(),
                        b.current,
                    )
                    .map_err(|e| SimError::Restore(format!("rank {rank} builder: {e}")))?,
                ),
                None => None,
            });
        }
        self.machine
            .restore_state(&s.machine)
            .map_err(SimError::Restore)?;
        self.comm
            .restore_state(&s.comm)
            .map_err(SimError::Restore)?;
        self.epochs
            .restore_state(&s.epochs)
            .map_err(SimError::Restore)?;
        self.builders = builders;
        self.events = s.events;
        self.pc = s.pc.clone();
        self.state = s.rank_states.clone();
        self.ready = s.ready.clone();
        self.phase = s.phase.clone();
        self.finished = s.finished.clone();
        self.state_since = s.state_since.clone();
        self.win_compute = s.win_compute.clone();
        self.win_sync = s.win_sync.clone();
        self.comm_log = s.comm_log.clone();
        Ok(())
    }

    /// Run to completion without an observer. Panicking wrapper around
    /// [`Engine::try_run`].
    pub fn run(self) -> RunResult {
        self.run_with(&mut NullObserver)
    }

    /// Run to completion, invoking `observer` at every epoch completion.
    /// Panicking wrapper around [`Engine::try_run_with`].
    ///
    /// # Panics
    /// Panics (with the [`SimError`] display text) on deadlock or when
    /// the run exceeds `max_cycles`.
    pub fn run_with(self, observer: &mut dyn Observer) -> RunResult {
        self.try_run_with(observer)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible run without an observer.
    pub fn try_run(self) -> Result<RunResult, SimError> {
        self.try_run_with(&mut NullObserver)
    }

    /// Fallible run: a stall becomes [`SimError::Deadlock`] (with the
    /// wait-for cycle and per-rank snapshots) and a cycle-budget overrun
    /// becomes [`SimError::MaxCycles`], instead of panicking.
    pub fn try_run_with(mut self, observer: &mut dyn Observer) -> Result<RunResult, SimError> {
        let done = self.step_events(observer, u64::MAX)?;
        debug_assert!(done, "u64::MAX events is effectively unbounded");
        Ok(self.into_result())
    }

    /// Execute at most `max` events (machine advances), dispatching ready
    /// ranks before each one. Returns `Ok(true)` when every rank is done,
    /// `Ok(false)` when the budget ran out first. Calling again continues
    /// exactly where the previous call stopped — `step_events(k)` then
    /// `step_events(m)` visits bit-for-bit the same states as
    /// `step_events(k + m)` — which is what makes "after event n" a valid
    /// checkpoint boundary.
    pub fn step_events(&mut self, observer: &mut dyn Observer, max: u64) -> Result<bool, SimError> {
        let mut stepped: u64 = 0;
        loop {
            self.dispatch_ready(observer);
            if self.all_done() {
                return Ok(true);
            }
            if stepped >= max {
                return Ok(false);
            }
            let now = self.machine.now();
            if now > self.max_cycles {
                return Err(SimError::MaxCycles {
                    limit: self.max_cycles,
                });
            }
            let bound = self.mpi_horizon(now).map(|t| t - now);
            let limit = if self.event_jump {
                // Jump straight to the event horizon. Cap at one past the
                // cycle budget: overrunning further changes nothing
                // observable (the guard above fires first) and only
                // wastes machine work.
                self.max_cycles.saturating_add(1).saturating_sub(now)
            } else {
                self.quantum
            };
            if self
                .machine
                .advance_until(bound, limit, &self.targets)
                .is_none()
            {
                return Err(self.deadlock_error(now));
            }
            self.resolve_completions();
            self.events += 1;
            stepped += 1;
        }
    }

    /// Events (machine advances) executed so far.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Consume a finished engine (every rank [`RankState::Done`]) into its
    /// [`RunResult`].
    ///
    /// # Panics
    /// Panics if any rank has not finished.
    pub fn into_result(self) -> RunResult {
        let end = self.machine.now();
        let timelines: Vec<Timeline> = self
            .finished
            .into_iter()
            .map(|t| t.expect("all ranks finished"))
            .collect();
        let metrics = RunMetrics::from_timelines(&timelines);
        RunResult {
            retired: (0..self.n_ranks).map(|r| self.machine.retired(r)).collect(),
            interrupt_cycles: (0..self.n_ranks)
                .map(|r| self.machine.pcb(r).map_or(0, |p| p.interrupt_cycles))
                .collect(),
            busy_cycles: (0..self.n_ranks)
                .map(|r| self.machine.pcb(r).map_or(0, |p| p.busy_cycles))
                .collect(),
            spin_cycles: (0..self.n_ranks)
                .map(|r| self.machine.pcb(r).map_or(0, |p| p.spin_cycles))
                .collect(),
            comm_log: self.comm_log,
            total_cycles: end,
            notes: self.machine.runtime_notes(),
            timelines,
            metrics,
        }
    }

    fn all_done(&self) -> bool {
        self.state.iter().all(|s| matches!(s, RankState::Done))
    }

    /// Charge the rank's in-progress trace interval (up to now) into the
    /// epoch-window accumulators, restarting the measurement point.
    fn charge_window(&mut self, rank: Rank) {
        let now = self.machine.now();
        if let Some(b) = self.builders[rank].as_ref() {
            if let Some(cur) = b.current_state() {
                let dur = now - self.state_since[rank];
                if cur.is_useful() {
                    self.win_compute[rank] += dur;
                } else if cur.is_waiting() {
                    self.win_sync[rank] += dur;
                }
            }
        }
        self.state_since[rank] = now;
    }

    /// Record a trace-state change for `rank` at the current time and
    /// charge the elapsed window accumulators.
    fn trace_enter(&mut self, rank: Rank, st: ProcState) {
        self.charge_window(rank);
        let now = self.machine.now();
        if let Some(b) = self.builders[rank].as_mut() {
            b.enter(st, now);
        }
    }

    /// Dispatch every ready rank into its next op; repeat until no rank is
    /// ready (epoch completions may cascade).
    ///
    /// Works off the `ready` worklist — ranks pushed by
    /// [`Engine::resolve_completions`] when they transition to Ready — so
    /// each batch costs only the ranks actually dispatched, not a full
    /// `n_ranks` rescan per pass. `resolve_completions` pushes in
    /// ascending rank order, so dispatch order matches the old rescan.
    fn dispatch_ready(&mut self, observer: &mut dyn Observer) {
        let mut batch = std::mem::take(&mut self.ready_spare);
        while !self.ready.is_empty() {
            // Double-buffer so both vectors keep their capacity across
            // batches and calls.
            std::mem::swap(&mut batch, &mut self.ready);
            for rank in batch.drain(..) {
                // A rank can be re-queued only after being dispatched, so
                // entries are never stale; the guard is belt-and-braces.
                if self.state[rank] == RankState::Ready {
                    self.dispatch_one(rank, observer);
                }
            }
            // Epoch releases that happened exactly now unblock waiters.
            self.resolve_completions();
        }
        self.ready_spare = batch;
    }

    fn dispatch_one(&mut self, rank: Rank, observer: &mut dyn Observer) {
        let now = self.machine.now();
        loop {
            let Some(&op) = self.ops[rank].get(self.pc[rank]) else {
                self.state[rank] = RankState::Done;
                self.machine.exit(rank).expect("rank exists");
                self.trace_enter(rank, ProcState::Idle);
                let b = self.builders[rank].take().expect("builder present");
                self.finished[rank] = Some(b.finish(now));
                return;
            };
            self.pc[rank] += 1;
            match op {
                Op::Phase(p) => {
                    self.phase[rank] = p;
                    continue; // zero-time op
                }
                Op::Compute {
                    workload,
                    instructions,
                } => {
                    if instructions == 0 {
                        continue;
                    }
                    let target = self.machine.retired(rank) + instructions;
                    let w = self.workloads[workload as usize].clone();
                    self.machine.run_workload(rank, w).expect("rank exists");
                    self.state[rank] = RankState::Computing { target };
                    self.trace_enter(rank, self.phase[rank].compute_state());
                    return;
                }
                Op::Isend { to, tag, bytes } => {
                    let until = now + self.cfg_latency.sw_overhead;
                    let arrival = until + self.latency_between(rank, to, bytes);
                    self.comm.post_send(Message {
                        from: rank,
                        to,
                        tag,
                        bytes,
                        arrival,
                    });
                    self.comm_log.push(CommEvent {
                        from: rank,
                        to,
                        bytes,
                        send_time: now,
                        recv_time: arrival,
                    });
                    self.comm.post_isend_handle(rank, until);
                    self.state[rank] = RankState::CommBusy { until };
                    self.trace_enter(rank, ProcState::Comm);
                    return;
                }
                Op::Send { to, tag, bytes } => {
                    let until = now + self.cfg_latency.sw_overhead;
                    let arrival = until + self.latency_between(rank, to, bytes);
                    self.comm.post_send(Message {
                        from: rank,
                        to,
                        tag,
                        bytes,
                        arrival,
                    });
                    self.comm_log.push(CommEvent {
                        from: rank,
                        to,
                        bytes,
                        send_time: now,
                        recv_time: arrival,
                    });
                    self.state[rank] = RankState::CommBusy { until };
                    self.trace_enter(rank, ProcState::Comm);
                    return;
                }
                Op::Irecv { from, tag } => {
                    self.comm.post_irecv(rank, from, tag, now);
                    let until = now + self.cfg_latency.sw_overhead;
                    self.state[rank] = RankState::CommBusy { until };
                    self.trace_enter(rank, ProcState::Comm);
                    return;
                }
                Op::Recv { from, tag } => {
                    let hidx = self.comm.post_irecv(rank, from, tag, now);
                    if self
                        .comm
                        .handle_completion(rank, hidx)
                        .is_some_and(|c| c <= now)
                    {
                        continue; // message already here
                    }
                    self.state[rank] = RankState::WaitRecv { hidx };
                    self.trace_enter(rank, ProcState::Sync);
                    return;
                }
                Op::WaitAll => {
                    if self.comm.all_done(rank, now) {
                        self.comm.clear_handles(rank);
                        continue;
                    }
                    self.state[rank] = RankState::WaitAll;
                    self.trace_enter(rank, ProcState::Sync);
                    return;
                }
                Op::Barrier => {
                    self.join_epoch(
                        rank,
                        self.cfg_latency.barrier_cost,
                        EpochKind::AllToAll,
                        observer,
                    );
                    return;
                }
                Op::AllReduce { bytes } => {
                    let cost = self.cfg_latency.allreduce_cost(self.n_ranks, bytes);
                    self.join_epoch(rank, cost, EpochKind::AllToAll, observer);
                    return;
                }
                Op::Bcast { root, bytes } => {
                    // Tree depth at chip latency, like allreduce.
                    let cost = self.cfg_latency.allreduce_cost(self.n_ranks, bytes);
                    self.join_epoch(rank, cost, EpochKind::FromRoot { root }, observer);
                    return;
                }
                Op::Reduce { root, bytes } => {
                    let cost = self.cfg_latency.allreduce_cost(self.n_ranks, bytes);
                    self.join_epoch(rank, cost, EpochKind::ToRoot { root }, observer);
                    return;
                }
            }
        }
    }

    fn join_epoch(
        &mut self,
        rank: Rank,
        cost: Cycles,
        kind: EpochKind,
        observer: &mut dyn Observer,
    ) {
        let now = self.machine.now();
        let idx = self.epochs.arrive(rank, now, cost, kind);
        self.state[rank] = RankState::InEpoch { idx };
        self.trace_enter(rank, ProcState::Sync);
        if self.epochs.release_time(idx).is_some() {
            // This arrival completed the epoch: flush every rank's
            // in-progress interval into the window accumulators, then hand
            // the stats to the observer (the dynamic balancer's sampling
            // point).
            for r in 0..self.n_ranks {
                self.charge_window(r);
            }
            let windows: Vec<RankWindow> = (0..self.n_ranks)
                .map(|r| RankWindow {
                    rank: r,
                    compute: self.win_compute[r],
                    sync: self.win_sync[r],
                })
                .collect();
            observer.on_epoch(idx, &windows, &mut self.machine);
            self.win_compute.fill(0);
            self.win_sync.fill(0);
        }
    }

    fn latency_between(&self, from: Rank, to: Rank, bytes: u64) -> Cycles {
        let fa = self.machine.pcb(from).expect("from exists").affinity;
        let ta = self.machine.pcb(to).expect("to exists").affinity;
        self.cfg_latency.latency(&self.topology, fa, ta, bytes)
    }

    /// The earliest MPI-visible event after `now` — a local overhead
    /// ending, a message arriving, an epoch releasing — if any, while
    /// refilling `targets` with every computing rank's retired-instruction
    /// target. Compute completions and noise edges are the machine's to
    /// find ([`Machine::advance_until`]).
    fn mpi_horizon(&mut self, now: Cycles) -> Option<Cycles> {
        self.targets.clear();
        let mut best: Option<Cycles> = None;
        let mut consider = |t: Cycles| {
            let t = t.max(now + 1);
            best = Some(best.map_or(t, |b| b.min(t)));
        };
        for rank in 0..self.n_ranks {
            match self.state[rank] {
                RankState::Computing { target } => self.targets.push((rank, target)),
                RankState::CommBusy { until } => consider(until),
                RankState::WaitRecv { hidx } => {
                    if let Some(c) = self.comm.handle_completion(rank, hidx) {
                        consider(c);
                    }
                }
                RankState::WaitAll => {
                    if let Some(c) = self.comm.completion_horizon(rank) {
                        consider(c);
                    }
                }
                RankState::InEpoch { idx } => {
                    if let Some(c) = self.epochs.release_time_for(idx, rank) {
                        consider(c);
                    }
                }
                RankState::Ready | RankState::Done => {}
            }
        }
        best
    }

    /// Move ranks whose wait condition is satisfied back to Ready.
    fn resolve_completions(&mut self) {
        let now = self.machine.now();
        for rank in 0..self.n_ranks {
            let ready = match self.state[rank] {
                RankState::Computing { target } => {
                    if self.machine.retired(rank) >= target {
                        // The rank enters the MPI library and waits per
                        // the configured policy (spin at own priority by
                        // default, like stock MPICH) until the next
                        // compute phase replaces the wait.
                        self.machine.enter_wait(rank).expect("rank exists");
                        true
                    } else {
                        false
                    }
                }
                RankState::CommBusy { until } => until <= now,
                RankState::WaitRecv { hidx } => self
                    .comm
                    .handle_completion(rank, hidx)
                    .is_some_and(|c| c <= now),
                RankState::WaitAll => {
                    if self.comm.all_done(rank, now) {
                        self.comm.clear_handles(rank);
                        true
                    } else {
                        false
                    }
                }
                RankState::InEpoch { idx } => self
                    .epochs
                    .release_time_for(idx, rank)
                    .is_some_and(|c| c <= now),
                RankState::Ready | RankState::Done => false,
            };
            if ready {
                self.state[rank] = RankState::Ready;
                self.ready.push(rank);
            }
        }
    }

    /// The ranks `rank` cannot proceed without, per its current state —
    /// the outgoing edges of the deadlock wait-for graph. A stalled
    /// compute phase (e.g. priority 0, no decode share) waits on nobody.
    fn waiting_on(&self, rank: Rank) -> Vec<Rank> {
        let mut peers: Vec<Rank> = match self.state[rank] {
            RankState::WaitRecv { .. } | RankState::WaitAll => self
                .comm
                .pending_recv_sources(rank)
                .into_iter()
                .map(|(from, _)| from)
                .collect(),
            RankState::InEpoch { idx } => self.epochs.missing_from(idx, rank),
            _ => Vec::new(),
        };
        peers.sort_unstable();
        peers.dedup();
        peers
    }

    #[cold]
    fn deadlock_error(&self, now: Cycles) -> SimError {
        let waits: Vec<Vec<Rank>> = (0..self.n_ranks).map(|r| self.waiting_on(r)).collect();
        let cycle = find_cycle(&waits);
        let per_rank = (0..self.n_ranks)
            .map(|rank| RankSnapshot {
                rank,
                state: format!("{:?}", self.state[rank]),
                pc: self.pc[rank],
                total_ops: self.ops[rank].len(),
                next_op: self.ops[rank]
                    .get(self.pc[rank])
                    .map(|op| format!("{:?}", op.flat(&self.workloads))),
                waiting_on: waits[rank].clone(),
            })
            .collect();
        SimError::Deadlock {
            at: now,
            cycle,
            per_rank,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{ProgramBuilder, WorkSpec};
    use mtb_smtsim::inst::StreamSpec;
    use mtb_smtsim::model::{Workload, WorkloadProfile};

    fn wl(ipc: f64) -> Workload {
        Workload::with_profile(
            "w",
            StreamSpec::balanced(1),
            WorkloadProfile::new(ipc, 0.2, 0.05),
        )
    }

    fn compute_prog(insts: u64) -> Program {
        ProgramBuilder::new()
            .compute(WorkSpec::new(wl(2.0), insts))
            .build()
    }

    fn build_err(programs: &[Program], cfg: SimConfig) -> SimError {
        match Engine::try_new(programs, cfg) {
            Err(e) => e,
            Ok(_) => panic!("expected construction to fail"),
        }
    }

    #[test]
    fn single_rank_compute_runs_to_completion() {
        let e = Engine::new(&[compute_prog(100_000)], SimConfig::power5(1));
        let r = e.run();
        assert_eq!(r.retired[0], 100_000);
        assert!(r.total_cycles > 0);
        assert_eq!(r.timelines.len(), 1);
        r.timelines[0].check_invariants().unwrap();
    }

    #[test]
    fn compute_time_matches_rate() {
        // One rank alone on the machine at 2.0 IPC ST with sibling idle at
        // priority 1: exact cycles = instructions / 2.0.
        let e = Engine::new(&[compute_prog(200_000)], SimConfig::power5(1));
        let r = e.run();
        let expected = 100_000;
        let got = r.total_cycles;
        assert!(
            (got as i64 - expected as i64).abs() < 100,
            "expected ~{expected} cycles, got {got}"
        );
    }

    #[test]
    fn barrier_makes_fast_rank_wait() {
        let fast = ProgramBuilder::new()
            .compute(WorkSpec::new(wl(2.0), 10_000))
            .barrier()
            .build();
        let slow = ProgramBuilder::new()
            .compute(WorkSpec::new(wl(2.0), 100_000))
            .barrier()
            .build();
        // Place on different cores so they do not share decode bandwidth.
        let mut cfg = SimConfig::power5(2);
        cfg.placement = vec![CtxAddr::from_cpu(0), CtxAddr::from_cpu(2)];
        let r = Engine::new(&[fast, slow], cfg).run();
        let m = &r.metrics;
        assert!(
            m.procs[0].sync_pct > 50.0,
            "fast rank waits: {:?}",
            m.procs[0]
        );
        assert!(m.procs[1].sync_pct < 10.0, "slow rank barely waits");
        assert!(m.imbalance_pct > 50.0);
    }

    #[test]
    fn isend_irecv_waitall_ping_pong() {
        let p0 = ProgramBuilder::new()
            .compute(WorkSpec::new(wl(2.0), 10_000))
            .isend(1, 7, 4096)
            .irecv(1, 8)
            .waitall()
            .build();
        let p1 = ProgramBuilder::new()
            .compute(WorkSpec::new(wl(2.0), 10_000))
            .isend(0, 8, 4096)
            .irecv(0, 7)
            .waitall()
            .build();
        let mut cfg = SimConfig::power5(2);
        cfg.placement = vec![CtxAddr::from_cpu(0), CtxAddr::from_cpu(2)];
        let r = Engine::new(&[p0, p1], cfg).run();
        assert_eq!(r.retired, vec![10_000, 10_000]);
        // Comm time appears in the traces.
        for t in &r.timelines {
            assert!(t.time_in(ProcState::Comm) > 0, "comm must be traced");
        }
    }

    #[test]
    fn blocking_send_recv_transfers_in_order() {
        let sender = ProgramBuilder::new()
            .send(1, 1, 100)
            .send(1, 1, 100)
            .build();
        let receiver = ProgramBuilder::new().recv(0, 1).recv(0, 1).build();
        let mut cfg = SimConfig::power5(2);
        cfg.placement = vec![CtxAddr::from_cpu(0), CtxAddr::from_cpu(2)];
        let r = Engine::new(&[sender, receiver], cfg).run();
        assert!(r.total_cycles > 0);
        // The receiver must have waited for the first message at least.
        assert!(r.timelines[1].time_in(ProcState::Sync) > 0);
    }

    #[test]
    fn loop_with_barrier_executes_all_iterations() {
        let prog = |n: u64| {
            ProgramBuilder::new()
                .repeat(5, move |b| b.compute(WorkSpec::new(wl(2.0), n)).barrier())
                .build()
        };
        let mut cfg = SimConfig::power5(2);
        cfg.placement = vec![CtxAddr::from_cpu(0), CtxAddr::from_cpu(2)];
        let r = Engine::new(&[prog(10_000), prog(10_000)], cfg).run();
        assert_eq!(r.retired, vec![50_000, 50_000]);
    }

    #[test]
    fn phases_label_the_trace() {
        let p = ProgramBuilder::new()
            .phase(TracePhase::Init)
            .compute(WorkSpec::new(wl(2.0), 10_000))
            .phase(TracePhase::Body)
            .compute(WorkSpec::new(wl(2.0), 20_000))
            .phase(TracePhase::Final)
            .compute(WorkSpec::new(wl(2.0), 10_000))
            .build();
        let r = Engine::new(&[p], SimConfig::power5(1)).run();
        let t = &r.timelines[0];
        assert!(t.time_in(ProcState::Init) > 0);
        assert!(t.time_in(ProcState::Compute) > 0);
        assert!(t.time_in(ProcState::Final) > 0);
        assert!(t.time_in(ProcState::Init) < t.time_in(ProcState::Compute));
    }

    #[test]
    fn observer_sees_epoch_windows() {
        struct Collect(Vec<Vec<RankWindow>>);
        impl Observer for Collect {
            fn on_epoch(&mut self, _e: usize, w: &[RankWindow], _m: &mut Machine) {
                self.0.push(w.to_vec());
            }
        }
        let prog = |n: u64| {
            ProgramBuilder::new()
                .repeat(3, move |b| b.compute(WorkSpec::new(wl(2.0), n)).barrier())
                .build()
        };
        let mut cfg = SimConfig::power5(2);
        cfg.placement = vec![CtxAddr::from_cpu(0), CtxAddr::from_cpu(2)];
        let mut obs = Collect(Vec::new());
        let _ = Engine::new(&[prog(10_000), prog(40_000)], cfg).run_with(&mut obs);
        assert_eq!(obs.0.len(), 3, "one callback per barrier");
        let w0 = &obs.0[0];
        assert!(w0[1].compute > w0[0].compute, "rank 1 computes more");
        assert!(w0[0].sync > 0, "rank 0 waited");
    }

    #[test]
    fn smt_sharing_slows_corunners() {
        // Same total work; two ranks on ONE core must take longer than on
        // two separate cores (decode sharing).
        let prog = || compute_prog(100_000);
        let mut same_core = SimConfig::power5(2);
        same_core.placement = vec![CtxAddr::from_cpu(0), CtxAddr::from_cpu(1)];
        let r_same = Engine::new(&[prog(), prog()], same_core).run();

        let mut diff_core = SimConfig::power5(2);
        diff_core.placement = vec![CtxAddr::from_cpu(0), CtxAddr::from_cpu(2)];
        let r_diff = Engine::new(&[prog(), prog()], diff_core).run();

        assert!(
            r_same.total_cycles > r_diff.total_cycles,
            "SMT sharing must cost something: {} vs {}",
            r_same.total_cycles,
            r_diff.total_cycles
        );
    }

    #[test]
    fn noise_lengthens_execution() {
        let mk = |noisy: bool| {
            let mut cfg = SimConfig::power5(1);
            if noisy {
                cfg.noise
                    .push(NoiseSource::timer(CtxAddr::from_cpu(0), 10_000, 2_000));
            }
            Engine::new(&[compute_prog(500_000)], cfg).run()
        };
        let clean = mk(false);
        let noisy = mk(true);
        assert!(
            noisy.total_cycles as f64 > clean.total_cycles as f64 * 1.15,
            "20% duty noise must slow the run: {} vs {}",
            noisy.total_cycles,
            clean.total_cycles
        );
        assert!(noisy.interrupt_cycles[0] > 0);
    }

    #[test]
    fn determinism_end_to_end() {
        let mk = || {
            let prog = |n: u64| {
                ProgramBuilder::new()
                    .repeat(4, move |b| {
                        b.compute(WorkSpec::new(wl(1.7), n))
                            .isend((n % 2) as usize, 1, 256)
                            .irecv((n % 2) as usize, 1)
                            .waitall()
                            .barrier()
                    })
                    .build()
            };
            let mut cfg = SimConfig::power5(2);
            cfg.placement = vec![CtxAddr::from_cpu(0), CtxAddr::from_cpu(2)];
            cfg.noise
                .push(NoiseSource::timer(CtxAddr::from_cpu(0), 7777, 111));
            Engine::new(&[prog(30_000), prog(60_001)], cfg).run()
        };
        let a = mk();
        let b = mk();
        assert_eq!(a.total_cycles, b.total_cycles);
        assert_eq!(a.retired, b.retired);
        assert_eq!(a.timelines, b.timelines);
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn unmatched_recv_deadlocks_with_diagnostic() {
        let p0 = ProgramBuilder::new().recv(1, 99).build();
        let p1 = ProgramBuilder::new()
            .compute(WorkSpec::new(wl(2.0), 1_000))
            .build();
        let mut cfg = SimConfig::power5(2);
        cfg.placement = vec![CtxAddr::from_cpu(0), CtxAddr::from_cpu(2)];
        let _ = Engine::new(&[p0, p1], cfg).run();
    }

    #[test]
    #[should_panic(expected = "collective counts")]
    fn mismatched_barrier_counts_rejected_up_front() {
        let p0 = ProgramBuilder::new().barrier().build();
        let p1 = ProgramBuilder::new().build();
        let mut cfg = SimConfig::power5(2);
        cfg.placement = vec![CtxAddr::from_cpu(0), CtxAddr::from_cpu(2)];
        let _ = Engine::new(&[p0, p1], cfg);
    }

    #[test]
    fn reduce_lets_contributors_run_ahead() {
        // Rank 1 contributes to a reduce rooted at 0, then computes more:
        // it must NOT wait for the slow root-side work.
        let root = ProgramBuilder::new()
            .compute(WorkSpec::new(wl(2.0), 100_000))
            .reduce(0, 64)
            .build();
        let contributor = ProgramBuilder::new()
            .compute(WorkSpec::new(wl(2.0), 10_000))
            .reduce(0, 64)
            .compute(WorkSpec::new(wl(2.0), 10_000))
            .build();
        let mut cfg = SimConfig::power5(2);
        cfg.placement = vec![CtxAddr::from_cpu(0), CtxAddr::from_cpu(2)];
        let r = Engine::new(&[root, contributor], cfg).run();
        // The contributor's total sync time is tiny (just the deposit
        // cost), even though the root computes 10x longer.
        let sync1 = r.timelines[1].time_in(ProcState::Sync);
        assert!(
            sync1 < r.total_cycles / 10,
            "reduce contributor must not block: sync {sync1} of {}",
            r.total_cycles
        );

        // Contrast: a barrier in the same shape makes rank 1 wait.
        let root_b = ProgramBuilder::new()
            .compute(WorkSpec::new(wl(2.0), 100_000))
            .barrier()
            .build();
        let contrib_b = ProgramBuilder::new()
            .compute(WorkSpec::new(wl(2.0), 10_000))
            .barrier()
            .compute(WorkSpec::new(wl(2.0), 10_000))
            .build();
        let mut cfg2 = SimConfig::power5(2);
        cfg2.placement = vec![CtxAddr::from_cpu(0), CtxAddr::from_cpu(2)];
        let rb = Engine::new(&[root_b, contrib_b], cfg2).run();
        assert!(rb.timelines[1].time_in(ProcState::Sync) > 10 * sync1);
    }

    #[test]
    fn bcast_waiters_wait_for_the_root_only() {
        // Root is slow; two receivers arrive early and wait. A third rank
        // arrives even later than the root and must not delay anyone.
        let mk = |work: u64| {
            ProgramBuilder::new()
                .compute(WorkSpec::new(wl(2.0), work))
                .bcast(0, 1024)
                .build()
        };
        let progs = vec![mk(80_000), mk(10_000), mk(10_000), mk(200_000)];
        let cfg = SimConfig::power5(4);
        let r = Engine::new(&progs, cfg).run();
        // Receiver 1 leaves the bcast when the root's data arrives — well
        // before rank 3 (the straggler) shows up.
        let end1 = r.timelines[1].end();
        let end3 = r.timelines[3].end();
        assert!(
            end1 < end3 * 2 / 3,
            "early receivers must not wait for stragglers: {end1} vs {end3}"
        );
    }

    #[test]
    fn spin_accounting_matches_sync_time() {
        let fast = ProgramBuilder::new()
            .compute(WorkSpec::new(wl(2.0), 10_000))
            .barrier()
            .build();
        let slow = ProgramBuilder::new()
            .compute(WorkSpec::new(wl(2.0), 100_000))
            .barrier()
            .build();
        let mut cfg = SimConfig::power5(2);
        cfg.placement = vec![CtxAddr::from_cpu(0), CtxAddr::from_cpu(2)];
        let r = Engine::new(&[fast, slow], cfg).run();
        // The fast rank's spin cycles roughly equal its traced sync time.
        let sync0 = r.timelines[0].time_in(ProcState::Sync);
        let diff = (r.spin_cycles[0] as i64 - sync0 as i64).abs();
        assert!(
            diff < sync0 as i64 / 10 + 1000,
            "spin {} vs sync {}",
            r.spin_cycles[0],
            sync0
        );
        assert!(r.busy_cycles[1] > r.busy_cycles[0]);
    }

    #[test]
    fn comm_log_records_every_message() {
        let p0 = ProgramBuilder::new()
            .isend(1, 7, 4096)
            .irecv(1, 8)
            .waitall()
            .build();
        let p1 = ProgramBuilder::new()
            .isend(0, 8, 1024)
            .irecv(0, 7)
            .waitall()
            .build();
        let mut cfg = SimConfig::power5(2);
        cfg.placement = vec![CtxAddr::from_cpu(0), CtxAddr::from_cpu(2)];
        let r = Engine::new(&[p0, p1], cfg).run();
        assert_eq!(r.comm_log.len(), 2);
        let m0 = r.comm_log.iter().find(|c| c.from == 0).unwrap();
        assert_eq!(m0.to, 1);
        assert_eq!(m0.bytes, 4096);
        assert!(m0.recv_time > m0.send_time);
        // And the full trace exports with both record types.
        let text = mtb_trace::paraver::export_with_comm(&r.timelines, &r.comm_log);
        assert!(text.lines().any(|l| l.starts_with("3:")));
    }

    #[test]
    fn unmatched_recv_returns_structured_deadlock() {
        let p0 = ProgramBuilder::new().recv(1, 99).build();
        let p1 = ProgramBuilder::new()
            .compute(WorkSpec::new(wl(2.0), 1_000))
            .build();
        let mut cfg = SimConfig::power5(2);
        cfg.placement = vec![CtxAddr::from_cpu(0), CtxAddr::from_cpu(2)];
        let err = Engine::try_new(&[p0, p1], cfg)
            .unwrap()
            .try_run()
            .unwrap_err();
        match err {
            SimError::Deadlock {
                cycle, per_rank, ..
            } => {
                assert!(cycle.is_empty(), "acyclic stall: the peer finished");
                assert_eq!(per_rank[0].waiting_on, vec![1]);
                assert_eq!(per_rank[1].state, "Done");
                assert!(per_rank[1].waiting_on.is_empty());
            }
            other => panic!("expected deadlock, got {other}"),
        }
    }

    #[test]
    fn unmatched_recv_under_noise_is_a_deadlock() {
        // Noise alone never ends a wait: with no computing rank and no
        // pending MPI event the run is stuck, however many noise edges
        // lie ahead.
        let p0 = ProgramBuilder::new().recv(1, 99).build();
        let p1 = ProgramBuilder::new()
            .compute(WorkSpec::new(wl(2.0), 1_000))
            .build();
        let mut cfg = SimConfig::power5(2);
        cfg.placement = vec![CtxAddr::from_cpu(0), CtxAddr::from_cpu(2)];
        cfg.noise
            .push(NoiseSource::timer(CtxAddr::from_cpu(0), 10_000, 500));
        cfg.max_cycles = 50_000_000;
        let err = Engine::try_new(&[p0, p1], cfg)
            .unwrap()
            .try_run()
            .unwrap_err();
        assert!(
            matches!(err, SimError::Deadlock { .. }),
            "expected a deadlock, got {err}"
        );
    }

    #[test]
    fn cross_recv_cycle_is_reported_in_wait_order() {
        // Each rank blocks receiving from the other before sending: a
        // two-rank wait-for cycle.
        let p0 = ProgramBuilder::new().recv(1, 1).send(1, 2, 64).build();
        let p1 = ProgramBuilder::new().recv(0, 2).send(0, 1, 64).build();
        let mut cfg = SimConfig::power5(2);
        cfg.placement = vec![CtxAddr::from_cpu(0), CtxAddr::from_cpu(2)];
        let err = Engine::try_new(&[p0, p1], cfg)
            .unwrap()
            .try_run()
            .unwrap_err();
        match err {
            SimError::Deadlock { cycle, .. } => assert_eq!(cycle, vec![0, 1]),
            other => panic!("expected deadlock, got {other}"),
        }
    }

    #[test]
    fn out_of_range_target_rejected_up_front() {
        let p = ProgramBuilder::new().send(3, 1, 64).build();
        let err = build_err(&[p], SimConfig::power5(1));
        assert!(matches!(
            err,
            SimError::InvalidRank {
                rank: 0,
                target: 3,
                n_ranks: 1,
                ..
            }
        ));
    }

    #[test]
    fn double_booked_context_is_a_placement_error() {
        let mut cfg = SimConfig::power5(2);
        cfg.placement = vec![CtxAddr::from_cpu(0), CtxAddr::from_cpu(0)];
        let err = build_err(&[compute_prog(10), compute_prog(10)], cfg);
        assert!(matches!(err, SimError::Placement { rank: 1, .. }));
    }

    #[test]
    fn collective_signature_distinguishes_kinds() {
        let p = ProgramBuilder::new()
            .barrier()
            .allreduce(8)
            .bcast(1, 64)
            .reduce(2, 64)
            .build();
        let mut workloads = Vec::new();
        let mut ops = Vec::new();
        crate::interp::for_each_op(&p, 0, |op| ops.push(Op::new(op, &mut workloads)));
        assert_eq!(
            collective_signature(&ops),
            vec![
                EpochKind::AllToAll,
                EpochKind::AllToAll,
                EpochKind::FromRoot { root: 1 },
                EpochKind::ToRoot { root: 2 },
            ]
        );
    }

    #[test]
    fn mismatched_collective_kinds_rejected_up_front() {
        let p0 = ProgramBuilder::new().bcast(0, 64).build();
        let p1 = ProgramBuilder::new().reduce(0, 64).build();
        let mut cfg = SimConfig::power5(2);
        cfg.placement = vec![CtxAddr::from_cpu(0), CtxAddr::from_cpu(2)];
        let err = build_err(&[p0, p1], cfg);
        assert!(matches!(
            err,
            SimError::CollectiveKindMismatch { epoch: 0, .. }
        ));
    }

    #[test]
    fn barrier_and_allreduce_pair_across_ranks() {
        // Both join AllToAll epochs; the engine accepts the mix (the
        // verifier warns about it separately).
        let p0 = ProgramBuilder::new().barrier().build();
        let p1 = ProgramBuilder::new().allreduce(64).build();
        let mut cfg = SimConfig::power5(2);
        cfg.placement = vec![CtxAddr::from_cpu(0), CtxAddr::from_cpu(2)];
        let r = Engine::try_new(&[p0, p1], cfg).unwrap().try_run().unwrap();
        assert!(r.total_cycles > 0);
    }

    #[test]
    fn self_send_then_recv_completes() {
        // Eager protocol: the self-send deposits immediately, so a later
        // self-receive matches it.
        let p = ProgramBuilder::new().send(0, 1, 64).recv(0, 1).build();
        let r = Engine::new(&[p], SimConfig::power5(1)).run();
        assert!(r.total_cycles > 0);
    }

    #[test]
    fn recv_from_self_before_send_is_a_self_cycle() {
        let p = ProgramBuilder::new().recv(0, 1).send(0, 1, 64).build();
        let err = Engine::try_new(&[p], SimConfig::power5(1))
            .unwrap()
            .try_run()
            .unwrap_err();
        match err {
            SimError::Deadlock {
                cycle, per_rank, ..
            } => {
                assert_eq!(cycle, vec![0], "one-rank wait-for self-loop");
                assert_eq!(per_rank[0].waiting_on, vec![0]);
            }
            other => panic!("expected deadlock, got {other}"),
        }
    }

    #[test]
    fn empty_loop_contributes_nothing() {
        let p = ProgramBuilder::new()
            .repeat(0, |b| b.compute(WorkSpec::new(wl(2.0), 1_000)).barrier())
            .compute(WorkSpec::new(wl(2.0), 5_000))
            .build();
        let r = Engine::new(&[p], SimConfig::power5(1)).run();
        assert_eq!(r.retired[0], 5_000, "zero-count loop body never runs");
    }

    #[test]
    fn waitall_with_no_pending_handles_is_a_no_op() {
        let p = ProgramBuilder::new()
            .waitall()
            .compute(WorkSpec::new(wl(2.0), 10_000))
            .waitall()
            .build();
        let r = Engine::new(&[p], SimConfig::power5(1)).run();
        assert_eq!(r.retired[0], 10_000);
    }

    #[test]
    fn max_cycles_overrun_is_a_structured_error() {
        let mut cfg = SimConfig::power5(1);
        cfg.max_cycles = 10;
        cfg.quantum = 4; // force several small steps so the guard trips
        let err = Engine::try_new(&[compute_prog(1_000_000)], cfg)
            .unwrap()
            .try_run()
            .unwrap_err();
        assert_eq!(err, SimError::MaxCycles { limit: 10 });
    }

    #[test]
    fn save_restore_resumes_bit_identically() {
        let mk_engine = || {
            let prog = |n: u64| {
                ProgramBuilder::new()
                    .repeat(4, move |b| {
                        b.compute(WorkSpec::new(wl(1.7), n))
                            .isend((n % 2) as usize, 1, 256)
                            .irecv((n % 2) as usize, 1)
                            .waitall()
                            .barrier()
                    })
                    .build()
            };
            let mut cfg = SimConfig::power5(2);
            cfg.placement = vec![CtxAddr::from_cpu(0), CtxAddr::from_cpu(2)];
            cfg.noise
                .push(NoiseSource::timer(CtxAddr::from_cpu(0), 7777, 111));
            Engine::new(&[prog(30_000), prog(60_001)], cfg)
        };
        let whole = mk_engine().run();

        // Run a prefix, snapshot, restore into a FRESH engine built from
        // the same inputs, and run the remainder there.
        let mut first = mk_engine();
        let done = first.step_events(&mut NullObserver, 25).unwrap();
        assert!(!done, "split point must fall mid-run");
        let snap = first.save_state();
        drop(first);

        let mut second = mk_engine();
        second.restore_state(&snap).unwrap();
        assert_eq!(second.save_state(), snap, "restore is lossless");
        let done = second.step_events(&mut NullObserver, u64::MAX).unwrap();
        assert!(done);
        assert_eq!(second.into_result(), whole);
    }

    #[test]
    fn chunked_stepping_matches_single_run() {
        let prog = |n: u64| {
            ProgramBuilder::new()
                .repeat(3, move |b| b.compute(WorkSpec::new(wl(2.0), n)).barrier())
                .build()
        };
        let mk = || {
            let mut cfg = SimConfig::power5(2);
            cfg.placement = vec![CtxAddr::from_cpu(0), CtxAddr::from_cpu(2)];
            Engine::new(&[prog(20_000), prog(40_000)], cfg)
        };
        let whole = mk().run();
        let mut chunked = mk();
        while !chunked.step_events(&mut NullObserver, 3).unwrap() {}
        assert_eq!(chunked.into_result(), whole);
    }

    #[test]
    fn restore_rejects_mismatched_engines() {
        let mut one = Engine::new(&[compute_prog(50_000)], SimConfig::power5(1));
        one.step_events(&mut NullObserver, 3).unwrap();
        let snap = one.save_state();

        // A 1-rank snapshot cannot land in a 2-rank engine.
        let mut cfg = SimConfig::power5(2);
        cfg.placement = vec![CtxAddr::from_cpu(0), CtxAddr::from_cpu(2)];
        let mut two = Engine::new(&[compute_prog(10), compute_prog(10)], cfg);
        assert!(matches!(
            two.restore_state(&snap),
            Err(SimError::Restore(_))
        ));

        // A pc past the end of the target's program is rejected.
        let mut small = Engine::new(&[compute_prog(10)], SimConfig::power5(1));
        let mut bad = snap.clone();
        bad.pc[0] = 99;
        assert!(matches!(
            small.restore_state(&bad),
            Err(SimError::Restore(_))
        ));
    }

    #[test]
    fn timelines_are_gap_free_and_cover_the_run() {
        let prog = |n: u64| {
            ProgramBuilder::new()
                .repeat(3, move |b| b.compute(WorkSpec::new(wl(2.0), n)).barrier())
                .build()
        };
        let mut cfg = SimConfig::power5(2);
        cfg.placement = vec![CtxAddr::from_cpu(0), CtxAddr::from_cpu(2)];
        let r = Engine::new(&[prog(20_000), prog(40_000)], cfg).run();
        for t in &r.timelines {
            t.check_invariants().unwrap();
            assert_eq!(t.start(), 0);
        }
        // The slow rank's end time is the run's end time.
        let max_end = r.timelines.iter().map(|t| t.end()).max().unwrap();
        assert_eq!(max_end, r.total_cycles);
    }
}
