//! Communication-graph checks: a time-free abstract interpretation of the
//! rank programs.
//!
//! Message matching in `mtb_mpisim::comm` is FIFO per `(from, tag)` and
//! independent of arrival *times* — which messages pair up is decided by
//! posting order alone. That makes a time-free executor exact for
//! termination: it runs each rank's symbolically flattened op stream
//! ([`mtb_mpisim::interp::flatten_symbolic`], `DynCompute` opaque) under
//! the same matching, blocking and collective-release rules as the
//! engine, minus the clock. If it finishes, the engine finishes; if it
//! stalls, the engine deadlocks — and the stall is diagnosed into a
//! wait-for cycle, an unmatched receive, or a missed collective.

use crate::diag::{codes, Diagnostic, Report, Severity};
use mtb_mpisim::collective::EpochKind;
use mtb_mpisim::engine::find_cycle;
use mtb_mpisim::interp::{flatten_symbolic, path_string, FlatOp, SymOp, SymOpKind};
use mtb_mpisim::program::Stmt;
use mtb_mpisim::{Program, Rank, Tag};

/// Run every communication check over one program per rank.
pub fn check_programs(programs: &[Program]) -> Report {
    let mut report = Report::new();
    let n = programs.len();

    // Structural pass over the statement trees (catches what flattening
    // erases, e.g. zero-count loops).
    for (rank, prog) in programs.iter().enumerate() {
        lint_stmts(rank, &prog.body, &mut Vec::new(), &mut report);
    }

    let sym: Vec<Vec<SymOp>> = programs.iter().map(flatten_symbolic).collect();

    // Rank-range and self-send scans.
    for (rank, ops) in sym.iter().enumerate() {
        for s in ops {
            let SymOpKind::Op(op) = &s.op else { continue };
            let (target, role) = match op {
                FlatOp::Send { to, .. } | FlatOp::Isend { to, .. } => (*to, "sends to"),
                FlatOp::Recv { from, .. } | FlatOp::Irecv { from, .. } => (*from, "receives from"),
                FlatOp::Bcast { root, .. } | FlatOp::Reduce { root, .. } => (*root, "roots at"),
                _ => continue,
            };
            if target >= n {
                report.push(
                    Diagnostic::new(
                        codes::RANK_RANGE,
                        Severity::Error,
                        format!("rank {rank} {role} rank {target}, but only ranks 0..{n} exist"),
                    )
                    .with_rank(rank)
                    .with_path(path_string(&s.path)),
                );
            } else if target == rank && matches!(op, FlatOp::Send { .. } | FlatOp::Isend { .. }) {
                report.push(
                    Diagnostic::new(
                        codes::SELF_SEND,
                        Severity::Info,
                        format!(
                            "rank {rank} sends to itself; legal under the eager protocol \
                             only if the send precedes the matching receive"
                        ),
                    )
                    .with_rank(rank)
                    .with_path(path_string(&s.path)),
                );
            }
        }
    }

    // Collective-sequence agreement (the engine refuses mismatches up
    // front; the abstract executor assumes agreement).
    check_collectives(&sym, &mut report);

    if report.has_errors() {
        // The engine would refuse this configuration before running;
        // executing the abstract machine could index out of range.
        return report;
    }

    Executor::new(&sym).run(&mut report);
    report
}

/// Walk a statement tree for structural lints.
fn lint_stmts(rank: Rank, body: &[Stmt], path: &mut Vec<String>, report: &mut Report) {
    for (i, stmt) in body.iter().enumerate() {
        if let Stmt::Loop { count, body } = stmt {
            path.push(i.to_string());
            if *count == 0 {
                report.push(
                    Diagnostic::new(
                        codes::EMPTY_LOOP,
                        Severity::Info,
                        format!("rank {rank} has a loop with count 0; its body never runs"),
                    )
                    .with_rank(rank)
                    .with_path(path.join("/")),
                );
            } else {
                lint_stmts(rank, body, path, report);
            }
            path.pop();
        }
    }
}

/// Compare every rank's collective sequence: counts, epoch kinds, and
/// (informationally) the concrete op used.
fn check_collectives(sym: &[Vec<SymOp>], report: &mut Report) {
    let flat_collectives: Vec<Vec<(&FlatOp, String)>> = sym
        .iter()
        .map(|ops| {
            ops.iter()
                .filter_map(|s| match &s.op {
                    SymOpKind::Op(
                        op @ (FlatOp::Barrier
                        | FlatOp::AllReduce { .. }
                        | FlatOp::Bcast { .. }
                        | FlatOp::Reduce { .. }),
                    ) => Some((op, path_string(&s.path))),
                    _ => None,
                })
                .collect()
        })
        .collect();
    let counts: Vec<usize> = flat_collectives.iter().map(Vec::len).collect();
    if counts.windows(2).any(|w| w[0] != w[1]) {
        report.push(Diagnostic::new(
            codes::COLLECTIVE_MISMATCH,
            Severity::Error,
            format!(
                "ranks disagree on how many collectives they join: {counts:?} — \
                 some rank skips a barrier/allreduce/bcast/reduce its peers reach"
            ),
        ));
        return;
    }
    let Some((first, rest)) = flat_collectives.split_first() else {
        return;
    };
    for (off, seq) in rest.iter().enumerate() {
        let rank_b = off + 1;
        for (epoch, ((op_a, _), (op_b, path_b))) in first.iter().zip(seq.iter()).enumerate() {
            let ka = kind_of(op_a);
            let kb = kind_of(op_b);
            if ka != kb {
                report.push(
                    Diagnostic::new(
                        codes::COLLECTIVE_MISMATCH,
                        Severity::Error,
                        format!(
                            "collective #{epoch}: rank 0 joins {op_a:?} but rank {rank_b} \
                             joins {op_b:?} — incompatible synchronization kinds"
                        ),
                    )
                    .with_rank(rank_b)
                    .with_path(path_b.clone()),
                );
            } else if std::mem::discriminant(*op_a) != std::mem::discriminant(*op_b) {
                // Barrier vs AllReduce: same AllToAll epoch, engine-legal,
                // but almost certainly unintended in a real program.
                report.push(
                    Diagnostic::new(
                        codes::COLLECTIVE_MISMATCH,
                        Severity::Warning,
                        format!(
                            "collective #{epoch}: rank 0 calls {op_a:?} while rank {rank_b} \
                             calls {op_b:?}; both synchronize all-to-all so the run \
                             completes, but mixing them is suspicious"
                        ),
                    )
                    .with_rank(rank_b)
                    .with_path(path_b.clone()),
                );
            }
        }
    }
}

fn kind_of(op: &FlatOp) -> EpochKind {
    match op {
        FlatOp::Barrier | FlatOp::AllReduce { .. } => EpochKind::AllToAll,
        FlatOp::Bcast { root, .. } => EpochKind::FromRoot { root: *root },
        FlatOp::Reduce { root, .. } => EpochKind::ToRoot { root: *root },
        other => unreachable!("not a collective: {other:?}"),
    }
}

/// What a rank is blocked on in the abstract machine.
#[derive(Debug, Clone, Copy, PartialEq)]
enum St {
    Run,
    BlockRecv { hidx: usize },
    BlockWaitAll,
    BlockEpoch { idx: usize },
    Done,
}

/// An outstanding receive handle (isend handles complete instantly under
/// the eager protocol and are not tracked).
struct AbsHandle {
    from: Rank,
    tag: Tag,
    matched: bool,
    /// Posted by a blocking `Recv` (consumed semantically even though the
    /// engine only clears it at the next `WaitAll`).
    blocking: bool,
    path: String,
}

struct AbsEpoch {
    kind: EpochKind,
    arrived: Vec<Rank>,
}

/// The time-free abstract machine.
struct Executor<'a> {
    ops: &'a [Vec<SymOp>],
    n: usize,
    pc: Vec<usize>,
    state: Vec<St>,
    handles: Vec<Vec<AbsHandle>>,
    /// Per receiving rank: deposited-but-unclaimed messages, in order.
    unexpected: Vec<Vec<(Rank, Tag, String)>>,
    epochs: Vec<AbsEpoch>,
    next_epoch: Vec<usize>,
}

impl<'a> Executor<'a> {
    fn new(ops: &'a [Vec<SymOp>]) -> Executor<'a> {
        let n = ops.len();
        Executor {
            ops,
            n,
            pc: vec![0; n],
            state: vec![St::Run; n],
            handles: (0..n).map(|_| Vec::new()).collect(),
            unexpected: vec![Vec::new(); n],
            epochs: Vec::new(),
            next_epoch: vec![0; n],
        }
    }

    fn run(mut self, report: &mut Report) {
        loop {
            let mut progress = false;
            for rank in 0..self.n {
                while self.step(rank, report) {
                    progress = true;
                }
            }
            if self.state.iter().all(|s| *s == St::Done) {
                self.finish(report);
                return;
            }
            if !progress {
                self.diagnose_stall(report);
                return;
            }
        }
    }

    /// Advance `rank` by one transition if possible.
    fn step(&mut self, rank: Rank, report: &mut Report) -> bool {
        match self.state[rank] {
            St::Done => false,
            St::BlockRecv { hidx } => {
                if self.handles[rank][hidx].matched {
                    self.state[rank] = St::Run;
                    true
                } else {
                    false
                }
            }
            St::BlockWaitAll => {
                if self.handles[rank].iter().all(|h| h.matched) {
                    self.handles[rank].clear();
                    self.state[rank] = St::Run;
                    true
                } else {
                    false
                }
            }
            St::BlockEpoch { idx } => {
                if self.epoch_released(idx, rank) {
                    self.state[rank] = St::Run;
                    true
                } else {
                    false
                }
            }
            St::Run => {
                let Some(sym) = self.ops[rank].get(self.pc[rank]) else {
                    self.state[rank] = St::Done;
                    return true;
                };
                let path = path_string(&sym.path);
                self.pc[rank] += 1;
                let SymOpKind::Op(op) = &sym.op else {
                    return true; // opaque compute: no comm effect
                };
                match op {
                    FlatOp::Compute(_) | FlatOp::Phase(_) => {}
                    FlatOp::Send { to, tag, .. } | FlatOp::Isend { to, tag, .. } => {
                        self.post_send(rank, *to, *tag, path);
                    }
                    FlatOp::Irecv { from, tag } => {
                        self.post_irecv(rank, *from, *tag, false, path);
                    }
                    FlatOp::Recv { from, tag } => {
                        let hidx = self.post_irecv(rank, *from, *tag, true, path);
                        if !self.handles[rank][hidx].matched {
                            self.state[rank] = St::BlockRecv { hidx };
                        }
                    }
                    FlatOp::WaitAll => {
                        if self.handles[rank].is_empty() {
                            report.push(
                                Diagnostic::new(
                                    codes::WAITALL_EMPTY,
                                    Severity::Info,
                                    format!(
                                        "rank {rank} calls waitall with no pending \
                                         handles (a no-op)"
                                    ),
                                )
                                .with_rank(rank)
                                .with_path(path),
                            );
                        } else if self.handles[rank].iter().all(|h| h.matched) {
                            self.handles[rank].clear();
                        } else {
                            self.state[rank] = St::BlockWaitAll;
                        }
                    }
                    FlatOp::Barrier
                    | FlatOp::AllReduce { .. }
                    | FlatOp::Bcast { .. }
                    | FlatOp::Reduce { .. } => {
                        let idx = self.next_epoch[rank];
                        self.next_epoch[rank] += 1;
                        if self.epochs.len() <= idx {
                            self.epochs.push(AbsEpoch {
                                kind: kind_of(op),
                                arrived: Vec::new(),
                            });
                        }
                        self.epochs[idx].arrived.push(rank);
                        if !self.epoch_released(idx, rank) {
                            self.state[rank] = St::BlockEpoch { idx };
                        }
                    }
                }
                true
            }
        }
    }

    fn post_send(&mut self, from: Rank, to: Rank, tag: Tag, path: String) {
        // Match the receiver's oldest unmatched posted receive for this
        // (from, tag), exactly like `CommState::post_send`.
        if let Some(h) = self.handles[to]
            .iter_mut()
            .find(|h| !h.matched && h.from == from && h.tag == tag)
        {
            h.matched = true;
        } else {
            self.unexpected[to].push((from, tag, path));
        }
    }

    fn post_irecv(
        &mut self,
        rank: Rank,
        from: Rank,
        tag: Tag,
        blocking: bool,
        path: String,
    ) -> usize {
        let matched = if let Some(pos) = self.unexpected[rank]
            .iter()
            .position(|&(f, t, _)| f == from && t == tag)
        {
            self.unexpected[rank].remove(pos);
            true
        } else {
            false
        };
        self.handles[rank].push(AbsHandle {
            from,
            tag,
            matched,
            blocking,
            path,
        });
        self.handles[rank].len() - 1
    }

    fn epoch_released(&self, idx: usize, rank: Rank) -> bool {
        let e = &self.epochs[idx];
        match e.kind {
            EpochKind::AllToAll => e.arrived.len() == self.n,
            EpochKind::FromRoot { root } => e.arrived.contains(&root),
            EpochKind::ToRoot { root } => rank != root || e.arrived.len() == self.n,
        }
    }

    /// The ranks `rank` cannot proceed without.
    fn waiting_on(&self, rank: Rank) -> Vec<Rank> {
        let mut peers: Vec<Rank> = match self.state[rank] {
            St::BlockRecv { hidx } => vec![self.handles[rank][hidx].from],
            St::BlockWaitAll => self.handles[rank]
                .iter()
                .filter(|h| !h.matched)
                .map(|h| h.from)
                .collect(),
            St::BlockEpoch { idx } => {
                let e = &self.epochs[idx];
                match e.kind {
                    EpochKind::AllToAll => (0..self.n).filter(|r| !e.arrived.contains(r)).collect(),
                    EpochKind::FromRoot { root } => vec![root],
                    EpochKind::ToRoot { root } => {
                        if rank == root {
                            (0..self.n).filter(|r| !e.arrived.contains(r)).collect()
                        } else {
                            Vec::new()
                        }
                    }
                }
            }
            St::Run | St::Done => Vec::new(),
        };
        peers.sort_unstable();
        peers.dedup();
        peers
    }

    /// No rank can advance: turn the wait-for graph into diagnostics.
    fn diagnose_stall(&self, report: &mut Report) {
        let waits: Vec<Vec<Rank>> = (0..self.n).map(|r| self.waiting_on(r)).collect();
        let before = report.count(Severity::Error);

        let cycle = find_cycle(&waits);
        if !cycle.is_empty() {
            let chain: Vec<String> = cycle
                .iter()
                .zip(cycle.iter().cycle().skip(1))
                .map(|(a, b)| format!("rank {a} waits on rank {b}"))
                .collect();
            let mut d = Diagnostic::new(
                codes::DEADLOCK_CYCLE,
                Severity::Error,
                format!("cyclic wait among ranks {cycle:?}: {}", chain.join(", ")),
            )
            .with_rank(cycle[0]);
            if let Some(p) = self.blocking_path(cycle[0]) {
                d = d.with_path(p);
            }
            report.push(d);
        }

        for (rank, rank_waits) in waits.iter().enumerate() {
            let done_peers: Vec<Rank> = rank_waits
                .iter()
                .copied()
                .filter(|&p| self.state[p] == St::Done)
                .collect();
            if done_peers.is_empty() {
                continue;
            }
            match self.state[rank] {
                St::BlockRecv { .. } | St::BlockWaitAll => {
                    for h in self.handles[rank].iter().filter(|h| !h.matched) {
                        if done_peers.contains(&h.from) {
                            report.push(
                                Diagnostic::new(
                                    codes::UNMATCHED_RECV,
                                    Severity::Error,
                                    format!(
                                        "rank {rank} waits for a message from rank {} \
                                         (tag {}) but rank {} has finished without \
                                         sending it",
                                        h.from, h.tag, h.from
                                    ),
                                )
                                .with_rank(rank)
                                .with_path(h.path.clone()),
                            );
                        }
                    }
                }
                St::BlockEpoch { idx } => {
                    let mut d = Diagnostic::new(
                        codes::COLLECTIVE_MISMATCH,
                        Severity::Error,
                        format!(
                            "rank {rank} waits in collective #{idx} for rank(s) \
                             {done_peers:?}, which finished without joining"
                        ),
                    )
                    .with_rank(rank);
                    if let Some(p) = self.blocking_path(rank) {
                        d = d.with_path(p);
                    }
                    report.push(d);
                }
                _ => {}
            }
        }

        if report.count(Severity::Error) == before {
            // Guarantee: a stall always yields at least one Error.
            report.push(Diagnostic::new(
                codes::DEADLOCK_CYCLE,
                Severity::Error,
                "no rank can make progress (unclassified stall)".to_string(),
            ));
        }
    }

    /// The path of the op `rank` is currently blocked at (pc was already
    /// advanced past it).
    fn blocking_path(&self, rank: Rank) -> Option<String> {
        self.pc[rank]
            .checked_sub(1)
            .and_then(|i| self.ops[rank].get(i))
            .map(|s| path_string(&s.path))
    }

    /// All ranks finished: report leaked messages and orphan handles.
    fn finish(&self, report: &mut Report) {
        for (to, msgs) in self.unexpected.iter().enumerate() {
            for (from, tag, path) in msgs {
                report.push(
                    Diagnostic::new(
                        codes::UNMATCHED_SEND,
                        Severity::Warning,
                        format!(
                            "message from rank {from} to rank {to} (tag {tag}) is \
                             never received"
                        ),
                    )
                    .with_rank(*from)
                    .with_path(path.clone()),
                );
            }
        }
        for (rank, handles) in self.handles.iter().enumerate() {
            for h in handles.iter().filter(|h| !h.blocking) {
                report.push(
                    Diagnostic::new(
                        codes::ORPHAN_IRECV,
                        Severity::Warning,
                        format!(
                            "rank {rank} finished with an irecv (from rank {}, tag {}) \
                             never completed by a waitall",
                            h.from, h.tag
                        ),
                    )
                    .with_rank(rank)
                    .with_path(h.path.clone()),
                );
            }
        }
    }
}
