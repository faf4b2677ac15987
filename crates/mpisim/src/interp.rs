//! Program flattening.
//!
//! Loop bounds and iteration-dependent loads depend only on compile-time
//! information (rank, iteration counters), so a [`Program`] can be
//! flattened into a linear [`FlatOp`] sequence before execution. The
//! engine then runs each rank as a simple program counter over its flat
//! ops — no interpreter state machine needed at simulation time.

use crate::program::{LoopCtx, Program, Rank, Stmt, Tag, TracePhase, WorkSpec};

/// A primitive operation after flattening.
#[derive(Debug, Clone, PartialEq)]
pub enum FlatOp {
    /// Retire a fixed amount of work.
    Compute(WorkSpec),
    /// Blocking eager send.
    Send {
        /// Destination rank.
        to: Rank,
        /// Message tag.
        tag: Tag,
        /// Payload size.
        bytes: u64,
    },
    /// Blocking receive.
    Recv {
        /// Source rank.
        from: Rank,
        /// Message tag.
        tag: Tag,
    },
    /// Non-blocking send.
    Isend {
        /// Destination rank.
        to: Rank,
        /// Message tag.
        tag: Tag,
        /// Payload size.
        bytes: u64,
    },
    /// Non-blocking receive.
    Irecv {
        /// Source rank.
        from: Rank,
        /// Message tag.
        tag: Tag,
    },
    /// Wait for all pending handles.
    WaitAll,
    /// Global barrier.
    Barrier,
    /// Global allreduce.
    AllReduce {
        /// Payload size per rank.
        bytes: u64,
    },
    /// Broadcast from a root.
    Bcast {
        /// Broadcast root.
        root: Rank,
        /// Payload size.
        bytes: u64,
    },
    /// Reduce to a root.
    Reduce {
        /// Reduction root.
        root: Rank,
        /// Payload size per rank.
        bytes: u64,
    },
    /// Change trace labelling of subsequent compute.
    Phase(TracePhase),
}

/// A flattened op as [`for_each_op`] hands it out. Static compute work
/// is borrowed from the program; every other op is built by value, which
/// allocates nothing except for an evaluated [`Stmt::DynCompute`] load.
#[derive(Debug)]
pub enum OpRef<'a> {
    /// A [`Stmt::Compute`] load, borrowed from the program.
    Work(&'a WorkSpec),
    /// Any other op, including an evaluated [`Stmt::DynCompute`] load.
    Op(FlatOp),
}

impl OpRef<'_> {
    /// The owned [`FlatOp`] this view stands for.
    pub fn into_owned(self) -> FlatOp {
        match self {
            OpRef::Work(w) => FlatOp::Compute(w.clone()),
            OpRef::Op(op) => op,
        }
    }
}

/// Walk the flattened op stream of `program` as executed by `rank`,
/// without materializing it: loops are unrolled with their induction
/// variables resolved, and [`Stmt::DynCompute`] closures are evaluated
/// with the concrete [`LoopCtx`]. Calls `f` once per op, in order.
pub fn for_each_op<'a>(program: &'a Program, rank: Rank, mut f: impl FnMut(OpRef<'a>)) {
    let mut ctx = LoopCtx {
        rank,
        counters: Vec::new(),
    };
    walk(&program.body, &mut ctx, &mut f);
}

fn walk<'a>(body: &'a [Stmt], ctx: &mut LoopCtx, f: &mut impl FnMut(OpRef<'a>)) {
    for stmt in body {
        let op = match stmt {
            Stmt::Compute(w) => {
                f(OpRef::Work(w));
                continue;
            }
            Stmt::DynCompute(load) => FlatOp::Compute(load(ctx)),
            Stmt::Send { to, tag, bytes } => FlatOp::Send {
                to: *to,
                tag: *tag,
                bytes: *bytes,
            },
            Stmt::Recv { from, tag } => FlatOp::Recv {
                from: *from,
                tag: *tag,
            },
            Stmt::Isend { to, tag, bytes } => FlatOp::Isend {
                to: *to,
                tag: *tag,
                bytes: *bytes,
            },
            Stmt::Irecv { from, tag } => FlatOp::Irecv {
                from: *from,
                tag: *tag,
            },
            Stmt::WaitAll => FlatOp::WaitAll,
            Stmt::Barrier => FlatOp::Barrier,
            Stmt::AllReduce { bytes } => FlatOp::AllReduce { bytes: *bytes },
            Stmt::Bcast { root, bytes } => FlatOp::Bcast {
                root: *root,
                bytes: *bytes,
            },
            Stmt::Reduce { root, bytes } => FlatOp::Reduce {
                root: *root,
                bytes: *bytes,
            },
            Stmt::Loop { count, body } => {
                for i in 0..*count {
                    ctx.counters.push(i);
                    walk(body, ctx, f);
                    ctx.counters.pop();
                }
                continue;
            }
            Stmt::Phase(p) => FlatOp::Phase(*p),
        };
        f(OpRef::Op(op));
    }
}

/// Flatten `program` for execution by `rank` into a linear op sequence
/// ([`for_each_op`], collected). The resulting op count is the dynamic
/// statement count of the program; keep loop products moderate (≲10⁵).
pub fn flatten(program: &Program, rank: Rank) -> Vec<FlatOp> {
    let mut out = Vec::new();
    for_each_op(program, rank, |op| out.push(op.into_owned()));
    out
}

/// One segment of the structural path from a program's root to a
/// statement — the span attached to analyzer diagnostics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathSeg {
    /// Index within the enclosing statement list.
    Stmt(usize),
    /// Iteration of the enclosing loop.
    Iter(u32),
}

/// Render a statement path compactly, e.g. `"2/it1/0"` for the first
/// statement of iteration 1 of the loop at top-level index 2.
pub fn path_string(path: &[PathSeg]) -> String {
    let mut out = String::new();
    for (i, seg) in path.iter().enumerate() {
        if i > 0 {
            out.push('/');
        }
        match seg {
            PathSeg::Stmt(s) => out.push_str(&s.to_string()),
            PathSeg::Iter(k) => {
                out.push_str("it");
                out.push_str(&k.to_string());
            }
        }
    }
    out
}

/// A flattened op under *symbolic* evaluation: [`Stmt::DynCompute`]
/// closures are left opaque instead of being called, so the stream is a
/// pure function of the program structure (no rank-dependent closure
/// behaviour) — what a static analyzer may rely on.
#[derive(Debug, Clone, PartialEq)]
pub enum SymOpKind {
    /// A concrete flattened op.
    Op(FlatOp),
    /// A dynamic compute load whose closure was not evaluated.
    OpaqueCompute,
}

/// A symbolically flattened op with its structural origin.
#[derive(Debug, Clone, PartialEq)]
pub struct SymOp {
    /// Path from the program root to the originating statement.
    pub path: Vec<PathSeg>,
    /// The op itself.
    pub op: SymOpKind,
}

/// Flatten `program` symbolically: loops are unrolled (their counts are
/// static), but [`Stmt::DynCompute`] closures are NOT called — they
/// appear as [`SymOpKind::OpaqueCompute`]. Rank-independent by
/// construction; communication structure is preserved exactly as
/// [`flatten`] would produce it.
pub fn flatten_symbolic(program: &Program) -> Vec<SymOp> {
    let mut out = Vec::new();
    let mut path = Vec::new();
    flatten_symbolic_into(&program.body, &mut path, &mut out);
    out
}

fn flatten_symbolic_into(body: &[Stmt], path: &mut Vec<PathSeg>, out: &mut Vec<SymOp>) {
    for (i, stmt) in body.iter().enumerate() {
        path.push(PathSeg::Stmt(i));
        let mut emit = |op: SymOpKind, path: &[PathSeg]| {
            out.push(SymOp {
                path: path.to_vec(),
                op,
            })
        };
        match stmt {
            Stmt::Compute(w) => emit(SymOpKind::Op(FlatOp::Compute(w.clone())), path),
            Stmt::DynCompute(_) => emit(SymOpKind::OpaqueCompute, path),
            Stmt::Send { to, tag, bytes } => emit(
                SymOpKind::Op(FlatOp::Send {
                    to: *to,
                    tag: *tag,
                    bytes: *bytes,
                }),
                path,
            ),
            Stmt::Recv { from, tag } => emit(
                SymOpKind::Op(FlatOp::Recv {
                    from: *from,
                    tag: *tag,
                }),
                path,
            ),
            Stmt::Isend { to, tag, bytes } => emit(
                SymOpKind::Op(FlatOp::Isend {
                    to: *to,
                    tag: *tag,
                    bytes: *bytes,
                }),
                path,
            ),
            Stmt::Irecv { from, tag } => emit(
                SymOpKind::Op(FlatOp::Irecv {
                    from: *from,
                    tag: *tag,
                }),
                path,
            ),
            Stmt::WaitAll => emit(SymOpKind::Op(FlatOp::WaitAll), path),
            Stmt::Barrier => emit(SymOpKind::Op(FlatOp::Barrier), path),
            Stmt::AllReduce { bytes } => {
                emit(SymOpKind::Op(FlatOp::AllReduce { bytes: *bytes }), path)
            }
            Stmt::Bcast { root, bytes } => emit(
                SymOpKind::Op(FlatOp::Bcast {
                    root: *root,
                    bytes: *bytes,
                }),
                path,
            ),
            Stmt::Reduce { root, bytes } => emit(
                SymOpKind::Op(FlatOp::Reduce {
                    root: *root,
                    bytes: *bytes,
                }),
                path,
            ),
            Stmt::Loop { count, body } => {
                for k in 0..*count {
                    path.push(PathSeg::Iter(k));
                    flatten_symbolic_into(body, path, out);
                    path.pop();
                }
            }
            Stmt::Phase(p) => emit(SymOpKind::Op(FlatOp::Phase(*p)), path),
        }
        path.pop();
    }
}

/// The synchronization-epoch signature of a flat op stream: the
/// [`EpochKind`] each collective call joins, in program order. Every rank
/// must produce the same signature for the run to terminate — the engine
/// rejects mismatches up front ([`crate::engine::SimError`]).
pub fn collective_signature(ops: &[FlatOp]) -> Vec<crate::collective::EpochKind> {
    use crate::collective::EpochKind;
    ops.iter()
        .filter_map(|o| match o {
            FlatOp::Barrier | FlatOp::AllReduce { .. } => Some(EpochKind::AllToAll),
            FlatOp::Bcast { root, .. } => Some(EpochKind::FromRoot { root: *root }),
            FlatOp::Reduce { root, .. } => Some(EpochKind::ToRoot { root: *root }),
            _ => None,
        })
        .collect()
}

/// Number of global synchronization epochs (barriers + allreduces) a flat
/// program participates in — every rank must agree on this for the run to
/// terminate; the engine validates it up front.
pub fn count_sync_epochs(ops: &[FlatOp]) -> usize {
    ops.iter()
        .filter(|o| {
            matches!(
                o,
                FlatOp::Barrier
                    | FlatOp::AllReduce { .. }
                    | FlatOp::Bcast { .. }
                    | FlatOp::Reduce { .. }
            )
        })
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::ProgramBuilder;
    use mtb_smtsim::inst::StreamSpec;
    use mtb_smtsim::model::Workload;

    fn w() -> Workload {
        Workload::from_spec("w", StreamSpec::balanced(1))
    }

    #[test]
    fn loops_unroll_in_order() {
        let p = ProgramBuilder::new()
            .repeat(3, |b| b.compute(WorkSpec::new(w(), 10)).barrier())
            .build();
        let ops = flatten(&p, 0);
        assert_eq!(ops.len(), 6);
        assert!(matches!(ops[0], FlatOp::Compute(_)));
        assert!(matches!(ops[1], FlatOp::Barrier));
        assert!(matches!(ops[5], FlatOp::Barrier));
        assert_eq!(count_sync_epochs(&ops), 3);
    }

    #[test]
    fn dyn_compute_sees_iteration_and_rank() {
        let p = ProgramBuilder::new()
            .repeat(4, |b| {
                b.dyn_compute(|ctx| {
                    WorkSpec::new(
                        w(),
                        1000 * (u64::from(ctx.iteration()) + 1) + ctx.rank as u64,
                    )
                })
            })
            .build();
        let ops = flatten(&p, 7);
        let sizes: Vec<u64> = ops
            .iter()
            .map(|o| match o {
                FlatOp::Compute(ws) => ws.instructions,
                _ => panic!("unexpected op"),
            })
            .collect();
        assert_eq!(sizes, vec![1007, 2007, 3007, 4007]);
    }

    #[test]
    fn nested_loops_expose_all_counters() {
        let p = ProgramBuilder::new()
            .repeat(2, |b| {
                b.repeat(3, |b| {
                    b.dyn_compute(|ctx| {
                        assert_eq!(ctx.counters.len(), 2);
                        WorkSpec::new(
                            w(),
                            u64::from(ctx.counters[0]) * 10 + u64::from(ctx.counters[1]),
                        )
                    })
                })
            })
            .build();
        let ops = flatten(&p, 0);
        let sizes: Vec<u64> = ops
            .iter()
            .map(|o| match o {
                FlatOp::Compute(ws) => ws.instructions,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(sizes, vec![0, 1, 2, 10, 11, 12]);
    }

    #[test]
    fn non_loop_statements_pass_through() {
        let p = ProgramBuilder::new()
            .phase(crate::program::TracePhase::Init)
            .isend(1, 5, 64)
            .irecv(1, 5)
            .waitall()
            .allreduce(8)
            .build();
        let ops = flatten(&p, 0);
        assert_eq!(ops.len(), 5);
        assert_eq!(count_sync_epochs(&ops), 1);
    }

    #[test]
    fn rooted_collectives_flatten_and_count() {
        let p = ProgramBuilder::new()
            .bcast(0, 256)
            .compute(WorkSpec::new(w(), 5))
            .reduce(0, 1024)
            .build();
        let ops = flatten(&p, 2);
        assert_eq!(ops.len(), 3);
        assert_eq!(
            ops[0],
            FlatOp::Bcast {
                root: 0,
                bytes: 256
            }
        );
        assert_eq!(
            ops[2],
            FlatOp::Reduce {
                root: 0,
                bytes: 1024
            }
        );
        assert_eq!(count_sync_epochs(&ops), 2);
    }

    #[test]
    fn for_each_op_borrows_static_work_and_evaluates_dynamic_loads() {
        let p = ProgramBuilder::new()
            .compute(WorkSpec::new(w(), 5))
            .repeat(2, |b| {
                b.dyn_compute(|ctx| WorkSpec::new(w(), u64::from(ctx.iteration()) + 1))
                    .barrier()
            })
            .build();
        let Stmt::Compute(first) = &p.body[0] else {
            panic!("program starts with a static load")
        };
        let mut seen = Vec::new();
        for_each_op(&p, 3, |op| {
            if let OpRef::Work(w) = op {
                assert!(std::ptr::eq(w, first), "static work is borrowed");
            }
            seen.push(op.into_owned());
        });
        assert_eq!(seen, flatten(&p, 3));
        assert_eq!(seen.len(), 5);
        assert!(matches!(&seen[3], FlatOp::Compute(ws) if ws.instructions == 2));
    }

    #[test]
    fn empty_program_flattens_empty() {
        let ops = flatten(&Program::new(vec![]), 0);
        assert!(ops.is_empty());
        assert_eq!(count_sync_epochs(&ops), 0);
    }

    #[test]
    fn symbolic_flatten_keeps_dyn_compute_opaque() {
        let p = ProgramBuilder::new()
            .repeat(2, |b| {
                b.dyn_compute(|ctx| WorkSpec::new(w(), u64::from(ctx.iteration())))
                    .barrier()
            })
            .build();
        let sym = flatten_symbolic(&p);
        assert_eq!(sym.len(), 4, "2 iterations x (dyn compute + barrier)");
        assert_eq!(sym[0].op, SymOpKind::OpaqueCompute);
        assert_eq!(sym[1].op, SymOpKind::Op(FlatOp::Barrier));
        assert_eq!(
            sym[0].path,
            vec![PathSeg::Stmt(0), PathSeg::Iter(0), PathSeg::Stmt(0)]
        );
        assert_eq!(path_string(&sym[3].path), "0/it1/1");
    }

    #[test]
    fn symbolic_flatten_matches_concrete_comm_structure() {
        let p = ProgramBuilder::new()
            .repeat(3, |b| b.isend(1, 5, 64).irecv(1, 5).waitall().barrier())
            .build();
        let concrete = flatten(&p, 0);
        let sym = flatten_symbolic(&p);
        assert_eq!(concrete.len(), sym.len());
        for (c, s) in concrete.iter().zip(&sym) {
            assert_eq!(s.op, SymOpKind::Op(c.clone()));
        }
    }

    #[test]
    fn symbolic_flatten_drops_empty_loops() {
        let p = ProgramBuilder::new()
            .repeat(0, |b| b.barrier())
            .compute(WorkSpec::new(w(), 5))
            .build();
        let sym = flatten_symbolic(&p);
        assert_eq!(sym.len(), 1);
        assert_eq!(sym[0].path, vec![PathSeg::Stmt(1)]);
    }

    #[test]
    fn collective_signature_distinguishes_kinds() {
        use crate::collective::EpochKind;
        let p = ProgramBuilder::new()
            .barrier()
            .allreduce(8)
            .bcast(1, 64)
            .reduce(2, 64)
            .build();
        let sig = collective_signature(&flatten(&p, 0));
        assert_eq!(
            sig,
            vec![
                EpochKind::AllToAll,
                EpochKind::AllToAll,
                EpochKind::FromRoot { root: 1 },
                EpochKind::ToRoot { root: 2 },
            ]
        );
    }
}
