//! Processes, hardware-context addressing, and the same-core grouping of
//! a placement.

use mtb_smtsim::{HwPriority, ThreadId};
use mtb_trace::Cycles;

/// Address of one hardware context: a core index plus one of its two SMT
/// threads. In the paper's notation, "CPU0..CPU3" of the OpenPower 710 map
/// to `(0, A), (0, B), (1, A), (1, B)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CtxAddr {
    /// Core index.
    pub core: usize,
    /// SMT context within the core.
    pub thread: ThreadId,
}

impl CtxAddr {
    /// Build from a flat CPU number (Linux-style): cpu 0 = core 0 thread A,
    /// cpu 1 = core 0 thread B, cpu 2 = core 1 thread A, ...
    pub fn from_cpu(cpu: usize) -> CtxAddr {
        CtxAddr {
            core: cpu / 2,
            thread: ThreadId::from_index(cpu % 2),
        }
    }

    /// The flat CPU number.
    pub fn cpu(&self) -> usize {
        self.core * 2 + self.thread.index()
    }

    /// The sibling context on the same core.
    pub fn sibling(&self) -> CtxAddr {
        CtxAddr {
            core: self.core,
            thread: self.thread.other(),
        }
    }
}

/// Group the ranks of a placement (`placement[rank]` = context) by the
/// core they sit on: ascending core id, ranks in placement order.
pub fn core_groups(placement: &[CtxAddr]) -> Vec<(usize, Vec<usize>)> {
    let mut groups: Vec<(usize, Vec<usize>)> = Vec::new();
    for (rank, ctx) in placement.iter().enumerate() {
        match groups.iter_mut().find(|(c, _)| *c == ctx.core) {
            Some((_, ranks)) => ranks.push(rank),
            None => groups.push((ctx.core, vec![rank])),
        }
    }
    groups.sort_by_key(|(c, _)| *c);
    groups
}

/// Every pair of ranks a placement puts on one core, as `(a, b)` with
/// `a < b`, ordered by `a` then `b`.
pub fn core_pairs(placement: &[CtxAddr]) -> Vec<(usize, usize)> {
    let mut pairs = Vec::new();
    for i in 0..placement.len() {
        for j in (i + 1)..placement.len() {
            if placement[i].core == placement[j].core {
                pairs.push((i, j));
            }
        }
    }
    pairs
}

/// Scheduling state of a process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProcRunState {
    /// Has a workload installed and is consuming cycles.
    Running,
    /// Blocked (waiting at a synchronization point); its context idles.
    Blocked,
    /// Finished; will never run again.
    Exited,
}

/// A process control block.
#[derive(Debug, Clone, PartialEq)]
pub struct Pcb {
    /// Process id (also the MPI rank in the experiments).
    pub pid: usize,
    /// Human-readable name (e.g. `"P1"`).
    pub name: String,
    /// The hardware context this process is pinned to.
    pub affinity: CtxAddr,
    /// The hardware priority the process *wants* (set via the `/proc`
    /// interface or or-nop). What the context actually carries depends on
    /// the kernel flavour — see [`crate::kernel`].
    pub hmt_priority: HwPriority,
    /// Scheduling state.
    pub state: ProcRunState,
    /// Total instructions retired on behalf of this process.
    pub retired: u64,
    /// Cycles stolen from this process by interrupt handlers and daemons.
    pub interrupt_cycles: Cycles,
    /// Cycles the process spent executing useful work.
    pub busy_cycles: Cycles,
    /// Cycles the process spent busy-waiting in MPI calls (its context
    /// occupied, nothing useful retired).
    pub spin_cycles: Cycles,
}

impl Pcb {
    /// A fresh runnable process pinned to `affinity` with default
    /// (MEDIUM) priority.
    pub fn new(pid: usize, name: impl Into<String>, affinity: CtxAddr) -> Pcb {
        Pcb {
            pid,
            name: name.into(),
            affinity,
            hmt_priority: HwPriority::MEDIUM,
            state: ProcRunState::Blocked,
            retired: 0,
            interrupt_cycles: 0,
            busy_cycles: 0,
            spin_cycles: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_numbering_roundtrips() {
        for cpu in 0..8 {
            assert_eq!(CtxAddr::from_cpu(cpu).cpu(), cpu);
        }
        assert_eq!(
            CtxAddr::from_cpu(0),
            CtxAddr {
                core: 0,
                thread: ThreadId::A
            }
        );
        assert_eq!(
            CtxAddr::from_cpu(3),
            CtxAddr {
                core: 1,
                thread: ThreadId::B
            }
        );
    }

    #[test]
    fn sibling_is_other_thread_same_core() {
        let c = CtxAddr::from_cpu(2);
        let s = c.sibling();
        assert_eq!(s.core, 1);
        assert_eq!(s.thread, ThreadId::B);
        assert_eq!(s.sibling(), c);
    }

    #[test]
    fn same_core_grouping() {
        // Ranks 0 and 3 on core 1, ranks 1 and 2 on core 0.
        let placement = [2, 0, 1, 3].map(CtxAddr::from_cpu);
        assert_eq!(
            core_groups(&placement),
            vec![(0, vec![1, 2]), (1, vec![0, 3])]
        );
        assert_eq!(core_pairs(&placement), vec![(0, 3), (1, 2)]);
    }

    #[test]
    fn new_pcb_defaults() {
        let p = Pcb::new(3, "P3", CtxAddr::from_cpu(1));
        assert_eq!(p.hmt_priority, HwPriority::MEDIUM);
        assert_eq!(p.state, ProcRunState::Blocked);
        assert_eq!(p.retired, 0);
        assert_eq!(p.interrupt_cycles, 0);
    }
}
