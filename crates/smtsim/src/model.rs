//! The common interface between core implementations and the rest of the
//! system.
//!
//! Two core models implement [`CoreModel`]:
//!
//! * [`crate::core::SmtCore`] — the cycle-level model (decode arbitration,
//!   shared execution units, caches). Slow but mechanistic; used for the
//!   micro-experiments (Tables II/III) and for calibrating the fast model.
//! * [`crate::perfmodel::MesoCore`] — a closed-form throughput model over
//!   the same decode-share mathematics. Five orders of magnitude faster;
//!   used by the system-level simulator for the application experiments
//!   (Tables IV-VI).
//!
//! The OS/machine layer (`mtb-oskernel`) drives cores exclusively through
//! this trait, so experiments can swap fidelity for speed.

use std::sync::Arc;

use crate::inst::StreamSpec;
use crate::priority::HwPriority;
use crate::state::CoreState;
use crate::Cycles;

/// One of the two hardware contexts (SMT threads) of a core.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ThreadId {
    /// Context 0.
    A,
    /// Context 1.
    B,
}

impl ThreadId {
    /// Both contexts, in index order.
    pub const BOTH: [ThreadId; 2] = [ThreadId::A, ThreadId::B];

    /// The other context of the same core.
    pub fn other(self) -> ThreadId {
        match self {
            ThreadId::A => ThreadId::B,
            ThreadId::B => ThreadId::A,
        }
    }

    /// 0 for A, 1 for B.
    pub fn index(self) -> usize {
        match self {
            ThreadId::A => 0,
            ThreadId::B => 1,
        }
    }

    /// Inverse of [`ThreadId::index`].
    pub fn from_index(i: usize) -> ThreadId {
        match i {
            0 => ThreadId::A,
            1 => ThreadId::B,
            _ => panic!("thread index {i} out of range for 2-way SMT"),
        }
    }
}

/// Steady-state characterization of a workload, consumed by the mesoscale
/// model. Derivable analytically ([`StreamSpec::profile`]) or by running
/// the cycle model ([`crate::calibrate::calibrated_profile`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadProfile {
    /// Instructions per cycle the workload sustains running *alone* on a
    /// core (single-thread mode, priority 7/0).
    pub ipc_st: f64,
    /// How saturated the core's execution units are (0 = none, 1 = fully):
    /// determines how much a co-running thread loses to unit contention.
    pub unit_pressure: f64,
    /// Cache/memory boundedness (0 = cache-resident, 1 = memory-bound):
    /// determines sensitivity to shared-L2 contention.
    pub mem_intensity: f64,
}

impl WorkloadProfile {
    /// A profile with explicit fields, clamped to sane ranges.
    pub fn new(ipc_st: f64, unit_pressure: f64, mem_intensity: f64) -> WorkloadProfile {
        WorkloadProfile {
            ipc_st: ipc_st.max(0.0),
            unit_pressure: unit_pressure.clamp(0.0, 1.0),
            mem_intensity: mem_intensity.clamp(0.0, 1.0),
        }
    }
}

/// A unit of schedulable work: a named instruction stream plus its derived
/// steady-state profile.
///
/// Cloning is cheap and never allocates: the name is shared. The kernel
/// re-installs a context's workload every time a noise handler exits.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    /// Diagnostic name (e.g. `"metbench-fpu"`).
    pub name: Arc<str>,
    /// Generator specification for the cycle-level model.
    pub stream: StreamSpec,
    /// Steady-state profile for the mesoscale model.
    pub profile: WorkloadProfile,
}

impl Workload {
    /// Build a workload from a stream spec, deriving the profile
    /// analytically.
    pub fn from_spec(name: impl Into<Arc<str>>, stream: StreamSpec) -> Workload {
        let profile = stream.profile();
        Workload {
            name: name.into(),
            stream,
            profile,
        }
    }

    /// Build a workload with an explicitly provided profile (e.g. one
    /// calibrated against the cycle model).
    pub fn with_profile(
        name: impl Into<Arc<str>>,
        stream: StreamSpec,
        profile: WorkloadProfile,
    ) -> Workload {
        Workload {
            name: name.into(),
            stream,
            profile,
        }
    }
}

/// A 2-way SMT core as seen by the machine layer.
///
/// `Send` is a supertrait: the machine layer shards independent cores
/// across pool workers per advance window, so every implementation must
/// be movable between threads. Cores that *share* a resource (an L2
/// domain) advertise it through [`CoreModel::share_group`] and are kept
/// on one worker, advanced sequentially in index order — which is what
/// makes the parallel schedule bit-identical to the serial one.
pub trait CoreModel: Send {
    /// Set the hardware priority of a context.
    fn set_priority(&mut self, t: ThreadId, p: HwPriority);

    /// Current hardware priority of a context.
    fn priority(&self, t: ThreadId) -> HwPriority;

    /// Install a workload on a context (replacing any previous one and
    /// resetting its progress).
    fn assign(&mut self, t: ThreadId, w: Workload);

    /// Remove the workload from a context; the context then retires
    /// nothing until the next [`CoreModel::assign`].
    fn clear(&mut self, t: ThreadId);

    /// Does the context currently have a workload installed?
    fn has_work(&self, t: ThreadId) -> bool;

    /// Advance simulated time by `cycles`; returns the number of
    /// instructions retired by each context during the interval.
    fn advance(&mut self, cycles: Cycles) -> [u64; 2];

    /// Estimated steady-state retire rate (instructions/cycle) of a context
    /// under the *current* priorities and co-runner. Used by the
    /// discrete-event engine to pick step sizes; may be approximate for the
    /// cycle-level model.
    fn retire_rate(&self, t: ThreadId) -> f64;

    /// Identity of the shared-resource domain this core belongs to (e.g.
    /// the address of its shared L2), or `None` when the core touches no
    /// cross-core state and may be advanced concurrently with any other
    /// core. Cores reporting the same group are advanced sequentially, in
    /// index order, on a single worker, each completing its window before
    /// the next starts: the interleaving contract that keeps a shared L2
    /// exact ([`crate::core::SharedCache`]).
    fn share_group(&self) -> Option<usize> {
        None
    }

    /// Cycles needed for context `t` to retire `n` more instructions under
    /// current conditions, or `None` when it makes no progress at all.
    /// Exact for the mesoscale model; an estimate for the cycle model.
    fn cycles_to_retire(&self, t: ThreadId, n: u64) -> Option<Cycles> {
        let r = self.retire_rate(t);
        if r <= 0.0 {
            return None;
        }
        Some((n as f64 / r).ceil() as Cycles)
    }

    /// Can context `t` retire `n` more instructions within `dt` cycles
    /// under current conditions? Returns `false` only when it cannot, so
    /// a caller that needs a completion instant only when it falls within
    /// `dt` may skip [`CoreModel::cycles_to_retire`] on `false`. The
    /// default answers exactly, through `cycles_to_retire`; an override
    /// may answer more cheaply, and may say `true` where the exact answer
    /// is no.
    fn may_retire_within(&self, t: ThreadId, n: u64, dt: Cycles) -> bool {
        self.cycles_to_retire(t, n).is_some_and(|d| d <= dt)
    }

    /// Capture the core's full mutable state as plain data
    /// (checkpointing). Restoring it into a core built from the same
    /// configuration reproduces the simulation bit-identically.
    fn save_state(&self) -> CoreState;

    /// Overwrite the core's mutable state from [`CoreModel::save_state`]
    /// output. Fails (leaving the core in an unspecified but safe state)
    /// when the snapshot's fidelity or shape does not match this core's
    /// configuration.
    fn restore_state(&mut self, s: &CoreState) -> Result<(), String>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_id_other_and_index() {
        assert_eq!(ThreadId::A.other(), ThreadId::B);
        assert_eq!(ThreadId::B.other(), ThreadId::A);
        assert_eq!(ThreadId::A.index(), 0);
        assert_eq!(ThreadId::B.index(), 1);
        for t in ThreadId::BOTH {
            assert_eq!(ThreadId::from_index(t.index()), t);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn thread_id_from_bad_index_panics() {
        let _ = ThreadId::from_index(2);
    }

    #[test]
    fn profile_clamps_inputs() {
        let p = WorkloadProfile::new(-1.0, 2.0, -0.5);
        assert_eq!(p.ipc_st, 0.0);
        assert_eq!(p.unit_pressure, 1.0);
        assert_eq!(p.mem_intensity, 0.0);
    }
}
