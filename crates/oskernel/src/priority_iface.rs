//! The priority-setting interfaces.
//!
//! Two ways exist to change a hardware thread priority (Section V-B):
//!
//! * executing a magic `or X,X,X` no-op — available to unprivileged code
//!   for priorities 2..=4 only;
//! * the paper's `/proc/<pid>/hmt_priority` file (`echo N >
//!   /proc/<pid>/hmt_priority`) — added by the kernel patch, exposing all
//!   OS-settable priorities (1..=6) to user space.
//!
//! A [`PrioritySetting`] is one rank's request; this module validates a
//! requested change against the interface used and the kernel flavour;
//! the [`crate::machine::Machine`] applies validated requests.

use crate::kernel::KernelFlavour;
use mtb_smtsim::{HwPriority, PrivilegeLevel};

/// How one rank's hardware priority is configured for a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrioritySetting {
    /// Leave the kernel default (MEDIUM).
    Default,
    /// Write `/proc/<pid>/hmt_priority` (needs the patched kernel);
    /// valid values 1..=6.
    ProcFs(u8),
    /// Execute the magic or-nop at the given privilege level (works on any
    /// kernel; user space reaches only 2..=4 this way).
    OrNop(u8, PrivilegeLevel),
}

impl PrioritySetting {
    /// Shorthand for the common patched-kernel path.
    pub fn procfs(v: u8) -> PrioritySetting {
        PrioritySetting::ProcFs(v)
    }

    /// The numeric priority this setting requests (4 for `Default`).
    pub fn requested(&self) -> u8 {
        match self {
            PrioritySetting::Default => 4,
            PrioritySetting::ProcFs(v) | PrioritySetting::OrNop(v, _) => *v,
        }
    }

    /// The interface the request goes through (`None` for `Default`,
    /// which requests nothing).
    pub fn via(&self) -> Option<SetVia> {
        match *self {
            PrioritySetting::Default => None,
            PrioritySetting::ProcFs(_) => Some(SetVia::ProcFs),
            PrioritySetting::OrNop(_, privilege) => Some(SetVia::OrNop(privilege)),
        }
    }
}

/// The path a priority-change request takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SetVia {
    /// The magic or-nop instruction executed by the process itself at the
    /// given privilege level.
    OrNop(PrivilegeLevel),
    /// A write to `/proc/<pid>/hmt_priority` (patched kernel only). The
    /// kernel performs the actual write in supervisor state, so user space
    /// may reach priorities 1..=6 this way.
    ProcFs,
}

/// Why a priority request was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PriorityError {
    /// Value above 7.
    OutOfRange,
    /// The requesting privilege level may not set this priority.
    InsufficientPrivilege,
    /// `/proc/<pid>/hmt_priority` does not exist on a vanilla kernel.
    NoProcFs,
    /// No such process.
    NoSuchProcess,
}

impl std::fmt::Display for PriorityError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            PriorityError::OutOfRange => "priority out of range (0..=7)",
            PriorityError::InsufficientPrivilege => "insufficient privilege for this priority",
            PriorityError::NoProcFs => "no /proc hmt_priority interface on this kernel",
            PriorityError::NoSuchProcess => "no such process",
        })
    }
}

impl std::error::Error for PriorityError {}

/// Validate a request to set `value` through `via` on a kernel of the given
/// flavour. Returns the priority to apply.
pub fn validate(
    flavour: KernelFlavour,
    value: u8,
    via: SetVia,
) -> Result<HwPriority, PriorityError> {
    let p = HwPriority::new(value).ok_or(PriorityError::OutOfRange)?;
    match via {
        SetVia::OrNop(privilege) => {
            if p.or_nop_register().is_none() {
                // Priority 0 has no or-nop encoding.
                return Err(PriorityError::InsufficientPrivilege);
            }
            if privilege.can_act_as(p.required_privilege()) {
                Ok(p)
            } else {
                Err(PriorityError::InsufficientPrivilege)
            }
        }
        SetVia::ProcFs => {
            if !flavour.has_procfs_interface() {
                return Err(PriorityError::NoProcFs);
            }
            // The patch exposes "all the priorities available at OS level":
            // 1..=6. 0 and 7 remain hypervisor-only.
            if (1..=6).contains(&value) {
                Ok(p)
            } else {
                Err(PriorityError::InsufficientPrivilege)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn requested_reports_the_value() {
        assert_eq!(PrioritySetting::Default.requested(), 4);
        assert_eq!(PrioritySetting::procfs(6).requested(), 6);
        assert_eq!(
            PrioritySetting::OrNop(2, PrivilegeLevel::User).requested(),
            2
        );
    }

    #[test]
    fn user_ornop_limited_to_2_through_4() {
        let via = SetVia::OrNop(PrivilegeLevel::User);
        for v in [2u8, 3, 4] {
            assert!(
                validate(KernelFlavour::Vanilla, v, via).is_ok(),
                "user sets {v}"
            );
        }
        for v in [0u8, 1, 5, 6, 7] {
            assert!(
                validate(KernelFlavour::Vanilla, v, via).is_err(),
                "user must not set {v}"
            );
        }
    }

    #[test]
    fn supervisor_ornop_reaches_1_through_6() {
        let via = SetVia::OrNop(PrivilegeLevel::Supervisor);
        for v in 1u8..=6 {
            assert!(validate(KernelFlavour::Vanilla, v, via).is_ok());
        }
        assert!(validate(KernelFlavour::Vanilla, 7, via).is_err());
        assert!(
            validate(KernelFlavour::Vanilla, 0, via).is_err(),
            "0 has no or-nop encoding"
        );
    }

    #[test]
    fn hypervisor_ornop_reaches_7_but_not_0() {
        let via = SetVia::OrNop(PrivilegeLevel::Hypervisor);
        assert!(validate(KernelFlavour::Vanilla, 7, via).is_ok());
        assert!(
            validate(KernelFlavour::Vanilla, 0, via).is_err(),
            "no encoding for 0"
        );
    }

    #[test]
    fn procfs_requires_patched_kernel() {
        assert_eq!(
            validate(KernelFlavour::Vanilla, 4, SetVia::ProcFs),
            Err(PriorityError::NoProcFs)
        );
        assert!(validate(KernelFlavour::Patched, 4, SetVia::ProcFs).is_ok());
    }

    #[test]
    fn procfs_spans_1_to_6_only() {
        for v in 1u8..=6 {
            assert!(
                validate(KernelFlavour::Patched, v, SetVia::ProcFs).is_ok(),
                "procfs sets {v}"
            );
        }
        for v in [0u8, 7] {
            assert_eq!(
                validate(KernelFlavour::Patched, v, SetVia::ProcFs),
                Err(PriorityError::InsufficientPrivilege),
                "procfs must not set {v}"
            );
        }
        assert_eq!(
            validate(KernelFlavour::Patched, 9, SetVia::ProcFs),
            Err(PriorityError::OutOfRange)
        );
    }

    proptest! {
        /// Validation never returns a priority different from the request.
        #[test]
        fn prop_validate_returns_requested(v in 0u8..=7) {
            for via in [SetVia::ProcFs, SetVia::OrNop(PrivilegeLevel::Hypervisor)] {
                if let Ok(p) = validate(KernelFlavour::Patched, v, via) {
                    prop_assert_eq!(p.value(), v);
                }
            }
        }
    }
}
