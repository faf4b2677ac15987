//! Applying priority settings. The request type itself,
//! [`PrioritySetting`], lives beside the interface rules that judge it in
//! [`mtb_oskernel::priority_iface`]; it is re-exported here.

pub use mtb_oskernel::PrioritySetting;
use mtb_oskernel::{Machine, PriorityError};

/// Apply one setting per rank (pid = rank). Fails fast on the first
/// rejected request — a rejected priority means the experiment
/// configuration is invalid for this kernel.
pub fn apply_priorities(
    machine: &mut Machine,
    settings: &[PrioritySetting],
) -> Result<(), PriorityError> {
    for (rank, s) in settings.iter().enumerate() {
        match *s {
            PrioritySetting::Default => {}
            PrioritySetting::ProcFs(v) => machine.set_priority_procfs(rank, v)?,
            PrioritySetting::OrNop(v, privilege) => {
                machine.set_priority_ornop(rank, v, privilege)?
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtb_oskernel::{CtxAddr, KernelConfig};
    use mtb_smtsim::chip::build_cores;
    use mtb_smtsim::{HwPriority, PrivilegeLevel};

    fn machine(kernel: KernelConfig) -> Machine {
        let mut m = Machine::new(build_cores(2, false), kernel);
        for r in 0..4 {
            m.spawn(r, format!("P{}", r + 1), CtxAddr::from_cpu(r))
                .unwrap();
        }
        m
    }

    #[test]
    fn settings_apply_in_rank_order() {
        let mut m = machine(KernelConfig::patched());
        apply_priorities(
            &mut m,
            &[
                PrioritySetting::Default,
                PrioritySetting::ProcFs(6),
                PrioritySetting::OrNop(3, PrivilegeLevel::User),
                PrioritySetting::ProcFs(2),
            ],
        )
        .unwrap();
        assert_eq!(m.pcb(0).unwrap().hmt_priority, HwPriority::MEDIUM);
        assert_eq!(m.pcb(1).unwrap().hmt_priority, HwPriority::HIGH);
        assert_eq!(m.pcb(2).unwrap().hmt_priority, HwPriority::MEDIUM_LOW);
        assert_eq!(m.pcb(3).unwrap().hmt_priority, HwPriority::LOW);
    }

    #[test]
    fn procfs_on_vanilla_kernel_is_rejected() {
        let mut m = machine(KernelConfig::vanilla());
        let err = apply_priorities(&mut m, &[PrioritySetting::ProcFs(5)]);
        assert!(err.is_err());
    }
}
