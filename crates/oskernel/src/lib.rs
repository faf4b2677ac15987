//! # mtb-oskernel — the operating-system substrate
//!
//! The paper's proposal is implemented *at OS level*: a patched Linux
//! 2.6.19 kernel that (a) stops interrupt and syscall handlers from
//! resetting the POWER5 hardware thread priority to MEDIUM, and (b)
//! exposes every OS-settable priority to user space through
//! `/proc/<pid>/hmt_priority` (Section VI). This crate models that layer:
//!
//! * [`process`] — process control blocks, hardware-context addressing
//!   and the same-core grouping of a placement.
//! * [`kernel`] — the two kernel flavours: `Vanilla` (stock Linux
//!   behaviour: priorities decay to MEDIUM at the first interrupt) and
//!   `Patched` (the paper's kernel: priorities are preserved).
//! * [`priority_iface`] — the `/proc/<pid>/hmt_priority` write path and the
//!   `or-nop` user path, with Table I privilege enforcement.
//! * [`noise`] — extrinsic-imbalance sources from Section II-B: timer
//!   ticks, skewed device interrupts ("interrupt annoyance"), daemons.
//! * [`machine`] — the full machine: a set of [`mtb_smtsim::CoreModel`]
//!   cores driven under a kernel, with processes pinned to hardware
//!   contexts, noise delivery and progress accounting.

#![forbid(unsafe_code)]

pub mod kernel;
pub mod machine;
pub mod noise;
pub mod priority_iface;
pub mod process;
pub mod topology;

pub use kernel::{KernelConfig, KernelFlavour};
pub use machine::{
    CtxSnapshot, Machine, MachineError, MachineState, Segmentation, WaitPolicy, SHARD_COLLAPSE_CODE,
};
pub use noise::{BoundaryCalendar, NoiseCursor, NoiseError, NoiseSource};
pub use priority_iface::{PriorityError, PrioritySetting, SetVia};
pub use process::{core_groups, core_pairs, CtxAddr, Pcb};
pub use topology::Topology;
