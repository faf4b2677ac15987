//! The simulated machine: cores + kernel + processes + noise.
//!
//! A [`Machine`] owns a set of SMT cores (any [`CoreModel`] fidelity),
//! a process table with 1:1 pinning of processes to hardware contexts
//! (as the paper's experiments pin MPI ranks to CPUs), a kernel flavour
//! governing priority behaviour, and a set of noise sources.
//!
//! Time advances through [`Machine::advance`], or through
//! [`Machine::advance_until`], which also finds when processes finish
//! their compute targets and, on machines without shared-resource
//! domains, walks the noise edges up to that instant inside one call.
//! Each `advance` call is one **epoch**:
//! the interval `[now, now + dt)` is split into share-group shards that
//! step privately — segmenting at their *own* noise boundaries, entering
//! and exiting handler windows for their own contexts, and accumulating
//! per-context deltas into scratch — and the coordinator merges the
//! accounting into the process table at the single merge point at the
//! end. A noise-free epoch stepped sequentially skips the split: each
//! core advances once and its contexts book straight into their PCBs.
//! While a noise window is active on a context, the pinned process
//! is suspended (it retires nothing and accumulates `interrupt_cycles`),
//! and — on a vanilla kernel — the context's hardware priority is
//! clobbered to MEDIUM and *stays there* afterwards, which is precisely
//! why the paper had to patch the kernel (Section VI).

use crate::kernel::KernelConfig;
use crate::noise::{BoundaryCalendar, NoiseError, NoiseSource};
use crate::priority_iface::{validate, PriorityError, SetVia};
use crate::process::{CtxAddr, Pcb, ProcRunState};
use mtb_pool::ShardedRunner;
use mtb_smtsim::model::{CoreModel, Workload};
use mtb_smtsim::pairmodel::spin_workload;
use mtb_smtsim::{HwPriority, PrivilegeLevel, ThreadId};
use mtb_trace::Cycles;

/// Errors from machine-level process management.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MachineError {
    /// pid not in the process table.
    NoSuchProcess,
    /// The target hardware context is already owned by another process.
    ContextBusy,
    /// Core index out of range.
    NoSuchContext,
    /// pid already spawned.
    DuplicatePid,
}

impl std::fmt::Display for MachineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            MachineError::NoSuchProcess => "no such process",
            MachineError::ContextBusy => "hardware context already in use",
            MachineError::NoSuchContext => "no such hardware context",
            MachineError::DuplicatePid => "pid already exists",
        })
    }
}

impl std::error::Error for MachineError {}

/// Plain-data snapshot of one context's OS-level bookkeeping
/// (checkpointing; mirrors the machine's private per-context state).
#[derive(Debug, Clone, PartialEq)]
pub struct CtxSnapshot {
    /// The workload the pinned process wants installed.
    pub installed: Option<Workload>,
    /// Inside a noise window right now?
    pub in_handler: bool,
    /// Do retired instructions count toward progress?
    pub counting: bool,
}

/// Plain-data snapshot of the machine's full mutable state: current time,
/// every core's [`mtb_smtsim::CoreState`], the process table and the
/// context bookkeeping. Static structure — kernel flavour, noise sources,
/// wait policy, runner — is *not* captured; a restore target is built from
/// the same configuration first ([`Machine::restore_state`] validates the
/// shape).
#[derive(Debug, Clone, PartialEq)]
pub struct MachineState {
    /// Simulated time.
    pub now: Cycles,
    /// Per-core model state, in core-index order.
    pub cores: Vec<mtb_smtsim::CoreState>,
    /// Process control blocks, ascending pid.
    pub procs: Vec<Pcb>,
    /// `ctx_owner[core][thread] = pid`.
    pub ctx_owner: Vec<[Option<usize>; 2]>,
    /// Per-context bookkeeping, parallel to `cores`.
    pub ctx_state: Vec<[CtxSnapshot; 2]>,
}

/// Per-context accounting deltas accumulated shard-privately during one
/// epoch and merged into the PCBs by the coordinator at the merge point.
#[derive(Debug, Clone, Copy, Default)]
struct CtxAcct {
    retired: u64,
    busy: Cycles,
    spin: Cycles,
    irq: Cycles,
}

impl CtxAcct {
    fn add(&mut self, d: CtxAcct) {
        self.retired += d.retired;
        self.busy += d.busy;
        self.spin += d.spin;
        self.irq += d.irq;
    }

    /// Fold the deltas into a PCB.
    fn credit(self, pcb: &mut Pcb) {
        pcb.retired += self.retired;
        pcb.busy_cycles += self.busy;
        pcb.spin_cycles += self.spin;
        pcb.interrupt_cycles += self.irq;
    }
}

/// Per-context bookkeeping.
#[derive(Default)]
struct CtxState {
    /// The workload the pinned process wants on this context (kept so it
    /// can be re-installed after an interrupt window).
    installed: Option<Workload>,
    /// Inside a noise window right now?
    in_handler: bool,
    /// Do retired instructions count toward the process's progress?
    /// False while spinning in an MPI wait — the spin loop burns decode
    /// slots but accomplishes nothing.
    counting: bool,
    /// How a segment books into the owner's PCB: [`CtxState::mode_for`]
    /// of the fields above and the owner's run state, refreshed by every
    /// change to either (install, stop, migrate, swap, spawn, handler
    /// flips, restore), so no epoch consults the process table for it.
    mode: CtxMode,
}

impl CtxState {
    /// The accounting decision under the current handler and installation
    /// state, for an owner that does (`Some(true)`) or does not run, or
    /// for no owner (`None`) — the exact branch structure of the
    /// reference walk ([`Shard::advance_epoch_reference`]).
    fn mode_for(&self, owner_running: Option<bool>) -> CtxMode {
        let Some(running) = owner_running else {
            return CtxMode::OFF;
        };
        CtxMode {
            count: self.counting,
            bucket: if self.in_handler && running {
                Bucket::Irq
            } else if self.installed.is_some() {
                if self.counting {
                    Bucket::Busy
                } else {
                    Bucket::Spin
                }
            } else {
                Bucket::Off
            },
        }
    }

    fn refresh(&mut self, owner_running: Option<bool>) {
        self.mode = self.mode_for(owner_running);
    }
}

/// The process table: PCBs in ascending pid order. A lookup indexes
/// directly when the pid equals its position (the engine's ranks are
/// pids `0..n`) and binary-searches otherwise, so no pid value costs
/// more than `O(log n)` or any memory.
#[derive(Default)]
struct ProcTable(Vec<Pcb>);

impl ProcTable {
    fn index(&self, pid: usize) -> Option<usize> {
        match self.0.get(pid) {
            Some(p) if p.pid == pid => Some(pid),
            _ => self.0.binary_search_by_key(&pid, |p| p.pid).ok(),
        }
    }

    fn get(&self, pid: usize) -> Option<&Pcb> {
        self.index(pid).map(|i| &self.0[i])
    }

    fn get_mut(&mut self, pid: usize) -> Option<&mut Pcb> {
        let i = self.index(pid)?;
        Some(&mut self.0[i])
    }

    fn contains(&self, pid: usize) -> bool {
        self.index(pid).is_some()
    }

    /// Insert in pid order; false (and no change) when the pid exists.
    fn insert(&mut self, pcb: Pcb) -> bool {
        match self.0.binary_search_by_key(&pcb.pid, |p| p.pid) {
            Ok(_) => false,
            Err(i) => {
                self.0.insert(i, pcb);
                true
            }
        }
    }

    /// Does the process run? `None` when the context has no owner; the
    /// argument [`CtxState::refresh`] takes.
    fn owner_running(&self, owner: Option<usize>) -> Option<bool> {
        owner.map(|pid| {
            self.get(pid)
                .is_some_and(|p| p.state == ProcRunState::Running)
        })
    }
}

/// What a process does while blocked in an MPI call (Section VI's
/// discussion): stock MPICH spins at whatever priority the process has;
/// a cooperative library would lower the priority first; a
/// kernel-assisted implementation blocks, letting the context idle at
/// VERY LOW (full leftover donation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WaitPolicy {
    /// Busy-wait at the process's own priority (stock MPICH — the
    /// behaviour the paper's experiments are built on).
    #[default]
    SpinOwn,
    /// Busy-wait, but drop the hardware priority to the given level
    /// first (the paper's Section-VI recommendation; user space may
    /// reach 2..=4 via the or-nop).
    SpinAt(u8),
    /// Block in the kernel: the context idles at VERY LOW and donates
    /// its whole decode bandwidth (leftover mode).
    Block,
}

/// How [`Machine::advance`] segments an epoch at noise boundaries. Both
/// strategies produce bit-identical observable results (state snapshots,
/// accounting, record hashes) — the knob exists so the differential
/// suites and benchmarks can pit one against the other. Like the thread
/// count, it is excluded from configuration hashes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Segmentation {
    /// Event-calendar stepping (the default): per-source boundary
    /// cursors merged through a binary heap make boundary discovery
    /// O(log sources) and handler sync a targeted flip. A core that owns
    /// its conflict domain outright segments only where its own two
    /// contexts' *aggregate* handler state actually flips, so overlapped
    /// noise windows and foreign boundaries no longer chop its
    /// `CoreModel::advance` windows; cores sharing an L2 keep exact cut
    /// parity with the reference so the cross-core cache-access
    /// interleaving contract is preserved. On a machine where no core
    /// shares an L2, [`Machine::advance_until`] walks noise edges on
    /// these calendars inside one call.
    #[default]
    Calendar,
    /// The original implementation: every segment pays an O(sources)
    /// linear scan for the next boundary and an O(contexts × sources)
    /// scan to sync handler state. Under it, [`Machine::advance_until`]
    /// never walks noise: every noise boundary ends a step, which is the
    /// event trajectory the engine had before the walk existed. Kept as
    /// the differential reference for both the calendar epochs and the
    /// walk.
    Reference,
}

/// The simulated machine.
///
/// ```
/// use mtb_oskernel::{CtxAddr, KernelConfig, Machine};
/// use mtb_smtsim::chip::build_cores;
/// use mtb_smtsim::model::Workload;
/// use mtb_smtsim::StreamSpec;
///
/// let mut m = Machine::new(build_cores(2, false), KernelConfig::patched());
/// m.spawn(0, "P1", CtxAddr::from_cpu(0)).unwrap();
/// m.run_workload(0, Workload::from_spec("w", StreamSpec::balanced(1))).unwrap();
/// m.set_priority_procfs(0, 6).unwrap();   // the paper's /proc interface
/// m.advance(10_000);
/// assert!(m.retired(0) > 0);
/// ```
pub struct Machine {
    cores: Vec<Box<dyn CoreModel>>,
    kernel: KernelConfig,
    procs: ProcTable,
    /// `ctx_owner[core][thread] = pid`.
    ctx_owner: Vec<[Option<usize>; 2]>,
    ctx_state: Vec<[CtxState; 2]>,
    noise: Vec<NoiseSource>,
    /// `noise_index[core]` = indices into `noise` targeting that core,
    /// in registration order (the calendar path's per-core source list).
    noise_index: Vec<Vec<u32>>,
    wait_policy: WaitPolicy,
    now: Cycles,
    /// Epoch runner for sharded core stepping (None = sequential).
    runner: Option<ShardedRunner>,
    /// Epoch segmentation strategy (not part of the observable
    /// configuration — results are identical either way).
    segmentation: Segmentation,
    /// Reused per-context accounting buffer for [`Machine::advance`].
    acct_scratch: Vec<[CtxAcct; 2]>,
    /// One calendar slot per core; a conflict domain uses the slot of its
    /// first core (see [`DomainCalendar`]).
    domains: Vec<DomainCalendar>,
    /// Shard fence posts from [`Machine::shard_plan`], computed once in
    /// [`Machine::new`]: the plan depends only on the cores' share groups,
    /// which are fixed at construction (`restore_state` writes core
    /// state, not L2 domains).
    shard_bounds: Vec<usize>,
    /// Did a non-contiguous share-group layout collapse the plan to one
    /// shard?
    shard_collapsed: bool,
    /// No core reports a share group (every meso machine), so
    /// [`Machine::advance_until`] may walk noise edges core by core.
    unshared: bool,
    /// Per-core scratch of that walk, sized by the first walk (a
    /// machine that never walks never allocates it).
    walk: Vec<CoreWalk>,
    /// The MPI busy-wait loop ([`spin_workload`]), built once and cloned
    /// into every wait.
    spin: Workload,
}

/// The stable diagnostic code emitted when a non-contiguous share-group
/// layout collapses sharded stepping to a single shard. The same string
/// is published as `mtb_verify::diag::codes::SHARD_COLLAPSE` (the two are
/// asserted equal by a bench test); it lives here too because `mtb-verify`
/// depends on this crate, not the other way around.
pub const SHARD_COLLAPSE_CODE: &str = "MTB-SHARD-COLLAPSE";

impl Machine {
    /// Build a machine over the given cores and kernel.
    pub fn new(cores: Vec<Box<dyn CoreModel>>, kernel: KernelConfig) -> Machine {
        let n = cores.len();
        let (shard_bounds, shard_collapsed) = Self::shard_plan(&cores);
        let unshared = cores.iter().all(|c| c.share_group().is_none());
        let mut m = Machine {
            cores,
            kernel,
            procs: ProcTable::default(),
            ctx_owner: (0..n).map(|_| [None, None]).collect(),
            ctx_state: (0..n)
                .map(|_| [CtxState::default(), CtxState::default()])
                .collect(),
            noise: Vec::new(),
            noise_index: (0..n).map(|_| Vec::new()).collect(),
            wait_policy: WaitPolicy::default(),
            now: 0,
            runner: None,
            segmentation: Segmentation::default(),
            acct_scratch: Vec::with_capacity(n),
            domains: (0..n).map(|_| DomainCalendar::default()).collect(),
            shard_bounds,
            shard_collapsed,
            unshared,
            walk: Vec::new(),
            spin: spin_workload(),
        };
        // Idle contexts start at the kernel's idle priority so they donate
        // their decode bandwidth (Section VI-A case 3).
        for c in 0..n {
            for t in ThreadId::BOTH {
                m.cores[c].set_priority(t, m.kernel.idle_priority);
            }
        }
        m
    }

    /// Current simulated time.
    pub fn now(&self) -> Cycles {
        self.now
    }

    /// Request `threads` executors for epoch stepping, drawing per-epoch
    /// permits from the global budget (1 = sequential, drop any runner).
    /// Results are bit-identical at any setting — see [`Machine::advance`].
    pub fn set_parallelism(&mut self, threads: usize) {
        self.runner = (threads > 1).then(|| ShardedRunner::new(threads));
    }

    /// As [`Machine::set_parallelism`] but with an explicit runner (tests
    /// with private budgets).
    pub fn set_runner(&mut self, runner: Option<ShardedRunner>) {
        self.runner = runner;
    }

    /// The kernel configuration in force.
    pub fn kernel(&self) -> &KernelConfig {
        &self.kernel
    }

    /// Number of hardware contexts (2 per core).
    pub fn num_contexts(&self) -> usize {
        self.cores.len() * 2
    }

    /// Register a noise source, or say why it cannot be simulated: its
    /// target core must exist, and a periodic source's cost must fit in
    /// its period (a one-shot source never consults its period).
    pub fn try_add_noise(&mut self, src: NoiseSource) -> Result<(), NoiseError> {
        let cores = self.cores.len();
        if src.target.core >= cores {
            return Err(NoiseError::TargetOutOfRange {
                core: src.target.core,
                cores,
            });
        }
        if !src.one_shot && src.cost >= src.period {
            return Err(NoiseError::CostFillsPeriod {
                cost: src.cost,
                period: src.period,
            });
        }
        self.noise_index[src.target.core].push(self.noise.len() as u32);
        self.noise.push(src);
        self.reset_calendars();
        Ok(())
    }

    /// Make every conflict domain rebuild its calendar at its next
    /// calendar epoch (see [`DomainCalendar`] for who calls this and why).
    fn reset_calendars(&mut self) {
        for d in &mut self.domains {
            d.at = None;
        }
    }

    /// Register a noise source. Panicking wrapper around
    /// [`Machine::try_add_noise`].
    ///
    /// # Panics
    /// Panics (with the [`NoiseError`] display text) on a source
    /// [`Machine::try_add_noise`] refuses.
    pub fn add_noise(&mut self, src: NoiseSource) {
        self.try_add_noise(src).unwrap_or_else(|e| panic!("{e}"));
    }

    /// Choose how [`Machine::advance`] segments epochs (see
    /// [`Segmentation`]; results are bit-identical either way).
    pub fn set_segmentation(&mut self, s: Segmentation) {
        self.segmentation = s;
        self.reset_calendars();
    }

    /// The segmentation strategy in force.
    pub fn segmentation(&self) -> Segmentation {
        self.segmentation
    }

    /// Create a process pinned to `affinity`.
    pub fn spawn(
        &mut self,
        pid: usize,
        name: impl Into<String>,
        affinity: CtxAddr,
    ) -> Result<(), MachineError> {
        if affinity.core >= self.cores.len() {
            return Err(MachineError::NoSuchContext);
        }
        if self.procs.contains(pid) {
            return Err(MachineError::DuplicatePid);
        }
        let (core, ti) = (affinity.core, affinity.thread.index());
        if self.ctx_owner[core][ti].is_some() {
            return Err(MachineError::ContextBusy);
        }
        self.ctx_owner[core][ti] = Some(pid);
        let pcb = Pcb::new(pid, name, affinity);
        let running = pcb.state == ProcRunState::Running;
        self.procs.insert(pcb);
        self.ctx_state[core][ti].refresh(Some(running));
        Ok(())
    }

    /// The process control block for `pid`.
    pub fn pcb(&self, pid: usize) -> Option<&Pcb> {
        self.procs.get(pid)
    }

    /// All pids, ascending.
    pub fn pids(&self) -> Vec<usize> {
        self.procs.0.iter().map(|p| p.pid).collect()
    }

    /// Total instructions retired on behalf of `pid`.
    pub fn retired(&self, pid: usize) -> u64 {
        self.procs.get(pid).map_or(0, |p| p.retired)
    }

    /// The hardware priority currently carried by a context (what the
    /// silicon sees — possibly clobbered by a vanilla kernel, unlike the
    /// PCB's configured wish).
    pub fn hw_priority(&self, addr: CtxAddr) -> HwPriority {
        self.cores[addr.core].priority(addr.thread)
    }

    /// Set a process's priority through `/proc/<pid>/hmt_priority`
    /// (patched kernels only).
    pub fn set_priority_procfs(&mut self, pid: usize, value: u8) -> Result<(), PriorityError> {
        let p = validate(self.kernel.flavour, value, SetVia::ProcFs)?;
        self.apply_wish(pid, p)
    }

    /// Set a process's priority by executing the magic or-nop at the given
    /// privilege level (works on any kernel).
    pub fn set_priority_ornop(
        &mut self,
        pid: usize,
        value: u8,
        privilege: PrivilegeLevel,
    ) -> Result<(), PriorityError> {
        let p = validate(self.kernel.flavour, value, SetVia::OrNop(privilege))?;
        self.apply_wish(pid, p)
    }

    fn apply_wish(&mut self, pid: usize, p: HwPriority) -> Result<(), PriorityError> {
        let pcb = self
            .procs
            .get_mut(pid)
            .ok_or(PriorityError::NoSuchProcess)?;
        pcb.hmt_priority = p;
        let addr = pcb.affinity;
        let running = pcb.state == ProcRunState::Running;
        let in_handler = self.ctx_state[addr.core][addr.thread.index()].in_handler;
        if running && !in_handler {
            self.cores[addr.core].set_priority(addr.thread, p);
        }
        Ok(())
    }

    /// Give `pid` work: it starts consuming cycles on its context at its
    /// configured priority.
    pub fn run_workload(&mut self, pid: usize, w: Workload) -> Result<(), MachineError> {
        self.install(pid, w, true)
    }

    /// Set how processes wait in MPI calls (see [`WaitPolicy`]).
    pub fn set_wait_policy(&mut self, p: WaitPolicy) {
        self.wait_policy = p;
    }

    /// The wait policy in force.
    pub fn wait_policy(&self) -> WaitPolicy {
        self.wait_policy
    }

    /// Put `pid` into an MPI wait, per the machine's [`WaitPolicy`]:
    /// spinning occupies the context (no useful retirement); blocking
    /// idles it.
    pub fn enter_wait(&mut self, pid: usize) -> Result<(), MachineError> {
        match self.wait_policy {
            WaitPolicy::SpinOwn => self.spin(pid),
            WaitPolicy::SpinAt(level) => {
                self.install(pid, self.spin.clone(), false)?;
                // Drop the *hardware* priority for the wait without
                // touching the PCB's configured wish (the next
                // run_workload re-applies the wish). The MPI library runs
                // in user space, so the change goes through the or-nop
                // privilege rules — levels outside 2..=4 are silently
                // ignored, leaving a plain spin.
                if let Ok(p) = validate(
                    self.kernel.flavour,
                    level,
                    SetVia::OrNop(PrivilegeLevel::User),
                ) {
                    let addr = self.procs.get(pid).expect("installed above").affinity;
                    if !self.ctx_state[addr.core][addr.thread.index()].in_handler {
                        self.cores[addr.core].set_priority(addr.thread, p);
                    }
                }
                Ok(())
            }
            WaitPolicy::Block => self.block(pid),
        }
    }

    /// Put `pid` into an MPI busy-wait: the context keeps running (a spin
    /// loop at the process's priority, consuming its decode share) but no
    /// retired instructions count toward the process's progress. This is
    /// how MPICH blocking calls behave without kernel assistance.
    pub fn spin(&mut self, pid: usize) -> Result<(), MachineError> {
        self.install(pid, self.spin.clone(), false)
    }

    fn install(&mut self, pid: usize, w: Workload, counting: bool) -> Result<(), MachineError> {
        let pcb = self.procs.get_mut(pid).ok_or(MachineError::NoSuchProcess)?;
        pcb.state = ProcRunState::Running;
        let addr = pcb.affinity;
        let wish = pcb.hmt_priority;
        let st = &mut self.ctx_state[addr.core][addr.thread.index()];
        st.installed = Some(w.clone());
        st.counting = counting;
        st.refresh(Some(true));
        if !st.in_handler {
            self.cores[addr.core].assign(addr.thread, w);
            self.cores[addr.core].set_priority(addr.thread, wish);
        }
        Ok(())
    }

    /// Block `pid` (it waits at a synchronization point): its context goes
    /// idle and drops to the kernel's idle priority, donating decode
    /// bandwidth to the sibling.
    pub fn block(&mut self, pid: usize) -> Result<(), MachineError> {
        self.stop(pid, ProcRunState::Blocked)
    }

    /// Terminate `pid`.
    pub fn exit(&mut self, pid: usize) -> Result<(), MachineError> {
        self.stop(pid, ProcRunState::Exited)
    }

    fn stop(&mut self, pid: usize, state: ProcRunState) -> Result<(), MachineError> {
        let pcb = self.procs.get_mut(pid).ok_or(MachineError::NoSuchProcess)?;
        pcb.state = state;
        let addr = pcb.affinity;
        let st = &mut self.ctx_state[addr.core][addr.thread.index()];
        st.installed = None;
        st.counting = false;
        st.refresh(Some(false));
        if !st.in_handler {
            self.cores[addr.core].clear(addr.thread);
            self.cores[addr.core].set_priority(addr.thread, self.kernel.idle_priority);
        }
        Ok(())
    }

    /// Detach `pid` from its context: the context goes idle (keeping its
    /// in-handler flag, which belongs to the context, not the process) and
    /// the process's installed workload/counting state is returned.
    fn detach(&mut self, pid: usize) -> (CtxAddr, Option<Workload>, bool) {
        let from = self.procs.get(pid).expect("pid exists").affinity;
        let (fi, ft) = (from.core, from.thread.index());
        self.ctx_owner[fi][ft] = None;
        let st = &mut self.ctx_state[fi][ft];
        let installed = st.installed.take();
        let counting = st.counting;
        st.counting = false;
        st.refresh(None);
        if !st.in_handler {
            self.cores[fi].clear(from.thread);
            self.cores[fi].set_priority(from.thread, self.kernel.idle_priority);
        }
        (from, installed, counting)
    }

    /// Attach `pid` (previously detached) to a free context.
    fn attach(&mut self, pid: usize, to: CtxAddr, installed: Option<Workload>, counting: bool) {
        debug_assert!(self.ctx_owner[to.core][to.thread.index()].is_none());
        self.ctx_owner[to.core][to.thread.index()] = Some(pid);
        let pcb = self.procs.get_mut(pid).expect("pid exists");
        pcb.affinity = to;
        let wish = pcb.hmt_priority;
        let running = pcb.state == ProcRunState::Running;
        let dst = &mut self.ctx_state[to.core][to.thread.index()];
        dst.installed = installed;
        dst.counting = counting;
        dst.refresh(Some(running));
        if !dst.in_handler {
            match (dst.installed.clone(), running) {
                (Some(w), true) => {
                    self.cores[to.core].assign(to.thread, w);
                    self.cores[to.core].set_priority(to.thread, wish);
                }
                _ => {
                    self.cores[to.core].clear(to.thread);
                    self.cores[to.core].set_priority(to.thread, self.kernel.idle_priority);
                }
            }
        }
    }

    /// Migrate `pid` to a different hardware context (it must be free).
    /// The process's workload, progress accounting and priority wish move
    /// with it; its old context drops to the idle priority. This is the
    /// mechanism an adaptive mapper uses to re-pair ranks at run time.
    pub fn migrate(&mut self, pid: usize, to: CtxAddr) -> Result<(), MachineError> {
        if to.core >= self.cores.len() {
            return Err(MachineError::NoSuchContext);
        }
        let Some(pcb) = self.procs.get(pid) else {
            return Err(MachineError::NoSuchProcess);
        };
        if pcb.affinity == to {
            return Ok(());
        }
        if self.ctx_owner[to.core][to.thread.index()].is_some() {
            return Err(MachineError::ContextBusy);
        }
        let (_, installed, counting) = self.detach(pid);
        self.attach(pid, to, installed, counting);
        Ok(())
    }

    /// Swap the contexts of two processes (atomic pairwise migration).
    pub fn swap(&mut self, pid_a: usize, pid_b: usize) -> Result<(), MachineError> {
        if !self.procs.contains(pid_a) || !self.procs.contains(pid_b) {
            return Err(MachineError::NoSuchProcess);
        }
        if pid_a == pid_b {
            return Ok(());
        }
        let (addr_a, inst_a, count_a) = self.detach(pid_a);
        let (addr_b, inst_b, count_b) = self.detach(pid_b);
        self.attach(pid_b, addr_a, inst_b, count_b);
        self.attach(pid_a, addr_b, inst_a, count_a);
        Ok(())
    }

    /// Steady-state estimate of cycles for `pid` to retire `n` more
    /// instructions under the machine's current state, ignoring future
    /// noise windows; `None` while the process is not running, sits in a
    /// handler window or spins. [`Machine::advance_until`] asks this of
    /// every target at each step it does not walk itself; its noise walk
    /// asks the cores directly, and only for instants that can come
    /// before a core's next noise edge.
    pub fn cycles_to_retire(&self, pid: usize, n: u64) -> Option<Cycles> {
        let pcb = self.procs.get(pid)?;
        if pcb.state != ProcRunState::Running {
            return None;
        }
        let addr = pcb.affinity;
        let st = &self.ctx_state[addr.core][addr.thread.index()];
        if st.in_handler || !st.counting {
            return None;
        }
        self.cores[addr.core].cycles_to_retire(addr.thread, n)
    }

    /// Machine-wide CPU-time split so far: (busy, spin, interrupt) cycles
    /// summed over every process. Together with `now() * num_contexts()`
    /// this gives the utilization picture the energy model and the
    /// balancing reports use.
    pub fn cpu_time_split(&self) -> (Cycles, Cycles, Cycles) {
        let mut busy = 0;
        let mut spin = 0;
        let mut irq = 0;
        for p in &self.procs.0 {
            busy += p.busy_cycles;
            spin += p.spin_cycles;
            irq += p.interrupt_cycles;
        }
        (busy, spin, irq)
    }

    /// The next time strictly after `t` at which some noise source
    /// changes state, if any source still has one.
    pub fn next_boundary(&self, t: Cycles) -> Option<Cycles> {
        self.noise.iter().filter_map(|s| s.next_boundary(t)).min()
    }

    /// Advance to the first of: `bound` cycles from now (the caller's
    /// next event), the instant a process in `targets` reaches its
    /// retired-instruction target, or `limit` cycles from now. Each
    /// target is `(pid, retired target)`; the return value is the number
    /// of cycles advanced. Returns `None` without advancing when the step
    /// would have no end: there is no bound, and either no target at all
    /// (noise alone never ends a wait) or no target with a completion
    /// time and no noise edge ahead.
    ///
    /// How noise edges are crossed depends on the machine:
    ///
    /// * **No shared-resource domain** (every meso machine) with noise,
    ///   under [`Segmentation::Calendar`]: one call walks every noise
    ///   edge before the stop, core by core in time order, applying
    ///   handler flips where they fall. After a flip only the targets on
    ///   the flipped core are predicted again (both of its contexts: a
    ///   sibling's handler changes the other context's rate); the other
    ///   cores' predictions still hold, because their configuration did
    ///   not change and their `CoreModel::advance` is split-invariant. A
    ///   target's completion instant is computed only when
    ///   [`CoreModel::may_retire_within`] says it can fall by its core's
    ///   next noise edge (or the step's end); otherwise the walk looks
    ///   again when it reaches that edge, where a flip predicts it anew
    ///   and an edge that flips nothing leaves the same question with a
    ///   later edge. A flip falling on the stop instant is applied
    ///   before returning, as [`Machine::advance`] applies flips at its
    ///   epoch end. The walk steps sequentially, whatever the runner.
    /// * **Anything else** — shared-L2 (cycle) machines,
    ///   [`Segmentation::Reference`], noise-free machines: one
    ///   [`Machine::advance`] epoch, bounded by [`Machine::next_boundary`]
    ///   and the targets' current [`Machine::cycles_to_retire`]. A noise
    ///   edge then ends the step, and the caller calls again.
    ///
    /// Both shapes visit the same machine states at every instant where a
    /// target completes or the bound falls, so the caller's trajectory is
    /// the same; the walk only stops less often. Without a runner, a
    /// call allocates nothing once the machine is warm.
    pub fn advance_until(
        &mut self,
        bound: Option<Cycles>,
        limit: Cycles,
        targets: &[(usize, u64)],
    ) -> Option<Cycles> {
        if bound.is_none() && targets.is_empty() {
            return None;
        }
        let limit = limit.max(1);
        if self.unshared && !self.noise.is_empty() && self.segmentation == Segmentation::Calendar {
            return self.walk(bound, limit, targets);
        }
        let mut next = bound;
        let mut consider = |dt: Cycles| next = Some(next.map_or(dt, |n| n.min(dt)));
        for &(pid, goal) in targets {
            let remaining = goal.saturating_sub(self.retired(pid));
            if remaining == 0 {
                consider(1);
            } else if let Some(dt) = self.cycles_to_retire(pid, remaining) {
                consider(dt);
            }
        }
        if let Some(b) = self.next_boundary(self.now) {
            consider(b - self.now);
        }
        let dt = next?.clamp(1, limit);
        self.advance(dt);
        Some(dt)
    }

    /// The noise walk of [`Machine::advance_until`]: the whole machine as
    /// one shard of single-core conflict domains.
    fn walk(
        &mut self,
        bound: Option<Cycles>,
        limit: Cycles,
        targets: &[(usize, u64)],
    ) -> Option<Cycles> {
        self.walk.resize(self.cores.len(), CoreWalk::default());
        for w in &mut self.walk {
            w.goal = [None; 2];
        }
        for &(pid, goal) in targets {
            if let Some(pcb) = self.procs.get(pid) {
                let a = pcb.affinity;
                self.walk[a.core].goal[a.thread.index()] = Some(goal);
            }
        }
        let start = self.now;
        let mode = self.segmentation;
        let Machine {
            cores,
            kernel,
            procs,
            ctx_owner,
            ctx_state,
            noise,
            noise_index,
            acct_scratch,
            domains,
            walk,
            ..
        } = self;
        acct_scratch.clear();
        acct_scratch.resize(cores.len(), [CtxAcct::default(); 2]);
        let mut shard = Shard {
            base: 0,
            cores,
            ctx_state,
            acct: acct_scratch,
            domains,
            ctx_owner,
            procs,
            noise,
            noise_index,
            kernel,
            mode,
        };
        let end = start + bound.map_or(limit, |b| b.clamp(1, limit));
        let stop = shard.walk(walk, start, end, bound.is_some())?;
        self.fold_accounting();
        self.now = stop;
        Some(stop - start)
    }

    /// Advance simulated time by `dt` cycles, delivering noise windows and
    /// accumulating per-process progress.
    ///
    /// The interval is one **epoch**: `end = now + dt` is a deterministic
    /// merge point fixed before any core moves (the caller — the event
    /// engine — derives `dt` from pending events, the kernel quantum, or
    /// a checkpoint boundary, none of which a core can change mid-epoch).
    /// Cores are grouped into shards by [`CoreModel::share_group`]
    /// (shared-resource domains stay together), and each shard steps
    /// privately through the whole epoch — segmenting at the noise
    /// boundaries of *its own* contexts, flipping its own handler state,
    /// and accumulating per-context deltas into its own scratch slice.
    /// At the merge point the coordinator folds the deltas into the
    /// process table in core order.
    ///
    /// Shards never read or write another shard's state, and the shard
    /// plan depends only on the core topology — never on the thread
    /// count — so the result is bit-identical at any parallelism. The
    /// sequential path steps the same shards in index order, except on a
    /// quiet epoch — no noise source, no open handler window, calendar
    /// segmentation — where it skips the split: each core advances once by
    /// `dt`, in index order, and each owned context books its delta into
    /// its PCB under its cached accounting mode. That is what every
    /// shard's quiet domain does, minus the scratch: the deltas are sums
    /// of integers, so adding them in place instead of at the merge point
    /// changes no bit. The plan is computed once, in [`Machine::new`].
    /// With a runner attached ([`Machine::set_parallelism`]) the whole
    /// epoch costs one dispatch and one merge wait, however many noise
    /// segments it contains. Without one, an epoch allocates nothing once
    /// the machine is warm: every conflict domain keeps its noise calendar
    /// and scratch across epochs (see `DomainCalendar`).
    pub fn advance(&mut self, dt: Cycles) {
        let start = self.now;
        let end = start + dt;
        let use_runner =
            matches!(&self.runner, Some(r) if r.threads() > 1) && self.shard_bounds.len() > 2;
        if !use_runner && self.quiet() {
            self.advance_quiet(dt);
        } else {
            self.advance_shards(start, end, use_runner);
            self.fold_accounting();
        }
        self.now = end;
    }

    /// Can the next epoch take the quiet path of [`Machine::advance`]? No
    /// noise source can cut it or flip a handler, and no handler window is
    /// left to close (one restored from a noisy snapshot would be).
    /// [`Segmentation::Reference`] keeps its per-segment walk regardless:
    /// it is the oracle of this path.
    fn quiet(&self) -> bool {
        self.noise.is_empty()
            && self.segmentation == Segmentation::Calendar
            && !self.ctx_state.iter().flatten().any(|s| s.in_handler)
    }

    /// The quiet epoch of [`Machine::advance`]: one `CoreModel::advance`
    /// per core, booked straight into the owners' PCBs.
    fn advance_quiet(&mut self, dt: Cycles) {
        let Machine {
            cores,
            procs,
            ctx_owner,
            ctx_state,
            ..
        } = self;
        for ((core, owners), states) in cores.iter_mut().zip(ctx_owner.iter()).zip(ctx_state.iter())
        {
            let retired = core.advance(dt);
            for ti in 0..2 {
                let Some(pid) = owners[ti] else {
                    continue;
                };
                let pcb = procs.get_mut(pid).expect("owner pid exists");
                let st = &states[ti];
                debug_assert_eq!(
                    st.mode,
                    st.mode_for(Some(pcb.state == ProcRunState::Running)),
                    "stale accounting mode"
                );
                st.mode.delta(retired[ti], dt).credit(pcb);
            }
        }
    }

    /// Step every shard from `start` to `end`, on the runner or in index
    /// order, accumulating into `acct_scratch`.
    fn advance_shards(&mut self, start: Cycles, end: Cycles, use_runner: bool) {
        let mode = self.segmentation;
        let Machine {
            cores,
            kernel,
            procs,
            ctx_owner,
            ctx_state,
            noise,
            noise_index,
            runner,
            acct_scratch,
            domains,
            shard_bounds: bounds,
            ..
        } = self;
        acct_scratch.clear();
        acct_scratch.resize(cores.len(), [CtxAcct::default(); 2]);
        let (procs, noise, noise_index, kernel) = (&*procs, &noise[..], &noise_index[..], &*kernel);
        let mut shards = bounds.windows(2).scan(
            (
                &mut cores[..],
                &mut ctx_state[..],
                &mut acct_scratch[..],
                &mut domains[..],
                &ctx_owner[..],
            ),
            |(cs, ss, accts, doms, owners), w| {
                let len = w[1] - w[0];
                let (ch, cr) = std::mem::take(cs).split_at_mut(len);
                let (sh, sr) = std::mem::take(ss).split_at_mut(len);
                let (ah, ar) = std::mem::take(accts).split_at_mut(len);
                let (dh, dr) = std::mem::take(doms).split_at_mut(len);
                let (oh, or) = owners.split_at(len);
                (*cs, *ss, *accts, *doms, *owners) = (cr, sr, ar, dr, or);
                Some(Shard {
                    base: w[0],
                    cores: ch,
                    ctx_state: sh,
                    acct: ah,
                    domains: dh,
                    ctx_owner: oh,
                    procs,
                    noise,
                    noise_index,
                    kernel,
                    mode,
                })
            },
        );
        if use_runner {
            let runner = runner.as_mut().expect("checked by the caller");
            let shards: Vec<Shard<'_>> = shards.collect();
            runner.run_epoch(shards, |_, mut shard| shard.advance_epoch(start, end));
        } else {
            for mut shard in &mut shards {
                shard.advance_epoch(start, end);
            }
        }
    }

    /// The merge point: fold the per-context deltas of the step just taken
    /// into the PCBs, in core order (deterministic regardless of how the
    /// step was scheduled).
    fn fold_accounting(&mut self) {
        for (owners, pair) in self.ctx_owner.iter().zip(&self.acct_scratch) {
            for (owner, a) in owners.iter().zip(pair) {
                if let Some(pid) = *owner {
                    a.credit(self.procs.get_mut(pid).expect("owner pid exists"));
                }
            }
        }
    }

    /// The shard plan: boundaries (as a fencepost list `[0, ..., n]`)
    /// grouping consecutive cores of the same share group, plus whether a
    /// non-contiguous share group forced a collapse to one machine-wide
    /// shard (correctness over speed). The plan depends only on the core
    /// topology, never on the thread count, so [`Machine::new`] computes
    /// it once and [`Machine::advance`] reads the stored copy.
    fn shard_plan(cores: &[Box<dyn CoreModel>]) -> (Vec<usize>, bool) {
        let mut bounds = vec![0];
        let mut seen: Vec<usize> = Vec::new();
        for i in 1..cores.len() {
            let prev = cores[i - 1].share_group();
            let cur = cores[i].share_group();
            if cur.is_none() || cur != prev {
                if let Some(g) = prev {
                    seen.push(g);
                }
                if let Some(g) = cur {
                    if seen.contains(&g) {
                        return (vec![0, cores.len()], true);
                    }
                }
                bounds.push(i);
            }
        }
        bounds.push(cores.len());
        (bounds, false)
    }

    /// True when a non-contiguous share-group layout forces
    /// [`Machine::advance`] to run as one shard, so intra-run threads buy
    /// nothing. A property of the core topology alone — independent of
    /// whether a runner is attached or how many threads it has.
    pub fn sharding_degraded(&self) -> bool {
        self.shard_collapsed
    }

    /// Structured notes about this machine's runtime configuration,
    /// suitable for embedding in a run record. Currently the only note is
    /// [`SHARD_COLLAPSE_CODE`]. Derived from topology alone, so the notes
    /// are identical at every thread count and safe to hash.
    pub fn runtime_notes(&self) -> Vec<String> {
        let mut notes = Vec::new();
        if self.sharding_degraded() {
            notes.push(format!(
                "{SHARD_COLLAPSE_CODE}: non-contiguous share groups collapse sharded \
                 stepping to one shard; --jobs cannot speed this run up"
            ));
        }
        notes
    }

    /// Capture the machine's full mutable state (checkpointing). Restoring
    /// it into a machine built from the same configuration reproduces the
    /// simulation bit-identically.
    pub fn save_state(&self) -> MachineState {
        MachineState {
            now: self.now,
            cores: self.cores.iter().map(|c| c.save_state()).collect(),
            procs: self.procs.0.clone(),
            ctx_owner: self.ctx_owner.clone(),
            ctx_state: self
                .ctx_state
                .iter()
                .map(|pair| {
                    [0, 1].map(|i| CtxSnapshot {
                        installed: pair[i].installed.clone(),
                        in_handler: pair[i].in_handler,
                        counting: pair[i].counting,
                    })
                })
                .collect(),
        }
    }

    /// Overwrite the machine's mutable state from [`Machine::save_state`]
    /// output. Fails (leaving the machine in an unspecified but safe
    /// state) when the snapshot does not match this machine's shape —
    /// core count, core fidelity, context addressing.
    pub fn restore_state(&mut self, s: &MachineState) -> Result<(), String> {
        let n = self.cores.len();
        if s.cores.len() != n || s.ctx_owner.len() != n || s.ctx_state.len() != n {
            return Err(format!(
                "snapshot has {}/{}/{} cores, machine has {n}",
                s.cores.len(),
                s.ctx_owner.len(),
                s.ctx_state.len()
            ));
        }
        let mut procs = ProcTable::default();
        for pcb in &s.procs {
            if pcb.affinity.core >= n {
                return Err(format!(
                    "pid {} pinned to core {} of a {n}-core machine",
                    pcb.pid, pcb.affinity.core
                ));
            }
            if !procs.insert(pcb.clone()) {
                return Err(format!("duplicate pid {} in snapshot", pcb.pid));
            }
        }
        for owners in &s.ctx_owner {
            for &pid in owners.iter().flatten() {
                if !procs.contains(pid) {
                    return Err(format!("context owner pid {pid} not in process table"));
                }
            }
        }
        for (core, cs) in self.cores.iter_mut().zip(&s.cores) {
            core.restore_state(cs)?;
        }
        self.ctx_state = s
            .ctx_state
            .iter()
            .zip(&s.ctx_owner)
            .map(|(pair, owners)| {
                [0, 1].map(|i| {
                    let mut st = CtxState {
                        installed: pair[i].installed.clone(),
                        in_handler: pair[i].in_handler,
                        counting: pair[i].counting,
                        mode: CtxMode::OFF,
                    };
                    st.refresh(procs.owner_running(owners[i]));
                    st
                })
            })
            .collect();
        self.procs = procs;
        self.ctx_owner = s.ctx_owner.clone();
        self.now = s.now;
        self.reset_calendars();
        Ok(())
    }
}

/// A conflict domain's noise calendar and stepping scratch, kept across
/// epochs so a noisy [`Machine::advance`] neither re-seeds a cursor per
/// source nor allocates. The calendar holds the domain's cursors
/// positioned at `at`, the end of the domain's last calendar epoch; an
/// epoch starting there reuses it, and any other start rebuilds it in
/// place at the epoch start (capacities kept).
///
/// Exactness: a cursor is a pure function of its source and its position
/// (`prop_calendar_matches_any_scan`), and the epoch-end drain leaves
/// every cursor strictly after `end`, so a carried cursor equals
/// `cursor_at(end)`. After that drain `counts[slot]` is the number of
/// the slot's sources active at `end` — what a rebuild at `end` counts.
///
/// [`Machine::try_add_noise`] clears `at`: a new source changes the
/// calendar without moving the time. [`Machine::restore_state`] and
/// [`Machine::set_segmentation`] clear it too. Their time jumps and
/// reference epochs (which leave the calendar where it was) already fail
/// the position check; the reset makes a restored machine as cold as one
/// resumed in a fresh process, so no state outside the snapshot carries
/// over.
#[derive(Default)]
struct DomainCalendar {
    cal: BoundaryCalendar,
    /// Active sources per domain context slot (`(core - d0) * 2 + thread`).
    counts: Vec<u32>,
    /// The time the calendar is positioned at; `None` forces a rebuild.
    at: Option<Cycles>,
}

/// One core's scratch during a [`Machine::advance_until`] walk.
#[derive(Debug, Clone, Copy, Default)]
struct CoreWalk {
    /// The time the core has been stepped to.
    at: Cycles,
    /// Per context: the retired count its process must reach, when the
    /// process is a target.
    goal: [Option<u64>; 2],
    /// Per context: when it reaches `goal` under the core's current
    /// configuration, as far as the walk needs to know; `None` when it
    /// is no target or none of its progress counts (its process is not
    /// running, sits in a handler window or spins).
    due: [Option<Due>; 2],
}

/// When a walked target completes under its core's current
/// configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Due {
    /// At this instant.
    At(Cycles),
    /// Strictly after this instant, if ever. The instant is the core's
    /// next noise edge, or the walk's end if that is earlier; the walk
    /// looks again when it reaches that edge.
    After(Cycles),
}

/// One shard of an epoch: a contiguous run of cores (whole share-group
/// domains) with exclusive mutable access to their models, context state
/// and accounting scratch, plus shared read access to the process table,
/// noise sources and kernel configuration. Everything a shard mutates it
/// owns, which is what makes the epoch schedule-independent.
struct Shard<'a> {
    /// Global index of the first core in this shard; the slices below are
    /// indexed shard-locally.
    base: usize,
    cores: &'a mut [Box<dyn CoreModel>],
    ctx_state: &'a mut [[CtxState; 2]],
    acct: &'a mut [[CtxAcct; 2]],
    /// Per-core calendar slots; a domain uses the slot of its first core.
    domains: &'a mut [DomainCalendar],
    ctx_owner: &'a [[Option<usize>; 2]],
    procs: &'a ProcTable,
    noise: &'a [NoiseSource],
    /// Global per-core source index (`noise_index[global core]`).
    noise_index: &'a [Vec<u32>],
    kernel: &'a KernelConfig,
    mode: Segmentation,
}

/// A context's cached accounting decision ([`CtxState::mode`]; the
/// reference re-derives it from the process table on every segment).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct CtxMode {
    /// Retired instructions count toward progress.
    count: bool,
    bucket: Bucket,
}

impl CtxMode {
    const OFF: CtxMode = CtxMode {
        count: false,
        bucket: Bucket::Off,
    };

    /// The context's deltas for a `seg`-cycle segment in which its core
    /// retired `retired` instructions on it.
    fn delta(self, retired: u64, seg: Cycles) -> CtxAcct {
        let mut d = CtxAcct::default();
        if self.count {
            d.retired = retired;
        }
        match self.bucket {
            Bucket::Irq => d.irq = seg,
            Bucket::Busy => d.busy = seg,
            Bucket::Spin => d.spin = seg,
            Bucket::Off => {}
        }
        d
    }
}

/// Which PCB cycle counter a segment's length lands in.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
enum Bucket {
    #[default]
    Off,
    Irq,
    Busy,
    Spin,
}

impl Shard<'_> {
    fn owns(&self, core: usize) -> bool {
        (self.base..self.base + self.cores.len()).contains(&core)
    }

    /// The next time strictly after `t` at which a noise source targeting
    /// this shard changes state.
    fn next_boundary(&self, t: Cycles) -> Option<Cycles> {
        self.noise
            .iter()
            .filter(|s| self.owns(s.target.core))
            .filter_map(|s| s.next_boundary(t))
            .min()
    }

    /// Step this shard privately from `start` to the epoch bound `end`,
    /// segmenting at the shard's own noise boundaries and accumulating
    /// per-context deltas into the scratch slice.
    fn advance_epoch(&mut self, start: Cycles, end: Cycles) {
        match self.mode {
            Segmentation::Calendar => self.advance_epoch_calendar(start, end),
            Segmentation::Reference => self.advance_epoch_reference(start, end),
        }
    }

    /// The original per-segment walk: every segment pays a linear scan
    /// over the shard's noise for the next boundary, a full handler
    /// re-sync, and a process-table lookup per context. Kept as the
    /// differential reference for [`Segmentation::Calendar`].
    fn advance_epoch_reference(&mut self, start: Cycles, end: Cycles) {
        let mut t = start;
        while t < end {
            self.sync_handlers(t);
            let nb = self.next_boundary(t).map_or(end, |b| b.min(end)).max(t + 1);
            let seg = nb - t;
            for k in 0..self.cores.len() {
                let retired = self.cores[k].advance(seg);
                for th in ThreadId::BOTH {
                    let ti = th.index();
                    let Some(pid) = self.ctx_owner[k][ti] else {
                        continue;
                    };
                    let st = &self.ctx_state[k][ti];
                    let running = self.procs.get(pid).expect("owner pid exists").state
                        == ProcRunState::Running;
                    let a = &mut self.acct[k][ti];
                    if st.counting {
                        a.retired += retired[ti];
                    }
                    if st.in_handler && running {
                        a.irq += seg;
                    } else if st.installed.is_some() {
                        if st.counting {
                            a.busy += seg;
                        } else {
                            a.spin += seg;
                        }
                    }
                }
            }
            t = nb;
        }
        self.sync_handlers(end);
    }

    /// Event-calendar stepping. The shard's cores are walked one conflict
    /// domain at a time (a maximal run of equal `share_group`s; cores
    /// without a group stand alone). Each domain keeps per-source
    /// boundary cursors merged through a binary heap across epochs (see
    /// [`DomainCalendar`]), so discovering the next boundary is
    /// O(log sources), handler sync touches exactly the contexts whose
    /// cursors fired, and an epoch that continues the previous one seeds
    /// nothing.
    ///
    /// Exactness: domains share no simulator state with each other, so
    /// stepping them whole-epoch one after another instead of interleaved
    /// per segment is invisible. A *single-core* domain additionally
    /// merges boundaries at which no context's aggregate handler state
    /// flips (overlapped windows, boundaries of other domains'
    /// sources) — `CoreModel::advance` is split-invariant, and the
    /// per-context accounting is linear in segment length under a fixed
    /// mode, so fusing such segments changes no observable bit. A
    /// multi-core (shared-L2) domain keeps exact cut parity with the
    /// reference instead: the cross-core interleaving of L2 accesses is
    /// defined by the advance-window granularity (the contract on
    /// `mtb_smtsim::core::SharedCache`), so its windows must not be fused.
    fn advance_epoch_calendar(&mut self, start: Cycles, end: Cycles) {
        // Borrow the calendar slots beside `self` for the walk (moving the
        // slice reference out is free; the calendars stay in place).
        let domains = std::mem::take(&mut self.domains);
        let mut d0 = 0;
        while d0 < self.cores.len() {
            let g = self.cores[d0].share_group();
            let mut d1 = d0 + 1;
            if g.is_some() {
                while d1 < self.cores.len() && self.cores[d1].share_group() == g {
                    d1 += 1;
                }
            }
            self.advance_domain(&mut domains[d0], d0, d1, start, end);
            d0 = d1;
        }
        self.domains = domains;
    }

    /// Step one conflict domain (shard-local cores `d0..d1`) through the
    /// epoch on its calendar `dom`. See [`Shard::advance_epoch_calendar`]
    /// and [`DomainCalendar`] for the exactness argument.
    fn advance_domain(
        &mut self,
        dom: &mut DomainCalendar,
        d0: usize,
        d1: usize,
        start: Cycles,
        end: Cycles,
    ) {
        // Source-free fast path: with no boundary anywhere in the range
        // that could cut this domain, the epoch is one fused segment and
        // no handler state can change — skip the calendar and its
        // scratch entirely. This keeps noise-free epochs at reference
        // cost instead of charging them calendar upkeep.
        let quiet = self
            .cut_range(d0, d1)
            .all(|k| self.noise_index[self.base + k].is_empty());
        if quiet {
            for k in d0..d1 {
                for th in ThreadId::BOTH {
                    self.apply_handler_state(k, th, false);
                }
            }
            self.step_domain(d0, d1, end - start);
            return;
        }

        let single = d1 - d0 == 1;
        self.open_domain(dom, d0, d1, start);
        let mut t = start;
        while t < end {
            // Find the next cut <= end: the next boundary where some
            // domain context's aggregate handler state flips (single-core
            // domains fuse no-flip boundaries) or, for shared-L2 domains,
            // simply the next owned boundary.
            let mut cut = end;
            while let Some(b) = dom.cal.next_boundary() {
                if b >= end {
                    break;
                }
                if self.drain(dom, d0, d1, b) || !single {
                    cut = b;
                    break;
                }
            }
            // One fused segment [t, cut) for every core of the domain.
            self.step_domain(d0, d1, cut - t);
            t = cut;
            if t < end {
                self.apply_flips(dom, d0, d1);
            }
        }
        self.close_domain(dom, d0, d1, end);
    }

    /// The shard-local cores whose noise can cut domain `d0..d1`: a
    /// single-core domain only ever cuts at its own two contexts'
    /// boundaries; a multi-core domain must cut at every boundary the
    /// *shard* owns (reference cut parity).
    fn cut_range(&self, d0: usize, d1: usize) -> std::ops::Range<usize> {
        if d1 - d0 == 1 {
            d0..d1
        } else {
            0..self.cores.len()
        }
    }

    /// Open an epoch of domain `d0..d1` at `start`: reuse the calendar if
    /// it sits at `start`, else rebuild it there in place; then apply the
    /// handler state at `start` (what the reference's first
    /// `sync_handlers(t)` call does for these contexts).
    fn open_domain(&mut self, dom: &mut DomainCalendar, d0: usize, d1: usize, start: Cycles) {
        let nctx = (d1 - d0) * 2;
        let DomainCalendar { cal, counts, at } = dom;
        if *at != Some(start) {
            // Seed cursors at `start`. Foreign contexts of a multi-core
            // domain's cut range map to the ignore slot `nctx`.
            cal.clear();
            counts.clear();
            counts.resize(nctx, 0);
            for k in self.cut_range(d0, d1) {
                for &i in &self.noise_index[self.base + k] {
                    let s = &self.noise[i as usize];
                    let ti = s.target.thread.index();
                    let slot = if (d0..d1).contains(&k) {
                        (k - d0) * 2 + ti
                    } else {
                        nctx
                    };
                    let cur = s.cursor_at(start);
                    if slot < nctx && cur.active() {
                        counts[slot] += 1;
                    }
                    cal.push(slot, cur);
                }
            }
        }
        for k in d0..d1 {
            for th in ThreadId::BOTH {
                let slot = (k - d0) * 2 + th.index();
                self.apply_handler_state(k, th, counts[slot] > 0);
            }
        }
    }

    /// Fold the domain calendar's boundaries at `b` into the per-context
    /// active counts; true when some domain context's aggregate handler
    /// state now differs from its flag (a flip [`Shard::apply_flips`]
    /// will apply).
    fn drain(&self, dom: &mut DomainCalendar, d0: usize, d1: usize, b: Cycles) -> bool {
        let nctx = (d1 - d0) * 2;
        let DomainCalendar { cal, counts, .. } = dom;
        let mut flipped = false;
        cal.advance_to(b, |slot, active| {
            if slot < nctx {
                if active {
                    counts[slot] += 1;
                } else {
                    counts[slot] -= 1;
                }
                let (k, ti) = (d0 + slot / 2, slot & 1);
                if (counts[slot] > 0) != self.ctx_state[k][ti].in_handler {
                    flipped = true;
                }
            }
        });
        flipped
    }

    /// Step every core of domain `d0..d1` by `seg` cycles under the cached
    /// accounting modes.
    fn step_domain(&mut self, d0: usize, d1: usize, seg: Cycles) {
        for k in d0..d1 {
            let retired = self.cores[k].advance(seg);
            for (ti, &r) in retired.iter().enumerate() {
                let st = &self.ctx_state[k][ti];
                debug_assert_eq!(
                    st.mode,
                    st.mode_for(self.procs.owner_running(self.ctx_owner[k][ti])),
                    "stale accounting mode"
                );
                self.acct[k][ti].add(st.mode.delta(r, seg));
            }
        }
    }

    /// Apply the handler state the counts ask for (which refreshes the
    /// cached mode of exactly the contexts that flip).
    fn apply_flips(&mut self, dom: &DomainCalendar, d0: usize, d1: usize) {
        for k in d0..d1 {
            for th in ThreadId::BOTH {
                let slot = (k - d0) * 2 + th.index();
                self.apply_handler_state(k, th, dom.counts[slot] > 0);
            }
        }
    }

    /// Close the domain's epoch at `end` (the reference's trailing
    /// `sync_handlers(end)`): drain boundaries falling exactly on `end`,
    /// apply them, and leave the calendar positioned there.
    fn close_domain(&mut self, dom: &mut DomainCalendar, d0: usize, d1: usize, end: Cycles) {
        self.drain(dom, d0, d1, end);
        self.apply_flips(dom, d0, d1);
        dom.at = Some(end);
    }

    /// The walk of [`Machine::advance_until`] over a shard of single-core
    /// domains (the whole machine). Each core opens an epoch at `start`
    /// on its own calendar; then the walk visits the cores' boundaries in
    /// time order (lowest core first on ties), stepping a core only when
    /// its handler state flips, and only up to the flip, so a boundary
    /// that flips nothing costs a heap pop. After a flip the core's
    /// targets are predicted again (see [`Shard::predict`]): a target
    /// gets a due instant only when it can complete by the core's next
    /// boundary (or `end`), and is otherwise looked at again when the
    /// walk reaches that boundary. The walk stops at the earliest of
    /// `end` and every due instant; every core then steps to the stop and
    /// closes its epoch there, applying flips that fall on it.
    ///
    /// Exactness: cores share nothing, `CoreModel::advance` is
    /// split-invariant and the accounting is linear under a fixed mode,
    /// so each core's state at the stop matches one stepped through the
    /// same flips in epochs ending at every boundary — what
    /// [`Shard::advance_domain`] does when the caller stops at each. A
    /// target left without an instant completes after its core's next
    /// boundary; the walk visits boundaries in time order, so it reaches
    /// that one before any later instant could matter, with the core
    /// neither stepped nor flipped since the prediction, and computes the
    /// instant there if it is needed: the same instant, so the same stop.
    ///
    /// When the step is unbounded (`!bounded`), no context is due and no
    /// boundary lies ahead, nothing can ever complete: the walk stops at
    /// the last boundary it crossed, where a caller stepping boundary by
    /// boundary would have found no next event, or returns `None`,
    /// advancing nothing, if it crossed none.
    fn walk(
        &mut self,
        walk: &mut [CoreWalk],
        start: Cycles,
        end: Cycles,
        bounded: bool,
    ) -> Option<Cycles> {
        let domains = std::mem::take(&mut self.domains);
        let horizon = |dom: &DomainCalendar| dom.cal.next_boundary().map_or(end, |b| b.min(end));
        for (k, w) in walk.iter_mut().enumerate() {
            self.open_domain(&mut domains[k], k, k + 1, start);
            w.at = start;
            self.predict(w, k, horizon(&domains[k]), false);
        }
        let mut crossed = start;
        let stop = loop {
            let stop = walk
                .iter()
                .flat_map(|w| w.due)
                .filter_map(|d| match d {
                    Some(Due::At(t)) => Some(t),
                    _ => None,
                })
                .fold(end, Cycles::min);
            let edge = domains
                .iter()
                .enumerate()
                .filter_map(|(k, d)| d.cal.next_boundary().map(|b| (b, k)))
                .min();
            match edge {
                Some((b, k)) if b < stop => {
                    crossed = b;
                    let dom = &mut domains[k];
                    let flipped = self.drain(dom, k, k + 1, b);
                    if flipped {
                        self.step_domain(k, k + 1, b - walk[k].at);
                        walk[k].at = b;
                        self.apply_flips(dom, k, k + 1);
                    }
                    self.predict(&mut walk[k], k, horizon(dom), !flipped);
                }
                None if !bounded
                    && !walk
                        .iter()
                        .enumerate()
                        .any(|(k, w)| self.may_complete(w, k)) =>
                {
                    if crossed == start {
                        self.domains = domains;
                        return None;
                    }
                    break crossed;
                }
                _ => break stop,
            }
        };
        for (k, w) in walk.iter().enumerate() {
            let dom = &mut domains[k];
            if stop > w.at {
                self.step_domain(k, k + 1, stop - w.at);
            }
            self.close_domain(dom, k, k + 1, stop);
        }
        self.domains = domains;
        Some(stop)
    }

    /// Predict when core `k`, standing at `w.at`, completes each target,
    /// as far as a walk that looks at the core again at `horizon` (its
    /// next boundary, or the walk's end) needs to know: the instant when
    /// [`CoreModel::may_retire_within`] says it can fall by `horizon`,
    /// else [`Due::After`]`(horizon)`. With `lazy_only` the core's
    /// configuration has not changed since the last prediction, so only
    /// the targets left without an instant are looked at.
    fn predict(&self, w: &mut CoreWalk, k: usize, horizon: Cycles, lazy_only: bool) {
        for ti in 0..2 {
            if lazy_only && !matches!(w.due[ti], Some(Due::After(_))) {
                continue;
            }
            w.due[ti] = w.goal[ti].and_then(|goal| {
                let t = ThreadId::from_index(ti);
                match self.remaining(k, ti, goal)? {
                    0 => Some(Due::At(w.at + 1)),
                    n if self.cores[k].may_retire_within(t, n, horizon - w.at) => self.cores[k]
                        .cycles_to_retire(t, n)
                        .map(|dt| Due::At(w.at + dt)),
                    _ => Some(Due::After(horizon)),
                }
            });
        }
    }

    /// Can some target of core `k` ever complete under the core's current
    /// configuration? A target left without an instant is asked exactly:
    /// [`Due::After`] does not say whether it completes at all.
    fn may_complete(&self, w: &CoreWalk, k: usize) -> bool {
        (0..2).any(|ti| match (w.due[ti], w.goal[ti]) {
            (Some(Due::At(_)), _) => true,
            (Some(Due::After(_)), Some(goal)) => self.remaining(k, ti, goal).is_some_and(|n| {
                self.cores[k]
                    .cycles_to_retire(ThreadId::from_index(ti), n)
                    .is_some()
            }),
            _ => false,
        })
    }

    /// What context `ti` of core `k` has left to retire of `goal` for its
    /// process, counting what the walk retired so far; `None` while none
    /// of its progress counts.
    fn remaining(&self, k: usize, ti: usize, goal: u64) -> Option<u64> {
        let pcb = self.procs.get(self.ctx_owner[k][ti]?)?;
        let st = &self.ctx_state[k][ti];
        if pcb.state != ProcRunState::Running || st.in_handler || !st.counting {
            return None;
        }
        Some(goal.saturating_sub(pcb.retired + self.acct[k][ti].retired))
    }

    /// Enter or exit the handler window for one context so that its
    /// `in_handler` flag equals `active` (no-op when already equal).
    fn apply_handler_state(&mut self, k: usize, thread: ThreadId, active: bool) {
        let in_handler = self.ctx_state[k][thread.index()].in_handler;
        if active && !in_handler {
            self.enter_handler(k, thread);
        } else if !active && in_handler {
            self.exit_handler(k, thread);
        }
    }

    /// Enter/exit noise windows for this shard's contexts at time `t`.
    fn sync_handlers(&mut self, t: Cycles) {
        for k in 0..self.cores.len() {
            for th in ThreadId::BOTH {
                let addr = CtxAddr {
                    core: self.base + k,
                    thread: th,
                };
                let active = self
                    .noise
                    .iter()
                    .any(|s| s.target == addr && s.active_at(t));
                let in_handler = self.ctx_state[k][th.index()].in_handler;
                if active && !in_handler {
                    self.enter_handler(k, th);
                } else if !active && in_handler {
                    self.exit_handler(k, th);
                }
            }
        }
    }

    fn enter_handler(&mut self, k: usize, thread: ThreadId) {
        let ti = thread.index();
        let st = &mut self.ctx_state[k][ti];
        st.in_handler = true;
        st.refresh(self.procs.owner_running(self.ctx_owner[k][ti]));
        // The pinned process stops making progress for the window.
        self.cores[k].clear(thread);
        // Stock kernels reset the hardware priority to MEDIUM on handler
        // entry (Section VI-A); the patch removed that code.
        if self.kernel.flavour.resets_priority_on_interrupt() {
            self.cores[k].set_priority(thread, self.kernel.handler_priority);
        }
    }

    fn exit_handler(&mut self, k: usize, thread: ThreadId) {
        let ti = thread.index();
        let st = &mut self.ctx_state[k][ti];
        st.in_handler = false;
        st.refresh(self.procs.owner_running(self.ctx_owner[k][ti]));
        let installed = st.installed.clone();
        match installed {
            Some(w) => {
                let pid = self.ctx_owner[k][ti].expect("installed implies owner");
                let wish = self.procs.get(pid).expect("owner pid exists").hmt_priority;
                self.cores[k].assign(thread, w);
                // Vanilla: the kernel does not know the previous priority,
                // so the context stays at the handler value. Patched: the
                // wish survives.
                self.cores[k].set_priority(thread, self.kernel.priority_after_interrupt(wish));
            }
            None => {
                self.cores[k].clear(thread);
                self.cores[k].set_priority(thread, self.kernel.idle_priority);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtb_smtsim::chip::build_cores;
    use mtb_smtsim::inst::StreamSpec;
    use mtb_smtsim::model::WorkloadProfile;

    fn meso_machine(kernel: KernelConfig) -> Machine {
        Machine::new(build_cores(2, false), kernel)
    }

    fn wl(ipc: f64) -> Workload {
        Workload::with_profile(
            "w",
            StreamSpec::balanced(1),
            WorkloadProfile::new(ipc, 0.2, 0.05),
        )
    }

    #[test]
    fn spawn_enforces_context_exclusivity() {
        let mut m = meso_machine(KernelConfig::patched());
        m.spawn(1, "P1", CtxAddr::from_cpu(0)).unwrap();
        assert_eq!(
            m.spawn(2, "P2", CtxAddr::from_cpu(0)),
            Err(MachineError::ContextBusy)
        );
        assert_eq!(
            m.spawn(1, "P1b", CtxAddr::from_cpu(1)),
            Err(MachineError::DuplicatePid)
        );
        assert_eq!(
            m.spawn(3, "P3", CtxAddr::from_cpu(9)),
            Err(MachineError::NoSuchContext)
        );
        m.spawn(2, "P2", CtxAddr::from_cpu(1)).unwrap();
        assert_eq!(m.pids(), vec![1, 2]);
    }

    #[test]
    fn idle_contexts_sit_at_idle_priority() {
        let m = meso_machine(KernelConfig::patched());
        for cpu in 0..4 {
            assert_eq!(m.hw_priority(CtxAddr::from_cpu(cpu)), HwPriority::VERY_LOW);
        }
    }

    #[test]
    fn running_process_makes_progress_blocked_does_not() {
        let mut m = meso_machine(KernelConfig::patched());
        m.spawn(1, "P1", CtxAddr::from_cpu(0)).unwrap();
        m.run_workload(1, wl(2.0)).unwrap();
        m.advance(10_000);
        let after_run = m.retired(1);
        assert!(after_run > 0);
        m.block(1).unwrap();
        m.advance(10_000);
        assert_eq!(m.retired(1), after_run, "blocked process must not retire");
        assert_eq!(m.hw_priority(CtxAddr::from_cpu(0)), HwPriority::VERY_LOW);
    }

    #[test]
    fn procfs_priority_applies_to_hardware() {
        let mut m = meso_machine(KernelConfig::patched());
        m.spawn(1, "P1", CtxAddr::from_cpu(0)).unwrap();
        m.run_workload(1, wl(2.0)).unwrap();
        m.set_priority_procfs(1, 6).unwrap();
        assert_eq!(m.hw_priority(CtxAddr::from_cpu(0)), HwPriority::HIGH);
        assert_eq!(m.pcb(1).unwrap().hmt_priority, HwPriority::HIGH);
        // 7 is hypervisor-only even through procfs.
        assert!(m.set_priority_procfs(1, 7).is_err());
    }

    #[test]
    fn procfs_rejected_on_vanilla_kernel() {
        let mut m = meso_machine(KernelConfig::vanilla());
        m.spawn(1, "P1", CtxAddr::from_cpu(0)).unwrap();
        assert_eq!(m.set_priority_procfs(1, 5), Err(PriorityError::NoProcFs));
        // or-nop from user space still works for 2..=4.
        m.set_priority_ornop(1, 3, PrivilegeLevel::User).unwrap();
        assert_eq!(m.pcb(1).unwrap().hmt_priority, HwPriority::MEDIUM_LOW);
    }

    #[test]
    fn higher_priority_process_outruns_sibling() {
        let mut m = meso_machine(KernelConfig::patched());
        m.spawn(1, "P1", CtxAddr::from_cpu(0)).unwrap();
        m.spawn(2, "P2", CtxAddr::from_cpu(1)).unwrap(); // same core, thread B
        m.run_workload(1, wl(3.0)).unwrap();
        m.run_workload(2, wl(3.0)).unwrap();
        m.set_priority_procfs(1, 6).unwrap();
        m.set_priority_procfs(2, 2).unwrap();
        m.advance(100_000);
        assert!(
            m.retired(1) > 3 * m.retired(2),
            "priority 6 vs 2 must skew heavily: {} vs {}",
            m.retired(1),
            m.retired(2)
        );
    }

    #[test]
    fn noise_steals_cycles_and_is_accounted() {
        let mut m = meso_machine(KernelConfig::patched());
        m.spawn(1, "P1", CtxAddr::from_cpu(0)).unwrap();
        m.run_workload(1, wl(2.0)).unwrap();
        m.add_noise(NoiseSource::timer(CtxAddr::from_cpu(0), 1000, 100));
        m.advance(100_000);
        let pcb = m.pcb(1).unwrap();
        assert_eq!(pcb.interrupt_cycles, 10_000, "10% duty timer");
        // Progress reduced by roughly the stolen share.
        let clean = {
            let mut m2 = meso_machine(KernelConfig::patched());
            m2.spawn(1, "P1", CtxAddr::from_cpu(0)).unwrap();
            m2.run_workload(1, wl(2.0)).unwrap();
            m2.advance(100_000);
            m2.retired(1)
        };
        let noisy = m.retired(1);
        let frac = noisy as f64 / clean as f64;
        assert!(
            (0.85..0.95).contains(&frac),
            "expected ~90% progress, got {frac}"
        );
    }

    #[test]
    fn vanilla_kernel_decays_priority_at_first_interrupt() {
        let mut m = meso_machine(KernelConfig::vanilla());
        m.spawn(1, "P1", CtxAddr::from_cpu(0)).unwrap();
        m.run_workload(1, wl(2.0)).unwrap();
        m.set_priority_ornop(1, 2, PrivilegeLevel::User).unwrap();
        assert_eq!(m.hw_priority(CtxAddr::from_cpu(0)), HwPriority::LOW);
        m.add_noise(NoiseSource::timer(CtxAddr::from_cpu(0), 10_000, 50));
        m.advance(20_000);
        assert_eq!(
            m.hw_priority(CtxAddr::from_cpu(0)),
            HwPriority::MEDIUM,
            "vanilla kernel must clobber the priority to MEDIUM"
        );
        assert_eq!(
            m.pcb(1).unwrap().hmt_priority,
            HwPriority::LOW,
            "the wish survives in the PCB"
        );
    }

    #[test]
    fn patched_kernel_preserves_priority_across_interrupts() {
        let mut m = meso_machine(KernelConfig::patched());
        m.spawn(1, "P1", CtxAddr::from_cpu(0)).unwrap();
        m.run_workload(1, wl(2.0)).unwrap();
        m.set_priority_procfs(1, 6).unwrap();
        m.add_noise(NoiseSource::timer(CtxAddr::from_cpu(0), 10_000, 50));
        m.advance(50_000);
        assert_eq!(
            m.hw_priority(CtxAddr::from_cpu(0)),
            HwPriority::HIGH,
            "the patch must keep the configured priority"
        );
    }

    #[test]
    fn cycles_to_retire_estimates_enable_event_stepping() {
        let mut m = meso_machine(KernelConfig::patched());
        m.spawn(1, "P1", CtxAddr::from_cpu(0)).unwrap();
        m.run_workload(1, wl(2.0)).unwrap();
        let dt = m.cycles_to_retire(1, 1000).unwrap();
        m.advance(dt);
        assert!(m.retired(1) >= 1000);
        m.block(1).unwrap();
        assert_eq!(m.cycles_to_retire(1, 1), None);
    }

    #[test]
    fn advance_is_deterministic() {
        let run = || {
            let mut m = meso_machine(KernelConfig::patched());
            m.spawn(1, "P1", CtxAddr::from_cpu(0)).unwrap();
            m.spawn(2, "P2", CtxAddr::from_cpu(1)).unwrap();
            m.run_workload(1, wl(2.5)).unwrap();
            m.run_workload(2, wl(1.5)).unwrap();
            m.add_noise(NoiseSource::timer(CtxAddr::from_cpu(0), 3333, 77));
            m.advance(123_456);
            (m.retired(1), m.retired(2))
        };
        assert_eq!(run(), run());
    }

    /// Epoch stepping must be bit-identical at every thread count for
    /// both fidelities, including across noise-boundary segmentation.
    #[test]
    fn parallel_advance_matches_sequential() {
        use mtb_pool::Budget;
        use mtb_smtsim::chip::{build_cores_grouped, Fidelity};
        use mtb_smtsim::CoreConfig;
        use std::sync::Arc;

        for fidelity in [
            Fidelity::Meso(Default::default()),
            Fidelity::Cycle(CoreConfig::default()),
        ] {
            let run = |threads: usize| {
                let cores = build_cores_grouped(4, &fidelity, 2);
                let mut m = Machine::new(cores, KernelConfig::patched());
                if threads > 1 {
                    m.set_runner(Some(ShardedRunner::with_budget(
                        threads,
                        Arc::new(Budget::new(16)),
                    )));
                }
                for cpu in 0..8 {
                    m.spawn(cpu, format!("P{cpu}"), CtxAddr::from_cpu(cpu))
                        .unwrap();
                    m.run_workload(
                        cpu,
                        Workload::from_spec("w", StreamSpec::balanced(cpu as u64 + 1)),
                    )
                    .unwrap();
                    m.set_priority_procfs(cpu, 2 + (cpu % 5) as u8).unwrap();
                }
                m.add_noise(NoiseSource::timer(CtxAddr::from_cpu(2), 997, 61));
                for dt in [1, 500, 64, 10_000, 3] {
                    m.advance(dt);
                }
                (0..8).map(|pid| m.retired(pid)).collect::<Vec<_>>()
            };
            let base = run(1);
            assert!(base.iter().all(|&r| r > 0), "all ranks progress");
            for t in [2, 4] {
                assert_eq!(run(t), base, "drift at {t} threads ({fidelity:?})");
            }
        }
    }

    /// A non-contiguous share-group layout must collapse sharding (for
    /// correctness), surface through [`Machine::sharding_degraded`], and
    /// put the stable `MTB-SHARD-COLLAPSE` code in the runtime notes —
    /// while a contiguous layout reports nothing.
    #[test]
    fn non_contiguous_share_groups_degrade_and_are_reported() {
        use mtb_smtsim::cache::Cache;
        use mtb_smtsim::core::SharedCache;
        use mtb_smtsim::{CoreConfig, SmtCore};
        use std::sync::{Arc, Mutex};

        let cfg = CoreConfig::default();
        let mk_interleaved = || -> Vec<Box<dyn CoreModel>> {
            let a: SharedCache = Arc::new(Mutex::new(Cache::new(cfg.l2)));
            let b: SharedCache = Arc::new(Mutex::new(Cache::new(cfg.l2)));
            (0..4)
                .map(|i| {
                    let l2 = if i % 2 == 0 { &a } else { &b };
                    Box::new(SmtCore::with_l2(cfg.clone(), i as u8, Arc::clone(l2)))
                        as Box<dyn CoreModel>
                })
                .collect()
        };

        let degraded = Machine::new(mk_interleaved(), KernelConfig::patched());
        assert!(degraded.sharding_degraded());
        let notes = degraded.runtime_notes();
        assert_eq!(notes.len(), 1);
        assert!(
            notes[0].starts_with(SHARD_COLLAPSE_CODE),
            "note leads with the stable code: {}",
            notes[0]
        );

        // Topology-only: attaching a runner must not change the notes
        // (they are hashed into run records).
        let mut with_runner = Machine::new(mk_interleaved(), KernelConfig::patched());
        with_runner.set_parallelism(4);
        assert_eq!(with_runner.runtime_notes(), notes);

        let contiguous = Machine::new(
            mtb_smtsim::chip::build_cores_grouped(
                4,
                &mtb_smtsim::chip::Fidelity::Cycle(cfg.clone()),
                2,
            ),
            KernelConfig::patched(),
        );
        assert!(!contiguous.sharding_degraded());
        assert!(contiguous.runtime_notes().is_empty());

        // And the collapsed machine still advances correctly (one shard).
        let mut m = Machine::new(mk_interleaved(), KernelConfig::patched());
        m.spawn(0, "P0", CtxAddr::from_cpu(0)).unwrap();
        m.run_workload(0, Workload::from_spec("w", StreamSpec::balanced(1)))
            .unwrap();
        m.advance(5_000);
        assert!(m.retired(0) > 0);
    }

    #[test]
    fn migrate_moves_a_running_process() {
        let mut m = meso_machine(KernelConfig::patched());
        m.spawn(1, "P1", CtxAddr::from_cpu(0)).unwrap();
        m.run_workload(1, wl(2.0)).unwrap();
        m.set_priority_procfs(1, 6).unwrap();
        m.advance(10_000);
        let before = m.retired(1);
        assert!(before > 0);

        m.migrate(1, CtxAddr::from_cpu(3)).unwrap();
        assert_eq!(m.pcb(1).unwrap().affinity, CtxAddr::from_cpu(3));
        // The priority wish travels with the process.
        assert_eq!(m.hw_priority(CtxAddr::from_cpu(3)), HwPriority::HIGH);
        // The old context idles at VERY LOW.
        assert_eq!(m.hw_priority(CtxAddr::from_cpu(0)), HwPriority::VERY_LOW);
        m.advance(10_000);
        assert!(
            m.retired(1) > before,
            "progress continues on the new context"
        );
    }

    #[test]
    fn migrate_rejects_busy_and_bad_targets() {
        let mut m = meso_machine(KernelConfig::patched());
        m.spawn(1, "P1", CtxAddr::from_cpu(0)).unwrap();
        m.spawn(2, "P2", CtxAddr::from_cpu(1)).unwrap();
        assert_eq!(
            m.migrate(1, CtxAddr::from_cpu(1)),
            Err(MachineError::ContextBusy)
        );
        assert_eq!(
            m.migrate(1, CtxAddr::from_cpu(99)),
            Err(MachineError::NoSuchContext)
        );
        assert_eq!(
            m.migrate(7, CtxAddr::from_cpu(2)),
            Err(MachineError::NoSuchProcess)
        );
        // Self-migration is a no-op.
        m.migrate(1, CtxAddr::from_cpu(0)).unwrap();
        assert_eq!(m.pcb(1).unwrap().affinity, CtxAddr::from_cpu(0));
    }

    #[test]
    fn swap_exchanges_contexts_and_keeps_progress() {
        let mut m = meso_machine(KernelConfig::patched());
        m.spawn(1, "P1", CtxAddr::from_cpu(0)).unwrap();
        m.spawn(2, "P2", CtxAddr::from_cpu(2)).unwrap();
        m.run_workload(1, wl(2.0)).unwrap();
        m.run_workload(2, wl(1.0)).unwrap();
        m.advance(10_000);
        let (r1, r2) = (m.retired(1), m.retired(2));

        m.swap(1, 2).unwrap();
        assert_eq!(m.pcb(1).unwrap().affinity, CtxAddr::from_cpu(2));
        assert_eq!(m.pcb(2).unwrap().affinity, CtxAddr::from_cpu(0));
        m.advance(10_000);
        assert!(m.retired(1) > r1);
        assert!(m.retired(2) > r2);
        // Rates travelled with the workloads (2.0 vs 1.0 IPC).
        assert!(m.retired(1) - r1 > m.retired(2) - r2);
    }

    #[test]
    fn swap_handles_blocked_processes() {
        let mut m = meso_machine(KernelConfig::patched());
        m.spawn(1, "P1", CtxAddr::from_cpu(0)).unwrap();
        m.spawn(2, "P2", CtxAddr::from_cpu(1)).unwrap();
        m.run_workload(1, wl(2.0)).unwrap();
        m.block(2).unwrap();
        m.swap(1, 2).unwrap();
        m.advance(5_000);
        assert!(m.retired(1) > 0, "running process keeps running after swap");
        assert_eq!(m.retired(2), 0);
        // The blocked process's new context idles.
        assert_eq!(m.hw_priority(CtxAddr::from_cpu(0)), HwPriority::VERY_LOW);
    }

    #[test]
    fn wait_policies_change_the_siblings_world() {
        // Rank 1 waits while rank 0 computes on the same core; measure
        // rank 0's progress under each wait policy.
        let run = |policy: WaitPolicy| {
            let mut m = meso_machine(KernelConfig::patched());
            m.set_wait_policy(policy);
            m.spawn(0, "P1", CtxAddr::from_cpu(0)).unwrap();
            m.spawn(1, "P2", CtxAddr::from_cpu(1)).unwrap();
            m.run_workload(0, wl(3.2)).unwrap();
            m.run_workload(1, wl(3.2)).unwrap();
            m.advance(1_000);
            m.enter_wait(1).unwrap();
            m.advance(50_000);
            m.retired(0)
        };
        let spin_own = run(WaitPolicy::SpinOwn);
        let spin_low = run(WaitPolicy::SpinAt(2));
        let block = run(WaitPolicy::Block);
        assert!(
            spin_low > spin_own,
            "a lowered-priority spinner donates decode: {spin_low} vs {spin_own}"
        );
        assert!(
            block >= spin_low,
            "blocking donates at least as much: {block} vs {spin_low}"
        );
    }

    #[test]
    fn spin_at_respects_user_privilege() {
        // SpinAt(1) asks for a supervisor-only priority: the user-space
        // library cannot set it, so the context keeps spinning at the
        // process priority.
        let mut m = meso_machine(KernelConfig::patched());
        m.set_wait_policy(WaitPolicy::SpinAt(1));
        m.spawn(0, "P1", CtxAddr::from_cpu(0)).unwrap();
        m.run_workload(0, wl(2.0)).unwrap();
        m.enter_wait(0).unwrap();
        assert_eq!(
            m.hw_priority(CtxAddr::from_cpu(0)),
            HwPriority::MEDIUM,
            "privileged level silently ignored"
        );
    }

    #[test]
    fn spin_at_restores_wish_on_next_run() {
        let mut m = meso_machine(KernelConfig::patched());
        m.set_wait_policy(WaitPolicy::SpinAt(2));
        m.spawn(0, "P1", CtxAddr::from_cpu(0)).unwrap();
        m.run_workload(0, wl(2.0)).unwrap();
        m.set_priority_procfs(0, 6).unwrap();
        m.enter_wait(0).unwrap();
        assert_eq!(m.hw_priority(CtxAddr::from_cpu(0)), HwPriority::LOW);
        // The configured wish survives and is re-applied on resume.
        m.run_workload(0, wl(2.0)).unwrap();
        assert_eq!(m.hw_priority(CtxAddr::from_cpu(0)), HwPriority::HIGH);
    }

    #[test]
    fn machine_wide_split_sums_processes() {
        let mut m = meso_machine(KernelConfig::patched());
        m.spawn(1, "P1", CtxAddr::from_cpu(0)).unwrap();
        m.spawn(2, "P2", CtxAddr::from_cpu(2)).unwrap();
        m.run_workload(1, wl(2.0)).unwrap();
        m.run_workload(2, wl(1.0)).unwrap();
        m.advance(4_000);
        m.spin(2).unwrap();
        m.advance(6_000);
        let (busy, spin, irq) = m.cpu_time_split();
        assert_eq!(busy, 10_000 + 4_000);
        assert_eq!(spin, 6_000);
        assert_eq!(irq, 0);
    }

    #[test]
    fn cpu_time_splits_busy_and_spin() {
        let mut m = meso_machine(KernelConfig::patched());
        m.spawn(1, "P1", CtxAddr::from_cpu(0)).unwrap();
        m.run_workload(1, wl(2.0)).unwrap();
        m.advance(10_000);
        m.spin(1).unwrap();
        m.advance(5_000);
        let pcb = m.pcb(1).unwrap();
        assert_eq!(pcb.busy_cycles, 10_000);
        assert_eq!(pcb.spin_cycles, 5_000);
        // Blocked/exited processes accumulate neither.
        m.exit(1).unwrap();
        m.advance(1_000);
        assert_eq!(m.pcb(1).unwrap().busy_cycles, 10_000);
        assert_eq!(m.pcb(1).unwrap().spin_cycles, 5_000);
    }

    #[test]
    fn save_restore_resumes_bit_identically() {
        let mk = || {
            let mut m = meso_machine(KernelConfig::patched());
            m.spawn(0, "P1", CtxAddr::from_cpu(0)).unwrap();
            m.spawn(1, "P2", CtxAddr::from_cpu(1)).unwrap();
            m.run_workload(0, wl(2.5)).unwrap();
            m.run_workload(1, wl(1.5)).unwrap();
            m.set_priority_procfs(0, 6).unwrap();
            m.add_noise(NoiseSource::timer(CtxAddr::from_cpu(0), 3_333, 77));
            m
        };
        let mut whole = mk();
        whole.advance(80_000);

        let mut donor = mk();
        donor.advance(31_007);
        let snap = donor.save_state();

        let mut resumed = mk();
        resumed.advance(1_234);
        resumed.restore_state(&snap).unwrap();
        resumed.advance(80_000 - 31_007);
        assert_eq!(whole.save_state(), resumed.save_state());
        assert_eq!(whole.retired(0), resumed.retired(0));
        assert_eq!(whole.retired(1), resumed.retired(1));
    }

    #[test]
    fn restore_rejects_mismatched_machines() {
        let mut m = meso_machine(KernelConfig::patched());
        m.spawn(0, "P1", CtxAddr::from_cpu(0)).unwrap();
        let snap = m.save_state();

        let mut bigger = Machine::new(build_cores(4, false), KernelConfig::patched());
        assert!(bigger.restore_state(&snap).is_err());

        let mut cycle = Machine::new(build_cores(2, true), KernelConfig::patched());
        assert!(cycle.restore_state(&snap).is_err(), "fidelity mismatch");
    }

    #[test]
    fn works_with_cycle_accurate_cores_too() {
        let mut m = Machine::new(build_cores(2, true), KernelConfig::patched());
        m.spawn(1, "P1", CtxAddr::from_cpu(0)).unwrap();
        m.run_workload(1, Workload::from_spec("w", StreamSpec::balanced(5)))
            .unwrap();
        m.advance(5_000);
        assert!(m.retired(1) > 0);
    }
}
