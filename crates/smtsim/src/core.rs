//! The cycle-level 2-way SMT core.
//!
//! A deliberately compact but mechanistic pipeline model, detailed enough
//! to reproduce the hardware behaviours the paper's argument rests on:
//!
//! * **Decode arbitration** follows [`crate::decode`] exactly (Tables
//!   II/III): per-cycle slot ownership from the two hardware priorities.
//! * **Slot stealing**: a decode cycle its owner cannot use (full dispatch
//!   buffer, no workload, shut off) may be taken by the other context in
//!   leftover mode — and, when [`CoreConfig::slot_stealing`] is set, in
//!   normal mode too. This is what makes an SMT thread's throughput
//!   *sub-proportional* to its nominal decode share.
//! * **Shared back end**: both contexts issue into one pool of execution
//!   units and share the L1D/L2 caches, so a resource-hungry co-runner
//!   slows the other thread even at equal priority (the paper's reason
//!   SMT-mode per-thread performance is below ST mode).
//! * **In-order issue with dependencies**: each instruction depends on the
//!   result of an earlier one (`dep` positions back); issue stalls until
//!   that completes, bounding ILP by the workload's dependency distance.
//!
//! Out-of-order effects (renaming, speculative execution) are abstracted
//! into the dependency-distance statistics of the instruction stream; see
//! DESIGN.md §5 for why this preserves the decode-share response curve the
//! paper's experiments measure.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::{Arc, Mutex};

use crate::branch::BranchPredictor;
use crate::cache::{Cache, CacheConfig};
use crate::decode::GrantLut;
use crate::inst::{Inst, InstClass, StreamGen};
use crate::model::{CoreModel, ThreadId, Workload};
use crate::priority::{HwPriority, Tsr};
use crate::state::{
    CacheState, CoreState, CycleCoreState, CycleCtxState, PredictorState, StreamGenState,
    UnitsState,
};
use crate::stats::CtxStats;
use crate::units::{UnitConfig, UnitPool};
use crate::Cycles;

/// A cache shared between cores (the chip's L2).
///
/// `Arc<Mutex>` rather than `Rc<RefCell>` so cores of *different* L2
/// domains can be advanced on pool workers. Cores sharing one L2 are
/// never advanced concurrently (see [`CoreModel::share_group`]), so the
/// mutex is uncontended and exists only to make the sharing `Send`.
pub type SharedCache = Arc<Mutex<Cache>>;

/// Static configuration of a core.
#[derive(Debug, Clone)]
pub struct CoreConfig {
    /// Instructions decoded per owned cycle.
    pub decode_width: u8,
    /// In-order issue width per context per cycle.
    pub issue_width: u8,
    /// Dispatch-buffer entries per context.
    pub dispatch_buf: usize,
    /// Execution-unit counts.
    pub units: UnitConfig,
    /// Private L1 data cache geometry.
    pub l1d: CacheConfig,
    /// Private L1 instruction cache geometry.
    pub l1i: CacheConfig,
    /// Shared L2 geometry (used when the core owns its own L2; a chip
    /// passes a [`SharedCache`] instead).
    pub l2: CacheConfig,
    /// Memory latency on L2 miss, cycles.
    pub mem_lat: Cycles,
    /// Fixed-point result latency.
    pub fx_lat: Cycles,
    /// Floating-point result latency.
    pub fp_lat: Cycles,
    /// Branch resolution latency.
    pub br_lat: Cycles,
    /// Dependency scoreboard window (instructions).
    pub window: usize,
    /// Front-end redirect penalty per mispredicted branch (cycles).
    pub mispredict_penalty: Cycles,
    /// Out-of-order issue lookahead: how many dispatch-buffer entries the
    /// issue stage scans per cycle for ready instructions. 1 = strict
    /// in-order issue; the POWER5 is out-of-order, so the default scans a
    /// window.
    pub lookahead: usize,
    /// Allow normal-mode (both priorities > 1) stealing of decode slots
    /// the owner cannot use. Leftover mode (priority 1) always steals.
    /// Defaults to `false`: the POWER5 decode slices of Table II are hard
    /// allocations — an idle context donates bandwidth only when the OS
    /// drops its priority to 1 (leftover mode) or 0 (ST mode), which is
    /// exactly why the kernel does so (Section VI-A).
    pub slot_stealing: bool,
    /// Batch quiet stretches — cycles in which neither context decodes,
    /// issues, retires or flushes — with a closed-form counter update
    /// instead of stepping them one by one (see [`SmtCore::advance`]).
    /// `false` selects the per-cycle reference path; results are
    /// bit-identical either way (the differential tests enforce it).
    pub fast_forward: bool,
}

impl CoreConfig {
    /// The longest result latency an instruction can have: a load that
    /// misses both caches, or the slowest unit.
    pub(crate) fn max_latency(&self) -> Cycles {
        self.fx_lat
            .max(self.fp_lat)
            .max(self.br_lat)
            .max(self.l1d.hit_latency + self.l2.hit_latency + self.mem_lat)
    }
}

impl Default for CoreConfig {
    fn default() -> Self {
        CoreConfig {
            decode_width: 5,
            issue_width: 4,
            dispatch_buf: 24,
            units: UnitConfig::default(),
            l1d: CacheConfig::l1d(),
            l1i: CacheConfig::l1i(),
            l2: CacheConfig::l2(),
            mem_lat: 230,
            fx_lat: 1,
            fp_lat: 6,
            br_lat: 1,
            window: 192,
            mispredict_penalty: 12,
            lookahead: 16,
            slot_stealing: false,
            fast_forward: true,
        }
    }
}

/// Per-context microarchitectural state.
pub(crate) struct Ctx {
    pub(crate) tsr: Tsr,
    pub(crate) workload: Option<(Arc<str>, StreamGen)>,
    pub(crate) dispatch: VecDeque<(Inst, u64)>,
    /// Completion cycle of instruction `seq`, ring-indexed by `seq % window`.
    pub(crate) completion: Vec<Cycles>,
    /// Next sequence number to decode.
    pub(crate) seq: u64,
    /// Completion events not yet counted as retired.
    pub(crate) pending: BinaryHeap<Reverse<Cycles>>,
    pub(crate) stats: CtxStats,
    /// (cycle, retired) snapshot at the last configuration change, for
    /// steady-state rate estimation.
    rate_anchor: (Cycles, u64),
    /// Branch predictor (per hardware context, like the POWER5).
    pub(crate) predictor: BranchPredictor,
    /// Decode blocked until this cycle (mispredict redirect in flight).
    pub(crate) fetch_stall_until: Cycles,
}

impl Ctx {
    /// A context sized for `cfg`: both queues start at their largest
    /// possible length — at most `dispatch_buf` decoded entries, and at
    /// most `issue_width` issues per cycle, each pending for at most the
    /// longest latency — so stepping never grows them.
    fn new(cfg: &CoreConfig) -> Ctx {
        let in_flight = usize::from(cfg.issue_width) * (cfg.max_latency() as usize + 1);
        Ctx {
            tsr: Tsr::new(),
            workload: None,
            dispatch: VecDeque::with_capacity(cfg.dispatch_buf),
            completion: vec![0; cfg.window],
            seq: 0,
            pending: BinaryHeap::with_capacity(in_flight),
            stats: CtxStats::default(),
            rate_anchor: (0, 0),
            predictor: BranchPredictor::default(),
            fetch_stall_until: 0,
        }
    }

    fn reset_progress(&mut self, now: Cycles) {
        self.dispatch.clear();
        self.completion.fill(0);
        self.seq = 0;
        self.pending.clear();
        self.rate_anchor = (now, self.stats.retired);
        self.fetch_stall_until = 0;
    }
}

/// The cycle-level 2-way SMT core.
pub struct SmtCore {
    pub(crate) cfg: CoreConfig,
    pub(crate) core_id: u8,
    pub(crate) cycle: Cycles,
    pub(crate) ctx: [Ctx; 2],
    pub(crate) units: UnitPool,
    pub(crate) l1d: Cache,
    pub(crate) l1i: Cache,
    pub(crate) l2: SharedCache,
    /// Precomputed Table-II/III grant patterns (process-wide singleton,
    /// resolved once at construction so `step` avoids both the per-cycle
    /// branch recomputation and the `OnceLock` load).
    pub(crate) lut: &'static GrantLut,
    /// Constants and reusable scratch for the busy-window hot engine;
    /// `None` when the configuration falls outside its envelope (the
    /// generic probe-and-step loop then serves the fast path alone).
    pub(crate) hot: Option<Box<crate::hot::HotState>>,
}

impl SmtCore {
    /// Build a core that owns a private L2 (single-core experiments).
    pub fn new(cfg: CoreConfig) -> SmtCore {
        let l2 = Arc::new(Mutex::new(Cache::new(cfg.l2)));
        SmtCore::with_l2(cfg, 0, l2)
    }

    /// Build a core attached to a (possibly shared) L2.
    pub fn with_l2(cfg: CoreConfig, core_id: u8, l2: SharedCache) -> SmtCore {
        let l1d = Cache::new(cfg.l1d);
        let l1i = Cache::new(cfg.l1i);
        let hot = crate::hot::HotState::for_config(&cfg, &l1d, &l1i);
        SmtCore {
            l1d,
            l1i,
            units: UnitPool::new(cfg.units),
            ctx: [Ctx::new(&cfg), Ctx::new(&cfg)],
            cfg,
            core_id,
            cycle: 0,
            l2,
            lut: GrantLut::global(),
            hot,
        }
    }

    /// Current simulated cycle.
    pub fn now(&self) -> Cycles {
        self.cycle
    }

    /// Statistics of a context.
    pub fn stats(&self, t: ThreadId) -> &CtxStats {
        &self.ctx[t.index()].stats
    }

    /// The core's private L1 data cache (for inspection in tests).
    pub fn l1d(&self) -> &Cache {
        &self.l1d
    }

    /// Configuration in use.
    pub fn config(&self) -> &CoreConfig {
        &self.cfg
    }

    fn can_decode(&self, t: ThreadId) -> bool {
        let c = &self.ctx[t.index()];
        !c.tsr.read().is_off()
            && c.workload.is_some()
            && c.dispatch.len() < self.cfg.dispatch_buf
            && c.fetch_stall_until <= self.cycle
            // Global-completion-table constraint: the spread between the
            // oldest in-flight instruction and the decode head — plus the
            // furthest dependency the oldest may still reference — must
            // fit in the scoreboard ring, or a new sentinel would clobber
            // a live dependency slot (out-of-order drain can let a
            // stalled oldest instruction fall arbitrarily far behind).
            && c.dispatch.front().map_or(true, |&(_, oldest)| {
                c.seq - oldest
                    + u64::from(self.cfg.decode_width)
                    + u64::from(crate::inst::MAX_DEP)
                    <= self.cfg.window as u64
            })
    }

    /// Branch-predictor statistics of a context (predictions, misses).
    pub fn branch_stats(&self, t: ThreadId) -> (u64, u64) {
        self.ctx[t.index()].predictor.stats()
    }

    /// Re-align the unit pool's lazy cycle marker with the reference
    /// path after a fast-forward `advance`. The reference loop calls
    /// `begin_cycle` every cycle, so at a checkpoint boundary its marker
    /// always reads `end - 1`; the fast paths skip quiet stretches and
    /// would leave it at the last *stepped* cycle. Skipped cycles issue
    /// nothing, so rolling the marker forward (which zeroes the
    /// per-cycle port counters exactly as the reference's empty cycles
    /// did) makes the snapshot bit-identical; if the final cycle was
    /// actually stepped this is a no-op and its counters survive.
    fn sync_units_cycle(&mut self, cycles: Cycles) {
        if cycles > 0 {
            self.units.begin_cycle(self.cycle - 1);
        }
    }

    /// One simulated cycle: decode, issue, retire.
    fn step(&mut self) {
        let now = self.cycle;
        let pa = self.ctx[0].tsr.read();
        let pb = self.ctx[1].tsr.read();

        // --- Decode ---------------------------------------------------
        let grant = self.lut.grant(pa, pb, now);
        if let Some(owner) = grant.owner {
            self.ctx[owner.index()].stats.slots_owned += 1;
        }
        let decoder: Option<(ThreadId, bool)> = match grant.owner {
            Some(owner) if self.can_decode(owner) => Some((owner, false)),
            Some(owner) => {
                let thief = owner.other();
                let may_steal = grant.leftover_allowed || self.cfg.slot_stealing;
                (may_steal && self.can_decode(thief)).then_some((thief, true))
            }
            None => None,
        };
        if let Some((t, stolen)) = decoder {
            let i = t.index();
            let room = self.cfg.dispatch_buf - self.ctx[i].dispatch.len();
            let n = room.min(self.cfg.decode_width as usize);
            let owner = self.core_id * 2 + i as u8;
            let mut icache_miss = false;
            for _ in 0..n {
                let inst = {
                    let c = &mut self.ctx[i];
                    let (_, gen) = c.workload.as_mut().expect("can_decode checked");
                    gen.next_inst()
                };
                // Instruction fetch: tag the code address with the owner
                // (separate address spaces) and probe the L1I. A miss
                // redirects the front end to the L2 for the line.
                let tagged_pc = inst.pc | (u64::from(owner) << 56) | (1 << 55);
                if !self.l1i.access(tagged_pc, owner) {
                    self.ctx[i].stats.l1i_misses += 1;
                    icache_miss = true;
                }
                let c = &mut self.ctx[i];
                let seq = c.seq;
                c.seq += 1;
                // Sentinel: not yet issued — dependents must wait.
                c.completion[(seq % self.cfg.window as u64) as usize] = Cycles::MAX;
                c.dispatch.push_back((inst, seq));
                c.stats.decoded += 1;
            }
            let c = &mut self.ctx[i];
            c.stats.slots_used += 1;
            if stolen {
                c.stats.slots_stolen += 1;
            }
            if icache_miss {
                // The fetch group that missed stalls further decode until
                // the line arrives from L2.
                c.fetch_stall_until = now + self.cfg.l2.hit_latency;
            }
        }

        // --- Issue ----------------------------------------------------
        self.units.begin_cycle(now);
        // Alternate which context gets first pick of the shared units.
        let first = if now % 2 == 0 { 0 } else { 1 };
        for &i in &[first, 1 - first] {
            let mut issued = 0;
            let mut slot = 0;
            // Out-of-order issue: scan a lookahead window of the dispatch
            // buffer for ready instructions; stalled ones are skipped.
            while issued < self.cfg.issue_width
                && slot < self.ctx[i].dispatch.len()
                && slot < self.cfg.lookahead
            {
                let (inst, seq) = self.ctx[i].dispatch[slot];
                // Dependency: the instruction `dep` positions back must
                // have completed. Beyond the scoreboard window we assume
                // completion (it is ancient history). Unissued in-flight
                // instructions carry a `Cycles::MAX` sentinel.
                let dep_dist = u64::from(inst.dep);
                if dep_dist > 0 && dep_dist <= seq && dep_dist <= self.cfg.window as u64 {
                    let dep_seq = seq - dep_dist;
                    let done_at =
                        self.ctx[i].completion[(dep_seq % self.cfg.window as u64) as usize];
                    if done_at > now {
                        self.ctx[i].stats.stall_dep += 1;
                        slot += 1;
                        continue;
                    }
                }
                if !self.units.try_issue(inst.class) {
                    // Structural hazard on this class; other classes may
                    // still issue this cycle.
                    self.ctx[i].stats.stall_unit += 1;
                    slot += 1;
                    continue;
                }
                let lat = self.exec_latency(i, inst);
                let c = &mut self.ctx[i];
                let done = now + lat;
                c.completion[(seq % self.cfg.window as u64) as usize] = done;
                c.pending.push(Reverse(done));
                c.dispatch.remove(slot);
                issued += 1;
                if inst.class == InstClass::Br && !c.predictor.predict_and_update(inst.taken) {
                    // Mispredict: everything decoded after the branch is
                    // wrong-path; flush it and stall the front end for the
                    // redirect. (Program order = buffer order, so the
                    // wrong path is everything at and beyond `slot`.)
                    // Flushed sequence numbers will never complete — clear
                    // their scoreboard sentinels so later instructions that
                    // depend on those positions (the re-fetched path) do
                    // not wait forever.
                    c.stats.br_mispredicts += 1;
                    while c.dispatch.len() > slot {
                        let (_, fseq) = c.dispatch.pop_back().expect("len > slot");
                        c.completion[(fseq % self.cfg.window as u64) as usize] = done;
                    }
                    c.fetch_stall_until = done + self.cfg.mispredict_penalty;
                    break;
                }
            }
        }

        // --- Retire ---------------------------------------------------
        for c in &mut self.ctx {
            while let Some(&Reverse(t)) = c.pending.peek() {
                if t <= now {
                    c.pending.pop();
                    c.stats.retired += 1;
                } else {
                    break;
                }
            }
        }

        self.cycle += 1;
    }

    /// Counters that change exactly when a cycle does real work — a
    /// decode, an issue (dispatch or pending length moves), a retire or a
    /// mispredict flush. Two consecutive equal signatures mean the cycle
    /// between them was *quiet*: nothing but slot ownership and stall
    /// accounting happened.
    fn activity_signature(&self) -> [[u64; 5]; 2] {
        [0, 1].map(|i| {
            let c = &self.ctx[i];
            [
                c.stats.decoded,
                c.stats.retired,
                c.stats.br_mispredicts,
                c.dispatch.len() as u64,
                c.pending.len() as u64,
            ]
        })
    }

    /// After a quiet probe cycle, the first cycle at which anything *can*
    /// happen again, capped at `end`. Until then every cycle replays the
    /// probe exactly:
    ///
    /// * nothing retires or unblocks a dependency before the earliest
    ///   pending completion (all unsatisfied scoreboard entries are either
    ///   `Cycles::MAX` sentinels or pending completion times);
    /// * a fetch-stalled context stays stalled until `fetch_stall_until`,
    ///   so decode eligibility is constant inside the window;
    /// * with eligibility constant, whether a decode happens at cycle `t`
    ///   is a pure function of the slot-grant pattern, which is periodic
    ///   in 64 cycles — scanning one period decides "never" conclusively.
    fn quiet_horizon(&self, end: Cycles) -> Cycles {
        let mut h = end;
        for c in &self.ctx {
            if let Some(&Reverse(t)) = c.pending.peek() {
                h = h.min(t);
            }
            if c.fetch_stall_until > self.cycle {
                h = h.min(c.fetch_stall_until);
            }
        }
        if h <= self.cycle {
            return self.cycle;
        }
        let pa = self.ctx[0].tsr.read();
        let pb = self.ctx[1].tsr.read();
        let elig = [self.can_decode(ThreadId::A), self.can_decode(ThreadId::B)];
        if !elig[0] && !elig[1] {
            // Nobody can decode at all inside the window; no need to look
            // for a grant position.
            return h;
        }
        for off in 0..64.min(h - self.cycle) {
            let t = self.cycle + off;
            let g = self.lut.grant(pa, pb, t);
            if let Some(owner) = g.owner {
                let may_steal = g.leftover_allowed || self.cfg.slot_stealing;
                if elig[owner.index()] || (may_steal && elig[owner.other().index()]) {
                    return t;
                }
            }
        }
        h
    }

    fn ctx_state(&self, i: usize) -> CycleCtxState {
        let c = &self.ctx[i];
        // The heap's only observable behaviour is its multiset of
        // completion times; a sorted vector captures it canonically.
        let mut pending: Vec<Cycles> = c.pending.iter().map(|r| r.0).collect();
        pending.sort_unstable();
        let (table, history, predictions, mispredictions) = c.predictor.save_state();
        CycleCtxState {
            priority: c.tsr.read().value(),
            workload: c.workload.as_ref().map(|(name, gen)| {
                let (spec, rng, cursor, pc, produced) = gen.save_state();
                (
                    name.to_string(),
                    StreamGenState {
                        spec,
                        rng,
                        cursor,
                        pc,
                        produced,
                    },
                )
            }),
            dispatch: c.dispatch.iter().copied().collect(),
            completion: c.completion.clone(),
            seq: c.seq,
            pending,
            stats: c.stats,
            rate_anchor: c.rate_anchor,
            predictor: PredictorState {
                table,
                history,
                predictions,
                mispredictions,
            },
            fetch_stall_until: c.fetch_stall_until,
        }
    }

    fn restore_ctx(&mut self, i: usize, s: &CycleCtxState) -> Result<(), String> {
        if s.completion.len() != self.cfg.window {
            return Err(format!(
                "context {i}: scoreboard length {} does not match window {}",
                s.completion.len(),
                self.cfg.window
            ));
        }
        let p = HwPriority::new(s.priority)
            .ok_or_else(|| format!("context {i}: invalid hardware priority {}", s.priority))?;
        let predictor = BranchPredictor::restore_state(
            s.predictor.table.clone(),
            s.predictor.history,
            s.predictor.predictions,
            s.predictor.mispredictions,
        )?;
        let c = &mut self.ctx[i];
        c.tsr.force(p);
        c.workload = s.workload.as_ref().map(|(name, g)| {
            (
                Arc::from(name.as_str()),
                StreamGen::restore_state(g.spec, g.rng, g.cursor, g.pc, g.produced),
            )
        });
        c.dispatch.clear();
        c.dispatch.extend(s.dispatch.iter().copied());
        c.completion.clone_from(&s.completion);
        c.seq = s.seq;
        c.pending.clear();
        c.pending.extend(s.pending.iter().map(|&t| Reverse(t)));
        c.stats = s.stats;
        c.rate_anchor = s.rate_anchor;
        c.predictor = predictor;
        c.fetch_stall_until = s.fetch_stall_until;
        Ok(())
    }

    fn exec_latency(&mut self, ctx_idx: usize, inst: Inst) -> Cycles {
        match inst.class {
            InstClass::Fx => self.cfg.fx_lat,
            InstClass::Fp => self.cfg.fp_lat,
            InstClass::Br => self.cfg.br_lat,
            InstClass::Ls => {
                let Some(addr) = inst.addr else {
                    return self.cfg.fx_lat;
                };
                let owner = self.core_id * 2 + ctx_idx as u8;
                // Address-space isolation between contexts: each context
                // walks its own working set, so tag the address with the
                // owner to avoid false sharing between unrelated streams.
                let tagged = addr | (u64::from(owner) << 56);
                let stats = &mut self.ctx[ctx_idx].stats;
                if self.l1d.access(tagged, owner) {
                    stats.l1_hits += 1;
                    self.cfg.l1d.hit_latency
                } else if self.l2.lock().unwrap().access(tagged, owner) {
                    stats.l2_hits += 1;
                    self.cfg.l1d.hit_latency + self.cfg.l2.hit_latency
                } else {
                    stats.mem_accesses += 1;
                    self.cfg.l1d.hit_latency + self.cfg.l2.hit_latency + self.cfg.mem_lat
                }
            }
        }
    }
}

fn cache_state(c: &Cache) -> CacheState {
    let (ways, stamps, tick, hits, misses, cross_evictions) = c.save_state();
    CacheState {
        ways,
        stamps,
        tick,
        hits,
        misses,
        cross_evictions,
    }
}

fn restore_cache(c: &mut Cache, s: &CacheState) -> Result<(), String> {
    c.restore_state(
        s.ways.clone(),
        s.stamps.clone(),
        s.tick,
        s.hits,
        s.misses,
        s.cross_evictions,
    )
}

impl CoreModel for SmtCore {
    fn set_priority(&mut self, t: ThreadId, p: HwPriority) {
        let now = self.cycle;
        let c = &mut self.ctx[t.index()];
        c.tsr.force(p);
        c.rate_anchor = (now, c.stats.retired);
        let o = &mut self.ctx[t.other().index()];
        o.rate_anchor = (now, o.stats.retired);
    }

    fn priority(&self, t: ThreadId) -> HwPriority {
        self.ctx[t.index()].tsr.read()
    }

    fn share_group(&self) -> Option<usize> {
        // Cores attached to the same L2 must never advance concurrently;
        // the Arc address identifies the domain.
        Some(Arc::as_ptr(&self.l2) as usize)
    }

    fn assign(&mut self, t: ThreadId, w: Workload) {
        let now = self.cycle;
        let c = &mut self.ctx[t.index()];
        c.workload = Some((w.name, w.stream.generator()));
        c.reset_progress(now);
    }

    fn clear(&mut self, t: ThreadId) {
        let now = self.cycle;
        let c = &mut self.ctx[t.index()];
        c.workload = None;
        c.reset_progress(now);
    }

    fn has_work(&self, t: ThreadId) -> bool {
        self.ctx[t.index()].workload.is_some()
    }

    /// Advance the core. With [`CoreConfig::fast_forward`] set (the
    /// default), each per-cycle `step` doubles as a probe: when it turns
    /// out quiet — no decode, issue, retire or flush — every following
    /// cycle up to [`SmtCore::quiet_horizon`] is provably identical, so
    /// the whole stretch is credited in closed form (ranged slot-grant
    /// census for `slots_owned`, probe deltas times length for the stall
    /// counters) and skipped. The per-cycle path is the reference; the
    /// differential tests pin the two to bit-identical [`CtxStats`].
    fn advance(&mut self, cycles: Cycles) -> [u64; 2] {
        let before = [self.ctx[0].stats.retired, self.ctx[1].stats.retired];
        let end = self.cycle + cycles;
        // Busy-window hot engine: a specialized transcription of `step`
        // (same operation order, same quiet-window skipping) that runs on
        // flat scratch instead of the heap-backed structures. It declines
        // configurations outside its envelope — then the generic
        // probe-and-step loop below serves the fast path as before.
        if self.cfg.fast_forward && crate::hot::advance_hot(self, end) {
            self.sync_units_cycle(cycles);
            return [
                self.ctx[0].stats.retired - before[0],
                self.ctx[1].stats.retired - before[1],
            ];
        }
        while self.cycle < end {
            if !self.cfg.fast_forward {
                self.step();
                continue;
            }
            let pre = self.activity_signature();
            let stalls_pre =
                [0, 1].map(|i| (self.ctx[i].stats.stall_dep, self.ctx[i].stats.stall_unit));
            self.step();
            if self.activity_signature() != pre {
                continue;
            }
            let horizon = self.quiet_horizon(end);
            if horizon <= self.cycle {
                continue;
            }
            let k = horizon - self.cycle;
            let (ca, cb) = crate::decode::grant_census_range(
                self.ctx[0].tsr.read(),
                self.ctx[1].tsr.read(),
                self.cycle,
                horizon,
            );
            self.ctx[0].stats.slots_owned += ca;
            self.ctx[1].stats.slots_owned += cb;
            for (i, (dep_pre, unit_pre)) in stalls_pre.into_iter().enumerate() {
                let s = &mut self.ctx[i].stats;
                s.stall_dep += k * (s.stall_dep - dep_pre);
                s.stall_unit += k * (s.stall_unit - unit_pre);
            }
            self.cycle = horizon;
        }
        if self.cfg.fast_forward {
            self.sync_units_cycle(cycles);
        }
        [
            self.ctx[0].stats.retired - before[0],
            self.ctx[1].stats.retired - before[1],
        ]
    }

    fn save_state(&self) -> CoreState {
        let (issued_this_cycle, current_cycle, total_issued, conflicts) = self.units.save_state();
        CoreState::Cycle(Box::new(CycleCoreState {
            cycle: self.cycle,
            ctx: [self.ctx_state(0), self.ctx_state(1)],
            units: UnitsState {
                issued_this_cycle,
                current_cycle,
                total_issued,
                conflicts,
            },
            l1d: cache_state(&self.l1d),
            l1i: cache_state(&self.l1i),
            l2: cache_state(&self.l2.lock().unwrap()),
        }))
    }

    fn restore_state(&mut self, s: &CoreState) -> Result<(), String> {
        let CoreState::Cycle(s) = s else {
            return Err(format!(
                "cycle-level core cannot restore a {} snapshot",
                s.kind()
            ));
        };
        self.cycle = s.cycle;
        for i in 0..2 {
            self.restore_ctx(i, &s.ctx[i])?;
        }
        self.units.restore_state(
            s.units.issued_this_cycle,
            s.units.current_cycle,
            s.units.total_issued,
            s.units.conflicts,
        );
        restore_cache(&mut self.l1d, &s.l1d)?;
        restore_cache(&mut self.l1i, &s.l1i)?;
        // Cores sharing one L2 carry identical copies; restoring each
        // writes the same contents, so the order does not matter.
        restore_cache(&mut self.l2.lock().unwrap(), &s.l2)?;
        Ok(())
    }

    fn retire_rate(&self, t: ThreadId) -> f64 {
        let c = &self.ctx[t.index()];
        if c.workload.is_none() || c.tsr.read().is_off() {
            return 0.0;
        }
        let (c0, r0) = c.rate_anchor;
        let dc = self.cycle.saturating_sub(c0);
        if dc >= 256 {
            (c.stats.retired - r0) as f64 / dc as f64
        } else {
            // Not enough observation yet: a crude prior (half the decode
            // width, scaled by nominal share) keeps the engine's step
            // heuristics sane until real data accumulates.
            let (sa, sb) =
                crate::decode::decode_share(self.ctx[0].tsr.read(), self.ctx[1].tsr.read());
            let share = match t {
                ThreadId::A => sa,
                ThreadId::B => sb,
            };
            (f64::from(self.cfg.decode_width) * share).max(0.05)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::StreamSpec;
    use crate::model::Workload;

    fn wl(spec: StreamSpec) -> Workload {
        Workload::from_spec("test", spec)
    }

    fn p(v: u8) -> HwPriority {
        HwPriority::new(v).unwrap()
    }

    /// Run two identical workloads for `cycles` at the given priorities and
    /// return retired counts.
    fn run_pair(pa: u8, pb: u8, cycles: Cycles) -> [u64; 2] {
        let mut core = SmtCore::new(CoreConfig::default());
        core.assign(ThreadId::A, wl(StreamSpec::frontend_bound(1)));
        core.assign(ThreadId::B, wl(StreamSpec::frontend_bound(2)));
        core.set_priority(ThreadId::A, p(pa));
        core.set_priority(ThreadId::B, p(pb));
        core.advance(cycles)
    }

    #[test]
    fn config_constants_match_inst_module() {
        // The analytic profile in `inst.rs` mirrors these defaults; keep in
        // sync or profiles drift from the cycle model.
        let cfg = CoreConfig::default();
        assert_eq!(f64::from(cfg.decode_width), crate::inst::DECODE_WIDTH);
        assert_eq!(cfg.fx_lat as f64, crate::inst::FX_LAT);
        assert_eq!(cfg.fp_lat as f64, crate::inst::FP_LAT);
        assert_eq!(cfg.l1d.hit_latency as f64, crate::inst::L1_LAT);
        assert_eq!(cfg.l2.hit_latency as f64, crate::inst::L2_LAT);
        assert_eq!(cfg.mem_lat as f64, crate::inst::MEM_LAT);
        assert_eq!(cfg.l1d.bytes, crate::inst::L1_BYTES);
        assert_eq!(cfg.l2.bytes, crate::inst::L2_BYTES);
        assert_eq!(cfg.units.counts.map(f64::from), crate::inst::UNITS);
    }

    #[test]
    fn equal_priorities_share_roughly_equally() {
        let [a, b] = run_pair(4, 4, 20_000);
        assert!(a > 0 && b > 0);
        let ratio = a as f64 / b as f64;
        assert!((0.8..1.25).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn higher_priority_retires_more() {
        let [a, b] = run_pair(6, 2, 20_000);
        assert!(
            a as f64 > 3.0 * b as f64,
            "diff-4 split should be heavily skewed: {a} vs {b}"
        );
    }

    #[test]
    fn penalized_thread_slows_superlinearly() {
        // The paper's MetBench Case D observation: throughput of the loser
        // decays much faster than linearly with priority difference.
        let n = 40_000;
        let base = run_pair(4, 4, n)[1] as f64;
        let d1 = run_pair(5, 4, n)[1] as f64;
        let d2 = run_pair(6, 4, n)[1] as f64;
        let d4 = run_pair(6, 2, n)[1] as f64;
        assert!(d1 < base, "losing 1 level must hurt: {d1} vs {base}");
        assert!(d2 < d1, "losing 2 levels hurts more");
        assert!(d4 < d2 * 0.8, "diff 4 collapses: {d4} vs {d2}");
        // Exponential, not linear: diff-4 should be far below half of base.
        assert!(
            d4 < base / 4.0,
            "superlinear collapse expected: {d4} vs {base}"
        );
    }

    #[test]
    fn st_mode_gives_thread_everything() {
        let n = 20_000;
        let mut core = SmtCore::new(CoreConfig::default());
        core.assign(ThreadId::A, wl(StreamSpec::frontend_bound(1)));
        core.set_priority(ThreadId::A, p(7));
        core.set_priority(ThreadId::B, p(0));
        let [a_st, b_st] = core.advance(n);
        assert_eq!(b_st, 0);
        // SMT pair for comparison.
        let [a_smt, _] = run_pair(4, 4, n);
        assert!(a_st > a_smt, "ST must beat SMT share: {a_st} vs {a_smt}");
    }

    #[test]
    fn off_context_makes_no_progress_even_with_work() {
        let mut core = SmtCore::new(CoreConfig::default());
        core.assign(ThreadId::A, wl(StreamSpec::balanced(1)));
        core.assign(ThreadId::B, wl(StreamSpec::balanced(2)));
        core.set_priority(ThreadId::A, p(0));
        core.set_priority(ThreadId::B, p(4));
        let [a, b] = core.advance(10_000);
        assert_eq!(a, 0);
        assert!(b > 0);
    }

    #[test]
    fn idle_partner_at_priority1_donates_bandwidth() {
        // The OS drops an idle context's priority to VERY LOW (Section
        // VI-A item 3); leftover mode then hands its decode slots to the
        // busy context. With the idle partner left at MEDIUM, its slots
        // are simply wasted (hard Table-II slices).
        let n = 40_000;
        let warmup = 20_000;
        let mut wasted = SmtCore::new(CoreConfig::default());
        wasted.assign(ThreadId::A, wl(StreamSpec::frontend_bound(1)));
        wasted.advance(warmup);
        let [a_wasted, _] = wasted.advance(n);

        let mut donated = SmtCore::new(CoreConfig::default());
        donated.assign(ThreadId::A, wl(StreamSpec::frontend_bound(1)));
        donated.set_priority(ThreadId::B, p(1));
        donated.advance(warmup);
        let [a_donated, _] = donated.advance(n);
        assert!(
            a_donated as f64 > a_wasted as f64 * 1.15,
            "priority-1 idle partner should unlock decode bandwidth: {a_donated} vs {a_wasted}"
        );
    }

    #[test]
    fn slot_stealing_config_recovers_idle_partner_slots() {
        let n = 40_000;
        let warmup = 20_000;
        let mut nosteal = SmtCore::new(CoreConfig::default());
        nosteal.assign(ThreadId::A, wl(StreamSpec::frontend_bound(1)));
        nosteal.advance(warmup);
        let [a_nosteal, _] = nosteal.advance(n);

        let cfg = CoreConfig {
            slot_stealing: true,
            ..CoreConfig::default()
        };
        let mut steal = SmtCore::new(cfg);
        steal.assign(ThreadId::A, wl(StreamSpec::frontend_bound(1)));
        steal.advance(warmup);
        let [a_steal, _] = steal.advance(n);
        assert!(
            a_steal as f64 > a_nosteal as f64 * 1.15,
            "stealing should matter for a frontend-bound stream: {a_steal} vs {a_nosteal}"
        );
    }

    #[test]
    fn leftover_mode_lets_priority1_progress() {
        let n = 40_000;
        let cfg = CoreConfig {
            slot_stealing: false,
            ..CoreConfig::default()
        };
        let mut core = SmtCore::new(cfg);
        core.assign(ThreadId::A, wl(StreamSpec::fpu_bound(1)));
        core.assign(ThreadId::B, wl(StreamSpec::fpu_bound(2)));
        core.set_priority(ThreadId::A, p(1));
        core.set_priority(ThreadId::B, p(4));
        let [a, b] = core.advance(n);
        assert!(b > 0);
        // The FPU-bound owner leaves decode slots unused; priority-1 A may
        // take the leftovers even with normal stealing disabled. Both
        // streams are dependency-bound, so the thief can approach the
        // owner's pace — what it must NOT do is exceed it.
        assert!(a > 0, "leftover mode must allow some progress");
        assert!(
            a <= b + b / 10,
            "the owner is never materially outrun: {a} vs {b}"
        );
    }

    #[test]
    fn fpu_bound_ipc_is_dependency_limited() {
        let n = 50_000;
        let mut core = SmtCore::new(CoreConfig::default());
        core.assign(ThreadId::A, wl(StreamSpec::fpu_bound(3)));
        core.set_priority(ThreadId::A, p(7));
        core.set_priority(ThreadId::B, p(0));
        let [a, _] = core.advance(n);
        let ipc = a as f64 / n as f64;
        assert!(ipc < 1.5, "fpu-bound ST IPC should be low: {ipc}");
        assert!(ipc > 0.2, "but not zero: {ipc}");
    }

    #[test]
    fn mem_bound_stream_hits_memory() {
        let mut core = SmtCore::new(CoreConfig::default());
        core.assign(ThreadId::A, wl(StreamSpec::mem_bound(3)));
        core.set_priority(ThreadId::A, p(7));
        core.set_priority(ThreadId::B, p(0));
        core.advance(50_000);
        let s = core.stats(ThreadId::A);
        assert!(s.mem_accesses > 0, "64 MiB working set must miss L2");
        assert!(s.retired > 0);
    }

    #[test]
    fn decode_slot_census_matches_table2_for_nonstalling_streams() {
        // frontend_bound decodes every owned slot, so the slots_owned split
        // must match Table II exactly; with the dispatch buffer draining
        // fast, used ≈ owned as well.
        let mut core = SmtCore::new(CoreConfig {
            slot_stealing: false,
            ..Default::default()
        });
        core.assign(ThreadId::A, wl(StreamSpec::frontend_bound(1)));
        core.assign(ThreadId::B, wl(StreamSpec::frontend_bound(2)));
        core.set_priority(ThreadId::A, p(6));
        core.set_priority(ThreadId::B, p(2));
        core.advance(3200);
        let sa = core.stats(ThreadId::A).slots_owned;
        let sb = core.stats(ThreadId::B).slots_owned;
        assert_eq!(sa, 3100);
        assert_eq!(sb, 100);
    }

    #[test]
    fn assign_resets_progress() {
        let mut core = SmtCore::new(CoreConfig::default());
        core.assign(ThreadId::A, wl(StreamSpec::balanced(1)));
        core.advance(5_000);
        assert!(core.has_work(ThreadId::A));
        core.clear(ThreadId::A);
        assert!(!core.has_work(ThreadId::A));
        let [a, _] = core.advance(1_000);
        assert_eq!(a, 0, "cleared context cannot retire");
    }

    #[test]
    fn retire_rate_reflects_observation() {
        let mut core = SmtCore::new(CoreConfig::default());
        core.assign(ThreadId::A, wl(StreamSpec::frontend_bound(1)));
        core.advance(20_000); // cache warmup
        core.set_priority(ThreadId::B, p(1)); // idle partner; resets anchor
        core.advance(10_000);
        let r = core.retire_rate(ThreadId::A);
        let [got, _] = core.advance(10_000);
        let actual = got as f64 / 10_000.0;
        assert!(
            (r - actual).abs() / actual < 0.2,
            "rate estimate {r} vs actual {actual}"
        );
        assert_eq!(core.retire_rate(ThreadId::B), 0.0);
    }

    #[test]
    fn determinism_same_seed_same_result() {
        let a = run_pair(5, 3, 10_000);
        let b = run_pair(5, 3, 10_000);
        assert_eq!(a, b);
    }

    #[test]
    fn icache_resident_code_stops_missing_after_warmup() {
        let mut core = SmtCore::new(CoreConfig::default());
        core.assign(ThreadId::A, wl(StreamSpec::balanced(1))); // 16 KiB code
        core.set_priority(ThreadId::A, p(7));
        core.set_priority(ThreadId::B, p(0));
        core.advance(30_000);
        let warm = core.stats(ThreadId::A).l1i_misses;
        core.advance(30_000);
        let after = core.stats(ThreadId::A).l1i_misses;
        assert!(
            after - warm < warm / 4 + 20,
            "resident code must stop missing: {warm} -> {after}"
        );
    }

    #[test]
    fn icache_thrashing_code_keeps_missing_and_slows_down() {
        let run = |spec: StreamSpec| {
            let mut core = SmtCore::new(CoreConfig::default());
            core.assign(ThreadId::A, wl(spec));
            core.set_priority(ThreadId::A, p(7));
            core.set_priority(ThreadId::B, p(0));
            core.advance(40_000); // warmup
            let [retired, _] = core.advance(60_000);
            (retired, core.stats(ThreadId::A).l1i_misses)
        };
        // Same mix, different code footprints.
        let small = StreamSpec {
            code_kb: 16,
            ..StreamSpec::icache_thrash(1)
        };
        let (r_small, m_small) = run(small);
        let (r_big, m_big) = run(StreamSpec::icache_thrash(1)); // 512 KiB
        assert!(
            m_big > 10 * m_small.max(1),
            "big code must miss: {m_big} vs {m_small}"
        );
        assert!(
            (r_big as f64) < r_small as f64 * 0.9,
            "icache misses must cost throughput: {r_big} vs {r_small}"
        );
    }

    #[test]
    fn branchy_code_mispredicts_and_pays() {
        let st = |spec: StreamSpec| {
            let mut core = SmtCore::new(CoreConfig::default());
            core.assign(ThreadId::A, wl(spec));
            core.set_priority(ThreadId::A, p(7));
            core.set_priority(ThreadId::B, p(0));
            let [a, _] = core.advance(50_000);
            (
                a,
                core.stats(ThreadId::A).br_mispredicts,
                core.branch_stats(ThreadId::A),
            )
        };
        let (_, misp_br, (preds, misses)) = st(StreamSpec::branch_bound(1));
        assert!(misp_br > 0, "branch-dense code must mispredict");
        assert_eq!(misp_br, misses);
        let ratio = misses as f64 / preds as f64;
        assert!(
            (0.03..0.30).contains(&ratio),
            "loop-biased outcomes miss near the exception rate: {ratio}"
        );
        // A branch-free stream never mispredicts.
        let (_, misp_fe, _) = st(StreamSpec::frontend_bound(1));
        assert_eq!(misp_fe, 0);
    }

    #[test]
    fn out_of_order_issue_beats_in_order() {
        let run = |lookahead: usize| {
            let cfg = CoreConfig {
                lookahead,
                ..CoreConfig::default()
            };
            let mut core = SmtCore::new(cfg);
            core.assign(ThreadId::A, wl(StreamSpec::frontend_bound(1)));
            core.set_priority(ThreadId::A, p(7));
            core.set_priority(ThreadId::B, p(0));
            core.advance(20_000); // warmup
            core.advance(30_000)[0]
        };
        let inorder = run(1);
        let ooo = run(16);
        assert!(
            ooo as f64 > inorder as f64 * 1.15,
            "the issue window must add ILP: {ooo} vs {inorder}"
        );
    }

    /// Run the same scenario on the fast-forward and per-cycle reference
    /// paths and demand bit-identical end states.
    fn assert_paths_agree(
        specs: [Option<StreamSpec>; 2],
        prios: (u8, u8),
        reprios: Option<(u8, u8)>,
        chunks: &[Cycles],
        stealing: bool,
    ) {
        let run = |fast: bool| {
            let cfg = CoreConfig {
                slot_stealing: stealing,
                fast_forward: fast,
                ..CoreConfig::default()
            };
            let mut core = SmtCore::new(cfg);
            if let Some(s) = specs[0] {
                core.assign(ThreadId::A, wl(s));
            }
            if let Some(s) = specs[1] {
                core.assign(ThreadId::B, wl(s));
            }
            core.set_priority(ThreadId::A, p(prios.0));
            core.set_priority(ThreadId::B, p(prios.1));
            let mut retired = Vec::new();
            for (n, &chunk) in chunks.iter().enumerate() {
                if n == chunks.len() / 2 {
                    if let Some((ra, rb)) = reprios {
                        core.set_priority(ThreadId::A, p(ra));
                        core.set_priority(ThreadId::B, p(rb));
                    }
                }
                retired.push(core.advance(chunk));
            }
            (
                *core.stats(ThreadId::A),
                *core.stats(ThreadId::B),
                core.now(),
                core.branch_stats(ThreadId::A),
                core.branch_stats(ThreadId::B),
                retired,
            )
        };
        assert_eq!(
            run(true),
            run(false),
            "fast-forward must be bit-identical to the per-cycle reference \
             (specs {specs:?}, prios {prios:?} -> {reprios:?}, steal {stealing})"
        );
    }

    #[test]
    fn fast_forward_matches_reference_on_characteristic_scenarios() {
        let fe = StreamSpec::frontend_bound(1);
        let mem = StreamSpec::mem_bound(3);
        let fpu = StreamSpec::fpu_bound(2);
        // Idle sibling, special modes, big priority gaps, mid-run
        // repriorization, slot stealing, stopped core.
        assert_paths_agree([Some(fe), None], (4, 4), None, &[10_000], false);
        assert_paths_agree([Some(fe), None], (4, 1), None, &[7_001, 2_999], false);
        assert_paths_agree([Some(mem), Some(fe)], (6, 2), None, &[5_000, 5_000], false);
        assert_paths_agree([Some(mem), Some(mem)], (1, 1), None, &[20_000], false);
        assert_paths_agree([Some(fe), Some(fpu)], (0, 1), None, &[10_000], false);
        assert_paths_agree([Some(fe), Some(fe)], (0, 0), None, &[10_000], false);
        assert_paths_agree(
            [Some(fpu), Some(mem)],
            (2, 6),
            Some((6, 2)),
            &[3_000; 6],
            false,
        );
        assert_paths_agree(
            [Some(fe), Some(mem)],
            (4, 4),
            Some((0, 7)),
            &[4_000; 4],
            true,
        );
        let chase = StreamSpec::pointer_chase(5);
        assert_paths_agree([Some(chase), Some(chase)], (4, 4), None, &[20_000], false);
        assert_paths_agree(
            [Some(chase), Some(fe)],
            (1, 4),
            Some((4, 1)),
            &[6_000; 4],
            true,
        );
    }

    #[test]
    fn fast_forward_skips_most_cycles_when_memory_bound() {
        // Sanity that the fast path actually engages: a mem-bound stream
        // spends ~mem_lat cycles per miss with a full dispatch buffer, so
        // almost all cycles are quiet. We cannot observe skip counts
        // directly, but identical results at a fraction of the work is the
        // bench layer's job; here we at least pin the census bookkeeping.
        let mut core = SmtCore::new(CoreConfig::default());
        core.assign(ThreadId::A, wl(StreamSpec::mem_bound(3)));
        core.set_priority(ThreadId::A, p(7));
        core.set_priority(ThreadId::B, p(0));
        core.advance(50_000);
        let s = core.stats(ThreadId::A);
        assert_eq!(s.slots_owned, 50_000, "ST owner owns every cycle");
        assert!(s.mem_accesses > 0);
    }

    #[test]
    fn save_restore_resumes_bit_identically() {
        let mk = || {
            let mut core = SmtCore::new(CoreConfig::default());
            core.assign(ThreadId::A, wl(StreamSpec::mem_bound(3)));
            core.assign(ThreadId::B, wl(StreamSpec::branch_bound(4)));
            core.set_priority(ThreadId::A, p(5));
            core.set_priority(ThreadId::B, p(3));
            core
        };
        let mut whole = mk();
        whole.advance(30_000);

        let mut donor = mk();
        donor.advance(11_337);
        let snap = donor.save_state();

        // Restore into a core that has diverged, then run the remainder:
        // every observable bit must match the uninterrupted run.
        let mut resumed = mk();
        resumed.advance(999);
        resumed.restore_state(&snap).unwrap();
        resumed.advance(30_000 - 11_337);
        assert_eq!(whole.save_state(), resumed.save_state());
        assert_eq!(whole.now(), resumed.now());
    }

    #[test]
    fn restore_rejects_mismatched_shapes() {
        let mut core = SmtCore::new(CoreConfig::default());
        core.assign(ThreadId::A, wl(StreamSpec::balanced(1)));
        core.advance(1_000);
        let snap = core.save_state();

        // Different scoreboard window.
        let mut small = SmtCore::new(CoreConfig {
            window: 64,
            ..CoreConfig::default()
        });
        assert!(small.restore_state(&snap).is_err());

        // Different cache geometry.
        let mut tiny_l1 = SmtCore::new(CoreConfig {
            l1d: CacheConfig {
                bytes: 4096,
                line_size: 64,
                assoc: 2,
                hit_latency: 2,
            },
            ..CoreConfig::default()
        });
        assert!(tiny_l1.restore_state(&snap).is_err());

        // Wrong fidelity.
        let meso = crate::perfmodel::MesoCore::default();
        assert!(core.restore_state(&meso.save_state()).is_err());
    }

    #[test]
    fn scoreboard_never_deadlocks_on_long_runs() {
        // Regression test for the sentinel-clobber deadlock: every stream
        // keeps retiring over a long horizon.
        for spec in [
            StreamSpec::balanced(3),
            StreamSpec::branch_bound(4),
            StreamSpec::l2_bound(5),
            StreamSpec::fpu_bound(6),
        ] {
            let mut core = SmtCore::new(CoreConfig::default());
            core.assign(ThreadId::A, wl(spec));
            core.assign(ThreadId::B, wl(StreamSpec::balanced(9)));
            core.advance(50_000);
            let before = core.stats(ThreadId::A).retired;
            core.advance(50_000);
            let after = core.stats(ThreadId::A).retired;
            assert!(
                after > before + 100,
                "stream {spec:?} stopped retiring: {before} -> {after}"
            );
        }
    }

    proptest::proptest! {
        /// The fast-forward path is bit-identical to the per-cycle
        /// reference over random priorities, streams, seeds, chunkings
        /// and the stealing switch.
        #[test]
        fn prop_fast_forward_bit_identical(
            pa in 0u8..=7, pb in 0u8..=7,
            sa in 0usize..7, sb in 0usize..8,
            seed_a in 1u64..50, seed_b in 1u64..50,
            chunks in proptest::collection::vec(1u64..3_000, 1..5),
            steal in 0u8..2,
            // 8 in the first slot means "no mid-run repriorization".
            ra in 0u8..=8, rb in 0u8..=7,
        ) {
            let spec = |which: usize, seed: u64| match which {
                0 => Some(StreamSpec::frontend_bound(seed)),
                1 => Some(StreamSpec::balanced(seed)),
                2 => Some(StreamSpec::mem_bound(seed)),
                3 => Some(StreamSpec::fpu_bound(seed)),
                4 => Some(StreamSpec::branch_bound(seed)),
                5 => Some(StreamSpec::l2_bound(seed)),
                6 => Some(StreamSpec::pointer_chase(seed)),
                _ => None, // idle context
            };
            assert_paths_agree(
                [spec(sa, seed_a), spec(sb, seed_b)],
                (pa, pb),
                (ra <= 7).then_some((ra, rb)),
                &chunks,
                steal == 1,
            );
        }

        /// Interrupting a steady decode window must be invisible: a
        /// checkpoint at an arbitrary offset *inside* the hot engine's
        /// grant period (`periods * 64 + offset` lands mid-template),
        /// round-tripped through `save_state`/`restore_state` into a
        /// fresh core, must resume to the same bits as both the
        /// uninterrupted fast run and the per-cycle reference.
        #[test]
        fn prop_steady_window_split_identity(
            seed_a in 1u64..50, seed_b in 1u64..50,
            periods in 1u64..40, offset in 0u64..64,
            pa in 1u8..=7, pb in 1u8..=7,
        ) {
            use crate::decode::GRANT_PERIOD;
            let total = 20_000;
            let split = periods * GRANT_PERIOD + offset;
            let mk = |fast: bool| {
                let mut core = SmtCore::new(CoreConfig {
                    fast_forward: fast,
                    ..CoreConfig::default()
                });
                core.assign(ThreadId::A, wl(StreamSpec::frontend_bound(seed_a)));
                core.assign(ThreadId::B, wl(StreamSpec::frontend_bound(seed_b)));
                core.set_priority(ThreadId::A, p(pa));
                core.set_priority(ThreadId::B, p(pb));
                core
            };
            let fingerprint = |core: &SmtCore| {
                (
                    core.save_state(),
                    *core.stats(ThreadId::A),
                    *core.stats(ThreadId::B),
                    core.now(),
                )
            };

            let mut reference = mk(false);
            reference.advance(total);

            let mut whole = mk(true);
            whole.advance(total);

            let mut donor = mk(true);
            donor.advance(split);
            let snap = donor.save_state();
            let mut resumed = mk(true);
            resumed.restore_state(&snap).unwrap();
            resumed.advance(total - split);

            proptest::prop_assert_eq!(fingerprint(&whole), fingerprint(&reference));
            proptest::prop_assert_eq!(fingerprint(&resumed), fingerprint(&reference));
        }
    }
}
