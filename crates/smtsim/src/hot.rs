//! Busy-window hot engine for the cycle core's fast-forward path.
//!
//! The quiet-cycle skip in [`crate::core::SmtCore::advance`] only pays
//! when a context is *stalled*; decode-bound windows step every cycle
//! and used to run at the reference path's speed (the table3-frontend
//! sweep measured ~1.0×). This module is a specialized transcription of
//! `SmtCore::step` for exactly those busy stretches: the same logical
//! operations in the same order — so results are bit-identical, enforced
//! by the differential suites — but on flat, precomputed state:
//!
//! * **Issue masks** replace the walk of the issue window. Every queued
//!   instruction owns bit `seq % 128` of three kinds of `u128` mask per
//!   context: *queued*, *ready* (its dependency has completed by now)
//!   and one per unit class. Rotating a mask right by the decode head
//!   puts the queue in program order from bit 0, so a cycle's issues
//!   come from `queued & ready & open` (`open`: classes with a free
//!   unit), and its `stall_dep`, `stall_unit` and per-class conflict
//!   counts are popcounts of the entries the walk passed over. The walk
//!   semantics carry over exactly: the other context takes its units
//!   first on alternate cycles; a class that saturates mid-walk blocks
//!   only the entries after that point; the walk ends at the
//!   `issue_width`-th issue, after `lookahead` stalled entries (each
//!   issue shifts one more entry into the window, so only stalls use the
//!   window up) or at a mispredict, which flushes the rest of the queue.
//! * **Why 128 bits suffice.** The GCT rule in `can_decode` keeps the
//!   queue within `window - MAX_DEP` sequence numbers of the decode head
//!   (128 at the defaults), so queued entries own distinct bits; and
//!   with `window >= MAX_DEP + decode_width` the scoreboard never
//!   aliases a live dependency. [`HotState::for_config`] declines
//!   configurations outside those bounds.
//! * **Dependency wake-up.** An entry whose dependency is still queued
//!   waits in that entry's dependents list; when the dependency issues
//!   it files the dependents under their completion cycle in a *wake*
//!   ring, which the issue stage of that cycle ORs into the ready mask.
//!   Every wake cycle is also a pending completion, so the quiet skip
//!   never jumps over one. A dependents list cannot meet a reused bit
//!   while it is live: reuse needs 128 newer sequence numbers, which the
//!   GCT rule forbids while the (older) dependency is still queued. A
//!   flushed entry leaves a dead node behind (skipped: its bit is no
//!   longer queued) and its pending wake bit is withdrawn, because its
//!   bit comes back within ~26 cycles, well inside the latency span.
//! * **Grant period hoisting**: the two priority indices of the
//!   [`crate::decode::GrantLut`] are resolved once per `advance` window
//!   ([`crate::decode::GrantLut::period`]); the per-cycle lookup is a
//!   single `cycle & 63` load. Slot-ownership stats are accumulated in
//!   registers and flushed per window, and skipped stretches are credited
//!   by ranged census exactly like the generic path.
//! * **Completion-count ring** replaces the retire [`BinaryHeap`]: all
//!   in-flight completion times lie within `max_lat` cycles of `now`, so
//!   a power-of-two ring of counters gives O(1) insert and O(1) retire,
//!   and an occupancy bitmap finds the next completion for the quiet
//!   probe a word at a time.
//! * **Decode trims**: one L1I lookup per fetch line within a decode
//!   group — the later same-line fetches are repeat hits on the way the
//!   first one left the line in ([`Cache::repeat_hits`]) — and L1
//!   set/tag from shifts ([`crate::cache::Cache::pow2_index`]).
//!   Latencies come from a per-class table; only a load or store with an
//!   address reaches the caches.
//! * **Arena-style scratch**: the masks, mirrors and rings live in
//!   [`HotState`] and are reused across `advance` calls; the rings are
//!   left empty on exit, so the engine performs no heap allocation and
//!   clears nothing on entry.
//!
//! Configurations outside the envelope ([`HotState::for_config`]) — or
//! checkpoint states the masks cannot mirror exactly ([`mirrorable`]) —
//! decline the hot path and fall back to the generic probe-and-step
//! loop, which remains behaviorally identical.
//!
//! Checkpoint boundaries are forced exit points: the engine converts its
//! flat state back into the canonical [`crate::core::Ctx`] structures at
//! the end of every `advance` window, so `save_state` and
//! `execute_chunked` observe exactly the states the reference path
//! produces.
//!
//! [`BinaryHeap`]: std::collections::BinaryHeap

use std::cmp::Reverse;

use crate::cache::{Cache, Pow2Index};
use crate::core::{CoreConfig, Ctx, SmtCore};
use crate::decode::{grant_census_range, GRANT_PERIOD};
use crate::inst::{Inst, InstClass, MAX_DEP};
use crate::Cycles;

/// Width of the issue masks: a queued instruction owns bit
/// `seq % MASK_BITS`.
const MASK_BITS: u64 = 128;

/// Empty link in the dependents lists.
const NO_DEP: u8 = u8::MAX;

/// A dispatch-buffer entry, stored at its mask bit.
#[derive(Debug, Clone, Copy)]
struct HotEntry {
    seq: u64,
    pc: u64,
    /// Raw data address; `u64::MAX` = none (generator addresses are
    /// bounded by the working-set size, so the sentinel is unambiguous).
    addr: u64,
    dep: u32,
    /// Scoreboard slot (`seq % window`) its issue writes.
    slot: u32,
    class: InstClass,
    taken: bool,
}

impl HotEntry {
    fn new(inst: Inst, seq: u64, slot: u32) -> HotEntry {
        HotEntry {
            seq,
            pc: inst.pc,
            addr: inst.addr.unwrap_or(u64::MAX),
            dep: inst.dep,
            slot,
            class: inst.class,
            taken: inst.taken,
        }
    }

    fn to_inst(self) -> Inst {
        Inst {
            class: self.class,
            addr: (self.addr != u64::MAX).then_some(self.addr),
            dep: self.dep,
            taken: self.taken,
            pc: self.pc,
        }
    }
}

/// One context's mirror of its dispatch buffer and completion heap.
#[derive(Debug)]
struct HotCtx {
    /// Queued entries by mask bit.
    slab: [HotEntry; MASK_BITS as usize],
    /// Per mask bit: the cycle from which the entry's dependency is
    /// satisfied — 0 without one, [`Cycles::MAX`] while the dependency
    /// is still queued.
    ready_at: [Cycles; MASK_BITS as usize],
    /// Head of each entry's list of waiting dependents ([`NO_DEP`] =
    /// empty), by mask bit.
    dep_head: [u8; MASK_BITS as usize],
    /// Next links of the dependents lists, by the dependent's mask bit.
    dep_next: [u8; MASK_BITS as usize],
    /// Bits of the queued entries.
    queued: u128,
    /// Bits of the queued entries whose dependency is satisfied.
    ready: u128,
    /// Bits of the queued entries of each unit class, by
    /// [`InstClass::index`].
    class: [u128; 4],
    /// Number of queued entries.
    len: u32,
    /// Completion counts by `time & ring_mask`.
    ring: Vec<u32>,
    /// One bit per `ring` slot, set while its count is nonzero.
    occupied: Vec<u64>,
    /// Bits of the entries whose dependency completes at `time`, by
    /// `time & ring_mask`.
    wake: Vec<u128>,
}

impl HotCtx {
    fn new(ring_len: usize) -> HotCtx {
        let vacant = HotEntry {
            seq: 0,
            pc: 0,
            addr: u64::MAX,
            dep: 0,
            slot: 0,
            class: InstClass::Fx,
            taken: false,
        };
        HotCtx {
            slab: [vacant; MASK_BITS as usize],
            ready_at: [0; MASK_BITS as usize],
            dep_head: [NO_DEP; MASK_BITS as usize],
            dep_next: [NO_DEP; MASK_BITS as usize],
            queued: 0,
            ready: 0,
            class: [0; 4],
            len: 0,
            ring: vec![0; ring_len],
            occupied: vec![0; ring_len / 64],
            wake: vec![0; ring_len],
        }
    }

    /// Queue `inst` (sequence number `seq`, scoreboard slot `slot`) at
    /// its mask bit and resolve its dependency against the scoreboard,
    /// exactly as the reference issue check reads it.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    fn push(
        &mut self,
        inst: Inst,
        seq: u64,
        slot: u32,
        completion: &[Cycles],
        window: u32,
        now: Cycles,
        ring_mask: u64,
    ) {
        let b = (seq % MASK_BITS) as usize;
        let bit = 1u128 << b;
        self.slab[b] = HotEntry::new(inst, seq, slot);
        self.dep_head[b] = NO_DEP;
        self.queued |= bit;
        self.class[inst.class.index()] |= bit;
        self.len += 1;

        let dep = inst.dep;
        let t = if dep > 0 && u64::from(dep) <= seq && dep <= window {
            let mut d = slot + window - dep;
            if d >= window {
                d -= window;
            }
            completion[d as usize]
        } else {
            0
        };
        self.ready_at[b] = t;
        // Which of the three cases holds is data-random, so all three
        // are written with selects: link into the dependency's list
        // while it is queued, else ready now, else wake at `t`. (The
        // unconditional `dep_next[b]` store is dead unless linked.)
        let waiting = t == Cycles::MAX;
        let d = (seq.wrapping_sub(u64::from(dep)) % MASK_BITS) as usize;
        self.dep_next[b] = self.dep_head[d];
        self.dep_head[d] = if waiting { b as u8 } else { self.dep_head[d] };
        self.ready |= if t <= now { bit } else { 0 };
        self.wake[(t & ring_mask) as usize] |= if t > now && !waiting { bit } else { 0 };
    }

    /// The entry at bit `b` issued, completing at `done`: file its
    /// waiting dependents under `done`.
    #[inline]
    fn wake_dependents(&mut self, b: usize, done: Cycles, ring_mask: u64) {
        let mut link = self.dep_head[b];
        while link != NO_DEP {
            let d = usize::from(link);
            link = self.dep_next[d];
            // A dead node (flushed dependent) has no queued bit; a queued
            // one is the live dependent itself (module docs).
            if self.queued >> d & 1 == 1 {
                self.ready_at[d] = done;
                self.wake[(done & ring_mask) as usize] |= 1 << d;
            }
        }
    }

    /// Drop the entries of `flushed` (rotated right by `r`) from the
    /// queue after a mispredict resolving at `done`, writing `done` into
    /// their scoreboard slots like the reference and withdrawing their
    /// pending wake bits.
    fn flush(
        &mut self,
        flushed: u128,
        r: u32,
        done: Cycles,
        now: Cycles,
        completion: &mut [Cycles],
        ring_mask: u64,
    ) {
        let mut f = flushed;
        while f != 0 {
            let b = ((f.trailing_zeros() + r) % MASK_BITS as u32) as usize;
            f &= f - 1;
            completion[self.slab[b].slot as usize] = done;
            let t = self.ready_at[b];
            if t > now && t != Cycles::MAX {
                self.wake[(t & ring_mask) as usize] &= !(1 << b);
            }
        }
        let raw = flushed.rotate_left(r);
        self.queued &= !raw;
        self.ready &= !raw;
        for m in &mut self.class {
            *m &= !raw;
        }
        self.len -= flushed.count_ones();
    }

    /// Count a completion at `done`.
    #[inline]
    fn complete_at(&mut self, done: Cycles, ring_mask: u64) {
        let s = (done & ring_mask) as usize;
        self.ring[s] += 1;
        self.occupied[s / 64] |= 1 << (s % 64);
    }

    /// Retire the completions counted at `now`; returns how many.
    #[inline]
    fn retire(&mut self, now: Cycles, ring_mask: u64) -> u32 {
        let s = (now & ring_mask) as usize;
        let n = self.ring[s];
        if n > 0 {
            self.ring[s] = 0;
            self.occupied[s / 64] &= !(1 << (s % 64));
        }
        n
    }

    /// The first cycle at or after `from` with a counted completion. All
    /// counted completions lie within one ring length of `from`, so the
    /// answer is exact; `Cycles::MAX` when there are none.
    fn next_completion(&self, from: Cycles, ring_mask: u64) -> Cycles {
        let words = self.occupied.len();
        let p = (from & ring_mask) as usize;
        let (w0, sh) = (p / 64, p % 64);
        let head = self.occupied[w0] >> sh;
        if head != 0 {
            return from + u64::from(head.trailing_zeros());
        }
        let mut off = (64 - sh) as u64;
        for k in 1..=words {
            let w = self.occupied[(w0 + k) % words];
            if w != 0 {
                return from + off + u64::from(w.trailing_zeros());
            }
            off += 64;
        }
        Cycles::MAX
    }

    /// Decode eligibility, identical to `SmtCore::can_decode` over the
    /// masks: the oldest queued sequence number is `head - 128 + k`,
    /// where `k` is the lowest bit of the queue in program order.
    /// `base`: a workload is installed and the context is not shut off.
    #[inline]
    fn can_decode(&self, c: &Ctx, head: u64, now: Cycles, base: bool, cfg: &CoreConfig) -> bool {
        base && (self.len as usize) < cfg.dispatch_buf
            && c.fetch_stall_until <= now
            && (self.queued == 0 || {
                let lowest = self
                    .queued
                    .rotate_right((head % MASK_BITS) as u32)
                    .trailing_zeros();
                MASK_BITS - u64::from(lowest) + u64::from(cfg.decode_width) + u64::from(MAX_DEP)
                    <= cfg.window as u64
            })
    }
}

/// The lowest `k` set bits of `m`, which has `n` set bits.
#[inline]
fn lowest_bits(m: u128, k: u32, n: u32) -> u128 {
    if k >= n {
        return m;
    }
    let mut rest = m;
    for _ in 0..k {
        rest &= rest - 1;
    }
    m ^ rest
}

/// Precomputed constants and reusable scratch for the hot engine.
#[derive(Debug)]
pub(crate) struct HotState {
    /// Largest possible result latency under this configuration; bounds
    /// how far ahead of `now` a pending completion can lie.
    max_lat: Cycles,
    /// Power-of-two ring index mask (`ring length - 1`).
    ring_mask: u64,
    l1d_idx: Pow2Index,
    l1i_idx: Pow2Index,
    ctx: [HotCtx; 2],
}

impl HotState {
    /// Build the hot-engine state when the configuration fits its
    /// envelope: at least one decode slot per owned cycle (the activity
    /// probe equates "decode granted" with "instructions decoded"),
    /// results at least one cycle away (a dependent never wakes inside
    /// the walk that issued its dependency), power-of-two L1 set counts,
    /// a bounded completion-latency span, and a scoreboard window that
    /// fits the issue masks (module docs).
    pub(crate) fn for_config(cfg: &CoreConfig, l1d: &Cache, l1i: &Cache) -> Option<Box<HotState>> {
        let window = cfg.window as u64;
        let max_dep = u64::from(MAX_DEP);
        if cfg.decode_width == 0
            || window > MASK_BITS + max_dep
            || window < max_dep + u64::from(cfg.decode_width)
            || cfg
                .fx_lat
                .min(cfg.fp_lat)
                .min(cfg.br_lat)
                .min(cfg.l1d.hit_latency)
                == 0
        {
            return None;
        }
        let l1d_idx = l1d.pow2_index()?;
        let l1i_idx = l1i.pow2_index()?;
        let max_lat = cfg.max_latency();
        let ring_len = (max_lat + 2).next_power_of_two().max(64);
        if ring_len > 8192 {
            return None;
        }
        Some(Box::new(HotState {
            max_lat,
            ring_mask: ring_len - 1,
            l1d_idx,
            l1i_idx,
            ctx: [
                HotCtx::new(ring_len as usize),
                HotCtx::new(ring_len as usize),
            ],
        }))
    }
}

/// Whether the masks can mirror context `c` at cycle `now` exactly —
/// always true for states this simulator produced; a foreign checkpoint
/// could break it. Pending completions must lie within the ring span;
/// the queue must hold ascending sequence numbers within [`MASK_BITS`]
/// of the decode head with generator-range dependencies; and every
/// scoreboard entry a queued or future instruction can depend on must
/// hold either the sentinel of a queued entry or a time the wake ring
/// can file.
fn mirrorable(c: &Ctx, now: Cycles, window: usize, max_lat: Cycles) -> bool {
    let in_span = |t: Cycles| t >= now && t - now <= max_lat;
    if !c.pending.iter().all(|&Reverse(t)| in_span(t)) {
        return false;
    }
    let head = c.seq;
    let oldest = c.dispatch.front().map_or(head, |&(_, s)| s);
    if oldest > head || head - oldest > MASK_BITS {
        return false;
    }
    let mut prev = None;
    for &(inst, s) in &c.dispatch {
        if s >= head || prev.is_some_and(|p| s <= p) || inst.dep > MAX_DEP {
            return false;
        }
        prev = Some(s);
    }
    let mut queued = c.dispatch.iter().map(|&(_, s)| s).peekable();
    let lo = oldest.saturating_sub(u64::from(MAX_DEP));
    let mut slot = (lo % window as u64) as usize;
    for s in lo..head {
        while queued.next_if(|&q| q < s).is_some() {}
        let t = c.completion[slot];
        if t == Cycles::MAX {
            if queued.peek() != Some(&s) {
                return false;
            }
        } else if t > now && !in_span(t) {
            return false;
        }
        slot += 1;
        if slot == window {
            slot = 0;
        }
    }
    true
}

/// Advance `core` to `end` on the hot engine. Returns `false` — with the
/// core untouched — when the engine does not apply (no [`HotState`] for
/// this configuration, or a state the masks cannot mirror); the caller
/// then runs the generic fast-forward loop.
pub(crate) fn advance_hot(core: &mut SmtCore, end: Cycles) -> bool {
    let SmtCore {
        cfg,
        core_id,
        cycle,
        ctx,
        units,
        l1d,
        l1i,
        l2,
        lut,
        hot,
    } = core;
    let Some(hot) = hot else {
        return false;
    };
    let HotState {
        max_lat,
        ring_mask,
        l1d_idx,
        l1i_idx,
        ctx: hctx,
    } = &mut **hot;
    let (max_lat, ring_mask, l1d_idx, l1i_idx) = (*max_lat, *ring_mask, *l1d_idx, *l1i_idx);

    let now0 = *cycle;
    if end <= now0 {
        return true;
    }
    // Validate before mutating anything.
    if !ctx.iter().all(|c| mirrorable(c, now0, cfg.window, max_lat)) {
        return false;
    }

    // --- Hoisted per-window constants ---------------------------------
    let window32 = cfg.window as u32;
    let pa = ctx[0].tsr.read();
    let pb = ctx[1].tsr.read();
    let sched = lut.period(pa, pb);
    let steal_cfg = cfg.slot_stealing;
    let can_base = [0, 1].map(|i| ctx[i].workload.is_some() && !ctx[i].tsr.read().is_off());
    let owner8 = [*core_id * 2, *core_id * 2 + 1];
    let owner_tag = owner8.map(|o| u64::from(o) << 56);
    let dispatch_buf = cfg.dispatch_buf;
    let decode_width = cfg.decode_width as usize;
    let issue_width = cfg.issue_width;
    // The queue never holds more than `MASK_BITS` entries, so a longer
    // lookahead is never the binding limit.
    let lookahead = cfg.lookahead.min(MASK_BITS as usize) as u32;
    let counts = cfg.units.counts;
    let l2_hit = cfg.l2.hit_latency;
    let l1d_hit = cfg.l1d.hit_latency;
    let l2d = l1d_hit + cfg.l2.hit_latency;
    let memlat = l2d + cfg.mem_lat;
    // Result latency by class; a load or store with an address replaces
    // its entry with the cache walk.
    let lat_of = [cfg.fx_lat, cfg.fp_lat, cfg.fx_lat, cfg.br_lat];
    let ls = InstClass::Ls.index();
    let penalty = cfg.mispredict_penalty;

    // --- Enter: mirror the canonical state into the flat scratch ------
    let mut seqv = [ctx[0].seq, ctx[1].seq];
    let mut head = [0u32; 2];
    let mut pend = [0u32; 2];
    for i in 0..2 {
        let (c, h) = (&ctx[i], &mut hctx[i]);
        head[i] = (seqv[i] % cfg.window as u64) as u32;
        h.queued = 0;
        h.ready = 0;
        h.class = [0; 4];
        h.len = 0;
        // Ascending order: a queued dependency is pushed (and its list
        // emptied) before any dependent links into it.
        for &(inst, seq) in &c.dispatch {
            let slot = (seq % cfg.window as u64) as u32;
            h.push(inst, seq, slot, &c.completion, window32, now0, ring_mask);
        }
        for &Reverse(t) in c.pending.iter() {
            h.complete_at(t, ring_mask);
        }
        pend[i] = c.pending.len() as u32;
    }
    let (_, _, mut tot, mut confl) = units.save_state();
    let mut issued_now = [0u8; 4];
    let mut last_stepped: Option<Cycles> = None;
    let mut owned_acc = [0u64; 2];

    // --- The hot loop: `step` transcribed over the flat state ---------
    let mut now = now0;
    while now < end {
        issued_now = [0; 4];
        let mut active = false;
        let mut ddep = [0u64; 2];
        let mut dunit = [0u64; 2];

        // Decode.
        let g = sched[(now % GRANT_PERIOD) as usize];
        if let Some(owner) = g.owner {
            owned_acc[owner.index()] += 1;
        }
        let decoder: Option<(usize, bool)> = match g.owner {
            Some(owner) => {
                let oi = owner.index();
                if hctx[oi].can_decode(&ctx[oi], seqv[oi], now, can_base[oi], cfg) {
                    Some((oi, false))
                } else {
                    let ti = 1 - oi;
                    let may = g.leftover_allowed || steal_cfg;
                    (may && hctx[ti].can_decode(&ctx[ti], seqv[ti], now, can_base[ti], cfg))
                        .then_some((ti, true))
                }
            }
            None => None,
        };
        if let Some((i, stolen)) = decoder {
            let (c, h) = (&mut ctx[i], &mut hctx[i]);
            let n = (dispatch_buf - h.len as usize).min(decode_width);
            let (_, gen) = c.workload.as_mut().expect("can_decode checked");
            let mut icache_miss = false;
            // (line, way, repeats) of the group's current fetch line.
            let mut fetch: Option<(u64, usize, u64)> = None;
            for _ in 0..n {
                let inst = gen.next_inst();
                let tagged_pc = inst.pc | owner_tag[i] | (1 << 55);
                let line = l1i_idx.line(tagged_pc);
                match &mut fetch {
                    Some((l, _, reps)) if *l == line => *reps += 1,
                    _ => {
                        if let Some((_, way, reps)) = fetch {
                            l1i.repeat_hits(way, reps);
                        }
                        let (hit, way) = l1i.access_pow2_way(tagged_pc, owner8[i], l1i_idx);
                        if !hit {
                            c.stats.l1i_misses += 1;
                            icache_miss = true;
                        }
                        fetch = Some((line, way, 0));
                    }
                }
                let seq = seqv[i];
                seqv[i] += 1;
                let slot = head[i];
                head[i] += 1;
                if head[i] == window32 {
                    head[i] = 0;
                }
                c.completion[slot as usize] = Cycles::MAX;
                h.push(inst, seq, slot, &c.completion, window32, now, ring_mask);
                c.stats.decoded += 1;
            }
            if let Some((_, way, reps)) = fetch {
                l1i.repeat_hits(way, reps);
            }
            c.stats.slots_used += 1;
            if stolen {
                c.stats.slots_stolen += 1;
            }
            if icache_miss {
                c.fetch_stall_until = now + l2_hit;
            }
            active = true;
        }

        // Issue.
        let first = (now % 2) as usize;
        for i in [first, 1 - first] {
            let (c, h) = (&mut ctx[i], &mut hctx[i]);
            let woken = &mut h.wake[(now & ring_mask) as usize];
            h.ready |= *woken;
            *woken = 0;
            if h.queued == 0 {
                continue;
            }
            // Rotated right by `r`, bit k is sequence number
            // `head - 128 + k`: the queue in program order.
            let r = (seqv[i] % MASK_BITS) as u32;
            let ready = h.ready.rotate_right(r);
            let mut open = !0u128;
            if issued_now != [0; 4] {
                let mut blocked = 0u128;
                for (ci, m) in h.class.iter().enumerate() {
                    if issued_now[ci] >= counts[ci] {
                        blocked |= m;
                    }
                }
                open = !blocked.rotate_right(r);
            }
            // `rest`: the entries the walk has not reached. `window`: the
            // first `lookahead` entries, plus one more per issue (the
            // removal shifts the next entry in); `beyond`: the others.
            let mut rest = h.queued.rotate_right(r);
            let mut window = lowest_bits(rest, lookahead, h.len);
            let mut beyond = rest ^ window;
            let mut stalled = 0u128;
            let mut issued = 0u8;
            while issued < issue_width {
                let seen = rest & window;
                let cand = seen & ready & open;
                if cand == 0 {
                    stalled |= seen;
                    break;
                }
                let low = cand & cand.wrapping_neg();
                let before = seen & (low - 1);
                stalled |= before;
                rest ^= before | low;
                let next = beyond & beyond.wrapping_neg();
                window |= next;
                beyond ^= next;
                let b = ((low.trailing_zeros() + r) % MASK_BITS as u32) as usize;
                let e = h.slab[b];
                let ci = e.class.index();
                issued_now[ci] += 1;
                if issued_now[ci] >= counts[ci] {
                    open &= !h.class[ci].rotate_right(r);
                }
                tot[ci] += 1;
                let lat = if ci == ls && e.addr != u64::MAX {
                    let tagged = e.addr | owner_tag[i];
                    if l1d.access_pow2(tagged, owner8[i], l1d_idx) {
                        c.stats.l1_hits += 1;
                        l1d_hit
                    } else if l2.lock().unwrap().access(tagged, owner8[i]) {
                        c.stats.l2_hits += 1;
                        l2d
                    } else {
                        c.stats.mem_accesses += 1;
                        memlat
                    }
                } else {
                    lat_of[ci]
                };
                let done = now + lat;
                h.queued &= !(1 << b);
                h.ready &= !(1 << b);
                h.class[ci] &= !(1 << b);
                h.len -= 1;
                c.completion[e.slot as usize] = done;
                h.wake_dependents(b, done, ring_mask);
                h.complete_at(done, ring_mask);
                pend[i] += 1;
                issued += 1;
                active = true;
                if e.class == InstClass::Br && !c.predictor.predict_and_update(e.taken) {
                    c.stats.br_mispredicts += 1;
                    h.flush(rest, r, done, now, &mut c.completion, ring_mask);
                    c.fetch_stall_until = done + penalty;
                    break;
                }
            }
            if stalled != 0 {
                // Stalled entries that were ready were blocked on a unit:
                // few per cycle, so each is charged to its class directly.
                let mut unit = stalled & ready;
                ddep[i] = u64::from((stalled ^ unit).count_ones());
                while unit != 0 {
                    let b = ((unit.trailing_zeros() + r) % MASK_BITS as u32) as usize;
                    unit &= unit - 1;
                    confl[h.slab[b].class.index()] += 1;
                    dunit[i] += 1;
                }
                c.stats.stall_dep += ddep[i];
                c.stats.stall_unit += dunit[i];
            }
        }

        // Retire.
        for i in 0..2 {
            let n = hctx[i].retire(now, ring_mask);
            if n > 0 {
                pend[i] -= n;
                ctx[i].stats.retired += u64::from(n);
                active = true;
            }
        }
        last_stepped = Some(now);
        now += 1;

        if active {
            continue;
        }
        // Quiet probe: identical to the generic path's `quiet_horizon`
        // plus census/stall crediting, expressed over the flat state.
        let mut h = end;
        for i in 0..2 {
            if pend[i] > 0 {
                h = h.min(hctx[i].next_completion(now, ring_mask));
            }
            if ctx[i].fetch_stall_until > now {
                h = h.min(ctx[i].fetch_stall_until);
            }
        }
        if h <= now {
            continue;
        }
        let elig = [0, 1].map(|i| hctx[i].can_decode(&ctx[i], seqv[i], now, can_base[i], cfg));
        let mut target = h;
        if elig[0] || elig[1] {
            for off in 0..GRANT_PERIOD.min(h - now) {
                let t = now + off;
                let g = sched[(t % GRANT_PERIOD) as usize];
                if let Some(o) = g.owner {
                    let may = g.leftover_allowed || steal_cfg;
                    if elig[o.index()] || (may && elig[1 - o.index()]) {
                        target = t;
                        break;
                    }
                }
            }
        }
        if target <= now {
            continue;
        }
        let k = target - now;
        let (ca, cb) = grant_census_range(pa, pb, now, target);
        owned_acc[0] += ca;
        owned_acc[1] += cb;
        for i in 0..2 {
            ctx[i].stats.stall_dep += k * ddep[i];
            ctx[i].stats.stall_unit += k * dunit[i];
        }
        now = target;
    }

    // --- Exit: write the flat state back into the canonical forms and
    // leave the rings empty for the next call -------------------------
    *cycle = now;
    for i in 0..2 {
        let (c, h) = (&mut ctx[i], &mut hctx[i]);
        c.seq = seqv[i];
        c.stats.slots_owned += owned_acc[i];
        c.dispatch.clear();
        let r = (seqv[i] % MASK_BITS) as u32;
        let mut q = h.queued.rotate_right(r);
        while q != 0 {
            let b = ((q.trailing_zeros() + r) % MASK_BITS as u32) as usize;
            q &= q - 1;
            let e = h.slab[b];
            c.dispatch.push_back((e.to_inst(), e.seq));
            let t = h.ready_at[b];
            if t >= now && t != Cycles::MAX {
                h.wake[(t & ring_mask) as usize] = 0;
            }
        }
        c.pending.clear();
        let mut t = now;
        while pend[i] > 0 {
            t = h.next_completion(t, ring_mask);
            let n = h.retire(t, ring_mask);
            debug_assert!(n > 0, "pending times escaped the ring span");
            if n == 0 {
                break;
            }
            for _ in 0..n {
                c.pending.push(Reverse(t));
            }
            pend[i] -= n;
            t += 1;
        }
    }
    if let Some(t) = last_stepped {
        units.restore_state(issued_now, t, tot, confl);
    }
    true
}
