//! Extrinsic-imbalance sources (Section II-B).
//!
//! Even a perfectly balanced application gets imbalanced by the
//! environment: the OS steals cycles for interrupt handlers (more on CPU0
//! than elsewhere — the "interrupt annoyance problem"), daemons wake up and
//! preempt ranks, etc. A [`NoiseSource`] is a periodic window during which
//! a specific hardware context runs kernel/daemon code instead of its
//! process; the [`crate::machine::Machine`] composes any number of them.

use crate::process::CtxAddr;
use mtb_trace::Cycles;

/// Why [`crate::Machine::try_add_noise`] refused a noise source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NoiseError {
    /// The source targets a core the machine does not have.
    TargetOutOfRange {
        /// The targeted core.
        core: usize,
        /// Cores on the machine.
        cores: usize,
    },
    /// A periodic source whose window does not fit in its period
    /// (`cost >= period`, which includes every `period == 0`). A zero
    /// period has no next boundary; a full one keeps its context in the
    /// handler forever.
    CostFillsPeriod {
        /// Cycles consumed per activation.
        cost: Cycles,
        /// Period between activations.
        period: Cycles,
    },
}

impl std::fmt::Display for NoiseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NoiseError::TargetOutOfRange { core, cores } => {
                write!(f, "noise target core {core} out of range ({cores} cores)")
            }
            NoiseError::CostFillsPeriod { cost, period } => {
                write!(f, "noise cost {cost} does not fit in the period {period}")
            }
        }
    }
}

impl std::error::Error for NoiseError {}

/// A periodic cycle thief pinned to one hardware context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NoiseSource {
    /// Diagnostic name ("timer", "eth0", "statsd", ...).
    pub name: String,
    /// The context it interrupts.
    pub target: CtxAddr,
    /// Period between activations, cycles. Must be > 0.
    pub period: Cycles,
    /// Cycles consumed per activation (must be < period).
    pub cost: Cycles,
    /// Phase offset of the first activation.
    pub phase: Cycles,
    /// One-shot: only the first window `[phase, phase + cost)` fires
    /// (a boot-time daemon, a single page-in storm); after it ends the
    /// source never changes state again.
    pub one_shot: bool,
}

impl NoiseSource {
    /// A periodic OS timer tick on `target` (every `period` cycles,
    /// stealing `cost`).
    pub fn timer(target: CtxAddr, period: Cycles, cost: Cycles) -> NoiseSource {
        assert!(period > 0 && cost < period, "cost must fit in the period");
        NoiseSource {
            name: format!("timer@cpu{}", target.cpu()),
            target,
            period,
            cost,
            phase: 0,
            one_shot: false,
        }
    }

    /// A device-interrupt source. On Intel-like IRQ routing all of these
    /// land on CPU0 — the paper's "interrupt annoyance problem".
    pub fn device(
        name: impl Into<String>,
        target: CtxAddr,
        period: Cycles,
        cost: Cycles,
        phase: Cycles,
    ) -> NoiseSource {
        assert!(period > 0 && cost < period, "cost must fit in the period");
        NoiseSource {
            name: name.into(),
            target,
            period,
            cost,
            phase,
            one_shot: false,
        }
    }

    /// A user daemon with a duty cycle: runs `cost` cycles every `period`.
    pub fn daemon(
        name: impl Into<String>,
        target: CtxAddr,
        period: Cycles,
        cost: Cycles,
    ) -> NoiseSource {
        assert!(period > 0 && cost < period, "cost must fit in the period");
        NoiseSource {
            name: name.into(),
            target,
            period,
            cost,
            phase: period / 2,
            one_shot: false,
        }
    }

    /// A one-shot window: `target` loses `cost` cycles starting at `at`,
    /// once. Models transient thieves (boot-time daemons, a single
    /// page-in storm) that a periodic model cannot express.
    pub fn once(name: impl Into<String>, target: CtxAddr, at: Cycles, cost: Cycles) -> NoiseSource {
        assert!(cost > 0, "a one-shot window must have a positive cost");
        NoiseSource {
            name: name.into(),
            target,
            // Never consulted while `one_shot` is set; kept valid so the
            // periodic invariants hold for any field combination.
            period: cost + 1,
            cost,
            phase: at,
            one_shot: true,
        }
    }

    /// Is the source active (handler running) at time `t`?
    pub fn active_at(&self, t: Cycles) -> bool {
        if t < self.phase {
            return false;
        }
        if self.one_shot {
            return t - self.phase < self.cost;
        }
        (t - self.phase) % self.period < self.cost
    }

    /// The next time > `t` at which this source changes state (activation
    /// start or end), or `None` once a one-shot source has spent its
    /// window — periodic sources always have a next boundary.
    pub fn next_boundary(&self, t: Cycles) -> Option<Cycles> {
        if t < self.phase {
            return Some(self.phase);
        }
        if self.one_shot {
            let end = self.phase + self.cost;
            return (t < end).then_some(end);
        }
        let pos = (t - self.phase) % self.period;
        Some(if pos < self.cost {
            // Inside a window: next boundary is its end.
            t + (self.cost - pos)
        } else {
            // Between windows: next boundary is the next activation.
            t + (self.period - pos)
        })
    }

    /// Total stolen cycles in `[a, b)`.
    pub fn stolen_in(&self, a: Cycles, b: Cycles) -> Cycles {
        debug_assert!(a <= b);
        let mut t = a;
        let mut stolen = 0;
        while t < b {
            let nb = self.next_boundary(t).map_or(b, |nb| nb.min(b));
            if self.active_at(t) {
                stolen += nb - t;
            }
            if nb == b {
                break;
            }
            t = nb;
        }
        stolen
    }

    /// A cursor positioned at time `t`: the state and next boundary of
    /// this source, advanceable in O(1) per boundary (see
    /// [`NoiseCursor`]).
    pub fn cursor_at(&self, t: Cycles) -> NoiseCursor {
        NoiseCursor {
            period: self.period,
            cost: self.cost,
            one_shot: self.one_shot,
            active: self.active_at(t),
            next: self.next_boundary(t),
        }
    }
}

/// A boundary cursor over one [`NoiseSource`]: holds the source's state
/// at the cursor position plus the time of its next state flip, and
/// advances boundary-to-boundary in O(1) — every source is periodic (a
/// window of `cost` every `period`) or one-shot, so the boundary after a
/// window end is always `period - cost` later and the boundary after an
/// activation is `cost` later. The machine's calendar segmentation
/// seeds one cursor per source and carries it from epoch to epoch
/// (re-seeding only when the time jumps or the source set changes)
/// instead of re-deriving `next_boundary` arithmetic per segment. A
/// cursor is a pure function of its source and its position, so a
/// carried cursor equals one seeded afresh at the same time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NoiseCursor {
    period: Cycles,
    cost: Cycles,
    one_shot: bool,
    active: bool,
    next: Option<Cycles>,
}

impl NoiseCursor {
    /// Is the source active in the half-open interval starting at the
    /// cursor position?
    pub fn active(&self) -> bool {
        self.active
    }

    /// The next boundary strictly after the cursor position (`None` once
    /// a one-shot source is spent).
    pub fn next(&self) -> Option<Cycles> {
        self.next
    }

    /// Step over the boundary at [`NoiseCursor::next`]: flip the state
    /// and compute the following boundary in O(1). No-op when spent.
    pub fn flip(&mut self) {
        let Some(b) = self.next else {
            return;
        };
        if self.active {
            // A window just ended; the next activation starts a full
            // period after the window began.
            self.active = false;
            self.next = (!self.one_shot).then(|| b + (self.period - self.cost));
        } else {
            self.active = true;
            self.next = Some(b + self.cost);
        }
    }
}

/// A min-heap of [`NoiseCursor`]s keyed by next-boundary time: the noise
/// event calendar. `next_boundary` is O(1), and advancing over a
/// boundary is O(log n) per affected cursor instead of the O(n) scan the
/// reference segmentation performs per segment. Each cursor carries a
/// caller-chosen `key` (the machine uses the target thread index) so
/// flips can be routed to exactly the contexts whose state changed —
/// including several cursors flipping at the same instant, which the
/// caller must observe as one combined transition.
#[derive(Debug, Clone, Default)]
pub struct BoundaryCalendar {
    /// `(key, cursor)` per source; spent cursors stay here but leave the
    /// heap.
    slots: Vec<(usize, NoiseCursor)>,
    /// Slot indices ordered as a binary min-heap by
    /// `(cursor.next, slot)`; only cursors with a concrete next boundary
    /// are present. The slot tiebreak makes the drain order — and thus
    /// any caller fold — deterministic.
    heap: Vec<u32>,
}

impl BoundaryCalendar {
    /// Remove every cursor, keeping the allocated capacity, so a calendar
    /// can be rebuilt in place without touching the heap.
    pub fn clear(&mut self) {
        self.slots.clear();
        self.heap.clear();
    }

    /// Number of cursors (including spent ones).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when no cursors were added.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Add a cursor under `key`.
    pub fn push(&mut self, key: usize, cursor: NoiseCursor) {
        let slot = self.slots.len() as u32;
        self.slots.push((key, cursor));
        if self.slots[slot as usize].1.next().is_some() {
            self.heap.push(slot);
            self.sift_up(self.heap.len() - 1);
        }
    }

    /// The earliest boundary over all cursors, if any remain.
    pub fn next_boundary(&self) -> Option<Cycles> {
        self.heap.first().map(|&s| self.key_of(s).0)
    }

    /// Flip every cursor whose boundary is exactly `t` (cursors never
    /// hold boundaries in the past here: the caller always advances to
    /// the calendar's own minimum). `visit(key, active)` fires once per
    /// flipped cursor, in deterministic slot order for ties; the caller
    /// folds the flips (e.g. into per-context active counts) and only
    /// then compares against the previous state, so a window ending at
    /// the same instant another begins is a no-op transition — exactly
    /// the reference `any()` semantics.
    pub fn advance_to(&mut self, t: Cycles, mut visit: impl FnMut(usize, bool)) {
        while let Some(&top) = self.heap.first() {
            let (time, _) = self.key_of(top);
            debug_assert!(time >= t, "calendar boundary in the past");
            if time > t {
                break;
            }
            let (key, cursor) = &mut self.slots[top as usize];
            cursor.flip();
            visit(*key, cursor.active());
            if cursor.next().is_some() {
                // Re-key in place and restore the heap order.
                self.sift_down(0);
            } else {
                let last = self.heap.len() - 1;
                self.heap.swap(0, last);
                self.heap.pop();
                if !self.heap.is_empty() {
                    self.sift_down(0);
                }
            }
        }
    }

    fn key_of(&self, slot: u32) -> (Cycles, u32) {
        (
            self.slots[slot as usize]
                .1
                .next()
                .expect("heap holds live cursors only"),
            slot,
        )
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.key_of(self.heap[i]) < self.key_of(self.heap[parent]) {
                self.heap.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        loop {
            let (l, r) = (2 * i + 1, 2 * i + 2);
            let mut least = i;
            if l < self.heap.len() && self.key_of(self.heap[l]) < self.key_of(self.heap[least]) {
                least = l;
            }
            if r < self.heap.len() && self.key_of(self.heap[r]) < self.key_of(self.heap[least]) {
                least = r;
            }
            if least == i {
                return;
            }
            self.heap.swap(i, least);
            i = least;
        }
    }
}

/// The "interrupt annoyance" configuration: a baseline timer tick on every
/// context plus device interrupts routed exclusively to CPU0.
pub fn interrupt_annoyance(
    n_cores: usize,
    tick_period: Cycles,
    tick_cost: Cycles,
    dev_period: Cycles,
    dev_cost: Cycles,
) -> Vec<NoiseSource> {
    let mut v = Vec::new();
    for cpu in 0..n_cores * 2 {
        v.push(NoiseSource::timer(
            CtxAddr::from_cpu(cpu),
            tick_period,
            tick_cost,
        ));
    }
    v.push(NoiseSource::device(
        "devices",
        CtxAddr::from_cpu(0),
        dev_period,
        dev_cost,
        tick_cost, // offset so device windows do not ride on tick starts
    ));
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn src(period: Cycles, cost: Cycles, phase: Cycles) -> NoiseSource {
        NoiseSource {
            name: "t".into(),
            target: CtxAddr::from_cpu(0),
            period,
            cost,
            phase,
            one_shot: false,
        }
    }

    #[test]
    fn active_windows_follow_period() {
        let s = src(100, 10, 0);
        assert!(s.active_at(0));
        assert!(s.active_at(9));
        assert!(!s.active_at(10));
        assert!(!s.active_at(99));
        assert!(s.active_at(100));
        assert!(s.active_at(205));
    }

    #[test]
    fn phase_delays_first_activation() {
        let s = src(100, 10, 50);
        assert!(!s.active_at(0));
        assert!(!s.active_at(49));
        assert!(s.active_at(50));
        assert!(!s.active_at(60));
    }

    #[test]
    fn next_boundary_is_exact() {
        let s = src(100, 10, 0);
        assert_eq!(s.next_boundary(0), Some(10), "end of first window");
        assert_eq!(s.next_boundary(5), Some(10));
        assert_eq!(s.next_boundary(10), Some(100), "start of second window");
        assert_eq!(s.next_boundary(99), Some(100));
        assert_eq!(s.next_boundary(100), Some(110));
        let late = src(100, 10, 50);
        assert_eq!(
            late.next_boundary(0),
            Some(50),
            "phase is the first boundary"
        );
    }

    #[test]
    fn one_shot_fires_once_then_goes_silent() {
        let s = NoiseSource::once("pagein", CtxAddr::from_cpu(0), 500, 40);
        assert!(!s.active_at(499));
        assert!(s.active_at(500));
        assert!(s.active_at(539));
        assert!(!s.active_at(540));
        assert!(!s.active_at(5_000_000), "never fires again");
        assert_eq!(s.next_boundary(0), Some(500));
        assert_eq!(s.next_boundary(500), Some(540));
        assert_eq!(s.next_boundary(539), Some(540));
        assert_eq!(s.next_boundary(540), None, "spent");
        assert_eq!(s.stolen_in(0, 10_000), 40);
        assert_eq!(s.stolen_in(510, 10_000), 30, "partial window");
        assert_eq!(s.stolen_in(600, 10_000), 0);
    }

    #[test]
    fn cursor_walks_the_same_boundaries() {
        let s = src(100, 10, 50);
        let mut cur = s.cursor_at(0);
        assert!(!cur.active());
        assert_eq!(cur.next(), Some(50));
        cur.flip();
        assert!(cur.active());
        assert_eq!(cur.next(), Some(60));
        cur.flip();
        assert!(!cur.active());
        assert_eq!(cur.next(), Some(150), "next activation, O(1)");
    }

    #[test]
    fn calendar_merges_and_drains_coincident_boundaries() {
        // Two sources flipping at the same instant on different keys,
        // plus a one-shot that leaves the heap once spent.
        let a = src(100, 10, 0);
        let b = src(50, 5, 0);
        let o = NoiseSource::once("x", CtxAddr::from_cpu(1), 10, 30);
        let mut cal = BoundaryCalendar::default();
        cal.push(0, a.cursor_at(0));
        cal.push(0, b.cursor_at(0));
        cal.push(1, o.cursor_at(0));
        assert_eq!(cal.len(), 3);
        assert!(!cal.is_empty());
        // t=0: both periodic sources are active; ends at 5 and 10.
        assert_eq!(cal.next_boundary(), Some(5));
        let mut flips = Vec::new();
        cal.advance_to(5, |k, act| flips.push((k, act)));
        assert_eq!(flips, vec![(0, false)]);
        // t=10: a's window ends AND o's window starts, same instant.
        assert_eq!(cal.next_boundary(), Some(10));
        flips.clear();
        cal.advance_to(10, |k, act| flips.push((k, act)));
        assert_eq!(flips, vec![(0, false), (1, true)]);
        // o ends at 40 and leaves the heap; the periodic pair remains.
        flips.clear();
        cal.advance_to(40, |k, act| flips.push((k, act)));
        assert_eq!(flips, vec![(1, false)]);
        assert_eq!(cal.next_boundary(), Some(50), "b's second activation");
        // A cleared calendar is empty and refills like a fresh one.
        cal.clear();
        assert!(cal.is_empty());
        assert_eq!(cal.next_boundary(), None);
        cal.push(1, o.cursor_at(0));
        assert_eq!(cal.len(), 1);
        assert_eq!(cal.next_boundary(), Some(10));
    }

    #[test]
    fn stolen_in_counts_window_overlap() {
        let s = src(100, 10, 0);
        assert_eq!(s.stolen_in(0, 100), 10);
        assert_eq!(s.stolen_in(0, 1000), 100);
        assert_eq!(s.stolen_in(5, 8), 3, "partial window");
        assert_eq!(s.stolen_in(20, 90), 0, "between windows");
        assert_eq!(s.stolen_in(95, 105), 5, "straddles activation");
    }

    #[test]
    fn interrupt_annoyance_targets_cpu0_with_devices() {
        let v = interrupt_annoyance(2, 1000, 10, 5000, 200);
        assert_eq!(v.len(), 5, "4 timers + 1 device source");
        let dev = v.last().unwrap();
        assert_eq!(dev.target, CtxAddr::from_cpu(0));
        // CPU0 suffers more than CPU1 over a long horizon.
        let cpu0: Cycles = v
            .iter()
            .filter(|s| s.target.cpu() == 0)
            .map(|s| s.stolen_in(0, 100_000))
            .sum();
        let cpu1: Cycles = v
            .iter()
            .filter(|s| s.target.cpu() == 1)
            .map(|s| s.stolen_in(0, 100_000))
            .sum();
        assert!(cpu0 > cpu1 * 2, "annoyance skew: {cpu0} vs {cpu1}");
    }

    #[test]
    #[should_panic(expected = "cost must fit")]
    fn cost_must_be_less_than_period() {
        let _ = NoiseSource::timer(CtxAddr::from_cpu(0), 10, 10);
    }

    /// A random source: periodic timer/device/daemon-like phases, or a
    /// one-shot window.
    fn any_source(
        kind: u8,
        cpu: usize,
        period: Cycles,
        cost_frac: Cycles,
        phase: Cycles,
    ) -> NoiseSource {
        let cost = (period * cost_frac / 100).clamp(1, period - 1);
        if kind == 3 {
            NoiseSource::once("once", CtxAddr::from_cpu(cpu), phase, cost)
        } else {
            NoiseSource {
                name: "p".into(),
                target: CtxAddr::from_cpu(cpu),
                period,
                cost,
                phase,
                one_shot: false,
            }
        }
    }

    proptest! {
        /// next_boundary always advances and flips (or keeps measuring
        /// toward a flip of) the active state.
        #[test]
        fn prop_boundaries_advance(period in 2u64..1000, cost_frac in 1u64..99, phase in 0u64..2000, t in 0u64..10_000) {
            let cost = (period * cost_frac / 100).max(1).min(period - 1);
            let s = src(period, cost, phase);
            let nb = s.next_boundary(t).expect("periodic sources never run dry");
            prop_assert!(nb > t);
            // State is constant within [t, nb).
            let st = s.active_at(t);
            for probe in [t, t + (nb - t) / 2, nb - 1] {
                prop_assert_eq!(s.active_at(probe), st);
            }
            prop_assert_ne!(s.active_at(nb), st, "state must flip at the boundary");
        }

        /// Calendar-cursor equivalence: a cursor seeded at any time and
        /// advanced flip-by-flip reproduces `next_boundary`/`active_at`
        /// exactly, across periodic and one-shot sources.
        #[test]
        fn prop_cursor_matches_next_boundary(
            kind in 0u8..4,
            period in 2u64..1000,
            cost_frac in 1u64..99,
            phase in 0u64..3000,
            t0 in 0u64..10_000,
        ) {
            let s = any_source(kind, 0, period, cost_frac, phase);
            let mut cur = s.cursor_at(t0);
            prop_assert_eq!(cur.active(), s.active_at(t0));
            prop_assert_eq!(cur.next(), s.next_boundary(t0));
            let mut t = t0;
            for _ in 0..32 {
                let Some(b) = cur.next() else {
                    // Spent: the source must stay silent forever after.
                    prop_assert!(!s.active_at(t + 1_000_000));
                    prop_assert_eq!(s.next_boundary(t), None);
                    break;
                };
                prop_assert!(b > t);
                cur.flip();
                prop_assert_eq!(cur.active(), s.active_at(b), "state at boundary {}", b);
                prop_assert_eq!(cur.next(), s.next_boundary(b), "boundary after {}", b);
                t = b;
            }
        }

        /// Calendar equivalence at the machine's granularity: per-context
        /// active flags folded from heap-drained flips must match the
        /// reference `any(active_at)` scan at every boundary, including
        /// coincident boundaries on both contexts of one core (equal
        /// periods and phases force exact collisions).
        #[test]
        fn prop_calendar_matches_any_scan(
            specs in proptest::collection::vec(
                (0u8..4, 0usize..2, 2u64..120, 1u64..99, 0u64..240), 1..7),
            t0 in 0u64..500,
        ) {
            let sources: Vec<NoiseSource> = specs
                .iter()
                .map(|&(kind, cpu, period, cf, phase)| any_source(kind, cpu, period, cf, phase))
                .collect();
            let reference_active = |ti: usize, t: Cycles| -> bool {
                sources
                    .iter()
                    .any(|s| s.target.thread.index() == ti && s.active_at(t))
            };
            let mut cal = BoundaryCalendar::default();
            let mut counts = [0u32; 2];
            for s in &sources {
                let cur = s.cursor_at(t0);
                if cur.active() {
                    counts[s.target.thread.index()] += 1;
                }
                cal.push(s.target.thread.index(), cur);
            }
            for (ti, &c) in counts.iter().enumerate() {
                prop_assert_eq!(c > 0, reference_active(ti, t0));
            }
            let horizon = t0 + 2_000;
            while let Some(b) = cal.next_boundary() {
                if b >= horizon {
                    break;
                }
                cal.advance_to(b, |ti, active| {
                    if active {
                        counts[ti] += 1;
                    } else {
                        counts[ti] -= 1;
                    }
                });
                for (ti, &c) in counts.iter().enumerate() {
                    prop_assert_eq!(c > 0, reference_active(ti, b), "ctx {} at boundary {}", ti, b);
                }
            }
        }

        /// stolen_in is additive over adjacent ranges.
        #[test]
        fn prop_stolen_additive(period in 2u64..500, cost_frac in 1u64..99, a in 0u64..5000, d1 in 0u64..5000, d2 in 0u64..5000) {
            let cost = (period * cost_frac / 100).max(1).min(period - 1);
            let s = src(period, cost, 0);
            let whole = s.stolen_in(a, a + d1 + d2);
            let parts = s.stolen_in(a, a + d1) + s.stolen_in(a + d1, a + d1 + d2);
            prop_assert_eq!(whole, parts);
        }

        /// Long-run stolen fraction approaches cost/period.
        #[test]
        fn prop_stolen_fraction(period in 10u64..200, cost_frac in 1u64..99) {
            let cost = (period * cost_frac / 100).max(1).min(period - 1);
            let s = src(period, cost, 0);
            let horizon = period * 1000;
            let stolen = s.stolen_in(0, horizon);
            prop_assert_eq!(stolen, cost * 1000);
        }
    }
}
