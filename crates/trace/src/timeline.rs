//! Per-process state timelines.
//!
//! A [`Timeline`] is a gap-free, monotonically ordered sequence of
//! [`Interval`]s describing what one process did from its start to its end.
//! Timelines are produced by the system simulator (via [`TimelineBuilder`])
//! and consumed by the metrics and Gantt modules.

use crate::state::ProcState;
use crate::Cycles;

/// A half-open interval `[start, end)` during which a process was in a
/// single state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    /// First cycle of the interval (inclusive).
    pub start: Cycles,
    /// One past the last cycle of the interval (exclusive).
    pub end: Cycles,
    /// What the process was doing.
    pub state: ProcState,
}

impl Interval {
    /// Duration in cycles.
    pub fn len(&self) -> Cycles {
        self.end - self.start
    }

    /// True when the interval covers no time.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

/// The complete activity record of one simulated process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Timeline {
    /// Process identifier (MPI rank or OS pid, depending on producer).
    pub pid: usize,
    /// Human-readable label (e.g. `"P1"`).
    pub label: String,
    intervals: Vec<Interval>,
}

impl Timeline {
    /// The recorded intervals, in increasing time order, gap-free.
    pub fn intervals(&self) -> &[Interval] {
        &self.intervals
    }

    /// Time at which the process started (start of its first interval).
    /// Zero for an empty timeline.
    pub fn start(&self) -> Cycles {
        self.intervals.first().map_or(0, |i| i.start)
    }

    /// Time at which the process ended (end of its last interval).
    /// Zero for an empty timeline.
    pub fn end(&self) -> Cycles {
        self.intervals.last().map_or(0, |i| i.end)
    }

    /// Total recorded duration.
    pub fn duration(&self) -> Cycles {
        self.end() - self.start()
    }

    /// Total cycles spent in `state`.
    pub fn time_in(&self, state: ProcState) -> Cycles {
        self.intervals
            .iter()
            .filter(|i| i.state == state)
            .map(Interval::len)
            .sum()
    }

    /// Total cycles for which `pred` holds on the interval state.
    pub fn time_where(&self, pred: impl Fn(ProcState) -> bool) -> Cycles {
        self.intervals
            .iter()
            .filter(|i| pred(i.state))
            .map(Interval::len)
            .sum()
    }

    /// The state of the process at cycle `t`, if `t` is within the recorded
    /// range. Binary search; O(log n).
    pub fn state_at(&self, t: Cycles) -> Option<ProcState> {
        let idx = self.intervals.partition_point(|i| i.end <= t);
        let iv = self.intervals.get(idx)?;
        (iv.start <= t && t < iv.end).then_some(iv.state)
    }

    /// Reassemble a timeline from raw parts (checkpoint restore). The
    /// intervals must satisfy the builder invariants — contiguous,
    /// ordered, non-empty — or an error describing the violation is
    /// returned.
    pub fn from_parts(
        pid: usize,
        label: String,
        intervals: Vec<Interval>,
    ) -> Result<Timeline, String> {
        let t = Timeline {
            pid,
            label,
            intervals,
        };
        t.check_invariants()?;
        Ok(t)
    }

    /// Verify the internal invariants: intervals are non-empty, contiguous
    /// and ordered. Returns a description of the first violation, if any.
    /// Builders uphold these by construction; this is used by tests and
    /// by debug assertions downstream.
    pub fn check_invariants(&self) -> Result<(), String> {
        for w in self.intervals.windows(2) {
            if w[0].end != w[1].start {
                return Err(format!(
                    "gap/overlap between intervals ending {} and starting {}",
                    w[0].end, w[1].start
                ));
            }
        }
        for iv in &self.intervals {
            if iv.start >= iv.end {
                return Err(format!("empty/negative interval at {}", iv.start));
            }
        }
        Ok(())
    }
}

/// Incremental builder for [`Timeline`]s.
///
/// The producer calls [`TimelineBuilder::enter`] every time the process
/// changes state; consecutive `enter`s with the same state are merged, and
/// zero-length intervals are dropped, so producers may be sloppy about
/// redundant transitions.
#[derive(Debug, Clone)]
pub struct TimelineBuilder {
    pid: usize,
    label: String,
    intervals: Vec<Interval>,
    current: Option<(Cycles, ProcState)>,
}

impl TimelineBuilder {
    /// Start building a timeline for process `pid` that begins at `t0` in
    /// state `initial`.
    pub fn new(pid: usize, label: impl Into<String>, t0: Cycles, initial: ProcState) -> Self {
        TimelineBuilder {
            pid,
            label: label.into(),
            intervals: Vec::new(),
            current: Some((t0, initial)),
        }
    }

    /// Record that the process enters `state` at time `t`.
    ///
    /// # Panics
    /// Panics if `t` precedes the start of the currently open interval —
    /// time cannot run backwards.
    pub fn enter(&mut self, state: ProcState, t: Cycles) {
        let (start, cur) = self
            .current
            .expect("enter() called on a finished TimelineBuilder");
        assert!(
            t >= start,
            "timeline for pid {} going backwards: {} -> {}",
            self.pid,
            start,
            t
        );
        if cur == state {
            return; // redundant transition; keep the open interval
        }
        if t > start {
            self.push_merged(Interval {
                start,
                end: t,
                state: cur,
            });
        }
        self.current = Some((t, state));
    }

    /// Close the timeline at time `t` and return the finished [`Timeline`].
    ///
    /// # Panics
    /// Panics if `t` precedes the start of the open interval.
    pub fn finish(mut self, t: Cycles) -> Timeline {
        let (start, cur) = self
            .current
            .take()
            .expect("finish() called twice on a TimelineBuilder");
        assert!(t >= start, "finish() before last transition");
        if t > start {
            self.push_merged(Interval {
                start,
                end: t,
                state: cur,
            });
        }
        Timeline {
            pid: self.pid,
            label: self.label,
            intervals: self.intervals,
        }
    }

    /// Decompose the builder into its raw parts for checkpointing:
    /// `(pid, label, closed intervals, open (since, state))`.
    pub fn save_parts(&self) -> (usize, String, Vec<Interval>, Option<(Cycles, ProcState)>) {
        (
            self.pid,
            self.label.clone(),
            self.intervals.clone(),
            self.current,
        )
    }

    /// Reassemble a builder from [`TimelineBuilder::save_parts`] output.
    /// The closed intervals must satisfy the timeline invariants and the
    /// open interval (when present) must start at or after the last
    /// closed end.
    pub fn from_parts(
        pid: usize,
        label: String,
        intervals: Vec<Interval>,
        current: Option<(Cycles, ProcState)>,
    ) -> Result<TimelineBuilder, String> {
        for w in intervals.windows(2) {
            if w[0].end != w[1].start {
                return Err(format!(
                    "gap/overlap between intervals ending {} and starting {}",
                    w[0].end, w[1].start
                ));
            }
        }
        for iv in &intervals {
            if iv.start >= iv.end {
                return Err(format!("empty/negative interval at {}", iv.start));
            }
        }
        if let (Some(last), Some((since, _))) = (intervals.last(), current) {
            if since < last.end {
                return Err(format!(
                    "open interval at {} precedes closed end {}",
                    since, last.end
                ));
            }
        }
        Ok(TimelineBuilder {
            pid,
            label,
            intervals,
            current,
        })
    }

    /// State of the currently open interval.
    pub fn current_state(&self) -> Option<ProcState> {
        self.current.map(|(_, s)| s)
    }

    fn push_merged(&mut self, iv: Interval) {
        if let Some(last) = self.intervals.last_mut() {
            if last.state == iv.state && last.end == iv.start {
                last.end = iv.end;
                return;
            }
        }
        self.intervals.push(iv);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn build_simple() -> Timeline {
        let mut b = TimelineBuilder::new(0, "P1", 0, ProcState::Init);
        b.enter(ProcState::Compute, 10);
        b.enter(ProcState::Sync, 50);
        b.enter(ProcState::Compute, 60);
        b.finish(100)
    }

    #[test]
    fn builds_contiguous_intervals() {
        let t = build_simple();
        t.check_invariants().unwrap();
        assert_eq!(t.intervals().len(), 4);
        assert_eq!(t.start(), 0);
        assert_eq!(t.end(), 100);
        assert_eq!(t.duration(), 100);
    }

    #[test]
    fn time_accounting_sums_by_state() {
        let t = build_simple();
        assert_eq!(t.time_in(ProcState::Init), 10);
        assert_eq!(t.time_in(ProcState::Compute), 80);
        assert_eq!(t.time_in(ProcState::Sync), 10);
        assert_eq!(t.time_in(ProcState::Comm), 0);
        assert_eq!(t.time_where(|s| s.is_useful()), 90);
    }

    #[test]
    fn state_at_returns_correct_state() {
        let t = build_simple();
        assert_eq!(t.state_at(0), Some(ProcState::Init));
        assert_eq!(t.state_at(9), Some(ProcState::Init));
        assert_eq!(t.state_at(10), Some(ProcState::Compute));
        assert_eq!(t.state_at(55), Some(ProcState::Sync));
        assert_eq!(t.state_at(99), Some(ProcState::Compute));
        assert_eq!(t.state_at(100), None);
    }

    #[test]
    fn redundant_transitions_are_merged() {
        let mut b = TimelineBuilder::new(1, "P2", 0, ProcState::Compute);
        b.enter(ProcState::Compute, 5);
        b.enter(ProcState::Compute, 7);
        b.enter(ProcState::Sync, 10);
        b.enter(ProcState::Compute, 10); // zero-length sync: dropped
        let t = b.finish(20);
        assert_eq!(t.intervals().len(), 1);
        assert_eq!(t.time_in(ProcState::Compute), 20);
    }

    #[test]
    fn adjacent_same_state_intervals_merge_across_zero_gap() {
        let mut b = TimelineBuilder::new(1, "P2", 0, ProcState::Compute);
        b.enter(ProcState::Sync, 10);
        b.enter(ProcState::Compute, 10); // sync collapses to zero
        let t = b.finish(20);
        assert_eq!(t.intervals().len(), 1, "{:?}", t.intervals());
    }

    #[test]
    #[should_panic(expected = "backwards")]
    fn time_cannot_go_backwards() {
        let mut b = TimelineBuilder::new(0, "P1", 100, ProcState::Compute);
        b.enter(ProcState::Sync, 50);
    }

    #[test]
    fn empty_timeline_has_zero_duration() {
        let b = TimelineBuilder::new(0, "P1", 42, ProcState::Compute);
        let t = b.finish(42);
        assert_eq!(t.duration(), 0);
        assert!(t.intervals().is_empty());
        assert_eq!(t.state_at(42), None);
    }

    proptest! {
        /// For any sequence of (state, duration) steps, the built timeline
        /// is gap-free, ordered, and conserves total time.
        #[test]
        fn prop_timeline_conserves_time(
            steps in proptest::collection::vec((0usize..7, 0u64..1000), 0..64),
            t0 in 0u64..1_000_000,
        ) {
            let mut b = TimelineBuilder::new(0, "P", t0, ProcState::Compute);
            let mut t = t0;
            for (si, d) in &steps {
                t += d;
                b.enter(ProcState::ALL[*si], t);
            }
            let tl = b.finish(t);
            prop_assert!(tl.check_invariants().is_ok());
            let total: Cycles = ProcState::ALL.iter().map(|&s| tl.time_in(s)).sum();
            prop_assert_eq!(total, t - t0);
            prop_assert_eq!(tl.duration(), t - t0);
        }

        /// `state_at` agrees with the interval list everywhere.
        #[test]
        fn prop_state_at_matches_intervals(
            steps in proptest::collection::vec((0usize..7, 1u64..100), 1..32),
        ) {
            let mut b = TimelineBuilder::new(0, "P", 0, ProcState::Idle);
            let mut t = 0;
            for (si, d) in &steps {
                t += d;
                b.enter(ProcState::ALL[*si], t);
            }
            let tl = b.finish(t + 1);
            for iv in tl.intervals() {
                prop_assert_eq!(tl.state_at(iv.start), Some(iv.state));
                prop_assert_eq!(tl.state_at(iv.end - 1), Some(iv.state));
            }
        }
    }
}
