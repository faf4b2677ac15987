//! Collectives as synchronization epochs.
//!
//! Each rank's k-th collective call (barrier or allreduce) joins global
//! epoch k. An epoch releases every participant at
//! `max(arrival times) + cost`, where the cost is the barrier release
//! cost or the allreduce tree cost. The waiting time each rank
//! accumulates inside an epoch — the light-grey bars of the paper's
//! figures — is exactly the imbalance the balancer attacks.

use crate::program::Rank;
use mtb_trace::Cycles;

/// The synchronization semantics of an epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EpochKind {
    /// Everyone waits for everyone: barrier, allreduce.
    AllToAll,
    /// Broadcast from `root`: a rank may leave as soon as the root's data
    /// has reached it — early non-root arrivals wait for the *root*, not
    /// for each other.
    FromRoot {
        /// Broadcast root.
        root: Rank,
    },
    /// Reduce to `root`: non-root ranks deposit their contribution and
    /// leave immediately; only the root waits for everyone.
    ToRoot {
        /// Reduction root.
        root: Rank,
    },
}

/// Progress of one synchronization epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EpochState {
    /// The epoch's semantics (fixed by the first arrival; all ranks must
    /// agree, validated by the engine).
    pub kind: EpochKind,
    /// Ranks that have arrived.
    pub arrived: Vec<Rank>,
    /// Per-rank arrival times, parallel to `arrived`.
    pub arrival_times: Vec<Cycles>,
    /// Latest arrival time so far.
    pub last_arrival: Cycles,
    /// Cost added after the releasing condition is met; the maximum over
    /// the participants' views is used.
    pub cost: Cycles,
    /// All-arrived release time (AllToAll semantics), set when the last
    /// rank arrives.
    pub release_at: Option<Cycles>,
}

/// Tracker for all epochs of a run.
#[derive(Debug)]
pub struct SyncEpochs {
    n_ranks: usize,
    epochs: Vec<EpochState>,
    /// Next epoch index each rank will join.
    next: Vec<usize>,
}

impl SyncEpochs {
    /// Tracker for `n_ranks` ranks.
    pub fn new(n_ranks: usize) -> SyncEpochs {
        SyncEpochs {
            n_ranks,
            epochs: Vec::new(),
            next: vec![0; n_ranks],
        }
    }

    /// Rank `rank` arrives at its next epoch at time `t`, proposing
    /// `cost` as the epoch's completion cost. Returns the epoch index.
    ///
    /// # Panics
    /// Panics if the rank arrives at an epoch it is already in, or if the
    /// ranks disagree on the epoch's kind (mismatched collective calls —
    /// a program bug that would corrupt real MPI too).
    pub fn arrive(&mut self, rank: Rank, t: Cycles, cost: Cycles, kind: EpochKind) -> usize {
        let idx = self.next[rank];
        self.next[rank] += 1;
        if self.epochs.len() <= idx {
            self.epochs.push(EpochState {
                kind,
                arrived: Vec::new(),
                arrival_times: Vec::new(),
                last_arrival: 0,
                cost: 0,
                release_at: None,
            });
        }
        let e = &mut self.epochs[idx];
        assert_eq!(e.kind, kind, "ranks disagree on the kind of epoch {idx}");
        assert!(
            !e.arrived.contains(&rank),
            "rank {rank} arrived twice at epoch {idx}"
        );
        e.arrived.push(rank);
        e.arrival_times.push(t);
        e.last_arrival = e.last_arrival.max(t);
        e.cost = e.cost.max(cost);
        if e.arrived.len() == self.n_ranks {
            e.release_at = Some(e.last_arrival + e.cost);
        }
        idx
    }

    /// All-arrived release time of epoch `idx` (every rank present).
    pub fn release_time(&self, idx: usize) -> Option<Cycles> {
        self.epochs.get(idx).and_then(|e| e.release_at)
    }

    /// When `rank` may leave epoch `idx`, under the epoch's semantics:
    ///
    /// * `AllToAll`: the all-arrived release time.
    /// * `FromRoot`: `max(own arrival, root arrival) + cost` once the root
    ///   has arrived (`None` before).
    /// * `ToRoot`: non-roots leave at `own arrival + cost`; the root needs
    ///   everyone.
    pub fn release_time_for(&self, idx: usize, rank: Rank) -> Option<Cycles> {
        let e = self.epochs.get(idx)?;
        let arrival_of = |r: Rank| {
            e.arrived
                .iter()
                .position(|&x| x == r)
                .map(|p| e.arrival_times[p])
        };
        let own = arrival_of(rank)?;
        match e.kind {
            EpochKind::AllToAll => e.release_at,
            EpochKind::FromRoot { root } => {
                let root_t = arrival_of(root)?;
                Some(own.max(root_t) + e.cost)
            }
            EpochKind::ToRoot { root } => {
                if rank == root {
                    e.release_at
                } else {
                    Some(own + e.cost)
                }
            }
        }
    }

    /// The ranks `rank` is still waiting for inside epoch `idx` — empty
    /// if the rank could already leave (or is not in the epoch). Feeds
    /// the engine's deadlock wait-for graph.
    ///
    /// * `AllToAll`: every rank that has not arrived yet.
    /// * `FromRoot`: the root, until it arrives.
    /// * `ToRoot`: the root waits for every absentee; non-roots for nobody.
    pub fn missing_from(&self, idx: usize, rank: Rank) -> Vec<Rank> {
        let Some(e) = self.epochs.get(idx) else {
            return Vec::new();
        };
        let absent = || -> Vec<Rank> {
            (0..self.n_ranks)
                .filter(|r| !e.arrived.contains(r))
                .collect()
        };
        match e.kind {
            EpochKind::AllToAll => absent(),
            EpochKind::FromRoot { root } => {
                if e.arrived.contains(&root) {
                    Vec::new()
                } else {
                    vec![root]
                }
            }
            EpochKind::ToRoot { root } => {
                if rank == root {
                    absent()
                } else {
                    Vec::new()
                }
            }
        }
    }

    /// The epoch index `rank` would join next.
    pub fn next_epoch(&self, rank: Rank) -> usize {
        self.next[rank]
    }

    /// Inspect an epoch.
    pub fn epoch(&self, idx: usize) -> Option<&EpochState> {
        self.epochs.get(idx)
    }

    /// Snapshot the tracker as plain data.
    pub fn save_state(&self) -> SyncEpochsState {
        SyncEpochsState {
            epochs: self.epochs.clone(),
            next: self.next.clone(),
        }
    }

    /// Overwrite the tracker from a snapshot taken with the same rank
    /// count. On error the state is unspecified but safe.
    pub fn restore_state(&mut self, s: &SyncEpochsState) -> Result<(), String> {
        if s.next.len() != self.n_ranks {
            return Err(format!(
                "epoch snapshot has {} ranks, tracker has {}",
                s.next.len(),
                self.n_ranks
            ));
        }
        for (idx, e) in s.epochs.iter().enumerate() {
            if e.arrived.len() != e.arrival_times.len() {
                return Err(format!(
                    "epoch {idx}: {} arrivals but {} arrival times",
                    e.arrived.len(),
                    e.arrival_times.len()
                ));
            }
            if let Some(&r) = e.arrived.iter().find(|&&r| r >= self.n_ranks) {
                return Err(format!(
                    "epoch {idx}: arrived rank {r} out of range for {} ranks",
                    self.n_ranks
                ));
            }
        }
        self.epochs = s.epochs.clone();
        self.next = s.next.clone();
        Ok(())
    }
}

/// Plain-data snapshot of a [`SyncEpochs`] tracker.
#[derive(Debug, Clone, PartialEq)]
pub struct SyncEpochsState {
    /// Every epoch seen so far, in order.
    pub epochs: Vec<EpochState>,
    /// Next epoch index each rank will join.
    pub next: Vec<usize>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn epoch_releases_after_last_arrival_plus_cost() {
        let mut s = SyncEpochs::new(3);
        let e0 = s.arrive(0, 100, 50, EpochKind::AllToAll);
        assert_eq!(e0, 0);
        assert_eq!(s.release_time(0), None);
        s.arrive(2, 400, 50, EpochKind::AllToAll);
        assert_eq!(s.release_time(0), None, "one rank still missing");
        s.arrive(1, 250, 50, EpochKind::AllToAll);
        assert_eq!(s.release_time(0), Some(450), "max arrival 400 + cost 50");
    }

    #[test]
    fn ranks_progress_through_epochs_independently() {
        let mut s = SyncEpochs::new(2);
        assert_eq!(s.arrive(0, 10, 1, EpochKind::AllToAll), 0);
        assert_eq!(
            s.arrive(0, 30, 1, EpochKind::AllToAll),
            1,
            "rank 0 runs ahead to epoch 1"
        );
        assert_eq!(s.next_epoch(0), 2);
        assert_eq!(s.next_epoch(1), 0);
        assert_eq!(s.arrive(1, 50, 1, EpochKind::AllToAll), 0);
        assert_eq!(s.release_time(0), Some(51));
        assert_eq!(s.release_time(1), None);
    }

    #[test]
    fn cost_is_max_over_views() {
        let mut s = SyncEpochs::new(2);
        s.arrive(0, 10, 100, EpochKind::AllToAll);
        s.arrive(1, 20, 999, EpochKind::AllToAll);
        assert_eq!(s.release_time(0), Some(20 + 999));
    }

    #[test]
    #[should_panic(expected = "arrived twice")]
    fn double_arrival_panics() {
        let mut s = SyncEpochs::new(3);
        s.arrive(0, 1, 0, EpochKind::AllToAll);
        // Rank 0's next epoch is 1, but epoch 1 does not exist until
        // someone pushes it; arrange a genuine double arrival by abusing
        // internals is impossible through the API, so simulate the error:
        // two ranks = same epoch; rank arrives again only via next[],
        // which increments. Force the panic by resetting next.
        let mut s2 = SyncEpochs::new(1);
        s2.arrive(0, 1, 0, EpochKind::AllToAll);
        s2.next[0] = 0;
        s2.arrive(0, 2, 0, EpochKind::AllToAll);
    }

    #[test]
    fn single_rank_epochs_release_immediately() {
        let mut s = SyncEpochs::new(1);
        s.arrive(0, 5, 7, EpochKind::AllToAll);
        assert_eq!(s.release_time(0), Some(12));
    }

    #[test]
    fn bcast_releases_on_root_arrival() {
        let mut s = SyncEpochs::new(3);
        let kind = EpochKind::FromRoot { root: 1 };
        s.arrive(0, 100, 10, kind); // early non-root
        assert_eq!(s.release_time_for(0, 0), None, "root not here yet");
        s.arrive(1, 300, 10, kind); // the root
        assert_eq!(s.release_time_for(0, 0), Some(310), "waits for the root");
        assert_eq!(
            s.release_time_for(0, 1),
            Some(310),
            "root leaves after its own cost"
        );
        s.arrive(2, 500, 10, kind); // late non-root
        assert_eq!(
            s.release_time_for(0, 2),
            Some(510),
            "late arrival does not wait (data already there)"
        );
    }

    #[test]
    fn reduce_lets_non_roots_leave_immediately() {
        let mut s = SyncEpochs::new(3);
        let kind = EpochKind::ToRoot { root: 0 };
        s.arrive(1, 100, 5, kind);
        assert_eq!(
            s.release_time_for(0, 1),
            Some(105),
            "contributor leaves at once"
        );
        s.arrive(0, 200, 5, kind); // the root
        assert_eq!(
            s.release_time_for(0, 0),
            None,
            "root still waits for rank 2"
        );
        s.arrive(2, 400, 5, kind);
        assert_eq!(s.release_time_for(0, 0), Some(405));
    }

    #[test]
    fn missing_from_reports_absent_peers_per_kind() {
        let mut s = SyncEpochs::new(3);
        s.arrive(0, 1, 0, EpochKind::AllToAll);
        assert_eq!(s.missing_from(0, 0), vec![1, 2]);

        let mut b = SyncEpochs::new(3);
        b.arrive(1, 1, 0, EpochKind::FromRoot { root: 0 });
        assert_eq!(b.missing_from(0, 1), vec![0], "waits for the root only");
        b.arrive(0, 2, 0, EpochKind::FromRoot { root: 0 });
        assert_eq!(b.missing_from(0, 1), Vec::<Rank>::new());

        let mut r = SyncEpochs::new(3);
        r.arrive(0, 1, 0, EpochKind::ToRoot { root: 0 });
        r.arrive(1, 2, 0, EpochKind::ToRoot { root: 0 });
        assert_eq!(r.missing_from(0, 0), vec![2], "root waits for absentees");
        assert_eq!(r.missing_from(0, 1), Vec::<Rank>::new());
    }

    #[test]
    #[should_panic(expected = "disagree on the kind")]
    fn mismatched_kinds_panic() {
        let mut s = SyncEpochs::new(2);
        s.arrive(0, 1, 0, EpochKind::AllToAll);
        s.arrive(1, 2, 0, EpochKind::FromRoot { root: 0 });
    }

    proptest! {
        /// Release time is always >= every arrival.
        #[test]
        fn prop_release_after_all_arrivals(
            times in proptest::collection::vec(0u64..1_000_000, 2..8),
            cost in 0u64..10_000,
        ) {
            let n = times.len();
            let mut s = SyncEpochs::new(n);
            for (r, &t) in times.iter().enumerate() {
                s.arrive(r, t, cost, EpochKind::AllToAll);
            }
            let rel = s.release_time(0).unwrap();
            for &t in &times {
                prop_assert!(rel >= t + cost);
            }
            prop_assert_eq!(rel, times.iter().max().unwrap() + cost);
        }
    }
}
