//! Deterministic work-sharding runner for intra-run parallelism.
//!
//! The build environment has no registry access (no rayon), so this crate
//! hand-rolls the two pieces the simulators need, mirroring the offline-stub
//! pattern used for `proptest`/`criterion`:
//!
//! * [`ShardedRunner`] — persistent shard-pinned workers driven by an
//!   **epoch** protocol. One call to [`ShardedRunner::run_epoch`] runs a
//!   set of *disjoint* shards (each shard owns its inputs and its output
//!   destinations) to completion. Shard *i* always lands on executor
//!   `i % executors` (the caller is executor 0), so with a stable permit
//!   grant the same worker revisits the same shard every epoch, keeping
//!   its L2-domain state hot. Publication is a per-worker mailbox plus a
//!   seqlock-style epoch counter: posting an epoch is one plain store and
//!   one atomic store per participating worker, and completion is one
//!   atomic store per worker — no per-shard mutexes, no global job lock.
//!   A simulation runs one epoch per advance window (thousands per run),
//!   so this per-epoch cost is the number that decides whether intra-run
//!   parallelism wins or loses.
//!
//! * [`Budget`] — a process-wide permit budget composing sweep-level
//!   parallelism (`SweepRunner --jobs`) with run-level parallelism
//!   (intra-run stepping threads) so the two layers never oversubscribe
//!   the machine: every live simulation-executing thread beyond the first
//!   holds a permit, and `try_acquire` never grants past the total.
//!   Permits are acquired *per epoch* and released at the merge point —
//!   an idle runner (its workers parked between epochs) holds none, so
//!   it can never starve sweep-level run slots.
//!
//! Determinism contract: `run_epoch` assigns each shard index to exactly
//! one executor and every shard writes only into state it owns, so
//! results are bit-identical for *any* worker count — including zero
//! extra workers when the budget is exhausted (the caller then runs every
//! shard inline, with zero synchronization). Scheduling affects only
//! wall-clock time.

// The one crate in the workspace allowed to use `unsafe` (scoped
// shared-memory hand-off between the epoch driver and its workers);
// every block must say why it is sound.
#![deny(clippy::undocumented_unsafe_blocks)]

use std::cell::UnsafeCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

/// A shared permit budget for simulation-executing threads.
///
/// The budget counts *live executors*: the calling thread is always one,
/// and each extra worker (sweep-level or intra-run) holds one permit.
/// `try_acquire` is non-blocking — callers take what is available and run
/// the remainder of their work inline, which keeps the composition
/// deadlock-free and the results (by the epoch contract) unchanged.
#[derive(Debug)]
pub struct Budget {
    total: AtomicUsize,
    extra_in_use: AtomicUsize,
    peak: AtomicUsize,
}

impl Budget {
    /// A budget allowing at most `total` live executor threads
    /// (clamped to ≥ 1: the caller itself always runs).
    pub fn new(total: usize) -> Budget {
        Budget {
            total: AtomicUsize::new(total.max(1)),
            extra_in_use: AtomicUsize::new(0),
            peak: AtomicUsize::new(1),
        }
    }

    /// Maximum number of live executor threads.
    pub fn total(&self) -> usize {
        self.total.load(Ordering::Relaxed)
    }

    /// Replace the budget total (e.g. from `--jobs`). Already-granted
    /// permits are unaffected; future acquisitions see the new cap.
    pub fn set_total(&self, total: usize) {
        self.total.store(total.max(1), Ordering::Relaxed);
    }

    /// Currently live executors (1 caller + granted extra permits).
    pub fn live(&self) -> usize {
        1 + self.extra_in_use.load(Ordering::Relaxed)
    }

    /// High-water mark of [`Budget::live`] as seen by `try_acquire`.
    pub fn peak(&self) -> usize {
        self.peak.load(Ordering::Relaxed)
    }

    /// Grant up to `want` extra-thread permits, returning how many were
    /// granted (possibly 0). Never blocks; never exceeds `total - 1`
    /// extra permits in flight.
    pub fn try_acquire(&self, want: usize) -> usize {
        let cap = self.total().saturating_sub(1);
        let mut cur = self.extra_in_use.load(Ordering::Relaxed);
        loop {
            let grant = want.min(cap.saturating_sub(cur));
            if grant == 0 {
                return 0;
            }
            match self.extra_in_use.compare_exchange(
                cur,
                cur + grant,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    self.peak.fetch_max(1 + cur + grant, Ordering::Relaxed);
                    return grant;
                }
                Err(seen) => cur = seen,
            }
        }
    }

    /// Return `n` previously granted permits.
    pub fn release(&self, n: usize) {
        if n > 0 {
            let prev = self.extra_in_use.fetch_sub(n, Ordering::AcqRel);
            debug_assert!(prev >= n, "budget release without matching acquire");
        }
    }
}

/// Resolve an `MTB_JOBS`-style override into a budget total.
///
/// Returns `(total, warning)`. An unset or empty variable silently uses
/// `default` (the machine's parallelism, for the global budget). `"0"` is
/// treated as an explicit request for sequential execution — total 1 —
/// with a warning, since `0` is not a thread count. Anything unparsable
/// falls back to `default` with a warning; silently ignoring a typo here
/// used to mean a CI knob like `MTB_JOBS=fourx` quietly ran at full
/// parallelism.
pub fn parse_jobs(raw: Option<&str>, default: usize) -> (usize, Option<String>) {
    let Some(raw) = raw else {
        return (default, None);
    };
    let trimmed = raw.trim();
    if trimmed.is_empty() {
        return (default, None);
    }
    match trimmed.parse::<usize>() {
        Ok(0) => (
            1,
            Some("MTB_JOBS=0 is not a thread count; treating it as 1 (sequential)".into()),
        ),
        Ok(n) => (n, None),
        Err(_) => (
            default,
            Some(format!(
                "MTB_JOBS={raw:?} is not a number; falling back to the default ({default})"
            )),
        ),
    }
}

/// The process-wide budget. Total defaults to the `MTB_JOBS` environment
/// variable when set (the CI matrix knob), else `available_parallelism`.
/// Malformed values warn on stderr ([`parse_jobs`]).
pub fn global_budget() -> &'static Arc<Budget> {
    static GLOBAL: OnceLock<Arc<Budget>> = OnceLock::new();
    GLOBAL.get_or_init(|| {
        let default = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        let raw = std::env::var("MTB_JOBS").ok();
        let (total, warning) = parse_jobs(raw.as_deref(), default);
        if let Some(w) = warning {
            eprintln!("mtb-pool: {w}");
        }
        Arc::new(Budget::new(total))
    })
}

/// Type-erased shard dispatcher published to the workers. The pointee
/// lives on the `run_epoch` caller's stack; the coordinator awaits every
/// participating worker's completion before returning, so the pointer
/// never dangles while reachable.
#[derive(Clone, Copy)]
struct Job(*const (dyn Fn(usize) + Sync));

// SAFETY: the pointee is `Sync` (shared invocation from many threads is
// its contract) and outlives every dereference per the epoch protocol.
unsafe impl Send for Job {}

/// What the coordinator posts to one worker for one epoch. A worker at
/// index `w` is executor `w + 1` and runs shards `w + 1`, `w + 1 +
/// executors`, … — the index arithmetic lives on the worker so the
/// mailbox stays a single small Copy value.
#[derive(Clone, Copy)]
struct Mail {
    job: Job,
    /// Shard count this epoch.
    shards: usize,
    /// Executors this epoch (caller + participating workers).
    executors: usize,
}

/// Spin iterations before yielding, and yields before parking. Both are
/// deliberately tiny: on an oversubscribed host (CI runners, `--jobs`
/// beyond the core count) a long spin steals the CPU from the very
/// thread being waited on.
const SPINS: u32 = 64;
const YIELDS: u32 = 16;

struct WorkerSlot {
    /// Epoch number of the mail currently in `mailbox` (0 = none yet).
    /// Monotonically increasing; only ever stored by the coordinator.
    mail_epoch: AtomicU64,
    /// Last epoch this worker completed.
    done_epoch: AtomicU64,
    /// One-deep mailbox: written by the coordinator strictly before the
    /// matching `mail_epoch` store, read by the worker strictly after
    /// observing that store. A worker not participating in an epoch
    /// never has its mailbox touched, and participating workers are
    /// awaited before the next epoch is posted — so writes and reads
    /// can never overlap.
    mailbox: UnsafeCell<Option<Mail>>,
    /// Worker is parked (or about to park) on `cv`.
    sleeping: AtomicBool,
    lock: Mutex<()>,
    cv: Condvar,
}

// SAFETY: the mailbox handoff is ordered by `mail_epoch`/`done_epoch`
// as described above; everything else is atomics and sync primitives.
unsafe impl Sync for WorkerSlot {}

impl WorkerSlot {
    fn new() -> WorkerSlot {
        WorkerSlot {
            mail_epoch: AtomicU64::new(0),
            done_epoch: AtomicU64::new(0),
            mailbox: UnsafeCell::new(None),
            sleeping: AtomicBool::new(false),
            lock: Mutex::new(()),
            cv: Condvar::new(),
        }
    }
}

struct RunnerShared {
    slots: Vec<WorkerSlot>,
    shutdown: AtomicBool,
    /// Any shard panicked this epoch (re-raised on the coordinator).
    panicked: AtomicBool,
    /// Coordinator is parked (or about to park) on `done_cv`.
    coord_sleeping: AtomicBool,
    done_lock: Mutex<()>,
    done_cv: Condvar,
}

/// Persistent shard-pinned workers driven by per-epoch mailboxes; see
/// the crate docs for the protocol and the determinism contract.
pub struct ShardedRunner {
    shared: Arc<RunnerShared>,
    handles: Vec<JoinHandle<()>>,
    budget: Arc<Budget>,
    epoch: u64,
}

impl std::fmt::Debug for ShardedRunner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedRunner")
            .field("threads", &self.threads())
            .finish()
    }
}

impl ShardedRunner {
    /// A runner targeting `threads` executors, drawing per-epoch permits
    /// from the global budget. `threads - 1` workers are spawned up
    /// front and parked; how many actually run in a given epoch depends
    /// on the permits available at that moment — results are identical
    /// at any grant.
    pub fn new(threads: usize) -> ShardedRunner {
        ShardedRunner::with_budget(threads, Arc::clone(global_budget()))
    }

    /// As [`ShardedRunner::new`] but against an explicit budget (tests,
    /// nested harnesses). Spawning takes no permits: a parked worker is
    /// not a live executor.
    pub fn with_budget(threads: usize, budget: Arc<Budget>) -> ShardedRunner {
        let workers = threads.saturating_sub(1);
        let shared = Arc::new(RunnerShared {
            slots: (0..workers).map(|_| WorkerSlot::new()).collect(),
            shutdown: AtomicBool::new(false),
            panicked: AtomicBool::new(false),
            coord_sleeping: AtomicBool::new(false),
            done_lock: Mutex::new(()),
            done_cv: Condvar::new(),
        });
        let handles = (0..workers)
            .map(|w| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("mtb-shard-{w}"))
                    .spawn(move || worker_loop(&shared, w))
                    .expect("spawn shard worker")
            })
            .collect();
        ShardedRunner {
            shared,
            handles,
            budget,
            epoch: 0,
        }
    }

    /// Maximum executors an epoch can use (spawned workers + the
    /// caller). The actual count per epoch is bounded by the permits the
    /// budget grants at that moment.
    pub fn threads(&self) -> usize {
        self.handles.len() + 1
    }

    /// Run `f(i, shard)` for every shard, each exactly once, distributed
    /// over the caller and the workers the budget grants this epoch;
    /// returns when all shards finished (the merge point), with the
    /// number of executors that ran the epoch. Shards must be
    /// self-contained (own their inputs and output destinations) — that
    /// is what makes the result independent of the schedule. Panics from
    /// `f` are re-raised on the caller after the epoch drains.
    pub fn run_epoch<T: Send>(&mut self, shards: Vec<T>, f: impl Fn(usize, T) + Sync) -> usize {
        let n = shards.len();
        if n == 0 {
            return 1;
        }
        let want = self.handles.len().min(n - 1);
        let granted = if want > 0 {
            self.budget.try_acquire(want)
        } else {
            0
        };
        if granted == 0 {
            for (i, s) in shards.into_iter().enumerate() {
                f(i, s);
            }
            return 1;
        }
        let executors = granted + 1;

        struct Slots<T>(Vec<UnsafeCell<Option<T>>>);
        // SAFETY: each index is taken by exactly one executor (the one
        // with `i % executors`), so accesses never alias.
        unsafe impl<T: Send> Sync for Slots<T> {}
        let slots = Slots(
            shards
                .into_iter()
                .map(|s| UnsafeCell::new(Some(s)))
                .collect(),
        );
        // Capture the `Sync` wrapper, not its inner Vec (closure field
        // precision would otherwise capture the non-Sync Vec directly).
        let slots = &slots;
        let call = |i: usize| {
            // SAFETY: unaliased per the executor mapping above.
            let item = unsafe { (*slots.0[i].get()).take().expect("shard dispatched twice") };
            f(i, item);
        };
        let erased: &(dyn Fn(usize) + Sync) = &call;
        // SAFETY: lifetime erasure only — the completion wait below keeps
        // `call` (and everything it borrows) alive past the last use.
        let job = Job(unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(erased)
        });

        self.epoch += 1;
        let epoch = self.epoch;
        let mail = Mail {
            job,
            shards: n,
            executors,
        };
        for slot in &self.shared.slots[..granted] {
            // SAFETY: this worker completed every prior epoch it saw
            // (we awaited it) and reads the mailbox only after observing
            // the `mail_epoch` store below.
            unsafe { *slot.mailbox.get() = Some(mail) };
            slot.mail_epoch.store(epoch, Ordering::SeqCst);
            if slot.sleeping.load(Ordering::SeqCst) {
                let _g = slot.lock.lock().unwrap();
                slot.cv.notify_all();
            }
        }

        // The caller is executor 0: shards 0, executors, 2·executors, …
        let mut ok = true;
        let mut i = 0;
        while i < n {
            ok &= catch_unwind(AssertUnwindSafe(|| call(i))).is_ok();
            i += executors;
        }

        self.await_done(granted, epoch);
        self.budget.release(granted);
        if !ok || self.shared.panicked.swap(false, Ordering::SeqCst) {
            panic!("mtb-pool: a sharded epoch item panicked");
        }
        executors
    }

    /// Wait until every participating worker finished `epoch`: a short
    /// spin/yield, then park on `done_cv`.
    fn await_done(&self, participants: usize, epoch: u64) {
        for slot in &self.shared.slots[..participants] {
            let mut tries = 0u32;
            loop {
                if slot.done_epoch.load(Ordering::SeqCst) >= epoch {
                    break;
                }
                tries += 1;
                if tries <= SPINS {
                    std::hint::spin_loop();
                } else if tries <= SPINS + YIELDS {
                    std::thread::yield_now();
                } else {
                    let mut g = self.shared.done_lock.lock().unwrap();
                    self.shared.coord_sleeping.store(true, Ordering::SeqCst);
                    while slot.done_epoch.load(Ordering::SeqCst) < epoch {
                        g = self.shared.done_cv.wait(g).unwrap();
                    }
                    self.shared.coord_sleeping.store(false, Ordering::SeqCst);
                    break;
                }
            }
        }
    }
}

/// Wait for a new epoch (one with number > `last`) or shutdown.
fn wait_for_mail(shared: &RunnerShared, slot: &WorkerSlot, last: u64) -> Option<u64> {
    let mut tries = 0u32;
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return None;
        }
        let e = slot.mail_epoch.load(Ordering::SeqCst);
        if e > last {
            return Some(e);
        }
        tries += 1;
        if tries <= SPINS {
            std::hint::spin_loop();
        } else if tries <= SPINS + YIELDS {
            std::thread::yield_now();
        } else {
            // Park. The coordinator stores `mail_epoch` before loading
            // `sleeping` (both SeqCst), and we store `sleeping` before
            // re-checking `mail_epoch` under the lock — so either it
            // sees us sleeping and notifies (under the same lock), or
            // our re-check sees the new epoch. No lost wakeups.
            let mut g = slot.lock.lock().unwrap();
            slot.sleeping.store(true, Ordering::SeqCst);
            while slot.mail_epoch.load(Ordering::SeqCst) <= last
                && !shared.shutdown.load(Ordering::SeqCst)
            {
                g = slot.cv.wait(g).unwrap();
            }
            slot.sleeping.store(false, Ordering::SeqCst);
        }
    }
}

fn worker_loop(shared: &RunnerShared, w: usize) {
    let slot = &shared.slots[w];
    let mut last = 0u64;
    while let Some(epoch) = wait_for_mail(shared, slot, last) {
        // SAFETY: posted before the `mail_epoch` store we just observed.
        let mail = unsafe { (*slot.mailbox.get()).expect("mail posted with epoch") };
        let mut ok = true;
        // Executor w + 1: shards w + 1, w + 1 + executors, …
        let mut i = w + 1;
        while i < mail.shards {
            // SAFETY: `job` remains valid until the coordinator observes
            // our `done_epoch` store below, per the epoch protocol.
            ok &= catch_unwind(AssertUnwindSafe(|| unsafe { (*mail.job.0)(i) })).is_ok();
            i += mail.executors;
        }
        if !ok {
            shared.panicked.store(true, Ordering::SeqCst);
        }
        slot.done_epoch.store(epoch, Ordering::SeqCst);
        if shared.coord_sleeping.load(Ordering::SeqCst) {
            let _g = shared.done_lock.lock().unwrap();
            shared.done_cv.notify_all();
        }
        last = epoch;
    }
}

impl Drop for ShardedRunner {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        for slot in &self.shared.slots {
            let _g = slot.lock.lock().unwrap();
            slot.cv.notify_all();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
        // No budget release: an idle runner holds no permits.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    fn big_budget() -> Arc<Budget> {
        Arc::new(Budget::new(64))
    }

    #[test]
    fn parse_jobs_accepts_numbers_and_defaults_when_unset() {
        assert_eq!(parse_jobs(None, 6), (6, None));
        assert_eq!(parse_jobs(Some(""), 6), (6, None));
        assert_eq!(parse_jobs(Some("  "), 6), (6, None));
        assert_eq!(parse_jobs(Some("4"), 6), (4, None));
        assert_eq!(parse_jobs(Some(" 12 "), 6), (12, None));
    }

    #[test]
    fn parse_jobs_zero_means_sequential_with_warning() {
        let (total, warn) = parse_jobs(Some("0"), 6);
        assert_eq!(total, 1, "0 is an explicit request for no parallelism");
        assert!(warn.unwrap().contains("MTB_JOBS=0"));
    }

    #[test]
    fn parse_jobs_garbage_warns_and_falls_back() {
        for bad in ["x", "four", "-2", "1.5", "8threads"] {
            let (total, warn) = parse_jobs(Some(bad), 6);
            assert_eq!(total, 6, "{bad:?} must fall back to the default");
            let w = warn.unwrap_or_else(|| panic!("{bad:?} must warn"));
            assert!(w.contains(bad), "warning names the bad value: {w}");
        }
    }

    #[test]
    fn epoch_runs_every_shard_exactly_once() {
        let mut runner = ShardedRunner::with_budget(4, big_budget());
        assert_eq!(runner.threads(), 4);
        let hits: Vec<AtomicU64> = (0..100).map(|_| AtomicU64::new(0)).collect();
        let items: Vec<usize> = (0..100).collect();
        let executors = runner.run_epoch(items, |i, item| {
            assert_eq!(i, item);
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(executors, 4);
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn epoch_moves_results_through_owned_slots() {
        let mut runner = ShardedRunner::with_budget(3, big_budget());
        let mut out = vec![0u64; 37];
        let items: Vec<(usize, &mut u64)> = out.iter_mut().enumerate().collect();
        runner.run_epoch(items, |_, (i, slot)| *slot = (i as u64) * 3 + 1);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, (i as u64) * 3 + 1);
        }
    }

    #[test]
    fn zero_extra_permits_degrades_to_sequential() {
        let budget = Arc::new(Budget::new(1));
        let mut runner = ShardedRunner::with_budget(8, Arc::clone(&budget));
        assert_eq!(runner.threads(), 8, "workers exist, parked");
        let mut out = vec![0usize; 10];
        let items: Vec<(usize, &mut usize)> = out.iter_mut().enumerate().collect();
        let executors = runner.run_epoch(items, |_, (i, slot)| *slot = i + 1);
        assert_eq!(executors, 1, "no permits: the caller runs everything");
        assert_eq!(out, (1..=10).collect::<Vec<_>>());
        assert_eq!(budget.live(), 1);
    }

    /// The satellite regression: a runner existing but idle must hold no
    /// permits, so it cannot starve other budget users between epochs.
    /// (The old `Pool` held `threads - 1` permits for its entire life.)
    #[test]
    fn idle_runner_holds_no_permits_between_epochs() {
        let budget = Arc::new(Budget::new(3));
        let mut a = ShardedRunner::with_budget(8, Arc::clone(&budget));
        assert_eq!(budget.live(), 1, "creation takes no permits");

        // A second runner on the same budget gets the full grant even
        // though `a` exists.
        let mut b = ShardedRunner::with_budget(8, Arc::clone(&budget));
        let items: Vec<usize> = (0..8).collect();
        let used = b.run_epoch(items, |_, _| {
            assert!(budget.live() <= budget.total());
        });
        assert_eq!(used, 3, "idle runner `a` must not starve `b`");
        assert_eq!(budget.live(), 1, "permits returned at the merge point");

        // And `a` still works at full grant afterwards.
        let used = a.run_epoch((0..8).collect::<Vec<usize>>(), |_, _| {});
        assert_eq!(used, 3);
        assert_eq!(budget.live(), 1);
        assert_eq!(budget.peak(), 3);
    }

    #[test]
    fn budget_grants_never_exceed_total() {
        let budget = Arc::new(Budget::new(3));
        let mut a = ShardedRunner::with_budget(4, Arc::clone(&budget));
        // Observe the grant from inside an epoch: while `a` runs, a
        // competing acquisition sees only what is left.
        let leftover = AtomicUsize::new(usize::MAX);
        let inner = Arc::clone(&budget);
        let executors = a.run_epoch((0..16).collect::<Vec<usize>>(), |i, _| {
            if i == 0 {
                let got = inner.try_acquire(8);
                leftover.store(got, Ordering::SeqCst);
                inner.release(got);
            }
        });
        assert_eq!(executors, 3, "caller + 2 extra from a budget of 3");
        assert_eq!(
            leftover.load(Ordering::SeqCst),
            0,
            "mid-epoch the budget is exhausted"
        );
        assert_eq!(budget.live(), 1);
        assert_eq!(budget.peak(), 3);
    }

    #[test]
    fn results_identical_across_thread_counts() {
        let run = |threads: usize| {
            let mut runner = ShardedRunner::with_budget(threads, big_budget());
            let mut out = vec![0u64; 64];
            let items: Vec<(usize, &mut u64)> = out.iter_mut().enumerate().collect();
            runner.run_epoch(items, |_, (i, slot)| {
                // A mildly stateful computation per item.
                let mut x = i as u64 + 1;
                for _ in 0..1000 {
                    x = x
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                }
                *slot = x;
            });
            out
        };
        let base = run(1);
        for t in [2, 4, 8] {
            assert_eq!(run(t), base, "epoch output differs at {t} threads");
        }
    }

    #[test]
    fn runner_survives_item_panic() {
        let mut runner = ShardedRunner::with_budget(4, big_budget());
        let items: Vec<usize> = (0..16).collect();
        let r = catch_unwind(AssertUnwindSafe(|| {
            runner.run_epoch(items, |i, _| {
                if i == 7 {
                    panic!("boom");
                }
            });
        }));
        assert!(r.is_err());
        // The runner remains usable after a panicked epoch, and the
        // panic flag does not leak into the next one.
        let mut out = vec![0usize; 8];
        let items: Vec<(usize, &mut usize)> = out.iter_mut().enumerate().collect();
        runner.run_epoch(items, |_, (i, slot)| *slot = i);
        assert_eq!(out, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn sequential_reuse_many_epochs() {
        let mut runner = ShardedRunner::with_budget(4, big_budget());
        for round in 0..200u64 {
            let mut out = [0u64; 9];
            let items: Vec<(usize, &mut u64)> = out.iter_mut().enumerate().collect();
            runner.run_epoch(items, |_, (i, slot)| *slot = round * 100 + i as u64);
            for (i, v) in out.iter().enumerate() {
                assert_eq!(*v, round * 100 + i as u64);
            }
        }
    }

    #[test]
    fn single_shard_and_empty_epochs_run_inline() {
        let mut runner = ShardedRunner::with_budget(4, big_budget());
        assert_eq!(runner.run_epoch(Vec::<usize>::new(), |_, _| {}), 1);
        let hit = AtomicU64::new(0);
        let executors = runner.run_epoch(vec![42usize], |i, v| {
            assert_eq!((i, v), (0, 42));
            hit.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(executors, 1, "one shard needs no workers");
        assert_eq!(hit.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn more_executors_than_shards_is_fine() {
        let mut runner = ShardedRunner::with_budget(8, big_budget());
        let mut out = vec![0usize; 3];
        let items: Vec<(usize, &mut usize)> = out.iter_mut().enumerate().collect();
        let executors = runner.run_epoch(items, |_, (i, slot)| *slot = i + 1);
        assert!(executors <= 3, "grant capped at shard count");
        assert_eq!(out, vec![1, 2, 3]);
    }
}
