//! A warmed cycle-level core's `advance` allocates nothing. The hot
//! engine keeps its issue masks, entry mirrors and completion and wake
//! rings in per-core scratch built once with the core, so after a
//! warm-up the canonical queues have reached their working capacity and
//! stepping two shared-L2 cores through the paper loads and the MPI spin
//! stream must not touch the heap.
//!
//! This file is a test binary of its own because it installs a counting
//! global allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mtb_smtsim::chip::{build_cores_grouped, Fidelity};
use mtb_smtsim::model::ThreadId;
use mtb_smtsim::pairmodel::spin_workload;
use mtb_smtsim::{CoreConfig, HwPriority};
use mtb_workloads::loads::{btmz_load, metbench_load, siesta_load};

thread_local! {
    /// Heap allocations (including reallocations) made by this thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Allocations made so far by the calling thread.
fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

fn count_one() {
    // `try_with`: a thread may still allocate while its locals are torn
    // down. The cell is const-initialised, so reaching it never allocates.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

/// The system allocator plus a per-thread allocation counter, so the test
/// thread sees only its own allocations and not the harness's.
struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`, a
// correct `GlobalAlloc`, and returns its result; the only extra work is a
// thread-local counter update that neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller upholds `alloc`'s contract, which is the one
        // `System.alloc` requires.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: `ptr` came from this allocator, hence from `System`,
        // with `layout`; the caller upholds the rest of `realloc`'s
        // contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, hence from `System`,
        // with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn warmed_cycle_advance_does_not_allocate() {
    let mut cores = build_cores_grouped(2, &Fidelity::Cycle(CoreConfig::default()), 2);
    cores[0].assign(ThreadId::A, metbench_load(1));
    cores[0].assign(ThreadId::B, spin_workload());
    cores[1].assign(ThreadId::A, btmz_load(2));
    cores[1].assign(ThreadId::B, siesta_load(3));
    for core in cores.iter_mut() {
        for t in ThreadId::BOTH {
            core.set_priority(t, HwPriority::MEDIUM);
        }
    }
    // Warm-up: caches, predictors and the canonical queues' capacity.
    for core in cores.iter_mut() {
        core.advance(50_000);
    }

    let before = allocs();
    let mut retired = [0u64; 2];
    for round in 0..1_000u64 {
        let chunk = 500 + round % 7 * 211;
        for (k, core) in cores.iter_mut().enumerate() {
            let [a, b] = core.advance(chunk);
            retired[k] += a + b;
        }
    }
    let made = allocs() - before;

    assert_eq!(made, 0, "1000 warmed advances allocated {made} times");
    assert!(
        retired.iter().all(|&r| r > 0),
        "both cores ran: {retired:?}"
    );
}
