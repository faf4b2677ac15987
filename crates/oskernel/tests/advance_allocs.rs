//! A noise-free [`Machine::advance`] allocates nothing. The event engine
//! calls it once per event, so any per-epoch heap traffic multiplies into
//! every meso run: after one warm-up epoch, stepping the machine, asking
//! every process for its completion time and rewriting priorities must
//! not touch the heap.
//!
//! This file is a test binary of its own because it installs a counting
//! global allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mtb_oskernel::{CtxAddr, KernelConfig, Machine};
use mtb_smtsim::chip::build_cores;
use mtb_smtsim::inst::StreamSpec;
use mtb_smtsim::model::{Workload, WorkloadProfile};

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
fn noise_free_advance_does_not_allocate() {
    let mut m = Machine::new(build_cores(2, false), KernelConfig::patched());
    for pid in 0..4 {
        m.spawn(pid, format!("P{pid}"), CtxAddr::from_cpu(pid))
            .unwrap();
        let w = Workload::with_profile(
            "w",
            StreamSpec::balanced(pid as u64 + 1),
            WorkloadProfile::new(1.0 + 0.5 * pid as f64, 0.2, 0.05),
        );
        m.run_workload(pid, w).unwrap();
    }
    // Warm-up: the first epoch sizes the machine's accounting scratch.
    m.advance(1_000);

    let before = allocs();
    let mut horizon = 0;
    for round in 0..1_000u64 {
        m.advance(997);
        for pid in 0..4 {
            horizon += m.cycles_to_retire(pid, 5_000).expect("running");
        }
        if round % 10 == 0 {
            let pid = (round / 10 % 4) as usize;
            let level = 2 + (round / 10 % 5) as u8;
            m.set_priority_procfs(pid, level).unwrap();
        }
    }
    let made = allocs() - before;

    assert_eq!(made, 0, "1000 noise-free rounds allocated {made} times");
    assert!(horizon > 0);
    assert!((0..4).all(|pid| m.retired(pid) > 0), "every process ran");
}
