//! [`Engine::step_events`] allocates nothing once warm, with or without
//! noise: the engine refills one target list per event in place, and the
//! machine walks every noise edge of the step — handler entries and
//! exits, the workload re-installs they cause, the re-predictions after
//! each flip — on scratch it sized in the first steps. The engine-level
//! twin of `crates/oskernel/tests/advance_allocs.rs`.
//!
//! Every step here is bounded by a quantum that spans several noise
//! edges yet lets 1000 steps fit inside one compute phase: a step that
//! reached an MPI event would grow a timeline, which allocates by design.
//!
//! This file is a test binary of its own because it installs a counting
//! global allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mtb_mpisim::{Engine, NullObserver, ProgramBuilder, SimConfig, Stepping, WorkSpec};
use mtb_oskernel::noise::interrupt_annoyance;
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

/// Quantum of every step: several noise edges fall inside each one.
const QUANTUM: u64 = 40_000;

/// A 4-rank meso run on the paper's two cores, one rank per context, each
/// computing one long phase before a final barrier.
fn four_ranks(noisy: bool) -> Engine {
    let programs: Vec<_> = (0..4u64)
        .map(|r| {
            let w = Workload::with_profile(
                "w",
                StreamSpec::balanced(r + 1),
                WorkloadProfile::new(1.0 + 0.5 * r as f64, 0.2, 0.05),
            );
            ProgramBuilder::new()
                .compute(WorkSpec::new(w, 400_000_000))
                .barrier()
                .build()
        })
        .collect();
    let mut cfg = SimConfig::power5(4);
    cfg.stepping = Stepping::Quantum;
    cfg.quantum = QUANTUM;
    if noisy {
        cfg.noise = interrupt_annoyance(2, 15_000, 700, 5_000, 400);
    }
    Engine::new(&programs, cfg)
}

/// Allocations made by 1000 warmed single-event steps, after checking
/// that none of them reached an MPI event.
fn allocations_over_1000_steps(engine: &mut Engine) -> u64 {
    // Warm-up: the first steps size the target list and every domain's
    // calendar and scratch.
    assert!(!engine.step_events(&mut NullObserver, 10).unwrap());
    let before = allocs();
    for _ in 0..1_000 {
        assert!(!engine.step_events(&mut NullObserver, 1).unwrap());
    }
    let made = allocs() - before;
    assert_eq!(engine.events(), 1_010);
    assert_eq!(
        engine.machine().now(),
        1_010 * QUANTUM,
        "every step ran to its quantum"
    );
    made
}

#[test]
fn noisy_engine_steps_do_not_allocate() {
    let mut engine = four_ranks(true);
    let made = allocations_over_1000_steps(&mut engine);
    assert_eq!(made, 0, "1000 noisy engine steps allocated {made} times");
    let m = engine.machine();
    assert!(
        m.pcb(0).unwrap().interrupt_cycles > 20 * QUANTUM,
        "noise was delivered"
    );
    assert!((0..4).all(|pid| m.retired(pid) > 0), "every rank ran");
}

#[test]
fn noise_free_engine_steps_do_not_allocate() {
    let mut engine = four_ranks(false);
    let made = allocations_over_1000_steps(&mut engine);
    assert_eq!(
        made, 0,
        "1000 noise-free engine steps allocated {made} times"
    );
    assert!((0..4).all(|pid| engine.machine().retired(pid) > 0));
}
