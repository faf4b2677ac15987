//! [`Machine::advance`] allocates nothing, with or without noise. The
//! event engine calls it once per event, so any per-epoch heap traffic
//! multiplies into every meso run: after one warm-up epoch, stepping the
//! machine, asking every process for its completion time, rewriting
//! priorities and re-installing workloads at noise-handler exits must not
//! touch the heap. The process table behind those calls answers any pid,
//! known or not, with a typed result and without memory in proportion to
//! the pid value.
//!
//! This file is a test binary of its own because it installs a counting
//! global allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mtb_oskernel::noise::interrupt_annoyance;
use mtb_oskernel::{
    CtxAddr, KernelConfig, Machine, MachineError, NoiseSource, PriorityError, WaitPolicy,
};
use mtb_smtsim::chip::build_cores;
use mtb_smtsim::inst::StreamSpec;
use mtb_smtsim::model::{Workload, WorkloadProfile};
use mtb_trace::Cycles;

thread_local! {
    /// Heap allocations (including reallocations) made by this thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Bytes those allocations asked for.
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// Allocations made so far by the calling thread.
fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Bytes allocated so far by the calling thread.
fn bytes() -> u64 {
    BYTES.with(Cell::get)
}

fn count_one(size: usize) {
    // `try_with`: a thread may still allocate while its locals are torn
    // down. The cells are const-initialised, so reaching them never
    // allocates.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    let _ = BYTES.try_with(|n| n.set(n.get() + size as u64));
}

/// The system allocator plus a per-thread allocation counter, so the test
/// thread sees only its own allocations and not the harness's.
struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`, a
// correct `GlobalAlloc`, and returns its result; the only extra work is a
// thread-local counter update that neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one(layout.size());
        // SAFETY: the caller upholds `alloc`'s contract, which is the one
        // `System.alloc` requires.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one(new_size);
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

/// A 2-core meso machine with a running process on each of its 4 contexts.
fn four_processes() -> Machine {
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
    m
}

#[test]
fn noise_free_advance_does_not_allocate() {
    let mut m = four_processes();
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

/// Noise windows of `sources` that close in `(t0, t1]`.
fn windows_closed(sources: &[NoiseSource], t0: Cycles, t1: Cycles) -> u64 {
    let mut closed = 0;
    for s in sources {
        let mut t = t0;
        while let Some(b) = s.next_boundary(t).filter(|&b| b <= t1) {
            if !s.active_at(b) {
                closed += 1;
            }
            t = b;
        }
    }
    closed
}

/// A noisy epoch that continues the previous one reuses its conflict
/// domain's calendar and scratch, and leaving a handler window
/// re-installs a clone of the context's workload, whose name is shared:
/// stepping engine-style from noise boundary to noise boundary allocates
/// nothing.
#[test]
fn noisy_engine_steps_do_not_allocate() {
    let mut m = four_processes();
    let sources = interrupt_annoyance(2, 15_000, 700, 5_000, 400);
    for s in &sources {
        m.add_noise(s.clone());
    }
    // Warm-up: the first epoch sizes every domain's calendar and scratch.
    m.advance(1_000);

    let t0 = m.now();
    let before = allocs();
    for _ in 0..1_000 {
        let next = m.next_boundary(m.now()).expect("periodic noise");
        m.advance(next - m.now());
    }
    let made = allocs() - before;

    let closed = windows_closed(&sources, t0, m.now());
    assert_eq!(closed, 997, "the set-up's window count moved");
    assert_eq!(
        made, 0,
        "1000 noisy epochs allocated {made} times across {closed} handler exits"
    );
    assert!(
        m.pcb(0).unwrap().interrupt_cycles > 0,
        "noise was delivered"
    );
    assert!((0..4).all(|pid| m.retired(pid) > 0), "every process ran");
}

/// Every pid-taking call answers an unknown pid the way the process
/// table always has — its typed error, `None` or 0 — without touching
/// the heap, whatever the pid's value; a pid at `usize::MAX` spawns like
/// any other, and the table stays in ascending pid order.
#[test]
fn process_table_edge_cases_stay_typed() {
    let mut m = four_processes();
    let w = Workload::from_spec("u", StreamSpec::balanced(9));

    let before = (allocs(), bytes());
    m.spawn(usize::MAX, "Pmax", CtxAddr::from_cpu(3))
        .expect_err("context 3 is taken");
    let (made, size) = (allocs() - before.0, bytes() - before.1);
    assert!(
        size < 4096,
        "a refused spawn allocated {made} times, {size} B"
    );

    let mut wide = Machine::new(build_cores(4, false), KernelConfig::patched());
    for (pid, cpu) in [(usize::MAX, 0), (7, 1), (1 << 40, 2), (0, 3)] {
        let before = bytes();
        wide.spawn(pid, format!("P{cpu}"), CtxAddr::from_cpu(cpu))
            .unwrap();
        assert!(
            bytes() - before < 4096,
            "spawning pid {pid} allocated in proportion"
        );
    }
    assert_eq!(
        wide.spawn(usize::MAX, "again", CtxAddr::from_cpu(4)),
        Err(MachineError::DuplicatePid)
    );
    assert_eq!(
        wide.spawn(1 << 40, "again", CtxAddr::from_cpu(4)),
        Err(MachineError::DuplicatePid)
    );
    let ascending = vec![0, 7, 1 << 40, usize::MAX];
    assert_eq!(wide.pids(), ascending);
    let saved: Vec<usize> = wide.save_state().procs.iter().map(|p| p.pid).collect();
    assert_eq!(saved, ascending);
    wide.run_workload(usize::MAX, w.clone()).unwrap();
    wide.advance(1_000);
    assert!(wide.retired(usize::MAX) > 0, "the pid-MAX process runs");
    assert_eq!(wide.pcb(usize::MAX).unwrap().affinity, CtxAddr::from_cpu(0));

    let free = CtxAddr::from_cpu(5);
    for policy in [
        WaitPolicy::SpinOwn,
        WaitPolicy::SpinAt(2),
        WaitPolicy::Block,
    ] {
        wide.set_wait_policy(policy);
        for pid in [4, 8, (1 << 40) + 1, usize::MAX - 1] {
            let w = w.clone();
            let before = allocs();
            assert!(wide.pcb(pid).is_none());
            assert_eq!(wide.retired(pid), 0);
            assert_eq!(wide.cycles_to_retire(pid, 10), None);
            assert_eq!(wide.run_workload(pid, w), Err(MachineError::NoSuchProcess));
            assert_eq!(wide.enter_wait(pid), Err(MachineError::NoSuchProcess));
            assert_eq!(wide.block(pid), Err(MachineError::NoSuchProcess));
            assert_eq!(wide.exit(pid), Err(MachineError::NoSuchProcess));
            assert_eq!(wide.migrate(pid, free), Err(MachineError::NoSuchProcess));
            assert_eq!(
                wide.migrate(pid, CtxAddr::from_cpu(99)),
                Err(MachineError::NoSuchContext)
            );
            assert_eq!(wide.swap(pid, 7), Err(MachineError::NoSuchProcess));
            assert_eq!(wide.swap(7, pid), Err(MachineError::NoSuchProcess));
            assert_eq!(wide.swap(pid, pid), Err(MachineError::NoSuchProcess));
            assert_eq!(
                wide.set_priority_procfs(pid, 5),
                Err(PriorityError::NoSuchProcess)
            );
            let made = allocs() - before;
            assert_eq!(made, 0, "unknown pid {pid} allocated {made} times");
        }
    }
    assert_eq!(wide.pids(), ascending, "failed calls left the table alone");
}
