//! The traced pass: spans recorded from outside the program.
//!
//! Spans wrap the public calls the benchmark makes into each layer
//! (`core::prepare`, `Engine::step_events`, `Engine::into_result`,
//! `mtb_verify::predict`, the run-record cache). Two wrappers reach one
//! level deeper without touching the program: [`TimedCore`] is a
//! `CoreModel` that forwards every method and times the three the machine
//! calls in its inner loop, and [`TimedObserver`] times the controller's
//! `on_epoch`. Both are called thousands of times per run, so their time
//! is kept as one aggregate record per (run, parent span) — a call count
//! and the busy time — instead of one span per call.
//!
//! Spans are kept in memory and written as JSON lines at exit. A span's
//! self time is its busy time minus its children's; the root span's self
//! time is the benchmark's own work inside the run (`bench.unattributed`).

use mtb_core::balance::StaticRun;
use mtb_mpisim::{Engine, Observer, RankWindow};
use mtb_oskernel::Machine;
use mtb_smtsim::chip::build_cores_grouped;
use mtb_smtsim::model::{CoreModel, ThreadId, Workload};
use mtb_smtsim::{CoreState, HwPriority};
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Name of the per-run root span.
pub const ROOT: &str = "bench.run";

/// One recorded span (or aggregate of leaf calls).
#[derive(Debug, Clone)]
pub struct Span {
    /// Traced run the span belongs to.
    pub run: u32,
    /// The workload job that run executed.
    pub job: usize,
    /// Layer-qualified name (`mpisim.step`, `smtsim.advance`, ...).
    pub name: &'static str,
    /// Index of the enclosing span in the tracer, `None` for a root.
    pub parent: Option<usize>,
    /// Start, in ns since the tracer was created.
    pub start_ns: u64,
    /// End, in ns since the tracer was created.
    pub end_ns: u64,
    /// Calls folded into this record (1 for an ordinary span).
    pub calls: u64,
    /// Time inside the call(s); `end - start` for an ordinary span.
    pub busy_ns: u64,
}

/// Collects the spans and counters of a traced pass.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    runs: u32,
    job: usize,
    counts: BTreeMap<&'static str, f64>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            runs: 0,
            job: 0,
            counts: BTreeMap::new(),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Start traced run number `runs() + 1`, executing `job`: opens its
    /// [`ROOT`] span.
    pub fn begin(&mut self, job: usize) -> usize {
        self.runs += 1;
        self.job = job;
        self.open(ROOT)
    }

    /// Open a span under the innermost open one.
    pub fn open(&mut self, name: &'static str) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            run: self.runs,
            job: self.job,
            name,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
            calls: 1,
            busy_ns: 0,
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Close span `id` (and anything left open inside it, e.g. after an
    /// error returned early).
    pub fn close(&mut self, id: usize) {
        let end = self.now_ns();
        while let Some(top) = self.open.pop() {
            let s = &mut self.spans[top];
            s.end_ns = end;
            s.busy_ns = end - s.start_ns;
            if top == id {
                break;
            }
        }
    }

    /// Record `calls` leaf calls that took `busy_ns` in total inside
    /// span `parent`.
    pub fn leaf(&mut self, parent: usize, name: &'static str, calls: u64, busy_ns: u64) {
        if calls == 0 {
            return;
        }
        let p = &self.spans[parent];
        let (run, job, start_ns, end_ns) = (p.run, p.job, p.start_ns, p.end_ns);
        self.spans.push(Span {
            run,
            job,
            name,
            parent: Some(parent),
            start_ns,
            end_ns,
            calls,
            busy_ns,
        });
    }

    /// Add `v` to counter `name` (work counts, simulated statistics).
    pub fn count(&mut self, name: &'static str, v: f64) {
        *self.counts.entry(name).or_insert(0.0) += v;
    }

    /// Traced runs so far.
    pub fn runs(&self) -> u32 {
        self.runs
    }

    /// Accumulated counter value (0 when never counted).
    pub fn counter(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }

    /// Per-name totals: (calls, busy ns, self ns).
    pub fn totals(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let mut child_busy = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_busy[p] += s.busy_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_busy) {
            let e = out.entry(s.name).or_default();
            e.0 += s.calls;
            e.1 += s.busy_ns;
            e.2 += s.busy_ns.saturating_sub(children);
        }
        out
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"run\":{},\"job\":{},\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\
                 \"start_ns\":{},\"end_ns\":{},\"calls\":{},\"busy_ns\":{}}}",
                s.run, s.job, s.name, s.start_ns, s.end_ns, s.calls, s.busy_ns
            )?;
        }
        w.flush()
    }
}

/// Call counts and busy time of the core-model methods, shared by every
/// [`TimedCore`] of one machine. Relaxed atomics: the values are
/// statistics and publish no other data.
#[derive(Debug, Default)]
pub struct CoreTimers {
    advance_calls: AtomicU64,
    advance_ns: AtomicU64,
    rate_calls: AtomicU64,
    rate_ns: AtomicU64,
}

impl CoreTimers {
    /// `(advance calls, advance ns, rate calls, rate ns)`.
    pub fn read(&self) -> (u64, u64, u64, u64) {
        (
            self.advance_calls.load(Ordering::Relaxed),
            self.advance_ns.load(Ordering::Relaxed),
            self.rate_calls.load(Ordering::Relaxed),
            self.rate_ns.load(Ordering::Relaxed),
        )
    }

    fn busy_ns(&self) -> u64 {
        let (_, a, _, r) = self.read();
        a + r
    }
}

fn add(calls: &AtomicU64, ns: &AtomicU64, since: Instant) {
    calls.fetch_add(1, Ordering::Relaxed);
    ns.fetch_add(since.elapsed().as_nanos() as u64, Ordering::Relaxed);
}

/// A core model that forwards every method to the wrapped core and times
/// `advance`, `cycles_to_retire` and `retire_rate`.
pub struct TimedCore {
    inner: Box<dyn CoreModel>,
    timers: Arc<CoreTimers>,
}

impl CoreModel for TimedCore {
    fn set_priority(&mut self, t: ThreadId, p: HwPriority) {
        self.inner.set_priority(t, p)
    }

    fn priority(&self, t: ThreadId) -> HwPriority {
        self.inner.priority(t)
    }

    fn assign(&mut self, t: ThreadId, w: Workload) {
        self.inner.assign(t, w)
    }

    fn clear(&mut self, t: ThreadId) {
        self.inner.clear(t)
    }

    fn has_work(&self, t: ThreadId) -> bool {
        self.inner.has_work(t)
    }

    fn advance(&mut self, cycles: u64) -> [u64; 2] {
        let t0 = Instant::now();
        let r = self.inner.advance(cycles);
        add(&self.timers.advance_calls, &self.timers.advance_ns, t0);
        r
    }

    fn retire_rate(&self, t: ThreadId) -> f64 {
        let t0 = Instant::now();
        let r = self.inner.retire_rate(t);
        add(&self.timers.rate_calls, &self.timers.rate_ns, t0);
        r
    }

    fn share_group(&self) -> Option<usize> {
        self.inner.share_group()
    }

    fn cycles_to_retire(&self, t: ThreadId, n: u64) -> Option<u64> {
        let t0 = Instant::now();
        let r = self.inner.cycles_to_retire(t, n);
        add(&self.timers.rate_calls, &self.timers.rate_ns, t0);
        r
    }

    fn save_state(&self) -> CoreState {
        self.inner.save_state()
    }

    fn restore_state(&mut self, s: &CoreState) -> Result<(), String> {
        self.inner.restore_state(s)
    }
}

/// Swap the prepared engine's machine for an identical one whose cores
/// are [`TimedCore`]s: the cores are built the way the engine builds them,
/// the noise, wait policy and segmentation are copied from `run`, and the
/// state — priorities, processes, time — is restored from the prepared
/// machine. Record hashes of traced runs are compared against untraced
/// ones, so any divergence this swap introduced would show as a failure.
pub fn instrument(
    engine: &mut Engine,
    run: &StaticRun<'_>,
    timers: &Arc<CoreTimers>,
) -> Result<(), String> {
    let cores_per_l2 = run.topology.cores_per_node.min(2);
    let cores = build_cores_grouped(run.cores, &run.fidelity, cores_per_l2)
        .into_iter()
        .map(|inner| {
            Box::new(TimedCore {
                inner,
                timers: Arc::clone(timers),
            }) as Box<dyn CoreModel>
        })
        .collect();
    let mut machine = Machine::new(cores, run.kernel);
    machine.set_parallelism(run.threads);
    machine.set_segmentation(run.segmentation);
    machine.set_wait_policy(run.wait_policy);
    for src in &run.noise {
        machine.add_noise(src.clone());
    }
    machine.restore_state(&engine.machine().save_state())?;
    *engine.machine_mut() = machine;
    Ok(())
}

/// Times an observer's `on_epoch`, excluding core-model time spent inside
/// it (which the core timers already count).
pub struct TimedObserver<'a> {
    inner: &'a mut dyn Observer,
    timers: Arc<CoreTimers>,
    /// Epoch callbacks so far.
    pub calls: u64,
    /// Their time, core-model calls excluded.
    pub self_ns: u64,
}

impl<'a> TimedObserver<'a> {
    /// Wrap `inner`.
    pub fn new(inner: &'a mut dyn Observer, timers: Arc<CoreTimers>) -> Self {
        TimedObserver {
            inner,
            timers,
            calls: 0,
            self_ns: 0,
        }
    }
}

impl Observer for TimedObserver<'_> {
    fn on_epoch(&mut self, epoch: usize, windows: &[RankWindow], machine: &mut Machine) {
        let core_before = self.timers.busy_ns();
        let t0 = Instant::now();
        self.inner.on_epoch(epoch, windows, machine);
        let busy = t0.elapsed().as_nanos() as u64;
        let nested = self.timers.busy_ns() - core_before;
        self.calls += 1;
        self.self_ns += busy.saturating_sub(nested);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::default();
        let root = t.begin(0);
        let child = t.open("mpisim.step");
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.close(child);
        t.leaf(child, "smtsim.advance", 3, 1_000_000);
        t.close(root);
        let totals = t.totals();
        let (_, step_busy, step_self) = totals["mpisim.step"];
        assert_eq!(step_self, step_busy - 1_000_000);
        let (root_calls, root_busy, root_self) = totals[ROOT];
        assert_eq!(root_calls, 1);
        assert_eq!(root_self, root_busy - step_busy);
        assert_eq!(totals["smtsim.advance"].0, 3);
        assert_eq!(t.runs(), 1);
    }
}
