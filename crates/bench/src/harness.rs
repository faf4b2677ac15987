//! The parallel sweep harness with structured, cached run records.
//!
//! Every `mtb tables`/`mtb ext` entry boils down to the same loop:
//! simulate a list of independent `(Case, programs)` configurations and
//! render the results. This module factors that loop out:
//!
//! * [`SweepRunner`] fans the simulations over a worker pool
//!   (`--jobs N`, defaulting to the machine's parallelism) — the engine
//!   is deterministic, so results are identical at any job count;
//! * every completed simulation is captured as a [`RunRecord`] — case
//!   name, priorities, placement, per-rank compute/sync cycles, the full
//!   timelines and communication log, total cycles and wall-clock — and
//!   persisted as JSON under `target/mtb-runs/<config-hash>.json`;
//! * re-running the same configuration reuses the cached record instead
//!   of re-simulating (`--no-cache` opts out), reconstructing a
//!   [`RunResult`] that is equal to the original, so rendered tables are
//!   byte-identical across cached and fresh runs. Static, case and
//!   controller-driven ([`SweepRunner::run_dynamic`]) runs all cache.
//!
//! **The cache key** is a 64-bit hash over a word encoding of the
//! configuration, fed field by field with no intermediate buffer: a
//! key-format tag (`KEY_FORMAT`), [`SCHEMA_VERSION`], the run kind, the
//! small case and run fields (name, priorities, placement, kernel, noise,
//! fidelity, topology, …) in their debug form, and then every rank's
//! program name and statement tree. The tree is walked, not unrolled: a
//! loop with no [`Stmt::DynCompute`] below it runs `count` copies of its
//! body's op stream, so it is keyed once as a begin tag, its count, its
//! body and an end tag; a loop that holds a `DynCompute` is unrolled with
//! its counters, as the engine's [`mtb_mpisim::interp::for_each_op`]
//! does, and each closure is evaluated at the loop context the engine
//! sees. Equal trees therefore give equal op streams, and the encoding
//! stays self-delimiting: each op is a variant tag and its fields, every
//! integer, tag and `f64` bit pattern one 64-bit word, every string a
//! length word and its zero-padded 8-byte chunks, so distinct
//! configurations feed distinct words. Each word is scrambled by a
//! multiply–rotate step before it joins the state, and the SplitMix64
//! finalizer closes the key; FNV-1a's bare multiply per word would let two
//! words that differ only in their top bits cancel. Engine changes
//! require bumping [`SCHEMA_VERSION`]; key-encoding changes bump
//! `KEY_FORMAT`. Either way old record files are never requested again:
//! they are orphaned and safe to delete.
//!
//! **A record file** is compact JSON written field by field in a fixed
//! order ([`RunRecord::to_json`]) and decoded in one pass with the pull
//! [`mtb_snap::json::Reader`] ([`RunRecord::from_json`]), which accepts
//! exactly that order and reads its integer arrays on the reader's
//! compact fast path. Anything else — a truncation, a reordered key, a
//! bad number, a timeline whose intervals are empty or not contiguous, a
//! `compute_cycles` or `sync_cycles` entry its timeline contradicts — is
//! an `Err`, and the harness deletes the file and re-simulates. A
//! record from another schema is recognized from its leading `schema`
//! field alone.

use crate::json::{write_f64, write_string, write_u64, Reader};
use mtb_core::balance::{execute, execute_chunked, BalanceError, CheckpointSink, StaticRun};
use mtb_core::paper_cases::Case;
use mtb_core::TwoLevelController;
use mtb_mpisim::engine::RunResult;
use mtb_mpisim::program::{LoopCtx, Program, Stmt, TracePhase, WorkSpec};
use mtb_mpisim::{Engine, NullObserver};
use mtb_smtsim::inst::StreamSpec;
use mtb_smtsim::model::{Workload, WorkloadProfile};
use mtb_trace::paraver::CommEvent;
use mtb_trace::{Interval, ProcState, RunMetrics, Timeline};

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Bump when the engine or the record layout changes in a way that makes
/// old cached records stale.
///
/// v2: anchor-based mesoscale progress accounting (fractional retire
/// carry survives reconfiguration), which shifts low-order digits of
/// meso results relative to v1 records.
///
/// v3: cycle-fidelity L2 domains follow the physical packaging (one L2
/// per 2-core chip, never across node boundaries) instead of one L2
/// shared by every core, which changes cycle-fidelity results on >2-core
/// machines. Intra-run `threads` deliberately does NOT enter any hash:
/// sharded stepping is bit-identical at every thread count.
///
/// v4: epoch stepping — `Machine::advance` segments each shard at the
/// shard's *own* noise boundaries (identical at every thread count, but
/// shifting noise-adjacent results relative to v3's machine-global
/// segmentation) — and records carry a `notes` field (structured runtime
/// notes such as a sharding collapse; topology-derived, so still
/// thread-count-invariant).
///
/// v5: dynamic (controller-driven) runs are cacheable — their key gains a
/// `controller` field (the controller configuration's debug form) on top
/// of the static fields, and their records carry the controller's
/// decision counters as a `controller:` note so cache hits reproduce the
/// adjustments/reverts/remaps report bit for bit. Controller decisions
/// fire only at epoch boundaries, so the records are as deterministic as
/// static ones.
pub const SCHEMA_VERSION: u64 = 5;

/// The cache-key encoding, hashed ahead of everything else in every key.
/// Bump it when the encoding changes (the record layout is untouched, so
/// [`SCHEMA_VERSION`] — which record hashes cover — stays put).
///
/// Format 1 (unnamed) hashed the debug text of every flattened op;
/// format 2 FNV-1a-hashed a byte encoding of the flattened op stream;
/// format 3 hashes the statement tree a word at a time, as the module
/// docs describe.
const KEY_FORMAT: &str = "mtb-key/3";

/// 64-bit FNV-1a — the record hash's and the per-case seed's hash
/// function, shared with the checkpoint layer so both hash domains agree.
pub use mtb_snap::fnv1a;

/// A deterministic per-case seed: a pure function of the case identity
/// (name, priorities, placement), stable across processes and job
/// counts. Sweeps that need case-local randomness derive it from
/// this instead of global state, so a sweep's records are reproducible.
pub fn case_seed(case: &Case) -> u64 {
    let mut key = String::new();
    key.push_str(case.name);
    key.push('\x1f');
    key.push_str(&format!("{:?}\x1f{:?}", case.priorities, case.placement));
    fnv1a(key.as_bytes())
}

/// Structural tags of the key encoding; op variant tags are `0..=10`.
const LOOP_BEGIN: u64 = 11;
const LOOP_END: u64 = 12;
const END_OF_PROGRAM: u64 = 0xff;

/// Streams a cache key a 64-bit word at a time. Every field is
/// self-delimiting — one word per integer, tag or `f64` bit pattern, and a
/// length word ahead of a string's zero-padded 8-byte chunks — so the word
/// stream decodes back to exactly one configuration. Structs are
/// destructured without `..`: a new field is a compile error here rather
/// than a silent cache collision.
struct KeyHasher(u64);

impl KeyHasher {
    /// A key for runs of `kind`, under the current format and schema.
    fn new(kind: &str) -> KeyHasher {
        let mut key = KeyHasher(0);
        key.str(KEY_FORMAT);
        key.u64(SCHEMA_VERSION);
        key.str(kind);
        key
    }

    /// The SplitMix64 finalizer over the absorbed state.
    fn finish(&self) -> u64 {
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Absorb one word: the word is scrambled (multiply, rotate,
    /// multiply) before it meets the state, which is then rotated and
    /// multiplied. A bare multiply per word, as FNV-1a does per byte, only
    /// carries a difference upwards: two words that differ in their top
    /// bits cancel.
    fn u64(&mut self, w: u64) {
        let k = w
            .wrapping_mul(0x87c3_7b91_1142_53d5)
            .rotate_left(31)
            .wrapping_mul(0x4cf5_ad43_2745_937f);
        self.0 = (self.0 ^ k)
            .rotate_left(27)
            .wrapping_mul(5)
            .wrapping_add(0x52dc_e729);
    }

    fn f64(&mut self, x: f64) {
        self.u64(x.to_bits());
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        for chunk in s.as_bytes().chunks(8) {
            let mut word = [0; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.u64(u64::from_le_bytes(word));
        }
    }

    /// A small configuration field, by its debug form.
    fn debug(&mut self, v: &impl std::fmt::Debug) {
        self.str(&format!("{v:?}"));
    }

    /// Every rank's program name and statement tree.
    fn programs(&mut self, programs: &[Program]) {
        self.u64(programs.len() as u64);
        for (rank, program) in programs.iter().enumerate() {
            let Program { name, body } = program;
            match name {
                None => self.u64(0),
                Some(name) => {
                    self.u64(1);
                    self.str(name);
                }
            }
            let mut ctx = LoopCtx {
                rank,
                counters: Vec::new(),
            };
            self.stmts(body, &mut ctx);
            self.u64(END_OF_PROGRAM);
        }
    }

    /// The statements of `body` as the engine meets them at `ctx`. A loop
    /// with no [`Stmt::DynCompute`] below it runs its body's op stream
    /// `count` times over, so it is keyed once: a begin tag, the count, the
    /// body and an end tag. A loop that holds one is unrolled with its
    /// counters, as [`mtb_mpisim::interp::for_each_op`] does, so every
    /// closure is evaluated at the [`LoopCtx`] the engine sees.
    fn stmts(&mut self, body: &[Stmt], ctx: &mut LoopCtx) {
        for stmt in body {
            match stmt {
                Stmt::Compute(work) => self.work(work),
                Stmt::DynCompute(load) => self.work(&load(ctx)),
                Stmt::Loop { count, body } if holds_dyn(body) => {
                    for i in 0..*count {
                        ctx.counters.push(i);
                        self.stmts(body, ctx);
                        ctx.counters.pop();
                    }
                }
                Stmt::Loop { count, body } => {
                    self.u64(LOOP_BEGIN);
                    self.u64(u64::from(*count));
                    self.stmts(body, ctx);
                    self.u64(LOOP_END);
                }
                Stmt::Send { to, tag, bytes } => {
                    self.u64(1);
                    self.u64(*to as u64);
                    self.u64(u64::from(*tag));
                    self.u64(*bytes);
                }
                Stmt::Recv { from, tag } => {
                    self.u64(2);
                    self.u64(*from as u64);
                    self.u64(u64::from(*tag));
                }
                Stmt::Isend { to, tag, bytes } => {
                    self.u64(3);
                    self.u64(*to as u64);
                    self.u64(u64::from(*tag));
                    self.u64(*bytes);
                }
                Stmt::Irecv { from, tag } => {
                    self.u64(4);
                    self.u64(*from as u64);
                    self.u64(u64::from(*tag));
                }
                Stmt::WaitAll => self.u64(5),
                Stmt::Barrier => self.u64(6),
                Stmt::AllReduce { bytes } => {
                    self.u64(7);
                    self.u64(*bytes);
                }
                Stmt::Bcast { root, bytes } => {
                    self.u64(8);
                    self.u64(*root as u64);
                    self.u64(*bytes);
                }
                Stmt::Reduce { root, bytes } => {
                    self.u64(9);
                    self.u64(*root as u64);
                    self.u64(*bytes);
                }
                Stmt::Phase(phase) => {
                    self.u64(10);
                    self.u64(match phase {
                        TracePhase::Init => 0,
                        TracePhase::Body => 1,
                        TracePhase::Final => 2,
                    });
                }
            }
        }
    }

    /// A compute op (tag 0) and its work.
    fn work(&mut self, work: &WorkSpec) {
        let WorkSpec {
            workload,
            instructions,
        } = work;
        let Workload {
            name,
            stream,
            profile,
        } = workload;
        let StreamSpec {
            fx,
            fp,
            ls,
            br,
            dep_dist,
            working_set,
            code_kb,
            seed,
        } = stream;
        let WorkloadProfile {
            ipc_st,
            unit_pressure,
            mem_intensity,
        } = profile;
        self.u64(0);
        self.u64(*instructions);
        self.str(name);
        for n in [fx, fp, ls, br, dep_dist, code_kb] {
            self.u64(u64::from(*n));
        }
        self.u64(*working_set);
        self.u64(*seed);
        for x in [ipc_st, unit_pressure, mem_intensity] {
            self.f64(*x);
        }
    }

    /// The configuration fields of a [`StaticRun`] that determine its
    /// result.
    fn static_run(&mut self, run: &StaticRun<'_>) {
        let StaticRun {
            programs,
            placement,
            priorities,
            kernel,
            noise,
            fidelity,
            cores,
            topology,
            wait_policy,
            stepping,
            // Results are bit-identical at every thread count and under
            // either segmentation, so neither enters the key.
            threads: _,
            segmentation: _,
        } = run;
        self.debug(placement);
        self.debug(priorities);
        self.debug(kernel);
        self.debug(noise);
        self.debug(fidelity);
        self.u64(*cores as u64);
        self.debug(topology);
        self.debug(wait_policy);
        self.debug(stepping);
        self.programs(programs);
    }
}

/// Whether a [`Stmt::DynCompute`] sits anywhere in `body`.
fn holds_dyn(body: &[Stmt]) -> bool {
    body.iter().any(|stmt| match stmt {
        Stmt::DynCompute(_) => true,
        Stmt::Loop { body, .. } => holds_dyn(body),
        _ => false,
    })
}

/// The cache key for a default-configuration case run.
pub fn config_hash(case: &Case, programs: &[Program]) -> u64 {
    let Case {
        name,
        placement,
        priorities,
    } = case;
    let mut key = KeyHasher::new("case");
    key.str(name);
    key.debug(priorities);
    key.debug(placement);
    key.programs(programs);
    key.finish()
}

/// The cache key for a fully-specified [`StaticRun`] (covers kernel
/// flavour, noise, fidelity, topology and wait policy on top of the
/// case-level fields).
pub fn config_hash_static(run: &StaticRun<'_>) -> u64 {
    let mut key = KeyHasher::new("static");
    key.static_run(run);
    key.finish()
}

/// The cache key for a controller-driven (dynamic) run: the static
/// fields plus a `controller` field describing the policy and its
/// tunables, so any retuning of the controller invalidates its records
/// while leaving static records untouched.
pub fn config_hash_dynamic(run: &StaticRun<'_>, controller: &str) -> u64 {
    let mut key = KeyHasher::new("dynamic");
    key.str(controller);
    key.static_run(run);
    key.finish()
}

/// The two-level controller's decision counters, preserved inside a
/// dynamic run's record (as a structured note) so cache hits report the
/// same adjustments/reverts/remaps as the original simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ControllerStats {
    /// Level-2 priority changes.
    pub adjustments: usize,
    /// Audited reverts.
    pub reverts: usize,
    /// Level-1 cross-core remaps.
    pub remaps: usize,
}

impl ControllerStats {
    const NOTE_PREFIX: &'static str = "controller:";

    /// The note line stored in the run record.
    pub fn note(&self) -> String {
        format!(
            "{} adjustments={} reverts={} remaps={}",
            Self::NOTE_PREFIX,
            self.adjustments,
            self.reverts,
            self.remaps
        )
    }

    /// Recover the counters from a record's notes.
    pub fn from_notes(notes: &[String]) -> Option<ControllerStats> {
        let line = notes
            .iter()
            .find_map(|n| n.strip_prefix(Self::NOTE_PREFIX))?;
        let mut stats = ControllerStats::default();
        for field in line.split_whitespace() {
            let (key, value) = field.split_once('=')?;
            let value = value.parse().ok()?;
            match key {
                "adjustments" => stats.adjustments = value,
                "reverts" => stats.reverts = value,
                "remaps" => stats.remaps = value,
                _ => return None,
            }
        }
        Some(stats)
    }
}

/// One timeline, flattened for the record: `(start, end, state-index)`
/// triples, state indexed into [`ProcState::ALL`].
#[derive(Debug, Clone, PartialEq)]
pub struct TimelineRecord {
    /// Process id.
    pub pid: u64,
    /// Display label.
    pub label: String,
    /// `(start, end, state)` triples, contiguous and ordered.
    pub intervals: Vec<(u64, u64, u8)>,
}

/// One point-to-point message, flattened for the record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommRecord {
    /// Sender pid.
    pub from: u64,
    /// Receiver pid.
    pub to: u64,
    /// Payload bytes.
    pub bytes: u64,
    /// Send-post time.
    pub send_time: u64,
    /// Arrival time.
    pub recv_time: u64,
}

/// The structured result of one case simulation — everything needed to
/// reconstruct the [`RunResult`] (and hence re-render any table or Gantt
/// byte-identically) without re-simulating.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    /// Record layout version ([`SCHEMA_VERSION`] at write time).
    pub schema: u64,
    /// The case label.
    pub case: String,
    /// Per-rank priorities, in debug form (provenance, not reparsed).
    pub priorities: Vec<String>,
    /// Rank-to-context placement, in debug form.
    pub placement: Vec<String>,
    /// Wall-clock seconds the simulation took when the record was made.
    pub wall_secs: f64,
    /// Per-rank useful-compute cycles.
    pub compute_cycles: Vec<u64>,
    /// Per-rank synchronization-wait cycles.
    pub sync_cycles: Vec<u64>,
    /// Per-rank instructions retired.
    pub retired: Vec<u64>,
    /// Per-rank cycles stolen by noise.
    pub interrupt_cycles: Vec<u64>,
    /// Per-rank busy cycles.
    pub busy_cycles: Vec<u64>,
    /// Per-rank spin-wait cycles.
    pub spin_cycles: Vec<u64>,
    /// Total execution time in cycles.
    pub total_cycles: u64,
    /// Structured runtime notes (stable `MTB-*` codes with explanations),
    /// e.g. a sharding collapse. Configuration-derived, so identical at
    /// every thread count.
    pub notes: Vec<String>,
    /// Full per-rank timelines.
    pub timelines: Vec<TimelineRecord>,
    /// Full communication log.
    pub comm: Vec<CommRecord>,
}

fn state_index(s: ProcState) -> u8 {
    ProcState::ALL
        .iter()
        .position(|&x| x == s)
        .expect("state present in ALL") as u8
}

impl RunRecord {
    /// Capture a completed simulation.
    pub fn from_run(case: &Case, result: &RunResult, wall_secs: f64) -> RunRecord {
        RunRecord {
            schema: SCHEMA_VERSION,
            case: case.name.to_string(),
            priorities: case.priorities.iter().map(|p| format!("{p:?}")).collect(),
            placement: case.placement.iter().map(|a| format!("{a:?}")).collect(),
            wall_secs,
            compute_cycles: result.compute_cycles(),
            sync_cycles: result.sync_cycles(),
            retired: result.retired.clone(),
            interrupt_cycles: result.interrupt_cycles.clone(),
            busy_cycles: result.busy_cycles.clone(),
            spin_cycles: result.spin_cycles.clone(),
            total_cycles: result.total_cycles,
            notes: result.notes.clone(),
            timelines: result
                .timelines
                .iter()
                .map(|t| TimelineRecord {
                    pid: t.pid as u64,
                    label: t.label.clone(),
                    intervals: t
                        .intervals()
                        .iter()
                        .map(|iv| (iv.start, iv.end, state_index(iv.state)))
                        .collect(),
                })
                .collect(),
            comm: result
                .comm_log
                .iter()
                .map(|e| CommRecord {
                    from: e.from as u64,
                    to: e.to as u64,
                    bytes: e.bytes,
                    send_time: e.send_time,
                    recv_time: e.recv_time,
                })
                .collect(),
        }
    }

    /// Rebuild the full [`RunResult`]. A record's intervals are the ones
    /// the engine's `TimelineBuilder` closed — non-empty, contiguous, a
    /// new state each — so each timeline is rebuilt straight from them
    /// (a repeated state is merged as the builder would), and metrics are
    /// recomputed with [`RunMetrics::from_timelines`], a pure function of
    /// the timelines: the reconstruction compares equal to the original
    /// result.
    ///
    /// # Panics
    /// Panics on a state index outside [`ProcState::ALL`] or a timeline
    /// whose intervals are empty or not contiguous;
    /// [`RunRecord::from_json`] rejects both.
    pub fn to_run_result(&self) -> RunResult {
        let timelines: Vec<Timeline> = self
            .timelines
            .iter()
            .map(|t| {
                let mut intervals: Vec<Interval> = Vec::with_capacity(t.intervals.len());
                for &(start, end, state) in &t.intervals {
                    let state = ProcState::ALL[state as usize];
                    match intervals.last_mut() {
                        // `TimelineBuilder` keeps a repeated state open.
                        Some(last) if last.state == state => last.end = end,
                        _ => intervals.push(Interval { start, end, state }),
                    }
                }
                Timeline::from_parts(t.pid as usize, t.label.clone(), intervals)
                    .unwrap_or_else(|why| panic!("timeline {} of the record: {why}", t.pid))
            })
            .collect();
        let metrics = RunMetrics::from_timelines(&timelines);
        RunResult {
            timelines,
            metrics,
            retired: self.retired.clone(),
            interrupt_cycles: self.interrupt_cycles.clone(),
            busy_cycles: self.busy_cycles.clone(),
            spin_cycles: self.spin_cycles.clone(),
            comm_log: self
                .comm
                .iter()
                .map(|c| CommEvent {
                    from: c.from as usize,
                    to: c.to as usize,
                    bytes: c.bytes,
                    send_time: c.send_time,
                    recv_time: c.recv_time,
                })
                .collect(),
            total_cycles: self.total_cycles,
            notes: self.notes.clone(),
        }
    }

    /// Serialize to compact JSON, rendered field by field straight into
    /// the output string.
    pub fn to_json(&self) -> String {
        let RunRecord {
            schema,
            case,
            priorities,
            placement,
            wall_secs,
            compute_cycles,
            sync_cycles,
            retired,
            interrupt_cycles,
            busy_cycles,
            spin_cycles,
            total_cycles,
            notes,
            timelines,
            comm,
        } = self;
        fn u64s(out: &mut String, v: &[u64]) {
            out.push('[');
            for (i, &n) in v.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_u64(out, n);
            }
            out.push(']');
        }
        fn strs(out: &mut String, v: &[String]) {
            out.push('[');
            for (i, s) in v.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_string(out, s);
            }
            out.push(']');
        }
        let intervals: usize = timelines.iter().map(|t| t.intervals.len()).sum();
        let mut out = String::with_capacity(1024 + 32 * intervals + 64 * comm.len());
        out.push_str("{\"schema\":");
        write_u64(&mut out, *schema);
        out.push_str(",\"case\":");
        write_string(&mut out, case);
        out.push_str(",\"priorities\":");
        strs(&mut out, priorities);
        out.push_str(",\"placement\":");
        strs(&mut out, placement);
        out.push_str(",\"wall_secs\":");
        write_f64(&mut out, *wall_secs);
        for (key, v) in [
            ("compute_cycles", compute_cycles),
            ("sync_cycles", sync_cycles),
            ("retired", retired),
            ("interrupt_cycles", interrupt_cycles),
            ("busy_cycles", busy_cycles),
            ("spin_cycles", spin_cycles),
        ] {
            out.push_str(",\"");
            out.push_str(key);
            out.push_str("\":");
            u64s(&mut out, v);
        }
        out.push_str(",\"total_cycles\":");
        write_u64(&mut out, *total_cycles);
        out.push_str(",\"notes\":");
        strs(&mut out, notes);
        out.push_str(",\"timelines\":[");
        for (i, t) in timelines.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"pid\":");
            write_u64(&mut out, t.pid);
            out.push_str(",\"label\":");
            write_string(&mut out, &t.label);
            out.push_str(",\"intervals\":[");
            for (j, &(start, end, state)) in t.intervals.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                u64s(&mut out, &[start, end, u64::from(state)]);
            }
            out.push_str("]}");
        }
        out.push_str("],\"comm\":[");
        for (i, c) in comm.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            u64s(&mut out, &[c.from, c.to, c.bytes, c.send_time, c.recv_time]);
        }
        out.push_str("]}");
        out
    }

    /// The schema of a record's JSON text, read from its leading field
    /// alone — enough to recognize a record from another generation even
    /// when the rest of its layout differs.
    fn schema_of(text: &str) -> Result<u64, String> {
        let mut r = Reader::new(text);
        r.begin_object()?;
        r.field("schema")?;
        r.u64()
    }

    /// Parse a record back from JSON text in one pass, in the field order
    /// [`RunRecord::to_json`] writes. Any other shape is an `Err`, and so
    /// is a timeline whose intervals are empty, overlap or leave a gap
    /// (so [`RunRecord::to_run_result`] never meets one), a per-rank
    /// vector without one entry per timeline, and a `compute_cycles` or
    /// `sync_cycles` entry that differs from its timeline's useful or
    /// waiting time (the values [`RunResult`] recomputes from the
    /// timelines).
    pub fn from_json(text: &str) -> Result<RunRecord, String> {
        let mut r = Reader::new(text);
        r.begin_object()?;
        r.field("schema")?;
        let schema = r.u64()?;
        r.field("case")?;
        let case = r.string()?;
        r.field("priorities")?;
        let priorities = r.string_array()?;
        r.field("placement")?;
        let placement = r.string_array()?;
        r.field("wall_secs")?;
        let wall_secs = r.f64()?;
        let per_rank = |r: &mut Reader<'_>, key: &str| {
            r.field(key)?;
            r.u64_array()
        };
        let compute_cycles = per_rank(&mut r, "compute_cycles")?;
        let sync_cycles = per_rank(&mut r, "sync_cycles")?;
        let retired = per_rank(&mut r, "retired")?;
        let interrupt_cycles = per_rank(&mut r, "interrupt_cycles")?;
        let busy_cycles = per_rank(&mut r, "busy_cycles")?;
        let spin_cycles = per_rank(&mut r, "spin_cycles")?;
        r.field("total_cycles")?;
        let total_cycles = r.u64()?;
        r.field("notes")?;
        let notes = r.string_array()?;
        r.field("timelines")?;
        let mut timelines = Vec::new();
        // Per timeline: its useful and its waiting time.
        let mut state_time: Vec<[u64; 2]> = Vec::new();
        r.begin_array()?;
        while r.next_item()? {
            r.begin_object()?;
            r.field("pid")?;
            let pid = r.u64()?;
            r.field("label")?;
            let label = r.string()?;
            r.field("intervals")?;
            let mut intervals: Vec<(u64, u64, u8)> = Vec::new();
            let mut time = [0u64; 2];
            r.begin_array()?;
            while r.next_item()? {
                let [start, end, state] = r.u64_tuple()?;
                if state >= ProcState::ALL.len() as u64 {
                    return Err(format!(
                        "state index {state} out of range before byte {}",
                        r.position()
                    ));
                }
                // `TimelineBuilder` writes non-empty intervals, each
                // starting where the previous one ended; anything else
                // would make `to_run_result` panic or rebuild another
                // timeline.
                let follows = intervals.last().map_or(true, |&(_, prev, _)| prev == start);
                if start >= end || !follows {
                    return Err(format!(
                        "interval [{start}, {end}) of timeline {pid} is empty or not \
                         contiguous before byte {}",
                        r.position()
                    ));
                }
                let s = ProcState::ALL[state as usize];
                time[0] += if s.is_useful() { end - start } else { 0 };
                time[1] += if s.is_waiting() { end - start } else { 0 };
                intervals.push((start, end, state as u8));
            }
            r.end_object()?;
            state_time.push(time);
            timelines.push(TimelineRecord {
                pid,
                label,
                intervals,
            });
        }
        r.field("comm")?;
        let mut comm = Vec::new();
        r.begin_array()?;
        while r.next_item()? {
            let [from, to, bytes, send_time, recv_time] = r.u64_tuple()?;
            comm.push(CommRecord {
                from,
                to,
                bytes,
                send_time,
                recv_time,
            });
        }
        r.end_object()?;
        r.finish()?;
        // Every per-rank vector has one entry per timeline, and readers
        // of a rebuilt result index them by rank.
        for (key, v) in [
            ("compute_cycles", &compute_cycles),
            ("sync_cycles", &sync_cycles),
            ("retired", &retired),
            ("interrupt_cycles", &interrupt_cycles),
            ("busy_cycles", &busy_cycles),
            ("spin_cycles", &spin_cycles),
        ] {
            if v.len() != timelines.len() {
                return Err(format!(
                    "{key} has {} entries for {} timelines",
                    v.len(),
                    timelines.len()
                ));
            }
        }
        // Both are read off the timelines, so a record whose entries say
        // otherwise contradicts itself.
        for (rank, time) in state_time.iter().enumerate() {
            for (key, v, t) in [
                ("compute_cycles", &compute_cycles, time[0]),
                ("sync_cycles", &sync_cycles, time[1]),
            ] {
                if v[rank] != t {
                    return Err(format!(
                        "{key}[{rank}] is {} but timeline {rank} holds {t} cycles",
                        v[rank]
                    ));
                }
            }
        }
        Ok(RunRecord {
            schema,
            case,
            priorities,
            placement,
            wall_secs,
            compute_cycles,
            sync_cycles,
            retired,
            interrupt_cycles,
            busy_cycles,
            spin_cycles,
            total_cycles,
            notes,
            timelines,
            comm,
        })
    }
}

/// Why a record file on disk was not served.
#[derive(Debug, PartialEq)]
enum Reject {
    /// Written under another [`SCHEMA_VERSION`].
    Stale(u64),
    /// Not a record this build can decode.
    Corrupt(String),
}

/// Decode a record file's text if it is a current-schema record.
fn decode_current(text: &str) -> Result<RunRecord, Reject> {
    match RunRecord::schema_of(text) {
        Ok(SCHEMA_VERSION) => RunRecord::from_json(text).map_err(Reject::Corrupt),
        Ok(schema) => Err(Reject::Stale(schema)),
        Err(why) => Err(Reject::Corrupt(why)),
    }
}

/// Harness configuration. `mtb` builds it from its parsed arguments
/// (`cli::sweep_options`) and installs it with
/// [`SweepRunner::install_global`].
#[derive(Debug, Clone)]
pub struct SweepOptions {
    /// Target worker threads for [`SweepRunner::run_sweep`]. `--jobs N`
    /// is a *total* thread budget: sweep-level run slots and intra-run
    /// stepping threads draw from the same permit pool (`budget`), so
    /// their product never oversubscribes the machine.
    pub jobs: usize,
    /// Whether to read/write the on-disk record cache.
    pub cache: bool,
    /// Record directory.
    pub dir: PathBuf,
    /// The permit budget sweep workers are drawn from (the process-wide
    /// budget by default; tests inject private ones).
    pub budget: std::sync::Arc<mtb_pool::Budget>,
    /// Persist a crash-recovery checkpoint every N engine events
    /// (`--checkpoint-every N` / `MTB_CHECKPOINT_EVERY`; `None`
    /// disables). A worker killed mid-case resumes from the latest valid
    /// checkpoint on the next run; results are bit-identical either way.
    pub checkpoint_every: Option<u64>,
}

fn default_run_dir() -> PathBuf {
    // An empty MTB_RUN_DIR would scatter records into the cwd; treat it
    // as unset.
    if let Ok(d) = std::env::var("MTB_RUN_DIR") {
        if !d.is_empty() {
            return PathBuf::from(d);
        }
    }
    // Resolve relative to the workspace, not the cwd, so `cargo test`
    // (which runs with the crate directory as cwd) and `cargo run` agree.
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/mtb-runs")
}

fn default_checkpoint_every() -> Option<u64> {
    std::env::var("MTB_CHECKPOINT_EVERY")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .filter(|&n| n > 0)
}

impl Default for SweepOptions {
    fn default() -> SweepOptions {
        SweepOptions {
            // The budget total already folds in MTB_JOBS/parallelism.
            jobs: mtb_pool::global_budget().total(),
            cache: true,
            dir: default_run_dir(),
            budget: std::sync::Arc::clone(mtb_pool::global_budget()),
            checkpoint_every: default_checkpoint_every(),
        }
    }
}

/// Cumulative harness counters.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SweepStats {
    /// Cases asked for (cached or simulated).
    pub cases_run: usize,
    /// Cases served from the record cache.
    pub cache_hits: usize,
    /// Wall-clock seconds spent producing them.
    pub wall_secs: f64,
}

impl SweepStats {
    /// The harness summary line.
    pub fn line(&self) -> String {
        let rate = if self.wall_secs > 0.0 {
            self.cases_run as f64 / self.wall_secs
        } else {
            f64::INFINITY
        };
        format!(
            "harness: {} case{} ({} cached) in {:.2}s — {:.1} cases/s",
            self.cases_run,
            if self.cases_run == 1 { "" } else { "s" },
            self.cache_hits,
            self.wall_secs,
            rate
        )
    }
}

static GLOBAL_RUNNER: OnceLock<SweepRunner> = OnceLock::new();

/// Runs sweeps of independent case simulations over a worker pool,
/// caching each result as a [`RunRecord`] on disk.
pub struct SweepRunner {
    opts: SweepOptions,
    stats: Mutex<SweepStats>,
}

impl SweepRunner {
    /// A runner with explicit options.
    pub fn new(opts: SweepOptions) -> SweepRunner {
        SweepRunner {
            opts,
            stats: Mutex::new(SweepStats::default()),
        }
    }

    /// Make `opts` the options of the process-wide runner, before
    /// anything calls [`SweepRunner::global`]. `opts.jobs` re-targets
    /// `opts.budget` (the global permit budget by default), so `--jobs N`
    /// caps sweep workers and intra-run stepping threads *combined*.
    /// Fails, changing nothing, once the runner exists.
    pub fn install_global(opts: SweepOptions) -> Result<(), String> {
        let (budget, jobs) = (std::sync::Arc::clone(&opts.budget), opts.jobs);
        GLOBAL_RUNNER
            .set(SweepRunner::new(opts))
            .map_err(|_| "the process-wide sweep runner is already in use".to_string())?;
        budget.set_total(jobs);
        Ok(())
    }

    /// The process-wide runner: the one [`SweepRunner::install_global`]
    /// installed, else one with [`SweepOptions::default`].
    pub fn global() -> &'static SweepRunner {
        GLOBAL_RUNNER.get_or_init(|| SweepRunner::new(SweepOptions::default()))
    }

    /// The options this runner was built with.
    pub fn options(&self) -> &SweepOptions {
        &self.opts
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> SweepStats {
        *self.stats.lock().unwrap()
    }

    fn record_path(&self, hash: u64) -> PathBuf {
        self.opts.dir.join(format!("{hash:016x}.json"))
    }

    fn load_record(&self, hash: u64) -> Option<RunRecord> {
        if !self.opts.cache {
            return None;
        }
        let path = self.record_path(hash);
        let text = match std::fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return None,
            Err(e) => {
                eprintln!(
                    "harness: unreadable run record {} ({e}); discarding and re-simulating",
                    path.display()
                );
                let _ = std::fs::remove_file(&path);
                return None;
            }
        };
        match decode_current(&text) {
            Ok(record) => Some(record),
            // A record from another schema generation is expected after
            // an engine change, but leaving it on disk means a cache dir
            // shared across versions grows without bound (stale hashes
            // are never requested again). Delete it like a corrupt one.
            Err(Reject::Stale(schema)) => {
                eprintln!(
                    "harness: stale run record {} (schema v{schema}, current v{SCHEMA_VERSION}); \
                     deleting and re-simulating",
                    path.display(),
                );
                let _ = std::fs::remove_file(&path);
                None
            }
            Err(Reject::Corrupt(why)) => {
                eprintln!(
                    "harness: corrupt run record {} ({why}); discarding and re-simulating",
                    path.display()
                );
                let _ = std::fs::remove_file(&path);
                None
            }
        }
    }

    fn store_record(&self, hash: u64, record: &RunRecord) {
        if !self.opts.cache {
            return;
        }
        // Best-effort: a read-only disk degrades to never caching.
        if std::fs::create_dir_all(&self.opts.dir).is_err() {
            return;
        }
        let path = self.record_path(hash);
        // Write-to-tmp + rename so a concurrently reading worker can
        // never observe a half-written record. The tmp name carries both
        // the pid and a process-wide nonce: two worker *threads* storing
        // the same hash (or a recursive case collision) would otherwise
        // share a tmp path and could interleave their writes before the
        // rename publishes a torn file.
        static TMP_NONCE: AtomicU64 = AtomicU64::new(0);
        let nonce = TMP_NONCE.fetch_add(1, Ordering::Relaxed);
        let tmp = path.with_extension(format!("tmp.{}.{nonce}", std::process::id()));
        let published =
            std::fs::write(&tmp, record.to_json()).and_then(|()| std::fs::rename(&tmp, &path));
        if published.is_err() {
            // A failed write can leave a partial tmp file, a failed
            // rename a complete one; neither is ever read again.
            let _ = std::fs::remove_file(&tmp);
        }
    }

    /// Where the crash-recovery checkpoint for configuration `hash`
    /// lives while that case is in flight.
    pub fn checkpoint_path(&self, hash: u64) -> PathBuf {
        self.opts.dir.join(format!("ckpt-{hash:016x}.snap"))
    }

    /// Execute `run`, checkpointing every `checkpoint_every` events (when
    /// enabled) and resuming from a previous worker's checkpoint if a
    /// valid one for this exact configuration is on disk. Corrupt or
    /// truncated checkpoints are detected by the snapshot content hash,
    /// reported, deleted and never deserialized; the case then simply
    /// starts over. Checkpointed, resumed and straight runs are all
    /// bit-identical, so the cached record is the same however the case
    /// got finished.
    fn execute_recoverable(
        &self,
        run: StaticRun<'_>,
        hash: u64,
    ) -> Result<RunResult, BalanceError> {
        let Some(every) = self.opts.checkpoint_every else {
            return execute(run);
        };
        let path = self.checkpoint_path(hash);
        let resume = match mtb_snap::read_snapshot(&path) {
            Ok(snap) if snap.config_hash == hash => {
                eprintln!(
                    "harness: resuming {:016x} from checkpoint at {} events",
                    hash, snap.events
                );
                Some(snap.state)
            }
            Ok(snap) => {
                eprintln!(
                    "harness: checkpoint {} belongs to configuration {:016x}, not {hash:016x}; ignoring",
                    path.display(),
                    snap.config_hash
                );
                None
            }
            Err(mtb_snap::SnapError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => None,
            Err(why) => {
                eprintln!(
                    "harness: corrupt checkpoint {} ({why}); discarding and starting over",
                    path.display()
                );
                let _ = std::fs::remove_file(&path);
                None
            }
        };
        struct Sink {
            path: PathBuf,
            hash: u64,
        }
        impl CheckpointSink for Sink {
            fn on_checkpoint(&mut self, _events: u64, engine: &Engine) {
                // Best-effort: a full disk degrades to coarser recovery.
                if let Err(e) =
                    mtb_snap::write_snapshot(&self.path, self.hash, &engine.save_state())
                {
                    eprintln!("harness: checkpoint write failed ({e}); continuing");
                }
            }
        }
        let mut sink = Sink {
            path: path.clone(),
            hash,
        };
        let result = execute_chunked(run, every, resume.as_ref(), &mut NullObserver, &mut sink)?;
        let _ = std::fs::remove_file(&path);
        Ok(result)
    }

    fn account(&self, cached: bool, wall: f64) {
        let mut s = self.stats.lock().unwrap();
        s.cases_run += 1;
        s.cache_hits += cached as usize;
        s.wall_secs += wall;
    }

    /// Run one case (cache-aware): the byte-compatible replacement for
    /// the old uncached `run_case`.
    ///
    /// # Panics
    /// Panics when the priority configuration is invalid for the kernel.
    pub fn run_case(&self, programs: &[Program], case: &Case) -> RunResult {
        let t0 = Instant::now();
        let hash = config_hash(case, programs);
        if let Some(record) = self.load_record(hash) {
            let result = record.to_run_result();
            self.account(true, t0.elapsed().as_secs_f64());
            return result;
        }
        let result = self
            .execute_recoverable(
                StaticRun::new(programs, case.placement.clone())
                    .with_priorities(case.priorities.clone()),
                hash,
            )
            .unwrap_or_else(|e| panic!("case {} failed: {e}", case.name));
        let wall = t0.elapsed().as_secs_f64();
        self.store_record(hash, &RunRecord::from_run(case, &result, wall));
        self.account(false, wall);
        result
    }

    /// Run `run` under a fresh [`TwoLevelController`] built from
    /// `cfg`, through the cache. Controller decisions fire only at epoch
    /// boundaries, so the result is a pure function of `(run, cfg)` and
    /// caching is sound (the PR 1 "never cache observer runs" rule was
    /// about arbitrary observers; the controller's determinism contract
    /// restores it). The record's `controller:` note preserves the
    /// decision counters across cache hits. Crash-recovery checkpoints
    /// are not used here: controller state is not part of a snapshot, so
    /// a dynamic case always runs start-to-finish.
    pub fn run_dynamic(
        &self,
        run: StaticRun<'_>,
        cfg: &mtb_core::ControllerConfig,
    ) -> Result<(RunResult, ControllerStats), BalanceError> {
        let t0 = Instant::now();
        let hash = config_hash_dynamic(&run, &format!("{cfg:?}"));
        if let Some(record) = self.load_record(hash) {
            let stats = ControllerStats::from_notes(&record.notes).unwrap_or_default();
            let result = record.to_run_result();
            self.account(true, t0.elapsed().as_secs_f64());
            return Ok((result, stats));
        }
        let case = Case {
            name: "dynamic",
            placement: run.placement.clone(),
            priorities: run.priorities.clone(),
        };
        let mut ctl = TwoLevelController::for_programs(run.programs, &run.placement, *cfg);
        let mut result = mtb_core::execute_with(run, &mut ctl)?;
        let stats = ControllerStats {
            adjustments: ctl.adjustments(),
            reverts: ctl.reverts(),
            remaps: ctl.remaps(),
        };
        result.notes.push(stats.note());
        let wall = t0.elapsed().as_secs_f64();
        self.store_record(hash, &RunRecord::from_run(&case, &result, wall));
        self.account(false, wall);
        Ok((result, stats))
    }

    /// Run a fully-specified [`StaticRun`] through the cache. Covers the
    /// extension experiments that vary kernel flavour, noise, fidelity,
    /// topology or wait policy beyond what a [`Case`] expresses.
    pub fn run_static(&self, run: StaticRun<'_>) -> Result<RunResult, BalanceError> {
        let t0 = Instant::now();
        let hash = config_hash_static(&run);
        if let Some(record) = self.load_record(hash) {
            let result = record.to_run_result();
            self.account(true, t0.elapsed().as_secs_f64());
            return Ok(result);
        }
        let case = Case {
            name: "static",
            placement: run.placement.clone(),
            priorities: run.priorities.clone(),
        };
        let result = self.execute_recoverable(run, hash)?;
        let wall = t0.elapsed().as_secs_f64();
        self.store_record(hash, &RunRecord::from_run(&case, &result, wall));
        self.account(false, wall);
        Ok(result)
    }

    /// Fan the cases over the worker pool and return the results in case
    /// order. The engine is deterministic and the cases independent, so
    /// the output is identical at every job count; with one job the pool
    /// is skipped entirely.
    pub fn run_sweep(
        &self,
        cases: Vec<Case>,
        programs_for: impl Fn(&Case) -> Vec<Program> + Sync,
    ) -> Vec<(Case, RunResult)> {
        let n = cases.len();
        let jobs = self.opts.jobs.min(n).max(1);
        if jobs == 1 {
            return cases
                .into_iter()
                .map(|case| {
                    let progs = programs_for(&case);
                    let result = self.run_case(&progs, &case);
                    (case, result)
                })
                .collect();
        }
        let slots: Vec<Mutex<Option<RunResult>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        let worker = || loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            let progs = programs_for(&cases[i]);
            let result = self.run_case(&progs, &cases[i]);
            *slots[i].lock().unwrap() = Some(result);
        };
        // The caller is one run slot; extra slots hold permits from the
        // shared budget, so sweep workers plus any intra-run stepping
        // threads they spawn can never exceed `--jobs` live threads.
        let extra = self.opts.budget.try_acquire(jobs - 1);
        std::thread::scope(|scope| {
            for _ in 0..extra {
                scope.spawn(worker);
            }
            worker();
        });
        self.opts.budget.release(extra);
        cases
            .into_iter()
            .zip(slots)
            .map(|(case, slot)| {
                let result = slot
                    .into_inner()
                    .unwrap()
                    .expect("worker filled every slot");
                (case, result)
            })
            .collect()
    }
}

/// [`SweepRunner::run_static`] on the global runner — the drop-in
/// cached replacement for `mtb_core::balance::execute` in the extension
/// experiments.
pub fn run_static(run: StaticRun<'_>) -> Result<RunResult, BalanceError> {
    SweepRunner::global().run_static(run)
}

/// Print the global runner's cumulative summary line to stderr (stdout
/// stays byte-compatible with the uncached harness). No-op when nothing
/// ran.
pub fn print_summary() {
    let stats = SweepRunner::global().stats();
    if stats.cases_run > 0 {
        eprintln!("{}", stats.line());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use mtb_core::paper_cases::{btmz_cases, metbench_cases, siesta_cases};
    use mtb_workloads::metbench::MetBenchConfig;
    use mtb_workloads::{BtMzConfig, SiestaConfig};
    use std::collections::HashMap;
    use std::sync::atomic::AtomicU32;
    use std::sync::Arc;

    fn temp_runner(jobs: usize, cache: bool) -> SweepRunner {
        static NONCE: AtomicU32 = AtomicU32::new(0);
        let dir = std::env::temp_dir().join(format!(
            "mtb-harness-test-{}-{}",
            std::process::id(),
            NONCE.fetch_add(1, Ordering::Relaxed)
        ));
        SweepRunner::new(SweepOptions {
            jobs,
            cache,
            dir,
            // A roomy private budget: these tests exercise worker-count
            // behaviour and must not be clamped by (or interfere with)
            // the process-wide budget shared with other tests.
            budget: std::sync::Arc::new(mtb_pool::Budget::new(64)),
            checkpoint_every: None,
        })
    }

    fn tiny_runs(runner: &SweepRunner) -> Vec<(Case, RunResult)> {
        let cfg = MetBenchConfig::tiny();
        runner.run_sweep(metbench_cases(), |_| cfg.programs())
    }

    #[test]
    fn record_json_round_trips_losslessly() {
        let runner = temp_runner(1, false);
        let runs = tiny_runs(&runner);
        for (case, result) in &runs {
            let record = RunRecord::from_run(case, result, 0.0625);
            let text = record.to_json();
            let back = RunRecord::from_json(&text).unwrap();
            assert_eq!(back, record, "record round-trip for case {}", case.name);
            // And the reconstructed RunResult is equal to the original —
            // timelines, metrics, logs, everything a renderer consumes.
            assert_eq!(&back.to_run_result(), result, "case {}", case.name);
        }
    }

    #[test]
    fn record_captures_per_rank_breakdown() {
        let runner = temp_runner(1, false);
        let (case, result) = tiny_runs(&runner).remove(0);
        let record = RunRecord::from_run(&case, &result, 0.0);
        assert_eq!(record.compute_cycles.len(), result.timelines.len());
        assert_eq!(record.compute_cycles, result.compute_cycles());
        assert_eq!(record.sync_cycles, result.sync_cycles());
        assert!(record.total_cycles > 0);
        assert_eq!(record.priorities.len(), case.priorities.len());
    }

    #[test]
    fn second_sweep_is_served_from_cache() {
        let runner = temp_runner(2, true);
        let first = tiny_runs(&runner);
        let after_first = runner.stats();
        assert_eq!(after_first.cases_run, 4);
        assert_eq!(after_first.cache_hits, 0, "cold cache");
        let second = tiny_runs(&runner);
        let after_second = runner.stats();
        assert_eq!(after_second.cases_run, 8);
        assert_eq!(after_second.cache_hits, 4, "warm cache");
        for ((c1, r1), (c2, r2)) in first.iter().zip(&second) {
            assert_eq!(c1.name, c2.name);
            assert_eq!(r1, r2, "cached result differs for case {}", c1.name);
        }
        let _ = std::fs::remove_dir_all(&runner.options().dir);
    }

    #[test]
    fn job_count_does_not_change_results() {
        let serial = tiny_runs(&temp_runner(1, false));
        let parallel = tiny_runs(&temp_runner(4, false));
        assert_eq!(serial.len(), parallel.len());
        for ((c1, r1), (c2, r2)) in serial.iter().zip(&parallel) {
            assert_eq!(c1.name, c2.name, "case order is preserved");
            assert_eq!(r1, r2, "case {}", c1.name);
        }
    }

    /// Regression test for harness oversubscription: `SweepRunner` used
    /// to spawn `--jobs` threads unconditionally, assuming it owned every
    /// core. Now sweep run-slots and intra-run pools draw from one permit
    /// budget, so total live threads never exceed the budget even when
    /// each case also asks for stepping threads.
    #[test]
    fn sweep_and_intra_run_workers_share_one_budget() {
        let budget = std::sync::Arc::new(mtb_pool::Budget::new(3));
        let runner = SweepRunner::new(SweepOptions {
            jobs: 8, // asks for far more than the budget allows
            cache: false,
            dir: std::env::temp_dir().join("mtb-harness-budget-test"),
            budget: std::sync::Arc::clone(&budget),
            checkpoint_every: None,
        });
        let cfg = MetBenchConfig::tiny();
        let sweep_threads = Mutex::new(std::collections::HashSet::new());
        let mut cases = metbench_cases();
        cases.extend(metbench_cases().into_iter().map(|mut c| {
            c.name = "again";
            c
        }));
        let runs = runner.run_sweep(cases, |_| {
            sweep_threads
                .lock()
                .unwrap()
                .insert(std::thread::current().id());
            // Each case also wants intra-run stepping threads; epochs
            // must only be granted what the sweep workers left over.
            let mut runner =
                mtb_pool::ShardedRunner::with_budget(8, std::sync::Arc::clone(&budget));
            let before = budget.live();
            let inner = std::sync::Arc::clone(&budget);
            runner.run_epoch((0..4).collect::<Vec<usize>>(), |_, _| {
                assert!(
                    inner.live() <= inner.total(),
                    "live {} > budget {}",
                    inner.live(),
                    inner.total()
                );
            });
            // The satellite regression: between epochs the runner holds
            // no permits (the old Pool held them for its whole life,
            // starving sweep-level run slots).
            assert_eq!(
                budget.live(),
                before,
                "idle runner must hold no permits between epochs"
            );
            drop(runner);
            cfg.programs()
        });
        assert_eq!(runs.len(), 8);
        assert!(
            sweep_threads.lock().unwrap().len() <= 3,
            "sweep run-slots exceed the budget"
        );
        assert!(
            budget.peak() <= 3,
            "peak live threads {} exceed the budget",
            budget.peak()
        );
        assert_eq!(budget.live(), 1, "all permits returned");
    }

    #[test]
    fn config_hash_separates_configurations() {
        let cfg = MetBenchConfig::tiny();
        let progs = cfg.programs();
        let cases = metbench_cases();
        let h: Vec<u64> = cases.iter().map(|c| config_hash(c, &progs)).collect();
        for i in 0..h.len() {
            for j in i + 1..h.len() {
                assert_ne!(h[i], h[j], "{} vs {}", cases[i].name, cases[j].name);
            }
        }
        // Changing the programs changes the hash too.
        let other = MetBenchConfig {
            scale: 0.5,
            ..MetBenchConfig::tiny()
        }
        .programs();
        assert_ne!(
            config_hash(&cases[0], &progs),
            config_hash(&cases[0], &other)
        );
    }

    #[test]
    fn case_seed_is_a_pure_function_of_the_case() {
        let cases = metbench_cases();
        assert_eq!(case_seed(&cases[0]), case_seed(&metbench_cases()[0]));
        assert_ne!(case_seed(&cases[0]), case_seed(&cases[1]));
    }

    #[test]
    fn corrupt_records_are_discarded_and_resimulated() {
        let runner = temp_runner(1, true);
        let cfg = MetBenchConfig::tiny();
        let progs = cfg.programs();
        let case = metbench_cases().remove(0);
        let hash = config_hash(&case, &progs);
        let clean = runner.run_case(&progs, &case);

        // Truncate the record mid-JSON: the next read must notice, delete
        // the file, re-simulate to the same result, and re-cache it.
        let path = runner.record_path(hash);
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &text[..text.len() / 2]).unwrap();
        let again = runner.run_case(&progs, &case);
        assert_eq!(again, clean);
        assert_eq!(
            runner.stats().cache_hits,
            0,
            "a truncated record must never count as a hit"
        );
        let restored = std::fs::read_to_string(&path).unwrap();
        let strip_wall = |t: &str| {
            let mut r = RunRecord::from_json(t).unwrap();
            r.wall_secs = 0.0;
            r
        };
        assert_eq!(
            strip_wall(&restored),
            strip_wall(&text),
            "the fresh record replaces the corrupt one (wall-clock aside)"
        );

        // And a hit from the restored record, to prove the cache healed.
        let third = runner.run_case(&progs, &case);
        assert_eq!(third, clean);
        assert_eq!(runner.stats().cache_hits, 1);
        let _ = std::fs::remove_dir_all(&runner.options().dir);
    }

    #[test]
    fn interrupted_case_resumes_from_its_checkpoint() {
        let mut tmp = temp_runner(1, true);
        tmp.opts.checkpoint_every = Some(2);
        let runner = tmp;
        let cfg = MetBenchConfig::tiny();
        let progs = cfg.programs();
        let case = metbench_cases().remove(0);
        let hash = config_hash(&case, &progs);
        let clean = runner.run_case(&progs, &case);
        let clean_record = std::fs::read_to_string(runner.record_path(hash)).unwrap();

        // Simulate a worker killed mid-case: step the engine partway and
        // leave its checkpoint on disk, with no cached record.
        std::fs::remove_file(runner.record_path(hash)).unwrap();
        let run = mtb_core::balance::StaticRun::new(&progs, case.placement.clone())
            .with_priorities(case.priorities.clone());
        let mut engine = mtb_core::balance::prepare(&run).unwrap();
        assert!(!engine.step_events(&mut NullObserver, 3).unwrap());
        mtb_snap::write_snapshot(&runner.checkpoint_path(hash), hash, &engine.save_state())
            .unwrap();

        let resumed = runner.run_case(&progs, &case);
        assert_eq!(resumed, clean, "resumed case must be bit-identical");
        let strip_wall = |t: &str| {
            let mut r = RunRecord::from_json(t).unwrap();
            r.wall_secs = 0.0;
            r
        };
        let rerun_record = std::fs::read_to_string(runner.record_path(hash)).unwrap();
        assert_eq!(
            strip_wall(&rerun_record),
            strip_wall(&clean_record),
            "records identical too (wall-clock aside)"
        );
        assert!(
            !runner.checkpoint_path(hash).exists(),
            "checkpoint is deleted once the case completes"
        );

        // A corrupt checkpoint is discarded (never deserialized) and the
        // case starts over — same result, checkpoint file gone.
        std::fs::remove_file(runner.record_path(hash)).unwrap();
        std::fs::write(runner.checkpoint_path(hash), b"MTBSNAP1 garbage").unwrap();
        let recovered = runner.run_case(&progs, &case);
        assert_eq!(recovered, clean);
        assert!(!runner.checkpoint_path(hash).exists());
        let _ = std::fs::remove_dir_all(&runner.options().dir);
    }

    #[test]
    fn stale_schema_records_are_deleted_and_resimulated() {
        let runner = temp_runner(1, true);
        let cfg = MetBenchConfig::tiny();
        let progs = cfg.programs();
        let case = metbench_cases().remove(0);
        let hash = config_hash(&case, &progs);
        let result = runner.run_case(&progs, &case);
        let mut record = RunRecord::from_run(&case, &result, 0.0);
        record.schema = SCHEMA_VERSION + 1;
        std::fs::create_dir_all(&runner.options().dir).unwrap();
        std::fs::write(runner.record_path(hash), record.to_json()).unwrap();
        let fresh = temp_runner(1, true);
        let again = SweepRunner::new(SweepOptions {
            dir: runner.options().dir.clone(),
            ..fresh.opts
        });
        let r2 = again.run_case(&progs, &case);
        assert_eq!(again.stats().cache_hits, 0, "stale schema must not hit");
        assert_eq!(r2, result);
        // The stale file was deleted and replaced by a current-schema
        // record, so a versioned cache dir cannot grow without bound.
        let on_disk =
            RunRecord::from_json(&std::fs::read_to_string(runner.record_path(hash)).unwrap())
                .unwrap();
        assert_eq!(
            on_disk.schema, SCHEMA_VERSION,
            "stale record replaced by a fresh one"
        );
        let _ = std::fs::remove_dir_all(&runner.options().dir);

        // Deletion happens even when nothing overwrites the slot: a
        // cache-enabled load of a stale record removes the file itself.
        let runner2 = temp_runner(1, true);
        std::fs::create_dir_all(&runner2.options().dir).unwrap();
        std::fs::write(runner2.record_path(hash), record.to_json()).unwrap();
        assert!(runner2.load_record(hash).is_none());
        assert!(
            !runner2.record_path(hash).exists(),
            "stale record deleted on load"
        );
        let _ = std::fs::remove_dir_all(&runner2.options().dir);
    }

    #[test]
    fn dynamic_runs_cache_with_their_controller_stats() {
        let runner = temp_runner(1, true);
        let cfg = MetBenchConfig::tiny();
        let progs = cfg.programs();
        let ctl = mtb_core::ControllerConfig::default();
        let run = || mtb_core::balance::StaticRun::new(&progs, cfg.placement());

        let (first, stats) = runner.run_dynamic(run(), &ctl).unwrap();
        assert_eq!(runner.stats().cache_hits, 0, "cold cache");
        assert!(
            first.notes.iter().any(|n| n.starts_with("controller:")),
            "record carries the decision counters: {:?}",
            first.notes
        );

        let (second, stats2) = runner.run_dynamic(run(), &ctl).unwrap();
        assert_eq!(runner.stats().cache_hits, 1, "warm cache");
        assert_eq!(second, first, "cache hit reproduces the run bit for bit");
        assert_eq!(stats2, stats, "counters survive the cache round-trip");

        // A different controller configuration is a different cache slot.
        let other = mtb_core::ControllerConfig {
            pinned: true,
            max_remaps: 0,
            ..Default::default()
        };
        let _ = runner.run_dynamic(run(), &other).unwrap();
        assert_eq!(runner.stats().cache_hits, 1, "retuned controller misses");

        // And dynamic records never collide with the static slot.
        assert_ne!(
            config_hash_dynamic(&run(), &format!("{ctl:?}")),
            config_hash_static(&run())
        );
        let _ = std::fs::remove_dir_all(&runner.options().dir);
    }

    #[test]
    fn stale_dynamic_records_are_deleted_and_resimulated() {
        let runner = temp_runner(1, true);
        let cfg = MetBenchConfig::tiny();
        let progs = cfg.programs();
        let ctl = mtb_core::ControllerConfig::default();
        let run = || mtb_core::balance::StaticRun::new(&progs, cfg.placement());
        let (clean, _) = runner.run_dynamic(run(), &ctl).unwrap();

        // Age the record's schema: the next run must delete it, miss the
        // cache, and re-simulate to the same result.
        let hash = config_hash_dynamic(&run(), &format!("{ctl:?}"));
        let path = runner.record_path(hash);
        let mut record = RunRecord::from_json(&std::fs::read_to_string(&path).unwrap()).unwrap();
        record.schema = SCHEMA_VERSION - 1;
        std::fs::write(&path, record.to_json()).unwrap();

        let (again, _) = runner.run_dynamic(run(), &ctl).unwrap();
        assert_eq!(runner.stats().cache_hits, 0, "stale schema must not hit");
        assert_eq!(again, clean);
        let on_disk = RunRecord::from_json(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(on_disk.schema, SCHEMA_VERSION, "fresh record replaced it");
        let _ = std::fs::remove_dir_all(&runner.options().dir);
    }
    /// The record rendered through a `Json` tree — the layout
    /// [`RunRecord::to_json`] writes directly, as the tree codec would.
    fn tree_json(r: &RunRecord) -> String {
        let uints = |v: &[u64]| Json::Arr(v.iter().map(|&n| Json::UInt(n)).collect());
        let strs = |v: &[String]| Json::Arr(v.iter().map(|s| Json::Str(s.clone())).collect());
        let timelines = r
            .timelines
            .iter()
            .map(|t| {
                Json::Obj(vec![
                    ("pid".into(), Json::UInt(t.pid)),
                    ("label".into(), Json::Str(t.label.clone())),
                    (
                        "intervals".into(),
                        Json::Arr(
                            t.intervals
                                .iter()
                                .map(|&(s, e, st)| uints(&[s, e, u64::from(st)]))
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect();
        let comm = r
            .comm
            .iter()
            .map(|c| uints(&[c.from, c.to, c.bytes, c.send_time, c.recv_time]))
            .collect();
        Json::Obj(vec![
            ("schema".into(), Json::UInt(r.schema)),
            ("case".into(), Json::Str(r.case.clone())),
            ("priorities".into(), strs(&r.priorities)),
            ("placement".into(), strs(&r.placement)),
            ("wall_secs".into(), Json::Float(r.wall_secs)),
            ("compute_cycles".into(), uints(&r.compute_cycles)),
            ("sync_cycles".into(), uints(&r.sync_cycles)),
            ("retired".into(), uints(&r.retired)),
            ("interrupt_cycles".into(), uints(&r.interrupt_cycles)),
            ("busy_cycles".into(), uints(&r.busy_cycles)),
            ("spin_cycles".into(), uints(&r.spin_cycles)),
            ("total_cycles".into(), Json::UInt(r.total_cycles)),
            ("notes".into(), strs(&r.notes)),
            ("timelines".into(), Json::Arr(timelines)),
            ("comm".into(), Json::Arr(comm)),
        ])
        .render()
    }

    /// Strings that exercise every escape path of the codec.
    const AWKWARD: [&str; 6] = [
        "quote \" inside",
        "back\\slash",
        "new\nline\ttab\rreturn",
        "ctl \u{1}\u{8}\u{c}\u{1f} del \u{7f}",
        "non-ASCII: ünïcødé ✓ 🚀",
        "",
    ];

    fn awkward_record() -> RunRecord {
        let (case, result) = tiny_runs(&temp_runner(1, false)).remove(1);
        let mut record = RunRecord::from_run(&case, &result, 1.0e-7);
        record.case = AWKWARD[0].to_string();
        record.notes = AWKWARD.iter().map(|s| s.to_string()).collect();
        for (t, label) in record.timelines.iter_mut().zip(AWKWARD.iter().cycle()) {
            t.label = label.to_string();
        }
        record
    }

    #[test]
    fn to_json_matches_the_tree_rendering_for_every_paper_case() {
        let runner = temp_runner(2, false);
        let mut runs = tiny_runs(&runner);
        let btmz = BtMzConfig::tiny();
        runs.extend(runner.run_sweep(btmz_cases(), |_| btmz.programs()));
        let siesta = SiestaConfig::tiny();
        runs.extend(runner.run_sweep(siesta_cases(), |_| siesta.programs()));
        assert_eq!(runs.len(), 12);
        let mut records: Vec<RunRecord> = runs
            .iter()
            .map(|(case, result)| RunRecord::from_run(case, result, 0.123_456_789))
            .collect();
        records.push(awkward_record());
        for record in &records {
            let text = record.to_json();
            assert_eq!(text, tree_json(record), "case {:?}", record.case);
            assert_eq!(fnv1a(text.as_bytes()), fnv1a(tree_json(record).as_bytes()));
        }
    }

    #[test]
    fn escaped_labels_and_notes_round_trip() {
        let record = awkward_record();
        let back = RunRecord::from_json(&record.to_json()).unwrap();
        assert_eq!(back, record);
        assert_eq!(back.notes, AWKWARD);
    }

    /// The decoder on damaged input: every strict prefix of a real
    /// paper-case record is an `Err`, and every single-byte flip is either
    /// an `Err`, the original record (a flip the format cannot see), or a
    /// faithful decode of the flipped text (a digit or letter that changed
    /// into another valid one) that rebuilds a result — never a panic.
    #[test]
    fn decoder_rejects_truncations_and_survives_byte_flips() {
        let (case, result) = tiny_runs(&temp_runner(1, false)).remove(3);
        let record = RunRecord::from_run(&case, &result, 0.0625);
        let text = record.to_json();
        for cut in 0..text.len() {
            assert!(
                RunRecord::from_json(&text[..cut]).is_err(),
                "a {cut}-byte prefix of a {}-byte record decoded",
                text.len()
            );
        }
        let mut bytes = text.clone().into_bytes();
        let mut decoded = 0;
        for at in 0..bytes.len() {
            for mask in [0x01, 0x02, 0x20, 0x80] {
                bytes[at] ^= mask;
                if let Ok(flipped) = std::str::from_utf8(&bytes) {
                    if let Ok(back) = RunRecord::from_json(flipped) {
                        decoded += 1;
                        assert!(
                            back == record || back.to_json() == flipped,
                            "flip {mask:#04x} at byte {at} decoded to a record that \
                             re-encodes differently"
                        );
                        std::hint::black_box(back.to_run_result());
                    }
                }
                bytes[at] ^= mask;
            }
        }
        assert!(decoded > 0, "some flips (digits) decode to valid records");
    }

    /// A one-timeline record whose intervals are `[100,200)` in state 0
    /// and `[200,300)` in state 1 (init, then compute: 200 useful cycles
    /// and none waiting).
    fn two_interval_record() -> RunRecord {
        RunRecord {
            schema: SCHEMA_VERSION,
            case: "A".into(),
            priorities: Vec::new(),
            placement: Vec::new(),
            wall_secs: 0.5,
            compute_cycles: vec![200],
            sync_cycles: vec![0],
            retired: vec![7],
            interrupt_cycles: vec![0],
            busy_cycles: vec![100],
            spin_cycles: vec![0],
            total_cycles: 300,
            notes: Vec::new(),
            timelines: vec![TimelineRecord {
                pid: 0,
                label: "P1".into(),
                intervals: vec![(100, 200, 0), (200, 300, 1)],
            }],
            comm: Vec::new(),
        }
    }

    /// Regression test: intervals that run backwards or leave a gap used
    /// to decode, and `to_run_result` then panicked in `TimelineBuilder`
    /// ("going backwards", "finish() before last transition"); a per-rank
    /// vector cut short decoded too, and `mtb ext noise` then indexed past
    /// its end.
    #[test]
    fn from_json_rejects_broken_timelines_and_rank_vectors() {
        let text = two_interval_record().to_json();
        let intact = RunRecord::from_json(&text).unwrap();
        assert_eq!(intact.to_run_result().timelines[0].intervals().len(), 2);
        for (bad, why) in [
            ("[50,300,1]", "starts before the previous end"),
            ("[200,150,1]", "ends before it starts"),
            ("[250,300,1]", "leaves a gap"),
            ("[200,200,1]", "is empty"),
        ] {
            let damaged = text.replace("[200,300,1]", bad);
            assert_ne!(damaged, text);
            assert!(
                RunRecord::from_json(&damaged).is_err(),
                "an interval that {why} decoded: {bad}"
            );
            assert!(matches!(decode_current(&damaged), Err(Reject::Corrupt(_))));
        }
        let empty = text.replace("[100,200,0]", "[100,100,0]");
        assert!(
            RunRecord::from_json(&empty).is_err(),
            "an empty first interval"
        );
        for key in [
            "compute_cycles",
            "sync_cycles",
            "retired",
            "interrupt_cycles",
            "busy_cycles",
            "spin_cycles",
        ] {
            let at = text.find(&format!("\"{key}\":[")).unwrap() + key.len() + 4;
            let end = at + text[at..].find(']').unwrap();
            for cut in [String::new(), format!("{},0", &text[at..end])] {
                let damaged = format!("{}{cut}{}", &text[..at], &text[end..]);
                assert!(
                    RunRecord::from_json(&damaged).is_err(),
                    "{key} with {cut:?} decoded"
                );
            }
        }
        // A repeated state is contiguous; it rebuilds as the builder
        // would have closed it, as one interval.
        let repeated = RunRecord::from_json(&text.replace("[200,300,1]", "[200,300,0]"));
        let rebuilt = repeated.unwrap().to_run_result();
        let ivs = rebuilt.timelines[0].intervals();
        assert_eq!((ivs.len(), ivs[0].start, ivs[0].end), (1, 100, 300));
    }

    /// `compute_cycles` and `sync_cycles` are the timelines' useful and
    /// waiting time; a record whose entries disagree with its own
    /// timelines used to be served, since `to_run_result` recomputes both.
    #[test]
    fn from_json_rejects_compute_and_sync_cycles_that_contradict_the_timelines() {
        let text = two_interval_record().to_json();
        assert!(RunRecord::from_json(&text).is_ok());
        for (intact, bad) in [
            ("\"compute_cycles\":[200]", "\"compute_cycles\":[201]"),
            ("\"sync_cycles\":[0]", "\"sync_cycles\":[1]"),
        ] {
            let damaged = text.replacen(intact, bad, 1);
            assert_ne!(damaged, text);
            let err = RunRecord::from_json(&damaged).unwrap_err();
            assert!(err.contains("timeline 0 holds"), "{err}");
        }
        // A waiting interval moves time from one sum to the other.
        let synced = text.replace("[200,300,1]", "[200,300,2]");
        assert!(RunRecord::from_json(&synced).is_err());
        let fixed = synced
            .replace("\"compute_cycles\":[200]", "\"compute_cycles\":[100]")
            .replace("\"sync_cycles\":[0]", "\"sync_cycles\":[100]");
        assert!(RunRecord::from_json(&fixed).is_ok());
    }

    #[test]
    fn records_with_broken_timelines_are_resimulated() {
        let runner = temp_runner(1, true);
        let cfg = MetBenchConfig::tiny();
        let progs = cfg.programs();
        let case = metbench_cases().remove(0);
        let hash = config_hash(&case, &progs);
        let clean = runner.run_case(&progs, &case);
        let path = runner.record_path(hash);
        let text = std::fs::read_to_string(&path).unwrap();
        let record = RunRecord::from_json(&text).unwrap();

        // One changed number each: the second interval of the first
        // timeline starts too early, or ends before it starts; or the
        // last digit of the first rank's `compute_cycles` or
        // `sync_cycles` entry changes, which its timeline contradicts.
        let (start, end, state) = record.timelines[0].intervals[1];
        let intact = format!("[{start},{end},{state}]");
        let mut damaged = vec![
            text.replacen(&intact, &format!("[{},{end},{state}]", start - 1), 1),
            text.replacen(&intact, &format!("[{start},{},{state}]", start - 1), 1),
        ];
        for key in ["compute_cycles", "sync_cycles"] {
            let at = text.find(&format!("\"{key}\":[")).unwrap() + key.len() + 4;
            let last = at + text[at..].find(|c: char| !c.is_ascii_digit()).unwrap() - 1;
            let flipped = if &text[last..=last] == "9" { "8" } else { "9" };
            damaged.push(format!("{}{flipped}{}", &text[..last], &text[last + 1..]));
        }
        for bad in damaged {
            assert_ne!(bad, text);
            std::fs::write(&path, &bad).unwrap();
            assert_eq!(runner.run_case(&progs, &case), clean);
            assert_eq!(runner.stats().cache_hits, 0, "a damaged record was served");
            let restored = RunRecord::from_json(&std::fs::read_to_string(&path).unwrap());
            assert_eq!(
                restored.unwrap().to_run_result(),
                clean,
                "the fresh record replaces the damaged one"
            );
        }
        let _ = std::fs::remove_dir_all(&runner.options().dir);
    }

    #[test]
    fn other_schemas_are_recognized_from_the_leading_field_alone() {
        // A future or past layout need not decode at all to be stale.
        for text in [
            r#"{"schema":4,"case":"A","timelines":[]}"#,
            r#"{"schema":6,"#,
            r#" { "schema" : 3 , ["garbage"#,
        ] {
            assert!(RunRecord::from_json(text).is_err());
            assert!(
                matches!(decode_current(text), Err(Reject::Stale(_))),
                "{text:?}"
            );
        }
        for text in ["", "{", r#"{"case":"A","schema":5}"#, r#"{"schema":"5"}"#] {
            assert!(
                matches!(decode_current(text), Err(Reject::Corrupt(_))),
                "{text:?}"
            );
        }
        let record = awkward_record();
        assert_eq!(decode_current(&record.to_json()), Ok(record));
    }

    #[test]
    fn failed_publish_leaves_no_tmp_file() {
        let runner = temp_runner(1, true);
        let cfg = MetBenchConfig::tiny();
        let progs = cfg.programs();
        let case = metbench_cases().remove(0);
        let hash = config_hash(&case, &progs);
        // A directory squatting on the record path makes the rename fail.
        std::fs::create_dir_all(runner.record_path(hash)).unwrap();
        let first = runner.run_case(&progs, &case);
        assert_eq!(runner.run_case(&progs, &case), first);
        assert_eq!(runner.stats().cache_hits, 0, "nothing was published");
        let leftovers: Vec<_> = std::fs::read_dir(&runner.options().dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|name| name.contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "tmp files left behind: {leftovers:?}");
        assert!(runner.record_path(hash).is_dir());
        let _ = std::fs::remove_dir_all(&runner.options().dir);
    }

    /// Changing any one input a simulation reads must change the key.
    #[test]
    fn config_keys_cover_every_field() {
        fn work(instructions: u64) -> WorkSpec {
            WorkSpec::new(
                Workload::with_profile(
                    "w",
                    StreamSpec {
                        fx: 1,
                        fp: 2,
                        ls: 3,
                        br: 4,
                        dep_dist: 5,
                        working_set: 6,
                        code_kb: 7,
                        seed: 8,
                    },
                    WorkloadProfile {
                        ipc_st: 1.5,
                        unit_pressure: 0.25,
                        mem_intensity: 0.5,
                    },
                ),
                instructions,
            )
        }
        fn base() -> Program {
            Program::new(vec![
                Stmt::Compute(work(100)),
                Stmt::Send {
                    to: 1,
                    tag: 2,
                    bytes: 3,
                },
                Stmt::Recv { from: 1, tag: 2 },
                Stmt::Isend {
                    to: 1,
                    tag: 2,
                    bytes: 3,
                },
                Stmt::Irecv { from: 1, tag: 2 },
                Stmt::WaitAll,
                Stmt::Barrier,
                Stmt::AllReduce { bytes: 4 },
                Stmt::Bcast { root: 0, bytes: 5 },
                Stmt::Reduce { root: 0, bytes: 6 },
                Stmt::Phase(TracePhase::Init),
                Stmt::Loop {
                    count: 2,
                    body: vec![Stmt::DynCompute(Arc::new(|ctx| {
                        work(10 + u64::from(ctx.iteration()))
                    }))],
                },
            ])
        }
        fn ws(p: &mut Program) -> &mut WorkSpec {
            match &mut p.body[0] {
                Stmt::Compute(w) => w,
                _ => unreachable!(),
            }
        }
        fn ulp(x: &mut f64) {
            *x = f64::from_bits(x.to_bits() + 1);
        }
        type Edit = fn(&mut Program);
        let edits: Vec<(&str, Edit)> = vec![
            ("work.instructions", |p| ws(p).instructions += 1),
            ("workload.name", |p| {
                let w = &mut ws(p).workload;
                w.name = format!("{}x", w.name).into();
            }),
            ("stream.fx", |p| ws(p).workload.stream.fx += 1),
            ("stream.fp", |p| ws(p).workload.stream.fp += 1),
            ("stream.ls", |p| ws(p).workload.stream.ls += 1),
            ("stream.br", |p| ws(p).workload.stream.br += 1),
            ("stream.dep_dist", |p| ws(p).workload.stream.dep_dist += 1),
            ("stream.working_set", |p| {
                ws(p).workload.stream.working_set += 1
            }),
            ("stream.code_kb", |p| ws(p).workload.stream.code_kb += 1),
            ("stream.seed", |p| ws(p).workload.stream.seed += 1),
            ("profile.ipc_st", |p| {
                ulp(&mut ws(p).workload.profile.ipc_st)
            }),
            ("profile.unit_pressure", |p| {
                ulp(&mut ws(p).workload.profile.unit_pressure)
            }),
            ("profile.mem_intensity", |p| {
                ulp(&mut ws(p).workload.profile.mem_intensity)
            }),
            ("send.to", |p| {
                p.body[1] = Stmt::Send {
                    to: 0,
                    tag: 2,
                    bytes: 3,
                }
            }),
            ("send.tag", |p| {
                p.body[1] = Stmt::Send {
                    to: 1,
                    tag: 0,
                    bytes: 3,
                }
            }),
            ("send.bytes", |p| {
                p.body[1] = Stmt::Send {
                    to: 1,
                    tag: 2,
                    bytes: 0,
                }
            }),
            ("recv.from", |p| p.body[2] = Stmt::Recv { from: 0, tag: 2 }),
            ("recv.tag", |p| p.body[2] = Stmt::Recv { from: 1, tag: 0 }),
            ("isend.to", |p| {
                p.body[3] = Stmt::Isend {
                    to: 0,
                    tag: 2,
                    bytes: 3,
                }
            }),
            ("isend.tag", |p| {
                p.body[3] = Stmt::Isend {
                    to: 1,
                    tag: 0,
                    bytes: 3,
                }
            }),
            ("isend.bytes", |p| {
                p.body[3] = Stmt::Isend {
                    to: 1,
                    tag: 2,
                    bytes: 0,
                }
            }),
            ("irecv.from", |p| {
                p.body[4] = Stmt::Irecv { from: 0, tag: 2 }
            }),
            ("irecv.tag", |p| p.body[4] = Stmt::Irecv { from: 1, tag: 0 }),
            ("waitall->barrier", |p| p.body[5] = Stmt::Barrier),
            ("barrier->waitall", |p| p.body[6] = Stmt::WaitAll),
            ("allreduce.bytes", |p| {
                p.body[7] = Stmt::AllReduce { bytes: 0 }
            }),
            ("bcast.root", |p| {
                p.body[8] = Stmt::Bcast { root: 1, bytes: 5 }
            }),
            ("bcast.bytes", |p| {
                p.body[8] = Stmt::Bcast { root: 0, bytes: 0 }
            }),
            ("bcast->reduce", |p| {
                p.body[8] = Stmt::Reduce { root: 0, bytes: 5 }
            }),
            ("reduce.root", |p| {
                p.body[9] = Stmt::Reduce { root: 1, bytes: 6 }
            }),
            ("reduce.bytes", |p| {
                p.body[9] = Stmt::Reduce { root: 0, bytes: 0 }
            }),
            ("phase.body", |p| p.body[10] = Stmt::Phase(TracePhase::Body)),
            ("phase.final", |p| {
                p.body[10] = Stmt::Phase(TracePhase::Final)
            }),
            ("loop.count", |p| {
                if let Stmt::Loop { count, .. } = &mut p.body[11] {
                    *count += 1;
                }
            }),
            ("dyn_compute.value", |p| {
                if let Stmt::Loop { body, .. } = &mut p.body[11] {
                    body[0] =
                        Stmt::DynCompute(Arc::new(|ctx| work(11 + u64::from(ctx.iteration()))));
                }
            }),
            ("name None->Some(\"\")", |p| p.name = Some(String::new())),
        ];
        let placement = metbench_cases().remove(0).placement;
        let case = Case {
            name: "K",
            placement: placement.clone(),
            priorities: Vec::new(),
        };
        let mut seen_case = HashMap::new();
        let mut seen_static = HashMap::new();
        let mut variants: Vec<(&str, Option<Edit>)> = vec![("base", None)];
        variants.extend(edits.into_iter().map(|(name, edit)| (name, Some(edit))));
        for (name, edit) in variants {
            let mut programs = vec![base(), base()];
            if let Some(edit) = edit {
                edit(&mut programs[0]);
            }
            let keys = [
                (config_hash(&case, &programs), &mut seen_case),
                (
                    config_hash_static(&StaticRun::new(&programs, placement.clone())),
                    &mut seen_static,
                ),
            ];
            for (hash, seen) in keys {
                if let Some(other) = seen.insert(hash, name) {
                    panic!("{name} collides with {other} ({hash:016x})");
                }
            }
        }
        // Keys are stable: the same configuration hashes the same.
        assert!(seen_case.contains_key(&config_hash(&case, &[base(), base()])));
    }

    /// Edits a tree-structured, word-wise key could blur: each changes
    /// the op stream, so each must change all three keys.
    #[test]
    fn config_keys_separate_tree_edits() {
        fn work(name: &str, instructions: u64) -> WorkSpec {
            WorkSpec::new(
                Workload::from_spec(name, StreamSpec::balanced(1)),
                instructions,
            )
        }
        fn load(ctx: &LoopCtx) -> WorkSpec {
            work("d", 10 + u64::from(ctx.iteration()))
        }
        fn base() -> Vec<Program> {
            vec![
                Program::new(vec![
                    Stmt::Compute(work("abcdefgh", 100)),
                    Stmt::Loop {
                        count: 3,
                        body: vec![Stmt::Compute(work("w", 10)), Stmt::Barrier],
                    },
                    Stmt::AllReduce { bytes: 8 },
                    Stmt::Loop {
                        count: 3,
                        body: vec![
                            Stmt::DynCompute(Arc::new(load)),
                            Stmt::DynCompute(Arc::new(|ctx| work("e", 20 + ctx.rank as u64))),
                        ],
                    },
                    Stmt::Reduce { root: 0, bytes: 16 },
                ])
                .named("abc"),
                Program::new(vec![Stmt::Barrier, Stmt::Compute(work("w", 5))]),
            ]
        }
        fn static_loop(p: &mut [Program]) -> (&mut u32, &mut Vec<Stmt>) {
            match &mut p[0].body[1] {
                Stmt::Loop { count, body } => (count, body),
                _ => unreachable!(),
            }
        }
        fn rename(p: &mut [Program], name: &str) {
            p[0].body[0] = Stmt::Compute(work(name, 100));
        }
        type Edit = fn(&mut [Program]);
        let edits: Vec<(&str, Edit)> = vec![
            ("loop count + 1", |p| *static_loop(p).0 += 1),
            ("loop count - 1", |p| *static_loop(p).0 -= 1),
            ("adjacent ops swapped in a loop", |p| {
                static_loop(p).1.swap(0, 1)
            }),
            ("adjacent ops swapped at the top", |p| p[0].body.swap(1, 2)),
            ("op moved into the loop before it", |p| {
                let op = p[0].body.remove(2);
                static_loop(p).1.push(op);
            }),
            ("op moved to the next rank", |p| {
                let op = p[0].body.pop().unwrap();
                p[1].body.insert(0, op);
            }),
            ("dyn load differs at one iteration", |p| {
                if let Stmt::Loop { body, .. } = &mut p[0].body[3] {
                    body[0] = Stmt::DynCompute(Arc::new(|ctx| match ctx.iteration() {
                        2 => work("d", 99),
                        _ => load(ctx),
                    }));
                }
            }),
            ("name ends a chunk later", |p| rename(p, "abcdefghi")),
            ("name one chunk short", |p| rename(p, "abcdefg")),
            ("name with a trailing NUL", |p| {
                p[0].name = Some("abc\0".into())
            }),
            ("name without its last byte", |p| {
                p[0].name = Some("ab".into())
            }),
        ];
        let placement = metbench_cases().remove(0).placement[..2].to_vec();
        let case = Case {
            name: "K",
            placement: placement.clone(),
            priorities: Vec::new(),
        };
        let keys = |programs: &[Program]| {
            let run = StaticRun::new(programs, placement.clone());
            [
                config_hash(&case, programs),
                config_hash_static(&run),
                config_hash_dynamic(&run, "ctl"),
            ]
        };
        let mut seen: [HashMap<u64, &str>; 3] = Default::default();
        let mut variants: Vec<(&str, Option<Edit>)> = vec![("base", None)];
        variants.extend(edits.into_iter().map(|(name, edit)| (name, Some(edit))));
        for (name, edit) in variants {
            let mut programs = base();
            if let Some(edit) = edit {
                edit(&mut programs);
            }
            for (hash, seen) in keys(&programs).into_iter().zip(&mut seen) {
                if let Some(other) = seen.insert(hash, name) {
                    panic!("{name} collides with {other} ({hash:016x})");
                }
            }
        }
        assert_eq!(keys(&base()), keys(&base()), "keys are stable");
    }
}
