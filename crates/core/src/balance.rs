//! The balancing runner.
//!
//! Wraps the system simulator with the balancing configuration surface the
//! paper describes: a rank-to-context mapping plus per-rank hardware
//! priorities (static balancing, Section VII), optionally driven by a
//! feedback observer (dynamic balancing, Section VIII).

use crate::policy::{apply_priorities, PrioritySetting};
use mtb_mpisim::engine::{Engine, EngineState, Observer, RunResult, SimConfig, SimError, Stepping};
use mtb_mpisim::program::Program;
use mtb_oskernel::{
    CtxAddr, KernelConfig, NoiseSource, PriorityError, Segmentation, Topology, WaitPolicy,
};
use mtb_smtsim::chip::Fidelity;
use mtb_smtsim::perfmodel::MesoConfig;
use mtb_smtsim::CoreConfig;
use std::fmt;

/// Everything that can go wrong executing a balancing run.
#[derive(Debug)]
pub enum BalanceError {
    /// A priority setting the configured kernel interface rejects.
    Priority(PriorityError),
    /// The simulator refused or aborted the run (bad placement,
    /// out-of-range ranks, collective mismatch, deadlock, livelock).
    Sim(SimError),
    /// The pre-flight static analysis found errors before any cycle was
    /// simulated (debug builds only).
    Verify(mtb_verify::Report),
}

impl fmt::Display for BalanceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BalanceError::Priority(e) => write!(f, "{e}"),
            BalanceError::Sim(e) => write!(f, "{e}"),
            BalanceError::Verify(r) => write!(f, "pre-flight verification failed:\n{r}"),
        }
    }
}

impl std::error::Error for BalanceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BalanceError::Priority(e) => Some(e),
            BalanceError::Sim(e) => Some(e),
            BalanceError::Verify(r) => Some(r),
        }
    }
}

impl From<PriorityError> for BalanceError {
    fn from(e: PriorityError) -> BalanceError {
        BalanceError::Priority(e)
    }
}

impl From<SimError> for BalanceError {
    fn from(e: SimError) -> BalanceError {
        BalanceError::Sim(e)
    }
}

/// A fully-specified balancing experiment.
pub struct StaticRun<'a> {
    /// The rank programs.
    pub programs: &'a [Program],
    /// Rank -> hardware context mapping.
    pub placement: Vec<CtxAddr>,
    /// Per-rank priority settings (padded with `Default` if short).
    pub priorities: Vec<PrioritySetting>,
    /// Kernel flavour (the paper's experiments need `Patched`).
    pub kernel: KernelConfig,
    /// Extrinsic noise sources.
    pub noise: Vec<NoiseSource>,
    /// Core model selection and configuration (mesoscale by default).
    pub fidelity: Fidelity,
    /// Number of cores (default 2, the paper's machine).
    pub cores: usize,
    /// Core-to-node grouping (single node by default).
    pub topology: Topology,
    /// How ranks wait in MPI calls (stock-MPICH spinning by default).
    pub wait_policy: WaitPolicy,
    /// Time-advance strategy ([`Stepping::Auto`] by default: event jumps
    /// for mesoscale fidelity, quantum stepping for cycle fidelity).
    pub stepping: Stepping,
    /// Intra-run worker threads for machine stepping (default 1). Each
    /// engine event window is one *epoch*: shards step privately to the
    /// window's deterministic merge point, then the coordinator merges
    /// their accounting. Meso machines under noise step sequentially
    /// whatever this says: each event walks its noise edges core by core
    /// on the calling thread (`Machine::advance_until`), so the event
    /// trajectory is the same at every thread count. Permits are
    /// acquired per epoch and released after it, and results are
    /// bit-identical at any setting, so this is deliberately excluded
    /// from config/record hashing.
    pub threads: usize,
    /// How the machine segments epochs at noise boundaries (the event
    /// calendar by default). Results are bit-identical under either
    /// strategy, so this is excluded from config/record hashing just
    /// like `threads`; the reference exists for differential suites and
    /// the kernel-path benchmarks.
    pub segmentation: Segmentation,
}

impl<'a> StaticRun<'a> {
    /// A run with default (MEDIUM) priorities on a patched kernel.
    pub fn new(programs: &'a [Program], placement: Vec<CtxAddr>) -> StaticRun<'a> {
        StaticRun {
            programs,
            placement,
            priorities: Vec::new(),
            kernel: KernelConfig::patched(),
            noise: Vec::new(),
            fidelity: Fidelity::default(),
            cores: 2,
            topology: Topology::single_node(),
            wait_policy: WaitPolicy::default(),
            stepping: Stepping::default(),
            threads: 1,
            segmentation: Segmentation::default(),
        }
    }

    /// Set the per-rank priorities.
    pub fn with_priorities(mut self, p: Vec<PrioritySetting>) -> Self {
        self.priorities = p;
        self
    }

    /// Set the kernel flavour.
    pub fn with_kernel(mut self, k: KernelConfig) -> Self {
        self.kernel = k;
        self
    }

    /// Add noise sources.
    pub fn with_noise(mut self, n: Vec<NoiseSource>) -> Self {
        self.noise = n;
        self
    }

    /// Select the cycle-level core model at default configuration.
    pub fn cycle_accurate(mut self) -> Self {
        self.fidelity = Fidelity::Cycle(CoreConfig::default());
        self
    }

    /// Use a custom mesoscale configuration (e.g. the EXT-5 share-law
    /// ablation).
    pub fn with_meso(mut self, cfg: MesoConfig) -> Self {
        self.fidelity = Fidelity::Meso(cfg);
        self
    }

    /// Run on a cluster: `nodes` nodes of `cores_per_node` SMT cores each
    /// (cross-node messages pay network latency).
    pub fn on_cluster(mut self, nodes: usize, cores_per_node: usize) -> Self {
        self.cores = nodes * cores_per_node;
        self.topology = Topology::cluster(cores_per_node);
        self
    }

    /// Choose how ranks wait inside MPI calls (Section VI's discussion:
    /// spin at own priority, spin at a lowered priority, or block).
    pub fn with_wait_policy(mut self, p: WaitPolicy) -> Self {
        self.wait_policy = p;
        self
    }

    /// Override the engine's time-advance strategy (the benchmark layer
    /// uses [`Stepping::Quantum`] as its reference mode).
    pub fn with_stepping(mut self, s: Stepping) -> Self {
        self.stepping = s;
        self
    }

    /// Request intra-run worker threads for machine stepping (drawn from
    /// the global permit budget; the grant may be smaller). Pure
    /// wall-clock knob: results are bit-identical at any value.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Choose the machine's epoch segmentation strategy. Pure wall-clock
    /// knob: results are bit-identical under either strategy.
    pub fn with_segmentation(mut self, s: Segmentation) -> Self {
        self.segmentation = s;
        self
    }

    fn build_engine(&self) -> Result<Engine, SimError> {
        let mut cfg = SimConfig::power5(self.programs.len());
        cfg.cores = self.cores;
        cfg.topology = self.topology;
        cfg.placement = self.placement.clone();
        cfg.kernel = self.kernel;
        cfg.noise = self.noise.clone();
        cfg.fidelity = self.fidelity.clone();
        cfg.wait_policy = self.wait_policy;
        cfg.stepping = self.stepping;
        cfg.threads = self.threads;
        cfg.segmentation = self.segmentation;
        if matches!(self.fidelity, Fidelity::Cycle(_)) {
            // The cycle model costs real time per simulated cycle; keep
            // event steps bounded so rate estimates stay fresh.
            cfg.quantum = 50_000;
        }
        Engine::try_new(self.programs, cfg)
    }

    /// The run expressed as a `mtb-verify` case for pre-flight linting.
    pub fn as_case_spec(&self) -> mtb_verify::CaseSpec {
        let mut priorities = self.priorities.clone();
        priorities.resize(self.programs.len(), PrioritySetting::Default);
        mtb_verify::CaseSpec {
            name: "run".into(),
            placement: self.placement.clone(),
            priorities,
            flavour: self.kernel.flavour,
        }
    }

    /// Static analysis of the run (communication graph + priority
    /// configuration), independent of whether pre-flight is active.
    pub fn verify(&self) -> mtb_verify::Report {
        mtb_verify::verify(self.programs, &self.as_case_spec())
    }
}

/// Pre-flight static analysis: in debug builds refuse runs the analyzer
/// can prove broken before a single cycle is simulated. Warnings (e.g.
/// predicted inversions — experiments reproduce those on purpose) never
/// block.
fn preflight(run: &StaticRun<'_>) -> Result<(), BalanceError> {
    if !cfg!(debug_assertions) {
        return Ok(());
    }
    let report = run.verify();
    if report.has_errors() {
        return Err(BalanceError::Verify(report));
    }
    Ok(())
}

/// Build the engine for a run with priorities applied but no events
/// stepped — the entry point for resumable/chunked execution and for the
/// drift bisector, which steps engines in lockstep itself.
pub fn prepare(run: &StaticRun<'_>) -> Result<Engine, BalanceError> {
    preflight(run)?;
    let mut engine = run.build_engine()?;
    let mut settings = run.priorities.clone();
    settings.resize(run.programs.len(), PrioritySetting::Default);
    apply_priorities(engine.machine_mut(), &settings)?;
    Ok(engine)
}

/// Execute a static balancing run.
pub fn execute(run: StaticRun<'_>) -> Result<RunResult, BalanceError> {
    let engine = prepare(&run)?;
    engine.try_run().map_err(BalanceError::Sim)
}

/// Execute a run with a feedback observer (e.g.
/// [`crate::dynamic::DynamicBalancer`]).
pub fn execute_with(
    run: StaticRun<'_>,
    observer: &mut dyn Observer,
) -> Result<RunResult, BalanceError> {
    let engine = prepare(&run)?;
    engine.try_run_with(observer).map_err(BalanceError::Sim)
}

/// Receives the engine each time a checkpoint boundary is crossed during
/// [`execute_chunked`]. The sink decides what to do with it (the
/// benchmark harness serializes via `mtb-snap`; this crate stays free of
/// any serialization dependency).
pub trait CheckpointSink {
    /// Called with the engine paused at an event boundary. `events` is
    /// the engine's event count at this boundary.
    fn on_checkpoint(&mut self, events: u64, engine: &Engine);
}

/// A sink that drops every checkpoint offer.
pub struct NoCheckpoint;

impl CheckpointSink for NoCheckpoint {
    fn on_checkpoint(&mut self, _events: u64, _engine: &Engine) {}
}

/// Execute a run in chunks of `every` engine events (at least 1),
/// offering the paused engine to `sink` after each, optionally resuming
/// from a previously captured state.
///
/// Chunked stepping visits bit-for-bit the same states as a straight
/// run, so the result is identical to [`execute_with`] for any chunk
/// size, any resume point, and any sink: the interval is a persistence
/// knob, outside every config and record hash. Under epoch-based sharded
/// stepping every checkpoint boundary is also a forced merge point —
/// shards never hold private state across a boundary — so a snapshot
/// taken here restores identically at any thread count.
pub fn execute_chunked(
    run: StaticRun<'_>,
    every: u64,
    resume: Option<&EngineState>,
    observer: &mut dyn Observer,
    sink: &mut dyn CheckpointSink,
) -> Result<RunResult, BalanceError> {
    let mut engine = prepare(&run)?;
    if let Some(state) = resume {
        engine.restore_state(state)?;
    }
    while !engine.step_events(observer, every.max(1))? {
        sink.on_checkpoint(engine.events(), &engine);
    }
    Ok(engine.into_result())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtb_oskernel::NoiseError;
    use mtb_workloads::metbench::MetBenchConfig;
    use mtb_workloads::synthetic::SyntheticConfig;

    #[test]
    fn boosting_the_bottleneck_shortens_the_run() {
        // The Figure 1 story end to end: P1 is the bottleneck; give it
        // HIGH priority (its core-mate P2 implicitly loses bandwidth) and
        // the total execution time must drop.
        let cfg = SyntheticConfig {
            base_work: 20_000_000,
            iterations: 2,
            ..Default::default()
        };
        let progs = cfg.programs();

        let base = execute(StaticRun::new(&progs, cfg.placement())).unwrap();
        // A bounded boost (diff 1): P1 speeds up, P2 slows but has slack.
        let boosted = execute(
            StaticRun::new(&progs, cfg.placement()).with_priorities(vec![
                PrioritySetting::ProcFs(5),
                PrioritySetting::Default,
                PrioritySetting::Default,
                PrioritySetting::Default,
            ]),
        )
        .unwrap();
        assert!(
            boosted.total_cycles < base.total_cycles,
            "boosting the bottleneck must help: {} vs {}",
            boosted.total_cycles,
            base.total_cycles
        );
        assert!(boosted.metrics.imbalance_pct < base.metrics.imbalance_pct);
    }

    #[test]
    fn overboosting_inverts_the_imbalance() {
        // The MetBench case-D phenomenon: penalize the co-runner too much
        // and it becomes the new bottleneck.
        let cfg = SyntheticConfig {
            base_work: 20_000_000,
            iterations: 2,
            skew: 1.3,
            ..Default::default()
        };
        let progs = cfg.programs();
        let base = execute(StaticRun::new(&progs, cfg.placement())).unwrap();
        let inverted = execute(
            StaticRun::new(&progs, cfg.placement()).with_priorities(vec![
                PrioritySetting::ProcFs(6),
                PrioritySetting::ProcFs(2), // crush P2 (priority difference 4)
                PrioritySetting::Default,
                PrioritySetting::Default,
            ]),
        )
        .unwrap();
        // P2 now dominates the run.
        let p2 = &inverted.metrics.procs[1];
        assert!(p2.sync_pct < 5.0, "P2 must be the new bottleneck: {p2:?}");
        assert!(inverted.total_cycles > base.total_cycles);
    }

    #[test]
    fn preflight_rejects_deadlocking_programs_before_simulation() {
        use mtb_mpisim::ProgramBuilder;
        // Two ranks each blocking on a receive the other never sends:
        // the analyzer must refuse this in debug; in release the engine
        // itself reports the deadlock. Either way: a structured error.
        let progs = vec![
            ProgramBuilder::new().recv(1, 1).build(),
            ProgramBuilder::new().recv(0, 2).build(),
        ];
        let placement = vec![CtxAddr::from_cpu(0), CtxAddr::from_cpu(1)];
        let res = execute(StaticRun::new(&progs, placement));
        match res {
            // Preflight only runs in debug builds; there the analyzer
            // must refuse before the engine is even constructed.
            Err(BalanceError::Verify(report)) if cfg!(debug_assertions) => {
                assert!(report.has_errors(), "{report}");
            }
            Err(BalanceError::Sim(_)) if !cfg!(debug_assertions) => {}
            other => panic!(
                "expected a verify (debug) or sim (release) error, got {:?}",
                other.map(|r| r.total_cycles)
            ),
        }
    }

    #[test]
    fn preflight_warnings_do_not_block_execution() {
        // Overboosting (difference 4) draws PRIO-DIFF / PRIO-INVERT
        // warnings, but experiments reproduce inversions on purpose —
        // the run must still execute.
        let cfg = SyntheticConfig::tiny();
        let progs = cfg.programs();
        let run = StaticRun::new(&progs, cfg.placement())
            .with_priorities(vec![PrioritySetting::ProcFs(6), PrioritySetting::ProcFs(2)]);
        let report = run.verify();
        assert!(!report.has_errors(), "{report}");
        assert!(execute(run).is_ok());
    }

    #[test]
    fn priorities_are_rejected_on_vanilla_kernels() {
        let cfg = SyntheticConfig::tiny();
        let progs = cfg.programs();
        let res = execute(
            StaticRun::new(&progs, cfg.placement())
                .with_kernel(KernelConfig::vanilla())
                .with_priorities(vec![PrioritySetting::ProcFs(6)]),
        );
        assert!(res.is_err(), "procfs needs the patch");
    }

    /// MetBench tiny under a valid timer tick (entry 0) plus `bad`
    /// (entry 1).
    fn run_with_bad_noise(bad: NoiseSource) -> Result<RunResult, BalanceError> {
        let cfg = MetBenchConfig::tiny();
        let progs = cfg.programs();
        let tick = NoiseSource::timer(CtxAddr::from_cpu(0), 10_000, 100);
        execute(StaticRun::new(&progs, cfg.placement()).with_noise(vec![tick, bad]))
    }

    #[test]
    fn noise_on_a_missing_core_is_a_typed_error() {
        let bad = NoiseSource::timer(CtxAddr::from_cpu(8), 10_000, 100);
        assert!(matches!(
            run_with_bad_noise(bad),
            Err(BalanceError::Sim(SimError::InvalidNoise {
                index: 1,
                reason: NoiseError::TargetOutOfRange { core: 4, .. },
            }))
        ));
    }

    #[test]
    fn zero_period_noise_is_a_typed_error() {
        let bad = NoiseSource {
            period: 0,
            cost: 0,
            ..NoiseSource::timer(CtxAddr::from_cpu(1), 10_000, 100)
        };
        assert!(matches!(
            run_with_bad_noise(bad),
            Err(BalanceError::Sim(SimError::InvalidNoise {
                index: 1,
                reason: NoiseError::CostFillsPeriod { cost: 0, period: 0 },
            }))
        ));
    }

    #[test]
    fn noise_filling_its_period_is_a_typed_error() {
        let bad = NoiseSource {
            cost: 10_000,
            ..NoiseSource::timer(CtxAddr::from_cpu(1), 10_000, 100)
        };
        assert!(matches!(
            run_with_bad_noise(bad),
            Err(BalanceError::Sim(SimError::InvalidNoise {
                index: 1,
                reason: NoiseError::CostFillsPeriod {
                    cost: 10_000,
                    period: 10_000,
                },
            }))
        ));
    }
}
