//! The dynamic balancing policy — the paper's Section VIII future work.
//!
//! "We plan to extend our OS by introducing an algorithm that will
//! automatically detect if a process deserves a higher amount of resources
//! and which process should be deprived of those resources."
//!
//! [`DynamicBalancer`] is that algorithm, implemented as an
//! [`Observer`] over the engine's synchronization epochs. At every epoch
//! it compares, per core, the compute time of the two resident ranks in
//! the window just finished (smoothed with an EWMA), and sets the pair's
//! priorities so the slower rank gets more decode slots:
//!
//! * ratio below `threshold` — keep both at MEDIUM;
//! * moderately imbalanced — boost the heavy rank to MEDIUM-HIGH (diff 1);
//! * heavily imbalanced — boost to HIGH (diff 2).
//!
//! Four safeguards keep the policy out of the paper's failure modes:
//!
//! 1. the priority difference is **capped at 2** (Table IV's case D shows
//!    the penalized thread collapses superlinearly beyond that);
//! 2. changes move **one step per epoch** (hysteresis);
//! 3. a pair never takes **two opposing adjustments within one cool-off
//!    window** — a boost followed by a de-boost (or vice versa) must be
//!    at least `cooloff` epochs apart, so a ratio hovering around the
//!    threshold cannot make priorities thrash;
//! 4. every change is **audited**: if the pair's bottleneck time got
//!    *worse* after an adjustment (e.g. the imbalance was caused by OS
//!    noise that priorities cannot fix, and the penalized rank became the
//!    new bottleneck), the change is reverted and the pair frozen for a
//!    cool-off period.
//!
//! [`TwoLevelController`] wraps the balancer in the full v2 scheme: a
//! [`ProgressModel`] turns retired
//! instruction counts into per-rank progress deficits against the static
//! plan (level 2's inputs), and when intra-core tuning saturates — every
//! imbalanced pair already at the difference cap or frozen — while the
//! cross-core load split stays lopsided, level 1 remaps ranks across
//! cores ([`crate::remap::realize_placement`]) and lets level 2 retune
//! the new pairs.

use crate::observe::ProgressModel;
use mtb_mpisim::engine::{Observer, RankWindow};
use mtb_oskernel::Machine;
use mtb_smtsim::model::WorkloadProfile;
use mtb_smtsim::pairmodel::{best_pair, pair_rates};
use mtb_smtsim::HwPriority;
use mtb_trace::Cycles;

/// Tunables of the dynamic policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DynamicConfig {
    /// Compute-time ratio above which a pair counts as imbalanced.
    pub threshold: f64,
    /// Ratio above which the policy uses the larger boost.
    pub strong_threshold: f64,
    /// Ratio below which an *engaged* boost relaxes back toward MEDIUM.
    /// Keeping this under `threshold` makes the engage/relax pair a
    /// Schmitt trigger: a ratio hovering at the engage threshold cannot
    /// chatter a boost on and off, it has to fall convincingly below the
    /// relax floor first.
    pub relax_threshold: f64,
    /// Maximum priority difference the policy will ever create.
    pub max_diff: u8,
    /// EWMA smoothing for the per-rank compute times (0 = no memory,
    /// 1 = frozen).
    pub ewma: f64,
    /// Fractional worsening of the pair bottleneck that triggers a revert.
    pub revert_tolerance: f64,
    /// Epochs a pair stays frozen after a reverted adjustment.
    pub cooloff: usize,
}

impl Default for DynamicConfig {
    fn default() -> Self {
        DynamicConfig {
            threshold: 1.10,
            strong_threshold: 1.8,
            relax_threshold: 1.05,
            max_diff: 2,
            ewma: 0.5,
            revert_tolerance: 0.05,
            cooloff: 8,
        }
    }
}

impl DynamicConfig {
    /// Lint the tunables against the paper's safe-operation envelope.
    /// `max_diff` beyond the Table IV bound, inverted thresholds, or a
    /// degenerate EWMA all return diagnostics instead of silently
    /// misbehaving at run time.
    pub fn lint(&self) -> mtb_verify::Report {
        use mtb_verify::{codes, Diagnostic, Report, Severity};
        let mut report = Report::new();
        if self.max_diff > mtb_verify::prio::DEFAULT_MAX_DIFF {
            report.push(Diagnostic::new(
                codes::CTRL_DIFF,
                Severity::Warning,
                format!(
                    "max_diff {} exceeds the bounded-difference limit {} — beyond it \
                     the penalized thread collapses superlinearly (Table IV case D)",
                    self.max_diff,
                    mtb_verify::prio::DEFAULT_MAX_DIFF
                ),
            ));
        }
        if !(0.0..=1.0).contains(&self.ewma) || self.ewma.is_nan() {
            report.push(Diagnostic::new(
                codes::CTRL_EWMA,
                Severity::Error,
                format!(
                    "ewma {} is outside [0, 1]: smoothing would diverge",
                    self.ewma
                ),
            ));
        }
        if self.threshold < 1.0 {
            report.push(Diagnostic::new(
                codes::CTRL_THRASH,
                Severity::Warning,
                format!(
                    "threshold {} is below 1.0: every pair counts as imbalanced and \
                     the policy chases noise",
                    self.threshold
                ),
            ));
        }
        if self.relax_threshold > self.threshold {
            report.push(Diagnostic::new(
                codes::CTRL_THRASH,
                Severity::Warning,
                format!(
                    "relax_threshold {} exceeds threshold {}: the Schmitt band is \
                     inverted and a boost can relax the epoch after it engages",
                    self.relax_threshold, self.threshold
                ),
            ));
        }
        if self.strong_threshold < self.threshold {
            report.push(Diagnostic::new(
                codes::CTRL_THRASH,
                Severity::Warning,
                format!(
                    "strong_threshold {} is below threshold {}: the weak tier is \
                     unreachable",
                    self.strong_threshold, self.threshold
                ),
            ));
        }
        if self.cooloff == 0 {
            report.push(Diagnostic::new(
                codes::CTRL_THRASH,
                Severity::Warning,
                "cooloff 0 disables the settling window: the controller can \
                 re-adjust every epoch and oscillate around the balance point"
                    .to_string(),
            ));
        }
        if self.revert_tolerance < 0.0 {
            report.push(Diagnostic::new(
                codes::CTRL_REVERT,
                Severity::Warning,
                format!(
                    "revert_tolerance {} is negative: every adjustment is reverted \
                     and pairs freeze immediately",
                    self.revert_tolerance
                ),
            ));
        }
        report
    }
}

/// Audit record for a pending adjustment.
#[derive(Debug, Clone, Copy)]
struct PendingAudit {
    applied_at: usize,
    bottleneck_before: f64,
    previous: (u8, u8),
}

/// Per-pair policy state.
#[derive(Debug, Clone, Copy, Default)]
struct PairState {
    frozen_until: usize,
    pending: Option<PendingAudit>,
    /// Direction of the last non-revert adjustment: the sign of the
    /// change of the pair's signed priority difference. An opposing
    /// adjustment within `cooloff` epochs of `last_change_at` is skipped.
    last_dir: i8,
    last_change_at: usize,
}

/// The feedback balancer.
#[derive(Debug)]
pub struct DynamicBalancer {
    cfg: DynamicConfig,
    /// Pairs of ranks sharing a core, derived from the placement.
    pairs: Vec<(usize, usize)>,
    pair_state: Vec<PairState>,
    /// Smoothed per-rank compute time.
    smooth: Vec<f64>,
    /// Per-rank progress-deficit weights multiplied into the smoothed
    /// compute times before pair decisions (empty = all 1.0). Set each
    /// epoch by the two-level controller from its [`ProgressModel`].
    weights: Vec<f64>,
    /// Plan expectation (instructions per rank) for the upcoming decision
    /// window — the feedforward signal. When present, pair decisions come
    /// from it (weighted by the deficits) instead of the observed compute
    /// times; empty = reactive control only.
    plan: Vec<f64>,
    /// The previous `plan` — the expectation for the window just
    /// measured, used to normalize the audit bottleneck so the plan's own
    /// per-iteration load swings cannot fire spurious reverts.
    plan_prev: Vec<f64>,
    /// Per-rank workload profiles: when present, pair targets come from
    /// the Table II/III pair model ([`mtb_smtsim::pairmodel`]) instead
    /// of the fixed ratio ladder.
    profiles: Option<Vec<WorkloadProfile>>,
    /// Current applied priority per rank.
    current: Vec<u8>,
    /// Number of priority changes made (diagnostics).
    adjustments: usize,
    /// Number of audited reverts (diagnostics).
    reverts: usize,
}

impl DynamicBalancer {
    /// Build a balancer for ranks placed as `placement` (same vector the
    /// engine uses).
    pub fn new(placement: &[mtb_oskernel::CtxAddr], cfg: DynamicConfig) -> DynamicBalancer {
        let pairs = mtb_oskernel::core_pairs(placement);
        DynamicBalancer {
            cfg,
            pair_state: vec![PairState::default(); pairs.len()],
            pairs,
            smooth: vec![0.0; placement.len()],
            weights: Vec::new(),
            plan: Vec::new(),
            plan_prev: Vec::new(),
            profiles: None,
            current: vec![4; placement.len()],
            adjustments: 0,
            reverts: 0,
        }
    }

    /// With default tunables.
    pub fn with_defaults(placement: &[mtb_oskernel::CtxAddr]) -> DynamicBalancer {
        DynamicBalancer::new(placement, DynamicConfig::default())
    }

    /// Priority changes made so far.
    pub fn adjustments(&self) -> usize {
        self.adjustments
    }

    /// Audited reverts performed so far.
    pub fn reverts(&self) -> usize {
        self.reverts
    }

    /// Currently applied per-rank priorities.
    pub fn current_priorities(&self) -> &[u8] {
        &self.current
    }

    /// Smoothed per-rank compute-time estimates (0.0 = no sample yet).
    pub fn smoothed(&self) -> &[f64] {
        &self.smooth
    }

    /// Install per-rank progress-deficit weights for the next decisions
    /// (the progress-equalization hook). Weights multiply the smoothed
    /// compute times, so a rank behind its static plan looks heavier than
    /// its last window alone suggests.
    pub fn set_weights(&mut self, weights: &[f64]) {
        self.weights.clear();
        self.weights.extend_from_slice(weights);
    }

    /// Install per-rank workload profiles: pair targets then come from
    /// the Table II/III decode-share model instead of the ratio ladder.
    pub fn set_profiles(&mut self, profiles: Vec<WorkloadProfile>) {
        self.profiles = Some(profiles);
    }

    /// Install the plan expectation for the upcoming decision window (the
    /// feedforward signal); the expectation previously installed shifts
    /// to describe the window just measured. Called by the two-level
    /// controller at every decision epoch.
    pub fn set_plan(&mut self, plan: &[f64]) {
        std::mem::swap(&mut self.plan, &mut self.plan_prev);
        self.plan.clear();
        self.plan.extend_from_slice(plan);
    }

    fn weight(&self, rank: usize) -> f64 {
        self.weights.get(rank).copied().unwrap_or(1.0)
    }

    /// Reset every rank to MEDIUM and clear the audit state — called by
    /// the two-level controller after a cross-core remap, when the old
    /// intra-pair decisions no longer describe any live pair.
    pub fn reset_priorities(&mut self, machine: &mut Machine) {
        for r in 0..self.current.len() {
            if self.current[r] != 4 && machine.set_priority_procfs(r, 4).is_ok() {
                self.current[r] = 4;
            }
        }
        for s in &mut self.pair_state {
            *s = PairState::default();
        }
    }

    /// The pair's decision signals, in estimated instructions.
    ///
    /// Feedforward first: when the plan expectation for the upcoming
    /// window is installed, it *is* the instruction estimate — exact
    /// per-iteration loads, immune to window noise — scaled by each
    /// rank's progress-deficit weight so sustained deviation from the
    /// plan still steers the decision (feedback correction).
    ///
    /// Otherwise, reactive: smoothed compute times weighted by the
    /// deficits and — when the decode-share profiles are installed —
    /// multiplied by each side's predicted throughput at the priorities
    /// *currently in force*. Time × throughput estimates instructions, a
    /// priority-invariant load measure: a boosted pair whose compute
    /// times equalized is recognized as balanced *by control* (signals
    /// still skewed → hold the boost), not balanced by work (signals
    /// even → relax toward MEDIUM). Without this, the feedback loop
    /// would undo its own corrections as soon as they work.
    fn pair_signals(&self, a: usize, b: usize) -> (f64, f64) {
        if let (Some(&ea), Some(&eb)) = (self.plan.get(a), self.plan.get(b)) {
            if ea > 0.0 && eb > 0.0 {
                return (ea * self.weight(a), eb * self.weight(b));
            }
        }
        let mut sa = self.smooth[a] * self.weight(a);
        let mut sb = self.smooth[b] * self.weight(b);
        if let Some(profiles) = &self.profiles {
            if let (Some(wa), Some(wb), Some(pa), Some(pb)) = (
                profiles.get(a),
                profiles.get(b),
                HwPriority::new(self.current[a]),
                HwPriority::new(self.current[b]),
            ) {
                let [ra, rb] = pair_rates(wa, wb, pa, pb);
                if ra > 0.0 && rb > 0.0 {
                    sa *= ra;
                    sb *= rb;
                }
            }
        }
        (sa, sb)
    }

    /// Re-derive the core pairs from the live machine (a remap may have
    /// migrated ranks). A pairing change resets the per-pair audit state.
    fn refresh_pairs(&mut self, machine: &Machine, n: usize) {
        let mut live_pairs = Vec::new();
        for i in 0..n {
            for j in (i + 1)..n {
                if let (Some(a), Some(b)) = (machine.pcb(i), machine.pcb(j)) {
                    if a.affinity.core == b.affinity.core {
                        live_pairs.push((i, j));
                    }
                }
            }
        }
        if live_pairs != self.pairs {
            self.pairs = live_pairs;
            self.pair_state = vec![PairState::default(); self.pairs.len()];
        }
    }

    /// Apply the static plan's priorities in one go: for each live pair,
    /// jump straight to the decode-share model's target for the given
    /// per-rank work totals (no single-stepping, no audit — the plan is
    /// trusted the way a hand-tuned static case is; hysteresis and audits
    /// govern the online corrections that follow). The two-level
    /// controller calls this once at start-up so apps whose sync
    /// structure offers few decision points (BT-MZ's neighbour exchanges
    /// reach a global barrier only at the end) still run the bulk of
    /// their work under the plan's setting.
    pub fn prime(&mut self, machine: &mut Machine, work: &[f64]) {
        self.refresh_pairs(machine, work.len());
        for p in 0..self.pairs.len() {
            let (a, b) = self.pairs[p];
            let (wa, wb) = (work[a], work[b]);
            if wa <= 0.0 && wb <= 0.0 {
                continue;
            }
            let (heavy, light) = if wa >= wb { (a, b) } else { (b, a) };
            let (lo, hi) = (wa.min(wb), wa.max(wb));
            let ratio = if lo > 0.0 { hi / lo } else { f64::INFINITY };
            let (th, tl) = self.pair_target(heavy, light, ratio, hi, lo);
            self.apply(machine, heavy, th);
            self.apply(machine, light, tl);
        }
    }

    /// Has intra-core tuning saturated? True when no pair can be improved
    /// further: each is either balanced (ratio below threshold), frozen
    /// by an audit, or already at the bounded-difference cap. The
    /// two-level controller uses this as the level-1 trigger.
    pub fn saturated(&self, epoch: usize) -> bool {
        for (p, &(a, b)) in self.pairs.iter().enumerate() {
            let (sa, sb) = self.pair_signals(a, b);
            if sa <= 0.0 && sb <= 0.0 {
                continue;
            }
            let (lo, hi) = (sa.min(sb), sa.max(sb));
            let ratio = if lo > 0.0 { hi / lo } else { f64::INFINITY };
            if ratio < self.cfg.threshold || epoch < self.pair_state[p].frozen_until {
                continue;
            }
            let heavy = if sa >= sb { a } else { b };
            if self.current[a].abs_diff(self.current[b]) < self.cfg.max_diff
                && self.current[heavy] < 6
            {
                return false; // this pair still has headroom
            }
        }
        true
    }

    /// Decide the target (heavy, light) priorities for a smoothed compute
    /// ratio `heavy / light >= 1`.
    fn target_for_ratio(&self, ratio: f64) -> (u8, u8) {
        if ratio < self.cfg.threshold {
            (4, 4)
        } else if ratio < self.cfg.strong_threshold || self.cfg.max_diff < 2 {
            (5, 4)
        } else {
            (6, 4)
        }
    }

    /// Target priorities for a pair: the decode-share model when profiles
    /// are installed (normalized so the lighter side sits at MEDIUM, like
    /// the paper's tables), the ratio ladder otherwise. A ratio below the
    /// imbalance threshold targets (MEDIUM, MEDIUM) — the model is not
    /// consulted for balanced pairs, preserving the hysteresis guarantee.
    ///
    /// Two noise guards protect an already-engaged boost, because on a
    /// workload whose per-iteration load moves (SIESTA) the smoothed
    /// ratio fluctuates around the mean and reacting to every crossing
    /// costs more than the imbalance itself:
    /// - Schmitt trigger: the boost relaxes only below `relax_threshold`,
    ///   not at the first dip under the engage threshold; in the band
    ///   between the two it holds.
    /// - Reversal guard: when the observed heavy side is the one the pair
    ///   currently *demotes*, crossing the boost over needs
    ///   `strong_threshold` — a transient inversion holds instead of
    ///   buying a revert plus a frozen window.
    fn pair_target(&self, heavy: usize, light: usize, ratio: f64, wh: f64, wl: f64) -> (u8, u8) {
        let cur = (self.current[heavy], self.current[light]);
        if cur.0 < cur.1 {
            if ratio < self.cfg.strong_threshold {
                return cur;
            }
        } else if cur.0 > cur.1 && ratio < self.cfg.threshold {
            return if ratio < self.cfg.relax_threshold {
                (4, 4)
            } else {
                cur
            };
        } else if ratio < self.cfg.threshold {
            return (4, 4);
        }
        if let Some(profiles) = &self.profiles {
            if let (Some(ph), Some(pl)) = (profiles.get(heavy), profiles.get(light)) {
                let (th, tl, _) = best_pair(
                    ph,
                    pl,
                    wh.max(1.0) as u64,
                    wl.max(1.0) as u64,
                    self.cfg.max_diff,
                );
                let (th, tl) = (th.value(), tl.value());
                // Shift so the lighter side sits at MEDIUM (decode share
                // depends on the difference, not the absolute level).
                let shift = 4 - i16::from(th.min(tl));
                let th = (i16::from(th) + shift).clamp(1, 6) as u8;
                let tl = (i16::from(tl) + shift).clamp(1, 6) as u8;
                return (th, tl);
            }
        }
        self.target_for_ratio(ratio)
    }

    /// Move `from` one step toward `to` (hysteresis: single-step changes).
    fn step_toward(from: u8, to: u8) -> u8 {
        match from.cmp(&to) {
            std::cmp::Ordering::Less => from + 1,
            std::cmp::Ordering::Greater => from - 1,
            std::cmp::Ordering::Equal => from,
        }
    }

    fn apply(&mut self, machine: &mut Machine, rank: usize, prio: u8) -> bool {
        if self.current[rank] != prio {
            // The policy lives at OS level; it uses the procfs interface
            // the kernel patch added. 1..=6 always valid there.
            if machine.set_priority_procfs(rank, prio).is_ok() {
                self.current[rank] = prio;
                self.adjustments += 1;
                return true;
            }
        }
        false
    }
}

impl Observer for DynamicBalancer {
    fn on_epoch(&mut self, epoch: usize, windows: &[RankWindow], machine: &mut Machine) {
        // Re-derive the core pairs from the live machine: an adaptive
        // mapper (crate::remap) may have migrated ranks since the last
        // epoch.
        let n = windows.len();
        self.refresh_pairs(machine, n);

        // Smooth the compute times.
        for w in windows {
            let x = w.compute as f64;
            let s = &mut self.smooth[w.rank];
            *s = if *s == 0.0 {
                x
            } else {
                self.cfg.ewma * *s + (1.0 - self.cfg.ewma) * x
            };
        }

        for p in 0..self.pairs.len() {
            let (a, b) = self.pairs[p];
            let mut raw_bottleneck = windows
                .iter()
                .filter(|w| w.rank == a || w.rank == b)
                .map(|w| w.compute as f64)
                .fold(0.0, f64::max);
            // With a plan installed, audit cycles *per expected
            // instruction* rather than raw cycles: the plan's own
            // per-iteration load swings then cancel out of the
            // before/after comparison, and only the adjustment's real
            // effect (throughput) remains. `plan_prev` describes the
            // window just measured.
            let expected = self
                .plan_prev
                .get(a)
                .copied()
                .unwrap_or(0.0)
                .max(self.plan_prev.get(b).copied().unwrap_or(0.0));
            if expected > 0.0 {
                raw_bottleneck /= expected;
            }

            // Audit a pending adjustment: did the pair get worse?
            if let Some(audit) = self.pair_state[p].pending {
                if epoch > audit.applied_at {
                    self.pair_state[p].pending = None;
                    if raw_bottleneck > audit.bottleneck_before * (1.0 + self.cfg.revert_tolerance)
                    {
                        let (pa, pb) = audit.previous;
                        self.apply(machine, a, pa);
                        self.apply(machine, b, pb);
                        self.reverts += 1;
                        self.pair_state[p].frozen_until = epoch + self.cfg.cooloff;
                        continue;
                    }
                }
            }
            if epoch < self.pair_state[p].frozen_until {
                continue;
            }

            let (sa, sb) = self.pair_signals(a, b);
            if sa <= 0.0 && sb <= 0.0 {
                continue;
            }
            let (heavy, light, ratio) = if sa >= sb {
                (a, b, if sb > 0.0 { sa / sb } else { f64::INFINITY })
            } else {
                (b, a, if sa > 0.0 { sb / sa } else { f64::INFINITY })
            };
            let (th, tl) = self.pair_target(heavy, light, ratio, sa.max(sb), sa.min(sb));
            let nh = Self::step_toward(self.current[heavy], th);
            let nl = Self::step_toward(self.current[light], tl);
            // Respect the difference cap even mid-transition.
            if nh.abs_diff(nl) > self.cfg.max_diff {
                continue;
            }
            // An adjustment that reverses the pair's priority-difference
            // trend within one cool-off window of the last one is
            // hysteresis-blocked: the controller never thrashes around a
            // ratio that hovers at the threshold.
            let da = i8::try_from(self.current[a]).unwrap_or(0)
                - i8::try_from(self.current[b]).unwrap_or(0);
            let db = if heavy == a {
                i8::try_from(nh).unwrap_or(0) - i8::try_from(nl).unwrap_or(0)
            } else {
                i8::try_from(nl).unwrap_or(0) - i8::try_from(nh).unwrap_or(0)
            };
            let dir = (db - da).signum();
            let st = self.pair_state[p];
            if dir != 0 && st.last_dir == -dir && epoch < st.last_change_at + self.cfg.cooloff {
                continue;
            }
            let previous = (self.current[a], self.current[b]);
            let mut changed = false;
            changed |= self.apply(machine, heavy, nh);
            changed |= self.apply(machine, light, nl);
            if changed {
                if dir != 0 {
                    self.pair_state[p].last_dir = dir;
                    self.pair_state[p].last_change_at = epoch;
                }
                self.pair_state[p].pending = Some(PendingAudit {
                    applied_at: epoch,
                    bottleneck_before: raw_bottleneck,
                    previous,
                });
            }
        }
    }
}

/// Tunables of the two-level controller wrapped around
/// [`DynamicBalancer`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ControllerConfig {
    /// Level-2 (within-core priority) policy tunables.
    pub balance: DynamicConfig,
    /// Sync epochs aggregated per decision window (1 = decide at every
    /// barrier). Longer windows average out per-epoch jitter at the cost
    /// of convergence lag — `lint` flags windows that cannot converge
    /// within the app's makespan.
    pub window: usize,
    /// Epochs of observation before level 1 may consider a remap.
    pub settle: usize,
    /// Minimum max/min cross-core load ratio before a remap is worthwhile.
    pub remap_ratio: f64,
    /// Consecutive saturated decision windows before level 1 fires.
    pub remap_after: usize,
    /// Cross-core remap budget (0 disables level 1; migrations thrash
    /// caches, so the default allows one corrective remap like the
    /// paper's manual pairing).
    pub max_remaps: usize,
    /// The placement is pinned (deployment forbids migration): level 1
    /// never fires, and `lint` flags a nonzero remap budget.
    pub pinned: bool,
}

impl Default for ControllerConfig {
    fn default() -> Self {
        ControllerConfig {
            balance: DynamicConfig::default(),
            window: 1,
            settle: 3,
            remap_ratio: 1.25,
            remap_after: 3,
            max_remaps: 1,
            pinned: false,
        }
    }
}

impl ControllerConfig {
    /// Lint the two-level tunables: everything [`DynamicConfig::lint`]
    /// checks, plus the convergence-lag bound ([`MTB-CTRL-LAG`]) against
    /// an optional makespan horizon (total sync epochs of the app, e.g.
    /// from the static profiles) and the pinned-placement contradiction
    /// ([`MTB-CTRL-REMAP-PINNED`]).
    ///
    /// [`MTB-CTRL-LAG`]: mtb_verify::codes::CTRL_LAG
    /// [`MTB-CTRL-REMAP-PINNED`]: mtb_verify::codes::CTRL_REMAP_PINNED
    pub fn lint(&self, horizon_epochs: Option<usize>) -> mtb_verify::Report {
        use mtb_verify::{codes, Diagnostic, Severity};
        let mut report = self.balance.lint();
        if self.window == 0 {
            report.push(Diagnostic::new(
                codes::CTRL_LAG,
                Severity::Error,
                "window 0 aggregates forever and never decides".to_string(),
            ));
        } else if let Some(h) = horizon_epochs {
            // Worst case to converge: settle, then one audited
            // single-step walk up the ladder (max_diff + 1 decision
            // windows), then one revert's cool-off detour.
            let needed = self.settle
                + self.window * (self.balance.max_diff as usize + 1)
                + self.balance.cooloff;
            if needed > h {
                report.push(Diagnostic::new(
                    codes::CTRL_LAG,
                    Severity::Warning,
                    format!(
                        "decision window {} cannot converge within the app's {} sync \
                         epochs (worst case needs {}: settle {} + {} single-step \
                         windows + cooloff {})",
                        self.window,
                        h,
                        needed,
                        self.settle,
                        self.balance.max_diff + 1,
                        self.balance.cooloff
                    ),
                ));
            }
        }
        if self.pinned && self.max_remaps > 0 {
            report.push(Diagnostic::new(
                codes::CTRL_REMAP_PINNED,
                Severity::Warning,
                format!(
                    "placement is pinned but max_remaps is {}: level 1 would request \
                     migrations the deployment forbids, leaving saturated pairs stuck \
                     at the priority cap",
                    self.max_remaps
                ),
            ));
        }
        report
    }
}

/// The v2 online controller: progress-equalizing priority tuning within
/// cores (level 2, a [`DynamicBalancer`] fed progress deficits from a
/// [`ProgressModel`]), cross-core remapping when that saturates (level 1,
/// via [`crate::remap::realize_placement`]).
///
/// Determinism contract: every decision is a pure function of the epoch
/// windows, the machine state at the barrier, and the static expectation
/// table — nothing samples wall-clock time or thread scheduling, so runs
/// are bit-identical at any `MTB_JOBS`, stepping mode, fidelity, and
/// across checkpoint/resume (epoch boundaries are forced merge points).
#[derive(Debug)]
pub struct TwoLevelController {
    cfg: ControllerConfig,
    balancer: DynamicBalancer,
    model: Option<ProgressModel>,
    /// Aggregated (compute, sync) sums per rank for the open window.
    acc: Vec<(Cycles, Cycles)>,
    epochs_seen: usize,
    /// Consecutive saturated decision windows with lopsided cores.
    streak: usize,
    remaps: usize,
    /// Has the plan-primed start been applied (or skipped for lack of a
    /// model)?
    primed: bool,
}

impl TwoLevelController {
    /// Build a controller for ranks placed as `placement`.
    pub fn new(placement: &[mtb_oskernel::CtxAddr], cfg: ControllerConfig) -> TwoLevelController {
        TwoLevelController {
            cfg,
            balancer: DynamicBalancer::new(placement, cfg.balance),
            model: None,
            acc: vec![(0, 0); placement.len()],
            epochs_seen: 0,
            streak: 0,
            remaps: 0,
            primed: false,
        }
    }

    /// With default tunables.
    pub fn with_defaults(placement: &[mtb_oskernel::CtxAddr]) -> TwoLevelController {
        TwoLevelController::new(placement, ControllerConfig::default())
    }

    /// Derive both the progress model and the per-rank workload profiles
    /// from the programs via the static analyzer, so level 2 tunes pairs
    /// through the same Table II/III decode-share model the engine uses.
    /// Falls back to observation-only control when the ranks' sync
    /// structures admit no common epoch grid.
    pub fn for_programs(
        programs: &[mtb_mpisim::Program],
        placement: &[mtb_oskernel::CtxAddr],
        cfg: ControllerConfig,
    ) -> TwoLevelController {
        let mut ctl = TwoLevelController::new(placement, cfg);
        ctl.model = ProgressModel::from_programs(programs);
        let profiles: Vec<WorkloadProfile> = mtb_verify::infer_profiles(programs)
            .into_iter()
            .map(|p| p.profile)
            .collect();
        if profiles.len() == placement.len() {
            ctl.balancer.set_profiles(profiles);
        }
        ctl
    }

    /// Priority changes made so far (level 2).
    pub fn adjustments(&self) -> usize {
        self.balancer.adjustments()
    }

    /// Audited reverts performed so far (level 2).
    pub fn reverts(&self) -> usize {
        self.balancer.reverts()
    }

    /// Cross-core remaps performed so far (level 1).
    pub fn remaps(&self) -> usize {
        self.remaps
    }

    /// Currently applied per-rank priorities.
    pub fn current_priorities(&self) -> &[u8] {
        self.balancer.current_priorities()
    }

    /// The plan-primed start: before reacting to anything, realize the
    /// static plan's pairing and priorities so the first epochs already
    /// run close to the best static setting. Both levels fire from the
    /// plan's total-work expectation — level 1 pairs heavy with light
    /// (subject to `pinned` and the remap budget), level 2 jumps each
    /// pair to the decode-share model's target. Apps whose ranks meet a
    /// global barrier only at the end (BT-MZ's neighbour exchanges) get
    /// exactly one usable decision point, and this makes it count; apps
    /// with per-iteration barriers then refine online from here.
    fn prime_from_plan(&mut self, epoch: usize, machine: &mut Machine) {
        let Some(model) = &self.model else { return };
        let work = model.totals();
        let n = work.len();
        let cores = machine.num_contexts() / 2;
        if !self.cfg.pinned
            && self.remaps < self.cfg.max_remaps
            && n > 0
            && n % 2 == 0
            && n <= cores * 2
            && (0..n).all(|r| machine.pcb(r).is_some())
        {
            let w: Vec<u64> = work.iter().map(|&x| x.max(0.0) as u64).collect();
            let desired = crate::mapper::pair_by_load(&w, cores);
            let live: Vec<mtb_oskernel::CtxAddr> = (0..n)
                .map(|r| machine.pcb(r).map(|p| p.affinity).unwrap_or(desired[r]))
                .collect();
            let live_max = crate::mapper::max_core_load(&w, &live);
            let desired_max = crate::mapper::max_core_load(&w, &desired);
            // A softer benefit bar than the online remap's: nothing is
            // tuned yet and caches are cold, so any real improvement in
            // the plan's max per-core load is worth taking (0.5% filters
            // ties, where migrating would just shuffle seats).
            if (desired_max as f64) < live_max as f64 * 0.995 {
                let moves = crate::remap::realize_placement(machine, &desired);
                if moves > 0 {
                    self.remaps += 1;
                }
            }
        }
        self.balancer.prime(machine, &work);
        // Install the expectation for the first real window so the first
        // decision's feedforward and audit normalization line up with
        // what the engine will measure next.
        let model = self.model.as_ref().expect("checked above");
        self.balancer
            .set_plan(&model.upcoming(epoch, self.cfg.window.max(1)));
    }

    /// Level 1: when level 2 is saturated and the cores are still
    /// lopsided for `remap_after` consecutive decision windows, migrate
    /// to the heavy-with-light pairing the observed loads imply.
    fn maybe_remap(&mut self, epoch: usize, machine: &mut Machine) {
        if self.cfg.pinned || self.remaps >= self.cfg.max_remaps {
            return;
        }
        if self.epochs_seen < self.cfg.settle {
            return;
        }
        let loads = self.balancer.smoothed();
        let n = loads.len();
        let cores = machine.num_contexts() / 2;
        if n == 0 || n % 2 != 0 || n > cores * 2 {
            return;
        }
        // Per-core load split from the live placement.
        let mut core_load = vec![0.0f64; cores];
        let mut hosted = vec![false; cores];
        for (r, &load) in loads.iter().enumerate() {
            let Some(p) = machine.pcb(r) else { return };
            core_load[p.affinity.core] += load;
            hosted[p.affinity.core] = true;
        }
        let mut max = 0.0f64;
        let mut min = f64::INFINITY;
        for (c, &l) in core_load.iter().enumerate() {
            if hosted[c] {
                max = max.max(l);
                min = min.min(l);
            }
        }
        let lopsided = min > 0.0 && max / min >= self.cfg.remap_ratio;
        if lopsided && self.balancer.saturated(epoch) {
            self.streak += 1;
        } else {
            self.streak = 0;
        }
        if self.streak < self.cfg.remap_after {
            return;
        }
        self.streak = 0;
        let work: Vec<u64> = loads.iter().map(|&s| s as u64).collect();
        let desired = crate::mapper::pair_by_load(&work, cores);
        // Only migrate for a real predicted gain: if the heavy-with-light
        // pairing barely lowers the max per-core load, the remap would
        // just shuffle seats and throw away tuned priorities.
        let live: Vec<mtb_oskernel::CtxAddr> = (0..n)
            .map(|r| machine.pcb(r).map(|p| p.affinity).unwrap_or(desired[r]))
            .collect();
        let live_max = crate::mapper::max_core_load(&work, &live);
        let desired_max = crate::mapper::max_core_load(&work, &desired);
        if (desired_max as f64) >= live_max as f64 * 0.95 {
            return;
        }
        let moves = crate::remap::realize_placement(machine, &desired);
        if moves > 0 {
            self.remaps += 1;
            // The old intra-pair decisions describe pairs that no longer
            // exist: restart level 2 from MEDIUM on the new pairing.
            self.balancer.reset_priorities(machine);
        }
    }
}

impl Observer for TwoLevelController {
    fn on_epoch(&mut self, epoch: usize, windows: &[RankWindow], machine: &mut Machine) {
        for w in windows {
            if w.rank >= self.acc.len() {
                self.acc.resize(w.rank + 1, (0, 0));
            }
            self.acc[w.rank].0 += w.compute;
            self.acc[w.rank].1 += w.sync;
        }
        self.epochs_seen += 1;
        if !self.primed {
            self.primed = true;
            if self.model.is_some() {
                self.prime_from_plan(epoch, machine);
                // Discard the first window's observations: they describe
                // start-up (often an init phase a fraction of an
                // iteration long), and the plan just applied supersedes
                // any reaction to them.
                for slot in &mut self.acc {
                    *slot = (0, 0);
                }
                return;
            }
        }
        if self.epochs_seen % self.cfg.window.max(1) != 0 {
            return;
        }
        let agg: Vec<RankWindow> = self
            .acc
            .iter()
            .enumerate()
            .map(|(rank, &(compute, sync))| RankWindow {
                rank,
                compute,
                sync,
            })
            .collect();
        for slot in &mut self.acc {
            *slot = (0, 0);
        }
        // Progress equalization: weigh observed compute by each rank's
        // deficit against the static plan, so a rank behind schedule is
        // boosted even in a window where it happened to run short.
        if let Some(model) = &self.model {
            let retired: Vec<u64> = (0..agg.len()).map(|r| machine.retired(r)).collect();
            let deficits = model.deficits(epoch, &retired);
            self.balancer.set_weights(&deficits);
            // Feedforward: the plan's expectation for the upcoming
            // decision window drives the pair decisions; the deficits
            // above correct it when reality drifts off-plan.
            self.balancer
                .set_plan(&model.upcoming(epoch, self.cfg.window.max(1)));
        }
        self.balancer.on_epoch(epoch, &agg, machine);
        self.maybe_remap(epoch, machine);
    }
}

/// Accumulate the critical-path slack of a window set: how many cycles the
/// biggest computer exceeds the smallest (a cheap imbalance signal for
/// logging).
pub fn window_spread(windows: &[RankWindow]) -> Cycles {
    let max = windows.iter().map(|w| w.compute).max().unwrap_or(0);
    let min = windows.iter().map(|w| w.compute).min().unwrap_or(0);
    max - min
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::balance::{execute, execute_with, StaticRun};
    use mtb_oskernel::CtxAddr;
    use mtb_workloads::metbench::MetBenchConfig;
    use mtb_workloads::synthetic::SyntheticConfig;

    fn windows(c: &[Cycles]) -> Vec<RankWindow> {
        c.iter()
            .enumerate()
            .map(|(rank, &compute)| RankWindow {
                rank,
                compute,
                sync: 0,
            })
            .collect()
    }

    #[test]
    fn pairs_derive_from_placement() {
        let placement: Vec<CtxAddr> = (0..4).map(CtxAddr::from_cpu).collect();
        let b = DynamicBalancer::with_defaults(&placement);
        assert_eq!(b.pairs, vec![(0, 1), (2, 3)]);
    }

    #[test]
    fn ratio_targets_are_bounded() {
        let b = DynamicBalancer::with_defaults(&[]);
        assert_eq!(b.target_for_ratio(1.0), (4, 4));
        assert_eq!(b.target_for_ratio(1.3), (5, 4));
        assert_eq!(b.target_for_ratio(5.0), (6, 4));
        // Never beyond diff 2.
        let (h, l) = b.target_for_ratio(1e9);
        assert!(h - l <= 2);
    }

    #[test]
    fn single_step_hysteresis() {
        assert_eq!(DynamicBalancer::step_toward(4, 6), 5);
        assert_eq!(DynamicBalancer::step_toward(5, 6), 6);
        assert_eq!(DynamicBalancer::step_toward(6, 4), 5);
        assert_eq!(DynamicBalancer::step_toward(4, 4), 4);
    }

    #[test]
    fn window_spread_measures_max_minus_min() {
        assert_eq!(window_spread(&windows(&[10, 40, 25, 40])), 30);
        assert_eq!(window_spread(&[]), 0);
    }

    #[test]
    fn dynamic_policy_beats_unbalanced_reference_on_metbench() {
        // The headline claim of the future-work section: the automatic
        // policy should recover (most of) the static win without manual
        // tuning.
        let cfg = MetBenchConfig {
            iterations: 30,
            scale: 3e-3,
            ..Default::default()
        };
        let progs = cfg.programs();

        let reference = execute(StaticRun::new(&progs, cfg.placement())).unwrap();

        let mut balancer = DynamicBalancer::with_defaults(&cfg.placement());
        let dynamic = execute_with(StaticRun::new(&progs, cfg.placement()), &mut balancer).unwrap();

        assert!(balancer.adjustments() > 0, "policy must have acted");
        assert!(
            (dynamic.total_cycles as f64) < reference.total_cycles as f64 * 0.97,
            "dynamic balancing must beat the reference: {} vs {}",
            dynamic.total_cycles,
            reference.total_cycles
        );
        assert!(dynamic.metrics.imbalance_pct < reference.metrics.imbalance_pct);
    }

    #[test]
    fn policy_never_exceeds_diff_cap() {
        let placement: Vec<CtxAddr> = (0..4).map(CtxAddr::from_cpu).collect();
        let cfg = MetBenchConfig {
            iterations: 20,
            scale: 1e-3,
            ..Default::default()
        };
        let progs = cfg.programs();
        let mut balancer = DynamicBalancer::with_defaults(&placement);
        let _ = execute_with(StaticRun::new(&progs, placement.clone()), &mut balancer).unwrap();
        let p = balancer.current_priorities();
        assert!(p[0].abs_diff(p[1]) <= 2);
        assert!(p[2].abs_diff(p[3]) <= 2);
    }

    #[test]
    fn audit_reverts_harmful_adjustments() {
        // A balanced application skewed only by OS noise: priorities
        // cannot recover stolen cycles, and penalizing the co-runner makes
        // things worse. The audited policy must end close to where it
        // started and record reverts — and must not blow the runtime up.
        let cfg = SyntheticConfig {
            skew: 1.0,
            base_work: 40_000_000,
            iterations: 10,
            ..Default::default()
        };
        let progs = cfg.programs();
        let noise = mtb_oskernel::noise::interrupt_annoyance(2, 1_500_000, 7_500, 500_000, 50_000);

        let plain =
            execute(StaticRun::new(&progs, cfg.placement()).with_noise(noise.clone())).unwrap();
        let mut balancer = DynamicBalancer::with_defaults(&cfg.placement());
        let dynamic = execute_with(
            StaticRun::new(&progs, cfg.placement()).with_noise(noise),
            &mut balancer,
        )
        .unwrap();
        assert!(
            (dynamic.total_cycles as f64) < plain.total_cycles as f64 * 1.10,
            "audited policy must not make noise-imbalance much worse: {} vs {}",
            dynamic.total_cycles,
            plain.total_cycles
        );
    }

    #[test]
    fn audit_state_freezes_pair_after_revert() {
        // Drive the observer by hand: adjustment at epoch 0, worse window
        // at epoch 1 -> revert + freeze.
        let placement: Vec<CtxAddr> = (0..2).map(CtxAddr::from_cpu).collect();
        let mut b = DynamicBalancer::with_defaults(&placement);
        let mut machine = mtb_oskernel::Machine::new(
            mtb_smtsim::chip::build_cores(1, false),
            mtb_oskernel::KernelConfig::patched(),
        );
        machine.spawn(0, "P1", placement[0]).unwrap();
        machine.spawn(1, "P2", placement[1]).unwrap();

        // Epoch 0: rank 0 looks heavy -> boost it.
        b.on_epoch(0, &windows(&[200, 100]), &mut machine);
        assert_eq!(b.current_priorities(), &[5, 4]);
        // Epoch 1: the pair bottleneck got much worse -> revert.
        b.on_epoch(1, &windows(&[400, 390]), &mut machine);
        assert_eq!(b.current_priorities(), &[4, 4], "revert to previous");
        assert_eq!(b.reverts(), 1);
        // Frozen: further imbalance is ignored during cool-off.
        b.on_epoch(2, &windows(&[300, 100]), &mut machine);
        assert_eq!(b.current_priorities(), &[4, 4]);
    }

    #[test]
    fn opposing_adjustments_respect_cooloff() {
        // A ratio that collapses right after a boost must not produce an
        // immediate de-boost: the opposing step waits out the cool-off.
        let placement: Vec<CtxAddr> = (0..2).map(CtxAddr::from_cpu).collect();
        let mut b = DynamicBalancer::with_defaults(&placement);
        let mut machine = mtb_oskernel::Machine::new(
            mtb_smtsim::chip::build_cores(1, false),
            mtb_oskernel::KernelConfig::patched(),
        );
        machine.spawn(0, "P1", placement[0]).unwrap();
        machine.spawn(1, "P2", placement[1]).unwrap();

        b.on_epoch(0, &windows(&[200, 100]), &mut machine);
        assert_eq!(b.current_priorities(), &[5, 4]);
        // Balanced from here on: the (4, 4) target is an opposing step.
        for epoch in 1..8 {
            b.on_epoch(epoch, &windows(&[100, 100]), &mut machine);
            assert_eq!(
                b.current_priorities(),
                &[5, 4],
                "opposing step blocked during cool-off (epoch {epoch})"
            );
        }
        b.on_epoch(8, &windows(&[100, 100]), &mut machine);
        assert_eq!(
            b.current_priorities(),
            &[4, 4],
            "after the cool-off the de-boost is allowed"
        );
        assert_eq!(b.reverts(), 0, "hysteresis block is not an audit revert");
    }

    #[test]
    fn two_level_controller_remaps_then_tunes() {
        // Both heavy ranks start on one core: priorities alone cannot fix
        // a core-level imbalance, so level 1 must separate them and level
        // 2 must then recover the static priority win.
        let progs = MetBenchConfig {
            iterations: 30,
            scale: 3e-3,
            heavy_ranks: vec![2, 3],
            ..Default::default()
        }
        .programs();
        let placement: Vec<CtxAddr> = (0..4).map(CtxAddr::from_cpu).collect();

        let reference = execute(StaticRun::new(&progs, placement.clone())).unwrap();
        let mut ctl = TwoLevelController::with_defaults(&placement);
        let dynamic = execute_with(StaticRun::new(&progs, placement), &mut ctl).unwrap();

        assert_eq!(ctl.remaps(), 1, "one corrective remap");
        assert!(ctl.adjustments() > 0, "level 2 retunes the new pairs");
        assert!(
            (dynamic.total_cycles as f64) < reference.total_cycles as f64 * 0.92,
            "two-level control must beat the reference clearly: {} vs {}",
            dynamic.total_cycles,
            reference.total_cycles
        );
    }

    #[test]
    fn pinned_controller_never_remaps() {
        let progs = MetBenchConfig {
            iterations: 20,
            scale: 1e-3,
            heavy_ranks: vec![2, 3],
            ..Default::default()
        }
        .programs();
        let placement: Vec<CtxAddr> = (0..4).map(CtxAddr::from_cpu).collect();
        let cfg = ControllerConfig {
            pinned: true,
            ..Default::default()
        };
        let mut ctl = TwoLevelController::new(&placement, cfg);
        let _ = execute_with(StaticRun::new(&progs, placement), &mut ctl).unwrap();
        assert_eq!(ctl.remaps(), 0, "pinned placements are never migrated");
    }

    #[test]
    fn model_driven_controller_stays_within_the_priority_envelope() {
        let cfg = MetBenchConfig {
            iterations: 20,
            scale: 1e-3,
            ..Default::default()
        };
        let progs = cfg.programs();
        let mut ctl =
            TwoLevelController::for_programs(&progs, &cfg.placement(), ControllerConfig::default());
        let _ = execute_with(StaticRun::new(&progs, cfg.placement()), &mut ctl).unwrap();
        assert!(ctl.adjustments() > 0, "the model-guided policy must act");
        let p = ctl.current_priorities();
        assert!(p[0].abs_diff(p[1]) <= 2, "{p:?}");
        assert!(p[2].abs_diff(p[3]) <= 2, "{p:?}");
        assert!(p.iter().all(|&v| (1..=6).contains(&v)), "{p:?}");
    }

    #[test]
    fn controller_lint_flags_lag_and_pinned_remap() {
        use mtb_verify::{codes, Severity};
        let cfg = ControllerConfig::default();
        assert!(cfg.lint(Some(100)).diagnostics.is_empty());

        // A 10-epoch window cannot converge inside a 12-epoch app.
        let laggy = ControllerConfig {
            window: 10,
            ..Default::default()
        };
        let r = laggy.lint(Some(12));
        assert!(r.has_code(codes::CTRL_LAG), "{r}");
        assert!(
            laggy.lint(None).diagnostics.is_empty(),
            "no horizon, no lag"
        );

        let zero = ControllerConfig {
            window: 0,
            ..Default::default()
        };
        let r = zero.lint(None);
        assert!(r.has_code(codes::CTRL_LAG), "{r}");
        assert_eq!(r.count(Severity::Error), 1, "{r}");

        let pinned = ControllerConfig {
            pinned: true,
            ..Default::default()
        };
        let r = pinned.lint(Some(100));
        assert!(r.has_code(codes::CTRL_REMAP_PINNED), "{r}");
        let pinned_ok = ControllerConfig {
            pinned: true,
            max_remaps: 0,
            ..Default::default()
        };
        assert!(
            pinned_ok.lint(Some(100)).diagnostics.is_empty(),
            "pinned with level 1 disabled is consistent"
        );
    }

    #[test]
    fn config_lint_flags_unsafe_tunables() {
        use mtb_verify::{codes, Severity};
        assert!(DynamicConfig::default().lint().diagnostics.is_empty());
        let bad = DynamicConfig {
            max_diff: 5,
            threshold: 0.8,
            strong_threshold: 0.5,
            relax_threshold: 0.9,
            ewma: 1.5,
            revert_tolerance: -0.1,
            cooloff: 0,
        };
        let r = bad.lint();
        assert_eq!(r.count(Severity::Error), 1, "{r}");
        assert_eq!(r.count(Severity::Warning), 6, "{r}");
        for code in [
            codes::CTRL_DIFF,
            codes::CTRL_EWMA,
            codes::CTRL_THRASH,
            codes::CTRL_REVERT,
        ] {
            assert!(r.has_code(code), "missing {code}: {r}");
        }
        assert!(!r.has_code(codes::PRIO_DIFF), "{r}");
    }
}
