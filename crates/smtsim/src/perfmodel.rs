//! The mesoscale core model.
//!
//! Cycle-level simulation of a whole MPI application (hundreds of simulated
//! seconds, billions of cycles) is infeasible, so the system-level engine
//! uses this closed-form throughput model instead. It is built on the same
//! decode-share mathematics as the cycle model ([`crate::decode`]) and is
//! calibrated against it (see the `model_fidelity` bench and the
//! integration tests).
//!
//! ## The throughput equations
//!
//! For contexts `i, j` with priorities `p_i, p_j`, decode width `W` and
//! decode shares `s_i, s_j` from [`crate::decode::decode_share`]:
//!
//! * Each context has a **capacity**: the IPC it could sustain with
//!   unlimited decode bandwidth. Running alone it is the workload's ST IPC;
//!   with a live co-runner it shrinks by the co-runner's execution-unit and
//!   cache pressure:
//!   `cap_i = ipc_i * (1 - alpha * u_j - beta * m_j)`.
//! * The **front-end supply** of a context is its share of decode slots
//!   plus whatever it can pick up from slots the other context owns but
//!   cannot use: `supply_i = W*s_i + kappa_i * max(0, W*s_j - base_j)`
//!   where `base_j = min(cap_j, W*s_j)` is the co-runner's own consumption.
//! * Throughput is `min(cap_i, supply_i)`.
//!
//! `kappa` is 1 in leftover mode (Table III: a priority-1 thread "takes
//! what is left over") and a small configured constant (default 0.1) in
//! normal mode — hard Table-II slices with a slight second-order uplift,
//! which is what the paper's measured MetBench Case C/D exec times imply
//! (see DESIGN.md §5).

use std::cell::Cell;

use crate::decode::{decode_share, decode_share_linear};
use crate::model::{CoreModel, ThreadId, Workload, WorkloadProfile};
use crate::priority::HwPriority;
use crate::state::{CoreState, MesoCoreState, MesoCtxState};
use crate::Cycles;

/// Which priority-to-decode-share law the model applies (EXT-5 ablation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShareLaw {
    /// The POWER5's exponential Table-II slices (`R = 2^(|X-Y|+1)`).
    #[default]
    Power5,
    /// A hypothetical linear law (`0.5 + diff/10`, capped at 0.9):
    /// gentler control, no case-D cliff, but far less reach.
    Linear,
}

impl ShareLaw {
    /// The (share_a, share_b) split under this law.
    pub fn shares(self, a: HwPriority, b: HwPriority) -> (f64, f64) {
        match self {
            ShareLaw::Power5 => decode_share(a, b),
            ShareLaw::Linear => decode_share_linear(a, b),
        }
    }
}

/// Tunable constants of the mesoscale model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MesoConfig {
    /// Instructions decodable per owned cycle (matches the cycle core).
    pub decode_width: f64,
    /// Fraction of the co-runner's unused decode share usable in normal
    /// mode (0 = hard slices; 1 = perfect stealing).
    pub steal_efficiency: f64,
    /// Capacity loss per unit of co-runner execution-unit pressure.
    pub unit_contention: f64,
    /// Capacity loss per unit of co-runner memory intensity.
    pub mem_contention: f64,
    /// The priority-to-share law (EXT-5 ablation; POWER5 by default).
    pub share_law: ShareLaw,
}

impl Default for MesoConfig {
    fn default() -> Self {
        MesoConfig {
            decode_width: 5.0,
            steal_efficiency: 0.1,
            unit_contention: 0.35,
            mem_contention: 0.30,
            share_law: ShareLaw::Power5,
        }
    }
}

impl MesoConfig {
    /// Steady-state throughputs (instructions/cycle) of two contexts at
    /// priorities `prio` running the workloads profiled in `work` (`None`
    /// = no workload). A context is live while it holds a workload and its
    /// priority is not OFF. This is the one statement of the throughput
    /// equations: [`MesoCore`] executes it and [`crate::pairmodel`]
    /// predicts with it.
    pub fn rates(&self, prio: [HwPriority; 2], work: [Option<&WorkloadProfile>; 2]) -> [f64; 2] {
        let w = self.decode_width;
        let (sa, sb) = self.share_law.shares(prio[0], prio[1]);
        let shares = [sa, sb];

        let live = [0, 1].map(|i| work[i].filter(|_| !prio[i].is_off()));
        let mut caps = [0.0f64; 2];
        for i in 0..2 {
            let Some(prof) = live[i] else {
                continue;
            };
            let j = 1 - i;
            caps[i] = if let Some(other) = live[j] {
                // The POWER5 priority mechanism gates *resources*, not just
                // decode: a context holding a small decode share occupies
                // proportionally fewer issue-queue entries and cache MSHRs,
                // so the pressure it exerts on its sibling scales with its
                // share (1.0 at the equal-priority 50/50 split).
                let pollution = (2.0 * shares[j]).min(1.0);
                prof.ipc_st
                    * (1.0
                        - pollution
                            * (self.unit_contention * other.unit_pressure
                                + self.mem_contention * other.mem_intensity))
                        .max(0.05)
            } else {
                prof.ipc_st
            };
        }

        // Base consumption under hard shares.
        let base = [caps[0].min(w * shares[0]), caps[1].min(w * shares[1])];

        let mut rates = [0.0f64; 2];
        for i in 0..2 {
            if live[i].is_none() {
                continue;
            }
            let j = 1 - i;
            // Slots the co-runner owns but does not consume.
            let unused_j = if live[j].is_some() {
                (w * shares[j] - base[j]).max(0.0)
            } else {
                // A workless context consumes nothing; its whole share is
                // up for grabs (it still *owns* the slots unless its
                // priority is 0, in which case decode_share gave it 0).
                w * shares[j]
            };
            let kappa = self.kappa(prio[i], prio[j]);
            rates[i] = caps[i].min(w * shares[i] + kappa * unused_j);
        }
        rates
    }

    /// Steal coefficient for a context at priority `pi` picking up the
    /// unused slots of a co-runner at `pj`.
    fn kappa(&self, pi: HwPriority, pj: HwPriority) -> f64 {
        let (pi, pj) = (pi.value(), pj.value());
        if pi == 1 && pj > 1 {
            // Table III: "takes what is left over" — full leftover use.
            1.0
        } else if pi >= 1 && pj == 0 {
            // ST mode: decode_share already grants everything; no stealing
            // needed (and nothing to steal).
            0.0
        } else if pi <= 1 || pj <= 1 {
            // Power-save and other degenerate modes: strict.
            0.0
        } else {
            self.steal_efficiency
        }
    }
}

/// Slack added before `floor` when converting fractional progress to whole
/// instructions, so products like `0.3 * 700.0` that land an ulp below an
/// integer still count it. Small enough to never span a real instruction.
const FLOOR_EPS: f64 = 1e-9;

/// 2^63: below it an `f64` truncates to `i64` without saturating.
const TWO_POW_63: f64 = 9_223_372_036_854_775_808.0;

/// `x.floor()`, bit for bit, by integer truncation where that is exact:
/// on `0 < x < 2^63` truncation is the floor, and the result, being the
/// floor of an `f64`, converts back without rounding. Zero (keeping its
/// sign), negatives, NaN, infinities and larger values take `f64::floor`.
/// The baseline x86-64 target has no floor instruction, so this saves a
/// libm call per context on every `MesoCore` re-anchor.
#[inline]
fn floor_f64(x: f64) -> f64 {
    if x > 0.0 && x < TWO_POW_63 {
        (x as i64) as f64
    } else {
        x.floor()
    }
}

/// `x.ceil()`, bit for bit, the same way as [`floor_f64`]: truncation,
/// plus one when it dropped a fraction (only possible below 2^52, where
/// the sum is exact).
#[inline]
fn ceil_f64(x: f64) -> f64 {
    if x > 0.0 && x < TWO_POW_63 {
        let t = x as i64;
        (if (t as f64) < x { t + 1 } else { t }) as f64
    } else {
        x.ceil()
    }
}

#[derive(Debug, Clone)]
struct MesoCtx {
    priority: HwPriority,
    workload: Option<Workload>,
    /// Fractional instructions at the last re-anchor, in `[0, 1)`.
    carry: f64,
    /// Cycle of the last re-anchor (any configuration change).
    anchor_cycle: Cycles,
    /// Retired count at the last re-anchor.
    anchor_retired: u64,
    retired: u64,
}

impl MesoCtx {
    fn new() -> MesoCtx {
        MesoCtx {
            priority: HwPriority::MEDIUM,
            workload: None,
            carry: 0.0,
            anchor_cycle: 0,
            anchor_retired: 0,
            retired: 0,
        }
    }

    fn live(&self) -> bool {
        self.workload.is_some() && !self.priority.is_off()
    }

    fn profile(&self) -> Option<&WorkloadProfile> {
        self.workload.as_ref().map(|w| &w.profile)
    }

    /// Fractional progress since the anchor at absolute cycle `cycle`,
    /// including the rounding slack. Evaluated as one expression of the
    /// absolute elapsed time so that advancing in any segmentation — one
    /// big event-horizon jump or many quantum steps — lands on the same
    /// value at every intermediate cycle.
    fn progress_at(&self, rate: f64, cycle: Cycles) -> f64 {
        self.carry + rate * (cycle - self.anchor_cycle) as f64 + FLOOR_EPS
    }
}

/// A completion time [`CoreModel::cycles_to_retire`] already answered: the
/// whole-progress target (relative to the anchor) it was asked for and
/// the absolute cycle at which the context first reaches it.
#[derive(Debug, Clone, Copy)]
struct Promise {
    target: u64,
    at: Cycles,
}

/// The fast analytic 2-way SMT core.
///
/// ```
/// use mtb_smtsim::model::{CoreModel, ThreadId, Workload, WorkloadProfile};
/// use mtb_smtsim::{HwPriority, MesoCore, StreamSpec};
///
/// let mut core = MesoCore::default();
/// let w = Workload::with_profile("w", StreamSpec::balanced(0),
///                                WorkloadProfile::new(3.0, 0.1, 0.0));
/// core.assign(ThreadId::A, w.clone());
/// core.assign(ThreadId::B, w);
/// // Boost A: its throughput rises, B's falls.
/// core.set_priority(ThreadId::A, HwPriority::HIGH);
/// core.set_priority(ThreadId::B, HwPriority::MEDIUM);
/// let [ra, rb] = core.throughputs();
/// assert!(ra > rb);
/// ```
#[derive(Debug, Clone)]
pub struct MesoCore {
    cfg: MesoConfig,
    ctx: [MesoCtx; 2],
    cycle: Cycles,
    /// Per-context rates under the current configuration, filled by the
    /// first call that needs them ([`MesoCore::rates`]) and emptied by
    /// every configuration change. Exact: the rates are a pure function of
    /// the configuration.
    rates: Cell<Option<[f64; 2]>>,
    /// Per-context completion memo of [`CoreModel::cycles_to_retire`],
    /// emptied by every configuration change and by `restore_state`.
    /// Exact: under a fixed anchor `progress_at` never decreases in
    /// absolute time, so the first cycle after `now` that reaches a target
    /// stays the same while `now` is before it.
    promised: [Cell<Option<Promise>>; 2],
}

impl MesoCore {
    /// Create a core with the given constants.
    pub fn new(cfg: MesoConfig) -> MesoCore {
        MesoCore {
            cfg,
            ctx: [MesoCtx::new(), MesoCtx::new()],
            cycle: 0,
            rates: Cell::new(None),
            promised: Default::default(),
        }
    }

    /// Current simulated cycle.
    pub fn now(&self) -> Cycles {
        self.cycle
    }

    /// Total instructions retired by a context since construction.
    pub fn retired(&self, t: ThreadId) -> u64 {
        self.ctx[t.index()].retired
    }

    /// The model constants in use.
    pub fn config(&self) -> &MesoConfig {
        &self.cfg
    }

    /// Steady-state throughputs (instructions/cycle) of both contexts under
    /// the current priorities and workloads: [`MesoConfig::rates`] of the
    /// current configuration.
    pub fn throughputs(&self) -> [f64; 2] {
        let [a, b] = &self.ctx;
        self.cfg
            .rates([a.priority, b.priority], [a.profile(), b.profile()])
    }

    /// [`MesoCore::throughputs`] under the current configuration, through
    /// the rate cache.
    fn rates(&self) -> [f64; 2] {
        self.rates.get().unwrap_or_else(|| {
            let r = self.throughputs();
            self.rates.set(Some(r));
            r
        })
    }

    /// Drop both caches after a configuration change.
    fn invalidate(&mut self) {
        self.rates.set(None);
        self.promised = Default::default();
    }

    /// Materialize both contexts' progress under the rates in force since
    /// the last anchor, then re-anchor at the current cycle. Must run
    /// *before* any configuration change; between changes the anchored
    /// expression is a pure function of absolute time, which is what makes
    /// `advance` segmentation-invariant.
    fn reanchor(&mut self) {
        // With no cycle elapsed since the anchor, `progress_at` adds
        // `rate * 0.0 == 0.0` for any finite, non-negative rate, so the
        // rates of the outgoing configuration are not needed.
        let rates = if self.ctx.iter().all(|c| c.anchor_cycle == self.cycle) {
            [0.0; 2]
        } else {
            self.rates()
        };
        for (i, c) in self.ctx.iter_mut().enumerate() {
            let rate = if c.live() { rates[i] } else { 0.0 };
            let prog = c.progress_at(rate, self.cycle);
            let whole = floor_f64(prog);
            c.anchor_retired += whole as u64;
            c.carry = (prog - whole - FLOOR_EPS).clamp(0.0, 1.0);
            c.anchor_cycle = self.cycle;
            c.retired = c.anchor_retired;
        }
    }
}

impl Default for MesoCore {
    fn default() -> Self {
        MesoCore::new(MesoConfig::default())
    }
}

impl CoreModel for MesoCore {
    fn set_priority(&mut self, t: ThreadId, p: HwPriority) {
        self.reanchor();
        self.ctx[t.index()].priority = p;
        self.invalidate();
    }

    fn priority(&self, t: ThreadId) -> HwPriority {
        self.ctx[t.index()].priority
    }

    fn assign(&mut self, t: ThreadId, w: Workload) {
        self.reanchor();
        let c = &mut self.ctx[t.index()];
        c.workload = Some(w);
        c.carry = 0.0;
        self.invalidate();
    }

    fn clear(&mut self, t: ThreadId) {
        self.reanchor();
        let c = &mut self.ctx[t.index()];
        c.workload = None;
        c.carry = 0.0;
        self.invalidate();
    }

    fn has_work(&self, t: ThreadId) -> bool {
        self.ctx[t.index()].workload.is_some()
    }

    fn advance(&mut self, cycles: Cycles) -> [u64; 2] {
        let rates = self.rates();
        self.cycle += cycles;
        let mut out = [0u64; 2];
        for (i, c) in self.ctx.iter_mut().enumerate() {
            if !c.live() {
                continue;
            }
            // `x as u64` truncates and saturates: it equals
            // `x.floor() as u64` for every f64 (NaN and negatives give 0
            // either way), without the libm call.
            let total = c.anchor_retired + c.progress_at(rates[i], self.cycle) as u64;
            out[i] = total - c.retired;
            c.retired = total;
        }
        out
    }

    fn retire_rate(&self, t: ThreadId) -> f64 {
        self.rates()[t.index()]
    }

    fn save_state(&self) -> CoreState {
        CoreState::Meso(Box::new(MesoCoreState {
            cycle: self.cycle,
            ctx: [0, 1].map(|i| {
                let c = &self.ctx[i];
                MesoCtxState {
                    priority: c.priority.value(),
                    workload: c.workload.clone(),
                    carry: c.carry,
                    anchor_cycle: c.anchor_cycle,
                    anchor_retired: c.anchor_retired,
                    retired: c.retired,
                }
            }),
        }))
    }

    fn restore_state(&mut self, s: &CoreState) -> Result<(), String> {
        let CoreState::Meso(s) = s else {
            return Err(format!(
                "mesoscale core cannot restore a {} snapshot",
                s.kind()
            ));
        };
        self.cycle = s.cycle;
        for (c, cs) in self.ctx.iter_mut().zip(&s.ctx) {
            c.priority = HwPriority::new(cs.priority)
                .ok_or_else(|| format!("invalid hardware priority {}", cs.priority))?;
            c.workload = cs.workload.clone();
            c.carry = cs.carry;
            c.anchor_cycle = cs.anchor_cycle;
            c.anchor_retired = cs.anchor_retired;
            c.retired = cs.retired;
        }
        // Rates are a pure function of the restored contexts; recompute
        // lazily exactly as after any configuration change.
        self.invalidate();
        Ok(())
    }

    fn cycles_to_retire(&self, t: ThreadId, n: u64) -> Option<Cycles> {
        let i = t.index();
        let c = &self.ctx[i];
        if !c.live() {
            return None;
        }
        // Whole-progress threshold at which `n` more instructions than the
        // current count have retired.
        let target = c.retired - c.anchor_retired + n;
        if let Some(p) = self.promised[i].get() {
            if p.target == target && self.cycle < p.at {
                return Some(p.at - self.cycle);
            }
        }
        let rate = self.rates()[i];
        if rate <= 0.0 {
            return None;
        }
        let target_f = target as f64;
        let elapsed = self.cycle - c.anchor_cycle;
        let est = ceil_f64((target_f - c.carry) / rate) - elapsed as f64;
        if !est.is_finite() || est >= 9e18 {
            return Some(9_000_000_000_000_000_000);
        }
        // Pin the estimate to the exact threshold of the expression
        // `advance` evaluates, so the promised event time is identical no
        // matter how the preceding cycles were segmented.
        let mut dt = (est.max(1.0)) as Cycles;
        while c.progress_at(rate, self.cycle + dt) < target_f {
            dt += 1;
        }
        while dt > 1 && c.progress_at(rate, self.cycle + dt - 1) >= target_f {
            dt -= 1;
        }
        self.promised[i].set(Some(Promise {
            target,
            at: self.cycle + dt,
        }));
        Some(dt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::StreamSpec;
    use proptest::prelude::*;

    fn p(v: u8) -> HwPriority {
        HwPriority::new(v).unwrap()
    }

    /// A MetBench-like high-ILP compute workload (see DESIGN.md §5):
    /// natural ST IPC ≈ 2.5, modest unit pressure, cache resident.
    fn metload(ipc: f64) -> Workload {
        Workload::with_profile(
            "metload",
            StreamSpec::balanced(1),
            WorkloadProfile::new(ipc, 0.2, 0.02),
        )
    }

    fn pair(ipc_a: f64, ipc_b: f64, pa: u8, pb: u8) -> MesoCore {
        let mut core = MesoCore::default();
        core.assign(ThreadId::A, metload(ipc_a));
        core.assign(ThreadId::B, metload(ipc_b));
        core.set_priority(ThreadId::A, p(pa));
        core.set_priority(ThreadId::B, p(pb));
        core
    }

    /// The integer floor and ceil are `f64::floor`/`f64::ceil` bit for
    /// bit, and the truncating cast is `floor() as u64`, on the edge
    /// values and on random bit patterns.
    #[test]
    fn integer_floor_matches_libm_bit_for_bit() {
        let two = |e: i32| 2f64.powi(e);
        let mut xs = vec![
            0.0,
            -0.0,
            f64::MIN_POSITIVE,
            f64::from_bits(1),
            -f64::from_bits(1),
            f64::MIN_POSITIVE / 2.0,
            0.5,
            1.0 - f64::EPSILON / 2.0,
            1.0,
            1.5,
            -0.5,
            -1.0,
            -1.5,
            two(52) - 1.0,
            two(52) - 0.5,
            two(52),
            two(52) + 1.0,
            two(53),
            two(53) + 2.0,
            two(63) - 1024.0,
            two(63),
            two(64) - 2048.0,
            two(64),
            two(65),
            f64::MAX,
            f64::MIN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
        ];
        let mut rng = crate::rng::SplitMix64::new(0x5eed);
        for _ in 0..100_000 {
            let bits = rng.next_u64();
            xs.push(f64::from_bits(bits));
            // Also the range the model lives in: positive, below 2^64.
            xs.push(f64::from_bits(bits >> 2));
            xs.push((bits >> 11) as f64 / 1024.0);
        }
        for x in xs {
            assert_eq!(floor_f64(x).to_bits(), x.floor().to_bits(), "floor({x:e})");
            assert_eq!(ceil_f64(x).to_bits(), x.ceil().to_bits(), "ceil({x:e})");
            assert_eq!(x as u64, x.floor() as u64, "floor({x:e}) as u64");
        }
    }

    #[test]
    fn st_mode_runs_at_full_ipc() {
        let mut core = MesoCore::default();
        core.assign(ThreadId::A, metload(2.5));
        core.set_priority(ThreadId::A, p(7));
        core.set_priority(ThreadId::B, p(0));
        let [a, b] = core.advance(10_000);
        assert_eq!(b, 0);
        assert!((a as f64 - 25_000.0).abs() < 10.0, "ST IPC 2.5: got {a}");
    }

    #[test]
    fn equal_priority_supply_limits_high_ilp_threads() {
        // Two IPC-2.5 threads at 4/4: each limited by W*0.5 = 2.5 supply
        // (minus a sliver of contention) — the SMT-mode slowdown the
        // paper's ST rows quantify.
        let core = pair(3.5, 3.5, 4, 4);
        let [ra, rb] = core.throughputs();
        assert!((ra - rb).abs() < 1e-9, "symmetric pair");
        assert!(ra <= 2.5 + 1e-9, "supply-limited: {ra}");
        assert!(ra > 2.0, "but near the supply bound: {ra}");
    }

    /// The Table IV reproduction targets from DESIGN.md §5: priorities
    /// (4,4) -> light 2.5; (5,6) -> light ~1.36; (4,6) -> light ~0.80;
    /// (3,6) -> light ~0.52 for a light thread of IPC 2.5 paired with a
    /// heavy thread of IPC 2.65.
    #[test]
    fn metbench_case_rates_match_calibration() {
        let at = |pl: u8, ph: u8| -> (f64, f64) {
            let core = pair(2.5, 2.65, pl, ph);
            let r = core.throughputs();
            (r[0], r[1])
        };
        let (l_a, h_a) = at(4, 4);
        assert!(l_a > 2.2 && l_a <= 2.5, "case A light {l_a}");
        assert!(h_a > 2.2 && h_a <= 2.5, "case A heavy {h_a}");

        let (l_b, h_b) = at(5, 6);
        assert!((1.1..1.7).contains(&l_b), "case B light {l_b}");
        assert!(h_b > 2.4, "case B heavy {h_b}");

        let (l_c, h_c) = at(4, 6);
        assert!((0.6..1.0).contains(&l_c), "case C light {l_c}");
        assert!(h_c > 2.4, "case C heavy {h_c}");

        let (l_d, h_d) = at(3, 6);
        assert!((0.4..0.65).contains(&l_d), "case D light {l_d}");
        assert!(h_d > 2.4, "case D heavy {h_d}");

        // Monotone collapse of the light thread.
        assert!(l_a > l_b && l_b > l_c && l_c > l_d);
    }

    #[test]
    fn leftover_mode_gives_loser_the_slack() {
        // Heavy thread is dependency-bound (IPC 0.5): it leaves most of the
        // decode bandwidth unused. A priority-1 partner takes the leftovers
        // (Table III), so it runs much faster than its nominal zero share.
        let mut core = MesoCore::default();
        core.assign(ThreadId::A, metload(2.5));
        core.assign(
            ThreadId::B,
            Workload::with_profile(
                "slowpoke",
                StreamSpec::fpu_bound(1),
                WorkloadProfile::new(0.5, 0.1, 0.0),
            ),
        );
        core.set_priority(ThreadId::A, p(1));
        core.set_priority(ThreadId::B, p(4));
        let [ra, rb] = core.throughputs();
        assert!((rb - 0.5).abs() < 0.1, "owner at natural rate: {rb}");
        assert!(ra > 2.0, "priority-1 thread lives on leftovers: {ra}");
    }

    #[test]
    fn power_save_mode_is_strict() {
        let core = pair(3.0, 3.0, 1, 1);
        let [ra, rb] = core.throughputs();
        // 1/64 of 5-wide decode each.
        assert!((ra - 5.0 / 64.0).abs() < 1e-9, "{ra}");
        assert_eq!(ra, rb);
    }

    #[test]
    fn workless_partner_share_is_partially_stolen() {
        let mut core = MesoCore::default();
        core.assign(ThreadId::A, metload(4.0));
        // B has no workload but sits at MEDIUM: its slots are mostly
        // wasted (kappa = 0.1).
        let [ra, _] = core.throughputs();
        assert!(ra < 3.0, "hard slices waste the idle share: {ra}");
        // Dropping B to VERY LOW donates everything.
        core.set_priority(ThreadId::B, p(1));
        let ra2 = core.throughputs()[0];
        assert!(ra2 > 3.9, "leftover mode recovers the bandwidth: {ra2}");
    }

    #[test]
    fn advance_accumulates_fractional_progress() {
        let mut core = MesoCore::default();
        core.assign(ThreadId::A, metload(0.3));
        core.set_priority(ThreadId::B, p(0));
        core.set_priority(ThreadId::A, p(7));
        let mut total = 0;
        for _ in 0..100 {
            total += core.advance(7)[0];
        }
        // 700 cycles * 0.3 IPC = 210 instructions exactly (no drift).
        assert_eq!(total, 210);
        assert_eq!(core.retired(ThreadId::A), 210);
    }

    #[test]
    fn cycles_to_retire_is_exact() {
        let mut core = MesoCore::default();
        core.assign(ThreadId::A, metload(2.5));
        core.set_priority(ThreadId::A, p(7));
        core.set_priority(ThreadId::B, p(0));
        let n = 1000;
        let dt = core.cycles_to_retire(ThreadId::A, n).unwrap();
        let [got, _] = core.advance(dt);
        assert!(got >= n, "promised {n} within {dt} cycles, got {got}");
        // And one cycle earlier would not have been enough.
        let mut core2 = MesoCore::default();
        core2.assign(ThreadId::A, metload(2.5));
        core2.set_priority(ThreadId::A, p(7));
        core2.set_priority(ThreadId::B, p(0));
        let [almost, _] = core2.advance(dt - 1);
        assert!(almost < n);
    }

    #[test]
    fn cycles_to_retire_none_when_stuck() {
        let mut core = MesoCore::default();
        assert_eq!(core.cycles_to_retire(ThreadId::A, 10), None);
        core.assign(ThreadId::A, metload(2.5));
        core.set_priority(ThreadId::A, p(0));
        assert_eq!(core.cycles_to_retire(ThreadId::A, 10), None);
    }

    #[test]
    fn save_restore_resumes_bit_identically() {
        let mut whole = pair(2.5, 2.65, 4, 6);
        whole.advance(17_003);
        whole.set_priority(ThreadId::A, p(6));
        whole.advance(12_997);

        let mut donor = pair(2.5, 2.65, 4, 6);
        donor.advance(9_001);
        let snap = donor.save_state();

        let mut resumed = pair(2.5, 2.65, 4, 6);
        resumed.advance(123);
        resumed.restore_state(&snap).unwrap();
        resumed.advance(17_003 - 9_001);
        resumed.set_priority(ThreadId::A, p(6));
        resumed.advance(12_997);

        assert_eq!(whole.save_state(), resumed.save_state());
        assert_eq!(whole.retired(ThreadId::A), resumed.retired(ThreadId::A));
        assert_eq!(whole.retired(ThreadId::B), resumed.retired(ThreadId::B));
    }

    #[test]
    fn restore_rejects_wrong_fidelity() {
        let mut core = MesoCore::default();
        let cycle = crate::core::SmtCore::new(crate::core::CoreConfig::default());
        assert!(core.restore_state(&cycle.save_state()).is_err());
    }

    #[test]
    fn contention_reduces_capacity() {
        // A memory-hog co-runner reduces the partner's capacity.
        let mut quiet = MesoCore::default();
        quiet.assign(
            ThreadId::A,
            Workload::with_profile(
                "a",
                StreamSpec::balanced(1),
                WorkloadProfile::new(1.5, 0.1, 0.0),
            ),
        );
        quiet.assign(
            ThreadId::B,
            Workload::with_profile(
                "b",
                StreamSpec::balanced(2),
                WorkloadProfile::new(1.5, 0.1, 0.0),
            ),
        );
        let ra_quiet = quiet.throughputs()[0];

        let mut noisy = MesoCore::default();
        noisy.assign(
            ThreadId::A,
            Workload::with_profile(
                "a",
                StreamSpec::balanced(1),
                WorkloadProfile::new(1.5, 0.1, 0.0),
            ),
        );
        noisy.assign(
            ThreadId::B,
            Workload::with_profile(
                "hog",
                StreamSpec::mem_bound(2),
                WorkloadProfile::new(1.5, 0.9, 0.9),
            ),
        );
        let ra_noisy = noisy.throughputs()[0];
        assert!(
            ra_noisy < ra_quiet * 0.8,
            "contention must bite: {ra_noisy} vs {ra_quiet}"
        );
    }

    proptest! {
        /// Rates are finite, non-negative and never exceed the workload's
        /// ST IPC or the decode width.
        #[test]
        fn prop_rates_bounded(
            pa in 0u8..=7, pb in 0u8..=7,
            ipc_a in 0.1f64..5.0, ipc_b in 0.1f64..5.0,
            u in 0.0f64..1.0, m in 0.0f64..1.0,
        ) {
            let mut core = MesoCore::default();
            core.assign(ThreadId::A, Workload::with_profile("a", StreamSpec::balanced(1), WorkloadProfile::new(ipc_a, u, m)));
            core.assign(ThreadId::B, Workload::with_profile("b", StreamSpec::balanced(2), WorkloadProfile::new(ipc_b, u, m)));
            core.set_priority(ThreadId::A, p(pa));
            core.set_priority(ThreadId::B, p(pb));
            let [ra, rb] = core.throughputs();
            prop_assert!(ra.is_finite() && ra >= 0.0);
            prop_assert!(rb.is_finite() && rb >= 0.0);
            prop_assert!(ra <= ipc_a + 1e-9);
            prop_assert!(rb <= ipc_b + 1e-9);
            prop_assert!(ra + rb <= 5.0 * (1.0 + 0.1) + 1e-9, "cannot exceed decode width by more than steal slack");
        }

        /// Raising my own priority (with the partner fixed) never lowers my
        /// throughput — the monotonicity the balancer relies on.
        #[test]
        fn prop_priority_monotone(ipc_a in 0.5f64..4.0, ipc_b in 0.5f64..4.0, pb in 2u8..=6) {
            let mut prev = -1.0;
            for pa in 2u8..=6 {
                let mut core = MesoCore::default();
                core.assign(ThreadId::A, Workload::with_profile("a", StreamSpec::balanced(1), WorkloadProfile::new(ipc_a, 0.2, 0.1)));
                core.assign(ThreadId::B, Workload::with_profile("b", StreamSpec::balanced(2), WorkloadProfile::new(ipc_b, 0.2, 0.1)));
                core.set_priority(ThreadId::A, p(pa));
                core.set_priority(ThreadId::B, p(pb));
                let ra = core.throughputs()[0];
                prop_assert!(ra >= prev - 1e-9, "rate dropped when raising own priority: {prev} -> {ra} at pa={pa}, pb={pb}");
                prev = ra;
            }
        }

        /// Retired counts conserve: advance(a) + advance(b) over the same
        /// core equals advance(a+b) of a fresh identical core.
        #[test]
        fn prop_advance_additive(steps in proptest::collection::vec(1u64..10_000, 1..20)) {
            let mk = || {
                let mut c = MesoCore::default();
                c.assign(ThreadId::A, Workload::with_profile("a", StreamSpec::balanced(1), WorkloadProfile::new(1.7, 0.2, 0.1)));
                c.set_priority(ThreadId::B, p(1));
                c
            };
            let mut split = mk();
            let mut total_split = 0;
            let mut total_cycles = 0;
            for &s in &steps {
                total_split += split.advance(s)[0];
                total_cycles += s;
            }
            let mut whole = mk();
            let total_whole = whole.advance(total_cycles)[0];
            // Anchored accounting: segmentation never changes the count.
            prop_assert_eq!(total_split, total_whole);
        }

        /// Segmentation invariance holds across mid-run reconfigurations
        /// too: quantum-stepping to an event and jumping straight to it
        /// retire the same totals (the event-horizon engine's contract).
        #[test]
        fn prop_segmented_advance_matches_jump_across_reconfig(
            pa in 2u8..=6, pb in 2u8..=6,
            first in 1u64..50_000, second in 1u64..50_000,
            chunk in 1u64..997,
        ) {
            let run = |chunked: bool| {
                let mut c = pair(2.5, 2.65, pa, pb);
                let adv = |c: &mut MesoCore, mut n: u64| {
                    let mut got = [0u64; 2];
                    if chunked {
                        while n > 0 {
                            let step = n.min(chunk);
                            let [a, b] = c.advance(step);
                            got[0] += a;
                            got[1] += b;
                            n -= step;
                        }
                    } else {
                        got = c.advance(n);
                    }
                    got
                };
                let g1 = adv(&mut c, first);
                c.set_priority(ThreadId::A, p(pb));
                c.set_priority(ThreadId::B, p(pa));
                let g2 = adv(&mut c, second);
                (g1, g2, c.retired(ThreadId::A), c.retired(ThreadId::B))
            };
            prop_assert_eq!(run(false), run(true));
        }

        /// The rate cache and the completion memo are invisible: after any
        /// sequence of advances and reconfigurations, every query answers
        /// exactly what a core just restored from `save_state` (cold
        /// caches) answers. Op 5 queries, advances by less than the answer
        /// and queries again with the reduced count, which hits the memo,
        /// then queries once more at the promised cycle, where the memo has
        /// expired. The small set of counts makes a stale memo after a
        /// reconfiguration likely to be asked for.
        #[test]
        fn prop_caches_match_a_cold_core(
            ops in proptest::collection::vec((0u8..6, 0u64..20_000, 0u8..=7, 0usize..4), 1..40),
        ) {
            let loads = [
                metload(2.5),
                metload(0.7),
                Workload::with_profile("hog", StreamSpec::mem_bound(2), WorkloadProfile::new(1.5, 0.9, 0.9)),
            ];
            let counts = [0u64, 1, 97, 1_000];
            let check = |core: &MesoCore, t: ThreadId, n: u64| -> Result<Option<Cycles>, TestCaseError> {
                let mut cold = MesoCore::default();
                cold.restore_state(&core.save_state()).unwrap();
                prop_assert_eq!(core.retire_rate(t).to_bits(), cold.retire_rate(t).to_bits());
                let got = core.cycles_to_retire(t, n);
                prop_assert_eq!(got, cold.cycles_to_retire(t, n));
                Ok(got)
            };
            let mut core = pair(2.5, 2.65, 4, 6);
            for (op, k, pr, ni) in ops {
                let t = if k % 2 == 0 { ThreadId::A } else { ThreadId::B };
                let n = counts[ni];
                match op {
                    0 => {
                        core.advance(k);
                    }
                    1 => core.set_priority(t, p(pr)),
                    2 => core.assign(t, loads[usize::from(pr) % loads.len()].clone()),
                    3 => core.clear(t),
                    4 => {
                        check(&core, t, n)?;
                    }
                    _ => {
                        if let Some(dt) = check(&core, t, n)? {
                            let step = k % dt;
                            let before = core.retired(t);
                            core.advance(step);
                            let done = core.retired(t) - before;
                            prop_assert!(done < n.max(1), "retired {done} of {n} before the promised cycle");
                            let again = check(&core, t, n - done)?;
                            prop_assert_eq!(again, Some(dt - step));
                            core.advance(dt - step);
                            let done = core.retired(t) - before;
                            prop_assert!(done >= n, "retired {done} of {n} by the promised cycle");
                            check(&core, t, n.saturating_sub(done))?;
                        }
                    }
                }
            }
        }
    }
}
