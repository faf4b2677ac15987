//! Decode-slot arbitration — the paper's Tables II and III.
//!
//! Each cycle, a POWER5 core decodes instructions from at most one of its
//! two hardware contexts. Which context owns a given cycle is a pure
//! function of the two hardware priorities and the cycle number:
//!
//! * Both priorities > 1 (the normal case, Table II): decode time is
//!   divided into slices of `R = 2^(|X-Y|+1)` cycles; the lower-priority
//!   context receives exactly 1 cycle of each slice and the higher-priority
//!   context the remaining `R - 1`. With equal priorities, `R = 2` and the
//!   contexts alternate.
//! * One priority is 1, the other > 1 (Table III row 2): the high context
//!   owns *every* cycle; the priority-1 context only "takes what is left
//!   over", i.e. it may steal a slot the owner cannot use.
//! * Both 1 (power-save mode): each context receives 1 of 64 cycles.
//! * One is 0, other > 1 (single-thread mode): the live context owns every
//!   cycle and the core behaves as ST.
//! * 0 and 1: the live context receives 1 of 32 cycles.
//! * Both 0: the core is stopped; nobody decodes.

use crate::model::ThreadId;
use crate::priority::HwPriority;
use crate::Cycles;

/// Who may decode in a given cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotGrant {
    /// The context that owns the decode slot this cycle, if any.
    pub owner: Option<ThreadId>,
    /// May the *other* context use the slot if the owner cannot?
    ///
    /// True in the priority-1 "takes what is left over" mode and, when the
    /// core is configured with slot stealing, in the normal two-thread mode
    /// (an owner stalled on a full dispatch buffer wastes the cycle
    /// otherwise). Never true in ST or power-save modes.
    pub leftover_allowed: bool,
}

impl SlotGrant {
    /// A grant with no owner (nobody decodes this cycle).
    pub const NONE: SlotGrant = SlotGrant {
        owner: None,
        leftover_allowed: false,
    };
}

/// Length `R` of the decode slice for two normal-mode priorities
/// (`R = 2^(|X-Y|+1)`, Table II). Only meaningful when both priorities are
/// above 1.
pub fn slice_len(a: HwPriority, b: HwPriority) -> u32 {
    2u32.pow(u32::from(a.diff(b)) + 1)
}

/// Decode cycles per slice received by each context in normal mode
/// (Table II): the lower-priority context gets 1, the higher `R - 1`.
/// Equal priorities split `R = 2` evenly (1 and 1).
pub fn cycles_per_slice(a: HwPriority, b: HwPriority) -> (u32, u32) {
    let r = slice_len(a, b);
    if a == b {
        (1, 1)
    } else if a > b {
        (r - 1, 1)
    } else {
        (1, r - 1)
    }
}

/// The full arbitration function: who owns decode in cycle `cycle` given
/// the two context priorities (Tables II + III).
///
/// ```
/// use mtb_smtsim::{slot_grant, HwPriority, ThreadId};
/// // Priority difference 4: slices of 32 cycles, 31 for the high thread.
/// let hi = HwPriority::HIGH;   // 6
/// let lo = HwPriority::LOW;    // 2
/// let owners: Vec<_> = (0..32).map(|c| slot_grant(lo, hi, c).owner).collect();
/// assert_eq!(owners.iter().filter(|o| **o == Some(ThreadId::A)).count(), 1);
/// assert_eq!(owners.iter().filter(|o| **o == Some(ThreadId::B)).count(), 31);
/// ```
pub fn slot_grant(a: HwPriority, b: HwPriority, cycle: Cycles) -> SlotGrant {
    let (pa, pb) = (a.value(), b.value());
    match (pa, pb) {
        // Both shut off: processor stopped.
        (0, 0) => SlotGrant::NONE,
        // ST mode: the live context receives all the resources.
        (0, _) if pb > 1 => SlotGrant {
            owner: Some(ThreadId::B),
            leftover_allowed: false,
        },
        (_, 0) if pa > 1 => SlotGrant {
            owner: Some(ThreadId::A),
            leftover_allowed: false,
        },
        // 0 vs 1: the live context gets 1 of 32 cycles.
        (0, 1) => SlotGrant {
            owner: (cycle % 32 == 0).then_some(ThreadId::B),
            leftover_allowed: false,
        },
        (1, 0) => SlotGrant {
            owner: (cycle % 32 == 0).then_some(ThreadId::A),
            leftover_allowed: false,
        },
        // Power-save mode: each context gets 1 of 64 cycles.
        (1, 1) => {
            let owner = match cycle % 64 {
                0 => Some(ThreadId::A),
                32 => Some(ThreadId::B),
                _ => None,
            };
            SlotGrant {
                owner,
                leftover_allowed: false,
            }
        }
        // Priority 1 vs normal: the normal context gets all the execution
        // resources; the priority-1 context takes what is left over.
        (1, _) => SlotGrant {
            owner: Some(ThreadId::B),
            leftover_allowed: true,
        },
        (_, 1) => SlotGrant {
            owner: Some(ThreadId::A),
            leftover_allowed: true,
        },
        // Normal mode (Table II).
        _ => {
            let r = Cycles::from(slice_len(a, b));
            let pos = cycle % r;
            // The lower-priority context owns position 0 of each slice; the
            // higher-priority context owns the rest. Equal priorities
            // alternate (R = 2: A owns position 1, B position 0 — an
            // arbitrary but fixed convention).
            let low = if pa < pb {
                ThreadId::A
            } else {
                ThreadId::B // ties: B takes the "low" slot, A the rest
            };
            let owner = if pos == 0 { low } else { low.other() };
            SlotGrant {
                owner: Some(owner),
                leftover_allowed: false,
            }
        }
    }
}

/// Count the decode cycles granted to each context over `n` cycles starting
/// at cycle 0 — used to verify Table II and by the mesoscale model to derive
/// decode shares.
pub fn grant_census(a: HwPriority, b: HwPriority, n: Cycles) -> (u64, u64) {
    let mut ca = 0;
    let mut cb = 0;
    for cycle in 0..n {
        match slot_grant(a, b, cycle).owner {
            Some(ThreadId::A) => ca += 1,
            Some(ThreadId::B) => cb += 1,
            None => {}
        }
    }
    (ca, cb)
}

/// Census over an arbitrary window `[from, to)` in O(1) scans: every
/// arbitration pattern is periodic with a period dividing 64 (normal-mode
/// slices are `2^(|X-Y|+1) <= 64` cycles, the special modes repeat every
/// 1, 32 or 64), so the count decomposes into whole periods plus two
/// partial prefixes of at most 64 scanned cycles each. This is what lets
/// the cycle core's fast-forward path credit `slots_owned` for millions of
/// skipped quiet cycles without walking them.
pub fn grant_census_range(a: HwPriority, b: HwPriority, from: Cycles, to: Cycles) -> (u64, u64) {
    if from >= to {
        return (0, 0);
    }
    // Cycles in [0, n) congruent to `r` modulo `m` (patterns anchor at 0).
    let residues = |n: Cycles, m: Cycles, r: Cycles| (n + m - 1 - r) / m;
    let window = |m, r| residues(to, m, r) - residues(from, m, r);
    let every = to - from;
    let (pa, pb) = (a.value(), b.value());
    match (pa, pb) {
        (0, 0) => (0, 0),
        (0, 1) => (0, window(32, 0)),
        (1, 0) => (window(32, 0), 0),
        (1, 1) => (window(64, 0), window(64, 32)),
        // ST and leftover modes: one context owns every cycle.
        (0, _) | (1, _) => (0, every),
        (_, 0) | (_, 1) => (every, 0),
        // Normal mode: the lower-priority context owns position 0 of each
        // R-cycle slice (ties: B), the other context the rest.
        _ => {
            let r = Cycles::from(slice_len(a, b));
            let low = window(r, 0);
            // Ties: B takes the "low" slot, matching `slot_grant`.
            if pa < pb {
                (low, every - low)
            } else {
                (every - low, low)
            }
        }
    }
}

/// Long-run decode share of each context, as exact fractions of the
/// core's decode cycles. Pure closed form — no simulation. Covers every
/// priority combination.
pub fn decode_share(a: HwPriority, b: HwPriority) -> (f64, f64) {
    let (pa, pb) = (a.value(), b.value());
    match (pa, pb) {
        (0, 0) => (0.0, 0.0),
        (0, 1) => (0.0, 1.0 / 32.0),
        (1, 0) => (1.0 / 32.0, 0.0),
        (0, _) => (0.0, 1.0),
        (_, 0) => (1.0, 0.0),
        (1, 1) => (1.0 / 64.0, 1.0 / 64.0),
        // "Leftover" mode: the normal thread owns the full bandwidth; the
        // priority-1 thread's share is nominally zero (it only steals).
        (1, _) => (0.0, 1.0),
        (_, 1) => (1.0, 0.0),
        _ => {
            let r = f64::from(slice_len(a, b));
            let (ca, cb) = cycles_per_slice(a, b);
            (f64::from(ca) / r, f64::from(cb) / r)
        }
    }
}

/// The grant period: every Table-II/III arbitration pattern repeats with
/// a period dividing 64 cycles (normal-mode slices are
/// `R = 2^(|X-Y|+1) <= 64`; the special modes repeat every 1, 32 or 64).
pub const GRANT_PERIOD: Cycles = 64;

/// Precomputed Table-II/III decode-grant patterns: an 8×8 LUT (one entry
/// per `(prio_a, prio_b)` pair) of [`GRANT_PERIOD`]-cycle slice templates.
///
/// The cycle core's reference (non-fast-forward) path queries the grant
/// every simulated cycle; the LUT turns the per-cycle branch cascade of
/// [`slot_grant`] into a single indexed load. Built once per process
/// ([`GrantLut::global`]) and shared by every core; differential-tested
/// against `slot_grant` over all 64 pairs.
#[derive(Debug)]
pub struct GrantLut {
    table: [[[SlotGrant; GRANT_PERIOD as usize]; 8]; 8],
}

impl GrantLut {
    /// Build the full table by sampling [`slot_grant`] over one period of
    /// every priority pair.
    pub fn new() -> GrantLut {
        let mut table = [[[SlotGrant::NONE; GRANT_PERIOD as usize]; 8]; 8];
        for a in HwPriority::ALL {
            for b in HwPriority::ALL {
                for cycle in 0..GRANT_PERIOD {
                    table[a.value() as usize][b.value() as usize][cycle as usize] =
                        slot_grant(a, b, cycle);
                }
            }
        }
        GrantLut { table }
    }

    /// The process-wide instance (the pattern depends on nothing but the
    /// architecture tables, so one copy serves every chip).
    pub fn global() -> &'static GrantLut {
        static LUT: std::sync::OnceLock<GrantLut> = std::sync::OnceLock::new();
        LUT.get_or_init(GrantLut::new)
    }

    /// LUT-backed equivalent of [`slot_grant`].
    #[inline]
    pub fn grant(&self, a: HwPriority, b: HwPriority, cycle: Cycles) -> SlotGrant {
        self.table[a.value() as usize][b.value() as usize][(cycle % GRANT_PERIOD) as usize]
    }

    /// One full grant period for a fixed priority pair. Priorities only
    /// change between `advance` windows, so a hot loop can resolve the
    /// two outer indices once and address grants by `cycle & 63` alone.
    #[inline]
    pub fn period(&self, a: HwPriority, b: HwPriority) -> &[SlotGrant; GRANT_PERIOD as usize] {
        &self.table[a.value() as usize][b.value() as usize]
    }
}

impl Default for GrantLut {
    fn default() -> Self {
        GrantLut::new()
    }
}

/// A hypothetical *linear* priority law used by the EXT-5 ablation: the
/// higher-priority context receives `0.5 + d/10` of the decode cycles at
/// difference `d` (capped at 0.9), instead of the POWER5's exponential
/// `(R-1)/R`. Special modes (0/1 priorities) behave as in
/// [`decode_share`]. The paper observes that the exponential law makes
/// the penalized thread collapse "much more than linearly" — this
/// alternative quantifies how tuning would behave without that cliff.
pub fn decode_share_linear(a: HwPriority, b: HwPriority) -> (f64, f64) {
    let (pa, pb) = (a.value(), b.value());
    if pa <= 1 || pb <= 1 {
        return decode_share(a, b);
    }
    let d = f64::from(a.diff(b));
    let hi = (0.5 + d / 10.0).min(0.9);
    if pa >= pb {
        (hi, 1.0 - hi)
    } else {
        (1.0 - hi, hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn p(v: u8) -> HwPriority {
        HwPriority::new(v).unwrap()
    }

    /// The LUT is a pure cache of `slot_grant`: differential check over
    /// all 64 priority pairs, across several periods and with cycle
    /// offsets that are not period-aligned.
    #[test]
    fn grant_lut_matches_slot_grant_on_all_64_pairs() {
        let lut = GrantLut::global();
        for a in HwPriority::ALL {
            for b in HwPriority::ALL {
                for cycle in 0..(GRANT_PERIOD * 5) {
                    assert_eq!(
                        lut.grant(a, b, cycle),
                        slot_grant(a, b, cycle),
                        "pair ({a:?},{b:?}) cycle {cycle}"
                    );
                }
                // Far-from-zero cycles exercise the modular reduction.
                for cycle in [1_000_003, 4_294_967_295, 12_345_678_901_234] {
                    assert_eq!(lut.grant(a, b, cycle), slot_grant(a, b, cycle));
                }
            }
        }
    }

    /// Table II verbatim: priority difference -> (R, cycles for A, cycles
    /// for B) with A the higher-priority thread.
    #[test]
    fn table2_decode_cycle_allocation() {
        let expected = [
            (0u8, 2u32, 1u32, 1u32),
            (1, 4, 3, 1),
            (2, 8, 7, 1),
            (3, 16, 15, 1),
            (4, 32, 31, 1),
        ];
        for (diff, r, ca, cb) in expected {
            let a = p(2 + diff); // e.g. diff 4: A=6, B=2
            let b = p(2);
            assert_eq!(slice_len(a, b), r, "R for diff {diff}");
            assert_eq!(cycles_per_slice(a, b), (ca, cb), "split for diff {diff}");
        }
    }

    #[test]
    fn census_matches_table2_over_whole_slices() {
        for diff in 0u8..=4 {
            let a = p(2 + diff);
            let b = p(2);
            let r = Cycles::from(slice_len(a, b));
            let slices = 100;
            let (ca, cb) = grant_census(a, b, r * slices);
            let (ea, eb) = cycles_per_slice(a, b);
            assert_eq!(ca, u64::from(ea) * slices, "A cycles at diff {diff}");
            assert_eq!(cb, u64::from(eb) * slices, "B cycles at diff {diff}");
        }
    }

    #[test]
    fn equal_priorities_alternate() {
        let g0 = slot_grant(p(4), p(4), 0);
        let g1 = slot_grant(p(4), p(4), 1);
        assert_ne!(g0.owner, g1.owner);
        assert_eq!(slot_grant(p(4), p(4), 2), g0);
    }

    #[test]
    fn direction_of_split_follows_higher_priority() {
        // A=6, B=2: A should receive 31 of 32.
        let (ca, cb) = grant_census(p(6), p(2), 3200);
        assert_eq!((ca, cb), (3100, 100));
        // Swap: B=6, A=2.
        let (ca, cb) = grant_census(p(2), p(6), 3200);
        assert_eq!((ca, cb), (100, 3100));
    }

    /// Table III row by row.
    #[test]
    fn table3_both_above_1_uses_normal_split() {
        let g = slot_grant(p(5), p(3), 1);
        assert!(g.owner.is_some());
        assert!(!g.leftover_allowed);
    }

    #[test]
    fn table3_priority1_vs_normal_gives_all_to_normal_with_leftover() {
        for c in 0..100 {
            let g = slot_grant(p(1), p(4), c);
            assert_eq!(g.owner, Some(ThreadId::B));
            assert!(g.leftover_allowed, "ThreadA takes what is left over");
        }
        for c in 0..100 {
            let g = slot_grant(p(6), p(1), c);
            assert_eq!(g.owner, Some(ThreadId::A));
            assert!(g.leftover_allowed);
        }
    }

    #[test]
    fn table3_power_save_mode_1_of_64_each() {
        let (ca, cb) = grant_census(p(1), p(1), 6400);
        assert_eq!((ca, cb), (100, 100));
        // And no leftovers allowed.
        assert!(!slot_grant(p(1), p(1), 0).leftover_allowed);
    }

    #[test]
    fn table3_st_mode_all_resources_to_live_thread() {
        for c in 0..100 {
            let g = slot_grant(p(0), p(4), c);
            assert_eq!(g.owner, Some(ThreadId::B));
            assert!(!g.leftover_allowed);
        }
        let (ca, cb) = grant_census(p(7), p(0), 1000);
        assert_eq!((ca, cb), (1000, 0));
    }

    #[test]
    fn table3_zero_vs_one_gives_1_of_32() {
        let (ca, cb) = grant_census(p(0), p(1), 3200);
        assert_eq!((ca, cb), (0, 100));
        let (ca, cb) = grant_census(p(1), p(0), 3200);
        assert_eq!((ca, cb), (100, 0));
    }

    #[test]
    fn table3_both_zero_processor_stopped() {
        let (ca, cb) = grant_census(p(0), p(0), 1000);
        assert_eq!((ca, cb), (0, 0));
        assert_eq!(slot_grant(p(0), p(0), 5), SlotGrant::NONE);
    }

    /// The closed form is *exact* against the cycle-by-cycle census for
    /// every one of the 64 priority pairs — including leftover mode,
    /// where the priority-1 context owns no slot (its share is 0: it only
    /// steals cycles the owner cannot use, which the census of *owned*
    /// slots rightly never counts).
    #[test]
    fn closed_form_share_matches_census() {
        // A common multiple of every arbitration period: slices are
        // `2^(diff+1) <= 64` cycles, special modes cycle every 32 or 64.
        let n = 64 * 32 * 10;
        for a in 0u8..=7 {
            for b in 0u8..=7 {
                let (sa, sb) = decode_share(p(a), p(b));
                let (ca, cb) = grant_census(p(a), p(b), n);
                assert!(
                    (sa - ca as f64 / n as f64).abs() < 1e-12,
                    "share A mismatch for ({a},{b}): {sa} vs census {}",
                    ca as f64 / n as f64
                );
                assert!(
                    (sb - cb as f64 / n as f64).abs() < 1e-12,
                    "share B mismatch for ({a},{b}): {sb} vs census {}",
                    cb as f64 / n as f64
                );
            }
        }
    }

    /// The ranged closed form agrees with a cycle-by-cycle walk for every
    /// priority pair over windows that straddle period boundaries.
    #[test]
    fn ranged_census_matches_naive_walk() {
        let naive = |a: HwPriority, b: HwPriority, from: Cycles, to: Cycles| {
            let (mut ca, mut cb) = (0u64, 0u64);
            for cycle in from..to {
                match slot_grant(a, b, cycle).owner {
                    Some(ThreadId::A) => ca += 1,
                    Some(ThreadId::B) => cb += 1,
                    None => {}
                }
            }
            (ca, cb)
        };
        let windows = [
            (0u64, 0u64),
            (0, 1),
            (5, 5),
            (3, 97),
            (63, 65),
            (31, 160),
            (100, 421),
        ];
        for a in 0u8..=7 {
            for b in 0u8..=7 {
                for &(from, to) in &windows {
                    assert_eq!(
                        grant_census_range(p(a), p(b), from, to),
                        naive(p(a), p(b), from, to),
                        "window [{from},{to}) at priorities ({a},{b})"
                    );
                }
            }
        }
    }

    proptest! {
        /// In every cycle at most one context owns the slot, and the owner
        /// is never a shut-off context.
        #[test]
        fn prop_owner_is_live(a in 0u8..=7, b in 0u8..=7, cycle in 0u64..100_000) {
            let g = slot_grant(p(a), p(b), cycle);
            if let Some(owner) = g.owner {
                let pv = match owner { ThreadId::A => a, ThreadId::B => b };
                prop_assert!(pv >= 1, "shut-off context granted a slot");
            }
        }

        /// Slot grants are periodic with period lcm(R, 64) at most; in
        /// particular grant_census over k*64*32 cycles is proportional to k.
        #[test]
        fn prop_census_scales_linearly(a in 0u8..=7, b in 0u8..=7) {
            let base = 64 * 32;
            let (c1a, c1b) = grant_census(p(a), p(b), base);
            let (c3a, c3b) = grant_census(p(a), p(b), base * 3);
            prop_assert_eq!(c3a, c1a * 3);
            prop_assert_eq!(c3b, c1b * 3);
        }

        /// Increasing the priority difference never *increases* the loser's
        /// share (monotonicity of the exponential split).
        #[test]
        fn prop_loser_share_monotone(db in 2u8..=6) {
            // A fixed at 2 (low); B from db..=7 increasingly higher.
            let mut prev = f64::INFINITY;
            for pb in db..=7 {
                let (sa, _) = decode_share(p(2), p(pb));
                prop_assert!(sa <= prev + 1e-12);
                prev = sa;
            }
        }

        /// Shares always sum to at most 1 and are within [0, 1].
        #[test]
        fn prop_shares_bounded(a in 0u8..=7, b in 0u8..=7) {
            let (sa, sb) = decode_share(p(a), p(b));
            prop_assert!((0.0..=1.0).contains(&sa));
            prop_assert!((0.0..=1.0).contains(&sb));
            prop_assert!(sa + sb <= 1.0 + 1e-12);
        }

        /// The linear law is bounded, symmetric and gentler than the
        /// exponential law on the losing side for every difference > 1.
        #[test]
        fn prop_linear_law_sane(a in 2u8..=7, b in 2u8..=7) {
            let (la, lb) = decode_share_linear(p(a), p(b));
            prop_assert!((la + lb - 1.0).abs() < 1e-12);
            let (ea, eb) = decode_share(p(a), p(b));
            let (l_lo, e_lo) = if a < b { (la, ea) } else { (lb, eb) };
            if p(a).diff(p(b)) > 1 {
                prop_assert!(l_lo >= e_lo - 1e-12,
                    "linear must not punish harder than exponential");
            }
        }
    }

    #[test]
    fn linear_law_matches_special_modes() {
        for &(a, b) in &[(0u8, 4u8), (1, 4), (1, 1), (0, 0), (0, 1)] {
            assert_eq!(decode_share_linear(p(a), p(b)), decode_share(p(a), p(b)));
        }
    }

    #[test]
    fn linear_law_has_no_cliff() {
        // Exponential at diff 4 leaves the loser 1/32; linear leaves 0.1.
        let (lo_lin, _) = decode_share_linear(p(2), p(6));
        let (lo_exp, _) = decode_share(p(2), p(6));
        assert!((lo_lin - 0.1).abs() < 1e-12);
        assert!((lo_exp - 1.0 / 32.0).abs() < 1e-12);
        assert!(lo_lin > 3.0 * lo_exp);
    }
}
