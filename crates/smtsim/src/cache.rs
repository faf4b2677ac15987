//! Set-associative LRU caches.
//!
//! The POWER5 memory hierarchy in the paper: private L1 instruction and
//! data caches per core, unified L2 and L3 shared between the two cores.
//! We model a private L1D per core context-pair and a shared L2; L3 is
//! folded into the memory latency. Cache state is what couples co-running
//! threads beyond decode-slot arbitration: a thrashing co-runner evicts the
//! other thread's lines (SMT interference) and both cores compete for L2.

use crate::Cycles;

/// Geometry and latency of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes. Must be `line_size * assoc * sets`.
    pub bytes: u64,
    /// Line size in bytes (power of two).
    pub line_size: u64,
    /// Associativity (ways per set).
    pub assoc: usize,
    /// Hit latency in cycles.
    pub hit_latency: Cycles,
}

impl CacheConfig {
    /// POWER5-like 32 KiB, 4-way, 128 B lines, 2-cycle L1 data cache.
    pub fn l1d() -> CacheConfig {
        CacheConfig {
            bytes: 32 << 10,
            line_size: 128,
            assoc: 4,
            hit_latency: 2,
        }
    }

    /// POWER5-like 64 KiB, 2-way, 128 B lines, 1-cycle L1 instruction
    /// cache.
    pub fn l1i() -> CacheConfig {
        CacheConfig {
            bytes: 64 << 10,
            line_size: 128,
            assoc: 2,
            hit_latency: 1,
        }
    }

    /// POWER5-like 1.875 MiB, 10-way, 128 B lines, 13-cycle shared L2.
    pub fn l2() -> CacheConfig {
        CacheConfig {
            bytes: 1920 << 10,
            line_size: 128,
            assoc: 10,
            hit_latency: 13,
        }
    }

    /// Number of sets implied by the geometry.
    pub fn sets(&self) -> usize {
        (self.bytes / (self.line_size * self.assoc as u64)) as usize
    }
}

/// Precomputed shift/mask constants for power-of-two set counts; see
/// [`Cache::pow2_index`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct Pow2Index {
    line_shift: u32,
    set_mask: u64,
    set_shift: u32,
}

impl Pow2Index {
    /// Line number of `addr`: two addresses touch the same line exactly
    /// when their line numbers are equal.
    #[inline]
    pub(crate) fn line(self, addr: u64) -> u64 {
        addr >> self.line_shift
    }
}

/// A set-associative cache with true-LRU replacement.
///
/// Tags carry an *owner id* so that statistics can attribute evictions to
/// the thread/core that caused them (used by the interference stats).
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    /// `sets x assoc` entries: `None` = invalid, `Some((tag, owner))`.
    ways: Vec<Option<(u64, u8)>>,
    /// Per-way last-use stamps for LRU, parallel to `ways`.
    stamps: Vec<u64>,
    tick: u64,
    hits: u64,
    misses: u64,
    /// Evictions where the evicted line belonged to a different owner.
    cross_evictions: u64,
}

impl Cache {
    /// Build an empty cache.
    pub fn new(cfg: CacheConfig) -> Cache {
        let n = cfg.sets() * cfg.assoc;
        assert!(n > 0, "cache must have at least one way");
        assert!(
            cfg.line_size.is_power_of_two(),
            "line size must be a power of two"
        );
        Cache {
            cfg,
            ways: vec![None; n],
            stamps: vec![0; n],
            tick: 0,
            hits: 0,
            misses: 0,
            cross_evictions: 0,
        }
    }

    /// Geometry of this cache.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Shift/mask decomposition of the set/tag computation, available
    /// when the set count is a power of two (the line size always is).
    /// `addr >> line_shift & set_mask` and `addr >> line_shift >>
    /// set_shift` then reproduce the division-based indexing of
    /// [`Cache::access`] bit for bit; the cycle core's hot path hoists
    /// this out of its inner loop.
    pub(crate) fn pow2_index(&self) -> Option<Pow2Index> {
        let sets = self.cfg.sets() as u64;
        sets.is_power_of_two().then(|| Pow2Index {
            line_shift: self.cfg.line_size.trailing_zeros(),
            set_mask: sets - 1,
            set_shift: sets.trailing_zeros(),
        })
    }

    /// [`Cache::access`] with the set/tag computed by shifts instead of
    /// divisions. `idx` must come from this cache's [`Cache::pow2_index`].
    #[inline]
    pub(crate) fn access_pow2(&mut self, addr: u64, owner: u8, idx: Pow2Index) -> bool {
        self.access_pow2_way(addr, owner, idx).0
    }

    /// [`Cache::access_pow2`] that also returns the index of the way
    /// now holding the line (the hit way, or the filled victim), for
    /// [`Cache::repeat_hits`].
    #[inline]
    pub(crate) fn access_pow2_way(
        &mut self,
        addr: u64,
        owner: u8,
        idx: Pow2Index,
    ) -> (bool, usize) {
        let line = idx.line(addr);
        let set = (line & idx.set_mask) as usize;
        let tag = line >> idx.set_shift;
        self.access_way(set, tag, owner)
    }

    /// Account `n` more accesses to the line in `way`, by the owner of
    /// the access that returned `way` from [`Cache::access_pow2_way`],
    /// with no access in between. Each would hit that way, so together
    /// they advance the tick by `n`, count `n` hits and leave the way's
    /// LRU stamp at the final tick — what `n` calls to
    /// [`Cache::access`] leave behind.
    #[inline]
    pub(crate) fn repeat_hits(&mut self, way: usize, n: u64) {
        self.tick += n;
        self.hits += n;
        self.stamps[way] = self.tick;
    }

    /// Access `addr` on behalf of `owner`. Returns `true` on hit. On miss
    /// the line is filled (evicting the LRU way of the set).
    pub fn access(&mut self, addr: u64, owner: u8) -> bool {
        let line = addr / self.cfg.line_size;
        let nsets = self.cfg.sets() as u64;
        let set = (line % nsets) as usize;
        let tag = line / nsets;
        self.access_way(set, tag, owner).0
    }

    /// One access: hit or fill, plus the index of the way that holds
    /// the line afterwards.
    #[inline]
    fn access_way(&mut self, set: usize, tag: u64, owner: u8) -> (bool, usize) {
        self.tick += 1;
        let base = set * self.cfg.assoc;

        // Hit?
        for w in 0..self.cfg.assoc {
            if let Some((t, _)) = self.ways[base + w] {
                if t == tag {
                    self.stamps[base + w] = self.tick;
                    self.ways[base + w] = Some((tag, owner));
                    self.hits += 1;
                    return (true, base + w);
                }
            }
        }

        // Miss: fill LRU way (preferring an invalid way).
        self.misses += 1;
        let mut victim = 0;
        let mut best = u64::MAX;
        for w in 0..self.cfg.assoc {
            match self.ways[base + w] {
                None => {
                    victim = w;
                    break;
                }
                Some(_) => {
                    if self.stamps[base + w] < best {
                        best = self.stamps[base + w];
                        victim = w;
                    }
                }
            }
        }
        if let Some((_, prev_owner)) = self.ways[base + victim] {
            if prev_owner != owner {
                self.cross_evictions += 1;
            }
        }
        self.ways[base + victim] = Some((tag, owner));
        self.stamps[base + victim] = self.tick;
        (false, base + victim)
    }

    /// (hits, misses) so far.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Evictions of lines belonging to another owner (interference).
    pub fn cross_evictions(&self) -> u64 {
        self.cross_evictions
    }

    /// Miss ratio so far (0 when no accesses).
    pub fn miss_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }

    /// Full mutable state for checkpointing:
    /// `(ways, stamps, tick, hits, misses, cross_evictions)`. The
    /// geometry is not included — it is rebuilt from configuration.
    #[allow(clippy::type_complexity)]
    pub fn save_state(&self) -> (Vec<Option<(u64, u8)>>, Vec<u64>, u64, u64, u64, u64) {
        (
            self.ways.clone(),
            self.stamps.clone(),
            self.tick,
            self.hits,
            self.misses,
            self.cross_evictions,
        )
    }

    /// Overwrite contents and statistics from [`Cache::save_state`]
    /// output. Fails when the way/stamp arrays do not match this cache's
    /// geometry.
    pub fn restore_state(
        &mut self,
        ways: Vec<Option<(u64, u8)>>,
        stamps: Vec<u64>,
        tick: u64,
        hits: u64,
        misses: u64,
        cross_evictions: u64,
    ) -> Result<(), String> {
        let n = self.cfg.sets() * self.cfg.assoc;
        if ways.len() != n || stamps.len() != n {
            return Err(format!(
                "cache state has {}/{} entries, geometry needs {n}",
                ways.len(),
                stamps.len()
            ));
        }
        self.ways = ways;
        self.stamps = stamps;
        self.tick = tick;
        self.hits = hits;
        self.misses = misses;
        self.cross_evictions = cross_evictions;
        Ok(())
    }

    /// Forget all contents and statistics.
    pub fn reset(&mut self) {
        self.ways.fill(None);
        self.stamps.fill(0);
        self.tick = 0;
        self.hits = 0;
        self.misses = 0;
        self.cross_evictions = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn tiny() -> Cache {
        // 4 sets x 2 ways x 64B lines = 512B
        Cache::new(CacheConfig {
            bytes: 512,
            line_size: 64,
            assoc: 2,
            hit_latency: 1,
        })
    }

    #[test]
    fn geometry_is_consistent() {
        let l1 = CacheConfig::l1d();
        assert_eq!(l1.sets() as u64 * l1.line_size * l1.assoc as u64, l1.bytes);
        let l2 = CacheConfig::l2();
        assert_eq!(l2.sets() as u64 * l2.line_size * l2.assoc as u64, l2.bytes);
    }

    #[test]
    fn first_access_misses_second_hits() {
        let mut c = tiny();
        assert!(!c.access(0x100, 0));
        assert!(c.access(0x100, 0));
        assert!(c.access(0x13F, 0), "same 64B line");
        assert!(!c.access(0x140, 0), "next line");
        assert_eq!(c.stats(), (2, 2));
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = tiny();
        // Three lines mapping to the same set (set 0): line numbers 0, 4, 8
        // (4 sets) -> addresses 0, 4*64, 8*64.
        assert!(!c.access(0, 0));
        assert!(!c.access(4 * 64, 0));
        assert!(c.access(0, 0), "line 0 still resident, now MRU");
        assert!(!c.access(8 * 64, 0), "fills set, evicting line 4*64 (LRU)");
        assert!(!c.access(4 * 64, 0), "line 4*64 was evicted");
        assert!(c.access(8 * 64, 0), "line 8*64 still resident");
    }

    #[test]
    fn cross_owner_evictions_are_counted() {
        let mut c = tiny();
        c.access(0, 0);
        c.access(4 * 64, 0);
        assert_eq!(c.cross_evictions(), 0);
        // Owner 1 storms the same set with two new lines -> evicts owner 0.
        c.access(12 * 64, 1);
        c.access(16 * 64, 1);
        assert_eq!(c.cross_evictions(), 2);
    }

    #[test]
    fn working_set_within_capacity_converges_to_hits() {
        let mut c = Cache::new(CacheConfig {
            bytes: 4096,
            line_size: 64,
            assoc: 4,
            hit_latency: 1,
        });
        // 2 KiB working set in a 4 KiB cache: after warmup, all hits.
        for round in 0..4 {
            for addr in (0..2048).step_by(8) {
                let hit = c.access(addr, 0);
                if round > 0 {
                    assert!(hit, "addr {addr} missed after warmup");
                }
            }
        }
    }

    #[test]
    fn reset_clears_contents() {
        let mut c = tiny();
        c.access(0, 0);
        c.reset();
        assert_eq!(c.stats(), (0, 0));
        assert!(!c.access(0, 0), "reset cache must miss again");
    }

    #[test]
    fn miss_ratio_bounds() {
        let mut c = tiny();
        assert_eq!(c.miss_ratio(), 0.0);
        c.access(0, 0);
        assert_eq!(c.miss_ratio(), 1.0);
        c.access(0, 0);
        assert!((c.miss_ratio() - 0.5).abs() < 1e-12);
    }

    proptest! {
        /// hits + misses equals accesses, and repeated single-line access
        /// never misses twice.
        #[test]
        fn prop_accounting(addrs in proptest::collection::vec(0u64..100_000, 1..500)) {
            let mut c = tiny();
            for &a in &addrs {
                c.access(a, 0);
            }
            let (h, m) = c.stats();
            prop_assert_eq!(h + m, addrs.len() as u64);
        }

        /// A working set of exactly one line misses at most once.
        #[test]
        fn prop_single_line_misses_once(n in 1usize..100, base in 0u64..1_000_000) {
            let mut c = tiny();
            for _ in 0..n {
                c.access(base, 0);
            }
            let (_, m) = c.stats();
            prop_assert_eq!(m, 1);
        }

        /// The shift/mask path is bit-identical to the division path on
        /// power-of-two geometries: same hit/miss answers, same final
        /// state.
        #[test]
        fn prop_pow2_access_matches_division(
            addrs in proptest::collection::vec((0u64..1_000_000, 0u8..4), 1..300)
        ) {
            for cfg in [CacheConfig::l1d(), CacheConfig::l1i()] {
                let mut div = Cache::new(cfg);
                let mut pow = Cache::new(cfg);
                let idx = pow.pow2_index().expect("power-of-two sets");
                for &(a, o) in &addrs {
                    prop_assert_eq!(div.access(a, o), pow.access_pow2(a, o, idx));
                }
                prop_assert_eq!(div.save_state(), pow.save_state());
            }
        }

        /// Runs of same-line accesses folded into one access plus
        /// `repeat_hits` leave the state the one-by-one accesses leave.
        #[test]
        fn prop_repeat_hits_match_repeated_access(
            runs in proptest::collection::vec((0u64..200_000, 0u8..4, 1u64..6), 1..200)
        ) {
            let cfg = CacheConfig::l1i();
            let mut each = Cache::new(cfg);
            let mut folded = Cache::new(cfg);
            let idx = folded.pow2_index().expect("power-of-two sets");
            for &(a, o, n) in &runs {
                let hit = each.access(a, o);
                for k in 1..n {
                    // Every address of the run lies in the first one's line.
                    prop_assert!(each.access((a & !127) + (k * 4) % 128, o));
                }
                let (first, way) = folded.access_pow2_way(a, o, idx);
                folded.repeat_hits(way, n - 1);
                prop_assert_eq!(first, hit);
            }
            prop_assert_eq!(each.save_state(), folded.save_state());
        }
    }
}
