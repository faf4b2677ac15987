//! Synthetic instruction streams.
//!
//! MetBench (Section VII-A of the paper) stresses one processor resource
//! per load: the floating-point units, the L2 cache, the branch predictor,
//! etc. We model program behaviour the same way: a [`StreamSpec`] describes
//! a statistical instruction mix (unit classes, dependency distance, memory
//! working set) and deterministically generates an infinite instruction
//! stream from a seed. The cycle-level core consumes the stream
//! instruction-by-instruction; the mesoscale model consumes the analytic
//! steady-state [`WorkloadProfile`] derived from the same spec.

use crate::model::WorkloadProfile;
use crate::rng::SplitMix64;

/// Functional instruction classes, mapping 1:1 to execution-unit types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InstClass {
    /// Fixed-point / integer ALU operation.
    Fx,
    /// Floating-point operation.
    Fp,
    /// Load or store.
    Ls,
    /// Branch.
    Br,
}

impl InstClass {
    /// All classes in a fixed order (used for array indexing).
    pub const ALL: [InstClass; 4] = [InstClass::Fx, InstClass::Fp, InstClass::Ls, InstClass::Br];

    /// Index into per-class arrays.
    pub fn index(self) -> usize {
        match self {
            InstClass::Fx => 0,
            InstClass::Fp => 1,
            InstClass::Ls => 2,
            InstClass::Br => 3,
        }
    }
}

/// A single dynamic instruction produced by a stream generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Inst {
    /// Which unit executes it.
    pub class: InstClass,
    /// Byte address touched, for loads/stores.
    pub addr: Option<u64>,
    /// This instruction depends on the result of the instruction issued
    /// `dep` positions earlier in the same stream (0 = no dependency).
    pub dep: u32,
    /// For branches: the actual outcome (loop-biased: taken with
    /// probability [`BR_TAKEN_RATE`], with random exceptions that defeat
    /// simple predictors at roughly the exception rate).
    pub taken: bool,
    /// Code address of the instruction (drives the L1I model: sequential
    /// within basic blocks, jumping within the code footprint on taken
    /// branches).
    pub pc: u64,
}

/// Statistical description of an instruction stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamSpec {
    /// Relative weight of fixed-point instructions.
    pub fx: u32,
    /// Relative weight of floating-point instructions.
    pub fp: u32,
    /// Relative weight of loads/stores.
    pub ls: u32,
    /// Relative weight of branches.
    pub br: u32,
    /// Mean dependency distance: each instruction depends on one roughly
    /// this many positions back. Larger = more instruction-level
    /// parallelism. Must be >= 1.
    pub dep_dist: u32,
    /// Bytes of memory the loads/stores walk over.
    pub working_set: u64,
    /// Code footprint in KiB: how much instruction memory the program
    /// covers. Footprints within the L1 instruction cache (64 KiB) stay
    /// resident; larger ones miss on taken branches that land on cold
    /// lines.
    pub code_kb: u32,
    /// Seed for the deterministic generator.
    pub seed: u64,
}

impl StreamSpec {
    /// A balanced integer-heavy mix, the generic "compute" workload.
    pub fn balanced(seed: u64) -> StreamSpec {
        StreamSpec {
            fx: 5,
            fp: 2,
            ls: 3,
            br: 1,
            dep_dist: 4,
            working_set: 16 << 10,
            code_kb: 16,
            seed,
        }
    }

    /// MetBench `fpu` load: long floating-point dependency chains.
    pub fn fpu_bound(seed: u64) -> StreamSpec {
        StreamSpec {
            fx: 1,
            fp: 8,
            ls: 1,
            br: 0,
            dep_dist: 2,
            working_set: 8 << 10,
            code_kb: 4,
            seed,
        }
    }

    /// MetBench `l2` load: working set larger than L1, resident in L2.
    pub fn l2_bound(seed: u64) -> StreamSpec {
        StreamSpec {
            fx: 2,
            fp: 1,
            ls: 6,
            br: 1,
            dep_dist: 4,
            working_set: 512 << 10,
            code_kb: 8,
            seed,
        }
    }

    /// MetBench `mem` load: streaming through memory, misses everywhere.
    pub fn mem_bound(seed: u64) -> StreamSpec {
        StreamSpec {
            fx: 2,
            fp: 1,
            ls: 6,
            br: 1,
            dep_dist: 6,
            working_set: 64 << 20,
            code_kb: 8,
            seed,
        }
    }

    /// Latency-bound pointer chase: serialized loads walking a large
    /// working set (linked lists, sparse/irregular access). Almost no
    /// instruction-level parallelism — each memory miss stalls the whole
    /// context for the full memory latency, the regime where
    /// latency-sensitive codes (like the paper's SIESTA) live.
    pub fn pointer_chase(seed: u64) -> StreamSpec {
        StreamSpec {
            fx: 2,
            fp: 0,
            ls: 7,
            br: 1,
            dep_dist: 1,
            working_set: 64 << 20,
            code_kb: 4,
            seed,
        }
    }

    /// MetBench `branch` load: branch-dense integer code.
    pub fn branch_bound(seed: u64) -> StreamSpec {
        StreamSpec {
            fx: 5,
            fp: 0,
            ls: 2,
            br: 4,
            dep_dist: 3,
            working_set: 8 << 10,
            code_kb: 16,
            seed,
        }
    }

    /// High-ILP integer code that is limited by the front end: plenty of
    /// independent cheap instructions (decode-bandwidth hungry). Branch-
    /// free on purpose — it is the synthetic probe for decode-share
    /// effects, so mispredict noise is excluded.
    pub fn frontend_bound(seed: u64) -> StreamSpec {
        StreamSpec {
            fx: 5,
            fp: 0,
            ls: 4,
            br: 0,
            dep_dist: 16,
            working_set: 4 << 10,
            code_kb: 4,
            seed,
        }
    }

    /// A code-footprint stress load: branchy code spanning far more
    /// instruction memory than the L1I holds (Fortran-package-like).
    pub fn icache_thrash(seed: u64) -> StreamSpec {
        StreamSpec {
            fx: 5,
            fp: 1,
            ls: 2,
            br: 2,
            dep_dist: 6,
            working_set: 16 << 10,
            code_kb: 512,
            seed,
        }
    }

    /// Total mix weight.
    fn total_weight(&self) -> u32 {
        self.fx + self.fp + self.ls + self.br
    }

    /// The class a generator draw `pick` in `[0, total weight)` selects:
    /// the weights laid end to end in FX, FP, LS, BR order.
    fn class_of(&self, pick: u32) -> InstClass {
        if pick < self.fx {
            InstClass::Fx
        } else if pick < self.fx + self.fp {
            InstClass::Fp
        } else if pick < self.fx + self.fp + self.ls {
            InstClass::Ls
        } else {
            InstClass::Br
        }
    }

    /// [`StreamSpec::class_of`] tabulated for the first [`CLASS_TABLE`]
    /// draws: for a mix whose total weight is at most that, one load
    /// replaces the data-random cascade of comparisons.
    fn class_table(&self) -> [InstClass; CLASS_TABLE] {
        std::array::from_fn(|pick| self.class_of(pick as u32))
    }

    /// Fraction of instructions in each class, indexed by
    /// [`InstClass::index`].
    pub fn fractions(&self) -> [f64; 4] {
        let tot = f64::from(self.total_weight().max(1));
        [
            f64::from(self.fx) / tot,
            f64::from(self.fp) / tot,
            f64::from(self.ls) / tot,
            f64::from(self.br) / tot,
        ]
    }

    /// Build the deterministic generator for this spec.
    pub fn generator(&self) -> StreamGen {
        StreamGen::new(*self)
    }

    /// The analytic IPC model's bounds for this stream: its mix and miss
    /// rates, the mean latency they imply, and the dependency and unit
    /// bounds [`StreamSpec::profile`] combines with the decode width.
    pub fn bounds(&self) -> IpcBounds {
        let f = self.fractions();
        let miss = self.miss_profile();
        let avg_ls_lat = L1_LAT + miss.l1_miss * (L2_LAT + miss.l2_miss * MEM_LAT);
        let avg_br_lat = BR_LAT + BR_MISS_RATE * BR_MISS_PENALTY;
        let lats = [FX_LAT, FP_LAT, avg_ls_lat, avg_br_lat];
        let avg_lat: f64 = f.iter().zip(lats).map(|(fr, l)| fr * l).sum();

        let dep = f64::from(self.dep_dist.max(1)) / avg_lat.max(1.0);
        let (unit_class, unit) = InstClass::ALL
            .iter()
            .map(|&c| {
                let fr = f[c.index()];
                let b = if fr <= 0.0 {
                    f64::INFINITY
                } else {
                    UNITS[c.index()] / fr
                };
                (c, b)
            })
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .expect("four classes");
        IpcBounds {
            fractions: f,
            miss,
            avg_lat,
            dep,
            unit,
            unit_class,
        }
    }

    /// Analytic steady-state profile (see module docs of
    /// [`crate::perfmodel`] for how it is consumed).
    ///
    /// The estimate mirrors the default cycle-core parameters:
    /// per-class unit counts and latencies, L1/L2 sizes. Three bounds are
    /// combined ([`StreamSpec::bounds`]):
    ///
    /// * front end: the core decodes at most [`DECODE_WIDTH`] per cycle;
    /// * units: class `c` cannot exceed `units_c` issues/cycle, so
    ///   `IPC <= min_c units_c / frac_c`;
    /// * dependencies: with mean dependency distance `d` and mean latency
    ///   `L`, at most `d` chains overlap, so `IPC <= d / L` (classic
    ///   latency-concurrency bound).
    pub fn profile(&self) -> WorkloadProfile {
        let b = self.bounds();
        let ipc_st = DECODE_WIDTH.min(b.dep).min(b.unit).max(0.05);

        let unit_pressure = if b.unit.is_finite() {
            (ipc_st / b.unit).clamp(0.0, 1.0)
        } else {
            0.0
        };
        let miss = b.miss;
        let mem_intensity = (b.fractions[InstClass::Ls.index()]
            * (miss.l1_miss * 2.0 + miss.l1_miss * miss.l2_miss * 6.0))
            .clamp(0.0, 1.0);
        WorkloadProfile {
            ipc_st,
            unit_pressure,
            mem_intensity,
        }
    }

    /// Estimated miss rates from the working-set size (simple three-regime
    /// model matching the cache defaults of the cycle core).
    pub fn miss_profile(&self) -> MissProfile {
        let ws = self.working_set as f64;
        let l1_miss = regime(ws, L1_BYTES as f64);
        let l2_miss = regime(ws, L2_BYTES as f64);
        MissProfile { l1_miss, l2_miss }
    }
}

/// Fraction of loads/stores jumping to a random line (the generator's
/// pointer-chasing share); the remainder walk sequentially at +8 bytes.
pub const JUMP_RATE: f64 = 0.25;
/// Miss rate contributed by sequential line-boundary crossings
/// (8-byte stride over 128-byte lines, counted only when the set does not
/// fit: a resident set hits even at line boundaries).
pub const SPATIAL_MISS: f64 = 8.0 / 128.0;

/// Fraction of accesses that miss a cache of `cap` bytes for a working set
/// of `ws` bytes, matching the generator's access pattern: a resident set
/// stays warm; beyond capacity, random jumps miss in proportion to the
/// non-resident fraction and sequential walking pays the line-boundary
/// compulsory rate.
fn regime(ws: f64, cap: f64) -> f64 {
    if ws <= cap {
        0.02
    } else {
        let nonresident = 1.0 - cap / ws;
        (JUMP_RATE * nonresident + (1.0 - JUMP_RATE) * SPATIAL_MISS).clamp(0.02, 0.98)
    }
}

/// The analytic IPC model's inputs and bounds for one stream
/// ([`StreamSpec::bounds`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IpcBounds {
    /// Fraction of instructions per class ([`StreamSpec::fractions`]).
    pub fractions: [f64; 4],
    /// Estimated miss rates ([`StreamSpec::miss_profile`]).
    pub miss: MissProfile,
    /// Instruction-weighted mean latency, misses and mispredicts
    /// included (cycles).
    pub avg_lat: f64,
    /// Dependency bound on IPC: `dep_dist / avg_lat`.
    pub dep: f64,
    /// Unit bound on IPC: the smallest `units_c / frac_c` (infinite when
    /// the mix is empty).
    pub unit: f64,
    /// The class that sets [`IpcBounds::unit`]: the first of
    /// [`InstClass::ALL`] on a tie.
    pub unit_class: InstClass,
}

/// Estimated L1/L2 miss rates for a stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MissProfile {
    /// Fraction of loads/stores that miss L1.
    pub l1_miss: f64,
    /// Of those, fraction that also miss L2.
    pub l2_miss: f64,
}

// Default machine parameters mirrored by `CoreConfig::default()`; keep the
// two in sync (a unit test in `core.rs` checks it).
/// Instructions decoded per owned decode cycle.
pub const DECODE_WIDTH: f64 = 5.0;
/// Fixed-point latency (cycles).
pub const FX_LAT: f64 = 1.0;
/// Floating-point latency (cycles).
pub const FP_LAT: f64 = 6.0;
/// L1-hit load-to-use latency (cycles).
pub const L1_LAT: f64 = 2.0;
/// L2-hit latency (cycles).
pub const L2_LAT: f64 = 13.0;
/// Memory latency (cycles).
pub const MEM_LAT: f64 = 230.0;
/// Branch latency (cycles).
pub const BR_LAT: f64 = 1.0;
/// Probability a generated branch is taken (loop-biased; the random
/// not-taken exceptions are what the predictor mispredicts).
pub const BR_TAKEN_RATE: f64 = 0.875;
/// Expected mispredict ratio of the gshare predictor on the generated
/// outcome stream (the exceptions are random, so they miss).
pub const BR_MISS_RATE: f64 = 1.0 - BR_TAKEN_RATE;
/// [`BR_TAKEN_RATE`] as a bound on a raw draw: `unit_f64() <
/// BR_TAKEN_RATE` exactly when the draw is below this. `unit_f64` scales
/// the draw's top 53 bits exactly and `BR_TAKEN_RATE * 2^53` is an
/// integer, so the float test and the integer one agree on every draw.
const TAKEN_BELOW: u64 = 0xE000_0000_0000_0000;
/// Front-end redirect penalty per mispredicted branch (cycles), mirrored
/// by `CoreConfig::mispredict_penalty`.
pub const BR_MISS_PENALTY: f64 = 12.0;
/// Largest dependency distance a generator emits (the cycle core sizes
/// its scoreboard around this).
pub const MAX_DEP: u32 = 64;
/// Execution units per class: FX, FP, LS, BR.
pub const UNITS: [f64; 4] = [2.0, 2.0, 2.0, 2.0];
/// L1 data cache capacity (bytes).
pub const L1_BYTES: u64 = 32 << 10;
/// Shared L2 capacity (bytes).
pub const L2_BYTES: u64 = 1920 << 10;

/// `x % m` for the generator's walk updates, where `x` is almost always
/// already below `m` (the walks only step a few bytes past the wrap
/// point). The conditional subtract keeps the hot path division-free
/// and is exact for every input: the final arm is the real modulo.
#[inline]
fn wrap_mod(x: u64, m: u64) -> u64 {
    if x < m {
        x
    } else if x - m < m {
        x - m
    } else {
        x % m
    }
}

/// Entries of a generator's class table: mixes whose weights sum to at
/// most this pick their class with one table load.
const CLASS_TABLE: usize = 32;

/// Deterministic infinite instruction generator.
#[derive(Debug, Clone)]
pub struct StreamGen {
    spec: StreamSpec,
    rng: SplitMix64,
    cursor: u64,
    pc: u64,
    produced: u64,
    /// [`StreamSpec::class_table`] of `spec`, consulted when `tabled`;
    /// derived, never checkpointed (like the two flags).
    classes: [InstClass; CLASS_TABLE],
    /// Whether every draw falls inside `classes` (total weight at most
    /// [`CLASS_TABLE`]).
    tabled: bool,
    /// Whether the branch-free path applies: the mix is tabled, has a
    /// class weight, never emits branches (so every instruction consumes
    /// a statically known number of rng draws) and walks a working set.
    /// An all-zero mix picks `Br` for every draw, so it stays generic.
    branch_free: bool,
}

impl StreamGen {
    fn new(spec: StreamSpec) -> StreamGen {
        let mut rng = SplitMix64::new(spec.seed ^ 0xA5A5_5A5A_DEAD_BEEF);
        let cursor = if spec.working_set > 0 {
            rng.below(spec.working_set)
        } else {
            0
        };
        StreamGen::restore_state(spec, rng.state(), cursor, 0, 0)
    }

    /// Number of instructions generated so far.
    pub fn produced(&self) -> u64 {
        self.produced
    }

    /// Full generator state for checkpointing:
    /// `(spec, rng state, cursor, pc, produced)`.
    pub fn save_state(&self) -> (StreamSpec, u64, u64, u64, u64) {
        (
            self.spec,
            self.rng.state(),
            self.cursor,
            self.pc,
            self.produced,
        )
    }

    /// Reassemble a generator mid-stream from [`StreamGen::save_state`]
    /// output. The restored generator continues the instruction stream
    /// bit-identically.
    pub fn restore_state(
        spec: StreamSpec,
        rng_state: u64,
        cursor: u64,
        pc: u64,
        produced: u64,
    ) -> StreamGen {
        let tabled = spec.total_weight() as usize <= CLASS_TABLE;
        StreamGen {
            spec,
            rng: SplitMix64::new(rng_state),
            cursor,
            pc,
            produced,
            classes: spec.class_table(),
            tabled,
            branch_free: tabled && spec.total_weight() > 0 && spec.br == 0 && spec.working_set > 0,
        }
    }

    /// Generate the next instruction.
    #[inline]
    pub fn next_inst(&mut self) -> Inst {
        if self.branch_free {
            return self.next_inst_branch_free();
        }
        let tot = u64::from(self.spec.total_weight().max(1));
        let pick = self.rng.below(tot) as u32;
        let class = if self.tabled {
            self.classes[pick as usize % CLASS_TABLE]
        } else {
            self.spec.class_of(pick)
        };

        let addr = if class == InstClass::Ls && self.spec.working_set > 0 {
            // A mix of sequential walking (3/4 of accesses, +8 bytes) and
            // random jumps within the working set (1/4): the jump rate is
            // what the analytic miss model in [`StreamSpec::miss_profile`]
            // assumes, so keep the two in sync (JUMP_RATE).
            if self.rng.below(4) == 0 {
                self.cursor = self.rng.below(self.spec.working_set);
            } else {
                self.cursor = wrap_mod(self.cursor + 8, self.spec.working_set);
            }
            Some(self.cursor)
        } else {
            None
        };

        // Dependency distance: uniform in [1, 2*mean], so the mean matches
        // the spec. dep 0 (independent) occurs only via distances beyond
        // the scoreboard window, handled by the consumer.
        let mean = u64::from(self.spec.dep_dist.max(1));
        let dep = (1 + self.rng.below(2 * mean) as u32).min(MAX_DEP);

        // Branch outcome: loop-biased taken with random exceptions.
        let taken = class != InstClass::Br || self.rng.next_u64() < TAKEN_BELOW;

        // Code address: 4 bytes per instruction, jumping within the code
        // footprint on taken branches (loop back-edges and calls).
        let pc = self.pc;
        let code_bytes = u64::from(self.spec.code_kb.max(1)) * 1024;
        if class == InstClass::Br && taken {
            self.pc = self.rng.below(code_bytes) & !3;
        } else {
            self.pc = wrap_mod(self.pc + 4, code_bytes);
        }

        self.produced += 1;
        Inst {
            class,
            addr,
            dep,
            taken,
            pc,
        }
    }

    /// Branch-free transcription of [`StreamGen::next_inst`] for specs
    /// without branch instructions (see [`StreamGen::branch_free`]).
    ///
    /// The generic path's class/jump branches are data-random and
    /// mispredict roughly once per instruction, which made generation
    /// the single largest cost of decode-bound simulation. Here every
    /// candidate draw is evaluated speculatively via [`SplitMix64::peek`]
    /// (a future SplitMix64 value is a pure function of the current
    /// state), the taken values are selected with conditional moves, and
    /// the state advances by exactly the number of draws the generic
    /// path would have consumed — the produced stream and the rng state
    /// walk are bit-identical, which the stream-equivalence tests pin.
    fn next_inst_branch_free(&mut self) -> Inst {
        let spec = &self.spec;
        let tot = u64::from(spec.total_weight().max(1));
        let pick = SplitMix64::reduce(self.rng.peek(0), tot) as usize;
        let class = self.classes[pick % CLASS_TABLE];
        let is_ls = class == InstClass::Ls;
        let p1 = self.rng.peek(1);
        let p2 = self.rng.peek(2);
        let p3 = self.rng.peek(3);

        // Draw schedule (matching the generic path): pick, then for Ls a
        // jump test and — on a jump — a target, then the dependency.
        let jump = is_ls & (SplitMix64::reduce(p1, 4) == 0);
        let dep_raw = if is_ls {
            if jump {
                p3
            } else {
                p2
            }
        } else {
            p1
        };
        let mean = u64::from(spec.dep_dist.max(1));
        let dep = (1 + SplitMix64::reduce(dep_raw, 2 * mean) as u32).min(MAX_DEP);

        // `cursor` stays below the working-set size, so the walked value
        // never reaches `wrap_mod`'s dividing arm.
        let walked = wrap_mod(self.cursor + 8, spec.working_set);
        let jumped = SplitMix64::reduce(p2, spec.working_set);
        let cur = if jump { jumped } else { walked };
        self.cursor = if is_ls { cur } else { self.cursor };
        let addr = is_ls.then_some(cur);
        self.rng.skip(2 + u64::from(is_ls) + u64::from(jump));

        // No branch instructions: every pc step is the sequential walk.
        let pc = self.pc;
        let code_bytes = u64::from(spec.code_kb.max(1)) * 1024;
        self.pc = wrap_mod(pc + 4, code_bytes);
        self.produced += 1;
        Inst {
            class,
            addr,
            dep,
            taken: true,
            pc,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn generator_is_deterministic() {
        let spec = StreamSpec::balanced(77);
        let mut g1 = spec.generator();
        let mut g2 = spec.generator();
        for _ in 0..1000 {
            assert_eq!(g1.next_inst(), g2.next_inst());
        }
        assert_eq!(g1.produced(), 1000);
    }

    #[test]
    fn mix_fractions_match_weights() {
        let spec = StreamSpec {
            fx: 1,
            fp: 1,
            ls: 1,
            br: 1,
            dep_dist: 4,
            working_set: 1024,
            code_kb: 8,
            seed: 3,
        };
        let mut g = spec.generator();
        let mut counts = [0u32; 4];
        let n = 40_000;
        for _ in 0..n {
            counts[g.next_inst().class.index()] += 1;
        }
        for c in counts {
            let frac = f64::from(c) / f64::from(n);
            assert!(
                (frac - 0.25).abs() < 0.02,
                "class fraction {frac} far from 0.25"
            );
        }
    }

    #[test]
    fn zero_weight_classes_never_generated() {
        let spec = StreamSpec {
            fx: 0,
            fp: 5,
            ls: 0,
            br: 0,
            dep_dist: 2,
            working_set: 0,
            code_kb: 4,
            seed: 9,
        };
        let mut g = spec.generator();
        for _ in 0..1000 {
            assert_eq!(g.next_inst().class, InstClass::Fp);
        }
    }

    #[test]
    fn ls_instructions_carry_addresses_within_working_set() {
        let spec = StreamSpec::l2_bound(4);
        let mut g = spec.generator();
        let mut seen_ls = 0;
        for _ in 0..5000 {
            let i = g.next_inst();
            if i.class == InstClass::Ls {
                seen_ls += 1;
                assert!(i.addr.unwrap() < spec.working_set);
            } else {
                assert!(i.addr.is_none());
            }
        }
        assert!(seen_ls > 1000);
    }

    #[test]
    fn dep_dist_mean_roughly_matches_spec() {
        let spec = StreamSpec {
            fx: 1,
            fp: 0,
            ls: 0,
            br: 0,
            dep_dist: 6,
            working_set: 0,
            code_kb: 4,
            seed: 10,
        };
        let mut g = spec.generator();
        let n = 20_000;
        let sum: u64 = (0..n).map(|_| u64::from(g.next_inst().dep)).sum();
        let mean = sum as f64 / n as f64;
        // uniform in [1, 12] -> mean 6.5
        assert!((mean - 6.5).abs() < 0.2, "mean dep {mean}");
    }

    #[test]
    fn fpu_profile_is_dependency_bound() {
        let p = StreamSpec::fpu_bound(1).profile();
        // fp-heavy with dep 2: roughly 2 / ~5.2 ≈ 0.4 IPC, certainly < 1.
        assert!(p.ipc_st < 1.0, "fpu ipc {}", p.ipc_st);
        assert!(p.mem_intensity < 0.1);
    }

    #[test]
    fn frontend_profile_has_high_ipc_low_pressure_memory() {
        let p = StreamSpec::frontend_bound(1).profile();
        assert!(p.ipc_st > 2.0, "frontend ipc {}", p.ipc_st);
        assert!(p.mem_intensity < 0.05);
    }

    #[test]
    fn mem_bound_profile_has_high_mem_intensity_low_ipc() {
        let p = StreamSpec::mem_bound(1).profile();
        assert!(p.mem_intensity > 0.3, "mem intensity {}", p.mem_intensity);
        assert!(p.ipc_st < 0.5, "mem ipc {}", p.ipc_st);
    }

    #[test]
    fn unit_bound_ties_name_the_first_class() {
        let spec = StreamSpec {
            fx: 1,
            fp: 1,
            ls: 1,
            br: 1,
            dep_dist: 64,
            working_set: 1024,
            code_kb: 8,
            seed: 0,
        };
        let b = spec.bounds();
        assert_eq!(b.unit_class, InstClass::Fx);
        assert_eq!(b.unit, 8.0);
        // The profile's IPC is the tightest of the three bounds.
        assert_eq!(spec.profile().ipc_st, DECODE_WIDTH.min(b.dep).min(b.unit));
    }

    #[test]
    fn miss_regimes_ordered_by_working_set() {
        let small = StreamSpec {
            working_set: 8 << 10,
            ..StreamSpec::balanced(0)
        }
        .miss_profile();
        let mid = StreamSpec {
            working_set: 512 << 10,
            ..StreamSpec::balanced(0)
        }
        .miss_profile();
        let big = StreamSpec {
            working_set: 64 << 20,
            ..StreamSpec::balanced(0)
        }
        .miss_profile();
        assert!(small.l1_miss <= mid.l1_miss);
        assert!(mid.l1_miss <= big.l1_miss);
        assert!(small.l2_miss <= 0.05);
        assert!(mid.l2_miss <= 0.05, "512K fits in L2");
        assert!(big.l2_miss > 0.25, "64 MiB overflows L2: {}", big.l2_miss);
    }

    #[test]
    fn taken_bound_matches_the_float_test() {
        let float = |x: u64| (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64) < BR_TAKEN_RATE;
        assert_eq!(TAKEN_BELOW as f64, BR_TAKEN_RATE * 2f64.powi(64));
        for x in [0, TAKEN_BELOW - 2049, TAKEN_BELOW - 2048, TAKEN_BELOW - 1]
            .into_iter()
            .chain([TAKEN_BELOW, TAKEN_BELOW + 1, u64::MAX])
        {
            assert_eq!(float(x), x < TAKEN_BELOW, "draw {x:#x}");
        }
        let mut rng = SplitMix64::new(7);
        for _ in 0..100_000 {
            let x = rng.next_u64();
            assert_eq!(float(x), x < TAKEN_BELOW, "draw {x:#x}");
        }
    }

    /// The generator's draw schedule written out the plain way: cascaded
    /// class comparisons and the float branch-outcome test.
    fn reference_stream(spec: StreamSpec, n: usize) -> Vec<Inst> {
        let mut rng = SplitMix64::new(spec.seed ^ 0xA5A5_5A5A_DEAD_BEEF);
        let ws = spec.working_set;
        let mut cursor = if ws > 0 { rng.below(ws) } else { 0 };
        let mut pc = 0;
        let code_bytes = u64::from(spec.code_kb.max(1)) * 1024;
        (0..n)
            .map(|_| {
                let pick = rng.below(u64::from(spec.total_weight().max(1))) as u32;
                let class = if pick < spec.fx {
                    InstClass::Fx
                } else if pick < spec.fx + spec.fp {
                    InstClass::Fp
                } else if pick < spec.fx + spec.fp + spec.ls {
                    InstClass::Ls
                } else {
                    InstClass::Br
                };
                let addr = (class == InstClass::Ls && ws > 0).then(|| {
                    cursor = if rng.below(4) == 0 {
                        rng.below(ws)
                    } else {
                        (cursor + 8) % ws
                    };
                    cursor
                });
                let dep = (1 + rng.below(2 * u64::from(spec.dep_dist.max(1))) as u32).min(MAX_DEP);
                let taken = class != InstClass::Br || rng.unit_f64() < BR_TAKEN_RATE;
                let this = pc;
                pc = if class == InstClass::Br && taken {
                    rng.below(code_bytes) & !3
                } else {
                    (pc + 4) % code_bytes
                };
                Inst {
                    class,
                    addr,
                    dep,
                    taken,
                    pc: this,
                }
            })
            .collect()
    }

    /// A mix with every class weight at zero draws `Br` every time, so
    /// it must take the branchy path even though no `br` weight is set.
    #[test]
    fn all_zero_mix_with_working_set_matches_reference_schedule() {
        let spec = StreamSpec {
            fx: 0,
            fp: 0,
            ls: 0,
            br: 0,
            dep_dist: 3,
            working_set: 4096,
            code_kb: 4,
            seed: 11,
        };
        let mut g = spec.generator();
        let got: Vec<Inst> = (0..400).map(|_| g.next_inst()).collect();
        assert_eq!(got, reference_stream(spec, 400));
    }

    proptest! {
        /// Every generator path — class table or cascade, branch-free or
        /// branchy — emits the stream of the plain draw schedule.
        #[test]
        fn prop_generator_matches_reference_schedule(
            fx in 0u32..12, fp in 0u32..12, ls in 0u32..12, br in 0u32..6,
            dep in 1u32..20, ws in 0u64..(1 << 20), code_kb in 1u32..64, seed in 0u64..1_000,
        ) {
            let spec = StreamSpec { fx, fp, ls, br, dep_dist: dep, working_set: ws, code_kb, seed };
            let mut g = spec.generator();
            let got: Vec<Inst> = (0..400).map(|_| g.next_inst()).collect();
            prop_assert_eq!(got, reference_stream(spec, 400));
        }

        /// Profiles are always finite and in range for arbitrary specs.
        #[test]
        fn prop_profile_sane(
            fx in 0u32..10, fp in 0u32..10, ls in 0u32..10, br in 0u32..10,
            dep in 1u32..32, ws in 0u64..(128 << 20),
        ) {
            prop_assume!(fx + fp + ls + br > 0);
            let spec = StreamSpec { fx, fp, ls, br, dep_dist: dep, working_set: ws, code_kb: 8, seed: 1 };
            let p = spec.profile();
            prop_assert!(p.ipc_st.is_finite() && p.ipc_st > 0.0 && p.ipc_st <= DECODE_WIDTH);
            prop_assert!((0.0..=1.0).contains(&p.unit_pressure));
            prop_assert!((0.0..=1.0).contains(&p.mem_intensity));
        }

        /// Fractions sum to 1.
        #[test]
        fn prop_fractions_sum_to_one(fx in 0u32..9, fp in 0u32..9, ls in 0u32..9, br in 1u32..9) {
            let spec = StreamSpec { fx, fp, ls, br, dep_dist: 1, working_set: 0, code_kb: 8, seed: 0 };
            let s: f64 = spec.fractions().iter().sum();
            prop_assert!((s - 1.0).abs() < 1e-12);
        }
    }
}
