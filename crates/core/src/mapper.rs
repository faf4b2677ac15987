//! Core-pairing heuristics.
//!
//! Section VII-B: "we ran process P1 and P4 on the same core and assigned
//! more hardware resources to the latter [...] We chose P1 because it is
//! the process with the shortest computation phase." Pairing the heaviest
//! rank with the lightest maximizes the bandwidth the bottleneck can be
//! given without making its core-mate the new bottleneck, and maximizes
//! the idle-donation the bottleneck receives while its mate waits.

use mtb_oskernel::CtxAddr;

/// Pair ranks by load: sort by estimated work, then repeatedly co-locate
/// the heaviest remaining rank with the lightest remaining one. Returns
/// `placement[rank] = context` over `n/2` cores (2 contexts each).
///
/// ```
/// use mtb_core::mapper::pair_by_load;
/// // BT-MZ's Table V loads: the paper pairs P1 with P4 and P2 with P3.
/// let placement = pair_by_load(&[176, 289, 665, 1000], 2);
/// assert_eq!(placement[0].core, placement[3].core);
/// assert_eq!(placement[1].core, placement[2].core);
/// ```
///
/// # Panics
/// Panics if the rank count is odd or exceeds `2 * cores`.
pub fn pair_by_load(work: &[u64], cores: usize) -> Vec<CtxAddr> {
    let n = work.len();
    assert!(n % 2 == 0, "need an even rank count to pair");
    assert!(n <= cores * 2, "not enough hardware contexts");

    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&r| work[r]);

    let mut placement = vec![CtxAddr::from_cpu(0); n];
    // lightest..heaviest; pair ends of the sorted order.
    for core in 0..n / 2 {
        let light = order[core];
        let heavy = order[n - 1 - core];
        placement[heavy] = CtxAddr::from_cpu(core * 2);
        placement[light] = CtxAddr::from_cpu(core * 2 + 1);
    }
    placement
}

/// Block placement for a cluster: consecutive ranks fill each node before
/// the next (contiguous ring neighbours stay on-node; only the block
/// boundaries cross the network).
pub fn block_placement(n_ranks: usize) -> Vec<CtxAddr> {
    (0..n_ranks).map(CtxAddr::from_cpu).collect()
}

/// Striped (round-robin) placement across `nodes` nodes of
/// `cores_per_node` cores: rank r goes to node `r % nodes` — the
/// topology-oblivious scheduler the paper's Section II-B warns about,
/// which puts every ring neighbour on a different node.
pub fn striped_placement(n_ranks: usize, nodes: usize, cores_per_node: usize) -> Vec<CtxAddr> {
    let ctx_per_node = cores_per_node * 2;
    assert!(n_ranks <= nodes * ctx_per_node, "not enough contexts");
    let mut next_slot = vec![0usize; nodes];
    (0..n_ranks)
        .map(|r| {
            let node = r % nodes;
            let slot = next_slot[node];
            next_slot[node] += 1;
            assert!(slot < ctx_per_node, "node {node} overfull");
            CtxAddr::from_cpu(node * ctx_per_node + slot)
        })
        .collect()
}

/// The maximum per-core work sum of a placement — a lower-is-better
/// quality measure for pairings (ignores SMT interaction, counts raw
/// work).
pub fn max_core_load(work: &[u64], placement: &[CtxAddr]) -> u64 {
    let cores = placement.iter().map(|c| c.core).max().map_or(0, |m| m + 1);
    let mut sums = vec![0u64; cores];
    for (rank, ctx) in placement.iter().enumerate() {
        sums[ctx.core] += work[rank];
    }
    sums.into_iter().max().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn btmz_loads_pair_like_the_paper() {
        // Table V work shape: P1 lightest, P4 heaviest -> P1+P4 paired,
        // P2+P3 paired. Exactly the paper's chosen mapping.
        let work = [176, 289, 665, 1000];
        let placement = pair_by_load(&work, 2);
        assert_eq!(placement[0].core, placement[3].core, "P1 with P4");
        assert_eq!(placement[1].core, placement[2].core, "P2 with P3");
    }

    #[test]
    fn heavy_rank_gets_the_even_context() {
        let work = [10, 1000];
        let placement = pair_by_load(&work, 1);
        assert_eq!(placement[1].cpu(), 0, "heavy on thread A");
        assert_eq!(placement[0].cpu(), 1);
    }

    #[test]
    fn max_core_load_measures_quality() {
        let work = [176, 289, 665, 1000];
        let paper = pair_by_load(&work, 2);
        let naive: Vec<CtxAddr> = (0..4).map(CtxAddr::from_cpu).collect();
        assert!(
            max_core_load(&work, &paper) < max_core_load(&work, &naive),
            "pairing heavy+light beats adjacent pairing"
        );
    }

    #[test]
    #[should_panic(expected = "even rank count")]
    fn odd_rank_count_panics() {
        let _ = pair_by_load(&[1, 2, 3], 2);
    }

    #[test]
    #[should_panic(expected = "not enough hardware contexts")]
    fn too_many_ranks_panics() {
        let _ = pair_by_load(&[1, 2, 3, 4, 5, 6], 2);
    }

    #[test]
    fn striped_placement_separates_neighbours() {
        use mtb_oskernel::Topology;
        let topo = Topology::cluster(2);
        let striped = striped_placement(8, 2, 2);
        let block = block_placement(8);
        // Ring neighbours (r, r+1): count cross-node edges.
        let cross = |pl: &[CtxAddr]| {
            (0..8)
                .filter(|&r| !topo.same_node(pl[r], pl[(r + 1) % 8]))
                .count()
        };
        assert_eq!(cross(&block), 2, "block keeps all but the seam edges local");
        assert_eq!(cross(&striped), 8, "striping sends every edge across");
    }

    proptest! {
        /// The pairing never splits the heaviest and lightest ranks and
        /// every context is used at most once.
        #[test]
        fn prop_pairing_is_a_bijection(work in proptest::collection::vec(1u64..10_000, 2..=8)) {
            prop_assume!(work.len() % 2 == 0);
            let placement = pair_by_load(&work, work.len() / 2);
            let mut seen = std::collections::HashSet::new();
            for c in &placement {
                prop_assert!(seen.insert(c.cpu()), "context reused");
            }
        }

        /// Heaviest-with-lightest pairing never has a worse max core load
        /// than pairing by rank adjacency.
        #[test]
        fn prop_pairing_quality(work in proptest::collection::vec(1u64..10_000, 2..=8)) {
            prop_assume!(work.len() % 2 == 0);
            let cores = work.len() / 2;
            let paired = pair_by_load(&work, cores);
            let naive: Vec<CtxAddr> = (0..work.len()).map(CtxAddr::from_cpu).collect();
            prop_assert!(max_core_load(&work, &paired) <= max_core_load(&work, &naive));
        }
    }
}
