//! Algebraic sorting (routing) in the reference Cayley networks: the
//! transposition network, the bubble-sort graph, and the rotator graph.
//!
//! Routing from `U` to `W` in a Cayley graph is sorting the relative
//! permutation `P = W^{-1}∘U` to the identity with generator moves (§2's
//! ball-arrangement view), so each function here takes a single permutation
//! and returns the move sequence that sorts it.

use scg_perm::cast::{len_u32, sym_u8};
use scg_perm::Perm;

use crate::generator::Generator;

/// The transposition-network distance of `p` to the identity:
/// `k − c(p)` where `c(p)` counts all cycles including fixed points
/// (equivalently, misplaced symbols minus nontrivial cycles).
#[must_use]
pub fn tn_distance(p: &Perm) -> u32 {
    let nontrivial: usize = p.cycles().iter().map(Vec::len).sum();
    len_u32(nontrivial - p.cycles().len())
}

/// An optimal transposition-network sorting sequence for `p` (length
/// exactly [`tn_distance`]): each cycle `(c_1 … c_m)` unwinds as
/// `T_{c_1,c_2} T_{c_2,c_3} … T_{c_{m-1},c_m}`.
#[must_use]
pub fn tn_sort_sequence(p: &Perm) -> Vec<Generator> {
    // Sorting p means the move product must equal p^{-1}; the cycle
    // factorization below yields exactly that (verified by tests).
    let mut out = Vec::new();
    for cycle in p.inverse().cycles() {
        for pair in cycle.windows(2) {
            out.push(Generator::exchange(pair[0] as usize, pair[1] as usize));
        }
    }
    out
}

/// The bubble-sort-graph distance of `p`: its inversion count.
#[must_use]
pub fn bubble_distance(p: &Perm) -> u32 {
    len_u32(p.inversions())
}

/// An optimal bubble-sort sequence for `p` (adjacent exchanges, length
/// exactly [`bubble_distance`]).
#[must_use]
pub fn bubble_sort_sequence(p: &Perm) -> Vec<Generator> {
    let mut symbols: Vec<u8> = p.symbols().to_vec();
    let mut out = Vec::new();
    // Plain bubble sort: every swap removes exactly one inversion, which is
    // what makes the sequence optimal.
    let k = symbols.len();
    loop {
        let mut swapped = false;
        for i in 0..k - 1 {
            if symbols[i] > symbols[i + 1] {
                symbols.swap(i, i + 1);
                out.push(Generator::exchange(i + 1, i + 2));
                swapped = true;
            }
        }
        if !swapped {
            return out;
        }
    }
}

/// A rotator-graph sorting sequence for `p` using only insertions
/// `I_2 … I_k`: selection-sort from the right (fix position `k`, then
/// `k−1`, …), costing at most `k(k+1)/2 − 1` moves.
///
/// Not minimum-length (rotator shortest paths require a more intricate
/// cycle analysis; [`bfs_route`](crate::bfs_route), the crate's exact
/// router, finds those), but valid on every insertion-generated network
/// and within a factor `O(k)` of optimal.
#[must_use]
pub fn rotator_sort_sequence(p: &Perm) -> Vec<Generator> {
    let mut cur = *p;
    let mut out = Vec::new();
    let k = cur.degree();
    for target in (2..=k).rev() {
        // Bring symbol `target` to the front by cycling the prefix of
        // length `target`, then one more cycle parks it at its home.
        // Each I_target shifts prefix positions left by one.
        let q = cur.position_of(sym_u8(target));
        debug_assert!(q <= target, "later positions already fixed");
        if q == target {
            continue; // already home
        }
        for _ in 0..q {
            cur = cur
                .prefix_rotated_left(target)
                // scg-allow(SCG001): target ranges over 2..=degree, so the prefix is in range
                .expect("prefix within degree");
            out.push(Generator::insertion(target));
        }
    }
    debug_assert!(cur.is_identity());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classes::apply_path;
    use scg_perm::Permutations;

    #[test]
    fn tn_sort_is_optimal_exhaustive() {
        for k in 2..=6 {
            for p in Permutations::lexicographic(k) {
                let seq = tn_sort_sequence(&p);
                assert_eq!(seq.len() as u32, tn_distance(&p), "perm {p}");
                assert!(apply_path(&p, &seq).unwrap().is_identity(), "perm {p}");
            }
        }
    }

    #[test]
    fn tn_distance_matches_bfs() {
        let tn = crate::classes::TranspositionNetwork::new(5).unwrap();
        let g = crate::topology::materialize(&tn, crate::topology::SMALL_NET_CAP).unwrap();
        let g = g.graph();
        let dist = g.bfs_distances(0);
        for p in Permutations::lexicographic(5) {
            assert_eq!(dist[p.rank() as usize], tn_distance(&p), "perm {p}");
        }
    }

    #[test]
    fn bubble_sort_is_optimal_exhaustive() {
        for k in 2..=6 {
            for p in Permutations::lexicographic(k) {
                let seq = bubble_sort_sequence(&p);
                assert_eq!(seq.len() as u32, bubble_distance(&p), "perm {p}");
                assert!(apply_path(&p, &seq).unwrap().is_identity(), "perm {p}");
            }
        }
    }

    #[test]
    fn bubble_distance_matches_bfs() {
        let bs = crate::classes::BubbleSortGraph::new(5).unwrap();
        let g = crate::topology::materialize(&bs, crate::topology::SMALL_NET_CAP).unwrap();
        let g = g.graph();
        let dist = g.bfs_distances(0);
        for p in Permutations::lexicographic(5) {
            assert_eq!(dist[p.rank() as usize], bubble_distance(&p), "perm {p}");
        }
    }

    #[test]
    fn rotator_sort_is_valid_and_bounded() {
        for k in 2..=6 {
            for p in Permutations::lexicographic(k) {
                let seq = rotator_sort_sequence(&p);
                assert!(apply_path(&p, &seq).unwrap().is_identity(), "perm {p}");
                assert!(seq.len() <= k * (k + 1) / 2, "perm {p}");
                // Only insertion generators are used.
                assert!(seq.iter().all(|g| matches!(g, Generator::Insertion { .. })));
            }
        }
    }

    #[test]
    fn rotator_sort_never_beats_bfs() {
        // Spot-check against exact distances on the 5-rotator.
        let gens: Vec<Generator> = (2..=5).map(Generator::insertion).collect();
        // Build the rotator graph by hand (it is not one of the ten super
        // Cayley classes: all insertions up to k, one box).
        let g = scg_graph::DenseGraph::from_neighbor_fn(120, |u| {
            let label = Perm::from_rank(5, u64::from(u)).unwrap();
            gens.iter()
                .map(|gen| gen.apply(&label).unwrap().rank() as u32)
                .collect()
        });
        // Distance to sort p = distance from p to identity in the graph.
        for p in Permutations::lexicographic(5) {
            let d = g.bfs_distances(p.rank() as u32)[0];
            assert!(rotator_sort_sequence(&p).len() as u32 >= d, "perm {p}");
        }
    }
}
