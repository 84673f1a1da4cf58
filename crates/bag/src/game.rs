use std::fmt;

use scg_core::{
    apply_path, bfs_route, materialize, route_plan, CayleyNetwork, CoreError, Generator,
    SuperCayleyGraph,
};
use scg_perm::XorShift64;

use crate::config::BagConfig;

/// The game-semantic classification of a move (the paper's two action
/// types).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MoveKind {
    /// Action (1): rearrange the order of the leftmost `n + 1` balls.
    RearrangeLeftmost,
    /// Action (2): rearrange the order of boxes.
    RearrangeBoxes,
}

impl fmt::Display for MoveKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MoveKind::RearrangeLeftmost => write!(f, "rearrange leftmost balls"),
            MoveKind::RearrangeBoxes => write!(f, "rearrange boxes"),
        }
    }
}

/// A ball-arrangement game instance: `l` boxes of `n` balls, with the legal
/// moves of one super Cayley graph class.
///
/// Solving the game from configuration `c` is routing from node `c` to the
/// identity node in the network — [`BagGame::solve`] literally calls the
/// network router, making the §2 correspondence executable (and testable:
/// the minimal number of moves equals the graph distance).
///
/// # Examples
///
/// ```
/// use scg_bag::{BagConfig, BagGame};
/// use scg_core::SuperCayleyGraph;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let game = BagGame::new(SuperCayleyGraph::insertion_selection(5)?);
/// let start = BagConfig::from_symbols(&[5, 4, 3, 2, 1])?;
/// let moves = game.solve(&start)?;
/// assert!(game.replay(&start, &moves)?.is_solved());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct BagGame {
    net: SuperCayleyGraph,
}

impl BagGame {
    /// Creates a game following the move rules of `net`.
    #[must_use]
    pub fn new(net: SuperCayleyGraph) -> Self {
        BagGame { net }
    }

    /// The underlying network.
    #[must_use]
    pub fn network(&self) -> &SuperCayleyGraph {
        &self.net
    }

    /// Number of balls `k = nl + 1`.
    #[must_use]
    pub fn num_balls(&self) -> usize {
        self.net.degree_k()
    }

    /// The legal moves, as generators paired with their game semantics.
    #[must_use]
    pub fn moves(&self) -> Vec<(Generator, MoveKind)> {
        self.net
            .generators()
            .iter()
            .map(|&g| {
                let kind = if g.is_nucleus() {
                    MoveKind::RearrangeLeftmost
                } else {
                    MoveKind::RearrangeBoxes
                };
                (g, kind)
            })
            .collect()
    }

    /// Applies one move.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Perm`] if `mv` is not applicable to this game's
    /// ball count (it need not be one of the class's legal moves — use
    /// [`BagGame::moves`] to enumerate those).
    pub fn apply(&self, c: &BagConfig, mv: Generator) -> Result<BagConfig, CoreError> {
        Ok(BagConfig::from(mv.apply(c.as_perm())?))
    }

    /// Replays a move sequence from `c`.
    ///
    /// # Errors
    ///
    /// Propagates the first inapplicable move.
    pub fn replay(&self, c: &BagConfig, moves: &[Generator]) -> Result<BagConfig, CoreError> {
        Ok(BagConfig::from(apply_path(c.as_perm(), moves)?))
    }

    /// Solves the game: a legal move sequence from `c` to the sorted
    /// configuration.
    ///
    /// Uses the network's emulation router (constant-factor optimal) on
    /// every class; the insertion-only rotator classes route through
    /// insertion cycles. [`solve_optimal`](Self::solve_optimal) finds a
    /// shortest solution.
    ///
    /// # Errors
    ///
    /// * [`CoreError::DegreeMismatch`] — wrong ball count;
    /// * [`CoreError::Perm`] — more than 16 balls, beyond the packed
    ///   routing kernel.
    pub fn solve(&self, c: &BagConfig) -> Result<Vec<Generator>, CoreError> {
        let target = scg_perm::Perm::identity(self.num_balls());
        route_plan(&self.net)?.route(c.as_perm(), &target)
    }

    /// Solves optimally (minimum move count = graph distance) by BFS.
    ///
    /// # Errors
    ///
    /// * [`CoreError::TooLarge`] — more than `cap` configurations reached,
    ///   or more than 12 balls (see [`bfs_route`]).
    pub fn solve_optimal(&self, c: &BagConfig, cap: u64) -> Result<Vec<Generator>, CoreError> {
        let target = scg_perm::Perm::identity(self.num_balls());
        bfs_route(&self.net, c.as_perm(), &target, cap)
    }

    /// The game's *God's number*: the largest number of moves an optimal
    /// solution ever needs — by the §2 correspondence, exactly the diameter
    /// of the underlying super Cayley graph.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::TooLarge`] if the network exceeds `cap` nodes.
    pub fn gods_number(&self, cap: u64) -> Result<u32, CoreError> {
        let mat = materialize(&self.net, cap)?;
        // Vertex transitivity: eccentricity of the identity is the diameter.
        // For the directed classes the relevant distance is config → solved,
        // i.e. BFS on the reverse graph from the identity.
        let dist = mat.graph().reversed().bfs_distances(0);
        Ok(dist
            .into_iter()
            .filter(|&d| d != u32::MAX)
            .max()
            .unwrap_or(0))
    }

    /// Scrambles the solved configuration with `steps` random legal moves.
    pub fn scramble(&self, steps: usize, rng: &mut XorShift64) -> BagConfig {
        let gens = self.net.generators();
        let mut cur = scg_perm::Perm::identity(self.num_balls());
        for _ in 0..steps {
            let g = gens[rng.gen_range(gens.len())];
            cur = g.apply(&cur).expect("legal move applies"); // scg-allow(SCG001): generators come from the validated network of this game
        }
        BagConfig::from(cur)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scg_core::SMALL_NET_CAP;

    fn ms_game() -> BagGame {
        BagGame::new(SuperCayleyGraph::macro_star(3, 2).unwrap())
    }

    #[test]
    fn moves_are_classified() {
        let game = ms_game();
        let moves = game.moves();
        let nucleus = moves
            .iter()
            .filter(|(_, k)| *k == MoveKind::RearrangeLeftmost)
            .count();
        let boxes = moves
            .iter()
            .filter(|(_, k)| *k == MoveKind::RearrangeBoxes)
            .count();
        assert_eq!(nucleus, 2); // T2, T3
        assert_eq!(boxes, 2); // S2, S3
    }

    #[test]
    fn solve_sorts_scrambles() {
        let game = ms_game();
        let mut rng = XorShift64::new(42);
        for steps in [1, 5, 20] {
            let c = game.scramble(steps, &mut rng);
            let sol = game.solve(&c).unwrap();
            assert!(game.replay(&c, &sol).unwrap().is_solved());
        }
    }

    #[test]
    fn optimal_solution_matches_graph_distance() {
        let game = BagGame::new(SuperCayleyGraph::macro_star(2, 2).unwrap());
        let g = game.network().to_graph(SMALL_NET_CAP).unwrap();
        let dists = g.bfs_distances(0);
        let mut rng = XorShift64::new(9);
        for _ in 0..10 {
            let c = game.scramble(12, &mut rng);
            let sol = game.solve_optimal(&c, 1_000_000).unwrap();
            // Distance from c to identity: star-class hosts are undirected,
            // so BFS distance from identity to c equals it.
            assert_eq!(sol.len() as u32, dists[c.as_perm().rank() as usize]);
        }
    }

    #[test]
    fn rotator_game_solves_via_bfs() {
        let game = BagGame::new(SuperCayleyGraph::macro_rotator(2, 2).unwrap());
        let mut rng = XorShift64::new(4);
        let c = game.scramble(6, &mut rng);
        let sol = game.solve(&c).unwrap();
        assert!(game.replay(&c, &sol).unwrap().is_solved());
    }

    #[test]
    fn gods_number_equals_diameter() {
        let game = BagGame::new(SuperCayleyGraph::macro_star(2, 2).unwrap());
        assert_eq!(game.gods_number(SMALL_NET_CAP).unwrap(), 8); // measured MS(2,2) diameter
                                                                 // Directed rotator: the worst configuration still solves within the
                                                                 // God's number, and some configuration attains it.
        let mr = BagGame::new(SuperCayleyGraph::macro_rotator(2, 2).unwrap());
        let g = mr.gods_number(SMALL_NET_CAP).unwrap();
        let mut rng = XorShift64::new(2);
        for _ in 0..20 {
            let c = mr.scramble(30, &mut rng);
            assert!(mr.solve_optimal(&c, 1_000_000).unwrap().len() as u32 <= g);
        }
    }

    #[test]
    fn apply_rejects_wrong_degree_moves() {
        let game = ms_game();
        let c = BagConfig::solved(7).unwrap();
        assert!(game.apply(&c, Generator::transposition(9)).is_err());
    }
}
