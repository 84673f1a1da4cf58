use std::error::Error;
use std::fmt;

use scg_perm::PermError;

/// Error produced by network constructors and routing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CoreError {
    /// Parameters do not define a valid network of the requested class
    /// (e.g. `l < 2` for a class that needs super generators, or
    /// `nl + 1 > MAX_DEGREE`).
    InvalidParameters {
        /// Number of boxes.
        l: usize,
        /// Balls per box.
        n: usize,
    },
    /// A generator was applied to a permutation it is not valid for.
    Perm(PermError),
    /// Routing was requested between permutations of different degree, or of
    /// a degree not matching the network.
    DegreeMismatch {
        /// Degree the network expects.
        expected: usize,
        /// Degree encountered.
        found: usize,
    },
    /// The network is too large to materialize as an explicit graph, or
    /// for fault routing, whose `u32` node ids cap it at `12!` nodes and
    /// whose fallback search stops after a million reached nodes.
    TooLarge {
        /// Number of nodes of the network.
        num_nodes: u64,
        /// The cap: caller-supplied for materialization; `12!` or the
        /// fallback search's node cap for fault routing.
        cap: u64,
    },
    /// No routing strategy applies (and BFS was not requested).
    NoRoute,
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            CoreError::InvalidParameters { l, n } => {
                write!(
                    f,
                    "parameters l={l}, n={n} do not define this network class"
                )
            }
            CoreError::Perm(e) => write!(f, "permutation error: {e}"),
            CoreError::DegreeMismatch { expected, found } => {
                write!(
                    f,
                    "expected permutations of degree {expected}, found {found}"
                )
            }
            CoreError::TooLarge { num_nodes, cap } => {
                write!(f, "network with {num_nodes} nodes exceeds the cap of {cap}")
            }
            CoreError::NoRoute => write!(f, "no routing strategy available"),
        }
    }
}

impl Error for CoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CoreError::Perm(e) => Some(e),
            _ => None,
        }
    }
}

impl From<PermError> for CoreError {
    fn from(e: PermError) -> Self {
        CoreError::Perm(e)
    }
}
