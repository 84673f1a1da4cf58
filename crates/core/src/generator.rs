//! The nucleus and super generators of the ball-arrangement game.
//!
//! A super Cayley graph is a Cayley graph over `S_k` whose generator set
//! mixes *nucleus generators* (rearrange the leftmost `n + 1` symbols — the
//! outside ball plus the leftmost box) and *super generators* (permute whole
//! super-symbols — move boxes). The concrete generators used by the paper's
//! ten network classes are:
//!
//! | generator | kind | action on `U = u_1 … u_k` |
//! |---|---|---|
//! | `T_i` ([`Generator::Transposition`]) | nucleus | swap `u_1 ↔ u_i`, `2 ≤ i ≤ n+1` |
//! | `T_{i,j}` ([`Generator::Exchange`]) | (reference networks) | swap `u_i ↔ u_j` |
//! | `I_i` ([`Generator::Insertion`]) | nucleus | `u_1…u_i ↦ u_2…u_i u_1` |
//! | `I_i^{-1}` ([`Generator::Selection`]) | nucleus | `u_1…u_i ↦ u_i u_1…u_{i-1}` |
//! | `S_{n,i}` ([`Generator::Swap`]) | super | exchange super-symbols 1 and `i` |
//! | `R^i_n` ([`Generator::Rotation`]) | super | rotate `u_2…u_k` right by `n·i` |

use std::fmt;

use scg_perm::cast::sym_u8;
use scg_perm::{PackedPerm, Perm, PermError};

/// One generator of a (super) Cayley graph, acting on node labels.
///
/// # Examples
///
/// ```
/// use scg_core::Generator;
/// use scg_perm::Perm;
///
/// # fn main() -> Result<(), scg_core::CoreError> {
/// let u = Perm::identity(5);
/// let v = Generator::transposition(3).apply(&u)?;
/// assert_eq!(v.symbols(), &[3, 2, 1, 4, 5]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Generator {
    /// Star-graph transposition `T_i`: swaps positions 1 and `i` (`i ≥ 2`).
    Transposition {
        /// Target position (`2..=k`).
        i: u8,
    },
    /// General transposition `T_{i,j}` (`1 ≤ i < j`): swaps positions `i`
    /// and `j`. Used by transposition networks and bubble-sort graphs, and
    /// as the *guest* edge labels in Theorem 6.
    Exchange {
        /// First position.
        i: u8,
        /// Second position (`> i`).
        j: u8,
    },
    /// Insertion `I_i`: cyclic left shift of the leftmost `i` symbols.
    Insertion {
        /// Prefix length (`2..=k`).
        i: u8,
    },
    /// Selection `I_i^{-1}`: cyclic right shift of the leftmost `i` symbols.
    Selection {
        /// Prefix length (`2..=k`).
        i: u8,
    },
    /// Swap `S_{n,i}`: exchanges super-symbol 1 with super-symbol `i`
    /// (`2 ≤ i ≤ l`), an involution.
    Swap {
        /// Super-symbol (box) size.
        n: u8,
        /// Box index to exchange with box 1.
        i: u8,
    },
    /// Rotation `R^i_n`: cyclic right shift of `u_2 … u_k` by `n·i`
    /// positions — boxes move `i` places toward the tail, wrapping.
    Rotation {
        /// Super-symbol (box) size.
        n: u8,
        /// Number of box positions to rotate by (`1..l`).
        i: u8,
    },
}

impl Generator {
    /// `T_i` (swap positions 1 and `i`).
    #[must_use]
    pub fn transposition(i: usize) -> Self {
        Generator::Transposition { i: sym_u8(i) }
    }

    /// `T_{i,j}`; the arguments may come in either order.
    ///
    /// # Panics
    ///
    /// Panics if `i == j`.
    #[must_use]
    pub fn exchange(i: usize, j: usize) -> Self {
        assert_ne!(i, j, "T_{{i,i}} is not a generator");
        let (i, j) = if i < j { (i, j) } else { (j, i) };
        Generator::Exchange {
            i: sym_u8(i),
            j: sym_u8(j),
        }
    }

    /// `I_i`.
    #[must_use]
    pub fn insertion(i: usize) -> Self {
        Generator::Insertion { i: sym_u8(i) }
    }

    /// `I_i^{-1}`.
    #[must_use]
    pub fn selection(i: usize) -> Self {
        Generator::Selection { i: sym_u8(i) }
    }

    /// `S_{n,i}`.
    #[must_use]
    pub fn swap(n: usize, i: usize) -> Self {
        Generator::Swap {
            n: sym_u8(n),
            i: sym_u8(i),
        }
    }

    /// `R^i_n`, with `i` reduced modulo `l` (callers pass `1..l`).
    #[must_use]
    pub fn rotation(n: usize, i: usize) -> Self {
        Generator::Rotation {
            n: sym_u8(n),
            i: sym_u8(i),
        }
    }

    /// Applies the generator to a node label, yielding the neighbor reached
    /// through this link.
    ///
    /// # Errors
    ///
    /// Returns the underlying [`PermError`] if the generator's indices do not
    /// fit the label's degree (e.g. `T_9` on a degree-5 permutation).
    pub fn apply(&self, u: &Perm) -> Result<Perm, PermError> {
        match *self {
            Generator::Transposition { i } => u.swapped(1, i as usize),
            Generator::Exchange { i, j } => u.swapped(i as usize, j as usize),
            Generator::Insertion { i } => u.prefix_rotated_left(i as usize),
            Generator::Selection { i } => u.prefix_rotated_right(i as usize),
            Generator::Swap { n, i } => u.blocks_swapped(n as usize, i as usize),
            Generator::Rotation { n, i } => {
                let k = u.degree();
                if n == 0 || !(k - 1).is_multiple_of(n as usize) {
                    return Err(PermError::PositionOutOfRange {
                        position: n as usize,
                        degree: k,
                    });
                }
                Ok(u.suffix_rotated_right(n as usize * i as usize))
            }
        }
    }

    /// Applies the generator to a packed label of degree `k`: the word
    /// twin of [`Generator::apply`], a few nibble operations and no
    /// `Result`. `T_i` and `T_{i,j}` swap two lanes, `I_i` and `I_i⁻¹`
    /// rotate the `i`-lane prefix, `S_{n,i}` swaps two `n`-lane blocks and
    /// `R^i` rotates lanes `1..k`.
    ///
    /// Nothing is checked: the generator must be a link of a degree-`k`
    /// network (every generator in a network's list is). Any other
    /// generator yields a permutation of some other degree.
    #[must_use]
    #[inline]
    pub fn apply_packed(self, u: PackedPerm, k: usize) -> PackedPerm {
        let w = u.word();
        let out = match self {
            Generator::Transposition { i } => swap_lanes(w, 0, usize::from(i) - 1, 1),
            Generator::Exchange { i, j } => {
                swap_lanes(w, usize::from(i) - 1, usize::from(j) - 1, 1)
            }
            Generator::Insertion { i } => {
                let (m, top) = (lane_mask(usize::from(i)), 4 * (usize::from(i) - 1));
                let p = w & m;
                (w & !m) | (p >> 4) | ((p & 0xF) << top)
            }
            Generator::Selection { i } => {
                let (m, top) = (lane_mask(usize::from(i)), 4 * (usize::from(i) - 1));
                let p = w & m;
                (w & !m) | ((p << 4) & m) | (p >> top)
            }
            Generator::Swap { n, i } => {
                let n = usize::from(n);
                swap_lanes(w, 1, (usize::from(i) - 1) * n + 1, n)
            }
            Generator::Rotation { n, i } => {
                // Lanes 1..k hold u_2 … u_k; rotate them toward the tail.
                let len = k - 1;
                let s = usize::from(n) * usize::from(i) % len;
                let m = lane_mask(len);
                let seg = (w >> 4) & m;
                let rot = ((seg << (4 * s)) | (seg >> (4 * (len - s)))) & m;
                (w & !(m << 4)) | (rot << 4)
            }
        };
        PackedPerm::from_word(out)
    }

    /// The inverse generator, given the permutation degree `k` (needed to
    /// reduce rotation exponents modulo `l`).
    ///
    /// Transpositions, exchanges and swaps are involutions; insertions and
    /// selections invert each other; `R^i` inverts to `R^{l-i}`.
    #[must_use]
    pub fn inverse(&self, k: usize) -> Generator {
        match *self {
            Generator::Transposition { .. }
            | Generator::Exchange { .. }
            | Generator::Swap { .. } => *self,
            Generator::Insertion { i } => Generator::Selection { i },
            Generator::Selection { i } => Generator::Insertion { i },
            Generator::Rotation { n, i } => {
                let l = (k - 1) / n as usize;
                let inv = (l - (i as usize % l)) % l;
                Generator::Rotation { n, i: sym_u8(inv) }
            }
        }
    }

    /// Whether this generator is a nucleus generator (permutes only the
    /// leftmost `n + 1` symbols) as opposed to a super generator.
    ///
    /// [`Generator::Exchange`] is classified as a nucleus move of the
    /// degenerate one-box game (it permutes individual balls).
    #[must_use]
    pub fn is_nucleus(&self) -> bool {
        !matches!(self, Generator::Swap { .. } | Generator::Rotation { .. })
    }

    /// The generator as an element of `S_k`: the permutation `g` with
    /// `apply(u) = u ∘ g`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Generator::apply`].
    pub fn as_perm(&self, k: usize) -> Result<Perm, PermError> {
        self.apply(&Perm::identity(k))
    }
}

impl Generator {
    /// Parses the compact [`Display`](fmt::Display) notation back into a
    /// generator. Swap and rotation labels omit the box size, so it must be
    /// supplied: `T3`, `T2,5`, `I4`, `I-4`, `S2` (needs `n`), `R^2` (needs
    /// `n`).
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for malformed labels.
    pub fn parse_with_box_size(label: &str, n: usize) -> Result<Self, String> {
        let label = label.trim();
        let err = || format!("cannot parse generator `{label}`");
        let num = |s: &str| s.parse::<usize>().map_err(|_| err());
        if let Some(rest) = label.strip_prefix("I-") {
            return Ok(Generator::selection(num(rest)?));
        }
        if let Some(rest) = label.strip_prefix('I') {
            return Ok(Generator::insertion(num(rest)?));
        }
        if let Some(rest) = label.strip_prefix("R^") {
            return Ok(Generator::rotation(n, num(rest)?));
        }
        if let Some(rest) = label.strip_prefix('S') {
            return Ok(Generator::swap(n, num(rest)?));
        }
        if let Some(rest) = label.strip_prefix('T') {
            return match rest.split_once(',') {
                Some((a, b)) => {
                    let (a, b) = (num(a)?, num(b)?);
                    if a == b {
                        return Err(err());
                    }
                    Ok(Generator::exchange(a, b))
                }
                None => Ok(Generator::transposition(num(rest)?)),
            };
        }
        Err(err())
    }

    /// Parses a whitespace-separated move sequence, e.g. `"S2 T3 S2"`.
    ///
    /// # Errors
    ///
    /// Reports the first malformed label.
    pub fn parse_sequence(labels: &str, n: usize) -> Result<Vec<Self>, String> {
        labels
            .split_whitespace()
            .map(|tok| Self::parse_with_box_size(tok, n))
            .collect()
    }
}

/// The low `lanes` nibbles of a word (`1 ≤ lanes ≤ 16`).
#[inline]
fn lane_mask(lanes: usize) -> u64 {
    u64::MAX >> (64 - 4 * lanes)
}

/// Swaps the `width`-lane blocks starting at lanes `a < b` (which must not
/// overlap) by one xor exchange.
#[inline]
fn swap_lanes(w: u64, a: usize, b: usize, width: usize) -> u64 {
    let x = ((w >> (4 * a)) ^ (w >> (4 * b))) & lane_mask(width);
    w ^ (x << (4 * a)) ^ (x << (4 * b))
}

impl fmt::Display for Generator {
    /// Compact labels matching the paper's notation: `T3`, `T2,5`, `I4`,
    /// `I-4` (selection), `S2`, `R2` / `R-2` style exponents are printed as
    /// `R^2`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Generator::Transposition { i } => write!(f, "T{i}"),
            Generator::Exchange { i, j } => write!(f, "T{i},{j}"),
            Generator::Insertion { i } => write!(f, "I{i}"),
            Generator::Selection { i } => write!(f, "I-{i}"),
            Generator::Swap { i, .. } => write!(f, "S{i}"),
            Generator::Rotation { i, .. } => write!(f, "R^{i}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_invert(/* every kind */) {
        let k = 7;
        let u = Perm::from_rank(k, 1234).unwrap();
        let gens = [
            Generator::transposition(4),
            Generator::exchange(3, 6),
            Generator::insertion(5),
            Generator::selection(5),
            Generator::swap(3, 2),
            Generator::rotation(2, 1),
            Generator::rotation(2, 2),
        ];
        for g in gens {
            let v = g.apply(&u).unwrap();
            let back = g.inverse(k).apply(&v).unwrap();
            assert_eq!(back, u, "inverse of {g} failed");
        }
    }

    #[test]
    fn exchange_normalizes_order() {
        assert_eq!(Generator::exchange(5, 2), Generator::exchange(2, 5));
    }

    #[test]
    #[should_panic(expected = "not a generator")]
    fn exchange_rejects_equal_positions() {
        let _ = Generator::exchange(3, 3);
    }

    #[test]
    fn transposition_is_insertion_then_selection() {
        // T_i = I^{-1}_{i-1} ∘ I_i  (the identity behind Theorems 2, 3, 5).
        let k = 6;
        for i in 3..=k {
            let u = Perm::from_rank(k, 421).unwrap();
            let via_t = Generator::transposition(i).apply(&u).unwrap();
            let via_is = Generator::selection(i - 1)
                .apply(&Generator::insertion(i).apply(&u).unwrap())
                .unwrap();
            assert_eq!(via_t, via_is);
        }
        // Degenerate case: T_2 = I_2.
        let u = Perm::from_rank(k, 99).unwrap();
        assert_eq!(
            Generator::transposition(2).apply(&u).unwrap(),
            Generator::insertion(2).apply(&u).unwrap()
        );
    }

    #[test]
    fn rotation_composes_additively() {
        // R^a ∘ R^b = R^{a+b mod l}.
        let (n, l) = (2usize, 3usize);
        let k = n * l + 1;
        let u = Perm::from_rank(k, 1000).unwrap();
        let a = Generator::rotation(n, 1);
        let b = Generator::rotation(n, 2);
        let both = b.apply(&a.apply(&u).unwrap()).unwrap();
        assert_eq!(both, u); // 1 + 2 ≡ 0 (mod 3)
    }

    #[test]
    fn apply_rejects_mismatched_degree() {
        let u = Perm::identity(4);
        assert!(Generator::transposition(9).apply(&u).is_err());
        assert!(Generator::swap(3, 2).apply(&u).is_err()); // 4 != 3l+1
        assert!(Generator::rotation(2, 1).apply(&u).is_err()); // 3 % 2 != 0
    }

    #[test]
    fn as_perm_right_action_matches_apply() {
        let k = 7;
        let u = Perm::from_rank(k, 2025).unwrap();
        for g in [
            Generator::transposition(3),
            Generator::insertion(6),
            Generator::swap(2, 3),
            Generator::rotation(3, 1),
        ] {
            let gp = g.as_perm(k).unwrap();
            assert_eq!(u.compose(&gp), g.apply(&u).unwrap(), "right action of {g}");
        }
    }

    #[test]
    fn parse_roundtrips_display() {
        let n = 3;
        for g in [
            Generator::transposition(4),
            Generator::exchange(2, 6),
            Generator::insertion(5),
            Generator::selection(5),
            Generator::swap(n, 2),
            Generator::rotation(n, 2),
        ] {
            let label = g.to_string();
            assert_eq!(
                Generator::parse_with_box_size(&label, n).unwrap(),
                g,
                "label {label}"
            );
        }
        assert!(Generator::parse_with_box_size("X7", n).is_err());
        assert!(Generator::parse_with_box_size("T", n).is_err());
        assert!(Generator::parse_with_box_size("T3,3", n).is_err());
        let seq = Generator::parse_sequence("S2 T3  S2", n).unwrap();
        assert_eq!(seq.len(), 3);
        assert!(Generator::parse_sequence("S2 bogus", n).is_err());
    }

    #[test]
    fn generator_orders_match_algebra() {
        // T and S are involutions; I_j has order j; R^1 has order l.
        let k = 7;
        assert_eq!(Generator::transposition(5).as_perm(k).unwrap().order(), 2);
        assert_eq!(Generator::exchange(2, 6).as_perm(k).unwrap().order(), 2);
        assert_eq!(Generator::swap(3, 2).as_perm(k).unwrap().order(), 2);
        for j in 2..=k {
            assert_eq!(
                Generator::insertion(j).as_perm(k).unwrap().order(),
                j as u64,
                "I_{j}"
            );
        }
        // k = 7, n = 2 → l = 3 boxes; R has order 3.
        assert_eq!(Generator::rotation(2, 1).as_perm(k).unwrap().order(), 3);
        // n = 3 → l = 2 boxes; R has order 2.
        assert_eq!(Generator::rotation(3, 1).as_perm(k).unwrap().order(), 2);
    }

    #[test]
    fn display_labels() {
        assert_eq!(Generator::transposition(3).to_string(), "T3");
        assert_eq!(Generator::exchange(2, 5).to_string(), "T2,5");
        assert_eq!(Generator::insertion(4).to_string(), "I4");
        assert_eq!(Generator::selection(4).to_string(), "I-4");
        assert_eq!(Generator::swap(3, 2).to_string(), "S2");
        assert_eq!(Generator::rotation(3, 2).to_string(), "R^2");
    }
}
