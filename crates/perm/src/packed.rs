//! The bit-packed permutation kernel: a whole permutation in one `u64`.
//!
//! For `k ≤ 16` a permutation of `1..=k` fits a single machine word at
//! 4 bits per symbol, and the group operations the routing hot path bottoms
//! out in — compose and inverse — become short
//! branch-free sequences of shifts and masks over that word. `scg_core`'s
//! route planner runs every pair route on this kernel and has no other
//! path: above [`MAX_PACKED_DEGREE`] it refuses the route with the same
//! [`PackedDegreeOutOfRange`](crate::PermError::PackedDegreeOutOfRange)
//! error that [`PackedPerm::pack`] returns.
//!
//! # Bit layout
//!
//! Nibble `i` (bits `4i .. 4i+4`) holds the **0-based** symbol at 1-based
//! position `i + 1`, i.e. `u_{i+1} − 1`:
//!
//! ```text
//!   u64:  [nib15][nib14] … [nib2][nib1][nib0]
//!          pos16  pos15      pos3  pos2  pos1
//! ```
//!
//! Positions above the degree are padded with the **identity** (`nib_i =
//! i`), so every operation is degree-agnostic: composing or inverting the
//! full 16 nibbles preserves the padding, and no `PackedPerm` needs to
//! carry its degree. The identity permutation of any degree is the single
//! word [`PACKED_IDENTITY`] = `0xFEDC_BA98_7654_3210`.
//!
//! # Examples
//!
//! ```
//! use scg_perm::{PackedPerm, Perm};
//!
//! # fn main() -> Result<(), scg_perm::PermError> {
//! let u: Perm = "3 1 4 2".parse()?;
//! let v: Perm = "2 4 1 3".parse()?;
//! let (pu, pv) = (PackedPerm::pack(&u)?, PackedPerm::pack(&v)?);
//! assert_eq!(pu.compose(pv), PackedPerm::pack(&u.compose(&v))?);
//! assert_eq!(pu.inverse().unpack(4)?, u.inverse());
//! assert_eq!(pu.rank(4)?, u.rank());
//! # Ok(())
//! # }
//! ```

use crate::cast::nib_u8;
use crate::error::PermError;
use crate::perm::Perm;
use crate::rank::factorial;

/// Maximum degree a [`PackedPerm`] can hold: 16 nibbles fill the `u64`.
pub const MAX_PACKED_DEGREE: usize = 16;

/// The packed identity permutation of every degree `k ≤ 16`: nibble `i`
/// holds `i`.
pub const PACKED_IDENTITY: u64 = 0xFEDC_BA98_7654_3210;

/// A permutation of `1..=k`, `k ≤ 16`, packed 4 bits per symbol into one
/// `u64`: nibble `i` holds the 0-based symbol at position `i + 1`, and the
/// nibbles above `k` hold the identity padding of [`PACKED_IDENTITY`].
///
/// The type is deliberately a bare word: it is `Copy`, 8 bytes, and every
/// group operation is straight-line integer arithmetic. Degrees are not
/// stored — unused nibbles carry the identity padding, which all
/// operations preserve — so the degree reappears only at the [`Perm`]
/// bridges ([`pack`](PackedPerm::pack) / [`unpack`](PackedPerm::unpack))
/// and the Lehmer rank/unrank pair.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PackedPerm(u64);

impl PackedPerm {
    /// The identity permutation (of every degree up to 16).
    #[must_use]
    pub fn identity() -> Self {
        PackedPerm(PACKED_IDENTITY)
    }

    /// Packs a [`Perm`] into the word representation.
    ///
    /// # Errors
    ///
    /// Returns [`PermError::PackedDegreeOutOfRange`] if the degree exceeds
    /// [`MAX_PACKED_DEGREE`].
    pub fn pack(p: &Perm) -> Result<Self, PermError> {
        let k = p.degree();
        if k > MAX_PACKED_DEGREE {
            return Err(PermError::PackedDegreeOutOfRange { degree: k });
        }
        // Identity padding above the degree, symbols below it.
        let mut w = if k < MAX_PACKED_DEGREE {
            PACKED_IDENTITY & !((1u64 << (4 * k)) - 1)
        } else {
            0
        };
        for (i, &s) in p.symbols().iter().enumerate() {
            w |= u64::from(s - 1) << (4 * i);
        }
        Ok(PackedPerm(w))
    }

    /// Unpacks the first `k` nibbles into a [`Perm`] of degree `k`.
    ///
    /// # Errors
    ///
    /// Returns [`PermError::PackedDegreeOutOfRange`] if `k` is zero or
    /// exceeds [`MAX_PACKED_DEGREE`], and [`PermError::NotAPermutation`]
    /// if the first `k` nibbles are not a permutation of `0..k` (possible
    /// only for words built from raw input, not from
    /// [`pack`](PackedPerm::pack)ed values of the same degree).
    pub fn unpack(self, k: usize) -> Result<Perm, PermError> {
        if !(1..=MAX_PACKED_DEGREE).contains(&k) {
            return Err(PermError::PackedDegreeOutOfRange { degree: k });
        }
        let mut symbols = [0u8; MAX_PACKED_DEGREE];
        for (i, slot) in symbols.iter_mut().enumerate().take(k) {
            *slot = nib_u8((self.0 >> (4 * i)) & 0xF) + 1;
        }
        Perm::from_symbols(&symbols[..k])
    }

    /// The raw packed word.
    #[must_use]
    pub fn word(self) -> u64 {
        self.0
    }

    /// Wraps a raw word without validation beyond a debug-build check
    /// that every nibble value appears exactly once.
    ///
    /// Intended for words produced by packed arithmetic (e.g. carried
    /// through structure-of-arrays batch lanes); arbitrary input should go
    /// through [`pack`](PackedPerm::pack) / [`unpack`](PackedPerm::unpack)
    /// instead.
    #[must_use]
    pub fn from_word(w: u64) -> Self {
        debug_assert!(
            Self::word_is_permutation(w),
            "word {w:#018x} is not a packed permutation"
        );
        PackedPerm(w)
    }

    /// Whether every nibble value `0..16` appears exactly once in `w`.
    fn word_is_permutation(mut w: u64) -> bool {
        let mut seen = 0u32;
        for _ in 0..MAX_PACKED_DEGREE {
            seen |= 1u32 << (w & 0xF);
            w >>= 4;
        }
        seen == 0xFFFF
    }

    /// The 1-based symbol at 1-based position `pos` (`u_pos`), matching
    /// [`Perm::symbol_at`].
    ///
    /// # Panics
    ///
    /// Panics if `pos` is outside `1..=16`.
    #[must_use]
    pub fn symbol_at(self, pos: usize) -> u8 {
        assert!(
            (1..=MAX_PACKED_DEGREE).contains(&pos),
            "position {pos} outside 1..={MAX_PACKED_DEGREE}"
        );
        nib_u8((self.0 >> (4 * (pos - 1))) & 0xF) + 1
    }

    /// Whether this is the identity permutation.
    #[must_use]
    pub fn is_identity(self) -> bool {
        self.0 == PACKED_IDENTITY
    }

    /// Functional composition `self ∘ other` (`i ↦ self(other(i))`),
    /// bit-identical to [`Perm::compose`] through the pack bridge.
    ///
    /// Identity padding is preserved, so the result is valid at whatever
    /// degree the operands were packed at (equal degrees, as with
    /// [`Perm::compose`]; mixed degrees have no group meaning but stay
    /// valid words).
    ///
    /// Sixteen nibble gathers — each one shift-mask-shift, no branches,
    /// no memory traffic.
    #[must_use]
    pub fn compose(self, other: PackedPerm) -> PackedPerm {
        let a = self.0;
        let mut t = other.0;
        let mut out = 0u64;
        let mut sh = 0u64;
        while sh < 64 {
            out |= ((a >> ((t & 0xF) * 4)) & 0xF) << sh;
            t >>= 4;
            sh += 4;
        }
        PackedPerm(out)
    }

    /// The group inverse: `self.inverse().compose(self)` is the identity.
    ///
    /// Sixteen nibble scatters, branch-free.
    #[must_use]
    pub fn inverse(self) -> PackedPerm {
        let mut t = self.0;
        let mut out = 0u64;
        for i in 0..MAX_PACKED_DEGREE as u64 {
            out |= i << ((t & 0xF) * 4);
            t >>= 4;
        }
        PackedPerm(out)
    }

    /// The lexicographic Lehmer rank among all `k!` permutations of
    /// degree `k`, matching [`Perm::rank`] (identity ↦ 0).
    ///
    /// Runs entirely on the packed word in `O(k)`: a bitmask of the
    /// symbols already seen gives each Lehmer digit as `v_i` minus the
    /// seen symbols below `v_i` (the smaller symbols not seen yet are
    /// exactly those to the right of position `i`), folded Horner-style in
    /// the factorial number system.
    ///
    /// # Errors
    ///
    /// Returns [`PermError::PackedDegreeOutOfRange`] if `k` is zero or
    /// exceeds [`MAX_PACKED_DEGREE`].
    pub fn rank(self, k: usize) -> Result<u64, PermError> {
        if !(1..=MAX_PACKED_DEGREE).contains(&k) {
            return Err(PermError::PackedDegreeOutOfRange { degree: k });
        }
        let mut r = 0u64;
        let mut seen = 0u64;
        let mut t = self.0;
        for i in 0..k {
            let below = 1u64 << (t & 0xF);
            let digit = (t & 0xF) - u64::from((seen & (below - 1)).count_ones());
            seen |= below;
            r = r * (k - i) as u64 + digit;
            t >>= 4;
        }
        Ok(r)
    }

    /// The packed permutation of degree `k` with lexicographic rank `r`,
    /// matching [`Perm::from_rank`] through the pack bridge.
    ///
    /// The symbol pool lives in a second packed word; selecting and
    /// removing the Lehmer-indexed symbol is a shift/mask splice, so the
    /// whole unrank is allocation-free word arithmetic.
    ///
    /// # Errors
    ///
    /// Returns [`PermError::PackedDegreeOutOfRange`] for a bad degree and
    /// [`PermError::RankOutOfRange`] if `r >= k!`.
    pub fn from_rank(k: usize, r: u64) -> Result<Self, PermError> {
        if !(1..=MAX_PACKED_DEGREE).contains(&k) {
            return Err(PermError::PackedDegreeOutOfRange { degree: k });
        }
        if r >= factorial(k) {
            return Err(PermError::RankOutOfRange { rank: r, degree: k });
        }
        let mut pool = PACKED_IDENTITY; // remaining symbols, ascending
        let mut out = 0u64;
        let mut rem = r;
        for i in 0..k {
            let f = factorial(k - 1 - i);
            let d = rem / f; // Lehmer digit: index into the pool
            rem %= f;
            let sh = d * 4;
            out |= ((pool >> sh) & 0xF) << (4 * i);
            // Splice nibble `d` out of the pool: entries below `d` stay,
            // entries above it slide down one lane.
            let low = (1u64 << sh) - 1;
            pool = (pool & low) | ((pool >> 4) & !low);
        }
        // The unpicked tail of the pool is exactly the identity padding.
        if k < MAX_PACKED_DEGREE {
            out |= pool << (4 * k);
        }
        Ok(PackedPerm(out))
    }
}

impl std::fmt::Debug for PackedPerm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PackedPerm({:#018x})", self.0)
    }
}

impl std::fmt::Display for PackedPerm {
    /// Formats all sixteen lanes as 1-based symbols, position 1 first,
    /// e.g. `3 1 4 2 5 6 …` — the paper's label notation padded with the
    /// identity tail.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for pos in 1..=MAX_PACKED_DEGREE {
            if pos > 1 {
                write!(f, " ")?;
            }
            write!(f, "{}", self.symbol_at(pos))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::XorShift64;
    use crate::Permutations;

    #[test]
    fn identity_is_identity() {
        assert!(PackedPerm::identity().is_identity());
        for k in 1..=MAX_PACKED_DEGREE {
            assert_eq!(
                PackedPerm::pack(&Perm::identity(k)).unwrap(),
                PackedPerm::identity(),
                "degree {k} identity packs to the shared identity word"
            );
        }
    }

    #[test]
    fn pack_unpack_roundtrip_random() {
        let mut rng = XorShift64::new(0xBEEF);
        for k in 1..=MAX_PACKED_DEGREE {
            for _ in 0..50 {
                let p = Perm::random(k, &mut rng);
                let packed = PackedPerm::pack(&p).unwrap();
                assert_eq!(packed.unpack(k).unwrap(), p);
                assert_eq!(PackedPerm::from_word(packed.word()), packed);
            }
        }
    }

    #[test]
    fn degree_limit_is_enforced() {
        let p = Perm::identity(17);
        assert_eq!(
            PackedPerm::pack(&p).unwrap_err(),
            PermError::PackedDegreeOutOfRange { degree: 17 }
        );
        assert!(PackedPerm::identity().unpack(0).is_err());
        assert!(PackedPerm::identity().unpack(17).is_err());
        assert!(PackedPerm::identity().rank(17).is_err());
        assert!(PackedPerm::from_rank(17, 0).is_err());
        assert!(PackedPerm::from_rank(5, 120).is_err());
    }

    #[test]
    fn compose_matches_perm_exhaustive_s5() {
        let perms: Vec<Perm> = Permutations::lexicographic(5).collect();
        let packed: Vec<PackedPerm> = perms.iter().map(|p| PackedPerm::pack(p).unwrap()).collect();
        for (a, pa) in perms.iter().zip(&packed) {
            for (b, pb) in perms.iter().zip(&packed) {
                assert_eq!(
                    pa.compose(*pb),
                    PackedPerm::pack(&a.compose(b)).unwrap(),
                    "{a} ∘ {b}"
                );
            }
        }
    }

    #[test]
    fn inverse_and_rank_match_perm_exhaustive_s6() {
        for p in Permutations::lexicographic(6) {
            let packed = PackedPerm::pack(&p).unwrap();
            assert_eq!(packed.inverse(), PackedPerm::pack(&p.inverse()).unwrap());
            assert_eq!(packed.rank(6).unwrap(), p.rank());
            assert_eq!(PackedPerm::from_rank(6, p.rank()).unwrap(), packed);
        }
    }

    #[test]
    fn display_and_debug_render() {
        let p = PackedPerm::pack(&"3 1 4 2".parse::<Perm>().unwrap()).unwrap();
        let s = p.to_string();
        assert!(s.starts_with("3 1 4 2 5 6"), "{s}");
        assert!(format!("{p:?}").starts_with("PackedPerm(0x"));
    }
}
