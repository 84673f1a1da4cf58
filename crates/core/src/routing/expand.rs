//! Generator expansion: emulating star-graph and transposition-network
//! links on super Cayley graphs (Theorems 1, 2, 3, 6, 7).
//!
//! Every link of the `(ln+1)`-star — the transposition `T_j` — factors over
//! a super Cayley graph as
//! *bring the box containing position `j` to the front, perform the exchange
//! with nucleus moves, return the box*. The per-class constants fall out:
//!
//! | host | expansion of `T_j` (`j > n+1`) | length |
//! |---|---|---|
//! | `MS(l,n)` | `S_{j1+1} · T_{j0+2} · S_{j1+1}` | 3 |
//! | `Complete-RS(l,n)` | `R^{-j1} · T_{j0+2} · R^{j1}` | 3 |
//! | `RS(l,n)` | `R^{∓1}…· T_{j0+2} · R^{±1}…` | `2·min(j1, l−j1) + 1` |
//! | `IS(k)` | `I_j · I_{j-1}^{-1}` | 2 |
//! | `MIS(l,n)` | `S_{j1+1} · I_{j0+2} · I_{j0+1}^{-1} · S_{j1+1}` | 4 |
//! | `Complete-RIS(l,n)` | `R^{-j1} · I_{j0+2} · I_{j0+1}^{-1} · R^{j1}` | 4 |
//!
//! where `j0 = (j−2) mod n` and `j1 = ⌊(j−2)/n⌋`. The paper's Theorem 4
//! statement writes the complete-rotation bring generator as `B_i =
//! R^{-i-1}`; consistency with Theorem 1 requires `B_i = R^{-(i-1)}` (a
//! typo in the paper), which the exhaustive tests below confirm.
//!
//! Transposition-network links `T_{i,j}` expand by the six-case table of
//! Theorem 6; rotation hosts must *rebase* the inner box trip because
//! rotations — unlike swaps — displace every box (the table's composition is
//! verified link-by-link in the tests).

use crate::classes::{NucleusKind, SuperCayleyGraph, SuperKind};
use crate::error::CoreError;
use crate::generator::Generator;

/// Splits a star dimension `j ∈ 2..=k` into `(j0, j1)`:
/// `j0 = (j−2) mod n` (offset inside its box) and `j1 = ⌊(j−2)/n⌋`
/// (box index minus one). `j1 = 0` means position `j` lies in the leftmost
/// box.
#[must_use]
pub fn star_dimension_parts(j: usize, n: usize) -> (usize, usize) {
    ((j - 2) % n, (j - 2) / n)
}

/// Emulation of star-graph links on a super Cayley graph host: the
/// build code of [`RoutePlan`](crate::RoutePlan), which runs every
/// expansion once per network and serves the results as arena slices.
#[derive(Debug, Clone, Copy)]
pub(crate) struct StarEmulation<'a> {
    host: &'a SuperCayleyGraph,
}

impl<'a> StarEmulation<'a> {
    /// Creates an emulation helper for `host`.
    ///
    /// The paper's theorems cover the transposition and insertion-selection
    /// nuclei; for the insertion-only rotator classes (`MR`, `RR`,
    /// `Complete-RR`) we extend the same framework via
    /// `T_x = I_{x-1}^{x-2} ∘ I_x` (the selection is itself a cycle of
    /// insertions, `I_j^{-1} = I_j^{j-1}`), giving a nucleus cost of at
    /// most `n` and a star-link dilation of `2·trip + n` — constant-degree
    /// emulation, though with a larger constant than Theorems 1–3.
    ///
    /// # Errors
    ///
    /// Infallible today; kept fallible for future host kinds.
    pub(crate) fn new(host: &'a SuperCayleyGraph) -> Result<Self, CoreError> {
        Ok(StarEmulation { host })
    }

    fn n(&self) -> usize {
        self.host.box_size()
    }

    fn l(&self) -> usize {
        self.host.levels()
    }

    /// Nucleus realization of the star transposition `T_x` for
    /// `x ∈ 2..=n+1` (position inside the leftmost box).
    fn nucleus_t(&self, x: usize) -> Vec<Generator> {
        debug_assert!((2..=self.n() + 1).contains(&x));
        match self.host.class().nucleus() {
            NucleusKind::Transposition => vec![Generator::transposition(x)],
            NucleusKind::InsertionSelection => {
                // T_x = I_{x-1}^{-1} ∘ I_x ; I_1^{-1} degenerates to identity.
                let mut seq = vec![Generator::insertion(x)];
                if x >= 3 {
                    seq.push(Generator::selection(x - 1));
                }
                seq
            }
            NucleusKind::Insertion => {
                // T_x = I_{x-1}^{-1} ∘ I_x and I_{x-1}^{-1} = I_{x-1}^{x-2}.
                let mut seq = vec![Generator::insertion(x)];
                seq.extend(std::iter::repeat_n(
                    Generator::insertion(x - 1),
                    x.saturating_sub(2),
                ));
                seq
            }
        }
    }

    /// The generator sequence that rotates the box currently in (1-based)
    /// box slot `slot` to slot 1, for rotation hosts. Returns the sequence
    /// and the signed rotation amount applied (in box positions, positive =
    /// rightward/`R`).
    fn rotate_slot_to_front(&self, slot: usize) -> (Vec<Generator>, i64) {
        let (l, n) = (self.l(), self.n());
        debug_assert!((2..=l).contains(&slot));
        let back = slot - 1; // leftward distance
        match self.host.class().super_kind() {
            SuperKind::CompleteRotation => {
                // Single generator R^{l-back} = R^{-back}.
                (vec![Generator::rotation(n, l - back)], -(back as i64))
            }
            SuperKind::Rotation => {
                if back <= l - back {
                    // `back` steps of R^{-1} = R^{l-1}.
                    (vec![Generator::rotation(n, l - 1); back], -(back as i64))
                } else {
                    // `l - back` steps of R.
                    (vec![Generator::rotation(n, 1); l - back], (l - back) as i64)
                }
            }
            SuperKind::Swap | SuperKind::None => {
                // scg-allow(SCG001): rotate/unrotate are only dispatched for rotation-class hosts
                unreachable!("rotation helper called on non-rotation host")
            }
        }
    }

    /// Inverse of a signed rotation amount as a generator sequence.
    fn unrotate(&self, amount: i64) -> Vec<Generator> {
        let (l, n) = (self.l(), self.n());
        let back = amount.rem_euclid(l as i64) as usize; // net rightward shift applied
        if back == 0 {
            return Vec::new();
        }
        match self.host.class().super_kind() {
            SuperKind::CompleteRotation => vec![Generator::rotation(n, l - back)],
            SuperKind::Rotation => {
                if l - back <= back {
                    vec![Generator::rotation(n, 1); l - back]
                } else {
                    vec![Generator::rotation(n, l - 1); back]
                }
            }
            // scg-allow(SCG001): rotate/unrotate are only dispatched for rotation-class hosts
            SuperKind::Swap | SuperKind::None => unreachable!(),
        }
    }

    /// Bring-to-front and return sequences for (1-based) box `b >= 2`,
    /// assuming no prior displacement. For swap hosts this is `S_b` twice;
    /// for rotation hosts it is the appropriate rotation pair.
    fn bring_and_return(&self, b: usize) -> (Vec<Generator>, Vec<Generator>) {
        match self.host.class().super_kind() {
            SuperKind::Swap => {
                let s = Generator::swap(self.n(), b);
                (vec![s], vec![s])
            }
            SuperKind::Rotation | SuperKind::CompleteRotation => {
                let (seq, amount) = self.rotate_slot_to_front(b);
                (seq, self.unrotate(amount))
            }
            SuperKind::None => (Vec::new(), Vec::new()),
        }
    }

    /// Expands the star link `T_j` (Theorems 1–3). The length is 1–2 for
    /// `j <= n+1`, and at most 3 (MS/Complete-RS), 4 (MIS/Complete-RIS), or
    /// `2·min(j1, l−j1) + 2` (RS/RIS) otherwise.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameters`] if `j` is outside `2..=k`.
    pub(crate) fn expand_star_link(&self, j: usize) -> Result<Vec<Generator>, CoreError> {
        let k = self.n() * self.l() + 1;
        if !(2..=k).contains(&j) {
            return Err(CoreError::InvalidParameters { l: self.l(), n: j });
        }
        let (j0, j1) = star_dimension_parts(j, self.n());
        if j1 == 0 {
            return Ok(self.nucleus_t(j));
        }
        let (bring, ret) = self.bring_and_return(j1 + 1);
        let mut seq = bring;
        seq.extend(self.nucleus_t(j0 + 2));
        seq.extend(ret);
        Ok(seq)
    }

    /// Expands the transposition-network link `T_{i,j}` (`1 <= i < j <= k`)
    /// per the six-case table of Theorem 6 (and its Theorem 7 analogue for
    /// insertion-selection nuclei).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameters`] if `(i, j)` is not a valid
    /// position pair.
    pub(crate) fn expand_tn_link(&self, i: usize, j: usize) -> Result<Vec<Generator>, CoreError> {
        let k = self.n() * self.l() + 1;
        if i >= j || i < 1 || j > k {
            return Err(CoreError::InvalidParameters { l: i, n: j });
        }
        if i == 1 {
            // Cases 1 and 2: T_{1,j} is the star link T_j.
            return self.expand_star_link(j);
        }
        let (i0, i1) = star_dimension_parts(i, self.n());
        let (j0, j1) = star_dimension_parts(j, self.n());
        let mut seq = Vec::new();
        match (i1, j1) {
            // Case 3: both in the leftmost box — T_i T_j T_i.
            (0, 0) => {
                seq.extend(self.nucleus_t(i));
                seq.extend(self.nucleus_t(j));
                seq.extend(self.nucleus_t(i));
            }
            // Case 4: i in the leftmost box, j elsewhere —
            // T_i · B_{j1+1} T_{j0+2} B_{j1+1}^{-1} · T_i.
            (0, _) => {
                seq.extend(self.nucleus_t(i));
                seq.extend(self.expand_star_link(j)?);
                seq.extend(self.nucleus_t(i));
            }
            // Case 5: same non-leftmost box —
            // B_{i1+1} · T_{i0+2} T_{j0+2} T_{i0+2} · B_{i1+1}^{-1}.
            (a, b) if a == b => {
                let (bring, ret) = self.bring_and_return(i1 + 1);
                seq.extend(bring);
                seq.extend(self.nucleus_t(i0 + 2));
                seq.extend(self.nucleus_t(j0 + 2));
                seq.extend(self.nucleus_t(i0 + 2));
                seq.extend(ret);
            }
            // Case 6: distinct non-leftmost boxes. For swap hosts the
            // paper's absolute form works; rotation hosts must rebase the
            // inner trip because the first rotation displaced box j1+1.
            _ => match self.host.class().super_kind() {
                SuperKind::Swap => {
                    let s_i = Generator::swap(self.n(), i1 + 1);
                    let s_j = Generator::swap(self.n(), j1 + 1);
                    seq.push(s_i);
                    seq.extend(self.nucleus_t(i0 + 2));
                    seq.push(s_j);
                    seq.extend(self.nucleus_t(j0 + 2));
                    seq.push(s_j);
                    seq.extend(self.nucleus_t(i0 + 2));
                    seq.push(s_i);
                }
                SuperKind::Rotation | SuperKind::CompleteRotation => {
                    let l = self.l() as i64;
                    let (bring_i, amount_i) = self.rotate_slot_to_front(i1 + 1);
                    // Box j1+1 now sits in slot (j1 + amount) mod l + 1.
                    let slot_j = ((j1 as i64 + amount_i).rem_euclid(l)) as usize + 1;
                    let (bring_j, amount_j) = self.rotate_slot_to_front(slot_j);
                    // Return box j1+1's trip, then undo everything.
                    seq.extend(bring_i);
                    seq.extend(self.nucleus_t(i0 + 2));
                    seq.extend(bring_j);
                    seq.extend(self.nucleus_t(j0 + 2));
                    seq.extend(self.unrotate(amount_j));
                    seq.extend(self.nucleus_t(i0 + 2));
                    seq.extend(self.unrotate(amount_i));
                }
                // scg-allow(SCG001): the i1 == j1 branch above already handled l = 1 hosts
                SuperKind::None => unreachable!("l = 1 implies i1 = j1 = 0"),
            },
        }
        Ok(seq)
    }

    /// The worst-case expansion length of a star link on this host: the
    /// embedding dilation of Theorems 1–3.
    #[must_use]
    pub(crate) fn star_dilation(&self) -> usize {
        let (l, n) = (self.l(), self.n());
        let trip = match self.host.class().super_kind() {
            SuperKind::None => 0,
            SuperKind::Swap | SuperKind::CompleteRotation => usize::from(l >= 2),
            SuperKind::Rotation => l / 2,
        };
        let nucleus = match self.host.class().nucleus() {
            NucleusKind::Transposition => 1,
            NucleusKind::InsertionSelection => usize::from(n >= 2) + 1,
            // Worst case x = n+1: one I_{n+1} plus n-1 repetitions of I_n.
            NucleusKind::Insertion => n.max(1),
        };
        2 * trip + nucleus
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classes::apply_path;
    use crate::network::CayleyNetwork;
    use scg_perm::Perm;

    fn check_star_expansion(host: &SuperCayleyGraph) {
        let emu = StarEmulation::new(host).unwrap();
        let k = host.box_size() * host.levels() + 1;
        let u = Perm::from_rank(k, 12345 % scg_perm::factorial(k)).unwrap();
        for j in 2..=k {
            let seq = emu.expand_star_link(j).unwrap();
            let via_host = apply_path(&u, &seq).unwrap();
            let direct = Generator::transposition(j).apply(&u).unwrap();
            assert_eq!(via_host, direct, "{} T_{j}", host.name());
            assert!(
                seq.len() <= emu.star_dilation(),
                "{} T_{j} too long",
                host.name()
            );
        }
    }

    #[test]
    fn theorem_1_macro_star() {
        for (l, n) in [(2, 2), (3, 2), (2, 3), (4, 3), (3, 4)] {
            check_star_expansion(&SuperCayleyGraph::macro_star(l, n).unwrap());
        }
    }

    #[test]
    fn theorem_1_complete_rotation_star() {
        for (l, n) in [(2, 2), (3, 2), (4, 3), (5, 3), (6, 2)] {
            check_star_expansion(&SuperCayleyGraph::complete_rotation_star(l, n).unwrap());
        }
    }

    #[test]
    fn rotation_star_expansion() {
        for (l, n) in [(2, 2), (3, 2), (5, 3), (6, 2)] {
            check_star_expansion(&SuperCayleyGraph::rotation_star(l, n).unwrap());
        }
    }

    #[test]
    fn theorem_2_insertion_selection() {
        for k in [3, 5, 8] {
            let host = SuperCayleyGraph::insertion_selection(k).unwrap();
            check_star_expansion(&host);
            let emu = StarEmulation::new(&host).unwrap();
            assert!(emu.star_dilation() <= 2);
        }
    }

    #[test]
    fn theorem_3_mis_and_cris() {
        for (l, n) in [(2, 2), (3, 2), (4, 3)] {
            check_star_expansion(&SuperCayleyGraph::macro_is(l, n).unwrap());
            check_star_expansion(&SuperCayleyGraph::complete_rotation_is(l, n).unwrap());
            let mis = SuperCayleyGraph::macro_is(l, n).unwrap();
            assert_eq!(StarEmulation::new(&mis).unwrap().star_dilation(), 4);
        }
    }

    #[test]
    fn dilation_constants_match_theorems() {
        let ms = SuperCayleyGraph::macro_star(4, 3).unwrap();
        assert_eq!(StarEmulation::new(&ms).unwrap().star_dilation(), 3);
        let crs = SuperCayleyGraph::complete_rotation_star(4, 3).unwrap();
        assert_eq!(StarEmulation::new(&crs).unwrap().star_dilation(), 3);
        let is = SuperCayleyGraph::insertion_selection(10).unwrap();
        assert_eq!(StarEmulation::new(&is).unwrap().star_dilation(), 2);
        let cris = SuperCayleyGraph::complete_rotation_is(4, 3).unwrap();
        assert_eq!(StarEmulation::new(&cris).unwrap().star_dilation(), 4);
    }

    #[test]
    fn rotator_hosts_expand_via_insertion_cycles() {
        // The extension beyond the paper's theorems: MR/RR/Complete-RR
        // realize T_x with x-1 insertions, so star links expand correctly.
        for host in [
            SuperCayleyGraph::macro_rotator(2, 2).unwrap(),
            SuperCayleyGraph::macro_rotator(3, 2).unwrap(),
            SuperCayleyGraph::rotation_rotator(3, 2).unwrap(),
            SuperCayleyGraph::complete_rotation_rotator(3, 2).unwrap(),
            SuperCayleyGraph::macro_rotator(2, 3).unwrap(),
        ] {
            check_star_expansion(&host);
        }
        let mr = SuperCayleyGraph::macro_rotator(2, 3).unwrap();
        // Dilation 2·1 + n = 5 for MR(2,3).
        assert_eq!(StarEmulation::new(&mr).unwrap().star_dilation(), 5);
    }

    fn check_tn_expansion(host: &SuperCayleyGraph, max_len: usize) {
        let emu = StarEmulation::new(host).unwrap();
        let k = host.box_size() * host.levels() + 1;
        let u = Perm::from_rank(k, 271_828 % scg_perm::factorial(k)).unwrap();
        let mut worst = 0;
        for i in 1..=k {
            for j in i + 1..=k {
                let seq = emu.expand_tn_link(i, j).unwrap();
                let via_host = apply_path(&u, &seq).unwrap();
                let direct = Generator::exchange(i, j).apply(&u).unwrap();
                assert_eq!(via_host, direct, "{} T_{{{i},{j}}}", host.name());
                worst = worst.max(seq.len());
            }
        }
        assert!(
            worst <= max_len,
            "{}: dilation {worst} > {max_len}",
            host.name()
        );
    }

    #[test]
    fn theorem_6_tn_into_ms_and_crs() {
        // Dilation 5 when l = 2, 7 when l >= 3.
        check_tn_expansion(&SuperCayleyGraph::macro_star(2, 3).unwrap(), 5);
        check_tn_expansion(&SuperCayleyGraph::macro_star(3, 2).unwrap(), 7);
        check_tn_expansion(&SuperCayleyGraph::macro_star(4, 3).unwrap(), 7);
        check_tn_expansion(&SuperCayleyGraph::complete_rotation_star(2, 3).unwrap(), 5);
        check_tn_expansion(&SuperCayleyGraph::complete_rotation_star(3, 2).unwrap(), 7);
        check_tn_expansion(&SuperCayleyGraph::complete_rotation_star(4, 3).unwrap(), 7);
    }

    #[test]
    fn theorem_7_tn_into_is_mis_cris() {
        // k-IS: dilation 6; MIS/Complete-RIS: O(1) (≤ 10 via the 6-case
        // table with 2-step nucleus transpositions).
        check_tn_expansion(&SuperCayleyGraph::insertion_selection(6).unwrap(), 6);
        check_tn_expansion(&SuperCayleyGraph::macro_is(3, 2).unwrap(), 10);
        check_tn_expansion(&SuperCayleyGraph::complete_rotation_is(3, 2).unwrap(), 10);
    }

    #[test]
    fn star_dimension_parts_examples() {
        // Figure 1 caption: j0 = (j-2) mod 3, j1 = floor((j-2)/3).
        assert_eq!(star_dimension_parts(5, 3), (0, 1));
        assert_eq!(star_dimension_parts(13, 3), (2, 3));
        assert_eq!(star_dimension_parts(4, 3), (2, 0));
    }

    #[test]
    fn paper_typo_b_i_is_not_r_minus_i_minus_1() {
        // Theorem 4 writes B_i = R^{-i-1}; the correct bring generator for
        // box i is R^{-(i-1)}. Check that the literal reading fails to
        // emulate T_j while ours succeeds.
        let host = SuperCayleyGraph::complete_rotation_star(4, 3).unwrap();
        let k = 13;
        let u = Perm::identity(k);
        let j = 6; // j0 = 1, j1 = 1, box 2
        let (n, l) = (3usize, 4usize);
        // Literal "R^{-i-1}" with i = 2: R^{-3} = R^{l-3} = R^1.
        let literal = [
            Generator::rotation(n, (2 * l - 3) % l),
            Generator::transposition(3),
            Generator::rotation(n, 3 % l),
        ];
        let direct = Generator::transposition(j).apply(&u).unwrap();
        assert_ne!(apply_path(&u, &literal).unwrap(), direct);
        // Our corrected expansion succeeds (also covered by the exhaustive
        // tests above).
        let emu = StarEmulation::new(&host).unwrap();
        let seq = emu.expand_star_link(j).unwrap();
        assert_eq!(apply_path(&u, &seq).unwrap(), direct);
    }
}
