//! The compiled route planner: per-network expansion arenas.
//!
//! The crate-private star emulation proves the theorems but allocates a
//! fresh cascade of tiny `Vec<Generator>`s on every expansion — fine for
//! validation, wrong for the hot path. A [`RoutePlan`] runs that logic
//! **once per network**: at construction it expands every star link
//! `T_2..T_k` (Theorems 1–3) and every transposition-network link
//! `T_{i,j}` (the six-case table of Theorems 6–7) into a single flat
//! `Generator` arena indexed by per-link offsets. After that, a link expansion is a pure slice lookup
//! and a full route is the greedy star-sort loop writing
//! `extend_from_slice` into a caller-supplied reusable [`RouteBuf`] — zero
//! heap allocation on the steady-state path.
//!
//! The star-sort itself runs on [`PackedPerm`] words: the relative
//! permutation is one `u64`, moves are nibble swaps, and cycle openings
//! are mask/ctz selection. It is one loop, [`RoutePlan::star_sort_links`],
//! which reports each move's star link to a visitor: the route entry
//! points expand links into hops, and a caller holding raw wire labels
//! packs them with [`RoutePlan::pack_labels`] and emits anything per
//! link. Routing a pair therefore needs `k ≤ 16`
//! (every shape the paper names); plans still build up to `k = 20`, so
//! link lookups work there, but routing a pair at `k > 16` is refused
//! with [`PermError::PackedDegreeOutOfRange`]. Batches go through
//! [`RoutePlan::route_chunk`], which keeps per-pair state in parallel
//! `u64` lanes ([`BatchState`]) so the pack pass autovectorizes.
//!
//! A plan is the one place fault-free routes come from:
//! [`RoutePlan::route`] for one pair, [`RoutePlan::route_into`] into a
//! reused buffer, [`RoutePlan::route_chunk`] for a slice of pairs, and
//! [`RoutePlan::pack_labels`] with [`RoutePlan::star_sort_links`] for
//! wire bytes. [`route_faulty`](crate::route_faulty) walks its routes
//! around faults.
//!
//! Plans are cached per network inside the shared
//! [`TopologyCache`](crate::TopologyCache) (see [`route_plan`](crate::route_plan)),
//! so routing, communication, embedding, and emulation all compile each
//! network exactly once per process.
//!
//! # Examples
//!
//! ```
//! use scg_core::{apply_path, RoutePlan, SuperCayleyGraph};
//! use scg_perm::Perm;
//!
//! # fn main() -> Result<(), scg_core::CoreError> {
//! let ms = SuperCayleyGraph::macro_star(3, 2)?;
//! let plan = RoutePlan::build(&ms)?;
//! assert_eq!(plan.star_link(6)?.len(), 3); // Theorem 1, precompiled
//!
//! let mut buf = plan.new_buf();
//! let from: Perm = "7 6 5 4 3 2 1".parse()?;
//! let to = Perm::identity(7);
//! plan.route_into(&from, &to, &mut buf)?; // no heap allocation
//! assert_eq!(apply_path(&from, buf.hops())?, to);
//! # Ok(())
//! # }
//! ```

use scg_perm::cast::len_u32;
use scg_perm::{PackedPerm, Perm, PermError, MAX_PACKED_DEGREE, PACKED_IDENTITY};

use crate::classes::SuperCayleyGraph;
use crate::error::CoreError;
use crate::generator::Generator;
use crate::network::CayleyNetwork;
use crate::routing::expand::StarEmulation;
use crate::routing::star_route::star_diameter;

/// A per-network compiled routing artifact: every Theorem 1–3 star-link
/// expansion and every Theorem 6–7 TN-link expansion, flattened into one
/// arena and served as slices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoutePlan {
    name: String,
    k: usize,
    dilation: usize,
    /// The network's generators in slot order (the out-slots of its
    /// materialized graph).
    gens: Vec<Generator>,
    /// All expansions back to back: star links first (`T_2..T_k` in
    /// order), then TN links in pair-index order.
    arena: Vec<Generator>,
    /// `star_offsets[j-2]..star_offsets[j-1]` spans `T_j`; length `k`.
    star_offsets: Vec<u32>,
    /// `tn_offsets[p]..tn_offsets[p+1]` spans pair index `p` (see
    /// [`RoutePlan::tn_pair_index`]); length `k(k−1)/2 + 1`.
    tn_offsets: Vec<u32>,
}

impl RoutePlan {
    /// Compiles the plan for `net` by running the star-emulation
    /// expansions once for every link.
    ///
    /// Cost is `O(k²)` expansions and is independent of the `k!` node
    /// count — building a plan never materializes the network.
    ///
    /// # Errors
    ///
    /// Infallible today (every link of every class expands); kept
    /// fallible for future host kinds.
    pub fn build(net: &SuperCayleyGraph) -> Result<Self, CoreError> {
        #[cfg(feature = "obs")]
        // scg-allow(SCG005): RAII scope timer; the binding keeps the guard alive
        let _timer = crate::obs_hooks::plan_build_timer(&net.name());
        let emu = StarEmulation::new(net)?;
        let k = net.degree_k();
        let mut arena = Vec::new();
        let mut star_offsets = Vec::with_capacity(k);
        star_offsets.push(0u32);
        for j in 2..=k {
            arena.extend(emu.expand_star_link(j)?);
            star_offsets.push(len_u32(arena.len()));
        }
        let mut tn_offsets = Vec::with_capacity(k * (k - 1) / 2 + 1);
        tn_offsets.push(len_u32(arena.len()));
        for i in 1..=k {
            for j in i + 1..=k {
                arena.extend(emu.expand_tn_link(i, j)?);
                tn_offsets.push(len_u32(arena.len()));
            }
        }
        arena.shrink_to_fit();
        Ok(RoutePlan {
            name: net.name(),
            k,
            dilation: emu.star_dilation(),
            gens: net.generators().to_vec(),
            arena,
            star_offsets,
            tn_offsets,
        })
    }

    /// The network name this plan was compiled for, e.g. `MS(3,2)`.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The permutation degree `k`.
    #[must_use]
    pub fn degree_k(&self) -> usize {
        self.k
    }

    /// The network's generators in slot order, as
    /// [`CayleyNetwork::generators`] lists them.
    #[must_use]
    pub fn generators(&self) -> &[Generator] {
        &self.gens
    }

    /// Worst-case star-link expansion length: the Theorem 1–3 dilation.
    #[must_use]
    pub fn star_dilation(&self) -> usize {
        self.dilation
    }

    /// Total number of generators stored in the arena.
    #[must_use]
    pub fn arena_len(&self) -> usize {
        self.arena.len()
    }

    /// The precompiled expansion of the star link `T_j` — a slice into
    /// the arena, no allocation.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameters`] if `j` is outside `2..=k`.
    pub fn star_link(&self, j: usize) -> Result<&[Generator], CoreError> {
        if !(2..=self.k).contains(&j) {
            return Err(CoreError::InvalidParameters { l: self.k, n: j });
        }
        Ok(self.star_link_unchecked(j))
    }

    /// `star_link` without the range check; `j` must be in `2..=k`.
    #[inline]
    fn star_link_unchecked(&self, j: usize) -> &[Generator] {
        let lo = self.star_offsets[j - 2] as usize;
        let hi = self.star_offsets[j - 1] as usize;
        &self.arena[lo..hi]
    }

    /// The index of pair `(i, j)`, `1 ≤ i < j ≤ k`, in row-major upper
    /// triangle order: `(1,2), (1,3), …, (1,k), (2,3), …`.
    #[inline]
    fn tn_pair_index(&self, i: usize, j: usize) -> usize {
        (i - 1) * self.k - i * (i - 1) / 2 + (j - i - 1)
    }

    /// The precompiled expansion of the transposition-network link
    /// `T_{i,j}` — a slice into the arena, no allocation.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameters`] if `(i, j)` is not a
    /// valid position pair (`1 ≤ i < j ≤ k`).
    pub fn tn_link(&self, i: usize, j: usize) -> Result<&[Generator], CoreError> {
        if i >= j || i < 1 || j > self.k {
            return Err(CoreError::InvalidParameters { l: i, n: j });
        }
        let p = self.tn_pair_index(i, j);
        let lo = self.tn_offsets[p] as usize;
        let hi = self.tn_offsets[p + 1] as usize;
        Ok(&self.arena[lo..hi])
    }

    /// A [`RouteBuf`] pre-sized for this network's worst-case route
    /// (`star_dilation × star_diameter` hops), so even the first
    /// [`route_into`](RoutePlan::route_into) call performs no heap
    /// allocation.
    #[must_use]
    pub fn new_buf(&self) -> RouteBuf {
        RouteBuf::with_capacity(self.dilation * star_diameter(self.k) as usize)
    }

    /// Routes `from → to` by the greedy star-sort loop, appending each
    /// link's precompiled expansion to `buf`. The buffer is cleared
    /// first; on success it holds the full generator path.
    ///
    /// The loop runs on the bit-packed kernel — the relative permutation
    /// `to⁻¹ ∘ from` lives in one `u64` ([`PackedPerm`]), each move is a
    /// nibble swap, and cycle openings are mask/count-trailing-zeros
    /// selection instead of a positional scan.
    ///
    /// Allocation-free whenever `buf`'s capacity suffices — buffers from
    /// [`new_buf`](RoutePlan::new_buf) always do.
    ///
    /// # Errors
    ///
    /// * [`CoreError::DegreeMismatch`] — either label's degree differs
    ///   from the network's;
    /// * [`CoreError::Perm`] with [`PermError::PackedDegreeOutOfRange`] —
    ///   the network has `k > 16`.
    pub fn route_into(&self, from: &Perm, to: &Perm, buf: &mut RouteBuf) -> Result<(), CoreError> {
        self.check_packed_degree()?;
        self.check_degrees(from, to)?;
        buf.hops.clear();
        self.route_packed(self.pack_pair(from, to), buf);
        Ok(())
    }

    /// Both labels must have the network's degree.
    #[inline]
    pub(crate) fn check_degrees(&self, from: &Perm, to: &Perm) -> Result<(), CoreError> {
        for p in [from, to] {
            if p.degree() != self.k {
                return Err(CoreError::DegreeMismatch {
                    expected: self.k,
                    found: p.degree(),
                });
            }
        }
        Ok(())
    }

    /// Pair routing runs on the packed kernel only, so it needs
    /// `k ≤ MAX_PACKED_DEGREE`.
    #[inline]
    fn check_packed_degree(&self) -> Result<(), CoreError> {
        if self.k > MAX_PACKED_DEGREE {
            return Err(PermError::PackedDegreeOutOfRange { degree: self.k }.into());
        }
        Ok(())
    }

    /// The relative permutation `to⁻¹ ∘ from` as a packed word — the
    /// whole per-pair routing state of the packed path. Degrees must
    /// already be validated equal and `≤ MAX_PACKED_DEGREE`.
    ///
    /// This fuses `pack(to).inverse().compose(pack(from))` into two
    /// `k`-iteration nibble passes (scatter `to⁻¹`, then gather through
    /// it). A debug assertion pins it to the composed kernel ops.
    #[inline]
    fn pack_pair(&self, from: &Perm, to: &Perm) -> u64 {
        let mut inv_to = 0u64;
        for (pos, &sym) in to.symbols().iter().enumerate() {
            inv_to |= (pos as u64) << (4 * (u64::from(sym) - 1));
        }
        let mut w = self.padding();
        for (i, &sym) in from.symbols().iter().enumerate() {
            w |= ((inv_to >> (4 * (u64::from(sym) - 1))) & 0xF) << (4 * i);
        }
        debug_assert_eq!(
            Some(w),
            Self::pack_pair_reference(from, to),
            "fused relative word diverges from the PackedPerm kernel ops"
        );
        w
    }

    /// Identity padding on the lanes `k..16`, which keeps every packed op
    /// degree-agnostic (`k = 16` fills the whole word).
    #[inline]
    fn padding(&self) -> u64 {
        if self.k == MAX_PACKED_DEGREE {
            0
        } else {
            PACKED_IDENTITY & !((1u64 << (4 * self.k)) - 1)
        }
    }

    /// Packs two raw 1-based labels — the symbol bytes of a wire `ROUTE`
    /// frame — into the relative word `to⁻¹ ∘ from`, validating as it
    /// packs. It accepts exactly the labels that [`Perm::from_symbols`]
    /// accepts at this network's degree, so a caller holding only frame
    /// bytes can route without building a [`Perm`].
    ///
    /// # Errors
    ///
    /// In [`route_into`](RoutePlan::route_into)'s order:
    ///
    /// * [`CoreError::Perm`] with [`PermError::PackedDegreeOutOfRange`] —
    ///   the network has `k > 16`;
    /// * [`CoreError::DegreeMismatch`] — a label's length differs from the
    ///   network's degree (`from` checked first);
    /// * [`CoreError::Perm`] with [`PermError::NotAPermutation`] — a symbol
    ///   is zero, above `k`, or repeated.
    pub fn pack_labels(&self, from: &[u8], to: &[u8]) -> Result<PackedPair, CoreError> {
        self.check_packed_degree()?;
        for label in [from, to] {
            if label.len() != self.k {
                return Err(CoreError::DegreeMismatch {
                    expected: self.k,
                    found: label.len(),
                });
            }
        }
        let mut inv_to = 0u64;
        let mut seen = 0u32;
        for (pos, &sym) in to.iter().enumerate() {
            inv_to |= (pos as u64) << self.lane_of(sym, &mut seen)?;
        }
        let mut w = self.padding();
        let mut seen = 0u32;
        for (i, &sym) in from.iter().enumerate() {
            w |= ((inv_to >> self.lane_of(sym, &mut seen)?) & 0xF) << (4 * i);
        }
        Ok(PackedPair(w))
    }

    /// The nibble shift of the 1-based symbol `sym`, refusing zero,
    /// symbols above `k`, and symbols already marked in `seen`.
    #[inline]
    fn lane_of(&self, sym: u8, seen: &mut u32) -> Result<u32, CoreError> {
        let bit = 1u32 << (sym & 0x1F);
        if sym == 0 || usize::from(sym) > self.k || *seen & bit != 0 {
            return Err(PermError::NotAPermutation { symbol: sym }.into());
        }
        *seen |= bit;
        Ok(4 * (u32::from(sym) - 1))
    }

    /// The unfused `pack_pair` — the kernel-op composition the fused
    /// version must match; referenced only by its debug assertion.
    fn pack_pair_reference(from: &Perm, to: &Perm) -> Option<u64> {
        let f = PackedPerm::pack(from).ok()?;
        let t = PackedPerm::pack(to).ok()?;
        Some(t.inverse().compose(f).word())
    }

    /// The greedy star-sort over one relative word as a visitor: calls
    /// `emit(j)` once per move, in route order, with the star link `T_j`
    /// (`2 ≤ j ≤ k`) that move takes. The moves are
    /// [`star_route`](crate::star_route)'s optimal route, but each one is
    /// a branch-free nibble swap and the cycle-opening choice is
    /// `trailing_zeros` over a dirty-lane mask. Expanding each `T_j`
    /// through [`star_link`](RoutePlan::star_link) gives
    /// [`route_into`](RoutePlan::route_into)'s hops; a caller may emit
    /// anything else per link instead, such as pre-encoded reply bytes.
    ///
    /// `mask` carries one bit per dirty lane, at the lane's low bit
    /// (`4p` for position `p+1`), built by word-parallel nonzero-nibble
    /// detection — no per-position loop. A move swaps lane 0 with lane
    /// `i`; when the front symbol `s` was foreign (`s != 0`) the move
    /// homes it at lane `i = s`, so exactly that bit clears — sorted
    /// lanes never go dirty again, so the lowest dirty lane is always
    /// the first unsorted position.
    #[inline]
    pub fn star_sort_links(&self, pair: PackedPair, mut emit: impl FnMut(usize)) {
        /// The low bit of every 4-bit lane.
        const LANE_LSB: u64 = 0x1111_1111_1111_1111;
        let mut w = pair.0;
        let diff = w ^ PACKED_IDENTITY;
        // Fold each nibble's four bits onto its low bit, then drop lane 0
        // (the front is tracked by `s`, not the mask).
        let mut mask = (diff | (diff >> 1) | (diff >> 2) | (diff >> 3)) & LANE_LSB & !0xF;
        loop {
            let s = w & 0xF;
            let i = if s != 0 {
                s as usize
            } else if mask != 0 {
                (mask.trailing_zeros() / 4) as usize
            } else {
                return; // identity reached
            };
            emit(i + 1);
            let sh = 4 * i;
            let x = ((w >> sh) ^ w) & 0xF;
            w ^= (x << sh) | x;
            mask &= !(u64::from(s != 0) << sh);
        }
    }

    /// The star-sort of one packed relative permutation `w` (`to⁻¹ ∘
    /// from`, 0-based nibbles, identity-padded), each link expanded into
    /// `buf`.
    pub(crate) fn route_packed(&self, w: u64, buf: &mut RouteBuf) {
        self.star_sort_links(PackedPair(w), |j| {
            buf.hops.extend_from_slice(self.star_link_unchecked(j));
        });
    }

    /// A reusable [`BatchState`] for [`route_chunk`](RoutePlan::route_chunk)
    /// with a pre-sized hop buffer (see [`new_buf`](RoutePlan::new_buf)).
    #[must_use]
    pub fn new_batch_state(&self) -> BatchState {
        BatchState {
            rel: Vec::new(),
            buf: self.new_buf(),
        }
    }

    /// Routes a chunk of pairs structure-of-arrays style: a first pass
    /// packs every pair's relative permutation `to⁻¹ ∘ from` into
    /// parallel `u64` lanes (`state.rel`), a second pass runs the packed
    /// star-sort on each lane and appends the hops to the matching `out`
    /// slot. Splitting pack from emit keeps the pack loop pure
    /// word arithmetic over adjacent lanes — the form that
    /// autovectorizes — and confines the hop copies to the emit pass.
    ///
    /// Results are identical to routing each pair individually, in input
    /// order.
    ///
    /// # Panics
    ///
    /// Panics if `pairs` and `out` differ in length.
    ///
    /// # Errors
    ///
    /// As [`route_into`](RoutePlan::route_into); a degree mismatch is
    /// reported for the first failing pair in input order. No `out` slot
    /// is written on error.
    pub fn route_chunk(
        &self,
        pairs: &[(Perm, Perm)],
        out: &mut [Vec<Generator>],
        state: &mut BatchState,
    ) -> Result<(), CoreError> {
        assert_eq!(pairs.len(), out.len(), "pairs/out length mismatch");
        self.check_packed_degree()?;
        state.rel.clear();
        state.rel.reserve(pairs.len());
        for (from, to) in pairs {
            self.check_degrees(from, to)?;
            state.rel.push(self.pack_pair(from, to));
        }
        for (&w, slot) in state.rel.iter().zip(out.iter_mut()) {
            state.buf.clear();
            self.route_packed(w, &mut state.buf);
            slot.extend_from_slice(state.buf.hops());
        }
        Ok(())
    }

    /// Routes `from → to` by emulating the optimal star route, each star
    /// link expanded per Theorems 1–3, into a fresh vector: the entry for
    /// one pair. The path has at most `star_dilation() ×
    /// star_distance(from, to)` hops; it is not necessarily a shortest
    /// path in the host (that is [`bfs_route`](crate::bfs_route)), but it
    /// is within the constant factor the paper proves. The rotator classes
    /// route through the insertion-cycle realization of transpositions
    /// (`T_x = I_{x-1}^{x-2}∘I_x`), an extension beyond the paper's stated
    /// theorems.
    ///
    /// Callers routing many pairs should reuse a buffer through
    /// [`route_into`](RoutePlan::route_into) or route slices through
    /// [`route_chunk`](RoutePlan::route_chunk).
    ///
    /// # Errors
    ///
    /// As [`route_into`](RoutePlan::route_into).
    pub fn route(&self, from: &Perm, to: &Perm) -> Result<Vec<Generator>, CoreError> {
        let mut buf = self.new_buf();
        self.route_into(from, to, &mut buf)?;
        #[cfg(feature = "obs")]
        crate::obs_hooks::route_planned(self.name(), buf.len());
        Ok(buf.into_hops())
    }
}

/// The relative permutation `to⁻¹ ∘ from` of one pair as a packed word:
/// the whole per-pair state of [`RoutePlan::star_sort_links`]. Outside
/// this crate only [`RoutePlan::pack_labels`] makes one, so every word
/// the visitor sees is a permutation and its loop ends; visit it with
/// the plan that packed it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PackedPair(u64);

/// A reusable route buffer for [`RoutePlan::route_into`].
///
/// Clearing keeps the capacity, so a warmed buffer routes any number of
/// pairs without touching the allocator.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RouteBuf {
    hops: Vec<Generator>,
}

impl RouteBuf {
    /// An empty buffer (first use may allocate; prefer
    /// [`RoutePlan::new_buf`] for a pre-sized one).
    #[must_use]
    pub fn new() -> Self {
        RouteBuf::default()
    }

    /// An empty buffer with room for `cap` hops.
    #[must_use]
    pub fn with_capacity(cap: usize) -> Self {
        RouteBuf {
            hops: Vec::with_capacity(cap),
        }
    }

    /// The route written by the last
    /// [`route_into`](RoutePlan::route_into).
    #[must_use]
    pub fn hops(&self) -> &[Generator] {
        &self.hops
    }

    /// Number of hops held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.hops.len()
    }

    /// Whether the buffer holds no hops.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.hops.is_empty()
    }

    /// Current capacity in hops.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.hops.capacity()
    }

    /// Drops the hops, keeping the capacity.
    pub fn clear(&mut self) {
        self.hops.clear();
    }

    /// Consumes the buffer, yielding the hop vector.
    #[must_use]
    pub fn into_hops(self) -> Vec<Generator> {
        self.hops
    }
}

/// Reusable structure-of-arrays state for
/// [`RoutePlan::route_chunk`]: the packed relative permutations of a
/// chunk live in parallel `u64` lanes, with one shared [`RouteBuf`] for
/// hop emission. Like a warmed `RouteBuf`, capacities survive reuse, so a
/// thread can process any number of chunks with at most one allocation
/// per high-water chunk size.
#[derive(Debug, Clone, Default)]
pub struct BatchState {
    /// One packed `to⁻¹ ∘ from` word per pair in the chunk.
    rel: Vec<u64>,
    /// Shared emission buffer.
    buf: RouteBuf,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classes::apply_path;
    use crate::routing::star_route::{star_distance_between, star_route};
    use scg_perm::XorShift64;

    fn all_classes_small() -> Vec<SuperCayleyGraph> {
        vec![
            SuperCayleyGraph::macro_star(2, 2).unwrap(),
            SuperCayleyGraph::rotation_star(2, 2).unwrap(),
            SuperCayleyGraph::complete_rotation_star(2, 2).unwrap(),
            SuperCayleyGraph::macro_rotator(2, 2).unwrap(),
            SuperCayleyGraph::rotation_rotator(2, 2).unwrap(),
            SuperCayleyGraph::complete_rotation_rotator(2, 2).unwrap(),
            SuperCayleyGraph::insertion_selection(5).unwrap(),
            SuperCayleyGraph::macro_is(2, 2).unwrap(),
            SuperCayleyGraph::rotation_is(2, 2).unwrap(),
            SuperCayleyGraph::complete_rotation_is(2, 2).unwrap(),
        ]
    }

    #[test]
    fn plan_lookups_match_fresh_expansion_all_classes() {
        for net in all_classes_small() {
            let plan = RoutePlan::build(&net).unwrap();
            let emu = StarEmulation::new(&net).unwrap();
            assert_eq!(plan.star_dilation(), emu.star_dilation(), "{}", net.name());
            let k = net.degree_k();
            for j in 2..=k {
                assert_eq!(
                    plan.star_link(j).unwrap(),
                    emu.expand_star_link(j).unwrap().as_slice(),
                    "{} T_{j}",
                    net.name()
                );
            }
            for i in 1..=k {
                for j in i + 1..=k {
                    assert_eq!(
                        plan.tn_link(i, j).unwrap(),
                        emu.expand_tn_link(i, j).unwrap().as_slice(),
                        "{} T_{{{i},{j}}}",
                        net.name()
                    );
                }
            }
        }
    }

    #[test]
    fn route_into_matches_star_route_expansion() {
        let net = SuperCayleyGraph::macro_star(3, 2).unwrap();
        let plan = RoutePlan::build(&net).unwrap();
        let emu = StarEmulation::new(&net).unwrap();
        let mut rng = XorShift64::new(41);
        let mut buf = plan.new_buf();
        for _ in 0..25 {
            let from = Perm::random(7, &mut rng);
            let to = Perm::random(7, &mut rng);
            plan.route_into(&from, &to, &mut buf).unwrap();
            // Identical to the expansion of the optimal star route.
            let mut expect = Vec::new();
            for g in star_route(&from, &to) {
                let Generator::Transposition { i } = g else {
                    unreachable!()
                };
                expect.extend(emu.expand_star_link(i as usize).unwrap());
            }
            assert_eq!(buf.hops(), expect.as_slice());
            assert_eq!(apply_path(&from, buf.hops()).unwrap(), to);
            assert!(
                buf.len() as u32 <= plan.star_dilation() as u32 * star_distance_between(&from, &to)
            );
        }
    }

    #[test]
    fn buffer_capacity_survives_reuse() {
        let net = SuperCayleyGraph::macro_is(3, 2).unwrap();
        let plan = RoutePlan::build(&net).unwrap();
        let mut buf = plan.new_buf();
        let cap = buf.capacity();
        assert!(cap >= plan.star_dilation() * star_diameter(7) as usize);
        let mut rng = XorShift64::new(43);
        for _ in 0..50 {
            let from = Perm::random(7, &mut rng);
            let to = Perm::random(7, &mut rng);
            plan.route_into(&from, &to, &mut buf).unwrap();
            assert_eq!(buf.capacity(), cap, "route grew the warmed buffer");
        }
    }

    #[test]
    fn invalid_links_and_degrees_are_rejected() {
        let net = SuperCayleyGraph::macro_star(2, 2).unwrap();
        let plan = RoutePlan::build(&net).unwrap();
        assert!(plan.star_link(1).is_err());
        assert!(plan.star_link(6).is_err());
        assert!(plan.tn_link(3, 3).is_err());
        assert!(plan.tn_link(0, 2).is_err());
        assert!(plan.tn_link(2, 9).is_err());
        let mut buf = plan.new_buf();
        let bad = Perm::identity(4);
        assert!(matches!(
            plan.route_into(&bad, &Perm::identity(5), &mut buf),
            Err(CoreError::DegreeMismatch { .. })
        ));
    }

    #[test]
    fn pack_labels_matches_route_into_and_refuses_what_it_refuses() {
        let net = SuperCayleyGraph::macro_star(3, 2).unwrap();
        let plan = RoutePlan::build(&net).unwrap();
        let mut rng = XorShift64::new(47);
        let mut buf = plan.new_buf();
        for _ in 0..50 {
            let from = Perm::random(7, &mut rng);
            let to = Perm::random(7, &mut rng);
            let pair = plan.pack_labels(from.symbols(), to.symbols()).unwrap();
            assert_eq!(pair, PackedPair(plan.pack_pair(&from, &to)));
            let mut visited = Vec::new();
            plan.star_sort_links(pair, |j| {
                visited.extend_from_slice(plan.star_link(j).unwrap())
            });
            plan.route_into(&from, &to, &mut buf).unwrap();
            assert_eq!(visited, buf.hops());
        }
        let id = [1, 2, 3, 4, 5, 6, 7];
        for bad in [
            &[0, 2, 3, 4, 5, 6, 7][..],
            &[1, 2, 3, 4, 5, 6, 8],
            &[1, 2, 3, 4, 5, 6, 200],
            &[1, 2, 3, 4, 5, 2, 7],
        ] {
            for (from, to) in [(bad, &id[..]), (&id[..], bad)] {
                assert!(matches!(
                    plan.pack_labels(from, to),
                    Err(CoreError::Perm(PermError::NotAPermutation { .. }))
                ));
                assert!(Perm::from_symbols(bad).is_err());
            }
        }
        for (from, to) in [
            (&id[..6], &id[..]),
            (&id[..], &id[..6]),
            (&id[..6], &id[..6]),
        ] {
            assert!(matches!(
                plan.pack_labels(from, to),
                Err(CoreError::DegreeMismatch { expected: 7, .. })
            ));
        }
        let is17 = RoutePlan::build(&SuperCayleyGraph::insertion_selection(17).unwrap()).unwrap();
        let id17 = Perm::identity(17);
        assert!(matches!(
            is17.pack_labels(id17.symbols(), id17.symbols()),
            Err(CoreError::Perm(PermError::PackedDegreeOutOfRange {
                degree: 17
            }))
        ));
    }

    #[test]
    fn self_route_is_empty() {
        let net = SuperCayleyGraph::insertion_selection(5).unwrap();
        let plan = RoutePlan::build(&net).unwrap();
        let mut buf = RouteBuf::new();
        let u = Perm::from_rank(5, 99).unwrap();
        plan.route_into(&u, &u, &mut buf).unwrap();
        assert!(buf.is_empty());
        assert_eq!(plan.route(&u, &u).unwrap(), Vec::new());
    }
}
