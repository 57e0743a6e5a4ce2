//! Quantization group geometry.
//!
//! Standard weight-only PTQ defines groups along the input-feature (k)
//! dimension only (e.g. `g128`). Section V of the paper proposes spanning
//! groups across **both** `[n, k]` dimensions (e.g. `g[32,4]` = 32 steps
//! along k × 4 along n, same 128-element volume) so that PacQ's n-packed
//! dataflow fetches one scale per packed word group instead of one per
//! lane — Table II shows the change is quality-neutral.

use core::fmt;

use pacq_error::{PacqError, PacqResult};

/// Shape of one quantization group over the `[k, n]` weight matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GroupShape {
    /// Group extent along the input-feature dimension (k).
    pub k_size: usize,
    /// Group extent along the output-feature dimension (n).
    pub n_size: usize,
}

impl GroupShape {
    /// The conventional `g128` (128 along k, 1 along n).
    pub const G128: GroupShape = GroupShape {
        k_size: 128,
        n_size: 1,
    };
    /// The conventional `g256`.
    pub const G256: GroupShape = GroupShape {
        k_size: 256,
        n_size: 1,
    };
    /// The paper's 2-D `g[32,4]`: 32 along k × 4 along n (volume 128).
    pub const G32X4: GroupShape = GroupShape {
        k_size: 32,
        n_size: 4,
    };
    /// The paper's 2-D `g[64,4]`: 64 along k × 4 along n (volume 256).
    pub const G64X4: GroupShape = GroupShape {
        k_size: 64,
        n_size: 4,
    };

    /// Creates a group shape.
    ///
    /// # Panics
    ///
    /// Panics if either extent is zero. Intended for literal shapes in
    /// code; use [`GroupShape::try_new`] for untrusted input.
    pub fn new(k_size: usize, n_size: usize) -> Self {
        assert!(k_size > 0 && n_size > 0, "group extents must be non-zero");
        GroupShape { k_size, n_size }
    }

    /// Creates a group shape from untrusted extents, rejecting zeros
    /// with a typed error instead of panicking.
    pub fn try_new(k_size: usize, n_size: usize) -> PacqResult<Self> {
        if k_size == 0 || n_size == 0 {
            return Err(PacqError::ZeroDim {
                context: "GroupShape::try_new",
            });
        }
        Ok(GroupShape { k_size, n_size })
    }

    /// A 1-D group along k (the conventional layout).
    pub fn along_k(k_size: usize) -> Self {
        GroupShape::new(k_size, 1)
    }

    /// Number of weights per group.
    pub fn volume(&self) -> usize {
        self.k_size * self.n_size
    }

    /// `true` when the group spans more than one output column — the
    /// paper's PacQ-friendly layout.
    pub fn is_two_dimensional(&self) -> bool {
        self.n_size > 1
    }

    /// The group index of weight `(k, n)`.
    pub fn group_of(&self, k: usize, n: usize, n_total: usize) -> usize {
        let groups_per_row = n_total.div_ceil(self.n_size);
        (k / self.k_size) * groups_per_row + n / self.n_size
    }

    /// Number of groups covering a `[k_total, n_total]` matrix.
    pub fn group_count(&self, k_total: usize, n_total: usize) -> usize {
        k_total.div_ceil(self.k_size) * n_total.div_ceil(self.n_size)
    }

    /// Number of scale-fetch events the general core performs while
    /// consuming the matrix tile by tile: for every `tile_k × lanes`
    /// weight tile (the octet compute granularity of Figure 3), it fetches
    /// one scale per distinct group the tile touches, with no inter-tile
    /// caching.
    ///
    /// This is the quantity the `g[n,k]` layout reduces for PacQ
    /// (Figure 6, step ③): with `n_size ≥ lanes` all lanes of a packed
    /// word share a single scale, so a 4×4 tile needs 1 fetch instead
    /// of 4.
    ///
    /// The count is evaluated in closed form, in O(1). A tile's fetches
    /// are (k-groups its k-extent touches) × (n-groups its packed word
    /// touches), and the tiles form a grid, so the sum over tiles factors
    /// into `side(k_total, tile_k, k_size) · side(n_total, lanes, n_size)`.
    /// Along one side, cutting `[0, total)` into tiles of `t` and groups
    /// of `g`, every tile touches one group plus one more for each group
    /// boundary strictly inside it. The boundaries are `j·g` for
    /// `1 ≤ j ≤ J = ⌈total/g⌉ − 1`, and `j·g` is also a tile boundary
    /// exactly when `t / gcd(t, g)` divides `j`, so
    ///
    /// `side(total, t, g) = ⌈total/t⌉ + J − ⌊J / (t / gcd(t, g))⌋`,
    ///
    /// with `side(0, …) = 0`. The last term divides `J` rather than
    /// comparing `J·g` with `lcm(t, g)`, so no intermediate value can
    /// overflow for any extents.
    pub fn scale_fetches_for_tiled_walk(
        &self,
        k_total: usize,
        n_total: usize,
        lanes: usize,
        tile_k: usize,
    ) -> usize {
        assert!(lanes > 0 && tile_k > 0, "tile extents must be non-zero");
        groups_touched_by_tiles(k_total, tile_k, self.k_size)
            * groups_touched_by_tiles(n_total, lanes, self.n_size)
    }
}

/// Sum over the tiles of size `tile` cutting `[0, total)` of the number
/// of groups of size `group` each tile touches (the last tile may be
/// ragged). See [`GroupShape::scale_fetches_for_tiled_walk`] for the
/// derivation.
fn groups_touched_by_tiles(total: usize, tile: usize, group: usize) -> usize {
    if total == 0 {
        return 0;
    }
    let inner_boundaries = total.div_ceil(group) - 1;
    let period = tile / gcd(tile, group);
    // Grouped so no intermediate exceeds the result, which is at most
    // `total` (a tile of length L touches at most L groups).
    total.div_ceil(tile) + (inner_boundaries - inner_boundaries / period)
}

fn gcd(mut a: usize, mut b: usize) -> usize {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

impl fmt::Display for GroupShape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.n_size == 1 {
            write!(f, "g{}", self.k_size)
        } else {
            write!(f, "g[{},{}]", self.k_size, self.n_size)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn named_shapes_have_expected_volumes() {
        assert_eq!(GroupShape::G128.volume(), 128);
        assert_eq!(GroupShape::G32X4.volume(), 128);
        assert_eq!(GroupShape::G256.volume(), 256);
        assert_eq!(GroupShape::G64X4.volume(), 256);
        assert!(!GroupShape::G128.is_two_dimensional());
        assert!(GroupShape::G32X4.is_two_dimensional());
    }

    #[test]
    fn display_matches_paper_notation() {
        assert_eq!(GroupShape::G128.to_string(), "g128");
        assert_eq!(GroupShape::G32X4.to_string(), "g[32,4]");
    }

    #[test]
    fn group_indexing_covers_matrix() {
        let g = GroupShape::G32X4;
        let (k_total, n_total) = (64, 16);
        assert_eq!(g.group_count(k_total, n_total), 2 * 4);
        assert_eq!(g.group_of(0, 0, n_total), 0);
        assert_eq!(g.group_of(0, 4, n_total), 1);
        assert_eq!(g.group_of(32, 0, n_total), 4);
        assert_eq!(g.group_of(63, 15, n_total), 7);
    }

    #[test]
    fn two_dimensional_groups_need_fewer_scale_fetches() {
        // The motivation for g[n,k] (Figure 6 ③): a 4×4 octet tile under
        // g128 straddles 4 single-column groups (4 scale fetches); under
        // g[32,4] it lies inside one group (1 fetch) — a 4× reduction.
        let (k_total, n_total, lanes, tile_k) = (4096, 64, 4, 4);
        let f_1d = GroupShape::G128.scale_fetches_for_tiled_walk(k_total, n_total, lanes, tile_k);
        let f_2d = GroupShape::G32X4.scale_fetches_for_tiled_walk(k_total, n_total, lanes, tile_k);
        assert_eq!(
            f_1d,
            f_2d * 4,
            "expected a 4x reduction: 1-D {f_1d}, 2-D {f_2d}"
        );

        // Same for the g256 / g[64,4] pair.
        let f_1d = GroupShape::G256.scale_fetches_for_tiled_walk(k_total, n_total, lanes, tile_k);
        let f_2d = GroupShape::G64X4.scale_fetches_for_tiled_walk(k_total, n_total, lanes, tile_k);
        assert_eq!(f_1d, f_2d * 4);
    }

    /// The tile-by-tile walk the closed form replaces: the oracle.
    fn scale_fetches_by_walking_tiles(
        g: &GroupShape,
        k_total: usize,
        n_total: usize,
        lanes: usize,
        tile_k: usize,
    ) -> usize {
        assert!(lanes > 0 && tile_k > 0, "tile extents must be non-zero");
        let words_per_row = n_total.div_ceil(lanes);
        let k_tiles = k_total.div_ceil(tile_k);
        let mut fetches = 0usize;
        for kt in 0..k_tiles {
            let k_lo = kt * tile_k;
            let k_hi = ((kt + 1) * tile_k).min(k_total);
            let kg_lo = k_lo / g.k_size;
            let kg_hi = (k_hi - 1) / g.k_size;
            for w in 0..words_per_row {
                let n_lo = w * lanes;
                let n_hi = ((w + 1) * lanes).min(n_total);
                let g_lo = n_lo / g.n_size;
                let g_hi = (n_hi - 1) / g.n_size;
                fetches += (kg_hi - kg_lo + 1) * (g_hi - g_lo + 1);
            }
        }
        fetches
    }

    #[test]
    fn closed_form_scale_fetches_match_the_tile_walk() {
        // Every small geometry, including empty matrices, tiles larger
        // than the matrix and groups larger than the matrix.
        let k_sizes = (1..=9).chain([41, 64]);
        let n_sizes: Vec<usize> = (1..=5).chain([21, 32]).collect();
        let mut cases = 0u64;
        for k_size in k_sizes {
            for &n_size in &n_sizes {
                let g = GroupShape::new(k_size, n_size);
                for lanes in (1..=5).chain([8]) {
                    for tile_k in 1..=6 {
                        for k_total in 0..40 {
                            for n_total in 0..20 {
                                assert_eq!(
                                    g.scale_fetches_for_tiled_walk(k_total, n_total, lanes, tile_k),
                                    scale_fetches_by_walking_tiles(
                                        &g, k_total, n_total, lanes, tile_k
                                    ),
                                    "{g} over [{k_total}, {n_total}], tile {tile_k}x{lanes}"
                                );
                                cases += 1;
                            }
                        }
                    }
                }
            }
        }
        assert_eq!(cases, 11 * 7 * 6 * 6 * 40 * 20);
    }

    #[test]
    fn closed_form_scale_fetches_at_extreme_extents() {
        // Expected values worked by hand, in u128 so none of them wraps.
        let max = usize::MAX as u128;
        let fetches = |k_size, n_size, k_total, n_total, lanes, tile_k| {
            GroupShape::new(k_size, n_size)
                .scale_fetches_for_tiled_walk(k_total, n_total, lanes, tile_k) as u128
        };
        // One group spans all of k: one fetch per 4-deep k-tile.
        assert_eq!(fetches(usize::MAX, 1, usize::MAX, 1, 4, 4), max.div_ceil(4));
        // The one group boundary, at 2⁶⁴ − 2, falls inside a k-tile
        // (2⁶⁴ − 2 ≡ 2 mod 4), so that tile fetches twice.
        assert_eq!(
            fetches(usize::MAX - 1, 1, usize::MAX, 1, 4, 4),
            max.div_ceil(4) + 1
        );
        // A tile wider than the matrix touches every group once:
        // ⌈1000 / 7⌉ = 143 k-groups × ⌈19 / 3⌉ = 7 n-groups.
        assert_eq!(fetches(7, 3, 1000, 19, usize::MAX, usize::MAX), 143 * 7);
        // Tiles of 2⁶³ over groups of 2⁶²: each of the two tiles holds
        // two whole groups.
        assert_eq!(fetches(1 << 62, 1, usize::MAX, 1, 1, 1 << 63), 4);
        // A word-wide group along n near usize::MAX: one fetch per
        // 8-lane word, times one 16-deep k-tile inside a g128.
        assert_eq!(
            fetches(128, usize::MAX, 16, usize::MAX, 8, 16),
            max.div_ceil(8)
        );
        // Unit groups and unit tiles: one fetch per weight, with no
        // intermediate past the result.
        assert_eq!(fetches(1, 1, usize::MAX, 1, 1, 1), max);
        assert_eq!(fetches(1, 1, 0, usize::MAX, 1, 1), 0);
        // Groups coprime to the tile: 7-wide groups over 4-deep tiles
        // cut ⌈2⁶⁰ / 7⌉ − 1 boundaries, and every 4th one (a multiple
        // of 28) lands on a tile boundary.
        let k = 1usize << 60;
        let j = (k as u128).div_ceil(7) - 1;
        assert_eq!(fetches(7, 1, k, 1, 1, 4), (k as u128) / 4 + j - j / 4);
    }

    #[test]
    #[should_panic(expected = "group extents must be non-zero")]
    fn zero_extent_rejected() {
        GroupShape::new(0, 4);
    }

    #[test]
    fn try_new_returns_typed_error_for_zero_extents() {
        assert!(matches!(
            GroupShape::try_new(0, 4),
            Err(PacqError::ZeroDim { .. })
        ));
        assert!(matches!(
            GroupShape::try_new(4, 0),
            Err(PacqError::ZeroDim { .. })
        ));
        assert_eq!(GroupShape::try_new(32, 4).unwrap(), GroupShape::G32X4);
    }
}
