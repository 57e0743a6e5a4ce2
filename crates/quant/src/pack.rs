//! Matrix-level weight packing: the paper's `P(B_x)_y` formats.
//!
//! `P(B_4)_k` packs 4 INT4 codes per 16-bit word along the input-feature
//! dimension (what AutoGPTQ/llmc-style frameworks do today);
//! `P(B_4)_n` packs along the output-feature dimension — PacQ's proposal
//! (§III). The packed words store *biased* codes ([`PackedWord`]), i.e.
//! the `B + 8` transformation is applied at pack time so the tensor core
//! never sees a sign bit.

use crate::groups::GroupShape;
use crate::rtn::QuantizedMatrix;
use core::fmt;
use pacq_error::{PacqError, PacqResult};
use pacq_fp16::batch::{self, Job, TileRow, TileSums};
use pacq_fp16::{Fp16, NumericsMode, PackedWord, WeightPrecision};

/// The dimension along which weights are packed (the `y` of `P(B_x)_y`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PackDim {
    /// Pack along the input-feature dimension (conventional frameworks).
    K,
    /// Pack along the output-feature dimension (PacQ).
    N,
}

impl fmt::Display for PackDim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PackDim::K => f.write_str("k"),
            PackDim::N => f.write_str("n"),
        }
    }
}

/// A quantized weight matrix in packed deployable form: packed biased
/// codes plus the group scales needed for dequantization.
///
/// # Examples
///
/// ```
/// use pacq_quant::{GroupShape, MatrixF32, PackDim, PackedMatrix, RtnQuantizer};
/// use pacq_fp16::WeightPrecision;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let w = MatrixF32::from_fn(64, 16, |k, n| (k as f32 - n as f32) / 64.0);
/// let q = RtnQuantizer::new(WeightPrecision::Int4, GroupShape::along_k(32)).quantize(&w)?;
/// let packed = PackedMatrix::pack(&q, PackDim::N)?;
/// assert_eq!(packed.word_cols(), 4); // 16 columns / 4 lanes
/// assert_eq!(packed.unpack().codes(), q.codes());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PackedMatrix {
    precision: WeightPrecision,
    pack_dim: PackDim,
    group: GroupShape,
    k: usize,
    n: usize,
    word_rows: usize,
    word_cols: usize,
    words: Vec<PackedWord>,
    scales: Vec<f32>,
    zero_points: Vec<u8>,
}

impl PackedMatrix {
    /// Packs a quantized matrix along `pack_dim`.
    ///
    /// # Errors
    ///
    /// Returns [`PacqError::Misaligned`] when the extent along `pack_dim`
    /// is not a multiple of the lane count (4 for INT4, 8 for INT2).
    pub fn pack(q: &QuantizedMatrix, pack_dim: PackDim) -> PacqResult<Self> {
        let precision = q.precision();
        let lanes = precision.lanes();
        let (k, n) = (q.k(), q.n());

        let (word_rows, word_cols) = match pack_dim {
            PackDim::K => {
                if k % lanes != 0 {
                    return Err(PacqError::Misaligned {
                        context: "PackedMatrix::pack (k-dimension)",
                        extent: k,
                        multiple: lanes,
                    });
                }
                (k / lanes, n)
            }
            PackDim::N => {
                if n % lanes != 0 {
                    return Err(PacqError::Misaligned {
                        context: "PackedMatrix::pack (n-dimension)",
                        extent: n,
                        multiple: lanes,
                    });
                }
                (k, n / lanes)
            }
        };

        let words = batch::dispatch(PackWords {
            codes: q.codes(),
            pack_dim,
            precision,
            n,
        });

        Ok(PackedMatrix {
            precision,
            pack_dim,
            group: q.group(),
            k,
            n,
            word_rows,
            word_cols,
            words,
            scales: q.scales().to_vec(),
            zero_points: q.zero_points().to_vec(),
        })
    }

    /// The weight precision.
    pub fn precision(&self) -> WeightPrecision {
        self.precision
    }

    /// The packing dimension.
    pub fn pack_dim(&self) -> PackDim {
        self.pack_dim
    }

    /// The quantization group geometry the scales follow.
    pub fn group(&self) -> GroupShape {
        self.group
    }

    /// Logical input-feature extent (k).
    pub fn k(&self) -> usize {
        self.k
    }

    /// Logical output-feature extent (n).
    pub fn n(&self) -> usize {
        self.n
    }

    /// Rows of the packed word grid.
    pub fn word_rows(&self) -> usize {
        self.word_rows
    }

    /// Columns of the packed word grid.
    pub fn word_cols(&self) -> usize {
        self.word_cols
    }

    /// Total packed 16-bit words.
    pub fn total_words(&self) -> usize {
        self.words.len()
    }

    /// The packed word at grid position `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn word(&self, row: usize, col: usize) -> PackedWord {
        assert!(
            row < self.word_rows && col < self.word_cols,
            "word ({row},{col}) out of bounds"
        );
        self.words[row * self.word_cols + col]
    }

    /// The packed words of grid row `row`, in column order.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of bounds.
    #[inline]
    pub fn word_row(&self, row: usize) -> &[PackedWord] {
        &self.words[row * self.word_cols..(row + 1) * self.word_cols]
    }

    /// The signed code of logical weight `(k, n)` read out of its word.
    pub fn code(&self, k: usize, n: usize) -> i8 {
        let lanes = self.precision.lanes();
        let (row, col, lane) = match self.pack_dim {
            PackDim::K => (k / lanes, n, k % lanes),
            PackDim::N => (k, n / lanes, n % lanes),
        };
        self.word(row, col).signed_lane(self.precision, lane)
    }

    /// The scale applying to logical weight `(k, n)`.
    pub fn scale(&self, k: usize, n: usize) -> f32 {
        self.scales[self.group.group_of(k, n, self.n)]
    }

    /// All group scales.
    pub fn scales(&self) -> &[f32] {
        &self.scales
    }

    /// The zero point (unsigned code) applying to logical weight `(k, n)`.
    pub fn zero_point(&self, k: usize, n: usize) -> u8 {
        self.zero_points[self.group.group_of(k, n, self.n)]
    }

    /// All group zero points.
    pub fn zero_points(&self) -> &[u8] {
        &self.zero_points
    }

    /// Unpacks back into a [`QuantizedMatrix`] (exact round-trip).
    pub fn unpack(&self) -> QuantizedMatrix {
        let mut codes = vec![0i8; self.k * self.n];
        for k in 0..self.k {
            for n in 0..self.n {
                codes[k * self.n + n] = self.code(k, n);
            }
        }
        // Codes read back through lane masks are in range by construction,
        // and the scale/zero-point vectors were validated at pack time.
        QuantizedMatrix::from_parts_trusted(
            self.precision,
            self.group,
            self.k,
            self.n,
            codes,
            self.scales.clone(),
            self.zero_points.clone(),
        )
    }

    /// Packed-weight storage in bits (the memory-traffic win of Figure 1).
    pub fn storage_bits(&self) -> u64 {
        self.words.len() as u64 * 16 + self.scales.len() as u64 * 16
    }
}

/// The word loops of [`PackedMatrix::pack`], built straight from the
/// row-major codes: a code's biased value lands in its lane's bit field.
/// A [`Job`], so the loops compile for the host's widest vectors; every
/// copy computes the same words.
struct PackWords<'a> {
    codes: &'a [i8],
    pack_dim: PackDim,
    precision: WeightPrecision,
    n: usize,
}

impl Job for PackWords<'_> {
    type Output = Vec<PackedWord>;

    #[inline(always)]
    fn run(self, _: impl Fn(NumericsMode, &[Fp16], &[TileRow]) -> TileSums) -> Vec<PackedWord> {
        let PackWords {
            codes,
            pack_dim,
            precision,
            n,
        } = self;
        match (pack_dim, precision) {
            // Each word is `lanes` adjacent codes of one row.
            (PackDim::N, WeightPrecision::Int4) => pack_runs::<4>(codes),
            (PackDim::N, WeightPrecision::Int2) => pack_runs::<8>(codes),
            // Each word row accumulates `lanes` code rows, one lane each,
            // into a per-column word (`n.max(1)`: an n = 0 matrix has no
            // words, but chunk sizes must be non-zero).
            (PackDim::K, _) => {
                let (lanes, bits) = (precision.lanes(), precision.bits() as usize);
                let n = n.max(1);
                let mut acc = vec![0u16; codes.len() / lanes];
                for (wrow, rows) in acc.chunks_exact_mut(n).zip(codes.chunks_exact(lanes * n)) {
                    for (lane, row) in rows.chunks_exact(n).enumerate() {
                        for (w, &c) in wrow.iter_mut().zip(row) {
                            *w |= ((c as i32 + precision.bias()) as u16) << (bits * lane);
                        }
                    }
                }
                acc.into_iter().map(PackedWord::from_bits).collect()
            }
        }
    }
}

/// Packs every run of `LANES` adjacent codes into one word, lane `l`
/// holding the biased code in bits `[b·l, b·(l + 1))`. A run's code bytes
/// are read as one integer and biased at once: a code lies in
/// `[−2^(b−1), 2^(b−1))` and the bias is `2^(b−1)`, so the biased code is
/// the code's low `b` bits with the top one flipped, and no byte carries
/// into the next. Each field then shifts down to its lane. (Adding the
/// bias lane by lane does not vectorize.)
#[inline(always)]
fn pack_runs<const LANES: usize>(codes: &[i8]) -> Vec<PackedWord> {
    let bits = const { 16 / LANES };
    let field = (1u64 << bits) - 1;
    let (runs, _) = codes.as_chunks::<LANES>();
    // A loop, not `map().collect()`: the body must inline into the
    // dispatched copy.
    let mut words = vec![PackedWord::default(); runs.len()];
    for (word, run) in words.iter_mut().zip(runs) {
        let x = run
            .iter()
            .rev()
            .fold(0u64, |x, &c| x << 8 | u64::from(c as u8));
        let x = (x & const { ((1 << (16 / LANES)) - 1) * (u64::MAX / 255) })
            ^ const { (1 << (16 / LANES - 1)) * (u64::MAX / 255) };
        let mut fields = 0;
        for lane in 0..LANES {
            fields |= (x >> (lane * (8 - bits))) & (field << (bits * lane));
        }
        *word = PackedWord::from_bits(fields as u16);
    }
    words
}

impl fmt::Display for PackedMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "P(B_{})_{} {}x{} ({} words)",
            self.precision.lanes(),
            self.pack_dim,
            self.k,
            self.n,
            self.words.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::MatrixF32;
    use crate::rtn::RtnQuantizer;

    fn quantized(k: usize, n: usize, precision: WeightPrecision) -> QuantizedMatrix {
        let w = MatrixF32::from_fn(k, n, |r, c| ((r * 13 + c * 7) % 29) as f32 / 14.0 - 1.0);
        RtnQuantizer::new(precision, GroupShape::along_k(k.min(32)))
            .quantize(&w)
            .unwrap()
    }

    #[test]
    fn pack_along_n_roundtrips() {
        for precision in [WeightPrecision::Int4, WeightPrecision::Int2] {
            let q = quantized(32, 16, precision);
            let p = PackedMatrix::pack(&q, PackDim::N).expect("packs");
            assert_eq!(p.unpack().codes(), q.codes());
            assert_eq!(p.word_rows(), 32);
            assert_eq!(p.word_cols(), 16 / precision.lanes());
        }
    }

    #[test]
    fn pack_along_k_roundtrips() {
        for precision in [WeightPrecision::Int4, WeightPrecision::Int2] {
            let q = quantized(32, 16, precision);
            let p = PackedMatrix::pack(&q, PackDim::K).expect("packs");
            assert_eq!(p.unpack().codes(), q.codes());
            assert_eq!(p.word_rows(), 32 / precision.lanes());
            assert_eq!(p.word_cols(), 16);
        }
    }

    /// The words built from the row-major codes against the per-lane
    /// definition: lane `l` of word `(wr, wc)` holds the biased code of
    /// weight `(wr·lanes + l, wc)` (k-packed) or `(wr, wc·lanes + l)`
    /// (n-packed) in bits `[b·l, b·(l + 1))`.
    #[test]
    fn words_match_the_per_lane_formula() {
        for precision in [WeightPrecision::Int4, WeightPrecision::Int2] {
            let lanes = precision.lanes();
            for (k, n) in [(32, 16), (lanes, lanes), (3 * lanes, 5 * lanes)] {
                let q = quantized(k, n, precision);
                for dim in [PackDim::K, PackDim::N] {
                    let p = PackedMatrix::pack(&q, dim).expect("packs");
                    for wr in 0..p.word_rows() {
                        for wc in 0..p.word_cols() {
                            let mut bits = 0u16;
                            for lane in 0..lanes {
                                let (kk, nn) = match dim {
                                    PackDim::K => (wr * lanes + lane, wc),
                                    PackDim::N => (wr, wc * lanes + lane),
                                };
                                let code = (q.code(kk, nn) as i32 + precision.bias()) as u16;
                                bits |= code << (precision.bits() as usize * lane);
                            }
                            assert_eq!(
                                p.word(wr, wc).to_bits(),
                                bits,
                                "{precision} {k}x{n} via {dim}: word ({wr},{wc})"
                            );
                        }
                    }
                }
            }
        }
    }

    /// Both directions round-trip at both precisions on odd shapes: the
    /// extent along the packing dimension is an odd number of words, the
    /// other extent odd (or a single row or column).
    #[test]
    fn both_directions_unpack_to_the_codes_at_odd_shapes() {
        for precision in [WeightPrecision::Int4, WeightPrecision::Int2] {
            let lanes = precision.lanes();
            for (words, other) in [(1, 1), (3, 7), (5, 13), (7, 1), (1, 9)] {
                for dim in [PackDim::N, PackDim::K] {
                    let (k, n) = match dim {
                        PackDim::N => (other, words * lanes),
                        PackDim::K => (words * lanes, other),
                    };
                    let q = quantized(k, n, precision);
                    let p = PackedMatrix::pack(&q, dim).expect("packs");
                    assert_eq!(p.total_words(), k * n / lanes, "{precision} {k}x{n} {dim}");
                    assert_eq!(p.unpack().codes(), q.codes(), "{precision} {k}x{n} {dim}");
                }
            }
        }
    }

    #[test]
    fn per_element_access_matches_unpacked() {
        let q = quantized(16, 8, WeightPrecision::Int4);
        for dim in [PackDim::K, PackDim::N] {
            let p = PackedMatrix::pack(&q, dim).expect("packs");
            for k in 0..16 {
                for n in 0..8 {
                    assert_eq!(p.code(k, n), q.code(k, n), "({k},{n}) via {dim}");
                    assert_eq!(p.scale(k, n), q.scale(k, n));
                }
            }
        }
    }

    #[test]
    fn misaligned_extent_is_rejected() {
        let q = quantized(30, 8, WeightPrecision::Int4); // k=30 not /4
        let err = PackedMatrix::pack(&q, PackDim::K).unwrap_err();
        assert!(err.to_string().contains("not a multiple"));
        // N is fine (8 % 4 == 0).
        assert!(PackedMatrix::pack(&q, PackDim::N).is_ok());
    }

    #[test]
    fn storage_is_quarter_of_fp16_for_int4() {
        let q = quantized(128, 64, WeightPrecision::Int4);
        let p = PackedMatrix::pack(&q, PackDim::N).expect("packs");
        let fp16_bits = 128 * 64 * 16;
        let ratio = p.storage_bits() as f64 / fp16_bits as f64;
        // 4x code compression + scale overhead (g32 here: 1 scale per 32).
        assert!(ratio < 0.30, "storage ratio = {ratio}");
    }
}
