//! Round-to-nearest (RTN) weight-only post-training quantization.
//!
//! This is the quantization algorithm of Table II: RTN over
//! [`GroupShape`] groups, producing signed INT4/INT2 codes plus one FP
//! scale (and, in asymmetric mode, a zero point) per group. PacQ changes
//! **nothing** about the algorithm itself — only the group geometry
//! (`g128` → `g[32,4]`) is adapted, which is exactly what Table II
//! evaluates.
//!
//! Both [`QuantScheme`]s map onto the same PacQ hardware: the stored
//! code is always the *biased* unsigned code the parallel FP-INT
//! multiplier consumes, and the dequantization identity is
//! `w = s · (q − z)` with `z = bias` (8 / 2) in the symmetric case. The
//! `Σ A` accumulators of Eq. (1) absorb any `z` at zero extra hardware:
//! `Σ A·w = s · (Σ A·(q+1024) − 1024·Σ A − z·Σ A)`.

use crate::groups::GroupShape;
use crate::matrix::MatrixF32;
use core::fmt;
use pacq_error::{PacqError, PacqResult};
use pacq_fp16::WeightPrecision;
use rayon::prelude::*;

/// Scale/zero-point scheme of the RTN quantizer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum QuantScheme {
    /// `s = max|w| / q_max`, implicit zero point at the precision bias —
    /// what the paper evaluates.
    #[default]
    Symmetric,
    /// `s = (max − min) / (2^b − 1)` with a per-group zero point; better
    /// for skewed weight groups, and free on PacQ hardware (the Σ A
    /// accumulator absorbs the zero point exactly like the +1024 offset).
    Asymmetric,
}

/// An RTN group quantizer.
///
/// # Examples
///
/// ```
/// use pacq_quant::{GroupShape, MatrixF32, RtnQuantizer};
/// use pacq_fp16::WeightPrecision;
///
/// let w = MatrixF32::from_fn(128, 8, |k, n| ((k * 7 + n) % 13) as f32 / 13.0 - 0.5);
/// let q = RtnQuantizer::new(WeightPrecision::Int4, GroupShape::G128).quantize(&w).unwrap();
/// let deq = q.dequantize();
/// assert!(w.mse(&deq) < 0.01);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RtnQuantizer {
    precision: WeightPrecision,
    group: GroupShape,
    scheme: QuantScheme,
}

impl RtnQuantizer {
    /// Creates a symmetric quantizer (the paper's configuration).
    pub fn new(precision: WeightPrecision, group: GroupShape) -> Self {
        RtnQuantizer {
            precision,
            group,
            scheme: QuantScheme::Symmetric,
        }
    }

    /// Creates an asymmetric (zero-point) quantizer.
    pub fn asymmetric(precision: WeightPrecision, group: GroupShape) -> Self {
        RtnQuantizer {
            precision,
            group,
            scheme: QuantScheme::Asymmetric,
        }
    }

    /// The target weight precision.
    pub fn precision(&self) -> WeightPrecision {
        self.precision
    }

    /// The group geometry.
    pub fn group(&self) -> GroupShape {
        self.group
    }

    /// The scale/zero-point scheme.
    pub fn scheme(&self) -> QuantScheme {
        self.scheme
    }

    /// Quantizes a `[k, n]` weight matrix.
    ///
    /// Symmetric: scale per group is `max|w| / q_max`, zero point at the
    /// precision bias. Asymmetric: scale is `(max − min) / (2^b − 1)`
    /// with a per-group zero point. Codes are round-to-nearest, clamped.
    ///
    /// # Errors
    ///
    /// Returns [`PacqError::ZeroDim`] for an empty weight matrix and
    /// [`PacqError::NonFinite`] when any weight is NaN or infinite (a
    /// NaN weight would otherwise poison the group range silently).
    pub fn quantize(&self, weights: &MatrixF32) -> PacqResult<QuantizedMatrix> {
        let _span = pacq_trace::span("quant.rtn");
        pacq_trace::add_counter("quant.rtn.calls", 1);
        let (k_total, n_total) = (weights.rows(), weights.cols());
        if k_total == 0 || n_total == 0 {
            return Err(PacqError::ZeroDim {
                context: "RtnQuantizer::quantize",
            });
        }
        // One job per k-group block of rows: a block owns its rows'
        // codes and its `groups_per_row` scales and zero points, so
        // blocks never interact and the result is the same at any
        // thread count.
        let groups_per_row = n_total.div_ceil(self.group.n_size);
        let group_count = self.group.group_count(k_total, n_total);
        let block_len = self.group.k_size.min(k_total) * n_total;
        let mut codes = vec![0i8; k_total * n_total];
        let mut scales = vec![0f32; group_count];
        let mut zero_points = vec![0u8; group_count];
        let blocks: Vec<_> = weights
            .as_slice()
            .chunks(block_len)
            .zip(codes.chunks_mut(block_len))
            .zip(
                scales
                    .chunks_mut(groups_per_row)
                    .zip(zero_points.chunks_mut(groups_per_row)),
            )
            .collect();
        let finite: Vec<bool> = blocks
            .into_par_iter()
            .map(|((w, codes), (scales, zero_points))| {
                self.quantize_block(w, n_total, codes, scales, zero_points)
            })
            .collect();
        // A NaN weight would otherwise poison the group range silently.
        if !finite.into_iter().all(|f| f) {
            return Err(PacqError::NonFinite {
                context: "RtnQuantizer::quantize",
            });
        }

        Ok(QuantizedMatrix {
            precision: self.precision,
            group: self.group,
            k: k_total,
            n: n_total,
            codes,
            scales,
            zero_points,
        })
    }

    /// Quantizes one k-group block: the row-major weights `w` of up to
    /// `k_size` rows of `n` columns into `codes`, and the block's
    /// groups (one per run of `n_size` columns) into `scales` and
    /// `zero_points`. Returns `false`, leaving the outputs unspecified,
    /// when any weight is NaN or infinite.
    ///
    /// A running column-wise min/max over the rows gives every
    /// column's range; each run of `n_size` columns reduces to its
    /// group's scale and zero point, which are expanded back into one
    /// per-column scale row and shift row so the coding pass is
    /// elementwise over each row.
    fn quantize_block(
        &self,
        w: &[f32],
        n: usize,
        codes: &mut [i8],
        scales: &mut [f32],
        zero_points: &mut [u8],
    ) -> bool {
        let mut lo = vec![f32::INFINITY; n];
        let mut hi = vec![f32::NEG_INFINITY; n];
        // `v · 0` is ±0 for a finite weight and NaN otherwise; NaN sticks.
        let mut poison = vec![0f32; n];
        for row in w.chunks_exact(n) {
            for (((l, h), p), &v) in lo.iter_mut().zip(&mut hi).zip(&mut poison).zip(row) {
                *l = if v < *l { v } else { *l };
                *h = if v > *h { v } else { *h };
                *p += v * 0.0;
            }
        }
        if poison.iter().any(|p| p.is_nan()) {
            return false;
        }

        // Reduce each column run to its group, then expand the group's
        // scale and code shift back over the run (in place of the
        // column ranges, which are no longer needed).
        let bias = self.precision.bias();
        let runs = lo
            .chunks_mut(self.group.n_size)
            .zip(hi.chunks_mut(self.group.n_size));
        for ((run_lo, run_hi), (scale, zp)) in runs.zip(scales.iter_mut().zip(zero_points)) {
            let l = run_lo.iter().fold(f32::INFINITY, |a, &b| a.min(b));
            let h = run_hi.iter().fold(f32::NEG_INFINITY, |a, &b| a.max(b));
            (*scale, *zp) = self.scale_and_zero_point(l, h);
            run_lo.fill(*scale);
            run_hi.fill((*zp as i32 - bias) as f32);
        }
        let (scale_row, shift_row) = (lo, hi);

        // Round-to-nearest codes (stored signed; the hardware consumes
        // `signed + bias` as the unsigned biased code).
        let q_min = self.precision.min_value() as f32;
        let q_pos = self.precision.max_value() as f32;
        for (crow, wrow) in codes.chunks_exact_mut(n).zip(w.chunks_exact(n)) {
            for (((c, &v), &s), &shift) in crow.iter_mut().zip(wrow).zip(&scale_row).zip(&shift_row)
            {
                *c = rtn_code(v / s, shift, q_min, q_pos);
            }
        }
        true
    }

    /// The scale and zero point (unsigned code) of a group whose
    /// weights span `[l, h]`.
    fn scale_and_zero_point(&self, l: f32, h: f32) -> (f32, u8) {
        let bias = self.precision.bias() as u8;
        match self.scheme {
            QuantScheme::Symmetric => {
                let m = l.abs().max(h.abs());
                let q_pos = self.precision.max_value() as f32;
                (if m > 0.0 { m / q_pos } else { 1.0 }, bias)
            }
            QuantScheme::Asymmetric => {
                // Extend the range to include zero so the zero point
                // stays inside the unsigned code range (the standard
                // INT4 affine convention).
                let levels = ((1i32 << self.precision.bits()) - 1) as f32; // 2^b − 1
                let (l, h) = (l.min(0.0), h.max(0.0));
                let range = h - l;
                if range > 0.0 {
                    let s = range / levels;
                    (s, (-l / s).round().clamp(0.0, levels) as u8)
                } else {
                    (1.0, bias)
                }
            }
        }
    }
}

/// 1.5·2²³: adding it to an f32 of magnitude below 2²² rounds that
/// value to an integer (round-half-even) and leaves the integer, in
/// two's complement, in the low mantissa bits.
const ROUND_MAGIC: f32 = 12_582_912.0;

/// The pre-clamp bound of [`rtn_code`]: beyond `±ROUND_LIMIT` every
/// code saturates for any shift and clamp range of an INT4/INT2 code
/// (`|shift| + max(|lo|, |hi|) < ROUND_LIMIT`).
const ROUND_LIMIT: f32 = 64.0;

/// The RTN code `(x.round() + shift).clamp(lo, hi) as i8` for an
/// integral `shift` and clamp range `lo ≤ hi`, on every `x` including
/// NaN (code 0, as `NaN as i8`) and ±∞. It is branch-free so the coding
/// loop vectorizes on plain SSE2, where `f32::round` and the saturating
/// `as i8` do not.
///
/// `x` is first clamped to `±ROUND_LIMIT`, where the code is already
/// saturated. The magic add rounds `|x|` half to even; a tie that went
/// down (`|x| − r` exactly ½) then steps up, which is round half away
/// from zero once `x`'s sign is restored.
#[inline]
fn rtn_code(x: f32, shift: f32, lo: f32, hi: f32) -> i8 {
    // Plain compare-selects (single `minps`/`maxps`): NaN becomes the
    // limit here and is masked to code 0 at the end.
    let xc = if x < ROUND_LIMIT { x } else { ROUND_LIMIT };
    let xc = if xc > -ROUND_LIMIT { xc } else { -ROUND_LIMIT };
    let t = xc.abs();
    let r = (t + ROUND_MAGIC) - ROUND_MAGIC;
    let r = r + if t - r == 0.5 { 1.0 } else { 0.0 };
    let q = r.copysign(xc) + shift;
    let q = if q < hi { q } else { hi };
    let q = if q > lo { q } else { lo };
    // The clamped code is a small integer: the low byte of the magic
    // sum is its two's-complement value.
    let bits = (q + ROUND_MAGIC).to_bits();
    let bits = if x.is_nan() { 0 } else { bits };
    bits as i8
}

/// A weight matrix quantized to signed low-precision codes with per-group
/// scales.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedMatrix {
    precision: WeightPrecision,
    group: GroupShape,
    k: usize,
    n: usize,
    codes: Vec<i8>,
    scales: Vec<f32>,
    /// Per-group zero points as unsigned codes; the precision bias for
    /// symmetric quantization.
    zero_points: Vec<u8>,
}

impl QuantizedMatrix {
    /// Reassembles a quantized matrix from raw parts (the inverse of
    /// packing; see `pacq_quant::PackedMatrix::unpack`).
    ///
    /// # Errors
    ///
    /// Returns a typed error if `codes.len() != k * n`, if `scales` or
    /// `zero_points` do not match the group count, or if any code is out
    /// of range for `precision`.
    pub fn from_parts(
        precision: WeightPrecision,
        group: GroupShape,
        k: usize,
        n: usize,
        codes: Vec<i8>,
        scales: Vec<f32>,
        zero_points: Vec<u8>,
    ) -> PacqResult<Self> {
        if codes.len() != k * n {
            return Err(PacqError::ShapeMismatch {
                context: "QuantizedMatrix::from_parts (codes length)",
                left: codes.len(),
                right: k * n,
            });
        }
        if scales.len() != group.group_count(k, n) {
            return Err(PacqError::ShapeMismatch {
                context: "QuantizedMatrix::from_parts (scales length)",
                left: scales.len(),
                right: group.group_count(k, n),
            });
        }
        if zero_points.len() != scales.len() {
            return Err(PacqError::ShapeMismatch {
                context: "QuantizedMatrix::from_parts (zero points length)",
                left: zero_points.len(),
                right: scales.len(),
            });
        }
        if !codes
            .iter()
            .all(|&c| c >= precision.min_value() && c <= precision.max_value())
        {
            return Err(PacqError::invalid_input(
                "QuantizedMatrix::from_parts",
                format!("code out of range for {precision}"),
            ));
        }
        Ok(QuantizedMatrix {
            precision,
            group,
            k,
            n,
            codes,
            scales,
            zero_points,
        })
    }

    /// Crate-internal infallible constructor for parts produced by code
    /// that upholds the invariants by construction (e.g. unpacking a
    /// [`crate::PackedMatrix`], whose lane masks guarantee code ranges).
    pub(crate) fn from_parts_trusted(
        precision: WeightPrecision,
        group: GroupShape,
        k: usize,
        n: usize,
        codes: Vec<i8>,
        scales: Vec<f32>,
        zero_points: Vec<u8>,
    ) -> Self {
        debug_assert_eq!(codes.len(), k * n);
        debug_assert_eq!(scales.len(), group.group_count(k, n));
        debug_assert_eq!(zero_points.len(), scales.len());
        QuantizedMatrix {
            precision,
            group,
            k,
            n,
            codes,
            scales,
            zero_points,
        }
    }

    /// The weight precision.
    pub fn precision(&self) -> WeightPrecision {
        self.precision
    }

    /// The group geometry used at quantization time.
    pub fn group(&self) -> GroupShape {
        self.group
    }

    /// Input-feature extent (k).
    pub fn k(&self) -> usize {
        self.k
    }

    /// Output-feature extent (n).
    pub fn n(&self) -> usize {
        self.n
    }

    /// The signed code of weight `(k, n)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn code(&self, k: usize, n: usize) -> i8 {
        assert!(k < self.k && n < self.n, "index ({k},{n}) out of bounds");
        self.codes[k * self.n + n]
    }

    /// The scale applying to weight `(k, n)`.
    #[inline]
    pub fn scale(&self, k: usize, n: usize) -> f32 {
        self.scales[self.group.group_of(k, n, self.n)]
    }

    /// All group scales.
    pub fn scales(&self) -> &[f32] {
        &self.scales
    }

    /// The zero point (unsigned code) applying to weight `(k, n)`.
    #[inline]
    pub fn zero_point(&self, k: usize, n: usize) -> u8 {
        self.zero_points[self.group.group_of(k, n, self.n)]
    }

    /// All group zero points (= the precision bias when symmetric).
    pub fn zero_points(&self) -> &[u8] {
        &self.zero_points
    }

    /// All signed codes, row-major `[k, n]`.
    pub fn codes(&self) -> &[i8] {
        &self.codes
    }

    /// The dequantized weight matrix `s · (q − z)` where
    /// `q = code + bias` is the unsigned biased code (for symmetric
    /// quantization `z = bias`, so this is `code × scale`).
    pub fn dequantize(&self) -> MatrixF32 {
        let bias = self.precision.bias();
        MatrixF32::from_fn(self.k, self.n, |k, n| {
            let q = self.code(k, n) as i32 + bias;
            (q - self.zero_point(k, n) as i32) as f32 * self.scale(k, n)
        })
    }

    /// Storage footprint of the packed codes in bits (without scales).
    pub fn code_bits(&self) -> u64 {
        self.codes.len() as u64 * self.precision.bits() as u64
    }

    /// Storage footprint of the scales in bits (FP16 scales).
    pub fn scale_bits(&self) -> u64 {
        self.scales.len() as u64 * 16
    }
}

impl fmt::Display for QuantizedMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "QuantizedMatrix {}x{} {} {} ({} groups)",
            self.k,
            self.n,
            self.precision,
            self.group,
            self.scales.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(k: usize, n: usize) -> MatrixF32 {
        MatrixF32::from_fn(k, n, |r, c| ((r * 31 + c * 17) % 101) as f32 / 50.0 - 1.0)
    }

    #[test]
    fn codes_stay_in_range() {
        for precision in [WeightPrecision::Int4, WeightPrecision::Int2] {
            let q = RtnQuantizer::new(precision, GroupShape::along_k(32))
                .quantize(&ramp(64, 8))
                .unwrap();
            for &c in q.codes() {
                assert!(c >= precision.min_value() && c <= precision.max_value());
            }
        }
    }

    #[test]
    fn dequantized_error_is_bounded_by_half_scale() {
        let w = ramp(128, 16);
        let q = RtnQuantizer::new(WeightPrecision::Int4, GroupShape::G128)
            .quantize(&w)
            .unwrap();
        let deq = q.dequantize();
        for k in 0..w.rows() {
            for n in 0..w.cols() {
                let err = (w.get(k, n) - deq.get(k, n)).abs();
                let bound = 0.5 * q.scale(k, n) + 1e-6;
                assert!(err <= bound, "({k},{n}): err {err} > {bound}");
            }
        }
    }

    #[test]
    fn exact_grid_weights_quantize_losslessly() {
        // Weights already on the INT4 grid survive RTN exactly.
        let w = MatrixF32::from_fn(32, 4, |k, n| ((k + n) % 15) as f32 - 7.0);
        let q = RtnQuantizer::new(WeightPrecision::Int4, GroupShape::along_k(32))
            .quantize(&w)
            .unwrap();
        assert!(w.mse(&q.dequantize()) < 1e-12);
    }

    #[test]
    fn zero_group_gets_unit_scale() {
        let w = MatrixF32::zeros(32, 4);
        let q = RtnQuantizer::new(WeightPrecision::Int4, GroupShape::along_k(32))
            .quantize(&w)
            .unwrap();
        for &s in q.scales() {
            assert_eq!(s, 1.0);
        }
        assert!(q.dequantize().mse(&w) < 1e-12);
    }

    /// `quantize` against the plain per-element definition (every
    /// weight looks up its own group with `group_of`; range, scale,
    /// zero point and code by the textbook formulas), bit for bit.
    fn assert_matches_per_element_walk(quantizer: RtnQuantizer, w: &MatrixF32) {
        let (precision, group) = (quantizer.precision(), quantizer.group());
        let q = quantizer.quantize(w).unwrap();
        let (k_total, n_total) = (w.rows(), w.cols());
        let mut lo = vec![f32::INFINITY; q.scales().len()];
        let mut hi = vec![f32::NEG_INFINITY; q.scales().len()];
        for k in 0..k_total {
            for n in 0..n_total {
                let g = group.group_of(k, n, n_total);
                lo[g] = lo[g].min(w.get(k, n));
                hi[g] = hi[g].max(w.get(k, n));
            }
        }
        let what = format!("{quantizer:?} on {k_total}x{n_total}");
        for (g, (&l, &h)) in lo.iter().zip(&hi).enumerate() {
            let (s, z) = (q.scales()[g], q.zero_points()[g]);
            let (want_s, want_z) = match quantizer.scheme() {
                QuantScheme::Symmetric => {
                    let m = l.abs().max(h.abs());
                    let q_pos = precision.max_value() as f32;
                    (
                        if m > 0.0 { m / q_pos } else { 1.0 },
                        precision.bias() as u8,
                    )
                }
                QuantScheme::Asymmetric => {
                    let levels = ((1i32 << precision.bits()) - 1) as f32;
                    let range = h.max(0.0) - l.min(0.0);
                    if range > 0.0 {
                        let s = range / levels;
                        (s, (-l.min(0.0) / s).round().clamp(0.0, levels) as u8)
                    } else {
                        (1.0, precision.bias() as u8)
                    }
                }
            };
            assert_eq!(s.to_bits(), want_s.to_bits(), "{what} group {g}");
            assert_eq!(z, want_z, "{what} group {g}");
        }
        for k in 0..k_total {
            for n in 0..n_total {
                let g = group.group_of(k, n, n_total);
                let want = ((w.get(k, n) / q.scales()[g]).round()
                    + (q.zero_points()[g] as i32 - precision.bias()) as f32)
                    .clamp(precision.min_value() as f32, precision.max_value() as f32)
                    as i8;
                assert_eq!(q.code(k, n), want, "{what} ({k},{n})");
            }
        }
    }

    /// Every quantizer configuration a test shape is checked under.
    fn quantizers(group: GroupShape) -> Vec<RtnQuantizer> {
        [WeightPrecision::Int4, WeightPrecision::Int2]
            .into_iter()
            .flat_map(|p| {
                [
                    RtnQuantizer::new(p, group),
                    RtnQuantizer::asymmetric(p, group),
                ]
            })
            .collect()
    }

    /// The k-group block walk of `quantize` against the per-element
    /// definition: on shapes whose last k- and n-groups are partial,
    /// with 1-D and 2-D groups and a group taller than k (one block);
    /// on seeded random shapes and groups; on all-zero groups; and on
    /// weights placed exactly on the `(j + ½)·s` rounding ties — in
    /// both schemes and both precisions.
    #[test]
    fn row_runs_match_the_per_element_group_walk() {
        let w = MatrixF32::from_fn(45, 14, |r, c| {
            ((r * 37 + c * 11) % 29) as f32 / 9.0 - 1.5 + (c % 3) as f32 * 0.25
        });
        for group in [
            GroupShape::along_k(16),
            GroupShape::new(8, 4),
            GroupShape::new(45, 14),
            GroupShape::new(64, 3),
        ] {
            for quantizer in quantizers(group) {
                assert_matches_per_element_walk(quantizer, &w);
            }
        }

        // Seeded random shapes, groups and magnitudes; every third
        // matrix zeroes a band of rows and columns so whole groups are
        // zero.
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = move |bound: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % bound
        };
        for case in 0..60 {
            let (k, n) = (1 + next(70) as usize, 1 + next(20) as usize);
            let group = GroupShape::new(1 + next(80) as usize, 1 + next(6) as usize);
            let magnitude = [1e-3f32, 1.0, 250.0][case % 3];
            let zero_rows = next(k as u64 + 1) as usize;
            let zero_cols = next(n as u64 + 1) as usize;
            let w = MatrixF32::from_fn(k, n, |r, c| {
                let v = (next(20_001) as f32 / 10_000.0 - 1.0) * magnitude;
                if case % 3 == 0 && r < zero_rows && c < zero_cols {
                    0.0
                } else {
                    v
                }
            });
            for quantizer in quantizers(group) {
                assert_matches_per_element_walk(quantizer, &w);
            }
        }

        // Exact ties: a column spanning [−1.75, 2.0] has the symmetric
        // scale 2/7 and the asymmetric scale 3.75/15 = ¼ (its negation
        // too); each carries every `(j + ½)·s` of one of them in range.
        for s in [2.0f32 / 7.0, 0.25] {
            let mut column = vec![-1.75f32, 2.0];
            column.extend(
                (-8..8)
                    .map(|j| (j as f32 + 0.5) * s)
                    .filter(|v| (-1.75..=2.0).contains(v)),
            );
            let w =
                MatrixF32::from_fn(
                    column.len(),
                    2,
                    |r, c| {
                        if c == 0 {
                            column[r]
                        } else {
                            -column[r]
                        }
                    },
                );
            for quantizer in quantizers(GroupShape::along_k(column.len())) {
                assert_matches_per_element_walk(quantizer, &w);
            }
        }
    }

    /// `rtn_code` against `(x.round() + shift).clamp(lo, hi) as i8` in
    /// each precision's clamp range, for every shift its zero points
    /// can produce (`all_shifts`) or for the two extremes and zero.
    fn assert_code_matches_round(x: f32, all_shifts: bool) {
        for precision in [WeightPrecision::Int4, WeightPrecision::Int2] {
            let (lo, hi) = (precision.min_value() as f32, precision.max_value() as f32);
            let levels = (1i32 << precision.bits()) - 1;
            let bias = precision.bias();
            let zero_points: Vec<i32> = if all_shifts {
                (0..=levels).collect()
            } else {
                vec![0, bias, levels]
            };
            for zp in zero_points {
                let shift = (zp - bias) as f32;
                let want = (x.round() + shift).clamp(lo, hi) as i8;
                assert_eq!(
                    rtn_code(x, shift, lo, hi),
                    want,
                    "x = {x:e} ({:#010x}), shift {shift}, {precision}",
                    x.to_bits()
                );
            }
        }
    }

    #[test]
    fn rtn_code_matches_round_and_clamp_on_the_frontier() {
        let mut xs = vec![0.0f32, -0.0, f32::INFINITY, f32::NEG_INFINITY, f32::NAN];
        // Every half-integer tie in (and just beyond) the pre-clamp
        // range, with 1–2 ulps either side.
        let limit = ROUND_LIMIT as i32;
        for j in -limit - 2..=limit + 2 {
            let tie = j as f32 + 0.5;
            for d in -2i32..=2 {
                xs.push(f32::from_bits(tie.to_bits().wrapping_add_signed(d)));
            }
        }
        // The clamp edges and the limit itself, with neighbours.
        for edge in [1.0f32, 2.0, 7.0, 8.0, 9.0, 15.0, 16.0, ROUND_LIMIT] {
            for v in [edge, -edge] {
                for d in -2i32..=2 {
                    xs.push(f32::from_bits(v.to_bits().wrapping_add_signed(d)));
                }
            }
        }
        // Subnormals, the normal frontier and the extremes.
        for bits in [
            0x0000_0001u32,
            0x0000_0002,
            0x0040_0000,
            0x007f_ffff,
            0x0080_0000,
            0x3eff_ffff, // largest below ½
            0x3f00_0001, // smallest above ½
            0x4b00_0000, // 2^23
            0x4b40_0000, // the magic constant
            0x7f7f_ffff, // f32::MAX
            0x7f80_0001, // a signalling NaN
            0x7fc0_0000, // the quiet NaN
        ] {
            xs.push(f32::from_bits(bits));
            xs.push(f32::from_bits(bits | 0x8000_0000));
        }
        for &x in &xs {
            assert_code_matches_round(x, true);
        }
    }

    #[test]
    fn rtn_code_matches_round_and_clamp_on_a_seeded_sample() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        for i in 0..100_000 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let bits = (state >> 32) as u32;
            // Alternate raw bit patterns with values in the pre-clamp
            // range, where the rounding itself decides the code.
            let x = if i % 2 == 0 {
                f32::from_bits(bits)
            } else {
                (bits as f32 / u32::MAX as f32 - 0.5) * 3.0 * ROUND_LIMIT
            };
            assert_code_matches_round(x, true);
        }
    }

    /// Every f32 bit pattern, at the extreme and zero shifts (minutes
    /// in release: `cargo test --release -p pacq-quant -- --ignored`).
    #[test]
    #[ignore]
    fn rtn_code_matches_round_and_clamp_on_every_f32() {
        for bits in 0..=u32::MAX {
            assert_code_matches_round(f32::from_bits(bits), false);
        }
    }

    #[test]
    fn group_count_matches_shape() {
        let w = ramp(128, 16);
        let q128 = RtnQuantizer::new(WeightPrecision::Int4, GroupShape::G128)
            .quantize(&w)
            .unwrap();
        assert_eq!(q128.scales().len(), 16); // 1 k-group × 16 columns
        let q2d = RtnQuantizer::new(WeightPrecision::Int4, GroupShape::G32X4)
            .quantize(&w)
            .unwrap();
        assert_eq!(q2d.scales().len(), 4 * 4);
    }

    #[test]
    fn equal_volume_groups_have_similar_error() {
        // The essence of Table II: g128 and g[32,4] see statistically
        // similar sub-distributions, so RTN error matches closely.
        let w = ramp(256, 64);
        let e1 = {
            let q = RtnQuantizer::new(WeightPrecision::Int4, GroupShape::G128)
                .quantize(&w)
                .unwrap();
            w.mse(&q.dequantize())
        };
        let e2 = {
            let q = RtnQuantizer::new(WeightPrecision::Int4, GroupShape::G32X4)
                .quantize(&w)
                .unwrap();
            w.mse(&q.dequantize())
        };
        let ratio = e1 / e2;
        assert!((0.5..2.0).contains(&ratio), "error ratio {ratio}");
    }

    #[test]
    fn asymmetric_improves_skewed_groups() {
        // A strictly positive weight distribution wastes half the
        // symmetric range; the zero point recovers it.
        let w = MatrixF32::from_fn(64, 8, |k, n| 0.5 + ((k * 7 + n) % 32) as f32 / 64.0);
        let sym = RtnQuantizer::new(WeightPrecision::Int4, GroupShape::along_k(32))
            .quantize(&w)
            .unwrap();
        let asym = RtnQuantizer::asymmetric(WeightPrecision::Int4, GroupShape::along_k(32))
            .quantize(&w)
            .unwrap();
        let e_sym = w.mse(&sym.dequantize());
        let e_asym = w.mse(&asym.dequantize());
        assert!(
            e_asym < e_sym / 2.0,
            "asymmetric {e_asym} should clearly beat symmetric {e_sym}"
        );
    }

    #[test]
    fn symmetric_zero_points_equal_bias() {
        let q = RtnQuantizer::new(WeightPrecision::Int4, GroupShape::along_k(32))
            .quantize(&ramp(64, 8))
            .unwrap();
        assert!(q.zero_points().iter().all(|&z| z == 8));
        let q2 = RtnQuantizer::new(WeightPrecision::Int2, GroupShape::along_k(32))
            .quantize(&ramp(64, 8))
            .unwrap();
        assert!(q2.zero_points().iter().all(|&z| z == 2));
    }

    #[test]
    fn asymmetric_error_bound_holds() {
        let w = ramp(128, 16);
        let q = RtnQuantizer::asymmetric(WeightPrecision::Int4, GroupShape::G128)
            .quantize(&w)
            .unwrap();
        let deq = q.dequantize();
        for k in 0..w.rows() {
            for n in 0..w.cols() {
                let err = (w.get(k, n) - deq.get(k, n)).abs();
                assert!(err <= 0.5 * q.scale(k, n) + 1e-6, "({k},{n}): err {err}");
            }
        }
    }

    #[test]
    fn asymmetric_zero_points_in_code_range() {
        let q = RtnQuantizer::asymmetric(WeightPrecision::Int4, GroupShape::along_k(32))
            .quantize(&ramp(64, 8))
            .unwrap();
        assert!(q.zero_points().iter().all(|&z| z <= 15));
    }

    #[test]
    fn degenerate_inputs_yield_typed_errors() {
        let q = RtnQuantizer::new(WeightPrecision::Int4, GroupShape::G128);
        assert!(matches!(
            q.quantize(&MatrixF32::zeros(0, 8)),
            Err(PacqError::ZeroDim { .. })
        ));
        assert!(matches!(
            q.quantize(&MatrixF32::zeros(8, 0)),
            Err(PacqError::ZeroDim { .. })
        ));
        let nan = MatrixF32::from_fn(16, 4, |k, n| if k == 3 && n == 1 { f32::NAN } else { 0.5 });
        assert!(matches!(q.quantize(&nan), Err(PacqError::NonFinite { .. })));
        let inf = MatrixF32::from_fn(16, 4, |k, _| if k == 0 { f32::INFINITY } else { 0.5 });
        assert!(matches!(q.quantize(&inf), Err(PacqError::NonFinite { .. })));
    }

    #[test]
    fn from_parts_validates_every_contract() {
        let g = GroupShape::along_k(32);
        let p = WeightPrecision::Int4;
        let ok = QuantizedMatrix::from_parts(p, g, 32, 2, vec![0; 64], vec![1.0; 2], vec![8; 2]);
        assert!(ok.is_ok());
        // Wrong codes length.
        assert!(matches!(
            QuantizedMatrix::from_parts(p, g, 32, 2, vec![0; 63], vec![1.0; 2], vec![8; 2]),
            Err(PacqError::ShapeMismatch { .. })
        ));
        // Wrong scales length.
        assert!(matches!(
            QuantizedMatrix::from_parts(p, g, 32, 2, vec![0; 64], vec![1.0; 3], vec![8; 3]),
            Err(PacqError::ShapeMismatch { .. })
        ));
        // Wrong zero-points length.
        assert!(matches!(
            QuantizedMatrix::from_parts(p, g, 32, 2, vec![0; 64], vec![1.0; 2], vec![8; 1]),
            Err(PacqError::ShapeMismatch { .. })
        ));
        // Out-of-range code.
        assert!(matches!(
            QuantizedMatrix::from_parts(p, g, 32, 2, vec![99; 64], vec![1.0; 2], vec![8; 2]),
            Err(PacqError::InvalidInput { .. })
        ));
    }

    #[test]
    fn storage_footprint() {
        let q = RtnQuantizer::new(WeightPrecision::Int4, GroupShape::G128)
            .quantize(&ramp(128, 8))
            .unwrap();
        assert_eq!(q.code_bits(), 128 * 8 * 4);
        assert_eq!(q.scale_bits(), 8 * 16);
    }
}
