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
        if !weights.as_slice().iter().all(|v| v.is_finite()) {
            return Err(PacqError::NonFinite {
                context: "RtnQuantizer::quantize",
            });
        }
        let group_count = self.group.group_count(k_total, n_total);
        let q_pos = self.precision.max_value() as f32;
        let q_min = self.precision.min_value() as f32;
        let bias = self.precision.bias();
        let levels = (1i32 << self.precision.bits()) - 1; // 2^b − 1

        // Pass 1: per-group range. Row bands compute partial ranges in
        // parallel; min/max merging is exact, so the merged range is
        // identical at any thread count.
        //
        // Both passes walk each weight row as runs of `n_size` columns,
        // one group per run: `group_of` for row `k` is `row_groups(k)`
        // plus the run index.
        let groups_per_row = n_total.div_ceil(self.group.n_size);
        let row_groups = |k: usize| {
            let base = (k / self.group.k_size) * groups_per_row;
            base..base + groups_per_row
        };
        let band = k_total.div_ceil(rayon::current_num_threads().max(1)).max(1);
        let bands: Vec<(usize, usize)> = (0..k_total)
            .step_by(band)
            .map(|s| (s, (s + band).min(k_total)))
            .collect();
        let partials: Vec<(Vec<f32>, Vec<f32>)> = bands
            .into_par_iter()
            .map(|(start, end)| {
                let mut lo = vec![f32::INFINITY; group_count];
                let mut hi = vec![f32::NEG_INFINITY; group_count];
                for k in start..end {
                    let runs = weights.row(k).chunks(self.group.n_size);
                    let groups = row_groups(k);
                    for ((run, lo), hi) in runs.zip(&mut lo[groups.clone()]).zip(&mut hi[groups]) {
                        for &w in run {
                            *lo = lo.min(w);
                            *hi = hi.max(w);
                        }
                    }
                }
                (lo, hi)
            })
            .collect();
        let mut lo = vec![f32::INFINITY; group_count];
        let mut hi = vec![f32::NEG_INFINITY; group_count];
        for (plo, phi) in &partials {
            for g in 0..group_count {
                lo[g] = lo[g].min(plo[g]);
                hi[g] = hi[g].max(phi[g]);
            }
        }
        let (scales, zero_points): (Vec<f32>, Vec<u8>) = match self.scheme {
            QuantScheme::Symmetric => lo
                .iter()
                .zip(&hi)
                .map(|(&l, &h)| {
                    let m = l.abs().max(h.abs());
                    (if m > 0.0 { m / q_pos } else { 1.0 }, bias as u8)
                })
                .unzip(),
            QuantScheme::Asymmetric => lo
                .iter()
                .zip(&hi)
                .map(|(&l, &h)| {
                    // Extend the range to include zero so the zero point
                    // stays inside the unsigned code range (the standard
                    // INT4 affine convention).
                    let l = l.min(0.0);
                    let h = h.max(0.0);
                    let range = h - l;
                    if range > 0.0 {
                        let s = range / levels as f32;
                        let z = (-l / s).round().clamp(0.0, levels as f32) as u8;
                        (s, z)
                    } else {
                        (1.0, bias as u8)
                    }
                })
                .unzip(),
        };

        // Pass 2: round-to-nearest codes (stored signed; the hardware
        // consumes `signed + bias` as the unsigned biased code). Every
        // code depends only on its own weight, so rows fan out freely.
        let mut codes = vec![0i8; k_total * n_total];
        if n_total > 0 {
            codes
                .par_chunks_mut(n_total)
                .enumerate()
                .for_each(|(k, row)| {
                    let runs = row
                        .chunks_mut(self.group.n_size)
                        .zip(weights.row(k).chunks(self.group.n_size));
                    let groups = row_groups(k);
                    for ((codes, run), (&scale, &zp)) in
                        runs.zip(scales[groups.clone()].iter().zip(&zero_points[groups]))
                    {
                        let shift = (zp as i32 - bias) as f32;
                        for (c, &w) in codes.iter_mut().zip(run) {
                            let q = (w / scale).round() + shift;
                            *c = q.clamp(q_min, q_pos) as i8;
                        }
                    }
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

    /// The row-run walk of `quantize` against the plain per-element
    /// definition (every weight looks up its own group with
    /// `group_of`), bit for bit, on shapes whose last k- and n-groups
    /// are partial, with 1-D and 2-D groups, in both schemes.
    #[test]
    fn row_runs_match_the_per_element_group_walk() {
        let w = MatrixF32::from_fn(45, 14, |r, c| {
            ((r * 37 + c * 11) % 29) as f32 / 9.0 - 1.5 + (c % 3) as f32 * 0.25
        });
        for precision in [WeightPrecision::Int4, WeightPrecision::Int2] {
            for group in [
                GroupShape::along_k(16),
                GroupShape::new(8, 4),
                GroupShape::new(45, 14),
                GroupShape::new(64, 3),
            ] {
                for quantizer in [
                    RtnQuantizer::new(precision, group),
                    RtnQuantizer::asymmetric(precision, group),
                ] {
                    let q = quantizer.quantize(&w).unwrap();
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
                                let s = range / levels;
                                (s, (-l.min(0.0) / s).round().clamp(0.0, levels) as u8)
                            }
                        };
                        assert_eq!(s.to_bits(), want_s.to_bits(), "{quantizer:?} group {g}");
                        assert_eq!(z, want_z, "{quantizer:?} group {g}");
                    }
                    for k in 0..k_total {
                        for n in 0..n_total {
                            let g = group.group_of(k, n, n_total);
                            let want = ((w.get(k, n) / q.scales()[g]).round()
                                + (q.zero_points()[g] as i32 - precision.bias()) as f32)
                                .clamp(precision.min_value() as f32, precision.max_value() as f32)
                                as i8;
                            assert_eq!(q.code(k, n), want, "{quantizer:?} ({k},{n})");
                        }
                    }
                }
            }
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
