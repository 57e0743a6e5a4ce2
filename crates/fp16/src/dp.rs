//! Dot-product units: the baseline FP16 DP-4 and the parallel FP-INT DP-4
//! (Table I), with the adder-tree duplication knob of Figure 11 and the
//! DP-8/DP-16 width knob of Figure 12(a).
//!
//! Besides the cycle/timing model the units compute *functionally*, using
//! the bit-accurate datapaths, so the numeric fidelity of PacQ's biased
//! arithmetic can be measured (see [`NumericsMode`]).

use crate::bits::Fp16;
use crate::mul::{Fp16Multiplier, RoundingMode};
use crate::packed::{PackedWord, WeightPrecision};
use crate::parallel::{ParallelFpIntMultiplier, MAX_LANES};
use crate::softfloat;
use pacq_error::{PacqError, PacqResult};

/// Whether lane products are rounded to FP16 before accumulation.
///
/// The paper's Figure 5(d) rounds every lane product to FP16 ("passed to
/// the rounding units and truncated to 10 bits"). Because the biased
/// product `A × (B + 1032)` is ~1032× larger than the true term `A × B`,
/// that rounding erases low-order bits *where the true term lives*, which
/// the later `− 1032·ΣA` subtraction cannot restore. [`NumericsMode::Wide`]
/// keeps the exact 22-bit product (as a binary32 value, which holds it
/// exactly) so the recovery is error-free — quantifying this difference is
/// one of this reproduction's findings (see EXPERIMENTS.md).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum NumericsMode {
    /// Round each lane product to FP16 first, exactly as the paper's
    /// rounding units do.
    #[default]
    PaperRounded,
    /// Carry the exact significand product into the accumulator.
    Wide,
}

/// Resource inventory of a dot-product unit (Table I rows "FP-16 DP-4" and
/// "Parallel FP-INT-16 DP-4").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DpResources {
    /// Scalar FP16 multipliers (baseline only).
    pub fp16_multipliers: u32,
    /// Parallel FP-INT multipliers (PacQ only).
    pub parallel_multipliers: u32,
    /// FP16 adders (tree + accumulate).
    pub fp16_adders: u32,
    /// Small Σ A accumulators (PacQ only).
    pub sum_accumulators: u32,
}

/// The `Σ A_k` side accumulator of Figure 6 ("small accumulators"),
/// enabling the fused bias removal of Eq. (1):
///
/// `Σ A_k·B_k = Σ A_k·(B_k + offset) − offset · Σ A_k`
///
/// # Examples
///
/// ```
/// use pacq_fp16::{Fp16, SumAccumulator};
///
/// let mut acc = SumAccumulator::new();
/// acc.add(Fp16::from_f32(1.5));
/// acc.add(Fp16::from_f32(-0.25));
/// assert_eq!(acc.total(), 1.25);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SumAccumulator {
    total: f64,
    count: u64,
}

impl SumAccumulator {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one activation.
    pub fn add(&mut self, a: Fp16) {
        self.total += a.to_f32() as f64;
        self.count += 1;
    }

    /// The running sum.
    pub fn total(&self) -> f64 {
        self.total
    }

    /// Number of accumulated values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Resets to empty.
    pub fn reset(&mut self) {
        *self = Self::default();
    }
}

/// Largest supported DP width; sizes the stack scratch buffers of the
/// allocation-free dot-product paths.
pub(crate) const MAX_WIDTH: usize = 16;

/// Supported dot-product widths (Figure 12(a) studies DP-8 and DP-16).
pub(crate) fn validate_width(width: usize) -> PacqResult<()> {
    if matches!(width, 4 | 8 | 16) {
        Ok(())
    } else {
        Err(PacqError::invalid_input(
            "DP unit",
            format!("width must be 4, 8 or 16, got {width}"),
        ))
    }
}

/// Tree depth of a `width`-input reduction.
fn tree_levels(width: usize) -> u32 {
    width.trailing_zeros()
}

/// The baseline FP16 DP-4/8/16 (Table I: "4 FP16 MUL, 4 FP16 adders" at
/// width 4).
///
/// Timing: the pipeline issues one `width`-element dot product per cycle
/// with a depth of `1 (multiply) + log2(width) (tree) + 1 (accumulate)`
/// stages, which reproduces the paper's "11 cycles to generate 8 FP16
/// outputs" for DP-4 (8 + 4 − 1 = 11).
///
/// # Examples
///
/// ```
/// use pacq_fp16::{BaselineDpUnit, Fp16};
///
/// let dp = BaselineDpUnit::new(4).unwrap();
/// assert_eq!(dp.cycles_for_outputs(8), 11); // paper, Figure 8 discussion
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BaselineDpUnit {
    width: usize,
    mul: Fp16Multiplier,
}

impl BaselineDpUnit {
    /// Creates a baseline unit of the given width with FP32 accumulation.
    ///
    /// Returns an error if `width` is not 4, 8 or 16.
    pub fn new(width: usize) -> PacqResult<Self> {
        validate_width(width)?;
        Ok(BaselineDpUnit {
            width,
            mul: Fp16Multiplier::new(),
        })
    }

    /// The unit width (4, 8 or 16).
    pub fn width(&self) -> usize {
        self.width
    }

    /// Resource inventory: `width` FP16 multipliers + `width` FP16 adders
    /// (a `width−1`-adder tree plus one accumulate adder).
    pub fn resources(&self) -> DpResources {
        DpResources {
            fp16_multipliers: self.width as u32,
            parallel_multipliers: 0,
            fp16_adders: self.width as u32,
            sum_accumulators: 0,
        }
    }

    /// Pipeline depth in cycles (multiply, tree levels, accumulate).
    pub fn pipeline_depth(&self) -> u64 {
        1 + tree_levels(self.width) as u64 + 1
    }

    /// Cycles between successive dot-product issues (1: fully pipelined).
    pub fn issue_interval(&self) -> u64 {
        1
    }

    /// Total cycles to produce `outputs` dot products back to back.
    pub fn cycles_for_outputs(&self, outputs: u64) -> u64 {
        if outputs == 0 {
            return 0;
        }
        outputs * self.issue_interval() + self.pipeline_depth() - 1
    }

    /// One `width`-element dot product through the modeled datapath:
    /// FP16 products, FP16 tree reduction, accumulate into the binary32
    /// accumulator `c`. Returns the updated accumulator.
    ///
    /// # Panics
    ///
    /// Panics if `a` or `b` length differs from the unit width.
    pub fn dot_acc(&self, c: f32, a: &[Fp16], b: &[Fp16]) -> f32 {
        assert_eq!(a.len(), self.width, "a operand width mismatch");
        assert_eq!(b.len(), self.width, "b operand width mismatch");
        let mut products = [Fp16::ZERO; MAX_WIDTH];
        for (slot, (&x, &y)) in products.iter_mut().zip(a.iter().zip(b)) {
            *slot = self.mul.product(x, y);
        }
        c + reduce_tree_in_place(&mut products[..self.width]).to_f32()
    }
}

/// Result of a parallel packed dot product: per-lane biased sums plus the
/// Σ A needed for bias removal.
#[derive(Debug, Clone, PartialEq)]
pub struct PackedDotResult {
    /// `Σ_k A_k × (B_k,lane + offset)` per lane, accumulated in binary32.
    pub lane_sums: Vec<f32>,
    /// The side accumulator's `Σ_k A_k`.
    pub sum_a: f64,
    /// The precision's FP-domain offset (1032 or 1026).
    pub offset: i32,
}

impl PackedDotResult {
    /// Recovers the true dot products `Σ A·B` per lane via Eq. (1).
    pub fn recover(&self) -> Vec<f32> {
        let mut out = vec![0f32; self.lane_sums.len()];
        self.recover_into(&mut out);
        out
    }

    /// Allocation-free core of [`Self::recover`]: writes the recovered
    /// lanes into the front of `out` (caller-provided scratch for the
    /// GEMM hot paths).
    ///
    /// # Panics
    ///
    /// Panics if `out` is shorter than `lane_sums`.
    pub fn recover_into(&self, out: &mut [f32]) {
        assert!(
            out.len() >= self.lane_sums.len(),
            "recovery scratch holds {} lanes, need {}",
            out.len(),
            self.lane_sums.len()
        );
        for (dst, &s) in out.iter_mut().zip(&self.lane_sums) {
            *dst = (s as f64 - self.offset as f64 * self.sum_a) as f32;
        }
    }
}

/// The parallel FP-INT DP unit (Table I row "Parallel FP-INT-16 DP-4": 4
/// parallel FP-INT-16 MUL, 8 FP16 adders at duplication 2).
///
/// Each cycle the `width` parallel multipliers consume `width` activations
/// and `width` packed words and emit `width × lanes` products; the
/// duplicated adder trees then reduce `duplication` lanes per cycle, so
/// the issue interval is `lanes / duplication`. With the paper's defaults
/// (width 4, duplication 2) this reproduces "the inner product of 16
/// values in 2 cycles for INT4" and "19 (35) cycles to generate 32 (64)
/// FP16 outputs" for the `m2n4k4` workload of Figure 8.
///
/// # Examples
///
/// ```
/// use pacq_fp16::{ParallelDpUnit, WeightPrecision};
///
/// let dp = ParallelDpUnit::new(4, 2, WeightPrecision::Int4).unwrap();
/// assert_eq!(dp.cycles_for_batches(8), 19); // 32 outputs, Figure 8
///
/// let dp2 = ParallelDpUnit::new(4, 2, WeightPrecision::Int2).unwrap();
/// assert_eq!(dp2.cycles_for_batches(8), 35); // 64 outputs, Figure 8
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelDpUnit {
    width: usize,
    duplication: usize,
    precision: WeightPrecision,
    numerics: NumericsMode,
    mul: ParallelFpIntMultiplier,
}

impl ParallelDpUnit {
    /// Creates a parallel unit.
    ///
    /// `duplication` is the adder-tree duplication level of Figure 11
    /// (1, 2 or 4; the paper's design point is 2).
    ///
    /// Returns an error if `width` is not 4/8/16 or `duplication` not
    /// 1/2/4.
    pub fn new(width: usize, duplication: usize, precision: WeightPrecision) -> PacqResult<Self> {
        validate_width(width)?;
        if !matches!(duplication, 1 | 2 | 4) {
            return Err(PacqError::invalid_input(
                "DP unit",
                format!("adder tree duplication must be 1, 2 or 4, got {duplication}"),
            ));
        }
        Ok(ParallelDpUnit {
            width,
            duplication,
            precision,
            numerics: NumericsMode::PaperRounded,
            mul: ParallelFpIntMultiplier::new(precision),
        })
    }

    /// Sets the product-rounding behaviour (see [`NumericsMode`]).
    pub fn with_numerics(mut self, numerics: NumericsMode) -> Self {
        self.numerics = numerics;
        self
    }

    /// Replaces the rounding units of the parallel multipliers (the
    /// RNE-vs-truncate design-space study; see [`RoundingMode`]).
    pub fn with_rounding(mut self, rounding: RoundingMode) -> Self {
        self.mul = self.mul.with_rounding(rounding);
        self
    }

    /// The unit width (4, 8 or 16).
    pub fn width(&self) -> usize {
        self.width
    }

    /// The adder-tree duplication level.
    pub fn duplication(&self) -> usize {
        self.duplication
    }

    /// The weight precision.
    pub fn precision(&self) -> WeightPrecision {
        self.precision
    }

    /// Resource inventory: `width` parallel multipliers plus
    /// `width × duplication` FP16 adders (Table I at width 4 /
    /// duplication 2: 8 FP16 adders), plus one Σ A accumulator.
    pub fn resources(&self) -> DpResources {
        DpResources {
            fp16_multipliers: 0,
            parallel_multipliers: self.width as u32,
            fp16_adders: (self.width * self.duplication) as u32,
            sum_accumulators: 1,
        }
    }

    /// Cycles between successive batch issues: the duplicated trees retire
    /// `duplication` of the `lanes` per-lane reductions per cycle.
    pub fn issue_interval(&self) -> u64 {
        let lanes = self.precision.lanes();
        (lanes as u64).div_ceil(self.duplication as u64)
    }

    /// Pipeline depth (multiply, tree levels, accumulate).
    pub fn pipeline_depth(&self) -> u64 {
        1 + tree_levels(self.width) as u64 + 1
    }

    /// Total cycles for `batches` back-to-back issues. One batch consumes
    /// `width` activations × `width` packed words and produces `lanes`
    /// partial dot products.
    pub fn cycles_for_batches(&self, batches: u64) -> u64 {
        if batches == 0 {
            return 0;
        }
        batches * self.issue_interval() + self.pipeline_depth() - 1
    }

    /// Outputs produced per batch (= lanes of the packing).
    pub fn outputs_per_batch(&self) -> u64 {
        self.precision.lanes() as u64
    }

    /// A full packed dot product over `a.len()` k-steps: activation vector
    /// `a` against packed words `b` (one word per k-step, each packing
    /// `lanes` weights along n). Returns the biased per-lane sums and Σ A.
    ///
    /// # Panics
    ///
    /// Panics if `a` and `b` lengths differ or are not a multiple of the
    /// unit width.
    pub fn dot_packed(&self, a: &[Fp16], b: &[PackedWord]) -> PackedDotResult {
        let mut lane_sums = [0f32; MAX_LANES];
        let sum_a = self.dot_packed_into(a, b, &mut lane_sums);
        PackedDotResult {
            lane_sums: lane_sums[..self.precision.lanes()].to_vec(),
            sum_a,
            offset: self.precision.fp_offset(),
        }
    }

    /// Allocation-free core of [`Self::dot_packed`]: accumulates the
    /// biased per-lane sums into `lane_sums` (only the first
    /// `precision.lanes()` entries are written) and returns `Σ A`.
    ///
    /// This is the functional GEMM hot path — all scratch lives in fixed
    /// stack buffers and the per-lane products come from the value-only
    /// multiplier entry point, so no heap allocation happens per call.
    /// Results are bit-identical to [`Self::dot_packed`].
    ///
    /// # Panics
    ///
    /// Panics if `a` and `b` lengths differ or are not a multiple of the
    /// unit width.
    pub fn dot_packed_into(
        &self,
        a: &[Fp16],
        b: &[PackedWord],
        lane_sums: &mut [f32; MAX_LANES],
    ) -> f64 {
        assert_eq!(a.len(), b.len(), "operand k-lengths must match");
        assert!(
            a.len().is_multiple_of(self.width),
            "k-length {} not a multiple of DP width {}",
            a.len(),
            self.width
        );
        let lanes = self.precision.lanes();
        lane_sums[..lanes].fill(0f32);
        let mut sum_acc = SumAccumulator::new();
        let mut products = [[Fp16::ZERO; MAX_LANES]; MAX_WIDTH];
        let mut wide = [[0f32; MAX_LANES]; MAX_WIDTH];
        let mut col = [Fp16::ZERO; MAX_WIDTH];

        for (chunk_a, chunk_b) in a.chunks(self.width).zip(b.chunks(self.width)) {
            // One batch: each multiplier takes one k-step.
            for (k, (&ak, &bk)) in chunk_a.iter().zip(chunk_b).enumerate() {
                sum_acc.add(ak);
                match self.numerics {
                    NumericsMode::PaperRounded => {
                        self.mul.multiply_into(ak, bk, &mut products[k]);
                    }
                    NumericsMode::Wide => {
                        let af = ak.to_f32();
                        for (lane, w) in wide[k][..lanes].iter_mut().enumerate() {
                            // The exact biased product fits f32 (22-bit
                            // significand): 1024 + code = B + offset.
                            let code = bk.biased_lane(self.precision, lane);
                            *w = af * (1024.0 + code as f32);
                        }
                    }
                }
            }
            // Per-lane tree reduction + accumulate.
            for lane in 0..lanes {
                match self.numerics {
                    NumericsMode::PaperRounded => {
                        for (k, c) in col[..self.width].iter_mut().enumerate() {
                            *c = products[k][lane];
                        }
                        lane_sums[lane] += reduce_tree_in_place(&mut col[..self.width]).to_f32();
                    }
                    NumericsMode::Wide => {
                        for row in wide[..self.width].iter() {
                            lane_sums[lane] += row[lane];
                        }
                    }
                }
            }
        }

        sum_acc.total()
    }
}

/// Pairwise FP16 tree reduction (hardware adder-tree order), compacting
/// each level into the front of `values` — no allocation. Pairing order
/// is identical to [`reduce_tree_fp16`]: adjacent pairs, odd element
/// carried to the next level.
fn reduce_tree_in_place(values: &mut [Fp16]) -> Fp16 {
    let mut n = values.len();
    if n == 0 {
        return Fp16::ZERO;
    }
    while n > 1 {
        let mut write = 0;
        let mut read = 0;
        while read + 1 < n {
            values[write] = softfloat::add(values[read], values[read + 1]);
            write += 1;
            read += 2;
        }
        if read < n {
            values[write] = values[read];
            write += 1;
        }
        n = write;
    }
    values[0]
}

/// Pairwise FP16 tree reduction (hardware adder-tree order) — the
/// allocating reference implementation the in-place variant is tested
/// against.
#[cfg(test)]
fn reduce_tree_fp16(values: &[Fp16]) -> Fp16 {
    match values.len() {
        0 => Fp16::ZERO,
        1 => values[0],
        n => {
            let mid = n.div_ceil(2);
            let mut level: Vec<Fp16> = Vec::with_capacity(mid);
            for pair in values.chunks(2) {
                level.push(if pair.len() == 2 {
                    softfloat::add(pair[0], pair[1])
                } else {
                    pair[0]
                });
            }
            reduce_tree_fp16(&level)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packed::Int4;

    #[test]
    fn baseline_dp4_timing_matches_paper() {
        let dp = BaselineDpUnit::new(4).unwrap();
        assert_eq!(dp.pipeline_depth(), 4);
        assert_eq!(dp.cycles_for_outputs(8), 11);
        assert_eq!(dp.cycles_for_outputs(0), 0);
        assert_eq!(dp.cycles_for_outputs(1), 4);
    }

    #[test]
    fn parallel_dp4_timing_matches_paper() {
        // INT4 / dup 2: 8 batches (32 outputs) in 19 cycles.
        let dp = ParallelDpUnit::new(4, 2, WeightPrecision::Int4).unwrap();
        assert_eq!(dp.issue_interval(), 2);
        assert_eq!(dp.cycles_for_batches(8), 19);
        // INT2 / dup 2: 8 batches (64 outputs) in 35 cycles.
        let dp = ParallelDpUnit::new(4, 2, WeightPrecision::Int2).unwrap();
        assert_eq!(dp.issue_interval(), 4);
        assert_eq!(dp.cycles_for_batches(8), 35);
    }

    #[test]
    fn duplication_changes_issue_interval() {
        assert_eq!(
            ParallelDpUnit::new(4, 1, WeightPrecision::Int4)
                .unwrap()
                .issue_interval(),
            4
        );
        assert_eq!(
            ParallelDpUnit::new(4, 2, WeightPrecision::Int4)
                .unwrap()
                .issue_interval(),
            2
        );
        assert_eq!(
            ParallelDpUnit::new(4, 4, WeightPrecision::Int4)
                .unwrap()
                .issue_interval(),
            1
        );
        assert_eq!(
            ParallelDpUnit::new(4, 4, WeightPrecision::Int2)
                .unwrap()
                .issue_interval(),
            2
        );
    }

    #[test]
    fn inner_product_16_values_in_2_cycles() {
        // Paper: "accumulation of the inner product of 16 values in 2
        // cycles for INT4 (or 32 values in 4 cycles for INT2)".
        let dp = ParallelDpUnit::new(4, 2, WeightPrecision::Int4).unwrap();
        assert_eq!(dp.issue_interval(), 2); // one batch = 16 products
        let dp = ParallelDpUnit::new(4, 2, WeightPrecision::Int2).unwrap();
        assert_eq!(dp.issue_interval(), 4); // one batch = 32 products
    }

    #[test]
    fn resources_match_table_i() {
        let base = BaselineDpUnit::new(4).unwrap().resources();
        assert_eq!(base.fp16_multipliers, 4);
        assert_eq!(base.fp16_adders, 4);

        let par = ParallelDpUnit::new(4, 2, WeightPrecision::Int4)
            .unwrap()
            .resources();
        assert_eq!(par.parallel_multipliers, 4);
        assert_eq!(par.fp16_adders, 8);
        assert_eq!(par.sum_accumulators, 1);
    }

    #[test]
    fn baseline_dot_matches_reference() {
        let dp = BaselineDpUnit::new(4).unwrap();
        let a: Vec<Fp16> = [1.0f32, -2.0, 0.5, 4.0]
            .iter()
            .map(|&v| Fp16::from_f32(v))
            .collect();
        let b: Vec<Fp16> = [3.0f32, 1.0, -8.0, 0.25]
            .iter()
            .map(|&v| Fp16::from_f32(v))
            .collect();
        let got = dp.dot_acc(0.0, &a, &b);
        assert_eq!(got, 3.0 - 2.0 - 4.0 + 1.0);
    }

    #[test]
    fn packed_dot_recovers_true_dot_products_wide() {
        // With wide products the Eq.(1) recovery is exact for integer-ish
        // activations.
        let dp = ParallelDpUnit::new(4, 2, WeightPrecision::Int4)
            .unwrap()
            .with_numerics(NumericsMode::Wide);
        let a: Vec<Fp16> = [1.0f32, 2.0, -1.5, 0.5]
            .iter()
            .map(|&v| Fp16::from_f32(v))
            .collect();
        let cols: [[i8; 4]; 4] = [
            [1, -3, 5, 7], // lane 0's weights along k
            [0, 2, -8, 4], // lane 1
            [-1, -1, -1, -1],
            [7, 7, 7, 7],
        ];
        // Packed words are per-k: word k contains lane j = cols[j][k].
        let words: Vec<PackedWord> = (0..4)
            .map(|k| {
                PackedWord::pack_int4(core::array::from_fn(|j| Int4::new(cols[j][k]).unwrap()))
            })
            .collect();
        let res = dp.dot_packed(&a, &words);
        let rec = res.recover();
        for (lane, col) in cols.iter().enumerate() {
            let want: f32 = a
                .iter()
                .zip(col)
                .map(|(&x, &w)| x.to_f32() * w as f32)
                .sum();
            assert!(
                (rec[lane] - want).abs() < 1e-3,
                "lane {lane}: got {}, want {want}",
                rec[lane]
            );
        }
    }

    #[test]
    fn paper_rounded_mode_shows_bias_rounding_error() {
        // A single term: A = 1+2^-10, B = 1. The biased product 1034.009…
        // rounds to 1034, so recovery yields 1034 − 1032·A ≈ 0.992 instead
        // of 1.00098 — the numerics finding documented in EXPERIMENTS.md.
        let dp = ParallelDpUnit::new(4, 2, WeightPrecision::Int4).unwrap();
        let a = vec![Fp16::from_f32(1.0 + 2.0f32.powi(-10)); 4];
        let mut weights = [Int4::new(0).unwrap(); 4];
        weights[0] = Int4::new(1).unwrap();
        let words = vec![PackedWord::pack_int4(weights); 4];
        let res = dp.dot_packed(&a, &words);
        let rec = res.recover();
        let want: f32 = 4.0 * (1.0 + 2.0f32.powi(-10));
        // The recovered value is close but NOT exact.
        assert!(
            (rec[0] - want).abs() > 1e-3,
            "expected visible rounding error"
        );
        assert!((rec[0] - want).abs() < 0.5, "error should stay bounded");

        // The wide mode recovers exactly.
        let wide = dp.with_numerics(NumericsMode::Wide);
        let rec = wide.dot_packed(&a, &words).recover();
        assert!((rec[0] - want).abs() < 1e-3);
    }

    #[test]
    fn sum_accumulator_tracks_count_and_total() {
        let mut acc = SumAccumulator::new();
        for i in 0..10 {
            acc.add(Fp16::from_f32(i as f32));
        }
        assert_eq!(acc.total(), 45.0);
        assert_eq!(acc.count(), 10);
        acc.reset();
        assert_eq!(acc.total(), 0.0);
    }

    #[test]
    fn tree_reduction_handles_odd_lengths() {
        let vals: Vec<Fp16> = [1.0f32, 2.0, 3.0]
            .iter()
            .map(|&v| Fp16::from_f32(v))
            .collect();
        assert_eq!(reduce_tree_fp16(&vals).to_f32(), 6.0);
        assert_eq!(reduce_tree_fp16(&[]).to_f32(), 0.0);
        assert_eq!(reduce_tree_in_place(&mut []).to_f32(), 0.0);
    }

    /// The in-place reduction must pair elements exactly like the
    /// recursive reference at every length (FP16 addition is non-
    /// associative, so order IS the contract).
    #[test]
    fn in_place_tree_matches_recursive_reference() {
        // Values chosen so any reordering changes rounding: mix of large
        // and tiny magnitudes with alternating signs.
        let raw = [
            1024.0f32, 0.0625, -768.5, 3.0, 0.00097656, -1024.0, 55.0, -0.3333, 9.5, -2.25, 4096.0,
            0.1, -0.004, 17.0, -17.0, 0.5,
        ];
        for len in 0..=raw.len() {
            let vals: Vec<Fp16> = raw[..len].iter().map(|&v| Fp16::from_f32(v)).collect();
            let want = reduce_tree_fp16(&vals);
            let mut buf = vals.clone();
            let got = reduce_tree_in_place(&mut buf);
            assert_eq!(got.to_bits(), want.to_bits(), "len {len}");
        }
    }

    /// The allocation-free packed-dot core and the Vec-returning wrapper
    /// agree bit-for-bit in every mode combination.
    #[test]
    fn dot_packed_into_matches_dot_packed() {
        let a: Vec<Fp16> = [1.5f32, -0.25, 3.0, 0.125, -2.0, 7.5, -0.5, 1.0]
            .iter()
            .map(|&v| Fp16::from_f32(v))
            .collect();
        let words: Vec<PackedWord> = (0..8)
            .map(|k| {
                PackedWord::pack_int4(core::array::from_fn(|j| {
                    Int4::new(((k * 3 + j * 5) % 16) as i8 - 8).unwrap()
                }))
            })
            .collect();
        for numerics in [NumericsMode::PaperRounded, NumericsMode::Wide] {
            let dp = ParallelDpUnit::new(4, 2, WeightPrecision::Int4)
                .unwrap()
                .with_numerics(numerics);
            let full = dp.dot_packed(&a, &words);
            let mut sums = [0f32; MAX_LANES];
            let sum_a = dp.dot_packed_into(&a, &words, &mut sums);
            assert_eq!(sum_a, full.sum_a);
            for (lane, &s) in full.lane_sums.iter().enumerate() {
                assert_eq!(
                    s.to_bits(),
                    sums[lane].to_bits(),
                    "{numerics:?} lane {lane}"
                );
            }
        }
    }

    /// The allocation-free recovery agrees bit-for-bit with the
    /// Vec-returning wrapper.
    #[test]
    fn recover_into_matches_recover() {
        let dp = ParallelDpUnit::new(4, 2, WeightPrecision::Int4).unwrap();
        let a: Vec<Fp16> = [1.5f32, -0.25, 3.0, 0.125]
            .iter()
            .map(|&v| Fp16::from_f32(v))
            .collect();
        let words = vec![PackedWord::from_bits(0xA731); 4];
        let res = dp.dot_packed(&a, &words);

        let want = res.recover();
        let mut got = [0f32; MAX_LANES];
        res.recover_into(&mut got);
        for (lane, &w) in want.iter().enumerate() {
            assert_eq!(got[lane].to_bits(), w.to_bits(), "recover lane {lane}");
        }
    }

    #[test]
    fn invalid_width_rejected() {
        let err = BaselineDpUnit::new(5).unwrap_err();
        assert!(err.to_string().contains("width must be 4, 8 or 16"));
        assert!(ParallelDpUnit::new(0, 2, WeightPrecision::Int4).is_err());
    }

    #[test]
    fn invalid_duplication_rejected() {
        let err = ParallelDpUnit::new(4, 3, WeightPrecision::Int4).unwrap_err();
        assert!(err.to_string().contains("duplication must be 1, 2 or 4"));
    }
}
