//! Runtime selection among the compiled copies of the column-tile
//! kernel.
//!
//! The default x86-64 target guarantees only SSE2, so an 8-wide f32
//! [`TileRow`] takes two 128-bit vectors. [`tile_dot`] chooses among
//! three copies of the kernel ([`Variant`]):
//!
//! * **`avx2+f16c`** — [`NumericsMode::PaperRounded`] through an
//!   explicit F16C kernel: one 256-bit vector per row, and every fp16
//!   rounding is the conversion pair `vcvtps2ph` (round-to-nearest-even
//!   from the immediate, not from MXCSR) then `vcvtph2ps`, two
//!   instructions in place of [`crate::batch::round16`]'s bit
//!   manipulation. `Wide` mode has nothing to round and runs the AVX2
//!   copy.
//! * **`avx2`** — [`crate::batch`]'s `tile_dot_impl` compiled inside a
//!   `#[target_feature(enable = "avx2")]` function, for `Wide` mode and
//!   for hosts with AVX2 but no F16C.
//! * **`baseline`** — the same source for the default target, on every
//!   other host and target.
//!
//! The copy is picked per call from the standard library's cached
//! CPU-feature checks. All three are bit-identical on every non-NaN
//! result: the operation order is the code's (four products, the
//! `(p0 + p1) + (p2 + p3)` tree with every sum rounded, the f32
//! accumulate), Rust never contracts `a * b + c` into an FMA, and
//! `vcvtps2ph` with RNE equals `round16` on every non-NaN f32,
//! subnormal fp16 results, −0 and overflow to ∞ from 65520 up included.
//! A product of two fp16 values is never an f32 subnormal (the smallest
//! is 2⁻⁴⁸), so DAZ and FTZ cannot change a result either.
//!
//! This is the crate's one `unsafe`: calling a target-feature function
//! from code compiled without that feature.

use crate::batch::{tile_dot_impl, TileRow};
use crate::dp::NumericsMode;

/// A compiled copy of the column-tile kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Variant {
    /// The default target (SSE2 on x86-64): two 128-bit vectors per row.
    Baseline,
    /// `tile_dot_impl` with AVX2 enabled: one 256-bit vector per row.
    Avx2,
    /// The F16C conversion-pair kernel for `PaperRounded`, the AVX2
    /// copy for `Wide`.
    Avx2F16c,
}

impl Variant {
    /// Every copy, slowest first.
    #[cfg(test)]
    pub(crate) const ALL: [Variant; 3] = [Variant::Baseline, Variant::Avx2, Variant::Avx2F16c];

    /// The copy's name, as `pacq exec` prints it.
    pub(crate) fn name(self) -> &'static str {
        match self {
            Variant::Baseline => "baseline",
            Variant::Avx2 => "avx2",
            Variant::Avx2F16c => "avx2+f16c",
        }
    }

    /// Whether this host can execute the copy.
    pub(crate) fn runs_here(self) -> bool {
        #[cfg(target_arch = "x86_64")]
        {
            let avx2 = std::arch::is_x86_feature_detected!("avx2");
            match self {
                Variant::Baseline => true,
                Variant::Avx2 => avx2,
                Variant::Avx2F16c => avx2 && std::arch::is_x86_feature_detected!("f16c"),
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            self == Variant::Baseline
        }
    }

    /// The fastest copy this host can execute.
    pub(crate) fn detect() -> Variant {
        [Variant::Avx2F16c, Variant::Avx2]
            .into_iter()
            .find(|v| v.runs_here())
            .unwrap_or(Variant::Baseline)
    }
}

/// Runs `variant`'s copy of the column-tile kernel, or the baseline
/// copy when this host cannot execute `variant`.
#[inline(always)]
pub(crate) fn tile_dot(
    variant: Variant,
    numerics: NumericsMode,
    a: &[f32],
    b: &[TileRow],
) -> TileRow {
    #[cfg(target_arch = "x86_64")]
    if variant != Variant::Baseline && variant.runs_here() {
        let f16c = variant == Variant::Avx2F16c && numerics == NumericsMode::PaperRounded;
        // SAFETY: `x86::tile_dot_avx2` enables only AVX2, and `runs_here`
        // just confirmed `is_x86_feature_detected!("avx2")` for both
        // non-baseline copies. `x86::tile_dot_f16c` enables AVX2 and
        // F16C and runs only for `Variant::Avx2F16c`, for which
        // `runs_here` also confirmed `is_x86_feature_detected!("f16c")`.
        #[allow(unsafe_code)]
        return unsafe {
            if f16c {
                x86::tile_dot_f16c(a, b)
            } else {
                x86::tile_dot_avx2(numerics, a, b)
            }
        };
    }
    // Off x86-64 only the baseline copy exists.
    #[cfg(not(target_arch = "x86_64"))]
    let _ = variant;
    tile_dot_impl(numerics, a, b)
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use crate::batch::{tile_dot_impl, TileRow, TREE_WIDTH};
    use crate::dp::NumericsMode;
    use std::arch::x86_64::{
        __m256, _mm256_add_ps, _mm256_cvtph_ps, _mm256_cvtps_ph, _mm256_extractf128_ps,
        _mm256_mul_ps, _mm256_set1_ps, _mm256_setr_ps, _mm256_setzero_ps, _mm_extract_ps,
    };

    /// `tile_dot_impl` compiled with AVX2 enabled.
    #[target_feature(enable = "avx2")]
    pub(super) fn tile_dot_avx2(numerics: NumericsMode, a: &[f32], b: &[TileRow]) -> TileRow {
        tile_dot_impl(numerics, a, b)
    }

    /// `tile_dot_impl`'s `PaperRounded` arm with every fp16 rounding
    /// done by the F16C conversion pair: the same products, tree and
    /// accumulate, one [`TileRow`] per 256-bit vector.
    #[target_feature(enable = "avx2,f16c")]
    pub(super) fn tile_dot_f16c(a: &[f32], b: &[TileRow]) -> TileRow {
        assert_eq!(a.len(), b.len(), "operand k-lengths must match");
        let (ca, rest) = a.as_chunks::<TREE_WIDTH>();
        let (cb, _) = b.as_chunks::<TREE_WIDTH>();
        assert!(
            rest.is_empty(),
            "k-length {} not a multiple of DP width {TREE_WIDTH}",
            a.len()
        );
        let mut acc = _mm256_setzero_ps();
        for (x, w) in ca.iter().zip(cb) {
            let p = |t: usize| round16(_mm256_mul_ps(_mm256_set1_ps(x[t]), load(&w[t])));
            let left = round16(_mm256_add_ps(p(0), p(1)));
            let right = round16(_mm256_add_ps(p(2), p(3)));
            acc = _mm256_add_ps(acc, round16(_mm256_add_ps(left, right)));
        }
        store(acc)
    }

    /// Rounds every lane to the fp16 grid: `vcvtps2ph` with immediate 0
    /// (round to nearest even, whatever MXCSR says), then `vcvtph2ps`.
    #[target_feature(enable = "avx2,f16c")]
    fn round16(v: __m256) -> __m256 {
        _mm256_cvtph_ps(_mm256_cvtps_ph::<0>(v))
    }

    #[target_feature(enable = "avx2")]
    fn load(r: &TileRow) -> __m256 {
        _mm256_setr_ps(r[0], r[1], r[2], r[3], r[4], r[5], r[6], r[7])
    }

    #[target_feature(enable = "avx2")]
    fn store(v: __m256) -> TileRow {
        let (lo, hi) = (_mm256_extractf128_ps::<0>(v), _mm256_extractf128_ps::<1>(v));
        let lanes = [
            _mm_extract_ps::<0>(lo),
            _mm_extract_ps::<1>(lo),
            _mm_extract_ps::<2>(lo),
            _mm_extract_ps::<3>(lo),
            _mm_extract_ps::<0>(hi),
            _mm_extract_ps::<1>(hi),
            _mm_extract_ps::<2>(hi),
            _mm_extract_ps::<3>(hi),
        ];
        lanes.map(|bits| f32::from_bits(bits as u32))
    }
}
