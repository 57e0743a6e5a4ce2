//! Runtime selection among the compiled copies of the column-tile
//! kernel.
//!
//! The default x86-64 target guarantees only SSE2. [`run`] chooses among
//! three copies ([`Variant`]) of the kernel, and of any other [`Job`]
//! that wants the widest vectors the host has:
//!
//! * **`avx512fp16`** — [`crate::dp::NumericsMode::PaperRounded`] in native fp16
//!   lanes: one 256-bit `vmulph` per k-step forms a [`crate::batch::TileRow`]'s
//!   sixteen products, the `(p0 + p1) + (p2 + p3)` tree is three
//!   `vaddph`, and only the tree result is widened (`vcvtph2psx`) for
//!   the f32 accumulate. An fp16 × fp16 product is exact in f32 and f32
//!   carries ≥ 2·11 + 2 significand bits, so a correctly rounded fp16
//!   multiply or add equals [`crate::batch::round16`] of the f32 result
//!   (Figueroa's double-rounding theorem).
//! * **`avx2+f16c`** — `PaperRounded` in f32 lanes, one 256-bit vector
//!   per eight columns: operands are widened on load by `vcvtph2ps`, and
//!   every fp16 rounding is the conversion pair `vcvtps2ph` then
//!   `vcvtph2ps`, two instructions in place of `round16`'s bit
//!   manipulation.
//! * **`baseline`** — [`crate::batch`]'s `tile_dot_impl` for the default
//!   target, on every other host and target. Every x86-64-v3 CPU has
//!   F16C, so an AVX2 host without it is too rare for a copy of its own.
//!
//! `Wide` mode has nothing to round and runs `tile_dot_impl` in every
//! copy, compiled for that copy's features.
//!
//! The copy is picked per call from the standard library's cached
//! CPU-feature checks. All three are bit-identical on every non-NaN
//! result: the operation order is the code's (four products, the tree
//! with every sum rounded, the f32 accumulate), Rust never contracts
//! `a * b + c` into an FMA, and every rounding is round-to-nearest-even.
//! `vmulph`/`vaddph` on xmm/ymm registers take that rounding from MXCSR,
//! as every f32 add of every copy already does (Rust code runs with
//! MXCSR at its default, RNE); `vcvtps2ph` takes it from its immediate,
//! 0. Subnormal fp16 products and sums, −0 and overflow to ∞ from 65520
//! up agree in every copy (the tests pin each), and a product of two
//! fp16 values is never an f32 subnormal (the smallest is 2⁻⁴⁸).
//!
//! This is the crate's one `unsafe`: calling a target-feature function
//! from code compiled without that feature.

use crate::batch::{tile_dot_impl, Job};
#[cfg(test)]
use crate::batch::{TileDot, TileRow, TileSums};
#[cfg(test)]
use crate::bits::Fp16;
#[cfg(test)]
use crate::dp::NumericsMode;

/// A compiled copy of the column-tile kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Variant {
    /// The default target (SSE2 on x86-64).
    Baseline,
    /// The F16C conversion-pair kernel for `PaperRounded`.
    Avx2F16c,
    /// The native fp16-lane kernel for `PaperRounded`.
    Avx512Fp16,
}

impl Variant {
    /// Every copy, slowest first.
    #[cfg(test)]
    pub(crate) const ALL: [Variant; 3] =
        [Variant::Baseline, Variant::Avx2F16c, Variant::Avx512Fp16];

    /// The copy's name, as `pacq exec` prints it.
    pub(crate) fn name(self) -> &'static str {
        match self {
            Variant::Baseline => "baseline",
            Variant::Avx2F16c => "avx2+f16c",
            Variant::Avx512Fp16 => "avx512fp16",
        }
    }

    /// Whether this host can execute the copy: it has every feature the
    /// copy's target-feature function enables.
    pub(crate) fn runs_here(self) -> bool {
        #[cfg(target_arch = "x86_64")]
        {
            use std::arch::is_x86_feature_detected as has;
            let f16c = has!("avx2") && has!("f16c");
            match self {
                Variant::Baseline => true,
                Variant::Avx2F16c => f16c,
                Variant::Avx512Fp16 => {
                    f16c && has!("avx512f")
                        && has!("avx512vl")
                        && has!("avx512bw")
                        && has!("avx512fp16")
                }
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            self == Variant::Baseline
        }
    }

    /// The fastest copy this host can execute.
    pub(crate) fn detect() -> Variant {
        [Variant::Avx512Fp16, Variant::Avx2F16c]
            .into_iter()
            .find(|v| v.runs_here())
            .unwrap_or(Variant::Baseline)
    }
}

/// Runs `job` compiled for `variant`, with that copy's column-tile
/// kernel, or for the baseline when this host cannot execute `variant`.
#[inline(always)]
pub(crate) fn run<J: Job>(variant: Variant, job: J) -> J::Output {
    #[cfg(target_arch = "x86_64")]
    if variant != Variant::Baseline && variant.runs_here() {
        // SAFETY: each arm calls the target-feature function of its own
        // variant, and `runs_here` just confirmed that this host has
        // every feature that function enables: `x86::f16c` enables AVX2
        // and F16C; `x86::fp16` AVX2, F16C, AVX512F, AVX512VL, AVX512BW
        // and AVX512-FP16.
        #[allow(unsafe_code)]
        return unsafe {
            match variant {
                Variant::Avx512Fp16 => x86::fp16(job),
                Variant::Avx2F16c | Variant::Baseline => x86::f16c(job),
            }
        };
    }
    // Off x86-64 only the baseline copy exists.
    #[cfg(not(target_arch = "x86_64"))]
    let _ = variant;
    job.run(tile_dot_impl)
}

/// `variant`'s copy of the column-tile kernel, as a test calls it.
#[cfg(test)]
pub(crate) fn tile_dot(
    variant: Variant,
    numerics: NumericsMode,
    a: &[Fp16],
    b: &[TileRow],
) -> TileSums {
    run(variant, TileDot { numerics, a, b })
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use crate::batch::{tile_dot_impl, Job, TileRow, TileSums, COLS, TREE_WIDTH};
    use crate::bits::Fp16;
    use crate::dp::NumericsMode;
    use std::arch::x86_64::{
        __m128i, __m256, __m256h, _mm256_add_ph, _mm256_add_ps, _mm256_castpd_ps,
        _mm256_castsi256_ph, _mm256_cvtph_ps, _mm256_cvtps_ph, _mm256_extractf128_ps,
        _mm256_mul_ph, _mm256_mul_ps, _mm256_set1_epi16, _mm256_setr_epi16, _mm256_setzero_ps,
        _mm512_add_ps, _mm512_castps512_ps256, _mm512_castps_pd, _mm512_cvtxph_ps,
        _mm512_extractf64x4_pd, _mm512_setzero_ps, _mm_extract_ps, _mm_set1_epi16, _mm_setr_epi16,
    };

    /// `job` compiled with AVX2 and F16C enabled, the conversion-pair
    /// kernel for `PaperRounded`.
    #[target_feature(enable = "avx2,f16c")]
    pub(super) fn f16c<J: Job>(job: J) -> J::Output {
        job.run(|numerics, a, b| match numerics {
            NumericsMode::PaperRounded => tile_dot_f16c(a, b),
            NumericsMode::Wide => tile_dot_impl(numerics, a, b),
        })
    }

    /// `job` compiled with AVX-512 and AVX512-FP16 enabled, the fp16-lane
    /// kernel for `PaperRounded`.
    #[target_feature(enable = "avx2,f16c,avx512f,avx512vl,avx512bw,avx512fp16")]
    pub(super) fn fp16<J: Job>(job: J) -> J::Output {
        job.run(|numerics, a, b| match numerics {
            NumericsMode::PaperRounded => tile_dot_fp16(a, b),
            NumericsMode::Wide => tile_dot_impl(numerics, a, b),
        })
    }

    /// The chunks of a `PaperRounded` call: `a` and `b` in
    /// [`TREE_WIDTH`]-step chunks.
    fn chunks<'a>(
        a: &'a [Fp16],
        b: &'a [TileRow],
    ) -> (&'a [[Fp16; TREE_WIDTH]], &'a [[TileRow; TREE_WIDTH]]) {
        assert_eq!(a.len(), b.len(), "operand k-lengths must match");
        let (ca, rest) = a.as_chunks::<TREE_WIDTH>();
        let (cb, _) = b.as_chunks::<TREE_WIDTH>();
        assert!(
            rest.is_empty(),
            "k-length {} not a multiple of DP width {TREE_WIDTH}",
            a.len()
        );
        (ca, cb)
    }

    /// `tile_dot_impl`'s `PaperRounded` arm in native fp16 lanes: the
    /// sixteen products of a k-step are one `vmulph`, the tree three
    /// `vaddph`, each rounded by the instruction itself; the tree result
    /// is widened to one 512-bit vector for the f32 accumulate.
    #[target_feature(enable = "avx2,f16c,avx512f,avx512vl,avx512bw,avx512fp16")]
    fn tile_dot_fp16(a: &[Fp16], b: &[TileRow]) -> TileSums {
        let (ca, cb) = chunks(a, b);
        let mut acc = _mm512_setzero_ps();
        for (x, w) in ca.iter().zip(cb) {
            let p = |t: usize| {
                let x = _mm256_castsi256_ph(_mm256_set1_epi16(x[t].to_bits() as i16));
                _mm256_mul_ph(x, load16(&w[t]))
            };
            let left = _mm256_add_ph(p(0), p(1));
            let right = _mm256_add_ph(p(2), p(3));
            acc = _mm512_add_ps(acc, _mm512_cvtxph_ps(_mm256_add_ph(left, right)));
        }
        // Columns 8–15 are the upper 256 bits (moved as f64 lanes, which
        // needs only AVX512F).
        let upper = _mm512_extractf64x4_pd::<1>(_mm512_castps_pd(acc));
        store(_mm512_castps512_ps256(acc), _mm256_castpd_ps(upper))
    }

    /// `tile_dot_impl`'s `PaperRounded` arm with every fp16 rounding
    /// done by the F16C conversion pair: the same products, tree and
    /// accumulate, eight columns per 256-bit vector.
    #[target_feature(enable = "avx2,f16c")]
    fn tile_dot_f16c(a: &[Fp16], b: &[TileRow]) -> TileSums {
        let (ca, cb) = chunks(a, b);
        let mut acc = [_mm256_setzero_ps(); COLS / 8];
        for (x, w) in ca.iter().zip(cb) {
            let x = x.map(|x| _mm256_cvtph_ps(_mm_set1_epi16(x.to_bits() as i16)));
            for (half, acc) in acc.iter_mut().enumerate() {
                let p = |t: usize| round16(_mm256_mul_ps(x[t], widen8(&w[t], half)));
                let left = round16(_mm256_add_ps(p(0), p(1)));
                let right = round16(_mm256_add_ps(p(2), p(3)));
                *acc = _mm256_add_ps(*acc, round16(_mm256_add_ps(left, right)));
            }
        }
        store(acc[0], acc[1])
    }

    /// Rounds every lane to the fp16 grid: `vcvtps2ph` with immediate 0
    /// (round to nearest even, whatever MXCSR says), then `vcvtph2ps`.
    #[target_feature(enable = "avx2,f16c")]
    fn round16(v: __m256) -> __m256 {
        _mm256_cvtph_ps(_mm256_cvtps_ph::<0>(v))
    }

    /// Eight fp16 operands, `r[8·half..8·half + 8]`, as one vector.
    #[target_feature(enable = "avx2")]
    fn load8(r: &TileRow, half: usize) -> __m128i {
        let h = |i: usize| r[8 * half + i] as i16;
        _mm_setr_epi16(h(0), h(1), h(2), h(3), h(4), h(5), h(6), h(7))
    }

    /// [`load8`] widened to f32.
    #[target_feature(enable = "avx2,f16c")]
    fn widen8(r: &TileRow, half: usize) -> __m256 {
        _mm256_cvtph_ps(load8(r, half))
    }

    /// A whole row as sixteen fp16 lanes.
    #[target_feature(enable = "avx2,f16c,avx512f,avx512vl,avx512bw,avx512fp16")]
    fn load16(r: &TileRow) -> __m256h {
        let h = |i: usize| r[i] as i16;
        let v = _mm256_setr_epi16(
            h(0),
            h(1),
            h(2),
            h(3),
            h(4),
            h(5),
            h(6),
            h(7),
            h(8),
            h(9),
            h(10),
            h(11),
            h(12),
            h(13),
            h(14),
            h(15),
        );
        _mm256_castsi256_ph(v)
    }

    /// Columns 0–7 from `lo`, 8–15 from `hi`.
    #[target_feature(enable = "avx2")]
    fn store(lo: __m256, hi: __m256) -> TileSums {
        let mut out = [0f32; COLS];
        for (dst, v) in out.chunks_exact_mut(8).zip([lo, hi]) {
            let (a, b) = (_mm256_extractf128_ps::<0>(v), _mm256_extractf128_ps::<1>(v));
            let lanes = [
                _mm_extract_ps::<0>(a),
                _mm_extract_ps::<1>(a),
                _mm_extract_ps::<2>(a),
                _mm_extract_ps::<3>(a),
                _mm_extract_ps::<0>(b),
                _mm_extract_ps::<1>(b),
                _mm_extract_ps::<2>(b),
                _mm_extract_ps::<3>(b),
            ];
            for (d, bits) in dst.iter_mut().zip(lanes) {
                *d = f32::from_bits(bits as u32);
            }
        }
        out
    }
}
