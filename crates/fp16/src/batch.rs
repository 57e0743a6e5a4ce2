//! Batched kernels: the [`Backend::Batched`] fast path of the
//! functional GEMM layer.
//!
//! The scalar datapath models ([`crate::Fp16Multiplier`],
//! [`crate::ParallelFpIntMultiplier`], [`crate::softfloat`]) pay a
//! per-element price — shift-add significand products, branchy
//! classify/round, one `match` per special case — that is the right
//! shape for auditing bits but the wrong shape for sweeping thousands
//! of GEMM points. This module re-implements the same arithmetic over
//! whole column tiles of fp16 operands with three techniques:
//!
//! 1. **fp16 operand tiles** — a [`TileRow`] holds the fp16 bits of
//!    one k-step's [`COLS`] operands, gathered straight from the packed
//!    words, and activations enter as fp16 too. Every operand value of
//!    every flow is fp16-exact, so a kernel copy either computes in
//!    fp16 lanes or widens each value on load (one `vcvtph2ps`, or a
//!    read of the 64 Ki-entry [`to_f32_table`]).
//! 2. **Branch-free rounding** — [`round16`] rounds an f32 to the fp16
//!    grid with a magic-number add/subtract instead of a per-element
//!    `match` over the float classes, so it vectorizes, and
//!    [`pack_rne`] is the same rounding as fp16 bits (kept/round/sticky
//!    masks, carry folded into the exponent field, NaN canonicalized to
//!    [`Fp16::NAN`]) written as selects, so the gather vectorizes too.
//!    Because a binary16 product is exact in binary32 and binary32
//!    carries ≥ 2·11 + 2 significand bits, rounding through f32 is
//!    innocuous (Figueroa's double-rounding theorem), so `round16(a·b)`
//!    and `round16(a+b)` are bit-identical to the shift-add datapaths —
//!    and to a native fp16 multiply and add — for **all** 2³² input
//!    pairs; the in-module frontier tests and the three-way equivalence
//!    suite pin this.
//! 3. **FP-INT lane products by arithmetic** — a biased weight
//!    `B + offset` is the exact integer `1024 + code` (fp16 bits
//!    `0x6400 | code`), so the parallel multiplier's lane product is one
//!    fp16 multiply `A · (1024 + code)` rounded once (the paper's Fig. 5
//!    trick). The PacQ flow therefore runs the same kernel as the
//!    baseline flows. [`product_lut`], the `codes × 65536` table built
//!    from the scalar multiplier, stays as the exhaustive oracle that
//!    pins this identity.
//!
//! [`tile_dot`] is the one kernel every batched flow runs: [`COLS`]
//! output columns at once over a k-segment, with the scalar units'
//! DP-4 chunking, adder-tree pairing and accumulation order — FP16
//! addition is non-associative, so the order IS the contract. It is
//! therefore bit-identical to [`crate::BaselineDpUnit`] /
//! [`crate::ParallelDpUnit`] at width 4 with FP32 accumulation and
//! their default (IEEE, round-to-nearest-even) multiplier, in both
//! [`NumericsMode`]s.
//!
//! [`tile_dot`] has four compiled copies, and each call runs the
//! fastest one the CPU supports ([`kernel_variant`] names it): the
//! default target (SSE2 on x86-64), the same source inside an AVX2
//! target-feature function, and, for [`NumericsMode::PaperRounded`], an
//! explicit AVX2 + F16C kernel whose every fp16 rounding is the
//! `vcvtps2ph`/`vcvtph2ps` pair, and an AVX512-FP16 kernel whose
//! products and adder tree are native fp16 `vmulph`/`vaddph` lanes.
//! All four perform the same operations in the same order, Rust never
//! contracts `a·b + c` into an FMA, and every rounding is RNE, so they
//! are bit-identical on every non-NaN result. [`dispatch`] runs any
//! other loop ([`Job`]) through the same selection, compiled for the
//! chosen copy's target features.
//!
//! One caveat scopes that guarantee: when a product, tree sum or
//! f32/f64 accumulator turns NaN (activations containing NaN or an
//! ∞ − ∞ cancellation), both backends (and every copy of
//! [`tile_dot`]) return NaN but the payload bits
//! may differ — [`round16`] does not canonicalize NaN, and the compiler
//! is free to commute the operands of a float add, which changes which
//! payload propagates. Finite results are bit-identical everywhere.

use crate::bits::Fp16;
use crate::dp::NumericsMode;
use crate::packed::{PackedWord, WeightPrecision};
use crate::parallel::{ParallelFpIntMultiplier, MAX_LANES};
use crate::wide;
use std::sync::OnceLock;

/// Which compute backend evaluates the functional GEMM flows.
///
/// Both backends produce bit-identical results (pinned by the
/// three-way scalar ≡ rayon ≡ batched equivalence suite). Every
/// execution path runs [`Backend::Batched`]; [`Backend::Scalar`] is the
/// auditable reference it is checked against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// The scalar reference datapaths — one element at a time through
    /// the structural multiplier/adder models.
    Scalar,
    /// The batched kernels of this module: fp16 operand tiles,
    /// branch-free rounding, arithmetic lane products.
    Batched,
}

/// The lazily-built fp16 → f32 conversion table (64 Ki entries,
/// 256 KiB): `table[bits]` is `Fp16::from_bits(bits).to_f32()`.
pub fn to_f32_table() -> &'static [f32; 1 << 16] {
    static TABLE: OnceLock<Box<[f32; 1 << 16]>> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut t = vec![0f32; 1 << 16].into_boxed_slice();
        for (bits, slot) in t.iter_mut().enumerate() {
            *slot = Fp16::from_bits(bits as u16).to_f32();
        }
        // The length is exactly 1 << 16 by construction.
        match t.try_into() {
            Ok(boxed) => boxed,
            Err(_) => unreachable!(),
        }
    })
}

/// Converts f32 → fp16 with round-to-nearest-even using mask arithmetic
/// instead of a per-class `match`, canonicalizing every NaN to
/// [`Fp16::NAN`] (the constant all scalar datapaths return).
///
/// Bit-identical to `Fp16::from_f32` for every non-NaN input; for NaN
/// inputs the payload is dropped, matching the datapath models rather
/// than the payload-preserving storage conversion. Every regime is
/// computed and the result selected, so a loop over it vectorizes.
#[inline(always)]
pub fn pack_rne(x: f32) -> Fp16 {
    let bits = x.to_bits();
    let sign = (bits >> 16) & 0x8000;
    let abs = bits & 0x7fff_ffff;
    // Below the normal cutoff 2^-14: scale into the integer window
    // [2^23, 2^23 + 1024) where one f32 ulp is exactly one subnormal
    // step, letting the hardware's RNE do the tie-to-even rounding.
    // (Scaling by 2^24 is exact; a carry to 1024 lands on the hidden
    // bit, i.e. the minimum normal — exactly as required.)
    let subnormal = (f32::from_bits(abs) * 16_777_216.0 + 8_388_608.0).to_bits() & 0x7ff;
    // Normal range [2^-14, 2^16): shift the 23-bit mantissa down to 10
    // bits with kept/round/sticky mask arithmetic; a round-up carry
    // propagates into the exponent field (30 → 31 is the correct
    // round-to-infinity at the fp16 ceiling). The exponent rebias
    // (f32 bias 127 → fp16 bias 15) wraps for the other regimes, whose
    // lanes the selects below discard.
    let mant = abs & 0x007f_ffff;
    let kept = mant >> 13;
    let round = (mant >> 12) & 1;
    let sticky = u32::from(mant & 0x0fff != 0);
    let inc = round & (sticky | (kept & 1));
    let normal = ((abs >> 23).wrapping_sub(112) << 10).wrapping_add(kept + inc);
    let mag = if abs < 0x3880_0000 { subnormal } else { normal };
    // ≥ 2^16 overflows to infinity; NaN canonicalizes (sign dropped).
    let mag = if abs >= 0x4780_0000 { 0x7c00 } else { mag };
    let out = if abs > 0x7f80_0000 {
        u32::from(Fp16::NAN.to_bits())
    } else {
        sign | mag
    };
    Fp16::from_bits(out as u16)
}

/// The lazily-built biased-product table for a precision: entry
/// `[code << 16 | a_bits]` holds the fp16 bits of the parallel
/// multiplier's lane product of activation `a_bits` with biased lane
/// code `code`. Built directly from the scalar
/// [`ParallelFpIntMultiplier`] (an all-lanes-same-code word, lane 0
/// read back), so it is bit-exact by construction. The kernels never
/// read it: it is the exhaustive oracle for the arithmetic lane product
/// `round16(A · (1024 + code))` (2 MiB for INT4, 512 KiB for INT2,
/// built on first call).
pub fn product_lut(precision: WeightPrecision) -> &'static [u16] {
    static INT4: OnceLock<Vec<u16>> = OnceLock::new();
    static INT2: OnceLock<Vec<u16>> = OnceLock::new();
    let cell = match precision {
        WeightPrecision::Int4 => &INT4,
        WeightPrecision::Int2 => &INT2,
    };
    cell.get_or_init(|| build_product_lut(precision))
}

fn build_product_lut(precision: WeightPrecision) -> Vec<u16> {
    let mul = ParallelFpIntMultiplier::new(precision);
    let codes = 1usize << precision.bits();
    // Replicating the biased code into every lane field makes lane 0's
    // product the product for that code.
    let replicate: u16 = match precision {
        WeightPrecision::Int4 => 0x1111,
        WeightPrecision::Int2 => 0x5555,
    };
    let mut table = vec![0u16; codes << 16];
    let mut out = [Fp16::ZERO; MAX_LANES];
    for code in 0..codes {
        let word = PackedWord::from_bits(code as u16 * replicate);
        debug_assert_eq!(word.biased_lane(precision, 0) as usize, code);
        let row = &mut table[(code << 16)..((code + 1) << 16)];
        for (a_bits, slot) in row.iter_mut().enumerate() {
            mul.multiply_into(Fp16::from_bits(a_bits as u16), word, &mut out);
            *slot = out[0].to_bits();
        }
    }
    table
}

/// Columns per tile of the column-tile kernel: one [`TileRow`] is one
/// 256-bit vector of fp16 lanes, and its sums one 512-bit (or two
/// 256-bit) vectors of f32. A multiple of both precisions' lane counts,
/// so an n-packed tile is whole packed words.
pub const COLS: usize = 16;

/// One k-step of a column tile: the fp16 bits of the gathered weight
/// operands of the tile's [`COLS`] output columns.
pub type TileRow = [u16; COLS];

/// The f32 sums [`tile_dot`] returns, one per column of the tile.
pub type TileSums = [f32; COLS];

/// The DP width whose adder tree [`tile_dot`] models: the DP-4 units
/// the functional GEMM flows run on.
pub const TREE_WIDTH: usize = 4;

/// Rounds an f32 to the nearest fp16 value (RNE) and returns it as an
/// f32: `pack_rne(x).to_f32()` for every non-NaN `x`, computed without
/// leaving the f32 domain so it vectorizes.
///
/// Adding `m = 2^(e + 13)` (`e` the unbiased exponent of `x`) to `|x|`
/// puts the fp16 ulp at f32's last place, so the hardware's RNE rounds
/// `|x| + m` to the fp16 grid and subtracting `m` again is exact. The
/// exponent of `m` floors at `2^-1`, where the f32 ulp is the fp16
/// subnormal step `2^-24`, and caps at `2^127`. Magnitudes at or beyond
/// `2^16` become ∞, and the result takes `x`'s sign, so tiny negatives
/// round to −0. A NaN stays NaN (its payload is not canonicalized).
#[inline(always)]
pub fn round16(x: f32) -> f32 {
    // RNE is symmetric, so round the magnitude and restore the sign.
    let abs = x.to_bits() & 0x7fff_ffff;
    let exp = (abs >> 23) as i32;
    let m = f32::from_bits(((exp + 13).clamp(126, 254) as u32) << 23);
    let r = (f32::from_bits(abs) + m) - m;
    let r = if r >= 65536.0 { f32::INFINITY } else { r };
    f32::from_bits(r.to_bits() | (x.to_bits() & 0x8000_0000))
}

/// The Σ A side accumulator of Eq. (1) over one k-segment: an f64 sum
/// in k order from +0, the order of [`crate::SumAccumulator`].
pub fn activation_sum(a: &[Fp16]) -> f64 {
    let table = to_f32_table();
    a.iter().fold(0f64, |sum, x| {
        sum + f64::from(table[usize::from(x.to_bits())])
    })
}

/// The column-tile kernel: [`COLS`] dot products over one k-segment at
/// once, activations `a` against the gathered operand tile `b`
/// (`b[t][c]` is column `c`'s operand at k-step `t`). Each column
/// accumulates from zero in f32.
///
/// * [`NumericsMode::PaperRounded`] — every product `a[t]·b[t][c]` is
///   rounded to fp16, each [`TREE_WIDTH`]-step chunk is reduced by the
///   DP-4 adder tree `(p0 + p1) + (p2 + p3)` with every sum rounded to
///   fp16, and the tree result is added to the f32 accumulator. With
///   fp16 operands that is [`crate::BaselineDpUnit::dot_acc`] chained
///   over the segment at width 4; with `b = 1024 + code` it is
///   [`crate::ParallelDpUnit`]'s lane sum (the biased product is exact
///   in f32, so rounding it once is the multiplier's rounding unit).
/// * [`NumericsMode::Wide`] — the exact products are summed
///   sequentially in f32 without rounding: the `Wide` lane sums.
///
/// # Panics
///
/// Panics if `a` and `b` differ in length or, for `PaperRounded`, the
/// length is not a multiple of [`TREE_WIDTH`].
pub fn tile_dot(numerics: NumericsMode, a: &[Fp16], b: &[TileRow]) -> TileSums {
    dispatch(TileDot { numerics, a, b })
}

/// Which compiled copy of [`tile_dot`] (and of every [`dispatch`]ed
/// [`Job`]) this host runs, fastest first: `"avx512fp16"` (products and
/// adder tree in native fp16 lanes), `"avx2+f16c"` (f32 lanes, every
/// fp16 rounding done by the F16C conversion pair) or `"baseline"` (the
/// default target, SSE2 on x86-64, rounding by [`round16`]). All three
/// are bit-identical on every non-NaN result.
pub fn kernel_variant() -> &'static str {
    wide::Variant::detect().name()
}

/// A loop that [`dispatch`] compiles into each copy of the kernel.
pub trait Job {
    /// What the loop returns.
    type Output;

    /// Runs the loop; `tile_dot` is the copy's [`tile_dot`] kernel.
    /// Implementations should be `#[inline(always)]` (and so should
    /// what they call): the body then compiles inside the copy's
    /// target-feature function, for its vector width. Hot loops should
    /// be loops, not `collect`, which may stay out of line and compile
    /// for the default target. Every copy must compute the same bits,
    /// which holds for plain Rust arithmetic: it is IEEE on every target
    /// and never contracted into an FMA.
    fn run(self, tile_dot: impl Fn(NumericsMode, &[Fp16], &[TileRow]) -> TileSums) -> Self::Output;
}

/// Runs `job` compiled for the fastest copy this host supports (the one
/// [`kernel_variant`] names), handing it that copy's [`tile_dot`].
pub fn dispatch<J: Job>(job: J) -> J::Output {
    wide::run(wide::Variant::detect(), job)
}

/// One [`tile_dot`] call as a [`Job`].
pub(crate) struct TileDot<'a> {
    pub(crate) numerics: NumericsMode,
    pub(crate) a: &'a [Fp16],
    pub(crate) b: &'a [TileRow],
}

impl Job for TileDot<'_> {
    type Output = TileSums;

    #[inline(always)]
    fn run(self, tile_dot: impl Fn(NumericsMode, &[Fp16], &[TileRow]) -> TileSums) -> TileSums {
        tile_dot(self.numerics, self.a, self.b)
    }
}

/// [`tile_dot`]'s body in plain Rust, inlined into the baseline and
/// AVX2 copies (and the `Wide` mode of the others): every operand is
/// widened on load through [`to_f32_table`].
#[inline(always)]
pub(crate) fn tile_dot_impl(numerics: NumericsMode, a: &[Fp16], b: &[TileRow]) -> TileSums {
    assert_eq!(a.len(), b.len(), "operand k-lengths must match");
    let table = to_f32_table();
    let widen = |x: u16| table[usize::from(x)];
    let mut acc = [0f32; COLS];
    match numerics {
        NumericsMode::PaperRounded => {
            let (ca, rest) = a.as_chunks::<TREE_WIDTH>();
            let (cb, _) = b.as_chunks::<TREE_WIDTH>();
            assert!(
                rest.is_empty(),
                "k-length {} not a multiple of DP width {TREE_WIDTH}",
                a.len()
            );
            for (x, w) in ca.iter().zip(cb) {
                let x = x.map(|x| widen(x.to_bits()));
                for (c, sum) in acc.iter_mut().enumerate() {
                    let p = |t: usize| round16(x[t] * widen(w[t][c]));
                    *sum += round16(round16(p(0) + p(1)) + round16(p(2) + p(3)));
                }
            }
        }
        NumericsMode::Wide => {
            for (x, w) in a.iter().zip(b) {
                let x = widen(x.to_bits());
                for (sum, &v) in acc.iter_mut().zip(w) {
                    *sum += x * widen(v);
                }
            }
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dp::{BaselineDpUnit, ParallelDpUnit};
    use crate::softfloat;

    /// A small deterministic generator for f32 bit patterns.
    struct Lcg(u64);

    impl Lcg {
        fn next_u32(&mut self) -> u32 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (self.0 >> 32) as u32
        }
    }

    /// fp16 values that sit on every classify/round frontier.
    fn frontier_values() -> Vec<Fp16> {
        let mut v: Vec<u16> = vec![
            0x0000, 0x8000, // ±0
            0x0001, 0x8001, // min subnormals
            0x03ff, 0x83ff, // max subnormals
            0x0400, 0x8400, // min normals
            0x3bff, 0x3c00, 0x3c01, // around 1.0
            0x7bff, 0xfbff, // ±max finite
            0x7c00, 0xfc00, // ±inf
            0x7e00, 0x7c01, 0xfdff, // NaNs
            0x4c88, 0x64d2, 0x7801, // assorted normals
        ];
        // The RNE carry frontier: all-ones mantissas near the overflow
        // boundary, both signs.
        for exp in 19..=30u16 {
            v.push((exp << 10) | 0x3ff);
            v.push(0x8000 | (exp << 10) | 0x3ff);
        }
        v.into_iter().map(Fp16::from_bits).collect()
    }

    #[test]
    fn pack_rne_matches_from_f32_on_non_nan_inputs() {
        // Crafted boundary payloads in every f32 exponent regime the
        // fp16 conversion distinguishes, plus a big random sample.
        let mantissas = [
            0x000000, 0x000001, 0x000fff, 0x001000, 0x001001, 0x3fffff, 0x400000, 0x7fe000,
            0x7fefff, 0x7ff000, 0x7ff001, 0x7fffff,
        ];
        for exp in 0..=0xfeu32 {
            for &mant in &mantissas {
                for sign in [0u32, 0x8000_0000] {
                    let x = f32::from_bits(sign | (exp << 23) | mant);
                    assert_eq!(
                        pack_rne(x).to_bits(),
                        Fp16::from_f32(x).to_bits(),
                        "x = {x:e} ({:#010x})",
                        x.to_bits()
                    );
                }
            }
        }
        let mut lcg = Lcg(0x9e3779b97f4a7c15);
        for _ in 0..1_000_000 {
            let bits = lcg.next_u32();
            let x = f32::from_bits(bits);
            if x.is_nan() {
                continue;
            }
            assert_eq!(
                pack_rne(x).to_bits(),
                Fp16::from_f32(x).to_bits(),
                "bits {bits:#010x}"
            );
        }
    }

    #[test]
    fn pack_rne_canonicalizes_every_nan() {
        for bits in [
            0x7f80_0001u32,
            0x7fc0_0000,
            0x7fff_ffff,
            0xffc1_2345,
            0xff80_0001,
        ] {
            assert_eq!(
                pack_rne(f32::from_bits(bits)).to_bits(),
                Fp16::NAN.to_bits()
            );
        }
    }

    /// The kernel's fp16 multiply and add: f32 arithmetic rounded by
    /// [`round16`], read back as fp16 bits ([`pack_rne`] is exact on a
    /// rounded value and canonicalizes NaN like the datapaths).
    fn mul16(a: Fp16, b: Fp16) -> Fp16 {
        pack_rne(round16(a.to_f32() * b.to_f32()))
    }

    fn add16(a: Fp16, b: Fp16) -> Fp16 {
        pack_rne(round16(a.to_f32() + b.to_f32()))
    }

    /// `x` is `y` to the bit, or both are NaN.
    fn same(x: f32, y: f32) -> bool {
        x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan())
    }

    /// For every f32 exponent, both signs and every position the
    /// rounding point can take (23 dropped bits down to none), the
    /// kept-LSB × round-bit × sticky frontiers around it; then ±∞ and a
    /// million random bit patterns (NaN included).
    fn rounding_frontier_inputs() -> Vec<u32> {
        let mut inputs = Vec::new();
        for exp in 0..=0xfeu32 {
            for drop in 1..=23u32 {
                let half = 1u32 << (drop - 1);
                for kept in [0, 1u32 << drop, 0x7f_ffff & !((1u32 << drop) - 1)] {
                    for low in [0, 1, half - 1, half, half + 1, (half << 1) - 1] {
                        let mant = (kept | low) & 0x7f_ffff;
                        for sign in [0u32, 0x8000_0000] {
                            inputs.push(sign | (exp << 23) | mant);
                        }
                    }
                }
            }
        }
        inputs.extend([0x7f80_0000, 0xff80_0000]);
        let mut lcg = Lcg(0x5851_f42d_4c95_7f2d);
        inputs.extend((0..1_000_000).map(|_| lcg.next_u32()));
        inputs
    }

    #[test]
    fn round16_matches_pack_rne_on_every_frontier() {
        for bits in rounding_frontier_inputs() {
            let x = f32::from_bits(bits);
            if x.is_nan() {
                continue;
            }
            assert_eq!(
                round16(x).to_bits(),
                pack_rne(x).to_f32().to_bits(),
                "x = {x:e} ({bits:#010x})"
            );
        }
    }

    #[test]
    fn round16_maps_nan_to_nan() {
        for bits in [
            0x7f80_0001u32,
            0x7fc0_0000,
            0x7fff_ffff,
            0xffc1_2345,
            0xff80_0001,
        ] {
            assert!(round16(f32::from_bits(bits)).is_nan(), "{bits:#010x}");
        }
    }

    /// Taking the LUT out of the kernel changes no bit: the arithmetic
    /// lane product `round16(A · (1024 + code))` is the table entry for
    /// every activation and every code of both precisions.
    #[test]
    fn arithmetic_lane_product_matches_product_lut_exhaustively() {
        for precision in [WeightPrecision::Int4, WeightPrecision::Int2] {
            let lut = product_lut(precision);
            for code in 0..1usize << precision.bits() {
                for a in Fp16::all_values() {
                    let got = round16(a.to_f32() * (1024 + code) as f32);
                    let want = Fp16::from_bits(lut[(code << 16) | a.to_bits() as usize]).to_f32();
                    assert!(
                        same(got, want),
                        "{precision} a={:#06x} code {code}: {got} vs {want}",
                        a.to_bits()
                    );
                }
            }
        }
    }

    #[test]
    fn batched_mul_and_add_match_softfloat_on_frontier_pairs() {
        for &a in &frontier_values() {
            for &b in &frontier_values() {
                assert_eq!(
                    mul16(a, b).to_bits(),
                    softfloat::mul(a, b).to_bits(),
                    "mul {:#06x} × {:#06x}",
                    a.to_bits(),
                    b.to_bits()
                );
                assert_eq!(
                    add16(a, b).to_bits(),
                    softfloat::add(a, b).to_bits(),
                    "add {:#06x} + {:#06x}",
                    a.to_bits(),
                    b.to_bits()
                );
            }
        }
    }

    #[test]
    fn batched_mul_and_add_match_softfloat_on_random_pairs() {
        let mut lcg = Lcg(7);
        for _ in 0..1_000_000 {
            let r = lcg.next_u32();
            let a = Fp16::from_bits(r as u16);
            let b = Fp16::from_bits((r >> 16) as u16);
            assert_eq!(
                mul16(a, b).to_bits(),
                softfloat::mul(a, b).to_bits(),
                "mul {:#06x} × {:#06x}",
                a.to_bits(),
                b.to_bits()
            );
            assert_eq!(
                add16(a, b).to_bits(),
                softfloat::add(a, b).to_bits(),
                "add {:#06x} + {:#06x}",
                a.to_bits(),
                b.to_bits()
            );
        }
    }

    #[test]
    fn conversion_table_is_exact() {
        let table = to_f32_table();
        for x in Fp16::all_values() {
            let (got, want) = (table[usize::from(x.to_bits())], x.to_f32());
            assert!(same(got, want), "{:#06x}", x.to_bits());
        }
    }

    /// The product LUT agrees with every lane of the scalar multiplier
    /// for every activation and every packed word worth of codes.
    #[test]
    fn product_lut_matches_scalar_multiplier_exhaustively() {
        for precision in [WeightPrecision::Int4, WeightPrecision::Int2] {
            let lut = product_lut(precision);
            let mul = ParallelFpIntMultiplier::new(precision);
            let mut out = [Fp16::ZERO; MAX_LANES];
            // A word whose lanes enumerate distinct codes exercises the
            // per-lane extraction too.
            let word = PackedWord::from_bits(0xD2B1);
            for a in Fp16::all_values() {
                mul.multiply_into(a, word, &mut out);
                for (lane, got) in out.iter().enumerate().take(precision.lanes()) {
                    let code = word.biased_lane(precision, lane) as usize;
                    assert_eq!(
                        lut[(code << 16) | a.to_bits() as usize],
                        got.to_bits(),
                        "{precision} a={:#06x} lane {lane}",
                        a.to_bits()
                    );
                }
            }
        }
    }

    fn random_operands(seed: u64, len: usize) -> (Vec<Fp16>, Vec<Fp16>, Vec<PackedWord>) {
        let mut lcg = Lcg(seed);
        let a: Vec<Fp16> = (0..len)
            .map(|_| Fp16::from_bits(lcg.next_u32() as u16))
            .collect();
        let b: Vec<Fp16> = (0..len)
            .map(|_| Fp16::from_bits(lcg.next_u32() as u16))
            .collect();
        let w: Vec<PackedWord> = (0..len)
            .map(|_| PackedWord::from_bits(lcg.next_u32() as u16))
            .collect();
        (a, b, w)
    }

    /// Activation vectors that keep sums finite but cross the subnormal
    /// and rounding frontiers (arbitrary bit patterns include NaN/inf,
    /// which the bit-compare above already covers).
    fn frontier_operands(len: usize) -> (Vec<Fp16>, Vec<Fp16>, Vec<PackedWord>) {
        let specials = frontier_values();
        let mut lcg = Lcg(41);
        let pick = |lcg: &mut Lcg| specials[lcg.next_u32() as usize % specials.len()];
        let a: Vec<Fp16> = (0..len).map(|_| pick(&mut lcg)).collect();
        let b: Vec<Fp16> = (0..len).map(|_| pick(&mut lcg)).collect();
        let w: Vec<PackedWord> = (0..len)
            .map(|_| PackedWord::from_bits(lcg.next_u32() as u16))
            .collect();
        (a, b, w)
    }

    /// A tile whose column `c` holds `column(c, t)` at k-step `t`.
    fn tile(len: usize, column: impl Fn(usize, usize) -> Fp16) -> Vec<TileRow> {
        (0..len)
            .map(|t| std::array::from_fn(|c| column(c, t).to_bits()))
            .collect()
    }

    /// fp16 bits of the PacQ operand `1024 + code`.
    fn biased(code: u16) -> Fp16 {
        Fp16::from_bits(0x6400 | code)
    }

    /// The tile kernel over fp16 operands equals the DP-4
    /// `BaselineDpUnit::dot_acc` chain with FP32 accumulation, column
    /// by column; each column's operand is the `b` vector rotated by a
    /// column-dependent amount so all columns differ.
    fn check_baseline(a: &[Fp16], b: &[Fp16], what: &str) {
        let scalar = BaselineDpUnit::new(TREE_WIDTH).unwrap();
        let column = |c: usize, t: usize| b[(t + 3 * c) % b.len()];
        let got = tile_dot(NumericsMode::PaperRounded, a, &tile(a.len(), column));
        for (c, &g) in got.iter().enumerate() {
            let bc: Vec<Fp16> = (0..a.len()).map(|t| column(c, t)).collect();
            let mut want = 0f32;
            for (ca, cb) in a.chunks(TREE_WIDTH).zip(bc.chunks(TREE_WIDTH)) {
                want = scalar.dot_acc(want, ca, cb);
            }
            assert!(same(g, want), "{what} column {c}: {g} vs {want}");
        }
    }

    /// The tile kernel over `1024 + code` operands equals the DP-4
    /// `ParallelDpUnit` lane sums with FP32 accumulation, and
    /// [`activation_sum`] equals its Σ A. Column `c` reads lane
    /// `c % lanes` of the word stream `c / lanes`; stream `s` is `w`
    /// rotated by `s`, so the streams differ.
    fn check_parallel(
        precision: WeightPrecision,
        numerics: NumericsMode,
        a: &[Fp16],
        w: &[PackedWord],
        what: &str,
    ) {
        let lanes = precision.lanes();
        let word = |s: usize, t: usize| w[(t + s) % w.len()];
        let got = tile_dot(
            numerics,
            a,
            &tile(a.len(), |c, t| {
                biased(word(c / lanes, t).biased_lane(precision, c % lanes).into())
            }),
        );
        let got_sum = activation_sum(a);
        let scalar = ParallelDpUnit::new(TREE_WIDTH, 2, precision)
            .unwrap()
            .with_numerics(numerics);
        for s in 0..COLS / lanes {
            let ws: Vec<PackedWord> = (0..a.len()).map(|t| word(s, t)).collect();
            let mut want = [0f32; MAX_LANES];
            let want_sum = scalar.dot_packed_into(a, &ws, &mut want);
            // NaN payloads are outside the contract (the compiler may
            // commute float adds, changing which payload propagates).
            assert!(
                got_sum.to_bits() == want_sum.to_bits() || (got_sum.is_nan() && want_sum.is_nan()),
                "ΣA {what}: {got_sum} vs {want_sum}"
            );
            for lane in 0..lanes {
                let (g, s_) = (got[s * lanes + lane], want[lane]);
                assert!(same(g, s_), "lane {lane} stream {s} {what}: {g} vs {s_}");
            }
        }
    }

    #[test]
    fn batched_baseline_matches_scalar_chain() {
        for (seed, len) in [(1u64, 16usize), (2, 64), (3, 4)] {
            let (a, b, _) = random_operands(seed, len);
            check_baseline(&a, &b, &format!("random len {len}"));
        }
        let (a, b, _) = frontier_operands(32);
        check_baseline(&a, &b, "frontier");
    }

    #[test]
    fn batched_parallel_matches_scalar_in_every_mode() {
        for precision in [WeightPrecision::Int4, WeightPrecision::Int2] {
            for numerics in [NumericsMode::PaperRounded, NumericsMode::Wide] {
                for (seed, len) in [(11u64, 16usize), (12, 64)] {
                    let (a, _, w) = random_operands(seed, len);
                    let what = format!("{precision}/{numerics:?} len {len}");
                    check_parallel(precision, numerics, &a, &w, &what);
                }
            }
        }
    }

    /// The copies of the kernel this host can execute.
    fn copies_here() -> Vec<wide::Variant> {
        wide::Variant::ALL
            .into_iter()
            .filter(|v| v.runs_here())
            .collect()
    }

    /// Every copy this host can execute equals a direct call of
    /// [`tile_dot_impl`], which inlines into the test as baseline code,
    /// in both modes.
    fn check_copies(a: &[Fp16], b: &[TileRow], what: &str) {
        for numerics in [NumericsMode::PaperRounded, NumericsMode::Wide] {
            let want = tile_dot_impl(numerics, a, b);
            for variant in copies_here() {
                let got = wide::tile_dot(variant, numerics, a, b);
                for (c, (&g, &w)) in got.iter().zip(&want).enumerate() {
                    assert!(
                        same(g, w),
                        "{} {numerics:?} k {} {what} column {c}: {g} vs {w}",
                        variant.name(),
                        a.len()
                    );
                }
            }
        }
    }

    /// fp16 values of f32 constants the tests spell out.
    fn halves(xs: &[f32]) -> Vec<Fp16> {
        xs.iter().map(|&x| Fp16::from_f32(x)).collect()
    }

    /// Every compiled copy of [`tile_dot`] this host can execute equals
    /// the baseline bit for bit: both modes, every k from 4 to 512,
    /// arbitrary fp16 operands (std, packed-k, `is`) and `1024 + code`
    /// operands (pacq), over random bits, the frontier values, products
    /// and tree sums that straddle 65504 and 65520, products and sums in
    /// the fp16 subnormal range with both signs, and NaN activations (NaN
    /// only as NaN).
    #[test]
    fn every_kernel_copy_matches_the_baseline_bit_for_bit() {
        let names: Vec<&str> = copies_here().iter().map(|v| v.name()).collect();
        eprintln!("tile_dot copies under test: {names:?}");

        // The ties, pinned. Column 0 is the product 63·1040 = 65520, the
        // halfway point above 65504 that rounds to even, i.e. to ∞;
        // column 1 the tree's top sum 65504 + 16 and column 5 its left
        // sum 64512 + 1008, both 65520 too; columns 2, 6 and 14 stay just
        // under it. Columns 7–12 are fp16 subnormal products and sums
        // (t = 2⁻²⁴ is the smallest): a negative subnormal sum, a
        // subnormal product, two sums that cancel to +0, and
        // 1023·t + t carried into the smallest normal, with either sign.
        let a = halves(&[63.0, 1.0, 1.0, 1.0]);
        let t = f32::powi(2.0, -24);
        let columns: [[f32; TREE_WIDTH]; COLS] = [
            [1040.0, 0.0, 0.0, 0.0],
            [0.0, 65504.0, 16.0, 0.0],
            [0.0, 65504.0, 0.0, 15.992_188],
            [-1040.0, 0.0, 0.0, 0.0],
            [0.0, -65504.0, -16.0, 0.0],
            [1024.0, 1008.0, 0.0, 0.0],
            [1024.0, 992.0, 0.0, 0.0],
            [0.0, -16.0 * t, t, 0.0],
            [t, 0.0, 0.0, 0.0],
            [0.0, t, -t, 0.0],
            [0.0, 1023.0 * t, t, 0.0],
            [0.0, -1023.0 * t, -t, 0.0],
            [-t, 0.0, 0.0, 0.0],
            [1040.0, -65504.0, 0.0, 0.0],
            [1039.0, 0.0, 0.0, 0.0],
            [0.0, 65504.0, -65504.0, 0.0],
        ];
        let b = tile(TREE_WIDTH, |c, k| Fp16::from_f32(columns[c][k]));
        let inf = f32::INFINITY;
        let min_normal = f32::powi(2.0, -14);
        let want = [
            inf,
            inf,
            65504.0,
            -inf,
            -inf,
            inf,
            65504.0,
            -15.0 * t,
            63.0 * t,
            0.0,
            min_normal,
            -min_normal,
            -63.0 * t,
            inf,
            65472.0,
            0.0,
        ];
        assert_eq!(tile_dot_impl(NumericsMode::PaperRounded, &a, &b), want);
        check_copies(&a, &b, "65520 ties and subnormals");
        // A NaN activation makes every column NaN.
        let nan_a = [Fp16::NAN, a[1], a[2], a[3]];
        for variant in copies_here() {
            let got = wide::tile_dot(variant, NumericsMode::PaperRounded, &nan_a, &b);
            assert!(
                got.iter().all(|x| x.is_nan()),
                "{}: {got:?}",
                variant.name()
            );
        }

        let specials = frontier_values();
        // Factors whose products land on either side of 65504 and 65520
        // (63.96875·1024 = 65504, 64·1024 = 65536, 1.0009766·65504 →
        // ∞, 0.99951172·65504 → 65472) and whose sums cross there too.
        let big_a = halves(&[
            63.0,
            63.968_75,
            64.0,
            1.0,
            0.999_511_7,
            1.000_976_6,
            2.0,
            0.5,
        ]);
        let big_b = halves(&[
            1040.0, 1039.0, 1024.0, 1025.0, 65504.0, 65472.0, 32752.0, 16.0, 15.992_188, 8.0,
        ]);
        let nans = [0x7e00u16, 0xfe00, 0x7c01, 0x7fff];
        let kinds = [
            "any bits",
            "|x| < 2",
            "frontier",
            "near 65520",
            "subnormal results",
            "NaN activations",
        ];
        // Any bit pattern (mostly ∞/NaN sums at large k), |x| < 2 (sums
        // stay finite, subnormals included), frontier values, the
        // factors above, |x| in [2⁻¹⁴, 2⁻⁶) (products from 2⁻²⁸, mostly
        // fp16 subnormal or zero) with either sign, and |x| < 2 with
        // one activation in 64 a NaN.
        let operand = |lcg: &mut Lcg, kind: usize, activation: bool| {
            let r = lcg.next_u32();
            let sign = (r >> 16) as u16 & 0x8000;
            let pick =
                |xs: &[Fp16]| Fp16::from_bits(sign ^ xs[(r >> 8) as usize % xs.len()].to_bits());
            match kind {
                0 => Fp16::from_bits(r as u16),
                1 => Fp16::from_bits(r as u16 & 0xbfff),
                2 => specials[r as usize % specials.len()],
                3 if activation => pick(&big_a),
                3 => pick(&big_b),
                4 => Fp16::from_bits(sign | (0x0400 + r as u16 % 0x2000)),
                _ if activation && r.is_multiple_of(64) => {
                    Fp16::from_bits(nans[(r >> 8) as usize % nans.len()])
                }
                _ => Fp16::from_bits(r as u16 & 0xbfff),
            }
        };
        let mut lcg = Lcg(0x2545_f491_4f6c_dd1d);
        for k in (4..=512).step_by(4) {
            for (kind, what) in kinds.iter().enumerate() {
                let a: Vec<Fp16> = (0..k).map(|_| operand(&mut lcg, kind, true)).collect();
                let h: Vec<Fp16> = (0..k * COLS)
                    .map(|_| operand(&mut lcg, kind, false))
                    .collect();
                let q: Vec<u16> = (0..k * COLS).map(|_| lcg.next_u32() as u16 % 16).collect();
                let any = tile(k, |c, t| h[t * COLS + c]);
                let codes = tile(k, |c, t| biased(q[t * COLS + c]));
                check_copies(&a, &any, what);
                check_copies(&a, &codes, &format!("{what} codes"));
            }
        }
    }

    /// One product per column through every copy: activation `x` against
    /// column `c`'s operand `b[c]` enters as the only non-zero product of
    /// a chunk, so the column returns `+0 + round(x·b[c])` (the
    /// accumulator's +0 start hides the sign of a zero result, in every
    /// copy alike).
    fn check_products(x: Fp16, b: &[Fp16]) {
        let a = [x, Fp16::ZERO, Fp16::ZERO, Fp16::ZERO];
        for operands in b.chunks(COLS) {
            let rows = tile(TREE_WIDTH, |c, t| match operands.get(c) {
                Some(&v) if t == 0 => v,
                _ => Fp16::ZERO,
            });
            for variant in copies_here() {
                let got = wide::tile_dot(variant, NumericsMode::PaperRounded, &a, &rows);
                for (&v, g) in operands.iter().zip(got) {
                    let want = 0.0 + round16(x.to_f32() * v.to_f32());
                    assert!(
                        same(g, want),
                        "{} {:#06x} × {:#06x}: {g} vs {want}",
                        variant.name(),
                        x.to_bits(),
                        v.to_bits()
                    );
                }
            }
        }
    }

    /// Every copy's product rounding equals [`round16`] for every
    /// activation against every operand value the gather produces for
    /// the PacQ flow (`1024 + code`, both precisions' codes) and the
    /// packed-k flows (`q − z` for every code and zero point). The
    /// standard flow's operands are arbitrary fp16 values, covered by
    /// the frontier and random pairs of
    /// [`every_copy_adds_and_multiplies_frontier_and_random_pairs`].
    #[test]
    fn every_copy_multiplies_every_activation_by_every_gathered_operand() {
        let mut operands: Vec<Fp16> = (0..16).map(biased).collect();
        operands.extend((-15..=15).map(|d| Fp16::from_f32(d as f32)));
        for x in Fp16::all_values() {
            check_products(x, &operands);
        }
    }

    /// Every copy's fp16 add and multiply equal [`round16`] of the f32
    /// result on the frontier pairs and a million random pairs. The add
    /// of `p` and `q` is the tree's left sum `1·p + 1·q` of an
    /// otherwise-zero chunk.
    #[test]
    fn every_copy_adds_and_multiplies_frontier_and_random_pairs() {
        let frontier = frontier_values();
        let mut pairs: Vec<(Fp16, Fp16)> = frontier
            .iter()
            .flat_map(|&p| frontier.iter().map(move |&q| (p, q)))
            .collect();
        let mut lcg = Lcg(7);
        pairs.extend((0..1_000_000).map(|_| {
            let r = lcg.next_u32();
            (Fp16::from_bits(r as u16), Fp16::from_bits((r >> 16) as u16))
        }));
        let one = Fp16::from_f32(1.0);
        let a = [one, one, Fp16::ZERO, Fp16::ZERO];
        for chunk in pairs.chunks(COLS) {
            let rows = tile(TREE_WIDTH, |c, t| match (chunk.get(c), t) {
                (Some(&(p, _)), 0) => p,
                (Some(&(_, q)), 1) => q,
                _ => Fp16::ZERO,
            });
            for variant in copies_here() {
                let got = wide::tile_dot(variant, NumericsMode::PaperRounded, &a, &rows);
                for (&(p, q), g) in chunk.iter().zip(got) {
                    let want = 0.0 + round16(p.to_f32() + q.to_f32());
                    assert!(
                        same(g, want),
                        "{} {:#06x} + {:#06x}: {g} vs {want}",
                        variant.name(),
                        p.to_bits(),
                        q.to_bits()
                    );
                }
            }
        }
        for &x in &frontier {
            check_products(x, &frontier);
        }
        for chunk in pairs[frontier.len() * frontier.len()..].chunks(COLS) {
            let operands: Vec<Fp16> = chunk.iter().map(|&(_, q)| q).collect();
            check_products(chunk[0].0, &operands);
        }
    }

    /// [`kernel_variant`] names the fastest copy this host can run, from
    /// the CPU features read here independently of [`wide::Variant`], so
    /// a silent fallback to a slower copy fails.
    #[test]
    fn kernel_variant_names_the_fastest_copy_this_host_can_run() {
        #[cfg(target_arch = "x86_64")]
        let fastest = {
            use std::arch::is_x86_feature_detected as has;
            let f16c = has!("avx2") && has!("f16c");
            let fp16 =
                has!("avx512f") && has!("avx512vl") && has!("avx512bw") && has!("avx512fp16");
            if f16c && fp16 {
                "avx512fp16"
            } else if f16c {
                "avx2+f16c"
            } else {
                "baseline"
            }
        };
        #[cfg(not(target_arch = "x86_64"))]
        let fastest = "baseline";
        assert_eq!(kernel_variant(), fastest);
    }

    #[test]
    fn batched_parallel_matches_scalar_on_frontier_activations() {
        for precision in [WeightPrecision::Int4, WeightPrecision::Int2] {
            for numerics in [NumericsMode::PaperRounded, NumericsMode::Wide] {
                let (a, _, w) = frontier_operands(32);
                check_parallel(
                    precision,
                    numerics,
                    &a,
                    &w,
                    &format!("{precision}/{numerics:?}"),
                );
            }
        }
    }
}
