//! Batched kernels: the [`Backend::Batched`] fast path of the
//! functional GEMM layer.
//!
//! The scalar datapath models ([`crate::Fp16Multiplier`],
//! [`crate::ParallelFpIntMultiplier`], [`crate::softfloat`]) pay a
//! per-element price — shift-add significand products, branchy
//! classify/round, one `match` per special case — that is the right
//! shape for auditing bits but the wrong shape for sweeping thousands
//! of GEMM points. This module re-implements the same arithmetic in
//! f32 over whole column tiles with three techniques:
//!
//! 1. **Table-driven conversions** — one 64 Ki-entry fp16 → f32 table
//!    turns every activation load into a single indexed read
//!    ([`to_f32_table`], [`widen_into`]).
//! 2. **Branch-free rounding** — [`round16`] rounds an f32 to the fp16
//!    grid with a magic-number add/subtract instead of a per-element
//!    `match` over the float classes, so it vectorizes; on a host with
//!    F16C the kernel does the same rounding as one `vcvtps2ph` (RNE) /
//!    `vcvtph2ps` conversion pair, which equals [`round16`] on every
//!    non-NaN f32. [`pack_rne`] is the same rounding as fp16 bits
//!    (kept/round/sticky masks, carry folded into the exponent field,
//!    NaN canonicalized to [`Fp16::NAN`]). Because a binary16 product
//!    is exact in binary32 and binary32 carries ≥ 2·11 + 2 significand
//!    bits, rounding through f32 is innocuous (Figueroa's
//!    double-rounding theorem), so `round16(a·b)` and `round16(a+b)` are
//!    bit-identical to the shift-add datapaths for **all** 2³² input
//!    pairs — the in-module frontier tests and the three-way
//!    equivalence suite pin this.
//! 3. **FP-INT lane products by arithmetic** — a biased weight
//!    `B + offset` is the exact integer `1024 + code`, so the parallel
//!    multiplier's lane product is one fp16 multiply
//!    `round16(A · (1024 + code))`: exact in f32 and rounded once (the
//!    paper's Fig. 5 trick). The PacQ flow therefore runs the same
//!    kernel as the baseline flows. [`product_lut`], the `codes × 65536`
//!    table built from the scalar multiplier, stays as the exhaustive
//!    oracle that pins this identity.
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
//! [`tile_dot`] has three compiled copies, and each call runs the
//! fastest one the CPU supports ([`kernel_variant`] names it): the
//! default target (SSE2 on x86-64, where a [`TileRow`] takes two 128-bit
//! vectors), the same source inside an AVX2 target-feature function
//! (one 256-bit vector), and, for [`NumericsMode::PaperRounded`] on a
//! host with F16C as well, an explicit AVX2 + F16C kernel whose every
//! fp16 rounding is the conversion pair. All three perform the same
//! operations in the same order, Rust never contracts `a·b + c` into an
//! FMA, and the conversion pair rounds exactly like [`round16`], so
//! they are bit-identical on every non-NaN result.
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
    /// The batched kernels of this module: table conversions,
    /// branch-free rounding, arithmetic lane products over f32 column
    /// tiles.
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

#[inline]
fn lookup(table: &[f32; 1 << 16], x: Fp16) -> f32 {
    table[x.to_bits() as usize]
}

/// Converts f32 → fp16 with round-to-nearest-even using mask arithmetic
/// instead of a per-class `match`, canonicalizing every NaN to
/// [`Fp16::NAN`] (the constant all scalar datapaths return).
///
/// Bit-identical to `Fp16::from_f32` for every non-NaN input; for NaN
/// inputs the payload is dropped, matching the datapath models rather
/// than the payload-preserving storage conversion.
#[inline]
pub fn pack_rne(x: f32) -> Fp16 {
    let bits = x.to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16;
    let abs = bits & 0x7fff_ffff;
    if abs >= 0x4780_0000 {
        // ≥ 2^16 overflows to infinity; NaN canonicalizes (sign dropped).
        return if abs > 0x7f80_0000 {
            Fp16::NAN
        } else {
            Fp16::from_bits(sign | 0x7c00)
        };
    }
    if abs < 0x3880_0000 {
        // Below the normal cutoff 2^-14: scale into the integer window
        // [2^23, 2^23 + 1024) where one f32 ulp is exactly one subnormal
        // step, letting the hardware's RNE do the tie-to-even rounding.
        // (Scaling by 2^24 is exact; a carry to 1024 lands on the
        // hidden bit, i.e. the minimum normal — exactly as required.)
        let mag = (f32::from_bits(abs) * 16_777_216.0 + 8_388_608.0).to_bits() & 0x7ff;
        return Fp16::from_bits(sign | mag as u16);
    }
    // Normal range [2^-14, 2^16): shift the 23-bit mantissa down to 10
    // bits with kept/round/sticky mask arithmetic; a round-up carry
    // propagates into the exponent field (30 → 31 is the correct
    // round-to-infinity at the fp16 ceiling).
    let mant = abs & 0x007f_ffff;
    let exp = (abs >> 23) - 112; // f32 bias 127 → fp16 bias 15
    let kept = mant >> 13;
    let round = (mant >> 12) & 1;
    let sticky = u32::from(mant & 0x0fff != 0);
    let inc = round & (sticky | (kept & 1));
    Fp16::from_bits(sign | ((exp << 10) + kept + inc) as u16)
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

/// Columns per tile of the column-tile kernel: one [`TileRow`] spans
/// two 128-bit vectors at the default x86-64 target, one 256-bit vector
/// in the AVX2 and F16C copies.
pub const COLS: usize = 8;

/// One k-step of a column tile: the gathered f32 weight operands of
/// the tile's [`COLS`] output columns.
pub type TileRow = [f32; COLS];

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

/// Widens fp16 activations to f32 through [`to_f32_table`].
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn widen_into(src: &[Fp16], dst: &mut [f32]) {
    assert_eq!(src.len(), dst.len(), "widen lengths must match");
    let table = to_f32_table();
    for (d, &s) in dst.iter_mut().zip(src) {
        *d = lookup(table, s);
    }
}

/// The Σ A side accumulator of Eq. (1) over one k-segment: an f64 sum
/// in k order from +0, the order of [`crate::SumAccumulator`].
pub fn activation_sum(a: &[f32]) -> f64 {
    a.iter().fold(0f64, |sum, &x| sum + f64::from(x))
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
///   fp16-valued operands that is [`crate::BaselineDpUnit::dot_acc`]
///   chained over the segment at width 4; with `b = 1024 + code` it is
///   [`crate::ParallelDpUnit`]'s lane sum (the biased product is exact
///   in f32, so rounding it once is the multiplier's rounding unit).
/// * [`NumericsMode::Wide`] — the exact products are summed
///   sequentially without rounding: the `Wide` lane sums.
///
/// # Panics
///
/// Panics if `a` and `b` differ in length or, for `PaperRounded`, the
/// length is not a multiple of [`TREE_WIDTH`].
pub fn tile_dot(numerics: NumericsMode, a: &[f32], b: &[TileRow]) -> TileRow {
    wide::tile_dot(wide::Variant::detect(), numerics, a, b)
}

/// Which compiled copy of [`tile_dot`] this host runs: `"avx2+f16c"`
/// (one 256-bit vector per [`TileRow`], every fp16 rounding done by the
/// F16C conversion pair), `"avx2"` (the same vector width, rounding by
/// [`round16`]) or `"baseline"` (the default target, SSE2 on x86-64).
/// All three are bit-identical on every non-NaN result.
pub fn kernel_variant() -> &'static str {
    wide::Variant::detect().name()
}

/// [`tile_dot`]'s body, inlined into the baseline and AVX2 copies.
#[inline(always)]
pub(crate) fn tile_dot_impl(numerics: NumericsMode, a: &[f32], b: &[TileRow]) -> TileRow {
    assert_eq!(a.len(), b.len(), "operand k-lengths must match");
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
                for (c, sum) in acc.iter_mut().enumerate() {
                    let p = |t: usize| round16(x[t] * w[t][c]);
                    *sum += round16(round16(p(0) + p(1)) + round16(p(2) + p(3)));
                }
            }
        }
        NumericsMode::Wide => {
            for (&x, w) in a.iter().zip(b) {
                for (sum, &v) in acc.iter_mut().zip(w) {
                    *sum += x * v;
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
            let (got, want) = (lookup(table, x), x.to_f32());
            assert!(
                got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan()),
                "{:#06x}",
                x.to_bits()
            );
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

    fn widen(a: &[Fp16]) -> Vec<f32> {
        let mut out = vec![0f32; a.len()];
        widen_into(a, &mut out);
        out
    }

    /// A tile whose column `c` holds `column(c, t)` at k-step `t`.
    fn tile(len: usize, column: impl Fn(usize, usize) -> f32) -> Vec<TileRow> {
        (0..len)
            .map(|t| std::array::from_fn(|c| column(c, t)))
            .collect()
    }

    /// The tile kernel over fp16 operands equals the DP-4
    /// `BaselineDpUnit::dot_acc` chain with FP32 accumulation, column
    /// by column; each column's operand is the `b` vector rotated by a
    /// column-dependent amount so all eight columns differ.
    fn check_baseline(a: &[Fp16], b: &[Fp16], what: &str) {
        let scalar = BaselineDpUnit::new(TREE_WIDTH).unwrap();
        let column = |c: usize, t: usize| b[(t + 3 * c) % b.len()];
        let got = tile_dot(
            NumericsMode::PaperRounded,
            &widen(a),
            &tile(a.len(), |c, t| column(c, t).to_f32()),
        );
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
    /// rotated by `s`, so INT4's two streams differ.
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
            &widen(a),
            &tile(a.len(), |c, t| {
                1024.0 + word(c / lanes, t).biased_lane(precision, c % lanes) as f32
            }),
        );
        let got_sum = activation_sum(&widen(a));
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
    fn check_copies(a: &[f32], b: &[TileRow], what: &str) {
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

    /// Every compiled copy of [`tile_dot`] this host can execute equals
    /// the baseline bit for bit: both modes, every k from 4 to 512,
    /// fp16-valued operands (std, packed-k, `is`) and `1024 + code`
    /// operands (pacq), over random bits, the frontier values, products
    /// and tree sums that straddle 65504 and 65520, results in the fp16
    /// subnormal range with both signs, and NaN activations (NaN only
    /// as NaN).
    #[test]
    fn every_kernel_copy_matches_the_baseline_bit_for_bit() {
        let names: Vec<&str> = copies_here().iter().map(|v| v.name()).collect();
        eprintln!("tile_dot copies under test: {names:?}");

        // The ties, pinned. Column 0 is the product 63·1040 = 65520, the
        // halfway point above 65504 that rounds to even, i.e. to ∞;
        // column 1 the tree's top sum 65504 + 16 and column 5 its left
        // sum 64512 + 1008, both 65520 too; columns 2 and 6 stay just
        // under it; column 7 is a negative fp16 subnormal.
        let a = [63.0, 1.0, 1.0, 1.0];
        let tiny = f32::powi(2.0, -24);
        let columns: [[f32; TREE_WIDTH]; COLS] = [
            [1040.0, 0.0, 0.0, 0.0],
            [0.0, 65504.0, 16.0, 0.0],
            [0.0, 65504.0, 0.0, 15.992_188],
            [-1040.0, 0.0, 0.0, 0.0],
            [0.0, -65504.0, -16.0, 0.0],
            [1024.0, 1008.0, 0.0, 0.0],
            [1024.0, 992.0, 0.0, 0.0],
            [0.0, -16.0 * tiny, tiny, 0.0],
        ];
        let b = tile(TREE_WIDTH, |c, t| columns[c][t]);
        let inf = f32::INFINITY;
        let want = [inf, inf, 65504.0, -inf, -inf, inf, 65504.0, -15.0 * tiny];
        assert_eq!(tile_dot_impl(NumericsMode::PaperRounded, &a, &b), want);
        check_copies(&a, &b, "65520 ties");

        let specials: Vec<f32> = frontier_values().iter().map(|x| x.to_f32()).collect();
        // Factors whose products land on either side of 65504 and 65520
        // (63.96875·1024 = 65504, 64·1024 = 65536, 1.0009766·65504 →
        // ∞, 0.99951172·65504 → 65472) and whose sums cross there too.
        let big_a = [
            63.0,
            63.968_75,
            64.0,
            1.0,
            0.999_511_7,
            1.000_976_6,
            2.0,
            0.5,
        ];
        let big_b = [
            1040.0, 1039.0, 1024.0, 1025.0, 65504.0, 65472.0, 32752.0, 16.0, 15.992_188, 8.0,
        ];
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
            let sign = if r >> 31 == 1 { -1.0 } else { 1.0 };
            let pick = |xs: &[f32]| sign * xs[(r >> 8) as usize % xs.len()];
            match kind {
                0 => Fp16::from_bits(r as u16).to_f32(),
                1 => Fp16::from_bits(r as u16 & 0xbfff).to_f32(),
                2 => specials[r as usize % specials.len()],
                3 if activation => pick(&big_a),
                3 => pick(&big_b),
                4 => sign * Fp16::from_bits(0x0400 + r as u16 % 0x2000).to_f32(),
                _ if activation && r.is_multiple_of(64) => {
                    Fp16::from_bits(nans[(r >> 8) as usize % nans.len()]).to_f32()
                }
                _ => Fp16::from_bits(r as u16 & 0xbfff).to_f32(),
            }
        };
        let mut lcg = Lcg(0x2545_f491_4f6c_dd1d);
        for k in (4..=512).step_by(4) {
            for (kind, what) in kinds.iter().enumerate() {
                let a: Vec<f32> = (0..k).map(|_| operand(&mut lcg, kind, true)).collect();
                let h: Vec<f32> = (0..k * COLS)
                    .map(|_| operand(&mut lcg, kind, false))
                    .collect();
                let q: Vec<u32> = (0..k * COLS).map(|_| lcg.next_u32() % 16).collect();
                let halves = tile(k, |c, t| h[t * COLS + c]);
                let codes = tile(k, |c, t| (1024 + q[t * COLS + c]) as f32);
                check_copies(&a, &halves, what);
                check_copies(&a, &codes, &format!("{what} codes"));
            }
        }
    }

    /// The F16C conversion pair alone equals [`round16`] on the inputs
    /// of [`round16_matches_pack_rne_on_every_frontier`]. Each `x`
    /// enters as the product `1·x` of an otherwise-zero chunk, so its
    /// column returns `+0 + round(x)`: the accumulator's +0 start hides
    /// the sign of a zero result, in every copy alike.
    #[test]
    fn f16c_round_matches_round16_on_every_frontier() {
        if !wide::Variant::Avx2F16c.runs_here() {
            eprintln!("no F16C on this host: nothing to compare");
            return;
        }
        let a = [1.0, 0.0, 0.0, 0.0];
        let inputs: Vec<f32> = rounding_frontier_inputs()
            .into_iter()
            .map(f32::from_bits)
            .filter(|x| !x.is_nan())
            .collect();
        for xs in inputs.chunks(COLS) {
            let b = tile(TREE_WIDTH, |c, t| match xs.get(c) {
                Some(&x) if t == 0 => x,
                _ => 0.0,
            });
            let got = wide::tile_dot(wide::Variant::Avx2F16c, NumericsMode::PaperRounded, &a, &b);
            for (&x, g) in xs.iter().zip(got) {
                assert_eq!(
                    g.to_bits(),
                    (0.0 + round16(x)).to_bits(),
                    "x = {x:e} ({:#010x})",
                    x.to_bits()
                );
            }
        }
    }

    /// A host with AVX2 and F16C runs the F16C copy, so a silent
    /// fallback to a slower copy fails here.
    #[test]
    fn kernel_variant_names_the_f16c_copy_when_the_host_has_f16c() {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2")
            && std::arch::is_x86_feature_detected!("f16c")
        {
            assert_eq!(kernel_variant(), "avx2+f16c");
        }
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
