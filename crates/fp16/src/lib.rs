//! # pacq-fp16 — bit-accurate FP16 arithmetic and the PacQ datapaths
//!
//! Foundation crate of the PacQ reproduction (Yin, Li, Panda,
//! *"PacQ: A SIMT Microarchitecture for Efficient Dataflow in
//! Hyper-asymmetric GEMMs"*, DAC 2025).
//!
//! It provides, all implemented from scratch so every bit can be audited:
//!
//! * [`Fp16`] — IEEE 754 binary16 storage type and conversions;
//! * [`softfloat`] — correctly-rounded reference multiply/add (the
//!   specification the hardware models are proved against);
//! * [`Fp16Multiplier`] — structural model of the baseline FP16 multiplier
//!   datapath (Figure 5(a), Table I);
//! * [`ParallelFpIntMultiplier`] — **the paper's contribution**: one FP16
//!   activation × 4 packed INT4 (or 8 packed INT2) weights per cycle
//!   (Figure 5(b)–(d)), bit-exact with the reference;
//! * [`BaselineDpUnit`] / [`ParallelDpUnit`] — DP-4/8/16 dot-product units
//!   with the adder-tree duplication knob (Figures 8, 11, 12(a));
//! * [`batch`] — the batched fast path ([`Backend::Batched`]): one f32
//!   column-tile kernel with branch-free fp16 rounding, bit-identical to
//!   the scalar units;
//! * [`Int4`] / [`Int2`] / [`PackedWord`] — packed low-precision weights.
//!
//! ## Quick example
//!
//! ```
//! use pacq_fp16::{Fp16, Int4, PackedWord, ParallelFpIntMultiplier, WeightPrecision};
//!
//! // Multiply one activation by four INT4 weights in a single cycle.
//! let unit = ParallelFpIntMultiplier::new(WeightPrecision::Int4);
//! let weights = PackedWord::pack_int4([
//!     Int4::new(-8).unwrap(),
//!     Int4::new(-1).unwrap(),
//!     Int4::new(3).unwrap(),
//!     Int4::new(7).unwrap(),
//! ]);
//! let trace = unit.multiply(Fp16::from_f32(0.5), weights);
//! // Products are biased by +1032 and recovered downstream via Eq. (1).
//! let p: Vec<f32> = trace.products().map(|x| x.to_f32()).collect();
//! assert_eq!(p, vec![512.0, 515.5, 517.5, 519.5]);
//! ```

// One `unsafe` call, the AVX2 kernel dispatch in `wide`, is allowed
// there; the rest of the crate may not use `unsafe`.
#![deny(unsafe_code)]
#![deny(clippy::undocumented_unsafe_blocks)]
#![warn(missing_docs)]
// The no-panic contract (DESIGN.md §10): library code returns
// `Result<_, PacqError>`; only tests may unwrap.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod batch;
mod bits;
pub mod dp;
pub mod mul;
mod packed;
pub mod parallel;
pub mod softfloat;
mod wide;

pub use batch::Backend;
pub use bits::{Fp16, Fp16Class, EXP_BIAS, EXP_MAX, HIDDEN_BIT, MANT_BITS, MANT_MASK};
pub use dp::{
    BaselineDpUnit, DpResources, NumericsMode, PackedDotResult, ParallelDpUnit, SumAccumulator,
};
pub use mul::{Fp16Multiplier, MulTrace, MultiplierResources, RoundingMode, SubnormalMode};
pub use packed::{Int2, Int4, PackedWord, WeightPrecision, WeightRangeError};
pub use parallel::{LaneTrace, ParallelFpIntMultiplier, ParallelMulTrace, MAX_LANES};
