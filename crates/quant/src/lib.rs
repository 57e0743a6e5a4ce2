//! # pacq-quant — weight-only quantization for hyper-asymmetric GEMMs
//!
//! The quantization substrate of the PacQ reproduction: everything needed
//! to turn FP weight matrices into the packed low-precision artifacts the
//! PacQ dataflow consumes.
//!
//! * [`RtnQuantizer`] — symmetric round-to-nearest group PTQ (the Table II
//!   algorithm), with 1-D `g128`-style and 2-D `g[32,4]`-style
//!   [`GroupShape`]s;
//! * [`PackedMatrix`] — the `P(B_x)_y` packing formats of §III, along
//!   either the k or the n dimension ([`PackDim`]);
//! * [`evaluate_rtn`] / [`lm::TinyLm`] — quality metrics and the Table II
//!   perplexity proxy;
//! * [`synth::SynthGenerator`] — deterministic LLM-like synthetic data
//!   (the Llama2 substitution documented in DESIGN.md §4);
//! * [`MatrixF32`] / [`MatrixF16`] — the shared matrix containers.
//!
//! ## Example: quantize and pack for PacQ
//!
//! ```
//! use pacq_quant::{GroupShape, PackDim, PackedMatrix, RtnQuantizer, synth::SynthGenerator};
//! use pacq_fp16::WeightPrecision;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let weights = SynthGenerator::new(0).llm_weights(256, 64);
//! let quant = RtnQuantizer::new(WeightPrecision::Int4, GroupShape::G32X4)
//!     .quantize(&weights)?;
//! let packed = PackedMatrix::pack(&quant, PackDim::N)?; // P(B_4)_n
//! assert_eq!(packed.total_words(), 256 * 64 / 4);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// The no-panic contract (DESIGN.md §10): library code returns
// `Result<_, PacqError>`; only tests may unwrap.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod eval;
pub mod groups;
pub mod lm;
pub mod matrix;
pub mod pack;
pub mod rtn;
pub mod synth;

pub use eval::{evaluate_rtn, QuantError};
pub use groups::GroupShape;
pub use matrix::{MatrixF16, MatrixF32};
pub use pack::{PackDim, PackedMatrix};
pub use pacq_error::{PacqError, PacqResult};
pub use rtn::{QuantScheme, QuantizedMatrix, RtnQuantizer};
