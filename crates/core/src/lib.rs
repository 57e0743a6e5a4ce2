//! # pacq — a reproduction of the PacQ SIMT microarchitecture
//!
//! Rust reproduction of *"PacQ: A SIMT Microarchitecture for Efficient
//! Dataflow in Hyper-asymmetric GEMMs"* (Yin, Li, Panda — DAC 2025).
//!
//! A **hyper-asymmetric GEMM** multiplies FP16 activations by very
//! low-precision integer weights (INT4/INT2) — the compute pattern of
//! weight-only-quantized LLM inference. PacQ keeps the weights *packed
//! all the way into the tensor core* and co-designs three things:
//!
//! 1. packing along the output-feature dimension (`P(B_x)_n`) with an
//!    output-stationary dataflow (§III);
//! 2. a parallel FP-INT multiplier computing one FP16 × four INT4 (or
//!    eight INT2) products per cycle (§IV);
//! 3. a tensor core with duplicated adder trees and `Σ A` accumulators
//!    that remove the biasing offset algebraically (Eq. (1)).
//!
//! This crate is the façade over the full stack:
//!
//! | Layer | Crate |
//! |---|---|
//! | Bit-accurate FP16 + the multiplier datapaths | [`pacq_fp16`] |
//! | Power/area/SRAM models (Synopsys DC + CACTI substitute) | [`pacq_energy`] |
//! | RTN quantization, groups, `P(B_x)_y` packing | [`pacq_quant`] |
//! | Volta-like SIMT simulator (three dataflows) | [`pacq_simt`] |
//! | Mix-GEMM binary-segmentation baseline | [`pacq_mixgemm`] |
//!
//! ## Quickstart
//!
//! ```
//! use pacq::{Architecture, Comparison, GemmRunner, GemmShape, Workload};
//! use pacq_fp16::WeightPrecision;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Simulate a Llama2-7B attention projection at batch 16 on all three
//! // architectures and compare.
//! let runner = GemmRunner::new();
//! let wl = Workload::new(GemmShape::new(16, 4096, 4096), WeightPrecision::Int4);
//! let cmp = Comparison::new(vec![
//!     runner.analyze(Architecture::StandardDequant, wl)?,
//!     runner.analyze(Architecture::PackedK, wl)?,
//!     runner.analyze(Architecture::Pacq, wl)?,
//! ]);
//! let edp = cmp.normalized_edp();
//! assert!(edp[2] < 0.35, "PacQ cuts EDP by >65%: {}", edp[2]);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod activity;
pub mod args;
pub mod cli;
pub mod dse;
pub mod llama;
pub mod loadgen;
pub mod par;
pub mod params;
pub mod pareto;
pub mod report;
pub mod roofline;
pub mod runner;
pub mod serve;

pub use dse::{best_edp, run_dse, DseAxes, DseJob, DseOutcome, DsePlan, DseRow};
pub use pareto::{pareto_front, ParetoPoint};
pub use report::{Comparison, GemmReport};
pub use runner::GemmRunner;
pub use serve::{ServeOptions, ServeSummary, Server};

// The result-cache and sharding layer (`--cache`, `--shard`,
// `--checkpoint`; DESIGN.md §12).
pub use pacq_cache::{CacheKey, CacheStats, ReportCache, Shard, SweepCheckpoint, VerifyOutcome};

// The declarative architecture-template layer (`pacq-arch/v2`,
// `--arch-template`, `pacq dse`; DESIGN.md §18).
pub use pacq_arch::{ArchTemplate, TEMPLATE_SCHEMA};

// The workspace-wide typed error layer (DESIGN.md §10).
pub use pacq_error::{PacqError, PacqResult};

// Re-export the vocabulary types so `pacq` alone is enough for most uses.
pub use pacq_fp16::{Backend, Fp16, Int2, Int4, NumericsMode, PackedWord, WeightPrecision};
pub use pacq_quant::{
    GroupShape, MatrixF16, MatrixF32, PackDim, PackedMatrix, QuantScheme, QuantizedMatrix,
    RtnQuantizer,
};
pub use pacq_simt::{
    Architecture, EnergyModel, EnergyReport, GemmShape, GemmStats, SmConfig, Workload,
};
