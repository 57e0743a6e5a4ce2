//! # pacq-simt — a Volta-like SIMT tensor-core simulator
//!
//! Substitute for the paper's custom Python simulator (§V): a
//! deterministic octet-level model of the Figure 3 `mma.m16n16k16`
//! pipeline that counts register-file / L1 / DRAM traffic, buffer
//! evictions, fetch instructions and cycles for three dataflows
//! ([`Architecture`]):
//!
//! 1. **StandardDequant** — the conventional W16A16 flow of Figure 1(a);
//! 2. **PackedK** — the hyper-asymmetric `P(B_x)_k` baseline with its
//!    Figure 4 fetch/eviction pathologies;
//! 3. **Pacq** — the proposed `P(B_x)_n` output-stationary flow.
//!
//! [`simulate`] produces the statistics behind Figures 7 and 10;
//! [`EnergyModel`] turns them into energy and EDP; [`execute`]
//! additionally runs each flow *functionally* through the bit-accurate
//! datapaths of `pacq-fp16`.
//!
//! ## Example
//!
//! ```
//! use pacq_simt::{simulate, Architecture, GemmShape, SmConfig, Workload};
//! use pacq_quant::GroupShape;
//! use pacq_fp16::WeightPrecision;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let cfg = SmConfig::volta_like();
//! let wl = Workload::new(GemmShape::M16N16K16, WeightPrecision::Int4);
//! let pacq = simulate(Architecture::Pacq, wl, &cfg, GroupShape::along_k(16))?;
//! let packed_k = simulate(Architecture::PackedK, wl, &cfg, GroupShape::along_k(16))?;
//! // Figure 7: PacQ needs ~2× fewer cycles and far fewer RF accesses.
//! assert!(packed_k.total_cycles > pacq.total_cycles);
//! assert!(packed_k.rf.total_accesses() > pacq.rf.total_accesses());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod config;
pub mod dataflow;
pub mod energy_model;
pub mod exec;
pub mod pipeline;
pub mod stats;

pub use config::{Architecture, GemmShape, SmConfig, Workload, MAX_MACS};
pub use dataflow::simulate;
pub use energy_model::{EnergyModel, EnergyReport, MulEnergyOverride};
pub use exec::{execute, execute_with_backend, reference};
pub use pacq_fp16::Backend;
pub use pipeline::{octet_schedule, OctetPipeline, PipelineEvent, PipelineTrace};
pub use stats::{GemmStats, GeneralCoreOps, LevelTraffic, RfTraffic};
