//! Declarative architecture templates for the PacQ simulator.
//!
//! A `pacq-arch/v2` template is a small JSON document that describes
//! one simulated machine: memory hierarchy, datapath and clock. The
//! dataflow is not part of it; `--arch` picks that on every command.
//! [`ArchTemplate`] parses, validates and renders templates, derives the
//! simulator's `SmConfig` / `EnergyModel` from them, and computes the
//! content digest that binds every derived artifact (cache entries,
//! checkpoints, run manifests) back to the exact template that produced
//! it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod template;

pub use template::{ArchTemplate, TEMPLATE_SCHEMA};
