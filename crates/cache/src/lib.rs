//! # pacq-cache — the result-cache and sweep-sharding layer
//!
//! The simulator is fully deterministic: the same `(machine
//! configuration, GEMM shape, weight precision, dataflow)` tuple always
//! prices to the same report, bit for bit. This crate exploits that the
//! same way FIGLUT memoizes FP-INT products in LUTs, one level up —
//! whole reports are memoized on disk so the design-space sweeps behind
//! Figures 7–12 become lookups on re-runs:
//!
//! - [`key`] — the content address: a canonical key string over every
//!   input that can change a report (plus the crate version, so a new
//!   build never reads stale entries), hashed to a stable hex digest.
//! - [`entry`] — the priced report ([`GemmReport`]) and its on-disk
//!   entry format (`pacq-cache/v1` JSON). Every `u64` counter is
//!   serialized as a decimal string so values beyond 2^53 survive the
//!   float-based JSON model losslessly.
//! - [`store`] — the content-addressed store: atomic writes
//!   (temp file + rename), corruption-tolerant reads (a bad entry is a
//!   miss, never a panic or an error exit), and `stats`/`clear`/`verify`
//!   maintenance operations for the `pacq cache` subcommands.
//! - [`hot`] — a bounded in-memory LRU hot tier the serving layer
//!   mounts in front of the disk store (same key + digest discipline;
//!   hits are bit-identical to fresh computation).
//! - [`shard`] —`--shard i/N` grid slicing and the append-only
//!   resumable sweep checkpoint (`pacq-sweep-checkpoint/v1`).
//!
//! DESIGN.md §12 documents the key schema, invalidation rules and the
//! checkpoint format.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod entry;
pub mod hot;
pub mod key;
pub mod shard;
pub mod store;

pub use entry::{arch_token, precision_token, GemmReport, ENTRY_SCHEMA};
pub use hot::HotTier;
pub use key::{config_canonical, CacheKey};
pub use shard::{grid_digest, Shard, SweepCheckpoint, CHECKPOINT_SCHEMA};
pub use store::{CacheStats, ReportCache, VerifyOutcome};
