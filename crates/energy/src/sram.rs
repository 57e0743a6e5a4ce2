//! Analytical SRAM / register-file / DRAM energy model.
//!
//! Stands in for CACTI 7.0, which the paper uses for on-chip SRAM and
//! register-file statistics. The model is the standard first-order one:
//! access energy grows with the square root of capacity (word/bit-line
//! length), scaled by the access width, with a structure factor separating
//! plain RF arrays from tagged caches. Constants are pinned to published
//! 32 nm CACTI-class numbers for the two arrays of Table I (256 KB register
//! file, 96 KB shared L1).
//!
//! Only relative magnitudes matter for the paper's figures (RF ≪ L1 ≪
//! DRAM); absolute pJ values are provided for the EDP harness.

use core::fmt;

use pacq_error::{PacqError, PacqResult};

/// Kind of memory structure, selecting the access-overhead factor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemoryKind {
    /// Multi-banked register file (no tags, local wiring).
    RegisterFile,
    /// Tagged SRAM cache (tag compare + larger crossbar).
    Cache,
    /// Small dedicated operand buffer inside the tensor core.
    OperandBuffer,
    /// Off-chip DRAM (fixed per-bit cost dominated by I/O).
    Dram,
}

impl fmt::Display for MemoryKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemoryKind::RegisterFile => f.write_str("register file"),
            MemoryKind::Cache => f.write_str("cache"),
            MemoryKind::OperandBuffer => f.write_str("operand buffer"),
            MemoryKind::Dram => f.write_str("DRAM"),
        }
    }
}

/// First-order energy model for one memory structure.
///
/// # Examples
///
/// ```
/// use pacq_energy::{MemoryKind, SramModel};
///
/// let rf = SramModel::volta_register_file();
/// let l1 = SramModel::volta_l1();
/// // The hierarchy ordering the dataflow analysis relies on:
/// assert!(rf.read_energy_pj(16) < l1.read_energy_pj(16));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SramModel {
    kind: MemoryKind,
    capacity_bytes: u64,
    /// pJ per 16-bit word at this structure (pre-computed from the
    /// analytical formula at construction).
    energy_per_word16_pj: f64,
}

/// Base coefficient: pJ per 16-bit access for a 1 KB register-file-class
/// array. Calibrated so the 256 KB Volta register file costs ~0.6 pJ per
/// 16-bit operand read, in line with published 32 nm estimates.
const RF_BASE_PJ_PER_KB_SQRT: f64 = 0.0375;

/// Structure overhead factor of a tagged cache relative to an RF array.
const CACHE_FACTOR: f64 = 8.0;

/// Operand buffers are tiny flop arrays right next to the datapath.
const OPERAND_BUFFER_PJ_PER_WORD16: f64 = 0.06;

/// DRAM: pJ per 16 bits, dominated by I/O energy (~25 pJ/byte-class).
const DRAM_PJ_PER_WORD16: f64 = 50.0;

impl SramModel {
    /// Creates a model for an on-chip array.
    ///
    /// # Panics
    ///
    /// Panics if `capacity_bytes` is zero for an on-chip structure.
    pub fn new(kind: MemoryKind, capacity_bytes: u64) -> Self {
        let energy_per_word16_pj = match kind {
            MemoryKind::RegisterFile => {
                assert!(
                    capacity_bytes > 0,
                    "register file capacity must be non-zero"
                );
                RF_BASE_PJ_PER_KB_SQRT * (capacity_bytes as f64 / 1024.0).sqrt()
            }
            MemoryKind::Cache => {
                assert!(capacity_bytes > 0, "cache capacity must be non-zero");
                CACHE_FACTOR * RF_BASE_PJ_PER_KB_SQRT * (capacity_bytes as f64 / 1024.0).sqrt()
            }
            MemoryKind::OperandBuffer => OPERAND_BUFFER_PJ_PER_WORD16,
            MemoryKind::Dram => DRAM_PJ_PER_WORD16,
        };
        SramModel {
            kind,
            capacity_bytes,
            energy_per_word16_pj,
        }
    }

    /// Creates a model with an **explicit** per-word16 access energy,
    /// overriding the capacity-derived analytical formula. This is the
    /// constructor the `pacq-arch/v2` template layer uses when a level
    /// declares `access_energy_pj_per_word16`: CACTI-style numbers from
    /// another technology node can be dropped in without re-deriving
    /// the base coefficients.
    ///
    /// # Errors
    ///
    /// Returns [`PacqError::Template`] if the energy is not a positive
    /// finite number, or if an on-chip structure declares a zero
    /// capacity (DRAM is modeled as unbounded and passes 0).
    pub fn with_access_energy(
        kind: MemoryKind,
        capacity_bytes: u64,
        pj_per_word16: f64,
    ) -> PacqResult<Self> {
        if !(pj_per_word16 > 0.0 && pj_per_word16.is_finite()) {
            return Err(PacqError::template(
                "SramModel::with_access_energy",
                format!("{kind}: access energy must be positive and finite, got {pj_per_word16}"),
            ));
        }
        if capacity_bytes == 0 && kind != MemoryKind::Dram {
            return Err(PacqError::template(
                "SramModel::with_access_energy",
                format!("{kind}: capacity must be non-zero for an on-chip structure"),
            ));
        }
        Ok(SramModel {
            kind,
            capacity_bytes,
            energy_per_word16_pj: pj_per_word16,
        })
    }

    /// The Volta-like 256 KB per-SM register file of Table I.
    pub fn volta_register_file() -> Self {
        SramModel::new(MemoryKind::RegisterFile, 256 * 1024)
    }

    /// The Volta-like 96 KB shared L1 of Table I.
    pub fn volta_l1() -> Self {
        SramModel::new(MemoryKind::Cache, 96 * 1024)
    }

    /// One of the two 3072-bit tensor-core operand buffers of Table I.
    pub fn volta_operand_buffer() -> Self {
        SramModel::new(MemoryKind::OperandBuffer, 3072 / 8)
    }

    /// Off-chip DRAM.
    pub fn dram() -> Self {
        SramModel::new(MemoryKind::Dram, 0)
    }

    /// The structure kind.
    pub fn kind(&self) -> MemoryKind {
        self.kind
    }

    /// Capacity in bytes (0 for DRAM, which is modeled as unbounded).
    pub fn capacity_bytes(&self) -> u64 {
        self.capacity_bytes
    }

    /// The resolved access energy of one 16-bit word, in pJ — the
    /// level's identity in cache keys: two models with equal kinds and
    /// capacities but different energies price reports differently and
    /// must never share a content address.
    pub fn energy_per_word16_pj(&self) -> f64 {
        self.energy_per_word16_pj
    }

    /// Energy of one read of `bits` bits, in pJ. `bits` is widened to
    /// f64 before the product, so any u64 count prices without wrapping.
    pub fn read_energy_pj(&self, bits: u64) -> f64 {
        self.energy_per_word16_pj * bits as f64 / 16.0
    }

    /// Energy of one write of `bits` bits, in pJ (writes cost ~1.1× reads
    /// in this class of model).
    pub fn write_energy_pj(&self, bits: u64) -> f64 {
        1.1 * self.read_energy_pj(bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hierarchy_ordering_holds() {
        let buf = SramModel::volta_operand_buffer();
        let rf = SramModel::volta_register_file();
        let l1 = SramModel::volta_l1();
        let dram = SramModel::dram();
        assert!(buf.read_energy_pj(16) < rf.read_energy_pj(16));
        assert!(rf.read_energy_pj(16) < l1.read_energy_pj(16));
        assert!(l1.read_energy_pj(16) < dram.read_energy_pj(16));
    }

    #[test]
    fn rf_anchor_is_about_0p6_pj() {
        let rf = SramModel::volta_register_file();
        let e = rf.read_energy_pj(16);
        assert!((0.4..0.8).contains(&e), "RF 16-bit read = {e} pJ");
    }

    #[test]
    fn energy_scales_linearly_with_width() {
        let rf = SramModel::volta_register_file();
        assert!((rf.read_energy_pj(32) - 2.0 * rf.read_energy_pj(16)).abs() < 1e-12);
        assert!((rf.read_energy_pj(128) - 8.0 * rf.read_energy_pj(16)).abs() < 1e-12);
    }

    #[test]
    fn energy_grows_with_capacity() {
        let small = SramModel::new(MemoryKind::RegisterFile, 64 * 1024);
        let big = SramModel::new(MemoryKind::RegisterFile, 256 * 1024);
        assert!(big.read_energy_pj(16) > small.read_energy_pj(16));
        // Square-root law: 4× capacity → 2× energy.
        assert!((big.read_energy_pj(16) / small.read_energy_pj(16) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn pricing_at_u64_max_bits_does_not_wrap() {
        // The largest count a counter can hold prices to exactly its
        // share of 2^64 bits; a product taken in u64 would wrap first.
        let bits = 2f64.powi(64);
        for level in [
            SramModel::volta_operand_buffer(),
            SramModel::volta_register_file(),
            SramModel::volta_l1(),
            SramModel::dram(),
        ] {
            let read = level.energy_per_word16_pj() * bits / 16.0;
            let got = level.read_energy_pj(u64::MAX);
            assert!(
                (got - read).abs() <= 1e-12 * read,
                "{}: {got}",
                level.kind()
            );
            let got = level.write_energy_pj(u64::MAX);
            assert!(
                (got - 1.1 * read).abs() <= 1e-12 * read,
                "{}: {got}",
                level.kind()
            );
        }
    }

    #[test]
    fn writes_cost_more_than_reads() {
        let rf = SramModel::volta_register_file();
        assert!(rf.write_energy_pj(16) > rf.read_energy_pj(16));
    }

    #[test]
    #[should_panic(expected = "capacity must be non-zero")]
    fn zero_capacity_rejected() {
        SramModel::new(MemoryKind::Cache, 0);
    }

    #[test]
    fn explicit_access_energy_overrides_the_formula() {
        let rf = SramModel::with_access_energy(MemoryKind::RegisterFile, 256 * 1024, 1.25)
            .expect("valid override");
        assert_eq!(rf.energy_per_word16_pj(), 1.25);
        assert_eq!(rf.capacity_bytes(), 256 * 1024);
        assert!((rf.read_energy_pj(32) - 2.5).abs() < 1e-12);
        // The derived default stays reachable through the getter, so the
        // template layer can render resolved energies bit-exactly.
        let derived = SramModel::volta_register_file();
        assert_eq!(
            derived.read_energy_pj(16).to_bits(),
            derived.energy_per_word16_pj().to_bits()
        );
    }

    #[test]
    fn bad_access_energy_is_a_typed_template_error() {
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let err = SramModel::with_access_energy(MemoryKind::Cache, 1024, bad).unwrap_err();
            assert_eq!(err.exit_code(), 9, "{bad}: {err}");
        }
        let err = SramModel::with_access_energy(MemoryKind::Cache, 0, 1.0).unwrap_err();
        assert_eq!(err.exit_code(), 9, "{err}");
        // DRAM is unbounded: zero capacity is its documented shape.
        assert!(SramModel::with_access_energy(MemoryKind::Dram, 0, 42.0).is_ok());
    }
}
