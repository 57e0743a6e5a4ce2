//! Activity-calibrated energy: a per-gate-class bill of materials that
//! prices toggle histograms (measured by `pacq-rtl` netlist simulation)
//! into pJ figures.
//!
//! The analytic model in [`crate::units`] carries calibrated per-unit
//! constants; this module closes the loop from the other side. A
//! netlist simulation counts toggles per gate class, and the BOM maps
//! each class through its NAND2-equivalent cell area and a single
//! technology constant ([`PJ_PER_TOGGLE_GE`]) into energy — dynamic
//! switching energy is `α·C·V²·f`, and cell capacitance tracks cell
//! area, so class area is the right weight.
//!
//! The BOM is keyed by *string* class names so this crate stays
//! independent of `pacq-rtl` (which depends on us); the names match
//! `pacq_rtl::GATE_CLASSES` and the pairing is pinned by cross-crate
//! tests.

use pacq_error::{PacqError, PacqResult};

/// The gate classes the BOM prices, with NAND2-equivalent (GE) cell
/// areas. Mirrors the per-gate areas of the `pacq-rtl` netlist model:
/// an inverter is half a NAND2, two-input AND/OR are one, XOR ≈ 2.5,
/// and a 2:1 mux ≈ 2 (standard-cell relative areas).
pub const GATE_CLASS_AREAS_GE: [(&str, f64); 5] = [
    ("not", 0.5),
    ("and", 1.0),
    ("or", 1.0),
    ("xor", 2.5),
    ("mux", 2.0),
];

/// Switching energy per toggle of one gate-equivalent of cell area, in
/// pJ, at the paper's 32 nm / 400 MHz operating point.
///
/// Pinned so the baseline FP16 multiplier netlist, driven by the
/// reference stimulus (2048 ops of the INT4-representative stream,
/// seed `0x5EED`, ≈ 345.6 GE-weighted toggles/op), prices to the
/// analytic `GemmUnit::BaselineFp16Mul` figure of ≈ 0.9 pJ/op — one
/// anchoring constant, after which every other unit/precision
/// combination is a genuine prediction the `pacq audit --activity`
/// pass cross-checks.
pub const PJ_PER_TOGGLE_GE: f64 = 2.6e-3;

/// A per-gate-class energy bill of materials: pJ per toggle for each
/// priced class.
#[derive(Debug, Clone, PartialEq)]
pub struct ActivityBom {
    entries: Vec<(String, f64)>,
}

impl ActivityBom {
    /// The calibrated BOM: every class of [`GATE_CLASS_AREAS_GE`]
    /// priced at `area_ge × PJ_PER_TOGGLE_GE`.
    pub fn calibrated() -> Self {
        ActivityBom {
            entries: GATE_CLASS_AREAS_GE
                .iter()
                .map(|&(class, area)| (class.to_string(), area * PJ_PER_TOGGLE_GE))
                .collect(),
        }
    }

    /// Returns the BOM with every per-toggle energy multiplied by
    /// `scale` — the perturbation knob the tests use to smoke the
    /// audit mismatch path.
    ///
    /// # Errors
    ///
    /// Returns a typed [`PacqError`] unless `scale` is finite and
    /// positive.
    pub fn with_scale(mut self, scale: f64) -> PacqResult<Self> {
        if !scale.is_finite() || scale <= 0.0 {
            return Err(PacqError::invalid_input(
                "energy::activity",
                format!("BOM scale must be finite and positive (got {scale})"),
            ));
        }
        for (_, pj) in &mut self.entries {
            *pj *= scale;
        }
        Ok(self)
    }

    /// Returns the BOM with `class` removed — fault-injection helper
    /// for exercising the missing-class error path.
    pub fn without_class(mut self, class: &str) -> Self {
        self.entries.retain(|(c, _)| c != class);
        self
    }

    /// Energy per toggle for one gate class, in pJ.
    ///
    /// # Errors
    ///
    /// Returns a typed [`PacqError`] when the class is not priced by
    /// this BOM.
    pub fn energy_per_toggle_pj(&self, class: &str) -> PacqResult<f64> {
        self.entries
            .iter()
            .find(|(c, _)| c == class)
            .map(|&(_, pj)| pj)
            .ok_or_else(|| {
                PacqError::invalid_input(
                    "energy::activity",
                    format!("gate class `{class}` missing from activity BOM"),
                )
            })
    }

    /// Prices a toggle histogram: `Σ toggles(class) × pJ/toggle(class)`.
    ///
    /// # Errors
    ///
    /// Returns a typed [`PacqError`] when any histogram class is not
    /// priced by this BOM.
    pub fn price_pj(&self, histogram: &[(&str, u64)]) -> PacqResult<f64> {
        let mut total = 0.0;
        for &(class, toggles) in histogram {
            total += toggles as f64 * self.energy_per_toggle_pj(class)?;
        }
        Ok(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibrated_bom_prices_every_class() {
        let bom = ActivityBom::calibrated();
        for (class, area) in GATE_CLASS_AREAS_GE {
            let pj = bom.energy_per_toggle_pj(class).unwrap();
            assert!((pj - area * PJ_PER_TOGGLE_GE).abs() < 1e-18);
        }
    }

    #[test]
    fn missing_class_is_a_typed_error() {
        let bom = ActivityBom::calibrated().without_class("xor");
        let e = bom.energy_per_toggle_pj("xor").unwrap_err();
        let msg = e.to_string();
        assert!(msg.contains("gate class `xor` missing"), "{msg}");
        assert!(!msg.contains('\n'), "one-line invariant: {msg}");
        let e = bom.price_pj(&[("and", 3), ("xor", 1)]).unwrap_err();
        assert!(e.to_string().contains("xor"), "{e}");
    }

    #[test]
    fn pricing_is_linear_in_toggles_and_scale() {
        let bom = ActivityBom::calibrated();
        let hist = [
            ("not", 10u64),
            ("and", 20),
            ("or", 5),
            ("xor", 7),
            ("mux", 2),
        ];
        let once = bom.price_pj(&hist).unwrap();
        let doubled: Vec<(&str, u64)> = hist.iter().map(|&(c, t)| (c, 2 * t)).collect();
        assert!((bom.price_pj(&doubled).unwrap() - 2.0 * once).abs() < 1e-12);
        let scaled = ActivityBom::calibrated().with_scale(3.0).unwrap();
        assert!((scaled.price_pj(&hist).unwrap() - 3.0 * once).abs() < 1e-12);
    }

    #[test]
    fn bad_scales_are_typed_errors() {
        for scale in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let e = ActivityBom::calibrated().with_scale(scale).unwrap_err();
            assert!(e.to_string().contains("scale"), "{e}");
        }
    }

    #[test]
    fn empty_histogram_prices_to_zero() {
        assert_eq!(ActivityBom::calibrated().price_pj(&[]).unwrap(), 0.0);
    }
}
