//! Activity-calibration driver: the bridge from gate-level toggle
//! measurement (`pacq-rtl`) through the per-gate-class energy BOM
//! (`pacq-energy`) to the analytic multiplier constants the rest of the
//! simulator prices with.
//!
//! `pacq audit --activity` runs [`calibrate`] over both multiplier
//! netlists at both weight precisions and cross-checks each
//! activity-derived pJ/op figure against its analytic counterpart
//! within a declared tolerance; [`mul_override`] turns the same
//! measurements into the [`MulEnergyOverride`] the `pacq-simt` energy
//! model accepts as an `activity_calibrated` source.

use pacq_energy::{ActivityBom, GemmUnit};
use pacq_error::PacqResult;
use pacq_fp16::WeightPrecision;
use pacq_rtl::{measure, ActivityProfile, MulKind};
use pacq_simt::MulEnergyOverride;

/// Operations per reference stimulus stream (the anchoring constant
/// `pacq_energy::PJ_PER_TOGGLE_GE` is pinned against this run length).
pub const DEFAULT_OPS: u64 = 2048;

/// Seed of the reference stimulus stream.
pub const DEFAULT_SEED: u64 = 0x5EED;

/// Default maximum relative error between analytic and activity-derived
/// multiplier energy before `pacq audit --activity` reports a mismatch.
///
/// Wide by design: the toggle proxy and the paper-calibrated constants
/// diverge structurally (the gate-level INT2 build duplicates the
/// 4-lane array where the analytic model assumes one shared unit, and
/// toggle counting carries no synthesis-level operand gating or
/// activity derating). The worst in-tree divergence is ≈ 2.9× on the
/// parallel INT2 point; 4.0 covers it with headroom while still
/// catching order-of-magnitude regressions in either model. See
/// DESIGN.md (activity calibration) for the full accounting.
pub const DEFAULT_TOLERANCE: f64 = 4.0;

/// One audited point: a multiplier netlist at a weight precision, with
/// its analytic and activity-derived energy figures.
#[derive(Debug, Clone, PartialEq)]
pub struct UnitCalibration {
    /// The toggle measurement this point was priced from.
    pub profile: ActivityProfile,
    /// The analytic model's energy per product, in pJ.
    pub analytic_pj_per_op: f64,
    /// The activity-derived energy per product, in pJ.
    pub activity_pj_per_op: f64,
    /// The activity-derived energy per fully-active cycle, in pJ.
    pub activity_pj_per_cycle: f64,
}

impl UnitCalibration {
    /// Signed relative error of the activity figure against the
    /// analytic one: `(activity − analytic) / analytic`.
    pub fn rel_error(&self) -> f64 {
        (self.activity_pj_per_op - self.analytic_pj_per_op) / self.analytic_pj_per_op
    }

    /// Stable unit token used in audit counters and manifests.
    pub fn unit_token(&self) -> &'static str {
        self.profile.kind.token()
    }

    /// Stable lowercase precision token (`int4` / `int2`).
    pub fn precision_token(&self) -> &'static str {
        self.profile.precision.token()
    }
}

/// The analytic unit a multiplier netlist reproduces.
pub fn analytic_unit(kind: MulKind) -> GemmUnit {
    match kind {
        MulKind::Baseline => GemmUnit::BaselineFp16Mul,
        MulKind::Parallel => GemmUnit::ParallelFpIntMul,
    }
}

/// Measures one multiplier netlist at one precision and prices it
/// through `bom`.
///
/// # Errors
///
/// Propagates typed errors from the netlist measurement (degenerate
/// stream) and the BOM pricing (gate class missing).
pub fn calibrate_unit(
    bom: &ActivityBom,
    kind: MulKind,
    precision: WeightPrecision,
    ops: u64,
    seed: u64,
) -> PacqResult<UnitCalibration> {
    let profile = measure(kind, precision, ops, seed)?;
    let run_pj = bom.price_pj(&profile.toggles_by_class)?;
    let activity_pj_per_cycle = run_pj / profile.transitions() as f64;
    let activity_pj_per_op = activity_pj_per_cycle / profile.lanes as f64;
    let unit = analytic_unit(kind);
    let analytic_pj_per_op = unit.energy_per_cycle_pj() / unit.products_per_cycle(Some(precision));
    Ok(UnitCalibration {
        profile,
        analytic_pj_per_op,
        activity_pj_per_op,
        activity_pj_per_cycle,
    })
}

/// Calibrates every audited point, in audit order: baseline INT4,
/// parallel INT4, baseline INT2, parallel INT2 — the order `pacq audit
/// --activity` scans when naming the first diverging unit.
///
/// # Errors
///
/// Propagates the first typed error from [`calibrate_unit`].
pub fn calibrate(bom: &ActivityBom, ops: u64, seed: u64) -> PacqResult<Vec<UnitCalibration>> {
    let mut points = Vec::with_capacity(4);
    for precision in [WeightPrecision::Int4, WeightPrecision::Int2] {
        for kind in MulKind::ALL {
            points.push(calibrate_unit(bom, kind, precision, ops, seed)?);
        }
    }
    Ok(points)
}

/// The activity-calibrated multiplier override for the `pacq-simt`
/// energy model, from the INT4 calibration points (the paper's primary
/// configuration — the DP units the simulator prices are built for
/// 4-lane words).
///
/// # Errors
///
/// Propagates typed errors from [`calibrate_unit`].
pub fn mul_override(bom: &ActivityBom, ops: u64, seed: u64) -> PacqResult<MulEnergyOverride> {
    let baseline = calibrate_unit(bom, MulKind::Baseline, WeightPrecision::Int4, ops, seed)?;
    let parallel = calibrate_unit(bom, MulKind::Parallel, WeightPrecision::Int4, ops, seed)?;
    Ok(MulEnergyOverride {
        baseline_pj_per_cycle: baseline.activity_pj_per_cycle,
        parallel_pj_per_cycle: parallel.activity_pj_per_cycle,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_calibration_is_within_the_default_tolerance() {
        let bom = ActivityBom::calibrated();
        let points = calibrate(&bom, DEFAULT_OPS, DEFAULT_SEED).unwrap();
        assert_eq!(points.len(), 4);
        for p in &points {
            assert!(
                p.rel_error().abs() <= DEFAULT_TOLERANCE,
                "{} {}: rel error {:.3} exceeds default tolerance",
                p.unit_token(),
                p.precision_token(),
                p.rel_error()
            );
        }
        // The anchoring point: baseline INT4 reproduces the analytic
        // 0.9 pJ/op within a percent (the constant is pinned there).
        let anchor = &points[0];
        assert_eq!(anchor.unit_token(), "baseline");
        assert_eq!(anchor.precision_token(), "int4");
        assert!(
            anchor.rel_error().abs() < 0.01,
            "anchor rel error {:.4}",
            anchor.rel_error()
        );
    }

    #[test]
    fn calibration_points_are_ordered_and_deterministic() {
        let bom = ActivityBom::calibrated();
        let a = calibrate(&bom, 64, DEFAULT_SEED).unwrap();
        let b = calibrate(&bom, 64, DEFAULT_SEED).unwrap();
        assert_eq!(a, b);
        let tokens: Vec<(&str, &str)> = a
            .iter()
            .map(|p| (p.unit_token(), p.precision_token()))
            .collect();
        assert_eq!(
            tokens,
            vec![
                ("baseline", "int4"),
                ("parallel", "int4"),
                ("baseline", "int2"),
                ("parallel", "int2"),
            ]
        );
    }

    #[test]
    fn override_carries_the_int4_per_cycle_figures() {
        let bom = ActivityBom::calibrated();
        let ov = mul_override(&bom, 128, DEFAULT_SEED).unwrap();
        let points = calibrate(&bom, 128, DEFAULT_SEED).unwrap();
        assert_eq!(ov.baseline_pj_per_cycle, points[0].activity_pj_per_cycle);
        assert_eq!(ov.parallel_pj_per_cycle, points[1].activity_pj_per_cycle);
        assert!(ov.baseline_pj_per_cycle > 0.0);
        assert!(ov.parallel_pj_per_cycle > ov.baseline_pj_per_cycle);
    }

    #[test]
    fn degenerate_streams_and_gutted_boms_are_typed_errors() {
        let bom = ActivityBom::calibrated();
        assert!(calibrate(&bom, 1, DEFAULT_SEED).is_err());
        let gutted = ActivityBom::calibrated().without_class("xor");
        let e = calibrate(&gutted, 16, DEFAULT_SEED).unwrap_err();
        assert!(e.to_string().contains("missing from activity BOM"), "{e}");
    }
}
