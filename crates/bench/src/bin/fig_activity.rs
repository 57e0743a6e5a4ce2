//! Extended experiment: the activity-calibration table behind
//! `pacq audit --activity`.
//!
//! Simulates both Table I multiplier netlists over the deterministic
//! precision-representative operand stream, prices the per-gate-class
//! toggle histograms through the activity BOM, and tabulates the
//! activity-derived pJ/op against the analytic (paper-calibrated)
//! constants the simulator prices with — the cross-check the audit
//! subsystem enforces within its declared tolerance.

use pacq::activity::{calibrate, DEFAULT_OPS, DEFAULT_SEED, DEFAULT_TOLERANCE};
use pacq_bench::banner;
use pacq_energy::{ActivityBom, PJ_PER_TOGGLE_GE};
use std::fmt::Write;

fn main() -> std::process::ExitCode {
    pacq_bench::exit(run())
}

fn run() -> pacq::PacqResult<String> {
    let metrics = pacq_bench::init("fig_activity")?;
    let mut out = banner(
        "Activity calibration (extension)",
        "toggle-priced multiplier energy vs the calibrated constants",
        "Table I synthesis energy, cross-checked from gate-level activity",
    );

    let bom = ActivityBom::calibrated();
    let points = calibrate(&bom, DEFAULT_OPS, DEFAULT_SEED)?;

    let _ = writeln!(
        out,
        "\nstimulus: {DEFAULT_OPS} ops, seed {DEFAULT_SEED:#x}, \
{PJ_PER_TOGGLE_GE:.2e} pJ per GE-toggle"
    );
    let _ = writeln!(
        out,
        "\n{:<10} {:<5} {:>5} {:>6} {:>12} {:>12} {:>12} {:>8}",
        "unit", "prec", "lanes", "nodes", "toggles/op", "analytic pJ", "activity pJ", "rel"
    );
    for p in &points {
        let _ = writeln!(
            out,
            "{:<10} {:<5} {:>5} {:>6} {:>12.2} {:>12.4} {:>12.4} {:>+7.1}%",
            p.unit_token(),
            p.precision_token(),
            p.profile.lanes,
            p.profile.nodes,
            p.profile.logic_toggles_per_op(),
            p.analytic_pj_per_op,
            p.activity_pj_per_op,
            100.0 * p.rel_error()
        );
    }

    let _ = writeln!(out, "\nper-gate-class toggle histograms (whole run):");
    let _ = writeln!(
        out,
        "{:<10} {:<5} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "unit", "prec", "not", "and", "or", "xor", "mux"
    );
    for p in &points {
        let _ = write!(out, "{:<10} {:<5}", p.unit_token(), p.precision_token());
        for &(_, toggles) in &p.profile.toggles_by_class {
            let _ = write!(out, " {toggles:>10}");
        }
        let _ = writeln!(out);
    }

    let _ = writeln!(
        out,
        "\nreading: the baseline INT4 point anchors the pJ-per-GE-toggle constant
(sub-percent residual by construction); every other row is a genuine
prediction. The INT2 rows diverge structurally — the gate-level INT2
build duplicates the 4-lane array where the analytic model assumes one
shared unit — which is why `pacq audit --activity` defaults to the wide
±{DEFAULT_TOLERANCE} relative tolerance documented in DESIGN.md."
    );
    metrics.finish(&mut out)?;
    Ok(out)
}
