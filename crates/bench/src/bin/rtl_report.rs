//! Extended experiment: gate-level inventory of the Table I multipliers.
//!
//! The paper reports synthesis results; this harness prints the actual
//! gate-level netlists' inventories and the cross-checks between the
//! RTL layer and the calibrated cost model.

use pacq_bench::banner;
use pacq_energy::GemmUnit;
use pacq_rtl::{Fp16MulCircuit, ParallelFpIntCircuit};
use std::fmt::Write;

fn main() -> std::process::ExitCode {
    pacq_bench::exit(run())
}

fn run() -> pacq::PacqResult<String> {
    let metrics = pacq_bench::init("rtl_report", "")?;
    let mut out = banner(
        "RTL report (extension)",
        "gate-level netlists of the Table I multipliers",
        "independent cross-check of the calibrated synthesis model",
    );

    let mut base = Fp16MulCircuit::build();
    let mut par = ParallelFpIntCircuit::build();

    let _ = writeln!(
        out,
        "\n{:<26} {:>12} {:>12} {:>10} {:>10} {:>10}",
        "unit", "gates", "area (GE)", "AND", "XOR", "MUX"
    );
    for (name, counts, area) in [
        (
            "FP16 MUL (baseline)",
            base.netlist.gate_counts(),
            base.netlist.area_ge(),
        ),
        (
            "Parallel FP-INT-16 MUL",
            par.netlist.gate_counts(),
            par.netlist.area_ge(),
        ),
    ] {
        let _ = writeln!(
            out,
            "{:<26} {:>12} {:>12.1} {:>10} {:>10} {:>10}",
            name,
            counts.total(),
            area,
            counts.and,
            counts.xor,
            counts.mux
        );
    }

    let rtl_ratio = par.netlist.area_ge() / base.netlist.area_ge();
    let model_ratio = GemmUnit::ParallelFpIntMul.area_um2() / GemmUnit::BaselineFp16Mul.area_um2();
    let _ = writeln!(out, "\narea ratio (parallel / baseline): RTL {rtl_ratio:.3} vs calibrated model {model_ratio:.3}");

    // Switching-activity study over a shared random operand stream.
    let mut x: u64 = 0x5EED;
    for _ in 0..2000 {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let a = (x & 0xFFFF) as u16;
        let w = ((x >> 16) & 0xFFFF) as u16;
        base.multiply(a, w);
        par.multiply(a, w);
    }
    let base_tpp = base.netlist.toggles_per_simulation();
    let par_tpp = par.netlist.toggles_per_simulation() / 4.0;
    let _ = writeln!(
        out,
        "\nswitching activity (toggles per produced FP16 product):"
    );
    let _ = writeln!(out, "  baseline FP16 MUL:       {base_tpp:>8.1}");
    let _ = writeln!(
        out,
        "  parallel FP-INT (INT4):  {par_tpp:>8.1}  ({:.2}x less)",
        base_tpp / par_tpp
    );
    let _ = writeln!(
        out,
        "\nreading: the parallel unit moves less logic per product (narrow 11x4"
    );
    let _ = writeln!(
        out,
        "lanes, shared sign/exponent), which is the physical root of Figure 8's"
    );
    let _ = writeln!(
        out,
        "throughput-per-watt advantage — reproduced here from gate-level toggles"
    );
    let _ = writeln!(out, "rather than the calibrated constants.");
    metrics.finish(&mut out)?;
    Ok(out)
}
