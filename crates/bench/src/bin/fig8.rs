//! Figure 8: normalized performance (throughput / watt) of the parallel
//! FP-INT-16 multiplier and DP-4 against the baseline FP16 designs, for
//! INT4 and INT2 weights. The DP-4 workload is `m2n4k4`.

use pacq_bench::{banner, times};
use pacq_energy::{calibration, GemmUnit};
use pacq_fp16::{BaselineDpUnit, ParallelDpUnit, WeightPrecision};
use std::fmt::Write;

fn main() -> std::process::ExitCode {
    pacq_bench::exit(run())
}

fn run() -> pacq::PacqResult<String> {
    let metrics = pacq_bench::init("fig8", "")?;
    let mut out = banner(
        "Figure 8",
        "throughput/watt of the parallel FP-INT units vs FP16 baselines",
        "MUL: 3.38x (INT4), 6.75x (INT2); DP-4: 11 cyc/8 outputs baseline vs 19 (35) cyc/32 (64) outputs",
    );

    let _ = writeln!(out, "\n-- multiplier level --");
    let _ = writeln!(
        out,
        "{:<26} {:>12} {:>14} {:>12}",
        "unit", "thr (/cyc)", "power (units)", "thr/watt"
    );
    let base_p = GemmUnit::BaselineFp16Mul.power_units();
    let _ = writeln!(
        out,
        "{:<26} {:>12} {:>14.4} {:>12}",
        "FP16 MUL (baseline)",
        1,
        base_p,
        times(1.0)
    );
    for precision in [WeightPrecision::Int4, WeightPrecision::Int2] {
        let gain = calibration::mul_throughput_per_watt_gain(precision);
        let _ = writeln!(
            out,
            "{:<26} {:>12} {:>14.4} {:>12}",
            format!("Parallel FP-INT ({precision})"),
            precision.lanes(),
            GemmUnit::ParallelFpIntMul.power_units(),
            times(gain)
        );
    }
    let _ = writeln!(
        out,
        "paper: 3.38x (INT4), 6.75x (INT2); measured above from the calibrated unit model"
    );

    let _ = writeln!(out, "\n-- DP-4 level (workload m2n4k4) --");
    let _ = writeln!(
        out,
        "{:<26} {:>10} {:>10} {:>14} {:>12}",
        "unit", "outputs", "cycles", "power (units)", "thr/watt"
    );
    let bdp = BaselineDpUnit::new(4)?;
    let base_cycles = bdp.cycles_for_outputs(8);
    let base_power = GemmUnit::BASELINE_DP4.power_units();
    let base_tpw = 8.0 / base_cycles as f64 / base_power;
    let _ = writeln!(
        out,
        "{:<26} {:>10} {:>10} {:>14.3} {:>12}",
        "FP-16 DP-4 (baseline)",
        8,
        base_cycles,
        base_power,
        times(1.0)
    );
    for precision in [WeightPrecision::Int4, WeightPrecision::Int2] {
        let pdp = ParallelDpUnit::new(4, 2, precision)?;
        // m2n4k4: 2 m rows × 4 packed word-columns = 8 batches, each
        // producing `lanes` outputs.
        let batches = 8;
        let outputs = batches * pdp.outputs_per_batch();
        let cycles = pdp.cycles_for_batches(batches);
        let power = GemmUnit::PARALLEL_DP4.power_units();
        let tpw = outputs as f64 / cycles as f64 / power;
        let _ = writeln!(
            out,
            "{:<26} {:>10} {:>10} {:>14.3} {:>12}",
            format!("Parallel DP-4 ({precision})"),
            outputs,
            cycles,
            power,
            times(tpw / base_tpw)
        );
    }
    let _ = writeln!(out,
        "paper cycle anchors: baseline 8 outputs in 11 cycles; parallel 32 in 19 (INT4), 64 in 35 (INT2)"
    );
    metrics.finish(&mut out)?;
    Ok(out)
}
