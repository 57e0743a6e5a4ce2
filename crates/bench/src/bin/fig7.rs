//! Figure 7: (a) normalized register-file accesses and (b) normalized
//! speedup — PacQ vs the hyper-asymmetric GEMM with weights packed
//! along k, on the `m16n16k16` workload.

use pacq::{Architecture, GemmShape, GroupShape, Workload};
use pacq_bench::{banner, pct, times};
use pacq_fp16::WeightPrecision;
use std::fmt::Write;

fn main() -> std::process::ExitCode {
    pacq_bench::exit(run())
}

fn run() -> pacq::PacqResult<String> {
    let metrics = pacq_bench::init("fig7")?;
    let mut out = banner(
        "Figure 7",
        "register-file accesses and speedup, PacQ vs P(B_x)_k (m16n16k16)",
        "(a) up to 54.3% fewer RF accesses; (b) average speedup 1.99x",
    );

    // k=16 here, so the (k-grouped) scales span the whole reduction.
    let runner = metrics.runner()?.with_group(GroupShape::along_k(16));
    let shape = GemmShape::M16N16K16;

    let _ = writeln!(
        out,
        "\n{:<8} {:<12} {:>14} {:>14} {:>12} {:>10}",
        "weights", "arch", "RF accesses", "normalized", "cycles", "speedup"
    );
    let mut reductions = Vec::new();
    let mut speedups = Vec::new();
    let points: Vec<(Architecture, Workload)> = [WeightPrecision::Int4, WeightPrecision::Int2]
        .iter()
        .flat_map(|&p| {
            let wl = Workload::new(shape, p);
            [(Architecture::PackedK, wl), (Architecture::Pacq, wl)]
        })
        .collect();
    let reports = runner.analyze_sweep(&points)?;
    for (i, precision) in [WeightPrecision::Int4, WeightPrecision::Int2]
        .into_iter()
        .enumerate()
    {
        let base = &reports[2 * i];
        let pacq = &reports[2 * i + 1];
        let base_rf = base.stats.rf.total_accesses();
        let pacq_rf = pacq.stats.rf.total_accesses();
        let speedup = base.stats.total_cycles as f64 / pacq.stats.total_cycles as f64;
        let _ = writeln!(
            out,
            "{:<8} {:<12} {:>14} {:>14.3} {:>12} {:>10}",
            precision.to_string(),
            format!("P(B_{})_k", precision.lanes()),
            base_rf,
            1.0,
            base.stats.total_cycles,
            times(1.0),
        );
        let _ = writeln!(
            out,
            "{:<8} {:<12} {:>14} {:>14.3} {:>12} {:>10}",
            "",
            "PacQ",
            pacq_rf,
            pacq_rf as f64 / base_rf as f64,
            pacq.stats.total_cycles,
            times(speedup),
        );
        reductions.push(1.0 - pacq_rf as f64 / base_rf as f64);
        speedups.push(speedup);
    }

    let _ = writeln!(
        out,
        "\n(a) RF access reduction: INT4 {}, INT2 {}   (paper: up to 54.3%)",
        pct(reductions[0]),
        pct(reductions[1])
    );
    let _ = writeln!(
        out,
        "(b) speedup: INT4 {}, INT2 {}, average {}   (paper: average 1.99x)",
        times(speedups[0]),
        times(speedups[1]),
        times(speedups.iter().sum::<f64>() / speedups.len() as f64)
    );
    metrics.finish(&mut out)?;
    Ok(out)
}
