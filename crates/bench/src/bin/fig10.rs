//! Figure 10: normalized energy-delay product of PacQ vs the standard
//! dequantization-based GEMM and the `P(B_x)_k` hyper-asymmetric flow,
//! on Llama2-7B layer shapes at batch 16.

use pacq::{Architecture, Comparison, GemmShape, Workload};
use pacq_bench::{banner, pct};
use pacq_fp16::WeightPrecision;
use std::fmt::Write;

fn main() -> std::process::ExitCode {
    pacq_bench::exit(run())
}

fn run() -> pacq::PacqResult<String> {
    let metrics = pacq_bench::init("fig10")?;
    let mut out = banner(
        "Figure 10",
        "normalized EDP: Standard vs P(B_x)_k vs PacQ (Llama2-7B shapes, batch 16)",
        "up to 81.4% EDP reduction at m16n4096k4096",
    );

    let runner = metrics.runner()?;
    let shapes = [
        GemmShape::new(16, 4096, 4096), // attention projection / paper headline
        GemmShape::new(16, 11008, 4096), // FFN up projection
        GemmShape::new(16, 4096, 11008), // FFN down projection
        GemmShape::new(16, 12288, 4096), // fused QKV
    ];

    let _ = writeln!(
        out,
        "\n{:<20} {:<8} {:>12} {:>12} {:>12} {:>14}",
        "workload", "weights", "std", "P(B_x)_k", "PacQ", "PacQ reduction"
    );
    let mut best = 0f64;
    let mut best_name = String::new();
    // All shape × precision × architecture points fan out at once; the
    // ordered sweep result is then consumed three reports at a time.
    let points: Vec<(Architecture, Workload)> = shapes
        .iter()
        .flat_map(|&shape| {
            [WeightPrecision::Int4, WeightPrecision::Int2]
                .into_iter()
                .flat_map(move |p| {
                    let wl = Workload::new(shape, p);
                    [
                        (Architecture::StandardDequant, wl),
                        (Architecture::PackedK, wl),
                        (Architecture::Pacq, wl),
                    ]
                })
        })
        .collect();
    let mut reports = runner.analyze_sweep(&points)?.into_iter();
    for shape in shapes {
        for precision in [WeightPrecision::Int4, WeightPrecision::Int2] {
            let wl = Workload::new(shape, precision);
            let cmp = Comparison::new(vec![
                reports.next().expect("report"),
                reports.next().expect("report"),
                reports.next().expect("report"),
            ]);
            let edp = cmp.normalized_edp();
            let reduction = 1.0 - edp[2];
            if reduction > best {
                best = reduction;
                best_name = wl.to_string();
            }
            let _ = writeln!(
                out,
                "{:<20} {:<8} {:>12.3} {:>12.3} {:>12.3} {:>14}",
                shape.to_string(),
                precision.to_string(),
                edp[0],
                edp[1],
                edp[2],
                pct(reduction)
            );
        }
    }
    let _ = writeln!(
        out,
        "\nbest PacQ EDP reduction: {} at {}   (paper: up to 81.4% at m16n4096k4096)",
        pct(best),
        best_name
    );
    metrics.finish(&mut out)?;
    Ok(out)
}
