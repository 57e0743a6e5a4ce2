//! Stationarity-class comparison: the input-stationary dataflow vs the
//! weight-stationary flows (standard dequant, `P(B_x)_k`) and the
//! output-stationary PacQ datapath, on Llama2-7B layer shapes.
//!
//! Where fig10 shows the headline PacQ-vs-baselines EDP claim, this
//! figure isolates *what stationarity alone buys*: input-stationary
//! holds the activation tile in the tensor-core operand buffers across
//! the n loop (ending the `P(B_x)_k` A-refetch pathology) but keeps the
//! baseline sequential-weight datapath — so the gap between the `is`
//! and `pacq` columns is the parallel FP-INT multiplier and the
//! n-packed streaming, not tile movement.

use pacq::{Architecture, Comparison, GemmShape, Workload};
use pacq_bench::{banner, pct};
use pacq_fp16::WeightPrecision;
use std::fmt::Write;

fn main() -> std::process::ExitCode {
    pacq_bench::exit(run())
}

/// The four stationarity points, in pipeline order: two
/// weight-stationary flows, the input-stationary refactor, then the
/// output-stationary PacQ machine.
const ARCHS: [Architecture; 4] = Architecture::ALL;

fn run() -> pacq::PacqResult<String> {
    let metrics = pacq_bench::init("fig_is", pacq_bench::MACHINE_FLAGS)?;
    let mut out = banner(
        "Dataflow stationarity",
        "normalized EDP: ws (std, P(B_x)_k) vs is vs os/PacQ (Llama2-7B shapes)",
        "input-stationarity ends the A-refetch pathology; PacQ still needs the packed datapath",
    );

    let runner = metrics.runner()?;
    let shapes = [
        GemmShape::new(16, 4096, 4096),  // attention projection
        GemmShape::new(16, 11008, 4096), // FFN up projection
        GemmShape::new(256, 4096, 4096), // prefill-heavy batch
    ];

    let _ = writeln!(
        out,
        "\n{:<20} {:<8} {:>10} {:>10} {:>10} {:>10} {:>14}",
        "workload", "weights", "std", "P(B_x)_k", "is", "PacQ", "is vs P(B_x)_k"
    );
    let points: Vec<(Architecture, Workload)> = shapes
        .iter()
        .flat_map(|&shape| {
            [WeightPrecision::Int4, WeightPrecision::Int2]
                .into_iter()
                .flat_map(move |p| {
                    let wl = Workload::new(shape, p);
                    ARCHS.map(|arch| (arch, wl))
                })
        })
        .collect();
    let mut reports = runner.analyze_sweep(&points)?.into_iter();
    let mut best = 0f64;
    let mut best_name = String::new();
    for shape in shapes {
        for precision in [WeightPrecision::Int4, WeightPrecision::Int2] {
            let wl = Workload::new(shape, precision);
            let cmp = Comparison::new(
                ARCHS
                    .iter()
                    .map(|_| reports.next().expect("report"))
                    .collect(),
            );
            let edp = cmp.normalized_edp();
            // How much of the packed-k flow's EDP the input-stationary
            // refactor claws back, before any datapath change.
            let recovered = 1.0 - edp[2] / edp[1];
            if recovered > best {
                best = recovered;
                best_name = wl.to_string();
            }
            let _ = writeln!(
                out,
                "{:<20} {:<8} {:>10.3} {:>10.3} {:>10.3} {:>10.3} {:>14}",
                shape.to_string(),
                precision.to_string(),
                edp[0],
                edp[1],
                edp[2],
                edp[3],
                pct(recovered)
            );
        }
    }
    let _ = writeln!(
        out,
        "\nbest is-over-P(B_x)_k EDP recovery: {} at {}   (tile movement alone; \
         the rest of the PacQ column is the packed datapath)",
        pct(best),
        best_name
    );
    metrics.finish(&mut out)?;
    Ok(out)
}
