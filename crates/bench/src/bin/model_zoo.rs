//! Extended experiment: full-model sweep — every catalogued LLM's
//! decoder-block GEMMs through the three architectures, at batch 16
//! (Figure 10 generalized beyond Llama2-7B).

use pacq::llama::{analyze_block, Model};
use pacq::Architecture;
use pacq_bench::{banner, pct, times};
use pacq_fp16::WeightPrecision;
use std::fmt::Write;

fn main() -> std::process::ExitCode {
    pacq_bench::exit(run())
}

fn run() -> pacq::PacqResult<String> {
    let metrics = pacq_bench::init("model_zoo")?;
    let mut out = banner(
        "Model zoo (extension)",
        "per-block totals across models (batch 16)",
        "Figure 10 generalized: PacQ's EDP win holds across model scales",
    );

    let runner = metrics.runner()?;
    let _ = writeln!(
        out,
        "\n{:<12} {:<8} {:>14} {:>14} {:>14} {:>12} {:>14}",
        "model", "weights", "std cycles", "P(B)k cycles", "PacQ cycles", "speedup", "EDP reduction"
    );
    let arches = [
        Architecture::StandardDequant,
        Architecture::PackedK,
        Architecture::Pacq,
    ];
    for model in Model::ALL {
        for precision in [WeightPrecision::Int4, WeightPrecision::Int2] {
            let mut cycles = [0u64; 3];
            let mut edp = [0f64; 3];
            // One parallel sweep per block: layers × architectures.
            for (_, reports) in analyze_block(&runner, model, 16, precision, &arches)? {
                for (i, r) in reports.iter().enumerate() {
                    cycles[i] += r.stats.total_cycles;
                    edp[i] += r.edp_pj_s;
                }
            }
            let _ = writeln!(
                out,
                "{:<12} {:<8} {:>14} {:>14} {:>14} {:>12} {:>14}",
                model.name(),
                precision.to_string(),
                cycles[0],
                cycles[1],
                cycles[2],
                times(cycles[0] as f64 / cycles[2] as f64),
                pct(1.0 - edp[2] / edp[0]),
            );
        }
    }
    let _ = writeln!(
        out,
        "\nweight storage at INT4 (GEMM weights only, packed incl. nothing else):"
    );
    for model in Model::ALL {
        let fp16_gb = model.gemm_weights() as f64 * 2.0 / 1e9;
        let int4_gb = model.gemm_weights() as f64 * 0.5 / 1e9;
        let _ = writeln!(
            out,
            "  {:<12} fp16 {:>7.1} GB -> int4 {:>6.1} GB",
            model.name(),
            fp16_gb,
            int4_gb
        );
    }
    let _ = writeln!(
        out,
        "(paper quotes Llama2-70B: 131.6 GB fp16 vs 35.8 GB int4 incl. embeddings)"
    );
    metrics.finish(&mut out)?;
    Ok(out)
}
