//! Figure 11: ablation on the adder-tree duplication level of the
//! parallel FP-INT DP-4 (throughput / watt on `m16n16k16`).

use pacq::{Architecture, DseJob, GemmShape, GroupShape, Workload};
use pacq_bench::{banner, times};
use pacq_energy::GemmUnit;
use pacq_fp16::WeightPrecision;
use std::fmt::Write;

fn main() -> std::process::ExitCode {
    pacq_bench::exit(run())
}

fn run() -> pacq::PacqResult<String> {
    let metrics = pacq_bench::init("fig11", pacq_bench::MACHINE_FLAGS)?;
    let mut out = banner(
        "Figure 11",
        "adder-tree duplication ablation (PacQ DP-4, m16n16k16)",
        "dup 2 gives 1.33x (1.38x) over dup 1 for INT4 (INT2); dup 4 only 1.11x (1.18x) over dup 2",
    );

    let machine = metrics.runner()?;
    let shape = GemmShape::M16N16K16;
    for precision in [WeightPrecision::Int4, WeightPrecision::Int2] {
        let _ = writeln!(out, "\n-- {precision} weights --");
        let _ = writeln!(
            out,
            "{:<13} {:>10} {:>16} {:>14} {:>12}",
            "duplication", "cycles", "power (units)", "thr/watt", "vs previous"
        );
        let mut prev: Option<f64> = None;
        let mut first: Option<f64> = None;
        for dup in [1usize, 2, 4] {
            let point = DseJob {
                arch: Architecture::Pacq,
                workload: Workload::new(shape, precision),
                width: machine.config().dp_width,
                dup,
                group: GroupShape::along_k(16),
            };
            let r = point.runner(&machine).analyze(point.arch, point.workload)?;
            let power = GemmUnit::ParallelDp {
                width: 4,
                duplication: dup,
            }
            .power_units();
            let tpw = shape.macs() as f64 / r.stats.total_cycles as f64 / power;
            let base = *first.get_or_insert(tpw);
            let step = prev.map_or(1.0, |p| tpw / p);
            let _ = writeln!(
                out,
                "{:<13} {:>10} {:>16.3} {:>13.2}x {:>12}",
                dup,
                r.stats.total_cycles,
                power,
                tpw / base,
                times(step)
            );
            prev = Some(tpw);
        }
    }
    let _ = writeln!(
        out,
        "\nshape check: duplication 2 is the knee — the dup-4 step gain is \
         much smaller than the dup-2 step gain (paper: 1.33/1.38 then 1.11/1.18)."
    );
    metrics.finish(&mut out)?;
    Ok(out)
}
