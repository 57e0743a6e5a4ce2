//! Table I: configuration of PacQ and the baselines — regenerated from
//! the unit models so the printed inventory is guaranteed to match what
//! the simulator actually prices.

use pacq_bench::banner;
use pacq_energy::{Component, GemmUnit};
use pacq_simt::SmConfig;
use std::fmt::Write;

fn main() -> std::process::ExitCode {
    pacq_bench::exit(run())
}

fn run() -> pacq::PacqResult<String> {
    let metrics = pacq_bench::init("table1")?;
    let mut out = banner(
        "Table I",
        "configuration of PacQ and the baselines",
        "unit inventories and the Volta-like SM parameters",
    );

    let count = |unit: GemmUnit, c: Component| -> u32 {
        unit.bom()
            .iter()
            .filter(|e| e.component == c)
            .map(|e| e.count)
            .sum()
    };

    let _ = writeln!(
        out,
        "\nINT11 MUL (baseline):      {} INT16 adders",
        count(GemmUnit::BaselineInt11Mul, Component::Int16Adder)
    );
    let _ = writeln!(
        out,
        "Parallel INT11 MUL:        {} INT16 adders, {} INT6 adders",
        count(GemmUnit::ParallelInt11Mul, Component::Int16AdderParallel),
        count(GemmUnit::ParallelInt11Mul, Component::Int6Adder)
    );
    let _ = writeln!(out,
        "FP16 MUL (baseline):       1 INT11 MUL, {} INT5 adder, {} normalization unit, {} rounding unit",
        count(GemmUnit::BaselineFp16Mul, Component::Int5Adder),
        count(GemmUnit::BaselineFp16Mul, Component::NormalizationUnit),
        count(GemmUnit::BaselineFp16Mul, Component::RoundingUnit)
    );
    let _ = writeln!(out,
        "Parallel FP-INT-16 MUL:    1 parallel INT11 MUL, {} INT5 adder, {} normalization unit, {} rounding units",
        count(GemmUnit::ParallelFpIntMul, Component::Int5Adder),
        count(GemmUnit::ParallelFpIntMul, Component::NormalizationUnit),
        count(GemmUnit::ParallelFpIntMul, Component::RoundingUnit)
    );
    let _ = writeln!(
        out,
        "FP-16 DP-4 (baseline):     4 FP16 MUL, {} FP16 adders",
        count(GemmUnit::BASELINE_DP4, Component::Fp16Adder)
    );
    let _ = writeln!(
        out,
        "Parallel FP-INT-16 DP-4:   4 parallel FP-INT-16 MUL, {} FP16 adders, {} sum accumulator",
        count(GemmUnit::PARALLEL_DP4, Component::Fp16Adder),
        count(GemmUnit::PARALLEL_DP4, Component::SumAccumulator)
    );

    let cfg = SmConfig::volta_like();
    let _ = writeln!(
        out,
        "\nTensor Core:               4 DP-4 units (parallel for PacQ, baseline otherwise)"
    );
    let _ = writeln!(
        out,
        "Streaming Multiprocessor:  {} tensor cores, {}x{}-bit operand buffers,",
        cfg.tensor_cores, cfg.operand_buffers, cfg.operand_buffer_bits
    );
    let _ = writeln!(
        out,
        "                           {} KB register file, {} KB shared L1 cache",
        cfg.register_file_bytes / 1024,
        cfg.l1_bytes / 1024
    );
    let _ = writeln!(out, "clock: {} MHz (synthesis point)", cfg.clock_hz / 1e6);

    let _ = writeln!(out, "\n-- derived unit costs (calibrated model) --");
    let _ = writeln!(
        out,
        "{:<28} {:>16} {:>12}",
        "unit", "power (units)", "area (um^2)"
    );
    for unit in [
        GemmUnit::BaselineInt11Mul,
        GemmUnit::ParallelInt11Mul,
        GemmUnit::BaselineFp16Mul,
        GemmUnit::ParallelFpIntMul,
        GemmUnit::BASELINE_DP4,
        GemmUnit::PARALLEL_DP4,
        GemmUnit::BaselineTensorCore,
        GemmUnit::PacqTensorCore,
    ] {
        let _ = writeln!(
            out,
            "{:<28} {:>16.4} {:>12.0}",
            format!("{unit:?}"),
            unit.power_units(),
            unit.area_um2()
        );
    }
    metrics.finish(&mut out)?;
    Ok(out)
}
