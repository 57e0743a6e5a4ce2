//! Figure 9: power breakdown of the proposed units, split into reused
//! (purple) and newly added (white) components.

use pacq_bench::{banner, pct};
use pacq_energy::{Figure9, PowerBreakdown, Provenance};
use std::fmt::Write;

fn main() -> std::process::ExitCode {
    pacq_bench::exit(run())
}

fn run() -> pacq::PacqResult<String> {
    let metrics = pacq_bench::init("fig9", "")?;
    let mut out = banner(
        "Figure 9",
        "power breakdown of the parallel units (reused vs new)",
        "~75% reuse (INT11 MUL), ~73% (FP-INT MUL), ~60% (DP-4), average 69%",
    );

    let fig = Figure9::compute();
    for (name, b) in [
        ("Parallel INT-11 MUL", &fig.parallel_int11),
        ("Parallel FP-INT-16 MUL", &fig.parallel_fp_int),
        ("Parallel FP-INT-16 DP-4", &fig.parallel_dp4),
    ] {
        print_breakdown(&mut out, name, b);
    }
    let _ = writeln!(
        out,
        "\naverage reuse ratio: {}   (paper: 69%)",
        pct(fig.average_reuse())
    );
    metrics.finish(&mut out)?;
    Ok(out)
}

fn print_breakdown(out: &mut String, name: &str, b: &PowerBreakdown) {
    let _ = writeln!(out, "\n-- {name} --");
    let _ = writeln!(
        out,
        "{:<38} {:>6} {:>8} {:>10} {:>9}",
        "component", "count", "prov", "power", "share"
    );
    for s in b.slices() {
        let _ = writeln!(
            out,
            "{:<38} {:>6} {:>8} {:>10.4} {:>9}",
            s.component.to_string(),
            s.count,
            if s.provenance == Provenance::Reused {
                "reused"
            } else {
                "new"
            },
            s.power_units,
            pct(s.fraction)
        );
    }
    let _ = writeln!(
        out,
        "{:<38} {:>6} {:>8} {:>10.4} {:>9}",
        "TOTAL",
        "",
        "",
        b.total_units(),
        pct(1.0)
    );
    let _ = writeln!(out, "reused fraction: {}", pct(b.reused_fraction()));
}
