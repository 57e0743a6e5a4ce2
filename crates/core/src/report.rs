//! Reports produced by the GEMM runner and their side-by-side
//! comparison.
//!
//! The report type, [`GemmReport`], is defined once in `pacq_cache`,
//! next to the lossless `pacq-cache/v1` codec that the disk store, the
//! hot tier and `pacq serve` replies share; it is re-exported here.

pub use pacq_cache::GemmReport;

/// A side-by-side comparison of several architecture reports on the same
/// workload, normalized to the first entry.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    reports: Vec<GemmReport>,
}

impl Comparison {
    /// Builds a comparison.
    ///
    /// # Panics
    ///
    /// Panics if `reports` is empty or the workloads differ.
    pub fn new(reports: Vec<GemmReport>) -> Self {
        assert!(!reports.is_empty(), "comparison needs at least one report");
        let wl = reports[0].workload;
        assert!(
            reports.iter().all(|r| r.workload == wl),
            "comparison requires identical workloads"
        );
        Comparison { reports }
    }

    /// The underlying reports (baseline first).
    pub fn reports(&self) -> &[GemmReport] {
        &self.reports
    }

    /// Normalized EDP of every report (baseline = 1.0).
    pub fn normalized_edp(&self) -> Vec<f64> {
        self.reports
            .iter()
            .map(|r| r.edp_normalized_to(&self.reports[0]))
            .collect()
    }

    /// Normalized speedup of every report over the baseline.
    pub fn normalized_speedup(&self) -> Vec<f64> {
        self.reports
            .iter()
            .map(|r| r.speedup_over(&self.reports[0]))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::GemmRunner;
    use pacq_fp16::WeightPrecision;
    use pacq_simt::{Architecture, GemmShape, Workload};

    fn reports() -> Vec<GemmReport> {
        let runner = GemmRunner::new();
        let wl = Workload::new(GemmShape::M16N16K16, WeightPrecision::Int4);
        vec![
            runner.analyze(Architecture::PackedK, wl).unwrap(),
            runner.analyze(Architecture::Pacq, wl).unwrap(),
        ]
    }

    #[test]
    fn report_helpers_at_the_largest_shapes_do_not_wrap() {
        // The helpers' one u64 sum, the register-file access count, is
        // `rf.total_bits() / 16` (every access moves 16 bits), so it fits
        // wherever the bits do; the other helpers work in f64. Each is
        // checked against u128 or f64 arithmetic at the three edge
        // shapes.
        let runner = GemmRunner::new();
        let edge = (1usize << 51) - 16;
        for (m, n, k) in [(edge, 16, 16), (16, 16, edge), (16, edge, 16)] {
            let shape = GemmShape::try_new(m, n, k).unwrap();
            for arch in Architecture::ALL {
                for precision in WeightPrecision::ALL {
                    let case = format!("{arch:?} {precision:?} {shape:?}");
                    let one = runner
                        .analyze(arch, Workload::new(GemmShape::M16N16K16, precision))
                        .unwrap();
                    let big = runner
                        .analyze(arch, Workload::new(shape, precision))
                        .unwrap();
                    big.check_invariants().unwrap();

                    let rf = big.stats.rf;
                    let accesses: u128 = [rf.a_reads, rf.b_reads, rf.c_reads, rf.c_writes]
                        .map(u128::from)
                        .iter()
                        .sum();
                    assert_eq!(u128::from(rf.total_accesses()), accesses, "{case}");
                    assert_eq!(accesses * 16, u128::from(rf.total_bits()), "{case}");
                    let doc = big.metrics_json();
                    let num = |path: [&str; 2]| {
                        doc.get(path[0])
                            .and_then(|v| v.get(path[1]))
                            .and_then(pacq_trace::Json::as_num)
                    };
                    assert_eq!(num(["rf", "total_accesses"]), Some(accesses as f64));
                    assert_eq!(num(["shape", "m"]), Some(m as f64), "{case}");
                    assert_eq!(num(["shape", "k"]), Some(k as f64), "{case}");

                    let e = big.energy;
                    let parts = [e.tc_pj, e.rf_pj, e.l1_pj, e.dram_pj, e.buffer_pj];
                    let total = parts.iter().sum::<f64>() + e.general_pj;
                    assert!((big.total_energy_pj() - total).abs() <= 1e-12 * total);
                    let cycles = big.stats.total_cycles as f64 / one.stats.total_cycles as f64;
                    assert_eq!(one.speedup_over(&big), cycles, "{case}");
                    assert!(cycles > 1e13, "{case}: {cycles}");
                    assert!(big.edp_normalized_to(&one) > cycles, "{case}");
                }
            }
        }
    }

    #[test]
    fn normalization_is_relative_to_first() {
        let cmp = Comparison::new(reports());
        let edp = cmp.normalized_edp();
        assert_eq!(edp[0], 1.0);
        assert!(edp[1] < 1.0, "PacQ EDP should improve: {}", edp[1]);
        let speed = cmp.normalized_speedup();
        assert_eq!(speed[0], 1.0);
        assert!(speed[1] > 1.5);
    }

    #[test]
    #[should_panic(expected = "identical workloads")]
    fn mismatched_workloads_rejected() {
        let runner = GemmRunner::new();
        let a = runner
            .analyze(
                Architecture::Pacq,
                Workload::new(GemmShape::M16N16K16, WeightPrecision::Int4),
            )
            .unwrap();
        let b = runner
            .analyze(
                Architecture::Pacq,
                Workload::new(GemmShape::M16N16K16, WeightPrecision::Int2),
            )
            .unwrap();
        Comparison::new(vec![a, b]);
    }

    #[test]
    #[should_panic(expected = "at least one report")]
    fn empty_comparison_rejected() {
        Comparison::new(vec![]);
    }
}
