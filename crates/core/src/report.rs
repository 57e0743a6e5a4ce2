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
