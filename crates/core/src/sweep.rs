//! The `pacq sweep --param grid|batch|dup|width` forms: fixed presets of
//! the dse axes ([`DseAxes`]), each run through the one grid engine
//! ([`crate::dse::run_dse`]). Only the grid form is sharded and
//! resumable; the others pin one layer point and vary one knob.

use crate::dse::DseAxes;
use pacq_error::{PacqError, PacqResult};
use pacq_fp16::WeightPrecision;
use pacq_quant::GroupShape;
use pacq_simt::Architecture;

/// One `pacq sweep --param` form.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepForm {
    /// The sharded, resumable batch × architecture × precision grid.
    Grid,
    /// Every batch size, std vs PacQ, at one precision.
    Batch,
    /// PacQ at one layer point over adder-tree duplications {1, 2, 4}.
    Dup,
    /// PacQ and `P(B_x)_k` at one layer point over DP widths {4, 8, 16}.
    Width,
}

impl SweepForm {
    /// Parses a bare `--param` name.
    ///
    /// # Errors
    ///
    /// Returns [`PacqError::Usage`] for any other name.
    pub fn parse(name: &str) -> PacqResult<SweepForm> {
        match name {
            "grid" => Ok(SweepForm::Grid),
            "batch" => Ok(SweepForm::Batch),
            "dup" => Ok(SweepForm::Dup),
            "width" => Ok(SweepForm::Width),
            other => Err(PacqError::usage(format!(
                "unknown sweep parameter `{other}`"
            ))),
        }
    }

    /// The flags this form honours; any other flag would be ignored, so
    /// the CLI rejects it.
    pub fn flags(self) -> &'static str {
        match self {
            SweepForm::Grid => "--shape --param --group --dup --width --shard --checkpoint",
            SweepForm::Batch => "--shape --param --precision --group --dup --width",
            SweepForm::Dup => "--shape --param --precision --group --width",
            SweepForm::Width => "--shape --param --precision --group --dup",
        }
    }

    /// The form's axes over a base machine's width/dup and group
    /// geometry; `m` and `precision` pin the single-point forms (the
    /// grid form ignores both).
    pub fn axes(
        self,
        base_width: usize,
        base_dup: usize,
        group: GroupShape,
        m: usize,
        precision: WeightPrecision,
    ) -> DseAxes {
        let grid = DseAxes::defaults(base_width, base_dup, group);
        let precision = vec![precision];
        match self {
            SweepForm::Grid => grid,
            SweepForm::Batch => DseAxes {
                arch: vec![Architecture::StandardDequant, Architecture::Pacq],
                precision,
                ..grid
            },
            SweepForm::Dup => DseAxes {
                batch: vec![m],
                arch: vec![Architecture::Pacq],
                precision,
                dup: vec![1, 2, 4],
                ..grid
            },
            SweepForm::Width => DseAxes {
                batch: vec![m],
                arch: vec![Architecture::Pacq, Architecture::PackedK],
                precision,
                width: vec![4, 8, 16],
                ..grid
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dse::{run_dse, DseJob, DsePlan};
    use crate::runner::GemmRunner;
    use pacq_cache::{Shard, SweepCheckpoint};

    /// The `sweep --param grid` plan over the builtin machine.
    fn grid_plan(n: usize, k: usize) -> DsePlan {
        let axes = SweepForm::Grid.axes(4, 2, GroupShape::G128, 16, WeightPrecision::Int4);
        DsePlan::enumerate(&axes, n, k)
    }

    #[test]
    fn shards_partition_and_reunite_the_grid() {
        let plan = grid_plan(256, 256);
        let runner = GemmRunner::new();
        let full = run_dse(&runner, &plan, Shard::FULL, None).unwrap();
        assert_eq!(full.tally.executed, plan.jobs().len());

        let n = 3;
        let mut union: Vec<String> = Vec::new();
        for i in 1..=n {
            let shard = Shard { index: i, count: n };
            let out = run_dse(&runner, &plan, shard, None).unwrap();
            assert_eq!(out.tally.selected, out.tally.executed);
            union.extend(out.rows.iter().map(|r| r.job.id()));
        }
        let mut expected: Vec<String> = plan.jobs().iter().map(DseJob::id).collect();
        union.sort();
        expected.sort();
        assert_eq!(union, expected, "shards must union to the full grid");
    }

    #[test]
    fn checkpoint_resume_skips_completed_jobs() {
        let path =
            std::env::temp_dir().join(format!("pacq-sweep-resume-{}.ckpt", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let plan = grid_plan(256, 256);
        let runner = GemmRunner::new();

        let first = {
            let ckpt = SweepCheckpoint::open(&path, &plan.binding_digest(&runner)).unwrap();
            run_dse(&runner, &plan, Shard::FULL, Some(&ckpt)).unwrap()
        };
        assert_eq!(first.tally.executed, plan.jobs().len());

        let ckpt = SweepCheckpoint::open(&path, &plan.binding_digest(&runner)).unwrap();
        let second = run_dse(&runner, &plan, Shard::FULL, Some(&ckpt)).unwrap();
        assert_eq!(second.tally.executed, 0);
        assert_eq!(second.tally.skipped, plan.jobs().len());
        assert!(second.rows.iter().all(|r| r.report.is_none()));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn checkpointed_rows_rehydrate_from_an_attached_cache() {
        use std::sync::Arc;
        let dir = std::env::temp_dir().join(format!("pacq-sweep-rehydrate-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path =
            std::env::temp_dir().join(format!("pacq-sweep-rehydrate-{}.ckpt", std::process::id()));
        let _ = std::fs::remove_file(&path);

        let plan = grid_plan(256, 256);
        let cache = Arc::new(pacq_cache::ReportCache::open(&dir).unwrap());
        let runner = GemmRunner::new().with_cache(Arc::clone(&cache));
        let first = {
            let ckpt = SweepCheckpoint::open(&path, &plan.binding_digest(&runner)).unwrap();
            run_dse(&runner, &plan, Shard::FULL, Some(&ckpt)).unwrap()
        };
        let ckpt = SweepCheckpoint::open(&path, &plan.binding_digest(&runner)).unwrap();
        let second = run_dse(&runner, &plan, Shard::FULL, Some(&ckpt)).unwrap();
        assert_eq!(second.tally.executed, 0);
        assert_eq!(second.tally.skipped, plan.jobs().len());
        for (f, s) in first.rows.iter().zip(&second.rows) {
            let fresh = f.report.as_ref().unwrap();
            let rehydrated = s.report.as_ref().expect("skipped row rehydrates");
            assert_eq!(fresh.edp_pj_s.to_bits(), rehydrated.edp_pj_s.to_bits());
        }
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_binding_covers_runner_provenance() {
        // The checkpoint-binding regression: a checkpoint written under
        // one (grid × machine × template) must refuse to
        // resume under any other, with a typed error — not silently
        // skip jobs priced by a different machine.
        let path =
            std::env::temp_dir().join(format!("pacq-sweep-binding-{}.ckpt", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let plan = grid_plan(256, 256);
        let runner = GemmRunner::new();
        drop(SweepCheckpoint::open(&path, &plan.binding_digest(&runner)).unwrap());

        let variants = [
            GemmRunner::new().with_template_digest("deadbeef"),
            GemmRunner::new().with_config(pacq_simt::SmConfig {
                adder_tree_duplication: 4,
                ..pacq_simt::SmConfig::volta_like()
            }),
        ];
        for (i, other) in variants.iter().enumerate() {
            let digest = plan.binding_digest(other);
            assert_ne!(digest, plan.binding_digest(&runner), "variant {i}");
            let err = SweepCheckpoint::open(&path, &digest).unwrap_err();
            assert_eq!(err.exit_code(), 4, "variant {i}: {err}");
            assert!(err.to_string().contains("checkpoint"), "variant {i}: {err}");
        }

        // And a different grid over the same runner also refuses.
        let other_grid = grid_plan(512, 512);
        assert!(SweepCheckpoint::open(&path, &other_grid.binding_digest(&runner)).is_err());
        let _ = std::fs::remove_file(&path);
    }
}
