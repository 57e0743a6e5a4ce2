//! The one grid engine, behind `pacq dse` and every `pacq sweep` form.
//!
//! A grid is the product of the search axes in [`DseAxes`]: batch
//! sizes, dataflows (architectures), weight precisions, DP widths,
//! adder-tree duplications and group geometries, all over a machine
//! described by an architecture template (or the builtin Volta-like
//! configuration). `pacq dse` names axes with repeated
//! `--param name=v1,v2,...` flags (see [`crate::params`]); every axis
//! the user does not name keeps its default, the `sweep --param grid`
//! batch × architecture × precision product. Each `pacq sweep --param`
//! form is a fixed preset of the same axes with its own table.
//!
//! Three orthogonal mechanisms make big grids cheap to run and safe to
//! interrupt:
//!
//! - **sharding** ([`Shard`], `--shard i/N`): each invocation owns a
//!   residue class of job indices, so N machines (or N CI lanes) split
//!   one grid with no coordination beyond the flag;
//! - **checkpointing** ([`SweepCheckpoint`], `--checkpoint FILE`): an
//!   append-only record of completed job ids, bound to the (grid ×
//!   machine × template) digest, so a killed run resumes where it
//!   stopped;
//! - **result caching** ([`pacq_cache::ReportCache`], `--cache DIR`,
//!   attached to the runner): completed points are memoized
//!   content-addressed, so even a checkpoint-less re-run pays only
//!   lookups, and checkpoint-resumed rows rehydrate their reports.
//!
//! All three compose with the rayon worker pool: selection and
//! skip-filtering happen up front, execution fans out in parallel, and
//! rows come back in grid order regardless of completion order.

use rayon::prelude::*;

use crate::params::ParamSpec;
use crate::report::GemmReport;
use crate::runner::GemmRunner;
use pacq_cache::{grid_digest, Shard, SweepCheckpoint};
use pacq_error::{PacqError, PacqResult};
use pacq_fp16::WeightPrecision;
use pacq_quant::GroupShape;
use pacq_simt::{Architecture, GemmShape, Workload};

fn err(msg: impl Into<String>) -> PacqError {
    PacqError::usage(msg)
}

/// The search axes of one dse invocation. Axis order inside each list
/// is significant (it defines job enumeration order and therefore row
/// order, shard classes and the checkpoint binding).
#[derive(Debug, Clone, PartialEq)]
pub struct DseAxes {
    /// Batch sizes (`m` extents).
    pub batch: Vec<usize>,
    /// Architectures (dataflows) to simulate.
    pub arch: Vec<Architecture>,
    /// Weight precisions.
    pub precision: Vec<WeightPrecision>,
    /// DP widths.
    pub width: Vec<usize>,
    /// Adder-tree duplications.
    pub dup: Vec<usize>,
    /// Quantization group geometries.
    pub group: Vec<GroupShape>,
}

impl DseAxes {
    /// The default axes over a base machine: the `sweep --param grid`
    /// batch × architecture × precision product, with width / dup /
    /// group pinned to the machine's own values.
    pub fn defaults(base_width: usize, base_dup: usize, base_group: GroupShape) -> DseAxes {
        DseAxes {
            batch: vec![16, 32, 64, 128, 256, 512],
            arch: vec![
                Architecture::StandardDequant,
                Architecture::PackedK,
                Architecture::Pacq,
            ],
            precision: vec![WeightPrecision::Int4, WeightPrecision::Int2],
            width: vec![base_width],
            dup: vec![base_dup],
            group: vec![base_group],
        }
    }

    /// Applies validated `--param name=v1,v2` specs onto the defaults.
    ///
    /// # Errors
    ///
    /// Returns [`PacqError::Usage`] for an unknown axis name, a bare
    /// spec with no values, or an unparseable value (each axis reuses
    /// the corresponding single-flag parser, so `--param arch=pacq`
    /// accepts exactly what `--arch pacq` does).
    pub fn apply(&mut self, specs: &[ParamSpec]) -> PacqResult<()> {
        for spec in specs {
            if spec.values.is_empty() {
                return Err(err(format!(
                    "--param {}: dse wants values, e.g. --param {}=...",
                    spec.name, spec.name
                )));
            }
            let values = &spec.values;
            match spec.name.as_str() {
                "batch" => {
                    self.batch = values
                        .iter()
                        .map(|v| {
                            let m: usize = v
                                .parse()
                                .map_err(|_| err(format!("--param batch: bad batch `{v}`")))?;
                            if m == 0 || !m.is_multiple_of(16) {
                                return Err(err(format!(
                                    "--param batch: batch `{v}` must be a non-zero multiple of 16"
                                )));
                            }
                            Ok(m)
                        })
                        .collect::<PacqResult<Vec<usize>>>()?;
                }
                "arch" => {
                    self.arch = values
                        .iter()
                        .map(|v| crate::cli::parse_arch(v))
                        .collect::<PacqResult<Vec<Architecture>>>()?;
                }
                "precision" => {
                    self.precision = values
                        .iter()
                        .map(|v| crate::cli::parse_precision(v))
                        .collect::<PacqResult<Vec<WeightPrecision>>>()?;
                }
                "width" => {
                    self.width = values
                        .iter()
                        .map(|v| crate::cli::parse_width(v, "--param width"))
                        .collect::<PacqResult<Vec<usize>>>()?;
                }
                "dup" => {
                    self.dup = values
                        .iter()
                        .map(|v| crate::cli::parse_dup(v, "--param dup"))
                        .collect::<PacqResult<Vec<usize>>>()?;
                }
                "group" => {
                    self.group = values
                        .iter()
                        .map(|v| crate::cli::parse_group(v))
                        .collect::<PacqResult<Vec<GroupShape>>>()?;
                }
                other => {
                    return Err(err(format!(
                        "--param {other}: unknown dse axis \
                         (batch, arch, precision, width, dup, group)"
                    )))
                }
            }
        }
        Ok(())
    }
}

/// One design point: a full (workload × architecture × datapath ×
/// group) coordinate — a dse grid job, a `pacq serve` request or an
/// audit case; [`DseJob::runner`] derives the runner that prices it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DseJob {
    /// The architecture (dataflow) to simulate.
    pub arch: Architecture,
    /// The workload (batch × layer × precision).
    pub workload: Workload,
    /// DP width for this point.
    pub width: usize,
    /// Adder-tree duplication for this point.
    pub dup: usize,
    /// Quantization group geometry for this point.
    pub group: GroupShape,
}

impl DseJob {
    /// The job's stable id — checkpoint line format, newline-free and
    /// never ending with `.`.
    pub fn id(&self) -> String {
        format!(
            "b{}:{}:{}:w{}:d{}:{}",
            self.workload.shape.m,
            self.arch.token(),
            self.workload.precision.token(),
            self.width,
            self.dup,
            self.group,
        )
    }

    /// The runner that prices this point: `base` with this point's DP
    /// width and adder-tree duplication applied to its machine
    /// configuration, and this point's group geometry. Everything else
    /// on the base — machine capacities, energy model, template
    /// identity, numerics, cache handle, result recording — carries
    /// over, so cache keys and checkpoint bindings see the template
    /// behind every point.
    pub fn runner(&self, base: &GemmRunner) -> GemmRunner {
        let mut config = *base.config();
        config.dp_width = self.width;
        config.adder_tree_duplication = self.dup;
        base.clone().with_config(config).with_group(self.group)
    }
}

/// A fully enumerated dse search with a content digest binding
/// checkpoints to it.
#[derive(Debug, Clone)]
pub struct DsePlan {
    jobs: Vec<DseJob>,
    /// The `n×k` layer every job runs on (not part of the job ids).
    layer: (usize, usize),
}

impl DsePlan {
    /// Enumerates the axis product over an `n×k` layer, nesting (outer
    /// to inner) batch, arch, precision, width, dup, group.
    pub fn enumerate(axes: &DseAxes, n: usize, k: usize) -> DsePlan {
        let mut jobs = Vec::new();
        for &m in &axes.batch {
            for &arch in &axes.arch {
                for &precision in &axes.precision {
                    for &width in &axes.width {
                        for &dup in &axes.dup {
                            for &group in &axes.group {
                                jobs.push(DseJob {
                                    arch,
                                    workload: Workload::new(GemmShape::new(m, n, k), precision),
                                    width,
                                    dup,
                                    group,
                                });
                            }
                        }
                    }
                }
            }
        }
        DsePlan {
            jobs,
            layer: (n, k),
        }
    }

    /// The search's jobs in enumeration order.
    pub fn jobs(&self) -> &[DseJob] {
        &self.jobs
    }

    /// A digest over the layer and every job id (order-sensitive).
    pub fn digest(&self) -> String {
        let ids: Vec<String> = self.jobs.iter().map(DseJob::id).collect();
        let (n, k) = self.layer;
        grid_digest(&format!("n{n}k{k}\n{}", ids.join("\n")))
    }

    /// The checkpoint binding: this search's digest plus the *base*
    /// runner's full provenance ([`GemmRunner::provenance`] — machine
    /// configuration, group geometry, numerics mode and template
    /// identity). Per-job width/dup/group variations are already in the
    /// job ids.
    ///
    /// Job ids alone under-bind: a checkpoint written under one machine
    /// could silently satisfy a resume under another (an edited
    /// template), skipping every job and splicing
    /// rows priced by two machines into one table. Binding the runner
    /// makes that a typed [`PacqError::InvalidInput`] at open time.
    pub fn binding_digest(&self, base: &GemmRunner) -> String {
        grid_digest(&format!(
            "{grid}\n{provenance}",
            grid = self.digest(),
            provenance = base.provenance()
        ))
    }
}

/// One completed (or checkpoint-skipped) dse row.
#[derive(Debug, Clone)]
pub struct DseRow {
    /// The design point this row answers.
    pub job: DseJob,
    /// The report. `None` only when the checkpoint records the job as
    /// done *and* no attached `--cache` store still holds its report —
    /// resumed rows are rehydrated from the cache whenever possible, so
    /// rankings over a resumed run stay complete.
    pub report: Option<GemmReport>,
}

/// The best completed row by EDP, ties broken by lexicographic job id —
/// so the winner is a pure function of the row *set*, byte-identical
/// across `--jobs` counts, shard interleavings and resume histories.
/// Rows without a report (resumed, not rehydratable) don't compete; the
/// caller is responsible for flagging the ranking as partial then.
pub fn best_edp(rows: &[DseRow]) -> Option<(&DseJob, &GemmReport)> {
    rows.iter()
        .filter_map(|r| r.report.as_ref().map(|rep| (&r.job, rep)))
        .min_by(|a, b| {
            a.1.edp_pj_s
                .total_cmp(&b.1.edp_pj_s)
                .then_with(|| a.0.id().cmp(&b.0.id()))
        })
}

/// Aggregate accounting for one grid run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SweepTally {
    /// Jobs in the full grid.
    pub total: usize,
    /// Jobs this shard owns.
    pub selected: usize,
    /// Owned jobs skipped because the checkpoint already records them.
    pub skipped: usize,
    /// Owned jobs actually analyzed this run.
    pub executed: usize,
}

/// The result of [`run_dse`]: rows in enumeration order (restricted to
/// this shard) plus the selection/skip/execution tally.
#[derive(Debug, Clone)]
pub struct DseOutcome {
    /// This shard's rows, in enumeration order.
    pub rows: Vec<DseRow>,
    /// Selection/skip/execution accounting.
    pub tally: SweepTally,
}

/// Runs `plan` against the base runner, pricing each job on
/// [`DseJob::runner`] (used both to execute and to probe the cache for
/// resumed rows, so the key derivation is identical).
/// Executed jobs fan out on the rayon pool; each completed job is
/// appended to the checkpoint before the run returns, so an interrupt
/// after this function loses nothing. The caller records the tally
/// under its own counter names.
///
/// # Errors
///
/// Returns the first failing job's error in enumeration order, or a
/// checkpoint I/O error.
pub fn run_dse(
    base: &GemmRunner,
    plan: &DsePlan,
    shard: Shard,
    checkpoint: Option<&SweepCheckpoint>,
) -> PacqResult<DseOutcome> {
    let mut tally = SweepTally {
        total: plan.jobs().len(),
        ..SweepTally::default()
    };

    let mut skipped_rows = Vec::new();
    let mut to_run = Vec::new();
    for (index, job) in plan.jobs().iter().enumerate() {
        if !shard.selects(index) {
            continue;
        }
        tally.selected += 1;
        if checkpoint.is_some_and(|c| c.is_done(&job.id())) {
            tally.skipped += 1;
            // A resumed job's report usually still sits in the --cache
            // store (the first pass wrote it there); rehydrate it so
            // best-EDP/Pareto rankings over the resumed run see every
            // row instead of silently excluding the resumed ones.
            let report = job.runner(base).cached_report(job.arch, job.workload);
            skipped_rows.push((index, DseRow { job: *job, report }));
        } else {
            tally.executed += 1;
            to_run.push((index, *job));
        }
    }

    let reports: Vec<PacqResult<(usize, DseRow)>> = to_run
        .into_par_iter()
        .map(|(index, job)| {
            let report = job.runner(base).analyze(job.arch, job.workload)?;
            if let Some(c) = checkpoint {
                c.mark_done(&job.id())?;
            }
            Ok((
                index,
                DseRow {
                    job,
                    report: Some(report),
                },
            ))
        })
        .collect();

    let mut rows = reports
        .into_iter()
        .collect::<PacqResult<Vec<(usize, DseRow)>>>()?;
    rows.extend(skipped_rows);
    rows.sort_by_key(|(index, _)| *index);

    Ok(DseOutcome {
        rows: rows.into_iter().map(|(_, row)| row).collect(),
        tally,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::parse_params;

    fn default_axes() -> DseAxes {
        DseAxes::defaults(4, 2, GroupShape::G128)
    }

    #[test]
    fn default_grid_is_deterministic_and_fully_enumerated() {
        let a = DsePlan::enumerate(&default_axes(), 256, 256);
        let b = DsePlan::enumerate(&default_axes(), 256, 256);
        assert_eq!(a.jobs().len(), 6 * 3 * 2);
        assert_eq!(a.digest(), b.digest());
        // Ids are unique (they double as checkpoint records), newline-free
        // and never end with the record terminator.
        let mut ids: Vec<String> = a.jobs().iter().map(DseJob::id).collect();
        assert!(ids
            .iter()
            .all(|id| !id.contains('\n') && !id.ends_with('.')));
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), a.jobs().len());
    }

    #[test]
    fn digest_is_order_sensitive() {
        let grid = DsePlan::enumerate(&default_axes(), 256, 256);
        let mut reversed = grid.clone();
        reversed.jobs.reverse();
        assert_ne!(grid.digest(), reversed.digest());
    }

    #[test]
    fn params_reshape_the_axes() {
        let mut axes = default_axes();
        let specs = parse_params(&[
            "batch=16,32".to_string(),
            "arch=pacq".to_string(),
            "width=4,8".to_string(),
            "dup=1,4".to_string(),
            "group=g64".to_string(),
        ])
        .unwrap();
        axes.apply(&specs).unwrap();
        assert_eq!(axes.batch, [16, 32]);
        assert_eq!(axes.arch, [Architecture::Pacq]);
        assert_eq!(axes.width, [4, 8]);
        assert_eq!(axes.dup, [1, 4]);
        let plan = DsePlan::enumerate(&axes, 256, 256);
        // 2 batches × 1 arch × 2 precisions × 2 widths × 2 dups × 1 group.
        assert_eq!(plan.jobs().len(), 16);
        // Ids are unique and carry every coordinate.
        let mut ids: Vec<String> = plan.jobs().iter().map(DseJob::id).collect();
        assert!(ids[0].starts_with("b16:pacq:int4:w4:d1:g64"), "{}", ids[0]);
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), 16);
    }

    #[test]
    fn bad_axis_specs_are_usage_errors() {
        for spec in [
            "batch",          // bare name: dse wants values
            "batch=15",       // not 16-aligned
            "batch=0",        // zero
            "width=5",        // out of domain
            "dup=3",          // out of domain
            "arch=quantum",   // unknown arch
            "precision=int5", // unknown precision
            "group=h128",     // unknown group
            "tile=4",         // unknown axis
        ] {
            let mut axes = default_axes();
            let specs = parse_params(&[spec.to_string()]).unwrap();
            let e = axes.apply(&specs).unwrap_err();
            assert!(e.is_usage(), "{spec}: {e}");
            assert_eq!(e.exit_code(), 2, "{spec}");
        }
    }

    #[test]
    fn checkpoint_binding_covers_the_base_runner() {
        // A checkpoint written under one (grid × machine × template)
        // must refuse to resume under any other with a typed error —
        // not silently skip jobs priced by a different machine.
        let path =
            std::env::temp_dir().join(format!("pacq-dse-binding-{}.ckpt", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let plan = DsePlan::enumerate(&default_axes(), 256, 256);
        let base = GemmRunner::new();
        drop(SweepCheckpoint::open(&path, &plan.binding_digest(&base)).unwrap());

        for other in [
            GemmRunner::new().with_template_digest("deadbeef"),
            GemmRunner::new().with_config(pacq_simt::SmConfig {
                adder_tree_duplication: 4,
                ..pacq_simt::SmConfig::volta_like()
            }),
        ] {
            let digest = plan.binding_digest(&other);
            assert_ne!(digest, plan.binding_digest(&base));
            let e = SweepCheckpoint::open(&path, &digest).unwrap_err();
            assert_eq!(e.exit_code(), 4, "{e}");
            assert!(e.to_string().contains("checkpoint"), "{e}");
        }
        // And a different n×k grid over the same runner also refuses.
        let other_grid = DsePlan::enumerate(&default_axes(), 512, 512);
        assert!(SweepCheckpoint::open(&path, &other_grid.binding_digest(&base)).is_err());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn best_edp_breaks_ties_by_job_id() {
        // Rows sharing one report tie on EDP bit for bit; the winner must
        // be the lexicographically first id, not whichever row a thread
        // finished first.
        let plan = DsePlan::enumerate(&default_axes(), 256, 256);
        let report = GemmRunner::new()
            .analyze(Architecture::Pacq, plan.jobs()[0].workload)
            .unwrap();
        let rows: Vec<DseRow> = plan.jobs()[..6]
            .iter()
            .map(|&job| DseRow {
                job,
                report: Some(report.clone()),
            })
            .collect();
        let first = rows.iter().map(|r| r.job.id()).min().unwrap();
        let (job, _) = best_edp(&rows).unwrap();
        assert_eq!(job.id(), first);

        // Reversing row order must not move the winner.
        let mut reversed = rows.clone();
        reversed.reverse();
        let (again, _) = best_edp(&reversed).unwrap();
        assert_eq!(again.id(), first);

        assert!(best_edp(&[]).is_none());
    }

    #[test]
    fn resumed_rows_rehydrate_from_the_cache() {
        // The resume-then-rank regression: a second pass over a full
        // checkpoint used to return report-less rows, silently dropping
        // every resumed point from best-EDP rankings. With a cache
        // attached, the skipped rows now rehydrate to the first pass's
        // exact reports.
        use std::sync::Arc;
        let dir = std::env::temp_dir().join(format!("pacq-dse-rehydrate-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path =
            std::env::temp_dir().join(format!("pacq-dse-rehydrate-{}.ckpt", std::process::id()));
        let _ = std::fs::remove_file(&path);

        let mut axes = default_axes();
        axes.batch = vec![16, 32];
        axes.arch = vec![Architecture::Pacq, Architecture::InputStationary];
        let plan = DsePlan::enumerate(&axes, 256, 256);
        let cache = Arc::new(pacq_cache::ReportCache::open(&dir).unwrap());
        let base = GemmRunner::new().with_cache(Arc::clone(&cache));

        let first = {
            let ckpt = SweepCheckpoint::open(&path, &plan.binding_digest(&base)).unwrap();
            run_dse(&base, &plan, Shard::FULL, Some(&ckpt)).unwrap()
        };
        let ckpt = SweepCheckpoint::open(&path, &plan.binding_digest(&base)).unwrap();
        let second = run_dse(&base, &plan, Shard::FULL, Some(&ckpt)).unwrap();
        assert_eq!(second.tally.executed, 0);
        assert_eq!(second.tally.skipped, second.tally.selected);
        for (f, s) in first.rows.iter().zip(&second.rows) {
            let rehydrated = s.report.as_ref().expect("resumed row rehydrates");
            let fresh = f.report.as_ref().unwrap();
            assert_eq!(fresh.edp_pj_s.to_bits(), rehydrated.edp_pj_s.to_bits());
            assert_eq!(fresh.stats, rehydrated.stats);
        }
        // And the resumed ranking equals the fresh one.
        let (fj, fr) = best_edp(&first.rows).unwrap();
        let (sj, sr) = best_edp(&second.rows).unwrap();
        assert_eq!(fj.id(), sj.id());
        assert_eq!(fr.edp_pj_s.to_bits(), sr.edp_pj_s.to_bits());

        // Without the cache the rows stay report-less (the caller then
        // flags the ranking as partial).
        let bare = GemmRunner::new();
        let ckpt = SweepCheckpoint::open(&path, &plan.binding_digest(&bare));
        // Different provenance (no cache does not change provenance, so
        // this open succeeds against the same binding).
        let ckpt = ckpt.unwrap();
        let dry = run_dse(&bare, &plan, Shard::FULL, Some(&ckpt)).unwrap();
        assert!(dry.rows.iter().all(|r| r.report.is_none()));

        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sharded_resume_skips_done_jobs() {
        let path =
            std::env::temp_dir().join(format!("pacq-dse-resume-{}.ckpt", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let mut axes = default_axes();
        axes.batch = vec![16, 32];
        let plan = DsePlan::enumerate(&axes, 256, 256);
        let base = GemmRunner::new();

        {
            let ckpt = SweepCheckpoint::open(&path, &plan.binding_digest(&base)).unwrap();
            let first = run_dse(&base, &plan, Shard { index: 1, count: 2 }, Some(&ckpt)).unwrap();
            assert_eq!(first.tally.executed, first.tally.selected);
        }
        let ckpt = SweepCheckpoint::open(&path, &plan.binding_digest(&base)).unwrap();
        let again = run_dse(&base, &plan, Shard { index: 1, count: 2 }, Some(&ckpt)).unwrap();
        assert_eq!(again.tally.executed, 0);
        assert_eq!(again.tally.skipped, again.tally.selected);
        // The other shard's jobs are untouched by that checkpoint.
        let other = run_dse(&base, &plan, Shard { index: 2, count: 2 }, Some(&ckpt)).unwrap();
        assert_eq!(other.tally.skipped, 0);
        let _ = std::fs::remove_file(&path);
    }
}
