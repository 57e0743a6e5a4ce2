//! `dse-llama`: a cold design-space search per op — one `run_dse` over
//! one LLaMA-2-7B decoder-layer shape (24 points: batch {16,64,256} ×
//! the four dataflows × INT4/INT2), each into a fresh, empty report
//! store, so every point is a miss, a simulate, a pricing and a disk
//! write. This is the paper's Fig. 10–12 workflow; serve and the
//! functional kernels do no work here.

use crate::gen::{dse_rotation, DATAFLOWS};
use crate::spans::{Breakdown, Recorder};
use crate::stats::{median_chunk_rate, plain_median, OkTally, Samples};
use crate::{
    finish_layers, keep_going, overhead_ratio, Ctx, Metrics, RunResult, MAX_RUN, MIN_TRACED_OPS,
};
use pacq::{
    best_edp, pareto_front, run_dse, DseAxes, DseJob, DsePlan, DseRow, EnergyModel, GemmReport,
    GemmRunner, PacqResult, ParetoPoint, ReportCache, Shard, WeightPrecision,
};
use pacq_simt::simulate;
use rayon::prelude::*;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// The highest percentile `MIN_OPS` ops support (ten samples beyond
/// it), and the fewest ops an untraced run measures; a run still short
/// of them at the end of `--seconds` keeps going.
const TAIL_PERCENTILE: f64 = 75.0;
const MIN_OPS: usize = 40;

/// Independent set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// Ops per chunk for the chunk-rate throughput median.
const CHUNK_OPS: usize = 6;

fn axes(base: &GemmRunner) -> DseAxes {
    let cfg = base.config();
    let mut axes = DseAxes::defaults(cfg.dp_width, cfg.adder_tree_duplication, base.group());
    axes.batch = vec![16, 64, 256];
    axes.arch = DATAFLOWS.to_vec();
    axes.precision = vec![WeightPrecision::Int4, WeightPrecision::Int2];
    axes
}

/// `run_dse`'s per-job runner: the base with the job's datapath knobs
/// and group geometry.
fn job_runner(base: &GemmRunner, job: &DseJob) -> GemmRunner {
    let mut cfg = *base.config();
    cfg.dp_width = job.width;
    cfg.adder_tree_duplication = job.dup;
    base.clone().with_config(cfg).with_group(job.group)
}

/// Bit-level equality of two reports: every counter, and every float
/// by its bit pattern.
fn same_bits(a: &GemmReport, b: &GemmReport) -> bool {
    let (ea, eb) = (&a.energy, &b.energy);
    a.arch == b.arch
        && a.workload == b.workload
        && a.stats == b.stats
        && [
            ea.tc_pj,
            ea.rf_pj,
            ea.l1_pj,
            ea.dram_pj,
            ea.buffer_pj,
            ea.general_pj,
        ]
        .iter()
        .zip([
            eb.tc_pj,
            eb.rf_pj,
            eb.l1_pj,
            eb.dram_pj,
            eb.buffer_pj,
            eb.general_pj,
        ])
        .all(|(x, y)| x.to_bits() == y.to_bits())
        && a.latency_s.to_bits() == b.latency_s.to_bits()
        && a.edp_pj_s.to_bits() == b.edp_pj_s.to_bits()
}

/// What one grid produced: its rows, the best-EDP winner and the
/// Pareto front's ids.
struct Grid {
    rows: Vec<(DseJob, GemmReport)>,
    best: Option<String>,
    front: Vec<String>,
}

fn rank(rows: &[DseRow]) -> (Option<String>, Vec<String>) {
    let best = best_edp(rows).map(|(job, _)| job.id());
    let points: Vec<ParetoPoint> = rows
        .iter()
        .filter_map(|r| {
            r.report.as_ref().map(|rep| ParetoPoint {
                id: r.job.id(),
                cycles: rep.stats.total_cycles,
                energy_pj: rep.total_energy_pj(),
            })
        })
        .collect();
    let front = pareto_front(&points).into_iter().map(|p| p.id).collect();
    (best, front)
}

fn grid_of(rows: Vec<DseRow>) -> Option<Grid> {
    let (best, front) = rank(&rows);
    let rows = rows
        .into_iter()
        .map(|r| r.report.map(|rep| (r.job, rep)))
        .collect::<Option<Vec<_>>>()?;
    Some(Grid { rows, best, front })
}

fn same_grid(a: &Grid, b: &Grid) -> bool {
    a.best == b.best
        && a.front == b.front
        && a.rows.len() == b.rows.len()
        && a.rows
            .iter()
            .zip(&b.rows)
            .all(|((ja, ra), (jb, rb))| ja == jb && same_bits(ra, rb))
}

/// The oracle: every job analyzed uncached on its job runner, ranked by
/// the same functions.
fn oracle(base: &GemmRunner, plan: &DsePlan) -> PacqResult<Grid> {
    let rows = plan
        .jobs()
        .to_vec()
        .into_par_iter()
        .map(|job| {
            let report = job_runner(base, &job).analyze(job.arch, job.workload)?;
            Ok(DseRow {
                job,
                report: Some(report),
            })
        })
        .collect::<Vec<PacqResult<DseRow>>>()
        .into_iter()
        .collect::<PacqResult<Vec<DseRow>>>()?;
    grid_of(rows).ok_or_else(|| pacq::PacqError::usage("oracle row without a report"))
}

/// One user op, untraced: what `pacq dse --cache <fresh dir> --pareto`
/// does for one layer.
fn op(
    base: &GemmRunner,
    axes: &DseAxes,
    n: usize,
    k: usize,
    dir: &Path,
) -> PacqResult<(Grid, Arc<ReportCache>)> {
    let plan = DsePlan::enumerate(axes, n, k);
    let cache = Arc::new(ReportCache::open(dir)?);
    let runner = base.clone().with_cache(Arc::clone(&cache));
    let outcome = run_dse(&runner, &plan, Shard::FULL, None)?;
    let grid =
        grid_of(outcome.rows).ok_or_else(|| pacq::PacqError::usage("row without a report"))?;
    Ok((grid, cache))
}

/// The same op rebuilt from the public functions `run_dse` and
/// `GemmRunner::analyze` call, in their order (enumerate; per point key,
/// get, simulate, price, put; rank), each call inside a span.
fn traced_op(
    rec: &Recorder,
    id: u64,
    base: &GemmRunner,
    axes: &DseAxes,
    n: usize,
    k: usize,
    dir: &Path,
) -> PacqResult<(Grid, usize)> {
    let root = rec.open("op", id, None);
    let plan = rec.leaf("dse.enumerate", id, root, || DsePlan::enumerate(axes, n, k));
    let cache = Arc::new(rec.leaf("cache.open", id, root, || ReportCache::open(dir))?);
    let base = base.clone().with_cache(Arc::clone(&cache));
    let rows = plan
        .jobs()
        .to_vec()
        .into_par_iter()
        .map(|job| {
            let runner = rec.leaf("runner.derive", id, root, || job_runner(&base, &job));
            let (arch, wl) = (job.arch, job.workload);
            let key = rec.leaf("runner.cache_key", id, root, || runner.cache_key(arch, wl));
            let hit = rec.leaf("cache.get", id, root, || cache.get(&key));
            let cfg = runner.config();
            let stats = rec.leaf("simt.simulate", id, root, || {
                simulate(arch, wl, cfg, runner.group())
            })?;
            let (energy, edp_pj_s) = rec.leaf("simt.price", id, root, || {
                let model = EnergyModel::new(cfg);
                let energy = model.energy(arch, cfg, &stats);
                let edp = model.edp(&energy, &stats);
                (energy, edp)
            });
            let report = GemmReport {
                arch,
                workload: wl,
                stats,
                energy,
                latency_s: stats.latency_s(cfg.clock_hz),
                edp_pj_s,
            };
            rec.leaf("cache.put", id, root, || {
                cache.put(&key, &report.to_cached())
            })?;
            Ok((
                hit.is_none(),
                DseRow {
                    job,
                    report: Some(report),
                },
            ))
        })
        .collect::<Vec<PacqResult<(bool, DseRow)>>>()
        .into_iter()
        .collect::<PacqResult<Vec<(bool, DseRow)>>>()?;
    let misses = rows.iter().filter(|(miss, _)| *miss).count();
    let rows: Vec<DseRow> = rows.into_iter().map(|(_, row)| row).collect();
    let grid = rec.leaf("dse.rank", id, root, || grid_of(rows));
    rec.close(root);
    Ok((
        grid.ok_or_else(|| pacq::PacqError::usage("row without a report"))?,
        misses,
    ))
}

/// Modelled MACs of one grid.
fn grid_macs(grid: &Grid) -> f64 {
    grid.rows
        .iter()
        .map(|(j, _)| j.workload.shape.macs() as f64)
        .sum()
}

pub fn run(ctx: &Ctx, trace: bool) -> Result<RunResult, String> {
    let err = |e: pacq::PacqError| e.to_string();

    // Set-up: input synthesis, the base runner, the three plans, the op
    // stores' root and the oracle grids, repeated; `setup_s` is the
    // median.
    let mut setup_times = Vec::new();
    let mut setup = None;
    for rep in 0..SETUP_REPS {
        let t0 = Instant::now();
        let rotation = dse_rotation(ctx.seed);
        let base = GemmRunner::new();
        let axes = axes(&base);
        let root = ctx.work_dir.join(format!("dse-{rep}"));
        std::fs::create_dir_all(&root).map_err(|e| e.to_string())?;
        let oracles = rotation
            .iter()
            .map(|&(n, k)| oracle(&base, &DsePlan::enumerate(&axes, n, k)))
            .collect::<PacqResult<Vec<Grid>>>()
            .map_err(err)?;
        setup_times.push(t0.elapsed().as_secs_f64());
        setup = Some((rotation, base, axes, root, oracles));
    }
    let (rotation, base, axes, root, oracles) = setup.ok_or("no set-up ran")?;
    let setup_s = plain_median(setup_times).ok_or("no set-up ran")?;

    let mut tally = OkTally::default();
    let mut metrics = Metrics::default();
    let window = if trace { ctx.seconds / 2 } else { ctx.seconds };

    // Untraced ops (the whole run, or the first half of a traced run).
    let mut wall_us: Vec<Vec<f64>> = vec![Vec::new(); 3];
    let mut first_grid: Vec<Option<Grid>> = vec![None, None, None];
    let mut chunks = Vec::new();
    let mut all_us = Vec::new();
    let started = Instant::now();
    let mut i = 0;
    let min_ops = if trace { 6 } else { MIN_OPS };
    // A traced run also needs one good untraced grid of each layer to
    // check its traced grids against.
    while keep_going(started.elapsed(), i, window, min_ops)
        || (trace && first_grid.iter().any(Option::is_none) && started.elapsed() < MAX_RUN)
    {
        let slot = i % 3;
        let (n, k) = rotation[slot];
        let dir = root.join(format!("op{i}"));
        let t0 = Instant::now();
        let result = op(&base, &axes, n, k, &dir);
        let secs = t0.elapsed().as_secs_f64();
        let ok = match result {
            Ok((grid, cache)) => {
                let clean = cache.misses() == grid.rows.len() as u64
                    && cache.hits() == 0
                    && cache.put_errors() == 0;
                let ok = clean && same_grid(&grid, &oracles[slot]);
                if ok {
                    chunks.push((grid_macs(&grid), secs));
                    all_us.push(secs * 1e6);
                    wall_us[slot].push(secs * 1e6);
                    first_grid[slot].get_or_insert(grid);
                }
                ok
            }
            Err(_) => false,
        };
        tally.record(ok);
        let _ = std::fs::remove_dir_all(&dir);
        i += 1;
    }

    if !trace {
        let points = oracles[0].rows.len() as f64;
        let lat = Samples::new(all_us);
        metrics.set("setup_s", setup_s);
        metrics.set_pct("latency_p50_us", &lat, 50.0)?;
        metrics.set_tail(&lat, TAIL_PERCENTILE)?;
        let macs_rate = median_chunk_rate(&chunks, CHUNK_OPS).ok_or("too few ops for a rate")?;
        metrics.set("macs_per_s", macs_rate);
        let ops: Vec<(f64, f64)> = chunks.iter().map(|&(_, s)| (points, s)).collect();
        let points_rate = median_chunk_rate(&ops, CHUNK_OPS).ok_or("too few ops for a rate")?;
        metrics.set("points_per_s", points_rate);
        metrics.samples.push(("ops", chunks.len()));
        return Ok(RunResult {
            tally,
            metrics,
            spans: None,
        });
    }

    // Traced ops: the second half of the run.
    let rec = Recorder::new();
    let mut traced_us: Vec<Vec<f64>> = vec![Vec::new(); 3];
    let mut store_bytes = Vec::new();
    let (mut gets, mut misses) = (0usize, 0usize);
    let mut modelled_kcycles = 0.0;
    let started = Instant::now();
    let mut t = 0;
    while keep_going(started.elapsed(), t, window, MIN_TRACED_OPS) {
        let slot = (i + t) % 3;
        let (n, k) = rotation[slot];
        let dir = root.join(format!("op{}", i + t));
        let t0 = Instant::now();
        let result = traced_op(&rec, t as u64, &base, &axes, n, k, &dir);
        let secs = t0.elapsed().as_secs_f64();
        let ok = match (&result, &first_grid[slot]) {
            (Ok((grid, miss)), Some(untraced)) => {
                gets += grid.rows.len();
                misses += miss;
                modelled_kcycles += grid
                    .rows
                    .iter()
                    .map(|(_, r)| r.stats.total_cycles as f64 / 1e3)
                    .sum::<f64>();
                *miss == grid.rows.len() && same_grid(grid, untraced)
            }
            _ => false,
        };
        if ok {
            traced_us[slot].push(secs * 1e6);
            if let Ok(stats) = ReportCache::open(&dir).and_then(|c| c.stats()) {
                store_bytes.push(stats.bytes as f64);
            }
        }
        tally.record(ok);
        let _ = std::fs::remove_dir_all(&dir);
        t += 1;
    }

    let b = Breakdown::new(rec.into_spans());
    let sim_calls = b.calls("simt.simulate");
    let sim_busy = b.busy_s("simt.simulate");
    metrics.set("simt.simulate.calls", sim_calls as f64);
    metrics.set("simt.simulate.busy_s", sim_busy);
    metrics.set_layer_p50("simt.simulate.us_p50", b.durations_us("simt.simulate"))?;
    metrics.set(
        "simt.simulate.ns_per_kcycle",
        sim_busy * 1e9 / modelled_kcycles.max(f64::MIN_POSITIVE),
    );
    metrics.set_layer_p50("simt.price.us_p50", b.durations_us("simt.price"))?;
    metrics.set("simt.price.busy_s", b.busy_s("simt.price"));
    metrics.set_layer_p50(
        "runner.cache_key.us_p50",
        b.durations_us("runner.cache_key"),
    )?;
    metrics.set_layer_p50("cache.get.us_p50", b.durations_us("cache.get"))?;
    metrics.set("cache.put.calls", b.calls("cache.put") as f64);
    metrics.set_layer_p50("cache.put.us_p50", b.durations_us("cache.put"))?;
    let gets_f = gets.max(1) as f64;
    metrics.set("cache.disk_hit_ratio", (gets - misses) as f64 / gets_f);
    metrics.set("cache.miss_ratio", misses as f64 / gets_f);
    metrics.set(
        "cache.disk_bytes",
        plain_median(store_bytes).ok_or("no traced op stored anything")?,
    );
    metrics.set_layer_p50("dse.enumerate.us", b.durations_us("dse.enumerate"))?;
    metrics.set_layer_p50("dse.rank.us", b.durations_us("dse.rank"))?;
    metrics.set(
        "trace.overhead_ratio",
        overhead_ratio(&wall_us, &traced_us)?,
    );
    metrics.set("trace.unattributed_ratio", b.unattributed_ratio("op"));
    metrics.set("trace.ops", t as f64);
    finish_layers(&mut metrics, ctx, &b);
    Ok(RunResult {
        tally,
        metrics,
        spans: Some(b),
    })
}
