//! `perfbench` — the PacQ reproduction's end-to-end benchmark.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload <dse-llama|serve-hot|exec-decode> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` a run measures whole user operations and prints the
//! end-to-end metrics; with `--trace 1` it splits the same operations at
//! the layer boundaries, timing the benchmark's own calls into each
//! layer's public functions, and prints the per-layer metrics. Every
//! op's output is checked against an oracle either way. The last line of
//! stdout is one JSON object: `{"correct", "attempted", "failed",
//! "metrics"}`; the provenance and sample counts precede it, and the
//! full result (plus the traced run's spans) is written under
//! `perfbench/out/`. See `perfbench/README.md` for the workloads, the
//! metric definitions and the predicted layer-to-metric effects.

mod dse_llama;
mod exec_decode;
mod gen;
mod host;
mod serve_hot;
mod spans;
mod stats;

use pacq_trace::Json;
use stats::{OkTally, Samples};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

/// Every end-to-end metric as `(name, unit)`, printed by every untraced
/// run. An op is one dse grid, one served request or one GEMM; a point
/// is one design point answered (a dse row, a served report or an
/// executed GEMM). `latency_tail_us` is the highest percentile a
/// workload's op count supports with ten samples beyond it: p75 for
/// dse-llama, p90 for exec-decode, p99 for serve-hot.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("ok_ratio", "ok/attempted"),
    ("rss_peak_mib", "MiB"),
    ("points_per_s", "points/s"),
    ("macs_per_s", "MAC/s"),
    ("latency_p50_us", "us"),
    ("latency_tail_us", "us"),
];

/// Every per-layer metric as `(name, unit)`, printed by every traced
/// run. A layer a workload never enters reports 0 (its `calls` or
/// sample count is 0 too).
pub const PER_LAYER: [(&str, &str); 39] = [
    ("simt.simulate.calls", "count"),
    ("simt.simulate.busy_s", "s"),
    ("simt.simulate.us_p50", "us"),
    ("simt.simulate.ns_per_kcycle", "ns/kcycle"),
    ("simt.price.us_p50", "us"),
    ("simt.price.busy_s", "s"),
    ("runner.cache_key.us_p50", "us"),
    ("runner.analyze_hit.us_p50", "us"),
    ("cache.get.us_p50", "us"),
    ("cache.put.calls", "count"),
    ("cache.put.us_p50", "us"),
    ("cache.hot_hit_ratio", "ratio"),
    ("cache.disk_hit_ratio", "ratio"),
    ("cache.miss_ratio", "ratio"),
    ("cache.disk_bytes", "bytes"),
    ("report.encode.us_p50", "us"),
    ("serve.rtt.us_p50", "us"),
    ("serve.rtt.us_p99", "us"),
    ("serve.overhead.us_p50", "us"),
    ("serve.newline_rtt.us_p50", "us"),
    ("serve.served", "count"),
    ("serve.errors", "count"),
    ("serve.queue_full", "count"),
    ("dse.enumerate.us", "us"),
    ("dse.rank.us", "us"),
    ("quant.quantize.us_p50", "us"),
    ("quant.quantize.busy_s", "s"),
    ("quant.pack.us_p50", "us"),
    ("quant.pack.busy_s", "s"),
    ("fp16.lut_build.ms", "ms"),
    ("simt.exec.us_p50", "us"),
    ("simt.exec.busy_s", "s"),
    ("simt.exec.macs", "MAC"),
    ("simt.exec.bytes", "bytes"),
    ("par.jobs", "count"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.unattributed_ratio", "ratio"),
    ("trace.spans", "count"),
    ("trace.ops", "count"),
];

/// The traced half of a run never times fewer ops than this, so that a
/// once-per-op span still has a median.
pub const MIN_TRACED_OPS: usize = 20;

/// Hard ceiling on one measurement loop; a traced run has two, and both
/// with set-up stay inside the 180 s a run may take.
pub const MAX_RUN: Duration = Duration::from_secs(60);

/// What every workload is handed.
pub struct Ctx {
    pub seed: u64,
    pub seconds: Duration,
    pub jobs: usize,
    /// Scratch space for cache stores, removed when the run ends.
    pub work_dir: PathBuf,
}

/// `true` while a measurement loop that started `elapsed` ago with `ops`
/// done should keep going: until `window` has passed and `min_ops` are
/// done, but never past [`MAX_RUN`].
pub fn keep_going(elapsed: Duration, ops: usize, window: Duration, min_ops: usize) -> bool {
    elapsed < MAX_RUN && (elapsed < window || ops < min_ops)
}

/// The named values one run produced, in print order.
#[derive(Default)]
pub struct Metrics {
    values: Vec<(&'static str, f64)>,
    /// Sample counts behind each median or percentile, for the log.
    pub samples: Vec<(&'static str, usize)>,
    /// The percentile behind `latency_tail_us`.
    pub tail_percentile: Option<f64>,
}

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.retain(|(n, _)| *n != name);
        self.values.push((name, value));
    }

    /// Sets a nearest-rank percentile, or reports why it cannot be.
    pub fn set_pct(&mut self, name: &'static str, samples: &Samples, p: f64) -> Result<(), String> {
        self.samples.push((name, samples.len()));
        let v = samples.percentile(p).ok_or_else(|| {
            format!(
                "{name}: {} samples leave fewer than {} beyond p{p}",
                samples.len(),
                stats::MIN_BEYOND
            )
        })?;
        self.set(name, v);
        Ok(())
    }

    /// Sets `latency_tail_us` to the workload's tail percentile.
    pub fn set_tail(&mut self, samples: &Samples, p: f64) -> Result<(), String> {
        self.tail_percentile = Some(p);
        self.set_pct("latency_tail_us", samples, p)
    }

    /// A per-layer median; a layer that did no work in this workload is
    /// left to [`finish_layers`], and one that did too little to speak
    /// for is an error.
    pub fn set_layer_p50(&mut self, name: &'static str, us: Vec<f64>) -> Result<(), String> {
        if us.is_empty() {
            return Ok(());
        }
        self.set_pct(name, &Samples::new(us), 50.0)
    }

    fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }
}

/// The outcome of one workload run.
pub struct RunResult {
    pub tally: OkTally,
    pub metrics: Metrics,
    /// The traced run's spans.
    pub spans: Option<spans::Breakdown>,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <dse-llama|serve-hot|exec-decode> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} wants a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => workload = Some(value.to_string()),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed `{value}`"))?),
            "--seconds" => match value.parse() {
                Ok(s @ 1..=600) => seconds = Some(s),
                _ => return Err(format!("--seconds `{value}` must be 1..=600")),
            },
            "--trace" => match value {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("--trace `{value}` must be 0 or 1")),
            },
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !matches!(workload.as_str(), "dse-llama" | "serve-hot" | "exec-decode") {
        return Err(format!("unknown workload `{workload}`"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args) -> Result<(), String> {
    let jobs = host::nproc();
    rayon::ThreadPoolBuilder::new()
        .num_threads(jobs)
        .build_global()
        .map_err(|e| e.to_string())?;
    let out_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    let work_dir = out_dir.join(format!("work-{}", std::process::id()));
    std::fs::create_dir_all(&work_dir)
        .map_err(|e| format!("cannot create {}: {e}", work_dir.display()))?;
    let ctx = Ctx {
        seed: args.seed,
        seconds: Duration::from_secs(args.seconds),
        jobs,
        work_dir,
    };
    let result = match args.workload.as_str() {
        "dse-llama" => dse_llama::run(&ctx, args.trace),
        "serve-hot" => serve_hot::run(&ctx, args.trace),
        _ => exec_decode::run(&ctx, args.trace),
    };
    // Stores are scratch: remove them whether or not the run succeeded.
    let _ = std::fs::remove_dir_all(&ctx.work_dir);
    let mut result = result?;

    let names: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    if !args.trace {
        let rss = host::rss_peak_mib().ok_or("cannot read VmHWM from /proc/self/status")?;
        result.metrics.set("rss_peak_mib", rss);
        let ratio = result.tally.ratio().ok_or("no op was attempted")?;
        result.metrics.set("ok_ratio", ratio);
    }
    let mut metrics = Json::object();
    for &(name, unit) in names {
        let value = result
            .metrics
            .get(name)
            .ok_or_else(|| format!("internal: metric {name} was not measured"))?;
        let mut m = Json::object();
        m.set("value", value);
        m.set("unit", unit);
        metrics.set(name, m);
    }

    let mut samples = Json::object();
    for (name, n) in &result.metrics.samples {
        samples.set(name, *n);
    }
    if let Some(p) = result.metrics.tail_percentile {
        samples.set("tail_percentile", p);
    }
    let mut record = Json::object();
    record.set("workload", args.workload.as_str());
    record.set("seed", args.seed.to_string());
    record.set("seconds", args.seconds);
    record.set("trace", args.trace);
    record.set("provenance", host::provenance(jobs));
    record.set("samples", samples);
    if let Some(spans) = &result.spans {
        let mut self_s = Json::object();
        for (name, s) in spans.self_by_name() {
            self_s.set(name, s);
        }
        record.set("self_s", self_s);
    }
    record.set("metrics", metrics.clone());

    let stem = format!("{}-trace{}", args.workload, u8::from(args.trace));
    std::fs::write(out_dir.join(format!("{stem}.json")), record.render())
        .map_err(|e| format!("cannot write the result file: {e}"))?;
    if let Some(spans) = &result.spans {
        spans
            .write_ndjson(&out_dir.join(format!("{stem}.spans.ndjson")))
            .map_err(|e| format!("cannot write the span file: {e}"))?;
    }

    let mut last = Json::object();
    last.set("correct", result.tally.failed() == 0);
    last.set("attempted", result.tally.attempted);
    last.set("failed", result.tally.failed());
    last.set("metrics", metrics);
    println!(
        "{}",
        record
            .get("provenance")
            .map_or(String::new(), Json::render_line)
    );
    println!(
        "{}",
        record
            .get("samples")
            .map_or(String::new(), Json::render_line)
    );
    println!("{}", last.render_line());
    Ok(())
}

/// Traced over untraced wall time per op, minus 1: per op kind (a layer
/// shape, a dataflow), the ratio of medians, then their geometric mean.
pub fn overhead_ratio(untraced: &[Vec<f64>], traced: &[Vec<f64>]) -> Result<f64, String> {
    let mut log_sum = 0.0;
    let mut kinds = 0;
    for (u, t) in untraced.iter().zip(traced) {
        if let (Some(u), Some(t)) = (
            stats::plain_median(u.clone()),
            stats::plain_median(t.clone()),
        ) {
            log_sum += (t / u).ln();
            kinds += 1;
        }
    }
    if kinds == 0 {
        return Err("no op kind ran both traced and untraced".into());
    }
    Ok((log_sum / kinds as f64).exp() - 1.0)
}

/// Adds the counters every traced run reports, and 0 for each layer
/// this workload never enters.
pub fn finish_layers(metrics: &mut Metrics, ctx: &Ctx, b: &spans::Breakdown) {
    metrics.set("par.jobs", ctx.jobs as f64);
    metrics.set("trace.spans", b.span_count() as f64);
    for &(name, _) in &PER_LAYER {
        if metrics.get(name).is_none() {
            metrics.set(name, 0.0);
            metrics.samples.push((name, 0));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` must list exactly the metrics the binary prints.
    #[test]
    fn benchmark_json_lists_the_printed_metrics() {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Json::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s = |f: &str| m.get(f).and_then(Json::as_str).expect(f).to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), own(&END_TO_END));
        assert_eq!(listed("per_layer"), own(&PER_LAYER));
    }

    #[test]
    fn args_are_parsed_strictly() {
        let argv = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        let a = parse_args(&argv(
            "--workload serve-hot --seed 3 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("serve-hot", 3, 10, true)
        );
        for bad in [
            "--workload nope --seed 3 --seconds 10 --trace 1",
            "--workload serve-hot --seed x --seconds 10 --trace 1",
            "--workload serve-hot --seed 3 --seconds 0 --trace 1",
            "--workload serve-hot --seed 3 --seconds 10 --trace 2",
            "--workload serve-hot --seed 3 --seconds 10",
            "--workload serve-hot --seed 3 --seconds 10 --trace 1 --extra 1",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }
}
