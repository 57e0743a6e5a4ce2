//! `pacq loadgen` — the load-generator harness for `pacq serve`
//! (DESIGN.md §16).
//!
//! The serving tier's scale claims (hot-tier hit rates, admission
//! fairness, tail latency) only mean something under load, so the
//! harness drives a live `pacq-serve/v1` endpoint with a deterministic
//! mixed workload and measures what comes back:
//!
//! - **Zero-lost accounting.** Every request carries a unique numeric
//!   `id`; a reply (ok *or* typed error frame) retires exactly one
//!   pending id. A missing reply is a hard, typed failure — never a
//!   silently shortened histogram. A 60-second read timeout turns a
//!   hung server into a loud error instead of a hung harness.
//! - **Deterministic mix.** `--unique N` distinct evaluation points
//!   (distinct `m`, cycling architectures and precisions) are replayed
//!   round-robin across `--requests`, so a run is reproducible and the
//!   hot-tier working set is exactly N entries.
//! - **Byte-identity sampling.** For the first `--sample` unique points
//!   the served `report` rendering is compared against a fresh
//!   in-process [`GemmRunner::analyze`] — the serve conformance
//!   contract, re-checked under concurrency (a mismatch is an
//!   audit-class error, exit 7).
//! - **Latency provenance.** Per-request latencies are merged across
//!   client threads and reported as exact nearest-rank p50/p95/p99
//!   plus a log2 histogram, both on stdout and in the `--metrics`
//!   manifest (`loadgen.*` counters and a `loadgen` result record).
//!
//! The target comes from exactly one of `--addr HOST:PORT` (a running
//! server), `--ready-log FILE` (poll a server's stdout log for its
//! ready frame, as `tests/serve_load.rs` does), or `--spawn` (bind an
//! in-process [`Server`] on an ephemeral port, sharing this invocation's
//! `--cache`/`--hot`, and drain it when the run ends).

use crate::args::Args;
use crate::dse::DseJob;
use crate::runner::GemmRunner;
use crate::serve::{validate_serve_count, ServeOptions, Server};
use pacq_cache::ReportCache;
use pacq_error::{PacqError, PacqResult};
use pacq_fp16::WeightPrecision;
use pacq_simt::{Architecture, GemmShape, Workload};
use pacq_trace::Json;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::ops::Range;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Default `--requests` (one quick local run; CI and acceptance runs
/// pass their own).
pub const DEFAULT_REQUESTS: u64 = 10_000;

/// Hard cap on `--requests`.
pub const MAX_REQUESTS: u64 = 100_000_000;

/// Default / max `--clients` (pipelined connections).
pub const DEFAULT_CLIENTS: u64 = 4;
/// Hard cap on `--clients`.
pub const MAX_CLIENTS: u64 = 256;

/// Default `--window` (in-flight requests per connection): enough
/// pipelining to keep a connection's server thread busy between
/// replies.
pub const DEFAULT_WINDOW: u64 = 8;
/// Hard cap on `--window`.
pub const MAX_WINDOW: u64 = 4096;

/// Default `--unique` (distinct evaluation points in the mix).
pub const DEFAULT_UNIQUE: u64 = 64;
/// Hard cap on `--unique` (bounds the largest generated `m`).
pub const MAX_UNIQUE: u64 = 4096;

/// Default `--sample` (points re-checked for byte identity).
pub const DEFAULT_SAMPLE: u64 = 8;
/// Hard cap on `--sample`.
pub const MAX_SAMPLE: u64 = 256;

/// How long each client connection waits for one reply before calling
/// it lost. Generous: the server prices analytically in well under a
/// second even cold, so a minute of silence is a wedged server.
const READ_TIMEOUT: Duration = Duration::from_secs(60);

/// How long `--ready-log` polls for the server's ready frame.
const READY_TIMEOUT: Duration = Duration::from_secs(30);

fn io_err(context: &'static str, e: &std::io::Error) -> PacqError {
    PacqError::Io {
        context,
        message: e.to_string(),
    }
}

fn proto(message: impl Into<String>) -> PacqError {
    PacqError::protocol("loadgen", message)
}

// ---------------------------------------------------------------------
// The deterministic point mix
// ---------------------------------------------------------------------

/// Builds `unique` distinct points: `m = 16·(i+1)` with `n = k = 256`
/// (every point is a distinct cache key by shape alone), cycling the
/// three architectures and both precisions for datapath variety. The
/// datapath and group are the serve-side defaults, [`GemmRunner::new`]'s
/// Table I machine, which the request frames leave unspelled.
fn point_mix(unique: usize) -> Vec<DseJob> {
    const ARCHS: [Architecture; 3] = [
        Architecture::Pacq,
        Architecture::StandardDequant,
        Architecture::PackedK,
    ];
    let machine = GemmRunner::new();
    (0..unique)
        .map(|i| DseJob {
            arch: ARCHS[i % ARCHS.len()],
            workload: Workload::new(
                GemmShape::new(16 * (i + 1), 256, 256),
                WeightPrecision::ALL[i % WeightPrecision::ALL.len()],
            ),
            width: machine.config().dp_width,
            dup: machine.config().adder_tree_duplication,
            group: machine.group(),
        })
        .collect()
}

/// Renders the request frame for `point` under `id`.
fn request_line(id: u64, point: &DseJob) -> String {
    let mut frame = Json::object();
    frame.set("op", "analyze");
    frame.set("id", id);
    frame.set("shape", point.workload.shape.to_string());
    frame.set("arch", point.arch.token());
    frame.set("precision", point.workload.precision.token());
    frame.render_line()
}

/// Recomputes `point` in-process without any cache, and renders the
/// report in the lossless `pacq-cache/v1` encoding — the exact string a
/// conforming server must have sent.
fn reference_line(point: &DseJob) -> PacqResult<String> {
    let runner = point.runner(&GemmRunner::new());
    let report = runner.analyze(point.arch, point.workload)?;
    let key = runner.cache_key(point.arch, point.workload);
    Ok(report.to_json(&key).render_line())
}

// ---------------------------------------------------------------------
// Client connections
// ---------------------------------------------------------------------

/// What one client connection measured.
#[derive(Debug, Default)]
struct ClientOutcome {
    /// Per-request round-trip latencies, microseconds, send order.
    latencies_us: Vec<u64>,
    /// Replies with `ok: true`.
    ok: u64,
    /// Typed error frames (still replies — never lost).
    errors: u64,
    /// `(point index, served report rendering)` for sampled points.
    captures: Vec<(usize, String)>,
}

/// Drives one pipelined connection: keeps up to `window` requests in
/// flight from the contiguous id range `ids`, retires them by echoed
/// id, and captures report renderings for point indices below
/// `sample`.
///
/// # Errors
///
/// Io for connect/write failures, protocol-class for a lost or
/// unattributable reply (timeout, early close, unknown id).
fn run_client(
    addr: &str,
    ids: Range<u64>,
    points: &Arc<Vec<DseJob>>,
    window: usize,
    sample: usize,
) -> PacqResult<ClientOutcome> {
    let stream = TcpStream::connect(addr).map_err(|e| io_err("loadgen::connect", &e))?;
    stream
        .set_read_timeout(Some(READ_TIMEOUT))
        .map_err(|e| io_err("loadgen::connect", &e))?;
    let mut writer = stream
        .try_clone()
        .map_err(|e| io_err("loadgen::connect", &e))?;
    let mut reader = BufReader::new(stream);
    let unique = points.len() as u64;
    let mut outcome = ClientOutcome::default();
    let mut captured = vec![false; sample];
    let mut pending: HashMap<u64, Instant> = HashMap::new();
    let mut next = ids.start;
    let mut line = String::new();
    while next < ids.end || !pending.is_empty() {
        // Top up the window and send the burst in one write: a frame
        // whose newline goes out in a later write sits behind Nagle
        // until the server's delayed ACK, ~40 ms.
        let mut burst = String::new();
        while next < ids.end && pending.len() < window {
            burst.push_str(&request_line(next, &points[(next % unique) as usize]));
            burst.push('\n');
            pending.insert(next, Instant::now());
            next += 1;
        }
        if !burst.is_empty() {
            writer
                .write_all(burst.as_bytes())
                .map_err(|e| io_err("loadgen::send", &e))?;
        }
        // Retire one reply. The server answers a connection's frames
        // in order, but attribution still goes by the echoed id, never
        // by position, so a reply to the wrong request cannot pass.
        line.clear();
        let n = reader
            .read_line(&mut line)
            .map_err(|e| proto(format!("reply timed out or failed: {e}")))?;
        if n == 0 {
            return Err(proto(format!(
                "server closed the connection with {} replies outstanding",
                pending.len()
            )));
        }
        let doc =
            Json::parse(line.trim()).map_err(|e| proto(format!("unparseable reply frame: {e}")))?;
        let id = doc
            .get("id")
            .and_then(Json::as_num)
            .filter(|v| v.fract() == 0.0 && *v >= 0.0)
            .map(|v| v as u64)
            .ok_or_else(|| proto("reply frame has no numeric id"))?;
        let started = pending
            .remove(&id)
            .ok_or_else(|| proto(format!("reply for unknown or already-retired id {id}")))?;
        outcome
            .latencies_us
            .push(u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX));
        if doc.get("ok") == Some(&Json::Bool(true)) {
            outcome.ok += 1;
            let slot = (id % unique) as usize;
            if slot < sample && !captured[slot] {
                if let Some(report) = doc.get("report") {
                    outcome.captures.push((slot, report.render_line()));
                    captured[slot] = true;
                }
            }
        } else {
            outcome.errors += 1;
        }
    }
    Ok(outcome)
}

// ---------------------------------------------------------------------
// Latency statistics
// ---------------------------------------------------------------------

/// Exact nearest-rank percentile over an ascending-sorted slice.
fn percentile(sorted_us: &[u64], p: f64) -> u64 {
    if sorted_us.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted_us.len() as f64).ceil() as usize;
    sorted_us[rank.clamp(1, sorted_us.len()) - 1]
}

/// Log2 latency histogram: bucket `i` counts latencies in
/// `(2^(i-1), 2^i]` microseconds (bucket 0 is `≤ 1 µs`).
fn log2_histogram(sorted_us: &[u64]) -> Vec<(u64, u64)> {
    let mut counts: Vec<u64> = Vec::new();
    for &lat in sorted_us {
        let bucket = (64 - lat.max(1).leading_zeros() as usize)
            - usize::from(lat.is_power_of_two() || lat == 0);
        if counts.len() <= bucket {
            counts.resize(bucket + 1, 0);
        }
        counts[bucket] += 1;
    }
    counts
        .into_iter()
        .enumerate()
        .map(|(i, c)| (1u64 << i, c))
        .collect()
}

// ---------------------------------------------------------------------
// Target resolution
// ---------------------------------------------------------------------

/// Polls `path` for the server's `"event":"ready"` frame and returns
/// its announced `addr`. This is how scripts and tests find a `--port 0`
/// server: start it with stdout redirected to a log, point the harness
/// at the log.
fn wait_for_ready(path: &str) -> PacqResult<String> {
    let deadline = Instant::now() + READY_TIMEOUT;
    loop {
        if let Ok(text) = std::fs::read_to_string(path) {
            for line in text.lines() {
                let Ok(doc) = Json::parse(line.trim()) else {
                    continue;
                };
                if doc.get("event").and_then(Json::as_str) == Some("ready") {
                    if let Some(addr) = doc.get("addr").and_then(Json::as_str) {
                        return Ok(addr.to_string());
                    }
                }
            }
        }
        if Instant::now() >= deadline {
            return Err(proto(format!(
                "no ready frame with an `addr` appeared in `{path}` within {}s",
                READY_TIMEOUT.as_secs()
            )));
        }
        thread::sleep(Duration::from_millis(50));
    }
}

/// Where the load goes.
enum Target {
    /// A server someone else is running.
    Addr(String),
    /// A server whose stdout log announces the address.
    ReadyLog(String),
    /// Bind an in-process server on an ephemeral port for this run.
    Spawn,
}

// ---------------------------------------------------------------------
// CLI entry point
// ---------------------------------------------------------------------

/// `pacq loadgen (--addr HOST:PORT | --ready-log FILE | --spawn)
/// [--requests N] [--clients N] [--window N] [--unique N] [--sample N]`
/// — drives the workload and returns the human summary.
///
/// # Errors
///
/// Usage errors for flag problems; io/protocol-class errors for
/// connection failures and lost replies; audit-class for a sampled
/// report that differs from in-process computation.
pub fn run_cli(args: &Args, cache: Option<Arc<ReportCache>>) -> PacqResult<String> {
    let usage = |msg: &str| PacqError::usage(msg.to_string());
    let mut targets = args
        .values("--addr")
        .map(|a| Target::Addr(a.to_string()))
        .chain(
            args.values("--ready-log")
                .map(|p| Target::ReadyLog(p.to_string())),
        )
        .chain(args.has("--spawn").then_some(Target::Spawn));
    let target = targets.next();
    if targets.next().is_some() {
        return Err(usage("pass exactly one of --addr, --ready-log, --spawn"));
    }
    let count = |flag: &str, default: u64, max: u64| -> PacqResult<u64> {
        Ok(args
            .last(flag, |v| validate_serve_count(v, flag, max))?
            .unwrap_or(default))
    };
    let requests = count("--requests", DEFAULT_REQUESTS, MAX_REQUESTS)?;
    let clients = count("--clients", DEFAULT_CLIENTS, MAX_CLIENTS)?;
    let window = count("--window", DEFAULT_WINDOW, MAX_WINDOW)?;
    let unique = count("--unique", DEFAULT_UNIQUE, MAX_UNIQUE)?;
    let sample = count("--sample", DEFAULT_SAMPLE, MAX_SAMPLE)?;
    let Some(target) = target else {
        return Err(usage(
            "loadgen wants a target: --addr HOST:PORT, --ready-log FILE or --spawn",
        ));
    };
    let clients = clients.min(requests).max(1);
    // Sampling more points than the mix holds would wait forever on
    // captures that cannot happen; pin instead of erroring.
    let sample = sample.min(unique) as usize;

    let spawned = match &target {
        Target::Spawn => Some(Server::bind("127.0.0.1:0", ServeOptions::default(), cache)?),
        Target::Addr(_) | Target::ReadyLog(_) => None,
    };
    let addr = match &target {
        Target::Addr(addr) => addr.clone(),
        Target::ReadyLog(path) => wait_for_ready(path)?,
        Target::Spawn => spawned
            .as_ref()
            .map(|s| s.addr().to_string())
            .unwrap_or_default(),
    };

    let points = Arc::new(point_mix(unique as usize));
    let started = Instant::now();
    let mut handles = Vec::with_capacity(clients as usize);
    let per = requests / clients;
    let extra = requests % clients;
    let mut cursor = 0u64;
    for c in 0..clients {
        let count = per + u64::from(c < extra);
        let ids = cursor..cursor + count;
        cursor += count;
        let addr = addr.clone();
        let points = Arc::clone(&points);
        handles.push(thread::spawn(move || {
            run_client(&addr, ids, &points, window as usize, sample)
        }));
    }
    let mut latencies: Vec<u64> = Vec::with_capacity(requests as usize);
    let mut ok = 0u64;
    let mut errors = 0u64;
    let mut served: Vec<Option<String>> = vec![None; sample];
    for handle in handles {
        let outcome = handle
            .join()
            .map_err(|_| proto("a client thread panicked"))??;
        latencies.extend(outcome.latencies_us);
        ok += outcome.ok;
        errors += outcome.errors;
        for (slot, rendering) in outcome.captures {
            if let Some(entry) = served.get_mut(slot) {
                entry.get_or_insert(rendering);
            }
        }
    }
    let elapsed = started.elapsed().as_secs_f64().max(1e-9);
    if let Some(server) = spawned {
        server.shutdown();
        server.wait()?;
    }

    // Zero-lost is the whole contract: every id must have come back.
    let replies = latencies.len() as u64;
    if replies != requests {
        return Err(proto(format!(
            "lost replies: sent {requests}, retired {replies}"
        )));
    }

    // Byte-identity spot check against fresh in-process computation.
    let mut sampled = 0u64;
    for (slot, rendering) in served.iter().enumerate() {
        let Some(rendering) = rendering else {
            // Every sampled slot got at least one ok reply unless the
            // server answered it with errors only (e.g. rate limiting);
            // that is visible in the error count, not a silent skip.
            continue;
        };
        let point = &points[slot];
        let expected = reference_line(point)?;
        if *rendering != expected {
            return Err(PacqError::AuditMismatch {
                counter: "loadgen.report_bytes".to_string(),
                case: format!(
                    "{} {} {}",
                    point.workload.shape,
                    point.arch.token(),
                    point.workload.precision.token()
                ),
                observed: rendering.clone(),
                expected,
            });
        }
        sampled += 1;
    }

    latencies.sort_unstable();
    let (p50, p95, p99) = (
        percentile(&latencies, 50.0),
        percentile(&latencies, 95.0),
        percentile(&latencies, 99.0),
    );
    let throughput = requests as f64 / elapsed;

    pacq_trace::add_counter("loadgen.requests", requests);
    pacq_trace::add_counter("loadgen.replies", replies);
    pacq_trace::add_counter("loadgen.ok", ok);
    pacq_trace::add_counter("loadgen.errors", errors);
    pacq_trace::add_counter("loadgen.lost", 0);
    pacq_trace::add_counter("loadgen.sampled_identical", sampled);
    pacq_trace::add_counter("loadgen.p50_us", p50);
    pacq_trace::add_counter("loadgen.p95_us", p95);
    pacq_trace::add_counter("loadgen.p99_us", p99);
    if pacq_trace::is_enabled() {
        let mut record = Json::object();
        record.set("kind", "loadgen");
        record.set("requests", requests.to_string());
        record.set("clients", clients.to_string());
        record.set("window", window.to_string());
        record.set("unique", unique.to_string());
        record.set("ok", ok.to_string());
        record.set("errors", errors.to_string());
        record.set("lost", "0");
        record.set("sampled_identical", sampled.to_string());
        record.set("elapsed_s", elapsed);
        record.set("throughput_rps", throughput);
        record.set("p50_us", p50.to_string());
        record.set("p95_us", p95.to_string());
        record.set("p99_us", p99.to_string());
        let buckets = log2_histogram(&latencies)
            .into_iter()
            .map(|(le, count)| {
                let mut b = Json::object();
                b.set("le_us", le.to_string());
                b.set("count", count.to_string());
                b
            })
            .collect();
        record.set("latency_histogram_log2", Json::Arr(buckets));
        pacq_trace::record_result("loadgen", record);
    }

    Ok(format!(
        "loadgen: {requests} requests to {addr} over {clients} conns (window {window}, \
{unique} unique points): {ok} ok, {errors} errors, 0 lost in {elapsed:.3} s \
({throughput:.0} req/s)\nlatency µs: p50 {p50}, p95 {p95}, p99 {p99}; \
{sampled} sampled reports byte-identical\n"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cli;

    fn argv(text: &str) -> Vec<String> {
        text.split_whitespace().map(str::to_string).collect()
    }

    /// `run_cli` on an argv read through the shared grammar.
    fn run_argv(argv: &[String]) -> PacqResult<String> {
        run_cli(
            &Args::parse(argv, "pacq loadgen", cli::command_flags("loadgen").unwrap())?,
            None,
        )
    }

    #[test]
    fn the_mix_is_deterministic_and_all_points_are_distinct() {
        let a = point_mix(48);
        let b = point_mix(48);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.workload.shape, y.workload.shape);
            assert_eq!(x.arch, y.arch);
        }
        let mut shapes: Vec<String> = a.iter().map(|p| p.workload.shape.to_string()).collect();
        shapes.sort_unstable();
        shapes.dedup();
        assert_eq!(shapes.len(), 48, "every point must be a distinct key");
    }

    #[test]
    fn percentiles_are_exact_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 95.0), 95);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&v, 100.0), 100);
        assert_eq!(percentile(&[7], 50.0), 7);
        assert_eq!(percentile(&[], 99.0), 0);
    }

    #[test]
    fn histogram_buckets_are_powers_of_two() {
        let hist = log2_histogram(&[1, 2, 3, 4, 1000]);
        let total: u64 = hist.iter().map(|(_, c)| c).sum();
        assert_eq!(total, 5);
        // 1 and 2 land in ≤1 / ≤2; 3 and 4 in ≤4; 1000 in ≤1024.
        assert_eq!(hist[0], (1, 1));
        assert_eq!(hist[1], (2, 1));
        assert_eq!(hist[2], (4, 2));
        assert_eq!(hist.last(), Some(&(1024, 1)));
    }

    #[test]
    fn flags_are_validated() {
        for bad in [
            "",                      // no target
            "--addr a:1 --spawn",    // two targets
            "--spawn --requests 0",  // zero count
            "--spawn --requests -5", // sign
            "--spawn --clients 4.0", // decimal
            "--spawn --window nope", // word
            "--spawn --frobnicate",  // unknown flag
            "--addr",                // missing value
        ] {
            let err = run_argv(&argv(bad)).unwrap_err();
            assert_eq!(err.exit_code(), 2, "`{bad}`: {err}");
        }
    }

    #[test]
    fn spawned_smoke_run_loses_nothing_and_matches_in_process() {
        let out = run_argv(&argv(
            "--spawn --requests 96 --clients 3 --window 4 --unique 6 --sample 6",
        ))
        .expect("smoke run");
        assert!(out.contains("96 requests"), "{out}");
        assert!(out.contains("96 ok, 0 errors, 0 lost"), "{out}");
        assert!(out.contains("6 sampled reports byte-identical"), "{out}");
    }
}
