//! `serve-hot`: an in-process `pacq serve` over a disk report store with
//! a hot tier, warmed during set-up, driven by closed-loop clients (each
//! one connection with a fixed pipeline window) that draw Zipf-skewed
//! LLaMA-2-7B points from a set three times the hot capacity. Most hits
//! come from the hot tier and a stable share from disk; nothing is
//! simulated after warm-up, so frame parsing, queueing, key building,
//! cache reads, reply encoding and TCP do the work.

use crate::gen::{serve_inputs, ServeInputs};
use crate::spans::{Breakdown, Recorder};
use crate::stats::{nearest_rank, plain_median, OkTally, Samples};
use crate::{finish_layers, Ctx, Metrics, RunResult};
use pacq::{
    Architecture, GemmReport, GemmRunner, GroupShape, PacqResult, ReportCache, ServeOptions,
    Server, SmConfig, Workload,
};
use pacq_cache::{arch_token, precision_token};
use pacq_trace::Json;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The tail percentile, and the fewest requests that support it. Each
/// 0.5 s window holds enough requests for p99 too, but on a shared
/// 2-vCPU host a neighbour's burst moved a run's windowed p99 by up to
/// 4x (ten-run IQR 106% of the median) while p90 moved with p50; the
/// p99 stays visible as the traced `serve.rtt.us_p99`.
const TAIL_PERCENTILE: f64 = 90.0;
const MIN_OPS: usize = 100;

/// Hot-tier entries: a third of the 96-point set.
const HOT_CAPACITY: usize = 32;
/// Requests in flight per connection.
const WINDOW: usize = 8;
/// Requests generated per client; a longer run cycles through them.
const STREAM_LEN: usize = 1 << 19;
/// Round trips a client records: over 40 s of replies at 25 000 req/s
/// over two clients. Later replies still count toward the request rate.
const RTT_CAP: usize = 1 << 20;
/// Independent set-ups (warm-up, bind) per run; `setup_s` is their
/// median.
const SETUP_REPS: usize = 3;
/// Throughput and latency are medians over windows of this length.
const RATE_WINDOW: Duration = Duration::from_millis(500);
/// Requests the line-reading client sends in a traced run.
const NEWLINE_REQUESTS: usize = 160;
/// Traced requests replayed in-process for the layer breakdown.
const PROBE_MAX: usize = 20_000;

const REPLY_PREFIX: &str = "{\"schema\":\"pacq-serve/v1\",\"id\":";

/// The runner `pacq serve` builds for a default analyze frame (dup 2,
/// width 4, g128), so in-process keys and reports match the server's.
fn point_runner(cache: Option<Arc<ReportCache>>) -> GemmRunner {
    let mut cfg = SmConfig::volta_like();
    cfg.adder_tree_duplication = 2;
    cfg.dp_width = 4;
    GemmRunner::new()
        .with_config(cfg)
        .with_group(GroupShape::G128)
        .with_cache_opt(cache)
        .without_result_recording()
}

/// The in-process encoding of a report, as the server embeds it.
fn encode(runner: &GemmRunner, report: &GemmReport) -> String {
    let key = runner.cache_key(report.arch, report.workload);
    report.to_cached().to_json(&key).render_line()
}

const REQUEST_PREFIX: &str = "{\"op\":\"analyze\",\"id\":";

/// The part of a point's request frame after its id.
fn request_tail(arch: Architecture, wl: Workload) -> String {
    format!(
        ",\"shape\":\"{}\",\"arch\":\"{}\",\"precision\":\"{}\"}}",
        wl.shape,
        arch_token(arch),
        precision_token(wl.precision)
    )
}

/// When a client takes a reply as complete. Every client writes each
/// request line in one write with `TCP_NODELAY` set.
///
/// The server writes each reply as two writes, the line and then its
/// newline, with Nagle's algorithm on, so a newline can leave as a
/// segment of its own and hold the next reply until it is
/// acknowledged. A client with nothing to send acknowledges only when
/// its delayed-ACK timer fires (about 40 ms on Linux), and is then paced
/// by that timer rather than by the server. The traced run measures a
/// plain line-reading client as `serve.newline_rtt.us_p50`.
#[derive(Clone, Copy, PartialEq)]
enum ReplyEnd {
    /// At the last byte of the expected reply, before its newline; and
    /// a read that completes no reply is acknowledged at once with an
    /// empty line (a keep-alive the protocol ignores).
    Bytes,
    /// At the newline, as a line-reading client does.
    Newline,
}

/// What the clients of the request mix share.
struct Mix<'a> {
    addr: SocketAddr,
    /// Per point, its request frame after the id.
    requests: &'a [String],
    /// Per point, the reply bytes after the id.
    expected: &'a [String],
    /// Per point, its modelled MACs.
    macs: &'a [f64],
}

/// One traffic phase: runs from `start` until `deadline`, and each
/// client sends at most `limit` requests.
#[derive(Clone, Copy)]
struct Phase {
    id_base: u64,
    start: Instant,
    deadline: Instant,
    limit: usize,
    end: ReplyEnd,
    /// How many of a client's first verified replies to keep.
    keep_first: usize,
}

/// What client connections saw. The round-trip buffer is sized and
/// written before traffic starts, so peak RSS does not grow with the
/// number of requests a run completes.
#[derive(Default)]
struct ClientLog {
    tally: OkTally,
    queue_full: u64,
    /// Each verified reply as `window << 32 | round trip in ns`
    /// (saturating), where `window` is the `RATE_WINDOW` it ended in.
    timed: Vec<u64>,
    /// Verified replies per `RATE_WINDOW` since the phase start.
    per_window: Vec<u64>,
    /// Modelled MACs of the verified replies.
    macs: f64,
    /// Verified replies (`timed` may have been dropped).
    done: usize,
    /// The first verified replies: point, send time, reply time.
    first: Vec<(u16, Instant, Instant)>,
}

impl ClientLog {
    fn merge(&mut self, other: ClientLog) {
        self.tally.attempted += other.tally.attempted;
        self.tally.ok += other.tally.ok;
        self.queue_full += other.queue_full;
        self.timed.extend(other.timed);
        if self.per_window.len() < other.per_window.len() {
            self.per_window.resize(other.per_window.len(), 0);
        }
        for (a, b) in self.per_window.iter_mut().zip(other.per_window) {
            *a += b;
        }
        self.macs += other.macs;
        self.done += other.done;
        self.first.extend(other.first);
    }

    fn rtts_us(&self) -> Vec<f64> {
        self.timed
            .iter()
            .map(|&t| (t & 0xFFFF_FFFF) as f64 / 1e3)
            .collect()
    }

    /// Each full window's nearest-rank `p`-th round trip, in µs; a
    /// window with too few samples for `p` is left out.
    fn window_percentiles(&mut self, p: f64) -> Vec<f64> {
        self.timed.sort_unstable();
        self.timed
            .chunk_by(|a, b| a >> 32 == b >> 32)
            .filter(|w| ((w[0] >> 32) as usize) < self.per_window.len())
            .filter_map(|w| nearest_rank(w.len(), p).map(|i| (w[i] & 0xFFFF_FFFF) as f64 / 1e3))
            .collect()
    }

    /// Each full window's request rate, per second.
    fn window_rates(&self) -> Vec<f64> {
        self.per_window
            .iter()
            .map(|&c| c as f64 / RATE_WINDOW.as_secs_f64())
            .collect()
    }
}

/// The traffic of one measured stretch and its per-window figures.
struct Measured {
    log: ClientLog,
    rates: Vec<f64>,
    p50s: Vec<f64>,
    tails: Vec<f64>,
}

/// Runs `window` of traffic on fresh connections. Unless `keep_rtts`,
/// the per-request round trips are dropped once the window figures are
/// taken.
fn measured(
    mix: &Mix,
    streams: &[Vec<u16>],
    id_base: u64,
    window: Duration,
    keep_rtts: bool,
) -> Result<Measured, String> {
    let streams: Vec<&[u16]> = streams.iter().map(Vec::as_slice).collect();
    let start = Instant::now();
    let phase = Phase {
        id_base,
        start,
        deadline: start + window,
        limit: usize::MAX,
        end: ReplyEnd::Bytes,
        keep_first: if keep_rtts {
            PROBE_MAX / streams.len()
        } else {
            0
        },
    };
    let mut log = traffic(mix, &streams, phase)?;
    let rates = log.window_rates();
    let p50s = log.window_percentiles(50.0);
    let tails = log.window_percentiles(TAIL_PERCENTILE);
    if !keep_rtts {
        log.timed = Vec::new();
    }
    Ok(Measured {
        log,
        rates,
        p50s,
        tails,
    })
}

/// What the front of a client's receive buffer holds.
#[derive(Debug, PartialEq)]
enum Parse {
    /// Not a whole reply yet.
    Need,
    /// `n` newlines that end earlier replies.
    Skip(usize),
    /// One reply of `len` bytes: to pending `id`, if it names one, and
    /// whether its bytes are the expected ones.
    Reply {
        len: usize,
        id: Option<u64>,
        ok: bool,
        queue_full: bool,
    },
}

fn contains(hay: &[u8], needle: &[u8]) -> bool {
    hay.windows(needle.len()).any(|w| w == needle)
}

/// Parses the reply at the front of `buf`. A reply that differs from
/// the expected bytes, or answers no pending id, ends at its newline.
fn parse_reply<'a>(
    buf: &[u8],
    expected_for: impl Fn(u64) -> Option<&'a [u8]>,
    end: ReplyEnd,
) -> Parse {
    let newlines = buf.iter().take_while(|&&b| b == b'\n').count();
    if newlines > 0 {
        return Parse::Skip(newlines);
    }
    let whole_line = |id: Option<u64>| match buf.iter().position(|&b| b == b'\n') {
        Some(i) => Parse::Reply {
            len: i + 1,
            id,
            ok: false,
            queue_full: contains(&buf[..i], b"\"class\":\"queue_full\""),
        },
        None => Parse::Need,
    };
    let prefix = REPLY_PREFIX.as_bytes();
    let seen = prefix.len().min(buf.len());
    if buf[..seen] != prefix[..seen] {
        return whole_line(None);
    }
    let rest = &buf[seen..];
    let digits = rest.iter().take_while(|b| b.is_ascii_digit()).count();
    if seen < prefix.len() || digits == rest.len() {
        return Parse::Need;
    }
    let id = std::str::from_utf8(&rest[..digits])
        .ok()
        .and_then(|d| d.parse::<u64>().ok());
    let Some((id, expected)) = id.and_then(|id| expected_for(id).map(|e| (id, e))) else {
        return whole_line(None);
    };
    let body = &rest[digits..];
    let n = expected.len().min(body.len());
    if body[..n] != expected[..n] {
        return whole_line(Some(id));
    }
    let mut len = prefix.len() + digits + expected.len();
    if end == ReplyEnd::Newline {
        match body.get(expected.len()) {
            None => return Parse::Need,
            Some(b'\n') => len += 1,
            Some(_) => return whole_line(Some(id)),
        }
    } else if body.len() < expected.len() {
        return Parse::Need;
    }
    Parse::Reply {
        len,
        id: Some(id),
        ok: true,
        queue_full: false,
    }
}

/// One closed-loop client: keeps `WINDOW` requests in flight until the
/// phase ends, then drains. Every reply must answer a pending id exactly
/// once and carry the expected report bytes.
fn client(mix: &Mix, stream: &[u16], phase: Phase) -> std::io::Result<ClientLog> {
    let mut conn = TcpStream::connect(mix.addr)?;
    conn.set_nodelay(true)?;
    conn.set_read_timeout(Some(Duration::from_secs(30)))?;
    let full_windows = phase
        .deadline
        .saturating_duration_since(phase.start)
        .as_nanos()
        / RATE_WINDOW.as_nanos();
    let mut log = ClientLog {
        timed: vec![u64::MAX; RTT_CAP.min(phase.limit)],
        per_window: vec![0; full_windows as usize],
        ..ClientLog::default()
    };
    let (mut done, mut recorded) = (0usize, 0usize);
    let mut pending: HashMap<u64, (u16, Instant)> = HashMap::with_capacity(2 * WINDOW);
    let mut sent = 0usize;
    let send =
        |conn: &mut TcpStream, pending: &mut HashMap<u64, (u16, Instant)>, sent: &mut usize| {
            let point = stream[*sent % stream.len()];
            let id = phase.id_base + *sent as u64;
            let tail = &mix.requests[point as usize];
            let line = format!("{REQUEST_PREFIX}{id}{tail}\n");
            *sent += 1;
            pending.insert(id, (point, Instant::now()));
            conn.write_all(line.as_bytes())
        };
    for _ in 0..WINDOW.min(phase.limit) {
        send(&mut conn, &mut pending, &mut sent)?;
    }
    let mut buf = vec![0u8; 1 << 16];
    let (mut start, mut end) = (0usize, 0usize);
    while !pending.is_empty() {
        if buf.len() - end < 4096 {
            buf.copy_within(start..end, 0);
            end -= start;
            start = 0;
            if buf.len() - end < 4096 {
                buf.resize(2 * buf.len(), 0);
            }
        }
        let n = conn.read(&mut buf[end..])?;
        if n == 0 {
            break; // server closed: the rest are lost
        }
        end += n;
        let mut completed = 0;
        loop {
            let expected_for = |id: u64| {
                pending
                    .get(&id)
                    .map(|&(p, _)| mix.expected[p as usize].as_bytes())
            };
            let (len, id, ok, queue_full) =
                match parse_reply(&buf[start..end], expected_for, phase.end) {
                    Parse::Need => break,
                    Parse::Skip(n) => {
                        start += n;
                        continue;
                    }
                    Parse::Reply {
                        len,
                        id,
                        ok,
                        queue_full,
                    } => (len, id, ok, queue_full),
                };
            start += len;
            completed += 1;
            let now = Instant::now();
            log.queue_full += u64::from(queue_full);
            // An id never sent, or answered twice, is not ok.
            let Some((point, at)) = id.and_then(|id| pending.remove(&id)) else {
                log.tally.record(false);
                continue;
            };
            log.tally.record(ok);
            if ok {
                let rtt = now.duration_since(at).as_nanos().min(u128::from(u32::MAX));
                let w =
                    now.saturating_duration_since(phase.start).as_nanos() / RATE_WINDOW.as_nanos();
                if let Some(slot) = log.timed.get_mut(recorded) {
                    *slot = (w.min(u128::from(u32::MAX)) << 32 | rtt) as u64;
                    recorded += 1;
                }
                done += 1;
                if let Some(count) = log.per_window.get_mut(w as usize) {
                    *count += 1;
                }
                log.macs += mix.macs[point as usize];
                if log.first.len() < phase.keep_first {
                    log.first.push((point, at, now));
                }
            }
            if now < phase.deadline && sent < phase.limit {
                send(&mut conn, &mut pending, &mut sent)?;
            }
        }
        if completed == 0 && phase.end == ReplyEnd::Bytes {
            conn.write_all(b"\n")?;
        }
    }
    // Requests never answered count as attempted and failed.
    for _ in 0..pending.len() {
        log.tally.record(false);
    }
    log.timed.truncate(recorded);
    log.done = done;
    Ok(log)
}

/// Runs one client per stream through `phase` and merges their logs;
/// ids are unique across clients and phases.
fn traffic(mix: &Mix, streams: &[&[u16]], phase: Phase) -> Result<ClientLog, String> {
    let logs: Vec<std::io::Result<ClientLog>> = std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .iter()
            .enumerate()
            .map(|(c, stream)| {
                let phase = Phase {
                    id_base: phase.id_base + ((c as u64) << 40),
                    ..phase
                };
                scope.spawn(move || client(mix, stream, phase))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut all = ClientLog::default();
    for log in logs {
        all.merge(log.map_err(|e| format!("client connection failed: {e}"))?);
    }
    Ok(all)
}

/// One `stats` frame's counters.
fn server_stats(addr: SocketAddr) -> Result<Json, String> {
    let io = |e: std::io::Error| e.to_string();
    let conn = TcpStream::connect(addr).map_err(io)?;
    conn.set_read_timeout(Some(Duration::from_secs(30)))
        .map_err(io)?;
    let mut out = conn.try_clone().map_err(io)?;
    out.write_all(b"{\"op\":\"stats\",\"id\":\"stats\"}\n")
        .map_err(io)?;
    let mut line = String::new();
    BufReader::new(conn).read_line(&mut line).map_err(io)?;
    let doc = Json::parse(line.trim()).map_err(|e| e.to_string())?;
    doc.get("stats")
        .cloned()
        .ok_or_else(|| format!("no stats in {line}"))
}

fn stat(stats: &Json, field: &str) -> Result<f64, String> {
    stats
        .get(field)
        .and_then(Json::as_str)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("stats frame lacks `{field}`"))
}

/// A bound, warmed server, the store behind it, and the in-process
/// encoding of every point's report.
struct Live {
    server: Server,
    cache: Arc<ReportCache>,
    bodies: Vec<String>,
}

/// Warms a fresh store with every point, leaves the hottest in the hot
/// tier and binds a server on it. The store starts empty, so the warm-up
/// computes every report uncached; their in-process encodings are the
/// oracle the served bytes must equal.
fn set_up(ctx: &Ctx, rep: usize, inputs: &ServeInputs) -> PacqResult<Live> {
    let dir = ctx.work_dir.join(format!("serve-{rep}"));
    let cache = Arc::new(ReportCache::open(dir)?.with_hot_tier(HOT_CAPACITY));
    let runner = point_runner(Some(Arc::clone(&cache)));
    let reports = runner.analyze_sweep(&inputs.points)?;
    let bodies = reports.iter().map(|r| encode(&runner, r)).collect();
    // Leave the most popular points most recently used.
    for &p in inputs.by_rank[..HOT_CAPACITY].iter().rev() {
        let (arch, wl) = inputs.points[p];
        cache.get(&runner.cache_key(arch, wl));
    }
    let options = ServeOptions {
        workers: ctx.jobs,
        ..ServeOptions::default()
    };
    let server = Server::bind("127.0.0.1:0", options, Some(Arc::clone(&cache)))?;
    Ok(Live {
        server,
        cache,
        bodies,
    })
}

fn tear_down(live: Live) -> Result<(), String> {
    live.server.shutdown();
    live.server.wait().map_err(|e| e.to_string())?;
    let _ = std::fs::remove_dir_all(live.cache.dir());
    Ok(())
}

pub fn run(ctx: &Ctx, trace: bool) -> Result<RunResult, String> {
    let err = |e: pacq::PacqError| e.to_string();
    let clients = ctx.jobs.min(2);

    // Set-up: inputs, store warm-up and server bind, repeated.
    let mut setup_times = Vec::new();
    let mut state = None;
    for rep in 0..SETUP_REPS {
        if let Some((previous, _)) = state.take() {
            tear_down(previous)?;
        }
        let t0 = Instant::now();
        let inputs = serve_inputs(ctx.seed, clients, STREAM_LEN);
        let live = set_up(ctx, rep, &inputs).map_err(err)?;
        setup_times.push(t0.elapsed().as_secs_f64());
        state = Some((live, inputs));
    }
    let (live, inputs) = state.ok_or("no set-up ran")?;
    let setup_s = plain_median(setup_times).ok_or("no set-up ran")?;
    let result = measure(ctx, trace, &live, &inputs, setup_s);
    let store = live.cache.stats().map_err(err);
    tear_down(live)?;
    let mut result = result?;
    if trace {
        result.metrics.set("cache.disk_bytes", store?.bytes as f64);
    }
    Ok(result)
}

fn measure(
    ctx: &Ctx,
    trace: bool,
    live: &Live,
    inputs: &ServeInputs,
    setup_s: f64,
) -> Result<RunResult, String> {
    let expected: Vec<String> = live
        .bodies
        .iter()
        .map(|b| format!(",\"ok\":true,\"report\":{b}}}"))
        .collect();
    let requests: Vec<String> = inputs
        .points
        .iter()
        .map(|&(arch, wl)| request_tail(arch, wl))
        .collect();
    let macs: Vec<f64> = inputs
        .points
        .iter()
        .map(|(_, wl)| wl.shape.macs() as f64)
        .collect();
    let mix = Mix {
        addr: live.server.addr(),
        requests: &requests,
        expected: &expected,
        macs: &macs,
    };
    let window = if trace { ctx.seconds / 2 } else { ctx.seconds };
    let untraced = measured(&mix, &inputs.streams, 0, window, trace)?;
    let mut tally = untraced.log.tally;
    let mut metrics = Metrics::default();
    let requests_done = untraced.log.done;
    if requests_done < MIN_OPS {
        return Err(format!("only {requests_done} requests completed"));
    }

    if !trace {
        let median = |values: &[f64], what: &str| {
            plain_median(values.to_vec()).ok_or_else(|| {
                format!("no {RATE_WINDOW:?} window holds enough requests for {what}")
            })
        };
        metrics.set("setup_s", setup_s);
        metrics.set("latency_p50_us", median(&untraced.p50s, "p50")?);
        metrics.set("latency_tail_us", median(&untraced.tails, "the tail")?);
        metrics.tail_percentile = Some(TAIL_PERCENTILE);
        metrics
            .samples
            .push(("latency_windows", untraced.tails.len()));
        let rate = median(&untraced.rates, "a rate")?;
        metrics.set("points_per_s", rate);
        metrics.set(
            "macs_per_s",
            rate * untraced.log.macs / requests_done as f64,
        );
        metrics.samples.push(("ops", requests_done));
        return Ok(RunResult {
            tally,
            metrics,
            spans: None,
        });
    }

    // Traced half: the same traffic, then its first requests' points
    // replayed in-process through the layers a hot request crosses.
    let cache = &live.cache;
    let counters = || {
        [
            cache.hot_hits(),
            cache.hot_misses(),
            cache.hits(),
            cache.misses(),
        ]
    };
    let before = counters();
    let traced = measured(&mix, &inputs.streams, 1 << 48, window, true)?.log;
    let after = counters();
    tally.attempted += traced.tally.attempted;
    tally.ok += traced.tally.ok;
    let stats = server_stats(mix.addr)?;
    let start = Instant::now();
    let newline = client(
        &mix,
        &inputs.streams[0],
        Phase {
            id_base: 2 << 48,
            start,
            deadline: start + Duration::from_secs(60),
            limit: NEWLINE_REQUESTS,
            end: ReplyEnd::Newline,
            keep_first: 0,
        },
    )
    .map_err(|e| format!("line-reading client failed: {e}"))?;
    tally.attempted += newline.tally.attempted;
    tally.ok += newline.tally.ok;

    let rec = Recorder::new();
    let runner = point_runner(Some(Arc::clone(cache)));
    let mut overhead_us = Vec::new();
    for (i, &(point, sent, done)) in traced.first.iter().take(PROBE_MAX).enumerate() {
        let (arch, wl) = inputs.points[point as usize];
        let body = &live.bodies[point as usize];
        let id = i as u64;
        rec.record("serve.rtt", id, sent, done);
        let root = rec.open("probe", id, None);
        let t0 = Instant::now();
        let key = rec.leaf("runner.cache_key", id, root, || runner.cache_key(arch, wl));
        let hit = rec.leaf("cache.get", id, root, || cache.get(&key));
        let encoded = hit.map(|hit| {
            let report = GemmReport::from_cached(hit);
            rec.leaf("report.encode", id, root, || {
                report.to_cached().to_json(&key).render_line()
            })
        });
        let in_process = t0.elapsed();
        rec.close(root);
        let analyzed = {
            let a = rec.open("runner.analyze_hit", id, None);
            let r = runner.analyze(arch, wl);
            rec.close(a);
            r
        };
        // The replay must reproduce what the server sent.
        let same =
            encoded.as_ref() == Some(body) && analyzed.is_ok_and(|r| encode(&runner, &r) == *body);
        if !same {
            tally.record(false);
        }
        let rtt = done.duration_since(sent);
        overhead_us.push((rtt.as_secs_f64() - in_process.as_secs_f64()) * 1e6);
    }

    let b = Breakdown::new(rec.into_spans());
    let gets = (after[0] - before[0]) + (after[1] - before[1]);
    let ratio = |x: u64| x as f64 / gets.max(1) as f64;
    let misses = after[3] - before[3];
    metrics.set("cache.hot_hit_ratio", ratio(after[0] - before[0]));
    metrics.set("cache.disk_hit_ratio", ratio(after[2] - before[2]));
    metrics.set("cache.miss_ratio", ratio(misses));
    // A miss would be simulated and stored by the server.
    metrics.set("simt.simulate.calls", misses as f64);
    metrics.set("cache.put.calls", misses as f64);
    metrics.set_layer_p50(
        "runner.cache_key.us_p50",
        b.durations_us("runner.cache_key"),
    )?;
    metrics.set_layer_p50(
        "runner.analyze_hit.us_p50",
        b.durations_us("runner.analyze_hit"),
    )?;
    metrics.set_layer_p50("cache.get.us_p50", b.durations_us("cache.get"))?;
    metrics.set_layer_p50("report.encode.us_p50", b.durations_us("report.encode"))?;
    let rtt = Samples::new(traced.rtts_us());
    metrics.set_pct("serve.rtt.us_p50", &rtt, 50.0)?;
    metrics.set_pct("serve.rtt.us_p99", &rtt, 99.0)?;
    metrics.set_pct("serve.overhead.us_p50", &Samples::new(overhead_us), 50.0)?;
    let newline_rtt = Samples::new(newline.rtts_us());
    metrics.set_pct("serve.newline_rtt.us_p50", &newline_rtt, 50.0)?;
    metrics.set("serve.served", stat(&stats, "served")?);
    metrics.set("serve.errors", stat(&stats, "errors")?);
    metrics.set(
        "serve.queue_full",
        (untraced.log.queue_full + traced.queue_full) as f64,
    );
    let untraced_rtt = Samples::new(untraced.log.rtts_us())
        .median()
        .ok_or("too few untraced requests")?;
    let traced_rtt = rtt.median().ok_or("too few traced requests")?;
    metrics.set("trace.overhead_ratio", traced_rtt / untraced_rtt - 1.0);
    metrics.set("trace.unattributed_ratio", b.unattributed_ratio("probe"));
    metrics.set("trace.ops", rtt.len() as f64);
    finish_layers(&mut metrics, ctx, &b);
    Ok(RunResult {
        tally,
        metrics,
        spans: Some(b),
    })
}
