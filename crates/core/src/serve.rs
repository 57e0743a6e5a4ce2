//! `pacq serve` — the long-lived concurrent evaluation server
//! (DESIGN.md §13).
//!
//! The server speaks **`pacq-serve/v1`**: newline-delimited JSON frames
//! over TCP (`--port N`; `--port 0` binds an ephemeral port announced
//! in the ready frame) or over stdin/stdout (`--stdio`). Every frame is
//! one line; every reply echoes the request's `id`. Each connection
//! answers its frames on the one thread that reads them, so its replies
//! come back in request order; clients still match replies by `id`.
//!
//! Design rules, in the order they bite:
//!
//! - **Never a panic, never a dropped bystander.** A malformed frame
//!   (bad JSON, unknown `op`, wrong field type, oversized line) is
//!   answered with a typed [`PacqError`] frame on the same connection;
//!   other connections never notice.
//! - **Backpressure is TCP's.** A connection's thread reads a frame,
//!   answers it and writes the reply before it reads the next one. A
//!   client that stops reading blocks only its own thread, which then
//!   stops reading too, so the server holds no more per connection
//!   than its read buffer, one frame and one reply.
//! - **Admission control before compute time.** Each connection owns a
//!   token bucket (`--rate` req/s sustained, `--burst` instantaneous);
//!   work frames beyond it are answered with a typed `rate_limited`
//!   frame (class 8) without being computed, and `--max-clients` caps
//!   concurrent connections (and so concurrent computations) at the
//!   accept gate — so one hostile client cannot monopolize the host.
//!   Control ops (`ping`/`stats`/`shutdown`) are always exempt.
//! - **One lossless codec.** Replies embed reports in the
//!   `pacq-cache/v1` entry encoding (u64 counters as decimal strings,
//!   floats as shortest-round-trip numbers), so a served report is
//!   bit-identical to an in-process [`GemmRunner::analyze`] — the
//!   property `tests/serve_conformance.rs` pins.
//! - **Graceful drain, no signals.** This crate forbids `unsafe`,
//!   so a SIGTERM handler is out of reach; instead a `shutdown` frame
//!   (or stdin EOF in `--stdio` mode) drains: frames being answered
//!   finish and their replies go out, then the server exits.
//!   Supervisors should send the frame (or close stdin) rather than
//!   SIGKILL.

use crate::args::Args;
use crate::cli;
use crate::dse::DseJob;
use crate::runner::GemmRunner;
use pacq_cache::ReportCache;
use pacq_error::{PacqError, PacqResult};
use pacq_fp16::WeightPrecision;
use pacq_quant::GroupShape;
use pacq_simt::{Architecture, Workload};
use pacq_trace::Json;
use rayon::prelude::*;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread;

/// The protocol identifier stamped into every frame the server emits.
pub const PROTOCOL: &str = "pacq-serve/v1";

/// Hard cap on one frame line, newline included. Longer lines are
/// answered with a typed protocol error and skipped (the connection
/// survives); the reader never buffers more than this per line.
pub const MAX_FRAME_BYTES: usize = 1 << 20;

/// Hard cap on the number of points in one `batch` frame.
pub const MAX_BATCH_POINTS: usize = 4096;

/// Serve-layer admission knobs.
#[derive(Debug, Clone, Copy)]
pub struct ServeOptions {
    /// Read by nothing: each connection answers its frames on its own
    /// thread, and `batch` frames fan out on the shared `--jobs` pool.
    /// Kept only because the benchmark harness still sets it; it goes
    /// with the next benchmark change.
    pub workers: usize,
    /// Sustained per-connection admission rate in work requests per
    /// second (`--rate`); 0 disables rate limiting (the default).
    pub rate: u64,
    /// Instantaneous per-connection burst allowance (`--burst`, the
    /// token-bucket capacity). Ignored when `rate` is 0; pinned up to 1
    /// otherwise so a configured limiter can always admit something.
    pub burst: u64,
    /// Maximum concurrently-connected clients (`--max-clients`);
    /// connections beyond it are answered with one typed error frame
    /// and closed at the accept gate. 0 means unlimited (the default).
    pub max_clients: usize,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            workers: rayon::current_num_threads().max(1),
            rate: 0,
            burst: 0,
            max_clients: 0,
        }
    }
}

/// What a server run did, for the CLI summary line and the manifest.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeSummary {
    /// Frames answered `ok: true` (analyze, batch, stats, ping,
    /// shutdown acks).
    pub served: u64,
    /// Typed error frames sent (malformed frames, rate-limit denials,
    /// work refused while draining, simulator errors).
    pub errors: u64,
    /// Work frames denied by a connection's token bucket (a subset of
    /// `errors`).
    pub rate_limited: u64,
    /// Connections turned away at the `--max-clients` accept gate.
    pub rejected_conns: u64,
}

/// A partially-specified point: `batch` frames carry frame-level
/// defaults that entries override; `shape` has no default.
#[derive(Debug, Clone, Copy)]
struct PointSpec {
    shape: Option<pacq_simt::GemmShape>,
    arch: Architecture,
    precision: WeightPrecision,
    group: GroupShape,
    dup: usize,
    width: usize,
}

impl PointSpec {
    /// The CLI's defaults: PacQ architecture, INT4, and the group,
    /// duplication and width of [`GemmRunner::new`]'s Table I machine.
    fn base() -> PointSpec {
        let machine = GemmRunner::new();
        PointSpec {
            shape: None,
            arch: Architecture::Pacq,
            precision: WeightPrecision::Int4,
            group: machine.group(),
            dup: machine.config().adder_tree_duplication,
            width: machine.config().dp_width,
        }
    }

    fn into_point(self) -> PacqResult<DseJob> {
        let shape = self
            .shape
            .ok_or_else(|| PacqError::usage("`shape` is required (e.g. \"m16n4096k4096\")"))?;
        Ok(DseJob {
            arch: self.arch,
            workload: Workload::new(shape, self.precision),
            width: self.width,
            dup: self.dup,
            group: self.group,
        })
    }
}

/// A parsed request frame.
#[derive(Debug, Clone, PartialEq)]
enum Request {
    Analyze(DseJob),
    Batch(Vec<DseJob>),
    Stats,
    Ping,
    Shutdown,
}

/// Per-connection token bucket: `rate` tokens/second refill up to
/// `burst`; each work frame (analyze/batch) costs one token. Owned by
/// the connection's thread, so the peer identity is the connection
/// itself and no shared map is needed.
struct TokenBucket {
    tokens: f64,
    last: std::time::Instant,
    rate: f64,
    burst: f64,
}

impl TokenBucket {
    /// Builds the bucket for `options`, or `None` when rate limiting is
    /// off. The bucket starts full so a well-behaved client's opening
    /// burst is admitted.
    fn from_options(options: &ServeOptions) -> Option<TokenBucket> {
        if options.rate == 0 {
            return None;
        }
        let burst = options.burst.max(1) as f64;
        Some(TokenBucket {
            tokens: burst,
            last: std::time::Instant::now(),
            rate: options.rate as f64,
            burst,
        })
    }

    /// Refills for elapsed time, then tries to spend one token.
    fn admit(&mut self) -> bool {
        let now = std::time::Instant::now();
        let dt = now.duration_since(self.last).as_secs_f64();
        self.last = now;
        self.tokens = (self.tokens + dt * self.rate).min(self.burst);
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }
}

/// Shared server state: the counters the `stats` endpoint reports and
/// the handles drain needs.
struct ServerState {
    /// Set once drain begins; work frames read after it are refused.
    draining: AtomicBool,
    served: AtomicU64,
    errors: AtomicU64,
    rate_limited: AtomicU64,
    rejected_conns: AtomicU64,
    options: ServeOptions,
    /// The runner every point derives its own from
    /// ([`DseJob::runner`]): the Table I machine with the `--cache`
    /// store attached. No per-request result records: a server answers
    /// an unbounded stream, and recording every analysis would grow the
    /// collector (and the `--metrics` manifest) without bound. Traffic
    /// shows up in the `serve.*` counters instead.
    base: GemmRunner,
    /// Clones of live TCP connections keyed by a per-accept id, so
    /// drain can shut their read halves to unblock idle readers and
    /// teardown can remove exactly its own entry. Empty in `--stdio`
    /// mode; returns to empty whenever no client is connected (pinned by
    /// `tests/serve_load.rs`).
    conns: Mutex<Vec<(u64, TcpStream)>>,
    /// Monotonic id source for `conns` entries.
    conn_seq: AtomicU64,
    /// Connection threads the acceptor has not yet seen finish. Each
    /// accept drops the finished ones (detaching them, which unmaps
    /// their stacks); drain joins the rest.
    threads: Mutex<Vec<thread::JoinHandle<()>>>,
    /// Currently-connected clients, maintained by the accept loop and
    /// connection teardown; gates `--max-clients`.
    active_conns: AtomicUsize,
    /// The bound address (TCP mode), for the drain wake-up connection.
    addr: Option<SocketAddr>,
}

/// Locks ignoring poisoning: the socket list behind this mutex is valid
/// at all times, so a panicking writer cannot leave a broken invariant
/// behind.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    match mutex.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

impl ServerState {
    fn new(
        options: ServeOptions,
        cache: Option<Arc<ReportCache>>,
        addr: Option<SocketAddr>,
    ) -> Arc<ServerState> {
        Arc::new(ServerState {
            draining: AtomicBool::new(false),
            served: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            rate_limited: AtomicU64::new(0),
            rejected_conns: AtomicU64::new(0),
            options,
            base: GemmRunner::new()
                .with_cache_opt(cache)
                .without_result_recording(),
            conns: Mutex::new(Vec::new()),
            conn_seq: AtomicU64::new(0),
            threads: Mutex::new(Vec::new()),
            active_conns: AtomicUsize::new(0),
            addr,
        })
    }

    fn summary(&self) -> ServeSummary {
        ServeSummary {
            served: self.served.load(Ordering::SeqCst),
            errors: self.errors.load(Ordering::SeqCst),
            rate_limited: self.rate_limited.load(Ordering::SeqCst),
            rejected_conns: self.rejected_conns.load(Ordering::SeqCst),
        }
    }

    /// Initiates the graceful drain (idempotent): stop accepting work,
    /// unblock idle readers and the acceptor.
    fn drain(&self) {
        if self.draining.swap(true, Ordering::SeqCst) {
            return;
        }
        // Unblock the accept loop (it re-checks the flag per accept).
        if let Some(addr) = self.addr {
            drop(TcpStream::connect(addr));
        }
        // EOF every connection's reader; a frame being answered still
        // writes its reply through the open write half.
        for (_, conn) in lock(&self.conns).iter() {
            let _ = conn.shutdown(Shutdown::Read);
        }
    }
}

// ---------------------------------------------------------------------
// Frames
// ---------------------------------------------------------------------

fn base_frame(id: &Json) -> Json {
    let mut frame = Json::object();
    frame.set("schema", PROTOCOL);
    frame.set("id", id.clone());
    frame
}

fn ok_frame(id: &Json) -> Json {
    let mut frame = base_frame(id);
    frame.set("ok", true);
    frame
}

fn error_frame(id: &Json, error: &PacqError) -> Json {
    let mut detail = Json::object();
    detail.set("class", error.class());
    detail.set("exit_code", u64::from(error.exit_code()));
    detail.set("message", error.to_string());
    let mut frame = base_frame(id);
    frame.set("ok", false);
    frame.set("error", detail);
    frame
}

/// The frame announced when the server is ready; `addr` (TCP mode only)
/// follows `event`.
fn ready_frame(addr: Option<SocketAddr>) -> Json {
    let mut frame = Json::object();
    frame.set("schema", PROTOCOL);
    frame.set("event", "ready");
    if let Some(addr) = addr {
        frame.set("addr", addr.to_string());
    }
    frame
}

fn stats_frame(id: &Json, state: &ServerState) -> Json {
    let mut stats = Json::object();
    // u64 counters travel as decimal strings, like every other pacq
    // wire format (see crates/cache/src/entry.rs).
    stats.set("served", state.served.load(Ordering::SeqCst).to_string());
    stats.set("errors", state.errors.load(Ordering::SeqCst).to_string());
    stats.set(
        "rate_limited",
        state.rate_limited.load(Ordering::SeqCst).to_string(),
    );
    stats.set(
        "rejected_conns",
        state.rejected_conns.load(Ordering::SeqCst).to_string(),
    );
    match state.base.cache() {
        Some(cache) => {
            stats.set("cache_attached", true);
            stats.set("cache_hits", cache.hits().to_string());
            stats.set("cache_misses", cache.misses().to_string());
            stats.set("hot_hits", cache.hot_hits().to_string());
            stats.set("hot_misses", cache.hot_misses().to_string());
            stats.set("hot_evictions", cache.hot_evictions().to_string());
        }
        None => {
            stats.set("cache_attached", false);
            stats.set("cache_hits", "0");
            stats.set("cache_misses", "0");
            stats.set("hot_hits", "0");
            stats.set("hot_misses", "0");
            stats.set("hot_evictions", "0");
        }
    }
    let mut frame = ok_frame(id);
    frame.set("stats", stats);
    frame
}

/// Writes `frame` with its newline in one `write_all`: a separate
/// 1-byte newline write would sit behind Nagle until the client's
/// delayed ACK, stalling line-reading clients ~40 ms per reply.
fn write_line(out: &mut impl Write, frame: &Json) -> std::io::Result<()> {
    let mut line = frame.render_line();
    line.push('\n');
    out.write_all(line.as_bytes())?;
    out.flush()
}

/// Sends one reply frame, bumping the served/error counter.
fn send(state: &ServerState, out: &mut impl Write, frame: &Json, is_error: bool) {
    if is_error {
        state.errors.fetch_add(1, Ordering::SeqCst);
    } else {
        state.served.fetch_add(1, Ordering::SeqCst);
    }
    // A closed connection just drops the reply; the counters still
    // reflect that the request was answered.
    let _ = write_line(out, frame);
}

// ---------------------------------------------------------------------
// Request parsing
// ---------------------------------------------------------------------

fn proto(message: impl Into<String>) -> PacqError {
    PacqError::protocol("serve::frame", message)
}

/// Rejects unknown fields so typos surface as typed errors instead of
/// silently applying defaults.
fn check_keys(doc: &Json, allowed: &[&str]) -> PacqResult<()> {
    if let Json::Obj(entries) = doc {
        for (key, _) in entries {
            if !allowed.contains(&key.as_str()) {
                return Err(proto(format!("unknown field `{key}`")));
            }
        }
    }
    Ok(())
}

fn field_str<'a>(doc: &'a Json, field: &str) -> PacqResult<Option<&'a str>> {
    match doc.get(field) {
        None => Ok(None),
        Some(value) => value
            .as_str()
            .map(Some)
            .ok_or_else(|| proto(format!("field `{field}` must be a string"))),
    }
}

fn field_usize(doc: &Json, field: &str) -> PacqResult<Option<usize>> {
    match doc.get(field) {
        None => Ok(None),
        Some(value) => {
            let n = value
                .as_num()
                .ok_or_else(|| proto(format!("field `{field}` must be a number")))?;
            if n.fract() != 0.0 || !(0.0..=u32::MAX as f64).contains(&n) {
                return Err(proto(format!("field `{field}` must be a small integer")));
            }
            Ok(Some(n as usize))
        }
    }
}

/// Applies the point-shaping fields of `doc` on top of `base`
/// (analyze frames, batch frame-level defaults, and batch entries all
/// share this).
fn parse_spec(doc: &Json, base: PointSpec) -> PacqResult<PointSpec> {
    let mut spec = base;
    if let Some(text) = field_str(doc, "shape")? {
        spec.shape = Some(cli::parse_shape(text)?);
    }
    if let Some(text) = field_str(doc, "arch")? {
        spec.arch = cli::parse_arch(text)?;
    }
    if let Some(text) = field_str(doc, "precision")? {
        spec.precision = cli::parse_precision(text)?;
    }
    if let Some(text) = field_str(doc, "group")? {
        spec.group = cli::parse_group(text)?;
    }
    if let Some(dup) = field_usize(doc, "dup")? {
        spec.dup = cli::parse_dup(&dup.to_string(), "`dup`")?;
    }
    if let Some(width) = field_usize(doc, "width")? {
        spec.width = cli::parse_width(&width.to_string(), "`width`")?;
    }
    Ok(spec)
}

const POINT_KEYS: [&str; 6] = ["shape", "arch", "precision", "group", "dup", "width"];

fn parse_request(doc: &Json) -> PacqResult<Request> {
    let op = doc
        .get("op")
        .ok_or_else(|| proto("missing field `op`"))?
        .as_str()
        .ok_or_else(|| proto("field `op` must be a string"))?;
    match op {
        "analyze" => {
            check_keys(
                doc,
                &[
                    "op",
                    "id",
                    "shape",
                    "arch",
                    "precision",
                    "group",
                    "dup",
                    "width",
                ],
            )?;
            let spec = parse_spec(doc, PointSpec::base())?;
            Ok(Request::Analyze(spec.into_point()?))
        }
        "batch" => {
            check_keys(
                doc,
                &[
                    "op",
                    "id",
                    "requests",
                    "arch",
                    "precision",
                    "group",
                    "dup",
                    "width",
                ],
            )?;
            let defaults = parse_spec(doc, PointSpec::base())?;
            let entries = doc
                .get("requests")
                .ok_or_else(|| proto("batch wants an array field `requests`"))?
                .as_arr()
                .ok_or_else(|| proto("field `requests` must be an array"))?;
            if entries.len() > MAX_BATCH_POINTS {
                return Err(proto(format!(
                    "batch of {} points exceeds the {MAX_BATCH_POINTS}-point cap",
                    entries.len()
                )));
            }
            let mut points = Vec::with_capacity(entries.len());
            for entry in entries {
                if !entry.is_obj() {
                    return Err(proto("every `requests` entry must be a JSON object"));
                }
                check_keys(entry, &POINT_KEYS)?;
                points.push(parse_spec(entry, defaults)?.into_point()?);
            }
            Ok(Request::Batch(points))
        }
        "stats" => {
            check_keys(doc, &["op", "id"])?;
            Ok(Request::Stats)
        }
        "ping" => {
            check_keys(doc, &["op", "id"])?;
            Ok(Request::Ping)
        }
        "shutdown" => {
            check_keys(doc, &["op", "id"])?;
            Ok(Request::Shutdown)
        }
        other => Err(proto(format!("unknown op `{other}`"))),
    }
}

// ---------------------------------------------------------------------
// Request execution
// ---------------------------------------------------------------------

/// Analyzes one point and renders its report in the lossless
/// `pacq-cache/v1` encoding (the conformance contract).
fn point_report_json(point: &DseJob, base: &GemmRunner) -> PacqResult<Json> {
    let runner = point.runner(base);
    let report = runner.analyze(point.arch, point.workload)?;
    let key = runner.cache_key(point.arch, point.workload);
    Ok(report.to_json(&key))
}

fn analyze_frame(point: &DseJob, state: &ServerState, id: &Json) -> PacqResult<Json> {
    let mut frame = ok_frame(id);
    frame.set("report", point_report_json(point, &state.base)?);
    Ok(frame)
}

fn batch_frame(points: &[DseJob], state: &ServerState, id: &Json) -> PacqResult<Json> {
    // Dedup identical points so one batch never computes (or even
    // cache-probes) the same point twice, then fan the unique points
    // out on the shared worker pool (par.rs).
    let mut unique: Vec<DseJob> = Vec::new();
    let mut slot = Vec::with_capacity(points.len());
    for point in points {
        match unique.iter().position(|u| u == point) {
            Some(i) => slot.push(i),
            None => {
                slot.push(unique.len());
                unique.push(*point);
            }
        }
    }
    let computed = unique
        .clone()
        .into_par_iter()
        .map(|p| point_report_json(&p, &state.base))
        .collect::<Vec<PacqResult<Json>>>()
        .into_iter()
        .collect::<PacqResult<Vec<Json>>>()?;
    let mut reports = Vec::with_capacity(slot.len());
    for i in slot {
        let doc = computed
            .get(i)
            .ok_or_else(|| proto("internal: batch slot out of range"))?;
        reports.push(doc.clone());
    }
    let mut frame = ok_frame(id);
    frame.set("reports", Json::Arr(reports));
    frame.set("unique_points", unique.len().to_string());
    Ok(frame)
}

/// Admits one work frame: spends a token of the connection's bucket
/// (`None` = unlimited), then refuses the frame if drain has begun.
fn admit(state: &ServerState, bucket: &mut Option<TokenBucket>) -> PacqResult<()> {
    if let Some(bucket) = bucket {
        if !bucket.admit() {
            state.rate_limited.fetch_add(1, Ordering::SeqCst);
            return Err(PacqError::RateLimited {
                rate: state.options.rate,
                burst: state.options.burst.max(1),
            });
        }
    }
    if state.draining.load(Ordering::SeqCst) {
        return Err(proto("server is draining; no new work accepted"));
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Connection handling
// ---------------------------------------------------------------------

enum FrameRead {
    Eof,
    Line,
    Oversized,
}

/// Reads one frame line with a hard byte cap; an over-cap line is
/// consumed to its newline so the connection can continue.
fn read_frame<R: BufRead>(reader: &mut R, line: &mut String) -> std::io::Result<FrameRead> {
    line.clear();
    let n = reader
        .by_ref()
        .take(MAX_FRAME_BYTES as u64 + 1)
        .read_line(line)?;
    if n == 0 {
        return Ok(FrameRead::Eof);
    }
    if n > MAX_FRAME_BYTES {
        if !line.ends_with('\n') {
            skip_to_newline(reader)?;
        }
        return Ok(FrameRead::Oversized);
    }
    Ok(FrameRead::Line)
}

fn skip_to_newline<R: BufRead>(reader: &mut R) -> std::io::Result<()> {
    loop {
        let (done, used) = {
            let buf = reader.fill_buf()?;
            if buf.is_empty() {
                return Ok(()); // EOF mid-line
            }
            match buf.iter().position(|&b| b == b'\n') {
                Some(pos) => (true, pos + 1),
                None => (false, buf.len()),
            }
        };
        reader.consume(used);
        if done {
            return Ok(());
        }
    }
}

/// Answers one parsed-or-not frame line on `out`. Returns `false` when
/// the connection should stop reading (shutdown frame). `bucket` is
/// this connection's admission bucket; only work requests spend tokens
/// — control ops and malformed frames are always answered.
fn handle_line(
    text: &str,
    state: &ServerState,
    out: &mut impl Write,
    bucket: &mut Option<TokenBucket>,
) -> bool {
    let text = text.trim();
    if text.is_empty() {
        return true; // blank keep-alive lines are fine
    }
    let doc = match Json::parse(text) {
        Ok(doc) if doc.is_obj() => doc,
        Ok(_) => {
            let e = proto("frame must be a JSON object");
            send(state, out, &error_frame(&Json::Null, &e), true);
            return true;
        }
        Err(e) => {
            let e = proto(format!("frame is not valid JSON: {e}"));
            send(state, out, &error_frame(&Json::Null, &e), true);
            return true;
        }
    };
    let id = doc.get("id").cloned().unwrap_or(Json::Null);
    let reply = match parse_request(&doc) {
        Ok(Request::Stats) => Ok(stats_frame(&id, state)),
        Ok(Request::Ping) => {
            let mut frame = ok_frame(&id);
            frame.set("pong", true);
            Ok(frame)
        }
        Ok(Request::Shutdown) => {
            let mut frame = ok_frame(&id);
            frame.set("draining", true);
            send(state, out, &frame, false);
            state.drain();
            return false;
        }
        Ok(Request::Analyze(point)) => {
            admit(state, bucket).and_then(|()| analyze_frame(&point, state, &id))
        }
        Ok(Request::Batch(points)) => {
            admit(state, bucket).and_then(|()| batch_frame(&points, state, &id))
        }
        Err(e) => Err(e),
    };
    match reply {
        Ok(frame) => send(state, out, &frame, false),
        Err(e) => send(state, out, &error_frame(&id, &e), true),
    }
    true
}

/// Reads frames until EOF, a shutdown frame or undecodable bytes,
/// answering each on `out` before reading the next.
fn reader_loop(mut reader: impl BufRead, state: &ServerState, out: &mut impl Write) {
    let mut line = String::new();
    let mut bucket = TokenBucket::from_options(&state.options);
    loop {
        match read_frame(&mut reader, &mut line) {
            Ok(FrameRead::Eof) => break,
            Ok(FrameRead::Oversized) => {
                let e = proto(format!("frame exceeds the {MAX_FRAME_BYTES}-byte line cap"));
                send(state, out, &error_frame(&Json::Null, &e), true);
            }
            Ok(FrameRead::Line) => {
                if !handle_line(&line, state, out, &mut bucket) {
                    break;
                }
            }
            Err(e) => {
                // Undecodable bytes (e.g. non-UTF-8): answer once and
                // close this connection; everyone else is unaffected.
                let e = proto(format!("unreadable frame: {e}"));
                send(state, out, &error_frame(&Json::Null, &e), true);
                break;
            }
        }
    }
}

fn handle_conn(stream: TcpStream, state: Arc<ServerState>) {
    // Register under a fresh id so teardown removes exactly this
    // connection's drain handle — the registry must return to empty
    // when every client is gone, not grow for the life of the server.
    let conn_id = state.conn_seq.fetch_add(1, Ordering::SeqCst);
    if let Ok(drain_handle) = stream.try_clone() {
        lock(&state.conns).push((conn_id, drain_handle));
    }
    reader_loop(BufReader::new(&stream), &state, &mut &stream);
    lock(&state.conns).retain(|(id, _)| *id != conn_id);
    // The accept loop counted us in before spawning; count back out so
    // the `--max-clients` gate frees the slot.
    state.active_conns.fetch_sub(1, Ordering::SeqCst);
}

/// Answers a connection turned away at the `--max-clients` gate: one
/// typed error frame (best effort, with a short write timeout so a
/// non-reading client cannot stall the acceptor), then the stream
/// drops and the socket closes.
fn reject_conn(mut stream: TcpStream, max_clients: usize) {
    let _ = stream.set_write_timeout(Some(std::time::Duration::from_millis(250)));
    let e = proto(format!(
        "server is at its --max-clients capacity ({max_clients}); retry later"
    ));
    let _ = write_line(&mut stream, &error_frame(&Json::Null, &e));
}

// ---------------------------------------------------------------------
// Server lifecycles
// ---------------------------------------------------------------------

/// A running TCP server. Bind with [`Server::bind`], drive clients at
/// [`Server::addr`], stop with a `shutdown` frame or
/// [`Server::shutdown`], then [`Server::wait`].
pub struct Server {
    state: Arc<ServerState>,
    addr: SocketAddr,
    thread: thread::JoinHandle<ServeSummary>,
}

impl Server {
    /// Binds `addr` (port 0 picks an ephemeral port) and starts the
    /// accept loop, which gives every accepted connection its own
    /// thread.
    ///
    /// # Errors
    ///
    /// Returns [`PacqError::Io`] when the address cannot be bound.
    pub fn bind(
        addr: &str,
        options: ServeOptions,
        cache: Option<Arc<ReportCache>>,
    ) -> PacqResult<Server> {
        let io_err = |e: std::io::Error| PacqError::Io {
            context: "serve::bind",
            message: e.to_string(),
        };
        let listener = TcpListener::bind(addr).map_err(io_err)?;
        let local = listener.local_addr().map_err(io_err)?;
        let state = ServerState::new(options, cache, Some(local));
        let accept_state = Arc::clone(&state);
        let thread = thread::spawn(move || {
            for stream in listener.incoming() {
                if accept_state.draining.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = stream else {
                    continue; // transient accept error
                };
                let max = accept_state.options.max_clients;
                if max > 0 && accept_state.active_conns.load(Ordering::SeqCst) >= max {
                    accept_state.rejected_conns.fetch_add(1, Ordering::SeqCst);
                    pacq_trace::add_counter("serve.rejected_conns", 1);
                    reject_conn(stream, max);
                    continue;
                }
                accept_state.active_conns.fetch_add(1, Ordering::SeqCst);
                let conn_state = Arc::clone(&accept_state);
                let mut threads = lock(&accept_state.threads);
                threads.retain(|t| !t.is_finished());
                threads.push(thread::spawn(move || handle_conn(stream, conn_state)));
            }
            drop(listener);
            // Belt and braces for externally-triggered shutdowns: drain
            // is idempotent, and every reader must see EOF before join.
            accept_state.drain();
            for conn in std::mem::take(&mut *lock(&accept_state.threads)) {
                let _ = conn.join();
            }
            accept_state.summary()
        });
        Ok(Server {
            state,
            addr: local,
            thread,
        })
    }

    /// The bound address (useful after `--port 0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Number of connections currently registered with the drain
    /// machinery. Returns to 0 once every client has disconnected —
    /// the regression surface for the PR 7 handle-leak fix.
    pub fn live_connections(&self) -> usize {
        lock(&self.state.conns).len()
    }

    /// Triggers the graceful drain from outside the protocol (the
    /// in-process equivalent of a `shutdown` frame).
    pub fn shutdown(&self) {
        self.state.drain();
    }

    /// Waits for the drain to complete and returns the run's counters.
    ///
    /// # Errors
    ///
    /// Returns a protocol-class error if the server thread died — which
    /// the never-panic design rules out, but the join result must go
    /// somewhere honest.
    pub fn wait(self) -> PacqResult<ServeSummary> {
        self.thread
            .join()
            .map_err(|_| PacqError::protocol("serve::wait", "server thread panicked"))
    }
}

/// Serves `pacq-serve/v1` over stdin/stdout until EOF or a `shutdown`
/// frame, then drains and returns the counters.
///
/// # Errors
///
/// Infallible today (the signature leaves room for future I/O setup
/// errors); client-visible failures travel as error frames instead.
pub fn serve_stdio(
    options: ServeOptions,
    cache: Option<Arc<ReportCache>>,
) -> PacqResult<ServeSummary> {
    let state = ServerState::new(options, cache, None);
    let mut out = std::io::stdout().lock();
    let _ = write_line(&mut out, &ready_frame(None));
    reader_loop(std::io::stdin().lock(), &state, &mut out);
    state.drain();
    let summary = state.summary();
    let mut drained = Json::object();
    drained.set("schema", PROTOCOL);
    drained.set("event", "drained");
    drained.set("served", summary.served.to_string());
    drained.set("errors", summary.errors.to_string());
    let _ = write_line(&mut out, &drained);
    Ok(summary)
}

// ---------------------------------------------------------------------
// CLI entry point
// ---------------------------------------------------------------------

/// Validates a serve counting flag (`--rate`, `--burst`,
/// `--max-clients`): trimmed, plain ASCII digits only (no sign, no
/// decimal point), at least 1, at most `max`. Same discipline as the
/// shared `--jobs` validator in `par.rs` — `source` names the flag so
/// the one-line diagnostic is self-locating.
pub fn validate_serve_count(raw: &str, source: &str, max: u64) -> PacqResult<u64> {
    let text = raw.trim();
    let plain_number = !text.is_empty() && text.bytes().all(|b| b.is_ascii_digit());
    if !plain_number {
        return Err(PacqError::usage(format!(
            "{source} expects a positive integer, got `{raw}`"
        )));
    }
    match text.parse::<u64>() {
        Ok(0) => Err(PacqError::usage(format!("{source} must be at least 1"))),
        Ok(n) if n <= max => Ok(n),
        _ => Err(PacqError::usage(format!(
            "{source} accepts at most {max}, got `{raw}`"
        ))),
    }
}

/// `pacq serve (--port N | --stdio) [--rate N] [--burst N]
/// [--max-clients N]` — validates the serve flags and runs the matching
/// lifecycle until drained.
///
/// # Errors
///
/// Returns [`PacqError::Usage`] for flag errors and [`PacqError::Io`]
/// when the TCP port cannot be bound.
pub fn run_cli(args: &Args, cache: Option<Arc<ReportCache>>) -> PacqResult<String> {
    let usage = |msg: &str| PacqError::usage(msg.to_string());
    let port = args.last("--port", |v| {
        v.parse::<u16>()
            .map_err(|_| usage("--port expects 0..65535"))
    })?;
    let stdio = args.has("--stdio");
    let count = |flag: &str, max: u64| args.last(flag, |v| validate_serve_count(v, flag, max));
    let rate = count("--rate", 1_000_000)?.unwrap_or(0);
    let burst = count("--burst", 1_000_000)?;
    let max_clients = count("--max-clients", 10_000)?.unwrap_or(0) as usize;
    if burst.is_some() && rate == 0 {
        return Err(usage("--burst only makes sense together with --rate"));
    }
    let options = ServeOptions {
        rate,
        burst: burst.unwrap_or(rate),
        max_clients,
        ..ServeOptions::default()
    };
    let summary = match (port, stdio) {
        (Some(_), true) => return Err(usage("--port and --stdio are mutually exclusive")),
        (None, false) => return Err(usage("serve wants --port N or --stdio")),
        (None, true) => serve_stdio(options, cache.clone())?,
        (Some(port), false) => {
            let server = Server::bind(&format!("127.0.0.1:{port}"), options, cache.clone())?;
            // Announce readiness immediately — with --port 0 the client
            // cannot know the port any other way.
            let _ = write_line(
                &mut std::io::stdout().lock(),
                &ready_frame(Some(server.addr())),
            );
            server.wait()?
        }
    };
    pacq_trace::add_counter("serve.served", summary.served);
    pacq_trace::add_counter("serve.errors", summary.errors);
    pacq_trace::add_counter("serve.rate_limited", summary.rate_limited);
    if let Some(cache) = &cache {
        pacq_trace::add_counter("serve.cache_hits", cache.hits());
        pacq_trace::add_counter("serve.cache_misses", cache.misses());
        pacq_trace::add_counter("serve.hot_hits", cache.hot_hits());
        pacq_trace::add_counter("serve.hot_misses", cache.hot_misses());
        pacq_trace::add_counter("serve.hot_evictions", cache.hot_evictions());
    }
    if stdio {
        // Stdout is the protocol channel; the summary already went out
        // as the `drained` event frame.
        Ok(String::new())
    } else {
        Ok(format!(
            "serve: {} replies ({} errors)\n",
            summary.served, summary.errors
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn parse(text: &str) -> PacqResult<Request> {
        parse_request(&Json::parse(text).expect("test frame parses"))
    }

    #[test]
    fn analyze_frames_parse_with_cli_defaults() {
        let req = parse(r#"{"op":"analyze","id":1,"shape":"m16n256k256"}"#).unwrap();
        let Request::Analyze(p) = req else {
            panic!("not analyze")
        };
        assert_eq!(p.arch, Architecture::Pacq);
        assert_eq!(p.workload.precision, WeightPrecision::Int4);
        assert_eq!((p.dup, p.width), (2, 4));
        assert_eq!(p.group, GroupShape::G128);
    }

    #[test]
    fn field_overrides_match_the_cli_vocabulary() {
        let req = parse(
            r#"{"op":"analyze","shape":"m32n256k256","arch":"std","precision":"int2","group":"g64","dup":4,"width":8}"#,
        )
        .unwrap();
        let Request::Analyze(p) = req else {
            panic!("not analyze")
        };
        assert_eq!(p.arch, Architecture::StandardDequant);
        assert_eq!(p.workload.precision, WeightPrecision::Int2);
        assert_eq!((p.dup, p.width), (4, 8));
        assert_eq!(p.group, GroupShape::along_k(64));
    }

    #[test]
    fn malformed_frames_are_typed_protocol_or_usage_errors() {
        for (frame, class) in [
            (r#"{"id":1}"#, "protocol"),                       // missing op
            (r#"{"op":7}"#, "protocol"),                       // non-string op
            (r#"{"op":"frobnicate"}"#, "protocol"),            // unknown op
            (r#"{"op":"analyze"}"#, "usage"),                  // missing shape
            (r#"{"op":"analyze","shape":5}"#, "protocol"),     // wrong type
            (r#"{"op":"analyze","shape":"m1n1k1"}"#, "usage"), // misaligned
            (r#"{"op":"analyze","shape":"m16n16k16","dup":3}"#, "usage"),
            (
                r#"{"op":"analyze","shape":"m16n16k16","bogus":1}"#,
                "protocol",
            ),
            (r#"{"op":"stats","shape":"m16n16k16"}"#, "protocol"), // stray field
            (r#"{"op":"batch"}"#, "protocol"),                     // missing requests
            (r#"{"op":"batch","requests":[3]}"#, "protocol"),      // non-object entry
        ] {
            let err = parse(frame).unwrap_err();
            assert_eq!(err.class(), class, "{frame}: {err}");
        }
    }

    #[test]
    fn batch_defaults_flow_into_entries() {
        let req = parse(
            r#"{"op":"batch","precision":"int2","dup":4,
                "requests":[{"shape":"m16n256k256"},{"shape":"m32n256k256","precision":"int4"}]}"#,
        )
        .unwrap();
        let Request::Batch(points) = req else {
            panic!("not batch")
        };
        assert_eq!(points.len(), 2);
        assert_eq!(points[0].workload.precision, WeightPrecision::Int2);
        assert_eq!(points[0].dup, 4);
        assert_eq!(points[1].workload.precision, WeightPrecision::Int4);
        assert_eq!(points[1].dup, 4);
    }

    /// Drives one connection without a socket: requests from a
    /// cursor, replies into a byte buffer.
    fn drive_state(input: &str, state: &ServerState) -> Vec<Json> {
        let mut out = Vec::new();
        reader_loop(Cursor::new(input), state, &mut out);
        String::from_utf8(out)
            .expect("replies are UTF-8")
            .lines()
            .map(|line| Json::parse(line).expect("reply frames are valid JSON"))
            .collect()
    }

    fn drive(input: &str, options: ServeOptions) -> (Vec<Json>, ServeSummary) {
        let state = ServerState::new(options, None, None);
        let replies = drive_state(input, &state);
        (replies, state.summary())
    }

    fn error_class(frame: &Json) -> Option<&str> {
        frame
            .get("error")
            .and_then(|e| e.get("class"))
            .and_then(Json::as_str)
    }

    fn by_id(replies: &[Json], id: f64) -> Json {
        replies
            .iter()
            .find(|r| r.get("id").and_then(Json::as_num) == Some(id))
            .cloned()
            .unwrap_or_else(|| panic!("no reply with id {id}"))
    }

    #[test]
    fn lifecycle_serves_and_drains_in_process() {
        let input = concat!(
            r#"{"op":"ping","id":1}"#,
            "\n",
            r#"{"op":"analyze","id":2,"shape":"m16n256k256"}"#,
            "\n",
            "not json\n",
            r#"{"op":"stats","id":3}"#,
            "\n",
            r#"{"op":"shutdown","id":4}"#,
            "\n",
            r#"{"op":"ping","id":5}"#, // after shutdown: never read
            "\n",
        );
        let (replies, summary) = drive(input, ServeOptions::default());
        assert_eq!(replies.len(), 5, "ping, analyze, parse error, stats, ack");
        assert_eq!(
            summary,
            ServeSummary {
                served: 4,
                errors: 1,
                ..ServeSummary::default()
            }
        );

        assert_eq!(by_id(&replies, 1.0).get("pong"), Some(&Json::Bool(true)));
        let report = by_id(&replies, 2.0);
        assert_eq!(report.get("ok"), Some(&Json::Bool(true)));
        let report = report.get("report").expect("report payload");
        assert_eq!(
            report.get("schema").and_then(Json::as_str),
            Some("pacq-cache/v1")
        );
        let stats = by_id(&replies, 3.0);
        let stats = stats.get("stats").expect("stats payload");
        assert_eq!(stats.get("cache_attached"), Some(&Json::Bool(false)));
        assert_eq!(
            by_id(&replies, 4.0).get("draining"),
            Some(&Json::Bool(true))
        );
        // The malformed line's error frame is typed and null-id.
        let err = replies
            .iter()
            .find(|r| r.get("ok") == Some(&Json::Bool(false)))
            .expect("error frame");
        assert_eq!(err.get("id"), Some(&Json::Null));
        assert_eq!(error_class(err), Some("protocol"));
    }

    #[test]
    fn batch_replies_dedup_and_keep_request_order() {
        let input = concat!(
            r#"{"op":"batch","id":9,"requests":[
                {"shape":"m16n256k256"},
                {"shape":"m32n256k256"},
                {"shape":"m16n256k256"}]}"#,
            "\n"
        )
        .replace('\n', " ")
            + "\n";
        let (replies, summary) = drive(&input, ServeOptions::default());
        assert_eq!(summary.errors, 0, "{replies:?}");
        let frame = by_id(&replies, 9.0);
        assert_eq!(frame.get("unique_points").and_then(Json::as_str), Some("2"));
        let reports = frame.get("reports").and_then(Json::as_arr).unwrap();
        assert_eq!(reports.len(), 3);
        assert_eq!(reports[0], reports[2], "duplicate point, identical report");
        assert_ne!(reports[0], reports[1]);
        // Entry 0 and 1 differ only in m; check echo order.
        let m = |r: &Json| {
            r.get("shape")
                .and_then(|s| s.get("m"))
                .and_then(Json::as_str)
                .map(str::to_string)
        };
        assert_eq!(m(&reports[0]).as_deref(), Some("16"));
        assert_eq!(m(&reports[1]).as_deref(), Some("32"));
    }

    #[test]
    fn work_read_after_drain_is_refused_but_control_ops_answer() {
        let state = ServerState::new(ServeOptions::default(), None, None);
        state.drain();
        let input = concat!(
            r#"{"op":"analyze","id":1,"shape":"m16n256k256"}"#,
            "\n",
            r#"{"op":"batch","id":2,"requests":[{"shape":"m16n256k256"}]}"#,
            "\n",
            r#"{"op":"ping","id":3}"#,
            "\n",
        );
        let replies = drive_state(input, &state);
        assert_eq!(replies.len(), 3, "{replies:?}");
        for refused in &replies[..2] {
            assert_eq!(error_class(refused), Some("protocol"), "{refused:?}");
            let message = refused
                .get("error")
                .and_then(|e| e.get("message"))
                .and_then(Json::as_str)
                .unwrap_or_default();
            assert!(message.contains("server is draining"), "{message}");
        }
        assert_eq!(replies[2].get("pong"), Some(&Json::Bool(true)));
        assert_eq!((state.summary().served, state.summary().errors), (1, 2));
    }

    #[test]
    fn oversized_frames_bounce_but_the_connection_survives() {
        let huge = format!(
            "{{\"op\":\"analyze\",\"pad\":\"{}\"}}\n",
            "x".repeat(MAX_FRAME_BYTES)
        );
        let input = format!("{huge}{{\"op\":\"ping\",\"id\":1}}\n");
        let (replies, _) = drive(&input, ServeOptions::default());
        assert_eq!(replies.len(), 2);
        let err = &replies[0];
        assert_eq!(error_class(err), Some("protocol"), "{err:?}");
        assert_eq!(by_id(&replies, 1.0).get("pong"), Some(&Json::Bool(true)));
    }

    #[test]
    fn serve_cli_flags_are_validated() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let run_cli = |argv: &[String], cache| {
            let args = Args::parse(argv, "pacq serve", cli::command_flags("serve").unwrap())?;
            run_cli(&args, cache)
        };
        for bad in [
            "",
            "--port 1 --stdio",
            "--port notaport",
            "--rate 0",
            "--rate nope",
            "--burst 2",                  // burst without rate
            "--stdio --burst 0 --rate 5", // burst still validated
            "--max-clients 0",
            "--frobnicate",
        ] {
            let err = run_cli(&argv(bad), None).unwrap_err();
            assert!(err.is_usage(), "`{bad}`: {err}");
        }
        // There is no request queue, so `--queue` is refused like any
        // flag `pacq serve` does not take.
        for retired in ["--port 0 --queue 4", "--stdio --queue 0", "--queue=64"] {
            let err = run_cli(&argv(retired), None).unwrap_err();
            assert_eq!(err.exit_code(), 2, "`{retired}`: {err}");
            assert_eq!(
                err.to_string(),
                "`--queue` does not apply to `pacq serve`",
                "`{retired}`"
            );
        }
    }

    /// A `Write` that records each `write` call.
    #[derive(Default)]
    struct RecordingWriter(Vec<String>);

    impl Write for RecordingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.push(String::from_utf8_lossy(buf).into_owned());
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn each_frame_goes_out_in_one_write_with_its_newline() {
        let state = ServerState::new(ServeOptions::default(), None, None);
        let mut out = RecordingWriter::default();
        for frame in [r#"{"a":1}"#, r#"{"b":2}"#, "{}"] {
            send(&state, &mut out, &Json::parse(frame).unwrap(), false);
        }
        assert_eq!(out.0, ["{\"a\":1}\n", "{\"b\":2}\n", "{}\n"]);
        assert_eq!(state.summary().served, 3);
    }

    /// The serve counting flags' boundary, pinned the same way `par.rs`
    /// pins `--jobs`: one shared validator, exercised over every
    /// boundary input through `--max-clients`. 0 is *rejected* (usage,
    /// exit 2), never reinterpreted as "unlimited".
    #[test]
    fn serve_count_validator_agrees_on_every_boundary_input() {
        let max = 10_000;
        let cases: [(&str, Option<u64>); 12] = [
            ("1", Some(1)),
            ("64", Some(64)),
            (" 64 ", Some(64)),
            ("10000", Some(max)),
            ("0", None),
            (" 0 ", None),
            ("10001", None),
            ("+4", None),
            ("-4", None),
            ("4.0", None),
            ("", None),
            ("clients", None),
        ];
        for (raw, want) in cases {
            let got = validate_serve_count(raw, "--max-clients", max);
            match want {
                Some(n) => assert_eq!(got.unwrap(), n, "`{raw}`"),
                None => {
                    let err = got.unwrap_err();
                    assert!(err.is_usage(), "`{raw}`: {err}");
                    assert_eq!(err.exit_code(), 2, "`{raw}`");
                }
            }
        }
    }

    /// Every request line of README's `pacq serve` console session is
    /// a frame the server accepts.
    #[test]
    fn readme_serve_session_frames_parse() {
        let readme = include_str!("../../../README.md");
        let session = readme
            .split("$ pacq serve --port 0")
            .nth(1)
            .and_then(|rest| rest.split("```").next())
            .expect("README has a `pacq serve` console session");
        let requests: Vec<&str> = session
            .lines()
            .filter(|line| line.starts_with("{\"op\""))
            .collect();
        assert!(requests.len() >= 4, "{session}");
        for line in requests {
            if let Err(e) = parse(line) {
                panic!("README frame `{line}` is refused: {e}");
            }
        }
    }

    #[test]
    fn rate_limited_clients_get_typed_frames_and_lose_nothing() {
        // rate 1/s, burst 2: ten back-to-back analyze frames can admit
        // at most a handful (2 + refill during the run); the rest must
        // bounce as typed rate_limited frames. Every frame gets exactly
        // one reply either way.
        let mut input = String::new();
        for i in 0..10 {
            input.push_str(&format!(
                "{{\"op\":\"analyze\",\"id\":{i},\"shape\":\"m16n256k256\"}}\n"
            ));
        }
        // Control ops are exempt from admission.
        input.push_str("{\"op\":\"ping\",\"id\":100}\n");
        input.push_str("{\"op\":\"stats\",\"id\":101}\n");
        let options = ServeOptions {
            rate: 1,
            burst: 2,
            ..ServeOptions::default()
        };
        let (replies, summary) = drive(&input, options);
        assert_eq!(replies.len(), 12, "one reply per frame, none lost");
        let limited = replies
            .iter()
            .filter(|r| error_class(r) == Some("rate_limited"))
            .collect::<Vec<_>>();
        assert!(
            !limited.is_empty(),
            "burst-2 bucket must run dry over 10 frames"
        );
        for frame in &limited {
            let code = frame
                .get("error")
                .and_then(|e| e.get("exit_code"))
                .and_then(Json::as_num);
            assert_eq!(code, Some(8.0), "{frame:?}");
        }
        let ok_count = replies
            .iter()
            .filter(|r| r.get("ok") == Some(&Json::Bool(true)))
            .count();
        assert!(
            ok_count >= 4,
            "burst of 2 + ping + stats must be admitted: {replies:?}"
        );
        assert_eq!(summary.rate_limited, limited.len() as u64);
        assert_eq!(summary.served + summary.errors, 12);
        // The stats frame exposes the tally to remote clients too.
        let stats = by_id(&replies, 101.0);
        let reported = stats
            .get("stats")
            .and_then(|s| s.get("rate_limited"))
            .and_then(Json::as_str)
            .and_then(|s| s.parse::<u64>().ok());
        assert_eq!(reported, Some(summary.rate_limited));
    }

    #[test]
    fn token_bucket_refills_at_the_configured_rate() {
        let options = ServeOptions {
            rate: 1000,
            burst: 1,
            ..ServeOptions::default()
        };
        let mut bucket = TokenBucket::from_options(&options).unwrap();
        assert!(bucket.admit(), "bucket starts full");
        // Drain, then wait ~two token periods; the refill must admit
        // again but never exceed the burst cap.
        while bucket.admit() {}
        thread::sleep(std::time::Duration::from_millis(5));
        assert!(bucket.admit(), "refill after a waiting period");
        assert!(bucket.tokens <= 1.0, "burst cap respected");
        // Unlimited config builds no bucket at all.
        assert!(TokenBucket::from_options(&ServeOptions::default()).is_none());
    }

    /// A long-lived server taking many short connections must not keep
    /// one finished thread's handle (and its mapped stack) per client.
    #[test]
    fn finished_connection_threads_are_not_retained() {
        let server = Server::bind("127.0.0.1:0", ServeOptions::default(), None).unwrap();
        let settle = |done: &dyn Fn() -> bool| {
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
            while !done() {
                assert!(
                    std::time::Instant::now() < deadline,
                    "server did not settle"
                );
                thread::sleep(std::time::Duration::from_millis(1));
            }
        };
        for round in 0..64 {
            let mut stream = TcpStream::connect(server.addr()).unwrap();
            writeln!(stream, r#"{{"op":"ping","id":{round}}}"#).unwrap();
            let mut pong = String::new();
            BufReader::new(&stream).read_line(&mut pong).unwrap();
            assert!(pong.contains(r#""pong":true"#), "{pong}");
            drop(stream);
            // Every spawned thread ends before the next accept prunes.
            settle(&|| lock(&server.state.threads).iter().all(|t| t.is_finished()));
        }
        settle(&|| server.live_connections() == 0);
        let retained = lock(&server.state.threads).len();
        assert!(
            retained <= 1,
            "{retained} finished connection threads retained"
        );
        server.shutdown();
        server.wait().unwrap();
    }
}
