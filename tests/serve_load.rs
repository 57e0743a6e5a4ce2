//! Integration tests for the production-scale serving tier (ISSUE 7):
//! the connection-registry leak regression, per-client admission
//! control over real sockets, the `--max-clients` accept gate, the
//! LRU hot tier under live traffic, a small end-to-end `pacq loadgen`
//! run through the CLI front end (global `--cache`, `--hot` and
//! `--metrics` included), and spawned `pacq serve` processes sharing
//! one store, found by `pacq loadgen --ready-log`.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command};
use std::sync::Arc;
use std::time::Duration;

use pacq::{ReportCache, ServeOptions, Server};
use pacq_trace::Json;

fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("pacq-serve-load-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    p
}

/// Polls `cond` for up to two seconds; connection teardown runs on its
/// own thread after the socket drops, so the registry empties *soon*,
/// not synchronously.
fn eventually(cond: impl Fn() -> bool) -> bool {
    for _ in 0..200 {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    cond()
}

/// A minimal NDJSON client (same shape as the conformance suite's).
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(server: &Server) -> Client {
        let stream = TcpStream::connect(server.addr()).expect("connect to serve");
        let reader = BufReader::new(stream.try_clone().expect("clone stream"));
        Client {
            reader,
            writer: stream,
        }
    }

    fn send(&mut self, frame: &str) {
        self.writer
            .write_all(frame.as_bytes())
            .and_then(|()| self.writer.write_all(b"\n"))
            .expect("send frame");
    }

    fn recv(&mut self) -> Json {
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("read reply");
        assert!(line.ends_with('\n'), "reply must be a full line: {line:?}");
        Json::parse(line.trim_end()).expect("reply parses")
    }

    fn roundtrip(&mut self, frame: &str) -> Json {
        self.send(frame);
        self.recv()
    }
}

/// PR 7 leak regression: the drain registry must return to empty after
/// every disconnect, sequential or overlapping — before the fix it
/// grew one stale socket clone per connection for the life of the
/// server.
#[test]
fn connection_registry_returns_to_zero_after_disconnects() {
    let server = Server::bind("127.0.0.1:0", ServeOptions::default(), None).expect("bind");

    for round in 0..8 {
        let mut client = Client::connect(&server);
        let pong = client.roundtrip(&format!("{{\"op\":\"ping\",\"id\":{round}}}"));
        assert_eq!(pong.get("pong"), Some(&Json::Bool(true)));
        assert_eq!(server.live_connections(), 1, "round {round}");
        drop(client);
        assert!(
            eventually(|| server.live_connections() == 0),
            "round {round}: registry kept {} stale connections",
            server.live_connections()
        );
    }

    // Overlapping connections unregister independently.
    let mut clients: Vec<Client> = (0..3).map(|_| Client::connect(&server)).collect();
    for (i, c) in clients.iter_mut().enumerate() {
        c.roundtrip(&format!("{{\"op\":\"ping\",\"id\":{i}}}"));
    }
    assert_eq!(server.live_connections(), 3);
    clients.clear();
    assert!(eventually(|| server.live_connections() == 0));

    server.shutdown();
    let summary = server.wait().expect("drain");
    assert_eq!(summary.errors, 0, "{summary:?}");
}

/// One connection answers its frames in the order it read them: a
/// pipelined analyze, batch, malformed line, ping and analyze come back
/// in that order, each echoing its request's id. The slow analyze goes
/// first, so a ping answered ahead of queued work would show.
#[test]
fn pipelined_frames_are_answered_in_request_order() {
    let server = Server::bind("127.0.0.1:0", ServeOptions::default(), None).expect("bind");
    let frames = [
        r#"{"op":"analyze","id":1,"shape":"m16n4096k4096"}"#,
        r#"{"op":"batch","id":2,"requests":[{"shape":"m16n256k256"},{"shape":"m32n256k256"}]}"#,
        "not json",
        r#"{"op":"ping","id":4}"#,
        r#"{"op":"analyze","id":5,"shape":"m16n256k256","precision":"int2"}"#,
    ];
    let mut client = Client::connect(&server);
    // Every frame is on the wire before the first reply is read.
    let burst: String = frames.iter().map(|f| format!("{f}\n")).collect();
    client
        .writer
        .write_all(burst.as_bytes())
        .expect("send burst");
    let replies: Vec<Json> = frames.iter().map(|_| client.recv()).collect();
    let ids: Vec<Option<f64>> = replies
        .iter()
        .map(|r| r.get("id").and_then(Json::as_num))
        .collect();
    assert_eq!(ids, [Some(1.0), Some(2.0), None, Some(4.0), Some(5.0)]);
    let oks: Vec<bool> = replies
        .iter()
        .map(|r| r.get("ok") == Some(&Json::Bool(true)))
        .collect();
    assert_eq!(oks, [true, true, false, true, true], "{replies:?}");
    assert_eq!(replies[2].get("id"), Some(&Json::Null));
    let reports = replies[1].get("reports").and_then(Json::as_arr);
    assert_eq!(reports.map(<[Json]>::len), Some(2));
    assert_eq!(replies[3].get("pong"), Some(&Json::Bool(true)));
    assert!(replies[4].get("report").is_some(), "{:?}", replies[4]);

    drop(client);
    server.shutdown();
    let summary = server.wait().expect("drain");
    assert_eq!((summary.served, summary.errors), (4, 1), "{summary:?}");
}

/// Admission control over a real socket: a client bursting past its
/// token bucket gets typed `rate_limited` frames (class 8) and still
/// gets exactly one reply per request — throttled, never dropped.
#[test]
fn rate_limited_clients_get_typed_frames_over_tcp() {
    let server = Server::bind(
        "127.0.0.1:0",
        ServeOptions {
            workers: 2,
            rate: 1,
            burst: 2,
            ..ServeOptions::default()
        },
        None,
    )
    .expect("bind");

    const BURST: usize = 10;
    let mut client = Client::connect(&server);
    for id in 0..BURST {
        client.send(&format!(
            "{{\"op\":\"analyze\",\"id\":{id},\"shape\":\"m16n256k256\"}}"
        ));
    }
    let mut ok = 0usize;
    let mut limited = 0usize;
    for _ in 0..BURST {
        let reply = client.recv();
        if reply.get("ok") == Some(&Json::Bool(true)) {
            ok += 1;
        } else {
            let error = reply.get("error").expect("typed error frame");
            assert_eq!(
                error.get("class").and_then(Json::as_str),
                Some("rate_limited"),
                "{reply:?}"
            );
            assert_eq!(error.get("exit_code").and_then(Json::as_num), Some(8.0));
            limited += 1;
        }
    }
    assert_eq!(ok + limited, BURST, "zero-lost: every request answered");
    assert!(ok >= 2, "the opening burst allowance must be admitted");
    assert!(
        limited >= 5,
        "a 10-deep instant burst at rate 1/s must throttle"
    );

    // A fresh connection gets its own full bucket.
    let mut fresh = Client::connect(&server);
    let reply = fresh.roundtrip("{\"op\":\"analyze\",\"id\":99,\"shape\":\"m16n256k256\"}");
    assert_eq!(reply.get("ok"), Some(&Json::Bool(true)), "{reply:?}");

    drop(client);
    drop(fresh);
    server.shutdown();
    let summary = server.wait().expect("drain");
    assert_eq!(summary.rate_limited, limited as u64, "{summary:?}");
}

/// The `--max-clients` accept gate: connection N+1 is answered with one
/// explanatory protocol frame and closed; the slot frees when a client
/// leaves.
#[test]
fn max_clients_gate_rejects_and_recovers() {
    let server = Server::bind(
        "127.0.0.1:0",
        ServeOptions {
            max_clients: 1,
            ..ServeOptions::default()
        },
        None,
    )
    .expect("bind");

    let mut first = Client::connect(&server);
    // The roundtrip guarantees the acceptor has counted this client in.
    first.roundtrip("{\"op\":\"ping\",\"id\":1}");

    let mut second = Client::connect(&server);
    let rejection = second.recv();
    assert_eq!(
        rejection.get("ok"),
        Some(&Json::Bool(false)),
        "{rejection:?}"
    );
    let message = rejection
        .get("error")
        .and_then(|e| e.get("message"))
        .and_then(Json::as_str)
        .expect("rejection message");
    assert!(message.contains("--max-clients"), "{message}");
    // ... and then the socket closes (EOF, not a hang).
    let mut rest = String::new();
    assert_eq!(second.reader.read_line(&mut rest).expect("eof"), 0);

    // Freeing the only slot lets the next client in. The acceptor may
    // still be rejecting for a beat after `first` drops, so retries
    // tolerate (and count as "not yet") a rejected attempt.
    drop(first);
    assert!(eventually(|| {
        let Ok(stream) = TcpStream::connect(server.addr()) else {
            return false;
        };
        let Ok(read_half) = stream.try_clone() else {
            return false;
        };
        let mut reader = BufReader::new(read_half);
        let mut writer = stream;
        if writer.write_all(b"{\"op\":\"ping\",\"id\":2}\n").is_err() {
            return false;
        }
        let mut line = String::new();
        match reader.read_line(&mut line) {
            Ok(n) if n > 0 => Json::parse(line.trim_end())
                .ok()
                .is_some_and(|j| j.get("pong") == Some(&Json::Bool(true))),
            _ => false,
        }
    }));

    server.shutdown();
    let summary = server.wait().expect("drain");
    assert!(summary.rejected_conns >= 1, "{summary:?}");
}

/// The LRU hot tier under live traffic: a repeated working set smaller
/// than the tier is answered from memory on the second pass (disk hit
/// counters stay flat), byte-identically to the first pass.
#[test]
fn hot_tier_serves_repeats_from_memory_bit_identically() {
    let dir = scratch_dir("hot");
    let cache = Arc::new(
        ReportCache::open(&dir)
            .expect("open cache")
            .with_hot_tier(32),
    );
    let server = Server::bind(
        "127.0.0.1:0",
        ServeOptions {
            workers: 2,
            ..ServeOptions::default()
        },
        Some(Arc::clone(&cache)),
    )
    .expect("bind");

    const POINTS: usize = 8;
    let frame = |id: usize| {
        format!(
            "{{\"op\":\"analyze\",\"id\":{id},\"shape\":\"m{}n256k256\"}}",
            16 * ((id % POINTS) + 1)
        )
    };
    let mut client = Client::connect(&server);
    let cold: Vec<String> = (0..POINTS)
        .map(|id| client.roundtrip(&frame(id)).render_line())
        .collect();
    let disk_hits_after_cold = cache.hits();
    let warm: Vec<String> = (0..POINTS)
        .map(|id| client.roundtrip(&frame(id)).render_line())
        .collect();

    for (id, (c, w)) in cold.iter().zip(&warm).enumerate() {
        // Replies echo the same id both passes, so whole frames match.
        assert_eq!(c, w, "point {id}: warm reply drifted");
    }
    assert!(
        cache.hot_hits() >= POINTS as u64,
        "warm pass must be answered from the hot tier ({:?})",
        cache
    );
    assert_eq!(
        cache.hits(),
        disk_hits_after_cold,
        "the hot tier must intercept repeats before the disk store"
    );
    assert_eq!(cache.hot_evictions(), 0, "working set fits the tier");

    drop(client);
    server.shutdown();
    server.wait().expect("drain");
    let _ = std::fs::remove_dir_all(&dir);
}

/// End-to-end `pacq loadgen` through the CLI front end: global
/// `--cache`/`--hot`/`--metrics` compose with `--spawn`, nothing is
/// lost, sampled replies are byte-identical, and the manifest carries
/// the latency record.
#[test]
fn loadgen_cli_run_records_latency_provenance() {
    let dir = scratch_dir("loadgen");
    let manifest = dir.join("loadgen-manifest.json");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let cache_dir = dir.join("store");
    let args: Vec<String> = [
        "loadgen",
        "--spawn",
        "--requests",
        "300",
        "--clients",
        "3",
        "--window",
        "8",
        "--unique",
        "12",
        "--sample",
        "6",
        "--cache",
        cache_dir.to_str().expect("utf8 path"),
        "--hot",
        "32",
        "--metrics",
        manifest.to_str().expect("utf8 path"),
    ]
    .iter()
    .map(ToString::to_string)
    .collect();
    let out = pacq::cli::run(&args).expect("loadgen run");
    assert!(out.contains("300 ok, 0 errors, 0 lost"), "{out}");
    assert!(out.contains("6 sampled reports byte-identical"), "{out}");

    let text = std::fs::read_to_string(&manifest).expect("manifest written");
    for needle in [
        "loadgen.requests",
        "loadgen.lost",
        "loadgen.p95_us",
        "latency_histogram_log2",
        "throughput_rps",
        "sampled_identical",
    ] {
        assert!(text.contains(needle), "manifest lacks {needle}:\n{text}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A client that sends a whole window before it reads a reply cannot
/// wedge the server: two clients each pipeline two full windows at
/// `pacq loadgen`'s largest `--window` and lose nothing. Replies are
/// served from the hot tier to keep the run short.
#[test]
fn full_windows_sent_before_reading_lose_nothing() {
    let dir = scratch_dir("window");
    let window = pacq::loadgen::MAX_WINDOW;
    let requests = 2 * 2 * window;
    let (window, requests) = (window.to_string(), requests.to_string());
    let store = dir.join("store");
    let args: Vec<String> = [
        "loadgen",
        "--spawn",
        "--requests",
        &requests,
        "--clients",
        "2",
        "--window",
        &window,
        "--unique",
        "8",
        "--sample",
        "2",
        "--cache",
        store.to_str().expect("utf8 path"),
        "--hot",
        "16",
    ]
    .iter()
    .map(ToString::to_string)
    .collect();
    let out = pacq::cli::run(&args).expect("loadgen run");
    assert!(
        out.contains(&format!("{requests} ok, 0 errors, 0 lost")),
        "{out}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A spawned `pacq serve`, killed if a failed assertion drops it early.
struct ServeProcess(Child);

impl Drop for ServeProcess {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Reads a `--metrics` manifest's counter (0 when absent).
fn counter(manifest: &Json, key: &str) -> f64 {
    manifest
        .get("counters")
        .and_then(|c| c.get(key))
        .map_or(0.0, |v| v.as_num().expect("counters are numeric"))
}

fn read_manifest(path: &Path) -> Json {
    let text = std::fs::read_to_string(path).expect("manifest written");
    Json::parse(&text).expect("manifest parses")
}

/// Spawns `pacq serve --port 0 --cache STORE --metrics` with `extra`
/// flags and its stdout in a log file, drives it with a spawned
/// `pacq loadgen --ready-log LOG` under `load`, then sends a `shutdown`
/// frame and waits for the drain. Returns the loadgen and server
/// manifests.
fn serve_under_load(dir: &Path, tag: &str, extra: &[&str], load: &[&str]) -> (Json, Json) {
    let pacq = env!("CARGO_BIN_EXE_pacq");
    let path = |name: &str| dir.join(format!("{tag}-{name}"));
    let (log, served, loaded) = (
        path("server.log"),
        path("server.json"),
        path("loadgen.json"),
    );
    let store = dir.join("store");
    let mut server = ServeProcess(
        Command::new(pacq)
            .args(["serve", "--port", "0", "--cache"])
            .arg(&store)
            .arg("--metrics")
            .arg(&served)
            .args(extra)
            .env_remove("PACQ_JOBS")
            .stdout(std::fs::File::create(&log).expect("server log"))
            .spawn()
            .expect("spawn pacq serve"),
    );
    let loadgen = Command::new(pacq)
        .arg("loadgen")
        .arg("--ready-log")
        .arg(&log)
        .args(load)
        .arg("--metrics")
        .arg(&loaded)
        .env_remove("PACQ_JOBS")
        .output()
        .expect("spawn pacq loadgen");
    assert!(
        loadgen.status.success(),
        "loadgen: {}",
        String::from_utf8_lossy(&loadgen.stderr)
    );

    let text = std::fs::read_to_string(&log).expect("server log");
    let ready = Json::parse(text.lines().next().expect("ready frame")).expect("ready parses");
    let addr = ready
        .get("addr")
        .and_then(Json::as_str)
        .expect("ready addr");
    let stream = TcpStream::connect(addr).expect("connect to serve");
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let mut writer = stream;
    writer
        .write_all(b"{\"op\":\"shutdown\",\"id\":0}\n")
        .expect("send shutdown");
    let mut ack = String::new();
    reader.read_line(&mut ack).expect("shutdown ack");
    assert!(ack.contains("\"draining\":true"), "{ack}");
    drop((reader, writer));
    let status = server.0.wait().expect("server exits");
    assert!(status.success(), "serve exited with {status:?}");
    (read_manifest(&loaded), read_manifest(&served))
}

/// Two `pacq serve` processes over one `--cache` store, each found
/// through its ready log by `pacq loadgen --ready-log`. The first, with
/// a hot tier, answers 2000 requests over 32 points with nothing lost,
/// no error and no throttling, at least 95% from the hot tier. The
/// second, a fresh process, finds at least 95% of its reports on disk.
#[test]
fn serve_processes_share_one_store_through_ready_logs() {
    let dir = scratch_dir("processes");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let load = |requests: &'static str| {
        [
            "--requests",
            requests,
            "--clients",
            "4",
            "--window",
            "8",
            "--unique",
            "32",
            "--sample",
            "8",
        ]
    };

    let (loadgen, server) = serve_under_load(&dir, "hot", &["--hot", "1024"], &load("2000"));
    assert_eq!(counter(&loadgen, "loadgen.requests"), 2000.0);
    assert_eq!(counter(&loadgen, "loadgen.lost"), 0.0);
    assert_eq!(counter(&loadgen, "loadgen.errors"), 0.0);
    assert_eq!(counter(&loadgen, "loadgen.sampled_identical"), 8.0);
    let record = loadgen
        .get("results")
        .and_then(Json::as_arr)
        .and_then(|r| {
            r.iter()
                .find(|r| r.get("kind").and_then(Json::as_str) == Some("loadgen"))
        })
        .expect("loadgen result record");
    let histogram = record.get("latency_histogram_log2").and_then(Json::as_arr);
    assert!(
        histogram.is_some_and(|h| !h.is_empty()),
        "{}",
        record.render_line()
    );
    let throughput = record.get("throughput_rps").and_then(Json::as_num);
    assert!(
        throughput.is_some_and(|t| t > 0.0),
        "{}",
        record.render_line()
    );

    let (hot_hits, hot_misses) = (
        counter(&server, "serve.hot_hits"),
        counter(&server, "serve.hot_misses"),
    );
    let rate = hot_hits / (hot_hits + hot_misses).max(1.0);
    assert!(
        rate >= 0.95,
        "hot-tier rate {rate} < 0.95 ({hot_hits}h/{hot_misses}m)"
    );
    assert_eq!(counter(&server, "serve.rate_limited"), 0.0);
    assert_eq!(counter(&server, "serve.errors"), 0.0);
    // Every request got its reply, plus the shutdown acknowledgement.
    assert_eq!(counter(&server, "serve.served"), 2001.0);

    let (loadgen, server) = serve_under_load(&dir, "disk", &[], &load("200"));
    assert_eq!(counter(&loadgen, "loadgen.lost"), 0.0);
    let (hits, misses) = (
        counter(&server, "serve.cache_hits"),
        counter(&server, "serve.cache_misses"),
    );
    let rate = hits / (hits + misses).max(1.0);
    assert!(
        rate >= 0.95,
        "warm disk-hit rate {rate} < 0.95 ({hits}h/{misses}m)"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
