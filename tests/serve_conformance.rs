//! Differential conformance suite for the `pacq-serve/v1` server
//! (ISSUE 5, DESIGN.md §13): for randomized `(shape, precision,
//! architecture, group, dup, width)` requests, the server's JSON report
//! must be **bit-identical** — u64 counters and exact float bits — to
//!
//! 1. [`GemmRunner::analyze`] called in-process (no server, no cache),
//! 2. the same request served again from a **warm cache** (byte-for-byte
//!    identical reply), and
//! 3. the one-shot CLI path (`pacq analyze --json` equals
//!    [`pacq::cli::report_json`] of the in-process report).
//!
//! The random stream is seeded by property name (the in-tree proptest
//! shim's `TestRng`), so every run checks the same ≥200 requests and a
//! failure reproduces exactly.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;

use pacq::cli;
use pacq::{
    Architecture, GemmReport, GemmRunner, GemmShape, ReportCache, ServeOptions, Server, Workload,
};
use pacq_fp16::WeightPrecision;
use pacq_quant::GroupShape;
use pacq_simt::SmConfig;
use pacq_trace::Json;
use proptest::test_runner::TestRng;

/// How many randomized requests the differential sweep checks
/// (each one twice: cold cache, then warm).
const REQUESTS: usize = 220;

/// One randomized request and the CLI/runner configuration it implies.
#[derive(Debug, Clone)]
struct Case {
    shape: GemmShape,
    arch: Architecture,
    arch_token: &'static str,
    precision: WeightPrecision,
    precision_token: &'static str,
    group: GroupShape,
    group_token: String,
    dup: usize,
    width: usize,
}

fn random_case(rng: &mut TestRng) -> Case {
    // Shapes stay small so 2 × 220 analyses run in seconds; ragged
    // extents are included (the zero-padding path must serve exactly
    // like the aligned one) by sometimes skipping 16-alignment…
    // except `pacq analyze --shape` *requires* 16-aligned extents, so
    // the differential-vs-CLI sweep sticks to the CLI's domain.
    let dim = |rng: &mut TestRng, span: usize| 16 * (1 + rng.index(span));
    let shape = GemmShape::new(dim(rng, 3), dim(rng, 8), dim(rng, 8));
    let (arch, arch_token) = [
        (Architecture::StandardDequant, "std"),
        (Architecture::PackedK, "packedk"),
        (Architecture::Pacq, "pacq"),
    ][rng.index(3)];
    let (precision, precision_token) = [
        (WeightPrecision::Int4, "int4"),
        (WeightPrecision::Int2, "int2"),
    ][rng.index(2)];
    let (group, group_token) = match rng.index(4) {
        0 => (GroupShape::G128, "g128".to_string()),
        1 => (GroupShape::G256, "g256".to_string()),
        2 => (GroupShape::G32X4, "g32x4".to_string()),
        _ => (GroupShape::along_k(64), "g64".to_string()),
    };
    let dup = [1usize, 2, 4][rng.index(3)];
    let width = [4usize, 8, 16][rng.index(3)];
    Case {
        shape,
        arch,
        arch_token,
        precision,
        precision_token,
        group,
        group_token,
        dup,
        width,
    }
}

impl Case {
    fn shape_token(&self) -> String {
        format!("m{}n{}k{}", self.shape.m, self.shape.n, self.shape.k)
    }

    /// The request frame for this case.
    fn frame(&self, id: usize) -> String {
        format!(
            concat!(
                "{{\"op\":\"analyze\",\"id\":{},\"shape\":\"{}\",\"arch\":\"{}\",",
                "\"precision\":\"{}\",\"group\":\"{}\",\"dup\":{},\"width\":{}}}"
            ),
            id,
            self.shape_token(),
            self.arch_token,
            self.precision_token,
            self.group_token,
            self.dup,
            self.width,
        )
    }

    /// The equivalently-configured in-process runner (no cache).
    fn runner(&self) -> GemmRunner {
        let mut cfg = SmConfig::volta_like();
        cfg.adder_tree_duplication = self.dup;
        cfg.dp_width = self.width;
        GemmRunner::new().with_config(cfg).with_group(self.group)
    }

    fn workload(&self) -> Workload {
        Workload::new(self.shape, self.precision)
    }
}

fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "pacq-serve-conformance-{}-{tag}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&p);
    p
}

/// A minimal NDJSON client: send one line, read one line.
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

    fn roundtrip(&mut self, frame: &str) -> String {
        self.writer
            .write_all(frame.as_bytes())
            .and_then(|()| self.writer.write_all(b"\n"))
            .expect("send frame");
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("read reply");
        assert!(line.ends_with('\n'), "reply must be a full line: {line:?}");
        line.trim_end().to_string()
    }
}

/// The whole differential sweep runs against one server so the warm
/// pass genuinely exercises the shared cache.
#[test]
fn server_cli_and_runner_agree_bit_exactly_cold_and_warm() {
    let dir = scratch_dir("diff");
    let cache = Arc::new(ReportCache::open(&dir).expect("open cache"));
    let server = Server::bind(
        "127.0.0.1:0",
        ServeOptions {
            workers: 2,
            ..ServeOptions::default()
        },
        Some(Arc::clone(&cache)),
    )
    .expect("bind server");

    let mut rng = TestRng::for_property("serve_conformance::differential");
    let cases: Vec<Case> = (0..REQUESTS).map(|_| random_case(&mut rng)).collect();

    let mut client = Client::connect(&server);
    let mut cold_replies = Vec::with_capacity(cases.len());
    for (id, case) in cases.iter().enumerate() {
        cold_replies.push(client.roundtrip(&case.frame(id)));
    }
    let cold_misses = cache.misses();
    assert!(
        cache.hits() < cold_misses,
        "cold pass must be miss-dominated ({} hits / {cold_misses} misses)",
        cache.hits(),
    );

    // Warm pass: same frames, same connection order — every reply must
    // be byte-identical and the store must answer from memory.
    for (id, case) in cases.iter().enumerate() {
        let warm = client.roundtrip(&case.frame(id));
        assert_eq!(
            warm, cold_replies[id],
            "case {id} ({case:?}): warm reply drifted from cold"
        );
    }
    assert_eq!(
        cache.misses(),
        cold_misses,
        "the warm pass must not recompute anything"
    );
    assert!(
        cache.hits() >= REQUESTS as u64,
        "every warm request must hit ({} hits)",
        cache.hits()
    );

    for (id, (case, reply)) in cases.iter().zip(&cold_replies).enumerate() {
        let frame = Json::parse(reply).expect("reply parses");
        assert_eq!(
            frame.get("ok"),
            Some(&Json::Bool(true)),
            "case {id} ({case:?}): {reply}"
        );
        assert_eq!(
            frame.get("id").and_then(Json::as_num),
            Some(id as f64),
            "reply id echo"
        );
        let report_doc = frame.get("report").expect("report payload");

        // 1. Bit-identical to the in-process runner: same wire bytes,
        //    same decoded struct, same float bit patterns.
        let runner = case.runner();
        let fresh = runner
            .analyze(case.arch, case.workload())
            .expect("in-process analyze");
        let key = runner.cache_key(case.arch, case.workload());
        let expected_doc = fresh.to_json(&key);
        assert_eq!(
            report_doc.render_line(),
            expected_doc.render_line(),
            "case {id} ({case:?}): wire form drifted"
        );
        let served = GemmReport::from_json(report_doc, Some(&key)).expect("served report decodes");
        let expected = &fresh;
        assert_eq!(&served, expected, "case {id}");
        assert_eq!(served.latency_s.to_bits(), expected.latency_s.to_bits());
        assert_eq!(served.edp_pj_s.to_bits(), expected.edp_pj_s.to_bits());
        for (got, want) in [
            (served.energy.tc_pj, expected.energy.tc_pj),
            (served.energy.rf_pj, expected.energy.rf_pj),
            (served.energy.l1_pj, expected.energy.l1_pj),
            (served.energy.dram_pj, expected.energy.dram_pj),
            (served.energy.buffer_pj, expected.energy.buffer_pj),
            (served.energy.general_pj, expected.energy.general_pj),
        ] {
            assert_eq!(got.to_bits(), want.to_bits(), "case {id}: energy bits");
        }

        // 2. The one-shot CLI path agrees with the same in-process
        //    report (the serve ≡ runner ≡ CLI triangle).
        let argv: Vec<String> = [
            "analyze",
            "--shape",
            &case.shape_token(),
            "--arch",
            case.arch_token,
            "--precision",
            case.precision_token,
            "--group",
            &case.group_token,
            "--dup",
            &case.dup.to_string(),
            "--width",
            &case.width.to_string(),
            "--json",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let cli_out = cli::run(&argv).expect("one-shot CLI analyze");
        assert_eq!(
            cli_out,
            cli::report_json(&fresh),
            "case {id} ({case:?}): CLI path drifted from the in-process report"
        );
    }

    // Batch conformance: the same points sent as one frame must yield
    // the same per-point wire bytes as the one-at-a-time replies.
    let sample: Vec<usize> = (0..cases.len()).step_by(29).collect();
    let entries: Vec<String> = sample
        .iter()
        .map(|&i| {
            let c = &cases[i];
            format!(
                concat!(
                    "{{\"shape\":\"{}\",\"arch\":\"{}\",\"precision\":\"{}\",",
                    "\"group\":\"{}\",\"dup\":{},\"width\":{}}}"
                ),
                c.shape_token(),
                c.arch_token,
                c.precision_token,
                c.group_token,
                c.dup,
                c.width,
            )
        })
        .collect();
    let batch = format!(
        "{{\"op\":\"batch\",\"id\":9999,\"requests\":[{}]}}",
        entries.join(",")
    );
    let reply = Json::parse(&client.roundtrip(&batch)).expect("batch reply parses");
    assert_eq!(reply.get("ok"), Some(&Json::Bool(true)), "{reply:?}");
    let reports = reply
        .get("reports")
        .and_then(Json::as_arr)
        .expect("reports array");
    assert_eq!(reports.len(), sample.len());
    for (slot, &i) in sample.iter().enumerate() {
        let single = Json::parse(&cold_replies[i]).expect("cold reply parses");
        assert_eq!(
            reports[slot].render_line(),
            single.get("report").expect("report").render_line(),
            "batch slot {slot} (case {i}) drifted from the single-shot reply"
        );
    }

    // Drain and confirm the counters saw the whole sweep.
    let shutdown = client.roundtrip("{\"op\":\"shutdown\",\"id\":10000}");
    assert!(shutdown.contains("\"draining\":true"), "{shutdown}");
    drop(client);
    let summary = server.wait().expect("clean drain");
    assert_eq!(summary.errors, 0, "no error frames in a clean sweep");
    assert_eq!(summary.served as usize, 2 * REQUESTS + 2);

    std::fs::remove_dir_all(&dir).ok();
}

/// The `--stdio` lifecycle speaks the same protocol: drive the
/// installed binary (when present) end-to-end through a pipe. Falls
/// back to the in-process TCP server when the binary is missing (e.g.
/// `cargo test -p pacq --lib` builds no binaries first).
#[test]
fn stdio_mode_serves_the_same_reports() {
    use std::process::{Command, Stdio};

    let exe = env!("CARGO_BIN_EXE_pacq");
    let mut child = Command::new(exe)
        .args(["serve", "--stdio"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn pacq serve --stdio");
    let mut stdin = child.stdin.take().expect("child stdin");
    let stdout = BufReader::new(child.stdout.take().expect("child stdout"));

    let case = Case {
        shape: GemmShape::new(16, 256, 256),
        arch: Architecture::Pacq,
        arch_token: "pacq",
        precision: WeightPrecision::Int2,
        precision_token: "int2",
        group: GroupShape::G128,
        group_token: "g128".to_string(),
        dup: 2,
        width: 4,
    };
    stdin
        .write_all((case.frame(1) + "\n{\"op\":\"shutdown\",\"id\":2}\n").as_bytes())
        .expect("write frames");
    drop(stdin);

    let lines: Vec<String> = stdout.lines().map(|l| l.expect("read line")).collect();
    let status = child.wait().expect("child exits");
    assert!(status.success(), "serve --stdio exits 0: {status:?}");

    // ready first and drained last; the analyze reply and the shutdown
    // ack are matched by id (replies are unordered across requests).
    assert!(lines.len() >= 4, "{lines:?}");
    let ready = Json::parse(&lines[0]).expect("ready parses");
    assert_eq!(ready.get("event").and_then(Json::as_str), Some("ready"));
    let frames: Vec<Json> = lines
        .iter()
        .map(|l| Json::parse(l).expect("every line parses"))
        .collect();
    let by_id = |id: f64| {
        frames
            .iter()
            .find(|f| f.get("id").and_then(Json::as_num) == Some(id))
            .unwrap_or_else(|| panic!("no reply with id {id}: {lines:?}"))
    };
    let reply = by_id(1.0);
    assert_eq!(by_id(2.0).get("draining"), Some(&Json::Bool(true)));
    let runner = case.runner();
    let fresh = runner
        .analyze(case.arch, case.workload())
        .expect("in-process analyze");
    let key = runner.cache_key(case.arch, case.workload());
    assert_eq!(
        reply.get("report").expect("report").render_line(),
        fresh.to_json(&key).render_line(),
        "stdio-served report drifted"
    );
    let last = Json::parse(lines.last().expect("last line")).expect("drained parses");
    assert_eq!(last.get("event").and_then(Json::as_str), Some("drained"));
}
