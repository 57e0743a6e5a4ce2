//! Fault-injection harness: the dynamic half of the no-panic contract
//! (DESIGN.md §10).
//!
//! The library promises that no hostile input — degenerate quantizer
//! matrices, malformed CLI argument vectors, corrupt VCD documents —
//! ever panics a public API: everything surfaces as a typed
//! [`PacqError`]. The clippy lint gate (`unwrap_used`/`expect_used`/
//! `panic` denied in non-test code) enforces this statically; this
//! suite enforces it dynamically by firing randomized corruption at the
//! quantizer, the CLI and the VCD parser and asserting `Err`, never an
//! unwind.

use pacq::cli;
use pacq::{PacqError, PacqResult};
use pacq_fp16::WeightPrecision;
use pacq_quant::{GroupShape, MatrixF32, RtnQuantizer};
use proptest::prelude::*;

/// Asserts that a fallible call neither panics nor unwinds; the `Err`
/// payload must render a one-line diagnostic.
fn assert_no_panic<T>(what: &str, f: impl FnOnce() -> PacqResult<T> + std::panic::UnwindSafe) {
    match std::panic::catch_unwind(f) {
        Ok(Ok(_)) => {}
        Ok(Err(e)) => {
            let msg = e.to_string();
            assert!(!msg.is_empty(), "{what}: empty diagnostic");
            assert!(!msg.contains('\n'), "{what}: multi-line diagnostic: {msg}");
        }
        Err(_) => panic!("{what}: panicked instead of returning Err"),
    }
}

proptest! {
    /// Degenerate matrices (zero-ish extents, NaN/Inf poisoning) give the
    /// RTN quantizer typed errors, never panics.
    #[test]
    fn degenerate_rtn_inputs_never_panic(
        rows in 0usize..40,
        cols in 0usize..20,
        poison in prop::sample::select(vec![f32::NAN, f32::INFINITY, f32::NEG_INFINITY]),
        poisoned in any::<bool>(),
    ) {
        let w = MatrixF32::from_fn(rows, cols, |r, c| {
            if poisoned && r == rows / 2 && c == cols / 2 {
                poison
            } else {
                (r as f32 - c as f32) / 8.0
            }
        });
        let quantizer = RtnQuantizer::new(WeightPrecision::Int4, GroupShape::along_k(32));
        assert_no_panic("rtn.quantize(degenerate)", || quantizer.quantize(&w).map(|_| ()));
        if rows == 0 || cols == 0 || poisoned {
            prop_assert!(quantizer.quantize(&w).is_err());
        }
    }

    /// Hostile CLI argument vectors return `Err` (or help/report text) —
    /// the binary never backtraces at a user.
    #[test]
    fn hostile_cli_argv_never_panics(
        tokens in prop::collection::vec(
            prop::sample::select(vec![
                "analyze", "compare", "dse", "sweep", "help", "frobnicate",
                "--shape", "m16n16k16", "m0n0k0", "m-1n16k16", "mXnYkZ", "m15n16k16",
                "--precision", "int4", "int2", "int5", "",
                "--arch", "pacq", "warp9",
                "--group", "g128", "g0", "h128",
                "--dup", "3", "--width", "0", "--param", "batch", "batch=16", "chaos",
                "--json", "--jobs", "1000000", "-1",
            ]),
            0..6,
        ),
    ) {
        // `--jobs <huge>` would genuinely build a million-thread pool;
        // keep the fuzz on the parser, not the OS.
        let argv: Vec<String> = tokens.iter().map(|s| s.to_string()).collect();
        if argv.iter().any(|t| t == "--jobs" || t == "1000000") {
            let has_valid_jobs = argv
                .windows(2)
                .any(|w| w[0] == "--jobs" && w[1].parse::<usize>().map(|n| n > 64) == Ok(true));
            prop_assume!(!has_valid_jobs);
        }
        assert_no_panic("cli::run(hostile argv)", || cli::run(&argv).map(|_| ()));
    }
}

/// A small valid VCD document to corrupt: the baseline multiplier with
/// every node watched, a few deterministic operations.
fn sample_vcd() -> String {
    use pacq_rtl::{Fp16MulCircuit, VcdRecorder};
    let mut c = Fp16MulCircuit::build();
    let mut vcd = VcdRecorder::new("dut");
    vcd.watch_all_nodes(&c.netlist);
    for i in 0u16..4 {
        c.multiply(0x3C00 + i, 0x4200 ^ (i << 8));
        vcd.sample(&c.netlist);
    }
    vcd.render()
}

proptest! {
    /// Truncated VCD documents (cut anywhere, including mid-header
    /// before `$enddefinitions`) are typed errors, never panics.
    #[test]
    fn truncated_vcd_never_panics(cut_permille in 0u32..1000) {
        let text = sample_vcd();
        let cut = (text.len() * cut_permille as usize) / 1000;
        // Cut on a char boundary (the dump is ASCII, but stay honest).
        let mut cut = cut.min(text.len());
        while !text.is_char_boundary(cut) {
            cut -= 1;
        }
        let truncated = &text[..cut];
        assert_no_panic("parse_transition_counts(truncated)", || {
            pacq_rtl::parse_transition_counts(truncated).map(|_| ())
        });
        // A cut before the header terminator is always an error — a
        // parse cannot succeed without `$enddefinitions`.
        if !truncated.contains("$enddefinitions") {
            prop_assert!(pacq_rtl::parse_transition_counts(truncated).is_err());
        }
    }

    /// Byte-corrupted VCD documents (one byte overwritten with random
    /// garbage) are typed errors or clean parses, never panics.
    #[test]
    fn corrupt_vcd_never_panics(pos_permille in 0u32..1000, byte in any::<u8>()) {
        let mut bytes = sample_vcd().into_bytes();
        let pos = ((bytes.len() * pos_permille as usize) / 1000).min(bytes.len() - 1);
        bytes[pos] = byte;
        let text = String::from_utf8_lossy(&bytes).into_owned();
        assert_no_panic("parse_transition_counts(corrupt)", || {
            pacq_rtl::parse_transition_counts(&text).map(|_| ())
        });
    }
}

#[test]
fn degenerate_activity_streams_are_err_not_panic() {
    use pacq_fp16::WeightPrecision as P;
    use pacq_rtl::MulKind;
    // A zero-length (and single-op) stimulus stream cannot expose a
    // transition; both are typed errors for every netlist × precision.
    for kind in MulKind::ALL {
        for precision in [P::Int4, P::Int2] {
            for ops in [0u64, 1] {
                assert_no_panic("measure(degenerate stream)", || {
                    pacq_rtl::measure(kind, precision, ops, 7).map(|_| ())
                });
                assert!(matches!(
                    pacq_rtl::measure(kind, precision, ops, 7),
                    Err(PacqError::InvalidInput { .. })
                ));
            }
        }
    }
    assert_no_panic("parse_transition_counts(empty)", || {
        pacq_rtl::parse_transition_counts("").map(|_| ())
    });
    assert!(pacq_rtl::parse_transition_counts("  \n ").is_err());
}

#[test]
fn gutted_activity_bom_is_err_not_panic() {
    use pacq_energy::ActivityBom;
    // Pricing a histogram whose gate class was removed from the BOM is
    // a typed error naming the class — for every class in the netlists.
    for class in ["not", "and", "or", "xor", "mux"] {
        let bom = ActivityBom::calibrated().without_class(class);
        assert_no_panic("ActivityBom::price_pj(gutted)", || {
            bom.price_pj(&[(class, 100)]).map(|_| ())
        });
        let e = bom.price_pj(&[(class, 100)]).unwrap_err();
        assert!(
            e.to_string().contains(class) && e.to_string().contains("missing"),
            "{e}"
        );
    }
    // Degenerate scale factors are rejected up front, not at pricing.
    for scale in [0.0, -1.0, f64::NAN, f64::INFINITY] {
        assert_no_panic("ActivityBom::with_scale(degenerate)", || {
            ActivityBom::calibrated().with_scale(scale).map(|_| ())
        });
        assert!(ActivityBom::calibrated().with_scale(scale).is_err());
    }
}

/// The serve surface under concurrent hostile fire (ISSUE 5): 32
/// client threads share one server, each interleaving valid requests
/// with malformed JSON, unknown ops, wrong-typed fields and an
/// oversized frame. The no-panic contract extends per connection:
/// every valid request gets exactly one ok reply, every malformed
/// frame gets exactly one typed error frame, and no client ever loses
/// a reply because of another client's garbage.
#[test]
fn serve_survives_32_hostile_clients() {
    use pacq::{ReportCache, ServeOptions, Server};
    use pacq_trace::Json;
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;
    use std::sync::Arc;

    const CLIENTS: usize = 32;
    const VALID_PER_CLIENT: usize = 5; // analyze ×4 + ping
    const MALFORMED_PER_CLIENT: usize = 4;

    let dir = std::env::temp_dir().join(format!("pacq-serve-stress-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = Arc::new(ReportCache::open(&dir).expect("open cache"));
    let server = Server::bind(
        "127.0.0.1:0",
        ServeOptions {
            workers: 4,
            ..ServeOptions::default()
        },
        Some(Arc::clone(&cache)),
    )
    .expect("bind server");
    let addr = server.addr();

    let clients: Vec<std::thread::JoinHandle<()>> = (0..CLIENTS)
        .map(|c| {
            std::thread::spawn(move || {
                let stream = TcpStream::connect(addr).expect("connect");
                let mut reader = BufReader::new(stream.try_clone().expect("clone"));
                let mut writer = stream;
                let oversized = "x".repeat(pacq::serve::MAX_FRAME_BYTES + 16);
                // Valid ids are globally unique: client*100 + slot.
                let frames = [
                    format!(
                        "{{\"op\":\"analyze\",\"id\":{},\"shape\":\"m16n{}k64\"}}",
                        c * 100,
                        64 + 16 * (c % 4)
                    ),
                    "{\"op\":\"frobnicate\"}".to_string(),
                    format!(
                        "{{\"op\":\"analyze\",\"id\":{},\"shape\":\"m16n64k64\",\"precision\":\"int2\"}}",
                        c * 100 + 1
                    ),
                    "this is not json".to_string(),
                    format!("{{\"op\":\"analyze\",\"id\":{},\"shape\":\"m32n64k64\"}}", c * 100 + 2),
                    "{\"op\":\"analyze\",\"shape\":42}".to_string(),
                    format!("{{\"op\":\"ping\",\"id\":{}}}", c * 100 + 3),
                    oversized,
                    format!(
                        "{{\"op\":\"analyze\",\"id\":{},\"shape\":\"m16n128k64\",\"dup\":4}}",
                        c * 100 + 4
                    ),
                ];
                for frame in &frames {
                    writer
                        .write_all(frame.as_bytes())
                        .and_then(|()| writer.write_all(b"\n"))
                        .expect("send");
                }
                // Exactly one reply per frame, matched by id (replies
                // are unordered across in-flight requests).
                let mut ok_ids = Vec::new();
                let mut error_classes = Vec::new();
                for _ in 0..frames.len() {
                    let mut line = String::new();
                    reader.read_line(&mut line).expect("read reply");
                    let doc = Json::parse(line.trim_end()).expect("reply parses");
                    match doc.get("ok") {
                        Some(&Json::Bool(true)) => {
                            ok_ids.push(doc.get("id").and_then(Json::as_num).expect("id"));
                        }
                        Some(&Json::Bool(false)) => {
                            let class = doc
                                .get("error")
                                .and_then(|e| e.get("class"))
                                .and_then(Json::as_str)
                                .expect("typed class")
                                .to_string();
                            let code = doc
                                .get("error")
                                .and_then(|e| e.get("exit_code"))
                                .and_then(Json::as_num)
                                .expect("exit code");
                            assert!(code >= 2.0, "error frames carry a real exit code");
                            error_classes.push(class);
                        }
                        other => panic!("frame without ok field: {other:?} in {line}"),
                    }
                }
                ok_ids.sort_by(|a, b| a.partial_cmp(b).expect("finite ids"));
                let expected: Vec<f64> =
                    (0..VALID_PER_CLIENT).map(|s| (c * 100 + s) as f64).collect();
                assert_eq!(ok_ids, expected, "client {c}: exactly one ok reply per valid id");
                assert_eq!(
                    error_classes.len(),
                    MALFORMED_PER_CLIENT,
                    "client {c}: exactly one typed error per bad frame"
                );
                for class in &error_classes {
                    assert!(
                        class == "protocol" || class == "usage",
                        "client {c}: unexpected class {class}"
                    );
                }
            })
        })
        .collect();
    for client in clients {
        client.join().expect("client thread clean");
    }

    // Drain; a panicked worker or reader would hang the drain or skew
    // the counters, so a clean summary is the no-panic proof.
    server.shutdown();
    let summary = server.wait().expect("server thread never panics");
    assert_eq!(
        summary.served,
        (CLIENTS * VALID_PER_CLIENT) as u64,
        "no lost replies"
    );
    assert_eq!(summary.errors, (CLIENTS * MALFORMED_PER_CLIENT) as u64);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cli_malformed_shape_has_usage_exit_code() {
    let argv = |s: &str| -> Vec<String> { s.split_whitespace().map(String::from).collect() };
    for cmd in [
        "analyze --shape m0n16k16",
        "analyze --shape m15n16k16",
        "analyze --shape garbage",
        "dse --param chaos --shape m16n16k16",
        "dse --param chaos=1 --shape m16n16k16",
        "sweep --param grid --shape m16n16k16",
    ] {
        let err = cli::run(&argv(cmd)).unwrap_err();
        assert!(err.is_usage(), "{cmd}: {err}");
        assert_eq!(err.exit_code(), 2, "{cmd}");
        assert_ne!(err.exit_code(), 0, "{cmd}");
    }
}

/// `pacq exec` synthesizes its operands, so an absurd shape must be
/// refused by size before anything is allocated: a typed domain error
/// (exit 4), not an abort or an OOM kill. Each shape exceeds the cap on
/// one operand (activations, weights, results). A shape whose element
/// counts would wrap 64 bits is past the MAC bound and is refused as
/// geometry first (`shapes_past_the_mac_bound_are_geometry_errors`).
#[test]
fn cli_exec_rejects_oversized_operands_before_allocating() {
    let argv = |s: &str| -> Vec<String> { s.split_whitespace().map(String::from).collect() };
    for (cmd, operand) in [
        ("exec --shape m16n16k1073741824", "activation"),
        ("exec --shape m16n67108880k16", "weight"),
        ("exec --shape m16384n8192k16 --check", "result"),
    ] {
        let err = cli::run(&argv(cmd)).unwrap_err();
        assert!(
            matches!(err, PacqError::InvalidInput { .. }),
            "{cmd}: {err}"
        );
        assert_eq!(err.exit_code(), 4, "{cmd}");
        let msg = err.to_string();
        assert!(msg.contains(&format!("{operand} elements")), "{cmd}: {msg}");
        assert!(
            msg.contains(&cli::EXEC_MAX_ELEMENTS.to_string()),
            "{cmd}: {msg}"
        );
    }
}

/// A shape whose tile-padded MAC count passes `pacq_simt::MAX_MACS`
/// would wrap the simulator's u64 counters (`RF accesses: 0`, a 0 µJ
/// register file). The CLI and a serve `analyze` frame refuse it as a
/// typed geometry error (exit 3, class `shape`), just past the bound
/// and at m = 2⁶²; the last shape inside the bound still counts.
#[test]
fn shapes_past_the_mac_bound_are_geometry_errors() {
    use pacq::{ServeOptions, Server};
    use pacq_trace::Json;
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;

    let argv = |s: &str| -> Vec<String> { s.split_whitespace().map(String::from).collect() };
    // n = k = 16 leaves room for 2⁵¹ rows' worth of MACs, exclusive.
    let past = ["m2251799813685248n16k16", "m4611686018427387904n16k16"];
    for shape in past {
        for cmd in ["analyze", "compare", "exec"] {
            let cmd = format!("{cmd} --shape {shape}");
            let err = cli::run(&argv(&cmd)).unwrap_err();
            assert!(
                matches!(err, PacqError::ShapeTooLarge { .. }),
                "{cmd}: {err}"
            );
            assert_eq!(err.exit_code(), 3, "{cmd}");
        }
    }
    let edge = cli::run(&argv("analyze --shape m2251799813685232n16k16")).expect("in bounds");
    assert!(
        edge.contains("RF accesses:     216172782113782272"),
        "{edge}"
    );

    let server = Server::bind("127.0.0.1:0", ServeOptions::default(), None).expect("bind");
    let stream = TcpStream::connect(server.addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    for (id, shape) in past.iter().enumerate() {
        writeln!(writer, r#"{{"op":"analyze","id":{id},"shape":"{shape}"}}"#).expect("send");
        let mut line = String::new();
        reader.read_line(&mut line).expect("reply");
        let error = Json::parse(&line)
            .ok()
            .and_then(|frame| frame.get("error").cloned())
            .unwrap_or_else(|| panic!("{shape}: not an error frame: {line}"));
        assert_eq!(
            error.get("class").and_then(Json::as_str),
            Some("shape"),
            "{line}"
        );
        assert_eq!(
            error.get("exit_code").and_then(Json::as_num),
            Some(3.0),
            "{line}"
        );
    }
    writeln!(writer, r#"{{"op":"shutdown","id":9}}"#).expect("send");
    drop(writer);
    drop(reader);
    server.wait().expect("clean drain");
}

/// The largest in-bound shapes along k and along n answer on every
/// dataflow, from the CLI and over serve, for 1-D, 2-D and ragged
/// groups. Nothing here is timed: the scale-fetch count is closed-form,
/// so each point is O(1), while a per-tile walk over 2⁴⁹ k-tiles would
/// leave this test running for days.
#[test]
fn analyze_at_the_mac_bound_edge_finishes() {
    use pacq::{ServeOptions, Server};
    use pacq_trace::Json;
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;

    let argv = |s: &str| -> Vec<String> { s.split_whitespace().map(String::from).collect() };
    let edges = ["m16n16k2251799813685232", "m16n2251799813685232k16"];
    for shape in edges {
        for group in ["g128", "g32x4", "g7"] {
            for arch in ["std", "packedk", "pacq", "is"] {
                let cmd = format!("analyze --shape {shape} --arch {arch} --group {group}");
                let out = cli::run(&argv(&cmd)).unwrap_or_else(|e| panic!("{cmd}: {e}"));
                assert!(out.contains("total cycles"), "{cmd}: {out}");
            }
            let cmd = format!("compare --shape {shape} --group {group}");
            let out = cli::run(&argv(&cmd)).unwrap_or_else(|e| panic!("{cmd}: {e}"));
            assert!(out.contains("PacQ"), "{cmd}: {out}");
        }
    }

    let server = Server::bind("127.0.0.1:0", ServeOptions::default(), None).expect("bind");
    let stream = TcpStream::connect(server.addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    let requests: Vec<String> = edges
        .iter()
        .flat_map(|shape| {
            ["std", "packedk", "pacq", "is"]
                .map(|arch| format!(r#"{{"shape":"{shape}","arch":"{arch}","group":"g7"}}"#))
        })
        .collect();
    let frames = [
        format!(
            r#"{{"op":"analyze","id":0,"shape":"{}","arch":"packedk","group":"g7"}}"#,
            edges[0]
        ),
        format!(
            r#"{{"op":"batch","id":1,"requests":[{}]}}"#,
            requests.join(",")
        ),
    ];
    for frame in &frames {
        writeln!(writer, "{frame}").expect("send");
        let mut line = String::new();
        reader.read_line(&mut line).expect("reply");
        let reply = Json::parse(&line).unwrap_or_else(|_| panic!("not JSON: {line}"));
        assert_eq!(reply.get("ok"), Some(&Json::Bool(true)), "{frame}: {line}");
    }
    writeln!(writer, r#"{{"op":"shutdown","id":9}}"#).expect("send");
    drop(writer);
    drop(reader);
    server.wait().expect("clean drain");
}
