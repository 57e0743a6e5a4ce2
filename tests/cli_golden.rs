//! Golden-file tests for the `pacq` commands: single-point `analyze`
//! (text and `--json`), `compare`, every `sweep --param` form and
//! `dse --pareto`, spawned as the real binary so argv parsing,
//! rendering and exit status are pinned together. Also, the grid table
//! must not depend on the report cache (cold or warm store): only the
//! `cache:` footer line may differ, and the grid's `--metrics` manifest
//! only in its run-local provenance. And `exec --check` must find the
//! batched kernel bit-identical to the scalar reference on every
//! dataflow and precision.
//!
//! To regenerate after an *intentional* output change:
//!
//! ```text
//! cargo build --release -p pacq --bin pacq
//! for p in grid batch dup width; do
//!     ./target/release/pacq sweep --param $p --shape m16n256k256 \
//!         > tests/golden/cli/sweep_$p.txt
//! done
//! ./target/release/pacq dse --shape m16n256k256 --pareto > tests/golden/cli/dse_pareto.txt
//! ./target/release/pacq analyze --shape m16n4096k4096 --arch pacq > tests/golden/cli/analyze.txt
//! ./target/release/pacq analyze --shape m16n4096k4096 --arch pacq --json \
//!     > tests/golden/cli/analyze_json.txt
//! ./target/release/pacq compare --shape m16n11008k4096 --precision int2 \
//!     > tests/golden/cli/compare_int2.txt
//! ```

use pacq::{Architecture, WeightPrecision};
use pacq_trace::Json;
use std::path::PathBuf;
use std::process::{Command, Output};

const SHAPE: &str = "m16n256k256";

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Runs `pacq` from the workspace root with no inherited knobs.
fn spawn(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_pacq"))
        .args(args)
        .current_dir(workspace_root())
        .env_remove("PACQ_JOBS")
        .output()
        .unwrap_or_else(|e| panic!("spawn pacq: {e}"))
}

/// Runs `pacq` and returns its stdout, failing on a nonzero exit.
fn pacq(args: &[&str]) -> String {
    let output = spawn(args);
    assert!(
        output.status.success(),
        "pacq {args:?} exited with {:?}\nstderr:\n{}",
        output.status.code(),
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout).expect("pacq stdout is UTF-8")
}

fn assert_matches(what: &str, actual: &str, golden: &str) {
    if actual != golden {
        // Name the first diverging line so the failure reads like a diff
        // hunk, not two multi-KiB blobs.
        let line = actual
            .lines()
            .zip(golden.lines())
            .take_while(|(a, b)| a == b)
            .count();
        panic!(
            "{what}: stdout drifted from golden at line {}\n  golden: {:?}\n  actual: {:?}\n\
             (regenerate per the header of tests/cli_golden.rs if intentional)",
            line + 1,
            golden.lines().nth(line).unwrap_or("<eof>"),
            actual.lines().nth(line).unwrap_or("<eof>"),
        );
    }
}

/// Splits the session-local `cache:` footer off a grid table.
fn split_cache_footer(out: &str) -> (String, Vec<&str>) {
    let (footer, table): (Vec<&str>, Vec<&str>) =
        out.lines().partition(|l| l.starts_with("cache:"));
    (table.iter().map(|l| format!("{l}\n")).collect(), footer)
}

const GRID: &str = include_str!("golden/cli/sweep_grid.txt");

#[test]
fn sweep_forms_are_pinned() {
    for (param, golden) in [
        ("grid", GRID),
        ("batch", include_str!("golden/cli/sweep_batch.txt")),
        ("dup", include_str!("golden/cli/sweep_dup.txt")),
        ("width", include_str!("golden/cli/sweep_width.txt")),
    ] {
        let out = pacq(&["sweep", "--param", param, "--shape", SHAPE]);
        assert_matches(&format!("sweep --param {param}"), &out, golden);
    }
}

#[test]
fn builtin_equivalent_template_reproduces_the_grid() {
    let out = pacq(&[
        "sweep",
        "--param",
        "grid",
        "--shape",
        SHAPE,
        "--arch-template",
        "examples/arch/volta_like.toml",
    ]);
    assert_matches("sweep --param grid --arch-template volta_like", &out, GRID);
}

#[test]
fn dse_pareto_is_pinned() {
    let out = pacq(&["dse", "--shape", SHAPE, "--pareto"]);
    assert_matches(
        "dse --pareto",
        &out,
        include_str!("golden/cli/dse_pareto.txt"),
    );
}

#[test]
fn analyze_and_compare_are_pinned() {
    let analyze = ["analyze", "--shape", "m16n4096k4096", "--arch", "pacq"];
    assert_matches(
        "analyze",
        &pacq(&analyze),
        include_str!("golden/cli/analyze.txt"),
    );
    assert_matches(
        "analyze --json",
        &pacq(&[&analyze[..], &["--json"]].concat()),
        include_str!("golden/cli/analyze_json.txt"),
    );
    assert_matches(
        "compare --precision int2",
        &pacq(&[
            "compare",
            "--shape",
            "m16n11008k4096",
            "--precision",
            "int2",
        ]),
        include_str!("golden/cli/compare_int2.txt"),
    );
}

/// Removes `key` from a JSON object, returning its value.
fn take(obj: &mut Json, key: &str) -> Option<Json> {
    match obj {
        Json::Obj(entries) => {
            let at = entries.iter().position(|(k, _)| k == key)?;
            Some(entries.remove(at).1)
        }
        _ => None,
    }
}

/// A `--metrics` manifest without its run-local provenance: wall-clock
/// spans, creation time, the tool record, and the counters that differ
/// between a cold and a warm pass (cache, core and simulator layers,
/// executed jobs).
fn without_run_local_provenance(mut doc: Json) -> Json {
    for key in ["spans", "created_unix_s", "tool"] {
        take(&mut doc, key);
    }
    if let Some(Json::Obj(counters)) = take(&mut doc, "counters") {
        let kept: Vec<(String, Json)> = counters
            .into_iter()
            .filter(|(k, _)| {
                !["cache.", "core.", "simt.", "sweep.jobs.executed"]
                    .iter()
                    .any(|p| k.starts_with(p))
            })
            .collect();
        doc.set("counters", Json::Obj(kept));
    }
    doc
}

/// The grid table is the same from a cold `--cache` store, a warm one
/// and no cache at all; only the `cache:` footer differs. The sweep
/// has one compute path (the batched kernel, with the scalar units kept
/// as its `exec --check` reference), so no backend setting remains that
/// could change it.
#[test]
fn grid_table_is_identical_uncached_cold_and_warm() {
    let dir = std::env::temp_dir().join(format!("pacq-cli-golden-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = dir.to_string_lossy().into_owned();
    let grid = ["sweep", "--param", "grid", "--shape", SHAPE];

    let cold = pacq(&[&grid[..], &["--cache", &store]].concat());
    let warm = pacq(&[&grid[..], &["--cache", &store]].concat());
    let uncached = pacq(&grid);
    let _ = std::fs::remove_dir_all(&dir);

    let (cold, cold_footer) = split_cache_footer(&cold);
    let (warm, warm_footer) = split_cache_footer(&warm);
    assert_eq!(cold_footer, ["cache: 0 hits, 36 misses"]);
    assert_eq!(warm_footer, ["cache: 36 hits, 0 misses"]);
    assert_matches("cold --cache grid", &cold, GRID);
    assert_matches("warm --cache grid", &warm, GRID);
    assert_matches("uncached grid", &uncached, GRID);
}

/// The grid sweep twice through one `--cache` store with `--metrics`:
/// the warm pass serves at least 95% of its reports from the store with
/// no failed write, both manifests are equal once run-local provenance
/// is stripped (cached results never drift from fresh ones, as results
/// never depend on which compute path made them), and the store's
/// integrity walk is clean.
#[test]
fn grid_manifest_is_identical_cold_and_warm() {
    let dir = std::env::temp_dir().join(format!("pacq-cli-manifest-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = dir.join("store").to_string_lossy().into_owned();
    let pass = |name: &str| -> Json {
        let path = dir
            .join(format!("{name}.json"))
            .to_string_lossy()
            .into_owned();
        let grid = ["sweep", "--param", "grid", "--shape", SHAPE];
        pacq(&[&grid[..], &["--cache", &store, "--metrics", &path]].concat());
        let text = std::fs::read_to_string(&path).expect("manifest written");
        Json::parse(&text).expect("manifest parses")
    };
    let cold_doc = pass("cold");
    let warm_doc = pass("warm");
    let verify = pacq(&["cache", "verify", "--cache", &store]);
    let _ = std::fs::remove_dir_all(&dir);

    let counter = |key: &str| {
        warm_doc
            .get("counters")
            .and_then(|c| c.get(key))
            .map_or(0.0, |v| v.as_num().expect("counters are numeric"))
    };
    let (hits, misses) = (counter("cache.hits"), counter("cache.misses"));
    assert!(
        hits + misses > 0.0,
        "the warm pass never consulted the cache"
    );
    let rate = hits / (hits + misses);
    assert!(
        rate >= 0.95,
        "warm hit rate {rate} < 0.95 ({hits} hits, {misses} misses)"
    );
    assert_eq!(counter("cache.put_errors"), 0.0, "degraded cache writes");

    let cold_doc = without_run_local_provenance(cold_doc);
    assert!(
        cold_doc
            .get("results")
            .and_then(Json::as_arr)
            .is_some_and(|r| !r.is_empty()),
        "the manifest must carry the grid's reports"
    );
    assert_eq!(
        cold_doc.render(),
        without_run_local_provenance(warm_doc).render(),
        "cached results drifted from fresh ones"
    );
    assert!(verify.ends_with("entries verified OK\n"), "{verify}");
}

/// Malformed input is a usage error (exit 2) with a one-line
/// diagnostic, never a panic backtrace.
#[test]
fn malformed_input_exits_2_without_a_panic() {
    for args in [
        &["analyze", "--shape", "m15n16k16"][..],
        &["sweep", "--param", "batch", "--jobs", "0"],
        &["exec", "--shape", "m16n32k128", "--backend", "batched"],
    ] {
        let output = spawn(args);
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(2), "pacq {args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "pacq {args:?}: {stderr}");
    }
}

/// `pacq exec --check` runs the batched kernel and the scalar reference
/// in one process and exits 7 unless every output bit agrees. Every dataflow
/// at both precisions must pass; only the bits are asserted, not the
/// printed speed. The line and the `--metrics` record name the kernel
/// variant this host runs.
#[test]
fn exec_check_is_bit_identical_for_every_arch_and_precision() {
    let variant = pacq_fp16::batch::kernel_variant();
    let kernel = format!("(g32, batched kernel, {variant})");
    for arch in Architecture::ALL {
        for precision in WeightPrecision::ALL {
            let args = [
                "exec",
                "--shape",
                "m16n48k256",
                "--group",
                "g32",
                "--arch",
                arch.token(),
                "--precision",
                precision.token(),
                "--check",
            ];
            let out = pacq(&args);
            assert!(out.contains("bit-identical"), "pacq {args:?}:\n{out}");
            assert!(out.contains(&kernel), "pacq {args:?}:\n{out}");
        }
    }

    let path = std::env::temp_dir().join(format!("pacq-exec-kernel-{}.json", std::process::id()));
    let path = path.to_string_lossy().into_owned();
    pacq(&["exec", "--shape", "m16n48k256", "--metrics", &path]);
    let text = std::fs::read_to_string(&path).expect("manifest written");
    let _ = std::fs::remove_file(&path);
    let doc = Json::parse(&text).expect("manifest parses");
    let recorded = doc
        .get("results")
        .and_then(Json::as_arr)
        .and_then(|r| r.first())
        .and_then(|r| r.get("kernel"))
        .and_then(Json::as_str);
    assert_eq!(recorded, Some(variant), "{text}");
}

/// A `dse` killed mid-run leaves a byte prefix of its append-only
/// checkpoint. Rerun over the same `--cache` store from any such prefix
/// (every offset inside the header, every record boundary, one offset
/// inside each record), the search must exit 0, resume exactly the
/// records whose `.` terminator made it in, and print the rows of the
/// uninterrupted run.
#[test]
fn dse_resumes_from_every_prefix_of_a_killed_runs_checkpoint() {
    let dir = std::env::temp_dir().join(format!("pacq-cli-prefix-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = dir.join("store").to_string_lossy().into_owned();
    let ckpt = dir.join("dse.ckpt");
    let grid = [
        "dse",
        "--shape",
        SHAPE,
        "--param",
        "batch=16,32",
        "--param",
        "arch=pacq,std",
        "--cache",
        &store,
        "--checkpoint",
        ckpt.to_str().expect("utf-8 temp path"),
    ];
    // Everything but the tally line and the cache footer.
    let rows = |out: &str| -> Vec<String> {
        out.lines()
            .filter(|l| !l.starts_with("dse:") && !l.starts_with("cache:"))
            .map(String::from)
            .collect()
    };
    let uninterrupted = pacq(&grid);
    assert!(
        uninterrupted.contains("resumed 0, executed 8"),
        "{uninterrupted}"
    );
    let full = std::fs::read(&ckpt).expect("checkpoint written");

    let header_end = full.iter().position(|&b| b == b'\n').expect("header") + 1;
    let mut cuts: Vec<usize> = (0..header_end).collect();
    let mut start = header_end;
    for (at, _) in full
        .iter()
        .enumerate()
        .filter(|(at, &b)| *at >= header_end && b == b'\n')
    {
        cuts.extend([start, (start + at) / 2]);
        start = at + 1;
    }
    cuts.push(full.len());

    for cut in cuts {
        std::fs::write(&ckpt, &full[..cut]).expect("truncate checkpoint");
        let resumed = full[header_end.min(cut)..cut]
            .split(|&b| b == b'\n')
            .filter(|line| line.ends_with(b"."))
            .count();
        let out = pacq(&grid);
        let tally = format!("resumed {resumed}, executed {}", 8 - resumed);
        assert!(out.contains(&tally), "cut at byte {cut}: {out}");
        assert_eq!(rows(&out), rows(&uninterrupted), "cut at byte {cut}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A template grid split in two shards, run cold and then warm through
/// one `--cache` store: each shard renders the same table both times
/// (only the `cache:` footer may differ), the warm pass is served at
/// least 95% from the store, and every manifest names the template.
#[test]
fn sharded_template_grid_is_identical_cold_and_warm() {
    let dir = std::env::temp_dir().join(format!("pacq-cli-shards-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = dir.join("store").to_string_lossy().into_owned();
    let template = "examples/arch/pacq.toml";
    let digest = pacq::cli::load_arch_template(&workspace_root().join(template).to_string_lossy())
        .expect("committed template validates")
        .digest();
    let shard = |pass: &str, shard: &str| -> (String, Json) {
        let path = dir
            .join(format!("{pass}-{}.json", &shard[..1]))
            .to_string_lossy()
            .into_owned();
        let out = pacq(&[
            "dse",
            "--shape",
            SHAPE,
            "--arch-template",
            template,
            "--param",
            "batch=16,32,64",
            "--param",
            "arch=std,packedk,pacq",
            "--param",
            "width=4,8",
            "--shard",
            shard,
            "--cache",
            &store,
            "--metrics",
            &path,
        ]);
        let text = std::fs::read_to_string(&path).expect("manifest written");
        (out, Json::parse(&text).expect("manifest parses"))
    };
    let cold = [shard("cold", "1/2"), shard("cold", "2/2")];
    let warm = [shard("warm", "1/2"), shard("warm", "2/2")];
    let _ = std::fs::remove_dir_all(&dir);

    let (mut hits, mut misses) = (0.0, 0.0);
    for ((cold_out, cold_doc), (warm_out, warm_doc)) in cold.iter().zip(&warm) {
        assert_eq!(
            split_cache_footer(cold_out).0,
            split_cache_footer(warm_out).0
        );
        for doc in [cold_doc, warm_doc] {
            let recorded = doc
                .get("invocation")
                .and_then(|i| i.get("arch_template"))
                .and_then(Json::as_str);
            assert_eq!(recorded, Some(digest.as_str()));
        }
        let counter = |key: &str| {
            warm_doc
                .get("counters")
                .and_then(|c| c.get(key))
                .map_or(0.0, |v| v.as_num().expect("counters are numeric"))
        };
        hits += counter("cache.hits");
        misses += counter("cache.misses");
    }
    assert!(
        hits + misses > 0.0,
        "the warm pass never consulted the cache"
    );
    let rate = hits / (hits + misses);
    assert!(
        rate >= 0.95,
        "warm hit rate {rate} < 0.95 ({hits} hits, {misses} misses)"
    );
}
