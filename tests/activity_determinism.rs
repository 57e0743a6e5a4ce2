//! Determinism of the activity calibration (ISSUE satellite): the same
//! seed and stimulus stream must produce byte-identical audit output
//! across `--jobs 1` vs `--jobs N` and across two separate processes,
//! and the metrics manifests must agree on every field that is not a
//! timing (wall-clock spans, creation timestamp, thread-pool sizing).
//!
//! The calibration is sequential by construction — the LCG stream and
//! the gate-level simulation have no data parallelism — so `--jobs`
//! must be observable only in the manifest's `invocation` block, never
//! in the numbers.

use std::path::PathBuf;
use std::process::Command;
use std::sync::atomic::{AtomicU64, Ordering};

use pacq_trace::Json;

/// A unique scratch path per call, safe under concurrent test binaries.
fn tmp_path(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "pacq-activity-determinism-{}-{tag}-{n}.json",
        std::process::id()
    ))
}

/// One `pacq audit --activity` subprocess run: (stdout bytes, manifest).
fn run_audit(jobs: &str, tag: &str) -> (Vec<u8>, Json) {
    let path = tmp_path(tag);
    let exe = env!("CARGO_BIN_EXE_pacq");
    let out = Command::new(exe)
        .args([
            "audit",
            "--activity",
            "--jobs",
            jobs,
            "--metrics",
            path.to_str().expect("utf-8 temp path"),
        ])
        .output()
        .expect("spawn pacq audit --activity");
    assert!(
        out.status.success(),
        "audit --activity exits 0 (jobs {jobs}): {:?}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&path).expect("manifest written");
    let manifest = Json::parse(&text).expect("manifest parses");
    let _ = std::fs::remove_file(&path);
    (out.stdout, manifest)
}

/// The manifest subtree that must be identical across runs: everything
/// except wall-clock (`spans`, `created_unix_s`) and pool sizing
/// (`invocation.jobs` / `invocation.effective_jobs`).
fn stable_fields(manifest: &Json) -> String {
    let field = |key: &str| {
        manifest
            .get(key)
            .unwrap_or_else(|| panic!("manifest has `{key}`"))
            .render_line()
    };
    let invocation = manifest.get("invocation").expect("invocation block");
    let args = invocation
        .get("args")
        .expect("invocation.args")
        .render_line();
    let binary = invocation
        .get("binary")
        .expect("invocation.binary")
        .render_line();
    format!(
        "schema={} binary={binary} args={args} results={} counters={}",
        field("schema"),
        field("results"),
        field("counters"),
    )
}

#[test]
fn activity_audit_is_byte_identical_across_jobs_and_processes() {
    // Two separate processes at --jobs 1, a third at --jobs 4: the
    // calibration stream is seeded, so every run must agree bytewise.
    let (stdout_a, manifest_a) = run_audit("1", "j1a");
    let (stdout_b, manifest_b) = run_audit("1", "j1b");
    let (stdout_c, manifest_c) = run_audit("4", "j4");

    assert_eq!(
        stdout_a, stdout_b,
        "two processes with identical flags diverged on stdout"
    );
    assert_eq!(
        stdout_a, stdout_c,
        "--jobs 1 vs --jobs 4 diverged on stdout"
    );

    // Manifests compared modulo timings: results and counters must be
    // identical; spans/created_unix_s/jobs are allowed to differ.
    let a = stable_fields(&manifest_a);
    assert_eq!(
        a,
        stable_fields(&manifest_b),
        "cross-process manifest drift"
    );
    assert_eq!(a, stable_fields(&manifest_c), "cross-jobs manifest drift");

    // The pool sizing IS recorded — determinism must not come from the
    // flag being ignored.
    let jobs_of = |m: &Json| {
        m.get("invocation")
            .and_then(|i| i.get("jobs"))
            .and_then(Json::as_num)
    };
    assert_eq!(jobs_of(&manifest_a), Some(1.0));
    assert_eq!(jobs_of(&manifest_c), Some(4.0));
}

#[test]
fn activity_manifest_records_all_four_points_with_histograms() {
    let (_, manifest) = run_audit("1", "fields");
    let results = manifest
        .get("results")
        .and_then(Json::as_arr)
        .expect("results array");
    let audit_points: Vec<&Json> = results
        .iter()
        .filter(|r| r.get("kind").and_then(Json::as_str) == Some("audit.activity"))
        .collect();
    assert_eq!(audit_points.len(), 4, "{}", manifest.render_line());
    let num = |point: &Json, key: &str| {
        point
            .get(key)
            .and_then(Json::as_num)
            .unwrap_or_else(|| panic!("`{key}` is not a number: {}", point.render_line()))
    };
    let label = |point: &Json| {
        let text = |key: &str| point.get(key).and_then(Json::as_str).unwrap_or("?");
        format!("{}.{}", text("unit"), text("precision"))
    };
    let mut seen: Vec<String> = audit_points.iter().map(|p| label(p)).collect();
    seen.sort();
    assert_eq!(
        seen,
        [
            "baseline.int2",
            "baseline.int4",
            "parallel.int2",
            "parallel.int4"
        ]
    );
    for point in &audit_points {
        for key in [
            "unit",
            "precision",
            "analytic_pj_per_op",
            "activity_pj_per_op",
            "activity_pj_per_cycle",
            "rel_error",
            "tolerance",
            "ops",
            "seed",
            "lanes",
            "total_toggles",
            "logic_toggles",
            "toggles_by_class",
        ] {
            assert!(
                point.get(key).is_some(),
                "audit point missing `{key}`: {}",
                point.render_line()
            );
        }
        let line = point.render_line();
        assert!(
            num(point, "rel_error").abs() <= num(point, "tolerance"),
            "out of tolerance: {line}"
        );
        // The toggle histogram covers exactly the priced gate classes,
        // and its classes add up to the logic toggles.
        let Some(Json::Obj(hist)) = point.get("toggles_by_class") else {
            panic!("histogram is not an object: {line}");
        };
        let mut classes: Vec<&str> = hist.iter().map(|(class, _)| class.as_str()).collect();
        classes.sort_unstable();
        assert_eq!(classes, ["and", "mux", "not", "or", "xor"], "{line}");
        let summed: f64 = hist
            .iter()
            .map(|(class, count)| {
                count
                    .as_num()
                    .unwrap_or_else(|| panic!("`{class}`: {line}"))
            })
            .sum();
        assert_eq!(summed, num(point, "logic_toggles"), "{line}");
        assert!(
            num(point, "logic_toggles") <= num(point, "total_toggles"),
            "{line}"
        );
    }
    // The anchored point reproduces Table I's 0.9 pJ/op within 1%.
    let anchor = audit_points
        .iter()
        .find(|p| label(p) == "baseline.int4")
        .expect("baseline int4 anchor");
    assert!(
        num(anchor, "rel_error").abs() < 0.01,
        "anchor drifted: {}",
        anchor.render_line()
    );
    let checks = manifest
        .get("counters")
        .and_then(|c| c.get("audit.activity.checks"))
        .and_then(Json::as_num);
    assert_eq!(checks, Some(4.0));
}
