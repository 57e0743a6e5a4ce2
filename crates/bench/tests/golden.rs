//! Golden-file tests for the figure binaries (ISSUE 5).
//!
//! Each figure binary (fig7–fig12, fig_is) is a pure function of the
//! committed model
//! constants: no wall-clock lines, no RNG without a fixed seed, no
//! host-dependent paths. That makes full-stdout pinning viable — any
//! drift in the simulator, energy model, or formatting shows up as a
//! readable diff against `tests/golden/figN.txt` instead of a silently
//! shifted paper claim.
//!
//! To regenerate after an *intentional* model change:
//!
//! ```text
//! cargo build -p pacq-bench --bins
//! for f in fig7 fig8 fig9 fig10 fig11 fig12 fig_is; do
//!     ./target/debug/$f > crates/bench/tests/golden/$f.txt
//! done
//! ```

use std::process::Command;

/// Runs a figure binary hermetically and compares stdout byte-for-byte
/// against the committed golden file.
fn assert_matches_golden(bin: &str, golden: &str) {
    let output = Command::new(bin)
        // The worker-count knob must not change output (the parallel
        // layer is bit-identical at any setting), but a malformed
        // inherited value would abort the run with a usage error.
        .env_remove("PACQ_JOBS")
        .output()
        .unwrap_or_else(|e| panic!("spawn {bin}: {e}"));
    assert!(
        output.status.success(),
        "{bin} exited with {:?}\nstderr:\n{}",
        output.status.code(),
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8(output.stdout).expect("figure stdout is UTF-8");
    if stdout != golden {
        // Locate the first diverging line so the failure reads like a
        // diff hunk, not two 1 KiB blobs.
        let line = stdout
            .lines()
            .zip(golden.lines())
            .take_while(|(a, b)| a == b)
            .count();
        panic!(
            "{bin}: stdout drifted from golden file at line {}\n  golden: {:?}\n  actual: {:?}\n\
             (regenerate per the header of crates/bench/tests/golden.rs if intentional)",
            line + 1,
            golden.lines().nth(line).unwrap_or("<eof>"),
            stdout.lines().nth(line).unwrap_or("<eof>"),
        );
    }
}

macro_rules! golden_test {
    ($name:ident, $bin:literal, $file:literal) => {
        #[test]
        fn $name() {
            assert_matches_golden(env!($bin), include_str!($file));
        }
    };
}

golden_test!(
    fig7_stdout_is_pinned,
    "CARGO_BIN_EXE_fig7",
    "golden/fig7.txt"
);
golden_test!(
    fig8_stdout_is_pinned,
    "CARGO_BIN_EXE_fig8",
    "golden/fig8.txt"
);
golden_test!(
    fig9_stdout_is_pinned,
    "CARGO_BIN_EXE_fig9",
    "golden/fig9.txt"
);
golden_test!(
    fig10_stdout_is_pinned,
    "CARGO_BIN_EXE_fig10",
    "golden/fig10.txt"
);
golden_test!(
    fig11_stdout_is_pinned,
    "CARGO_BIN_EXE_fig11",
    "golden/fig11.txt"
);
golden_test!(
    fig12_stdout_is_pinned,
    "CARGO_BIN_EXE_fig12",
    "golden/fig12.txt"
);
golden_test!(
    fig_is_stdout_is_pinned,
    "CARGO_BIN_EXE_fig_is",
    "golden/fig_is.txt"
);
golden_test!(
    fig_activity_stdout_is_pinned,
    "CARGO_BIN_EXE_fig_activity",
    "golden/fig_activity.txt"
);

/// Runs `bin` with `args` and no inherited knobs, asserts its exit code
/// and returns its stderr.
fn exits(bin: &str, args: &[&str], code: i32) -> String {
    let output = Command::new(bin)
        .args(args)
        .env_remove("PACQ_JOBS")
        .output()
        .unwrap_or_else(|e| panic!("spawn {bin}: {e}"));
    let stderr = String::from_utf8_lossy(&output.stderr).into_owned();
    assert_eq!(output.status.code(), Some(code), "{bin} {args:?}: {stderr}");
    stderr
}

#[test]
fn figure_binaries_take_the_pacq_knobs_and_nothing_else() {
    let fig9 = env!("CARGO_BIN_EXE_fig9");
    // An unknown flag is a usage error naming the flag and the binary.
    let stderr = exits(fig9, &["--bogus"], 2);
    assert!(
        stderr.contains("`--bogus` does not apply to `fig9`"),
        "{stderr}"
    );
    exits(env!("CARGO_BIN_EXE_table1"), &["--frobnicate", "x"], 2);
    // A binary that prices no report on the run's machine reads neither
    // the store nor a template, so it refuses both instead of printing
    // the builtin machine under a template's name.
    for (name, bin) in [
        ("fig8", env!("CARGO_BIN_EXE_fig8")),
        ("fig9", fig9),
        ("fig_activity", env!("CARGO_BIN_EXE_fig_activity")),
        ("numerics", env!("CARGO_BIN_EXE_numerics")),
        ("rtl_report", env!("CARGO_BIN_EXE_rtl_report")),
        ("table1", env!("CARGO_BIN_EXE_table1")),
        ("table2", env!("CARGO_BIN_EXE_table2")),
    ] {
        for flag in ["--cache", "--hot", "--arch-template"] {
            let stderr = exits(bin, &[flag, "x"], 2);
            assert!(
                stderr.contains(&format!("`{flag}` does not apply to `{name}`")),
                "{stderr}"
            );
        }
    }
    // --hot mounts a tier in front of --cache, exactly as on `pacq`.
    let fig7 = env!("CARGO_BIN_EXE_fig7");
    assert!(exits(fig7, &["--hot", "4"], 2).contains("--cache"));
    // An explicit worker count and a store run a figure clean.
    let dir = std::env::temp_dir().join(format!("pacq-fig7-hot-{}", std::process::id()));
    exits(
        fig7,
        &["--jobs", "2", "--cache", &dir.to_string_lossy(), "--hot=4"],
        0,
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A figure binary's `--metrics` manifest is schema-valid, names the
/// binary that wrote it and records the job count it ran with.
#[test]
fn figure_manifest_is_schema_valid_and_records_its_jobs() {
    let path = std::env::temp_dir().join(format!("pacq-fig9-metrics-{}.json", std::process::id()));
    exits(
        env!("CARGO_BIN_EXE_fig9"),
        &["--metrics", &path.to_string_lossy()],
        0,
    );
    let text = std::fs::read_to_string(&path).expect("manifest written");
    let _ = std::fs::remove_file(&path);
    let doc = pacq_trace::Json::parse(&text).expect("manifest parses");
    pacq_trace::validate_manifest(&doc).expect("schema-valid manifest");
    let invocation = doc.get("invocation").expect("invocation block");
    assert_eq!(
        invocation.get("binary").and_then(pacq_trace::Json::as_str),
        Some("fig9"),
        "{text}"
    );
    let jobs = invocation.get("jobs").and_then(pacq_trace::Json::as_num);
    assert!(jobs.is_some_and(|j| j >= 1.0), "{text}");
}

/// A figure binary whose reader closed its stdout before the output was
/// written (`fig10 | head -1`) exits 0 with no panic: the output goes out
/// in one write, and a broken pipe is a quiet success.
#[test]
fn closed_stdout_exits_0_without_a_panic() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_fig10"))
        .env_remove("PACQ_JOBS")
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .unwrap_or_else(|e| panic!("spawn fig10: {e}"));
    drop(child.stdout.take());
    let output = child.wait_with_output().expect("fig10 exits");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(0), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}
