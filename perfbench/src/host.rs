//! Host provenance and process memory, so a result file alone says what
//! machine and build produced it (core count, cache sizes against the
//! 2 MiB INT4 product table, profile, source revision).

use pacq_trace::Json;
use std::path::Path;

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A sysfs cache size (`"2048K"`) in bytes, for the cache of `level`
/// and kind `Unified`/`Data` seen by cpu0.
fn cache_bytes(level: u32) -> Option<u64> {
    let base = Path::new("/sys/devices/system/cpu/cpu0/cache");
    for index in 0..8 {
        let dir = base.join(format!("index{index}"));
        let read = |f: &str| std::fs::read_to_string(dir.join(f)).ok();
        let Some(lvl) = read("level") else { break };
        let kind = read("type").unwrap_or_default();
        if lvl.trim() == level.to_string() && kind.trim() != "Instruction" {
            let size = read("size")?;
            let size = size.trim();
            let (digits, mult) = match size.strip_suffix('K') {
                Some(d) => (d, 1024),
                None => match size.strip_suffix('M') {
                    Some(d) => (d, 1024 * 1024),
                    None => (size, 1),
                },
            };
            return digits.parse::<u64>().ok().map(|v| v * mult);
        }
    }
    None
}

/// The source revision from the `.git` directory next to the
/// benchmark, or `unknown` (a source export carries no history).
fn git_rev() -> String {
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let head = std::fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    match head.trim().strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(git.join(reference))
            .map(|r| r.trim().to_string())
            .unwrap_or_else(|_| "unknown".to_string()),
        None if !head.trim().is_empty() => head.trim().to_string(),
        None => "unknown".to_string(),
    }
}

/// Peak resident set size of this process, in MiB (`VmHWM`).
pub fn rss_peak_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

pub fn provenance(jobs: usize) -> Json {
    let mut p = Json::object();
    p.set("nproc", nproc());
    p.set("jobs", jobs);
    let size = |level| cache_bytes(level).map_or(Json::Null, Json::from);
    p.set("l2_bytes", size(2));
    p.set("l3_bytes", size(3));
    p.set(
        "profile",
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
    );
    p.set("git_rev", git_rev());
    p
}
