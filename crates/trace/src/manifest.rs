//! The machine-readable **run manifest**: one JSON document per run
//! capturing what was simulated, the counters behind the numbers, the
//! per-phase wall-clock spans, and build/toolchain provenance.
//!
//! Schema `pacq-metrics/v1` (see DESIGN.md §11 for the field-by-field
//! contract):
//!
//! ```json
//! {
//!   "schema": "pacq-metrics/v1",
//!   "tool": { "name": "pacq", "version": "0.1.0",
//!             "git_commit": "abc123… | unknown",
//!             "toolchain": "rustc 1.xx | unknown" },
//!   "invocation": { "binary": "fig7", "args": ["--jobs", "2"], "jobs": 2 },
//!   "results": [ { "kind": "gemm_report", … }, … ],
//!   "counters": { "simt.simulate.calls": 12, … },
//!   "spans": [ { "name": "simt.simulate", "start_us": 0, "dur_us": 41 }, … ],
//!   "created_unix_s": 1754524800
//! }
//! ```
//!
//! Every figure binary and the `pacq` CLI emit this exact shape via
//! [`RunManifest::gather`]; [`validate_manifest`] is the schema gate the
//! audit job runs on the emitted file.

use crate::collect;
use crate::json::Json;
use pacq_error::{PacqError, PacqResult};

/// The manifest schema identifier this build writes and validates.
pub const SCHEMA: &str = "pacq-metrics/v1";

/// A run manifest under construction.
#[derive(Debug, Clone)]
pub struct RunManifest {
    binary: String,
    args: Vec<String>,
    jobs: Option<usize>,
    effective_jobs: Option<usize>,
    arch_template: Option<String>,
    results: Vec<Json>,
    counters: Vec<(String, u64)>,
    spans: Vec<collect::SpanRecord>,
}

impl RunManifest {
    /// Starts a manifest for a binary invocation.
    pub fn new(binary: impl Into<String>, args: &[String]) -> Self {
        RunManifest {
            binary: binary.into(),
            args: args.to_vec(),
            jobs: None,
            effective_jobs: None,
            arch_template: None,
            results: Vec::new(),
            counters: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Records the user-requested worker count (`--jobs` / `PACQ_JOBS`;
    /// `None` when the host default applied).
    pub fn with_jobs(mut self, jobs: Option<usize>) -> Self {
        self.jobs = jobs;
        self
    }

    /// Records the worker count the pool actually ran with — provenance
    /// for "how parallel was this run" even when no count was requested
    /// and the host default applied.
    pub fn with_effective_jobs(mut self, jobs: usize) -> Self {
        self.effective_jobs = Some(jobs);
        self
    }

    /// Records the content digest of the `--arch-template` file the run
    /// simulated under — the provenance that binds the manifest's
    /// numbers to the exact template text that produced them (`None`
    /// for the built-in machine).
    pub fn with_arch_template(mut self, digest: Option<String>) -> Self {
        self.arch_template = digest;
        self
    }

    /// Appends one structured result record.
    pub fn push_result(&mut self, result: Json) {
        self.results.push(result);
    }

    /// Drains the process-wide collector (spans, counters, recorded
    /// results) into this manifest. Phases that blew past the
    /// collector's per-name span cap arrive as aggregate tallies and
    /// land in `counters` as `trace.spans_folded.<name>` (count) and
    /// `trace.spans_folded_dur_us.<name>` (summed duration) — the
    /// `spans` array stays bounded however long the process served.
    pub fn gather(&mut self) {
        let (spans, counters, results, overflows) = collect::drain();
        self.spans.extend(spans);
        for (name, value) in counters {
            self.counters.push((name.to_string(), value));
        }
        for o in overflows {
            self.counters
                .push((format!("trace.spans_folded.{}", o.name), o.folded));
            self.counters.push((
                format!("trace.spans_folded_dur_us.{}", o.name),
                o.folded_dur_us,
            ));
        }
        self.results.extend(results);
    }

    /// Renders the manifest document.
    pub fn to_json(&self) -> Json {
        let mut root = Json::object();
        root.set("schema", Json::from(SCHEMA));

        let mut tool = Json::object();
        tool.set("name", Json::from("pacq"));
        tool.set("version", Json::from(env!("CARGO_PKG_VERSION")));
        tool.set("git_commit", Json::from(git_commit()));
        tool.set("toolchain", Json::from(toolchain()));
        root.set("tool", tool);

        let mut invocation = Json::object();
        invocation.set("binary", Json::from(self.binary.as_str()));
        invocation.set(
            "args",
            Json::Arr(self.args.iter().map(|a| Json::from(a.as_str())).collect()),
        );
        match self.jobs {
            Some(jobs) => invocation.set("jobs", Json::from(jobs)),
            None => invocation.set("jobs", Json::Null),
        };
        if let Some(jobs) = self.effective_jobs {
            invocation.set("effective_jobs", Json::from(jobs));
        }
        if let Some(digest) = &self.arch_template {
            invocation.set("arch_template", Json::from(digest.as_str()));
        }
        root.set("invocation", invocation);

        root.set("results", Json::Arr(self.results.clone()));

        let mut counters = Json::object();
        let mut sorted = self.counters.clone();
        sorted.sort();
        for (name, value) in &sorted {
            counters.set(name, Json::from(*value));
        }
        root.set("counters", counters);

        root.set(
            "spans",
            Json::Arr(
                self.spans
                    .iter()
                    .map(|s| {
                        let mut o = Json::object();
                        o.set("name", Json::from(s.name));
                        o.set("start_us", Json::from(s.start_us));
                        o.set("dur_us", Json::from(s.dur_us));
                        o
                    })
                    .collect(),
            ),
        );

        root.set("created_unix_s", Json::from(unix_time_s()));
        root
    }

    /// Renders and writes the manifest to `path`.
    ///
    /// # Errors
    ///
    /// Returns [`PacqError::Io`] when the file cannot be written.
    pub fn write_to(&self, path: &str) -> PacqResult<()> {
        let doc = self.to_json();
        // The writer must never emit a document the validator rejects.
        validate_manifest(&doc)?;
        std::fs::write(path, doc.render()).map_err(|e| PacqError::Io {
            context: "trace::RunManifest::write_to",
            message: format!("cannot write `{path}`: {e}"),
        })
    }
}

/// Validates a parsed document against the `pacq-metrics/v1` schema.
///
/// # Errors
///
/// Returns [`PacqError::InvalidInput`] naming the first field that
/// deviates from the contract (missing, wrong type, or wrong schema id).
pub fn validate_manifest(doc: &Json) -> PacqResult<()> {
    let fail = |what: &str| {
        Err(PacqError::invalid_input(
            "trace::validate_manifest",
            what.to_string(),
        ))
    };
    if !doc.is_obj() {
        return fail("manifest must be a JSON object");
    }
    match doc.get("schema").and_then(Json::as_str) {
        Some(s) if s == SCHEMA => {}
        Some(s) => {
            return Err(PacqError::invalid_input(
                "trace::validate_manifest",
                format!("schema drift: expected `{SCHEMA}`, found `{s}`"),
            ))
        }
        None => return fail("missing string field `schema`"),
    }
    let Some(tool) = doc.get("tool") else {
        return fail("missing object field `tool`");
    };
    for key in ["name", "version", "git_commit", "toolchain"] {
        if tool.get(key).and_then(Json::as_str).is_none() {
            return Err(PacqError::invalid_input(
                "trace::validate_manifest",
                format!("missing string field `tool.{key}`"),
            ));
        }
    }
    let Some(invocation) = doc.get("invocation") else {
        return fail("missing object field `invocation`");
    };
    if invocation.get("binary").and_then(Json::as_str).is_none() {
        return fail("missing string field `invocation.binary`");
    }
    match invocation.get("args") {
        Some(Json::Arr(items)) if items.iter().all(|i| i.as_str().is_some()) => {}
        _ => return fail("`invocation.args` must be an array of strings"),
    }
    // Optional (added after v1 shipped; extra fields are tolerated, but
    // when present the type is part of the contract).
    if let Some(v) = invocation.get("effective_jobs") {
        if v.as_num().is_none() {
            return fail("`invocation.effective_jobs` must be numeric when present");
        }
    }
    if let Some(v) = invocation.get("arch_template") {
        if v.as_str().is_none() {
            return fail("`invocation.arch_template` must be a string when present");
        }
    }
    match doc.get("results") {
        Some(Json::Arr(items)) if items.iter().all(Json::is_obj) => {}
        _ => return fail("`results` must be an array of objects"),
    }
    match doc.get("counters") {
        Some(Json::Obj(entries)) if entries.iter().all(|(_, v)| v.as_num().is_some()) => {}
        _ => return fail("`counters` must be an object with numeric values"),
    }
    match doc.get("spans") {
        Some(Json::Arr(items)) => {
            for item in items {
                let ok = item.get("name").and_then(Json::as_str).is_some()
                    && item.get("start_us").and_then(Json::as_num).is_some()
                    && item.get("dur_us").and_then(Json::as_num).is_some();
                if !ok {
                    return fail("each span needs `name`, `start_us`, `dur_us`");
                }
            }
        }
        _ => return fail("`spans` must be an array"),
    }
    if doc.get("created_unix_s").and_then(Json::as_num).is_none() {
        return fail("missing numeric field `created_unix_s`");
    }
    Ok(())
}

/// The current commit hash, or `"unknown"` outside a git checkout (the
/// provenance fields are best-effort by design — a missing `git` binary
/// must not fail a run).
fn git_commit() -> String {
    run_capture("git", &["rev-parse", "--short=12", "HEAD"])
}

/// The compiler that would build this tree, best-effort.
fn toolchain() -> String {
    run_capture("rustc", &["--version"])
}

fn run_capture(cmd: &str, args: &[&str]) -> String {
    std::process::Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn unix_time_s() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunManifest {
        let mut m =
            RunManifest::new("fig7", &["--jobs".to_string(), "2".to_string()]).with_jobs(Some(2));
        let mut r = Json::object();
        r.set("kind", Json::from("gemm_report"));
        r.set("total_cycles", Json::from(1234u64));
        m.push_result(r);
        m
    }

    #[test]
    fn manifest_round_trips_and_validates() {
        let doc = sample().to_json();
        validate_manifest(&doc).expect("writer output is schema-valid");
        let back = Json::parse(&doc.render()).expect("parses");
        validate_manifest(&back).expect("round-tripped manifest is schema-valid");
        assert_eq!(doc, back, "render/parse round trip is lossless");
    }

    #[test]
    fn effective_jobs_is_optional_but_typed() {
        // Absent: valid (pre-existing manifests).
        validate_manifest(&sample().to_json()).unwrap();
        // Present and numeric: valid, and rendered under `invocation`.
        let doc = sample().with_effective_jobs(8).to_json();
        validate_manifest(&doc).unwrap();
        let v = doc
            .get("invocation")
            .and_then(|i| i.get("effective_jobs"))
            .and_then(Json::as_num);
        assert_eq!(v, Some(8.0));
        // Present but non-numeric: rejected.
        let mut bad = sample().to_json();
        if let Some(invocation) = bad.get("invocation").cloned() {
            let mut invocation = invocation;
            invocation.set("effective_jobs", Json::from("eight"));
            bad.set("invocation", invocation);
        }
        assert!(validate_manifest(&bad).is_err());
    }

    #[test]
    fn arch_template_is_optional_but_typed() {
        validate_manifest(&sample().to_json()).unwrap();
        let doc = sample()
            .with_arch_template(Some("0123abcd".to_string()))
            .to_json();
        validate_manifest(&doc).unwrap();
        let v = doc
            .get("invocation")
            .and_then(|i| i.get("arch_template"))
            .and_then(Json::as_str)
            .map(str::to_string);
        assert_eq!(v.as_deref(), Some("0123abcd"));
        let mut bad = sample().to_json();
        if let Some(invocation) = bad.get("invocation").cloned() {
            let mut invocation = invocation;
            invocation.set("arch_template", Json::from(7u64));
            bad.set("invocation", invocation);
        }
        assert!(validate_manifest(&bad).is_err());
    }

    #[test]
    fn validator_rejects_schema_drift() {
        let mut doc = sample().to_json();
        doc.set("schema", Json::from("pacq-metrics/v0"));
        let err = validate_manifest(&doc).unwrap_err();
        assert!(err.to_string().contains("schema drift"), "{err}");
    }

    #[test]
    fn validator_rejects_missing_fields() {
        for field in ["tool", "invocation", "results", "counters", "spans"] {
            let doc = sample().to_json();
            let Json::Obj(entries) = doc else {
                unreachable!()
            };
            let stripped = Json::Obj(entries.into_iter().filter(|(k, _)| k != field).collect());
            assert!(
                validate_manifest(&stripped).is_err(),
                "must reject manifest without `{field}`"
            );
        }
    }

    #[test]
    fn validator_rejects_malformed_spans() {
        let mut doc = sample().to_json();
        let mut bad_span = Json::object();
        bad_span.set("name", Json::from("x"));
        doc.set("spans", Json::Arr(vec![bad_span]));
        assert!(validate_manifest(&doc).is_err());
    }

    #[test]
    fn provenance_is_never_empty() {
        let doc = sample().to_json();
        let tool = doc.get("tool").unwrap();
        for key in ["git_commit", "toolchain"] {
            let v = tool.get(key).and_then(Json::as_str).unwrap();
            assert!(!v.is_empty());
        }
    }
}
