//! # pacq-bench — the experiment harness
//!
//! One binary per table/figure of the paper (run them with
//! `cargo run -p pacq-bench --release --bin figN`). This library hosts
//! [`init`], which gives every binary the `pacq` argument grammar and
//! global run knobs (`--jobs`, `--metrics`, `--cache`, `--hot`,
//! `--arch-template`, each as `--f V` or `--f=V`), plus small shared
//! formatting helpers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Write;

/// Run-manifest handle for a figure/table binary: [`init`] arms the
/// process-wide observability collector when `--metrics PATH` is on the
/// command line, and [`Metrics::finish`] drains it into a schema-valid
/// `pacq-metrics/v1` manifest at that path (DESIGN.md §11). Without the
/// flag both are no-ops, so instrumentation stays zero-cost.
#[must_use = "call .finish() at the end of the figure body to write the manifest"]
pub struct Metrics {
    binary: &'static str,
    args: pacq::args::Args,
    jobs: usize,
    knobs: pacq::cli::Knobs,
}

/// Parses the process arguments of a figure/table binary through the
/// shared grammar and applies the global run knobs exactly as `pacq`
/// does (`--jobs`, `--metrics`, `--cache` with `--hot`,
/// `--arch-template`, and the `PACQ_JOBS` env spelling).
/// Any other argument is a usage error naming it and the binary.
///
/// # Errors
///
/// Returns a usage error ([`pacq::PacqError`], exit code 2) for an
/// unknown flag or argument, a missing or malformed value, or `--hot`
/// without `--cache`; an I/O error (exit code 6) when the cache
/// directory cannot be created; a template error (exit code 9) when
/// `--arch-template` names a file that does not validate.
pub fn init(binary: &'static str) -> pacq::PacqResult<Metrics> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let accepted = format!("{} --arch-template", pacq::cli::GLOBAL_FLAGS);
    let args = pacq::args::Args::parse(&argv, binary, &accepted)?;
    if let Some(extra) = args.positionals().next() {
        return Err(pacq::args::does_not_apply(extra, binary));
    }
    let knobs = pacq::cli::Knobs::resolve(&args)?;
    let jobs = pacq::par::configure_jobs(knobs.jobs);
    if knobs.metrics.is_some() {
        pacq_trace::enable();
    }
    Ok(Metrics {
        binary,
        args,
        jobs,
        knobs,
    })
}

impl Metrics {
    /// The report cache to attach to runners (`--cache DIR`, with any
    /// `--hot N` tier), if any.
    pub fn cache(&self) -> Option<std::sync::Arc<pacq::ReportCache>> {
        self.knobs.cache.clone()
    }

    /// A [`pacq::GemmRunner`] carrying every shared knob of this run
    /// ([`pacq::cli::Knobs::runner`]).
    ///
    /// # Errors
    ///
    /// Returns a template error (exit code 9) when the template's
    /// energy model cannot be derived.
    pub fn runner(&self) -> pacq::PacqResult<pacq::GemmRunner> {
        self.knobs.runner()
    }

    /// Writes the run manifest if `--metrics` was requested, draining
    /// the collector either way, and appends the cache session tallies
    /// (when a store was attached) and the manifest path to `out`.
    ///
    /// # Errors
    ///
    /// Returns [`pacq::PacqError::Io`] (exit code 6) when the manifest
    /// cannot be written.
    pub fn finish(self, out: &mut String) -> pacq::PacqResult<()> {
        if let Some(cache) = &self.knobs.cache {
            let _ = writeln!(
                out,
                "\ncache: {} hits, {} misses",
                cache.hits(),
                cache.misses()
            );
        }
        self.knobs
            .finish_metrics(self.binary, &self.args, Some(self.jobs), true)?;
        if let Some(path) = &self.knobs.metrics {
            let _ = writeln!(out, "\nwrote metrics manifest -> {path}");
        }
        Ok(())
    }
}

/// Maps a figure/table body onto the process: `Ok(output)` writes the
/// output to stdout in one piece and exits 0 (a reader that closed the
/// pipe early, as `fig10 | head -1` does, is a quiet success too); `Err`
/// prints the one-line diagnostic to stderr and exits with the
/// error-class code (DESIGN.md §10) — never a backtrace.
pub fn exit(result: pacq::PacqResult<String>) -> std::process::ExitCode {
    match result.and_then(|output| pacq::cli::write_stdout(&output)) {
        Ok(()) => std::process::ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::ExitCode::from(e.exit_code())
        }
    }
}

/// A figure/table banner: the first lines of the binary's output.
pub fn banner(id: &str, title: &str, paper: &str) -> String {
    let rule = "=".repeat(78);
    format!("{rule}\n{id}: {title}\npaper reports: {paper}\n{rule}\n")
}

/// Formats a ratio as `N.NNx`.
pub fn times(x: f64) -> String {
    format!("{x:.2}x")
}

/// Formats a fraction as a percentage.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", 100.0 * x)
}

/// Formats a large count with thousands grouping.
pub fn grouped(mut v: u64) -> String {
    let mut parts = Vec::new();
    loop {
        if v < 1000 {
            parts.push(v.to_string());
            break;
        }
        parts.push(format!("{:03}", v % 1000));
        v /= 1000;
    }
    parts.reverse();
    parts.join(",")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grouping() {
        assert_eq!(grouped(0), "0");
        assert_eq!(grouped(999), "999");
        assert_eq!(grouped(1000), "1,000");
        assert_eq!(grouped(1234567), "1,234,567");
    }

    #[test]
    fn formatting() {
        assert_eq!(times(1.994), "1.99x");
        assert_eq!(pct(0.543), "54.3%");
    }
}
