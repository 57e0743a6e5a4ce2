//! The `--jobs` knob: one place that turns a CLI flag or the
//! `PACQ_JOBS` environment variable into the global worker count every
//! parallel grid and execution path fans out to.
//!
//! All parallel decompositions in the workspace distribute independent
//! output rows, columns or grid points and keep per-element arithmetic
//! order unchanged, so the job count only affects wall-clock time —
//! results are bit-identical at any setting (DESIGN.md §9).

use crate::args::validate_count;
use pacq_error::PacqResult;
use rayon::ThreadPoolBuilder;

/// Environment variable consulted when no explicit job count is given.
pub const JOBS_ENV: &str = "PACQ_JOBS";

/// Upper bound on a user-supplied worker count. Far above any host this
/// simulator runs on; it exists so a typo (`--jobs 40000`) fails loudly
/// instead of asking the thread-pool for forty thousand stacks.
pub const MAX_JOBS: usize = 512;

/// `--jobs N` and `PACQ_JOBS=N`, through the shared
/// [`validate_count`] with the [`MAX_JOBS`] cap. `source` names the
/// spelling in the error message.
///
/// # Errors
///
/// Returns [`PacqError::Usage`](pacq_error::PacqError::Usage) naming
/// `source` for anything but a plain positive integer at most
/// [`MAX_JOBS`].
pub fn validate_jobs(raw: &str, source: &str) -> PacqResult<usize> {
    validate_count(raw, source, MAX_JOBS as u64).map(|n| n as usize)
}

/// Installs the global worker count and returns the effective value:
/// `jobs` workers, or the host parallelism for `None`. The caller has
/// already resolved `--jobs` against [`JOBS_ENV`] (`cli::Knobs`).
/// `Some(0)` also restores the host default (a programmatic escape
/// hatch; user input goes through [`validate_jobs`], which rejects zero).
pub fn configure_jobs(jobs: Option<usize>) -> usize {
    let _ = ThreadPoolBuilder::new()
        .num_threads(jobs.unwrap_or(0))
        .build_global();
    rayon::current_num_threads()
}

/// Reads and validates the [`JOBS_ENV`] environment variable with the
/// same rules as `--jobs` (one validator, two spellings).
///
/// # Errors
///
/// Returns [`PacqError::Usage`](pacq_error::PacqError::Usage) when the
/// variable is set but is not a plain positive integer at most
/// [`MAX_JOBS`] (zero included — a zero worker count is meaningless as
/// user input; omit the variable for the host default).
pub fn validated_env_jobs() -> PacqResult<Option<usize>> {
    let Ok(raw) = std::env::var(JOBS_ENV) else {
        return Ok(None);
    };
    validate_jobs(&raw, JOBS_ENV).map(Some)
}

/// Serializes tests that set [`JOBS_ENV`] or install a process-wide
/// `--jobs` through `cli::run`.
#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::Args;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    /// `--jobs` read through the shared grammar, plus the argv left
    /// once it is taken out.
    fn take_jobs(argv: &[String]) -> PacqResult<(Vec<String>, Option<usize>)> {
        let args = Args::parse(argv, "pacq", "--jobs --shape")?;
        let jobs = args.last("--jobs", |v| validate_jobs(v, "--jobs"))?;
        Ok((args.without("--jobs"), jobs))
    }

    #[test]
    fn explicit_jobs_win() {
        // `configure_jobs` installs process-wide, as `cli::run --jobs`
        // does in the `cli` tests.
        let _guard = test_lock();
        assert_eq!(configure_jobs(Some(3)), 3);
        // A scoped pool wins over the process-wide count on its thread.
        let pool = ThreadPoolBuilder::new().num_threads(2).build().unwrap();
        assert_eq!(pool.install(rayon::current_num_threads), 2);
        assert_eq!(rayon::current_num_threads(), 3);
        // 0 restores the host default.
        configure_jobs(Some(0));
        assert!(rayon::current_num_threads() >= 1);
    }

    #[test]
    fn jobs_flag_is_extracted() {
        let (rest, jobs) = take_jobs(&argv("--shape m16n16k16 --jobs 4")).unwrap();
        assert_eq!(jobs, Some(4));
        assert_eq!(rest, argv("--shape m16n16k16"));
        let (rest, jobs) = take_jobs(&argv("--jobs=2 dse")).unwrap();
        assert_eq!(jobs, Some(2));
        assert_eq!(rest, argv("dse"));
        let (_, jobs) = take_jobs(&argv("compare")).unwrap();
        assert_eq!(jobs, None);
        assert!(take_jobs(&argv("--jobs")).is_err());
        assert!(take_jobs(&argv("--jobs many")).is_err());
    }

    #[test]
    fn zero_jobs_is_a_usage_error() {
        for argv in [argv("--jobs 0"), argv("--jobs=0")] {
            let err = take_jobs(&argv).unwrap_err();
            assert!(err.is_usage(), "{err}");
            assert!(err.to_string().contains("at least 1"), "{err}");
        }
    }

    #[test]
    fn flag_and_env_agree_on_every_boundary_input() {
        // One validator behind both spellings: any input the flag
        // accepts, the env var accepts with the same value, and any
        // input the flag rejects, the env var rejects.
        let cases: &[(&str, Option<usize>)] = &[
            ("4", Some(4)),
            (" 4 ", Some(4)),   // surrounding whitespace tolerated
            ("\t8\n", Some(8)), // ...in any form
            ("512", Some(MAX_JOBS)),
            ("+4", None), // a sign is a typo, not a count
            ("-4", None),
            ("4.0", None),
            ("0", None),
            ("513", None), // beyond the worker cap
            ("99999999999999999999", None),
            ("", None),
            ("  ", None),
        ];
        for &(input, expect) in cases {
            let flag = take_jobs(&["--jobs".to_string(), input.to_string()]).map(|(_, jobs)| jobs);
            let env = validate_jobs(input, JOBS_ENV).map(Some);
            match expect {
                Some(n) => {
                    assert_eq!(flag.as_ref().ok(), Some(&Some(n)), "--jobs `{input}`");
                    assert_eq!(env.as_ref().ok(), Some(&Some(n)), "{JOBS_ENV}=`{input}`");
                }
                None => {
                    assert!(flag.is_err(), "--jobs `{input}` must be rejected");
                    let err = env.unwrap_err();
                    assert!(err.is_usage(), "{err}");
                    assert!(err.to_string().contains(JOBS_ENV), "{err}");
                }
            }
        }
    }

    #[test]
    fn oversized_jobs_name_the_cap() {
        let err = take_jobs(&argv("--jobs 1000")).unwrap_err();
        assert!(err.to_string().contains("512"), "{err}");
    }
}
