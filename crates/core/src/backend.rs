//! The `--backend` knob: one place that turns a CLI flag or the
//! `PACQ_BACKEND` environment variable into a [`Backend`] selection for
//! every functional execution path.
//!
//! Both backends compute the same bits — the batched column-tile kernel
//! is bit-identical to the scalar datapaths (DESIGN.md §14) — so the
//! selection only affects wall-clock time, exactly like `--jobs`.

use pacq_error::{PacqError, PacqResult};
use pacq_fp16::Backend;

/// Environment variable consulted when no explicit backend is given.
pub const BACKEND_ENV: &str = "PACQ_BACKEND";

/// The one validator behind both spellings of the knob (`--backend B`
/// and `PACQ_BACKEND=B`): surrounding whitespace is tolerated, the
/// token must match a backend name exactly (case-sensitive — `Scalar`
/// is a typo, not a backend). `source` names the spelling in the error
/// message.
///
/// # Errors
///
/// Returns [`PacqError::Usage`] naming `source` for an unknown token.
pub fn validate_backend(raw: &str, source: &str) -> PacqResult<Backend> {
    let v = raw.trim();
    Backend::parse(v).ok_or_else(|| {
        PacqError::usage(format!(
            "invalid {source} value `{raw}` (want `scalar` or `batched`)"
        ))
    })
}

/// Reads and validates the [`BACKEND_ENV`] environment variable with
/// the same rules as `--backend` (one validator, two spellings).
///
/// # Errors
///
/// Returns [`PacqError::Usage`] when the variable is set but is not a
/// known backend token.
pub fn validated_env_backend() -> PacqResult<Option<Backend>> {
    let Ok(raw) = std::env::var(BACKEND_ENV) else {
        return Ok(None);
    };
    validate_backend(&raw, BACKEND_ENV).map(Some)
}

/// Resolves the effective backend: an explicit `backend` argument
/// (from `--backend B`), then the [`BACKEND_ENV`] environment
/// variable, then [`Backend::Scalar`]. Like `--jobs`, the env spelling
/// is validated even when the flag wins — a typo'd `PACQ_BACKEND` must
/// never pass silently.
///
/// # Errors
///
/// Returns [`PacqError::Usage`] when the environment variable holds an
/// unknown token.
pub fn resolve_backend(backend: Option<Backend>) -> PacqResult<Backend> {
    let env = validated_env_backend()?;
    Ok(backend.or(env).unwrap_or_default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::Args;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    /// `--backend` read through the shared grammar, plus the argv left
    /// once it is taken out.
    fn take_backend(argv: &[String]) -> PacqResult<(Vec<String>, Option<Backend>)> {
        let args = Args::parse(argv, "pacq", "--backend --shape")?;
        let backend = args.last("--backend", |v| validate_backend(v, "--backend"))?;
        Ok((args.without("--backend"), backend))
    }

    #[test]
    fn backend_flag_is_extracted() {
        let (rest, b) = take_backend(&argv("--shape m16n16k16 --backend batched")).unwrap();
        assert_eq!(b, Some(Backend::Batched));
        assert_eq!(rest, argv("--shape m16n16k16"));
        let (rest, b) = take_backend(&argv("--backend=scalar sweep")).unwrap();
        assert_eq!(b, Some(Backend::Scalar));
        assert_eq!(rest, argv("sweep"));
        let (_, b) = take_backend(&argv("compare")).unwrap();
        assert_eq!(b, None);
        assert!(take_backend(&argv("--backend")).is_err());
        assert!(take_backend(&argv("--backend turbo")).is_err());
    }

    #[test]
    fn flag_and_env_agree_on_every_boundary_input() {
        // One validator behind both spellings: any input the flag
        // accepts, the env var accepts with the same value, and any
        // input the flag rejects, the env var rejects.
        let cases: &[(&str, Option<Backend>)] = &[
            ("scalar", Some(Backend::Scalar)),
            ("batched", Some(Backend::Batched)),
            (" batched ", Some(Backend::Batched)), // surrounding whitespace tolerated
            ("\tscalar\n", Some(Backend::Scalar)), // ...in any form
            ("Scalar", None),                      // case matters: a typo, not a backend
            ("BATCHED", None),
            ("turbo", None),
            ("scalar,batched", None),
            ("", None),
            ("  ", None),
        ];
        for &(input, expect) in cases {
            let flag = take_backend(&["--backend".to_string(), input.to_string()]).map(|(_, b)| b);
            let env = validate_backend(input, BACKEND_ENV).map(Some);
            match expect {
                Some(b) => {
                    assert_eq!(flag.as_ref().ok(), Some(&Some(b)), "--backend `{input}`");
                    assert_eq!(env.as_ref().ok(), Some(&Some(b)), "{BACKEND_ENV}=`{input}`");
                }
                None => {
                    let err = flag.unwrap_err();
                    assert!(err.is_usage(), "--backend `{input}`: {err}");
                    assert!(
                        err.to_string().contains("want `scalar` or `batched`"),
                        "{err}"
                    );
                    let err = env.unwrap_err();
                    assert!(err.is_usage(), "{err}");
                    assert!(err.to_string().contains(BACKEND_ENV), "{err}");
                }
            }
        }
    }

    #[test]
    fn explicit_backend_wins_over_default() {
        // Other tests set PACQ_BACKEND under this lock.
        let _guard = crate::par::test_lock();
        assert_eq!(
            resolve_backend(Some(Backend::Batched)).unwrap(),
            Backend::Batched
        );
        // With no explicit flag and (in this test environment) no env
        // override, the scalar reference is the default.
        if std::env::var(BACKEND_ENV).is_err() {
            assert_eq!(resolve_backend(None).unwrap(), Backend::Scalar);
        }
    }
}
