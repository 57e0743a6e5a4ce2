//! # pacq-error — the workspace-wide typed error layer
//!
//! Every public fallible API in the pacq workspace returns
//! [`Result<T, PacqError>`](PacqResult) instead of panicking. The
//! hierarchy is deliberately small: one enum whose variants map 1:1
//! onto the classes of malformed input a long-running serving stack
//! must survive. The CLI maps each class to a distinct nonzero exit
//! code via [`PacqError::exit_code`]:
//!
//! | exit code | class | variants |
//! |---|---|---|
//! | 2 | usage / argv | [`PacqError::Usage`] |
//! | 3 | shape contract | [`PacqError::ZeroDim`], [`PacqError::ShapeMismatch`], [`PacqError::Misaligned`], [`PacqError::ShapeTooLarge`] |
//! | 4 | numeric domain | [`PacqError::InvalidInput`], [`PacqError::NonFinite`], [`PacqError::EmptySearchSpace`] |
//! | 6 | filesystem / OS | [`PacqError::Io`] |
//! | 7 | audit divergence | [`PacqError::AuditMismatch`] |
//! | 8 | serve protocol | [`PacqError::Protocol`], [`PacqError::RateLimited`] |
//! | 9 | architecture template | [`PacqError::Template`] |
//!
//! Exit code 5 (once the decoder of a retired binary weight container)
//! is unassigned and not reused, so a code never changes meaning.
//!
//! The no-panic contract is enforced statically — the library crates
//! deny `clippy::unwrap_used` / `expect_used` / `panic` outside tests —
//! and dynamically by the `tests/fault_injection.rs` proptest suite.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use std::fmt;

/// Shorthand for `Result<T, PacqError>` used across the workspace.
pub type PacqResult<T> = Result<T, PacqError>;

/// The unified error type of the pacq workspace.
///
/// Variants are grouped into classes — usage, shape contract, numeric
/// domain, filesystem, audit, serve protocol, architecture template —
/// each with its own CLI exit code (see [`PacqError::exit_code`]).
/// `context` fields name the API that rejected the input so a one-line
/// diagnostic is self-locating.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum PacqError {
    /// Malformed command line: unknown flag, bad flag value, missing
    /// argument. The CLI prints usage after this one.
    Usage {
        /// What was wrong with the invocation.
        message: String,
    },
    /// A dimension that must be positive was zero.
    ZeroDim {
        /// The API and dimension that rejected the input.
        context: &'static str,
    },
    /// Two extents that must agree did not.
    ShapeMismatch {
        /// The API and pair of extents being reconciled.
        context: &'static str,
        /// The extent on the left-hand side of the contract.
        left: usize,
        /// The extent on the right-hand side of the contract.
        right: usize,
    },
    /// An extent violated an alignment/divisibility requirement.
    Misaligned {
        /// The API and extent that rejected the input.
        context: &'static str,
        /// The offending extent.
        extent: usize,
        /// The required divisor.
        multiple: usize,
    },
    /// A shape holds more multiply-accumulates than the simulator's u64
    /// counters can count without wrapping.
    ShapeTooLarge {
        /// The API that rejected the shape.
        context: &'static str,
        /// The rejected `(m, n, k)` extents.
        extents: (usize, usize, usize),
        /// The most MACs (after padding to the tile grid) accepted.
        max: u64,
    },
    /// A parameter was outside its documented domain (wrong pack
    /// dimension, unsupported width, non-positive damping, ...).
    InvalidInput {
        /// The API that rejected the input.
        context: &'static str,
        /// What the domain is and what was received.
        message: String,
    },
    /// An input that must be finite contained NaN or ±Inf.
    NonFinite {
        /// The API and operand that rejected the input.
        context: &'static str,
    },
    /// A search was asked to pick a best element from an empty space
    /// (e.g. a roofline crossover search that finds no batch).
    EmptySearchSpace {
        /// The search that had nothing to search.
        context: &'static str,
    },
    /// A filesystem or OS operation failed (writing a metrics manifest,
    /// a Chrome trace, a VCD dump, ...).
    Io {
        /// The API that attempted the operation.
        context: &'static str,
        /// The OS-level cause, flattened to one line.
        message: String,
    },
    /// A malformed `pacq-serve/v1` frame: not a JSON object, missing the
    /// `op` field, an unknown operation, or a frame exceeding the size
    /// cap. The server answers these with a typed error frame and keeps
    /// the connection alive; the CLI maps them to exit code 8.
    Protocol {
        /// The protocol layer that rejected the frame.
        context: &'static str,
        /// What was wrong with the frame.
        message: String,
    },
    /// A client exceeded its per-connection admission rate: the
    /// server's token bucket for that peer ran dry. This is explicit
    /// backpressure, not a protocol violation — the connection stays open and the client
    /// should slow down and retry.
    RateLimited {
        /// The sustained per-client rate (requests/second) configured
        /// on the server.
        rate: u64,
        /// The burst allowance (bucket capacity) that was exhausted.
        burst: u64,
    },
    /// A declarative architecture template (`pacq-arch/v1`) failed
    /// validation: wrong schema tag, a malformed or unknown field, an
    /// inconsistent memory hierarchy (e.g. an L1 cheaper to read than
    /// the register file), or a dataflow/packing combination the
    /// simulator does not model. Produced by `pacq_arch::ArchTemplate`;
    /// the CLI maps it to exit code 9.
    Template {
        /// The template file or API that rejected the input.
        context: String,
        /// What the schema contract is and what was received.
        message: String,
    },
    /// The self-audit found two models of the same run disagreeing:
    /// an event-replay counter diverged from its analytic closed form,
    /// or an energy total from its component BOM sum.
    AuditMismatch {
        /// The audited quantity (first diverging counter), dotted by
        /// subsystem — e.g. `rf.b_reads`, `energy.total_pj`.
        counter: String,
        /// The case being audited (shape, dataflow, precision).
        case: String,
        /// Value from the event-driven replay / measured side.
        observed: String,
        /// Value from the analytic closed form / expected side.
        expected: String,
    },
}

impl PacqError {
    /// Convenience constructor for [`PacqError::Usage`].
    pub fn usage(message: impl Into<String>) -> Self {
        PacqError::Usage {
            message: message.into(),
        }
    }

    /// Convenience constructor for [`PacqError::InvalidInput`].
    pub fn invalid_input(context: &'static str, message: impl Into<String>) -> Self {
        PacqError::InvalidInput {
            context,
            message: message.into(),
        }
    }

    /// Convenience constructor for [`PacqError::Protocol`].
    pub fn protocol(context: &'static str, message: impl Into<String>) -> Self {
        PacqError::Protocol {
            context,
            message: message.into(),
        }
    }

    /// Convenience constructor for [`PacqError::Template`].
    pub fn template(context: impl Into<String>, message: impl Into<String>) -> Self {
        PacqError::Template {
            context: context.into(),
            message: message.into(),
        }
    }

    /// The process exit code the CLI uses for this error class.
    ///
    /// Distinct nonzero codes per class so scripted callers can tell a
    /// typo (2) from a bad model shape (3), a numeric-domain violation
    /// (4) or a filesystem failure (6) without parsing stderr.
    pub fn exit_code(&self) -> u8 {
        match self {
            PacqError::Usage { .. } => 2,
            PacqError::ZeroDim { .. }
            | PacqError::ShapeMismatch { .. }
            | PacqError::Misaligned { .. }
            | PacqError::ShapeTooLarge { .. } => 3,
            PacqError::InvalidInput { .. }
            | PacqError::NonFinite { .. }
            | PacqError::EmptySearchSpace { .. } => 4,
            PacqError::Io { .. } => 6,
            PacqError::AuditMismatch { .. } => 7,
            PacqError::Protocol { .. } | PacqError::RateLimited { .. } => 8,
            PacqError::Template { .. } => 9,
        }
    }

    /// The stable wire token for this error's class, used by the
    /// `pacq-serve/v1` error frame so scripted clients can dispatch on
    /// the class without parsing the human-readable message.
    pub fn class(&self) -> &'static str {
        match self {
            PacqError::Usage { .. } => "usage",
            PacqError::ZeroDim { .. }
            | PacqError::ShapeMismatch { .. }
            | PacqError::Misaligned { .. }
            | PacqError::ShapeTooLarge { .. } => "shape",
            PacqError::InvalidInput { .. }
            | PacqError::NonFinite { .. }
            | PacqError::EmptySearchSpace { .. } => "domain",
            PacqError::Io { .. } => "io",
            PacqError::AuditMismatch { .. } => "audit",
            PacqError::Protocol { .. } => "protocol",
            PacqError::RateLimited { .. } => "rate_limited",
            PacqError::Template { .. } => "template",
        }
    }

    /// True for errors that should be followed by a usage blurb.
    pub fn is_usage(&self) -> bool {
        matches!(self, PacqError::Usage { .. })
    }
}

impl fmt::Display for PacqError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PacqError::Usage { message } => write!(f, "{message}"),
            PacqError::ZeroDim { context } => {
                write!(f, "{context}: dimension must be non-zero")
            }
            PacqError::ShapeMismatch {
                context,
                left,
                right,
            } => write!(f, "{context}: extents disagree ({left} vs {right})"),
            PacqError::Misaligned {
                context,
                extent,
                multiple,
            } => write!(
                f,
                "{context}: extent {extent} is not a multiple of {multiple}"
            ),
            PacqError::ShapeTooLarge {
                context,
                extents: (m, n, k),
                max,
            } => write!(
                f,
                "{context}: m{m}n{n}k{k} holds more than {max} MACs after tile padding, \
                 the most the simulator's 64-bit counters admit"
            ),
            PacqError::InvalidInput { context, message } => write!(f, "{context}: {message}"),
            PacqError::NonFinite { context } => {
                write!(f, "{context}: input contains NaN or infinite values")
            }
            PacqError::EmptySearchSpace { context } => {
                write!(f, "{context}: search space is empty")
            }
            PacqError::Io { context, message } => write!(f, "{context}: {message}"),
            PacqError::Protocol { context, message } => write!(f, "{context}: {message}"),
            PacqError::RateLimited { rate, burst } => write!(
                f,
                "client exceeded admission rate ({rate} req/s, burst {burst}); slow down and retry"
            ),
            PacqError::Template { context, message } => {
                write!(f, "{context}: {message}")
            }
            PacqError::AuditMismatch {
                counter,
                case,
                observed,
                expected,
            } => write!(
                f,
                "audit mismatch in `{counter}` for {case}: observed {observed}, expected {expected}"
            ),
        }
    }
}

impl std::error::Error for PacqError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exit_codes_are_distinct_per_class() {
        let usage = PacqError::usage("bad flag");
        let zero = PacqError::ZeroDim { context: "t" };
        let mismatch = PacqError::ShapeMismatch {
            context: "t",
            left: 1,
            right: 2,
        };
        let misaligned = PacqError::Misaligned {
            context: "t",
            extent: 7,
            multiple: 16,
        };
        let domain = PacqError::invalid_input("t", "bad");
        let io = PacqError::Io {
            context: "t",
            message: "disk full".to_string(),
        };
        let audit = PacqError::AuditMismatch {
            counter: "rf.b_reads".to_string(),
            case: "m=16 n=16 k=16 int4 pacq".to_string(),
            observed: "1".to_string(),
            expected: "2".to_string(),
        };
        assert_eq!(usage.exit_code(), 2);
        assert_eq!(zero.exit_code(), 3);
        assert_eq!(mismatch.exit_code(), 3);
        assert_eq!(misaligned.exit_code(), 3);
        assert_eq!(domain.exit_code(), 4);
        assert_eq!(io.exit_code(), 6);
        assert_eq!(audit.exit_code(), 7);
        let protocol = PacqError::protocol("serve", "missing `op`");
        let limited = PacqError::RateLimited { rate: 10, burst: 4 };
        assert_eq!(protocol.exit_code(), 8);
        assert_eq!(limited.exit_code(), 8);
        let template = PacqError::template("arch.toml", "schema must be pacq-arch/v1");
        assert_eq!(template.exit_code(), 9);
        assert_eq!(template.class(), "template");
        assert!(!template.is_usage());
        assert!(usage.is_usage());
        assert!(!audit.is_usage());
        assert!(!protocol.is_usage());
    }

    #[test]
    fn class_tokens_are_stable_and_distinct_per_class() {
        let cases = [
            (PacqError::usage("x"), "usage"),
            (PacqError::ZeroDim { context: "t" }, "shape"),
            (PacqError::invalid_input("t", "bad"), "domain"),
            (
                PacqError::Io {
                    context: "t",
                    message: "gone".to_string(),
                },
                "io",
            ),
            (
                PacqError::AuditMismatch {
                    counter: "c".to_string(),
                    case: "x".to_string(),
                    observed: "1".to_string(),
                    expected: "2".to_string(),
                },
                "audit",
            ),
            (PacqError::protocol("serve", "bad frame"), "protocol"),
            (PacqError::RateLimited { rate: 5, burst: 2 }, "rate_limited"),
        ];
        for (error, token) in &cases {
            assert_eq!(error.class(), *token, "{error}");
        }
        // Tokens within one exit-code class may differ (protocol and
        // rate_limited both exit 8 but clients must tell them apart).
        assert_ne!(
            PacqError::protocol("serve", "x").class(),
            PacqError::RateLimited { rate: 1, burst: 1 }.class()
        );
    }

    #[test]
    fn rate_limited_names_rate_and_burst() {
        let line = PacqError::RateLimited { rate: 25, burst: 7 }.to_string();
        assert!(line.contains("25"), "{line}");
        assert!(line.contains("7"), "{line}");
        assert!(!line.contains('\n'));
    }

    #[test]
    fn audit_mismatch_names_the_diverging_counter() {
        let e = PacqError::AuditMismatch {
            counter: "buffer_fills".to_string(),
            case: "m=24 n=40 k=48 int2 packed_k".to_string(),
            observed: "264".to_string(),
            expected: "96".to_string(),
        };
        let line = e.to_string();
        assert!(line.contains("buffer_fills"), "{line}");
        assert!(line.contains("264"), "{line}");
        assert!(line.contains("96"), "{line}");
        assert!(!line.contains('\n'));
    }

    #[test]
    fn displays_are_one_line() {
        let errors = [
            PacqError::usage("unknown flag `--frobnicate`"),
            PacqError::ZeroDim { context: "rtn" },
            PacqError::NonFinite { context: "rtn" },
            PacqError::EmptySearchSpace {
                context: "roofline",
            },
        ];
        for e in errors {
            let line = e.to_string();
            assert!(!line.is_empty());
            assert!(!line.contains('\n'), "multi-line Display: {line:?}");
        }
    }
}
