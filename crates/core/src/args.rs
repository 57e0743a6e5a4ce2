//! The one argument grammar every entry point parses argv with: the
//! `pacq` commands, `pacq serve`, `pacq loadgen` and every `pacq-bench`
//! binary.
//!
//! One table (`VALUE_FLAGS` and `SWITCHES`) lists every flag the
//! program knows and whether it takes a value. [`Args::parse`] reads an
//! argv against it and the entry point's accepted-flag list:
//! - a value flag reads `--f V` or `--f=V`; the next token is the value
//!   even when it starts with `-`;
//! - a value flag with nothing after it is "missing value for --f";
//! - a switch given `--f=V` is a usage error;
//! - a flag outside the accepted list is "`--f` does not apply to
//!   `<entry point>`", so a flag an entry point would ignore never
//!   looks accepted.
//!
//! Values stay strings here; every typed validator lives with the knob
//! it validates and runs on every occurrence ([`Args::last`]). The one
//! exception is [`validate_count`], the positive-count rule every count
//! flag shares.

use pacq_error::{PacqError, PacqResult};

/// The flag table, first half: every flag the program knows that takes
/// a value.
const VALUE_FLAGS: &str = "\
    --metrics --cache --hot --jobs --arch-template \
    --shape --arch --precision --group --dup --width --param --out --shard --checkpoint \
    --tolerance --activity-scale \
    --port --rate --burst --max-clients \
    --addr --ready-log --requests --clients --window --unique --sample";

/// The flag table, second half: every switch.
const SWITCHES: &str = "--help --json --check --pareto --activity --stdio --spawn";

/// The table entry for `name`: its spelling and whether it takes a value.
fn lookup(name: &str) -> Option<(&'static str, bool)> {
    let find = |list: &'static str| list.split_whitespace().find(|f| *f == name);
    find(VALUE_FLAGS)
        .map(|f| (f, true))
        .or_else(|| find(SWITCHES).map(|f| (f, false)))
}

/// Whether `flag` is a known flag that takes a value.
pub(crate) fn takes_value(flag: &str) -> bool {
    lookup(flag).is_some_and(|(_, value)| value)
}

/// Whether the space-separated `accepted` list names `flag`.
fn lists(accepted: &str, flag: &str) -> bool {
    accepted.split_whitespace().any(|f| f == flag)
}

/// The one "`token` does not apply to `entry`" usage error, for a flag
/// or positional an entry point does not take.
pub fn does_not_apply(token: &str, entry: &str) -> PacqError {
    PacqError::usage(format!("`{token}` does not apply to `{entry}`"))
}

/// The one validator of a positive count: `--jobs` and `PACQ_JOBS`,
/// `--hot`, serve's `--rate`/`--burst`/`--max-clients` and loadgen's
/// counts. Surrounding whitespace is tolerated, the digits must be plain
/// (no sign — `+4` is a typo, not a count — and no decimal point), zero
/// is rejected, and the count is capped at the caller's `max`. `source`
/// names the spelling in the error message.
///
/// # Errors
///
/// Returns [`PacqError::Usage`] naming `source` for any other input.
pub fn validate_count(raw: &str, source: &str, max: u64) -> PacqResult<u64> {
    let text = raw.trim();
    if text.is_empty() || !text.bytes().all(|b| b.is_ascii_digit()) {
        return Err(PacqError::usage(format!(
            "invalid {source} value `{raw}` (want a plain positive integer)"
        )));
    }
    match text.parse::<u64>() {
        Ok(0) => Err(PacqError::usage(format!("{source} must be at least 1"))),
        Ok(n) if n <= max => Ok(n),
        _ => Err(PacqError::usage(format!(
            "{source} must be at most {max}, got `{raw}`"
        ))),
    }
}

/// One argv token after parsing.
#[derive(Debug, PartialEq, Eq)]
enum Item {
    /// A known flag and its value (`None` for a switch).
    Flag(&'static str, Option<String>),
    /// Any token that is not a flag.
    Positional(String),
}

/// A parsed argv: flags and positionals in argv order.
#[derive(Debug, PartialEq, Eq)]
pub struct Args {
    items: Vec<Item>,
}

impl Args {
    /// Parses `argv` for `entry` (`pacq <cmd>` or a binary name), which
    /// accepts the flags of the space-separated `accepted` list.
    /// Positionals are kept for the caller to interpret.
    ///
    /// # Errors
    ///
    /// Returns [`PacqError::Usage`] for a flag `entry` does not accept, a
    /// value flag without a value, or a switch given `=V`.
    pub fn parse(argv: &[String], entry: &str, accepted: &str) -> PacqResult<Args> {
        let mut items = Vec::with_capacity(argv.len());
        let mut it = argv.iter();
        while let Some(token) = it.next() {
            if !token.starts_with("--") {
                items.push(Item::Positional(token.clone()));
                continue;
            }
            let (name, inline) = match token.split_once('=') {
                Some((name, value)) => (name, Some(value)),
                None => (token.as_str(), None),
            };
            let (flag, value) = lookup(name)
                .filter(|(f, _)| lists(accepted, f))
                .ok_or_else(|| does_not_apply(name, entry))?;
            let value = match (value, inline) {
                (false, None) => None,
                (false, Some(_)) => {
                    return Err(PacqError::usage(format!("`{flag}` takes no value")))
                }
                (true, Some(v)) => Some(v.to_string()),
                (true, None) => Some(
                    it.next()
                        .ok_or_else(|| PacqError::usage(format!("missing value for {flag}")))?
                        .clone(),
                ),
            };
            items.push(Item::Flag(flag, value));
        }
        Ok(Args { items })
    }

    /// The first token of `argv` that is not a flag or a flag's value —
    /// the command of a `pacq` invocation — read without validating
    /// anything.
    pub fn first_positional(argv: &[String]) -> Option<&str> {
        let mut it = argv.iter();
        while let Some(token) = it.next() {
            if !token.starts_with("--") {
                return Some(token);
            }
            if takes_value(token) {
                it.next();
            }
        }
        None
    }

    /// The non-flag tokens, in argv order.
    pub fn positionals(&self) -> impl Iterator<Item = &str> {
        self.items.iter().filter_map(|item| match item {
            Item::Positional(p) => Some(p.as_str()),
            Item::Flag(..) => None,
        })
    }

    /// Whether `flag` was given.
    pub fn has(&self, flag: &str) -> bool {
        self.items
            .iter()
            .any(|item| matches!(item, Item::Flag(f, _) if *f == flag))
    }

    /// Every value given to `flag`, in argv order.
    pub fn values<'a>(&'a self, flag: &'a str) -> impl Iterator<Item = &'a str> {
        self.items.iter().filter_map(move |item| match item {
            Item::Flag(f, Some(v)) if *f == flag => Some(v.as_str()),
            _ => None,
        })
    }

    /// Validates every value given to `flag` with `parse` and returns
    /// the last one (a repeated flag last-wins, but a malformed earlier
    /// occurrence is still an error).
    ///
    /// # Errors
    ///
    /// Propagates the first error `parse` returns.
    pub fn last<T>(
        &self,
        flag: &str,
        parse: impl Fn(&str) -> PacqResult<T>,
    ) -> PacqResult<Option<T>> {
        let mut last = None;
        for value in self.values(flag) {
            last = Some(parse(value)?);
        }
        Ok(last)
    }

    /// The argv without the flags of the space-separated `flags` list,
    /// each remaining flag spelled `--f V` (the invocation record of a
    /// run manifest, free of the run knobs).
    pub fn without(&self, flags: &str) -> Vec<String> {
        let mut out = Vec::with_capacity(self.items.len());
        for item in &self.items {
            match item {
                Item::Flag(f, _) if lists(flags, f) => {}
                Item::Flag(f, value) => {
                    out.push((*f).to_string());
                    out.extend(value.clone());
                }
                Item::Positional(p) => out.push(p.clone()),
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn the_grammar_reads_both_spellings_and_names_bad_flags() {
        let accepted = "--out --dup --json --param";
        let a = Args::parse(
            &argv("run --out -x --dup=4 --json --param=b=16"),
            "t",
            accepted,
        );
        let a = a.unwrap();
        assert_eq!(a.values("--out").collect::<Vec<_>>(), ["-x"]);
        assert_eq!(a.values("--param").collect::<Vec<_>>(), ["b=16"]);
        assert!(a.has("--json") && a.positionals().eq(["run"]));
        for (input, want) in [
            ("--out", "missing value for --out"),
            ("--json=1", "`--json` takes no value"),
            ("--shard=4", "`--shard` does not apply to `t`"),
            ("--bogus", "`--bogus` does not apply to `t`"),
        ] {
            let e = Args::parse(&argv(input), "t", accepted).unwrap_err();
            assert_eq!(e.exit_code(), 2, "{input}: {e}");
            assert!(e.to_string().contains(want), "{input}: {e}");
        }
    }

    #[test]
    fn helpers_validate_narrow_and_strip() {
        let a = Args::parse(&argv("dse --dup x --dup=4 x"), "t", "--dup").unwrap();
        let parse = |v: &str| v.parse::<usize>().map_err(|_| PacqError::usage(v));
        assert!(
            a.last("--dup", parse).is_err(),
            "every occurrence is validated"
        );
        assert_eq!(a.last("--width", parse).unwrap(), None);
        assert_eq!(a.without("--jobs"), argv("dse --dup x --dup 4 x"));
        assert_eq!(a.without("--dup"), argv("dse x"));
        let command = argv("--cache d --jobs=2 --json analyze");
        assert_eq!(Args::first_positional(&command), Some("analyze"));
    }
}
