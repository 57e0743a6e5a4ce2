//! Shared validation for repeatable `--param` flags.
//!
//! Two commands spell search axes through `--param`: `pacq sweep` takes
//! exactly one bare name (`--param batch`), `pacq dse` takes repeated
//! `name=v1,v2,...` specs. Both used to accept silently-broken input —
//! a duplicated parameter name last-wins'd, and an empty value list
//! produced an empty (vacuously "successful") search. This module is
//! the one validator both go through: every malformed spec is a typed
//! usage error (exit code 2) naming the offending flag.

use pacq_error::{PacqError, PacqResult};

/// One validated `--param` occurrence: a parameter name plus its value
/// list (empty for the bare `--param name` spelling).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParamSpec {
    /// The parameter name (left of `=`, or the whole flag value).
    pub name: String,
    /// The comma-separated values (right of `=`); empty when the spec
    /// was a bare name.
    pub values: Vec<String>,
}

fn err(msg: impl Into<String>) -> PacqError {
    PacqError::usage(msg)
}

/// Parses and validates every `--param` occurrence of one invocation.
///
/// Rejected with a usage error (exit code 2):
/// - an empty or non-`[A-Za-z0-9_-]` parameter name;
/// - the same parameter named twice (`--param batch --param batch=32`
///   would otherwise silently last-win);
/// - a `name=` spec with an empty value list, or any empty value in
///   the list (`batch=16,,32`) — an empty axis would make the whole
///   search product empty and "succeed" having searched nothing.
///
/// # Errors
///
/// Returns [`PacqError::Usage`] naming the offending spec.
pub fn parse_params(
    specs: impl IntoIterator<Item = impl AsRef<str>>,
) -> PacqResult<Vec<ParamSpec>> {
    let mut parsed: Vec<ParamSpec> = Vec::new();
    for spec in specs {
        let spec = spec.as_ref();
        let (name, values) = match spec.split_once('=') {
            Some((name, list)) => {
                let values: Vec<String> = list.split(',').map(str::to_string).collect();
                if values.iter().any(String::is_empty) {
                    return Err(err(format!(
                        "--param {spec}: empty value list (an empty axis would search nothing)"
                    )));
                }
                (name, values)
            }
            None => (spec, Vec::new()),
        };
        if name.is_empty()
            || !name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_')
        {
            return Err(err(format!("--param {spec}: malformed parameter name")));
        }
        if parsed.iter().any(|p| p.name == name) {
            return Err(err(format!(
                "--param {spec}: parameter `{name}` given twice"
            )));
        }
        parsed.push(ParamSpec {
            name: name.to_string(),
            values,
        });
    }
    Ok(parsed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bare_names_and_value_lists_parse() {
        let specs = parse_params(&["batch".to_string()]).unwrap();
        assert_eq!(specs[0].name, "batch");
        assert!(specs[0].values.is_empty());

        let specs = parse_params(&["batch=16,32".to_string(), "arch=pacq".to_string()]).unwrap();
        assert_eq!(specs[0].values, ["16", "32"]);
        assert_eq!(specs[1].name, "arch");
        assert_eq!(specs[1].values, ["pacq"]);
    }

    #[test]
    fn duplicates_and_empty_lists_are_usage_errors() {
        // The --param regression table: every case used to pass
        // silently (duplicate last-wins, empty axes searched nothing).
        let cases = [
            (vec!["batch", "batch"], "twice"),
            (vec!["batch=16", "batch=32"], "twice"),
            (vec!["batch", "batch=32"], "twice"),
            (vec!["batch="], "empty value"),
            (vec!["batch=16,,32"], "empty value"),
            (vec!["batch=16,"], "empty value"),
            (vec!["=16"], "malformed"),
            (vec![""], "malformed"),
            (vec!["bad name=1"], "malformed"),
        ];
        for (specs, want) in cases {
            let specs: Vec<String> = specs.iter().map(|s| s.to_string()).collect();
            let e = parse_params(&specs).unwrap_err();
            assert!(e.is_usage(), "{specs:?}: {e}");
            assert_eq!(e.exit_code(), 2, "{specs:?}");
            assert!(e.to_string().contains(want), "{specs:?}: {e}");
        }
    }
}
