//! Validation for the repeatable `--param name=v1,v2,...` flag of
//! `pacq dse`.
//!
//! Every `--param` names one search axis and its value list. A
//! duplicated name would silently last-win, and an empty value list
//! would produce an empty (vacuously "successful") search, so this
//! validator turns every malformed spec into a typed usage error (exit
//! code 2) naming the offending flag.

use pacq_error::{PacqError, PacqResult};

/// One validated `--param` occurrence: a parameter name plus its
/// non-empty value list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParamSpec {
    /// The parameter name (left of `=`).
    pub name: String,
    /// The comma-separated values (right of `=`).
    pub values: Vec<String>,
}

fn err(msg: impl Into<String>) -> PacqError {
    PacqError::usage(msg)
}

/// Parses and validates every `--param` occurrence of one invocation.
///
/// Rejected with a usage error (exit code 2):
/// - a spec with no `=` (`--param batch`): every axis needs values;
/// - an empty or non-`[A-Za-z0-9_-]` parameter name;
/// - the same parameter named twice (`--param batch=16 --param
///   batch=32` would otherwise silently last-win);
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
        let (name, list) = spec
            .split_once('=')
            .ok_or_else(|| err(format!("--param {spec}: expected name=v1,v2,...")))?;
        let values: Vec<String> = list.split(',').map(str::to_string).collect();
        if values.iter().any(String::is_empty) {
            return Err(err(format!(
                "--param {spec}: empty value list (an empty axis would search nothing)"
            )));
        }
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
    fn value_lists_parse() {
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
            (vec!["batch"], "expected name=v1"),
            (vec!["grid"], "expected name=v1"),
            (vec!["batch=16", "batch=32"], "twice"),
            (vec!["batch=16", "arch=pacq", "batch=32"], "twice"),
            (vec!["batch="], "empty value"),
            (vec!["batch=16,,32"], "empty value"),
            (vec!["batch=16,"], "empty value"),
            (vec!["=16"], "malformed"),
            (vec!["="], "empty value"),
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
