//! The one flag helper. A subcommand declares its options once, as the
//! usage line `--help` prints for it ([`Spec`]); [`parse`] derives the flag
//! table from that line and holds the command line to it, and the typed
//! getters read the result — so help, parser and readers cannot drift.
//!
//! Strictness is the contract (README, exit code 2): an unknown flag, a
//! flag of another subcommand, a repeated flag, or a valued flag with no
//! value is a usage error naming the flag and the subcommand. A valued flag
//! takes the next token whatever it looks like (`--start-hour -2`); a
//! switch never takes one.

use crate::CliError;
use std::collections::HashMap;
use std::str::FromStr;

/// A subcommand's options, written as usage text: `--name HINT` declares a
/// flag that takes a value, `--name` followed by another flag (or nothing)
/// declares a switch, and `-o OUT` is spelled as typed. `[`, `]` and `|`
/// are decoration for the reader.
pub type Spec = &'static str;

/// The declared flags of `spec`: name without dashes, and whether it takes
/// a value.
fn table(spec: Spec) -> Vec<(&'static str, bool)> {
    let words: Vec<&str> = spec
        .split_whitespace()
        .map(|w| w.trim_matches(['[', ']', '|']))
        .filter(|w| !w.is_empty())
        .collect();
    let is_flag = |w: &str| w.starts_with('-');
    words
        .iter()
        .enumerate()
        .filter(|(_, w)| is_flag(w))
        .map(|(i, w)| {
            let valued = words.get(i + 1).is_some_and(|next| !is_flag(next));
            (w.trim_start_matches('-'), valued)
        })
        .collect()
}

/// The flags given on one command line, checked against the table.
pub struct Args {
    table: Vec<(&'static str, bool)>,
    given: HashMap<&'static str, String>,
}

/// Checks `argv` (the tokens after the subcommand) against `spec`.
pub fn parse(command: &str, spec: Spec, argv: &[String]) -> Result<Args, CliError> {
    let table = table(spec);
    let mut given = HashMap::new();
    let mut tokens = argv.iter();
    while let Some(token) = tokens.next() {
        let typed = token
            .strip_prefix("--")
            .or_else(|| token.strip_prefix('-'))
            .ok_or_else(|| {
                CliError::usage(format!(
                    "expected an option of `{command}`, found {token:?}"
                ))
            })?;
        let &(name, valued) = table
            .iter()
            .find(|(name, _)| *name == typed)
            .ok_or_else(|| CliError::usage(format!("unknown option {token} for `{command}`")))?;
        let value = if valued {
            tokens.next().cloned().ok_or_else(|| {
                CliError::usage(format!("option {token} of `{command}` needs a value"))
            })?
        } else {
            String::new()
        };
        if given.insert(name, value).is_some() {
            return Err(CliError::usage(format!(
                "option {token} given more than once for `{command}`"
            )));
        }
    }
    Ok(Args { table, given })
}

impl Args {
    /// The raw value of a valued flag, if given. Asking for a flag the
    /// subcommand never declared is a bug in that subcommand.
    pub fn get(&self, name: &str) -> Option<&str> {
        assert!(
            self.table.iter().any(|(declared, _)| *declared == name),
            "flag --{name} read but not declared"
        );
        self.given.get(name).map(String::as_str)
    }

    /// Whether a switch was given.
    pub fn has(&self, name: &str) -> bool {
        self.get(name).is_some()
    }

    /// The value of a flag the subcommand cannot run without.
    pub fn require(&self, name: &str) -> Result<&str, CliError> {
        self.get(name)
            .ok_or_else(|| CliError::usage(format!("missing --{name}")))
    }

    /// The parsed value of a flag, `None` when it was not given.
    pub fn opt<T: FromStr>(&self, name: &str) -> Result<Option<T>, CliError> {
        self.get(name)
            .map(|v| {
                v.parse()
                    .map_err(|_| CliError::usage(format!("invalid value {v:?} for --{name}")))
            })
            .transpose()
    }

    /// The parsed value of a flag, `default` when it was not given.
    pub fn or<T: FromStr>(&self, name: &str, default: T) -> Result<T, CliError> {
        Ok(self.opt(name)?.unwrap_or(default))
    }
}
