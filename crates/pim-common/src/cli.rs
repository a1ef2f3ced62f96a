//! The shared command-line front end of the workspace binaries.
//!
//! `repro` and `pim-verify` walk their flags with one [`ArgCursor`],
//! return a [`CliResult`], and turn it into an exit code in one place,
//! [`exit_code`]: a malformed command line prints `bin: msg` plus the
//! usage block to stderr and exits [`USAGE_EXIT`] (2); a failed run
//! prints its message, if it has one, and exits 1. The error wording
//! lives here too, so both binaries word a bad flag the same way.

use std::fmt::Display;
use std::process::ExitCode;
use std::str::FromStr;

/// Exit code for malformed command lines (exit 1 stays reserved for
/// runtime failures and error-severity findings).
pub const USAGE_EXIT: u8 = 2;

/// Why a command could not finish.
#[derive(Debug, PartialEq, Eq)]
pub enum CliError {
    /// A malformed command line: exits [`USAGE_EXIT`] after the message
    /// and the usage block.
    Usage(String),
    /// A run that failed: exits 1 after the message, if any (a run that
    /// already printed its verdict, such as a table containing `FAIL`,
    /// has nothing to add).
    Failed(Option<String>),
}

/// What every subcommand returns.
pub type CliResult<T = ()> = Result<T, CliError>;

/// Prints what `result` has to say to stderr and maps it to the
/// process's exit code: 0, [`USAGE_EXIT`] or 1.
pub fn exit_code(bin: &str, usage: &str, result: CliResult) -> ExitCode {
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(CliError::Usage(msg)) => {
            eprintln!("{bin}: {msg}\n{usage}");
            ExitCode::from(USAGE_EXIT)
        }
        Err(CliError::Failed(msg)) => {
            if let Some(msg) = msg {
                eprintln!("{msg}");
            }
            ExitCode::FAILURE
        }
    }
}

/// The end of a run whose output carries its own verdict, such as a
/// table containing `FAIL`: a failed run with nothing more to say unless
/// `passed`.
pub fn verdict(passed: bool) -> CliResult {
    if passed {
        Ok(())
    } else {
        Err(CliError::Failed(None))
    }
}

/// Turns any displayable error into a failed run.
pub trait OrFail<T> {
    /// Maps an error `e` to [`CliError::Failed`] saying `{what}: {e}`.
    fn or_fail(self, what: impl Display) -> CliResult<T>;
}

impl<T, E: Display> OrFail<T> for Result<T, E> {
    fn or_fail(self, what: impl Display) -> CliResult<T> {
        self.map_err(|e| CliError::Failed(Some(format!("{what}: {e}"))))
    }
}

/// Walks a command line flag by flag. Each subcommand loops over
/// [`next_flag`](Self::next_flag), matches the flag, and reads its value
/// through one of the value methods, each of which names the flag in its
/// usage error. A flag that takes no value reads nothing.
///
/// # Examples
///
/// ```
/// use pim_common::cli::{ArgCursor, CliError};
///
/// let argv: Vec<String> = ["--steps", "3", "--seed", "x"].map(String::from).into();
/// let mut args = ArgCursor::new(&argv);
/// assert_eq!(args.next_flag(), Some("--steps"));
/// assert_eq!(args.count(), Ok(3));
/// assert_eq!(args.next_flag(), Some("--seed"));
/// assert_eq!(
///     args.parse::<u64>(),
///     Err(CliError::Usage("invalid --seed value `x`".into()))
/// );
/// assert_eq!(args.next_flag(), None);
/// ```
#[derive(Debug)]
pub struct ArgCursor<'a> {
    args: std::slice::Iter<'a, String>,
    flag: &'a str,
}

impl<'a> ArgCursor<'a> {
    /// A cursor before the first of `args`.
    pub fn new(args: &'a [String]) -> Self {
        ArgCursor {
            args: args.iter(),
            flag: "",
        }
    }

    /// The next flag, or `None` at the end of the line.
    pub fn next_flag(&mut self) -> Option<&'a str> {
        self.flag = self.args.next()?;
        Some(self.flag)
    }

    /// The usage error for a flag no arm matched.
    pub fn unknown(&self) -> CliError {
        CliError::Usage(format!("unknown argument `{}`", self.flag))
    }

    /// The current flag's value; a usage error when the line ends first.
    pub fn value(&mut self) -> CliResult<&'a str> {
        let flag = self.flag;
        self.args
            .next()
            .map(String::as_str)
            .ok_or_else(|| CliError::Usage(format!("{flag} requires a value")))
    }

    /// The current flag's value read by `read`, whose error is a usage
    /// error.
    pub fn parse_with<T>(&mut self, read: impl FnOnce(&str) -> Result<T, String>) -> CliResult<T> {
        read(self.value()?).map_err(CliError::Usage)
    }

    /// The current flag's value, parsed through [`parse_value`].
    pub fn parse<T: FromStr>(&mut self) -> CliResult<T> {
        let flag = self.flag;
        self.parse_with(|v| parse_value(flag, v))
    }

    /// The current flag's value as a count, which must be at least 1.
    pub fn count(&mut self) -> CliResult<usize> {
        match self.parse()? {
            0 => Err(CliError::Usage(format!("{} must be at least 1", self.flag))),
            n => Ok(n),
        }
    }

    /// The current flag's comma-separated value, each trimmed item read
    /// by `item`.
    pub fn list<T>(&mut self, item: impl Fn(&str) -> Result<T, String>) -> CliResult<Vec<T>> {
        self.parse_with(|v| v.split(',').map(|s| item(s.trim())).collect())
    }
}

/// Parses one flag value, naming the flag and offending text on failure.
///
/// # Errors
///
/// Returns the structured message when `v` does not parse as `T`.
///
/// # Examples
///
/// ```
/// use pim_common::cli::parse_value;
///
/// assert_eq!(parse_value::<u64>("--seed", "7"), Ok(7));
/// assert_eq!(
///     parse_value::<u64>("--seed", "x").unwrap_err(),
///     "invalid --seed value `x`"
/// );
/// ```
pub fn parse_value<T: FromStr>(flag: &str, v: &str) -> Result<T, String> {
    v.parse().map_err(|_| format!("invalid {flag} value `{v}`"))
}

/// Parses a comma-separated pair like `--faults SEED,RATE` or
/// `--orders N,SEED`, with one structured message for every malformed
/// shape (missing comma, unparsable halves).
///
/// # Errors
///
/// Returns the structured message when `v` is not `A,B` with both
/// halves parsing.
///
/// # Examples
///
/// ```
/// use pim_common::cli::parse_pair;
///
/// assert_eq!(parse_pair::<u64, f64>("--faults", "A,B", "3,0.5"), Ok((3, 0.5)));
/// assert!(parse_pair::<u64, f64>("--faults", "A,B", "3").is_err());
/// assert!(parse_pair::<u64, f64>("--faults", "A,B", "x,0.5").is_err());
/// ```
pub fn parse_pair<A: FromStr, B: FromStr>(
    flag: &str,
    shape: &str,
    v: &str,
) -> Result<(A, B), String> {
    let err = || format!("{flag} expects {shape}, got `{v}`");
    let (a, b) = v.split_once(',').ok_or_else(err)?;
    Ok((a.parse().map_err(|_| err())?, b.parse().map_err(|_| err())?))
}

/// Validates a parsed value against an inclusive range, with the same
/// structured wording as the parse helpers. A value that compares with
/// nothing, such as a NaN rate, is outside every range.
///
/// # Errors
///
/// Returns the structured message when `v` falls outside
/// `[lo, hi]`.
pub fn require_in_range<T: PartialOrd + Display + Copy>(
    flag: &str,
    v: T,
    lo: T,
    hi: T,
) -> Result<T, String> {
    if !(lo..=hi).contains(&v) {
        return Err(format!("{flag} must be in [{lo}, {hi}], got {v}"));
    }
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|&a| a.to_owned()).collect()
    }

    fn usage(msg: &str) -> CliError {
        CliError::Usage(msg.into())
    }

    #[test]
    fn pair_rejects_every_malformed_shape() {
        for bad in ["", "7", ",", "7,", ",0.5", "x,0.5", "7,y", "7,0.5,9"] {
            assert!(
                parse_pair::<u64, f64>("--faults", "SEED,RATE", bad).is_err(),
                "`{bad}` must be rejected"
            );
        }
        assert_eq!(
            parse_pair::<u64, f64>("--faults", "SEED,RATE", "7,0.25"),
            Ok((7, 0.25))
        );
    }

    #[test]
    fn range_check_uses_structured_wording() {
        assert_eq!(require_in_range("--rate", 0.5, 0.0, 1.0), Ok(0.5));
        assert_eq!(require_in_range("--rate", 1.0, 0.0, 1.0), Ok(1.0));
        assert_eq!(
            require_in_range("--rate", 1.5, 0.0, 1.0).unwrap_err(),
            "--rate must be in [0, 1], got 1.5"
        );
        assert_eq!(
            require_in_range("--rate", f64::NAN, 0.0, 1.0).unwrap_err(),
            "--rate must be in [0, 1], got NaN"
        );
    }

    #[test]
    fn cursor_walks_flags_and_their_values() {
        let line = argv(&["--isa", "--models", "a, b", "--steps", "2", "--out", "p"]);
        let mut args = ArgCursor::new(&line);
        assert_eq!(args.next_flag(), Some("--isa"));
        assert_eq!(args.next_flag(), Some("--models"));
        assert_eq!(
            args.list(|s| Ok::<_, String>(s.to_uppercase())),
            Ok(vec!["A".to_string(), "B".to_string()])
        );
        assert_eq!(args.next_flag(), Some("--steps"));
        assert_eq!(args.parse::<u8>(), Ok(2));
        assert_eq!(args.next_flag(), Some("--out"));
        assert_eq!(args.value(), Ok("p"));
        assert_eq!(args.next_flag(), None);
        assert_eq!(args.next_flag(), None);
    }

    #[test]
    fn cursor_names_the_flag_in_every_usage_error() {
        let cases: [(&[&str], CliError); 6] = [
            (&["--seed"], usage("--seed requires a value")),
            (&["--seed", "x"], usage("invalid --seed value `x`")),
            (&["--steps", "0"], usage("--steps must be at least 1")),
            (&["--steps", "-1"], usage("invalid --steps value `-1`")),
            (&["--steps"], usage("--steps requires a value")),
            (&["--models", "1, x"], usage("bad item `x`")),
        ];
        for (line, want) in cases {
            let line = argv(line);
            let mut args = ArgCursor::new(&line);
            let got = match args.next_flag() {
                Some("--seed") => args.parse::<u64>().map(drop),
                Some("--steps") => args.count().map(drop),
                Some("--models") => args
                    .list(|s| s.parse::<u8>().map_err(|_| format!("bad item `{s}`")))
                    .map(drop),
                _ => Err(args.unknown()),
            };
            assert_eq!(got, Err(want), "{line:?}");
        }
        let line = argv(&["--frobnicate", "1"]);
        let mut args = ArgCursor::new(&line);
        args.next_flag();
        assert_eq!(args.unknown(), usage("unknown argument `--frobnicate`"));
    }

    #[test]
    fn failures_carry_their_message_or_none() {
        let err: Result<(), &str> = Err("no such file");
        assert_eq!(
            err.or_fail(format_args!("reading {}", "x.json")),
            Err(CliError::Failed(Some(
                "reading x.json: no such file".into()
            )))
        );
        assert_eq!(Ok::<u8, &str>(4).or_fail("unused"), Ok(4));
        assert_eq!(verdict(true), Ok(()));
        assert_eq!(verdict(false), Err(CliError::Failed(None)));
    }
}
