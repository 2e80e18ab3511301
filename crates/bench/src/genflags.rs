//! Shared `--flag value` parsing for the `lintime` subcommands that take
//! flags (`simulate`, `stream`, `serve`, `trace`, `faults`, `report`).
//!
//! They all take the same flavor of flags — `--ops 50000 --shards 8
//! --rate 1.5`. [`FlagSet`] centralizes the grammar and returns structured
//! [`FlagError`]s that say which flag failed, what value it got, and what
//! was expected; a typo'd flag name is caught by [`FlagSet::finish`]
//! (anything never read by the command is rejected with a list), instead of
//! being silently ignored.

use std::collections::{BTreeSet, HashMap};
use std::fmt;

/// Why flag parsing failed. Every variant names the offending input —
/// commands surface these verbatim, so the message must stand on its own.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FlagError {
    /// A positional argument where only `--flag [value]` is accepted.
    UnexpectedArg(String),
    /// A flag's value failed to parse or validate.
    BadValue {
        /// Flag name, without the leading `--`.
        flag: String,
        /// The raw value supplied.
        value: String,
        /// What the flag expects, e.g. `"an integer"`.
        expected: &'static str,
    },
    /// Flags that no accessor consumed — almost always typos.
    UnknownFlags(Vec<String>),
}

impl fmt::Display for FlagError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlagError::UnexpectedArg(a) => {
                write!(f, "unexpected argument {a:?} (flags are --name [value])")
            }
            FlagError::BadValue { flag, value, expected } => {
                write!(f, "--{flag} expects {expected}, got {value:?}")
            }
            FlagError::UnknownFlags(names) => {
                let list: Vec<String> = names.iter().map(|n| format!("--{n}")).collect();
                write!(f, "unknown flag(s): {}", list.join(", "))
            }
        }
    }
}

impl From<FlagError> for String {
    fn from(e: FlagError) -> String {
        e.to_string()
    }
}

/// Parsed `--flag value` pairs with typed, validated accessors.
///
/// Accessors take `&mut self` so the set can track which flags were
/// consumed; call [`FlagSet::finish`] after the last accessor to reject
/// leftovers. A flag without a following value (or followed by another
/// `--flag`) reads as the boolean `"true"`, except to [`FlagSet::path_flag`].
#[derive(Debug)]
pub struct FlagSet {
    /// Each flag's value; `None` for a bare flag.
    flags: HashMap<String, Option<String>>,
    consumed: BTreeSet<String>,
}

impl FlagSet {
    /// Parse raw arguments (everything after the subcommand name).
    pub fn parse(args: &[String]) -> Result<FlagSet, FlagError> {
        let mut flags = HashMap::new();
        let mut it = args.iter().peekable();
        while let Some(a) = it.next() {
            let Some(key) = a.strip_prefix("--") else {
                return Err(FlagError::UnexpectedArg(a.clone()));
            };
            let value = it.next_if(|v| !v.starts_with("--")).cloned();
            flags.insert(key.to_string(), value);
        }
        Ok(FlagSet { flags, consumed: BTreeSet::new() })
    }

    /// The flag's raw value, or `default` when absent.
    pub fn str_flag(&mut self, key: &str, default: &str) -> String {
        self.raw(key).unwrap_or(default).to_string()
    }

    /// An optional output path: `None` when absent, and an error when given
    /// bare, which would otherwise read as the path `true`.
    pub fn path_flag(&mut self, key: &str) -> Result<Option<String>, FlagError> {
        self.consumed.insert(key.to_string());
        match self.flags.get(key) {
            None => Ok(None),
            Some(Some(path)) => Ok(Some(path.clone())),
            Some(None) => Err(FlagError::BadValue {
                flag: key.to_string(),
                value: String::new(),
                expected: "a path",
            }),
        }
    }

    /// True iff the flag was given (with any value, including bare).
    pub fn bool_flag(&mut self, key: &str) -> bool {
        self.consumed.insert(key.to_string());
        self.flags.contains_key(key)
    }

    /// A signed integer flag.
    pub fn i64_flag(&mut self, key: &str, default: i64) -> Result<i64, FlagError> {
        self.typed(key, default, "an integer", |s| s.parse().ok())
    }

    /// A non-negative integer flag, e.g. a seed. A negative value is a
    /// [`FlagError::BadValue`], never a wrapped-around `u64`.
    pub fn u64_flag(&mut self, key: &str, default: u64) -> Result<u64, FlagError> {
        self.typed(key, default, "a non-negative integer", |s| s.parse().ok())
    }

    /// A non-negative size flag.
    pub fn usize_flag(&mut self, key: &str, default: usize) -> Result<usize, FlagError> {
        self.typed(key, default, "a non-negative integer", |s| s.parse().ok())
    }

    /// A finite floating-point flag.
    pub fn f64_flag(&mut self, key: &str, default: f64) -> Result<f64, FlagError> {
        self.typed(key, default, "a number", |s| s.parse().ok().filter(|x: &f64| x.is_finite()))
    }

    /// Reject every flag no accessor consumed. Call this last.
    pub fn finish(self) -> Result<(), FlagError> {
        let unknown: Vec<String> =
            self.flags.keys().filter(|k| !self.consumed.contains(*k)).cloned().collect();
        if unknown.is_empty() {
            Ok(())
        } else {
            let mut sorted = unknown;
            sorted.sort();
            Err(FlagError::UnknownFlags(sorted))
        }
    }

    fn typed<T>(
        &mut self,
        key: &str,
        default: T,
        expected: &'static str,
        parse: impl Fn(&str) -> Option<T>,
    ) -> Result<T, FlagError> {
        match self.raw(key) {
            None => Ok(default),
            Some(raw) => parse(raw).ok_or_else(|| FlagError::BadValue {
                flag: key.to_string(),
                value: raw.to_string(),
                expected,
            }),
        }
    }

    /// Mark `key` consumed and return its value; a bare flag reads `"true"`.
    fn raw(&mut self, key: &str) -> Option<&str> {
        self.consumed.insert(key.to_string());
        self.flags.get(key).map(|v| v.as_deref().unwrap_or("true"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn typed_accessors_parse_and_default() {
        let mut f = FlagSet::parse(&args(&["--ops", "500", "--rate", "1.5", "--adt", "queue"]))
            .expect("parse");
        assert_eq!(f.usize_flag("ops", 10).unwrap(), 500);
        assert_eq!(f.usize_flag("shards", 8).unwrap(), 8, "absent flag takes the default");
        assert_eq!(f.f64_flag("rate", 1.0).unwrap(), 1.5);
        assert_eq!(f.str_flag("adt", "register"), "queue");
        assert!(f.finish().is_ok());
    }

    #[test]
    fn boolean_flags_read_bare_or_before_another_flag() {
        let mut f = FlagSet::parse(&args(&["--timeline", "--ops", "3"])).expect("parse");
        assert!(f.bool_flag("timeline"));
        assert!(!f.bool_flag("stream-check"));
        assert_eq!(f.usize_flag("ops", 0).unwrap(), 3);
        assert!(f.finish().is_ok());
    }

    #[test]
    fn bad_values_are_structured_not_panics() {
        let mut f = FlagSet::parse(&args(&["--ops", "many"])).expect("parse");
        let err = f.usize_flag("ops", 10).unwrap_err();
        assert_eq!(
            err,
            FlagError::BadValue {
                flag: "ops".into(),
                value: "many".into(),
                expected: "a non-negative integer"
            }
        );
        assert!(err.to_string().contains("--ops"), "{err}");

        let mut f = FlagSet::parse(&args(&["--rate", "NaN"])).expect("parse");
        assert!(f.f64_flag("rate", 1.0).is_err(), "NaN must not count as a number");
    }

    #[test]
    fn u64_flags_reject_negative_values() {
        let mut f = FlagSet::parse(&args(&["--seed", "-1", "--seeds", "5"])).expect("parse");
        assert_eq!(
            f.u64_flag("seed", 42).unwrap_err(),
            FlagError::BadValue {
                flag: "seed".into(),
                value: "-1".into(),
                expected: "a non-negative integer"
            }
        );
        assert_eq!(f.u64_flag("seeds", 8).unwrap(), 5);
        assert_eq!(f.u64_flag("absent", 7).unwrap(), 7, "absent flag takes the default");
        assert!(f.finish().is_ok());

        let mut f = FlagSet::parse(&args(&["--seed", "18446744073709551615"])).expect("parse");
        assert_eq!(f.u64_flag("seed", 0).unwrap(), u64::MAX, "the full u64 range parses");
    }

    #[test]
    fn path_flags_need_a_value() {
        let mut f =
            FlagSet::parse(&args(&["--json-out", "r.json", "--metrics-out"])).expect("parse");
        assert_eq!(f.path_flag("json-out").unwrap().as_deref(), Some("r.json"));
        assert_eq!(f.path_flag("matrix-out").unwrap(), None, "absent");
        let err = f.path_flag("metrics-out").unwrap_err();
        assert!(err.to_string().contains("--metrics-out expects a path"), "{err}");
    }

    #[test]
    fn positional_arguments_are_rejected() {
        let err = FlagSet::parse(&args(&["oops"])).unwrap_err();
        assert!(matches!(err, FlagError::UnexpectedArg(a) if a == "oops"));
    }

    #[test]
    fn unconsumed_flags_fail_finish() {
        let mut f = FlagSet::parse(&args(&["--ops", "5", "--opps", "6"])).expect("parse");
        let _ = f.usize_flag("ops", 0);
        let err = f.finish().unwrap_err();
        assert_eq!(err, FlagError::UnknownFlags(vec!["opps".into()]));
        assert!(err.to_string().contains("--opps"), "{err}");
    }
}
