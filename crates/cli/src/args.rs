//! A small hand-rolled argument parser, so the CLI stays inside the
//! workspace's approved dependency set.
//!
//! Every command declares its options once, as a table of [`Opt`]s (see
//! [`crate::commands::COMMANDS`]). Parsing, validation, defaults and help
//! text are all driven from those tables: an unknown key, a value option
//! without a value, a flag given a value, and a value outside its option's
//! [`Kind`] are each an [`ArgError`] before any command runs.

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};
use std::net::SocketAddr;
use std::str::FromStr;

/// What values an option accepts. Every range check of the CLI lives here.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A bare `--flag`; it takes no value.
    Flag,
    /// An integer in `min..=max`.
    Int(u64, u64),
    /// A probability in `[0, 1]`.
    Probability,
    /// A probability in `(0, 1]`.
    PositiveProbability,
    /// A finite non-negative number.
    NonNegative,
    /// One of a fixed set of words.
    Choice(&'static [&'static str]),
    /// A comma-separated list of integers in `min..=max`.
    Ladder(u64, u64),
    /// A comma-separated list of `ip:port` probe targets.
    Targets,
    /// Free text (a path, an address), checked by the code that uses it;
    /// the payload names the value in help.
    Text(&'static str),
}

impl Kind {
    fn admits(self, raw: &str) -> bool {
        let int_in = |v: &str, min, max| v.parse::<u64>().is_ok_and(|n| (min..=max).contains(&n));
        let num = |pred: fn(f64) -> bool| raw.parse::<f64>().is_ok_and(pred);
        match self {
            Kind::Flag => false,
            Kind::Int(min, max) => int_in(raw, min, max),
            Kind::Probability => num(|x| (0.0..=1.0).contains(&x)),
            Kind::PositiveProbability => num(|x| x > 0.0 && x <= 1.0),
            Kind::NonNegative => num(|x| x.is_finite() && x >= 0.0),
            Kind::Choice(words) => words.contains(&raw),
            Kind::Ladder(min, max) => raw.split(',').all(|v| int_in(v.trim(), min, max)),
            Kind::Targets => raw
                .split(',')
                .all(|v| v.trim().parse::<SocketAddr>().is_ok()),
            Kind::Text(_) => true,
        }
    }

    /// What a rejected value should have been, for [`ArgError::BadValue`].
    fn expected(self) -> String {
        let int = |min, max| match min {
            0 => format!("a non-negative integer up to {max}"),
            1 => format!("a positive integer up to {max}"),
            _ => format!("an integer in {min}..={max}"),
        };
        match self {
            Kind::Flag => "no value".to_string(),
            Kind::Int(min, max) => int(min, max),
            Kind::Probability => "a probability in [0,1]".to_string(),
            Kind::PositiveProbability => "a probability in (0,1]".to_string(),
            Kind::NonNegative => "a finite non-negative number".to_string(),
            Kind::Choice(words) => words.join("|"),
            Kind::Ladder(min, max) => format!("a comma-separated list of {}", int(min, max)),
            Kind::Targets => "comma-separated ip:port probe targets".to_string(),
            Kind::Text(name) => format!("<{name}>"),
        }
    }

    /// The value placeholder shown after `--name` in help.
    fn placeholder(self) -> String {
        match self {
            Kind::Flag => String::new(),
            Kind::Int(0, _) => "<n>".to_string(),
            Kind::Int(min, _) => format!("<n≥{min}>"),
            Kind::Probability => "<p in [0,1]>".to_string(),
            Kind::PositiveProbability => "<p in (0,1]>".to_string(),
            Kind::NonNegative => "<x≥0>".to_string(),
            Kind::Choice(words) => words.join("|"),
            Kind::Ladder(min, _) => format!("<n,n,..≥{min}>"),
            Kind::Targets => "<ip:port,..>".to_string(),
            Kind::Text(name) => format!("<{name}>"),
        }
    }
}

/// One declared option of a command.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Opt {
    /// The key, without the leading `--`.
    pub name: &'static str,
    /// The values it accepts.
    pub kind: Kind,
    /// The value used when the option is not given; `None` when absence
    /// itself means something (faults off, overwrite EIs, ...).
    pub default: Option<&'static str>,
    /// One line of help.
    pub help: &'static str,
}

impl Opt {
    /// An option with a default value.
    pub(crate) const fn new(
        name: &'static str,
        kind: Kind,
        default: &'static str,
        help: &'static str,
    ) -> Opt {
        Opt {
            default: Some(default),
            ..Opt::optional(name, kind, help)
        }
    }

    /// An option without a default.
    pub(crate) const fn optional(name: &'static str, kind: Kind, help: &'static str) -> Opt {
        Opt {
            name,
            kind,
            default: None,
            help,
        }
    }

    /// A bare flag.
    pub(crate) const fn flag(name: &'static str, help: &'static str) -> Opt {
        Opt::optional(name, Kind::Flag, help)
    }
}

/// A command: its name, a one-line summary and its option groups (shared
/// groups are slices reused by several commands).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Command {
    /// The subcommand word.
    pub name: &'static str,
    /// One-line summary.
    pub about: &'static str,
    /// The options, group by group.
    pub groups: &'static [&'static [Opt]],
}

impl Command {
    /// The command named `name`.
    pub fn find(name: &str) -> Option<&'static Command> {
        crate::commands::COMMANDS.iter().find(|c| c.name == name)
    }

    /// Every option of the command, in declaration order.
    pub(crate) fn options(&self) -> impl Iterator<Item = &'static Opt> {
        self.groups.iter().flat_map(|g| g.iter())
    }

    fn option(&self, key: &str) -> Option<&'static Opt> {
        self.options().find(|o| o.name == key)
    }

    /// The command's help: its summary and its option table.
    pub(crate) fn help(&self) -> String {
        let mut out = format!("webmon {} — {}\n", self.name, self.about);
        for group in self.groups {
            out.push('\n');
            for o in group.iter() {
                let left = format!("--{} {}", o.name, o.kind.placeholder());
                let _ = write!(out, "    {:<34} {}", left.trim_end(), o.help);
                if let Some(d) = o.default {
                    let _ = write!(out, " [{d}]");
                }
                out.push('\n');
            }
        }
        out
    }
}

/// The full help: the command list, then every command's option table.
pub(crate) fn usage() -> String {
    let mut out = String::from(
        "webmon — Web Monitoring 2.0 (ICDE 2009) reproduction\n\n\
         USAGE:\n    webmon <COMMAND> [OPTIONS]\n    webmon <COMMAND> --help\n\nCOMMANDS:\n",
    );
    for c in crate::commands::COMMANDS {
        let _ = writeln!(out, "    {:<12} {}", c.name, c.about);
    }
    for c in crate::commands::COMMANDS {
        out.push('\n');
        out.push_str(&c.help());
    }
    out
}

/// Parsed command line: a command plus its `--key value` options and bare
/// `--flag`s, every one declared by the command and checked against its
/// [`Kind`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Args {
    /// The first positional argument (the subcommand).
    pub command: Option<String>,
    spec: &'static Command,
    options: BTreeMap<String, String>,
    flags: Vec<String>,
}

/// A malformed command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgError {
    /// The first word is not a `webmon` command.
    UnknownCommand(String),
    /// `--key` is not an option of the command.
    UnknownOption {
        /// The key as given.
        key: String,
        /// The command.
        command: &'static str,
        /// The command's key nearest to `key` by edit distance.
        nearest: &'static str,
    },
    /// `--key` given twice.
    Duplicate(String),
    /// A positional argument appeared after options began.
    UnexpectedPositional(String),
    /// A value option with no value after it.
    MissingValue(String),
    /// A flag given a value (`--json yes`, `--np=1`).
    FlagWithValue {
        /// The flag.
        key: String,
        /// The value given to it.
        value: String,
    },
    /// An option value outside what the option accepts.
    BadValue {
        /// The option name.
        key: String,
        /// The raw value.
        value: String,
        /// What was expected.
        expected: String,
    },
}

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArgError::UnknownCommand(c) => write!(f, "unknown command '{c}'"),
            ArgError::UnknownOption {
                key,
                command,
                nearest,
            } => write!(
                f,
                "unknown option --{key} for `webmon {command}` (nearest: --{nearest})"
            ),
            ArgError::Duplicate(k) => write!(f, "option --{k} given more than once"),
            ArgError::UnexpectedPositional(p) => {
                write!(f, "unexpected positional argument '{p}'")
            }
            ArgError::MissingValue(k) => write!(f, "--{k} needs a value"),
            ArgError::FlagWithValue { key, value } => {
                write!(f, "--{key} is a flag and takes no value (got '{value}')")
            }
            ArgError::BadValue {
                key,
                value,
                expected,
            } => write!(f, "--{key} {value}: expected {expected}"),
        }
    }
}

impl std::error::Error for ArgError {}

/// Levenshtein distance over chars.
fn edit_distance(a: &str, b: &str) -> usize {
    let b: Vec<char> = b.chars().collect();
    let mut row: Vec<usize> = (0..=b.len()).collect();
    for (i, ca) in a.chars().enumerate() {
        let mut diag = row[0];
        row[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let next = (diag + usize::from(ca != cb))
                .min(row[j] + 1)
                .min(row[j + 1] + 1);
            diag = row[j + 1];
            row[j + 1] = next;
        }
    }
    row[b.len()]
}

impl Args {
    /// Parses an iterator of arguments (excluding the program name).
    ///
    /// The first bare token is the command; without one the line is
    /// `webmon help`'s. Then `--key value` and `--key=value` set a value
    /// option and `--flag` sets a flag, each checked against the command's
    /// table.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Args, ArgError> {
        let mut it = args.into_iter().peekable();
        let command = it.next_if(|tok| !tok.starts_with("--"));
        let spec = match &command {
            Some(name) => {
                Command::find(name).ok_or_else(|| ArgError::UnknownCommand(name.clone()))?
            }
            None => Command::find("help").expect("the help command is declared"),
        };
        let mut options = BTreeMap::new();
        let mut flags: Vec<String> = Vec::new();

        while let Some(tok) = it.next() {
            let Some(body) = tok.strip_prefix("--") else {
                return Err(ArgError::UnexpectedPositional(tok));
            };
            // `--key=value` carries its value inline.
            let (key, inline) = match body.split_once('=') {
                Some((k, v)) => (k, Some(v.to_string())),
                None => (body, None),
            };
            let Some(opt) = spec.option(key) else {
                let nearest = spec
                    .options()
                    .min_by_key(|o| edit_distance(key, o.name))
                    .map_or("help", |o| o.name);
                return Err(ArgError::UnknownOption {
                    key: key.to_string(),
                    command: spec.name,
                    nearest,
                });
            };
            if options.contains_key(key) || flags.iter().any(|f| f == key) {
                return Err(ArgError::Duplicate(key.to_string()));
            }
            // `next_if` both tests and consumes the value token, so there
            // is no peek-then-unwrap window to go wrong.
            let value = inline.or_else(|| it.next_if(|next| !next.starts_with("--")));
            match (opt.kind, value) {
                (Kind::Flag, None) => flags.push(key.to_string()),
                (Kind::Flag, Some(value)) => {
                    return Err(ArgError::FlagWithValue {
                        key: key.to_string(),
                        value,
                    })
                }
                (_, None) => return Err(ArgError::MissingValue(key.to_string())),
                (kind, Some(value)) if !kind.admits(&value) => {
                    return Err(ArgError::BadValue {
                        key: key.to_string(),
                        value,
                        expected: kind.expected(),
                    })
                }
                (_, Some(value)) => {
                    options.insert(key.to_string(), value);
                }
            }
        }
        Ok(Args {
            command,
            spec,
            options,
            flags,
        })
    }

    /// The declaration of the parsed command.
    pub(crate) fn spec(&self) -> &'static Command {
        self.spec
    }

    fn declared(&self, key: &str) -> &'static Opt {
        self.spec.option(key).unwrap_or_else(|| {
            panic!(
                "--{key} is read by `webmon {}` but not declared in its table",
                self.spec.name
            )
        })
    }

    /// The raw string value of `--key`, if given.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.declared(key);
        self.options.get(key).map(String::as_str)
    }

    /// `true` if the flag `--key` was given.
    pub fn flag(&self, key: &str) -> bool {
        self.declared(key);
        self.flags.iter().any(|f| f == key)
    }

    /// `--key` as a `T`, if given.
    pub fn given<T: FromStr>(&self, key: &str) -> Option<T> {
        self.get(key).map(|raw| checked(key, raw))
    }

    /// `--key` as a `T`: the value given, else the declared default.
    ///
    /// # Panics
    /// Panics if the option has no default (a bug in the table, not in the
    /// command line).
    pub fn value<T: FromStr>(&self, key: &str) -> T {
        let raw = self
            .get(key)
            .or(self.declared(key).default)
            .unwrap_or_else(|| panic!("--{key} has no declared default"));
        checked(key, raw)
    }

    /// `--key`'s comma-separated values as `T`s, if given.
    pub fn list<T: FromStr>(&self, key: &str) -> Option<Vec<T>> {
        self.get(key)
            .map(|raw| raw.split(',').map(|v| checked(key, v.trim())).collect())
    }
}

/// Parses a value its option's [`Kind`] already admitted.
fn checked<T: FromStr>(key: &str, raw: &str) -> T {
    raw.parse().unwrap_or_else(|_| {
        panic!("--{key} {raw}: admitted by its kind but not readable as the type the command reads")
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(toks: &[&str]) -> Result<Args, ArgError> {
        Args::parse(toks.iter().map(|s| s.to_string()))
    }

    #[test]
    fn subcommand_options_and_flags() {
        let a = parse(&["run", "--lambda", "20", "--json", "--trace", "news"]).unwrap();
        assert_eq!(a.command.as_deref(), Some("run"));
        assert_eq!(a.get("lambda"), Some("20"));
        assert_eq!(a.get("trace"), Some("news"));
        assert!(a.flag("json"));
        assert!(!a.flag("fixed-rank"));
    }

    #[test]
    fn empty_line_is_ok() {
        let a = parse(&[]).unwrap();
        assert!(a.command.is_none());
        assert_eq!(a.spec().name, "help");
    }

    #[test]
    fn duplicate_option_rejected() {
        assert_eq!(
            parse(&["run", "--seed", "1", "--seed", "2"]),
            Err(ArgError::Duplicate("seed".into()))
        );
    }

    #[test]
    fn late_positional_rejected() {
        assert!(matches!(
            parse(&["run", "--seed", "1", "stray"]),
            Err(ArgError::UnexpectedPositional(_))
        ));
    }

    #[test]
    fn typed_access_with_default() {
        let a = parse(&["run", "--budget", "3"]).unwrap();
        assert_eq!(a.value::<u32>("budget"), 3);
        assert_eq!(a.value::<u32>("resources"), 200);
        assert_eq!(a.given::<u32>("window"), None);
        assert_eq!(
            parse(&["run", "--budget", "x"]),
            Err(ArgError::BadValue {
                key: "budget".into(),
                value: "x".into(),
                expected: "a positive integer up to 4294967295".into(),
            })
        );
    }

    #[test]
    fn equals_form_carries_the_value() {
        // The value is carried, then checked: the exponent is negative.
        assert_eq!(
            parse(&["run", "--churn-alpha=-2"]),
            Err(ArgError::BadValue {
                key: "churn-alpha".into(),
                value: "-2".into(),
                expected: "a finite non-negative number".into(),
            })
        );
        let a = parse(&["run", "--churn-alpha=2", "--lambda=20"]).unwrap();
        assert_eq!(a.get("churn-alpha"), Some("2"));
        assert_eq!(a.get("lambda"), Some("20"));
        assert!(!a.flag("churn-alpha"));
        // An empty value is still a value, not a flag.
        let a = parse(&["run", "--metrics="]).unwrap();
        assert_eq!(a.get("metrics"), Some(""));
        // Duplicates across both forms are rejected.
        assert_eq!(
            parse(&["run", "--seed=1", "--seed", "2"]),
            Err(ArgError::Duplicate("seed".into()))
        );
        assert_eq!(
            parse(&["run", "--json", "--json=2"]),
            Err(ArgError::Duplicate("json".into()))
        );
    }

    #[test]
    fn dangling_key_at_end_of_line_is_an_error() {
        // Regression: a trailing `--key` with no value used to go through a
        // peek-then-`expect` pair, and later parsed as a flag; it must be a
        // structured error, never a panic.
        assert_eq!(
            parse(&["run", "--lambda"]),
            Err(ArgError::MissingValue("lambda".into()))
        );
        assert_eq!(
            parse(&["bench", "--check"]),
            Err(ArgError::MissingValue("check".into()))
        );
    }

    #[test]
    fn flag_then_option_order_is_fine() {
        let a = parse(&["sweep", "--json", "--param", "rank"]).unwrap();
        assert!(a.flag("json"));
        assert_eq!(a.get("param"), Some("rank"));
    }

    #[test]
    fn unknown_keys_name_the_nearest_known_one() {
        let err = parse(&["run", "--fault-rat", "0.3"]).unwrap_err();
        assert_eq!(
            err.to_string(),
            "unknown option --fault-rat for `webmon run` (nearest: --fault-rate)"
        );
        // Keys are per command: `serve` has no `--reps`.
        assert!(matches!(
            parse(&["serve", "--reps", "1"]),
            Err(ArgError::UnknownOption { ref key, .. }) if key == "reps"
        ));
        assert_eq!(edit_distance("snapshot-evry", "snapshot-every"), 1);
        assert_eq!(edit_distance("", "abc"), 3);
    }

    #[test]
    fn every_default_is_admitted_by_its_kind() {
        for c in crate::commands::COMMANDS {
            for o in c.options() {
                match (o.kind, o.default) {
                    (Kind::Flag, d) => assert_eq!(d, None, "{} --{}", c.name, o.name),
                    (kind, Some(d)) => assert!(kind.admits(d), "{} --{} {d}", c.name, o.name),
                    (_, None) => {}
                }
            }
            let names: Vec<_> = c.options().map(|o| o.name).collect();
            let mut unique = names.clone();
            unique.sort_unstable();
            unique.dedup();
            assert_eq!(unique.len(), names.len(), "{} declares a key twice", c.name);
        }
    }
}
