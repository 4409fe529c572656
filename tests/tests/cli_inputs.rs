//! Deterministic sampling harness for `webmon` command lines: whatever is
//! typed after `run`, `sweep` or `trace`, `Args::parse` followed by
//! `dispatch` exits 0 or returns a structured `ArgError` — it never panics.
//!
//! Keys are each command's options plus misspellings of them; values mix
//! valid, boundary and hostile strings. Options that size the instance draw
//! only small values or invalid ones, so every case runs in milliseconds.
//! Path-valued options and `--jobs` are left out.

use proptest::prelude::*;
use webmon_cli::args::Args;
use webmon_cli::commands::dispatch;

/// Values any option may draw: boundaries and garbage.
const HOSTILE: &[&str] = &["0", "-1", "NaN", "inf", "1e309", "", "x", "4294967296"];

/// Sizes: small valid values only (hostile ones that are valid for the key
/// would be large, so sizes draw their own invalid set).
const SMALL: &[&str] = &[
    "1", "2", "3", "5", "0", "-1", "NaN", "inf", "1e309", "", "x",
];

/// Each option with the values it draws besides [`HOSTILE`]; `None` marks a
/// flag.
type Key = (&'static str, Option<&'static [&'static str]>);

const WORKLOAD: &[Key] = &[
    ("trace", Some(&["poisson", "auction", "news", "auctoin"])),
    ("lambda", Some(&["0", "0.5", "3", "-5", "NaN"])),
    ("resources", Some(&["1", "4", "8", "20"])),
    ("horizon", Some(&["1", "9", "10", "40"])),
    ("budget", Some(&["1", "2", "3"])),
    ("profiles", Some(&["1", "2", "4"])),
    ("rank", Some(&["1", "2", "5", "70000"])),
    ("fixed-rank", None),
    ("alpha", Some(&["0", "0.3", "1.37", "-2"])),
    ("beta", Some(&["0", "0.5", "-0.5"])),
    ("window", Some(&["0", "1", "3"])),
    ("noise-z", Some(&["0", "0.4", "1", "5"])),
    (
        "seed",
        Some(&["7", "18446744073709551615", "18446744073709551616"]),
    ),
    ("reps", Some(&["1", "2"])),
    ("json", None),
    ("help", None),
];

const RETRY: &[Key] = &[
    ("fault-seed", Some(&["9", "18446744073709551615"])),
    ("fault-free", None),
    ("retry", Some(&["immediate", "backoff", "never"])),
    ("retry-quota", Some(&["0", "1", "2"])),
];

const RUN: &[Key] = &[
    ("fault-rate", Some(&["0", "0.3", "1", "1.5"])),
    ("fault-model", Some(&["iid", "burst", "chaos"])),
    ("fault-recover", Some(&["0.5", "1", "7"])),
    ("churn-arrivals", Some(&["0", "0.3", "1", "1.5"])),
    ("churn-cancels", Some(&["0", "0.2", "1"])),
    ("churn-alpha", Some(&["0", "1.37", "-2"])),
    ("churn-delay", Some(&["0", "1", "4"])),
    ("churn-budget-changes", Some(&["0", "1", "3"])),
    ("churn-seed", Some(&["17"])),
    ("offline-lr", None),
];

const SWEEP: &[Key] = &[(
    "param",
    Some(&[
        "budget",
        "lambda",
        "alpha",
        "skew-alpha",
        "rank",
        "fault-rate",
        "lamda",
    ]),
)];

const TRACE: &[Key] = &[
    ("trace", Some(&["poisson", "auction", "news"])),
    ("resources", Some(&["1", "3", "20"])),
    ("horizon", Some(&["1", "9", "10", "40"])),
    ("lambda", Some(&["0", "0.5", "3", "-5"])),
    ("seed", Some(&["7"])),
    ("help", None),
];

/// Keys whose hostile draws are limited to [`SMALL`].
const SIZES: &[&str] = &[
    "lambda",
    "resources",
    "horizon",
    "budget",
    "profiles",
    "rank",
    "window",
    "reps",
    "retry-quota",
    "churn-delay",
    "churn-budget-changes",
];

fn keys(command: &str) -> Vec<Key> {
    match command {
        "run" => [WORKLOAD, RETRY, RUN].concat(),
        "sweep" => [WORKLOAD, RETRY, SWEEP].concat(),
        _ => TRACE.to_vec(),
    }
}

/// A misspelling of `key`: a dropped, doubled or replaced character, or two
/// neighbours swapped.
fn misspell(key: &str, how: usize) -> String {
    let mut chars: Vec<char> = key.chars().collect();
    let n = chars.len();
    let at = how / 4 % n;
    match how % 4 {
        0 => {
            chars.remove(at);
        }
        1 => chars.insert(at, chars[at]),
        2 => chars[at] = 'x',
        _ => chars.swap(at, (at + 1) % n),
    }
    chars.into_iter().collect()
}

/// Builds one command line from sampled indices: a command, then up to six
/// options. Each option draws a key (one in eight misspelled), a value from
/// its own list or the hostile set, and a spelling: `--key value`,
/// `--key=value`, or the bare key. Sizes left undrawn are set small.
fn argv((command, picks): (usize, Vec<(usize, usize, usize)>)) -> Vec<String> {
    let command = ["run", "sweep", "trace"][command];
    let keys = keys(command);
    let mut argv = vec![command.to_string()];
    for (k, v, form) in picks {
        let (key, values) = keys[k % keys.len()];
        let name = if form % 8 == 7 {
            misspell(key, form / 8)
        } else {
            key.to_string()
        };
        let hostile = if SIZES.contains(&key) { SMALL } else { HOSTILE };
        let value = match values {
            Some(own) if v % 3 != 0 => own[v / 3 % own.len()],
            _ => hostile[v / 3 % hostile.len()],
        };
        // Flags are mostly bare, value options mostly given a value.
        match (values.is_some(), form % 5) {
            (true, 0) | (false, 1..) => argv.push(format!("--{name}")),
            (_, 1) => argv.push(format!("--{name}={value}")),
            _ => argv.extend([format!("--{name}"), value.to_string()]),
        }
    }
    for (key, value) in [
        ("resources", "20"),
        ("horizon", "40"),
        ("profiles", "3"),
        ("reps", "1"),
    ] {
        let given = |a: &String| a == &format!("--{key}") || a.starts_with(&format!("--{key}="));
        if keys.iter().any(|&(k, _)| k == key) && !argv.iter().any(given) {
            argv.extend([format!("--{key}"), value.to_string()]);
        }
    }
    argv
}

fn command_line() -> impl Strategy<Value = Vec<String>> {
    (
        0..3usize,
        proptest::collection::vec((0..10_000usize, 0..10_000usize, 0..10_000usize), 0..7),
    )
        .prop_map(argv)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// No sampled command line panics: it runs to exit 0 or is refused
    /// with an `ArgError` (which `main` turns into exit 2). The one other
    /// exit is the offline baseline's own diagnostic for an instance it
    /// cannot expand.
    #[test]
    fn sampled_command_lines_never_panic(argv in command_line()) {
        if let Ok(code) = Args::parse(argv.clone()).and_then(|args| dispatch(&args)) {
            let offline = argv.iter().any(|a| a == "--offline-lr");
            prop_assert!(code == 0 || (offline && code == 2), "{:?} exited {}", argv, code);
        }
    }
}
