//! Shared command-line parsing for the workspace binaries.
//!
//! Every bench bin used to hand-roll `std::env::args()` scans; this
//! module replaces them with one declarative parser: a bin declares its
//! flag set, parsing rejects anything undeclared, and errors are typed
//! ([`CliError`]) so `main` can render them once instead of sprinkling
//! `eprintln!` + `exit` at each parse site. Common conveniences
//! (`--smoke`/`--quick`/`--json` flags, `--threads` with the
//! `LRS_THREADS` fallback, the `--capsule <dir>` flight-recorder knob)
//! live here so they behave identically across `chaos`, `attack`,
//! `campaign`, `replay`, the swarm binaries, and the figure and table
//! bins, which all share [`SWEEP_FLAGS`].

use crate::harness::configured_threads;
use std::collections::HashMap;
use std::fmt;
use std::path::PathBuf;
use std::str::FromStr;

/// One declared flag.
#[derive(Clone, Copy, Debug)]
pub struct Flag {
    /// Full spelling including the leading dashes, e.g. `"--smoke"`.
    pub name: &'static str,
    /// Whether the flag consumes the following argument as its value.
    pub takes_value: bool,
    /// One-line description for the usage listing.
    pub help: &'static str,
}

/// Declares a boolean flag.
pub const fn flag(name: &'static str, help: &'static str) -> Flag {
    Flag {
        name,
        takes_value: false,
        help,
    }
}

/// Declares a flag that takes a value.
pub const fn valued(name: &'static str, help: &'static str) -> Flag {
    Flag {
        name,
        takes_value: true,
        help,
    }
}

/// The whole flag set of the figure and table bins (`fig3`-`fig6`,
/// `imgsize`, `table2_3`, `ablation`, `overhead`): the pair
/// `run_all_experiments.sh` forwards.
pub const SWEEP_FLAGS: &[Flag] = &[
    flag("--quick", "reduced sweep: smaller image, fewer seeds"),
    valued(
        "--threads",
        "Monte-Carlo worker threads (default: LRS_THREADS, else all cores)",
    ),
];

/// Parses the process arguments of figure/table bin `bin` into
/// `(quick, threads)`; anything but [`SWEEP_FLAGS`] with a positive
/// thread count prints the error and exits with failure.
pub fn sweep_args(bin: &'static str) -> (bool, usize) {
    Cli::parse(bin, SWEEP_FLAGS)
        .and_then(|cli| Ok((cli.quick(), cli.threads()?)))
        .unwrap_or_else(|e| {
            eprintln!("{bin}: {e}");
            std::process::exit(1)
        })
}

/// A parse or validation failure; renders as the message the user sees.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CliError {
    /// An argument that is not a declared flag (or a stray positional).
    UnknownArg {
        /// The offending token.
        arg: String,
        /// The full usage listing for the bin.
        usage: String,
    },
    /// A valued flag appeared last, with nothing following it.
    MissingValue {
        /// The flag missing its value.
        flag: &'static str,
    },
    /// A value failed validation.
    BadValue {
        /// The flag whose value was rejected.
        flag: String,
        /// The rejected value.
        value: String,
        /// Why it was rejected.
        reason: String,
    },
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::UnknownArg { arg, usage } => {
                write!(f, "unknown argument {arg:?}\n{usage}")
            }
            CliError::MissingValue { flag } => {
                write!(f, "{flag} requires a value")
            }
            CliError::BadValue {
                flag,
                value,
                reason,
            } => write!(f, "bad {flag} {value:?}: {reason}"),
        }
    }
}

impl std::error::Error for CliError {}

/// Parsed arguments for one bin.
#[derive(Debug)]
pub struct Cli {
    bin: &'static str,
    spec: &'static [Flag],
    /// Present flags; valued flags map to `Some(value)`.
    present: HashMap<&'static str, Option<String>>,
}

impl Cli {
    /// Parses the process arguments against `spec`.
    pub fn parse(bin: &'static str, spec: &'static [Flag]) -> Result<Cli, CliError> {
        Cli::parse_from(bin, spec, std::env::args().skip(1))
    }

    /// Parses an explicit argument list (tests, nested invocations).
    pub fn parse_from(
        bin: &'static str,
        spec: &'static [Flag],
        args: impl IntoIterator<Item = String>,
    ) -> Result<Cli, CliError> {
        let mut cli = Cli {
            bin,
            spec,
            present: HashMap::new(),
        };
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            let Some(decl) = spec.iter().find(|d| d.name == arg) else {
                return Err(CliError::UnknownArg {
                    arg,
                    usage: cli.usage(),
                });
            };
            let value = if decl.takes_value {
                Some(
                    args.next()
                        .ok_or(CliError::MissingValue { flag: decl.name })?,
                )
            } else {
                None
            };
            // Last occurrence wins, matching the common CLI convention.
            cli.present.insert(decl.name, value);
        }
        Ok(cli)
    }

    /// The rendered usage listing.
    pub fn usage(&self) -> String {
        let mut out = format!("usage: {} [flags]\n", self.bin);
        for decl in self.spec {
            let name = if decl.takes_value {
                format!("{} <value>", decl.name)
            } else {
                decl.name.to_string()
            };
            out.push_str(&format!("  {name:<24} {}\n", decl.help));
        }
        out.pop();
        out
    }

    /// Whether `name` was given.
    pub fn flag(&self, name: &str) -> bool {
        self.present.contains_key(name)
    }

    /// The raw value of a valued flag, if given.
    pub fn value(&self, name: &str) -> Option<&str> {
        self.present.get(name)?.as_deref()
    }

    /// Parses the value of `name`, if given.
    pub fn parsed<T: FromStr>(&self, name: &str) -> Result<Option<T>, CliError>
    where
        T::Err: fmt::Display,
    {
        match self.value(name) {
            None => Ok(None),
            Some(raw) => raw
                .parse()
                .map(Some)
                .map_err(|e: T::Err| CliError::BadValue {
                    flag: name.to_string(),
                    value: raw.to_string(),
                    reason: e.to_string(),
                }),
        }
    }

    /// Parses the value of `name`, falling back to `default`.
    pub fn parsed_or<T: FromStr>(&self, name: &str, default: T) -> Result<T, CliError>
    where
        T::Err: fmt::Display,
    {
        Ok(self.parsed(name)?.unwrap_or(default))
    }

    /// The common `--smoke` CI-gate flag.
    pub fn smoke(&self) -> bool {
        self.flag("--smoke")
    }

    /// The common `--quick` reduced-sweep flag.
    pub fn quick(&self) -> bool {
        self.flag("--quick")
    }

    /// The common `--json` output-format flag.
    pub fn json(&self) -> bool {
        self.flag("--json")
    }

    /// Worker threads: `--threads N` when given (and declared),
    /// otherwise the `LRS_THREADS`/auto-detection fallback every bin
    /// shares.
    pub fn threads(&self) -> Result<usize, CliError> {
        match self.parsed::<usize>("--threads")? {
            Some(0) => Err(CliError::BadValue {
                flag: "--threads".to_string(),
                value: "0".to_string(),
                reason: "need at least one thread".to_string(),
            }),
            Some(n) => Ok(n),
            None => Ok(configured_threads()),
        }
    }

    /// The common `--capsule <dir>` flight-recorder knob.
    pub fn capsule_dir(&self) -> Option<PathBuf> {
        self.value("--capsule").map(PathBuf::from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: &[Flag] = &[
        flag("--smoke", "reduced CI grid"),
        flag("--quick", "reduced sweep"),
        valued("--capsule", "arm the flight recorder"),
        valued("--threads", "worker threads"),
        valued("--seed", "base seed"),
    ];

    fn parse(args: &[&str]) -> Result<Cli, CliError> {
        Cli::parse_from("test", SPEC, args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn flags_and_values_parse() {
        let cli = parse(&["--smoke", "--capsule", "results/capsules", "--seed", "9"]).unwrap();
        assert!(cli.smoke());
        assert!(!cli.quick());
        assert_eq!(cli.capsule_dir(), Some(PathBuf::from("results/capsules")));
        assert_eq!(cli.parsed::<u64>("--seed").unwrap(), Some(9));
        assert_eq!(cli.parsed_or::<u64>("--seed", 7).unwrap(), 9);
    }

    #[test]
    fn unknown_arguments_are_typed_errors() {
        let err = parse(&["--smoek"]).unwrap_err();
        match &err {
            CliError::UnknownArg { arg, usage } => {
                assert_eq!(arg, "--smoek");
                assert!(usage.contains("--smoke"));
            }
            other => panic!("expected UnknownArg, got {other:?}"),
        }
        // Stray positionals are rejected the same way.
        assert!(matches!(
            parse(&["results"]),
            Err(CliError::UnknownArg { .. })
        ));
    }

    #[test]
    fn missing_and_bad_values_are_typed_errors() {
        assert_eq!(
            parse(&["--capsule"]).map(|_| ()),
            Err(CliError::MissingValue { flag: "--capsule" })
        );
        let cli = parse(&["--seed", "many"]).unwrap();
        assert!(matches!(
            cli.parsed::<u64>("--seed"),
            Err(CliError::BadValue { .. })
        ));
    }

    #[test]
    fn threads_fall_back_to_harness_default() {
        let cli = parse(&[]).unwrap();
        assert!(cli.threads().unwrap() >= 1);
        let cli = parse(&["--threads", "3"]).unwrap();
        assert_eq!(cli.threads().unwrap(), 3);
        let cli = parse(&["--threads", "0"]).unwrap();
        assert!(cli.threads().is_err());
    }

    #[test]
    fn sweep_flags_reject_unknown_flags_and_bad_thread_counts() {
        let threads = |args: &[&str]| {
            Cli::parse_from("fig5", SWEEP_FLAGS, args.iter().map(|s| s.to_string()))
                .and_then(|cli| cli.threads())
        };
        assert_eq!(threads(&["--quick", "--threads", "2"]), Ok(2));
        for (args, flagged) in [
            (&["--quik"][..], "unknown argument \"--quik\""),
            (&["--threads=2"], "unknown argument \"--threads=2\""),
            (&["--threads", "abc"], "bad --threads \"abc\""),
            (&["--threads", "0"], "bad --threads \"0\""),
            (&["--threads"], "--threads requires a value"),
        ] {
            let err = threads(args).unwrap_err().to_string();
            assert!(err.starts_with(flagged), "{args:?}: {err}");
        }
    }

    #[test]
    fn last_occurrence_wins() {
        let cli = parse(&["--seed", "1", "--seed", "2"]).unwrap();
        assert_eq!(cli.parsed::<u64>("--seed").unwrap(), Some(2));
    }

    #[test]
    fn errors_render_for_humans() {
        let err = parse(&["--capsule"]).unwrap_err();
        assert_eq!(err.to_string(), "--capsule requires a value");
        let err = parse(&["--nope"]).unwrap_err();
        assert!(err.to_string().contains("unknown argument"));
    }
}
