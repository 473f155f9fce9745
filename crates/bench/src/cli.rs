//! Shared command-line parsing for the workspace binaries.
//!
//! Every bench bin used to hand-roll `std::env::args()` scans; this
//! module replaces them with one declarative parser: a bin declares its
//! flags and positional slots, parsing rejects anything undeclared, and
//! errors are typed ([`CliError`]) so `main` can render them once
//! instead of sprinkling `eprintln!` + `exit` at each parse site.
//! Common conveniences (the `--quick` flag, `--threads` defaulting to
//! every core) live here so they behave identically across
//! `campaign`, `replay`, the swarm binaries and `paper`, whose
//! declaration is [`SWEEP_FLAGS`].

use std::collections::HashMap;
use std::fmt;
use std::str::FromStr;

/// One declared flag or positional slot.
#[derive(Clone, Copy, Debug)]
pub struct Flag {
    /// Full spelling including the leading dashes, e.g. `"--smoke"`; a
    /// positional slot (see [`positional`]) has no leading dash.
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

/// Declares a positional slot, filled in declaration order by the
/// arguments that do not start with `-`. `name` is how the usage line
/// spells it: `"[N]"` is optional, `"<file>"` is required, and a slot
/// ending in `...` takes every remaining positional. A bin that
/// declares no slot rejects positionals.
pub const fn positional(name: &'static str, help: &'static str) -> Flag {
    flag(name, help)
}

/// Everything `paper` accepts: the experiments to run and the flag pair
/// `run_all_experiments.sh` forwards.
pub const SWEEP_FLAGS: &[Flag] = &[
    positional(
        "<experiment>...",
        "fig3 fig4 fig5 fig6 imgsize ablation overhead table2_3, or all (in that order)",
    ),
    flag("--quick", "reduced sweep: smaller image, fewer seeds"),
    valued(
        "--threads",
        "Monte-Carlo worker threads (default: all cores)",
    ),
];

/// The usage listing of `bin` declaring `spec`.
pub fn usage(bin: &str, spec: &[Flag]) -> String {
    let mut out = format!("usage: {bin} [flags]");
    for slot in spec.iter().filter(|d| !d.name.starts_with('-')) {
        out.push_str(&format!(" {}", slot.name));
    }
    out.push('\n');
    for decl in spec {
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

/// Reports `err` on stderr, with `bin`'s usage when the error does not
/// already carry it, and exits with failure.
pub fn exit_with_usage(bin: &str, spec: &[Flag], err: &CliError) -> ! {
    eprintln!("{bin}: {err}");
    if !matches!(err, CliError::UnknownArg { .. }) {
        eprintln!("{}", usage(bin, spec));
    }
    std::process::exit(1)
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
    /// A valued flag appeared last, with nothing following it, or a
    /// required positional slot stayed empty.
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
    /// The positional arguments, in order.
    positionals: Vec<String>,
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
            positionals: Vec::new(),
        };
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            let positional = !arg.starts_with('-');
            let decl = if positional {
                // The next empty slot, or the last one again if it repeats.
                let last = cli.slots().last().filter(|d| d.name.ends_with("..."));
                cli.slots().nth(cli.positionals.len()).or(last)
            } else {
                spec.iter().find(|d| d.name == arg)
            };
            let Some(decl) = decl else {
                return Err(CliError::UnknownArg {
                    arg,
                    usage: cli.usage(),
                });
            };
            if positional {
                cli.positionals.push(arg);
                continue;
            }
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
        match cli.slots().nth(cli.positionals.len()) {
            Some(empty) if empty.name.starts_with('<') => {
                Err(CliError::MissingValue { flag: empty.name })
            }
            _ => Ok(cli),
        }
    }

    /// The declared positional slots, in order.
    fn slots(&self) -> impl Iterator<Item = &'static Flag> {
        self.spec.iter().filter(|d| !d.name.starts_with('-'))
    }

    /// The rendered usage listing.
    pub fn usage(&self) -> String {
        usage(self.bin, self.spec)
    }

    /// Whether `name` was given.
    pub fn flag(&self, name: &str) -> bool {
        self.present.contains_key(name)
    }

    /// The raw value of a valued flag or positional slot, if given.
    pub fn value(&self, name: &str) -> Option<&str> {
        match self.slots().position(|d| d.name == name) {
            Some(slot) => self.positionals.get(slot).map(String::as_str),
            None => self.present.get(name)?.as_deref(),
        }
    }

    /// Every positional argument, in order.
    pub fn positionals(&self) -> &[String] {
        &self.positionals
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

    /// The common `--quick` reduced-sweep flag.
    pub fn quick(&self) -> bool {
        self.flag("--quick")
    }

    /// Worker threads: `--threads N` when given (and declared),
    /// otherwise the machine's available parallelism (at least 1).
    pub fn threads(&self) -> Result<usize, CliError> {
        match self.parsed::<usize>("--threads")? {
            Some(0) => Err(CliError::BadValue {
                flag: "--threads".to_string(),
                value: "0".to_string(),
                reason: "need at least one thread".to_string(),
            }),
            Some(n) => Ok(n),
            None => Ok(std::thread::available_parallelism().map_or(1, |n| n.get())),
        }
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
        assert!(cli.flag("--smoke"));
        assert!(!cli.quick());
        assert_eq!(cli.value("--capsule"), Some("results/capsules"));
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
    fn threads_default_to_available_parallelism() {
        let cli = parse(&[]).unwrap();
        assert!(cli.threads().unwrap() >= 1);
        let cli = parse(&["--threads", "3"]).unwrap();
        assert_eq!(cli.threads().unwrap(), 3);
        let cli = parse(&["--threads", "0"]).unwrap();
        assert!(cli.threads().is_err());
    }

    #[test]
    fn sweep_flags_reject_unknown_flags_and_bad_thread_counts() {
        // `paper`'s whole command line: how many experiments, and threads.
        let paper = |args: &[&str]| {
            let cli = Cli::parse_from("paper", SWEEP_FLAGS, args.iter().map(|s| s.to_string()))?;
            Ok((crate::paper::select(&cli)?.len(), cli.threads()?))
        };
        assert_eq!(paper(&["fig5", "--quick", "--threads", "2"]), Ok((1, 2)));
        assert_eq!(paper(&["--threads", "2", "fig3", "table2_3"]), Ok((2, 2)));
        assert_eq!(paper(&["all", "--threads", "2"]), Ok((8, 2)));
        for (args, flagged) in [
            (&["fig5", "--quik"][..], "unknown argument \"--quik\""),
            (&["fig5", "--threads=2"], "unknown argument \"--threads=2\""),
            (&["fig5", "--threads", "abc"], "bad --threads \"abc\""),
            (&["fig5", "--threads", "0"], "bad --threads \"0\""),
            (&["fig5", "--threads"], "--threads requires a value"),
            (&["fig3", "fig7"], "unknown argument \"fig7\""),
            (&["--quick"], "<experiment>... requires a value"),
        ] {
            let err: CliError = paper(args).unwrap_err();
            assert!(err.to_string().starts_with(flagged), "{args:?}: {err}");
        }
        // The usage an unknown name prints lists the names it could be.
        let usage = paper(&["fig7"]).unwrap_err().to_string();
        for (name, _) in crate::paper::EXPERIMENTS {
            assert!(usage.contains(name), "{name}: {usage}");
        }
    }

    const SLOTS: &[Flag] = &[
        positional("[N]", "receivers"),
        positional("<file>...", "inputs"),
        valued("--seed", "base seed"),
    ];

    #[test]
    fn positionals_fill_declared_slots_in_order() {
        let slots =
            |args: &[&str]| Cli::parse_from("test", SLOTS, args.iter().map(|s| s.to_string()));
        let cli = slots(&["7", "--seed", "3", "a", "b"]).unwrap();
        assert_eq!(cli.parsed::<u32>("[N]").unwrap(), Some(7));
        assert_eq!(cli.value("<file>..."), Some("a"));
        assert_eq!(cli.positionals(), ["7", "a", "b"]);
        assert_eq!(cli.parsed::<u64>("--seed").unwrap(), Some(3));
        assert!(cli
            .usage()
            .starts_with("usage: test [flags] [N] <file>...\n"));
        // A required slot left empty, and a slot value that does not parse.
        assert_eq!(
            slots(&["7"]).map(|_| ()),
            Err(CliError::MissingValue { flag: "<file>..." })
        );
        let err = slots(&["x", "a"])
            .unwrap()
            .parsed::<u32>("[N]")
            .unwrap_err();
        assert!(err.to_string().starts_with("bad [N] \"x\""), "{err}");
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
