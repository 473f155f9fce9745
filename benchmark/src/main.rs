//! `lrs-ledger`: the repo's end-to-end + per-layer performance ledger.
//!
//! ```text
//! benchmark/run.sh                         # every workload, both passes, result.json
//! benchmark/run.sh --workload node_flood   # one workload, both passes
//! benchmark/run.sh --seed 7 --quick        # R = 1, development only
//! benchmark/run.sh --check-repeat          # the full benchmark twice, compared
//! benchmark/run.sh --workload W --seed N --seconds S --trace 0|1   # the driver's form
//! ```
//!
//! With both `--workload` and `--trace` the process measures: `--trace
//! 0` is the end-to-end pass, `--trace 1` the per-layer pass, and the
//! last line of standard output is the driver's result object. In every
//! other form the process only orchestrates: it re-executes itself once
//! per workload and pass (one process each, so `peak_rss_mib` belongs
//! to one workload) and assembles `benchmark/out/result.json`.

mod measure;
mod names;
mod probes;
mod proc;
mod report;
mod span;
mod stats;
mod workloads;
mod wrap;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use workloads::Workload;

/// Seconds one end-to-end pass measures when `--seconds` is not given;
/// `BENCHMARK.json`'s `run_seconds`.
const DEFAULT_SECONDS: f64 = 18.0;

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    quick: bool,
    check_repeat: bool,
    out: PathBuf,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: None,
        quick: false,
        check_repeat: false,
        out: PathBuf::from("benchmark/out"),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                args.workload = Some(Workload::from_name(&name).ok_or_else(|| {
                    let known: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {name:?}; known: {}", known.join(", "))
                })?);
            }
            "--seed" => {
                let v = value("--seed")?;
                args.seed = v.parse().map_err(|_| format!("bad --seed {v:?}"))?;
            }
            "--seconds" => {
                let v = value("--seconds")?;
                args.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("bad --seconds {v:?}"))?;
            }
            "--trace" => {
                args.trace = Some(match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                });
            }
            "--out" => args.out = PathBuf::from(value("--out")?),
            "--quick" => args.quick = true,
            "--check-repeat" => args.check_repeat = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

/// One measuring process: one workload, one pass.
fn measure_one(workload: Workload, traced: bool, args: &Args) -> bool {
    let comparable = !args.quick;
    if traced {
        let run = measure::per_layer(workload, args.seed, args.seconds);
        report::print_per_layer(workload, args.seed, &run);
        let record = report::per_layer_json(workload, args.seed, &run);
        report::write_per_layer(&args.out, workload, &record, &run.recorder);
        println!(
            "{}",
            report::result_line(
                run.correct(),
                run.attempted.max(1),
                run.failed,
                &run.metrics,
                report::per_layer_unit,
            )
        );
        run.correct()
    } else {
        let run = measure::end_to_end(workload, args.seed, args.seconds, args.quick);
        report::print_end_to_end(workload, args.seed, &run, comparable);
        let record = report::end_to_end_json(workload, args.seed, args.seconds, comparable, &run);
        report::write_end_to_end(&args.out, workload, &record);
        let correct = run.failed() == 0 && run.deterministic;
        println!(
            "{}",
            report::result_line(
                correct,
                run.attempted().max(1),
                run.failed(),
                &run.metrics(),
                report::end_to_end_unit,
            )
        );
        correct
    }
}

/// Re-executes this binary for one workload and pass, output inherited.
fn spawn(workload: Workload, traced: bool, args: &Args, out: &Path) -> bool {
    let exe = std::env::current_exe().expect("own executable path");
    let mut cmd = Command::new(exe);
    cmd.arg("--workload")
        .arg(workload.name())
        .arg("--seed")
        .arg(args.seed.to_string())
        .arg("--seconds")
        .arg(args.seconds.to_string())
        .arg("--trace")
        .arg(if traced { "1" } else { "0" })
        .arg("--out")
        .arg(out);
    if args.quick {
        cmd.arg("--quick");
    }
    // `status` waits for the child, so no process outlives this one.
    let status = cmd.status().expect("re-executing the benchmark");
    status.success()
}

/// Runs both passes of every selected workload and assembles the result.
fn run_all(args: &Args, out: &Path) -> (bool, lrs_bench::Json) {
    let workloads: Vec<Workload> = match args.workload {
        Some(w) => vec![w],
        None => Workload::ALL.to_vec(),
    };
    let mut ok = true;
    for &w in &workloads {
        for traced in [false, true] {
            ok &= spawn(w, traced, args, out);
        }
    }
    let result = report::assemble(out, &workloads, args.seed, args.seconds, !args.quick);
    println!("wrote {}", out.join("result.json").display());
    (ok, result)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(err) => {
            eprintln!("lrs-ledger: {err}");
            return ExitCode::from(2);
        }
    };
    let ok = match (args.workload, args.trace) {
        (Some(workload), Some(traced)) if !args.check_repeat => {
            measure_one(workload, traced, &args)
        }
        _ if args.check_repeat => {
            let (ok1, first) = run_all(&args, &args.out.join("repeat-1"));
            let (ok2, second) = run_all(&args, &args.out);
            println!("== check-repeat: second run against first");
            let problems = report::compare(&first, &second);
            for p in &problems {
                println!("  DISAGREE {p}");
            }
            println!(
                "check-repeat: {}",
                if problems.is_empty() { "PASS" } else { "FAIL" }
            );
            ok1 && ok2 && problems.is_empty()
        }
        _ => run_all(&args, &args.out).0,
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(words: &[&str]) -> Result<Args, String> {
        parse_args(&words.iter().map(|w| w.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn the_drivers_form_parses() {
        let args = parse(&[
            "--workload",
            "grid_dense_lr",
            "--seed",
            "42",
            "--seconds",
            "18",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(args.workload, Some(Workload::GridDenseLr));
        assert_eq!(args.seed, 42);
        assert_eq!(args.seconds, 18.0);
        assert_eq!(args.trace, Some(true));
        assert!(!args.quick && !args.check_repeat);
    }

    #[test]
    fn defaults_and_rejections() {
        let args = parse(&[]).unwrap();
        assert_eq!(args.seed, 1);
        assert_eq!(args.seconds, DEFAULT_SECONDS);
        assert!(args.workload.is_none() && args.trace.is_none());
        assert!(parse(&["--workload", "swarm"]).is_err());
        assert!(parse(&["--trace", "2"]).is_err());
        assert!(parse(&["--seconds", "-1"]).is_err());
        assert!(parse(&["--seed"]).is_err());
        assert!(parse(&["--frobnicate"]).is_err());
    }

    #[test]
    fn run_seconds_in_the_manifest_is_the_default() {
        let manifest = lrs_bench::parse_json(include_str!("../../BENCHMARK.json")).unwrap();
        assert_eq!(
            manifest
                .get("run_seconds")
                .and_then(lrs_bench::Json::as_num),
            Some(DEFAULT_SECONDS)
        );
    }
}
