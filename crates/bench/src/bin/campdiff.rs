//! Statistical diff of two campaign reports — the regression referee.
//!
//! ```text
//! campdiff --a <report.json> --b <report.json> [--alpha F] [--out <file>]
//!          [--inject metric=factor]
//!     Pairs the two campaigns' cells by canonical key (scheme ×
//!     topology × loss_ppm × fault × attacker), Welch-tests every
//!     paired metric with Benjamini–Hochberg FDR control across the
//!     whole grid, prints a table of significant differences, and
//!     writes the machine-readable JSON diff to --out when given.
//!
//!     --inject multiplies the named metric's mean by `factor` in
//!     report B *after* loading — a synthetic regression the CI gate
//!     uses to prove the engine detects what it is supposed to detect.
//!
//! Exit codes: 0 = no significant regression, 2 = at least one
//! significant regression, 1 = usage or input error.
//! ```
//!
//! Self-diffing any report exits 0 with zero significant differences by
//! construction (every delta is exactly 0).

use lrs_bench::cli::{flag, valued, Flag};
use lrs_bench::diff::{diff_reports, DEFAULT_ALPHA};
use lrs_bench::{Cli, Report};
use std::process::ExitCode;

const FLAGS: &[Flag] = &[
    valued("--a", "baseline campaign report.json"),
    valued("--b", "candidate campaign report.json"),
    valued(
        "--alpha",
        "false-discovery rate for verdicts (default 0.05)",
    ),
    valued("--out", "write the machine-readable JSON diff here"),
    valued(
        "--inject",
        "metric=factor: scale a metric's mean in report B (synthetic-regression gate)",
    ),
    flag(
        "--verbose",
        "also list paired cells with no significant change",
    ),
];

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("campdiff: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<ExitCode, String> {
    let cli = Cli::parse("campdiff", FLAGS).map_err(|e| e.to_string())?;
    let path_a = cli
        .value("--a")
        .ok_or_else(|| format!("--a <report.json> is required\n{}", cli.usage()))?;
    let path_b = cli
        .value("--b")
        .ok_or_else(|| format!("--b <report.json> is required\n{}", cli.usage()))?;
    let alpha: f64 = cli
        .parsed_or("--alpha", DEFAULT_ALPHA)
        .map_err(|e| e.to_string())?;

    let a = Report::load(path_a)?;
    let mut b = Report::load(path_b)?;
    if let Some(spec) = cli.value("--inject") {
        let (metric, factor) = parse_inject(spec)?;
        let hit = b.inject(metric, factor);
        if hit == 0 {
            return Err(format!(
                "--inject: no cell in {path_b} carries metric {metric:?}"
            ));
        }
        eprintln!("campdiff: injected ×{factor} into {metric:?} across {hit} cells of B");
    }

    let diff = diff_reports(&a, &b, alpha)?;
    print!("{}", diff.render());
    if cli.flag("--verbose") {
        for cell in &diff.cells {
            let testable = cell.metrics.iter().filter(|m| m.test.is_some()).count();
            println!(
                "  [{}] {} — {} metrics compared, {} testable",
                cell.key,
                cell.verdict.label(),
                cell.metrics.len(),
                testable
            );
        }
    }
    if let Some(out) = cli.value("--out") {
        std::fs::write(out, diff.to_json().render()).map_err(|e| format!("write {out}: {e}"))?;
        println!("wrote {out}");
    }

    Ok(if diff.regressions() > 0 {
        ExitCode::from(2)
    } else {
        ExitCode::SUCCESS
    })
}

fn parse_inject(spec: &str) -> Result<(&str, f64), String> {
    let (metric, factor) = spec
        .split_once('=')
        .ok_or_else(|| format!("--inject {spec:?}: expected metric=factor"))?;
    let factor: f64 = factor
        .parse()
        .map_err(|e| format!("--inject {spec:?}: bad factor: {e}"))?;
    if !factor.is_finite() {
        return Err(format!("--inject {spec:?}: factor must be finite"));
    }
    Ok((metric, factor))
}
