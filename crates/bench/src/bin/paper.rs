//! The paper's evaluation, one experiment per name.
//!
//! Usage: `paper <experiment>... [--quick] [--threads N]`, where an
//! experiment is one of `fig3 fig4 fig5 fig6 imgsize ablation overhead
//! table2_3`, or `all` for the eight in that order (see
//! `lrs_bench::paper`). Every name is checked before anything runs.

use lrs_bench::cli::{exit_with_usage, Cli, SWEEP_FLAGS};

fn main() {
    let parsed = Cli::parse("paper", SWEEP_FLAGS)
        .and_then(|cli| Ok((lrs_bench::paper::select(&cli)?, cli.quick(), cli.threads()?)));
    match parsed {
        Ok((experiments, quick, threads)) => {
            for experiment in experiments {
                experiment(quick, threads);
            }
        }
        Err(e) => exit_with_usage("paper", SWEEP_FLAGS, &e),
    }
}
