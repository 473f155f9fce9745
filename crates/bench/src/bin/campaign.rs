//! Campaign front-end: checkpointed Monte-Carlo fleets over a grid spec.
//!
//! ```text
//! campaign --spec <file> [--out <dir>] [--threads N] [--kill-after K]
//!     Start a campaign from a TOML/JSON grid spec (see
//!     `lrs_bench::spec`). Writes <dir>/manifest.json, streams per-job
//!     records into <dir>/jobs.log, and on completion emits
//!     <dir>/report.json with per-cell n/mean/95% CI/p50/p95/min/max. The default
//!     <dir> is results/campaign-<name>. --kill-after stops (without a
//!     report) after K new jobs — the knob CI uses to exercise crash
//!     recovery deterministically.
//!
//! campaign --resume <dir> [--threads N] [--kill-after K]
//!     Reopen a campaign from its manifest: completed jobs are loaded
//!     from jobs.log (torn final lines from a kill -9 are discarded),
//!     only the remainder executes, and the final report is
//!     byte-identical to an uninterrupted run.
//!
//! campaign --export-job <id> (--spec <file> | --resume <dir>)
//!     Print job <id> as a replay capsule (JSONL) without running it —
//!     any grid point is a bit-exact reproducer for the `replay` bin.
//!     With --spec the grid is built in memory: no campaign directory
//!     is created or required.
//!
//! ```
//!
//! The committed grids live in `examples/campaign/`: `smoke.toml` is
//! the CI gate, `chaos.toml` the fault sweep and `attack.toml` the
//! §IV-E adversary grid.
//!
//! Jobs that end diagnostically (stalled, invariant violated) dump
//! failure capsules under `<dir>/failures/`, loadable by
//! `replay <capsule>`.

use lrs_bench::campaign::{Campaign, JOB_LOG, REPORT};
use lrs_bench::capsules::replay_capsule;
use lrs_bench::{CampaignSpec, Cli, Report};
use std::path::PathBuf;
use std::process::ExitCode;

const FLAGS: &[lrs_bench::cli::Flag] = &[
    lrs_bench::cli::valued("--spec", "start a campaign from a TOML/JSON grid spec"),
    lrs_bench::cli::valued(
        "--resume",
        "reopen a campaign directory and run the remainder",
    ),
    lrs_bench::cli::valued(
        "--out",
        "campaign directory (default: results/campaign-<name>)",
    ),
    lrs_bench::cli::valued("--threads", "worker threads (default: all cores)"),
    lrs_bench::cli::valued("--kill-after", "stop (without a report) after K new jobs"),
    lrs_bench::cli::valued(
        "--export-job",
        "print job <id> as a replay capsule and exit",
    ),
];

fn parse_spec(cli: &Cli) -> Result<CampaignSpec, String> {
    let Some(path) = cli.value("--spec") else {
        return Err(format!(
            "no grid given; pass --spec or --resume\n{}",
            cli.usage()
        ));
    };
    let text = std::fs::read_to_string(path).map_err(|e| format!("read spec {path}: {e}"))?;
    CampaignSpec::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn open_campaign(cli: &Cli) -> Result<Campaign, String> {
    if let Some(dir) = cli.value("--resume") {
        return Campaign::resume(dir);
    }
    let spec = parse_spec(cli)?;
    let dir = cli
        .value("--out")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("results").join(format!("campaign-{}", spec.name)));
    Campaign::create(spec, dir)
}

/// The campaign for `--export-job`: exporting is a pure function of
/// the grid, so a `--spec` invocation builds the campaign in
/// memory — it must not create (or collide with) an on-disk campaign
/// directory as a side effect. `--resume` still reads the manifest.
fn export_campaign(cli: &Cli) -> Result<Campaign, String> {
    if let Some(dir) = cli.value("--resume") {
        return Campaign::resume(dir);
    }
    Ok(Campaign::offline(parse_spec(cli)?, PathBuf::new()))
}

fn print_summary(campaign: &Campaign, report: &Report) {
    println!(
        "campaign {:?}: {} jobs over {} cells -> {}",
        report.campaign,
        report.jobs,
        report.cells.len(),
        campaign.dir().join(REPORT).display()
    );
    let failures: Vec<usize> = report
        .cells
        .iter()
        .flat_map(|c| &c.failures)
        .copied()
        .collect();
    if failures.is_empty() {
        println!("no failures");
    } else {
        println!("{} failure capsule(s):", failures.len());
        for job in failures {
            println!("  {}", campaign.failure_capsule_path(job));
        }
    }
    // One line per cell: outcome counts plus headline latency.
    for cell in &report.cells {
        let p = &cell.params;
        let mean_of = |metric: &str| cell.metric(metric).map_or(f64::NAN, |m| m.mean);
        println!(
            "  {} {} loss={}ppm fault={} attacker={}: {}/{} complete, mean latency {:.1} s, \
             completion {:.2}, verify-ops/node {:.1}",
            p.scheme,
            p.topology,
            p.loss_ppm,
            p.fault,
            p.attacker,
            cell.outcome("complete"),
            cell.jobs,
            mean_of("latency_s"),
            mean_of("completion_frac"),
            mean_of("verify_inflation"),
        );
    }
}

fn run() -> Result<ExitCode, String> {
    let cli = Cli::parse("campaign", FLAGS).map_err(|e| e.to_string())?;
    if let Some(job) = cli
        .parsed::<usize>("--export-job")
        .map_err(|e| e.to_string())?
    {
        let campaign = export_campaign(&cli)?;
        let mut capsule = campaign.job_capsule(job)?;
        // Execute the job once to pin its digest, so `replay` has
        // something to verify against.
        capsule.digest = Some(replay_capsule(&capsule)?.digest);
        print!("{}", capsule.to_jsonl());
        return Ok(ExitCode::SUCCESS);
    }

    let campaign = open_campaign(&cli)?;
    let threads = cli.threads().map_err(|e| e.to_string())?;
    let kill_after = cli
        .parsed::<usize>("--kill-after")
        .map_err(|e| e.to_string())?;
    let total = campaign.total_jobs();
    let already = campaign.completed()?.len();
    println!(
        "campaign {:?}: {total} jobs ({} cells x {} seeds), {already} already logged, {threads} thread(s)",
        campaign.spec().name,
        campaign.spec().cells().len(),
        campaign.spec().seeds,
    );

    match campaign.run(threads, kill_after)? {
        Some(report) => {
            print_summary(&campaign, &report.report);
            Ok(ExitCode::SUCCESS)
        }
        None => {
            let done = campaign.completed()?.len();
            println!(
                "stopped after --kill-after: {done}/{total} jobs logged in {}; \
                 finish with: campaign --resume {}",
                campaign.dir().join(JOB_LOG).display(),
                campaign.dir().display(),
            );
            Ok(ExitCode::SUCCESS)
        }
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("campaign: {e}");
            ExitCode::FAILURE
        }
    }
}
