//! The one sweep driver: every `paper` point is a one-cell campaign
//! whose jobs run seeds `1..=seeds`, and that cell's `jobs.log` and
//! `report.json` are the point's one record (per-seed metrics and their
//! summary statistics); an experiment runs its cells and tabulates the
//! means. The pieces here are what the experiments share: the cell
//! fan-out ([`run_cells`]), the table cells of a mean ([`mean_cell`])
//! and the five metric columns of Figs. 4-6 and Tables II/III
//! ([`five_metrics`]).

use crate::campaign::{Campaign, JobRecord, MANIFEST};
use crate::harness::parallel_map;
use crate::spec::CampaignSpec;
use lrs_analysis::Summary;
use std::path::Path;

/// The mean of `metric` over the finite samples ([`Summary::of`] in
/// seed order, as the cell's `report.json` computes it), NaN when none
/// is finite.
///
/// # Panics
///
/// Panics if `metric` is not one of
/// [`ExperimentMetrics::NAMES`](crate::runner::ExperimentMetrics::NAMES).
pub fn mean(samples: &[JobRecord], metric: &str) -> f64 {
    let column: Vec<f64> = samples.iter().map(|r| r.get(metric)).collect();
    Summary::of(&column).mean
}

/// A table cell: the mean of `metric` over the finite samples to
/// `decimals` places, or `-` when no sample is finite.
pub fn mean_cell(samples: &[JobRecord], metric: &str, decimals: usize) -> String {
    let mean = mean(samples, metric);
    if mean.is_finite() {
        format!("{mean:.decimals$}")
    } else {
        "-".to_string()
    }
}

/// Runs every cell, a one-cell campaign each, on `threads` workers,
/// one cell per worker, in the campaign directory `root/<name>`, and
/// returns each cell's job records in job-id order. A directory whose
/// manifest holds the same spec is resumed, so only its missing jobs
/// run (the manifest records the spec, not the build that ran it).
///
/// # Panics
///
/// Panics naming the directory when it holds a different spec, on I/O
/// errors, and on a job that broke an invariant or ended `complete`
/// without every honest node holding the image.
pub fn run_cells(cells: &[CampaignSpec], root: &Path, threads: usize) -> Vec<Vec<JobRecord>> {
    parallel_map(cells, threads, |spec| {
        run_cell(spec, &root.join(&spec.name)).unwrap_or_else(|e| panic!("{e}"))
    })
}

fn run_cell(spec: &CampaignSpec, dir: &Path) -> Result<Vec<JobRecord>, String> {
    spec.validate()?;
    let campaign = if dir.join(MANIFEST).exists() {
        let campaign = Campaign::resume(dir)?;
        if campaign.spec() != spec {
            return Err(format!(
                "{} holds a different campaign than {:?}; remove it to rerun",
                dir.display(),
                spec.name
            ));
        }
        campaign
    } else {
        Campaign::create(spec.clone(), dir)?
    };
    let records = campaign.run(1, None)?.ok_or("ran to completion")?.records;
    let frac = |r: &JobRecord| r.get("completion_frac");
    let broken = |r: &&JobRecord| {
        r.outcome == "invariant_violated" || r.outcome == "complete" && frac(r) != 1.0
    };
    match records.iter().find(broken) {
        Some(r) => Err(format!(
            "{}: job {} ended {} with completion_frac {}",
            dir.display(),
            r.job,
            r.outcome,
            frac(r)
        )),
        None => Ok(records),
    }
}

/// Column names of [`five_metrics`].
pub const FIVE_METRICS: &[&str] = &[
    "data_pkts",
    "snack_pkts",
    "adv_pkts",
    "total_kbytes",
    "latency_s",
];

/// The five metrics of Figs. 4-6 and Tables II/III as table cells: the
/// means over `samples`.
pub fn five_metrics(samples: &[JobRecord]) -> Vec<String> {
    vec![
        mean_cell(samples, "data_pkts", 0),
        mean_cell(samples, "snack_pkts", 0),
        mean_cell(samples, "adv_pkts", 0),
        format!("{:.1}", mean(samples, "total_bytes") / 1024.0),
        mean_cell(samples, "latency_s", 1),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::ExperimentMetrics;

    /// A record whose metrics are all 0 but `data_pkts` and `latency_s`.
    fn record(data_pkts: f64, latency_s: f64) -> JobRecord {
        let mut metrics = [0.0; ExperimentMetrics::NAMES.len()];
        metrics[1] = data_pkts;
        metrics[5] = latency_s;
        JobRecord {
            job: 0,
            cell: 0,
            seed: 1,
            outcome: "complete".into(),
            metrics,
        }
    }

    #[test]
    fn means_skip_non_finite_samples() {
        let (a, b) = (record(10.0, f64::NAN), record(14.0, 3.0));
        assert_eq!((a.get("data_pkts"), b.get("latency_s")), (10.0, 3.0));
        assert_eq!(mean(&[a.clone(), b.clone()], "data_pkts"), 12.0);
        // A NaN latency sample is skipped; its mean is over the finite one.
        assert_eq!(mean_cell(&[a.clone(), b], "latency_s", 1), "3.0");
        assert_eq!(mean_cell(&[a], "latency_s", 1), "-");
    }

    #[test]
    fn per_scheme_groups_by_point_then_scheme_in_seed_order() {
        let root = std::env::temp_dir().join(format!("lrs-sweep-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let cell = |scheme: &str, loss_ppm: u32| {
            let toml = format!(
                "name = \"{scheme}-{loss_ppm}\"\nschemes = [\"{scheme}\"]\n\
                 topologies = [\"star:3\"]\nloss_ppm = [{loss_ppm}]\nseeds = 2\n\
                 seed_base = 1\nimage_bytes = 512\nprofile = \"chaos\"\n"
            );
            CampaignSpec::parse(&toml).expect("cell spec")
        };
        let cells: Vec<CampaignSpec> = [0, 200_000]
            .into_iter()
            .flat_map(|p| ["lr-seluge", "seluge"].map(|scheme| cell(scheme, p)))
            .collect();
        let grid = run_cells(&cells, &root.join("fanned"), 3);
        assert_eq!(grid.len(), 4);
        for (spec, records) in cells.iter().zip(&grid) {
            let seeds: Vec<u64> = records.iter().map(|r| r.seed).collect();
            assert_eq!(seeds, [1, 2], "{}", spec.name);
            let alone = run_cells(std::slice::from_ref(spec), &root.join("alone"), 1);
            assert_eq!(&alone[0], records, "{}", spec.name);
        }
        // A second run resumes every cell and runs no job.
        let log = |name: &str| std::fs::read(root.join("fanned").join(name).join("jobs.log"));
        let before: Vec<_> = cells.iter().map(|c| log(&c.name).unwrap()).collect();
        assert_eq!(run_cells(&cells, &root.join("fanned"), 2), grid);
        let after: Vec<_> = cells.iter().map(|c| log(&c.name).unwrap()).collect();
        assert_eq!(before, after);
        // A directory holding another spec is refused, by name.
        let other = CampaignSpec {
            seeds: 3,
            ..cells[0].clone()
        };
        let dir = root.join("fanned").join(&other.name);
        let err = run_cell(&other, &dir).unwrap_err();
        assert!(err.contains(&dir.display().to_string()), "{err}");
        std::fs::remove_dir_all(&root).expect("clean up");
    }
}
