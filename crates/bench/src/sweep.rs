//! The one sweep driver: every `paper` point is a one-cell campaign
//! whose jobs run seeds `1..=seeds`, and that cell's `jobs.log` and
//! `report.json` are the point's one record (per-seed metrics and their
//! summary statistics); an experiment runs its cells and tabulates the
//! report's means. The pieces here are what the experiments share: the
//! cell fan-out ([`run_cells`]), the table cells of a mean
//! ([`mean_cell`]) and the five metric columns of Figs. 4-6 and Tables
//! II/III ([`five_metrics`]).

use crate::campaign::{Campaign, CellReport, JobRecord, MANIFEST};
use crate::harness::parallel_map;
use crate::spec::CampaignSpec;
use std::path::Path;

/// The cell's reported mean of `metric`: the mean over the finite
/// samples in seed order, NaN when none is finite.
///
/// # Panics
///
/// Panics if the cell does not report `metric`.
pub fn mean(cell: &CellReport, metric: &str) -> f64 {
    let summary = cell.metric(metric);
    summary
        .unwrap_or_else(|| panic!("unknown metric {metric:?}"))
        .mean
}

/// A table cell: the mean of `metric` over the finite samples to
/// `decimals` places, or `-` when no sample is finite.
pub fn mean_cell(cell: &CellReport, metric: &str, decimals: usize) -> String {
    let mean = mean(cell, metric);
    if mean.is_finite() {
        format!("{mean:.decimals$}")
    } else {
        "-".to_string()
    }
}

/// Runs every cell, a one-cell campaign each, on `threads` workers,
/// one cell per worker, in the campaign directory `root/<name>`, and
/// returns each campaign's one report cell. A directory whose
/// manifest holds the same spec is resumed, so only its missing jobs
/// run (the manifest records the spec, not the build that ran it).
///
/// # Panics
///
/// Panics naming the directory when it holds a different spec, on I/O
/// errors, and on a job that broke an invariant or ended `complete`
/// without every honest node holding the image.
pub fn run_cells(cells: &[CampaignSpec], root: &Path, threads: usize) -> Vec<CellReport> {
    parallel_map(cells, threads, |spec| {
        run_cell(spec, &root.join(&spec.name)).unwrap_or_else(|e| panic!("{e}"))
    })
}

fn run_cell(spec: &CampaignSpec, dir: &Path) -> Result<CellReport, String> {
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
    let done = campaign.run(1, None)?.ok_or("ran to completion")?;
    let frac = |r: &JobRecord| r.get("completion_frac");
    let broken = |r: &&JobRecord| {
        r.outcome == "invariant_violated" || r.outcome == "complete" && frac(r) != 1.0
    };
    match done.records.iter().find(broken) {
        Some(r) => Err(format!(
            "{}: job {} ended {} with completion_frac {}",
            dir.display(),
            r.job,
            r.outcome,
            frac(r)
        )),
        None => Ok(done.report.cells.into_iter().next().expect("one cell")),
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
/// cell's means.
pub fn five_metrics(cell: &CellReport) -> Vec<String> {
    vec![
        mean_cell(cell, "data_pkts", 0),
        mean_cell(cell, "snack_pkts", 0),
        mean_cell(cell, "adv_pkts", 0),
        format!("{:.1}", mean(cell, "total_bytes") / 1024.0),
        mean_cell(cell, "latency_s", 1),
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
        let params = CampaignSpec::parse("name = \"x\"")
            .unwrap()
            .cells()
            .remove(0);
        let both = CellReport::summarize(params.clone(), &[&a, &b]);
        assert_eq!(mean(&both, "data_pkts"), 12.0);
        // A NaN latency sample is skipped; its mean is over the finite one.
        assert_eq!(mean_cell(&both, "latency_s", 1), "3.0");
        assert_eq!(
            mean_cell(&CellReport::summarize(params, &[&a]), "latency_s", 1),
            "-"
        );
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
        for (spec, cell) in cells.iter().zip(&grid) {
            assert_eq!((&cell.params, cell.jobs), (&spec.cells()[0], 2));
            let dir = root.join("fanned").join(&spec.name);
            let logged = Campaign::resume(dir).and_then(|c| c.completed()).unwrap();
            let seeds: Vec<u64> = logged.iter().map(|r| r.seed).collect();
            assert_eq!(seeds, [1, 2], "{}", spec.name);
            let alone = run_cells(std::slice::from_ref(spec), &root.join("alone"), 1);
            assert_eq!(&alone[0], cell, "{}", spec.name);
            // Equal summaries need not come from equal records.
            let dir = root.join("alone").join(&spec.name);
            let alone_logged = Campaign::resume(dir).and_then(|c| c.completed()).unwrap();
            assert_eq!(alone_logged, logged, "{}", spec.name);
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
