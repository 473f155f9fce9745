//! The one sweep driver: every `paper` point is a one-cell campaign
//! whose jobs run seeds `1..=seeds`; an experiment runs its cells,
//! tabulates the means and keeps the per-seed samples. The pieces here
//! are what the experiments share: what a per-run observation is
//! ([`Sample`]), the `results/<name>.{csv,json}` pair and its one
//! writer ([`Report`]), the cell fan-out ([`run_cells`]) and the five
//! metric columns of Figs. 4-6 and Tables II/III ([`five_metrics`]).

use crate::campaign::{Campaign, JobRecord, MANIFEST};
use crate::harness::parallel_map;
use crate::json::{stat_json, write_json, Json};
use crate::runner::ExperimentMetrics;
use crate::spec::CampaignSpec;
use crate::table::{write_csv, Table};
use lrs_analysis::Summary;
use std::path::Path;

/// One run's observables, as floats for aggregation over seeds.
pub trait Sample {
    /// Metric names, in reporting order: the JSON keys of a result
    /// file, so renaming one is a result-schema change.
    const NAMES: &'static [&'static str];

    /// The observables, in [`Self::NAMES`] order.
    fn values(&self) -> Vec<f64>;
}

impl Sample for JobRecord {
    const NAMES: &'static [&'static str] = &ExperimentMetrics::NAMES;

    fn values(&self) -> Vec<f64> {
        self.metrics.to_vec()
    }
}

/// The per-seed values of `metric` across `samples`.
///
/// # Panics
///
/// Panics if `metric` is not one of `T::NAMES`.
pub fn column<T: Sample>(samples: &[T], metric: &str) -> Vec<f64> {
    let at = T::NAMES
        .iter()
        .position(|name| *name == metric)
        .unwrap_or_else(|| panic!("unknown metric {metric:?}"));
    samples.iter().map(|s| s.values()[at]).collect()
}

/// The mean of `metric` over the finite samples ([`Summary::of`]), NaN
/// when none is finite.
pub fn mean<T: Sample>(samples: &[T], metric: &str) -> f64 {
    Summary::of(&column(samples, metric)).mean
}

/// A table cell: the mean of `metric` over the finite samples to
/// `decimals` places, or `-` when no sample is finite.
pub fn mean_cell<T: Sample>(samples: &[T], metric: &str, decimals: usize) -> String {
    let mean = mean(samples, metric);
    if mean.is_finite() {
        format!("{mean:.decimals$}")
    } else {
        "-".to_string()
    }
}

/// One experiment's `results/<name>.csv` + `results/<name>.json` pair:
/// the printed table of means, and per sweep point its parameters with
/// every metric's per-seed samples, mean and 95 % interval (the schema
/// in [`crate::json`]).
#[derive(Clone, Debug)]
pub struct Report {
    experiment: String,
    seeds: u64,
    threads: usize,
    table: Table,
    rows: Vec<Json>,
}

impl Report {
    /// Starts the report of `experiment`, run with `seeds` seeds on
    /// `threads` harness threads, whose table has the columns `header`.
    pub fn new(experiment: &str, header: Vec<&str>, seeds: u64, threads: usize) -> Self {
        Report {
            experiment: experiment.to_string(),
            seeds,
            threads,
            table: Table::new(header),
            rows: Vec::new(),
        }
    }

    /// Appends one table row.
    pub fn row(&mut self, cells: Vec<String>) {
        self.table.row(cells);
    }

    /// Appends one sweep point to the JSON document: its parameters
    /// (e.g. `("p", 0.1)`) and the per-seed samples taken at it.
    pub fn push<T: Sample>(&mut self, params: &[(&str, Json)], samples: &[T]) {
        let params = params
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect();
        let metrics = T::NAMES
            .iter()
            .map(|name| (name.to_string(), stat_json(&column(samples, name))))
            .collect();
        self.rows.push(Json::Obj(vec![
            ("params".into(), Json::Obj(params)),
            ("metrics".into(), Json::Obj(metrics)),
        ]));
    }

    /// [`push`](Self::push) once per scheme of a point, with
    /// `("scheme", name)` appended to the point's `params`.
    pub fn push_schemes<T: Sample>(
        &mut self,
        params: &[(&str, Json)],
        schemes: &[&str],
        by_scheme: &[Vec<T>],
    ) {
        for (scheme, samples) in schemes.iter().zip(by_scheme) {
            let params = [params, &[("scheme", Json::str(*scheme))]].concat();
            self.push(&params, samples);
        }
    }

    /// The table of means.
    pub fn table(&self) -> &Table {
        &self.table
    }

    /// The JSON document.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("experiment".into(), Json::str(&self.experiment)),
            ("threads".into(), Json::num(self.threads as u32)),
            ("seeds".into(), Json::num(self.seeds as u32)),
            ("rows".into(), Json::Arr(self.rows.clone())),
        ])
    }

    /// Writes both files under `results/` and prints their paths.
    ///
    /// # Panics
    ///
    /// Panics on I/O errors, like [`write_csv`] and [`write_json`].
    pub fn write(&self) {
        println!("wrote {}", write_csv(&self.experiment, &self.table));
        println!("wrote {}", write_json(&self.experiment, &self.to_json()));
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
    fn report_schema_shape() {
        let mut report = Report::new("unit_test", vec!["p"], 2, 4);
        let (a, b) = (record(10.0, f64::NAN), record(14.0, 3.0));
        assert_eq!((a.get("data_pkts"), b.get("latency_s")), (10.0, 3.0));
        report.push(&[("p", Json::num(0.1f64))], &[a.clone(), b.clone()]);
        let text = report.to_json().render();
        assert!(text.starts_with(r#"{"experiment":"unit_test","threads":4,"seeds":2,"#));
        assert!(text.contains(r#""params":{"p":0.1}"#), "{text}");
        assert!(
            text.contains(r#""data_pkts":{"samples":[10,14],"mean":12,"ci95":"#),
            "{text}"
        );
        // NaN latency sample renders as null; its mean is over the finite one.
        assert!(
            text.contains(r#""latency_s":{"samples":[null,3],"mean":3,"ci95":0}"#),
            "{text}"
        );
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
