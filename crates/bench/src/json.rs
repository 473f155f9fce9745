//! The experiment result-file schema, on the workspace's one JSON
//! codec ([`lrs_json`], re-exported here as [`Json`] / [`parse_json`]).
//! Next to each `results/<name>.csv` the bins write a
//! `results/<name>.json` carrying what the CSV cannot: per-seed raw
//! samples, the sample mean, and a 95 % confidence interval per metric.
//!
//! Schema (one object per file):
//!
//! ```json
//! {
//!   "experiment": "fig3a",
//!   "threads": 8,
//!   "seeds": 10,
//!   "rows": [
//!     {
//!       "params": {"p": 0.1, "n_receivers": 10},
//!       "metrics": {
//!         "data_pkts": {"samples": [410.0, 395.0], "mean": 402.5, "ci95": 9.53},
//!         "...": {}
//!       }
//!     }
//!   ]
//! }
//! ```
//!
//! Non-finite numbers render as `null` (JSON has no NaN), so a latency
//! column over stalled runs stays machine-readable.

use crate::runner::ExperimentMetrics;
use crate::stats::summarize;
pub use lrs_json::{parse_json, Json};
use std::fs;
use std::io::Write as _;
use std::path::Path;

/// Writes `value` to `results/<name>.json` (creating the directory),
/// returning the path written. Counterpart of
/// [`write_csv`](crate::table::write_csv) for bins whose results do not
/// fit the [`JsonReport`] row shape.
///
/// # Panics
///
/// Panics on I/O errors — the harness has nothing useful to do without
/// its output directory.
pub fn write_json(name: &str, value: &Json) -> String {
    let dir = Path::new("results");
    fs::create_dir_all(dir).expect("create results dir");
    let path = dir.join(format!("{name}.json"));
    let mut f = fs::File::create(&path).expect("create json");
    f.write_all(value.render().as_bytes()).expect("write json");
    f.write_all(b"\n").expect("write json");
    path.display().to_string()
}

/// A `{"samples": […], "mean": …, "ci95": …}` object for one metric —
/// the per-metric leaf shape every results file uses.
pub fn stat_json(samples: &[f64]) -> Json {
    let s = summarize(samples);
    Json::Obj(vec![
        (
            "samples".into(),
            Json::Arr(samples.iter().map(|&v| Json::Num(v)).collect()),
        ),
        ("mean".into(), Json::Num(s.mean)),
        ("ci95".into(), Json::Num(s.ci95)),
    ])
}

/// One sweep point: its parameters and the per-seed metric samples.
#[derive(Clone, Debug)]
struct Row {
    params: Vec<(String, Json)>,
    samples: Vec<ExperimentMetrics>,
}

/// Accumulates sweep rows and writes the `results/<name>.json` file.
#[derive(Clone, Debug)]
pub struct JsonReport {
    experiment: String,
    threads: usize,
    seeds: u64,
    rows: Vec<Row>,
}

impl JsonReport {
    /// Starts a report for `experiment` run with `seeds` seeds on
    /// `threads` harness threads.
    pub fn new(experiment: impl Into<String>, seeds: u64, threads: usize) -> Self {
        JsonReport {
            experiment: experiment.into(),
            threads,
            seeds,
            rows: Vec::new(),
        }
    }

    /// Appends one sweep point with its parameters (e.g. `("p", 0.1)`)
    /// and the per-seed samples the harness produced for it.
    pub fn push_row(&mut self, params: &[(&str, Json)], samples: &[ExperimentMetrics]) {
        self.rows.push(Row {
            params: params
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
            samples: samples.to_vec(),
        });
    }

    /// Renders the full report object.
    pub fn to_json(&self) -> Json {
        let rows = self
            .rows
            .iter()
            .map(|row| {
                let mut metrics: Vec<(String, Json)> = Vec::new();
                for name in ExperimentMetrics::NAMES {
                    let samples: Vec<f64> = row.samples.iter().map(|m| m.get(name)).collect();
                    metrics.push((name.to_string(), stat_json(&samples)));
                }
                Json::Obj(vec![
                    ("params".into(), Json::Obj(row.params.clone())),
                    ("metrics".into(), Json::Obj(metrics)),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("experiment".into(), Json::str(&self.experiment)),
            ("threads".into(), Json::num(self.threads as u32)),
            ("seeds".into(), Json::num(self.seeds as u32)),
            ("rows".into(), Json::Arr(rows)),
        ])
    }

    /// Writes `results/<experiment>.json`, returning the path written.
    ///
    /// # Panics
    ///
    /// Panics on I/O errors — the harness has nothing useful to do
    /// without its output directory (same policy as
    /// [`write_csv`](crate::table::write_csv)).
    pub fn write(&self) -> String {
        write_json(&self.experiment, &self.to_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_schema_shape() {
        let mut report = JsonReport::new("unit_test", 2, 4);
        let a = ExperimentMetrics {
            data_pkts: 10.0,
            latency_s: f64::NAN,
            ..Default::default()
        };
        let b = ExperimentMetrics {
            data_pkts: 14.0,
            latency_s: 3.0,
            ..Default::default()
        };
        report.push_row(&[("p", Json::num(0.1f64))], &[a, b]);
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
    }
}
