//! The one sweep driver: every experiment is "run each point over
//! `1..=seeds`, tabulate the means, keep the per-seed samples". The
//! pieces here are what the `paper` experiments share: what a per-run
//! observation is ([`Sample`]), the `results/<name>.{csv,json}` pair
//! and its one writer ([`Report`]), the (point × scheme × seed) fan-out
//! ([`per_scheme`]), the matched run of a scheme named at run time
//! ([`run_matched`]) and the five metric columns of Figs. 4-6 and
//! Tables II/III ([`five_metrics`]).

use crate::harness::sample_grid;
use crate::json::{stat_json, write_json, Json};
use crate::runner::{run, ExperimentMetrics, Matched, RunSpec};
use crate::stats::summarize;
use crate::table::{write_csv, Table};
use crate::with_scheme;
use lr_seluge::LrSelugeParams;

/// One run's observables, as floats for aggregation over seeds.
pub trait Sample {
    /// Metric names, in reporting order: the JSON keys of a result
    /// file, so renaming one is a result-schema change.
    const NAMES: &'static [&'static str];

    /// The observables, in [`Self::NAMES`] order.
    fn values(&self) -> Vec<f64>;
}

impl Sample for ExperimentMetrics {
    const NAMES: &'static [&'static str] = &ExperimentMetrics::NAMES;

    fn values(&self) -> Vec<f64> {
        self.named().iter().map(|&(_, v)| v).collect()
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

/// A table cell: the mean of `metric` over the finite samples to
/// `decimals` places, or `-` when no sample is finite.
pub fn mean_cell<T: Sample>(samples: &[T], metric: &str, decimals: usize) -> String {
    let mean = summarize(&column(samples, metric)).mean;
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

    /// [`push`](Self::push) once per scheme of a [`per_scheme`] point,
    /// with `("scheme", name)` appended to the point's `params`.
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

/// Fans (point × scheme × seed) out over the harness threads through
/// [`sample_grid`], schemes interleaved per point, and returns the
/// per-seed samples as `[point][scheme]`.
pub fn per_scheme<P: Sync, O: Send>(
    points: &[P],
    schemes: &[&'static str],
    seeds: u64,
    threads: usize,
    f: impl Fn(&P, &'static str, u64) -> O + Sync,
) -> Vec<Vec<Vec<O>>> {
    let jobs: Vec<(&P, &'static str)> = points
        .iter()
        .flat_map(|p| schemes.iter().map(move |&scheme| (p, scheme)))
        .collect();
    let mut flat = sample_grid(&jobs, seeds, threads, |&(p, scheme), seed| {
        f(p, scheme, seed)
    })
    .into_iter();
    points
        .iter()
        .map(|_| flat.by_ref().take(schemes.len()).collect())
        .collect()
}

/// One measured run ([`run`]) of the scheme family called `scheme`,
/// with its parameters matched to `lr` (§VI-A).
///
/// # Panics
///
/// Panics on a name [`with_scheme!`] does not know.
pub fn run_matched(
    scheme: &str,
    spec: &RunSpec,
    lr: &LrSelugeParams,
    seed: u64,
) -> ExperimentMetrics {
    with_scheme!(scheme, S => run::<S>(spec, S::matched(lr), seed))
        .unwrap_or_else(|e| panic!("{e}"))
}

/// Column names of [`five_metrics`].
pub const FIVE_METRICS: &[&str] = &[
    "data_pkts",
    "snack_pkts",
    "adv_pkts",
    "total_kbytes",
    "latency_s",
];

/// The five metrics of Figs. 4-6 and Tables II/III as table cells.
pub fn five_metrics(m: &ExperimentMetrics) -> Vec<String> {
    vec![
        format!("{:.0}", m.data_pkts),
        format!("{:.0}", m.snack_pkts),
        format!("{:.0}", m.adv_pkts),
        format!("{:.1}", m.total_bytes / 1024.0),
        format!("{:.1}", m.latency_s),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_schema_shape() {
        let mut report = Report::new("unit_test", vec!["p"], 2, 4);
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
        report.push(&[("p", Json::num(0.1f64))], &[a, b]);
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
        assert_eq!(mean_cell(&[a, b], "latency_s", 1), "3.0");
        assert_eq!(mean_cell(&[a], "latency_s", 1), "-");
    }

    #[test]
    fn per_scheme_groups_by_point_then_scheme_in_seed_order() {
        let grid = per_scheme(&[10u64, 20], &["a", "bb"], 2, 3, |&p, scheme, seed| {
            p + scheme.len() as u64 * 100 + seed
        });
        assert_eq!(
            grid,
            vec![
                vec![vec![111, 112], vec![211, 212]],
                vec![vec![121, 122], vec![221, 222]],
            ]
        );
    }
}
