//! The experiment result-file schema, on the workspace's one JSON
//! codec ([`lrs_json`], re-exported here as [`Json`] / [`parse_json`]).
//! Next to each `results/<name>.csv` the bins write a
//! `results/<name>.json` carrying what the CSV cannot: per-seed raw
//! samples, the sample mean, and a 95 % confidence interval per metric.
//! [`Report`](crate::sweep::Report) owns both files of a pair.
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

use lrs_analysis::Summary;
pub use lrs_json::{parse_json, Json};
use std::fs;
use std::io::Write as _;
use std::path::Path;

/// Writes `value` to `results/<name>.json` (creating the directory),
/// returning the path written. Counterpart of
/// [`write_csv`](crate::table::write_csv).
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
/// the per-metric leaf shape every results file uses, with mean and
/// interval from [`Summary::of`].
pub fn stat_json(samples: &[f64]) -> Json {
    let s = Summary::of(samples);
    Json::Obj(vec![
        (
            "samples".into(),
            Json::Arr(samples.iter().map(|&v| Json::Num(v)).collect()),
        ),
        ("mean".into(), Json::Num(s.mean)),
        ("ci95".into(), Json::Num(s.ci95)),
    ])
}
