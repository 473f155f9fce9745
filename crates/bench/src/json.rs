//! The workspace's one JSON codec ([`lrs_json`], re-exported here as
//! [`Json`] / [`parse_json`]) and [`write_json`], which writes one
//! document under `results/` (the swarm's `results/swarm.json`). A
//! `paper` point's record is its cell's `jobs.log` and `report.json`
//! (see [`crate::campaign`]), not a file of its own.

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
