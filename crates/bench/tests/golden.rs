//! Golden-file regression tests: a tiny fig3-style one-hop sweep is
//! pinned against a checked-in CSV, and the `paper` bin's whole
//! `--quick` suite against the ten CSVs in `golden/quick/`, whose means
//! must be the ones its cells' `report.json` files record.
//!
//! This guards the full chain at once — simulator determinism, the
//! parallel harness, metric aggregation, and the exact table format.
//! If a change legitimately alters the numbers or the format,
//! regenerate the files with:
//!
//! ```text
//! LRS_BLESS=1 cargo test -p lrs-bench --test golden
//! ```
//!
//! and review the diff like any other code change.

use lrs_bench::paper::cell;
use lrs_bench::sweep::mean_cell;
use lrs_bench::table::Table;
use lrs_bench::{parse_json, run_cells, CampaignSpec};
use std::path::{Path, PathBuf};
use std::process::Command;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// The sweep under test: one-hop, N = 2, p ∈ {0.0, 0.2}, 2 seeds,
/// Seluge and LR-Seluge interleaved — a miniature fig3(a), each point
/// and scheme a one-cell campaign of the `chaos` profile.
fn tiny_fig3_sweep() -> Table {
    let seeds = 2;
    let threads = 2;
    let schemes = ["seluge", "lr-seluge"];
    let ps = [0.0f64, 0.2];
    let cells: Vec<CampaignSpec> = ps
        .iter()
        .flat_map(|&p| {
            schemes.map(|scheme| CampaignSpec {
                profile: "chaos".into(),
                ..cell(
                    format!("p{p}-{scheme}"),
                    scheme,
                    "star:3".into(),
                    p,
                    1024,
                    seeds,
                )
            })
        })
        .collect();
    let dir = std::env::temp_dir().join(format!("lrs-golden-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let grid = run_cells(&cells, &dir, threads);
    std::fs::remove_dir_all(&dir).expect("clean up");
    let mut table = Table::new(vec!["p", "seluge_sim", "lr_sim"]);
    for (&p, by_scheme) in ps.iter().zip(grid.chunks(2)) {
        table.row(vec![
            format!("{p:.2}"),
            mean_cell(&by_scheme[0], "page_data_pkts", 1),
            mean_cell(&by_scheme[1], "page_data_pkts", 1),
        ]);
    }
    table
}

fn check(name: &str, got: &str) {
    let path = golden_path(name);
    if std::env::var("LRS_BLESS").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run with LRS_BLESS=1",
            path.display()
        )
    });
    assert_eq!(
        got, want,
        "{name} drifted from its golden copy; if intentional, re-bless with LRS_BLESS=1"
    );
}

#[test]
fn tiny_fig3_sweep_matches_golden_files() {
    check("fig3_tiny.csv", &tiny_fig3_sweep().to_csv());
}

/// Checks `fig5.csv`'s `data_pkts` column against the cells: each row's
/// value is its cell's `report.json` mean, rendered to 0 places as the
/// table renders it.
fn fig5_rows_match_their_cell_reports(results: &Path) {
    let csv = std::fs::read_to_string(results.join("fig5.csv")).expect("fig5.csv");
    let mut lines = csv.lines();
    let header: Vec<&str> = lines.next().expect("header").split(',').collect();
    let at = |name: &str| header.iter().position(|h| *h == name).expect(name);
    let (n, scheme, data_pkts) = (at("N"), at("scheme"), at("data_pkts"));
    let mut rows = 0;
    for line in lines {
        let row: Vec<&str> = line.split(',').collect();
        let cell = format!("fig5-n{}-{}", row[n], row[scheme]);
        let path = results.join("paper-quick").join(&cell).join("report.json");
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{cell}: {e}"));
        let report = parse_json(&text).expect("report.json parses");
        let mean = report.arr_at("cells").expect("cells")[0]
            .get("metrics")
            .and_then(|m| m.get("data_pkts"))
            .and_then(|s| s.num_at("mean").ok())
            .unwrap_or_else(|| panic!("{cell}: no data_pkts mean"));
        assert_eq!(row[data_pkts], format!("{mean:.0}"), "{cell}");
        rows += 1;
    }
    assert_eq!(rows, 6, "three N values x two schemes");
}

/// The figures' own code path: `paper all --quick` in a scratch
/// directory must reproduce every CSV under `tests/golden/quick/`,
/// which the eight per-figure bins that `paper` replaced wrote.
#[test]
fn paper_all_quick_reproduces_the_golden_csvs() {
    let dir = std::env::temp_dir().join(format!("lrs-paper-quick-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let run = Command::new(env!("CARGO_BIN_EXE_paper"))
        .args(["all", "--quick", "--threads", "2"])
        .current_dir(&dir)
        .output()
        .expect("spawn paper");
    assert!(
        run.status.success(),
        "{}",
        String::from_utf8_lossy(&run.stderr)
    );
    let mut names: Vec<String> = std::fs::read_dir(golden_path("quick"))
        .expect("golden dir")
        .map(|entry| {
            entry
                .expect("entry")
                .file_name()
                .into_string()
                .expect("utf-8")
        })
        .collect();
    names.sort();
    assert_eq!(names.len(), 10, "{names:?}");
    for name in names {
        let got = std::fs::read_to_string(dir.join("results").join(&name))
            .unwrap_or_else(|e| panic!("paper wrote no {name}: {e}"));
        check(&format!("quick/{name}"), &got);
    }
    // The cell directories are each point's one record: the tables are
    // their means, and no other per-experiment file is written.
    let results = dir.join("results");
    fig5_rows_match_their_cell_reports(&results);
    let json: Vec<PathBuf> = std::fs::read_dir(&results)
        .expect("results dir")
        .map(|entry| entry.expect("entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "json"))
        .collect();
    assert!(json.is_empty(), "paper wrote {json:?}");
    std::fs::remove_dir_all(&dir).expect("clean up");
}
