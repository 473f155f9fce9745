//! Golden-file regression test: a tiny fig3-style one-hop sweep is
//! pinned against checked-in CSV and JSON outputs.
//!
//! This guards the full chain at once — simulator determinism, the
//! parallel harness, metric aggregation, and the exact result-file
//! formats. If a change legitimately alters the numbers or the schema,
//! regenerate the files with:
//!
//! ```text
//! LRS_BLESS=1 cargo test -p lrs-bench --test golden
//! ```
//!
//! and review the diff like any other code change.

use lrs_bench::capsules::chaos_params;
use lrs_bench::{
    aggregate, matched_seluge_params, run_lr, run_seluge, sample_grid, Json, JsonReport, RunSpec,
    Table,
};
use std::path::PathBuf;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// The sweep under test: one-hop, N = 2, p ∈ {0.0, 0.2}, 2 seeds,
/// Seluge and LR-Seluge interleaved — a miniature fig3(a).
fn tiny_fig3_sweep() -> (Table, JsonReport) {
    let seeds = 2;
    let threads = 2; // fixed, so the pinned "threads" field is stable
    let lr = chaos_params(1024);
    let seluge = matched_seluge_params(&lr);
    let n_rx = 2usize;
    let ps = [0.0f64, 0.2];
    let points: Vec<(f64, bool)> = ps.iter().flat_map(|&p| [(p, false), (p, true)]).collect();
    let grid = sample_grid(&points, seeds, threads, |&(p, is_lr), seed| {
        let spec = RunSpec::one_hop(n_rx, p);
        if is_lr {
            run_lr(&spec, lr, seed)
        } else {
            run_seluge(&spec, seluge, seed)
        }
    });
    let mut table = Table::new(vec!["p", "seluge_sim", "lr_sim"]);
    let mut report = JsonReport::new("fig3_tiny", seeds, threads);
    for (i, &p) in ps.iter().enumerate() {
        let s = aggregate(&grid[2 * i]).page_data_pkts;
        let l = aggregate(&grid[2 * i + 1]).page_data_pkts;
        report.push_row(
            &[("p", Json::num(p)), ("scheme", Json::str("seluge"))],
            &grid[2 * i],
        );
        report.push_row(
            &[("p", Json::num(p)), ("scheme", Json::str("lr-seluge"))],
            &grid[2 * i + 1],
        );
        table.row(vec![
            format!("{p:.2}"),
            format!("{s:.1}"),
            format!("{l:.1}"),
        ]);
    }
    (table, report)
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
    let (table, report) = tiny_fig3_sweep();
    check("fig3_tiny.csv", &table.to_csv());
    check("fig3_tiny.json", &report.to_json().render());
}
