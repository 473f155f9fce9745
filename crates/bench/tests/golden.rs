//! Golden-file regression tests: a tiny fig3-style one-hop sweep is
//! pinned against checked-in CSV and JSON outputs, and the `paper` bin's
//! whole `--quick` suite against the ten CSVs in `golden/quick/`.
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
use lrs_bench::sweep::run_matched;
use lrs_bench::{aggregate, per_scheme, Json, Report, RunSpec};
use std::path::PathBuf;
use std::process::Command;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// The sweep under test: one-hop, N = 2, p ∈ {0.0, 0.2}, 2 seeds,
/// Seluge and LR-Seluge interleaved — a miniature fig3(a).
fn tiny_fig3_sweep() -> Report {
    let seeds = 2;
    let threads = 2; // fixed, so the pinned "threads" field is stable
    let lr = chaos_params(1024);
    let schemes = ["seluge", "lr-seluge"];
    let ps = [0.0f64, 0.2];
    let grid = per_scheme(&ps, &schemes, seeds, threads, |&p, scheme, seed| {
        run_matched(scheme, &RunSpec::one_hop(2, p), &lr, seed)
    });
    let columns = vec!["p", "seluge_sim", "lr_sim"];
    let mut report = Report::new("fig3_tiny", columns, seeds, threads);
    for (&p, by_scheme) in ps.iter().zip(&grid) {
        report.push_schemes(&[("p", Json::num(p))], &schemes, by_scheme);
        report.row(vec![
            format!("{p:.2}"),
            format!("{:.1}", aggregate(&by_scheme[0]).page_data_pkts),
            format!("{:.1}", aggregate(&by_scheme[1]).page_data_pkts),
        ]);
    }
    report
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
    let report = tiny_fig3_sweep();
    check("fig3_tiny.csv", &report.table().to_csv());
    check("fig3_tiny.json", &report.to_json().render());
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
    std::fs::remove_dir_all(&dir).expect("clean up");
}
