//! Integration tests for the cross-campaign diff engine: the exact
//! properties the CI regression gate relies on, exercised through the
//! library (`lrs_bench::diff`) on both synthetic reports and the
//! committed campaign goldens, plus the report model both sides of
//! that gate share (`lrs_bench::Report`).

use lrs_bench::campaign::{CellReport, MetricSummary};
use lrs_bench::diff::{diff_reports, higher_is_better, Verdict, DEFAULT_ALPHA};
use lrs_bench::spec::CellParams;
use lrs_bench::{parse_json, Report};

/// Path to a committed golden, relative to the workspace root the test
/// runs from (`CARGO_MANIFEST_DIR` is crates/bench).
fn golden(name: &str) -> String {
    format!(
        "{}/../../results/campaign_{name}_golden.json",
        env!("CARGO_MANIFEST_DIR")
    )
}

/// Parses report text through the one report model.
fn parse(text: &str) -> Result<Report, String> {
    Report::from_json(&parse_json(text)?)
}

/// The report as `report.json` holds it.
fn render(report: &Report) -> String {
    report.to_json().render() + "\n"
}

/// One synthetic metric row: (name, n, mean, ci95).
type SynthMetric<'a> = (&'a str, u64, f64, f64);
/// One synthetic cell: (scheme, loss_ppm, metrics).
type SynthCell<'a> = (&'a str, u32, &'a [SynthMetric<'a>]);

/// A star:6 cell of `scheme` at `loss_ppm`, no fault, no attacker.
fn params(scheme: &str, loss_ppm: u32) -> CellParams {
    CellParams {
        scheme: scheme.into(),
        topology: "star:6".into(),
        loss_ppm,
        fault: "none".into(),
        attacker: "none".into(),
    }
}

/// Builds a small synthetic report: `cells` of (scheme, loss_ppm),
/// each metric from explicit (n, mean, ci95), its order statistics and
/// extrema at the mean.
fn synth_report(name: &str, cells: &[SynthCell]) -> Report {
    let cells = cells
        .iter()
        .map(|&(scheme, loss, metrics)| CellReport {
            params: params(scheme, loss),
            jobs: 3,
            outcomes: vec![("complete", 3)],
            metrics: metrics
                .iter()
                .map(|&(metric, n, mean, ci95)| {
                    let summary = MetricSummary {
                        n,
                        mean,
                        ci95,
                        p50: mean,
                        p95: mean,
                        min: mean,
                        max: mean,
                    };
                    (metric.to_string(), summary)
                })
                .collect(),
            failures: Vec::new(),
        })
        .collect::<Vec<_>>();
    Report {
        campaign: name.into(),
        jobs: cells.len() * 3,
        seeds: 3,
        cells,
    }
}

#[test]
fn committed_goldens_parse_and_rerender_byte_for_byte() {
    for name in ["smoke", "chaos", "attack"] {
        let text = std::fs::read_to_string(golden(name)).expect("golden reads");
        let report = parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(report.campaign, name);
        assert_eq!(render(&report), text, "{name} golden re-renders");
    }
}

#[test]
fn failures_and_all_nan_metrics_round_trip() {
    let mut report = synth_report("stalled", &[("lr-seluge", 900_000, &[])]);
    let nan = f64::NAN;
    let cell = &mut report.cells[0];
    cell.outcomes = vec![("complete", 1), ("stalled", 2)];
    cell.failures = vec![1, 2];
    cell.metrics.push((
        "latency_s".into(),
        MetricSummary {
            n: 0,
            mean: nan,
            ci95: 0.0,
            p50: nan,
            p95: nan,
            min: nan,
            max: nan,
        },
    ));
    let text = render(&report);
    assert!(text.contains("\"failures\":[1,2]"), "{text}");
    assert!(
        text.contains("\"latency_s\":{\"n\":0,\"mean\":null,\"ci95\":0,\"p50\":null"),
        "{text}"
    );
    let back = parse(&text).expect("rendered report parses");
    assert_eq!(render(&back), text);
    let cell = &back.cells[0];
    assert_eq!(
        (cell.outcome("stalled"), cell.failures.as_slice()),
        (2, &[1, 2][..])
    );
    assert!(cell.metric("latency_s").expect("metric").max.is_nan());
}

#[test]
fn golden_self_diff_is_clean() {
    for name in ["smoke", "chaos", "attack"] {
        let golden = Report::load(golden(name)).expect("golden loads");
        if name == "smoke" {
            assert_eq!(golden.cells.len(), 8, "smoke grid is 8 cells");
        }
        let diff = diff_reports(&golden, &golden, DEFAULT_ALPHA).unwrap();
        assert_eq!(diff.cells.len(), golden.cells.len(), "{name}");
        assert!(diff.a_only_cells.is_empty() && diff.b_only_cells.is_empty());
        assert_eq!(diff.significant(), 0, "{name}: self-diff must be clean");
        assert_eq!(diff.regressions(), 0, "{name}");
        for cell in &diff.cells {
            assert_eq!(cell.verdict, Verdict::NoChange, "{name}: {}", cell.key);
            for m in &cell.metrics {
                assert_eq!(m.delta, 0.0, "{name}: {}: {}", cell.key, m.name);
                if let Some(t) = &m.test {
                    assert_eq!(t.p, 1.0, "identical groups give p = 1");
                }
            }
        }
    }
}

#[test]
fn injected_perturbation_is_flagged_as_regression() {
    let golden = Report::load(golden("smoke")).expect("golden loads");
    let mut perturbed = golden.clone();
    // verify_inflation has zero variance in the golden's fault-free
    // cells, so any mean shift there yields p = 0 and survives BH
    // regardless of grid size — the same deterministic detection the
    // CI gate relies on. (In the crash cells rebooted nodes re-verify
    // what they lost from RAM, so the metric varies by seed.)
    let hit = perturbed.inject("verify_inflation", 1.25);
    assert_eq!(hit, 8, "every smoke cell carries verify_inflation");
    let diff = diff_reports(&golden, &perturbed, DEFAULT_ALPHA).unwrap();
    assert_eq!(
        diff.regressions(),
        7,
        "all but one crash cell is flagged; the other's seed spread hides a 25 % shift"
    );
    assert_eq!(diff.improvements(), 0);
    let mut constant = 0;
    for cell in &diff.cells {
        assert_ne!(cell.verdict, Verdict::Improvement, "{}", cell.key);
        let m = cell
            .metrics
            .iter()
            .find(|m| m.name == "verify_inflation")
            .unwrap();
        assert!(m.delta > 0.0);
        if m.a.ci95() == 0.0 {
            constant += 1;
            assert_eq!(cell.verdict, Verdict::Regression);
            assert!(m.significant && m.q == 0.0 && !m.ci_overlap);
        }
    }
    assert_eq!(constant, 4, "the four fault-free cells are seed-invariant");
    // The same shift downward on a lower-is-better metric is an
    // improvement, not a regression.
    let mut better = golden.clone();
    better.inject("verify_inflation", 0.8);
    let diff = diff_reports(&golden, &better, DEFAULT_ALPHA).unwrap();
    assert_eq!(diff.regressions(), 0);
    // A 20 % shift clears the seed spread of two of the four crash cells.
    assert_eq!(diff.improvements(), 6);
    for cell in &diff.cells {
        assert_ne!(cell.verdict, Verdict::Regression, "{}", cell.key);
    }
}

#[test]
fn polarity_flips_the_verdict_for_completion_metrics() {
    assert!(higher_is_better("completed"));
    assert!(!higher_is_better("latency_s"));
    let metrics_a: &[(&str, u64, f64, f64)] = &[("completed", 3, 1.0, 0.0)];
    let metrics_b: &[(&str, u64, f64, f64)] = &[("completed", 3, 0.5, 0.0)];
    let a = synth_report("a", &[("lr-seluge", 50_000, metrics_a)]);
    let b = synth_report("b", &[("lr-seluge", 50_000, metrics_b)]);
    // completed dropped: higher-is-better, so this is a regression.
    let diff = diff_reports(&a, &b, DEFAULT_ALPHA).unwrap();
    assert_eq!(diff.regressions(), 1);
    // And the reverse direction is an improvement.
    let diff = diff_reports(&b, &a, DEFAULT_ALPHA).unwrap();
    assert_eq!(diff.regressions(), 0);
    assert_eq!(diff.improvements(), 1);
}

#[test]
fn asymmetric_grids_diff_over_the_intersection() {
    let m: &[(&str, u64, f64, f64)] = &[("data_pkts", 3, 50.0, 4.0)];
    let a = synth_report("a", &[("lr-seluge", 50_000, m), ("lr-seluge", 200_000, m)]);
    let b = synth_report("b", &[("lr-seluge", 50_000, m), ("seluge", 50_000, m)]);
    let diff = diff_reports(&a, &b, DEFAULT_ALPHA).unwrap();
    assert_eq!(diff.cells.len(), 1, "only the shared cell pairs");
    assert_eq!(diff.cells[0].key.loss_ppm, 50_000);
    assert_eq!(diff.a_only_cells.len(), 1);
    assert_eq!(diff.a_only_cells[0].loss_ppm, 200_000);
    assert_eq!(diff.b_only_cells.len(), 1);
    assert_eq!(diff.b_only_cells[0].scheme, "seluge");
    assert_eq!(diff.significant(), 0);
}

#[test]
fn reports_with_different_metric_sets_pair_over_the_intersection() {
    // A report that carries nine of the twelve metrics (say, one
    // written before a metric was added) pairs with the golden over the
    // nine both carry.
    let nine: &[(&str, u64, f64, f64)] = &[
        ("page_data_pkts", 3, 40.0, 5.0),
        ("data_pkts", 3, 48.0, 6.0),
        ("snack_pkts", 3, 19.0, 1.0),
        ("adv_pkts", 3, 2.0, 1.0),
        ("total_bytes", 3, 4200.0, 300.0),
        ("latency_s", 3, 2.6, 0.4),
        ("completed", 3, 1.0, 0.0),
        ("sig_verifications", 3, 5.0, 0.0),
        ("auth_rejects", 3, 0.0, 0.0),
    ];
    let a = synth_report("nine", &[("lr-seluge", 50_000, nine)]);
    let a = parse(&render(&a)).expect("a nine-metric report parses");
    let b = Report::load(golden("smoke")).expect("golden loads");
    let diff = diff_reports(&a, &b, DEFAULT_ALPHA).unwrap();
    assert_eq!(diff.cells.len(), 1, "the one cell pairs");
    let cell = &diff.cells[0];
    assert_eq!(
        cell.metrics.len(),
        9,
        "intersection is the 9 shared metrics"
    );
    assert_eq!(
        cell.b_only_metrics,
        vec!["completion_frac", "verify_inflation", "energy_j"]
    );
    assert!(cell.a_only_metrics.is_empty());

    // Every metric summary carries its extrema: one without `min` or
    // `max` is refused, naming the metric.
    for field in ["min", "max"] {
        let text = render(&a).replace(&format!(",\"{field}\":40"), "");
        let err = parse(&text).unwrap_err();
        assert!(
            err.contains("\"page_data_pkts\"") && err.contains(&format!("\"{field}\"")),
            "got: {err}"
        );
    }
}

#[test]
fn mismatched_seed_counts_still_test() {
    // n = 3 vs n = 12 with a decisive shift: Welch handles unequal n
    // (and unequal variance) without any balancing assumption.
    let small: &[(&str, u64, f64, f64)] = &[("latency_s", 3, 2.0, 0.1)];
    let large: &[(&str, u64, f64, f64)] = &[("latency_s", 12, 8.0, 0.2)];
    let a = synth_report("a", &[("lr-seluge", 50_000, small)]);
    let b = synth_report("b", &[("lr-seluge", 50_000, large)]);
    let diff = diff_reports(&a, &b, DEFAULT_ALPHA).unwrap();
    let m = &diff.cells[0].metrics[0];
    assert_eq!((m.a.n, m.b.n), (3, 12));
    let t = m.test.as_ref().expect("both sides have n >= 2");
    assert!(t.p < 1e-6, "6-sigma shift is decisive, p = {}", t.p);
    assert_eq!(m.verdict, Verdict::Regression, "latency rose");
}

#[test]
fn single_seed_cells_are_untestable_not_errors() {
    let one: &[(&str, u64, f64, f64)] = &[("data_pkts", 1, 50.0, 0.0)];
    let three: &[(&str, u64, f64, f64)] = &[("data_pkts", 3, 90.0, 2.0)];
    let a = synth_report("a", &[("lr-seluge", 50_000, one)]);
    let b = synth_report("b", &[("lr-seluge", 50_000, three)]);
    let diff = diff_reports(&a, &b, DEFAULT_ALPHA).unwrap();
    let m = &diff.cells[0].metrics[0];
    assert!(m.test.is_none(), "n = 1 has no variance to test");
    assert!(!m.significant);
    assert_eq!(m.verdict, Verdict::NoChange);
    assert_eq!(diff.comparisons, 0, "untestable pairs stay out of BH's m");
    // The mean shift is still reported for the human table.
    assert_eq!(m.delta, 40.0);
}

#[test]
fn duplicate_cell_keys_are_rejected() {
    let m: &[(&str, u64, f64, f64)] = &[("data_pkts", 3, 50.0, 4.0)];
    // Two cells with identical params.
    let doc = synth_report("dup", &[("lr-seluge", 50_000, m), ("lr-seluge", 50_000, m)]);
    let err = parse(&render(&doc)).unwrap_err();
    assert!(err.contains("ambiguous"), "got: {err}");
}

#[test]
fn malformed_reports_are_typed_errors() {
    for (text, needle) in [
        ("[]", "campaign"),
        ("{\"campaign\":\"x\"}", "jobs"),
        ("{\"campaign\":\"x\",\"jobs\":1,\"seeds\":1}", "cells"),
        (
            "{\"campaign\":\"x\",\"jobs\":1,\"seeds\":1,\"cells\":[{}]}",
            "params",
        ),
    ] {
        let err = parse(text).unwrap_err();
        assert!(err.contains(needle), "{text}: got {err:?}");
    }
}

#[test]
fn stalled_cells_with_null_means_are_untestable() {
    // A metric whose every sample was non-finite renders as null; the
    // parser maps that to NaN, which must flow through as untestable
    // rather than poisoning BH or the verdicts.
    let text = "{\"campaign\":\"stalled\",\"jobs\":3,\"seeds\":3,\"cells\":[\
                {\"params\":{\"scheme\":\"lr-seluge\",\"topology\":\"star:6\",\
                \"loss_ppm\":900000,\"fault\":\"none\",\"attacker\":\"none\"},\
                \"jobs\":3,\"outcomes\":{\"stalled\":3},\"metrics\":{\
                \"latency_s\":{\"n\":3,\"mean\":null,\"ci95\":null,\"p50\":null,\"p95\":null,\
                \"min\":null,\"max\":null}}}]}";
    let doc = parse(text).unwrap();
    assert!(doc.cells[0].metrics[0].1.mean.is_nan());
    let diff = diff_reports(&doc, &doc, DEFAULT_ALPHA).unwrap();
    let m = &diff.cells[0].metrics[0];
    assert!(m.test.is_none(), "NaN means are untestable by policy");
    assert!(m.q.is_nan() && !m.significant);
    assert_eq!(m.verdict, Verdict::NoChange);
    assert_eq!(diff.significant(), 0);
}
