//! Cross-campaign statistical diff engine — the referee behind the
//! `campdiff` binary.
//!
//! The paper's entire argument is comparative, and so is every
//! regression question a protocol or performance change raises: given
//! two campaign `report.json` files, did any cell's metrics get
//! significantly better or worse? This module answers it with real
//! statistics instead of eyeballs:
//!
//! 1. **Read** both reports through the one report model
//!    ([`Report::load`]), which the campaign engine also writes.
//! 2. **Pair** cells by their parameters — scheme × topology × loss_ppm
//!    × fault × attacker ([`CellParams`]) — so asymmetric grids diff
//!    over their intersection and report the unpaired remainder instead
//!    of failing. Within a pair, metrics are matched by name and
//!    intersected, so reports whose metric sets differ still pair.
//! 3. **Test** each paired (cell × metric): variances are
//!    reconstructed from the rendered `(n, mean, ci95)` by inverting
//!    the shared t-table ([`SampleStats::from_ci95`]), then compared
//!    with Welch's t-test (mismatched seed counts are the normal
//!    case), Cohen's d, and the CI95-overlap check.
//! 4. **Control** the false-discovery rate across the whole
//!    cells × metrics grid with Benjamini–Hochberg adjusted p-values,
//!    so a 100-comparison diff at α = 0.05 doesn't cry wolf on ~5
//!    cells every run.
//! 5. **Judge** each significant difference against the metric's
//!    polarity ([`higher_is_better`]) to produce regression /
//!    improvement / no-change verdicts, a machine-readable JSON diff
//!    ([`DiffReport::to_json`]), and a human table
//!    ([`DiffReport::render`]).
//!
//! Identical inputs produce zero significant differences by
//! construction (every delta is 0, every p-value 1); CI self-diffs the
//! committed campaign goldens to pin that, and injects a synthetic
//! perturbation ([`Report::inject`]) to prove detection.

use crate::campaign::{CellReport, MetricSummary, Report};
use crate::json::Json;
use crate::spec::CellParams;
use lrs_analysis::{bh_adjusted_p, ci95_overlap, cohens_d, welch_t, SampleStats};
use std::collections::BTreeMap;

/// Default false-discovery rate for significance verdicts.
pub const DEFAULT_ALPHA: f64 = 0.05;

impl MetricSummary {
    /// The (n, mean, var) sufficient statistics, reconstructed by
    /// inverting the CI through the shared t-table.
    pub fn stats(&self) -> SampleStats {
        SampleStats::from_ci95(self.n, self.mean, self.ci95)
    }
}

impl Report {
    /// Multiplies `metric`'s mean (and order statistics, for internal
    /// consistency) by `factor` in every cell that carries it, leaving
    /// the spread untouched — the synthetic-regression injector the CI
    /// gate uses to prove the diff engine actually fires. Returns how
    /// many cells were perturbed.
    pub fn inject(&mut self, metric: &str, factor: f64) -> usize {
        let mut hit = 0;
        for cell in &mut self.cells {
            for (name, summary) in &mut cell.metrics {
                if name == metric {
                    summary.mean *= factor;
                    summary.p50 *= factor;
                    summary.p95 *= factor;
                    summary.min *= factor;
                    summary.max *= factor;
                    hit += 1;
                }
            }
        }
        hit
    }
}

/// Whether a larger mean of `metric` is the *good* direction. Traffic,
/// latency, energy, and verification-cost metrics all improve
/// downward; only the completion metrics improve upward.
pub fn higher_is_better(metric: &str) -> bool {
    matches!(metric, "completed" | "completion_frac")
}

/// Verdict on one comparison (or one cell, as the worst of its
/// metrics).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Verdict {
    /// No significant difference (or nothing testable).
    NoChange,
    /// Significant change in the metric's good direction.
    Improvement,
    /// Significant change in the metric's bad direction.
    Regression,
}

impl Verdict {
    /// Stable label for JSON and tables.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::NoChange => "no-change",
            Verdict::Improvement => "improvement",
            Verdict::Regression => "regression",
        }
    }
}

/// One paired (cell × metric) comparison.
#[derive(Clone, Debug)]
pub struct MetricDiff {
    /// Metric name.
    pub name: String,
    /// Baseline (report A) summary statistics.
    pub a: SampleStats,
    /// Candidate (report B) summary statistics.
    pub b: SampleStats,
    /// Mean shift, `b − a`.
    pub delta: f64,
    /// Welch test when both sides have n ≥ 2, else `None`
    /// (mismatched seed counts are fine; missing variance is not).
    pub test: Option<lrs_analysis::WelchTest>,
    /// Benjamini–Hochberg adjusted p-value across the whole diff.
    pub q: f64,
    /// Whether the two 95 % CIs overlap.
    pub ci_overlap: bool,
    /// Cohen's d effect size, signed like `delta` (candidate −
    /// baseline, so a positive d is an increase in B).
    pub effect: Option<f64>,
    /// Whether `q ≤ α`.
    pub significant: bool,
    /// Regression / improvement / no-change.
    pub verdict: Verdict,
}

/// One paired cell.
#[derive(Clone, Debug)]
pub struct CellDiff {
    /// The shared cell parameters.
    pub key: CellParams,
    /// Metric comparisons over the metric intersection.
    pub metrics: Vec<MetricDiff>,
    /// Metrics only report A carries (schema drift).
    pub a_only_metrics: Vec<String>,
    /// Metrics only report B carries.
    pub b_only_metrics: Vec<String>,
    /// Worst metric verdict.
    pub verdict: Verdict,
}

/// The full diff of two campaign reports.
#[derive(Clone, Debug)]
pub struct DiffReport {
    /// Report A's campaign name (the baseline).
    pub a_name: String,
    /// Report B's campaign name (the candidate).
    pub b_name: String,
    /// False-discovery rate the verdicts used.
    pub alpha: f64,
    /// Paired cells in canonical key order.
    pub cells: Vec<CellDiff>,
    /// Cells present only in report A.
    pub a_only_cells: Vec<CellParams>,
    /// Cells present only in report B.
    pub b_only_cells: Vec<CellParams>,
    /// Testable comparisons entered into the BH correction.
    pub comparisons: usize,
}

impl DiffReport {
    /// Comparisons judged significant at the configured FDR.
    pub fn significant(&self) -> usize {
        self.metric_diffs().filter(|m| m.significant).count()
    }

    /// Significant changes in the bad direction.
    pub fn regressions(&self) -> usize {
        self.metric_diffs()
            .filter(|m| m.verdict == Verdict::Regression)
            .count()
    }

    /// Significant changes in the good direction.
    pub fn improvements(&self) -> usize {
        self.metric_diffs()
            .filter(|m| m.verdict == Verdict::Improvement)
            .count()
    }

    fn metric_diffs(&self) -> impl Iterator<Item = &MetricDiff> {
        self.cells.iter().flat_map(|c| c.metrics.iter())
    }

    /// Machine-readable JSON diff.
    pub fn to_json(&self) -> Json {
        let cells = self
            .cells
            .iter()
            .map(|cell| {
                let metrics = cell
                    .metrics
                    .iter()
                    .map(|m| {
                        let mut fields = vec![
                            ("name".into(), Json::str(&m.name)),
                            ("n_a".into(), Json::num(m.a.n as f64)),
                            ("n_b".into(), Json::num(m.b.n as f64)),
                            ("mean_a".into(), Json::Num(m.a.mean)),
                            ("mean_b".into(), Json::Num(m.b.mean)),
                            ("delta".into(), Json::Num(m.delta)),
                        ];
                        if let Some(t) = &m.test {
                            fields.push(("t".into(), Json::Num(t.t)));
                            fields.push(("df".into(), Json::Num(t.df)));
                            fields.push(("p".into(), Json::Num(t.p)));
                        }
                        fields.push(("q".into(), Json::Num(m.q)));
                        if let Some(d) = m.effect {
                            fields.push(("cohens_d".into(), Json::Num(d)));
                        }
                        fields.push(("ci95_overlap".into(), Json::Bool(m.ci_overlap)));
                        fields.push(("significant".into(), Json::Bool(m.significant)));
                        fields.push(("verdict".into(), Json::str(m.verdict.label())));
                        Json::Obj(fields)
                    })
                    .collect();
                let mut fields = vec![
                    ("params".into(), cell.key.to_json()),
                    ("verdict".into(), Json::str(cell.verdict.label())),
                    ("metrics".into(), Json::Arr(metrics)),
                ];
                if !cell.a_only_metrics.is_empty() {
                    fields.push((
                        "a_only_metrics".into(),
                        Json::Arr(cell.a_only_metrics.iter().map(Json::str).collect()),
                    ));
                }
                if !cell.b_only_metrics.is_empty() {
                    fields.push((
                        "b_only_metrics".into(),
                        Json::Arr(cell.b_only_metrics.iter().map(Json::str).collect()),
                    ));
                }
                Json::Obj(fields)
            })
            .collect();
        Json::Obj(vec![
            (
                "campdiff".into(),
                Json::Obj(vec![
                    ("a".into(), Json::str(&self.a_name)),
                    ("b".into(), Json::str(&self.b_name)),
                    ("alpha".into(), Json::Num(self.alpha)),
                    ("comparisons".into(), Json::num(self.comparisons as f64)),
                    ("significant".into(), Json::num(self.significant() as f64)),
                    ("regressions".into(), Json::num(self.regressions() as f64)),
                    ("improvements".into(), Json::num(self.improvements() as f64)),
                ]),
            ),
            (
                "a_only_cells".into(),
                Json::Arr(self.a_only_cells.iter().map(CellParams::to_json).collect()),
            ),
            (
                "b_only_cells".into(),
                Json::Arr(self.b_only_cells.iter().map(CellParams::to_json).collect()),
            ),
            ("cells".into(), Json::Arr(cells)),
        ])
    }

    /// Human-readable diff: one row per *significant* comparison (a
    /// clean diff prints only the summary line), then the pairing
    /// footer.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let mut table = crate::table::Table::new(vec![
            "cell", "metric", "mean A", "mean B", "Δ%", "q", "d", "CIs", "verdict",
        ]);
        let mut rows = 0;
        for cell in &self.cells {
            for m in cell.metrics.iter().filter(|m| m.significant) {
                let pct = if m.a.mean != 0.0 {
                    format!("{:+.1}%", 100.0 * m.delta / m.a.mean)
                } else {
                    "n/a".to_string()
                };
                table.row(vec![
                    cell.key.to_string(),
                    m.name.clone(),
                    format!("{:.4}", m.a.mean),
                    format!("{:.4}", m.b.mean),
                    pct,
                    format!("{:.2e}", m.q),
                    m.effect.map_or("n/a".into(), |d| format!("{d:+.2}")),
                    if m.ci_overlap { "overlap" } else { "disjoint" }.to_string(),
                    m.verdict.label().to_string(),
                ]);
                rows += 1;
            }
        }
        if rows > 0 {
            out.push_str(&table.render());
            out.push('\n');
        }
        out.push_str(&format!(
            "campdiff {} vs {}: {} paired cells ({} A-only, {} B-only), \
             {} comparisons, {} significant at FDR {} — {} regressions, {} improvements\n",
            self.a_name,
            self.b_name,
            self.cells.len(),
            self.a_only_cells.len(),
            self.b_only_cells.len(),
            self.comparisons,
            self.significant(),
            self.alpha,
            self.regressions(),
            self.improvements(),
        ));
        out
    }
}

/// Diffs two reports: pairs cells by [`CellParams`], tests every
/// paired metric, and applies Benjamini–Hochberg across the whole grid
/// at FDR `alpha`.
pub fn diff_reports(a: &Report, b: &Report, alpha: f64) -> Result<DiffReport, String> {
    if !(alpha > 0.0 && alpha < 1.0) {
        return Err(format!("alpha {alpha} out of (0, 1)"));
    }
    fn index(report: &Report) -> BTreeMap<&CellParams, &CellReport> {
        report.cells.iter().map(|c| (&c.params, c)).collect()
    }
    let (ia, ib) = (index(a), index(b));
    let mut cells = Vec::new();
    let mut a_only = Vec::new();
    let b_only = ib.keys().filter(|k| !ia.contains_key(*k));
    let b_only = b_only.map(|&k| k.clone()).collect();

    // First pass: build every comparison with its raw p-value.
    let mut pvalues = Vec::new();
    for (&key, ca) in &ia {
        let Some(cb) = ib.get(key) else {
            a_only.push(key.clone());
            continue;
        };
        let mut metrics = Vec::new();
        let mut a_only_metrics = Vec::new();
        for (name, ma) in &ca.metrics {
            let Some(mb) = cb.metric(name) else {
                a_only_metrics.push(name.clone());
                continue;
            };
            let (sa, sb) = (ma.stats(), mb.stats());
            // An all-stalled cell renders null means (NaN here); that
            // is "nothing to test", not a zero-variance certain shift.
            let test = if sa.mean.is_finite() && sb.mean.is_finite() {
                welch_t(sa, sb)
            } else {
                None
            };
            pvalues.push(test.map_or(f64::NAN, |t| t.p));
            metrics.push(MetricDiff {
                name: name.clone(),
                a: sa,
                b: sb,
                delta: sb.mean - sa.mean,
                test,
                q: f64::NAN,
                ci_overlap: ci95_overlap(sa, sb),
                // d(b, a) so the sign matches delta = b − a.
                effect: cohens_d(sb, sa),
                significant: false,
                verdict: Verdict::NoChange,
            });
        }
        let b_only_metrics = cb
            .metrics
            .iter()
            .map(|(n, _)| n.clone())
            .filter(|n| ca.metric(n).is_none())
            .collect();
        cells.push(CellDiff {
            key: key.clone(),
            metrics,
            a_only_metrics,
            b_only_metrics,
            verdict: Verdict::NoChange,
        });
    }

    // Second pass: BH-adjust across the entire grid, then judge.
    let comparisons = pvalues.iter().filter(|p| p.is_finite()).count();
    let q = bh_adjusted_p(&pvalues);
    let mut qi = 0;
    for cell in &mut cells {
        for m in &mut cell.metrics {
            m.q = q[qi];
            qi += 1;
            m.significant = m.q.is_finite() && m.q <= alpha;
            m.verdict = if !m.significant {
                Verdict::NoChange
            } else {
                let worse = if higher_is_better(&m.name) {
                    m.delta < 0.0
                } else {
                    m.delta > 0.0
                };
                if worse {
                    Verdict::Regression
                } else {
                    Verdict::Improvement
                }
            };
        }
        cell.verdict = cell
            .metrics
            .iter()
            .map(|m| m.verdict)
            .max()
            .unwrap_or(Verdict::NoChange);
    }

    Ok(DiffReport {
        a_name: a.campaign.clone(),
        b_name: b.campaign.clone(),
        alpha,
        cells,
        a_only_cells: a_only,
        b_only_cells: b_only,
        comparisons,
    })
}

/// Compile-time tie to the current metric schema: `higher_is_better`
/// must know every live metric; a new metric added to
/// [`ExperimentMetrics::NAMES`] without a polarity decision should
/// fail this, not silently default.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::ExperimentMetrics;

    #[test]
    fn every_live_metric_has_a_polarity() {
        // Exhaustive: lower-is-better is the default, so this test is
        // the reviewed list of exceptions. Touch it when NAMES changes.
        let higher: Vec<&str> = ExperimentMetrics::NAMES
            .iter()
            .copied()
            .filter(|m| higher_is_better(m))
            .collect();
        assert_eq!(higher, vec!["completed", "completion_frac"]);
    }
}
