//! Printing and persisting results: the human tables, the per-process
//! detail files under `benchmark/out/`, the driver's result line, the
//! assembled `result.json`, and the `--check-repeat` comparison.

use crate::measure::{EndToEndRun, PerLayerRun};
use crate::names::{per_layer as per_layer_entry, Better, END_TO_END, PER_LAYER};
use crate::proc::cpu_model;
use crate::span::{Recorder, SpanName};
use crate::stats::{iqr_share, median, quartiles};
use crate::workloads::Workload;
use lrs_bench::{parse_json, Json};
use std::fs;
use std::path::Path;

fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn nums(values: &[f64]) -> Json {
    Json::Arr(values.iter().map(|v| Json::Num(*v)).collect())
}

/// The machine the numbers were taken on.
pub fn hardware() -> Json {
    obj(vec![
        (
            "nproc",
            Json::Num(std::thread::available_parallelism().map_or(1, |n| n.get()) as f64),
        ),
        ("cpu_model", Json::str(cpu_model())),
        (
            "erasure_kernel",
            Json::str(lrs_erasure::kernel::Kernel::active().name()),
        ),
        (
            "crypto_kernel",
            Json::str(lrs_crypto::ShaKernel::active().name()),
        ),
    ])
}

/// The driver's result line: exactly `correct`, `attempted`, `failed`
/// and `metrics`, each metric a `{value, unit}` pair.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&'static str, f64)],
    unit_of: impl Fn(&str) -> &'static str,
) -> String {
    let metrics = metrics
        .iter()
        .map(|(name, value)| {
            (
                name.to_string(),
                obj(vec![
                    ("value", Json::Num(*value)),
                    ("unit", Json::str(unit_of(name))),
                ]),
            )
        })
        .collect();
    obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ])
    .render()
}

/// Unit of an end-to-end metric.
pub fn end_to_end_unit(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .find(|e| e.name == name)
        .map_or("", |e| e.unit)
}

/// Unit of a per-layer metric.
pub fn per_layer_unit(name: &str) -> &'static str {
    per_layer_entry(name).map_or("", |p| p.unit)
}

fn write(path: &Path, value: &Json) {
    if let Some(dir) = path.parent() {
        fs::create_dir_all(dir).unwrap_or_else(|e| panic!("create {}: {e}", dir.display()));
    }
    let mut text = value.render();
    text.push('\n');
    fs::write(path, text).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
}

fn read(path: &Path) -> Json {
    let text = fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    parse_json(&text).unwrap_or_else(|e| panic!("parse {}: {e}", path.display()))
}

/// Prints the end-to-end table of one workload.
pub fn print_end_to_end(workload: Workload, seed: u64, run: &EndToEndRun, comparable: bool) {
    println!(
        "== {} end to end (seed {seed}, R = {} repetitions, {} set-ups{})",
        workload.name(),
        run.reps.len(),
        run.setups_s.len(),
        if comparable {
            ""
        } else {
            ", --quick: NOT comparable"
        }
    );
    for (name, value) in run.metrics() {
        println!("  {name:<22} {value:>14.6} {}", end_to_end_unit(name));
    }
    let walls: Vec<f64> = run.reps.iter().map(|r| r.wall_s).collect();
    let (q1, q3) = quartiles(&walls);
    println!(
        "  wall_s repetitions      {:?}  (quartiles {q1:.4} .. {q3:.4}, spread {:.1} % of the median)",
        walls
            .iter()
            .map(|w| (w * 1e4).round() / 1e4)
            .collect::<Vec<_>>(),
        100.0 * iqr_share(&walls)
    );
    let failed = run.failed();
    let attempted = run.attempted();
    println!(
        "  ops_attempted {attempted}  ops_failed {failed}  fail_frac {}  disturbed_reps {}  deterministic {}",
        failed as f64 / attempted.max(1) as f64,
        run.disturbed_reps,
        run.deterministic
    );
}

/// The detail record of one end-to-end process.
pub fn end_to_end_json(
    workload: Workload,
    seed: u64,
    seconds: f64,
    comparable: bool,
    run: &EndToEndRun,
) -> Json {
    let walls: Vec<f64> = run.reps.iter().map(|r| r.wall_s).collect();
    let cpus: Vec<f64> = run.reps.iter().map(|r| r.cpu_s).collect();
    let spread = |samples: &[f64]| {
        let (q1, q3) = quartiles(samples);
        obj(vec![
            ("median", Json::Num(median(samples))),
            ("q1", Json::Num(q1)),
            ("q3", Json::Num(q3)),
            ("samples", nums(samples)),
        ])
    };
    let metrics = run
        .metrics()
        .into_iter()
        .map(|(name, value)| {
            (
                name.to_string(),
                obj(vec![
                    ("value", Json::Num(value)),
                    ("unit", Json::str(end_to_end_unit(name))),
                ]),
            )
        })
        .collect();
    let attempted = run.attempted();
    obj(vec![
        ("workload", Json::str(workload.name())),
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(seconds)),
        ("comparable", Json::Bool(comparable)),
        ("repetitions", Json::Num(run.reps.len() as f64)),
        ("metrics", Json::Obj(metrics)),
        ("wall_s", spread(&walls)),
        ("cpu_s", spread(&cpus)),
        ("setup_s", spread(&run.setups_s)),
        (
            "disturbed",
            Json::Arr(run.reps.iter().map(|r| Json::Bool(r.disturbed)).collect()),
        ),
        ("disturbed_reps", Json::Num(run.disturbed_reps as f64)),
        ("ops_attempted", Json::Num(attempted as f64)),
        ("ops_failed", Json::Num(run.failed() as f64)),
        (
            "fail_frac",
            Json::Num(run.failed() as f64 / attempted.max(1) as f64),
        ),
        ("deterministic", Json::Bool(run.deterministic)),
    ])
}

/// Writes the end-to-end detail file.
pub fn write_end_to_end(out_dir: &Path, workload: Workload, record: &Json) {
    write(
        &out_dir.join(format!("{}.e2e.json", workload.name())),
        record,
    );
}

/// Prints the traced table of one workload: one row per
/// `(span, parent)` of the traced body, self times summing to the
/// traced wall, then the per-layer shares and every per-layer metric.
pub fn print_per_layer(workload: Workload, seed: u64, run: &PerLayerRun) {
    println!(
        "== {} per layer (seed {seed}, one traced repetition)",
        workload.name()
    );
    print_span_table(&run.recorder);
    println!(
        "  untraced wall {:.4} s   traced wall {:.4} s   netsim.trace.overhead_frac {:.4}",
        run.reference_wall_s,
        run.traced_wall_s,
        (run.traced_wall_s - run.reference_wall_s) / run.reference_wall_s
    );
    for (name, value) in &run.metrics {
        let kind = per_layer_entry(name).map_or("", |p| p.kind.label());
        println!(
            "  {name:<38} {value:>16.6} {:<6} [{kind}]",
            per_layer_unit(name)
        );
    }
    println!(
        "  sim_digest {}   erasure.kernel {}   crypto.kernel {}",
        run.sim_digest, run.erasure_kernel, run.crypto_kernel
    );
    for (check, ok) in &run.checks {
        println!("  check {check:<40} {}", if *ok { "ok" } else { "FAILED" });
    }
}

fn print_span_table(rec: &Recorder) {
    let body_ns = rec.total(SpanName::Body).total_ns.max(1) as f64;
    println!(
        "  {:<30} {:<26} {:>10} {:>11} {:>11} {:>7}",
        "span", "parent", "count", "total_s", "self_s", "self %"
    );
    let mut layer_self: Vec<(&'static str, u64)> = Vec::new();
    let mut in_setup = Vec::new();
    for (name, parent, agg) in rec.rows() {
        if name == SpanName::Setup || parent == Some(SpanName::Setup) {
            in_setup.push((name, agg));
            continue;
        }
        println!(
            "  {:<30} {:<26} {:>10} {:>11.6} {:>11.6} {:>7.2}",
            name.label(),
            parent.map_or("-", SpanName::label),
            agg.count,
            agg.total_ns as f64 / 1e9,
            agg.self_ns() as f64 / 1e9,
            100.0 * agg.self_ns() as f64 / body_ns
        );
        match layer_self.iter_mut().find(|(l, _)| *l == name.layer()) {
            Some((_, ns)) => *ns += agg.self_ns(),
            None => layer_self.push((name.layer(), agg.self_ns())),
        }
    }
    let total: u64 = layer_self.iter().map(|(_, ns)| ns).sum();
    println!(
        "  self times sum to {:.6} s of a {:.6} s traced body; shares by layer:",
        total as f64 / 1e9,
        body_ns / 1e9
    );
    for (layer, ns) in &layer_self {
        println!("    {layer:<8} {:>6.2} %", 100.0 * *ns as f64 / body_ns);
    }
    for (name, agg) in in_setup {
        println!(
            "  set-up: {:<30} {:>11.6} s",
            name.label(),
            agg.total_ns as f64 / 1e9
        );
    }
}

/// The detail record of one per-layer process.
pub fn per_layer_json(workload: Workload, seed: u64, run: &PerLayerRun) -> Json {
    let metrics = run
        .metrics
        .iter()
        .map(|(name, value)| {
            let entry = per_layer_entry(name).expect("metric is registered");
            (
                name.to_string(),
                obj(vec![
                    ("value", Json::Num(*value)),
                    ("unit", Json::str(entry.unit)),
                    ("kind", Json::str(entry.kind.label())),
                ]),
            )
        })
        .collect();
    obj(vec![
        ("workload", Json::str(workload.name())),
        ("seed", Json::Num(seed as f64)),
        ("metrics", Json::Obj(metrics)),
        ("sim_digest", Json::str(run.sim_digest.clone())),
        ("erasure_kernel", Json::str(run.erasure_kernel)),
        ("crypto_kernel", Json::str(run.crypto_kernel)),
        ("reference_wall_s", Json::Num(run.reference_wall_s)),
        ("traced_wall_s", Json::Num(run.traced_wall_s)),
        ("ops_attempted", Json::Num(run.attempted as f64)),
        ("ops_failed", Json::Num(run.failed as f64)),
        (
            "checks",
            Json::Obj(
                run.checks
                    .iter()
                    .map(|(name, ok)| (name.to_string(), Json::Bool(*ok)))
                    .collect(),
            ),
        ),
    ])
}

/// Writes the per-layer detail file and the span trace.
pub fn write_per_layer(out_dir: &Path, workload: Workload, record: &Json, rec: &Recorder) {
    write(
        &out_dir.join(format!("{}.layers.json", workload.name())),
        record,
    );
    write(
        &out_dir.join(format!("trace-{}.json", workload.name())),
        &rec.to_json(),
    );
}

/// Assembles `result.json` from the detail files the workload
/// processes left in `out_dir`.
pub fn assemble(
    out_dir: &Path,
    workloads: &[Workload],
    seed: u64,
    seconds: f64,
    comparable: bool,
) -> Json {
    let records = workloads
        .iter()
        .map(|w| {
            obj(vec![
                ("name", Json::str(w.name())),
                (
                    "end_to_end",
                    read(&out_dir.join(format!("{}.e2e.json", w.name()))),
                ),
                (
                    "per_layer",
                    read(&out_dir.join(format!("{}.layers.json", w.name()))),
                ),
            ])
        })
        .collect();
    let glossary = obj(vec![
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|e| {
                        obj(vec![
                            ("name", Json::str(e.name)),
                            ("unit", Json::str(e.unit)),
                            ("better", Json::str(e.better.label())),
                            ("bound", Json::Num(e.bound)),
                            ("definition", Json::str(e.definition)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|p| {
                        obj(vec![
                            ("name", Json::str(p.name)),
                            ("unit", Json::str(p.unit)),
                            ("better", Json::str(p.better.label())),
                            ("kind", Json::str(p.kind.label())),
                            ("moves", Json::str(p.moves)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    let result = obj(vec![
        ("benchmark", Json::str("lrs-ledger")),
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(seconds)),
        ("comparable", Json::Bool(comparable)),
        ("hardware", hardware()),
        ("workloads", Json::Arr(records)),
        ("glossary", glossary),
    ]);
    write(&out_dir.join("result.json"), &result);
    result
}

fn metric_value(record: &Json, section: &str, name: &str) -> Option<f64> {
    record
        .get(section)?
        .get("metrics")?
        .get(name)?
        .get("value")?
        .as_num()
}

/// Compares two complete results of one commit. Returns one line per
/// disagreement: an end-to-end metric of the second run worse than the
/// first by more than its bound, an exact (`count`/`sim`) per-layer
/// metric or `sim_digest` that differs, or any failed operation.
pub fn compare(first: &Json, second: &Json) -> Vec<String> {
    let mut problems = Vec::new();
    let empty: &[Json] = &[];
    let a = first
        .get("workloads")
        .and_then(Json::as_arr)
        .unwrap_or(empty);
    let b = second
        .get("workloads")
        .and_then(Json::as_arr)
        .unwrap_or(empty);
    if a.len() != b.len() || a.is_empty() {
        problems.push(format!("workload lists differ: {} vs {}", a.len(), b.len()));
        return problems;
    }
    for (wa, wb) in a.iter().zip(b) {
        let name = wa.get("name").and_then(Json::as_str).unwrap_or("?");
        for e in END_TO_END {
            let (Some(x), Some(y)) = (
                metric_value(wa, "end_to_end", e.name),
                metric_value(wb, "end_to_end", e.name),
            ) else {
                problems.push(format!("{name}: {} missing", e.name));
                continue;
            };
            let worse = match e.better {
                Better::Lower => (y - x) / x,
                Better::Higher => (x - y) / x,
            };
            let verdict = if worse > e.bound { "OUTSIDE" } else { "within" };
            println!(
                "  {name:<18} {:<20} {x:>14.6} -> {y:>14.6}  {:+.2} % ({verdict} bound {:.0} %)",
                e.name,
                100.0 * worse,
                100.0 * e.bound
            );
            if worse > e.bound {
                problems.push(format!(
                    "{name}: {} worsened {:.1} % (bound {:.0} %)",
                    e.name,
                    100.0 * worse,
                    100.0 * e.bound
                ));
            }
        }
        for p in PER_LAYER.iter().filter(|p| p.kind.is_exact()) {
            let x = metric_value(wa, "per_layer", p.name);
            let y = metric_value(wb, "per_layer", p.name);
            if x.is_none() || x.map(f64::to_bits) != y.map(f64::to_bits) {
                problems.push(format!("{name}: {} differs: {x:?} vs {y:?}", p.name));
            }
        }
        let digest = |w: &Json| {
            w.get("per_layer")
                .and_then(|l| l.get("sim_digest"))
                .and_then(Json::as_str)
                .map(str::to_string)
        };
        if digest(wa).is_none() || digest(wa) != digest(wb) {
            problems.push(format!("{name}: sim_digest differs"));
        }
        for w in [wa, wb] {
            for section in ["end_to_end", "per_layer"] {
                let failed = w
                    .get(section)
                    .and_then(|s| s.get("ops_failed"))
                    .and_then(Json::as_num);
                if failed != Some(0.0) {
                    problems.push(format!("{name}: {section} ops_failed = {failed:?}"));
                }
            }
        }
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::Rep;
    use crate::workloads::BodyOut;

    fn fake_run() -> EndToEndRun {
        let rep = |wall_s: f64| Rep {
            wall_s,
            cpu_s: wall_s - 0.01,
            disturbed: false,
            out: BodyOut {
                attempted: 10,
                failed: 0,
                kib: 64.0,
                ..BodyOut::default()
            },
        };
        EndToEndRun {
            setups_s: vec![0.011, 0.010, 0.012],
            reps: vec![rep(2.0), rep(2.2), rep(2.1)],
            disturbed_reps: 1,
            peak_rss_mib: 12.5,
            deterministic: true,
        }
    }

    fn fake_result(wall_scale: f64, events: f64, digest: &str) -> Json {
        let mut e2e = end_to_end_json(Workload::NodeIngest, 1, 1.0, true, &fake_run());
        if let Json::Obj(fields) = &mut e2e {
            for (key, value) in fields.iter_mut() {
                if key == "metrics" {
                    if let Json::Obj(metrics) = value {
                        for (name, m) in metrics.iter_mut() {
                            if name == "wall_s" {
                                *m = obj(vec![
                                    ("value", Json::Num(2.1 * wall_scale)),
                                    ("unit", Json::str("s")),
                                ]);
                            }
                        }
                    }
                }
            }
        }
        let layer_metrics = PER_LAYER
            .iter()
            .map(|p| {
                let v = if p.name == "netsim.events" {
                    events
                } else {
                    1.0
                };
                (
                    p.name.to_string(),
                    obj(vec![("value", Json::Num(v)), ("unit", Json::str(p.unit))]),
                )
            })
            .collect();
        let layers = obj(vec![
            ("metrics", Json::Obj(layer_metrics)),
            ("sim_digest", Json::str(digest)),
            ("ops_failed", Json::Num(0.0)),
        ]);
        obj(vec![(
            "workloads",
            Json::Arr(vec![obj(vec![
                ("name", Json::str("node_ingest")),
                ("end_to_end", e2e),
                ("per_layer", layers),
            ])]),
        )])
    }

    #[test]
    fn result_json_round_trips_through_the_repo_parser() {
        let record = end_to_end_json(Workload::GridDenseLr, 7, 18.0, true, &fake_run());
        let parsed = parse_json(&record.render()).expect("detail record parses");
        assert_eq!(parsed, record);
        assert_eq!(
            parsed.get("workload").and_then(Json::as_str),
            Some("grid_dense_lr")
        );
        assert_eq!(
            metric_value(
                &obj(vec![("end_to_end", parsed.clone())]),
                "end_to_end",
                "wall_s"
            ),
            Some(2.1)
        );
        assert_eq!(parsed.get("repetitions").and_then(Json::as_num), Some(3.0));
        let samples = parsed
            .get("wall_s")
            .and_then(|w| w.get("samples"))
            .and_then(Json::as_arr)
            .expect("raw repetitions are kept");
        assert_eq!(samples.len(), 3);
        // The hardware block and a whole assembled result parse too.
        let whole = fake_result(1.0, 5.0, "abc");
        assert_eq!(parse_json(&whole.render()).expect("parses"), whole);
        assert_eq!(
            parse_json(&hardware().render()).expect("parses"),
            hardware()
        );
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_line(true, 12, 0, &fake_run().metrics(), end_to_end_unit);
        let parsed = parse_json(&line).expect("result line parses");
        let Json::Obj(fields) = &parsed else {
            panic!("result line is an object");
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let Some(Json::Obj(metrics)) = parsed.get("metrics") else {
            panic!("metrics is an object");
        };
        let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        let expected: Vec<&str> = END_TO_END.iter().map(|e| e.name).collect();
        assert_eq!(names, expected);
        assert_eq!(
            parsed
                .get("metrics")
                .and_then(|m| m.get("goodput_kib_per_s"))
                .and_then(|m| m.get("unit"))
                .and_then(Json::as_str),
            Some("KiB/s")
        );
        assert!(!line.contains('\n'));
    }

    #[test]
    fn compare_accepts_a_faithful_repeat_and_rejects_drift() {
        let base = fake_result(1.0, 5.0, "abc");
        assert!(compare(&base, &base).is_empty());
        // 10 % slower is inside wall_s's bound, 30 % is not.
        assert!(compare(&base, &fake_result(1.10, 5.0, "abc")).is_empty());
        let slow = compare(&base, &fake_result(1.30, 5.0, "abc"));
        assert!(slow.iter().any(|p| p.contains("wall_s")), "{slow:?}");
        // A count that moves, or a digest that moves, is a disagreement.
        let counts = compare(&base, &fake_result(1.0, 6.0, "abc"));
        assert!(
            counts.iter().any(|p| p.contains("netsim.events")),
            "{counts:?}"
        );
        let digest = compare(&base, &fake_result(1.0, 5.0, "abd"));
        assert!(
            digest.iter().any(|p| p.contains("sim_digest")),
            "{digest:?}"
        );
    }
}
