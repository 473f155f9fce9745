//! Flight-recorder capture format.
//!
//! A [`Capsule`] records everything needed to re-execute a simulation
//! run bit-identically: the seed (from which every per-node RNG stream
//! is derived), the full [`SimConfig`], the exact topology (positions
//! *and* the sampled link table, so no link model is resampled on
//! replay), the complete fault schedule, free-form scenario tags that
//! let tooling reconstruct the protocol under test, and the run digest
//! ([`RunDigest`]) that replay must reproduce.
//!
//! The one encoding is JSONL: the repo's one-object-per-line dialect
//! (see `trace.rs`/`fault.rs`), extended with `capsule*` event labels
//! and read and written through `lrs-json`. Human-greppable,
//! diff-friendly.
//!
//! Floating-point fields (positions, PRRs, loss probabilities) are
//! stored as IEEE-754 bit patterns (`f64::to_bits`) so a round trip is
//! exact — a capsule that re-derives even one PRR differently would
//! silently break bit-identical replay.

use crate::fault::{FaultEvent, FaultPlan};
use crate::metrics::Metrics;
use crate::noise::{BurstyNoise, NoiseModel};
use crate::sim::{Outcome, RunReport, SimConfig};
use crate::topology::{Link, Position, Topology};
use crate::trace::TraceDigest;
use lrs_host::node::NodeId;
use lrs_host::time::{Duration, SimTime};
use lrs_host::violation::ContentDigest;
use lrs_json::{parse_json, Json, ObjWriter};
use std::fmt;
use std::io;
use std::path::Path;

/// Capture-format version, written in the header line; the reader
/// accepts this version only.
pub const CAPSULE_VERSION: u64 = 2;

/// Condensed identity of a finished run: what replay must reproduce.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunDigest {
    /// [`Outcome::label`] of the run.
    pub outcome: String,
    /// Virtual time when the run stopped.
    pub final_time: SimTime,
    /// Number of trace events digested (0 when the trace was not
    /// collected).
    pub events: u64,
    /// FNV-1a over every trace line (newline-terminated), or
    /// [`ContentDigest::MISSING`] when the trace was not collected.
    pub trace: ContentDigest,
    /// FNV-1a over the canonical metrics JSON line.
    pub metrics: ContentDigest,
}

impl RunDigest {
    /// Digests a finished run from its report, its metrics, and the
    /// [`TraceDigest`] sink that watched it.
    pub fn compute(report: &RunReport, metrics: &Metrics, trace: &TraceDigest) -> Self {
        RunDigest {
            outcome: report.outcome.label().to_string(),
            final_time: report.final_time,
            events: trace.events(),
            trace: trace.digest(),
            metrics: Self::metrics_digest(report.final_time, metrics),
        }
    }

    /// Digest of a run whose trace was not collected (a harness's
    /// failure dump): outcome, final time, and metrics only; the trace
    /// digest is `MISSING`.
    pub fn metrics_only(outcome: Outcome, final_time: SimTime, metrics: &Metrics) -> Self {
        RunDigest {
            outcome: outcome.label().to_string(),
            final_time,
            events: 0,
            trace: ContentDigest::MISSING,
            metrics: Self::metrics_digest(final_time, metrics),
        }
    }

    fn metrics_digest(final_time: SimTime, metrics: &Metrics) -> ContentDigest {
        ContentDigest::of(metrics.to_trace_json(final_time).as_bytes())
    }
}

/// Everything needed to re-execute a run bit-identically.
#[derive(Clone, Debug, PartialEq)]
pub struct Capsule {
    /// The run seed; every RNG stream derives from it.
    pub seed: u64,
    /// The deadline the run was started with.
    pub deadline: Duration,
    /// Full simulation configuration (radio, noise, watchdog).
    pub config: SimConfig,
    /// Exact topology, including the sampled per-link PRR table.
    pub topology: Topology,
    /// The complete fault schedule.
    pub faults: FaultPlan,
    /// Free-form key/value tags describing how to reconstruct the
    /// protocol under test (scheme name, image length, params, …).
    pub scenario: Vec<(String, String)>,
    /// The recorded run digest, if the scenario has been executed.
    pub digest: Option<RunDigest>,
}

/// Errors loading or parsing a capsule.
#[derive(Debug)]
pub enum CapsuleError {
    /// File-system error while loading.
    Io(io::Error),
    /// The file is not UTF-8 text.
    NotUtf8,
    /// The capsule names a format version this reader does not know.
    UnsupportedVersion(u64),
    /// A JSONL line failed to parse.
    Malformed {
        /// 1-based line number.
        line: usize,
        /// What was wrong.
        reason: String,
    },
}

impl fmt::Display for CapsuleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CapsuleError::Io(err) => write!(f, "capsule I/O error: {err}"),
            CapsuleError::NotUtf8 => write!(f, "capsule is not UTF-8 text"),
            CapsuleError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "capsule version {v} is not the supported {CAPSULE_VERSION}"
                )
            }
            CapsuleError::Malformed { line, reason } => {
                write!(f, "malformed capsule line {line}: {reason}")
            }
        }
    }
}

impl std::error::Error for CapsuleError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CapsuleError::Io(err) => Some(err),
            _ => None,
        }
    }
}

impl From<io::Error> for CapsuleError {
    fn from(err: io::Error) -> Self {
        CapsuleError::Io(err)
    }
}

impl Capsule {
    /// Looks up a scenario tag by key.
    pub fn scenario_value(&self, key: &str) -> Option<&str> {
        self.scenario
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Renders the capsule as JSON Lines (trailing newline included).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        let mut push = |line: String| {
            out.push_str(&line);
            out.push('\n');
        };
        let line = |ev: &str| ObjWriter::new().str("ev", ev);
        push(
            line("capsule")
                .uint("version", CAPSULE_VERSION)
                .uint("seed", self.seed)
                .uint("deadline_us", self.deadline.as_micros())
                .finish(),
        );
        let medium = &self.config.medium;
        let mut config = line("capsule_config")
            .uint("us_per_byte", medium.us_per_byte)
            .uint("overhead_us", medium.per_packet_overhead_us)
            .uint("max_backoff_us", medium.max_backoff_us)
            .uint("csma", u8::from(medium.csma))
            .uint("collisions", u8::from(medium.collisions))
            .uint("app_loss_bits", medium.app_loss.to_bits());
        if let Some(window) = self.config.stall_window {
            config = config.uint("stall_window_us", window.as_micros());
        }
        if let NoiseModel::Bursty(noise) = medium.noise {
            config = config
                .str("noise", "bursty")
                .uint("noise_quiet_us", noise.mean_quiet_us)
                .uint("noise_noisy_us", noise.mean_noisy_us)
                .uint("noise_factor_bits", noise.noisy_prr_factor.to_bits());
        }
        push(config.finish());
        for (i, position) in self.topology.positions().iter().enumerate() {
            push(
                line("capsule_node")
                    .uint("node", i)
                    .uint("x_bits", position.x.to_bits())
                    .uint("y_bits", position.y.to_bits())
                    .finish(),
            );
        }
        for from in 0..self.topology.len() {
            for link in self.topology.links_from(NodeId(from as u32)) {
                push(
                    line("capsule_link")
                        .uint("from", from)
                        .uint("to", link.to.0)
                        .uint("prr_bits", link.prr.to_bits())
                        .finish(),
                );
            }
        }
        for (key, value) in &self.scenario {
            push(
                line("capsule_scenario")
                    .str("key", key)
                    .str("value", value)
                    .finish(),
            );
        }
        for event in self.faults.events() {
            push(event.to_json());
        }
        if let Some(digest) = &self.digest {
            push(
                line("capsule_digest")
                    .str("outcome", &digest.outcome)
                    .uint("final_time", digest.final_time.as_micros())
                    .uint("events", digest.events)
                    .str("trace", &digest.trace.to_string())
                    .str("metrics", &digest.metrics.to_string())
                    .finish(),
            );
        }
        out
    }

    /// Parses the JSONL encoding. Every line is parsed as one JSON
    /// object and every integer is narrowed with a checked conversion;
    /// what fails names its 1-based line.
    pub fn from_jsonl(text: &str) -> Result<Self, CapsuleError> {
        let mal = |line: usize, reason: String| CapsuleError::Malformed { line, reason };
        let mut header: Option<(u64, Duration)> = None;
        let mut config: Option<SimConfig> = None;
        let mut positions: Vec<(usize, Position)> = Vec::new();
        let mut link_rows: Vec<(usize, usize, Link)> = Vec::new();
        let mut scenario: Vec<(String, String)> = Vec::new();
        let mut fault_events: Vec<(usize, FaultEvent)> = Vec::new();
        let mut digest: Option<RunDigest> = None;
        for (index, text) in text.lines().enumerate() {
            let no = index + 1;
            if text.trim().is_empty() {
                continue;
            }
            let line = parse_json(text).map_err(|e| mal(no, e))?;
            let bits = |key: &str| line.uint_at(key).map(f64::from_bits);
            // The medium hands these to `gen_bool`, which panics
            // outside [0, 1] (NaN included).
            let probability = |key: &str| match bits(key)? {
                p if (0.0..=1.0).contains(&p) => Ok(p),
                p => Err(format!("field {key:?} encodes {p}, not a probability")),
            };
            let micros = |key: &str| line.uint_at(key).map(Duration::from_micros);
            // One closure per line so `?` inside reads fields with
            // `String` errors; the line number is attached once below.
            let mut read = || -> Result<Option<u64>, String> {
                match line.str_at("ev")? {
                    "capsule" => {
                        let version = line.uint_at("version")?;
                        if version != CAPSULE_VERSION {
                            return Ok(Some(version));
                        }
                        header = Some((line.uint_at("seed")?, micros("deadline_us")?));
                    }
                    "capsule_config" => {
                        let noise = match line.opt("noise", Json::str_at)? {
                            Some("bursty") => NoiseModel::Bursty(BurstyNoise {
                                mean_quiet_us: line.uint_at("noise_quiet_us")?,
                                mean_noisy_us: line.uint_at("noise_noisy_us")?,
                                noisy_prr_factor: probability("noise_factor_bits")?,
                            }),
                            Some(other) => return Err(format!("unknown noise model {other:?}")),
                            None => NoiseModel::None,
                        };
                        config = Some(SimConfig {
                            medium: crate::medium::MediumConfig {
                                us_per_byte: line.uint_at("us_per_byte")?,
                                per_packet_overhead_us: line.uint_at("overhead_us")?,
                                max_backoff_us: line.uint_at("max_backoff_us")?,
                                csma: line.uint_at::<u64>("csma")? != 0,
                                collisions: line.uint_at::<u64>("collisions")? != 0,
                                app_loss: probability("app_loss_bits")?,
                                noise,
                            },
                            stall_window: line
                                .opt("stall_window_us", Json::uint_at)?
                                .map(Duration::from_micros),
                        });
                    }
                    "capsule_node" => positions.push((
                        line.uint_at("node")?,
                        Position {
                            x: bits("x_bits")?,
                            y: bits("y_bits")?,
                        },
                    )),
                    "capsule_link" => link_rows.push((
                        no,
                        line.uint_at("from")?,
                        Link {
                            to: NodeId(line.uint_at("to")?),
                            prr: probability("prr_bits")?,
                        },
                    )),
                    "capsule_scenario" => scenario.push((
                        line.str_at("key")?.to_string(),
                        line.str_at("value")?.to_string(),
                    )),
                    "capsule_digest" => {
                        let hex = |key: &str| {
                            u64::from_str_radix(line.str_at(key)?, 16)
                                .map(ContentDigest)
                                .map_err(|_| format!("field {key:?} must be a hex digest"))
                        };
                        digest = Some(RunDigest {
                            outcome: line.str_at("outcome")?.to_string(),
                            final_time: SimTime(line.uint_at("final_time")?),
                            events: line.uint_at("events")?,
                            trace: hex("trace")?,
                            metrics: hex("metrics")?,
                        });
                    }
                    ev if ev.starts_with("fault_") => {
                        fault_events.push((no, FaultEvent::from_value(&line)?));
                    }
                    other => return Err(format!("unknown event {other:?}")),
                }
                Ok(None)
            };
            if let Some(version) = read().map_err(|e| mal(no, e))? {
                return Err(CapsuleError::UnsupportedVersion(version));
            }
        }
        let (seed, deadline) = header.ok_or_else(|| mal(0, "no \"capsule\" header line".into()))?;
        let config = config.ok_or_else(|| mal(0, "no \"capsule_config\" line".into()))?;
        positions.sort_by_key(|(i, _)| *i);
        for (slot, (index, _)) in positions.iter().enumerate() {
            if slot != *index {
                return Err(mal(0, format!("node table has a gap at n{slot}")));
            }
        }
        let n = positions.len();
        let mut links: Vec<Vec<Link>> = vec![Vec::new(); n];
        for (no, from, link) in link_rows {
            if from >= n || (link.to.0 as usize) >= n {
                let to = link.to.0;
                return Err(mal(
                    no,
                    format!("link n{from}→n{to} is outside the {n}-node table"),
                ));
            }
            links[from].push(link);
        }
        let topology = Topology::from_parts(positions.into_iter().map(|(_, p)| p).collect(), links);
        let mut faults = FaultPlan::new();
        for (no, event) in fault_events {
            // The engine indexes per-node state by these ids.
            if let Some(node) = event.nodes().into_iter().find(|id| id.0 as usize >= n) {
                return Err(mal(
                    no,
                    format!("fault event names n{}, outside the {n}-node table", node.0),
                ));
            }
            faults.push(event);
        }
        Ok(Capsule {
            seed,
            deadline,
            config,
            topology,
            faults,
            scenario,
            digest,
        })
    }

    /// Saves to `path` as JSONL.
    pub fn save(&self, path: impl AsRef<Path>) -> io::Result<()> {
        std::fs::write(path, self.to_jsonl())
    }

    /// Loads the JSONL capsule at `path`.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, CapsuleError> {
        let text = String::from_utf8(std::fs::read(path)?).map_err(|_| CapsuleError::NotUtf8)?;
        Self::from_jsonl(&text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::medium::MediumConfig;

    fn sample_capsule() -> Capsule {
        let mut faults = FaultPlan::new();
        faults.crash(NodeId(3), SimTime(400_000));
        faults.link_outage(
            NodeId(1),
            NodeId(2),
            SimTime(100_000),
            Duration::from_secs(1),
        );
        Capsule {
            seed: 0xDEAD_BEEF,
            deadline: Duration::from_secs(100),
            config: SimConfig {
                medium: MediumConfig {
                    app_loss: 0.05,
                    noise: NoiseModel::Bursty(BurstyNoise::heavy()),
                    ..MediumConfig::default()
                },
                stall_window: Some(Duration::from_secs(400)),
            },
            topology: Topology::grid(3, 10.0, 7),
            faults,
            scenario: vec![
                ("scheme".to_string(), "lr-seluge".to_string()),
                ("note".to_string(), "quote \" and back\\slash".to_string()),
            ],
            digest: Some(RunDigest {
                outcome: "stalled".to_string(),
                final_time: SimTime(123_456),
                events: 42,
                trace: ContentDigest(0x1122_3344_5566_7788),
                metrics: ContentDigest(0x99AA_BBCC_DDEE_FF00),
            }),
        }
    }

    #[test]
    fn jsonl_round_trip_is_exact() {
        let capsule = sample_capsule();
        let text = capsule.to_jsonl();
        let parsed = Capsule::from_jsonl(&text).expect("parse");
        assert_eq!(parsed, capsule);
        // Every line is a self-contained JSON object.
        for line in text.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        }
    }

    #[test]
    fn newer_versions_are_rejected() {
        for version in [0, 1, 3, 99] {
            let text = sample_capsule().to_jsonl().replacen(
                "\"version\":2",
                &format!("\"version\":{version}"),
                1,
            );
            assert!(matches!(
                Capsule::from_jsonl(&text),
                Err(CapsuleError::UnsupportedVersion(v)) if v == version
            ));
        }
    }

    #[test]
    fn load_rejects_binary_files_without_panicking() {
        let path = std::env::temp_dir().join(format!("lrs-capsule-load-{}", std::process::id()));
        // The removed binary framing: magic, u32 LE version, one
        // length-prefixed line. All valid UTF-8, so the line parser
        // sees it and refuses line 1.
        let mut framed = b"LRSC\x01\0\0\0\x02\0\0\0{}".to_vec();
        std::fs::write(&path, &framed).expect("write");
        assert!(matches!(
            Capsule::load(&path),
            Err(CapsuleError::Malformed { line: 1, .. })
        ));
        framed.push(0xFF);
        std::fs::write(&path, &framed).expect("write");
        assert!(matches!(Capsule::load(&path), Err(CapsuleError::NotUtf8)));
        std::fs::remove_file(&path).expect("clean up");
    }

    #[test]
    fn scenario_lookup_and_escaping() {
        let capsule = sample_capsule();
        let parsed = Capsule::from_jsonl(&capsule.to_jsonl()).expect("parse");
        assert_eq!(parsed.scenario_value("scheme"), Some("lr-seluge"));
        assert_eq!(
            parsed.scenario_value("note"),
            Some("quote \" and back\\slash")
        );
        assert_eq!(parsed.scenario_value("absent"), None);
        // Quotes and backslashes are written as they always were.
        assert!(capsule.to_jsonl().contains(
            r#"{"ev":"capsule_scenario","key":"note","value":"quote \" and back\\slash"}"#
        ));
    }

    #[test]
    fn control_characters_keep_one_record_on_one_line() {
        let mut capsule = sample_capsule();
        let nasty = "a\nb\t\u{1}\"\\";
        capsule
            .scenario
            .push((nasty.to_string(), nasty.to_string()));
        let text = capsule.to_jsonl();
        assert_eq!(
            text.lines().count(),
            sample_capsule().to_jsonl().lines().count() + 1
        );
        assert_eq!(Capsule::from_jsonl(&text).expect("parse"), capsule);
    }

    /// `good` with `bad` appended as its last line, and that line's
    /// 1-based number.
    fn with_line(bad: &str) -> (String, usize) {
        let good = sample_capsule().to_jsonl();
        let no = good.lines().count() + 1;
        (format!("{good}{bad}\n"), no)
    }

    fn malformed(text: &str) -> (usize, String) {
        match Capsule::from_jsonl(text) {
            Err(CapsuleError::Malformed { line, reason }) => (line, reason),
            other => panic!("expected Malformed, got {other:?}"),
        }
    }

    #[test]
    fn malformed_lines_are_rejected_with_their_line_number() {
        for (bad, needle) in [
            (r#"{"t":1,"ev":"fault_crash","node":1"#, "expected"),
            (
                r#"{"t":1,"ev":"fault_crash","node":1} tail"#,
                "trailing garbage",
            ),
            (
                r#"{"t":1000,"ev":"fault_crash","node":2 GARBAGE "node":1"#,
                "expected",
            ),
            (r#"{"t":1,"ev":"fault_crash","node":"1"}"#, "\"node\""),
            (r#"{"t":"1","ev":"fault_crash","node":1}"#, "\"t\""),
            (r#"{"t":1,"ev":"fault_melt","node":1}"#, "fault_melt"),
            // A zero clock rate froze virtual time and hung `replay`.
            (
                r#"{"t":0,"ev":"fault_drift","node":1,"ppm":0}"#,
                "clock rate 0 ppm",
            ),
            (
                r#"{"t":0,"ev":"fault_drift","node":1,"ppm":1500001}"#,
                "outside",
            ),
            (r#"{"t":1,"ev":"tx","node":1}"#, "unknown event"),
            (r#"{"t":1,"node":1}"#, "\"ev\""),
            (r#"[1]"#, "\"ev\""),
            (r#"{"ev":"capsule_scenario","key":"k"}"#, "\"value\""),
            (
                r#"{"ev":"capsule_scenario","key":"k","value":7}"#,
                "\"value\"",
            ),
            (
                r#"{"ev":"capsule_digest","outcome":"x","final_time":1,"events":1,"trace":"xyz","metrics":"0"}"#,
                "hex",
            ),
        ] {
            let (text, no) = with_line(bad);
            let (line, reason) = malformed(&text);
            assert_eq!(line, no, "{bad}: {reason}");
            assert!(reason.contains(needle), "{bad}: {reason}");
        }
        // Numbering counts blank lines and is not just "the last line".
        let good = sample_capsule().to_jsonl();
        let (first, rest) = good.split_once('\n').unwrap();
        let text = format!("\n{first}\n{{\"ev\":\"nope\"}}\n{rest}");
        assert_eq!(malformed(&text).0, 3);
    }

    #[test]
    fn faults_and_links_outside_the_node_table_are_rejected() {
        // The engine indexes per-node state by these ids: before this
        // check `replay` panicked applying the fault.
        for bad in [
            r#"{"t":1000,"ev":"fault_crash","node":99}"#,
            r#"{"t":1000,"ev":"fault_reboot","node":9}"#,
            r#"{"t":1000,"ev":"fault_drift","node":9,"ppm":1000000}"#,
            r#"{"t":1000,"ev":"fault_link_down","from":9,"to":0}"#,
            r#"{"t":1000,"ev":"fault_link_up","from":0,"to":9}"#,
            r#"{"t":1000,"ev":"fault_degrade","from":0,"to":9,"ppm":5}"#,
            r#"{"ev":"capsule_link","from":0,"to":9,"prr_bits":0}"#,
            r#"{"ev":"capsule_link","from":9,"to":0,"prr_bits":0}"#,
        ] {
            let (text, no) = with_line(bad);
            let (line, reason) = malformed(&text);
            assert_eq!(line, no, "{bad}: {reason}");
            assert!(reason.contains("9-node table"), "{bad}: {reason}");
        }
        let (text, _) = with_line(r#"{"t":1000,"ev":"fault_crash","node":8}"#);
        assert!(Capsule::from_jsonl(&text).is_ok(), "n8 is the last node");
    }

    #[test]
    fn out_of_range_values_are_rejected_not_wrapped() {
        let good = sample_capsule().to_jsonl();
        // (field as written, replacement): `as u32`/`as usize` used to
        // wrap the first three; the rest used to reach a panic later.
        for (from, to) in [
            (
                r#""ev":"fault_crash","node":3"#,
                r#""ev":"fault_crash","node":4294967299"#,
            ),
            (r#""from":0,"to":1,"#, r#""from":0,"to":4294967297,"#),
            (
                r#""ev":"capsule_node","node":0,"#,
                r#""ev":"capsule_node","node":18446744073709551616,"#,
            ),
            (r#""seed":3735928559"#, r#""seed":-1"#),
            (r#""seed":3735928559"#, r#""seed":1.5"#),
            // 2.0, -0.5 and NaN are not probabilities.
            (
                r#""app_loss_bits":4587366580439587226"#,
                r#""app_loss_bits":4611686018427387904"#,
            ),
            (r#""to":1,"prr_bits":"#, r#""to":1,"prr_bits":1"#),
            (
                r#""noise_factor_bits":4598175219545276416"#,
                r#""noise_factor_bits":9221120237041090560"#,
            ),
        ] {
            assert!(good.contains(from), "fixture drifted: {from}");
            let text = good.replacen(from, to, 1);
            assert!(
                matches!(
                    Capsule::from_jsonl(&text),
                    Err(CapsuleError::Malformed { .. })
                ),
                "{to} was accepted"
            );
        }
    }
}
