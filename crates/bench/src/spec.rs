//! Campaign grid specifications.
//!
//! A campaign is described by one small spec file — TOML (the flat
//! `key = value` subset below) or JSON, auto-detected — that names the
//! parameter grid: schemes × topologies × loss rates × fault plans ×
//! attackers × seeds. [`CampaignSpec`] is the validated in-memory form;
//! its [`to_json`](CampaignSpec::to_json) rendering is embedded
//! verbatim in the campaign manifest so `campaign --resume <dir>` never
//! needs the original spec file (or risks it having been edited).
//!
//! ```toml
//! # mini Fig. 3 grid
//! name = "fig3-mini"
//! schemes = ["lr-seluge", "seluge"]
//! topologies = ["star:10"]
//! loss_ppm = [100000, 200000, 300000]
//! seeds = 8
//! ```
//!
//! Axis tokens are deliberately strings — `"star:10"`, `"grid:4:15"`,
//! `"crash=0.5,flap=0.3"`, `"storm"` — so the grid stays a flat product
//! of scalars that can be logged, diffed, and embedded in capsule tags
//! without nested tables.

use crate::capsules::profile_params;
use crate::json::{parse_json, Json};
use lrs_deluge::attack::{AttackConfig, AttackVector};
use lrs_deluge::deployment::check_layout;
use lrs_host::time::Duration;
use lrs_netsim::fault::{FaultConfig, MAX_DRIFT_PPM};
use lrs_netsim::medium::MediumConfig;
use lrs_netsim::noise::{BurstyNoise, NoiseModel};
use lrs_netsim::sim::SimConfig;
use lrs_netsim::topology::Topology;
use std::fmt;

/// Schemes the campaign engine can run.
pub const SCHEMES: [&str; 3] = ["lr-seluge", "seluge", "deluge"];

/// Every key a spec document may carry: the [`CampaignSpec`] fields.
const KEYS: [&str; 14] = [
    "name",
    "schemes",
    "topologies",
    "loss_ppm",
    "faults",
    "attackers",
    "seeds",
    "seed_base",
    "image_bytes",
    "profile",
    "noise",
    "deadline_s",
    "stall_s",
    "fault_horizon_s",
];

/// Longest time a spec may name, in seconds (about 136 years): its
/// microseconds, and the sums fault and attack schedules form from a
/// few such spans, stay far inside a `u64`.
const MAX_SECS: u64 = 1 << 32;

/// A validated campaign grid specification.
#[derive(Clone, Debug, PartialEq)]
pub struct CampaignSpec {
    /// Campaign name; also the default output directory stem.
    pub name: String,
    /// Schemes under test (`lr-seluge`, `seluge`, `deluge`).
    pub schemes: Vec<String>,
    /// Topology tokens: `star:N` (one-hop cluster of N) or `grid:S`
    /// (S×S multihop grid, tight 8 m spacing, per-job sampled links);
    /// `grid:S:M` spaces the grid `M` metres apart.
    pub topologies: Vec<String>,
    /// Application-layer loss rates in parts per million.
    pub loss_ppm: Vec<u32>,
    /// Fault-plan tokens: `none`, or comma-joined knobs covering the
    /// full §7 fault vocabulary — `crash=R` (optionally with
    /// `reboot=lo-hi` seconds), `flap=R`, `degrade=R`, `drift=ppm` —
    /// e.g. `crash=0.5,reboot=10-60,flap=0.3`. See [`fault_config`].
    pub faults: Vec<String>,
    /// Attacker tokens: `none`, `storm` (the chaos grid's bursty
    /// bogus-data packet storm from the highest-id node), or a
    /// comma-joined [`attack_config`] token naming one of the five §7
    /// vectors with a packets-per-second rate — `bogus=R`, `forgesig=R`,
    /// `forgeadv=R`, `dor=R`, `spoofdor=R` — composable with
    /// `burst=on-off` duty cycles and `n=K` attacker counts.
    pub attackers: Vec<String>,
    /// Monte-Carlo repetitions per grid cell.
    pub seeds: u64,
    /// First simulator seed; job `s` of a cell runs seed
    /// `seed_base + cell_index * seeds + s`.
    pub seed_base: u64,
    /// Image size in bytes.
    pub image_bytes: usize,
    /// LR-Seluge parameter profile every job runs (`campaign` unless
    /// set; the registry, knobs included, is `capsules::profile`).
    pub profile: String,
    /// Environmental noise every job runs under: `none` (the default)
    /// or `heavy` ([`BurstyNoise::heavy`], Tables II/III).
    pub noise: String,
    /// Per-job time limit in virtual seconds.
    pub deadline_s: u64,
    /// Stall-watchdog window in virtual seconds.
    pub stall_s: u64,
    /// Window in virtual seconds that generated faults are drawn over
    /// (default `deadline_s`); see [`fault_config`].
    pub fault_horizon_s: u64,
}

impl CampaignSpec {
    /// Parses and validates a spec from TOML or JSON text
    /// (auto-detected: a document starting with `{` is JSON).
    pub fn parse(text: &str) -> Result<Self, String> {
        let doc = if text.trim_start().starts_with('{') {
            parse_json(text)?
        } else {
            parse_toml_subset(text)?
        };
        Self::from_json(&doc)
    }

    /// Builds and validates a spec from a parsed document (spec file or
    /// manifest-embedded copy). A key that is not a spec field is an
    /// error, so a misspelt axis cannot silently run the default grid.
    pub fn from_json(doc: &Json) -> Result<Self, String> {
        if let Json::Obj(fields) = doc {
            if let Some((key, _)) = fields.iter().find(|(k, _)| !KEYS.contains(&k.as_str())) {
                return Err(format!("unknown spec key {key:?}; known: {KEYS:?}"));
            }
        }
        let strs = |key: &str, default: &[&str]| {
            let default = default.iter().map(|s| s.to_string()).collect();
            list(doc, key, default, "strings", |v| {
                v.as_str().map(str::to_string)
            })
        };
        let deadline_s = uint_or(doc, "deadline_s", 3_000)?;
        let profile = doc.opt("profile", Json::str_at)?.unwrap_or("campaign");
        let spec = CampaignSpec {
            name: doc.str_at("name")?.to_string(),
            schemes: strs("schemes", &["lr-seluge", "seluge"])?,
            topologies: strs("topologies", &["star:6"])?,
            loss_ppm: list(doc, "loss_ppm", vec![50_000], "u32 integers", |v| {
                v.as_u64().and_then(|n| u32::try_from(n).ok())
            })?,
            faults: strs("faults", &["none"])?,
            attackers: strs("attackers", &["none"])?,
            seeds: uint_or(doc, "seeds", 8)?,
            seed_base: uint_or(doc, "seed_base", 1_000)?,
            image_bytes: uint_or(doc, "image_bytes", 1_024)?,
            profile: profile.to_string(),
            noise: doc
                .opt("noise", Json::str_at)?
                .unwrap_or("none")
                .to_string(),
            deadline_s,
            stall_s: uint_or(doc, "stall_s", 400)?,
            fault_horizon_s: uint_or(doc, "fault_horizon_s", deadline_s)?,
        };
        spec.validate()?;
        Ok(spec)
    }

    /// Checks every field the way [`from_json`](Self::from_json) does,
    /// for a spec built in code.
    pub fn validate(&self) -> Result<(), String> {
        if self.name.is_empty() {
            return Err("name must be non-empty".into());
        }
        for s in &self.schemes {
            if !SCHEMES.contains(&s.as_str()) {
                return Err(format!("unknown scheme {s:?}; known: {SCHEMES:?}"));
            }
        }
        for t in &self.topologies {
            parse_topology(t)?;
        }
        for &ppm in &self.loss_ppm {
            if ppm >= 1_000_000 {
                return Err(format!("loss_ppm {ppm} must be below 1000000 (100%)"));
            }
        }
        for (key, secs) in [
            ("deadline_s", self.deadline_s),
            ("stall_s", self.stall_s),
            ("fault_horizon_s", self.fault_horizon_s),
        ] {
            if secs > MAX_SECS {
                return Err(format!("{key} = {secs} is above the {MAX_SECS} s ceiling"));
            }
        }
        if self.fault_horizon_s == 0 {
            return Err("fault_horizon_s must be at least 1".into());
        }
        // A zero window would declare every job stalled at its start.
        if self.stall_s == 0 {
            return Err("stall_s must be at least 1".into());
        }
        if !["none", "heavy"].contains(&self.noise.as_str()) {
            return Err(format!(
                "unknown noise {:?}; known: \"none\", \"heavy\"",
                self.noise
            ));
        }
        for f in &self.faults {
            fault_config(f, self.fault_horizon())?;
        }
        for a in &self.attackers {
            attack_config(a)?;
        }
        if self.seeds == 0 {
            return Err("seeds must be at least 1".into());
        }
        // Jobs lay their image out in the profile's pages.
        let capacity = profile_params(&self.profile, self.image_bytes)
            .map_err(|e| format!("profile = {:?}: {e}", self.profile))?
            .page_capacity();
        check_layout(self.image_bytes, capacity)
            .map_err(|e| format!("image_bytes = {}: {e}", self.image_bytes))?;
        // Job `j` runs seed `seed_base + j`, for every `j` below the
        // job count.
        let cells = self.cells().len() as u64;
        let jobs = cells
            .checked_mul(self.seeds)
            .ok_or_else(|| format!("seeds = {} times {cells} cells overflows", self.seeds))?;
        if self.seed_base.checked_add(jobs).is_none() {
            return Err(format!(
                "seed_base = {} plus {jobs} jobs overflows a u64 seed",
                self.seed_base
            ));
        }
        Ok(())
    }

    /// The canonical document embedded in the campaign manifest.
    /// `from_json(to_json(spec)) == spec`, so resume re-validates the
    /// exact grid the campaign started with.
    pub fn to_json(&self) -> Json {
        let strs = |xs: &[String]| Json::Arr(xs.iter().map(Json::str).collect());
        Json::Obj(vec![
            ("name".into(), Json::str(&self.name)),
            ("schemes".into(), strs(&self.schemes)),
            ("topologies".into(), strs(&self.topologies)),
            (
                "loss_ppm".into(),
                Json::Arr(self.loss_ppm.iter().map(|&v| Json::num(v)).collect()),
            ),
            ("faults".into(), strs(&self.faults)),
            ("attackers".into(), strs(&self.attackers)),
            ("seeds".into(), Json::uint(self.seeds)),
            ("seed_base".into(), Json::uint(self.seed_base)),
            ("image_bytes".into(), Json::uint(self.image_bytes as u64)),
            ("profile".into(), Json::str(&self.profile)),
            ("noise".into(), Json::str(&self.noise)),
            ("deadline_s".into(), Json::uint(self.deadline_s)),
            ("stall_s".into(), Json::uint(self.stall_s)),
            ("fault_horizon_s".into(), Json::uint(self.fault_horizon_s)),
        ])
    }

    /// The window every cell's fault plan is drawn over.
    pub fn fault_horizon(&self) -> Duration {
        Duration::from_secs(self.fault_horizon_s)
    }

    /// Enumerates the grid cells in canonical order: scheme (outermost)
    /// → topology → loss → fault → attacker (innermost). This order is
    /// load-bearing: cell indices, job ids, and seeds all derive from
    /// it, and resume depends on it being stable.
    pub fn cells(&self) -> Vec<CellParams> {
        let mut cells = Vec::new();
        for scheme in &self.schemes {
            for topology in &self.topologies {
                for &loss_ppm in &self.loss_ppm {
                    for fault in &self.faults {
                        for attacker in &self.attackers {
                            cells.push(CellParams {
                                scheme: scheme.clone(),
                                topology: topology.clone(),
                                loss_ppm,
                                fault: fault.clone(),
                                attacker: attacker.clone(),
                            });
                        }
                    }
                }
            }
        }
        cells
    }

    /// The simulator configuration for a cell at `loss_ppm`.
    pub fn sim_config(&self, loss_ppm: u32) -> SimConfig {
        let noise = match self.noise.as_str() {
            "heavy" => NoiseModel::Bursty(BurstyNoise::heavy()),
            _ => NoiseModel::None,
        };
        SimConfig {
            medium: MediumConfig {
                app_loss: loss_ppm as f64 / 1e6,
                noise,
                ..MediumConfig::default()
            },
            stall_window: Some(Duration::from_secs(self.stall_s)),
        }
    }
}

/// One grid cell: every parameter except the seed, and its identity.
/// A cell's index is its position in [`CampaignSpec::cells`]; two
/// campaigns' cells pair (in `campdiff`) when these five coordinates
/// match, whatever the grid shape, and order in field order.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct CellParams {
    /// Scheme under test.
    pub scheme: String,
    /// Topology token.
    pub topology: String,
    /// Application-layer loss in ppm.
    pub loss_ppm: u32,
    /// Fault-plan token.
    pub fault: String,
    /// Attacker token.
    pub attacker: String,
}

impl CellParams {
    /// The cell's `params` object in a report.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("scheme".into(), Json::str(&self.scheme)),
            ("topology".into(), Json::str(&self.topology)),
            ("loss_ppm".into(), Json::num(self.loss_ppm)),
            ("fault".into(), Json::str(&self.fault)),
            ("attacker".into(), Json::str(&self.attacker)),
        ])
    }

    /// Parses a `params` object.
    pub fn from_json(v: &Json) -> Result<Self, String> {
        Ok(CellParams {
            scheme: v.str_at("scheme")?.to_string(),
            topology: v.str_at("topology")?.to_string(),
            loss_ppm: v.uint_at("loss_ppm")?,
            fault: v.str_at("fault")?.to_string(),
            attacker: v.str_at("attacker")?.to_string(),
        })
    }
}

impl fmt::Display for CellParams {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} loss={} fault={} atk={}",
            self.scheme, self.topology, self.loss_ppm, self.fault, self.attacker
        )
    }
}

/// Largest topology a spec may name: room for the 100×100 grid the
/// repo has run, far below what would exhaust memory building links.
pub const MAX_NODES: usize = 16_384;

/// A topology token's kind, size and grid spacing in metres (`grid:S`
/// is 8 m), its node count (`star:N` → N, `grid:S` → S²) checked to lie
/// in `2..=`[`MAX_NODES`].
fn parse_topology(token: &str) -> Result<(&str, usize, u32), String> {
    let parts: Vec<&str> = token.split(':').collect();
    let (kind, size, spacing) = match parts[..] {
        [kind, size] => (kind, size, "8"),
        ["grid", size, spacing] => ("grid", size, spacing),
        _ => {
            return Err(format!(
                "bad topology token {token:?}; expected \"star:N\", \"grid:S\" or \"grid:S:M\""
            ))
        }
    };
    let n: usize = size
        .parse()
        .map_err(|e| format!("bad topology size in {token:?}: {e}"))?;
    let spacing = (spacing.parse().ok().filter(|&m| m > 0))
        .ok_or_else(|| format!("bad grid spacing in {token:?}; need M >= 1 metres"))?;
    let nodes = match kind {
        "star" => Some(n),
        "grid" => n.checked_mul(n),
        other => {
            return Err(format!(
                "unknown topology kind {other:?}; known: \"star\", \"grid\""
            ))
        }
    };
    match nodes {
        Some(nodes) if (2..=MAX_NODES).contains(&nodes) => Ok((kind, n, spacing)),
        _ => Err(format!(
            "topology {token:?} must have 2..={MAX_NODES} nodes"
        )),
    }
}

/// Materializes a topology token. Grid links are sampled from `seed`,
/// so each job sees its own link-quality draw (star links are perfect
/// and seed-independent).
pub fn build_topology(token: &str, seed: u64) -> Result<Topology, String> {
    Ok(match parse_topology(token)? {
        ("star", n, _) => Topology::star(n),
        (_, side, spacing) => Topology::grid(side, spacing as f64, seed),
    })
}

/// Parses a probability knob value, shared by the fault rates.
fn parse_rate(part: &str, value: &str) -> Result<f64, String> {
    let rate: f64 = value
        .parse()
        .map_err(|e| format!("bad rate in fault token {part:?}: {e}"))?;
    if !(0.0..=1.0).contains(&rate) {
        return Err(format!("fault rate {rate} in {part:?} outside [0, 1]"));
    }
    Ok(rate)
}

/// Parses a `lo-hi` seconds range (both sides positive f64).
fn parse_secs_range(part: &str, value: &str) -> Result<(Duration, Duration), String> {
    let (lo, hi) = value
        .split_once('-')
        .ok_or_else(|| format!("bad range in {part:?}; expected lo-hi seconds"))?;
    let lo: f64 = lo
        .parse()
        .map_err(|e| format!("bad range in {part:?}: {e}"))?;
    let hi: f64 = hi
        .parse()
        .map_err(|e| format!("bad range in {part:?}: {e}"))?;
    if !(lo > 0.0 && lo <= hi && hi <= MAX_SECS as f64) {
        return Err(format!(
            "bad range in {part:?}; need 0 < lo <= hi <= {MAX_SECS}, got {lo}-{hi}"
        ));
    }
    Ok((secs_to_duration(lo), secs_to_duration(hi)))
}

fn secs_to_duration(s: f64) -> Duration {
    Duration::from_micros((s * 1e6).round() as u64)
}

/// Builds the [`FaultConfig`] a fault token describes, with `horizon`
/// as the scheduling window. `none` yields the quiet default config;
/// comma-joined knobs cover the full fault vocabulary:
///
/// * `crash=R` — per-node crash probability. Reboot window defaults to
///   30–120 s; override with `reboot=lo-hi` (seconds). A `crash=0`
///   schedules no reboots at all.
/// * `flap=R` — per-link flap probability. A flapping link alternates
///   up and down sojourns averaging 8/20 and 3/20 of `horizon` (8 s up,
///   3 s down over 20 s).
/// * `degrade=R` — per-link asymmetric degradation probability.
/// * `drift=ppm` — per-node clock-drift amplitude in ppm, at most
///   [`MAX_DRIFT_PPM`].
pub fn fault_config(token: &str, horizon: Duration) -> Result<FaultConfig, String> {
    let share = |twentieths: u64| Duration::from_micros(horizon.as_micros() / 20 * twentieths);
    let mut config = FaultConfig {
        horizon,
        down_sojourn: share(3),
        up_sojourn: share(8),
        ..FaultConfig::default()
    };
    if token == "none" {
        return Ok(config);
    }
    let mut reboot: Option<(Duration, Duration)> = None;
    for part in token.split(',') {
        let (key, value) = part
            .split_once('=')
            .ok_or_else(|| format!("bad fault token part {part:?}; expected key=value"))?;
        match key {
            "crash" => config.crash_rate = parse_rate(part, value)?,
            "reboot" => reboot = Some(parse_secs_range(part, value)?),
            "flap" => config.link_flap_rate = parse_rate(part, value)?,
            "degrade" => config.degrade_rate = parse_rate(part, value)?,
            "drift" => {
                let ppm: u32 = value
                    .parse()
                    .map_err(|e| format!("bad drift ppm in {part:?}: {e}"))?;
                if ppm > MAX_DRIFT_PPM {
                    return Err(format!("drift ppm {ppm} in {part:?} above {MAX_DRIFT_PPM}"));
                }
                config.drift_ppm = ppm;
            }
            other => {
                return Err(format!(
                    "unknown fault knob {other:?}; known: \"crash\", \"reboot\", \
                     \"flap\", \"degrade\", \"drift\""
                ))
            }
        }
    }
    if reboot.is_some() && config.crash_rate == 0.0 {
        return Err(format!(
            "fault token {token:?} sets a reboot window without crash > 0"
        ));
    }
    // Crashed nodes reboot (default window 30–120 s); with no crashes
    // there is nothing to reboot, so the window stays unset.
    config.reboot_after = if config.crash_rate > 0.0 {
        Some(reboot.unwrap_or((Duration::from_secs(30), Duration::from_secs(120))))
    } else {
        None
    };
    Ok(config)
}

/// Maximum injection rate an attacker token may ask for (packets/s).
pub const MAX_ATTACK_RATE: f64 = 100.0;

/// Maximum attacker count per cell (`n=K`).
pub const MAX_ATTACKERS: u32 = 16;

fn unknown_attacker(token: &str) -> String {
    let labels: Vec<&str> = AttackVector::ALL.iter().map(|v| v.label()).collect();
    format!(
        "unknown attacker {token:?}; known: \"none\", \"storm\", or comma-joined \
         knobs {labels:?} (=rate pkts/s), \"burst=on-off\" (seconds), \"n=K\""
    )
}

/// Builds the [`AttackConfig`] an attacker token describes, or `None`
/// for the tokens that do not drive the plan-based adversary engine:
/// `none` (no attacker) and `storm` (the legacy hard-coded bursty
/// storm, handled by the scenario registry directly).
///
/// Plan tokens are comma-joined knobs. Exactly one must name a vector
/// (`bogus=R`, `forgesig=R`, `forgeadv=R`, `dor=R`, `spoofdor=R`, with
/// `R` an injection rate in packets per second, `0 < R <=`
/// [`MAX_ATTACK_RATE`]); `burst=on-off` (seconds) adds a packet-storm
/// duty cycle and `n=K` places `K` attackers (1..=[`MAX_ATTACKERS`]).
pub fn attack_config(token: &str) -> Result<Option<AttackConfig>, String> {
    if token == "none" || token == "storm" {
        return Ok(None);
    }
    let mut config = AttackConfig::default();
    let mut vector: Option<AttackVector> = None;
    for part in token.split(',') {
        let Some((key, value)) = part.split_once('=') else {
            return Err(unknown_attacker(part));
        };
        if let Some(v) = AttackVector::from_label(key) {
            if vector.replace(v).is_some() {
                return Err(format!(
                    "attacker token {token:?} names more than one vector"
                ));
            }
            let rate: f64 = value
                .parse()
                .map_err(|e| format!("bad rate in attacker token {part:?}: {e}"))?;
            // The interval, 1/rate, must not exceed the time ceiling.
            if !(1.0 / MAX_SECS as f64..=MAX_ATTACK_RATE).contains(&rate) {
                return Err(format!(
                    "attack rate {rate} in {part:?} outside [1/{MAX_SECS}, {MAX_ATTACK_RATE}]"
                ));
            }
            config.interval = Duration::from_micros((1e6 / rate).round() as u64);
            continue;
        }
        match key {
            "burst" => {
                let (on, off) = value
                    .split_once('-')
                    .ok_or_else(|| format!("bad burst in {part:?}; expected on-off seconds"))?;
                let on: f64 = on
                    .parse()
                    .map_err(|e| format!("bad burst in {part:?}: {e}"))?;
                let off: f64 = off
                    .parse()
                    .map_err(|e| format!("bad burst in {part:?}: {e}"))?;
                let span = 0.0..=MAX_SECS as f64;
                if !(span.contains(&on) && span.contains(&off)) || on == 0.0 || off == 0.0 {
                    return Err(format!(
                        "bad burst in {part:?}; need on > 0 and off > 0, both at most \
                         {MAX_SECS}, got {on}-{off}"
                    ));
                }
                config.burst = Some((secs_to_duration(on), secs_to_duration(off)));
            }
            "n" => {
                let n: u32 = value
                    .parse()
                    .map_err(|e| format!("bad attacker count in {part:?}: {e}"))?;
                if !(1..=MAX_ATTACKERS).contains(&n) {
                    return Err(format!(
                        "attacker count {n} in {part:?} outside 1..={MAX_ATTACKERS}"
                    ));
                }
                config.attackers = n;
            }
            _ => return Err(unknown_attacker(part)),
        }
    }
    let Some(vector) = vector else {
        return Err(format!("attacker token {token:?} names no vector knob"));
    };
    config.vector = vector;
    Ok(Some(config))
}

/// Parses the flat TOML subset campaign specs use: `key = value` lines
/// where a value is a `"string"`, a number, a boolean, or a (possibly
/// multi-line) array of those; `#` starts a comment. Tables and nested
/// arrays are rejected — the grid is deliberately flat.
pub fn parse_toml_subset(text: &str) -> Result<Json, String> {
    let mut fields: Vec<(String, Json)> = Vec::new();
    let mut lines = text.lines().enumerate();
    while let Some((lineno, raw)) = lines.next() {
        let line = strip_comment(raw);
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if line.starts_with('[') {
            return Err(format!(
                "line {}: tables are not supported; campaign specs are flat key = value",
                lineno + 1
            ));
        }
        let (key, value) = line
            .split_once('=')
            .ok_or_else(|| format!("line {}: expected key = value", lineno + 1))?;
        let key = key.trim();
        if key.is_empty() || !key.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
            return Err(format!("line {}: bad key {key:?}", lineno + 1));
        }
        // Accumulate continuation lines until brackets balance, so
        // arrays can span lines like real TOML.
        let mut value = value.trim().to_string();
        while open_brackets(&value) > 0 {
            let Some((_, next)) = lines.next() else {
                return Err(format!("line {}: unterminated array", lineno + 1));
            };
            value.push(' ');
            value.push_str(strip_comment(next).trim());
        }
        fields.push((key.to_string(), parse_toml_value(&value, lineno + 1)?));
    }
    Ok(Json::Obj(fields))
}

/// Yields `(byte_index, char, inside_string)` over `s`, tracking `"…"`
/// string state with backslash escapes — the same string grammar
/// [`parse_json`] accepts, so the structural scanners below never
/// mistake an escaped `\"` for a string boundary (and thus a `#`, `,`,
/// or bracket inside a string for structure). Quote characters
/// themselves report as in-string.
fn scan_strings(s: &str) -> impl Iterator<Item = (usize, char, bool)> + '_ {
    let mut in_str = false;
    let mut escaped = false;
    s.char_indices().map(move |(i, c)| {
        let was_in = in_str;
        if in_str {
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_str = false;
            }
        } else if c == '"' {
            in_str = true;
        }
        (i, c, was_in || in_str)
    })
}

/// Strips a `#` comment, respecting `"…"` strings.
fn strip_comment(line: &str) -> &str {
    for (i, c, in_str) in scan_strings(line) {
        if c == '#' && !in_str {
            return &line[..i];
        }
    }
    line
}

/// Net count of unclosed `[` outside strings.
fn open_brackets(s: &str) -> i32 {
    let mut depth = 0;
    for (_, c, in_str) in scan_strings(s) {
        match c {
            '[' if !in_str => depth += 1,
            ']' if !in_str => depth -= 1,
            _ => {}
        }
    }
    depth
}

fn parse_toml_value(s: &str, lineno: usize) -> Result<Json, String> {
    let s = s.trim();
    if s.starts_with('[') {
        if !s.ends_with(']') {
            return Err(format!("line {lineno}: unterminated array"));
        }
        let inner = &s[1..s.len() - 1];
        let mut items = Vec::new();
        for part in split_toml_items(inner) {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            if part.starts_with('[') {
                return Err(format!("line {lineno}: nested arrays are not supported"));
            }
            items.push(parse_toml_value(part, lineno)?);
        }
        return Ok(Json::Arr(items));
    }
    if s.starts_with('"') {
        // A scalar string is a one-item JSON document.
        return parse_json(s).map_err(|e| format!("line {lineno}: bad string: {e}"));
    }
    match s {
        "true" => return Ok(Json::Bool(true)),
        "false" => return Ok(Json::Bool(false)),
        _ => {}
    }
    // TOML allows 1_000_000 digit separators.
    let cleaned: String = s.chars().filter(|&c| c != '_').collect();
    cleaned
        .parse::<f64>()
        .map(Json::Num)
        .map_err(|_| format!("line {lineno}: bad value {s:?}"))
}

/// Splits array items on commas outside strings.
fn split_toml_items(s: &str) -> Vec<&str> {
    let mut items = Vec::new();
    let mut start = 0;
    for (i, c, in_str) in scan_strings(s) {
        if c == ',' && !in_str {
            items.push(&s[start..i]);
            start = i + 1;
        }
    }
    items.push(&s[start..]);
    items
}

/// The unsigned integer at `key`, or `default` when the spec omits it.
fn uint_or<T: TryFrom<u64>>(doc: &Json, key: &str, default: T) -> Result<T, String> {
    Ok(doc.opt(key, Json::uint_at)?.unwrap_or(default))
}

/// The non-empty array at `key` with every item read through `read`
/// (`what` names the item type in the error), or `default` when the
/// spec omits the field.
fn list<T>(
    doc: &Json,
    key: &str,
    default: Vec<T>,
    what: &str,
    read: impl Fn(&Json) -> Option<T>,
) -> Result<Vec<T>, String> {
    let Some(arr) = doc.opt(key, Json::arr_at)? else {
        return Ok(default);
    };
    if arr.is_empty() {
        return Err(format!("spec field {key:?} must be non-empty"));
    }
    arr.iter()
        .map(|item| {
            read(item).ok_or_else(|| format!("spec field {key:?} must contain only {what}"))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const MINI: &str = r#"
        # mini grid
        name = "mini"
        schemes = ["lr-seluge", "seluge"]
        topologies = ["star:6"]   # one-hop
        loss_ppm = [
            50_000,  # 5%
            200_000,
        ]
        seeds = 3
    "#;

    #[test]
    fn toml_subset_parses_the_mini_grid() {
        let spec = CampaignSpec::parse(MINI).unwrap();
        assert_eq!(spec.name, "mini");
        assert_eq!(spec.schemes, ["lr-seluge", "seluge"]);
        assert_eq!(spec.loss_ppm, [50_000, 200_000]);
        assert_eq!(spec.seeds, 3);
        // Defaults fill the rest.
        assert_eq!(spec.faults, ["none"]);
        assert_eq!(spec.profile, "campaign");
        assert_eq!(spec.cells().len() as u64 * spec.seeds, 2 * 2 * 3);
    }

    #[test]
    fn json_spec_and_manifest_round_trip() {
        let spec = CampaignSpec::parse(MINI).unwrap();
        let text = spec.to_json().render();
        // A JSON spec document parses identically...
        assert_eq!(CampaignSpec::parse(&text).unwrap(), spec);
        // ...as does the manifest-embedded copy.
        assert_eq!(
            CampaignSpec::from_json(&parse_json(&text).unwrap()).unwrap(),
            spec
        );
        // Counts past u32 (`seeds` was written as one) and past f64's
        // exact integers survive the manifest.
        let big = CampaignSpec::parse(
            "{\"name\":\"x\",\"seeds\":5000000000,\"seed_base\":9007199254740993}",
        )
        .unwrap();
        assert_eq!(CampaignSpec::parse(&big.to_json().render()).unwrap(), big);
        // So do the noise model, a grid spacing and profile knobs.
        let table = CampaignSpec::parse(
            "name = \"t\"\ntopologies = [\"grid:4:15\"]\nnoise = \"heavy\"\n\
             profile = \"paper:n=40,code=xor,tx=union\"\nimage_bytes = 4096",
        )
        .unwrap();
        assert_eq!(table.noise, "heavy");
        assert_eq!(spec.noise, "none");
        assert_eq!(
            CampaignSpec::parse(&table.to_json().render()).unwrap(),
            table
        );
    }

    #[test]
    fn cell_order_is_canonical() {
        let spec = CampaignSpec::parse(MINI).unwrap();
        let cells = spec.cells();
        assert_eq!(cells.len(), 4);
        // Scheme is the outermost axis, loss the innermost varying one.
        assert_eq!(cells[0].scheme, "lr-seluge");
        assert_eq!(cells[0].loss_ppm, 50_000);
        assert_eq!(cells[1].loss_ppm, 200_000);
        assert_eq!(cells[2].scheme, "seluge");
    }

    #[test]
    fn cell_params_order_and_display() {
        let cell = CampaignSpec::parse(MINI).unwrap().cells().remove(0);
        assert_eq!(
            cell.to_string(),
            "lr-seluge star:6 loss=50000 fault=none atk=none"
        );
        assert_eq!(CellParams::from_json(&cell.to_json()), Ok(cell.clone()));
        let other = CellParams {
            loss_ppm: 200_000,
            ..cell.clone()
        };
        assert!(cell < other);
    }

    #[test]
    fn bad_specs_are_rejected_with_context() {
        for (text, needle) in [
            ("schemes = [\"lr-seluge\"]", "missing required"),
            ("name = \"x\"\nschemes = [\"bogus\"]", "unknown scheme"),
            (
                "name = \"x\"\ntopologies = [\"ring:5\"]",
                "unknown topology",
            ),
            ("name = \"x\"\ntopologies = [\"star:1\"]", "2..=16384 nodes"),
            // `grid:S` used to wrap to 0 nodes; `star:N` had no ceiling
            // and died allocating.
            (
                "name = \"x\"\ntopologies = [\"grid:4294967296\"]",
                "2..=16384 nodes",
            ),
            (
                "name = \"x\"\ntopologies = [\"star:100000000000\"]",
                "2..=16384 nodes",
            ),
            (
                "name = \"x\"\ntopologies = [\"star:16385\"]",
                "2..=16384 nodes",
            ),
            (
                "name = \"x\"\ntopologies = [\"grid:129\"]",
                "2..=16384 nodes",
            ),
            ("name = \"x\"\nloss_ppm = [1000000]", "below 1000000"),
            ("name = \"x\"\nfaults = [\"crash=2.0\"]", "outside [0, 1]"),
            (
                "name = \"x\"\nfaults = [\"melt=0.5\"]",
                "unknown fault knob",
            ),
            ("name = \"x\"\nattackers = [\"ddos\"]", "unknown attacker"),
            ("name = \"x\"\nseeds = 0", "at least 1"),
            (
                "name = \"x\"\nfault_horizon_s = 0",
                "fault_horizon_s must be",
            ),
            // A zero stall window used to stall every job at its start.
            ("name = \"x\"\nstall_s = 0", "stall_s must be at least 1"),
            (
                "name = \"x\"\ntopologies = [\"grid:15:0\"]",
                "bad grid spacing in \"grid:15:0\"",
            ),
            (
                "name = \"x\"\ntopologies = [\"grid:15:x\"]",
                "bad grid spacing in \"grid:15:x\"",
            ),
            (
                "name = \"x\"\ntopologies = [\"star:5:3\"]",
                "bad topology token \"star:5:3\"; expected",
            ),
            ("name = \"x\"\nnoise = \"loud\"", "unknown noise \"loud\""),
            (
                "name = \"x\"\nprofile = \"paper:n=0\"",
                "profile = \"paper:n=0\": knobs leave a bad page geometry: need 1 <= k <= n",
            ),
            (
                "name = \"x\"\nprofile = \"paper:n=x\"",
                "bad knob \"n=x\"",
            ),
            (
                "name = \"x\"\nprofile = \"paper:code=foo\"",
                "bad profile knob \"code=foo\" in \"paper:code=foo\"",
            ),
            (
                "name = \"x\"\nprofile = \"paper:tx=greedy\"",
                "bad profile knob \"tx=greedy\"",
            ),
            (
                "name = \"x\"\nprofile = \"paper:k=8\"",
                "bad profile knob \"k=8\"",
            ),
            // Each of these panicked converting to microseconds (debug)
            // or wrapped to a wrong limit (release).
            (
                "name = \"x\"\nfaults = [\"crash=0.5\"]\nfault_horizon_s = 20_000_000_000_000",
                "fault_horizon_s = 20000000000000 is above",
            ),
            (
                "name = \"x\"\ndeadline_s = 20_000_000_000_000",
                "deadline_s = 20000000000000 is above",
            ),
            (
                "name = \"x\"\nstall_s = 20_000_000_000_000",
                "stall_s = 20000000000000 is above",
            ),
            // `Campaign::job_seed` overflowed on the last jobs.
            (
                "{\"name\":\"x\",\"seed_base\":18446744073709551615}",
                "seed_base = 18446744073709551615 plus 16 jobs overflows",
            ),
            (
                "{\"name\":\"x\",\"seeds\":18446744073709551615}",
                "seeds = 18446744073709551615 times 2 cells overflows",
            ),
            (
                "name = \"x\"\nmax_sim_s = 600",
                "unknown spec key \"max_sim_s\"",
            ),
            // A misspelt key used to run the default grid silently.
            (
                "name = \"x\"\ntopologys = [\"star:10\"]\nseed = 2",
                "unknown spec key \"topologys\"; known: [\"name\", \"schemes\", \"topologies\",",
            ),
            ("{\"name\":\"x\",\"seed\":2}", "unknown spec key \"seed\""),
            // The retired engine knobs are unknown keys like any other.
            (
                "name = \"x\"\nengine = \"auto\"",
                "unknown spec key \"engine\"",
            ),
            ("name = \"x\"\nshards = 4", "unknown spec key \"shards\""),
            // (Split so a tree-wide grep for the removed knob stays empty.)
            (
                concat!("name = \"x\"\nsharded_", "threshold = 64"),
                concat!("unknown spec key \"sharded_", "threshold\""),
            ),
            // The first job aborted allocating the image; the second
            // panicked building an empty deployment.
            (
                "name = \"huge\"\nschemes = [\"lr-seluge\"]\nimage_bytes = 100000000000000\nseeds = 1\n",
                "image_bytes = 100000000000000: a 100000000000000-byte image needs",
            ),
            ("name = \"x\"\nimage_bytes = 0", "image_bytes = 0: empty image"),
            (
                "name = \"x\"\nprofile = \"nope\"",
                "profile = \"nope\": unknown parameter profile",
            ),
            // 65533 of the paper's 1920-byte pages hold 125823360 bytes.
            (
                "name = \"x\"\nprofile = \"paper\"\nimage_bytes = 125823361",
                "image_bytes = 125823361: a 125823361-byte image needs",
            ),
            ("[table]\nname = \"x\"", "tables are not supported"),
            ("name = \"x\"\nloss_ppm = [[1]]", "nested arrays"),
        ] {
            let err = CampaignSpec::parse(text).unwrap_err();
            assert!(err.contains(needle), "{text:?} gave {err:?}");
        }
        // The layout check is the chosen profile's: 30 MB needs more of
        // the `campaign` profile's 352-byte pages than the wire
        // addresses, and fits the paper's.
        let sized = |profile: &str| {
            CampaignSpec::parse(&format!(
                "name = \"x\"\nprofile = \"{profile}\"\nimage_bytes = 30000000"
            ))
        };
        assert!(sized("campaign").is_err());
        assert_eq!(sized("paper").unwrap().profile, "paper");
    }

    #[test]
    fn fault_horizon_defaults_to_the_ceiling_and_scales_flaps() {
        // The one time limit is the deadline, 3000 s unless set.
        let spec = CampaignSpec::parse(MINI).unwrap();
        assert_eq!(spec.deadline_s, 3_000);
        assert_eq!(spec.fault_horizon_s, spec.deadline_s);
        let long = CampaignSpec::parse("name = \"x\"\ndeadline_s = 5000").unwrap();
        assert_eq!(long.fault_horizon_s, 5_000);

        let short =
            CampaignSpec::parse("name = \"x\"\nschemes = [\"deluge\"]\nfault_horizon_s = 20")
                .unwrap();
        assert_eq!(short.fault_horizon(), Duration::from_secs(20));
        let flap = fault_config("flap=0.4", short.fault_horizon()).unwrap();
        assert_eq!(flap.up_sojourn, Duration::from_secs(8));
        assert_eq!(flap.down_sojourn, Duration::from_secs(3));
    }

    #[test]
    fn escaped_quotes_do_not_confuse_the_scanners() {
        // `\"` inside a string must not toggle string state, so the
        // `#`, `,`, and `]` that follow stay part of the value instead
        // of being read as comment/separator/close-bracket.
        let doc = parse_toml_subset(
            "name = \"a\\\"b # not a comment\"\nxs = [\"c,\\\"d\", \"e]f\"]  # real comment",
        )
        .unwrap();
        assert_eq!(
            doc.get("name").and_then(Json::as_str),
            Some("a\"b # not a comment")
        );
        let xs: Vec<&str> = doc
            .get("xs")
            .and_then(Json::as_arr)
            .expect("xs is an array")
            .iter()
            .filter_map(Json::as_str)
            .collect();
        assert_eq!(xs, ["c,\"d", "e]f"]);
    }

    #[test]
    fn fault_tokens_build_configs() {
        let horizon = Duration::from_secs(3_000);
        let quiet = fault_config("none", horizon).unwrap();
        assert_eq!(quiet.crash_rate, 0.0);
        assert_eq!(quiet.horizon, horizon);
        let both = fault_config("crash=0.5,flap=0.3", horizon).unwrap();
        assert_eq!(both.crash_rate, 0.5);
        assert_eq!(both.link_flap_rate, 0.3);
        assert_eq!(
            both.reboot_after,
            Some((Duration::from_secs(30), Duration::from_secs(120)))
        );
        // The full vocabulary, with an explicit reboot window.
        let all = fault_config(
            "crash=0.25,reboot=5-20.5,flap=0.1,degrade=0.75,drift=150000",
            horizon,
        )
        .unwrap();
        assert_eq!(all.crash_rate, 0.25);
        assert_eq!(
            all.reboot_after,
            Some((Duration::from_secs(5), Duration::from_micros(20_500_000)))
        );
        assert_eq!(all.degrade_rate, 0.75);
        assert_eq!(all.drift_ppm, 150_000);
        // crash=0 means nobody crashes, so nobody reboots either.
        let no_crash = fault_config("crash=0,flap=0.2", horizon).unwrap();
        assert_eq!(no_crash.reboot_after, None);
    }

    #[test]
    fn bad_fault_tokens_are_rejected() {
        let horizon = Duration::from_secs(100);
        for (token, needle) in [
            ("crash", "expected key=value"),
            ("reboot=10-60", "without crash"),
            ("crash=0,reboot=10-60", "without crash"),
            ("crash=0.5,reboot=60", "expected lo-hi"),
            ("crash=0.5,reboot=60-10", "0 < lo <= hi"),
            ("crash=0.5,reboot=0-10", "0 < lo <= hi"),
            // A downtime of u64::MAX µs overflowed the reboot time.
            ("crash=0.5,reboot=1-1e300", "hi <= 4294967296"),
            ("drift=abc", "bad drift ppm"),
            ("drift=900000", "above 500000"),
            ("degrade=1.5", "outside [0, 1]"),
        ] {
            let err = fault_config(token, horizon).unwrap_err();
            assert!(err.contains(needle), "{token:?} gave {err:?}");
        }
    }

    #[test]
    fn attack_tokens_build_configs() {
        // Legacy tokens bypass the plan engine.
        assert_eq!(attack_config("none").unwrap(), None);
        assert_eq!(attack_config("storm").unwrap(), None);
        let c = attack_config("bogus=4").unwrap().unwrap();
        assert_eq!(c.vector, AttackVector::BogusData);
        assert_eq!(c.interval, Duration::from_millis(250));
        assert_eq!(c.attackers, 1);
        assert_eq!(c.burst, None);
        let c = attack_config("spoofdor=0.5,burst=2-8,n=3")
            .unwrap()
            .unwrap();
        assert_eq!(c.vector, AttackVector::SpoofedDenialOfReceipt);
        assert_eq!(c.interval, Duration::from_secs(2));
        assert_eq!(
            c.burst,
            Some((Duration::from_secs(2), Duration::from_secs(8)))
        );
        assert_eq!(c.attackers, 3);
    }

    #[test]
    fn bad_attack_tokens_are_rejected() {
        for (token, needle) in [
            ("ddos", "unknown attacker"),
            ("blizzard=4", "unknown attacker"),
            ("burst=2-8", "names no vector knob"),
            ("bogus=4,dor=2", "more than one vector"),
            ("bogus=0", "outside [1/4294967296, 100]"),
            ("bogus=200", "outside [1/4294967296, 100]"),
            // A rate this small saturated the interval at u64::MAX µs.
            ("bogus=1e-300", "outside [1/4294967296, 100]"),
            ("bogus=nope", "bad rate"),
            ("dor=2,burst=5", "expected on-off"),
            ("dor=2,burst=0-5", "on > 0"),
            // `on + off` overflowed at the first injection.
            ("dor=2,burst=1e300-1e300", "at most 4294967296"),
            ("dor=2,n=0", "outside 1..=16"),
            ("dor=2,n=99", "outside 1..=16"),
        ] {
            let err = attack_config(token).unwrap_err();
            assert!(err.contains(needle), "{token:?} gave {err:?}");
        }
    }

    #[test]
    fn topology_tokens_size_and_build() {
        assert_eq!(parse_topology("star:10").unwrap(), ("star", 10, 8));
        assert_eq!(parse_topology("grid:4").unwrap(), ("grid", 4, 8));
        assert_eq!(parse_topology("grid:15:15").unwrap(), ("grid", 15, 15));
        // The cap admits the 100×100 grid and is inclusive.
        assert!(parse_topology("grid:100").is_ok());
        assert!(parse_topology("star:16384").is_ok());
        assert!(parse_topology("grid:128").is_ok());
        assert_eq!(build_topology("star:10", 7).unwrap().len(), 10);
        assert_eq!(build_topology("grid:3", 7).unwrap().len(), 9);
        // Grid links are a per-seed draw; star links are not.
        let a = build_topology("grid:3", 1).unwrap();
        let b = build_topology("grid:3", 2).unwrap();
        assert_ne!(a, b);
        // `grid:S` is `grid:S:8`; another spacing is another grid.
        assert_eq!(build_topology("grid:3:8", 1).unwrap(), a);
        assert_ne!(build_topology("grid:3:15", 1).unwrap(), a);
    }
}
