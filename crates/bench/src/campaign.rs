//! Checkpointed Monte-Carlo campaign engine.
//!
//! A campaign is a fleet of simulation jobs — the full product grid of a
//! [`CampaignSpec`] — executed by the harness's work-stealing pool
//! ([`run_jobs`]). Each cell keeps its jobs' logged records, and the
//! report summarizes each metric over them with [`Summary::of`]. Every
//! `paper` figure and table point is a one-cell campaign
//! ([`run_cells`](crate::sweep::run_cells)). Each job **is**
//! a replay capsule (seed × config × topology × fault plan × scenario
//! tags), which buys three properties at once:
//!
//! * any job can be exported as a bit-exact reproducer *before* it runs
//!   ([`Campaign::job_capsule`]: the job's plan is built as a capsule
//!   first and executed from it);
//! * any job that ends diagnostically (stalled, invariant violated)
//!   dumps a failure capsule under `failures/`, immediately consumable
//!   by the `replay` binary; and
//! * the campaign state on disk is nothing but a manifest plus an
//!   append-only completion log — kill -9 at any instant loses at most
//!   the jobs in flight.
//!
//! # On-disk layout
//!
//! ```text
//! <dir>/manifest.json   # {"version":2,"spec":{…}} — the canonical spec
//! <dir>/jobs.log        # JSONL, one completed job per line, appended+flushed
//! <dir>/report.json     # per-cell aggregates; written only on completion
//! <dir>/failures/       # job-<id>.jsonl failure capsules
//! ```
//!
//! The manifest embeds the spec verbatim, so `--resume <dir>` needs no
//! spec file and cannot drift from the grid the campaign started with.
//! The log is tolerant of a torn final line (the kill -9 signature) and
//! deduplicates job ids first-wins; before appending, a resumed run
//! truncates any torn tail so a new record is never glued onto it.
//!
//! # Determinism
//!
//! Job results are deterministic (each job's seed derives from its id),
//! but workers complete them in schedule-dependent order, and the
//! summary's mean is order-*sensitive* in its low-order bits. Records
//! are therefore filed by job id as they arrive, and the report hands
//! each cell's samples to the summary in **canonical job-id order**.
//! Final reports are byte-identical across `--threads 1/2/8` and across
//! any kill/resume split.

use crate::capsules::{population, ScenarioTags};
use crate::harness::run_jobs;
use crate::json::{parse_json, Json};
use crate::runner::{simulate, ExperimentMetrics, Matched};
use crate::spec::{attack_config, build_topology, fault_config, CampaignSpec, CellParams};
use crate::with_scheme;
use lrs_analysis::Summary;
use lrs_deluge::attack::AttackPlan;
use lrs_host::node::NodeId;
use lrs_host::time::Duration;
use lrs_netsim::capsule::Capsule;
use lrs_netsim::fault::FaultPlan;
use lrs_netsim::topology::Topology;
use std::collections::BTreeSet;
use std::fs;
use std::io::{Read as _, Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};

/// Manifest file name inside a campaign directory.
pub const MANIFEST: &str = "manifest.json";
/// Completion-log file name (JSONL, append-only).
pub const JOB_LOG: &str = "jobs.log";
/// Consolidated report file name; exists only once every job finished.
pub const REPORT: &str = "report.json";
/// Subdirectory failure capsules land in.
pub const FAILURE_DIR: &str = "failures";

/// Manifest format version this code writes and accepts. Version 1
/// embedded a spec with a second time limit (`max_sim_s`) and, before
/// `fault_horizon_s` existed, fixed flap sojourns.
pub const MANIFEST_VERSION: f64 = 2.0;

/// Outcome labels in fixed report order (the order of
/// [`Outcome`](lrs_netsim::sim::Outcome)'s variants).
pub const OUTCOME_LABELS: [&str; 5] = [
    "complete",
    "timed_out",
    "drained",
    "stalled",
    "invariant_violated",
];

/// Outcome labels that dump a failure capsule.
const DIAGNOSTIC_LABELS: [&str; 2] = ["stalled", "invariant_violated"];

/// One completed job, as logged: the unit of checkpointing.
///
/// Metrics travel as an array in [`ExperimentMetrics::NAMES`] order;
/// floats are rendered shortest-round-trip (NaN as `null`), so a logged
/// record reparses to the exact bits the run produced — the property
/// resume bit-identity rests on.
#[derive(Clone, Debug, PartialEq)]
pub struct JobRecord {
    /// Global job id: `cell_index * seeds + repetition`.
    pub job: usize,
    /// Grid-cell index in canonical [`CampaignSpec::cells`] order.
    pub cell: usize,
    /// Simulator seed the job ran with.
    pub seed: u64,
    /// Outcome label (see [`OUTCOME_LABELS`]).
    pub outcome: String,
    /// Metric values in [`ExperimentMetrics::NAMES`] order.
    pub metrics: [f64; ExperimentMetrics::NAMES.len()],
}

impl JobRecord {
    /// The value of the metric called `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not one of [`ExperimentMetrics::NAMES`].
    pub fn get(&self, name: &str) -> f64 {
        let at = ExperimentMetrics::NAMES.iter().position(|n| *n == name);
        self.metrics[at.unwrap_or_else(|| panic!("unknown metric {name:?}"))]
    }

    /// Whether this job ended diagnostically (and dumped a capsule).
    pub fn is_failure(&self) -> bool {
        DIAGNOSTIC_LABELS.contains(&self.outcome.as_str())
    }

    /// The record as one log line's JSON value.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("job".into(), Json::Num(self.job as f64)),
            ("cell".into(), Json::Num(self.cell as f64)),
            ("seed".into(), Json::uint(self.seed)),
            ("outcome".into(), Json::str(&self.outcome)),
            (
                "metrics".into(),
                Json::Arr(self.metrics.iter().map(|&v| Json::Num(v)).collect()),
            ),
        ])
    }

    /// Parses one log line's JSON value.
    pub fn from_json(v: &Json) -> Result<Self, String> {
        let outcome = v.str_at("outcome")?.to_string();
        if !OUTCOME_LABELS.contains(&outcome.as_str()) {
            return Err(format!("job record has unknown outcome {outcome:?}"));
        }
        let arr = v.arr_at("metrics")?;
        if arr.len() != ExperimentMetrics::NAMES.len() {
            return Err(format!(
                "job record has {} metrics; expected {}",
                arr.len(),
                ExperimentMetrics::NAMES.len()
            ));
        }
        let mut metrics = [0.0; ExperimentMetrics::NAMES.len()];
        for (slot, item) in metrics.iter_mut().zip(arr) {
            *slot = item
                .as_num()
                .ok_or("job record metric is not a number or null")?;
        }
        Ok(JobRecord {
            job: v.uint_at("job")?,
            cell: v.uint_at("cell")?,
            seed: v.uint_at("seed")?,
            outcome,
            metrics,
        })
    }
}

/// Completed jobs filed by job id, whatever order they arrive in (workers
/// race, resume replays the log): the report reads them back in id
/// order, so it is independent of thread count and of where a crash
/// split the run.
struct Aggregator {
    cells: usize,
    records: Vec<Option<JobRecord>>,
}

impl Aggregator {
    fn new(jobs: usize, cells: usize) -> Self {
        Aggregator {
            cells,
            records: vec![None; jobs],
        }
    }

    fn insert(&mut self, record: JobRecord) -> Result<(), String> {
        if record.cell >= self.cells {
            return Err(format!(
                "job {} names cell {} out of range",
                record.job, record.cell
            ));
        }
        match self.records.get_mut(record.job) {
            None => Err(format!("job {} out of range", record.job)),
            Some(Some(_)) => Err(format!("job {} aggregated twice", record.job)),
            Some(slot) => {
                *slot = Some(record);
                Ok(())
            }
        }
    }

    /// Every record in job-id order, or an error naming the first job
    /// that has none.
    fn all(&self) -> Result<Vec<&JobRecord>, String> {
        let total = self.records.len();
        self.records
            .iter()
            .enumerate()
            .map(|(job, record)| {
                record.as_ref().ok_or_else(|| {
                    format!("completion log has gaps: job {job} of {total} never completed")
                })
            })
            .collect()
    }
}

/// Summary of a finished campaign, for callers of [`Campaign::run`].
#[derive(Clone, Debug)]
pub struct CampaignReport {
    /// Total jobs aggregated (grid size).
    pub jobs: usize,
    /// Failure-capsule paths, one per diagnostic job, in job order.
    pub failures: Vec<String>,
    /// Every job's record, in job-id order.
    pub records: Vec<JobRecord>,
    /// The rendered `report.json` document.
    pub json: Json,
}

/// A campaign bound to its on-disk directory.
pub struct Campaign {
    spec: CampaignSpec,
    cells: Vec<CellParams>,
    dir: PathBuf,
}

impl Campaign {
    /// Starts a fresh campaign: creates `<dir>` (and `failures/`) and
    /// writes the manifest. Refuses a directory that already holds one —
    /// that is what [`resume`](Self::resume) is for.
    pub fn create(spec: CampaignSpec, dir: impl Into<PathBuf>) -> Result<Self, String> {
        let dir = dir.into();
        let manifest = dir.join(MANIFEST);
        if manifest.exists() {
            return Err(format!(
                "{} already holds a campaign; resume it instead",
                dir.display()
            ));
        }
        fs::create_dir_all(dir.join(FAILURE_DIR))
            .map_err(|e| format!("create {}: {e}", dir.display()))?;
        let doc = Json::Obj(vec![
            ("version".into(), Json::Num(MANIFEST_VERSION)),
            ("spec".into(), spec.to_json()),
        ]);
        fs::write(&manifest, doc.render() + "\n")
            .map_err(|e| format!("write {}: {e}", manifest.display()))?;
        Ok(Self::offline(spec, dir))
    }

    /// Binds a campaign to `dir` purely in memory — no directory, no
    /// manifest, nothing on disk. For spec-only operations like
    /// `--export-job`, where creating (or colliding with) an on-disk
    /// campaign would be a side effect, not a feature. Running an
    /// offline campaign works but checkpoints into a `dir` that was
    /// never initialized; use [`create`](Self::create) for that.
    pub fn offline(spec: CampaignSpec, dir: impl Into<PathBuf>) -> Self {
        Campaign {
            cells: spec.cells(),
            spec,
            dir: dir.into(),
        }
    }

    /// Reopens the campaign in `<dir>` from its manifest. The embedded
    /// spec is re-validated, so a hand-edited manifest fails loudly.
    pub fn resume(dir: impl Into<PathBuf>) -> Result<Self, String> {
        let dir = dir.into();
        let manifest = dir.join(MANIFEST);
        let text = fs::read_to_string(&manifest)
            .map_err(|e| format!("read {}: {e}", manifest.display()))?;
        let doc = parse_json(&text).map_err(|e| format!("{}: {e}", manifest.display()))?;
        let version = doc.get("version").and_then(Json::as_num).unwrap_or(0.0);
        if version != MANIFEST_VERSION {
            return Err(format!(
                "{}: manifest version {version} unsupported (want {MANIFEST_VERSION}); \
                 restart it from its spec file",
                manifest.display()
            ));
        }
        let spec_doc = doc
            .get("spec")
            .ok_or_else(|| format!("{}: manifest has no spec", manifest.display()))?;
        let spec = CampaignSpec::from_json(spec_doc)?;
        fs::create_dir_all(dir.join(FAILURE_DIR))
            .map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(Campaign {
            cells: spec.cells(),
            spec,
            dir,
        })
    }

    /// The campaign's spec (as embedded in the manifest).
    pub fn spec(&self) -> &CampaignSpec {
        &self.spec
    }

    /// The campaign directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Total jobs in the grid.
    pub fn total_jobs(&self) -> usize {
        self.cells.len() * self.spec.seeds as usize
    }

    /// The simulator seed job `id` runs with.
    pub fn job_seed(&self, job: usize) -> u64 {
        self.spec.seed_base + job as u64
    }

    /// Completed jobs from the log, deduplicated first-wins. A torn
    /// final line (the kill -9 signature) is ignored; a corrupt line
    /// anywhere *else* is an error — that is damage, not a crash.
    pub fn completed(&self) -> Result<Vec<JobRecord>, String> {
        let path = self.dir.join(JOB_LOG);
        let text = match fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(format!("read {}: {e}", path.display())),
        };
        let lines: Vec<&str> = text.lines().collect();
        let mut seen = BTreeSet::new();
        let mut records = Vec::new();
        for (i, line) in lines.iter().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let parsed = parse_json(line).and_then(|v| JobRecord::from_json(&v));
            match parsed {
                Ok(record) => {
                    if record.job >= self.total_jobs() {
                        return Err(format!(
                            "{}:{}: job {} outside this campaign's {} jobs",
                            path.display(),
                            i + 1,
                            record.job,
                            self.total_jobs()
                        ));
                    }
                    if seen.insert(record.job) {
                        records.push(record);
                    }
                }
                Err(e) if i + 1 == lines.len() => {
                    // Torn tail: the process died mid-append. The job
                    // will simply re-run.
                    eprintln!(
                        "campaign: ignoring torn final log line ({} bytes): {e}",
                        line.len()
                    );
                }
                Err(e) => return Err(format!("{}:{}: {e}", path.display(), i + 1)),
            }
        }
        Ok(records)
    }

    /// Truncates a torn final log line (one with no trailing newline —
    /// the kill -9 mid-append signature) back to the end of the last
    /// complete line. [`completed`](Self::completed) merely *tolerates*
    /// a torn tail; before appending it must be removed, or the first
    /// new record would be glued onto it, turning a recoverable torn
    /// tail into a permanently corrupt mid-file line.
    fn repair_log_tail(&self) -> Result<(), String> {
        let path = self.dir.join(JOB_LOG);
        let mut file = match fs::OpenOptions::new().read(true).write(true).open(&path) {
            Ok(file) => file,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(()),
            Err(e) => return Err(format!("open {}: {e}", path.display())),
        };
        let len = file
            .metadata()
            .map_err(|e| format!("stat {}: {e}", path.display()))?
            .len();
        if len == 0 {
            return Ok(());
        }
        // Scan backwards in chunks for the last newline; everything
        // after it is the torn tail. Log lines are short, so the first
        // chunk almost always settles it.
        let mut keep = 0;
        let mut end = len;
        while end > 0 {
            let start = end.saturating_sub(4096);
            let mut buf = vec![0u8; (end - start) as usize];
            file.seek(SeekFrom::Start(start))
                .and_then(|_| file.read_exact(&mut buf))
                .map_err(|e| format!("read {}: {e}", path.display()))?;
            if end == len && buf.last() == Some(&b'\n') {
                return Ok(());
            }
            if let Some(i) = buf.iter().rposition(|&b| b == b'\n') {
                keep = start + i as u64 + 1;
                break;
            }
            end = start;
        }
        eprintln!(
            "campaign: truncating torn {}-byte tail of {} before appending",
            len - keep,
            path.display()
        );
        file.set_len(keep)
            .map_err(|e| format!("truncate {}: {e}", path.display()))?;
        file.sync_data()
            .map_err(|e| format!("sync {}: {e}", path.display()))?;
        Ok(())
    }

    /// Runs (or resumes) the campaign on `threads` workers.
    ///
    /// `kill_after` caps how many *new* jobs this invocation executes
    /// before stopping without a report — the crash-resume tests' way of
    /// simulating a kill at a deterministic point. `None` runs to
    /// completion, writes `report.json`, and returns the report;
    /// `Some(k)` short of the remaining work returns `Ok(None)`.
    pub fn run(
        &self,
        threads: usize,
        kill_after: Option<usize>,
    ) -> Result<Option<CampaignReport>, String> {
        let total = self.total_jobs();
        let mut agg = Aggregator::new(total, self.cells.len());
        for record in self.completed()? {
            agg.insert(record)?;
        }
        let todo: Vec<usize> = (0..total).filter(|&id| agg.records[id].is_none()).collect();
        let limit = kill_after.unwrap_or(todo.len()).min(todo.len());

        if limit > 0 {
            self.repair_log_tail()?;
            let log_path = self.dir.join(JOB_LOG);
            let mut log = fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(&log_path)
                .map_err(|e| format!("open {}: {e}", log_path.display()))?;
            // Checkpoint-then-aggregate, one line per completion. The
            // aggregator is fed the *reparsed* line, so the live path
            // and the resume path see byte-for-byte the same values.
            run_jobs(
                limit,
                threads,
                |i| self.execute(todo[i]),
                |_, record| {
                    let line = record.to_json().render();
                    log.write_all(line.as_bytes())
                        .and_then(|_| log.write_all(b"\n"))
                        .and_then(|_| log.flush())
                        .map_err(|e| format!("append {}: {e}", log_path.display()))?;
                    agg.insert(JobRecord::from_json(&parse_json(&line)?)?)
                },
            )?;
        }

        if limit < todo.len() {
            return Ok(None);
        }
        let records = agg.all()?;
        let json = self.render_report(&records);
        let path = self.dir.join(REPORT);
        fs::write(&path, json.render() + "\n")
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        let failures = records
            .iter()
            .filter(|record| record.is_failure())
            .map(|record| self.failure_capsule_path(record.job))
            .collect();
        Ok(Some(CampaignReport {
            jobs: total,
            failures,
            json,
            records: records.into_iter().cloned().collect(),
        }))
    }

    /// Renders the consolidated per-cell report from every job's record,
    /// in job-id order: each metric of a cell is [`Summary::of`] its
    /// jobs' values in that order. Deliberately excludes wall-clock time
    /// and thread count, so the document is a pure function of the
    /// records — the golden-file and bit-identity tests diff it byte for
    /// byte.
    fn render_report(&self, records: &[&JobRecord]) -> Json {
        let mut by_cell: Vec<Vec<&JobRecord>> = vec![Vec::new(); self.cells.len()];
        for &record in records {
            by_cell[record.cell].push(record);
        }
        let cells = by_cell
            .iter()
            .zip(&self.cells)
            .map(|(jobs, params)| {
                let outcomes = OUTCOME_LABELS
                    .iter()
                    .map(|&label| (label, jobs.iter().filter(|r| r.outcome == label).count()))
                    .filter(|&(_, count)| count > 0)
                    .map(|(label, count)| (label.to_string(), Json::Num(count as f64)))
                    .collect();
                let metrics = ExperimentMetrics::NAMES
                    .iter()
                    .enumerate()
                    .map(|(i, &name)| {
                        let values: Vec<f64> = jobs.iter().map(|r| r.metrics[i]).collect();
                        let s = Summary::of(&values);
                        (
                            name.to_string(),
                            Json::Obj(vec![
                                ("n".into(), Json::Num(s.n as f64)),
                                ("mean".into(), Json::Num(s.mean)),
                                ("ci95".into(), Json::Num(s.ci95)),
                                ("p50".into(), Json::Num(s.p50)),
                                ("p95".into(), Json::Num(s.p95)),
                                ("min".into(), Json::Num(s.min)),
                                ("max".into(), Json::Num(s.max)),
                            ]),
                        )
                    })
                    .collect();
                let mut fields = vec![
                    (
                        "params".into(),
                        Json::Obj(vec![
                            ("scheme".into(), Json::str(&params.scheme)),
                            ("topology".into(), Json::str(&params.topology)),
                            ("loss_ppm".into(), Json::num(params.loss_ppm)),
                            ("fault".into(), Json::str(&params.fault)),
                            ("attacker".into(), Json::str(&params.attacker)),
                        ]),
                    ),
                    ("jobs".into(), Json::Num(jobs.len() as f64)),
                    ("outcomes".into(), Json::Obj(outcomes)),
                    ("metrics".into(), Json::Obj(metrics)),
                ];
                let failures: Vec<Json> = jobs
                    .iter()
                    .filter(|r| r.is_failure())
                    .map(|r| Json::Num(r.job as f64))
                    .collect();
                if !failures.is_empty() {
                    fields.push(("failures".into(), Json::Arr(failures)));
                }
                Json::Obj(fields)
            })
            .collect();
        Json::Obj(vec![
            ("campaign".into(), Json::str(&self.spec.name)),
            ("jobs".into(), Json::Num(self.total_jobs() as f64)),
            ("seeds".into(), Json::Num(self.spec.seeds as f64)),
            ("cells".into(), Json::Arr(cells)),
        ])
    }

    /// Where job `id`'s failure capsule lands if it ends diagnostically.
    pub fn failure_capsule_path(&self, job: usize) -> String {
        self.dir
            .join(FAILURE_DIR)
            .join(format!("job-{job:06}.jsonl"))
            .display()
            .to_string()
    }

    /// The scenario tags job `id` runs (and is capsule-tagged) with.
    /// Plan-token attackers get a seeded [`AttackPlan`] generated over
    /// the job's topology, so the tag pins the exact adversary placement
    /// the job executed.
    fn job_tags(
        &self,
        cell: &CellParams,
        seed: u64,
        topology: &Topology,
    ) -> Result<ScenarioTags, String> {
        let mut tags = ScenarioTags::new(
            &cell.scheme,
            &self.spec.profile,
            self.spec.image_bytes,
            "campaign keys",
        );
        if cell.attacker == "storm" {
            tags = tags.with_storm(NodeId(topology.len() as u32 - 1));
        } else if let Some(config) = attack_config(&cell.attacker)? {
            let nodes = topology.len() as u32;
            tags = tags.with_attack_plan(AttackPlan::generate(&config, nodes, seed));
        }
        Ok(tags)
    }

    /// Exports job `id` as a replay capsule *without running it*: the
    /// exact seed, config, topology, fault plan, and scenario tags the
    /// job executes, consumable by the `replay` binary.
    pub fn job_capsule(&self, job: usize) -> Result<Capsule, String> {
        Ok(self.job_plan(job)?.0)
    }

    /// Job `id` as the capsule it executes (and exports) plus the tags
    /// that capsule carries, still decoded.
    fn job_plan(&self, job: usize) -> Result<(Capsule, ScenarioTags), String> {
        if job >= self.total_jobs() {
            return Err(format!(
                "job {job} outside this campaign's {} jobs",
                self.total_jobs()
            ));
        }
        let cell = &self.cells[job / self.spec.seeds as usize];
        let seed = self.job_seed(job);
        let topology = build_topology(&cell.topology, seed)?;
        let faults = FaultPlan::generate(
            &fault_config(&cell.fault, self.spec.fault_horizon())?,
            &topology,
            seed,
        );
        let tags = self.job_tags(cell, seed, &topology)?;
        let capsule = Capsule {
            seed,
            deadline: Duration::from_secs(self.spec.deadline_s),
            config: self.spec.sim_config(cell.loss_ppm),
            topology,
            faults,
            scenario: tags.pairs(),
            digest: None,
        };
        Ok((capsule, tags))
    }

    /// Executes one job, literally its own capsule, to a loggable
    /// record.
    ///
    /// Spec and tokens were validated at parse time, so failures here
    /// are I/O-free logic errors; panicking (not `Err`) is correct —
    /// the job would never become retryable.
    fn execute(&self, job: usize) -> JobRecord {
        let (capsule, tags) = self.job_plan(job).expect("validated at parse time");
        with_scheme!(tags.scheme.as_str(), S => self.run_job::<S>(job, &capsule, &tags))
            .unwrap_or_else(|e| unreachable!("scheme validated at parse time: {e}"))
    }

    /// Scheme-generic single-job runner: one deployment per job supplies
    /// the node factory and the per-delivery invariant checker; the sim
    /// is built from the job's capsule, run, and its metrics extracted.
    /// A diagnostic outcome saves the capsule with its digest to
    /// [`failure_capsule_path`](Self::failure_capsule_path); the write is
    /// best-effort (an I/O error goes to stderr and the job still logs
    /// its record), because the run itself succeeded.
    fn run_job<S: Matched>(&self, job: usize, capsule: &Capsule, tags: &ScenarioTags) -> JobRecord {
        let pop = population::<S>(tags).expect("profile validated at parse time");
        let done = simulate(&pop, capsule, true, Vec::new());
        if let Some(failure) = done.failure_capsule(capsule) {
            let path = self.failure_capsule_path(job);
            if let Err(err) = failure.save(&path) {
                eprintln!("warning: failed to write failure capsule {path}: {err}");
            }
        }
        JobRecord {
            job,
            cell: job / self.spec.seeds as usize,
            seed: capsule.seed,
            outcome: done.report.outcome.label().to_string(),
            metrics: done.metrics().named().map(|(_, value)| value),
        }
    }
}
