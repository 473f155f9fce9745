//! Campaign-engine integration tests: crash-resume bit-identity,
//! completion-log dedup, thread-count invariance, and job-capsule
//! export — the guarantees that make a checkpointed Monte-Carlo fleet
//! trustworthy — plus the claims of the committed fault and attack
//! grids (`examples/campaign/{chaos,attack}.toml`).

use lrs_bench::campaign::{Campaign, JobRecord, JOB_LOG, MANIFEST, REPORT};
use lrs_bench::capsules::{replay_capsule, replay_observed, ScenarioTags};
use lrs_bench::{CampaignSpec, ExperimentMetrics};
use lrs_host::violation::ContentDigest;
use lrs_netsim::capsule::Capsule;
use lrs_netsim::fault::FaultEvent;
use lrs_netsim::sim::Outcome;
use std::collections::BTreeSet;
use std::fs;
use std::path::PathBuf;

/// A deliberately small grid that still spans both schemes and several
/// cells, so jobs finish out of order and per-cell aggregation has
/// more than one cell to file them under.
const SPEC: &str = r#"
name = "test-grid"
schemes = ["lr-seluge", "seluge"]
topologies = ["star:4"]
loss_ppm = [100_000, 250_000]
seeds = 2
image_bytes = 512
deadline_s = 3000
"#;

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lrs-campaign-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn spec() -> CampaignSpec {
    CampaignSpec::parse(SPEC).expect("test spec parses")
}

fn run_full(name: &str, threads: usize) -> (PathBuf, Vec<u8>) {
    let dir = scratch(name);
    let campaign = Campaign::create(spec(), &dir).expect("create");
    let report = campaign.run(threads, None).expect("run").expect("complete");
    assert_eq!(report.jobs, campaign.total_jobs());
    let bytes = fs::read(dir.join(REPORT)).expect("report written");
    (dir, bytes)
}

#[test]
fn crash_resume_is_bit_identical_and_never_reruns_jobs() {
    let (_full_dir, full_report) = run_full("full", 1);

    // Same spec, killed after 3 jobs: no report yet, 3 jobs logged.
    let dir = scratch("killed");
    let campaign = Campaign::create(spec(), &dir).expect("create");
    let total = campaign.total_jobs();
    assert!(campaign.run(1, Some(3)).expect("run").is_none());
    assert!(!dir.join(REPORT).exists());
    assert_eq!(campaign.completed().expect("log parses").len(), 3);

    // Resume from the manifest alone (fresh handle, no spec file).
    let resumed = Campaign::resume(&dir).expect("resume");
    let report = resumed.run(1, None).expect("run").expect("completes");
    assert_eq!(report.jobs, total);

    // The final report is byte-identical to the uninterrupted run's.
    assert_eq!(
        fs::read(dir.join(REPORT)).expect("report"),
        full_report,
        "kill+resume changed the report bytes"
    );

    // Completion-log dedup: every job id appears exactly once — the
    // resumed run skipped all logged jobs instead of re-executing them.
    let log = fs::read_to_string(dir.join(JOB_LOG)).expect("log");
    let ids: Vec<usize> = log
        .lines()
        .map(|line| {
            lrs_bench::parse_json(line)
                .ok()
                .and_then(|v| v.get("job").and_then(|j| j.as_num()))
                .expect("log line parses") as usize
        })
        .collect();
    assert_eq!(ids.len(), total, "log should hold each job exactly once");
    assert_eq!(
        ids.iter().copied().collect::<BTreeSet<_>>().len(),
        total,
        "a job was executed (and logged) twice"
    );
}

#[test]
fn reports_are_identical_across_thread_counts() {
    let (_d1, r1) = run_full("threads1", 1);
    let (_d2, r2) = run_full("threads2", 2);
    let (_d8, r8) = run_full("threads8", 8);
    assert_eq!(r1, r2, "threads=2 changed the report bytes");
    assert_eq!(r1, r8, "threads=8 changed the report bytes");
}

/// The type-7 quantile (linear interpolation at rank `q·(n−1)`) of the
/// finite values, sorted here independently of the crate's summary.
fn type7(values: &[f64], q: f64) -> f64 {
    let mut sorted: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (pos - lo as f64) * (sorted[hi] - sorted[lo])
}

#[test]
fn report_quantiles_and_extrema_are_exact_over_the_logged_jobs() {
    // One cell, seven seeds, 35 % loss: enough spread that the 95th
    // percentile sits strictly between the median and the maximum.
    let spec = CampaignSpec::parse(
        r#"
name = "quantiles"
schemes = ["lr-seluge"]
topologies = ["star:4"]
loss_ppm = [350_000]
seeds = 7
image_bytes = 512
deadline_s = 3000
"#,
    )
    .expect("spec parses");
    let dir = scratch("quantiles");
    let campaign = Campaign::create(spec, &dir).expect("create");
    let report = campaign.run(2, None).expect("run").expect("complete");
    let records = campaign.completed().expect("log");
    assert_eq!(records.len(), 7);
    let cell = &report.json.arr_at("cells").expect("cells")[0];
    let metrics = cell.get("metrics").expect("metrics");
    for (i, name) in ExperimentMetrics::NAMES.iter().enumerate() {
        let values: Vec<f64> = records.iter().map(|r| r.metrics[i]).collect();
        let finite = || values.iter().copied().filter(|v| v.is_finite());
        let entry = metrics.get(name).expect("metric reported");
        let expect = [
            ("p50", type7(&values, 0.5)),
            ("p95", type7(&values, 0.95)),
            ("min", finite().fold(f64::NAN, f64::min)),
            ("max", finite().fold(f64::NAN, f64::max)),
        ];
        for (field, want) in expect {
            let got = entry.get(field).and_then(|v| v.as_num()).expect(field);
            assert!(
                got.to_bits() == want.to_bits(),
                "{name}.{field}: report {got}, logged jobs {want} ({values:?})"
            );
        }
    }
    for name in ["latency_s", "data_pkts"] {
        let entry = metrics.get(name).expect("metric reported");
        let at = |field| entry.get(field).and_then(|v| v.as_num()).expect(field);
        assert!(
            at("p50") < at("p95") && at("p95") < at("max"),
            "{name}: the spec no longer spreads it"
        );
    }
}

#[test]
fn a_torn_log_tail_is_discarded_and_the_job_reruns() {
    let (_full_dir, full_report) = run_full("torn-ref", 1);

    let dir = scratch("torn");
    let campaign = Campaign::create(spec(), &dir).expect("create");
    assert!(campaign.run(1, Some(4)).expect("run").is_none());
    // Simulate kill -9 mid-append: chop the last line in half.
    let log_path = dir.join(JOB_LOG);
    let log = fs::read_to_string(&log_path).expect("log");
    let torn = &log[..log.len() - 30];
    fs::write(&log_path, torn).expect("truncate");

    let resumed = Campaign::resume(&dir).expect("resume");
    // The torn record no longer counts as completed.
    assert_eq!(resumed.completed().expect("tolerates torn tail").len(), 3);
    // Append one job onto the torn log: the tail must be truncated
    // first, not glued onto — gluing would leave a corrupt *mid-file*
    // line that poisons every later read of the log.
    assert!(resumed.run(1, Some(1)).expect("run").is_none());
    let second = Campaign::resume(&dir).expect("second resume");
    assert_eq!(
        second
            .completed()
            .expect("log stays parseable after append")
            .len(),
        4
    );
    // ...and the rerun restores a byte-identical report.
    second.run(1, None).expect("run").expect("completes");
    assert_eq!(fs::read(dir.join(REPORT)).expect("report"), full_report);
}

#[test]
fn a_version_1_manifest_is_refused_with_a_restart_hint() {
    // Version 1 embedded a spec with a second time limit; its logged
    // jobs would not pool with the ones still to run.
    let dir = scratch("legacy");
    Campaign::create(spec(), &dir).expect("create");
    let path = dir.join(MANIFEST);
    let text = fs::read_to_string(&path).expect("manifest");
    assert!(text.starts_with(r#"{"version":2,"#), "{text}");
    fs::write(&path, text.replacen(r#""version":2"#, r#""version":1"#, 1))
        .expect("rewrite manifest");
    let err = match Campaign::resume(&dir) {
        Ok(_) => panic!("a version-1 manifest resumed"),
        Err(e) => e,
    };
    assert!(err.contains("restart"), "unhelpful error: {err}");
}

#[test]
fn export_from_a_spec_touches_nothing_on_disk() {
    let dir = scratch("offline");
    let campaign = Campaign::offline(spec(), &dir);
    let capsule = campaign.job_capsule(0).expect("export");
    assert_eq!(capsule.seed, campaign.job_seed(0));
    assert!(
        !dir.exists(),
        "offline export created {} as a side effect",
        dir.display()
    );
}

#[test]
fn every_job_exports_as_a_replayable_capsule() {
    let dir = scratch("export");
    let mut spec = spec();
    spec.schemes.push("deluge".into());
    let campaign = Campaign::create(spec, &dir).expect("create");
    let report = campaign.run(1, None).expect("run").expect("completes");
    let records = campaign.completed().expect("log");

    // Export the first job of each scheme and re-execute it from the
    // capsule alone: the outcome must match what the campaign logged.
    let schemes = campaign.spec().schemes.len();
    for job in (0..schemes).map(|i| i * campaign.total_jobs() / schemes) {
        let capsule = campaign.job_capsule(job).expect("export");
        let run = replay_capsule(&capsule).expect("replay");
        let logged = records.iter().find(|r| r.job == job).expect("job logged");
        assert_eq!(
            run.report.outcome.label(),
            logged.outcome,
            "job {job} replayed to a different outcome"
        );
    }
    let _ = report;
}

/// Every spec token a `paper` cell uses yields jobs that export from
/// the cell directory (`campaign --resume <cell dir> --export-job 0`)
/// and replay to exactly the record the cell logged: outcome, and all
/// twelve metrics bit for bit.
#[test]
fn exported_paper_jobs_replay_to_their_logged_records() {
    let one_hop =
        lrs_bench::paper::cell("one-hop".into(), "lr-seluge", "star:4".into(), 0.1, 1920, 1);
    let variant = |name: &str, profile: &str| CampaignSpec {
        name: name.into(),
        profile: profile.into(),
        ..one_hop.clone()
    };
    let cells = [
        one_hop.clone(),
        CampaignSpec {
            name: "grid".into(),
            schemes: vec!["seluge".into()],
            topologies: vec!["grid:3:15".into()],
            loss_ppm: vec![0],
            noise: "heavy".into(),
            ..one_hop.clone()
        },
        variant("rate", "paper:n=40"),
        variant("xor", "paper:code=xor"),
        variant("union", "paper:tx=union"),
    ];
    let root = scratch("paper-cells");
    let logged = lrs_bench::run_cells(&cells, &root, 2);
    for (spec, records) in cells.iter().zip(&logged) {
        let campaign = Campaign::resume(root.join(&spec.name)).expect("cell dir resumes");
        let exported = campaign.job_capsule(0).expect("export").to_jsonl();
        let capsule = Capsule::from_jsonl(&exported).expect("exported capsule loads");
        let (run, _, metrics) = replay_observed(&capsule, Vec::new()).expect("replays");
        assert_eq!(
            run.report.outcome.label(),
            records[0].outcome,
            "{}",
            spec.name
        );
        let replayed = metrics.named().map(|(_, v)| v.to_bits());
        assert_eq!(
            replayed,
            records[0].metrics.map(f64::to_bits),
            "{}",
            spec.name
        );
    }
    fs::remove_dir_all(&root).expect("clean up");
}

/// The §7 adversary grid: every attack vector crossed with every fault
/// family, single-seeded to stay CI-sized. Faults are drawn over the
/// first 2 s, so 4 of the 5 crash jobs crash a node mid-run (the fifth
/// draws no crash).
const ATTACK_SPEC: &str = r#"
name = "attack-fault"
schemes = ["lr-seluge"]
topologies = ["star:4"]
loss_ppm = [100_000]
faults = ["crash=0.6,reboot=5-20", "flap=0.4", "degrade=0.6", "drift=200000"]
attackers = ["bogus=4", "forgesig=4", "forgeadv=4", "dor=2", "spoofdor=2"]
seeds = 1
image_bytes = 512
deadline_s = 1200
stall_s = 300
fault_horizon_s = 2
"#;

fn attack_spec() -> CampaignSpec {
    CampaignSpec::parse(ATTACK_SPEC).expect("attack spec parses")
}

fn metric_index(name: &str) -> usize {
    ExperimentMetrics::NAMES
        .iter()
        .position(|n| *n == name)
        .expect("known metric")
}

#[test]
fn specs_with_malformed_fault_or_attacker_tokens_are_rejected() {
    for (field, value) in [
        ("faults", "reboot=10-60"),           // reboot without crash
        ("faults", "crash=1.5"),              // rate out of range
        ("faults", "warp=0.5"),               // unknown knob
        ("faults", "crash=0.5,reboot=60-10"), // inverted window
        ("attackers", "bogus=0"),             // zero rate
        ("attackers", "bogus=4,dor=2"),       // two vectors in one token
        ("attackers", "burst=3-9"),           // no vector knob
        ("attackers", "bogus=4,n=99"),        // attacker count over the cap
        ("attackers", "evil=1"),              // unknown knob
    ] {
        let spec = format!("name = \"bad\"\nschemes = [\"lr-seluge\"]\n{field} = [\"{value}\"]\n");
        assert!(
            CampaignSpec::parse(&spec).is_err(),
            "{field} token {value:?} should be rejected at parse time"
        );
    }
}

#[test]
fn attack_fault_sweep_completes_with_zero_violations() {
    let dir = scratch("attack-sweep");
    let campaign = Campaign::create(attack_spec(), &dir).expect("create");
    let report = campaign.run(2, None).expect("run").expect("completes");
    assert_eq!(report.jobs, campaign.total_jobs());

    let completion = metric_index("completion_frac");
    let inflation = metric_index("verify_inflation");
    let energy = metric_index("energy_j");
    for record in campaign.completed().expect("log") {
        assert_ne!(
            record.outcome, "invariant_violated",
            "job {} leaked unauthenticated bytes into a page buffer",
            record.job
        );
        let frac = record.metrics[completion];
        assert!(
            (0.0..=1.0).contains(&frac),
            "job {}: completion fraction {frac} out of range",
            record.job
        );
        assert!(
            record.metrics[inflation].is_finite() && record.metrics[inflation] >= 0.0,
            "job {}: verification inflation must be a finite count per node",
            record.job
        );
        assert!(
            record.metrics[energy] > 0.0,
            "job {}: a run that exchanged packets drained energy",
            record.job
        );
    }

    // The report carries the degradation axes per cell.
    let json = fs::read_to_string(dir.join(REPORT)).expect("report");
    for key in ["completion_frac", "verify_inflation", "energy_j"] {
        assert!(
            json.contains(&format!("\"{key}\"")),
            "report.json lost the {key} aggregate"
        );
    }
}

#[test]
fn attacked_jobs_replay_bit_identically() {
    let mut spec = attack_spec();
    spec.schemes.push("deluge".into());
    let campaign = Campaign::offline(spec, PathBuf::new());
    // One job per attacker family: the attacker axis is innermost in
    // the canonical cell order, so consecutive jobs walk the vectors.
    // The first job of the second half is Deluge's first.
    for job in (0..5).chain([campaign.total_jobs() / 2]) {
        let capsule = campaign.job_capsule(job).expect("export");
        let first = replay_capsule(&capsule).expect("replay");
        let again = replay_capsule(&capsule).expect("replay again");
        assert_eq!(
            first.digest, again.digest,
            "job {job}: replay is not bit-identical under attack"
        );
    }
}

/// FNV-1a of the failure capsule the stalled attacked job below writes,
/// measured when the simulator still wrote it: moving the dump into the
/// campaign runner must keep every byte.
const STALLED_JOB_CAPSULE: ContentDigest = ContentDigest(0x6cc0_f246_9995_c690);

#[test]
fn an_attacked_run_that_stalls_dumps_a_replayable_failure_capsule() {
    // Near-total loss: no page traffic survives, so the stall watchdog
    // trips deterministically while the attack plan is active.
    let spec = CampaignSpec::parse(
        r#"
name = "attack-stall"
schemes = ["lr-seluge"]
topologies = ["star:4"]
loss_ppm = [990_000]
faults = ["none"]
attackers = ["bogus=4"]
seeds = 1
image_bytes = 512
deadline_s = 600
stall_s = 60
"#,
    )
    .expect("stall spec parses");
    let dir = scratch("attack-stall");
    let campaign = Campaign::create(spec, &dir).expect("create");
    let report = campaign.run(1, None).expect("run").expect("completes");
    assert!(
        !report.failures.is_empty(),
        "a stalled attacked job must dump a failure capsule"
    );

    let path = PathBuf::from(&report.failures[0]);
    let bytes = fs::read(&path).expect("failure capsule written");
    assert_eq!(
        ContentDigest::of(&bytes),
        STALLED_JOB_CAPSULE,
        "the failure capsule's bytes drifted"
    );
    let capsule = Capsule::load(&path).expect("failure capsule loads");
    let first = replay_capsule(&capsule).expect("replay");
    let again = replay_capsule(&capsule).expect("replay again");
    assert_eq!(first.report.outcome, Outcome::Stalled);
    assert_eq!(
        first.digest, again.digest,
        "the failure capsule must replay bit-identically"
    );
    lrs_netsim::verify_replay(&capsule, &first).expect("replay matches the dumped digest");
}

#[test]
fn create_refuses_an_existing_campaign_dir() {
    let dir = scratch("refuse");
    Campaign::create(spec(), &dir).expect("create");
    let err = match Campaign::create(spec(), &dir) {
        Ok(_) => panic!("second create on the same dir should fail"),
        Err(e) => e,
    };
    assert!(err.contains("resume"), "unhelpful error: {err}");
}

/// A committed spec under `examples/campaign/`, shrunk to `seeds` seeds
/// of an `image_bytes`-byte image so its claims run at test size.
fn committed_spec(file: &str, seeds: u64, image_bytes: usize) -> CampaignSpec {
    let path = format!(
        "{}/../../examples/campaign/{file}",
        env!("CARGO_MANIFEST_DIR")
    );
    let text = fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    let mut spec = CampaignSpec::parse(&text).unwrap_or_else(|e| panic!("{path}: {e}"));
    spec.seeds = seeds;
    spec.image_bytes = image_bytes;
    spec
}

/// Runs `spec` to completion and checks the claims every committed
/// grid makes, whatever its attackers: no invariant violation in a
/// scheme that authenticates and every honest node holding the origin
/// image when such a job completes, no watchdog trip without an attacker,
/// and crash faults that land, in at least 3/4 of each crash cell's
/// jobs, before the job ends. Returns the campaign and its job log.
fn run_committed(spec: CampaignSpec, dir: &str) -> (Campaign, Vec<JobRecord>) {
    let campaign = Campaign::create(spec, scratch(dir)).expect("create");
    campaign.run(2, None).expect("run").expect("completes");
    let records = campaign.completed().expect("log");
    let cells = campaign.spec().cells();
    let (latency, completion) = (metric_index("latency_s"), metric_index("completion_frac"));
    let mut crash_cells = vec![(0, 0); cells.len()];
    for record in &records {
        let cell = &cells[record.cell];
        if cell.scheme != "deluge" {
            assert_ne!(
                record.outcome, "invariant_violated",
                "job {} ({cell:?}) buffered an unauthenticated byte",
                record.job
            );
            // The per-delivery checker sees nothing that happens after a
            // node's last delivery (a reboot, say); the end-of-run count
            // of origin-image holders does.
            if record.outcome == "complete" {
                assert_eq!(
                    record.metrics[completion], 1.0,
                    "job {} ({cell:?}) completed with an honest node not holding the origin image",
                    record.job
                );
            }
        }
        if cell.attacker == "none" {
            assert_ne!(
                record.outcome, "stalled",
                "job {} ({cell:?}) tripped the watchdog with no attacker",
                record.job
            );
        }
        if cell.fault.contains("crash") {
            let capsule = campaign.job_capsule(record.job).expect("export");
            let end = record.metrics[latency];
            let landed = capsule
                .faults
                .events()
                .iter()
                .any(|e| matches!(e, FaultEvent::Crash { at, .. } if at.as_secs_f64() < end));
            crash_cells[record.cell].0 += 1;
            crash_cells[record.cell].1 += usize::from(landed);
        }
    }
    for (cell, &(jobs, landed)) in cells.iter().zip(&crash_cells) {
        assert!(
            4 * landed >= 3 * jobs,
            "{cell:?}: only {landed} of {jobs} jobs crashed a node before they ended"
        );
    }
    (campaign, records)
}

#[test]
fn chaos_grid_holds_its_claims() {
    let (campaign, records) = run_committed(committed_spec("chaos.toml", 4, 4096), "chaos");
    assert!(campaign.spec().faults.iter().any(|f| f.contains("crash")));
    assert_eq!(records.len(), campaign.total_jobs());
}

#[test]
fn attack_grid_holds_its_claims() {
    let (campaign, records) = run_committed(committed_spec("attack.toml", 1, 512), "attack");
    let cells = campaign.spec().cells();
    let (sig, completion) = (
        metric_index("sig_verifications"),
        metric_index("completion_frac"),
    );
    let mut deluge_corrupted = false;
    for record in &records {
        let cell = &cells[record.cell];
        // The puzzle absorbs a forged-signature flood: each honest
        // receiver verifies one signature, the genuine one. Deluge
        // signs nothing, so it verifies none.
        if cell.attacker.starts_with("forgesig") && cell.scheme != "deluge" {
            let capsule = campaign.job_capsule(record.job).expect("export");
            let tags = ScenarioTags::decode(&capsule).expect("tags");
            let attackers = tags.attack_plan.map_or(0, |plan| plan.len());
            let receivers = capsule.topology.len() - 1 - attackers;
            assert_eq!(
                record.metrics[sig], receivers as f64,
                "job {} ({cell:?}): one signature verification per honest receiver",
                record.job
            );
        }
        // Plain Deluge authenticates nothing and commits forged pages.
        if cell.attacker.starts_with("bogus") && cell.scheme == "deluge" {
            deluge_corrupted |= record.metrics[completion] < 1.0;
        }
    }
    assert!(
        deluge_corrupted,
        "no Deluge job under a bogus-data flood lost its image"
    );
}
