//! Computation overhead (§V-B): cryptographic and coding work per
//! receiver for LR-Seluge vs Seluge over one full image.
//!
//! The paper's qualitative claims: both schemes verify exactly one
//! signature per image (guarded by the puzzle); both hash every received
//! data packet once; LR-Seluge additionally pays one erasure decode per
//! page at every node and one encode per page at every *serving* node —
//! the price of loss resilience, affordable because the codes are
//! GF(256) table arithmetic (see `cargo bench -p lrs-bench` for the
//! per-operation costs).

use lr_seluge::LrSelugeParams;
use lrs_bench::capsules::Population;
use lrs_bench::runner::{simulate, test_image, Matched};
use lrs_bench::{sample_grid, stat_json, with_scheme, write_csv, write_json, Json, RunSpec, Table};
use lrs_deluge::deployment::Deployment;
use lrs_deluge::engine::CryptoCost;

/// Disseminates `image` with scheme family `S` (parameters matched to
/// `lr`) under `spec` and returns the mean per-receiver cost.
fn mean_receiver_cost<S: Matched>(
    image: &[u8],
    lr: &LrSelugeParams,
    spec: &RunSpec,
    seed: u64,
) -> CryptoCost {
    let deployment = Deployment::<S>::new(image, S::matched(lr), b"overhead");
    let done = simulate(&Population::honest(deployment), spec.setup(seed));
    assert!(done.report.all_complete);
    let mut acc = CryptoCost::default();
    for (_, node) in done.honest().skip(1) {
        let c = node.scheme().cost();
        acc.hashes += c.hashes;
        acc.signature_verifications += c.signature_verifications;
        acc.puzzle_checks += c.puzzle_checks;
        acc.decodes += c.decodes;
        acc.encodes += c.encodes;
    }
    let d = (spec.topology.len() - 1) as u64;
    CryptoCost {
        hashes: acc.hashes / d,
        signature_verifications: acc.signature_verifications / d,
        puzzle_checks: acc.puzzle_checks / d,
        decodes: acc.decodes / d,
        encodes: acc.encodes / d,
        ..CryptoCost::default()
    }
}

const COST_NAMES: [&str; 5] = [
    "hashes",
    "sig_verifications",
    "puzzle_checks",
    "decodes",
    "encodes",
];

fn cost_fields(c: &CryptoCost) -> [f64; 5] {
    [
        c.hashes as f64,
        c.signature_verifications as f64,
        c.puzzle_checks as f64,
        c.decodes as f64,
        c.encodes as f64,
    ]
}

fn main() {
    let (quick, threads) = lrs_bench::cli::sweep_args("overhead");
    let seeds = if quick { 1 } else { 3 };
    let image_len = if quick { 4 * 1024 } else { 20 * 1024 };
    let p_loss = 0.2f64;
    let n_rx = 10usize;
    let lr_params = LrSelugeParams {
        image_len,
        ..LrSelugeParams::default()
    };
    let image = test_image(image_len);
    let spec = RunSpec::one_hop(n_rx, p_loss);

    // Interleaved (scheme) points: row 0 LR-Seluge, row 1 Seluge.
    let schemes = ["lr-seluge", "seluge"];
    let costs = sample_grid(&schemes, seeds, threads, |&scheme, seed| {
        with_scheme!(scheme, S => mean_receiver_cost::<S>(&image, &lr_params, &spec, seed))
            .unwrap_or_else(|e| panic!("{e}"))
    });

    println!(
        "Computation overhead per receiver: one-hop, N = {n_rx}, p = {p_loss}, image {} KB (seeds = {seeds}, threads = {threads})\n",
        image_len / 1024
    );
    let mut t = Table::new(vec![
        "scheme",
        "hashes",
        "sig_verifications",
        "puzzle_checks",
        "decodes",
        "encodes",
    ]);
    let mut rows = Vec::new();
    for (i, name) in schemes.into_iter().enumerate() {
        let samples: Vec<[f64; 5]> = costs[i].iter().map(cost_fields).collect();
        // Exactly one expensive signature verification per receiver per
        // image, every seed — the puzzle's whole point.
        for c in &costs[i] {
            assert_eq!(c.signature_verifications, 1);
        }
        let mean = |f: usize| samples.iter().map(|s| s[f]).sum::<f64>() / samples.len() as f64;
        t.row(vec![
            name.to_string(),
            format!("{:.0}", mean(0)),
            format!("{:.0}", mean(1)),
            format!("{:.0}", mean(2)),
            format!("{:.0}", mean(3)),
            format!("{:.0}", mean(4)),
        ]);
        let metrics: Vec<(String, Json)> = COST_NAMES
            .iter()
            .enumerate()
            .map(|(f, cname)| {
                let vals: Vec<f64> = samples.iter().map(|s| s[f]).collect();
                (cname.to_string(), stat_json(&vals))
            })
            .collect();
        rows.push(Json::Obj(vec![
            (
                "params".into(),
                Json::Obj(vec![("scheme".into(), Json::str(name))]),
            ),
            ("metrics".into(), Json::Obj(metrics)),
        ]));
    }
    println!("{}", t.render());
    println!("wrote {}", write_csv("overhead", &t));
    let report = Json::Obj(vec![
        ("experiment".into(), Json::str("overhead")),
        ("threads".into(), Json::num(threads as u32)),
        ("seeds".into(), Json::num(seeds as u32)),
        ("rows".into(), Json::Arr(rows)),
    ]);
    println!("wrote {}", write_json("overhead", &report));
}
