//! Figure 6: impact of the erasure-coding rate `n/k` on LR-Seluge
//! (one-hop, N = 20, `k` fixed at 32), under several loss rates.
//!
//! Expected shape (§VI-B-3): moving from `n = k` (no redundancy) to a
//! moderate rate slashes SNACK and data traffic; pushing the rate
//! further slowly *raises* cost again, because the chained-hash region
//! `n·8` eats into each page's image capacity, adding pages.

use lr_seluge::LrSelugeParams;
use lrs_bench::{aggregate, run_lr, sample_grid, write_csv, Json, JsonReport, RunSpec, Table};

fn main() {
    let (quick, threads) = lrs_bench::cli::sweep_args("fig6");
    let seeds = if quick { 1 } else { 3 };
    let base = if quick {
        LrSelugeParams {
            image_len: 4 * 1024,
            ..LrSelugeParams::default()
        }
    } else {
        LrSelugeParams::default()
    };
    let n_rx = 20usize;

    println!(
        "Fig 6: one-hop, N = {n_rx}, k = {}, image {} KB, sweep n (seeds = {seeds}, threads = {threads})\n",
        base.k,
        base.image_len / 1024
    );
    let loss_rates: &[f64] = if quick {
        &[0.1, 0.3]
    } else {
        &[0.05, 0.1, 0.2, 0.3]
    };
    let ns: &[u16] = if quick {
        &[32, 48, 64]
    } else {
        &[32, 36, 40, 44, 48, 56, 64]
    };
    let points: Vec<(f64, u16)> = loss_rates
        .iter()
        .flat_map(|&p| ns.iter().map(move |&n| (p, n)))
        .collect();
    let grid = sample_grid(&points, seeds, threads, |&(p, n), seed| {
        let params = LrSelugeParams { n, ..base };
        run_lr(&RunSpec::one_hop(n_rx, p), params, seed)
    });

    let mut t = Table::new(vec![
        "p",
        "n",
        "rate",
        "pages",
        "data_pkts",
        "snack_pkts",
        "adv_pkts",
        "total_kbytes",
        "latency_s",
    ]);
    let mut j = JsonReport::new("fig6", seeds, threads);
    for (i, &(p, n)) in points.iter().enumerate() {
        let params = LrSelugeParams { n, ..base };
        let m = aggregate(&grid[i]);
        j.push_row(
            &[
                ("p", Json::num(p)),
                ("n", Json::num(n)),
                ("rate", Json::num(n as f64 / base.k as f64)),
            ],
            &grid[i],
        );
        t.row(vec![
            format!("{p:.2}"),
            format!("{n}"),
            format!("{:.2}", n as f64 / base.k as f64),
            format!("{}", params.pages()),
            format!("{:.0}", m.data_pkts),
            format!("{:.0}", m.snack_pkts),
            format!("{:.0}", m.adv_pkts),
            format!("{:.1}", m.total_bytes / 1024.0),
            format!("{:.1}", m.latency_s),
        ]);
    }
    println!("{}", t.render());
    println!("wrote {}", write_csv("fig6", &t));
    println!("wrote {}", j.write());
}
