//! Figure 5: impact of node density (one-hop, p = 0.1, 20 KB image),
//! sweeping the number of receivers `N`: the five metrics for LR-Seluge
//! vs Seluge.
//!
//! Expected shape (§VI-B-2): every cost grows with `N`, but LR-Seluge
//! grows much more slowly; Seluge's latency creeps up with `N` while
//! LR-Seluge's slightly decreases (the more requesters, the sooner some
//! node decodes the page and requests the next one).

use lr_seluge::LrSelugeParams;
use lrs_bench::{
    aggregate, matched_seluge_params, run_lr, run_seluge, sample_grid, write_csv, Json, JsonReport,
    RunSpec, Table,
};

fn main() {
    let (quick, threads) = lrs_bench::cli::sweep_args("fig5");
    let seeds = if quick { 1 } else { 3 };
    let lr = if quick {
        LrSelugeParams {
            image_len: 4 * 1024,
            ..LrSelugeParams::default()
        }
    } else {
        LrSelugeParams::default()
    };
    let seluge = matched_seluge_params(&lr);
    let p = 0.1f64;

    println!(
        "Fig 5: one-hop, p = {p}, image {} KB, sweep N (seeds = {seeds}, threads = {threads})\n",
        lr.image_len / 1024
    );
    let ns: &[usize] = if quick {
        &[5, 20, 40]
    } else {
        &[5, 10, 15, 20, 25, 30, 35, 40]
    };
    // Interleaved (point, scheme) jobs: even rows LR-Seluge, odd Seluge.
    let points: Vec<(usize, bool)> = ns.iter().flat_map(|&n| [(n, true), (n, false)]).collect();
    let grid = sample_grid(&points, seeds, threads, |&(n_rx, is_lr), seed| {
        let spec = RunSpec::one_hop(n_rx, p);
        if is_lr {
            run_lr(&spec, lr, seed)
        } else {
            run_seluge(&spec, seluge, seed)
        }
    });

    let mut t = Table::new(vec![
        "N",
        "scheme",
        "data_pkts",
        "snack_pkts",
        "adv_pkts",
        "total_kbytes",
        "latency_s",
    ]);
    let mut j = JsonReport::new("fig5", seeds, threads);
    for (i, &n_rx) in ns.iter().enumerate() {
        let m_lr = aggregate(&grid[2 * i]);
        let m_s = aggregate(&grid[2 * i + 1]);
        j.push_row(
            &[
                ("N", Json::num(n_rx as u32)),
                ("scheme", Json::str("lr-seluge")),
            ],
            &grid[2 * i],
        );
        j.push_row(
            &[
                ("N", Json::num(n_rx as u32)),
                ("scheme", Json::str("seluge")),
            ],
            &grid[2 * i + 1],
        );
        for (name, m) in [("lr-seluge", &m_lr), ("seluge", &m_s)] {
            t.row(vec![
                format!("{n_rx}"),
                name.to_string(),
                format!("{:.0}", m.data_pkts),
                format!("{:.0}", m.snack_pkts),
                format!("{:.0}", m.adv_pkts),
                format!("{:.1}", m.total_bytes / 1024.0),
                format!("{:.1}", m.latency_s),
            ]);
        }
    }
    println!("{}", t.render());
    println!("wrote {}", write_csv("fig5", &t));
    println!("wrote {}", j.write());
}
