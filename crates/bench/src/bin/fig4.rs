//! Figure 4: impact of the packet-loss rate `p` (one-hop, N = 20,
//! 20 KB image) on the five metrics: (a) data packets, (b) SNACK
//! packets, (c) advertisement packets, (d) total bytes, (e) latency —
//! LR-Seluge vs Seluge.
//!
//! Expected shape (§VI-B-1): both grow with `p`; LR-Seluge slightly
//! worse at `p ≤ 0.01` (erasure redundancy costs extra pages), clearly
//! better for `p > 0.01`, with ~44 % byte savings and ~48 % latency
//! savings at `p = 0.4`.

use lr_seluge::LrSelugeParams;
use lrs_bench::{
    aggregate, matched_seluge_params, run_lr, run_seluge, sample_grid, write_csv, Json, JsonReport,
    RunSpec, Table,
};

fn main() {
    let (quick, threads) = lrs_bench::cli::sweep_args("fig4");
    let seeds = if quick { 1 } else { 3 };
    let lr = if quick {
        LrSelugeParams {
            image_len: 4 * 1024,
            ..LrSelugeParams::default()
        }
    } else {
        LrSelugeParams::default() // 20 KB
    };
    let seluge = matched_seluge_params(&lr);
    let n_rx = 20usize;

    let ps = [0.0, 0.01, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5];
    // Interleaved (point, scheme) jobs: even rows LR-Seluge, odd Seluge.
    let points: Vec<(f64, bool)> = ps.iter().flat_map(|&p| [(p, true), (p, false)]).collect();
    println!(
        "Fig 4: one-hop, N = {n_rx}, image {} KB, sweep p (seeds = {seeds}, threads = {threads})\n",
        lr.image_len / 1024
    );
    let grid = sample_grid(&points, seeds, threads, |&(p, is_lr), seed| {
        let spec = RunSpec::one_hop(n_rx, p);
        if is_lr {
            run_lr(&spec, lr, seed)
        } else {
            run_seluge(&spec, seluge, seed)
        }
    });

    let mut t = Table::new(vec![
        "p",
        "scheme",
        "data_pkts",
        "snack_pkts",
        "adv_pkts",
        "total_kbytes",
        "latency_s",
    ]);
    let mut j = JsonReport::new("fig4", seeds, threads);
    for (i, &p) in ps.iter().enumerate() {
        let m_lr = aggregate(&grid[2 * i]);
        let m_s = aggregate(&grid[2 * i + 1]);
        j.push_row(
            &[("p", Json::num(p)), ("scheme", Json::str("lr-seluge"))],
            &grid[2 * i],
        );
        j.push_row(
            &[("p", Json::num(p)), ("scheme", Json::str("seluge"))],
            &grid[2 * i + 1],
        );
        for (name, m) in [("lr-seluge", &m_lr), ("seluge", &m_s)] {
            t.row(vec![
                format!("{p:.2}"),
                name.to_string(),
                format!("{:.0}", m.data_pkts),
                format!("{:.0}", m.snack_pkts),
                format!("{:.0}", m.adv_pkts),
                format!("{:.1}", m.total_bytes / 1024.0),
                format!("{:.1}", m.latency_s),
            ]);
        }
        let save = 100.0 * (1.0 - m_lr.total_bytes / m_s.total_bytes);
        let save_lat = 100.0 * (1.0 - m_lr.latency_s / m_s.latency_s);
        println!("p = {p:<4}: LR saves {save:5.1} % bytes, {save_lat:5.1} % latency");
    }
    println!("\n{}", t.render());
    println!("wrote {}", write_csv("fig4", &t));
    println!("wrote {}", j.write());
}
