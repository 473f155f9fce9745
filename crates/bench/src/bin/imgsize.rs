//! Image-size sweep (§VI-C: "we have simulated the impact of different
//! image sizes in both one-hop and multi-hop networks and observed
//! similar advantages of LR-Seluge over Seluge").

use lr_seluge::LrSelugeParams;
use lrs_bench::{
    aggregate, matched_seluge_params, run_lr, run_seluge, sample_grid, write_csv, Json, JsonReport,
    RunSpec, Table,
};

fn main() {
    let (quick, threads) = lrs_bench::cli::sweep_args("imgsize");
    let seeds = if quick { 1 } else { 3 };
    let p = 0.2f64;
    let n_rx = 20usize;
    let sizes: &[usize] = if quick {
        &[4 * 1024, 16 * 1024]
    } else {
        &[4 * 1024, 10 * 1024, 20 * 1024, 40 * 1024, 80 * 1024]
    };

    println!(
        "Image-size sweep: one-hop, N = {n_rx}, p = {p} (seeds = {seeds}, threads = {threads})\n"
    );
    // Interleaved (point, scheme) jobs: even rows LR-Seluge, odd Seluge.
    let points: Vec<(usize, bool)> = sizes
        .iter()
        .flat_map(|&s| [(s, true), (s, false)])
        .collect();
    let grid = sample_grid(&points, seeds, threads, |&(size, is_lr), seed| {
        let lr = LrSelugeParams {
            image_len: size,
            ..LrSelugeParams::default()
        };
        let spec = RunSpec::one_hop(n_rx, p);
        if is_lr {
            run_lr(&spec, lr, seed)
        } else {
            run_seluge(&spec, matched_seluge_params(&lr), seed)
        }
    });

    let mut t = Table::new(vec![
        "image_kb",
        "scheme",
        "data_pkts",
        "total_kbytes",
        "latency_s",
        "byte_saving_pct",
    ]);
    let mut j = JsonReport::new("imgsize", seeds, threads);
    for (i, &size) in sizes.iter().enumerate() {
        let m_lr = aggregate(&grid[2 * i]);
        let m_s = aggregate(&grid[2 * i + 1]);
        j.push_row(
            &[
                ("image_kb", Json::num((size / 1024) as u32)),
                ("scheme", Json::str("lr-seluge")),
            ],
            &grid[2 * i],
        );
        j.push_row(
            &[
                ("image_kb", Json::num((size / 1024) as u32)),
                ("scheme", Json::str("seluge")),
            ],
            &grid[2 * i + 1],
        );
        let saving = 100.0 * (1.0 - m_lr.total_bytes / m_s.total_bytes);
        for (name, m) in [("lr-seluge", &m_lr), ("seluge", &m_s)] {
            t.row(vec![
                format!("{}", size / 1024),
                name.to_string(),
                format!("{:.0}", m.data_pkts),
                format!("{:.1}", m.total_bytes / 1024.0),
                format!("{:.1}", m.latency_s),
                if name == "lr-seluge" {
                    format!("{saving:.1}")
                } else {
                    "-".to_string()
                },
            ]);
        }
    }
    println!("{}", t.render());
    println!("wrote {}", write_csv("imgsize", &t));
    println!("wrote {}", j.write());
}
