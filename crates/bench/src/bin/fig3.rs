//! Figure 3: one-page data-packet transmissions in a one-hop cluster.
//!
//! (a) vs the packet-loss rate `p` at fixed `N`;
//! (b) vs the number of receivers `N` at fixed `p`.
//!
//! Four series each, as in the paper: analytical Seluge (max-of-geometrics
//! formula), analytical ACK-based LR-Seluge (round-process upper bound),
//! simulated Seluge, simulated LR-Seluge. The paper's observations to
//! look for: the Seluge simulation hugs its analysis; the ACK-based curve
//! upper-bounds the LR-Seluge simulation; the ACK-based curve jumps
//! between `p = 0.3` and `p = 0.4` (one round → two rounds at rate 1.5);
//! LR-Seluge is far less sensitive to both `p` and `N`.

use lr_seluge::LrSelugeParams;
use lrs_analysis::{ack_lr_expected_data_packets, seluge_expected_data_packets, AckLrModel};
use lrs_bench::{
    aggregate, matched_seluge_params, run_lr, run_seluge, sample_grid, write_csv, Json, JsonReport,
    RunSpec, Table,
};

fn main() {
    let (quick, threads) = lrs_bench::cli::sweep_args("fig3");
    let seeds = if quick { 3 } else { 10 };
    let mc = AckLrModel::MonteCarlo {
        trials: if quick { 3_000 } else { 20_000 },
        seed: 99,
    };

    // One page exactly: k = 32, n = 48 encoded packets, 72 B payloads.
    let mut lr = LrSelugeParams::default();
    lr.image_len = lr.page_capacity(); // one page
    let seluge = {
        let mut s = matched_seluge_params(&lr);
        s.image_len = s.page_capacity(); // one page of 32 x 64 B slices
        s
    };
    let (k, n) = (lr.k as usize, lr.n as usize);

    // ---- Fig 3(a): vs loss rate, N fixed -------------------------------
    let n_rx = 10usize;
    let ps = [0.0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.5];
    // Interleaved (point, scheme) jobs: even rows Seluge, odd rows LR.
    let points: Vec<(f64, bool)> = ps.iter().flat_map(|&p| [(p, false), (p, true)]).collect();
    let grid = sample_grid(&points, seeds, threads, |&(p, is_lr), seed| {
        let spec = RunSpec::one_hop(n_rx, p);
        if is_lr {
            run_lr(&spec, lr, seed)
        } else {
            run_seluge(&spec, seluge, seed)
        }
    });
    let mut ta = Table::new(vec![
        "p",
        "seluge_analytical",
        "ack_lr_analytical",
        "seluge_sim",
        "lr_sim",
    ]);
    let mut ja = JsonReport::new("fig3a", seeds, threads);
    println!("Fig 3(a): one page, N = {n_rx} receivers, data packets vs p (threads = {threads})\n");
    for (i, &p) in ps.iter().enumerate() {
        let s_ana = seluge_expected_data_packets(k, n_rx, p);
        let lr_ana = ack_lr_expected_data_packets(k, n, p, n_rx, mc);
        let s_sim = aggregate(&grid[2 * i]).page_data_pkts;
        let lr_sim = aggregate(&grid[2 * i + 1]).page_data_pkts;
        ja.push_row(
            &[("p", Json::num(p)), ("scheme", Json::str("seluge"))],
            &grid[2 * i],
        );
        ja.push_row(
            &[("p", Json::num(p)), ("scheme", Json::str("lr-seluge"))],
            &grid[2 * i + 1],
        );
        ta.row(vec![
            format!("{p:.2}"),
            format!("{s_ana:.1}"),
            format!("{lr_ana:.1}"),
            format!("{s_sim:.1}"),
            format!("{lr_sim:.1}"),
        ]);
    }
    println!("{}", ta.render());
    println!("wrote {}", write_csv("fig3a", &ta));
    println!("wrote {}\n", ja.write());

    // ---- Fig 3(b): vs number of receivers, p fixed ---------------------
    let p = 0.2f64;
    let nss = [2usize, 5, 10, 15, 20, 25, 30, 40];
    let points: Vec<(usize, bool)> = nss.iter().flat_map(|&n| [(n, false), (n, true)]).collect();
    let grid = sample_grid(&points, seeds, threads, |&(n_rx, is_lr), seed| {
        let spec = RunSpec::one_hop(n_rx, p);
        if is_lr {
            run_lr(&spec, lr, seed)
        } else {
            run_seluge(&spec, seluge, seed)
        }
    });
    let mut tb = Table::new(vec![
        "N",
        "seluge_analytical",
        "ack_lr_analytical",
        "seluge_sim",
        "lr_sim",
    ]);
    let mut jb = JsonReport::new("fig3b", seeds, threads);
    println!("Fig 3(b): one page, p = {p}, data packets vs N\n");
    for (i, &n_rx) in nss.iter().enumerate() {
        let s_ana = seluge_expected_data_packets(k, n_rx, p);
        let lr_ana = ack_lr_expected_data_packets(k, n, p, n_rx, mc);
        let s_sim = aggregate(&grid[2 * i]).page_data_pkts;
        let lr_sim = aggregate(&grid[2 * i + 1]).page_data_pkts;
        jb.push_row(
            &[
                ("N", Json::num(n_rx as u32)),
                ("scheme", Json::str("seluge")),
            ],
            &grid[2 * i],
        );
        jb.push_row(
            &[
                ("N", Json::num(n_rx as u32)),
                ("scheme", Json::str("lr-seluge")),
            ],
            &grid[2 * i + 1],
        );
        tb.row(vec![
            format!("{n_rx}"),
            format!("{s_ana:.1}"),
            format!("{lr_ana:.1}"),
            format!("{s_sim:.1}"),
            format!("{lr_sim:.1}"),
        ]);
    }
    println!("{}", tb.render());
    println!("wrote {}", write_csv("fig3b", &tb));
    println!("wrote {}", jb.write());
}
