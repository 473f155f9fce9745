//! Tables II and III: multi-hop 15×15 grid networks.
//!
//! Table II uses the high-density ("tight") grid, Table III the
//! low-density ("medium") grid — our regenerated equivalents of the
//! TinyOS `15-15-{tight,medium}-mica2-grid.txt` topologies — under
//! heavy bursty noise standing in for the `meyer-heavy` trace. Expected
//! shape: LR-Seluge beats Seluge on every metric by a significant
//! margin, as in the one-hop case.

use lr_seluge::LrSelugeParams;
use lrs_bench::{
    aggregate, matched_seluge_params, run_lr, run_seluge, sample_grid, write_csv, Json, JsonReport,
    RunSpec, Table,
};
use lrs_host::time::Duration;
use lrs_netsim::medium::MediumConfig;
use lrs_netsim::noise::{BurstyNoise, NoiseModel};
use lrs_netsim::topology::Topology;

fn grid_spec(spacing: f64, seed: u64) -> RunSpec {
    RunSpec {
        topology: Topology::grid(15, spacing, seed),
        medium: MediumConfig {
            app_loss: 0.0,
            noise: NoiseModel::Bursty(BurstyNoise::heavy()),
            ..MediumConfig::default()
        },
        deadline: Duration::from_secs(400_000),
        engine: Default::default(),
    }
}

fn main() {
    let (quick, threads) = lrs_bench::cli::sweep_args("table2_3");
    let seeds = 1;
    let lr = if quick {
        LrSelugeParams {
            image_len: 4 * 1024,
            ..LrSelugeParams::default()
        }
    } else {
        LrSelugeParams::default()
    };
    let seluge = matched_seluge_params(&lr);

    let cases = [
        ("Table II", "high (tight grid)", 8.0f64),
        ("Table III", "low (medium grid)", 15.0),
    ];
    // Interleaved (grid, scheme) jobs: even rows LR-Seluge, odd Seluge.
    let points: Vec<(f64, bool)> = cases
        .iter()
        .flat_map(|&(_, _, spacing)| [(spacing, true), (spacing, false)])
        .collect();
    let grid = sample_grid(&points, seeds, threads, |&(spacing, is_lr), seed| {
        if is_lr {
            run_lr(&grid_spec(spacing, seed), lr, seed)
        } else {
            run_seluge(&grid_spec(spacing, seed), seluge, seed)
        }
    });

    let mut t = Table::new(vec![
        "table",
        "density",
        "scheme",
        "completed",
        "data_pkts",
        "snack_pkts",
        "adv_pkts",
        "total_kbytes",
        "latency_s",
    ]);
    let mut j = JsonReport::new("table2_3", seeds, threads);
    for (i, &(label, name, _)) in cases.iter().enumerate() {
        println!(
            "{label}: 15x15 grid, {name}, image {} KB, bursty noise",
            lr.image_len / 1024
        );
        let m_lr = aggregate(&grid[2 * i]);
        let m_s = aggregate(&grid[2 * i + 1]);
        j.push_row(
            &[
                ("table", Json::str(label)),
                ("scheme", Json::str("lr-seluge")),
            ],
            &grid[2 * i],
        );
        j.push_row(
            &[("table", Json::str(label)), ("scheme", Json::str("seluge"))],
            &grid[2 * i + 1],
        );
        for (scheme, m) in [("lr-seluge", &m_lr), ("seluge", &m_s)] {
            t.row(vec![
                label.to_string(),
                name.to_string(),
                scheme.to_string(),
                format!("{:.2}", m.completed),
                format!("{:.0}", m.data_pkts),
                format!("{:.0}", m.snack_pkts),
                format!("{:.0}", m.adv_pkts),
                format!("{:.1}", m.total_bytes / 1024.0),
                format!("{:.1}", m.latency_s),
            ]);
        }
        println!(
            "  LR saves {:.1} % data pkts, {:.1} % bytes, {:.1} % latency\n",
            100.0 * (1.0 - m_lr.data_pkts / m_s.data_pkts),
            100.0 * (1.0 - m_lr.total_bytes / m_s.total_bytes),
            100.0 * (1.0 - m_lr.latency_s / m_s.latency_s),
        );
    }
    println!("{}", t.render());
    println!("wrote {}", write_csv("table2_3", &t));
    println!("wrote {}", j.write());
}
