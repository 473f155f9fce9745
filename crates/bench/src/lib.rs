//! Experiment harness for the LR-Seluge reproduction.
//!
//! The paper's evaluation (§VI) is one binary, `paper <experiment>...`
//! (or `paper all`), over the experiments of [`paper::EXPERIMENTS`]:
//!
//! | Experiment | Paper artifact | What it sweeps |
//! |------------|----------------|----------------|
//! | `fig3`     | Fig. 3(a)/(b)  | One-page data-packet count vs `p` and vs `N`: analytical Seluge, analytical ACK-based LR-Seluge, simulated Seluge, simulated LR-Seluge |
//! | `fig4`     | Fig. 4(a)–(e)  | One-hop, `N = 20`, 20 KB image, sweep `p`: five metrics for LR-Seluge vs Seluge |
//! | `fig5`     | Fig. 5(a)–(e)  | One-hop, `p = 0.1`, sweep `N` |
//! | `fig6`     | Fig. 6(a)–(e)  | LR-Seluge, `k = 32`, sweep coding rate `n/k` under several `p` |
//! | `imgsize`  | §VI-C          | Image-size sweep (4–80 KB) |
//! | `ablation` | design choices | Greedy scheduler vs union rule; RS vs XOR vs LT page codes |
//! | `overhead` | §V-B           | Per-receiver hashes / signature verifications / erasure ops |
//! | `table2_3` | Tables II/III  | 15×15 multi-hop grids (tight/medium density) with bursty noise |
//!
//! Three more binaries sit beside it:
//!
//! | Binary     | Purpose        | What it does |
//! |------------|----------------|--------------|
//! | `replay`   | flight recorder| `replay <capsule>`: re-execute a run capsule the way its campaign job ran and verify its digest (see `capsules`); `--trace <file>` streams its JSONL event trace, `--summary` prints one row per node and per item |
//! | `campaign` | fleets         | Checkpointed Monte-Carlo campaigns over a grid spec (see `campaign`); the fault sweep and the §IV-E attack grid are the specs `examples/campaign/{chaos,attack}.toml` |
//! | `campdiff` | regression gate| Statistical diff of two campaign reports (see `diff`) |
//!
//! Run any of them with `cargo run -p lrs-bench --release --bin <name>`.
//! The `paper` experiments share one driver, [`sweep`]: each prints the
//! paper-style series and writes `results/<name>.{csv,json}` through
//! its one [`Report`].
//!
//! Every harness is written once over `S: SchemeFamily`
//! (`lrs_deluge::deployment`): [`runner::run`]`::<S>` is the single
//! measured run behind `run_lr` / `run_seluge` / `run_deluge`,
//! [`runner::simulate`] the single build-and-run core under the
//! `overhead` experiment, the campaign engine and `replay`,
//! [`capsules::population`] the single node factory plus invariant
//! checker, and [`with_scheme!`] the one place a scheme name picks the
//! type.

pub mod campaign;
pub mod capsules;
pub mod cli;
pub mod diff;
pub mod harness;
pub mod json;
pub mod paper;
pub mod runner;
pub mod spec;
pub mod stats;
pub mod sweep;
pub mod table;

pub use campaign::{Campaign, CampaignReport};
pub use cli::{Cli, CliError};
pub use diff::{diff_reports, CellKey, DiffReport, ReportDoc, Verdict};
pub use harness::{parallel_map, sample_grid};
pub use json::{parse_json, stat_json, write_json, Json};
pub use runner::{
    aggregate, average, matched_seluge_params, run, run_deluge, run_lr, run_seluge,
    run_with_policy, sample_seeds, ExperimentMetrics, Matched, RunSpec,
};
pub use spec::CampaignSpec;
pub use stats::{summarize, Summary};
pub use sweep::{per_scheme, Report, Sample};
pub use table::write_csv;
