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
//! There is one way to run many seeds, the campaign engine
//! ([`Campaign`]): every `paper` figure and table point is a one-cell
//! campaign ([`paper::cell`]) whose jobs run seeds `1..=S`, run through
//! the one driver, [`sweep`] ([`sweep::run_cells`]), so any point's job
//! exports as a capsule with `campaign --resume <cell dir> --export-job
//! N` and `replay` explains it. Each experiment prints the paper-style
//! series and writes its table to `results/<name>.csv`; a point's
//! per-seed metrics and their statistics are its cell's `jobs.log` and
//! `report.json`. That file has one model, [`Report`]: the campaign
//! engine writes it, and `campdiff`, the campaign summary and the paper
//! tables read it.
//!
//! Every harness is written once over `S: SchemeFamily`
//! (`lrs_deluge::deployment`): [`runner::simulate`] is the single
//! build-and-run core under the campaign engine, `replay` and the
//! `overhead` experiment, [`capsules::population`] the single node
//! factory plus invariant checker, [`capsules::profile`] the one
//! registry of parameter profiles and their knobs, and [`with_scheme!`]
//! the one place a scheme name picks the type.

pub mod campaign;
pub mod capsules;
pub mod cli;
pub mod diff;
pub mod harness;
pub mod json;
pub mod paper;
pub mod runner;
pub mod spec;
pub mod sweep;
pub mod table;

pub use campaign::{Campaign, CampaignReport, CellReport, MetricSummary, Report};
pub use cli::{Cli, CliError};
pub use diff::{diff_reports, DiffReport, Verdict};
pub use json::{parse_json, write_json, Json};
pub use runner::{matched_seluge_params, ExperimentMetrics, Matched, RunSpec};
pub use spec::CampaignSpec;
pub use sweep::run_cells;
pub use table::write_csv;
