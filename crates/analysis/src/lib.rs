//! §V performance analysis: expected data-packet transmissions in the
//! one-hop broadcast model.
//!
//! The paper analyses a single sender with `N` receivers where each
//! packet is lost independently at receiver `i` with probability `p_i`
//! (the model of Nonnenmacher & Biersack the paper adopts), and derives
//! the expected number of data-packet transmissions for
//!
//! * **Seluge** — ARQ: every one of the `k` page packets must reach every
//!   receiver, so each packet is retransmitted until the slowest
//!   receiver has it ([`seluge_expected_data_packets`]); and
//! * **ACK-based LR-Seluge** — an idealized round-based variant that
//!   upper-bounds real LR-Seluge: the sender first transmits all `n`
//!   encoded packets, then in each subsequent round transmits exactly
//!   `max_i d_i` useful packets, where `d_i` is receiver `i`'s remaining
//!   deficit toward `k'` ([`ack_lr_expected_data_packets`], exact for
//!   `N = 1` via [`ack_lr_exact_single`], Monte-Carlo evaluated for
//!   `N > 1`).
//!
//! The characteristic step the paper highlights — "a significant
//! increase … when the packet loss rate increases from 0.3 to 0.4" —
//! falls out of the round structure: with `n = 1.5k` one round suffices
//! w.h.p. while `n(1−p) ≥ k'`, i.e. up to `p = 1/3`.
//!
//! Beside the model sit the statistics every experiment reports with:
//! [`Summary::of`], the one mean / 95 % CI / quantile summary of a set
//! of per-seed samples (a `paper` sweep point and a campaign cell are
//! summarized by it alike), and [`compare`], the Welch tests and
//! false-discovery-rate control the campaign diff runs over summaries.

pub mod binomial;
pub mod compare;
pub mod lr;
pub mod seluge;
pub mod summary;

pub use binomial::binomial_pmf;
pub use compare::{
    benjamini_hochberg, bh_adjusted_p, ci95_overlap, cohens_d, student_t_cdf,
    student_t_two_sided_p, welch_t, SampleStats, WelchTest,
};
pub use lr::{ack_lr_exact_single, ack_lr_expected_data_packets, AckLrModel};
pub use seluge::{seluge_expected_data_packets, seluge_expected_heterogeneous};
pub use summary::{t95, Summary};
