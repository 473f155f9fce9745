//! Re-export shim for the clock vocabulary, which lives in `lrs-host`.
//!
//! Kept for `benchmark/` alone, exactly as [`node`](crate::node) is.

pub use lrs_host::time::{Duration, SimTime};
