//! `perfbench`: the tldag workspace's end-to-end and per-layer benchmark.
//! See README.md for the workloads, the metrics and how to run it.

pub mod engine;
pub mod inputs;
pub mod layers;
pub mod report;
pub mod stats;
pub mod wire;

use std::path::PathBuf;

/// One run's arguments and its private scratch directory.
#[derive(Clone, Debug)]
pub struct Ctx {
    /// The `--seed` every input derives from.
    pub seed: u64,
    /// The `--seconds` the measured phases should fill.
    pub seconds: f64,
    /// `--trace 1`: report the per-layer metrics instead of end-to-end.
    pub trace: bool,
    /// Temporary storage for this run only (removed when the run ends).
    pub tmp: PathBuf,
}
