//! # mesh11-bench
//!
//! The benchmark and reproduction harness.
//!
//! * [`setup`] — builds the seeded campaign + dataset a reproduction run
//!   operates on, at three scales (quick / standard / paper).
//! * [`figures`] — one builder per paper table/figure, each returning a
//!   [`mesh11_core::report::FigureData`] with the paper-expected values
//!   recorded as notes. The `repro` binary prints them; `EXPERIMENTS.md`
//!   records a full run.
//! * [`fused`] — one constructor per shared heavy analysis, used by the
//!   lazy in-memory cells and by the fused pass of a chunked run, where
//!   every kernel folds each sealed part of the streaming simulation as it
//!   arrives, so the figures never walk the chunk store per analysis.
//! * [`ensemble`] — cross-seed aggregation for multi-seed runs
//!   (`repro --seeds N`): mean ± 95% t-interval series under
//!   `out/figures_ci/`.
//! * [`timing`] — the per-phase wall-clock breakdown `repro` prints and
//!   writes to `out/bench_timings.json`.
//! * `benches/` — Criterion benchmarks of every analysis kernel (one bench
//!   group per table/figure family) plus the simulator hot loop.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ensemble;
pub mod figures;
pub mod fused;
pub mod setup;
pub mod timing;

pub use ensemble::{aggregate_ci, group_by_figure, max_relative_halfwidth};
pub use fused::{CapMatrix, FusedOutputs, FusedRunner, SnrSigmas};
pub use setup::{
    DataMode, DataStore, MultiBuildTimings, ReproContext, Scale, DEFAULT_METRO_FACTOR,
};
pub use timing::{peak_rss_mb, PhaseTimings};
