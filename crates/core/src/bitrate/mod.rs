//! §4 — Bit rate analysis: can the SNR pick the optimal bit rate?
//!
//! The paper's method: for every probe set, `P_opt` is the rate maximizing
//! `rate × (1 − loss)`. A lookup table keyed by integer SNR maps each SNR to
//! the most frequently optimal rate, trained at one of four scopes. The
//! questions are then (a) how many distinct rates share a given SNR key
//! (Fig 4.1), (b) how many of the most frequent rates are needed to cover
//! p% of the probe sets at that key (Figs 4.2–4.3), (c) how much throughput
//! a table-driven pick loses versus the per-set optimum (Fig 4.4), and
//! (d) whether a table can be maintained online cheaply (Fig 4.6,
//! Table 4.1).

pub mod adaptation;
pub mod correlation;
pub mod lookup;
pub mod penalty;
pub mod stability;
pub mod strategy;

pub use adaptation::{simulate_adapters, AdaptationOutcome, AdapterKind};
pub use correlation::SnrThroughputCurves;
pub use lookup::{LookupTableSet, Scope};
pub use penalty::ThroughputPenalty;
pub use stability::{link_stability, LinkStability};
pub use strategy::{StrategyEval, StrategyKind};
