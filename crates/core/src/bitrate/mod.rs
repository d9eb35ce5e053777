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

use mesh11_trace::{LinkView, ProbeEntry};

/// Links' probe entries in report-time order, gathered into one flat
/// buffer. A kernel that replays every link once per policy scans the
/// buffer front to back per policy, instead of re-reading the index's
/// columns at each link's scattered positions per policy.
struct LinkRuns<'a> {
    sets: Vec<ProbeEntry<'a>>,
    /// Where each link's run ends in `sets`, in link order.
    ends: Vec<usize>,
}

impl<'a> LinkRuns<'a> {
    fn gather(links: impl Iterator<Item = LinkView<'a>>) -> Self {
        let mut runs = LinkRuns {
            sets: Vec::new(),
            ends: Vec::new(),
        };
        for link in links {
            runs.sets.extend(link.entries_by_time());
            runs.ends.push(runs.sets.len());
        }
        runs
    }

    /// Each link's run, in link order.
    fn iter(&self) -> impl Iterator<Item = &[ProbeEntry<'a>]> {
        let mut start = 0;
        self.ends.iter().map(move |&end| {
            let run = &self.sets[start..end];
            start = end;
            run
        })
    }
}
