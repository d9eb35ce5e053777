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

use mesh11_phy::BitRate;
use mesh11_trace::{LinkView, ProbeEntry};

/// Links' probe entries in report-time order, gathered into one flat
/// buffer. A kernel that replays every link once per policy scans the
/// buffer front to back per policy, instead of re-reading the index's
/// columns at each link's scattered positions per policy.
///
/// Each set also carries its SNR key's rank among the distinct keys of
/// its link's run, so a replay keeps its per-key state in flat arrays with
/// one row per distinct key. Ranks, not key values, index the rows: keys
/// saturate at `i64::MIN`/`i64::MAX` on a file's extreme SNRs, so a table
/// spanning the key range could be any size.
struct LinkRuns<'a> {
    sets: Vec<ProbeEntry<'a>>,
    /// Per set, its SNR key's rank within its run.
    keys: Vec<u32>,
    /// Per link, in link order: where its run ends in `sets`, and its
    /// distinct key count.
    ends: Vec<(usize, usize)>,
}

/// One link's run from [`LinkRuns`].
struct Run<'r, 'a> {
    /// The link's probe entries, in report-time order.
    sets: &'r [ProbeEntry<'a>],
    /// Per set, its SNR key's rank among `n_keys` distinct keys.
    keys: &'r [u32],
    n_keys: usize,
}

impl<'a> LinkRuns<'a> {
    fn gather(links: impl Iterator<Item = LinkView<'a>>) -> Self {
        let mut runs = LinkRuns {
            sets: Vec::new(),
            keys: Vec::new(),
            ends: Vec::new(),
        };
        let mut distinct = Vec::new();
        for link in links {
            let start = runs.sets.len();
            runs.sets.extend(link.entries_by_time());
            let run = &runs.sets[start..];
            distinct.clear();
            distinct.extend(run.iter().map(|e| e.snr_key));
            distinct.sort_unstable();
            distinct.dedup();
            let rank = |e: &ProbeEntry| distinct.partition_point(|&k| k < e.snr_key) as u32;
            runs.keys.extend(run.iter().map(rank));
            runs.ends.push((runs.sets.len(), distinct.len()));
        }
        runs
    }

    /// Each link's run, in link order.
    fn iter(&self) -> impl Iterator<Item = Run<'_, 'a>> {
        let mut start = 0;
        self.ends.iter().map(move |&(end, n_keys)| {
            let run = Run {
                sets: &self.sets[start..end],
                keys: &self.keys[start..end],
                n_keys,
            };
            start = end;
            run
        })
    }
}

/// Columns of a per-rate row: a rate's column is its index in its PHY's
/// table ([`BitRate::index`]), which names one rate because a validated
/// link carries only its own PHY's rates.
const RATE_COLUMNS: usize = 32;

/// One link's per-key optimum counts, flat: a row per SNR-key rank and a
/// column per rate, with each row's most frequent optimum kept current.
/// What a `BTreeMap<BitRate, u32>` per key answers with a walk, ties going
/// to the lower rate, it answers with one read.
#[derive(Default)]
struct OptimumCounts {
    counts: Vec<u32>,
    /// Per row: the most frequent optimum so far, the lower rate on a tie.
    best: Vec<Option<BitRate>>,
}

impl OptimumCounts {
    /// Empties the table and sizes it for `n_keys` rows.
    fn reset(&mut self, n_keys: usize) {
        self.counts.clear();
        self.counts.resize(n_keys * RATE_COLUMNS, 0);
        self.best.clear();
        self.best.resize(n_keys, None);
    }

    /// Counts one more `opt` at key rank `key`. Only `opt`'s count grew, so
    /// the row's most frequent rate is either what it was or `opt`.
    fn count(&mut self, key: u32, opt: BitRate) {
        let row = &mut self.counts[key as usize * RATE_COLUMNS..][..RATE_COLUMNS];
        row[opt.index()] += 1;
        let n = row[opt.index()];
        let best = &mut self.best[key as usize];
        let wins = best.is_none_or(|b| {
            let nb = row[b.index()];
            n > nb || (n == nb && opt < b)
        });
        if wins {
            *best = Some(opt);
        }
    }

    /// The most frequent optimum counted at key rank `key`, if any.
    fn best(&self, key: u32) -> Option<BitRate> {
        self.best[key as usize]
    }
}
