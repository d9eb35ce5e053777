//! §4.5 — maintaining the lookup table online (Fig 4.6, Table 4.1).
//!
//! Four per-link maintenance strategies, trading update frequency against
//! memory:
//!
//! | strategy     | updates            | memory               |
//! |--------------|--------------------|----------------------|
//! | `First`      | once per SNR       | one point per SNR    |
//! | `MostRecent` | every probe set    | one point per SNR    |
//! | `Subsampled` | every 3rd per SNR  | ~⅓ of observations   |
//! | `All`        | every probe set    | every observation    |
//!
//! Evaluation replays each link's probe sets in time order, predicting
//! *before* updating, and skips prediction when the SNR has never been seen
//! (as the paper does). The paper's surprise — all strategies land within a
//! few points of each other at 80–90% — falls out of the per-link optimum
//! being stable.

use mesh11_phy::{BitRate, Phy};
use mesh11_trace::fold::{network_units, Unit};
use mesh11_trace::DatasetView;
use serde::{Deserialize, Serialize};

use super::{LinkRuns, OptimumCounts, Run};

/// Table-maintenance policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum StrategyKind {
    /// Keep only the first observed optimum per SNR.
    First,
    /// Keep only the most recent optimum per SNR.
    MostRecent,
    /// Count every 3rd observation per SNR; predict the most frequent.
    Subsampled,
    /// Count every observation; predict the most frequent.
    All,
}

impl StrategyKind {
    /// All strategies, in Table 4.1 order.
    pub const ALL: [StrategyKind; 4] = [
        StrategyKind::First,
        StrategyKind::MostRecent,
        StrategyKind::Subsampled,
        StrategyKind::All,
    ];

    /// Display name as in Fig 4.6's legend.
    pub fn name(self) -> &'static str {
        match self {
            StrategyKind::First => "First",
            StrategyKind::MostRecent => "Most Recent",
            StrategyKind::Subsampled => "Subsampled",
            StrategyKind::All => "Continuous",
        }
    }
}

/// One link's online table under every strategy, flat: a row per SNR-key
/// rank of the link's run ([`Run`]).
#[derive(Default)]
struct OnlineTable {
    /// `First`/`MostRecent`: the single stored rate per key.
    single: Vec<Option<BitRate>>,
    /// `Subsampled`/`All`: frequency counts per key.
    counts: OptimumCounts,
    /// Observations seen per key (drives subsampling cadence).
    seen: Vec<u32>,
}

impl OnlineTable {
    /// Replays one link's run under `kind` into `a`: each set is predicted
    /// from the table before it updates the table, and a key never seen
    /// before on the link is not predicted.
    fn replay(&mut self, kind: StrategyKind, run: &Run<'_, '_>, a: &mut StrategyAcc) {
        self.seen.clear();
        self.seen.resize(run.n_keys, 0);
        match kind {
            StrategyKind::First | StrategyKind::MostRecent => {
                self.single.clear();
                self.single.resize(run.n_keys, None);
            }
            StrategyKind::Subsampled | StrategyKind::All => self.counts.reset(run.n_keys),
        }
        for (i, (e, &key)) in run.sets.iter().zip(run.keys).enumerate() {
            let (k, opt) = (key as usize, e.opt.rate);
            let pick = match kind {
                StrategyKind::First | StrategyKind::MostRecent => self.single[k],
                StrategyKind::Subsampled | StrategyKind::All => self.counts.best(key),
            };
            if let Some(pick) = pick {
                let ok = u64::from(pick == opt);
                if a.acc.len() <= i {
                    a.acc.resize(i + 1, (0, 0));
                }
                a.acc[i].0 += 1;
                a.acc[i].1 += ok;
                a.predictions += 1;
                a.correct += ok;
            }
            self.seen[k] += 1;
            let stores = match kind {
                StrategyKind::First => self.single[k].is_none(),
                StrategyKind::MostRecent => true,
                // First observation always counts (there must be something
                // to predict from), then every 3rd.
                StrategyKind::Subsampled => self.seen[k] == 1 || self.seen[k].is_multiple_of(3),
                StrategyKind::All => true,
            };
            if !stores {
                continue;
            }
            a.updates += 1;
            match kind {
                StrategyKind::First | StrategyKind::MostRecent => {
                    // One point per key: only a new key adds memory.
                    if self.single[k].replace(opt).is_none() {
                        a.stored += 1;
                    }
                }
                StrategyKind::Subsampled | StrategyKind::All => {
                    self.counts.count(key, opt);
                    a.stored += 1;
                }
            }
        }
    }
}

/// Measured outcome of one strategy over a dataset.
#[derive(Debug, Clone)]
pub struct StrategyEval {
    /// The strategy.
    pub kind: StrategyKind,
    /// Per history depth, how many probe sets the link had already seen
    /// (Fig 4.6's x-axis): `(predictions, hits)`. A depth with no
    /// prediction holds `(0, 0)`.
    pub accuracy_by_history: Vec<(u64, u64)>,
    /// Total table updates performed (Table 4.1 "frequency of updates").
    pub updates: u64,
    /// Total data points stored (Table 4.1 "memory consumed").
    pub stored_points: u64,
    /// Predictions attempted (SNR previously seen on the link).
    pub predictions: u64,
    /// Correct predictions.
    pub correct: u64,
}

impl StrategyEval {
    /// Accuracy (%) per history depth that saw a prediction, ascending by
    /// depth: Fig 4.6's curve.
    pub fn accuracy_curve(&self) -> Vec<(usize, f64)> {
        self.accuracy_by_history
            .iter()
            .enumerate()
            .filter(|(_, &(n, _))| n > 0)
            .map(|(depth, &(n, hits))| (depth, 100.0 * hits as f64 / n as f64))
            .collect()
    }

    /// Overall accuracy across all history depths.
    pub fn overall_accuracy(&self) -> f64 {
        if self.predictions == 0 {
            0.0
        } else {
            self.correct as f64 / self.predictions as f64
        }
    }
}

/// Replays every link of `phy` under each strategy.
///
/// Links come from the view's indexed link groups (sorted order); every
/// per-link replay is independent and the pooled outcome is made of integer
/// counters, so the link order does not affect the result.
pub fn evaluate_strategies(
    view: DatasetView<'_>,
    phy: Phy,
    kinds: &[StrategyKind],
) -> Vec<StrategyEval> {
    mesh11_trace::run_fold(
        view,
        &StrategyKernel {
            phy,
            kinds: kinds.to_vec(),
        },
    )
}

/// Per-kind accumulator of [`evaluate_strategies`], fed one view at a
/// time.
#[derive(Debug, Default)]
pub struct StrategyAcc {
    /// `(predictions, hits)` per history depth.
    acc: Vec<(u64, u64)>,
    updates: u64,
    stored: u64,
    predictions: u64,
    correct: u64,
}

/// The fold-style form of [`evaluate_strategies`]. Each link lives
/// entirely inside one view (views are whole networks), and every
/// accumulator is an integer count, so any merge order gives the same
/// output. Each network is replayed on its own.
#[derive(Debug, Clone)]
pub struct StrategyKernel {
    /// PHY to replay.
    pub phy: Phy,
    /// Strategies to evaluate, in output order.
    pub kinds: Vec<StrategyKind>,
}

impl mesh11_trace::FoldKernel for StrategyKernel {
    type Partial = Vec<StrategyAcc>;
    type Piece = Vec<StrategyAcc>;
    type Output = Vec<StrategyEval>;
    const COLUMNS: bool = true;

    fn init(&self) -> Self::Partial {
        self.kinds.iter().map(|_| StrategyAcc::default()).collect()
    }

    fn units<'a>(&'a self, view: DatasetView<'a>) -> Vec<Unit<'a, Self::Piece>> {
        network_units(view, self.phy, move |nv| {
            let mut local: Vec<StrategyAcc> =
                self.kinds.iter().map(|_| StrategyAcc::default()).collect();
            let runs = LinkRuns::gather(nv.links());
            let mut table = OnlineTable::default();
            for (&kind, a) in self.kinds.iter().zip(local.iter_mut()) {
                for run in runs.iter() {
                    table.replay(kind, &run, a);
                }
            }
            local
        })
    }

    fn merge(&self, accs: &mut Self::Partial, local: Vec<StrategyAcc>) {
        for (a, l) in accs.iter_mut().zip(local) {
            if a.acc.len() < l.acc.len() {
                a.acc.resize(l.acc.len(), (0, 0));
            }
            for (bin, (n, hits)) in a.acc.iter_mut().zip(l.acc) {
                bin.0 += n;
                bin.1 += hits;
            }
            a.updates += l.updates;
            a.stored += l.stored;
            a.predictions += l.predictions;
            a.correct += l.correct;
        }
    }

    fn finish(&self, accs: Self::Partial) -> Vec<StrategyEval> {
        self.kinds
            .iter()
            .zip(accs)
            .map(|(&kind, a)| StrategyEval {
                kind,
                accuracy_by_history: a.acc,
                updates: a.updates,
                stored_points: a.stored,
                predictions: a.predictions,
                correct: a.correct,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mesh11_trace::{ApId, Dataset, DatasetIndex, NetworkId, Probe, ProbeTable, RateObs};

    fn r(mbps: f64) -> BitRate {
        BitRate::bg_mbps(mbps).unwrap()
    }

    fn evaluate_over(ds: &Dataset, kinds: &[StrategyKind]) -> Vec<StrategyEval> {
        let ix = DatasetIndex::build(ds);
        evaluate_strategies(DatasetView::new(ds, &ix), Phy::Bg, kinds)
    }

    fn probe(t: f64, snr: f64, opt: f64) -> ProbeTable {
        [Probe {
            network: NetworkId(0),
            phy: Phy::Bg,
            time_s: t,
            sender: ApId(0),
            receiver: ApId(1),
            obs: &[RateObs {
                rate: r(opt),
                loss: 0.0,
                snr_db: snr,
            }],
        }]
        .into_iter()
        .collect()
    }

    fn ds(probes: Vec<ProbeTable>) -> Dataset {
        Dataset {
            probes: probes.iter().flatten().collect(),
            ..Dataset::default()
        }
    }

    #[test]
    fn stable_link_all_strategies_perfect() {
        let d = ds((0..10)
            .map(|k| probe(k as f64 * 300.0, 20.0, 24.0))
            .collect());
        for eval in evaluate_over(&d, &StrategyKind::ALL) {
            assert_eq!(eval.overall_accuracy(), 1.0, "{:?}", eval.kind);
            // First prediction happens at the 2nd set: 9 predictions.
            assert_eq!(eval.predictions, 9);
        }
    }

    #[test]
    fn no_prediction_on_fresh_snr() {
        // Every set has a different SNR: never a prediction.
        let d = ds((0..5)
            .map(|k| probe(k as f64, 10.0 + 3.0 * k as f64, 24.0))
            .collect());
        for eval in evaluate_over(&d, &StrategyKind::ALL) {
            assert_eq!(eval.predictions, 0, "{:?}", eval.kind);
        }
    }

    #[test]
    fn cost_ordering_matches_table_4_1() {
        let d = ds((0..30).map(|k| probe(k as f64, 20.0, 24.0)).collect());
        let evals = evaluate_over(&d, &StrategyKind::ALL);
        let get = |k: StrategyKind| evals.iter().find(|e| e.kind == k).unwrap();
        let first = get(StrategyKind::First);
        let recent = get(StrategyKind::MostRecent);
        let sub = get(StrategyKind::Subsampled);
        let all = get(StrategyKind::All);
        // Updates: First (once per SNR) < Subsampled (~⅓) < MostRecent = All.
        assert!(first.updates < sub.updates);
        assert!(sub.updates < all.updates);
        assert_eq!(recent.updates, all.updates);
        // Memory: First = MostRecent (per-SNR) ≤ Subsampled < All.
        assert_eq!(first.stored_points, 1);
        assert_eq!(recent.stored_points, 1);
        assert!(sub.stored_points < all.stored_points);
        assert_eq!(all.stored_points, 30);
    }

    #[test]
    fn most_recent_tracks_changes_first_does_not() {
        // Optimum flips permanently after 10 sets.
        let mut probes: Vec<ProbeTable> = (0..10).map(|k| probe(k as f64, 20.0, 12.0)).collect();
        probes.extend((10..40).map(|k| probe(k as f64, 20.0, 48.0)));
        let d = ds(probes);
        let evals = evaluate_over(&d, &StrategyKind::ALL);
        let get = |k: StrategyKind| {
            evals
                .iter()
                .find(|e| e.kind == k)
                .unwrap()
                .overall_accuracy()
        };
        assert!(
            get(StrategyKind::MostRecent) > get(StrategyKind::First),
            "MostRecent {:.2} vs First {:.2}",
            get(StrategyKind::MostRecent),
            get(StrategyKind::First)
        );
    }

    #[test]
    fn accuracy_bins_by_history_depth() {
        let d = ds((0..5).map(|k| probe(k as f64, 20.0, 24.0)).collect());
        let eval = &evaluate_over(&d, &[StrategyKind::All])[0];
        // Predictions at history depths 1..4 (index of the set in stream).
        let curve = eval.accuracy_curve();
        let xs: Vec<usize> = curve.iter().map(|r| r.0).collect();
        assert_eq!(xs, vec![1, 2, 3, 4]);
        for (_, accuracy) in curve {
            assert_eq!(accuracy, 100.0);
        }
    }
}
