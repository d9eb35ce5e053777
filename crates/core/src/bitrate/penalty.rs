//! §4.3 — the throughput cost of table-driven rate selection (Fig 4.4).
//!
//! For every probe set, compare the throughput of the rate the lookup table
//! would have picked against the throughput of the set's actual optimum.
//! A rate the table picks but the set never heard (no observation) scores
//! zero throughput — exactly the punishment a real sender would take.

use mesh11_phy::Phy;
use mesh11_stats::Counts;
use mesh11_trace::fold::{map_in_order, network_units, Unit};
use mesh11_trace::{ChunkedDataset, DatasetView, FoldKernel, Probe};

use crate::bitrate::lookup::{LookupTableSet, Scope};

/// The fold-style form of [`ThroughputPenalty::evaluate`]: needs a
/// **completed** table set, so in a fused pass it runs in a second phase
/// after the table-building folds finish. Each network is scored on its
/// own, and its diffs are counted in network order, which adds up the sum
/// in the order of one sequential walk (datasets are network-major).
#[derive(Debug, Clone, Copy)]
pub struct PenaltyKernel<'t> {
    /// The trained tables the kernel scores against.
    pub table: &'t LookupTableSet,
}

/// One network's scores against one table: its diffs in stream order,
/// and the sets the table could not score.
type NetScores = (Vec<f64>, usize);

impl FoldKernel for PenaltyKernel<'_> {
    type Partial = (Counts, usize);
    type Piece = NetScores;
    type Output = ThroughputPenalty;
    const COLUMNS: bool = true;

    fn init(&self) -> Self::Partial {
        (Counts::new(), 0)
    }

    fn units<'a>(&'a self, view: DatasetView<'a>) -> Vec<Unit<'a, Self::Piece>> {
        network_units(view, self.table.phy(), move |nv| {
            let mut s: NetScores = (Vec::new(), 0);
            for e in nv.entries_in_order() {
                let best = e.opt.throughput_mbps();
                score_set(self.table, e.probe, e.snr_key, best, &mut s);
            }
            s
        })
    }

    fn merge(&self, partial: &mut Self::Partial, s: NetScores) {
        count_into(partial, s);
    }

    fn finish(&self, partial: Self::Partial) -> ThroughputPenalty {
        ThroughputPenalty {
            scope: self.table.scope(),
            phy: self.table.phy(),
            diffs_mbps: partial.0,
            unpredicted: partial.1,
        }
    }
}

/// Scores one probe set, whose SNR key and optimal throughput are known,
/// against `table`.
fn score_set(table: &LookupTableSet, p: Probe<'_>, snr_key: i64, best: f64, s: &mut NetScores) {
    let Some(pick) = table.predict_at(p, snr_key) else {
        s.1 += 1;
        return;
    };
    let got = p.obs_for(pick).map_or(0.0, |o| o.throughput_mbps());
    s.0.push((best - got).max(0.0));
}

/// Counts one network's scores into a penalty's partial.
fn count_into(partial: &mut (Counts, usize), (diffs, unpredicted): NetScores) {
    partial.0.extend(diffs);
    partial.1 += unpredicted;
}

/// Throughput-difference distribution for one scope.
#[derive(Debug, Clone)]
pub struct ThroughputPenalty {
    /// Training scope.
    pub scope: Scope,
    /// PHY analyzed.
    pub phy: Phy,
    /// One difference (Mbit/s, ≥ 0) per predicted probe set, counted per
    /// distinct value and added up in dataset order.
    pub diffs_mbps: Counts,
    /// Probe sets for which the table had no entry (excluded from the CDF).
    pub unpredicted: usize,
}

impl ThroughputPenalty {
    /// Evaluates a trained table set against the dataset it describes
    /// (dataset order per PHY, so the diffs are added up in the order of
    /// the pre-index pipeline).
    pub fn evaluate(view: DatasetView<'_>, table: &LookupTableSet) -> Self {
        mesh11_trace::run_fold(view, &PenaltyKernel { table })
    }

    /// Evaluates several trained table sets in **one** walk over the raw
    /// chunk store, never materializing a window (no index build, no
    /// `window_builds` traffic): per network, in id order, each probe set
    /// is scored against every table whose PHY matches. The set's SNR key
    /// (a median, so a sort) and its optimum are derived once per set and
    /// shared by those tables.
    ///
    /// Byte-identical to per-table [`ThroughputPenalty::evaluate`] over the
    /// whole view: an indexed walk visits each (phy, network)'s entries in
    /// stream order filtered by PHY (the index permutations are stable
    /// sorts over network-major, time-sorted data), which is exactly the
    /// order the raw chunk walk yields; and [`Probe::snr_key`] and
    /// [`Probe::optimal`] derive the same values the index precomputes.
    pub fn evaluate_batch_chunked(
        chunked: &ChunkedDataset,
        tables: &[&LookupTableSet],
    ) -> Vec<Self> {
        let n_networks = chunked.shell().networks.len();
        // Each network is scored on its own, and its scores are counted
        // into their tables' partials in network order.
        let net_ids: Vec<usize> = (0..n_networks).collect();
        let mut partials: Vec<(Counts, usize)> =
            tables.iter().map(|_| (Counts::new(), 0)).collect();
        let score = |&net: &usize| {
            let mut scores: Vec<NetScores> = tables.iter().map(|_| (Vec::new(), 0)).collect();
            chunked.for_each_network_probe(net, |p| {
                if tables.iter().all(|t| t.phy() != p.phy) {
                    return;
                }
                let snr_key = p.snr_key();
                let best = p.optimal().throughput_mbps();
                for (table, s) in tables.iter().zip(&mut scores) {
                    if table.phy() == p.phy {
                        score_set(table, p, snr_key, best, s);
                    }
                }
            });
            scores
        };
        map_in_order(&net_ids, score, |scores| {
            for (partial, s) in partials.iter_mut().zip(scores) {
                count_into(partial, s);
            }
        });
        tables
            .iter()
            .zip(partials)
            .map(|(table, partial)| PenaltyKernel { table }.finish(partial))
            .collect()
    }

    /// Convenience: build the table at `scope` then evaluate.
    pub fn for_scope(view: DatasetView<'_>, scope: Scope, phy: Phy) -> Self {
        Self::evaluate(view, &LookupTableSet::build(view, scope, phy))
    }

    /// Fraction of predictions with zero throughput loss — §4.3's "chooses
    /// the correct answer" number (≈90% b/g, ≈75% n for link scope).
    pub fn frac_exact(&self) -> f64 {
        if self.diffs_mbps.is_empty() {
            return 0.0;
        }
        self.diffs_mbps.frac_below(1e-9)
    }

    /// Mean throughput loss (Mbit/s).
    pub fn mean_loss_mbps(&self) -> f64 {
        self.diffs_mbps.mean().unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mesh11_phy::BitRate;
    use mesh11_trace::{ApId, Dataset, DatasetIndex, NetworkId, Probe, ProbeTable, RateObs};

    fn r(mbps: f64) -> BitRate {
        BitRate::bg_mbps(mbps).unwrap()
    }

    fn penalty_over(ds: &Dataset, scope: Scope) -> ThroughputPenalty {
        let ix = DatasetIndex::build(ds);
        ThroughputPenalty::for_scope(DatasetView::new(ds, &ix), scope, Phy::Bg)
    }

    fn probe(s: u32, rx: u32, snr: f64, obs: Vec<(f64, f64)>) -> ProbeTable {
        let obs: Vec<RateObs> = obs
            .into_iter()
            .map(|(mbps, loss)| RateObs {
                rate: r(mbps),
                loss,
                snr_db: snr,
            })
            .collect();
        [Probe {
            network: NetworkId(0),
            phy: Phy::Bg,
            time_s: 0.0,
            sender: ApId(s),
            receiver: ApId(rx),
            obs: &obs,
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
    fn perfect_table_zero_penalty() {
        let d = ds(vec![
            probe(0, 1, 20.0, vec![(12.0, 0.0), (24.0, 0.9)]),
            probe(0, 1, 20.0, vec![(12.0, 0.0), (24.0, 0.9)]),
        ]);
        let p = penalty_over(&d, Scope::Link);
        assert_eq!(p.diffs_mbps.len(), 2);
        assert_eq!(p.frac_exact(), 1.0);
        assert_eq!(p.mean_loss_mbps(), 0.0);
        assert_eq!(p.unpredicted, 0);
    }

    #[test]
    fn conflicting_links_cost_global_table() {
        // Link A: optimal 12 (24 is lossy); link B: optimal 24. Global
        // training at the shared SNR must err on one of them.
        let d = ds(vec![
            probe(0, 1, 20.0, vec![(12.0, 0.0), (24.0, 0.9)]),
            probe(0, 2, 20.0, vec![(12.0, 0.0), (24.0, 0.0)]),
        ]);
        let global = penalty_over(&d, Scope::Global);
        let link = penalty_over(&d, Scope::Link);
        assert!(global.frac_exact() < 1.0);
        assert_eq!(link.frac_exact(), 1.0);
        assert!(global.mean_loss_mbps() > link.mean_loss_mbps());
    }

    #[test]
    fn unheard_pick_scores_zero() {
        // Train the table toward 48 via one link, then evaluate a set that
        // never heard 48: penalty is the full optimal throughput.
        let d = ds(vec![
            probe(0, 1, 25.0, vec![(48.0, 0.0)]),
            probe(0, 2, 25.0, vec![(12.0, 0.0)]),
        ]);
        let g = penalty_over(&d, Scope::Global);
        // One of the two sets is mispredicted with an unheard rate.
        let max = g.diffs_mbps.quantile(1.0).unwrap();
        assert!(max >= 12.0 - 1e-9, "diffs {:?}", g.diffs_mbps);
    }

    #[test]
    fn cdf_export() {
        let d = ds(vec![probe(0, 1, 20.0, vec![(12.0, 0.0)])]);
        let p = penalty_over(&d, Scope::Link);
        assert_eq!(p.diffs_mbps.len(), 1);
        assert_eq!(p.diffs_mbps.points(2), vec![(0.0, 0.0), (0.0, 1.0)]);
        let empty = penalty_over(&ds(vec![]), Scope::Link);
        assert!(empty.diffs_mbps.points(2).is_empty());
    }
}
