//! §4.3 — the throughput cost of table-driven rate selection (Fig 4.4).
//!
//! For every probe set, compare the throughput of the rate the lookup table
//! would have picked against the throughput of the set's actual optimum.
//! A rate the table picks but the set never heard (no observation) scores
//! zero throughput — exactly the punishment a real sender would take.
//!
//! [`PenaltyKernel`] is the one scorer. Every source reaches it through
//! the fused runner's pass B, one network-aligned view at a time: a
//! resident dataset as one view, a file as its parts, the chunk store as
//! one view per network.

use mesh11_phy::Phy;
use mesh11_stats::Counts;
use mesh11_trace::fold::{network_units, Unit};
use mesh11_trace::{DatasetView, FoldKernel};

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
            let (mut diffs, mut unpredicted) = (Vec::new(), 0);
            for e in nv.entries_in_order() {
                match self.table.predict_at(e.probe, e.snr_key) {
                    None => unpredicted += 1,
                    Some(pick) => {
                        let got = e.probe.obs_for(pick).map_or(0.0, |o| o.throughput_mbps());
                        diffs.push((e.opt.throughput_mbps() - got).max(0.0));
                    }
                }
            }
            (diffs, unpredicted)
        })
    }

    fn merge(&self, partial: &mut Self::Partial, (diffs, unpredicted): NetScores) {
        partial.0.extend(diffs);
        partial.1 += unpredicted;
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
