//! §4.3 — the throughput cost of table-driven rate selection (Fig 4.4).
//!
//! For every probe set, compare the throughput of the rate the lookup table
//! would have picked against the throughput of the set's actual optimum.
//! A rate the table picks but the set never heard (no observation) scores
//! zero throughput — exactly the punishment a real sender would take.

use mesh11_phy::Phy;
use mesh11_stats::Cdf;
use mesh11_trace::{ChunkedDataset, DatasetView, FoldKernel};
use rayon::prelude::*;

use crate::bitrate::lookup::{LookupTableSet, Scope};

/// The fold-style form of [`ThroughputPenalty::evaluate`]: needs a
/// **completed** table set, so in a fused pass it runs in a second phase
/// after the table-building folds finish. The evaluation fans out over a
/// flat per-network work list; concatenating per-network diff vectors in
/// network order rebuilds the sequential vector element for element
/// (datasets are network-major).
#[derive(Debug, Clone, Copy)]
pub struct PenaltyKernel<'t> {
    /// The trained tables the kernel scores against.
    pub table: &'t LookupTableSet,
}

impl FoldKernel for PenaltyKernel<'_> {
    type Partial = (Vec<f64>, usize);
    type Output = ThroughputPenalty;

    fn init(&self) -> Self::Partial {
        (Vec::new(), 0)
    }

    fn fold(&self, view: DatasetView<'_>, partial: &mut Self::Partial) {
        // The per-probe SNR columns, built once at full width before
        // the per-network fan-out reads them.
        view.columns();
        let nets = view.network_views(self.table.phy());
        let partials: Vec<(Vec<f64>, usize)> = nets
            .par_iter()
            .map(|nv| {
                let mut d = Vec::new();
                let mut unp = 0usize;
                for e in nv.entries_in_order() {
                    let Some(pick) = self.table.predict_at(e.probe, e.snr_key) else {
                        unp += 1;
                        continue;
                    };
                    let best = e.opt.throughput_mbps();
                    let got = e.probe.obs_for(pick).map_or(0.0, |o| o.throughput_mbps());
                    d.push((best - got).max(0.0));
                }
                (d, unp)
            })
            .collect();
        for (d, unp) in partials {
            partial.0.extend(d);
            partial.1 += unp;
        }
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
    /// One difference (Mbit/s, ≥ 0) per predicted probe set.
    pub diffs_mbps: Vec<f64>,
    /// Probe sets for which the table had no entry (excluded from the CDF).
    pub unpredicted: usize,
}

impl ThroughputPenalty {
    /// Evaluates a trained table set against the dataset it describes
    /// (dataset order per PHY, so the diff vector matches the pre-index
    /// pipeline element for element).
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
    ///
    /// [`Probe::snr_key`]: mesh11_trace::Probe::snr_key
    /// [`Probe::optimal`]: mesh11_trace::Probe::optimal
    pub fn evaluate_batch_chunked(
        chunked: &ChunkedDataset,
        tables: &[&LookupTableSet],
    ) -> Vec<Self> {
        let n_networks = chunked.shell().networks.len();
        // One (diffs, unpredicted) partial per (network, table); the fan-out
        // is per network, and concatenating per-network partials in network
        // order rebuilds each table's sequential diff vector exactly.
        let net_ids: Vec<usize> = (0..n_networks).collect();
        let per_net: Vec<Vec<(Vec<f64>, usize)>> = net_ids
            .par_iter()
            .map(|&net| {
                let mut partials: Vec<(Vec<f64>, usize)> =
                    tables.iter().map(|_| (Vec::new(), 0)).collect();
                chunked.for_each_network_probe(net, |p| {
                    if tables.iter().all(|t| t.phy() != p.phy) {
                        return;
                    }
                    let snr_key = p.snr_key();
                    let best = p.optimal().throughput_mbps();
                    for (k, table) in tables.iter().enumerate() {
                        if table.phy() != p.phy {
                            continue;
                        }
                        let (d, unp) = &mut partials[k];
                        let Some(pick) = table.predict_at(p, snr_key) else {
                            *unp += 1;
                            continue;
                        };
                        let got = p.obs_for(pick).map_or(0.0, |o| o.throughput_mbps());
                        d.push((best - got).max(0.0));
                    }
                });
                partials
            })
            .collect();
        tables
            .iter()
            .enumerate()
            .map(|(k, table)| {
                let mut diffs = Vec::new();
                let mut unpredicted = 0usize;
                for net in &per_net {
                    diffs.extend_from_slice(&net[k].0);
                    unpredicted += net[k].1;
                }
                Self {
                    scope: table.scope(),
                    phy: table.phy(),
                    diffs_mbps: diffs,
                    unpredicted,
                }
            })
            .collect()
    }

    /// Convenience: build the table at `scope` then evaluate.
    pub fn for_scope(view: DatasetView<'_>, scope: Scope, phy: Phy) -> Self {
        Self::evaluate(view, &LookupTableSet::build(view, scope, phy))
    }

    /// CDF of the differences (the Fig 4.4 curve). `None` when nothing was
    /// predicted.
    pub fn cdf(&self) -> Option<Cdf> {
        Cdf::from_samples(self.diffs_mbps.iter().copied())
    }

    /// Fraction of predictions with zero throughput loss — §4.3's "chooses
    /// the correct answer" number (≈90% b/g, ≈75% n for link scope).
    pub fn frac_exact(&self) -> f64 {
        if self.diffs_mbps.is_empty() {
            return 0.0;
        }
        self.diffs_mbps.iter().filter(|&&d| d < 1e-9).count() as f64 / self.diffs_mbps.len() as f64
    }

    /// Mean throughput loss (Mbit/s).
    pub fn mean_loss_mbps(&self) -> f64 {
        mesh11_stats::mean(&self.diffs_mbps).unwrap_or(0.0)
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
        let max = g.diffs_mbps.iter().copied().fold(0.0, f64::max);
        assert!(max >= 12.0 - 1e-9, "diffs {:?}", g.diffs_mbps);
    }

    #[test]
    fn cdf_export() {
        let d = ds(vec![probe(0, 1, 20.0, vec![(12.0, 0.0)])]);
        let p = penalty_over(&d, Scope::Link);
        let cdf = p.cdf().unwrap();
        assert_eq!(cdf.len(), 1);
        assert_eq!(cdf.eval(0.0), 1.0);
        let empty = penalty_over(&ds(vec![]), Scope::Link);
        assert!(empty.cdf().is_none());
    }
}
