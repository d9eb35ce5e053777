//! §6 parameter sweeps (DESIGN.md §8).
//!
//! The paper fixes the hearing threshold at 10% and remarks that "our
//! results do not change significantly as the threshold varies". These
//! helpers make that claim (and the hearing-rule choice) checkable.

use std::collections::BTreeMap;

use mesh11_phy::{BitRate, Phy};
use mesh11_trace::fold::{unit, Unit};
use mesh11_trace::{DatasetView, EnvLabel, FoldKernel, NetworkId, NetworkMeta};

use crate::triples::hearing::HearRule;
use crate::triples::hidden::{TripleAnalysis, TripleCounts, TripleKernel, TripleRows};

/// One threshold's per-(network, rate) triple tallies — the per-view
/// partial a [`TripleKernel`] folds into.
type TripleTallies = BTreeMap<(NetworkId, BitRate), (EnvLabel, TripleCounts)>;

/// Median hidden-triple fraction at `rate` for each threshold.
pub fn threshold_sweep(
    view: DatasetView<'_>,
    phy: Phy,
    rate: BitRate,
    thresholds: &[f64],
    rule: HearRule,
) -> Vec<(f64, Option<f64>)> {
    mesh11_trace::run_fold(
        view,
        &SweepKernel {
            phy,
            rate,
            thresholds: thresholds.to_vec(),
            rule,
        },
    )
}

/// The fold-style form of [`threshold_sweep`]: one unit per (network,
/// threshold), so each view is walked once instead of once per threshold.
/// Per-threshold partials are per-(network, rate) maps with disjoint keys
/// across networks, so the merged maps are identical to the per-threshold
/// independent walks.
#[derive(Debug, Clone)]
pub struct SweepKernel {
    /// PHY analyzed.
    pub phy: Phy,
    /// Rate whose median hidden fraction is reported.
    pub rate: BitRate,
    /// Thresholds swept, in output order.
    pub thresholds: Vec<f64>,
    /// Hearing rule used.
    pub rule: HearRule,
}

impl FoldKernel for SweepKernel {
    type Partial = Vec<TripleTallies>;
    /// A threshold's position, and one network's rows at it.
    type Piece = (usize, TripleRows);
    type Output = Vec<(f64, Option<f64>)>;

    fn init(&self) -> Self::Partial {
        self.thresholds.iter().map(|_| BTreeMap::new()).collect()
    }

    fn units<'a>(&'a self, view: DatasetView<'a>) -> Vec<Unit<'a, Self::Piece>> {
        let metas = view.networks().iter();
        let metas = metas.filter(|m| m.radios.contains(&self.phy) && m.n_aps >= 3);
        let ts = move |m: &'a NetworkMeta| (0..self.thresholds.len()).map(move |t| (m, t));
        let units = metas
            .flat_map(ts)
            .map(move |(m, t)| unit(m.id, move || (t, self.at(self.thresholds[t]).rows(view, m))));
        units.collect()
    }

    fn merge(&self, partial: &mut Self::Partial, (t, rows): Self::Piece) {
        partial[t].extend(rows);
    }

    fn finish(&self, partial: Self::Partial) -> Self::Output {
        let per_t = self.thresholds.iter().zip(partial);
        per_t
            .map(|(&t, per_network)| {
                let analysis = self.at(t).finish(per_network);
                (t, analysis.median_fraction(self.rate, None))
            })
            .collect()
    }
}

impl SweepKernel {
    /// The triple kernel of one threshold.
    fn at(&self, threshold: f64) -> TripleKernel {
        TripleKernel {
            phy: self.phy,
            threshold,
            rule: self.rule,
        }
    }
}

/// Median hidden-triple fraction at `rate` under each hearing rule.
pub fn rule_comparison(
    view: DatasetView<'_>,
    phy: Phy,
    rate: BitRate,
    threshold: f64,
) -> Vec<(HearRule, Option<f64>)> {
    [HearRule::Mean, HearRule::Min, HearRule::Max]
        .into_iter()
        .map(|rule| {
            let analysis = TripleAnalysis::run(view, phy, threshold, rule);
            (rule, analysis.median_fraction(rate, None))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mesh11_trace::{
        ApId, Dataset, DatasetIndex, EnvLabel, NetworkId, NetworkMeta, Probe, ProbeTable, RateObs,
    };

    fn r1() -> BitRate {
        BitRate::bg_mbps(1.0).unwrap()
    }

    /// A–B and B–C at 40% delivery, A–C at 15%: hidden only for t > 0.15.
    fn chainish() -> Dataset {
        let link = |s: u32, rx: u32, loss: f64| -> ProbeTable {
            [Probe {
                network: NetworkId(0),
                phy: Phy::Bg,
                time_s: 300.0,
                sender: ApId(s),
                receiver: ApId(rx),
                obs: &[RateObs {
                    rate: r1(),
                    loss,
                    snr_db: 8.0,
                }],
            }]
            .into_iter()
            .collect()
        };
        Dataset {
            networks: vec![NetworkMeta {
                id: NetworkId(0),
                env: EnvLabel::Indoor,
                n_aps: 3,
                radios: vec![Phy::Bg],
                location: String::new(),
            }],
            probes: [
                link(0, 1, 0.6),
                link(1, 0, 0.6),
                link(1, 2, 0.6),
                link(2, 1, 0.6),
                link(0, 2, 0.85),
                link(2, 0, 0.85),
            ]
            .iter()
            .flatten()
            .collect(),
            clients: vec![],
            probe_horizon_s: 600.0,
            client_horizon_s: 0.0,
        }
    }

    #[test]
    fn threshold_flips_the_verdict() {
        let ds = chainish();
        let ix = DatasetIndex::build(&ds);
        let rows = threshold_sweep(
            DatasetView::new(&ds, &ix),
            Phy::Bg,
            r1(),
            &[0.10, 0.20, 0.50],
            HearRule::Mean,
        );
        // t=0.10: A–C heard (0.15 ≥ 0.10) → triangle, nothing hidden.
        assert_eq!(rows[0].1, Some(0.0));
        // t=0.20: A–C drops out → classic hidden triple.
        assert_eq!(rows[1].1, Some(1.0));
        // t=0.50: nobody hears anybody → no relevant triples at all.
        assert_eq!(rows[2].1, None);
    }

    #[test]
    fn rules_order_sensibly() {
        // Max is the most permissive hearing rule ⇒ densest graph ⇒ it can
        // only close triangles relative to Min.
        let ds = chainish();
        let ix = DatasetIndex::build(&ds);
        let rows = rule_comparison(DatasetView::new(&ds, &ix), Phy::Bg, r1(), 0.12);
        let get = |rule: HearRule| rows.iter().find(|r| r.0 == rule).unwrap().1;
        // All directions symmetric here: rules agree on edges, so medians
        // agree — the sweep still exercises the full pipeline per rule.
        assert_eq!(get(HearRule::Mean), get(HearRule::Min));
        assert_eq!(get(HearRule::Mean), get(HearRule::Max));
    }
}
