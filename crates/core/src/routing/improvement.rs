//! §5.1–5.3 — quantifying the opportunistic gain.
//!
//! For every ordered reachable pair the improvement is
//! `ETX_cost / ExOR_cost − 1` (the paper's definition: "an improvement of x
//! means ETX1 requires (x·100)% more transmissions"). Diversity-free pairs
//! come out at exactly zero — the 13–20% "no improvement" mass of Fig 5.1.

use mesh11_phy::{BitRate, Phy};
use mesh11_stats::BinnedStats;
use mesh11_trace::fold::{meta_units, Unit};
use mesh11_trace::{ApId, DatasetView, DeliveryMatrix, FoldKernel, NetworkId};

use crate::routing::etx::EtxVariant;
use crate::routing::exor::ExorTable;
use crate::routing::shortest::PathTable;

/// One source–destination pair's routing costs.
#[derive(Debug, Clone, Copy)]
pub struct PairCosts {
    /// Source.
    pub s: ApId,
    /// Destination.
    pub d: ApId,
    /// ETX1 shortest-path cost.
    pub etx1: f64,
    /// ETX2 shortest-path cost (∞ if no symmetric path).
    pub etx2: f64,
    /// Idealized opportunistic cost.
    pub exor: f64,
    /// Hop count of the ETX1 path.
    pub hops: u32,
}

impl PairCosts {
    /// The paper's fraction improvement versus a variant; `None` when the
    /// variant's path does not exist.
    pub fn improvement(&self, variant: EtxVariant) -> Option<f64> {
        let etx = match variant {
            EtxVariant::Etx1 => self.etx1,
            EtxVariant::Etx2 => self.etx2,
        };
        (etx.is_finite() && self.exor.is_finite() && self.exor > 0.0)
            .then(|| (etx / self.exor - 1.0).max(0.0))
    }
}

/// The full opportunistic-routing analysis of one (network, rate).
#[derive(Debug, Clone)]
pub struct OpportunisticAnalysis {
    /// Network analyzed.
    pub network: NetworkId,
    /// Rate the delivery matrix was measured at.
    pub rate: BitRate,
    /// Network size (APs).
    pub n_aps: usize,
    /// Every ordered pair reachable under ETX1.
    pub pairs: Vec<PairCosts>,
}

impl OpportunisticAnalysis {
    /// Runs the §5 pipeline on one delivery matrix.
    pub fn compute(m: &DeliveryMatrix) -> Self {
        let etx1 = PathTable::compute(m, EtxVariant::Etx1);
        let etx2 = PathTable::compute(m, EtxVariant::Etx2);
        let exor = ExorTable::compute(m, &etx1, EtxVariant::Etx1);
        let pairs = etx1
            .reachable_pairs()
            .map(|(s, d)| PairCosts {
                s,
                d,
                etx1: etx1.cost(s, d),
                etx2: etx2.cost(s, d),
                exor: exor.cost(s, d),
                hops: etx1.hops(s, d).expect("reachable pairs have hop counts"),
            })
            .collect();
        Self {
            network: m.network,
            rate: m.rate,
            n_aps: m.n_aps(),
            pairs,
        }
    }

    /// All defined improvements versus a variant (Fig 5.1's sample).
    pub fn improvements(&self, variant: EtxVariant) -> Vec<f64> {
        self.pairs
            .iter()
            .filter_map(|p| p.improvement(variant))
            .collect()
    }

    /// Fraction of pairs with (numerically) zero improvement.
    pub fn frac_no_improvement(&self, variant: EtxVariant) -> f64 {
        let imps = self.improvements(variant);
        if imps.is_empty() {
            return 0.0;
        }
        imps.iter().filter(|&&x| x < 1e-9).count() as f64 / imps.len() as f64
    }

    /// ETX1 path lengths in hops (Fig 5.3's sample).
    pub fn path_lengths(&self) -> Vec<u32> {
        self.pairs.iter().map(|p| p.hops).collect()
    }

    /// Mean improvement over all pairs (Fig 5.5's per-network y value).
    pub fn mean_improvement(&self, variant: EtxVariant) -> Option<f64> {
        mesh11_stats::mean(&self.improvements(variant))
    }
}

/// Runs the analysis for every rate of every network with at least
/// `min_aps` APs (the paper uses 5), returning one entry per
/// (network, rate).
pub fn analyze_dataset(
    view: DatasetView<'_>,
    phy: Phy,
    min_aps: usize,
) -> Vec<OpportunisticAnalysis> {
    mesh11_trace::run_fold(view, &RoutingKernel { phy, min_aps })
}

/// The fold-style form of [`analyze_dataset`]: one entry per
/// (network, rate) in network-id order across the folded views.
#[derive(Debug, Clone, Copy)]
pub struct RoutingKernel {
    /// PHY analyzed.
    pub phy: Phy,
    /// Minimum APs for a network to join the population (§5 uses 5).
    pub min_aps: usize,
}

impl FoldKernel for RoutingKernel {
    type Partial = Vec<OpportunisticAnalysis>;
    type Piece = Vec<OpportunisticAnalysis>;
    type Output = Vec<OpportunisticAnalysis>;

    fn init(&self) -> Self::Partial {
        Vec::new()
    }

    /// One pass over the network's indexed probes for all rates at once.
    fn units<'a>(&'a self, view: DatasetView<'a>) -> Vec<Unit<'a, Self::Piece>> {
        meta_units(
            view,
            |m| m.n_aps >= self.min_aps && m.radios.contains(&self.phy),
            move |meta| {
                view.delivery_stack(self.phy, meta.id)
                    .iter()
                    .map(OpportunisticAnalysis::compute)
                    .collect()
            },
        )
    }

    fn merge(&self, out: &mut Self::Partial, per_net: Self::Piece) {
        out.extend(per_net);
    }

    fn finish(&self, out: Self::Partial) -> Self::Output {
        out
    }
}

/// Fig 5.4: median and maximum improvement by ETX1 path length, pooled over
/// every analysis handed in. Returns `(hops, median, max)` rows.
pub fn improvement_by_path_length(
    analyses: &[OpportunisticAnalysis],
    variant: EtxVariant,
) -> Vec<(u32, f64, f64)> {
    let mut by_hops = BinnedStats::new();
    for a in analyses {
        for p in &a.pairs {
            if let Some(imp) = p.improvement(variant) {
                by_hops.push(i64::from(p.hops), imp);
            }
        }
    }
    by_hops
        .rows()
        .into_iter()
        .filter(|(h, _)| *h >= 1)
        .map(|(h, s)| (h as u32, s.median, s.max))
        .collect()
}

/// Fig 5.5: per-network mean improvement versus network size, at one rate.
/// Returns `(size, mean, stddev)` rows.
pub fn improvement_by_network_size(
    analyses: &[OpportunisticAnalysis],
    rate: BitRate,
    variant: EtxVariant,
) -> Vec<(usize, f64, f64)> {
    analyses
        .iter()
        .filter(|a| a.rate == rate)
        .filter_map(|a| {
            let imps = a.improvements(variant);
            let mean = mesh11_stats::mean(&imps)?;
            let sd = mesh11_stats::stddev(&imps).unwrap_or(0.0);
            Some((a.n_aps, mean, sd))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matrix(n: usize) -> DeliveryMatrix {
        DeliveryMatrix::new_zero(NetworkId(0), BitRate::bg_mbps(1.0).unwrap(), n)
    }

    /// A diamond: 0 → {1, 2} → 3 with a weak direct 0→3. Rich diversity.
    fn diamond() -> DeliveryMatrix {
        let mut m = matrix(4);
        for (a, b) in [(0u32, 1u32), (0, 2), (1, 3), (2, 3)] {
            m.set(ApId(a), ApId(b), 0.8);
            m.set(ApId(b), ApId(a), 0.6);
        }
        m.set(ApId(0), ApId(3), 0.2);
        m.set(ApId(3), ApId(0), 0.2);
        m
    }

    #[test]
    fn diamond_shows_improvement() {
        let a = OpportunisticAnalysis::compute(&diamond());
        let pair = a
            .pairs
            .iter()
            .find(|p| p.s == ApId(0) && p.d == ApId(3))
            .unwrap();
        let imp1 = pair.improvement(EtxVariant::Etx1).unwrap();
        assert!(imp1 > 0.0, "diversity must show improvement: {imp1}");
        // ETX2 improvement dominates ETX1 improvement (asymmetric links).
        let imp2 = pair.improvement(EtxVariant::Etx2).unwrap();
        assert!(imp2 > imp1);
    }

    #[test]
    fn chain_shows_none() {
        let mut m = matrix(3);
        for (a, b) in [(0u32, 1u32), (1, 2)] {
            m.set(ApId(a), ApId(b), 0.8);
            m.set(ApId(b), ApId(a), 0.8);
        }
        let a = OpportunisticAnalysis::compute(&m);
        assert_eq!(a.frac_no_improvement(EtxVariant::Etx1), 1.0);
        // Symmetric chain: ETX2 improvement exists (ETX2 path costs more
        // than the broadcast ExOR cost) even without diversity.
        assert!(a.improvements(EtxVariant::Etx2).iter().all(|&x| x > 0.0));
    }

    #[test]
    fn improvements_nonnegative_and_finite() {
        let a = OpportunisticAnalysis::compute(&diamond());
        for v in EtxVariant::ALL {
            for imp in a.improvements(v) {
                assert!(imp.is_finite() && imp >= 0.0);
            }
        }
    }

    #[test]
    fn path_length_rows() {
        let a = OpportunisticAnalysis::compute(&diamond());
        let rows = improvement_by_path_length(&[a], EtxVariant::Etx1);
        assert!(!rows.is_empty());
        for (h, med, max) in rows {
            assert!(h >= 1);
            assert!(med <= max + 1e-12);
        }
    }

    #[test]
    fn network_size_rows() {
        let a = OpportunisticAnalysis::compute(&diamond());
        let rate = BitRate::bg_mbps(1.0).unwrap();
        let rows = improvement_by_network_size(&[a], rate, EtxVariant::Etx1);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].0, 4);
        assert!(rows[0].1 >= 0.0);
        // Wrong rate filters everything out.
        let none = improvement_by_network_size(
            &[OpportunisticAnalysis::compute(&diamond())],
            BitRate::bg_mbps(48.0).unwrap(),
            EtxVariant::Etx1,
        );
        assert!(none.is_empty());
    }

    #[test]
    fn hops_match_paths() {
        let a = OpportunisticAnalysis::compute(&diamond());
        let p03 = a
            .pairs
            .iter()
            .find(|p| p.s == ApId(0) && p.d == ApId(3))
            .unwrap();
        // 0.8·0.8 two-hop (ETX 2.5) beats the 0.2 direct (ETX 5).
        assert_eq!(p03.hops, 2);
    }
}
