//! §5.2.2's unpictured result: path diversity vs opportunistic improvement.
//!
//! The paper: "We also see a similar result regarding path diversity (not
//! pictured): the median improvement increases as the number of diverse
//! paths from the source to the destination increases, but the maximum
//! improvement tends to decrease."
//!
//! Diversity here is measured the way opportunism consumes it: the number
//! of usable first hops that make progress toward the destination (the
//! source's ExOR candidate-set size). A pair with one candidate is a
//! corridor; a pair with five is a mesh.

use mesh11_stats::BinnedStats;
use mesh11_trace::fold::{meta_units, Unit};
use mesh11_trace::{ApId, DatasetView, DeliveryMatrix};

use crate::routing::etx::{EtxVariant, MIN_DELIVERY};
use crate::routing::improvement::OpportunisticAnalysis;
use crate::routing::shortest::PathTable;

/// Number of usable neighbours of `s` strictly closer (by ETX1) to `d` —
/// the source's forwarding-candidate count.
pub fn candidate_count(m: &DeliveryMatrix, paths: &PathTable, s: ApId, d: ApId) -> usize {
    let n = m.n_aps();
    let ds = paths.cost(s, d);
    if !ds.is_finite() {
        return 0;
    }
    (0..n)
        .filter(|&v| {
            let v_id = ApId(v as u32);
            v_id != s && m.get(s, v_id) >= MIN_DELIVERY && paths.cost(v_id, d) < ds
        })
        .count()
}

/// One analysis's `(diversity, improvement)` pairs, binned by diversity.
fn diversity_bins(
    m: &DeliveryMatrix,
    analysis: &OpportunisticAnalysis,
    variant: EtxVariant,
) -> BinnedStats {
    let paths = PathTable::compute(m, EtxVariant::Etx1);
    let mut by = BinnedStats::new();
    for p in &analysis.pairs {
        if let Some(imp) = p.improvement(variant) {
            by.push(candidate_count(m, &paths, p.s, p.d) as i64, imp);
        }
    }
    by
}

/// Reduces pooled bins to `(diversity, median, max, count)` rows.
fn diversity_rows(by_div: BinnedStats) -> Vec<(usize, f64, f64, usize)> {
    let rows = by_div.rows().into_iter();
    rows.map(|(d, s)| (d as usize, s.median, s.max, s.count))
        .collect()
}

/// Pools `(diversity, improvement)` pairs across analyses and reduces them
/// to `(diversity, median, max, count)` rows — the §5.2.2 result. Bins
/// merge in matrix order, which keeps each bin's push order.
pub fn improvement_by_diversity(
    matrices: &[(DeliveryMatrix, OpportunisticAnalysis)],
    variant: EtxVariant,
) -> Vec<(usize, f64, f64, usize)> {
    let mut by_div = BinnedStats::new();
    for (m, analysis) in matrices {
        by_div.merge(diversity_bins(m, analysis, variant));
    }
    diversity_rows(by_div)
}

/// Convenience: builds matrices + analyses for one rate over a dataset and
/// reduces them. `min_aps` mirrors the §5 population (5).
pub fn analyze_diversity(
    view: mesh11_trace::DatasetView<'_>,
    phy: mesh11_phy::Phy,
    rate: mesh11_phy::BitRate,
    min_aps: usize,
    variant: EtxVariant,
) -> Vec<(usize, f64, f64, usize)> {
    mesh11_trace::run_fold(
        view,
        &DiversityKernel {
            phy,
            rate,
            min_aps,
            variant,
        },
    )
}

/// The fold-style form of [`analyze_diversity`]: each network's pairs are
/// binned on their own and the bins merge in network-id order across the
/// folded views, as [`improvement_by_diversity`] merges them.
#[derive(Debug, Clone, Copy)]
pub struct DiversityKernel {
    /// PHY analyzed.
    pub phy: mesh11_phy::Phy,
    /// Rate whose delivery matrix is analyzed.
    pub rate: mesh11_phy::BitRate,
    /// Minimum APs for a network to join the population (§5 uses 5).
    pub min_aps: usize,
    /// ETX variant scoring the improvement.
    pub variant: EtxVariant,
}

impl mesh11_trace::FoldKernel for DiversityKernel {
    type Partial = BinnedStats;
    type Piece = BinnedStats;
    type Output = Vec<(usize, f64, f64, usize)>;

    fn init(&self) -> BinnedStats {
        BinnedStats::new()
    }

    fn units<'a>(&'a self, view: DatasetView<'a>) -> Vec<Unit<'a, Self::Piece>> {
        meta_units(
            view,
            |m| m.n_aps >= self.min_aps && m.radios.contains(&self.phy),
            move |meta| {
                let m = view.delivery_matrix(self.phy, meta.id, self.rate);
                diversity_bins(m, &OpportunisticAnalysis::compute(m), self.variant)
            },
        )
    }

    fn merge(&self, by_div: &mut BinnedStats, by: BinnedStats) {
        by_div.merge(by);
    }

    fn finish(&self, by_div: BinnedStats) -> Self::Output {
        diversity_rows(by_div)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mesh11_phy::BitRate;
    use mesh11_trace::NetworkId;

    fn rate() -> BitRate {
        BitRate::bg_mbps(1.0).unwrap()
    }

    /// Source 0 with `k` parallel relays to destination `k+1`.
    fn fan(k: usize) -> DeliveryMatrix {
        let n = k + 2;
        let dst = (n - 1) as u32;
        let mut m = DeliveryMatrix::new_zero(NetworkId(0), rate(), n);
        for r in 1..=k as u32 {
            m.set(ApId(0), ApId(r), 0.7);
            m.set(ApId(r), ApId(0), 0.7);
            m.set(ApId(r), ApId(dst), 0.9);
            m.set(ApId(dst), ApId(r), 0.9);
        }
        m
    }

    #[test]
    fn candidate_count_matches_fan_width() {
        for k in 1..5 {
            let m = fan(k);
            let paths = PathTable::compute(&m, EtxVariant::Etx1);
            let dst = ApId((k + 1) as u32);
            assert_eq!(candidate_count(&m, &paths, ApId(0), dst), k, "fan {k}");
            // The relays themselves have exactly one candidate (the dst).
            assert_eq!(candidate_count(&m, &paths, ApId(1), dst), 1);
        }
    }

    #[test]
    fn unreachable_pairs_have_zero_candidates() {
        let m = DeliveryMatrix::new_zero(NetworkId(0), rate(), 3);
        let paths = PathTable::compute(&m, EtxVariant::Etx1);
        assert_eq!(candidate_count(&m, &paths, ApId(0), ApId(2)), 0);
    }

    #[test]
    fn median_improvement_grows_with_diversity() {
        // Pool fans of width 1..4: wider fans give opportunism more to eat.
        let pool: Vec<(DeliveryMatrix, OpportunisticAnalysis)> = (1..=4)
            .map(|k| {
                let m = fan(k);
                let a = OpportunisticAnalysis::compute(&m);
                (m, a)
            })
            .collect();
        let rows = improvement_by_diversity(&pool, EtxVariant::Etx1);
        // Extract the rows for diversity 1 and the largest diversity seen.
        let med_at = |d: usize| rows.iter().find(|r| r.0 == d).map(|r| r.1);
        let lo = med_at(1).expect("diversity-1 pairs exist");
        let hi = med_at(4).expect("diversity-4 pairs exist");
        assert!(
            hi > lo,
            "median improvement should grow with diversity: {lo} → {hi}"
        );
        // Diversity-1 pairs see exactly zero (no opportunism possible).
        assert!(lo < 1e-9);
    }
}
