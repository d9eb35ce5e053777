//! §5.2.1 — link asymmetry (Fig 5.2).
//!
//! For every unordered AP pair where both directions are measurable, the
//! ratio of the two directed packet success rates. Asymmetry is why ETX1
//! (perfect-ACK) and ETX2 (lossy-ACK) disagree; the paper finds the spread
//! real but milder than older small-scale studies, and stable across rates.

use std::collections::BTreeMap;

use mesh11_phy::{BitRate, Phy};
use mesh11_trace::fold::{meta_units, Unit};
use mesh11_trace::{ApId, DatasetView, DeliveryMatrix, FoldKernel};

use crate::routing::etx::MIN_DELIVERY;

/// Asymmetry ratios of one delivery matrix: `P(lo→hi) / P(hi→lo)` for every
/// unordered pair with both directions above the delivery floor.
pub fn asymmetry_ratios(m: &DeliveryMatrix) -> Vec<f64> {
    let n = m.n_aps();
    let mut out = Vec::new();
    for a in 0..n {
        for b in (a + 1)..n {
            let (a, b) = (ApId(a as u32), ApId(b as u32));
            let fwd = m.get(a, b);
            let rev = m.get(b, a);
            if fwd >= MIN_DELIVERY && rev >= MIN_DELIVERY {
                out.push(fwd / rev);
            }
        }
    }
    out
}

/// Fig 5.2's per-rate pooled ratios across every network of a PHY.
pub fn asymmetry_by_rate(view: DatasetView<'_>, phy: Phy) -> BTreeMap<BitRate, Vec<f64>> {
    mesh11_trace::run_fold(view, &AsymmetryKernel { phy })
}

/// The fold-style form of [`asymmetry_by_rate`]: each rate's pool
/// extends in network-id order across the folded views: extending each
/// rate's pool from the per-network pieces in network order rebuilds the
/// sequential pools exactly.
#[derive(Debug, Clone, Copy)]
pub struct AsymmetryKernel {
    /// PHY analyzed.
    pub phy: Phy,
}

impl FoldKernel for AsymmetryKernel {
    type Partial = BTreeMap<BitRate, Vec<f64>>;
    type Piece = Vec<(BitRate, Vec<f64>)>;
    type Output = BTreeMap<BitRate, Vec<f64>>;

    fn init(&self) -> Self::Partial {
        BTreeMap::new()
    }

    fn units<'a>(&'a self, view: DatasetView<'a>) -> Vec<Unit<'a, Self::Piece>> {
        meta_units(
            view,
            |meta| meta.radios.contains(&self.phy),
            move |meta| {
                let phy = self.phy;
                view.delivery_stack(phy, meta.id)
                    .iter()
                    .map(|m| (m.rate, asymmetry_ratios(m)))
                    .collect()
            },
        )
    }

    fn merge(&self, out: &mut Self::Partial, per_net: Self::Piece) {
        for (rate, ratios) in per_net {
            out.entry(rate).or_default().extend(ratios);
        }
    }

    fn finish(&self, partial: Self::Partial) -> Self::Output {
        partial
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mesh11_trace::NetworkId;

    #[test]
    fn ratio_computation() {
        let mut m = DeliveryMatrix::new_zero(NetworkId(0), BitRate::bg_mbps(1.0).unwrap(), 3);
        m.set(ApId(0), ApId(1), 0.9);
        m.set(ApId(1), ApId(0), 0.45);
        // Pair (0,2): only one direction — excluded.
        m.set(ApId(0), ApId(2), 0.8);
        let r = asymmetry_ratios(&m);
        assert_eq!(r.len(), 1);
        assert!((r[0] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn symmetric_matrix_gives_unit_ratios() {
        let mut m = DeliveryMatrix::new_zero(NetworkId(0), BitRate::bg_mbps(1.0).unwrap(), 3);
        for (a, b) in [(0u32, 1u32), (1, 2), (0, 2)] {
            m.set(ApId(a), ApId(b), 0.7);
            m.set(ApId(b), ApId(a), 0.7);
        }
        let r = asymmetry_ratios(&m);
        assert_eq!(r.len(), 3);
        assert!(r.iter().all(|&x| (x - 1.0).abs() < 1e-12));
    }

    #[test]
    fn floor_excludes_half_dead_pairs() {
        let mut m = DeliveryMatrix::new_zero(NetworkId(0), BitRate::bg_mbps(1.0).unwrap(), 2);
        m.set(ApId(0), ApId(1), 0.9);
        m.set(ApId(1), ApId(0), 0.01);
        assert!(asymmetry_ratios(&m).is_empty());
    }
}
