//! The ETT (expected transmission time) metric — the paper's question 2
//! names it alongside ETX ("the expected number of transmissions \[15\] or
//! expected transmission time \[8\] metrics") but the body evaluates only
//! ETX; this module completes the comparison.
//!
//! ETT weighs each expected transmission by its airtime and lets every link
//! run its own best rate:
//!
//! ```text
//! ETT(link) = min over rates r of  frame_time(r) / P_r(link)
//! ```
//!
//! so a clean 48 Mbit/s hop costs ~48× less than a clean 1 Mbit/s hop,
//! and a relay chain of fast hops can beat one slow direct link — the
//! insight behind Roofnet's multi-rate routing. The analysis compares
//! multi-rate ETT paths against the best *single-rate* ETX1 path expressed
//! in time, per source–destination pair.

use mesh11_phy::{airtime::frame_time_us, BitRate, Phy};
use mesh11_trace::fold::{meta_units, Unit};
use mesh11_trace::{ApId, DatasetView, DeliveryMatrix, FoldKernel, NetworkId};

use crate::routing::etx::MIN_DELIVERY;
use crate::routing::shortest::PathTable;

/// Per-link ETT cost (µs) and the rate achieving it, over a stack of
/// per-rate delivery matrices for the same network.
pub fn ett_link_cost_us(
    matrices: &[DeliveryMatrix],
    from: ApId,
    to: ApId,
) -> Option<(f64, BitRate)> {
    matrices
        .iter()
        .filter_map(|m| {
            let p = m.get(from, to);
            (p >= MIN_DELIVERY).then(|| (frame_time_us(m.rate) / p, m.rate))
        })
        .min_by(|a, b| a.0.partial_cmp(&b.0).expect("finite costs"))
}

/// All-pairs multi-rate ETT shortest paths (costs in µs).
pub fn ett_paths(matrices: &[DeliveryMatrix]) -> PathTable {
    let n = matrices.first().map_or(0, |m| m.n_aps());
    debug_assert!(matrices.iter().all(|m| m.n_aps() == n));
    PathTable::compute_with(n, |u, v| {
        ett_link_cost_us(matrices, ApId(u as u32), ApId(v as u32)).map(|(c, _)| c)
    })
}

/// All-pairs single-rate time paths: ETX1 shortest paths on one rate's
/// matrix, with every transmission charged that rate's airtime.
pub fn single_rate_time_paths(m: &DeliveryMatrix) -> PathTable {
    let t = frame_time_us(m.rate);
    PathTable::compute_with(m.n_aps(), |u, v| {
        let p = m.get(ApId(u as u32), ApId(v as u32));
        (p >= MIN_DELIVERY).then(|| t / p)
    })
}

/// One pair's multi-rate vs single-rate comparison.
#[derive(Debug, Clone, Copy)]
pub struct EttPair {
    /// Source.
    pub s: ApId,
    /// Destination.
    pub d: ApId,
    /// Multi-rate ETT path time (µs).
    pub ett_us: f64,
    /// The best single-rate path time (µs), minimized over rates.
    pub best_single_us: f64,
    /// The rate achieving `best_single_us`.
    pub best_single_rate: BitRate,
}

impl EttPair {
    /// `best_single / ett` — how much faster multi-rate routing delivers
    /// (≥ 1 up to floating slack, since ETT can mimic any single rate).
    pub fn speedup(&self) -> f64 {
        self.best_single_us / self.ett_us
    }
}

/// The ETT analysis of one network.
#[derive(Debug, Clone)]
pub struct EttAnalysis {
    /// Network analyzed.
    pub network: NetworkId,
    /// Network size.
    pub n_aps: usize,
    /// Every pair reachable under multi-rate ETT.
    pub pairs: Vec<EttPair>,
}

impl EttAnalysis {
    /// Runs the comparison over a network's per-rate matrices.
    pub fn compute(matrices: &[DeliveryMatrix]) -> Self {
        let network = matrices.first().map(|m| m.network).unwrap_or_default();
        let n = matrices.first().map_or(0, |m| m.n_aps());
        let ett = ett_paths(matrices);
        let singles: Vec<(BitRate, PathTable)> = matrices
            .iter()
            .map(|m| (m.rate, single_rate_time_paths(m)))
            .collect();
        let mut pairs = Vec::new();
        for (s, d) in ett.reachable_pairs() {
            let best = singles
                .iter()
                .filter_map(|(rate, t)| {
                    let c = t.cost(s, d);
                    c.is_finite().then_some((c, *rate))
                })
                .min_by(|a, b| a.0.partial_cmp(&b.0).expect("finite costs"));
            let Some((best_single_us, best_single_rate)) = best else {
                continue;
            };
            pairs.push(EttPair {
                s,
                d,
                ett_us: ett.cost(s, d),
                best_single_us,
                best_single_rate,
            });
        }
        Self {
            network,
            n_aps: n,
            pairs,
        }
    }

    /// Speedups of every pair.
    pub fn speedups(&self) -> Vec<f64> {
        self.pairs.iter().map(EttPair::speedup).collect()
    }
}

/// Runs the ETT analysis on every b/g network with at least `min_aps` APs.
pub fn analyze_ett(view: DatasetView<'_>, phy: Phy, min_aps: usize) -> Vec<EttAnalysis> {
    mesh11_trace::run_fold(view, &EttKernel { phy, min_aps })
}

/// The fold-style form of [`analyze_ett`]: one entry per network in id
/// order across the folded views.
#[derive(Debug, Clone, Copy)]
pub struct EttKernel {
    /// PHY analyzed.
    pub phy: Phy,
    /// Minimum APs for a network to join the population.
    pub min_aps: usize,
}

impl FoldKernel for EttKernel {
    type Partial = Vec<EttAnalysis>;
    type Piece = EttAnalysis;
    type Output = Vec<EttAnalysis>;

    fn init(&self) -> Self::Partial {
        Vec::new()
    }

    fn units<'a>(&'a self, view: DatasetView<'a>) -> Vec<Unit<'a, Self::Piece>> {
        meta_units(
            view,
            |m| m.n_aps >= self.min_aps && m.radios.contains(&self.phy),
            move |meta| EttAnalysis::compute(view.delivery_stack(self.phy, meta.id)),
        )
    }

    fn merge(&self, out: &mut Self::Partial, analysis: EttAnalysis) {
        out.push(analysis);
    }

    fn finish(&self, out: Self::Partial) -> Self::Output {
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rate(mbps: f64) -> BitRate {
        BitRate::bg_mbps(mbps).unwrap()
    }

    /// Two rate layers over 3 nodes: at 1 Mbit/s everything connects; at
    /// 48 Mbit/s only the two short hops do.
    fn layered() -> Vec<DeliveryMatrix> {
        let mut slow = DeliveryMatrix::new_zero(NetworkId(0), rate(1.0), 3);
        for (a, b) in [(0u32, 1u32), (1, 2), (0, 2)] {
            slow.set(ApId(a), ApId(b), 0.95);
            slow.set(ApId(b), ApId(a), 0.95);
        }
        let mut fast = DeliveryMatrix::new_zero(NetworkId(0), rate(48.0), 3);
        for (a, b) in [(0u32, 1u32), (1, 2)] {
            fast.set(ApId(a), ApId(b), 0.9);
            fast.set(ApId(b), ApId(a), 0.9);
        }
        vec![slow, fast]
    }

    #[test]
    fn link_cost_picks_fastest_usable_rate() {
        let ms = layered();
        let (cost, best) = ett_link_cost_us(&ms, ApId(0), ApId(1)).unwrap();
        assert_eq!(best, rate(48.0), "fast hop wins despite higher loss");
        assert!((cost - frame_time_us(rate(48.0)) / 0.9).abs() < 1e-9);
        // The long link only exists at 1 Mbit/s.
        let (_, far) = ett_link_cost_us(&ms, ApId(0), ApId(2)).unwrap();
        assert_eq!(far, rate(1.0));
    }

    #[test]
    fn two_fast_hops_beat_one_slow_link() {
        let ms = layered();
        let paths = ett_paths(&ms);
        // 0→2 direct at 1 Mbit/s ≈ 12834 µs; via 1 at 48 Mbit/s ≈ 2×504 µs.
        assert_eq!(paths.hops(ApId(0), ApId(2)), Some(2));
        assert!(paths.cost(ApId(0), ApId(2)) < frame_time_us(rate(1.0)));
    }

    #[test]
    fn speedup_at_least_one() {
        let a = EttAnalysis::compute(&layered());
        assert!(!a.pairs.is_empty());
        for p in &a.pairs {
            assert!(
                p.speedup() >= 1.0 - 1e-9,
                "{}→{}: multi-rate ETT must match or beat any single rate",
                p.s,
                p.d
            );
        }
    }

    #[test]
    fn mixing_rates_beats_any_single_rate() {
        // 0–1 usable at 48 Mbit/s, 1–2 only at 1 Mbit/s: single-rate-48
        // cannot reach 2, single-rate-1 pays two slow hops, ETT mixes.
        let mut slow = DeliveryMatrix::new_zero(NetworkId(0), rate(1.0), 3);
        slow.set(ApId(0), ApId(1), 0.95);
        slow.set(ApId(1), ApId(0), 0.95);
        slow.set(ApId(1), ApId(2), 0.95);
        slow.set(ApId(2), ApId(1), 0.95);
        let mut fast = DeliveryMatrix::new_zero(NetworkId(0), rate(48.0), 3);
        fast.set(ApId(0), ApId(1), 0.9);
        fast.set(ApId(1), ApId(0), 0.9);
        let a = EttAnalysis::compute(&[slow, fast]);
        let p = a
            .pairs
            .iter()
            .find(|p| p.s == ApId(0) && p.d == ApId(2))
            .unwrap();
        assert_eq!(
            p.best_single_rate,
            rate(1.0),
            "only 1 Mbit/s spans the path"
        );
        assert!(p.speedup() > 1.5, "speedup {}", p.speedup());
    }

    #[test]
    fn degenerate_inputs() {
        assert!(ett_link_cost_us(&[], ApId(0), ApId(1)).is_none());
        let empty = EttAnalysis::compute(&[]);
        assert!(empty.pairs.is_empty());
        assert!(empty.speedups().is_empty());
    }

    #[test]
    fn single_rate_paths_charge_airtime() {
        let ms = layered();
        let t = single_rate_time_paths(&ms[0]);
        let direct = t.cost(ApId(0), ApId(2));
        assert!((direct - frame_time_us(rate(1.0)) / 0.95).abs() < 1e-9);
    }
}
