//! Temporal stability of the per-link optimal rate (§4.6 diagnostics).
//!
//! The paper's §4 rests on the optimum being stable *given the SNR* on a
//! link. This module measures that directly:
//!
//! * **churn** — how often `P_opt` differs between consecutive probe sets
//!   on a link;
//! * **same-SNR churn** — churn restricted to consecutive sets whose
//!   integer SNR key is identical. This is the irreducible error floor of
//!   *any* SNR-keyed lookup table (no table can distinguish two sets with
//!   the same key), and explains the gap between Fig 4.2's ≥95% cells and
//!   Fig 4.6's 80–90% online accuracy;
//! * **SNR drift** — mean |ΔSNR| between consecutive sets, the channel's
//!   report-to-report wander.

use mesh11_phy::Phy;
use mesh11_trace::fold::{network_units, Unit};
use mesh11_trace::{DatasetView, FoldKernel};
use serde::{Deserialize, Serialize};

/// Pooled stability statistics over every link of a PHY.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LinkStability {
    /// Links with at least two probe sets.
    pub links: usize,
    /// Per link: fraction of consecutive set pairs where the optimum
    /// changed.
    pub churn_per_link: Vec<f64>,
    /// Per link: mean |ΔSNR| (dB) between consecutive sets.
    pub snr_drift_per_link: Vec<f64>,
    /// Pooled churn over pairs whose SNR key matched.
    pub churn_same_snr: f64,
    /// Pooled churn over pairs whose SNR key differed.
    pub churn_diff_snr: f64,
    /// Consecutive-set pairs examined (same-SNR, diff-SNR).
    pub pairs: (u64, u64),
}

impl LinkStability {
    /// Median per-link churn.
    pub fn median_churn(&self) -> Option<f64> {
        mesh11_stats::median(&self.churn_per_link)
    }

    /// Median per-link SNR drift (dB).
    pub fn median_drift_db(&self) -> Option<f64> {
        mesh11_stats::median(&self.snr_drift_per_link)
    }
}

/// Measures optimal-rate stability over every directed link of `phy`.
///
/// Links come from the view's indexed groups in sorted order, which makes
/// the per-link vectors deterministic; the pooled churn ratios and the
/// median/CDF consumers are insensitive to that order.
pub fn link_stability(view: DatasetView<'_>, phy: Phy) -> LinkStability {
    mesh11_trace::run_fold(view, &StabilityKernel { phy })
}

/// The fold-style form of [`link_stability`]: the per-link vectors fill in
/// the same sorted link order across the folded views. Each network's links
/// are walked on their own; each link's drift sum stays a single sequential
/// accumulation, the pooled pair counts are integers, and concatenating
/// per-network link vectors in network order rebuilds the sorted global
/// link order (links sort by network first).
#[derive(Debug, Clone, Copy)]
pub struct StabilityKernel {
    /// PHY analyzed.
    pub phy: Phy,
}

/// In-flight state of a [`StabilityKernel`] fold, and one network's piece
/// of it: per-link churn and drift vectors plus the pooled `(changed,
/// total)` pair counters for the same-SNR and diff-SNR buckets.
#[derive(Debug, Default)]
pub struct StabilityPartial {
    churn_per_link: Vec<f64>,
    snr_drift_per_link: Vec<f64>,
    same: (u64, u64),
    diff: (u64, u64),
}

impl FoldKernel for StabilityKernel {
    type Partial = StabilityPartial;
    type Piece = StabilityPartial;
    type Output = LinkStability;
    const COLUMNS: bool = true;

    fn init(&self) -> StabilityPartial {
        StabilityPartial::default()
    }

    fn units<'a>(&'a self, view: DatasetView<'a>) -> Vec<Unit<'a, Self::Piece>> {
        network_units(view, self.phy, move |nv| {
            let mut p = StabilityPartial::default();
            for link in nv.links() {
                if link.len() < 2 {
                    continue;
                }
                let mut changed = 0usize;
                let mut drift = 0.0;
                let mut sets = link.entries_by_time();
                let mut prev = sets.next().expect("a link has reports");
                for next in sets {
                    let flipped = prev.opt.rate != next.opt.rate;
                    changed += usize::from(flipped);
                    drift += (next.snr_db - prev.snr_db).abs();
                    let bucket = if prev.snr_key == next.snr_key {
                        &mut p.same
                    } else {
                        &mut p.diff
                    };
                    bucket.0 += u64::from(flipped);
                    bucket.1 += 1;
                    prev = next;
                }
                let n_pairs = (link.len() - 1) as f64;
                p.churn_per_link.push(changed as f64 / n_pairs);
                p.snr_drift_per_link.push(drift / n_pairs);
            }
            p
        })
    }

    fn merge(&self, partial: &mut StabilityPartial, p: StabilityPartial) {
        partial.churn_per_link.extend(p.churn_per_link);
        partial.snr_drift_per_link.extend(p.snr_drift_per_link);
        partial.same.0 += p.same.0;
        partial.same.1 += p.same.1;
        partial.diff.0 += p.diff.0;
        partial.diff.1 += p.diff.1;
    }

    fn finish(&self, partial: StabilityPartial) -> LinkStability {
        let StabilityPartial {
            churn_per_link,
            snr_drift_per_link,
            same,
            diff,
        } = partial;
        LinkStability {
            links: churn_per_link.len(),
            churn_per_link,
            snr_drift_per_link,
            churn_same_snr: if same.1 > 0 {
                same.0 as f64 / same.1 as f64
            } else {
                0.0
            },
            churn_diff_snr: if diff.1 > 0 {
                diff.0 as f64 / diff.1 as f64
            } else {
                0.0
            },
            pairs: (same.1, diff.1),
        }
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

    fn stability_over(ds: &Dataset) -> LinkStability {
        let ix = DatasetIndex::build(ds);
        link_stability(DatasetView::new(ds, &ix), Phy::Bg)
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
    fn stable_link_zero_churn() {
        let d = ds((0..10)
            .map(|k| probe(k as f64 * 300.0, 20.0, 24.0))
            .collect());
        let s = stability_over(&d);
        assert_eq!(s.links, 1);
        assert_eq!(s.median_churn(), Some(0.0));
        assert_eq!(s.churn_same_snr, 0.0);
        assert_eq!(s.pairs, (9, 0));
        assert_eq!(s.median_drift_db(), Some(0.0));
    }

    #[test]
    fn alternating_optimum_full_churn() {
        let d = ds((0..10)
            .map(|k| probe(k as f64 * 300.0, 20.0, if k % 2 == 0 { 24.0 } else { 12.0 }))
            .collect());
        let s = stability_over(&d);
        assert_eq!(s.median_churn(), Some(1.0));
        assert_eq!(
            s.churn_same_snr, 1.0,
            "all flips happened at the same SNR key"
        );
    }

    #[test]
    fn snr_tracked_flips_are_diff_snr_churn() {
        // Optimum flips only when the SNR moves: a perfect table would
        // still be perfect.
        let d = ds(vec![
            probe(0.0, 15.0, 12.0),
            probe(300.0, 25.0, 24.0),
            probe(600.0, 15.0, 12.0),
            probe(900.0, 25.0, 24.0),
        ]);
        let s = stability_over(&d);
        assert_eq!(s.churn_same_snr, 0.0);
        assert_eq!(s.churn_diff_snr, 1.0);
        assert_eq!(s.pairs, (0, 3));
        assert_eq!(s.median_drift_db(), Some(10.0));
    }

    #[test]
    fn single_set_links_ignored() {
        let d = ds(vec![probe(0.0, 20.0, 24.0)]);
        let s = stability_over(&d);
        assert_eq!(s.links, 0);
        assert_eq!(s.median_churn(), None);
    }

    #[test]
    fn out_of_order_input_is_sorted() {
        let d = ds(vec![
            probe(600.0, 20.0, 24.0),
            probe(0.0, 20.0, 24.0),
            probe(300.0, 20.0, 24.0),
        ]);
        let s = stability_over(&d);
        assert_eq!(s.median_churn(), Some(0.0));
        assert_eq!(s.pairs.0 + s.pairs.1, 2);
    }
}
