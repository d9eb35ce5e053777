//! §4.4 — how throughput varies with SNR (Fig 4.5).
//!
//! For every (probe set, rate observation), one `(SNR, throughput)` point.
//! The figure plots, per rate, the median with quartile error bars over SNR
//! bins; the section also quotes correlation coefficients, which we compute
//! both linearly (Pearson) and by rank (Spearman — more honest given the
//! saturating shape).

use std::collections::BTreeMap;

use mesh11_phy::{BitRate, Phy};
use mesh11_stats::{pearson, spearman, BinnedStats};
use mesh11_trace::{DatasetView, FoldKernel, ProbeSource};
use rayon::prelude::*;

/// The fold-style form of [`SnrThroughputCurves::build_from`].
#[derive(Debug, Clone, Copy)]
pub struct CurvesKernel {
    /// PHY analyzed.
    pub phy: Phy,
}

/// The in-flight state of a [`CurvesKernel`] fold.
#[derive(Debug, Default)]
pub struct CurvesPartial {
    per_rate: BTreeMap<BitRate, BinnedStats>,
    snr: Vec<f64>,
    thr: Vec<f64>,
}

impl FoldKernel for CurvesKernel {
    type Partial = CurvesPartial;
    type Output = SnrThroughputCurves;

    fn init(&self) -> CurvesPartial {
        CurvesPartial::default()
    }

    fn fold(&self, view: DatasetView<'_>, partial: &mut CurvesPartial) {
        let nets = view.network_views(self.phy);
        type Per = (Vec<(BitRate, BinnedStats)>, Vec<f64>, Vec<f64>);
        let partials: Vec<Per> = nets
            .par_iter()
            .map(|nv| {
                // A PHY probes at most a dozen rates, so a first-seen-order
                // vec with a linear scan beats a tree lookup per
                // observation. Distinct rates feed distinct accumulators,
                // so iteration order never touches any bin's contents.
                let mut rates: Vec<(BitRate, BinnedStats)> = Vec::new();
                let mut s = Vec::new();
                let mut t = Vec::new();
                for e in nv.entries_in_order() {
                    let key = e.snr_key;
                    for o in &e.probe.obs {
                        let stats = match rates.iter_mut().find(|(r, _)| *r == o.rate) {
                            Some((_, stats)) => stats,
                            None => {
                                rates.push((o.rate, BinnedStats::new()));
                                &mut rates.last_mut().expect("just pushed").1
                            }
                        };
                        let thr = o.throughput_mbps();
                        stats.push(key, thr);
                        s.push(key as f64);
                        t.push(thr);
                    }
                }
                (rates, s, t)
            })
            .collect();
        for (rates, s, t) in partials {
            for (rate, stats) in rates {
                partial.per_rate.entry(rate).or_default().merge(stats);
            }
            partial.snr.extend(s);
            partial.thr.extend(t);
        }
    }

    fn finish(&self, partial: CurvesPartial) -> SnrThroughputCurves {
        SnrThroughputCurves {
            phy: self.phy,
            per_rate: partial.per_rate,
            snr: partial.snr,
            thr: partial.thr,
        }
    }
}

/// Per-rate binned SNR → throughput statistics.
#[derive(Debug, Clone)]
pub struct SnrThroughputCurves {
    /// PHY analyzed.
    pub phy: Phy,
    /// Per rate: throughput samples binned by integer SNR.
    pub per_rate: BTreeMap<BitRate, BinnedStats>,
    /// Raw `(snr, throughput)` pooled across rates, for the correlation
    /// coefficients.
    snr: Vec<f64>,
    thr: Vec<f64>,
}

impl SnrThroughputCurves {
    /// Builds the curves from every probe set of `phy`. Iterates the view's
    /// per-PHY range in dataset order — the correlation sums are
    /// order-sensitive, and this is the order the linear filter produced.
    pub fn build(view: DatasetView<'_>, phy: Phy) -> Self {
        Self::build_from(&ProbeSource::Whole(view), phy)
    }

    /// [`SnrThroughputCurves::build`] over a whole or chunked source; the
    /// order-sensitive correlation sums see the same sample sequence either
    /// way (windowed per-PHY walks concatenate to the whole walk). Sample
    /// collection fans out per network; concatenating per-network samples
    /// and bin pushes in network order rebuilds the sequential sequence
    /// exactly (datasets are network-major).
    pub fn build_from(src: &ProbeSource<'_>, phy: Phy) -> Self {
        mesh11_trace::run_fold(src, &CurvesKernel { phy })
    }

    /// The envelope the paper's Fig 4.5 eye traces: per SNR bin, the best
    /// median throughput across rates.
    pub fn envelope(&self) -> BTreeMap<i64, f64> {
        let mut out: BTreeMap<i64, f64> = BTreeMap::new();
        for stats in self.per_rate.values() {
            for (snr, summary) in stats.rows() {
                let e = out.entry(snr).or_insert(0.0);
                *e = e.max(summary.median);
            }
        }
        out
    }

    /// Pearson correlation of SNR and throughput over all samples.
    pub fn pearson(&self) -> Option<f64> {
        pearson(&self.snr, &self.thr)
    }

    /// Spearman rank correlation of SNR and throughput.
    pub fn spearman(&self) -> Option<f64> {
        spearman(&self.snr, &self.thr)
    }

    /// The SNR (dB) beyond which the envelope stops growing (within
    /// `slack`, e.g. 0.95): the paper observes ≈30 dB for b/g, ≈15 dB for n.
    pub fn saturation_snr_db(&self, slack: f64) -> Option<i64> {
        let env = self.envelope();
        let peak = env.values().copied().fold(0.0, f64::max);
        if peak <= 0.0 {
            return None;
        }
        env.iter()
            .find(|(_, &v)| v >= slack * peak)
            .map(|(&snr, _)| snr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mesh11_trace::{ApId, Dataset, DatasetIndex, NetworkId, ProbeSet, RateObs};

    fn r(mbps: f64) -> BitRate {
        BitRate::bg_mbps(mbps).unwrap()
    }

    fn curves_over(ds: &Dataset) -> SnrThroughputCurves {
        let ix = DatasetIndex::build(ds);
        SnrThroughputCurves::build(DatasetView::new(ds, &ix), Phy::Bg)
    }

    fn probe(snr: f64, obs: Vec<(f64, f64)>) -> ProbeSet {
        ProbeSet {
            network: NetworkId(0),
            phy: Phy::Bg,
            time_s: 0.0,
            sender: ApId(0),
            receiver: ApId(1),
            obs: obs
                .into_iter()
                .map(|(mbps, loss)| RateObs {
                    rate: r(mbps),
                    loss,
                    snr_db: snr,
                })
                .collect(),
        }
    }

    fn ds(probes: Vec<ProbeSet>) -> Dataset {
        Dataset {
            probes,
            ..Dataset::default()
        }
    }

    #[test]
    fn collects_per_rate_bins() {
        let d = ds(vec![
            probe(10.0, vec![(1.0, 0.0), (6.0, 0.5)]),
            probe(30.0, vec![(1.0, 0.0), (6.0, 0.0)]),
        ]);
        let c = curves_over(&d);
        assert_eq!(c.per_rate.len(), 2);
        let six = &c.per_rate[&r(6.0)];
        assert_eq!(six.bin(10), Some(&[3.0][..]));
        assert_eq!(six.bin(30), Some(&[6.0][..]));
    }

    #[test]
    fn envelope_takes_best_rate() {
        let d = ds(vec![probe(30.0, vec![(1.0, 0.0), (24.0, 0.0)])]);
        let c = curves_over(&d);
        assert_eq!(c.envelope()[&30], 24.0);
    }

    #[test]
    fn correlation_positive_for_rising_data() {
        let d = ds(vec![
            probe(5.0, vec![(6.0, 0.9)]),
            probe(15.0, vec![(6.0, 0.5)]),
            probe(25.0, vec![(6.0, 0.1)]),
            probe(35.0, vec![(6.0, 0.0)]),
        ]);
        let c = curves_over(&d);
        assert!(c.pearson().unwrap() > 0.9);
        assert!(c.spearman().unwrap() > 0.99);
    }

    #[test]
    fn saturation_point() {
        let d = ds(vec![
            probe(10.0, vec![(24.0, 0.8)]),
            probe(20.0, vec![(24.0, 0.2)]),
            probe(30.0, vec![(24.0, 0.0)]),
            probe(40.0, vec![(24.0, 0.0)]),
        ]);
        let c = curves_over(&d);
        assert_eq!(c.saturation_snr_db(0.95), Some(30));
        let empty = curves_over(&ds(vec![]));
        assert_eq!(empty.saturation_snr_db(0.95), None);
    }
}
