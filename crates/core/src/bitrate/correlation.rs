//! §4.4 — how throughput varies with SNR (Fig 4.5).
//!
//! For every (probe set, rate observation), one `(SNR, throughput)` point.
//! The figure plots, per rate, the median throughput in each integer SNR
//! bin, in two panels: `fig4-5a` for 802.11b/g and `fig4-5b` for 802.11n.
//! The section also quotes correlation coefficients, which we compute both
//! linearly (Pearson) and by rank (Spearman — more honest given the
//! saturating shape).
//!
//! The data has few distinct values — about 60 SNR keys and a few hundred
//! throughputs (rate × delivery) per PHY — against millions of points. So
//! each point is kept as a pair of codes into the two distinct-value
//! tables, and each (rate, SNR) bin as counts over throughput codes: the
//! coefficients are exact sums over the coded sequence, taken when the
//! fold finishes, and the medians are read from the counts.

use std::collections::{BTreeMap, HashMap};
use std::hash::Hash;

use mesh11_phy::{BitRate, Phy};
use mesh11_stats::{pearson_coded, quantile_counted, spearman_coded};
use mesh11_trace::fold::{network_units, Unit};
use mesh11_trace::{DatasetView, FoldKernel};

/// The fold-style form of [`SnrThroughputCurves::build`]. Samples are
/// coded per network; appending the per-network coded samples in
/// network order rebuilds the sequential sample sequence exactly
/// (datasets are network-major), which the order-sensitive correlation
/// sums need. The coded sequence lives until `finish` takes the sums.
#[derive(Debug, Clone, Copy)]
pub struct CurvesKernel {
    /// PHY analyzed.
    pub phy: Phy,
}

/// The in-flight state of a [`CurvesKernel`] fold.
#[derive(Debug, Default)]
pub struct CurvesPartial {
    /// Distinct SNR keys, by code.
    snr: Codebook<i64>,
    /// Distinct throughputs (`f64` bits), by code. Throughputs are
    /// `mbps × delivery` with delivery in `[+0, 1]`: never NaN or −0.0, so
    /// equal bits and equal values coincide.
    thr: Codebook<u64>,
    /// Every sample as `(SNR code, throughput code)`, in fold order.
    codes: Vec<(u32, u32)>,
    /// The histogram cells: distinct `(rate, SNR code, throughput)` (see
    /// [`CellKey`]), by cell number.
    cells: Codebook<CellKey>,
    /// Per cell: its throughput code.
    cell_thr: Vec<u32>,
    /// Per cell: its number of samples.
    cell_n: Vec<u64>,
}

impl CurvesPartial {
    /// The cell of `(rate index, SNR code, throughput bits)`, created
    /// empty if new.
    fn cell(&mut self, rate: usize, snr: u32, bits: u64) -> usize {
        let c = self.cells.code(CellKey::new(rate, snr, bits)) as usize;
        if c == self.cell_n.len() {
            self.cell_thr.push(self.thr.code(bits));
            self.cell_n.push(0);
        }
        c
    }

    /// Appends `other`'s samples after this partial's, recoding them into
    /// this partial's tables.
    fn append(&mut self, other: CurvesPartial) {
        let s: Vec<u32> = other.snr.values.iter().map(|&k| self.snr.code(k)).collect();
        let t: Vec<u32> = other.thr.values.iter().map(|&v| self.thr.code(v)).collect();
        self.codes.extend(
            other
                .codes
                .into_iter()
                .map(|(i, j)| (s[i as usize], t[j as usize])),
        );
        for (key, n) in other.cells.values.into_iter().zip(other.cell_n) {
            let c = self.cell(key.rate(), s[key.snr() as usize], key.1);
            self.cell_n[c] += n;
        }
    }
}

impl FoldKernel for CurvesKernel {
    type Partial = CurvesPartial;
    type Piece = CurvesPartial;
    type Output = SnrThroughputCurves;
    const COLUMNS: bool = true;

    fn init(&self) -> CurvesPartial {
        CurvesPartial::default()
    }

    fn units<'a>(&'a self, view: DatasetView<'a>) -> Vec<Unit<'a, Self::Piece>> {
        network_units(view, self.phy, move |nv| {
            let mut p = CurvesPartial::default();
            for e in nv.entries_in_order() {
                let s = p.snr.code(e.snr_key);
                for o in e.probe.obs {
                    let c = p.cell(o.rate.index(), s, o.throughput_mbps().to_bits());
                    p.cell_n[c] += 1;
                    p.codes.push((s, p.cell_thr[c]));
                }
            }
            p
        })
    }

    fn merge(&self, partial: &mut CurvesPartial, p: CurvesPartial) {
        partial.append(p);
    }

    fn finish(&self, partial: CurvesPartial) -> SnrThroughputCurves {
        let snr = &partial.snr.values;
        let rates = self.phy.all_rates();
        let mut cells: Vec<(usize, i64, f64, u64)> = partial
            .cells
            .values
            .iter()
            .zip(&partial.cell_n)
            .map(|(&key, &n)| {
                let thr = f64::from_bits(key.1);
                (key.rate(), snr[key.snr() as usize], thr, n)
            })
            .collect();
        cells.sort_by(|a, b| (a.0, a.1).cmp(&(b.0, b.1)).then(a.2.total_cmp(&b.2)));
        let mut per_rate: BTreeMap<BitRate, Vec<(i64, f64)>> = BTreeMap::new();
        for bin in cells.chunk_by(|a, b| (a.0, a.1) == (b.0, b.1)) {
            let hist: Vec<(f64, u64)> = bin.iter().map(|&(_, _, v, n)| (v, n)).collect();
            let median = quantile_counted(&hist, 0.5).expect("cells hold samples");
            per_rate
                .entry(rates[bin[0].0])
                .or_default()
                .push((bin[0].1, median));
        }
        let snr: Vec<f64> = snr.iter().map(|&k| k as f64).collect();
        let thr: Vec<f64> = partial
            .thr
            .values
            .iter()
            .map(|&b| f64::from_bits(b))
            .collect();
        SnrThroughputCurves {
            phy: self.phy,
            per_rate,
            pearson: pearson_coded(&partial.codes, &snr, &thr),
            spearman: spearman_coded(&partial.codes, &snr, &thr),
        }
    }
}

/// A histogram cell: `(rate index << 32 | SNR code, throughput bits)`.
/// Two words, so that a lookup hashes 16 bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct CellKey(u64, u64);

impl CellKey {
    fn new(rate: usize, snr: u32, thr_bits: u64) -> Self {
        Self((rate as u64) << 32 | u64::from(snr), thr_bits)
    }

    /// The rate's `BitRate::index`.
    fn rate(self) -> usize {
        (self.0 >> 32) as usize
    }

    /// The SNR code.
    fn snr(self) -> u32 {
        self.0 as u32
    }
}

/// First-seen numbering of distinct values.
#[derive(Debug)]
struct Codebook<K> {
    /// The distinct values, by code.
    values: Vec<K>,
    codes: HashMap<K, u32>,
}

impl<K> Default for Codebook<K> {
    fn default() -> Self {
        Self {
            values: Vec::new(),
            codes: HashMap::new(),
        }
    }
}

impl<K: Copy + Eq + Hash> Codebook<K> {
    /// The code of `k`, numbering it if it is new.
    fn code(&mut self, k: K) -> u32 {
        let values = &mut self.values;
        *self.codes.entry(k).or_insert_with(|| {
            values.push(k);
            u32::try_from(values.len() - 1).expect("fewer than 2^32 distinct values")
        })
    }
}

/// Per-rate SNR → median throughput curves and the pooled correlation of
/// SNR with throughput.
#[derive(Debug, Clone)]
pub struct SnrThroughputCurves {
    /// PHY analyzed.
    pub phy: Phy,
    /// Per rate: `(SNR key, median throughput)` for each integer SNR bin
    /// the rate was observed in, ascending by SNR.
    pub per_rate: BTreeMap<BitRate, Vec<(i64, f64)>>,
    /// Pearson correlation of SNR and throughput over every sample, pooled
    /// across rates in dataset order.
    pearson: Option<f64>,
    /// Spearman rank correlation of the same samples.
    spearman: Option<f64>,
}

impl SnrThroughputCurves {
    /// Builds the curves from every probe set of `phy`. Iterates the view's
    /// per-PHY range in dataset order — the correlation sums are
    /// order-sensitive, and this is the order the linear filter produced.
    pub fn build(view: DatasetView<'_>, phy: Phy) -> Self {
        mesh11_trace::run_fold(view, &CurvesKernel { phy })
    }

    /// The envelope the paper's Fig 4.5 eye traces: per SNR bin, the best
    /// median throughput across rates.
    pub fn envelope(&self) -> BTreeMap<i64, f64> {
        let mut out: BTreeMap<i64, f64> = BTreeMap::new();
        for medians in self.per_rate.values() {
            for &(snr, median) in medians {
                let e = out.entry(snr).or_insert(0.0);
                *e = e.max(median);
            }
        }
        out
    }

    /// Pearson correlation of SNR and throughput over all samples.
    pub fn pearson(&self) -> Option<f64> {
        self.pearson
    }

    /// Spearman rank correlation of SNR and throughput.
    pub fn spearman(&self) -> Option<f64> {
        self.spearman
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
    use mesh11_trace::{ApId, Dataset, DatasetIndex, NetworkId, Probe, ProbeTable, RateObs};

    fn r(mbps: f64) -> BitRate {
        BitRate::bg_mbps(mbps).unwrap()
    }

    fn curves_over(ds: &Dataset) -> SnrThroughputCurves {
        let ix = DatasetIndex::build(ds);
        SnrThroughputCurves::build(DatasetView::new(ds, &ix), Phy::Bg)
    }

    fn probe(snr: f64, obs: Vec<(f64, f64)>) -> ProbeTable {
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
            sender: ApId(0),
            receiver: ApId(1),
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
    fn collects_per_rate_bins() {
        let d = ds(vec![
            probe(10.0, vec![(1.0, 0.0), (6.0, 0.5)]),
            probe(30.0, vec![(1.0, 0.0), (6.0, 0.0)]),
        ]);
        let c = curves_over(&d);
        assert_eq!(c.per_rate.len(), 2);
        assert_eq!(c.per_rate[&r(6.0)], vec![(10, 3.0), (30, 6.0)]);
        assert_eq!(c.per_rate[&r(1.0)], vec![(10, 1.0), (30, 1.0)]);
    }

    #[test]
    fn bin_medians_interpolate_between_counted_samples() {
        // 24 Mbit/s at SNR 20: throughputs 12, 24, 24, 6 → median 18
        let d = ds(vec![
            probe(20.0, vec![(24.0, 0.5)]),
            probe(20.0, vec![(24.0, 0.0)]),
            probe(20.2, vec![(24.0, 0.0), (1.0, 0.0)]),
            probe(19.6, vec![(24.0, 0.75)]),
        ]);
        let c = curves_over(&d);
        assert_eq!(c.per_rate[&r(24.0)], vec![(20, 18.0)]);
        assert_eq!(c.per_rate[&r(1.0)], vec![(20, 1.0)]);
    }

    /// The pre-coding Pearson: two slice sums for the means, then the
    /// centred sums, all in sample order.
    fn reference_pearson(xs: &[f64], ys: &[f64]) -> Option<f64> {
        let n = xs.len() as f64;
        let mx = xs.iter().sum::<f64>() / n;
        let my = ys.iter().sum::<f64>() / n;
        let (mut sxx, mut syy, mut sxy) = (0.0, 0.0, 0.0);
        for (&x, &y) in xs.iter().zip(ys) {
            let (dx, dy) = (x - mx, y - my);
            sxx += dx * dx;
            syy += dy * dy;
            sxy += dx * dy;
        }
        (sxx > 0.0 && syy > 0.0).then(|| sxy / (sxx.sqrt() * syy.sqrt()))
    }

    /// Mid-ranks by index-sorting the whole sample.
    fn reference_midranks(xs: &[f64]) -> Vec<f64> {
        let mut idx: Vec<usize> = (0..xs.len()).collect();
        idx.sort_by(|&a, &b| xs[a].total_cmp(&xs[b]));
        let mut ranks = vec![0.0; xs.len()];
        let mut i = 0;
        while i < idx.len() {
            let mut j = i;
            while j + 1 < idx.len() && xs[idx[j + 1]] == xs[idx[i]] {
                j += 1;
            }
            for &k in &idx[i..=j] {
                ranks[k] = (i + j) as f64 / 2.0 + 1.0;
            }
            i = j + 1;
        }
        ranks
    }

    #[test]
    fn coded_statistics_match_raw_sequence_at_full_precision() {
        use mesh11_sim::SimConfig;
        use mesh11_topo::CampaignSpec;

        let ds = SimConfig::quick().run_campaign(&CampaignSpec::small(7).generate());
        let ix = DatasetIndex::build(&ds);
        let view = DatasetView::new(&ds, &ix);
        for phy in [Phy::Bg, Phy::Ht] {
            let curves = SnrThroughputCurves::build(view, phy);
            // the raw (snr_key, throughput) sequence, and each bin's samples
            let (mut snr, mut thr) = (Vec::new(), Vec::new());
            let mut bins: BTreeMap<(BitRate, i64), Vec<f64>> = BTreeMap::new();
            for nv in view.network_views(phy) {
                for e in nv.entries_in_order() {
                    for o in e.probe.obs {
                        snr.push(e.snr_key as f64);
                        thr.push(o.throughput_mbps());
                        bins.entry((o.rate, e.snr_key))
                            .or_default()
                            .push(o.throughput_mbps());
                    }
                }
            }
            assert!(snr.len() > 10_000, "{phy:?}: {} samples", snr.len());
            let bits = |r: Option<f64>| r.map(f64::to_bits);
            assert_eq!(bits(curves.pearson()), bits(reference_pearson(&snr, &thr)));
            let spearman = reference_pearson(&reference_midranks(&snr), &reference_midranks(&thr));
            assert!(spearman.is_some());
            assert_eq!(bits(curves.spearman()), bits(spearman));

            let medians: BTreeMap<(BitRate, i64), f64> = curves
                .per_rate
                .iter()
                .flat_map(|(&rate, m)| m.iter().map(move |&(k, v)| ((rate, k), v)))
                .collect();
            assert_eq!(medians.len(), bins.len());
            for (cell, ys) in &bins {
                let median = mesh11_stats::median(ys).expect("non-empty bin");
                assert_eq!(medians[cell].to_bits(), median.to_bits(), "{cell:?}");
            }
        }
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
