//! The §4 state kept per cell or per distinct value, against the
//! per-sample forms it replaced, kept here as oracles:
//!
//! * `Counts` against a `Cdf` and `mean` over the same samples, bit for
//!   bit, signed zeros and subnormals included;
//! * the flat lookup tables against nested maps trained one probe set at
//!   a time into `key → SNR key → rate → count`. Every (scope, PHY) table
//!   of two quick campaigns must predict every probe set, of its own
//!   campaign and of the other, exactly as the oracle does, and every
//!   accessor must return what the oracle's does.

use std::collections::{BTreeMap, BTreeSet};

use mesh11::prelude::*;
use mesh11_bench::Scale;
use mesh11_stats::{mean, BinnedStats, Counts};
use proptest::prelude::*;

/// Every counted query against the `Cdf` and `mean` oracles over the same
/// samples, in push order, bit for bit.
fn assert_counts_match_cdf(xs: &[f64]) {
    let counts: Counts = xs.iter().copied().collect();
    assert_eq!(counts.len(), xs.len());
    assert_eq!(
        counts.mean().map(f64::to_bits),
        mean(xs).map(f64::to_bits),
        "{xs:?}"
    );
    let Some(cdf) = Cdf::from_samples(xs.iter().copied()) else {
        assert!(counts.is_empty());
        assert!(counts.points(41).is_empty());
        assert_eq!(counts.quantile(0.5), None);
        return;
    };
    let bits = |pts: Vec<(f64, f64)>| -> Vec<(u64, u64)> {
        pts.iter()
            .map(|&(v, q)| (v.to_bits(), q.to_bits()))
            .collect()
    };
    for n in [2, 5, 41] {
        assert_eq!(bits(counts.points(n)), bits(cdf.points(n)), "{xs:?}");
    }
    for q in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0] {
        assert_eq!(
            counts.quantile(q).map(f64::to_bits),
            Some(cdf.quantile(q).to_bits()),
            "q {q} of {xs:?}"
        );
    }
    for &x in xs.iter().chain(&[0.0, -0.0, 1e-9, f64::MIN_POSITIVE]) {
        assert_eq!(
            counts.frac_below(x).to_bits(),
            cdf.frac_below(x).to_bits(),
            "below {x} of {xs:?}"
        );
    }
    // The cells expand to the sorted sample itself.
    let expanded: Vec<u64> = counts
        .cells()
        .iter()
        .flat_map(|&(v, n)| std::iter::repeat_n(v.to_bits(), n as usize))
        .collect();
    let sorted: Vec<u64> = cdf.samples().iter().map(|v| v.to_bits()).collect();
    assert_eq!(expanded, sorted, "{xs:?}");
}

#[test]
fn counts_match_cdf_on_edge_samples() {
    let tiny = f64::from_bits(1); // the smallest subnormal
    for xs in [
        vec![],
        vec![7.5],
        vec![-0.0],
        vec![0.0, -0.0],
        vec![-0.0, 0.0, 0.0, -0.0, -0.0],
        vec![0.0, -0.0, 0.0],
        vec![tiny, -tiny, 0.0, -0.0, tiny],
        vec![3.0, 3.0, 3.0],
        vec![1e300, -1e300, 1e300, 2.5],
    ] {
        assert_counts_match_cdf(&xs);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn counts_match_cdf(
        picks in proptest::collection::vec(0usize..9, 1..120),
        scale in -3i32..3,
    ) {
        // A small pool, so values repeat, holding both zeros and
        // subnormals of both signs.
        let tiny = f64::from_bits(3);
        let pool = [0.0, -0.0, tiny, -tiny, 1.5, -2.25, 12.0, 0.1, 54.0];
        let factor = 10f64.powi(scale);
        let xs: Vec<f64> = picks
            .iter()
            .map(|&i| if pool[i] == 0.0 { pool[i] } else { pool[i] * factor })
            .collect();
        assert_counts_match_cdf(&xs);
    }
}

type Key = (u32, u32, u32);
type RateCounts = BTreeMap<BitRate, u32>;

/// The nested-map tables of one (scope, PHY).
struct NestedTables {
    scope: Scope,
    tables: BTreeMap<Key, BTreeMap<i64, RateCounts>>,
}

impl NestedTables {
    fn train(view: DatasetView<'_>, scope: Scope, phy: Phy) -> Self {
        let mut t = Self {
            scope,
            tables: BTreeMap::new(),
        };
        for p in view.probes_for_phy(phy) {
            *t.tables
                .entry(t.key(p))
                .or_default()
                .entry(p.snr_key())
                .or_default()
                .entry(p.optimal().rate)
                .or_insert(0) += 1;
        }
        t
    }

    fn key(&self, p: Probe<'_>) -> Key {
        let (n, s, r) = (p.network.0, p.sender.0, p.receiver.0);
        match self.scope {
            Scope::Global => (u32::MAX, u32::MAX, u32::MAX),
            Scope::Network => (n, u32::MAX, u32::MAX),
            Scope::Ap => (n, s, u32::MAX),
            Scope::Link => (n, s, r),
        }
    }

    fn cell(&self, p: Probe<'_>) -> Option<&RateCounts> {
        self.tables.get(&self.key(p))?.get(&p.snr_key())
    }

    fn predict(&self, p: Probe<'_>) -> Option<BitRate> {
        self.cell(p)?
            .iter()
            .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(a.0)))
            .map(|(&rate, _)| rate)
    }

    fn top_k(&self, p: Probe<'_>, k: usize) -> Vec<BitRate> {
        let Some(counts) = self.cell(p) else {
            return Vec::new();
        };
        let mut v: Vec<(BitRate, u32)> = counts.iter().map(|(&r, &c)| (r, c)).collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v.into_iter().take(k).map(|(r, _)| r).collect()
    }

    fn optimal_rates_per_snr(&self) -> BTreeMap<i64, BTreeSet<BitRate>> {
        let mut out: BTreeMap<i64, BTreeSet<BitRate>> = BTreeMap::new();
        for table in self.tables.values() {
            for (&snr, counts) in table {
                out.entry(snr).or_default().extend(counts.keys().copied());
            }
        }
        out
    }

    fn rates_needed(counts: &RateCounts, pct: f64) -> usize {
        let total: u32 = counts.values().sum();
        if total == 0 {
            return 0;
        }
        let mut freqs: Vec<u32> = counts.values().copied().collect();
        freqs.sort_unstable_by(|a, b| b.cmp(a));
        let target = pct * total as f64;
        let mut acc = 0.0;
        for (i, f) in freqs.iter().enumerate() {
            acc += *f as f64;
            if acc + 1e-9 >= target {
                return i + 1;
            }
        }
        freqs.len()
    }

    fn rates_needed_curve(&self, pct: f64) -> BinnedStats {
        let mut out = BinnedStats::new();
        for table in self.tables.values() {
            for (&snr, counts) in table {
                out.push(snr, Self::rates_needed(counts, pct) as f64);
            }
        }
        out
    }
}

fn quick_dataset(seed: u64) -> Dataset {
    let scale = Scale::Quick;
    scale
        .config()
        .run_campaign(&scale.campaign_spec(seed).generate())
}

/// Each bin's samples, sorted: the multiset a curve holds.
fn sorted_bins(b: &BinnedStats) -> Vec<(i64, Vec<u64>)> {
    b.iter()
        .map(|(x, ys)| {
            let mut bits: Vec<u64> = ys.iter().map(|y| y.to_bits()).collect();
            bits.sort_unstable();
            (x, bits)
        })
        .collect()
}

#[test]
fn flat_tables_match_nested_maps_at_quick_seeds() {
    let datasets = [quick_dataset(42), quick_dataset(7)];
    let indexes: Vec<DatasetIndex> = datasets.iter().map(DatasetIndex::build).collect();
    let views: Vec<DatasetView<'_>> = datasets
        .iter()
        .zip(&indexes)
        .map(|(ds, ix)| DatasetView::new(ds, ix))
        .collect();
    for (i, &view) in views.iter().enumerate() {
        let other = views[1 - i];
        for phy in [Phy::Bg, Phy::Ht] {
            for scope in Scope::ALL {
                let label = format!("dataset {i}, {scope:?}/{phy:?}");
                let flat = LookupTableSet::build(view, scope, phy);
                let nested = NestedTables::train(view, scope, phy);
                assert!(
                    !nested.tables.is_empty(),
                    "{label}: an empty table tests nothing"
                );
                assert_eq!(flat.n_keys(), nested.tables.len(), "{label}");
                // Its own probe sets, then the other campaign's: the
                // second walk misses keys and SNR keys.
                for v in [view, other] {
                    for p in v.probes_for_phy(phy) {
                        assert_eq!(flat.predict(p), nested.predict(p), "{label}");
                        for k in [1, 2, 3] {
                            assert_eq!(flat.top_k(p, k), nested.top_k(p, k), "{label}");
                        }
                    }
                    let (mut hits, mut total) = (0u64, 0u64);
                    for p in v.probes_for_phy(phy) {
                        total += 1;
                        hits += u64::from(nested.predict(p) == Some(p.optimal().rate));
                    }
                    let want = if total == 0 {
                        0.0
                    } else {
                        hits as f64 / total as f64
                    };
                    assert_eq!(flat.exact_accuracy(v).to_bits(), want.to_bits(), "{label}");
                }
                assert_eq!(
                    flat.optimal_rates_per_snr(),
                    nested.optimal_rates_per_snr(),
                    "{label}"
                );
                let pcts = [0.5, 0.8, 0.95];
                let means = flat.rates_needed_means(&pcts);
                for (&pct, means) in pcts.iter().zip(&means) {
                    let want = nested.rates_needed_curve(pct);
                    let got = flat.rates_needed_curve(pct);
                    assert_eq!(sorted_bins(&got), sorted_bins(&want), "{label} at {pct}");
                    let want_means: Vec<(i64, u64)> = want
                        .rows()
                        .into_iter()
                        .map(|(snr, s)| (snr, s.mean.to_bits()))
                        .collect();
                    let got_means: Vec<(i64, u64)> =
                        means.iter().map(|&(snr, m)| (snr, m.to_bits())).collect();
                    assert_eq!(got_means, want_means, "{label} at {pct}");
                }
            }
        }
    }
}
