//! SNR-keyed bit-rate lookup tables (§4.1–4.2).

use std::collections::{BTreeMap, BTreeSet, HashMap};

use mesh11_phy::{BitRate, Phy};
use mesh11_stats::BinnedStats;
use mesh11_trace::{DatasetView, Probe};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// Training scope of a lookup table — the paper's four cases, from cheapest
/// to bootstrap to most specific.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Scope {
    /// One table for everything (the paper's base case; not viable).
    Global,
    /// One table per network.
    Network,
    /// One table per sending AP.
    Ap,
    /// One table per directed link.
    Link,
}

impl Scope {
    /// All scopes, in increasing specificity.
    pub const ALL: [Scope; 4] = [Scope::Global, Scope::Network, Scope::Ap, Scope::Link];

    /// Display name matching the paper's figure legends.
    pub fn name(self) -> &'static str {
        match self {
            Scope::Global => "Global",
            Scope::Network => "Network",
            Scope::Ap => "AP",
            Scope::Link => "Link",
        }
    }
}

/// Table key: unused components are `u32::MAX`.
type Key = (u32, u32, u32);

/// The table key a probe trains/consults under `scope`.
fn key_of(scope: Scope, probe: Probe<'_>) -> Key {
    match scope {
        Scope::Global => (u32::MAX, u32::MAX, u32::MAX),
        Scope::Network => (probe.network.0, u32::MAX, u32::MAX),
        Scope::Ap => (probe.network.0, probe.sender.0, u32::MAX),
        Scope::Link => (probe.network.0, probe.sender.0, probe.receiver.0),
    }
}

/// How often each rate was optimal at one (key, SNR) cell.
type RateCounts = BTreeMap<BitRate, u32>;

/// The fold-style form of [`LookupTableSet::build`]. The partial is a
/// whole table set whose cells are commutative integer counts, so the
/// per-network fan-out and its merge cannot change any cell.
#[derive(Debug, Clone, Copy)]
pub struct TableBuildKernel {
    /// Training scope.
    pub scope: Scope,
    /// PHY to train on.
    pub phy: Phy,
}

impl mesh11_trace::FoldKernel for TableBuildKernel {
    type Partial = LookupTableSet;
    type Output = LookupTableSet;

    fn init(&self) -> LookupTableSet {
        LookupTableSet {
            scope: self.scope,
            phy: self.phy,
            tables: HashMap::new(),
            winners: None,
        }
    }

    fn fold(&self, view: DatasetView<'_>, partial: &mut LookupTableSet) {
        // The per-probe SNR columns, built once at full width before
        // the per-network fan-out reads them.
        view.columns();
        let nets = view.network_views(self.phy);
        let scope = self.scope;
        let partials: Vec<HashMap<Key, BTreeMap<i64, RateCounts>>> = nets
            .par_iter()
            .map(|nv| {
                let mut t: HashMap<Key, BTreeMap<i64, RateCounts>> = HashMap::new();
                for e in nv.entries_in_order() {
                    *t.entry(key_of(scope, e.probe))
                        .or_default()
                        .entry(e.snr_key)
                        .or_default()
                        .entry(e.opt.rate)
                        .or_insert(0) += 1;
                }
                t
            })
            .collect();
        for t in partials {
            for (key, snr_map) in t {
                let dst = partial.tables.entry(key).or_default();
                for (snr, counts) in snr_map {
                    let cell = dst.entry(snr).or_default();
                    for (rate, c) in counts {
                        *cell.entry(rate).or_insert(0) += c;
                    }
                }
            }
        }
    }

    fn finish(&self, mut partial: LookupTableSet) -> LookupTableSet {
        partial.seal();
        partial
    }
}

/// A set of SNR → optimal-rate frequency tables at one scope, for one PHY.
#[derive(Debug, Clone)]
pub struct LookupTableSet {
    scope: Scope,
    phy: Phy,
    tables: HashMap<Key, BTreeMap<i64, RateCounts>>,
    /// Sealed per-cell argmaxes: one flat hash probe per prediction instead
    /// of two map walks plus a count scan. `None` while still training.
    winners: Option<HashMap<(Key, i64), BitRate>>,
}

impl LookupTableSet {
    /// Trains tables from every probe set of `phy` in the dataset, using
    /// the view's precomputed SNR keys and optima (dataset order, same
    /// accumulation as calling [`LookupTableSet::train`] per probe).
    pub fn build(view: DatasetView<'_>, scope: Scope, phy: Phy) -> Self {
        mesh11_trace::run_fold(view, &TableBuildKernel { scope, phy })
    }

    /// Adds one probe set's `P_opt` observation.
    pub fn train(&mut self, probe: Probe<'_>) {
        debug_assert_eq!(probe.phy, self.phy);
        self.winners = None; // counts change ⇒ cached argmaxes are stale
        let key = self.key_for(probe);
        *self
            .tables
            .entry(key)
            .or_default()
            .entry(probe.snr_key())
            .or_default()
            .entry(probe.optimal().rate)
            .or_insert(0) += 1;
    }

    fn key_for(&self, probe: Probe<'_>) -> Key {
        key_of(self.scope, probe)
    }

    /// The rate-frequency cell a probe set would consult.
    pub fn counts_for(&self, probe: Probe<'_>) -> Option<&RateCounts> {
        self.tables.get(&self.key_for(probe))?.get(&probe.snr_key())
    }

    /// The table's prediction for a probe set: the most frequently optimal
    /// rate at its (key, SNR); ties break toward the lower rate.
    pub fn predict(&self, probe: Probe<'_>) -> Option<BitRate> {
        self.predict_keyed(self.key_for(probe), probe.snr_key())
    }

    /// `predict` with the probe set's SNR key already derived (an index
    /// column, or a key computed once and shared by several tables):
    /// same lookup, no median re-derivation.
    pub(crate) fn predict_at(&self, probe: Probe<'_>, snr_key: i64) -> Option<BitRate> {
        self.predict_keyed(self.key_for(probe), snr_key)
    }

    /// `predict` with the SNR key already known (the indexed scans pass the
    /// precomputed column instead of re-deriving the median).
    fn predict_keyed(&self, key: Key, snr: i64) -> Option<BitRate> {
        if let Some(winners) = &self.winners {
            return winners.get(&(key, snr)).copied();
        }
        Self::cell_winner(self.tables.get(&key)?.get(&snr)?)
    }

    /// The most frequently optimal rate of one cell; ties break toward the
    /// lower rate. Cells are never empty, so `None` can't happen for a cell
    /// that exists — which is why [`LookupTableSet::seal`]'s flat map misses
    /// exactly when the nested lookups would have.
    fn cell_winner(counts: &RateCounts) -> Option<BitRate> {
        counts
            .iter()
            .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(a.0)))
            .map(|(&rate, _)| rate)
    }

    /// Precomputes every cell's winning rate into one flat map, turning
    /// each subsequent prediction into a single hash probe. Idempotent;
    /// [`LookupTableSet::train`] invalidates the cache. Called by the
    /// build kernel's `finish`, so every built table set arrives sealed.
    pub fn seal(&mut self) {
        let mut winners = HashMap::new();
        for (&key, table) in &self.tables {
            for (&snr, counts) in table {
                if let Some(rate) = Self::cell_winner(counts) {
                    winners.insert((key, snr), rate);
                }
            }
        }
        self.winners = Some(winners);
    }

    /// The `k` most frequently optimal rates at a probe set's cell — the
    /// §4.5 "augmented table" that narrows probing.
    pub fn top_k(&self, probe: Probe<'_>, k: usize) -> Vec<BitRate> {
        let Some(counts) = self.counts_for(probe) else {
            return Vec::new();
        };
        let mut v: Vec<(BitRate, u32)> = counts.iter().map(|(&r, &c)| (r, c)).collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v.into_iter().take(k).map(|(r, _)| r).collect()
    }

    /// Fraction of the dataset's probe sets whose predicted rate equals the
    /// actually optimal one (trained-on-self accuracy, as in §4.3's "chooses
    /// the correct answer about 90% of the time").
    ///
    /// Hit/total counters are integers, so the per-network fan-out sums to
    /// exactly the sequential result.
    pub fn exact_accuracy(&self, view: DatasetView<'_>) -> f64 {
        // The per-probe SNR columns, built once at full width before the
        // per-network fan-out reads them.
        view.columns();
        let (hits, total) = view
            .network_views(self.phy)
            .par_iter()
            .map(|nv| {
                let (mut h, mut t) = (0u64, 0u64);
                for e in nv.entries_in_order() {
                    t += 1;
                    if self.predict_keyed(key_of(self.scope, e.probe), e.snr_key)
                        == Some(e.opt.rate)
                    {
                        h += 1;
                    }
                }
                (h, t)
            })
            .collect::<Vec<(u64, u64)>>()
            .into_iter()
            .fold((0u64, 0u64), |(h, t), (dh, dt)| (h + dh, t + dt));
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    }

    /// Fig 4.1: for each SNR key, every rate that was *ever* optimal
    /// (pooled across all table keys of this scope).
    pub fn optimal_rates_per_snr(&self) -> BTreeMap<i64, BTreeSet<BitRate>> {
        let mut out: BTreeMap<i64, BTreeSet<BitRate>> = BTreeMap::new();
        for table in self.tables.values() {
            for (&snr, counts) in table {
                out.entry(snr).or_default().extend(counts.keys().copied());
            }
        }
        out
    }

    /// Smallest number of distinct rates whose combined frequency covers at
    /// least `pct` (0–1] of the observations in a cell.
    pub fn rates_needed(counts: &RateCounts, pct: f64) -> usize {
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

    /// Figs 4.2/4.3: for each SNR, the distribution over table keys of the
    /// number of rates needed to reach `pct` accuracy. The returned
    /// [`BinnedStats`] is keyed by SNR dB; its per-bin mean is what the
    /// figure plots.
    pub fn rates_needed_curve(&self, pct: f64) -> BinnedStats {
        let mut out = BinnedStats::new();
        for table in self.tables.values() {
            for (&snr, counts) in table {
                out.push(snr, Self::rates_needed(counts, pct) as f64);
            }
        }
        out
    }

    /// Number of distinct table keys (1 for global, #networks for network
    /// scope, …).
    pub fn n_keys(&self) -> usize {
        self.tables.len()
    }

    /// The scope this set was trained at.
    pub fn scope(&self) -> Scope {
        self.scope
    }

    /// The PHY this set covers.
    pub fn phy(&self) -> Phy {
        self.phy
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mesh11_trace::{ApId, Dataset, DatasetIndex, NetworkId, ProbeTable, RateObs};

    fn r(mbps: f64) -> BitRate {
        BitRate::bg_mbps(mbps).unwrap()
    }

    fn build_over(ds: &Dataset, scope: Scope, phy: Phy) -> LookupTableSet {
        let ix = DatasetIndex::build(ds);
        LookupTableSet::build(DatasetView::new(ds, &ix), scope, phy)
    }

    fn accuracy_over(ds: &Dataset, scope: Scope) -> f64 {
        let ix = DatasetIndex::build(ds);
        let view = DatasetView::new(ds, &ix);
        LookupTableSet::build(view, scope, Phy::Bg).exact_accuracy(view)
    }

    /// A probe set whose optimal rate is `opt` at `snr` on the given link.
    fn probe(net: u32, s: u32, rx: u32, snr: f64, opt: BitRate) -> ProbeTable {
        [Probe {
            network: NetworkId(net),
            phy: Phy::Bg,
            time_s: 0.0,
            sender: ApId(s),
            receiver: ApId(rx),
            obs: &[
                RateObs {
                    rate: opt,
                    loss: 0.0,
                    snr_db: snr,
                },
                // A decoy that always loses: 1 Mbit/s at full delivery is
                // below every other rate's zero-loss throughput.
                RateObs {
                    rate: r(1.0),
                    loss: 0.5,
                    snr_db: snr,
                },
            ],
        }]
        .into_iter()
        .collect()
    }

    fn dataset(probes: Vec<ProbeTable>) -> Dataset {
        Dataset {
            networks: vec![],
            probes: probes.iter().flatten().collect(),
            clients: vec![],
            probe_horizon_s: 0.0,
            client_horizon_s: 0.0,
        }
    }

    #[test]
    fn global_table_pools_networks() {
        let ds = dataset(vec![
            probe(0, 0, 1, 20.0, r(12.0)),
            probe(1, 0, 1, 20.0, r(24.0)),
        ]);
        let t = build_over(&ds, Scope::Global, Phy::Bg);
        assert_eq!(t.n_keys(), 1);
        let rates = t.optimal_rates_per_snr();
        assert_eq!(rates[&20].len(), 2, "both optima live under one key");
    }

    #[test]
    fn link_table_separates_links() {
        let ds = dataset(vec![
            probe(0, 0, 1, 20.0, r(12.0)),
            probe(0, 0, 2, 20.0, r(24.0)),
        ]);
        let t = build_over(&ds, Scope::Link, Phy::Bg);
        assert_eq!(t.n_keys(), 2);
        // Each link predicts its own optimum perfectly.
        assert_eq!(accuracy_over(&ds, Scope::Link), 1.0);
        // The global table cannot: it must pick one of the two.
        assert_eq!(accuracy_over(&ds, Scope::Global), 0.5);
    }

    #[test]
    fn scope_ordering_by_accuracy() {
        // Two networks, two links each, all sharing an SNR but with
        // different per-link optima: accuracy must rise with specificity.
        let ds = dataset(vec![
            probe(0, 0, 1, 20.0, r(12.0)),
            probe(0, 0, 1, 20.0, r(12.0)),
            probe(0, 1, 0, 20.0, r(24.0)),
            probe(1, 0, 1, 20.0, r(36.0)),
            probe(1, 1, 0, 20.0, r(48.0)),
        ]);
        let acc: Vec<f64> = Scope::ALL.iter().map(|&s| accuracy_over(&ds, s)).collect();
        for w in acc.windows(2) {
            assert!(w[0] <= w[1] + 1e-12, "accuracy must not drop: {acc:?}");
        }
        assert_eq!(*acc.last().unwrap(), 1.0);
    }

    #[test]
    fn predict_majority_wins() {
        let mut t = LookupTableSet {
            scope: Scope::Global,
            phy: Phy::Bg,
            tables: HashMap::new(),
            winners: None,
        };
        for _ in 0..3 {
            t.train(probe(0, 0, 1, 15.0, r(12.0)).get(0));
        }
        t.train(probe(0, 0, 1, 15.0, r(48.0)).get(0));
        assert_eq!(
            t.predict(probe(0, 0, 1, 15.0, r(6.0)).get(0)),
            Some(r(12.0))
        );
    }

    #[test]
    fn predict_none_without_data() {
        let t = build_over(&dataset(vec![]), Scope::Link, Phy::Bg);
        assert_eq!(t.predict(probe(0, 0, 1, 15.0, r(6.0)).get(0)), None);
        assert!(t.top_k(probe(0, 0, 1, 15.0, r(6.0)).get(0), 3).is_empty());
    }

    #[test]
    fn rates_needed_math() {
        let mut c: RateCounts = BTreeMap::new();
        c.insert(r(12.0), 67);
        c.insert(r(24.0), 30);
        c.insert(r(48.0), 3);
        // The paper's own example: 67% + 30% ⇒ two rates reach 95%, one
        // reaches 50%.
        assert_eq!(LookupTableSet::rates_needed(&c, 0.5), 1);
        assert_eq!(LookupTableSet::rates_needed(&c, 0.95), 2);
        assert_eq!(LookupTableSet::rates_needed(&c, 1.0), 3);
        assert_eq!(LookupTableSet::rates_needed(&BTreeMap::new(), 0.9), 0);
    }

    #[test]
    fn rates_needed_curve_shrinks_with_specificity() {
        // Same SNR, conflicting optima across links: at 95% the global
        // table needs 2 rates, per-link tables need 1.
        let ds = dataset(vec![
            probe(0, 0, 1, 20.0, r(12.0)),
            probe(0, 0, 2, 20.0, r(24.0)),
        ]);
        let g = build_over(&ds, Scope::Global, Phy::Bg).rates_needed_curve(0.95);
        let l = build_over(&ds, Scope::Link, Phy::Bg).rates_needed_curve(0.95);
        let g_mean = g.rows()[0].1.mean;
        let l_mean = l.rows()[0].1.mean;
        assert_eq!(g_mean, 2.0);
        assert_eq!(l_mean, 1.0);
    }

    #[test]
    fn top_k_orders_by_frequency() {
        let mut t = LookupTableSet {
            scope: Scope::Global,
            phy: Phy::Bg,
            tables: HashMap::new(),
            winners: None,
        };
        for _ in 0..5 {
            t.train(probe(0, 0, 1, 15.0, r(24.0)).get(0));
        }
        for _ in 0..2 {
            t.train(probe(0, 0, 1, 15.0, r(12.0)).get(0));
        }
        t.train(probe(0, 0, 1, 15.0, r(48.0)).get(0));
        let q = probe(0, 0, 1, 15.0, r(6.0));
        assert_eq!(t.top_k(q.get(0), 2), vec![r(24.0), r(12.0)]);
        assert_eq!(t.top_k(q.get(0), 99).len(), 3);
    }

    #[test]
    fn ht_tables_are_separate() {
        let ds = dataset(vec![probe(0, 0, 1, 20.0, r(12.0))]);
        let t = build_over(&ds, Scope::Global, Phy::Ht);
        assert_eq!(t.n_keys(), 0, "bg probes must not train the ht table");
    }
}
