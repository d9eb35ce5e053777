//! SNR-keyed bit-rate lookup tables (§4.1–4.2).

use std::collections::{BTreeMap, BTreeSet, HashMap};

use mesh11_phy::{BitRate, Phy};
use mesh11_stats::BinnedStats;
use mesh11_trace::fold::{network_units, Unit};
use mesh11_trace::{DatasetView, NetworkView, Probe};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

use crate::bitrate::penalty::{score_network, NetScores, PenaltyTally, Residue};
use crate::bitrate::ThroughputPenalty;

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

/// Table key: unused components are `u32::MAX`. Every key but the
/// global one begins with the network id.
type Key = (u32, u32, u32);

/// The table key of a link's probe sets under `scope`.
fn key_of(scope: Scope, network: u32, sender: u32, receiver: u32) -> Key {
    match scope {
        Scope::Global => (u32::MAX, u32::MAX, u32::MAX),
        Scope::Network => (network, u32::MAX, u32::MAX),
        Scope::Ap => (network, sender, u32::MAX),
        Scope::Link => (network, sender, receiver),
    }
}

/// A count of optimal rates at one cell: `(SNR key, BitRate::index,
/// count)`.
type Tally = (i64, u8, u32);

/// The fold-style form of [`LookupTableSet::build`]. Each network's
/// cells are counted on their own, then appended in network order: a
/// network's keys all begin with its id, so only the global key is ever
/// shared, and its counts are added together. Counts are integers, so
/// the merge cannot change any cell.
///
/// With `penalty` set the kernel also scores the table's Fig 4.4 penalty
/// on the probe sets it tallies (see [`crate::bitrate::penalty`]): a
/// network's sets against its own cells, which are final at every scope
/// but Global, and at Global against the finished table.
#[derive(Debug, Clone, Copy)]
pub struct TableBuildKernel {
    /// Training scope.
    pub scope: Scope,
    /// PHY to train on.
    pub phy: Phy,
    /// Whether to score the table's penalty too.
    pub penalty: bool,
}

impl mesh11_trace::FoldKernel for TableBuildKernel {
    type Partial = (LookupTableSet, Option<PenaltyTally>);
    type Piece = (LookupTableSet, Option<NetScores>);
    type Output = (LookupTableSet, Option<ThroughputPenalty>);
    const COLUMNS: bool = true;

    fn init(&self) -> Self::Partial {
        let tally = self.penalty.then(PenaltyTally::default);
        (LookupTableSet::new(self.scope, self.phy), tally)
    }

    fn units<'a>(&'a self, view: DatasetView<'a>) -> Vec<Unit<'a, Self::Piece>> {
        network_units(view, self.phy, move |nv| {
            let cells = LookupTableSet::of_network(self.scope, self.phy, &nv);
            let scores = self.penalty.then(|| match self.scope {
                Scope::Global => NetScores::Deferred(Residue::of_network(self.phy, &nv)),
                _ => {
                    let (diffs, unpredicted) = score_network(&cells, &nv);
                    NetScores::Scored(diffs, unpredicted)
                }
            });
            (cells, scores)
        })
    }

    fn merge(&self, (table, tally): &mut Self::Partial, (cells, scores): Self::Piece) {
        table.append(&cells);
        if let (Some(tally), Some(scores)) = (tally, scores) {
            tally.merge(scores);
        }
    }

    fn finish(&self, (table, tally): Self::Partial) -> Self::Output {
        let penalty = tally.map(|t| t.finish(&table));
        (table, penalty)
    }
}

/// One (key, SNR key) cell of a table.
#[derive(Debug, Clone, Copy)]
struct Cell {
    snr: i64,
    /// Where the cell's `(rate index, count)` pairs start in
    /// [`LookupTableSet::rates`].
    start: u32,
    /// How many pairs it has: at least one.
    len: u8,
    /// The most frequently optimal rate's index; ties break toward the
    /// lower rate.
    winner: u8,
}

/// A set of SNR → optimal-rate frequency tables at one scope, for one PHY,
/// held as one flat cell table: every (key, SNR key) cell with its rate
/// counts and its winner, grouped by key in the order the keys were
/// folded, ascending by SNR key within a key.
#[derive(Debug, Clone)]
pub struct LookupTableSet {
    scope: Scope,
    phy: Phy,
    /// The table keys, in fold order, each with the end of its cells.
    keys: Vec<(Key, u32)>,
    /// Key → its position in `keys`.
    lookup: HashMap<Key, u32>,
    /// Every cell, grouped by key as `keys` orders them, ascending by SNR
    /// key within a key.
    cells: Vec<Cell>,
    /// The cells' `(BitRate::index, count)` pairs, ascending by rate
    /// within a cell.
    rates: Vec<(u8, u32)>,
}

impl LookupTableSet {
    /// Trains tables from every probe set of `phy` in the dataset, using
    /// the view's precomputed SNR keys and optima.
    pub fn build(view: DatasetView<'_>, scope: Scope, phy: Phy) -> Self {
        let kernel = TableBuildKernel {
            scope,
            phy,
            penalty: false,
        };
        mesh11_trace::run_fold(view, &kernel).0
    }

    fn new(scope: Scope, phy: Phy) -> Self {
        Self {
            scope,
            phy,
            keys: Vec::new(),
            lookup: HashMap::new(),
            cells: Vec::new(),
            rates: Vec::new(),
        }
    }

    /// The cells of one network's probe sets. Links come in (sender,
    /// receiver) order, so each key's links are consecutive.
    fn of_network(scope: Scope, phy: Phy, nv: &NetworkView<'_>) -> Self {
        let mut t = Self::new(scope, phy);
        let mut group: Option<(Key, Vec<Tally>)> = None;
        for link in nv.links() {
            let key = key_of(scope, link.network().0, link.sender().0, link.receiver().0);
            if let Some((k, tallies)) = group.take_if(|g| g.0 != key) {
                t.push_key(k, tallies);
            }
            let (_, tallies) = group.get_or_insert_with(|| (key, Vec::new()));
            tallies.extend(
                link.entries()
                    .map(|e| (e.snr_key, e.opt.rate.index() as u8, 1)),
            );
        }
        if let Some((k, tallies)) = group {
            t.push_key(k, tallies);
        }
        t
    }

    /// Appends `other`'s keys; a key equal to this set's last one is added
    /// into it.
    fn append(&mut self, other: &LookupTableSet) {
        for k in 0..other.keys.len() {
            self.push_key(other.keys[k].0, other.tallies(k).collect());
        }
    }

    /// Appends one key's cells from its tallies, in any order. A key equal
    /// to the last one is added into it; any other key must be new, which
    /// network-aligned parts guarantee.
    fn push_key(&mut self, key: Key, mut tallies: Vec<Tally>) {
        if self.keys.last().is_some_and(|&(last, _)| last == key) {
            tallies.extend(self.pop_key());
        }
        assert!(
            !self.lookup.contains_key(&key),
            "a table key recurs after other keys: a network was split across parts"
        );
        tallies.sort_unstable_by_key(|&(snr, rate, _)| (snr, rate));
        for cell in tallies.chunk_by(|a, b| a.0 == b.0) {
            let start = self.rates.len();
            for rate in cell.chunk_by(|a, b| a.1 == b.1) {
                self.rates
                    .push((rate[0].1, rate.iter().map(|&(.., n)| n).sum()));
            }
            let pairs = &self.rates[start..];
            // The first maximum: ties go to the lower rate.
            let winner = pairs
                .iter()
                .fold(pairs[0], |best, &p| if p.1 > best.1 { p } else { best });
            self.cells.push(Cell {
                snr: cell[0].0,
                start: u32::try_from(start).expect("fewer than 2^32 cell rates"),
                len: pairs.len() as u8,
                winner: winner.0,
            });
        }
        self.lookup.insert(key, self.keys.len() as u32);
        let end = u32::try_from(self.cells.len()).expect("fewer than 2^32 cells");
        self.keys.push((key, end));
    }

    /// Removes the last key and returns its tallies.
    fn pop_key(&mut self) -> Vec<Tally> {
        let k = self.keys.len() - 1;
        let tallies = self.tallies(k).collect();
        let (key, _) = self.keys.pop().expect("a key to pop");
        self.lookup.remove(&key);
        let first = self.keys.last().map_or(0, |&(_, end)| end as usize);
        let rates = self
            .cells
            .get(first)
            .map_or(self.rates.len(), |c| c.start as usize);
        self.rates.truncate(rates);
        self.cells.truncate(first);
        tallies
    }

    /// The cells of the `k`-th key.
    fn key_cells(&self, k: usize) -> &[Cell] {
        let start = if k == 0 { 0 } else { self.keys[k - 1].1 };
        &self.cells[start as usize..self.keys[k].1 as usize]
    }

    /// The `k`-th key's cells as tallies.
    fn tallies(&self, k: usize) -> impl Iterator<Item = Tally> + '_ {
        self.key_cells(k)
            .iter()
            .flat_map(|c| self.pairs(c).iter().map(|&(r, n)| (c.snr, r, n)))
    }

    /// A cell's `(rate index, count)` pairs.
    fn pairs(&self, c: &Cell) -> &[(u8, u32)] {
        &self.rates[c.start as usize..][..usize::from(c.len)]
    }

    fn key_for(&self, probe: Probe<'_>) -> Key {
        key_of(
            self.scope,
            probe.network.0,
            probe.sender.0,
            probe.receiver.0,
        )
    }

    /// The cell at `(key, snr)`: one hash probe, then a search of the
    /// key's few cells.
    fn cell(&self, key: Key, snr: i64) -> Option<&Cell> {
        let &k = self.lookup.get(&key)?;
        let cells = self.key_cells(k as usize);
        cells
            .binary_search_by_key(&snr, |c| c.snr)
            .ok()
            .map(|i| &cells[i])
    }

    fn rate(&self, index: u8) -> BitRate {
        self.phy.all_rates()[usize::from(index)]
    }

    /// The table's prediction for a probe set: the most frequently optimal
    /// rate at its (key, SNR); ties break toward the lower rate.
    pub fn predict(&self, probe: Probe<'_>) -> Option<BitRate> {
        self.predict_at(probe, probe.snr_key())
    }

    /// `predict` with the probe set's SNR key already derived (an index
    /// column, or a key computed once and shared by several tables):
    /// same lookup, no median re-derivation.
    pub(crate) fn predict_at(&self, probe: Probe<'_>, snr_key: i64) -> Option<BitRate> {
        self.cell(self.key_for(probe), snr_key)
            .map(|c| self.rate(c.winner))
    }

    /// The winning rate's index at the global key's `snr` cell, for a
    /// Global table.
    pub(crate) fn global_winner(&self, snr: i64) -> Option<u8> {
        let global = key_of(Scope::Global, 0, 0, 0);
        self.cell(global, snr).map(|c| c.winner)
    }

    /// The `k` most frequently optimal rates at a probe set's cell — the
    /// §4.5 "augmented table" that narrows probing.
    pub fn top_k(&self, probe: Probe<'_>, k: usize) -> Vec<BitRate> {
        let Some(c) = self.cell(self.key_for(probe), probe.snr_key()) else {
            return Vec::new();
        };
        let mut v = self.pairs(c).to_vec();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v.into_iter().take(k).map(|(r, _)| self.rate(r)).collect()
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
                    if self.predict_at(e.probe, e.snr_key) == Some(e.opt.rate) {
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
        for c in &self.cells {
            out.entry(c.snr)
                .or_default()
                .extend(self.pairs(c).iter().map(|&(r, _)| self.rate(r)));
        }
        out
    }

    /// Smallest number of distinct rates whose combined frequency covers at
    /// least `pct` (0–1] of a cell's observations, given the cell's rate
    /// counts in descending order.
    fn rates_needed(desc: &[u32], pct: f64) -> usize {
        let total: u32 = desc.iter().sum();
        if total == 0 {
            return 0;
        }
        let target = pct * total as f64;
        let mut acc = 0.0;
        for (i, f) in desc.iter().enumerate() {
            acc += *f as f64;
            if acc + 1e-9 >= target {
                return i + 1;
            }
        }
        desc.len()
    }

    /// Calls `f(snr, needed)` for every cell, where `needed[i]` is the
    /// number of rates the cell needs to reach `pcts[i]` accuracy.
    fn for_each_needed(&self, pcts: &[f64], mut f: impl FnMut(i64, &[usize])) {
        let (mut desc, mut needed) = (Vec::new(), Vec::new());
        for c in &self.cells {
            desc.clear();
            desc.extend(self.pairs(c).iter().map(|&(_, n)| n));
            desc.sort_unstable_by(|a, b| b.cmp(a));
            needed.clear();
            needed.extend(pcts.iter().map(|&pct| Self::rates_needed(&desc, pct)));
            f(c.snr, &needed);
        }
    }

    /// Figs 4.2/4.3: for each SNR, the distribution over table keys of the
    /// number of rates needed to reach `pct` accuracy. The returned
    /// [`BinnedStats`] is keyed by SNR dB; its per-bin mean is what the
    /// figure plots.
    pub fn rates_needed_curve(&self, pct: f64) -> BinnedStats {
        let mut out = BinnedStats::new();
        self.for_each_needed(&[pct], |snr, needed| out.push(snr, needed[0] as f64));
        out
    }

    /// Figs 4.2/4.3 in one walk over the cells: for each of `pcts`, the
    /// `(SNR key, mean over table keys of the rates needed)` curve, in
    /// ascending SNR — the bin means of [`LookupTableSet::rates_needed_curve`].
    /// The counts are small integers, so their sums are exact and each
    /// mean has the bits of a bin mean.
    pub fn rates_needed_means(&self, pcts: &[f64]) -> Vec<Vec<(i64, f64)>> {
        // Per SNR key, per percentile: (sum of rates needed, cells).
        let mut bins: BTreeMap<i64, Vec<(u64, u64)>> = BTreeMap::new();
        self.for_each_needed(pcts, |snr, needed| {
            let bin = bins.entry(snr).or_insert_with(|| vec![(0, 0); pcts.len()]);
            for (b, &n) in bin.iter_mut().zip(needed) {
                b.0 += n as u64;
                b.1 += 1;
            }
        });
        (0..pcts.len())
            .map(|i| {
                bins.iter()
                    .map(|(&snr, b)| (snr, b[i].0 as f64 / b[i].1 as f64))
                    .collect()
            })
            .collect()
    }

    /// Number of distinct table keys (1 for global, #networks for network
    /// scope, …).
    pub fn n_keys(&self) -> usize {
        self.keys.len()
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
        let mut sets = vec![probe(0, 0, 1, 15.0, r(12.0)); 3];
        sets.push(probe(0, 0, 1, 15.0, r(48.0)));
        let t = build_over(&dataset(sets), Scope::Global, Phy::Bg);
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
        let c = [67, 30, 3];
        // The paper's own example: 67% + 30% ⇒ two rates reach 95%, one
        // reaches 50%.
        assert_eq!(LookupTableSet::rates_needed(&c, 0.5), 1);
        assert_eq!(LookupTableSet::rates_needed(&c, 0.95), 2);
        assert_eq!(LookupTableSet::rates_needed(&c, 1.0), 3);
        assert_eq!(LookupTableSet::rates_needed(&[], 0.9), 0);
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
        let means = build_over(&ds, Scope::Global, Phy::Bg).rates_needed_means(&[0.5, 0.95]);
        assert_eq!(means, vec![vec![(20, 1.0)], vec![(20, 2.0)]]);
    }

    #[test]
    fn top_k_orders_by_frequency() {
        let mut sets = vec![probe(0, 0, 1, 15.0, r(24.0)); 5];
        sets.extend(vec![probe(0, 0, 1, 15.0, r(12.0)); 2]);
        sets.push(probe(0, 0, 1, 15.0, r(48.0)));
        let t = build_over(&dataset(sets), Scope::Global, Phy::Bg);
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
