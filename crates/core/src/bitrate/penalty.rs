//! §4.3 — the throughput cost of table-driven rate selection (Fig 4.4).
//!
//! For every probe set, compare the throughput of the rate the lookup table
//! would have picked against the throughput of the set's actual optimum.
//! A rate the table picks but the set never heard (no observation) scores
//! zero throughput — exactly the punishment a real sender would take.
//!
//! A table scores the probe sets that trained it while it tallies them
//! ([`TableBuildKernel`] with `penalty` set), one network-aligned part at
//! a time. Network, AP and Link keys begin with the network id, so a
//! network's own cells are final once that network is tallied, and its
//! sets are scored against them on the spot. The Global table needs every
//! network first: each network leaves a [`Residue`], and the finished
//! table scores the residues in network order. Either way the diffs are
//! counted in the order of one walk over the whole dataset.
//!
//! [`ThroughputPenalty::evaluate`] scores any table against any view, one
//! network at a time; the per-part scorer is tested against it.
//!
//! [`TableBuildKernel`]: crate::bitrate::lookup::TableBuildKernel

use std::collections::HashMap;

use mesh11_phy::Phy;
use mesh11_stats::Counts;
use mesh11_trace::fold::{network_units, Unit};
use mesh11_trace::{DatasetView, FoldKernel, NetworkView, RateObs};

use crate::bitrate::lookup::{LookupTableSet, Scope};

/// Scores one network's probe sets, in stream order, against `table`:
/// their diffs, and the sets whose cell the table lacks.
pub(crate) fn score_network(table: &LookupTableSet, nv: &NetworkView<'_>) -> (Vec<f64>, usize) {
    let (mut diffs, mut unpredicted) = (Vec::new(), 0);
    for e in nv.entries_in_order() {
        match table.predict_at(e.probe, e.snr_key) {
            None => unpredicted += 1,
            Some(pick) => {
                let got = e.probe.obs_for(pick).map_or(0.0, |o| o.throughput_mbps());
                diffs.push((e.opt.throughput_mbps() - got).max(0.0));
            }
        }
    }
    (diffs, unpredicted)
}

/// Scores any table against any view: each network on its own, its diffs
/// counted in network order, which adds up the sum in the order of one
/// sequential walk (datasets are network-major).
#[derive(Debug, Clone, Copy)]
struct PenaltyKernel<'t> {
    table: &'t LookupTableSet,
}

impl FoldKernel for PenaltyKernel<'_> {
    type Partial = PenaltyTally;
    type Piece = NetScores;
    type Output = ThroughputPenalty;
    const COLUMNS: bool = true;

    fn init(&self) -> PenaltyTally {
        PenaltyTally::default()
    }

    fn units<'a>(&'a self, view: DatasetView<'a>) -> Vec<Unit<'a, NetScores>> {
        network_units(view, self.table.phy(), move |nv| {
            let (diffs, unpredicted) = score_network(self.table, &nv);
            NetScores::Scored(diffs, unpredicted)
        })
    }

    fn merge(&self, tally: &mut PenaltyTally, scores: NetScores) {
        tally.merge(scores);
    }

    fn finish(&self, tally: PenaltyTally) -> ThroughputPenalty {
        tally.finish(self.table)
    }
}

/// One network's share of a penalty.
#[derive(Debug)]
pub enum NetScores {
    /// Its diffs in stream order, and the sets its table could not score.
    Scored(Vec<f64>, usize),
    /// What the Global table needs to score its sets once it is finished.
    Deferred(Residue),
}

/// A penalty in progress: the diffs counted so far, the sets no cell
/// scored, and the Global residues waiting for their table, in network
/// order.
#[derive(Debug, Default)]
pub struct PenaltyTally {
    diffs: Counts,
    unpredicted: usize,
    residues: Vec<Residue>,
}

impl PenaltyTally {
    /// Merges the next network's share.
    pub(crate) fn merge(&mut self, scores: NetScores) {
        match scores {
            NetScores::Scored(diffs, unpredicted) => {
                self.diffs.extend(diffs);
                self.unpredicted += unpredicted;
            }
            NetScores::Deferred(residue) => self.residues.push(residue),
        }
    }

    /// The penalty of the finished `table`: the residues are scored now,
    /// in network order.
    pub(crate) fn finish(mut self, table: &LookupTableSet) -> ThroughputPenalty {
        for residue in &self.residues {
            residue.score(table, &mut self.diffs, &mut self.unpredicted);
        }
        ThroughputPenalty {
            scope: table.scope(),
            phy: table.phy(),
            diffs_mbps: self.diffs,
            unpredicted: self.unpredicted,
        }
    }
}

/// One network's probe sets as the Global table needs them to score them
/// once it is finished: per set, its SNR key and its optimum, and per
/// observation its rate and throughput. Both are coded through the
/// network's dictionaries of distinct values: losses are quantized, so a
/// network's observations hold a few hundred distinct (rate, throughput)
/// pairs and its sets a few dozen SNR keys.
#[derive(Debug)]
pub struct Residue {
    /// The distinct SNR keys of the sets.
    snrs: Vec<i64>,
    /// The distinct (rate, throughput) pairs of the observations, the rate
    /// as its index among the table PHY's rates (`u8::MAX` for another
    /// PHY's rate, which no cell picks).
    pairs: Vec<(u8, f64)>,
    /// Per set, in stream order: its SNR key's position.
    snr: Vec<u32>,
    /// Per set: its optimum's pair's position.
    opt: Vec<u32>,
    /// Per set: its observation count.
    lens: Vec<u32>,
    /// Per observation, set by set: its pair's position.
    obs: Vec<u32>,
}

impl Residue {
    /// The residue of one network's `phy` probe sets.
    pub(crate) fn of_network(phy: Phy, nv: &NetworkView<'_>) -> Self {
        let (mut snrs, mut pairs) = (Dictionary::default(), Dictionary::default());
        let mut pair = |o: &RateObs| {
            let rate = if o.rate.phy() == phy {
                o.rate.index() as u8
            } else {
                u8::MAX
            };
            pairs.code((rate, o.throughput_mbps().to_bits()))
        };
        let (mut snr, mut opt, mut lens, mut obs) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        for e in nv.entries_in_order() {
            snr.push(snrs.code(e.snr_key));
            opt.push(pair(&e.opt));
            lens.push(u32::try_from(e.probe.obs.len()).expect("fewer than 2^32 observations"));
            for o in e.probe.obs {
                obs.push(pair(o));
            }
        }
        let pairs = pairs.values.into_iter();
        Self {
            snrs: snrs.values,
            pairs: pairs
                .map(|(rate, bits)| (rate, f64::from_bits(bits)))
                .collect(),
            snr,
            opt,
            lens,
            obs,
        }
    }

    /// Scores the sets against the finished Global `table`, in stream
    /// order, as [`score_network`] scores them from the probes.
    fn score(&self, table: &LookupTableSet, diffs: &mut Counts, unpredicted: &mut usize) {
        let picks: Vec<Option<u8>> = (self.snrs.iter())
            .map(|&snr| table.global_winner(snr))
            .collect();
        let mut start = 0;
        for set in 0..self.lens.len() {
            let obs = &self.obs[start..start + self.lens[set] as usize];
            start += obs.len();
            let Some(pick) = picks[self.snr[set] as usize] else {
                *unpredicted += 1;
                continue;
            };
            let heard = obs
                .iter()
                .map(|&code| self.pairs[code as usize])
                .find(|p| p.0 == pick);
            let got = heard.map_or(0.0, |(_, throughput)| throughput);
            diffs.push((self.pairs[self.opt[set] as usize].1 - got).max(0.0));
        }
    }
}

/// Distinct values in first-seen order; a value's code is its position.
#[derive(Debug, Default)]
struct Dictionary<K> {
    values: Vec<K>,
    codes: HashMap<K, u32>,
}

impl<K: Copy + Eq + std::hash::Hash> Dictionary<K> {
    fn code(&mut self, value: K) -> u32 {
        *self.codes.entry(value).or_insert_with(|| {
            self.values.push(value);
            u32::try_from(self.values.len() - 1).expect("fewer than 2^32 distinct values")
        })
    }
}

/// Throughput-difference distribution for one scope.
#[derive(Debug, Clone)]
pub struct ThroughputPenalty {
    /// Training scope.
    pub scope: Scope,
    /// PHY analyzed.
    pub phy: Phy,
    /// One difference (Mbit/s, ≥ 0) per predicted probe set, counted per
    /// distinct value and added up in dataset order.
    pub diffs_mbps: Counts,
    /// Probe sets for which the table had no entry (excluded from the CDF).
    pub unpredicted: usize,
}

impl ThroughputPenalty {
    /// Evaluates a trained table set against the dataset it describes
    /// (dataset order per PHY, so the diffs are added up in the order of
    /// the pre-index pipeline).
    pub fn evaluate(view: DatasetView<'_>, table: &LookupTableSet) -> Self {
        mesh11_trace::run_fold(view, &PenaltyKernel { table })
    }

    /// Convenience: build the table at `scope` then evaluate.
    pub fn for_scope(view: DatasetView<'_>, scope: Scope, phy: Phy) -> Self {
        Self::evaluate(view, &LookupTableSet::build(view, scope, phy))
    }

    /// Fraction of predictions with zero throughput loss — §4.3's "chooses
    /// the correct answer" number (≈90% b/g, ≈75% n for link scope).
    pub fn frac_exact(&self) -> f64 {
        if self.diffs_mbps.is_empty() {
            return 0.0;
        }
        self.diffs_mbps.frac_below(1e-9)
    }

    /// Mean throughput loss (Mbit/s).
    pub fn mean_loss_mbps(&self) -> f64 {
        self.diffs_mbps.mean().unwrap_or(0.0)
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

    fn penalty_over(ds: &Dataset, scope: Scope) -> ThroughputPenalty {
        let ix = DatasetIndex::build(ds);
        ThroughputPenalty::for_scope(DatasetView::new(ds, &ix), scope, Phy::Bg)
    }

    fn probe(s: u32, rx: u32, snr: f64, obs: Vec<(f64, f64)>) -> ProbeTable {
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
            sender: ApId(s),
            receiver: ApId(rx),
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
    fn perfect_table_zero_penalty() {
        let d = ds(vec![
            probe(0, 1, 20.0, vec![(12.0, 0.0), (24.0, 0.9)]),
            probe(0, 1, 20.0, vec![(12.0, 0.0), (24.0, 0.9)]),
        ]);
        let p = penalty_over(&d, Scope::Link);
        assert_eq!(p.diffs_mbps.len(), 2);
        assert_eq!(p.frac_exact(), 1.0);
        assert_eq!(p.mean_loss_mbps(), 0.0);
        assert_eq!(p.unpredicted, 0);
    }

    #[test]
    fn conflicting_links_cost_global_table() {
        // Link A: optimal 12 (24 is lossy); link B: optimal 24. Global
        // training at the shared SNR must err on one of them.
        let d = ds(vec![
            probe(0, 1, 20.0, vec![(12.0, 0.0), (24.0, 0.9)]),
            probe(0, 2, 20.0, vec![(12.0, 0.0), (24.0, 0.0)]),
        ]);
        let global = penalty_over(&d, Scope::Global);
        let link = penalty_over(&d, Scope::Link);
        assert!(global.frac_exact() < 1.0);
        assert_eq!(link.frac_exact(), 1.0);
        assert!(global.mean_loss_mbps() > link.mean_loss_mbps());
    }

    #[test]
    fn unheard_pick_scores_zero() {
        // Train the table toward 48 via one link, then evaluate a set that
        // never heard 48: penalty is the full optimal throughput.
        let d = ds(vec![
            probe(0, 1, 25.0, vec![(48.0, 0.0)]),
            probe(0, 2, 25.0, vec![(12.0, 0.0)]),
        ]);
        let g = penalty_over(&d, Scope::Global);
        // One of the two sets is mispredicted with an unheard rate.
        let max = g.diffs_mbps.quantile(1.0).unwrap();
        assert!(max >= 12.0 - 1e-9, "diffs {:?}", g.diffs_mbps);
    }

    #[test]
    fn cdf_export() {
        let d = ds(vec![probe(0, 1, 20.0, vec![(12.0, 0.0)])]);
        let p = penalty_over(&d, Scope::Link);
        assert_eq!(p.diffs_mbps.len(), 1);
        assert_eq!(p.diffs_mbps.points(2), vec![(0.0, 0.0), (0.0, 1.0)]);
        let empty = penalty_over(&ds(vec![]), Scope::Link);
        assert!(empty.diffs_mbps.points(2).is_empty());
    }
}
