//! The §4.5 online replays against the map-based tables they replaced.
//!
//! `StrategyKernel` (Fig 4.6, Table 4.1) and `AdaptationKernel`
//! (`ext-adapt`) replay each link from flat arrays: a row per rank of the
//! link's distinct SNR keys, a column per rate. The references below are
//! the replays they replaced, kept as the oracle: per-link
//! `HashMap<i64, BTreeMap<BitRate, u32>>` tables and `BTreeMap` EWMAs,
//! walked over the whole view link by link. Every output field must match
//! bit for bit on random link runs of both PHYs, with SNRs of ±1e300
//! (keys saturated at `i64::MIN`/`i64::MAX`), rates tied on count and on
//! throughput, duplicate observations of one rate and reports out of time
//! order.

use std::collections::{BTreeMap, HashMap};

use mesh11::core::bitrate::adaptation::AdaptationOutcome;
use mesh11::core::bitrate::strategy::{evaluate_strategies, StrategyEval};
use mesh11::core::bitrate::{simulate_adapters, AdapterKind, StrategyKind};
use mesh11::phy::{BitRate, Phy};
use mesh11::trace::{
    ApId, Dataset, DatasetIndex, DatasetView, NetworkId, Probe, ProbeEntry, ProbeTable, RateObs,
};
use proptest::prelude::*;

// Only the pool runner is shared; the suites' specs are built below.
#[allow(dead_code)]
mod common;
use common::with_threads;

/// The replaced per-link online table of one strategy.
#[derive(Default)]
struct OnlineTable {
    single: HashMap<i64, BitRate>,
    counts: HashMap<i64, BTreeMap<BitRate, u32>>,
    seen: HashMap<i64, u32>,
    updates: u64,
    stored: u64,
}

impl OnlineTable {
    fn predict(&self, kind: StrategyKind, snr: i64) -> Option<BitRate> {
        match kind {
            StrategyKind::First | StrategyKind::MostRecent => self.single.get(&snr).copied(),
            StrategyKind::Subsampled | StrategyKind::All => {
                let counts = self.counts.get(&snr)?;
                counts
                    .iter()
                    .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(a.0)))
                    .map(|(&r, _)| r)
            }
        }
    }

    fn update(&mut self, kind: StrategyKind, snr: i64, opt: BitRate) {
        let seen = self.seen.entry(snr).or_insert(0);
        *seen += 1;
        match kind {
            StrategyKind::First => {
                if let std::collections::hash_map::Entry::Vacant(e) = self.single.entry(snr) {
                    e.insert(opt);
                    self.updates += 1;
                    self.stored += 1;
                }
            }
            StrategyKind::MostRecent => {
                if self.single.insert(snr, opt).is_none() {
                    self.stored += 1;
                }
                self.updates += 1;
            }
            StrategyKind::Subsampled => {
                if *seen == 1 || (*seen).is_multiple_of(3) {
                    *self.counts.entry(snr).or_default().entry(opt).or_insert(0) += 1;
                    self.updates += 1;
                    self.stored += 1;
                }
            }
            StrategyKind::All => {
                *self.counts.entry(snr).or_default().entry(opt).or_insert(0) += 1;
                self.updates += 1;
                self.stored += 1;
            }
        }
    }
}

/// `evaluate_strategies` as the map tables computed it.
fn strategies_reference(
    view: DatasetView<'_>,
    phy: Phy,
    kinds: &[StrategyKind],
) -> Vec<StrategyEval> {
    kinds
        .iter()
        .map(|&kind| {
            let mut eval = StrategyEval {
                kind,
                accuracy_by_history: Vec::new(),
                updates: 0,
                stored_points: 0,
                predictions: 0,
                correct: 0,
            };
            for link in view.links_for_phy(phy) {
                let mut table = OnlineTable::default();
                for (i, e) in link.entries_by_time().enumerate() {
                    if let Some(pick) = table.predict(kind, e.snr_key) {
                        let ok = u64::from(pick == e.opt.rate);
                        let acc = &mut eval.accuracy_by_history;
                        if acc.len() <= i {
                            acc.resize(i + 1, (0, 0));
                        }
                        acc[i].0 += 1;
                        acc[i].1 += ok;
                        eval.predictions += 1;
                        eval.correct += ok;
                    }
                    table.update(kind, e.snr_key, e.opt.rate);
                }
                eval.updates += table.updates;
                eval.stored_points += table.stored;
            }
            eval
        })
        .collect()
}

/// The replaced per-link state of one adapter.
#[derive(Default)]
struct AdapterState {
    table: HashMap<i64, BTreeMap<BitRate, u32>>,
    ewma: BTreeMap<BitRate, f64>,
    last_snr: Option<i64>,
}

impl AdapterState {
    fn decide(&self, kind: &AdapterKind, phy: Phy, current: &ProbeEntry) -> BitRate {
        let fallback = phy.probed_rates()[0];
        match kind {
            AdapterKind::Fixed(r) => *r,
            AdapterKind::Oracle => current.opt.rate,
            AdapterKind::EwmaProbing { .. } => self
                .ewma
                .iter()
                .max_by(|a, b| {
                    a.1.partial_cmp(b.1)
                        .expect("finite ewma")
                        .then(b.0.cmp(a.0))
                })
                .map(|(&r, _)| r)
                .unwrap_or(fallback),
            AdapterKind::SnrTable { .. } => {
                let Some(snr) = self.last_snr else {
                    return fallback;
                };
                let Some(counts) = self.table.get(&snr) else {
                    return fallback;
                };
                counts
                    .iter()
                    .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(a.0)))
                    .map(|(&r, _)| r)
                    .unwrap_or(fallback)
            }
        }
    }

    fn learn(&mut self, kind: &AdapterKind, set: &ProbeEntry) {
        match kind {
            AdapterKind::SnrTable { .. } => {
                *self
                    .table
                    .entry(set.snr_key)
                    .or_default()
                    .entry(set.opt.rate)
                    .or_insert(0) += 1;
            }
            AdapterKind::EwmaProbing { alpha } => {
                for o in set.probe.obs {
                    let e = self.ewma.entry(o.rate).or_insert(0.0);
                    *e = (1.0 - alpha) * *e + alpha * o.throughput_mbps();
                }
                for (r, e) in self.ewma.iter_mut() {
                    if set.probe.obs_for(*r).is_none() {
                        *e *= 1.0 - alpha;
                    }
                }
            }
            AdapterKind::Fixed(_) | AdapterKind::Oracle => {}
        }
        self.last_snr = Some(set.snr_key);
    }
}

/// `simulate_adapters` as the map states computed it: each kind's sums
/// run over the links in the view's link order, decisions in time order.
fn adapters_reference(
    view: DatasetView<'_>,
    phy: Phy,
    kinds: &[AdapterKind],
    overhead: f64,
) -> Vec<AdaptationOutcome> {
    let n_rates = phy.probed_rates().len();
    kinds
        .iter()
        .map(|kind| {
            let (mut decisions, mut sum_thr, mut sum_oracle) = (0u64, 0.0f64, 0.0f64);
            for link in view.links_for_phy(phy) {
                let mut state = AdapterState::default();
                for (i, set) in link.entries_by_time().enumerate() {
                    if i > 0 {
                        let pick = state.decide(kind, phy, &set);
                        decisions += 1;
                        sum_thr += set.probe.obs_for(pick).map_or(0.0, |o| o.throughput_mbps());
                        sum_oracle += set.opt.throughput_mbps();
                    }
                    state.learn(kind, &set);
                }
            }
            let probed = match kind {
                AdapterKind::SnrTable { top_k } => (*top_k).min(n_rates),
                AdapterKind::EwmaProbing { .. } => n_rates,
                AdapterKind::Fixed(_) | AdapterKind::Oracle => 0,
            };
            let mean = if decisions == 0 {
                0.0
            } else {
                sum_thr / decisions as f64
            };
            let charge = overhead * probed as f64 / n_rates as f64;
            AdaptationOutcome {
                kind: *kind,
                decisions,
                mean_throughput_mbps: mean,
                net_throughput_mbps: mean * (1.0 - charge),
                fraction_of_oracle: if sum_oracle > 0.0 {
                    sum_thr / sum_oracle
                } else {
                    0.0
                },
            }
        })
        .collect()
}

/// A strategy evaluation with every field spelled out.
fn strategy_fields(e: &StrategyEval) -> String {
    format!(
        "{:?} acc {:?} updates {} stored {} predictions {} correct {}",
        e.kind, e.accuracy_by_history, e.updates, e.stored_points, e.predictions, e.correct
    )
}

/// An adaptation outcome with every float as its bits.
fn outcome_fields(o: &AdaptationOutcome) -> String {
    format!(
        "{} decisions {} mean {:#x} net {:#x} oracle {:#x}",
        o.kind.name(),
        o.decisions,
        o.mean_throughput_mbps.to_bits(),
        o.net_throughput_mbps.to_bits(),
        o.fraction_of_oracle.to_bits()
    )
}

/// Strategies in Table 4.1 order, then one repeated.
const STRATEGIES: [StrategyKind; 5] = [
    StrategyKind::First,
    StrategyKind::MostRecent,
    StrategyKind::Subsampled,
    StrategyKind::All,
    StrategyKind::Subsampled,
];

/// `ext-adapt`'s kinds, plus a table probing nothing and an EWMA that
/// keeps only the newest observation.
fn adapter_kinds(phy: Phy) -> Vec<AdapterKind> {
    vec![
        AdapterKind::Oracle,
        AdapterKind::SnrTable { top_k: 1 },
        AdapterKind::SnrTable { top_k: 2 },
        AdapterKind::EwmaProbing { alpha: 0.3 },
        AdapterKind::Fixed(phy.probed_rates()[2]),
        AdapterKind::SnrTable { top_k: 0 },
        AdapterKind::EwmaProbing { alpha: 1.0 },
    ]
}

/// Both replays against their references, on both PHYs, at 1 and 3
/// threads.
fn check(ds: &Dataset) -> Result<(), TestCaseError> {
    let ix = DatasetIndex::build(ds);
    let view = DatasetView::new(ds, &ix);
    for phy in [Phy::Bg, Phy::Ht] {
        let want_s: Vec<String> = strategies_reference(view, phy, &STRATEGIES)
            .iter()
            .map(strategy_fields)
            .collect();
        let kinds = adapter_kinds(phy);
        let want_a: Vec<String> = adapters_reference(view, phy, &kinds, 0.1)
            .iter()
            .map(outcome_fields)
            .collect();
        for threads in [1, 3] {
            let (got_s, got_a) = with_threads(threads, || {
                let ix = DatasetIndex::build(ds);
                let view = DatasetView::new(ds, &ix);
                let s: Vec<String> = evaluate_strategies(view, phy, &STRATEGIES)
                    .iter()
                    .map(strategy_fields)
                    .collect();
                let a: Vec<String> = simulate_adapters(view, phy, &kinds, 0.1)
                    .iter()
                    .map(outcome_fields)
                    .collect();
                (s, a)
            });
            prop_assert_eq!(&got_s, &want_s, "{} strategies at {} threads", phy, threads);
            prop_assert_eq!(&got_a, &want_a, "{} adapters at {} threads", phy, threads);
        }
    }
    Ok(())
}

/// SNRs whose medians tie, interpolate, carry a sign, and saturate the
/// integer key at either end.
const SNRS: [f64; 8] = [0.0, -0.0, 10.0, 10.5, 11.0, 20.0, 1e300, -1e300];

/// `(rate index, loss in quarters, SNRS index)`. Quarter-step losses tie
/// rates on throughput (12 Mbit/s at 0.5 against 6 at 0; every rate at
/// full loss).
type ObsSpec = (usize, u8, usize);
/// `(network, HT?, link, time step, observations)`.
type SetSpec = (u32, bool, (u32, u32), u32, Vec<ObsSpec>);

/// The dataset holding one probe set per spec, in spec order.
fn dataset(specs: &[SetSpec]) -> Dataset {
    let mut probes = ProbeTable::new();
    for (net, ht, (s, r), t, obs) in specs {
        let phy = if *ht { Phy::Ht } else { Phy::Bg };
        let rates = phy.probed_rates();
        let obs: Vec<RateObs> = obs
            .iter()
            .map(|&(rate, loss_q, snr)| RateObs {
                rate: rates[rate % rates.len()],
                loss: f64::from(loss_q) / 4.0,
                snr_db: SNRS[snr],
            })
            .collect();
        probes.push(Probe {
            network: NetworkId(*net),
            phy,
            time_s: f64::from(*t) * 300.0,
            sender: ApId(*s),
            receiver: ApId(*r),
            obs: &obs,
        });
    }
    Dataset {
        probes,
        ..Dataset::default()
    }
}

/// Up to `max_sets` sets over two networks of three APs, so each link's
/// run is long enough to revisit its keys; rate indices stay low so
/// observations repeat rates and optima tie on count.
fn specs(max_sets: usize) -> impl Strategy<Value = Vec<SetSpec>> {
    proptest::collection::vec(
        (
            0u32..2,
            proptest::bool::ANY,
            (0u32..3, 0u32..3),
            0u32..40,
            proptest::collection::vec((0usize..5, 0u8..=4, 0usize..SNRS.len()), 1..5),
        ),
        0..max_sets,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn flat_replays_match_map_tables(specs in specs(160)) {
        check(&dataset(&specs))?;
    }
}

/// A b/g set on link 0→1 at time step `t`: one observation per
/// `(rate index, loss in quarters, SNR)`.
fn set(t: u32, obs: &[(usize, u8, usize)]) -> SetSpec {
    (0, false, (0, 1), t, obs.to_vec())
}

#[test]
fn saturated_keys_replay_like_the_maps() {
    // Medians of ±1e300 key at i64::MAX / i64::MIN; the set between them
    // keys at 0. A span-sized table would need 2^64 rows.
    let (hi, lo, zero) = (6, 7, 0);
    let specs: Vec<SetSpec> = (0..12)
        .map(|t| {
            let snr = [hi, lo, zero][t as usize % 3];
            set(t, &[(t as usize % 3, 0, snr), (3, 2, snr)])
        })
        .collect();
    let ds = dataset(&specs);
    let ix = DatasetIndex::build(&ds);
    let view = DatasetView::new(&ds, &ix);
    let keys: Vec<i64> = view.entries_for_phy(Phy::Bg).map(|e| e.snr_key).collect();
    assert!(keys.contains(&i64::MAX) && keys.contains(&i64::MIN));
    check(&ds).unwrap();
}

#[test]
fn count_and_ewma_ties_go_to_the_lower_rate() {
    // On link 0→1, at one key, optima alternate between 12 and 6 Mbit/s,
    // so the counts tie after every second set.
    let counts = (0..10).map(|t| {
        let (six, twelve) = if t % 2 == 0 { (4, 0) } else { (0, 4) };
        set(t, &[(1, six, 2), (3, twelve, 2), (4, 4, 2)])
    });
    // On link 1→0, 6 Mbit/s at no loss and 12 at half loss both carry
    // 6.0 Mbit/s, so their EWMAs tie; then 12 turns clean, and only the
    // lower-rate pick scores 6 rather than 12.
    let ewma = (0..8).map(|t| {
        let twelve = if t < 6 { 2 } else { 0 };
        let mut s = set(t, &[(1, 0, 3), (3, twelve, 3), (5, 4, 3)]);
        s.2 = (1, 0);
        s
    });
    check(&dataset(&counts.chain(ewma).collect::<Vec<_>>())).unwrap();
}

#[test]
fn all_rates_ascend_in_rate_order() {
    for phy in [Phy::Bg, Phy::Ht] {
        let rates = phy.all_rates();
        assert!(rates.windows(2).all(|w| w[0] < w[1]), "{phy}");
        for (k, r) in rates.iter().enumerate() {
            assert_eq!(r.index(), k, "{phy} {r}");
        }
    }
}
