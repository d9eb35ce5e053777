//! §4.5 made concrete: rate-adaptation protocols replayed on probe traces.
//!
//! The paper's practical proposal is that an SNR-keyed table can either
//! replace probing outright (b/g) or shrink the probed set to the table's
//! top-k rates (802.11n). This module turns that into a measurable claim:
//! each [`AdapterKind`] walks a link's probe sets in time order, commits to
//! a rate *before* seeing the next set, and is scored by the throughput
//! that set actually offered at the chosen rate.
//!
//! Probing costs airtime. An adapter that must probe all `n` rates loses a
//! fraction of goodput that one probing `k ≪ n` rates does not; the
//! `overhead` parameter charges `overhead · probed/n` of the achieved
//! throughput, making the §4.5 trade-off explicit (the win grows with
//! 802.11n's 32-rate set, exactly as the paper argues).

use mesh11_phy::{BitRate, Phy};
use mesh11_trace::fold::{network_units, Unit};
use mesh11_trace::{DatasetView, FoldKernel, ProbeEntry};
use serde::{Deserialize, Serialize};

use super::{LinkRuns, OptimumCounts, RATE_COLUMNS};

/// A rate-adaptation policy.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum AdapterKind {
    /// Always transmit at one rate (baseline).
    Fixed(BitRate),
    /// Per-link SNR-keyed table (frequency counts, as the paper's "All"
    /// strategy); transmits the most frequent optimum for the current SNR
    /// and probes only the table's `top_k` rates.
    SnrTable {
        /// Rates probed per interval (the §4.5 "k best" set).
        top_k: usize,
    },
    /// SampleRate-style: EWMA of each rate's observed throughput, pick the
    /// best; must probe every rate to keep the EWMAs fresh.
    EwmaProbing {
        /// EWMA weight of the newest observation, in (0, 1].
        alpha: f64,
    },
    /// Clairvoyant upper bound: picks each set's optimal rate.
    Oracle,
}

impl AdapterKind {
    /// Display name.
    pub fn name(&self) -> String {
        match self {
            AdapterKind::Fixed(r) => format!("Fixed({r})"),
            AdapterKind::SnrTable { top_k } => format!("SnrTable(k={top_k})"),
            AdapterKind::EwmaProbing { .. } => "EwmaProbing".into(),
            AdapterKind::Oracle => "Oracle".into(),
        }
    }

    /// How many rates this adapter must probe per reporting interval.
    fn rates_probed(&self, n_rates: usize) -> usize {
        match self {
            AdapterKind::Fixed(_) => 0,
            AdapterKind::SnrTable { top_k } => (*top_k).min(n_rates),
            AdapterKind::EwmaProbing { .. } => n_rates,
            // The oracle is a bound, not a protocol; charge it nothing.
            AdapterKind::Oracle => 0,
        }
    }

    /// Whether `self` picks what `other` picks at every decision. The
    /// `SnrTable` kinds all do: `top_k` only sets the probing charge.
    fn decides_as(&self, other: &AdapterKind) -> bool {
        matches!(
            (self, other),
            (AdapterKind::SnrTable { .. }, AdapterKind::SnrTable { .. })
        ) || self == other
    }
}

/// `EwmaProbing`'s per-link state, flat: per rate column
/// ([`RATE_COLUMNS`]), the rate and its smoothed throughput once the link
/// has carried it.
struct Ewma([Option<(BitRate, f64)>; RATE_COLUMNS]);

impl Ewma {
    /// The rate with the highest average, the lower rate on a tie; `None`
    /// before the link has carried any.
    fn best(&self) -> Option<BitRate> {
        let mut best: Option<(BitRate, f64)> = None;
        for &(rate, v) in self.0.iter().flatten() {
            if best.is_none_or(|(b, bv)| v > bv || (v == bv && rate < b)) {
                best = Some((rate, v));
            }
        }
        best.map(|(rate, _)| rate)
    }

    /// Folds one probe set in: each observation updates its rate's
    /// average, in observation order, and rates the set did not carry
    /// decay toward zero.
    fn learn(&mut self, alpha: f64, set: &ProbeEntry) {
        let mut heard = 0u64;
        for o in set.probe.obs {
            let c = o.rate.index();
            let (_, v) = self.0[c].get_or_insert((o.rate, 0.0));
            *v = (1.0 - alpha) * *v + alpha * o.throughput_mbps();
            heard |= 1 << c;
        }
        for (c, cell) in self.0.iter_mut().enumerate() {
            match cell {
                Some((_, v)) if heard & (1 << c) == 0 => *v *= 1.0 - alpha,
                _ => {}
            }
        }
    }
}

/// Measured outcome of one adapter over a dataset.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AdaptationOutcome {
    /// The policy.
    pub kind: AdapterKind,
    /// Decisions scored (probe sets with at least one preceding set on the
    /// link).
    pub decisions: u64,
    /// Mean achieved throughput (Mbit/s), before probing overhead.
    pub mean_throughput_mbps: f64,
    /// Mean achieved throughput after the probing-airtime charge.
    pub net_throughput_mbps: f64,
    /// Achieved / oracle throughput, pooled (0–1], before overhead.
    pub fraction_of_oracle: f64,
}

/// Replays every adapter over every link of `phy`.
///
/// `overhead` is the goodput fraction consumed by probing *all* rates once
/// per interval; an adapter probing `k` of `n` rates is charged
/// `overhead · k/n`.
pub fn simulate_adapters(
    view: DatasetView<'_>,
    phy: Phy,
    kinds: &[AdapterKind],
    overhead: f64,
) -> Vec<AdaptationOutcome> {
    mesh11_trace::run_fold(
        view,
        &AdaptationKernel {
            phy,
            kinds: kinds.to_vec(),
            overhead,
        },
    )
}

/// The fold-style form of [`simulate_adapters`]. The per-kind throughput
/// sums are floating-point and order-sensitive; links live whole inside
/// network-aligned views and views preserve the sorted link order, so
/// threading one partial through the views in order accumulates each sum
/// in exactly the whole-dataset sequence.
///
/// Each network replays every kind on its own and records its decisions'
/// throughputs, which are then summed in network order, so every kind's
/// accumulation stays one continuous sequential sum. Kinds that decide
/// alike ([`AdapterKind::SnrTable`] at any `top_k`) share the first one's
/// replay.
///
/// # Panics
/// `init` panics unless `overhead` lies in `[0, 1)`.
#[derive(Debug, Clone)]
pub struct AdaptationKernel {
    /// PHY replayed.
    pub phy: Phy,
    /// Adapters evaluated, in output order.
    pub kinds: Vec<AdapterKind>,
    /// Goodput fraction consumed by probing all rates once per interval.
    pub overhead: f64,
}

impl FoldKernel for AdaptationKernel {
    type Partial = Vec<(u64, f64, f64)>;
    type Piece = (Vec<f64>, Vec<Vec<f64>>);
    type Output = Vec<AdaptationOutcome>;
    const COLUMNS: bool = true;

    fn init(&self) -> Self::Partial {
        assert!(
            (0.0..1.0).contains(&self.overhead),
            "overhead is a fraction"
        );
        self.kinds.iter().map(|_| (0u64, 0.0f64, 0.0f64)).collect()
    }

    /// Gathers the network's links once and replays every kind over them,
    /// recording each decision's achieved throughput per kind and the
    /// oracle's (the same for every kind), in replay order. A kind that
    /// shares an earlier kind's replay records nothing.
    fn units<'a>(&'a self, view: DatasetView<'a>) -> Vec<Unit<'a, Self::Piece>> {
        network_units(view, self.phy, move |nv| {
            let runs = LinkRuns::gather(nv.links());
            let oracle: Vec<f64> = runs
                .iter()
                .flat_map(|run| run.sets.iter().skip(1).map(|s| s.opt.throughput_mbps()))
                .collect();
            let achieved = self
                .replays()
                .into_iter()
                .zip(&self.kinds)
                .enumerate()
                .map(|(k, (replay, kind))| {
                    let mut got = Vec::new();
                    if replay == k {
                        got.reserve(oracle.len());
                        self.replay(kind, &runs, &mut got);
                    }
                    got
                })
                .collect();
            (oracle, achieved)
        })
    }

    /// The scores are floating-point sums, so their order is fixed:
    /// networks in id order, links in (sender, receiver) order (the order
    /// the pre-index BTreeMap grouping produced), decisions in time order.
    /// Each kind's sums keep accumulating *in place* across networks and
    /// views; re-associating them through per-network subtotals would
    /// perturb the float results.
    fn merge(&self, partial: &mut Self::Partial, (oracle, achieved): (Vec<f64>, Vec<Vec<f64>>)) {
        let replays = self.replays();
        for ((decisions, sum_thr, sum_oracle), replay) in partial.iter_mut().zip(replays) {
            let got = &achieved[replay];
            *decisions += got.len() as u64;
            for (g, o) in got.iter().zip(&oracle) {
                *sum_thr += g;
                *sum_oracle += o;
            }
        }
    }

    fn finish(&self, partial: Self::Partial) -> Vec<AdaptationOutcome> {
        let n_rates = self.phy.probed_rates().len();
        self.kinds
            .iter()
            .zip(partial)
            .map(|(kind, (decisions, sum_thr, sum_oracle))| {
                let mean = if decisions == 0 {
                    0.0
                } else {
                    sum_thr / decisions as f64
                };
                let charge = self.overhead * kind.rates_probed(n_rates) as f64 / n_rates as f64;
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
}

impl AdaptationKernel {
    /// Per kind, the first kind whose replay it shares.
    fn replays(&self) -> Vec<usize> {
        let kinds = &self.kinds;
        (0..kinds.len())
            .map(|k| {
                (0..k)
                    .find(|&j| kinds[j].decides_as(&kinds[k]))
                    .unwrap_or(k)
            })
            .collect()
    }

    /// Replays `kind` over every link, pushing each decision's achieved
    /// throughput: every set after a link's first is decided before it is
    /// seen, from what the link's earlier sets taught, and scored by what
    /// it offered at the chosen rate.
    fn replay(&self, kind: &AdapterKind, runs: &LinkRuns<'_>, got: &mut Vec<f64>) {
        let fallback = self.phy.probed_rates()[0];
        let mut table = OptimumCounts::default();
        for run in runs.iter() {
            if let AdapterKind::SnrTable { .. } = kind {
                table.reset(run.n_keys);
            }
            let mut ewma = Ewma([None; RATE_COLUMNS]);
            for (i, (set, &key)) in run.sets.iter().zip(run.keys).enumerate() {
                if i > 0 {
                    let pick = match kind {
                        AdapterKind::Fixed(r) => Some(*r),
                        AdapterKind::Oracle => Some(set.opt.rate),
                        // The table is keyed by the previous set's SNR,
                        // the SNR measured at decision time.
                        AdapterKind::SnrTable { .. } => table.best(run.keys[i - 1]),
                        AdapterKind::EwmaProbing { .. } => ewma.best(),
                    }
                    .unwrap_or(fallback);
                    got.push(set.probe.obs_for(pick).map_or(0.0, |o| o.throughput_mbps()));
                }
                match kind {
                    AdapterKind::SnrTable { .. } => table.count(key, set.opt.rate),
                    AdapterKind::EwmaProbing { alpha } => ewma.learn(*alpha, set),
                    AdapterKind::Fixed(_) | AdapterKind::Oracle => {}
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mesh11_trace::{ApId, Dataset, DatasetIndex, NetworkId, Probe, RateObs};

    fn r(mbps: f64) -> BitRate {
        BitRate::bg_mbps(mbps).unwrap()
    }

    fn adapters_over(ds: &Dataset, kinds: &[AdapterKind], overhead: f64) -> Vec<AdaptationOutcome> {
        let ix = DatasetIndex::build(ds);
        simulate_adapters(DatasetView::new(ds, &ix), Phy::Bg, kinds, overhead)
    }

    /// A link where 24 Mbit/s is always clean and 48 always lossy, at a
    /// stable SNR.
    fn stable_link(n_sets: usize) -> Dataset {
        let obs = [
            RateObs {
                rate: r(24.0),
                loss: 0.0,
                snr_db: 20.0,
            },
            RateObs {
                rate: r(48.0),
                loss: 0.9,
                snr_db: 20.0,
            },
        ];
        let probes = (0..n_sets)
            .map(|k| Probe {
                network: NetworkId(0),
                phy: Phy::Bg,
                time_s: k as f64 * 300.0,
                sender: ApId(0),
                receiver: ApId(1),
                obs: &obs,
            })
            .collect();
        Dataset {
            probes,
            ..Dataset::default()
        }
    }

    #[test]
    fn oracle_is_an_upper_bound() {
        let ds = stable_link(10);
        let kinds = [
            AdapterKind::Oracle,
            AdapterKind::SnrTable { top_k: 1 },
            AdapterKind::EwmaProbing { alpha: 0.3 },
            AdapterKind::Fixed(r(24.0)),
            AdapterKind::Fixed(r(48.0)),
        ];
        let out = adapters_over(&ds, &kinds, 0.0);
        let oracle = out[0].mean_throughput_mbps;
        for o in &out {
            assert!(
                o.mean_throughput_mbps <= oracle + 1e-9,
                "{} beat the oracle",
                o.kind.name()
            );
            assert!((0.0..=1.0 + 1e-9).contains(&o.fraction_of_oracle));
        }
        assert!((out[0].fraction_of_oracle - 1.0).abs() < 1e-12);
    }

    #[test]
    fn adapters_learn_stable_links_perfectly() {
        let ds = stable_link(20);
        let kinds = [
            AdapterKind::SnrTable { top_k: 1 },
            AdapterKind::EwmaProbing { alpha: 0.3 },
        ];
        for o in adapters_over(&ds, &kinds, 0.0) {
            assert!(
                o.fraction_of_oracle > 0.95,
                "{}: {}",
                o.kind.name(),
                o.fraction_of_oracle
            );
        }
    }

    #[test]
    fn overhead_penalizes_full_probing() {
        let ds = stable_link(20);
        let kinds = [
            AdapterKind::SnrTable { top_k: 2 },
            AdapterKind::EwmaProbing { alpha: 0.3 },
        ];
        let out = adapters_over(&ds, &kinds, 0.2);
        let table = &out[0];
        let probing = &out[1];
        // Similar raw throughput, but the table pays 2/7 of the overhead
        // and the prober pays all of it.
        assert!(table.net_throughput_mbps > probing.net_throughput_mbps);
        assert!(probing.net_throughput_mbps < probing.mean_throughput_mbps);
    }

    #[test]
    fn fixed_rate_matches_its_obs() {
        let ds = stable_link(5);
        let out = adapters_over(&ds, &[AdapterKind::Fixed(r(48.0))], 0.0);
        // 48 at 90% loss = 4.8 Mbit/s every decision.
        assert!((out[0].mean_throughput_mbps - 4.8).abs() < 1e-9);
        assert_eq!(out[0].decisions, 4);
    }

    #[test]
    fn unheard_pick_scores_zero() {
        // A table that learned 48 on another link... here, simply a fixed
        // adapter at a rate the link never carries.
        let ds = stable_link(5);
        let out = adapters_over(&ds, &[AdapterKind::Fixed(r(36.0))], 0.0);
        assert_eq!(out[0].mean_throughput_mbps, 0.0);
    }

    #[test]
    fn empty_dataset_is_graceful() {
        let ds = Dataset::default();
        let out = adapters_over(&ds, &[AdapterKind::Oracle], 0.1);
        assert_eq!(out[0].decisions, 0);
        assert_eq!(out[0].mean_throughput_mbps, 0.0);
    }

    /// The kernel itself rejects an overhead outside `[0, 1)`, so a fused
    /// pass that builds it directly is checked too.
    #[test]
    #[should_panic(expected = "overhead is a fraction")]
    fn kernel_rejects_overhead_outside_unit_interval() {
        let ds = stable_link(5);
        let ix = DatasetIndex::build(&ds);
        let kernel = AdaptationKernel {
            phy: Phy::Bg,
            kinds: vec![AdapterKind::Oracle],
            overhead: 1.5,
        };
        mesh11_trace::run_fold(DatasetView::new(&ds, &ix), &kernel);
    }
}
