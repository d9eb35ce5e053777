//! §6.2–6.3 — bit-rate-dependent range.
//!
//! "Range" of a network at rate `b` := the number of unordered AP pairs that
//! hear each other at `b`. Because absolute range scales with network size,
//! Fig 6.2 plots each network's ratio to its own 1 Mbit/s range; §6.3's
//! environment comparison uses `range / size²` instead.

use std::collections::BTreeMap;

use mesh11_phy::{BitRate, Phy};
use mesh11_trace::fold::{meta_units, Unit};
use mesh11_trace::{Dataset, DatasetView, EnvLabel, FoldKernel, NetworkId};

use crate::triples::hearing::{HearRule, HearingGraph};

/// Per-network range (hearing-pair count) at every probed rate.
pub fn range_by_rate(
    view: DatasetView<'_>,
    phy: Phy,
    threshold: f64,
    rule: HearRule,
) -> BTreeMap<(NetworkId, BitRate), usize> {
    mesh11_trace::run_fold(
        view,
        &RangeKernel {
            phy,
            threshold,
            rule,
        },
    )
}

/// The fold-style form of [`range_by_rate`]: per-(network, rate) keys are
/// disjoint across the folded views and across networks, so the
/// self-ordering map is insertion-order independent.
#[derive(Debug, Clone, Copy)]
pub struct RangeKernel {
    /// PHY analyzed.
    pub phy: Phy,
    /// Threshold on the hearing statistic.
    pub threshold: f64,
    /// Hearing rule used.
    pub rule: HearRule,
}

impl FoldKernel for RangeKernel {
    type Partial = BTreeMap<(NetworkId, BitRate), usize>;
    type Piece = Vec<((NetworkId, BitRate), usize)>;
    type Output = BTreeMap<(NetworkId, BitRate), usize>;

    fn init(&self) -> Self::Partial {
        BTreeMap::new()
    }

    fn units<'a>(&'a self, view: DatasetView<'a>) -> Vec<Unit<'a, Self::Piece>> {
        meta_units(
            view,
            |m| m.radios.contains(&self.phy) && m.n_aps >= 2,
            move |meta| {
                let phy = self.phy;
                view.delivery_stack(phy, meta.id)
                    .iter()
                    .map(|m| {
                        let g = HearingGraph::build(m, self.threshold, self.rule);
                        ((meta.id, m.rate), g.edge_count())
                    })
                    .collect()
            },
        )
    }

    fn merge(&self, out: &mut Self::Partial, rows: Self::Piece) {
        out.extend(rows);
    }

    fn finish(&self, out: Self::Partial) -> Self::Output {
        out
    }
}

/// Fig 6.2's sample: per rate, each network's `range(rate) / range(base)`,
/// where base is the PHY's most robust rate (1 Mbit/s for b/g). Networks
/// with zero base range are excluded (the ratio is undefined).
pub fn range_change_by_rate(
    ranges: &BTreeMap<(NetworkId, BitRate), usize>,
    phy: Phy,
) -> BTreeMap<BitRate, Vec<f64>> {
    let base_rate = phy.probed_rates()[0];
    let mut out: BTreeMap<BitRate, Vec<f64>> = BTreeMap::new();
    // Collect base ranges per network first.
    let bases: BTreeMap<NetworkId, usize> = ranges
        .iter()
        .filter(|((_, r), _)| *r == base_rate)
        .map(|((n, _), &v)| (*n, v))
        .collect();
    for ((net, rate), &v) in ranges {
        let Some(&base) = bases.get(net) else {
            continue;
        };
        if base == 0 {
            continue;
        }
        out.entry(*rate).or_default().push(v as f64 / base as f64);
    }
    out
}

/// §6.3's density-normalized range, `range / size²`, per environment at one
/// rate. Returns `(env, values)` for the two pure environments.
pub fn normalized_range_by_env(
    ds: &Dataset,
    ranges: &BTreeMap<(NetworkId, BitRate), usize>,
    rate: BitRate,
) -> BTreeMap<EnvLabel, Vec<f64>> {
    let mut out: BTreeMap<EnvLabel, Vec<f64>> = BTreeMap::new();
    for ((net, r), &v) in ranges {
        if *r != rate {
            continue;
        }
        let Some(meta) = ds.meta(*net) else { continue };
        if !meta.env.is_pure() || meta.n_aps == 0 {
            continue;
        }
        out.entry(meta.env)
            .or_default()
            .push(v as f64 / (meta.n_aps * meta.n_aps) as f64);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mesh11_trace::{ApId, DatasetIndex, NetworkMeta, Probe, ProbeTable, RateObs};

    fn r(mbps: f64) -> BitRate {
        BitRate::bg_mbps(mbps).unwrap()
    }

    fn ranges_over(ds: &Dataset) -> BTreeMap<(NetworkId, BitRate), usize> {
        let ix = DatasetIndex::build(ds);
        range_by_rate(DatasetView::new(ds, &ix), Phy::Bg, 0.10, HearRule::Mean)
    }

    /// A dataset where AP0–AP1 hear each other at 1 and 11 Mbit/s but only
    /// marginally at 48.
    fn tiny_ds() -> Dataset {
        let link = |s: u32, rx: u32, rate: BitRate, loss: f64| -> ProbeTable {
            [Probe {
                network: NetworkId(0),
                phy: Phy::Bg,
                time_s: 300.0,
                sender: ApId(s),
                receiver: ApId(rx),
                obs: &[RateObs {
                    rate,
                    loss,
                    snr_db: 15.0,
                }],
            }]
            .into_iter()
            .collect()
        };
        let probe = |rate, loss| link(0, 1, rate, loss);
        let rev = |rate, loss| link(1, 0, rate, loss);
        Dataset {
            networks: vec![NetworkMeta {
                id: NetworkId(0),
                env: EnvLabel::Indoor,
                n_aps: 2,
                radios: vec![Phy::Bg],
                location: String::new(),
            }],
            probes: [
                probe(r(1.0), 0.0),
                rev(r(1.0), 0.0),
                probe(r(11.0), 0.2),
                rev(r(11.0), 0.2),
                probe(r(48.0), 0.95),
                rev(r(48.0), 0.95),
            ]
            .iter()
            .flatten()
            .collect(),
            clients: vec![],
            probe_horizon_s: 600.0,
            client_horizon_s: 0.0,
        }
    }

    #[test]
    fn ranges_reflect_thresholded_hearing() {
        let ds = tiny_ds();
        let ranges = ranges_over(&ds);
        assert_eq!(ranges[&(NetworkId(0), r(1.0))], 1);
        assert_eq!(ranges[&(NetworkId(0), r(11.0))], 1);
        // 5% delivery misses the 10% threshold.
        assert_eq!(ranges[&(NetworkId(0), r(48.0))], 0);
        // Rates never probed successfully have zero range.
        assert_eq!(ranges[&(NetworkId(0), r(24.0))], 0);
    }

    #[test]
    fn change_normalizes_to_base() {
        let ds = tiny_ds();
        let ranges = ranges_over(&ds);
        let change = range_change_by_rate(&ranges, Phy::Bg);
        assert_eq!(change[&r(1.0)], vec![1.0], "base normalizes to itself");
        assert_eq!(change[&r(11.0)], vec![1.0]);
        assert_eq!(change[&r(48.0)], vec![0.0]);
    }

    #[test]
    fn env_normalized_range() {
        let ds = tiny_ds();
        let ranges = ranges_over(&ds);
        let by_env = normalized_range_by_env(&ds, &ranges, r(1.0));
        assert_eq!(by_env[&EnvLabel::Indoor], vec![0.25]); // 1 pair / 2²
        assert!(!by_env.contains_key(&EnvLabel::Outdoor));
    }
}
