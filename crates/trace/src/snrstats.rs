//! Dataset-level SNR variability statistics (paper Fig 3.1).
//!
//! Three spreads, each a CDF in the paper:
//!
//! * **within a probe set** — the σ of the per-rate most-recent SNRs of one
//!   report (< 5 dB ≥ 97.5% of the time in the paper; justifies using the
//!   median as "the SNR of the probe set");
//! * **per link** — the σ of a directed link's probe-set SNRs over time;
//! * **per network** — the σ over every probe-set SNR in a network (large:
//!   each network spans a diverse range of link qualities).
//!
//! A link here is `(network, sender, receiver)` across both PHYs, and a
//! network spans both PHYs. The index groups each PHY on its own, so the
//! kernels pair a network's (and a link's) b/g and HT groups by id and
//! merge their position runs, which restores dataset order across the
//! two.

use std::cmp::Ordering;

use mesh11_phy::Phy;

use crate::fold::{unit, Unit};
use crate::index::{DatasetView, NetworkView};

/// Splits `0..n` into contiguous ranges for parallel walks whose outputs
/// concatenate back in index order.
fn split_ranges(n: usize) -> Vec<std::ops::Range<usize>> {
    let step = n.div_ceil(rayon::current_num_threads().max(1) * 4).max(1);
    (0..n).step_by(step).map(|s| s..(s + step).min(n)).collect()
}

/// Which of the Fig 3.1 spreads a [`SigmaKernel`] extracts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SigmaKind {
    /// σ within each probe set.
    ProbeSet,
    /// σ of each link's probe-set SNRs over time.
    Link,
    /// σ of each length-`k` run of a link's most recent SNRs.
    RecentK(usize),
    /// σ over every probe-set SNR of a network.
    Network,
}

/// The fold-style form of the Fig 3.1 sigma extraction. The within-set
/// spread lists probe sets in dataset order; the others list networks in
/// id order and, within a network, links in `(sender, receiver)` order.
/// Folded views are consecutive network runs, so per-view outputs
/// concatenate to exactly the whole-dataset output.
///
/// * `Link`: one σ per link with at least two reports, over its SNRs in
///   dataset order.
/// * `RecentK(k)`: one σ per length-`k` window of each link's SNRs in
///   report-time order (a stable sort, so equal times keep dataset
///   order). Panics unless `k >= 2`, and on a NaN report time.
/// * `Network`: one σ per network with at least two probe sets, over its
///   SNRs in dataset order.
#[derive(Debug, Clone, Copy)]
pub struct SigmaKernel(pub SigmaKind);

impl crate::fold::FoldKernel for SigmaKernel {
    type Partial = Vec<f64>;
    type Piece = Vec<f64>;
    type Output = Vec<f64>;
    const COLUMNS: bool = true;

    fn init(&self) -> Vec<f64> {
        if let SigmaKind::RecentK(k) = self.0 {
            assert!(k >= 2, "a spread needs at least two values");
        }
        Vec::new()
    }

    /// Ranges of probe sets for the within-set spread, else one network's
    /// b/g and HT groups each.
    fn units<'a>(&'a self, view: DatasetView<'a>) -> Vec<Unit<'a, Vec<f64>>> {
        let probes = &view.dataset().probes;
        if self.0 == SigmaKind::ProbeSet {
            let ranges = split_ranges(probes.len()).into_iter();
            return ranges
                .map(|r| {
                    let net = probes.get(r.start).network;
                    unit(net, move || {
                        r.clone().map(|i| probes.get(i).snr_stddev()).collect()
                    })
                })
                .collect();
        }
        let [bg, ht] = [Phy::Bg, Phy::Ht].map(|phy| view.network_views(phy));
        let nets = pair_up(bg, ht, |nv| nv.network());
        nets.map(|net| {
            let nv = net.iter().flatten().next().expect("a pair has a side");
            unit(nv.network(), move || self.spread(view, net))
        })
        .collect()
    }

    fn merge(&self, partial: &mut Vec<f64>, piece: Vec<f64>) {
        partial.extend(piece);
    }

    fn finish(&self, partial: Vec<f64>) -> Vec<f64> {
        partial
    }
}

impl SigmaKernel {
    /// One network's spreads, for every kind but the within-set one.
    fn spread(&self, view: DatasetView<'_>, net: NetPair<'_>) -> Vec<f64> {
        let ds = view.dataset();
        let cols = view.columns();
        let snrs_at = |run: &[u32], out: &mut Vec<f64>| {
            out.clear();
            out.extend(run.iter().map(|&i| cols.snr_db(i as usize)));
        };
        let (mut out, mut snrs) = (Vec::new(), Vec::new());
        match self.0 {
            SigmaKind::Link => for_each_link(net, |run| {
                snrs_at(run, &mut snrs);
                out.extend(mesh11_stats::stddev(&snrs));
            }),
            SigmaKind::RecentK(k) => {
                let mut series: Vec<(f64, f64)> = Vec::new();
                for_each_link(net, |run| {
                    series.clear();
                    series.extend(
                        run.iter()
                            .map(|&i| (ds.probes.get(i as usize).time_s, cols.snr_db(i as usize))),
                    );
                    series.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite times"));
                    snrs.clear();
                    snrs.extend(series.iter().map(|p| p.1));
                    out.extend(snrs.windows(k).filter_map(mesh11_stats::stddev));
                });
            }
            SigmaKind::Network | SigmaKind::ProbeSet => {
                let runs = net.map(|nv| nv.map_or(&[][..], |nv| nv.phy_run()));
                let mut buf = Vec::new();
                snrs_at(merged(runs, &mut buf), &mut snrs);
                out.extend(mesh11_stats::stddev(&snrs));
            }
        }
        out
    }
}

/// One Fig 3.1 spread over a whole view ([`SigmaKernel`] in one fold).
pub fn sigmas(view: DatasetView<'_>, kind: SigmaKind) -> Vec<f64> {
    crate::fold::run_fold(view, &SigmaKernel(kind))
}

/// One network's b/g and HT groups; either is `None` when the network has
/// no probe sets of that PHY.
type NetPair<'a> = [Option<NetworkView<'a>>; 2];

/// Calls `f` with each directed link of a network, in `(sender,
/// receiver)` order, as its probe positions across both PHYs in dataset
/// order.
fn for_each_link(net: NetPair<'_>, mut f: impl FnMut(&[u32])) {
    let [bg, ht] = net.map(|nv| nv.into_iter().flat_map(|nv| nv.links()));
    let mut buf = Vec::new();
    for link in pair_up(bg, ht, |l| (l.sender(), l.receiver())) {
        let runs = link.map(|l| l.map_or(&[][..], |l| l.positions()));
        f(merged(runs, &mut buf));
    }
}

/// Pairs up the items of two sequences ascending in `key`: one pair per
/// distinct key, in key order, each side `None` where its sequence lacks
/// the key.
fn pair_up<T, K: Ord>(
    a: impl IntoIterator<Item = T>,
    b: impl IntoIterator<Item = T>,
    key: impl Fn(&T) -> K,
) -> impl Iterator<Item = [Option<T>; 2]> {
    let (mut a, mut b) = (a.into_iter().peekable(), b.into_iter().peekable());
    std::iter::from_fn(move || {
        let order = match (a.peek(), b.peek()) {
            (None, None) => return None,
            (Some(_), None) => Ordering::Less,
            (None, Some(_)) => Ordering::Greater,
            (Some(x), Some(y)) => key(x).cmp(&key(y)),
        };
        let a = if order.is_le() { a.next() } else { None };
        let b = if order.is_ge() { b.next() } else { None };
        Some([a, b])
    })
}

/// The union of two ascending runs of distinct positions, ascending. It
/// borrows the non-empty run when the other is empty, else merges into
/// `buf`.
fn merged<'a>(runs: [&'a [u32]; 2], buf: &'a mut Vec<u32>) -> &'a [u32] {
    match runs {
        [run, []] | [[], run] => run,
        [mut a, mut b] => {
            buf.clear();
            while let (Some(&x), Some(&y)) = (a.first(), b.first()) {
                if x < y {
                    buf.push(x);
                    a = &a[1..];
                } else {
                    buf.push(y);
                    b = &b[1..];
                }
            }
            buf.extend_from_slice(a);
            buf.extend_from_slice(b);
            buf
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Dataset;
    use crate::ids::{ApId, EnvLabel, NetworkId};
    use crate::index::DatasetIndex;
    use crate::probe::{Probe, ProbeTable, RateObs};
    use mesh11_phy::{BitRate, Phy};

    /// A network-0 dataset with one probe set per `(sender, receiver,
    /// per-rate SNRs)` row.
    fn ds(sets: &[(u32, u32, &[f64])]) -> Dataset {
        let mut probes = ProbeTable::new();
        for &(s, r, snrs) in sets {
            let obs: Vec<RateObs> = snrs
                .iter()
                .map(|&snr| RateObs {
                    rate: BitRate::bg_mbps(1.0).unwrap(),
                    loss: 0.0,
                    snr_db: snr,
                })
                .collect();
            probes.push(Probe {
                network: NetworkId(0),
                phy: Phy::Bg,
                time_s: 0.0,
                sender: ApId(s),
                receiver: ApId(r),
                obs: &obs,
            });
        }
        Dataset {
            networks: vec![crate::dataset::NetworkMeta {
                id: NetworkId(0),
                env: EnvLabel::Indoor,
                n_aps: 4,
                radios: vec![Phy::Bg],
                location: String::new(),
            }],
            probes,
            clients: vec![],
            probe_horizon_s: 0.0,
            client_horizon_s: 0.0,
        }
    }

    fn spread(d: &Dataset, kind: SigmaKind) -> Vec<f64> {
        let ix = DatasetIndex::build(d);
        sigmas(DatasetView::new(d, &ix), kind)
    }

    #[test]
    fn probe_set_sigma_values() {
        let d = ds(&[(0, 1, &[10.0, 14.0]), (0, 1, &[20.0])]);
        let sigmas = spread(&d, SigmaKind::ProbeSet);
        assert_eq!(sigmas, vec![2.0, 0.0]);
    }

    #[test]
    fn link_sigma_needs_two_reports() {
        // Link (0→1) has two reports at SNR 10 and 14; link (0→2) only one.
        let d = ds(&[(0, 1, &[10.0]), (0, 1, &[14.0]), (0, 2, &[30.0])]);
        let sigmas = spread(&d, SigmaKind::Link);
        assert_eq!(sigmas.len(), 1);
        assert!((sigmas[0] - (2.0f64 * 2.0f64 * 2.0).sqrt()).abs() < 1e-9); // sample σ of {10,14} = √8
    }

    #[test]
    fn network_sigma_spans_links() {
        let d = ds(&[(0, 1, &[10.0]), (2, 3, &[30.0])]);
        let sigmas = spread(&d, SigmaKind::Network);
        assert_eq!(sigmas.len(), 1);
        // Sample σ of {10, 30} = √200 ≈ 14.14.
        assert!((sigmas[0] - 200f64.sqrt()).abs() < 1e-9);
    }

    #[test]
    fn recent_k_windows() {
        // One link with SNRs 10, 14, 10 over three reports: two length-2
        // windows, each σ = √8.
        let d = ds(&[(0, 1, &[10.0]), (0, 1, &[14.0]), (0, 1, &[10.0])]);
        let sig = spread(&d, SigmaKind::RecentK(2));
        assert_eq!(sig.len(), 2);
        for s in sig {
            assert!((s - 8.0f64.sqrt()).abs() < 1e-9);
        }
        // k longer than the series yields nothing.
        assert!(spread(&d, SigmaKind::RecentK(5)).is_empty());
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn recent_k_rejects_k1() {
        spread(&ds(&[]), SigmaKind::RecentK(1));
    }

    #[test]
    fn network_spread_exceeds_link_spread() {
        // The qualitative ordering Fig 3.1 shows: networks vary more than
        // links, which vary more than single probe sets.
        let d = ds(&[
            (0, 1, &[10.0, 10.5]),
            (0, 1, &[11.0, 11.5]),
            (2, 3, &[38.0, 38.2]),
            (2, 3, &[39.0, 38.8]),
        ]);
        let set_max = spread(&d, SigmaKind::ProbeSet)
            .into_iter()
            .fold(0.0, f64::max);
        let link_max = spread(&d, SigmaKind::Link).into_iter().fold(0.0, f64::max);
        let net_max = spread(&d, SigmaKind::Network)
            .into_iter()
            .fold(0.0, f64::max);
        assert!(set_max < link_max && link_max < net_max);
    }
}
