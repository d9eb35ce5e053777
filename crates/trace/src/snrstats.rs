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

use std::collections::BTreeMap;

use rayon::prelude::*;

use crate::dataset::Dataset;
use crate::ids::{ApId, NetworkId};

/// The probe-set SNR (`Probe::snr_db`) of the set at a dataset position.
type SnrAt<'a> = dyn Fn(usize) -> f64 + Sync + 'a;

/// Splits `0..n` into contiguous ranges for parallel walks whose outputs
/// concatenate back in index order.
fn split_ranges(n: usize) -> Vec<std::ops::Range<usize>> {
    let step = n.div_ceil(rayon::current_num_threads().max(1) * 4).max(1);
    (0..n).step_by(step).map(|s| s..(s + step).min(n)).collect()
}

/// Groups probe indices by network, in `NetworkId` order; indices within a
/// group stay in dataset order. Per-network outputs concatenated in this
/// order rebuild exactly what a `BTreeMap` keyed with `NetworkId` leading
/// would flatten to.
fn probes_by_network(ds: &Dataset) -> Vec<Vec<u32>> {
    let mut m: BTreeMap<NetworkId, Vec<u32>> = BTreeMap::new();
    for (i, p) in ds.probes.rows().iter().enumerate() {
        m.entry(p.network).or_default().push(i as u32);
    }
    m.into_values().collect()
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

/// The fold-style form of the Fig 3.1 sigma extraction: every spread here
/// flattens a `BTreeMap` keyed with `NetworkId` leading, and folded views
/// are consecutive network runs, so per-view outputs concatenate to
/// exactly the whole-dataset output.
#[derive(Debug, Clone, Copy)]
pub struct SigmaKernel(pub SigmaKind);

impl crate::fold::FoldKernel for SigmaKernel {
    type Partial = Vec<f64>;
    type Output = Vec<f64>;

    fn init(&self) -> Vec<f64> {
        Vec::new()
    }

    fn fold(&self, view: crate::index::DatasetView<'_>, partial: &mut Vec<f64>) {
        let ds = view.dataset();
        // The per-set medians come from the view's shared SNR column.
        let medians = || {
            let cols = view.columns();
            move |i: usize| cols.snr_db(i)
        };
        partial.extend(match self.0 {
            SigmaKind::ProbeSet => probe_set_sigmas(ds),
            SigmaKind::Link => link_sigmas_by(ds, &medians()),
            SigmaKind::RecentK(k) => recent_k_sigmas_by(ds, k, &medians()),
            SigmaKind::Network => network_sigmas_by(ds, &medians()),
        });
    }

    fn finish(&self, partial: Vec<f64>) -> Vec<f64> {
        partial
    }
}

/// σ of SNR within each probe set (one value per probe set).
pub fn probe_set_sigmas(ds: &Dataset) -> Vec<f64> {
    let parts: Vec<Vec<f64>> = split_ranges(ds.probes.len())
        .par_iter()
        .map(|r| r.clone().map(|i| ds.probes.get(i).snr_stddev()).collect())
        .collect();
    parts.into_iter().flatten().collect()
}

/// σ of probe-set SNR over time, per directed link (links with at least two
/// reports).
pub fn link_sigmas(ds: &Dataset) -> Vec<f64> {
    link_sigmas_by(ds, &|i| ds.probes.get(i).snr_db())
}

fn link_sigmas_by(ds: &Dataset, snr: &SnrAt<'_>) -> Vec<f64> {
    let parts: Vec<Vec<f64>> = probes_by_network(ds)
        .par_iter()
        .map(|idxs| {
            let mut per_link: BTreeMap<(ApId, ApId), Vec<f64>> = BTreeMap::new();
            for &i in idxs {
                let p = &ds.probes[i as usize];
                per_link
                    .entry((p.sender, p.receiver))
                    .or_default()
                    .push(snr(i as usize));
            }
            per_link
                .values()
                .filter_map(|snrs| mesh11_stats::stddev(snrs))
                .collect()
        })
        .collect();
    parts.into_iter().flatten().collect()
}

/// σ of the `k` most recent probe-set SNRs per directed link — the paper's
/// unpictured §3.1.1 robustness note: "the standard deviation of the k most
/// recent SNR values on a link … comparable to the standard deviation
/// within a probe set for small values of k", which justifies using the
/// most recent SNR instead of an average.
///
/// One value per (link, window position): every length-`k` run of a link's
/// time-ordered reports contributes its σ.
pub fn recent_k_sigmas(ds: &Dataset, k: usize) -> Vec<f64> {
    recent_k_sigmas_by(ds, k, &|i| ds.probes.get(i).snr_db())
}

fn recent_k_sigmas_by(ds: &Dataset, k: usize, snr: &SnrAt<'_>) -> Vec<f64> {
    assert!(k >= 2, "a spread needs at least two values");
    let parts: Vec<Vec<f64>> = probes_by_network(ds)
        .par_iter()
        .map(|idxs| {
            let mut per_link: BTreeMap<(ApId, ApId), Vec<(f64, f64)>> = BTreeMap::new();
            for &i in idxs {
                let p = &ds.probes[i as usize];
                per_link
                    .entry((p.sender, p.receiver))
                    .or_default()
                    .push((p.time_s, snr(i as usize)));
            }
            let mut out = Vec::new();
            for series in per_link.values_mut() {
                series.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite times"));
                let snrs: Vec<f64> = series.iter().map(|p| p.1).collect();
                for w in snrs.windows(k) {
                    if let Some(sd) = mesh11_stats::stddev(w) {
                        out.push(sd);
                    }
                }
            }
            out
        })
        .collect();
    parts.into_iter().flatten().collect()
}

/// σ over all probe-set SNRs within each network (networks with at least two
/// probe sets).
pub fn network_sigmas(ds: &Dataset) -> Vec<f64> {
    network_sigmas_by(ds, &|i| ds.probes.get(i).snr_db())
}

fn network_sigmas_by(ds: &Dataset, snr: &SnrAt<'_>) -> Vec<f64> {
    let parts: Vec<Option<f64>> = probes_by_network(ds)
        .par_iter()
        .map(|idxs| {
            let snrs: Vec<f64> = idxs.iter().map(|&i| snr(i as usize)).collect();
            mesh11_stats::stddev(&snrs)
        })
        .collect();
    parts.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{ApId, EnvLabel, NetworkId};
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

    #[test]
    fn probe_set_sigma_values() {
        let d = ds(&[(0, 1, &[10.0, 14.0]), (0, 1, &[20.0])]);
        let sigmas = probe_set_sigmas(&d);
        assert_eq!(sigmas, vec![2.0, 0.0]);
    }

    #[test]
    fn link_sigma_needs_two_reports() {
        // Link (0→1) has two reports at SNR 10 and 14; link (0→2) only one.
        let d = ds(&[(0, 1, &[10.0]), (0, 1, &[14.0]), (0, 2, &[30.0])]);
        let sigmas = link_sigmas(&d);
        assert_eq!(sigmas.len(), 1);
        assert!((sigmas[0] - (2.0f64 * 2.0f64 * 2.0).sqrt()).abs() < 1e-9); // sample σ of {10,14} = √8
    }

    #[test]
    fn network_sigma_spans_links() {
        let d = ds(&[(0, 1, &[10.0]), (2, 3, &[30.0])]);
        let sigmas = network_sigmas(&d);
        assert_eq!(sigmas.len(), 1);
        // Sample σ of {10, 30} = √200 ≈ 14.14.
        assert!((sigmas[0] - 200f64.sqrt()).abs() < 1e-9);
    }

    #[test]
    fn recent_k_windows() {
        // One link with SNRs 10, 14, 10 over three reports: two length-2
        // windows, each σ = √8.
        let d = ds(&[(0, 1, &[10.0]), (0, 1, &[14.0]), (0, 1, &[10.0])]);
        let sig = recent_k_sigmas(&d, 2);
        assert_eq!(sig.len(), 2);
        for s in sig {
            assert!((s - 8.0f64.sqrt()).abs() < 1e-9);
        }
        // k longer than the series yields nothing.
        assert!(recent_k_sigmas(&d, 5).is_empty());
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn recent_k_rejects_k1() {
        recent_k_sigmas(&ds(&[]), 1);
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
        let set_max = probe_set_sigmas(&d).into_iter().fold(0.0, f64::max);
        let link_max = link_sigmas(&d).into_iter().fold(0.0, f64::max);
        let net_max = network_sigmas(&d).into_iter().fold(0.0, f64::max);
        assert!(set_max < link_max && link_max < net_max);
    }
}
