//! The Fig 3.1 sigma kernels against the grouping they replaced.
//!
//! The reference below groups probe sets the way the kernels did before
//! they walked the index: every probe set pushed through a `BTreeMap` keyed
//! by network, then by `(sender, receiver)` across both PHYs, in dataset
//! order. The kernels must reproduce all four spreads bit for bit on
//! datasets built to stress the index walk: a link heard on both PHYs at
//! interleaved times, reports out of time order, single-report links,
//! `±0.0` SNRs, networks out of id order — at one thread and fanned out.

use std::collections::BTreeMap;

use mesh11::trace::snrstats::{sigmas, SigmaKind};
use mesh11::trace::{ApId, Dataset, DatasetIndex, DatasetView, NetworkId};
use proptest::prelude::*;

mod common;
use common::{dataset, specs, with_threads, ProbeSpec};

/// Probe positions grouped by network, in `NetworkId` order; dataset
/// order within a group.
fn probes_by_network(ds: &Dataset) -> Vec<Vec<usize>> {
    let mut m: BTreeMap<NetworkId, Vec<usize>> = BTreeMap::new();
    for (i, p) in ds.probes.iter().enumerate() {
        m.entry(p.network).or_default().push(i);
    }
    m.into_values().collect()
}

/// Each network's links, in `(sender, receiver)` order, as
/// `(time, probe-set SNR)` series in dataset order.
fn links_by_network(ds: &Dataset) -> Vec<Vec<Vec<(f64, f64)>>> {
    probes_by_network(ds)
        .into_iter()
        .map(|idxs| {
            let mut per_link: BTreeMap<(ApId, ApId), Vec<(f64, f64)>> = BTreeMap::new();
            for i in idxs {
                let p = ds.probes.get(i);
                per_link
                    .entry((p.sender, p.receiver))
                    .or_default()
                    .push((p.time_s, p.snr_db()));
            }
            per_link.into_values().collect()
        })
        .collect()
}

fn snrs(series: &[(f64, f64)]) -> Vec<f64> {
    series.iter().map(|p| p.1).collect()
}

/// One spread as the `BTreeMap` grouping computes it.
fn reference(ds: &Dataset, kind: SigmaKind) -> Vec<f64> {
    match kind {
        SigmaKind::ProbeSet => ds.probes.iter().map(|p| p.snr_stddev()).collect(),
        SigmaKind::Link => links_by_network(ds)
            .into_iter()
            .flatten()
            .filter_map(|series| mesh11::stats::stddev(&snrs(&series)))
            .collect(),
        SigmaKind::RecentK(k) => links_by_network(ds)
            .into_iter()
            .flatten()
            .flat_map(|mut series| {
                series.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite times"));
                let snrs = snrs(&series);
                snrs.windows(k)
                    .filter_map(mesh11::stats::stddev)
                    .collect::<Vec<_>>()
            })
            .collect(),
        SigmaKind::Network => probes_by_network(ds)
            .into_iter()
            .filter_map(|idxs| {
                let snrs: Vec<f64> = idxs.iter().map(|&i| ds.probes.get(i).snr_db()).collect();
                mesh11::stats::stddev(&snrs)
            })
            .collect(),
    }
}

const KINDS: [SigmaKind; 5] = [
    SigmaKind::ProbeSet,
    SigmaKind::Link,
    SigmaKind::RecentK(2),
    SigmaKind::RecentK(3),
    SigmaKind::Network,
];

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// Every kind, at one thread and fanned out, against the reference.
fn check(ds: &Dataset) -> Result<(), TestCaseError> {
    for kind in KINDS {
        let want = bits(&reference(ds, kind));
        for threads in [1, 3] {
            let got = with_threads(threads, || {
                let ix = DatasetIndex::build(ds);
                sigmas(DatasetView::new(ds, &ix), kind)
            });
            prop_assert_eq!(&bits(&got), &want, "{:?} at {} threads", kind, threads);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn sigma_kernels_match_btreemap_reference(specs in specs(120)) {
        check(&dataset(&specs))?;
    }
}

/// A probe set on `link` of network `net` at time step `t`, its SNRs by
/// index into the shared pool.
fn set(net: usize, ht: bool, link: (usize, usize), t: u32, snrs: &[usize]) -> ProbeSpec {
    let obs = snrs.iter().enumerate().map(|(k, &s)| (k, 0, s)).collect();
    (net, ht, link, t, obs)
}

#[test]
fn link_heard_on_both_phys_at_interleaved_times() {
    let ds = dataset(&[
        set(1, false, (0, 1), 0, &[2]),
        set(1, true, (0, 1), 1, &[6]),
        set(1, false, (0, 1), 2, &[3, 4]),
        set(1, true, (0, 1), 3, &[5]),
        set(1, false, (1, 0), 1, &[2]),
        set(1, true, (1, 0), 0, &[4]),
    ]);
    check(&ds).unwrap();
    // One link per direction across both PHYs, not one per PHY.
    assert_eq!(reference(&ds, SigmaKind::Link).len(), 2);
}

#[test]
fn link_reported_out_of_time_order() {
    let ds = dataset(&[
        set(0, false, (0, 1), 3, &[2]),
        set(0, false, (0, 1), 1, &[6]),
        set(0, true, (0, 1), 2, &[4]),
        set(0, false, (0, 1), 0, &[3]),
        set(0, false, (0, 1), 1, &[5]),
    ]);
    check(&ds).unwrap();
}

#[test]
fn single_report_links() {
    let ds = dataset(&[
        set(4, false, (0, 1), 0, &[2]),
        set(4, true, (1, 0), 1, &[6]),
        set(2, false, (3, 2), 0, &[4]),
        set(0, true, (0, 3), 2, &[5]),
    ]);
    check(&ds).unwrap();
    assert!(reference(&ds, SigmaKind::Link).is_empty());
}

#[test]
fn signed_zero_snrs() {
    let ds = dataset(&[
        set(3, false, (2, 3), 0, &[1]),
        set(3, false, (2, 3), 1, &[0]),
        set(3, true, (2, 3), 2, &[1, 1]),
        set(3, false, (2, 3), 3, &[0, 1, 1]),
        set(3, false, (3, 2), 0, &[1]),
        set(3, false, (3, 2), 1, &[1]),
    ]);
    check(&ds).unwrap();
}

#[test]
fn empty_dataset_has_no_spreads() {
    let ds = Dataset::default();
    check(&ds).unwrap();
    assert!(KINDS.iter().all(|&k| reference(&ds, k).is_empty()));
}
