//! `DatasetIndex::build` against a reference implementation.
//!
//! The reference below is the straightforward construction the index's
//! contract is written in, and the one the index was built with before it
//! counted instead of sorting: stable sorts of dataset positions by PHY, by
//! (phy, network) and by (phy, network, sender, receiver), runs of equal
//! keys as groups, and per-probe SNR median / SNR key / optimal rate
//! derived the allocating way (`mesh11_stats::median` over a collected
//! vector). The production build must reproduce every table, every
//! traversal order and every per-probe value bit for bit, on datasets
//! built to stress it: not network-major, PHYs interleaved, repeated
//! links, ids near `u32::MAX`, even observation counts (interpolated
//! medians), throughput ties and `±0.0` SNRs — at one thread and fanned
//! out.

use std::ops::Range;

use mesh11::phy::Phy;
use mesh11::trace::{
    ApId, Dataset, DatasetIndex, DatasetView, LinkRange, NetRange, NetworkId, Probe, RateObs,
};
use proptest::prelude::*;

mod common;
use common::{dataset, specs, with_threads, ProbeSpec, NET_IDS};

fn phy_slot(phy: Phy) -> usize {
    match phy {
        Phy::Bg => 0,
        Phy::Ht => 1,
    }
}

/// The index as the stable-sort construction defines it.
struct Reference {
    phy_order: Vec<u32>,
    phy_ranges: [Range<usize>; 2],
    net_order: Vec<u32>,
    link_order: Vec<u32>,
    links: Vec<LinkRange>,
    nets: Vec<NetRange>,
    snr_db: Vec<f64>,
    snr_key: Vec<i64>,
    opt: Vec<RateObs>,
}

impl Reference {
    fn build(ds: &Dataset) -> Self {
        let n = ds.probes.len();
        let snr_db: Vec<f64> = ds
            .probes
            .iter()
            .map(|p| {
                let snrs: Vec<f64> = p.obs.iter().map(|o| o.snr_db).collect();
                mesh11::stats::median(&snrs).expect("≥1 observation")
            })
            .collect();
        let snr_key = snr_db.iter().map(|s| s.round() as i64).collect();
        let opt = ds.probes.iter().map(|p| p.optimal()).collect();

        let mut phy_order: Vec<u32> = (0..n as u32).collect();
        phy_order.sort_by_key(|&i| phy_slot(ds.probes[i as usize].phy));
        let split = phy_order.partition_point(|&i| phy_slot(ds.probes[i as usize].phy) == 0);

        let mut net_order = phy_order.clone();
        net_order.sort_by_key(|&i| {
            let p = &ds.probes[i as usize];
            (phy_slot(p.phy), p.network.0)
        });

        let key = |i: u32| {
            let p = &ds.probes[i as usize];
            (phy_slot(p.phy), p.network.0, p.sender.0, p.receiver.0)
        };
        let mut link_order = phy_order.clone();
        link_order.sort_by_key(|&i| key(i));

        let mut links = Vec::new();
        let mut i = 0;
        while i < n {
            let k = key(link_order[i]);
            let start = i;
            while i < n && key(link_order[i]) == k {
                i += 1;
            }
            links.push(LinkRange {
                phy: if k.0 == 0 { Phy::Bg } else { Phy::Ht },
                network: NetworkId(k.1),
                sender: ApId(k.2),
                receiver: ApId(k.3),
                probes: start as u32..i as u32,
            });
        }
        let mut nets = Vec::new();
        let mut j = 0;
        while j < links.len() {
            let k = (links[j].phy, links[j].network);
            let start = j;
            while j < links.len() && (links[j].phy, links[j].network) == k {
                j += 1;
            }
            nets.push(NetRange {
                phy: k.0,
                network: k.1,
                links: start as u32..j as u32,
                probes: links[start].probes.start..links[j - 1].probes.end,
            });
        }

        Reference {
            phy_order,
            phy_ranges: [0..split, split..n],
            net_order,
            link_order,
            links,
            nets,
            snr_db,
            snr_key,
            opt,
        }
    }

    fn link_positions(&self, r: &Range<u32>) -> &[u32] {
        &self.link_order[r.start as usize..r.end as usize]
    }
}

/// The same probe set of the same table: equal headers and the very same
/// observation slice of the arena.
fn same_set(a: Probe<'_>, b: Probe<'_>) -> bool {
    a == b && std::ptr::eq(a.obs, b.obs)
}

fn positions(r: &[u32]) -> Vec<usize> {
    r.iter().map(|&p| p as usize).collect()
}

/// Every public surface of the built index, compared with the reference.
fn check(ds: &Dataset, ix: &DatasetIndex, want: &Reference) -> Result<(), TestCaseError> {
    prop_assert_eq!(ix.n_probes(), ds.probes.len());
    prop_assert_eq!(ix.link_range_table(), want.links.clone());
    prop_assert_eq!(ix.net_range_table(), want.nets.clone());
    prop_assert_eq!(ix.n_links(), want.links.len());
    prop_assert_eq!(ix.link_report_counts(), ds.link_report_counts());

    let v = DatasetView::new(ds, ix);
    for phy in [Phy::Bg, Phy::Ht] {
        let seg = want.phy_ranges[phy_slot(phy)].clone();
        let order = positions(&want.phy_order[seg.clone()]);
        let got: Vec<usize> = v.entries_for_phy(phy).map(|e| e.pos).collect();
        prop_assert_eq!(&got, &order, "{} phy order", phy);
        let same_probes = v
            .probes_for_phy(phy)
            .zip(&order)
            .all(|(p, &pos)| same_set(p, ds.probes.get(pos)));
        prop_assert!(same_probes, "{} probes_for_phy", phy);

        let want_links: Vec<&LinkRange> = want.links.iter().filter(|l| l.phy == phy).collect();
        let got_links: Vec<_> = v.links_for_phy(phy).collect();
        prop_assert_eq!(got_links.len(), want_links.len());
        for (l, w) in got_links.iter().zip(&want_links) {
            prop_assert_eq!(
                (l.network(), l.sender(), l.receiver()),
                (w.network, w.sender, w.receiver)
            );
            let got: Vec<usize> = l.entries().map(|e| e.pos).collect();
            prop_assert_eq!(got, positions(want.link_positions(&w.probes)));
        }

        let want_nets: Vec<&NetRange> = want.nets.iter().filter(|g| g.phy == phy).collect();
        let views = v.network_views(phy);
        prop_assert_eq!(views.len(), want_nets.len());
        let net_seg = &want.net_order[seg];
        let mut off = 0usize;
        for (nv, w) in views.iter().zip(&want_nets) {
            prop_assert_eq!(nv.network(), w.network);
            prop_assert_eq!(nv.n_reports(), w.probes.len());
            let link_ids: Vec<u32> = nv.links().map(|l| l.link_id()).collect();
            prop_assert_eq!(link_ids, w.links.clone().collect::<Vec<u32>>());
            let grouped: Vec<usize> = nv.entries().map(|e| e.pos).collect();
            prop_assert_eq!(grouped, positions(want.link_positions(&w.probes)));
            let run = positions(&net_seg[off..off + w.probes.len()]);
            off += w.probes.len();
            let in_order: Vec<usize> = nv.entries_in_order().map(|e| e.pos).collect();
            prop_assert_eq!(&in_order, &run, "net {} stream order", w.network.0);
            let single: Vec<usize> = v
                .network(phy, w.network)
                .expect("indexed network")
                .entries_in_order()
                .map(|e| e.pos)
                .collect();
            prop_assert_eq!(&single, &run);
            let same = nv
                .probes_in_order()
                .zip(&run)
                .all(|(p, &pos)| same_set(p, ds.probes.get(pos)));
            prop_assert!(same, "net {} probes_in_order", w.network.0);
        }
    }

    for pos in 0..ds.probes.len() {
        let e = v.entry(pos);
        let p = ds.probes.get(pos);
        prop_assert!(same_set(e.probe, p));
        prop_assert_eq!(e.time_s.to_bits(), p.time_s.to_bits());
        prop_assert_eq!(
            e.snr_db.to_bits(),
            want.snr_db[pos].to_bits(),
            "snr at {}",
            pos
        );
        prop_assert_eq!(e.snr_key, want.snr_key[pos]);
        let o = want.opt[pos];
        prop_assert_eq!(
            (e.opt.rate, e.opt.loss.to_bits(), e.opt.snr_db.to_bits()),
            (o.rate, o.loss.to_bits(), o.snr_db.to_bits()),
            "optimal at {}",
            pos
        );
    }
    Ok(())
}

fn build_at(threads: usize, ds: &Dataset) -> DatasetIndex {
    with_threads(threads, || DatasetIndex::build(ds))
}

/// Checks the build at one thread and fanned out against the reference.
fn check_all(ds: &Dataset) -> Result<(), TestCaseError> {
    let want = Reference::build(ds);
    for threads in [1, 3] {
        check(ds, &build_at(threads, ds), &want)?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn slim_build_matches_stable_sort_reference(specs in specs(160)) {
        check_all(&dataset(&specs))?;
    }
}

/// One b/g probe set on `link` of network `net` at time step `t` (indexes
/// into the id pools).
fn bg(net: usize, link: (usize, usize), t: u32) -> ProbeSpec {
    (net, false, link, t, vec![(0, 0, 2)])
}

#[test]
fn empty_and_single_set_datasets() {
    check_all(&Dataset::default()).unwrap();
    check_all(&dataset(&[bg(0, (0, 1), 0)])).unwrap();
    check_all(&dataset(&[(4, true, (3, 3), 3, vec![(9, 1, 5)])])).unwrap();
}

#[test]
fn one_phy_without_probes() {
    let specs: Vec<ProbeSpec> = vec![bg(1, (0, 1), 0), bg(0, (1, 0), 1), bg(1, (0, 1), 2)];
    check_all(&dataset(&specs)).unwrap();
    let ht: Vec<ProbeSpec> = specs
        .into_iter()
        .map(|(n, _, l, t, o)| (n, true, l, t, o))
        .collect();
    check_all(&dataset(&ht)).unwrap();
}

#[test]
fn one_network_spanning_the_ap_id_space() {
    // AP ids 0 and u32::MAX in both roles, on both PHYs.
    let specs: Vec<ProbeSpec> = vec![
        bg(2, (3, 0), 0),
        bg(2, (0, 3), 0),
        (2, true, (3, 0), 1, vec![(1, 2, 3)]),
        bg(2, (3, 3), 1),
        bg(2, (0, 0), 2),
        bg(2, (3, 0), 2),
    ];
    let ds = dataset(&specs);
    check_all(&ds).unwrap();
    let ix = DatasetIndex::build(&ds);
    let senders: Vec<u32> = ix.link_range_table().iter().map(|l| l.sender.0).collect();
    assert_eq!(senders, [0, 0, u32::MAX, u32::MAX, u32::MAX]);
}

#[test]
fn descending_networks_in_split_runs() {
    // Networks u32::MAX, u32::MAX - 1, 7, 3, 0 in descending runs, each
    // network split into runs that are not adjacent.
    let mut specs = Vec::new();
    for round in 0..2 {
        for net in (0..NET_IDS.len()).rev() {
            for t in 0..2 {
                specs.push(bg(net, (t as usize, 1 - t as usize), round * 2 + t));
            }
        }
    }
    let ds = dataset(&specs);
    check_all(&ds).unwrap();
    let ix = DatasetIndex::build(&ds);
    let nets: Vec<u32> = ix.net_range_table().iter().map(|g| g.network.0).collect();
    assert_eq!(nets, [0, 3, 7, u32::MAX - 1, u32::MAX]);
}

#[test]
fn signed_zero_medians_keep_their_sign() {
    // Odd count: the median is the middle element of the stable sort, so a
    // lone -0.0 between equal-comparing zeros must come back as written.
    let specs: Vec<ProbeSpec> = vec![
        (0, false, (0, 1), 0, vec![(0, 0, 1), (1, 0, 0), (2, 0, 1)]),
        (0, false, (0, 1), 1, vec![(0, 0, 0), (1, 0, 1), (2, 0, 0)]),
        (0, false, (0, 1), 2, vec![(0, 0, 1), (1, 0, 1)]),
    ];
    let ds = dataset(&specs);
    let want = Reference::build(&ds);
    let ix = DatasetIndex::build(&ds);
    check(&ds, &ix, &want).unwrap();
    assert!(want.snr_db.iter().any(|s| s.is_sign_negative()));
}
