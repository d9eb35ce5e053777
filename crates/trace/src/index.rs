//! Indexed, columnar views over a [`Dataset`].
//!
//! Every analysis in the paper (§4–§7) is a *grouped scan*: per-link probe
//! histories (rate adaptation), per-(network, rate) delivery matrices
//! (routing, hidden triples), per-PHY probe streams (lookup tables, SNR
//! correlation). The raw [`Dataset`] only offers linear filters, so each of
//! those scans re-walked the whole probe vector. A [`DatasetIndex`] is built
//! once and turns each grouped scan into a contiguous range walk:
//!
//! * **`phy_order`** — probe positions stably sorted by PHY. The slice for a
//!   PHY preserves *dataset order*, so iterating it is bit-for-bit the same
//!   as `Dataset::probes_for_phy` (order-sensitive consumers such as the SNR
//!   correlation sums rely on this).
//! * **`link_order`** — positions stably sorted by
//!   `(phy, network, sender, receiver)`. Each directed link is a contiguous
//!   range whose *within-group order is dataset order* (stable sort), which
//!   is what makes indexed delivery-matrix accumulation byte-identical to
//!   the old linear filters: every matrix cell is fed by exactly one link,
//!   in the same order as before.
//! * **link/network groups** — interned link ids ([`LinkView::link_id`]) and
//!   per-network link + probe ranges, so per-network analyses touch only
//!   their own probes.
//! * **per-probe side columns** — median SNR (and its integer key) and the
//!   optimal rate observation, the two derivations that cost a sort or a
//!   scan per probe. Lookup-table training and penalty scoring read these
//!   instead of re-deriving medians and optima per call. Everything else a
//!   kernel needs (report time, the per-rate observations) it reads from
//!   the probe set itself: copying it into columns would cost more per
//!   build than the walks it saves.
//!
//! The index is a pure function of the probe vector; it holds **positions**,
//! not copies, and must be rebuilt after any mutation of `Dataset::probes`
//! (see [`Dataset::merge`]). [`DatasetView`] bundles a dataset with its
//! index; analyses take a view by value (it is `Copy`).

use std::collections::BTreeMap;
use std::ops::Range;

use mesh11_phy::{BitRate, Phy};
use rayon::prelude::*;

use crate::dataset::{Dataset, NetworkMeta};
use crate::ids::{ApId, NetworkId};
use crate::matrix::DeliveryMatrix;
use crate::probe::{ProbeSet, RateObs};

/// Number of PHY families ([`Phy::Bg`], [`Phy::Ht`]).
const N_PHYS: usize = 2;

/// Dense slot of a PHY in the index's per-PHY range tables.
fn phy_slot(phy: Phy) -> usize {
    match phy {
        Phy::Bg => 0,
        Phy::Ht => 1,
    }
}

/// One directed link's contiguous range of `link_order`.
#[derive(Debug, Clone, PartialEq)]
struct LinkGroup {
    network: NetworkId,
    sender: ApId,
    receiver: ApId,
    /// Range into `DatasetIndex::link_order`.
    probes: Range<u32>,
}

/// One (PHY, network)'s contiguous ranges of links and probes.
#[derive(Debug, Clone, PartialEq)]
struct NetGroup {
    network: NetworkId,
    /// Range into `DatasetIndex::links`.
    links: Range<u32>,
    /// Range into `DatasetIndex::link_order`.
    probes: Range<u32>,
}

/// Precomputed grouping + per-probe side columns for one [`Dataset`].
///
/// Build with [`DatasetIndex::build`]; pair with the dataset via
/// [`DatasetView::new`]. The index refers to probes by position, so it is
/// invalidated by any mutation of `Dataset::probes` and must then be
/// rebuilt (building after mutation gives exactly the index of the mutated
/// dataset — there is no incremental state).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DatasetIndex {
    /// Probe count the index was built over (consistency check).
    n_probes: usize,
    /// Probe positions stably sorted by PHY; dataset order within a PHY.
    phy_order: Vec<u32>,
    /// Per-PHY range into `phy_order`, indexed by `phy_slot`.
    phy_ranges: [Range<u32>; N_PHYS],
    /// Probe positions stably sorted by (phy, network); dataset order
    /// within a group. Shares `phy_ranges` (same PHY split).
    net_order: Vec<u32>,
    /// Probe positions stably sorted by (phy, network, sender, receiver).
    link_order: Vec<u32>,
    /// Directed links, each a contiguous range of `link_order`, in
    /// (phy, network, sender, receiver) order.
    links: Vec<LinkGroup>,
    /// Per-PHY range into `links`.
    link_ranges: [Range<u32>; N_PHYS],
    /// Per-(phy, network) groups, in (phy, network) order.
    nets: Vec<NetGroup>,
    /// Per-PHY range into `nets`.
    net_ranges: [Range<u32>; N_PHYS],
    /// Per-probe median SNR (`ProbeSet::snr_db`), precomputed.
    snr_db: Vec<f64>,
    /// Per-probe integer SNR key (`ProbeSet::snr_key`), precomputed.
    snr_key: Vec<i64>,
    /// Per-probe optimal observation (`ProbeSet::optimal`), precomputed.
    opt: Vec<RateObs>,
}

/// A probe's link sort key: `(network, sender, receiver, position)` packed
/// big-endian into one integer, so integer order is tuple order. The
/// position makes every key unique, which is why an unstable sort of these
/// keys equals a stable sort of positions by `(network, sender, receiver)`.
fn link_key(p: &ProbeSet, pos: usize) -> u128 {
    (u128::from(p.network.0) << 96)
        | (u128::from(p.sender.0) << 64)
        | (u128::from(p.receiver.0) << 32)
        | pos as u128
}

/// The position a [`link_key`] was built from.
fn key_pos(key: u128) -> u32 {
    key as u32
}

/// The per-probe columns of one contiguous range of positions, plus the
/// range's link keys split by PHY (each bucket in dataset order).
#[derive(Default)]
struct Derived {
    snr_db: Vec<f64>,
    snr_key: Vec<i64>,
    opt: Vec<RateObs>,
    keys: [Vec<u128>; N_PHYS],
}

impl Derived {
    /// The fused per-probe pass over `probes[span]`.
    fn over(probes: &[ProbeSet], span: Range<usize>) -> Self {
        let mut d = Derived {
            snr_db: Vec::with_capacity(span.len()),
            snr_key: Vec::with_capacity(span.len()),
            opt: Vec::with_capacity(span.len()),
            keys: Default::default(),
        };
        for pos in span {
            let p = &probes[pos];
            let snr = p.snr_db();
            d.snr_db.push(snr);
            d.snr_key.push(snr.round() as i64);
            d.opt.push(p.optimal());
            d.keys[phy_slot(p.phy)].push(link_key(p, pos));
        }
        d
    }

    /// Appends the next range's results (ranges arrive in position order).
    fn append(&mut self, next: Derived) {
        self.snr_db.extend(next.snr_db);
        self.snr_key.extend(next.snr_key);
        self.opt.extend(next.opt);
        for (keys, more) in self.keys.iter_mut().zip(next.keys) {
            keys.extend(more);
        }
    }
}

impl DatasetIndex {
    /// Builds the index over `ds.probes`: one fused per-probe pass
    /// (parallel over contiguous position ranges), then per PHY one
    /// unstable sort of unique integer keys. `O(n log n)` in the probe
    /// count.
    pub fn build(ds: &Dataset) -> Self {
        let n = ds.probes.len();
        assert!(n < u32::MAX as usize, "dataset too large to index");

        let parts = rayon::current_num_threads().clamp(1, n.max(1));
        let spans: Vec<Range<usize>> = (0..parts)
            .map(|k| k * n / parts..(k + 1) * n / parts)
            .collect();
        let mut derived = spans
            .par_iter()
            .map(|span| Derived::over(&ds.probes, span.clone()))
            .collect::<Vec<_>>()
            .into_iter()
            .reduce(|mut acc, next| {
                acc.append(next);
                acc
            })
            .unwrap_or_default();

        let mut ix = Self {
            n_probes: n,
            snr_db: derived.snr_db,
            snr_key: derived.snr_key,
            opt: derived.opt,
            ..Self::default()
        };
        for (slot, keys) in derived.keys.iter_mut().enumerate() {
            ix.push_phy(slot, keys);
        }
        ix
    }

    /// Appends one PHY's orders and groups, given its link keys in dataset
    /// order. PHY slots are pushed in ascending order, so every range this
    /// writes starts where the previous PHY's ended.
    fn push_phy(&mut self, slot: usize, keys: &mut [u128]) {
        let base = self.phy_order.len() as u32;
        let end = base + keys.len() as u32;
        self.phy_order.extend(keys.iter().map(|&k| key_pos(k)));
        self.phy_ranges[slot] = base..end;

        // (network, position) keys: dataset order within each network.
        // Equal to the PHY's slice of `phy_order` when the dataset is
        // network-major (every campaign and window dataset is), which is
        // what makes per-network parallel folds concatenate back to the
        // global per-PHY walk byte-identically.
        let mut net_keys: Vec<u64> = keys
            .iter()
            .map(|&k| ((k >> 96) as u64) << 32 | u64::from(key_pos(k)))
            .collect();
        net_keys.sort_unstable();
        self.net_order.extend(net_keys.iter().map(|&k| k as u32));

        // Links: runs of equal (network, sender, receiver) in key order,
        // dataset order within each run.
        keys.sort_unstable();
        let first_link = self.links.len();
        for (i, &k) in keys.iter().enumerate() {
            let at = base + i as u32;
            self.link_order.push(key_pos(k));
            let (network, sender, receiver) = (
                NetworkId((k >> 96) as u32),
                ApId((k >> 64) as u32),
                ApId((k >> 32) as u32),
            );
            match self.links[first_link..].last_mut() {
                Some(g) if (g.network, g.sender, g.receiver) == (network, sender, receiver) => {
                    g.probes.end = at + 1;
                }
                _ => self.links.push(LinkGroup {
                    network,
                    sender,
                    receiver,
                    probes: at..at + 1,
                }),
            }
        }
        self.link_ranges[slot] = first_link as u32..self.links.len() as u32;

        let first_net = self.nets.len();
        for (j, g) in self.links.iter().enumerate().skip(first_link) {
            match self.nets[first_net..].last_mut() {
                Some(ng) if ng.network == g.network => {
                    ng.links.end = j as u32 + 1;
                    ng.probes.end = g.probes.end;
                }
                _ => self.nets.push(NetGroup {
                    network: g.network,
                    links: j as u32..j as u32 + 1,
                    probes: g.probes.clone(),
                }),
            }
        }
        self.net_ranges[slot] = first_net as u32..self.nets.len() as u32;
    }

    /// Probe count the index covers.
    pub fn n_probes(&self) -> usize {
        self.n_probes
    }

    /// Number of distinct directed links (across both PHYs).
    pub fn n_links(&self) -> usize {
        self.links.len()
    }

    /// Per-probe median SNR (precomputed `ProbeSet::snr_db`).
    pub fn snr_db(&self, pos: usize) -> f64 {
        self.snr_db[pos]
    }

    /// Per-probe integer SNR key (precomputed `ProbeSet::snr_key`).
    pub fn snr_key(&self, pos: usize) -> i64 {
        self.snr_key[pos]
    }

    /// Per-probe optimal observation (precomputed `ProbeSet::optimal`).
    pub fn optimal(&self, pos: usize) -> RateObs {
        self.opt[pos]
    }

    /// All directed links that ever produced a probe set, with their report
    /// counts — identical to [`Dataset::link_report_counts`] but assembled
    /// from the link groups instead of a full probe scan.
    pub fn link_report_counts(&self) -> BTreeMap<(NetworkId, ApId, ApId), usize> {
        let mut map = BTreeMap::new();
        for g in &self.links {
            *map.entry((g.network, g.sender, g.receiver)).or_insert(0) += g.probes.len();
        }
        map
    }

    fn net_group(&self, phy: Phy, network: NetworkId) -> Option<&NetGroup> {
        let r = self.net_ranges[phy_slot(phy)].clone();
        let slice = &self.nets[r.start as usize..r.end as usize];
        slice
            .binary_search_by_key(&network.0, |g| g.network.0)
            .ok()
            .map(|k| &slice[k])
    }

    /// The directed-link range table: one row per link, in
    /// (phy, network, sender, receiver) order, with each link's contiguous
    /// range of `link_order`. This is the introspection surface the
    /// incremental [`IndexStitcher`] is validated against.
    pub fn link_range_table(&self) -> Vec<LinkRange> {
        [Phy::Bg, Phy::Ht]
            .into_iter()
            .flat_map(|phy| {
                let r = self.link_ranges[phy_slot(phy)].clone();
                self.links[r.start as usize..r.end as usize]
                    .iter()
                    .map(move |g| LinkRange {
                        phy,
                        network: g.network,
                        sender: g.sender,
                        receiver: g.receiver,
                        probes: g.probes.clone(),
                    })
            })
            .collect()
    }

    /// The per-(phy, network) range table, in (phy, network) order, with
    /// each group's contiguous link and probe ranges.
    pub fn net_range_table(&self) -> Vec<NetRange> {
        [Phy::Bg, Phy::Ht]
            .into_iter()
            .flat_map(|phy| {
                let r = self.net_ranges[phy_slot(phy)].clone();
                self.nets[r.start as usize..r.end as usize]
                    .iter()
                    .map(move |g| NetRange {
                        phy,
                        network: g.network,
                        links: g.links.clone(),
                        probes: g.probes.clone(),
                    })
            })
            .collect()
    }
}

/// One row of [`DatasetIndex::link_range_table`]: a directed link and its
/// contiguous probe range in the (phy, network, sender, receiver)-sorted
/// permutation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinkRange {
    /// PHY family of the link's probes.
    pub phy: Phy,
    /// Owning network.
    pub network: NetworkId,
    /// Sending AP.
    pub sender: ApId,
    /// Receiving AP.
    pub receiver: ApId,
    /// Range into the link-sorted probe permutation.
    pub probes: Range<u32>,
}

/// One row of [`DatasetIndex::net_range_table`]: a (phy, network) group's
/// contiguous link and probe ranges.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetRange {
    /// PHY family of the group.
    pub phy: Phy,
    /// The network.
    pub network: NetworkId,
    /// Range into the link table.
    pub links: Range<u32>,
    /// Range into the link-sorted probe permutation.
    pub probes: Range<u32>,
}

/// Incremental construction of the [`DatasetIndex`] range tables from a
/// probe *stream*, without holding the probes.
///
/// Feed every probe in dataset order (chunk by chunk — boundaries are
/// irrelevant), then [`IndexStitcher::finish`]. Because the monolithic
/// index's permutations are **stable** sorts of dataset order, each link's
/// range start is exactly the number of probes whose sort key precedes it
/// and its length is its probe count — both pure functions of the per-key
/// counts, which is all the stitcher keeps. `finish` therefore reproduces
/// [`DatasetIndex::link_range_table`] / [`DatasetIndex::net_range_table`]
/// bit for bit (property-tested over arbitrary chunk placements).
#[derive(Debug, Clone, Default)]
pub struct IndexStitcher {
    /// Probe count per (phy_slot, network, sender, receiver).
    counts: BTreeMap<(usize, u32, u32, u32), u32>,
    n_probes: u64,
}

impl IndexStitcher {
    /// A stitcher with no observed probes.
    pub fn new() -> Self {
        Self::default()
    }

    /// Observes one probe of the stream.
    pub fn observe(&mut self, p: &ProbeSet) {
        *self
            .counts
            .entry((phy_slot(p.phy), p.network.0, p.sender.0, p.receiver.0))
            .or_insert(0) += 1;
        self.n_probes += 1;
    }

    /// Probes observed so far.
    pub fn n_probes(&self) -> u64 {
        self.n_probes
    }

    /// Assigns the stable global ranges.
    pub fn finish(self) -> StitchedIndex {
        assert!(
            self.n_probes < u32::MAX as u64,
            "dataset too large to index"
        );
        let mut links = Vec::with_capacity(self.counts.len());
        let mut off = 0u32;
        for (&(slot, net, s, r), &n) in &self.counts {
            links.push(LinkRange {
                phy: if slot == 0 { Phy::Bg } else { Phy::Ht },
                network: NetworkId(net),
                sender: ApId(s),
                receiver: ApId(r),
                probes: off..off + n,
            });
            off += n;
        }
        let mut nets = Vec::new();
        let mut i = 0usize;
        while i < links.len() {
            let k = (links[i].phy, links[i].network);
            let start = i;
            while i < links.len() && (links[i].phy, links[i].network) == k {
                i += 1;
            }
            nets.push(NetRange {
                phy: k.0,
                network: k.1,
                links: start as u32..i as u32,
                probes: links[start].probes.start..links[i - 1].probes.end,
            });
        }
        StitchedIndex { links, nets }
    }
}

/// The stitched global range tables of a chunked dataset — the structural
/// part of a [`DatasetIndex`] (the per-probe side columns stay chunk-local).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StitchedIndex {
    /// Per-link ranges, identical to [`DatasetIndex::link_range_table`].
    pub links: Vec<LinkRange>,
    /// Per-(phy, network) ranges, identical to
    /// [`DatasetIndex::net_range_table`].
    pub nets: Vec<NetRange>,
}

impl StitchedIndex {
    /// Number of distinct directed links (across both PHYs).
    pub fn n_links(&self) -> usize {
        self.links.len()
    }

    /// Directed-link report counts, identical to
    /// [`DatasetIndex::link_report_counts`].
    pub fn link_report_counts(&self) -> BTreeMap<(NetworkId, ApId, ApId), usize> {
        let mut map = BTreeMap::new();
        for g in &self.links {
            *map.entry((g.network, g.sender, g.receiver)).or_insert(0) += g.probes.len();
        }
        map
    }
}

/// A [`Dataset`] paired with its [`DatasetIndex`]. `Copy` — analyses take
/// it by value.
#[derive(Debug, Clone, Copy)]
pub struct DatasetView<'a> {
    ds: &'a Dataset,
    ix: &'a DatasetIndex,
}

impl<'a> DatasetView<'a> {
    /// Pairs a dataset with an index built over it.
    ///
    /// # Panics
    /// If the index was built over a different probe count (stale index).
    pub fn new(ds: &'a Dataset, ix: &'a DatasetIndex) -> Self {
        assert_eq!(
            ds.probes.len(),
            ix.n_probes,
            "stale DatasetIndex: rebuild after mutating the dataset"
        );
        Self { ds, ix }
    }

    /// The underlying dataset.
    pub fn dataset(&self) -> &'a Dataset {
        self.ds
    }

    /// The index.
    pub fn index(&self) -> &'a DatasetIndex {
        self.ix
    }

    /// Per-network metadata (delegates to the dataset).
    pub fn networks(&self) -> &'a [NetworkMeta] {
        &self.ds.networks
    }

    /// Metadata of one network (delegates to the dataset).
    pub fn meta(&self, id: NetworkId) -> Option<&'a NetworkMeta> {
        self.ds.meta(id)
    }

    /// Networks with at least `n` APs (delegates to the dataset).
    pub fn networks_with_at_least(&self, n: usize) -> impl Iterator<Item = &'a NetworkMeta> {
        self.ds.networks_with_at_least(n)
    }

    /// The probe entry at a dataset position.
    pub fn entry(&self, pos: usize) -> ProbeEntry<'a> {
        let probe = &self.ds.probes[pos];
        ProbeEntry {
            pos,
            probe,
            time_s: probe.time_s,
            snr_db: self.ix.snr_db[pos],
            snr_key: self.ix.snr_key[pos],
            opt: self.ix.opt[pos],
        }
    }

    /// Probe sets of one PHY, in dataset order — same sequence as
    /// [`Dataset::probes_for_phy`], without the full-vector filter walk.
    pub fn probes_for_phy(&self, phy: Phy) -> impl Iterator<Item = &'a ProbeSet> + 'a {
        let ds = self.ds;
        self.phy_positions(phy)
            .iter()
            .map(move |&i| &ds.probes[i as usize])
    }

    /// Probe entries (probe + precomputed columns) of one PHY, in dataset
    /// order.
    pub fn entries_for_phy(&self, phy: Phy) -> impl Iterator<Item = ProbeEntry<'a>> + 'a {
        let v = *self;
        self.phy_positions(phy)
            .iter()
            .map(move |&i| v.entry(i as usize))
    }

    fn phy_positions(&self, phy: Phy) -> &'a [u32] {
        let r = self.ix.phy_ranges[phy_slot(phy)].clone();
        &self.ix.phy_order[r.start as usize..r.end as usize]
    }

    /// Directed links of one PHY, in (network, sender, receiver) order.
    pub fn links_for_phy(&self, phy: Phy) -> impl Iterator<Item = LinkView<'a>> + 'a {
        let v = *self;
        let r = self.ix.link_ranges[phy_slot(phy)].clone();
        (r.start as usize..r.end as usize).map(move |k| LinkView {
            view: v,
            link_id: k as u32,
        })
    }

    /// The indexed group of one (PHY, network); `None` when the network has
    /// no probes for that PHY (an empty group, as the linear filters would
    /// also have produced).
    pub fn network(&self, phy: Phy, network: NetworkId) -> Option<NetworkView<'a>> {
        let r = self.ix.net_ranges[phy_slot(phy)].clone();
        let slice = &self.ix.nets[r.start as usize..r.end as usize];
        let k = slice
            .binary_search_by_key(&network.0, |g| g.network.0)
            .ok()?;
        let phy_off: u32 = slice[..k].iter().map(|g| g.probes.len() as u32).sum();
        Some(NetworkView {
            view: *self,
            group: &slice[k],
            phy,
            phy_off,
        })
    }

    /// All (PHY, network) groups of one PHY, in network-id order — the
    /// flat work list intra-kernel parallelism fans out over. For every
    /// per-network traversal ([`NetworkView::links`], [`NetworkView::entries`],
    /// [`NetworkView::entries_in_order`], …) concatenating the networks'
    /// iterations in this order reproduces the corresponding global
    /// per-PHY traversal exactly, float-accumulation order included.
    pub fn network_views(&self, phy: Phy) -> Vec<NetworkView<'a>> {
        let r = self.ix.net_ranges[phy_slot(phy)].clone();
        let mut off = 0u32;
        self.ix.nets[r.start as usize..r.end as usize]
            .iter()
            .map(|g| {
                let nv = NetworkView {
                    view: *self,
                    group: g,
                    phy,
                    phy_off: off,
                };
                off += g.probes.len() as u32;
                nv
            })
            .collect()
    }

    /// The delivery matrix of one (network, rate) — identical to
    /// `DeliveryMatrix::from_probes` over the network's probes, computed
    /// from the indexed range.
    pub fn delivery_matrix(
        &self,
        phy: Phy,
        network: NetworkId,
        rate: BitRate,
        n_aps: usize,
    ) -> DeliveryMatrix {
        self.delivery_stack(phy, network, std::slice::from_ref(&rate), n_aps)
            .pop()
            .expect("one rate in, one matrix out")
    }

    /// One delivery matrix per rate, from a **single pass** over the
    /// network's probes. Byte-identical to calling
    /// `DeliveryMatrix::from_probes` once per rate: every matrix cell is
    /// fed by exactly one link, the within-link order is dataset order,
    /// and only the first observation of a rate within a probe set counts
    /// (the `obs_for` contract).
    pub fn delivery_stack(
        &self,
        phy: Phy,
        network: NetworkId,
        rates: &[BitRate],
        n_aps: usize,
    ) -> Vec<DeliveryMatrix> {
        assert!(rates.len() <= 128, "rate stack too deep");
        let n2 = n_aps * n_aps;
        let mut sums = vec![0.0f64; rates.len() * n2];
        let mut cnts = vec![0u32; rates.len() * n2];
        // First slot of each distinct rate; duplicate rates in `rates`
        // share the first slot's accumulation (copied below).
        let mut slot_of: BTreeMap<BitRate, usize> = BTreeMap::new();
        for (j, &r) in rates.iter().enumerate() {
            slot_of.entry(r).or_insert(j);
        }
        if let Some(g) = self.ix.net_group(phy, network) {
            let positions = &self.ix.link_order[g.probes.start as usize..g.probes.end as usize];
            for &pos in positions {
                let p = &self.ds.probes[pos as usize];
                let cell = p.sender.idx() * n_aps + p.receiver.idx();
                let mut seen = 0u128;
                for o in &p.obs {
                    let Some(&slot) = slot_of.get(&o.rate) else {
                        continue;
                    };
                    if seen & (1 << slot) != 0 {
                        continue; // obs_for takes the first observation
                    }
                    seen |= 1 << slot;
                    sums[slot * n2 + cell] += o.delivery();
                    cnts[slot * n2 + cell] += 1;
                }
            }
        }
        rates
            .iter()
            .map(|&rate| {
                let src = slot_of[&rate];
                let p = sums[src * n2..(src + 1) * n2]
                    .iter()
                    .zip(&cnts[src * n2..(src + 1) * n2])
                    .map(|(&s, &c)| if c == 0 { 0.0 } else { s / c as f64 })
                    .collect();
                DeliveryMatrix::from_parts(network, rate, n_aps, p)
            })
            .collect()
    }

    /// Directed-link report counts (delegates to the index).
    pub fn link_report_counts(&self) -> BTreeMap<(NetworkId, ApId, ApId), usize> {
        self.ix.link_report_counts()
    }
}

/// One probe set plus its precomputed columns.
#[derive(Debug, Clone, Copy)]
pub struct ProbeEntry<'a> {
    /// Position in `Dataset::probes`.
    pub pos: usize,
    /// The probe set itself.
    pub probe: &'a ProbeSet,
    /// Report time (seconds), `probe.time_s`.
    pub time_s: f64,
    /// Median SNR (`ProbeSet::snr_db`), precomputed.
    pub snr_db: f64,
    /// Integer SNR key (`ProbeSet::snr_key`), precomputed.
    pub snr_key: i64,
    /// Optimal observation (`ProbeSet::optimal`), precomputed.
    pub opt: RateObs,
}

/// One directed link's indexed probe range.
#[derive(Debug, Clone, Copy)]
pub struct LinkView<'a> {
    view: DatasetView<'a>,
    link_id: u32,
}

impl<'a> LinkView<'a> {
    fn group(&self) -> &'a LinkGroup {
        &self.view.ix.links[self.link_id as usize]
    }

    /// Interned link id: dense index of this directed link in the index's
    /// (phy, network, sender, receiver)-ordered link table.
    pub fn link_id(&self) -> u32 {
        self.link_id
    }

    /// The network the link belongs to.
    pub fn network(&self) -> NetworkId {
        self.group().network
    }

    /// Sending AP.
    pub fn sender(&self) -> ApId {
        self.group().sender
    }

    /// Receiving AP.
    pub fn receiver(&self) -> ApId {
        self.group().receiver
    }

    /// Number of probe-set reports on this link.
    pub fn len(&self) -> usize {
        self.group().probes.len()
    }

    /// Whether the link has no reports (never true for indexed links).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn positions(&self) -> &'a [u32] {
        let g = self.group();
        &self.view.ix.link_order[g.probes.start as usize..g.probes.end as usize]
    }

    /// The link's probe sets, in dataset order (time order for trace data).
    pub fn probes(&self) -> impl Iterator<Item = &'a ProbeSet> + 'a {
        let ds = self.view.ds;
        self.positions()
            .iter()
            .map(move |&i| &ds.probes[i as usize])
    }

    /// The link's probe entries, in dataset order.
    pub fn entries(&self) -> impl Iterator<Item = ProbeEntry<'a>> + 'a {
        let v = self.view;
        self.positions().iter().map(move |&i| v.entry(i as usize))
    }
}

/// One (PHY, network)'s indexed probe and link ranges.
#[derive(Debug, Clone, Copy)]
pub struct NetworkView<'a> {
    view: DatasetView<'a>,
    group: &'a NetGroup,
    /// The PHY the group was looked up under.
    phy: Phy,
    /// Offset of this network's probes inside the PHY's `phy_order`
    /// segment. Valid because datasets are network-major: the stable
    /// phy sort keeps each network's probes a contiguous run, in
    /// network-id order, so run offsets are the prefix sums of the
    /// groups' probe counts.
    phy_off: u32,
}

impl<'a> NetworkView<'a> {
    /// The network id.
    pub fn network(&self) -> NetworkId {
        self.group.network
    }

    /// Number of probe-set reports in the group.
    pub fn n_reports(&self) -> usize {
        self.group.probes.len()
    }

    /// The network's directed links, in (sender, receiver) order.
    pub fn links(&self) -> impl Iterator<Item = LinkView<'a>> + 'a {
        let v = self.view;
        let r = self.group.links.clone();
        (r.start..r.end).map(move |k| LinkView {
            view: v,
            link_id: k,
        })
    }

    /// The network's probe sets, grouped by link, dataset order within
    /// each link.
    pub fn probes(&self) -> impl Iterator<Item = &'a ProbeSet> + 'a {
        let ds = self.view.ds;
        let g = self.group;
        self.view.ix.link_order[g.probes.start as usize..g.probes.end as usize]
            .iter()
            .map(move |&i| &ds.probes[i as usize])
    }

    /// The network's probe entries, grouped by link.
    pub fn entries(&self) -> impl Iterator<Item = ProbeEntry<'a>> + 'a {
        let v = self.view;
        let g = self.group;
        self.view.ix.link_order[g.probes.start as usize..g.probes.end as usize]
            .iter()
            .map(move |&i| v.entry(i as usize))
    }

    /// This network's contiguous run of dataset-order probe positions:
    /// its segment of the (phy, network)-stable permutation, located by
    /// the prefix-sum offset of the preceding groups.
    fn phy_run(&self) -> &'a [u32] {
        let ix = self.view.ix;
        let r = ix.phy_ranges[phy_slot(self.phy)].clone();
        let seg = &ix.net_order[r.start as usize..r.end as usize];
        &seg[self.phy_off as usize..self.phy_off as usize + self.group.probes.len()]
    }

    /// The network's probe entries in dataset (stream) order — exactly
    /// the subsequence [`DatasetView::entries_for_phy`] yields for this
    /// network, unlike [`NetworkView::entries`] which groups by link.
    pub fn entries_in_order(&self) -> impl Iterator<Item = ProbeEntry<'a>> + 'a {
        let v = self.view;
        self.phy_run().iter().map(move |&i| v.entry(i as usize))
    }

    /// The network's probe sets in dataset (stream) order (see
    /// [`NetworkView::entries_in_order`]).
    pub fn probes_in_order(&self) -> impl Iterator<Item = &'a ProbeSet> + 'a {
        let ds = self.view.ds;
        self.phy_run().iter().map(move |&i| &ds.probes[i as usize])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::EnvLabel;
    use mesh11_phy::rate::BG_PROBED;

    fn rate(mbps: f64) -> BitRate {
        BitRate::bg_mbps(mbps).unwrap()
    }

    fn probe(net: u32, phy: Phy, s: u32, r: u32, t: f64, loss: f64) -> ProbeSet {
        let rt = match phy {
            Phy::Bg => rate(11.0),
            Phy::Ht => BitRate::ht_mcs(3, false).unwrap(),
        };
        ProbeSet {
            network: NetworkId(net),
            phy,
            time_s: t,
            sender: ApId(s),
            receiver: ApId(r),
            obs: vec![
                RateObs {
                    rate: rt,
                    loss,
                    snr_db: 18.0,
                },
                RateObs {
                    rate: match phy {
                        Phy::Bg => rate(1.0),
                        Phy::Ht => BitRate::ht_mcs(0, false).unwrap(),
                    },
                    loss: 0.0,
                    snr_db: 20.0,
                },
            ],
        }
    }

    fn mixed_dataset() -> Dataset {
        let meta = |i: u32, n: usize, radios: Vec<Phy>| NetworkMeta {
            id: NetworkId(i),
            env: EnvLabel::Indoor,
            n_aps: n,
            radios,
            location: "Testville".into(),
        };
        Dataset {
            networks: vec![
                meta(0, 3, vec![Phy::Bg]),
                meta(1, 2, vec![Phy::Ht]),
                meta(2, 2, vec![Phy::Bg]),
            ],
            probes: vec![
                probe(2, Phy::Bg, 0, 1, 300.0, 0.1),
                probe(0, Phy::Bg, 0, 1, 300.0, 0.2),
                probe(1, Phy::Ht, 1, 0, 300.0, 0.3),
                probe(0, Phy::Bg, 1, 0, 300.0, 0.4),
                probe(0, Phy::Bg, 0, 1, 600.0, 0.5),
                probe(1, Phy::Ht, 0, 1, 600.0, 0.6),
                probe(0, Phy::Bg, 0, 2, 600.0, 0.7),
            ],
            clients: Vec::new(),
            probe_horizon_s: 900.0,
            client_horizon_s: 0.0,
        }
    }

    fn view_over(ds: &Dataset, ix: &DatasetIndex) -> (Vec<f64>, Vec<f64>) {
        let v = DatasetView::new(ds, ix);
        let bg: Vec<f64> = v.probes_for_phy(Phy::Bg).map(|p| p.time_s).collect();
        let ht: Vec<f64> = v.probes_for_phy(Phy::Ht).map(|p| p.time_s).collect();
        (bg, ht)
    }

    #[test]
    fn phy_order_matches_linear_filter() {
        let ds = mixed_dataset();
        let ix = DatasetIndex::build(&ds);
        let v = DatasetView::new(&ds, &ix);
        for phy in [Phy::Bg, Phy::Ht] {
            let linear: Vec<&ProbeSet> = ds.probes_for_phy(phy).collect();
            let indexed: Vec<&ProbeSet> = v.probes_for_phy(phy).collect();
            assert_eq!(linear, indexed, "{phy}: order must be dataset order");
        }
        let _ = view_over(&ds, &ix);
    }

    #[test]
    fn link_groups_preserve_dataset_order() {
        let ds = mixed_dataset();
        let ix = DatasetIndex::build(&ds);
        let v = DatasetView::new(&ds, &ix);
        // Network 0, link 0→1 has two reports, dataset (time) order.
        let net = v.network(Phy::Bg, NetworkId(0)).unwrap();
        let links: Vec<LinkView> = net.links().collect();
        assert_eq!(links.len(), 3);
        assert_eq!(
            (links[0].sender(), links[0].receiver(), links[0].len()),
            (ApId(0), ApId(1), 2)
        );
        let times: Vec<f64> = links[0].probes().map(|p| p.time_s).collect();
        assert_eq!(times, vec![300.0, 600.0]);
        // Entries expose the precomputed columns.
        let e: Vec<ProbeEntry> = links[0].entries().collect();
        assert_eq!(e[0].snr_key, 19); // median of {18, 20}
        assert_eq!(e[0].opt.rate, rate(11.0));
        assert_eq!(net.n_reports(), 4);
    }

    #[test]
    fn network_views_concatenate_to_global_walks() {
        let ds = mixed_dataset();
        let ix = DatasetIndex::build(&ds);
        let v = DatasetView::new(&ds, &ix);
        for phy in [Phy::Bg, Phy::Ht] {
            let nets = v.network_views(phy);
            // Per-network link iterations concatenate to links_for_phy.
            let global: Vec<u32> = v.links_for_phy(phy).map(|l| l.link_id()).collect();
            let concat: Vec<u32> = nets
                .iter()
                .flat_map(|nv| nv.links().map(|l| l.link_id()))
                .collect();
            assert_eq!(concat, global, "{phy}: link order");
            // Each network's stream-order entries are that network's
            // subsequence of the global per-PHY dataset-order walk.
            for nv in &nets {
                let direct: Vec<usize> = v
                    .entries_for_phy(phy)
                    .filter(|e| e.probe.network == nv.network())
                    .map(|e| e.pos)
                    .collect();
                let run: Vec<usize> = nv.entries_in_order().map(|e| e.pos).collect();
                assert_eq!(run, direct, "{phy}: net {}", nv.network().0);
                let probes: Vec<usize> = nv
                    .probes_in_order()
                    .map(|p| p.time_s as usize * 10 + p.sender.idx())
                    .collect();
                let entries: Vec<usize> = nv
                    .entries_in_order()
                    .map(|e| e.probe.time_s as usize * 10 + e.probe.sender.idx())
                    .collect();
                assert_eq!(probes, entries);
            }
            // `network()` agrees with `network_views` on the offsets.
            for nv in &nets {
                let single = v.network(phy, nv.network()).unwrap();
                assert_eq!(
                    single.entries_in_order().map(|e| e.pos).collect::<Vec<_>>(),
                    nv.entries_in_order().map(|e| e.pos).collect::<Vec<_>>()
                );
            }
        }
    }

    #[test]
    fn network_lookup_misses_are_none() {
        let ds = mixed_dataset();
        let ix = DatasetIndex::build(&ds);
        let v = DatasetView::new(&ds, &ix);
        assert!(v.network(Phy::Ht, NetworkId(0)).is_none());
        assert!(v.network(Phy::Bg, NetworkId(1)).is_none());
        assert!(v.network(Phy::Bg, NetworkId(9)).is_none());
    }

    #[test]
    fn link_report_counts_match_full_scan() {
        let ds = mixed_dataset();
        let ix = DatasetIndex::build(&ds);
        assert_eq!(ix.link_report_counts(), ds.link_report_counts());
        assert_eq!(ix.n_links(), 6);
        assert_eq!(ix.n_probes(), ds.probes.len());
    }

    #[test]
    fn delivery_stack_matches_from_probes() {
        let ds = mixed_dataset();
        let ix = DatasetIndex::build(&ds);
        let v = DatasetView::new(&ds, &ix);
        for m in &ds.networks {
            let probes: Vec<&ProbeSet> = ds
                .probes_for_network(m.id)
                .filter(|p| p.phy == Phy::Bg)
                .collect();
            let stack = v.delivery_stack(Phy::Bg, m.id, BG_PROBED, m.n_aps);
            for (k, &r) in BG_PROBED.iter().enumerate() {
                let lin = DeliveryMatrix::from_probes(m.id, r, m.n_aps, probes.iter().copied());
                assert_eq!(stack[k], lin, "net {} rate {r}", m.id.0);
            }
            let single = v.delivery_matrix(Phy::Bg, m.id, rate(11.0), m.n_aps);
            let lin = DeliveryMatrix::from_probes(m.id, rate(11.0), m.n_aps, probes);
            assert_eq!(single, lin);
        }
    }

    #[test]
    fn delivery_stack_first_obs_wins_and_duplicates_share() {
        // A probe set with a duplicate rate entry: obs_for takes the first,
        // so the stack must too; a duplicated rate in the request list gets
        // a copy of the same matrix.
        let mut ds = mixed_dataset();
        ds.probes[1].obs.push(RateObs {
            rate: rate(11.0),
            loss: 0.9,
            snr_db: 5.0,
        });
        let ix = DatasetIndex::build(&ds);
        let v = DatasetView::new(&ds, &ix);
        let rates = [rate(11.0), rate(1.0), rate(11.0)];
        let stack = v.delivery_stack(Phy::Bg, NetworkId(0), &rates, 3);
        let probes: Vec<&ProbeSet> = ds.probes_for_network(NetworkId(0)).collect();
        let lin = DeliveryMatrix::from_probes(NetworkId(0), rate(11.0), 3, probes);
        assert_eq!(stack[0], lin);
        assert_eq!(stack[0], stack[2]);
    }

    #[test]
    fn columns_match_probe_methods() {
        let ds = mixed_dataset();
        let ix = DatasetIndex::build(&ds);
        for (pos, p) in ds.probes.iter().enumerate() {
            assert_eq!(ix.snr_db(pos), p.snr_db());
            assert_eq!(ix.snr_key(pos), p.snr_key());
            assert_eq!(ix.optimal(pos), p.optimal());
        }
    }

    #[test]
    fn empty_dataset_indexes() {
        let ds = Dataset::default();
        let ix = DatasetIndex::build(&ds);
        let v = DatasetView::new(&ds, &ix);
        assert_eq!(v.probes_for_phy(Phy::Bg).count(), 0);
        assert_eq!(v.links_for_phy(Phy::Ht).count(), 0);
        assert!(v.network(Phy::Bg, NetworkId(0)).is_none());
        assert!(ix.link_report_counts().is_empty());
    }

    #[test]
    fn stitcher_matches_monolithic_tables() {
        let ds = mixed_dataset();
        let ix = DatasetIndex::build(&ds);
        let mut st = IndexStitcher::new();
        for p in &ds.probes {
            st.observe(p);
        }
        assert_eq!(st.n_probes(), ds.probes.len() as u64);
        let stitched = st.finish();
        assert_eq!(stitched.links, ix.link_range_table());
        assert_eq!(stitched.nets, ix.net_range_table());
        assert_eq!(stitched.link_report_counts(), ix.link_report_counts());
        assert_eq!(stitched.n_links(), ix.n_links());
    }

    #[test]
    #[should_panic(expected = "stale DatasetIndex")]
    fn stale_index_is_rejected() {
        let mut ds = mixed_dataset();
        let ix = DatasetIndex::build(&ds);
        ds.probes.push(probe(0, Phy::Bg, 2, 0, 900.0, 0.1));
        let _ = DatasetView::new(&ds, &ix);
    }
}
