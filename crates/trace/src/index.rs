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
//! * **per-probe side columns** ([`ProbeColumns`]) — median SNR (and its
//!   integer key) and the optimal rate observation, the two derivations
//!   that cost a sort or a scan per probe. Lookup-table training, penalty
//!   scoring and the other SNR-keyed kernels read these instead of
//!   re-deriving medians and optima per call. They are built **on demand**:
//!   once, in parallel, the first time anything reads them. A request that
//!   only walks delivery matrices (routing, hidden triples) never pays for
//!   them. Everything else a kernel needs (report time, the per-rate
//!   observations) it reads from the probe set itself: copying it into
//!   columns would cost more per build than the walks it saves.
//!
//! The index is a pure function of the probe table; it holds **positions**,
//! not copies, and must be rebuilt after any mutation of `Dataset::probes`
//! (see [`Dataset::merge`]). [`DatasetView`] bundles a dataset with its
//! index; analyses take a view by value (it is `Copy`).

use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap};
use std::ops::Range;
use std::sync::OnceLock;

use mesh11_phy::{BitRate, Phy};
use rayon::prelude::*;

use crate::dataset::{Dataset, NetworkMeta};
use crate::ids::{ApId, NetworkId};
use crate::matrix::DeliveryMatrix;
use crate::probe::{Probe, ProbeSet, ProbeTable, RateObs};

/// Number of PHY families ([`Phy::Bg`], [`Phy::Ht`]).
const N_PHYS: usize = 2;

/// The longest per-PHY rate table (`Phy::Ht.all_rates()`).
const MAX_PHY_RATES: usize = 32;

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

/// Precomputed grouping of one [`Dataset`]'s probe sets, plus its
/// per-probe side columns once something has read them.
///
/// Build with [`DatasetIndex::build`]; pair with the dataset via
/// [`DatasetView::new`]. The index refers to probes by position, so it is
/// invalidated by any mutation of `Dataset::probes` and must then be
/// rebuilt (building after mutation gives exactly the index of the mutated
/// dataset — there is no incremental state). Two indexes are equal when
/// their grouping is; the columns are a function of the dataset.
#[derive(Debug, Clone, Default)]
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
    /// The per-probe columns, built on first read.
    cols: OnceLock<ProbeColumns>,
}

impl PartialEq for DatasetIndex {
    fn eq(&self, other: &Self) -> bool {
        self.n_probes == other.n_probes
            && self.phy_order == other.phy_order
            && self.phy_ranges == other.phy_ranges
            && self.net_order == other.net_order
            && self.link_order == other.link_order
            && self.links == other.links
            && self.link_ranges == other.link_ranges
            && self.nets == other.nets
            && self.net_ranges == other.net_ranges
    }
}

/// A directed link's grouping key, `(phy slot, network, sender, receiver)`;
/// tuple order is the index's link order.
type LinkKey = (u32, u32, u32, u32);

fn link_key(p: &ProbeSet) -> LinkKey {
    (
        phy_slot(p.phy) as u32,
        p.network.0,
        p.sender.0,
        p.receiver.0,
    )
}

/// Dense ids for the directed links of a probe stream, in first-seen
/// order, with each link's report count.
///
/// Most lookups never hash. Within a network a dataset lists each report
/// tick's links in the same ascending order, so the link that followed a
/// link last time usually follows it again: the guess is right for 91% of
/// the probe sets of a standard-scale file. A wrong guess falls back to
/// the map, which keeps the standard library's keyed hasher because the
/// keys come from dataset files.
#[derive(Default)]
struct LinkIds {
    ids: HashMap<LinkKey, u32>,
    keys: Vec<LinkKey>,
    counts: Vec<u32>,
    /// Per link id, the id of the link seen right after it last time
    /// (`u32::MAX` before there is one).
    next: Vec<u32>,
    /// The id of the link seen last.
    last: Option<u32>,
}

impl LinkIds {
    /// The id of `key`, counting one more report on it.
    fn observe(&mut self, key: LinkKey) -> u32 {
        let guess = self
            .last
            .map(|x| self.next[x as usize])
            .filter(|&g| self.keys.get(g as usize) == Some(&key));
        let id = guess.unwrap_or_else(|| {
            let fresh = self.keys.len() as u32;
            let id = *self.ids.entry(key).or_insert(fresh);
            if id == fresh {
                self.keys.push(key);
                self.counts.push(0);
                self.next.push(u32::MAX);
            }
            if let Some(x) = self.last {
                self.next[x as usize] = id;
            }
            id
        });
        self.counts[id as usize] += 1;
        self.last = Some(id);
        id
    }
}

/// The per-probe side columns of a [`DatasetIndex`], by dataset position:
/// each probe set's median SNR, its integer key and its optimal
/// observation. Read them through [`DatasetView::columns`] or the
/// [`ProbeEntry`] iterators, which build them on first use.
#[derive(Debug, Clone)]
pub struct ProbeColumns {
    snr_db: Vec<f64>,
    snr_key: Vec<i64>,
    opt: Vec<RateObs>,
}

impl ProbeColumns {
    /// One pass over every probe set, parallel over contiguous position
    /// spans, each span writing its slice of the final columns.
    fn build(probes: &ProbeTable) -> Self {
        let n = probes.len();
        let parts = rayon::current_num_threads().clamp(1, n.max(1));
        let span_len = n.div_ceil(parts).max(1);
        // Every slot is overwritten below; the placeholder only makes the
        // column a plain initialized vector the spans can borrow.
        let unset = RateObs {
            rate: BitRate::bg_mbps(1.0).expect("1 Mbit/s exists"),
            loss: 0.0,
            snr_db: 0.0,
        };
        let mut cols = ProbeColumns {
            snr_db: vec![0.0; n],
            snr_key: vec![0; n],
            opt: vec![unset; n],
        };
        let mut spans: Vec<_> = cols
            .snr_db
            .chunks_mut(span_len)
            .zip(cols.snr_key.chunks_mut(span_len))
            .zip(cols.opt.chunks_mut(span_len))
            .enumerate()
            .collect();
        spans
            .par_iter_mut()
            .for_each(|(k, ((snr_db, snr_key), opt))| {
                let first = *k * span_len;
                for (i, ((s, key), o)) in snr_db
                    .iter_mut()
                    .zip(snr_key.iter_mut())
                    .zip(opt.iter_mut())
                    .enumerate()
                {
                    let p = probes.get(first + i);
                    *s = p.snr_db();
                    *key = s.round() as i64;
                    *o = p.optimal();
                }
            });
        cols
    }

    /// Median SNR of the probe set at `pos` ([`Probe::snr_db`]).
    pub fn snr_db(&self, pos: usize) -> f64 {
        self.snr_db[pos]
    }

    /// Integer SNR key of the probe set at `pos` ([`Probe::snr_key`]).
    pub fn snr_key(&self, pos: usize) -> i64 {
        self.snr_key[pos]
    }

    /// Optimal observation of the probe set at `pos` ([`Probe::optimal`]).
    pub fn optimal(&self, pos: usize) -> RateObs {
        self.opt[pos]
    }

    /// The entry at `pos` of `probes`, the table these columns cover.
    fn entry<'a>(&self, probes: &'a ProbeTable, pos: usize) -> ProbeEntry<'a> {
        let probe = probes.get(pos);
        ProbeEntry {
            pos,
            probe,
            time_s: probe.time_s,
            snr_db: self.snr_db[pos],
            snr_key: self.snr_key[pos],
            opt: self.opt[pos],
        }
    }
}

impl DatasetIndex {
    /// Builds the grouping over `ds.probes` by counting, not sorting. One
    /// pass interns each probe set's directed link to a dense id in
    /// first-seen order and counts its reports (`LinkIds`). Ranking the
    /// distinct links (far fewer than the probe sets) in `(phy, network,
    /// sender, receiver)` order lays out `links` and `nets` with their
    /// final ranges. One scatter pass in dataset order then drops each position
    /// into the next free slot of its PHY, its network and its link in
    /// `phy_order`, `net_order` and `link_order`, which keeps dataset order
    /// within every group: a stable counting sort. `O(n)` in the probe
    /// count plus a sort of the links, exact for any `u32` ids. The
    /// per-probe columns are left for their first reader.
    pub fn build(ds: &Dataset) -> Self {
        let rows = ds.probes.rows();
        let n = rows.len();
        assert!(n < u32::MAX as usize, "dataset too large to index");

        // Each probe's link id, every link's key and report count.
        let mut links = LinkIds::default();
        let id_of: Vec<u32> = rows.iter().map(|p| links.observe(link_key(p))).collect();
        let LinkIds { keys, counts, .. } = links;

        // Links in key order, each range starting where the previous
        // link's ended; a network group is a run of links sharing
        // (phy, network). Per link id: its link's and its group's next
        // free slot.
        let mut by_key: Vec<u32> = (0..keys.len() as u32).collect();
        by_key.sort_unstable_by_key(|&id| keys[id as usize]);
        let mut ix = Self {
            n_probes: n,
            links: Vec::with_capacity(keys.len()),
            ..Self::default()
        };
        let mut link_next = vec![0u32; keys.len()];
        let mut net_of = vec![0u32; keys.len()];
        let mut group = None;
        for (rank, &id) in by_key.iter().enumerate() {
            let (slot, network, sender, receiver) = keys[id as usize];
            let start = ix.links.last().map_or(0, |g| g.probes.end);
            let probes = start..start + counts[id as usize];
            let (rank, network) = (rank as u32, NetworkId(network));
            if group != Some((slot, network)) {
                group = Some((slot, network));
                ix.nets.push(NetGroup {
                    network,
                    links: rank..rank,
                    probes: start..start,
                });
            }
            let g = ix.nets.last_mut().expect("a group was pushed");
            g.links.end = rank + 1;
            g.probes.end = probes.end;
            net_of[id as usize] = ix.nets.len() as u32 - 1;
            link_next[id as usize] = start;
            ix.links.push(LinkGroup {
                network,
                sender: ApId(sender),
                receiver: ApId(receiver),
                probes,
            });
        }
        // b/g sorts first: each per-PHY range table splits where it ends.
        let bg_links = by_key.partition_point(|&id| keys[id as usize].0 == 0);
        let bg_nets = ix
            .nets
            .partition_point(|g| (g.links.start as usize) < bg_links);
        let bg_probes = bg_links
            .checked_sub(1)
            .map_or(0, |k| ix.links[k].probes.end);
        let split = |at: usize, len: usize| [0..at as u32, at as u32..len as u32];
        ix.phy_ranges = split(bg_probes as usize, n);
        ix.link_ranges = split(bg_links, ix.links.len());
        ix.net_ranges = split(bg_nets, ix.nets.len());

        // A network group's probes take the same range of `net_order` as
        // of `link_order`, and a PHY's the same range of `phy_order`.
        let mut phy_next = [0, bg_probes];
        let mut net_next: Vec<u32> = ix.nets.iter().map(|g| g.probes.start).collect();
        let take = |next: &mut u32| {
            let at = *next;
            *next += 1;
            at as usize
        };
        let mut orders = [vec![0u32; n], vec![0u32; n], vec![0u32; n]];
        let [phy_order, net_order, link_order] = &mut orders;
        for (pos, &id) in id_of.iter().enumerate() {
            let id = id as usize;
            phy_order[take(&mut phy_next[keys[id].0 as usize])] = pos as u32;
            net_order[take(&mut net_next[net_of[id] as usize])] = pos as u32;
            link_order[take(&mut link_next[id])] = pos as u32;
        }
        [ix.phy_order, ix.net_order, ix.link_order] = orders;
        ix
    }

    /// Probe count the index covers.
    pub fn n_probes(&self) -> usize {
        self.n_probes
    }

    /// Number of distinct directed links (across both PHYs).
    pub fn n_links(&self) -> usize {
        self.links.len()
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
    /// range of `link_order`. An introspection surface for tests.
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

    /// The per-probe side columns, built on the first call: once, in
    /// parallel over the current thread budget. Kernels that read
    /// [`ProbeEntry`]s call this before fanning out per network, so the
    /// build runs at full width rather than inside one worker.
    pub fn columns(&self) -> &'a ProbeColumns {
        let probes = &self.ds.probes;
        self.ix.cols.get_or_init(|| ProbeColumns::build(probes))
    }

    /// The probe entry at a dataset position (builds the columns on first
    /// use).
    pub fn entry(&self, pos: usize) -> ProbeEntry<'a> {
        self.columns().entry(&self.ds.probes, pos)
    }

    /// Maps positions to entries, reading the columns once.
    fn entries_at(&self, positions: &'a [u32]) -> impl Iterator<Item = ProbeEntry<'a>> + 'a {
        let (cols, probes) = (self.columns(), &self.ds.probes);
        positions
            .iter()
            .map(move |&i| cols.entry(probes, i as usize))
    }

    /// Maps positions to probe sets.
    fn probes_at(&self, positions: &'a [u32]) -> impl Iterator<Item = Probe<'a>> + 'a {
        let probes = &self.ds.probes;
        positions.iter().map(move |&i| probes.get(i as usize))
    }

    /// Probe sets of one PHY, in dataset order — same sequence as
    /// [`Dataset::probes_for_phy`], without the full-table filter walk.
    pub fn probes_for_phy(&self, phy: Phy) -> impl Iterator<Item = Probe<'a>> + 'a {
        self.probes_at(self.phy_positions(phy))
    }

    /// Probe entries (probe + precomputed columns) of one PHY, in dataset
    /// order.
    pub fn entries_for_phy(&self, phy: Phy) -> impl Iterator<Item = ProbeEntry<'a>> + 'a {
        self.entries_at(self.phy_positions(phy))
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
        // First slot of each distinct rate, by (PHY, rate index); duplicate
        // rates in `rates` share the first slot's accumulation (copied
        // below). `NO_SLOT` marks rates that were not requested.
        const NO_SLOT: u8 = u8::MAX;
        let mut slot_of = [[NO_SLOT; MAX_PHY_RATES]; N_PHYS];
        let slot_cell = |r: BitRate| (phy_slot(r.phy()), r.index());
        for (j, &r) in rates.iter().enumerate().rev() {
            let (ps, ri) = slot_cell(r);
            slot_of[ps][ri] = j as u8;
        }
        if let Some(g) = self.ix.net_group(phy, network) {
            let positions = &self.ix.link_order[g.probes.start as usize..g.probes.end as usize];
            for p in self.probes_at(positions) {
                let cell = p.sender.idx() * n_aps + p.receiver.idx();
                let mut seen = 0u128;
                for o in p.obs {
                    let (ps, ri) = slot_cell(o.rate);
                    let slot = slot_of[ps][ri];
                    if slot == NO_SLOT {
                        continue;
                    }
                    let slot = usize::from(slot);
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
                let (ps, ri) = slot_cell(rate);
                let src = slot_of[ps][ri] as usize;
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
    pub probe: Probe<'a>,
    /// Report time (seconds), `probe.time_s`.
    pub time_s: f64,
    /// Median SNR (`Probe::snr_db`), precomputed.
    pub snr_db: f64,
    /// Integer SNR key (`Probe::snr_key`), precomputed.
    pub snr_key: i64,
    /// Optimal observation (`Probe::optimal`), precomputed.
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

    pub(crate) fn positions(&self) -> &'a [u32] {
        let g = self.group();
        &self.view.ix.link_order[g.probes.start as usize..g.probes.end as usize]
    }

    /// The link's probe sets, in dataset order (time order for trace data).
    pub fn probes(&self) -> impl Iterator<Item = Probe<'a>> + 'a {
        self.view.probes_at(self.positions())
    }

    /// The link's probe entries, in dataset order.
    pub fn entries(&self) -> impl Iterator<Item = ProbeEntry<'a>> + 'a {
        self.view.entries_at(self.positions())
    }

    /// The link's probe entries in report-time order. When dataset order
    /// is already time order, as in every simulated or decoded trace, this
    /// walks the indexed range in place; otherwise it walks a copy stably
    /// sorted by time, so reports with equal times keep dataset order.
    ///
    /// # Panics
    /// If the link needs sorting and holds a NaN report time.
    pub fn entries_by_time(&self) -> impl Iterator<Item = ProbeEntry<'a>> + 'a {
        let rows = self.view.ds.probes.rows();
        let time = move |pos: &u32| rows[*pos as usize].time_s;
        let positions = self.positions();
        let order = if positions.windows(2).all(|w| time(&w[0]) <= time(&w[1])) {
            Cow::Borrowed(positions)
        } else {
            let mut sorted = positions.to_vec();
            sorted.sort_by(|a, b| time(a).partial_cmp(&time(b)).expect("finite times"));
            Cow::Owned(sorted)
        };
        let (cols, probes) = (self.view.columns(), &self.view.ds.probes);
        (0..order.len()).map(move |i| cols.entry(probes, order[i] as usize))
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

    /// The network's positions, grouped by link.
    fn link_run(&self) -> &'a [u32] {
        let g = self.group;
        &self.view.ix.link_order[g.probes.start as usize..g.probes.end as usize]
    }

    /// The network's probe sets, grouped by link, dataset order within
    /// each link.
    pub fn probes(&self) -> impl Iterator<Item = Probe<'a>> + 'a {
        self.view.probes_at(self.link_run())
    }

    /// The network's probe entries, grouped by link.
    pub fn entries(&self) -> impl Iterator<Item = ProbeEntry<'a>> + 'a {
        self.view.entries_at(self.link_run())
    }

    /// This network's contiguous run of dataset-order probe positions:
    /// its segment of the (phy, network)-stable permutation, located by
    /// the prefix-sum offset of the preceding groups.
    pub(crate) fn phy_run(&self) -> &'a [u32] {
        let ix = self.view.ix;
        let r = ix.phy_ranges[phy_slot(self.phy)].clone();
        let seg = &ix.net_order[r.start as usize..r.end as usize];
        &seg[self.phy_off as usize..self.phy_off as usize + self.group.probes.len()]
    }

    /// The network's probe entries in dataset (stream) order — exactly
    /// the subsequence [`DatasetView::entries_for_phy`] yields for this
    /// network, unlike [`NetworkView::entries`] which groups by link.
    pub fn entries_in_order(&self) -> impl Iterator<Item = ProbeEntry<'a>> + 'a {
        self.view.entries_at(self.phy_run())
    }

    /// The network's probe sets in dataset (stream) order (see
    /// [`NetworkView::entries_in_order`]).
    pub fn probes_in_order(&self) -> impl Iterator<Item = Probe<'a>> + 'a {
        self.view.probes_at(self.phy_run())
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

    /// Appends a two-rate probe set (the PHY's mid rate at `loss`, its
    /// base rate lossless), plus any `extra` observations.
    #[allow(clippy::too_many_arguments)]
    fn push_probe(
        out: &mut ProbeTable,
        net: u32,
        phy: Phy,
        s: u32,
        r: u32,
        t: f64,
        loss: f64,
        extra: &[RateObs],
    ) {
        let rt = match phy {
            Phy::Bg => rate(11.0),
            Phy::Ht => BitRate::ht_mcs(3, false).unwrap(),
        };
        let mut obs = vec![
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
        ];
        obs.extend_from_slice(extra);
        out.push(Probe {
            network: NetworkId(net),
            phy,
            time_s: t,
            sender: ApId(s),
            receiver: ApId(r),
            obs: &obs,
        });
    }

    fn mixed_dataset() -> Dataset {
        mixed_dataset_with(&[])
    }

    /// The mixed dataset with `extra` observations on its second set.
    fn mixed_dataset_with(extra: &[RateObs]) -> Dataset {
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
            probes: {
                let mut t = ProbeTable::new();
                for (k, (net, phy, s, r, time, loss)) in [
                    (2, Phy::Bg, 0, 1, 300.0, 0.1),
                    (0, Phy::Bg, 0, 1, 300.0, 0.2),
                    (1, Phy::Ht, 1, 0, 300.0, 0.3),
                    (0, Phy::Bg, 1, 0, 300.0, 0.4),
                    (0, Phy::Bg, 0, 1, 600.0, 0.5),
                    (1, Phy::Ht, 0, 1, 600.0, 0.6),
                    (0, Phy::Bg, 0, 2, 600.0, 0.7),
                ]
                .into_iter()
                .enumerate()
                {
                    let extra = if k == 1 { extra } else { &[] };
                    push_probe(&mut t, net, phy, s, r, time, loss, extra);
                }
                t
            },
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
            let linear: Vec<Probe> = ds.probes_for_phy(phy).collect();
            let indexed: Vec<Probe> = v.probes_for_phy(phy).collect();
            assert_eq!(linear, indexed, "{phy}: order must be dataset order");
        }
        let _ = view_over(&ds, &ix);
    }

    #[test]
    fn entries_by_time_sorts_stably_when_needed() {
        // Link 0→1 reports at 600, 300, 600, 300 with distinct losses;
        // link 1→0 is already in time order.
        let mut probes = ProbeTable::new();
        for (s, r, t, loss) in [
            (0, 1, 600.0, 0.1),
            (0, 1, 300.0, 0.2),
            (1, 0, 300.0, 0.3),
            (0, 1, 600.0, 0.4),
            (1, 0, 600.0, 0.5),
            (0, 1, 300.0, 0.6),
        ] {
            push_probe(&mut probes, 0, Phy::Bg, s, r, t, loss, &[]);
        }
        let ds = Dataset {
            probes,
            ..Dataset::default()
        };
        let ix = DatasetIndex::build(&ds);
        let v = DatasetView::new(&ds, &ix);
        let links: Vec<LinkView> = v.links_for_phy(Phy::Bg).collect();
        let by_time = |l: &LinkView| l.entries_by_time().map(|e| e.pos).collect::<Vec<_>>();
        // Equal times keep dataset order.
        assert_eq!(by_time(&links[0]), [1, 5, 0, 3]);
        let in_place: Vec<usize> = links[1].entries().map(|e| e.pos).collect();
        assert_eq!(by_time(&links[1]), in_place);
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
            let probes: Vec<Probe> = ds
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
        let ds = mixed_dataset_with(&[RateObs {
            rate: rate(11.0),
            loss: 0.9,
            snr_db: 5.0,
        }]);
        let ix = DatasetIndex::build(&ds);
        let v = DatasetView::new(&ds, &ix);
        let rates = [rate(11.0), rate(1.0), rate(11.0)];
        let stack = v.delivery_stack(Phy::Bg, NetworkId(0), &rates, 3);
        let probes: Vec<Probe> = ds.probes_for_network(NetworkId(0)).collect();
        let lin = DeliveryMatrix::from_probes(NetworkId(0), rate(11.0), 3, probes);
        assert_eq!(stack[0], lin);
        assert_eq!(stack[0], stack[2]);
    }

    #[test]
    fn columns_match_probe_methods() {
        let ds = mixed_dataset();
        let ix = DatasetIndex::build(&ds);
        assert!(
            ix.cols.get().is_none(),
            "columns wait for their first reader"
        );
        let cols = DatasetView::new(&ds, &ix).columns();
        for (pos, p) in ds.probes.iter().enumerate() {
            assert_eq!(cols.snr_db(pos), p.snr_db());
            assert_eq!(cols.snr_key(pos), p.snr_key());
            assert_eq!(cols.optimal(pos), p.optimal());
        }
        // Built once: later readers share the same columns, and an index
        // with columns still equals one without.
        assert!(std::ptr::eq(cols, DatasetView::new(&ds, &ix).columns()));
        assert_eq!(ix, DatasetIndex::build(&ds));
    }

    #[test]
    fn delivery_walks_leave_the_columns_unbuilt() {
        let ds = mixed_dataset();
        let ix = DatasetIndex::build(&ds);
        let v = DatasetView::new(&ds, &ix);
        for m in &ds.networks {
            let _ = v.delivery_stack(Phy::Bg, m.id, BG_PROBED, m.n_aps);
            let _ = v.network(Phy::Bg, m.id).map(|nv| nv.probes().count());
        }
        assert!(ix.cols.get().is_none());
        let _ = v.entries_for_phy(Phy::Bg).count();
        assert!(ix.cols.get().is_some());
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
    #[should_panic(expected = "stale DatasetIndex")]
    fn stale_index_is_rejected() {
        let mut ds = mixed_dataset();
        let ix = DatasetIndex::build(&ds);
        push_probe(&mut ds.probes, 0, Phy::Bg, 2, 0, 900.0, 0.1, &[]);
        let _ = DatasetView::new(&ds, &ix);
    }
}
