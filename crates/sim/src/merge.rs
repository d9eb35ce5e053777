//! Ordered k-way merges of per-pair probe streams.
//!
//! Every pair simulation emits its reports already time-ordered, and the
//! report clock is shared (all pairs cut reports at the same ticks), so
//! assembling a network's probe table is a merge problem, not a sort
//! problem. Two orders are needed:
//!
//! * [`merge_time_stable`] reproduces what a *stable sort by time* of the
//!   concatenated streams returns — the (historical) emission order of
//!   `simulate_probes`: within one report tick, stream (pair) order, and
//!   within one stream, emission order (forward direction before reverse).
//! * [`merge_report_order`] reproduces the dataset order the campaign
//!   runner used to produce by re-sorting on `(time, phy, sender,
//!   receiver)`. That key is unique within a network (each directed link
//!   reports at most once per tick per radio), so the merge is exact, not
//!   merely equivalent-up-to-ties.
//!
//! Both run in O(N log k) via a cursor heap, replacing the old
//! collect → flatten → sort (O(N log N), with a full re-sort again at the
//! network level).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use mesh11_trace::{ProbeSet, ProbeTable};

/// `f64` report times wrapped with a total order (probe times are always
/// finite; the old sort paths unwrapped `partial_cmp` the same way).
#[derive(PartialEq, PartialOrd)]
struct TotalF64(f64);

impl Eq for TotalF64 {}

#[allow(clippy::derive_ord_xor_partial_ord)]
impl Ord for TotalF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.partial_cmp(other).expect("finite probe times")
    }
}

/// Appends the merge of `streams` to `out`: each popped set's header and
/// observation slice are copied over, and each stream is dropped with the
/// merge.
fn kway_merge_into<K: Ord>(
    out: &mut ProbeTable,
    streams: Vec<ProbeTable>,
    key: impl Fn(&ProbeSet, usize) -> K,
) {
    let sets = streams.iter().map(ProbeTable::len).sum();
    let obs = streams.iter().map(|s| s.observations().len()).sum();
    out.reserve(sets, obs);
    let mut heads = vec![0usize; streams.len()];
    let mut heap: BinaryHeap<Reverse<(K, usize)>> = BinaryHeap::with_capacity(streams.len());
    for (i, s) in streams.iter().enumerate() {
        if let Some(head) = s.rows().first() {
            heap.push(Reverse((key(head, i), i)));
        }
    }
    while let Some(Reverse((_, i))) = heap.pop() {
        let s = &streams[i];
        out.push(s.get(heads[i]));
        heads[i] += 1;
        if let Some(head) = s.rows().get(heads[i]) {
            heap.push(Reverse((key(head, i), i)));
        }
    }
}

/// Merges time-ordered streams into the order a stable sort by `time_s` of
/// their concatenation would produce (ties broken by stream index, then
/// within-stream position).
pub(crate) fn merge_time_stable(streams: Vec<ProbeTable>) -> ProbeTable {
    let mut out = ProbeTable::new();
    kway_merge_into(&mut out, streams, |p, i| (TotalF64(p.time_s), i));
    out
}

/// Appends the merge of streams that are each ordered by `(time, phy,
/// sender, receiver)` to `out` — one network's slice of the campaign
/// dataset order.
pub(crate) fn merge_report_order_into(out: &mut ProbeTable, streams: Vec<ProbeTable>) {
    kway_merge_into(out, streams, |p, _| {
        (TotalF64(p.time_s), p.phy, p.sender, p.receiver)
    });
}

/// [`merge_report_order_into`] a fresh table.
pub(crate) fn merge_report_order(streams: Vec<ProbeTable>) -> ProbeTable {
    let mut out = ProbeTable::new();
    merge_report_order_into(&mut out, streams);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mesh11_phy::Phy;
    use mesh11_trace::{ApId, NetworkId, Probe, RateObs};

    /// A synthetic pair stream: both directions every `step` seconds, like
    /// the engine's per-pair output. Each set carries one observation whose
    /// SNR tags its stream and position, so a merge that paired a header
    /// with the wrong observations would show.
    fn pair_stream(a: u32, b: u32, phy: Phy, ticks: &[f64]) -> ProbeTable {
        let mut out = ProbeTable::new();
        for &t in ticks {
            for (s, r) in [(a, b), (b, a)] {
                out.push(Probe {
                    network: NetworkId(0),
                    phy,
                    time_s: t,
                    sender: ApId(s),
                    receiver: ApId(r),
                    obs: &[RateObs {
                        rate: phy.base_rate(),
                        loss: 0.0,
                        snr_db: f64::from(a * 100 + b * 10) + t / 1e4 + f64::from(s),
                    }],
                });
            }
        }
        out
    }

    /// The streams concatenated, then stably sorted by `cmp`.
    fn sorted_concat(
        streams: &[ProbeTable],
        cmp: impl Fn(&Probe<'_>, &Probe<'_>) -> std::cmp::Ordering,
    ) -> ProbeTable {
        let mut all: Vec<Probe<'_>> = streams.iter().flatten().collect();
        all.sort_by(|x, y| cmp(x, y));
        all.into_iter().collect()
    }

    #[test]
    fn time_stable_equals_stable_sort() {
        let streams = vec![
            pair_stream(0, 1, Phy::Bg, &[300.0, 600.0, 900.0]),
            pair_stream(0, 2, Phy::Bg, &[300.0, 900.0]), // a silent round
            ProbeTable::new(),                           // a pair that never reported
            pair_stream(1, 2, Phy::Bg, &[600.0, 900.0]),
        ];
        let expect = sorted_concat(&streams, |x, y| {
            x.time_s.partial_cmp(&y.time_s).expect("finite")
        });
        assert_eq!(merge_time_stable(streams), expect);
    }

    #[test]
    fn report_order_equals_full_sort() {
        let streams = vec![
            pair_stream(2, 3, Phy::Bg, &[300.0, 600.0]),
            pair_stream(0, 1, Phy::Ht, &[300.0]),
            pair_stream(0, 1, Phy::Bg, &[300.0, 600.0]),
            pair_stream(1, 3, Phy::Bg, &[600.0]),
        ];
        let expect = sorted_concat(&streams, |a, b| {
            (a.time_s, a.phy, a.sender, a.receiver)
                .partial_cmp(&(b.time_s, b.phy, b.sender, b.receiver))
                .expect("finite")
        });
        assert_eq!(merge_report_order(streams), expect);
    }

    #[test]
    fn no_streams_is_empty() {
        assert!(merge_time_stable(Vec::new()).is_empty());
        assert!(merge_report_order(Vec::new()).is_empty());
    }
}
