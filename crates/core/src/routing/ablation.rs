//! Routing ablations (DESIGN.md §8).
//!
//! Two design knobs the idealized §5 analysis abstracts away, restored here
//! so their cost can be measured:
//!
//! * **Candidate-set cap** — real ExOR schedules only a handful of
//!   forwarders (coordination cost grows with the set). Capping the
//!   candidate set at the `k` ETX-closest nodes shows how quickly the
//!   opportunistic gain saturates — the classic result that ~4 forwarders
//!   capture nearly everything.
//! * **Delivery floor** — the §5 pipeline drops links below a delivery
//!   floor before routing. Sweeping the floor shows how much of the gain
//!   rides on barely-alive links that a real protocol could not use.

use mesh11_trace::{ApId, DeliveryMatrix};

use crate::routing::etx::{EtxVariant, MIN_DELIVERY};
use crate::routing::shortest::PathTable;

/// Idealized opportunistic cost with the candidate set capped at the `cap`
/// ETX-closest usable neighbours (`None` = uncapped, the §5 analysis).
pub fn exor_capped(m: &DeliveryMatrix, ordering: &PathTable, cap: Option<usize>) -> Vec<f64> {
    exor_capped_many(m, ordering, &[cap])
        .pop()
        .expect("one cost table per cap")
}

/// [`exor_capped`] for several caps at once: one `n × n` cost table per
/// cap, in `caps` order.
///
/// A cap only truncates the ETX-sorted candidate list, so each
/// destination's source order and each source's sorted candidates are
/// built once and every cap's recurrence runs over a prefix of them. Each
/// table is the same computation, in the same order, as a lone call.
fn exor_capped_many(
    m: &DeliveryMatrix,
    ordering: &PathTable,
    caps: &[Option<usize>],
) -> Vec<Vec<f64>> {
    let n = m.n_aps();
    let mut costs = vec![vec![f64::INFINITY; n * n]; caps.len()];
    let mut cands: Vec<(usize, f64)> = Vec::with_capacity(n);
    for d in 0..n {
        let dist = |s: usize| ordering.cost(ApId(s as u32), ApId(d as u32));
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| dist(a).partial_cmp(&dist(b)).expect("no NaN costs"));
        for cost in &mut costs {
            cost[d * n + d] = 0.0;
        }
        for &s in &order {
            if s == d || !dist(s).is_finite() {
                continue;
            }
            cands.clear();
            cands.extend((0..n).filter(|&v| v != s).filter_map(|v| {
                let p = m.get(ApId(s as u32), ApId(v as u32));
                (p >= MIN_DELIVERY && dist(v) < dist(s)).then_some((v, p))
            }));
            cands.sort_by(|a, b| dist(a.0).partial_cmp(&dist(b.0)).expect("no NaN costs"));
            for (cost, &cap) in costs.iter_mut().zip(caps) {
                let used = &cands[..cap.map_or(cands.len(), |c| c.min(cands.len()))];
                if used.is_empty() {
                    cost[s * n + d] = dist(s);
                    continue;
                }
                let mut numer = 0.0;
                let mut none_heard = 1.0;
                for &(v, p) in used {
                    numer += p * none_heard * cost[v * n + d];
                    none_heard *= 1.0 - p;
                }
                cost[s * n + d] = (1.0 + numer) / (1.0 - none_heard);
            }
        }
    }
    costs
}

/// Mean ETX1 improvement as a function of the candidate cap: the ablation's
/// headline curve, `(cap, mean_improvement)` with `cap = usize::MAX` for
/// uncapped.
pub fn improvement_vs_cap(m: &DeliveryMatrix, caps: &[usize]) -> Vec<(usize, f64)> {
    let etx1 = PathTable::compute(m, EtxVariant::Etx1);
    let n = m.n_aps();
    let cap_opts: Vec<Option<usize>> = caps
        .iter()
        .map(|&cap| (cap != usize::MAX).then_some(cap))
        .collect();
    let tables = exor_capped_many(m, &etx1, &cap_opts);
    caps.iter()
        .zip(&tables)
        .map(|(&cap, exor)| {
            let mut imps = Vec::new();
            for (s, d) in etx1.reachable_pairs() {
                let e = etx1.cost(s, d);
                let x = exor[s.idx() * n + d.idx()];
                if x.is_finite() && x > 0.0 {
                    imps.push((e / x - 1.0).max(0.0));
                }
            }
            (cap, mesh11_stats::mean(&imps).unwrap_or(0.0))
        })
        .collect()
}

/// Sweeps the ETX delivery floor: `(floor, mean ETX1 path cost over pairs
/// reachable at every floor, reachable-pair count)`.
///
/// Raising the floor prunes barely-alive links: costs over the *common*
/// reachable set rise (good detours vanish) while coverage shrinks.
pub fn delivery_floor_sweep(m: &DeliveryMatrix, floors: &[f64]) -> Vec<(f64, f64, usize)> {
    // Build a censored copy of the matrix per floor.
    let censor = |floor: f64| {
        let mut c = DeliveryMatrix::new_zero(m.network, m.rate, m.n_aps());
        for (from, to, p) in m.directed_pairs() {
            if p >= floor {
                c.set(from, to, p);
            }
        }
        c
    };
    // Common reachable set = reachable at the strictest floor.
    let strictest = floors.iter().copied().fold(0.0, f64::max);
    let strict_paths = PathTable::compute(&censor(strictest), EtxVariant::Etx1);
    let common: Vec<(ApId, ApId)> = strict_paths.reachable_pairs().collect();

    floors
        .iter()
        .map(|&floor| {
            let paths = PathTable::compute(&censor(floor), EtxVariant::Etx1);
            let costs: Vec<f64> = common
                .iter()
                .map(|&(s, d)| paths.cost(s, d))
                .filter(|c| c.is_finite())
                .collect();
            let reachable = paths.reachable_pairs().count();
            (
                floor,
                mesh11_stats::mean(&costs).unwrap_or(f64::NAN),
                reachable,
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing::exor::ExorTable;
    use mesh11_phy::BitRate;
    use mesh11_trace::NetworkId;

    /// Source with three parallel relays of decreasing quality.
    fn fan() -> DeliveryMatrix {
        let mut m = DeliveryMatrix::new_zero(NetworkId(0), BitRate::bg_mbps(1.0).unwrap(), 5);
        for (relay, p) in [(1u32, 0.9), (2, 0.6), (3, 0.3)] {
            m.set(ApId(0), ApId(relay), p);
            m.set(ApId(relay), ApId(0), p);
            m.set(ApId(relay), ApId(4), 0.9);
            m.set(ApId(4), ApId(relay), 0.9);
        }
        m
    }

    #[test]
    fn uncapped_matches_exor_table() {
        let m = fan();
        let etx1 = PathTable::compute(&m, EtxVariant::Etx1);
        let reference = ExorTable::compute(&m, &etx1, EtxVariant::Etx1);
        let capped = exor_capped(&m, &etx1, None);
        let n = m.n_aps();
        for s in 0..n {
            for d in 0..n {
                let a = reference.cost(ApId(s as u32), ApId(d as u32));
                let b = capped[s * n + d];
                assert!(
                    (a.is_infinite() && b.is_infinite()) || (a - b).abs() < 1e-12,
                    "{s}→{d}: {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn shared_sort_tables_match_lone_calls() {
        // Every cap's table from one shared-sort pass must be bit for bit
        // the table of a lone call, whatever the other caps are.
        let m = fan();
        let etx1 = PathTable::compute(&m, EtxVariant::Etx1);
        let caps = [Some(2), None, Some(0), Some(1), Some(9)];
        let tables = exor_capped_many(&m, &etx1, &caps);
        for (&cap, table) in caps.iter().zip(&tables) {
            let lone = exor_capped(&m, &etx1, cap);
            let bits = |t: &[f64]| t.iter().map(|c| c.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(table), bits(&lone), "cap {cap:?}");
        }
    }

    #[test]
    fn improvement_grows_then_saturates_with_cap() {
        let m = fan();
        let rows = improvement_vs_cap(&m, &[1, 2, 3, usize::MAX]);
        // Monotone non-decreasing in the cap…
        for w in rows.windows(2) {
            assert!(w[1].1 >= w[0].1 - 1e-12, "{rows:?}");
        }
        // …and the full gain is achieved within the available relays.
        assert!((rows[2].1 - rows[3].1).abs() < 1e-12, "{rows:?}");
        // cap=1 strictly reduces cost vs cap=3 on this diversity-rich fan.
        assert!(rows[0].1 < rows[2].1, "{rows:?}");
    }

    #[test]
    fn cap_one_still_beats_nothing() {
        // With one candidate, ExOR degenerates to the ETX path: improvement
        // can exist only when the single candidate differs from the
        // shortest-path next hop in ETX... in a fan it does not.
        let m = fan();
        let rows = improvement_vs_cap(&m, &[1]);
        assert!(rows[0].1 >= 0.0);
    }

    #[test]
    fn floor_sweep_costs_rise_with_floor() {
        let m = fan();
        let rows = delivery_floor_sweep(&m, &[0.05, 0.35, 0.65]);
        // Coverage never grows and common-set costs never fall as the
        // floor rises (pruned links can only remove options).
        for w in rows.windows(2) {
            assert!(w[1].2 <= w[0].2, "{rows:?}");
            assert!(w[1].1 >= w[0].1 - 1e-12, "{rows:?}");
        }
        // Killing the 0.6 relay at floor 0.65 forces worse paths.
        assert!(rows[2].1 > rows[0].1, "{rows:?}");
    }

    #[test]
    fn floor_sweep_can_disconnect() {
        // 0 —(0.2)— 1 —(0.9)— 2: at floor 0.35 node 0 is cut off.
        let mut m = DeliveryMatrix::new_zero(NetworkId(0), BitRate::bg_mbps(1.0).unwrap(), 3);
        m.set(ApId(0), ApId(1), 0.2);
        m.set(ApId(1), ApId(0), 0.2);
        m.set(ApId(1), ApId(2), 0.9);
        m.set(ApId(2), ApId(1), 0.9);
        let rows = delivery_floor_sweep(&m, &[0.05, 0.35]);
        assert_eq!(rows[0].2, 6, "{rows:?}");
        assert_eq!(rows[1].2, 2, "{rows:?}");
    }
}
