//! The client association and traffic engine (paper §3.2).
//!
//! Clients move ([`crate::mobility`]), pick APs by strongest SNR with
//! hysteresis, and generate traffic. APs log per-client association
//! requests and data packets into 5-minute bins — the paper's aggregate
//! client data, on which all of §7 runs.
//!
//! Each step re-ranks every AP by a noisy SNR, but only the APs near the
//! top can change the outcome. So the noise-free part of each AP's SNR is
//! cached while the client stands still, every up AP draws its noise
//! uniforms in AP order (the RNG stream is that of the full evaluation),
//! and the Box–Muller transform runs only for the current AP and the APs
//! whose upper bound reaches the flake margin of the best lower bound.
//! The rest cannot be the best AP or a flake candidate. The full
//! evaluation is kept under `#[cfg(test)]` as the oracle.

use mesh11_stats::dist::{
    box_muller, derive_seed, derive_seed_str, normal_uniforms, poisson, radius_hi, standard_normal,
};
use mesh11_topo::NetworkSpec;
use mesh11_trace::{ApId, ClientSample};
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

use crate::config::SimConfig;
use crate::mobility::{deployment_bbox, spawn_population, ClientSpec, MobilityState};

/// Minimum SNR (dB) a client requires to join an AP.
pub const JOIN_MIN_DB: f64 = 10.0;
/// Below this SNR (dB) a client drops its association.
pub const DROP_DB: f64 = 5.0;
/// A candidate AP must beat the current one by this much (dB) to trigger a
/// switch — the standard roaming hysteresis.
pub const HYSTERESIS_DB: f64 = 6.0;
/// σ of the per-evaluation SNR measurement noise (dB).
const EVAL_NOISE_DB: f64 = 1.0;
/// Per-step probability that a client's driver re-elects an AP among the
/// near-equals (§7: "the client's driver or kernel decides to change APs
/// based on whatever heuristic it is using"). In dense indoor deployments
/// several APs sit within the margin, so this is the dominant churn source;
/// outdoors there is usually no alternative and the flake is a no-op.
const DRIVER_FLAKE_PROB: f64 = 0.10;
/// APs within this margin of the best SNR are driver-election candidates.
const DRIVER_FLAKE_MARGIN_DB: f64 = 5.0;

/// Simulates the client side of one network and returns its 5-minute
/// aggregate records in (bin, client, ap) order.
pub fn simulate_clients(spec: &NetworkSpec, cfg: &SimConfig) -> Vec<ClientSample> {
    simulate_clients_by(spec, cfg, simulate_client)
}

/// One client's timeline: [`simulate_client`], or the reference oracle in
/// tests.
type ClientFn = fn(
    &NetworkSpec,
    &SimConfig,
    &ClientSpec,
    &[f64],
    ((f64, f64), (f64, f64)),
    usize,
    u64,
) -> Vec<ClientSample>;

/// [`simulate_clients`] around a given per-client timeline.
fn simulate_clients_by(
    spec: &NetworkSpec,
    cfg: &SimConfig,
    client_fn: ClientFn,
) -> Vec<ClientSample> {
    let population = spawn_population(spec, cfg.clients_per_ap, cfg.client_horizon_s);
    let n_aps = spec.size();
    let bbox = deployment_bbox(spec);

    // Static per-(client, AP) shadowing, drawn independently of visit order.
    let shadow = |client: usize, ap: usize| -> f64 {
        let seed = derive_seed(
            derive_seed(derive_seed_str(spec.seed, "client-shadow"), client as u64),
            ap as u64,
        );
        let mut r = SmallRng::seed_from_u64(seed);
        spec.params.shadow_sigma_db * standard_normal(&mut r)
    };
    let shadows: Vec<Vec<f64>> = (0..population.len())
        .map(|c| (0..n_aps).map(|a| shadow(c, a)).collect())
        .collect();

    // Clients never interact: each one walks, evaluates APs and generates
    // traffic against static infrastructure. Every client has its own RNG
    // stream keyed by its id, so the output is independent of client count
    // and visit order. The population runs in turn: the campaign runner
    // already runs networks in parallel, one level above this.
    let engine_base = derive_seed_str(spec.seed, "client-engine");
    let mut out: Vec<ClientSample> = population
        .iter()
        .flat_map(|client| {
            let seed = derive_seed(engine_base, u64::from(client.id.0));
            let shadow = &shadows[client.id.0 as usize];
            client_fn(spec, cfg, client, shadow, bbox, n_aps, seed)
        })
        .collect();
    out.sort_by(|a, b| {
        (a.bin_start_s, a.client, a.ap)
            .partial_cmp(&(b.bin_start_s, b.client, b.ap))
            .expect("finite times")
    });
    out
}

/// Runs one client's full timeline: mobility, AP (re)selection, and
/// traffic, binned into 5-minute aggregates. Self-contained (own RNG, own
/// counters) so clients shard across threads.
fn simulate_client(
    spec: &NetworkSpec,
    cfg: &SimConfig,
    client: &ClientSpec,
    shadow: &[f64],
    bbox: ((f64, f64), (f64, f64)),
    n_aps: usize,
    seed: u64,
) -> Vec<ClientSample> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut state = MobilityState::new(client.home);
    let mut current: Option<usize> = None;

    // Dense (ap, bin) → (assoc_requests, data_pkts) counters, laid out
    // ap-major so draining them below reproduces the old
    // `BTreeMap<(u32, u64), _>` iteration order exactly. Silent cells are
    // dropped at emit, so density never reaches the output.
    let n_bins = ((cfg.client_horizon_s / cfg.client_bin_s).ceil() as usize).max(1);
    let mut counters: Vec<(u32, u32)> = vec![(0, 0); n_aps * n_bins];
    // Per-step scratch, hoisted out of the loop (refilled, never
    // reallocated).
    let mut snrs: Vec<f64> = vec![f64::NEG_INFINITY; n_aps];
    let mut cands: Vec<usize> = Vec::with_capacity(n_aps);
    // Per-AP evaluation state: whether the AP is up this step, its noise
    // uniforms, and the upper bound of its noisy SNR.
    let mut up: Vec<bool> = vec![false; n_aps];
    let mut draws: Vec<(f64, f64)> = vec![(0.0, 0.0); n_aps];
    let mut reach: Vec<f64> = vec![f64::NEG_INFINITY; n_aps];
    // Noise-free SNR of every AP (path loss plus shadowing) at
    // `means_pos`; static clients compute it once.
    let mut means: Vec<f64> = vec![f64::NEG_INFINITY; n_aps];
    let mut means_pos: Option<(f64, f64)> = None;

    let steps = (cfg.client_horizon_s / cfg.client_step_s).floor() as usize;
    for step in 0..steps {
        let t = step as f64 * cfg.client_step_s;
        let bin = (t / cfg.client_bin_s).floor() as usize;
        if t < client.arrive_s || t >= client.depart_s {
            current = None;
            continue;
        }
        state.step(client, bbox, t, cfg.client_step_s, &mut rng);
        let pos = state.pos;

        if means_pos != Some(pos) {
            for (ap, m) in means.iter_mut().enumerate() {
                let d = mesh11_channel::pathloss::distance(pos, spec.positions[ap]);
                *m = spec.params.mean_snr_at(d) + shadow[ap];
            }
            means_pos = Some(pos);
        }

        // Evaluate candidate APs (down APs are invisible). Every up AP
        // draws its noise uniforms in AP order; `floor` is the highest
        // lower bound of any up AP's noisy SNR, so the best SNR is at
        // least `floor`.
        let mut floor = f64::NEG_INFINITY;
        for ap in 0..n_aps {
            up[ap] = cfg.faults.ap_up(spec.id, ApId(ap as u32), t);
            if !up[ap] {
                continue;
            }
            draws[ap] = normal_uniforms(&mut rng);
            let r = EVAL_NOISE_DB * radius_hi(draws[ap].0);
            reach[ap] = means[ap] + r;
            floor = floor.max(means[ap] - r);
        }
        // An AP whose SNR cannot reach within the flake margin of `floor`
        // is neither the best AP nor a flake candidate: it keeps −∞ and
        // skips the transform. The current AP is always evaluated, since
        // the policy compares against it. The 1e-9 dB covers the rounding
        // of the bound sums.
        let cutoff = floor - DRIVER_FLAKE_MARGIN_DB - 1e-9;
        snrs.fill(f64::NEG_INFINITY);
        let mut best: Option<(usize, f64)> = None;
        let mut cur_snr = f64::NEG_INFINITY;
        for ap in 0..n_aps {
            if !up[ap] || (reach[ap] < cutoff && current != Some(ap)) {
                continue;
            }
            let (u1, u2) = draws[ap];
            let snr = means[ap] + EVAL_NOISE_DB * box_muller(u1, u2);
            snrs[ap] = snr;
            if current == Some(ap) {
                cur_snr = snr;
            }
            if best.is_none_or(|(_, s)| snr > s) {
                best = Some((ap, snr));
            }
        }

        // Association policy.
        let mut next = match (current, best) {
            (_, None) => None,
            (None, Some((ap, snr))) => (snr >= JOIN_MIN_DB).then_some(ap),
            (Some(cur), Some((ap, snr))) => {
                if !up[cur] {
                    // Current AP died under us.
                    (snr >= JOIN_MIN_DB).then_some(ap)
                } else if cur_snr < DROP_DB {
                    (snr >= JOIN_MIN_DB).then_some(ap)
                } else if ap != cur && snr > cur_snr + HYSTERESIS_DB {
                    Some(ap)
                } else {
                    Some(cur)
                }
            }
        };

        // Driver flakiness: occasionally re-elect among the near-equal
        // APs (only matters where deployments are dense enough to offer
        // alternatives).
        if next.is_some() {
            let flake: f64 = rng.random();
            if flake < DRIVER_FLAKE_PROB {
                if let Some((_, best_snr)) = best {
                    cands.clear();
                    cands.extend(
                        (0..n_aps)
                            .filter(|&ap| snrs[ap] >= best_snr - DRIVER_FLAKE_MARGIN_DB)
                            .filter(|&ap| snrs[ap] >= JOIN_MIN_DB),
                    );
                    if !cands.is_empty() {
                        next = Some(cands[rng.random_range(0..cands.len())]);
                    }
                }
            }
        }

        if next != current {
            if let Some(ap) = next {
                counters[ap * n_bins + bin].0 += 1;
            }
            current = next;
        }

        if let Some(ap) = current {
            let lambda = client.pkts_per_min * cfg.client_step_s / 60.0;
            let pkts = poisson(&mut rng, lambda) as u32;
            let entry = &mut counters[ap * n_bins + bin];
            entry.1 = entry.1.saturating_add(pkts);
        }
    }

    // Rows where a silent client neither associated nor moved data are
    // invisible to the logging infrastructure (the paper's data is likewise
    // traffic-driven) and are dropped.
    counters
        .into_iter()
        .enumerate()
        .filter(|(_, (assoc, pkts))| *assoc > 0 || *pkts > 0)
        .map(|(idx, (assoc, pkts))| ClientSample {
            network: spec.id,
            ap: ApId((idx / n_bins) as u32),
            client: client.id,
            bin_start_s: (idx % n_bins) as f64 * cfg.client_bin_s,
            assoc_requests: assoc,
            data_pkts: pkts,
        })
        .collect()
}

/// The pre-bound client timeline, kept verbatim as the oracle for
/// [`simulate_client`]: every AP's noisy SNR evaluated in full each step.
#[cfg(test)]
mod reference {
    use super::*;

    pub(super) fn simulate_clients(spec: &NetworkSpec, cfg: &SimConfig) -> Vec<ClientSample> {
        simulate_clients_by(spec, cfg, simulate_client)
    }

    /// Runs one client's full timeline: mobility, AP (re)selection, and
    /// traffic, binned into 5-minute aggregates. Self-contained (own RNG, own
    /// counters) so clients shard across threads.
    fn simulate_client(
        spec: &NetworkSpec,
        cfg: &SimConfig,
        client: &ClientSpec,
        shadow: &[f64],
        bbox: ((f64, f64), (f64, f64)),
        n_aps: usize,
        seed: u64,
    ) -> Vec<ClientSample> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut state = MobilityState::new(client.home);
        let mut current: Option<usize> = None;

        // Dense (ap, bin) → (assoc_requests, data_pkts) counters, laid out
        // ap-major so draining them below reproduces the old
        // `BTreeMap<(u32, u64), _>` iteration order exactly. Silent cells are
        // dropped at emit, so density never reaches the output.
        let n_bins = ((cfg.client_horizon_s / cfg.client_bin_s).ceil() as usize).max(1);
        let mut counters: Vec<(u32, u32)> = vec![(0, 0); n_aps * n_bins];
        // Per-step scratch, hoisted out of the loop (refilled, never
        // reallocated).
        let mut snrs: Vec<f64> = vec![f64::NEG_INFINITY; n_aps];
        let mut cands: Vec<usize> = Vec::with_capacity(n_aps);

        let steps = (cfg.client_horizon_s / cfg.client_step_s).floor() as usize;
        for step in 0..steps {
            let t = step as f64 * cfg.client_step_s;
            let bin = (t / cfg.client_bin_s).floor() as usize;
            if t < client.arrive_s || t >= client.depart_s {
                current = None;
                continue;
            }
            state.step(client, bbox, t, cfg.client_step_s, &mut rng);
            let pos = state.pos;

            // Evaluate candidate APs (down APs are invisible).
            snrs.fill(f64::NEG_INFINITY);
            let mut best: Option<(usize, f64)> = None;
            let mut cur_snr = f64::NEG_INFINITY;
            for ap in 0..n_aps {
                if !cfg.faults.ap_up(spec.id, ApId(ap as u32), t) {
                    continue;
                }
                let d = mesh11_channel::pathloss::distance(pos, spec.positions[ap]);
                let snr = spec.params.mean_snr_at(d)
                    + shadow[ap]
                    + EVAL_NOISE_DB * standard_normal(&mut rng);
                snrs[ap] = snr;
                if current == Some(ap) {
                    cur_snr = snr;
                }
                if best.is_none_or(|(_, s)| snr > s) {
                    best = Some((ap, snr));
                }
            }

            // Association policy.
            let mut next = match (current, best) {
                (_, None) => None,
                (None, Some((ap, snr))) => (snr >= JOIN_MIN_DB).then_some(ap),
                (Some(cur), Some((ap, snr))) => {
                    if !cfg.faults.ap_up(spec.id, ApId(cur as u32), t) {
                        // Current AP died under us.
                        (snr >= JOIN_MIN_DB).then_some(ap)
                    } else if cur_snr < DROP_DB {
                        (snr >= JOIN_MIN_DB).then_some(ap)
                    } else if ap != cur && snr > cur_snr + HYSTERESIS_DB {
                        Some(ap)
                    } else {
                        Some(cur)
                    }
                }
            };

            // Driver flakiness: occasionally re-elect among the near-equal
            // APs (only matters where deployments are dense enough to offer
            // alternatives).
            if next.is_some() {
                let flake: f64 = rng.random();
                if flake < DRIVER_FLAKE_PROB {
                    if let Some((_, best_snr)) = best {
                        cands.clear();
                        cands.extend(
                            (0..n_aps)
                                .filter(|&ap| snrs[ap] >= best_snr - DRIVER_FLAKE_MARGIN_DB)
                                .filter(|&ap| snrs[ap] >= JOIN_MIN_DB),
                        );
                        if !cands.is_empty() {
                            next = Some(cands[rng.random_range(0..cands.len())]);
                        }
                    }
                }
            }

            if next != current {
                if let Some(ap) = next {
                    counters[ap * n_bins + bin].0 += 1;
                }
                current = next;
            }

            if let Some(ap) = current {
                let lambda = client.pkts_per_min * cfg.client_step_s / 60.0;
                let pkts = poisson(&mut rng, lambda) as u32;
                let entry = &mut counters[ap * n_bins + bin];
                entry.1 = entry.1.saturating_add(pkts);
            }
        }

        // Rows where a silent client neither associated nor moved data are
        // invisible to the logging infrastructure (the paper's data is likewise
        // traffic-driven) and are dropped.
        counters
            .into_iter()
            .enumerate()
            .filter(|(_, (assoc, pkts))| *assoc > 0 || *pkts > 0)
            .map(|(idx, (assoc, pkts))| ClientSample {
                network: spec.id,
                ap: ApId((idx / n_bins) as u32),
                client: client.id,
                bin_start_s: (idx % n_bins) as f64 * cfg.client_bin_s,
                assoc_requests: assoc,
                data_pkts: pkts,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mesh11_topo::CampaignSpec;

    fn a_network(min_size: usize) -> NetworkSpec {
        CampaignSpec::small(8)
            .generate()
            .networks
            .into_iter()
            .find(|n| n.size() >= min_size)
            .expect("small campaign has a network this large")
    }

    #[test]
    fn produces_samples_deterministically() {
        let net = a_network(5);
        let mut cfg = SimConfig::quick();
        cfg.client_horizon_s = 3_600.0;
        let a = simulate_clients(&net, &cfg);
        let b = simulate_clients(&net, &cfg);
        assert_eq!(a, b);
        assert!(!a.is_empty(), "an hour of clients must produce samples");
    }

    #[test]
    fn samples_are_well_formed() {
        let net = a_network(5);
        let mut cfg = SimConfig::quick();
        cfg.client_horizon_s = 3_600.0;
        for s in simulate_clients(&net, &cfg) {
            assert_eq!(s.network, net.id);
            assert!((s.ap.0 as usize) < net.size());
            assert_eq!(s.bin_start_s % cfg.client_bin_s, 0.0);
            assert!(s.bin_start_s < cfg.client_horizon_s);
            assert!(
                s.is_active(),
                "only active (client, ap, bin) rows are logged"
            );
        }
    }

    #[test]
    fn static_majority_sticks_to_one_ap() {
        let net = a_network(7);
        let mut cfg = SimConfig::quick();
        cfg.client_horizon_s = 7_200.0;
        let samples = simulate_clients(&net, &cfg);
        // Count APs per client.
        let mut aps_per_client: std::collections::HashMap<u32, std::collections::HashSet<u32>> =
            Default::default();
        for s in &samples {
            aps_per_client.entry(s.client.0).or_default().insert(s.ap.0);
        }
        let single = aps_per_client.values().filter(|v| v.len() == 1).count();
        assert!(
            single * 2 >= aps_per_client.len(),
            "most clients should sit at one AP ({single}/{})",
            aps_per_client.len()
        );
    }

    /// A `side`×`side` grid network of `spacing_m` AP spacing.
    fn grid_network(
        side: usize,
        spacing_m: f64,
        env: mesh11_topo::EnvClass,
        seed: u64,
    ) -> NetworkSpec {
        let params = match env {
            mesh11_topo::EnvClass::Outdoor => mesh11_channel::ChannelParams::outdoor(),
            _ => mesh11_channel::ChannelParams::indoor(),
        };
        NetworkSpec {
            id: mesh11_trace::NetworkId(0),
            env,
            radios: vec![mesh11_phy::Phy::Bg],
            seed,
            positions: (0..side * side)
                .map(|i| ((i % side) as f64 * spacing_m, (i / side) as f64 * spacing_m))
                .collect(),
            params,
            geo: mesh11_topo::geo::GeoTag::for_network(0),
        }
    }

    /// The most popular AP of a client trace, by data packets.
    fn most_popular_ap(samples: &[ClientSample]) -> u32 {
        let mut pkts_per_ap: std::collections::BTreeMap<u32, u64> = Default::default();
        for s in samples {
            *pkts_per_ap.entry(s.ap.0).or_default() += u64::from(s.data_pkts);
        }
        pkts_per_ap.into_iter().max_by_key(|&(_, v)| v).unwrap().0
    }

    #[test]
    fn bounded_engine_matches_reference() {
        // The bound-first evaluation must reproduce the full evaluation
        // exactly: on a dense indoor grid, where many APs sit near the
        // best one, and an outdoor one; clean, under the demo fault plan,
        // and with the most popular AP dead from 1 800 s on, so its
        // clients' current AP dies under them.
        use crate::mobility::ClientKind;
        let cases: Vec<NetworkSpec> = (0..6u64)
            .flat_map(|seed| {
                [
                    grid_network(6, 14.0, mesh11_topo::EnvClass::Indoor, 31 + seed),
                    grid_network(5, 70.0, mesh11_topo::EnvClass::Outdoor, 131 + seed),
                ]
            })
            .collect();
        let mut mobile = [0usize; 2];
        for net in &cases {
            assert!(net.size() >= 20);
            let mut cfg = SimConfig::quick();
            mobile[usize::from(net.env == mesh11_topo::EnvClass::Outdoor)] +=
                spawn_population(net, cfg.clients_per_ap, cfg.client_horizon_s)
                    .iter()
                    .filter(|c| matches!(c.kind, ClientKind::Pedestrian | ClientKind::Commuter))
                    .count();
            let clean = simulate_clients(net, &cfg);
            assert!(!clean.is_empty(), "vacuous test");
            assert_eq!(
                clean,
                reference::simulate_clients(net, &cfg),
                "{:?} clean",
                net.env
            );
            cfg.faults = crate::fault::FaultPlan::demo(cfg.client_horizon_s);
            assert_eq!(
                simulate_clients(net, &cfg),
                reference::simulate_clients(net, &cfg),
                "{:?} demo plan",
                net.env
            );
            cfg.faults.outages.push(crate::fault::ApOutage {
                network: net.id,
                ap: ApId(most_popular_ap(&clean)),
                start_s: 1_800.0,
                end_s: cfg.client_horizon_s,
            });
            let faulted = simulate_clients(net, &cfg);
            assert_ne!(faulted, clean);
            assert_eq!(
                faulted,
                reference::simulate_clients(net, &cfg),
                "{:?} outage",
                net.env
            );
        }
        assert!(mobile.iter().all(|&n| n > 0), "mobile clients {mobile:?}");
    }

    #[test]
    fn outage_moves_clients() {
        let net = a_network(5);
        let mut cfg = SimConfig::quick();
        cfg.client_horizon_s = 3_600.0;
        let before = simulate_clients(&net, &cfg);
        // Find the most popular AP, then kill it for the whole trace.
        let mut pkts_per_ap: std::collections::HashMap<u32, u64> = Default::default();
        for s in &before {
            *pkts_per_ap.entry(s.ap.0).or_default() += u64::from(s.data_pkts);
        }
        let (&popular, _) = pkts_per_ap.iter().max_by_key(|(_, &v)| v).unwrap();
        cfg.faults.outages.push(crate::fault::ApOutage {
            network: net.id,
            ap: ApId(popular),
            start_s: 0.0,
            end_s: cfg.client_horizon_s,
        });
        let after = simulate_clients(&net, &cfg);
        assert!(
            after.iter().all(|s| s.ap.0 != popular),
            "no one can associate with a dead AP"
        );
    }
}
