//! AP → client probe measurement: §4.6's caveat, made testable.
//!
//! The paper is careful about scope: "Our results may translate to clients
//! that are mostly static, but … movement in the environment may render
//! even per-link training less effective" — and it cannot check, because
//! its probes are inter-AP only. Our simulator can: this module runs the
//! same probing pipeline over *downlink client channels*, producing probe
//! sets whose receiver is a client (mapped into id space above the APs),
//! tagged static or mobile so the §4 analyses can be re-run per class.
//!
//! The channel model matches the AP–AP one (per-pair shadowing, per-frame
//! fading, hidden interference floors) except that a mobile client's mean
//! SNR follows its position — the one ingredient the paper predicted would
//! break per-link training.
//!
//! ## Hot-path layout
//!
//! The engine shards *per client*, mirroring [`crate::probe_engine`]'s
//! per-pair layout: each client owns a derived RNG stream
//! (`derive_seed(base, client_id)`, the same recipe
//! [`crate::client_engine`] uses), so mobility, fades and success coins
//! are independent of population iteration order and thread count. A
//! client's loss windows are one bit-packed ring block
//! ([`PairWindows::with_lanes`], one lane per AP); cache-compact per-rate
//! success rows ([`CompactRow`]) and a static client's min-mean-SNR AP
//! gate are hoisted out of the tick loop; report observations fill a
//! reused scratch buffer. Per-client report streams come back time-ordered and reassemble
//! with the crate's k-way stable merge, reproducing the historical
//! (time, client, ap) emission order at any thread count.
//!
//! Re-keying the RNG per client changed this module's output bytes once
//! (see the golden swap recorded in `CHANGES.md`); the `reference` module
//! below keeps the sequential single-stream engine as the oracle for the
//! statistical-equivalence tests that justified the swap.

use std::collections::BTreeSet;

use mesh11_channel::pathloss::distance;
use mesh11_channel::PolarNormal;
use mesh11_phy::{BitRate, CompactRow, Phy, SuccessTable};
use mesh11_stats::dist::{derive_seed, derive_seed_str, standard_normal};
use mesh11_topo::NetworkSpec;
use mesh11_trace::{ApId, ProbeTable};
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use rayon::prelude::*;

use crate::config::SimConfig;
use crate::merge::merge_time_stable;
use crate::mobility::{deployment_bbox, spawn_population, ClientSpec, MobilityState};
use crate::probe_engine::observations_into;
use crate::ring::{probe_slots, PairWindows};

/// Downlink probe sets plus the receiver-classification the analysis needs.
#[derive(Debug, Clone, PartialEq)]
pub struct ClientProbeTrace {
    /// Probe sets with `receiver = ApId(n_aps + client)`.
    pub probes: ProbeTable,
    /// Pseudo-receiver ids of *static* clients; everything else is mobile.
    pub static_receivers: BTreeSet<u32>,
    /// Pseudo-receiver ids of fast movers (≥ 5 m/s); the hardest class for
    /// SNR-keyed adaptation — an 800 s loss window spans kilometres.
    pub fast_receivers: BTreeSet<u32>,
    /// Clients simulated (the spawned population size).
    pub clients: usize,
}

/// Everything per-network the per-client kernels share: the population and
/// the statically keyed per-(client, AP) channel draws.
struct NetPrep {
    population: Vec<ClientSpec>,
    bbox: ((f64, f64), (f64, f64)),
    /// `shadows[client][ap]`, keyed independently of sampling order.
    shadows: Vec<Vec<f64>>,
    /// `intfs[client][ap]`, likewise.
    intfs: Vec<Vec<f64>>,
    /// Base of the per-client derived RNG streams.
    coin_base: u64,
}

fn prep_network(spec: &NetworkSpec, cfg: &SimConfig) -> NetPrep {
    let n_aps = spec.size();
    let population = spawn_population(spec, cfg.clients_per_ap, cfg.client_horizon_s);

    // Static per-(ap, client) draws, keyed independently of sampling order
    // (and of the per-client timeline streams below, so the re-keyed
    // engine sees the same shadowing field the sequential one did).
    let pair_seed = |ap: usize, client: usize, label: &str| -> u64 {
        derive_seed_str(
            derive_seed(
                derive_seed(derive_seed_str(spec.seed, "client-probes"), ap as u64),
                client as u64,
            ),
            label,
        )
    };
    let shadow = |ap: usize, client: usize| -> f64 {
        let mut r = SmallRng::seed_from_u64(pair_seed(ap, client, "shadow"));
        spec.params.shadow_sigma_db * standard_normal(&mut r)
    };
    let interference = |ap: usize, client: usize| -> f64 {
        use mesh11_stats::dist::DrawExt;
        let mut r = SmallRng::seed_from_u64(pair_seed(ap, client, "intf"));
        if r.random::<f64>() < spec.params.interference_prob {
            r.draw(spec.params.interference_db)
                .min(spec.params.interference_cap_db)
        } else {
            0.0
        }
    };
    let shadows: Vec<Vec<f64>> = (0..population.len())
        .map(|c| (0..n_aps).map(|a| shadow(a, c)).collect())
        .collect();
    let intfs: Vec<Vec<f64>> = (0..population.len())
        .map(|c| (0..n_aps).map(|a| interference(a, c)).collect())
        .collect();

    NetPrep {
        population,
        bbox: deployment_bbox(spec),
        shadows,
        intfs,
        coin_base: derive_seed_str(spec.seed, "client-probe-coins"),
    }
}

/// Recomputes the per-AP mean SNRs at `pos` and the list of APs above the
/// measurement gate. Static clients call this once; walkers once per tick.
fn refresh_gate(
    spec: &NetworkSpec,
    min_mean_snr_db: f64,
    pos: (f64, f64),
    shadow: &[f64],
    means: &mut [f64],
    gated: &mut Vec<usize>,
) {
    gated.clear();
    for (ap, &ap_pos) in spec.positions.iter().enumerate() {
        let mean = spec.params.mean_snr_at(distance(pos, ap_pos)) + shadow[ap];
        means[ap] = mean;
        if mean >= min_mean_snr_db {
            gated.push(ap);
        }
    }
}

/// Runs the full downlink probe timeline of one client against every AP of
/// its network. Self-contained (own RNG stream, own ring block) so clients
/// shard across threads; the caller supplies the hoisted per-rate rows and
/// the client's statically keyed channel draws.
#[allow(clippy::too_many_arguments)]
fn simulate_one_client(
    spec: &NetworkSpec,
    cfg: &SimConfig,
    rates: &[BitRate],
    rows: &[CompactRow],
    client: &ClientSpec,
    shadow: &[f64],
    intf: &[f64],
    bbox: ((f64, f64), (f64, f64)),
    seed: u64,
) -> ProbeTable {
    let phy = Phy::Bg;
    let n_aps = spec.size();
    let ci = client.id.0 as usize;
    let mut rng = SmallRng::seed_from_u64(seed);
    // Marsaglia-polar N(0,1) — the kernel's hottest RNG call (seven per
    // (tick, AP)); shared with the channel crate's batch fade kernels.
    let mut fades = PolarNormal::default();
    let fade_sigma = spec.params.fade_sigma_db;
    let mut state = MobilityState::new(client.home);
    let slots = probe_slots(cfg.window_s, cfg.probe_interval_s);
    // One contiguous ring block: a lane per AP, advanced independently
    // (an AP's lane only ticks while it passes the client's SNR gate —
    // exactly when the reference `LossWindow` saw a record).
    let mut win = PairWindows::with_lanes(n_aps, rates.len(), slots);

    let is_static = client.speed_mps <= 0.0;
    let mut means = vec![f64::NAN; n_aps];
    let mut gated: Vec<usize> = Vec::with_capacity(n_aps);
    if is_static {
        // A static client's position never changes: means and gate are
        // loop invariants (its mobility steps draw nothing either).
        refresh_gate(
            spec,
            cfg.min_mean_snr_db,
            client.home,
            shadow,
            &mut means,
            &mut gated,
        );
    }

    let mut out = ProbeTable::new();
    // `t` accumulates additively (it is the reported time and must stay on
    // the same float grid as the sequential engine's); `tick` is the
    // integer slot index keying the ring.
    let mut t = cfg.probe_interval_s;
    let mut tick: u64 = 1;
    let mut next_report = cfg.report_interval_s;
    let eps = 1e-9;

    while t <= cfg.client_horizon_s + eps {
        let active = t >= client.arrive_s && t < client.depart_s;
        if active {
            if !is_static {
                state.step(client, bbox, t, cfg.probe_interval_s, &mut rng);
                refresh_gate(
                    spec,
                    cfg.min_mean_snr_db,
                    state.pos,
                    shadow,
                    &mut means,
                    &mut gated,
                );
            }
            for &ap in &gated {
                win.advance(ap, tick);
                let mean = means[ap];
                let floor = intf[ap];
                for (ri, row) in rows.iter().enumerate() {
                    let reported = mean + fade_sigma * fades.next(&mut rng);
                    let p = row.success(reported - floor);
                    // A saturated curve decides the coin without a draw
                    // (a uniform in [0, 1) is always < 1 and never < 0).
                    let received = if p >= 1.0 {
                        true
                    } else if p <= 0.0 {
                        false
                    } else {
                        rng.random::<f64>() < p
                    };
                    win.record(ap, ri, received, reported);
                }
            }
        }

        if t + eps >= next_report {
            if active {
                for ap in 0..n_aps {
                    if observations_into(&win, ap, rates, &mut out) {
                        out.seal(spec.id, phy, t, ApId(ap as u32), ApId((n_aps + ci) as u32));
                    }
                }
            }
            next_report += cfg.report_interval_s;
        }
        t += cfg.probe_interval_s;
        tick += 1;
    }
    out
}

fn classify(population: &[ClientSpec], n_aps: usize) -> (BTreeSet<u32>, BTreeSet<u32>) {
    let static_receivers = population
        .iter()
        .enumerate()
        .filter(|(_, c)| c.speed_mps <= 0.0)
        .map(|(ci, _)| (n_aps + ci) as u32)
        .collect();
    let fast_receivers = population
        .iter()
        .enumerate()
        .filter(|(_, c)| c.speed_mps >= 5.0)
        .map(|(ci, _)| (n_aps + ci) as u32)
        .collect();
    (static_receivers, fast_receivers)
}

/// Simulates downlink (AP → client) probes over the client horizon for one
/// network's b/g radio.
pub fn simulate_client_probes(spec: &NetworkSpec, cfg: &SimConfig) -> ClientProbeTrace {
    let table = mesh11_phy::shared_success_table(mesh11_phy::PerModel::default());
    simulate_client_probes_with_table(spec, cfg, table)
}

/// As [`simulate_client_probes`], with a caller-provided success table
/// (building one per network is most of the sequential engine's cost).
pub fn simulate_client_probes_with_table(
    spec: &NetworkSpec,
    cfg: &SimConfig,
    table: &SuccessTable,
) -> ClientProbeTrace {
    simulate_client_probes_batch(&[spec], cfg, table)
        .pop()
        .expect("one trace per spec")
}

/// Simulates the downlink probe pass of several networks as one flat
/// (network, client) work list over the rayon scheduler — the client-path
/// analogue of the campaign runner's global pair scheduler. Returns one
/// trace per spec, in spec order, independent of thread count.
pub fn simulate_client_probes_batch(
    specs: &[&NetworkSpec],
    cfg: &SimConfig,
    table: &SuccessTable,
) -> Vec<ClientProbeTrace> {
    let rates = Phy::Bg.probed_rates();
    // Cache-compact copies of the success rows: the seven full rows are
    // 8 KB each (56 KB — bigger than L1), the transition bands together
    // stay resident, and saturated queries touch no grid memory at all.
    let rows: Vec<CompactRow> = rates.iter().map(|&r| table.rate_row(r).compact()).collect();

    let preps: Vec<NetPrep> = specs
        .par_iter()
        .map(|spec| prep_network(spec, cfg))
        .collect();
    let items: Vec<(usize, usize)> = preps
        .iter()
        .enumerate()
        .flat_map(|(si, p)| (0..p.population.len()).map(move |ci| (si, ci)))
        .collect();
    let streams: Vec<ProbeTable> = items
        .par_iter()
        .map(|&(si, ci)| {
            let p = &preps[si];
            let client = &p.population[ci];
            simulate_one_client(
                specs[si],
                cfg,
                rates,
                &rows,
                client,
                &p.shadows[ci],
                &p.intfs[ci],
                p.bbox,
                derive_seed(p.coin_base, u64::from(client.id.0)),
            )
        })
        .collect();

    // Slice the stream list back per network (contiguous by construction).
    // Per-client streams are time-ordered with APs ascending within a
    // report tick, and the stable merge breaks time ties by stream (client)
    // index — reproducing the sequential (time, client, ap) emission order.
    let mut stream_iter = streams.into_iter();
    preps
        .iter()
        .zip(specs)
        .map(|(p, spec)| {
            let net_streams: Vec<ProbeTable> =
                (&mut stream_iter).take(p.population.len()).collect();
            let (static_receivers, fast_receivers) = classify(&p.population, spec.size());
            ClientProbeTrace {
                probes: merge_time_stable(net_streams),
                static_receivers,
                fast_receivers,
                clients: p.population.len(),
            }
        })
        .collect()
}

/// The original sequential engine — one shared RNG stream across the whole
/// population, per-rate `VecDeque` windows, per-call success table — kept
/// verbatim as the oracle for the statistical-equivalence tests.
#[cfg(test)]
pub(crate) mod reference {
    use super::*;
    use crate::window::LossWindow;
    use mesh11_trace::{Probe, RateObs};

    pub(crate) fn simulate_client_probes_with_table(
        spec: &NetworkSpec,
        cfg: &SimConfig,
        table: &SuccessTable,
    ) -> ClientProbeTrace {
        let phy = Phy::Bg;
        let rates = phy.probed_rates();
        let n_aps = spec.size();

        let population = spawn_population(spec, cfg.clients_per_ap, cfg.client_horizon_s);
        let bbox = deployment_bbox(spec);
        let mut states: Vec<MobilityState> = population
            .iter()
            .map(|c| MobilityState::new(c.home))
            .collect();

        let pair_seed = |ap: usize, client: usize, label: &str| -> u64 {
            derive_seed_str(
                derive_seed(
                    derive_seed(derive_seed_str(spec.seed, "client-probes"), ap as u64),
                    client as u64,
                ),
                label,
            )
        };
        let shadow = |ap: usize, client: usize| -> f64 {
            let mut r = SmallRng::seed_from_u64(pair_seed(ap, client, "shadow"));
            spec.params.shadow_sigma_db * standard_normal(&mut r)
        };
        let interference = |ap: usize, client: usize| -> f64 {
            use mesh11_stats::dist::DrawExt;
            let mut r = SmallRng::seed_from_u64(pair_seed(ap, client, "intf"));
            if r.random::<f64>() < spec.params.interference_prob {
                r.draw(spec.params.interference_db)
                    .min(spec.params.interference_cap_db)
            } else {
                0.0
            }
        };
        let shadows: Vec<Vec<f64>> = (0..n_aps)
            .map(|a| (0..population.len()).map(|c| shadow(a, c)).collect())
            .collect();
        let intfs: Vec<Vec<f64>> = (0..n_aps)
            .map(|a| (0..population.len()).map(|c| interference(a, c)).collect())
            .collect();

        let mut rng = SmallRng::seed_from_u64(derive_seed_str(spec.seed, "client-probe-coins"));
        let mut windows: Vec<Vec<Vec<LossWindow>>> = (0..population.len())
            .map(|_| {
                (0..n_aps)
                    .map(|_| {
                        (0..rates.len())
                            .map(|_| LossWindow::new(cfg.window_s))
                            .collect()
                    })
                    .collect()
            })
            .collect();
        let mut last_snr = vec![vec![vec![f64::NAN; rates.len()]; n_aps]; population.len()];

        let mut probes = ProbeTable::new();
        let mut t = cfg.probe_interval_s;
        let mut next_report = cfg.report_interval_s;
        let eps = 1e-9;
        while t <= cfg.client_horizon_s + eps {
            for (ci, client) in population.iter().enumerate() {
                if t < client.arrive_s || t >= client.depart_s {
                    continue;
                }
                states[ci].step(client, bbox, t, cfg.probe_interval_s, &mut rng);
                let pos = states[ci].pos;
                for (ap, &ap_pos) in spec.positions.iter().enumerate() {
                    let mean = spec.params.mean_snr_at(distance(pos, ap_pos)) + shadows[ap][ci];
                    if mean < cfg.min_mean_snr_db {
                        continue;
                    }
                    for (ri, &rate) in rates.iter().enumerate() {
                        let fade = spec.params.fade_sigma_db * standard_normal(&mut rng);
                        let reported = mean + fade;
                        let effective = reported - intfs[ap][ci];
                        let received = rng.random::<f64>() < table.success(rate, effective);
                        windows[ci][ap][ri].record(t, received);
                        if received {
                            last_snr[ci][ap][ri] = reported;
                        }
                    }
                }
            }

            if t + eps >= next_report {
                for (ci, client) in population.iter().enumerate() {
                    if t < client.arrive_s || t >= client.depart_s {
                        continue;
                    }
                    for ap in 0..n_aps {
                        let obs: Vec<RateObs> = rates
                            .iter()
                            .enumerate()
                            .filter_map(|(ri, &rate)| {
                                let w = &windows[ci][ap][ri];
                                (w.received() > 0).then(|| RateObs {
                                    rate,
                                    loss: w.loss().expect("non-empty window"),
                                    snr_db: last_snr[ci][ap][ri],
                                })
                            })
                            .collect();
                        if !obs.is_empty() {
                            probes.push(Probe {
                                network: spec.id,
                                phy,
                                time_s: t,
                                sender: ApId(ap as u32),
                                receiver: ApId((n_aps + ci) as u32),
                                obs: &obs,
                            });
                        }
                    }
                }
                next_report += cfg.report_interval_s;
            }
            t += cfg.probe_interval_s;
        }

        let clients = population.len();
        let (static_receivers, fast_receivers) = classify(&population, n_aps);
        ClientProbeTrace {
            probes,
            static_receivers,
            fast_receivers,
            clients,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mesh11_phy::CalibratedPhy;
    use mesh11_topo::CampaignSpec;
    use proptest::prelude::*;

    fn a_network() -> NetworkSpec {
        CampaignSpec::small(19)
            .generate()
            .networks
            .into_iter()
            .find(|n| n.has_bg() && n.size() >= 6)
            .expect("small campaign has a mid-size b/g network")
    }

    fn quick_cfg() -> SimConfig {
        let mut cfg = SimConfig::quick();
        cfg.client_horizon_s = 3_600.0;
        cfg
    }

    fn a_table() -> SuccessTable {
        SuccessTable::new(&CalibratedPhy::new())
    }

    #[test]
    fn produces_client_probe_sets() {
        let net = a_network();
        let trace = simulate_client_probes(&net, &quick_cfg());
        assert!(!trace.probes.is_empty());
        let n = net.size() as u32;
        for p in &trace.probes {
            assert!(p.sender.0 < n, "senders are APs");
            assert!(p.receiver.0 >= n, "receivers are clients");
            assert!(!p.obs.is_empty());
        }
        assert!(!trace.static_receivers.is_empty(), "population has statics");
        assert!(
            trace.static_receivers.is_disjoint(&trace.fast_receivers),
            "a client cannot be both static and fast"
        );
        assert!(trace.clients >= trace.static_receivers.len());
    }

    #[test]
    fn deterministic() {
        let net = a_network();
        let a = simulate_client_probes(&net, &quick_cfg());
        let b = simulate_client_probes(&net, &quick_cfg());
        assert_eq!(a, b);
    }

    #[test]
    fn batch_matches_per_network_runs() {
        // The global (network, client) scheduler must produce exactly the
        // per-network results, network by network.
        let nets: Vec<NetworkSpec> = CampaignSpec::small(19)
            .generate()
            .networks
            .into_iter()
            .filter(|n| n.has_bg() && n.size() >= 5)
            .take(3)
            .collect();
        let refs: Vec<&NetworkSpec> = nets.iter().collect();
        let cfg = quick_cfg();
        let table = a_table();
        let batch = simulate_client_probes_batch(&refs, &cfg, &table);
        assert_eq!(batch.len(), nets.len());
        for (spec, got) in nets.iter().zip(&batch) {
            let solo = simulate_client_probes_with_table(spec, &cfg, &table);
            assert_eq!(*got, solo);
        }
    }

    #[test]
    fn static_links_are_steadier_than_mobile_ones() {
        // The §4.6 mechanism in miniature: per-link SNR spread over time is
        // larger for mobile receivers.
        let net = a_network();
        let trace = simulate_client_probes(&net, &quick_cfg());
        use std::collections::BTreeMap;
        let mut per_link: BTreeMap<(u32, u32), Vec<f64>> = BTreeMap::new();
        for p in &trace.probes {
            per_link
                .entry((p.sender.0, p.receiver.0))
                .or_default()
                .push(p.snr_db());
        }
        let (mut stat, mut mob) = (Vec::new(), Vec::new());
        for ((_, rx), snrs) in per_link {
            if let Some(sd) = mesh11_stats::stddev(&snrs) {
                if trace.static_receivers.contains(&rx) {
                    stat.push(sd);
                } else {
                    mob.push(sd);
                }
            }
        }
        let stat_med = mesh11_stats::median(&stat).expect("static links exist");
        let mob_med = mesh11_stats::median(&mob).expect("mobile links exist");
        assert!(
            mob_med > stat_med,
            "mobile per-link SNR spread ({mob_med:.2} dB) must exceed static ({stat_med:.2} dB)"
        );
    }

    #[test]
    fn empty_horizon_is_empty() {
        let net = a_network();
        let mut cfg = SimConfig::quick();
        cfg.client_horizon_s = 0.0;
        let trace = simulate_client_probes(&net, &cfg);
        assert!(trace.probes.is_empty());
        assert!(trace.static_receivers.is_empty());
        assert!(trace.fast_receivers.is_empty());
        assert_eq!(trace.clients, 0);
    }

    /// Per-class summary: (probe sets, mean reported SNR, mean loss).
    fn class_stats(trace: &ClientProbeTrace) -> [(usize, f64, f64); 3] {
        let mut out = [(0usize, 0.0f64, 0.0f64); 3];
        let mut loss_n = [0usize; 3];
        for p in &trace.probes {
            let k = if trace.static_receivers.contains(&p.receiver.0) {
                0
            } else if trace.fast_receivers.contains(&p.receiver.0) {
                2
            } else {
                1
            };
            out[k].0 += 1;
            out[k].1 += p.snr_db();
            for o in p.obs {
                out[k].2 += o.loss;
                loss_n[k] += 1;
            }
        }
        for k in 0..3 {
            if out[k].0 > 0 {
                out[k].1 /= out[k].0 as f64;
            }
            if loss_n[k] > 0 {
                out[k].2 /= loss_n[k] as f64;
            }
        }
        out
    }

    /// The golden-swap justification: re-keying the RNG per client changes
    /// the bytes but must not move the physics. Per class, the sharded
    /// engine and the sequential single-stream oracle must agree on probe
    /// set counts, mean reported SNR, and mean windowed loss.
    #[test]
    fn statistically_equivalent_to_sequential_reference() {
        let net = a_network();
        let mut cfg = quick_cfg();
        cfg.client_horizon_s = 7_200.0;
        // A population big enough that every class produces sets and the
        // mobile-class means average over many independent trajectories
        // (re-keying legitimately resamples each walker's path; only the
        // ensemble statistics are invariant).
        cfg.clients_per_ap = 24.0;
        let table = a_table();
        let flat = simulate_client_probes_with_table(&net, &cfg, &table);
        let oracle = reference::simulate_client_probes_with_table(&net, &cfg, &table);

        // The population and its statically keyed channel draws are shared
        // verbatim, so classification is identical, not just close.
        assert_eq!(flat.static_receivers, oracle.static_receivers);
        assert_eq!(flat.fast_receivers, oracle.fast_receivers);
        assert_eq!(flat.clients, oracle.clients);

        let f = class_stats(&flat);
        let o = class_stats(&oracle);
        for (k, name) in ["static", "pedestrian", "fast"].iter().enumerate() {
            assert!(o[k].0 > 0, "{name}: oracle produced no sets — vacuous");
            let rel = (f[k].0 as f64 - o[k].0 as f64).abs() / o[k].0 as f64;
            assert!(
                rel < 0.25 || (f[k].0 as i64 - o[k].0 as i64).abs() <= 20,
                "{name}: set count {} vs {}",
                f[k].0,
                o[k].0
            );
            assert!(
                (f[k].1 - o[k].1).abs() < 2.0,
                "{name}: mean SNR {:.2} vs {:.2} dB",
                f[k].1,
                o[k].1
            );
            assert!(
                (f[k].2 - o[k].2).abs() < 0.05,
                "{name}: mean loss {:.3} vs {:.3}",
                f[k].2,
                o[k].2
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// Sharded per-client streams are a pure function of the client —
        /// running the kernels in any population iteration order and
        /// reassembling yields exactly the canonical batch output.
        #[test]
        fn streams_independent_of_population_iteration_order(order_seed in 0u64..u64::MAX) {
            static TABLE: std::sync::OnceLock<SuccessTable> = std::sync::OnceLock::new();
            let table = TABLE.get_or_init(a_table);
            let net = a_network();
            let cfg = quick_cfg();
            let canonical = simulate_client_probes_with_table(&net, &cfg, table);

            let rates = Phy::Bg.probed_rates();
            let rows: Vec<CompactRow> =
                rates.iter().map(|&r| table.rate_row(r).compact()).collect();
            let prep = prep_network(&net, &cfg);
            let n = prep.population.len();
            prop_assert!(n > 1, "permutation test needs a population");

            // A Fisher–Yates permutation of the client visit order.
            let mut perm: Vec<usize> = (0..n).collect();
            let mut rng = SmallRng::seed_from_u64(order_seed);
            for i in (1..n).rev() {
                let j = rng.random_range(0..i + 1);
                perm.swap(i, j);
            }

            let mut streams: Vec<ProbeTable> = vec![ProbeTable::new(); n];
            for &ci in &perm {
                let client = &prep.population[ci];
                streams[ci] = simulate_one_client(
                    &net,
                    &cfg,
                    rates,
                    &rows,
                    client,
                    &prep.shadows[ci],
                    &prep.intfs[ci],
                    prep.bbox,
                    derive_seed(prep.coin_base, u64::from(client.id.0)),
                );
            }
            prop_assert_eq!(merge_time_stable(streams), canonical.probes);
        }
    }
}
