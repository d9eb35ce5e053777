//! The inter-AP probe broadcast engine (paper §3.1).
//!
//! Per network radio, every AP broadcasts one probe frame per probed bit
//! rate every 40 s. Each candidate receiver draws its own channel
//! realization per frame and flips the PHY's success coin. Receivers know
//! the probing schedule (as in Roofnet's ETX), so *every scheduled probe*
//! enters the receiver's 800 s loss window — received or not, including
//! probes a dead sender never transmitted. Reports are cut every 300 s.
//!
//! ## Hot-path layout
//!
//! The tick loop runs once per 40 s slot per candidate pair, so its
//! per-iteration state is flat and allocation-free:
//!
//! * loss windows are bit-packed tick-indexed rings ([`PairWindows`]),
//!   one contiguous block per pair, instead of per-rate `VecDeque`s;
//! * the fault plan is compiled once per radio into sorted interval
//!   timelines ([`CompiledFaults`]) whose cursors advance monotonically
//!   with the clock — and an empty plan costs nothing per tick;
//! * per-rate success-curve rows ([`RateRow`]) are hoisted out of the
//!   loop, so a probe costs one interpolation, not a PHY dispatch plus
//!   table indexing;
//! * each lane is decided bound-first ([`LinkModel::probe_lane`]): it
//!   draws its fade uniforms and its coin, and table bounds on the
//!   uniforms settle the coin against the delivery curve without the
//!   Box–Muller `ln`/`sqrt`/`cos` — for all but ~0.1% of lanes, since the
//!   curve is a cliff and most lanes sit far from `coin = p`;
//! * a received lane latches its fade ([`FadeLatch`]) instead of its SNR,
//!   and only the last reception before a report cut pays the transform,
//!   when the cut writes the window's last SNR. At standard scale the
//!   pair engine runs ~3.6M transforms for ~100M lanes.
//!
//! All of it is observable-for-observable identical to the reference
//! implementation kept under `#[cfg(test)]` below (the original
//! `LossWindow` + naive-fault-scan engine), which the equivalence tests
//! pin — including the RNG draw order, so outputs are byte-identical.

use mesh11_channel::{FadeLatch, LinkModel, RadioHardware};
use mesh11_phy::{BitRate, Phy, RateRow, SuccessTable};
use mesh11_stats::dist::{derive_seed, derive_seed_str};
use mesh11_topo::NetworkSpec;
use mesh11_trace::{ApId, NetworkId, ProbeTable, RateObs};
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use rayon::prelude::*;

use crate::config::SimConfig;
use crate::fault::CompiledFaults;
use crate::merge::merge_time_stable;
use crate::ring::{probe_slots, PairWindows};

/// Ring direction index: a → b (b receives).
const FWD: usize = 0;
/// Ring direction index: b → a (a receives).
const REV: usize = 1;

/// One unordered AP pair in range of each other. Each pair carries its
/// own channel and (via a per-pair derived seed) its own coin stream, so
/// pairs simulate independently on any thread.
pub(crate) struct PairSim {
    pub(crate) a: u32,
    pub(crate) b: u32,
    pub(crate) link: LinkModel,
}

/// Finds the candidate pairs of one network radio: anything whose
/// best-direction mean SNR clears the floor. Everything else is guaranteed
/// silence and skipped.
pub(crate) fn discover_pairs(spec: &NetworkSpec, phy: Phy, cfg: &SimConfig) -> Vec<PairSim> {
    let n = spec.size();
    let hw: Vec<RadioHardware> = (0..n)
        .map(|i| RadioHardware::draw(&spec.params, spec.seed, i as u64))
        .collect();
    let chan_base = derive_seed_str(
        spec.seed,
        match phy {
            Phy::Bg => "chan-bg",
            Phy::Ht => "chan-ht",
        },
    );

    let mut pairs: Vec<PairSim> = Vec::new();
    for a in 0..n {
        for b in (a + 1)..n {
            let link = LinkModel::new(
                spec.params,
                chan_base,
                a as u64,
                b as u64,
                spec.positions[a],
                spec.positions[b],
                hw[a],
                hw[b],
            );
            if link.best_mean_snr_db() < cfg.min_mean_snr_db {
                continue;
            }
            pairs.push(PairSim {
                a: a as u32,
                b: b as u32,
                link,
            });
        }
    }
    pairs
}

/// The phy-scoped base of the success-coin seed stream. A pair's coins
/// depend only on `(seed, phy, a, b)` — not on how many other pairs exist
/// or which thread runs it.
pub(crate) fn coin_base(seed: u64, phy: Phy) -> u64 {
    derive_seed_str(
        seed,
        match phy {
            Phy::Bg => "probe-coins-bg",
            Phy::Ht => "probe-coins-ht",
        },
    )
}

/// Simulates the probe pipeline of one network radio and returns its probe
/// sets in time order.
pub fn simulate_probes(spec: &NetworkSpec, phy: Phy, cfg: &SimConfig) -> ProbeTable {
    let table = mesh11_phy::shared_success_table(mesh11_phy::PerModel::default());
    simulate_probes_with_table(spec, phy, cfg, table)
}

/// As [`simulate_probes`], with a caller-provided success table (the
/// campaign runner builds one and shares it across networks).
pub fn simulate_probes_with_table(
    spec: &NetworkSpec,
    phy: Phy,
    cfg: &SimConfig,
    table: &SuccessTable,
) -> ProbeTable {
    let rates = phy.probed_rates();
    let rows: Vec<RateRow<'_>> = rates.iter().map(|&r| table.rate_row(r)).collect();
    let pairs = discover_pairs(spec, phy, cfg);
    let base = coin_base(spec.seed, phy);
    let faults = cfg.faults.compile(spec.id);

    let per_pair: Vec<ProbeTable> = pairs
        .par_iter()
        .map(|pair| simulate_pair(spec.id, phy, cfg, &rows, rates, pair, base, &faults))
        .collect();

    // Each pair's reports are time-ordered and collect() returns pair
    // order, so the stable time-keyed merge reproduces the serial emission
    // order (pair order within a report tick, forward direction before
    // reverse) at any thread count.
    merge_time_stable(per_pair)
}

/// Runs the full probe timeline of one AP pair: both directions, every
/// probed rate, reports cut by each live receiver every
/// `report_interval_s`. Self-contained so pairs shard across threads; the
/// caller supplies the hoisted per-rate rows and the compiled fault
/// timeline of the pair's network.
#[allow(clippy::too_many_arguments)]
pub(crate) fn simulate_pair(
    network: NetworkId,
    phy: Phy,
    cfg: &SimConfig,
    rows: &[RateRow<'_>],
    rates: &[BitRate],
    pair: &PairSim,
    coin_base: u64,
    faults: &CompiledFaults,
) -> ProbeTable {
    let (a, b) = (ApId(pair.a), ApId(pair.b));
    let mut link = pair.link.clone();
    let slots = probe_slots(cfg.window_s, cfg.probe_interval_s);
    let mut win = PairWindows::new(rates.len(), slots);
    let mut rng = SmallRng::seed_from_u64(derive_seed(
        coin_base,
        (u64::from(pair.a) << 32) | u64::from(pair.b),
    ));

    let no_faults = faults.is_empty();
    let mut a_outages = faults.outage_cursor(a);
    let mut b_outages = faults.outage_cursor(b);
    let mut bursts = faults.burst_cursor();

    // The pair's own table: each report's observations are written
    // straight into its arena.
    let mut out = ProbeTable::new();
    // Each probe lane (rate `ri`, direction `dir`) draws its fade uniforms
    // from the link RNG and its coin from the pair RNG in the scalar order
    // fwd₀, rev₀, fwd₁, …; the two streams are independent, so drawing
    // each lane's pair together leaves both streams' values unchanged.
    // A received lane's reported SNR is only read at a report cut, so the
    // lane keeps its fade latched (`pending[dir·R + ri]`) and the cut
    // computes the SNR of the last reception only.
    let n_rates = rows.len();
    let mut pending: Vec<Option<FadeLatch>> = vec![None; 2 * n_rates];
    // `t` accumulates additively (it is the reported time and must stay
    // bit-identical across refactors); `tick` is the integer slot index
    // keying the ring windows.
    let mut t = cfg.probe_interval_s;
    let mut tick: u64 = 1;
    let mut next_report = cfg.report_interval_s;
    let eps = 1e-9;

    while t <= cfg.probe_horizon_s + eps {
        let (burst, a_up, b_up) = if no_faults {
            (0.0, true, true)
        } else {
            (bursts.penalty_at(t), a_outages.up_at(t), b_outages.up_at(t))
        };
        // A direction's ring advances only on ticks its receiver is alive
        // to record — dead receivers skip slots, exactly like the
        // reference window only seeing record() while the receiver is up.
        if b_up {
            win.advance(FWD, tick);
        }
        if a_up {
            win.advance(REV, tick);
        }
        // Frames are only sampled when both ends are alive; advance the
        // temporal process once for the whole tick then (lazily, exactly
        // like `sample` would at the first frame — eager per-tick advance
        // would change the AR(1) catch-up draws across long outages).
        if a_up && b_up {
            link.advance_to(t);
            for (ri, row) in rows.iter().enumerate() {
                for (dir, forward) in [(FWD, true), (REV, false)] {
                    let coin = rng.random::<f64>();
                    let lane = link.probe_lane(forward, row, burst, coin);
                    win.record_outcome(dir, ri, lane.is_some());
                    if lane.is_some() {
                        pending[dir * n_rates + ri] = lane;
                    }
                }
            }
        } else {
            // One end down: nothing is sampled (the sender or the whole
            // channel is dead), but a live receiver still records the
            // scheduled miss so its loss window advances.
            for ri in 0..n_rates {
                if b_up {
                    win.record_outcome(FWD, ri, false);
                }
                if a_up {
                    win.record_outcome(REV, ri, false);
                }
            }
        }

        if t + eps >= next_report {
            // Reports are produced by the *receiver*; a dead receiver
            // stays silent this round. Aliveness at the cut is the same
            // `a_up`/`b_up` already evaluated for this tick's records.
            for (dir, up, sender, receiver) in [(FWD, b_up, a, b), (REV, a_up, b, a)] {
                if !up {
                    continue;
                }
                let lanes = &mut pending[dir * n_rates..(dir + 1) * n_rates];
                for (ri, latch) in lanes.iter_mut().enumerate() {
                    if let Some(latch) = latch.take() {
                        win.set_last_snr(dir, ri, link.latched_db(latch));
                    }
                }
                if observations_into(&win, dir, rates, &mut out) {
                    out.seal(network, phy, t, sender, receiver);
                }
            }
            next_report += cfg.report_interval_s;
        }
        t += cfg.probe_interval_s;
        tick += 1;
    }
    // The table waits for the whole campaign's pairs before it is merged;
    // its growth slack goes back to this thread's next pair.
    out.shrink_to_fit();
    out
}

/// Appends the rate observations of one report lane to `out`'s open set
/// and returns whether there were any (nothing is appended when nothing
/// in the window was received); the caller seals the set. Writing into
/// the table's arena keeps the per-report cost allocation-free. Shared
/// with the client path ([`crate::client_probes`]), whose lanes are APs.
pub(crate) fn observations_into(
    win: &PairWindows,
    dir: usize,
    rates: &[BitRate],
    out: &mut ProbeTable,
) -> bool {
    let mut any = false;
    for (ri, &rate) in rates.iter().enumerate() {
        if win.received(dir, ri) == 0 {
            continue;
        }
        out.push_obs(RateObs {
            rate,
            loss: win.loss(dir, ri).expect("received > 0 implies non-empty"),
            snr_db: win.last_snr(dir, ri),
        });
        any = true;
    }
    any
}

/// The original `VecDeque`-window, naive-fault-scan engine, kept verbatim
/// as the oracle for the flat-state implementation above.
#[cfg(test)]
pub(crate) mod reference {
    use super::*;
    use crate::window::LossWindow;
    use mesh11_trace::Probe;

    struct DirState {
        windows: Vec<LossWindow>,
        last_snr: Vec<f64>,
    }

    impl DirState {
        fn new(n_rates: usize, window_s: f64) -> Self {
            Self {
                windows: (0..n_rates).map(|_| LossWindow::new(window_s)).collect(),
                last_snr: vec![f64::NAN; n_rates],
            }
        }

        fn observations_into(&self, rates: &[BitRate], buf: &mut Vec<RateObs>) {
            buf.clear();
            for (ri, &rate) in rates.iter().enumerate() {
                let w = &self.windows[ri];
                if w.received() == 0 {
                    continue;
                }
                buf.push(RateObs {
                    rate,
                    loss: w.loss().expect("received > 0 implies non-empty window"),
                    snr_db: self.last_snr[ri],
                });
            }
        }
    }

    /// The pre-flat-state `simulate_probes_with_table`: serial pair loop,
    /// per-tick linear fault scans, per-rate `VecDeque` windows, and the
    /// historical duplicate `ap_up` evaluation at the report cut.
    pub(crate) fn simulate_probes_with_table(
        spec: &NetworkSpec,
        phy: Phy,
        cfg: &SimConfig,
        table: &SuccessTable,
    ) -> ProbeTable {
        let rates = phy.probed_rates();
        let pairs = discover_pairs(spec, phy, cfg);
        let base = coin_base(spec.seed, phy);
        let mut all = ProbeTable::new();
        for pair in &pairs {
            all.append(simulate_pair(spec, phy, cfg, table, rates, pair, base));
        }
        // Stable sort by time, through a position permutation.
        let mut order: Vec<usize> = (0..all.len()).collect();
        order.sort_by(|&x, &y| {
            all[x]
                .time_s
                .partial_cmp(&all[y].time_s)
                .expect("finite times")
        });
        order.into_iter().map(|i| all.get(i)).collect()
    }

    fn simulate_pair(
        spec: &NetworkSpec,
        phy: Phy,
        cfg: &SimConfig,
        table: &SuccessTable,
        rates: &[BitRate],
        pair: &PairSim,
        coin_base: u64,
    ) -> ProbeTable {
        let (a, b) = (ApId(pair.a), ApId(pair.b));
        let mut link = pair.link.clone();
        let mut fwd = DirState::new(rates.len(), cfg.window_s);
        let mut rev = DirState::new(rates.len(), cfg.window_s);
        let mut rng = SmallRng::seed_from_u64(derive_seed(
            coin_base,
            (u64::from(pair.a) << 32) | u64::from(pair.b),
        ));

        let mut out = ProbeTable::new();
        let mut obs_buf: Vec<RateObs> = Vec::with_capacity(rates.len());
        let mut t = cfg.probe_interval_s;
        let mut next_report = cfg.report_interval_s;
        let eps = 1e-9;

        while t <= cfg.probe_horizon_s + eps {
            let burst = cfg.faults.burst_penalty_db(spec.id, t);
            let a_up = cfg.faults.ap_up(spec.id, a, t);
            let b_up = cfg.faults.ap_up(spec.id, b, t);
            #[allow(clippy::needless_range_loop)] // ri indexes parallel per-rate arrays
            for ri in 0..rates.len() {
                let rate = rates[ri];
                if b_up {
                    let mut received = false;
                    let mut reported = 0.0;
                    if a_up {
                        let s = link.sample(t, true);
                        let p = table.success(rate, s.effective_db - burst);
                        received = rng.random::<f64>() < p;
                        reported = s.reported_db;
                    }
                    fwd.windows[ri].record(t, received);
                    if received {
                        fwd.last_snr[ri] = reported;
                    }
                }
                if a_up {
                    let mut received = false;
                    let mut reported = 0.0;
                    if b_up {
                        let s = link.sample(t, false);
                        let p = table.success(rate, s.effective_db - burst);
                        received = rng.random::<f64>() < p;
                        reported = s.reported_db;
                    }
                    rev.windows[ri].record(t, received);
                    if received {
                        rev.last_snr[ri] = reported;
                    }
                }
            }

            if t + eps >= next_report {
                if cfg.faults.ap_up(spec.id, b, t) {
                    fwd.observations_into(rates, &mut obs_buf);
                    if !obs_buf.is_empty() {
                        out.push(Probe {
                            network: spec.id,
                            phy,
                            time_s: t,
                            sender: a,
                            receiver: b,
                            obs: &obs_buf,
                        });
                    }
                }
                if cfg.faults.ap_up(spec.id, a, t) {
                    rev.observations_into(rates, &mut obs_buf);
                    if !obs_buf.is_empty() {
                        out.push(Probe {
                            network: spec.id,
                            phy,
                            time_s: t,
                            sender: b,
                            receiver: a,
                            obs: &obs_buf,
                        });
                    }
                }
                next_report += cfg.report_interval_s;
            }
            t += cfg.probe_interval_s;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mesh11_topo::{CampaignSpec, EnvClass};
    use mesh11_trace::NetworkId;

    fn small_spec(seed: u64) -> NetworkSpec {
        // A tight 4-AP indoor square: everyone hears everyone at low rates.
        NetworkSpec {
            id: NetworkId(0),
            env: EnvClass::Indoor,
            radios: vec![Phy::Bg],
            seed,
            positions: vec![(0.0, 0.0), (18.0, 0.0), (0.0, 18.0), (18.0, 18.0)],
            params: mesh11_channel::ChannelParams::indoor(),
            geo: mesh11_topo::geo::GeoTag::for_network(0),
        }
    }

    #[test]
    fn produces_probe_sets_on_schedule() {
        let cfg = SimConfig::quick();
        let probes = simulate_probes(&small_spec(1), Phy::Bg, &cfg);
        assert!(!probes.is_empty());
        // All report times are at ticks crossing 300 s boundaries.
        for p in &probes {
            let rem = p.time_s % cfg.report_interval_s;
            assert!(
                rem < cfg.probe_interval_s,
                "report at {} not near a 300 s boundary",
                p.time_s
            );
            assert!(p.time_s <= cfg.probe_horizon_s);
            assert!(!p.obs.is_empty());
        }
    }

    #[test]
    fn deterministic() {
        let cfg = SimConfig::quick();
        let a = simulate_probes(&small_spec(5), Phy::Bg, &cfg);
        let b = simulate_probes(&small_spec(5), Phy::Bg, &cfg);
        assert_eq!(a, b);
        let c = simulate_probes(&small_spec(6), Phy::Bg, &cfg);
        assert_ne!(a, c);
    }

    #[test]
    fn close_pairs_hear_low_rates_cleanly() {
        let cfg = SimConfig::quick();
        let probes = simulate_probes(&small_spec(2), Phy::Bg, &cfg);
        // 18 m apart indoors is ~30 dB mean SNR: 1 Mbit/s loss should be
        // tiny on at least the adjacent pairs.
        let one = mesh11_phy::BitRate::bg_mbps(1.0).unwrap();
        let losses: Vec<f64> = probes
            .iter()
            .filter_map(|p| p.obs_for(one).map(|o| o.loss))
            .collect();
        assert!(!losses.is_empty());
        let med = mesh11_stats::median(&losses).unwrap();
        assert!(med < 0.2, "median 1 Mbit/s loss {med}");
    }

    #[test]
    fn loss_increases_with_rate() {
        let cfg = SimConfig::quick();
        let probes = simulate_probes(&small_spec(3), Phy::Bg, &cfg);
        let mean_loss = |mbps: f64| {
            let r = mesh11_phy::BitRate::bg_mbps(mbps).unwrap();
            let l: Vec<f64> = probes
                .iter()
                .flat_map(|p| p.obs_for(r).map(|o| o.loss))
                .collect();
            mesh11_stats::mean(&l)
        };
        // 48 Mbit/s should lose more than 1 Mbit/s wherever both are heard.
        if let (Some(lo), Some(hi)) = (mean_loss(1.0), mean_loss(48.0)) {
            assert!(hi >= lo, "1 Mbit/s {lo} vs 48 Mbit/s {hi}");
        }
    }

    #[test]
    fn outage_silences_and_recovers() {
        let mut cfg = SimConfig::quick();
        cfg.probe_horizon_s = 3_600.0;
        cfg.faults.outages.push(crate::fault::ApOutage {
            network: NetworkId(0),
            ap: ApId(0),
            start_s: 1_200.0,
            end_s: 2_400.0,
        });
        let probes = simulate_probes(&small_spec(4), Phy::Bg, &cfg);
        // During the outage (after the window drains), nothing is heard
        // *from* AP0 and AP0 reports nothing.
        let during: Vec<_> = probes
            .iter()
            .filter(|p| p.time_s > 2_000.0 && p.time_s < 2_400.0)
            .collect();
        assert!(
            during
                .iter()
                .all(|p| p.sender != ApId(0) && p.receiver != ApId(0)),
            "AP0 should be silent late in its outage"
        );
        // After recovery plus one window, AP0 probes are heard again.
        let after: Vec<_> = probes
            .iter()
            .filter(|p| p.time_s > 3_300.0 && p.sender == ApId(0))
            .collect();
        assert!(!after.is_empty(), "AP0 should recover after the outage");
    }

    #[test]
    fn interference_burst_raises_loss() {
        let spec = small_spec(9);
        let mut clean_cfg = SimConfig::quick();
        clean_cfg.probe_horizon_s = 2_400.0;
        let mut noisy_cfg = clean_cfg.clone();
        noisy_cfg
            .faults
            .bursts
            .push(crate::fault::InterferenceBurst {
                network: NetworkId(0),
                start_s: 0.0,
                end_s: 2_400.0,
                penalty_db: 15.0,
            });
        let loss_at = |probes: &ProbeTable, mbps: f64| {
            let r = mesh11_phy::BitRate::bg_mbps(mbps).unwrap();
            let l: Vec<f64> = probes
                .iter()
                .flat_map(|p| p.obs_for(r).map(|o| o.loss))
                .collect();
            mesh11_stats::mean(&l).unwrap_or(1.0)
        };
        let clean = simulate_probes(&spec, Phy::Bg, &clean_cfg);
        let noisy = simulate_probes(&spec, Phy::Bg, &noisy_cfg);
        assert!(
            loss_at(&noisy, 48.0) > loss_at(&clean, 48.0),
            "a 15 dB burst must hurt 48 Mbit/s"
        );
    }

    #[test]
    fn ht_networks_probe_ht_rates() {
        let mut spec = small_spec(7);
        spec.radios = vec![Phy::Ht];
        let cfg = SimConfig::quick();
        let probes = simulate_probes(&spec, Phy::Ht, &cfg);
        assert!(!probes.is_empty());
        assert!(probes.iter().all(|p| p.phy == Phy::Ht));
        assert!(probes
            .iter()
            .flat_map(|p| p.obs)
            .all(|o| o.rate.mcs().is_some()));
    }

    #[test]
    fn campaign_specs_simulate() {
        // Smoke: one real generated topology end to end.
        let campaign = CampaignSpec::small(11).generate();
        let spec = campaign
            .networks
            .iter()
            .find(|n| n.has_bg() && n.size() >= 5)
            .expect("small campaign has a bg network with ≥5 APs");
        let mut cfg = SimConfig::quick();
        cfg.probe_horizon_s = 1_200.0;
        let probes = simulate_probes(spec, Phy::Bg, &cfg);
        assert!(!probes.is_empty());
    }

    fn assert_matches_reference(spec: &NetworkSpec, phy: Phy, cfg: &SimConfig) {
        let calibrated = mesh11_phy::CalibratedPhy::new();
        let table = SuccessTable::new(&calibrated);
        let flat = simulate_probes_with_table(spec, phy, cfg, &table);
        let oracle = reference::simulate_probes_with_table(spec, phy, cfg, &table);
        assert!(!oracle.is_empty(), "oracle produced nothing — vacuous test");
        assert_eq!(flat, oracle);
    }

    #[test]
    fn flat_engine_matches_reference_on_other_frame_models() {
        // The lane bounds lean on each row's zero floor and dip; a table
        // of another frame model moves every curve, so the decision must
        // stay exact there too, with and without the preamble stage.
        let mut cfg = SimConfig::quick();
        cfg.probe_horizon_s = 2_400.0;
        cfg.faults = crate::fault::FaultPlan::demo(cfg.probe_horizon_s);
        for model in [
            mesh11_phy::PerModel {
                frame_bytes: 200,
                with_preamble: false,
            },
            mesh11_phy::PerModel {
                frame_bytes: 4_000,
                with_preamble: true,
            },
        ] {
            let table = mesh11_phy::shared_success_table(model);
            let mut ht = small_spec(27);
            ht.radios = vec![Phy::Ht];
            for (spec, phy) in [(small_spec(26), Phy::Bg), (ht, Phy::Ht)] {
                let flat = simulate_probes_with_table(&spec, phy, &cfg, table);
                let oracle = reference::simulate_probes_with_table(&spec, phy, &cfg, table);
                assert!(!oracle.is_empty(), "{model:?} {phy}: vacuous test");
                assert_eq!(flat, oracle, "{model:?} {phy}");
            }
        }
    }

    #[test]
    fn flat_engine_matches_reference_clean() {
        let mut cfg = SimConfig::quick();
        cfg.probe_horizon_s = 2_400.0;
        assert_matches_reference(&small_spec(21), Phy::Bg, &cfg);
        let mut ht = small_spec(22);
        ht.radios = vec![Phy::Ht];
        assert_matches_reference(&ht, Phy::Ht, &cfg);
    }

    #[test]
    fn flat_engine_matches_reference_under_nasty_fault_plan() {
        // Overlapping outages of the same AP, an outage spanning report
        // cuts, stacked bursts, and faults aimed at another network that
        // must not leak in: the compiled timeline and the naive scans must
        // yield the exact same probe sets.
        let mut cfg = SimConfig::quick();
        cfg.probe_horizon_s = 3_600.0;
        let o = |ap, s, e| crate::fault::ApOutage {
            network: NetworkId(0),
            ap: ApId(ap),
            start_s: s,
            end_s: e,
        };
        cfg.faults.outages = vec![
            o(0, 900.0, 1_800.0),
            o(0, 1_500.0, 2_100.0), // overlaps the first
            o(1, 1_180.0, 1_260.0), // brackets a 1 200 s report cut
            crate::fault::ApOutage {
                network: NetworkId(5),
                ap: ApId(0),
                start_s: 0.0,
                end_s: 3_600.0,
            },
        ];
        let b = |s, e, db| crate::fault::InterferenceBurst {
            network: NetworkId(0),
            start_s: s,
            end_s: e,
            penalty_db: db,
        };
        cfg.faults.bursts = vec![
            b(600.0, 2_400.0, 7.0),
            b(1_200.0, 1_900.0, 5.0), // stacks
            b(0.0, 3_600.0, 0.5),     // always on
        ];
        assert_matches_reference(&small_spec(23), Phy::Bg, &cfg);
    }

    #[test]
    fn flat_engine_matches_reference_ht_under_bursts() {
        // HT is most of the engine's lanes and the one PHY whose high MCS
        // rows sit far above typical SNRs, so the zero-floor skip fires
        // hardest here. Stacked bursts move every lane's headroom, and an
        // outage straddling a report cut exercises the catch-up draws.
        let mut cfg = SimConfig::quick();
        cfg.probe_horizon_s = 3_000.0;
        cfg.faults.outages = vec![crate::fault::ApOutage {
            network: NetworkId(0),
            ap: ApId(2),
            start_s: 1_150.0,
            end_s: 1_700.0, // spans the 1 200 s and 1 500 s cuts
        }];
        let b = |s, e, db| crate::fault::InterferenceBurst {
            network: NetworkId(0),
            start_s: s,
            end_s: e,
            penalty_db: db,
        };
        cfg.faults.bursts = vec![
            b(300.0, 2_100.0, 6.0),
            b(900.0, 1_400.0, 9.5), // stacks
            b(0.0, 3_000.0, 1.25),  // always on
        ];
        let mut spec = small_spec(25);
        spec.radios = vec![Phy::Ht];
        assert_matches_reference(&spec, Phy::Ht, &cfg);
    }

    #[test]
    fn flat_engine_matches_reference_with_demo_plan() {
        let mut cfg = SimConfig::quick();
        cfg.probe_horizon_s = 2_400.0;
        cfg.faults = crate::fault::FaultPlan::demo(cfg.probe_horizon_s);
        assert_matches_reference(&small_spec(24), Phy::Bg, &cfg);
    }
}
