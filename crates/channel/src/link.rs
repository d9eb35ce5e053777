//! The composed directed-pair channel.
//!
//! A [`LinkModel`] owns everything random about one unordered AP pair:
//! the static shadowing draw (reciprocal), the AR(1) temporal shadowing
//! process (reciprocal, evolving on the 40 s probe cadence), per-frame fast
//! fading, and the two directed interference floors. Both directions of the
//! pair are sampled through the same object so reciprocity is preserved by
//! construction.

use mesh11_phy::RateRow;
use mesh11_stats::dist::{
    box_muller, box_muller_bounds, derive_seed, derive_seed_str, normal_uniforms, radius_hi,
    standard_normal,
};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use crate::hardware::{interference_floor_db, RadioHardware};
use crate::params::ChannelParams;
use crate::pathloss::{distance, pathloss_db};

/// One sampled frame-level channel observation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SnrSample {
    /// What the receiving radio reports (MadWiFi RSSI ≡ SNR, per §3.1.1).
    pub reported_db: f64,
    /// What the decoder actually experiences: reported minus the hidden
    /// interference floor. Feed this to `CalibratedPhy::success`.
    pub effective_db: f64,
}

/// The fade of one received probe lane, kept so its reported SNR can be
/// computed when it is read: the direction's `mean + temporal` SNR at the
/// draw and the draw's two uniforms ([`normal_uniforms`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FadeLatch {
    base_db: f64,
    u1: f64,
    u2: f64,
}

/// Time-evolving channel between two radios.
#[derive(Debug, Clone)]
pub struct LinkModel {
    params: ChannelParams,
    /// Mean SNR a→b, all static terms folded in (dB).
    mean_fwd_db: f64,
    /// Mean SNR b→a (dB).
    mean_rev_db: f64,
    /// Hidden interference floors per direction (dB).
    intf_fwd_db: f64,
    intf_rev_db: f64,
    /// Per-frame fade scale: the link's flutter multiplier (1.0 normally,
    /// larger on fluttering links) times the params' fade σ, folded at
    /// construction so the per-frame draw is a single multiply.
    fade_scale_db: f64,
    /// AR(1) temporal shadowing state (dB) and the epoch it describes.
    temporal_db: f64,
    epoch: i64,
    rng: SmallRng,
}

/// Beyond this many AR(1) steps the correlation to the old state is
/// negligible (0.95⁶⁴ ≈ 0.037); we re-draw from the stationary distribution
/// instead of iterating.
const MAX_AR1_CATCHUP: i64 = 64;

/// Probability that a link flutters (wide per-frame fading).
const FLUTTER_PROB: f64 = 0.05;
/// Fade-σ multiplier on fluttering links.
const FLUTTER_FACTOR: f64 = 2.2;

impl LinkModel {
    /// Builds the channel between radios `a` and `b`.
    ///
    /// `seed` is the network-level channel seed; `id_a`/`id_b` identify the
    /// radios (APs or clients) and key every static draw, so rebuilding the
    /// same pair yields the same channel.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        params: ChannelParams,
        seed: u64,
        id_a: u64,
        id_b: u64,
        pos_a: (f64, f64),
        pos_b: (f64, f64),
        hw_a: RadioHardware,
        hw_b: RadioHardware,
    ) -> Self {
        // Key the pair symmetrically so (a,b) and (b,a) build identical
        // reciprocal state.
        let (lo, hi) = if id_a <= id_b {
            (id_a, id_b)
        } else {
            (id_b, id_a)
        };
        let pair_seed = derive_seed(derive_seed(seed, lo), hi);

        let mut static_rng = SmallRng::seed_from_u64(derive_seed_str(pair_seed, "shadow"));
        let shadow_db = params.shadow_sigma_db * standard_normal(&mut static_rng);
        // A small fraction of links "flutter": something moves through the
        // Fresnel zone (foot traffic, foliage, machinery) and the per-frame
        // spread is much wider. This is the tail of Fig 3.1 — the paper sees
        // ~2.5% of probe sets with SNR σ ≥ 5 dB.
        let flutter: f64 = {
            use rand::RngExt;
            if static_rng.random::<f64>() < FLUTTER_PROB {
                FLUTTER_FACTOR
            } else {
                1.0
            }
        };

        let pl = pathloss_db(&params, distance(pos_a, pos_b));
        let base = params.tx_power_dbm - pl - shadow_db - params.noise_floor_dbm;
        // Direction-specific hardware: sender's TX chain, receiver's NF.
        let mean_ab = base + hw_a.tx_offset_db - hw_b.nf_offset_db;
        let mean_ba = base + hw_b.tx_offset_db - hw_a.nf_offset_db;
        let (mean_fwd_db, mean_rev_db) = if id_a <= id_b {
            (mean_ab, mean_ba)
        } else {
            (mean_ba, mean_ab)
        };

        let mut dyn_rng = SmallRng::seed_from_u64(derive_seed_str(pair_seed, "temporal"));
        let temporal_db = params.temporal_sigma_db * standard_normal(&mut dyn_rng);

        Self {
            params,
            mean_fwd_db,
            mean_rev_db,
            intf_fwd_db: interference_floor_db(&params, seed, lo, hi),
            intf_rev_db: interference_floor_db(&params, seed, hi, lo),
            fade_scale_db: flutter * params.fade_sigma_db,
            temporal_db,
            epoch: 0,
            rng: dyn_rng,
        }
    }

    /// Mean SNR of the `lo → hi` direction (`true`) or `hi → lo` (`false`),
    /// where `lo`/`hi` are the pair's ids in ascending order.
    pub fn mean_snr_db(&self, forward: bool) -> f64 {
        if forward {
            self.mean_fwd_db
        } else {
            self.mean_rev_db
        }
    }

    /// The hidden interference floor of a direction (dB).
    pub fn interference_db(&self, forward: bool) -> f64 {
        if forward {
            self.intf_fwd_db
        } else {
            self.intf_rev_db
        }
    }

    /// The larger of the two directions' mean SNR — used by the simulator to
    /// skip pairs that can never hear each other.
    pub fn best_mean_snr_db(&self) -> f64 {
        self.mean_fwd_db.max(self.mean_rev_db)
    }

    /// Samples the channel for one frame at time `t_s` in the given
    /// direction. Advances the temporal process as needed; draws fresh fast
    /// fading. Calls must be non-decreasing in time (the simulator's event
    /// order guarantees this); earlier times reuse the current temporal
    /// state.
    pub fn sample(&mut self, t_s: f64, forward: bool) -> SnrSample {
        self.advance_to(t_s);
        self.sample_advanced(forward)
    }

    /// As [`LinkModel::sample`] with the temporal advance factored out:
    /// draws fast fading against the *current* temporal state. Tick loops
    /// that sample many frames at one instant call [`LinkModel::advance_to`]
    /// once and this (or its bound-first form for probe lanes,
    /// [`LinkModel::probe_lane`]) per frame, skipping the redundant epoch
    /// checks. The advance must only happen on instants that actually
    /// sample — the AR(1) catch-up path makes draw order depend on when the
    /// clock moves.
    pub fn sample_advanced(&mut self, forward: bool) -> SnrSample {
        let fade = self.fade_scale_db * standard_normal(&mut self.rng);
        let reported = self.mean_snr_db(forward) + self.temporal_db + fade;
        SnrSample {
            reported_db: reported,
            effective_db: reported - self.interference_db(forward),
        }
    }

    /// One probe lane at the current temporal state: draws the lane's
    /// fade uniforms and decides whether a frame in direction `forward`,
    /// looked up in `row` after a `burst_db` penalty, passes the success
    /// coin `coin`. Returns the fade's latch when it does.
    ///
    /// The outcome equals `coin < row.success(s.effective_db − burst_db)`
    /// for `s = self.sample_advanced(forward)`, and the RNG consumption is
    /// the same, but the Box–Muller transform runs only when bounds cannot
    /// settle the coin (pinned by tests):
    ///
    /// * **dead** — if even the largest fade, [`radius_hi`] of `u1` or the
    ///   top of the [`box_muller_bounds`] bracket, leaves the effective SNR
    ///   at or below the row's zero floor, success is exactly `0.0` and no
    ///   coin passes;
    /// * **bounded** — otherwise the bracket of the effective SNR (widened
    ///   by 1e-9 dB for the rounding of the sums) decides a coin below the
    ///   success at its low end, or at or above the success at its high
    ///   end, with a margin of `1e-12 + row.max_dip()` for lerp rounding
    ///   and non-monotone rows;
    /// * **exact** — the rest pay the transform and the scalar lookup.
    ///
    /// A received lane's reported SNR is read only at a report cut, so the
    /// latch defers that transform too: see [`LinkModel::latched_db`].
    #[inline]
    pub fn probe_lane(
        &mut self,
        forward: bool,
        row: &RateRow<'_>,
        burst_db: f64,
        coin: f64,
    ) -> Option<FadeLatch> {
        let (u1, u2) = normal_uniforms(&mut self.rng);
        let base_db = self.mean_snr_db(forward) + self.temporal_db;
        let intf = self.interference_db(forward);
        let latch = FadeLatch { base_db, u1, u2 };
        let sigma = self.fade_scale_db;
        // Fade-free effective SNR after the burst.
        let centre = base_db - intf - burst_db;
        if centre + sigma * radius_hi(u1) <= row.zero_floor_db() {
            return None;
        }
        let (lo, hi) = box_muller_bounds(u1, u2);
        let eff_hi = centre + sigma * hi + 1e-9;
        if eff_hi <= row.zero_floor_db() {
            return None;
        }
        let margin = 1e-12 + row.max_dip();
        if coin < row.success(centre + sigma * lo - 1e-9) - margin {
            return Some(latch);
        }
        if coin >= row.success(eff_hi) + margin {
            return None;
        }
        let effective = self.latched_db(latch) - intf;
        (coin < row.success(effective - burst_db)).then_some(latch)
    }

    /// The reported SNR of a latched fade: bit-identical to the
    /// `reported_db` [`LinkModel::sample_advanced`] would have returned for
    /// that draw, the same `(mean + temporal) + σ·z` sum.
    #[inline]
    pub fn latched_db(&self, latch: FadeLatch) -> f64 {
        latch.base_db + self.fade_scale_db * box_muller(latch.u1, latch.u2)
    }

    /// Advances the AR(1) temporal shadowing process to `t_s`. Idempotent
    /// for non-increasing times; normally called implicitly by
    /// [`LinkModel::sample`].
    pub fn advance_to(&mut self, t_s: f64) {
        let target = (t_s / self.params.temporal_step_s).floor() as i64;
        if target <= self.epoch {
            return;
        }
        let steps = target - self.epoch;
        if steps > MAX_AR1_CATCHUP {
            // Correlation has decayed to noise; restart from stationarity.
            self.temporal_db = self.params.temporal_sigma_db * standard_normal(&mut self.rng);
        } else {
            let rho = self.params.temporal_rho;
            let innovation_sd = self.params.temporal_sigma_db * (1.0 - rho * rho).sqrt();
            for _ in 0..steps {
                self.temporal_db =
                    rho * self.temporal_db + innovation_sd * standard_normal(&mut self.rng);
            }
        }
        self.epoch = target;
    }
}

/// An exact N(0, 1) sampler tuned for bulk fade draws — the hottest RNG
/// call of the client kernel (seven per (tick, AP)). Marsaglia's polar
/// method produces independent pairs with one `ln`/`sqrt` and no trig (vs
/// per-draw `ln`+`sqrt`+`cos` in the plain Box–Muller
/// [`standard_normal`]), and the second value of each pair is kept for the
/// next call. Same distribution as `standard_normal`, different stream —
/// callers that switch between them re-key their streams.
#[derive(Debug, Default, Clone)]
pub struct PolarNormal {
    spare: Option<f64>,
}

impl PolarNormal {
    /// The next standard-normal draw from `rng`.
    #[inline]
    pub fn next(&mut self, rng: &mut SmallRng) -> f64 {
        use rand::RngExt;
        if let Some(z) = self.spare.take() {
            return z;
        }
        loop {
            let x = 2.0 * rng.random::<f64>() - 1.0;
            let y = 2.0 * rng.random::<f64>() - 1.0;
            let s = x * x + y * y;
            if s < 1.0 && s > 0.0 {
                let k = (-2.0 * s.ln() / s).sqrt();
                self.spare = Some(y * k);
                return x * k;
            }
        }
    }

    /// Fills `out` with consecutive draws — the batch form for lane slabs.
    /// Draw order (and therefore every value) is identical to calling
    /// [`PolarNormal::next`] once per lane, pinned by a test.
    pub fn fill(&mut self, rng: &mut SmallRng, out: &mut [f64]) {
        for o in out {
            *o = self.next(rng);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mesh11_stats::{stddev, stddev_pop};

    fn nominal_link(seed: u64, d_m: f64) -> LinkModel {
        LinkModel::new(
            ChannelParams::indoor(),
            seed,
            1,
            2,
            (0.0, 0.0),
            (d_m, 0.0),
            RadioHardware::nominal(),
            RadioHardware::nominal(),
        )
    }

    #[test]
    fn construction_is_deterministic() {
        let mut a = nominal_link(42, 20.0);
        let mut b = nominal_link(42, 20.0);
        for t in [0.0, 40.0, 80.0, 4000.0] {
            assert_eq!(a.sample(t, true), b.sample(t, true));
        }
    }

    #[test]
    fn pair_order_does_not_matter() {
        let p = ChannelParams::indoor();
        let hw1 = RadioHardware::draw(&p, 5, 1);
        let hw2 = RadioHardware::draw(&p, 5, 2);
        let l12 = LinkModel::new(p, 7, 1, 2, (0.0, 0.0), (25.0, 0.0), hw1, hw2);
        let l21 = LinkModel::new(p, 7, 2, 1, (25.0, 0.0), (0.0, 0.0), hw2, hw1);
        assert_eq!(l12.mean_snr_db(true), l21.mean_snr_db(true));
        assert_eq!(l12.mean_snr_db(false), l21.mean_snr_db(false));
        assert_eq!(l12.interference_db(true), l21.interference_db(true));
    }

    #[test]
    fn nominal_hardware_is_symmetric() {
        let l = nominal_link(3, 30.0);
        assert_eq!(l.mean_snr_db(true), l.mean_snr_db(false));
    }

    #[test]
    fn hardware_offsets_create_asymmetry() {
        let p = ChannelParams::indoor();
        let hw1 = RadioHardware {
            tx_offset_db: 2.0,
            nf_offset_db: -1.0,
        };
        let hw2 = RadioHardware {
            tx_offset_db: -1.0,
            nf_offset_db: 1.5,
        };
        let l = LinkModel::new(p, 3, 1, 2, (0.0, 0.0), (30.0, 0.0), hw1, hw2);
        // fwd (1→2): +2 tx, −1.5 nf  => base + 0.5
        // rev (2→1): −1 tx, +1 nf    => base − 0.0 ... compute the gap:
        let gap = l.mean_snr_db(true) - l.mean_snr_db(false);
        // (tx1 − nf2) − (tx2 − nf1) = (2 − 1.5) − (−1 − (−1)) = 0.5 − (−1 −(−1))
        let expected = (2.0 - 1.5) - (-1.0 - (-1.0));
        assert!((gap - expected).abs() < 1e-12, "gap {gap}");
    }

    #[test]
    fn fading_spread_matches_sigma() {
        let mut l = nominal_link(11, 20.0);
        // Sample many frames within one temporal epoch: spread == fade sigma.
        let xs: Vec<f64> = (0..5000).map(|_| l.sample(1.0, true).reported_db).collect();
        let s = stddev(&xs).unwrap();
        assert!((s - 2.2).abs() < 0.1, "fade sd {s}");
    }

    #[test]
    fn probe_set_snr_spread_under_5db() {
        // Fig 3.1's key statistic: the σ of SNRs within one probe set
        // (≈20 frames over 800 s) is < 5 dB ≥ 97.5% of the time.
        let mut violations = 0;
        let total = 400;
        for i in 0..total {
            let mut l = nominal_link(i, 20.0);
            let snrs: Vec<f64> = (0..20)
                .map(|k| l.sample(k as f64 * 40.0, true).reported_db)
                .collect();
            if stddev_pop(&snrs).unwrap() >= 5.0 {
                violations += 1;
            }
        }
        let frac = violations as f64 / total as f64;
        assert!(frac <= 0.025, "probe-set σ ≥ 5 dB too often: {frac}");
    }

    #[test]
    fn temporal_state_is_reciprocal() {
        let mut l = nominal_link(13, 20.0);
        // Consecutive samples in the two directions within one epoch share
        // the temporal state: their difference is only fast fading.
        let mut diffs = Vec::new();
        for k in 0..2000 {
            let t = k as f64 * 40.0;
            let fwd = l.sample(t, true).reported_db;
            let rev = l.sample(t, false).reported_db;
            diffs.push(fwd - rev);
        }
        // Mean difference ≈ 0 (nominal hardware), spread = √2·fade σ.
        let m = mesh11_stats::mean(&diffs).unwrap();
        let s = stddev(&diffs).unwrap();
        assert!(m.abs() < 0.15, "mean diff {m}");
        assert!(
            (s - 2.2 * std::f64::consts::SQRT_2).abs() < 0.2,
            "diff sd {s}"
        );
    }

    #[test]
    fn long_gap_resets_state() {
        let mut l = nominal_link(17, 20.0);
        let _ = l.sample(0.0, true);
        // A gap of hours must not iterate millions of AR(1) steps; this
        // returning promptly is itself the test, plus sanity on the value.
        let s = l.sample(36_000.0, true);
        assert!(s.reported_db.is_finite());
    }

    #[test]
    fn effective_never_exceeds_reported() {
        for seed in 0..50 {
            let mut l = nominal_link(seed, 25.0);
            let s = l.sample(10.0, true);
            assert!(s.effective_db <= s.reported_db + 1e-12);
        }
    }

    /// Runs `check` on every probe lane of 60 seeded links (b/g and HT
    /// rows, every probed rate, both directions, bursts of 0, 2.5 and
    /// 11 dB, near and far links, fluttering ones among them) with a lane
    /// link and a scalar twin advanced in step. `check(lane, scalar, row,
    /// forward, burst)` must leave both links' RNGs at the same point;
    /// that is asserted after every tick.
    fn for_each_probe_lane(
        mut check: impl FnMut(&mut LinkModel, &mut LinkModel, &RateRow, bool, f64),
    ) {
        use mesh11_phy::{shared_success_table, PerModel, Phy};
        use rand::RngExt;
        let table = shared_success_table(PerModel::default());
        let params = ChannelParams::indoor();
        let mut fluttering = 0usize;
        for phy in [Phy::Bg, Phy::Ht] {
            let rows: Vec<_> = phy
                .probed_rates()
                .iter()
                .map(|&r| table.rate_row(r))
                .collect();
            for seed in 0..60u64 {
                let d_m = 8.0 + (seed % 12) as f64 * 6.0;
                let hw_a = RadioHardware::draw(&params, seed, 1);
                let hw_b = RadioHardware::draw(&params, seed, 2);
                let mut scalar =
                    LinkModel::new(params, seed, 1, 2, (0.0, 0.0), (d_m, 0.0), hw_a, hw_b);
                let mut lane = scalar.clone();
                fluttering += usize::from(scalar.fade_scale_db > params.fade_sigma_db);
                for tick in 0..40 {
                    let t = tick as f64 * 40.0;
                    let burst = [0.0, 2.5, 11.0][tick % 3];
                    scalar.advance_to(t);
                    lane.advance_to(t);
                    for row in &rows {
                        for fwd in [true, false] {
                            check(&mut lane, &mut scalar, row, fwd, burst);
                        }
                    }
                    assert_eq!(
                        lane.rng.clone().random::<u64>(),
                        scalar.rng.clone().random::<u64>(),
                        "seed {seed} t {t}: RNG streams diverged"
                    );
                }
            }
        }
        assert!(fluttering > 0, "no fluttering link among the seeds");
    }

    #[test]
    fn probe_lane_matches_scalar_coin_and_snr() {
        // The probe engine decides each lane through `probe_lane`; its
        // outcome must be the scalar `coin < success(effective − burst)`,
        // a reception's latched SNR must be the scalar reported SNR bit
        // for bit, and the RNG stream must not move.
        use rand::rngs::SmallRng;
        use rand::{RngExt, SeedableRng};
        let mut coins = SmallRng::seed_from_u64(7);
        let (mut received, mut lost) = (0usize, 0usize);
        for_each_probe_lane(|lane, scalar, row, fwd, burst| {
            let coin = coins.random::<f64>();
            let got = lane.probe_lane(fwd, row, burst, coin);
            let want = scalar.sample_advanced(fwd);
            let p = row.success(want.effective_db - burst);
            assert_eq!(got.is_some(), coin < p, "coin {coin} p {p} burst {burst}");
            if let Some(latch) = got {
                assert_eq!(lane.latched_db(latch).to_bits(), want.reported_db.to_bits());
                received += 1;
            } else {
                lost += 1;
            }
        });
        assert!(received > 0 && lost > 0, "received {received}, lost {lost}");
    }

    #[test]
    fn probe_lane_is_exact_at_the_coin_boundary() {
        // Coins placed on the scalar success itself and one ulp either
        // side: no bound may decide these, so the lane must fall through
        // to the exact path and still agree with the scalar comparison.
        let mut step = 0usize;
        let mut decided_by_exact = 0usize;
        for_each_probe_lane(|lane, scalar, row, fwd, burst| {
            let want = scalar.clone().sample_advanced(fwd);
            let p = row.success(want.effective_db - burst);
            let coin = match step % 3 {
                0 => p,
                1 => p.next_down().max(0.0),
                _ => p.next_up().min(1.0 - f64::EPSILON / 2.0),
            };
            step += 1;
            decided_by_exact += usize::from(p > 0.0 && p < 1.0);
            let got = lane.probe_lane(fwd, row, burst, coin);
            assert_eq!(got.is_some(), coin < p, "coin {coin} p {p} burst {burst}");
            if let Some(latch) = got {
                assert_eq!(lane.latched_db(latch).to_bits(), want.reported_db.to_bits());
            }
            scalar.sample_advanced(fwd);
        });
        assert!(decided_by_exact > 0, "no lane on the delivery slope");
    }

    #[test]
    fn polar_fill_is_bit_identical_to_next() {
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        let mut rng_a = SmallRng::seed_from_u64(99);
        let mut rng_b = SmallRng::seed_from_u64(99);
        let mut gen_a = PolarNormal::default();
        let mut gen_b = PolarNormal::default();
        // Odd widths force the spare to straddle fill boundaries.
        for width in [1usize, 3, 8, 64, 511] {
            let mut out = vec![0.0; width];
            gen_a.fill(&mut rng_a, &mut out);
            for &got in &out {
                assert_eq!(got.to_bits(), gen_b.next(&mut rng_b).to_bits());
            }
        }
    }

    #[test]
    fn polar_normal_is_standard_normal() {
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        let mut rng = SmallRng::seed_from_u64(7);
        let mut g = PolarNormal::default();
        let xs: Vec<f64> = (0..40_000).map(|_| g.next(&mut rng)).collect();
        let m = mesh11_stats::mean(&xs).unwrap();
        let s = stddev(&xs).unwrap();
        assert!(m.abs() < 0.02, "mean {m}");
        assert!((s - 1.0).abs() < 0.02, "sd {s}");
    }

    #[test]
    fn closer_is_stronger() {
        let near = nominal_link(23, 10.0);
        let far = nominal_link(23, 80.0);
        // Same seed => same shadowing draw; distance dominates.
        assert!(near.mean_snr_db(true) > far.mean_snr_db(true));
        assert_eq!(near.best_mean_snr_db(), near.mean_snr_db(true));
    }
}
