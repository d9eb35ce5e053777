//! The composed directed-pair channel.
//!
//! A [`LinkModel`] owns everything random about one unordered AP pair:
//! the static shadowing draw (reciprocal), the AR(1) temporal shadowing
//! process (reciprocal, evolving on the 40 s probe cadence), per-frame fast
//! fading, and the two directed interference floors. Both directions of the
//! pair are sampled through the same object so reciprocity is preserved by
//! construction.

use std::sync::LazyLock;

use mesh11_stats::dist::{
    box_muller, derive_seed, derive_seed_str, normal_uniforms, standard_normal,
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
    /// once and this per frame, skipping the redundant epoch checks. The
    /// advance must only happen on instants that actually sample — the
    /// AR(1) catch-up path makes draw order depend on when the clock moves.
    pub fn sample_advanced(&mut self, forward: bool) -> SnrSample {
        let fade = self.fade_scale_db * standard_normal(&mut self.rng);
        let reported = self.mean_snr_db(forward) + self.temporal_db + fade;
        SnrSample {
            reported_db: reported,
            effective_db: reported - self.interference_db(forward),
        }
    }

    /// Batch form of [`LinkModel::sample_advanced`]: fills `out[k]` with a
    /// fresh sample for direction `forward[k]`, drawing one fade per lane
    /// in lane order, and skipping the fade transform of lanes that cannot
    /// be received.
    ///
    /// `zero_floor_db[k]` is the highest effective SNR at which lane `k`'s
    /// success is exactly 0 (`RateRow::zero_floor_db`, `−∞` for none), and
    /// `burst_db` is the penalty the caller subtracts from every lane's
    /// `effective_db` before its success lookup. Every lane draws both of
    /// its uniforms ([`normal_uniforms`]), so RNG consumption is exactly
    /// that of the scalar call sequence. A lane whose `u1` alone proves
    /// `effective_db − burst_db ≤ zero_floor_db[k]` skips the
    /// `ln`/`sqrt`/`cos` of [`box_muller`] and gets `effective_db = −∞`
    /// and `reported_db = NaN`: its success lookup returns the row's exact
    /// `0.0` either way, so its coin fails and its SNR is never read. The
    /// proof needs no transcendental: `|z| ≤ sqrt(−2 ln u1)`, so
    /// `u1 ≥ exp(−R²/2)` (a static table over `R = k/2`) bounds the fade by
    /// `R` fade σ.
    ///
    /// Every other lane is bit-identical to calling
    /// [`LinkModel::sample_advanced`] once per lane (pinned by tests): the
    /// scalar sum associates as `(mean + temporal) + fade`, so the
    /// per-direction base hoisted here preserves the op order. The probe
    /// engine's tick loop turns its 2·R scalar channel calls per tick into
    /// this one slab fill.
    pub fn sample_advanced_slab(
        &mut self,
        forward: &[bool],
        zero_floor_db: &[f64],
        burst_db: f64,
        out: &mut [SnrSample],
    ) {
        assert_eq!(forward.len(), out.len());
        assert_eq!(zero_floor_db.len(), out.len());
        let bound_u1 = &*FADE_BOUND_U1;
        let base_fwd = self.mean_fwd_db + self.temporal_db;
        let base_rev = self.mean_rev_db + self.temporal_db;
        // Fade-free effective SNR after the burst, and the fade σ inverted
        // once: a lane's headroom to its floor is `(floor − centre) / σ`.
        let centre_fwd = base_fwd - self.intf_fwd_db - burst_db;
        let centre_rev = base_rev - self.intf_rev_db - burst_db;
        let inv_scale = 1.0 / self.fade_scale_db;
        for ((o, &fwd), &floor) in out.iter_mut().zip(forward).zip(zero_floor_db) {
            let (u1, u2) = normal_uniforms(&mut self.rng);
            let (base, intf, centre) = if fwd {
                (base_fwd, self.intf_fwd_db, centre_fwd)
            } else {
                (base_rev, self.intf_rev_db, centre_rev)
            };
            // Largest tabulated R = k/2 within the headroom; a negative,
            // NaN or sub-½ headroom casts to k = 0, whose bound no u1
            // reaches.
            let k = ((2.0 * (floor - centre) * inv_scale) as usize).min(FADE_BOUND_STEPS);
            if u1 >= bound_u1[k] {
                *o = SnrSample {
                    reported_db: f64::NAN,
                    effective_db: f64::NEG_INFINITY,
                };
                continue;
            }
            let reported = base + self.fade_scale_db * box_muller(u1, u2);
            *o = SnrSample {
                reported_db: reported,
                effective_db: reported - intf,
            };
        }
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

/// Last index of [`FADE_BOUND_U1`]: R = 9, where `exp(−R²/2) ≈ 2.6e-18` is
/// already below the smallest non-zero uniform (2⁻⁵³), so a larger R would
/// admit no further draw.
const FADE_BOUND_STEPS: usize = 18;

/// `FADE_BOUND_U1[k] ≥ exp(−R²/2)` for `R = k/2`, nudged up by a relative
/// 1e-12 to cover the rounding of `exp`: any `u1 ≥ FADE_BOUND_U1[k]` has
/// `sqrt(−2 ln u1) ≤ R`, so its Box–Muller draw has `|z| ≤ R`. Entry 0 is
/// above 1, which no uniform reaches.
static FADE_BOUND_U1: LazyLock<[f64; FADE_BOUND_STEPS + 1]> = LazyLock::new(|| {
    std::array::from_fn(|k| {
        let r = k as f64 / 2.0;
        (-0.5 * r * r).exp() * (1.0 + 1e-12)
    })
});

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

    #[test]
    fn slab_sampling_is_bit_identical_to_scalar() {
        // The probe engine swaps its per-(rate, direction) scalar channel
        // calls for one slab fill per tick; both the RNG stream and every
        // reported/effective value must match bit for bit or datasets move.
        for seed in [3u64, 42, 1009] {
            let mut scalar = nominal_link(seed, 22.0);
            let mut slab = nominal_link(seed, 22.0);
            // Alternate directions like the engine's per-rate fwd/rev walk,
            // across several ticks and temporal epochs.
            let dirs: Vec<bool> = (0..14).map(|k| k % 2 == 0).collect();
            let mut out = vec![
                SnrSample {
                    reported_db: 0.0,
                    effective_db: 0.0
                };
                dirs.len()
            ];
            // With no zero floor no lane may be skipped, whatever the burst.
            let floors = vec![f64::NEG_INFINITY; dirs.len()];
            for tick in 0..50 {
                let t = tick as f64 * 40.0;
                scalar.advance_to(t);
                slab.advance_to(t);
                slab.sample_advanced_slab(&dirs, &floors, 9.0, &mut out);
                for (&fwd, &got) in dirs.iter().zip(&out) {
                    let want = scalar.sample_advanced(fwd);
                    assert_eq!(
                        (got.reported_db.to_bits(), got.effective_db.to_bits()),
                        (want.reported_db.to_bits(), want.effective_db.to_bits()),
                        "seed {seed} t {t} fwd {fwd}"
                    );
                }
            }
        }
    }

    #[test]
    fn zero_floor_slab_matches_scalar_or_skips_dead_lanes() {
        // With the real per-rate zero floors of both PHYs and live bursts,
        // every lane is either bit-identical to the scalar sample, or was
        // skipped and the scalar sample proves it unreceivable: effective
        // SNR after the burst at or below the floor, success exactly 0.0.
        use mesh11_phy::{shared_success_table, PerModel, Phy};
        use rand::RngExt;
        let table = shared_success_table(PerModel::default());
        let params = ChannelParams::indoor();
        let (mut skipped, mut kept, mut fluttering) = (0usize, 0usize, 0usize);
        for phy in [Phy::Bg, Phy::Ht] {
            let rows: Vec<_> = phy
                .probed_rates()
                .iter()
                .map(|&r| table.rate_row(r))
                .collect();
            let dirs: Vec<bool> = (0..2 * rows.len()).map(|k| k % 2 == 0).collect();
            let floors: Vec<f64> = (0..dirs.len())
                .map(|k| rows[k / 2].zero_floor_db())
                .collect();
            let mut out = vec![
                SnrSample {
                    reported_db: 0.0,
                    effective_db: 0.0
                };
                dirs.len()
            ];
            for seed in 0..60u64 {
                let d_m = 8.0 + (seed % 12) as f64 * 6.0;
                let hw_a = RadioHardware::draw(&params, seed, 1);
                let hw_b = RadioHardware::draw(&params, seed, 2);
                let mut scalar =
                    LinkModel::new(params, seed, 1, 2, (0.0, 0.0), (d_m, 0.0), hw_a, hw_b);
                let mut slab = scalar.clone();
                fluttering += usize::from(scalar.fade_scale_db > params.fade_sigma_db);
                for tick in 0..40 {
                    let t = tick as f64 * 40.0;
                    let burst = [0.0, 2.5, 11.0][tick % 3];
                    scalar.advance_to(t);
                    slab.advance_to(t);
                    slab.sample_advanced_slab(&dirs, &floors, burst, &mut out);
                    for (k, (&fwd, &got)) in dirs.iter().zip(&out).enumerate() {
                        let want = scalar.sample_advanced(fwd);
                        if got.effective_db == f64::NEG_INFINITY {
                            assert!(got.reported_db.is_nan());
                            let eff = want.effective_db - burst;
                            assert!(eff <= floors[k], "seed {seed} t {t} lane {k}: {eff}");
                            assert_eq!(rows[k / 2].success(eff), 0.0);
                            skipped += 1;
                        } else {
                            assert_eq!(
                                (got.reported_db.to_bits(), got.effective_db.to_bits()),
                                (want.reported_db.to_bits(), want.effective_db.to_bits()),
                                "seed {seed} t {t} lane {k}"
                            );
                            kept += 1;
                        }
                    }
                    assert_eq!(
                        slab.rng.clone().random::<u64>(),
                        scalar.rng.clone().random::<u64>(),
                        "seed {seed} t {t}: RNG streams diverged"
                    );
                }
            }
        }
        assert!(skipped > 0 && kept > 0, "skipped {skipped}, kept {kept}");
        assert!(fluttering > 0, "no fluttering link among the seeds");
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
