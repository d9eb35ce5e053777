//! Seeded random distributions and hierarchical seed derivation.
//!
//! The simulator must be exactly reproducible from a single `u64` master
//! seed: the paper's dataset is fixed, so ours must be too. This module
//! provides:
//!
//! * [`derive_seed`] — SplitMix64-style mixing so each (network, AP, client,
//!   subsystem) gets an independent, stable stream;
//! * [`Dist`] — the continuous distributions the channel and mobility models
//!   draw from, implemented directly (Box–Muller et al.) so we do not pull in
//!   `rand_distr`;
//! * [`DrawExt`] — an extension trait adding `draw(dist)` to every
//!   [`rand::Rng`].

use rand::{Rng, RngExt};
use serde::{Deserialize, Serialize};

/// Derives a child seed from a parent seed and a stream label.
///
/// Uses the SplitMix64 finalizer (Stafford variant 13) on
/// `parent ⊕ golden·label`, which is the standard construction for splitting
/// one seed into many statistically independent ones.
///
/// ```
/// use mesh11_stats::dist::derive_seed;
/// let a = derive_seed(42, 1);
/// let b = derive_seed(42, 2);
/// assert_ne!(a, b);
/// assert_eq!(a, derive_seed(42, 1)); // stable
/// ```
pub fn derive_seed(parent: u64, label: u64) -> u64 {
    let mut z = parent ^ label.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives a seed from a parent and a string label (FNV-1a over the bytes,
/// then [`derive_seed`]). Used to key subsystem streams by name
/// (`"probes"`, `"mobility"`, …) without a central registry of integers.
pub fn derive_seed_str(parent: u64, label: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in label.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    derive_seed(parent, h)
}

/// A continuous scalar distribution.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Dist {
    /// Every draw returns the same value. Useful for ablations that freeze a
    /// randomness source.
    Constant(f64),
    /// Uniform over `[lo, hi)`.
    Uniform {
        /// Inclusive lower bound.
        lo: f64,
        /// Exclusive upper bound.
        hi: f64,
    },
    /// Gaussian with the given mean and standard deviation (Box–Muller).
    Normal {
        /// Mean.
        mean: f64,
        /// Standard deviation (≥ 0).
        sd: f64,
    },
    /// `exp(N(mu, sigma))` — lognormal in natural-log parameters.
    LogNormal {
        /// Mean of the underlying normal.
        mu: f64,
        /// Standard deviation of the underlying normal (≥ 0).
        sigma: f64,
    },
    /// Exponential with the given mean (i.e. rate `1/mean`).
    Exp {
        /// Mean of the distribution (> 0).
        mean: f64,
    },
    /// Pareto with scale `xm` and shape `alpha`, truncated at `cap` by
    /// rejection (resampling). Heavy-tailed session/size draws.
    BoundedPareto {
        /// Scale (minimum value, > 0).
        xm: f64,
        /// Shape (> 0); smaller means heavier tail.
        alpha: f64,
        /// Upper truncation bound (> xm).
        cap: f64,
    },
}

impl Dist {
    /// Samples one value using the supplied RNG.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        match *self {
            Dist::Constant(v) => v,
            Dist::Uniform { lo, hi } => {
                debug_assert!(lo <= hi);
                lo + (hi - lo) * rng.random::<f64>()
            }
            Dist::Normal { mean, sd } => {
                debug_assert!(sd >= 0.0);
                mean + sd * standard_normal(rng)
            }
            Dist::LogNormal { mu, sigma } => (mu + sigma * standard_normal(rng)).exp(),
            Dist::Exp { mean } => {
                debug_assert!(mean > 0.0);
                // Inverse CDF; guard the log against u == 0.
                let u: f64 = rng.random::<f64>().max(f64::MIN_POSITIVE);
                -mean * u.ln()
            }
            Dist::BoundedPareto { xm, alpha, cap } => {
                debug_assert!(xm > 0.0 && alpha > 0.0 && cap > xm);
                loop {
                    let u: f64 = rng.random::<f64>().max(f64::MIN_POSITIVE);
                    let v = xm / u.powf(1.0 / alpha);
                    if v <= cap {
                        return v;
                    }
                }
            }
        }
    }

    /// The distribution's mean (exact, not sampled). For `BoundedPareto` this
    /// is the *untruncated* Pareto mean when `alpha > 1`, `NaN` otherwise;
    /// callers needing the truncated mean should estimate it empirically.
    pub fn mean(&self) -> f64 {
        match *self {
            Dist::Constant(v) => v,
            Dist::Uniform { lo, hi } => (lo + hi) / 2.0,
            Dist::Normal { mean, .. } => mean,
            Dist::LogNormal { mu, sigma } => (mu + sigma * sigma / 2.0).exp(),
            Dist::Exp { mean } => mean,
            Dist::BoundedPareto { xm, alpha, .. } => {
                if alpha > 1.0 {
                    alpha * xm / (alpha - 1.0)
                } else {
                    f64::NAN
                }
            }
        }
    }
}

/// One standard-normal draw via the basic (trigonometric) Box–Muller
/// transform: [`normal_uniforms`] then [`box_muller`].
///
/// The simulator draws ~10⁸ of these per standard-scale run (every
/// per-frame fade of the pair engine), most of them split into
/// [`normal_uniforms`] and bounds so the transform runs only when its value
/// is read. Only the cosine half of the pair is kept: the spare would
/// change which uniforms feed each draw, and with it every seeded dataset.
#[inline]
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let (u1, u2) = normal_uniforms(rng);
    box_muller(u1, u2)
}

/// The two uniforms one [`standard_normal`] draw consumes, in draw order:
/// `u1 ∈ [f64::MIN_POSITIVE, 1)` (clamped so `ln u1` is finite) and
/// `u2 ∈ [0, 1)`.
///
/// Split out so a caller can bound the draw before paying for the
/// transform ([`radius_hi`], [`box_muller_bounds`]) and run [`box_muller`]
/// only if the bound does not settle what the draw decides.
#[inline]
pub fn normal_uniforms<R: Rng + ?Sized>(rng: &mut R) -> (f64, f64) {
    let u1: f64 = rng.random::<f64>().max(f64::MIN_POSITIVE);
    let u2: f64 = rng.random::<f64>();
    (u1, u2)
}

/// The Box–Muller transform of [`normal_uniforms`]' pair:
/// `sqrt(−2 ln u1) · cos(2π u2)`.
#[inline]
pub fn box_muller(u1: f64, u2: f64) -> f64 {
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Bins per axis of the Box–Muller bound table. Even, so `u2 = ½` is a bin
/// edge and every `u2` bin lies inside one monotone half of `cos(2π u2)`.
const BM_BINS: usize = 1024;

/// Per-bin brackets of the two Box–Muller factors: `r[i] = (lo, hi)`
/// brackets `sqrt(−2 ln u1)` over `u1 ∈ [i/N, (i+1)/N)`, and `c[j]`
/// brackets `cos(2π u2)` over `u2 ∈ [j/N, (j+1)/N)`.
struct BoxMullerTable {
    r: [(f64, f64); BM_BINS],
    c: [(f64, f64); BM_BINS],
}

/// Built once per process. Each factor is evaluated at its bin edges with
/// the same library calls as [`box_muller`], then nudged outward — `r` by a
/// relative 1e-12, `cos` by an absolute 1e-12 — which covers the few-ulp
/// rounding of `ln`, `sqrt`, `cos` and `2π·u2` in both the table and the
/// transform by three orders of magnitude. `r` is decreasing in `u1`, so a
/// bin's upper bound sits at its lower edge; the first bin's is `+∞`
/// because `u1` reaches down to `f64::MIN_POSITIVE`.
static BM_TABLE: std::sync::LazyLock<BoxMullerTable> = std::sync::LazyLock::new(|| {
    let radius = |u1: f64| (-2.0 * u1.ln()).sqrt();
    let cos = |u2: f64| (2.0 * std::f64::consts::PI * u2).cos();
    let edge = |i: usize| i as f64 / BM_BINS as f64;
    BoxMullerTable {
        r: std::array::from_fn(|i| {
            let hi = if i == 0 {
                f64::INFINITY
            } else {
                radius(edge(i)) * (1.0 + 1e-12)
            };
            (radius(edge(i + 1)) * (1.0 - 1e-12), hi)
        }),
        c: std::array::from_fn(|j| {
            let (a, b) = (cos(edge(j)), cos(edge(j + 1)));
            (a.min(b) - 1e-12, a.max(b) + 1e-12)
        }),
    }
});

/// Bin of a uniform in `[0, 1)`; the scaling by a power of two is exact.
#[inline]
fn bm_bin(u: f64) -> usize {
    ((u * BM_BINS as f64) as usize).min(BM_BINS - 1)
}

/// An upper bound on `|box_muller(u1, u2)|` for any `u2`: at least
/// `sqrt(−2 ln u1)`, from a table lookup instead of `ln`/`sqrt`. `+∞` for
/// `u1 < 1/1024`.
#[inline]
pub fn radius_hi(u1: f64) -> f64 {
    BM_TABLE.r[bm_bin(u1)].1
}

/// A bracket `(lo, hi)` of `box_muller(u1, u2)`, from table lookups
/// instead of `ln`/`sqrt`/`cos`: `lo ≤ box_muller(u1, u2) ≤ hi`, pinned by
/// a property test. The bracket spans one 1/1024-wide bin of each uniform,
/// so a caller whose decision is a threshold on the draw settles nearly
/// every draw without the transform and pays [`box_muller`] only for the
/// rest.
#[inline]
pub fn box_muller_bounds(u1: f64, u2: f64) -> (f64, f64) {
    let (r_lo, r_hi) = BM_TABLE.r[bm_bin(u1)];
    let (c_lo, c_hi) = BM_TABLE.c[bm_bin(u2)];
    // `r ≥ 0`: each end of the product takes the radius that pushes it
    // outward given the sign of its cosine bound. The nudged cosine bounds
    // are never exactly 0, so `r_hi = ∞` never meets a zero.
    let lo = c_lo * if c_lo < 0.0 { r_hi } else { r_lo };
    let hi = c_hi * if c_hi < 0.0 { r_lo } else { r_hi };
    (lo, hi)
}

/// One Poisson draw with mean `lambda`.
///
/// Knuth's product method below λ = 30 (exact), normal approximation with
/// half-integer correction above (error negligible at that scale). Used for
/// per-bin client packet counts.
pub fn poisson<R: Rng + ?Sized>(rng: &mut R, lambda: f64) -> u64 {
    debug_assert!(lambda >= 0.0);
    if lambda <= 0.0 {
        return 0;
    }
    if lambda < 30.0 {
        let l = (-lambda).exp();
        let mut k = 0u64;
        let mut p = 1.0;
        loop {
            p *= rng.random::<f64>();
            if p <= l {
                return k;
            }
            k += 1;
        }
    } else {
        let v = lambda + lambda.sqrt() * standard_normal(rng);
        v.round().max(0.0) as u64
    }
}

/// Extension trait: `rng.draw(dist)`.
pub trait DrawExt: Rng {
    /// Samples `dist` with `self`.
    fn draw(&mut self, dist: Dist) -> f64 {
        dist.sample(self)
    }
}

impl<R: Rng + ?Sized> DrawExt for R {}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn rng(seed: u64) -> SmallRng {
        SmallRng::seed_from_u64(seed)
    }

    #[test]
    fn derive_seed_is_stable_and_distinct() {
        let s1 = derive_seed(7, 0);
        let s2 = derive_seed(7, 1);
        let s3 = derive_seed(8, 0);
        assert_ne!(s1, s2);
        assert_ne!(s1, s3);
        assert_eq!(derive_seed(7, 0), s1);
        assert_eq!(derive_seed_str(7, "probes"), derive_seed_str(7, "probes"));
        assert_ne!(derive_seed_str(7, "probes"), derive_seed_str(7, "mobility"));
    }

    #[test]
    fn derive_seed_is_injective_in_label() {
        // `parent ⊕ label·golden` is injective in `label` (golden is odd)
        // and the SplitMix64 finalizer is a bijection, so for a fixed base
        // two distinct stream ids can NEVER share a seed. The engines lean
        // on this: per-pair coin streams key `(a << 32) | b`, per-client
        // streams key the client id, and a collision would correlate two
        // "independent" timelines.
        use proptest::prelude::*;
        proptest!(|(
            base in 0u64..u64::MAX,
            l1 in 0u64..u64::MAX,
            l2 in 0u64..u64::MAX,
        )| {
            if l1 != l2 {
                let (a, b) = (derive_seed(base, l1), derive_seed(base, l2));
                prop_assert!(a != b, "collision: base {} labels {} {}", base, l1, l2);
            }
        });
    }

    #[test]
    fn derive_seed_has_no_collisions_across_engine_ranges() {
        // Across the (base, stream-id) pairs one run actually touches —
        // campaign seeds 42..58, the engines' string-keyed sub-bases, and
        // pair-packed `(a << 32) | b` ids plus small client/network ids —
        // every derived seed must be unique. (Across different bases this
        // is statistical rather than structural; 64-bit SplitMix64 makes a
        // collision in ~10⁵ draws a ~10⁻¹⁰ event, so a hit means the mixer
        // is broken.)
        let mut seen = std::collections::HashSet::new();
        let mut total = 0usize;
        for seed in 42u64..58 {
            for sub in ["probe-coins-bg", "probe-coins-ht"] {
                let base = derive_seed_str(seed, sub);
                for a in 0u64..24 {
                    for b in (a + 1)..24 {
                        assert!(seen.insert(derive_seed(base, (a << 32) | b)));
                        total += 1;
                    }
                }
            }
            let base = derive_seed_str(seed, "client-probe-coins");
            for id in 0u64..256 {
                assert!(seen.insert(derive_seed(base, id)), "base {base} id {id}");
                total += 1;
            }
        }
        assert!(total > 10_000, "range under-covered: {total}");
    }

    #[test]
    fn constant_and_uniform() {
        let mut r = rng(1);
        assert_eq!(Dist::Constant(3.5).sample(&mut r), 3.5);
        for _ in 0..1000 {
            let v = Dist::Uniform { lo: 2.0, hi: 5.0 }.sample(&mut r);
            assert!((2.0..5.0).contains(&v));
        }
    }

    #[test]
    fn normal_moments() {
        let mut r = rng(2);
        let d = Dist::Normal {
            mean: 10.0,
            sd: 3.0,
        };
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| d.sample(&mut r)).collect();
        let m = crate::mean(&samples).unwrap();
        let s = crate::stddev(&samples).unwrap();
        assert!((m - 10.0).abs() < 0.05, "mean {m}");
        assert!((s - 3.0).abs() < 0.05, "sd {s}");
    }

    #[test]
    fn lognormal_mean_matches_formula() {
        let mut r = rng(3);
        let d = Dist::LogNormal {
            mu: 0.5,
            sigma: 0.4,
        };
        let n = 200_000;
        let m: f64 = (0..n).map(|_| d.sample(&mut r)).sum::<f64>() / n as f64;
        assert!(
            (m - d.mean()).abs() / d.mean() < 0.02,
            "mean {m} vs {}",
            d.mean()
        );
    }

    #[test]
    fn exp_mean_and_positivity() {
        let mut r = rng(4);
        let d = Dist::Exp { mean: 7.0 };
        let n = 200_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let v = d.sample(&mut r);
            assert!(v >= 0.0);
            sum += v;
        }
        assert!((sum / n as f64 - 7.0).abs() < 0.1);
    }

    #[test]
    fn bounded_pareto_respects_bounds() {
        let mut r = rng(5);
        let d = Dist::BoundedPareto {
            xm: 2.0,
            alpha: 1.2,
            cap: 50.0,
        };
        for _ in 0..10_000 {
            let v = d.sample(&mut r);
            assert!((2.0..=50.0).contains(&v), "out of bounds: {v}");
        }
    }

    #[test]
    fn pareto_mean_formula() {
        let d = Dist::BoundedPareto {
            xm: 1.0,
            alpha: 2.0,
            cap: 1e9,
        };
        assert_eq!(d.mean(), 2.0);
        let heavy = Dist::BoundedPareto {
            xm: 1.0,
            alpha: 0.5,
            cap: 1e9,
        };
        assert!(heavy.mean().is_nan());
    }

    #[test]
    fn standard_normal_symmetric() {
        let mut r = rng(6);
        let n = 100_000;
        let frac_pos = (0..n).filter(|_| standard_normal(&mut r) > 0.0).count() as f64 / n as f64;
        assert!((frac_pos - 0.5).abs() < 0.01);
    }

    /// Asserts both Box–Muller bounds hold at one uniform pair.
    fn assert_brackets(u1: f64, u2: f64) {
        let z = box_muller(u1, u2);
        let (lo, hi) = box_muller_bounds(u1, u2);
        assert!(lo <= z && z <= hi, "u1 {u1:e} u2 {u2}: {lo} ≤ {z} ≤ {hi}");
        assert!(
            z.abs() <= radius_hi(u1),
            "u1 {u1:e}: |{z}| > {}",
            radius_hi(u1)
        );
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(20_000))]
        #[test]
        fn box_muller_bounds_bracket_the_transform(
            u1 in f64::MIN_POSITIVE..1.0,
            u2 in 0.0f64..1.0,
        ) {
            assert_brackets(u1, u2);
        }
    }

    #[test]
    fn box_muller_bounds_hold_at_bin_edges() {
        // Every bin edge of u1 and the ulps either side of it, the extreme
        // uniforms, and the u2 values where cos hits ±1 or 0.
        let mut u1s = vec![f64::MIN_POSITIVE, 1.0 - f64::EPSILON / 2.0];
        for k in 1..BM_BINS {
            let e = k as f64 / BM_BINS as f64;
            u1s.extend([
                f64::from_bits(e.to_bits() - 1),
                e,
                f64::from_bits(e.to_bits() + 1),
            ]);
        }
        let u2s = [0.0, 0.25, 0.5, 0.75, 1.0 - f64::EPSILON / 2.0];
        for &u1 in &u1s {
            for &u2 in &u2s {
                assert_brackets(u1, u2);
            }
        }
        assert_eq!(radius_hi(f64::MIN_POSITIVE), f64::INFINITY);
        // The bracket is tight enough to settle draws: one bin wide.
        let (lo, hi) = box_muller_bounds(0.3, 0.1);
        assert!(hi - lo < 0.01, "loose bracket {lo}..{hi}");
    }

    #[test]
    fn draw_ext_matches_sample() {
        let d = Dist::Uniform { lo: 0.0, hi: 1.0 };
        let mut r1 = rng(9);
        let mut r2 = rng(9);
        assert_eq!(r1.draw(d), d.sample(&mut r2));
    }

    #[test]
    fn poisson_moments_small_lambda() {
        let mut r = rng(21);
        let n = 100_000;
        let xs: Vec<f64> = (0..n).map(|_| poisson(&mut r, 3.5) as f64).collect();
        let m = crate::mean(&xs).unwrap();
        let v = crate::stddev(&xs).unwrap().powi(2);
        assert!((m - 3.5).abs() < 0.05, "mean {m}");
        assert!((v - 3.5).abs() < 0.15, "var {v}");
    }

    #[test]
    fn poisson_moments_large_lambda() {
        let mut r = rng(22);
        let n = 50_000;
        let xs: Vec<f64> = (0..n).map(|_| poisson(&mut r, 120.0) as f64).collect();
        let m = crate::mean(&xs).unwrap();
        assert!((m - 120.0).abs() < 0.5, "mean {m}");
    }

    #[test]
    fn poisson_degenerate() {
        let mut r = rng(23);
        assert_eq!(poisson(&mut r, 0.0), 0);
    }

    #[test]
    fn deterministic_given_seed() {
        let d = Dist::Normal { mean: 0.0, sd: 1.0 };
        let a: Vec<f64> = {
            let mut r = rng(99);
            (0..10).map(|_| d.sample(&mut r)).collect()
        };
        let b: Vec<f64> = {
            let mut r = rng(99);
            (0..10).map(|_| d.sample(&mut r)).collect()
        };
        assert_eq!(a, b);
    }
}
