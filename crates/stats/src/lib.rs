//! # mesh11-stats
//!
//! Statistics substrate for the `mesh11` toolkit.
//!
//! Every analysis in the paper — CDFs of SNR standard deviations (Fig 3.1),
//! throughput-penalty CDFs (Fig 4.4), improvement CDFs (Fig 5.1), binned
//! median curves (Fig 4.5), mean ± σ bar series (Figs 5.5, 6.2) —
//! reduces to a handful of empirical-statistics primitives. This crate
//! provides those primitives with well-defined semantics, plus the seeded
//! random distributions the simulator substrate draws from.
//!
//! ## Modules
//!
//! * [`cdf`] — empirical cumulative distribution functions with exact
//!   inverse-quantile queries.
//! * [`counts`] — a sample held as counts of its distinct values, with
//!   the order statistics a [`Cdf`] over the same samples gives.
//! * [`summary`] — streaming (Welford) and batch summary statistics.
//! * [`histogram`] — fixed-width binned counts.
//! * [`binned`] — binned statistics of `y` grouped by `x` bins (median /
//!   quartiles / mean ± σ per bin), the engine behind the paper's
//!   "curve with error bars" figures.
//! * [`correlation`] — Pearson and Spearman correlation coefficients, over
//!   slices or over samples coded into small distinct-value tables.
//! * [`dist`] — deterministic distributions (normal via Box–Muller,
//!   lognormal, exponential, bounded Pareto, discrete lognormal) layered on
//!   any [`rand::Rng`], so the simulator does not need `rand_distr`.
//!
//! ## Quantile convention
//!
//! All quantile computations use linear interpolation between order
//! statistics (type-7 in Hyndman–Fan terminology, the R/NumPy default), so
//! medians and quartiles agree with what the paper's plotting scripts
//! (gnuplot/NumPy-era) would have produced.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod binned;
pub mod cdf;
pub mod ci;
pub mod correlation;
pub mod counts;
pub mod dist;
pub mod histogram;
pub mod summary;

pub use binned::BinnedStats;
pub use cdf::Cdf;
pub use ci::{mean_ci95, t_crit_975};
pub use correlation::{pearson, pearson_coded, spearman, spearman_coded};
pub use counts::Counts;
pub use dist::{Dist, DrawExt};
pub use histogram::Histogram;
pub use summary::{OnlineSummary, Summary};

/// Linear-interpolation quantile (Hyndman–Fan type 7) of a **sorted** slice.
///
/// `q` is clamped to `[0, 1]`. Returns `None` on an empty slice.
///
/// ```
/// let xs = [1.0, 2.0, 3.0, 4.0];
/// assert_eq!(mesh11_stats::quantile_sorted(&xs, 0.5), Some(2.5));
/// assert_eq!(mesh11_stats::quantile_sorted(&xs, 0.0), Some(1.0));
/// assert_eq!(mesh11_stats::quantile_sorted(&xs, 1.0), Some(4.0));
/// ```
pub fn quantile_sorted(sorted: &[f64], q: f64) -> Option<f64> {
    type7(sorted.len() as u64, q, |k| sorted[k as usize])
}

/// [`quantile_sorted`] of a sample held as a histogram: `(value, count)`
/// cells in ascending value order, each value standing for `count` copies.
/// Bit-for-bit the quantile of the expanded sorted sample, without
/// expanding it. Returns `None` when the counts sum to zero.
///
/// ```
/// let cells = [(1.0, 1), (2.0, 2), (4.0, 1)]; // the sample [1, 2, 2, 4]
/// assert_eq!(mesh11_stats::quantile_counted(&cells, 0.5), Some(2.0));
/// assert_eq!(mesh11_stats::quantile_counted(&cells, 1.0), Some(4.0));
/// ```
pub fn quantile_counted(cells: &[(f64, u64)], q: f64) -> Option<f64> {
    let n = cells.iter().map(|&(_, c)| c).sum();
    type7(n, q, |mut k| {
        for &(v, c) in cells {
            if k < c {
                return v;
            }
            k -= c;
        }
        unreachable!("order statistic within the total count")
    })
}

/// The type-7 interpolation over a sample of `n` values whose `k`-th
/// smallest (0-based) is `at(k)`.
fn type7(n: u64, q: f64, at: impl Fn(u64) -> f64) -> Option<f64> {
    if n == 0 {
        return None;
    }
    let q = q.clamp(0.0, 1.0);
    let pos = q * (n - 1) as f64;
    let lo = pos.floor() as u64;
    let hi = pos.ceil() as u64;
    if lo == hi {
        return Some(at(lo));
    }
    let frac = pos - lo as f64;
    Some(at(lo) * (1.0 - frac) + at(hi) * frac)
}

/// Quantile of an unsorted slice; sorts a copy internally.
///
/// Non-finite values are rejected by debug assertion; callers are expected to
/// filter NaNs at ingestion.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    debug_assert!(values.iter().all(|v| v.is_finite()));
    let mut v = values.to_vec();
    v.sort_by(|a, b| {
        a.partial_cmp(b)
            .expect("non-finite value in quantile input")
    });
    quantile_sorted(&v, q)
}

/// Median shorthand over an unsorted slice.
pub fn median(values: &[f64]) -> Option<f64> {
    quantile(values, 0.5)
}

/// Arithmetic mean; `None` on an empty slice.
pub fn mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        None
    } else {
        Some(values.iter().sum::<f64>() / values.len() as f64)
    }
}

/// Sample standard deviation (n−1 denominator); `None` for fewer than two
/// samples.
pub fn stddev(values: &[f64]) -> Option<f64> {
    if values.len() < 2 {
        return None;
    }
    let m = mean(values)?;
    let ss: f64 = values.iter().map(|v| (v - m) * (v - m)).sum();
    Some((ss / (values.len() - 1) as f64).sqrt())
}

/// Population standard deviation (n denominator); `None` on an empty slice.
///
/// Fig 3.1 reports the spread of a *complete* probe set (all rates observed),
/// for which the population form is the faithful statistic.
pub fn stddev_pop(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let m = mean(values)?;
    let ss: f64 = values.iter().map(|v| (v - m) * (v - m)).sum();
    Some((ss / values.len() as f64).sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_singleton() {
        assert_eq!(quantile(&[7.0], 0.0), Some(7.0));
        assert_eq!(quantile(&[7.0], 0.5), Some(7.0));
        assert_eq!(quantile(&[7.0], 1.0), Some(7.0));
    }

    #[test]
    fn quantile_empty_is_none() {
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(median(&[]), None);
        assert_eq!(mean(&[]), None);
        assert_eq!(stddev_pop(&[]), None);
    }

    #[test]
    fn quantile_interpolates() {
        let xs = [10.0, 20.0];
        assert_eq!(quantile(&xs, 0.25), Some(12.5));
        assert_eq!(quantile(&xs, 0.75), Some(17.5));
    }

    #[test]
    fn quantile_unsorted_input() {
        let xs = [3.0, 1.0, 2.0];
        assert_eq!(median(&xs), Some(2.0));
    }

    #[test]
    fn quantile_clamps_out_of_range_q() {
        let xs = [1.0, 2.0, 3.0];
        assert_eq!(quantile(&xs, -0.5), Some(1.0));
        assert_eq!(quantile(&xs, 1.5), Some(3.0));
    }

    #[test]
    fn mean_and_stddev_basic() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert_eq!(mean(&xs), Some(5.0));
        // Known population sigma of this classic example is 2.0.
        assert!((stddev_pop(&xs).unwrap() - 2.0).abs() < 1e-12);
        // Sample sigma is sqrt(32/7).
        assert!((stddev(&xs).unwrap() - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn quantile_counted_edges() {
        assert_eq!(quantile_counted(&[], 0.5), None);
        assert_eq!(quantile_counted(&[(3.0, 0)], 0.5), None);
        // zero-count cells are skipped
        assert_eq!(
            quantile_counted(&[(1.0, 0), (2.0, 1), (5.0, 0), (6.0, 1)], 0.5),
            Some(4.0)
        );
    }

    proptest::proptest! {
        #[test]
        fn quantile_counted_matches_quantile_sorted(
            pool in proptest::collection::vec(-20i32..20, 1..8),
            counts in proptest::collection::vec(0u64..6, 1..8),
            q in 0.0f64..1.0,
        ) {
            // distinct ascending values, each with a count (zero allowed)
            let mut values: Vec<f64> = pool.iter().map(|&v| f64::from(v) * 0.7).collect();
            values.sort_by(f64::total_cmp);
            values.dedup();
            let cells: Vec<(f64, u64)> =
                values.iter().zip(counts.iter().cycle()).map(|(&v, &c)| (v, c)).collect();
            let sorted: Vec<f64> = cells
                .iter()
                .flat_map(|&(v, c)| std::iter::repeat_n(v, c as usize))
                .collect();
            for q in [q, 0.0, 0.25, 0.5, 0.75, 1.0] {
                proptest::prop_assert_eq!(
                    quantile_counted(&cells, q).map(f64::to_bits),
                    quantile_sorted(&sorted, q).map(f64::to_bits)
                );
            }
        }
    }

    #[test]
    fn stddev_needs_two_samples() {
        assert_eq!(stddev(&[1.0]), None);
        assert_eq!(stddev_pop(&[1.0]), Some(0.0));
    }
}
