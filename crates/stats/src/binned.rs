//! Binned statistics: summaries of `y` values grouped by `x` bins.
//!
//! This is the engine behind the paper's "curve with error bars" figures:
//!
//! * Fig 5.4 — median/maximum improvement vs path length;
//! * Fig 5.5 — mean improvement ± σ vs network size;
//! * Fig 6.2 — mean range ratio ± σ vs bit rate.

use serde::{Deserialize, Serialize};

use crate::summary::Summary;

/// Accumulates `(x, y)` pairs into integer-keyed x-bins and summarizes the
/// `y` population of each bin.
///
/// The caller supplies the binning function at push time (commonly
/// `x.round() as i64` for SNR dB, or an identity for already-discrete
/// x-values like hop counts).
///
/// ```
/// use mesh11_stats::BinnedStats;
/// let mut b = BinnedStats::new();
/// b.push(1, 10.0);
/// b.push(1, 20.0);
/// b.push(2, 5.0);
/// let rows = b.rows();
/// assert_eq!(rows.len(), 2);
/// assert_eq!(rows[0].0, 1);
/// assert_eq!(rows[0].1.median, 15.0);
/// ```
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct BinnedStats {
    bins: std::collections::BTreeMap<i64, Vec<f64>>,
}

impl BinnedStats {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a sample `y` to bin `x`.
    pub fn push(&mut self, x: i64, y: f64) {
        debug_assert!(y.is_finite());
        self.bins.entry(x).or_default().push(y);
    }

    /// Number of non-empty bins.
    pub fn len(&self) -> usize {
        self.bins.len()
    }

    /// True when no sample has been pushed.
    pub fn is_empty(&self) -> bool {
        self.bins.is_empty()
    }

    /// Raw samples of a bin, if present.
    pub fn bin(&self, x: i64) -> Option<&[f64]> {
        self.bins.get(&x).map(Vec::as_slice)
    }

    /// Summary rows `(x, Summary)` in ascending x order.
    pub fn rows(&self) -> Vec<(i64, Summary)> {
        self.bins
            .iter()
            .map(|(&x, ys)| (x, Summary::of(ys).expect("bins are non-empty and finite")))
            .collect()
    }

    /// Iterator over `(x, &samples)` in ascending x order.
    pub fn iter(&self) -> impl Iterator<Item = (i64, &[f64])> + '_ {
        self.bins.iter().map(|(&x, ys)| (x, ys.as_slice()))
    }

    /// Merges another accumulator into this one.
    pub fn merge(&mut self, other: BinnedStats) {
        for (x, mut ys) in other.bins {
            self.bins.entry(x).or_default().append(&mut ys);
        }
    }
}

impl FromIterator<(i64, f64)> for BinnedStats {
    fn from_iter<I: IntoIterator<Item = (i64, f64)>>(iter: I) -> Self {
        let mut b = Self::new();
        for (x, y) in iter {
            b.push(x, y);
        }
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn rows_sorted_by_x() {
        let b: BinnedStats = [(5, 1.0), (-2, 2.0), (3, 3.0)].into_iter().collect();
        let xs: Vec<i64> = b.rows().iter().map(|r| r.0).collect();
        assert_eq!(xs, vec![-2, 3, 5]);
    }

    #[test]
    fn bin_lookup() {
        let b: BinnedStats = [(1, 1.0), (1, 3.0)].into_iter().collect();
        assert_eq!(b.bin(1), Some(&[1.0, 3.0][..]));
        assert_eq!(b.bin(2), None);
        assert_eq!(b.len(), 1);
        assert!(!b.is_empty());
    }

    #[test]
    fn summaries_per_bin() {
        let b: BinnedStats = [(0, 1.0), (0, 2.0), (0, 3.0), (1, 10.0)]
            .into_iter()
            .collect();
        let rows = b.rows();
        assert_eq!(rows[0].1.median, 2.0);
        assert_eq!(rows[0].1.count, 3);
        assert_eq!(rows[1].1.count, 1);
    }

    #[test]
    fn merge_combines_bins() {
        let mut a: BinnedStats = [(0, 1.0)].into_iter().collect();
        let b: BinnedStats = [(0, 3.0), (1, 5.0)].into_iter().collect();
        a.merge(b);
        assert_eq!(a.bin(0), Some(&[1.0, 3.0][..]));
        assert_eq!(a.bin(1), Some(&[5.0][..]));
    }

    proptest! {
        #[test]
        fn total_count_preserved(pairs in proptest::collection::vec((-50i64..50, -1e3f64..1e3), 0..300)) {
            let b: BinnedStats = pairs.iter().copied().collect();
            let total: usize = b.rows().iter().map(|r| r.1.count).sum();
            prop_assert_eq!(total, pairs.len());
        }
    }
}
