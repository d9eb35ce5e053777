//! Counted samples: a multiset of `f64`s held as its distinct values, each
//! with a count.
//!
//! A sample with few distinct values (a throughput difference is a rate
//! times a delivery ratio, so a few thousand values cover millions of
//! samples) answers its order statistics from the counts, in memory that
//! follows the number of distinct values rather than the number of
//! samples.

use std::collections::HashMap;

use crate::quantile_counted;

/// A sample held as counts of its distinct values, plus the sum of its
/// samples in the order they were pushed.
///
/// Every query gives the bits a [`Cdf`](crate::Cdf) over the same samples
/// gives, in push order: [`Counts::quantile`], [`Counts::points`],
/// [`Counts::frac_below`] and [`Counts::len`], and [`Counts::mean`] gives
/// the bits of [`mean`](crate::mean) over them. Samples must be finite, as
/// a `Cdf` requires.
///
/// ```
/// use mesh11_stats::{Cdf, Counts};
/// let xs = [3.0, 1.0, 3.0, 2.0];
/// let counts: Counts = xs.into_iter().collect();
/// let cdf = Cdf::from_samples(xs).unwrap();
/// assert_eq!(counts.quantile(0.5), Some(cdf.quantile(0.5)));
/// assert_eq!(counts.points(5), cdf.points(5));
/// assert_eq!(counts.cells(), vec![(1.0, 1), (2.0, 1), (3.0, 2)]);
/// ```
#[derive(Debug, Clone)]
pub struct Counts {
    /// Count per distinct non-zero value, keyed by its bits.
    nonzero: HashMap<u64, u64>,
    /// The zeros' signs in push order, run-length coded as `(negative,
    /// run)`. A stable sort treats −0.0 and +0.0 as equal and keeps them
    /// in input order, so which zero holds a rank depends on that order.
    zeros: Vec<(bool, u64)>,
    len: u64,
    /// The samples added up in push order.
    sum: f64,
}

impl Default for Counts {
    fn default() -> Self {
        Self::new()
    }
}

impl Counts {
    /// An empty sample.
    pub fn new() -> Self {
        Self {
            nonzero: HashMap::new(),
            zeros: Vec::new(),
            len: 0,
            // The additive identity `Iterator::sum` starts from, so that
            // a sum of zeros keeps its sign as `mean` does.
            sum: -0.0,
        }
    }

    /// Adds one sample.
    pub fn push(&mut self, v: f64) {
        debug_assert!(v.is_finite(), "counted samples are finite");
        self.len += 1;
        self.sum += v;
        if v != 0.0 {
            *self.nonzero.entry(v.to_bits()).or_insert(0) += 1;
            return;
        }
        let negative = v.is_sign_negative();
        match self.zeros.last_mut() {
            Some((sign, run)) if *sign == negative => *run += 1,
            _ => self.zeros.push((negative, 1)),
        }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True when no sample has been pushed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The samples added up in push order.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Arithmetic mean; `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (self.len > 0).then(|| self.sum / self.len as f64)
    }

    /// The sample as a stable sort orders it, run-length coded as
    /// `(value, count)`: the distinct values ascending, except that the
    /// zeros come as their runs in push order.
    pub fn cells(&self) -> Vec<(f64, u64)> {
        let mut values: Vec<(f64, u64)> = self
            .nonzero
            .iter()
            .map(|(&bits, &n)| (f64::from_bits(bits), n))
            .collect();
        values.sort_by(|a, b| a.0.total_cmp(&b.0));
        let positive = values.partition_point(|&(v, _)| v < 0.0);
        let zeros = self
            .zeros
            .iter()
            .map(|&(negative, run)| (if negative { -0.0 } else { 0.0 }, run));
        values.splice(positive..positive, zeros);
        values
    }

    /// The q-quantile with linear interpolation (type 7), as
    /// [`Cdf::quantile`](crate::Cdf::quantile); `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        quantile_counted(&self.cells(), q)
    }

    /// `n` evenly spaced quantile points `(F⁻¹(q), q)`, as
    /// [`Cdf::points`](crate::Cdf::points); empty when the sample is.
    pub fn points(&self, n: usize) -> Vec<(f64, f64)> {
        if self.is_empty() {
            return Vec::new();
        }
        let cells = self.cells();
        let n = n.max(2);
        (0..n)
            .map(|i| {
                let q = i as f64 / (n - 1) as f64;
                let v = quantile_counted(&cells, q).expect("non-empty sample");
                (v, q)
            })
            .collect()
    }

    /// Fraction of samples strictly below `x`, as
    /// [`Cdf::frac_below`](crate::Cdf::frac_below). NaN when empty.
    pub fn frac_below(&self, x: f64) -> f64 {
        let below: u64 = self
            .cells()
            .iter()
            .filter(|&&(v, _)| v < x)
            .map(|&(_, n)| n)
            .sum();
        below as f64 / self.len as f64
    }
}

impl Extend<f64> for Counts {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for v in iter {
            self.push(v);
        }
    }
}

impl FromIterator<f64> for Counts {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut c = Self::new();
        c.extend(iter);
        c
    }
}
