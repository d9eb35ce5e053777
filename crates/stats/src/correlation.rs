//! Correlation coefficients.
//!
//! §4.4 of the paper studies the correlation between SNR and throughput;
//! Pearson captures the linear relationship on the rising part of the curve
//! and Spearman the monotone relationship across the full (saturating) range.
//!
//! Both come in two forms: over a pair of slices, and *coded* — each sample
//! a pair of indices into two tables of values, the shape of a large sample
//! with few distinct values (integer SNRs, rate × delivery throughputs).
//! Mid-ranks are computed by counting how often each distinct value occurs,
//! never by sorting the sample itself. The sums run over the samples in
//! their given order, so a coded sample and its expanded slices give the
//! same coefficient bit for bit.

/// Pearson product-moment correlation of two equal-length samples.
///
/// Returns `None` when the slices are empty, differ in length, hold a
/// non-finite value, or either has zero variance (the coefficient is
/// undefined there).
pub fn pearson(xs: &[f64], ys: &[f64]) -> Option<f64> {
    if xs.len() != ys.len() {
        return None;
    }
    pearson_of(|| xs.iter().copied().zip(ys.iter().copied()))
}

/// [`pearson`] of the sample `(xs[i], ys[j])` for each `(i, j)` of `codes`,
/// in order.
///
/// # Panics
///
/// If a code indexes past its table.
pub fn pearson_coded(codes: &[(u32, u32)], xs: &[f64], ys: &[f64]) -> Option<f64> {
    pearson_of(|| codes.iter().map(|&(i, j)| (xs[i as usize], ys[j as usize])))
}

/// Two passes over the sample: the means, then the centred sums.
fn pearson_of<I: Iterator<Item = (f64, f64)>>(sample: impl Fn() -> I) -> Option<f64> {
    let mut n = 0usize;
    let mut sx = 0.0;
    let mut sy = 0.0;
    for (x, y) in sample() {
        if !(x.is_finite() && y.is_finite()) {
            return None;
        }
        n += 1;
        sx += x;
        sy += y;
    }
    if n == 0 {
        return None;
    }
    let n = n as f64;
    let mx = sx / n;
    let my = sy / n;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    let mut sxy = 0.0;
    for (x, y) in sample() {
        let dx = x - mx;
        let dy = y - my;
        sxx += dx * dx;
        syy += dy * dy;
        sxy += dx * dy;
    }
    if sxx <= 0.0 || syy <= 0.0 {
        return None;
    }
    Some(sxy / (sxx.sqrt() * syy.sqrt()))
}

/// Spearman rank correlation: Pearson correlation of the mid-ranks.
///
/// Ties receive the average of the ranks they span (mid-rank method), so the
/// coefficient is exact in the presence of the heavily quantized values our
/// datasets contain (integer SNRs, discrete bit rates). Returns `None` where
/// [`pearson`] does.
pub fn spearman(xs: &[f64], ys: &[f64]) -> Option<f64> {
    if xs.is_empty() || xs.len() != ys.len() || !xs.iter().chain(ys).all(|v| v.is_finite()) {
        return None;
    }
    let (cx, tx) = distinct_codes(xs);
    let (cy, ty) = distinct_codes(ys);
    let codes: Vec<(u32, u32)> = cx.into_iter().zip(cy).collect();
    spearman_coded(&codes, &tx, &ty)
}

/// [`spearman`] of the sample `(xs[i], ys[j])` for each `(i, j)` of `codes`.
/// The tables may repeat a value; equal entries tie. `None` when a table
/// holds a non-finite value.
///
/// # Panics
///
/// If a code indexes past its table.
pub fn spearman_coded(codes: &[(u32, u32)], xs: &[f64], ys: &[f64]) -> Option<f64> {
    if !xs.iter().chain(ys).all(|v| v.is_finite()) {
        return None;
    }
    let mut nx = vec![0u64; xs.len()];
    let mut ny = vec![0u64; ys.len()];
    for &(i, j) in codes {
        nx[i as usize] += 1;
        ny[j as usize] += 1;
    }
    pearson_coded(
        codes,
        &counted_midranks(xs, &nx),
        &counted_midranks(ys, &ny),
    )
}

/// The distinct values of `xs` ascending (values equal by `==` merged) and,
/// per element, the index of its value there.
fn distinct_codes(xs: &[f64]) -> (Vec<u32>, Vec<f64>) {
    let mut distinct = xs.to_vec();
    distinct.sort_by(f64::total_cmp);
    distinct.dedup_by(|a, b| a == b);
    let codes = xs
        .iter()
        .map(|x| {
            let code = distinct.partition_point(|d| d < x);
            u32::try_from(code).expect("fewer than 2^32 distinct values")
        })
        .collect();
    (codes, distinct)
}

/// Mid-ranks by counting: a sample holds `counts[k]` copies of `values[k]`;
/// returns the 1-based rank each table entry gets in that sample, ties
/// (equal by `==`) averaged — the rank every copy would get from sorting
/// the expanded sample.
fn counted_midranks(values: &[f64], counts: &[u64]) -> Vec<f64> {
    let mut order: Vec<usize> = (0..values.len()).collect();
    order.sort_by(|&a, &b| values[a].total_cmp(&values[b]));
    let mut ranks = vec![0.0; values.len()];
    let mut below = 0u64; // samples ranked before the current tie group
    for group in order.chunk_by(|&a, &b| values[a] == values[b]) {
        let n: u64 = group.iter().map(|&k| counts[k]).sum();
        if n > 0 {
            // sorted positions below..=below + n - 1 share the value
            let (i, j) = (below, below + n - 1);
            let avg = (i + j) as f64 / 2.0 + 1.0;
            for &k in group {
                ranks[k] = avg;
            }
        }
        below += n;
    }
    ranks
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The reference rank algorithm: mid-ranks (1-based; ties averaged) by
    /// index-sorting the whole sample.
    fn midranks(xs: &[f64]) -> Vec<f64> {
        let mut idx: Vec<usize> = (0..xs.len()).collect();
        idx.sort_by(|&a, &b| xs[a].partial_cmp(&xs[b]).expect("finite values"));
        let mut ranks = vec![0.0; xs.len()];
        let mut i = 0;
        while i < idx.len() {
            let mut j = i;
            while j + 1 < idx.len() && xs[idx[j + 1]] == xs[idx[i]] {
                j += 1;
            }
            // positions i..=j share the same value; assign the average rank
            let avg = (i + j) as f64 / 2.0 + 1.0;
            for &k in &idx[i..=j] {
                ranks[k] = avg;
            }
            i = j + 1;
        }
        ranks
    }

    /// The reference Spearman: Pearson of the index-sort mid-ranks.
    fn spearman_reference(xs: &[f64], ys: &[f64]) -> Option<f64> {
        if xs.is_empty() || xs.len() != ys.len() {
            return None;
        }
        pearson(&midranks(xs), &midranks(ys))
    }

    fn bits(r: Option<f64>) -> Option<u64> {
        r.map(f64::to_bits)
    }

    /// A value from a tie-heavy pool: integers scaled by 1.5, with -4
    /// standing for -0.0 so signed zeros mix with +0.0.
    fn pool_value(pool: &[i32], pick: usize) -> f64 {
        match pool[pick % pool.len()] {
            -4 => -0.0,
            v => f64::from(v) * 1.5,
        }
    }

    #[test]
    fn pearson_perfect_linear() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let ys = [2.0, 4.0, 6.0, 8.0];
        assert!((pearson(&xs, &ys).unwrap() - 1.0).abs() < 1e-12);
        let neg: Vec<f64> = ys.iter().map(|y| -y).collect();
        assert!((pearson(&xs, &neg).unwrap() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_undefined_cases() {
        assert_eq!(pearson(&[], &[]), None);
        assert_eq!(pearson(&[1.0], &[1.0, 2.0]), None);
        assert_eq!(pearson(&[1.0, 1.0], &[1.0, 2.0]), None); // zero variance
    }

    #[test]
    fn spearman_monotone_nonlinear() {
        // y = x^3 is nonlinear but perfectly monotone.
        let xs: [f64; 5] = [-2.0, -1.0, 0.0, 1.0, 2.0];
        let ys: Vec<f64> = xs.iter().map(|x| x.powi(3)).collect();
        assert!((spearman(&xs, &ys).unwrap() - 1.0).abs() < 1e-12);
        let p = pearson(&xs, &ys).unwrap();
        assert!(p < 1.0);
    }

    #[test]
    fn spearman_handles_ties() {
        let xs = [1.0, 1.0, 2.0, 3.0];
        let ys = [5.0, 5.0, 6.0, 7.0];
        assert!((spearman(&xs, &ys).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn midranks_average_ties() {
        assert_eq!(
            midranks(&[10.0, 20.0, 20.0, 30.0]),
            vec![1.0, 2.5, 2.5, 4.0]
        );
        assert_eq!(midranks(&[5.0]), vec![1.0]);
    }

    #[test]
    fn non_finite_input_is_none() {
        let ok = [1.0, 2.0, 3.0];
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let with_bad = [1.0, bad, 3.0];
            assert_eq!(pearson(&with_bad, &ok), None);
            assert_eq!(pearson(&ok, &with_bad), None);
            assert_eq!(spearman(&with_bad, &ok), None);
            assert_eq!(spearman(&ok, &with_bad), None);
            assert_eq!(
                spearman_coded(&[(0, 0), (1, 1)], &[0.0, bad], &[1.0, 2.0]),
                None
            );
            assert_eq!(
                pearson_coded(&[(0, 0), (1, 1)], &[0.0, bad], &[1.0, 2.0]),
                None
            );
        }
    }

    #[test]
    fn spearman_undefined_cases() {
        assert_eq!(spearman(&[], &[]), None);
        assert_eq!(spearman(&[1.0], &[2.0]), None); // n = 1
        assert_eq!(spearman(&[1.0, 2.0], &[1.0]), None);
        // a single distinct value has zero rank variance
        assert_eq!(spearman(&[4.0, 4.0, 4.0], &[1.0, 2.0, 3.0]), None);
        assert_eq!(spearman(&[0.0, -0.0, 0.0], &[1.0, 2.0, 3.0]), None);
        assert_eq!(spearman_coded(&[], &[], &[]), None);
    }

    #[test]
    fn counted_midranks_merge_equal_table_entries() {
        // +0 and -0 are one value; the unsampled 9.0 takes no rank
        let ranks = counted_midranks(&[0.0, 5.0, -0.0, 9.0], &[1, 2, 1, 0]);
        assert_eq!(ranks[..3], [1.5, 3.5, 1.5]);
        assert_eq!(midranks(&[0.0, 5.0, 5.0, -0.0]), vec![1.5, 3.5, 3.5, 1.5]);
    }

    #[test]
    fn coded_matches_expanded() {
        let codes = [(0, 1), (1, 0), (2, 2), (1, 1), (0, 0)];
        let (tx, ty) = ([3.0, 1.0, 8.0], [2.5, 7.0, 7.5]);
        let xs: Vec<f64> = codes.iter().map(|&(i, _)| tx[i as usize]).collect();
        let ys: Vec<f64> = codes.iter().map(|&(_, j)| ty[j as usize]).collect();
        assert_eq!(
            bits(pearson_coded(&codes, &tx, &ty)),
            bits(pearson(&xs, &ys))
        );
        assert_eq!(
            bits(spearman_coded(&codes, &tx, &ty)),
            bits(spearman(&xs, &ys))
        );
    }

    proptest! {
        #[test]
        fn counted_midranks_match_index_sort(
            pool in proptest::collection::vec(-4i32..5, 1..6),
            picks in proptest::collection::vec(0usize..5, 1..80),
        ) {
            let xs: Vec<f64> = picks.iter().map(|&k| pool_value(&pool, k)).collect();
            let (codes, table) = distinct_codes(&xs);
            let mut counts = vec![0u64; table.len()];
            for &c in &codes {
                counts[c as usize] += 1;
            }
            let ranks = counted_midranks(&table, &counts);
            for (&c, r) in codes.iter().zip(midranks(&xs)) {
                prop_assert_eq!(ranks[c as usize].to_bits(), r.to_bits());
            }
        }

        #[test]
        fn spearman_matches_index_sort_bit_for_bit(
            pool_x in proptest::collection::vec(-4i32..5, 1..6),
            pool_y in proptest::collection::vec(-4i32..5, 1..6),
            picks in proptest::collection::vec((0usize..5, 0usize..5), 1..80),
        ) {
            let xs: Vec<f64> = picks.iter().map(|&(k, _)| pool_value(&pool_x, k)).collect();
            let ys: Vec<f64> = picks.iter().map(|&(_, k)| pool_value(&pool_y, k)).collect();
            prop_assert_eq!(bits(spearman(&xs, &ys)), bits(spearman_reference(&xs, &ys)));
        }

        #[test]
        fn spearman_matches_index_sort_on_continuous_values(
            pairs in proptest::collection::vec((-1e3f64..1e3, -1e3f64..1e3), 1..100)
        ) {
            let xs: Vec<f64> = pairs.iter().map(|p| p.0).collect();
            let ys: Vec<f64> = pairs.iter().map(|p| p.1).collect();
            prop_assert_eq!(bits(spearman(&xs, &ys)), bits(spearman_reference(&xs, &ys)));
        }

        #[test]
        fn pearson_in_unit_interval(pairs in proptest::collection::vec((-1e3f64..1e3, -1e3f64..1e3), 3..100)) {
            let xs: Vec<f64> = pairs.iter().map(|p| p.0).collect();
            let ys: Vec<f64> = pairs.iter().map(|p| p.1).collect();
            if let Some(r) = pearson(&xs, &ys) {
                prop_assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&r));
            }
        }

        #[test]
        fn pearson_symmetric(pairs in proptest::collection::vec((-1e3f64..1e3, -1e3f64..1e3), 3..100)) {
            let xs: Vec<f64> = pairs.iter().map(|p| p.0).collect();
            let ys: Vec<f64> = pairs.iter().map(|p| p.1).collect();
            match (pearson(&xs, &ys), pearson(&ys, &xs)) {
                (Some(a), Some(b)) => prop_assert!((a - b).abs() < 1e-9),
                (a, b) => prop_assert_eq!(a.is_none(), b.is_none()),
            }
        }

        #[test]
        fn spearman_invariant_to_monotone_transform(
            pairs in proptest::collection::vec((-10.0f64..10.0, -10.0f64..10.0), 3..60)
        ) {
            let xs: Vec<f64> = pairs.iter().map(|p| p.0).collect();
            let ys: Vec<f64> = pairs.iter().map(|p| p.1).collect();
            let xs_t: Vec<f64> = xs.iter().map(|x| x.exp()).collect(); // strictly increasing
            match (spearman(&xs, &ys), spearman(&xs_t, &ys)) {
                (Some(a), Some(b)) => prop_assert!((a - b).abs() < 1e-9),
                (a, b) => prop_assert_eq!(a.is_none(), b.is_none()),
            }
        }
    }
}
