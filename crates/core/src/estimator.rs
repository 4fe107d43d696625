//! Deriving aggregate estimates from converged instance states.
//!
//! At the end of an epoch every node holds converged instance states; the
//! functions here turn them into the aggregates of Section 5:
//!
//! * [`count_estimates`] / [`count_estimate`] — network size from a COUNT
//!   instance map (`N̂ = 1/e` per leader, robustly combined).
//! * [`trimmed_mean`] — the paper's Section 7.3 combination rule: order the
//!   `t` estimates, discard the `⌊t/3⌋` lowest and highest, average the
//!   rest.
//! * [`sum_estimate`], [`variance_estimate`], [`product_estimate`] —
//!   compositions of averaging instances.

/// Robust combination of multiple estimates (paper Section 7.3): sorts the
/// values, discards the `⌊t/3⌋` lowest and `⌊t/3⌋` highest, and returns the
/// mean of the remainder.
///
/// Returns `None` for an empty slice. With one or two values nothing is
/// trimmed.
///
/// Total over every input: values are ordered by [`f64::total_cmp`], so a
/// NaN sorts past ±∞ (above for a positive sign bit, below for a negative
/// one) and is trimmed like any other extreme. Only when a NaN survives
/// the trim — too few values around it — is the result NaN.
///
/// # Examples
///
/// ```
/// use epidemic_aggregation::estimator::trimmed_mean;
///
/// // Outliers produced by "unlucky" protocol runs are discarded.
/// let estimates = [98.0, 101.0, 99.0, 1.0e6, 100.0, 102.0, 0.5];
/// let robust = trimmed_mean(&estimates).unwrap();
/// assert!((robust - 100.0).abs() < 2.0);
/// ```
pub fn trimmed_mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let trim = sorted.len() / 3;
    let kept = &sorted[trim..sorted.len() - trim];
    Some(kept.iter().sum::<f64>() / kept.len() as f64)
}

/// Per-leader network size estimates from a COUNT instance map:
/// `N̂_l = 1 / e_l` for every entry with a positive estimate.
///
/// Entries with non-positive estimates are skipped — they carry no usable
/// information (the instance's mass never reached this node).
pub fn count_estimates(map: &crate::value::InstanceMap) -> Vec<f64> {
    map.iter()
        .filter(|&(_, e)| e > 0.0)
        .map(|(_, e)| 1.0 / e)
        .collect()
}

/// Robust network size estimate from a COUNT instance map: the
/// [`trimmed_mean`] of the per-leader estimates. `None` if the map holds no
/// usable entry.
pub fn count_estimate(map: &crate::value::InstanceMap) -> Option<f64> {
    let estimates = count_estimates(map);
    trimmed_mean(&estimates)
}

/// SUM = AVERAGE × COUNT (paper Section 5, SUM).
pub fn sum_estimate(average: f64, count: f64) -> f64 {
    average * count
}

/// VARIANCE = mean of squares − square of mean (paper Section 5, VARIANCE).
///
/// This is the population variance; multiply by `n/(n−1)` for the unbiased
/// sample variance if `n` is known. Clamped at zero: rounding in the gossip
/// estimates can make the raw difference slightly negative once converged.
pub fn variance_estimate(mean: f64, mean_of_squares: f64) -> f64 {
    (mean_of_squares - mean * mean).max(0.0)
}

/// PRODUCT = (geometric mean)^COUNT (paper Section 5, PRODUCT), computed in
/// log space to survive astronomically large products.
///
/// Returns `f64::INFINITY`/`0.0` on overflow/underflow like `exp` does.
///
/// # Panics
///
/// Panics if `geometric_mean` is negative.
pub fn product_estimate(geometric_mean: f64, count: f64) -> f64 {
    assert!(geometric_mean >= 0.0, "geometric mean must be non-negative");
    if geometric_mean == 0.0 {
        return 0.0;
    }
    (count * geometric_mean.ln()).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::InstanceMap;

    #[test]
    fn trimmed_mean_empty_and_small() {
        assert_eq!(trimmed_mean(&[]), None);
        assert_eq!(trimmed_mean(&[5.0]), Some(5.0));
        assert_eq!(trimmed_mean(&[2.0, 4.0]), Some(3.0));
    }

    #[test]
    fn trimmed_mean_discards_extremes() {
        // t = 6 -> trim 2 from each side, keep middle 2.
        let v = [0.0, 1.0, 10.0, 11.0, 100.0, 101.0];
        assert_eq!(trimmed_mean(&v), Some(10.5));
    }

    #[test]
    fn trimmed_mean_matches_paper_rule() {
        // t = 7: floor(7/3) = 2 trimmed per side, 3 kept.
        let v = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0];
        assert_eq!(trimmed_mean(&v), Some(4.0));
        // t = 3: floor(3/3) = 1 per side, median remains.
        assert_eq!(trimmed_mean(&[1.0, 50.0, 1e9]), Some(50.0));
    }

    #[test]
    fn trimmed_mean_is_order_invariant() {
        let a = [9.0, 1.0, 5.0, 7.0, 3.0];
        let b = [1.0, 3.0, 5.0, 7.0, 9.0];
        assert_eq!(trimmed_mean(&a), trimmed_mean(&b));
    }

    #[test]
    fn trimmed_mean_robust_to_infinite_outliers() {
        // An instance whose leader crashed early can report +inf (estimate
        // 1/e with e -> 0). The trim must absorb it.
        let v = [100.0, 102.0, 98.0, f64::INFINITY, 0.0, 101.0, 99.0];
        let robust = trimmed_mean(&v).unwrap();
        assert!(robust.is_finite());
        assert!((robust - 100.0).abs() < 2.0);
        // A NaN neither panics nor leaks: it sorts above +inf and is
        // trimmed with it (t = 8 trims two per side).
        let mut with_nan = v.to_vec();
        with_nan.push(f64::NAN);
        assert_eq!(trimmed_mean(&with_nan), Some(100.5));
        // Untrimmable, it propagates instead of panicking.
        assert!(trimmed_mean(&[1.0, f64::NAN]).unwrap().is_nan());
    }

    #[test]
    fn count_estimates_inverts() {
        let map = InstanceMap::from_entries([(1, 0.01), (2, 0.0125)]);
        let mut est = count_estimates(&map);
        est.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(est, vec![80.0, 100.0]);
    }

    #[test]
    fn count_estimates_skips_nonpositive() {
        let map = InstanceMap::from_entries([(1, 0.0), (2, 0.5), (3, -0.1)]);
        assert_eq!(count_estimates(&map), vec![2.0]);
    }

    #[test]
    fn count_estimate_of_empty_map_is_none() {
        assert_eq!(count_estimate(&InstanceMap::new()), None);
        let dead = InstanceMap::from_entries([(1, 0.0)]);
        assert_eq!(count_estimate(&dead), None);
    }

    #[test]
    fn count_estimate_trims() {
        // Six instances, two corrupted.
        let map = InstanceMap::from_entries([
            (1, 1.0 / 100.0),
            (2, 1.0 / 101.0),
            (3, 1.0 / 99.0),
            (4, 1.0 / 1e9),  // corrupted high
            (5, 1.0 / 0.01), // corrupted low
            (6, 1.0 / 100.0),
        ]);
        let est = count_estimate(&map).unwrap();
        assert!((est - 100.0).abs() < 2.0, "estimate {est}");
    }

    #[test]
    fn sum_and_variance() {
        assert_eq!(sum_estimate(2.5, 100.0), 250.0);
        assert!((variance_estimate(3.0, 13.0) - 4.0).abs() < 1e-12);
        // Clamping guards against converged-estimate rounding.
        assert_eq!(variance_estimate(3.0, 9.0 - 1e-13), 0.0);
    }

    #[test]
    fn product_estimates() {
        assert!((product_estimate(2.0, 10.0) - 1024.0).abs() < 1e-9);
        assert_eq!(product_estimate(0.0, 5.0), 0.0);
        // Huge products stay representable failures, not panics.
        assert!(product_estimate(10.0, 500.0).is_infinite());
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn product_rejects_negative_geomean() {
        product_estimate(-1.0, 3.0);
    }
}
