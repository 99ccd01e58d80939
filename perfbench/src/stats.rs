//! Order statistics over measured samples.

/// Median of `values` (mean of the middle two for even counts); sorts in
/// place. Zero for an empty slice.
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        0.5 * (values[n / 2 - 1] + values[n / 2])
    }
}

/// The `q`-quantile (0..=1) by nearest rank; reorders `values`. Zero
/// for an empty slice.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
    *values.select_nth_unstable_by(rank - 1, f64::total_cmp).1
}

/// The `q`-quantile of `(value, weight)` pairs: the smallest value whose
/// cumulative weight reaches `q` of the total. Sorts in place.
pub fn weighted_quantile(pairs: &mut [(f64, f64)], q: f64) -> f64 {
    if pairs.is_empty() {
        return 0.0;
    }
    pairs.sort_by(|a, b| a.0.total_cmp(&b.0));
    let total: f64 = pairs.iter().map(|p| p.1).sum();
    let target = q * total;
    let mut cum = 0.0;
    for &(value, weight) in pairs.iter() {
        cum += weight;
        if cum >= target {
            return value;
        }
    }
    pairs[pairs.len() - 1].0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&mut []), 0.0);
    }

    #[test]
    fn quantile_is_nearest_rank() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&mut v, 0.5), 50.0);
        assert_eq!(quantile(&mut v, 0.99), 99.0);
        assert_eq!(quantile(&mut v, 1.0), 100.0);
    }

    #[test]
    fn weighted_quantile_follows_weights() {
        let mut pairs = vec![(10.0, 1.0), (20.0, 98.0), (30.0, 1.0)];
        assert_eq!(weighted_quantile(&mut pairs, 0.5), 20.0);
        assert_eq!(weighted_quantile(&mut pairs, 0.995), 30.0);
        assert_eq!(weighted_quantile(&mut pairs, 0.005), 10.0);
    }
}
