//! Order statistics: the median, the tail-percentile rule and quartiles.

/// Median of `values` (mean of the two middle values for an even count);
/// NaN for no samples.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Value at percentile `p` (0–100) of `values`, interpolating linearly
/// between order statistics (position `p/100 · (n − 1)`). No samples give
/// NaN, which a run reports as a metric nobody measured.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = p / 100.0 * (v.len() - 1) as f64;
    let below = pos.floor() as usize;
    let above = (below + 1).min(v.len() - 1);
    v[below] + (v[above] - v[below]) * (pos - below as f64)
}

/// The tail of a timing sample: the value at the highest percentile that
/// still has at least ten samples beyond it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The percentile chosen (50 when the sample cannot resolve a tail).
    pub percentile: f64,
    pub value: f64,
}

/// Samples that must lie beyond the reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// Apply the tail rule. With `n` sorted samples the value at index
/// `n - 1 - TAIL_BEYOND` has exactly ten samples beyond it, which is
/// percentile `100·(n − 10)/n` (p87 at 80 samples). Up to 20 samples the
/// rule cannot get past the median, so the tail *is* the median and the
/// percentile reads 50.
pub fn tail(values: &[f64]) -> Tail {
    let n = values.len();
    if n <= 2 * TAIL_BEYOND {
        return Tail {
            percentile: 50.0,
            value: median(values),
        };
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    Tail {
        percentile: (100.0 * (n - TAIL_BEYOND) as f64 / n as f64).floor(),
        value: v[n - 1 - TAIL_BEYOND],
    }
}

/// First quartile, median and third quartile as Python's
/// `statistics.quantiles(values, n=4)` gives them (the exclusive method),
/// which is what the acceptance driver computes spreads from. A single
/// sample is its own quartiles.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(!values.is_empty(), "quartiles of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 1 {
        return [v[0]; 3];
    }
    let q = |i: usize| {
        // Position i·(n+1)/4 in 1-based order statistics, clamped.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    [q(1), q(2), q(3)]
}

/// Inter-quartile distance as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    (q3 - q1) / q2
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn tail_rule_at_9_20_and_80_samples() {
        // n = 9: fewer than ten samples exist at all → the median.
        assert_eq!(
            tail(&ramp(9)),
            Tail {
                percentile: 50.0,
                value: 5.0
            }
        );
        // n = 20: ten beyond puts the tail at the median → reads p50.
        assert_eq!(
            tail(&ramp(20)),
            Tail {
                percentile: 50.0,
                value: 10.5
            }
        );
        // n = 80: the 70th value has exactly ten beyond it → p87.
        let t = tail(&ramp(80));
        assert_eq!(
            t,
            Tail {
                percentile: 87.0,
                value: 70.0
            }
        );
        assert_eq!(
            ramp(80).iter().filter(|&&x| x > t.value).count(),
            TAIL_BEYOND
        );
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&ramp(10)), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert!((spread(&ramp(10)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn percentile_interpolates_between_order_statistics() {
        // numpy.percentile([1..10], 10) == 1.9; of 61 samples it is the 7th.
        assert!((percentile(&ramp(10), 10.0) - 1.9).abs() < 1e-12);
        assert_eq!(percentile(&ramp(61), 10.0), 7.0);
        assert_eq!(percentile(&[4.0], 10.0), 4.0);
        assert!(percentile(&[], 10.0).is_nan() && tail(&[]).value.is_nan());
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
