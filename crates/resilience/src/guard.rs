//! Finite-value scans used at the solver's detection points.
//!
//! The scans are plain sequential loops: they run on the rank thread
//! over local data and their result feeds a collective decision (the
//! caller allreduces the count), so they must be deterministic and
//! cheap, not parallel.

/// Number of NaN/Inf entries in `vals`.
pub fn count_nonfinite(vals: &[f64]) -> u64 {
    vals.iter().filter(|v| !v.is_finite()).count() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_nan_and_inf() {
        let v = [1.0, f64::NAN, 2.0, f64::INFINITY, f64::NEG_INFINITY, 0.0];
        assert_eq!(count_nonfinite(&v), 3);
        assert_eq!(count_nonfinite(&[0.0, -1.5, 1e300]), 0);
        assert_eq!(count_nonfinite(&[]), 0);
    }
}
