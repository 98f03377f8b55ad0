//! Dense vector kernels (BLAS-1) used by the Krylov solvers and smoothers.

use rayon::prelude::*;

/// Threshold below which loops run sequentially.
const PAR_THRESHOLD: usize = 1 << 14;

/// y += a·x.
pub fn axpy(a: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy length mismatch");
    if x.len() >= PAR_THRESHOLD {
        y.par_iter_mut().zip(x).for_each(|(yi, &xi)| *yi += a * xi);
    } else {
        for (yi, &xi) in y.iter_mut().zip(x) {
            *yi += a * xi;
        }
    }
}

/// xᵀy.
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "dot length mismatch");
    if x.len() >= PAR_THRESHOLD {
        x.par_iter().zip(y).map(|(&a, &b)| a * b).sum()
    } else {
        x.iter().zip(y).map(|(&a, &b)| a * b).sum()
    }
}

/// ‖x‖₂.
pub fn norm2(x: &[f64]) -> f64 {
    dot(x, x).sqrt()
}

/// x *= a.
pub fn scale(a: f64, x: &mut [f64]) {
    if x.len() >= PAR_THRESHOLD {
        x.par_iter_mut().for_each(|xi| *xi *= a);
    } else {
        for xi in x {
            *xi *= a;
        }
    }
}

/// Element-wise multiply: out[i] = d[i]·x[i] (diagonal scaling).
pub fn diag_scale(d: &[f64], x: &[f64], out: &mut [f64]) {
    assert_eq!(d.len(), x.len(), "diag_scale length mismatch");
    assert_eq!(d.len(), out.len(), "diag_scale output length mismatch");
    if out.len() >= PAR_THRESHOLD {
        out.par_iter_mut()
            .enumerate()
            .for_each(|(i, o)| *o = d[i] * x[i]);
    } else {
        for i in 0..out.len() {
            out[i] = d[i] * x[i];
        }
    }
}

/// Jacobi-Richardson inner update of the two-stage GS smoothers
/// (Eqs. 5–7 / 11–14 of the paper): `g[i] = (r[i] − lg[i]) · inv_diag[i]`.
/// Purely element-wise, so the parallel path is trivially bitwise
/// deterministic at any thread count.
pub fn jacobi_update(r: &[f64], lg: &[f64], inv_diag: &[f64], g: &mut [f64]) {
    assert_eq!(r.len(), g.len(), "jacobi_update length mismatch");
    assert_eq!(lg.len(), g.len(), "jacobi_update length mismatch");
    assert_eq!(inv_diag.len(), g.len(), "jacobi_update length mismatch");
    if g.len() >= PAR_THRESHOLD {
        g.par_iter_mut()
            .enumerate()
            .for_each(|(i, gi)| *gi = (r[i] - lg[i]) * inv_diag[i]);
    } else {
        for i in 0..g.len() {
            g[i] = (r[i] - lg[i]) * inv_diag[i];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn axpy_small_and_large() {
        let mut y = vec![1.0, 2.0];
        axpy(2.0, &[3.0, 4.0], &mut y);
        assert_eq!(y, vec![7.0, 10.0]);

        let n = PAR_THRESHOLD + 1;
        let x = vec![1.0; n];
        let mut y = vec![0.0; n];
        axpy(0.5, &x, &mut y);
        assert!(y.iter().all(|&v| v == 0.5));
    }

    #[test]
    fn dot_and_norm() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
        assert_eq!(norm2(&[3.0, 4.0]), 5.0);
        assert_eq!(norm2(&[]), 0.0);
    }

    #[test]
    fn scale_and_diag_scale() {
        let mut x = vec![1.0, -2.0];
        scale(-2.0, &mut x);
        assert_eq!(x, vec![-2.0, 4.0]);

        let mut out = vec![0.0; 2];
        diag_scale(&[2.0, 0.5], &[4.0, 4.0], &mut out);
        assert_eq!(out, vec![8.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_length_mismatch_panics() {
        dot(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn jacobi_update_small_and_large() {
        let mut g = vec![0.0; 2];
        jacobi_update(&[4.0, 9.0], &[1.0, 3.0], &[0.5, 2.0], &mut g);
        assert_eq!(g, vec![1.5, 12.0]);

        // Large path must agree bitwise with the serial formula.
        let n = PAR_THRESHOLD + 3;
        let r: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).sin()).collect();
        let lg: Vec<f64> = (0..n).map(|i| (i as f64 * 0.3).cos()).collect();
        let inv: Vec<f64> = (0..n).map(|i| 1.0 / (1.0 + i as f64)).collect();
        let mut g = vec![0.0; n];
        jacobi_update(&r, &lg, &inv, &mut g);
        for i in 0..n {
            assert_eq!(g[i], (r[i] - lg[i]) * inv[i]);
        }
    }
}
