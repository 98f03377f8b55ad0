//! Dense vector kernels (BLAS-1) used by the Krylov solvers and smoothers.
//!
//! Every kernel is a plain loop over `CHUNK`-wide slices. `dot` and
//! `dots` have two summation orders, fixed by the vector length: from
//! `CHUNKED_SUM_MIN` elements on they keep one partial per chunk and fold
//! the partials in chunk order, and below it they fold the whole vector
//! in index order.

/// Length from which `dot` and `dots` sum one partial per `CHUNK`
/// elements, folded in chunk order, instead of one index-order fold.
const CHUNKED_SUM_MIN: usize = 1 << 14;

/// Elements per slice of every kernel, and per partial of a chunked dot.
const CHUNK: usize = 1024;

/// Where Rust's `f64` `Sum` starts its fold: every sum here is
/// `fold(SUM_START, +)`, bit for bit what `.sum::<f64>()` returns.
const SUM_START: f64 = -0.0;

/// Run `f(lo, out[lo..lo + len])` over the `CHUNK`-wide slices of `out`.
fn for_chunks(out: &mut [f64], f: impl Fn(usize, &mut [f64])) {
    for (c, o) in out.chunks_mut(CHUNK).enumerate() {
        f(c * CHUNK, o);
    }
}

/// y += a·x.
pub fn axpy(a: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy length mismatch");
    for_chunks(y, |lo, y| {
        for (yi, &xi) in y.iter_mut().zip(&x[lo..]) {
            *yi += a * xi;
        }
    });
}

/// y += Σₖ a[k]·xs[k] in one pass over `y`: per element the terms are
/// added in `k` order, so the bits are those of `axpy(a[0], xs[0], y)`,
/// `axpy(a[1], xs[1], y)`, … in sequence.
pub fn axpys(a: &[f64], xs: &[&[f64]], y: &mut [f64]) {
    assert_eq!(a.len(), xs.len(), "axpys coefficient count mismatch");
    assert!(
        xs.iter().all(|x| x.len() == y.len()),
        "axpys length mismatch"
    );
    for_chunks(y, |lo, y| {
        for (&a, x) in a.iter().zip(xs) {
            for (yi, &xi) in y.iter_mut().zip(&x[lo..]) {
                *yi += a * xi;
            }
        }
    });
}

/// xᵀy.
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "dot length mismatch");
    let part = |x: &[f64], y: &[f64]| x.iter().zip(y).map(|(&a, &b)| a * b).sum::<f64>();
    if x.len() >= CHUNKED_SUM_MIN {
        x.chunks(CHUNK)
            .zip(y.chunks(CHUNK))
            .map(|(x, y)| part(x, y))
            .sum()
    } else {
        part(x, y)
    }
}

/// `out[k] = dot(x, ys[k])` for every `k`, bit for bit, in one pass over
/// `x`: each chunk of `x` is read once while every `ys[k]` streams past.
pub fn dots(x: &[f64], ys: &[&[f64]], out: &mut [f64]) {
    assert_eq!(ys.len(), out.len(), "dots output length mismatch");
    assert!(
        ys.iter().all(|y| y.len() == x.len()),
        "dots length mismatch"
    );
    out.fill(SUM_START);
    if x.len() >= CHUNKED_SUM_MIN {
        let mut part = vec![SUM_START; ys.len()];
        for (c, xc) in x.chunks(CHUNK).enumerate() {
            part.fill(SUM_START);
            fold_dots(xc, ys, c * CHUNK, &mut part);
            for (o, &v) in out.iter_mut().zip(&part) {
                *o += v;
            }
        }
    } else {
        for (c, xc) in x.chunks(CHUNK).enumerate() {
            fold_dots(xc, ys, c * CHUNK, out);
        }
    }
}

/// `acc[k] += x[i]·ys[k][lo + i]` for `i` in index order. Four vectors
/// share one sweep of `x`, so four independent add chains are in flight.
fn fold_dots(x: &[f64], ys: &[&[f64]], lo: usize, acc: &mut [f64]) {
    let hi = lo + x.len();
    for group in acc.chunks_mut(4).zip(ys.chunks(4)) {
        match group {
            ([a0, a1, a2, a3], [y0, y1, y2, y3]) => {
                let (mut s0, mut s1, mut s2, mut s3) = (*a0, *a1, *a2, *a3);
                let quads = y0[lo..hi]
                    .iter()
                    .zip(&y1[lo..hi])
                    .zip(&y2[lo..hi])
                    .zip(&y3[lo..hi]);
                for (&xi, (((&p0, &p1), &p2), &p3)) in x.iter().zip(quads) {
                    s0 += xi * p0;
                    s1 += xi * p1;
                    s2 += xi * p2;
                    s3 += xi * p3;
                }
                (*a0, *a1, *a2, *a3) = (s0, s1, s2, s3);
            }
            (acc, ys) => {
                for (a, y) in acc.iter_mut().zip(ys) {
                    *a = x
                        .iter()
                        .zip(&y[lo..hi])
                        .fold(*a, |s, (&xi, &yi)| s + xi * yi);
                }
            }
        }
    }
}

/// ‖x‖₂.
pub fn norm2(x: &[f64]) -> f64 {
    dot(x, x).sqrt()
}

/// x *= a.
pub fn scale(a: f64, x: &mut [f64]) {
    for_chunks(x, |_, x| {
        for xi in x {
            *xi *= a;
        }
    });
}

/// Element-wise multiply: out[i] = d[i]·x[i] (diagonal scaling).
pub fn diag_scale(d: &[f64], x: &[f64], out: &mut [f64]) {
    assert_eq!(d.len(), x.len(), "diag_scale length mismatch");
    assert_eq!(d.len(), out.len(), "diag_scale output length mismatch");
    for_chunks(out, |lo, out| {
        for ((o, &di), &xi) in out.iter_mut().zip(&d[lo..]).zip(&x[lo..]) {
            *o = di * xi;
        }
    });
}

/// Jacobi-Richardson inner update of the two-stage GS smoothers
/// (Eqs. 5–7 / 11–14 of the paper): `g[i] = (r[i] − lg[i]) · inv_diag[i]`.
pub fn jacobi_update(r: &[f64], lg: &[f64], inv_diag: &[f64], g: &mut [f64]) {
    assert_eq!(r.len(), g.len(), "jacobi_update length mismatch");
    assert_eq!(lg.len(), g.len(), "jacobi_update length mismatch");
    assert_eq!(inv_diag.len(), g.len(), "jacobi_update length mismatch");
    for_chunks(g, |lo, g| {
        let terms = r[lo..].iter().zip(&lg[lo..]).zip(&inv_diag[lo..]);
        for (gi, ((&ri, &lgi), &di)) in g.iter_mut().zip(terms) {
            *gi = (ri - lgi) * di;
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sum_start_is_what_f64_sum_folds_from() {
        let empty: f64 = std::iter::empty::<f64>().sum();
        assert_eq!(empty.to_bits(), SUM_START.to_bits());
    }

    #[test]
    fn axpy_small_and_large() {
        let mut y = vec![1.0, 2.0];
        axpy(2.0, &[3.0, 4.0], &mut y);
        assert_eq!(y, vec![7.0, 10.0]);

        let n = 16_385;
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
    fn dots_and_axpys_of_nothing() {
        let mut out: [f64; 0] = [];
        dots(&[1.0, 2.0], &[], &mut out);
        let mut y = vec![1.0, -0.0];
        axpys(&[], &[], &mut y);
        assert_eq!(y[1].to_bits(), (-0.0f64).to_bits());
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

    /// `dot` and `dots` sum in one order below `CHUNKED_SUM_MIN` and in
    /// another from it on. The data makes the two orders round apart: a
    /// 2⁵³ head swallows each later `+1` of an index-order fold, while a
    /// chunked fold adds whole chunks of ones to it.
    #[test]
    fn dot_keeps_both_summation_orders() {
        let fold = |x: &[f64], y: &[f64]| x.iter().zip(y).fold(-0.0, |s, (a, b)| s + a * b);
        for n in [
            CHUNKED_SUM_MIN - 1,
            CHUNKED_SUM_MIN,
            CHUNKED_SUM_MIN + CHUNK + 1,
        ] {
            let x = vec![1.0; n];
            let mut y = vec![1.0; n];
            y[0] = 2f64.powi(53);
            let whole = fold(&x, &y);
            let chunked = x
                .chunks(CHUNK)
                .zip(y.chunks(CHUNK))
                .fold(-0.0, |s, (x, y)| s + fold(x, y));
            assert_ne!(
                whole.to_bits(),
                chunked.to_bits(),
                "n={n}: the orders must differ"
            );
            let expect = if n < CHUNKED_SUM_MIN { whole } else { chunked };
            assert_eq!(dot(&x, &y).to_bits(), expect.to_bits(), "dot n={n}");
            // Five vectors: one group of four add chains and one single.
            let mut out = [f64::NAN; 5];
            dots(&x, &[&y[..]; 5], &mut out);
            for (k, o) in out.iter().enumerate() {
                assert_eq!(o.to_bits(), expect.to_bits(), "dots[{k}] n={n}");
            }
        }
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

        // Across chunk boundaries too, bitwise the element formula.
        let n = 16_387;
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
