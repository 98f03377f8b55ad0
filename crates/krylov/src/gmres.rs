//! Restarted, right-preconditioned GMRES with classical and one-reduce
//! orthogonalization.
//!
//! The Nalu-Wind time integrator uses the *one-reduce* GMRES of
//! Świrydowicz/Langou/Ananthan/Yang/Thomas [39]: per iteration, all
//! Gram-Schmidt inner products and the norm of the new basis vector are
//! folded into a single global reduction, instead of the `j+2`
//! reductions classical MGS needs. On thousands of GPUs the collective
//! count is the scaling bottleneck, which is what the machine model
//! prices.

use distmat::{ParCsr, ParVector};
use parcomm::{KernelKind, Rank};
use resilience::SolveError;
use sparse_kit::{cost, dense};

use crate::precond::Preconditioner;

/// A restart cycle must shrink the residual by at least this factor or
/// the solve is declared [stagnated](SolveError::GmresStagnation).
const STAGNATION_FACTOR: f64 = 0.999;

/// Orthogonalization strategy for the Arnoldi basis.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OrthoStrategy {
    /// Modified Gram-Schmidt: one global reduction per basis vector,
    /// plus one for the norm (`j+2` per iteration).
    ClassicalMgs,
    /// Low-synchronization one-reduce MGS: a single fused reduction per
    /// iteration delivering all inner products and the norm (Pythagorean
    /// update).
    OneReduce,
}

/// GMRES configuration.
#[derive(Clone, Copy, Debug)]
pub struct Gmres {
    /// Restart length m.
    pub restart: usize,
    /// Maximum total iterations.
    pub max_iters: usize,
    /// Relative residual tolerance ‖r‖/‖b‖.
    pub tol: f64,
    /// Orthogonalization strategy.
    pub ortho: OrthoStrategy,
}

impl Default for Gmres {
    fn default() -> Self {
        Gmres {
            restart: 50,
            max_iters: 200,
            tol: 1e-8,
            ortho: OrthoStrategy::OneReduce,
        }
    }
}

/// Convergence report.
#[derive(Clone, Debug)]
pub struct GmresStats {
    /// Iterations performed.
    pub iters: usize,
    /// Final relative residual (‖b − Ax‖/‖b‖, from the recurrence).
    pub rel_residual: f64,
    /// Per-iteration relative residual history.
    pub history: Vec<f64>,
    /// Whether the tolerance was reached.
    pub converged: bool,
}

impl Gmres {
    /// Solve A·x = b with right preconditioning, updating `x` in place.
    /// Collective.
    ///
    /// # Errors
    ///
    /// Fails fast with a typed [`SolveError`] instead of burning
    /// iterations on a poisoned recurrence:
    ///
    /// - [`SolveError::NonFiniteResidual`] — the residual recurrence went
    ///   NaN/Inf (a single NaN in A, b, or a halo payload poisons the
    ///   very first norm).
    /// - [`SolveError::GmresBreakdown`] — a zero or non-finite Hessenberg
    ///   pivot while the residual is still above tolerance (happy
    ///   breakdown at tolerance still converges normally).
    /// - [`SolveError::GmresStagnation`] — a full restart cycle shrank
    ///   the residual by less than 0.1%.
    ///
    /// All triggering quantities come from allreduced reductions, so
    /// every rank takes the same branch. Exhausting `max_iters` is *not*
    /// an error: it returns `Ok` with `converged: false`, as before.
    pub fn solve(
        &self,
        rank: &Rank,
        a: &ParCsr,
        b: &ParVector,
        x: &mut ParVector,
        m: &dyn Preconditioner,
    ) -> Result<GmresStats, SolveError> {
        let b_norm = b.norm2(rank);
        let b_norm = if b_norm == 0.0 { 1.0 } else { b_norm };
        let mut history = Vec::new();
        let mut total_iters = 0usize;
        let mut prev_restart_rel: Option<f64> = None;
        // Stagnation is only judged after a cycle that ran the full
        // restart length: a cycle that broke early on the *recurrence*
        // tolerance can leave a larger true residual (recurrence drift
        // near machine precision) and legitimately recovers on restart.
        let mut last_cycle_full = false;

        loop {
            // Arnoldi basis V and preconditioned basis Z (right precond).
            let mut r = a.residual(rank, b, x);
            let beta = r.norm2(rank);
            let rel = beta / b_norm;
            if !rel.is_finite() {
                return Err(SolveError::NonFiniteResidual {
                    context: rank.phase_name(),
                    iter: total_iters,
                });
            }
            if history.is_empty() {
                history.push(rel);
            }
            if rel <= self.tol || total_iters >= self.max_iters {
                let stats = GmresStats {
                    iters: total_iters,
                    rel_residual: rel,
                    converged: rel <= self.tol,
                    history,
                };
                self.emit_telemetry(rank, &stats);
                return Ok(stats);
            }
            if last_cycle_full {
                if let Some(prev) = prev_restart_rel {
                    if rel >= STAGNATION_FACTOR * prev {
                        return Err(SolveError::GmresStagnation {
                            iters: total_iters,
                            rel,
                        });
                    }
                }
            }
            prev_restart_rel = Some(rel);
            r.scale(rank, 1.0 / beta);
            let mut v: Vec<ParVector> = vec![r];
            let mut z: Vec<ParVector> = Vec::new();
            // Hessenberg in column-major: h[j] has j+2 entries.
            let mut h: Vec<Vec<f64>> = Vec::new();
            // Givens rotations and the rotated RHS.
            let mut cs: Vec<f64> = Vec::new();
            let mut sn: Vec<f64> = Vec::new();
            let mut g = vec![0.0; self.restart + 1];
            g[0] = beta;

            let mut j = 0;
            let mut broke_early = false;
            while j < self.restart && total_iters < self.max_iters {
                let zj = m.apply(rank, &v[j]);
                let mut w = a.spmv(rank, &zj);
                z.push(zj);

                let mut hj = match self.ortho {
                    OrthoStrategy::ClassicalMgs => self.mgs(rank, &v, &mut w, j),
                    OrthoStrategy::OneReduce => self.one_reduce(rank, &v, &mut w, j),
                };
                let hlast = hj[j + 1];
                if !hlast.is_finite() {
                    return Err(SolveError::GmresBreakdown {
                        iter: total_iters,
                        pivot: hlast,
                    });
                }
                if hlast > 0.0 {
                    w.scale(rank, 1.0 / hlast);
                }
                v.push(w);

                // Apply accumulated Givens rotations to the new column.
                for i in 0..j {
                    let t = cs[i] * hj[i] + sn[i] * hj[i + 1];
                    hj[i + 1] = -sn[i] * hj[i] + cs[i] * hj[i + 1];
                    hj[i] = t;
                }
                let denom = (hj[j] * hj[j] + hj[j + 1] * hj[j + 1]).sqrt();
                let (c, s) = if denom == 0.0 {
                    (1.0, 0.0)
                } else {
                    (hj[j] / denom, hj[j + 1] / denom)
                };
                cs.push(c);
                sn.push(s);
                hj[j] = c * hj[j] + s * hj[j + 1];
                hj[j + 1] = 0.0;
                g[j + 1] = -s * g[j];
                g[j] *= c;
                h.push(hj);

                total_iters += 1;
                j += 1;
                let rel = g[j].abs() / b_norm;
                history.push(rel);
                if !rel.is_finite() {
                    return Err(SolveError::NonFiniteResidual {
                        context: rank.phase_name(),
                        iter: total_iters,
                    });
                }
                if rel <= self.tol {
                    broke_early = true;
                    break;
                }
                if hlast == 0.0 {
                    // Krylov space exhausted with the residual still above
                    // tolerance: a genuine (non-happy) breakdown.
                    return Err(SolveError::GmresBreakdown {
                        iter: total_iters,
                        pivot: 0.0,
                    });
                }
            }

            last_cycle_full = !broke_early;

            // Back substitution: y = H⁻¹ g.
            let mut y = vec![0.0; j];
            for i in (0..j).rev() {
                let mut acc = g[i];
                for k in i + 1..j {
                    acc -= h[k][i] * y[k];
                }
                y[i] = acc / h[i][i];
            }
            // x += Z y (right preconditioning: correction in Z space),
            // one pass over x.
            x.axpys(rank, &y, &z);
            // Loop continues: recompute the true residual and restart or
            // exit at the top.
        }
    }

    /// Record the finished solve on this rank's telemetry dispatcher.
    /// No-op (one thread-local read) when telemetry is disabled, so the
    /// solve path is unperturbed in normal runs.
    fn emit_telemetry(&self, rank: &Rank, stats: &GmresStats) {
        let tel = telemetry::current();
        if !tel.is_enabled() {
            return;
        }
        tel.record(telemetry::Event::Gmres {
            rank: rank.rank(),
            path: tel.current_path(),
            iters: stats.iters,
            final_rel: stats.rel_residual,
            converged: stats.converged,
            history: stats.history.clone(),
        });
    }

    /// Classical modified Gram-Schmidt: j+1 dot-product reductions plus a
    /// norm reduction.
    fn mgs(&self, rank: &Rank, v: &[ParVector], w: &mut ParVector, j: usize) -> Vec<f64> {
        let mut hj = vec![0.0; j + 2];
        for (i, vi) in v.iter().enumerate().take(j + 1) {
            let hij = w.dot(rank, vi); // one allreduce each
            hj[i] = hij;
            w.axpy(rank, -hij, vi);
        }
        hj[j + 1] = w.norm2(rank); // one more allreduce
        hj
    }

    /// One-reduce MGS: all inner products and ‖w‖² in a single fused
    /// reduction; the new norm comes from the Pythagorean identity.
    fn one_reduce(
        &self,
        rank: &Rank,
        v: &[ParVector],
        w: &mut ParVector,
        j: usize,
    ) -> Vec<f64> {
        // Local fused dot products [wᵀv_0, ..., wᵀv_j, wᵀw], one pass
        // over w.
        let n = w.local.len();
        let mut local = vec![0.0; j + 2];
        {
            let k = rank.kernel("fused_dots", KernelKind::Stream);
            k.launch(n, cost::blas1(n, (j + 2) as u64));
            let ys: Vec<&[f64]> = v[..=j]
                .iter()
                .map(|vi| &vi.local[..])
                .chain([&w.local[..]])
                .collect();
            dense::dots(&w.local, &ys, &mut local);
        }
        let fused = rank.allreduce_vec_sum(local); // the ONE reduce

        let mut hj = vec![0.0; j + 2];
        hj[..j + 1].copy_from_slice(&fused[..j + 1]);
        // w ← w − Σ h_i v_i, one pass over w.
        let neg_h: Vec<f64> = hj[..=j].iter().map(|h| -h).collect();
        w.axpys(rank, &neg_h, &v[..=j]);
        // ‖w_new‖² = ‖w‖² − Σ h_i² (exact in exact arithmetic).
        let ww = fused[j + 1];
        let reduction: f64 = hj[..j + 1].iter().map(|h| h * h).sum();
        hj[j + 1] = (ww - reduction).max(0.0).sqrt();
        hj
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::precond::{IdentityPrecond, JacobiPrecond};
    use crate::smoothers::Sgs2;
    use distmat::RowDist;
    use parcomm::Comm;
    use sparse_kit::{Coo, Csr};

    fn laplacian(n: usize) -> Csr {
        let mut coo = Coo::new();
        for i in 0..n as u64 {
            coo.push(i, i, 2.0);
            if i > 0 {
                coo.push(i, i - 1, -1.0);
            }
            if i + 1 < n as u64 {
                coo.push(i, i + 1, -1.0);
            }
        }
        Csr::from_coo(n, n, &coo)
    }

    /// Nonsymmetric advection-diffusion operator.
    fn advection_diffusion(n: usize, peclet: f64) -> Csr {
        let mut coo = Coo::new();
        for i in 0..n as u64 {
            coo.push(i, i, 2.0 + peclet);
            if i > 0 {
                coo.push(i, i - 1, -1.0 - peclet);
            }
            if i + 1 < n as u64 {
                coo.push(i, i + 1, -1.0);
            }
        }
        Csr::from_coo(n, n, &coo)
    }

    fn solve_and_check(
        p: usize,
        a_serial: Csr,
        ortho: OrthoStrategy,
        precond: &str,
        tol: f64,
    ) -> Vec<(bool, usize, f64)> {
        let n = a_serial.nrows();
        Comm::run(p, move |rank| {
            let dist = RowDist::block(n as u64, rank.size());
            let a = ParCsr::from_serial(rank, dist.clone(), dist.clone(), &a_serial);
            let x_true = ParVector::from_fn(rank, dist.clone(), |g| ((g * g) as f64).cos());
            let b = a.spmv(rank, &x_true);
            let mut x = ParVector::zeros(rank, dist.clone());
            let gmres = Gmres {
                restart: 64,
                max_iters: 300,
                tol,
                ortho,
            };
            let m: Box<dyn Preconditioner> = match precond {
                "jacobi" => Box::new(JacobiPrecond::new(&a.diagonal(), 1.0)),
                "sgs2" => Box::new(Sgs2::new(&a)),
                _ => Box::new(IdentityPrecond),
            };
            let stats = gmres.solve(rank, &a, &b, &mut x, m.as_ref()).expect("solve");
            // True forward error:
            let mut e = x.clone();
            e.axpy(rank, -1.0, &x_true);
            (stats.converged, stats.iters, e.norm2(rank) / x_true.norm2(rank))
        })
    }

    #[test]
    fn unpreconditioned_gmres_solves_laplacian() {
        for p in [1, 2] {
            for ortho in [OrthoStrategy::ClassicalMgs, OrthoStrategy::OneReduce] {
                let out = solve_and_check(p, laplacian(32), ortho, "none", 1e-10);
                for (converged, iters, err) in out {
                    assert!(converged, "p={p} {ortho:?}");
                    assert!(err < 1e-7, "p={p} err={err}");
                    assert!(iters <= 64);
                }
            }
        }
    }

    #[test]
    fn one_reduce_matches_classical_iterations() {
        // On a well-conditioned system the two strategies should converge
        // in (nearly) the same number of iterations.
        let a = advection_diffusion(40, 0.5);
        let classical = solve_and_check(2, a.clone(), OrthoStrategy::ClassicalMgs, "none", 1e-8);
        let onereduce = solve_and_check(2, a, OrthoStrategy::OneReduce, "none", 1e-8);
        let (ci, oi) = (classical[0].1 as i64, onereduce[0].1 as i64);
        assert!((ci - oi).abs() <= 2, "classical={ci} one-reduce={oi}");
    }

    #[test]
    fn sgs2_preconditioning_cuts_iterations() {
        let a = advection_diffusion(64, 1.0);
        let plain = solve_and_check(2, a.clone(), OrthoStrategy::OneReduce, "none", 1e-8);
        let pre = solve_and_check(2, a, OrthoStrategy::OneReduce, "sgs2", 1e-8);
        assert!(pre[0].0, "preconditioned solve must converge");
        assert!(
            pre[0].1 * 2 <= plain[0].1,
            "SGS2 should at least halve iterations: {} vs {}",
            pre[0].1,
            plain[0].1
        );
    }

    #[test]
    fn one_reduce_uses_fewer_collectives() {
        let a = laplacian(48);
        let mut colls = Vec::new();
        for ortho in [OrthoStrategy::ClassicalMgs, OrthoStrategy::OneReduce] {
            let a2 = a.clone();
            let (_, traces) = Comm::run_traced(2, move |rank| {
                let dist = RowDist::block(48, 2);
                let pa = ParCsr::from_serial(rank, dist.clone(), dist.clone(), &a2);
                let b = ParVector::from_fn(rank, dist.clone(), |_| 1.0);
                let mut x = ParVector::zeros(rank, dist);
                let gmres = Gmres {
                    restart: 20,
                    max_iters: 20,
                    tol: 1e-30, // force full restart cycle
                    ortho,
                };
                rank.with_phase("solve", || {
                    gmres.solve(rank, &pa, &b, &mut x, &IdentityPrecond).unwrap()
                });
            });
            colls.push(traces[0].phase("solve").collectives);
        }
        assert!(
            colls[1] * 2 < colls[0],
            "one-reduce {} vs classical {}",
            colls[1],
            colls[0]
        );
    }

    #[test]
    fn restart_still_converges() {
        let gmres_restart = solve_and_check(1, laplacian(40), OrthoStrategy::OneReduce, "none", 1e-9);
        assert!(gmres_restart[0].0);
    }

    #[test]
    fn zero_rhs_returns_immediately() {
        Comm::run(1, |rank| {
            let dist = RowDist::block(8, 1);
            let a = ParCsr::from_serial(rank, dist.clone(), dist.clone(), &laplacian(8));
            let b = ParVector::zeros(rank, dist.clone());
            let mut x = ParVector::zeros(rank, dist);
            let stats = Gmres::default()
                .solve(rank, &a, &b, &mut x, &IdentityPrecond)
                .unwrap();
            assert!(stats.converged);
            assert_eq!(stats.iters, 0);
            assert!(x.local.iter().all(|&v| v == 0.0));
        });
    }

    #[test]
    fn nan_rhs_fails_fast_with_nonfinite_residual() {
        // A single NaN (on one rank only) poisons the allreduced norm on
        // every rank: the solve must terminate at iteration 0 with a
        // typed error instead of burning max_iters.
        Comm::run(2, |rank| {
            let dist = RowDist::block(16, 2);
            let a = ParCsr::from_serial(rank, dist.clone(), dist.clone(), &laplacian(16));
            let mut b = ParVector::from_fn(rank, dist.clone(), |_| 1.0);
            if rank.rank() == 0 {
                b.local[0] = f64::NAN;
            }
            let mut x = ParVector::zeros(rank, dist);
            let err = Gmres::default()
                .solve(rank, &a, &b, &mut x, &IdentityPrecond)
                .unwrap_err();
            match err {
                SolveError::NonFiniteResidual { iter, .. } => assert_eq!(iter, 0),
                other => panic!("expected NonFiniteResidual, got {other:?}"),
            }
        });
    }

    #[test]
    fn stagnated_restart_cycle_is_a_typed_error() {
        // GMRES(1) on a 2×2 rotation makes exactly zero progress per
        // restart cycle: the second cycle must detect stagnation instead
        // of looping to max_iters.
        Comm::run(1, |rank| {
            let a_serial = Csr::from_dense(&[vec![0.0, 1.0], vec![-1.0, 0.0]]);
            let dist = RowDist::block(2, 1);
            let a = ParCsr::from_serial(rank, dist.clone(), dist.clone(), &a_serial);
            let b = ParVector::from_fn(rank, dist.clone(), |g| if g == 0 { 1.0 } else { 0.0 });
            let mut x = ParVector::zeros(rank, dist);
            let gmres = Gmres {
                restart: 1,
                max_iters: 100,
                tol: 1e-10,
                ortho: OrthoStrategy::ClassicalMgs,
            };
            let err = gmres.solve(rank, &a, &b, &mut x, &IdentityPrecond).unwrap_err();
            assert!(
                matches!(err, SolveError::GmresStagnation { .. }),
                "expected GmresStagnation, got {err:?}"
            );
        });
    }

    #[test]
    fn solution_independent_of_rank_count() {
        let a = advection_diffusion(36, 0.8);
        let mut solutions: Vec<Vec<f64>> = Vec::new();
        for p in [1, 2, 3] {
            let a2 = a.clone();
            let out = Comm::run(p, move |rank| {
                let dist = RowDist::block(36, rank.size());
                let pa = ParCsr::from_serial(rank, dist.clone(), dist.clone(), &a2);
                let b = ParVector::from_fn(rank, dist.clone(), |g| (g as f64).sin());
                let mut x = ParVector::zeros(rank, dist);
                Gmres {
                    tol: 1e-12,
                    ..Default::default()
                }
                .solve(rank, &pa, &b, &mut x, &IdentityPrecond)
                .unwrap();
                x.to_serial(rank)
            });
            solutions.push(out[0].clone());
        }
        for s in &solutions[1..] {
            for (x, y) in s.iter().zip(&solutions[0]) {
                assert!((x - y).abs() < 1e-8);
            }
        }
    }
}
