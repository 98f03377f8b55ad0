//! Hybrid and two-stage Gauss-Seidel smoothers (§4.2 of the paper).
//!
//! All three smoothers share the *hybrid* structure of hypre's parallel
//! Gauss-Seidel [41]: neighbouring ranks first exchange boundary values of
//! the iterate, then each rank relaxes **locally** (off-rank couplings use
//! the frozen halo values). They differ in how the local triangular solve
//! is performed:
//!
//! - [`HybridGs`] — exact local forward/backward triangular sweep
//!   (the CPU baseline; sequential within a rank).
//! - [`TwoStageGs`] — the triangular solve is replaced by `s`
//!   Jacobi-Richardson inner iterations, Eqs. (5)–(7): fully
//!   data-parallel, which is why the paper uses it on GPUs. With `s = 0`
//!   it degenerates to Jacobi-Richardson, as the paper notes.
//! - [`Sgs2`] — the compact two-stage *symmetric* GS of Eqs. (11)–(14):
//!   an approximate forward solve followed by an approximate backward
//!   solve, used as the momentum-equation preconditioner.

use std::cell::RefCell;

use distmat::{ParCsr, ParVector};
use parcomm::{KernelKind, Rank};
use sparse_kit::cost;
use sparse_kit::dense;
use sparse_kit::Csr;

use crate::precond::Preconditioner;

/// `1/a_ii` over the diag block's diagonal.
fn inverse_diagonal(diag: &[f64]) -> Vec<f64> {
    diag.iter()
        .map(|&d| {
            assert!(d != 0.0, "smoother requires nonzero diagonal");
            1.0 / d
        })
        .collect()
}

/// The residual a smoothing round starts from: `b − A·x` by the
/// overlapped [`ParCsr::residual_into`] (into `buf`), or — in a
/// **zero-guess round**, when the caller created `x` as
/// `ParVector::zeros` and nothing has touched it — `b` itself, with no
/// halo exchange and no matrix pass.
///
/// The shortcut is bitwise-lossless: with `x ≡ +0.0` every external
/// value is `+0.0` too, the coefficients are finite (AMG setup's
/// `NonFiniteCoefficient` guard and the Picard driver's
/// `check_system_finite` run before any smoother is built), so every
/// product is `±0.0`, every row sum is `0.0 + Σ(±0.0) = +0.0`, and
/// `b_i − (+0.0) = b_i` for every `b_i`, `−0.0` and NaN payloads
/// included. The round then proceeds unchanged (`x = 0.0 + g`, so a
/// `−0.0` correction still lands as `+0.0`). A skipped residual sends no
/// message, hosts no fault hook and records no kernel in either ledger.
fn round_residual<'v>(
    a: &ParCsr,
    rank: &Rank,
    b: &'v [f64],
    x: &[f64],
    zero_guess: bool,
    buf: &'v mut [f64],
) -> &'v [f64] {
    if zero_guess {
        debug_assert!(
            x.iter().all(|v| v.to_bits() == 0),
            "zero-guess round entered with a nonzero iterate"
        );
        telemetry::counter("smoother.zero_guess_rounds", 1);
        b
    } else {
        a.residual_into(rank, b, x, buf);
        buf
    }
}

// ---------------------------------------------------------------------------

/// Hybrid Gauss-Seidel with an exact local triangular sweep.
#[derive(Clone, Debug)]
pub struct HybridGs {
    a: ParCsr,
    inv_diag: Vec<f64>,
    /// Local relaxation sweeps per halo exchange.
    pub local_sweeps: usize,
    /// Forward (true) or backward (false) sweeps.
    pub forward: bool,
}

impl HybridGs {
    /// Build a smoother for `a`.
    pub fn new(a: &ParCsr) -> Self {
        HybridGs {
            inv_diag: inverse_diagonal(&a.diag.diag()),
            a: a.clone(),
            local_sweeps: 1,
            forward: true,
        }
    }

    /// One round of halo exchange + `local_sweeps` local GS sweeps,
    /// repeated `rounds` times. Collective.
    pub fn smooth(&self, rank: &Rank, b: &ParVector, x: &mut ParVector, rounds: usize) {
        telemetry::counter("smoother.hybrid_gs.rounds", rounds as u64);
        let n = x.local.len();
        for _ in 0..rounds {
            let ext = self.a.halo_exchange(rank, &x.local);
            for _ in 0..self.local_sweeps {
                // Exact local sweep: sequential dependence within the rank.
                let k = rank.kernel("hybrid_gs_sweep", KernelKind::SpMV);
                k.launch(n, cost::spmv(&self.a.diag));
                let rows: Box<dyn Iterator<Item = usize>> = if self.forward {
                    Box::new(0..n)
                } else {
                    Box::new((0..n).rev())
                };
                for i in rows {
                    let (cols, vals) = self.a.diag.row(i);
                    let mut acc = b.local[i];
                    for (&j, &v) in cols.iter().zip(vals) {
                        if j != i {
                            acc -= v * x.local[j];
                        }
                    }
                    let (ocols, ovals) = self.a.offd.row(i);
                    for (&j, &v) in ocols.iter().zip(ovals) {
                        acc -= v * ext[j];
                    }
                    x.local[i] = acc * self.inv_diag[i];
                }
            }
        }
    }
}

impl Preconditioner for HybridGs {
    fn apply(&self, rank: &Rank, r: &ParVector) -> ParVector {
        let mut z = ParVector::zeros(rank, r.dist().clone());
        self.smooth(rank, r, &mut z, 1);
        z
    }
}

// ---------------------------------------------------------------------------

/// The Jacobi-Richardson approximation of one triangular solve
/// `(T + D)⁻¹ r`: the degree-`sweeps` Neumann expansion `g⁰ = D⁻¹r`,
/// `gʲ⁺¹ = D⁻¹(r − T gʲ)` (Eqs. 5–7). Each sweep is one fused matrix pass
/// recorded as `kernel`.
struct JrSweeps<'a> {
    kernel: &'static str,
    t: &'a Csr,
    inv_diag: &'a [f64],
    sweeps: usize,
}

impl JrSweeps<'_> {
    /// `g ≈ (T + D)⁻¹ r`, double-buffered through `next` (`Csr::jr_sweep_fused`;
    /// in place would silently turn the Jacobi sweep into Gauss-Seidel).
    fn solve(&self, rank: &Rank, r: &[f64], g: &mut Vec<f64>, next: &mut Vec<f64>) {
        dense::diag_scale(self.inv_diag, r, g);
        if self.sweeps == 0 {
            return;
        }
        let k = rank.kernel(self.kernel, KernelKind::SpMV);
        for _ in 0..self.sweeps {
            k.launch(r.len(), cost::jr_sweep_fused(self.t));
            self.t.jr_sweep_fused(r, self.inv_diag, g, next);
            std::mem::swap(g, next);
        }
    }

    /// `x += (T + D)⁻¹ r`, the last sweep adding straight into `x`
    /// (`Csr::jr_sweep_add`): bit for bit the sweep followed by
    /// `axpy(1.0)`, so a zero-guess round still turns a `−0.0` correction
    /// into `+0.0`. With no sweeps, `x += D⁻¹r`.
    fn solve_add(
        &self,
        rank: &Rank,
        r: &[f64],
        g: &mut Vec<f64>,
        next: &mut Vec<f64>,
        x: &mut [f64],
    ) {
        let n = r.len();
        let Some(before_last) = self.sweeps.checked_sub(1) else {
            self.solve(rank, r, g, next);
            let k = rank.kernel("axpy", KernelKind::Stream);
            k.launch(n, cost::blas1(n, 3));
            dense::axpy(1.0, g, x);
            return;
        };
        JrSweeps {
            sweeps: before_last,
            ..*self
        }
        .solve(rank, r, g, next);
        let k = rank.kernel(self.kernel, KernelKind::SpMV);
        k.launch(n, cost::jr_sweep_add(self.t));
        self.t.jr_sweep_add(r, self.inv_diag, g, x);
    }
}

/// `K` scratch vectors of length `n` for a smoother, allocated with it and
/// overwritten by every round (behind a `RefCell`: `Preconditioner::apply`
/// takes `&self`).
fn work<const K: usize>(n: usize) -> RefCell<[Vec<f64>; K]> {
    RefCell::new(std::array::from_fn(|_| vec![0.0; n]))
}

// ---------------------------------------------------------------------------

/// Two-stage Gauss-Seidel: hybrid GS whose local triangular solve is
/// approximated by Jacobi-Richardson inner iterations (Eqs. 4–7). It
/// holds the split of the operator it was built for (`L`, `D⁻¹`), not the
/// operator: every round borrows it from the caller — an AMG level passes
/// its own `a`.
#[derive(Clone, Debug)]
pub struct TwoStageGs {
    /// Strict lower triangle of the diag block.
    l: Csr,
    inv_diag: Vec<f64>,
    /// Number of inner Jacobi-Richardson iterations `s` (0 = Jacobi).
    pub inner: usize,
    /// Residual, JR iterate, next JR iterate.
    work: RefCell<[Vec<f64>; 3]>,
}

impl TwoStageGs {
    /// Build for `a` with `inner` JR iterations.
    pub fn new(a: &ParCsr, inner: usize) -> Self {
        TwoStageGs {
            l: a.diag.strict_lower(),
            inv_diag: inverse_diagonal(&a.diag.diag()),
            inner,
            work: work(a.local_rows()),
        }
    }

    /// `rounds` outer two-stage GS iterations x̂ₖ₊₁ = x̂ₖ + M̃⁻¹(b − A x̂ₖ)
    /// on an arbitrary iterate, `a` being the operator this smoother was
    /// built for. Collective (computes a distributed residual).
    pub fn smooth(&self, rank: &Rank, a: &ParCsr, b: &ParVector, x: &mut ParVector, rounds: usize) {
        self.smooth_from(rank, a, b, x, rounds, false);
    }

    /// [`TwoStageGs::smooth`] where `zero_guess` is the caller's promise
    /// that it created `x` as `ParVector::zeros`: the first round then
    /// starts from `r = b` (see `round_residual`). Collective.
    pub fn smooth_from(
        &self,
        rank: &Rank,
        a: &ParCsr,
        b: &ParVector,
        x: &mut ParVector,
        rounds: usize,
        zero_guess: bool,
    ) {
        telemetry::counter("smoother.two_stage_gs.rounds", rounds as u64);
        let mut work = self.work.borrow_mut();
        let [buf, g, next] = &mut *work;
        let lower = JrSweeps {
            kernel: "jr_sweep_fused",
            t: &self.l,
            inv_diag: &self.inv_diag,
            sweeps: self.inner,
        };
        for round in 0..rounds {
            let first_from_zero = zero_guess && round == 0;
            let r = round_residual(a, rank, &b.local, &x.local, first_from_zero, buf);
            lower.solve_add(rank, r, g, next, &mut x.local);
        }
    }
}

// ---------------------------------------------------------------------------

/// Compact two-stage symmetric Gauss-Seidel (SGS2, Eqs. 11–14): an
/// approximate forward (L+D) solve, diagonal rescale, then an approximate
/// backward (D+U) solve, each via Jacobi-Richardson inner iterations.
///
/// "Two outer and two inner iterations often leads to rapid convergence
/// in less than five preconditioned GMRES iterations." — §4.2.
#[derive(Clone, Debug)]
pub struct Sgs2 {
    a: ParCsr,
    /// Local splitting A_diag = L + D + U.
    l: Csr,
    u: Csr,
    diag: Vec<f64>,
    inv_diag: Vec<f64>,
    /// Inner Jacobi-Richardson iterations per triangular stage.
    pub inner: usize,
    /// Outer iterations per [`Preconditioner::apply`].
    pub outer: usize,
    /// Residual, JR iterate, next JR iterate, rescaled forward result.
    work: RefCell<[Vec<f64>; 4]>,
}

impl Sgs2 {
    /// Build with the paper's default of two inner and two outer sweeps.
    pub fn new(a: &ParCsr) -> Self {
        Self::with_sweeps(a, 2, 2)
    }

    /// Build with explicit sweep counts.
    pub fn with_sweeps(a: &ParCsr, inner: usize, outer: usize) -> Self {
        let diag = a.diag.diag();
        Sgs2 {
            l: a.diag.strict_lower(),
            u: a.diag.strict_upper(),
            inv_diag: inverse_diagonal(&diag),
            diag,
            a: a.clone(),
            inner,
            outer,
            work: work(a.local_rows()),
        }
    }

    /// Stationary iteration with the SGS2 preconditioner on an arbitrary
    /// iterate. Collective.
    pub fn smooth(&self, rank: &Rank, b: &ParVector, x: &mut ParVector, rounds: usize) {
        self.smooth_from(rank, b, x, rounds, false);
    }

    /// [`Sgs2::smooth`] where `zero_guess` is the caller's promise that
    /// it created `x` as `ParVector::zeros`: the first round then starts
    /// from `r = b` (see `round_residual`). Collective.
    ///
    /// A round is `x += M⁻¹ r` with M = (L+D) D⁻¹ (D+U) (local symmetric
    /// GS), both triangular solves approximated by JR iterations
    /// (element-wise parallel — see DESIGN.md, "Threading model").
    pub fn smooth_from(
        &self,
        rank: &Rank,
        b: &ParVector,
        x: &mut ParVector,
        rounds: usize,
        zero_guess: bool,
    ) {
        telemetry::counter("smoother.sgs2.rounds", rounds as u64);
        let mut work = self.work.borrow_mut();
        let [buf, g, next, t] = &mut *work;
        let inv_diag = &self.inv_diag;
        let stage = |kernel, t| JrSweeps {
            kernel,
            t,
            inv_diag,
            sweeps: self.inner,
        };
        let forward = stage("sgs2_forward_fused", &self.l);
        let backward = stage("sgs2_backward_fused", &self.u);
        for round in 0..rounds {
            let first_from_zero = zero_guess && round == 0;
            let r = round_residual(&self.a, rank, &b.local, &x.local, first_from_zero, buf);
            // Forward stage: g ≈ (L+D)⁻¹ r; rescale: t = D g.
            forward.solve(rank, r, g, next);
            dense::diag_scale(&self.diag, g, t);
            // Backward stage: x += (D+U)⁻¹ t.
            backward.solve_add(rank, t, g, next, &mut x.local);
        }
    }
}

impl Preconditioner for Sgs2 {
    fn apply(&self, rank: &Rank, r: &ParVector) -> ParVector {
        let mut z = ParVector::zeros(rank, r.dist().clone());
        self.smooth_from(rank, r, &mut z, self.outer, true);
        z
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use distmat::RowDist;
    use parcomm::Comm;
    use sparse_kit::Coo;

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

    fn setup(rank: &Rank, n: usize) -> (ParCsr, ParVector, ParVector) {
        let a = laplacian(n);
        let dist = RowDist::block(n as u64, rank.size());
        let pa = ParCsr::from_serial(rank, dist.clone(), dist.clone(), &a);
        let x_true = ParVector::from_fn(rank, dist.clone(), |g| ((g as f64) * 0.3).sin());
        let b = pa.spmv(rank, &x_true);
        (pa, b, x_true)
    }

    fn error_norm(rank: &Rank, x: &ParVector, x_true: &ParVector) -> f64 {
        let mut e = x.clone();
        e.axpy(rank, -1.0, x_true);
        e.norm2(rank)
    }

    #[test]
    fn hybrid_gs_converges_on_laplacian() {
        for p in [1, 2, 4] {
            let out = Comm::run(p, |rank| {
                let (a, b, x_true) = setup(rank, 12);
                let gs = HybridGs::new(&a);
                let mut x = ParVector::zeros(rank, b.dist().clone());
                let e0 = error_norm(rank, &x, &x_true);
                gs.smooth(rank, &b, &mut x, 80);
                let e1 = error_norm(rank, &x, &x_true);
                (e0, e1)
            });
            for (e0, e1) in out {
                // GS convergence factor on the 12-point 1-D Laplacian is
                // cos²(π/13) ≈ 0.943; 80 sweeps ≈ 0.009.
                assert!(e1 < 0.05 * e0, "p={p}: e0={e0} e1={e1}");
            }
        }
    }

    #[test]
    fn single_rank_hybrid_gs_is_exact_gs() {
        // On one rank, hybrid GS == classical GS; after enough sweeps on a
        // small SPD system it converges to machine precision.
        Comm::run(1, |rank| {
            let (a, b, x_true) = setup(rank, 8);
            let gs = HybridGs::new(&a);
            let mut x = ParVector::zeros(rank, b.dist().clone());
            gs.smooth(rank, &b, &mut x, 400);
            assert!(error_norm(rank, &x, &x_true) < 1e-10);
        });
    }

    #[test]
    fn two_stage_gs_converges_and_inner_sweeps_help() {
        let out = Comm::run(2, |rank| {
            let (a, b, x_true) = setup(rank, 24);
            let mut errors = Vec::new();
            for inner in [0usize, 1, 2] {
                let ts = TwoStageGs::new(&a, inner);
                let mut x = ParVector::zeros(rank, b.dist().clone());
                ts.smooth(rank, &a, &b, &mut x, 30);
                errors.push(error_norm(rank, &x, &x_true));
            }
            errors
        });
        for errors in out {
            // More inner iterations → closer to true GS → smaller error.
            assert!(errors[1] < errors[0], "{errors:?}");
            assert!(errors[2] < errors[1], "{errors:?}");
        }
    }

    #[test]
    fn two_stage_approaches_hybrid_gs_with_many_inner() {
        // With many inner JR iterations the Neumann series converges and
        // two-stage GS matches the exact local triangular solve.
        Comm::run(1, |rank| {
            let (a, b, _) = setup(rank, 10);
            let gs = HybridGs::new(&a);
            let ts = TwoStageGs::new(&a, 12); // n=10: series exact at 10
            let mut xg = ParVector::zeros(rank, b.dist().clone());
            let mut xt = ParVector::zeros(rank, b.dist().clone());
            gs.smooth(rank, &b, &mut xg, 3);
            ts.smooth(rank, &a, &b, &mut xt, 3);
            for (p, q) in xg.local.iter().zip(&xt.local) {
                assert!((p - q).abs() < 1e-12);
            }
        });
    }

    #[test]
    fn sgs2_converges_on_laplacian() {
        for p in [1, 3] {
            let out = Comm::run(p, |rank| {
                let (a, b, x_true) = setup(rank, 12);
                let sgs = Sgs2::new(&a);
                let mut x = ParVector::zeros(rank, b.dist().clone());
                let e0 = error_norm(rank, &x, &x_true);
                sgs.smooth(rank, &b, &mut x, 60);
                (e0, error_norm(rank, &x, &x_true))
            });
            for (e0, e1) in out {
                assert!(e1 < 0.04 * e0, "p={p}: e0={e0} e1={e1}");
            }
        }
    }

    #[test]
    fn preconditioner_apply_is_linearish() {
        // apply(αr) == α·apply(r) for these linear stationary methods.
        Comm::run(2, |rank| {
            let (a, b, _) = setup(rank, 16);
            for precond in [&Sgs2::new(&a) as &dyn Preconditioner] {
                let z1 = precond.apply(rank, &b);
                let mut b2 = b.clone();
                b2.scale(rank, 3.0);
                let z2 = precond.apply(rank, &b2);
                for (p, q) in z1.local.iter().zip(&z2.local) {
                    assert!((3.0 * p - q).abs() < 1e-10);
                }
            }
        });
    }

    #[test]
    fn smoothers_record_kernels_and_halo_traffic() {
        let (_, traces) = Comm::run_traced(2, |rank| {
            let (a, b, _) = setup(rank, 16);
            let ts = TwoStageGs::new(&a, 2);
            let mut x = ParVector::zeros(rank, b.dist().clone());
            rank.with_phase("smooth", || ts.smooth(rank, &a, &b, &mut x, 2));
        });
        for t in &traces {
            let ph = t.phase("smooth");
            assert!(ph.msgs >= 2, "halo per round");
            assert!(ph.kernel_launches > 4);
        }
    }

    #[test]
    fn zero_guess_apply_sends_one_halo_round_fewer() {
        // Each rank of the 2-rank 1-D Laplacian has one neighbour, so a
        // halo round is one message per rank. `apply` creates its own
        // zero iterate: round 1 takes r = b (no exchange, no residual
        // SpMV), round 2 exchanges. `smooth` on a caller's `x` cannot
        // know it is zero and exchanges in both rounds.
        let (_, traces) = Comm::run_traced(2, |rank| {
            let (a, b, _) = setup(rank, 16);
            let sgs = Sgs2::with_sweeps(&a, 2, 2);
            rank.with_phase("apply", || sgs.apply(rank, &b));
            let mut x = ParVector::zeros(rank, b.dist().clone());
            rank.with_phase("smooth", || sgs.smooth(rank, &b, &mut x, 2));
        });
        for t in &traces {
            let (apply, smooth) = (t.phase("apply"), t.phase("smooth"));
            assert_eq!(apply.msgs, 1, "zero-guess round must not exchange");
            assert_eq!(smooth.msgs, 2, "general rounds exchange every time");
            // Per round 4 JR sweeps; a general round adds the diag and
            // offd residual passes.
            assert_eq!(apply.launches_by_kind[&KernelKind::SpMV], 8 + 2);
            assert_eq!(smooth.launches_by_kind[&KernelKind::SpMV], 8 + 4);
        }
    }

    #[test]
    #[should_panic(expected = "nonzero diagonal")]
    fn zero_diagonal_rejected() {
        Comm::run(1, |rank| {
            let a = Csr::from_dense(&[vec![0.0, 1.0], vec![1.0, 0.0]]);
            let dist = RowDist::block(2, 1);
            let pa = ParCsr::from_serial(rank, dist.clone(), dist, &a);
            HybridGs::new(&pa);
        });
    }
}
