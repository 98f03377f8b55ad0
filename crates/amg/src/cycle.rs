//! V-cycle solve phase and the GMRES preconditioner wrapper.

use distmat::{ParCsr, ParVector, RowDist};
use krylov::Preconditioner;
use parcomm::Rank;
use resilience::SolveError;

use crate::config::AmgConfig;
use crate::hierarchy::AmgHierarchy;

/// The vectors a V-cycle visit to one non-coarsest level writes,
/// allocated once at setup and overwritten by every visit.
#[derive(Clone, Debug)]
pub(crate) struct CycleWork {
    /// `b − A·x` after pre-smoothing (this level's rows).
    res: ParVector,
    /// `R·res`, the next level's right-hand side.
    rc: ParVector,
    /// The next level's correction, zeroed before every visit.
    ec: ParVector,
    /// `P·ec` (this level's rows).
    e: ParVector,
}

impl CycleWork {
    pub(crate) fn new(rank: &Rank, fine: &RowDist, coarse: &RowDist) -> Self {
        CycleWork {
            res: ParVector::zeros(rank, fine.clone()),
            rc: ParVector::zeros(rank, coarse.clone()),
            ec: ParVector::zeros(rank, coarse.clone()),
            e: ParVector::zeros(rank, fine.clone()),
        }
    }
}

impl AmgHierarchy {
    /// One V(ν,ν)-cycle: pre-smooth, restrict, recurse, prolong, correct,
    /// post-smooth; dense solve at the coarsest level. Updates an
    /// arbitrary `x` in place. Collective.
    pub fn vcycle(&self, rank: &Rank, b: &ParVector, x: &mut ParVector, sweeps: usize) {
        self.vcycle_level(rank, 0, b, x, sweeps, false);
    }

    /// `zero_guess` is the caller's promise that it created `x` as
    /// `ParVector::zeros`: the first pre-smoothing round then takes
    /// `r = b` without an exchange or a matrix pass (bitwise-lossless,
    /// see `krylov::smoothers`). The coarse correction `ec` is zeroed
    /// here, so every recursion passes `true`. A non-coarsest level costs
    /// 4 halo exchanges per cycle at one sweep (pre-smooth 0, residual 1,
    /// R 1, P 1, post-smooth 1) and allocates nothing: its vectors are
    /// the level's [`CycleWork`].
    fn vcycle_level(
        &self,
        rank: &Rank,
        lvl: usize,
        b: &ParVector,
        x: &mut ParVector,
        sweeps: usize,
        zero_guess: bool,
    ) {
        let level = &self.levels[lvl];
        let (Some(p), Some(r_op), Some(work)) = (&level.p, &level.r, &level.work) else {
            // Coarsest level: replicated dense solve.
            self.coarse.solve_into(rank, b, x);
            return;
        };
        let mut work = work.borrow_mut();
        let CycleWork { res, rc, ec, e } = &mut *work;

        // Pre-smooth.
        level
            .smoother
            .smooth_from(rank, &level.a, b, x, sweeps, zero_guess);
        // Restrict the residual.
        level
            .a
            .residual_into(rank, &b.local, &x.local, &mut res.local);
        r_op.spmv_into(rank, res, rc);
        // Recurse from a zero coarse guess.
        ec.local.fill(0.0);
        self.vcycle_level(rank, lvl + 1, rc, ec, sweeps, true);
        // Prolong and correct.
        p.spmv_into(rank, ec, e);
        x.axpy(rank, 1.0, e);
        // Post-smooth.
        level.smoother.smooth(rank, &level.a, b, x, sweeps);
    }

    /// Relative residual after applying `cycles` V-cycles to `A x = b`
    /// starting from `x` (diagnostic helper).
    pub fn solve_cycles(
        &self,
        rank: &Rank,
        b: &ParVector,
        x: &mut ParVector,
        cycles: usize,
        sweeps: usize,
    ) -> f64 {
        for _ in 0..cycles {
            self.vcycle(rank, b, x, sweeps);
        }
        let r = self.levels[0].a.residual(rank, b, x);
        let bn = b.norm2(rank);
        if bn == 0.0 {
            r.norm2(rank)
        } else {
            r.norm2(rank) / bn
        }
    }
}

/// AMG as a [`Preconditioner`]: one (or more) V-cycles from a zero
/// initial guess — the paper's pressure-Poisson preconditioner.
pub struct AmgPrecond {
    hierarchy: AmgHierarchy,
    /// V-cycles per application.
    pub cycles: usize,
    /// Smoothing sweeps per level per cycle.
    pub sweeps: usize,
}

impl AmgPrecond {
    /// Set up AMG for `a` with `config`. Collective.
    ///
    /// # Errors
    ///
    /// Propagates [`AmgHierarchy::setup`] failures (non-finite
    /// coefficients, coarsening stagnation).
    pub fn setup(rank: &Rank, a: ParCsr, config: &AmgConfig) -> Result<Self, SolveError> {
        Ok(Self::new(AmgHierarchy::setup(rank, a, config)?, config))
    }

    /// [`AmgPrecond::setup`] threading a cross-solve [`crate::AmgReuse`]
    /// store through hierarchy construction, so repeated setups over the
    /// same sparsity replay their Galerkin SpGEMMs numerically. The
    /// solver never holds such a store (its operator does not change);
    /// the `exawind-e2e` replay probe does. Collective.
    ///
    /// # Errors
    ///
    /// Propagates [`AmgHierarchy::setup`] failures (non-finite
    /// coefficients, coarsening stagnation).
    pub fn setup_with_reuse(
        rank: &Rank,
        a: ParCsr,
        config: &AmgConfig,
        reuse: &mut crate::AmgReuse,
    ) -> Result<Self, SolveError> {
        Ok(Self::new(
            AmgHierarchy::setup_with_reuse(rank, a, config, reuse)?,
            config,
        ))
    }

    fn new(hierarchy: AmgHierarchy, config: &AmgConfig) -> Self {
        AmgPrecond {
            hierarchy,
            cycles: 1,
            sweeps: config.smooth_sweeps,
        }
    }

    /// The preconditioner for `a`, building the hierarchy only when it
    /// has to: `cached` is returned as is when the operator it was set
    /// up for (level 0 of its hierarchy) equals `a` bit for bit on
    /// **every** rank; otherwise `a` moves into a fresh
    /// [`AmgPrecond::setup`]. The flag is `true` on reuse. Setup is a
    /// pure function of the operator bits and `config`, so a reused
    /// hierarchy is the one a fresh setup would have built — callers
    /// must pass the `config` that `cached` was built with.
    ///
    /// Collective: the per-rank verdict is allreduced so all ranks take
    /// the same branch (`cached` must be `Some` on all ranks or none).
    ///
    /// # Errors
    ///
    /// As [`AmgPrecond::setup`], on the rebuild branch.
    pub fn reuse_or_setup(
        rank: &Rank,
        cached: Option<AmgPrecond>,
        a: ParCsr,
        config: &AmgConfig,
    ) -> Result<(Self, bool), SolveError> {
        let reusable = cached
            .filter(|p| rank.allreduce_min(u64::from(p.operator().bitwise_eq(&a))) == 1);
        match reusable {
            Some(p) => Ok((p, true)),
            None => Ok((Self::setup(rank, a, config)?, false)),
        }
    }

    /// Access the hierarchy (complexities, level sizes).
    pub fn hierarchy(&self) -> &AmgHierarchy {
        &self.hierarchy
    }

    /// The fine operator this preconditioner was set up for.
    pub fn operator(&self) -> &ParCsr {
        &self.hierarchy.levels[0].a
    }
}

impl Preconditioner for AmgPrecond {
    fn apply(&self, rank: &Rank, r: &ParVector) -> ParVector {
        let mut z = ParVector::zeros(rank, r.dist().clone());
        for cycle in 0..self.cycles {
            self.hierarchy.vcycle_level(rank, 0, r, &mut z, self.sweeps, cycle == 0);
        }
        z
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::InterpType;
    use crate::hierarchy::setup_from_serial;
    use distmat::RowDist;
    use krylov::{Gmres, IdentityPrecond, OrthoStrategy};
    use parcomm::Comm;
    use sparse_kit::{Coo, Csr};

    fn laplacian_2d(nx: usize) -> Csr {
        let id = |i: usize, j: usize| (i * nx + j) as u64;
        let mut coo = Coo::new();
        for i in 0..nx {
            for j in 0..nx {
                coo.push(id(i, j), id(i, j), 4.0);
                if i > 0 {
                    coo.push(id(i, j), id(i - 1, j), -1.0);
                }
                if i + 1 < nx {
                    coo.push(id(i, j), id(i + 1, j), -1.0);
                }
                if j > 0 {
                    coo.push(id(i, j), id(i, j - 1), -1.0);
                }
                if j + 1 < nx {
                    coo.push(id(i, j), id(i, j + 1), -1.0);
                }
            }
        }
        let n = nx * nx;
        Csr::from_coo(n, n, &coo)
    }

    /// Stretched-grid anisotropic Laplacian: the poorly conditioned
    /// matrix class the paper's pressure solves produce.
    fn anisotropic_2d(nx: usize, eps: f64) -> Csr {
        let id = |i: usize, j: usize| (i * nx + j) as u64;
        let mut coo = Coo::new();
        for i in 0..nx {
            for j in 0..nx {
                coo.push(id(i, j), id(i, j), 2.0 + 2.0 * eps);
                if i > 0 {
                    coo.push(id(i, j), id(i - 1, j), -1.0);
                }
                if i + 1 < nx {
                    coo.push(id(i, j), id(i + 1, j), -1.0);
                }
                if j > 0 {
                    coo.push(id(i, j), id(i, j - 1), -eps);
                }
                if j + 1 < nx {
                    coo.push(id(i, j), id(i, j + 1), -eps);
                }
            }
        }
        let n = nx * nx;
        Csr::from_coo(n, n, &coo)
    }

    #[test]
    fn vcycle_contracts_error_fast() {
        // The isotropic model problem and the stretched-grid operator
        // class the pressure solves produce.
        for (name, serial) in [
            ("laplacian", laplacian_2d(16)),
            ("anisotropic", anisotropic_2d(16, 0.05)),
        ] {
            for p in [1, 2] {
                let s2 = serial.clone();
                let out = Comm::run(p, move |rank| {
                    let h = setup_from_serial(rank, &s2, &AmgConfig::standard());
                    let dist = h.levels[0].a.row_dist().clone();
                    let b = ParVector::from_fn(rank, dist.clone(), |g| ((g % 7) as f64) - 3.0);
                    let mut x = ParVector::zeros(rank, dist);
                    let rel4 = h.solve_cycles(rank, &b, &mut x, 4, 1);
                    let rel12 = h.solve_cycles(rank, &b, &mut x, 8, 1);
                    (rel4, rel12)
                });
                for (rel4, rel12) in out {
                    assert!(rel4 < 0.01, "{name} p={p}: 4 cycles reached only {rel4}");
                    assert!(rel12 < 1e-5, "{name} p={p}: 12 cycles stalled at {rel12}");
                    // Mean residual contraction per cycle over cycles 5–12.
                    // Measured: laplacian 0.298 / 0.301, anisotropic
                    // 0.269 / 0.292 (p = 1 / 2); 0.35 leaves ≈ 15 %.
                    let factor = (rel12 / rel4).powf(1.0 / 8.0);
                    assert!(factor < 0.35, "{name} p={p}: contraction factor {factor}");
                }
            }
        }
    }

    #[test]
    fn amg_preconditioned_gmres_beats_unpreconditioned() {
        let serial = anisotropic_2d(16, 0.05);
        let n = serial.nrows() as u64;
        let out = Comm::run(2, move |rank| {
            let dist = RowDist::block(n, rank.size());
            let a = ParCsr::from_serial(rank, dist.clone(), dist.clone(), &serial);
            let b = ParVector::from_fn(rank, dist.clone(), |g| (g as f64 * 0.1).sin());
            let gmres = Gmres {
                restart: 60,
                max_iters: 200,
                tol: 1e-8,
                ortho: OrthoStrategy::OneReduce,
            };
            let mut x0 = ParVector::zeros(rank, dist.clone());
            let plain = gmres.solve(rank, &a, &b, &mut x0, &IdentityPrecond).unwrap();

            let amg = AmgPrecond::setup(rank, a.clone(), &AmgConfig::pressure_default()).unwrap();
            let mut x1 = ParVector::zeros(rank, dist);
            let pre = gmres.solve(rank, &a, &b, &mut x1, &amg).unwrap();
            (plain.iters, pre.iters, pre.converged)
        });
        let (plain, pre, converged) = out[0];
        assert!(converged);
        assert!(
            pre * 3 <= plain,
            "AMG should cut iterations ≥3×: {pre} vs {plain}"
        );
        assert!(pre <= 25, "AMG-GMRES took {pre} iterations");
    }

    #[test]
    fn all_interp_types_yield_converging_cycles() {
        let serial = laplacian_2d(12);
        for interp in [
            InterpType::Direct,
            InterpType::BamgDirect,
            InterpType::MmExt,
            InterpType::MmExtI,
        ] {
            let s2 = serial.clone();
            let out = Comm::run(2, move |rank| {
                let cfg = AmgConfig {
                    interp,
                    agg_levels: 0,
                    ..AmgConfig::standard()
                };
                let h = setup_from_serial(rank, &s2, &cfg);
                let dist = h.levels[0].a.row_dist().clone();
                let b = ParVector::from_fn(rank, dist.clone(), |g| (g as f64).cos());
                let mut x = ParVector::zeros(rank, dist);
                h.solve_cycles(rank, &b, &mut x, 10, 1)
            });
            for rel in out {
                assert!(rel < 1e-4, "{interp:?} stalled at {rel}");
            }
        }
    }

    #[test]
    fn aggressive_hierarchy_converges_under_gmres() {
        // Aggressive coarsening trades per-cycle convergence for setup
        // cost and memory — exactly why the paper pairs it with GMRES.
        let serial = laplacian_2d(16);
        let n = serial.nrows() as u64;
        let out = Comm::run(2, move |rank| {
            let dist = RowDist::block(n, rank.size());
            let a = ParCsr::from_serial(rank, dist.clone(), dist.clone(), &serial);
            let amg = AmgPrecond::setup(rank, a.clone(), &AmgConfig::pressure_default()).unwrap();
            let b = ParVector::from_fn(rank, dist.clone(), |g| 1.0 + (g % 3) as f64);
            let mut x = ParVector::zeros(rank, dist);
            let gmres = Gmres {
                restart: 50,
                max_iters: 100,
                tol: 1e-8,
                ortho: OrthoStrategy::OneReduce,
            };
            let stats = gmres.solve(rank, &a, &b, &mut x, &amg).unwrap();
            (stats.converged, stats.iters)
        });
        let (converged, iters) = out[0];
        assert!(converged);
        assert!(iters <= 55, "aggressive AMG-GMRES took {iters} iterations");
    }

    #[test]
    fn converged_solution_independent_of_rank_count() {
        // The hybrid smoother makes individual V-cycles rank-dependent
        // (process-local relaxation), but the *converged* solution of
        // AMG-preconditioned GMRES must agree across rank counts.
        let serial = laplacian_2d(10);
        let n = serial.nrows() as u64;
        let mut sols: Vec<Vec<f64>> = Vec::new();
        for p in [1, 2, 4] {
            let s2 = serial.clone();
            let out = Comm::run(p, move |rank| {
                let dist = RowDist::block(n, rank.size());
                let a = ParCsr::from_serial(rank, dist.clone(), dist.clone(), &s2);
                let amg = AmgPrecond::setup(rank, a.clone(), &AmgConfig::standard()).unwrap();
                let b = ParVector::from_fn(rank, dist.clone(), |g| (g as f64).sin());
                let mut x = ParVector::zeros(rank, dist);
                Gmres {
                    restart: 40,
                    max_iters: 100,
                    tol: 1e-12,
                    ortho: OrthoStrategy::OneReduce,
                }
                .solve(rank, &a, &b, &mut x, &amg)
                .unwrap();
                x.to_serial(rank)
            });
            sols.push(out[0].clone());
        }
        for s in &sols[1..] {
            for (a, b) in s.iter().zip(&sols[0]) {
                assert!((a - b).abs() < 1e-8, "rank-count dependent solution");
            }
        }
    }

    #[test]
    fn precond_apply_is_deterministic() {
        let serial = laplacian_2d(8);
        Comm::run(2, move |rank| {
            let dist = RowDist::block(64, rank.size());
            let a = ParCsr::from_serial(rank, dist.clone(), dist.clone(), &serial);
            let amg = AmgPrecond::setup(rank, a, &AmgConfig::standard()).unwrap();
            let r = ParVector::from_fn(rank, dist, |g| g as f64);
            let z1 = amg.apply(rank, &r);
            let z2 = amg.apply(rank, &r);
            assert_eq!(z1.local, z2.local);
        });
    }

    /// A V-cycle in which every smoothing round is a general one, on
    /// explicitly zeroed vectors: what the zero-guess rounds must equal.
    fn reference_vcycle(
        h: &AmgHierarchy,
        rank: &Rank,
        lvl: usize,
        b: &ParVector,
        x: &mut ParVector,
        sweeps: usize,
    ) {
        let level = &h.levels[lvl];
        let (Some(p), Some(r_op)) = (&level.p, &level.r) else {
            h.coarse.solve_into(rank, b, x);
            return;
        };
        level.smoother.smooth(rank, &level.a, b, x, sweeps);
        let rc = r_op.spmv(rank, &level.a.residual(rank, b, x));
        let mut ec = ParVector::zeros(rank, rc.dist().clone());
        reference_vcycle(h, rank, lvl + 1, &rc, &mut ec, sweeps);
        x.axpy(rank, 1.0, &p.spmv(rank, &ec));
        level.smoother.smooth(rank, &level.a, b, x, sweeps);
    }

    #[test]
    fn precond_apply_equals_reference_vcycle_bitwise() {
        let serial = anisotropic_2d(14, 0.05);
        let n = serial.nrows() as u64;
        for p in [1, 2] {
            for interp in [InterpType::BamgDirect, InterpType::MmExt] {
                let s2 = serial.clone();
                let (expected, traces) = Comm::run_traced(p, move |rank| {
                    let cfg = AmgConfig { interp, agg_levels: 0, ..AmgConfig::standard() };
                    assert_eq!(cfg.smooth_sweeps, 1);
                    let dist = RowDist::block(n, rank.size());
                    let a = ParCsr::from_serial(rank, dist.clone(), dist.clone(), &s2);
                    let amg = AmgPrecond::setup(rank, a.clone(), &cfg).unwrap();
                    let h = amg.hierarchy();
                    assert!(h.n_levels() >= 3, "want a multi-level cycle");
                    // −0.0 and negative entries: `b − (+0.0)` must keep them.
                    let b1 = ParVector::from_fn(rank, dist.clone(), |g| match g % 5 {
                        0 => -0.0,
                        1 => -(g as f64),
                        _ => (g as f64 * 0.37).sin(),
                    });
                    let b2 = ParVector::from_fn(rank, dist.clone(), |g| (g as f64 * 1.3).cos());
                    // Two right-hand sides in a row through one instance:
                    // the second must not see what the first left in the
                    // reused level vectors and smoother buffers.
                    let z1 = rank.with_phase("apply", || amg.apply(rank, &b1));
                    let z2 = rank.with_phase("apply", || amg.apply(rank, &b2));
                    let bits = |v: &ParVector| v.local.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    for (b, z) in [(&b1, &z1), (&b2, &z2)] {
                        let mut z_ref = ParVector::zeros(rank, dist.clone());
                        reference_vcycle(h, rank, 0, b, &mut z_ref, amg.sweeps);
                        assert_eq!(bits(z), bits(&z_ref), "p={p} {interp:?}");
                    }
                    let fresh = AmgPrecond::setup(rank, a, &cfg).unwrap();
                    assert_eq!(bits(&z2), bits(&fresh.apply(rank, &b2)), "p={p} {interp:?}");

                    // One message per neighbour per halo round. Per cycle a
                    // non-coarsest level exchanges for: the residual, R, P
                    // and the post-smoothing round — not for the
                    // pre-smoothing round, which starts from zero. Two
                    // applications, one cycle each.
                    let sends = |m: &ParCsr| m.comm_pkg().sends.len() as u64;
                    h.levels[..h.n_levels() - 1]
                        .iter()
                        .map(|l| {
                            2 * sends(&l.a)
                                + sends(l.r.as_ref().unwrap())
                                + sends(l.p.as_ref().unwrap())
                        })
                        .sum::<u64>()
                        * 2
                });
                for (t, expected_msgs) in traces.iter().zip(&expected) {
                    assert_eq!(t.phase("apply").msgs, *expected_msgs, "p={p} {interp:?}");
                    assert_eq!(*expected_msgs > 0, p > 1);
                }
            }
        }
    }

    #[test]
    fn reuse_or_setup_verdict_is_collective() {
        // A value perturbed by one ulp in rank 1's block alone: rank 0's
        // own comparison still says "same", yet both ranks must take the
        // rebuild branch (a split verdict would deadlock in setup's
        // collectives) and end up holding a hierarchy for the new operator.
        let serial = laplacian_2d(12);
        let out = Comm::run(2, move |rank| {
            let cfg = AmgConfig::standard();
            let dist = RowDist::block(serial.nrows() as u64, rank.size());
            let build = || ParCsr::from_serial(rank, dist.clone(), dist.clone(), &serial);
            let (first, cold) = AmgPrecond::reuse_or_setup(rank, None, build(), &cfg).unwrap();
            let (second, same) =
                AmgPrecond::reuse_or_setup(rank, Some(first), build(), &cfg).unwrap();
            let mut a = build();
            if rank.rank() == 1 {
                let v = &mut a.diag.vals_mut()[0];
                *v = f64::from_bits(v.to_bits() + 1);
                a.refresh_diag_sell();
            }
            let local_same = second.operator().bitwise_eq(&a);
            let (third, perturbed) =
                AmgPrecond::reuse_or_setup(rank, Some(second), a.clone(), &cfg).unwrap();
            assert!(third.operator().bitwise_eq(&a));
            (cold, same, local_same, perturbed)
        });
        assert_eq!(out[0], (false, true, true, false));
        assert_eq!(out[1], (false, true, false, false));
    }
}
