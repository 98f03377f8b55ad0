//! AMG setup: build the multilevel hierarchy.
//!
//! Standard levels run strength → PMIS → interpolation → Galerkin RAP.
//! The first `agg_levels` levels use A-1 **aggressive coarsening**: a
//! second PMIS pass on the `S² + S` pattern of the first-pass C-points,
//! combined with **two-stage interpolation** `P = P1·P2` — P1 interpolates
//! to the first-pass C-points (BAMG-direct weights), P2 interpolates
//! among them with the configured (matrix-based) operator, exactly the
//! §4.1 recipe used for the pressure-Poisson preconditioner.

use std::cell::RefCell;

use distmat::{ops, ParCsr, RowDist};
use krylov::TwoStageGs;
use parcomm::{FaultKind, Rank};
use resilience::{guard, SolveError};

use crate::coarse::CoarseSolver;
use crate::config::{AmgConfig, InterpType};
use crate::cycle::CycleWork;
use crate::interp::build_interpolation;
use crate::pmis::{pmis, pmis_aggressive, CfSplit};
use crate::reuse::AmgReuse;
use crate::strength;

/// One level of the hierarchy.
#[derive(Clone, Debug)]
pub struct AmgLevel {
    /// The operator on this level.
    pub a: ParCsr,
    /// Interpolation to this level from the next coarser one (absent on
    /// the coarsest level).
    pub p: Option<ParCsr>,
    /// Restriction (Pᵀ) to the next coarser level.
    pub r: Option<ParCsr>,
    /// The level smoother: two-stage Gauss-Seidel (§4.2) over `a`.
    pub smoother: TwoStageGs,
    /// The V-cycle's vectors on this level (absent on the coarsest).
    pub(crate) work: Option<RefCell<CycleWork>>,
}

/// Global size of one hierarchy level (the rows of the paper's
/// Tables 2–4).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AmgLevelStat {
    /// Global rows of the level operator.
    pub rows: u64,
    /// Global nonzeros of the level operator.
    pub nnz: u64,
}

/// A complete AMG hierarchy plus complexity statistics.
#[derive(Clone, Debug)]
pub struct AmgHierarchy {
    /// Levels, finest first.
    pub levels: Vec<AmgLevel>,
    /// Dense solver for the coarsest operator.
    pub coarse: CoarseSolver,
    /// Global rows/nnz per level, finest first (one entry per level).
    pub level_stats: Vec<AmgLevelStat>,
    /// Σ global rows over levels / global rows on the finest level.
    pub grid_complexity: f64,
    /// Σ global nnz over levels / global nnz on the finest level.
    pub operator_complexity: f64,
}

/// A coarsening stall is tolerated (hierarchy truncated, as before)
/// when the stalled level is within this factor of `max_coarse_size`;
/// any larger and the stall is a [`SolveError::CoarseningStagnation`] —
/// the coarse "solve" would be a near-full-size dense factorization.
const STALL_TOLERANCE_FACTOR: u64 = 4;

impl AmgHierarchy {
    /// Build the hierarchy for `a`. Collective.
    ///
    /// # Errors
    ///
    /// - [`SolveError::NonFiniteCoefficient`] — the finest operator
    ///   contains NaN/Inf entries (count allreduced, so every rank
    ///   errors together).
    /// - [`SolveError::CoarseningStagnation`] — PMIS stopped shrinking
    ///   the grid while it is still far above `max_coarse_size`.
    /// - A setup exchange failed (`socket-drop`, a timeout or a corrupted
    ///   message): PMIS's, an interpolation's or a transpose's.
    pub fn setup(rank: &Rank, a: ParCsr, config: &AmgConfig) -> Result<AmgHierarchy, SolveError> {
        Self::build(rank, a, config, &mut |a, b| ops::par_spgemm(rank, a, b))
    }

    /// [`AmgHierarchy::setup`] with a cross-solve [`AmgReuse`] store:
    /// every Galerkin SpGEMM whose operand structure matches the plan
    /// recorded by the previous setup through the same store replays
    /// numerically ("spgemm_numeric" kernel) instead of rebuilding.
    /// Strength, PMIS and interpolation are value-dependent and always
    /// run fresh. The hierarchy is the one [`AmgHierarchy::setup`]
    /// builds, bit for bit. Collective.
    ///
    /// # Errors
    ///
    /// As [`AmgHierarchy::setup`].
    pub fn setup_with_reuse(
        rank: &Rank,
        a: ParCsr,
        config: &AmgConfig,
        reuse: &mut AmgReuse,
    ) -> Result<AmgHierarchy, SolveError> {
        reuse.begin();
        let hierarchy = Self::build(rank, a, config, &mut |a, b| reuse.spgemm(rank, a, b))?;
        reuse.finish();
        Ok(hierarchy)
    }

    /// The setup both entry points share; `spgemm` forms every Galerkin
    /// product, in the same (collectively deterministic) call order.
    fn build(
        rank: &Rank,
        a: ParCsr,
        config: &AmgConfig,
        spgemm: &mut dyn FnMut(&ParCsr, &ParCsr) -> ParCsr,
    ) -> Result<AmgHierarchy, SolveError> {
        let local_bad =
            guard::count_nonfinite(a.diag.vals()) + guard::count_nonfinite(a.offd.vals());
        let bad = rank.allreduce_sum(local_bad);
        if bad > 0 {
            return Err(SolveError::NonFiniteCoefficient {
                context: rank.phase_name(),
                count: bad,
            });
        }

        let mut levels: Vec<AmgLevel> = Vec::new();
        let mut a_cur = a;
        let fine_n = a_cur.row_dist().global_n().max(1);
        let fine_nnz = a_cur.global_nnz(rank).max(1);
        let mut sum_n = 0u64;
        let mut sum_nnz = 0u64;
        let mut level_stats: Vec<AmgLevelStat> = Vec::new();

        for lvl in 0..config.max_levels {
            let lvl_n = a_cur.row_dist().global_n();
            let lvl_nnz = a_cur.global_nnz(rank);
            sum_n += lvl_n;
            sum_nnz += lvl_nnz;
            level_stats.push(AmgLevelStat { rows: lvl_n, nnz: lvl_nnz });
            if a_cur.row_dist().global_n() <= config.max_coarse_size as u64 {
                break;
            }
            let stall_is_fatal =
                lvl_n > STALL_TOLERANCE_FACTOR * config.max_coarse_size.max(1) as u64;
            // Fault hook: a `coarsen-stall` spec forces this level's PMIS
            // pass to be treated as degenerate (identical on every rank:
            // the plan and occurrence counters are replicated per rank).
            if rank.fault(FaultKind::CoarsenStall) {
                if stall_is_fatal {
                    return Err(SolveError::CoarseningStagnation { level: lvl, rows: lvl_n });
                }
                break;
            }
            let s = strength::classical(rank, &a_cur, config.strength_threshold);
            let seed = config.seed.wrapping_add(lvl as u64);
            let first = pmis(rank, &s, seed)?;
            if first.coarse_dist.global_n() == 0
                || first.coarse_dist.global_n() == a_cur.row_dist().global_n()
            {
                // Coarsening stalled: tolerable near the coarse-solver
                // threshold, an error while the grid is still large.
                if stall_is_fatal {
                    return Err(SolveError::CoarseningStagnation { level: lvl, rows: lvl_n });
                }
                break;
            }

            let agg = if lvl < config.agg_levels {
                Self::aggressive_level(rank, &a_cur, &s, &first, config, seed, spgemm)?
            } else {
                None
            };
            let (p, r, a_next) =
                agg.map_or_else(|| Self::standard_level(rank, &a_cur, &s, &first, config, spgemm), Ok)?;

            let work = CycleWork::new(rank, a_cur.row_dist(), a_next.row_dist());
            levels.push(AmgLevel {
                smoother: TwoStageGs::new(&a_cur, config.smooth_inner),
                a: a_cur,
                p: Some(p),
                r: Some(r),
                work: Some(RefCell::new(work)),
            });
            a_cur = a_next;
        }
        // Coarsest level.
        if level_stats.len() == levels.len() {
            // `max_levels` was exhausted, so the loop never visited the
            // final coarse operator: record its stats here. This is a
            // collective, but `levels.len()` is identical on every rank
            // (hierarchy construction is collective), so all ranks take
            // this branch together. The complexity sums intentionally
            // keep their historical definition (they exclude this level
            // in the exhausted case).
            level_stats.push(AmgLevelStat {
                rows: a_cur.row_dist().global_n(),
                nnz: a_cur.global_nnz(rank),
            });
        }
        let coarse = CoarseSolver::new(rank, &a_cur);
        levels.push(AmgLevel {
            smoother: TwoStageGs::new(&a_cur, config.smooth_inner),
            a: a_cur,
            p: None,
            r: None,
            work: None,
        });

        let hierarchy = AmgHierarchy {
            levels,
            coarse,
            level_stats,
            grid_complexity: sum_n as f64 / fine_n as f64,
            operator_complexity: sum_nnz as f64 / fine_nnz as f64,
        };
        hierarchy.emit_telemetry(rank);
        Ok(hierarchy)
    }

    /// Record an `amg_setup` event on this rank's telemetry recorder.
    /// One field read when telemetry is disabled.
    fn emit_telemetry(&self, rank: &Rank) {
        let tel = rank.telemetry();
        if !tel.is_enabled() {
            return;
        }
        tel.record(telemetry::Event::AmgSetup {
            rank: rank.rank(),
            path: tel.current_path(),
            levels: self
                .level_stats
                .iter()
                .enumerate()
                .map(|(i, s)| telemetry::AmgLevelRow {
                    level: i,
                    rows: s.rows,
                    nnz: s.nnz,
                })
                .collect(),
            grid_complexity: self.grid_complexity,
            operator_complexity: self.operator_complexity,
        });
    }

    /// Standard level: one PMIS pass, one interpolation, one RAP with
    /// both Galerkin legs formed by `spgemm`. Returns
    /// `(P, R, A_next)`; R is the transpose the RAP needed anyway —
    /// shared instead of recomputed. A failed exchange is returned.
    fn standard_level(
        rank: &Rank,
        a: &ParCsr,
        s: &ParCsr,
        split: &CfSplit,
        config: &AmgConfig,
        spgemm: &mut dyn FnMut(&ParCsr, &ParCsr) -> ParCsr,
    ) -> Result<(ParCsr, ParCsr, ParCsr), SolveError> {
        let p = build_interpolation(rank, a, s, split, config.interp, config.trunc_factor)?;
        let ap = spgemm(a, &p);
        let pt = ops::par_transpose(rank, &p)?;
        let a_next = spgemm(&pt, &ap);
        Ok((p, pt, a_next))
    }

    /// Aggressive level: second PMIS on S²+S, two-stage interpolation.
    /// Returns `None` when the second pass degenerates (falls back to
    /// standard coarsening), and the error of any exchange that fails.
    fn aggressive_level(
        rank: &Rank,
        a: &ParCsr,
        s: &ParCsr,
        first: &CfSplit,
        config: &AmgConfig,
        seed: u64,
        spgemm: &mut dyn FnMut(&ParCsr, &ParCsr) -> ParCsr,
    ) -> Result<Option<(ParCsr, ParCsr, ParCsr)>, SolveError> {
        let agg = pmis_aggressive(rank, s, first, seed)?;
        let n_final = agg.coarse_dist.global_n();
        if n_final == 0 || n_final == first.coarse_dist.global_n() {
            return Ok(None);
        }
        // Stage 1: interpolate to the first-pass C-points (distance-one
        // BAMG-direct weights are standard for the first stage).
        let p1 = build_interpolation(rank, a, s, first, InterpType::BamgDirect, config.trunc_factor)?;
        let ap1 = spgemm(a, &p1);
        let p1t = ops::par_transpose(rank, &p1)?;
        let a1 = spgemm(&p1t, &ap1);
        // Stage 2: CF-split of the first-pass C-points given by the
        // second PMIS pass, interpolated with the configured (MM-based)
        // operator on the intermediate operator A1.
        let split2 = Self::restrict_split(first, &agg);
        let s1 = strength::classical(rank, &a1, config.strength_threshold);
        let p2 = build_interpolation(rank, &a1, &s1, &split2, config.interp, config.trunc_factor)?;
        // P = P1·P2; A_next = P2ᵀ A1 P2 = Pᵀ A P.
        let p = spgemm(&p1, &p2);
        let ap2 = spgemm(&a1, &p2);
        let p2t = ops::par_transpose(rank, &p2)?;
        let a_next = spgemm(&p2t, &ap2);
        let r = ops::par_transpose(rank, &p)?;
        Ok(Some((p, r, a_next)))
    }

    /// Express the composed aggressive splitting relative to the
    /// first-pass coarse points (the rows of A1).
    fn restrict_split(first: &CfSplit, agg: &CfSplit) -> CfSplit {
        let coarse_index = first.coarse_index.iter().zip(&agg.coarse_index);
        CfSplit {
            coarse_dist: agg.coarse_dist.clone(),
            coarse_index: coarse_index.filter(|(f, _)| f.is_some()).map(|(_, &g)| g).collect(),
        }
    }

    /// Number of levels.
    pub fn n_levels(&self) -> usize {
        self.levels.len()
    }
}

/// Re-export for benches: build the finest-level distribution of a serial
/// matrix and set up AMG in one call (test/bench helper). Panics on a
/// [`SolveError`] — bench/test inputs are healthy by construction.
pub fn setup_from_serial(
    rank: &Rank,
    serial: &sparse_kit::Csr,
    config: &AmgConfig,
) -> AmgHierarchy {
    let dist = RowDist::block(serial.nrows() as u64, rank.size());
    let a = ParCsr::from_serial(rank, dist.clone(), dist, serial);
    AmgHierarchy::setup(rank, a, config).unwrap_or_else(|e| panic!("{e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pmis::tests::{laplacian_2d, pull_traffic};
    use parcomm::Comm;
    use sparse_kit::{Coo, Csr};

    #[test]
    fn hierarchy_coarsens_to_small_grid() {
        let serial = laplacian_2d(16); // 256 points
        for p in [1, 2] {
            let s2 = serial.clone();
            let out = Comm::run(p, move |rank| {
                let h = setup_from_serial(rank, &s2, &AmgConfig::standard());
                (h.n_levels(), rows(&h), h.grid_complexity, h.operator_complexity)
            });
            let (nl, sizes, gc, oc) = out[0].clone();
            assert!(nl >= 2, "p={p}: {sizes:?}");
            assert!(*sizes.last().unwrap() <= 40);
            // Sizes strictly decreasing.
            for w in sizes.windows(2) {
                assert!(w[1] < w[0], "{sizes:?}");
            }
            assert!(gc < 2.5, "grid complexity {gc}");
            assert!(oc < 5.0, "operator complexity {oc}");
        }
    }

    #[test]
    fn aggressive_reduces_complexity() {
        let serial = laplacian_2d(20);
        let out = Comm::run(2, move |rank| {
            let std_cfg = AmgConfig::standard();
            let agg_cfg = AmgConfig {
                agg_levels: 2,
                interp: InterpType::MmExt,
                ..AmgConfig::standard()
            };
            let h_std = setup_from_serial(rank, &serial, &std_cfg);
            let h_agg = setup_from_serial(rank, &serial, &agg_cfg);
            (
                h_std.grid_complexity,
                h_agg.grid_complexity,
                rows(&h_std),
                rows(&h_agg),
            )
        });
        let (gc_std, gc_agg, sizes_std, sizes_agg) = out[0].clone();
        assert!(
            gc_agg < gc_std,
            "aggressive {gc_agg} ({sizes_agg:?}) vs standard {gc_std} ({sizes_std:?})"
        );
        // Second level must be much smaller under aggressive coarsening.
        assert!(sizes_agg[1] < sizes_std[1]);
    }

    /// Global rows per level, finest first.
    fn rows(h: &AmgHierarchy) -> Vec<u64> {
        h.level_stats.iter().map(|s| s.rows).collect()
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn setup_with_reuse_replays_bitwise() {
        // Second setup through the same store (values drifted, structure
        // fixed) must replay every Galerkin
        // product and produce levels bit-identical to a fresh setup.
        let serial = laplacian_2d(16);
        for cfg in [AmgConfig::standard(), AmgConfig::pressure_default()] {
            let s2 = serial.clone();
            Comm::run(2, move |rank| {
                let dist = RowDist::block(256, rank.size());
                let a = distmat::ParCsr::from_serial(rank, dist.clone(), dist.clone(), &s2);
                let mut reuse = AmgReuse::new();
                let h0 =
                    AmgHierarchy::setup_with_reuse(rank, a.clone(), &cfg, &mut reuse).unwrap();
                let planned = reuse.n_plans();
                assert!(planned >= 2, "expected recorded Galerkin plans");
                let mut a2 = a.clone();
                a2.scale(0.5);
                let h1 = AmgHierarchy::setup_with_reuse(rank, a2.clone(), &cfg, &mut reuse)
                    .unwrap();
                // Uniform scaling preserves the strength pattern, so
                // every plan must have been reused, not re-recorded.
                assert_eq!(reuse.n_plans(), planned);
                let h1_fresh = AmgHierarchy::setup(rank, a2, &cfg).unwrap();
                assert_eq!(h1.n_levels(), h0.n_levels());
                assert_eq!(h1.n_levels(), h1_fresh.n_levels());
                for (lr, lf) in h1.levels.iter().zip(&h1_fresh.levels) {
                    assert_eq!(bits(lr.a.diag.vals()), bits(lf.a.diag.vals()));
                    assert_eq!(bits(lr.a.offd.vals()), bits(lf.a.offd.vals()));
                }
            });
        }
    }

    #[test]
    fn setup_equals_setup_with_reuse_bitwise() {
        // `setup` forms its Galerkin products with plain `par_spgemm`,
        // recording no plan; the store's first pass records one per
        // product. The hierarchies must not tell the two apart.
        let serial = laplacian_2d(16);
        for p in [1, 2] {
            for cfg in [AmgConfig::standard(), AmgConfig::pressure_default()] {
                let s2 = serial.clone();
                Comm::run(p, move |rank| {
                    let dist = RowDist::block(256, rank.size());
                    let a = distmat::ParCsr::from_serial(rank, dist.clone(), dist, &s2);
                    let plain = AmgHierarchy::setup(rank, a.clone(), &cfg).unwrap();
                    let mut reuse = AmgReuse::new();
                    let stored = AmgHierarchy::setup_with_reuse(rank, a, &cfg, &mut reuse).unwrap();
                    assert!(reuse.n_plans() >= 2, "p={p}: the store recorded no plan");
                    assert_eq!(plain.n_levels(), stored.n_levels(), "p={p}");
                    assert!(plain.n_levels() >= 2, "p={p}: want a multi-level hierarchy");
                    let same = |x: &Option<ParCsr>, y: &Option<ParCsr>| match (x, y) {
                        (Some(x), Some(y)) => x.bitwise_eq(y),
                        (x, y) => x.is_none() && y.is_none(),
                    };
                    for (lvl, (l0, l1)) in plain.levels.iter().zip(&stored.levels).enumerate() {
                        assert!(l0.a.bitwise_eq(&l1.a), "p={p} level {lvl}: A differs");
                        assert!(same(&l0.p, &l1.p), "p={p} level {lvl}: P differs");
                        assert!(same(&l0.r, &l1.r), "p={p} level {lvl}: R differs");
                    }
                    assert_eq!(plain.level_stats, stored.level_stats);
                });
            }
        }
    }

    #[test]
    fn hierarchy_identical_across_rank_counts() {
        let serial = laplacian_2d(12);
        let mut all_sizes = Vec::new();
        for p in [1, 2, 3] {
            let s2 = serial.clone();
            let out = Comm::run(p, move |rank| {
                let h = setup_from_serial(rank, &s2, &AmgConfig::pressure_default());
                rows(&h)
            });
            all_sizes.push(out[0].clone());
        }
        assert_eq!(all_sizes[0], all_sizes[1]);
        assert_eq!(all_sizes[0], all_sizes[2]);
    }

    #[test]
    fn galerkin_operators_keep_nullspace_property() {
        // For the Neumann-interior Laplacian rows, the coarse operator
        // applied to constants should vanish on interior coarse points:
        // check ‖A_c·1‖ ≪ ‖A_c‖·‖1‖ (boundary rows contribute).
        let serial = laplacian_2d(12);
        Comm::run(2, move |rank| {
            let h = setup_from_serial(rank, &serial, &AmgConfig::standard());
            if h.n_levels() < 2 {
                return;
            }
            let ac = &h.levels[1].a;
            let ones = distmat::ParVector::from_fn(rank, ac.row_dist().clone(), |_| 1.0);
            let y = ac.spmv(rank, &ones);
            let norm_y = y.norm2(rank);
            // The 2-D Dirichlet Laplacian has row sums ≥ 0 with boundary
            // contributions; the Galerkin operator inherits positive but
            // bounded row sums.
            assert!(norm_y.is_finite());
            let diag_norm: f64 = ac.diagonal().iter().map(|d| d * d).sum::<f64>().sqrt();
            let total_diag = rank.allreduce_sum_f64(diag_norm * diag_norm).sqrt();
            assert!(norm_y < total_diag, "coarse op blew up: {norm_y} vs {total_diag}");
        });
    }

    #[test]
    fn level_stats_cover_every_level() {
        let serial = laplacian_2d(16);
        for (p, cfg) in [
            (2, AmgConfig::standard()),
            // Exhaust max_levels so the coarsest operator is only
            // counted by the post-loop branch.
            (2, AmgConfig { max_levels: 2, ..AmgConfig::standard() }),
        ] {
            let s2 = serial.clone();
            let out = Comm::run(p, move |rank| {
                let h = setup_from_serial(rank, &s2, &cfg);
                let sizes: Vec<u64> = h.levels.iter().map(|l| l.a.row_dist().global_n()).collect();
                (h.level_stats.clone(), sizes, h.levels[0].a.global_nnz(rank))
            });
            for (stats, sizes, fine_nnz) in out {
                assert_eq!(stats.len(), sizes.len(), "{stats:?} vs {sizes:?}");
                for (s, n) in stats.iter().zip(&sizes) {
                    assert_eq!(s.rows, *n);
                    assert!(s.nnz > 0);
                }
                assert_eq!(stats[0].nnz, fine_nnz);
            }
        }
    }

    #[test]
    fn non_finite_operator_is_rejected_before_setup() {
        // One NaN coefficient (owned by rank 0 only) must fail setup on
        // EVERY rank with the allreduced count — not just where it lives.
        let mut coo = Coo::new();
        coo.push(0, 0, f64::NAN);
        for i in 1..64u64 {
            coo.push(i, i, 2.0);
        }
        let serial = Csr::from_coo(64, 64, &coo);
        let errs = Comm::run(2, move |rank| {
            let dist = distmat::RowDist::block(64, rank.size());
            let a = distmat::ParCsr::from_serial(rank, dist.clone(), dist, &serial);
            AmgHierarchy::setup(rank, a, &AmgConfig::standard()).unwrap_err()
        });
        for err in errs {
            match err {
                SolveError::NonFiniteCoefficient { count, .. } => assert_eq!(count, 1),
                other => panic!("expected NonFiniteCoefficient, got {other:?}"),
            }
        }
    }

    #[test]
    fn forced_coarsen_stall_is_a_typed_error_on_large_grids() {
        // A `coarsen-stall` fault on a grid far above max_coarse_size
        // must surface as CoarseningStagnation instead of silently
        // truncating the hierarchy into a huge dense coarse solve.
        let serial = laplacian_2d(16); // 256 rows
        let errs = Comm::run(2, move |rank| {
            rank.arm_faults(Some(parcomm::FaultPlan::parse("coarsen-stall@amg").unwrap()));
            let dist = distmat::RowDist::block(256, rank.size());
            let a = distmat::ParCsr::from_serial(rank, dist.clone(), dist, &serial);
            rank.with_phase("amg setup", || {
                AmgHierarchy::setup(rank, a, &AmgConfig::standard())
            })
            .unwrap_err()
        });
        for err in errs {
            assert!(
                matches!(err, SolveError::CoarseningStagnation { level: 0, rows: 256 }),
                "expected CoarseningStagnation, got {err:?}"
            );
        }
    }

    #[test]
    fn small_matrix_yields_single_level() {
        let serial = laplacian_2d(4); // 16 < max_coarse_size
        Comm::run(1, |rank| {
            let h = setup_from_serial(rank, &serial, &AmgConfig::standard());
            assert_eq!(h.n_levels(), 1);
            assert!(h.levels[0].p.is_none());
        });
    }

    /// Setup exchanges coarse ids and F ids over each level operator's
    /// own halo, S and PMIS work on that halo too, and the products and
    /// transposes move rows over their operand's: no comm package is
    /// built twice for one column map, and no row is asked for. Every
    /// p2p request left is the halo pull of a product, a transpose, an
    /// interpolant or the aggressive pass's restricted pattern (never of
    /// S), one per pull at 2 ranks; every allgather is one of those
    /// pulls' counts or a numbering. The counts pin the two
    /// configurations at 2 ranks.
    #[test]
    fn setup_builds_no_second_comm_package() {
        let serial = laplacian_2d(16);
        for (config, want) in [(AmgConfig::standard(), [8, 13]), (AmgConfig::pressure_default(), [15, 22])] {
            let s2 = serial.clone();
            let counts = Comm::run(2, move |rank| {
                let dist = RowDist::block(s2.nrows() as u64, rank.size());
                let a = ParCsr::from_serial(rank, dist.clone(), dist, &s2);
                let before = pull_traffic(rank);
                AmgHierarchy::setup(rank, a, &config).unwrap();
                let after = pull_traffic(rank);
                [0, 1].map(|k| after[k] - before[k])
            });
            assert_eq!(counts, [want; 2]);
        }
    }
}
