//! Per-layer probes: after an episode, time calls into each layer's
//! public entry point on the operators of the same mesh, ranks and
//! transport, and report the median.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use amg::{AmgPrecond, AmgReuse};
use distmat::ops::{par_spgemm, par_spgemm_planned};
use distmat::{IjMatrix, ParVector};
use krylov::{Gmres, Preconditioner, Sgs2};
use nalu_core::assemble::{fill_continuity, fill_momentum, try_build_matrix};
use nalu_core::{DofMap, Simulation, SolverConfig};
use parcomm::{Comm, Rank, TransportKind};
use resilience::checkpoint::{self, MeshCheckpoint, SolverCheckpoint};
use sparse_kit::spgemm::{spgemm_hash, SpgemmPlan};
use sparse_kit::{cost, policy, prims, SellCs};
use windmesh::motion::rotate_annulus;
use windmesh::overset::assemble_overset;

use crate::episode::Measurement;
use crate::spans::Spans;
use crate::stats::median;

/// How many timed calls a probe makes: as many as fit `budget_s`, within
/// `[min_calls, max_calls]`.
#[derive(Clone, Copy, Debug)]
pub struct ProbeCalls {
    pub min_calls: usize,
    pub max_calls: usize,
    pub budget_s: f64,
}

impl ProbeCalls {
    /// At least 30 calls unless one call is slow (AMG setup and GMRES on
    /// the 45k-node mesh), then as many as fit one second, at least 10.
    pub const FULL: ProbeCalls = ProbeCalls {
        min_calls: 10,
        max_calls: 30,
        budget_s: 1.0,
    };
    pub const SMOKE: ProbeCalls = ProbeCalls {
        min_calls: 2,
        max_calls: 2,
        budget_s: 0.0,
    };
}

/// Deterministic value in [-1, 1) from `(seed, i)` (splitmix64).
pub fn unit(seed: u64, i: u64) -> f64 {
    let mut z = seed
        .wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 52) as f64 - 1.0
}

/// Times repeated calls on one rank thread. Every rank makes the same
/// number of calls (the count is agreed by allreduce), so collective
/// entry points are safe to probe.
struct Prober<'a> {
    rank: &'a Rank,
    spans: &'a mut Spans,
    calls: ProbeCalls,
    /// `(name, median seconds)`, reduced to the max over ranks at the end.
    times: Vec<Measurement>,
    /// Values that are already the same on every rank.
    values: Vec<Measurement>,
}

impl Prober<'_> {
    /// Median seconds of `f(setup())`, timing only `f`. One untimed
    /// warm-up call sizes the sample.
    fn time_with<T>(
        &mut self,
        name: &str,
        mut setup: impl FnMut() -> T,
        mut f: impl FnMut(T),
    ) -> f64 {
        let span = self.spans.open(name);
        let mut once = || {
            let input = setup();
            let t0 = Instant::now();
            f(input);
            t0.elapsed().as_secs_f64()
        };
        let warm = self.rank.allreduce_max_f64(once());
        let fit = (self.calls.budget_s / warm.max(1e-9)) as usize;
        let n = fit.clamp(self.calls.min_calls, self.calls.max_calls);
        let samples: Vec<f64> = (0..n).map(|_| once()).collect();
        self.spans.close(span);
        let med = median(&samples);
        self.times.push((format!("{name}_s"), med));
        med
    }

    fn time(&mut self, name: &str, f: impl FnMut(())) -> f64 {
        self.time_with(name, || (), f)
    }

    fn value(&mut self, name: &str, v: f64) {
        self.values.push((name.to_string(), v));
    }

    fn finish(mut self) -> Vec<Measurement> {
        let worst = self.rank.allreduce(
            self.times.iter().map(|t| t.1).collect::<Vec<f64>>(),
            |a, b| a.iter().zip(b).map(|(x, y)| x.max(*y)).collect(),
        );
        for (t, w) in self.times.iter_mut().zip(worst) {
            t.1 = w;
        }
        self.times.append(&mut self.values);
        self.times
    }
}

fn capture(sim: &Simulation) -> SolverCheckpoint {
    SolverCheckpoint {
        step: sim.steps_completed() as u64,
        meshes: (0..sim.n_meshes())
            .map(|m| {
                let st = sim.state(m);
                MeshCheckpoint {
                    vel: st.vel.iter().flatten().copied().collect(),
                    vel_old: st.vel_old.iter().flatten().copied().collect(),
                    p: st.p.clone(),
                    dp: st.dp.clone(),
                    nut: st.nut.clone(),
                    nut_old: st.nut_old.clone(),
                }
            })
            .collect(),
        final_rels: Vec::new(),
        fault_counters: Vec::new(),
        amg_plans: Vec::new(),
    }
}

/// The probes that need the episode's communicator and final state. Run
/// on every rank; matrix probes use the rotor mesh (the last, largest and
/// most anisotropic one). `scratch` is a directory inside the checkout
/// for the checkpoint probe.
pub fn in_communicator(
    rank: &Rank,
    sim: &Simulation,
    spans: &mut Spans,
    cfg: &SolverConfig,
    calls: ProbeCalls,
    scratch: &Path,
) -> Vec<Measurement> {
    let probe_span = spans.open("probe");
    let mut p = Prober {
        rank,
        spans,
        calls,
        times: Vec::new(),
        values: Vec::new(),
    };
    let me = rank.rank();
    let seed = cfg.seed;
    let m = sim.n_meshes() - 1;
    let (mesh, state) = (sim.mesh(m), sim.state(m));
    let mut sys = sim.system(m).clone();
    if sys.graphs.is_none() {
        sys.rebuild_graphs(mesh, me);
    }
    let dm = sys.dm.clone();
    let g = sys.graphs.as_mut().expect("graphs were just built");

    // --- the two operators ------------------------------------------------
    let _ = fill_continuity(
        rank,
        mesh,
        &dm,
        &g.continuity,
        &sys.tags,
        state,
        &cfg.physics,
        &sys.owned_edges,
        &sys.owned_nodes,
        &mut g.con_vals,
    );
    let _ = fill_momentum(
        rank,
        mesh,
        &dm,
        &g.momentum,
        &sys.tags,
        state,
        &cfg.physics,
        &sys.owned_edges,
        &sys.owned_nodes,
        &mut g.mom_vals,
    );
    let a_p =
        try_build_matrix(rank, &dm, &g.continuity, &g.con_vals).expect("pressure matrix assembles");
    let a_m =
        try_build_matrix(rank, &dm, &g.momentum, &g.mom_vals).expect("momentum matrix assembles");
    let b = ParVector::from_fn(rank, dm.dist.clone(), |gid| unit(seed, gid));
    let mut y = ParVector::zeros(rank, dm.dist.clone());

    // --- distmat: Algorithm-1 global assembly, SpMV, halo --------------------
    p.time_with(
        "distmat.ij_assemble",
        || {
            let mut ij = IjMatrix::new(rank, dm.dist.clone(), dm.dist.clone());
            let owned = g.continuity.owned.iter().zip(&g.con_vals.owned);
            let shared = g.continuity.shared.iter().zip(&g.con_vals.shared);
            owned
                .chain(shared)
                .for_each(|(&(r, c), &v)| ij.add_value(r, c, v));
            ij
        },
        |ij| {
            black_box(ij.try_assemble(rank).expect("assembles"));
        },
    );
    let spmv_s = p.time("distmat.spmv", |()| a_p.spmv_into(rank, &b, &mut y));
    let spmv_bytes = rank.allreduce_sum(cost::spmv(&a_p.diag).0 + cost::spmv(&a_p.offd).0);
    p.time("distmat.halo_exchange", |()| {
        black_box(a_p.halo_exchange(rank, &b.local));
    });
    let halo_bytes = rank.allreduce_sum(8 * a_p.comm_pkg().n_send() as u64);
    p.value("distmat.halo_bytes", halo_bytes as f64);

    // --- amg: cold setup, plan-replay setup, one V-cycle ---------------------
    p.time("amg.setup_cold", |()| {
        black_box(
            AmgPrecond::setup_with_reuse(rank, a_p.clone(), &cfg.amg, &mut AmgReuse::new())
                .expect("AMG sets up"),
        );
    });
    let mut reuse = AmgReuse::new();
    let pre =
        AmgPrecond::setup_with_reuse(rank, a_p.clone(), &cfg.amg, &mut reuse).expect("AMG sets up");
    p.time("amg.setup_replay", |()| {
        black_box(
            AmgPrecond::setup_with_reuse(rank, a_p.clone(), &cfg.amg, &mut reuse)
                .expect("AMG sets up"),
        );
    });
    p.time("amg.vcycle", |()| {
        black_box(pre.apply(rank, &b));
    });
    let h = pre.hierarchy();
    p.value("amg.levels", h.n_levels() as f64);
    p.value("amg.grid_complexity", h.grid_complexity);
    p.value("amg.operator_complexity", h.operator_complexity);

    // --- krylov: AMG-preconditioned pressure solve, SGS2 on momentum ---------
    let gmres = Gmres {
        restart: cfg.gmres_restart,
        max_iters: cfg.gmres_max_iters,
        tol: cfg.pressure_tol,
        ortho: cfg.ortho,
    };
    let mut probe_iters = 0;
    p.time_with(
        "krylov.gmres_solve",
        || ParVector::zeros(rank, dm.dist.clone()),
        |mut x| {
            probe_iters = gmres
                .solve(rank, &a_p, &b, &mut x, &pre)
                .expect("probe solve")
                .iters
        },
    );
    p.value("krylov.gmres_probe_iters", probe_iters as f64);
    let sgs2 = Sgs2::with_sweeps(&a_m, cfg.sgs_inner, cfg.sgs_outer);
    let mut x = ParVector::zeros(rank, dm.dist.clone());
    p.time("krylov.sgs2_apply", |()| sgs2.smooth(rank, &b, &mut x, 1));

    // --- distmat / sparse: the first Galerkin product A·P --------------------
    let a0 = &h.levels[0].a;
    let p0 = h.levels[0].p.as_ref().unwrap_or(a0);
    p.time("distmat.par_spgemm", |()| {
        black_box(par_spgemm(rank, a0, p0));
    });
    let (plan, _) = par_spgemm_planned(rank, a0, p0);
    p.time("distmat.par_spgemm_replay", |()| {
        black_box(plan.execute(rank, a0, p0));
    });
    p.time("sparse.spgemm_hash", |()| {
        black_box(spgemm_hash(&a0.diag, &p0.diag));
    });
    let (local_plan, _) = SpgemmPlan::new(&a0.diag, &p0.diag);
    p.time("sparse.spgemm_replay", |()| {
        black_box(local_plan.execute(&a0.diag, &p0.diag));
    });

    // --- sparse: CSR vs SELL-C-σ on the local diagonal block ------------------
    p.time("sparse.spmv_csr", |()| {
        a_p.diag.spmv_into(&b.local, &mut y.local)
    });
    let sell = SellCs::from_csr(&a_p.diag, policy::DEFAULT_SIGMA);
    p.time("sparse.spmv_sellcs", |()| {
        sell.spmv_into(&b.local, &mut y.local)
    });
    p.value("sparse.sellcs_fill_ratio", sell.fill_ratio());

    // --- sparse: sort + reduce at global-assembly size ------------------------
    let pairs = g.momentum.owned.iter().chain(&g.momentum.shared);
    let n_global = dm.dist.global_n();
    let mut keyed: Vec<(u64, u64, f64)> = pairs
        .enumerate()
        .map(|(i, &(r, c))| (r * n_global + c, i as u64, unit(seed, i as u64)))
        .collect();
    // The graph's pairs are already sorted; assembly sorts unsorted input.
    keyed.sort_by_key(|k| unit(seed ^ 0xA55E, k.1).to_bits());
    p.time_with(
        "sparse.sort_reduce",
        || {
            (
                keyed.iter().map(|k| k.0).collect::<Vec<u64>>(),
                keyed.iter().map(|k| k.2).collect::<Vec<f64>>(),
            )
        },
        |(mut keys, mut vals)| {
            prims::stable_sort_by_key(&mut keys, &mut vals);
            black_box(prims::reduce_by_key(&keys, &vals));
        },
    );

    // --- meshpart: the partition Simulation::new computed --------------------
    p.time("meshpart.partition", |()| {
        black_box(DofMap::build(mesh, rank.size(), cfg.partition, seed));
    });
    let cut = mesh
        .edges
        .iter()
        .filter(|e| dm.part[e.a] != dm.part[e.b])
        .count();
    p.value(
        "meshpart.edge_cut_frac",
        cut as f64 / mesh.edges.len() as f64,
    );

    // --- windmesh: what `overset/graph+physics` repeats every step -----------
    let mut meshes: Vec<windmesh::Mesh> =
        (0..sim.n_meshes()).map(|i| sim.mesh(i).clone()).collect();
    let d_angle = cfg.physics.rotor_omega * cfg.physics.dt;
    p.time("windmesh.rotate", |()| {
        rotate_annulus(&mut meshes[m], d_angle)
    });
    p.time("windmesh.overset_assemble", |()| {
        black_box(assemble_overset(&mut meshes, cfg.overset_margin));
    });

    // --- resilience: one rank file of the final state ------------------------
    let ck = capture(sim);
    let mut ckpt_bytes = 0;
    p.time("resilience.ckpt_write", |()| {
        ckpt_bytes =
            checkpoint::write_rank(scratch, me, rank.size(), 1, &ck).expect("checkpoint writes");
    });
    p.time("resilience.ckpt_read", |()| {
        black_box(
            checkpoint::read_rank(scratch, me, rank.size(), 1).expect("checkpoint reads back"),
        );
    });
    p.value(
        "resilience.ckpt_bytes",
        rank.allreduce_sum(ckpt_bytes) as f64,
    );

    // Computed bytes over measured seconds, per rank.
    p.value(
        "distmat.spmv_gbs_computed",
        spmv_bytes as f64 / rank.size() as f64 / spmv_s / 1e9,
    );
    let out = p.finish();
    spans.close(probe_span);
    out
}

/// Transport probes on a fresh 2-rank communicator of kind `kind`:
/// 8-byte ping-pong, 1 MiB one-way bandwidth, `allreduce_sum_f64`, and
/// the cost of starting the communicator at all.
pub fn transport(kind: TransportKind, spans: &mut Spans, calls: ProbeCalls) -> Vec<Measurement> {
    let label = kind.label();
    let n = calls.max_calls;
    let starts: Vec<f64> = (0..n.min(10))
        .map(|_| {
            spans
                .time(&format!("parcomm.{label}.start"), || {
                    Comm::run_with(kind, 2, |_| ())
                })
                .1
        })
        .collect();
    let id = spans.open(&format!("parcomm.{label}.probe"));
    let outs = Comm::run_with(kind, 2, |rank| {
        let peer = 1 - rank.rank();
        let timed = |f: &dyn Fn()| {
            f();
            let samples: Vec<f64> = (0..n)
                .map(|_| {
                    let t0 = Instant::now();
                    f();
                    t0.elapsed().as_secs_f64()
                })
                .collect();
            median(&samples)
        };
        let pingpong = timed(&|| {
            if rank.rank() == 0 {
                rank.send(peer, 1, 7u64);
                black_box(rank.recv::<u64>(peer, 1));
            } else {
                let v = rank.recv::<u64>(peer, 1);
                rank.send(peer, 1, v);
            }
        });
        // 1 MiB one way, acknowledged by 8 bytes.
        let mib = vec![1.0f64; (1 << 20) / 8];
        let big = timed(&|| {
            if rank.rank() == 0 {
                rank.send(peer, 2, mib.clone());
                black_box(rank.recv::<u64>(peer, 2));
            } else {
                black_box(rank.recv::<Vec<f64>>(peer, 2));
                rank.send(peer, 2, 1u64);
            }
        });
        let allreduce = timed(&|| {
            black_box(rank.allreduce_sum_f64(1.0));
        });
        (pingpong, big, allreduce)
    });
    spans.close(id);
    let (pingpong, big, allreduce) = outs[0];
    vec![
        (format!("parcomm.{label}.pingpong_us"), pingpong * 1e6),
        (
            format!("parcomm.{label}.bw_1mib_gbs"),
            (1 << 20) as f64 / (big - pingpong / 2.0).max(1e-9) / 1e9,
        ),
        (format!("parcomm.{label}.allreduce_us"), allreduce * 1e6),
        (format!("parcomm.{label}.start_s"), median(&starts)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_is_deterministic_seeded_and_in_range() {
        let a: Vec<f64> = (0..1000).map(|i| unit(1, i)).collect();
        assert_eq!(a, (0..1000).map(|i| unit(1, i)).collect::<Vec<f64>>());
        assert_ne!(a, (0..1000).map(|i| unit(2, i)).collect::<Vec<f64>>());
        assert!(a.iter().all(|x| (-1.0..1.0).contains(x)));
        let mean = a.iter().sum::<f64>() / 1000.0;
        assert!(mean.abs() < 0.1, "{mean}");
    }
}
