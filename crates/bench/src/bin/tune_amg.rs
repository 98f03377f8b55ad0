//! AMG design-space sweep: aggressive levels × interpolation × truncation
//! on a 2-D anisotropic model operator (2 ranks), then the benchmark's
//! BAMG-direct configuration and aggressive MM-ext on the continuity
//! operators of the single-turbine mesh at scale 2e-4 (1 and 2 ranks).
//! Each row prints the hierarchy's levels, complexities and GMRES
//! iterations, and an FNV-64 checksum over every level's A, P and R
//! (diag/offd structure, value bits and external-column map), so a
//! change to any bit of a hierarchy changes `results/tune_amg.txt`.
//! Host seconds go to stderr. Takes no arguments.

use std::time::Instant;

use amg::{AmgConfig, AmgHierarchy, AmgPrecond, InterpType};
use distmat::{ParCsr, ParVector, RowDist};
use exawind_bench::args::reject_arguments;
use exawind_bench::{anisotropic_2d, optimized_config};
use krylov::{Gmres, OrthoStrategy};
use nalu_core::assemble::{fill_continuity_operator, try_build_matrix};
use nalu_core::Simulation;
use parcomm::{Comm, Rank};
use resilience::checkpoint::fnv64;
use windmesh::NrelCase;

/// This rank's share of the hierarchy checksum: FNV-64 over every
/// level's A, P and R blocks and column maps, finest level first.
fn local_checksum(h: &AmgHierarchy) -> u64 {
    let mut words: Vec<u64> = Vec::new();
    for lvl in &h.levels {
        for m in [Some(&lvl.a), lvl.p.as_ref(), lvl.r.as_ref()].into_iter().flatten() {
            for b in [&m.diag, &m.offd] {
                words.extend(b.indptr().iter().chain(b.indices()).map(|&x| x as u64));
                words.extend(b.vals().iter().map(|v| v.to_bits()));
            }
            words.extend(m.col_map_offd());
        }
    }
    fnv64(&words.iter().flat_map(|w| w.to_le_bytes()).collect::<Vec<u8>>())
}

/// One printed row: levels, grid and operator complexity, GMRES
/// iterations, converged, and this rank's checksum.
type Row = (usize, f64, f64, usize, bool, u64);

/// Set up `cfg` on `a` and solve one GMRES system with it.
fn sweep_row(rank: &Rank, a: ParCsr, cfg: &AmgConfig) -> Row {
    let dist = a.row_dist().clone();
    let amg = AmgPrecond::setup(rank, a.clone(), cfg).expect("AMG setup");
    let h = amg.hierarchy();
    let b = ParVector::from_fn(rank, dist.clone(), |g| (g as f64 * 0.1).sin());
    let mut x = ParVector::zeros(rank, dist);
    let st = Gmres { restart: 60, max_iters: 200, tol: 1e-8, ortho: OrthoStrategy::OneReduce }
        .solve(rank, &a, &b, &mut x, &amg)
        .expect("solve");
    (h.n_levels(), h.grid_complexity, h.operator_complexity, st.iters, st.converged, local_checksum(h))
}

/// Print one row; the checksum folds the per-rank checksums in rank order.
fn print_row(name: &str, out: &[Row]) {
    let (l, gc, oc, it, conv, _) = out[0];
    let sums: Vec<u8> = out.iter().flat_map(|o| o.5.to_le_bytes()).collect();
    println!("{name:22} levels={l} gc={gc:.2} oc={oc:.2} iters={it} conv={conv} checksum={:016x}", fnv64(&sums));
}

fn main() {
    reject_arguments();
    let t0 = Instant::now();
    let serial = anisotropic_2d(16, 0.05);
    for (name, cfg) in [
        ("agg2 mmext t0.00", AmgConfig { agg_levels: 2, interp: InterpType::MmExt, trunc_factor: 0.0, smooth_inner: 2, ..Default::default() }),
        ("agg2 mmext t0.10", AmgConfig { agg_levels: 2, interp: InterpType::MmExt, trunc_factor: 0.1, smooth_inner: 2, ..Default::default() }),
        ("agg2 mmext t0.25", AmgConfig { agg_levels: 2, interp: InterpType::MmExt, trunc_factor: 0.25, smooth_inner: 2, ..Default::default() }),
        ("agg2 mmexti t0.10", AmgConfig { agg_levels: 2, interp: InterpType::MmExtI, trunc_factor: 0.1, smooth_inner: 2, ..Default::default() }),
        ("agg2 mmexti t0.25", AmgConfig { agg_levels: 2, interp: InterpType::MmExtI, trunc_factor: 0.25, smooth_inner: 2, ..Default::default() }),
        ("agg0 bamg  t0.00", AmgConfig { agg_levels: 0, interp: InterpType::BamgDirect, trunc_factor: 0.0, smooth_inner: 2, ..Default::default() }),
        ("agg1 mmexti t0.10", AmgConfig { agg_levels: 1, interp: InterpType::MmExtI, trunc_factor: 0.1, smooth_inner: 2, ..Default::default() }),
    ] {
        let s2 = serial.clone();
        let out = Comm::run(2, move |rank| {
            let n = s2.nrows() as u64;
            let dist = RowDist::block(n, rank.size());
            sweep_row(rank, ParCsr::from_serial(rank, dist.clone(), dist, &s2), &cfg)
        });
        print_row(name, &out);
    }

    // The continuity operator of each single-turbine mesh (background,
    // rotor) as the solver assembles it, under the benchmark's
    // configuration and under the §4.1 aggressive MM-ext default.
    let meshes = windmesh::turbine::generate(NrelCase::SingleLow, 2e-4).meshes;
    let solver = optimized_config(1);
    for nranks in [1, 2] {
        for (label, cfg) in [("agg0 bamg", solver.amg), ("agg2 mmext", AmgConfig::pressure_default())] {
            let (meshes, solver) = (meshes.clone(), solver.clone());
            let out = Comm::run(nranks, move |rank| {
                let sim = Simulation::new(rank, meshes.clone(), solver.clone());
                (0..sim.n_meshes())
                    .map(|m| {
                        let mut sys = sim.system(m).clone();
                        sys.rebuild_graphs(sim.mesh(m), rank.rank());
                        let g = sys.graphs.as_mut().expect("graphs were just built");
                        fill_continuity_operator(
                            rank,
                            sim.mesh(m),
                            &g.continuity,
                            &solver.physics,
                            &sys.owned_edges,
                            &sys.owned_nodes,
                            &mut g.con_vals,
                        );
                        let a = try_build_matrix(rank, &sys.dm, &g.continuity, &g.con_vals)
                            .expect("continuity operator assembles");
                        sweep_row(rank, a, &cfg)
                    })
                    .collect::<Vec<_>>()
            });
            for m in 0..out[0].len() {
                let per_rank: Vec<_> = out.iter().map(|rows| rows[m]).collect();
                print_row(&format!("turbine m{m} r{nranks} {label}"), &per_rank);
            }
        }
    }
    eprintln!("# tune_amg: host seconds {:.2}", t0.elapsed().as_secs_f64());
}
