//! AMG design-space sweep on a 2-D anisotropic model operator, 2 ranks:
//! aggressive levels × interpolation × truncation, printing each
//! hierarchy's levels and complexities and the GMRES iterations.

use amg::{AmgConfig, AmgPrecond, InterpType};
use distmat::{ParCsr, ParVector, RowDist};
use exawind_bench::anisotropic_2d;
use krylov::{Gmres, OrthoStrategy};
use parcomm::Comm;

fn main() {
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
            let a = ParCsr::from_serial(rank, dist.clone(), dist.clone(), &s2);
            let amg = AmgPrecond::setup(rank, a.clone(), &cfg).expect("AMG setup");
            let h = amg.hierarchy();
            let b = ParVector::from_fn(rank, dist.clone(), |g| (g as f64 * 0.1).sin());
            let mut x = ParVector::zeros(rank, dist);
            let st = Gmres { restart: 60, max_iters: 200, tol: 1e-8, ortho: OrthoStrategy::OneReduce }
                .solve(rank, &a, &b, &mut x, &amg)
                .expect("solve");
            (h.n_levels(), h.grid_complexity, h.operator_complexity, st.iters, st.converged)
        });
        let (l, gc, oc, it, conv) = out[0];
        println!("{name:22} levels={l} gc={gc:.2} oc={oc:.2} iters={it} conv={conv}");
    }
}
