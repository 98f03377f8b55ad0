//! Three kernel comparisons behind the paper's design choices:
//! - §4.1: hash SpGEMM (hypre) vs expand-sort-compress SpGEMM (the
//!   cuSPARSE-style comparator), on A·A and on the Galerkin RAP of an
//!   anisotropic 2-D Laplacian;
//! - §4.2: classical-MGS vs one-reduce GMRES, 30 unpreconditioned
//!   iterations on 4 ranks;
//! - §5.1: RCB vs multilevel k-way partitioning of a turbine rotor mesh.
//!
//! Stdout holds exact counts only (nonzeros, products, bitwise agreement,
//! iterations, collectives and messages per rank, edge cuts), so it is
//! byte-reproducible; the host seconds go to stderr. Takes no arguments.

use std::time::Instant;

use distmat::{ParCsr, ParVector, RowDist};
use exawind_bench::anisotropic_2d;
use krylov::{Gmres, IdentityPrecond, OrthoStrategy};
use meshpart::{multilevel_kway, rcb, Graph};
use parcomm::Comm;
use sparse_kit::rap::galerkin;
use sparse_kit::spgemm::{spgemm_esc, spgemm_flops, spgemm_hash};
use sparse_kit::{Coo, Csr};
use windmesh::turbine::generate;
use windmesh::NrelCase;

const RUNS: usize = 10;
const SECONDS: &str = "host seconds (median of 10 runs after one warm-up)";

type Product = fn(&Csr, &Csr) -> Csr;

/// Median host seconds of `RUNS` calls of `f`, after one untimed
/// warm-up call.
fn median_seconds<R>(mut f: impl FnMut() -> R) -> f64 {
    std::hint::black_box(f());
    let mut secs: Vec<f64> = (0..RUNS)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(f());
            t.elapsed().as_secs_f64()
        })
        .collect();
    secs.sort_by(f64::total_cmp);
    0.5 * (secs[RUNS / 2 - 1] + secs[RUNS / 2])
}

/// Piecewise-linear 2:1 interpolation, the prolongator of the RAP rows.
fn interp(n: usize) -> Csr {
    let nc = n as u64 / 2;
    let mut coo = Coo::new();
    for i in 0..n as u64 {
        coo.push(i, (i / 2).min(nc - 1), if i % 2 == 0 { 1.0 } else { 0.5 });
        if i % 2 == 1 && i / 2 + 1 < nc {
            coo.push(i, i / 2 + 1, 0.5);
        }
    }
    Csr::from_coo(n, n / 2, &coo)
}

/// Pᵀ·A·P through the sort-based SpGEMM, the comparator of `galerkin`.
fn galerkin_esc(a: &Csr, p: &Csr) -> Csr {
    spgemm_esc(&p.transpose(), &spgemm_esc(a, p))
}

fn bitwise_equal(x: &Csr, y: &Csr) -> bool {
    let bits = |m: &Csr| m.vals().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    x.indptr() == y.indptr() && x.indices() == y.indices() && bits(x) == bits(y)
}

fn main() {
    exawind_bench::args::reject_arguments();
    println!("# §4.1: hash vs expand-sort-compress SpGEMM, anisotropic 2-D Laplacian (eps = 0.1)");
    println!("product,n,nnz_a,products,nnz_out,hash_equals_esc_bitwise");
    eprintln!("# §4.1 {SECONDS}\nproduct,n,hash_s,esc_s,esc_over_hash");
    for nx in [32, 64] {
        let a = anisotropic_2d(nx, 0.1);
        let p = interp(nx * nx);
        let rap_flops = spgemm_flops(&a, &p) + spgemm_flops(&p.transpose(), &spgemm_hash(&a, &p));
        let kernels: [(&str, Product, Product, &Csr, u64); 2] = [
            ("A*A", spgemm_hash, spgemm_esc, &a, spgemm_flops(&a, &a)),
            ("P^T*A*P", galerkin, galerkin_esc, &p, rap_flops),
        ];
        for (name, hash, esc, b, flops) in kernels {
            let (c, n) = (hash(&a, b), a.nrows());
            let equal = bitwise_equal(&c, &esc(&a, b));
            println!("{name},{n},{},{},{},{equal}", a.nnz(), flops / 2, c.nnz());
            let t_hash = median_seconds(|| hash(&a, b));
            let t_esc = median_seconds(|| esc(&a, b));
            eprintln!("{name},{n},{t_hash:.6},{t_esc:.6},{:.2}", t_esc / t_hash);
        }
    }

    println!("\n# §4.2: 30 unpreconditioned GMRES iterations, 1-D Laplacian n = 4000, 4 ranks");
    println!("ortho,rank,iters,rel_residual,collectives,msgs");
    eprintln!("\n# §4.2 {SECONDS} of one solve on rank 0\northo,solve_s");
    let n = 4000u64;
    let mut coo = Coo::new();
    for i in 0..n {
        for (j, v) in [(i.wrapping_sub(1), -1.0), (i, 2.0), (i + 1, -1.0)] {
            if j < n {
                coo.push(i, j, v);
            }
        }
    }
    let serial = Csr::from_coo(n as usize, n as usize, &coo);
    for (name, ortho) in [
        ("classical_mgs", OrthoStrategy::ClassicalMgs),
        ("one_reduce", OrthoStrategy::OneReduce),
    ] {
        let (outs, traces) = Comm::run_traced(4, |rank| {
            let dist = RowDist::block(n, rank.size());
            let a = ParCsr::from_serial(rank, dist.clone(), dist.clone(), &serial);
            let b = ParVector::from_fn(rank, dist.clone(), |g| (g % 7) as f64);
            let gmres = Gmres {
                restart: 30,
                max_iters: 30,
                tol: 1e-30, // never met: every solve runs all 30 iterations
                ortho,
            };
            let solve = || {
                let mut x = ParVector::zeros(rank, dist.clone());
                gmres
                    .solve(rank, &a, &b, &mut x, &IdentityPrecond)
                    .expect("GMRES")
            };
            let stats = rank.with_phase("solve", solve);
            let secs = rank.with_phase("timed", || median_seconds(solve));
            (stats.iters, stats.rel_residual, secs)
        });
        let (iters, rel, secs) = outs[0];
        for (r, trace) in traces.iter().enumerate() {
            let solve = trace.phase("solve");
            println!(
                "{name},{r},{iters},{rel:.6e},{},{}",
                solve.collectives, solve.msgs
            );
        }
        eprintln!("{name},{secs:.6}");
    }

    let rotor = generate(NrelCase::SingleLow, 2e-4).meshes.swap_remove(1);
    println!(
        "\n# §5.1: 16 parts of the low-res rotor mesh (scale 2e-4, {} nodes)",
        rotor.n_nodes()
    );
    println!("method,edge_cut,min_part_nodes,max_part_nodes");
    eprintln!("\n# §5.1 {SECONDS}\nmethod,partition_s");
    let graph = Graph::from_edges_unit(rotor.n_nodes(), &rotor.adjacency());
    let weights = vec![1.0; rotor.n_nodes()];
    let partitioners: [(&str, &dyn Fn() -> Vec<usize>); 2] = [
        ("rcb", &|| rcb(&rotor.coords, &weights, 16)),
        ("multilevel_kway", &|| multilevel_kway(&graph, 16, 7)),
    ];
    for (name, partition) in partitioners {
        let part = partition();
        let mut sizes = [0usize; 16];
        part.iter().for_each(|&p| sizes[p] += 1);
        let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
        println!("{name},{:.0},{min},{max}", graph.edge_cut(&part));
        eprintln!("{name},{:.6}", median_seconds(partition));
    }
}
