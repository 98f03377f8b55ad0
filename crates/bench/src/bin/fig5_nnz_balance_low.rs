//! Figure 5: median nonzeros per rank with min/max error bars, RCB vs
//! ParMETIS-style multilevel partitioning, low-resolution mesh.

use exawind_bench::{args::HarnessArgs, print_nnz_balance};
use windmesh::turbine::generate;
use windmesh::NrelCase;

fn main() {
    let args = HarnessArgs::parse(1e-3, 1, &[2, 4, 8, 16, 24, 32]);
    let tm = generate(NrelCase::SingleLow, args.scale);
    print_nnz_balance(
        &format!(
            "Figure 5: pressure-matrix NNZ balance, low-res mesh ({} nodes)",
            tm.total_nodes()
        ),
        &tm.meshes,
        &args.ranks,
    );
    println!("# paper: ParMETIS reduces the nnz spread by ~10x at all node counts");
}
