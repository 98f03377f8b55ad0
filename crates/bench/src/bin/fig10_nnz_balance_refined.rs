//! Figure 10: NNZ balance on the refined mesh at large rank counts.
//!
//! The paper's contrast with Figure 5: on the refined mesh at scale,
//! ParMETIS lowers the maximum but also the minimum, leaving the overall
//! spread largely unchanged compared to RCB (graph partitioners degrade
//! at high part counts, [43]).

use exawind_bench::{args::HarnessArgs, print_nnz_balance};
use windmesh::turbine::generate;
use windmesh::NrelCase;

fn main() {
    let args = HarnessArgs::parse(1e-4, 1, &[16, 32, 64, 96, 128]);
    let tm = generate(NrelCase::SingleRefined, args.scale);
    print_nnz_balance(
        &format!(
            "Figure 10: pressure-matrix NNZ balance, refined mesh ({} nodes)",
            tm.total_nodes()
        ),
        &tm.meshes,
        &args.ranks,
    );
    println!("# paper: on the refined mesh at scale the spread advantage largely disappears");
}
