//! Degree-of-freedom maps: mesh partitioning and global renumbering.
//!
//! Each overset mesh gets its own linear systems (additive Schwarz, §2),
//! so each mesh carries its own [`DofMap`]: a partition of its nodes over
//! the ranks (RCB or the multilevel ParMETIS stand-in, §5.1) and the
//! contiguous global renumbering hypre's block-row distribution needs.

use distmat::{ops::dist_from_partition, RowDist};
use meshpart::{multilevel_kway, rcb, Graph};
use windmesh::Mesh;

/// Which decomposition to use — the paper's central comparison (Figs. 4/5/10).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PartitionMethod {
    /// Recursive coordinate bisection (the original decomposition).
    Rcb,
    /// Multilevel k-way graph partitioning (the ParMETIS rebalancing).
    Multilevel,
}

/// Node → rank assignment and global numbering for one mesh.
#[derive(Clone, Debug)]
pub struct DofMap {
    /// Row distribution over ranks.
    pub dist: RowDist,
    /// Global id of each mesh node.
    pub gid: Vec<u64>,
    /// Owning rank of each mesh node.
    pub owner: Vec<usize>,
    /// The partition vector (rank per node).
    pub part: Vec<usize>,
}

impl DofMap {
    /// Partition `mesh` into `nparts` and build the global numbering.
    /// Deterministic: every rank computes the same map.
    pub fn build(mesh: &Mesh, nparts: usize, method: PartitionMethod, seed: u64) -> DofMap {
        let n = mesh.n_nodes();
        let part = if nparts == 1 {
            vec![0; n]
        } else {
            match method {
                // STK distributes *elements*: RCB balances element counts
                // over element centroids, and nodes follow their first
                // adjacent element (first-touch, like STK's shared-node
                // ownership resolution). On stretched body-fitted meshes
                // this is exactly what produces the per-rank nonzero
                // imbalance and sliver subdomains of the paper's
                // Figures 4/5.
                PartitionMethod::Rcb => {
                    let centroids: Vec<[f64; 3]> = mesh
                        .hexes
                        .iter()
                        .map(|h| {
                            let mut c = [0.0; 3];
                            for &v in h {
                                for (d, cd) in c.iter_mut().enumerate() {
                                    *cd += mesh.coords[v][d] / 8.0;
                                }
                            }
                            c
                        })
                        .collect();
                    let w = vec![1.0; centroids.len()];
                    let epart = rcb(&centroids, &w, nparts);
                    let mut node_part = vec![usize::MAX; n];
                    for (e, h) in mesh.hexes.iter().enumerate() {
                        for &v in h {
                            if node_part[v] == usize::MAX {
                                node_part[v] = epart[e];
                            }
                        }
                    }
                    // Nodes not touched by any hex (none in practice).
                    for p in node_part.iter_mut() {
                        if *p == usize::MAX {
                            *p = 0;
                        }
                    }
                    node_part
                }
                // The ParMETIS-style rebalancing targets the linear
                // system: vertex weights are the row nonzero counts.
                PartitionMethod::Multilevel => {
                    let mut degree = vec![1.0f64; n];
                    for e in &mesh.edges {
                        degree[e.a] += 1.0;
                        degree[e.b] += 1.0;
                    }
                    // Unit edge weights: the cut count is the number of
                    // off-rank matrix couplings, i.e. the halo-message
                    // volume the solvers pay for; vertex weights are row
                    // nonzero counts (the quantity ParMETIS rebalancing
                    // targets in the paper's workflow).
                    let edges: Vec<(usize, usize, f64)> = mesh
                        .edges
                        .iter()
                        .map(|e| (e.a, e.b, 1.0))
                        .collect();
                    let g = Graph::from_edges(n, &edges, degree);
                    multilevel_kway(&g, nparts, seed)
                }
            }
        };
        let (dist, gid) = dist_from_partition(&part, nparts);
        let owner = part.clone();
        DofMap {
            dist,
            gid,
            owner,
            part,
        }
    }

    /// Nodes owned by `rank`, in ascending global-id order.
    pub fn owned_nodes(&self, rank: usize) -> Vec<usize> {
        let mut nodes: Vec<usize> = (0..self.gid.len())
            .filter(|&i| self.owner[i] == rank)
            .collect();
        nodes.sort_by_key(|&i| self.gid[i]);
        nodes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use windmesh::generate::{box_mesh, uniform_spacing, BoxBc};

    fn mesh() -> Mesh {
        box_mesh(
            uniform_spacing(0.0, 1.0, 5),
            uniform_spacing(0.0, 1.0, 5),
            uniform_spacing(0.0, 1.0, 5),
            BoxBc::wind_tunnel(),
        )
    }

    #[test]
    fn gids_are_a_permutation() {
        let m = mesh();
        for method in [PartitionMethod::Rcb, PartitionMethod::Multilevel] {
            let dm = DofMap::build(&m, 4, method, 1);
            let mut gids = dm.gid.clone();
            gids.sort();
            let expected: Vec<u64> = (0..m.n_nodes() as u64).collect();
            assert_eq!(gids, expected, "{method:?}");
            assert_eq!(dm.dist.global_n(), m.n_nodes() as u64);
        }
    }

    #[test]
    fn ownership_matches_distribution() {
        let m = mesh();
        let dm = DofMap::build(&m, 3, PartitionMethod::Multilevel, 7);
        for i in 0..m.n_nodes() {
            assert_eq!(dm.dist.owner(dm.gid[i]), dm.owner[i]);
        }
        // Owned nodes cover all nodes exactly once.
        let total: usize = (0..3).map(|r| dm.owned_nodes(r).len()).sum();
        assert_eq!(total, m.n_nodes());
    }

    #[test]
    fn owned_nodes_ascend_in_gid() {
        let m = mesh();
        let dm = DofMap::build(&m, 2, PartitionMethod::Rcb, 0);
        for r in 0..2 {
            let nodes = dm.owned_nodes(r);
            for (k, &node) in nodes.iter().enumerate() {
                assert_eq!(dm.dist.to_local(r, dm.gid[node]), k);
            }
        }
    }

    #[test]
    fn single_rank_trivial() {
        let m = mesh();
        let dm = DofMap::build(&m, 1, PartitionMethod::Rcb, 0);
        assert!(dm.part.iter().all(|&p| p == 0));
    }
}
