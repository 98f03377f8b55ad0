//! Stage 1: graph computation.
//!
//! "The graph-computation stage computes the exact sparsity pattern of a
//! linear system for each governing equation... Several auxiliary data
//! structures are also constructed that enable matrix element location
//! determination in the next stage." (§3.1)
//!
//! The owned and shared COO patterns are computed exactly (row-major
//! sorted, duplicate-free), and every owned edge gets four precomputed
//! *write slots* — the auxiliary structures that let the local-assembly
//! stage scatter coefficients without any searching (the paper's
//! binary-search-once optimization of §3.2).

use std::sync::OnceLock;

use distmat::AssemblyPlan;
use windmesh::{BcKind, Mesh, NodeStatus};

use crate::dofmap::DofMap;

/// Boundary-condition tag of a node (highest priority wins).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BcTag {
    /// Interior DoF.
    Interior,
    /// Velocity/scalar Dirichlet from the freestream.
    Inflow,
    /// Pressure Dirichlet (reference), natural for momentum.
    Outflow,
    /// Slip plane: natural everywhere.
    Symmetry,
    /// No-slip rotating wall: velocity/scalar Dirichlet.
    Wall,
    /// Overset receptor: Dirichlet from the donor mesh for everything.
    Fringe,
    /// Blanked node: frozen identity row.
    Hole,
}

/// Classify every node of a mesh (overset status takes priority over
/// side-set membership; side sets are applied in declaration order).
pub fn classify_nodes(mesh: &Mesh) -> Vec<BcTag> {
    let mut tags = vec![BcTag::Interior; mesh.n_nodes()];
    for patch in &mesh.boundaries {
        let tag = match patch.kind {
            BcKind::Inflow => BcTag::Inflow,
            BcKind::Outflow => BcTag::Outflow,
            BcKind::Symmetry => BcTag::Symmetry,
            BcKind::Wall => BcTag::Wall,
            BcKind::OversetReceptor => BcTag::Fringe,
        };
        for &n in &patch.nodes {
            // Walls and inflow dominate symmetry on shared edges/corners.
            if tags[n] == BcTag::Interior || tags[n] == BcTag::Symmetry {
                tags[n] = tag;
            }
        }
    }
    for (n, s) in mesh.status.iter().enumerate() {
        match s {
            NodeStatus::Hole => tags[n] = BcTag::Hole,
            NodeStatus::Fringe => tags[n] = BcTag::Fringe,
            NodeStatus::Active => {}
        }
    }
    tags
}

/// Dirichlet mask for the momentum/scalar systems.
pub fn dirichlet_momentum(tags: &[BcTag]) -> Vec<bool> {
    tags.iter()
        .map(|t| matches!(t, BcTag::Inflow | BcTag::Wall | BcTag::Fringe | BcTag::Hole))
        .collect()
}

/// Dirichlet mask for the pressure-Poisson system.
pub fn dirichlet_pressure(tags: &[BcTag]) -> Vec<bool> {
    tags.iter()
        .map(|t| matches!(t, BcTag::Outflow | BcTag::Fringe | BcTag::Hole))
        .collect()
}

/// Slot sentinel: contribution dropped (Dirichlet row).
pub const SKIP: u32 = u32::MAX;
/// High bit marks a slot into the shared value array.
const SHARED_BIT: u32 = 1 << 31;

/// The exact sparsity pattern of the equation systems with one Dirichlet
/// mask on one rank, with precomputed write slots.
#[derive(Clone, Debug)]
pub struct EquationGraph {
    /// Row-major sorted (row, col) pairs for rows owned by this rank.
    pub owned: Vec<(u64, u64)>,
    /// Row-major sorted pairs for rows owned by other ranks.
    pub shared: Vec<(u64, u64)>,
    /// Per owned node (in owned-node order): slot of the diagonal.
    pub diag_slots: Vec<u32>,
    /// Dirichlet mask used to build the pattern.
    pub dirichlet: Vec<bool>,
    /// Per owned edge: the write slots of its corners (aa, ab, bb, ba),
    /// see [`LocalValues::fill_edges`].
    pub edge_slots: Vec<[u32; 4]>,
    /// `(position in the outflow patch, diagonal slot)` of every outflow
    /// node this rank owns with a free (non-Dirichlet) row, in patch
    /// order.
    pub outflow_diag: Vec<(usize, u32)>,
    /// Stage-3 replay of this pattern (Algorithm 1 with the structure
    /// taken out), recorded by the first matrix assembly. A function of
    /// the pattern alone, so it lives and dies with the graph, and every
    /// system assembled on the graph replays it.
    pub(crate) plan: OnceLock<AssemblyPlan>,
}

impl EquationGraph {
    /// Compute the pattern and slots for one equation.
    ///
    /// `owned_edges` are mesh-edge indices whose first endpoint this rank
    /// owns; `owned_nodes` the rank's nodes in ascending global order.
    pub fn build(
        mesh: &Mesh,
        dm: &DofMap,
        me: usize,
        dirichlet: Vec<bool>,
        owned_edges: &[usize],
        owned_nodes: &[usize],
    ) -> EquationGraph {
        let mut owned: Vec<(u64, u64)> = Vec::new();
        let mut shared: Vec<(u64, u64)> = Vec::new();
        let push = |row_owner: usize, pair: (u64, u64), owned: &mut Vec<(u64, u64)>, shared: &mut Vec<(u64, u64)>| {
            if row_owner == me {
                owned.push(pair);
            } else {
                shared.push(pair);
            }
        };
        for &e in owned_edges {
            let edge = &mesh.edges[e];
            let (a, b) = (edge.a, edge.b);
            let (ga, gb) = (dm.gid[a], dm.gid[b]);
            if !dirichlet[a] {
                // Edge ownership follows node a, so these rows are owned.
                push(dm.part[a], (ga, ga), &mut owned, &mut shared);
                push(dm.part[a], (ga, gb), &mut owned, &mut shared);
            }
            if !dirichlet[b] {
                push(dm.part[b], (gb, gb), &mut owned, &mut shared);
                push(dm.part[b], (gb, ga), &mut owned, &mut shared);
            }
        }
        for &n in owned_nodes {
            owned.push((dm.gid[n], dm.gid[n]));
        }
        owned.sort_unstable();
        owned.dedup();
        shared.sort_unstable();
        shared.dedup();

        let edge_slots = edge_slots(mesh, dm, me, &dirichlet, owned_edges, &owned, &shared);
        let diag_slots = owned_nodes
            .iter()
            .map(|&n| {
                let g = dm.gid[n];
                owned.binary_search(&(g, g)).expect("diag missing") as u32
            })
            .collect();
        let outflow_diag = mesh.boundary(BcKind::Outflow).map_or_else(Vec::new, |patch| {
            patch
                .nodes
                .iter()
                .enumerate()
                .filter(|&(_, &n)| dm.part[n] == me && !dirichlet[n])
                .map(|(i, &n)| {
                    let g = dm.gid[n];
                    (i, owned.binary_search(&(g, g)).expect("diag missing") as u32)
                })
                .collect()
        });
        EquationGraph {
            owned,
            shared,
            diag_slots,
            dirichlet,
            edge_slots,
            outflow_diag,
            plan: OnceLock::new(),
        }
    }
}

/// The write slots of every owned edge: for corners (aa, ab, bb, ba),
/// the position of the entry in the owned pattern, or in the shared one
/// with `SHARED_BIT` set, or `SKIP` on a Dirichlet row.
fn edge_slots(
    mesh: &Mesh,
    dm: &DofMap,
    me: usize,
    dirichlet: &[bool],
    owned_edges: &[usize],
    owned: &[(u64, u64)],
    shared: &[(u64, u64)],
) -> Vec<[u32; 4]> {
    let find = |row_owner: usize, pair: (u64, u64)| -> u32 {
        if row_owner == me {
            owned.binary_search(&pair).expect("pattern miss (owned)") as u32
        } else {
            SHARED_BIT | shared.binary_search(&pair).expect("pattern miss (shared)") as u32
        }
    };
    owned_edges
        .iter()
        .map(|&e| {
            let edge = &mesh.edges[e];
            let (a, b) = (edge.a, edge.b);
            let (ga, gb) = (dm.gid[a], dm.gid[b]);
            let mut slots = [SKIP; 4];
            if !dirichlet[a] {
                slots[0] = find(dm.part[a], (ga, ga));
                slots[1] = find(dm.part[a], (ga, gb));
            }
            if !dirichlet[b] {
                slots[2] = find(dm.part[b], (gb, gb));
                slots[3] = find(dm.part[b], (gb, ga));
            }
            slots
        })
        .collect()
}

/// Value buffers matching an [`EquationGraph`] pattern.
///
/// The scatter-add is the stand-in for the GPU atomic adds of §3.2. The
/// paper notes that atomics forgo bitwise run-to-run reproducibility;
/// here every slot sums its contributions in a fixed order instead.
#[derive(Clone, Debug)]
pub struct LocalValues {
    /// Values of the owned pattern entries.
    pub owned: Vec<f64>,
    /// Values of the shared pattern entries.
    pub shared: Vec<f64>,
}

impl LocalValues {
    /// Zeroed buffers for `graph`.
    pub fn zeros(graph: &EquationGraph) -> Self {
        LocalValues {
            owned: vec![0.0; graph.owned.len()],
            shared: vec![0.0; graph.shared.len()],
        }
    }

    /// Reset to zero (pattern reuse across Picard iterations).
    pub fn reset(&mut self) {
        self.owned.iter_mut().for_each(|v| *v = 0.0);
        self.shared.iter_mut().for_each(|v| *v = 0.0);
    }

    /// Scatter-add into a slot (the GPU atomic-add of §3.2; sequential
    /// and hence deterministic here — see DESIGN.md).
    #[inline]
    pub fn add(&mut self, slot: u32, v: f64) {
        if slot == SKIP {
            return;
        }
        if slot & SHARED_BIT != 0 {
            self.shared[(slot & !SHARED_BIT) as usize] += v;
        } else {
            self.owned[slot as usize] += v;
        }
    }

    /// Apply the whole edge stage at once: `coef(k)` is the coefficient
    /// quadruple of owned edge `k`, and corner `j` of it is added into
    /// `slots[k][j]`, edge by edge. Each slot therefore sums its
    /// contributions in ascending edge order, from the +0.0 that
    /// [`LocalValues::reset`] leaves.
    pub fn fill_edges(&mut self, slots: &[[u32; 4]], coef: impl Fn(usize) -> [f64; 4]) {
        for (k, slots) in slots.iter().enumerate() {
            for (&slot, v) in slots.iter().zip(coef(k)) {
                self.add(slot, v);
            }
        }
    }

    /// Overwrite a slot (Dirichlet diagonals).
    #[inline]
    pub fn set(&mut self, slot: u32, v: f64) {
        if slot == SKIP {
            return;
        }
        if slot & SHARED_BIT != 0 {
            self.shared[(slot & !SHARED_BIT) as usize] = v;
        } else {
            self.owned[slot as usize] = v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dofmap::PartitionMethod;
    use windmesh::generate::{box_mesh, uniform_spacing, BoxBc};

    fn setup(nparts: usize) -> (Mesh, DofMap) {
        let mesh = box_mesh(
            uniform_spacing(0.0, 1.0, 4),
            uniform_spacing(0.0, 1.0, 4),
            uniform_spacing(0.0, 1.0, 4),
            BoxBc::wind_tunnel(),
        );
        let dm = DofMap::build(&mesh, nparts, PartitionMethod::Rcb, 0);
        (mesh, dm)
    }

    fn owned_edges(mesh: &Mesh, dm: &DofMap, me: usize) -> Vec<usize> {
        (0..mesh.edges.len())
            .filter(|&e| dm.part[mesh.edges[e].a] == me)
            .collect()
    }

    #[test]
    fn classify_prioritises_overset_over_sides() {
        let (mut mesh, _) = setup(1);
        let tags = classify_nodes(&mesh);
        // A corner node on the inflow face is Inflow (or Symmetry beaten).
        let inflow = mesh.boundary(BcKind::Inflow).unwrap().nodes.clone();
        assert!(inflow.iter().all(|&n| tags[n] == BcTag::Inflow));
        // Mark one inflow node as a hole: Hole wins.
        mesh.status[inflow[0]] = NodeStatus::Hole;
        let tags = classify_nodes(&mesh);
        assert_eq!(tags[inflow[0]], BcTag::Hole);
    }

    #[test]
    fn dirichlet_masks_differ_by_equation() {
        let (mesh, _) = setup(1);
        let tags = classify_nodes(&mesh);
        let mom = dirichlet_momentum(&tags);
        let pre = dirichlet_pressure(&tags);
        let inflow = mesh.boundary(BcKind::Inflow).unwrap().nodes.clone();
        let outflow = mesh.boundary(BcKind::Outflow).unwrap().nodes.clone();
        assert!(inflow.iter().all(|&n| mom[n] && !pre[n]));
        assert!(outflow.iter().all(|&n| !mom[n] && pre[n]));
    }

    #[test]
    fn single_rank_pattern_has_no_shared_entries() {
        let (mesh, dm) = setup(1);
        let tags = classify_nodes(&mesh);
        let dir = dirichlet_momentum(&tags);
        let oe = owned_edges(&mesh, &dm, 0);
        let on = dm.owned_nodes(0);
        let g = EquationGraph::build(&mesh, &dm, 0, dir, &oe, &on);
        assert!(g.shared.is_empty());
        assert_eq!(g.edge_slots.len(), mesh.edges.len());
        assert_eq!(g.diag_slots.len(), mesh.n_nodes());
        // Pattern is sorted and unique.
        assert!(g.owned.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn multirank_pattern_routes_shared_rows() {
        let (mesh, dm) = setup(2);
        let tags = classify_nodes(&mesh);
        let dir = dirichlet_momentum(&tags);
        let mut total_shared = 0;
        for me in 0..2 {
            let oe = owned_edges(&mesh, &dm, me);
            let on = dm.owned_nodes(me);
            let g = EquationGraph::build(&mesh, &dm, me, dir.clone(), &oe, &on);
            // All owned rows really belong to me.
            for &(r, _) in &g.owned {
                assert_eq!(dm.dist.owner(r), me);
            }
            for &(r, _) in &g.shared {
                assert_ne!(dm.dist.owner(r), me);
            }
            total_shared += g.shared.len();
        }
        assert!(total_shared > 0, "cut edges must create shared entries");
    }

    #[test]
    fn dirichlet_rows_only_have_diagonal() {
        let (mesh, dm) = setup(1);
        let tags = classify_nodes(&mesh);
        let dir = dirichlet_momentum(&tags);
        let oe = owned_edges(&mesh, &dm, 0);
        let on = dm.owned_nodes(0);
        let g = EquationGraph::build(&mesh, &dm, 0, dir.clone(), &oe, &on);
        for (i, &d) in dir.iter().enumerate() {
            if d {
                let gi = dm.gid[i];
                let row: Vec<_> = g.owned.iter().filter(|(r, _)| *r == gi).collect();
                assert_eq!(row.len(), 1, "Dirichlet row {gi} has off-diagonals");
                assert_eq!(*row[0], (gi, gi));
            }
        }
    }

    #[test]
    fn local_values_scatter_add_and_skip() {
        let (mesh, dm) = setup(1);
        let tags = classify_nodes(&mesh);
        let dir = dirichlet_momentum(&tags);
        let oe = owned_edges(&mesh, &dm, 0);
        let on = dm.owned_nodes(0);
        let g = EquationGraph::build(&mesh, &dm, 0, dir, &oe, &on);
        let mut vals = LocalValues::zeros(&g);
        vals.add(SKIP, 5.0); // must be a no-op
        vals.add(g.diag_slots[0], 2.0);
        vals.add(g.diag_slots[0], 3.0);
        assert_eq!(vals.owned[g.diag_slots[0] as usize], 5.0);
        vals.set(g.diag_slots[0], 1.0);
        assert_eq!(vals.owned[g.diag_slots[0] as usize], 1.0);
        vals.reset();
        assert!(vals.owned.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn fill_edges_sums_each_slot_from_positive_zero_in_edge_order() {
        // Owned slot 0 gets only −0.0, slot 1 contributions that cancel
        // exactly, slot 2 and shared slot 0 magnitudes whose sum depends
        // on the order; corner 3 of every edge is skipped.
        let shared0 = SHARED_BIT;
        let slots = [[0, 1, 2, SKIP], [2, 0, shared0, SKIP], [1, 2, shared0, SKIP], [0, 2, shared0, SKIP]];
        let coef = [
            [-0.0, 1.5, 1e16, 7.0],
            [1.0, -0.0, -1e16, 7.0],
            [-1.5, 1.0, 1.0, 7.0],
            [-0.0, -1e16, 1.0, 7.0],
        ];
        let mut vals = LocalValues { owned: vec![0.0; 3], shared: vec![0.0; 1] };
        vals.reset();
        vals.fill_edges(&slots, |k| coef[k]);
        assert_eq!(vals.owned[0].to_bits(), 0.0f64.to_bits(), "all −0.0");
        assert_eq!(vals.owned[1].to_bits(), 0.0f64.to_bits(), "exact cancellation");
        // Next to 1e16 a 1.0 rounds away (ties to even), so each slot
        // holds the sum in edge order, not in any other.
        let sum = |vs: &[f64]| vs.iter().fold(0.0, |acc, v| acc + v);
        let owned2 = [1e16, 1.0, 1.0, -1e16];
        assert_eq!(vals.owned[2].to_bits(), sum(&owned2).to_bits());
        assert_ne!(sum(&owned2), sum(&[1.0, 1.0, 1e16, -1e16]));
        let shared = [-1e16, 1.0, 1.0];
        assert_eq!(vals.shared[0].to_bits(), sum(&shared).to_bits());
        assert_ne!(sum(&shared), sum(&[1.0, 1.0, -1e16]));
    }

    #[test]
    fn interior_nnz_per_row_is_about_seven() {
        // The edge scheme on hex meshes gives ~7 entries per interior row
        // (paper: "on average eight entries per row").
        let (mesh, dm) = setup(1);
        let tags = classify_nodes(&mesh);
        let dir = dirichlet_pressure(&tags);
        let oe = owned_edges(&mesh, &dm, 0);
        let on = dm.owned_nodes(0);
        let g = EquationGraph::build(&mesh, &dm, 0, dir.clone(), &oe, &on);
        // Count entries of a fully interior row.
        let interior = (0..mesh.n_nodes())
            .find(|&n| {
                tags[n] == BcTag::Interior
                    && mesh.edges.iter().filter(|e| e.a == n || e.b == n).count() == 6
            })
            .expect("interior node");
        let gi = dm.gid[interior];
        let nnz_row = g.owned.iter().filter(|(r, _)| *r == gi).count();
        assert_eq!(nnz_row, 7);
    }
}
