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

use std::sync::{Arc, Mutex, OnceLock};

use distmat::AssemblyPlan;
use sparse_kit::prims;
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

/// Inverse of the write slots of every owned edge (`edge_slots`): for
/// every pattern slot, the list of per-edge contribution indices
/// (`4·edge + corner`) that land in it, in ascending order.
///
/// This turns the local-assembly scatter into a gather: the per-edge
/// coefficients are computed independently, and each slot then
/// accumulates *its* contributions in the fixed edge order — the same
/// order an edge-by-edge scatter uses.
#[derive(Clone, Debug)]
pub struct ScatterPlan {
    /// Owned edges: the plan gathers from `4 · n_edges` contributions.
    pub n_edges: usize,
    /// CSR-style offsets into `owned_src`, one segment per owned slot.
    pub owned_indptr: Vec<usize>,
    /// Contribution indices (`4k + j`) per owned slot, ascending.
    pub owned_src: Vec<u32>,
    /// Offsets into `shared_src`, one segment per shared slot.
    pub shared_indptr: Vec<usize>,
    /// Contribution indices per shared slot, ascending.
    pub shared_src: Vec<u32>,
}

impl ScatterPlan {
    /// Counting-sort the slot targets of every edge contribution.
    /// `SKIP`ped contributions (Dirichlet rows) are dropped.
    pub fn build(edge_slots: &[[u32; 4]], n_owned: usize, n_shared: usize) -> ScatterPlan {
        let mut owned_count = vec![0usize; n_owned];
        let mut shared_count = vec![0usize; n_shared];
        for slots in edge_slots {
            for &s in slots {
                if s == SKIP {
                    continue;
                }
                if s & SHARED_BIT != 0 {
                    shared_count[(s & !SHARED_BIT) as usize] += 1;
                } else {
                    owned_count[s as usize] += 1;
                }
            }
        }
        let owned_indptr = prims::exclusive_scan(&owned_count);
        let shared_indptr = prims::exclusive_scan(&shared_count);
        let mut owned_src = vec![0u32; *owned_indptr.last().unwrap()];
        let mut shared_src = vec![0u32; *shared_indptr.last().unwrap()];
        let mut owned_next = owned_indptr[..n_owned].to_vec();
        let mut shared_next = shared_indptr[..n_shared].to_vec();
        for (k, slots) in edge_slots.iter().enumerate() {
            for (j, &s) in slots.iter().enumerate() {
                if s == SKIP {
                    continue;
                }
                let c = (4 * k + j) as u32;
                if s & SHARED_BIT != 0 {
                    let i = (s & !SHARED_BIT) as usize;
                    shared_src[shared_next[i]] = c;
                    shared_next[i] += 1;
                } else {
                    let i = s as usize;
                    owned_src[owned_next[i]] = c;
                    owned_next[i] += 1;
                }
            }
        }
        ScatterPlan {
            n_edges: edge_slots.len(),
            owned_indptr,
            owned_src,
            shared_indptr,
            shared_src,
        }
    }
}

/// The exact sparsity pattern of the equation systems with one Dirichlet
/// mask on one rank, with precomputed write slots. The per-edge slots
/// (`edge_slots`) are kept only in their slot-major form, the scatter
/// plan.
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
    /// Slot-wise inverse of the per-edge slots, for the edge scatter.
    pub scatter: ScatterPlan,
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
                push(dm.owner[a], (ga, ga), &mut owned, &mut shared);
                push(dm.owner[a], (ga, gb), &mut owned, &mut shared);
            }
            if !dirichlet[b] {
                push(dm.owner[b], (gb, gb), &mut owned, &mut shared);
                push(dm.owner[b], (gb, ga), &mut owned, &mut shared);
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
        let scatter = ScatterPlan::build(&edge_slots, owned.len(), shared.len());
        let outflow_diag = mesh.boundary(BcKind::Outflow).map_or_else(Vec::new, |patch| {
            patch
                .nodes
                .iter()
                .enumerate()
                .filter(|&(_, &n)| dm.owner[n] == me && !dirichlet[n])
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
            scatter,
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
                slots[0] = find(dm.owner[a], (ga, ga));
                slots[1] = find(dm.owner[a], (ga, gb));
            }
            if !dirichlet[b] {
                slots[2] = find(dm.owner[b], (gb, gb));
                slots[3] = find(dm.owner[b], (gb, ga));
            }
            slots
        })
        .collect()
}

/// Value buffers matching an [`EquationGraph`] pattern, and the per-edge
/// scratch the local-assembly stage computes them through — allocated
/// with the graph, overwritten by every fill.
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
    /// Per owned edge: its coefficient quadruple, written and read by
    /// [`LocalValues::fill_edges`] alone. So the value sets of one mesh's
    /// graphs, whose fills run one at a time, share one buffer
    /// ([`LocalValues::zeros_sharing`]), and so does a clone.
    edge_scratch: Arc<Mutex<Vec<[f64; 4]>>>,
}

impl LocalValues {
    /// Zeroed buffers for `graph`.
    pub fn zeros(graph: &EquationGraph) -> Self {
        let scratch = vec![[0.0; 4]; graph.scatter.n_edges];
        Self::with_scratch(graph, Arc::new(Mutex::new(scratch)))
    }

    /// Zeroed buffers for `graph`, a graph over the same owned edges as
    /// `other`'s, sharing its edge scratch.
    pub(crate) fn zeros_sharing(graph: &EquationGraph, other: &LocalValues) -> Self {
        Self::with_scratch(graph, Arc::clone(&other.edge_scratch))
    }

    fn with_scratch(graph: &EquationGraph, edge_scratch: Arc<Mutex<Vec<[f64; 4]>>>) -> Self {
        assert_eq!(
            edge_scratch.lock().expect("edge scratch lock").len(),
            graph.scatter.n_edges,
            "edge scratch sized for another edge set"
        );
        LocalValues {
            owned: vec![0.0; graph.owned.len()],
            shared: vec![0.0; graph.shared.len()],
            edge_scratch,
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
    /// quadruple of owned edge `k` (a pure function of that edge), and
    /// `plan` routes corner `j` of edge `k` to its slot. Each slot sums
    /// its contributions in ascending edge order, so the result is
    /// bitwise identical to calling [`LocalValues::add`] edge by edge.
    pub fn fill_edges(&mut self, plan: &ScatterPlan, coef: impl Fn(usize) -> [f64; 4]) {
        let mut coeffs = self.edge_scratch.lock().expect("edge scratch lock");
        for (k, c) in coeffs.iter_mut().enumerate() {
            *c = coef(k);
        }
        let src = coeffs.as_flattened();
        prims::segmented_gather_sum(&plan.owned_indptr, &plan.owned_src, src, &mut self.owned);
        prims::segmented_gather_sum(&plan.shared_indptr, &plan.shared_src, src, &mut self.shared);
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
            .filter(|&e| dm.owner[mesh.edges[e].a] == me)
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
        assert_eq!(g.scatter.n_edges, mesh.edges.len());
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
    fn scatter_plan_matches_sequential_adds_bitwise() {
        // The plan-driven edge scatter must reproduce the sequential
        // per-edge add loop bit for bit, at any rank count (so shared
        // slots get exercised too).
        for nparts in [1, 2, 3] {
            let (mesh, dm) = setup(nparts);
            let tags = classify_nodes(&mesh);
            let dir = dirichlet_momentum(&tags);
            for me in 0..nparts {
                let oe = owned_edges(&mesh, &dm, me);
                let on = dm.owned_nodes(me);
                let g = EquationGraph::build(&mesh, &dm, me, dir.clone(), &oe, &on);
                let slots = edge_slots(&mesh, &dm, me, &dir, &oe, &g.owned, &g.shared);
                // Contributions spanning many magnitudes and signs.
                let src: Vec<f64> = (0..4 * slots.len())
                    .map(|c| {
                        let mag = 10f64.powi((c % 9) as i32 - 4);
                        mag * (((c * 2654435761) % 1000) as f64 - 499.5)
                    })
                    .collect();
                let mut seq = LocalValues::zeros(&g);
                for (k, slots) in slots.iter().enumerate() {
                    for (j, &s) in slots.iter().enumerate() {
                        seq.add(s, src[4 * k + j]);
                    }
                }
                let mut plan = LocalValues::zeros(&g);
                plan.fill_edges(&g.scatter, |k| std::array::from_fn(|j| src[4 * k + j]));
                assert_eq!(seq.owned, plan.owned, "owned differ");
                assert_eq!(seq.shared, plan.shared, "shared differ");
            }
        }
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
