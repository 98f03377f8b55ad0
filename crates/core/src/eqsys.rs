//! Per-mesh equation-system bookkeeping.

use std::sync::OnceLock;

use amg::AmgPrecond;
use distmat::VectorPlan;

use crate::dofmap::{DofMap, PartitionMethod};
use crate::graph::{
    classify_nodes, dirichlet_momentum, dirichlet_pressure, BcTag, EquationGraph, LocalValues,
};
use windmesh::Mesh;

/// The three governing-equation systems of the solver.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum EqKind {
    /// Helmholtz-type momentum transport (3 RHS).
    Momentum,
    /// Pressure-Poisson continuity projection.
    Continuity,
    /// Turbulent-viscosity scalar transport.
    Scalar,
}

impl EqKind {
    /// All systems, in solve order.
    pub const ALL: [EqKind; 3] = [EqKind::Momentum, EqKind::Continuity, EqKind::Scalar];

    /// Equation-system name used in reports (matches the paper's).
    pub fn name(self) -> &'static str {
        match self {
            EqKind::Momentum => "momentum",
            EqKind::Continuity => "continuity",
            EqKind::Scalar => "scalar",
        }
    }
}

/// Graphs and value buffers for one mesh, rebuilt whenever the node
/// classification changes (see [`MeshSystem::rebuild_graphs`]) — and with
/// them everything derived from them: assembly plans, scratch, and the
/// cached pressure preconditioner.
///
/// Each system is still assembled into a matrix of its own (hypre builds
/// one IJ matrix per system), but there is one pattern, one assembly plan
/// and one value buffer per Dirichlet mask: momentum and the scalar share
/// the transport mask and edge coefficients, and solve one after the
/// other, so they fill the same buffer and replay the same plan.
#[derive(Clone, Debug)]
pub struct Graphs {
    /// The transport graph: the pattern of the momentum and scalar
    /// systems.
    pub momentum: EquationGraph,
    /// Continuity pattern.
    pub continuity: EquationGraph,
    /// Values of the transport graph, filled by momentum and then by the
    /// scalar (each matrix is assembled out of it before the next fill).
    pub mom_vals: LocalValues,
    /// Continuity values.
    pub con_vals: LocalValues,
    /// Algorithm 2 replay of each system's right-hand side, indexed by
    /// [`EqKind`] and recorded by its first assembly. One per system, not
    /// per graph: the off-rank ids a fill emits depend on the fill (the
    /// momentum pressure gradient reaches across the cut, the scalar
    /// emits none).
    rhs_plans: [OnceLock<VectorPlan>; 3],
    /// The AMG preconditioner of the continuity operator, keyed on the
    /// bits of the `dt/ρ` it was assembled with. The operator is a
    /// function of this graph and `dt/ρ` alone
    /// ([`crate::assemble::fill_continuity_operator`]), so while both
    /// hold, a Picard iteration neither refills, reassembles nor
    /// re-checks it; the Picard driver takes the entry out for an attempt
    /// and puts it back only after a successful solve.
    pub(crate) con_precond: Option<(u64, AmgPrecond)>,
    /// Per-node scratch of the velocity correction's pressure gradient.
    pub(crate) dp_grad: Vec<[f64; 3]>,
}

impl Graphs {
    /// The right-hand-side plan slot of system `eq`.
    pub(crate) fn rhs_plan(&self, eq: EqKind) -> &OnceLock<VectorPlan> {
        &self.rhs_plans[eq as usize]
    }
}

/// Partition, numbering, and graphs of one overset mesh on one rank.
#[derive(Clone, Debug)]
pub struct MeshSystem {
    /// DoF map (partition + renumbering).
    pub dm: DofMap,
    /// Node classification for the current connectivity.
    pub tags: Vec<BcTag>,
    /// Edges assembled by this rank (first endpoint owned).
    pub owned_edges: Vec<usize>,
    /// Nodes owned by this rank, ascending global id.
    pub owned_nodes: Vec<usize>,
    /// Current graphs (absent before the first rebuild).
    pub graphs: Option<Graphs>,
}

impl MeshSystem {
    /// Partition `mesh` and set up the rank-local structures.
    pub fn new(
        mesh: &Mesh,
        nparts: usize,
        method: PartitionMethod,
        seed: u64,
        me: usize,
    ) -> MeshSystem {
        let dm = DofMap::build(mesh, nparts, method, seed);
        let owned_edges: Vec<usize> = (0..mesh.edges.len())
            .filter(|&e| dm.owner[mesh.edges[e].a] == me)
            .collect();
        let owned_nodes = dm.owned_nodes(me);
        MeshSystem {
            dm,
            tags: classify_nodes(mesh),
            owned_edges,
            owned_nodes,
            graphs: None,
        }
    }

    /// Stage 1 for all three systems: reclassify nodes and recompute the
    /// exact sparsity patterns + write slots of the transport and the
    /// continuity graph. The graphs are a pure function of the mesh
    /// topology, the `DofMap` and the tags; the first two are fixed for
    /// the life of the system, so existing graphs are kept while the tags
    /// are unchanged (rigid rotor motion with an axisymmetric hole cut
    /// leaves them so every step).
    pub fn rebuild_graphs(&mut self, mesh: &Mesh, me: usize) {
        let tags = classify_nodes(mesh);
        if self.graphs.is_some() && tags == self.tags {
            telemetry::counter("graphs.reused", 1);
            return;
        }
        telemetry::counter("graphs.rebuilt", 1);
        self.tags = tags;
        let (dm, edges, nodes) = (&self.dm, &self.owned_edges, &self.owned_nodes);
        let build = |dirichlet| EquationGraph::build(mesh, dm, me, dirichlet, edges, nodes);
        let momentum = build(dirichlet_momentum(&self.tags));
        let continuity = build(dirichlet_pressure(&self.tags));
        let mom_vals = LocalValues::zeros(&momentum);
        let con_vals = LocalValues::zeros_sharing(&continuity, &mom_vals);
        self.graphs = Some(Graphs {
            momentum,
            continuity,
            mom_vals,
            con_vals,
            rhs_plans: Default::default(),
            con_precond: None,
            dp_grad: vec![[0.0; 3]; mesh.n_nodes()],
        });
    }

    /// Per-rank nonzero count of the continuity pattern (the statistic of
    /// the paper's Figures 5 and 10).
    pub fn pressure_nnz_local(&self) -> usize {
        self.graphs
            .as_ref()
            .map(|g| g.continuity.owned.len())
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use windmesh::generate::{box_mesh, uniform_spacing, BoxBc};

    fn mesh() -> Mesh {
        box_mesh(
            uniform_spacing(0.0, 1.0, 4),
            uniform_spacing(0.0, 1.0, 4),
            uniform_spacing(0.0, 1.0, 4),
            BoxBc::wind_tunnel(),
        )
    }

    #[test]
    fn eq_names_match_paper() {
        assert_eq!(EqKind::Momentum.name(), "momentum");
        assert_eq!(EqKind::Continuity.name(), "continuity");
        assert_eq!(EqKind::Scalar.name(), "scalar");
        assert_eq!(EqKind::ALL.len(), 3);
    }

    #[test]
    fn rebuild_creates_all_graphs() {
        let m = mesh();
        let mut sys = MeshSystem::new(&m, 2, PartitionMethod::Rcb, 0, 0);
        assert!(sys.graphs.is_none());
        sys.rebuild_graphs(&m, 0);
        let g = sys.graphs.as_ref().unwrap();
        assert!(!g.momentum.owned.is_empty());
        assert!(!g.continuity.owned.is_empty());
        // Momentum and continuity differ (different Dirichlet sets —
        // compare contents, sizes can coincide on symmetric boxes).
        assert_ne!(g.momentum.owned, g.continuity.owned);
        assert!(sys.pressure_nnz_local() > 0);
    }

    #[test]
    fn owned_sets_partition_work() {
        let m = mesh();
        let mut edge_total = 0;
        let mut node_total = 0;
        for me in 0..3 {
            let sys = MeshSystem::new(&m, 3, PartitionMethod::Rcb, 0, me);
            edge_total += sys.owned_edges.len();
            node_total += sys.owned_nodes.len();
        }
        assert_eq!(edge_total, m.edges.len());
        assert_eq!(node_total, m.n_nodes());
    }

    #[test]
    fn rebuild_keeps_graphs_across_rotation_and_rebuilds_on_a_tag_change() {
        use windmesh::overset::assemble_overset;
        use windmesh::turbine::{generate, NrelCase};
        use windmesh::NodeStatus;
        let mut meshes = generate(NrelCase::SingleLow, 1e-4).meshes;
        assemble_overset(&mut meshes, 0.18);
        let mut sys = MeshSystem::new(&meshes[1], 2, PartitionMethod::Multilevel, 0, 0);
        sys.rebuild_graphs(&meshes[1], 0);
        // A marker in a value buffer: a rebuild would zero it.
        sys.graphs.as_mut().unwrap().con_vals.owned[0] = 42.0;
        let before = sys.graphs.as_ref().unwrap().continuity.owned.clone();

        // Rigid rotation + overset update: same tags, graphs untouched.
        windmesh::motion::rotate_annulus(&mut meshes[1], 0.3);
        assemble_overset(&mut meshes, 0.18);
        sys.rebuild_graphs(&meshes[1], 0);
        let g = sys.graphs.as_ref().unwrap();
        assert_eq!(g.con_vals.owned[0], 42.0, "graphs were rebuilt under unchanged tags");
        assert_eq!(g.continuity.owned, before);

        // One interior node blanked by hand: its row becomes Dirichlet.
        let n = (0..meshes[1].n_nodes())
            .find(|&n| sys.tags[n] == BcTag::Interior && sys.dm.owner[n] == 0)
            .expect("an owned interior node");
        meshes[1].status[n] = NodeStatus::Hole;
        sys.rebuild_graphs(&meshes[1], 0);
        let g = sys.graphs.as_ref().unwrap();
        assert_eq!(sys.tags[n], BcTag::Hole);
        assert!(g.continuity.dirichlet[n] && g.momentum.dirichlet[n]);
        assert_eq!(g.con_vals.owned[0], 0.0, "stale value buffers survived a rebuild");
        assert_ne!(g.continuity.owned, before, "pattern ignores the new Dirichlet row");
    }

    #[test]
    fn assembly_plan_survives_rotation_and_is_dropped_on_tag_change() {
        use crate::assemble::try_build_matrix;
        use windmesh::overset::assemble_overset;
        use windmesh::turbine::{generate, NrelCase};
        use windmesh::NodeStatus;
        let mut meshes = generate(NrelCase::SingleLow, 1e-4).meshes;
        assemble_overset(&mut meshes, 0.18);
        parcomm::Comm::run(2, move |rank| {
            let me = rank.rank();
            let mut meshes = meshes.clone();
            let mut sys = MeshSystem::new(&meshes[1], 2, PartitionMethod::Multilevel, 0, me);
            sys.rebuild_graphs(&meshes[1], me);
            let assemble = |sys: &MeshSystem| {
                let g = sys.graphs.as_ref().unwrap();
                try_build_matrix(rank, &sys.dm, &g.continuity, &g.con_vals).expect("assembles")
            };
            // Sort kernels recorded so far: only a plan build adds any.
            let sorts = || {
                let trace = rank.trace_snapshot().total();
                trace.launches_by_kind.get(&parcomm::KernelKind::Sort).copied().unwrap_or(0)
            };
            assert!(sys.graphs.as_ref().unwrap().continuity.plan.get().is_none());
            let first = assemble(&sys);
            let built = sorts();
            assert!(built > 0, "the first assembly recorded no plan");

            // Rigid rotation + overset update: same tags, same graph,
            // same plan — the next assembly is a pure replay.
            windmesh::motion::rotate_annulus(&mut meshes[1], 0.3);
            assemble_overset(&mut meshes, 0.18);
            sys.rebuild_graphs(&meshes[1], me);
            assert!(sys.graphs.as_ref().unwrap().continuity.plan.get().is_some());
            assert!(assemble(&sys).bitwise_eq(&first));
            assert_eq!(sorts(), built, "a replay under unchanged tags sorted again");

            // One interior node blanked by hand (on every rank, the mesh
            // is replicated): new graphs, and no plan until they are
            // assembled — which records a new one.
            let n = (0..meshes[1].n_nodes())
                .find(|&n| sys.tags[n] == BcTag::Interior && sys.dm.owner[n] == 0)
                .expect("an interior node owned by rank 0");
            meshes[1].status[n] = NodeStatus::Hole;
            sys.rebuild_graphs(&meshes[1], me);
            assert!(sys.graphs.as_ref().unwrap().continuity.plan.get().is_none());
            let rebuilt = assemble(&sys);
            assert!(sorts() > built, "the new graph was assembled through a stale plan");
            // The blanked row lives on rank 0.
            assert!(me != 0 || !rebuilt.bitwise_eq(&first), "the new Dirichlet row is missing");
        });
    }
}
