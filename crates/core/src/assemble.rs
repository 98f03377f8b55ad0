//! Stages 2 and 3: local and global assembly of the governing equations.
//!
//! Stage 2 ([`fill_momentum`], [`fill_continuity`], [`fill_scalar`])
//! evaluates the edge-based finite-volume coefficients and scatters them
//! into the pattern slots precomputed by the graph stage (§3.2) — the
//! owned/shared COO value arrays and the owned/shared right-hand sides.
//! Momentum and the scalar are one transport system on one graph: the
//! same upwind-diffusion edge stage, time term, Dirichlet identity rows
//! and outflow diagonal, for three components or one. What is momentum's
//! alone is the pressure gradient in its right-hand side, the inflow and
//! wall values, and the actuator-disc sink.
//! Stage 3 ([`try_build_matrix`], [`try_build_rhs`]) runs the paper's
//! Algorithm 1/2 once per graph (once per system, for a right-hand side)
//! to record an assembly plan, and replays that plan — a gather plus one
//! values-only message per neighbour — for this and every later set of
//! values.

use std::sync::OnceLock;

use distmat::{AssemblyPlan, IjVector, ParCsr, ParVector, VectorPlan};
use parcomm::{KernelKind, Rank};
use windmesh::mesh::{Edge, Latent};
use windmesh::{BcKind, Mesh};

use crate::dofmap::DofMap;
use crate::graph::{BcTag, EquationGraph, LocalValues};
use crate::state::{wall_velocity, State};

/// Physical and numerical parameters of the flow model.
#[derive(Clone, Copy, Debug)]
pub struct PhysicsParams {
    /// Time-step size.
    pub dt: f64,
    /// Fluid density ρ.
    pub density: f64,
    /// Dynamic viscosity μ.
    pub viscosity: f64,
    /// Freestream axial velocity.
    pub u_inflow: f64,
    /// Freestream transported turbulent viscosity.
    pub nut_inflow: f64,
    /// Rotor angular speed (rad/s) about +x.
    pub rotor_omega: f64,
    /// Actuator-disc thrust coefficient applied over rotor (annulus)
    /// meshes: the momentum sink that produces the turbine wake
    /// (NREL 5-MW rated Cт ≈ 0.77). Zero disables the disc.
    pub disc_ct: f64,
}

impl Default for PhysicsParams {
    fn default() -> Self {
        PhysicsParams {
            dt: 0.5,
            density: 1.0,
            viscosity: 1e-2,
            u_inflow: 8.0,
            nut_inflow: 1e-4,
            rotor_omega: 1.27, // 12.1 rpm, NREL 5-MW rated
            disc_ct: 0.77,
        }
    }
}

#[inline]
fn dot3(a: [f64; 3], b: [f64; 3]) -> f64 {
    a[0] * b[0] + a[1] * b[1] + a[2] * b[2]
}

/// Face velocity of an edge: the mean of its two nodal velocities.
#[inline]
fn uface(state: &State, edge: &Edge) -> [f64; 3] {
    let (a, b) = (state.vel[edge.a], state.vel[edge.b]);
    [0.5 * (a[0] + b[0]), 0.5 * (a[1] + b[1]), 0.5 * (a[2] + b[2])]
}

/// Edge coefficients `(aa, ab, bb, ba)` of first-order upwind advection
/// with mass flux `mdot` plus diffusion with conductance `dterm`.
#[inline]
fn upwind_diffusion(mdot: f64, dterm: f64) -> [f64; 4] {
    [
        mdot.max(0.0) + dterm,
        mdot.min(0.0) - dterm,
        -mdot.min(0.0) + dterm,
        -mdot.max(0.0) - dterm,
    ]
}

/// Axis point of a rotating (annulus) mesh, `[0,0,0]` otherwise.
pub fn axis_center(mesh: &Mesh) -> [f64; 3] {
    match &mesh.latent {
        Some(Latent::Annulus { center, .. }) => *center,
        _ => [0.0, 0.0, 0.0],
    }
}

/// Stage 2 for the momentum system: one matrix, three right-hand sides.
#[allow(clippy::too_many_arguments)]
pub fn fill_momentum(
    rank: &Rank,
    mesh: &Mesh,
    dm: &DofMap,
    graph: &EquationGraph,
    tags: &[BcTag],
    state: &State,
    params: &PhysicsParams,
    owned_edges: &[usize],
    owned_nodes: &[usize],
    vals: &mut LocalValues,
) -> [IjVector; 3] {
    let fill = rank.kernel("fill_momentum", KernelKind::Stream);
    let mut rhs: [IjVector; 3] = std::array::from_fn(|_| IjVector::new(rank, dm.dist.clone()));
    let rho = params.density;
    let center = axis_center(mesh);

    // Pressure gradient (Green-Gauss face terms into the RHS), in edge
    // order.
    for &e in owned_edges {
        let edge = &mesh.edges[e];
        let pface = 0.5 * (state.p[edge.a] + state.p[edge.b]);
        if !graph.dirichlet[edge.a] {
            IjVector::add_to_each(&mut rhs, dm.gid[edge.a], edge.area_vec.map(|a| -a * pface));
        }
        if !graph.dirichlet[edge.b] {
            IjVector::add_to_each(&mut rhs, dm.gid[edge.b], edge.area_vec.map(|a| a * pface));
        }
    }

    fill_transport(
        mesh,
        dm,
        graph,
        state,
        params,
        owned_edges,
        owned_nodes,
        vals,
        &mut rhs,
        |n| match tags[n] {
            BcTag::Inflow => [params.u_inflow, 0.0, 0.0],
            BcTag::Wall => wall_velocity(mesh.coords[n], center, params.rotor_omega),
            // Fringe values were set by the overset exchange; holes stay frozen.
            _ => state.vel[n],
        },
        |n| state.vel_old[n],
    );

    // Actuator-disc momentum sink on rotor meshes: the drag of the
    // (rigid-blade) rotor on the flow, linearized implicitly as
    // a_ii += ½ ρ Cт |u| V/Δx over a disc window around the rotor plane.
    if params.disc_ct > 0.0 {
        if let Some(Latent::Annulus { xs, .. }) = &mesh.latent {
            let x_lo = xs[0];
            let x_hi = *xs.last().unwrap();
            let x_mid = 0.5 * (x_lo + x_hi);
            let half_thick = 0.2 * (x_hi - x_lo);
            for (k, &n) in owned_nodes.iter().enumerate() {
                if graph.dirichlet[n] || (mesh.coords[n][0] - x_mid).abs() > half_thick {
                    continue;
                }
                let speed = state.vel[n][0].abs();
                let sink = 0.5 * rho * params.disc_ct * speed * mesh.node_volume[n]
                    / (2.0 * half_thick);
                vals.add(graph.diag_slots[k], sink);
            }
        }
    }

    let work = (owned_edges.len() * 16 + owned_nodes.len() * 8) as u64;
    fill.launch(owned_nodes.len(), (work * 8, work * 4));
    rhs
}

/// The stage 2 the transport systems share, for a field of `N`
/// components: the operator into `vals` (reset first) and the node rows
/// of `rhs`. Dirichlet rows are identity rows carrying `bc_value(node)`;
/// every other row gets the time term, with `old_value(node)` on the
/// right-hand side.
#[allow(clippy::too_many_arguments)]
fn fill_transport<const N: usize>(
    mesh: &Mesh,
    dm: &DofMap,
    graph: &EquationGraph,
    state: &State,
    params: &PhysicsParams,
    owned_edges: &[usize],
    owned_nodes: &[usize],
    vals: &mut LocalValues,
    rhs: &mut [IjVector; N],
    bc_value: impl Fn(usize) -> [f64; N],
    old_value: impl Fn(usize) -> [f64; N],
) {
    vals.reset();
    let rho = params.density;

    // Edge stage: advection (first-order upwind) + diffusion. Each edge's
    // coefficient quadruple is a pure function of that edge, so the fill
    // is a parallel map; the plan-driven scatter then sums every slot's
    // contributions in fixed edge order, keeping the assembled values
    // bitwise independent of the thread count (DESIGN.md, "Threading
    // model").
    vals.fill_edges(&graph.scatter, |k| {
        let edge = &mesh.edges[owned_edges[k]];
        let mu_e = params.viscosity + rho * 0.5 * (state.nut[edge.a] + state.nut[edge.b]);
        upwind_diffusion(rho * dot3(edge.area_vec, uface(state, edge)), mu_e * edge.area_over_dist)
    });

    // Node loop: time term or Dirichlet identity rows.
    for (k, &n) in owned_nodes.iter().enumerate() {
        let slot = graph.diag_slots[k];
        if graph.dirichlet[n] {
            vals.set(slot, 1.0);
            IjVector::add_to_each(rhs, dm.gid[n], bc_value(n));
        } else {
            let tcoef = rho * mesh.node_volume[n] / params.dt;
            vals.add(slot, tcoef);
            IjVector::add_to_each(rhs, dm.gid[n], old_value(n).map(|u| tcoef * u));
        }
    }

    // Outflow boundary: the linearized advective outflux `max(ρ A·u, 0)`
    // on the diagonal.
    if let Some(patch) = mesh.boundary(BcKind::Outflow) {
        for &(i, slot) in &graph.outflow_diag {
            let mdot = rho * dot3(patch.normals[i], state.vel[patch.nodes[i]]);
            vals.add(slot, mdot.max(0.0));
        }
    }
}

/// Stage 2 for the pressure-Poisson system: the operator
/// ([`fill_continuity_operator`]) and its right-hand side
/// ([`fill_continuity_rhs`]).
#[allow(clippy::too_many_arguments)]
pub fn fill_continuity(
    rank: &Rank,
    mesh: &Mesh,
    dm: &DofMap,
    graph: &EquationGraph,
    tags: &[BcTag],
    state: &State,
    params: &PhysicsParams,
    owned_edges: &[usize],
    owned_nodes: &[usize],
    vals: &mut LocalValues,
) -> IjVector {
    fill_continuity_operator(rank, mesh, graph, params, owned_edges, owned_nodes, vals);
    fill_continuity_rhs(rank, mesh, dm, graph, tags, state, owned_edges, owned_nodes)
}

/// The pressure-Poisson operator into `vals`: `κ = dt/ρ · area/dist` per
/// edge and identity rows on the pressure-Dirichlet mask. It reads no
/// `State`, and rigid rotor motion leaves `area_over_dist` untouched, so
/// it is a function of `graph` and `dt/ρ` alone (what the Picard driver
/// keys its cached hierarchy on).
pub fn fill_continuity_operator(
    rank: &Rank,
    mesh: &Mesh,
    graph: &EquationGraph,
    params: &PhysicsParams,
    owned_edges: &[usize],
    owned_nodes: &[usize],
    vals: &mut LocalValues,
) {
    let fill = rank.kernel("fill_continuity_operator", KernelKind::Stream);
    vals.reset();
    let kappa_coef = params.dt / params.density;
    // Edge stage (parallel map + order-fixed scatter, as in
    // `fill_momentum`).
    vals.fill_edges(&graph.scatter, |k| {
        let kappa = kappa_coef * mesh.edges[owned_edges[k]].area_over_dist;
        [kappa, -kappa, kappa, -kappa]
    });
    // Dirichlet rows (outflow reference, fringe, hole).
    for (k, &n) in owned_nodes.iter().enumerate() {
        if graph.dirichlet[n] {
            vals.set(graph.diag_slots[k], 1.0);
        }
    }
    let work = (owned_edges.len() * 4 + owned_nodes.len()) as u64;
    fill.launch(owned_nodes.len(), (work * 8, work * 3));
}

/// The pressure-Poisson right-hand side: the divergence of the
/// provisional velocity, and the Dirichlet values.
#[allow(clippy::too_many_arguments)]
pub fn fill_continuity_rhs(
    rank: &Rank,
    mesh: &Mesh,
    dm: &DofMap,
    graph: &EquationGraph,
    tags: &[BcTag],
    state: &State,
    owned_edges: &[usize],
    owned_nodes: &[usize],
) -> IjVector {
    let fill = rank.kernel("fill_continuity_rhs", KernelKind::Stream);
    let mut rhs = IjVector::new(rank, dm.dist.clone());

    // Divergence of the provisional velocity through each dual face.
    for &e in owned_edges {
        let edge = &mesh.edges[e];
        let flux = dot3(edge.area_vec, uface(state, edge));
        if !graph.dirichlet[edge.a] {
            rhs.add_value(dm.gid[edge.a], -flux);
        }
        if !graph.dirichlet[edge.b] {
            rhs.add_value(dm.gid[edge.b], flux);
        }
    }

    // Dirichlet values (outflow reference, fringe, hole).
    for &n in owned_nodes {
        if graph.dirichlet[n] {
            let v = match tags[n] {
                BcTag::Outflow => 0.0,
                _ => state.dp[n], // fringe interpolant / frozen hole
            };
            rhs.add_value(dm.gid[n], v);
        }
    }

    // Open-boundary divergence fluxes (inflow, outflow, wall) so that a
    // divergence-free field yields a zero RHS.
    for patch in &mesh.boundaries {
        if !matches!(patch.kind, BcKind::Inflow | BcKind::Outflow | BcKind::Wall) {
            continue;
        }
        for (&n, &an) in patch.nodes.iter().zip(&patch.normals) {
            // Only the owner assembles the node's boundary flux.
            if graph.dirichlet[n] || dm.owner[n] != rank.rank() {
                continue;
            }
            rhs.add_value(dm.gid[n], -dot3(an, state.vel[n]));
        }
    }

    let work = (owned_edges.len() * 6 + owned_nodes.len() * 3) as u64;
    fill.launch(owned_nodes.len(), (work * 8, work * 3));
    rhs
}

/// Stage 2 for the scalar (turbulent viscosity) transport system.
#[allow(clippy::too_many_arguments)]
pub fn fill_scalar(
    rank: &Rank,
    mesh: &Mesh,
    dm: &DofMap,
    graph: &EquationGraph,
    tags: &[BcTag],
    state: &State,
    params: &PhysicsParams,
    owned_edges: &[usize],
    owned_nodes: &[usize],
    vals: &mut LocalValues,
) -> IjVector {
    let fill = rank.kernel("fill_scalar", KernelKind::Stream);
    let mut rhs = [IjVector::new(rank, dm.dist.clone())];
    fill_transport(
        mesh,
        dm,
        graph,
        state,
        params,
        owned_edges,
        owned_nodes,
        vals,
        &mut rhs,
        |n| match tags[n] {
            BcTag::Inflow => [params.nut_inflow],
            BcTag::Wall => [0.0],
            _ => [state.nut[n]],
        },
        |n| [state.nut_old[n]],
    );
    let work = (owned_edges.len() * 12 + owned_nodes.len() * 4) as u64;
    fill.launch(owned_nodes.len(), (work * 8, work * 3));
    let [rhs] = rhs;
    rhs
}

/// Stage 3 for the matrix. Collective.
pub fn build_matrix(
    rank: &Rank,
    dm: &DofMap,
    graph: &EquationGraph,
    vals: &LocalValues,
) -> ParCsr {
    try_build_matrix(rank, dm, graph, vals).unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible stage-3 assembly: exchange failures and injected coefficient
/// corruption surface as [`resilience::SolveError`] instead of panicking.
/// The first call on a graph runs Algorithm 1 on its pattern to record
/// the graph's [`AssemblyPlan`]; this and every later call replay it.
pub fn try_build_matrix(
    rank: &Rank,
    dm: &DofMap,
    graph: &EquationGraph,
    vals: &LocalValues,
) -> Result<ParCsr, resilience::SolveError> {
    telemetry::counter(
        "assembly.matrix_entries",
        (graph.owned.len() + graph.shared.len()) as u64,
    );
    telemetry::counter("assembly.shared_entries", graph.shared.len() as u64);
    let plan = graph.plan.get_or_init(|| {
        telemetry::counter("assembly.plan_built", 1);
        AssemblyPlan::build(rank, dm.dist.clone(), dm.dist.clone(), &graph.owned, &graph.shared)
    });
    telemetry::counter("assembly.plan_replayed", 1);
    let a = plan.try_assemble(rank, &vals.owned, &vals.shared)?;
    #[cfg(test)]
    oracle::check_matrix(rank, dm, graph, vals, &a);
    Ok(a)
}

/// Stage 3 for a right-hand side filled by one of the `fill_*`
/// functions: Algorithm 2 recorded into `plan` on the first call (the
/// off-rank ids one system's fill emits are a fixed sequence over its
/// graph's cut edges) and replayed on this and every later one.
/// Collective.
pub fn try_build_rhs(
    rank: &Rank,
    plan: &OnceLock<VectorPlan>,
    rhs: IjVector,
) -> Result<ParVector, resilience::SolveError> {
    let plan = plan.get_or_init(|| VectorPlan::build(rank, &rhs));
    #[cfg(test)]
    let fresh = oracle::armed().then(|| rhs.clone().assemble(rank));
    let b = rhs.try_assemble_planned(rank, plan)?;
    #[cfg(test)]
    oracle::check_rhs(fresh, &b);
    Ok(b)
}

/// Losslessness oracle for the crate's tests: while armed on a rank
/// thread, every stage-3 replay is compared, bit for bit, with a
/// from-scratch Algorithm 1/2 of the same inputs.
#[cfg(test)]
pub(crate) mod oracle {
    use super::*;
    use std::cell::Cell;

    thread_local! {
        /// `(matrices, right-hand sides)` checked since arming.
        static CHECKED: Cell<Option<(usize, usize)>> = const { Cell::new(None) };
    }

    pub fn arm() {
        CHECKED.set(Some((0, 0)));
    }

    pub fn armed() -> bool {
        CHECKED.get().is_some()
    }

    /// Disarm and return the `(matrices, right-hand sides)` checked.
    pub fn disarm() -> (usize, usize) {
        CHECKED.take().expect("oracle was armed")
    }

    pub fn check_matrix(
        rank: &Rank,
        dm: &DofMap,
        graph: &EquationGraph,
        vals: &LocalValues,
        replayed: &ParCsr,
    ) {
        let Some((matrices, rhs)) = CHECKED.get() else {
            return;
        };
        let mut ij = distmat::IjMatrix::new(rank, dm.dist.clone(), dm.dist.clone());
        let owned = graph.owned.iter().zip(&vals.owned);
        let shared = graph.shared.iter().zip(&vals.shared);
        owned.chain(shared).for_each(|(&(r, c), &v)| ij.add_value(r, c, v));
        let fresh = ij.try_assemble(rank).expect("Algorithm 1 assembles");
        assert!(replayed.bitwise_eq(&fresh), "replayed matrix differs from Algorithm 1");
        assert_eq!(replayed.comm_pkg(), fresh.comm_pkg(), "replayed halo package differs");
        CHECKED.set(Some((matrices + 1, rhs)));
    }

    pub fn check_rhs(fresh: Option<ParVector>, replayed: &ParVector) {
        let Some(fresh) = fresh else {
            return;
        };
        let bits = |v: &ParVector| v.local.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        assert_eq!(bits(replayed), bits(&fresh), "replayed RHS differs from Algorithm 2");
        let (matrices, rhs) = CHECKED.get().expect("oracle is armed");
        CHECKED.set(Some((matrices, rhs + 1)));
    }
}

/// Projection update after the pressure solve: `u ← u − (dt/ρ)∇(δp)` on
/// interior nodes and `p ← p + δp` (replicated state: plain loops).
/// `grad` is one slot per node, overwritten with the Green-Gauss
/// gradient of `δp`.
pub fn correct_velocity(
    mesh: &Mesh,
    tags: &[BcTag],
    state: &mut State,
    params: &PhysicsParams,
    mom_dirichlet: &[bool],
    grad: &mut [[f64; 3]],
) {
    let n = mesh.n_nodes();
    assert_eq!(grad.len(), n, "one gradient slot per node");
    grad.fill([0.0; 3]);
    for edge in &mesh.edges {
        let pface = 0.5 * (state.dp[edge.a] + state.dp[edge.b]);
        for (c, &av) in edge.area_vec.iter().enumerate() {
            grad[edge.a][c] += av * pface;
            grad[edge.b][c] -= av * pface;
        }
    }
    // Close the dual surfaces at the domain boundary (Green-Gauss needs a
    // closed surface: a constant field must have zero gradient).
    for patch in &mesh.boundaries {
        for (&node, an) in patch.nodes.iter().zip(&patch.normals) {
            for (c, &anc) in an.iter().enumerate() {
                grad[node][c] += anc * state.dp[node];
            }
        }
    }
    let coef = params.dt / params.density;
    for i in 0..n {
        if tags[i] == BcTag::Hole {
            continue;
        }
        if !mom_dirichlet[i] {
            for (c, &gc) in grad[i].iter().enumerate() {
                state.vel[i][c] -= coef * gc / mesh.node_volume[i];
            }
        }
        state.p[i] += state.dp[i];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dofmap::PartitionMethod;
    use crate::graph::{classify_nodes, dirichlet_momentum, dirichlet_pressure, EquationGraph};
    use parcomm::Comm;
    use windmesh::generate::{box_mesh, uniform_spacing, BoxBc};

    struct Setup {
        mesh: Mesh,
        dm: DofMap,
        tags: Vec<BcTag>,
        owned_edges: Vec<usize>,
        owned_nodes: Vec<usize>,
    }

    fn setup(me: usize, nparts: usize) -> Setup {
        let mesh = box_mesh(
            uniform_spacing(0.0, 4.0, 5),
            uniform_spacing(0.0, 2.0, 4),
            uniform_spacing(0.0, 2.0, 4),
            BoxBc::wind_tunnel(),
        );
        let dm = DofMap::build(&mesh, nparts, PartitionMethod::Rcb, 0);
        let tags = classify_nodes(&mesh);
        let owned_edges: Vec<usize> = (0..mesh.edges.len())
            .filter(|&e| dm.owner[mesh.edges[e].a] == me)
            .collect();
        let owned_nodes = dm.owned_nodes(me);
        Setup {
            mesh,
            dm,
            tags,
            owned_edges,
            owned_nodes,
        }
    }

    #[test]
    fn uniform_flow_is_momentum_steady_state() {
        // With u = (u_in, 0, 0) everywhere and p = 0, the assembled
        // momentum system must be satisfied by the current velocity:
        // A·u = b exactly (uniform flow is a steady solution).
        Comm::run(2, |rank| {
            let s = setup(rank.rank(), 2);
            let params = PhysicsParams::default();
            let state = State::cold_start(s.mesh.n_nodes(), params.u_inflow, params.nut_inflow);
            let dir = dirichlet_momentum(&s.tags);
            let g = EquationGraph::build(&s.mesh, &s.dm, rank.rank(), dir, &s.owned_edges, &s.owned_nodes);
            let mut vals = LocalValues::zeros(&g);
            let rhs = fill_momentum(
                rank, &s.mesh, &s.dm, &g, &s.tags, &state, &params,
                &s.owned_edges, &s.owned_nodes, &mut vals,
            );
            let a = build_matrix(rank, &s.dm, &g, &vals);
            let [bx, by, bz] = rhs;
            let bx = bx.assemble(rank).to_serial(rank);
            let by = by.assemble(rank).to_serial(rank);
            let bz = bz.assemble(rank).to_serial(rank);
            let a_serial = a.to_serial(rank);
            // u (in global numbering) = u_inflow everywhere.
            let n = s.mesh.n_nodes();
            let ux = vec![params.u_inflow; n];
            let res = a_serial.spmv(&ux);
            for i in 0..n {
                assert!(
                    (res[i] - bx[i]).abs() < 1e-9 * (1.0 + bx[i].abs()),
                    "x-momentum row {i}: {} vs {}",
                    res[i],
                    bx[i]
                );
            }
            // y and z momenta: A·0 == b must give b == 0.
            for i in 0..n {
                assert!(by[i].abs() < 1e-10, "y rhs {i} = {}", by[i]);
                assert!(bz[i].abs() < 1e-10, "z rhs {i} = {}", bz[i]);
            }
        });
    }

    #[test]
    fn uniform_flow_has_zero_divergence_rhs() {
        Comm::run(2, |rank| {
            let s = setup(rank.rank(), 2);
            let params = PhysicsParams::default();
            let state = State::cold_start(s.mesh.n_nodes(), params.u_inflow, params.nut_inflow);
            let dir = dirichlet_pressure(&s.tags);
            let g = EquationGraph::build(&s.mesh, &s.dm, rank.rank(), dir, &s.owned_edges, &s.owned_nodes);
            let mut vals = LocalValues::zeros(&g);
            let rhs = fill_continuity(
                rank, &s.mesh, &s.dm, &g, &s.tags, &state, &params,
                &s.owned_edges, &s.owned_nodes, &mut vals,
            );
            let b = rhs.assemble(rank).to_serial(rank);
            for (i, v) in b.iter().enumerate() {
                assert!(v.abs() < 1e-10, "divergence rhs {i} = {v}");
            }
        });
    }

    #[test]
    fn pressure_matrix_is_symmetric_m_matrix_inside() {
        Comm::run(1, |rank| {
            let s = setup(0, 1);
            let params = PhysicsParams::default();
            let state = State::cold_start(s.mesh.n_nodes(), params.u_inflow, 0.0);
            let dir = dirichlet_pressure(&s.tags);
            let g = EquationGraph::build(&s.mesh, &s.dm, 0, dir.clone(), &s.owned_edges, &s.owned_nodes);
            let mut vals = LocalValues::zeros(&g);
            let _ = fill_continuity(
                rank, &s.mesh, &s.dm, &g, &s.tags, &state, &params,
                &s.owned_edges, &s.owned_nodes, &mut vals,
            );
            let a = build_matrix(rank, &s.dm, &g, &vals).to_serial(rank);
            for i in 0..a.nrows() {
                let gi = s.dm.gid.iter().position(|&x| x == i as u64).unwrap();
                if dir[gi] {
                    continue;
                }
                let (cols, v) = a.row(i);
                for (&c, &val) in cols.iter().zip(v) {
                    if c == i {
                        assert!(val > 0.0, "diagonal must be positive");
                    } else {
                        assert!(val <= 0.0, "off-diagonal must be ≤ 0");
                        // Symmetric partner exists when both rows interior.
                        let gj = s.dm.gid.iter().position(|&x| x == c as u64).unwrap();
                        if !dir[gj] {
                            assert!((a.get(c, i) - val).abs() < 1e-12);
                        }
                    }
                }
            }
        });
    }

    #[test]
    fn correction_zeroes_uniform_dp_gradient() {
        // A constant pressure correction has zero gradient: velocity
        // unchanged, pressure incremented.
        let s = setup(0, 1);
        let params = PhysicsParams::default();
        let mut state = State::cold_start(s.mesh.n_nodes(), 3.0, 0.0);
        for v in &mut state.dp {
            *v = 7.5;
        }
        let dir = dirichlet_momentum(&s.tags);
        let vel0 = state.vel.clone();
        let mut grad = vec![[f64::NAN; 3]; s.mesh.n_nodes()];
        correct_velocity(&s.mesh, &s.tags, &mut state, &params, &dir, &mut grad);
        for (i, v0) in vel0.iter().enumerate() {
            assert_eq!(state.vel[i], *v0, "constant dp moved velocity");
            assert!((state.p[i] - 7.5).abs() < 1e-12);
        }
    }

    #[test]
    fn dirichlet_rows_are_identity_with_bc_values() {
        Comm::run(1, |rank| {
            let s = setup(0, 1);
            let params = PhysicsParams::default();
            let state = State::cold_start(s.mesh.n_nodes(), params.u_inflow, params.nut_inflow);
            let dir = dirichlet_momentum(&s.tags);
            let g = EquationGraph::build(&s.mesh, &s.dm, 0, dir.clone(), &s.owned_edges, &s.owned_nodes);
            let mut vals = LocalValues::zeros(&g);
            let rhs = fill_momentum(
                rank, &s.mesh, &s.dm, &g, &s.tags, &state, &params,
                &s.owned_edges, &s.owned_nodes, &mut vals,
            );
            let a = build_matrix(rank, &s.dm, &g, &vals).to_serial(rank);
            let [bx, _, _] = rhs;
            let bx = bx.assemble(rank).to_serial(rank);
            for (n, &dn) in dir.iter().enumerate() {
                if dn {
                    let gi = s.dm.gid[n] as usize;
                    let (cols, v) = a.row(gi);
                    assert_eq!(cols, &[gi]);
                    assert_eq!(v, &[1.0]);
                    if s.tags[n] == BcTag::Inflow {
                        assert_eq!(bx[gi], params.u_inflow);
                    }
                }
            }
        });
    }

    #[test]
    fn scalar_system_solves_to_freestream() {
        // Uniform advection of nut with uniform inflow: the assembled
        // system is satisfied by the freestream value.
        Comm::run(1, |rank| {
            let s = setup(0, 1);
            let params = PhysicsParams::default();
            let state = State::cold_start(s.mesh.n_nodes(), params.u_inflow, params.nut_inflow);
            let dir = dirichlet_momentum(&s.tags);
            let g = EquationGraph::build(&s.mesh, &s.dm, 0, dir, &s.owned_edges, &s.owned_nodes);
            let mut vals = LocalValues::zeros(&g);
            let rhs = fill_scalar(
                rank, &s.mesh, &s.dm, &g, &s.tags, &state, &params,
                &s.owned_edges, &s.owned_nodes, &mut vals,
            );
            let a = build_matrix(rank, &s.dm, &g, &vals).to_serial(rank);
            let b = rhs.assemble(rank).to_serial(rank);
            let n = s.mesh.n_nodes();
            let x = vec![params.nut_inflow; n];
            let res = a.spmv(&x);
            for i in 0..n {
                assert!(
                    (res[i] - b[i]).abs() < 1e-9 * (1.0 + b[i].abs()),
                    "scalar row {i}"
                );
            }
        });
    }

    #[test]
    fn assembly_identical_across_rank_counts() {
        let mut gathered: Vec<(Vec<Vec<f64>>, Vec<f64>)> = Vec::new();
        for p in [1, 2, 3] {
            let out = Comm::run(p, move |rank| {
                let s = setup(rank.rank(), rank.size());
                let params = PhysicsParams::default();
                let mut state =
                    State::cold_start(s.mesh.n_nodes(), params.u_inflow, params.nut_inflow);
                // Perturb the state deterministically so the matrix is
                // nontrivial.
                for (i, v) in state.vel.iter_mut().enumerate() {
                    v[1] = (i as f64 * 0.37).sin();
                    v[2] = (i as f64 * 0.11).cos() * 0.5;
                }
                let dir = dirichlet_momentum(&s.tags);
                let g = EquationGraph::build(
                    &s.mesh, &s.dm, rank.rank(), dir, &s.owned_edges, &s.owned_nodes,
                );
                let mut vals = LocalValues::zeros(&g);
                let rhs = fill_momentum(
                    rank, &s.mesh, &s.dm, &g, &s.tags, &state, &params,
                    &s.owned_edges, &s.owned_nodes, &mut vals,
                );
                let a = build_matrix(rank, &s.dm, &g, &vals).to_serial(rank);
                let [bx, _, _] = rhs;
                let bx = bx.assemble(rank).to_serial(rank);
                // Convert to node ordering (gid-independent comparison).
                let n = s.mesh.n_nodes();
                let mut dense = vec![vec![0.0; n]; n];
                for (i, row) in dense.iter_mut().enumerate() {
                    for (j, dij) in row.iter_mut().enumerate() {
                        *dij = a.get(s.dm.gid[i] as usize, s.dm.gid[j] as usize);
                    }
                }
                let b_nodes: Vec<f64> = (0..n).map(|i| bx[s.dm.gid[i] as usize]).collect();
                (dense, b_nodes)
            });
            gathered.push(out[0].clone());
        }
        for (dense, b) in &gathered[1..] {
            for (ra, rb) in dense.iter().zip(&gathered[0].0) {
                for (x, y) in ra.iter().zip(rb) {
                    assert!((x - y).abs() < 1e-12, "matrix differs across rank counts");
                }
            }
            for (x, y) in b.iter().zip(&gathered[0].1) {
                assert!((x - y).abs() < 1e-12, "rhs differs across rank counts");
            }
        }
    }
}
