//! Undirected weighted graphs in adjacency (CSR) form.

/// Undirected graph with vertex and edge weights, stored like METIS:
/// `xadj`/`adjncy` adjacency CSR, `vwgt` vertex weights, `adjwgt` edge
/// weights parallel to `adjncy`.
///
/// Invariant: the adjacency is symmetric (if `j ∈ adj(i)` then
/// `i ∈ adj(j)` with the same weight) and has no self loops.
#[derive(Clone, Debug)]
pub struct Graph {
    xadj: Vec<usize>,
    adjncy: Vec<usize>,
    vwgt: Vec<f64>,
    adjwgt: Vec<f64>,
}

impl Graph {
    /// Build from an edge list (each undirected edge listed once).
    ///
    /// # Panics
    ///
    /// Panics on self loops or out-of-range endpoints.
    pub fn from_edges(nv: usize, edges: &[(usize, usize, f64)], vwgt: Vec<f64>) -> Self {
        assert_eq!(vwgt.len(), nv, "vertex weight length mismatch");
        let mut counts = vec![0usize; nv];
        for &(u, v, _) in edges {
            assert!(u < nv && v < nv, "edge endpoint out of range");
            assert_ne!(u, v, "self loop");
            counts[u] += 1;
            counts[v] += 1;
        }
        let mut xadj = vec![0usize; nv + 1];
        for i in 0..nv {
            xadj[i + 1] = xadj[i] + counts[i];
        }
        let mut next = xadj.clone();
        let mut adjncy = vec![0usize; 2 * edges.len()];
        let mut adjwgt = vec![0.0; 2 * edges.len()];
        for &(u, v, w) in edges {
            adjncy[next[u]] = v;
            adjwgt[next[u]] = w;
            next[u] += 1;
            adjncy[next[v]] = u;
            adjwgt[next[v]] = w;
            next[v] += 1;
        }
        Graph {
            xadj,
            adjncy,
            vwgt,
            adjwgt,
        }
    }

    /// Build with unit vertex weights.
    pub fn from_edges_unit(nv: usize, edges: &[(usize, usize, f64)]) -> Self {
        Self::from_edges(nv, edges, vec![1.0; nv])
    }

    /// Number of vertices.
    pub fn nv(&self) -> usize {
        self.vwgt.len()
    }

    /// Neighbors of `u` with edge weights.
    pub fn neighbors(&self, u: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let range = self.xadj[u]..self.xadj[u + 1];
        self.adjncy[range.clone()]
            .iter()
            .copied()
            .zip(self.adjwgt[range].iter().copied())
    }

    /// Vertex weights.
    pub fn vwgt(&self) -> &[f64] {
        &self.vwgt
    }

    /// Total vertex weight.
    pub fn total_vwgt(&self) -> f64 {
        self.vwgt.iter().sum()
    }

    /// Degree of `u`.
    pub fn degree(&self, u: usize) -> usize {
        self.xadj[u + 1] - self.xadj[u]
    }

    /// Sum of edge weights crossing the partition.
    pub fn edge_cut(&self, part: &[usize]) -> f64 {
        assert_eq!(part.len(), self.nv(), "partition length mismatch");
        let mut cut = 0.0;
        for u in 0..self.nv() {
            for (v, w) in self.neighbors(u) {
                if part[u] != part[v] {
                    cut += w;
                }
            }
        }
        cut / 2.0
    }

    /// Number of connected components among vertices assigned to `p`.
    pub fn components_in_part(&self, part: &[usize], p: usize) -> usize {
        let mut seen = vec![false; self.nv()];
        let mut count = 0;
        for start in 0..self.nv() {
            if part[start] != p || seen[start] {
                continue;
            }
            count += 1;
            let mut stack = vec![start];
            seen[start] = true;
            while let Some(u) = stack.pop() {
                for (v, _) in self.neighbors(u) {
                    if part[v] == p && !seen[v] {
                        seen[v] = true;
                        stack.push(v);
                    }
                }
            }
        }
        count
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 0 - 1 - 2 - 3 path.
    fn path4() -> Graph {
        Graph::from_edges_unit(4, &[(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
    }

    #[test]
    fn adjacency_is_symmetric() {
        let g = path4();
        assert_eq!(g.nv(), 4);
        assert_eq!(g.adjncy.len(), 2 * 3);
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(1), 2);
        let n1: Vec<usize> = g.neighbors(1).map(|(v, _)| v).collect();
        assert!(n1.contains(&0) && n1.contains(&2));
    }

    #[test]
    fn edge_cut_counts_crossings_once() {
        let g = path4();
        assert_eq!(g.edge_cut(&[0, 0, 1, 1]), 1.0);
        assert_eq!(g.edge_cut(&[0, 1, 0, 1]), 3.0);
        assert_eq!(g.edge_cut(&[0, 0, 0, 0]), 0.0);
    }

    #[test]
    fn weighted_cut() {
        let g = Graph::from_edges_unit(3, &[(0, 1, 2.5), (1, 2, 1.0)]);
        assert_eq!(g.edge_cut(&[0, 0, 1]), 1.0);
        assert_eq!(g.edge_cut(&[0, 1, 1]), 2.5);
    }

    #[test]
    fn components_detects_slivers() {
        // Path 0-1-2-3; assigning {0, 3} to part 0 gives two components
        // (the "disconnected sliver" pathology of the paper's Fig. 4).
        let g = path4();
        assert_eq!(g.components_in_part(&[0, 1, 1, 0], 0), 2);
        assert_eq!(g.components_in_part(&[0, 1, 1, 0], 1), 1);
        assert_eq!(g.components_in_part(&[0, 0, 0, 0], 1), 0);
    }

    #[test]
    #[should_panic(expected = "self loop")]
    fn self_loops_rejected() {
        Graph::from_edges_unit(2, &[(1, 1, 1.0)]);
    }
}
