//! # eagle-partition
//!
//! Graph-partitioning heuristics used as *grouper* baselines in the paper's Sec. III-B
//! (Table I / Fig. 2): a METIS-style multilevel k-way partitioner and the asynchronous
//! fluid-communities algorithm from NetworkX.
//!
//! Both consume an [`eagle_opgraph::OpGraph`] viewed as an undirected
//! weighted graph — edge weight is the bytes transferred between the two ops, node
//! weight is the op's FLOPs — and both minimize edge cut under a balance constraint,
//! which is exactly how the paper wires them into the hierarchical model in place of
//! the learned feed-forward grouper.

#![warn(missing_docs)]

pub mod fluid;
pub mod metis_like;
pub mod metrics;

use eagle_opgraph::OpGraph;

/// A grouping algorithm: assigns each op to one of `k` groups.
pub trait Partitioner {
    /// Partitions `graph` into at most `k` groups. The returned vector has one
    /// entry per op, each in `0..k`. Implementations must be deterministic for a
    /// fixed seed.
    fn partition(&self, graph: &OpGraph, k: usize) -> Vec<usize>;
}

/// Undirected weighted view of an op graph, shared by the partitioners.
#[derive(Debug, Clone)]
pub struct WeightedGraph {
    /// Per-node weight (FLOPs, floored to 1 so balance is meaningful).
    pub node_weight: Vec<f64>,
    /// Adjacency: `(neighbor, edge_weight)` per node; both directions present.
    pub adj: Vec<Vec<(usize, f64)>>,
}

impl WeightedGraph {
    /// Builds the undirected view of an [`OpGraph`]. Edge weight is the producer's
    /// output bytes (+1 so zero-byte control edges still bind); parallel edges
    /// merge by summing.
    pub fn from_op_graph(g: &OpGraph) -> Self {
        let n = g.len();
        let node_weight: Vec<f64> = g.nodes().iter().map(|nd| nd.flops.max(1.0)).collect();
        let mut adj: Vec<std::collections::HashMap<usize, f64>> =
            vec![std::collections::HashMap::new(); n];
        for (u, v) in g.edges() {
            let w = g.node(u).out_bytes as f64 + 1.0;
            *adj[u.index()].entry(v.index()).or_insert(0.0) += w;
            *adj[v.index()].entry(u.index()).or_insert(0.0) += w;
        }
        Self {
            node_weight,
            adj: adj
                .into_iter()
                .map(|m| {
                    let mut v: Vec<(usize, f64)> = m.into_iter().collect();
                    v.sort_unstable_by_key(|&(i, _)| i);
                    v
                })
                .collect(),
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.node_weight.len()
    }

    /// True when the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.node_weight.is_empty()
    }

    /// Total node weight.
    pub fn total_weight(&self) -> f64 {
        self.node_weight.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eagle_opgraph::{OpKind, OpNode, Phase};

    #[test]
    fn weighted_view_symmetric() {
        let mut g = OpGraph::new("t");
        let a = g.add_node(
            OpNode::new("a", OpKind::MatMul, Phase::Forward).with_flops(10.0).with_out_bytes(99),
        );
        let b = g.add_node(OpNode::new("b", OpKind::MatMul, Phase::Forward));
        g.add_edge(a, b);
        let w = WeightedGraph::from_op_graph(&g);
        assert_eq!(w.len(), 2);
        assert_eq!(w.adj[0], vec![(1, 100.0)]);
        assert_eq!(w.adj[1], vec![(0, 100.0)]);
        assert_eq!(w.node_weight[0], 10.0);
        assert_eq!(w.node_weight[1], 1.0, "zero flops floored to 1");
    }
}
