//! Group-embedding construction for *hard* groupings (heuristic groupers, the
//! Hierarchical Planner baseline, and the fixed-grouping placer study of Table II).
//!
//! Following the paper (Sec. III-C): "a group embedding consists of three parts: the
//! number of operations of each operation type in the group, the output shapes, and
//! the adjacency information of the group", aggregated exactly as in Hierarchical
//! Planner. The adjacency part is a `k`-dimensional connectivity indicator, so the
//! embedding dimension is [`group_feature_dim`]`(k)`.

use eagle_opgraph::features::log_scale;
use eagle_opgraph::{OpGraph, Phase, ALL_OP_KINDS};
use eagle_tensor::Tensor;

/// Number of scalar descriptors beyond the op-kind counts and adjacency block.
const EXTRA: usize = 7;

/// Dimension of a group-embedding row for `k` groups.
pub fn group_feature_dim(k: usize) -> usize {
    ALL_OP_KINDS.len() + EXTRA + k
}

/// Builds the `(k, group_feature_dim(k))` group-embedding matrix for a hard
/// assignment `group_of` (one entry per op, values in `0..k`).
pub fn group_features(graph: &OpGraph, group_of: &[usize], k: usize) -> Tensor {
    assert_eq!(group_of.len(), graph.len(), "one group per op");
    let nk = ALL_OP_KINDS.len();
    let dim = group_feature_dim(k);
    let mut out = Tensor::zeros(k, dim);

    let order = graph.topo_order();
    let mut topo_pos = vec![0usize; graph.len()];
    for (pos, id) in order.iter().enumerate() {
        topo_pos[id.index()] = pos;
    }

    // Raw accumulators.
    let mut flops = vec![0.0f64; k];
    let mut out_bytes = vec![0.0f64; k];
    let mut mem = vec![0.0f64; k];
    let mut count = vec![0.0f32; k];
    let mut pos_sum = vec![0.0f64; k];
    let mut bwd = vec![0.0f32; k];
    let mut upd = vec![0.0f32; k];

    for id in graph.ids() {
        let g = group_of[id.index()];
        assert!(g < k, "group index {g} out of range");
        let node = graph.node(id);
        let cur = out.get(g, node.kind.feature_index());
        out.set(g, node.kind.feature_index(), cur + 1.0);
        flops[g] += node.flops;
        out_bytes[g] += node.out_bytes as f64;
        mem[g] += (node.param_bytes + node.act_bytes) as f64;
        count[g] += 1.0;
        pos_sum[g] += topo_pos[id.index()] as f64 / graph.len().max(1) as f64;
        match node.phase {
            Phase::Backward => bwd[g] += 1.0,
            Phase::Update => upd[g] += 1.0,
            Phase::Forward => {}
        }
    }

    for g in 0..k {
        // Log-scale the op-kind counts so huge groups don't saturate.
        for j in 0..nk {
            let c = out.get(g, j);
            out.set(g, j, (1.0 + c).ln());
        }
        let s = nk;
        out.set(g, s, log_scale(flops[g]));
        out.set(g, s + 1, log_scale(out_bytes[g]));
        out.set(g, s + 2, log_scale(mem[g]));
        out.set(g, s + 3, (1.0 + count[g]).ln() / 10.0);
        let mean_pos = if count[g] > 0.0 { (pos_sum[g] / count[g] as f64) as f32 } else { 0.0 };
        out.set(g, s + 4, mean_pos);
        out.set(g, s + 5, if count[g] > 0.0 { bwd[g] / count[g] } else { 0.0 });
        out.set(g, s + 6, if count[g] > 0.0 { upd[g] / count[g] } else { 0.0 });
    }

    // Adjacency block: 1 when two groups share an edge (either direction).
    for (u, v) in graph.edges() {
        let (gu, gv) = (group_of[u.index()], group_of[v.index()]);
        if gu != gv {
            out.set(gu, nk + EXTRA + gv, 1.0);
            out.set(gv, nk + EXTRA + gu, 1.0);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use eagle_opgraph::{OpKind, OpNode};

    fn tiny() -> OpGraph {
        let mut g = OpGraph::new("t");
        let a = g.add_node(
            OpNode::new("a", OpKind::MatMul, Phase::Forward).with_flops(1e6).with_out_bytes(64),
        );
        let b = g.add_node(OpNode::new("b", OpKind::MatMul, Phase::Forward).with_flops(2e6));
        let c = g.add_node(OpNode::new("c", OpKind::Loss, Phase::Backward));
        g.add_edge(a, b);
        g.add_edge(b, c);
        g
    }

    #[test]
    fn shapes_and_counts() {
        let g = tiny();
        let f = group_features(&g, &[0, 0, 1], 2);
        assert_eq!(f.shape(), (2, group_feature_dim(2)));
        // Group 0 has two MatMuls: ln(3).
        let mm = OpKind::MatMul.feature_index();
        assert!((f.get(0, mm) - 3.0f32.ln()).abs() < 1e-6);
        assert_eq!(f.get(1, mm), 0.0f32.max((1.0f32).ln()));
        // Backward fraction: group 1 is 100% backward ops.
        let s = ALL_OP_KINDS.len();
        assert_eq!(f.get(1, s + 5), 1.0);
        assert_eq!(f.get(0, s + 5), 0.0);
    }

    #[test]
    fn adjacency_block_symmetric() {
        let g = tiny();
        let f = group_features(&g, &[0, 0, 1], 2);
        let base = ALL_OP_KINDS.len() + EXTRA;
        assert_eq!(f.get(0, base + 1), 1.0, "group 0 touches group 1");
        assert_eq!(f.get(1, base), 1.0, "group 1 touches group 0");
        assert_eq!(f.get(0, base), 0.0, "no self edge recorded");
    }

    #[test]
    fn empty_groups_are_zero_rows() {
        let g = tiny();
        let f = group_features(&g, &[0, 0, 0], 3);
        for j in 0..group_feature_dim(3) {
            assert_eq!(f.get(2, j), 0.0);
        }
    }

    #[test]
    fn features_finite_on_real_graph() {
        let g = eagle_opgraph::builders::try_gnmt(&eagle_opgraph::builders::GnmtConfig {
            batch: 4,
            hidden: 8,
            layers: 2,
            seq_len: 4,
            vocab: 64,
        })
        .expect("valid GNMT config");
        let k = 8;
        let group_of: Vec<usize> = (0..g.len()).map(|i| i % k).collect();
        let f = group_features(&g, &group_of, k);
        assert!(f.all_finite());
        assert!(f.norm() > 0.0);
    }

    /// Regression: groups summing tensors past e^30 bytes used to emit
    /// magnitude features > 1.0. The clamp pins them at exactly 1.0 and keeps
    /// every entry finite, even across a high-memory-pressure GraphGen sweep.
    #[test]
    fn magnitude_features_clamped_at_saturation() {
        assert_eq!(log_scale(1e300), 1.0);
        assert_eq!(log_scale(f64::NAN), 0.0);

        let cfg = eagle_opgraph::GraphGenConfig {
            target_ops: 128,
            memory_pressure: (1e6, 1e9),
            ..eagle_opgraph::GraphGenConfig::default()
        };
        let gen = eagle_opgraph::GraphGen::new(cfg).unwrap();
        for seed in 0..4 {
            let g = gen.sample(seed);
            let k = 6;
            let group_of: Vec<usize> = (0..g.len()).map(|i| i % k).collect();
            let f = group_features(&g, &group_of, k);
            assert!(f.all_finite());
            let s = ALL_OP_KINDS.len();
            for grp in 0..k {
                for j in 0..3 {
                    let v = f.get(grp, s + j);
                    assert!((0.0..=1.0).contains(&v), "seed {seed} group {grp} mag {j} = {v}");
                }
            }
        }
    }
}
