//! Per-operation feature extraction — the "reconstructed state vectors" of the paper.
//!
//! EAGLE's Sec. III highlights that the inputs fed to the RL agent were reworked so
//! the agent "better understands the computational graph". Following the paper (and
//! Hierarchical Planner), each op is described by its type, its output shape
//! (log-scaled sizes), and its adjacency information; we additionally encode the
//! training phase and the op's normalized topological position, both of which are
//! strong placement signals in training graphs.

use crate::graph::{OpGraph, ALL_OP_KINDS};

/// Number of features describing the op itself (kind one-hot + phase one-hot +
/// scalar descriptors + hashed name-scope embedding).
pub const BASE_DIM: usize = ALL_OP_KINDS.len() + 3 + 7 + PREFIX_DIM;

/// Width of the hashed name-scope embedding. TensorFlow op names carry the layer
/// structure ("decoder/layer2/t7"); grappler's hierarchical planner exploits exactly
/// this via name-scope colocation groups, so the state vector includes a fixed
/// random projection of the op's name scope (the name up to its last segment, with
/// the `grad/` / `update/` markers stripped so a layer's forward, backward and
/// update ops share scope features while the phase one-hot still separates them).
pub const PREFIX_DIM: usize = 8;

/// Dimension of the adjacency summary appended by [`node_features`]:
/// mean one-hot kind of predecessors and of successors.
pub const ADJ_DIM: usize = 2 * ALL_OP_KINDS.len();

/// Total per-op feature dimension produced by [`node_features`].
pub const FEATURE_DIM: usize = BASE_DIM + ADJ_DIM;

/// Log-compresses a non-negative magnitude into `[0, 1]`.
///
/// `ln(1 + x) / 30` saturates at `x = e^30 - 1` (~1.07e13, i.e. ~10 TB when
/// `x` is bytes or ~10 TFLOP when it is flops). GraphGen's memory-pressure
/// sweeps produce tensors at and past that point, where the unclamped version
/// used to leak features > 1.0 into the policy; the clamp pins the range, and
/// `max(0.0)` additionally maps any negative or NaN input to 0 so one corrupt
/// cost annotation cannot poison a whole feature matrix. Group embeddings
/// (`eagle_nn::embedding`) compress their summed magnitudes through it too.
pub fn log_scale(x: f64) -> f32 {
    (((1.0 + x.max(0.0)).ln() / 30.0).min(1.0)) as f32
}

/// The op's name scope: the name with its final segment removed and phase markers
/// stripped (`grad/decoder/layer2/t7` -> `decoder/layer2`).
fn name_scope(name: &str) -> &str {
    let stripped =
        name.strip_prefix("grad/").or_else(|| name.strip_prefix("update/")).unwrap_or(name);
    match stripped.rfind('/') {
        Some(i) => &stripped[..i],
        None => stripped,
    }
}

/// FxHash-style string hash (deterministic across runs and platforms).
fn fxhash(s: &str) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for &b in s.as_bytes() {
        h = (h.rotate_left(5) ^ b as u64).wrapping_mul(0x517cc1b727220a95);
    }
    h
}

/// Pseudo-random value in [-1, 1] derived from a hash and a lane index
/// (splitmix64 finalizer).
fn splitmix_unit(h: u64, lane: u64) -> f32 {
    let mut z = h.wrapping_add(lane.wrapping_mul(0x9e3779b97f4a7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^= z >> 31;
    (z as f64 / u64::MAX as f64 * 2.0 - 1.0) as f32
}

/// Base features of a single op (no adjacency summary): one-hot kind, one-hot phase,
/// log-scaled flops / output bytes / resident bytes, scaled degrees and topological
/// position in `[0, 1]`.
pub fn base_features(g: &OpGraph, topo_pos: &[usize]) -> Vec<Vec<f32>> {
    let n = g.len();
    let mut out = Vec::with_capacity(n);
    for id in g.ids() {
        let node = g.node(id);
        let mut f = vec![0.0f32; BASE_DIM];
        f[node.kind.feature_index()] = 1.0;
        let phase_idx = match node.phase {
            crate::graph::Phase::Forward => 0,
            crate::graph::Phase::Backward => 1,
            crate::graph::Phase::Update => 2,
        };
        f[ALL_OP_KINDS.len() + phase_idx] = 1.0;
        let s = ALL_OP_KINDS.len() + 3;
        f[s] = log_scale(node.flops);
        f[s + 1] = log_scale(node.out_bytes as f64);
        f[s + 2] = log_scale((node.param_bytes + node.act_bytes) as f64);
        f[s + 3] = (g.preds(id).len() as f32 / 8.0).min(1.0);
        f[s + 4] = (g.succs(id).len() as f32 / 8.0).min(1.0);
        f[s + 5] = topo_pos[id.index()] as f32 / n.max(1) as f32;
        // Creation index: builders emit ops module-by-module, so this encodes which
        // structural unit (layer / block / phase) an op belongs to — information the
        // grouper needs to discover layer-shaped groups.
        f[s + 6] = id.index() as f32 / n.max(1) as f32;
        let scope = name_scope(&node.name);
        let h = fxhash(scope);
        for j in 0..PREFIX_DIM {
            f[s + 7 + j] = splitmix_unit(h, j as u64);
        }
        out.push(f);
    }
    out
}

/// Full per-op feature matrix: base features plus an adjacency summary (the mean
/// one-hot kind vector of predecessors and successors). Row order matches op ids.
pub fn node_features(g: &OpGraph) -> Vec<Vec<f32>> {
    let order = g.topo_order();
    let mut topo_pos = vec![0usize; g.len()];
    for (pos, id) in order.iter().enumerate() {
        topo_pos[id.index()] = pos;
    }
    let base = base_features(g, &topo_pos);
    let nk = ALL_OP_KINDS.len();
    base.into_iter()
        .enumerate()
        .map(|(i, mut f)| {
            let id = crate::graph::OpId(i as u32);
            let mut adj = vec![0.0f32; ADJ_DIM];
            let preds = g.preds(id);
            for &p in preds {
                adj[g.node(p).kind.feature_index()] += 1.0;
            }
            if !preds.is_empty() {
                for a in adj[..nk].iter_mut() {
                    *a /= preds.len() as f32;
                }
            }
            let succs = g.succs(id);
            for &s in succs {
                adj[nk + g.node(s).kind.feature_index()] += 1.0;
            }
            if !succs.is_empty() {
                for a in adj[nk..].iter_mut() {
                    *a /= succs.len() as f32;
                }
            }
            f.extend(adj);
            f
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{OpKind, OpNode, Phase};

    fn tiny() -> OpGraph {
        let mut g = OpGraph::new("tiny");
        let a = g.add_node(OpNode::new("in", OpKind::Input, Phase::Forward).with_out_bytes(100));
        let b = g.add_node(
            OpNode::new("mm", OpKind::MatMul, Phase::Forward).with_flops(1e9).with_out_bytes(400),
        );
        let c = g.add_node(OpNode::new("loss", OpKind::Loss, Phase::Forward));
        g.add_edge(a, b);
        g.add_edge(b, c);
        g
    }

    #[test]
    fn feature_dims_and_onehot() {
        let g = tiny();
        let f = node_features(&g);
        assert_eq!(f.len(), 3);
        for row in &f {
            assert_eq!(row.len(), FEATURE_DIM);
            let onehot_sum: f32 = row[..ALL_OP_KINDS.len()].iter().sum();
            assert_eq!(onehot_sum, 1.0, "exactly one kind bit set");
        }
        assert_eq!(f[1][OpKind::MatMul.feature_index()], 1.0);
    }

    #[test]
    fn features_bounded_and_finite() {
        let g = crate::builders::try_gnmt(&crate::builders::GnmtConfig {
            batch: 4,
            hidden: 8,
            layers: 2,
            seq_len: 3,
            vocab: 50,
        })
        .expect("valid GNMT config");
        for row in node_features(&g) {
            for &v in &row {
                assert!(v.is_finite());
                assert!((-1.0..=8.0).contains(&v), "feature {v} out of expected range");
            }
        }
    }

    #[test]
    fn adjacency_summary_reflects_neighbors() {
        let g = tiny();
        let f = node_features(&g);
        let nk = ALL_OP_KINDS.len();
        // MatMul's predecessor is Input, successor is Loss.
        assert_eq!(f[1][BASE_DIM + OpKind::Input.feature_index()], 1.0);
        assert_eq!(f[1][BASE_DIM + nk + OpKind::Loss.feature_index()], 1.0);
        // Input has no predecessors: its pred summary is all zeros.
        assert!(f[0][BASE_DIM..BASE_DIM + nk].iter().all(|&v| v == 0.0));
    }

    #[test]
    fn topo_position_monotone_on_chain() {
        let g = tiny();
        let order = g.topo_order();
        let mut topo_pos = vec![0usize; g.len()];
        for (pos, id) in order.iter().enumerate() {
            topo_pos[id.index()] = pos;
        }
        let base = base_features(&g, &topo_pos);
        let idx = ALL_OP_KINDS.len() + 3 + 5;
        assert!(base[0][idx] < base[1][idx]);
        assert!(base[1][idx] < base[2][idx]);
    }

    #[test]
    fn log_scale_clamps_extremes() {
        // Saturation point: e^30 bytes. Beyond it the feature pins at 1.0
        // instead of drifting out of range.
        assert!(log_scale(1e12) < 1.0);
        assert_eq!(log_scale(2e13), 1.0);
        assert_eq!(log_scale(f64::MAX), 1.0);
        assert_eq!(log_scale(f64::INFINITY), 1.0);
        // Degenerate inputs map to the floor, never NaN.
        assert_eq!(log_scale(0.0), 0.0);
        assert_eq!(log_scale(-5.0), 0.0);
        assert_eq!(log_scale(f64::NAN), 0.0);
    }

    #[test]
    fn isolated_ops_have_zero_not_nan_adjacency() {
        let mut g = OpGraph::new("isolated");
        g.add_node(OpNode::new("island", OpKind::Const, Phase::Forward));
        let a = g.add_node(OpNode::new("a", OpKind::Input, Phase::Forward));
        let b = g.add_node(OpNode::new("b", OpKind::Loss, Phase::Forward));
        g.add_edge(a, b);
        let f = node_features(&g);
        // The isolated op's whole adjacency summary is exactly zero.
        assert!(f[0][BASE_DIM..].iter().all(|&v| v == 0.0));
        for row in &f {
            assert!(row.iter().all(|v| v.is_finite()));
        }
    }

    /// Every feature stays finite and inside [-1, 1] across a GraphGen sweep
    /// that deliberately spans memory pressures into the e^30-byte saturation
    /// regime — the corpus that first exposed the unclamped log_scale.
    #[test]
    fn features_finite_and_in_range_over_graphgen_sweep() {
        let cfg = crate::graphgen::GraphGenConfig {
            target_ops: 192,
            memory_pressure: (1e-2, 1e9),
            ..crate::graphgen::GraphGenConfig::default()
        };
        let gen = crate::graphgen::GraphGen::new(cfg).unwrap();
        for seed in 0..16 {
            let g = gen.sample(seed);
            for (i, row) in node_features(&g).iter().enumerate() {
                for (j, &v) in row.iter().enumerate() {
                    assert!(v.is_finite(), "seed {seed} op {i} feature {j} = {v}");
                    assert!(
                        (-1.0..=1.0).contains(&v),
                        "seed {seed} op {i} feature {j} = {v} out of [-1, 1]"
                    );
                }
            }
        }
    }

    #[test]
    fn name_scope_features_shared_across_phases() {
        let mut g = OpGraph::new("scopes");
        let a = g.add_node(OpNode::new("decoder/layer2/t7", OpKind::LstmCell, Phase::Forward));
        let b =
            g.add_node(OpNode::new("grad/decoder/layer2/t9", OpKind::LstmCell, Phase::Backward));
        let c = g.add_node(OpNode::new("decoder/layer3/t7", OpKind::LstmCell, Phase::Forward));
        g.add_edge(a, b);
        g.add_edge(a, c);
        let f = node_features(&g);
        let s = ALL_OP_KINDS.len() + 3 + 7;
        // Same scope (layer2) for forward and grad op: identical hash lanes.
        assert_eq!(f[0][s..s + PREFIX_DIM], f[1][s..s + PREFIX_DIM]);
        // Different layer: different hash lanes.
        assert_ne!(f[0][s..s + PREFIX_DIM], f[2][s..s + PREFIX_DIM]);
        // Hash lanes are bounded.
        assert!(f[0][s..s + PREFIX_DIM].iter().all(|v| v.abs() <= 1.0));
    }
}
