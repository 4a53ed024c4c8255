//! Core computational-graph representation.
//!
//! An [`OpGraph`] is a DAG of operations annotated with the metadata the placement
//! problem needs: per-op compute cost (FLOPs), output tensor size (communication
//! cost when producer and consumer sit on different devices), and persistent /
//! transient memory footprints (OOM constraints).

use serde::{Deserialize, Serialize};

/// Why a graph edit or query could not be satisfied.
///
/// The panicking entry points ([`OpGraph::add_edge`], [`OpGraph::topo_order`])
/// remain for builder code whose inputs are correct by construction; generators
/// and anything consuming untrusted or randomized structure should use the
/// `try_` variants and [`OpGraph::validate`], which report these typed errors
/// instead of panicking.
#[derive(Debug, Clone, PartialEq)]
pub enum GraphError {
    /// An edge endpoint does not name a node of this graph.
    NodeOutOfRange {
        /// The offending id.
        op: OpId,
        /// Number of nodes in the graph.
        len: usize,
    },
    /// An edge would connect an op to itself.
    SelfLoop {
        /// The op on both ends.
        op: OpId,
    },
    /// The graph contains a directed cycle.
    Cycle,
    /// The graph has no operations.
    Empty,
    /// An op carries a non-finite or negative cost annotation.
    BadCost {
        /// The offending op.
        op: OpId,
        /// Which annotation was bad (`"flops"`).
        what: &'static str,
    },
    /// A generator or builder configuration is unusable (zero-width layer,
    /// zero motif weights, empty ranges, ...). The message names the field.
    BadConfig(String),
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::NodeOutOfRange { op, len } => {
                write!(f, "op id {} out of range for a graph of {len} nodes", op.0)
            }
            GraphError::SelfLoop { op } => write!(f, "self-loop on op id {}", op.0),
            GraphError::Cycle => write!(f, "graph contains a cycle"),
            GraphError::Empty => write!(f, "graph has no operations"),
            GraphError::BadCost { op, what } => {
                write!(f, "op id {} has a non-finite or negative {what}", op.0)
            }
            GraphError::BadConfig(msg) => write!(f, "bad graph configuration: {msg}"),
        }
    }
}

impl std::error::Error for GraphError {}

/// Identifier of an operation inside one [`OpGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct OpId(pub u32);

impl OpId {
    /// Index form for slicing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The kind of computation an operation performs.
///
/// The set mirrors what TensorFlow graphs of the three benchmark models contain,
/// fused to the granularity placement papers operate at (e.g. one `LstmCell` op per
/// timestep rather than its dozen constituent matmuls).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OpKind {
    /// Input pipeline / data feed.
    Input,
    /// Trainable variable (weight read).
    Variable,
    /// Constant tensor.
    Const,
    /// 2-D convolution.
    Conv2d,
    /// Dense matrix multiply / fully-connected layer.
    MatMul,
    /// Fused LSTM cell step.
    LstmCell,
    /// Embedding table lookup (gather) — notoriously CPU-friendly.
    Embedding,
    /// Attention score + context computation.
    Attention,
    /// Batch normalization.
    BatchNorm,
    /// Layer normalization.
    LayerNorm,
    /// Pooling (max/avg).
    Pool,
    /// Element-wise activation (ReLU/GELU/tanh/sigmoid).
    Activation,
    /// Softmax (including large vocab projections' normalization).
    Softmax,
    /// Cross-entropy / loss computation.
    Loss,
    /// Element-wise arithmetic (residual adds, scaling, dropout masks).
    Elementwise,
    /// Concatenation of tensors.
    Concat,
    /// Split / slice of tensors.
    Split,
    /// Shape-only manipulation (reshape/transpose) — nearly free compute.
    Reshape,
    /// Reduction (sum/mean over axes).
    Reduce,
    /// Gradient-aggregation op (backward-pass accumulation).
    GradAccum,
    /// Optimizer update (Adam/SGD apply).
    ApplyUpdate,
}

/// All op kinds, in feature-encoding order.
pub const ALL_OP_KINDS: [OpKind; 21] = [
    OpKind::Input,
    OpKind::Variable,
    OpKind::Const,
    OpKind::Conv2d,
    OpKind::MatMul,
    OpKind::LstmCell,
    OpKind::Embedding,
    OpKind::Attention,
    OpKind::BatchNorm,
    OpKind::LayerNorm,
    OpKind::Pool,
    OpKind::Activation,
    OpKind::Softmax,
    OpKind::Loss,
    OpKind::Elementwise,
    OpKind::Concat,
    OpKind::Split,
    OpKind::Reshape,
    OpKind::Reduce,
    OpKind::GradAccum,
    OpKind::ApplyUpdate,
];

impl OpKind {
    /// Stable index of this kind within [`ALL_OP_KINDS`] (one-hot feature position).
    ///
    /// Infallible invariant: every `OpKind` variant appears in [`ALL_OP_KINDS`]
    /// (`op_kind_feature_indices_unique` exhaustively pins this), so the
    /// `expect` below is unreachable for any value of `self`.
    pub fn feature_index(self) -> usize {
        ALL_OP_KINDS.iter().position(|&k| k == self).expect("kind present in ALL_OP_KINDS")
    }

    /// True for ops that run efficiently on a CPU (or must run there), such as the
    /// input pipeline and embedding gathers. The paper observes RL agents learn to
    /// move exactly these ops to the CPU (Sec. IV-D, Inception analysis).
    pub fn cpu_friendly(self) -> bool {
        matches!(self, OpKind::Input | OpKind::Embedding | OpKind::Reshape | OpKind::Const)
    }
}

/// Which training phase an op belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Phase {
    /// Forward pass.
    Forward,
    /// Backward (gradient) pass.
    Backward,
    /// Parameter update.
    Update,
}

/// One operation in the computational graph.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OpNode {
    /// Human-readable name (`"layer3/conv2d"`, mirroring TF naming).
    pub name: String,
    /// Kind of computation.
    pub kind: OpKind,
    /// Training phase.
    pub phase: Phase,
    /// Floating-point operations per training step.
    pub flops: f64,
    /// Bytes of the output tensor (transferred to each consumer on another device).
    pub out_bytes: u64,
    /// Persistent bytes (weights + optimizer slots) resident on the op's device.
    pub param_bytes: u64,
    /// Transient activation bytes live while the step executes.
    pub act_bytes: u64,
    /// TensorFlow-style co-location hint: ops sharing a group id are expected to sit
    /// on one device (e.g. a variable and its update op).
    pub colocation: Option<u32>,
}

impl OpNode {
    /// Creates a node with the given name/kind/phase and zeroed costs.
    pub fn new(name: impl Into<String>, kind: OpKind, phase: Phase) -> Self {
        Self {
            name: name.into(),
            kind,
            phase,
            flops: 0.0,
            out_bytes: 0,
            param_bytes: 0,
            act_bytes: 0,
            colocation: None,
        }
    }

    /// Builder-style FLOPs setter.
    pub fn with_flops(mut self, flops: f64) -> Self {
        self.flops = flops;
        self
    }

    /// Builder-style output-size setter.
    pub fn with_out_bytes(mut self, bytes: u64) -> Self {
        self.out_bytes = bytes;
        self
    }

    /// Builder-style parameter-memory setter.
    pub fn with_param_bytes(mut self, bytes: u64) -> Self {
        self.param_bytes = bytes;
        self
    }

    /// Builder-style activation-memory setter.
    pub fn with_act_bytes(mut self, bytes: u64) -> Self {
        self.act_bytes = bytes;
        self
    }

    /// Builder-style co-location setter.
    pub fn with_colocation(mut self, group: u32) -> Self {
        self.colocation = Some(group);
        self
    }
}

/// A directed acyclic computational graph.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct OpGraph {
    /// Model name (`"inception_v3"`, `"gnmt"`, `"bert_base"`, ...).
    pub model_name: String,
    nodes: Vec<OpNode>,
    /// Successor adjacency, parallel to `nodes`.
    succs: Vec<Vec<OpId>>,
    /// Predecessor adjacency, parallel to `nodes`.
    preds: Vec<Vec<OpId>>,
}

impl OpGraph {
    /// Creates an empty graph with the given model name.
    pub fn new(model_name: impl Into<String>) -> Self {
        Self { model_name: model_name.into(), ..Default::default() }
    }

    /// Adds a node, returning its id.
    pub fn add_node(&mut self, node: OpNode) -> OpId {
        self.nodes.push(node);
        self.succs.push(Vec::new());
        self.preds.push(Vec::new());
        OpId(self.nodes.len() as u32 - 1)
    }

    /// Adds a directed edge `from -> to` (producer to consumer). Duplicate edges
    /// are ignored.
    ///
    /// # Panics
    /// Panics on self-loops or out-of-range ids — builder code constructs ids
    /// by insertion, so either indicates a builder bug. Randomized callers
    /// should use [`OpGraph::try_add_edge`] instead.
    pub fn add_edge(&mut self, from: OpId, to: OpId) {
        self.try_add_edge(from, to).unwrap_or_else(|e| panic!("add_edge({from:?}, {to:?}): {e}"));
    }

    /// Adds a directed edge `from -> to`, reporting self-loops and out-of-range
    /// endpoints as typed [`GraphError`]s instead of panicking. Duplicate edges
    /// are ignored.
    pub fn try_add_edge(&mut self, from: OpId, to: OpId) -> Result<(), GraphError> {
        let len = self.nodes.len();
        for op in [from, to] {
            if op.index() >= len {
                return Err(GraphError::NodeOutOfRange { op, len });
            }
        }
        if from == to {
            return Err(GraphError::SelfLoop { op: from });
        }
        if self.succs[from.index()].contains(&to) {
            return Ok(());
        }
        self.succs[from.index()].push(to);
        self.preds[to.index()].push(from);
        Ok(())
    }

    /// Number of operations.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the graph has no operations.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Number of directed edges.
    pub fn num_edges(&self) -> usize {
        self.succs.iter().map(Vec::len).sum()
    }

    /// Node accessor.
    pub fn node(&self, id: OpId) -> &OpNode {
        &self.nodes[id.index()]
    }

    /// Mutable node accessor.
    pub fn node_mut(&mut self, id: OpId) -> &mut OpNode {
        &mut self.nodes[id.index()]
    }

    /// All node ids in insertion order.
    pub fn ids(&self) -> impl Iterator<Item = OpId> + '_ {
        (0..self.nodes.len() as u32).map(OpId)
    }

    /// All nodes in insertion order.
    pub fn nodes(&self) -> &[OpNode] {
        &self.nodes
    }

    /// Successors (consumers) of an op.
    pub fn succs(&self, id: OpId) -> &[OpId] {
        &self.succs[id.index()]
    }

    /// Predecessors (producers) of an op.
    pub fn preds(&self, id: OpId) -> &[OpId] {
        &self.preds[id.index()]
    }

    /// Iterates over all edges as `(from, to)` pairs.
    pub fn edges(&self) -> impl Iterator<Item = (OpId, OpId)> + '_ {
        self.succs
            .iter()
            .enumerate()
            .flat_map(|(i, ss)| ss.iter().map(move |&t| (OpId(i as u32), t)))
    }

    /// Kahn topological order.
    ///
    /// # Panics
    /// Panics if the graph contains a cycle (builders must produce DAGs).
    /// Randomized callers should use [`OpGraph::try_topo_order`] instead.
    pub fn topo_order(&self) -> Vec<OpId> {
        self.try_topo_order().unwrap_or_else(|e| panic!("topo_order: {e} (graph contains a cycle)"))
    }

    /// Kahn topological order, reporting a cycle as [`GraphError::Cycle`]
    /// instead of panicking.
    pub fn try_topo_order(&self) -> Result<Vec<OpId>, GraphError> {
        let mut indeg: Vec<usize> = self.preds.iter().map(Vec::len).collect();
        let mut queue: std::collections::VecDeque<OpId> =
            self.ids().filter(|id| indeg[id.index()] == 0).collect();
        let mut order = Vec::with_capacity(self.len());
        while let Some(id) = queue.pop_front() {
            order.push(id);
            for &s in self.succs(id) {
                indeg[s.index()] -= 1;
                if indeg[s.index()] == 0 {
                    queue.push_back(s);
                }
            }
        }
        if order.len() != self.len() {
            return Err(GraphError::Cycle);
        }
        Ok(order)
    }

    /// Checks every structural and cost invariant downstream consumers (the
    /// simulator, the feature extractor, the policies) rely on:
    ///
    /// * the graph is non-empty and acyclic,
    /// * adjacency is internally consistent (every successor edge has a
    ///   matching predecessor entry, endpoints in range, no self-loops),
    /// * every op's FLOPs are finite and non-negative.
    ///
    /// Generated graphs ([`crate::graphgen::GraphGen`]) additionally guarantee
    /// that edges always point from a lower id to a higher one (insertion order
    /// is a topological order); that stronger property is checked by
    /// [`crate::graphgen::GraphGen::validate`], not here, because hand-built
    /// graphs are free to insert nodes in any order.
    pub fn validate(&self) -> Result<(), GraphError> {
        if self.is_empty() {
            return Err(GraphError::Empty);
        }
        let len = self.len();
        for (i, succs) in self.succs.iter().enumerate() {
            let from = OpId(i as u32);
            for &to in succs {
                if to.index() >= len {
                    return Err(GraphError::NodeOutOfRange { op: to, len });
                }
                if to == from {
                    return Err(GraphError::SelfLoop { op: from });
                }
                if !self.preds[to.index()].contains(&from) {
                    return Err(GraphError::NodeOutOfRange { op: from, len });
                }
            }
        }
        for id in self.ids() {
            let n = self.node(id);
            if !n.flops.is_finite() || n.flops < 0.0 {
                return Err(GraphError::BadCost { op: id, what: "flops" });
            }
        }
        if !self.is_acyclic() {
            return Err(GraphError::Cycle);
        }
        Ok(())
    }

    /// True when the graph is a DAG.
    pub fn is_acyclic(&self) -> bool {
        let mut indeg: Vec<usize> = self.preds.iter().map(Vec::len).collect();
        let mut queue: std::collections::VecDeque<usize> =
            indeg.iter().enumerate().filter(|(_, &d)| d == 0).map(|(i, _)| i).collect();
        let mut seen = 0;
        while let Some(i) = queue.pop_front() {
            seen += 1;
            for &s in &self.succs[i] {
                indeg[s.index()] -= 1;
                if indeg[s.index()] == 0 {
                    queue.push_back(s.index());
                }
            }
        }
        seen == self.len()
    }

    /// Total FLOPs per training step.
    pub fn total_flops(&self) -> f64 {
        self.nodes.iter().map(|n| n.flops).sum()
    }

    /// Total persistent parameter bytes.
    pub fn total_param_bytes(&self) -> u64 {
        self.nodes.iter().map(|n| n.param_bytes).sum()
    }

    /// Total memory footprint (persistent parameters + transient activations).
    pub fn total_bytes(&self) -> u64 {
        self.nodes.iter().map(|n| n.param_bytes + n.act_bytes).sum()
    }

    /// Serializes the graph to JSON.
    ///
    /// Infallible invariant: `OpGraph` is plain data (strings, numbers, vecs)
    /// with a derived `Serialize`, and the JSON writer renders every such tree
    /// (non-finite floats become `null`), so the `expect` is unreachable.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("OpGraph serializes")
    }

    /// Deserializes a graph from JSON.
    pub fn from_json(s: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> OpGraph {
        let mut g = OpGraph::new("diamond");
        let a = g.add_node(OpNode::new("a", OpKind::Input, Phase::Forward));
        let b = g.add_node(OpNode::new("b", OpKind::Conv2d, Phase::Forward).with_flops(10.0));
        let c = g.add_node(OpNode::new("c", OpKind::Pool, Phase::Forward).with_flops(5.0));
        let d = g.add_node(OpNode::new("d", OpKind::Concat, Phase::Forward));
        g.add_edge(a, b);
        g.add_edge(a, c);
        g.add_edge(b, d);
        g.add_edge(c, d);
        g
    }

    #[test]
    fn build_and_query() {
        let g = diamond();
        assert_eq!(g.len(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.succs(OpId(0)), &[OpId(1), OpId(2)]);
        assert_eq!(g.preds(OpId(3)), &[OpId(1), OpId(2)]);
        assert_eq!(g.total_flops(), 15.0);
        assert!(g.is_acyclic());
    }

    #[test]
    fn duplicate_edges_ignored() {
        let mut g = diamond();
        let e = g.num_edges();
        g.add_edge(OpId(0), OpId(1));
        assert_eq!(g.num_edges(), e);
    }

    #[test]
    fn topo_order_respects_edges() {
        let g = diamond();
        let order = g.topo_order();
        let pos: Vec<usize> =
            g.ids().map(|id| order.iter().position(|&o| o == id).unwrap()).collect();
        for (f, t) in g.edges() {
            assert!(pos[f.index()] < pos[t.index()], "{f:?} must precede {t:?}");
        }
    }

    #[test]
    #[should_panic(expected = "cycle")]
    fn topo_order_panics_on_cycle() {
        let mut g = diamond();
        g.add_edge(OpId(3), OpId(0));
        let _ = g.topo_order();
    }

    #[test]
    fn cycle_detection() {
        let mut g = diamond();
        assert!(g.is_acyclic());
        g.add_edge(OpId(3), OpId(0));
        assert!(!g.is_acyclic());
    }

    #[test]
    fn json_roundtrip() {
        let g = diamond();
        let j = g.to_json();
        let g2 = OpGraph::from_json(&j).unwrap();
        assert_eq!(g2.len(), g.len());
        assert_eq!(g2.num_edges(), g.num_edges());
        assert_eq!(g2.node(OpId(1)).flops, 10.0);
        assert_eq!(g2.model_name, "diamond");
    }

    #[test]
    fn op_kind_feature_indices_unique() {
        for (i, k) in ALL_OP_KINDS.iter().enumerate() {
            assert_eq!(k.feature_index(), i);
        }
    }

    #[test]
    fn try_add_edge_reports_typed_errors() {
        let mut g = diamond();
        // Self-loop: formerly an assert panic in add_edge.
        assert_eq!(g.try_add_edge(OpId(1), OpId(1)), Err(GraphError::SelfLoop { op: OpId(1) }));
        // Out-of-range endpoints: formerly an index panic.
        assert_eq!(
            g.try_add_edge(OpId(0), OpId(99)),
            Err(GraphError::NodeOutOfRange { op: OpId(99), len: 4 })
        );
        assert_eq!(
            g.try_add_edge(OpId(99), OpId(0)),
            Err(GraphError::NodeOutOfRange { op: OpId(99), len: 4 })
        );
        // Errors leave the graph untouched.
        assert_eq!(g.num_edges(), 4);
        // Valid and duplicate edges still work.
        assert_eq!(g.try_add_edge(OpId(0), OpId(3)), Ok(()));
        assert_eq!(g.try_add_edge(OpId(0), OpId(3)), Ok(()));
        assert_eq!(g.num_edges(), 5);
    }

    #[test]
    fn try_topo_order_reports_cycle() {
        let mut g = diamond();
        assert!(g.try_topo_order().is_ok());
        g.add_edge(OpId(3), OpId(0));
        assert_eq!(g.try_topo_order(), Err(GraphError::Cycle));
    }

    #[test]
    fn validate_catches_structural_and_cost_violations() {
        assert_eq!(OpGraph::new("empty").validate(), Err(GraphError::Empty));

        let g = diamond();
        assert_eq!(g.validate(), Ok(()));

        let mut cyclic = diamond();
        cyclic.add_edge(OpId(3), OpId(0));
        assert_eq!(cyclic.validate(), Err(GraphError::Cycle));

        let mut bad = diamond();
        bad.node_mut(OpId(1)).flops = f64::NAN;
        assert_eq!(bad.validate(), Err(GraphError::BadCost { op: OpId(1), what: "flops" }));
        bad.node_mut(OpId(1)).flops = -1.0;
        assert_eq!(bad.validate(), Err(GraphError::BadCost { op: OpId(1), what: "flops" }));
    }

    #[test]
    fn graph_error_display_is_descriptive() {
        let e = GraphError::NodeOutOfRange { op: OpId(7), len: 3 };
        assert!(e.to_string().contains('7') && e.to_string().contains('3'));
        assert!(GraphError::BadConfig("layers = 0".into()).to_string().contains("layers"));
    }

    #[test]
    fn cpu_friendly_flags() {
        assert!(OpKind::Embedding.cpu_friendly());
        assert!(OpKind::Input.cpu_friendly());
        assert!(!OpKind::Conv2d.cpu_friendly());
        assert!(!OpKind::MatMul.cpu_friendly());
    }
}
