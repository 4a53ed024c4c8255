//! `Gb`, the builder every generated graph goes through, and the one **op
//! vocabulary** the benchmark builders ([`crate::builders`]) and GraphGen
//! ([`crate::graphgen`]) are both written in: what a `rows x k · k x n`
//! projection, a `k x k` convolution + batch norm + ReLU or a fused LSTM step
//! costs in FLOPs and bytes is decided here, once.
//!
//! Sizes are given in f32 *elements*; [`Gb::bytes`] turns them into bytes and is
//! the single place the two callers differ. Node creation order is part of the
//! output (`OpId`s feed the hashed-prefix features and every pinned placement):
//! an emitter that creates a weight creates the `Variable` first, then the op
//! reading it. `tests/graph_identity.rs` pins the graphs across commits.

use crate::graph::{OpGraph, OpId, OpKind, OpNode, Phase};
use std::collections::{HashMap, HashSet};

const F32: u64 = 4;

/// An LSTM layer's kernel variable together with the width it was sized for.
#[derive(Clone, Copy)]
pub(crate) struct LstmKernel {
    var: OpId,
    hidden: usize,
}

/// Graph-construction helper that records forward compute ops so the backward pass
/// can be generated by mirroring.
pub(crate) struct Gb {
    pub(crate) g: OpGraph,
    /// Forward compute ops in construction (= topological) order, with the id of the
    /// `Variable` they read, if any.
    fwd: Vec<(OpId, Option<OpId>)>,
    next_coloc: u32,
    /// GraphGen's per-sample memory pressure (see [`Gb::bytes`]); `None` for the
    /// benchmark builders, whose tensors have their exact sizes.
    pub(crate) pressure: Option<f64>,
}

impl Gb {
    pub(crate) fn new(name: &str) -> Self {
        Self { g: OpGraph::new(name), fwd: Vec::new(), next_coloc: 0, pressure: None }
    }

    /// Bytes of a tensor of `elems` f32 elements: exactly `4 * elems`, or, under a
    /// memory pressure, `elems * pressure` clamped so downstream u64 arithmetic (4x
    /// optimizer slots, per-device sums) cannot overflow while still reaching the
    /// `e^30`-byte regime that stresses feature scaling.
    pub(crate) fn bytes(&self, elems: usize) -> u64 {
        let elems = match self.pressure {
            Some(p) => (elems as f64 * p).clamp(1.0, 1e14) as u64,
            None => elems as u64,
        };
        elems * F32
    }

    /// An input-pipeline source node producing `elems` elements.
    pub(crate) fn input(&mut self, name: &str, elems: usize) -> OpId {
        let out = self.bytes(elems);
        self.g.add_node(OpNode::new(name, OpKind::Input, Phase::Forward).with_out_bytes(out))
    }

    /// A trainable variable of `elems` weights (plus gradient and two Adam slots,
    /// accounted as 4x in persistent memory).
    pub(crate) fn var(&mut self, name: &str, elems: usize) -> OpId {
        let param_bytes = self.bytes(elems);
        let coloc = self.next_coloc;
        self.next_coloc += 1;
        self.g.add_node(
            OpNode::new(name, OpKind::Variable, Phase::Forward)
                .with_out_bytes(param_bytes)
                .with_param_bytes(param_bytes * 4)
                .with_colocation(coloc),
        )
    }

    /// A forward compute op. `var` is its weight variable (if parameterized);
    /// the op is recorded for backward mirroring. Activation memory is the output
    /// kept live for the backward pass. The typed emitters below all end here;
    /// direct calls are for ops that fit none of them (a variable shared across
    /// steps or created ahead of its op, bytes copied from a finished node).
    pub(crate) fn compute(
        &mut self,
        name: &str,
        kind: OpKind,
        flops: f64,
        out_bytes: u64,
        inputs: &[OpId],
        var: Option<OpId>,
    ) -> OpId {
        let id = self.g.add_node(
            OpNode::new(name, kind, Phase::Forward)
                .with_flops(flops)
                .with_out_bytes(out_bytes)
                .with_act_bytes(out_bytes),
        );
        for &i in inputs {
            self.g.add_edge(i, id);
        }
        if let Some(v) = var {
            self.g.add_edge(v, id);
        }
        self.fwd.push((id, var));
        id
    }

    /// An unparameterized op producing `elems` elements.
    pub(crate) fn op(
        &mut self,
        name: &str,
        kind: OpKind,
        flops: f64,
        elems: usize,
        inputs: &[OpId],
    ) -> OpId {
        let out = self.bytes(elems);
        self.compute(name, kind, flops, out, inputs, None)
    }

    /// An unparameterized op costing `c` FLOPs per output element: activations,
    /// dropout, residual adds, softmax, pools, and (with `c = 0`) the splits,
    /// reshapes and concats that only move data.
    pub(crate) fn map(
        &mut self,
        name: &str,
        kind: OpKind,
        c: usize,
        elems: usize,
        inputs: &[OpId],
    ) -> OpId {
        self.op(name, kind, (c * elems) as f64, elems, inputs)
    }

    /// A parameterized op: the variable `weight` (name, element count), **then**
    /// the op reading it.
    pub(crate) fn weighted(
        &mut self,
        name: &str,
        kind: OpKind,
        flops: f64,
        elems: usize,
        inputs: &[OpId],
        weight: (&str, usize),
    ) -> OpId {
        let w = self.var(weight.0, weight.1);
        let out = self.bytes(elems);
        self.compute(name, kind, flops, out, inputs, Some(w))
    }

    /// A dense projection `rows x k · k x n` of `input` by the new weight `wname`.
    pub(crate) fn linear(
        &mut self,
        name: &str,
        wname: &str,
        input: OpId,
        (rows, k, n): (usize, usize, usize),
    ) -> OpId {
        let flops = 2.0 * (rows * k * n) as f64;
        self.weighted(name, OpKind::MatMul, flops, rows * n, &[input], (wname, k * n))
    }

    /// A `k x k` convolution `cin -> cout` channels at `positions` output positions
    /// (batch x height x width): `{name}/weights`, then `{name}/conv2d`.
    pub(crate) fn conv(
        &mut self,
        name: &str,
        input: OpId,
        positions: usize,
        cin: usize,
        cout: usize,
        k: usize,
    ) -> OpId {
        let flops = 2.0 * (positions * cin * cout * k * k) as f64;
        let (op, weights) = (format!("{name}/conv2d"), format!("{name}/weights"));
        let weight = (weights.as_str(), k * k * cin * cout);
        self.weighted(&op, OpKind::Conv2d, flops, positions * cout, &[input], weight)
    }

    /// Batch norm + ReLU over `elems` elements: `{name}/bn/gamma` (of `gamma`
    /// weights: scale alone, or scale and shift), `{name}/bn`, `{name}/relu`.
    pub(crate) fn bn_relu(&mut self, name: &str, input: OpId, elems: usize, gamma: usize) -> OpId {
        let (op, gamma_name) = (format!("{name}/bn"), format!("{name}/bn/gamma"));
        let weight = (gamma_name.as_str(), gamma);
        let bn = self.weighted(&op, OpKind::BatchNorm, (4 * elems) as f64, elems, &[input], weight);
        self.map(&format!("{name}/relu"), OpKind::Activation, 1, elems, &[bn])
    }

    /// The kernel of an LSTM layer of width `hidden` (input and state of `hidden`
    /// each onto four gates), shared by every step's [`Gb::lstm_cell`].
    pub(crate) fn lstm_kernel(&mut self, name: &str, hidden: usize) -> LstmKernel {
        LstmKernel { var: self.var(name, 4 * hidden * 2 * hidden), hidden }
    }

    /// One fused LSTM step at `batch` reading `input` and, after the first step,
    /// the cell `prev`. `saved` is how many state-sized tensors the step keeps
    /// live for the backward pass.
    pub(crate) fn lstm_cell(
        &mut self,
        name: &str,
        kernel: LstmKernel,
        batch: usize,
        input: OpId,
        prev: Option<OpId>,
        saved: u64,
    ) -> OpId {
        let LstmKernel { var, hidden } = kernel;
        let state = self.bytes(batch * hidden);
        let inputs: Vec<OpId> = [Some(input), prev].into_iter().flatten().collect();
        let flops = 2.0 * (batch * 4 * hidden * 2 * hidden) as f64;
        let cell = self.compute(name, OpKind::LstmCell, flops, state, &inputs, Some(var));
        self.g.node_mut(cell).act_bytes = state * saved;
        cell
    }

    /// Generates the backward pass by mirroring every recorded forward compute op,
    /// plus a `GradAccum` + `ApplyUpdate` pair per variable.
    ///
    /// Structure (matching real training graphs):
    /// * `bwd(op)` (the gradient w.r.t. `op`'s inputs) depends on `bwd(succ)` for
    ///   every forward successor of `op`, and on `op` itself (saved activations).
    /// * For parameterized ops, the weight gradient is an *independent branch* off
    ///   `bwd(op)`, which is what lets a list scheduler overlap weight-gradient work
    ///   with the serial activation-gradient chain across devices.
    /// * `ApplyUpdate` is co-located with its `Variable` (TensorFlow colocation).
    fn mirror_backward(&mut self) {
        let recorded: HashSet<OpId> = self.fwd.iter().map(|&(id, _)| id).collect();
        let mut bwd_of: HashMap<OpId, OpId> = HashMap::new();
        // Variables shared across timesteps accumulate into ONE gradient buffer;
        // only the first GradAccum op per variable owns its memory.
        let mut grad_buffer_owned: HashSet<OpId> = HashSet::new();

        let fwd = std::mem::take(&mut self.fwd);
        for &(fid, var) in fwd.iter().rev() {
            let node = self.g.node(fid).clone();
            // Gradient w.r.t. inputs: roughly the input tensor size; approximate by
            // the largest forward predecessor output.
            let grad_bytes = self
                .g
                .preds(fid)
                .iter()
                .filter(|&&p| !matches!(self.g.node(p).kind, OpKind::Variable | OpKind::Const))
                .map(|&p| self.g.node(p).out_bytes)
                .max()
                .unwrap_or(node.out_bytes)
                .max(1);
            // Gradient w.r.t. the op's *inputs* costs about one forward pass; the
            // gradient w.r.t. its *weights* is the separate GradAccum branch below.
            let bid = self.g.add_node(
                OpNode::new(format!("grad/{}", node.name), node.kind, Phase::Backward)
                    .with_flops(node.flops)
                    .with_out_bytes(grad_bytes)
                    .with_act_bytes(grad_bytes / 2),
            );
            // Saved forward activations feed the backward op.
            self.g.add_edge(fid, bid);
            // Reverse data dependencies from forward successors that are compute ops.
            let succs: Vec<OpId> = self
                .g
                .succs(fid)
                .iter()
                .copied()
                .filter(|s| recorded.contains(s) && *s != bid)
                .collect();
            for s in succs {
                if let Some(&sb) = bwd_of.get(&s) {
                    self.g.add_edge(sb, bid);
                }
            }
            bwd_of.insert(fid, bid);

            if let Some(v) = var {
                let vnode = self.g.node(v).clone();
                // Invariant: `var()` is the only way builder code creates
                // variables and it always assigns a colocation id, so this
                // expect is unreachable for any graph assembled through `Gb`
                // (pinned by `update_ops_colocated_with_variables`).
                let coloc = vnode.colocation.expect("variables carry colocation ids");
                let accum_act = if grad_buffer_owned.insert(v) { vnode.out_bytes } else { 0 };
                let ga = self.g.add_node(
                    OpNode::new(
                        format!("grad/{}/w", node.name),
                        OpKind::GradAccum,
                        Phase::Backward,
                    )
                    .with_flops(node.flops)
                    .with_out_bytes(vnode.out_bytes)
                    .with_act_bytes(accum_act),
                );
                self.g.add_edge(bid, ga);
                self.g.add_edge(fid, ga);
                let up = self.g.add_node(
                    OpNode::new(
                        format!("update/{}", vnode.name),
                        OpKind::ApplyUpdate,
                        Phase::Update,
                    )
                    .with_flops(vnode.out_bytes as f64 / F32 as f64 * 8.0)
                    .with_out_bytes(0)
                    .with_colocation(coloc),
                );
                self.g.add_edge(ga, up);
                self.g.add_edge(v, up);
            }
        }
    }

    pub(crate) fn finish(mut self) -> OpGraph {
        self.mirror_backward();
        debug_assert_eq!(self.g.validate(), Ok(()));
        self.g
    }

    /// Forward-only finish: no backward mirroring (inference-style graphs).
    pub(crate) fn finish_forward(self) -> OpGraph {
        debug_assert_eq!(self.g.validate(), Ok(()));
        self.g
    }

    /// Ops the graph will contain once [`Gb::finish`] mirrors the backward
    /// pass: each recorded forward op gains one gradient op, plus a
    /// `GradAccum` + `ApplyUpdate` pair per parameterized use.
    pub(crate) fn projected_len(&self) -> usize {
        let var_uses = self.fwd.iter().filter(|(_, v)| v.is_some()).count();
        self.g.len() + self.fwd.len() + 2 * var_uses
    }
}
