//! Reverse-mode automatic differentiation over a per-forward-pass tape.
//!
//! A [`Tape`] records every operation of one forward pass as a node holding its output
//! value and the identities of its inputs. [`Tape::backward_into`] then walks the nodes
//! in reverse, applying each op's vector-Jacobian product, and deposits gradients of
//! registered parameters into detached [`Grads`] buffers.
//!
//! The tape is rebuilt for every forward pass ("define-by-run"), which is exactly how
//! the paper's PyTorch agent operates, and keeps dynamic structures (per-sample
//! sequence lengths, sampled placements feeding back into the decoder) trivial.
//!
//! ## Node layout
//!
//! `Op` is a small `Copy` value: variable-length payloads (concat parts, gather
//! indices) live in two arena pools on the tape ([`Span32`] ranges into them),
//! so recording an op never allocates beyond the amortized growth of three
//! flat `Vec`s. On the placer workloads this removes one heap allocation per
//! concat/select/pick node — tens of thousands per minibatch. A third arena
//! holds what a fused op saves for its backward (the LSTM cell's gates).
//!
//! ## Backward
//!
//! [`Tape::backward_into`] materializes no operand: weight gradients are
//! `Tensor::matmul_tn` products added straight into their slot, input
//! gradients `Tensor::matmul_nt` products, a gradient computed for one
//! consumer becomes that consumer's slot, and slicing ops deposit into the
//! sub-range of their input's slot. The rules that keep every bit where
//! whole-tensor zero-padded deposits would put it are stated above
//! `Tape::bump`.

use std::collections::HashMap;
use std::ops::Deref;
use std::sync::Arc;

use crate::grads::Grads;
use crate::params::{ParamId, Params};
use crate::tensor::Tensor;

/// Handle to a node (an intermediate value) on a [`Tape`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Var(usize);

/// Range into one of the tape's arena pools (`u32` keeps `Op` at 16 bytes).
#[derive(Debug, Clone, Copy)]
struct Span32 {
    start: u32,
    len: u32,
}

/// Activation fused into [`Tape::affine`]. `None` gives plain `x @ w + b`.
///
/// The fused VJP is computed from the activation *output*, which is exact for
/// these choices: `tanh' = 1 - y^2`, and `relu`'s mask `y > 0` coincides with
/// `x > 0`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FusedAct {
    /// No activation.
    None,
    /// Hyperbolic tangent.
    Tanh,
    /// Rectified linear unit.
    Relu,
}

/// The recorded operation producing a node's value.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Constant input (no gradient flows into it).
    Leaf,
    /// Parameter injected from a [`Params`] store (gradient target).
    Param(ParamId),
    MatMul(Var, Var),
    Add(Var, Var),
    Sub(Var, Var),
    MulElem(Var, Var),
    /// `(n,m) + (1,m)` with the row vector broadcast across rows.
    AddRowBroadcast(Var, Var),
    Scale(Var, f32),
    AddScalar(Var, #[allow(dead_code)] f32),
    Sigmoid(Var),
    Tanh(Var),
    Relu(Var),
    Exp(Var),
    Ln(Var),
    Softmax(Var),
    LogSoftmax(Var),
    ConcatRows(Span32),
    ConcatCols(Span32),
    SliceRows(Var, usize),
    SliceCols(Var, usize),
    SelectRows(Var, Span32),
    Transpose(Var),
    SumAll(Var),
    MeanAll(Var),
    RowSums(Var),
    PickPerRow(Var, Span32),
    Clamp(Var, f32, f32),
    MinElem(Var, Var),
    /// n-ary elementwise sum over a pool span (one node instead of a chain).
    AddN(Span32),
    /// Fused `act(x @ w + b)` — the dense-layer pattern every placer emits.
    Affine(Var, Var, Var, FusedAct),
    /// Fused row-wise `log_softmax` + per-row gather: `(n,m) -> (n,1)`.
    LogSoftmaxPick(Var, Span32),
    /// Same data, new shape (row-major order kept).
    Reshape(Var),
    /// `(u·k, a)` blocks + `(B, a)` rows: block `b` of the output is block
    /// `span[b]` of the first operand plus row `b` of the second.
    AddBlockBroadcast(Var, Var, Span32),
    /// LSTM cell state `c = σ(z_f)·c_prev + σ(z_i)·tanh(z_g)` from the gate
    /// pre-activations `z` and `c_prev`; the `u32` indexes the saved gates.
    LstmCellState(Var, Var, u32),
    /// LSTM hidden state `h = σ(z_o)·tanh(c)` from `z` and the cell-state
    /// node; shares the saved gates of its [`Op::LstmCellState`].
    LstmHidden(Var, Var, u32),
}

struct Node {
    op: Op,
    value: NodeValue,
    needs_grad: bool,
}

/// A node's forward value: computed on this tape, or a constant the caller
/// keeps across tapes (see [`Tape::leaf_shared`]).
enum NodeValue {
    Owned(Tensor),
    Shared(Arc<Tensor>),
}

impl Deref for NodeValue {
    type Target = Tensor;

    fn deref(&self) -> &Tensor {
        match self {
            Self::Owned(t) => t,
            Self::Shared(t) => t,
        }
    }
}

/// A single forward pass recorded for differentiation.
#[derive(Default)]
pub struct Tape {
    nodes: Vec<Node>,
    /// Arena for multi-`Var` op payloads (concat parts, summed losses).
    var_pool: Vec<Var>,
    /// Arena for index payloads (row selections, per-row picks).
    idx_pool: Vec<usize>,
    /// Arena for forward results a fused op's backward reuses (LSTM gates).
    saved: Vec<Tensor>,
    /// Parameters already injected this pass, so repeated use shares one node.
    param_cache: HashMap<ParamId, Var>,
}

impl Tape {
    /// Creates an empty tape.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The forward value of a node.
    pub fn value(&self, v: Var) -> &Tensor {
        &self.nodes[v.0].value
    }

    fn push(&mut self, op: Op, value: Tensor, needs_grad: bool) -> Var {
        debug_assert!(value.all_finite(), "non-finite value produced by {op:?}");
        self.push_node(Node { op, value: NodeValue::Owned(value), needs_grad })
    }

    fn push_node(&mut self, node: Node) -> Var {
        self.nodes.push(node);
        Var(self.nodes.len() - 1)
    }

    fn ng(&self, v: Var) -> bool {
        self.nodes[v.0].needs_grad
    }

    fn intern_vars(&mut self, parts: &[Var]) -> Span32 {
        let start = self.var_pool.len() as u32;
        self.var_pool.extend_from_slice(parts);
        Span32 { start, len: parts.len() as u32 }
    }

    fn intern_idxs(&mut self, indices: &[usize]) -> Span32 {
        let start = self.idx_pool.len() as u32;
        self.idx_pool.extend_from_slice(indices);
        Span32 { start, len: indices.len() as u32 }
    }

    fn vars(&self, s: Span32) -> &[Var] {
        &self.var_pool[s.start as usize..(s.start + s.len) as usize]
    }

    fn idxs(&self, s: Span32) -> &[usize] {
        &self.idx_pool[s.start as usize..(s.start + s.len) as usize]
    }

    /// Records a constant input; no gradient will flow into it.
    pub fn leaf(&mut self, value: Tensor) -> Var {
        self.push(Op::Leaf, value, false)
    }

    /// Records a constant input the caller also keeps — a feature matrix fed
    /// to every forward pass — without copying it onto the tape.
    pub fn leaf_shared(&mut self, value: Arc<Tensor>) -> Var {
        self.push_node(Node { op: Op::Leaf, value: NodeValue::Shared(value), needs_grad: false })
    }

    /// Injects a parameter from `params`. Re-injecting the same handle returns the
    /// same node, so gradient contributions from all uses accumulate correctly.
    pub fn param(&mut self, params: &Params, id: ParamId) -> Var {
        if let Some(&v) = self.param_cache.get(&id) {
            return v;
        }
        let v = self.push(Op::Param(id), params.get(id).clone(), true);
        self.param_cache.insert(id, v);
        v
    }

    /// Matrix product `a @ b`.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let value = self.value(a).matmul(self.value(b));
        let g = self.ng(a) || self.ng(b);
        self.push(Op::MatMul(a, b), value, g)
    }

    /// Element-wise sum (same shapes).
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let value = self.value(a).add(self.value(b));
        let g = self.ng(a) || self.ng(b);
        self.push(Op::Add(a, b), value, g)
    }

    /// Element-wise difference (same shapes).
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        let value = self.value(a).sub(self.value(b));
        let g = self.ng(a) || self.ng(b);
        self.push(Op::Sub(a, b), value, g)
    }

    /// Element-wise (Hadamard) product (same shapes).
    pub fn mul_elem(&mut self, a: Var, b: Var) -> Var {
        let value = self.value(a).mul_elem(self.value(b));
        let g = self.ng(a) || self.ng(b);
        self.push(Op::MulElem(a, b), value, g)
    }

    /// `(n,m) + (1,m)`: adds a row vector (e.g. a bias) to every row of `a`.
    pub fn add_row_broadcast(&mut self, a: Var, b: Var) -> Var {
        assert_eq!(self.value(b).rows(), 1, "broadcast operand must be a row vector");
        assert_eq!(self.value(a).cols(), self.value(b).cols(), "broadcast column mismatch");
        let mut value = self.value(a).clone();
        let b_row = self.value(b).row(0);
        for r in 0..value.rows() {
            for (x, &bb) in value.row_mut(r).iter_mut().zip(b_row) {
                *x += bb;
            }
        }
        let g = self.ng(a) || self.ng(b);
        self.push(Op::AddRowBroadcast(a, b), value, g)
    }

    /// Blocks of `k = e.rows() / u` rows plus one broadcast row each:
    /// `(u·k, a)` and `(B, a)` give `(B·k, a)`, where output block `b` is
    /// block `block_of[b]` of `e` with row `b` of `d` added to every row —
    /// the Bahdanau pre-activation of `B` decoder states against their
    /// encoders' keys, as one node.
    ///
    /// Bitwise-equal, values and gradients, to `B` `slice_rows` +
    /// `add_row_broadcast` pairs stacked by `concat_rows`: the backward
    /// deposits the blocks into `e` in descending `b`, the order that chain's
    /// nodes are visited in.
    ///
    /// # Panics
    /// Panics if `e`'s rows are not a multiple of `blocks`, a block index is
    /// out of range, or the shapes disagree.
    pub fn add_block_broadcast(
        &mut self,
        e: Var,
        blocks: usize,
        d: Var,
        block_of: &[usize],
    ) -> Var {
        let (ev, dv) = (self.value(e), self.value(d));
        assert!(blocks > 0 && ev.rows() % blocks == 0, "operand is not {blocks} equal blocks");
        assert_eq!(ev.cols(), dv.cols(), "broadcast column mismatch");
        assert_eq!(dv.rows(), block_of.len(), "one block index per broadcast row");
        let k = ev.rows() / blocks;
        let mut value = Tensor::zeros(block_of.len() * k, ev.cols());
        for (b, &blk) in block_of.iter().enumerate() {
            assert!(blk < blocks, "block index {blk} out of range");
            for j in 0..k {
                let out = value.row_mut(b * k + j);
                for ((o, &x), &bb) in out.iter_mut().zip(ev.row(blk * k + j)).zip(dv.row(b)) {
                    *o = x + bb;
                }
            }
        }
        let g = self.ng(e) || self.ng(d);
        let span = self.intern_idxs(block_of);
        self.push(Op::AddBlockBroadcast(e, d, span), value, g)
    }

    /// `s * a`.
    pub fn scale(&mut self, a: Var, s: f32) -> Var {
        let value = self.value(a).scaled(s);
        let g = self.ng(a);
        self.push(Op::Scale(a, s), value, g)
    }

    /// `a + s` element-wise.
    pub fn add_scalar(&mut self, a: Var, s: f32) -> Var {
        let value = self.value(a).map(|x| x + s);
        let g = self.ng(a);
        self.push(Op::AddScalar(a, s), value, g)
    }

    /// `-a`.
    pub fn neg(&mut self, a: Var) -> Var {
        self.scale(a, -1.0)
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&mut self, a: Var) -> Var {
        let value = self.value(a).map(|x| 1.0 / (1.0 + (-x).exp()));
        let g = self.ng(a);
        self.push(Op::Sigmoid(a), value, g)
    }

    /// Hyperbolic tangent.
    pub fn tanh(&mut self, a: Var) -> Var {
        let value = self.value(a).map(f32::tanh);
        let g = self.ng(a);
        self.push(Op::Tanh(a), value, g)
    }

    /// Rectified linear unit.
    pub fn relu(&mut self, a: Var) -> Var {
        let value = self.value(a).map(|x| x.max(0.0));
        let g = self.ng(a);
        self.push(Op::Relu(a), value, g)
    }

    /// Element-wise `exp`.
    pub fn exp(&mut self, a: Var) -> Var {
        let value = self.value(a).map(f32::exp);
        let g = self.ng(a);
        self.push(Op::Exp(a), value, g)
    }

    /// Element-wise natural log (inputs must be positive).
    pub fn ln(&mut self, a: Var) -> Var {
        let value = self.value(a).map(f32::ln);
        let g = self.ng(a);
        self.push(Op::Ln(a), value, g)
    }

    /// Row-wise softmax.
    pub fn softmax(&mut self, a: Var) -> Var {
        let value = self.value(a).softmax_rows();
        let g = self.ng(a);
        self.push(Op::Softmax(a), value, g)
    }

    /// Row-wise log-softmax (numerically stable).
    pub fn log_softmax(&mut self, a: Var) -> Var {
        let mut value = self.value(a).clone();
        for r in 0..value.rows() {
            let row = value.row_mut(r);
            let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let lse = row.iter().map(|&x| (x - max).exp()).sum::<f32>().ln() + max;
            for x in row.iter_mut() {
                *x -= lse;
            }
        }
        let g = self.ng(a);
        self.push(Op::LogSoftmax(a), value, g)
    }

    /// Vertical concatenation. A single part is returned as is, so batched
    /// code stacking "one row block per episode" records at batch size one
    /// exactly the tape of code written for one episode.
    pub fn concat_rows(&mut self, parts: &[Var]) -> Var {
        if let [only] = parts {
            return *only;
        }
        let tensors: Vec<&Tensor> = parts.iter().map(|&v| self.value(v)).collect();
        let value = Tensor::concat_rows(&tensors);
        let g = parts.iter().any(|&v| self.ng(v));
        let span = self.intern_vars(parts);
        self.push(Op::ConcatRows(span), value, g)
    }

    /// Horizontal concatenation.
    pub fn concat_cols(&mut self, parts: &[Var]) -> Var {
        let tensors: Vec<&Tensor> = parts.iter().map(|&v| self.value(v)).collect();
        let value = Tensor::concat_cols(&tensors);
        let g = parts.iter().any(|&v| self.ng(v));
        let span = self.intern_vars(parts);
        self.push(Op::ConcatCols(span), value, g)
    }

    /// Copies rows `[start, start+len)`. The whole row range is `a` itself —
    /// the counterpart of [`Tape::concat_rows`]'s single-part rule: un-stacking
    /// a stack of one records nothing.
    pub fn slice_rows(&mut self, a: Var, start: usize, len: usize) -> Var {
        if start == 0 && len == self.value(a).rows() {
            return a;
        }
        let value = self.value(a).slice_rows(start, len);
        let g = self.ng(a);
        self.push(Op::SliceRows(a, start), value, g)
    }

    /// Copies columns `[start, start+len)` (e.g. one gate block of a fused LSTM).
    pub fn slice_cols(&mut self, a: Var, start: usize, len: usize) -> Var {
        let t = self.value(a);
        assert!(start + len <= t.cols(), "slice_cols out of range");
        let mut value = Tensor::zeros(t.rows(), len);
        for r in 0..t.rows() {
            value.row_mut(r).copy_from_slice(&t.row(r)[start..start + len]);
        }
        let g = self.ng(a);
        self.push(Op::SliceCols(a, start), value, g)
    }

    /// Gathers rows by index (duplicates allowed); gradients scatter-add back.
    pub fn select_rows(&mut self, a: Var, indices: &[usize]) -> Var {
        let value = self.value(a).select_rows(indices);
        let g = self.ng(a);
        let span = self.intern_idxs(indices);
        self.push(Op::SelectRows(a, span), value, g)
    }

    /// Matrix transpose.
    pub fn transpose(&mut self, a: Var) -> Var {
        let value = self.value(a).transpose();
        let g = self.ng(a);
        self.push(Op::Transpose(a), value, g)
    }

    /// The same elements in row-major order under a new shape (e.g. the
    /// `(B·k, 1)` attention scores as `(B, k)`); the backward hands the
    /// gradient buffer on without copying it.
    ///
    /// # Panics
    /// Panics if `rows * cols` is not the element count.
    pub fn reshape(&mut self, a: Var, rows: usize, cols: usize) -> Var {
        let value = Tensor::from_vec(rows, cols, self.value(a).data().to_vec());
        let g = self.ng(a);
        self.push(Op::Reshape(a), value, g)
    }

    /// Sum of all elements, as a `1x1` tensor.
    pub fn sum_all(&mut self, a: Var) -> Var {
        let value = Tensor::scalar(self.value(a).sum());
        let g = self.ng(a);
        self.push(Op::SumAll(a), value, g)
    }

    /// Mean of all elements, as a `1x1` tensor.
    pub fn mean_all(&mut self, a: Var) -> Var {
        let value = Tensor::scalar(self.value(a).mean());
        let g = self.ng(a);
        self.push(Op::MeanAll(a), value, g)
    }

    /// Per-row sums: `(n,m) -> (n,1)`.
    pub fn row_sums(&mut self, a: Var) -> Var {
        let t = self.value(a);
        let mut value = Tensor::zeros(t.rows(), 1);
        for r in 0..t.rows() {
            value.set(r, 0, t.row(r).iter().sum());
        }
        let g = self.ng(a);
        self.push(Op::RowSums(a), value, g)
    }

    /// Picks element `indices[r]` from each row: `(n,m) -> (n,1)`.
    ///
    /// This is the log-probability gather used when scoring sampled actions.
    pub fn pick_per_row(&mut self, a: Var, indices: &[usize]) -> Var {
        let t = self.value(a);
        assert_eq!(indices.len(), t.rows(), "one index per row required");
        let mut value = Tensor::zeros(t.rows(), 1);
        for (r, &c) in indices.iter().enumerate() {
            assert!(c < t.cols(), "pick_per_row column {c} out of range");
            value.set(r, 0, t.get(r, c));
        }
        let g = self.ng(a);
        let span = self.intern_idxs(indices);
        self.push(Op::PickPerRow(a, span), value, g)
    }

    /// Element-wise clamp to `[lo, hi]` (zero gradient outside the interval),
    /// i.e. PPO's `clip`.
    pub fn clamp(&mut self, a: Var, lo: f32, hi: f32) -> Var {
        let value = self.value(a).map(|x| x.clamp(lo, hi));
        let g = self.ng(a);
        self.push(Op::Clamp(a, lo, hi), value, g)
    }

    /// Element-wise minimum of two tensors (gradient flows to the smaller side).
    pub fn min_elem(&mut self, a: Var, b: Var) -> Var {
        let value = self.value(a).zip(self.value(b), f32::min);
        let g = self.ng(a) || self.ng(b);
        self.push(Op::MinElem(a, b), value, g)
    }

    /// n-ary elementwise sum: `parts[0] + parts[1] + ...` in slice order, as one
    /// node. The minibatch update loops use this to fold per-episode losses
    /// into a single scalar, so the whole batch backpropagates in one
    /// [`Tape::backward_into`] traversal instead of one per episode.
    ///
    /// # Panics
    /// Panics when `parts` is empty or shapes differ.
    pub fn add_n(&mut self, parts: &[Var]) -> Var {
        assert!(!parts.is_empty(), "add_n of zero terms");
        let mut value = self.value(parts[0]).clone();
        for &p in &parts[1..] {
            value.add_assign(self.value(p));
        }
        let g = parts.iter().any(|&v| self.ng(v));
        let span = self.intern_vars(parts);
        self.push(Op::AddN(span), value, g)
    }

    /// Fused dense layer `act(x @ w + b)`: one node for the
    /// matmul + bias-broadcast + activation chain every placer emits.
    ///
    /// Bitwise-equal to the composed `matmul`/`add_row_broadcast`/activation
    /// sequence — the forward applies the same float ops in the same order,
    /// and the backward reproduces each composed VJP exactly (activation
    /// gradient from the output, bias row-sum in ascending row order, then the
    /// two matmul products). Saves two intermediate tensors and two tape nodes
    /// per layer application.
    pub fn affine(&mut self, x: Var, w: Var, b: Var, act: FusedAct) -> Var {
        assert_eq!(self.value(b).rows(), 1, "bias must be a row vector");
        assert_eq!(self.value(w).cols(), self.value(b).cols(), "bias column mismatch");
        let mut value = self.value(x).matmul(self.value(w));
        let b_row = self.value(b).row(0);
        for r in 0..value.rows() {
            for (v, &bb) in value.row_mut(r).iter_mut().zip(b_row) {
                *v += bb;
            }
        }
        match act {
            FusedAct::None => {}
            FusedAct::Tanh => {
                for v in value.data_mut() {
                    *v = v.tanh();
                }
            }
            FusedAct::Relu => {
                for v in value.data_mut() {
                    *v = v.max(0.0);
                }
            }
        }
        let g = self.ng(x) || self.ng(w) || self.ng(b);
        self.push(Op::Affine(x, w, b, act), value, g)
    }

    /// Fused row-wise log-softmax + per-row gather:
    /// `(n,m) -> (n,1)` with `out[r] = log_softmax(a[r])[indices[r]]`.
    ///
    /// This is the action-scoring pattern (`log_softmax` then `pick_per_row`)
    /// without materializing the full `(n,m)` log-probability matrix or its
    /// dense gradient scatter. Bitwise-equal to the composed pair: the forward
    /// evaluates the same stable `x - lse` expression at the picked column, and
    /// the backward recomputes `lse` with the forward's own op sequence (hence
    /// identical bits) before forming the composed pair's gradient.
    pub fn log_softmax_pick(&mut self, a: Var, indices: &[usize]) -> Var {
        let t = self.value(a);
        assert_eq!(indices.len(), t.rows(), "one index per row required");
        let mut value = Tensor::zeros(t.rows(), 1);
        for (r, &c) in indices.iter().enumerate() {
            assert!(c < t.cols(), "log_softmax_pick column {c} out of range");
            let row = t.row(r);
            let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let lse = row.iter().map(|&x| (x - max).exp()).sum::<f32>().ln() + max;
            value.set(r, 0, row[c] - lse);
        }
        let g = self.ng(a);
        let span = self.intern_idxs(indices);
        self.push(Op::LogSoftmaxPick(a, span), value, g)
    }

    /// Fused LSTM gate and state update, two nodes for the cell's two
    /// results: from gate pre-activations `z (n, 4h)` in `[input, forget, cell,
    /// output]` order and `c_prev (n, h)`, returns `(h, c)` with
    /// `c = σ(z_f)·c_prev + σ(z_i)·tanh(z_g)` and `h = σ(z_o)·tanh(c)`.
    ///
    /// Bitwise-equal, values and gradients, to the thirteen-node chain of
    /// `slice_cols`, `sigmoid`/`tanh`, `mul_elem` and `add` it replaces: the
    /// activated gates and `tanh(c)` are saved once for the backward, which
    /// applies the chain's VJPs in its order (so `c`'s gradient slot receives
    /// the next step's contribution before this step's `tanh` one) and writes
    /// each gate's column range of `z`'s gradient once.
    ///
    /// # Panics
    /// Panics if `z` is not four times as wide as `c_prev` or the row counts differ.
    pub fn lstm_cell(&mut self, z: Var, c_prev: Var) -> (Var, Var) {
        let (zv, cp) = (self.value(z), self.value(c_prev));
        let (n, h) = cp.shape();
        assert_eq!(zv.shape(), (n, 4 * h), "gate pre-activations must be (n, 4h)");
        // Saved per row: the activated gates `[i f g o]`, then `tanh(c)`.
        let mut saved = Tensor::zeros(n, 5 * h);
        let mut c = Tensor::zeros(n, h);
        let mut h_out = Tensor::zeros(n, h);
        let sigmoid = |x: f32| 1.0 / (1.0 + (-x).exp());
        for r in 0..n {
            let (gates, tc) = saved.row_mut(r).split_at_mut(4 * h);
            for (j, (gate, &x)) in gates.iter_mut().zip(zv.row(r)).enumerate() {
                *gate = if j / h == 2 { x.tanh() } else { sigmoid(x) };
            }
            let (c_row, h_row) = (c.row_mut(r), h_out.row_mut(r));
            for j in 0..h {
                let fc = gates[h + j] * cp.row(r)[j];
                let ig = gates[j] * gates[2 * h + j];
                c_row[j] = fc + ig;
                tc[j] = c_row[j].tanh();
                h_row[j] = gates[3 * h + j] * tc[j];
            }
        }
        let g = self.ng(z) || self.ng(c_prev);
        let at = self.saved.len() as u32;
        self.saved.push(saved);
        let c = self.push(Op::LstmCellState(z, c_prev, at), c, g);
        let h_out = self.push(Op::LstmHidden(z, c, at), h_out, g);
        (h_out, c)
    }

    /// Runs backpropagation from scalar node `loss`, accumulating parameter
    /// gradients into detached [`Grads`] buffers (adding to whatever is
    /// already there — call [`Grads::zero`] at minibatch start).
    ///
    /// # Panics
    /// Panics if `loss` is not `1x1`.
    pub fn backward_into(&self, loss: Var, sink: &mut Grads) {
        assert_eq!(self.value(loss).shape(), (1, 1), "loss must be a scalar");
        let mut grads: Vec<Option<Tensor>> = (0..self.nodes.len()).map(|_| None).collect();
        grads[loss.0] = Some(Tensor::scalar(1.0));

        for i in (0..=loss.0).rev() {
            if !self.nodes[i].needs_grad {
                continue;
            }
            let Some(gy) = grads[i].take() else { continue };
            self.accumulate(i, gy, &mut grads, sink);
        }
    }

    // Deposit rules. A node's gradient slot starts absent and only the
    // functions below write it. Each leaves every element what a zeroed slot
    // with one whole-tensor add per deposit would hold: a first deposit
    // stores `0.0 + x`, a later one adds. `0.0 + x` is never `-0.0` and
    // neither is a sum with a term that is not, so a slot never holds `-0.0`
    // — which is why a deposit into a sub-range can leave the rest of the
    // slot alone: adding the `0.0` padding there would change no bit.

    /// Adds `scale * grad` into `v`'s slot, if `v` participates in
    /// differentiation.
    fn bump(&self, grads: &mut [Option<Tensor>], v: Var, grad: &Tensor, scale: f32) {
        if !self.ng(v) {
            return;
        }
        match &mut grads[v.0] {
            Some(g) => g.add_scaled(grad, scale),
            slot => *slot = Some(grad.map(|x| 0.0 + scale * x)),
        }
    }

    /// [`Tape::bump`] for a gradient the caller is done with: on a first
    /// deposit the buffer itself becomes the slot.
    fn bump_owned(&self, grads: &mut [Option<Tensor>], v: Var, mut grad: Tensor, scale: f32) {
        if !self.ng(v) {
            return;
        }
        match &mut grads[v.0] {
            Some(g) => g.add_scaled(&grad, scale),
            slot => {
                grad.map_inplace(|x| 0.0 + scale * x);
                *slot = Some(grad);
            }
        }
    }

    /// Adds `aᵀ @ b` into `v`'s slot — a weight gradient, landed without a
    /// transposed operand or a product-sized temporary. A first deposit
    /// stores the product as is: its accumulators start at `+0.0`, so it
    /// holds no `-0.0` for `0.0 + x` to change.
    fn bump_tn(&self, grads: &mut [Option<Tensor>], v: Var, a: &Tensor, b: &Tensor) {
        if !self.ng(v) {
            return;
        }
        match &mut grads[v.0] {
            Some(g) => a.matmul_tn_acc(b, g),
            slot => *slot = Some(a.matmul_tn(b)),
        }
    }

    /// `v`'s slot, zeroed on a first touch, for deposits into part of it.
    fn slot_mut<'g>(&self, grads: &'g mut [Option<Tensor>], v: Var) -> &'g mut Tensor {
        let (rows, cols) = self.value(v).shape();
        grads[v.0].get_or_insert_with(|| Tensor::zeros(rows, cols))
    }

    /// Adds the `shape` block of `src` whose corner is `from` into the block
    /// of `v`'s slot whose corner is `at`.
    fn bump_block(
        &self,
        grads: &mut [Option<Tensor>],
        v: Var,
        at: (usize, usize),
        src: &Tensor,
        from: (usize, usize),
        shape: (usize, usize),
    ) {
        if !self.ng(v) {
            return;
        }
        let slot = self.slot_mut(grads, v);
        let (rows, cols) = shape;
        for r in 0..rows {
            let dst = &mut slot.row_mut(at.0 + r)[at.1..at.1 + cols];
            for (d, &g) in dst.iter_mut().zip(&src.row(from.0 + r)[from.1..from.1 + cols]) {
                *d += g;
            }
        }
    }

    fn accumulate(&self, i: usize, gy: Tensor, grads: &mut [Option<Tensor>], sink: &mut Grads) {
        let y: &Tensor = &self.nodes[i].value;
        let op = self.nodes[i].op;
        match op {
            Op::Leaf => {}
            // `+=`: several backward passes may share one set of buffers.
            Op::Param(id) => sink.get_mut(id).add_assign(&gy),
            Op::MatMul(a, b) => {
                if self.ng(a) {
                    let da = gy.matmul_nt(self.value(b));
                    self.bump_owned(grads, a, da, 1.0);
                }
                self.bump_tn(grads, b, self.value(a), &gy);
            }
            Op::Add(a, b) => {
                self.bump(grads, a, &gy, 1.0);
                self.bump_owned(grads, b, gy, 1.0);
            }
            Op::Sub(a, b) => {
                self.bump(grads, a, &gy, 1.0);
                self.bump_owned(grads, b, gy, -1.0);
            }
            Op::MulElem(a, b) => {
                if self.ng(a) {
                    let da = gy.mul_elem(self.value(b));
                    self.bump_owned(grads, a, da, 1.0);
                }
                if self.ng(b) {
                    let db = gy.mul_elem(self.value(a));
                    self.bump_owned(grads, b, db, 1.0);
                }
            }
            Op::AddRowBroadcast(a, b) => {
                let db = self.ng(b).then(|| column_sums(&gy));
                self.bump_owned(grads, a, gy, 1.0);
                if let Some(db) = db {
                    self.bump_owned(grads, b, db, 1.0);
                }
            }
            Op::Scale(a, s) => self.bump_owned(grads, a, gy, s),
            Op::AddScalar(a, _) => self.bump_owned(grads, a, gy, 1.0),
            Op::Sigmoid(a) => {
                let da = gy.zip(y, |g, yv| g * yv * (1.0 - yv));
                self.bump_owned(grads, a, da, 1.0);
            }
            Op::Tanh(a) => {
                let da = gy.zip(y, |g, yv| g * (1.0 - yv * yv));
                self.bump_owned(grads, a, da, 1.0);
            }
            Op::Relu(a) => {
                let da = gy.zip(self.value(a), |g, x| if x > 0.0 { g } else { 0.0 });
                self.bump_owned(grads, a, da, 1.0);
            }
            Op::Exp(a) => {
                let da = gy.mul_elem(y);
                self.bump_owned(grads, a, da, 1.0);
            }
            Op::Ln(a) => {
                let da = gy.zip(self.value(a), |g, x| g / x);
                self.bump_owned(grads, a, da, 1.0);
            }
            Op::Softmax(a) => {
                // dX = Y * (dY - rowdot(dY, Y)) per row.
                let mut da = Tensor::zeros(y.rows(), y.cols());
                for r in 0..y.rows() {
                    let dot: f32 = gy.row(r).iter().zip(y.row(r)).map(|(&g, &s)| g * s).sum();
                    for c in 0..y.cols() {
                        da.set(r, c, y.get(r, c) * (gy.get(r, c) - dot));
                    }
                }
                self.bump_owned(grads, a, da, 1.0);
            }
            Op::LogSoftmax(a) => {
                // dX = dY - softmax(X) * rowsum(dY).
                let mut da = Tensor::zeros(y.rows(), y.cols());
                for r in 0..y.rows() {
                    let rowsum: f32 = gy.row(r).iter().sum();
                    for c in 0..y.cols() {
                        let soft = y.get(r, c).exp();
                        da.set(r, c, gy.get(r, c) - soft * rowsum);
                    }
                }
                self.bump_owned(grads, a, da, 1.0);
            }
            Op::ConcatRows(span) => {
                let mut start = 0;
                for &p in self.vars(span) {
                    let rows = self.value(p).rows();
                    self.bump_block(grads, p, (0, 0), &gy, (start, 0), (rows, gy.cols()));
                    start += rows;
                }
            }
            Op::ConcatCols(span) => {
                let mut start = 0;
                for &p in self.vars(span) {
                    let cols = self.value(p).cols();
                    self.bump_block(grads, p, (0, 0), &gy, (0, start), (gy.rows(), cols));
                    start += cols;
                }
            }
            Op::SliceRows(a, start) => {
                self.bump_block(grads, a, (start, 0), &gy, (0, 0), gy.shape());
            }
            Op::SliceCols(a, start) => {
                self.bump_block(grads, a, (0, start), &gy, (0, 0), gy.shape());
            }
            Op::SelectRows(a, span) => {
                if self.ng(a) {
                    scatter_rows(self.slot_mut(grads, a), self.idxs(span), &gy);
                }
            }
            Op::Transpose(a) => self.bump_owned(grads, a, gy.transpose(), 1.0),
            Op::Reshape(a) => {
                let (rows, cols) = self.value(a).shape();
                self.bump_owned(grads, a, Tensor::from_vec(rows, cols, gy.into_vec()), 1.0);
            }
            Op::SumAll(a) => {
                let src = self.value(a);
                let da = Tensor::full(src.rows(), src.cols(), gy.item());
                self.bump_owned(grads, a, da, 1.0);
            }
            Op::MeanAll(a) => {
                let src = self.value(a);
                let da = Tensor::full(src.rows(), src.cols(), gy.item() / src.len() as f32);
                self.bump_owned(grads, a, da, 1.0);
            }
            Op::RowSums(a) => {
                let src = self.value(a);
                let mut da = Tensor::zeros(src.rows(), src.cols());
                for r in 0..src.rows() {
                    let g = gy.get(r, 0);
                    da.row_mut(r).fill(g);
                }
                self.bump_owned(grads, a, da, 1.0);
            }
            Op::PickPerRow(a, span) => {
                if self.ng(a) {
                    let slot = self.slot_mut(grads, a);
                    for (r, &c) in self.idxs(span).iter().enumerate() {
                        slot.row_mut(r)[c] += gy.get(r, 0);
                    }
                }
            }
            Op::Clamp(a, lo, hi) => {
                let da = gy.zip(self.value(a), |g, x| if x > lo && x < hi { g } else { 0.0 });
                self.bump_owned(grads, a, da, 1.0);
            }
            Op::MinElem(a, b) => {
                let (ta, tb) = (self.value(a), self.value(b));
                if self.ng(a) {
                    let da = Tensor::from_vec(
                        ta.rows(),
                        ta.cols(),
                        (0..ta.len())
                            .map(|j| if ta.data()[j] <= tb.data()[j] { gy.data()[j] } else { 0.0 })
                            .collect(),
                    );
                    self.bump_owned(grads, a, da, 1.0);
                }
                if self.ng(b) {
                    let db = Tensor::from_vec(
                        tb.rows(),
                        tb.cols(),
                        (0..tb.len())
                            .map(|j| if tb.data()[j] < ta.data()[j] { gy.data()[j] } else { 0.0 })
                            .collect(),
                    );
                    self.bump_owned(grads, b, db, 1.0);
                }
            }
            Op::AddN(span) => {
                for &p in self.vars(span) {
                    self.bump(grads, p, &gy, 1.0);
                }
            }
            Op::Affine(x, w, b, act) => {
                // Activation VJP from the output, exactly as the standalone
                // activation nodes compute it (relu's `y > 0` mask equals the
                // composed kernel's `x > 0` test).
                let dz = match act {
                    FusedAct::None => gy,
                    FusedAct::Tanh => gy.zip(y, |g, yv| g * (1.0 - yv * yv)),
                    FusedAct::Relu => gy.zip(y, |g, yv| if yv > 0.0 { g } else { 0.0 }),
                };
                if self.ng(b) {
                    self.bump_owned(grads, b, column_sums(&dz), 1.0);
                }
                if self.ng(x) {
                    let dx = dz.matmul_nt(self.value(w));
                    self.bump_owned(grads, x, dx, 1.0);
                }
                self.bump_tn(grads, w, self.value(x), &dz);
            }
            Op::LogSoftmaxPick(a, span) => {
                // Composed pair's gradient: scatter gy to the picked column,
                // then dX = dY - softmax(X) * rowsum(dY), where rowsum of the
                // scattered row is just gy[r]. `lse` is recomputed with the
                // forward's own op sequence, so `x - lse` has identical bits
                // to the stored log-probabilities of the composed version.
                let src = self.value(a);
                let mut da = Tensor::zeros(src.rows(), src.cols());
                for (r, &picked) in self.idxs(span).iter().enumerate() {
                    let row = src.row(r);
                    let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
                    let lse = row.iter().map(|&x| (x - max).exp()).sum::<f32>().ln() + max;
                    let g = gy.get(r, 0);
                    for (c, &xv) in row.iter().enumerate() {
                        let soft = (xv - lse).exp();
                        let gy_elem = if c == picked { g } else { 0.0 };
                        da.set(r, c, gy_elem - soft * g);
                    }
                }
                self.bump_owned(grads, a, da, 1.0);
            }
            Op::AddBlockBroadcast(e, d, span) => {
                let block_of = self.idxs(span);
                let (k, cols) = (gy.rows() / block_of.len().max(1), gy.cols());
                // Row `b`: block `b`'s column sums, rows ascending from `+0.0`.
                let mut dd = Tensor::zeros(block_of.len(), cols);
                for r in 0..gy.rows() {
                    for (s, &g) in dd.row_mut(r / k).iter_mut().zip(gy.row(r)) {
                        *s += g;
                    }
                }
                for (b, &blk) in block_of.iter().enumerate().rev() {
                    self.bump_block(grads, e, (blk * k, 0), &gy, (b * k, 0), (k, cols));
                    self.bump_block(grads, d, (b, 0), &dd, (b, 0), (1, cols));
                }
            }
            Op::LstmHidden(z, c, at) => {
                // h = o * tanh(c): `mul_elem`'s two products, then the tanh
                // VJP into `c` and the sigmoid VJP into `z`'s output-gate
                // columns.
                let h = gy.cols();
                let saved = &self.saved[at as usize];
                let mut dc = Tensor::zeros(gy.rows(), h);
                let mut dzo = Tensor::zeros(gy.rows(), h);
                for r in 0..gy.rows() {
                    let (o, tc) = (&saved.row(r)[3 * h..4 * h], &saved.row(r)[4 * h..]);
                    let (dc_row, dzo_row) = (dc.row_mut(r), dzo.row_mut(r));
                    for (j, &g) in gy.row(r).iter().enumerate() {
                        dc_row[j] = (g * o[j]) * (1.0 - tc[j] * tc[j]);
                        dzo_row[j] = (g * tc[j]) * o[j] * (1.0 - o[j]);
                    }
                }
                self.bump_block(grads, z, (0, 3 * h), &dzo, (0, 0), dzo.shape());
                self.bump_owned(grads, c, dc, 1.0);
            }
            Op::LstmCellState(z, c_prev, at) => {
                // c = f * c_prev + i * g: `add` hands `gy` to both products,
                // each `mul_elem` splits it, and the gate activations' VJPs
                // land in `z`'s first three column blocks.
                let h = gy.cols();
                let saved = &self.saved[at as usize];
                let cp = self.value(c_prev);
                let mut dz = Tensor::zeros(gy.rows(), 3 * h);
                let mut dcp = Tensor::zeros(gy.rows(), h);
                for r in 0..gy.rows() {
                    let gates = saved.row(r);
                    let (i, f, g) = (&gates[..h], &gates[h..2 * h], &gates[2 * h..3 * h]);
                    let (dz_row, dcp_row) = (dz.row_mut(r), dcp.row_mut(r));
                    for (j, &d) in gy.row(r).iter().enumerate() {
                        dz_row[j] = (d * g[j]) * i[j] * (1.0 - i[j]);
                        dz_row[h + j] = (d * cp.row(r)[j]) * f[j] * (1.0 - f[j]);
                        dz_row[2 * h + j] = (d * i[j]) * (1.0 - g[j] * g[j]);
                        dcp_row[j] = d * f[j];
                    }
                }
                self.bump_block(grads, z, (0, 0), &dz, (0, 0), dz.shape());
                self.bump_owned(grads, c_prev, dcp, 1.0);
            }
        }
    }
}

/// Scatter-adds row `r` of `gy` into row `indices[r]` of `slot`. Rows
/// gathered more than once are summed among themselves first (ascending
/// `r`, from `+0.0`) and their sum added, as a zero tensor with the rows
/// scattered into it and then added whole would.
fn scatter_rows(slot: &mut Tensor, indices: &[usize], gy: &Tensor) {
    let mut order: Vec<usize> = (0..indices.len()).collect();
    order.sort_by_key(|&r| indices[r]);
    let mut sum = vec![0.0f32; gy.cols()];
    for group in order.chunk_by(|&a, &b| indices[a] == indices[b]) {
        let dst = slot.row_mut(indices[group[0]]);
        if let [r] = group {
            for (d, &g) in dst.iter_mut().zip(gy.row(*r)) {
                *d += g;
            }
        } else {
            sum.fill(0.0);
            for &r in group {
                for (s, &g) in sum.iter_mut().zip(gy.row(r)) {
                    *s += g;
                }
            }
            for (d, &s) in dst.iter_mut().zip(&sum) {
                *d += s;
            }
        }
    }
}

/// `(n, m) -> (1, m)`: per-column sums, rows ascending from `+0.0` — the
/// gradient of a row vector broadcast over `n` rows.
fn column_sums(g: &Tensor) -> Tensor {
    let mut sums = Tensor::zeros(1, g.cols());
    for r in 0..g.rows() {
        for (s, &x) in sums.row_mut(0).iter_mut().zip(g.row(r)) {
            *s += x;
        }
    }
    sums
}
