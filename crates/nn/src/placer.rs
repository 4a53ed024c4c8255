//! The placer network: one [`Placer`] over three bodies — sequence-to-sequence
//! with Bahdanau attention (the paper's choice, Fig. 3a / Fig. 4), two graph
//! convolutions over the group graph (Fig. 3b) and Post's MLP.
//!
//! Each consumes a `(k, d_in)` matrix of group embeddings and emits one device
//! per group. The one decode, [`Placer::forward_batch`], takes each device from
//! a [`Draws`]: *sampled* from the episode's stream, or *teacher-forced* from a
//! given action sequence (to re-evaluate log-probabilities of old samples under
//! new parameters for PPO's ratio). A batch of one is the per-episode decode.

use std::sync::Arc;

use eagle_rl::Draws;
use eagle_tensor::{init, FusedAct, ParamId, Params, Tape, Tensor, Var};
use rand::Rng;

use crate::categorical::Categorical;
use crate::linear::{FeedForward, Linear};
use crate::lstm::{BiLstm, LstmCell, LstmState};

/// Where the attention context enters the decoder (paper Fig. 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttentionMode {
    /// Context is an extra *input* to the decoder LSTM (paper's pick for EAGLE:
    /// "the attention score is applied before feeding to the decoder").
    Before,
    /// Context is combined with the decoder *output* before the softmax
    /// (Hierarchical Planner's variant).
    After,
}

/// Output of one placer forward pass.
#[derive(Debug, Clone)]
pub struct PlacerOutput {
    /// Chosen device index per group.
    pub actions: Vec<usize>,
    /// Per-group log-probability of the chosen device, `(k, 1)` on the tape.
    pub step_log_probs: Var,
    /// Sum of log-probabilities (the joint placement log-probability), `1x1`.
    pub log_prob: Var,
    /// Mean per-step policy entropy, `1x1`.
    pub entropy: Var,
}

/// A placer: the layers between the group embeddings and a categorical over
/// devices per group, built by [`Placer::seq2seq`], [`Placer::gcn`] or
/// [`Placer::mlp`].
///
/// [`Placer::forward_batch`] decodes a whole minibatch with one
/// `(B·n, h)`-shaped matmul per layer, and episode `b`'s outputs do not depend
/// on its batch-mates (bit for bit; see the `eagle_rl::policy` bit-identity
/// contract).
#[derive(Debug, Clone)]
pub struct Placer {
    body: Body,
    n_devices: usize,
}

#[derive(Debug, Clone)]
enum Body {
    /// Draws one group at a time, each conditioned on the previous draw.
    Seq2Seq(Seq2Seq),
    /// Two graph convolutions with the `(k, k)` row-normalized adjacency `adj`,
    /// then `flat_heads`.
    Gcn { l1: FeedForward, l2: Linear, adj: Tensor },
    /// A ReLU MLP per group, then `flat_heads`.
    Mlp(FeedForward),
}

/// The sequence-to-sequence body (paper Fig. 3a): bi-LSTM encoder over group
/// embeddings, uni-LSTM decoder emitting one device per group, Bahdanau
/// content-based attention, previous decision fed back via a device embedding.
#[derive(Debug, Clone)]
struct Seq2Seq {
    input_proj: Linear,
    encoder: BiLstm,
    decoder: LstmCell,
    attn_enc: Linear,
    attn_dec: Linear,
    attn_v: ParamId,
    out: Linear,
    dev_emb: ParamId,
    mode: AttentionMode,
    hidden: usize,
}

impl Placer {
    /// The sequence-to-sequence placer. `hidden` is the LSTM size (512 in the
    /// paper; smaller for quick experiments), `attn_dim` the attention space.
    #[allow(clippy::too_many_arguments)]
    pub fn seq2seq(
        params: &mut Params,
        name: &str,
        d_in: usize,
        hidden: usize,
        attn_dim: usize,
        n_devices: usize,
        mode: AttentionMode,
        rng: &mut impl Rng,
    ) -> Self {
        let emb_dim = (hidden / 4).max(4);
        let dec_in = match mode {
            AttentionMode::Before => hidden + 2 * hidden + emb_dim,
            AttentionMode::After => hidden + emb_dim,
        };
        let out_in = match mode {
            AttentionMode::Before => hidden,
            AttentionMode::After => hidden + 2 * hidden,
        };
        let body = Seq2Seq {
            input_proj: Linear::new(params, &format!("{name}/in_proj"), d_in, hidden, rng),
            encoder: BiLstm::new(params, &format!("{name}/enc"), hidden, hidden, rng),
            decoder: LstmCell::new(params, &format!("{name}/dec"), dec_in, hidden, rng),
            attn_enc: Linear::new(params, &format!("{name}/attn_enc"), 2 * hidden, attn_dim, rng),
            attn_dec: Linear::new(params, &format!("{name}/attn_dec"), hidden, attn_dim, rng),
            attn_v: params.add(format!("{name}/attn_v"), init::xavier_uniform(attn_dim, 1, rng)),
            out: Linear::new(params, &format!("{name}/out"), out_in, n_devices, rng),
            // Row n_devices is the start-of-sequence token.
            dev_emb: params
                .add(format!("{name}/dev_emb"), init::uniform(n_devices + 1, emb_dim, 0.1, rng)),
            mode,
            hidden,
        };
        Self { body: Body::Seq2Seq(body), n_devices }
    }

    /// The two-layer GCN placer: graph convolutions over the *group* graph,
    /// then an independent softmax per group. `adj` must be `(k, k)`,
    /// row-normalized with self-loops (see [`normalize_adjacency`]).
    pub fn gcn(
        params: &mut Params,
        name: &str,
        d_in: usize,
        hidden: usize,
        n_devices: usize,
        adj: Tensor,
        rng: &mut impl Rng,
    ) -> Self {
        assert_eq!(adj.rows(), adj.cols(), "adjacency must be square");
        let l1 =
            FeedForward::new(params, &format!("{name}/gc1"), &[d_in, hidden], FusedAct::None, rng);
        let l2 = Linear::new(params, &format!("{name}/gc2"), hidden, n_devices, rng);
        Self { body: Body::Gcn { l1, l2, adj }, n_devices }
    }

    /// Post's "simple neural network" placer: a `d_in -> hidden -> n_devices`
    /// ReLU MLP mapping each group embedding to an independent categorical
    /// over devices. No recurrence, no attention — the paper credits its
    /// stability (and blames its local optima) on exactly this simplicity.
    pub fn mlp(
        params: &mut Params,
        name: &str,
        d_in: usize,
        hidden: usize,
        n_devices: usize,
        rng: &mut impl Rng,
    ) -> Self {
        let net = FeedForward::new(params, name, &[d_in, hidden, n_devices], FusedAct::Relu, rng);
        Self { body: Body::Mlp(net), n_devices }
    }

    /// Number of devices the placer chooses among.
    pub fn num_devices(&self) -> usize {
        self.n_devices
    }

    /// Decodes one placement per episode in a single batched pass. `xs` holds
    /// one `(k, d_in)` input per episode — passing the *same* `Var` for every
    /// episode makes shared-input work (e.g. the encoder) run once. Episode
    /// `b` takes one device per group, in group order, from `draws`: sampled
    /// from its own stream, or replayed.
    pub fn forward_batch(
        &self,
        tape: &mut Tape,
        params: &Params,
        xs: &[Var],
        draws: Draws<'_, '_>,
    ) -> Vec<PlacerOutput> {
        let bsz = xs.len();
        assert!(bsz > 0, "at least one episode");
        let k = tape.value(xs[0]).rows();
        for &x in xs {
            assert_eq!(tape.value(x).rows(), k, "all episodes share the group count");
        }
        assert_eq!(draws.episodes(), bsz, "one action source per episode");
        if let Draws::Replay(actions) = &draws {
            assert!(
                actions.iter().all(|a| a.len() == k),
                "replayed actions must cover every group"
            );
        }
        let logits = match &self.body {
            Body::Seq2Seq(s) => {
                let (uniq, ep_enc) = distinct_inputs(xs);
                let enc = s.encode(tape, params, &uniq);
                return s.decode(tape, params, &enc, &ep_enc, draws, self.n_devices);
            }
            Body::Gcn { l1, l2, adj } => {
                assert_eq!(adj.rows(), k, "adjacency size must match group count");
                let x = tape.concat_rows(xs); // (B·k, d)
                let a = tape.leaf(adj.clone());
                let xw = l1.forward(tape, params, x);
                let ax = propagate(tape, a, xw, bsz);
                let h1 = tape.relu(ax);
                let hw = l2.forward(tape, params, h1);
                propagate(tape, a, hw, bsz)
            }
            Body::Mlp(net) => {
                let x = tape.concat_rows(xs); // (B·k, d)
                net.forward(tape, params, x)
            }
        }; // (B·k, nd)
        flat_heads(tape, logits, draws, bsz, k)
    }

    /// Runs the seq2seq encoder over one input `x` and keeps its values, for
    /// a caller that decodes the same input under the same parameters many
    /// times; `None` for the GCN and MLP bodies, which encode nothing.
    pub fn encode(&self, tape: &mut Tape, params: &Params, x: Var) -> Option<Encoded> {
        let Body::Seq2Seq(s) = &self.body else { return None };
        let enc = s.encode(tape, params, &[x]);
        let vars = [enc.xs_h[0], enc.outs[0], enc.lasts[0], enc.keys];
        Some(Encoded(vars.map(|v| Arc::new(tape.value(v).clone()))))
    }

    /// [`Placer::forward_batch`] with every episode reading the input that
    /// `encoded` was made from: the same decoder loop, with the encoder's
    /// values put on the tape as leaves. The outputs' values equal that
    /// forward's bit for bit under the parameters `encoded` was made with;
    /// gradients reach only the decoder's parameters.
    pub fn forward_encoded(
        &self,
        tape: &mut Tape,
        params: &Params,
        encoded: &Encoded,
        draws: Draws<'_, '_>,
    ) -> Vec<PlacerOutput> {
        let Body::Seq2Seq(s) = &self.body else { panic!("only a seq2seq placer encodes") };
        let [proj, outs, last, keys] =
            encoded.0.each_ref().map(|t| tape.leaf_shared(Arc::clone(t)));
        let enc = Encoding { xs_h: vec![proj], outs: vec![outs], lasts: vec![last], keys };
        let ep_enc = vec![0; draws.episodes()];
        s.decode(tape, params, &enc, &ep_enc, draws, self.n_devices)
    }
}

/// The values of one seq2seq encoder pass (see [`Placer::encode`]), what the
/// decoder loop reads that no draw changes: the input projection `(k, h)`, the
/// bi-LSTM outputs `(k, 2h)` and last forward state `(1, h)`, the attention
/// keys `(k, a)`.
#[derive(Debug, Clone)]
pub struct Encoded([Arc<Tensor>; 4]);

/// An encoder pass over `u` distinct inputs on the tape: per input its
/// projection, bi-LSTM outputs and last forward state, and every input's
/// attention keys stacked `(u·k, a)`.
struct Encoding {
    xs_h: Vec<Var>,
    outs: Vec<Var>,
    lasts: Vec<Var>,
    keys: Var,
}

/// Episodes passing the same input `Var` share one encoder pass: the distinct
/// inputs in first-use order, and each episode's slot among them.
fn distinct_inputs(xs: &[Var]) -> (Vec<Var>, Vec<usize>) {
    let mut uniq: Vec<Var> = Vec::new();
    let ep_enc = xs
        .iter()
        .map(|&x| {
            uniq.iter().position(|&v| v == x).unwrap_or_else(|| {
                uniq.push(x);
                uniq.len() - 1
            })
        })
        .collect();
    (uniq, ep_enc)
}

impl Seq2Seq {
    /// Batched Bahdanau context: one `(B, 2h)` context matrix for `B` decoder
    /// states at once. `enc_outs` holds one entry per *distinct* encoder pass,
    /// `enc_proj` their attention keys stacked as `(u·k, a)`, and `ep_enc[b]`
    /// maps episode `b` to its entry.
    ///
    /// Row `b` is bit-identical to a one-episode context for episode `b`: the
    /// pre-activation adds episode `b`'s decoder projection to its encoder's
    /// keys, the score matmul batches as extra rows (`(B·k, a) @ (a, 1)`), the
    /// `(B, k)` score layout is the `(B·k, 1)` column read row-major, softmax
    /// is per-row, and the context matmul's inner summation order over `k` is
    /// unchanged.
    fn context_batch(
        &self,
        tape: &mut Tape,
        params: &Params,
        enc_outs: &[Var],
        enc_proj: Var,
        ep_enc: &[usize],
        dec_h: Var,
    ) -> Var {
        let bsz = ep_enc.len();
        let k = tape.value(enc_outs[0]).rows();
        let dec_proj = self.attn_dec.forward(tape, params, dec_h); // (B, a)
        let pre = tape.add_block_broadcast(enc_proj, enc_outs.len(), dec_proj, ep_enc); // (B·k, a)
        let act = tape.tanh(pre);
        let v = tape.param(params, self.attn_v);
        let scores = tape.matmul(act, v); // (B·k, 1)
        let score_mat = tape.reshape(scores, bsz, k); // (B, k)
        let alpha = tape.softmax(score_mat); // (B, k)
        if enc_outs.len() == 1 {
            tape.matmul(alpha, enc_outs[0]) // (B, 2h)
        } else {
            let ctxs: Vec<Var> = (0..bsz)
                .map(|b| {
                    let a_row = tape.slice_rows(alpha, b, 1);
                    tape.matmul(a_row, enc_outs[ep_enc[b]]) // (1, 2h)
                })
                .collect();
            tape.concat_rows(&ctxs)
        }
    }

    /// The encoder half of a decode: input projection, bi-LSTM encoder and
    /// attention keys, run once per distinct input and stacked as `(u·k, ·)`
    /// rows; with one distinct input the stacking and un-stacking record
    /// nothing (`Tape::concat_rows`).
    fn encode(&self, tape: &mut Tape, params: &Params, uniq: &[Var]) -> Encoding {
        let (u, k) = (uniq.len(), tape.value(uniq[0]).rows());
        let stacked = tape.concat_rows(uniq);
        let proj = self.input_proj.forward(tape, params, stacked); // (u·k, h)
        let xs_h: Vec<Var> = (0..u).map(|j| tape.slice_rows(proj, j * k, k)).collect();
        let enc_res = self.encoder.forward_batch(tape, params, &xs_h);
        let (outs, lasts): (Vec<Var>, Vec<Var>) = enc_res.iter().map(|(o, s)| (*o, s.h)).unzip();
        let enc_stacked = tape.concat_rows(&outs);
        let keys = self.attn_enc.forward(tape, params, enc_stacked); // (u·k, a)
        Encoding { xs_h, outs, lasts, keys }
    }

    /// The decoder loop over an encoding: episode `b` reads distinct input
    /// `ep_enc[b]` and takes its devices from `draws`; device `n_devices` of
    /// the embedding table is the start token.
    fn decode(
        &self,
        tape: &mut Tape,
        params: &Params,
        enc: &Encoding,
        ep_enc: &[usize],
        mut draws: Draws<'_, '_>,
        n_devices: usize,
    ) -> Vec<PlacerOutput> {
        let Encoding { xs_h, outs: enc_outs, lasts, keys: enc_proj } = enc;
        let (bsz, k, u) = (ep_enc.len(), tape.value(xs_h[0]).rows(), xs_h.len());

        // Decoder state: episode b starts from its encoder's last forward state.
        let h0_rows: Vec<Var> = ep_enc.iter().map(|&e| lasts[e]).collect();
        let h0 = tape.concat_rows(&h0_rows);
        let mut state = LstmState { h: h0, c: tape.leaf(Tensor::zeros(bsz, self.hidden)) };
        let dev_table = tape.param(params, self.dev_emb);
        let mut prev: Vec<usize> = vec![n_devices; bsz]; // start token
        let mut actions_ep: Vec<Vec<usize>> = vec![Vec::with_capacity(k); bsz];
        let mut step_logps = Vec::with_capacity(k);
        let mut step_ents = Vec::with_capacity(k);
        let mut same_row = vec![0; bsz];

        for i in 0..k {
            // A shared input is one gather. Distinct inputs go through the
            // per-input slices the encoder also reads: a gather over the
            // stacked `proj` instead would re-associate the sum that reaches
            // its gradient (DESIGN.md "Batched policy API").
            let x_i = if u == 1 {
                same_row.fill(i);
                tape.select_rows(xs_h[0], &same_row) // (B, h)
            } else {
                let rows: Vec<Var> =
                    ep_enc.iter().map(|&e| tape.slice_rows(xs_h[e], i, 1)).collect();
                tape.concat_rows(&rows)
            };
            let prev_emb = tape.select_rows(dev_table, &prev); // (B, e)
            let logits = match self.mode {
                AttentionMode::Before => {
                    let ctx =
                        self.context_batch(tape, params, enc_outs, *enc_proj, ep_enc, state.h);
                    let inp = tape.concat_cols(&[x_i, ctx, prev_emb]);
                    state = self.decoder.step(tape, params, inp, state);
                    self.out.forward(tape, params, state.h)
                }
                AttentionMode::After => {
                    let inp = tape.concat_cols(&[x_i, prev_emb]);
                    state = self.decoder.step(tape, params, inp, state);
                    let ctx =
                        self.context_batch(tape, params, enc_outs, *enc_proj, ep_enc, state.h);
                    let combined = tape.concat_cols(&[state.h, ctx]);
                    self.out.forward(tape, params, combined)
                }
            }; // (B, nd)
            let dist = Categorical::new(tape, logits);
            let acts: Vec<usize> =
                (0..bsz).map(|b| draws.action(b, i, |rng| dist.sample(tape, b, rng))).collect();
            let logp = dist.log_prob(tape, &acts); // (B, 1)
            let plogp = dist.p_log_p(tape);
            let rsum = tape.row_sums(plogp); // (B, 1)
            let ent = tape.neg(rsum);
            for (b, &a) in acts.iter().enumerate() {
                actions_ep[b].push(a);
            }
            prev = acts;
            step_logps.push(logp);
            step_ents.push(ent);
        }

        // (B, k): column i holds step i, so row b is episode b's step sequence.
        let logp_mat = tape.concat_cols(&step_logps);
        let ent_mat = tape.concat_cols(&step_ents);
        actions_ep
            .into_iter()
            .enumerate()
            .map(|(b, actions)| {
                let lp_row = tape.slice_rows(logp_mat, b, 1); // (1, k)
                let log_prob = tape.sum_all(lp_row);
                let step_log_probs = tape.transpose(lp_row); // (k, 1)
                let ent_row = tape.slice_rows(ent_mat, b, 1);
                let entropy = tape.mean_all(ent_row);
                PlacerOutput { actions, step_log_probs, log_prob, entropy }
            })
            .collect()
    }
}

/// One graph convolution's propagation, `adj · h` per episode: episode `b`'s
/// rows `b·k..(b+1)·k` of `h` times the `(k, k)` adjacency `adj`, restacked.
/// Each block is the one-episode product, and at batch size 1 the slice and
/// the stack record nothing.
fn propagate(tape: &mut Tape, adj: Var, h: Var, bsz: usize) -> Var {
    let k = tape.value(adj).rows();
    let blocks: Vec<Var> = (0..bsz)
        .map(|b| {
            let hb = tape.slice_rows(h, b * k, k);
            tape.matmul(adj, hb)
        })
        .collect();
    tape.concat_rows(&blocks)
}

/// The head of the placers that decide every group independently: from
/// `(bsz·k, nd)` logits, episode `b` owns rows `b·k..(b+1)·k` and takes its
/// actions from `draws` in row order; its entropy is the mean over its rows.
fn flat_heads(
    tape: &mut Tape,
    logits: Var,
    mut draws: Draws<'_, '_>,
    bsz: usize,
    k: usize,
) -> Vec<PlacerOutput> {
    let dist = Categorical::new(tape, logits);
    let mut flat = Vec::with_capacity(bsz * k);
    for b in 0..bsz {
        flat.extend((0..k).map(|i| draws.action(b, i, |rng| dist.sample(tape, b * k + i, rng))));
    }
    let picked = dist.log_prob(tape, &flat); // (B·k, 1)
    let plogp = dist.p_log_p(tape);
    (0..bsz)
        .map(|b| {
            let step_log_probs = tape.slice_rows(picked, b * k, k);
            let log_prob = tape.sum_all(step_log_probs);
            let ep_plogp = tape.slice_rows(plogp, b * k, k);
            let total = tape.sum_all(ep_plogp);
            let entropy = tape.scale(total, -1.0 / k as f32);
            PlacerOutput {
                actions: flat[b * k..(b + 1) * k].to_vec(),
                step_log_probs,
                log_prob,
                entropy,
            }
        })
        .collect()
}

/// Builds the row-normalized group adjacency (with self-loops) the GCN placer
/// expects, from a hard op-to-group assignment.
pub fn normalize_adjacency(graph: &eagle_opgraph::OpGraph, group_of: &[usize], k: usize) -> Tensor {
    let mut adj = Tensor::zeros(k, k);
    for (u, v) in graph.edges() {
        let (gu, gv) = (group_of[u.index()], group_of[v.index()]);
        if gu != gv {
            adj.set(gu, gv, 1.0);
            adj.set(gv, gu, 1.0);
        }
    }
    for i in 0..k {
        adj.set(i, i, 1.0);
    }
    for r in 0..k {
        let sum: f32 = adj.row(r).iter().sum();
        for c in 0..k {
            let v = adj.get(r, c) / sum;
            adj.set(r, c, v);
        }
    }
    adj
}

#[cfg(test)]
mod tests {
    use super::*;
    use eagle_rl::sample_categorical;
    use eagle_tensor::Grads;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// Scores and entropy for one serial decode step.
    fn step_policy(
        tape: &mut Tape,
        logits: Var,
        forced: Option<usize>,
        rng: &mut dyn rand::RngCore,
    ) -> (usize, Var, Var) {
        let log_probs = tape.log_softmax(logits);
        let probs = tape.softmax(logits);
        let action = match forced {
            Some(a) => a,
            None => sample_categorical(tape.value(probs).row(0), rng),
        };
        let logp = tape.pick_per_row(log_probs, &[action]);
        let plogp = tape.mul_elem(probs, log_probs);
        let sum = tape.sum_all(plogp);
        let ent = tape.neg(sum);
        (action, logp, ent)
    }

    /// The hand-written one-episode seq2seq decode: the differential oracle
    /// [`Placer::forward_batch`] is compared against bit for bit. It shares
    /// the layers but none of the batching logic (input dedup, row stacking,
    /// per-episode slicing).
    impl Seq2Seq {
        /// Bahdanau context for the current decoder state.
        fn context(
            &self,
            tape: &mut Tape,
            params: &Params,
            enc_outs: Var,
            enc_proj: Var,
            dec_h: Var,
        ) -> Var {
            let dec_proj = self.attn_dec.forward(tape, params, dec_h); // (1, a)
            let pre = tape.add_row_broadcast(enc_proj, dec_proj); // (k, a)
            let act = tape.tanh(pre);
            let v = tape.param(params, self.attn_v);
            let scores = tape.matmul(act, v); // (k, 1)
            let scores_row = tape.transpose(scores); // (1, k)
            let alpha = tape.softmax(scores_row); // (1, k)
            tape.matmul(alpha, enc_outs) // (1, 2h)
        }

        /// [`Seq2Seq::context_batch`] with the pre-activation and the
        /// score layout built per episode — `slice_rows` +
        /// `add_row_broadcast` and `slice_rows` + `transpose` pairs stacked by
        /// `concat_rows`: the oracle the two fused nodes are held against.
        /// `keys` holds each encoder pass's attention keys as a node of its own.
        fn context_batch_composed(
            &self,
            tape: &mut Tape,
            params: &Params,
            enc_outs: &[Var],
            keys: &[Var],
            ep_enc: &[usize],
            dec_h: Var,
        ) -> Var {
            let bsz = ep_enc.len();
            let k = tape.value(enc_outs[0]).rows();
            let dec_proj = self.attn_dec.forward(tape, params, dec_h); // (B, a)
            let pres: Vec<Var> = (0..bsz)
                .map(|b| {
                    let row = tape.slice_rows(dec_proj, b, 1);
                    tape.add_row_broadcast(keys[ep_enc[b]], row) // (k, a)
                })
                .collect();
            let pre = tape.concat_rows(&pres); // (B·k, a)
            let act = tape.tanh(pre);
            let v = tape.param(params, self.attn_v);
            let scores = tape.matmul(act, v); // (B·k, 1)
            let rows: Vec<Var> = (0..bsz)
                .map(|b| {
                    let s = tape.slice_rows(scores, b * k, k);
                    tape.transpose(s) // (1, k)
                })
                .collect();
            let score_mat = tape.concat_rows(&rows); // (B, k)
            let alpha = tape.softmax(score_mat);
            if enc_outs.len() == 1 {
                return tape.matmul(alpha, enc_outs[0]); // (B, 2h)
            }
            let ctxs: Vec<Var> = (0..bsz)
                .map(|b| {
                    let a_row = tape.slice_rows(alpha, b, 1);
                    tape.matmul(a_row, enc_outs[ep_enc[b]]) // (1, 2h)
                })
                .collect();
            tape.concat_rows(&ctxs)
        }
    }

    impl Placer {
        /// The seq2seq body; panics on the other two.
        fn seq(&self) -> &Seq2Seq {
            match &self.body {
                Body::Seq2Seq(s) => s,
                _ => panic!("not a seq2seq placer"),
            }
        }

        fn forward_serial(
            &self,
            tape: &mut Tape,
            params: &Params,
            x: Var,
            forced: Option<&[usize]>,
            rng: &mut dyn rand::RngCore,
        ) -> PlacerOutput {
            let s = self.seq();
            let k = tape.value(x).rows();
            if let Some(f) = forced {
                assert_eq!(f.len(), k, "forced actions must cover every group");
            }
            let xs = s.input_proj.forward(tape, params, x); // (k, h)
            let (enc_outs, enc_last) = s.encoder.forward(tape, params, &[xs])[0]; // (k, 2h)
            let enc_proj = s.attn_enc.forward(tape, params, enc_outs); // (k, a)

            let mut state = LstmState { h: enc_last.h, c: tape.leaf(Tensor::zeros(1, s.hidden)) };
            let dev_table = tape.param(params, s.dev_emb);
            let mut prev_action = self.n_devices; // start token
            let mut actions = Vec::with_capacity(k);
            let mut logps = Vec::with_capacity(k);
            let mut ents = Vec::with_capacity(k);

            for i in 0..k {
                let x_i = tape.slice_rows(xs, i, 1); // (1, h)
                let prev_emb = tape.select_rows(dev_table, &[prev_action]); // (1, e)
                let logits = match s.mode {
                    AttentionMode::Before => {
                        let ctx = s.context(tape, params, enc_outs, enc_proj, state.h);
                        let inp = tape.concat_cols(&[x_i, ctx, prev_emb]);
                        state = s.decoder.step(tape, params, inp, state);
                        s.out.forward(tape, params, state.h)
                    }
                    AttentionMode::After => {
                        let inp = tape.concat_cols(&[x_i, prev_emb]);
                        state = s.decoder.step(tape, params, inp, state);
                        let ctx = s.context(tape, params, enc_outs, enc_proj, state.h);
                        let combined = tape.concat_cols(&[state.h, ctx]);
                        s.out.forward(tape, params, combined)
                    }
                };
                let (a, logp, ent) = step_policy(tape, logits, forced.map(|f| f[i]), rng);
                actions.push(a);
                prev_action = a;
                logps.push(logp);
                ents.push(ent);
            }

            let step_log_probs = tape.concat_rows(&logps);
            let log_prob = tape.sum_all(step_log_probs);
            let ent_stack = tape.concat_rows(&ents);
            let entropy = tape.mean_all(ent_stack);
            PlacerOutput { actions, step_log_probs, log_prob, entropy }
        }
    }

    /// [`Placer::forward_batch`] over one episode, replaying `forced` or
    /// sampling from `rng`.
    fn batch_of_one(
        placer: &Placer,
        tape: &mut Tape,
        params: &Params,
        x: Var,
        forced: Option<&[usize]>,
        rng: &mut dyn rand::RngCore,
    ) -> PlacerOutput {
        let mut outs = match forced {
            Some(a) => placer.forward_batch(tape, params, &[x], Draws::Replay(&[a])),
            None => placer.forward_batch(tape, params, &[x], Draws::Sample(&mut [rng])),
        };
        outs.pop().expect("one output per episode")
    }

    /// A one-episode decode: the oracle above, or [`batch_of_one`].
    type Serial = fn(
        &Placer,
        &mut Tape,
        &Params,
        Var,
        Option<&[usize]>,
        &mut dyn rand::RngCore,
    ) -> PlacerOutput;

    fn setup(mode: AttentionMode) -> (Params, Placer) {
        let mut params = Params::new();
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let placer = Placer::seq2seq(&mut params, "p", 7, 12, 8, 5, mode, &mut rng);
        (params, placer)
    }

    /// The row-normalized adjacency of a `k`-group chain `0 - 1 - … - k-1`.
    fn chain_adjacency(k: usize) -> Tensor {
        use eagle_opgraph::{OpGraph, OpKind, OpNode, Phase};
        let mut g = OpGraph::new("chain");
        let ops: Vec<_> = (0..k)
            .map(|i| g.add_node(OpNode::new(format!("op{i}"), OpKind::MatMul, Phase::Forward)))
            .collect();
        for w in ops.windows(2) {
            g.add_edge(w[0], w[1]);
        }
        normalize_adjacency(&g, &(0..k).collect::<Vec<_>>(), k)
    }

    fn run(
        params: &Params,
        placer: &Placer,
        serial: Serial,
        x: &Tensor,
        forced: Option<&[usize]>,
        seed: u64,
    ) -> (Vec<usize>, f32, f32) {
        let mut tape = Tape::new();
        let xv = tape.leaf(x.clone());
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let out = serial(placer, &mut tape, params, xv, forced, &mut rng);
        (out.actions.clone(), tape.value(out.log_prob).item(), tape.value(out.entropy).item())
    }

    /// Runs `forward_batch` and asserts every episode matches a `serial`
    /// per-episode replay bit-for-bit (actions, log-prob, entropy, per-step
    /// log-probs).
    fn assert_batch_matches_serial(
        params: &Params,
        placer: &Placer,
        serial: Serial,
        inputs: &[Tensor],
        seed: u64,
    ) {
        let k = inputs[0].rows();
        let mut tape = Tape::new();
        let xvs: Vec<Var> = inputs.iter().map(|x| tape.leaf(x.clone())).collect();
        let mut master = ChaCha8Rng::seed_from_u64(seed);
        let mut streams = eagle_rl::fork_streams(&mut master, k, inputs.len());
        let mut refs: Vec<&mut dyn rand::RngCore> =
            streams.iter_mut().map(|r| r as &mut dyn rand::RngCore).collect();
        let outs = placer.forward_batch(&mut tape, params, &xvs, Draws::Sample(&mut refs));
        assert_eq!(outs.len(), inputs.len());

        let mut serial_rng = ChaCha8Rng::seed_from_u64(seed);
        for (x, out) in inputs.iter().zip(&outs) {
            let mut ref_tape = Tape::new();
            let xv = ref_tape.leaf(x.clone());
            let ref_out = serial(placer, &mut ref_tape, params, xv, None, &mut serial_rng);
            assert_eq!(out.actions, ref_out.actions, "sampled actions diverge");
            assert_eq!(
                tape.value(out.log_prob).item().to_bits(),
                ref_tape.value(ref_out.log_prob).item().to_bits(),
                "log-prob not bit-identical"
            );
            assert_eq!(
                tape.value(out.entropy).item().to_bits(),
                ref_tape.value(ref_out.entropy).item().to_bits(),
                "entropy not bit-identical"
            );
            assert_eq!(
                tape.value(out.step_log_probs).data(),
                ref_tape.value(ref_out.step_log_probs).data(),
                "per-step log-probs diverge"
            );
        }
    }

    #[test]
    fn fused_context_matches_per_episode_composition_bitwise() {
        // Three chained contexts (each decoder state is cut from the previous
        // context), so the keys' gradient slot takes one deposit per episode
        // per step; encoder outputs and the first state are parameters, so
        // their gradients are compared along with the attention weights'.
        const STEPS: usize = 3;
        let (k, hidden) = (4, 12);
        // Batch 1, a batch sharing one encoder pass, and one over two passes.
        for ep_enc in [vec![0], vec![0; 10], vec![0, 1, 1, 0, 1, 0, 0, 1, 1, 0]] {
            let (mut params, placer) = setup(AttentionMode::Before);
            let s = placer.seq();
            let mut rng = ChaCha8Rng::seed_from_u64(19);
            let passes = ep_enc.iter().max().unwrap() + 1;
            let encs: Vec<_> = (0..passes)
                .map(|j| params.add(format!("enc{j}"), init::uniform(k, 2 * hidden, 1.0, &mut rng)))
                .collect();
            let h0 = params.add("h0", init::uniform(ep_enc.len(), hidden, 1.0, &mut rng));
            let weights: Vec<Tensor> = (0..STEPS)
                .map(|_| init::uniform(ep_enc.len(), 2 * hidden, 1.0, &mut rng))
                .collect();

            let run = |fused: bool| {
                let mut tape = Tape::new();
                let enc_outs: Vec<Var> = encs.iter().map(|&e| tape.param(&params, e)).collect();
                let stacked = if passes == 1 { enc_outs[0] } else { tape.concat_rows(&enc_outs) };
                let enc_proj = s.attn_enc.forward(&mut tape, &params, stacked);
                let keys: Vec<Var> = match (fused, passes) {
                    (true, _) => vec![],
                    (false, 1) => vec![enc_proj],
                    (false, _) => {
                        (0..passes).map(|j| tape.slice_rows(enc_proj, j * k, k)).collect()
                    }
                };
                let mut dec_h = tape.param(&params, h0);
                let (mut values, mut terms) = (Vec::new(), Vec::new());
                for w in &weights {
                    let (t, p) = (&mut tape, &params);
                    let ctx = if fused {
                        s.context_batch(t, p, &enc_outs, enc_proj, &ep_enc, dec_h)
                    } else {
                        s.context_batch_composed(t, p, &enc_outs, &keys, &ep_enc, dec_h)
                    };
                    values.push(tape.value(ctx).clone());
                    let w = tape.leaf(w.clone());
                    let weighted = tape.mul_elem(ctx, w);
                    terms.push(tape.sum_all(weighted));
                    let cut = tape.slice_cols(ctx, 0, hidden);
                    dec_h = tape.tanh(cut);
                }
                let loss = tape.add_n(&terms);
                let mut grads = Grads::for_params(&params);
                tape.backward_into(loss, &mut grads);
                (values, grads)
            };
            let (fused_values, fused_grads) = run(true);
            let (values, grads) = run(false);
            let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            for (t, (a, b)) in fused_values.iter().zip(&values).enumerate() {
                assert_eq!(bits(a), bits(b), "{ep_enc:?}: context {t}");
            }
            for id in params.ids() {
                assert_eq!(
                    fused_grads.get(id).map(bits),
                    grads.get(id).map(bits),
                    "{ep_enc:?}: gradient of {}",
                    params.name(id)
                );
            }
        }
    }

    #[test]
    fn seq2seq_forward_batch_matches_serial_shared_input() {
        for mode in [AttentionMode::Before, AttentionMode::After] {
            let (params, placer) = setup(mode);
            let oracle = Placer::forward_serial;
            // All episodes share one input tensor (the EAGLE agent's shape).
            let x = Tensor::full(6, 7, 0.3);
            let inputs = [x.clone(), x.clone(), x];
            assert_batch_matches_serial(&params, &placer, oracle, &inputs, 11);
            // Batch of one.
            assert_batch_matches_serial(&params, &placer, oracle, &inputs[..1], 11);
        }
    }

    #[test]
    fn seq2seq_forward_batch_matches_serial_distinct_inputs() {
        let (params, placer) = setup(AttentionMode::Before);
        // Distinct per-episode inputs (the HP agent's shape).
        let inputs: Vec<Tensor> =
            (0..3).map(|i| Tensor::full(6, 7, 0.1 * (i as f32 + 1.0))).collect();
        assert_batch_matches_serial(&params, &placer, Placer::forward_serial, &inputs, 12);
    }

    #[test]
    fn sampling_and_replay_record_the_same_forward() {
        // One forward either way: replaying the sampled actions records as
        // many nodes and the same log-prob and entropy bits, for every body.
        let mut params = Params::new();
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let placers = [
            Placer::seq2seq(&mut params, "b", 7, 12, 8, 5, AttentionMode::Before, &mut rng),
            Placer::seq2seq(&mut params, "a", 7, 12, 8, 5, AttentionMode::After, &mut rng),
            Placer::gcn(&mut params, "g", 7, 10, 5, chain_adjacency(4), &mut rng),
            Placer::mlp(&mut params, "m", 7, 10, 5, &mut rng),
        ];
        let inputs: Vec<Tensor> = (0..3).map(|_| init::uniform(4, 7, 1.0, &mut rng)).collect();
        for placer in &placers {
            let forward = |draws: Draws<'_, '_>| {
                let mut tape = Tape::new();
                let xs: Vec<Var> = inputs.iter().map(|x| tape.leaf(x.clone())).collect();
                let outs = placer.forward_batch(&mut tape, &params, &xs, draws);
                let bits = |v: Var| tape.value(v).item().to_bits();
                let heads: Vec<_> =
                    outs.iter().map(|o| (bits(o.log_prob), bits(o.entropy))).collect();
                let actions: Vec<Vec<usize>> = outs.into_iter().map(|o| o.actions).collect();
                (tape.len(), heads, actions)
            };
            let mut streams = eagle_rl::fork_streams(&mut rng, 4, inputs.len());
            let mut refs: Vec<&mut dyn rand::RngCore> =
                streams.iter_mut().map(|r| r as &mut dyn rand::RngCore).collect();
            let (len, heads, actions) = forward(Draws::Sample(&mut refs));
            let replay: Vec<&[usize]> = actions.iter().map(Vec::as_slice).collect();
            let (replay_len, replay_heads, replayed) = forward(Draws::Replay(&replay));
            assert_eq!(replayed, actions);
            assert_eq!(replay_len, len, "replay records a different number of nodes");
            assert_eq!(replay_heads, heads, "replay heads diverge from the sampled ones");
        }
    }

    #[test]
    fn gcn_and_simple_forward_batch_match_serial() {
        let mut params = Params::new();
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let gcn = Placer::gcn(&mut params, "g", 7, 10, 5, chain_adjacency(4), &mut rng);
        let simple = Placer::mlp(&mut params, "s", 7, 10, 5, &mut rng);
        // Distinct rows, so the propagation mixes groups that differ.
        let inputs: Vec<Tensor> = (0..4).map(|_| init::uniform(4, 7, 1.0, &mut rng)).collect();
        // Batch of B against B batch-of-one calls: no episode sees its mates.
        assert_batch_matches_serial(&params, &gcn, batch_of_one, &inputs, 21);
        assert_batch_matches_serial(&params, &simple, batch_of_one, &inputs, 22);
    }

    #[test]
    fn gcn_reaches_two_hops_and_no_further() {
        // Two graph convolutions over the chain 0 - 1 - 2 - 3: group 1's
        // log-probability reads group 3's embedding (two hops away), group 0's
        // does not (three hops), to the bit.
        let mut params = Params::new();
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let placer = Placer::gcn(&mut params, "g", 7, 10, 5, chain_adjacency(4), &mut rng);
        let x = init::uniform(4, 7, 1.0, &mut rng);
        let mut moved = x.clone();
        for c in 0..7 {
            moved.set(3, c, x.get(3, c) + 0.5);
        }
        let step_log_probs = |x: &Tensor| {
            let (mut tape, mut rng) = (Tape::new(), ChaCha8Rng::seed_from_u64(0));
            let xv = tape.leaf(x.clone());
            let out = batch_of_one(&placer, &mut tape, &params, xv, Some(&[0, 1, 2, 3]), &mut rng);
            tape.value(out.step_log_probs).data().iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        };
        let (before, after) = (step_log_probs(&x), step_log_probs(&moved));
        assert_ne!(before[1], after[1], "group 1 is two hops from group 3");
        assert_eq!(before[0], after[0], "group 0 is three hops from group 3");
    }

    #[test]
    fn forward_batch_teacher_forcing_matches_serial() {
        let (params, placer) = setup(AttentionMode::Before);
        let x = Tensor::full(5, 7, 0.1);
        let forced: Vec<Vec<usize>> = vec![vec![0, 1, 2, 3, 4], vec![4, 4, 4, 4, 4]];
        let forced_refs: Vec<&[usize]> = forced.iter().map(|a| a.as_slice()).collect();
        let mut tape = Tape::new();
        let xv = tape.leaf(x.clone());
        let outs = placer.forward_batch(&mut tape, &params, &[xv, xv], Draws::Replay(&forced_refs));
        for (a, out) in forced.iter().zip(&outs) {
            let (actions, logp, ent) =
                run(&params, &placer, Placer::forward_serial, &x, Some(a), 7);
            assert_eq!(&out.actions, a);
            assert_eq!(actions, *a);
            assert_eq!(tape.value(out.log_prob).item().to_bits(), logp.to_bits());
            assert_eq!(tape.value(out.entropy).item().to_bits(), ent.to_bits());
        }
    }

    #[test]
    fn forward_batch_gradients_match_serial_bitwise() {
        let (params, placer) = setup(AttentionMode::Before);
        let x = Tensor::full(4, 7, 0.2);
        let forced: Vec<Vec<usize>> = vec![vec![0, 1, 2, 3], vec![3, 2, 1, 0]];
        let forced_refs: Vec<&[usize]> = forced.iter().map(|a| a.as_slice()).collect();

        // Batched: one shared tape, per-episode backward in episode order.
        let mut batch_grads = Grads::for_params(&params);
        let mut tape = Tape::new();
        let xv = tape.leaf(x.clone());
        let outs = placer.forward_batch(&mut tape, &params, &[xv, xv], Draws::Replay(&forced_refs));
        for out in &outs {
            let loss = tape.neg(out.log_prob);
            tape.backward_into(loss, &mut batch_grads);
        }

        // Serial reference: separate tape per episode.
        let mut serial_grads = Grads::for_params(&params);
        for a in &forced {
            let mut t = Tape::new();
            let xv = t.leaf(x.clone());
            let out = placer.forward_serial(
                &mut t,
                &params,
                xv,
                Some(a),
                &mut ChaCha8Rng::seed_from_u64(0),
            );
            let loss = t.neg(out.log_prob);
            t.backward_into(loss, &mut serial_grads);
        }

        assert_eq!(
            batch_grads.global_norm().to_bits(),
            serial_grads.global_norm().to_bits(),
            "accumulated gradients diverge between batched and serial scoring"
        );
    }

    #[test]
    fn seq2seq_before_samples_valid_actions() {
        let (params, placer) = setup(AttentionMode::Before);
        let x = Tensor::full(6, 7, 0.3);
        let (actions, logp, ent) = run(&params, &placer, batch_of_one, &x, None, 1);
        assert_eq!(actions.len(), 6);
        assert!(actions.iter().all(|&a| a < 5));
        assert!(logp < 0.0, "log-prob of a sample is negative");
        assert!(ent > 0.0 && ent <= (5.0f32).ln() + 1e-4, "entropy in (0, ln 5]");
    }

    #[test]
    fn seq2seq_after_mode_works_too() {
        let (params, placer) = setup(AttentionMode::After);
        let x = Tensor::full(4, 7, -0.2);
        let (actions, logp, _) = run(&params, &placer, batch_of_one, &x, None, 2);
        assert_eq!(actions.len(), 4);
        assert!(logp.is_finite());
    }

    #[test]
    fn teacher_forcing_reproduces_log_prob() {
        let (params, placer) = setup(AttentionMode::Before);
        let fwd: Serial = batch_of_one;
        let x = Tensor::full(5, 7, 0.1);
        let (actions, logp_sampled, _) = run(&params, &placer, fwd, &x, None, 3);
        // Re-scoring the same actions must give the same joint log-probability.
        let (actions2, logp_forced, _) = run(&params, &placer, fwd, &x, Some(&actions), 99);
        assert_eq!(actions, actions2);
        assert_eq!(logp_sampled.to_bits(), logp_forced.to_bits());
    }

    #[test]
    fn different_forced_actions_change_log_prob() {
        let (params, placer) = setup(AttentionMode::Before);
        let fwd: Serial = batch_of_one;
        let x = Tensor::full(5, 7, 0.1);
        let (_, lp_a, _) = run(&params, &placer, fwd, &x, Some(&[0, 0, 0, 0, 0]), 1);
        let (_, lp_b, _) = run(&params, &placer, fwd, &x, Some(&[4, 4, 4, 4, 4]), 1);
        assert_ne!(lp_a, lp_b);
    }

    #[test]
    fn gcn_placer_shapes_and_determinism() {
        let mut params = Params::new();
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let placer = Placer::gcn(&mut params, "g", 7, 10, 5, chain_adjacency(4), &mut rng);
        let x = Tensor::full(4, 7, 0.5);
        let (a1, lp1, ent) = run(&params, &placer, batch_of_one, &x, None, 42);
        let (a2, lp2, _) = run(&params, &placer, batch_of_one, &x, None, 42);
        assert_eq!(a1, a2, "same sampling seed, same actions");
        assert_eq!(lp1, lp2);
        assert!(ent > 0.0);
        assert!(a1.iter().all(|&a| a < 5));
    }

    #[test]
    fn normalize_adjacency_rows_sum_to_one() {
        use eagle_opgraph::{OpGraph, OpKind, OpNode, Phase};
        let mut g = OpGraph::new("t");
        let a = g.add_node(OpNode::new("a", OpKind::MatMul, Phase::Forward));
        let b = g.add_node(OpNode::new("b", OpKind::MatMul, Phase::Forward));
        let c = g.add_node(OpNode::new("c", OpKind::MatMul, Phase::Forward));
        g.add_edge(a, b);
        g.add_edge(b, c);
        let adj = normalize_adjacency(&g, &[0, 1, 1], 2);
        for r in 0..2 {
            let s: f32 = adj.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-6);
        }
        assert!(adj.get(0, 1) > 0.0, "groups 0 and 1 are connected");
    }

    #[test]
    fn gradients_flow_through_placer() {
        let (params, placer) = setup(AttentionMode::Before);
        let x = Tensor::full(3, 7, 0.2);
        let mut tape = Tape::new();
        let xv = tape.leaf(x);
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let out = batch_of_one(&placer, &mut tape, &params, xv, None, &mut rng);
        let loss = tape.neg(out.log_prob);
        let mut grads = Grads::for_params(&params);
        tape.backward_into(loss, &mut grads);
        assert!(grads.global_norm() > 0.0, "some gradient must reach the params");
    }
}
