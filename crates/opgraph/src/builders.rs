//! Synthetic builders for the paper's three benchmark computational graphs.
//!
//! Each builder emits a *training* graph: forward pass, mirrored backward pass (with
//! independent weight-gradient branches — the source of most cross-device parallelism
//! in chain-structured models like BERT), and per-variable optimizer-update ops.
//!
//! FLOPs and tensor sizes are computed honestly from model dimensions. The TensorFlow
//! originals contain more fine-grained ops (shape inference, control flow, etc.); we
//! emit ops at the granularity placement papers reason about (one fused `LstmCell`
//! per timestep, one `Conv2d` per convolution, three ops per attention head), which
//! preserves the structural properties that drive placement decisions.
//!
//! A builder says *which* ops a model has, in which order and under which names;
//! what each op costs is the op vocabulary of the shared builder (`gb.rs`), which
//! GraphGen emits through as well.

use crate::gb::{Gb, LstmKernel};
use crate::graph::{GraphError, OpGraph, OpId, OpKind};

/// Fails with [`GraphError::BadConfig`] when `value` is zero, naming the field.
fn require_nonzero(value: usize, field: &str) -> Result<(), GraphError> {
    if value == 0 {
        Err(GraphError::BadConfig(format!("{field} must be >= 1, got 0")))
    } else {
        Ok(())
    }
}

/// Dimensions for [`try_gnmt`].
#[derive(Debug, Clone)]
pub struct GnmtConfig {
    /// Batch size (the paper raises it from 128 to 256 so the model OOMs one GPU).
    pub batch: usize,
    /// LSTM hidden size per layer.
    pub hidden: usize,
    /// Number of encoder/decoder LSTM layers (paper: the 4-layer variant).
    pub layers: usize,
    /// Source/target sequence length (paper limits to 20–50).
    pub seq_len: usize,
    /// Vocabulary size for the softmax projection.
    pub vocab: usize,
}

impl Default for GnmtConfig {
    fn default() -> Self {
        Self { batch: 256, hidden: 1024, layers: 4, seq_len: 50, vocab: 32768 }
    }
}

impl GnmtConfig {
    /// The smallest GNMT that still has every structure of the full one (a
    /// bidirectional layer, one residual layer, a recurrent edge, attention
    /// over several steps; 133 ops): the fixture the agent, trainer and
    /// checkpoint suites train on in milliseconds.
    pub fn tiny() -> Self {
        Self { batch: 2, hidden: 4, layers: 2, seq_len: 3, vocab: 20 }
    }

    /// Rejects degenerate dimensions ([`try_gnmt`] would otherwise panic on,
    /// e.g., `layers = 0`, which indexes the non-existent bottom decoder layer).
    pub fn validate(&self) -> Result<(), GraphError> {
        require_nonzero(self.batch, "GnmtConfig::batch")?;
        require_nonzero(self.hidden, "GnmtConfig::hidden")?;
        require_nonzero(self.layers, "GnmtConfig::layers")?;
        require_nonzero(self.seq_len, "GnmtConfig::seq_len")?;
        require_nonzero(self.vocab, "GnmtConfig::vocab")
    }
}

/// Dimensions for [`try_bert_base`].
#[derive(Debug, Clone)]
pub struct BertConfig {
    /// Batch size (paper: 24).
    pub batch: usize,
    /// Maximum sequence length (paper: 384).
    pub seq_len: usize,
    /// Hidden size (768 for BERT-Base).
    pub hidden: usize,
    /// Number of transformer layers (12 for BERT-Base).
    pub layers: usize,
    /// Number of attention heads (12 for BERT-Base).
    pub heads: usize,
    /// Feed-forward intermediate size (3072 for BERT-Base).
    pub ff: usize,
    /// Vocabulary size (30522 for BERT).
    pub vocab: usize,
}

impl Default for BertConfig {
    fn default() -> Self {
        Self { batch: 24, seq_len: 384, hidden: 768, layers: 12, heads: 12, ff: 3072, vocab: 30522 }
    }
}

impl BertConfig {
    /// Rejects degenerate dimensions ([`try_bert_base`] would otherwise panic
    /// on, e.g., `heads = 0`, a division by zero computing the head width).
    pub fn validate(&self) -> Result<(), GraphError> {
        require_nonzero(self.batch, "BertConfig::batch")?;
        require_nonzero(self.seq_len, "BertConfig::seq_len")?;
        require_nonzero(self.hidden, "BertConfig::hidden")?;
        require_nonzero(self.heads, "BertConfig::heads")?;
        require_nonzero(self.ff, "BertConfig::ff")?;
        require_nonzero(self.vocab, "BertConfig::vocab")?;
        if self.hidden < self.heads {
            return Err(GraphError::BadConfig(format!(
                "BertConfig::heads ({}) exceeds hidden ({}): zero-width attention heads",
                self.heads, self.hidden
            )));
        }
        Ok(())
    }
}

/// Dimensions for [`try_inception_v3`].
#[derive(Debug, Clone)]
pub struct InceptionConfig {
    /// Batch size (paper: 1).
    pub batch: usize,
}

impl Default for InceptionConfig {
    fn default() -> Self {
        Self { batch: 1 }
    }
}

impl InceptionConfig {
    /// Rejects a zero batch (every tensor in the graph would be zero-sized).
    pub fn validate(&self) -> Result<(), GraphError> {
        require_nonzero(self.batch, "InceptionConfig::batch")
    }
}

/// Builds the Inception-V3 training graph (Szegedy et al., CVPR'16 architecture:
/// stem, 3 "A" blocks at 35x35, reduction, 4 "B" blocks at 17x17, reduction,
/// 2 "C" blocks at 8x8, classifier head), batch size from `cfg` (paper: 1).
///
/// Degenerate dimensions ([`InceptionConfig::validate`]) come back as
/// [`GraphError::BadConfig`] instead of a panic deep inside construction (see
/// DESIGN.md, "Fallible graph construction").
pub fn try_inception_v3(cfg: &InceptionConfig) -> Result<OpGraph, GraphError> {
    cfg.validate()?;
    let b = cfg.batch;
    let mut gb = Gb::new("inception_v3");

    // Input pipeline: decode + preprocess stay CPU-friendly.
    let px = b * 299 * 299 * 3;
    let raw = gb.input("input/raw", px);
    let decode = gb.op("input/decode", OpKind::Input, 1e6 * b as f64, px, &[raw]);
    let preprocess = gb.map("input/preprocess", OpKind::Elementwise, 1, px, &[decode]);

    // A conv unit: Variable -> Conv2d -> BatchNorm (scale and shift) -> Activation.
    let conv_unit = |gb: &mut Gb,
                     name: &str,
                     input: OpId,
                     hw: usize,
                     cin: usize,
                     cout: usize,
                     k: usize|
     -> OpId {
        let conv = gb.conv(name, input, b * hw * hw, cin, cout, k);
        gb.bn_relu(name, conv, b * hw * hw * cout, 2 * cout)
    };
    // A 3x3 pool over, and a copy-free concat onto, a `hw x hw x c` map.
    let pool = |gb: &mut Gb, name: &str, input: OpId, hw: usize, c: usize| -> OpId {
        gb.map(name, OpKind::Pool, 9, b * hw * hw * c, &[input])
    };
    let concat = |gb: &mut Gb, name: &str, hw: usize, c: usize, branches: &[OpId]| -> OpId {
        gb.map(name, OpKind::Concat, 0, b * hw * hw * c, branches)
    };

    // Stem.
    let mut x = conv_unit(&mut gb, "stem/conv1", preprocess, 149, 3, 32, 3);
    x = conv_unit(&mut gb, "stem/conv2", x, 147, 32, 32, 3);
    x = conv_unit(&mut gb, "stem/conv3", x, 147, 32, 64, 3);
    x = pool(&mut gb, "stem/pool1", x, 73, 64);
    x = conv_unit(&mut gb, "stem/conv4", x, 73, 64, 80, 1);
    x = conv_unit(&mut gb, "stem/conv5", x, 71, 80, 192, 3);
    x = pool(&mut gb, "stem/pool2", x, 35, 192);

    // Inception block A (35x35): four parallel branches, concatenated.
    let block_a = |gb: &mut Gb, name: &str, input: OpId, cin: usize, pool_ch: usize| -> OpId {
        let hw = 35;
        let b1 = conv_unit(gb, &format!("{name}/b1x1"), input, hw, cin, 64, 1);
        let b5a = conv_unit(gb, &format!("{name}/b5x5_1"), input, hw, cin, 48, 1);
        let b5b = conv_unit(gb, &format!("{name}/b5x5_2"), b5a, hw, 48, 64, 5);
        let b3a = conv_unit(gb, &format!("{name}/b3x3_1"), input, hw, cin, 64, 1);
        let b3b = conv_unit(gb, &format!("{name}/b3x3_2"), b3a, hw, 64, 96, 3);
        let b3c = conv_unit(gb, &format!("{name}/b3x3_3"), b3b, hw, 96, 96, 3);
        let p = pool(gb, &format!("{name}/pool"), input, hw, cin);
        let bp = conv_unit(gb, &format!("{name}/bpool"), p, hw, cin, pool_ch, 1);
        concat(gb, &format!("{name}/concat"), hw, 64 + 64 + 96 + pool_ch, &[b1, b5b, b3c, bp])
    };

    x = block_a(&mut gb, "mixed0", x, 192, 32);
    x = block_a(&mut gb, "mixed1", x, 256, 64);
    x = block_a(&mut gb, "mixed2", x, 288, 64);

    // Reduction A: 35x35 -> 17x17.
    {
        let b3 = conv_unit(&mut gb, "mixed3/b3x3", x, 17, 288, 384, 3);
        let d1 = conv_unit(&mut gb, "mixed3/d1", x, 35, 288, 64, 1);
        let d2 = conv_unit(&mut gb, "mixed3/d2", d1, 35, 64, 96, 3);
        let d3 = conv_unit(&mut gb, "mixed3/d3", d2, 17, 96, 96, 3);
        let p = pool(&mut gb, "mixed3/pool", x, 17, 288);
        x = concat(&mut gb, "mixed3/concat", 17, 768, &[b3, d3, p]);
    }

    // Inception block B (17x17) with factorized 7x1/1x7 convolutions.
    let block_b = |gb: &mut Gb, name: &str, input: OpId, c7: usize| -> OpId {
        let hw = 17;
        let cin = 768;
        let b1 = conv_unit(gb, &format!("{name}/b1x1"), input, hw, cin, 192, 1);
        let p1 = conv_unit(gb, &format!("{name}/b7_1"), input, hw, cin, c7, 1);
        let p2 = conv_unit(gb, &format!("{name}/b7_2"), p1, hw, c7, c7, 3);
        let p3 = conv_unit(gb, &format!("{name}/b7_3"), p2, hw, c7, 192, 3);
        let q1 = conv_unit(gb, &format!("{name}/b7d_1"), input, hw, cin, c7, 1);
        let q2 = conv_unit(gb, &format!("{name}/b7d_2"), q1, hw, c7, c7, 3);
        let q3 = conv_unit(gb, &format!("{name}/b7d_3"), q2, hw, c7, c7, 3);
        let q4 = conv_unit(gb, &format!("{name}/b7d_4"), q3, hw, c7, c7, 3);
        let q5 = conv_unit(gb, &format!("{name}/b7d_5"), q4, hw, c7, 192, 3);
        let p = pool(gb, &format!("{name}/pool"), input, hw, cin);
        let bp = conv_unit(gb, &format!("{name}/bpool"), p, hw, cin, 192, 1);
        concat(gb, &format!("{name}/concat"), hw, 768, &[b1, p3, q5, bp])
    };

    x = block_b(&mut gb, "mixed4", x, 128);
    x = block_b(&mut gb, "mixed5", x, 160);
    x = block_b(&mut gb, "mixed6", x, 160);
    x = block_b(&mut gb, "mixed7", x, 192);

    // Reduction B: 17x17 -> 8x8.
    {
        let a1 = conv_unit(&mut gb, "mixed8/a1", x, 17, 768, 192, 1);
        let a2 = conv_unit(&mut gb, "mixed8/a2", a1, 8, 192, 320, 3);
        let c1 = conv_unit(&mut gb, "mixed8/c1", x, 17, 768, 192, 1);
        let c2 = conv_unit(&mut gb, "mixed8/c2", c1, 17, 192, 192, 3);
        let c3 = conv_unit(&mut gb, "mixed8/c3", c2, 8, 192, 192, 3);
        let p = pool(&mut gb, "mixed8/pool", x, 8, 768);
        x = concat(&mut gb, "mixed8/concat", 8, 1280, &[a2, c3, p]);
    }

    // Inception block C (8x8) with split branches.
    let block_c = |gb: &mut Gb, name: &str, input: OpId, cin: usize| -> OpId {
        let hw = 8;
        let b1 = conv_unit(gb, &format!("{name}/b1x1"), input, hw, cin, 320, 1);
        let m1 = conv_unit(gb, &format!("{name}/m1"), input, hw, cin, 384, 1);
        let m2a = conv_unit(gb, &format!("{name}/m2a"), m1, hw, 384, 384, 3);
        let m2b = conv_unit(gb, &format!("{name}/m2b"), m1, hw, 384, 384, 3);
        let n1 = conv_unit(gb, &format!("{name}/n1"), input, hw, cin, 448, 1);
        let n2 = conv_unit(gb, &format!("{name}/n2"), n1, hw, 448, 384, 3);
        let n3a = conv_unit(gb, &format!("{name}/n3a"), n2, hw, 384, 384, 3);
        let n3b = conv_unit(gb, &format!("{name}/n3b"), n2, hw, 384, 384, 3);
        let p = pool(gb, &format!("{name}/pool"), input, hw, cin);
        let bp = conv_unit(gb, &format!("{name}/bpool"), p, hw, cin, 192, 1);
        concat(gb, &format!("{name}/concat"), hw, 2048, &[b1, m2a, m2b, n3a, n3b, bp])
    };

    x = block_c(&mut gb, "mixed9", x, 1280);
    x = block_c(&mut gb, "mixed10", x, 2048);

    // Head: global 8x8 average pool, FC, softmax, loss.
    let pooled = gb.map("head/avgpool", OpKind::Pool, 8 * 8, b * 2048, &[x]);
    let drop = gb.map("head/dropout", OpKind::Elementwise, 1, b * 2048, &[pooled]);
    let logits = gb.linear("head/fc", "head/fc/weights", drop, (b, 2048, 1000));
    let softmax = gb.map("head/softmax", OpKind::Softmax, 4, b * 1000, &[logits]);
    gb.op("head/loss", OpKind::Loss, (b * 1000) as f64, 1, &[softmax]);

    Ok(gb.finish())
}

/// Builds the GNMT training graph (Wu et al. '16): bidirectional first encoder
/// layer, residual uni-directional stacks, per-step Bahdanau attention in the
/// decoder, shared softmax projection. One fused `LstmCell` op per (layer, step).
///
/// Degenerate dimensions ([`GnmtConfig::validate`]; e.g. `layers = 0`, which
/// would index the non-existent bottom decoder layer) come back as
/// [`GraphError::BadConfig`].
pub fn try_gnmt(cfg: &GnmtConfig) -> Result<OpGraph, GraphError> {
    cfg.validate()?;
    let GnmtConfig { batch, hidden, layers, seq_len, vocab } = *cfg;
    let mut gb = Gb::new("gnmt");
    let (state, seq) = (batch * hidden, batch * seq_len * hidden);

    // Training keeps c, h and the four gates pre- and post-activation per step,
    // which is what makes batch-256 GNMT overflow a single 16 GiB GPU.
    let cell = |gb: &mut Gb, name: String, kernel: LstmKernel, input: OpId, prev: Option<OpId>| {
        gb.lstm_cell(&name, kernel, batch, input, prev, 10)
    };
    let residual = |gb: &mut Gb, name: String, cell: OpId, input: OpId| -> OpId {
        gb.map(&name, OpKind::Elementwise, 1, state, &[cell, input])
    };
    // One side's embedding lookup, split into per-step slices.
    let embed_steps = |gb: &mut Gb, side: &str, ids: OpId| -> Vec<OpId> {
        let (name, table) = (format!("{side}/embedding"), format!("{side}/embedding/weights"));
        let weight = (table.as_str(), vocab * hidden);
        let emb = gb.weighted(&name, OpKind::Embedding, seq as f64, seq, &[ids], weight);
        (0..seq_len)
            .map(|t| gb.map(&format!("{side}/split/t{t}"), OpKind::Split, 0, state, &[emb]))
            .collect()
    };

    let src = gb.input("input/source_ids", batch * seq_len);
    let tgt = gb.input("input/target_ids", batch * seq_len);
    let src_steps = embed_steps(&mut gb, "encoder", src);

    // Encoder layer 0: bidirectional; the backward direction is built descending
    // in `t`, each cell reading the one after it.
    let wf = gb.lstm_kernel("encoder/layer0/fw/kernel", hidden);
    let wb = gb.lstm_kernel("encoder/layer0/bw/kernel", hidden);
    let (mut fw, mut bw) = (Vec::with_capacity(seq_len), vec![OpId(0); seq_len]);
    for (t, &x) in src_steps.iter().enumerate() {
        let prev = fw.last().copied();
        fw.push(cell(&mut gb, format!("encoder/layer0/fw/t{t}"), wf, x, prev));
    }
    for t in (0..seq_len).rev() {
        let prev = bw.get(t + 1).copied();
        bw[t] = cell(&mut gb, format!("encoder/layer0/bw/t{t}"), wb, src_steps[t], prev);
    }
    let mut enc: Vec<OpId> = (0..seq_len)
        .map(|t| {
            let name = format!("encoder/layer0/concat/t{t}");
            gb.map(&name, OpKind::Concat, 0, 2 * state, &[fw[t], bw[t]])
        })
        .collect();

    // Encoder layers 1..layers: uni-directional with residual connections,
    // layer-major (a whole layer before the next one starts).
    for l in 1..layers {
        let w = gb.lstm_kernel(&format!("encoder/layer{l}/kernel"), hidden);
        let mut prev = None;
        for (t, x) in enc.iter_mut().enumerate() {
            let c = cell(&mut gb, format!("encoder/layer{l}/t{t}"), w, *x, prev);
            prev = Some(c);
            *x = residual(&mut gb, format!("encoder/layer{l}/res/t{t}"), c, *x);
        }
    }
    // Encoder memory for attention.
    let memory = gb.map("encoder/memory", OpKind::Concat, 0, seq, &enc);

    // Decoder. The attention kernel is one variable read by every step, so it is
    // created once here and its ops stay on raw `compute`.
    let tgt_steps = embed_steps(&mut gb, "decoder", tgt);
    let w_att = gb.var("decoder/attention/kernel", 3 * hidden * hidden);
    let kernels: Vec<LstmKernel> =
        (0..layers).map(|l| gb.lstm_kernel(&format!("decoder/layer{l}/kernel"), hidden)).collect();

    // Step-major, unlike the encoder: step `t` runs the whole stack, bottom cell
    // to attention to top residual, before step `t + 1` starts.
    let mut prev: Vec<Option<OpId>> = vec![None; layers];
    let mut outputs = Vec::with_capacity(seq_len);
    let (att_flops, att_bytes) = (2.0 * (batch * seq_len * hidden * 2) as f64, gb.bytes(state));
    for (t, &tgt) in tgt_steps.iter().enumerate() {
        // Layer 0 consumes the attention context of the previous step implicitly via
        // its recurrent state; attention itself reads the bottom cell and memory.
        let c0 = cell(&mut gb, format!("decoder/layer0/t{t}"), kernels[0], tgt, prev[0]);
        prev[0] = Some(c0);
        let name = format!("decoder/attention/t{t}");
        let mut below =
            gb.compute(&name, OpKind::Attention, att_flops, att_bytes, &[c0, memory], Some(w_att));
        for l in 1..layers {
            let c = cell(&mut gb, format!("decoder/layer{l}/t{t}"), kernels[l], below, prev[l]);
            prev[l] = Some(c);
            below = residual(&mut gb, format!("decoder/layer{l}/res/t{t}"), c, below);
        }
        outputs.push(below);
    }

    let dec = gb.map("decoder/outputs", OpKind::Concat, 0, seq, &outputs);
    let (rows, logit_elems) = (batch * seq_len, batch * seq_len * vocab);
    let logits = gb.linear("softmax/projection", "softmax/weights", dec, (rows, hidden, vocab));
    let probs = gb.map("softmax/softmax", OpKind::Softmax, 4, logit_elems, &[logits]);
    gb.op("loss/cross_entropy", OpKind::Loss, logit_elems as f64, 1, &[probs, tgt]);

    Ok(gb.finish())
}

/// Builds the BERT-Base masked-LM training graph (Devlin et al. '19): embedding sum
/// + layer norm, 12 transformer layers (per-head attention at 3-op granularity,
///   GELU feed-forward, residual + layer-norm pairs), MLM head over the full vocab.
///
/// Degenerate dimensions ([`BertConfig::validate`]; e.g. `heads = 0`, which
/// would divide by zero computing the head width) come back as
/// [`GraphError::BadConfig`].
pub fn try_bert_base(cfg: &BertConfig) -> Result<OpGraph, GraphError> {
    cfg.validate()?;
    let BertConfig { batch, seq_len, hidden, layers, heads, ff, vocab } = *cfg;
    let mut gb = Gb::new("bert_base");
    let tokens = batch * seq_len;
    let hid = tokens * hidden;
    let head_dim = hidden / heads;

    // A projection of every token whose weight is named after it.
    let dense = |gb: &mut Gb, name: &str, input: OpId, k: usize, n: usize| -> OpId {
        gb.linear(name, &format!("{name}/weights"), input, (tokens, k, n))
    };
    // Layer normalization at TF granularity: moments (Reduce, two per token, each
    // over `hidden` elements), normalize (Elementwise), then scale-and-shift with
    // the gamma/beta variable.
    let layer_norm = |gb: &mut Gb, name: &str, input: OpId| -> OpId {
        let moments =
            gb.map(&format!("{name}/moments"), OpKind::Reduce, hidden, tokens * 2, &[input]);
        let normed =
            gb.map(&format!("{name}/normalize"), OpKind::Elementwise, 4, hid, &[input, moments]);
        let (op, gamma) = (format!("{name}/scale_shift"), format!("{name}/gamma"));
        let weight = (gamma.as_str(), 2 * hidden);
        gb.weighted(&op, OpKind::LayerNorm, (2 * hid) as f64, hid, &[normed], weight)
    };

    let ids = gb.input("input/input_ids", tokens);
    // The three embedding tables are created ahead of their three lookups, so
    // the lookups stay on raw `compute`.
    let tables = [("word", vocab), ("position", 512), ("segment", 2)]
        .map(|(nm, rows)| (nm, gb.var(&format!("embeddings/{nm}/weights"), rows * hidden)));
    let hid_bytes = gb.bytes(hid);
    let lookups = tables.map(|(nm, w)| {
        let name = format!("embeddings/{nm}");
        gb.compute(&name, OpKind::Embedding, hid as f64, hid_bytes, &[ids], Some(w))
    });
    let emb_sum = gb.map("embeddings/add", OpKind::Elementwise, 2, hid, &lookups);
    let mut x = layer_norm(&mut gb, "embeddings/layernorm", emb_sum);

    for l in 0..layers {
        let n = |s: &str| format!("layer{l}/{s}");
        // Q, K, V projections: three parallel matmuls off the same input.
        let [q, k, v] = ["query", "key", "value"].map(|nm| {
            let name = n(&format!("attention/{nm}"));
            let mm = dense(&mut gb, &name, x, hidden, hidden);
            gb.map(&format!("{name}/reshape"), OpKind::Reshape, 0, hid, &[mm])
        });

        // Per-head attention: scores, softmax, context — independent across heads.
        let scores_elems = batch * seq_len * seq_len;
        let head_flops = 2.0 * (scores_elems * head_dim) as f64;
        let head_outs: Vec<OpId> = (0..heads)
            .map(|h| {
                let n = |s: &str| n(&format!("attention/head{h}/{s}"));
                let scores = gb.op(&n("scores"), OpKind::MatMul, head_flops, scores_elems, &[q, k]);
                let scaled = gb.map(&n("scale"), OpKind::Elementwise, 1, scores_elems, &[scores]);
                let probs = gb.map(&n("softmax"), OpKind::Softmax, 4, scores_elems, &[scaled]);
                let dropped = gb.map(&n("dropout"), OpKind::Elementwise, 1, scores_elems, &[probs]);
                gb.op(&n("context"), OpKind::MatMul, head_flops, tokens * head_dim, &[dropped, v])
            })
            .collect();
        let merged = gb.map(&n("attention/merge"), OpKind::Concat, 0, hid, &head_outs);
        let att_out = dense(&mut gb, &n("attention/output"), merged, hidden, hidden);
        let att_drop =
            gb.map(&n("attention/output/dropout"), OpKind::Elementwise, 1, hid, &[att_out]);
        let res1 = gb.map(&n("attention/residual"), OpKind::Elementwise, 1, hid, &[att_drop, x]);
        let ln1 = layer_norm(&mut gb, &n("attention/layernorm"), res1);

        // Feed-forward.
        let ff1 = dense(&mut gb, &n("ffn/intermediate"), ln1, hidden, ff);
        let gelu = gb.map(&n("ffn/gelu"), OpKind::Activation, 8, tokens * ff, &[ff1]);
        let ff2 = dense(&mut gb, &n("ffn/output"), gelu, ff, hidden);
        let ff_drop = gb.map(&n("ffn/output/dropout"), OpKind::Elementwise, 1, hid, &[ff2]);
        let res2 = gb.map(&n("ffn/residual"), OpKind::Elementwise, 1, hid, &[ff_drop, ln1]);
        x = layer_norm(&mut gb, &n("ffn/layernorm"), res2);
    }

    // MLM head: transform + vocab projection.
    let tr = dense(&mut gb, "mlm/transform", x, hidden, hidden);
    let gelu = gb.map("mlm/gelu", OpKind::Activation, 8, hid, &[tr]);
    let logits = gb.linear("mlm/logits", "mlm/output/weights", gelu, (tokens, hidden, vocab));
    let probs = gb.map("mlm/softmax", OpKind::Softmax, 4, tokens * vocab, &[logits]);
    gb.op("loss/mlm", OpKind::Loss, (tokens * vocab) as f64, 1, &[probs]);

    Ok(gb.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Phase;

    #[test]
    fn inception_structure() {
        let g = try_inception_v3(&InceptionConfig::default()).expect("default config is valid");
        assert!(g.is_acyclic());
        assert!(g.len() > 800, "got {} ops", g.len());
        assert!(g.len() < 4000, "got {} ops", g.len());
        // Batch 1 training fits a single 16 GB GPU comfortably.
        assert!(g.total_bytes() < 8 * (1 << 30), "bytes = {}", g.total_bytes());
        // ~5.7 GFLOP forward * 3 for training, honest within 3x.
        let f = g.total_flops();
        assert!(f > 5e9 && f < 6e10, "flops = {f:e}");
    }

    #[test]
    fn gnmt_structure_and_memory() {
        let g = try_gnmt(&GnmtConfig::default()).expect("default config is valid");
        assert!(g.is_acyclic());
        assert!(g.len() > 1500, "got {} ops", g.len());
        assert!(g.len() < 9000, "got {} ops", g.len());
        // Batch 256 must NOT fit one 16 GB GPU (the paper's whole point)...
        assert!(g.total_bytes() > 16 * (1u64 << 30), "bytes = {}", g.total_bytes());
        // ...but must fit four of them.
        assert!(g.total_bytes() < 60 * (1u64 << 30), "bytes = {}", g.total_bytes());
    }

    #[test]
    fn bert_structure_and_memory() {
        let g = try_bert_base(&BertConfig::default()).expect("default config is valid");
        assert!(g.is_acyclic());
        assert!(g.len() > 2000, "got {} ops", g.len());
        assert!(g.len() < 15000, "got {} ops", g.len());
        assert!(g.total_bytes() > 16 * (1u64 << 30), "bytes = {}", g.total_bytes());
        assert!(g.total_bytes() < 60 * (1u64 << 30), "bytes = {}", g.total_bytes());
    }

    #[test]
    fn builders_are_deterministic() {
        let a = try_gnmt(&GnmtConfig::default()).expect("default config is valid");
        let b = try_gnmt(&GnmtConfig::default()).expect("default config is valid");
        assert_eq!(a.len(), b.len());
        assert_eq!(a.num_edges(), b.num_edges());
        assert_eq!(a.total_flops(), b.total_flops());
    }

    #[test]
    fn backward_ops_present_and_heavier() {
        let g = try_inception_v3(&InceptionConfig::default()).expect("default config is valid");
        let fwd_flops: f64 =
            g.nodes().iter().filter(|n| n.phase == Phase::Forward).map(|n| n.flops).sum();
        let bwd_flops: f64 =
            g.nodes().iter().filter(|n| n.phase == Phase::Backward).map(|n| n.flops).sum();
        assert!(bwd_flops > fwd_flops, "backward should dominate: {bwd_flops:e} vs {fwd_flops:e}");
        let updates = g.nodes().iter().filter(|n| n.phase == Phase::Update).count();
        assert!(updates > 50, "per-variable update ops expected, got {updates}");
    }

    #[test]
    fn update_ops_colocated_with_variables() {
        let g = try_bert_base(&BertConfig::default()).expect("default config is valid");
        for id in g.ids() {
            let n = g.node(id);
            if n.phase == Phase::Update {
                let coloc = n.colocation.expect("updates carry colocation");
                // Some Variable shares the colocation id.
                assert!(
                    g.nodes()
                        .iter()
                        .any(|m| m.kind == OpKind::Variable && m.colocation == Some(coloc)),
                    "update {} has no colocated variable",
                    n.name
                );
            }
        }
    }

    /// Regression: these degenerate configs used to panic inside the builders
    /// (`gnmt` indexed `dec_kernels[0]` with zero layers; `bert_base` divided
    /// by zero computing the per-head width). They must now surface as typed
    /// `GraphError::BadConfig` from the `try_` entry points.
    #[test]
    fn degenerate_configs_are_typed_errors_not_panics() {
        let zero_layers = GnmtConfig { layers: 0, ..GnmtConfig::default() };
        assert!(matches!(try_gnmt(&zero_layers), Err(GraphError::BadConfig(_))));

        let zero_seq = GnmtConfig { seq_len: 0, ..GnmtConfig::default() };
        assert!(matches!(try_gnmt(&zero_seq), Err(GraphError::BadConfig(_))));

        let zero_heads = BertConfig { heads: 0, ..BertConfig::default() };
        assert!(matches!(try_bert_base(&zero_heads), Err(GraphError::BadConfig(_))));

        let wide_heads = BertConfig { hidden: 4, heads: 8, ..BertConfig::default() };
        assert!(matches!(try_bert_base(&wide_heads), Err(GraphError::BadConfig(_))));

        let zero_batch = InceptionConfig { batch: 0 };
        assert!(matches!(try_inception_v3(&zero_batch), Err(GraphError::BadConfig(_))));
    }

    #[test]
    fn small_configs_scale_down() {
        let g = try_gnmt(&GnmtConfig { batch: 4, hidden: 8, layers: 2, seq_len: 3, vocab: 50 })
            .expect("valid config");
        assert!(g.is_acyclic());
        assert!(g.len() < 300);
        let b = try_bert_base(&BertConfig {
            batch: 2,
            seq_len: 8,
            hidden: 16,
            layers: 2,
            heads: 2,
            ff: 32,
            vocab: 30,
        })
        .expect("valid config");
        assert!(b.is_acyclic());
        assert!(b.len() < 400);
    }
}
