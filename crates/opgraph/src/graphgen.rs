//! GraphGen: config-driven, seed-deterministic synthetic op-graph generation.
//!
//! The three hand-built benchmark graphs ([`crate::builders`]) cover 6,392
//! well-formed ops between them (1,182 + 2,935 + 2,275, pinned by
//! `tests/graph_identity.rs`); every policy, oracle, and bench used to see
//! only those. `GraphGen` generates a *distribution* of realistic training
//! graphs instead: each sample composes inception-style branch blocks, LSTM
//! stacks, transformer layers, and MoE-style wide fan-outs into an arbitrary
//! DAG (tens to 100k+ ops), with per-sample randomization of motif mix,
//! fan-out, depth, and memory pressure.
//!
//! Invariants every sample satisfies (checked by [`GraphGen::validate`] and
//! pinned by proptests):
//!
//! * acyclic, and id-ordered: every edge points from a lower to a higher op id,
//!   so insertion order is a topological order;
//! * positive, finite costs — `flops >= 0.0`, `out_bytes >= 4` for every tensor
//!   an op produces;
//! * realistic hierarchical name scopes (`inception3/b2_1x5/conv2d`,
//!   `transformer1/l0/h3/attn`, ...) so the hashed-prefix features in
//!   [`crate::features`] exercise real prefix diversity;
//! * same seed, same config → bit-identical graph (serialized form included).
//!
//! Consumers: the differential oracle in `tests/property_sim.rs` (graphs far
//! beyond the old 40-op cap), the checkpoint fuzzer (valid payloads to mutate),
//! the `graph_scale` experiment (10k/50k/100k-op stress graphs), and — per ROADMAP —
//! the multi-graph trainer's training distribution.

use crate::gb::Gb;
use crate::graph::{GraphError, OpGraph, OpId, OpKind};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Relative sampling weights for the four structural motifs. Weights need not
/// sum to one; a zero weight disables the motif. Each sample additionally
/// jitters the weights by a factor in `[0.5, 1.5]` so the motif *mix* varies
/// across a corpus even under one config.
#[derive(Debug, Clone, PartialEq)]
pub struct MotifWeights {
    /// Inception-style multi-branch convolution blocks joined by a concat.
    pub inception: f64,
    /// Stacked recurrent (LSTM) grids: layers x timesteps of fused cell ops.
    pub lstm: f64,
    /// Transformer encoder layers: per-head attention, FFN, residual + norm.
    pub transformer: f64,
    /// MoE-style wide fan-out: a router plus many parallel experts reduced
    /// back into one tensor.
    pub moe: f64,
}

impl Default for MotifWeights {
    fn default() -> Self {
        Self { inception: 1.0, lstm: 1.0, transformer: 1.0, moe: 1.0 }
    }
}

impl MotifWeights {
    fn sum(&self) -> f64 {
        self.inception + self.lstm + self.transformer + self.moe
    }

    fn validate(&self) -> Result<(), GraphError> {
        for (w, name) in [
            (self.inception, "inception"),
            (self.lstm, "lstm"),
            (self.transformer, "transformer"),
            (self.moe, "moe"),
        ] {
            if !w.is_finite() || w < 0.0 {
                return Err(GraphError::BadConfig(format!(
                    "MotifWeights::{name} must be finite and >= 0, got {w}"
                )));
            }
        }
        if self.sum() <= 0.0 {
            return Err(GraphError::BadConfig(
                "MotifWeights must have at least one positive weight".into(),
            ));
        }
        Ok(())
    }
}

/// Configuration surface of the generator. All `(lo, hi)` pairs are inclusive
/// ranges drawn from once per sample (memory pressure, batch) or once per
/// motif instance (fan-out, depth).
#[derive(Debug, Clone, PartialEq)]
pub struct GraphGenConfig {
    /// Approximate size (op count, *including* the mirrored backward pass when
    /// `training`) of each generated graph. Generation stops adding motifs
    /// once the projected size reaches this, so the final size lands within
    /// roughly one motif (a few hundred ops at most) of the target.
    pub target_ops: usize,
    /// Relative motif sampling weights.
    pub motifs: MotifWeights,
    /// Branches per inception block / experts per MoE block, drawn per motif.
    pub fan_out: (usize, usize),
    /// Stacked layers per LSTM / transformer motif, drawn per motif.
    pub depth: (usize, usize),
    /// Log-uniform multiplier on every tensor size, drawn once per sample.
    /// Values well above 1 push tensors toward the `e^30`-byte regime that
    /// stresses the feature scaling.
    pub memory_pressure: (f64, f64),
    /// Batch size, drawn once per sample.
    pub batch: (usize, usize),
    /// Mirror a backward pass + optimizer updates (training graph) or emit the
    /// forward pass only (inference graph).
    pub training: bool,
}

impl Default for GraphGenConfig {
    fn default() -> Self {
        Self {
            target_ops: 256,
            motifs: MotifWeights::default(),
            fan_out: (2, 6),
            depth: (1, 4),
            memory_pressure: (0.25, 4.0),
            batch: (1, 32),
            training: true,
        }
    }
}

impl GraphGenConfig {
    /// Default config scaled to roughly `target_ops` operations — the knob the
    /// scale bench and oracle turn.
    pub fn with_target(target_ops: usize) -> Self {
        Self { target_ops, ..Self::default() }
    }

    /// Rejects configs the generator cannot honor: empty or inverted ranges,
    /// non-positive motif weights, sub-minimal target sizes.
    pub fn validate(&self) -> Result<(), GraphError> {
        if self.target_ops < 8 {
            return Err(GraphError::BadConfig(format!(
                "target_ops must be >= 8 (stem + head alone take that), got {}",
                self.target_ops
            )));
        }
        self.motifs.validate()?;
        let ((flo, fhi), (dlo, dhi)) = (self.fan_out, self.depth);
        if flo < 1 || flo > fhi {
            return Err(GraphError::BadConfig(format!(
                "fan_out must satisfy 1 <= lo <= hi, got ({flo}, {fhi})"
            )));
        }
        if dlo < 1 || dlo > dhi {
            return Err(GraphError::BadConfig(format!(
                "depth must satisfy 1 <= lo <= hi, got ({dlo}, {dhi})"
            )));
        }
        let (plo, phi) = self.memory_pressure;
        if !(plo.is_finite() && phi.is_finite()) || plo <= 0.0 || plo > phi {
            return Err(GraphError::BadConfig(format!(
                "memory_pressure must satisfy 0 < lo <= hi (finite), got ({plo}, {phi})"
            )));
        }
        let (blo, bhi) = self.batch;
        if blo < 1 || blo > bhi {
            return Err(GraphError::BadConfig(format!(
                "batch must satisfy 1 <= lo <= hi, got ({blo}, {bhi})"
            )));
        }
        Ok(())
    }
}

/// Seed-deterministic generator over a validated [`GraphGenConfig`].
#[derive(Debug, Clone)]
pub struct GraphGen {
    cfg: GraphGenConfig,
}

/// Ops the stem (2) and head (3) contribute forward, times the worst-case
/// training multiplier; the motif loop leaves this much room for the head.
const HEAD_RESERVE: usize = 12;

impl GraphGen {
    /// Validates `cfg` and builds a generator; sampling itself cannot fail.
    pub fn new(cfg: GraphGenConfig) -> Result<Self, GraphError> {
        cfg.validate()?;
        Ok(Self { cfg })
    }

    /// The config this generator draws from.
    pub fn config(&self) -> &GraphGenConfig {
        &self.cfg
    }

    /// Generates one graph. Same `seed` (and config) → bit-identical graph.
    pub fn sample(&self, seed: u64) -> OpGraph {
        let mut s = Sampler::new(&self.cfg, seed);
        s.stem();
        let mut block = 0usize;
        while s.projection() + HEAD_RESERVE < self.cfg.target_ops {
            s.emit_block(block);
            block += 1;
        }
        s.head();
        let g = if self.cfg.training { s.gb.finish() } else { s.gb.finish_forward() };
        debug_assert!(Self::validate(&g).is_ok());
        g
    }

    /// Checks every generated-graph invariant: the structural/cost checks of
    /// [`OpGraph::validate`] plus the generator's stronger id-ordering
    /// guarantee (every edge goes from a lower to a higher id, making node
    /// order a topological order). Hand-built graphs may legally fail the
    /// ordering check; generated ones never should.
    pub fn validate(g: &OpGraph) -> Result<(), GraphError> {
        g.validate()?;
        for (from, to) in g.edges() {
            if from >= to {
                return Err(GraphError::BadConfig(format!(
                    "edge {} -> {} violates id-ordered construction",
                    from.0, to.0
                )));
            }
        }
        Ok(())
    }
}

/// Which motif a block instantiates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Motif {
    Inception,
    Lstm,
    Transformer,
    Moe,
}

/// One in-flight sample: the graph under construction plus the per-sample
/// draws (batch, width, memory pressure, jittered motif mix).
struct Sampler<'c> {
    cfg: &'c GraphGenConfig,
    rng: ChaCha8Rng,
    gb: Gb,
    /// Output of the most recent block; input to the next.
    frontier: OpId,
    /// Block outputs eligible as skip-connection sources.
    laterals: Vec<OpId>,
    batch: usize,
    hidden: usize,
    weights: MotifWeights,
}

impl<'c> Sampler<'c> {
    fn new(cfg: &'c GraphGenConfig, seed: u64) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let batch = rng.gen_range(cfg.batch.0..=cfg.batch.1);
        let hidden = rng.gen_range(32usize..=512);
        // Log-uniform: a corpus should span the pressure range evenly in
        // orders of magnitude, not cluster at the arithmetic mean.
        let (plo, phi) = cfg.memory_pressure;
        let pressure = (rng.gen_range(plo.ln()..=phi.ln())).exp();
        let jitter = |w: f64, rng: &mut ChaCha8Rng| w * rng.gen_range(0.5..=1.5);
        let weights = MotifWeights {
            inception: jitter(cfg.motifs.inception, &mut rng),
            lstm: jitter(cfg.motifs.lstm, &mut rng),
            transformer: jitter(cfg.motifs.transformer, &mut rng),
            moe: jitter(cfg.motifs.moe, &mut rng),
        };
        let mut gb = Gb::new(&format!("graphgen/seed{seed}"));
        gb.pressure = Some(pressure);
        Self { cfg, rng, gb, frontier: OpId(0), laterals: Vec::new(), batch, hidden, weights }
    }

    /// Ops the finished graph is projected to contain right now.
    fn projection(&self) -> usize {
        if self.cfg.training {
            self.gb.projected_len()
        } else {
            self.gb.g.len()
        }
    }

    fn fan_out(&mut self) -> usize {
        self.rng.gen_range(self.cfg.fan_out.0..=self.cfg.fan_out.1)
    }

    fn depth(&mut self) -> usize {
        self.rng.gen_range(self.cfg.depth.0..=self.cfg.depth.1)
    }

    fn pick_motif(&mut self) -> Motif {
        let w = self.weights.clone();
        let x = self.rng.gen::<f64>() * w.sum();
        if x < w.inception {
            Motif::Inception
        } else if x < w.inception + w.lstm {
            Motif::Lstm
        } else if x < w.inception + w.lstm + w.transformer {
            Motif::Transformer
        } else {
            Motif::Moe
        }
    }

    /// Input pipeline + one stem conv, mirroring how every real model starts.
    /// The conv is strided (FLOPs over the 299x299 input, a 149x149 output), so
    /// it is a plain `weighted` op rather than a same-size [`Gb::conv`].
    fn stem(&mut self) {
        let (b, h) = (self.batch, self.hidden);
        let px = b * 299 * 299 * 3;
        let input = self.gb.input("input/pipeline", px);
        let (flops, out) = (2.0 * (px * h * 9) as f64, b * 149 * 149 * h);
        let weight = ("stem/conv/weights", 3 * h * 9);
        self.frontier =
            self.gb.weighted("stem/conv2d", OpKind::Conv2d, flops, out, &[input], weight);
    }

    /// Classification/LM head: projection, softmax, loss.
    fn head(&mut self) {
        let vocab = self.rng.gen_range(100usize..=30_000);
        let (b, h) = (self.batch, self.hidden);
        let x = self.frontier;
        let logits = self.gb.linear("head/logits/matmul", "head/logits/weights", x, (b, h, vocab));
        let probs = self.gb.map("head/softmax", OpKind::Softmax, 3, b * vocab, &[logits]);
        self.frontier = self.gb.op("head/loss", OpKind::Loss, (b * vocab) as f64, 1, &[probs]);
    }

    /// One randomized block: an occasional skip connection from an earlier
    /// block output, then one weighted-random motif.
    fn emit_block(&mut self, idx: usize) {
        if !self.laterals.is_empty() && self.rng.gen_bool(0.25) {
            let pick = self.rng.gen_range(0..self.laterals.len());
            let skip = self.laterals[pick];
            let bytes = self.gb.g.node(self.frontier).out_bytes;
            self.frontier = self.gb.compute(
                &format!("skip{idx}/add"),
                OpKind::Elementwise,
                (bytes / 4) as f64,
                bytes,
                &[skip, self.frontier],
                None,
            );
        }
        match self.pick_motif() {
            Motif::Inception => self.emit_inception(idx),
            Motif::Lstm => self.emit_lstm(idx),
            Motif::Transformer => self.emit_transformer(idx),
            Motif::Moe => self.emit_moe(idx),
        }
        self.laterals.push(self.frontier);
        if self.laterals.len() > 8 {
            self.laterals.remove(0);
        }
    }

    /// Multi-branch convolution block: `fan_out` parallel branches of 1-3
    /// convs (mixed kernel sizes, occasional batch-norm + activation), joined
    /// by a concat.
    fn emit_inception(&mut self, idx: usize) {
        let scope = format!("inception{idx}");
        let branches = self.fan_out();
        let hw = self.rng.gen_range(7usize..=35);
        let cin = self.hidden;
        let positions = self.batch * hw * hw;
        let mut outs = Vec::with_capacity(branches);
        let mut cat_elems = 0;
        for b in 0..branches {
            let convs = self.rng.gen_range(1usize..=3);
            let cout = self.rng.gen_range(16usize..=cin.max(17));
            let mut cur = self.frontier;
            let mut c_prev = cin;
            for d in 0..convs {
                let k = [1usize, 3, 5][self.rng.gen_range(0..3usize)];
                let name = format!("{scope}/b{b}_{d}x{k}");
                cur = self.gb.conv(&name, cur, positions, c_prev, cout, k);
                if self.rng.gen_bool(0.5) {
                    cur = self.gb.bn_relu(&name, cur, positions * cout, cout);
                }
                c_prev = cout;
            }
            cat_elems += positions * c_prev;
            outs.push(cur);
        }
        // A copying concat: one FLOP per element moved.
        let name = format!("{scope}/concat");
        self.frontier = self.gb.map(&name, OpKind::Concat, 1, cat_elems, &outs);
    }

    /// Recurrent grid: `depth` stacked layers x 2-8 timesteps of fused
    /// `LstmCell` ops; each layer shares one kernel variable across steps
    /// (like GNMT), each cell depends on the cell below and the previous
    /// step of its own layer.
    fn emit_lstm(&mut self, idx: usize) {
        let scope = format!("lstm{idx}");
        let layers = self.depth();
        let steps = self.rng.gen_range(2usize..=8);
        let mut below: Vec<OpId> = vec![self.frontier; steps];
        for l in 0..layers {
            let kernel = self.gb.lstm_kernel(&format!("{scope}/l{l}/kernel"), self.hidden);
            let mut prev: Option<OpId> = None;
            for (t, b) in below.iter_mut().enumerate() {
                let name = format!("{scope}/l{l}/t{t}/cell");
                *b = self.gb.lstm_cell(&name, kernel, self.batch, *b, prev, 1);
                prev = Some(*b);
            }
        }
        self.frontier = *below.last().expect("steps >= 2");
    }

    /// Transformer encoder stack: per-head QKV matmul + attention, head
    /// concat, output projection, then a GELU FFN, with residual adds and
    /// layer norms around both sublayers.
    fn emit_transformer(&mut self, idx: usize) {
        let scope = format!("transformer{idx}");
        let layers = self.depth();
        let heads = 1usize << self.rng.gen_range(0u32..=3);
        let seq = self.rng.gen_range(8usize..=128);
        let h = self.hidden;
        let hd = (h / heads).max(1);
        let tokens = self.batch * seq;
        let tok_elems = tokens * h;
        let ff = 4 * h;
        let gb = &mut self.gb;
        // A one-op layer norm: its gamma, then five FLOPs per element.
        let layer_norm = |gb: &mut Gb, name: &str, input: OpId| -> OpId {
            let (gamma, flops) = (format!("{name}/gamma"), (5 * tok_elems) as f64);
            gb.weighted(name, OpKind::LayerNorm, flops, tok_elems, &[input], (&gamma, h))
        };
        for l in 0..layers {
            let n = |s: &str| format!("{scope}/l{l}/{s}");
            let x = self.frontier;
            let head_outs: Vec<OpId> = (0..heads)
                .map(|hh| {
                    let n = |s: &str| n(&format!("h{hh}/{s}"));
                    let qkv =
                        gb.linear(&n("qkv/matmul"), &n("qkv/weights"), x, (tokens, h, 3 * hd));
                    let flops = 2.0 * (tokens * seq * hd) as f64;
                    gb.op(&n("attn"), OpKind::Attention, flops, tokens * hd, &[qkv])
                })
                .collect();
            // A copying concat: one FLOP per element moved.
            let cat = gb.map(&n("heads/concat"), OpKind::Concat, 1, tok_elems, &head_outs);
            let proj = gb.linear(&n("proj/matmul"), &n("proj/weights"), cat, (tokens, h, h));
            let res1 = gb.map(&n("res1/add"), OpKind::Elementwise, 1, tok_elems, &[x, proj]);
            let ln1 = layer_norm(gb, &n("ln1"), res1);
            let ffn1 = gb.linear(&n("ffn/matmul1"), &n("ffn/w1"), ln1, (tokens, h, ff));
            let gelu = gb.map(&n("ffn/gelu"), OpKind::Activation, 8, tokens * ff, &[ffn1]);
            let ffn2 = gb.linear(&n("ffn/matmul2"), &n("ffn/w2"), gelu, (tokens, ff, h));
            let res2 = gb.map(&n("res2/add"), OpKind::Elementwise, 1, tok_elems, &[ln1, ffn2]);
            self.frontier = layer_norm(gb, &n("ln2"), res2);
        }
    }

    /// Mixture-of-experts block: a softmax router fanning out to `fan_out`
    /// parallel expert MLPs, reduced back into one tensor — the widest
    /// fan-out/fan-in structure in the corpus.
    fn emit_moe(&mut self, idx: usize) {
        let n = |s: &str| format!("moe{idx}/{s}");
        let experts = self.fan_out();
        let (b, h) = (self.batch, self.hidden);
        let x = self.frontier;
        let gb = &mut self.gb;
        let router = gb.linear(&n("router/matmul"), &n("router/weights"), x, (b, h, experts));
        let gates = gb.map(&n("router/softmax"), OpKind::Softmax, 3, b * experts, &[router]);
        let mut combined = vec![gates];
        for e in 0..experts {
            let n = |s: &str| n(&format!("e{e}/{s}"));
            let ff = gb.linear(&n("matmul"), &n("w"), x, (b, h, h));
            combined.push(gb.map(&n("gelu"), OpKind::Activation, 8, b * h, &[ff]));
        }
        // The reduce reads every expert's output once.
        self.frontier = gb.map(&n("combine"), OpKind::Reduce, experts, b * h, &combined);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Phase;

    #[test]
    fn same_seed_is_bit_identical() {
        let gen = GraphGen::new(GraphGenConfig::default()).unwrap();
        let a = gen.sample(42);
        let b = gen.sample(42);
        assert_eq!(a.to_json(), b.to_json());
    }

    #[test]
    fn different_seeds_differ() {
        let gen = GraphGen::new(GraphGenConfig::default()).unwrap();
        let a = gen.sample(1);
        let b = gen.sample(2);
        assert_ne!(a.to_json(), b.to_json());
    }

    #[test]
    fn sweep_holds_all_invariants() {
        let gen = GraphGen::new(GraphGenConfig::default()).unwrap();
        for seed in 0..24 {
            let g = gen.sample(seed);
            GraphGen::validate(&g).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }

    #[test]
    fn sizes_track_target() {
        for target in [64usize, 512, 4096] {
            let gen = GraphGen::new(GraphGenConfig::with_target(target)).unwrap();
            for seed in [0u64, 7, 99] {
                let g = gen.sample(seed);
                let n = g.len();
                // A motif lands in one indivisible chunk, so allow one
                // motif's worth of slack on either side.
                assert!(
                    n >= target / 2 && n <= target + 600,
                    "target {target} seed {seed}: got {n} ops"
                );
            }
        }
    }

    #[test]
    fn forward_only_config_has_no_backward_ops() {
        let cfg = GraphGenConfig { training: false, ..GraphGenConfig::default() };
        let gen = GraphGen::new(cfg).unwrap();
        let g = gen.sample(5);
        assert!(g.nodes().iter().all(|n| n.phase == Phase::Forward));
        GraphGen::validate(&g).unwrap();
    }

    #[test]
    fn scales_to_large_graphs() {
        let gen = GraphGen::new(GraphGenConfig::with_target(10_000)).unwrap();
        let g = gen.sample(3);
        assert!(g.len() >= 9_000, "got {}", g.len());
        GraphGen::validate(&g).unwrap();
    }

    #[test]
    fn degenerate_configs_rejected() {
        for cfg in [
            GraphGenConfig { target_ops: 2, ..GraphGenConfig::default() },
            GraphGenConfig { fan_out: (0, 4), ..GraphGenConfig::default() },
            GraphGenConfig { fan_out: (5, 2), ..GraphGenConfig::default() },
            GraphGenConfig { depth: (0, 0), ..GraphGenConfig::default() },
            GraphGenConfig { memory_pressure: (0.0, 1.0), ..GraphGenConfig::default() },
            GraphGenConfig { memory_pressure: (4.0, 1.0), ..GraphGenConfig::default() },
            GraphGenConfig { batch: (0, 8), ..GraphGenConfig::default() },
            GraphGenConfig {
                motifs: MotifWeights { inception: 0.0, lstm: 0.0, transformer: 0.0, moe: 0.0 },
                ..GraphGenConfig::default()
            },
            GraphGenConfig {
                motifs: MotifWeights { inception: -1.0, ..MotifWeights::default() },
                ..GraphGenConfig::default()
            },
        ] {
            assert!(
                matches!(GraphGen::new(cfg.clone()), Err(GraphError::BadConfig(_))),
                "config accepted: {cfg:?}"
            );
        }
    }

    #[test]
    fn name_scopes_are_hierarchical() {
        let gen = GraphGen::new(GraphGenConfig::default()).unwrap();
        let g = gen.sample(11);
        let with_scope = g.nodes().iter().filter(|n| n.name.contains('/')).count();
        assert!(with_scope * 10 >= g.len() * 9, "{with_scope}/{} ops scoped", g.len());
    }
}
