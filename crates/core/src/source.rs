//! Graph sources: where the trainer's per-minibatch graphs come from.
//!
//! The generalist trainer samples one graph per minibatch from a
//! [`GraphSource`] — a fixed single graph (the classic single-benchmark
//! setup) or a seed-deterministic [`GraphGen`] config distribution. The
//! source itself is immutable; all sampling state lives in an external,
//! serializable [`SourceCursor`], so the position the trainer draws from is
//! the position its checkpoint stores.
//!
//! Held-out graphs for zero-shot evaluation come from the same source via
//! [`GraphSource::holdout_origins`] and are disjoint from the training stream
//! by construction: generated sources give training draws *even* seeds and
//! holdout graphs *odd* seeds.

use std::fmt;

use eagle_devsim::CheckpointRng;
use eagle_opgraph::{GraphError, GraphGen, GraphGenConfig, OpGraph};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Which arm of a [`GraphSource`] an origin refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OriginKind {
    /// The fixed single graph.
    Fixed,
    /// A generated graph; `key` is the [`GraphGen`] sample seed.
    Generated,
}

/// A compact, serializable reference to one graph drawn from a
/// [`GraphSource`]. Rebuilding the graph from its origin is deterministic
/// ([`GraphSource::build`]), so checkpoints store origins instead of graphs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct GraphOrigin {
    /// Which source arm produced the graph.
    pub kind: OriginKind,
    /// Generator seed; 0 for fixed sources.
    pub key: u64,
}

impl GraphOrigin {
    /// Origin of the fixed single graph.
    pub fn fixed() -> Self {
        Self { kind: OriginKind::Fixed, key: 0 }
    }

    /// Origin of the generated graph with sample seed `seed`.
    pub fn generated(seed: u64) -> Self {
        Self { kind: OriginKind::Generated, key: seed }
    }
}

enum SourceKind {
    Fixed(OpGraph),
    Generated(GraphGen),
}

/// An immutable distribution of training graphs. See the module docs.
pub struct GraphSource {
    kind: SourceKind,
    seed: u64,
}

impl fmt::Debug for GraphSource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            SourceKind::Fixed(g) => write!(f, "GraphSource::Fixed({:?})", g.model_name),
            SourceKind::Generated(g) => {
                write!(f, "GraphSource::Generated(target_ops={})", g.config().target_ops)
            }
        }
    }
}

impl GraphSource {
    /// A single fixed graph — the classic single-benchmark trainer setup.
    /// Draws consume no source randomness, so single-graph training streams
    /// are bit-identical to the pre-multi-graph trainer.
    pub fn fixed(graph: OpGraph) -> Self {
        Self { kind: SourceKind::Fixed(graph), seed: 0 }
    }

    /// A seed-deterministic [`GraphGen`] config distribution. Each training
    /// draw consumes one `u64` of cursor randomness and maps it to an *even*
    /// generator seed; holdout graphs use *odd* seeds, so the two sets are
    /// disjoint by parity.
    pub fn generated(cfg: GraphGenConfig, seed: u64) -> Result<Self, GraphError> {
        Ok(Self { kind: SourceKind::Generated(GraphGen::new(cfg)?), seed })
    }

    /// Whether this is a fixed single-graph source.
    pub fn is_fixed(&self) -> bool {
        matches!(self.kind, SourceKind::Fixed(_))
    }

    /// Fresh cursor positioned at the start of the training stream.
    pub fn initial_cursor(&self) -> SourceCursor {
        SourceCursor::new(self.seed)
    }

    /// Draws the next training-graph origin, advancing the cursor. A fixed
    /// source leaves the cursor as it is; a generated one maps cursor
    /// randomness to even seeds (see [`Self::generated`]).
    pub fn draw_train(&self, cursor: &mut SourceCursor) -> GraphOrigin {
        match &self.kind {
            SourceKind::Fixed(_) => GraphOrigin::fixed(),
            SourceKind::Generated(_) => GraphOrigin::generated(cursor.rng.gen::<u64>() << 1),
        }
    }

    /// The first `draws` training origins of a run, one per minibatch:
    /// [`Self::draw_train`] replayed from [`Self::initial_cursor`]. The
    /// trainer's pool keeps only its most recent graphs; this names every
    /// graph a run trained on.
    pub fn train_draws(&self, draws: usize) -> Vec<GraphOrigin> {
        let mut cursor = self.initial_cursor();
        (0..draws).map(|_| self.draw_train(&mut cursor)).collect()
    }

    /// The held-out origins for a split of `holdout` graphs. Deterministic in
    /// the source alone — independent of the cursor, so evaluating them never
    /// perturbs the training stream.
    pub fn holdout_origins(&self, holdout: usize) -> Vec<GraphOrigin> {
        match &self.kind {
            SourceKind::Fixed(_) => Vec::new(),
            SourceKind::Generated(_) => (0..holdout as u64)
                .map(|i| {
                    GraphOrigin::generated((splitmix64(self.seed ^ HOLDOUT_SALT ^ i) << 1) | 1)
                })
                .collect(),
        }
    }

    /// Rebuilds the graph an origin refers to. Deterministic: the same origin
    /// always yields a bit-identical graph, which is what lets checkpoints
    /// and evicted pool entries store origins instead of graphs.
    pub fn build(&self, origin: &GraphOrigin) -> OpGraph {
        match (&self.kind, origin.kind) {
            (SourceKind::Fixed(g), OriginKind::Fixed) => g.clone(),
            (SourceKind::Generated(gg), OriginKind::Generated) => gg.sample(origin.key),
            (_, kind) => panic!("origin {kind:?} does not belong to {self:?}"),
        }
    }

    /// Whether `origin` can be rebuilt by this source (used to give resumes
    /// from a checkpoint of a different source a typed error, not a panic).
    pub fn owns(&self, origin: &GraphOrigin) -> bool {
        matches!(
            (&self.kind, origin.kind),
            (SourceKind::Fixed(_), OriginKind::Fixed)
                | (SourceKind::Generated(_), OriginKind::Generated)
        )
    }

    /// Human-readable name for an origin's graph.
    pub fn name(&self, origin: &GraphOrigin) -> String {
        match (&self.kind, origin.kind) {
            (SourceKind::Fixed(g), OriginKind::Fixed) => g.model_name.clone(),
            _ => format!("gen-{:016x}", origin.key),
        }
    }
}

const HOLDOUT_SALT: u64 = 0x9e37_79b9_7f4a_7c15;

/// SplitMix64 — the standard 64-bit seed mixer. Used to derive holdout and
/// environment seeds from independent inputs.
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Mutable position in a [`GraphSource`]'s training stream: the stream RNG.
/// Part of the checkpoint schema as it stands.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SourceCursor {
    rng: CheckpointRng,
}

impl SourceCursor {
    /// The cursor of a source seeded with `seed`, before any draw.
    pub(crate) fn new(seed: u64) -> Self {
        Self { rng: CheckpointRng::seed_from_u64(seed) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eagle_opgraph::builders::{self, GnmtConfig};

    fn tiny_graph() -> OpGraph {
        builders::try_gnmt(&GnmtConfig::tiny()).expect("tiny gnmt")
    }

    #[test]
    fn fixed_draws_consume_no_randomness() {
        let src = GraphSource::fixed(tiny_graph());
        let mut c = src.initial_cursor();
        let before = c.clone();
        let o = src.draw_train(&mut c);
        assert_eq!(o, GraphOrigin::fixed());
        assert_eq!(c, before);
        assert!(src.holdout_origins(0).is_empty());
    }

    #[test]
    fn generated_training_and_holdout_seeds_are_parity_disjoint() {
        let src = GraphSource::generated(GraphGenConfig::with_target(24), 5).unwrap();
        let mut c = src.initial_cursor();
        for _ in 0..32 {
            let o = src.draw_train(&mut c);
            assert_eq!(o.key % 2, 0, "training seeds must be even");
        }
        let holdout = src.holdout_origins(2);
        assert_eq!(holdout.len(), 2);
        for o in &holdout {
            assert_eq!(o.key % 2, 1, "holdout seeds must be odd");
        }
        // Deterministic: same source seed, same holdout.
        let src2 = GraphSource::generated(GraphGenConfig::with_target(24), 5).unwrap();
        assert_eq!(src2.holdout_origins(2), holdout);
    }

    #[test]
    fn build_is_deterministic_per_origin() {
        let src = GraphSource::generated(GraphGenConfig::with_target(24), 5).unwrap();
        let mut c = src.initial_cursor();
        let o = src.draw_train(&mut c);
        let g1 = src.build(&o);
        let g2 = src.build(&o);
        assert_eq!(g1.len(), g2.len());
        assert_eq!(g1.model_name, g2.model_name);
        assert!(src.owns(&o));
        assert!(!src.owns(&GraphOrigin::fixed()));
    }

    #[test]
    fn cursor_capture_restore_roundtrips() {
        let src = GraphSource::generated(GraphGenConfig::with_target(24), 7).unwrap();
        let mut c = src.initial_cursor();
        for _ in 0..3 {
            src.draw_train(&mut c);
        }
        let json = serde_json::to_string(&c).unwrap();
        let mut restored: SourceCursor = serde_json::from_str(&json).unwrap();
        assert_eq!(restored, c);
        let a = src.draw_train(&mut c);
        let b = src.draw_train(&mut restored);
        assert_eq!(a, b);
    }
}
