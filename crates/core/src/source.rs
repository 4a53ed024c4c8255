//! Graph sources: where the trainer's per-minibatch graphs come from.
//!
//! The generalist trainer samples one graph per minibatch from a
//! [`GraphSource`] — a fixed single graph (the classic single-benchmark
//! setup), a roster of named graphs visited round-robin or by weight, or a
//! seed-deterministic [`GraphGen`] config distribution. The source itself is
//! immutable; all sampling state lives in an external, serializable
//! [`SourceCursor`], so the position the trainer draws from is the position
//! its checkpoint stores.
//!
//! Held-out graphs for zero-shot evaluation come from the same source via
//! [`GraphSource::holdout_origins`] and are disjoint from the training stream
//! by construction: roster sources reserve the last `holdout` entries, and
//! generated sources give training draws *even* seeds and holdout graphs
//! *odd* seeds.

use std::fmt;

use eagle_devsim::CheckpointRng;
use eagle_opgraph::{GraphError, GraphGen, GraphGenConfig, OpGraph};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Errors from constructing a [`GraphSource`] or validating a holdout split.
#[derive(Debug, Clone, PartialEq)]
pub enum SourceError {
    /// A roster source needs at least one graph.
    EmptyRoster,
    /// A weighted roster entry has a non-finite or non-positive weight.
    BadWeight {
        /// Name of the offending roster entry.
        name: String,
        /// The rejected weight.
        weight: f64,
    },
    /// The generator config failed validation.
    Graph(GraphError),
    /// A fixed source cannot hold out its only graph.
    HoldoutUnsupported,
    /// The holdout split must leave at least one training graph.
    HoldoutTooLarge {
        /// Requested holdout size.
        holdout: usize,
        /// Number of graphs in the roster.
        roster: usize,
    },
}

impl fmt::Display for SourceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SourceError::EmptyRoster => write!(f, "graph roster is empty"),
            SourceError::BadWeight { name, weight } => {
                write!(f, "roster entry {name:?} has invalid weight {weight}")
            }
            SourceError::Graph(e) => write!(f, "graph generator config rejected: {e}"),
            SourceError::HoldoutUnsupported => {
                write!(f, "a fixed single-graph source cannot hold out graphs")
            }
            SourceError::HoldoutTooLarge { holdout, roster } => write!(
                f,
                "holdout of {holdout} graphs leaves no training graphs in a roster of {roster}"
            ),
        }
    }
}

impl std::error::Error for SourceError {}

impl From<GraphError> for SourceError {
    fn from(e: GraphError) -> Self {
        SourceError::Graph(e)
    }
}

/// Which arm of a [`GraphSource`] an origin refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OriginKind {
    /// The fixed single graph.
    Fixed,
    /// A roster entry; `key` is its index.
    Roster,
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
    /// Roster index or generator seed; 0 for fixed sources.
    pub key: u64,
}

impl GraphOrigin {
    /// Origin of the fixed single graph.
    pub fn fixed() -> Self {
        Self { kind: OriginKind::Fixed, key: 0 }
    }

    /// Origin of roster entry `index`.
    pub fn roster(index: usize) -> Self {
        Self { kind: OriginKind::Roster, key: index as u64 }
    }

    /// Origin of the generated graph with sample seed `seed`.
    pub fn generated(seed: u64) -> Self {
        Self { kind: OriginKind::Generated, key: seed }
    }
}

enum SourceKind {
    Fixed(OpGraph),
    Roster { graphs: Vec<(String, OpGraph)>, weights: Option<Vec<f64>> },
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
            SourceKind::Roster { graphs, weights } => write!(
                f,
                "GraphSource::Roster({} graphs, {})",
                graphs.len(),
                if weights.is_some() { "weighted" } else { "round-robin" }
            ),
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

    /// A named roster of graphs visited round-robin in training order.
    pub fn roster(graphs: Vec<(String, OpGraph)>) -> Result<Self, SourceError> {
        if graphs.is_empty() {
            return Err(SourceError::EmptyRoster);
        }
        Ok(Self { kind: SourceKind::Roster { graphs, weights: None }, seed: 0 })
    }

    /// A named roster sampled by weight; draws consume one `u64` of cursor
    /// randomness each.
    pub fn weighted(graphs: Vec<(String, OpGraph, f64)>, seed: u64) -> Result<Self, SourceError> {
        if graphs.is_empty() {
            return Err(SourceError::EmptyRoster);
        }
        for (name, _, w) in &graphs {
            if !w.is_finite() || *w <= 0.0 {
                return Err(SourceError::BadWeight { name: name.clone(), weight: *w });
            }
        }
        let weights = graphs.iter().map(|(_, _, w)| *w).collect();
        let graphs = graphs.into_iter().map(|(n, g, _)| (n, g)).collect();
        Ok(Self { kind: SourceKind::Roster { graphs, weights: Some(weights) }, seed })
    }

    /// A seed-deterministic [`GraphGen`] config distribution. Each training
    /// draw consumes one `u64` of cursor randomness and maps it to an *even*
    /// generator seed; holdout graphs use *odd* seeds, so the two sets are
    /// disjoint by parity.
    pub fn generated(cfg: GraphGenConfig, seed: u64) -> Result<Self, SourceError> {
        Ok(Self { kind: SourceKind::Generated(GraphGen::new(cfg)?), seed })
    }

    /// Whether this is a fixed single-graph source.
    pub fn is_fixed(&self) -> bool {
        matches!(self.kind, SourceKind::Fixed(_))
    }

    /// Seed the source was constructed with (0 for fixed / round-robin).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Fresh cursor positioned at the start of the training stream.
    pub fn initial_cursor(&self) -> SourceCursor {
        SourceCursor::new(self.seed)
    }

    /// Checks that holding out `holdout` graphs is possible for this source.
    pub fn validate_holdout(&self, holdout: usize) -> Result<(), SourceError> {
        match &self.kind {
            SourceKind::Fixed(_) if holdout > 0 => Err(SourceError::HoldoutUnsupported),
            SourceKind::Roster { graphs, .. } if holdout >= graphs.len() => {
                Err(SourceError::HoldoutTooLarge { holdout, roster: graphs.len() })
            }
            _ => Ok(()),
        }
    }

    /// Draws the next training-graph origin, advancing the cursor. The first
    /// `len - holdout` roster entries form the training pool; generated
    /// sources map cursor randomness to even seeds (see [`Self::generated`]).
    pub fn draw_train(&self, cursor: &mut SourceCursor, holdout: usize) -> GraphOrigin {
        let origin = match &self.kind {
            SourceKind::Fixed(_) => GraphOrigin::fixed(),
            SourceKind::Roster { graphs, weights } => {
                let pool = graphs.len() - holdout;
                let index = match weights {
                    None => (cursor.drawn % pool as u64) as usize,
                    Some(ws) => {
                        let total: f64 = ws[..pool].iter().sum();
                        let mut x = cursor.rng.gen::<f64>() * total;
                        let mut pick = pool - 1;
                        for (i, w) in ws[..pool].iter().enumerate() {
                            if x < *w {
                                pick = i;
                                break;
                            }
                            x -= w;
                        }
                        pick
                    }
                };
                GraphOrigin::roster(index)
            }
            SourceKind::Generated(_) => GraphOrigin::generated(cursor.rng.gen::<u64>() << 1),
        };
        cursor.drawn += 1;
        origin
    }

    /// The held-out origins for a split of `holdout` graphs. Deterministic in
    /// the source alone — independent of the cursor, so probing never
    /// perturbs the training stream.
    pub fn holdout_origins(&self, holdout: usize) -> Vec<GraphOrigin> {
        match &self.kind {
            SourceKind::Fixed(_) => Vec::new(),
            SourceKind::Roster { graphs, .. } => {
                (graphs.len() - holdout..graphs.len()).map(GraphOrigin::roster).collect()
            }
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
            (SourceKind::Roster { graphs, .. }, OriginKind::Roster) => {
                graphs[origin.key as usize].1.clone()
            }
            (SourceKind::Generated(gg), OriginKind::Generated) => gg.sample(origin.key),
            (_, kind) => panic!("origin {kind:?} does not belong to {self:?}"),
        }
    }

    /// Whether `origin` can be rebuilt by this source (used to give resumes
    /// from a checkpoint of a different source a typed error, not a panic).
    pub fn owns(&self, origin: &GraphOrigin) -> bool {
        match (&self.kind, origin.kind) {
            (SourceKind::Fixed(_), OriginKind::Fixed) => true,
            (SourceKind::Roster { graphs, .. }, OriginKind::Roster) => {
                (origin.key as usize) < graphs.len()
            }
            (SourceKind::Generated(_), OriginKind::Generated) => true,
            _ => false,
        }
    }

    /// Human-readable name for an origin's graph.
    pub fn name(&self, origin: &GraphOrigin) -> String {
        match (&self.kind, origin.kind) {
            (SourceKind::Fixed(g), OriginKind::Fixed) => g.model_name.clone(),
            (SourceKind::Roster { graphs, .. }, OriginKind::Roster) => {
                graphs[origin.key as usize].0.clone()
            }
            _ => format!("gen-{:016x}", origin.key),
        }
    }
}

const HOLDOUT_SALT: u64 = 0x9e37_79b9_7f4a_7c15;

/// SplitMix64 — the standard 64-bit seed mixer. Used to derive holdout,
/// environment and probe seeds from independent inputs.
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Mutable position in a [`GraphSource`]'s training stream: the stream RNG
/// and the number of draws made. Part of the checkpoint schema as it stands.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SourceCursor {
    rng: CheckpointRng,
    drawn: u64,
}

impl SourceCursor {
    /// The cursor of a source seeded with `seed`, before any draw.
    pub(crate) fn new(seed: u64) -> Self {
        Self { rng: CheckpointRng::seed_from_u64(seed), drawn: 0 }
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
        let o = src.draw_train(&mut c, 0);
        assert_eq!(o, GraphOrigin::fixed());
        assert_eq!(c.rng, before.rng);
        assert_eq!(c.drawn, 1);
        assert!(src.holdout_origins(0).is_empty());
        assert_eq!(src.validate_holdout(1), Err(SourceError::HoldoutUnsupported));
    }

    #[test]
    fn roster_round_robin_skips_holdout() {
        let g = tiny_graph();
        let src = GraphSource::roster(vec![
            ("a".into(), g.clone()),
            ("b".into(), g.clone()),
            ("c".into(), g),
        ])
        .unwrap();
        src.validate_holdout(1).unwrap();
        assert_eq!(
            src.validate_holdout(3),
            Err(SourceError::HoldoutTooLarge { holdout: 3, roster: 3 })
        );
        let mut c = src.initial_cursor();
        let picks: Vec<u64> = (0..5).map(|_| src.draw_train(&mut c, 1).key).collect();
        assert_eq!(picks, vec![0, 1, 0, 1, 0]);
        assert_eq!(src.holdout_origins(1), vec![GraphOrigin::roster(2)]);
        assert_eq!(src.name(&GraphOrigin::roster(2)), "c");
    }

    #[test]
    fn weighted_rejects_bad_weights_and_draws_training_pool_only() {
        let g = tiny_graph();
        let err = GraphSource::weighted(vec![("a".into(), g.clone(), f64::NAN)], 1).unwrap_err();
        assert!(matches!(err, SourceError::BadWeight { .. }));
        let src = GraphSource::weighted(
            vec![("a".into(), g.clone(), 1.0), ("b".into(), g.clone(), 2.0), ("c".into(), g, 1.0)],
            9,
        )
        .unwrap();
        let mut c = src.initial_cursor();
        for _ in 0..64 {
            let o = src.draw_train(&mut c, 1);
            assert!(o.key < 2, "holdout entry drawn for training");
        }
    }

    #[test]
    fn generated_training_and_holdout_seeds_are_parity_disjoint() {
        let src = GraphSource::generated(GraphGenConfig::with_target(24), 5).unwrap();
        let mut c = src.initial_cursor();
        for _ in 0..32 {
            let o = src.draw_train(&mut c, 2);
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
        let o = src.draw_train(&mut c, 0);
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
            src.draw_train(&mut c, 0);
        }
        let json = serde_json::to_string(&c).unwrap();
        let mut restored: SourceCursor = serde_json::from_str(&json).unwrap();
        assert_eq!(restored, c);
        let a = src.draw_train(&mut c, 0);
        let b = src.draw_train(&mut restored, 0);
        assert_eq!(a, b);
    }
}
