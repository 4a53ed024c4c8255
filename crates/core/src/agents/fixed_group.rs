//! Agents with a *fixed* grouping and a learned placer.
//!
//! These cover three of the paper's studies:
//! * Table I — heuristic groupers (METIS / fluid communities) under the
//!   hierarchical model's placer;
//! * Table II — placer comparison (seq2seq before/after attention vs GCN) with a
//!   fixed METIS grouping;
//! * the Post baseline — fixed groups plus a "simple neural network" placer,
//!   trained with PPO + cross-entropy minimization.

use eagle_devsim::{DeviceId, Machine, Placement};
use eagle_nn::{embedding, normalize_adjacency, AttentionMode, Placer};
use eagle_opgraph::OpGraph;
use eagle_rl::{BatchScoreHandle, EpisodeScore, StochasticPolicy};
use eagle_tensor::{Params, Tape, Tensor};
use rand::Rng;

use crate::scale::AgentScale;

use super::PlacementAgent;

/// Which placer network a [`FixedGroupAgent`] uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacerKind {
    /// Seq2seq with attention before the decoder (EAGLE's choice).
    Seq2SeqBefore,
    /// Seq2seq with attention after the decoder (Hierarchical Planner's choice).
    Seq2SeqAfter,
    /// Two-layer GCN over the group graph.
    Gcn,
    /// Post's simple per-group MLP.
    Simple,
}

impl PlacerKind {
    /// Table label.
    pub fn label(self) -> &'static str {
        match self {
            PlacerKind::Seq2SeqBefore => "Seq2Seq(before)",
            PlacerKind::Seq2SeqAfter => "Seq2Seq(after)",
            PlacerKind::Gcn => "GCN",
            PlacerKind::Simple => "Simple",
        }
    }
}

/// A placement agent over a fixed op-to-group assignment.
pub struct FixedGroupAgent {
    name: String,
    group_of: Vec<usize>,
    emb: Tensor,
    placer: Placer,
    devices: Vec<DeviceId>,
    num_groups: usize,
}

impl FixedGroupAgent {
    /// Builds the agent. `group_of` assigns each op of `graph` to one of `k`
    /// groups (from a heuristic partitioner or any other source).
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        params: &mut Params,
        name: impl Into<String>,
        graph: &OpGraph,
        machine: &Machine,
        group_of: Vec<usize>,
        num_groups: usize,
        kind: PlacerKind,
        scale: AgentScale,
        rng: &mut impl Rng,
    ) -> Self {
        assert_eq!(group_of.len(), graph.len(), "one group per op");
        assert!(group_of.iter().all(|&g| g < num_groups), "group index in range");
        let name = name.into();
        let emb = embedding::group_features(graph, &group_of, num_groups);
        let d_in = emb.cols();
        let devices = super::device_table(machine);
        let nd = devices.len();
        let pname = format!("{name}/placer");
        let (hidden, simple) = (scale.placer_hidden, scale.simple_hidden);
        let seq2seq = |params: &mut Params, mode, rng: &mut _| {
            Placer::seq2seq(params, &pname, d_in, hidden, scale.attn_dim, nd, mode, rng)
        };
        let placer = match kind {
            PlacerKind::Seq2SeqBefore => seq2seq(params, AttentionMode::Before, rng),
            PlacerKind::Seq2SeqAfter => seq2seq(params, AttentionMode::After, rng),
            PlacerKind::Gcn => {
                let adj = normalize_adjacency(graph, &group_of, num_groups);
                Placer::gcn(params, &pname, d_in, simple, nd, adj, rng)
            }
            PlacerKind::Simple => Placer::mlp(params, &pname, d_in, simple, nd, rng),
        };
        Self { name, group_of, emb, placer, devices, num_groups }
    }

    /// Builds the Post baseline: fixed groups + simple placer. Post groups
    /// operations before placing (manually / by co-location in its paper); we hand
    /// it the same groups the experiment uses for the other fixed-group agents.
    pub fn post(
        params: &mut Params,
        graph: &OpGraph,
        machine: &Machine,
        group_of: Vec<usize>,
        num_groups: usize,
        scale: AgentScale,
        rng: &mut impl Rng,
    ) -> Self {
        let mut agent = Self::new(
            params,
            "post",
            graph,
            machine,
            group_of,
            num_groups,
            PlacerKind::Simple,
            scale,
            rng,
        );
        agent.name = "Post".into();
        agent
    }

    /// The fixed grouping.
    pub fn group_of(&self) -> &[usize] {
        &self.group_of
    }

    /// Number of groups (= action-vector length).
    pub fn num_groups(&self) -> usize {
        self.num_groups
    }
}

impl StochasticPolicy for FixedGroupAgent {
    fn rng_draws_per_sample(&self) -> usize {
        self.num_groups
    }

    fn sample_batch(
        &self,
        params: &Params,
        rngs: &mut [&mut dyn rand::RngCore],
    ) -> Vec<(Vec<usize>, f32)> {
        let mut tape = Tape::new();
        // One leaf Var shared by every episode: the placer runs its shared
        // stages (e.g. the seq2seq encoder) once for the whole batch.
        let x = tape.leaf(self.emb.clone());
        let xs = vec![x; rngs.len()];
        let outs = self.placer.forward_batch(&mut tape, params, &xs, None, rngs);
        outs.into_iter().map(|out| (out.actions, tape.value(out.log_prob).item())).collect()
    }

    fn score_batch(&self, params: &Params, actions: &[Vec<usize>]) -> BatchScoreHandle {
        let forced: Vec<&[usize]> = actions.iter().map(|a| a.as_slice()).collect();
        let mut tape = Tape::new();
        let x = tape.leaf(self.emb.clone());
        let xs = vec![x; actions.len()];
        let outs = self.placer.forward_batch(&mut tape, params, &xs, Some(&forced), &mut []);
        let episodes = outs
            .into_iter()
            .map(|out| EpisodeScore {
                log_prob: out.log_prob,
                entropy: out.entropy,
                aux_loss: None,
            })
            .collect();
        BatchScoreHandle { tape, episodes }
    }
}

impl PlacementAgent for FixedGroupAgent {
    fn name(&self) -> &str {
        &self.name
    }

    fn action_choices(&self, _position: usize) -> usize {
        self.devices.len()
    }

    fn decode_batch(&self, _params: &Params, actions: &[Vec<usize>]) -> Vec<Placement> {
        actions
            .iter()
            .map(|a| {
                super::check_actions(self, a).expect("one device per group");
                let group_devices: Vec<DeviceId> = a.iter().map(|&d| self.devices[d]).collect();
                Placement::from_groups(&self.group_of, &group_devices)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eagle_opgraph::builders;
    use eagle_partition::{metis_like::MetisLike, Partitioner};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn graph() -> OpGraph {
        builders::try_gnmt(&builders::GnmtConfig::tiny()).expect("valid GNMT config")
    }

    fn build(kind: PlacerKind) -> (Params, FixedGroupAgent, OpGraph, Machine) {
        let g = graph();
        let m = Machine::paper_machine();
        let k = 6;
        let group_of = MetisLike::default().partition(&g, k);
        let mut params = Params::new();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let agent = FixedGroupAgent::new(
            &mut params,
            "t",
            &g,
            &m,
            group_of,
            k,
            kind,
            AgentScale::tiny(),
            &mut rng,
        );
        (params, agent, g, m)
    }

    const KINDS: [PlacerKind; 4] =
        [PlacerKind::Seq2SeqBefore, PlacerKind::Seq2SeqAfter, PlacerKind::Gcn, PlacerKind::Simple];

    #[test]
    fn all_placer_kinds_sample_and_decode() {
        for kind in KINDS {
            let (params, agent, g, m) = build(kind);
            let mut rng = ChaCha8Rng::seed_from_u64(2);
            let (actions, logp) = agent.sample(&params, &mut rng);
            assert_eq!(actions.len(), agent.num_groups(), "{kind:?}");
            assert!(logp.is_finite(), "{kind:?}");
            let p = agent.decode(&params, &actions);
            assert!(p.validate(&g, &m).is_ok(), "{kind:?}");
        }
    }

    #[test]
    fn score_consistency_across_kinds() {
        for kind in KINDS {
            let (params, agent, _, _) = build(kind);
            let mut rng = ChaCha8Rng::seed_from_u64(3);
            let (actions, logp) = agent.sample(&params, &mut rng);
            let h = agent.score(&params, &actions);
            let rescored = h.tape.value(h.log_prob).item();
            assert_eq!(logp.to_bits(), rescored.to_bits(), "{kind:?}: {logp} vs {rescored}");
        }
    }

    #[test]
    fn post_constructor_names_and_places() {
        let g = graph();
        let m = Machine::paper_machine();
        let k = 4;
        let group_of = MetisLike::default().partition(&g, k);
        let mut params = Params::new();
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let post =
            FixedGroupAgent::post(&mut params, &g, &m, group_of, k, AgentScale::tiny(), &mut rng);
        assert_eq!(post.name(), "Post");
        let mut rng2 = ChaCha8Rng::seed_from_u64(8);
        let (actions, _) = post.sample(&params, &mut rng2);
        assert_eq!(actions.len(), k);
    }

    #[test]
    #[should_panic(expected = "one group per op")]
    fn wrong_group_len_panics() {
        let g = graph();
        let m = Machine::paper_machine();
        let mut params = Params::new();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let _ = FixedGroupAgent::new(
            &mut params,
            "bad",
            &g,
            &m,
            vec![0; 3],
            4,
            PlacerKind::Simple,
            AgentScale::tiny(),
            &mut rng,
        );
    }
}
