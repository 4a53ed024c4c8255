//! The Hierarchical Planner baseline (Mirhoseini et al., ICLR'18): a feed-forward
//! grouper whose *sampled* hard grouping feeds a sequence-to-sequence placer with
//! the attention context applied *after* the decoder (paper Fig. 4b). Grouper and
//! placer are two separately-sampled sub-policies trained jointly by policy
//! gradient — the coupling EAGLE replaces with its differentiable linking RNN.
//!
//! Because the grouping is resampled every rollout, the placer's inputs keep
//! shifting during training ("the dynamics of the grouping result during training
//! made it even harder to train the agent", paper Sec. II-C) — reproduced here
//! faithfully.

use eagle_devsim::{Machine, Placement};
use eagle_nn::{embedding, AttentionMode, Categorical, Grouper, Placer};
use eagle_opgraph::OpGraph;
use eagle_rl::{BatchScoreHandle, Draws, EpisodeScore, ReplaySlot, StochasticPolicy};
use eagle_tensor::{Params, Tape, Tensor, Var};
use rand::Rng;

use crate::scale::AgentScale;

use super::PlacementAgent;

/// The Hierarchical Planner agent. Its action vector is the concatenation of one
/// group index per op followed by one device index per group.
pub struct HpAgent {
    grouper: Grouper,
    placer: Placer,
    features: Tensor,
    graph: OpGraph,
    num_groups: usize,
    slot: ReplaySlot,
}

impl HpAgent {
    /// Builds the agent, registering all parameters.
    pub fn new(
        params: &mut Params,
        graph: &OpGraph,
        machine: &Machine,
        scale: AgentScale,
        rng: &mut impl Rng,
    ) -> Self {
        let features = super::features_tensor(graph);
        let feat_dim = features.cols();
        let k = scale.num_groups.min(graph.len());
        let grouper = Grouper::new(params, "hp/grouper", feat_dim, scale.grouper_hidden, k, rng);
        let placer = Placer::seq2seq(
            params,
            "hp/placer",
            embedding::group_feature_dim(k),
            scale.placer_hidden,
            scale.attn_dim,
            machine.num_devices(),
            AttentionMode::After,
            rng,
        );
        let (graph, slot) = (graph.clone(), ReplaySlot::default());
        Self { grouper, placer, features, graph, num_groups: k, slot }
    }

    /// Number of groups.
    pub fn num_groups(&self) -> usize {
        self.num_groups
    }

    /// Length of the flat action vector: one group per op + one device per group.
    pub fn action_len(&self) -> usize {
        self.graph.len() + self.num_groups
    }
}

impl StochasticPolicy for HpAgent {
    fn rng_draws_per_sample(&self) -> usize {
        self.action_len()
    }

    fn replay_slot(&self) -> Option<&ReplaySlot> {
        Some(&self.slot)
    }

    /// The grouper heads (logits, log-probs, entropy) are episode-independent
    /// and run once; grouping is episode-major, so stream `b` gives its `n`
    /// group draws before its `k` placer draws, whatever the batch size; the
    /// per-episode hard group embeddings (Hierarchical Planner's aggregation)
    /// then feed one batched placer pass, which takes the same streams or the
    /// replayed vectors' device tails.
    fn forward_batch(
        &self,
        params: &Params,
        mut draws: Draws<'_, '_>,
    ) -> (BatchScoreHandle, Vec<Vec<usize>>) {
        let n = self.graph.len();
        let mut tape = Tape::new();
        let f = tape.leaf(self.features.clone());
        let logits = self.grouper.logits(&mut tape, params, f); // (n, k)
        let dist = Categorical::new(&mut tape, logits);

        let groupings: Vec<Vec<usize>> = (0..draws.episodes())
            .map(|b| (0..n).map(|i| draws.action(b, i, |rng| dist.sample(&tape, i, rng))).collect())
            .collect();
        // Per-episode grouping log-probs, then the shared grouper entropy
        // (mean per-op entropy).
        let group_logp_sums: Vec<Var> = groupings
            .iter()
            .map(|g| {
                let picked = dist.log_prob(&mut tape, g); // (n, 1)
                tape.sum_all(picked)
            })
            .collect();
        let plogp = dist.p_log_p(&mut tape);
        let total = tape.sum_all(plogp);
        let group_entropy = tape.scale(total, -1.0 / n as f32); // shared

        let xs: Vec<Var> = groupings
            .iter()
            .map(|g| {
                let emb = embedding::group_features(&self.graph, g, self.num_groups);
                tape.leaf(emb)
            })
            .collect();
        let tails: Vec<&[usize]>;
        let placer_draws = match draws {
            Draws::Replay(actions) => {
                tails = actions.iter().map(|a| &a[n..]).collect();
                Draws::Replay(&tails)
            }
            sample => sample,
        };
        let outs = self.placer.forward_batch(&mut tape, params, &xs, placer_draws);

        let (episodes, actions) = groupings
            .into_iter()
            .zip(group_logp_sums)
            .zip(outs)
            .map(|((mut actions, gsum), out)| {
                let log_prob = tape.add(gsum, out.log_prob);
                let e2 = tape.add(group_entropy, out.entropy);
                let entropy = tape.scale(e2, 0.5);
                actions.extend_from_slice(&out.actions);
                (EpisodeScore { log_prob, entropy, aux_loss: None }, actions)
            })
            .unzip();
        (BatchScoreHandle { tape, episodes }, actions)
    }
}

impl PlacementAgent for HpAgent {
    fn name(&self) -> &str {
        "Hierarchical Planner"
    }

    fn action_choices(&self, position: usize) -> usize {
        if position < self.graph.len() {
            self.num_groups
        } else {
            self.placer.num_devices()
        }
    }

    fn decode_batch(&self, _params: &Params, actions: &[Vec<usize>]) -> Vec<Placement> {
        let n = self.graph.len();
        actions
            .iter()
            .map(|a| {
                // A vector too short to split still reaches the check.
                let (group_of, devices) = a.split_at(n.min(a.len()));
                super::place_groups(self, a, group_of, devices)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eagle_opgraph::builders;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn setup() -> (Params, HpAgent, OpGraph, Machine) {
        let g = builders::try_gnmt(&builders::GnmtConfig::tiny()).expect("valid GNMT config");
        let m = Machine::paper_machine();
        let mut params = Params::new();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let agent = HpAgent::new(&mut params, &g, &m, AgentScale::tiny(), &mut rng);
        (params, agent, g, m)
    }

    #[test]
    fn action_vector_covers_ops_and_groups() {
        let (params, agent, g, m) = setup();
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let (actions, _) = agent.sample_batch(&params, &mut [&mut rng]).remove(0);
        assert_eq!(actions.len(), g.len() + agent.num_groups());
        assert!(actions[..g.len()].iter().all(|&a| a < agent.num_groups()));
        assert!(actions[g.len()..].iter().all(|&a| a < m.num_devices()));
        let p = agent.decode_batch(&params, &[actions]).remove(0);
        assert!(p.validate(&g, &m).is_ok());
    }

    #[test]
    fn grouping_is_resampled_each_rollout() {
        // Unlike EAGLE's deterministic argmax grouping, HP samples its grouping —
        // two rollouts with different RNG states should (almost surely) differ.
        let (params, agent, g, _) = setup();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let (a1, _) = agent.sample_batch(&params, &mut [&mut rng]).remove(0);
        let (a2, _) = agent.sample_batch(&params, &mut [&mut rng]).remove(0);
        assert_ne!(a1[..g.len()], a2[..g.len()], "grouping should be stochastic");
    }

    #[test]
    fn score_matches_sample_log_prob() {
        let (params, agent, _, _) = setup();
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let (actions, logp) = agent.sample_batch(&params, &mut [&mut rng]).remove(0);
        let h = agent.score_batch(&params, &[actions]);
        let rescored = h.tape.value(h.episodes[0].log_prob).item();
        assert_eq!(logp.to_bits(), rescored.to_bits(), "{logp} vs {rescored}");
    }

    #[test]
    fn gradients_reach_both_subnetworks() {
        let (params, agent, _, _) = setup();
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let (actions, _) = agent.sample_batch(&params, &mut [&mut rng]).remove(0);
        let mut h = agent.score_batch(&params, &[actions]);
        let loss = h.tape.neg(h.episodes[0].log_prob);
        let mut grads = eagle_tensor::Grads::for_params(&params);
        h.tape.backward_into(loss, &mut grads);
        for prefix in ["hp/grouper", "hp/placer"] {
            let grad: f32 = params
                .ids()
                .filter(|&id| params.name(id).starts_with(prefix))
                .map(|id| grads.get(id).map_or(0.0, Tensor::norm))
                .sum();
            assert!(grad > 0.0, "{prefix} must receive gradient");
        }
    }
}
