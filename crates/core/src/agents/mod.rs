//! Placement agents: EAGLE and the paper's learned baselines.

mod eagle;
mod fixed_group;
mod hierarchical_planner;

pub use eagle::EagleAgent;
pub use fixed_group::{FixedGroupAgent, PlacerKind};
pub use hierarchical_planner::HpAgent;

use eagle_devsim::{DeviceId, Machine, Placement};
use eagle_rl::StochasticPolicy;
use eagle_tensor::{Params, Tensor};

/// A policy whose actions decode into a device placement for a concrete graph.
///
/// Like [`StochasticPolicy`], the trait is batched-first: implementors provide
/// [`PlacementAgent::decode_batch`], which amortizes any parameter-dependent
/// work (e.g. the grouper forward of hierarchical agents) across the whole
/// minibatch, and the per-episode [`PlacementAgent::decode`] is a default
/// wrapper over batch size 1.
pub trait PlacementAgent: StochasticPolicy {
    /// Display name for tables and curves.
    fn name(&self) -> &str;

    /// Decodes one placement per sampled action vector, using the current
    /// parameters. Parameter-dependent decode state (the grouping of
    /// hierarchical agents) is computed once for the whole batch.
    fn decode_batch(&self, params: &Params, actions: &[Vec<usize>]) -> Vec<Placement>;

    /// Number of choices at `position` of the action vector — groups for a
    /// grouping entry, devices for a placing one: the range a stored action
    /// must be in before it can be decoded or teacher-forced.
    fn action_choices(&self, position: usize) -> usize;

    /// Decodes a single action vector; thin wrapper over a one-episode
    /// [`PlacementAgent::decode_batch`].
    fn decode(&self, params: &Params, actions: &[usize]) -> Placement {
        self.decode_batch(params, &[actions.to_vec()])
            .pop()
            .expect("decode_batch returns one placement per action vector")
    }

    /// Re-targets this agent to a different op graph, sharing the *same*
    /// parameters (and therefore the same action space and
    /// [`StochasticPolicy::rng_draws_per_sample`] accounting), or `None` when
    /// the agent's decode state is married to its construction graph.
    ///
    /// This is what lets one policy train over a whole distribution of graphs:
    /// the multi-graph trainer builds one view per drawn graph and
    /// samples/scores/decodes through it, while updates flow into the shared
    /// parameter store. The default is `None` — graph-specific baselines like
    /// the fixed-grouping agents opt out, and the trainer reports a typed
    /// `UnsupportedAgent` error instead of silently mis-placing.
    fn for_graph(&self, graph: &eagle_opgraph::OpGraph) -> Option<Self>
    where
        Self: Sized,
    {
        let _ = graph;
        None
    }
}

/// Checks an action vector against `agent`'s action space: one entry per
/// [`StochasticPolicy::rng_draws_per_sample`], each among its position's
/// [`PlacementAgent::action_choices`].
pub(crate) fn check_actions(agent: &impl PlacementAgent, actions: &[usize]) -> Result<(), String> {
    let want = agent.rng_draws_per_sample();
    if actions.len() != want {
        return Err(format!("{} actions where the agent takes {want}", actions.len()));
    }
    match actions.iter().enumerate().find(|&(i, &a)| a >= agent.action_choices(i)) {
        Some((i, a)) => {
            Err(format!("action {a} at position {i} is not one of {}", agent.action_choices(i)))
        }
        None => Ok(()),
    }
}

/// The action-index -> device mapping shared by all agents: action `a` selects
/// machine device `a` (CPU first, then GPUs).
pub(crate) fn device_table(machine: &Machine) -> Vec<DeviceId> {
    machine.device_ids().collect()
}

/// Converts the per-op feature rows from `eagle_opgraph::features` into a tensor.
pub(crate) fn features_tensor(graph: &eagle_opgraph::OpGraph) -> Tensor {
    let rows = eagle_opgraph::features::node_features(graph);
    let n = rows.len();
    let dim = eagle_opgraph::features::FEATURE_DIM;
    let mut data = Vec::with_capacity(n * dim);
    for row in rows {
        debug_assert_eq!(row.len(), dim);
        data.extend_from_slice(&row);
    }
    Tensor::from_vec(n, dim, data)
}
