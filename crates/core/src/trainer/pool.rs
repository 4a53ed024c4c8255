//! The trainer's per-graph environment pool.
//!
//! One entry per resident graph: its environment (placement cache, OOM gate,
//! noise RNG, wall-clock), reward baseline, best placement and the agent's
//! per-graph view. The policy lives here and nowhere else: at most
//! [`POOL_CAPACITY`] graphs are resident, eviction is FIFO (counted in
//! `trainer.pool_evictions`; the evicted environment's `devsim.*` counts are
//! already in the shared recorder), and a graph drawn again after eviction is
//! rebuilt from its origin with the same derived seed and a fresh cache.
//!
//! [`EnvPool::capture`] / [`EnvPool::restore`] are the one capture/restore
//! pair of the workspace. Every other piece of training state is stored as
//! the struct the run mutates; an entry cannot be, because its graph and its
//! agent view are not decodable from bytes — they are rebuilt from the
//! origin, and only then can the stored state be checked against them.

use eagle_devsim::{Environment, Placement};
use eagle_rl::EmaBaseline;

use super::{GraphSummary, ResumeError, TrainError, Trainer};
use crate::agents::PlacementAgent;
use crate::checkpoint::GraphEntryState;
use crate::source::{splitmix64, GraphOrigin};

/// Maximum resident per-graph environments. Generated sources draw
/// unboundedly many distinct graphs, so the capacity is part of what a run
/// reproduces.
const POOL_CAPACITY: usize = 16;

/// One resident graph.
pub(super) struct PoolEntry<A> {
    origin: GraphOrigin,
    pub env: Environment,
    pub baseline: EmaBaseline,
    pub best: Option<(f64, Placement)>,
    /// The agent re-targeted to this graph ([`PlacementAgent::for_graph`]);
    /// `None` for fixed sources — the caller's agent is already built for the
    /// graph, and using it directly keeps single-graph runs bit-identical to
    /// the classic trainer.
    pub view: Option<A>,
}

/// The resident graphs, oldest first.
pub(super) struct EnvPool<A>(Vec<PoolEntry<A>>);

impl<A: PlacementAgent> EnvPool<A> {
    /// Rebuilds the pool `entries` were captured from — empty for a run that
    /// has not started. Each graph is rebuilt from its origin, and what was
    /// stored for it is checked against the rebuilt graph and machine before
    /// it is used: the environment state (its cache), the best placement and
    /// the baseline.
    pub fn restore(
        trainer: &Trainer,
        agent: &A,
        entries: Vec<GraphEntryState>,
    ) -> Result<Self, TrainError> {
        let mut pool = Vec::with_capacity(entries.len());
        for GraphEntryState { origin, env: state, baseline, best } in entries {
            if !trainer.source.owns(&origin) {
                return Err(ResumeError::SourceMismatch(format!(
                    "checkpointed graph {origin:?} cannot be rebuilt by {:?}",
                    trainer.source
                ))
                .into());
            }
            let mut entry = PoolEntry::build(trainer, agent, origin)?;
            entry.env.restore_state(state).map_err(ResumeError::Env)?;
            let graph_name = || trainer.source.name(&origin);
            if let Some((_, p)) = &best {
                p.validate(entry.env.graph(), &trainer.machine).map_err(|e| {
                    ResumeError::Entry(format!("best placement of '{}': {e}", graph_name()))
                })?;
            }
            // Advantages are narrowed to `f32` for the update.
            if let Some(v) = baseline.value().filter(|&v| !(v as f32).is_finite()) {
                let m = format!("baseline {v:e} of '{}' is beyond f32", graph_name());
                return Err(ResumeError::Entry(m).into());
            }
            pool.push(PoolEntry { baseline, best, ..entry });
        }
        Ok(Self(pool))
    }

    /// What [`EnvPool::restore`] needs to rebuild this pool.
    pub fn capture(&self) -> Vec<GraphEntryState> {
        self.0
            .iter()
            .map(|e| GraphEntryState {
                origin: e.origin,
                env: e.env.save_state(),
                baseline: e.baseline.clone(),
                best: e.best.clone(),
            })
            .collect()
    }

    /// The entry for `origin`, made resident first if it is not (evicting
    /// the oldest entry when the pool is full).
    pub fn resident(
        &mut self,
        trainer: &Trainer,
        agent: &A,
        origin: &GraphOrigin,
    ) -> Result<&mut PoolEntry<A>, TrainError> {
        let at = match self.0.iter().position(|e| e.origin == *origin) {
            Some(at) => at,
            None => {
                self.0.push(PoolEntry::build(trainer, agent, *origin)?);
                if self.0.len() > POOL_CAPACITY {
                    self.0.remove(0);
                    trainer.recorder.add("trainer.pool_evictions", 1);
                }
                self.0.len() - 1
            }
        };
        Ok(&mut self.0[at])
    }

    /// The oldest resident entry — the only one of a fixed source.
    pub fn first_mut(&mut self) -> Option<&mut PoolEntry<A>> {
        self.0.first_mut()
    }

    /// Per-graph outcomes of the resident graphs.
    pub fn summaries(&self, trainer: &Trainer) -> Vec<GraphSummary> {
        self.0
            .iter()
            .map(|e| GraphSummary {
                name: trainer.source.name(&e.origin),
                origin: e.origin,
                samples: e.env.snapshot().evals,
                best_step_time: e.best.as_ref().map(|(t, _)| *t),
            })
            .collect()
    }
}

impl<A: PlacementAgent> PoolEntry<A> {
    /// A graph's entry before its first sample: the graph rebuilt from
    /// `origin`, the agent's view of it, its environment, an empty baseline.
    fn build(trainer: &Trainer, agent: &A, origin: GraphOrigin) -> Result<Self, TrainError> {
        let fixed = trainer.source.is_fixed();
        let graph = trainer.source.build(&origin);
        let view =
            if fixed {
                None
            } else {
                Some(agent.for_graph(&graph).ok_or_else(|| TrainError::UnsupportedAgent {
                    agent: agent.name().to_string(),
                })?)
            };
        // Fixed sources use `env_seed` verbatim (bit-identical to the classic
        // single-env trainer); other sources derive a per-graph seed so each
        // graph has its own deterministic noise stream.
        let seed = if fixed {
            trainer.env_seed
        } else {
            splitmix64(trainer.env_seed ^ splitmix64(origin.key))
        };
        let mut builder = Environment::builder(graph, trainer.machine.clone())
            .seed(seed)
            .measure(trainer.measure.clone())
            .recorder(trainer.recorder.clone());
        if let Some(capacity) = trainer.cache_capacity {
            builder = builder.cache_capacity(capacity);
        }
        let baseline = EmaBaseline::new(trainer.cfg.ema_alpha);
        Ok(Self { origin, env: builder.build()?, baseline, best: None, view })
    }
}
