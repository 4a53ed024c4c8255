//! # eagle-rl
//!
//! Reinforcement-learning training algorithms for device placement, exactly the set
//! the paper studies in Sec. III-D: [`Reinforce`], clipped-surrogate [`Ppo`]
//! (minibatch 10, 4 epochs, clip 0.3, entropy 0.01), and [`CrossEntropyMin`] over
//! elite samples (Post's joint algorithm = PPO + CE every 50 samples, top-5 elites).
//!
//! Rewards follow the paper's Eq. 4: `R = -sqrt(per-step time)` with an
//! exponential-moving-average baseline ([`EmaBaseline`]) instead of a critic.
//!
//! Agents plug in through the batched-first [`StochasticPolicy`] trait by
//! implementing one forward, [`StochasticPolicy::forward_batch`], over a
//! [`Draws`]: sampled from per-episode RNG streams or replayed from given
//! action vectors. The algorithms call the two provided methods on top of it:
//! [`StochasticPolicy::sample_batch`] draws a minibatch of flat action vectors,
//! and [`StochasticPolicy::score_batch`] re-scores one differentiably on one
//! shared tape. A batch of one is the per-episode case, bit for bit (see
//! `policy` module docs).

#![warn(missing_docs)]

mod algos;
mod policy;
mod reward;

pub use algos::{
    top_k_indices, CrossEntropyMin, OptimConfig, Ppo, Reinforce, TrainSample, UpdateStats,
};
pub use policy::{
    fork_streams, sample_categorical, BatchScoreHandle, Draws, EpisodeScore, ReplaySlot,
    StochasticPolicy,
};
pub use reward::{EmaBaseline, RewardTransform};
