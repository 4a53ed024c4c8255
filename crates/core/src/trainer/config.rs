//! What to train with: the algorithm choice and the trainer's hyper-parameters.

use eagle_rl::{OptimConfig, RewardTransform};

/// Which training algorithm drives the agent (paper Sec. III-D).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algo {
    /// Plain REINFORCE with the EMA baseline.
    Reinforce,
    /// Clipped-surrogate PPO (the paper's pick for EAGLE).
    Ppo,
    /// PPO joined with cross-entropy minimization (Post's algorithm;
    /// also `EAGLE (PPO+CE)` in Table IV).
    PpoCe,
}

impl Algo {
    /// Table label.
    pub fn label(self) -> &'static str {
        match self {
            Algo::Reinforce => "REINFORCE",
            Algo::Ppo => "PPO",
            Algo::PpoCe => "PPO+CE",
        }
    }
}

/// Trainer configuration (defaults = paper Sec. IV-C).
#[derive(Debug, Clone)]
pub struct TrainerConfig {
    /// Total placements to sample.
    pub total_samples: usize,
    /// Samples per policy update (paper: 10).
    pub minibatch: usize,
    /// Optimizer settings (paper: Adam lr 0.01, clip 1.0, entropy 0.01).
    pub optim: OptimConfig,
    /// PPO clip ratio (paper: 0.3).
    pub ppo_clip: f32,
    /// PPO epochs per minibatch (paper: 4).
    pub ppo_epochs: usize,
    /// Samples between cross-entropy updates (paper: 50).
    pub ce_interval: usize,
    /// Number of elite samples per CE update (paper: 5).
    pub ce_elites: usize,
    /// Gradient steps per CE update.
    pub ce_steps: usize,
    /// EMA weight for the reward baseline.
    pub ema_alpha: f64,
    /// Per-step time charged to invalid (OOM) placements when shaping rewards.
    pub invalid_penalty_time: f64,
    /// Reward transform applied to measured per-step times (paper: `-sqrt(t)`).
    pub reward: RewardTransform,
    /// Subtract the EMA baseline from rewards (paper: yes). Disable for ablation.
    /// Multi-graph sources keep one baseline per graph, so step-time scale
    /// differences between graphs do not leak into advantages.
    pub use_baseline: bool,
    /// Normalize advantages to unit scale within each minibatch (standard PPO
    /// practice; makes learning robust to the absolute reward scale, which spans
    /// -sqrt(0.07) to -sqrt(100) across the three benchmarks).
    pub normalize_adv: bool,
    /// RNG seed (sampling).
    pub seed: u64,
    /// The algorithm.
    pub algo: Algo,
    /// Worker threads for the simulation side of the rollout engine (0 = one
    /// per available core, 1 = fully serial). Sampling and decoding run as one
    /// batched forward pass regardless of this setting; only cache-miss
    /// placement simulations fan out. The trained policy, curve and best
    /// placement are identical for every value — only host wall-time changes
    /// (see DESIGN.md, "Parallel rollout engine" and "Batched policy API").
    pub workers: usize,
    /// Rolling window (in samples) of the action/reward history kept for CE
    /// elite selection. The effective window is
    /// `max(history_window, ce_interval, ce_elites)`, so CE always sees at
    /// least one full interval. Bounding the history fixes the unbounded memory
    /// growth the earlier trainer had on long runs (it retained every sample of
    /// the run) and bounds checkpoint size.
    pub history_window: usize,
    /// Auto-checkpoint period in minibatches; requires `checkpoint_dir` to also
    /// be set. `None` (the default) disables auto-checkpointing.
    pub checkpoint_every: Option<usize>,
    /// Directory checkpoints are written into (as
    /// [`CHECKPOINT_FILE`](crate::checkpoint::CHECKPOINT_FILE)); created on
    /// first save. A failed save is logged and counted
    /// (`trainer.checkpoint_errors`), never fatal to the run.
    pub checkpoint_dir: Option<std::path::PathBuf>,
}

impl TrainerConfig {
    /// Paper hyper-parameters with the given sample budget and algorithm.
    pub fn paper(algo: Algo, total_samples: usize) -> Self {
        Self {
            total_samples,
            minibatch: 10,
            optim: OptimConfig::default(),
            ppo_clip: 0.3,
            ppo_epochs: 4,
            ce_interval: 50,
            ce_elites: 5,
            ce_steps: 4,
            ema_alpha: 0.1,
            invalid_penalty_time: 100.0,
            reward: RewardTransform::NegSqrt,
            use_baseline: true,
            normalize_adv: true,
            seed: 7,
            algo,
            workers: 0,
            history_window: 512,
            checkpoint_every: None,
            checkpoint_dir: None,
        }
    }
}
