//! Typed failures of building, resuming and running a [`Trainer`](super::Trainer).

use eagle_devsim::{EnvError, EnvStateError};

/// Why a [`TrainerBuilder`](super::TrainerBuilder) refused to construct a
/// [`Trainer`](super::Trainer).
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// `minibatch` must be at least 1.
    ZeroMinibatch,
    /// `total_samples` must be at least 1.
    ZeroTotalSamples,
    /// The PPO+CE schedule needs `ce_interval`, `ce_elites` and `ce_steps`
    /// all at least 1.
    BadCeSchedule {
        /// Configured samples between CE updates.
        interval: usize,
        /// Configured elites per CE update.
        elites: usize,
        /// Configured gradient steps per CE update.
        steps: usize,
    },
    /// PPO needs at least one epoch per minibatch.
    ZeroPpoEpochs,
    /// The EMA baseline weight must be in `(0, 1]`.
    BadEmaAlpha(f64),
    /// The optimizer learning rate must be finite and positive.
    BadLearningRate(f32),
    /// The invalid-placement penalty time must be finite and non-negative.
    BadInvalidPenalty(f64),
    /// `checkpoint_every` must be at least 1 when set.
    ZeroCheckpointEvery,
    /// `checkpoint_every` is set but `checkpoint_dir` is not.
    CheckpointEveryWithoutDir,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::ZeroMinibatch => write!(f, "minibatch must be at least 1"),
            ConfigError::ZeroTotalSamples => write!(f, "total_samples must be at least 1"),
            ConfigError::BadCeSchedule { interval, elites, steps } => write!(
                f,
                "PPO+CE schedule is inconsistent: ce_interval={interval}, ce_elites={elites}, \
                 ce_steps={steps} (all must be at least 1)"
            ),
            ConfigError::ZeroPpoEpochs => write!(f, "ppo_epochs must be at least 1"),
            ConfigError::BadEmaAlpha(a) => {
                write!(f, "ema_alpha must be in (0, 1], got {a}")
            }
            ConfigError::BadLearningRate(lr) => {
                write!(f, "optimizer learning rate must be finite and positive, got {lr}")
            }
            ConfigError::BadInvalidPenalty(t) => {
                write!(f, "invalid_penalty_time must be finite and non-negative, got {t}")
            }
            ConfigError::ZeroCheckpointEvery => {
                write!(f, "checkpoint_every must be at least 1 when set")
            }
            ConfigError::CheckpointEveryWithoutDir => {
                write!(f, "checkpoint_every is set but checkpoint_dir is not")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Why a [`TrainerState`](crate::TrainerState) could not be applied to the
/// given agent/params.
#[derive(Debug)]
pub enum ResumeError {
    /// The checkpoint was produced by a different agent (curve labels differ).
    AgentMismatch {
        /// Agent label recorded in the checkpoint.
        checkpoint: String,
        /// Label of the agent passed to [`Trainer::train_from`](super::Trainer::train_from).
        agent: String,
    },
    /// The checkpointed parameters are not ones this agent can continue
    /// from: a different layout, or a value that is not finite.
    ParamMismatch(String),
    /// A checkpointed optimizer does not continue the checkpointed
    /// parameters: hyperparameters out of Adam's range, or moments that are
    /// not one finite pair per parameter, of that parameter's shape.
    Optimizer(String),
    /// A checkpointed graph origin does not belong to this trainer's source
    /// (e.g. resuming a generated-distribution checkpoint with a fixed source).
    SourceMismatch(String),
    /// A checkpointed environment state does not fit its rebuilt environment.
    Env(EnvStateError),
    /// What a checkpointed pool entry carries beside its environment is not
    /// something the run could have recorded for its rebuilt graph: a best
    /// placement that does not fit the graph and machine (the final
    /// measurement would simulate it), or a reward baseline beyond the `f32`
    /// range advantages are computed in.
    Entry(String),
    /// The checkpointed CE history is not one the run could have recorded:
    /// action vectors and rewards differ in number, or an action vector does
    /// not fit the agent's action space.
    History(String),
}

impl std::fmt::Display for ResumeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ResumeError::AgentMismatch { checkpoint, agent } => write!(
                f,
                "checkpoint was trained with agent '{checkpoint}', cannot resume with '{agent}'"
            ),
            ResumeError::ParamMismatch(m) => write!(f, "parameter mismatch: {m}"),
            ResumeError::Optimizer(m) => write!(f, "optimizer state: {m}"),
            ResumeError::SourceMismatch(m) => write!(f, "graph source mismatch: {m}"),
            ResumeError::Env(e) => write!(f, "environment state: {e}"),
            ResumeError::Entry(m) => write!(f, "pool entry: {m}"),
            ResumeError::History(m) => write!(f, "CE history: {m}"),
        }
    }
}

impl std::error::Error for ResumeError {}

/// Why a training run failed to start or resume.
#[derive(Debug)]
pub enum TrainError {
    /// A checkpointed state could not be applied (see [`ResumeError`]).
    Resume(ResumeError),
    /// An environment for a drawn graph could not be built.
    Env(EnvError),
    /// The agent cannot re-target to new graphs
    /// ([`PlacementAgent::for_graph`](crate::PlacementAgent::for_graph) returned `None`), which multi-graph
    /// sources require.
    UnsupportedAgent {
        /// The agent's display name.
        agent: String,
    },
}

impl std::fmt::Display for TrainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrainError::Resume(e) => write!(f, "resume: {e}"),
            TrainError::Env(e) => write!(f, "environment: {e}"),
            TrainError::UnsupportedAgent { agent } => write!(
                f,
                "agent '{agent}' cannot re-target to new graphs; multi-graph training needs \
                 PlacementAgent::for_graph"
            ),
        }
    }
}

impl std::error::Error for TrainError {}

impl From<ResumeError> for TrainError {
    fn from(e: ResumeError) -> Self {
        TrainError::Resume(e)
    }
}

impl From<EnvError> for TrainError {
    fn from(e: EnvError) -> Self {
        TrainError::Env(e)
    }
}
