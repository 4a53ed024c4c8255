//! # eagle-core
//!
//! The paper's primary contribution: the EAGLE device-placement agent
//! ([`EagleAgent`]: feed-forward grouper + linking RNN + attention-before seq2seq
//! placer, trained end-to-end with PPO), together with the learned baselines it is
//! evaluated against ([`HpAgent`] — Hierarchical Planner, [`FixedGroupAgent`] —
//! heuristic-grouper variants and the Post baseline) and the training driver
//! ([`Trainer`]) that reproduces the paper's measurement protocol and training
//! curves — over a single graph ([`GraphSource::fixed`]) or a whole distribution
//! of graphs (rosters and [`GraphGen`](eagle_opgraph::GraphGen) samplers, the
//! GDP/Placeto generalist direction).
//!
//! ```no_run
//! use eagle_core::{Algo, AgentScale, EagleAgent, GraphSource, Trainer, TrainerConfig};
//! use eagle_devsim::{Benchmark, Machine, MeasureConfig};
//! use rand::SeedableRng;
//!
//! let machine = Machine::paper_machine();
//! let graph = Benchmark::InceptionV3.graph_for(&machine);
//! let trainer = Trainer::builder(GraphSource::fixed(graph.clone()), machine.clone())
//!     .config(TrainerConfig::paper(Algo::Ppo, 500))
//!     .measure(MeasureConfig::default())
//!     .env_seed(1)
//!     .build()
//!     .unwrap();
//! let mut params = eagle_tensor::Params::new();
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
//! let agent = EagleAgent::new(&mut params, &graph, &machine, AgentScale::quick(), &mut rng);
//! let result = trainer.train(&agent, &mut params).unwrap();
//! println!("best per-step time: {:?}", result.final_step_time);
//! ```

#![warn(missing_docs)]

mod agents;
pub mod checkpoint;
mod curve;
pub mod infer;
mod scale;
mod source;
mod trainer;

pub use agents::{EagleAgent, FixedGroupAgent, HpAgent, PlacementAgent, PlacerKind};
pub use checkpoint::{
    decode_checkpoint, encode_checkpoint, fnv1a64, load_checkpoint, save_checkpoint,
    CheckpointError, GraphEntryState, Progress, TrainerState, CHECKPOINT_FILE, CHECKPOINT_MAGIC,
    CHECKPOINT_SCHEMA_VERSION,
};
pub use curve::{Curve, CurvePoint, ProbePoint};
pub use scale::AgentScale;
pub use source::{GraphOrigin, GraphSource, OriginKind, SourceCursor, SourceError};
pub use trainer::{
    Algo, ConfigError, GraphSummary, ResumeError, TrainError, TrainResult, Trainer, TrainerBuilder,
    TrainerConfig,
};
