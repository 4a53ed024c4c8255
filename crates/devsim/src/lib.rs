//! # eagle-devsim
//!
//! Discrete-event simulator of the paper's evaluation machine (4x P100 + CPU) and
//! the placement-measurement protocol built on top of it.
//!
//! The paper measures each sampled placement by running the real model for 15 steps
//! on physical hardware; this crate substitutes a simulator that produces the same
//! signal — per-step time, or OOM for invalid placements — from the op graph's
//! FLOPs, tensor sizes and memory footprints (see DESIGN.md for the substitution
//! argument).
//!
//! * [`Machine`] / [`DeviceSpec`] — the device model.
//! * [`Placement`] — one device per op.
//! * [`engine`] — the causal discrete-event scheduling core: [`simulate`]'s
//!   step time, and the recorded [`Schedule`] with its Chrome-trace export.
//! * [`simulate`] — one training step's makespan (OOM gate + engine);
//!   [`step_times`] — the same for many placements, across worker threads.
//! * [`Environment`] — the 15-step measurement protocol with noise and a simulated
//!   wall-clock (the x-axis of the paper's training-curve figures).
//! * [`predefined`] — Single-GPU and Human-Expert baseline placements.
//! * [`search`] — random-search / annealing oracles over the landscape.
//! * [`Benchmark`] — calibrated Inception-V3 / GNMT / BERT instances.

#![warn(missing_docs)]

mod benchmarks;
mod cache;
mod device;
pub mod engine;
mod env;
mod placement;
pub mod predefined;
pub mod search;
mod sim;

pub use benchmarks::{calibrate, Benchmark};
pub use cache::{BaseEval, CacheStats, PlacementCache};
pub use device::{
    efficiency, DeviceId, DeviceKind, DeviceSpec, Machine, MachineBuilder, MachineError,
};
pub use eagle_obs::resolve_workers;
pub use engine::{OpSlot, Schedule, TransferSlot};
pub use env::{
    check_placeable, CheckpointRng, EnvError, EnvSnapshot, EnvState, EnvStateError, Environment,
    EnvironmentBuilder, MeasureConfig, Measurement, DEFAULT_CACHE_CAPACITY,
};
pub use placement::{Placement, PlacementError};
pub use sim::{simulate, simulate_recorded, step_times, SimOutcome, StepStats};
