//! # eagle-serve
//!
//! Placement-as-a-service: a long-lived daemon that turns the trained EAGLE
//! placer into something clients hit over a socket, behind a versioned public
//! API. See DESIGN.md's "Serving path" section for the architecture argument.
//!
//! * [`api`] — the versioned wire schema (`schema_version: 1`): typed
//!   requests/replies shared by the daemon, the [`Client`], the bench CLI, and
//!   tests.
//! * [`EagleError`] — the unified error hierarchy folding `EnvError`,
//!   `CheckpointError`, `MachineError` and the serve-side failures into one
//!   crate-public enum with typed wire projections.
//! * [`PolicyStore`] — published parameters keyed by graph family, each named
//!   by a manifest, with graceful hot-reload when the manifest names newer
//!   ones.
//! * [`Router`] — coalesces concurrent requests into waves; one batched
//!   sampling forward + `decode_batch` pair per wave group (< 1 forward per
//!   request at concurrency ≥ 2). Admission is bounded: beyond
//!   `queue_capacity` (or a family's `family_quota` share) requests are shed
//!   with a typed `overloaded` reply carrying a `retry_after_ms` hint, and a
//!   request whose `deadline_ms` budget expires before its wave runs gets a
//!   typed `deadline_exceeded` instead of stale work. A panic inside a wave
//!   is caught: its requests get a typed `internal` reply and the next wave
//!   runs. A request naming an unknown family — or no family at all — is
//!   answered zero-shot by the store's [`GENERALIST_FAMILY`] policy when one
//!   is published.
//! * [`Server`] / [`Client`] — the newline-delimited-JSON TCP front end. A
//!   client honors the backpressure contract by sleeping the hint and
//!   retrying `overloaded` only.
//!
//! Telemetry (all through [`eagle_obs::Recorder`]): counters `serve.requests`,
//! `serve.errors`, `serve.infeasible`, `serve.waves`, `serve.forwards`,
//! `serve.graphs_registered`, `serve.policy_loads`, `serve.policy_reloads`,
//! `serve.policy_reload_errors`, `serve.shed`, `serve.overloaded`,
//! `serve.deadline_exceeded`, `serve.generalist_fallbacks`,
//! `serve.handler_panics`, `serve.router_panics`; gauges
//! `serve.queue_depth` and per-family `serve.queue_depth.<family>`; histograms
//! `serve.wave_size`, `serve.latency_us`, and `serve.queue_depth` (depth at
//! each wave cut — its max bounds the burst memory; p50/p99 come from
//! [`eagle_obs::HistogramSnapshot`]).

#![warn(missing_docs)]

pub mod api;
mod client;
mod error;
mod router;
mod server;
mod store;

pub use client::Client;
pub use error::EagleError;
pub use router::{Router, RouterConfig};
pub use server::{Server, ServerConfig};
pub use store::{
    publish_checkpoint, publish_state, untrained_state, PolicyEntry, PolicyStore, GENERALIST_FAMILY,
};
