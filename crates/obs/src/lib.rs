//! # eagle-obs
//!
//! Structured telemetry for the EAGLE training loop — the instrumentation layer
//! that makes the paper's sample-cost accounting (Sec. III-D) visible in our
//! reproduction: where a run spends its time (sample vs decode vs simulate vs
//! policy update), how the placement cache behaves, and what every policy
//! update did to the gradients.
//!
//! The design constraints, in order:
//!
//! 1. **Free when off.** A disabled [`Recorder`] is a `None` behind one branch;
//!    every recording call returns immediately and allocates nothing. The
//!    training loop can keep its instrumentation unconditionally.
//! 2. **Never perturbs determinism.** The recorder only *observes* — it owns no
//!    RNG and is never consulted by the code it measures, so curves are
//!    bit-identical with telemetry on and off (locked by
//!    `tests/rollout_determinism.rs`).
//! 3. **No allocation on the hot path.** Histograms use a fixed array of
//!    power-of-two buckets ([`Histogram`]); recording a value is an index
//!    computation and two adds. Metric names are `&'static str`, so counter
//!    and gauge updates never build strings.
//!
//! Two sinks consume a recorder: [`write_jsonl`] streams every span event and
//! the final counter/gauge/histogram state as JSON Lines (one self-describing
//! object per line — the schema is pinned by `tests/telemetry_schema.rs`), and
//! [`summary`] renders a human-readable end-of-run table.
//!
//! A run's totals are the recorder's counters and gauges: evaluations, OOMs
//! and cache traffic (`devsim.*`), evictions and checkpoints (`trainer.*`),
//! and the resolved worker count (`trainer.workers`).

#![warn(missing_docs)]

mod fsio;
mod histogram;
mod recorder;
pub mod runtime;
mod sink;

pub use fsio::write_atomic;
pub use histogram::{Histogram, HistogramSnapshot, NUM_BUCKETS};
pub use recorder::{MetricName, Recorder, Span, SpanEvent};
pub use runtime::{available_workers, resolve_workers, set_available_workers};
pub use sink::{summary, write_jsonl, SCHEMA_VERSION};
