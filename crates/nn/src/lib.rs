//! # eagle-nn
//!
//! Neural building blocks for the EAGLE device-placement agent, built on the
//! `eagle-tensor` autodiff engine:
//!
//! * [`Linear`] / [`FeedForward`] — affine layers and MLPs (the grouper).
//! * [`LstmCell`] / [`Lstm`] / [`BiLstm`] — recurrent cells and encoders, all
//!   stepping through one recurrence (`LstmCell::run`).
//! * [`Categorical`] — the policy head: every action is drawn and scored here.
//! * [`Placer`] — one type over the three placer bodies: the paper's
//!   sequence-to-sequence placer ([`Placer::seq2seq`], Fig. 3a: bi-LSTM
//!   encoder, attention-equipped LSTM decoder, device-embedding feedback, with
//!   the attention context applied [`AttentionMode::Before`] or
//!   [`AttentionMode::After`] the decoder, Fig. 4), the graph-convolutional
//!   alternative ([`Placer::gcn`], Fig. 3b) and Post's MLP ([`Placer::mlp`]).
//! * [`Grouper`] — the feed-forward grouper plus differentiable soft group
//!   embeddings.
//! * [`embedding`] — hard-grouping group-embedding construction (Hierarchical
//!   Planner style).

#![warn(missing_docs)]

mod categorical;
pub mod embedding;
mod grouper;
mod linear;
mod lstm;
mod placer;

pub use categorical::Categorical;
pub use grouper::Grouper;
pub use linear::{FeedForward, Linear};
pub use lstm::{BiLstm, Lstm, LstmCell, LstmState};
pub use placer::{normalize_adjacency, AttentionMode, Encoded, Placer, PlacerOutput};
