//! # eagle-tensor
//!
//! Minimal 2-D tensor library with reverse-mode automatic differentiation, built as
//! the numerical substrate for the EAGLE device-placement agent (the paper implements
//! its agent in PyTorch; this crate supplies the equivalent machinery in pure Rust).
//!
//! The design is deliberately small and auditable:
//!
//! * [`Tensor`] — dense row-major `f32` matrix with a thread-parallel matmul.
//! * [`Params`] / [`ParamId`] — named parameter store shared by all modules;
//!   a tape borrows its values instead of copying them.
//! * [`Tape`] / [`Var`] — define-by-run autodiff: record a forward pass, call
//!   [`Tape::backward_into`], read gradients out of the detached [`Grads`] slots
//!   (absent until a backward pass reaches the parameter).
//! * [`optim`] — Adam; global-norm gradient clipping is [`Grads::clip_global_norm`]
//!   (the paper uses Adam, lr 0.01, clip 1.0).
//! * [`init`] — Xavier / uniform initializers driven by an explicit RNG.
//! * [`tanh()`] — glibc 2.36's `tanhf`, bit for bit, in branch-free Rust.
//!
//! ## Example
//!
//! ```
//! use eagle_tensor::{Grads, Params, Tape, Tensor, optim::Adam};
//!
//! let mut params = Params::new();
//! let w = params.add("w", Tensor::scalar(0.0));
//! let mut grads = Grads::for_params(&params);
//! let mut opt = Adam::new(0.1);
//! for _ in 0..200 {
//!     grads.zero();
//!     let mut tape = Tape::new();
//!     let wv = tape.param(&params, w);
//!     let err = tape.add_scalar(wv, -2.0);     // w - 2
//!     let sq = tape.mul_elem(err, err);        // (w - 2)^2
//!     let loss = tape.sum_all(sq);
//!     tape.backward_into(loss, &mut grads);
//!     drop(tape);                              // it borrows `w`: Adam writes in place
//!     opt.step_grads(&mut params, &grads);
//! }
//! assert!((params.get(w).item() - 2.0).abs() < 0.05);
//! ```

#![warn(missing_docs)]

mod grads;
pub mod init;
pub mod optim;
mod params;
mod tanh;
mod tape;
mod tensor;

pub use grads::Grads;
pub use params::{ParamId, Params, ParamsStamp};
pub use tanh::tanh;
pub use tape::{FusedAct, Tape, Var};
pub use tensor::{softmax_row, Tensor, MR, NR, PAR_MATMUL_THRESHOLD, STREAM_MATMUL_ROWS};
