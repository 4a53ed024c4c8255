//! The categorical policy head every placer and grouper ends in.

use eagle_rl::sample_categorical;
use eagle_tensor::{Tape, Var};

/// One categorical distribution per row of a logit matrix, on the tape.
///
/// Every action this workspace's policies take is drawn by
/// [`Categorical::sample`] and scored by [`Categorical::log_prob`], so a
/// decode-time constraint (a feasibility mask over devices) or a change of
/// sampler is an edit here and nowhere else.
#[derive(Debug, Clone, Copy)]
pub struct Categorical {
    log_probs: Var,
    probs: Var,
}

impl Categorical {
    /// Records the log-probabilities, then the probabilities, of `logits (n, m)`.
    pub fn new(tape: &mut Tape, logits: Var) -> Self {
        let log_probs = tape.log_softmax(logits);
        let probs = tape.softmax(logits);
        Self { log_probs, probs }
    }

    /// Draws an action from row `row`, consuming one draw of `rng`.
    pub fn sample(&self, tape: &Tape, row: usize, rng: &mut dyn rand::RngCore) -> usize {
        sample_categorical(tape.value(self.probs).row(row), rng)
    }

    /// Log-probability of `actions[r]` under row `r`: `(n, 1)`.
    pub fn log_prob(&self, tape: &mut Tape, actions: &[usize]) -> Var {
        tape.pick_per_row(self.log_probs, actions)
    }

    /// Element-wise `p · ln p`, `(n, m)`: the negated entropy terms, for the
    /// caller to sum over whatever rows make up one of its episodes.
    pub fn p_log_p(&self, tape: &mut Tape) -> Var {
        tape.mul_elem(self.probs, self.log_probs)
    }
}
