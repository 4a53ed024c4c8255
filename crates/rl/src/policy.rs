//! The policy abstraction the training algorithms operate on.
//!
//! An agent (EAGLE, Hierarchical Planner, Post) exposes its stochastic decision as a
//! flat action vector. The trait surface is *batched-first*: the primitive
//! operations are [`StochasticPolicy::sample_batch`] (draw a whole minibatch of
//! action vectors in one forward pass) and [`StochasticPolicy::score_batch`]
//! (re-score a minibatch differentiably on one shared tape). The per-episode
//! [`StochasticPolicy::sample`]/[`StochasticPolicy::score`] methods are provided
//! wrappers over batch size 1; no agent overrides them, so there is one
//! implementation of each behaviour.
//!
//! # Bit-identity contract
//!
//! An episode's outcome must not depend on its batch-mates: `sample_batch` over
//! `B` per-episode RNG streams returns exactly the actions and log-probabilities
//! that `B` batch-of-one calls on those streams return, and `score_batch`
//! produces episode heads whose values (and whose gradients under per-episode
//! `backward_into` calls in episode order) are bit-identical to `B` separate
//! batch-of-one tapes. This holds because every batched layer stacks episodes as
//! extra *rows* and all tensor ops are row-wise (matmul output row `i` depends
//! only on input row `i` with a fixed k-summation order; softmax/broadcast/gates
//! are per-row or elementwise), so each episode's f32 summation order is
//! unchanged.
//!
//! The update loops in [`crate::algos`] do not backpropagate per episode: they
//! fold all episode losses into one scalar (`Tape::add_n`) and backpropagate
//! the whole minibatch in a single traversal, which visits each *shared*
//! forward node once instead of once per episode. Summed-loss gradients add
//! episode contributions in node order rather than episode order — a float
//! *reordering*, not a different quantity — so single-backward gradients match
//! per-episode gradients to tolerance (see `tests/batched_policy.rs`), while
//! the update path is run-to-run deterministic bit for bit.

use eagle_tensor::{Params, Tape, Var};

/// A scoring pass: the tape that built it plus the loss-relevant heads.
pub struct ScoreHandle {
    /// The tape holding the forward pass (call `backward_into` on it with a loss).
    pub tape: Tape,
    /// Joint log-probability of the scored actions, `1x1`.
    pub log_prob: Var,
    /// Mean per-decision entropy of the policy, `1x1`.
    pub entropy: Var,
    /// Optional differentiable auxiliary loss the agent wants *added* to every
    /// policy-update loss (e.g. EAGLE's group-balance regularizer). Must not
    /// depend on the sampled actions, so PPO's importance ratios stay valid.
    pub aux_loss: Option<Var>,
}

/// The loss-relevant heads of one episode inside a [`BatchScoreHandle`].
///
/// All `Var`s live on the shared batch tape. `aux_loss` may reference the same
/// node across episodes when the auxiliary term is episode-independent (it is
/// for EAGLE's balance regularizer); each episode's loss then contributes one
/// scaled gradient of that node, matching `B` separate tapes.
#[derive(Debug, Clone, Copy)]
pub struct EpisodeScore {
    /// Joint log-probability of this episode's actions, `1x1`.
    pub log_prob: Var,
    /// Mean per-decision entropy for this episode, `1x1`.
    pub entropy: Var,
    /// Optional auxiliary loss (see [`ScoreHandle::aux_loss`]).
    pub aux_loss: Option<Var>,
}

/// A batched scoring pass: one shared tape holding the forward pass of every
/// episode, plus per-episode heads.
///
/// Algorithms build each episode's loss on the shared tape, fold the losses
/// with `Tape::add_n`, and run ONE `Tape::backward_into` for the whole
/// minibatch: shared forward nodes are traversed once, not once per episode.
pub struct BatchScoreHandle {
    /// The shared tape holding all episodes' forward passes.
    pub tape: Tape,
    /// Per-episode heads, in the order of the scored action vectors.
    pub episodes: Vec<EpisodeScore>,
}

/// A stochastic policy over flat action vectors, batched-first.
pub trait StochasticPolicy {
    /// Number of `u32` RNG draws one sampled episode consumes. Fixed per policy
    /// (it equals the action-vector length for every placement agent), which is
    /// what lets a caller pre-split per-episode streams off one master RNG with
    /// [`fork_streams`] and keep checkpointed RNG accounting identical to a
    /// serial per-episode sampling loop.
    fn rng_draws_per_sample(&self) -> usize;

    /// Samples one action vector per RNG stream in a single batched forward
    /// pass, returning each with its joint log-probability under the sampling
    /// parameters (needed for PPO's importance ratio). Episode `b` consumes
    /// draws only from `rngs[b]`, [`StochasticPolicy::rng_draws_per_sample`]
    /// of them, whatever the batch size.
    fn sample_batch(
        &self,
        params: &Params,
        rngs: &mut [&mut dyn rand::RngCore],
    ) -> Vec<(Vec<usize>, f32)>;

    /// Re-scores a minibatch of action vectors under `params` on one shared
    /// tape (see [`BatchScoreHandle`] for the gradient contract).
    fn score_batch(&self, params: &Params, actions: &[Vec<usize>]) -> BatchScoreHandle;

    /// Samples a single action vector. Default: [`StochasticPolicy::sample_batch`]
    /// with batch size 1.
    fn sample(&self, params: &Params, rng: &mut dyn rand::RngCore) -> (Vec<usize>, f32) {
        self.sample_batch(params, &mut [rng]).pop().expect("sample_batch returns one entry per rng")
    }

    /// Re-scores `actions` under `params` on a fresh tape. Default:
    /// [`StochasticPolicy::score_batch`] with batch size 1.
    fn score(&self, params: &Params, actions: &[usize]) -> ScoreHandle {
        let mut h = self.score_batch(params, &[actions.to_vec()]);
        let ep = h.episodes.pop().expect("score_batch returns one entry per action vector");
        ScoreHandle {
            tape: h.tape,
            log_prob: ep.log_prob,
            entropy: ep.entropy,
            aux_loss: ep.aux_loss,
        }
    }
}

/// Samples an index from one categorical probability row by inverse-CDF.
///
/// Degenerate rows — a NaN/∞ entry or a near-zero sum, both producible by
/// extreme logits overflowing a softmax — fall back to the argmax over the
/// finite entries (first index on ties, 0 if nothing is finite) instead of
/// silently returning the last index. The RNG is always advanced exactly
/// once, so healthy rows keep the identical sampling stream they had before
/// the guard existed.
pub fn sample_categorical(probs: &[f32], rng: &mut dyn rand::RngCore) -> usize {
    use rand::Rng;
    let r: f32 = rng.gen();
    let sum: f32 = probs.iter().sum();
    if !sum.is_finite() || sum <= 1e-12 {
        let mut best: Option<(usize, f32)> = None;
        for (i, &p) in probs.iter().enumerate() {
            if p.is_finite() && best.is_none_or(|(_, bp)| p > bp) {
                best = Some((i, p));
            }
        }
        return best.map_or(0, |(i, _)| i);
    }
    let mut acc = 0.0;
    for (i, &p) in probs.iter().enumerate() {
        acc += p;
        if r < acc {
            return i;
        }
    }
    probs.len() - 1
}

/// Splits `count` per-episode RNG streams off `master`, leaving `master`
/// advanced past exactly `count * draws_per_sample` `u32` draws.
///
/// Stream `b` starts at the position `master` held after `b` serial episodes,
/// so a batched sampler consuming `draws_per_sample` draws per stream
/// reproduces a serial per-episode sampling loop's draws bit-for-bit — and the
/// master RNG (the one checkpoints capture) ends at the same position either
/// way.
pub fn fork_streams<R: rand::RngCore + Clone>(
    master: &mut R,
    draws_per_sample: usize,
    count: usize,
) -> Vec<R> {
    let mut streams = Vec::with_capacity(count);
    for _ in 0..count {
        streams.push(master.clone());
        for _ in 0..draws_per_sample {
            master.next_u32();
        }
    }
    streams
}

#[cfg(test)]
pub(crate) mod test_policy {
    //! A minimal categorical bandit policy used to unit-test the algorithms in
    //! isolation from the full placement networks. Implements only the batched
    //! primitives; the per-episode methods come from the trait defaults.

    use super::*;
    use eagle_tensor::{ParamId, Tensor};

    /// Single categorical distribution over `n` arms, parameterized by raw logits.
    pub struct Bandit {
        pub logits: ParamId,
    }

    impl Bandit {
        pub fn new(params: &mut Params, arms: usize) -> Self {
            Self { logits: params.add("bandit/logits", Tensor::zeros(1, arms)) }
        }

        pub fn probs(&self, params: &Params) -> Vec<f32> {
            let mut tape = Tape::new();
            let l = tape.param(params, self.logits);
            let p = tape.softmax(l);
            tape.value(p).row(0).to_vec()
        }
    }

    impl StochasticPolicy for Bandit {
        fn rng_draws_per_sample(&self) -> usize {
            1
        }

        fn sample_batch(
            &self,
            params: &Params,
            rngs: &mut [&mut dyn rand::RngCore],
        ) -> Vec<(Vec<usize>, f32)> {
            let probs = self.probs(params);
            rngs.iter_mut()
                .map(|rng| {
                    let arm = sample_categorical(&probs, &mut **rng);
                    (vec![arm], probs[arm].ln())
                })
                .collect()
        }

        fn score_batch(&self, params: &Params, actions: &[Vec<usize>]) -> BatchScoreHandle {
            let mut tape = Tape::new();
            let l = tape.param(params, self.logits);
            let ls = tape.log_softmax(l);
            let p = tape.softmax(l);
            let plogp = tape.mul_elem(p, ls);
            let s = tape.sum_all(plogp);
            let entropy = tape.neg(s);
            let episodes = actions
                .iter()
                .map(|a| {
                    let picked = tape.pick_per_row(ls, &a[..1]);
                    let log_prob = tape.sum_all(picked);
                    EpisodeScore { log_prob, entropy, aux_loss: None }
                })
                .collect();
            BatchScoreHandle { tape, episodes }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{RngCore, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn sample_categorical_degenerate_rows_fall_back_to_finite_argmax() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        // NaN poisons the sum: argmax over the finite entries wins.
        assert_eq!(sample_categorical(&[f32::NAN, 0.2, 0.7], &mut rng), 2);
        // Overflowed softmax (∞ entry): the ∞ is skipped, not "last index".
        assert_eq!(sample_categorical(&[0.3, f32::INFINITY, 0.1], &mut rng), 0);
        // Near-zero mass (all-underflowed row): first index on ties.
        assert_eq!(sample_categorical(&[0.0, 0.0, 0.0], &mut rng), 0);
        // Nothing finite at all: index 0, not a panic.
        assert_eq!(sample_categorical(&[f32::NAN, f32::NAN], &mut rng), 0);
        // Negative-underflow garbage still picks the largest finite entry.
        assert_eq!(sample_categorical(&[-1.0, f32::NAN, -0.5], &mut rng), 2);
    }

    #[test]
    fn sample_categorical_healthy_rows_keep_their_rng_stream() {
        // The degenerate guard must consume exactly one draw, like the healthy
        // path: interleaving degenerate calls cannot shift healthy samples.
        let mut a = ChaCha8Rng::seed_from_u64(9);
        let mut b = ChaCha8Rng::seed_from_u64(9);
        let healthy = [0.1f32, 0.7, 0.2];
        let _ = sample_categorical(&healthy, &mut a);
        let first_a = sample_categorical(&healthy, &mut a);
        let _ = sample_categorical(&[f32::NAN, 1.0], &mut b);
        let first_b = sample_categorical(&healthy, &mut b);
        assert_eq!(first_a, first_b);
        // And a healthy row samples by inverse-CDF: probability-1 mass on one
        // index always returns it.
        for _ in 0..16 {
            assert_eq!(sample_categorical(&[0.0, 1.0, 0.0], &mut a), 1);
        }
    }

    #[test]
    fn fork_streams_reproduces_serial_draw_order() {
        // Forked streams replay the exact windows of the master stream a
        // serial per-episode loop would consume, and the master ends at the
        // same position either way.
        let draws = 5;
        let mut master = ChaCha8Rng::seed_from_u64(77);
        let mut serial = master.clone();
        let serial_draws: Vec<u32> = (0..3 * draws).map(|_| serial.next_u32()).collect();

        let mut streams = fork_streams(&mut master, draws, 3);
        for (b, stream) in streams.iter_mut().enumerate() {
            for d in 0..draws {
                assert_eq!(stream.next_u32(), serial_draws[b * draws + d], "episode {b} draw {d}");
            }
        }
        assert_eq!(master.next_u32(), serial.next_u32(), "master advanced past all episodes");
    }

    #[test]
    fn bandit_per_episode_wrappers_match_batch() {
        use test_policy::Bandit;
        let mut params = Params::new();
        let bandit = Bandit::new(&mut params, 4);
        let mut master = ChaCha8Rng::seed_from_u64(5);
        let mut streams = fork_streams(&mut master.clone(), bandit.rng_draws_per_sample(), 6);
        let mut refs: Vec<&mut dyn rand::RngCore> =
            streams.iter_mut().map(|r| r as &mut dyn rand::RngCore).collect();
        let batch = bandit.sample_batch(&params, &mut refs);
        let serial: Vec<_> = (0..6).map(|_| bandit.sample(&params, &mut master)).collect();
        assert_eq!(batch, serial);

        let actions: Vec<Vec<usize>> = batch.iter().map(|(a, _)| a.clone()).collect();
        let bh = bandit.score_batch(&params, &actions);
        for (ep, a) in bh.episodes.iter().zip(&actions) {
            let single = bandit.score(&params, a);
            assert_eq!(
                bh.tape.value(ep.log_prob).item().to_bits(),
                single.tape.value(single.log_prob).item().to_bits()
            );
            assert_eq!(
                bh.tape.value(ep.entropy).item().to_bits(),
                single.tape.value(single.entropy).item().to_bits()
            );
        }
    }
}
