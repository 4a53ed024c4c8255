//! The policy abstraction the training algorithms operate on.
//!
//! An agent (EAGLE, Hierarchical Planner, Post) exposes its stochastic decision as a
//! flat action vector. The trait surface is *one forward per policy*:
//! [`StochasticPolicy::forward_batch`] runs the network over a whole minibatch
//! on one tape, taking each action from a [`Draws`] — drawn from the episode's
//! own RNG stream, or replayed from a given action vector. The two batched
//! methods the algorithms call are provided on top of it:
//! [`StochasticPolicy::sample_batch`] (draw, and keep each episode's
//! log-probability under the sampling parameters) and
//! [`StochasticPolicy::score_batch`] (replay, and keep the tape for the
//! gradient). Sampling and scoring record the same forward, node for node, so
//! they cannot drift apart; a batch of one is the per-episode case.
//!
//! So a policy with a [`ReplaySlot`] samples once: `sample_batch` keeps its
//! handle there, and the next `score_batch` of the drawn actions under the
//! same tensors (PPO's first epoch, REINFORCE's step) takes it instead of
//! running a replay forward.
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

use std::sync::{Mutex, MutexGuard, PoisonError};

use eagle_tensor::{Params, ParamsStamp, Tape, Var};

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
    /// Optional differentiable auxiliary loss the agent wants *added* to every
    /// policy-update loss (e.g. EAGLE's group-balance regularizer). Must not
    /// depend on the sampled actions, so PPO's importance ratios stay valid.
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
    /// Per-episode heads, in episode order.
    pub episodes: Vec<EpisodeScore>,
}

/// The last sampling forward of a policy, kept for the score that replays it.
///
/// Keyed by [`ParamsStamp`] identity and the drawn actions, so a kept handle
/// goes only to a score of those very actions under those very tensors and
/// reusing it is exact. Its tape holds every parameter it read: a write to
/// one copies it until the entry is taken or replaced.
#[derive(Default)]
pub struct ReplaySlot(Mutex<Option<Kept>>);

/// A sampling forward: the tensors it read, the actions it drew, its handle.
type Kept = (ParamsStamp, Vec<Vec<usize>>, BatchScoreHandle);

impl ReplaySlot {
    /// Keeps `handle`, the forward that drew `actions` under `params`,
    /// replacing whatever was kept before.
    pub fn keep(&self, params: &Params, actions: Vec<Vec<usize>>, handle: BatchScoreHandle) {
        *self.lock() = Some((params.stamp(), actions, handle));
    }

    /// Empties the slot, returning the kept handle if it scores exactly
    /// `actions` under `params`.
    pub fn take(&self, params: &Params, actions: &[Vec<usize>]) -> Option<BatchScoreHandle> {
        let (stamp, kept, handle) = self.lock().take()?;
        (kept == actions && stamp.matches(params)).then_some(handle)
    }

    /// True when nothing is kept.
    pub fn is_empty(&self) -> bool {
        self.lock().is_none()
    }

    // The value is only ever replaced whole: a poisoned lock holds a sound one.
    fn lock(&self) -> MutexGuard<'_, Option<Kept>> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Where a policy forward's actions come from, one source per episode.
pub enum Draws<'a, 'r> {
    /// Episode `b` draws from `rngs[b]` only.
    Sample(&'a mut [&'r mut dyn rand::RngCore]),
    /// Episode `b` replays (teacher-forces) `actions[b]`.
    Replay(&'a [&'a [usize]]),
}

impl Draws<'_, '_> {
    /// Number of episodes.
    pub fn episodes(&self) -> usize {
        match self {
            Draws::Sample(rngs) => rngs.len(),
            Draws::Replay(actions) => actions.len(),
        }
    }

    /// Episode `b`'s action at position `i`: `draw` on stream `b` when
    /// sampling, `actions[b][i]` when replaying. Every decision site of a
    /// forward goes through here, so the forward is the same either way.
    pub fn action(
        &mut self,
        b: usize,
        i: usize,
        draw: impl FnOnce(&mut dyn rand::RngCore) -> usize,
    ) -> usize {
        match self {
            Draws::Sample(rngs) => draw(&mut *rngs[b]),
            Draws::Replay(actions) => actions[b][i],
        }
    }
}

/// A stochastic policy over flat action vectors, batched-first.
pub trait StochasticPolicy {
    /// Number of `u32` RNG draws one sampled episode consumes. Fixed per policy
    /// (it equals the action-vector length for every placement agent), which is
    /// what lets a caller pre-split per-episode streams off one master RNG with
    /// [`fork_streams`] and keep checkpointed RNG accounting identical to a
    /// serial per-episode sampling loop.
    fn rng_draws_per_sample(&self) -> usize;

    /// The policy's one forward: every episode of `draws` on one shared tape,
    /// returning the scoring handle (see [`BatchScoreHandle`] for the gradient
    /// contract) and each episode's action vector. When sampling, episode `b`
    /// consumes [`StochasticPolicy::rng_draws_per_sample`] draws of its own
    /// stream only, whatever the batch size.
    fn forward_batch(
        &self,
        params: &Params,
        draws: Draws<'_, '_>,
    ) -> (BatchScoreHandle, Vec<Vec<usize>>);

    /// Where this policy keeps its last sampling forward for the score that
    /// replays it; `None` (the default) keeps nothing.
    fn replay_slot(&self) -> Option<&ReplaySlot> {
        None
    }

    /// Samples one action vector per RNG stream, each with its joint
    /// log-probability under the sampling parameters (PPO's `pi_old`), and
    /// keeps the forward in the policy's [`ReplaySlot`], if it has one.
    fn sample_batch(
        &self,
        params: &Params,
        rngs: &mut [&mut dyn rand::RngCore],
    ) -> Vec<(Vec<usize>, f32)> {
        let (h, actions) = self.forward_batch(params, Draws::Sample(rngs));
        let log_probs = h.episodes.iter().map(|ep| h.tape.value(ep.log_prob).item());
        let drawn = actions.iter().cloned().zip(log_probs).collect();
        if let Some(slot) = self.replay_slot() {
            slot.keep(params, actions, h);
        }
        drawn
    }

    /// Scores a minibatch of action vectors under `params` on one shared
    /// tape: the kept sampling forward when it drew exactly `actions` under
    /// these very tensors ([`ReplaySlot::take`]), a replay forward otherwise.
    /// Either way the slot is empty afterwards.
    fn score_batch(&self, params: &Params, actions: &[Vec<usize>]) -> BatchScoreHandle {
        if let Some(h) = self.replay_slot().and_then(|slot| slot.take(params, actions)) {
            return h;
        }
        let replay: Vec<&[usize]> = actions.iter().map(Vec::as_slice).collect();
        self.forward_batch(params, Draws::Replay(&replay)).0
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
    //! isolation from the full placement networks. Implements only the one
    //! forward; `sample_batch` and `score_batch` come from the trait.

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

        fn forward_batch(
            &self,
            params: &Params,
            mut draws: Draws<'_, '_>,
        ) -> (BatchScoreHandle, Vec<Vec<usize>>) {
            let mut tape = Tape::new();
            let l = tape.param(params, self.logits);
            let ls = tape.log_softmax(l);
            let p = tape.softmax(l);
            let plogp = tape.mul_elem(p, ls);
            let s = tape.sum_all(plogp);
            let entropy = tape.neg(s);
            let actions: Vec<Vec<usize>> = (0..draws.episodes())
                .map(|b| {
                    vec![draws.action(b, 0, |rng| sample_categorical(tape.value(p).row(0), rng))]
                })
                .collect();
            let episodes = actions
                .iter()
                .map(|a| {
                    let picked = tape.pick_per_row(ls, a);
                    let log_prob = tape.sum_all(picked);
                    EpisodeScore { log_prob, entropy, aux_loss: None }
                })
                .collect();
            (BatchScoreHandle { tape, episodes }, actions)
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
    fn draws_sample_from_own_stream_or_replay_without_drawing() {
        let mut a = ChaCha8Rng::seed_from_u64(1);
        let mut b = ChaCha8Rng::seed_from_u64(2);
        let (first_b, second_b) = {
            let mut probe = b.clone();
            (probe.next_u32() as usize, probe.next_u32() as usize)
        };
        let mut rngs: [&mut dyn RngCore; 2] = [&mut a, &mut b];
        let mut draws = Draws::Sample(&mut rngs);
        assert_eq!(draws.episodes(), 2);
        // Episode 1 reads stream 1 only, one draw per call.
        assert_eq!(draws.action(1, 0, |rng| rng.next_u32() as usize), first_b);
        assert_eq!(draws.action(1, 1, |rng| rng.next_u32() as usize), second_b);
        assert_eq!(a.next_u32(), ChaCha8Rng::seed_from_u64(1).next_u32(), "stream 0 untouched");

        let replay: [&[usize]; 2] = [&[4, 5], &[6, 7]];
        let mut draws = Draws::Replay(&replay);
        assert_eq!(draws.episodes(), 2);
        assert_eq!(draws.action(1, 0, |_| unreachable!("replay draws nothing")), 6);
        assert_eq!(draws.action(0, 1, |_| unreachable!("replay draws nothing")), 5);
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

    /// The bandit's replay forward over `actions`.
    fn replayed(
        bandit: &test_policy::Bandit,
        params: &Params,
        actions: &[Vec<usize>],
    ) -> BatchScoreHandle {
        let replay: Vec<&[usize]> = actions.iter().map(Vec::as_slice).collect();
        bandit.forward_batch(params, Draws::Replay(&replay)).0
    }

    #[test]
    fn replay_slot_hits_only_the_kept_tensors_and_actions() {
        let mut params = Params::new();
        let bandit = test_policy::Bandit::new(&mut params, 3);
        let drawn = vec![vec![1], vec![2]];
        let slot = ReplaySlot::default();
        let keep =
            |params: &Params| slot.keep(params, drawn.clone(), replayed(&bandit, params, &drawn));
        assert!(slot.is_empty());

        keep(&params);
        assert!(!slot.is_empty());
        let hit = slot.take(&params, &drawn).expect("same tensors, same actions");
        assert_eq!(hit.episodes.len(), 2);
        assert!(slot.is_empty(), "a hit empties the slot");
        assert!(slot.take(&params, &drawn).is_none(), "nothing is handed out twice");

        // A clone of the store holds the very same tensors.
        keep(&params);
        assert!(slot.take(&params.clone(), &drawn).is_some());

        // Other actions miss, and the miss empties the slot too.
        for other in [vec![vec![1], vec![0]], vec![vec![1]], vec![]] {
            keep(&params);
            assert!(slot.take(&params, &other).is_none(), "{other:?}");
            assert!(slot.is_empty(), "a miss empties the slot");
        }

        // Equal values in other tensors miss.
        let mut copy = Params::new();
        for id in params.ids() {
            copy.add(params.name(id), params.get(id).clone());
        }
        keep(&params);
        assert!(slot.take(&copy, &drawn).is_none());
        assert!(slot.is_empty());

        // A write between keep and take misses: the kept tape holds the old
        // tensor, so the write lands in a copy.
        keep(&params);
        params.get_mut(bandit.logits).data_mut()[0] = 1.0;
        assert!(slot.take(&params, &drawn).is_none());
        assert!(slot.is_empty());
    }

    #[test]
    fn a_new_keep_replaces_the_old_entry() {
        let mut params = Params::new();
        let bandit = test_policy::Bandit::new(&mut params, 3);
        let (first, second) = (vec![vec![0]], vec![vec![2], vec![1], vec![0]]);
        let slot = ReplaySlot::default();
        slot.keep(&params, first.clone(), replayed(&bandit, &params, &first));
        slot.keep(&params, second.clone(), replayed(&bandit, &params, &second));
        assert!(slot.take(&params, &first).is_none(), "the first entry is gone");
        slot.keep(&params, first.clone(), replayed(&bandit, &params, &first));
        slot.keep(&params, second.clone(), replayed(&bandit, &params, &second));
        let h = slot.take(&params, &second).expect("the second entry is kept");
        assert_eq!(h.episodes.len(), 3);
    }

    #[test]
    fn bandit_batch_matches_batches_of_one() {
        use test_policy::Bandit;
        let mut params = Params::new();
        let bandit = Bandit::new(&mut params, 4);
        let mut master = ChaCha8Rng::seed_from_u64(5);
        let mut streams = fork_streams(&mut master.clone(), bandit.rng_draws_per_sample(), 6);
        let mut refs: Vec<&mut dyn rand::RngCore> =
            streams.iter_mut().map(|r| r as &mut dyn rand::RngCore).collect();
        let batch = bandit.sample_batch(&params, &mut refs);
        let serial: Vec<_> =
            (0..6).flat_map(|_| bandit.sample_batch(&params, &mut [&mut master])).collect();
        assert_eq!(batch, serial);

        let actions: Vec<Vec<usize>> = batch.iter().map(|(a, _)| a.clone()).collect();
        let bh = bandit.score_batch(&params, &actions);
        for (ep, a) in bh.episodes.iter().zip(&actions) {
            let single = bandit.score_batch(&params, std::slice::from_ref(a));
            let one = single.episodes[0];
            assert_eq!(
                bh.tape.value(ep.log_prob).item().to_bits(),
                single.tape.value(one.log_prob).item().to_bits()
            );
            assert_eq!(
                bh.tape.value(ep.entropy).item().to_bits(),
                single.tape.value(one.entropy).item().to_bits()
            );
        }
    }
}
