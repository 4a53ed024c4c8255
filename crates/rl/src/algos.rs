//! The three training algorithms the paper evaluates (Sec. III-D, Table III):
//! REINFORCE, clipped-surrogate PPO, and PPO joined with cross-entropy minimization
//! (Post's algorithm).

use eagle_obs::Recorder;
use eagle_tensor::{optim::Adam, Grads, Params, Tape, Var};

use crate::policy::{EpisodeScore, StochasticPolicy};

/// One collected sample ready for a policy update.
#[derive(Debug, Clone)]
pub struct TrainSample {
    /// The flat action vector the policy produced.
    pub actions: Vec<usize>,
    /// Joint log-probability at sampling time (PPO's `pi_old`).
    pub old_log_prob: f32,
    /// Estimated advantage (reward minus baseline).
    pub advantage: f32,
}

/// Statistics of one update, for logging and tests.
///
/// An "update" is one call to an algorithm's `update` method, which may run
/// several gradient steps ([`Reinforce`]: exactly one, [`Ppo`]: `epochs`,
/// [`CrossEntropyMin`]: `steps`). `loss` and `entropy` are means over *all*
/// of the update's gradient steps — not just the last one — so the three
/// algorithms report on the same scale.
#[derive(Debug, Clone, Default)]
pub struct UpdateStats {
    /// Batch-mean loss, averaged across the update's gradient steps.
    pub loss: f32,
    /// Batch-mean policy entropy, averaged across the update's gradient steps.
    pub entropy: f32,
    /// Pre-clip global gradient norm of the last gradient step.
    pub grad_norm: f32,
}

/// Shared optimizer knobs (paper Sec. IV-C: Adam, lr 0.01, clip by norm at 1.0).
#[derive(Debug, Clone)]
pub struct OptimConfig {
    /// Adam learning rate.
    pub lr: f32,
    /// Global gradient-norm clip.
    pub grad_clip: f32,
    /// Entropy-bonus coefficient (paper: 0.01).
    pub ent_coef: f32,
}

impl Default for OptimConfig {
    fn default() -> Self {
        Self { lr: 0.01, grad_clip: 1.0, ent_coef: 0.01 }
    }
}

/// What the three algorithms share: optimizer knobs and Adam state, reusable
/// gradient buffers, the telemetry recorder — and the one gradient-step loop.
struct Stepper {
    cfg: OptimConfig,
    opt: Adam,
    /// Reusable gradient buffers, allocated on the first update.
    grads: Option<Grads>,
    recorder: Recorder,
    /// Name of the update-latency span.
    span: &'static str,
}

impl Stepper {
    fn new(cfg: OptimConfig, span: &'static str) -> Self {
        let opt = Adam::new(cfg.lr);
        Self { cfg, opt, grads: None, recorder: Recorder::disabled(), span }
    }

    /// Runs `steps` gradient steps over `actions`: one batched scoring pass
    /// per step (the parameters change between steps).
    /// `gain` builds episode `i`'s objective on the shared tape; the loop
    /// negates it, averages over the batch, adds the agent's auxiliary loss and
    /// folds the episodes with `add_n`, so the whole batch backpropagates in
    /// ONE tape traversal and shared forward nodes are visited once.
    fn update(
        &mut self,
        policy: &impl StochasticPolicy,
        params: &mut Params,
        actions: &[Vec<usize>],
        steps: usize,
        gain: impl Fn(&mut Tape, EpisodeScore, usize) -> Var,
    ) -> UpdateStats {
        assert!(!actions.is_empty(), "empty training batch");
        assert!(steps > 0, "an update needs at least one gradient step");
        let _timer = self.recorder.span(self.span);
        let mut stats = UpdateStats::default();
        let scale = 1.0 / actions.len() as f32;
        for _ in 0..steps {
            let mut h = policy.score_batch(params, actions);
            let mut ent_total = 0.0f32;
            let mut ep_losses = Vec::with_capacity(actions.len());
            for (i, &ep) in h.episodes.iter().enumerate() {
                let gain = gain(&mut h.tape, ep, i);
                let neg = h.tape.neg(gain);
                let mut loss = h.tape.scale(neg, scale);
                if let Some(aux) = ep.aux_loss {
                    let aux_scaled = h.tape.scale(aux, scale);
                    loss = h.tape.add(loss, aux_scaled);
                }
                ent_total += h.tape.value(ep.entropy).item();
                ep_losses.push(loss);
            }
            let total = h.tape.add_n(&ep_losses);
            let grads = self.grads.get_or_insert_with(|| Grads::for_params(params));
            grads.zero();
            h.tape.backward_into(total, grads);
            stats.loss += h.tape.value(total).item();
            stats.entropy += ent_total * scale;
            stats.grad_norm = grads.clip_global_norm(self.cfg.grad_clip);
            self.opt.step_grads(params, grads);
        }
        stats.loss /= steps as f32;
        stats.entropy /= steps as f32;
        self.recorder.add("rl.updates", 1);
        self.recorder.observe("rl.grad_norm", stats.grad_norm as f64);
        self.recorder.observe("rl.entropy", stats.entropy as f64);
        self.recorder.gauge("rl.loss", stats.loss as f64);
        stats
    }
}

/// The recorder and checkpoint accessors every algorithm exposes over its
/// [`Stepper`].
macro_rules! stepper_api {
    ($($algo:ident),*) => {$(
        impl $algo {
            /// Installs a telemetry recorder (update latency, grad-norm, entropy).
            pub fn with_recorder(mut self, recorder: Recorder) -> Self {
                self.inner.recorder = recorder;
                self
            }

            /// The optimizer's full state (step count + Adam moments), for checkpointing.
            pub fn optimizer(&self) -> &Adam {
                &self.inner.opt
            }

            /// Replaces the optimizer state, resuming exactly where a
            /// checkpointed run's `optimizer` snapshot left off.
            pub fn restore_optimizer(&mut self, opt: Adam) {
                self.inner.opt = opt;
            }
        }
    )*};
}
stepper_api!(Reinforce, Ppo, CrossEntropyMin);

fn actions_of(batch: &[TrainSample]) -> Vec<Vec<usize>> {
    batch.iter().map(|s| s.actions.clone()).collect()
}

/// Plain REINFORCE with a baseline: maximizes `E[advantage * log pi(a)]`.
pub struct Reinforce {
    inner: Stepper,
}

impl Reinforce {
    /// Creates the trainer with its own Adam state.
    pub fn new(cfg: OptimConfig) -> Self {
        Self { inner: Stepper::new(cfg, "rl.reinforce.update_us") }
    }

    /// One gradient step over a batch of samples.
    pub fn update(
        &mut self,
        policy: &impl StochasticPolicy,
        params: &mut Params,
        batch: &[TrainSample],
    ) -> UpdateStats {
        let ent_coef = self.inner.cfg.ent_coef;
        self.inner.update(policy, params, &actions_of(batch), 1, |tape, ep, i| {
            // gain = adv * logp + ent_coef * entropy
            let weighted = tape.scale(ep.log_prob, batch[i].advantage);
            let ent_term = tape.scale(ep.entropy, ent_coef);
            tape.add(weighted, ent_term)
        })
    }
}

/// Clipped-surrogate PPO (paper Eq. 3): several epochs of minibatch updates per
/// batch of samples, with the ratio clipped to `[1 - eps, 1 + eps]`.
pub struct Ppo {
    inner: Stepper,
    /// Clip range `eps` (paper: 0.3).
    pub clip: f32,
    /// Gradient steps per collected batch (paper: 4).
    pub epochs: usize,
}

impl Ppo {
    /// Creates the trainer (paper defaults: clip 0.3, 4 epochs).
    pub fn new(cfg: OptimConfig, clip: f32, epochs: usize) -> Self {
        Self { inner: Stepper::new(cfg, "rl.ppo.update_us"), clip, epochs }
    }

    /// Runs `epochs` gradient steps over the batch. The returned stats average
    /// loss and entropy over all epochs (see [`UpdateStats`]); `grad_norm` is
    /// the last epoch's.
    pub fn update(
        &mut self,
        policy: &impl StochasticPolicy,
        params: &mut Params,
        batch: &[TrainSample],
    ) -> UpdateStats {
        let (clip, ent_coef) = (self.clip, self.inner.cfg.ent_coef);
        self.inner.update(policy, params, &actions_of(batch), self.epochs, |tape, ep, i| {
            let s = &batch[i];
            let old = tape.add_scalar(ep.log_prob, -s.old_log_prob);
            let ratio = tape.exp(old);
            let unclipped = tape.scale(ratio, s.advantage);
            let clipped_ratio = tape.clamp(ratio, 1.0 - clip, 1.0 + clip);
            let clipped = tape.scale(clipped_ratio, s.advantage);
            let surr = tape.min_elem(unclipped, clipped);
            let ent_term = tape.scale(ep.entropy, ent_coef);
            tape.add(surr, ent_term)
        })
    }
}

/// Cross-entropy minimization over elite samples (the "CE" half of Post's joint
/// algorithm): maximize the likelihood of the top-K placements seen so far.
pub struct CrossEntropyMin {
    inner: Stepper,
    /// Gradient steps per elite update.
    pub steps: usize,
}

impl CrossEntropyMin {
    /// Creates the trainer.
    pub fn new(cfg: OptimConfig, steps: usize) -> Self {
        Self { inner: Stepper::new(cfg, "rl.ce.update_us"), steps }
    }

    /// Fits the policy towards the elite action vectors. The returned stats
    /// average loss and entropy over all `steps` gradient steps (see
    /// [`UpdateStats`]); `grad_norm` is the last step's.
    pub fn update(
        &mut self,
        policy: &impl StochasticPolicy,
        params: &mut Params,
        elites: &[Vec<usize>],
    ) -> UpdateStats {
        self.inner.update(policy, params, elites, self.steps, |_, ep, _| ep.log_prob)
    }
}

/// Selects the indices of the `k` highest-reward samples (ties broken by recency:
/// later samples win). Used to pick CE elites from the sample history.
pub fn top_k_indices(rewards: &[f64], k: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..rewards.len()).collect();
    idx.sort_by(|&a, &b| rewards[b].total_cmp(&rewards[a]).then(b.cmp(&a)));
    idx.truncate(k);
    idx
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::test_policy::Bandit;
    use crate::reward::EmaBaseline;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// Arm rewards for the 4-arm test bandit.
    fn arm_reward(arm: usize) -> f64 {
        [0.1, 0.5, 1.0, 0.2][arm]
    }

    /// Faster learning rate than the paper's default so the toy bandit converges
    /// within a handful of updates.
    fn test_cfg() -> OptimConfig {
        OptimConfig { lr: 0.1, ..Default::default() }
    }

    fn train_bandit(
        mut update: impl FnMut(&Bandit, &mut Params, &[TrainSample]) -> UpdateStats,
    ) -> Vec<f32> {
        let mut params = Params::new();
        let bandit = Bandit::new(&mut params, 4);
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let mut baseline = EmaBaseline::new(0.2);
        for _ in 0..150 {
            let batch: Vec<TrainSample> = (0..10)
                .map(|_| {
                    let (actions, old_log_prob) = bandit.sample(&params, &mut rng);
                    let adv = baseline.advantage(arm_reward(actions[0])) as f32;
                    TrainSample { actions, old_log_prob, advantage: adv }
                })
                .collect();
            update(&bandit, &mut params, &batch);
        }
        bandit.probs(&params)
    }

    #[test]
    fn reinforce_learns_best_arm() {
        let mut tr = Reinforce::new(test_cfg());
        let probs = train_bandit(move |p, params, b| tr.update(p, params, b));
        assert!(probs[2] > 0.8, "best arm should dominate: {probs:?}");
    }

    #[test]
    fn ppo_learns_best_arm() {
        let mut tr = Ppo::new(test_cfg(), 0.3, 4);
        let probs = train_bandit(move |p, params, b| tr.update(p, params, b));
        assert!(probs[2] > 0.8, "best arm should dominate: {probs:?}");
    }

    #[test]
    fn ppo_ratio_clipping_limits_update() {
        // A single huge-advantage sample: with clipping the logits must move less
        // over one update than an unclipped REINFORCE step of the same lr.
        let mk = |clip: Option<f32>| -> f32 {
            let mut params = Params::new();
            let bandit = Bandit::new(&mut params, 4);
            let sample =
                TrainSample { actions: vec![0], old_log_prob: (0.25f32).ln(), advantage: 50.0 };
            match clip {
                Some(c) => {
                    let mut tr = Ppo::new(test_cfg(), c, 40);
                    tr.update(&bandit, &mut params, &[sample]);
                }
                None => {
                    let mut tr = Reinforce::new(test_cfg());
                    for _ in 0..40 {
                        tr.update(&bandit, &mut params, std::slice::from_ref(&sample));
                    }
                }
            }
            bandit.probs(&params)[0]
        };
        let clipped = mk(Some(0.2));
        let unclipped = mk(None);
        assert!(
            clipped < unclipped,
            "clipping should slow the policy shift: {clipped} vs {unclipped}"
        );
    }

    #[test]
    fn ppo_loss_is_mean_across_epochs() {
        // One update with `epochs = 4` performs the same gradient-step
        // trajectory as four consecutive `epochs = 1` updates (old_log_prob is
        // frozen in the samples, the Adam state carries over) — and must
        // report the mean of their losses, not the last epoch's.
        let batch = vec![
            TrainSample { actions: vec![2], old_log_prob: (0.25f32).ln(), advantage: 1.5 },
            TrainSample { actions: vec![0], old_log_prob: (0.25f32).ln(), advantage: -0.5 },
        ];
        let mut params_a = Params::new();
        let bandit_a = Bandit::new(&mut params_a, 4);
        let mut tr_a = Ppo::new(test_cfg(), 0.3, 4);
        let stats_a = tr_a.update(&bandit_a, &mut params_a, &batch);

        let mut params_b = Params::new();
        let bandit_b = Bandit::new(&mut params_b, 4);
        let mut tr_b = Ppo::new(test_cfg(), 0.3, 1);
        let mut losses = Vec::new();
        let mut last = UpdateStats::default();
        for _ in 0..4 {
            last = tr_b.update(&bandit_b, &mut params_b, &batch);
            losses.push(last.loss);
        }
        assert_eq!(bandit_a.probs(&params_a), bandit_b.probs(&params_b));
        let mean: f32 = losses.iter().sum::<f32>() / losses.len() as f32;
        assert!(
            (stats_a.loss - mean).abs() < 1e-6,
            "loss {} must be the epoch mean {mean}, not the last epoch's {}",
            stats_a.loss,
            last.loss
        );
        // The policy moves between epochs, so mean and last genuinely differ —
        // otherwise this test could not distinguish the two semantics.
        assert!((mean - last.loss).abs() > 1e-7, "epoch losses all equal: {losses:?}");
        assert_eq!(stats_a.grad_norm, last.grad_norm, "grad_norm is the last epoch's");
    }

    #[test]
    fn cross_entropy_concentrates_on_elites() {
        let mut params = Params::new();
        let bandit = Bandit::new(&mut params, 4);
        let mut tr = CrossEntropyMin::new(test_cfg(), 100);
        tr.update(&bandit, &mut params, &[vec![3], vec![3], vec![3]]);
        let probs = bandit.probs(&params);
        assert!(probs[3] > 0.9, "elite arm should dominate: {probs:?}");
    }

    #[test]
    fn cross_entropy_reports_policy_entropy() {
        // Uniform at first (ln 4), sharper every step: the mean over the steps
        // lies strictly inside (0, ln 4), not at the 0.0 CE used to report.
        let mut params = Params::new();
        let bandit = Bandit::new(&mut params, 4);
        let stats = CrossEntropyMin::new(test_cfg(), 5).update(&bandit, &mut params, &[vec![3]]);
        assert!(stats.entropy > 0.0 && stats.entropy < (4.0f32).ln(), "{}", stats.entropy);
    }

    #[test]
    fn top_k_selects_best_and_prefers_recent() {
        let rewards = vec![-3.0, -1.0, -2.0, -1.0];
        let top = top_k_indices(&rewards, 2);
        assert_eq!(top.len(), 2);
        // Both -1.0 rewards beat the rest; the later one (index 3) ranks first.
        assert_eq!(top, vec![3, 1]);
        assert_eq!(top_k_indices(&rewards, 10).len(), 4, "k clamps to len");
    }

    #[test]
    #[should_panic(expected = "empty training batch")]
    fn empty_batch_panics() {
        let mut params = Params::new();
        let bandit = Bandit::new(&mut params, 4);
        let mut tr = Reinforce::new(OptimConfig::default());
        tr.update(&bandit, &mut params, &[]);
    }
}
