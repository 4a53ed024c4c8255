//! The training driver: samples placements from an agent, measures them in the
//! environment, shapes rewards, and applies the selected RL algorithm — the outer
//! loop of every experiment in the paper.
//!
//! The entry point is [`Trainer::builder`], mirroring
//! [`Environment::builder`](eagle_devsim::Environment::builder): construction
//! validates every knob up front and returns a typed [`ConfigError`] instead of
//! silently accepting a zero minibatch or an inconsistent CE schedule. The
//! trainer owns its environments — it draws one graph per minibatch from a
//! [`GraphSource`](crate::GraphSource) and measures placements in a per-graph
//! environment pool. A generated source (a seeded
//! [`GraphGen`](eagle_opgraph::GraphGen) distribution) trains one policy over
//! a whole *distribution* of graphs (the GDP/Placeto generalist direction);
//! single-graph training is the `GraphSource::fixed` special case and keeps
//! the exact sampling and measurement streams of the classic single-benchmark
//! trainer.
//!
//! The loop is *resumable*: [`Trainer::train`] starts fresh,
//! [`Trainer::train_from`] continues from a [`TrainerState`] captured at a
//! minibatch boundary (see [`crate::checkpoint`]), and the two compose
//! bit-identically — a run killed after minibatch *k* and resumed produces the
//! same curve, parameters and best placement as an uninterrupted run with the
//! same seed, including the multi-graph state (source cursor, per-graph
//! environments and baselines).

use eagle_devsim::{Machine, MeasureConfig, Placement};
use eagle_rl::{top_k_indices, CrossEntropyMin, Ppo, Reinforce, TrainSample};
use eagle_tensor::optim::Adam;
use eagle_tensor::Params;

use eagle_obs::Recorder;

use crate::agents::{check_actions, PlacementAgent};
use crate::checkpoint::{save_checkpoint, Progress, TrainerState, CHECKPOINT_FILE};
use crate::curve::Curve;
use crate::infer::check_layout;
use crate::source::{GraphOrigin, GraphSource};

mod config;
mod error;
mod pool;

pub use config::{Algo, TrainerConfig};
pub use error::{ConfigError, ResumeError, TrainError};
use pool::{EnvPool, PoolEntry};

/// Per-graph outcome of a (possibly multi-graph) training run, for the graphs
/// still resident in the environment pool when the run finished.
#[derive(Debug, Clone)]
pub struct GraphSummary {
    /// Graph name (the fixed graph's model name, or `gen-<seed>`).
    pub name: String,
    /// Source origin the graph was drawn from.
    pub origin: GraphOrigin,
    /// Training samples spent on this graph.
    pub samples: u64,
    /// Best valid per-step time sampled on this graph.
    pub best_step_time: Option<f64>,
}

/// Result of one training run.
#[derive(Debug, Clone)]
pub struct TrainResult {
    /// Best placement found (if any valid placement was sampled). `None` for
    /// multi-graph sources, where a single placement is meaningless — see
    /// [`TrainResult::graphs`].
    pub best_placement: Option<Placement>,
    /// Per-step time of the best placement under the *final* measurement protocol
    /// (1,000 steps), as the paper reports in its tables. `None` for
    /// multi-graph sources.
    pub final_step_time: Option<f64>,
    /// The training curve.
    pub curve: Curve,
    /// Number of invalid (OOM) samples encountered.
    pub num_invalid: usize,
    /// Total samples drawn.
    pub samples: usize,
    /// Per-graph outcomes for the graphs still resident in the environment
    /// pool (one entry for single-graph sources).
    pub graphs: Vec<GraphSummary>,
}

/// The REINFORCE, PPO and CE optimizers of a run, in that order.
type Optimizers = (Adam, Adam, Adam);

/// Builds [`Trainer`]s; obtained from [`Trainer::builder`]. Holds the trainer
/// under construction; every knob is validated in [`TrainerBuilder::build`],
/// the only way to get the [`Trainer`] out.
#[derive(Debug)]
pub struct TrainerBuilder(Trainer);

impl TrainerBuilder {
    /// Sets the training configuration (default:
    /// `TrainerConfig::paper(Algo::Ppo, 1000)`).
    pub fn config(mut self, cfg: TrainerConfig) -> Self {
        self.0.cfg = cfg;
        self
    }

    /// Sets the measurement protocol for every pooled environment (default:
    /// [`MeasureConfig::default`]).
    pub fn measure(mut self, measure: MeasureConfig) -> Self {
        self.0.measure = measure;
        self
    }

    /// Sets the environment noise seed (default 0). Fixed sources use it
    /// verbatim — matching `Environment::builder(..).seed(s)` — while
    /// multi-graph sources derive one deterministic seed per graph from it.
    pub fn env_seed(mut self, seed: u64) -> Self {
        self.0.env_seed = seed;
        self
    }

    /// Sets the per-environment placement-cache capacity (default: the
    /// environment's own default).
    pub fn cache_capacity(mut self, capacity: usize) -> Self {
        self.0.cache_capacity = Some(capacity);
        self
    }

    /// Attaches a telemetry recorder shared by the trainer and every pooled
    /// environment (default: disabled). It holds the run's totals: the
    /// environments count evaluations, OOMs and cache traffic (`devsim.*`),
    /// the trainer minibatches, evictions and checkpoints (`trainer.*`), and
    /// the gauge `trainer.workers` names the resolved worker count.
    pub fn recorder(mut self, recorder: Recorder) -> Self {
        self.0.recorder = recorder;
        self
    }

    /// Validates the whole configuration and builds the [`Trainer`].
    pub fn build(self) -> Result<Trainer, ConfigError> {
        let trainer = self.0;
        let cfg = &trainer.cfg;
        if cfg.minibatch == 0 {
            return Err(ConfigError::ZeroMinibatch);
        }
        if cfg.total_samples == 0 {
            return Err(ConfigError::ZeroTotalSamples);
        }
        match cfg.algo {
            Algo::Reinforce => {}
            Algo::Ppo => {
                if cfg.ppo_epochs == 0 {
                    return Err(ConfigError::ZeroPpoEpochs);
                }
            }
            Algo::PpoCe => {
                if cfg.ppo_epochs == 0 {
                    return Err(ConfigError::ZeroPpoEpochs);
                }
                if cfg.ce_interval == 0 || cfg.ce_elites == 0 || cfg.ce_steps == 0 {
                    return Err(ConfigError::BadCeSchedule {
                        interval: cfg.ce_interval,
                        elites: cfg.ce_elites,
                        steps: cfg.ce_steps,
                    });
                }
            }
        }
        if cfg.use_baseline && !(cfg.ema_alpha > 0.0 && cfg.ema_alpha <= 1.0) {
            return Err(ConfigError::BadEmaAlpha(cfg.ema_alpha));
        }
        if !cfg.optim.lr.is_finite() || cfg.optim.lr <= 0.0 {
            return Err(ConfigError::BadLearningRate(cfg.optim.lr));
        }
        if !cfg.invalid_penalty_time.is_finite() || cfg.invalid_penalty_time < 0.0 {
            return Err(ConfigError::BadInvalidPenalty(cfg.invalid_penalty_time));
        }
        match (cfg.checkpoint_every, &cfg.checkpoint_dir) {
            (Some(0), _) => return Err(ConfigError::ZeroCheckpointEvery),
            (Some(_), None) => return Err(ConfigError::CheckpointEveryWithoutDir),
            _ => {}
        }
        Ok(trainer)
    }
}

/// A validated training driver over a [`GraphSource`] and a [`Machine`]. See
/// the module docs; construct with [`Trainer::builder`].
#[derive(Debug)]
pub struct Trainer {
    source: GraphSource,
    machine: Machine,
    cfg: TrainerConfig,
    measure: MeasureConfig,
    env_seed: u64,
    cache_capacity: Option<usize>,
    recorder: Recorder,
}

impl Trainer {
    /// Starts building a trainer over `source` and `machine`.
    pub fn builder(source: GraphSource, machine: Machine) -> TrainerBuilder {
        TrainerBuilder(Trainer {
            source,
            machine,
            cfg: TrainerConfig::paper(Algo::Ppo, 1000),
            measure: MeasureConfig::default(),
            env_seed: 0,
            cache_capacity: None,
            recorder: Recorder::disabled(),
        })
    }

    /// The validated training configuration.
    pub fn config(&self) -> &TrainerConfig {
        &self.cfg
    }

    /// The graph source driving the run.
    pub fn source(&self) -> &GraphSource {
        &self.source
    }

    /// The machine placements are measured on.
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// Runs the full training loop of `agent`, starting fresh.
    ///
    /// Each minibatch draws one graph from the source, then is sampled and
    /// decoded as *one* batched forward pass
    /// ([`StochasticPolicy::sample_batch`](eagle_rl::StochasticPolicy::sample_batch)
    /// / [`PlacementAgent::decode_batch`]) over per-episode RNG streams forked
    /// off the seeded trainer RNG with [`eagle_rl::fork_streams`]. Batching is
    /// bit-identical to the per-episode path and the master RNG advances
    /// exactly as a serial sampling loop would, so the action sequences — and
    /// therefore the curve, the trained policy and the best placement — are
    /// bit-identical for every `cfg.workers` value and across checkpoint
    /// resumes.
    ///
    /// With `cfg.checkpoint_every` and `cfg.checkpoint_dir` both set, the loop
    /// additionally saves a resumable [`TrainerState`] every *k* minibatches;
    /// pass a loaded state to [`Trainer::train_from`] to continue
    /// bit-identically.
    pub fn train<A: PlacementAgent>(
        &self,
        agent: &A,
        params: &mut Params,
    ) -> Result<TrainResult, TrainError> {
        // `params` stay where they are: the fresh state carries none, and no
        // optimizer state, so `run_loop` builds the algorithms from `cfg.optim`.
        let mut fresh = TrainerState::fresh(agent.name(), Params::new(), self.cfg.seed);
        fresh.progress.source = self.source.initial_cursor();
        let pool = EnvPool::restore(self, agent, fresh.entries)?;
        self.run_loop(agent, params, fresh.progress, pool, None)
    }

    /// Resumes training from a checkpointed [`TrainerState`].
    ///
    /// The caller reconstructs the immutable inputs exactly as the original
    /// run did — same agent architecture and scale, same source, machine,
    /// measurement config and `cfg` — and this function restores every mutable
    /// piece: parameters, the three optimizers' moments, the loop's
    /// [`Progress`] (trainer RNG, source cursor, CE history window, curve) and
    /// every pooled per-graph environment (noise RNG, placement cache,
    /// wall-clock, counters, baseline, best). The continuation is
    /// bit-identical to the uninterrupted run (locked by
    /// `tests/checkpoint_resume.rs`).
    ///
    /// Fails with a typed [`TrainError`] — never a panic — when the state does
    /// not fit the given agent, parameter layout, or source, or is not one a
    /// run could have saved; on failure `params` is left unmodified.
    pub fn train_from<A: PlacementAgent>(
        &self,
        agent: &A,
        params: &mut Params,
        state: TrainerState,
    ) -> Result<TrainResult, TrainError> {
        let TrainerState { progress, params: stored, opt_reinforce, opt_ppo, opt_ce, entries } =
            state;
        if progress.curve.label != agent.name() {
            return Err(ResumeError::AgentMismatch {
                checkpoint: progress.curve.label,
                agent: agent.name().to_string(),
            }
            .into());
        }
        check_layout(params, &stored)
            .map_err(|e| ResumeError::ParamMismatch(format!("checkpoint {e}")))?;
        // JSON can spell a float no `f32` holds (`1e300`); the first forward
        // pass would carry the infinity into every logit.
        if let Some(id) = stored.ids().find(|&id| !stored.get(id).all_finite()) {
            let m = format!("checkpoint tensor {} holds a non-finite value", stored.name(id));
            return Err(ResumeError::ParamMismatch(m).into());
        }
        for (algo, opt) in [("REINFORCE", &opt_reinforce), ("PPO", &opt_ppo), ("CE", &opt_ce)] {
            opt.check_layout(&stored)
                .map_err(|e| ResumeError::Optimizer(format!("{algo}: {e}")))?;
        }
        // The next CE update indexes the history by reward rank and
        // teacher-forces what it finds.
        let (actions, rewards) = (&progress.history_actions, &progress.history_rewards);
        if actions.len() != rewards.len() {
            let m = format!("{} action vectors for {} rewards", actions.len(), rewards.len());
            return Err(ResumeError::History(m).into());
        }
        for (i, a) in actions.iter().enumerate() {
            check_actions(agent, a).map_err(|e| ResumeError::History(format!("entry {i}: {e}")))?;
        }
        let pool = EnvPool::restore(self, agent, entries)?;
        *params = stored;
        self.run_loop(agent, params, progress, pool, Some((opt_reinforce, opt_ppo, opt_ce)))
    }

    /// The shared minibatch loop behind [`Trainer::train`] and
    /// [`Trainer::train_from`], whose `restored_opts` replace the optimizers
    /// built from `cfg.optim`. `st` is the state a checkpoint stores as it
    /// stands; `pool` is what [`EnvPool::restore`] rebuilt around the rest.
    fn run_loop<A: PlacementAgent>(
        &self,
        agent: &A,
        params: &mut Params,
        mut st: Progress,
        mut pool: EnvPool<A>,
        restored_opts: Option<Optimizers>,
    ) -> Result<TrainResult, TrainError> {
        let cfg = &self.cfg;
        let rec = self.recorder.clone();
        let workers = eagle_devsim::resolve_workers(cfg.workers);
        rec.gauge("trainer.workers", workers as f64);

        let mut reinforce = Reinforce::new(cfg.optim.clone()).with_recorder(rec.clone());
        let mut ppo =
            Ppo::new(cfg.optim.clone(), cfg.ppo_clip, cfg.ppo_epochs).with_recorder(rec.clone());
        let mut ce =
            CrossEntropyMin::new(cfg.optim.clone(), cfg.ce_steps).with_recorder(rec.clone());
        if let Some((r, p, c)) = restored_opts {
            reinforce.restore_optimizer(r);
            ppo.restore_optimizer(p);
            ce.restore_optimizer(c);
        }

        // CE elite pool: a rolling window so memory (and checkpoint size) stays
        // bounded on long runs, but never smaller than one CE interval.
        let window = cfg.history_window.max(cfg.ce_interval).max(cfg.ce_elites);

        while st.curve.points.len() < cfg.total_samples {
            let batch_size = cfg.minibatch.min(cfg.total_samples - st.curve.points.len());
            rec.add("trainer.minibatches", 1);

            // Draw this minibatch's graph and make it resident. Fixed sources
            // consume no source randomness here, so single-graph streams are
            // unchanged from the classic trainer.
            let origin = self.source.draw_train(&mut st.source);
            let PoolEntry { env, view, baseline, best, .. } =
                pool.resident(self, agent, &origin)?;
            let acting: &A = view.as_ref().unwrap_or(agent);

            // Phase A (seeded): draw the minibatch's action sequences in one
            // batched forward pass. Each episode samples from its own stream
            // forked off the trainer RNG; `fork_streams` advances the master RNG
            // past exactly the draws a serial per-episode loop would consume, so
            // the action stream — and the checkpointed RNG position — is
            // bit-identical to per-episode sampling. `rng_draws_per_sample` is
            // graph-independent, so the accounting is uniform across graphs.
            // The agent keeps this forward for the update's first scoring
            // step (`eagle_rl::ReplaySlot`): nothing writes `params` before
            // Phase D consumes it, or each Adam write would copy a tensor.
            let sample_span = rec.span("trainer.sample_us");
            let mut streams =
                eagle_rl::fork_streams(&mut st.rng, agent.rng_draws_per_sample(), batch_size);
            let mut rng_refs: Vec<&mut dyn rand::RngCore> =
                streams.iter_mut().map(|r| r as &mut dyn rand::RngCore).collect();
            let drawn = acting.sample_batch(params, &mut rng_refs);
            drop(sample_span);
            let (actions_batch, old_log_probs): (Vec<Vec<usize>>, Vec<f32>) =
                drawn.into_iter().unzip();

            // Phase B: decode actions into placements — one batched pass, so
            // parameter-dependent decode state (EAGLE's grouper forward) is
            // computed once per minibatch instead of once per episode.
            let decode_span = rec.span("trainer.decode_us");
            let placements: Vec<Placement> = acting.decode_batch(params, &actions_batch);
            drop(decode_span);

            // Phase C: evaluate the minibatch in this graph's environment
            // (cache probes and noise serial, cache-miss simulations parallel —
            // see `Environment::evaluate_batch`).
            let evaluate_span = rec.span("trainer.evaluate_us");
            let measurements = env.evaluate_batch(&placements, workers);
            drop(evaluate_span);

            // Phase D (serial): rewards, baseline, curve, policy update — in
            // episode order.
            let update_span = rec.span("trainer.update_us");
            let mut batch: Vec<TrainSample> = Vec::with_capacity(batch_size);
            for (((actions, old_log_prob), placement), meas) in
                actions_batch.into_iter().zip(old_log_probs).zip(&placements).zip(&measurements)
            {
                st.since_ce += 1;
                let reward = match meas.step_time {
                    Some(t) => {
                        if best.as_ref().is_none_or(|(b, _)| t < *b) {
                            *best = Some((t, placement.clone()));
                        }
                        cfg.reward.apply(t)
                    }
                    None => cfg.reward.apply(cfg.invalid_penalty_time),
                };
                // The trainer-level wall-clock (the curve's x-axis) sums every
                // measurement's `wall_cost` in episode order, across graphs.
                let wall = st.curve.wall_clock() + meas.wall_cost;
                st.curve.push(st.curve.points.len() as u64 + 1, wall, meas.step_time);
                let advantage = if cfg.use_baseline {
                    baseline.advantage(reward) as f32
                } else {
                    reward as f32
                };
                st.history_actions.push(actions.clone());
                st.history_rewards.push(reward);
                batch.push(TrainSample { actions, old_log_prob, advantage });
            }

            if cfg.normalize_adv && batch.len() > 1 {
                let mean = batch.iter().map(|s| s.advantage).sum::<f32>() / batch.len() as f32;
                let var = batch.iter().map(|s| (s.advantage - mean).powi(2)).sum::<f32>()
                    / batch.len() as f32;
                let std = var.sqrt().max(1e-6);
                for s in &mut batch {
                    s.advantage /= std;
                }
            }

            // Score/update through the same per-graph view that sampled, so
            // log-probs are computed against this minibatch's graph features.
            match cfg.algo {
                Algo::Reinforce => {
                    reinforce.update(acting, params, &batch);
                }
                Algo::Ppo => {
                    ppo.update(acting, params, &batch);
                }
                Algo::PpoCe => {
                    ppo.update(acting, params, &batch);
                    if st.since_ce >= cfg.ce_interval {
                        st.since_ce = 0;
                        let top = top_k_indices(&st.history_rewards, cfg.ce_elites);
                        let elites: Vec<Vec<usize>> =
                            top.iter().map(|&i| st.history_actions[i].clone()).collect();
                        ce.update(acting, params, &elites);
                    }
                }
            }
            drop(update_span);

            // End of minibatch: trim the history window, then (optionally)
            // checkpoint — trimming first keeps the on-disk state identical to
            // the in-memory state a resume will rebuild.
            let excess = st.history_actions.len().saturating_sub(window);
            st.history_actions.drain(..excess);
            st.history_rewards.drain(..excess);
            st.minibatches += 1;

            if let (Some(every), Some(dir)) = (cfg.checkpoint_every, &cfg.checkpoint_dir) {
                if st.minibatches.is_multiple_of(every as u64) {
                    // Snapshot and write: what a checkpoint adds to the loop.
                    let checkpoint_span = rec.span("trainer.checkpoint_us");
                    let snapshot = TrainerState {
                        progress: st.clone(),
                        params: params.clone(),
                        opt_reinforce: reinforce.optimizer().clone(),
                        opt_ppo: ppo.optimizer().clone(),
                        opt_ce: ce.optimizer().clone(),
                        entries: pool.capture(),
                    };
                    let save = std::fs::create_dir_all(dir)
                        .map_err(|e| crate::checkpoint::CheckpointError::Io(e).to_string())
                        .and_then(|()| {
                            save_checkpoint(&snapshot, dir.join(CHECKPOINT_FILE))
                                .map_err(|e| e.to_string())
                        });
                    drop(checkpoint_span);
                    match save {
                        Ok(()) => rec.add("trainer.checkpoints", 1),
                        Err(e) => {
                            rec.add("trainer.checkpoint_errors", 1);
                            eprintln!("warning: checkpoint save to {} failed: {e}", dir.display());
                        }
                    }
                }
            }
        }

        // Final 1,000-step measurement of the best placement (paper protocol) —
        // single-graph sources only; a multi-graph run reports per-graph bests
        // in `TrainResult::graphs` instead.
        let (best_placement, final_step_time) = match pool.first_mut() {
            Some(PoolEntry { env, best: Some((_, p)), .. }) if self.source.is_fixed() => {
                (Some(p.clone()), env.evaluate_final(p))
            }
            _ => (None, None),
        };

        Ok(TrainResult {
            best_placement,
            final_step_time,
            num_invalid: st.curve.num_invalid(),
            samples: st.curve.points.len(),
            curve: st.curve,
            graphs: pool.summaries(self),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agents::{EagleAgent, FixedGroupAgent, PlacerKind};
    use crate::checkpoint::load_checkpoint;
    use crate::scale::AgentScale;
    use eagle_opgraph::{builders, GraphGenConfig, OpGraph};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn tiny_graph() -> OpGraph {
        builders::try_gnmt(&builders::GnmtConfig::tiny()).expect("valid tiny gnmt")
    }

    fn tiny_trainer(cfg: TrainerConfig) -> (OpGraph, Machine, Trainer) {
        let g = tiny_graph();
        let m = Machine::paper_machine();
        let trainer = Trainer::builder(GraphSource::fixed(g.clone()), m.clone())
            .config(cfg)
            .measure(MeasureConfig::exact())
            .env_seed(3)
            .build()
            .expect("valid tiny trainer");
        (g, m, trainer)
    }

    #[test]
    fn training_improves_over_first_samples() {
        let mut cfg = TrainerConfig::paper(Algo::Ppo, 120);
        cfg.optim.lr = 0.05; // tiny nets: faster convergence for the test
        let (g, m, trainer) = tiny_trainer(cfg);
        let mut params = Params::new();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let agent = EagleAgent::new(&mut params, &g, &m, AgentScale::tiny(), &mut rng);
        let result = trainer.train(&agent, &mut params).expect("training runs");
        assert_eq!(result.samples, 120);
        assert_eq!(result.curve.points.len(), 120);
        assert_eq!(result.graphs.len(), 1);
        assert_eq!(result.graphs[0].samples, 120);
        let t = result.final_step_time.expect("found a valid placement");
        // The first sampled placement is essentially random; training must do
        // at least as well, and the curve's best must be monotone.
        let first = result.curve.points[0].measured.unwrap_or(f64::INFINITY);
        assert!(t <= first * 1.01, "final {t} should not be worse than first {first}");
        let mut prev = f64::INFINITY;
        for p in &result.curve.points {
            if let Some(b) = p.best_so_far {
                assert!(b <= prev + 1e-12);
                prev = b;
            }
        }
    }

    #[test]
    fn all_algorithms_run() {
        for algo in [Algo::Reinforce, Algo::Ppo, Algo::PpoCe] {
            let mut cfg = TrainerConfig::paper(algo, 60);
            cfg.ce_interval = 20;
            let (g, m, trainer) = tiny_trainer(cfg);
            let mut params = Params::new();
            let mut rng = ChaCha8Rng::seed_from_u64(2);
            let group_of: Vec<usize> = (0..g.len()).map(|i| i * 4 / g.len()).collect();
            let agent = FixedGroupAgent::new(
                &mut params,
                "t",
                &g,
                &m,
                group_of,
                4,
                PlacerKind::Simple,
                AgentScale::tiny(),
                &mut rng,
            );
            let result = trainer.train(&agent, &mut params).expect("training runs");
            assert_eq!(result.samples, 60, "{algo:?}");
            assert!(result.final_step_time.is_some(), "{algo:?}");
        }
    }

    #[test]
    fn wall_clock_monotone_in_curve() {
        let (g, m, trainer) = tiny_trainer(TrainerConfig::paper(Algo::Ppo, 30));
        let mut params = Params::new();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let agent = EagleAgent::new(&mut params, &g, &m, AgentScale::tiny(), &mut rng);
        let result = trainer.train(&agent, &mut params).expect("training runs");
        let mut prev = 0.0;
        for p in &result.curve.points {
            assert!(p.wall_clock >= prev);
            prev = p.wall_clock;
        }
    }

    #[test]
    fn history_window_bounds_memory() {
        // A window smaller than the run length must not change short-run
        // behaviour for non-CE algos, and the checkpoint must carry at most
        // `max(history_window, ce_interval, ce_elites)` samples.
        let mut cfg = TrainerConfig::paper(Algo::Ppo, 80);
        cfg.history_window = 1; // effective window = ce_interval = 50
        let dir = std::env::temp_dir().join("eagle-trainer-window-test");
        std::fs::create_dir_all(&dir).unwrap();
        cfg.checkpoint_dir = Some(dir.clone());
        cfg.checkpoint_every = Some(1);
        let (g, m, trainer) = tiny_trainer(cfg);
        let mut params = Params::new();
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let agent = EagleAgent::new(&mut params, &g, &m, AgentScale::tiny(), &mut rng);
        let result = trainer.train(&agent, &mut params).expect("training runs");
        assert_eq!(result.samples, 80);
        let state = load_checkpoint(dir.join(CHECKPOINT_FILE)).unwrap();
        assert_eq!(state.progress.history_actions.len(), 50, "window clamps to ce_interval");
        assert_eq!(state.progress.history_rewards.len(), 50);
        assert_eq!(state.progress.curve.points.len(), 80);
        assert_eq!(state.entries.len(), 1, "fixed source pools one environment");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_rejects_wrong_agent_and_params() {
        let mut cfg = TrainerConfig::paper(Algo::Ppo, 20);
        let dir = std::env::temp_dir().join("eagle-trainer-reject-test");
        std::fs::create_dir_all(&dir).unwrap();
        cfg.checkpoint_dir = Some(dir.clone());
        cfg.checkpoint_every = Some(1);
        let (g, m, trainer) = tiny_trainer(cfg);
        let mut params = Params::new();
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let agent = EagleAgent::new(&mut params, &g, &m, AgentScale::tiny(), &mut rng);
        trainer.train(&agent, &mut params).expect("training runs");
        let state = load_checkpoint(dir.join(CHECKPOINT_FILE)).unwrap();

        // Different agent type: label mismatch.
        let mut other_params = Params::new();
        let mut rng2 = ChaCha8Rng::seed_from_u64(5);
        let group_of: Vec<usize> = (0..g.len()).map(|i| i * 2 / g.len()).collect();
        let other = FixedGroupAgent::new(
            &mut other_params,
            "other",
            &g,
            &m,
            group_of,
            2,
            PlacerKind::Simple,
            AgentScale::tiny(),
            &mut rng2,
        );
        match trainer.train_from(&other, &mut other_params, state.clone()) {
            Err(TrainError::Resume(ResumeError::AgentMismatch { .. })) => {}
            other => panic!("expected AgentMismatch, got {other:?}"),
        }

        // Same agent type at a different scale: parameter layout mismatch.
        let mut big_params = Params::new();
        let mut rng3 = ChaCha8Rng::seed_from_u64(5);
        let big = EagleAgent::new(&mut big_params, &g, &m, AgentScale::quick(), &mut rng3);
        match trainer.train_from(&big, &mut big_params, state) {
            Err(TrainError::Resume(ResumeError::ParamMismatch(_))) => {}
            other => panic!("expected ParamMismatch, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn builder_rejects_bad_configs() {
        let g = tiny_graph();
        let m = Machine::paper_machine();
        let build = |mutate: &dyn Fn(&mut TrainerConfig)| {
            let mut cfg = TrainerConfig::paper(Algo::PpoCe, 10);
            mutate(&mut cfg);
            Trainer::builder(GraphSource::fixed(g.clone()), m.clone()).config(cfg).build()
        };
        assert_eq!(build(&|c| c.minibatch = 0).unwrap_err(), ConfigError::ZeroMinibatch);
        assert_eq!(build(&|c| c.total_samples = 0).unwrap_err(), ConfigError::ZeroTotalSamples);
        assert!(matches!(
            build(&|c| c.ce_interval = 0).unwrap_err(),
            ConfigError::BadCeSchedule { interval: 0, .. }
        ));
        assert!(matches!(
            build(&|c| c.ce_elites = 0).unwrap_err(),
            ConfigError::BadCeSchedule { elites: 0, .. }
        ));
        assert_eq!(build(&|c| c.ppo_epochs = 0).unwrap_err(), ConfigError::ZeroPpoEpochs);
        assert_eq!(build(&|c| c.ema_alpha = 0.0).unwrap_err(), ConfigError::BadEmaAlpha(0.0));
        assert_eq!(build(&|c| c.optim.lr = 0.0).unwrap_err(), ConfigError::BadLearningRate(0.0));
        assert!(matches!(
            build(&|c| c.invalid_penalty_time = f64::NAN).unwrap_err(),
            ConfigError::BadInvalidPenalty(_)
        ));
        assert_eq!(
            build(&|c| c.checkpoint_every = Some(0)).unwrap_err(),
            ConfigError::ZeroCheckpointEvery
        );
        assert_eq!(
            build(&|c| c.checkpoint_every = Some(5)).unwrap_err(),
            ConfigError::CheckpointEveryWithoutDir
        );
        // ce_interval = 0 is fine for algorithms that never run CE.
        let mut cfg = TrainerConfig::paper(Algo::Ppo, 10);
        cfg.ce_interval = 0;
        assert!(Trainer::builder(GraphSource::fixed(g.clone()), m.clone())
            .config(cfg)
            .build()
            .is_ok());
    }

    fn tiny_generated_source() -> GraphSource {
        GraphSource::generated(GraphGenConfig::with_target(24), 5).expect("valid generated source")
    }

    #[test]
    fn multi_graph_training_pools_environments() {
        let m = Machine::paper_machine();
        let source = tiny_generated_source();
        let seed_graph = source.build(&source.holdout_origins(1)[0]);
        let mut cfg = TrainerConfig::paper(Algo::Ppo, 60);
        cfg.minibatch = 5;
        let trainer = Trainer::builder(source, m.clone())
            .config(cfg)
            .measure(MeasureConfig::exact())
            .env_seed(3)
            .build()
            .expect("valid multi-graph trainer");
        let mut params = Params::new();
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let agent = EagleAgent::new(&mut params, &seed_graph, &m, AgentScale::tiny(), &mut rng);
        let result = trainer.train(&agent, &mut params).expect("training runs");
        assert_eq!(result.samples, 60);
        // One pooled environment per minibatch, none of them held out.
        assert_eq!(result.graphs.len(), 12);
        assert!(result.graphs.iter().all(|s| s.samples == 5));
        let held = trainer.source().holdout_origins(4);
        assert!(result.graphs.iter().all(|s| !held.contains(&s.origin)));
        assert!(result.best_placement.is_none(), "multi-graph runs report per-graph bests");
    }

    #[test]
    fn unsupported_agent_gets_typed_error() {
        let g = tiny_graph();
        let m = Machine::paper_machine();
        let trainer = Trainer::builder(tiny_generated_source(), m.clone())
            .config(TrainerConfig::paper(Algo::Ppo, 10))
            .measure(MeasureConfig::exact())
            .build()
            .unwrap();
        let mut params = Params::new();
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let group_of: Vec<usize> = (0..g.len()).map(|i| i * 2 / g.len()).collect();
        let agent = FixedGroupAgent::new(
            &mut params,
            "fixed",
            &g,
            &m,
            group_of,
            2,
            PlacerKind::Simple,
            AgentScale::tiny(),
            &mut rng,
        );
        match trainer.train(&agent, &mut params) {
            Err(TrainError::UnsupportedAgent { agent }) => assert_eq!(agent, "fixed"),
            other => panic!("expected UnsupportedAgent, got {other:?}"),
        }
    }

    #[test]
    fn algo_labels() {
        assert_eq!(Algo::Reinforce.label(), "REINFORCE");
        assert_eq!(Algo::Ppo.label(), "PPO");
        assert_eq!(Algo::PpoCe.label(), "PPO+CE");
    }
}
