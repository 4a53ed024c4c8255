//! The RL environment: measurement protocol over the simulated machine.
//!
//! The paper's protocol (Sec. IV-C): run each sampled placement for 15 training
//! steps, discard the first 5 warm-up steps (parameter initialization makes them
//! slow), average the remaining 10; after training, re-run the best placement for
//! 1,000 steps. Measurements on real hardware are noisy, so the environment applies
//! multiplicative log-normal jitter per measured step, seeded for reproducibility.
//!
//! The environment also keeps a *simulated wall-clock*: each evaluation costs
//! session setup + parameter staging + the measured steps. Training curves indexed
//! by this clock reproduce the time axis of the paper's Figs. 5–7.

use std::sync::OnceLock;

use eagle_obs::Recorder;
use eagle_opgraph::OpGraph;
use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::{ChaCha8Rng, ChaCha8State};
use serde::{Content, Deserialize, Serialize};

use crate::cache::{field, BaseEval, CacheStats, PlacementCache, Probe};
use crate::cost::CostGraph;
use crate::device::Machine;
use crate::placement::Placement;
use crate::sim::{fan_out, SimOutcome};

/// Default bound on the number of memoized placements per environment.
pub const DEFAULT_CACHE_CAPACITY: usize = 4096;

/// Why an [`EnvironmentBuilder`] refused to build.
#[derive(Debug, Clone, PartialEq)]
pub enum EnvError {
    /// The op graph has no nodes — nothing to place.
    EmptyGraph,
    /// The machine has no devices — nowhere to place.
    NoDevices,
    /// Warm-up consumes every measured step (`warmup_steps >= train_steps`).
    NoMeasuredSteps {
        /// Configured steps per evaluation.
        train_steps: usize,
        /// Configured leading steps discarded as warm-up.
        warmup_steps: usize,
    },
    /// A [`MeasureConfig`] knob is negative or non-finite.
    BadKnob {
        /// Which knob.
        name: &'static str,
        /// The rejected value.
        value: f64,
    },
}

impl std::fmt::Display for EnvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EnvError::EmptyGraph => write!(f, "op graph has no nodes"),
            EnvError::NoDevices => write!(f, "machine has no devices"),
            EnvError::NoMeasuredSteps { train_steps, warmup_steps } => write!(
                f,
                "warm-up ({warmup_steps} steps) consumes the whole evaluation ({train_steps} steps)"
            ),
            EnvError::BadKnob { name, value } => {
                write!(f, "measure-config knob {name} must be finite and >= 0, got {value}")
            }
        }
    }
}

impl std::error::Error for EnvError {}

/// Refuses a pair nothing can be placed on: an empty graph or a machine
/// without devices. The first check of [`EnvironmentBuilder::build`], for
/// callers that need it without an environment.
pub fn check_placeable(graph: &OpGraph, machine: &Machine) -> Result<(), EnvError> {
    if graph.is_empty() {
        return Err(EnvError::EmptyGraph);
    }
    if machine.num_devices() == 0 {
        return Err(EnvError::NoDevices);
    }
    Ok(())
}

/// Staged configuration for an [`Environment`]; built with
/// [`Environment::builder`], validated by [`EnvironmentBuilder::build`].
#[derive(Debug, Clone)]
pub struct EnvironmentBuilder {
    graph: OpGraph,
    machine: Machine,
    cfg: MeasureConfig,
    seed: u64,
    cache_capacity: usize,
    recorder: Recorder,
}

impl EnvironmentBuilder {
    /// Seed of the measurement-noise RNG (default 0).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Measurement protocol (default [`MeasureConfig::default`]).
    pub fn measure(mut self, cfg: MeasureConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Placement-cache capacity; 0 disables memoization entirely
    /// (default [`DEFAULT_CACHE_CAPACITY`]).
    pub fn cache_capacity(mut self, capacity: usize) -> Self {
        self.cache_capacity = capacity;
        self
    }

    /// Telemetry recorder the environment reports through (default disabled).
    pub fn recorder(mut self, recorder: Recorder) -> Self {
        self.recorder = recorder;
        self
    }

    /// Validates the staged configuration and builds the environment.
    pub fn build(self) -> Result<Environment, EnvError> {
        check_placeable(&self.graph, &self.machine)?;
        if self.cfg.warmup_steps >= self.cfg.train_steps {
            return Err(EnvError::NoMeasuredSteps {
                train_steps: self.cfg.train_steps,
                warmup_steps: self.cfg.warmup_steps,
            });
        }
        for (name, value) in [
            ("warmup_factor", self.cfg.warmup_factor),
            ("noise_sigma", self.cfg.noise_sigma),
            ("session_setup", self.cfg.session_setup),
            ("oom_cost", self.cfg.oom_cost),
        ] {
            if !value.is_finite() || value < 0.0 {
                return Err(EnvError::BadKnob { name, value });
            }
        }
        // The graph never changes inside an environment, so neither does
        // what staging it costs.
        let staging_cost = self.cfg.session_setup
            + self.graph.total_param_bytes() as f64 / self.machine.link_bandwidth;
        Ok(Environment {
            graph: self.graph,
            machine: self.machine,
            cfg: self.cfg,
            recorder: self.recorder,
            staging_cost,
            cost: OnceLock::new(),
            state: EnvState {
                rng: CheckpointRng::seed_from_u64(self.seed),
                evals: 0,
                invalid: 0,
                wall_clock: 0.0,
                cache: PlacementCache::new(self.cache_capacity),
            },
        })
    }
}

/// Counter snapshot of one environment: evaluations, OOMs, simulated
/// wall-clock and cache behavior in a single value.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EnvSnapshot {
    /// Placement evaluations performed (training protocol only).
    pub evals: u64,
    /// Evaluations that came back invalid (OOM).
    pub invalid_evals: u64,
    /// Simulated wall-clock charged so far (seconds).
    pub wall_clock: f64,
    /// Placement-cache counters.
    pub cache: CacheStats,
}

impl EnvSnapshot {
    /// Counter difference since an earlier snapshot.
    pub fn since(&self, earlier: &EnvSnapshot) -> EnvSnapshot {
        EnvSnapshot {
            evals: self.evals - earlier.evals,
            invalid_evals: self.invalid_evals - earlier.invalid_evals,
            wall_clock: self.wall_clock - earlier.wall_clock,
            cache: self.cache.since(&earlier.cache),
        }
    }
}

/// A [`ChaCha8Rng`] that serializes its stream position, so the generator a
/// loop draws from *is* the one its checkpoint stores: a resumed run
/// continues the same random sequence instead of restarting it.
#[derive(Debug, Clone)]
pub struct CheckpointRng(ChaCha8Rng);

impl CheckpointRng {
    /// The generator at the start of `seed`'s stream
    /// ([`SeedableRng::seed_from_u64`] of the wrapped [`ChaCha8Rng`]).
    pub fn seed_from_u64(seed: u64) -> Self {
        Self(ChaCha8Rng::seed_from_u64(seed))
    }
}

impl RngCore for CheckpointRng {
    #[inline]
    fn next_u32(&mut self) -> u32 {
        self.0.next_u32()
    }
    #[inline]
    fn next_u64(&mut self) -> u64 {
        self.0.next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.0.fill_bytes(dest)
    }
}

impl PartialEq for CheckpointRng {
    fn eq(&self, other: &Self) -> bool {
        self.0.state() == other.0.state()
    }
}

/// `{key, counter, block, index}`: the eight key words, the counter of the
/// next block, the sixteen words of the current block and the next unread
/// word in it.
impl Serialize for CheckpointRng {
    fn to_content(&self) -> Content {
        let s = self.0.state();
        Content::Map(vec![
            ("key".into(), s.key[..].to_content()),
            ("counter".into(), s.counter.to_content()),
            ("block".into(), s.block[..].to_content()),
            ("index".into(), s.index.to_content()),
        ])
    }
}

/// Refuses a position no generator can reach: a key or block of the wrong
/// word count, or a word index past the end of the block.
impl Deserialize for CheckpointRng {
    fn from_content(c: &Content) -> Result<Self, serde::Error> {
        fn words<const N: usize>(c: &Content, name: &str) -> Result<[u32; N], serde::Error> {
            let words: Vec<u32> = field(c, name, "CheckpointRng")?;
            words.try_into().map_err(|w: Vec<u32>| {
                serde::Error::msg(format!("RNG {name} has {} words, want {N}", w.len()))
            })
        }
        let index: usize = field(c, "index", "CheckpointRng")?;
        if index > 16 {
            return Err(serde::Error::msg(format!("RNG word index {index} > 16")));
        }
        Ok(Self(ChaCha8Rng::from_state(ChaCha8State {
            key: words(c, "key")?,
            counter: field(c, "counter", "CheckpointRng")?,
            block: words(c, "block")?,
            index,
        })))
    }
}

/// Why an [`EnvState`] could not be restored into an environment.
#[derive(Debug, Clone, PartialEq)]
pub enum EnvStateError {
    /// The persisted cache does not fit this environment's graph/machine.
    BadCache(String),
}

impl std::fmt::Display for EnvStateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EnvStateError::BadCache(m) => write!(f, "bad cache snapshot: {m}"),
        }
    }
}

impl std::error::Error for EnvStateError {}

/// The complete mutable state of an [`Environment`] — the struct the
/// environment mutates *and* the one a checkpoint stores: noise-RNG position,
/// counters, simulated wall-clock and the placement cache (contents oldest
/// first plus its lifetime counters). The immutable configuration — graph,
/// machine, [`MeasureConfig`], recorder — is not part of it: the caller
/// rebuilds the environment identically and restores this state into it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EnvState {
    /// Measurement-noise RNG position.
    pub rng: CheckpointRng,
    /// Evaluations performed.
    pub evals: u64,
    /// Invalid (OOM) evaluations.
    pub invalid: u64,
    /// Simulated wall-clock charged so far (seconds).
    pub wall_clock: f64,
    /// Memoized simulation outcomes.
    pub cache: PlacementCache,
}

/// Measurement-protocol knobs.
#[derive(Debug, Clone)]
pub struct MeasureConfig {
    /// Steps run per evaluation during training (paper: 15).
    pub train_steps: usize,
    /// Leading steps discarded as warm-up (paper: 5).
    pub warmup_steps: usize,
    /// Slow-down factor of warm-up steps (device-side initialization).
    pub warmup_factor: f64,
    /// Std-dev of per-step log-normal measurement noise (0 disables noise).
    pub noise_sigma: f64,
    /// Fixed per-evaluation cost: session construction, graph rewrite, etc.
    pub session_setup: f64,
    /// Wall-clock wasted when a placement turns out invalid (OOM crash + restart).
    pub oom_cost: f64,
}

impl Default for MeasureConfig {
    fn default() -> Self {
        Self {
            train_steps: 15,
            warmup_steps: 5,
            warmup_factor: 3.0,
            noise_sigma: 0.02,
            session_setup: 30.0,
            oom_cost: 10.0,
        }
    }
}

impl MeasureConfig {
    /// Noise-free, zero-overhead protocol for deterministic tests.
    pub fn exact() -> Self {
        Self {
            train_steps: 1,
            warmup_steps: 0,
            warmup_factor: 1.0,
            noise_sigma: 0.0,
            session_setup: 0.0,
            oom_cost: 0.0,
        }
    }
}

/// One placement evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct Measurement {
    /// Mean per-step time over the measured (post-warm-up) steps;
    /// `None` when the placement OOMs (invalid).
    pub step_time: Option<f64>,
    /// Simulated wall-clock this evaluation consumed.
    pub wall_cost: f64,
}

/// A placement-evaluation environment around one graph and machine: its
/// configuration plus the [`EnvState`] every evaluation advances.
#[derive(Debug, Clone)]
pub struct Environment {
    graph: OpGraph,
    machine: Machine,
    cfg: MeasureConfig,
    recorder: Recorder,
    /// Session set-up plus staging the graph's parameters over the link: what
    /// an evaluation that is not a cache hit pays before its first step.
    staging_cost: f64,
    /// The graph's costs on the machine, built on the first simulation: an
    /// environment built and dropped without simulating (as a benchmark's
    /// set-up does on a 50k-op graph) never pays for it.
    cost: OnceLock<CostGraph>,
    state: EnvState,
}

impl Environment {
    /// Starts building an environment around a graph and machine. Seed,
    /// measurement protocol, cache capacity and telemetry recorder are staged
    /// on the returned builder; [`EnvironmentBuilder::build`] validates the
    /// combination and returns the environment or an [`EnvError`].
    pub fn builder(graph: OpGraph, machine: Machine) -> EnvironmentBuilder {
        EnvironmentBuilder {
            graph,
            machine,
            cfg: MeasureConfig::default(),
            seed: 0,
            cache_capacity: DEFAULT_CACHE_CAPACITY,
            recorder: Recorder::disabled(),
        }
    }

    /// Counter snapshot: evaluations, OOM count, simulated wall-clock and
    /// cache behavior in one call.
    pub fn snapshot(&self) -> EnvSnapshot {
        EnvSnapshot {
            evals: self.state.evals,
            invalid_evals: self.state.invalid,
            wall_clock: self.state.wall_clock,
            cache: self.state.cache.stats(),
        }
    }

    /// The telemetry recorder this environment reports through (disabled
    /// unless one was installed via the builder).
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// The environment's complete mutable state, for checkpointing.
    pub fn save_state(&self) -> EnvState {
        self.state.clone()
    }

    /// Continues from a state saved by an environment built over the same
    /// graph and machine, bit-identically to the checkpointed run.
    /// Configuration (measure protocol, recorder) stays the live
    /// environment's; everything else — the cache's capacity included — is
    /// `state`'s. Checked here is what only the graph and machine can tell:
    /// that every cached assignment covers the graph's ops with devices the
    /// machine has. A refused state leaves the environment as it was.
    pub fn restore_state(&mut self, state: EnvState) -> Result<(), EnvStateError> {
        let (n_ops, n_dev) = (self.graph.len(), self.machine.num_devices());
        for key in state.cache.keys() {
            if key.len() != n_ops {
                return Err(EnvStateError::BadCache(format!(
                    "cache entry covers {} ops but graph has {n_ops}",
                    key.len()
                )));
            }
            if let Some(&d) = key.iter().find(|&&d| (d as usize) >= n_dev) {
                return Err(EnvStateError::BadCache(format!(
                    "cache entry uses nonexistent device {d}"
                )));
            }
        }
        self.state = state;
        Ok(())
    }

    /// The graph being placed.
    pub fn graph(&self) -> &OpGraph {
        &self.graph
    }

    /// The machine placements run on.
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// Simulated wall-clock spent measuring so far (the x-axis of Figs. 5–7).
    pub fn wall_clock(&self) -> f64 {
        self.state.wall_clock
    }

    fn noisy_mean(&mut self, base: f64, steps: usize) -> f64 {
        if self.cfg.noise_sigma == 0.0 || steps == 0 {
            return base;
        }
        let mut acc = 0.0;
        for _ in 0..steps {
            // Box–Muller standard normal from two uniforms.
            let u1: f64 = self.state.rng.gen::<f64>().max(1e-12);
            let u2: f64 = self.state.rng.gen();
            let normal = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
            acc += base * (self.cfg.noise_sigma * normal).exp();
        }
        acc / steps as f64
    }

    /// The pure simulation step: noiseless, no RNG, no accounting. Takes
    /// `&self`, so it is safe to call concurrently from many threads — this is
    /// the piece [`Environment::evaluate_batch`] fans out. Engine telemetry
    /// (`devsim.engine.*`) flows through the recorder; only order-independent
    /// counters/histograms are emitted, so parallel workers stay deterministic.
    pub fn simulate_base(&self, placement: &Placement) -> BaseEval {
        self.cost().simulate_recorded(placement, &self.recorder).step_time()
    }

    /// The environment's cost graph, built on first use.
    fn cost(&self) -> &CostGraph {
        self.cost.get_or_init(|| CostGraph::new(&self.graph, &self.machine))
    }

    /// The serial accounting step: draws measurement noise, charges the
    /// simulated wall-clock and counts the evaluation. Must run in episode
    /// order — it is the only consumer of the environment's RNG stream.
    ///
    /// A cached evaluation re-runs only the measured steps on the already
    /// staged session: no session setup, no parameter staging, no warm-up. A
    /// cached OOM costs nothing (the crash is remembered, not reproduced).
    fn commit(&mut self, base: BaseEval, cached: bool) -> Measurement {
        self.state.evals += 1;
        self.recorder.add("devsim.evals", 1);
        self.recorder.add(if cached { "devsim.cache.hits" } else { "devsim.cache.misses" }, 1);
        let m = match base {
            None => {
                self.state.invalid += 1;
                self.recorder.add("devsim.oom", 1);
                let wall = if cached { 0.0 } else { self.cfg.oom_cost };
                Measurement { step_time: None, wall_cost: wall }
            }
            Some(step_time) => {
                let measured_steps = self.cfg.train_steps - self.cfg.warmup_steps;
                let mean = self.noisy_mean(step_time, measured_steps);
                let wall = if cached {
                    measured_steps as f64 * step_time
                } else {
                    self.staging_cost
                        + self.cfg.warmup_steps as f64 * step_time * self.cfg.warmup_factor
                        + measured_steps as f64 * step_time
                };
                Measurement { step_time: Some(mean), wall_cost: wall }
            }
        };
        self.state.wall_clock += m.wall_cost;
        self.recorder.observe("devsim.wall_cost_s", m.wall_cost);
        self.recorder.gauge("devsim.wall_clock_s", self.state.wall_clock);
        m
    }

    /// Measures a placement with the training-time protocol (15 steps, discard 5).
    ///
    /// Previously seen placements are answered from the cache: the simulator is
    /// skipped, fresh noise is drawn over the cached base step time, and only
    /// the re-measured steps are charged to the wall-clock. The noise stream is
    /// consumed identically on hits and misses, so enabling the cache changes
    /// wall-clock charges but never the measured values.
    ///
    /// This is a thin wrapper over [`Environment::evaluate_batch`] with a
    /// one-element batch — caching, noise ordering and telemetry live in
    /// exactly one code path.
    pub fn evaluate(&mut self, placement: &Placement) -> Measurement {
        self.evaluate_batch(std::slice::from_ref(placement), 1)
            .pop()
            .expect("one measurement per placement")
    }

    /// Evaluates a minibatch, fanning the pure simulations out over `workers`
    /// threads (0 = one per available core, 1 = fully serial).
    ///
    /// Bit-for-bit identical for every worker count: cache probes and noise
    /// draws stay serial in episode order; only the cache-miss simulations —
    /// pure functions of `(graph, machine, placement)` — run concurrently.
    /// It matches calling [`Environment::evaluate`] on each placement in
    /// order, with one exception: probes see the cache as the batch began, so
    /// a placement whose entry an earlier miss of the same batch evicts is
    /// still a hit here. Its measured value is the same; its wall-clock
    /// charge and the counters differ.
    pub fn evaluate_batch(&mut self, placements: &[Placement], workers: usize) -> Vec<Measurement> {
        // Phase 1 (serial): probe the cache in episode order. Duplicates of an
        // earlier in-batch miss count as hits, exactly as they would when
        // evaluated one-by-one (the first occurrence would have been inserted).
        // `Dup` and `Miss` carry the position in `misses` of the simulation
        // that answers them; `keys` holds each miss's bytes for its insert.
        let (probes, keys) = self.state.cache.probe_batch(placements);
        let misses: Vec<&Placement> = placements
            .iter()
            .zip(&probes)
            .filter_map(|(p, probe)| matches!(probe, Probe::Miss(_)).then_some(p))
            .collect();

        // Phase 2 (parallel): simulate the misses across `workers`, each with
        // its host-time cost so the serial phase can report simulator latency
        // in episode order (telemetry stays deterministic).
        let env = &*self;
        let simulated = fan_out(&misses, workers, |p| {
            let start = std::time::Instant::now();
            let base = env.simulate_base(p);
            (base, start.elapsed().as_secs_f64() * 1e6)
        });

        // Phase 3 (serial): commit in episode order — noise draws, wall-clock
        // and cache inserts all happen exactly as they would in a one-by-one
        // evaluation loop.
        probes
            .into_iter()
            .map(|probe| match probe {
                Probe::Hit(base) => self.commit(base, true),
                Probe::Dup(m) => self.commit(simulated[m].0, true),
                Probe::Miss(m) => {
                    let (base, sim_us) = simulated[m];
                    self.recorder.observe("devsim.sim_us", sim_us);
                    if self.state.cache.insert_key(keys[m].clone(), base) {
                        self.recorder.add("devsim.cache.evictions", 1);
                    }
                    self.commit(base, false)
                }
            })
            .collect()
    }

    /// Measures a placement with the final protocol (1,000 steps): noise averages
    /// out, so this returns the near-exact step time.
    pub fn evaluate_final(&mut self, placement: &Placement) -> Option<f64> {
        match self.cost().simulate_recorded(placement, &self.recorder) {
            SimOutcome::Oom { .. } => None,
            SimOutcome::Valid(stats) => {
                let mean = self.noisy_mean(stats.step_time, 995).min(
                    // Averaging 995 steps leaves well under 1% noise either way;
                    // bound the estimate so pathological RNG draws cannot leak out.
                    stats.step_time * 1.01,
                );
                self.state.wall_clock += self.staging_cost + 1000.0 * stats.step_time;
                self.recorder.add("devsim.final_evals", 1);
                self.recorder.gauge("devsim.wall_clock_s", self.state.wall_clock);
                Some(mean.max(stats.step_time * 0.99))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eagle_opgraph::{OpKind, OpNode, Phase};

    fn env(g: OpGraph, m: &Machine, cfg: MeasureConfig, seed: u64) -> Environment {
        Environment::builder(g, m.clone())
            .measure(cfg)
            .seed(seed)
            .build()
            .expect("valid test environment")
    }

    fn tiny_graph() -> OpGraph {
        let mut g = OpGraph::new("tiny");
        let a = g.add_node(
            OpNode::new("a", OpKind::MatMul, Phase::Forward)
                .with_flops(4.65e9)
                .with_out_bytes(1024),
        );
        let b = g.add_node(OpNode::new("b", OpKind::MatMul, Phase::Forward).with_flops(4.65e9));
        g.add_edge(a, b);
        g
    }

    #[test]
    fn exact_config_is_deterministic_and_noise_free() {
        let m = Machine::paper_machine();
        let mut env = env(tiny_graph(), &m, MeasureConfig::exact(), 1);
        let p = Placement::uniform(2, m.gpu_ids()[0]);
        let a = env.evaluate(&p).step_time.unwrap();
        let b = env.evaluate(&p).step_time.unwrap();
        assert_eq!(a, b);
        let expected = 2.0 * (30e-6 + 1e-3);
        assert!((a - expected).abs() < 1e-9);
    }

    #[test]
    fn noise_is_small_and_seeded() {
        let m = Machine::paper_machine();
        let p = Placement::uniform(2, m.gpu_ids()[0]);
        let mut e1 = env(tiny_graph(), &m, MeasureConfig::default(), 7);
        let mut e2 = env(tiny_graph(), &m, MeasureConfig::default(), 7);
        let a = e1.evaluate(&p).step_time.unwrap();
        let b = e2.evaluate(&p).step_time.unwrap();
        assert_eq!(a, b, "same seed, same measurement");
        let exact = 2.0 * (30e-6 + 1e-3);
        assert!((a - exact).abs() / exact < 0.1, "noise should be small: {a} vs {exact}");
    }

    #[test]
    fn wall_clock_accumulates_and_oom_costs_less() {
        let m = Machine::paper_machine();
        let mut g = tiny_graph();
        g.node_mut(eagle_opgraph::OpId(0)).act_bytes = 20 << 30;
        let mut env = env(g, &m, MeasureConfig::default(), 1);
        let oom = env.evaluate(&Placement::uniform(2, m.gpu_ids()[0]));
        assert!(oom.step_time.is_none());
        let w1 = env.wall_clock();
        assert!(w1 > 0.0);
        let ok = env.evaluate(&Placement::uniform(2, m.cpu_id()));
        assert!(ok.step_time.is_some());
        assert!(env.wall_clock() > w1);
        assert!(ok.wall_cost > oom.wall_cost, "valid eval includes session setup + steps");
        let snap = env.snapshot();
        assert_eq!(snap.evals, 2);
        assert_eq!(snap.invalid_evals, 1);
        assert_eq!(snap.wall_clock, env.wall_clock());
    }

    #[test]
    fn batch_matches_serial_for_any_worker_count() {
        let m = Machine::paper_machine();
        // A batch with duplicates, an OOM placement and distinct valid ones.
        let mut g = tiny_graph();
        g.node_mut(eagle_opgraph::OpId(0)).act_bytes = 20 << 30;
        let batch = vec![
            Placement::uniform(2, m.gpu_ids()[0]),
            Placement::uniform(2, m.cpu_id()),
            Placement::uniform(2, m.gpu_ids()[0]),
            Placement::uniform(2, m.gpu_ids()[1]),
            Placement::uniform(2, m.cpu_id()),
        ];
        let mut serial = env(g.clone(), &m, MeasureConfig::default(), 11);
        let expect: Vec<Measurement> = batch.iter().map(|p| serial.evaluate(p)).collect();
        for workers in [1usize, 2, 4, 0] {
            let mut env = env(g.clone(), &m, MeasureConfig::default(), 11);
            let got = env.evaluate_batch(&batch, workers);
            assert_eq!(got, expect, "workers={workers}");
            assert_eq!(env.wall_clock(), serial.wall_clock(), "workers={workers}");
            assert_eq!(env.snapshot(), serial.snapshot(), "workers={workers}");
        }
    }

    #[test]
    fn cache_hits_cost_less_wall_clock_but_same_values() {
        let m = Machine::paper_machine();
        let p = Placement::uniform(2, m.gpu_ids()[0]);
        let mut with = env(tiny_graph(), &m, MeasureConfig::default(), 5);
        let mut without = Environment::builder(tiny_graph(), m.clone())
            .measure(MeasureConfig::default())
            .seed(5)
            .cache_capacity(0)
            .build()
            .unwrap();
        let (a1, b1) = (with.evaluate(&p), without.evaluate(&p));
        let (a2, b2) = (with.evaluate(&p), without.evaluate(&p));
        assert_eq!(a1.step_time, b1.step_time);
        assert_eq!(a2.step_time, b2.step_time, "cache never changes measured values");
        assert!(a2.wall_cost < b2.wall_cost, "hit skips staging and warm-up");
        assert_eq!(with.snapshot().cache.hits, 1);
        assert_eq!(without.snapshot().cache.hits, 0);
    }

    #[test]
    fn final_protocol_tight() {
        let m = Machine::paper_machine();
        let mut env = env(tiny_graph(), &m, MeasureConfig::default(), 3);
        let p = Placement::uniform(2, m.gpu_ids()[0]);
        let t = env.evaluate_final(&p).unwrap();
        let exact = 2.0 * (30e-6 + 1e-3);
        assert!((t - exact).abs() / exact < 0.011, "1000-step estimate is tight: {t}");
    }

    #[test]
    fn save_restore_state_continues_bit_identically() {
        let m = Machine::paper_machine();
        let mk = || env(tiny_graph(), &m, MeasureConfig::default(), 17);
        let batch = [
            Placement::uniform(2, m.gpu_ids()[0]),
            Placement::uniform(2, m.cpu_id()),
            Placement::uniform(2, m.gpu_ids()[0]), // cache hit
            Placement::uniform(2, m.gpu_ids()[1]),
        ];
        // Uninterrupted reference.
        let mut straight = mk();
        let expect: Vec<Measurement> = batch.iter().map(|p| straight.evaluate(p)).collect();
        // Interrupted run: evaluate half, snapshot through JSON, restore into a
        // *fresh* environment, evaluate the rest.
        let mut first = mk();
        let got_a: Vec<Measurement> = batch[..2].iter().map(|p| first.evaluate(p)).collect();
        let json = serde_json::to_string(&first.save_state()).unwrap();
        let state: EnvState = serde_json::from_str(&json).unwrap();
        let mut resumed = mk();
        resumed.restore_state(state).unwrap();
        let got_b: Vec<Measurement> = batch[2..].iter().map(|p| resumed.evaluate(p)).collect();
        let got: Vec<Measurement> = got_a.into_iter().chain(got_b).collect();
        assert_eq!(got, expect, "resumed noise stream and cache must continue exactly");
        assert_eq!(resumed.wall_clock(), straight.wall_clock());
        assert_eq!(resumed.snapshot(), straight.snapshot());
    }

    #[test]
    fn restore_state_rejects_mismatched_snapshots() {
        let m = Machine::paper_machine();
        let mut e = env(tiny_graph(), &m, MeasureConfig::default(), 1);
        e.evaluate(&Placement::uniform(2, m.gpu_ids()[0]));
        let good = serde_json::to_string(&e.save_state()).unwrap();
        let edited = |from: &str, to: &str| {
            assert!(good.contains(from), "{from} not in {good}");
            serde_json::from_str::<EnvState>(&good.replacen(from, to, 1))
        };

        // A key of nine words never decodes.
        let bad_rng = edited("\"key\":[", "\"key\":[7,").unwrap_err();
        assert!(bad_rng.to_string().contains("key has 9 words, want 8"), "{bad_rng}");

        let gpu = m.gpu_ids()[0].0;
        let bad_cache = edited(
            &format!("\"devices\":[{gpu},{gpu}]"),
            &format!("\"devices\":[{gpu},{gpu},{gpu}]"),
        );
        let bad_cache = bad_cache.unwrap(); // graph has 2 ops
        assert!(matches!(e.restore_state(bad_cache), Err(EnvStateError::BadCache(_))));

        // A failed restore leaves the environment untouched and usable.
        assert!(e.restore_state(serde_json::from_str(&good).unwrap()).is_ok());
    }

    #[test]
    fn builder_rejects_bad_inputs() {
        let m = Machine::paper_machine();
        let empty = OpGraph::new("empty");
        assert_eq!(
            Environment::builder(empty, m.clone()).build().unwrap_err(),
            EnvError::EmptyGraph
        );
        let degenerate = MeasureConfig { train_steps: 5, warmup_steps: 5, ..Default::default() };
        assert_eq!(
            Environment::builder(tiny_graph(), m.clone()).measure(degenerate).build().unwrap_err(),
            EnvError::NoMeasuredSteps { train_steps: 5, warmup_steps: 5 }
        );
        let negative = MeasureConfig { noise_sigma: -0.1, ..Default::default() };
        let err =
            Environment::builder(tiny_graph(), m.clone()).measure(negative).build().unwrap_err();
        assert_eq!(err, EnvError::BadKnob { name: "noise_sigma", value: -0.1 });
        assert!(err.to_string().contains("noise_sigma"), "errors must name the knob");
    }

    #[test]
    fn builder_defaults_match_explicit_settings() {
        let m = Machine::paper_machine();
        let p = Placement::uniform(2, m.gpu_ids()[0]);
        let mut dflt = Environment::builder(tiny_graph(), m.clone()).seed(9).build().unwrap();
        let mut explicit = Environment::builder(tiny_graph(), m.clone())
            .seed(9)
            .measure(MeasureConfig::default())
            .cache_capacity(DEFAULT_CACHE_CAPACITY)
            .recorder(Recorder::disabled())
            .build()
            .unwrap();
        assert_eq!(dflt.evaluate(&p), explicit.evaluate(&p));
    }

    #[test]
    fn recorder_counts_evals_hits_and_ooms() {
        let m = Machine::paper_machine();
        let rec = Recorder::new();
        let mut g = tiny_graph();
        g.node_mut(eagle_opgraph::OpId(0)).act_bytes = 20 << 30;
        let mut env =
            Environment::builder(g, m.clone()).seed(1).recorder(rec.clone()).build().unwrap();
        let oom = Placement::uniform(2, m.gpu_ids()[0]);
        let ok = Placement::uniform(2, m.cpu_id());
        env.evaluate(&oom);
        env.evaluate(&ok);
        env.evaluate(&ok); // cache hit
        assert_eq!(rec.counter_value("devsim.evals"), 3);
        assert_eq!(rec.counter_value("devsim.oom"), 1);
        assert_eq!(rec.counter_value("devsim.cache.hits"), 1);
        assert_eq!(rec.counter_value("devsim.cache.misses"), 2);
        // Only cache misses run (and time) the simulator.
        assert_eq!(rec.histogram("devsim.sim_us").unwrap().count, 2);
        assert_eq!(rec.gauge_value("devsim.wall_clock_s"), Some(env.wall_clock()));
    }

    #[test]
    fn telemetry_on_or_off_never_changes_measurements() {
        let m = Machine::paper_machine();
        let p = Placement::uniform(2, m.gpu_ids()[0]);
        let mut quiet = env(tiny_graph(), &m, MeasureConfig::default(), 13);
        let mut loud = Environment::builder(tiny_graph(), m.clone())
            .measure(MeasureConfig::default())
            .seed(13)
            .recorder(Recorder::new())
            .build()
            .unwrap();
        for _ in 0..4 {
            assert_eq!(quiet.evaluate(&p), loud.evaluate(&p));
        }
        assert_eq!(quiet.snapshot(), loud.snapshot());
    }
}
