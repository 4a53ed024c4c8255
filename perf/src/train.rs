//! `train_gnmt` and `paper_step`: the paper's training loop, the same `tensor`
//! / `nn` / `rl` code at two sizes.
//!
//! `train_gnmt` is `Trainer::train` with the paper's hyper-parameters at
//! `AgentScale::quick()` on GNMT (one GPU OOMs, so invalid samples and the
//! feasibility work show). It is update-dominated; every placer product is far
//! below `PAR_MATMUL_THRESHOLD` (tape and allocation bound) and only the
//! grouper's per-op products cross it. `paper_step` runs the same loop on
//! Inception-V3 at the paper's own network widths (`AgentScale::paper()`),
//! whose LSTM gate products are five times over the threshold and take the
//! parallel path: a threshold or kernel change that helps one and costs the
//! other shows on both. What it cuts to fit a run is stated on
//! [`Spec::paper_step`]. `devsim` is a few percent here: a simulator change
//! predicts no move.

use std::time::Instant;

use eagle_core::{
    AgentScale, Algo, EagleAgent, GraphSource, PlacementAgent, TrainResult, Trainer, TrainerConfig,
};
use eagle_devsim::{
    simulate, Benchmark, EnvSnapshot, Environment, Machine, MeasureConfig, Placement,
};
use eagle_obs::Recorder;
use eagle_opgraph::features::node_features;
use eagle_opgraph::OpGraph;
use eagle_rl::{fork_streams, EmaBaseline, Ppo, StochasticPolicy, TrainSample};
use eagle_tensor::{Params, Tensor, PAR_MATMUL_THRESHOLD};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::harness::{
    derive_seed, median, peak_rss_mb, quantile_by_slice, slices, workers, Outcome, Size, Slices,
    Tracer,
};
use crate::sim::trace_opgraph;

/// What separates the two training workloads.
pub struct Spec {
    bench: Benchmark,
    scale: AgentScale,
    ppo_epochs: usize,
    /// Samples per training run.
    budget: usize,
    /// Runs every invocation completes whatever the clock says; the quality
    /// figure is taken over exactly these, so it repeats run to run.
    fixed_runs: usize,
    /// Consecutive minibatches in a slice of the run's statistics; a run's
    /// minibatches are a whole number of slices.
    slice_minibatches: usize,
    /// `core.samples_to_quality` counts samples until `best_so_far` is at most this.
    quality_target_s: f64,
    /// The traced run's mirrored loop: passes, each from the initial
    /// parameters and next to an untraced twin, and minibatches in a pass.
    mirror_passes: u64,
    mirror_minibatches: u64,
}

impl Spec {
    pub fn train_gnmt(size: Size) -> Self {
        Self {
            bench: Benchmark::Gnmt,
            scale: AgentScale::quick(),
            ppo_epochs: 4,
            budget: size.pick(200, 20),
            fixed_runs: size.pick(5, 1),
            slice_minibatches: 5,
            // Between Human Experts (1.662) and Hierarchical Planner (2.301),
            // results/table4.csv.
            quality_target_s: 1.9,
            mirror_passes: size.pick(3, 1),
            mirror_minibatches: size.pick(10, 2),
        }
    }

    /// `AgentScale::paper()` with every width as the paper has it (512-wide
    /// placer LSTMs, 64-wide grouper), so each product is a shape a
    /// paper-scale run issues: the gate product `h . w_hh` is 10x512 . 512x2048
    /// = 10.5 M madds, 5x `PAR_MATMUL_THRESHOLD`. Two things are cut, neither a
    /// shape: the sequence the LSTMs walk, 8 groups instead of 256 (cost is
    /// linear in it: 0.15 s + 0.12 s a group, 33 s at 256), and one PPO epoch
    /// instead of four. A minibatch is 1.1 s and set-up 3 s, so a run holds
    /// two 60-sample trainings.
    pub fn paper_step(size: Size) -> Self {
        Self {
            bench: Benchmark::InceptionV3,
            scale: AgentScale { num_groups: 8, ..AgentScale::paper() },
            ppo_epochs: 1,
            budget: size.pick(60, 10),
            fixed_runs: size.pick(2, 1),
            slice_minibatches: 3,
            quality_target_s: 0.08,
            // One minibatch a pass: twin and mirror are a second apart, so
            // a slow few seconds fall on both.
            mirror_passes: size.pick(6, 1),
            mirror_minibatches: 1,
        }
    }

    fn config(&self, seed: u64, budget: usize) -> TrainerConfig {
        let workers = workers();
        TrainerConfig {
            ppo_epochs: self.ppo_epochs,
            seed,
            workers,
            ..TrainerConfig::paper(Algo::Ppo, budget)
        }
    }
}

/// Everything one training run needs, built from one derived seed.
struct Run {
    machine: Machine,
    graph: OpGraph,
    params: Params,
    agent: EagleAgent,
    trainer: Trainer,
    recorder: Recorder,
}

/// The trainer of a run: the paper's configuration on one fixed graph, its
/// seeds derived from the run's.
fn build_trainer(
    spec: &Spec,
    graph: &OpGraph,
    machine: &Machine,
    seed: u64,
    budget: usize,
    recorder: Recorder,
) -> Trainer {
    Trainer::builder(GraphSource::fixed(graph.clone()), machine.clone())
        .config(spec.config(derive_seed(seed, 2), budget))
        .measure(MeasureConfig::default())
        .env_seed(derive_seed(seed, 3))
        .recorder(recorder)
        .build()
        .expect("paper trainer config is valid")
}

/// Graph build, agent construction (warm start included), trainer
/// construction and one warm-up `sample_batch`: what `setup_s` charges.
fn build_run(spec: &Spec, seed: u64, budget: usize) -> Run {
    let machine = Machine::paper_machine();
    let graph = spec.bench.graph_for(&machine);
    let mut params = Params::new();
    let mut rng = ChaCha8Rng::seed_from_u64(derive_seed(seed, 1));
    let agent = EagleAgent::new(&mut params, &graph, &machine, spec.scale, &mut rng);
    let recorder = Recorder::new();
    let trainer = build_trainer(spec, &graph, &machine, seed, budget, recorder.clone());
    // Own stream: the trainer's RNG never sees the warm-up.
    let mut warm = ChaCha8Rng::seed_from_u64(derive_seed(seed, 4));
    std::hint::black_box(agent.sample_batch(&params, &mut [&mut warm as &mut dyn rand::RngCore]));
    Run { machine, graph, params, agent, trainer, recorder }
}

/// Per-minibatch latency from the trainer's own phase spans: the four phases
/// of minibatch `seq` summed.
fn minibatch_ms(recorder: &Recorder) -> Vec<f64> {
    let mut by_seq: Vec<f64> = Vec::new();
    for s in recorder.spans() {
        if matches!(
            s.name,
            "trainer.sample_us" | "trainer.decode_us" | "trainer.evaluate_us" | "trainer.update_us"
        ) {
            let i = s.seq as usize - 1;
            if by_seq.len() <= i {
                by_seq.resize(i + 1, 0.0);
            }
            by_seq[i] += s.micros * 1e-3;
        }
    }
    by_seq
}

/// Output checks on one finished run; returns its quality figure, the final
/// measurement of the best placement.
fn check_run(out: &mut Outcome, run: &Run, budget: usize, r: &TrainResult) -> f64 {
    out.check(r.curve.points.len() == budget && r.samples == budget, || {
        format!("curve has {} points for a budget of {budget}", r.curve.points.len())
    });
    let best: Option<&Placement> = r.best_placement.as_ref();
    out.check(best.is_some() && r.final_step_time.is_some(), || {
        "run ended with no valid placement".into()
    });
    let Some((best, curve_best)) = best.zip(r.curve.best()) else { return f64::NAN };
    out.check(best.validate(&run.graph, &run.machine).is_ok(), || {
        "best placement fails Placement::validate".into()
    });
    // The curve holds noisy measurements (sigma 0.02); the noiseless engine
    // must agree with the best of them within 10 %.
    let exact = simulate(&run.graph, &run.machine, best).step_time();
    out.check(exact.is_some_and(|t| (t / curve_best - 1.0).abs() <= 0.10), || {
        format!("best placement simulates to {exact:?}, curve best {curve_best}")
    });
    r.final_step_time.unwrap_or(f64::NAN)
}

fn samples_to_quality(r: &TrainResult, target_s: f64) -> f64 {
    r.curve
        .points
        .iter()
        .find(|p| p.best_so_far.is_some_and(|b| b <= target_s))
        .map_or(r.curve.points.len() as f64, |p| p.sample as f64)
}

pub fn run(spec: &Spec, seed: u64, size: Size) -> Outcome {
    let mut out = Outcome::default();
    let start = Instant::now();
    let (mut setups, mut minibatch_ms_all, mut quality) = (vec![], vec![], vec![]);
    let mut invalid = 0usize;
    let mut r = 0u64;
    // The fixed runs whatever the clock says, then as many more as fit in it
    // at the pace so far: a run on a slow box does not outlast its clock by a
    // run's length.
    let fits = |r: u64| {
        let elapsed = start.elapsed().as_secs_f64();
        elapsed + elapsed / r as f64 <= size.seconds
    };
    while (r as usize) < spec.fixed_runs || fits(r) {
        let t0 = Instant::now();
        let mut run = build_run(spec, derive_seed(seed, 100 + r), spec.budget);
        setups.push(t0.elapsed().as_secs_f64());

        let result = run.trainer.train(&run.agent, &mut run.params);
        out.attempted += 1;
        match result {
            Ok(result) => {
                minibatch_ms_all.extend(minibatch_ms(&run.recorder));
                invalid += result.num_invalid;
                let q = check_run(&mut out, &run, spec.budget, &result);
                if (r as usize) < spec.fixed_runs {
                    quality.push(q);
                }
            }
            Err(e) => {
                out.failed += 1;
                eprintln!("training run {r} failed: {e}");
            }
        }
        r += 1;
    }
    let fmt = |v: &[f64]| v.iter().map(|x| format!("{x:.4}")).collect::<Vec<_>>().join(", ");
    out.note(format!("{r} runs of {} samples, {invalid} invalid samples", spec.budget));
    out.note(format!("set-up s per run: [{}]", fmt(&setups)));
    out.note(format!("quality s over the first {} runs: [{}]", quality.len(), fmt(&quality)));
    // Slices of a few consecutive minibatches (runs are a whole number of
    // slices long): the rate of each from the trainer's own phase spans, which
    // cover all but 0.05 % of `Trainer::train` (`core.loop_overhead_share`).
    let per = spec.slice_minibatches;
    let minibatch = spec.config(0, spec.budget).minibatch;
    let rates = Slices {
        values: slices(&minibatch_ms_all, per)
            .map(|c| (c.len() * minibatch) as f64 / (c.iter().sum::<f64>() * 1e-3))
            .collect(),
    };
    let p50 = quantile_by_slice(&minibatch_ms_all, per, 0.5);
    out.note(rates.describe("samples/s"));
    out.note(p50.describe("minibatch p50 ms"));
    out.set("setup_s", Slices { values: setups }.quiet_low());
    out.set("ops_per_s", rates.quiet_high());
    out.set("op_p50_ms", p50.quiet_low());
    out.set("step_time_s", median(&quality));
    out.set("peak_rss_mb", peak_rss_mb());
    out
}

/// GFLOP/s of `Tensor::matmul` at `(m, k) x (k, n)`, with which side of the
/// parallel threshold the shape falls on.
fn matmul_gflops(out: &mut Outcome, what: &str, m: usize, k: usize, n: usize) -> f64 {
    let mut rng = ChaCha8Rng::seed_from_u64((m * k * n) as u64);
    let mut fill = |r: usize, c: usize| {
        Tensor::from_vec(r, c, (0..r * c).map(|_| rng.gen::<f32>() - 0.5).collect())
    };
    let (a, b) = (fill(m, k), fill(k, n));
    std::hint::black_box(a.matmul(&b));
    let start = Instant::now();
    let mut reps = 0u64;
    while start.elapsed().as_secs_f64() < 0.2 {
        std::hint::black_box(std::hint::black_box(&a).matmul(std::hint::black_box(&b)));
        reps += 1;
    }
    let gflops = 2.0 * (m * k * n) as f64 * reps as f64 / start.elapsed().as_secs_f64() * 1e-9;
    let madds = m * k * n;
    out.note(format!(
        "matmul {what}: {m}x{k} . {k}x{n} = {madds} madds, {:.2}x PAR_MATMUL_THRESHOLD ({}), {gflops:.2} GFLOP/s",
        madds as f64 / PAR_MATMUL_THRESHOLD as f64,
        if madds >= PAR_MATMUL_THRESHOLD { "parallel path" } else { "serial path" },
    ));
    gflops
}

/// One pass of the training loop mirrored over public functions, a span
/// around each: what `Trainer::train` does with `cfg` on a fixed graph, from
/// `params`. Returns every sample's measured step time, which the caller
/// holds against the curve of the real trainer on the same seeds.
fn mirrored_loop(
    tr: &mut Tracer,
    cfg: &TrainerConfig,
    agent: &EagleAgent,
    params: &mut Params,
    env: &mut Environment,
    minibatches: u64,
    first_op: u64,
) -> Vec<Option<f64>> {
    let workers = workers();
    let mut master = ChaCha8Rng::seed_from_u64(cfg.seed);
    let mut ppo = Ppo::new(cfg.optim.clone(), cfg.ppo_clip, cfg.ppo_epochs);
    let mut baseline = EmaBaseline::new(cfg.ema_alpha);
    let mut step_times = Vec::new();
    for op in first_op..first_op + minibatches {
        tr.span("core.minibatch", op, |tr| {
            let mut streams = tr.span("rl.fork_streams", op, |_| {
                fork_streams(&mut master, agent.rng_draws_per_sample(), cfg.minibatch)
            });
            let mut refs: Vec<&mut dyn rand::RngCore> =
                streams.iter_mut().map(|s| s as &mut dyn rand::RngCore).collect();
            let drawn = tr.span("nn.sample_batch", op, |_| agent.sample_batch(params, &mut refs));
            let (actions, old_log_probs): (Vec<Vec<usize>>, Vec<f32>) = drawn.into_iter().unzip();
            let placements =
                tr.span("core.decode_batch", op, |_| agent.decode_batch(params, &actions));
            let measured =
                tr.span("devsim.evaluate_batch", op, |_| env.evaluate_batch(&placements, workers));
            step_times.extend(measured.iter().map(|m| m.step_time));
            let mut batch: Vec<TrainSample> = actions
                .iter()
                .zip(old_log_probs)
                .zip(&measured)
                .map(|((actions, old_log_prob), m)| {
                    let reward = cfg.reward.apply(m.step_time.unwrap_or(cfg.invalid_penalty_time));
                    let advantage = if cfg.use_baseline {
                        baseline.advantage(reward) as f32
                    } else {
                        reward as f32
                    };
                    TrainSample { actions: actions.clone(), old_log_prob, advantage }
                })
                .collect();
            if cfg.normalize_adv && batch.len() > 1 {
                let mean = batch.iter().map(|s| s.advantage).sum::<f32>() / batch.len() as f32;
                let var = batch.iter().map(|s| (s.advantage - mean).powi(2)).sum::<f32>()
                    / batch.len() as f32;
                let std = var.sqrt().max(1e-6);
                for s in &mut batch {
                    s.advantage /= std;
                }
            }
            tr.span("rl.update", op, |_| ppo.update(agent, params, &batch));
            // One extra forward, so the update's forward share can be told
            // from its backward + Adam share; not part of the real loop, and
            // after the update so that it cannot warm the update's own forward.
            tr.span("perf.score_batch_probe", op, |_| {
                std::hint::black_box(agent.score_batch(params, &actions).episodes.len())
            });
        });
    }
    step_times
}

/// The traced run: a few real `Trainer::train` runs as the reference, then
/// the same loop mirrored over public functions with a span around each,
/// alternating with its untraced twin.
pub fn trace(spec: &Spec, seed: u64, size: Size, tr: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    trace_opgraph(tr, spec.bench);

    // Reference: real training runs for about a third of the time.
    let (mut to_quality, mut overheads, mut invalid, mut samples) =
        (vec![], vec![], 0usize, 0usize);
    let (runs, _) = tr.reference(|| {
        let start = Instant::now();
        let mut r = 0u64;
        while r == 0 || start.elapsed().as_secs_f64() < size.seconds / 3.0 {
            let mut run = build_run(spec, derive_seed(seed, 100 + r), spec.budget);
            let t0 = Instant::now();
            let result = run.trainer.train(&run.agent, &mut run.params);
            let train_s = t0.elapsed().as_secs_f64();
            out.attempted += 1;
            match result {
                Ok(result) => {
                    check_run(&mut out, &run, spec.budget, &result);
                    to_quality.push(samples_to_quality(&result, spec.quality_target_s));
                    let spans_s = minibatch_ms(&run.recorder).iter().sum::<f64>() * 1e-3;
                    overheads.push(1.0 - spans_s / train_s);
                    invalid += result.num_invalid;
                    samples += result.samples;
                }
                Err(e) => {
                    out.failed += 1;
                    eprintln!("reference training run {r} failed: {e}");
                }
            }
            r += 1;
        }
        r
    });

    // Set-up of the mirrored loop, one span per layer call.
    let mirror_seed = derive_seed(seed, 7);
    let machine = Machine::paper_machine();
    let graph = tr.span("devsim.graph_for", 0, |_| spec.bench.graph_for(&machine));
    let mut initial = Params::new();
    let mut rng = ChaCha8Rng::seed_from_u64(derive_seed(mirror_seed, 1));
    let agent = tr.span("nn.agent_build", 0, |_| {
        EagleAgent::new(&mut initial, &graph, &machine, spec.scale, &mut rng)
    });
    tr.span("nn.infer_build", 0, |_| {
        let mut scratch = Params::new();
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        EagleAgent::new_for_inference(&mut scratch, &graph, &machine, spec.scale, &mut rng)
    });

    // `Trainer::train` untraced, then the mirrored loop traced, pass after
    // pass: the same seeds and the same initial parameters each time, so all
    // do the same work and the trainer's curve says what the mirror must
    // measure. Tracing overhead is the median over minibatches of mirror /
    // twin; alternating keeps a slow minute from landing on one side only.
    let minibatches = spec.mirror_minibatches;
    let budget = minibatches as usize * 10;
    let cfg = spec.config(derive_seed(mirror_seed, 2), budget);
    let rec = Recorder::new();
    let (mut twin_s, mut mirrored_s) = (0.0, 0.0);
    let mut misses = 0u64;
    let mut snap = EnvSnapshot::default();
    for rep in 0..spec.mirror_passes {
        let ((twin, twin_ms), _) = tr.reference(|| {
            let twin_rec = Recorder::new();
            let trainer =
                build_trainer(spec, &graph, &machine, mirror_seed, budget, twin_rec.clone());
            let twin = trainer.train(&agent, &mut initial.clone());
            (twin, minibatch_ms(&twin_rec))
        });
        let mut env = Environment::builder(graph.clone(), machine.clone())
            .seed(derive_seed(mirror_seed, 3))
            .measure(MeasureConfig::default())
            .recorder(rec.clone())
            .build()
            .expect("benchmark graph builds an environment");
        let first_op = rep * minibatches;
        let measured =
            mirrored_loop(tr, &cfg, &agent, &mut initial.clone(), &mut env, minibatches, first_op);
        out.attempted += budget as u64;
        let same = twin.as_ref().is_ok_and(|t| {
            let curve = t.curve.points.iter().map(|p| p.measured.map(f64::to_bits));
            curve.eq(measured.iter().map(|t| t.map(f64::to_bits)))
        });
        out.check(same, || match &twin {
            Ok(_) => "the mirrored loop measured other step times than Trainer::train".into(),
            Err(e) => format!("untraced twin run failed: {e}"),
        });
        let spans = tr.durations("core.minibatch");
        let probes = tr.durations("perf.score_batch_probe");
        for (i, ms) in twin_ms.iter().enumerate() {
            let at = first_op as usize + i;
            let mirror_s = spans[at] - probes[at];
            out.trace_pairs.push(mirror_s / (ms * 1e-3));
            twin_s += ms * 1e-3;
            mirrored_s += mirror_s;
        }
        // Every pass does the same evaluations: the last one's counts stand.
        snap = env.snapshot();
        misses += snap.cache.misses;
    }

    // The two product shapes this workload issues that an optimisation is
    // most likely to move, on their own.
    let ((gate, grouper), _) = tr.reference(|| {
        let feat_dim = node_features(&graph)[0].len();
        let (b, h, gh) = (cfg.minibatch, spec.scale.placer_hidden, spec.scale.grouper_hidden);
        (
            matmul_gflops(&mut out, "placer LSTM gate (h . w_hh)", b, h, 4 * h),
            matmul_gflops(&mut out, "grouper layer 1", graph.len(), feat_dim, gh),
        )
    });

    let events = rec.counter_value("devsim.engine.events");
    let per_mb = |name: &str| median(&tr.durations(name));
    let update_s = per_mb("rl.update");
    let score_s = per_mb("perf.score_batch_probe");
    out.set("tensor.matmul_gate_gflops", gate);
    out.set("tensor.matmul_grouper_gflops", grouper);
    out.set("tensor.backward_adam_s", update_s - spec.ppo_epochs as f64 * score_s);
    out.set("nn.agent_build_s", tr.total("nn.agent_build"));
    out.set("nn.infer_build_s", tr.total("nn.infer_build"));
    out.set("nn.sample_batch_s", per_mb("nn.sample_batch"));
    out.set("nn.score_batch_s", score_s);
    out.set("rl.update_s", update_s);
    out.set("rl.updates", tr.durations("rl.update").len() as f64);
    out.set("devsim.evaluate_batch_s", per_mb("devsim.evaluate_batch"));
    out.set("devsim.events_per_eval", events as f64 / misses.max(1) as f64);
    out.set("devsim.cache_hit_rate", snap.cache.hit_rate());
    out.set("devsim.oom_share", snap.invalid_evals as f64 / snap.evals as f64);
    out.set("core.decode_batch_s", per_mb("core.decode_batch"));
    out.set("core.loop_overhead_share", median(&overheads));
    out.set("core.invalid_share", invalid as f64 / samples.max(1) as f64);
    out.set("core.samples_to_quality", median(&to_quality));
    out.note(format!(
        "{runs} reference runs; samples to {} s per run: {to_quality:?}",
        spec.quality_target_s
    ));
    let minibatch_s = per_mb("core.minibatch") - score_s;
    out.note(format!(
        "share of a minibatch ({minibatch_s:.4} s): sample {:.1}%, decode {:.1}%, evaluate {:.1}%, update {:.1}% (forward {:.1}%, backward + Adam {:.1}%)",
        100.0 * per_mb("nn.sample_batch") / minibatch_s,
        100.0 * per_mb("core.decode_batch") / minibatch_s,
        100.0 * per_mb("devsim.evaluate_batch") / minibatch_s,
        100.0 * update_s / minibatch_s,
        100.0 * spec.ppo_epochs as f64 * score_s / minibatch_s,
        100.0 * (update_s - spec.ppo_epochs as f64 * score_s) / minibatch_s,
    ));
    out.note(format!(
        "{} mirrored minibatches, each held against Trainer::train's: {twin_s:.4} s untraced, {mirrored_s:.4} s mirrored, engine events {events} over {misses} cache misses",
        out.trace_pairs.len()
    ));
    out
}
