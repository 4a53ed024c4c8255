//! The rollout engine's central contract: training results are identical
//! for every worker count. Sampling and noise stay serial and seeded; only the
//! pure per-episode work (decode + simulation) fans out, so the curve, the
//! trained policy's best placement and every counter must match between a
//! serial run and a parallel one: discrete outcomes (placements, counters,
//! sample counts) and curve floats, to the bit.

use eagle::core::{AgentScale, Algo, EagleAgent, GraphSource, TrainResult, Trainer, TrainerConfig};
use eagle::devsim::{Benchmark, Machine, MeasureConfig};
use eagle::obs::Recorder;
use eagle::opgraph::GraphGenConfig;
use eagle::tensor::Params;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

mod common;
use common::{assert_same_curve, assert_same_opt_f64};

fn run_with_workers(workers: usize) -> TrainResult {
    run_with_workers_and_recorder(workers, Recorder::disabled())
}

fn run_with_workers_and_recorder(workers: usize, recorder: Recorder) -> TrainResult {
    run_with(workers, recorder, None)
}

fn run_with(workers: usize, recorder: Recorder, cache_capacity: Option<usize>) -> TrainResult {
    let machine = Machine::paper_machine();
    let graph = Benchmark::InceptionV3.graph_for(&machine);
    let mut params = Params::new();
    let mut rng = ChaCha8Rng::seed_from_u64(42);
    let agent = EagleAgent::new(&mut params, &graph, &machine, AgentScale::tiny(), &mut rng);
    let mut cfg = TrainerConfig::paper(Algo::Ppo, 40);
    cfg.workers = workers;
    let mut builder = Trainer::builder(GraphSource::fixed(graph.clone()), machine.clone())
        .config(cfg)
        .measure(MeasureConfig::default())
        .env_seed(42)
        .recorder(recorder);
    if let Some(capacity) = cache_capacity {
        builder = builder.cache_capacity(capacity);
    }
    let trainer = builder.build().expect("inception trainer config is valid");
    trainer.train(&agent, &mut params).expect("training run succeeds")
}

/// Multi-graph run: a GraphGen distribution with a held-out graph and
/// zero-shot probes on, so worker-count independence is asserted over the
/// whole generalist path (per-graph environments, probe RNG, pool bookkeeping).
fn run_multi_with_workers(workers: usize) -> (TrainResult, Params) {
    let machine = Machine::paper_machine();
    let source = GraphSource::generated(GraphGenConfig::with_target(48), 99)
        .expect("valid generated source");
    let seed_graph = source.build(&source.holdout_origins(1)[0]);
    let mut params = Params::new();
    let mut rng = ChaCha8Rng::seed_from_u64(42);
    let agent = EagleAgent::new(&mut params, &seed_graph, &machine, AgentScale::tiny(), &mut rng);
    let mut cfg = TrainerConfig::paper(Algo::Ppo, 40);
    cfg.workers = workers;
    let trainer = Trainer::builder(source, machine)
        .config(cfg)
        .measure(MeasureConfig::default())
        .env_seed(7)
        .holdout(1)
        .probe_every(2)
        .probe_candidates(2)
        .build()
        .expect("valid generalist trainer config");
    let result = trainer.train(&agent, &mut params).expect("training run succeeds");
    (result, params)
}

#[test]
fn same_seed_same_curve_for_any_worker_count() {
    let serial = run_with_workers(1);
    let parallel = run_with_workers(4);

    // Curve points carry the measured values, the noise realization (through
    // `measured`) and the simulated wall-clock — sample indices and float
    // bits.
    assert_same_curve(&serial.curve, &parallel.curve, "serial vs parallel");
    assert_eq!(serial.best_placement, parallel.best_placement);
    assert_same_opt_f64(
        serial.final_step_time,
        parallel.final_step_time,
        "serial vs parallel: final step time",
    );
    assert_eq!(serial.num_invalid, parallel.num_invalid);
    assert_eq!(serial.samples, parallel.samples);

    // Cache behavior is part of the contract too: hit/miss classification may
    // not depend on how the minibatch was scheduled.
    assert_eq!(serial.telemetry.cache_hits, parallel.telemetry.cache_hits);
    assert_eq!(serial.telemetry.cache_misses, parallel.telemetry.cache_misses);
    assert_eq!(serial.telemetry.cache_evictions, parallel.telemetry.cache_evictions);
    assert_eq!(serial.telemetry.evals, parallel.telemetry.evals);
    assert_eq!(serial.telemetry.workers, 1);
    assert_eq!(parallel.telemetry.workers, 4);

    // The placement cache may only save simulated wall-clock: with it off,
    // every sample is measured at exactly the same value. (What a hit costs
    // and returns is `env.rs::cache_hits_cost_less_wall_clock_but_same_values`.)
    let uncached = run_with(4, Recorder::disabled(), Some(0));
    assert_eq!(uncached.telemetry.cache_hits, 0);
    let measured = |r: &TrainResult| r.curve.points.iter().map(|p| p.measured).collect::<Vec<_>>();
    assert_eq!(measured(&uncached), measured(&parallel), "the cache changed a measured value");
    assert_eq!(uncached.best_placement, parallel.best_placement);
}

#[test]
fn telemetry_recording_never_changes_the_curve() {
    // Instrumentation must be observation-only: an enabled recorder may not
    // perturb sampling, caching, simulated wall-clock or the trained policy.
    let silent = run_with_workers(2);
    let recorder = Recorder::new();
    let recorded = run_with_workers_and_recorder(2, recorder.clone());
    assert_same_curve(&silent.curve, &recorded.curve, "silent vs recorded");
    assert_eq!(silent.best_placement, recorded.best_placement);
    assert_same_opt_f64(
        silent.final_step_time,
        recorded.final_step_time,
        "silent vs recorded: final step time",
    );
    assert_eq!(silent.telemetry.evals, recorded.telemetry.evals);
    assert_eq!(silent.telemetry.cache_hits, recorded.telemetry.cache_hits);
    // And the recorder actually saw the run: 40 samples in minibatches of 10.
    assert_eq!(recorder.counter_value("trainer.minibatches"), 4);
    assert_eq!(recorder.counter_value("devsim.evals"), 40);
    assert_eq!(recorder.counter_value("rl.updates"), 4);
    assert_eq!(recorder.histogram("trainer.sample_us").unwrap().count, 4);
    assert_eq!(recorder.histogram("trainer.decode_us").unwrap().count, 4);
    assert_eq!(recorder.histogram("trainer.evaluate_us").unwrap().count, 4);
    assert_eq!(recorder.histogram("trainer.update_us").unwrap().count, 4);
    assert_eq!(recorder.histogram("rl.ppo.update_us").unwrap().count, 4);
}

#[test]
fn auto_worker_count_matches_serial_too() {
    let serial = run_with_workers(1);
    let auto = run_with_workers(0);
    assert_same_curve(&serial.curve, &auto.curve, "serial vs auto");
    assert_eq!(serial.best_placement, auto.best_placement);
    assert!(auto.telemetry.workers >= 1);
}

#[test]
fn multi_graph_training_is_worker_count_independent() {
    let (serial, serial_params) = run_multi_with_workers(1);
    let (parallel, parallel_params) = run_multi_with_workers(4);

    assert_same_curve(&serial.curve, &parallel.curve, "multi-graph serial vs parallel");
    // Zero-shot probes are part of the contract: identical graphs, identical
    // best-of-K step times, at identical sample indices.
    assert_eq!(serial.curve.probes, parallel.curve.probes, "probe points diverged");
    assert!(!serial.curve.probes.is_empty(), "probes were requested");
    assert_eq!(serial.samples, parallel.samples);
    assert_eq!(serial.num_invalid, parallel.num_invalid);
    assert_eq!(serial.telemetry.cache_hits, parallel.telemetry.cache_hits);
    assert_eq!(serial.telemetry.evals, parallel.telemetry.evals);
    // The trained generalist policy itself must match bit-for-bit.
    assert_eq!(serial_params.len(), parallel_params.len());
    for id in serial_params.ids() {
        assert_eq!(
            serial_params.get(id).data(),
            parallel_params.get(id).data(),
            "param {} diverged across worker counts",
            serial_params.name(id)
        );
    }
    // Per-graph summaries (which graphs were drawn, how often) are discrete.
    let names =
        |r: &TrainResult| r.graphs.iter().map(|g| (g.name.clone(), g.samples)).collect::<Vec<_>>();
    assert_eq!(names(&serial), names(&parallel));
}
