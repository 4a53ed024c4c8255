//! Rollout-engine benchmark: end-to-end `train()` throughput serial vs
//! parallel vs parallel+cache, on Inception-V3 and GNMT.
//!
//! Each configuration trains the same agent from the same seeds, so the
//! resulting curves are directly comparable: worker count never changes the
//! points (the determinism contract), and the cache changes only simulated
//! wall-clock charges, never measured values. Both invariants are checked here
//! and recorded in the emitted `BENCH_rollout_throughput.json`.
//!
//! Per-layer timings of the same loop (`nn.sample_batch_s`, `rl.update_s`,
//! `tensor.backward_adam_s`, ...) and their comparison against the parent
//! commit are the job of the repo's benchmark (`BENCHMARK.json`, `perf/`).

use eagle_bench::Cli;
use eagle_core::{Algo, EagleAgent, GraphSource, TrainResult, Trainer, TrainerConfig};
use eagle_devsim::{resolve_workers, Benchmark, Machine, MeasureConfig};
use eagle_tensor::Params;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde_json::Value;

struct Mode {
    label: &'static str,
    workers: usize,
    cache: bool,
}

const MODES: &[Mode] = &[
    Mode { label: "serial", workers: 1, cache: false },
    Mode { label: "parallel", workers: 8, cache: false },
    Mode { label: "parallel+cache", workers: 8, cache: true },
];

fn run_mode(b: Benchmark, mode: &Mode, cli: &Cli, samples: usize) -> (TrainResult, f64) {
    let machine = Machine::paper_machine();
    let graph = b.graph_for(&machine);
    let cache_capacity = if mode.cache { eagle_devsim::DEFAULT_CACHE_CAPACITY } else { 0 };
    let mut params = Params::new();
    let mut rng = ChaCha8Rng::seed_from_u64(cli.seed);
    let agent = EagleAgent::new(&mut params, &graph, &machine, cli.scale, &mut rng);
    let mut cfg = TrainerConfig::paper(Algo::Ppo, samples);
    cfg.seed = cli.seed.wrapping_add(13);
    cfg.workers = mode.workers;
    let start = std::time::Instant::now();
    let trainer = Trainer::builder(GraphSource::fixed(graph.clone()), machine.clone())
        .config(cfg)
        .measure(MeasureConfig::default())
        .env_seed(1000 + cli.seed)
        .cache_capacity(cache_capacity)
        .recorder(cli.recorder.clone())
        .build()
        .expect("valid throughput trainer");
    let result = trainer.train(&agent, &mut params).expect("training run failed");
    (result, start.elapsed().as_secs_f64())
}

fn obj(entries: Vec<(&str, Value)>) -> Value {
    Value::Object(entries.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

fn main() {
    let cli = Cli::parse();
    let samples = cli.samples_override.unwrap_or(200);
    println!(
        "rollout throughput: {} samples/run, scale = {}, {} cores available",
        samples,
        cli.scale_name,
        resolve_workers(0)
    );

    let mut runs: Vec<Value> = Vec::new();
    for b in [Benchmark::InceptionV3, Benchmark::Gnmt] {
        let mut serial_elapsed = None;
        let mut serial_points = None;
        for mode in MODES {
            let (result, elapsed) = run_mode(b, mode, &cli, samples);
            let stats = result.telemetry;
            let speedup = match serial_elapsed {
                None => {
                    serial_elapsed = Some(elapsed);
                    1.0
                }
                Some(base) => base / elapsed,
            };
            // Same worker-count-independent curve, and — with the cache — the
            // same measured values (only simulated wall-clock charges shrink).
            let curve_check = match &serial_points {
                None => {
                    serial_points = Some(result.curve.points.clone());
                    true
                }
                Some(base) if !mode.cache => base == &result.curve.points,
                Some(base) => {
                    base.len() == result.curve.points.len()
                        && base
                            .iter()
                            .zip(&result.curve.points)
                            .all(|(a, b)| a.measured == b.measured)
                }
            };
            assert!(curve_check, "{}: {} diverged from the serial curve", b.name(), mode.label);
            println!(
                "  {:<12} {:<15} {:>7.2}s  {:>8.1} eps/s  speedup {:>5.2}x  hit rate {:>5.1}%",
                b.name(),
                mode.label,
                elapsed,
                stats.episodes_per_sec,
                speedup,
                100.0 * stats.cache_hit_rate,
            );
            runs.push(obj(vec![
                ("benchmark", Value::from(b.name())),
                ("mode", Value::from(mode.label)),
                ("workers", Value::U64(stats.workers as u64)),
                ("cache", Value::Bool(mode.cache)),
                ("samples", Value::U64(samples as u64)),
                ("elapsed_sec", Value::from(elapsed)),
                ("episodes_per_sec", Value::from(stats.episodes_per_sec)),
                ("speedup_vs_serial", Value::from(speedup)),
                ("cache_hits", Value::U64(stats.cache_hits)),
                ("cache_misses", Value::U64(stats.cache_misses)),
                ("cache_hit_rate", Value::from(stats.cache_hit_rate)),
                ("curve_matches_serial", Value::Bool(curve_check)),
                ("final_step_time", result.final_step_time.map_or(Value::Null, Value::from)),
            ]));
        }
    }

    let doc = obj(vec![
        ("bench", Value::from("rollout_throughput")),
        ("scale", Value::from(cli.scale_name.as_str())),
        ("seed", Value::U64(cli.seed)),
        ("available_cores", Value::U64(resolve_workers(0) as u64)),
        ("runs", Value::Array(runs)),
    ]);
    cli.write_artifact(
        "BENCH_rollout_throughput.json",
        &serde_json::to_string(&doc).expect("serialize"),
    );
    cli.finish_metrics("rollout_throughput");
}
