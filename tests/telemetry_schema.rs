//! Golden test pinning the telemetry JSONL schema (version 1).
//!
//! Downstream tooling parses these files, so the line types, their field names
//! and their JSON types are a public contract: any change must bump
//! `eagle::obs::SCHEMA_VERSION` and update this test deliberately.

use eagle::core::{AgentScale, Algo, EagleAgent, GraphSource, Trainer, TrainerConfig};
use eagle::devsim::{Benchmark, Environment, Machine, MeasureConfig};
use eagle::obs::{write_jsonl, Recorder, SCHEMA_VERSION};
use eagle::tensor::Params;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde_json::Value;

/// Runs a short instrumented training run, checkpointing after every
/// minibatch, and returns its recorder.
fn instrumented_run() -> Recorder {
    let recorder = Recorder::new();
    let machine = Machine::paper_machine();
    let graph = Benchmark::InceptionV3.graph_for(&machine);
    let mut params = Params::new();
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    let agent = EagleAgent::new(&mut params, &graph, &machine, AgentScale::tiny(), &mut rng);
    let checkpoint_dir =
        std::env::temp_dir().join(format!("eagle_telemetry_schema_ckpt_{}", std::process::id()));
    let mut config = TrainerConfig::paper(Algo::Ppo, 20);
    config.checkpoint_every = Some(1);
    config.checkpoint_dir = Some(checkpoint_dir.clone());
    let trainer = Trainer::builder(GraphSource::fixed(graph.clone()), machine.clone())
        .config(config)
        .measure(MeasureConfig::default())
        .env_seed(5)
        .recorder(recorder.clone())
        .build()
        .expect("inception trainer config is valid");
    trainer.train(&agent, &mut params).expect("training run succeeds");
    std::fs::remove_dir_all(&checkpoint_dir).ok();
    // Re-evaluating a fixed placement twice guarantees the cache-hit counter
    // exists even when the short training run never repeats a placement.
    let mut env = Environment::builder(graph.clone(), machine.clone())
        .measure(MeasureConfig::default())
        .seed(5)
        .recorder(recorder.clone())
        .build()
        .expect("inception environment is valid");
    let single = eagle::devsim::predefined::single_gpu(&graph, &machine);
    env.evaluate(&single);
    env.evaluate(&single);
    recorder
}

/// The exact field names of an object line, in serialization order.
fn keys(line: &Value) -> Vec<&str> {
    match line {
        Value::Object(entries) => entries.iter().map(|(k, _)| k.as_str()).collect(),
        other => panic!("every JSONL line is an object, got {other:?}"),
    }
}

#[test]
fn jsonl_schema_v1_is_pinned() {
    let recorder = instrumented_run();
    let path = std::env::temp_dir().join("eagle_telemetry_schema_golden.jsonl");
    write_jsonl(&recorder, &path, "golden").expect("write JSONL");
    let text = std::fs::read_to_string(&path).expect("read JSONL back");
    std::fs::remove_file(&path).ok();

    let lines: Vec<Value> =
        text.lines().map(|l| serde_json::from_str(l).expect("every line is valid JSON")).collect();
    assert!(lines.len() > 1, "an instrumented run must emit metric lines");

    // Line 1 is the meta header carrying the pinned schema version.
    assert_eq!(keys(&lines[0]), vec!["type", "schema_version", "run"]);
    assert_eq!(lines[0]["schema_version"].as_u64(), Some(SCHEMA_VERSION));
    assert_eq!(SCHEMA_VERSION, 1, "schema changes must update this golden test");
    assert_eq!(lines[0]["run"].as_str(), Some("golden"));

    // Every line type carries exactly its pinned fields with pinned JSON types.
    for line in &lines[1..] {
        let t = line["type"].as_str().expect("type is a string");
        match t {
            "span" => {
                assert_eq!(keys(line), vec!["type", "name", "seq", "us"]);
                assert!(line["name"].as_str().is_some(), "span name is a string");
                assert!(line["seq"].as_u64().is_some(), "span seq is an integer");
                assert!(line["us"].as_f64().is_some(), "span us is a number");
            }
            "counter" => {
                assert_eq!(keys(line), vec!["type", "name", "value"]);
                assert!(line["value"].as_u64().is_some(), "counter value is an integer");
            }
            "gauge" => {
                assert_eq!(keys(line), vec!["type", "name", "value"]);
                assert!(line["value"].as_f64().is_some(), "gauge value is a number");
            }
            "histogram" => {
                assert_eq!(
                    keys(line),
                    vec![
                        "type", "name", "count", "sum", "min", "max", "p50", "p90",
                        "p99", "buckets"
                    ]
                );
                assert!(line["count"].as_u64().is_some());
                for f in ["sum", "min", "max", "p50", "p90", "p99"] {
                    assert!(line[f].as_f64().is_some(), "histogram {f} is a number");
                }
                let buckets = line["buckets"].as_array().expect("buckets is an array");
                for b in buckets {
                    let pair = b.as_array().expect("bucket is a [bound, count] pair");
                    assert_eq!(pair.len(), 2);
                    assert!(pair[0].as_f64().is_some(), "bucket bound is a number");
                    assert!(pair[1].as_u64().is_some(), "bucket count is an integer");
                }
            }
            other => panic!("unknown line type {other:?} — schema v1 has exactly meta/span/counter/gauge/histogram"),
        }
    }

    // The instrumented training loop emits the documented metric families.
    let names: Vec<&str> = lines[1..].iter().filter_map(|l| l["name"].as_str()).collect();
    for expected in [
        "trainer.sample_us",
        "trainer.decode_us",
        "trainer.evaluate_us",
        "trainer.update_us",
        "trainer.checkpoint_us",
        "trainer.checkpoints",
        "trainer.minibatches",
        "trainer.workers",
        "devsim.evals",
        "devsim.cache.hits",
        "devsim.cache.misses",
        "devsim.sim_us",
        "devsim.wall_clock_s",
        "rl.ppo.update_us",
        "rl.updates",
        "rl.grad_norm",
        "rl.entropy",
        "rl.loss",
    ] {
        assert!(names.contains(&expected), "missing metric {expected}");
    }
}

#[test]
fn disabled_recorder_writes_only_the_meta_line() {
    let path = std::env::temp_dir().join("eagle_telemetry_schema_disabled.jsonl");
    write_jsonl(&Recorder::disabled(), &path, "off").expect("write JSONL");
    let text = std::fs::read_to_string(&path).expect("read JSONL back");
    std::fs::remove_file(&path).ok();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 1);
    let meta: Value = serde_json::from_str(lines[0]).expect("meta parses");
    assert_eq!(meta["type"].as_str(), Some("meta"));
}
