//! Integration tests of configuration plumbing: trainer knobs, scales, and curve
//! export behave coherently through the public API.

use eagle::core::{AgentScale, Algo, Curve, EagleAgent, GraphSource, Trainer, TrainerConfig};
use eagle::devsim::{Benchmark, Machine, MeasureConfig};
use eagle::rl::RewardTransform;
use eagle::tensor::Params;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn quick_run(mutate: impl FnOnce(&mut TrainerConfig)) -> eagle::core::TrainResult {
    let machine = Machine::paper_machine();
    let graph = Benchmark::InceptionV3.graph_for(&machine);
    let mut params = Params::new();
    let mut rng = ChaCha8Rng::seed_from_u64(8);
    let agent = EagleAgent::new(&mut params, &graph, &machine, AgentScale::tiny(), &mut rng);
    let mut cfg = TrainerConfig::paper(Algo::Ppo, 30);
    mutate(&mut cfg);
    let trainer = Trainer::builder(GraphSource::fixed(graph.clone()), machine.clone())
        .config(cfg)
        .measure(MeasureConfig::default())
        .env_seed(8)
        .build()
        .expect("inception trainer config is valid");
    trainer.train(&agent, &mut params).expect("training run succeeds")
}

#[test]
fn reward_transform_is_pluggable() {
    for tr in [RewardTransform::NegSqrt, RewardTransform::NegLinear, RewardTransform::NegLog] {
        let r = quick_run(|c| c.reward = tr);
        assert!(r.final_step_time.is_some(), "{tr:?} must still find placements");
    }
}

#[test]
fn baseline_and_normalization_toggles_run() {
    for (b, n) in [(false, false), (true, false), (false, true)] {
        let r = quick_run(|c| {
            c.use_baseline = b;
            c.normalize_adv = n;
        });
        assert_eq!(r.samples, 30);
    }
}

#[test]
fn curve_csv_exports_parse_back() {
    let r = quick_run(|_| {});
    let csv = Curve::multi_csv(std::slice::from_ref(&r.curve));
    let lines: Vec<&str> = csv.lines().collect();
    assert_eq!(lines.len(), 31, "header + one line per sample");
    for line in &lines[1..] {
        let fields: Vec<&str> = line.split(',').collect();
        assert_eq!(fields.len(), 5);
        assert_eq!(fields[0], r.curve.label);
        let _: u64 = fields[1].parse().expect("sample index");
        let _: f64 = fields[2].parse().expect("wall clock");
    }
    // JSON roundtrip of the curve.
    let j = serde_json::to_string(&r.curve).unwrap();
    let c2: Curve = serde_json::from_str(&j).unwrap();
    assert_eq!(c2.points.len(), r.curve.points.len());
}

#[test]
fn paper_scale_constructs_all_agents() {
    // The paper configuration (256 groups, 512-unit LSTMs) must at least
    // construct and sample on the real BERT graph — the expensive path users hit
    // with `--scale paper`.
    use eagle::rl::StochasticPolicy;
    let machine = Machine::paper_machine();
    let graph = Benchmark::BertBase.graph_for(&machine);
    let mut params = Params::new();
    let mut rng = ChaCha8Rng::seed_from_u64(9);
    let agent = EagleAgent::new(&mut params, &graph, &machine, AgentScale::paper(), &mut rng);
    assert_eq!(agent.num_groups(), 256);
    let (actions, logp) = agent.sample_batch(&params, &mut [&mut rng]).remove(0);
    assert_eq!(actions.len(), 256);
    assert!(logp.is_finite());
    let placement =
        eagle::core::PlacementAgent::decode_batch(&agent, &params, &[actions]).remove(0);
    assert_eq!(placement.len(), graph.len());
}

#[test]
fn sample_budget_is_exact_even_with_partial_batches() {
    let r = quick_run(|c| c.total_samples = 27); // not a multiple of minibatch 10
    assert_eq!(r.samples, 27);
    assert_eq!(r.curve.points.len(), 27);
}
