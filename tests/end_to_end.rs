//! End-to-end training runs through the public API of the umbrella crate: every
//! agent kind trains on a calibrated benchmark graph, finds a valid placement, and
//! behaves deterministically under a fixed seed.

use eagle::core::{
    AgentScale, Algo, EagleAgent, FixedGroupAgent, GraphSource, HpAgent, PlacerKind, Trainer,
    TrainerConfig,
};
use eagle::devsim::{Benchmark, Machine, MeasureConfig};
use eagle::obs::Recorder;
use eagle::partition::{metis_like::MetisLike, Partitioner};
use eagle::tensor::Params;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn inception_trainer(seed: u64, cfg: TrainerConfig) -> (eagle::opgraph::OpGraph, Machine, Trainer) {
    recorded_inception_trainer(seed, cfg, Recorder::disabled())
}

fn recorded_inception_trainer(
    seed: u64,
    cfg: TrainerConfig,
    recorder: Recorder,
) -> (eagle::opgraph::OpGraph, Machine, Trainer) {
    let machine = Machine::paper_machine();
    let graph = Benchmark::InceptionV3.graph_for(&machine);
    let trainer = Trainer::builder(GraphSource::fixed(graph.clone()), machine.clone())
        .config(cfg)
        .measure(MeasureConfig::default())
        .env_seed(seed)
        .recorder(recorder)
        .build()
        .expect("inception trainer config is valid");
    (graph, machine, trainer)
}

#[test]
fn eagle_trains_on_calibrated_inception() {
    let (graph, machine, trainer) = inception_trainer(1, TrainerConfig::paper(Algo::Ppo, 60));
    let mut params = Params::new();
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    let agent = EagleAgent::new(&mut params, &graph, &machine, AgentScale::tiny(), &mut rng);
    let result = trainer.train(&agent, &mut params).expect("training run succeeds");
    let t = result.final_step_time.expect("valid placement found");
    // Single GPU is calibrated to 0.071; anything within 3x certifies the agent is
    // producing sane placements (random scatter costs ~0.3s+).
    assert!(t < 0.21, "per-step time {t} too far from the single-GPU band");
    assert_eq!(result.curve.points.len(), 60);
}

#[test]
fn hp_trains_and_reports_grouping_actions() {
    let (graph, machine, trainer) = inception_trainer(2, TrainerConfig::paper(Algo::Ppo, 30));
    let mut params = Params::new();
    let mut rng = ChaCha8Rng::seed_from_u64(2);
    let agent = HpAgent::new(&mut params, &graph, &machine, AgentScale::tiny(), &mut rng);
    let result = trainer.train(&agent, &mut params).expect("training run succeeds");
    assert!(result.final_step_time.is_some());
    assert_eq!(result.samples, 30);
}

#[test]
fn post_trains_with_ppo_ce() {
    let mut cfg = TrainerConfig::paper(Algo::PpoCe, 60);
    cfg.ce_interval = 20;
    let (graph, machine, trainer) = inception_trainer(3, cfg);
    let mut params = Params::new();
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    let k = AgentScale::tiny().num_groups;
    let group_of = MetisLike::default().partition(&graph, k);
    let agent = FixedGroupAgent::post(
        &mut params,
        &graph,
        &machine,
        group_of,
        k,
        AgentScale::tiny(),
        &mut rng,
    );
    let result = trainer.train(&agent, &mut params).expect("training run succeeds");
    assert!(result.final_step_time.is_some());
}

#[test]
fn fixed_group_agent_with_gcn_placer_trains() {
    let (graph, machine, trainer) = inception_trainer(4, TrainerConfig::paper(Algo::Ppo, 30));
    let mut params = Params::new();
    let mut rng = ChaCha8Rng::seed_from_u64(4);
    let k = AgentScale::tiny().num_groups;
    let group_of = MetisLike::default().partition(&graph, k);
    let agent = FixedGroupAgent::new(
        &mut params,
        "gcn",
        &graph,
        &machine,
        group_of,
        k,
        PlacerKind::Gcn,
        AgentScale::tiny(),
        &mut rng,
    );
    let result = trainer.train(&agent, &mut params).expect("training run succeeds");
    assert!(result.final_step_time.is_some());
}

#[test]
fn training_is_deterministic_for_fixed_seeds() {
    let run = || {
        let (graph, machine, trainer) = inception_trainer(5, TrainerConfig::paper(Algo::Ppo, 30));
        let mut params = Params::new();
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let agent = EagleAgent::new(&mut params, &graph, &machine, AgentScale::tiny(), &mut rng);
        let result = trainer.train(&agent, &mut params).expect("training run succeeds");
        (result.final_step_time, result.num_invalid, result.curve.points.last().unwrap().wall_clock)
    };
    assert_eq!(run(), run(), "same seeds must reproduce bit-identical runs");
}

#[test]
fn eagle_curve_tracks_environment_bookkeeping() {
    let recorder = Recorder::new();
    let (graph, machine, trainer) =
        recorded_inception_trainer(6, TrainerConfig::paper(Algo::Ppo, 40), recorder.clone());
    let mut params = Params::new();
    let mut rng = ChaCha8Rng::seed_from_u64(6);
    let agent = EagleAgent::new(&mut params, &graph, &machine, AgentScale::tiny(), &mut rng);
    let result = trainer.train(&agent, &mut params).expect("training run succeeds");
    // One eval per training sample, all visible through the run telemetry.
    assert_eq!(recorder.counter_value("devsim.evals"), 40);
    assert!(result.curve.wall_clock() > 0.0);
    assert_eq!(result.curve.num_invalid(), result.num_invalid);
}
