//! Quickstart: place Inception-V3 on the paper's 4-GPU machine with EAGLE.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```
//!
//! Builds the calibrated Inception-V3 training graph, measures the two pre-defined
//! baselines, trains a small EAGLE agent with PPO for a few hundred samples, and
//! reports the best placement found — the Inception-V3 column of Table IV.

use eagle::core::{AgentScale, Algo, EagleAgent, GraphSource, Trainer, TrainerConfig};
use eagle::devsim::{predefined, Benchmark, Environment, Machine, MeasureConfig};
use eagle::tensor::Params;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn main() {
    let machine = Machine::paper_machine();
    let graph = Benchmark::InceptionV3.graph_for(&machine);
    println!(
        "Inception-V3 training graph: {} ops, {} edges, {:.1} GFLOP/step",
        graph.len(),
        graph.num_edges(),
        graph.total_flops() / 1e9
    );

    let mut env = Environment::builder(graph.clone(), machine.clone())
        .measure(MeasureConfig::default())
        .seed(1)
        .build()
        .expect("inception environment is valid");

    // Pre-defined baselines (paper Table IV: both 0.071 s).
    let single = env.evaluate_final(&predefined::single_gpu(&graph, &machine));
    println!("Single GPU   : {:.4} s/step", single.expect("fits one GPU"));
    let expert = predefined::human_expert(&graph, &machine)
        .and_then(|p| env.evaluate_final(&p))
        .expect("inception has an expert placement");
    println!("Human expert : {expert:.4} s/step");

    // Train EAGLE with PPO (paper hyper-parameters, reduced network scale).
    let mut params = Params::new();
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let agent = EagleAgent::new(&mut params, &graph, &machine, AgentScale::quick(), &mut rng);
    let cfg = TrainerConfig::paper(Algo::Ppo, 200);
    println!("training EAGLE (PPO) for {} placement samples...", cfg.total_samples);
    let trainer = Trainer::builder(GraphSource::fixed(graph.clone()), machine.clone())
        .config(cfg)
        .measure(MeasureConfig::default())
        .env_seed(1)
        .build()
        .expect("inception trainer config is valid");
    let result = trainer.train(&agent, &mut params).expect("training run succeeds");

    let best = result.final_step_time.expect("found a valid placement");
    println!(
        "EAGLE (PPO)  : {:.4} s/step after {} samples ({} invalid), simulated {:.1} h of measurement",
        best,
        result.samples,
        result.num_invalid,
        result.curve.wall_clock() / 3600.0
    );
    println!("=> EAGLE vs single GPU: {:+.1}%", (best / single.unwrap() - 1.0) * 100.0);
}
