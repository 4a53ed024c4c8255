//! Cross-commit witness for the PPO update path: every parameter bit after
//! `EagleAgent::new` plus a few `Ppo::update`s, at the two shapes the
//! benchmark's training workloads run. The hashes were computed at the commit
//! *before* the backward pass stopped materializing transposes and zero
//! tensors; a kernel, VJP or deposit-order change that moves one float of one
//! gradient moves them.

use eagle::core::{fnv1a64, AgentScale, EagleAgent};
use eagle::devsim::{Benchmark, Machine};
use eagle::rl::{fork_streams, OptimConfig, Ppo, StochasticPolicy, TrainSample};
use eagle::tensor::Params;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

const MINIBATCH: usize = 10;

/// FNV-1a-64 over every parameter value (little-endian f32 bits, id order).
fn params_hash(params: &Params) -> u64 {
    let bytes: Vec<u8> = params
        .ids()
        .flat_map(|id| params.get(id).data().iter().flat_map(|v| v.to_bits().to_le_bytes()))
        .collect();
    fnv1a64(&bytes)
}

/// `EagleAgent::new` (seed 7), then `updates` PPO updates on batches sampled
/// from fixed streams with a fixed advantage pattern (both signs, so the
/// clipped and unclipped surrogate branches are both taken over the epochs).
fn run(bench: Benchmark, scale: AgentScale, epochs: usize, updates: usize) -> u64 {
    let machine = Machine::paper_machine();
    let graph = bench.graph_for(&machine);
    let mut params = Params::new();
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let agent = EagleAgent::new(&mut params, &graph, &machine, scale, &mut rng);
    let mut ppo = Ppo::new(OptimConfig::default(), 0.3, epochs);
    let mut master = ChaCha8Rng::seed_from_u64(11);
    for u in 0..updates {
        let mut streams = fork_streams(&mut master, agent.rng_draws_per_sample(), MINIBATCH);
        let mut refs: Vec<&mut dyn rand::RngCore> =
            streams.iter_mut().map(|s| s as &mut dyn rand::RngCore).collect();
        let batch: Vec<TrainSample> = agent
            .sample_batch(&params, &mut refs)
            .into_iter()
            .enumerate()
            .map(|(i, (actions, old_log_prob))| TrainSample {
                actions,
                old_log_prob,
                advantage: ((i * 7 + u * 3) % MINIBATCH) as f32 / 3.0 - 1.5,
            })
            .collect();
        ppo.update(&agent, &mut params, &batch);
    }
    params_hash(&params)
}

#[test]
fn ppo_updates_are_pinned_across_commits_and_worker_counts() {
    let paper8 = AgentScale { num_groups: 8, ..AgentScale::paper() };
    for workers in [1, 2] {
        eagle::obs::set_available_workers(workers);
        // `train_gnmt`'s shape: quick scale on GNMT, 4 epochs.
        let gnmt = run(Benchmark::Gnmt, AgentScale::quick(), 4, 3);
        // `paper_step`'s shape: the paper's widths, 8 groups, on Inception-V3, 1 epoch.
        let inception = run(Benchmark::InceptionV3, paper8, 1, 2);
        eagle::obs::set_available_workers(0);
        assert_eq!(
            (gnmt, inception),
            (0x77ce_0f6a_11bd_4ccc, 0x1808_8b23_5997_57bd),
            "{workers} workers: GNMT quick {gnmt:#018x}, Inception paper-8 {inception:#018x}"
        );
    }
}
