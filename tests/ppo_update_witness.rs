//! Cross-commit witness for the PPO update path: every parameter bit after
//! `EagleAgent::new` plus a few `Ppo::update`s, at the two shapes the
//! benchmark's training workloads run. The hashes were computed at the commit
//! *before* the backward pass stopped materializing transposes and zero
//! tensors; a kernel, VJP or deposit-order change that moves one float of one
//! gradient moves them.
//!
//! The tiny cases below it hold the policy paths the benchmark never runs —
//! distinct placer inputs and attention after the decoder (Hierarchical
//! Planner), the three other fixed-grouping placers, and a batch of one —
//! with hashes computed at the commit *before* batch-of-one and shared-input
//! stopped being separate code paths in `eagle-nn`.

use eagle::core::{fnv1a64, AgentScale, EagleAgent, FixedGroupAgent, HpAgent, PlacerKind};
use eagle::devsim::{Benchmark, Machine};
use eagle::opgraph::builders;
use eagle::partition::{metis_like::MetisLike, Partitioner};
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

/// `updates` PPO updates of `agent` on `minibatch`-sample batches drawn from
/// fixed streams with a fixed advantage pattern (both signs, so the clipped
/// and unclipped surrogate branches are both taken over the epochs).
fn run_updates(
    agent: &impl StochasticPolicy,
    mut params: Params,
    epochs: usize,
    updates: usize,
    minibatch: usize,
) -> u64 {
    let mut ppo = Ppo::new(OptimConfig::default(), 0.3, epochs);
    let mut master = ChaCha8Rng::seed_from_u64(11);
    for u in 0..updates {
        let mut streams = fork_streams(&mut master, agent.rng_draws_per_sample(), minibatch);
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
        ppo.update(agent, &mut params, &batch);
    }
    params_hash(&params)
}

/// `EagleAgent::new` (seed 7), then `updates` PPO updates on full minibatches.
fn run(bench: Benchmark, scale: AgentScale, epochs: usize, updates: usize) -> u64 {
    let machine = Machine::paper_machine();
    let graph = bench.graph_for(&machine);
    let mut params = Params::new();
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let agent = EagleAgent::new(&mut params, &graph, &machine, scale, &mut rng);
    run_updates(&agent, params, epochs, updates, MINIBATCH)
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

#[test]
fn paths_off_the_benchmark_are_pinned_across_commits() {
    let machine = Machine::paper_machine();
    let graph = builders::try_gnmt(&builders::GnmtConfig::tiny()).expect("valid GNMT config");
    let scale = AgentScale::tiny();
    // Every agent: built from seed 7, then 3 updates of 4 epochs.
    let fresh = || (Params::new(), ChaCha8Rng::seed_from_u64(7));
    let fixed = |kind: PlacerKind| {
        let (mut params, mut rng) = fresh();
        let k = scale.num_groups;
        let group_of = MetisLike::default().partition(&graph, k);
        let agent = FixedGroupAgent::new(
            &mut params,
            "fixed",
            &graph,
            &machine,
            group_of,
            k,
            kind,
            scale,
            &mut rng,
        );
        run_updates(&agent, params, 4, 3, MINIBATCH)
    };
    let (mut params, mut rng) = fresh();
    let hp = HpAgent::new(&mut params, &graph, &machine, scale, &mut rng);
    let hp = run_updates(&hp, params, 4, 3, MINIBATCH);
    let (mut params, mut rng) = fresh();
    let eagle = EagleAgent::new(&mut params, &graph, &machine, scale, &mut rng);
    let got = [
        ("Hierarchical Planner (distinct inputs, attention after)", hp),
        ("fixed groups + Seq2Seq(after)", fixed(PlacerKind::Seq2SeqAfter)),
        ("fixed groups + GCN", fixed(PlacerKind::Gcn)),
        ("fixed groups + Simple", fixed(PlacerKind::Simple)),
        ("EAGLE, batches of one", run_updates(&eagle, params, 4, 3, 1)),
    ];
    let pinned: [u64; 5] = [
        0x8437_f76d_8cd6_63d6,
        0x95e3_1cf0_0837_5bbe,
        0xb19b_38e8_3fb0_239c,
        0x1b2e_82a6_8eaa_e3e0,
        0xacec_524f_bed3_737b,
    ];
    let report: Vec<String> =
        got.iter().map(|(what, hash)| format!("{what}: {hash:#018x}")).collect();
    assert_eq!(got.map(|(_, hash)| hash), pinned, "{report:#?}");
}
