//! A serving agent answers exactly as a fresh one.
//!
//! [`EagleAgent::for_params`] computes the policy's request-independent
//! forward once — the hard op-to-group assignment, the balance loss and the
//! placer's encoder pass — and a sampling forward or a decode given the very
//! tensors it was prepared from reads those values instead of recomputing
//! them. The contract under test, over tiny-scale agents on GraphGen graphs
//! and tiny GNMT: `best_of`, `sample_batch` and `decode_batch` through the
//! prepared agent give the bits a fresh `new_for_inference` agent gives; a
//! replay (`score_batch`) gives a fresh agent's values and gradients; and
//! under any other tensors — another store, or the same store after an
//! in-place `Adam::step_grads` — the prepared agent answers as a fresh agent
//! does under those values.
//!
//! `EAGLE_FUZZ_CASES` tunes the case count (default 64; the nightly job runs
//! 2000), as in `graph_fuzz.rs`.

use std::sync::OnceLock;

use eagle::core::infer::best_of;
use eagle::core::{AgentScale, EagleAgent, PlacementAgent};
use eagle::devsim::Machine;
use eagle::opgraph::{builders, GraphGen, GraphGenConfig, OpGraph};
use eagle::rl::{fork_streams, StochasticPolicy};
use eagle::tensor::{optim::Adam, Grads, Params, Tensor};
use proptest::prelude::*;
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

fn fuzz_cases() -> u32 {
    std::env::var("EAGLE_FUZZ_CASES").ok().and_then(|s| s.parse().ok()).unwrap_or(64)
}

/// Tiny GNMT and three small GraphGen graphs, training and forward-only.
fn corpus() -> &'static [OpGraph] {
    static CORPUS: OnceLock<Vec<OpGraph>> = OnceLock::new();
    CORPUS.get_or_init(|| {
        let gnmt = builders::try_gnmt(&builders::GnmtConfig::tiny()).expect("valid GNMT config");
        let generated = (0..3u64).map(|seed| {
            let cfg =
                GraphGenConfig { target_ops: 40, training: seed != 1, ..GraphGenConfig::default() };
            GraphGen::new(cfg).unwrap().sample(seed)
        });
        std::iter::once(gnmt).chain(generated).collect()
    })
}

/// Warm-started tiny-scale parameters for `graph`, seeded by `seed`.
fn trained(graph: &OpGraph, machine: &Machine, seed: u64) -> Params {
    let mut params = Params::new();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    EagleAgent::new(&mut params, graph, machine, AgentScale::tiny(), &mut rng);
    params
}

/// An agent with nothing prepared: the uncached oracle.
fn fresh(graph: &OpGraph, machine: &Machine) -> EagleAgent {
    let mut scratch = Params::new();
    let mut rng = ChaCha8Rng::seed_from_u64(0);
    EagleAgent::new_for_inference(&mut scratch, graph, machine, AgentScale::tiny(), &mut rng)
}

/// `best_of`, `sample_batch` over the draws' forked streams, and
/// `decode_batch` of the sampled actions: equal bits from both agents.
fn assert_same_answers(
    prepared: &EagleAgent,
    oracle: &EagleAgent,
    params: &Params,
    graph: &OpGraph,
    machine: &Machine,
    draws: &[(u64, usize)],
) {
    let got = best_of(prepared, params, graph, machine, draws);
    let want = best_of(oracle, params, graph, machine, draws);
    assert_eq!(got.len(), want.len());
    for (g, w) in got.iter().zip(&want) {
        assert_eq!(g.as_ref().map(|b| b.0.to_bits()), w.as_ref().map(|b| b.0.to_bits()));
        assert_eq!(g.as_ref().map(|b| &b.1), w.as_ref().map(|b| &b.1), "placements differ");
    }
    let sample = |agent: &EagleAgent| {
        let mut streams = Vec::new();
        for &(seed, candidates) in draws {
            let mut master = ChaCha8Rng::seed_from_u64(seed);
            streams.extend(fork_streams(&mut master, agent.rng_draws_per_sample(), candidates));
        }
        let mut refs: Vec<&mut dyn RngCore> =
            streams.iter_mut().map(|r| r as &mut dyn RngCore).collect();
        agent.sample_batch(params, &mut refs)
    };
    let (got, want) = (sample(prepared), sample(oracle));
    for ((ga, gl), (wa, wl)) in got.iter().zip(&want) {
        assert_eq!(ga, wa, "sampled actions differ");
        assert_eq!(gl.to_bits(), wl.to_bits(), "sampled log-probabilities differ");
    }
    let actions: Vec<Vec<usize>> = want.into_iter().map(|(a, _)| a).collect();
    assert_eq!(prepared.decode_batch(params, &actions), oracle.decode_batch(params, &actions));
}

/// One backward of the summed replay losses of `actions`: the log-prob,
/// entropy and aux bits of every episode, and the summed gradients.
fn replay(agent: &EagleAgent, params: &Params, actions: &[Vec<usize>]) -> (Vec<u32>, Grads) {
    let mut h = agent.score_batch(params, actions);
    let mut heads = Vec::new();
    let mut losses = Vec::new();
    for ep in h.episodes.clone() {
        let aux = ep.aux_loss.expect("EAGLE's balance loss");
        for v in [ep.log_prob, ep.entropy, aux] {
            heads.push(h.tape.value(v).item().to_bits());
        }
        let neg = h.tape.neg(ep.log_prob);
        losses.push(h.tape.add(neg, aux));
    }
    let loss = h.tape.add_n(&losses);
    let mut grads = Grads::for_params(params);
    h.tape.backward_into(loss, &mut grads);
    (heads, grads)
}

fn grad_bits(grads: &Grads, params: &Params) -> Vec<Vec<u32>> {
    let bits = |g: &Tensor| g.data().iter().map(|v| v.to_bits()).collect();
    params.ids().map(|id| grads.get(id).map_or_else(Vec::new, bits)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(fuzz_cases()))]

    #[test]
    fn a_prepared_agent_answers_as_a_fresh_one(
        g in 0..4usize,
        policy_seed in 0..1000u64,
        other_seed in 1000..2000u64,
        draws in proptest::collection::vec((any::<u64>(), 1..=8usize), 1..4),
    ) {
        let graph = &corpus()[g];
        let machine = Machine::paper_machine();
        let mut params = trained(graph, &machine, policy_seed);
        let prepared = EagleAgent::for_params(&params, graph, &machine, AgentScale::tiny())
            .expect("the layout the agent registers");
        let oracle = fresh(graph, &machine);
        prop_assert!(prepared.is_prepared_for(&params));
        prop_assert!(prepared.is_prepared_for(&params.clone()), "a clone shares every tensor");
        assert_same_answers(&prepared, &oracle, &params, graph, &machine, &draws);

        // A replay records the whole forward: a fresh agent's values and
        // gradients.
        let mut streams: Vec<ChaCha8Rng> =
            draws.iter().map(|&(seed, _)| ChaCha8Rng::seed_from_u64(seed)).collect();
        let mut refs: Vec<&mut dyn RngCore> =
            streams.iter_mut().map(|r| r as &mut dyn RngCore).collect();
        let sampled: Vec<Vec<usize>> =
            oracle.sample_batch(&params, &mut refs).into_iter().map(|(a, _)| a).collect();
        let (got_heads, got_grads) = replay(&prepared, &params, &sampled);
        let (want_heads, want_grads) = replay(&oracle, &params, &sampled);
        prop_assert_eq!(got_heads, want_heads);
        prop_assert_eq!(grad_bits(&got_grads, &params), grad_bits(&want_grads, &params));

        // Another store of the same layout.
        let other = trained(graph, &machine, other_seed);
        prop_assert!(!prepared.is_prepared_for(&other));
        assert_same_answers(&prepared, &oracle, &other, graph, &machine, &draws);

        // The same store after an in-place Adam step.
        Adam::new(0.01).step_grads(&mut params, &want_grads);
        prop_assert!(!prepared.is_prepared_for(&params), "a written store is another policy");
        assert_same_answers(&prepared, &oracle, &params, graph, &machine, &draws);
    }
}
