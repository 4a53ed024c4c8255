//! Generalist-trainer contracts: the held-out split and the training draws.
//!
//! 1. **Split hygiene** — property-tested over generated [`GraphSource`]s:
//!    the held-out origins never appear in the training stream, and the split
//!    is a pure function of the source configuration (re-building the same
//!    source yields the same split, independent of any training progress).
//!    This is what makes `transfer`'s zero-shot makespan on held-out graphs a
//!    trustworthy number rather than a leaky one.
//! 2. **Replayable draws** — [`GraphSource::train_draws`] names the graphs a
//!    run trained on, also those its environment pool has since evicted.

use std::collections::HashSet;

use eagle::core::{AgentScale, Algo, EagleAgent, GraphSource, Trainer, TrainerConfig};
use eagle::devsim::{Machine, MeasureConfig};
use eagle::obs::Recorder;
use eagle::opgraph::GraphGenConfig;
use eagle::tensor::Params;
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

proptest! {
    /// Generated sources: holdout origins are seed-deterministic and no
    /// training draw ever collides with one (training seeds are even, holdout
    /// seeds odd — but the test asserts the *behavior*, not the encoding).
    #[test]
    fn generated_holdout_is_disjoint_and_deterministic(
        seed in any::<u64>(),
        target in 8usize..64,
        holdout in 1usize..5,
        draws in 1usize..64,
    ) {
        let cfg = GraphGenConfig::with_target(target);
        let source = GraphSource::generated(cfg.clone(), seed).expect("valid generator config");
        let held = source.holdout_origins(holdout);
        prop_assert_eq!(held.len(), holdout);

        // Pure function of the configuration: an identically-built source
        // (fresh cursor, no training history) produces the identical split.
        let rebuilt = GraphSource::generated(cfg, seed).expect("valid generator config");
        prop_assert_eq!(&held, &rebuilt.holdout_origins(holdout));

        // Disjoint: the training stream never leaks a held-out graph.
        for origin in source.train_draws(draws) {
            prop_assert!(
                !held.contains(&origin),
                "training origin {:?} collides with the holdout", origin
            );
        }
    }
}

/// A run that draws more graphs than the trainer's environment pool holds:
/// [`GraphSource::train_draws`] names every graph it trained on, one per
/// minibatch, while the pool keeps only the latest ones (oldest first) and
/// counts the rest as evictions.
#[test]
fn train_draws_name_every_graph_of_a_run_that_outgrows_the_pool() {
    const DRAWS: usize = 20;
    let make_source = || {
        GraphSource::generated(GraphGenConfig::with_target(48), 12).expect("valid generated source")
    };
    let source = make_source();
    let drawn = source.train_draws(DRAWS);
    let distinct: HashSet<_> = drawn.iter().collect();
    assert_eq!(distinct.len(), DRAWS, "every generated draw is a new graph");

    let machine = Machine::paper_machine();
    let seed_graph = source.build(&source.holdout_origins(1)[0]);
    let mut params = Params::new();
    let mut rng = ChaCha8Rng::seed_from_u64(6);
    let agent = EagleAgent::new(&mut params, &seed_graph, &machine, AgentScale::tiny(), &mut rng);
    let mut cfg = TrainerConfig::paper(Algo::Ppo, DRAWS);
    cfg.minibatch = 1;
    let recorder = Recorder::new();
    let result = Trainer::builder(make_source(), machine)
        .config(cfg)
        .measure(MeasureConfig::default())
        .env_seed(9)
        .recorder(recorder.clone())
        .build()
        .expect("valid generalist trainer config")
        .train(&agent, &mut params)
        .expect("training run succeeds");

    let resident: Vec<_> = result.graphs.iter().map(|g| g.origin).collect();
    assert!(resident.len() < DRAWS, "the pool must be outgrown");
    assert_eq!(resident, drawn[DRAWS - resident.len()..]);
    let evictions = recorder.counter_value("trainer.pool_evictions") as usize;
    assert_eq!(evictions, DRAWS - resident.len());
}
