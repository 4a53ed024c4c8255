//! Generalist-trainer contracts: the held-out split and zero-shot probes.
//!
//! Two properties make "zero-shot makespan on held-out graphs" a trustworthy
//! number rather than a leaky one:
//!
//! 1. **Split hygiene** — property-tested over [`GraphSource`] configurations:
//!    the held-out origins never appear in the training stream, and the split
//!    is a pure function of the source configuration (re-building the same
//!    source yields the same split, independent of any training progress).
//! 2. **Probe purity** — enabling probes must not perturb training: curve
//!    points, counters, and final parameters are bit-identical with probes on
//!    and off. Probes draw from their own seeded RNG, never the training
//!    stream's.

use eagle::core::{AgentScale, Algo, EagleAgent, GraphSource, TrainResult, Trainer, TrainerConfig};
use eagle::devsim::{Machine, MeasureConfig};
use eagle::obs::Recorder;
use eagle::opgraph::{GraphGenConfig, OpGraph, OpKind, OpNode, Phase};
use eagle::tensor::Params;
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// A minimal two-op graph for roster sources; `name` keeps entries distinct.
fn tiny_graph(name: &str) -> OpGraph {
    let mut g = OpGraph::new(name);
    let a = g.add_node(OpNode::new("a", OpKind::MatMul, Phase::Forward));
    let b = g.add_node(OpNode::new("b", OpKind::Softmax, Phase::Forward));
    g.add_edge(a, b);
    g
}

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
        let mut cursor = source.initial_cursor();
        for _ in 0..draws {
            let origin = source.draw_train(&mut cursor, holdout);
            prop_assert!(
                !held.contains(&origin),
                "training origin {:?} collides with the holdout", origin
            );
        }
    }

    /// Roster sources (uniform and weighted): the holdout is the roster tail,
    /// and training draws stay strictly inside the head.
    #[test]
    fn roster_holdout_is_disjoint_and_deterministic(
        len in 2usize..8,
        holdout_frac in 1usize..4,
        weighted in any::<bool>(),
        seed in any::<u64>(),
        draws in 1usize..32,
    ) {
        let holdout = holdout_frac.min(len - 1);
        let source = if weighted {
            let graphs = (0..len)
                .map(|i| (format!("g{i}"), tiny_graph(&format!("g{i}")), 1.0 + i as f64))
                .collect();
            GraphSource::weighted(graphs, seed).expect("valid weighted roster")
        } else {
            let graphs =
                (0..len).map(|i| (format!("g{i}"), tiny_graph(&format!("g{i}")))).collect();
            GraphSource::roster(graphs).expect("valid roster")
        };
        let held = source.holdout_origins(holdout);
        prop_assert_eq!(held.len(), holdout);
        prop_assert_eq!(&held, &source.holdout_origins(holdout), "split must be stable");
        let mut cursor = source.initial_cursor();
        for _ in 0..draws {
            let origin = source.draw_train(&mut cursor, holdout);
            prop_assert!(
                !held.contains(&origin),
                "training origin {:?} collides with the holdout", origin
            );
        }
    }
}

/// One short generalist run over a GraphGen distribution, probes on or off.
/// Everything else — seeds, config, agent initialization — is held fixed.
fn run_generalist(probes: bool, recorder: Recorder) -> (TrainResult, Params) {
    let machine = Machine::paper_machine();
    let source = GraphSource::generated(GraphGenConfig::with_target(48), 12)
        .expect("valid generated source");
    let seed_graph = source.build(&source.holdout_origins(1)[0]);
    let mut params = Params::new();
    let mut rng = ChaCha8Rng::seed_from_u64(6);
    let agent = EagleAgent::new(&mut params, &seed_graph, &machine, AgentScale::tiny(), &mut rng);
    let mut builder = Trainer::builder(source, machine)
        .config(TrainerConfig::paper(Algo::Ppo, 30))
        .measure(MeasureConfig::default())
        .env_seed(9)
        .holdout(1)
        .recorder(recorder);
    if probes {
        builder = builder.probe_every(2).probe_candidates(2);
    }
    let trainer = builder.build().expect("valid generalist trainer config");
    let result = trainer.train(&agent, &mut params).expect("training run succeeds");
    (result, params)
}

/// Probes are observation-only: the training trajectory with probes enabled
/// is bit-identical to the same run without them.
#[test]
fn zero_shot_probes_do_not_perturb_training() {
    let (with_rec, without_rec) = (Recorder::new(), Recorder::new());
    let (with, with_params) = run_generalist(true, with_rec.clone());
    let (without, without_params) = run_generalist(false, without_rec.clone());

    assert!(!with.curve.probes.is_empty(), "probes were requested every 2 samples");
    assert!(without.curve.probes.is_empty(), "no probes were requested");

    // Bit-identical curve points — not a ULP budget: the two runs execute the
    // same float operations in the same order, probes merely interleave reads.
    assert_eq!(with.curve.points, without.curve.points, "probes perturbed the training curve");
    assert_eq!(with.samples, without.samples);
    assert_eq!(with.num_invalid, without.num_invalid);
    let hits = |r: &Recorder| r.counter_value("devsim.cache.hits");
    assert_eq!(hits(&with_rec), hits(&without_rec));

    // And the trained policy itself matches bit-for-bit.
    assert_eq!(with_params.len(), without_params.len());
    for id in with_params.ids() {
        assert_eq!(
            with_params.get(id).data(),
            without_params.get(id).data(),
            "param {} diverged when probes were enabled",
            with_params.name(id)
        );
    }

    // The probe stream itself is well-formed: sample indices are multiples of
    // the probe interval and every probe names the held-out graph.
    let held_name = {
        let source = GraphSource::generated(GraphGenConfig::with_target(48), 12).unwrap();
        source.name(&source.holdout_origins(1)[0])
    };
    for p in &with.curve.probes {
        assert_eq!(p.graph, held_name);
        assert_eq!(p.sample % 2, 0, "probe at sample {} is off the interval", p.sample);
    }
}
