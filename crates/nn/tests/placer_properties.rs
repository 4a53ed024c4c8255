//! Property-based tests of the placer networks: probabilistic invariants that must
//! hold for arbitrary embeddings, sizes and seeds.
//!
//! `EAGLE_ORACLE_CASES` sets the case count per property (12 by default, the
//! PR-gating slice; the nightly job runs 10000).

use eagle_nn::{normalize_adjacency, AttentionMode, Placer};
use eagle_opgraph::{OpGraph, OpKind, OpNode, Phase};
use eagle_rl::Draws;
use eagle_tensor::{init, Params, Tape, Tensor};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn cases() -> u32 {
    std::env::var("EAGLE_ORACLE_CASES").ok().and_then(|s| s.parse().ok()).unwrap_or(12)
}

fn embeddings(k: usize, d: usize, seed: u64) -> Tensor {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    init::uniform(k, d, 1.0, &mut rng)
}

/// The row-normalized adjacency of a `k`-group chain `0 - 1 - … - k-1`.
fn chain_adjacency(k: usize) -> Tensor {
    let mut g = OpGraph::new("chain");
    let ops: Vec<_> = (0..k)
        .map(|i| g.add_node(OpNode::new(format!("op{i}"), OpKind::MatMul, Phase::Forward)))
        .collect();
    for w in ops.windows(2) {
        g.add_edge(w[0], w[1]);
    }
    normalize_adjacency(&g, &(0..k).collect::<Vec<_>>(), k)
}

fn check_placer(placer: &Placer, params: &Params, x: &Tensor, nd: usize, seed: u64) {
    let k = x.rows();
    // Sample.
    let mut tape = Tape::new();
    let xv = tape.leaf(x.clone());
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let out =
        placer.forward_batch(&mut tape, params, &[xv], Draws::Sample(&mut [&mut rng])).remove(0);
    assert_eq!(out.actions.len(), k);
    assert!(out.actions.iter().all(|&a| a < nd));
    let logp = tape.value(out.log_prob).item();
    assert!(logp <= 0.0 && logp.is_finite(), "joint log-prob in (-inf, 0]: {logp}");
    // Per-step log-probs sum to the joint (in another summation order).
    let sum: f32 = tape.value(out.step_log_probs).data().iter().sum();
    assert!((sum - logp).abs() < 1e-3);
    // Entropy within [0, ln nd].
    let ent = tape.value(out.entropy).item();
    assert!(ent >= -1e-5 && ent <= (nd as f32).ln() + 1e-4, "entropy {ent}");
    // Teacher-forcing the sampled actions reproduces the joint log-prob.
    let mut tape2 = Tape::new();
    let xv2 = tape2.leaf(x.clone());
    let replay = Draws::Replay(&[&out.actions]);
    let out2 = placer.forward_batch(&mut tape2, params, &[xv2], replay).remove(0);
    assert_eq!(out2.actions, out.actions);
    assert_eq!(tape2.value(out2.log_prob).item().to_bits(), logp.to_bits());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    #[test]
    fn seq2seq_invariants(k in 1usize..8, nd in 2usize..6, seed in 0u64..300, before in any::<bool>()) {
        let d = 5;
        let mut params = Params::new();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mode = if before { AttentionMode::Before } else { AttentionMode::After };
        let placer = Placer::seq2seq(&mut params, "p", d, 10, 6, nd, mode, &mut rng);
        let x = embeddings(k, d, seed + 1);
        check_placer(&placer, &params, &x, nd, seed + 2);
    }

    #[test]
    fn gcn_invariants(k in 1usize..8, nd in 2usize..6, seed in 0u64..300) {
        let d = 5;
        let mut params = Params::new();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let placer = Placer::gcn(&mut params, "g", d, 8, nd, chain_adjacency(k), &mut rng);
        let x = embeddings(k, d, seed + 1);
        check_placer(&placer, &params, &x, nd, seed + 2);
    }

    #[test]
    fn simple_invariants(k in 1usize..10, nd in 2usize..6, seed in 0u64..300) {
        let d = 5;
        let mut params = Params::new();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let placer = Placer::mlp(&mut params, "s", d, 8, nd, &mut rng);
        let x = embeddings(k, d, seed + 1);
        check_placer(&placer, &params, &x, nd, seed + 2);
    }
}
