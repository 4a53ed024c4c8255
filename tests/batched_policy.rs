//! The batched policy API's central contract: an episode's outcome does not
//! depend on its batch-mates. `sample_batch`, `score_batch` and `decode_batch`
//! over a batch of `B` are *bit-identical* to `B` batch-of-one calls, for every
//! agent, batch size, and seed — actions, log-probabilities, entropies,
//! auxiliary losses, decoded placements, and accumulated gradients all match
//! exactly. And sampling is scoring: the forward that draws a minibatch records
//! as many tape nodes, and the same heads to the bit, as the forward that
//! replays its actions. (Training
//! determinism across worker counts and wave-mate-independent serving rely on
//! exactly this; the seq2seq decode is additionally held to a hand-written
//! serial oracle in `eagle_nn`'s unit tests.) On top of the per-call equivalence, a full training run through
//! the batched trainer must stay identical across worker counts and
//! checkpoint resumes, curve floats included, to the bit.
//!
//! The *single-backward* update path (sum per-episode losses with `add_n`,
//! traverse the shared tape once) is a genuine float reordering relative to
//! the per-episode backward loop, so its gradients are compared under the
//! mixed absolute/relative tolerance `assert_grad_close` rather than
//! bitwise — see `tests/common` for the tolerance policy.

use eagle::core::{
    AgentScale, Algo, EagleAgent, FixedGroupAgent, GraphSource, HpAgent, PlacementAgent,
    PlacerKind, Trainer, TrainerConfig, CHECKPOINT_FILE,
};
use eagle::devsim::{Machine, MeasureConfig};
use eagle::opgraph::{builders, OpGraph};
use eagle::rl::{fork_streams, BatchScoreHandle, Draws, EpisodeScore};
use eagle::tensor::{Grads, ParamId, Params, Tensor};
use proptest::prelude::*;
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

mod common;
use common::{assert_grad_close, assert_same_curve, assert_same_opt_f64};

/// Cases per property: `EAGLE_ORACLE_CASES`, 6 by default (the PR-gating
/// slice; the nightly job runs 10000).
fn cases() -> u32 {
    std::env::var("EAGLE_ORACLE_CASES").ok().and_then(|s| s.parse().ok()).unwrap_or(6)
}

/// A parameter's gradient; empty when no backward pass reached it.
fn grad_data(grads: &Grads, id: ParamId) -> &[f32] {
    grads.get(id).map_or(&[][..], Tensor::data)
}

fn tiny_graph() -> OpGraph {
    builders::try_gnmt(&builders::GnmtConfig::tiny()).expect("valid GNMT config")
}

/// `bsz` per-episode streams forked off a master seeded with `seed`, and the
/// master past all of them.
fn forked(agent: &impl PlacementAgent, seed: u64, bsz: usize) -> (Vec<ChaCha8Rng>, ChaCha8Rng) {
    let mut master = ChaCha8Rng::seed_from_u64(seed);
    let streams = fork_streams(&mut master, agent.rng_draws_per_sample(), bsz);
    (streams, master)
}

/// Asserts the three batched methods at batch size `bsz` reproduce `bsz`
/// batch-of-one calls bit-for-bit for one agent, and that the sampling
/// forward is the scoring forward.
fn assert_batched_matches_serial(
    agent: &impl PlacementAgent,
    params: &Params,
    bsz: usize,
    seed: u64,
) {
    // --- sample: a serial loop of batch-of-one calls over one master RNG...
    let mut serial_rng = ChaCha8Rng::seed_from_u64(seed);
    let serial: Vec<(Vec<usize>, f32)> =
        (0..bsz).flat_map(|_| agent.sample_batch(params, &mut [&mut serial_rng])).collect();

    // ...versus one batched call over forked per-episode streams.
    let (mut streams, mut master) = forked(agent, seed, bsz);
    let mut refs: Vec<&mut dyn RngCore> =
        streams.iter_mut().map(|r| r as &mut dyn RngCore).collect();
    let batched = agent.sample_batch(params, &mut refs);

    assert_eq!(batched.len(), bsz);
    for (b, ((sa, slp), (ba, blp))) in serial.iter().zip(&batched).enumerate() {
        assert_eq!(sa, ba, "episode {b}: actions diverge");
        assert_eq!(slp.to_bits(), blp.to_bits(), "episode {b}: log-prob diverges");
    }
    // The master RNG must end where the serial loop left its RNG, so
    // checkpointed RNG accounting is oblivious to batching.
    assert_eq!(master.next_u32(), serial_rng.next_u32(), "master RNG position diverges");

    // --- decode
    let actions: Vec<Vec<usize>> = batched.into_iter().map(|(a, _)| a).collect();
    let placements = agent.decode_batch(params, &actions);
    assert_eq!(placements.len(), bsz);
    for (a, p) in actions.iter().zip(&placements) {
        let one = agent.decode_batch(params, std::slice::from_ref(a));
        assert_eq!(one, std::slice::from_ref(p), "decode_batch diverges from a batch of one");
    }

    // --- score: per-episode heads on the shared tape...
    let mut h = agent.score_batch(params, &actions);
    assert_eq!(h.episodes.len(), bsz);
    for (a, ep) in actions.iter().zip(h.episodes.clone()) {
        let ref_h = agent.score_batch(params, std::slice::from_ref(a));
        assert_same_heads(&h, ep, &ref_h, ref_h.episodes[0], "scored");
    }

    // --- sampling is scoring: the forward that draws the actions records the
    // replaying forward's nodes and heads.
    let (mut streams, _) = forked(agent, seed, bsz);
    let mut refs: Vec<&mut dyn RngCore> =
        streams.iter_mut().map(|r| r as &mut dyn RngCore).collect();
    let (drawn_h, drawn) = agent.forward_batch(params, Draws::Sample(&mut refs));
    assert_eq!(drawn, actions, "the sampling forward draws sample_batch's actions");
    assert_eq!(drawn_h.tape.len(), h.tape.len(), "sampling and replay tapes differ in length");
    for (&dep, &ep) in drawn_h.episodes.iter().zip(&h.episodes) {
        assert_same_heads(&drawn_h, dep, &h, ep, "sampled vs replayed");
    }

    // --- gradients: per-episode backward on the shared tape, in episode
    // order, must deposit exactly what separate per-episode tapes deposit.
    let mut batch_grads = Grads::for_params(params);
    for ep in h.episodes.clone() {
        let neg = h.tape.neg(ep.log_prob);
        let loss = match ep.aux_loss {
            Some(aux) => h.tape.add(neg, aux),
            None => neg,
        };
        h.tape.backward_into(loss, &mut batch_grads);
    }
    let mut serial_grads = Grads::for_params(params);
    for a in &actions {
        let mut sh = agent.score_batch(params, std::slice::from_ref(a));
        let ep = sh.episodes[0];
        let neg = sh.tape.neg(ep.log_prob);
        let loss = match ep.aux_loss {
            Some(aux) => sh.tape.add(neg, aux),
            None => neg,
        };
        sh.tape.backward_into(loss, &mut serial_grads);
    }
    for id in params.ids() {
        let (bg, sg) = (grad_data(&batch_grads, id), grad_data(&serial_grads, id));
        assert_eq!(
            bg.len(),
            sg.len(),
            "gradient of '{}' reached by one side only",
            params.name(id)
        );
        for (i, (x, y)) in bg.iter().zip(sg).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "gradient of '{}' entry {i} diverges",
                params.name(id)
            );
        }
    }
}

/// Asserts episode heads `a` of `ha` and `b` of `hb` hold the same bits:
/// log-prob, entropy and auxiliary loss.
fn assert_same_heads(
    ha: &BatchScoreHandle,
    a: EpisodeScore,
    hb: &BatchScoreHandle,
    b: EpisodeScore,
    what: &str,
) {
    let bits = |h: &BatchScoreHandle, v| h.tape.value(v).item().to_bits();
    assert_eq!(bits(ha, a.log_prob), bits(hb, b.log_prob), "{what}: log-prob diverges");
    assert_eq!(bits(ha, a.entropy), bits(hb, b.entropy), "{what}: entropy diverges");
    match (a.aux_loss, b.aux_loss) {
        (Some(x), Some(y)) => assert_eq!(bits(ha, x), bits(hb, y), "{what}: aux loss diverges"),
        (None, None) => {}
        _ => panic!("{what}: aux_loss presence differs"),
    }
}

/// Asserts the single-backward update path (sum per-episode losses with
/// `add_n`, one `backward_into` traversal of the shared tape) produces the
/// same gradients as a per-episode backward loop, within the
/// documented tolerance. The losses mirror the RL update shape:
/// advantage-weighted log-probs, an entropy bonus, and the aux head where
/// the agent has one.
fn assert_single_backward_matches_per_episode(
    agent: &impl PlacementAgent,
    params: &Params,
    bsz: usize,
    seed: u64,
) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let actions: Vec<Vec<usize>> =
        (0..bsz).map(|_| agent.sample_batch(params, &mut [&mut rng]).remove(0).0).collect();
    let mut h = agent.score_batch(params, &actions);

    let mut ep_losses = Vec::with_capacity(bsz);
    for (e, ep) in h.episodes.clone().into_iter().enumerate() {
        // Signed, episode-varying advantages so the summed gradient mixes
        // magnitudes and signs like a real REINFORCE/PPO minibatch does.
        let adv = 0.7 * (e as f32 - 0.5 * (bsz as f32 - 1.0)) + 0.3;
        let weighted = h.tape.scale(ep.log_prob, -adv);
        let ent = h.tape.scale(ep.entropy, -0.01);
        let mut loss = h.tape.add(weighted, ent);
        if let Some(aux) = ep.aux_loss {
            loss = h.tape.add(loss, aux);
        }
        ep_losses.push(loss);
    }
    let total = h.tape.add_n(&ep_losses);

    // Path A: a per-episode backward loop (one traversal per episode).
    let mut per_episode = Grads::for_params(params);
    for &loss in &ep_losses {
        h.tape.backward_into(loss, &mut per_episode);
    }
    // Path B: one traversal of the summed loss into detached buffers.
    let mut grads = Grads::for_params(params);
    h.tape.backward_into(total, &mut grads);

    for id in params.ids() {
        let (pe, sb) = (grad_data(&per_episode, id), grad_data(&grads, id));
        assert_eq!(
            pe.len(),
            sb.len(),
            "gradient of '{}' reached by one side only",
            params.name(id)
        );
        let scale = pe.iter().chain(sb).fold(0.0f32, |m, v| m.max(v.abs()));
        for (i, (a, b)) in pe.iter().zip(sb).enumerate() {
            assert_grad_close(
                *a,
                *b,
                scale,
                &format!("gradient of '{}' entry {i}", params.name(id)),
            );
        }
    }
}

/// Asserts that scoring a minibatch right after sampling it — the update's
/// first step, which takes the sampling forward kept in the agent's replay
/// slot — gives a fresh replay's heads and update gradients to the bit, and
/// leaves the slot empty.
fn assert_kept_forward_is_a_fresh_score(
    agent: &impl PlacementAgent,
    params: &Params,
    bsz: usize,
    seed: u64,
) {
    let slot = agent.replay_slot().expect("a training agent keeps its sampling forward");
    let (mut streams, _) = forked(agent, seed, bsz);
    let mut refs: Vec<&mut dyn RngCore> =
        streams.iter_mut().map(|r| r as &mut dyn RngCore).collect();
    let drawn = agent.sample_batch(params, &mut refs);
    assert!(!slot.is_empty(), "sampling keeps its forward");
    let actions: Vec<Vec<usize>> = drawn.into_iter().map(|(a, _)| a).collect();
    let mut kept = agent.score_batch(params, &actions);
    assert!(slot.is_empty(), "scoring takes the kept forward");
    let mut fresh = agent.score_batch(params, &actions);
    assert!(slot.is_empty(), "a replay keeps nothing");

    assert_eq!(kept.tape.len(), fresh.tape.len(), "kept and fresh tapes differ in length");
    for (&k, &f) in kept.episodes.iter().zip(&fresh.episodes) {
        assert_same_heads(&kept, k, &fresh, f, "kept vs fresh");
    }
    // The update's shape: per-episode losses folded by `add_n`, one backward.
    let update_grads = |h: &mut BatchScoreHandle| {
        let losses: Vec<_> = h
            .episodes
            .clone()
            .into_iter()
            .enumerate()
            .map(|(e, ep)| {
                let weighted = h.tape.scale(ep.log_prob, 0.4 - 0.3 * e as f32);
                let ent = h.tape.scale(ep.entropy, -0.01);
                let loss = h.tape.add(weighted, ent);
                ep.aux_loss.map_or(loss, |aux| h.tape.add(loss, aux))
            })
            .collect();
        let total = h.tape.add_n(&losses);
        let mut grads = Grads::for_params(params);
        h.tape.backward_into(total, &mut grads);
        grads
    };
    let (kg, fg) = (update_grads(&mut kept), update_grads(&mut fresh));
    for id in params.ids() {
        let (k, f) = (grad_data(&kg, id), grad_data(&fg, id));
        assert_eq!(k.len(), f.len(), "gradient of '{}' reached by one side only", params.name(id));
        for (i, (x, y)) in k.iter().zip(f).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "gradient of '{}' entry {i}", params.name(id));
        }
    }
}

fn eagle_agent(seed: u64) -> (Params, EagleAgent) {
    let g = tiny_graph();
    let m = Machine::paper_machine();
    let mut params = Params::new();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let agent = EagleAgent::new(&mut params, &g, &m, AgentScale::tiny(), &mut rng);
    (params, agent)
}

fn hp_agent(seed: u64) -> (Params, HpAgent) {
    let g = tiny_graph();
    let m = Machine::paper_machine();
    let mut params = Params::new();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let agent = HpAgent::new(&mut params, &g, &m, AgentScale::tiny(), &mut rng);
    (params, agent)
}

/// Every placer a [`FixedGroupAgent`] can hold.
const KINDS: [PlacerKind; 4] =
    [PlacerKind::Seq2SeqBefore, PlacerKind::Seq2SeqAfter, PlacerKind::Gcn, PlacerKind::Simple];

fn fixed_agent(seed: u64, kind: PlacerKind) -> (Params, FixedGroupAgent) {
    let g = tiny_graph();
    let m = Machine::paper_machine();
    let k = 5;
    let group_of: Vec<usize> = (0..g.len()).map(|i| i * k / g.len()).collect();
    let mut params = Params::new();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let agent = FixedGroupAgent::new(
        &mut params,
        "fg",
        &g,
        &m,
        group_of,
        k,
        kind,
        AgentScale::tiny(),
        &mut rng,
    );
    (params, agent)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    #[test]
    fn eagle_batched_equals_serial(seed in 0u64..1_000, bidx in 0usize..3) {
        let bsz = [1usize, 3, 8][bidx];
        let (params, agent) = eagle_agent(seed.wrapping_mul(31) + 1);
        assert_batched_matches_serial(&agent, &params, bsz, seed);
    }

    #[test]
    fn hp_batched_equals_serial(seed in 0u64..1_000, bidx in 0usize..3) {
        let bsz = [1usize, 3, 8][bidx];
        let (params, agent) = hp_agent(seed.wrapping_mul(17) + 2);
        assert_batched_matches_serial(&agent, &params, bsz, seed);
    }

    #[test]
    fn fixed_group_batched_equals_serial(seed in 0u64..1_000, bidx in 0usize..3) {
        // Every placer kind in every case, so each placer's batched path is
        // exercised behind the agent API whichever seeds come up.
        let bsz = [1usize, 3, 8][bidx];
        for kind in KINDS {
            let (params, agent) = fixed_agent(seed.wrapping_mul(13) + 3, kind);
            assert_batched_matches_serial(&agent, &params, bsz, seed);
        }
    }

    #[test]
    fn eagle_single_backward_matches_per_episode(seed in 0u64..1_000, bidx in 0usize..3) {
        let bsz = [1usize, 3, 8][bidx];
        let (params, agent) = eagle_agent(seed.wrapping_mul(29) + 5);
        assert_single_backward_matches_per_episode(&agent, &params, bsz, seed);
    }

    #[test]
    fn hp_single_backward_matches_per_episode(seed in 0u64..1_000, bidx in 0usize..3) {
        let bsz = [1usize, 3, 8][bidx];
        let (params, agent) = hp_agent(seed.wrapping_mul(19) + 6);
        assert_single_backward_matches_per_episode(&agent, &params, bsz, seed);
    }

    #[test]
    fn fixed_group_single_backward_matches_per_episode(seed in 0u64..1_000, bidx in 0usize..3) {
        let bsz = [1usize, 3, 8][bidx];
        for kind in KINDS {
            let (params, agent) = fixed_agent(seed.wrapping_mul(23) + 7, kind);
            assert_single_backward_matches_per_episode(&agent, &params, bsz, seed);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    #[test]
    fn scoring_right_after_sampling_is_a_fresh_score(seed in 0u64..1_000, bidx in 0usize..3) {
        let bsz = [1usize, 3, 8][bidx];
        let (params, agent) = eagle_agent(seed.wrapping_mul(37) + 8);
        assert_kept_forward_is_a_fresh_score(&agent, &params, bsz, seed);
        let (params, agent) = hp_agent(seed.wrapping_mul(41) + 9);
        assert_kept_forward_is_a_fresh_score(&agent, &params, bsz, seed);
        for kind in KINDS {
            let (params, agent) = fixed_agent(seed.wrapping_mul(43) + 10, kind);
            assert_kept_forward_is_a_fresh_score(&agent, &params, bsz, seed);
        }
    }
}

fn train_hp(workers: usize) -> eagle::core::TrainResult {
    let g = tiny_graph();
    let m = Machine::paper_machine();
    let mut params = Params::new();
    let mut rng = ChaCha8Rng::seed_from_u64(11);
    let agent = HpAgent::new(&mut params, &g, &m, AgentScale::tiny(), &mut rng);
    let mut cfg = TrainerConfig::paper(Algo::PpoCe, 40);
    cfg.ce_interval = 20;
    cfg.workers = workers;
    let trainer = Trainer::builder(GraphSource::fixed(g.clone()), m.clone())
        .config(cfg)
        .measure(MeasureConfig::default())
        .env_seed(11)
        .build()
        .expect("valid trainer config");
    trainer.train(&agent, &mut params).expect("training run succeeds")
}

#[test]
fn batched_training_curve_identical_across_worker_counts() {
    let serial = train_hp(1);
    let auto = train_hp(0);
    assert_same_curve(&serial.curve, &auto.curve, "serial vs auto workers");
    assert_eq!(serial.best_placement, auto.best_placement);
    assert_same_opt_f64(
        serial.final_step_time,
        auto.final_step_time,
        "serial vs auto workers: final step time",
    );
    assert_eq!(serial.num_invalid, auto.num_invalid);
}

#[test]
fn batched_training_resumes_bit_identically() {
    // A run killed mid-way and resumed must replay the exact same curve the
    // uninterrupted run produces — the batched sampler's RNG accounting feeds
    // straight into the checkpointed trainer RNG.
    let g = tiny_graph();
    let m = Machine::paper_machine();
    let build_trainer = |cfg: TrainerConfig| {
        Trainer::builder(GraphSource::fixed(g.clone()), m.clone())
            .config(cfg)
            .measure(MeasureConfig::default())
            .env_seed(23)
            .build()
            .expect("valid trainer config")
    };
    let build_agent = |params: &mut Params| {
        let mut rng = ChaCha8Rng::seed_from_u64(23);
        EagleAgent::new(params, &g, &m, AgentScale::tiny(), &mut rng)
    };

    let dir = std::env::temp_dir().join("eagle-batched-policy-resume-test");
    std::fs::create_dir_all(&dir).unwrap();

    // Uninterrupted reference: 60 samples.
    let mut cfg = TrainerConfig::paper(Algo::Ppo, 60);
    let mut full_params = Params::new();
    let full_agent = build_agent(&mut full_params);
    let full =
        build_trainer(cfg.clone()).train(&full_agent, &mut full_params).expect("full run trains");

    // Interrupted: stop after 30 (checkpointing every minibatch), resume to 60.
    cfg.checkpoint_dir = Some(dir.clone());
    cfg.checkpoint_every = Some(1);
    cfg.total_samples = 30;
    let mut part_params = Params::new();
    let part_agent = build_agent(&mut part_params);
    build_trainer(cfg.clone()).train(&part_agent, &mut part_params).expect("partial run trains");

    let state = eagle::core::load_checkpoint(dir.join(CHECKPOINT_FILE)).unwrap();
    cfg.total_samples = 60;
    let mut resumed_params = Params::new();
    let resumed_agent = build_agent(&mut resumed_params);
    let resumed = build_trainer(cfg)
        .train_from(&resumed_agent, &mut resumed_params, state)
        .expect("resume succeeds");

    assert_same_curve(&full.curve, &resumed.curve, "full vs resumed");
    assert_eq!(full.best_placement, resumed.best_placement);
    assert_same_opt_f64(
        full.final_step_time,
        resumed.final_step_time,
        "full vs resumed: final step time",
    );
    std::fs::remove_dir_all(&dir).ok();
}
