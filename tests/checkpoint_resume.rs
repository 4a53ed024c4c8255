//! Crash-safe resume contract: a run killed at a minibatch boundary and
//! resumed from its checkpoint produces the same curve, parameters, best
//! placement and final measurement as the uninterrupted run with the same
//! seed, for every algorithm and worker count: discrete outcomes (placements,
//! sample counts) and every bit of the float curves and parameters.
//!
//! The "kill" is simulated by training only the first *k* minibatches with
//! auto-checkpointing on: the checkpoint written at minibatch *k* is exactly
//! what a `kill -9` after that save would leave behind (the writes are atomic,
//! so nothing torn exists), and the resumed process rebuilds its agent and
//! environment from scratch exactly like a restarted binary would.

use eagle::core::{
    load_checkpoint, AgentScale, Algo, CheckpointError, EagleAgent, GraphSource, ResumeError,
    TrainError, TrainResult, Trainer, TrainerConfig, TrainerState, CHECKPOINT_FILE,
};
use eagle::devsim::{DeviceId, Machine, MeasureConfig, Placement};
use eagle::opgraph::{builders, GraphGenConfig};
use eagle::rl::top_k_indices;
use eagle::tensor::Params;
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde_json::Value;

mod common;
use common::{assert_same_curve, assert_same_opt_f64};

const MINIBATCH: usize = 10;

fn tiny_graph() -> (eagle::opgraph::OpGraph, Machine) {
    let g = builders::try_gnmt(&builders::GnmtConfig::tiny()).expect("valid GNMT config");
    (g, Machine::paper_machine())
}

fn tiny_trainer(cfg: TrainerConfig) -> (eagle::opgraph::OpGraph, Machine, Trainer) {
    let (g, m) = tiny_graph();
    let trainer = Trainer::builder(GraphSource::fixed(g.clone()), m.clone())
        .config(cfg)
        .measure(MeasureConfig::default()) // noisy protocol: the RNG position matters
        .env_seed(17)
        .build()
        .expect("valid tiny trainer config");
    (g, m, trainer)
}

fn config(algo: Algo, workers: usize, total: usize) -> TrainerConfig {
    let mut cfg = TrainerConfig::paper(algo, total);
    cfg.ce_interval = 20; // exercise CE inside short runs
    cfg.workers = workers;
    cfg
}

/// Fresh agent + params, deterministic in the seed (a restarted process
/// rebuilds exactly this before restoring the checkpoint over it).
fn build_agent(g: &eagle::opgraph::OpGraph, m: &Machine) -> (Params, EagleAgent) {
    let mut params = Params::new();
    let mut rng = ChaCha8Rng::seed_from_u64(23);
    let agent = EagleAgent::new(&mut params, g, m, AgentScale::tiny(), &mut rng);
    (params, agent)
}

fn straight_run(algo: Algo, workers: usize, total: usize) -> (TrainResult, Params) {
    let (g, m, trainer) = tiny_trainer(config(algo, workers, total));
    let (mut params, agent) = build_agent(&g, &m);
    let result = trainer.train(&agent, &mut params).expect("training run succeeds");
    (result, params)
}

/// First life: trains with checkpointing on and dies (stops) right after the
/// checkpoint at minibatch `kill_after`; returns what it left on disk.
fn first_life(
    algo: Algo,
    workers: usize,
    kill_after: usize,
    dir: &std::path::Path,
) -> TrainerState {
    std::fs::remove_dir_all(dir).ok();
    let mut cfg = config(algo, workers, kill_after * MINIBATCH);
    cfg.checkpoint_dir = Some(dir.to_path_buf());
    cfg.checkpoint_every = Some(1);
    let (g, m, trainer) = tiny_trainer(cfg);
    let (mut params, agent) = build_agent(&g, &m);
    trainer.train(&agent, &mut params).expect("first life trains");
    let state = load_checkpoint(dir.join(CHECKPOINT_FILE)).expect("checkpoint readable");
    assert_eq!(state.progress.samples, kill_after * MINIBATCH);
    state
}

/// Trains `kill_after` minibatches with checkpointing on, then resumes from
/// the checkpoint in a fresh process image (new env, new agent, new params).
fn killed_and_resumed(
    algo: Algo,
    workers: usize,
    kill_after: usize,
    total: usize,
    dir: &std::path::Path,
) -> (TrainResult, Params) {
    let state = first_life(algo, workers, kill_after, dir);
    // Second life: a brand-new process image resumes from disk.
    let (g, m, trainer) = tiny_trainer(config(algo, workers, total));
    let (mut params, agent) = build_agent(&g, &m);
    let result = trainer.train_from(&agent, &mut params, state).expect("resume accepted");
    (result, params)
}

/// Discrete outcomes and every float bit match.
fn assert_run_matches(a: &(TrainResult, Params), b: &(TrainResult, Params), ctx: &str) {
    let ((ra, pa), (rb, pb)) = (a, b);
    assert_eq!(ra.samples, rb.samples, "{ctx}: samples");
    assert_eq!(ra.num_invalid, rb.num_invalid, "{ctx}: num_invalid");
    assert_same_curve(&ra.curve, &rb.curve, ctx);
    assert_eq!(ra.best_placement, rb.best_placement, "{ctx}: best placement");
    assert_same_opt_f64(ra.final_step_time, rb.final_step_time, &format!("{ctx}: final step time"));
    assert_eq!(pa.len(), pb.len(), "{ctx}: param tensor count");
    for id in pa.ids() {
        let (ta, tb) = (pa.get(id), pb.get(id));
        assert_eq!(ta.shape(), tb.shape(), "{ctx}: shape of {}", pa.name(id));
        for (j, (va, vb)) in ta.data().iter().zip(tb.data()).enumerate() {
            assert_eq!(
                va.to_bits(),
                vb.to_bits(),
                "{ctx}: param {}[{j}]: {va} vs {vb}",
                pa.name(id)
            );
        }
    }
}

fn tmp(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join("eagle-resume-tests").join(name)
}

#[test]
fn kill_and_resume_is_bit_identical_for_every_algo_and_worker_count() {
    const TOTAL: usize = 60;
    const KILL_AFTER: usize = 3; // of 6 minibatches
    for algo in [Algo::Reinforce, Algo::Ppo, Algo::PpoCe] {
        for workers in [1usize, 0] {
            let ctx = format!("{algo:?}/workers={workers}");
            let dir = tmp(&format!("{algo:?}-w{workers}").to_lowercase());
            let straight = straight_run(algo, workers, TOTAL);
            let resumed = killed_and_resumed(algo, workers, KILL_AFTER, TOTAL, &dir);
            assert_run_matches(&straight, &resumed, &ctx);
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}

#[test]
fn corrupt_checkpoint_fails_typed_and_fresh_file_survives_interrupted_save() {
    let dir = tmp("corrupt");
    std::fs::remove_dir_all(&dir).ok();
    let mut cfg = config(Algo::Ppo, 1, 20);
    cfg.checkpoint_dir = Some(dir.clone());
    cfg.checkpoint_every = Some(1);
    let (g, m, trainer) = tiny_trainer(cfg);
    let (mut params, agent) = build_agent(&g, &m);
    trainer.train(&agent, &mut params).expect("training run succeeds");

    let path = dir.join(CHECKPOINT_FILE);
    let good = std::fs::read(&path).unwrap();
    // Truncate mid-payload, as a torn non-atomic write would.
    std::fs::write(&path, &good[..good.len() / 2]).unwrap();
    match load_checkpoint(&path) {
        Err(CheckpointError::Truncated { .. }) => {}
        other => panic!("expected Truncated, got {other:?}"),
    }
    // No stray temp files from the atomic-writer protocol.
    let stray: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|n| n.contains(".tmp."))
        .collect();
    assert!(stray.is_empty(), "temp litter: {stray:?}");
    std::fs::remove_dir_all(&dir).ok();
}

/// Resumes a PPO+CE run killed after its first minibatch from a checkpoint
/// that `corrupt` has edited after decoding — what a writer bug or a
/// hand-edited payload with a recomputed checksum would hand `train_from` —
/// and expects the typed refusal `expected` recognizes, with `params` left as
/// they were. Every edit below would otherwise reach code that indexes or
/// asserts on what it restored: the next minibatch's CE update (history), the
/// final measurement (best placement), the first optimizer step (moments),
/// the first forward pass (parameters).
fn resume_corrupted(
    name: &str,
    corrupt: impl FnOnce(&mut TrainerState),
    expected: impl FnOnce(&ResumeError) -> bool,
) {
    let dir = tmp(name);
    let mut state = first_life(Algo::PpoCe, 1, 1, &dir);
    std::fs::remove_dir_all(&dir).ok();
    corrupt(&mut state);

    let (g, m, trainer) = tiny_trainer(config(Algo::PpoCe, 1, 3 * MINIBATCH));
    let (mut params, agent) = build_agent(&g, &m);
    let before = params.clone();
    match trainer.train_from(&agent, &mut params, state) {
        Err(TrainError::Resume(e)) if expected(&e) => {}
        other => panic!("{name}: not the typed refusal expected: {other:?}"),
    }
    for id in before.ids() {
        assert_eq!(before.get(id).data(), params.get(id).data(), "{name}: params untouched");
    }
}

fn is_history(e: &ResumeError) -> bool {
    matches!(e, ResumeError::History(_))
}

#[test]
fn resume_rejects_history_with_unequal_lengths() {
    resume_corrupted("history-extra-reward", |s| s.progress.history_rewards.push(0.0), is_history);
}

#[test]
fn resume_rejects_history_action_vector_of_the_wrong_length() {
    resume_corrupted(
        "history-short-vector",
        |s| {
            let best = top_k_indices(&s.progress.history_rewards, 1)[0];
            s.progress.history_actions[best].pop();
        },
        is_history,
    );
}

#[test]
fn resume_rejects_history_action_out_of_range() {
    resume_corrupted(
        "history-device-99",
        |s| {
            let best = top_k_indices(&s.progress.history_rewards, 1)[0];
            s.progress.history_actions[best][0] = 99;
        },
        is_history,
    );
}

/// The run's last act is to simulate its best placement for the final
/// measurement; nothing between the decode and that simulation looks at it
/// (a step time of zero, so no later sample replaces it).
#[test]
fn resume_rejects_best_placement_of_the_wrong_length() {
    resume_corrupted(
        "best-three-ops",
        |s| s.entries[0].best = Some((0.0, Placement::uniform(3, DeviceId(0)))),
        |e| matches!(e, ResumeError::Entry(_)),
    );
}

#[test]
fn resume_rejects_best_placement_on_a_missing_device() {
    resume_corrupted(
        "best-device-77",
        |s| {
            let ops = s.entries[0].best.as_ref().expect("a valid sample in ten").1.len();
            s.entries[0].best = Some((0.0, Placement::uniform(ops, DeviceId(77))));
        },
        |e| matches!(e, ResumeError::Entry(_)),
    );
}

/// Edits the checkpoint as a JSON document and decodes it again: `Adam`'s
/// moments and a tensor's data are not reachable through the decoded state's
/// public fields.
fn edit_json(state: &mut TrainerState, edit: impl FnOnce(&mut Value)) {
    let mut doc = serde_json::to_value(state);
    edit(&mut doc);
    let json = serde_json::to_string(&doc).expect("document encodes");
    *state = serde_json::from_str(&json).expect("edited state decodes");
}

/// The value at `path` — object keys and array indices — of a JSON document.
fn at<'a>(doc: &'a mut Value, path: &[&str]) -> &'a mut Value {
    path.iter().fold(doc, |v, step| match v {
        Value::Object(entries) => {
            &mut entries.iter_mut().find(|(k, _)| k == step).expect("key exists").1
        }
        Value::Array(items) => &mut items[step.parse::<usize>().expect("an index")],
        other => panic!("{step} of {other:?}"),
    })
}

/// The first optimizer step zips the moments with the parameters.
#[test]
fn resume_rejects_an_optimizer_with_a_dropped_moment() {
    resume_corrupted(
        "adam-dropped-moment",
        |s| {
            edit_json(s, |doc| {
                let m = at(doc, &["opt_ppo", "m"]).as_array_mut().expect("moments");
                assert!(m.len() > 1, "PPO has stepped");
                m.remove(0);
            })
        },
        |e| matches!(e, ResumeError::Optimizer(_)),
    );
}

/// The baseline is an `f64`, the advantage computed from it an `f32`: the
/// first update would scale a log-probability by minus infinity.
#[test]
fn resume_rejects_a_baseline_beyond_f32() {
    resume_corrupted(
        "baseline-1e300",
        |s| {
            edit_json(s, |doc| {
                *at(doc, &["entries", "0", "baseline", "value"]) = Value::F64(1e300);
            })
        },
        |e| matches!(e, ResumeError::Entry(_)),
    );
}

/// JSON spells floats no `f32` holds: `1e300` decodes to infinity, which the
/// first forward pass would carry into every logit.
#[test]
fn resume_rejects_a_non_finite_parameter() {
    resume_corrupted(
        "param-1e300",
        |s| {
            edit_json(s, |doc| {
                *at(doc, &["params", "entries", "0", "value", "data", "0"]) = Value::F64(1e300);
            })
        },
        |e| matches!(e, ResumeError::ParamMismatch(_)),
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Resume is exact no matter *which* minibatch boundary the run died at.
    #[test]
    fn resume_at_any_minibatch_boundary_is_exact(kill_after in 1usize..6) {
        const TOTAL: usize = 60;
        let dir = tmp(&format!("boundary-{kill_after}"));
        let straight = straight_run(Algo::PpoCe, 0, TOTAL);
        let resumed = killed_and_resumed(Algo::PpoCe, 0, kill_after, TOTAL, &dir);
        assert_run_matches(&straight, &resumed, &format!("boundary {kill_after}"));
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Multi-graph trainer over a tiny GraphGen distribution with a held-out
/// graph and probes on — the full generalist checkpoint surface (GraphSource
/// RNG position, per-graph environment pool, retired snapshot, probe points).
fn multi_trainer(cfg: TrainerConfig) -> (eagle::opgraph::OpGraph, Machine, Trainer) {
    let m = Machine::paper_machine();
    let source = GraphSource::generated(GraphGenConfig::with_target(48), 99)
        .expect("valid generated source");
    let seed_graph = source.build(&source.holdout_origins(1)[0]);
    let trainer = Trainer::builder(source, m.clone())
        .config(cfg)
        .measure(MeasureConfig::default())
        .env_seed(17)
        .holdout(1)
        .probe_every(2)
        .probe_candidates(2)
        .build()
        .expect("valid multi-graph trainer config");
    (seed_graph, m, trainer)
}

fn multi_straight_run(total: usize) -> (TrainResult, Params) {
    let (g, m, trainer) = multi_trainer(config(Algo::Ppo, 1, total));
    let (mut params, agent) = build_agent(&g, &m);
    let result = trainer.train(&agent, &mut params).expect("training run succeeds");
    (result, params)
}

fn multi_killed_and_resumed(
    kill_after: usize,
    total: usize,
    dir: &std::path::Path,
) -> (TrainResult, Params) {
    std::fs::remove_dir_all(dir).ok();
    {
        let mut cfg = config(Algo::Ppo, 1, kill_after * MINIBATCH);
        cfg.checkpoint_dir = Some(dir.to_path_buf());
        cfg.checkpoint_every = Some(1);
        let (g, m, trainer) = multi_trainer(cfg);
        let (mut params, agent) = build_agent(&g, &m);
        trainer.train(&agent, &mut params).expect("first life trains");
    }
    let state = load_checkpoint(dir.join(CHECKPOINT_FILE)).expect("checkpoint readable");
    assert_eq!(state.progress.samples, kill_after * MINIBATCH);
    assert!(!state.entries.is_empty(), "multi-graph checkpoint carries the env pool");
    let (g, m, trainer) = multi_trainer(config(Algo::Ppo, 1, total));
    let (mut params, agent) = build_agent(&g, &m);
    let result = trainer.train_from(&agent, &mut params, state).expect("resume accepted");
    (result, params)
}

#[test]
fn multi_graph_kill_and_resume_is_bit_identical() {
    const TOTAL: usize = 60;
    for kill_after in [1usize, 3, 5] {
        let dir = tmp(&format!("multi-{kill_after}"));
        let straight = multi_straight_run(TOTAL);
        let resumed = multi_killed_and_resumed(kill_after, TOTAL, &dir);
        let ctx = format!("multi-graph boundary {kill_after}");
        assert_run_matches(&straight, &resumed, &ctx);
        // Zero-shot probe points must replay identically through the resume:
        // the probe RNG is derived from (config seed, minibatch index), never
        // from training state lost in the kill.
        assert_eq!(straight.0.curve.probes, resumed.0.curve.probes, "{ctx}: probes");
        assert!(!straight.0.curve.probes.is_empty(), "{ctx}: probes were requested");
        // The pool itself restores: same graphs drawn, same per-graph counts.
        let names = |r: &TrainResult| {
            r.graphs.iter().map(|g| (g.name.clone(), g.samples)).collect::<Vec<_>>()
        };
        assert_eq!(names(&straight.0), names(&resumed.0), "{ctx}: graph summaries");
        std::fs::remove_dir_all(&dir).ok();
    }
}
