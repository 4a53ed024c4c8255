//! Byte-level fuzzing of the checkpoint decoder.
//!
//! Strategy: build one *valid* checkpoint (its embedded environment runs on a
//! GraphGen-generated graph, not a benchmark, so the payload shape varies with
//! the generator too), then attack `decode_checkpoint` with mutations of its
//! bytes — single bit flips, truncations, checksum-preserving payload edits,
//! pure garbage, and adversarially nested JSON. The contract under test:
//! **every** decode returns a typed [`CheckpointError`]/`Ok`, and never panics,
//! aborts, or misdecodes silently.
//!
//! Bytes rarely get past the JSON grammar, so one property is structure-aware:
//! it mutates the *parsed* payload — one integer, float or array — re-wraps it
//! with a correct checksum, and hands whatever still decodes to
//! `Trainer::train_from` for one more minibatch. A state that decodes must
//! resume or be refused with a typed `TrainError`, never panic the resume.
//! The live structs being the format, the same file pins the payload's key
//! tree next to the schema version.
//!
//! `EAGLE_FUZZ_CASES` tunes the per-property case count (default 256, the fast
//! PR-gating slice; the nightly job runs 10000+). A failing case persists its
//! seed via `PROPTEST_FAILURE_DIR` for CI artifact upload.

use std::collections::BTreeSet;
use std::sync::OnceLock;

use eagle::core::{
    decode_checkpoint, encode_checkpoint, fnv1a64, AgentScale, Algo, CheckpointError, EagleAgent,
    GraphEntryState, GraphOrigin, GraphSource, PlacementAgent, Progress, Trainer, TrainerConfig,
    TrainerState, CHECKPOINT_MAGIC, CHECKPOINT_SCHEMA_VERSION,
};
use eagle::devsim::{Environment, Machine, MeasureConfig};
use eagle::opgraph::{GraphGen, GraphGenConfig, OpGraph};
use eagle::rl::{EmaBaseline, StochasticPolicy};
use eagle::tensor::Params;
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde_json::Value;

/// Case count per fuzz property: 256 default, 10k+ nightly.
fn fuzz_cases() -> u32 {
    std::env::var("EAGLE_FUZZ_CASES").ok().and_then(|s| s.parse().ok()).unwrap_or(256)
}

/// One valid checkpoint, built once: the exact file bytes of a full
/// [`TrainerState`] whose environment wraps a 64-op GraphGen graph, and what a
/// restarted process rebuilds before resuming from it.
struct Corpus {
    bytes: Vec<u8>,
    graph: OpGraph,
    machine: Machine,
    /// The agent's freshly initialized parameters (`train_from` overwrites
    /// them with the checkpoint's).
    params: Params,
    agent: EagleAgent,
}

fn corpus() -> &'static Corpus {
    static CORPUS: OnceLock<Corpus> = OnceLock::new();
    CORPUS.get_or_init(|| {
        let machine = Machine::paper_machine();
        let cfg = GraphGenConfig {
            target_ops: 64,
            memory_pressure: (0.5, 1.0),
            ..GraphGenConfig::default()
        };
        let graph = GraphGen::new(cfg).expect("valid generator config").sample(2026);
        let mut env = Environment::builder(graph.clone(), machine.clone())
            .measure(MeasureConfig::exact())
            .seed(11)
            .build()
            .expect("valid environment");
        let p = eagle::devsim::predefined::single_gpu(&graph, &machine);
        env.evaluate(&p);
        let mut params = Params::new();
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let agent = EagleAgent::new(&mut params, &graph, &machine, AgentScale::tiny(), &mut rng);
        let (actions, _) = agent.sample_batch(&params, &mut [&mut rng]).remove(0);
        let mut baseline = EmaBaseline::new(0.1);
        baseline.advantage(-1.0);
        let fresh = TrainerState::fresh(agent.name(), params.clone(), 11);
        let mut state = TrainerState {
            progress: Progress {
                minibatches: 1,
                since_ce: 1,
                history_actions: vec![actions],
                history_rewards: vec![-1.0],
                ..fresh.progress
            },
            entries: vec![GraphEntryState {
                origin: GraphOrigin::fixed(),
                env: env.save_state(),
                baseline,
                best: Some((2.0, p)),
            }],
            ..fresh
        };
        state.progress.curve.push(1, 0.5, Some(2.0));
        let bytes = encode_checkpoint(&state).expect("corpus checkpoint encodes");
        Corpus { bytes, graph, machine, params, agent }
    })
}

fn valid_bytes() -> &'static [u8] {
    &corpus().bytes
}

/// Rebuilds a structurally valid file around an arbitrary payload: correct
/// magic, schema version, and a checksum/length recomputed over `payload`.
fn wrap_payload(payload: &str) -> Vec<u8> {
    let header = format!(
        r#"{{"magic":"{CHECKPOINT_MAGIC}","schema_version":{CHECKPOINT_SCHEMA_VERSION},"checksum":{},"payload_bytes":{}}}"#,
        fnv1a64(payload.as_bytes()),
        payload.len()
    );
    let mut bytes = header.into_bytes();
    bytes.push(b'\n');
    bytes.extend_from_slice(payload.as_bytes());
    bytes
}

#[test]
fn corpus_checkpoint_is_valid() {
    let restored = decode_checkpoint(valid_bytes()).expect("unmutated corpus loads");
    assert_eq!(restored.progress.curve.points.len(), 1);
    resume(restored).expect("unmutated corpus resumes");
}

/// One more minibatch from `state`, in a process image rebuilt around the
/// corpus graph: PPO, then a CE update that indexes the restored history.
fn resume(state: TrainerState) -> Result<(), eagle::core::TrainError> {
    let c = corpus();
    let mut cfg = TrainerConfig::paper(Algo::PpoCe, 11);
    cfg.ce_interval = 10;
    cfg.workers = 1;
    let trainer = Trainer::builder(GraphSource::fixed(c.graph.clone()), c.machine.clone())
        .config(cfg)
        .measure(MeasureConfig::exact())
        .env_seed(11)
        .build()
        .expect("valid trainer config");
    trainer.train_from(&c.agent, &mut c.params.clone(), state).map(|_| ())
}

/// Walks `v` in document order counting `nth` down at every mutation site —
/// an integer, a float or an array — and mutates the site it reaches zero at:
/// an integer becomes one of {0, 1, 255, 2^32}, a float one of {0, -1, 1e300},
/// an array loses its last element or gains a copy of its first. Returns what
/// it did, or `None` when the document has fewer sites.
fn mutate_nth(v: &mut Value, nth: &mut usize, pick: usize) -> Option<String> {
    if matches!(v, Value::U64(_) | Value::I64(_) | Value::F64(_) | Value::Array(_)) {
        if *nth == 0 {
            let before = match &*v {
                Value::Array(items) => format!("array of {}", items.len()),
                other => format!("{other:?}"),
            };
            match v {
                Value::Array(items) if pick.is_multiple_of(2) => drop(items.pop()),
                Value::Array(items) => items.extend(items.first().cloned()),
                Value::F64(_) => *v = Value::F64([0.0, -1.0, 1e300][pick % 3]),
                _ => *v = Value::U64([0, 1, 255, 1 << 32][pick % 4]),
            }
            return Some(format!("{before} with pick {pick}"));
        }
        *nth -= 1;
    }
    match v {
        Value::Array(items) => items.iter_mut().find_map(|c| mutate_nth(c, nth, pick)),
        Value::Object(entries) => entries
            .iter_mut()
            .find_map(|(k, c)| mutate_nth(c, nth, pick).map(|what| format!("{k}: {what}"))),
        _ => None,
    }
}

/// The corpus payload as a document, and how many mutation sites it has.
fn corpus_document() -> &'static (Value, usize) {
    static DOC: OnceLock<(Value, usize)> = OnceLock::new();
    DOC.get_or_init(|| {
        let text = std::str::from_utf8(valid_bytes()).expect("corpus is UTF-8");
        let payload = text.split_once('\n').expect("header line").1;
        let doc: Value = serde_json::from_str(payload).expect("payload is JSON");
        let mut countdown = usize::MAX;
        assert_eq!(mutate_nth(&mut doc.clone(), &mut countdown, 0), None);
        (doc, usize::MAX - countdown)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(fuzz_cases()))]

    /// Flip one bit anywhere in the file: the decoder must return a typed
    /// error or — only when the flip lands in JSON the decoder tolerates —
    /// an `Ok`; a payload flip with an intact header must be caught by the
    /// checksum (or the UTF-8/header gate), never decoded.
    #[test]
    fn single_bit_flips_never_panic(pos in any::<u64>(), bit in 0u32..8) {
        let base = valid_bytes();
        let mut bytes = base.to_vec();
        let idx = (pos as usize) % bytes.len();
        bytes[idx] ^= 1 << bit;
        let header_len = base.iter().position(|&b| b == b'\n').unwrap();
        match decode_checkpoint(&bytes) {
            Ok(_) => {
                // A flip that still loads must not have touched the payload:
                // inside the payload the checksum makes every flip fatal.
                prop_assert!(idx <= header_len, "payload flip at {idx} decoded successfully");
            }
            Err(e) => {
                if idx > header_len {
                    prop_assert!(
                        matches!(
                            e,
                            CheckpointError::Checksum { .. } | CheckpointError::Header(_)
                        ),
                        "payload flip at byte {idx} bit {bit} gave unexpected {e:?}"
                    );
                }
            }
        }
    }

    /// Truncate at every possible length: never a panic, and once the cut is
    /// inside the payload the error is specifically `Truncated`.
    #[test]
    fn truncations_are_typed_errors(pos in any::<u64>()) {
        let base = valid_bytes();
        let cut = (pos as usize) % base.len();
        let header_len = base.iter().position(|&b| b == b'\n').unwrap();
        let e = decode_checkpoint(&base[..cut]).expect_err("a truncated file must not decode");
        if cut > header_len {
            prop_assert!(
                matches!(e, CheckpointError::Truncated { expected, actual }
                    if expected > actual),
                "cut at {cut} gave {e:?} instead of Truncated"
            );
        } else {
            prop_assert!(
                matches!(e, CheckpointError::Header(_)),
                "cut inside header at {cut} gave {e:?}"
            );
        }
    }

    /// Checksum-preserving payload mutation: splice random bytes into the
    /// payload, then recompute the header so length and checksum are *valid*.
    /// Integrity gates pass by construction, so the only allowed outcomes are
    /// a clean decode or `CheckpointError::Decode` — this is the test that
    /// drives the JSON parser itself over garbage.
    #[test]
    fn checksum_preserving_mutations_reach_the_decoder(
        at in any::<u64>(),
        insert in proptest::collection::vec(any::<u8>(), 1..24),
        delete in 0usize..16,
    ) {
        let base = valid_bytes();
        let header_len = base.iter().position(|&b| b == b'\n').unwrap();
        let payload = &base[header_len + 1..];
        let idx = (at as usize) % payload.len();
        let end = (idx + delete).min(payload.len());
        let mut mutated = Vec::with_capacity(payload.len() + insert.len());
        mutated.extend_from_slice(&payload[..idx]);
        mutated.extend_from_slice(&insert);
        mutated.extend_from_slice(&payload[end..]);
        // Keep it UTF-8 (the decoder's first gate) so the JSON parser is hit.
        let payload = String::from_utf8_lossy(&mutated).into_owned();
        match decode_checkpoint(&wrap_payload(&payload)) {
            Ok(_) => {}
            Err(CheckpointError::Decode(_)) => {}
            Err(e) => {
                return Err(TestCaseError::fail(format!(
                    "valid-integrity mutation must reach the decoder, got {e:?}"
                )));
            }
        }
    }

    /// One structural mutation of the parsed payload, integrity recomputed:
    /// the decoder answers `Ok` or `Decode`, and every state it lets through
    /// resumes for a minibatch or is refused with a typed `TrainError`. A
    /// panic anywhere — decode, restore, sampling, the update, the final
    /// measurement — fails the case and names the mutated site.
    #[test]
    fn structural_mutations_decode_and_resume_or_fail_typed(
        site in any::<u64>(),
        pick in any::<u64>(),
    ) {
        let (doc, sites) = corpus_document();
        let mut doc = doc.clone();
        let what = mutate_nth(&mut doc, &mut ((site as usize) % sites), pick as usize)
            .expect("the site exists");
        let payload = serde_json::to_string(&doc).expect("document encodes");
        let outcome = std::panic::catch_unwind(|| match decode_checkpoint(&wrap_payload(&payload)) {
            Ok(state) => drop(resume(state)),
            Err(CheckpointError::Decode(_)) => {}
            Err(e) => panic!("valid-integrity mutation must reach the decoder, got {e:?}"),
        });
        if let Err(panic) = outcome {
            let message = panic
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| panic.downcast_ref::<&str>().copied())
                .unwrap_or("a non-string panic");
            return Err(TestCaseError::fail(format!("mutating {what} panicked: {message}")));
        }
    }

    /// Arbitrary garbage files: typed error, never a panic.
    #[test]
    fn garbage_files_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        prop_assert!(decode_checkpoint(&bytes).is_err());
    }

    /// Garbage that starts with a plausible header prefix, probing the
    /// header-parsing edge specifically.
    #[test]
    fn header_prefix_garbage_never_panics(cut in any::<u64>(), tail in proptest::collection::vec(any::<u8>(), 0..64)) {
        let base = valid_bytes();
        let header_len = base.iter().position(|&b| b == b'\n').unwrap();
        let keep = (cut as usize) % (header_len + 1);
        let mut bytes = base[..keep].to_vec();
        bytes.extend_from_slice(&tail);
        let _ = decode_checkpoint(&bytes);
    }
}

/// Regression (found by this fuzzer): a checksum-valid payload of deeply
/// nested JSON (`[[[[…`) used to overflow the parser's stack — a SIGSEGV
/// abort no caller could catch, because the vendored recursive-descent parser
/// had no depth limit. It must decode-fail like any other bad payload.
#[test]
fn deeply_nested_payload_is_a_decode_error_not_a_crash() {
    for payload in [
        "[".repeat(200_000),
        "{\"a\":".repeat(200_000),
        format!("{}1{}", "[".repeat(4_000), "]".repeat(4_000)),
    ] {
        let err =
            decode_checkpoint(&wrap_payload(&payload)).expect_err("nested payload must not decode");
        assert!(matches!(err, CheckpointError::Decode(_)), "expected Decode error, got {err:?}");
    }
}

/// Wrong magic and wrong schema version are each their own typed error.
#[test]
fn wrong_magic_and_version_are_typed() {
    let base = valid_bytes();
    let text = String::from_utf8(base.to_vec()).unwrap();
    let swapped = text.replacen("eagle-checkpoint", "eagle-checkpoinT", 1);
    assert!(matches!(decode_checkpoint(swapped.as_bytes()), Err(CheckpointError::Header(_))));
    let bumped = text.replacen(
        &format!("\"schema_version\":{CHECKPOINT_SCHEMA_VERSION}"),
        "\"schema_version\":999",
        1,
    );
    assert!(matches!(
        decode_checkpoint(bumped.as_bytes()),
        Err(CheckpointError::SchemaVersion { found: 999, .. })
    ));
}

/// Sorted key paths of a JSON document: names only, every array as `[]`.
fn key_paths(v: &Value, path: &str, out: &mut BTreeSet<String>) {
    match v {
        Value::Object(entries) => {
            for (k, child) in entries {
                let sep = if path.is_empty() { "" } else { "." };
                key_paths(child, &format!("{path}{sep}{k}"), out);
            }
        }
        Value::Array(items) => {
            out.insert(format!("{path}[]"));
            items.iter().for_each(|child| key_paths(child, &format!("{path}[]"), out));
        }
        _ => drop(out.insert(path.to_string())),
    }
}

/// The payload is the live structs (`Progress`, `EnvState`, `SourceCursor`,
/// the cache, the generators) serialized as they stand, so renaming a field
/// of one of them changes what is on disk. This pins the key tree of the
/// corpus payload to the schema version: when it moves, bump
/// `CHECKPOINT_SCHEMA_VERSION` (old files must be refused, not misread) and
/// re-pin both here.
#[test]
fn payload_key_tree_is_pinned_to_the_schema_version() {
    let mut paths = BTreeSet::new();
    key_paths(&corpus_document().0, "", &mut paths);
    let found: Vec<&str> = paths.iter().map(String::as_str).collect();
    let pinned = [
        "entries[]",
        "entries[].baseline.alpha",
        "entries[].baseline.value",
        "entries[].best[]",
        "entries[].best[].devices[]",
        "entries[].env.cache.capacity",
        "entries[].env.cache.entries[]",
        "entries[].env.cache.entries[].devices[]",
        "entries[].env.cache.entries[].step_time",
        "entries[].env.cache.stats.evictions",
        "entries[].env.cache.stats.hits",
        "entries[].env.cache.stats.misses",
        "entries[].env.evals",
        "entries[].env.invalid",
        "entries[].env.rng.block[]",
        "entries[].env.rng.counter",
        "entries[].env.rng.index",
        "entries[].env.rng.key[]",
        "entries[].env.wall_clock",
        "entries[].origin.key",
        "entries[].origin.kind",
        "opt_ce.beta1",
        "opt_ce.beta2",
        "opt_ce.eps",
        "opt_ce.lr",
        "opt_ce.m[]",
        "opt_ce.t",
        "opt_ce.v[]",
        "opt_ppo.beta1",
        "opt_ppo.beta2",
        "opt_ppo.eps",
        "opt_ppo.lr",
        "opt_ppo.m[]",
        "opt_ppo.t",
        "opt_ppo.v[]",
        "opt_reinforce.beta1",
        "opt_reinforce.beta2",
        "opt_reinforce.eps",
        "opt_reinforce.lr",
        "opt_reinforce.m[]",
        "opt_reinforce.t",
        "opt_reinforce.v[]",
        "params.entries[]",
        "params.entries[].name",
        "params.entries[].value.cols",
        "params.entries[].value.data[]",
        "params.entries[].value.rows",
        "progress.curve.label",
        "progress.curve.points[]",
        "progress.curve.points[].best_so_far",
        "progress.curve.points[].measured",
        "progress.curve.points[].sample",
        "progress.curve.points[].wall_clock",
        "progress.history_actions[]",
        "progress.history_actions[][]",
        "progress.history_rewards[]",
        "progress.minibatches",
        "progress.rng.block[]",
        "progress.rng.counter",
        "progress.rng.index",
        "progress.rng.key[]",
        "progress.since_ce",
        "progress.source.rng.block[]",
        "progress.source.rng.counter",
        "progress.source.rng.index",
        "progress.source.rng.key[]",
    ];
    let hint = "the checkpoint payload changed shape: bump the schema version and re-pin";
    assert_eq!(found, pinned, "{hint}");
    assert_eq!(CHECKPOINT_SCHEMA_VERSION, 7, "{hint}");
}
