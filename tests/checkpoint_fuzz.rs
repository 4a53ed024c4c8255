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
//! `EAGLE_FUZZ_CASES` tunes the per-property case count (default 256, the fast
//! PR-gating slice; the nightly job runs 10000+). A failing case persists its
//! seed via `PROPTEST_FAILURE_DIR` for CI artifact upload.

use std::sync::OnceLock;

use eagle::core::{
    decode_checkpoint, encode_checkpoint, fnv1a64, AgentScale, CheckpointError, EagleAgent,
    TrainerState, CHECKPOINT_MAGIC, CHECKPOINT_SCHEMA_VERSION,
};
use eagle::devsim::{Environment, Machine, MeasureConfig};
use eagle::opgraph::{GraphGen, GraphGenConfig};
use eagle::rl::EmaBaseline;
use eagle::tensor::Params;
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Case count per fuzz property: 256 default, 10k+ nightly.
fn fuzz_cases() -> u32 {
    std::env::var("EAGLE_FUZZ_CASES").ok().and_then(|s| s.parse().ok()).unwrap_or(256)
}

/// One valid checkpoint's exact file bytes, built once: a full
/// [`TrainerState`] whose environment wraps a 64-op GraphGen graph.
fn valid_bytes() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
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
        EagleAgent::new(&mut params, &graph, &machine, AgentScale::tiny(), &mut rng);
        let mut baseline = EmaBaseline::new(0.1);
        baseline.advantage(-1.0);
        let mut state = TrainerState {
            samples: 1,
            minibatches: 1,
            since_ce: 1,
            wall: 0.25,
            history_actions: vec![vec![0, 1, 2]],
            history_rewards: vec![-1.0],
            entries: vec![eagle::core::GraphEntryState {
                origin: eagle::core::GraphOrigin::fixed(),
                name: graph.model_name.clone(),
                env: env.save_state(),
                baseline,
                best: Some((2.0, p)),
                graph_samples: 1,
            }],
            ..TrainerState::fresh("fuzz-corpus", params, 11)
        };
        state.curve.push(1, 0.5, Some(2.0));
        encode_checkpoint(&state).expect("corpus checkpoint encodes")
    })
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
    assert_eq!(restored.samples, 1);
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
