//! Checkpointing: persist and restore the complete training state.
//!
//! Training against real hardware costs hours (the paper's setting), so being able
//! to stop and resume an agent — or to re-evaluate a trained placement later — is
//! table stakes for a usable system. This module persists three kinds of artifact:
//!
//! * **Parameters** ([`save_params`] / [`load_params`]) and **curves**
//!   ([`save_curve`] / [`load_curve`]) — plain JSON files for post-hoc analysis.
//! * **Checkpoints** ([`save_checkpoint`] / [`load_checkpoint`]) — the full
//!   [`TrainerState`] a run needs to resume *bit-identically*: the loop's own
//!   [`Progress`] (minibatch count, trainer RNG, source cursor, CE elite
//!   history, curve), policy parameters, all three optimizers' Adam moments, and per
//!   resident graph its environment's [`EnvState`], EMA baseline and best
//!   placement. Each of these is the struct the run mutates, stored as it
//!   stands — there is no second, "serialized" definition to keep in step.
//!
//! Every write goes through [`eagle_obs::write_atomic`] (tmp + fsync + rename),
//! so a crash mid-save never corrupts the previous checkpoint.
//!
//! # File format
//!
//! A checkpoint is a JSON header line followed by a JSON payload:
//!
//! ```text
//! {"magic":"eagle-checkpoint","schema_version":N,"checksum":...,"payload_bytes":...}
//! {"progress":{"minibatches":12,"since_ce":0,...},"params":...}
//! ```
//!
//! The header carries a schema version (`N` is [`CHECKPOINT_SCHEMA_VERSION`], bumped whenever [`TrainerState`] changes
//! shape) and an FNV-1a 64-bit checksum over the payload bytes. [`load_checkpoint`]
//! verifies magic, version, length, and checksum before decoding, and reports any
//! mismatch as a typed [`CheckpointError`] — never a panic — so callers can decide
//! between "start fresh" (missing file) and "refuse to clobber" (corrupt file).

use std::io;
use std::path::Path;

use eagle_devsim::{CheckpointRng, EnvState, Placement};
use eagle_rl::EmaBaseline;
use eagle_tensor::optim::Adam;
use eagle_tensor::Params;

use crate::curve::Curve;
use crate::source::{GraphOrigin, SourceCursor};

/// First byte sequence of every checkpoint header; identifies the file type.
pub const CHECKPOINT_MAGIC: &str = "eagle-checkpoint";

/// Current checkpoint schema version. Bump whenever [`TrainerState`] (or the
/// types it embeds) changes shape; [`load_checkpoint`] rejects other versions
/// with [`CheckpointError::SchemaVersion`] instead of misdecoding silently.
///
/// v2: multi-graph trainer state — the single `baseline`/`best`/`env` fields
/// became a vector of per-graph [`GraphEntryState`]s, plus the graph-source
/// cursor (`source`), the trainer-level wall-clock (`wall`) and the
/// retired-environment counter snapshot (`retired_snapshot`).
///
/// v3: `Params` entries are `name` + `value` only; the per-parameter `grad`
/// tensor left the store (gradients live in `eagle_tensor::Grads`).
///
/// v4: the payload is the live state itself. The loop's fields moved under
/// `progress` ([`Progress`]); an environment stores its cache as one `cache`
/// object (`capacity`, `stats`, `entries`) where v3 spelled out three
/// `cache_*` fields; and every fact is stored once: the environment's own
/// `best`, the start-of-run counter snapshot (always zeros) and a pool
/// entry's name and sample count (its source's name for the origin, its
/// environment's `evals`) are gone.
///
/// v5: `Progress` holds nothing its `curve` determines. The sample count,
/// the invalid count and the trainer-level wall-clock (`samples`,
/// `num_invalid`, `wall`) are the curve's length, its invalid points and its
/// last point's `wall_clock`; the retired-environment counters (`retired`)
/// and the curve's end-of-run `telemetry` snapshot are gone — run totals are
/// recorder counters.
pub const CHECKPOINT_SCHEMA_VERSION: u64 = 5;

/// Conventional checkpoint file name inside a `--checkpoint-dir` directory.
pub const CHECKPOINT_FILE: &str = "checkpoint.json";

/// Why a checkpoint could not be read (or written).
#[derive(Debug)]
pub enum CheckpointError {
    /// Filesystem error (the missing-file case callers usually treat as
    /// "start fresh"; see [`CheckpointError::is_not_found`]).
    Io(io::Error),
    /// The file has no header/payload structure or the header line is not the
    /// expected JSON object.
    Header(String),
    /// The header's schema version does not match this build's.
    SchemaVersion {
        /// Version found in the file.
        found: u64,
        /// Version this build reads and writes.
        expected: u64,
    },
    /// The payload is shorter than the header declares (torn or truncated file).
    Truncated {
        /// Payload bytes the header declares.
        expected: u64,
        /// Payload bytes actually present.
        actual: u64,
    },
    /// The payload bytes do not hash to the header's checksum (bit rot or a
    /// hand-edited file).
    Checksum {
        /// Checksum recorded in the header.
        expected: u64,
        /// Checksum of the bytes actually read.
        actual: u64,
    },
    /// The payload passed integrity checks but is not a valid [`TrainerState`].
    Decode(String),
}

impl CheckpointError {
    /// True when the error is "the file does not exist" — the one failure a
    /// resuming caller should treat as "no checkpoint yet, start fresh" rather
    /// than a corrupt artifact worth aborting over.
    pub fn is_not_found(&self) -> bool {
        matches!(self, CheckpointError::Io(e) if e.kind() == io::ErrorKind::NotFound)
    }
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            CheckpointError::Header(m) => write!(f, "bad checkpoint header: {m}"),
            CheckpointError::SchemaVersion { found, expected } => write!(
                f,
                "checkpoint schema version {found} is not the supported version {expected}"
            ),
            CheckpointError::Truncated { expected, actual } => write!(
                f,
                "checkpoint truncated: header declares {expected} payload bytes, found {actual}"
            ),
            CheckpointError::Checksum { expected, actual } => write!(
                f,
                "checkpoint checksum mismatch: header says {expected:#018x}, payload hashes to {actual:#018x}"
            ),
            CheckpointError::Decode(m) => write!(f, "checkpoint payload did not decode: {m}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<io::Error> for CheckpointError {
    fn from(e: io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

/// One resident graph of the trainer's environment pool, as checkpointed:
/// the graph's origin (rebuildable from the source), its complete environment
/// state, its reward baseline and its best placement.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct GraphEntryState {
    /// Source origin the graph is rebuilt from on resume.
    pub origin: GraphOrigin,
    /// Complete environment state: noise-RNG position, counters, simulated
    /// wall-clock and the full placement cache, oldest entry first.
    pub env: EnvState,
    /// Per-graph EMA reward baseline.
    pub baseline: EmaBaseline,
    /// Best placement sampled on this graph and its measured per-step time.
    pub best: Option<(f64, Placement)>,
}

/// Everything the training loop itself advances, minibatch by minibatch. The
/// loop runs on this struct and a checkpoint stores it as it stands, so a
/// field added here is checkpointed and resumed without further code
/// ([`TrainerState::fresh`] says where it starts). What the curve already
/// determines is not stored twice: samples drawn are `curve.points.len()`,
/// invalid samples `curve.num_invalid()`, and the trainer-level simulated
/// wall-clock the last point's `wall_clock`.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct Progress {
    /// Minibatches completed so far.
    pub minibatches: u64,
    /// Samples accumulated since the last cross-entropy update.
    pub since_ce: usize,
    /// Trainer sampling RNG.
    pub rng: CheckpointRng,
    /// Graph-source cursor (stream RNG + draw count), so a resumed
    /// multi-graph run continues the *same* graph sequence.
    pub source: SourceCursor,
    /// Rolling window of sampled action sequences (CE elite pool), oldest first.
    pub history_actions: Vec<Vec<usize>>,
    /// Rewards aligned with `history_actions`.
    pub history_rewards: Vec<f64>,
    /// The training curve so far (its label doubles as the agent identity check
    /// on resume).
    pub curve: Curve,
}

/// The complete mutable state of a training run at a minibatch boundary.
///
/// Everything the resumable loop in [`crate::Trainer::train_from`] needs to
/// continue exactly where the interrupted run stopped: restoring this state and
/// re-running produces bit-identical curves, parameters, and best placements to
/// the uninterrupted run (locked by `tests/checkpoint_resume.rs`). The immutable
/// inputs — graph source, machine, agent architecture, [`crate::TrainerConfig`]
/// — are *not* stored; the caller reconstructs those and must pass the same
/// ones.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct TrainerState {
    /// The loop's own state.
    pub progress: Progress,
    /// Policy parameters.
    pub params: Params,
    /// REINFORCE optimizer state (Adam step count + moments).
    pub opt_reinforce: Adam,
    /// PPO optimizer state.
    pub opt_ppo: Adam,
    /// Cross-entropy optimizer state.
    pub opt_ce: Adam,
    /// Resident per-graph pool entries in FIFO (insertion) order — one entry
    /// for single-graph sources.
    pub entries: Vec<GraphEntryState>,
}

impl TrainerState {
    /// The state of a run that has not started: no samples, no resident
    /// graphs, an empty curve labelled `label` (the agent's name), and the
    /// sampling RNG and source cursor at the start of `seed`'s streams.
    /// [`Trainer::train`](crate::Trainer::train) starts from it, and a
    /// policy store publishes it to serve `params` as they are. The
    /// optimizers carry no moments yet; their learning rate is the paper's.
    pub fn fresh(label: &str, params: Params, seed: u64) -> Self {
        Self {
            progress: Progress {
                minibatches: 0,
                since_ce: 0,
                rng: CheckpointRng::seed_from_u64(seed),
                source: SourceCursor::new(seed),
                history_actions: Vec::new(),
                history_rewards: Vec::new(),
                curve: Curve::new(label),
            },
            params,
            opt_reinforce: Adam::new(0.01),
            opt_ppo: Adam::new(0.01),
            opt_ce: Adam::new(0.01),
            entries: Vec::new(),
        }
    }
}

/// FNV-1a, 64-bit: tiny, dependency-free, and plenty for torn-write detection
/// (this guards against accidents, not adversaries). Public so downstream
/// consumers (the serving policy store) can derive stable content versions
/// with the same hash the checkpoint header uses.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Header line of the checkpoint file; see the module docs for the format.
#[derive(Debug, serde::Serialize, serde::Deserialize)]
struct Header {
    magic: String,
    schema_version: u64,
    checksum: u64,
    payload_bytes: u64,
}

/// The bytes of a versioned, checksummed checkpoint of `state`: what
/// [`save_checkpoint`] writes and [`decode_checkpoint`] reads.
pub fn encode_checkpoint(state: &TrainerState) -> Result<Vec<u8>, CheckpointError> {
    let payload =
        serde_json::to_string(state).map_err(|e| CheckpointError::Decode(e.to_string()))?;
    let header = Header {
        magic: CHECKPOINT_MAGIC.to_string(),
        schema_version: CHECKPOINT_SCHEMA_VERSION,
        checksum: fnv1a64(payload.as_bytes()),
        payload_bytes: payload.len() as u64,
    };
    let header_json =
        serde_json::to_string(&header).map_err(|e| CheckpointError::Decode(e.to_string()))?;
    let mut bytes = Vec::with_capacity(header_json.len() + 1 + payload.len());
    bytes.extend_from_slice(header_json.as_bytes());
    bytes.push(b'\n');
    bytes.extend_from_slice(payload.as_bytes());
    Ok(bytes)
}

/// Atomically writes `state` as a versioned, checksummed checkpoint at `path`.
///
/// The write goes through [`eagle_obs::write_atomic`], so a crash mid-save
/// leaves the previous checkpoint (if any) intact.
pub fn save_checkpoint(
    state: &TrainerState,
    path: impl AsRef<Path>,
) -> Result<(), CheckpointError> {
    eagle_obs::write_atomic(path, &encode_checkpoint(state)?)?;
    Ok(())
}

/// Verifies and decodes checkpoint bytes produced by [`encode_checkpoint`].
///
/// Verifies, in order: the header parses and carries the right magic, the
/// schema version matches, the payload length matches the header's declaration
/// (catching truncation), and the FNV-1a checksum matches (catching corruption)
/// — each failure is a distinct [`CheckpointError`] variant, never a panic.
pub fn decode_checkpoint(bytes: &[u8]) -> Result<TrainerState, CheckpointError> {
    let text = std::str::from_utf8(bytes)
        .map_err(|e| CheckpointError::Header(format!("not UTF-8: {e}")))?;
    let Some((header_line, payload)) = text.split_once('\n') else {
        return Err(CheckpointError::Header("missing header/payload separator".into()));
    };
    let header: Header =
        serde_json::from_str(header_line).map_err(|e| CheckpointError::Header(e.to_string()))?;
    if header.magic != CHECKPOINT_MAGIC {
        return Err(CheckpointError::Header(format!("unknown magic '{}'", header.magic)));
    }
    if header.schema_version != CHECKPOINT_SCHEMA_VERSION {
        return Err(CheckpointError::SchemaVersion {
            found: header.schema_version,
            expected: CHECKPOINT_SCHEMA_VERSION,
        });
    }
    let actual_len = payload.len() as u64;
    if actual_len < header.payload_bytes {
        return Err(CheckpointError::Truncated {
            expected: header.payload_bytes,
            actual: actual_len,
        });
    }
    if actual_len > header.payload_bytes {
        return Err(CheckpointError::Header(format!(
            "payload has {actual_len} bytes but header declares {}",
            header.payload_bytes
        )));
    }
    let actual = fnv1a64(payload.as_bytes());
    if actual != header.checksum {
        return Err(CheckpointError::Checksum { expected: header.checksum, actual });
    }
    serde_json::from_str(payload).map_err(|e| CheckpointError::Decode(e.to_string()))
}

/// Reads the checkpoint file at `path` and [`decode_checkpoint`]s it.
pub fn load_checkpoint(path: impl AsRef<Path>) -> Result<TrainerState, CheckpointError> {
    decode_checkpoint(&std::fs::read(path)?)
}

/// Serializes a parameter store to JSON at `path` (atomic write).
pub fn save_params(params: &Params, path: impl AsRef<Path>) -> io::Result<()> {
    let json = serde_json::to_string(params).map_err(io::Error::other)?;
    eagle_obs::write_atomic(path, json.as_bytes())
}

/// Restores a parameter store saved by [`save_params`].
pub fn load_params(path: impl AsRef<Path>) -> io::Result<Params> {
    let json = std::fs::read_to_string(path)?;
    serde_json::from_str(&json).map_err(io::Error::other)
}

/// Serializes a training curve to JSON at `path` (atomic write).
pub fn save_curve(curve: &Curve, path: impl AsRef<Path>) -> io::Result<()> {
    let json = serde_json::to_string(curve).map_err(io::Error::other)?;
    eagle_obs::write_atomic(path, json.as_bytes())
}

/// Restores a curve saved by [`save_curve`].
pub fn load_curve(path: impl AsRef<Path>) -> io::Result<Curve> {
    let json = std::fs::read_to_string(path)?;
    serde_json::from_str(&json).map_err(io::Error::other)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agents::{EagleAgent, PlacementAgent};
    use crate::scale::AgentScale;
    use eagle_devsim::{Benchmark, Environment, Machine, MeasureConfig};
    use eagle_rl::StochasticPolicy;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("eagle-checkpoint-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    /// A small but fully populated TrainerState for format tests.
    fn sample_state() -> TrainerState {
        let machine = Machine::paper_machine();
        let graph = Benchmark::InceptionV3.graph_for(&machine);
        let mut env = Environment::builder(graph.clone(), machine.clone())
            .measure(MeasureConfig::exact())
            .seed(11)
            .build()
            .unwrap();
        let p = eagle_devsim::predefined::single_gpu(&graph, &machine);
        env.evaluate(&p);
        let mut params = Params::new();
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let _agent = EagleAgent::new(&mut params, &graph, &machine, AgentScale::tiny(), &mut rng);
        let mut baseline = EmaBaseline::new(0.1);
        baseline.advantage(-1.0);
        let fresh = TrainerState::fresh("format-test", params, 4);
        let mut state = TrainerState {
            progress: Progress {
                minibatches: 1,
                since_ce: 1,
                history_actions: vec![vec![0, 1, 2]],
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
        state
    }

    #[test]
    fn checkpoint_roundtrip_is_exact() {
        let state = sample_state();
        let path = tmp("roundtrip.json");
        save_checkpoint(&state, &path).unwrap();
        let restored = load_checkpoint(&path).unwrap();
        let (was, now) = (&state.progress, &restored.progress);
        assert_eq!(now.minibatches, was.minibatches);
        assert_eq!(now.rng, was.rng);
        assert_eq!(now.source, was.source);
        assert_eq!(now.history_actions, was.history_actions);
        assert_eq!(now.history_rewards, was.history_rewards);
        assert_eq!(now.curve.points, was.curve.points);
        assert_eq!(restored.entries.len(), 1);
        assert_eq!(restored.entries[0].origin, state.entries[0].origin);
        assert_eq!(restored.entries[0].env, state.entries[0].env);
        assert_eq!(restored.entries[0].baseline, state.entries[0].baseline);
        let (t0, p0) = state.entries[0].best.as_ref().unwrap();
        let (t1, p1) = restored.entries[0].best.as_ref().unwrap();
        assert_eq!(t0.to_bits(), t1.to_bits(), "float fields round-trip bit-exactly");
        assert_eq!(p0, p1);
        assert_eq!(restored.params.num_scalars(), state.params.num_scalars());
    }

    #[test]
    fn corrupted_payload_is_rejected_with_checksum_error() {
        let mut bytes = encode_checkpoint(&sample_state()).unwrap();
        // Flip a byte safely inside the payload: swap a digit for another digit
        // so lengths are preserved and only the checksum can catch it.
        let nl = bytes.iter().position(|&b| b == b'\n').unwrap();
        let target = bytes[nl..]
            .iter()
            .position(|&b| b.is_ascii_digit())
            .map(|i| nl + i)
            .expect("payload contains a digit");
        bytes[target] = if bytes[target] == b'9' { b'8' } else { b'9' };
        match decode_checkpoint(&bytes) {
            Err(CheckpointError::Checksum { expected, actual }) => assert_ne!(expected, actual),
            other => panic!("expected Checksum error, got {other:?}"),
        }
    }

    #[test]
    fn truncated_file_is_rejected() {
        let bytes = encode_checkpoint(&sample_state()).unwrap();
        match decode_checkpoint(&bytes[..bytes.len() - 40]) {
            Err(CheckpointError::Truncated { expected, actual }) => assert!(actual < expected),
            other => panic!("expected Truncated error, got {other:?}"),
        }
    }

    #[test]
    fn schema_version_skew_is_rejected() {
        let text = String::from_utf8(encode_checkpoint(&sample_state()).unwrap()).unwrap();
        // The predecessor (v4, with the counts its curve already holds) and
        // a future version are both refused before the payload is looked at.
        for skew in [4, CHECKPOINT_SCHEMA_VERSION + 1] {
            let skewed = text.replacen(
                &format!("\"schema_version\":{CHECKPOINT_SCHEMA_VERSION}"),
                &format!("\"schema_version\":{skew}"),
                1,
            );
            assert_ne!(text, skewed, "header rewrite must hit");
            match decode_checkpoint(skewed.as_bytes()) {
                Err(CheckpointError::SchemaVersion { found, expected: 5 }) => {
                    assert_eq!(found, skew)
                }
                other => panic!("expected SchemaVersion error, got {other:?}"),
            }
        }
    }

    #[test]
    fn garbage_and_missing_files_are_typed_not_panics() {
        let path = tmp("garbage.json");
        std::fs::write(&path, "not a checkpoint at all").unwrap();
        assert!(matches!(load_checkpoint(&path), Err(CheckpointError::Header(_))));

        let missing = load_checkpoint(tmp("never-written.json")).unwrap_err();
        assert!(missing.is_not_found());
        // ... but a header error is not "not found".
        assert!(!load_checkpoint(&path).unwrap_err().is_not_found());
    }

    #[test]
    fn params_roundtrip_preserves_agent_behaviour() {
        let machine = Machine::paper_machine();
        let graph = Benchmark::InceptionV3.graph_for(&machine);
        let mut params = Params::new();
        let mut rng = ChaCha8Rng::seed_from_u64(31);
        let agent = EagleAgent::new(&mut params, &graph, &machine, AgentScale::tiny(), &mut rng);

        let path = tmp("params.json");
        save_params(&params, &path).unwrap();
        let restored = load_params(&path).unwrap();
        assert_eq!(restored.len(), params.len());
        assert_eq!(restored.num_scalars(), params.num_scalars());

        // Identical sampling behaviour with identical RNG streams.
        let mut r1 = ChaCha8Rng::seed_from_u64(5);
        let mut r2 = ChaCha8Rng::seed_from_u64(5);
        let (a1, lp1) = agent.sample_batch(&params, &mut [&mut r1]).remove(0);
        let (a2, lp2) = agent.sample_batch(&restored, &mut [&mut r2]).remove(0);
        assert_eq!(a1, a2);
        assert_eq!(lp1, lp2);
        // And identical decoded placements.
        assert_eq!(agent.decode_batch(&params, &[a1]), agent.decode_batch(&restored, &[a2]));
    }

    #[test]
    fn params_text_is_pinned_across_commits() {
        // FNV-1a-64 of the `save_params` bytes of a quick-scale EAGLE agent
        // (Inception-V3, seed 7), computed at the commit *before* parameter
        // values became shared `Arc`s. A published policy's version is this
        // hash of its parameter file, so equal hashes prove neither published
        // versions nor checkpoints moved.
        let machine = Machine::paper_machine();
        let graph = Benchmark::InceptionV3.graph_for(&machine);
        let mut params = Params::new();
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let _ = EagleAgent::new(&mut params, &graph, &machine, AgentScale::quick(), &mut rng);
        let path = tmp("params-pinned.json");
        save_params(&params, &path).unwrap();
        let got = fnv1a64(&std::fs::read(&path).unwrap());
        assert_eq!(got, 0x2186_6e12_19f8_d30f, "{got:#018x}");
    }

    #[test]
    fn params_json_is_name_and_value_and_a_legacy_grad_key_is_ignored() {
        let mut params = Params::new();
        params.add("w", eagle_tensor::Tensor::row_vector(&[1.5, -2.0]));
        let path = tmp("params-shape.json");
        save_params(&params, &path).unwrap();
        let json = std::fs::read_to_string(&path).unwrap();
        let doc: serde_json::Value = serde_json::from_str(&json).unwrap();
        let serde_json::Value::Object(entry) = &doc["entries"][0] else {
            panic!("entry is not an object: {json}")
        };
        let keys: Vec<&str> = entry.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["name", "value"]);

        // Stores written before gradients moved to `Grads` carry a `grad`
        // tensor per entry: ignored, not an error.
        let legacy = json.replacen(
            "\"value\":",
            "\"grad\":{\"rows\":1,\"cols\":2,\"data\":[0.0,0.0]},\"value\":",
            1,
        );
        assert_ne!(legacy, json, "legacy rewrite must hit");
        std::fs::write(&path, legacy).unwrap();
        let restored = load_params(&path).unwrap();
        assert_eq!(serde_json::to_string(&restored).unwrap(), json);
    }

    #[test]
    fn curve_roundtrip() {
        let mut curve = Curve::new("roundtrip");
        curve.push(1, 10.0, Some(2.0));
        curve.push(2, 20.0, None);
        let path = tmp("curve.json");
        save_curve(&curve, &path).unwrap();
        let restored = load_curve(&path).unwrap();
        assert_eq!(restored.label, "roundtrip");
        assert_eq!(restored.points, curve.points);
    }

    #[test]
    fn load_missing_file_errors() {
        assert!(load_params(tmp("nope.json")).is_err());
        assert!(load_curve(tmp("nope2.json")).is_err());
    }
}
