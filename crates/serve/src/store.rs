//! The checkpoint-backed policy store.
//!
//! On disk, a store is a directory with one subdirectory per graph family:
//!
//! ```text
//! store/
//!   inception_v3/
//!     policy.json      — manifest: agent kind + scale (how to rebuild the agent)
//!     checkpoint.json  — a standard trainer checkpoint (same format training writes)
//! ```
//!
//! The checkpoint file is exactly what `--checkpoint-dir` training produces, so
//! "publish" is copy-with-validation and a training run can point its checkpoint
//! dir straight into the store for live updates. [`PolicyStore::get`] hashes the
//! checkpoint contents on every call and transparently **hot-reloads** when the
//! bytes change (training published a newer version): the new parameters are
//! swapped in behind an `Arc`, so requests already holding the old entry finish
//! on the old policy — nothing in flight is dropped. Freshness is *content*
//! identity, not a `(len, mtime)` stamp — a same-size rewrite landing within the
//! filesystem's mtime granularity is exactly what a fast re-publish produces,
//! and a stamp check silently serves the stale policy forever. A failed reload
//! (torn copy, version skew) keeps serving the previous entry and bumps
//! `serve.policy_reload_errors`.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use eagle_core::{
    decode_checkpoint, encode_checkpoint, fnv1a64, load_checkpoint, AgentScale, EagleAgent,
    TrainerState, CHECKPOINT_FILE,
};
use eagle_devsim::Machine;
use eagle_obs::Recorder;
use eagle_opgraph::OpGraph;
use eagle_tensor::Params;
use serde::{Deserialize, Serialize};

use crate::error::EagleError;

/// Manifest file name inside a family directory.
pub const MANIFEST_FILE: &str = "policy.json";

/// The family name the server falls back to when a request names an unknown
/// family or none at all: a policy trained on a *distribution* of graphs (the
/// multi-graph generalist trainer) rather than one benchmark. Publishing a
/// policy under this name opts the store into zero-shot answers.
pub const GENERALIST_FAMILY: &str = "generalist";

/// Manifest schema version.
pub const MANIFEST_SCHEMA_VERSION: u64 = 1;

/// Per-family manifest: everything needed to rebuild the serving agent around
/// the checkpoint's parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PolicyManifest {
    /// Manifest schema version ([`MANIFEST_SCHEMA_VERSION`]).
    pub schema_version: u64,
    /// Graph family this policy serves.
    pub family: String,
    /// Agent architecture; only `"eagle"` is currently served.
    pub agent: String,
    /// [`AgentScale`] preset name (`"paper"` / `"quick"` / `"tiny"`).
    pub scale: String,
}

/// One loaded policy: trained parameters plus how to rebuild their agent.
#[derive(Debug)]
pub struct PolicyEntry {
    /// Graph family.
    pub family: String,
    /// Agent scale the parameters were trained at.
    pub scale: AgentScale,
    /// Preset name of `scale`.
    pub scale_name: String,
    /// The trained parameters.
    pub params: Params,
    /// Content version: FNV-1a-64 of the checkpoint file bytes, in hex. This is
    /// the `policy_version` echoed in every [`crate::api::PlaceResponse`], and
    /// also the freshness check [`PolicyStore::get`] compares against.
    pub version: String,
}

/// The content version of checkpoint file `bytes`.
fn content_version(bytes: &[u8]) -> String {
    format!("{:016x}", fnv1a64(bytes))
}

/// A lazy, hot-reloading view over a store directory.
pub struct PolicyStore {
    root: PathBuf,
    entries: Mutex<HashMap<String, Arc<PolicyEntry>>>,
    recorder: Recorder,
}

impl PolicyStore {
    /// Opens a store rooted at `root`. Families load lazily on first
    /// [`get`](Self::get); the directory need not exist yet.
    pub fn open(root: impl Into<PathBuf>, recorder: Recorder) -> Self {
        Self { root: root.into(), entries: Mutex::new(HashMap::new()), recorder }
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn family_dir(&self, family: &str) -> Result<PathBuf, EagleError> {
        // Family keys become path components; refuse separators and dot-files
        // so a wire-supplied family cannot escape the store root.
        if family.is_empty()
            || family.starts_with('.')
            || !family.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
        {
            return Err(EagleError::BadRequest(format!(
                "family key `{family}` is not a valid store name"
            )));
        }
        Ok(self.root.join(family))
    }

    fn load_entry(&self, family: &str) -> Result<PolicyEntry, EagleError> {
        let dir = self.family_dir(family)?;
        let manifest_path = dir.join(MANIFEST_FILE);
        let manifest_bytes = match std::fs::read_to_string(&manifest_path) {
            Ok(s) => s,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Err(EagleError::UnknownFamily(family.to_string()));
            }
            Err(e) => return Err(EagleError::Io(e)),
        };
        let manifest: PolicyManifest = serde_json::from_str(&manifest_bytes)?;
        if manifest.schema_version != MANIFEST_SCHEMA_VERSION {
            return Err(EagleError::PolicyMismatch(format!(
                "manifest schema version {} (this build reads {MANIFEST_SCHEMA_VERSION})",
                manifest.schema_version
            )));
        }
        if manifest.agent != "eagle" {
            return Err(EagleError::PolicyMismatch(format!(
                "agent kind `{}` is not servable (only `eagle`)",
                manifest.agent
            )));
        }
        let scale = AgentScale::from_name(&manifest.scale).ok_or_else(|| {
            EagleError::PolicyMismatch(format!("unknown agent scale `{}`", manifest.scale))
        })?;
        let ckpt_path = dir.join(CHECKPOINT_FILE);
        let bytes = std::fs::read(&ckpt_path).map_err(|e| {
            if e.kind() == std::io::ErrorKind::NotFound {
                EagleError::UnknownFamily(family.to_string())
            } else {
                EagleError::Io(e)
            }
        })?;
        // Version and parameters come from the same read: a publish landing
        // after it cannot pair new parameters with the old version.
        let state = decode_checkpoint(&bytes)?;
        Ok(PolicyEntry {
            family: family.to_string(),
            scale,
            scale_name: manifest.scale,
            params: state.params,
            version: content_version(&bytes),
        })
    }

    /// The current policy for `family`, loading it on first use and hot-
    /// reloading when a newer checkpoint file has appeared. Callers keep the
    /// returned `Arc` for the duration of one request/wave; a concurrent reload
    /// swaps the map entry without invalidating it.
    pub fn get(&self, family: &str) -> Result<Arc<PolicyEntry>, EagleError> {
        let mut entries = self.entries.lock().expect("policy store lock");
        if let Some(current) = entries.get(family).cloned() {
            let ckpt_path = self.family_dir(family)?.join(CHECKPOINT_FILE);
            // Freshness is content identity: hash the bytes and compare with
            // the served version. A (len, mtime) stamp misses the same-size
            // rewrite inside one mtime tick that back-to-back publishes hit.
            match std::fs::read(&ckpt_path) {
                Ok(bytes) if content_version(&bytes) == current.version => return Ok(current),
                // Changed (or temporarily unreadable): attempt a reload, but
                // never stop serving the version we already have.
                _ => match self.load_entry(family) {
                    Ok(fresh) => {
                        self.recorder.add("serve.policy_reloads", 1);
                        let fresh = Arc::new(fresh);
                        entries.insert(family.to_string(), fresh.clone());
                        return Ok(fresh);
                    }
                    Err(_) => {
                        self.recorder.add("serve.policy_reload_errors", 1);
                        return Ok(current);
                    }
                },
            }
        }
        let entry = Arc::new(self.load_entry(family)?);
        self.recorder.add("serve.policy_loads", 1);
        entries.insert(family.to_string(), entry.clone());
        Ok(entry)
    }
}

/// Publishes `state` into `root/<family>/` as a servable policy, returning the
/// content version. The checkpoint is written in the standard trainer format
/// (atomically), then the manifest — so a reader never observes a manifest
/// pointing at a missing checkpoint on first publish, and re-publishes swap the
/// checkpoint in place under the existing manifest.
pub fn publish_state(
    root: &Path,
    family: &str,
    scale_name: &str,
    state: &TrainerState,
) -> Result<String, EagleError> {
    if AgentScale::from_name(scale_name).is_none() {
        return Err(EagleError::BadRequest(format!("unknown agent scale `{scale_name}`")));
    }
    let dir = root.join(family);
    std::fs::create_dir_all(&dir)?;
    let bytes = encode_checkpoint(state)?;
    eagle_obs::write_atomic(dir.join(CHECKPOINT_FILE), &bytes)?;
    let manifest = PolicyManifest {
        schema_version: MANIFEST_SCHEMA_VERSION,
        family: family.to_string(),
        agent: "eagle".to_string(),
        scale: scale_name.to_string(),
    };
    let manifest_json = serde_json::to_string(&manifest)?;
    eagle_obs::write_atomic(dir.join(MANIFEST_FILE), manifest_json.as_bytes())?;
    Ok(content_version(&bytes))
}

/// Publishes an existing checkpoint file (e.g. from a training run's
/// `--checkpoint-dir`) into the store, validating that it decodes first.
pub fn publish_checkpoint(
    root: &Path,
    family: &str,
    scale_name: &str,
    checkpoint: &Path,
) -> Result<String, EagleError> {
    let state = load_checkpoint(checkpoint)?;
    publish_state(root, family, scale_name, &state)
}

/// Fabricates a servable (untrained but warm-started) policy state for
/// `graph`/`machine` at `scale` — how demo stores and CI smoke stores get a
/// policy without hours of training. The grouper warm start gives balanced
/// groupings, so sampled placements are structured rather than degenerate.
pub fn untrained_state(
    graph: &OpGraph,
    machine: &Machine,
    scale: AgentScale,
    seed: u64,
) -> Result<TrainerState, EagleError> {
    use rand::SeedableRng;

    eagle_devsim::check_placeable(graph, machine)?;
    let mut params = Params::new();
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    EagleAgent::new(&mut params, graph, machine, scale, &mut rng);
    Ok(TrainerState::fresh("untrained-seed", params, seed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use eagle_devsim::Benchmark;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("eagle-serve-store-tests").join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn publish_then_get_roundtrips_params() {
        let root = tmp("roundtrip");
        let machine = Machine::small_machine();
        let graph = Benchmark::InceptionV3.graph_for(&machine);
        let state = untrained_state(&graph, &machine, AgentScale::tiny(), 3).unwrap();
        let version = publish_state(&root, "inception_v3", "tiny", &state).unwrap();

        let store = PolicyStore::open(&root, Recorder::new());
        let entry = store.get("inception_v3").unwrap();
        assert_eq!(entry.version, version);
        assert_eq!(entry.scale_name, "tiny");
        assert_eq!(entry.params.len(), state.params.len());
        // Second get is a cache hit (stamp unchanged), same Arc.
        let again = store.get("inception_v3").unwrap();
        assert!(Arc::ptr_eq(&entry, &again));
    }

    #[test]
    fn missing_family_is_typed() {
        let store = PolicyStore::open(tmp("missing"), Recorder::new());
        assert!(matches!(store.get("nope"), Err(EagleError::UnknownFamily(_))));
        // Path-escaping family keys are rejected, not resolved.
        assert!(matches!(store.get("../etc"), Err(EagleError::BadRequest(_))));
        assert!(matches!(store.get(""), Err(EagleError::BadRequest(_))));
    }

    #[test]
    fn hot_reload_swaps_without_invalidating_old_entry() {
        let root = tmp("reload");
        let machine = Machine::small_machine();
        let graph = Benchmark::InceptionV3.graph_for(&machine);
        let s1 = untrained_state(&graph, &machine, AgentScale::tiny(), 1).unwrap();
        let v1 = publish_state(&root, "fam", "tiny", &s1).unwrap();
        let rec = Recorder::new();
        let store = PolicyStore::open(&root, rec.clone());
        let old = store.get("fam").unwrap();
        assert_eq!(old.version, v1);

        let s2 = untrained_state(&graph, &machine, AgentScale::tiny(), 2).unwrap();
        let v2 = publish_state(&root, "fam", "tiny", &s2).unwrap();
        assert_ne!(v1, v2, "different seeds produce different checkpoint bytes");

        let new = store.get("fam").unwrap();
        assert_eq!(new.version, v2);
        assert_eq!(rec.counter_value("serve.policy_reloads"), 1);
        // The old Arc is still fully usable: in-flight requests finish on it.
        assert_eq!(old.version, v1);
        assert_eq!(old.params.len(), s1.params.len());
    }

    /// A checkpoint whose integrity checks pass but whose first tensor is one
    /// value short of its shape: decoded, it would panic the first kernel
    /// that indexes it — in the router thread. It does not decode, so a
    /// reload that finds it keeps the previous policy serving.
    #[test]
    fn reload_of_a_short_tensor_keeps_the_old_policy_serving() {
        let root = tmp("short_tensor");
        let machine = Machine::small_machine();
        let graph = Benchmark::InceptionV3.graph_for(&machine);
        let state = untrained_state(&graph, &machine, AgentScale::tiny(), 1).unwrap();
        let v1 = publish_state(&root, "fam", "tiny", &state).unwrap();
        let rec = Recorder::new();
        let store = PolicyStore::open(&root, rec.clone());
        assert_eq!(store.get("fam").unwrap().version, v1);

        // Drop the first value of the first `data`, then re-wrap the payload
        // the way `encode_checkpoint` does so only the decoder can object.
        let ckpt = root.join("fam").join(CHECKPOINT_FILE);
        let text = std::fs::read_to_string(&ckpt).unwrap();
        let payload = text.split_once('\n').unwrap().1;
        let at = payload.find("\"data\":[").unwrap() + "\"data\":[".len();
        let comma = at + payload[at..].find(',').unwrap();
        let short = format!("{}{}", &payload[..at], &payload[comma + 1..]);
        let header = format!(
            r#"{{"magic":"{}","schema_version":{},"checksum":{},"payload_bytes":{}}}"#,
            eagle_core::CHECKPOINT_MAGIC,
            eagle_core::CHECKPOINT_SCHEMA_VERSION,
            fnv1a64(short.as_bytes()),
            short.len()
        );
        std::fs::write(&ckpt, format!("{header}\n{short}")).unwrap();
        assert!(matches!(
            load_checkpoint(&ckpt),
            Err(eagle_core::CheckpointError::Decode(m)) if m.contains("tensor of shape")
        ));
        assert!(matches!(
            publish_checkpoint(&root, "other", "tiny", &ckpt),
            Err(EagleError::Checkpoint(_))
        ));

        let served = store.get("fam").unwrap();
        assert_eq!(served.version, v1, "the previous policy keeps serving");
        assert_eq!(served.params.len(), state.params.len());
        assert_eq!(rec.counter_value("serve.policy_reload_errors"), 1);
        assert_eq!(rec.counter_value("serve.policy_reloads"), 0);
    }

    /// Regression: a republish that changes content but keeps the byte length
    /// AND lands within the filesystem's mtime granularity must still reload.
    /// The old `(len, mtime)` stamp check served the stale policy forever in
    /// exactly this case; the test pins the collision by forcing the rewritten
    /// file back to the original mtime.
    #[test]
    fn hot_reload_sees_same_size_same_mtime_rewrite() {
        let root = tmp("stealth_rewrite");
        let machine = Machine::small_machine();
        let graph = Benchmark::InceptionV3.graph_for(&machine);
        let mut s1 = untrained_state(&graph, &machine, AgentScale::tiny(), 7).unwrap();
        s1.progress.samples = 1;
        let v1 = publish_state(&root, "fam", "tiny", &s1).unwrap();
        let store = PolicyStore::open(&root, Recorder::new());
        assert_eq!(store.get("fam").unwrap().version, v1);

        let ckpt = root.join("fam").join(CHECKPOINT_FILE);
        let before = std::fs::metadata(&ckpt).unwrap();
        let (len, mtime) = (before.len(), before.modified().unwrap());

        // Same seed, different `samples`: different bytes, identical length.
        // (The header checksum is a decimal u64 whose digit count can move the
        // total length by a byte, so probe until a republish lands same-size.)
        let mut v2 = None;
        for samples in 2..=64 {
            let mut s2 = untrained_state(&graph, &machine, AgentScale::tiny(), 7).unwrap();
            s2.progress.samples = samples;
            let v = publish_state(&root, "fam", "tiny", &s2).unwrap();
            if std::fs::metadata(&ckpt).unwrap().len() == len {
                v2 = Some(v);
                break;
            }
        }
        let v2 = v2.expect("some samples value republishes at the original length");
        assert_ne!(v1, v2, "content must actually differ");
        // Pin the mtime back so a (len, mtime) stamp cannot tell them apart.
        let f = std::fs::OpenOptions::new().write(true).open(&ckpt).unwrap();
        f.set_modified(mtime).unwrap();
        f.sync_all().unwrap();
        drop(f);

        let fresh = store.get("fam").unwrap();
        assert_eq!(fresh.version, v2, "stale policy served across a stealth rewrite");
        assert_eq!(fresh.params.len(), s1.params.len());
    }
}
