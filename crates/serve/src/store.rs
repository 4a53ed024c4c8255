//! The policy store: per graph family, the trained parameters and a manifest
//! that names them.
//!
//! On disk, a store is a directory with one subdirectory per graph family:
//!
//! ```text
//! store/
//!   inception_v3/
//!     params.json  — the `Params` JSON of `eagle_core::checkpoint::save_params`
//!     policy.json  — manifest: {schema_version, scale, version}
//! ```
//!
//! `version` is the FNV-1a-64 of the parameter file's bytes, computed once at
//! publish; parameters are written first and the manifest second, both
//! atomically. [`PolicyStore::get`] reads the manifest on every call and
//! serves the cached entry while its `version` is the one the manifest names;
//! otherwise it **hot-reloads**: the new parameters are swapped in behind an
//! `Arc`, so requests already holding the old entry finish on the old policy —
//! nothing in flight is dropped. Freshness is *content* identity, not a
//! `(len, mtime)` stamp — a same-size rewrite landing within the filesystem's
//! mtime granularity is exactly what a fast re-publish produces. Parameter
//! bytes whose hash is not the manifest's (a load between a publish's two
//! writes, a torn copy) are refused like any failed reload: the previous
//! entry keeps serving and `serve.policy_reload_errors` is bumped. Nothing
//! here depends on the trainer's checkpoint schema; only
//! [`publish_checkpoint`] touches it, to strip a checkpoint to what is served.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use eagle_core::{fnv1a64, AgentScale, EagleAgent, TrainerState};
use eagle_devsim::Machine;
use eagle_obs::Recorder;
use eagle_opgraph::OpGraph;
use eagle_tensor::Params;
use serde::{Deserialize, Serialize};

use crate::error::EagleError;

const PARAMS_FILE: &str = "params.json";
const MANIFEST_FILE: &str = "policy.json";
const MANIFEST_SCHEMA_VERSION: u64 = 2;

/// The family name the server falls back to when a request names an unknown
/// family or none at all: a policy trained on a *distribution* of graphs (the
/// multi-graph generalist trainer) rather than one benchmark. Publishing a
/// policy under this name opts the store into zero-shot answers.
pub const GENERALIST_FAMILY: &str = "generalist";

/// Per-family manifest: which parameter bytes are published and how to
/// rebuild the serving agent around them.
#[derive(Serialize, Deserialize)]
struct PolicyManifest {
    schema_version: u64,
    /// [`AgentScale`] preset name (`"paper"` / `"quick"` / `"tiny"`).
    scale: String,
    /// [`content_version`] of the parameter file.
    version: String,
}

/// The one field every manifest schema has.
#[derive(Deserialize)]
struct ManifestSchema {
    schema_version: u64,
}

/// One loaded policy: trained parameters plus how to rebuild their agent.
#[derive(Debug)]
pub struct PolicyEntry {
    /// Graph family.
    pub family: String,
    /// Agent scale the parameters were trained at.
    pub scale: AgentScale,
    /// The trained parameters.
    pub params: Params,
    /// Content version: FNV-1a-64 of the parameter file bytes, in hex. This is
    /// the `policy_version` echoed in every [`crate::api::PlaceResponse`], and
    /// what [`PolicyStore::get`] compares with the manifest.
    pub version: String,
}

/// The content version of parameter file `bytes`.
fn content_version(bytes: &[u8]) -> String {
    format!("{:016x}", fnv1a64(bytes))
}

/// `root/<family>`. Family keys become path components; separators and
/// dot-files are refused so neither a wire-supplied nor a published family
/// can leave the store root.
fn family_dir(root: &Path, family: &str) -> Result<PathBuf, EagleError> {
    if family.is_empty()
        || family.starts_with('.')
        || !family.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
    {
        return Err(EagleError::BadRequest(format!(
            "family key `{family}` is not a valid store name"
        )));
    }
    Ok(root.join(family))
}

/// Reads and checks `dir`'s manifest.
fn read_manifest(dir: &Path, family: &str) -> Result<PolicyManifest, EagleError> {
    let text = std::fs::read_to_string(dir.join(MANIFEST_FILE)).map_err(|e| {
        if e.kind() == std::io::ErrorKind::NotFound {
            EagleError::UnknownFamily(family.to_string())
        } else {
            EagleError::Io(e)
        }
    })?;
    // The version alone first: another schema is refused by its number, not
    // by whichever field it happens to lack.
    let ManifestSchema { schema_version } = serde_json::from_str(&text)?;
    if schema_version != MANIFEST_SCHEMA_VERSION {
        return Err(EagleError::PolicyMismatch(format!(
            "manifest schema version {schema_version} (this build reads \
             {MANIFEST_SCHEMA_VERSION}); publish the policy again"
        )));
    }
    Ok(serde_json::from_str(&text)?)
}

/// Loads the parameters `manifest` names from `dir`, refusing any others.
fn load_entry(
    dir: &Path,
    family: &str,
    manifest: PolicyManifest,
) -> Result<PolicyEntry, EagleError> {
    let scale = AgentScale::from_name(&manifest.scale).ok_or_else(|| {
        EagleError::PolicyMismatch(format!("unknown agent scale `{}`", manifest.scale))
    })?;
    let text = std::fs::read_to_string(dir.join(PARAMS_FILE))?;
    // Version and parameters come from the same bytes: a load landing between
    // a publish's two writes cannot pair new parameters with the old version.
    let found = content_version(text.as_bytes());
    if found != manifest.version {
        return Err(EagleError::PolicyMismatch(format!(
            "parameter file has version {found}, the manifest names {}",
            manifest.version
        )));
    }
    let params: Params = serde_json::from_str(&text)?;
    // JSON can spell a float no `f32` holds (`1e300`); a resume refuses it
    // for the same reason.
    if let Some(id) = params.ids().find(|&id| !params.get(id).all_finite()) {
        let name = params.name(id);
        return Err(EagleError::PolicyMismatch(format!("tensor {name} holds a non-finite value")));
    }
    Ok(PolicyEntry { family: family.to_string(), scale, params, version: found })
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

    /// The current policy for `family`, loading it on first use and hot-
    /// reloading when the manifest names other parameters than the ones
    /// served. Callers keep the returned `Arc` for the duration of one
    /// request/wave; a concurrent reload swaps the map entry without
    /// invalidating it.
    pub fn get(&self, family: &str) -> Result<Arc<PolicyEntry>, EagleError> {
        let dir = family_dir(&self.root, family)?;
        let mut entries = self.entries.lock().expect("policy store lock");
        let manifest = read_manifest(&dir, family);
        let (entry, counter) = match entries.get(family).cloned() {
            Some(current) => match manifest {
                Ok(m) if m.version == current.version => return Ok(current),
                // Republished (or unreadable): attempt a reload, but never
                // stop serving the version already held.
                manifest => match manifest.and_then(|m| load_entry(&dir, family, m)) {
                    Ok(fresh) => (fresh, "serve.policy_reloads"),
                    Err(_) => {
                        self.recorder.add("serve.policy_reload_errors", 1);
                        return Ok(current);
                    }
                },
            },
            None => (load_entry(&dir, family, manifest?)?, "serve.policy_loads"),
        };
        self.recorder.add(counter, 1);
        let entry = Arc::new(entry);
        entries.insert(family.to_string(), entry.clone());
        Ok(entry)
    }
}

/// Publishes `state`'s parameters into `root/<family>/` as a servable policy,
/// returning the content version. The parameter file is written first and the
/// manifest naming it second, both atomically: a reader between the two sees
/// a manifest whose version the parameter bytes do not hash to, and refuses.
pub fn publish_state(
    root: &Path,
    family: &str,
    scale: &str,
    state: &TrainerState,
) -> Result<String, EagleError> {
    if AgentScale::from_name(scale).is_none() {
        return Err(EagleError::BadRequest(format!("unknown agent scale `{scale}`")));
    }
    let dir = family_dir(root, family)?;
    std::fs::create_dir_all(&dir)?;
    let params = serde_json::to_string(&state.params)?;
    let version = content_version(params.as_bytes());
    eagle_obs::write_atomic(dir.join(PARAMS_FILE), params.as_bytes())?;
    let manifest = PolicyManifest {
        schema_version: MANIFEST_SCHEMA_VERSION,
        scale: scale.to_string(),
        version: version.clone(),
    };
    eagle_obs::write_atomic(dir.join(MANIFEST_FILE), serde_json::to_string(&manifest)?.as_bytes())?;
    Ok(version)
}

/// Publishes the parameters of an existing checkpoint file (e.g. from a
/// training run's `--checkpoint-dir`), validating that it decodes first.
pub fn publish_checkpoint(
    root: &Path,
    family: &str,
    scale: &str,
    checkpoint: &Path,
) -> Result<String, EagleError> {
    let state = eagle_core::load_checkpoint(checkpoint)?;
    publish_state(root, family, scale, &state)
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

    /// An untrained tiny-scale Inception-V3 policy state from `seed`.
    fn state(seed: u64) -> TrainerState {
        let machine = Machine::small_machine();
        let graph = Benchmark::InceptionV3.graph_for(&machine);
        untrained_state(&graph, &machine, AgentScale::tiny(), seed).unwrap()
    }

    /// Rewrites `dir`'s manifest to name whatever bytes its parameter file
    /// holds now, so only the decoder can object to them.
    fn repoint_manifest(dir: &Path) {
        let version = content_version(&std::fs::read(dir.join(PARAMS_FILE)).unwrap());
        let manifest = PolicyManifest {
            schema_version: MANIFEST_SCHEMA_VERSION,
            scale: "tiny".into(),
            version,
        };
        std::fs::write(dir.join(MANIFEST_FILE), serde_json::to_string(&manifest).unwrap()).unwrap();
    }

    /// Where the first value of `json`'s first tensor starts, and the comma
    /// that ends it.
    fn first_value(json: &str) -> (usize, usize) {
        let at = json.find("\"data\":[").unwrap() + "\"data\":[".len();
        (at, at + json[at..].find(',').unwrap())
    }

    #[test]
    fn publish_then_get_roundtrips_params() {
        let root = tmp("roundtrip");
        let state = state(3);
        let version = publish_state(&root, "inception_v3", "tiny", &state).unwrap();

        let store = PolicyStore::open(&root, Recorder::new());
        let entry = store.get("inception_v3").unwrap();
        assert_eq!(entry.version, version);
        assert_eq!(entry.scale, AgentScale::tiny());
        assert_eq!(entry.params.len(), state.params.len());
        // Second get is a cache hit: same Arc, and the manifest is all it
        // reads — the parameter file can be gone.
        std::fs::remove_file(root.join("inception_v3").join(PARAMS_FILE)).unwrap();
        let again = store.get("inception_v3").unwrap();
        assert!(Arc::ptr_eq(&entry, &again));
    }

    #[test]
    fn missing_family_is_typed() {
        let root = tmp("missing");
        let store = PolicyStore::open(&root, Recorder::new());
        assert!(matches!(store.get("nope"), Err(EagleError::UnknownFamily(_))));
        // Path-escaping family keys are rejected, not resolved.
        assert!(matches!(store.get("../etc"), Err(EagleError::BadRequest(_))));
        assert!(matches!(store.get(""), Err(EagleError::BadRequest(_))));
        // Nor published: what `get` refuses to read is never written.
        for family in ["../escaped", "my.model"] {
            let refused = publish_state(&root.join("store"), family, "tiny", &state(1));
            assert!(matches!(refused, Err(EagleError::BadRequest(_))), "{family}");
        }
        assert!(!root.join("escaped").exists() && !root.join("store").exists());
    }

    #[test]
    fn hot_reload_swaps_without_invalidating_old_entry() {
        let root = tmp("reload");
        let s1 = state(1);
        let v1 = publish_state(&root, "fam", "tiny", &s1).unwrap();
        let rec = Recorder::new();
        let store = PolicyStore::open(&root, rec.clone());
        let old = store.get("fam").unwrap();
        assert_eq!(old.version, v1);

        let v2 = publish_state(&root, "fam", "tiny", &state(2)).unwrap();
        assert_ne!(v1, v2, "different seeds produce different parameter bytes");

        let new = store.get("fam").unwrap();
        assert_eq!(new.version, v2);
        assert_eq!(rec.counter_value("serve.policy_reloads"), 1);
        // The old Arc is still fully usable: in-flight requests finish on it.
        assert_eq!(old.version, v1);
        assert_eq!(old.params.len(), s1.params.len());
    }

    /// Parameters the manifest vouches for but no kernel can run: a first
    /// tensor one value short of its shape would panic the first kernel that
    /// indexes it — in the router thread — and a `1e300` would carry an
    /// infinity into every logit. Neither loads, so a reload that finds them
    /// keeps the previous policy serving.
    #[test]
    fn reload_of_a_bad_tensor_keeps_the_old_policy_serving() {
        let root = tmp("bad_tensor");
        let state = state(1);
        let v1 = publish_state(&root, "fam", "tiny", &state).unwrap();
        let rec = Recorder::new();
        let store = PolicyStore::open(&root, rec.clone());
        assert_eq!(store.get("fam").unwrap().version, v1);

        let dir = root.join("fam");
        let good = std::fs::read_to_string(dir.join(PARAMS_FILE)).unwrap();
        let (at, comma) = first_value(&good);
        let short = format!("{}{}", &good[..at], &good[comma + 1..]);
        let huge = format!("{}1e300{}", &good[..at], &good[comma..]);
        for (errors, (bad, says)) in
            [(short, "tensor of shape"), (huge, "holds a non-finite value")].iter().enumerate()
        {
            std::fs::write(dir.join(PARAMS_FILE), bad).unwrap();
            repoint_manifest(&dir);
            let cold = PolicyStore::open(&root, Recorder::new()).get("fam").unwrap_err();
            assert!(cold.to_string().contains(says), "{cold}");

            let served = store.get("fam").unwrap();
            assert_eq!(served.version, v1, "the previous policy keeps serving");
            assert_eq!(served.params.len(), state.params.len());
            assert_eq!(rec.counter_value("serve.policy_reload_errors"), errors as u64 + 1);
            assert_eq!(rec.counter_value("serve.policy_reloads"), 0);
        }

        // The same short tensor inside a checkpoint is refused at publish.
        let ckpt = root.join("short.json");
        let text = String::from_utf8(eagle_core::encode_checkpoint(&state).unwrap()).unwrap();
        let payload = text.split_once('\n').unwrap().1;
        let (at, comma) = first_value(payload);
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
            eagle_core::load_checkpoint(&ckpt),
            Err(eagle_core::CheckpointError::Decode(m)) if m.contains("tensor of shape")
        ));
        assert!(matches!(
            publish_checkpoint(&root, "other", "tiny", &ckpt),
            Err(EagleError::Checkpoint(_))
        ));
    }

    /// Regression: a republish that lands within the filesystem's mtime
    /// granularity must still reload. A `(len, mtime)` stamp check served the
    /// stale policy forever in exactly this case; the test forces both
    /// rewritten files back to the original mtimes.
    #[test]
    fn hot_reload_sees_same_size_same_mtime_rewrite() {
        let root = tmp("stealth_rewrite");
        let s1 = state(7);
        let v1 = publish_state(&root, "fam", "tiny", &s1).unwrap();
        let store = PolicyStore::open(&root, Recorder::new());
        assert_eq!(store.get("fam").unwrap().version, v1);

        let files = [PARAMS_FILE, MANIFEST_FILE].map(|f| root.join("fam").join(f));
        let mtimes = files.each_ref().map(|f| std::fs::metadata(f).unwrap().modified().unwrap());
        let v2 = publish_state(&root, "fam", "tiny", &state(8)).unwrap();
        assert_ne!(v1, v2, "content must actually differ");
        for (file, mtime) in files.iter().zip(mtimes) {
            let f = std::fs::OpenOptions::new().write(true).open(file).unwrap();
            f.set_modified(mtime).unwrap();
            f.sync_all().unwrap();
        }

        let fresh = store.get("fam").unwrap();
        assert_eq!(fresh.version, v2, "stale policy served across a stealth rewrite");
        assert_eq!(fresh.params.len(), s1.params.len());
    }

    /// A load between a publish's two writes: new parameters, old manifest.
    #[test]
    fn a_half_finished_publish_is_not_served() {
        let root = tmp("half_published");
        let v1 = publish_state(&root, "fam", "tiny", &state(1)).unwrap();
        let rec = Recorder::new();
        let store = PolicyStore::open(&root, rec.clone());
        assert_eq!(store.get("fam").unwrap().version, v1);

        let dir = root.join("fam");
        let new_params = serde_json::to_string(&state(2).params).unwrap();
        std::fs::write(dir.join(PARAMS_FILE), &new_params).unwrap();
        // Warm: the manifest still names what is served. Cold: refused.
        assert_eq!(store.get("fam").unwrap().version, v1);
        assert_eq!(rec.counter_value("serve.policy_reload_errors"), 0);
        let cold = PolicyStore::open(&root, Recorder::new());
        assert!(matches!(cold.get("fam"), Err(EagleError::PolicyMismatch(_))));

        repoint_manifest(&dir);
        let v2 = content_version(new_params.as_bytes());
        assert_eq!(store.get("fam").unwrap().version, v2);
        assert_eq!(rec.counter_value("serve.policy_reloads"), 1);
        assert_eq!(cold.get("fam").unwrap().version, v2);
    }

    #[test]
    fn only_parameters_are_published() {
        let root = tmp("only_params");
        let mut s = state(1);
        let v1 = publish_state(&root, "fam", "tiny", &s).unwrap();
        let rec = Recorder::new();
        let store = PolicyStore::open(&root, rec.clone());
        let first = store.get("fam").unwrap();

        let mut files: Vec<_> = std::fs::read_dir(root.join("fam"))
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        files.sort();
        assert_eq!(files, [PARAMS_FILE, MANIFEST_FILE]);
        let on_disk =
            eagle_core::checkpoint::load_params(root.join("fam").join(PARAMS_FILE)).unwrap();
        let json = |p: &Params| serde_json::to_string(p).unwrap();
        assert_eq!(json(&on_disk), json(&s.params));

        // A later checkpoint of unchanged weights is the same policy.
        s.progress.samples = 40;
        assert_eq!(publish_state(&root, "fam", "tiny", &s).unwrap(), v1);
        assert!(Arc::ptr_eq(&first, &store.get("fam").unwrap()));
        assert_eq!(rec.counter_value("serve.policy_reloads"), 0);
    }

    /// What the previous store format left behind is refused, with the fix.
    #[test]
    fn a_v1_directory_says_to_publish_again() {
        let root = tmp("v1_directory");
        let dir = root.join("fam");
        std::fs::create_dir_all(&dir).unwrap();
        let manifest = r#"{"schema_version":1,"family":"fam","agent":"eagle","scale":"tiny"}"#;
        std::fs::write(dir.join(MANIFEST_FILE), manifest).unwrap();
        let ckpt = dir.join(eagle_core::CHECKPOINT_FILE);
        std::fs::write(&ckpt, eagle_core::encode_checkpoint(&state(1)).unwrap()).unwrap();

        let store = PolicyStore::open(&root, Recorder::new());
        match store.get("fam") {
            Err(EagleError::PolicyMismatch(m)) => {
                assert!(m.contains("manifest schema version 1 (this build reads 2)"), "{m}");
                assert!(m.contains("publish the policy again"), "{m}");
            }
            other => panic!("expected PolicyMismatch, got {other:?}"),
        }
        // `publish --checkpoint` on the old artifact is the migration.
        let version = publish_checkpoint(&root, "fam", "tiny", &ckpt).unwrap();
        assert_eq!(store.get("fam").unwrap().version, version);
    }
}
