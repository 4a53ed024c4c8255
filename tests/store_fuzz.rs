//! The policy store's two files as outside input.
//!
//! A family directory is written by one process (`eagle-serve publish`, a
//! copy, an operator's editor) and read by another (the daemon), so its bytes
//! get the treatment `checkpoint_fuzz.rs` gives checkpoint bytes. The contract
//! under test: whatever one damaged file of a published family holds — a
//! flipped bit, a truncation, garbage — a store that never served the family
//! answers `get` with a typed `Err`, a store already serving it keeps the
//! version it has and counts `serve.policy_reload_errors`, and nothing
//! panics; and under a live publisher, every entry `get` returns pairs a
//! version with exactly the parameters that hash to it.
//!
//! `EAGLE_FUZZ_CASES` tunes the case count (default 256; the nightly job runs
//! 10000+), as in `checkpoint_fuzz.rs`.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};

use eagle::core::{fnv1a64, AgentScale, TrainerState};
use eagle::devsim::{Benchmark, Machine};
use eagle::obs::Recorder;
use eagle::serve::{publish_state, untrained_state, PolicyStore};
use proptest::prelude::*;

const FAMILY: &str = "fam";
const FILES: [&str; 2] = ["params.json", "policy.json"];

fn fuzz_cases() -> u32 {
    std::env::var("EAGLE_FUZZ_CASES").ok().and_then(|s| s.parse().ok()).unwrap_or(256)
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("eagle-store-fuzz").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn state(seed: u64) -> TrainerState {
    let machine = Machine::small_machine();
    let graph = Benchmark::InceptionV3.graph_for(&machine);
    untrained_state(&graph, &machine, AgentScale::tiny(), seed).unwrap()
}

/// A store serving policy A while the directory holds a republished policy B,
/// whose intact files each case damages one of.
struct Corpus {
    root: PathBuf,
    /// B's `params.json` and `policy.json`, as published.
    published: [Vec<u8>; 2],
    served: String,
    recorder: Recorder,
    warm: PolicyStore,
}

fn corpus() -> &'static Mutex<Corpus> {
    static CORPUS: OnceLock<Mutex<Corpus>> = OnceLock::new();
    CORPUS.get_or_init(|| {
        let root = tmp("damage");
        let served = publish_state(&root, FAMILY, "tiny", &state(1)).unwrap();
        let recorder = Recorder::new();
        let warm = PolicyStore::open(&root, recorder.clone());
        assert_eq!(warm.get(FAMILY).unwrap().version, served);
        publish_state(&root, FAMILY, "tiny", &state(2)).unwrap();
        let published = FILES.map(|f| std::fs::read(root.join(FAMILY).join(f)).unwrap());
        Mutex::new(Corpus { root, published, served, recorder, warm })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(fuzz_cases()))]

    #[test]
    fn a_damaged_file_is_refused_cold_and_survived_warm(
        file in 0usize..2,
        kind in 0u8..3,
        pos in any::<u64>(),
        bit in 0u32..8,
        garbage in proptest::collection::vec(any::<u8>(), 0..128),
    ) {
        let c = corpus().lock().unwrap_or_else(|e| e.into_inner());
        let intact = &c.published[file];
        let idx = (pos as usize) % intact.len();
        let damaged = match kind {
            0 => {
                let mut bytes = intact.clone();
                bytes[idx] ^= 1 << bit;
                bytes
            }
            1 => intact[..idx].to_vec(),
            _ => garbage,
        };
        let path = c.root.join(FAMILY).join(FILES[file]);
        std::fs::write(&path, &damaged).unwrap();

        let cold = PolicyStore::open(&c.root, Recorder::new()).get(FAMILY);
        let errors = c.recorder.counter_value("serve.policy_reload_errors");
        let warm = c.warm.get(FAMILY);
        std::fs::write(&path, intact).unwrap();

        prop_assert!(cold.is_err(), "{} damaged (kind {kind} at {idx}) was served", FILES[file]);
        prop_assert_eq!(&warm.expect("a warm store keeps serving").version, &c.served);
        prop_assert_eq!(c.recorder.counter_value("serve.policy_reload_errors"), errors + 1);
        prop_assert_eq!(c.recorder.counter_value("serve.policy_reloads"), 0);
    }
}

/// One publisher alternating two weight sets against four readers: a `get`
/// that lands between the publisher's two writes must not pair one set's
/// version with the other's parameters.
#[test]
fn concurrent_publishes_never_serve_a_mixed_pair() {
    let root = tmp("mixed_pair");
    let states = [state(1), state(2)];
    let versions = [0, 1].map(|i| publish_state(&root, FAMILY, "tiny", &states[i]).unwrap());
    let store = PolicyStore::open(&root, Recorder::new());
    // Warm, so a reload that lands mid-publish has a version to keep serving.
    assert_eq!(store.get(FAMILY).unwrap().version, versions[1]);
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        for _ in 0..4 {
            scope.spawn(|| {
                let mut last = None;
                while !done.load(Ordering::SeqCst) {
                    let entry = store.get(FAMILY).expect("a published family is always served");
                    // Entries are immutable behind their `Arc`: hash each once.
                    if last.as_ref().is_some_and(|l| std::sync::Arc::ptr_eq(l, &entry)) {
                        continue;
                    }
                    let json = serde_json::to_string(&entry.params).unwrap();
                    assert_eq!(format!("{:016x}", fnv1a64(json.as_bytes())), entry.version);
                    assert!(versions.contains(&entry.version));
                    last = Some(entry);
                }
            });
        }
        for i in 0..(fuzz_cases() as usize / 4).max(8) {
            publish_state(&root, FAMILY, "tiny", &states[i % 2]).unwrap();
        }
        done.store(true, Ordering::SeqCst);
    });
}
