//! The placement cache against a model of what it promises, and its
//! checkpoint bytes pinned across commits.
//!
//! The model is a FIFO of `(bytes, outcome)` pairs searched linearly: no hash,
//! no map. Random sequences of `lookup`, `insert` and
//! `Environment::evaluate_batch` (with in-batch repeats) run against both at
//! capacities 0, 1 and small; every returned value, every counter, the FIFO
//! order and the serialized JSON must agree. Keys are drawn to differ only in
//! their last byte or only inside the hasher's tail (the bytes after the last
//! whole word, or after the last whole 32-byte block), at lengths on both
//! sides of 8 and 32.
//!
//! `EAGLE_ORACLE_CASES` sets the case count per property (64 by default, the
//! PR-gating slice; the nightly job runs 10000).

use eagle_devsim::{
    simulate, BaseEval, CacheStats, DeviceId, Environment, Machine, MeasureConfig, Measurement,
    Placement, PlacementCache,
};
use eagle_opgraph::{OpGraph, OpKind, OpNode, Phase};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

fn cases() -> u32 {
    std::env::var("EAGLE_ORACLE_CASES").ok().and_then(|s| s.parse().ok()).unwrap_or(64)
}

/// Key lengths: one byte, both sides of a word and of a block, and ragged.
const LENGTHS: [usize; 11] = [1, 7, 8, 9, 31, 32, 33, 45, 64, 65, 71];

/// The paper machine's device count: CPU plus four GPUs.
const DEVICES: u8 = 5;

/// The reference: entries oldest first, found by linear search.
#[derive(Default)]
struct Model {
    capacity: usize,
    entries: Vec<(Vec<u8>, BaseEval)>,
    stats: CacheStats,
}

/// The stored form of a cache, as `PlacementCache` documents it.
#[derive(serde::Serialize)]
struct Stored {
    capacity: usize,
    stats: CacheStats,
    entries: Vec<StoredEntry>,
}

#[derive(serde::Serialize)]
struct StoredEntry {
    devices: Vec<u8>,
    step_time: BaseEval,
}

impl Model {
    fn new(capacity: usize) -> Self {
        Self { capacity, ..Self::default() }
    }

    fn lookup(&mut self, key: &[u8]) -> Option<BaseEval> {
        let found = self.entries.iter().find(|(k, _)| k == key).map(|&(_, base)| base);
        match found {
            Some(_) => self.stats.hits += 1,
            None => self.stats.misses += 1,
        }
        found
    }

    fn insert(&mut self, key: &[u8], base: BaseEval) -> bool {
        if self.capacity == 0 || self.entries.iter().any(|(k, _)| k == key) {
            return false;
        }
        let evict = self.entries.len() >= self.capacity;
        if evict {
            self.entries.remove(0);
            self.stats.evictions += 1;
        }
        self.entries.push((key.to_vec(), base));
        evict
    }

    /// A minibatch as `evaluate_batch` answers it: every key is probed
    /// against the entries the batch began with, a repeat of an earlier miss
    /// of the batch is a hit on that miss, and the misses are stored in order
    /// afterwards. Returns each key's outcome and whether it was a hit.
    fn batch(
        &mut self,
        keys: &[Vec<u8>],
        run: impl Fn(&[u8]) -> BaseEval,
    ) -> Vec<(BaseEval, bool)> {
        let mut missed: Vec<&[u8]> = Vec::new();
        let mut answers = Vec::with_capacity(keys.len());
        for key in keys {
            if self.capacity > 0 && missed.contains(&key.as_slice()) {
                self.stats.hits += 1;
                answers.push((run(key), true));
            } else if let Some(base) = self.lookup(key) {
                answers.push((base, true));
            } else {
                missed.push(key);
                answers.push((run(key), false));
            }
        }
        for key in missed {
            self.insert(key, run(key));
        }
        answers
    }

    fn json(&self) -> String {
        let entries = self
            .entries
            .iter()
            .map(|(devices, step_time)| StoredEntry {
                devices: devices.clone(),
                step_time: *step_time,
            })
            .collect();
        serde_json::to_string(&Stored { capacity: self.capacity, stats: self.stats, entries })
            .expect("the model serializes")
    }
}

fn placement(key: &[u8]) -> Placement {
    Placement::new(key.iter().map(|&d| DeviceId(d)).collect())
}

/// A few keys of length `len`: each drawn key, the same with its last byte
/// changed, and the same with one byte inside the hasher's tail changed.
fn key_pool(rng: &mut ChaCha8Rng, len: usize, drawn: usize) -> Vec<Vec<u8>> {
    let tail = match (len % 8, len % 32) {
        (0, 0) => len.min(32),
        (0, block) => block,
        (word, _) => word,
    };
    let mut pool = Vec::new();
    for _ in 0..drawn {
        let key: Vec<u8> = (0..len).map(|_| rng.gen_range(0..DEVICES)).collect();
        for pos in [len - 1, rng.gen_range(len - tail..len)] {
            let mut other = key.clone();
            other[pos] = (other[pos] + rng.gen_range(1..DEVICES)) % DEVICES;
            pool.push(other);
        }
        pool.push(key);
    }
    pool
}

fn draw_capacity(rng: &mut ChaCha8Rng) -> usize {
    match rng.gen_range(0..3) {
        0 => 0,
        1 => 1,
        _ => rng.gen_range(2..6),
    }
}

fn draw_base(rng: &mut ChaCha8Rng) -> BaseEval {
    rng.gen_bool(0.8).then(|| rng.gen_range(0.001..1.0))
}

/// A chain of `n` ops with no parameters (staging costs exactly the session
/// set-up), whose last two ops together overflow one GPU: a placement OOMs
/// exactly when it puts both on the same GPU.
fn chain(n: usize) -> OpGraph {
    let mut g = OpGraph::new("chain");
    let mut prev = None;
    for i in 0..n {
        let act = if i + 2 >= n { 10 << 30 } else { 1 << 20 };
        let id = g.add_node(
            OpNode::new(format!("op{i}"), OpKind::MatMul, Phase::Forward)
                .with_flops(1e9 * (1 + i % 3) as f64)
                .with_out_bytes(1 << 20)
                .with_act_bytes(act),
        );
        if let Some(p) = prev {
            g.add_edge(p, id);
        }
        prev = Some(id);
    }
    g
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// `lookup` and `insert` on a bare cache, keys of several lengths in one
    /// cache, some a prefix of another.
    #[test]
    fn cache_follows_the_fifo_model(seed in any::<u64>()) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let capacity = draw_capacity(&mut rng);
        let mut pool = Vec::new();
        for _ in 0..2 {
            let len = LENGTHS[rng.gen_range(0..LENGTHS.len())];
            pool.extend(key_pool(&mut rng, len, 1));
        }
        let mut extended = pool[0].clone();
        extended.push(0);
        pool.push(extended);
        pool.push(pool[0][..pool[0].len() - 1].to_vec());

        let mut cache = PlacementCache::new(capacity);
        let mut model = Model::new(capacity);
        for step in 0..rng.gen_range(1..40) {
            let key = &pool[rng.gen_range(0..pool.len())];
            if rng.gen_bool(0.5) {
                prop_assert_eq!(cache.lookup(&placement(key)), model.lookup(key), "step {}", step);
            } else {
                let base = draw_base(&mut rng);
                let stored = cache.insert(&placement(key), base);
                prop_assert_eq!(stored, model.insert(key, base), "step {}", step);
            }
            prop_assert_eq!(cache.stats(), model.stats, "step {}", step);
            prop_assert_eq!(cache.len(), model.entries.len(), "step {}", step);
            prop_assert_eq!(serde_json::to_string(&cache).unwrap(), model.json(), "step {}", step);
        }
        let decoded: PlacementCache = serde_json::from_str(&model.json()).unwrap();
        prop_assert_eq!(decoded, cache);
    }

    /// `lookup`, `insert` and `evaluate_batch` on an environment's cache, the
    /// first two through `save_state` / `restore_state`. Under the exact
    /// protocol with a one-second session set-up, a measurement shows its
    /// outcome and whether it was a hit.
    #[test]
    fn environment_cache_follows_the_fifo_model(seed in any::<u64>()) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let capacity = draw_capacity(&mut rng);
        let len = LENGTHS[rng.gen_range(2..LENGTHS.len())];
        let pool = key_pool(&mut rng, len, 2);
        let (graph, machine) = (chain(len), Machine::paper_machine());
        let measure = MeasureConfig { session_setup: 1.0, oom_cost: 2.0, ..MeasureConfig::exact() };
        let mut env = Environment::builder(graph.clone(), machine.clone())
            .measure(measure)
            .cache_capacity(capacity)
            .build()
            .unwrap();
        let run = |key: &[u8]| simulate(&graph, &machine, &placement(key)).step_time();
        let mut model = Model::new(capacity);
        for step in 0..rng.gen_range(1..25) {
            match rng.gen_range(0..4) {
                0 => {
                    let key = &pool[rng.gen_range(0..pool.len())];
                    let mut state = env.save_state();
                    let found = state.cache.lookup(&placement(key));
                    prop_assert_eq!(found, model.lookup(key), "step {}", step);
                    env.restore_state(state).unwrap();
                }
                1 => {
                    let key = &pool[rng.gen_range(0..pool.len())];
                    let base = draw_base(&mut rng);
                    let mut state = env.save_state();
                    let stored = state.cache.insert(&placement(key), base);
                    prop_assert_eq!(stored, model.insert(key, base), "step {}", step);
                    env.restore_state(state).unwrap();
                }
                _ => {
                    let keys: Vec<Vec<u8>> = (0..rng.gen_range(1..7))
                        .map(|_| pool[rng.gen_range(0..pool.len())].clone())
                        .collect();
                    let batch: Vec<Placement> = keys.iter().map(|k| placement(k)).collect();
                    let got = env.evaluate_batch(&batch, rng.gen_range(1..3));
                    let want: Vec<Measurement> = model
                        .batch(&keys, run)
                        .into_iter()
                        .map(|(base, hit)| Measurement {
                            step_time: base,
                            wall_cost: match (base, hit) {
                                (None, true) => 0.0,
                                (None, false) => 2.0,
                                (Some(t), true) => t,
                                (Some(t), false) => 1.0 + t,
                            },
                        })
                        .collect();
                    prop_assert_eq!(got, want, "step {}", step);
                }
            }
            prop_assert_eq!(env.snapshot().cache, model.stats, "step {}", step);
            let json = serde_json::to_string(&env.save_state().cache).unwrap();
            prop_assert_eq!(json, model.json(), "step {}", step);
        }
    }
}

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// The checkpoint bytes of an environment after a fixed sequence that evicts
/// and repeats placements inside batches, and the measurements an environment
/// restored from those bytes takes next. Both are pinned across commits: how
/// the cache holds its keys must move neither.
#[test]
fn checkpoint_bytes_and_what_follows_are_pinned() {
    let (graph, machine) = (chain(45), Machine::paper_machine());
    let build = || {
        Environment::builder(graph.clone(), machine.clone())
            .seed(29)
            .cache_capacity(3)
            .build()
            .expect("the chain builds an environment")
    };
    // Six placements; the last puts every op on one GPU and OOMs.
    let pool: Vec<Placement> = (0..6u8)
        .map(|i| {
            let devices = (0..45u8).map(|op| if i == 5 { 1 } else { (op / (3 + i) + i) % DEVICES });
            Placement::new(devices.map(DeviceId).collect())
        })
        .collect();
    let pick = |ids: &[usize]| -> Vec<Placement> { ids.iter().map(|&i| pool[i].clone()).collect() };

    let mut env = build();
    for ids in [&[0, 1, 0, 2][..], &[3, 1, 3, 5], &[5, 0, 4, 4], &[2, 2, 4, 5]] {
        env.evaluate_batch(&pick(ids), 1);
    }
    let snap = env.snapshot().cache;
    assert!(snap.evictions > 0 && snap.hits > 0, "the sequence evicts and hits: {snap:?}");
    let json = serde_json::to_string(&env.save_state()).unwrap();
    assert_eq!(fnv1a64(json.as_bytes()), 0xe898_9630_3538_69bf, "{json}");

    let mut resumed = build();
    resumed.restore_state(serde_json::from_str(&json).unwrap()).unwrap();
    let mut bits = Vec::new();
    for ids in [&[4, 0, 4, 3][..], &[1, 5, 2, 5]] {
        let straight = env.evaluate_batch(&pick(ids), 1);
        let after = resumed.evaluate_batch(&pick(ids), 2);
        assert_eq!(after, straight);
        for m in after {
            bits.extend(m.step_time.map_or(1, f64::to_bits).to_le_bytes());
            bits.extend(m.wall_cost.to_bits().to_le_bytes());
        }
    }
    assert_eq!(resumed.snapshot(), env.snapshot());
    assert_eq!(fnv1a64(&bits), 0x2a2f_a80e_aae0_cd70, "measurements after the restore moved");
}
