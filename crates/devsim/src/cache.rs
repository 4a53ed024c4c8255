//! Memoization of placement evaluations.
//!
//! Policy-gradient training re-proposes the same device assignment many times as
//! the policy converges, and each proposal costs a full discrete-event
//! simulation. The cache keys on the exact device-assignment bytes and stores
//! the *noiseless* outcome of the pure simulation step — the base step time, or
//! the OOM verdict — so repeated proposals skip the simulator and only re-draw
//! the cheap measurement noise (see `Environment::evaluate`).
//!
//! Eviction is strict FIFO (insertion order), not LRU, on purpose: hits do not
//! reorder entries, so the cache state after a sequence of evaluations is
//! independent of whether they were issued one-by-one or as a batch (but for
//! the one case `Environment::evaluate_batch` documents). That property is
//! what makes `Environment::evaluate_batch` bit-identical to a serial
//! evaluation loop for every worker count.
//!
//! Each key — one byte per op — is stored once, in an `Arc<[u8]>` the map and
//! the FIFO share. A lookup copies the placement into a byte buffer the cache
//! owns and reuses, so it allocates nothing, and hashes those bytes once with
//! `KeyHasher`, a multiply-rotate hash that reads eight bytes a step into four
//! lanes; a minibatch's check for repeats of its own misses uses the same
//! bytes and hasher. SipHash, the standard map's default, buys resistance to
//! keys crafted to collide; these keys are policy outputs, never outside
//! input, and equal hashes are still told apart by comparing the bytes.
//! Nothing iterates the map — the FIFO alone orders entries — so the hasher
//! decides no output.

use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

use serde::{Content, Deserialize, Serialize};

use crate::placement::Placement;

/// Outcome of the pure (noise-free) simulation of one placement: the
/// noiseless per-step time in seconds, or `None` when the placement does not
/// fit (some device exceeds its memory capacity).
pub type BaseEval = Option<f64>;

/// A device assignment's bytes, one per op, shared by the map and the FIFO.
type Key = Arc<[u8]>;

/// A map keyed by assignment bytes.
type KeyMap<V> = HashMap<Key, V, BuildHasherDefault<KeyHasher>>;

/// Hit/miss/eviction counters of a [`PlacementCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct CacheStats {
    /// Evaluations answered from the cache.
    pub hits: u64,
    /// Evaluations that ran the simulator.
    pub misses: u64,
    /// Entries evicted (FIFO) to stay within capacity.
    pub evictions: u64,
}

impl CacheStats {
    /// Fraction of evaluations answered from the cache (0 when none ran).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Counter difference since an earlier snapshot.
    pub fn since(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            evictions: self.evictions - earlier.evictions,
        }
    }
}

/// How one placement of a minibatch is answered (see
/// [`PlacementCache::probe_batch`]).
pub(crate) enum Probe {
    /// From an entry cached before the batch began.
    Hit(BaseEval),
    /// By the simulation of the batch's `m`-th miss, which it repeats.
    Dup(usize),
    /// By the batch's `m`-th simulation.
    Miss(usize),
}

/// A bounded FIFO map from device assignments to their simulation outcome.
#[derive(Debug, Clone)]
pub struct PlacementCache {
    capacity: usize,
    map: KeyMap<BaseEval>,
    order: VecDeque<Key>,
    /// The probed placement's bytes, reused from lookup to lookup.
    probe: Vec<u8>,
    stats: CacheStats,
}

/// Equal capacity, counters, entries and FIFO order; the probe buffer is
/// scratch and does not count.
impl PartialEq for PlacementCache {
    fn eq(&self, other: &Self) -> bool {
        self.capacity == other.capacity
            && self.stats == other.stats
            && self.order == other.order
            && self.map == other.map
    }
}

impl PlacementCache {
    /// Creates a cache holding at most `capacity` placements; 0 disables it.
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            map: KeyMap::default(),
            order: VecDeque::new(),
            probe: Vec::new(),
            stats: CacheStats::default(),
        }
    }

    /// True when the cache stores anything at all.
    pub fn enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Number of cached placements.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Lifetime hit/miss counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Copies `placement`'s assignment into the probe buffer.
    fn load(&mut self, placement: &Placement) {
        self.probe.clear();
        self.probe.extend(placement.devices().iter().map(|d| d.0));
    }

    /// Looks the loaded bytes up, counting the outcome as a hit or a miss.
    fn find(&mut self) -> Option<BaseEval> {
        let found = self.map.get(self.probe.as_slice()).copied();
        match found {
            Some(_) => self.stats.hits += 1,
            None => self.stats.misses += 1,
        }
        found
    }

    /// Looks a placement up, counting the outcome as a hit or a miss.
    pub fn lookup(&mut self, placement: &Placement) -> Option<BaseEval> {
        self.load(placement);
        self.find()
    }

    /// Probes a minibatch in episode order, as [`PlacementCache::lookup`]
    /// would one placement at a time, except that a repeat of an earlier miss
    /// of the same batch counts as a hit on it (evaluated one by one, the
    /// first occurrence would have been inserted by then). Returns how each
    /// placement is answered and the key of each miss, in order, for
    /// [`PlacementCache::insert_key`] once it is simulated.
    pub(crate) fn probe_batch(&mut self, placements: &[Placement]) -> (Vec<Probe>, Vec<Key>) {
        let mut first_occurrence: KeyMap<usize> = KeyMap::default();
        let mut keys: Vec<Key> = Vec::new();
        let mut probes = Vec::with_capacity(placements.len());
        for p in placements {
            self.load(p);
            if let Some(&m) = first_occurrence.get(self.probe.as_slice()) {
                self.stats.hits += 1;
                probes.push(Probe::Dup(m));
                continue;
            }
            match self.find() {
                Some(base) => probes.push(Probe::Hit(base)),
                None => {
                    let key: Key = self.probe.as_slice().into();
                    if self.enabled() {
                        first_occurrence.insert(Arc::clone(&key), keys.len());
                    }
                    probes.push(Probe::Miss(keys.len()));
                    keys.push(key);
                }
            }
        }
        (probes, keys)
    }

    /// The cached device assignments, oldest first.
    pub(crate) fn keys(&self) -> impl Iterator<Item = &[u8]> + '_ {
        self.order.iter().map(|key| key.as_ref())
    }

    /// Stores an outcome, evicting the oldest entry when full. No-op when
    /// disabled or the key is already present. Returns `true` when an entry
    /// was evicted to make room.
    pub fn insert(&mut self, placement: &Placement, base: BaseEval) -> bool {
        self.insert_key(placement.devices().iter().map(|d| d.0).collect(), base)
    }

    /// [`PlacementCache::insert`] of a key already in byte form.
    pub(crate) fn insert_key(&mut self, key: Key, base: BaseEval) -> bool {
        if !self.enabled() || self.map.contains_key(&key) {
            return false;
        }
        let mut evicted = false;
        if self.map.len() >= self.capacity {
            if let Some(oldest) = self.order.pop_front() {
                self.map.remove(&oldest);
                self.stats.evictions += 1;
                evicted = true;
            }
        }
        self.order.push_back(Arc::clone(&key));
        self.map.insert(key, base);
        evicted
    }
}

/// Multiply-rotate hash of a key's bytes: each 32-byte block feeds one
/// 8-byte word to each of four lanes, so four multiplies are in flight at
/// once. The lanes are then folded together, followed by the words past the
/// last whole block and a zero-padded last partial word (the length, hashed
/// first, tells such keys apart). Not keyed, which is safe only because keys
/// are never outside input.
#[derive(Default)]
struct KeyHasher(u64);

/// Per-lane starting values (digits of pi), so equal words in different lanes
/// do not cancel.
const LANE_SEEDS: [u64; 4] =
    [0x243f_6a88_85a3_08d3, 0x1319_8a2e_0370_7344, 0xa409_3822_299f_31d0, 0x082e_fa98_ec4e_6c89];

/// One step: fold `word` into `lane`. Bijective in each argument, so two
/// inputs that differ in one word never meet in the same lane value.
#[inline]
fn mix(lane: u64, word: u64) -> u64 {
    (lane ^ word).wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(29)
}

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        let (blocks, rest) = bytes.as_chunks::<32>();
        let mut lanes = LANE_SEEDS.map(|seed| seed ^ self.0);
        for block in blocks {
            for (lane, word) in lanes.iter_mut().zip(block.as_chunks::<8>().0) {
                *lane = mix(*lane, u64::from_le_bytes(*word));
            }
        }
        let (words, tail) = rest.as_chunks::<8>();
        let mut h = lanes.into_iter().fold(self.0, mix);
        for word in words {
            h = mix(h, u64::from_le_bytes(*word));
        }
        if !tail.is_empty() {
            let mut last = [0; 8];
            last[..tail.len()].copy_from_slice(tail);
            h = mix(h, u64::from_le_bytes(last));
        }
        self.0 = h;
    }

    /// The length prefix `[u8]::hash` writes before the bytes.
    fn write_usize(&mut self, n: usize) {
        self.0 = mix(self.0, n as u64);
    }

    /// Avalanche (MurmurHash3's 64-bit finalizer): the map takes its bucket
    /// from the low bits and its tag from the top seven.
    fn finish(&self) -> u64 {
        let mut h = self.0;
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        h ^ (h >> 33)
    }
}

/// One cached placement as stored: raw device bytes in op order and the
/// memoized outcome (`null` for a remembered OOM).
#[derive(Serialize, Deserialize)]
struct StoredEntry {
    devices: Vec<u8>,
    step_time: BaseEval,
}

/// What a checkpoint persists so a resumed run replays the same hits, misses
/// and evictions: `{capacity, stats, entries}`, entries oldest first.
impl Serialize for PlacementCache {
    fn to_content(&self) -> Content {
        let entries: Vec<StoredEntry> = self
            .order
            .iter()
            .map(|key| StoredEntry { devices: key.to_vec(), step_time: self.map[key] })
            .collect();
        Content::Map(vec![
            ("capacity".into(), self.capacity.to_content()),
            ("stats".into(), self.stats.to_content()),
            ("entries".into(), entries.to_content()),
        ])
    }
}

/// Refuses what no cache could have written: more entries than the capacity
/// holds, or the same assignment twice.
impl Deserialize for PlacementCache {
    fn from_content(c: &Content) -> Result<Self, serde::Error> {
        let mut cache = Self::new(field(c, "capacity", "PlacementCache")?);
        cache.stats = field(c, "stats", "PlacementCache")?;
        let entries: Vec<StoredEntry> = field(c, "entries", "PlacementCache")?;
        if entries.len() > cache.capacity {
            return Err(serde::Error::msg(format!(
                "{} cached entries exceed capacity {}",
                entries.len(),
                cache.capacity
            )));
        }
        for StoredEntry { devices, step_time } in entries {
            let key: Key = devices.into();
            if cache.map.insert(Arc::clone(&key), step_time).is_some() {
                return Err(serde::Error::msg("a placement is cached twice"));
            }
            cache.order.push_back(key);
        }
        Ok(cache)
    }
}

/// Decodes field `name` of the object `c` (the stored form of a `ty`).
pub(crate) fn field<T: Deserialize>(c: &Content, name: &str, ty: &str) -> Result<T, serde::Error> {
    let value = c
        .get_field(name)
        .ok_or_else(|| serde::Error::msg(format!("missing field `{name}` in {ty}")))?;
    T::from_content(value)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceId;

    fn p(devs: &[u8]) -> Placement {
        Placement::new(devs.iter().map(|&d| DeviceId(d)).collect())
    }

    #[test]
    fn lookup_counts_and_returns() {
        let mut c = PlacementCache::new(8);
        assert_eq!(c.lookup(&p(&[0, 1])), None);
        c.insert(&p(&[0, 1]), Some(2.0));
        assert_eq!(c.lookup(&p(&[0, 1])), Some(Some(2.0)));
        assert_eq!(c.lookup(&p(&[1, 0])), None);
        assert_eq!(c.stats(), CacheStats { hits: 1, misses: 2, evictions: 0 });
        assert!((c.stats().hit_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn fifo_eviction_is_hit_order_independent() {
        let mut c = PlacementCache::new(2);
        c.insert(&p(&[0]), None);
        c.insert(&p(&[1]), Some(1.0));
        // A hit on the oldest entry must NOT protect it from eviction.
        assert!(c.lookup(&p(&[0])).is_some());
        assert!(c.insert(&p(&[2]), Some(2.0)), "full cache evicts");
        assert_eq!(c.len(), 2);
        assert_eq!(c.stats().evictions, 1);
        assert_eq!(c.lookup(&p(&[0])), None, "oldest evicted despite recent hit");
        assert!(c.lookup(&p(&[1])).is_some());
        assert!(c.lookup(&p(&[2])).is_some());
    }

    #[test]
    fn zero_capacity_disables() {
        let mut c = PlacementCache::new(0);
        c.insert(&p(&[0]), None);
        assert!(c.is_empty());
        assert_eq!(c.lookup(&p(&[0])), None);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn entries_roundtrip_preserves_fifo_and_stats() {
        let mut c = PlacementCache::new(3);
        c.insert(&p(&[0]), None);
        c.insert(&p(&[1]), Some(1.5));
        c.insert(&p(&[2]), Some(2.5));
        let _ = c.lookup(&p(&[1]));
        let json = serde_json::to_string(&c).unwrap();
        let mut r: PlacementCache = serde_json::from_str(&json).unwrap();
        assert_eq!(r.len(), 3);
        assert_eq!(r.stats(), c.stats());
        // FIFO order survives: the next insert must evict [0], not [1] or [2].
        assert!(r.insert(&p(&[9]), None));
        assert_eq!(r.lookup(&p(&[0])), None);
        assert_eq!(r.lookup(&p(&[1])), Some(Some(1.5)));
    }

    #[test]
    fn what_no_cache_could_have_written_does_not_decode() {
        let mut c = PlacementCache::new(2);
        c.insert(&p(&[0]), None);
        c.insert(&p(&[1]), Some(1.5));
        let json = serde_json::to_string(&c).unwrap();
        let edited = |from: &str, to: &str| {
            assert!(json.contains(from), "{from} not in {json}");
            serde_json::from_str::<PlacementCache>(&json.replacen(from, to, 1)).unwrap_err()
        };
        let over = edited("\"capacity\":2", "\"capacity\":1").to_string();
        assert!(over.contains("2 cached entries exceed capacity 1"), "{over}");
        // `order` and `map` would disagree: the stored form indexes one by the other.
        let twice = edited("\"devices\":[1]", "\"devices\":[0]").to_string();
        assert!(twice.contains("cached twice"), "{twice}");
    }

    #[test]
    fn reinsert_does_not_duplicate() {
        let mut c = PlacementCache::new(4);
        c.insert(&p(&[3, 3]), None);
        c.insert(&p(&[3, 3]), None);
        assert_eq!(c.len(), 1);
    }

    fn hash(bytes: &[u8]) -> u64 {
        use std::hash::BuildHasher;
        BuildHasherDefault::<KeyHasher>::default().hash_one(bytes)
    }

    #[test]
    fn every_byte_moves_the_hash() {
        for len in [1, 7, 8, 9, 31, 32, 33, 40, 63, 64, 65, 100] {
            let key: Vec<u8> = (0..len).map(|i| (i * 7 % 5) as u8).collect();
            for pos in 0..len {
                let mut other = key.clone();
                other[pos] ^= 1;
                assert_ne!(hash(&key), hash(&other), "len {len}: byte {pos} is not hashed");
            }
            let mut longer = key.clone();
            longer.push(0);
            assert_ne!(hash(&key), hash(&longer), "len {len}: a trailing zero is not hashed");
        }
    }

    #[test]
    fn keys_with_equal_hashes_stay_apart() {
        // Two 64-byte keys that meet in lane 0: the second block's first word
        // cancels the difference the first block's first word left there.
        let (a, mut b) = ([0u8; 64], [0u8; 64]);
        let start = LANE_SEEDS[0] ^ mix(0, 64);
        b[0] = 1;
        b[32..40].copy_from_slice(&(mix(start, 0) ^ mix(start, 1)).to_le_bytes());
        assert_eq!(hash(&a), hash(&b), "the construction no longer collides");
        let mut c = PlacementCache::new(4);
        c.insert(&p(&a), Some(1.0));
        assert_eq!(c.lookup(&p(&b)), None);
        c.insert(&p(&b), Some(2.0));
        assert_eq!((c.lookup(&p(&a)), c.lookup(&p(&b))), (Some(Some(1.0)), Some(Some(2.0))));
        assert_eq!(c.len(), 2);
    }
}
