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
//! independent of whether they were issued one-by-one or as a batch. That
//! property is what makes `Environment::evaluate_batch` bit-identical to a
//! serial evaluation loop for every worker count.

use std::collections::{HashMap, VecDeque};

use serde::{Content, Deserialize, Serialize};

use crate::placement::Placement;

/// Outcome of the pure (noise-free) simulation of one placement: the
/// noiseless per-step time in seconds, or `None` when the placement does not
/// fit (some device exceeds its memory capacity).
pub type BaseEval = Option<f64>;

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

/// A bounded FIFO map from device assignments to their simulation outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct PlacementCache {
    capacity: usize,
    map: HashMap<Box<[u8]>, BaseEval>,
    order: VecDeque<Box<[u8]>>,
    stats: CacheStats,
}

fn key_of(placement: &Placement) -> Box<[u8]> {
    placement.devices().iter().map(|d| d.0).collect()
}

impl PlacementCache {
    /// Creates a cache holding at most `capacity` placements; 0 disables it.
    pub fn new(capacity: usize) -> Self {
        Self { capacity, map: HashMap::new(), order: VecDeque::new(), stats: CacheStats::default() }
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

    /// Looks a placement up, counting the outcome as a hit or a miss.
    pub fn lookup(&mut self, placement: &Placement) -> Option<BaseEval> {
        if !self.enabled() {
            self.stats.misses += 1;
            return None;
        }
        match self.map.get(key_of(placement).as_ref()) {
            Some(&base) => {
                self.stats.hits += 1;
                Some(base)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Counts a hit that was answered outside the map (in-batch deduplication
    /// against an episode earlier in the same minibatch).
    pub(crate) fn note_duplicate_hit(&mut self) {
        self.stats.hits += 1;
    }

    /// The cached device assignments, oldest first.
    pub(crate) fn keys(&self) -> impl Iterator<Item = &[u8]> + '_ {
        self.order.iter().map(|key| key.as_ref())
    }

    /// Stores an outcome, evicting the oldest entry when full. No-op when
    /// disabled or the key is already present. Returns `true` when an entry
    /// was evicted to make room.
    pub fn insert(&mut self, placement: &Placement, base: BaseEval) -> bool {
        if !self.enabled() {
            return false;
        }
        let key = key_of(placement);
        if self.map.contains_key(key.as_ref()) {
            return false;
        }
        let mut evicted = false;
        if self.map.len() >= self.capacity {
            if let Some(oldest) = self.order.pop_front() {
                self.map.remove(oldest.as_ref());
                self.stats.evictions += 1;
                evicted = true;
            }
        }
        self.order.push_back(key.clone());
        self.map.insert(key, base);
        evicted
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
            let key: Box<[u8]> = devices.into();
            if cache.map.insert(key.clone(), step_time).is_some() {
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
}
