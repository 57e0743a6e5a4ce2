//! Bounded in-memory LRU hot tier in front of the on-disk store.
//!
//! The serving tier answers the same few hundred distinct points over
//! and over (decode traffic is highly repetitive), so a small in-memory
//! map in front of the content-addressed disk store turns most lookups
//! into a lock + clone instead of a read + parse + decode. The tier
//! keeps the exact discipline of the disk store:
//!
//! - entries are addressed by [`CacheKey::digest`], and the full
//!   canonical key string is stored alongside each report and
//!   re-checked on every lookup, so a digest collision reads as a miss,
//!   never as a wrong answer;
//! - a hit hands back the same [`GemmReport`] value that was
//!   inserted, so hot-tier replies are bit-identical to disk hits and
//!   to fresh computation;
//! - eviction is strict LRU at exactly the configured capacity — the
//!   tier never holds `capacity + 1` entries, and every eviction is
//!   tallied (`cache.hot_evictions`).
//!
//! Hot-tier traffic is accounted separately from the disk counters
//! (`cache.hot_hits` / `cache.hot_misses` vs `cache.hits` /
//! `cache.misses`): a hot hit never touches the disk, so folding it
//! into the disk tallies would make the on-disk hit rate unauditable.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

use crate::entry::GemmReport;
use crate::key::CacheKey;

/// Locks a mutex, ignoring poisoning: the guarded maps hold plain data
/// whose invariants are re-established on every operation, so a panic
/// in another thread (test-only by workspace lint) cannot corrupt them.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// One resident entry: the canonical key it answers for, the report,
/// and its position in the recency order.
struct HotEntry {
    canonical: String,
    report: GemmReport,
    stamp: u64,
}

/// The interior map pair, guarded by one mutex: `entries` is the
/// digest-addressed store, `recency` orders digests by last use
/// (smallest stamp = least recently used).
struct HotInner {
    entries: HashMap<String, HotEntry>,
    recency: BTreeMap<u64, String>,
    tick: u64,
}

impl HotInner {
    /// Moves `digest` to the most-recently-used position.
    fn touch(&mut self, digest: &str) {
        self.tick += 1;
        let stamp = self.tick;
        if let Some(entry) = self.entries.get_mut(digest) {
            self.recency.remove(&entry.stamp);
            entry.stamp = stamp;
            self.recency.insert(stamp, digest.to_string());
        }
    }
}

/// A bounded in-memory LRU cache of [`GemmReport`]s keyed by digest.
///
/// Thread-safe: one mutex over the maps, relaxed atomics for the
/// session tallies (same discipline as the disk store's counters).
pub struct HotTier {
    capacity: usize,
    inner: Mutex<HotInner>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl std::fmt::Debug for HotTier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HotTier")
            .field("capacity", &self.capacity)
            .field("len", &self.len())
            .field("hits", &self.hits.load(Ordering::Relaxed))
            .field("misses", &self.misses.load(Ordering::Relaxed))
            .field("evictions", &self.evictions.load(Ordering::Relaxed))
            .finish()
    }
}

impl HotTier {
    /// Creates a tier holding at most `capacity` entries. A capacity of
    /// zero is pinned up to one so a constructed tier can always hold
    /// something; callers that want *no* hot tier simply don't build
    /// one (see `ReportCache::with_hot_tier`).
    pub fn new(capacity: usize) -> HotTier {
        HotTier {
            capacity: capacity.max(1),
            inner: Mutex::new(HotInner {
                entries: HashMap::new(),
                recency: BTreeMap::new(),
                tick: 0,
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// The configured capacity (≥ 1).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of currently resident entries (≤ capacity, always).
    pub fn len(&self) -> usize {
        lock(&self.inner).entries.len()
    }

    /// True when nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Looks up `key`. A resident entry whose stored canonical key
    /// differs from `key.canonical()` (a digest collision) is a miss,
    /// exactly like the disk store's collision discipline.
    pub fn get(&self, key: &CacheKey) -> Option<GemmReport> {
        let digest = key.digest();
        let mut inner = lock(&self.inner);
        let found = match inner.entries.get(&digest) {
            Some(entry) if entry.canonical == key.canonical() => Some(entry.report.clone()),
            _ => None,
        };
        match &found {
            Some(_) => {
                inner.touch(&digest);
                drop(inner);
                self.hits.fetch_add(1, Ordering::Relaxed);
                pacq_trace::add_counter("cache.hot_hits", 1);
            }
            None => {
                drop(inner);
                self.misses.fetch_add(1, Ordering::Relaxed);
                pacq_trace::add_counter("cache.hot_misses", 1);
            }
        }
        found
    }

    /// Inserts (or refreshes) `report` under `key`, evicting the least
    /// recently used entry first if the tier is at capacity.
    pub fn insert(&self, key: &CacheKey, report: &GemmReport) {
        let digest = key.digest();
        let mut inner = lock(&self.inner);
        if inner.entries.contains_key(&digest) {
            // Refresh in place; no eviction needed.
            if let Some(entry) = inner.entries.get_mut(&digest) {
                entry.canonical = key.canonical().to_string();
                entry.report = report.clone();
            }
            inner.touch(&digest);
            return;
        }
        let mut evicted = 0u64;
        while inner.entries.len() >= self.capacity {
            let Some((&oldest_stamp, _)) = inner.recency.iter().next() else {
                break;
            };
            if let Some(oldest_digest) = inner.recency.remove(&oldest_stamp) {
                inner.entries.remove(&oldest_digest);
                evicted += 1;
            }
        }
        inner.tick += 1;
        let stamp = inner.tick;
        inner.recency.insert(stamp, digest.clone());
        inner.entries.insert(
            digest,
            HotEntry {
                canonical: key.canonical().to_string(),
                report: report.clone(),
                stamp,
            },
        );
        drop(inner);
        if evicted > 0 {
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
            pacq_trace::add_counter("cache.hot_evictions", evicted);
        }
    }

    /// Session count of lookups answered from memory.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Session count of lookups that fell through to the next tier.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Session count of LRU evictions.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pacq_fp16::WeightPrecision;
    use pacq_simt::{Architecture, EnergyReport, GemmShape, GemmStats, SmConfig, Workload};

    fn sample(m: usize) -> (CacheKey, GemmReport) {
        let shape = GemmShape::new(m, 256, 256);
        let key = CacheKey::new(
            &SmConfig::volta_like(),
            shape,
            4,
            "pacq:g128:rounded",
            "builtin",
        );
        let report = GemmReport {
            arch: Architecture::Pacq,
            workload: Workload::new(shape, WeightPrecision::Int4),
            stats: GemmStats {
                total_cycles: 42 + m as u64,
                ..GemmStats::default()
            },
            energy: EnergyReport {
                tc_pj: 1.5,
                rf_pj: 0.25,
                l1_pj: 0.125,
                dram_pj: 8.0,
                buffer_pj: 0.5,
                general_pj: 0.75,
            },
            latency_s: 1e-6 * m as f64,
            edp_pj_s: 2e-3,
        };
        (key, report)
    }

    #[test]
    fn insert_then_get_is_bit_identical_and_counted() {
        let tier = HotTier::new(4);
        let (key, report) = sample(16);
        assert!(tier.get(&key).is_none());
        tier.insert(&key, &report);
        assert_eq!(tier.get(&key).unwrap(), report);
        assert_eq!((tier.hits(), tier.misses()), (1, 1));
        assert_eq!(tier.len(), 1);
    }

    #[test]
    fn eviction_is_strict_lru_at_exact_capacity() {
        let tier = HotTier::new(2);
        let (k16, r16) = sample(16);
        let (k32, r32) = sample(32);
        let (k64, r64) = sample(64);
        tier.insert(&k16, &r16);
        tier.insert(&k32, &r32);
        assert_eq!(tier.len(), 2);
        // Touch 16 so 32 becomes the LRU victim.
        assert!(tier.get(&k16).is_some());
        tier.insert(&k64, &r64);
        assert_eq!(tier.len(), 2, "capacity must hold exactly");
        assert_eq!(tier.evictions(), 1);
        assert!(tier.get(&k32).is_none(), "LRU entry must be gone");
        assert!(tier.get(&k16).is_some());
        assert!(tier.get(&k64).is_some());
    }

    #[test]
    fn reinserting_a_resident_digest_refreshes_without_eviction() {
        let tier = HotTier::new(1);
        let (key, report) = sample(16);
        tier.insert(&key, &report);
        tier.insert(&key, &report);
        assert_eq!(tier.len(), 1);
        assert_eq!(tier.evictions(), 0);
    }

    #[test]
    fn zero_capacity_is_pinned_to_one() {
        let tier = HotTier::new(0);
        assert_eq!(tier.capacity(), 1);
        let (key, report) = sample(16);
        tier.insert(&key, &report);
        assert_eq!(tier.get(&key).unwrap(), report);
    }
}
