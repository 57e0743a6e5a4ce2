//! The content-addressed on-disk report store.
//!
//! Layout: one directory, one file per entry, named `<digest>.json`
//! where the digest is [`CacheKey::digest`]. Writes are atomic (temp
//! file in the same directory, then rename) so a killed sweep never
//! leaves a half-written entry under its final name. Reads are
//! corruption-tolerant by construction: *any* failure — missing file,
//! unreadable bytes, malformed JSON, schema drift, a digest collision —
//! degrades to a cache miss and the caller recomputes. A cache must
//! never turn a recoverable storage problem into a wrong answer or an
//! error exit.

use std::fmt;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use pacq_error::{PacqError, PacqResult};
use pacq_trace::Json;

use crate::entry::GemmReport;
use crate::hot::HotTier;
use crate::key::{digest_of, CacheKey};

/// Extension used for committed entries.
const ENTRY_EXT: &str = "json";

/// A content-addressed report cache rooted at one directory.
///
/// Hit/miss/put-error counters are per-open-handle (session) tallies,
/// kept with relaxed atomics so a cache shared across rayon workers
/// counts without locking.
pub struct ReportCache {
    dir: PathBuf,
    hot: Option<HotTier>,
    hits: AtomicU64,
    misses: AtomicU64,
    put_errors: AtomicU64,
}

impl fmt::Debug for ReportCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ReportCache")
            .field("dir", &self.dir)
            .field("hot", &self.hot)
            .field("hits", &self.hits.load(Ordering::Relaxed))
            .field("misses", &self.misses.load(Ordering::Relaxed))
            .field("put_errors", &self.put_errors.load(Ordering::Relaxed))
            .finish()
    }
}

/// Aggregate statistics over the entries currently on disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Number of well-formed entries.
    pub entries: usize,
    /// Total bytes across all entry files (including corrupt ones).
    pub bytes: u64,
    /// Number of entry files that failed to decode or are mis-filed.
    pub corrupt: usize,
}

/// The result of a full integrity walk ([`ReportCache::verify`]).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct VerifyOutcome {
    /// Entries that decoded cleanly and live under their own digest.
    pub valid: usize,
    /// File names (not full paths) of entries that failed verification.
    pub corrupt: Vec<String>,
}

impl ReportCache {
    /// Opens (creating if needed) a cache rooted at `dir`.
    ///
    /// # Errors
    ///
    /// Returns [`PacqError::Io`] if the directory cannot be created —
    /// the only cache operation that refuses to degrade, because a
    /// `--cache` flag pointing at an uncreatable path is a user error
    /// worth surfacing immediately.
    pub fn open(dir: impl Into<PathBuf>) -> PacqResult<ReportCache> {
        let dir = dir.into();
        fs::create_dir_all(&dir).map_err(|e| PacqError::Io {
            context: "ReportCache::open",
            message: format!("cannot create cache directory {}: {e}", dir.display()),
        })?;
        Ok(ReportCache {
            dir,
            hot: None,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            put_errors: AtomicU64::new(0),
        })
    }

    /// Adds a bounded in-memory LRU hot tier of `capacity` entries in
    /// front of the disk store (see [`HotTier`]). A capacity of zero
    /// disables the tier entirely — every lookup goes to disk, which is
    /// the default and keeps the on-disk hit/miss tallies authoritative
    /// for callers that audit them.
    #[must_use]
    pub fn with_hot_tier(mut self, capacity: usize) -> Self {
        self.hot = (capacity > 0).then(|| HotTier::new(capacity));
        self
    }

    /// The hot tier, when one was configured via
    /// [`ReportCache::with_hot_tier`].
    pub fn hot_tier(&self) -> Option<&HotTier> {
        self.hot.as_ref()
    }

    /// The cache root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn entry_path(&self, digest: &str) -> PathBuf {
        self.dir.join(format!("{digest}.{ENTRY_EXT}"))
    }

    /// Looks up the report for `key`. Every failure mode — absent,
    /// truncated, corrupted, schema-drifted or collided entry — returns
    /// `None` (a miss); this method cannot error.
    ///
    /// With a hot tier configured, memory is consulted first: a hot hit
    /// skips the disk entirely (tallied as `cache.hot_hits`, not
    /// `cache.hits`), a hot miss falls through to the disk path, and a
    /// disk hit is promoted into the tier on the way out. A corrupt
    /// disk entry behind a hot miss is still just a miss — the caller
    /// recomputes, and the subsequent `put` heals both tiers.
    pub fn get(&self, key: &CacheKey) -> Option<GemmReport> {
        if let Some(hot) = &self.hot {
            if let Some(report) = hot.get(key) {
                return Some(report);
            }
        }
        let found = fs::read_to_string(self.entry_path(&key.digest()))
            .ok()
            .and_then(|text| Json::parse(&text).ok())
            .and_then(|doc| GemmReport::from_json(&doc, Some(key)).ok());
        match &found {
            Some(report) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                pacq_trace::add_counter("cache.hits", 1);
                if let Some(hot) = &self.hot {
                    hot.insert(key, report);
                }
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                pacq_trace::add_counter("cache.misses", 1);
            }
        }
        found
    }

    /// Stores `report` under `key`, atomically: the entry is written to
    /// a temp file in the cache directory and renamed into place, so
    /// concurrent readers see either the old entry or the complete new
    /// one, never a torn write.
    ///
    /// # Errors
    ///
    /// Returns [`PacqError::Io`] on filesystem failure. Callers on the
    /// hot path should treat this as a degradation (count it, keep the
    /// freshly computed report) rather than an exit — see
    /// [`ReportCache::put_degraded`].
    pub fn put(&self, key: &CacheKey, report: &GemmReport) -> PacqResult<()> {
        // Write-through into the hot tier first: the freshly computed
        // report is correct regardless of whether the disk accepts it,
        // so a read-only store still gets in-memory hits.
        if let Some(hot) = &self.hot {
            hot.insert(key, report);
        }
        let digest = key.digest();
        let final_path = self.entry_path(&digest);
        // Unique temp name per writer so parallel workers computing the
        // same point don't clobber each other's in-flight files; both
        // renames commit an identical entry, so either winning is fine.
        static TMP_SEQ: AtomicU64 = AtomicU64::new(0);
        let tmp_path = self.dir.join(format!(
            ".{digest}.{}.{}.tmp",
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let text = report.to_json(key).render();
        let write = |path: &Path| -> std::io::Result<()> {
            let mut f = fs::File::create(path)?;
            f.write_all(text.as_bytes())?;
            f.sync_all()?;
            Ok(())
        };
        write(&tmp_path)
            .and_then(|()| fs::rename(&tmp_path, &final_path))
            .map_err(|e| {
                let _ = fs::remove_file(&tmp_path);
                PacqError::Io {
                    context: "ReportCache::put",
                    message: format!("cannot write entry {}: {e}", final_path.display()),
                }
            })
    }

    /// [`ReportCache::put`] for the hot path: failures are tallied (and
    /// surfaced through the `cache.put_errors` trace counter) but never
    /// propagated — a read-only or full cache directory degrades a
    /// sweep to uncached speed instead of failing it.
    pub fn put_degraded(&self, key: &CacheKey, report: &GemmReport) {
        if self.put(key, report).is_err() {
            self.put_errors.fetch_add(1, Ordering::Relaxed);
            pacq_trace::add_counter("cache.put_errors", 1);
        }
    }

    /// Session hit count (lookups served from disk since open).
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Session miss count.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Session count of swallowed store failures.
    pub fn put_errors(&self) -> u64 {
        self.put_errors.load(Ordering::Relaxed)
    }

    /// Session count of lookups answered from the hot tier (0 when no
    /// tier is configured).
    pub fn hot_hits(&self) -> u64 {
        self.hot.as_ref().map_or(0, HotTier::hits)
    }

    /// Session count of hot-tier lookups that fell through to disk.
    pub fn hot_misses(&self) -> u64 {
        self.hot.as_ref().map_or(0, HotTier::misses)
    }

    /// Session count of hot-tier LRU evictions.
    pub fn hot_evictions(&self) -> u64 {
        self.hot.as_ref().map_or(0, HotTier::evictions)
    }

    fn entry_files(&self) -> PacqResult<Vec<PathBuf>> {
        let read = fs::read_dir(&self.dir).map_err(|e| PacqError::Io {
            context: "ReportCache::entry_files",
            message: format!("cannot read cache directory {}: {e}", self.dir.display()),
        })?;
        let mut files = Vec::new();
        for dirent in read {
            let dirent = dirent.map_err(|e| PacqError::Io {
                context: "ReportCache::entry_files",
                message: format!("cannot enumerate {}: {e}", self.dir.display()),
            })?;
            let path = dirent.path();
            let is_entry = path.extension().and_then(|e| e.to_str()) == Some(ENTRY_EXT)
                && path
                    .file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| !n.starts_with('.'));
            if is_entry {
                files.push(path);
            }
        }
        files.sort();
        Ok(files)
    }

    /// Walks the store and reports entry/byte/corrupt counts (for
    /// `pacq cache stats`).
    ///
    /// # Errors
    ///
    /// Returns [`PacqError::Io`] if the directory itself is unreadable.
    pub fn stats(&self) -> PacqResult<CacheStats> {
        let mut out = CacheStats::default();
        for path in self.entry_files()? {
            if let Ok(meta) = fs::metadata(&path) {
                out.bytes += meta.len();
            }
            if Self::check_entry(&path).is_ok() {
                out.entries += 1;
            } else {
                out.corrupt += 1;
            }
        }
        Ok(out)
    }

    /// Deletes every entry (for `pacq cache clear`), returning how many
    /// files were removed.
    ///
    /// # Errors
    ///
    /// Returns [`PacqError::Io`] if the directory is unreadable or an
    /// entry cannot be removed.
    pub fn clear(&self) -> PacqResult<usize> {
        let files = self.entry_files()?;
        let removed = files.len();
        for path in files {
            fs::remove_file(&path).map_err(|e| PacqError::Io {
                context: "ReportCache::clear",
                message: format!("cannot remove {}: {e}", path.display()),
            })?;
        }
        Ok(removed)
    }

    /// Fully decodes one entry file and checks it is filed under the
    /// digest of its own stored key.
    fn check_entry(path: &Path) -> PacqResult<()> {
        let text = fs::read_to_string(path).map_err(|e| PacqError::Io {
            context: "ReportCache::verify",
            message: format!("cannot read {}: {e}", path.display()),
        })?;
        let doc = Json::parse(&text)?;
        let report_key = GemmReport::stored_key(&doc).ok_or_else(|| {
            PacqError::invalid_input("ReportCache::verify", "entry has no stored key")
        })?;
        let expected_name = format!("{}.{ENTRY_EXT}", digest_of(report_key));
        let actual_name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if actual_name != expected_name {
            return Err(PacqError::invalid_input(
                "ReportCache::verify",
                format!("entry {actual_name} is filed under the wrong digest"),
            ));
        }
        GemmReport::from_json(&doc, None).map(|_| ())
    }

    /// Integrity-walks every entry (for `pacq cache verify`): each file
    /// must parse, decode, and live under the digest of its own stored
    /// key.
    ///
    /// # Errors
    ///
    /// Returns [`PacqError::Io`] if the directory itself is unreadable;
    /// per-entry failures are reported in the outcome, not as errors.
    pub fn verify(&self) -> PacqResult<VerifyOutcome> {
        let mut out = VerifyOutcome::default();
        for path in self.entry_files()? {
            if Self::check_entry(&path).is_ok() {
                out.valid += 1;
            } else {
                let name = path
                    .file_name()
                    .and_then(|n| n.to_str())
                    .unwrap_or("<non-utf8>")
                    .to_string();
                out.corrupt.push(name);
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pacq_fp16::WeightPrecision;
    use pacq_simt::{Architecture, EnergyReport, GemmShape, GemmStats, SmConfig, Workload};

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("pacq-cache-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

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
    fn put_then_get_round_trips_and_counts() {
        let dir = tmpdir("roundtrip");
        let cache = ReportCache::open(&dir).unwrap();
        let (key, report) = sample(16);
        assert!(cache.get(&key).is_none());
        cache.put(&key, &report).unwrap();
        assert_eq!(cache.get(&key).unwrap(), report);
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_and_garbage_entries_are_misses_not_errors() {
        let dir = tmpdir("corrupt");
        let cache = ReportCache::open(&dir).unwrap();
        let (key, report) = sample(16);
        cache.put(&key, &report).unwrap();

        let path = cache.entry_path(&key.digest());
        let full = fs::read_to_string(&path).unwrap();
        // Truncate to half.
        fs::write(&path, &full[..full.len() / 2]).unwrap();
        assert!(cache.get(&key).is_none());
        // Replace with non-JSON garbage.
        fs::write(&path, b"\x00\xff not json").unwrap();
        assert!(cache.get(&key).is_none());
        // Valid JSON, wrong schema.
        fs::write(&path, "{\"schema\": \"other/v9\"}\n").unwrap();
        assert!(cache.get(&key).is_none());
        // Recovery: a fresh put heals the slot.
        cache.put(&key, &report).unwrap();
        assert_eq!(cache.get(&key).unwrap(), report);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn entry_for_a_different_key_under_our_digest_is_a_miss() {
        let dir = tmpdir("collide");
        let cache = ReportCache::open(&dir).unwrap();
        let (key_a, report_a) = sample(16);
        let (key_b, _) = sample(32);
        cache.put(&key_a, &report_a).unwrap();
        // Simulate a digest collision: file A's entry under B's digest.
        fs::copy(
            cache.entry_path(&key_a.digest()),
            cache.entry_path(&key_b.digest()),
        )
        .unwrap();
        assert!(cache.get(&key_b).is_none(), "collision must read as miss");
        assert_eq!(cache.get(&key_a).unwrap(), report_a);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stats_clear_and_verify_agree() {
        let dir = tmpdir("maint");
        let cache = ReportCache::open(&dir).unwrap();
        for m in [16, 32, 64] {
            let (key, report) = sample(m);
            cache.put(&key, &report).unwrap();
        }
        // One corrupt file and one mis-filed entry.
        fs::write(dir.join("deadbeefdeadbeefdeadbeefdeadbeef.json"), "{").unwrap();
        let (key_a, _) = sample(16);
        let (key_b, _) = sample(32);
        fs::copy(
            cache.entry_path(&key_a.digest()),
            dir.join(format!("{}x.json", &key_b.digest()[..31])),
        )
        .unwrap();

        let stats = cache.stats().unwrap();
        assert_eq!((stats.entries, stats.corrupt), (3, 2));
        assert!(stats.bytes > 0);

        let verify = cache.verify().unwrap();
        assert_eq!(verify.valid, 3);
        assert_eq!(verify.corrupt.len(), 2);

        assert_eq!(cache.clear().unwrap(), 5);
        assert_eq!(cache.stats().unwrap(), CacheStats::default());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn hot_tier_intercepts_repeat_lookups_and_heals_from_memory() {
        let dir = tmpdir("hot");
        let cache = ReportCache::open(&dir).unwrap().with_hot_tier(8);
        let (key, report) = sample(16);
        assert!(cache.get(&key).is_none());
        cache.put(&key, &report).unwrap();
        // put wrote through, so the first lookup is already a hot hit
        // and the disk tallies stay untouched.
        assert_eq!(cache.get(&key).unwrap(), report);
        assert_eq!(cache.get(&key).unwrap(), report);
        assert_eq!(cache.hot_hits(), 2);
        assert_eq!((cache.hits(), cache.misses()), (0, 1));
        // Deleting the disk entry doesn't matter while hot: replies
        // still come back bit-identical from memory.
        fs::remove_file(cache.entry_path(&key.digest())).unwrap();
        assert_eq!(cache.get(&key).unwrap(), report);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_hits_are_promoted_into_the_hot_tier() {
        let dir = tmpdir("promote");
        let seed = ReportCache::open(&dir).unwrap();
        let (key, report) = sample(32);
        seed.put(&key, &report).unwrap();
        // Fresh handle with an empty hot tier: first lookup goes to
        // disk, second is served from memory.
        let cache = ReportCache::open(&dir).unwrap().with_hot_tier(8);
        assert_eq!(cache.get(&key).unwrap(), report);
        assert_eq!(
            (cache.hits(), cache.hot_hits(), cache.hot_misses()),
            (1, 0, 1)
        );
        assert_eq!(cache.get(&key).unwrap(), report);
        assert_eq!((cache.hits(), cache.hot_hits()), (1, 1));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn zero_hot_capacity_disables_the_tier() {
        let dir = tmpdir("nohot");
        let cache = ReportCache::open(&dir).unwrap().with_hot_tier(0);
        assert!(cache.hot_tier().is_none());
        let (key, report) = sample(16);
        cache.put(&key, &report).unwrap();
        assert_eq!(cache.get(&key).unwrap(), report);
        assert_eq!((cache.hits(), cache.hot_hits()), (1, 0));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn put_degraded_swallows_filesystem_failure() {
        let dir = tmpdir("degraded");
        let cache = ReportCache::open(&dir).unwrap();
        // Make the directory vanish out from under the cache.
        fs::remove_dir_all(&dir).unwrap();
        let (key, report) = sample(16);
        cache.put_degraded(&key, &report);
        assert_eq!(cache.put_errors(), 1);
    }
}
