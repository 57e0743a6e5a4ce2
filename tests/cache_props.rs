//! Property tests for the content-addressed report cache and the
//! sharded grid engine (DESIGN.md §12): a cache hit must be
//! bit-identical to a fresh computation, a damaged entry must be a miss
//! (never an error), and shard slices must partition the grid exactly.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use pacq::{
    run_dse, Architecture, DseAxes, DseJob, DsePlan, GemmRunner, GemmShape, GroupShape,
    ReportCache, Shard, Workload,
};
use pacq_fp16::WeightPrecision;
use proptest::prelude::*;

/// A unique scratch directory per proptest case (cases run concurrently
/// across test binaries, so the process id alone is not enough).
fn scratch_dir(tag: &str) -> std::path::PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let mut p = std::env::temp_dir();
    p.push(format!(
        "pacq-cache-props-{}-{tag}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&p);
    p
}

fn any_precision() -> impl Strategy<Value = WeightPrecision> {
    prop_oneof![Just(WeightPrecision::Int4), Just(WeightPrecision::Int2)]
}

fn any_arch() -> impl Strategy<Value = Architecture> {
    prop_oneof![
        Just(Architecture::StandardDequant),
        Just(Architecture::PackedK),
        Just(Architecture::Pacq),
    ]
}

/// Ragged shapes included: the zero-padding path must cache exactly
/// like the aligned one.
fn any_shape() -> impl Strategy<Value = GemmShape> {
    (1usize..48, 1usize..96, 1usize..96).prop_map(|(m, n, k)| GemmShape::new(m, n, k))
}

/// The single cache entry file in `dir`.
fn entry_file(dir: &std::path::Path) -> std::path::PathBuf {
    std::fs::read_dir(dir)
        .expect("cache dir exists")
        .filter_map(Result::ok)
        .map(|e| e.path())
        .find(|p| p.extension().is_some_and(|x| x == "json"))
        .expect("exactly one cache entry")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A cache hit returns the same report as a fresh computation, down
    /// to the bit patterns of the derived floats.
    #[test]
    fn cached_reports_are_bit_identical_to_fresh(
        shape in any_shape(),
        arch in any_arch(),
        precision in any_precision(),
    ) {
        let dir = scratch_dir("roundtrip");
        let wl = Workload::new(shape, precision);
        let fresh = GemmRunner::new().analyze(arch, wl).unwrap();

        let cache = Arc::new(ReportCache::open(&dir).unwrap());
        let runner = GemmRunner::new().with_cache(Arc::clone(&cache));
        let miss = runner.analyze(arch, wl).unwrap();
        let hit = runner.analyze(arch, wl).unwrap();

        prop_assert_eq!((cache.misses(), cache.hits()), (1, 1));
        prop_assert_eq!(&miss, &fresh);
        prop_assert_eq!(&hit, &fresh);
        prop_assert_eq!(hit.latency_s.to_bits(), fresh.latency_s.to_bits());
        prop_assert_eq!(hit.edp_pj_s.to_bits(), fresh.edp_pj_s.to_bits());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A truncated or garbage entry is a miss that recomputes and heals
    /// — never an error, never a wrong answer.
    #[test]
    fn damaged_entries_are_misses_that_recompute(
        cut in 0usize..2048,
        garbage in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        let dir = scratch_dir("damage");
        let wl = Workload::new(GemmShape::new(16, 64, 64), WeightPrecision::Int4);
        let cache = Arc::new(ReportCache::open(&dir).unwrap());
        let runner = GemmRunner::new().with_cache(Arc::clone(&cache));
        let fresh = runner.analyze(Architecture::Pacq, wl).unwrap();

        let entry = entry_file(&dir);
        let intact = std::fs::read(&entry).unwrap();
        // Truncation at an arbitrary byte, then arbitrary garbage: both
        // classes of damage must degrade to a miss.
        for damage in [&intact[..cut.min(intact.len())], &garbage[..]] {
            std::fs::write(&entry, damage).unwrap();
            let recomputed = runner.analyze(Architecture::Pacq, wl).unwrap();
            prop_assert_eq!(&recomputed, &fresh);
        }
        // The recompute healed the store: the next lookup hits again.
        let before = cache.hits();
        let again = runner.analyze(Architecture::Pacq, wl).unwrap();
        prop_assert_eq!(&again, &fresh);
        prop_assert_eq!(cache.hits(), before + 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Hot tier ≡ disk ≡ fresh: with the LRU tier mounted, a hot hit, a
    /// disk hit behind a cold tier, and a fresh computation all return
    /// the same report down to the float bit patterns.
    #[test]
    fn hot_disk_and_fresh_reports_are_bit_identical(
        shape in any_shape(),
        arch in any_arch(),
        precision in any_precision(),
    ) {
        let dir = scratch_dir("hot-roundtrip");
        let wl = Workload::new(shape, precision);
        let fresh = GemmRunner::new().analyze(arch, wl).unwrap();

        // Store A computes on a miss, write-through fills its hot tier,
        // and the repeat is answered from memory.
        let store_a = Arc::new(ReportCache::open(&dir).unwrap().with_hot_tier(4));
        let runner_a = GemmRunner::new().with_cache(Arc::clone(&store_a));
        let miss = runner_a.analyze(arch, wl).unwrap();
        let hot_hit = runner_a.analyze(arch, wl).unwrap();
        prop_assert_eq!((store_a.misses(), store_a.hits()), (1, 0));
        prop_assert_eq!(store_a.hot_hits(), 1);

        // Store B shares the directory but starts with a cold tier: the
        // first lookup is a disk hit (promoted), the second a hot hit.
        let store_b = Arc::new(ReportCache::open(&dir).unwrap().with_hot_tier(4));
        let runner_b = GemmRunner::new().with_cache(Arc::clone(&store_b));
        let disk_hit = runner_b.analyze(arch, wl).unwrap();
        let promoted = runner_b.analyze(arch, wl).unwrap();
        prop_assert_eq!((store_b.misses(), store_b.hits()), (0, 1));
        prop_assert_eq!(store_b.hot_hits(), 1);

        for got in [&miss, &hot_hit, &disk_hit, &promoted] {
            prop_assert_eq!(got, &fresh);
            prop_assert_eq!(got.latency_s.to_bits(), fresh.latency_s.to_bits());
            prop_assert_eq!(got.edp_pj_s.to_bits(), fresh.edp_pj_s.to_bits());
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Eviction respects capacity exactly: pushing `keys` distinct
    /// points through a tier of capacity `cap` evicts precisely
    /// `keys - cap` entries (never more, never earlier), the newest
    /// `cap` points stay memory-resident, and evicted points fall back
    /// to bit-identical disk hits.
    #[test]
    fn hot_eviction_is_exact_and_evictees_fall_back_to_disk(
        cap in 1usize..6,
        keys in 1usize..10,
    ) {
        let dir = scratch_dir("hot-evict");
        let cache = Arc::new(ReportCache::open(&dir).unwrap().with_hot_tier(cap));
        let runner = GemmRunner::new().with_cache(Arc::clone(&cache));
        let wl = |i: usize| Workload::new(
            GemmShape::new(16 * (i + 1), 64, 64),
            WeightPrecision::Int4,
        );
        for i in 0..keys {
            runner.analyze(Architecture::Pacq, wl(i)).unwrap();
        }
        prop_assert_eq!(
            cache.hot_evictions(),
            keys.saturating_sub(cap) as u64,
            "strictly capacity-driven eviction"
        );

        // The most recent `cap` points answer from memory...
        let hot_before = cache.hot_hits();
        for i in keys.saturating_sub(cap)..keys {
            runner.analyze(Architecture::Pacq, wl(i)).unwrap();
        }
        prop_assert_eq!(cache.hot_hits(), hot_before + keys.min(cap) as u64);
        // ...and the oldest evicted point (if any) is a disk hit, not a
        // recompute.
        if keys > cap {
            let (hits, misses) = (cache.hits(), cache.misses());
            runner.analyze(Architecture::Pacq, wl(0)).unwrap();
            prop_assert_eq!(cache.hits(), hits + 1);
            prop_assert_eq!(cache.misses(), misses);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A corrupt disk entry behind a hot miss degrades to a recompute
    /// that heals both tiers; a hot *hit* shields the damage entirely.
    #[test]
    fn corrupt_disk_behind_a_hot_miss_recomputes_and_heals(
        garbage in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        let dir = scratch_dir("hot-damage");
        let wl = Workload::new(GemmShape::new(16, 64, 64), WeightPrecision::Int4);
        let store_a = Arc::new(ReportCache::open(&dir).unwrap().with_hot_tier(4));
        let runner_a = GemmRunner::new().with_cache(Arc::clone(&store_a));
        let fresh = runner_a.analyze(Architecture::Pacq, wl).unwrap();

        let entry = entry_file(&dir);
        std::fs::write(&entry, &garbage).unwrap();

        // Hot hit: the resident tier shields the damaged disk entry.
        let shielded = runner_a.analyze(Architecture::Pacq, wl).unwrap();
        prop_assert_eq!(&shielded, &fresh);
        prop_assert_eq!(store_a.misses(), 1, "no recompute behind a hot hit");

        // Cold tier: hot miss, damaged disk read degrades to a miss,
        // the recompute heals the file and the new tier.
        let store_b = Arc::new(ReportCache::open(&dir).unwrap().with_hot_tier(4));
        let runner_b = GemmRunner::new().with_cache(Arc::clone(&store_b));
        let healed = runner_b.analyze(Architecture::Pacq, wl).unwrap();
        prop_assert_eq!(&healed, &fresh);
        prop_assert_eq!((store_b.misses(), store_b.hot_hits()), (1, 0));

        // Both tiers healed: memory answers store B, disk answers a
        // third, tier-less store.
        let again = runner_b.analyze(Architecture::Pacq, wl).unwrap();
        prop_assert_eq!(&again, &fresh);
        prop_assert_eq!(store_b.hot_hits(), 1);
        let store_c = Arc::new(ReportCache::open(&dir).unwrap());
        let from_disk = GemmRunner::new()
            .with_cache(Arc::clone(&store_c))
            .analyze(Architecture::Pacq, wl)
            .unwrap();
        prop_assert_eq!(&from_disk, &fresh);
        prop_assert_eq!((store_c.hits(), store_c.misses()), (1, 0));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// `--shard i/N` slices are pairwise disjoint and their union is the
    /// full grid, for any job count and shard count.
    #[test]
    fn shard_slices_partition_any_grid(
        total in 0usize..500,
        count in 1usize..16,
    ) {
        let mut seen = vec![0u32; total];
        for index in 1..=count {
            let shard = Shard { index, count };
            for (job, hits) in seen.iter_mut().enumerate() {
                if shard.selects(job) {
                    *hits += 1;
                }
            }
        }
        prop_assert!(
            seen.iter().all(|&h| h == 1),
            "every job must belong to exactly one shard"
        );
    }
}

/// The partition property holds end-to-end through `run_dse`: three
/// shards of the default (`sweep --param grid`) preset execute disjoint job sets whose union
/// is the full plan.
#[test]
fn sweep_shards_reunite_to_the_full_grid() {
    let plan = DsePlan::enumerate(&DseAxes::defaults(4, 2, GroupShape::G128), 64, 64);
    let runner = GemmRunner::new();
    let mut union: Vec<String> = Vec::new();
    for index in 1..=3 {
        let out = run_dse(&runner, &plan, Shard { index, count: 3 }, None).unwrap();
        assert_eq!(out.tally.selected, out.tally.executed);
        union.extend(out.rows.iter().map(|r| r.job.id()));
    }
    let mut expected: Vec<String> = plan.jobs().iter().map(DseJob::id).collect();
    union.sort();
    expected.sort();
    assert_eq!(union, expected);
}
