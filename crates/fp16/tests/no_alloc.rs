//! Audit that the dot-product hot paths are allocation-free.
//!
//! The functional GEMM layer calls `dot_acc` / `dot_packed_into` once
//! per output element per k-segment, and the batched backend's
//! `tile_dot` once per row, segment and column tile;
//! a single hidden `Vec` there multiplies into millions of allocator
//! round trips per sweep point. This suite counts allocations through
//! a wrapping global allocator and asserts the hot paths make zero —
//! in debug builds as well as release, so a regression fails `cargo
//! test` before it ever reaches a benchmark.

use pacq_fp16::batch::{self, TileRow};
use pacq_fp16::{
    AccPrecision, BaselineDpUnit, Fp16, NumericsMode, PackedWord, ParallelDpUnit, WeightPrecision,
    MAX_LANES,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Pass-through allocator that counts every allocation.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates verbatim to the system allocator; the counter is a
// relaxed atomic with no other side effects.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs `f` and returns how many allocations it made alongside its
/// result.
fn allocations_in<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = f();
    (ALLOCATIONS.load(Ordering::Relaxed) - before, out)
}

fn operands(len: usize) -> (Vec<Fp16>, Vec<Fp16>, Vec<PackedWord>) {
    let a: Vec<Fp16> = (0..len)
        .map(|i| Fp16::from_f32((i as f32 * 0.37 - 3.0).sin()))
        .collect();
    let b: Vec<Fp16> = (0..len)
        .map(|i| Fp16::from_f32((i as f32 * 0.51 + 1.0).cos()))
        .collect();
    let w: Vec<PackedWord> = (0..len)
        .map(|i| PackedWord::from_bits((i as u16).wrapping_mul(0x9e37)))
        .collect();
    (a, b, w)
}

// One single test: the allocation counter is process-global, so
// concurrent test threads would observe each other's setup allocations.
#[test]
fn hot_paths_do_not_allocate() {
    let (a, b, w) = operands(64);
    for acc in [AccPrecision::Fp32, AccPrecision::Fp16] {
        let dp = BaselineDpUnit::new(4).unwrap().with_acc_precision(acc);
        let (n, out) = allocations_in(|| {
            let mut c = 0f32;
            for (ca, cb) in a.chunks(4).zip(b.chunks(4)) {
                c = dp.dot_acc(c, ca, cb);
            }
            c
        });
        assert_eq!(n, 0, "BaselineDpUnit::dot_acc ({acc:?}) allocated");
        std::hint::black_box(out);
    }

    for precision in [WeightPrecision::Int4, WeightPrecision::Int2] {
        for numerics in [NumericsMode::PaperRounded, NumericsMode::Wide] {
            let dp = ParallelDpUnit::new(4, 2, precision)
                .unwrap()
                .with_numerics(numerics);
            let mut lane_sums = [0f32; MAX_LANES];
            let (n, out) = allocations_in(|| dp.dot_packed_into(&a, &w, &mut lane_sums));
            assert_eq!(
                n, 0,
                "ParallelDpUnit::dot_packed_into ({precision}/{numerics:?}) allocated"
            );
            std::hint::black_box(out);
        }
    }

    let dp = ParallelDpUnit::new(4, 2, WeightPrecision::Int4).unwrap();
    let result = dp.dot_packed(&a, &w);
    let scales = [0.5f32; MAX_LANES];
    let mut out = [0f32; MAX_LANES];
    let (n, _) = allocations_in(|| {
        result.recover_into(&mut out);
        result.recover_scaled_into(&scales, &mut out);
    });
    assert_eq!(n, 0, "PackedDotResult::recover_into allocated");
    std::hint::black_box(out);

    // Warm the lazily-built conversion table: that one-off build
    // allocates by design, the per-call kernels must not.
    batch::to_f32_table();

    let mut af = vec![0f32; a.len()];
    let tile: Vec<TileRow> = b
        .iter()
        .map(|x| std::array::from_fn(|c| x.to_f32() + c as f32))
        .collect();
    let (n, _) = allocations_in(|| batch::widen_into(&a, &mut af));
    assert_eq!(n, 0, "batch::widen_into allocated");
    let (n, out) = allocations_in(|| batch::activation_sum(&af));
    assert_eq!(n, 0, "batch::activation_sum allocated");
    std::hint::black_box(out);
    for numerics in [NumericsMode::PaperRounded, NumericsMode::Wide] {
        let (n, out) = allocations_in(|| batch::tile_dot(numerics, &af, &tile));
        assert_eq!(n, 0, "batch::tile_dot ({numerics:?}) allocated");
        std::hint::black_box(out);
    }
}
