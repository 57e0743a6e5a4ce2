//! Runtime selection of the vector width the batched kernel is compiled
//! for.
//!
//! The default x86-64 target guarantees only SSE2, so an 8-wide f32
//! [`crate::batch::TileRow`] takes two 128-bit vectors. [`run`]
//! compiles its closure a second time inside a
//! `#[target_feature(enable = "avx2")]` function and calls that copy
//! when the host has AVX2, where the same row fits one 256-bit vector.
//! The variant is picked per call from the standard library's cached
//! CPU-feature check; every other host, and every other target, runs
//! the baseline copy. Both copies are the same source: Rust never
//! contracts `a * b + c` into an FMA and the operation order is fixed
//! by the code, so they are bit-identical on every finite result.
//!
//! This is the crate's one `unsafe`: calling a target-feature function
//! from code compiled without that feature.

/// Runs `f`, compiled with AVX2 enabled when the host supports it.
/// Mark `f` `#[inline(always)]` (and what it calls) so its body is
/// compiled into the AVX2 function rather than called from it.
#[inline(always)]
pub(crate) fn run<R>(f: impl FnOnce() -> R) -> R {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: `avx2` requires only the AVX2 instruction set, and
        // `is_x86_feature_detected!("avx2")` just confirmed this CPU
        // (and its OS) supports it.
        #[allow(unsafe_code)]
        return unsafe { avx2(f) };
    }
    f()
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn avx2<R>(f: impl FnOnce() -> R) -> R {
    f()
}

/// Which copy [`run`] executes on this host: `"avx2"` or `"baseline"`.
pub(crate) fn variant() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        return "avx2";
    }
    "baseline"
}
