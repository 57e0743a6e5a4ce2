//! Offline drop-in subset of the `rayon` API.
//!
//! Hermetic build environments cannot fetch crates.io dependencies, so
//! the workspace carries its own work-stealing-free data-parallelism
//! layer with rayon's call shapes (see `DESIGN.md` §8). It covers
//! exactly what the PacQ hot paths use:
//!
//! * `slice.par_chunks_mut(n).enumerate().for_each(..)` — the GEMM /
//!   quantizer row fan-out,
//! * `vec.into_par_iter().map(..).collect::<Vec<_>>()` and the same on
//!   `Range<usize>` — order-preserving sweep fan-out, plus
//!   `map_init(..)` for per-worker scratch (the GEMM column-tile jobs),
//! * [`ThreadPoolBuilder`] / [`current_num_threads`] — the `--jobs`
//!   knob — and `ThreadPoolBuilder::new().num_threads(n).build()?
//!   .install(f)`, which runs `f` at `n` workers without touching the
//!   process-wide count.
//!
//! Parallelism is plain `std::thread::scope` over contiguous blocks: the
//! item list is split into one block per worker, each worker runs its
//! block **in order**, and `collect` re-assembles blocks in block order.
//! Results are therefore position-stable: every item is computed by
//! exactly the same code as the serial path and lands in the same slot,
//! which is what the workspace's bit-identical-under-`--jobs` guarantee
//! rests on.
//!
//! Unlike upstream rayon, [`ThreadPoolBuilder::build_global`] here is
//! idempotent and re-configurable. A [`ThreadPool`] owns no threads: it
//! is a worker count that [`ThreadPool::install`] scopes to the calling
//! thread (and to the workers its parallel calls fan out to), so tests
//! running side by side can each pin their own count.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cell::Cell;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Configured global worker count; 0 means "not set, use the host".
static NUM_THREADS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Worker count of the [`ThreadPool::install`] this thread runs in;
    /// 0 outside any.
    static INSTALLED: Cell<usize> = const { Cell::new(0) };
}

/// Errors from [`ThreadPoolBuilder::build`] and
/// [`ThreadPoolBuilder::build_global`] (never produced by this shim;
/// the signatures match upstream so call sites can `?`/log).
#[derive(Debug)]
pub struct ThreadPoolBuildError;

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("global thread pool configuration failed")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

/// Builder for the global worker configuration.
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

impl ThreadPoolBuilder {
    /// Starts a builder with the default (host) worker count.
    pub fn new() -> Self {
        ThreadPoolBuilder { num_threads: 0 }
    }

    /// Sets the worker count; 0 restores the host default.
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = n;
        self
    }

    /// Installs this configuration globally.
    ///
    /// Idempotent and re-configurable (unlike upstream rayon), so tests
    /// can flip between worker counts.
    pub fn build_global(self) -> Result<(), ThreadPoolBuildError> {
        NUM_THREADS.store(self.num_threads, Ordering::SeqCst);
        Ok(())
    }

    /// Builds a pool of this many workers (the host count for 0) for
    /// [`ThreadPool::install`].
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        let num_threads = match self.num_threads {
            0 => host_threads(),
            n => n,
        };
        Ok(ThreadPool { num_threads })
    }
}

/// A worker count scoped to the closures [`ThreadPool::install`] runs.
#[derive(Debug)]
pub struct ThreadPool {
    num_threads: usize,
}

impl ThreadPool {
    /// Runs `op` on the calling thread with this pool's worker count:
    /// every parallel operation inside it, nested ones included, fans
    /// out to [`ThreadPool::current_num_threads`] workers, whatever the
    /// process-wide count. The previous scope is restored on return,
    /// also by a panic.
    pub fn install<OP, R>(&self, op: OP) -> R
    where
        OP: FnOnce() -> R + Send,
        R: Send,
    {
        struct Restore(usize);
        impl Drop for Restore {
            fn drop(&mut self) {
                INSTALLED.with(|c| c.set(self.0));
            }
        }
        let _restore = Restore(INSTALLED.with(|c| c.replace(self.num_threads)));
        op()
    }

    /// This pool's worker count.
    pub fn current_num_threads(&self) -> usize {
        self.num_threads
    }
}

fn host_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The number of workers parallel operations will fan out to: the
/// installed pool's, else the process-wide count, else the host's.
pub fn current_num_threads() -> usize {
    match INSTALLED.with(Cell::get) {
        0 => match NUM_THREADS.load(Ordering::SeqCst) {
            0 => host_threads(),
            n => n,
        },
        n => n,
    }
}

/// Splits `items` into one contiguous block per worker, maps each block
/// on its own scoped thread, and re-concatenates the per-block outputs
/// in block order. Falls back to a plain in-place loop when one worker
/// (or one item) makes threading pure overhead.
fn map_blocks<I, O, F>(items: Vec<I>, f: F) -> Vec<O>
where
    I: Send,
    O: Send,
    F: Fn(I) -> O + Sync,
{
    map_blocks_init(items, || (), |(), item| f(item))
}

/// [`map_blocks`] with per-block state: `init` runs once per block and
/// every item of the block is mapped with `&mut` access to its result.
fn map_blocks_init<I, S, O, INIT, F>(items: Vec<I>, init: INIT, f: F) -> Vec<O>
where
    I: Send,
    O: Send,
    INIT: Fn() -> S + Sync,
    F: Fn(&mut S, I) -> O + Sync,
{
    let run = |block: Vec<I>| {
        let mut state = init();
        block
            .into_iter()
            .map(|item| f(&mut state, item))
            .collect::<Vec<O>>()
    };
    let threads = current_num_threads();
    let workers = threads.max(1).min(items.len().max(1));
    if workers <= 1 || items.len() <= 1 {
        return run(items);
    }
    // Ceiling split keeps blocks contiguous and within one of each other
    // in size.
    let block = items.len().div_ceil(workers);
    let mut blocks: Vec<Vec<I>> = Vec::with_capacity(workers);
    let mut rest = items;
    while rest.len() > block {
        let tail = rest.split_off(block);
        blocks.push(rest);
        rest = tail;
    }
    blocks.push(rest);

    let run = &run;
    // Workers inherit the caller's count, so nested calls fan out as
    // they would on the caller's thread.
    let pool = &ThreadPool {
        num_threads: threads,
    };
    let mut out: Vec<Vec<O>> = Vec::with_capacity(blocks.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = blocks
            .into_iter()
            .map(|b| scope.spawn(move || pool.install(|| run(b))))
            .collect();
        for h in handles {
            match h.join() {
                Ok(v) => out.push(v),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    out.into_iter().flatten().collect()
}

/// Conversion into a parallel iterator (rayon's entry-point trait).
pub trait IntoParallelIterator {
    /// Element type.
    type Item: Send;
    /// Runs each item through `f` on the worker pool.
    fn into_par_iter(self) -> ParIter<Self::Item>;
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    fn into_par_iter(self) -> ParIter<T> {
        ParIter { items: self }
    }
}

impl IntoParallelIterator for Range<usize> {
    type Item = usize;
    fn into_par_iter(self) -> ParIter<usize> {
        ParIter {
            items: self.collect(),
        }
    }
}

/// An owning parallel iterator over a materialized item list.
pub struct ParIter<T: Send> {
    items: Vec<T>,
}

impl<T: Send> ParIter<T> {
    /// Maps each item through `f` in parallel.
    pub fn map<O, F>(self, f: F) -> ParMap<T, F>
    where
        O: Send,
        F: Fn(T) -> O + Sync,
    {
        ParMap {
            items: self.items,
            f,
        }
    }

    /// Maps each item through `f` in parallel with per-worker scratch
    /// state: `init` runs once per worker block (upstream rayon runs it
    /// once per split job), never per item.
    pub fn map_init<S, O, INIT, F>(self, init: INIT, f: F) -> ParMapInit<T, INIT, F>
    where
        O: Send,
        INIT: Fn() -> S + Sync,
        F: Fn(&mut S, T) -> O + Sync,
    {
        ParMapInit {
            items: self.items,
            init,
            f,
        }
    }

    /// Runs `f` for each item.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn(T) + Sync,
    {
        map_blocks(self.items, f);
    }
}

/// A mapped parallel iterator; terminal `collect` preserves input order.
pub struct ParMap<T: Send, F> {
    items: Vec<T>,
    f: F,
}

impl<T, O, F> ParMap<T, F>
where
    T: Send,
    O: Send,
    F: Fn(T) -> O + Sync,
{
    /// Collects results in input order.
    pub fn collect<C: From<Vec<O>>>(self) -> C {
        C::from(map_blocks(self.items, self.f))
    }
}

/// A parallel iterator mapped with per-worker state; terminal `collect`
/// preserves input order.
pub struct ParMapInit<T: Send, INIT, F> {
    items: Vec<T>,
    init: INIT,
    f: F,
}

impl<T, S, O, INIT, F> ParMapInit<T, INIT, F>
where
    T: Send,
    O: Send,
    INIT: Fn() -> S + Sync,
    F: Fn(&mut S, T) -> O + Sync,
{
    /// Collects results in input order.
    pub fn collect<C: From<Vec<O>>>(self) -> C {
        C::from(map_blocks_init(self.items, self.init, self.f))
    }
}

/// `par_chunks_mut` on mutable slices (rayon's `ParallelSliceMut`).
pub trait ParallelSliceMut<T: Send> {
    /// Splits the slice into disjoint `chunk_size` chunks processed in
    /// parallel.
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParChunksMut<'_, T>;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParChunksMut<'_, T> {
        assert!(chunk_size > 0, "chunk size must be non-zero");
        ParChunksMut {
            chunks: self.chunks_mut(chunk_size).collect(),
        }
    }
}

/// Parallel iterator over disjoint mutable chunks of a slice.
pub struct ParChunksMut<'a, T: Send> {
    chunks: Vec<&'a mut [T]>,
}

impl<'a, T: Send> ParChunksMut<'a, T> {
    /// Pairs each chunk with its index (chunk 0 starts at slice offset
    /// `0`, chunk `i` at `i * chunk_size`).
    pub fn enumerate(self) -> ParEnumChunksMut<'a, T> {
        ParEnumChunksMut {
            chunks: self.chunks,
        }
    }

    /// Runs `f` over every chunk on the worker pool.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn(&mut [T]) + Sync,
    {
        map_blocks(self.chunks, f);
    }
}

/// Enumerated variant of [`ParChunksMut`].
pub struct ParEnumChunksMut<'a, T: Send> {
    chunks: Vec<&'a mut [T]>,
}

impl<T: Send> ParEnumChunksMut<'_, T> {
    /// Runs `f` over every `(index, chunk)` pair on the worker pool.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn((usize, &mut [T])) + Sync,
    {
        map_blocks(self.chunks.into_iter().enumerate().collect(), |(i, c)| {
            f((i, c))
        });
    }
}

/// The glob-import surface (`use rayon::prelude::*`).
pub mod prelude {
    pub use crate::{IntoParallelIterator, ParallelSliceMut};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;

    fn with_workers<R: Send>(n: usize, f: impl FnOnce() -> R + Send) -> R {
        ThreadPoolBuilder::new()
            .num_threads(n)
            .build()
            .unwrap()
            .install(f)
    }

    #[test]
    fn map_collect_preserves_order() {
        for workers in [1, 2, 3, 8] {
            let got: Vec<usize> = with_workers(workers, || {
                (0..103usize).into_par_iter().map(|i| i * i).collect()
            });
            let want: Vec<usize> = (0..103).map(|i| i * i).collect();
            assert_eq!(got, want, "workers={workers}");
        }
    }

    #[test]
    fn par_chunks_mut_touches_every_element_once() {
        for workers in [1, 2, 5] {
            let mut data = vec![0u32; 97];
            with_workers(workers, || {
                data.par_chunks_mut(8).enumerate().for_each(|(i, chunk)| {
                    for (j, v) in chunk.iter_mut().enumerate() {
                        *v = (i * 8 + j) as u32 + 1;
                    }
                });
            });
            let want: Vec<u32> = (1..=97).collect();
            assert_eq!(data, want, "workers={workers}");
        }
    }

    #[test]
    fn map_init_preserves_order_and_inits_once_per_worker() {
        for workers in [1, 2, 3, 8] {
            let inits = AtomicUsize::new(0);
            let got: Vec<usize> = with_workers(workers, || {
                (0..37usize)
                    .into_par_iter()
                    .map_init(
                        || {
                            inits.fetch_add(1, Ordering::SeqCst);
                            Vec::new()
                        },
                        |seen: &mut Vec<usize>, i| {
                            seen.push(i);
                            i * 3
                        },
                    )
                    .collect()
            });
            let want: Vec<usize> = (0..37).map(|i| i * 3).collect();
            assert_eq!(got, want, "workers={workers}");
            assert_eq!(inits.load(Ordering::SeqCst), workers, "workers={workers}");
        }
    }

    #[test]
    fn vec_into_par_iter_collect_roundtrip() {
        let items: Vec<String> = (0..17).map(|i| format!("s{i}")).collect();
        let got: Vec<String> = with_workers(4, || {
            items.clone().into_par_iter().map(|s| s + "!").collect()
        });
        let want: Vec<String> = items.into_iter().map(|s| s + "!").collect();
        assert_eq!(got, want);
    }

    #[test]
    fn current_num_threads_tracks_builder() {
        with_workers(6, || {
            assert_eq!(current_num_threads(), 6);
            with_workers(2, || assert_eq!(current_num_threads(), 2));
            assert_eq!(current_num_threads(), 6, "the outer scope is restored");
            // Workers of a parallel call see the installing thread's count.
            let seen: Vec<usize> = (0..4usize)
                .into_par_iter()
                .map(|_| current_num_threads())
                .collect();
            assert_eq!(seen, [6; 4]);
        });
        let pool = ThreadPoolBuilder::new().num_threads(0).build().unwrap();
        assert!(pool.current_num_threads() >= 1, "0 is the host count");
        assert!(current_num_threads() >= 1);
    }

    #[test]
    fn empty_inputs_are_fine() {
        let got: Vec<usize> = Vec::<usize>::new().into_par_iter().map(|i| i).collect();
        assert!(got.is_empty());
        let mut empty: [u8; 0] = [];
        empty.par_chunks_mut(4).for_each(|_| unreachable!());
    }
}
