//! Offline stand-in for the `rayon` crate, covering exactly the API surface
//! this workspace uses and nothing more.
//!
//! The container this repo builds in has no network access to crates.io, so
//! the real rayon cannot be vendored. This shim re-implements the subset of
//! the parallel-iterator API the workspace needs on top of `std::thread::scope`,
//! with one extra guarantee the real rayon does not make by default:
//!
//! **every consumer is bitwise deterministic and independent of thread count.**
//!
//! The rules that make that hold:
//!
//! - Work is split into *fixed-size* chunks of items, never into per-thread
//!   ranges: `CHUNK` (a compile-time constant) elements' worth, so `CHUNK`
//!   items of a per-element iterator and one item of a `par_chunks(CHUNK)`
//!   iterator. Threads claim chunks dynamically, but each chunk's result
//!   lands in a slot indexed by chunk id.
//! - Reductions (`sum`) compute one partial per chunk and combine the partials
//!   **in chunk-index order** on the calling thread. The serial fallback runs
//!   the identical chunked algorithm, so 1 thread and N threads produce the
//!   same floating-point rounding.
//! - `par_sort_by_key` is a *stable* parallel merge sort; a stable sort's
//!   output is unique, so it is bitwise identical to `slice::sort_by` for any
//!   split width.
//! - Element-wise consumers (`for_each`, `collect`) write each index exactly
//!   once, so scheduling order cannot affect the result.
//!
//! Thread counts come from, in priority order: the innermost
//! [`ThreadPool::install`] scope on the current thread, else the
//! `RAYON_NUM_THREADS` environment variable, else
//! `std::thread::available_parallelism()`. Worker threads run nested parallel
//! calls serially (no oversubscription from nesting).

use std::cell::Cell;
use std::cmp::Ordering;
use std::fmt;
use std::marker::PhantomData;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicUsize, Ordering as AtomicOrdering};
use std::sync::{Mutex, OnceLock};

pub mod prelude {
    pub use crate::{
        FromParallelIterator, IndexedParallelIterator, IntoParallelIterator,
        IntoParallelRefIterator, IntoParallelRefMutIterator, ParallelIterator, ParallelSlice,
        ParallelSliceMut,
    };
}

// ---------------------------------------------------------------------------
// Thread-count plumbing
// ---------------------------------------------------------------------------

fn default_threads() -> usize {
    static DEFAULT: OnceLock<usize> = OnceLock::new();
    *DEFAULT.get_or_init(|| {
        std::env::var("RAYON_NUM_THREADS")
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            })
    })
}

thread_local! {
    /// Thread-local override installed by `ThreadPool::install` (and set to 1
    /// on pool worker threads so nested parallelism stays serial).
    static INSTALLED: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Number of threads parallel operations on this thread will use.
pub fn current_num_threads() -> usize {
    INSTALLED.with(|c| c.get()).unwrap_or_else(default_threads)
}

/// A logical thread pool: in this shim a pool is just a thread-count setting;
/// OS threads are spawned per parallel region via `std::thread::scope`.
/// Results are bitwise identical for any `num_threads`, so the distinction
/// does not affect observable behaviour.
#[derive(Debug)]
pub struct ThreadPool {
    threads: usize,
}

impl ThreadPool {
    /// Run `op` with this pool's thread count active on the current thread.
    pub fn install<R>(&self, op: impl FnOnce() -> R) -> R {
        struct Restore(Option<usize>);
        impl Drop for Restore {
            fn drop(&mut self) {
                INSTALLED.with(|c| c.set(self.0));
            }
        }
        let prev = INSTALLED.with(|c| c.replace(Some(self.threads)));
        let _restore = Restore(prev);
        op()
    }

    pub fn current_num_threads(&self) -> usize {
        self.threads
    }
}

#[derive(Debug)]
pub struct ThreadPoolBuildError;

impl fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "thread pool build error")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: Option<usize>,
}

impl ThreadPoolBuilder {
    pub fn new() -> Self {
        Self::default()
    }

    /// `0` means "use the default", matching rayon.
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = if n == 0 { None } else { Some(n) };
        self
    }

    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        Ok(ThreadPool {
            threads: self.num_threads.unwrap_or_else(default_threads),
        })
    }
}

/// Sequential `join` (results are identical to a parallel one; the workspace
/// only relies on `join` for structure, not latency).
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA,
    B: FnOnce() -> RB,
{
    (a(), b())
}

// ---------------------------------------------------------------------------
// Execution engine
// ---------------------------------------------------------------------------

/// Fixed work-chunk width. A compile-time constant so that chunk boundaries —
/// and therefore every chunked reduction's rounding — never depend on the
/// thread count.
const CHUNK: usize = 1024;

/// Execute `task(c)` for every `c in 0..n_chunks`, exactly once each, across
/// up to `current_num_threads()` scoped threads. Chunks are claimed
/// dynamically (atomic counter), which is safe for determinism because each
/// chunk writes only its own output slot.
fn run_chunked<F: Fn(usize) + Sync>(n_chunks: usize, task: F) {
    let threads = current_num_threads().min(n_chunks);
    if threads <= 1 {
        for c in 0..n_chunks {
            task(c);
        }
        return;
    }
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| {
                // Nested parallel calls on worker threads run serially.
                INSTALLED.with(|c| c.set(Some(1)));
                loop {
                    let c = next.fetch_add(1, AtomicOrdering::Relaxed);
                    if c >= n_chunks {
                        break;
                    }
                    task(c);
                }
            });
        }
    });
}

/// Shared raw pointer used to write per-index results from worker threads.
/// Soundness contract: each index is written at most once, and the owning
/// buffer outlives the scope (guaranteed by `std::thread::scope`).
struct SlotWriter<T>(*mut T);

unsafe impl<T: Send> Sync for SlotWriter<T> {}

impl<T> SlotWriter<T> {
    /// Safety: `i` in bounds and written at most once across all threads.
    unsafe fn write(&self, i: usize, v: T) {
        self.0.add(i).write(v);
    }
}

// ---------------------------------------------------------------------------
// Producers
// ---------------------------------------------------------------------------

/// An index-addressable source of items. Contract: `p_get(i)` is called at
/// most once per index per drive, and distinct indices may be fetched
/// concurrently.
pub trait Producer: Sync + Sized {
    type Item: Send;
    fn p_len(&self) -> usize;
    fn p_get(&self, i: usize) -> Self::Item;
    /// Slice elements one item stands for: 1, or the width of a
    /// `par_chunks` / `par_chunks_mut` item.
    fn p_width(&self) -> usize {
        1
    }
}

/// Items per work chunk of `p`: `CHUNK` elements' worth, at least one
/// item. A function of the producer's shape only, never of the thread
/// count.
fn items_per_chunk<P: Producer>(p: &P) -> usize {
    (CHUNK / p.p_width().max(1)).max(1)
}

pub struct IterSlice<'a, T> {
    slice: &'a [T],
}

impl<'a, T: Sync + Send> Producer for IterSlice<'a, T> {
    type Item = &'a T;
    fn p_len(&self) -> usize {
        self.slice.len()
    }
    fn p_get(&self, i: usize) -> &'a T {
        &self.slice[i]
    }
}

pub struct IterSliceMut<'a, T> {
    ptr: *mut T,
    len: usize,
    _marker: PhantomData<&'a mut T>,
}

unsafe impl<T: Send> Sync for IterSliceMut<'_, T> {}

impl<'a, T: Send> Producer for IterSliceMut<'a, T> {
    type Item = &'a mut T;
    fn p_len(&self) -> usize {
        self.len
    }
    fn p_get(&self, i: usize) -> &'a mut T {
        assert!(i < self.len);
        // Disjoint indices, each fetched once (Producer contract), so the
        // exclusive references never alias.
        unsafe { &mut *self.ptr.add(i) }
    }
}

/// Disjoint fixed-width mutable chunks of a slice (`par_chunks_mut`).
/// Chunk boundaries depend only on `chunk`, never on the thread count,
/// and each chunk is fetched at most once (Producer contract), so the
/// exclusive sub-slices never alias.
pub struct ChunksMut<'a, T> {
    ptr: *mut T,
    len: usize,
    chunk: usize,
    _marker: PhantomData<&'a mut T>,
}

unsafe impl<T: Send> Sync for ChunksMut<'_, T> {}

impl<'a, T: Send> Producer for ChunksMut<'a, T> {
    type Item = &'a mut [T];
    fn p_len(&self) -> usize {
        self.len.div_ceil(self.chunk)
    }
    fn p_get(&self, i: usize) -> &'a mut [T] {
        let lo = i * self.chunk;
        let hi = ((i + 1) * self.chunk).min(self.len);
        assert!(lo < hi || (lo == 0 && hi == 0));
        // Safety: [lo, hi) ranges of distinct chunk indices are disjoint
        // and in bounds; each index is fetched once.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.add(lo), hi - lo) }
    }
    fn p_width(&self) -> usize {
        self.chunk
    }
}

/// Fixed-width shared chunks of a slice (`par_chunks`); the last chunk
/// may be shorter.
pub struct Chunks<'a, T> {
    slice: &'a [T],
    chunk: usize,
}

impl<'a, T: Sync> Producer for Chunks<'a, T> {
    type Item = &'a [T];
    fn p_len(&self) -> usize {
        self.slice.len().div_ceil(self.chunk)
    }
    fn p_get(&self, i: usize) -> &'a [T] {
        let lo = i * self.chunk;
        &self.slice[lo..(lo + self.chunk).min(self.slice.len())]
    }
    fn p_width(&self) -> usize {
        self.chunk
    }
}

pub struct IterRange {
    start: usize,
    len: usize,
}

impl Producer for IterRange {
    type Item = usize;
    fn p_len(&self) -> usize {
        self.len
    }
    fn p_get(&self, i: usize) -> usize {
        self.start + i
    }
}

pub struct Map<P, F> {
    base: P,
    f: F,
}

impl<P: Producer, F, R> Producer for Map<P, F>
where
    F: Fn(P::Item) -> R + Sync,
    R: Send,
{
    type Item = R;
    fn p_len(&self) -> usize {
        self.base.p_len()
    }
    fn p_get(&self, i: usize) -> R {
        (self.f)(self.base.p_get(i))
    }
    fn p_width(&self) -> usize {
        self.base.p_width()
    }
}

pub struct Zip<A, B> {
    a: A,
    b: B,
}

impl<A: Producer, B: Producer> Producer for Zip<A, B> {
    type Item = (A::Item, B::Item);
    fn p_len(&self) -> usize {
        self.a.p_len().min(self.b.p_len())
    }
    fn p_get(&self, i: usize) -> Self::Item {
        (self.a.p_get(i), self.b.p_get(i))
    }
    fn p_width(&self) -> usize {
        self.a.p_width().max(self.b.p_width())
    }
}

pub struct Enumerate<P> {
    base: P,
}

impl<P: Producer> Producer for Enumerate<P> {
    type Item = (usize, P::Item);
    fn p_len(&self) -> usize {
        self.base.p_len()
    }
    fn p_get(&self, i: usize) -> Self::Item {
        (i, self.base.p_get(i))
    }
    fn p_width(&self) -> usize {
        self.base.p_width()
    }
}

// ---------------------------------------------------------------------------
// IntoParallelIterator for concrete types
// ---------------------------------------------------------------------------

pub trait IntoParallelIterator {
    type Iter: ParallelIterator<Item = Self::Item>;
    type Item: Send;
    fn into_par_iter(self) -> Self::Iter;
}

impl IntoParallelIterator for std::ops::Range<usize> {
    type Iter = IterRange;
    type Item = usize;
    fn into_par_iter(self) -> IterRange {
        IterRange {
            start: self.start,
            len: self.end.saturating_sub(self.start),
        }
    }
}

impl<'a, T: Sync + Send> IntoParallelIterator for &'a [T] {
    type Iter = IterSlice<'a, T>;
    type Item = &'a T;
    fn into_par_iter(self) -> IterSlice<'a, T> {
        IterSlice { slice: self }
    }
}

impl<'a, T: Sync + Send> IntoParallelIterator for &'a Vec<T> {
    type Iter = IterSlice<'a, T>;
    type Item = &'a T;
    fn into_par_iter(self) -> IterSlice<'a, T> {
        IterSlice { slice: self }
    }
}

impl<'a, T: Send> IntoParallelIterator for &'a mut [T] {
    type Iter = IterSliceMut<'a, T>;
    type Item = &'a mut T;
    fn into_par_iter(self) -> IterSliceMut<'a, T> {
        IterSliceMut {
            ptr: self.as_mut_ptr(),
            len: self.len(),
            _marker: PhantomData,
        }
    }
}

impl<'a, T: Send> IntoParallelIterator for &'a mut Vec<T> {
    type Iter = IterSliceMut<'a, T>;
    type Item = &'a mut T;
    fn into_par_iter(self) -> IterSliceMut<'a, T> {
        self.as_mut_slice().into_par_iter()
    }
}

pub trait IntoParallelRefIterator<'a> {
    type Iter: ParallelIterator<Item = Self::Item>;
    type Item: Send + 'a;
    fn par_iter(&'a self) -> Self::Iter;
}

impl<'a, I: 'a + ?Sized> IntoParallelRefIterator<'a> for I
where
    &'a I: IntoParallelIterator,
{
    type Iter = <&'a I as IntoParallelIterator>::Iter;
    type Item = <&'a I as IntoParallelIterator>::Item;
    fn par_iter(&'a self) -> Self::Iter {
        self.into_par_iter()
    }
}

pub trait IntoParallelRefMutIterator<'a> {
    type Iter: ParallelIterator<Item = Self::Item>;
    type Item: Send + 'a;
    fn par_iter_mut(&'a mut self) -> Self::Iter;
}

impl<'a, I: 'a + ?Sized> IntoParallelRefMutIterator<'a> for I
where
    &'a mut I: IntoParallelIterator,
{
    type Iter = <&'a mut I as IntoParallelIterator>::Iter;
    type Item = <&'a mut I as IntoParallelIterator>::Item;
    fn par_iter_mut(&'a mut self) -> Self::Iter {
        self.into_par_iter()
    }
}

// ---------------------------------------------------------------------------
// The parallel-iterator trait: adapters + deterministic consumers
// ---------------------------------------------------------------------------

pub trait FromParallelIterator<T: Send> {
    fn from_par_iter<P: ParallelIterator<Item = T>>(p: P) -> Self;
}

impl<T: Send> FromParallelIterator<T> for Vec<T> {
    fn from_par_iter<P: ParallelIterator<Item = T>>(p: P) -> Vec<T> {
        let n = p.p_len();
        let mut out: Vec<MaybeUninit<T>> = Vec::with_capacity(n);
        // Safety: MaybeUninit needs no initialisation; every slot is written
        // exactly once below before being read.
        unsafe { out.set_len(n) };
        let w = SlotWriter(out.as_mut_ptr() as *mut T);
        let src = &p;
        let per = items_per_chunk(src);
        run_chunked(n.div_ceil(per), |c| {
            let lo = c * per;
            let hi = ((c + 1) * per).min(n);
            for i in lo..hi {
                unsafe { w.write(i, src.p_get(i)) };
            }
        });
        // Safety: all n slots initialised; reinterpret the buffer as Vec<T>.
        let mut out = std::mem::ManuallyDrop::new(out);
        unsafe { Vec::from_raw_parts(out.as_mut_ptr() as *mut T, n, out.capacity()) }
    }
}

pub trait ParallelIterator: Producer {
    fn map<F, R>(self, f: F) -> Map<Self, F>
    where
        F: Fn(Self::Item) -> R + Sync,
        R: Send,
    {
        Map { base: self, f }
    }

    fn zip<B: IntoParallelIterator>(self, other: B) -> Zip<Self, B::Iter> {
        Zip {
            a: self,
            b: other.into_par_iter(),
        }
    }

    fn enumerate(self) -> Enumerate<Self> {
        Enumerate { base: self }
    }

    fn with_min_len(self, _min: usize) -> Self {
        self
    }

    fn for_each<F: Fn(Self::Item) + Sync>(self, f: F) {
        let n = self.p_len();
        let src = &self;
        let per = items_per_chunk(src);
        run_chunked(n.div_ceil(per), |c| {
            let lo = c * per;
            let hi = ((c + 1) * per).min(n);
            for i in lo..hi {
                f(src.p_get(i));
            }
        });
    }

    /// Deterministic chunked sum: one partial per fixed-width chunk, partials
    /// combined in chunk order. Bitwise independent of thread count (the
    /// serial path runs the identical chunked algorithm). Over
    /// `par_chunks(CHUNK)` items that is one partial per item.
    fn sum<S>(self) -> S
    where
        S: Send + std::iter::Sum<Self::Item> + std::iter::Sum<S>,
    {
        let n = self.p_len();
        let per = items_per_chunk(&self);
        let n_chunks = n.div_ceil(per);
        let mut partials: Vec<MaybeUninit<S>> = Vec::with_capacity(n_chunks);
        unsafe { partials.set_len(n_chunks) };
        let w = SlotWriter(partials.as_mut_ptr() as *mut S);
        let src = &self;
        run_chunked(n_chunks, |c| {
            let lo = c * per;
            let hi = ((c + 1) * per).min(n);
            let part: S = (lo..hi).map(|i| src.p_get(i)).sum();
            unsafe { w.write(c, part) };
        });
        partials
            .into_iter()
            .map(|m| unsafe { m.assume_init() })
            .sum()
    }

    fn collect<C: FromParallelIterator<Self::Item>>(self) -> C {
        C::from_par_iter(self)
    }
}

impl<P: Producer> ParallelIterator for P {}

/// Compatibility marker (all shim iterators are indexed).
pub trait IndexedParallelIterator: ParallelIterator {}

impl<P: ParallelIterator> IndexedParallelIterator for P {}

// ---------------------------------------------------------------------------
// Parallel stable sort for slices
// ---------------------------------------------------------------------------

/// Sorting needs `T: Copy` in this shim (all workspace call sites sort tuples
/// of `Copy` scalars); this keeps the merge buffers trivially panic-safe.
pub trait ParallelSliceMut<T: Copy + Send + Sync> {
    fn as_sort_slice_mut(&mut self) -> &mut [T];

    /// Stable parallel merge sort by key. A stable sort's output is unique,
    /// so the result is bitwise identical to `slice::sort_by_key` regardless
    /// of thread count or split width.
    fn par_sort_by_key<K: Ord, F: Fn(&T) -> K + Sync>(&mut self, f: F) {
        par_merge_sort(self.as_sort_slice_mut(), |a, b| f(a).cmp(&f(b)));
    }

    fn par_sort_by<F: Fn(&T, &T) -> Ordering + Sync>(&mut self, cmp: F) {
        par_merge_sort(self.as_sort_slice_mut(), cmp);
    }

    /// Parallel iterator over disjoint mutable chunks of `chunk_size`
    /// elements (last chunk may be shorter), matching rayon's
    /// `par_chunks_mut`.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_size` is zero.
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ChunksMut<'_, T> {
        assert!(chunk_size > 0, "chunk size must be non-zero");
        let s = self.as_sort_slice_mut();
        ChunksMut {
            ptr: s.as_mut_ptr(),
            len: s.len(),
            chunk: chunk_size,
            _marker: PhantomData,
        }
    }
}

impl<T: Copy + Send + Sync> ParallelSliceMut<T> for [T] {
    fn as_sort_slice_mut(&mut self) -> &mut [T] {
        self
    }
}

pub trait ParallelSlice<T: Sync> {
    /// Parallel iterator over fixed-width shared chunks of `chunk_size`
    /// elements (last chunk may be shorter), matching rayon's `par_chunks`.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_size` is zero.
    fn par_chunks(&self, chunk_size: usize) -> Chunks<'_, T>;
}

impl<T: Sync> ParallelSlice<T> for [T] {
    fn par_chunks(&self, chunk_size: usize) -> Chunks<'_, T> {
        assert!(chunk_size > 0, "chunk size must be non-zero");
        Chunks {
            slice: self,
            chunk: chunk_size,
        }
    }
}

/// Below this length the std stable sort runs on the calling thread.
const SORT_MIN: usize = 4096;

fn par_merge_sort<T: Copy + Send + Sync, F: Fn(&T, &T) -> Ordering + Sync>(v: &mut [T], cmp: F) {
    let n = v.len();
    let threads = current_num_threads();
    if threads <= 1 || n < SORT_MIN {
        v.sort_by(|a, b| cmp(a, b));
        return;
    }

    // Sort ~one run per thread in parallel (std stable sorts), then merge
    // pairs of runs in parallel rounds, ping-ponging between `v` and `buf`.
    let k = threads.next_power_of_two();
    let run = n.div_ceil(k).max(1);
    {
        let work: Mutex<Vec<&mut [T]>> = Mutex::new(v.chunks_mut(run).collect());
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|| {
                    INSTALLED.with(|c| c.set(Some(1)));
                    while let Some(part) = work.lock().unwrap().pop() {
                        part.sort_by(|a, b| cmp(a, b));
                    }
                });
            }
        });
    }

    let mut buf: Vec<T> = v.to_vec();
    let mut src_in_v = true;
    let mut width = run;
    while width < n {
        {
            let (src, dst): (&[T], &mut [T]) = if src_in_v {
                (&*v, buf.as_mut_slice())
            } else {
                (buf.as_slice(), &mut *v)
            };
            let pairs: Vec<(usize, usize, usize)> = (0..n)
                .step_by(2 * width)
                .map(|start| (start, (start + width).min(n), (start + 2 * width).min(n)))
                .collect();
            let dst_ptr = SlotWriter(dst.as_mut_ptr());
            // Borrow the whole wrapper so the closure captures `&SlotWriter`
            // (edition-2021 disjoint capture would otherwise grab the raw
            // pointer field itself, which is not Sync).
            let dst_ptr = &dst_ptr;
            run_chunked(pairs.len(), |pi| {
                let (start, mid, end) = pairs[pi];
                // Safety: pair dst regions are disjoint and cover 0..n.
                let d =
                    unsafe { std::slice::from_raw_parts_mut(dst_ptr.0.add(start), end - start) };
                merge_stable(&src[start..mid], &src[mid..end], d, &cmp);
            });
        }
        src_in_v = !src_in_v;
        width *= 2;
    }
    if !src_in_v {
        v.copy_from_slice(&buf);
    }
}

/// Stable two-way merge: takes from `left` on ties.
fn merge_stable<T: Copy, F: Fn(&T, &T) -> Ordering>(
    left: &[T],
    right: &[T],
    dst: &mut [T],
    cmp: &F,
) {
    debug_assert_eq!(left.len() + right.len(), dst.len());
    let (mut i, mut j) = (0, 0);
    for slot in dst.iter_mut() {
        let take_left = if i == left.len() {
            false
        } else if j == right.len() {
            true
        } else {
            cmp(&right[j], &left[i]) != Ordering::Less
        };
        if take_left {
            *slot = left[i];
            i += 1;
        } else {
            *slot = right[j];
            j += 1;
        }
    }
}

// ---------------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;

    fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
        ThreadPoolBuilder::new()
            .num_threads(n)
            .build()
            .unwrap()
            .install(f)
    }

    #[test]
    fn map_collect_matches_serial() {
        let src: Vec<u64> = (0..10_000).map(|i| (i * 2654435761) % 1000).collect();
        let expect: Vec<u64> = src.iter().map(|&x| x * 3 + 1).collect();
        for t in [1, 2, 8] {
            let got: Vec<u64> = with_threads(t, || src.par_iter().map(|&x| x * 3 + 1).collect());
            assert_eq!(got, expect, "threads={t}");
        }
    }

    #[test]
    fn sum_is_bitwise_identical_across_thread_counts() {
        let src: Vec<f64> = (0..50_000)
            .map(|i| ((i * 37 % 1000) as f64 - 500.0) * 1.0e-3 + 1.0e-9 * i as f64)
            .collect();
        let base: f64 = with_threads(1, || src.par_iter().map(|&x| x * 1.000001).sum());
        for t in [2, 3, 8] {
            let got: f64 = with_threads(t, || src.par_iter().map(|&x| x * 1.000001).sum());
            assert_eq!(got.to_bits(), base.to_bits(), "threads={t}");
        }
    }

    #[test]
    fn chunk_sums_keep_one_partial_per_chunk() {
        // A sum over `par_chunks(CHUNK)` partials is the per-element sum,
        // bit for bit: the same chunks, combined in the same order.
        let src: Vec<f64> = (0..50_000)
            .map(|i| ((i * 37 % 1000) as f64 - 500.0) * 1.0e-3 + 1.0e-9 * i as f64)
            .collect();
        let per_element: f64 = with_threads(1, || src.par_iter().map(|&x| x).sum());
        for t in [1, 2, 8] {
            let got: f64 = with_threads(t, || {
                src.par_chunks(CHUNK).map(|c| c.iter().sum::<f64>()).sum()
            });
            assert_eq!(got.to_bits(), per_element.to_bits(), "threads={t}");
        }
    }

    #[test]
    fn par_sort_matches_std_stable_sort() {
        let mut a: Vec<(u64, u64)> = (0..30_000)
            .map(|i| ((i * 2654435761u64) % 97, i))
            .collect();
        let mut expect = a.clone();
        expect.sort_by_key(|&(k, _)| k);
        for t in [1, 2, 8] {
            let mut got = a.clone();
            with_threads(t, || got.par_sort_by_key(|&(k, _)| k));
            assert_eq!(got, expect, "threads={t}");
        }
        a.par_sort_by_key(|&(k, _)| k);
        assert_eq!(a, expect);
    }

    #[test]
    fn par_iter_mut_zip_for_each() {
        let x: Vec<f64> = (0..20_000).map(|i| i as f64).collect();
        let mut y = vec![1.0f64; 20_000];
        with_threads(4, || {
            y.par_iter_mut().zip(&x[..]).for_each(|(yi, &xi)| *yi += 2.0 * xi)
        });
        for i in [0usize, 1, 999, 19_999] {
            assert_eq!(y[i], 1.0 + 2.0 * i as f64);
        }
    }

    #[test]
    fn range_into_par_iter_enumerate() {
        let got: Vec<(usize, usize)> =
            with_threads(2, || (5..5005).into_par_iter().enumerate().collect());
        assert_eq!(got.len(), 5000);
        assert_eq!(got[0], (0, 5));
        assert_eq!(got[4999], (4999, 5004));
    }

    #[test]
    fn install_restores_previous_count() {
        let outer = ThreadPoolBuilder::new().num_threads(3).build().unwrap();
        let inner = ThreadPoolBuilder::new().num_threads(7).build().unwrap();
        outer.install(|| {
            assert_eq!(current_num_threads(), 3);
            inner.install(|| assert_eq!(current_num_threads(), 7));
            assert_eq!(current_num_threads(), 3);
        });
    }

    #[test]
    fn par_chunks_mut_covers_slice_exactly_once() {
        let mut v = vec![0u64; 10_123];
        for t in [1, 2, 8] {
            v.iter_mut().for_each(|x| *x = 0);
            with_threads(t, || {
                v.par_chunks_mut(97).enumerate().for_each(|(c, chunk)| {
                    for (i, x) in chunk.iter_mut().enumerate() {
                        *x += (c * 97 + i) as u64 + 1;
                    }
                });
            });
            assert!(
                v.iter().enumerate().all(|(i, &x)| x == i as u64 + 1),
                "threads={t}"
            );
        }
        // Empty slice: no chunks, no panic.
        let mut e: Vec<u64> = vec![];
        e.par_chunks_mut(8).for_each(|_| unreachable!());
    }

    #[test]
    fn empty_inputs() {
        let v: Vec<f64> = vec![];
        let s: f64 = v.par_iter().map(|&x| x).sum();
        assert_eq!(s, 0.0);
        let c: Vec<f64> = v.par_iter().map(|&x| x).collect();
        assert!(c.is_empty());
        let mut e: Vec<(u64, u64)> = vec![];
        e.par_sort_by_key(|&(k, _)| k);
    }
}
