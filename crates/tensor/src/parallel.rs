//! Scoped-thread data parallelism for CPU kernels.
//!
//! All heavy kernels in this crate (and the layers built on top of it) fan
//! work out through the helpers here. The design contract is **bit-exact
//! determinism**: every output element is computed by exactly one worker
//! using the same per-element instruction sequence as the serial loop, so
//! results are identical for any thread count — `DDNN_THREADS=1` and
//! `DDNN_THREADS=4` must produce the same bytes.
//!
//! Threads are created per call with [`std::thread::scope`]; there is no
//! long-lived pool. A thread-local flag marks pool workers so kernels that
//! are *called from inside* a parallel region run serially instead of
//! oversubscribing the machine with nested spawns. [`inline`] sets the same
//! flag on a thread that already owns a core — a runtime hierarchy node —
//! so its kernels never fan out at all.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::thread::{Scope, ScopedJoinHandle};

thread_local! {
    /// True while the current thread is a pool worker or inside an
    /// [`inline`] scope (prevents fan-out).
    static IN_POOL: Cell<bool> = const { Cell::new(false) };
}

/// Pool workers spawned by every fan-out in this process so far.
static SPAWNED_WORKERS: AtomicUsize = AtomicUsize::new(0);

/// RAII guard marking the current thread as a pool worker.
struct PoolGuard {
    prev: bool,
}

impl PoolGuard {
    fn enter() -> Self {
        PoolGuard { prev: IN_POOL.replace(true) }
    }
}

impl Drop for PoolGuard {
    fn drop(&mut self) {
        IN_POOL.set(self.prev);
    }
}

/// Spawns one pool worker on `s`, counting it and marking it with the
/// nesting guard.
fn spawn_worker<'scope, T, F>(s: &'scope Scope<'scope, '_>, f: F) -> ScopedJoinHandle<'scope, T>
where
    T: Send + 'scope,
    F: FnOnce() -> T + Send + 'scope,
{
    SPAWNED_WORKERS.fetch_add(1, Ordering::Relaxed);
    s.spawn(move || {
        let _guard = PoolGuard::enter();
        f()
    })
}

/// Total pool workers the fan-outs in this module have spawned in this
/// process. Read-only telemetry: tests take deltas of it to prove a code
/// path never fans out.
pub fn spawned_workers() -> usize {
    SPAWNED_WORKERS.load(Ordering::Relaxed)
}

/// Runs `f` with every kernel it calls held to the calling thread:
/// [`num_threads`] reports `1` for the scope's duration, so no fan-out in
/// this module spawns. The previous setting is restored on exit, also when
/// `f` unwinds, and scopes nest.
///
/// The runtime's hierarchy nodes each already run on their own OS thread,
/// so a node thread is the unit of parallelism there; spawning per-kernel
/// workers on top of that only oversubscribes the cores.
pub fn inline<R>(f: impl FnOnce() -> R) -> R {
    let _guard = PoolGuard::enter();
    f()
}

fn default_threads() -> usize {
    static DEFAULT: OnceLock<usize> = OnceLock::new();
    *DEFAULT.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Parses a `DDNN_THREADS` value: a number is clamped to `1..=256`; an
/// unset or unparsable value yields `default`.
fn threads_from(raw: Option<&str>, default: usize) -> usize {
    raw.and_then(|v| v.trim().parse::<usize>().ok()).map_or(default, |n| n.clamp(1, 256))
}

/// Number of worker threads data-parallel kernels may use.
///
/// Honours the `DDNN_THREADS` environment variable (clamped to `1..=256`
/// and re-read on every call, so tests can change it at runtime); defaults
/// to [`std::thread::available_parallelism`]. Returns `1` on pool worker
/// threads and inside [`inline`] so parallel kernels never nest.
pub fn num_threads() -> usize {
    if IN_POOL.with(Cell::get) {
        return 1;
    }
    threads_from(std::env::var("DDNN_THREADS").ok().as_deref(), default_threads())
}

/// Splits `data` — consecutive items of `item_width` elements each — into
/// contiguous per-worker chunks and runs `f(first_item_index, chunk)` on
/// each chunk concurrently.
///
/// With one worker (or one item) this degenerates to `f(0, data)` on the
/// calling thread. Each item is written by exactly one worker and the
/// per-item computation is the caller's own serial loop, so the result is
/// independent of the thread count.
pub fn par_item_chunks_mut<F>(data: &mut [f32], item_width: usize, f: F)
where
    F: Fn(usize, &mut [f32]) + Sync,
{
    if data.is_empty() || item_width == 0 {
        return;
    }
    let count = data.len() / item_width;
    let workers = num_threads().min(count);
    if workers <= 1 {
        f(0, data);
        return;
    }
    let per = count.div_ceil(workers);
    std::thread::scope(|s| {
        for (ci, chunk) in data.chunks_mut(per * item_width).enumerate() {
            let f = &f;
            spawn_worker(s, move || f(ci * per, chunk));
        }
    });
}

/// Applies `f` to every index in `0..count` on the worker pool and returns
/// the results in index order.
///
/// Work is distributed dynamically through an atomic cursor (good for items
/// of uneven cost, e.g. per-device model sections of different depth), but
/// each index is computed by exactly one worker and results are reassembled
/// in index order, so the output is independent of thread count and
/// scheduling.
pub fn par_map_indexed<R, F>(count: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let workers = num_threads().min(count);
    if workers <= 1 {
        return (0..count).map(f).collect();
    }
    let cursor = AtomicUsize::new(0);
    let mut pairs: Vec<(usize, R)> = Vec::with_capacity(count);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let f = &f;
                let cursor = &cursor;
                spawn_worker(s, move || {
                    let mut local = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= count {
                            break;
                        }
                        local.push((i, f(i)));
                    }
                    local
                })
            })
            .collect();
        for h in handles {
            pairs.extend(h.join().expect("pool worker panicked"));
        }
    });
    pairs.sort_unstable_by_key(|&(i, _)| i);
    pairs.into_iter().map(|(_, r)| r).collect()
}

/// Applies `f` to every element of `items` concurrently (static contiguous
/// partition), returning the per-item results in order.
///
/// This is the mutable-access fan-out used for independent model sections:
/// each worker owns a disjoint contiguous sub-slice, so `f` may freely
/// mutate its item.
pub fn par_map_mut<T, R, F>(items: &mut [T], f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, &mut T) -> R + Sync,
{
    let count = items.len();
    let workers = num_threads().min(count);
    if workers <= 1 {
        return items.iter_mut().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let per = count.div_ceil(workers);
    let mut out: Vec<R> = Vec::with_capacity(count);
    std::thread::scope(|s| {
        let handles: Vec<_> = items
            .chunks_mut(per)
            .enumerate()
            .map(|(ci, chunk)| {
                let f = &f;
                spawn_worker(s, move || {
                    chunk
                        .iter_mut()
                        .enumerate()
                        .map(|(j, t)| f(ci * per + j, t))
                        .collect::<Vec<R>>()
                })
            })
            .collect();
        for h in handles {
            out.extend(h.join().expect("pool worker panicked"));
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn num_threads_is_at_least_one() {
        assert!(num_threads() >= 1);
    }

    #[test]
    fn par_item_chunks_cover_every_item_once() {
        // 13 items of width 3, incremented once each: no item may be
        // skipped or visited twice regardless of the partition.
        let mut data = vec![0.0f32; 13 * 3];
        par_item_chunks_mut(&mut data, 3, |first, chunk| {
            for (j, item) in chunk.chunks_mut(3).enumerate() {
                for x in item.iter_mut() {
                    *x += (first + j) as f32;
                }
            }
        });
        for (i, item) in data.chunks(3).enumerate() {
            assert!(item.iter().all(|&x| x == i as f32), "item {i}: {item:?}");
        }
    }

    #[test]
    fn par_map_indexed_preserves_order() {
        let out = par_map_indexed(100, |i| i * i);
        assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
        assert!(par_map_indexed(0, |i| i).is_empty());
    }

    #[test]
    fn par_map_mut_mutates_in_place_and_orders_results() {
        let mut items: Vec<usize> = (0..57).collect();
        let out = par_map_mut(&mut items, |i, t| {
            *t += 100;
            i
        });
        assert_eq!(out, (0..57).collect::<Vec<_>>());
        assert!(items.iter().enumerate().all(|(i, &t)| t == i + 100));
    }

    #[test]
    fn nested_calls_fall_back_to_serial() {
        // Inside a pool worker `num_threads()` reports 1, so a nested
        // parallel call must not spawn (it would still be correct, but the
        // guard is what bounds total thread count).
        let inner_counts = par_map_indexed(8, |_| num_threads());
        if num_threads() > 1 {
            assert!(inner_counts.iter().all(|&n| n == 1));
        }
    }

    #[test]
    fn threads_from_clamps_to_the_documented_range() {
        assert_eq!(threads_from(Some("0"), 8), 1);
        assert_eq!(threads_from(Some(" 4 "), 8), 4);
        assert_eq!(threads_from(Some("1000"), 8), 256);
        assert_eq!(threads_from(Some("many"), 8), 8);
        assert_eq!(threads_from(Some("-2"), 8), 8);
        assert_eq!(threads_from(None, 8), 8);
    }

    #[test]
    fn inline_scope_reports_one_thread_and_restores_on_exit() {
        // Runs on a fresh thread so the outer state is known (not a pool
        // worker) whatever the harness does with its own threads.
        std::thread::spawn(|| {
            assert!(!IN_POOL.with(Cell::get));
            assert_eq!(inline(num_threads), 1);
            assert!(!IN_POOL.with(Cell::get));
        })
        .join()
        .unwrap();
    }

    #[test]
    fn inline_scopes_nest() {
        std::thread::spawn(|| {
            inline(|| {
                assert_eq!(inline(num_threads), 1);
                // The inner scope's exit must not clear the outer one.
                assert_eq!(num_threads(), 1);
            });
            assert!(!IN_POOL.with(Cell::get));
        })
        .join()
        .unwrap();
    }

    #[test]
    fn inline_scope_restores_after_a_caught_panic() {
        std::thread::spawn(|| {
            let caught = std::panic::catch_unwind(|| inline(|| panic!("kernel failed")));
            assert!(caught.is_err());
            assert!(!IN_POOL.with(Cell::get));
        })
        .join()
        .unwrap();
    }
}
