//! Scenario-parallel execution for the offline stage.
//!
//! ARROW's offline stage (Algorithm 1) is embarrassingly parallel: one
//! relaxed-RWA solve plus randomized rounding *per failure scenario*, with
//! no cross-scenario state. This module provides the thread-scoped map the
//! library (and the bench harness, which re-exports it) fans that work out
//! with.
//!
//! Design notes, per DESIGN.md's synchronous CPU-bound rationale:
//!
//! * **`std` only.** Workers are `std::thread::scope` threads pulling
//!   indices from an atomic counter and returning `(index, result)` pairs
//!   over an `mpsc` channel; the caller reassembles results in input
//!   order. No `crossbeam`/`parking_lot`/`rayon` — the build environment
//!   vendors no external crates, and `std` covers this pattern cleanly.
//! * **Sizing.** The pool defaults to [`std::thread::available_parallelism`]
//!   and can be overridden with the `ARROW_THREADS` environment variable
//!   (any integer ≥ 1), e.g. `ARROW_THREADS=1` to force serial execution
//!   when profiling or bisecting.
//! * **Determinism.** `parallel_map` only controls *where* each item runs,
//!   never *what* it computes: `f` receives the item (at its original
//!   index) and results are returned in input order, so any `f` that
//!   depends only on its item yields output identical to `items.iter()
//!   .map(f)` for every thread count and scheduling. The offline stage
//!   pairs this with per-scenario RNG derivation
//!   ([`crate::lottery::derive_seed`]) so ticket generation is
//!   scheduling-independent end to end.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// Environment variable overriding the worker-thread count (≥ 1).
pub(crate) const THREADS_ENV: &str = "ARROW_THREADS";

/// The worker count used by [`parallel_map`]: the `ARROW_THREADS`
/// environment variable if set to an integer ≥ 1, else
/// [`std::thread::available_parallelism`] (falling back to 4 when that is
/// unavailable). A malformed override (non-numeric, zero, negative) is
/// reported through `arrow-obs` — a warn-level `par.threads.invalid` event
/// plus a counter of the same name — and ignored.
pub fn default_threads() -> usize {
    resolve_threads(std::env::var(THREADS_ENV).ok().as_deref())
}

/// Pure core of [`default_threads`]: `raw` is the `ARROW_THREADS` value if
/// the variable is set. Factored out so the fallback path is unit-testable
/// without mutating the process environment.
fn resolve_threads(raw: Option<&str>) -> usize {
    let fallback = || std::thread::available_parallelism().map(|p| p.get()).unwrap_or(4);
    match raw {
        None => fallback(),
        Some(v) => match v.trim().parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => {
                arrow_obs::metrics::counter("par.threads.invalid").inc();
                arrow_obs::event!(
                    warn: "par.threads.invalid",
                    "value" => v,
                    "fallback" => fallback(),
                );
                fallback()
            }
        },
    }
}

/// Runs `f` over `items` on [`default_threads`] workers, preserving order.
///
/// Equivalent to `items.iter().map(|t| f(t)).collect()` for any `f` whose
/// output depends only on its input — see the module docs on determinism.
pub fn parallel_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send + Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    parallel_map_with(default_threads(), items, f)
}

/// [`parallel_map`] with an explicit worker count (used by the
/// determinism tests to pin 1/2/N threads regardless of environment).
///
/// `threads` is clamped to `[1, items.len()]`; with one worker (or one
/// item) the map runs inline on the calling thread with no pool at all.
pub(crate) fn parallel_map_with<T, R, F>(threads: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send + Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let n = items.len();
    let threads = threads.max(1).min(n.max(1));
    if threads <= 1 {
        return items.iter().map(&f).collect();
    }
    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, R)>();
    let (items_ref, f_ref, next_ref) = (&items, &f, &next);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let tx = tx.clone();
            scope.spawn(move || loop {
                let i = next_ref.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                if tx.send((i, f_ref(&items_ref[i]))).is_err() {
                    break;
                }
            });
        }
        drop(tx);
        // Indices are a permutation of 0..n (each worker claims via the
        // shared counter), so a stable sort restores input order without
        // any per-slot occupancy bookkeeping.
        let mut out: Vec<(usize, R)> = rx.into_iter().collect();
        out.sort_by_key(|&(i, _)| i);
        out.into_iter().map(|(_, r)| r).collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order() {
        let out = parallel_map((0..100).collect(), |&x: &i32| x * 3);
        assert_eq!(out, (0..100).map(|x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn identical_across_thread_counts() {
        let items: Vec<u64> = (0..37).collect();
        let serial: Vec<u64> = items.iter().map(|&x| x.wrapping_mul(x) ^ 17).collect();
        for threads in [1, 2, 3, 8, 64] {
            let par = parallel_map_with(threads, items.clone(), |&x| x.wrapping_mul(x) ^ 17);
            assert_eq!(par, serial, "threads = {threads}");
        }
    }

    /// One unit of work never holds others behind it: item 0 blocks until
    /// items 1..16 are all done, which they can only be if the second
    /// worker takes every one of them. A wait of 10 s or more (10 000
    /// naps of at least 1 ms) that ends unsatisfied fails the test rather
    /// than hanging it.
    #[test]
    fn a_slow_item_holds_back_only_itself() {
        let done = AtomicUsize::new(0);
        let out = parallel_map_with(2, (0..16).collect(), |&i: &usize| {
            if i > 0 {
                done.fetch_add(1, Ordering::SeqCst);
                return true;
            }
            for _ in 0..10_000 {
                if done.load(Ordering::SeqCst) == 15 {
                    return true;
                }
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            false
        });
        assert!(out[0], "item 0 waited out its timeout: the others queued behind it");
        assert!(out.iter().all(|&ok| ok));
    }

    #[test]
    fn empty_and_singleton() {
        let empty: Vec<i32> = parallel_map(Vec::<i32>::new(), |&x| x);
        assert!(empty.is_empty());
        assert_eq!(parallel_map_with(8, vec![7], |&x: &i32| x + 1), vec![8]);
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
    }

    #[test]
    fn resolve_threads_accepts_valid_overrides() {
        assert_eq!(resolve_threads(Some("3")), 3);
        assert_eq!(resolve_threads(Some("  12 ")), 12);
        assert!(resolve_threads(None) >= 1);
    }

    #[test]
    fn resolve_threads_warns_and_falls_back_on_malformed_values() {
        let expected = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(4);
        let before = arrow_obs::metrics::snapshot().counter("par.threads.invalid");
        let ring = std::sync::Arc::new(arrow_obs::RingSubscriber::new(64));
        arrow_obs::trace::install(ring.clone());
        for bad in ["", "zero", "0", "-2", "1.5"] {
            assert_eq!(resolve_threads(Some(bad)), expected, "value {bad:?}");
        }
        arrow_obs::trace::uninstall();
        let after = arrow_obs::metrics::snapshot().counter("par.threads.invalid");
        assert_eq!(after - before, 5, "each malformed value counted");
        let warnings: Vec<_> =
            ring.records().into_iter().filter(|r| r.name == "par.threads.invalid").collect();
        assert_eq!(warnings.len(), 5);
        assert!(warnings.iter().all(|w| w.level == arrow_obs::Level::Warn));
        assert_eq!(
            warnings[1].field("value").and_then(arrow_obs::FieldValue::as_str),
            Some("zero")
        );
    }
}
