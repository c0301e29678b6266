//! Deterministic scoped parallelism for the NCPU workspace.
//!
//! Every figure and artifact in this repository is a pure function of its
//! seeds, and that contract must survive parallel execution. This crate
//! provides the one primitive the workspace parallelizes with:
//! [`Pool::par_map_fold`], an indexed map over owned items whose outputs
//! are folded on the calling thread **by item index**, never by
//! completion order, so the result is identical for any worker count —
//! the scheduler can only change wall-clock time, not bytes. The fold
//! streams: output `i` is folded as soon as it and every earlier output
//! have arrived, so a caller can act on early results (serve answers a
//! request) while later items still run. [`Pool::par_map_indexed`] is
//! that fold collecting a `Vec`.
//!
//! The rules call sites must follow to keep that guarantee:
//!
//! 1. **No shared mutable state across items.** Each task owns its inputs
//!    and returns its outputs; reductions happen in the fold, on the
//!    calling thread, in item order.
//! 2. **No shared RNG.** Seeded streams are derived per item
//!    (`ncpu_testkit::rng::Rng::split(seed, index)`), never advanced from a
//!    generator that multiple items observe.
//! 3. **Reductions sum in fixed index order.** Floating-point addition is
//!    not associative; summing partial results `0, 1, 2, …` makes the
//!    reduced value independent of which worker finished first.
//!
//! Worker count comes from the `NCPU_THREADS` environment variable
//! (default: [`std::thread::available_parallelism`]). With one worker the
//! map runs inline on the caller's thread — no threads are spawned, so
//! `NCPU_THREADS=1` is byte-for-byte *and* stack-for-stack the serial
//! program.
//!
//! Built on `std::thread::scope` + `std::sync::mpsc` channels only: the
//! workspace's zero-dependency policy (DESIGN.md §6) forbids rayon and
//! crossbeam.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::mpsc;
use std::sync::Mutex;

/// Environment variable overriding the worker count (`0` or unset ⇒
/// the host's available parallelism).
pub const THREADS_ENV: &str = "NCPU_THREADS";

/// Worker count the workspace runs with: `NCPU_THREADS` if set to a
/// positive integer, otherwise the host's available parallelism
/// (falling back to 1 if that is unknowable).
///
/// # Examples
///
/// ```
/// assert!(ncpu_par::thread_count() >= 1);
/// ```
pub fn thread_count() -> usize {
    match std::env::var(THREADS_ENV) {
        Ok(v) => match parse_threads(&v) {
            Ok(Some(n)) => n,
            Ok(None) => host_parallelism(),
            Err(bad) => {
                static WARNED: std::sync::Once = std::sync::Once::new();
                WARNED.call_once(|| {
                    eprintln!("ncpu-par: ignoring {bad}; using host parallelism");
                });
                host_parallelism()
            }
        },
        Err(_) => host_parallelism(),
    }
}

/// An `NCPU_THREADS` value that is neither a non-negative integer nor
/// one of the documented "use the host" spellings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BadThreadsValue {
    /// The rejected value, verbatim.
    pub raw: String,
}

impl std::fmt::Display for BadThreadsValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid {THREADS_ENV}={:?}: want a non-negative worker count", self.raw)
    }
}

impl std::error::Error for BadThreadsValue {}

/// Parses an `NCPU_THREADS` value without touching the environment:
/// `Ok(Some(n))` for a positive worker count, `Ok(None)` for the
/// documented "use the host" spellings (`0`, empty/whitespace), and
/// [`BadThreadsValue`] for anything else — which [`thread_count`]
/// reports once on stderr and then treats as unset rather than
/// panicking or silently absorbing.
pub fn parse_threads(raw: &str) -> Result<Option<usize>, BadThreadsValue> {
    let trimmed = raw.trim();
    if trimmed.is_empty() {
        return Ok(None);
    }
    match trimmed.parse::<usize>() {
        Ok(0) => Ok(None),
        Ok(n) => Ok(Some(n)),
        Err(_) => Err(BadThreadsValue { raw: raw.to_string() }),
    }
}

/// The host's available parallelism (1 if the OS cannot report it).
pub fn host_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A scoped worker pool with a fixed worker count.
///
/// The pool is a *policy* object — threads are spawned per
/// [`par_map_indexed`](Pool::par_map_indexed) call inside a
/// `std::thread::scope` and joined before it returns, so borrows of the
/// caller's stack are allowed in the task closure and no threads outlive
/// any call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pool {
    workers: usize,
}

impl Pool {
    /// A pool sized from the environment ([`thread_count`]).
    pub fn from_env() -> Pool {
        Pool::with_workers(thread_count())
    }

    /// A pool with exactly `workers` workers (clamped to at least 1).
    pub fn with_workers(workers: usize) -> Pool {
        Pool { workers: workers.max(1) }
    }

    /// This pool's worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Maps `f` over `items` in parallel and folds the outputs into
    /// `init` **in item index order** on the calling thread.
    ///
    /// This is the deterministic reduction primitive: the map fans out
    /// across workers, but the fold always visits results `0, 1, 2, …`,
    /// so non-commutative or merely non-associative accumulators
    /// (floating-point sums, histogram merges whose observable byte
    /// order matters) produce identical bytes for any worker count.
    ///
    /// The fold streams: output `i` is folded as soon as it and every
    /// output before it have arrived, while later items are still being
    /// mapped. Outputs that arrive early wait in a reorder buffer. A pool
    /// of one worker runs inline and interleaves the calls item by item:
    /// `f(0)`, fold 0, `f(1)`, fold 1, ….
    ///
    /// # Panics
    ///
    /// If any task panics, the panic is resurfaced on the calling thread
    /// after the scope unwinds. The fold has then seen only the outputs
    /// before the first missing one.
    ///
    /// # Examples
    ///
    /// ```
    /// let pool = ncpu_par::Pool::with_workers(4);
    /// let concat = pool.par_map_fold(
    ///     vec![1u32, 2, 3],
    ///     |i, x| format!("{i}:{x}"),
    ///     String::new(),
    ///     |mut acc, s| { acc.push_str(&s); acc.push(' '); acc },
    /// );
    /// assert_eq!(concat, "0:1 1:2 2:3 ");
    /// ```
    pub fn par_map_fold<T, U, A, F, G>(&self, items: Vec<T>, f: F, init: A, mut fold: G) -> A
    where
        T: Send,
        U: Send,
        F: Fn(usize, T) -> U + Sync,
        G: FnMut(A, U) -> A,
    {
        let workers = self.workers.min(items.len());
        if workers <= 1 {
            return items.into_iter().enumerate().fold(init, |acc, (i, item)| fold(acc, f(i, item)));
        }

        let n = items.len();
        let (task_tx, task_rx) = mpsc::channel::<(usize, T)>();
        for pair in items.into_iter().enumerate() {
            task_tx.send(pair).expect("task queue open");
        }
        drop(task_tx); // workers drain until the queue is empty
        let task_rx = Mutex::new(task_rx);

        let (out_tx, out_rx) = mpsc::channel::<(usize, U)>();
        let (acc, folded) = std::thread::scope(|scope| {
            for _ in 0..workers {
                let out_tx = out_tx.clone();
                let task_rx = &task_rx;
                let f = &f;
                scope.spawn(move || {
                    loop {
                        // Hold the queue lock only for the pop, not the work.
                        let next = task_rx.lock().expect("task queue lock").try_recv();
                        match next {
                            Ok((i, item)) => {
                                let out = f(i, item);
                                if out_tx.send((i, out)).is_err() {
                                    return; // collector gone: scope is unwinding
                                }
                            }
                            Err(_) => return, // queue drained
                        }
                    }
                });
            }
            drop(out_tx);
            // Fold by index: completion order never reaches the caller.
            // An output that overtakes an earlier one waits in `early`
            // until the outputs before it have been folded.
            let mut early: Vec<Option<U>> = std::iter::repeat_with(|| None).take(n).collect();
            let mut acc = init;
            let mut folded = 0;
            for (i, out) in out_rx {
                early[i] = Some(out);
                while let Some(out) = early.get_mut(folded).and_then(Option::take) {
                    acc = fold(acc, out);
                    folded += 1;
                }
            }
            (acc, folded)
        });
        assert!(folded == n, "task {folded} produced no output");
        acc
    }

    /// Maps `f` over `items`, returning outputs **in item order**.
    ///
    /// `f` receives each item's index alongside the item, so call sites
    /// can derive per-item seeds and labels. The result at position `i`
    /// is always `f(i, items[i])` regardless of worker count or
    /// scheduling; a pool of one worker runs the whole map inline on the
    /// caller's thread. This is [`par_map_fold`](Pool::par_map_fold)
    /// pushing each output onto a `Vec`.
    ///
    /// # Panics
    ///
    /// If any task panics, the panic is resurfaced on the calling thread
    /// after the scope unwinds.
    ///
    /// # Examples
    ///
    /// ```
    /// let pool = ncpu_par::Pool::with_workers(4);
    /// let squares = pool.par_map_indexed(vec![1u64, 2, 3, 4, 5], |i, x| (i as u64, x * x));
    /// assert_eq!(squares, vec![(0, 1), (1, 4), (2, 9), (3, 16), (4, 25)]);
    /// ```
    pub fn par_map_indexed<T, U, F>(&self, items: Vec<T>, f: F) -> Vec<U>
    where
        T: Send,
        U: Send,
        F: Fn(usize, T) -> U + Sync,
    {
        let n = items.len();
        self.par_map_fold(items, f, Vec::with_capacity(n), |mut out, u| {
            out.push(u);
            out
        })
    }
}

impl Default for Pool {
    fn default() -> Pool {
        Pool::from_env()
    }
}

/// Maps `f` over `items` on a pool sized from the environment.
///
/// Convenience wrapper for `Pool::from_env().par_map_indexed(items, f)`;
/// see [`Pool::par_map_indexed`] for the determinism contract.
pub fn par_map_indexed<T, U, F>(items: Vec<T>, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(usize, T) -> U + Sync,
{
    Pool::from_env().par_map_indexed(items, f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_env_parsing_falls_back_not_panics() {
        // Pure-parse tests: the real environment stays untouched
        // (tests run in parallel).
        assert_eq!(parse_threads("4"), Ok(Some(4)));
        assert_eq!(parse_threads(" 16 "), Ok(Some(16)));
        assert_eq!(parse_threads("0"), Ok(None), "0 means host parallelism");
        assert_eq!(parse_threads(""), Ok(None));
        assert_eq!(parse_threads("   "), Ok(None));
        for junk in ["four", "-2", "3.5", "1e3", "0x4", "4 cores"] {
            let err = parse_threads(junk).expect_err(junk);
            assert_eq!(err.raw, junk, "the error carries the rejected value");
            assert!(err.to_string().contains(THREADS_ENV), "message names the env var");
        }
    }

    #[test]
    fn preserves_order_for_any_worker_count() {
        let items: Vec<u32> = (0..97).collect();
        let expect: Vec<u64> = items.iter().map(|&x| u64::from(x) * 3 + 1).collect();
        for workers in [1, 2, 3, 4, 8, 16, 97, 200] {
            let pool = Pool::with_workers(workers);
            let got = pool.par_map_indexed(items.clone(), |_, x| u64::from(x) * 3 + 1);
            assert_eq!(got, expect, "workers={workers}");
        }
    }

    #[test]
    fn index_matches_item_position() {
        let pool = Pool::with_workers(5);
        let got = pool.par_map_indexed(vec!['a', 'b', 'c', 'd'], |i, c| (i, c));
        assert_eq!(got, vec![(0, 'a'), (1, 'b'), (2, 'c'), (3, 'd')]);
    }

    #[test]
    fn parallel_equals_serial_with_per_item_rng() {
        use ncpu_testkit::rng::Rng;
        let task = |i: usize, seed: u64| {
            let mut rng = Rng::split(seed, i as u64);
            (0..64).map(|_| rng.next_u64()).fold(0u64, u64::wrapping_add)
        };
        let items: Vec<u64> = vec![42; 33];
        let serial = Pool::with_workers(1).par_map_indexed(items.clone(), task);
        let parallel = Pool::with_workers(8).par_map_indexed(items, task);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let pool = Pool::with_workers(4);
        let empty: Vec<u8> = pool.par_map_indexed(Vec::<u8>::new(), |_, x| x);
        assert!(empty.is_empty());
        assert_eq!(pool.par_map_indexed(vec![9u8], |i, x| (i, x)), vec![(0, 9)]);
    }

    #[test]
    fn tasks_can_borrow_caller_state() {
        let table: Vec<u64> = (0..10).map(|i| i * i).collect();
        let pool = Pool::with_workers(3);
        let got = pool.par_map_indexed((0..10usize).collect(), |_, i| table[i]);
        assert_eq!(got, table);
    }

    #[test]
    fn par_map_fold_folds_in_index_order_for_any_worker_count() {
        // String concatenation is order-sensitive: any completion-order
        // leak into the fold would scramble the bytes.
        let items: Vec<u32> = (0..53).collect();
        let expect: String = items.iter().map(|i| format!("{i};")).collect();
        for workers in [1, 2, 4, 8, 53] {
            let got = Pool::with_workers(workers).par_map_fold(
                items.clone(),
                |_, x| format!("{x};"),
                String::new(),
                |mut acc, s| {
                    acc.push_str(&s);
                    acc
                },
            );
            assert_eq!(got, expect, "workers={workers}");
        }
    }

    #[test]
    fn par_map_fold_empty_returns_init() {
        let got = Pool::with_workers(4).par_map_fold(
            Vec::<u8>::new(),
            |_, x| x,
            7u64,
            |acc, x| acc + u64::from(x),
        );
        assert_eq!(got, 7);
    }

    #[test]
    fn worker_count_clamps_to_one() {
        assert_eq!(Pool::with_workers(0).workers(), 1);
    }

    #[test]
    #[should_panic]
    fn task_panics_propagate() {
        Pool::with_workers(4).par_map_indexed(vec![0u8, 1, 2, 3], |_, x| {
            assert!(x != 2, "boom");
            x
        });
    }
}
