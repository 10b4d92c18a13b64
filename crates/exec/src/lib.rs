//! Deterministic parallel execution runtime for the mmWave pipeline.
//!
//! `mmwave-exec` is a std-only thread pool with one job queue, wrapped in
//! scoped data-parallel primitives: [`par_map`] (input-order-preserving),
//! [`par_map_range`], [`par_chunks`], and [`par_reduce`]. The global pool
//! is sized by `MMWAVE_WORKERS` (default: available parallelism; `1` is an
//! exact serial fallback that never touches the pool), overridable per
//! process with [`configure_workers`] and per scope with [`with_workers`].
//!
//! # Determinism contract
//!
//! Every primitive in this crate upholds one invariant: **outputs are a
//! pure function of the inputs, independent of worker count and
//! scheduling**. Concretely:
//!
//! * results are collected *in input order* — `par_map(xs, f)[i]` is
//!   `f(i, &xs[i])`, so downstream floating-point folds see the same
//!   operand order a serial loop would;
//! * [`par_reduce`] maps in parallel but folds the per-item results
//!   serially in input order (floating-point addition is not associative;
//!   a tree reduction would drift);
//! * call sites that need randomness derive one RNG stream per item from
//!   `(seed, item_index)` ([`derive_seed`]) instead of sharing a
//!   sequentially-drawn RNG across items.
//!
//! Under this contract `MMWAVE_WORKERS=1` and `MMWAVE_WORKERS=64` produce
//! byte-identical artifacts; `tests/determinism.rs` pins that down.
//!
//! # Panic handling
//!
//! Worker panics never abort the pool and never poison other jobs: each
//! task runs under `catch_unwind`, the first-by-index panic is captured,
//! and [`try_par_map`] surfaces it as a typed [`ExecError`] while
//! [`par_map`] re-raises the original payload on the caller thread once
//! the job has fully drained (so `std::panic::catch_unwind` callers — e.g.
//! the campaign runner — observe exactly the serial behavior).
//!
//! # Scheduling
//!
//! Each job (`f` over `0..n`) is pushed to one global FIFO queue; worker
//! threads take the oldest job that still has unclaimed indices and claim
//! its indices one at a time. The *caller* works its own job first and
//! then helps with queued jobs while it waits, so a job always completes
//! even with zero background workers (single-core hosts) and nested
//! `par_map` calls cannot deadlock.
//!
//! # Telemetry
//!
//! The pool reports `exec.workers` / `exec.queue_depth` (queued jobs)
//! gauges, an `exec.task_ms` latency histogram, and `exec.jobs` /
//! `exec.tasks` / `exec.task_panics` counters. Each job captures the
//! submitting thread's open span path (`mmwave_telemetry::current_path`)
//! and every thread running its tasks replays it (`enter_context`), so
//! spans opened inside a task nest under the same `/`-joined path they
//! would in a serial run — span profiles and trace timelines are
//! worker-count-stable in structure.

mod pool;

use std::any::Any;
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The smallest panicking input index and its original payload.
pub(crate) type FirstPanic = (usize, Box<dyn Any + Send>);

/// Hard upper bound on the worker count: [`parse_workers`] refuses
/// larger `MMWAVE_WORKERS` / `--workers` values.
pub const MAX_WORKERS: usize = 256;

/// Env var controlling the default worker count.
pub const WORKERS_ENV: &str = "MMWAVE_WORKERS";

/// Process-wide override set by [`configure_workers`]; `0` means "unset,
/// fall back to `MMWAVE_WORKERS` / available parallelism".
static CONFIGURED: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Scope-local override set by [`with_workers`]; `0` means no override.
    static SCOPE_WORKERS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Typed error surfaced by [`try_par_map`] and friends when a task panics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// A task panicked. `index` is the smallest input index whose task
    /// panicked (deterministic: the one a serial loop would hit first
    /// among the observed panics), `message` the stringified payload.
    TaskPanicked {
        /// Input index of the panicking task.
        index: usize,
        /// Panic payload rendered as a string (`&str` / `String`
        /// payloads verbatim; anything else is opaque).
        message: String,
    },
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::TaskPanicked { index, message } => {
                write!(f, "parallel task {index} panicked: {message}")
            }
        }
    }
}

impl std::error::Error for ExecError {}

/// Renders a panic payload the way the campaign journal does.
pub fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// Derives an independent 64-bit seed for item `index` of a job seeded
/// with `seed` (splitmix64 finalizer over a golden-ratio stride). Parallel
/// call sites use this instead of drawing sequentially from one shared
/// RNG, so item `index` gets the same stream no matter which worker runs
/// it or how many items precede it.
pub fn derive_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Parses a worker count: a positive integer no larger than
/// [`MAX_WORKERS`], allowing surrounding whitespace.
pub fn parse_workers(raw: &str) -> Option<usize> {
    mmwave_telemetry::knob::parse_positive(raw).filter(|&n| n <= MAX_WORKERS)
}

/// Default worker count: `MMWAVE_WORKERS`, else the host's available
/// parallelism (at most [`MAX_WORKERS`]). Read once per process; a value
/// [`parse_workers`] refuses bumps `exec.config_invalid` and keeps the
/// host default.
fn default_workers() -> usize {
    static DEFAULT: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *DEFAULT.get_or_init(|| {
        let host = std::thread::available_parallelism().map_or(1, |n| n.get());
        mmwave_telemetry::env_knob(
            WORKERS_ENV,
            "exec.config_invalid",
            host.min(MAX_WORKERS),
            parse_workers,
        )
    })
}

/// The effective worker count for parallel primitives called from this
/// thread: the innermost [`with_workers`] scope, else the process-wide
/// [`configure_workers`] value, else `MMWAVE_WORKERS` / available
/// parallelism.
pub fn workers() -> usize {
    let scoped = SCOPE_WORKERS.with(|w| w.get());
    if scoped != 0 {
        return scoped;
    }
    let configured = CONFIGURED.load(Ordering::Relaxed);
    if configured != 0 {
        return configured;
    }
    default_workers()
}

/// Sets the process-wide worker count (the CLI `--workers` flag lands
/// here after [`parse_workers`]). Values are clamped to `1..=MAX_WORKERS`.
pub fn configure_workers(n: usize) {
    CONFIGURED.store(n.clamp(1, MAX_WORKERS), Ordering::Relaxed);
}

/// Runs `f` with the worker count overridden to `n` on this thread
/// (restored afterwards, panic-safe). With `n == 1` every primitive takes
/// the exact serial path inline on the calling thread; either way outputs
/// are identical by the determinism contract — this exists so tests can
/// exercise both paths in one process.
pub fn with_workers<R>(n: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            SCOPE_WORKERS.with(|w| w.set(self.0));
        }
    }
    let prev = SCOPE_WORKERS.with(|w| w.get());
    let _restore = Restore(prev);
    SCOPE_WORKERS.with(|w| w.set(n.clamp(1, MAX_WORKERS)));
    f()
}

/// Core primitive: evaluates `f(0..n)` (in parallel when the effective
/// worker count exceeds 1) and returns the results in index order, or the
/// first-by-index panic payload.
fn try_run<R, F>(n: usize, f: &F) -> Result<Vec<R>, FirstPanic>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let w = workers();
    if w <= 1 || n <= 1 {
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(i))) {
                Ok(r) => out.push(r),
                Err(payload) => return Err((i, payload)),
            }
        }
        return Ok(out);
    }
    pool::run_job(n, w, f)
}

/// Maps `f(i)` over `0..n` in parallel, returning results in index order.
/// Panics in tasks are re-raised (original payload) on the caller thread.
pub fn par_map_range<R, F>(n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    match try_run(n, &f) {
        Ok(out) => out,
        Err((_, payload)) => resume_unwind(payload),
    }
}

/// Maps `f(i, &items[i])` over a slice in parallel, returning results in
/// input order. Panics in tasks are re-raised on the caller thread.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    par_map_range(items.len(), |i| f(i, &items[i]))
}

/// Fallible [`par_map`]: a panicking task yields `Err(ExecError)` instead
/// of unwinding, and the pool stays healthy for subsequent jobs.
pub fn try_par_map<T, R, F>(items: &[T], f: F) -> Result<Vec<R>, ExecError>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    try_run(items.len(), &|i| f(i, &items[i])).map_err(|(index, payload)| {
        ExecError::TaskPanicked { index, message: panic_message(payload.as_ref()) }
    })
}

/// Fallible [`par_map_range`].
pub fn try_par_map_range<R, F>(n: usize, f: F) -> Result<Vec<R>, ExecError>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    try_run(n, &f).map_err(|(index, payload)| ExecError::TaskPanicked {
        index,
        message: panic_message(payload.as_ref()),
    })
}

/// Maps `f(chunk_index, chunk)` over `chunk_size`-sized chunks of a slice
/// (last chunk may be shorter), returning per-chunk results in order.
pub fn par_chunks<T, R, F>(items: &[T], chunk_size: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &[T]) -> R + Sync,
{
    assert!(chunk_size > 0, "chunk_size must be positive");
    let n_chunks = items.len().div_ceil(chunk_size);
    par_map_range(n_chunks, |ci| {
        let start = ci * chunk_size;
        let end = (start + chunk_size).min(items.len());
        f(ci, &items[start..end])
    })
}

/// Maps `map(i, &items[i])` in parallel, then folds the per-item results
/// **serially in input order** starting from `identity`. The serial fold
/// keeps floating-point accumulation order identical to a sequential
/// loop, which is what makes reductions byte-stable across worker counts.
pub fn par_reduce<T, R, F, G>(items: &[T], identity: R, map: F, fold: G) -> R
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
    G: Fn(R, R) -> R,
{
    par_map(items, map).into_iter().fold(identity, fold)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_input_order() {
        let items: Vec<u64> = (0..257).collect();
        let out = with_workers(4, || par_map(&items, |i, &x| x * 2 + i as u64));
        let expected: Vec<u64> = items.iter().enumerate().map(|(i, &x)| x * 2 + i as u64).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn worker_count_does_not_change_results() {
        let items: Vec<f64> = (0..100).map(|i| i as f64 * 0.37).collect();
        let serial = with_workers(1, || par_map(&items, |i, &x| (x.sin() * i as f64).to_bits()));
        let parallel = with_workers(4, || par_map(&items, |i, &x| (x.sin() * i as f64).to_bits()));
        assert_eq!(serial, parallel);
    }

    #[test]
    fn par_reduce_folds_in_input_order() {
        let items: Vec<f64> = (0..1000).map(|i| 1.0 / (1.0 + i as f64)).collect();
        let serial: f64 = items.iter().sum();
        let reduced = with_workers(4, || par_reduce(&items, 0.0, |_, &x| x, |a, b| a + b));
        assert_eq!(serial.to_bits(), reduced.to_bits());
    }

    #[test]
    fn par_chunks_covers_every_item_once() {
        let items: Vec<usize> = (0..103).collect();
        let chunks = with_workers(4, || par_chunks(&items, 10, |_, c| c.to_vec()));
        assert_eq!(chunks.len(), 11);
        assert_eq!(chunks.last().unwrap().len(), 3);
        let flat: Vec<usize> = chunks.into_iter().flatten().collect();
        assert_eq!(flat, items);
    }

    #[test]
    fn panicking_task_poisons_only_its_job() {
        let items: Vec<usize> = (0..64).collect();
        let err = with_workers(4, || {
            try_par_map(&items, |_, &x| {
                if x == 13 {
                    panic!("task 13 failed");
                }
                x * 2
            })
        })
        .unwrap_err();
        assert_eq!(
            err,
            ExecError::TaskPanicked { index: 13, message: "task 13 failed".to_string() }
        );
        // The pool survives: the next job on the same global pool succeeds.
        let ok = with_workers(4, || try_par_map(&items, |_, &x| x + 1)).unwrap();
        assert_eq!(ok, (1..=64).collect::<Vec<usize>>());
    }

    #[test]
    fn first_by_index_panic_wins() {
        let items: Vec<usize> = (0..64).collect();
        let err = with_workers(4, || {
            try_par_map(&items, |_, &x| {
                if x % 7 == 5 {
                    panic!("boom at {x}");
                }
                x
            })
        })
        .unwrap_err();
        assert_eq!(err, ExecError::TaskPanicked { index: 5, message: "boom at 5".to_string() });
    }

    #[test]
    fn par_map_resumes_original_panic_payload() {
        let caught = std::panic::catch_unwind(|| {
            with_workers(4, || {
                par_map_range(8, |i| {
                    if i == 3 {
                        std::panic::panic_any("typed payload".to_string());
                    }
                    i
                })
            })
        })
        .unwrap_err();
        assert_eq!(caught.downcast_ref::<String>().map(String::as_str), Some("typed payload"));
    }

    #[test]
    fn nested_par_map_completes() {
        let out = with_workers(4, || {
            par_map_range(8, |i| par_map_range(8, move |j| i * 8 + j).iter().sum::<usize>())
        });
        let expected: Vec<usize> = (0..8).map(|i| (0..8).map(|j| i * 8 + j).sum()).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: Vec<u8> = Vec::new();
        assert!(par_map(&empty, |_, &x| x).is_empty());
        assert_eq!(par_map(&[41u8], |_, &x| x + 1), vec![42]);
    }

    #[test]
    fn with_workers_restores_on_panic() {
        let before = workers();
        let _ = std::panic::catch_unwind(|| with_workers(3, || panic!("inner")));
        assert_eq!(workers(), before);
    }

    #[test]
    fn derive_seed_decorrelates_indices_and_seeds() {
        let mut seen = std::collections::HashSet::new();
        for seed in 0..8u64 {
            for index in 0..64u64 {
                assert!(seen.insert(derive_seed(seed, index)), "collision at {seed}/{index}");
            }
        }
        assert_eq!(derive_seed(7, 3), derive_seed(7, 3));
    }

    #[test]
    fn tasks_inherit_the_submitters_span_context() {
        let outer = mmwave_telemetry::span_at("exec_ctx_test", mmwave_telemetry::Level::Debug);
        // Only assert when telemetry is enabled in this environment.
        if outer.path().is_some() {
            let paths = with_workers(4, || {
                par_map_range(8, |_| {
                    let inner = mmwave_telemetry::span("exec_ctx_inner");
                    inner.path().map(str::to_string)
                })
            });
            for path in paths {
                assert_eq!(
                    path.as_deref(),
                    Some("exec_ctx_test/exec_ctx_inner"),
                    "pool tasks must nest spans under the submitter's path"
                );
            }
        }
        drop(outer);
    }

    #[test]
    fn concurrent_submitters_with_nested_and_panicking_jobs() {
        // Four submitters share the pool, so callers and workers help with
        // other submitters' jobs, whose indices submit nested jobs. The
        // barrier starts their rounds together.
        let start = std::sync::Arc::new(std::sync::Barrier::new(4));
        let submitters: Vec<_> = (0..4usize)
            .map(|t| {
                let start = std::sync::Arc::clone(&start);
                std::thread::spawn(move || {
                    start.wait();
                    for round in 0..25 {
                        let value = |i: usize, j: usize| t * 10_000 + round * 1000 + i * 8 + j;
                        let bad = (round % 5 == 3).then_some((t + round) % 16);
                        let out = with_workers(4, || {
                            try_par_map_range(16, |i| {
                                let inner = par_map_range(8, |j| {
                                    assert!(bad != Some(i) || j < 5, "inner {i}/{j}");
                                    value(i, j)
                                });
                                inner.iter().sum::<usize>()
                            })
                        });
                        let expected = match bad {
                            Some(index) => {
                                let message = format!("inner {index}/5");
                                Err(ExecError::TaskPanicked { index, message })
                            }
                            None => Ok((0..16).map(|i| (0..8).map(|j| value(i, j)).sum()).collect()),
                        };
                        assert_eq!(out, expected);
                    }
                })
            })
            .collect();
        for submitter in submitters {
            submitter.join().expect("a submitter thread panicked");
        }
    }

    #[test]
    fn parse_workers_accepts_one_through_max_and_nothing_else() {
        assert_eq!(parse_workers("1"), Some(1));
        assert_eq!(parse_workers(" 4 "), Some(4));
        assert_eq!(parse_workers("256"), Some(MAX_WORKERS));
        for junk in ["257", "100000", "0", "-1", "", "four", "2.5"] {
            assert_eq!(parse_workers(junk), None, "{junk:?}");
        }
    }

    #[test]
    fn configure_workers_clamps() {
        // Scoped override shadows the global config, so this test does not
        // disturb concurrently running tests that use with_workers.
        with_workers(2, || assert_eq!(workers(), 2));
        with_workers(100_000, || assert_eq!(workers(), MAX_WORKERS));
    }
}
