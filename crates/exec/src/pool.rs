//! The global job queue behind the `par_*` primitives.
//!
//! One process-wide FIFO of jobs feeds lazily-spawned worker threads. A
//! job is `n` indices that threads claim one at a time through an atomic
//! cursor. The thread submitting a job works its own job first and then
//! *helps* with queued jobs while it waits, so jobs complete even with zero
//! background workers (1-core hosts) and nested jobs cannot deadlock.
//!
//! # Safety model
//!
//! A [`Job`] carries one lifetime-erased pointer to a closure on the
//! submitting [`run_job`] frame. A thread calls it only for an index below
//! `n` that it has claimed, and `run_job` returns only once `done == n`
//! (`Release` increment per index, `Acquire` load by the caller), so the
//! closure is live for every call. After that the job may linger in the
//! queue, but its cursor is past `n`, so the pointer is never called
//! again. The `F: Sync` / `R: Send` bounds on the public API make the
//! cross-thread sharing itself legal.

use crate::FirstPanic;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// One submitted `f(0..n)`.
struct Job {
    n: usize,
    /// The next unclaimed index; may run past `n` once exhausted. Its
    /// accesses are `Relaxed`: a claim publishes no data.
    next: AtomicUsize,
    /// Indices that have finished (result or panic recorded).
    done: AtomicUsize,
    /// The submitting thread's open span path, replayed onto whichever
    /// thread runs the job's indices so spans opened inside the closure
    /// nest exactly as they would in a serial run — the profile tree and
    /// trace span paths come out identical at any worker count.
    span_ctx: Option<String>,
    /// The `run_job` closure for one index, its lifetime erased.
    run: *const (dyn Fn(usize) + Sync),
}

// SAFETY: `run` points to a `Sync` closure, so calling it from any thread
// is sound while it lives; it is called only under the claim protocol of
// the module-level safety model and never dropped through this pointer.
// `n`, `next`, `done` and `span_ctx` are `Send + Sync` themselves.
unsafe impl Send for Job {}
unsafe impl Sync for Job {}

impl Job {
    /// Claims and runs indices until the cursor passes `n`.
    fn work(&self) {
        let _ctx = mmwave_telemetry::enter_context(self.span_ctx.as_deref());
        loop {
            let index = self.next.fetch_add(1, Ordering::Relaxed);
            if index >= self.n {
                return;
            }
            // SAFETY: this thread claimed `index < n`, so `done` cannot
            // reach `n` before the call returns and the submitting
            // `run_job` frame, which owns the closure, is still waiting.
            unsafe { (*self.run)(index) };
            self.done.fetch_add(1, Ordering::Release);
        }
    }
}

/// Queued jobs, oldest first; workers wait on [`READY`] while it is empty.
static QUEUE: Mutex<VecDeque<Arc<Job>>> = Mutex::new(VecDeque::new());
static READY: Condvar = Condvar::new();
/// Count of spawned background threads; the Mutex also serializes spawning.
static SPAWNED: Mutex<usize> = Mutex::new(0);

/// Locks `mutex`, ignoring poison: no pool lock is held across user code,
/// and a panicking task is caught before it reaches a result slot.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The oldest queued job with unclaimed indices, dropping exhausted jobs
/// from the front of the queue.
fn oldest_open(queue: &mut VecDeque<Arc<Job>>) -> Option<Arc<Job>> {
    while let Some(job) = queue.front() {
        if job.next.load(Ordering::Relaxed) < job.n {
            return Some(Arc::clone(job));
        }
        queue.pop_front();
    }
    None
}

/// Runs `f(0..n)` on the global pool with `target_workers` total workers
/// (the caller counts as one), returning results in index order or the
/// first-by-index panic payload. Called with `n >= 2` and
/// `target_workers >= 2` (the serial path lives in `lib.rs`).
pub(crate) fn run_job<R, F>(n: usize, target_workers: usize, f: &F) -> Result<Vec<R>, FirstPanic>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    ensure_workers(target_workers.saturating_sub(1));

    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    // First-by-index panic payload; later-index panics are discarded so
    // the reported failure matches what a serial loop would hit first.
    let first_panic: Mutex<Option<FirstPanic>> = Mutex::new(None);
    let run_index = |index: usize| {
        let started = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| f(index)));
        mmwave_telemetry::observe("exec.task_ms", started.elapsed().as_secs_f64() * 1e3);
        match outcome {
            Ok(result) => *lock(&slots[index]) = Some(result),
            Err(payload) => {
                mmwave_telemetry::counter("exec.task_panics", 1);
                let mut first = lock(&first_panic);
                match &*first {
                    Some((seen, _)) if *seen <= index => {}
                    _ => *first = Some((index, payload)),
                }
            }
        }
    };
    let run_index: &(dyn Fn(usize) + Sync) = &run_index;
    // SAFETY: only the lifetime changes; this frame does not return until
    // every index has run (see the module-level safety model).
    let run: *const (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(run_index) };
    let job = Arc::new(Job {
        n,
        next: AtomicUsize::new(0),
        done: AtomicUsize::new(0),
        span_ctx: mmwave_telemetry::current_path(),
        run,
    });

    mmwave_telemetry::counter("exec.jobs", 1);
    mmwave_telemetry::counter("exec.tasks", n as u64);
    {
        let mut queue = lock(&QUEUE);
        queue.push_back(Arc::clone(&job));
        mmwave_telemetry::gauge("exec.queue_depth", queue.len() as f64);
    }
    READY.notify_all();

    // Work this job first, then help with the oldest queued job until every
    // index of this one has finished. The queue lock is a temporary of the
    // `let` statement, so it is released before the helped job runs: a
    // held lock would deadlock any nested job it submits.
    job.work();
    while job.done.load(Ordering::Acquire) < n {
        let other = oldest_open(&mut lock(&QUEUE));
        match other {
            Some(other) => other.work(),
            None => std::thread::yield_now(),
        }
    }

    if let Some(first) = first_panic.into_inner().unwrap_or_else(PoisonError::into_inner) {
        return Err(first);
    }
    let results = slots.into_iter().map(|s| s.into_inner().unwrap_or_else(PoisonError::into_inner));
    Ok(results.map(|r| r.expect("index finished without storing a result")).collect())
}

/// Lazily grows the background thread set to `target` threads. Threads
/// are detached and live for the process; an idle worker waits on the
/// condvar and costs nothing.
fn ensure_workers(target: usize) {
    let mut spawned = lock(&SPAWNED);
    if *spawned >= target {
        return;
    }
    while *spawned < target {
        let index = *spawned;
        std::thread::Builder::new()
            .name(format!("mmwave-exec-{index}"))
            .spawn(move || worker_loop(index))
            .expect("spawning an mmwave-exec worker thread failed");
        *spawned += 1;
    }
    mmwave_telemetry::gauge("exec.workers", (*spawned + 1) as f64);
}

fn worker_loop(index: usize) {
    mmwave_telemetry::debug!("mmwave-exec worker {index} online");
    loop {
        let job = {
            let mut queue = lock(&QUEUE);
            loop {
                if let Some(job) = oldest_open(&mut queue) {
                    break job;
                }
                // Submitters push under this lock, so an empty queue seen
                // here cannot miss the wakeup for a later push.
                queue = READY.wait(queue).unwrap_or_else(PoisonError::into_inner);
            }
        };
        job.work();
    }
}
