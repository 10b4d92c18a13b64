//! Hierarchical span timers with RAII guards.
//!
//! A span measures one stage of the pipeline. Spans nest: each thread keeps
//! a stack of open span names, and a span opened while another is active is
//! recorded under the `/`-joined path of its ancestors — `"capture"` opened
//! around `"drai"` yields the path `"capture/drai"`. The stack is
//! thread-local, so parallel workers (e.g. `mmwave-exec` dataset
//! generation) each attribute their spans independently — but a runtime that moves work
//! *between* threads can carry the submitting thread's path along with the
//! task via [`current_path`] / [`enter_context`], so a span opened inside a
//! pool task nests under the same path it would have in a serial run. The
//! `mmwave-exec` pool does exactly that, which is what makes the profile
//! tree and trace span paths worker-count-stable.
//!
//! Timing data goes to the global registry's span histograms; in addition a
//! [`crate::event::EventKind::Span`] event with the duration, the
//! process-relative start time (`start_us`), and the executing thread id
//! (`tid`) is emitted at the span's level, so sinks verbose enough to care
//! see every occurrence — the trace sink turns them into Chrome-trace
//! complete events.

use crate::event::{process_micros, thread_id, EventKind, Level};
use crate::registry::{global, Registry};
use std::cell::RefCell;
use std::time::Instant;

thread_local! {
    static SPAN_STACK: RefCell<Vec<String>> = const { RefCell::new(Vec::new()) };
}

/// RAII guard for an open span; records the elapsed time when dropped.
/// Obtained from [`span`] or [`span_at`].
#[must_use = "a span measures nothing unless held for the duration of the stage"]
pub struct SpanGuard {
    inner: Option<SpanInner>,
}

struct SpanInner {
    registry: &'static Registry,
    path: String,
    level: Level,
    start: Instant,
    start_us: u64,
}

impl SpanGuard {
    fn open(name: &str, level: Level) -> SpanGuard {
        let registry = global();
        if !registry.is_enabled() {
            return SpanGuard { inner: None };
        }
        let path = SPAN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            // One exact-size allocation for the `/`-joined path.
            let len = stack.iter().map(|s| s.len() + 1).sum::<usize>() + name.len();
            let mut path = String::with_capacity(len);
            for segment in stack.iter() {
                path.push_str(segment);
                path.push('/');
            }
            path.push_str(name);
            stack.push(name.to_string());
            path
        });
        SpanGuard {
            inner: Some(SpanInner {
                registry,
                path,
                level,
                start: Instant::now(),
                start_us: process_micros(),
            }),
        }
    }

    /// Full `/`-joined hierarchical path of this span, or `None` when
    /// telemetry is disabled.
    pub fn path(&self) -> Option<&str> {
        self.inner.as_ref().map(|i| i.path.as_str())
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(inner) = self.inner.take() else {
            return;
        };
        SPAN_STACK.with(|stack| {
            stack.borrow_mut().pop();
        });
        let elapsed = inner.start.elapsed();
        inner.registry.record_span(&inner.path, elapsed.as_secs_f64());
        if inner.registry.would_emit(inner.level) {
            let mut fields = serde_json::Map::new();
            fields.insert(
                "duration_us".to_string(),
                serde_json::Value::from(elapsed.as_micros() as u64),
            );
            fields.insert("start_us".to_string(), serde_json::Value::from(inner.start_us));
            fields.insert("tid".to_string(), serde_json::Value::from(thread_id()));
            inner.registry.emit(inner.level, EventKind::Span, &inner.path, fields);
        }
    }
}

/// Opens a hot-path span at [`Level::Trace`] (per-frame granularity; only
/// very verbose sinks see the individual events, but the timing histogram
/// always accumulates).
pub fn span(name: &str) -> SpanGuard {
    SpanGuard::open(name, Level::Trace)
}

/// Opens a span at an explicit level — [`Level::Debug`] for stage-level
/// spans like a whole capture or a training fit.
pub fn span_at(name: &str, level: Level) -> SpanGuard {
    SpanGuard::open(name, level)
}

/// The calling thread's current `/`-joined span path, or `None` when no
/// span is open (or telemetry is disabled). A task runtime captures this
/// at submit time and replays it on the executing thread with
/// [`enter_context`].
pub fn current_path() -> Option<String> {
    SPAN_STACK.with(|stack| {
        let stack = stack.borrow();
        if stack.is_empty() {
            None
        } else {
            Some(stack.join("/"))
        }
    })
}

/// Restores the span stack saved by [`enter_context`] when dropped —
/// panic-safe, so a panicking task cannot leak its parent's context onto a
/// pool worker.
#[must_use = "dropping the guard immediately would restore the previous context at once"]
pub struct ContextGuard {
    saved: Vec<String>,
}

impl Drop for ContextGuard {
    fn drop(&mut self) {
        SPAN_STACK.with(|stack| {
            *stack.borrow_mut() = std::mem::take(&mut self.saved);
        });
    }
}

/// *Replaces* the calling thread's span stack with `path` (a `/`-joined
/// span path captured by [`current_path`] on another thread; `None` clears
/// the stack) until the returned guard drops. Replacement rather than
/// pushing is what makes the call correct both on an idle pool worker
/// (empty stack → the submitted context) and on a caller helping drain its
/// own job (its live stack *is* the context; swapping in the same path
/// changes nothing).
pub fn enter_context(path: Option<&str>) -> ContextGuard {
    let fresh = match path {
        Some(p) if !p.is_empty() => vec![p.to_string()],
        _ => Vec::new(),
    };
    let saved = SPAN_STACK.with(|stack| std::mem::replace(&mut *stack.borrow_mut(), fresh));
    ContextGuard { saved }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_propagates_a_parent_path() {
        // No open span: no context.
        assert_eq!(current_path(), None);
        let outer = span("ctx_outer");
        let ctx = current_path();
        // Telemetry may be disabled globally in some environments; only
        // assert the nesting logic when the span actually opened.
        if outer.path().is_some() {
            assert_eq!(ctx.as_deref(), Some("ctx_outer"));
            let worker = std::thread::spawn(move || {
                let _enter = enter_context(ctx.as_deref());
                let inner = span("ctx_inner");
                let path = inner.path().map(str::to_string);
                drop(inner);
                assert_eq!(current_path(), Some("ctx_outer".to_string()));
                path
            })
            .join()
            .unwrap();
            assert_eq!(worker.as_deref(), Some("ctx_outer/ctx_inner"));
        }
        drop(outer);
        assert_eq!(current_path(), None);
    }

    #[test]
    fn enter_context_restores_on_drop_even_after_panic() {
        let outer = span("restore_outer");
        if outer.path().is_some() {
            let before = current_path();
            let result = std::panic::catch_unwind(|| {
                let _enter = enter_context(Some("elsewhere"));
                panic!("task panic");
            });
            assert!(result.is_err());
            assert_eq!(current_path(), before, "context must restore through unwinding");
        }
        drop(outer);
    }
}
