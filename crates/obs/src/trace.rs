//! Span-based per-query tracer.
//!
//! Tracing is opt-in per thread: [`capture`] installs a thread-local
//! collector, runs a closure, and returns the structured span tree it
//! produced. When no collector is installed every tracing call is a cheap
//! no-op (one thread-local read), so production query paths can stay
//! instrumented unconditionally.
//!
//! Spans are scoped guards, which makes the recorded tree well-nested by
//! construction: a child guard created inside a parent's scope must drop
//! before the parent does. [`QueryTrace::is_well_nested`] re-checks the
//! interval algebra for tests.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// A timestamped point event inside a span (e.g. one keyword's list load).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Event {
    pub name: String,
    /// Offset from the start of the capture.
    pub at: Duration,
    pub attrs: Vec<(String, String)>,
}

/// One node of the recorded span tree.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Span {
    pub name: String,
    /// Offset from the start of the capture.
    pub start: Duration,
    pub duration: Duration,
    pub attrs: Vec<(String, String)>,
    /// Named counters accumulated while this span was innermost
    /// (e.g. `slca.steps`, `wal.syncs`).
    pub counts: BTreeMap<String, u64>,
    pub events: Vec<Event>,
    pub children: Vec<Span>,
}

impl Span {
    fn new(name: &str, start: Duration) -> Span {
        Span {
            name: name.to_string(),
            start,
            ..Span::default()
        }
    }

    pub fn end(&self) -> Duration {
        self.start + self.duration
    }

    /// Depth-first search for the first span with this name.
    pub fn find(&self, name: &str) -> Option<&Span> {
        if self.name == name {
            return Some(self);
        }
        self.children.iter().find_map(|c| c.find(name))
    }

    fn well_nested(&self) -> bool {
        let mut prev_end = self.start;
        for c in &self.children {
            if c.start < prev_end || c.end() > self.end() || !c.well_nested() {
                return false;
            }
            prev_end = c.end();
        }
        true
    }

    fn render_into(&self, out: &mut String, prefix: &str, last: bool, root: bool) {
        let (branch, cont) = if root {
            ("", "")
        } else if last {
            ("└─ ", "   ")
        } else {
            ("├─ ", "│  ")
        };
        let _ = write!(
            out,
            "{prefix}{branch}{} {}",
            self.name,
            fmt_duration(self.duration)
        );
        for (k, v) in &self.attrs {
            let _ = write!(out, " {k}={v}");
        }
        if !self.counts.is_empty() {
            let counts: Vec<String> = self
                .counts
                .iter()
                .map(|(k, v)| format!("{k}={v}"))
                .collect();
            let _ = write!(out, " [{}]", counts.join(" "));
        }
        out.push('\n');
        let child_prefix = format!("{prefix}{cont}");
        for e in &self.events {
            let _ = write!(
                out,
                "{child_prefix}• {} @{}",
                e.name,
                fmt_duration(e.at - self.start)
            );
            for (k, v) in &e.attrs {
                let _ = write!(out, " {k}={v}");
            }
            out.push('\n');
        }
        let n = self.children.len();
        for (i, c) in self.children.iter().enumerate() {
            c.render_into(out, &child_prefix, i + 1 == n, false);
        }
    }
}

/// The result of a [`capture`]: the root of the recorded span tree.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QueryTrace {
    pub root: Span,
}

impl QueryTrace {
    /// Pretty-print the span tree with durations, attributes, accumulated
    /// counters and events.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.root.render_into(&mut out, "", true, true);
        out
    }

    /// Check the interval algebra of the tree: every child lies inside its
    /// parent and siblings are ordered and non-overlapping.
    // xlint::allow(unused-export): invariant check the tracer's concurrency tests assert on every captured tree
    pub fn is_well_nested(&self) -> bool {
        self.root.well_nested()
    }

    pub fn find(&self, name: &str) -> Option<&Span> {
        self.root.find(name)
    }
}

fn fmt_duration(d: Duration) -> String {
    let n = d.as_nanos();
    if n < 1_000 {
        format!("{n}ns")
    } else if n < 1_000_000 {
        format!("{:.1}us", n as f64 / 1_000.0)
    } else if n < 1_000_000_000 {
        format!("{:.2}ms", n as f64 / 1_000_000.0)
    } else {
        format!("{:.3}s", n as f64 / 1_000_000_000.0)
    }
}

struct Collector {
    epoch: Instant,
    /// `stack[0]` is the capture root; deeper entries are open spans.
    stack: Vec<Span>,
}

thread_local! {
    static ACTIVE: RefCell<Option<Collector>> = const { RefCell::new(None) };
}

/// Uninstalls the collector even if the traced closure panics, so a poisoned
/// thread (e.g. inside `cargo test`) does not leak a collector into the next
/// test body that runs on it.
struct CaptureReset;

impl Drop for CaptureReset {
    fn drop(&mut self) {
        ACTIVE.with(|a| a.borrow_mut().take());
    }
}

/// Run `f` with tracing enabled on this thread and return its output plus
/// the recorded span tree. The root span is named `name`; if the closure
/// opened exactly one top-level span and the root recorded nothing else, that
/// span is promoted to root (so tracing an engine call yields its "query"
/// span directly). Nested captures are not supported: an inner capture
/// replaces the outer collector for its extent.
pub fn capture<T>(name: &str, f: impl FnOnce() -> T) -> (T, QueryTrace) {
    let epoch = Instant::now();
    let previous = ACTIVE.with(|a| {
        a.borrow_mut().replace(Collector {
            epoch,
            stack: vec![Span::new(name, Duration::ZERO)],
        })
    });
    drop(previous);
    let reset = CaptureReset;
    let out = f();
    let collector = ACTIVE.with(|a| a.borrow_mut().take());
    std::mem::forget(reset);
    let mut root = match collector {
        Some(mut c) => {
            // Fold any spans left open (a traced closure that early-returns
            // with guards alive cannot happen with scoped guards, but be
            // defensive) back into their parents.
            while c.stack.len() > 1 {
                let mut s = c.stack.pop().expect("stack len checked");
                s.duration = c.epoch.elapsed() - s.start;
                c.stack.last_mut().expect("root present").children.push(s);
            }
            let mut root = c.stack.pop().expect("root present");
            root.duration = c.epoch.elapsed();
            root
        }
        None => Span::new(name, Duration::ZERO),
    };
    if root.children.len() == 1
        && root.attrs.is_empty()
        && root.counts.is_empty()
        && root.events.is_empty()
    {
        root = root.children.pop().expect("len checked");
    }
    (out, QueryTrace { root })
}

/// Guard for an open span. Created by [`span`]; closing happens on drop.
#[must_use = "a span guard records its duration when dropped"]
pub struct SpanGuard {
    active: bool,
}

/// Open a span on the current thread's trace (no-op without a capture).
pub fn span(name: &str) -> SpanGuard {
    ACTIVE.with(|a| {
        let mut borrow = a.borrow_mut();
        match borrow.as_mut() {
            Some(c) => {
                let at = c.epoch.elapsed();
                c.stack.push(Span::new(name, at));
                SpanGuard { active: true }
            }
            None => SpanGuard { active: false },
        }
    })
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        ACTIVE.with(|a| {
            let mut borrow = a.borrow_mut();
            if let Some(c) = borrow.as_mut() {
                if c.stack.len() > 1 {
                    let mut s = c.stack.pop().expect("stack len checked");
                    s.duration = c.epoch.elapsed() - s.start;
                    c.stack.last_mut().expect("root present").children.push(s);
                }
            }
        });
    }
}

/// Attach a key/value attribute to the innermost open span.
pub fn attr(key: &str, value: impl std::fmt::Display) {
    ACTIVE.with(|a| {
        let mut borrow = a.borrow_mut();
        if let Some(c) = borrow.as_mut() {
            let top = c.stack.last_mut().expect("root present");
            top.attrs.push((key.to_string(), value.to_string()));
        }
    });
}

/// Accumulate `n` into a named counter on the innermost open span. This is
/// the deep-layer hook: the pager, WAL and cursors call it so that per-query
/// I/O shows up on the phase that caused it.
pub fn count(key: &str, n: u64) {
    if n == 0 {
        return;
    }
    ACTIVE.with(|a| {
        let mut borrow = a.borrow_mut();
        if let Some(c) = borrow.as_mut() {
            let top = c.stack.last_mut().expect("root present");
            *top.counts.entry(key.to_string()).or_insert(0) += n;
        }
    });
}

/// Record a point event (with attributes) on the innermost open span.
pub fn event(name: &str, attrs: &[(&str, &dyn std::fmt::Display)]) {
    ACTIVE.with(|a| {
        let mut borrow = a.borrow_mut();
        if let Some(c) = borrow.as_mut() {
            let at = c.epoch.elapsed();
            let attrs = attrs
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect();
            let top = c.stack.last_mut().expect("root present");
            top.events.push(Event {
                name: name.to_string(),
                at,
                attrs,
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Whether a trace capture is active on this thread.
    fn is_active() -> bool {
        ACTIVE.with(|a| a.borrow().is_some())
    }

    #[test]
    fn untraced_calls_are_noops() {
        assert!(!is_active());
        let g = span("orphan");
        count("x", 3);
        attr("k", "v");
        event("e", &[]);
        drop(g);
        assert!(!is_active());
    }

    #[test]
    fn capture_builds_a_nested_tree() {
        let ((), trace) = capture("query", || {
            let _q = span("query");
            attr("algorithm", "partition");
            {
                let _s = span("session");
                event("list", &[("keyword", &"xml"), ("len", &42u64)]);
                count("cache.misses", 1);
            }
            {
                let _a = span("algorithm");
                count("slca.steps", 10);
                count("slca.steps", 5);
            }
        });
        assert_eq!(trace.root.name, "query");
        assert_eq!(
            trace.root.attrs,
            vec![("algorithm".into(), "partition".into())]
        );
        let names: Vec<&str> = trace
            .root
            .children
            .iter()
            .map(|c| c.name.as_str())
            .collect();
        assert_eq!(names, ["session", "algorithm"]);
        assert_eq!(trace.find("session").unwrap().counts["cache.misses"], 1);
        assert_eq!(trace.find("session").unwrap().events[0].name, "list");
        assert_eq!(trace.find("algorithm").unwrap().counts["slca.steps"], 15);
        assert!(trace.is_well_nested());
        let rendered = trace.render();
        assert!(rendered.contains("query"));
        assert!(rendered.contains("├─ session"));
        assert!(rendered.contains("└─ algorithm"));
        assert!(rendered.contains("[cache.misses=1]"));
        assert!(rendered.contains("• list"));
    }

    #[test]
    fn capture_without_single_top_span_keeps_synthetic_root() {
        let ((), trace) = capture("trace", || {
            let _a = span("a");
            drop(_a);
            let _b = span("b");
        });
        assert_eq!(trace.root.name, "trace");
        assert_eq!(trace.root.children.len(), 2);
        assert!(trace.is_well_nested());
    }

    #[test]
    fn well_nested_rejects_bad_interval_algebra() {
        let mut parent = Span::new("p", Duration::from_nanos(10));
        parent.duration = Duration::from_nanos(100);
        let mut child = Span::new("c", Duration::from_nanos(50));
        child.duration = Duration::from_nanos(100); // overruns the parent
        parent.children.push(child);
        assert!(!QueryTrace { root: parent }.is_well_nested());
    }

    #[test]
    fn collector_is_removed_after_a_panicking_capture() {
        let result = std::panic::catch_unwind(|| {
            capture("boom", || {
                let _s = span("inner");
                panic!("traced closure panics");
            })
        });
        assert!(result.is_err());
        assert!(!is_active());
    }
}
