//! Benchmark-side spans: one per public-function boundary the staged
//! replay crosses, kept in memory on the replaying thread and written
//! out when the run ends. Nothing here touches the program; threads
//! without an active tracer (the server's workers) run the wrapped call
//! and record nothing.
//!
//! These are not `obs::trace` spans and their names are not program
//! metrics, so DESIGN.md's catalogue does not list them.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Spans of one request share this.
    pub request: u64,
}

struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: u64,
}

thread_local! {
    static TRACER: RefCell<Option<Tracer>> = const { RefCell::new(None) };
}

/// Starts recording on this thread.
pub fn start() {
    TRACER.with(|t| {
        *t.borrow_mut() = Some(Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
        });
    });
}

/// Stops recording and hands back every span, in start order.
pub fn finish() -> Vec<Span> {
    TRACER.with(|t| t.borrow_mut().take().map(|t| t.spans).unwrap_or_default())
}

pub fn set_request(id: u64) {
    TRACER.with(|t| {
        if let Some(t) = t.borrow_mut().as_mut() {
            t.request = id;
        }
    });
}

/// Runs `f` inside a span named `name`.
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let index = TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let t = t.as_mut()?;
        let index = t.spans.len();
        t.spans.push(Span {
            name,
            start_ns: t.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: t.open.last().copied(),
            request: t.request,
        });
        t.open.push(index);
        Some(index)
    });
    let out = f();
    if let Some(index) = index {
        TRACER.with(|t| {
            if let Some(t) = t.borrow_mut().as_mut() {
                t.spans[index].end_ns = t.origin.elapsed().as_nanos() as u64;
                t.open.pop();
            }
        });
    }
    out
}

#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct NameTotals {
    pub spans: u64,
    /// Σ duration.
    pub total_ns: u64,
    /// Σ (duration − time covered by child spans).
    pub self_ns: u64,
}

/// Per-name totals. A span's self time is its duration minus its direct
/// children's: children of one single-threaded span never overlap.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns - s.start_ns;
        }
    }
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let e = out.entry(s.name).or_default();
        let duration = s.end_ns - s.start_ns;
        e.spans += 1;
        e.total_ns += duration;
        e.self_ns += duration.saturating_sub(child_ns[i]);
    }
    out
}

pub fn to_json(spans: &[Span]) -> String {
    let mut out = String::from("[\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
            s.name, s.start_ns, s.end_ns, s.request
        );
        out.push_str(if i + 1 < spans.len() { ",\n" } else { "\n" });
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: 1,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        // request 0..100
        //   session 10..60
        //     get 20..30, get 35..50
        //   algorithm 60..95
        //     scan 70..80
        let spans = vec![
            s("request", 0, 100, None),
            s("session", 10, 60, Some(0)),
            s("get", 20, 30, Some(1)),
            s("get", 35, 50, Some(1)),
            s("algorithm", 60, 95, Some(0)),
            s("scan", 70, 80, Some(4)),
        ];
        let t = totals(&spans);
        assert_eq!(
            t["request"],
            NameTotals {
                spans: 1,
                total_ns: 100,
                self_ns: 15
            }
        );
        assert_eq!(
            t["session"],
            NameTotals {
                spans: 1,
                total_ns: 50,
                self_ns: 25
            }
        );
        assert_eq!(
            t["get"],
            NameTotals {
                spans: 2,
                total_ns: 25,
                self_ns: 25
            }
        );
        assert_eq!(
            t["algorithm"],
            NameTotals {
                spans: 1,
                total_ns: 35,
                self_ns: 25
            }
        );
        assert_eq!(
            t["scan"],
            NameTotals {
                spans: 1,
                total_ns: 10,
                self_ns: 10
            }
        );
        // Self times partition the root: nothing is counted twice or lost.
        assert_eq!(t.values().map(|n| n.self_ns).sum::<u64>(), 100);
    }

    #[test]
    fn spans_nest_under_the_open_span_and_carry_the_request_id() {
        assert_eq!(span("inactive", || 5), 5, "no tracer: the call still runs");
        start();
        set_request(9);
        span("outer", || {
            span("inner", || ());
            span("inner", || ());
        });
        let spans = finish();
        assert_eq!(spans.len(), 3);
        assert_eq!(
            (spans[0].name, spans[0].parent, spans[0].request),
            ("outer", None, 9)
        );
        assert_eq!((spans[1].parent, spans[2].parent), (Some(0), Some(0)));
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[2].end_ns <= spans[0].end_ns);
        assert!(to_json(&spans).contains("\"name\":\"inner\""));
        assert!(finish().is_empty(), "finish stops the recording");
    }
}
