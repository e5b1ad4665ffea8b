//! Hand-rolled span tracer for the CleanM pipeline.
//!
//! The engine wants `tracing`-style observability — nested spans around
//! parse/rewrite/plan/execute, counters, structured export — but the build
//! environment is offline and the repo-wide rule is "no third-party deps",
//! so this crate rebuilds the minimal useful core by hand:
//!
//! - **One branch when disabled.** Every instrumentation site first loads a
//!   single relaxed [`AtomicBool`]; a disabled tracer allocates nothing,
//!   touches no thread-local, and takes no lock. This is what keeps the
//!   measured overhead of compiled-in instrumentation under the repo's 3%
//!   budget (gated in the bench harness).
//! - **Thread-local span stacks.** Parent links come from a per-thread stack
//!   of open spans, so nesting is tracked without passing context through
//!   every call signature. Stacks are keyed by tracer identity, so two
//!   tracers on one thread (common in tests) never cross-link.
//! - **Monotonic clocks.** All timestamps are [`Instant`]s relative to the
//!   tracer's epoch — wall-clock changes cannot corrupt durations.
//! - **One JSON writer.** The workspace's `serde` shim is a no-op marker
//!   trait, so [`json`] holds the object / array / map builders every
//!   export in the workspace renders through — [`TraceLog::to_json`]
//!   included.
//!
//! # Example
//!
//! ```
//! use cleanm_trace::Tracer;
//!
//! let tracer = Tracer::new();
//! tracer.set_enabled(true);
//! {
//!     let _q = tracer.span("query");
//!     let _p = tracer.span("parse");
//!     tracer.add_count("rows_parsed", 42);
//! }
//! let log = tracer.take();
//! assert_eq!(log.spans.len(), 2);
//! assert!(log.to_json().contains("\"rows_parsed\": 42"));
//! ```

#![warn(missing_docs)]

pub mod json;

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Identity for a thread, assigned on first use from a process-wide counter.
/// (`std::thread::ThreadId` has no stable integer form on this toolchain.)
fn thread_ordinal() -> u64 {
    static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static ORDINAL: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
    }
    ORDINAL.with(|t| *t)
}

thread_local! {
    /// Per-thread stack of open spans as `(tracer_id, span_id)`. Keyed by
    /// tracer identity so independent tracers on one thread never parent
    /// each other's spans.
    static SPAN_STACK: RefCell<Vec<(u64, u64)>> = const { RefCell::new(Vec::new()) };
}

/// One finished span: a named, timed region of the pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Span id, unique within its tracer (1-based, allocation order).
    pub id: u64,
    /// Id of the enclosing span on the same thread, or 0 for a root span.
    pub parent: u64,
    /// Static span name, e.g. `"plan"` or `"exec.join_hash"`.
    pub name: &'static str,
    /// Optional free-form detail (events use this for their payload).
    pub detail: Option<String>,
    /// Start offset from the tracer's epoch, in nanoseconds.
    pub start_ns: u64,
    /// Span duration in nanoseconds (0 for instantaneous events).
    pub duration_ns: u64,
    /// Ordinal of the recording thread (stable within a process run).
    pub thread: u64,
}

impl SpanRecord {
    /// Span duration as a [`Duration`].
    pub fn duration(&self) -> Duration {
        Duration::from_nanos(self.duration_ns)
    }
}

#[derive(Debug, Default)]
struct TraceSink {
    spans: Vec<SpanRecord>,
    counters: BTreeMap<&'static str, u64>,
}

/// A low-overhead span tracer. Cheap to share behind an `Arc`; disabled by
/// default so instrumented code pays one atomic load per site until a caller
/// (e.g. `CleanDb::set_tracing(true)` or `explain()`) switches it on.
#[derive(Debug)]
pub struct Tracer {
    /// Distinguishes tracers on the shared thread-local span stacks.
    tracer_id: u64,
    enabled: AtomicBool,
    next_span: AtomicU64,
    epoch: Instant,
    sink: Mutex<TraceSink>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// A fresh, **disabled** tracer with its epoch at "now".
    pub fn new() -> Self {
        static NEXT_TRACER: AtomicU64 = AtomicU64::new(1);
        Tracer {
            tracer_id: NEXT_TRACER.fetch_add(1, Ordering::Relaxed),
            enabled: AtomicBool::new(false),
            next_span: AtomicU64::new(1),
            epoch: Instant::now(),
            sink: Mutex::new(TraceSink::default()),
        }
    }

    /// Whether spans are currently being recorded. This is the one branch
    /// every instrumentation site pays when tracing is off.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turn recording on or off. Spans already open keep recording to
    /// completion; new sites observe the flag immediately.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Open a span. The returned guard records the span when dropped; while
    /// it is alive, spans opened on the same thread become its children.
    /// When the tracer is disabled this returns an inert guard and does no
    /// other work.
    #[inline]
    pub fn span(&self, name: &'static str) -> Span<'_> {
        if !self.is_enabled() {
            return Span { live: None };
        }
        self.span_slow(name)
    }

    /// Nearest open span on this thread belonging to this tracer (0 = root).
    fn current_parent(&self) -> u64 {
        SPAN_STACK.with(|s| {
            s.borrow()
                .iter()
                .rev()
                .find(|&&(tid, _)| tid == self.tracer_id)
                .map(|&(_, sid)| sid)
                .unwrap_or(0)
        })
    }

    #[cold]
    fn span_slow(&self, name: &'static str) -> Span<'_> {
        let id = self.next_span.fetch_add(1, Ordering::Relaxed);
        let parent = self.current_parent();
        SPAN_STACK.with(|s| s.borrow_mut().push((self.tracer_id, id)));
        Span {
            live: Some(LiveSpan {
                tracer: self,
                id,
                parent,
                name,
                start: Instant::now(),
            }),
        }
    }

    /// Record an already-measured region as a completed span ending "now".
    /// Used by the exec drivers, which measure stage wall time themselves
    /// and report it once per stage rather than holding a guard open across
    /// worker threads. Parentage comes from the calling thread's open spans.
    #[inline]
    pub fn record_complete(&self, name: &'static str, duration: Duration) {
        if !self.is_enabled() {
            return;
        }
        let id = self.next_span.fetch_add(1, Ordering::Relaxed);
        let parent = self.current_parent();
        let dur = duration.as_nanos() as u64;
        let end = self.epoch.elapsed().as_nanos() as u64;
        self.sink.lock().unwrap().spans.push(SpanRecord {
            id,
            parent,
            name,
            detail: None,
            start_ns: end.saturating_sub(dur),
            duration_ns: dur,
            thread: thread_ordinal(),
        });
    }

    /// Record an instantaneous event with a free-form payload (e.g. an
    /// incremental-refresh fallback reason). Events are zero-duration spans.
    #[inline]
    pub fn event(&self, name: &'static str, detail: impl Into<String>) {
        if !self.is_enabled() {
            return;
        }
        let id = self.next_span.fetch_add(1, Ordering::Relaxed);
        let parent = self.current_parent();
        self.sink.lock().unwrap().spans.push(SpanRecord {
            id,
            parent,
            name,
            detail: Some(detail.into()),
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            duration_ns: 0,
            thread: thread_ordinal(),
        });
    }

    /// Add `n` to the named counter (no-op while disabled).
    #[inline]
    pub fn add_count(&self, name: &'static str, n: u64) {
        if !self.is_enabled() {
            return;
        }
        *self.sink.lock().unwrap().counters.entry(name).or_insert(0) += n;
    }

    /// Drain all recorded spans and counters into a [`TraceLog`], leaving
    /// the tracer empty (but keeping its enabled state and epoch).
    pub fn take(&self) -> TraceLog {
        let mut sink = self.sink.lock().unwrap();
        TraceLog {
            spans: std::mem::take(&mut sink.spans),
            counters: std::mem::take(&mut sink.counters)
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        }
    }

    /// Copy the recorded spans and counters without draining them.
    pub fn snapshot(&self) -> TraceLog {
        let sink = self.sink.lock().unwrap();
        TraceLog {
            spans: sink.spans.clone(),
            counters: sink
                .counters
                .iter()
                .map(|(k, v)| (k.to_string(), *v))
                .collect(),
        }
    }
}

struct LiveSpan<'t> {
    tracer: &'t Tracer,
    id: u64,
    parent: u64,
    name: &'static str,
    start: Instant,
}

/// RAII guard for an open span; records the span when dropped. Obtained from
/// [`Tracer::span`]. Inert (a single `Option` check on drop) when the tracer
/// was disabled at open time.
pub struct Span<'t> {
    live: Option<LiveSpan<'t>>,
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        let Some(live) = self.live.take() else {
            return;
        };
        let duration_ns = live.start.elapsed().as_nanos() as u64;
        SPAN_STACK.with(|s| {
            let mut s = s.borrow_mut();
            // Usually the top of stack; defend against out-of-order drops.
            if let Some(pos) = s
                .iter()
                .rposition(|&(tid, sid)| tid == live.tracer.tracer_id && sid == live.id)
            {
                s.remove(pos);
            }
        });
        let start_ns = (live.start - live.tracer.epoch).as_nanos() as u64;
        live.tracer.sink.lock().unwrap().spans.push(SpanRecord {
            id: live.id,
            parent: live.parent,
            name: live.name,
            detail: None,
            start_ns,
            duration_ns,
            thread: thread_ordinal(),
        });
    }
}

/// A drained set of spans and counters, ready for rendering or export.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceLog {
    /// Finished spans in completion order (children before parents).
    pub spans: Vec<SpanRecord>,
    /// Counter totals, sorted by name.
    pub counters: Vec<(String, u64)>,
}

impl TraceLog {
    /// Render the spans as an indented tree (children under parents, in
    /// start order), one line per span with its duration in milliseconds.
    pub fn render(&self) -> String {
        let mut children: BTreeMap<u64, Vec<&SpanRecord>> = BTreeMap::new();
        for s in &self.spans {
            children.entry(s.parent).or_default().push(s);
        }
        for v in children.values_mut() {
            v.sort_by_key(|s| (s.start_ns, s.id));
        }
        fn walk(
            out: &mut String,
            children: &BTreeMap<u64, Vec<&SpanRecord>>,
            id: u64,
            depth: usize,
        ) {
            if let Some(kids) = children.get(&id) {
                for s in kids {
                    for _ in 0..depth {
                        out.push_str("  ");
                    }
                    out.push_str(s.name);
                    if let Some(d) = &s.detail {
                        out.push_str(&format!(" [{d}]"));
                    }
                    out.push_str(&format!("  {:.3}ms\n", s.duration_ns as f64 / 1e6));
                    walk(out, children, s.id, depth + 1);
                }
            }
        }
        let mut out = String::new();
        walk(&mut out, &children, 0, 0);
        for (name, v) in &self.counters {
            out.push_str(&format!("counter {name} = {v}\n"));
        }
        out
    }

    /// Export as JSON: `{"spans": [...], "counters": {...}}`; a span's
    /// `detail` key is present only when it has one.
    pub fn to_json(&self) -> String {
        let span = |s: &SpanRecord| {
            let fields = [
                ("id", s.id.to_string()),
                ("parent", s.parent.to_string()),
                ("name", json::string(s.name)),
                ("start_ns", s.start_ns.to_string()),
                ("duration_ns", s.duration_ns.to_string()),
                ("thread", s.thread.to_string()),
            ];
            let detail = s.detail.as_deref().map(|d| ("detail", json::string(d)));
            json::object(fields.into_iter().chain(detail))
        };
        json::object([
            ("spans", json::array(self.spans.iter().map(span))),
            (
                "counters",
                json::map(self.counters.iter().map(|(k, v)| (k, v))),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new();
        {
            let _a = t.span("a");
            t.add_count("c", 3);
            t.event("e", "detail");
            t.record_complete("r", Duration::from_millis(1));
        }
        let log = t.take();
        assert!(log.spans.is_empty());
        assert!(log.counters.is_empty());
    }

    #[test]
    fn nesting_links_parents_on_one_thread() {
        let t = Tracer::new();
        t.set_enabled(true);
        {
            let _root = t.span("root");
            {
                let _child = t.span("child");
                t.event("leaf", "x=1");
            }
            t.record_complete("stage", Duration::from_micros(5));
        }
        let log = t.take();
        assert_eq!(log.spans.len(), 4);
        let by_name = |n: &str| log.spans.iter().find(|s| s.name == n).unwrap();
        let root = by_name("root");
        assert_eq!(root.parent, 0);
        assert_eq!(by_name("child").parent, root.id);
        assert_eq!(by_name("leaf").parent, by_name("child").id);
        assert_eq!(by_name("stage").parent, root.id);
        assert_eq!(by_name("leaf").detail.as_deref(), Some("x=1"));
    }

    #[test]
    fn two_tracers_on_one_thread_do_not_cross_link() {
        let a = Tracer::new();
        let b = Tracer::new();
        a.set_enabled(true);
        b.set_enabled(true);
        let _ra = a.span("ra");
        {
            let _rb = b.span("rb");
            let _ca = a.span("ca");
        }
        drop(_ra);
        let la = a.take();
        let ca = la.spans.iter().find(|s| s.name == "ca").unwrap();
        let ra = la.spans.iter().find(|s| s.name == "ra").unwrap();
        assert_eq!(ca.parent, ra.id, "a's child must parent to a's root");
        assert_eq!(b.take().spans[0].parent, 0);
    }

    #[test]
    fn counters_accumulate_and_export() {
        let t = Tracer::new();
        t.set_enabled(true);
        t.add_count("rows", 10);
        t.add_count("rows", 5);
        t.add_count("hits", 1);
        let log = t.take();
        assert_eq!(
            log.counters,
            vec![("hits".to_string(), 1), ("rows".to_string(), 15)]
        );
        let js = log.to_json();
        assert!(js.contains("\"rows\": 15"));
        assert!(js.contains("\"hits\": 1"));
    }

    #[test]
    fn take_drains_snapshot_does_not() {
        let t = Tracer::new();
        t.set_enabled(true);
        t.event("e", "x");
        assert_eq!(t.snapshot().spans.len(), 1);
        assert_eq!(t.snapshot().spans.len(), 1);
        assert_eq!(t.take().spans.len(), 1);
        assert!(t.take().spans.is_empty());
    }

    #[test]
    fn spans_record_across_threads() {
        let t = Arc::new(Tracer::new());
        t.set_enabled(true);
        let _root = t.span("root");
        let t2 = Arc::clone(&t);
        std::thread::spawn(move || {
            let _w = t2.span("worker");
        })
        .join()
        .unwrap();
        drop(_root);
        let log = t.take();
        let worker = log.spans.iter().find(|s| s.name == "worker").unwrap();
        // The worker thread has its own stack: no cross-thread parent.
        assert_eq!(worker.parent, 0);
        let root = log.spans.iter().find(|s| s.name == "root").unwrap();
        assert_ne!(worker.thread, root.thread);
    }

    #[test]
    fn render_indents_children() {
        let t = Tracer::new();
        t.set_enabled(true);
        {
            let _a = t.span("outer");
            let _b = t.span("inner");
        }
        let tree = t.take().render();
        let outer_line = tree.lines().find(|l| l.contains("outer")).unwrap();
        let inner_line = tree.lines().find(|l| l.contains("inner")).unwrap();
        assert!(!outer_line.starts_with(' '));
        assert!(inner_line.starts_with("  "));
    }

    #[test]
    fn json_escapes_details() {
        let t = Tracer::new();
        t.set_enabled(true);
        t.event("e", "quote \" backslash \\ newline \n");
        let js = t.take().to_json();
        assert!(js.contains("quote \\\" backslash \\\\ newline \\n"));
    }
}
