//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer's public functions: name, start, end, parent span and operation id.
//! They stay in memory until the run ends, when they are summarized into
//! per-layer self times and written as one Chrome trace through
//! `bench::perf::chrome_trace`. With tracing off every call is a plain
//! function call and nothing is recorded.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use bench::perf::TraceSpan;

/// Index of a recorded span.
pub type SpanId = usize;

/// One completed (or still open, `end_ns == None`) span.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: String,
    pub op: u64,
    pub lane: u64,
    pub parent: Option<SpanId>,
    pub start_ns: u64,
    pub end_ns: Option<u64>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.map_or(0, |end| end - self.start_ns)
    }
}

static NEXT_LANE: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static LANE: Cell<Option<u64>> = const { Cell::new(None) };
    static OPEN: RefCell<Vec<SpanId>> = const { RefCell::new(Vec::new()) };
}

/// The calling thread's trace lane (assigned on first use).
fn lane() -> u64 {
    LANE.with(|lane| match lane.get() {
        Some(id) => id,
        None => {
            let id = NEXT_LANE.fetch_add(1, Ordering::Relaxed);
            lane.set(Some(id));
            id
        }
    })
}

/// A shared span recorder; `enabled == false` records nothing.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer { enabled, origin: Instant::now(), spans: Mutex::new(Vec::new()) }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` for operation `op`. The parent is
    /// the innermost span open on this thread, or `parent` when given (for
    /// work handed to another thread).
    pub fn span<T>(&self, name: &str, op: u64, parent: Option<SpanId>, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let parent = parent.or_else(|| OPEN.with(|open| open.borrow().last().copied()));
        let id = {
            let mut spans = self.spans.lock().expect("span list poisoned");
            spans.push(Span {
                name: name.to_owned(),
                op,
                lane: lane(),
                parent,
                start_ns: self.ns(Instant::now()),
                end_ns: None,
            });
            spans.len() - 1
        };
        OPEN.with(|open| open.borrow_mut().push(id));
        let out = f();
        OPEN.with(|open| open.borrow_mut().pop());
        let end = self.ns(Instant::now());
        self.spans.lock().expect("span list poisoned")[id].end_ns = Some(end);
        out
    }

    /// The innermost span open on this thread.
    pub fn current(&self) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        OPEN.with(|open| open.borrow().last().copied())
    }

    /// Records an interval measured elsewhere (e.g. a client's request
    /// round trip, or a library recorder's phase span).
    pub fn record(
        &self,
        name: &str,
        op: u64,
        lane_id: Option<u64>,
        parent: Option<SpanId>,
        start: Instant,
        end: Instant,
    ) {
        if !self.enabled {
            return;
        }
        let span = Span {
            name: name.to_owned(),
            op,
            lane: lane_id.unwrap_or_else(lane),
            parent,
            start_ns: self.ns(start),
            end_ns: Some(self.ns(end).max(self.ns(start))),
        };
        self.spans.lock().expect("span list poisoned").push(span);
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list poisoned").clone()
    }
}

/// Self time per span name: each span's duration minus the part of its
/// interval its children cover (children are nested in time by
/// construction, so their durations are summed).
pub fn self_times(spans: &[Span]) -> BTreeMap<String, f64> {
    let mut child_ns = vec![0u64; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            if spans[parent].lane == span.lane {
                child_ns[parent] += span.dur_ns();
            }
        }
    }
    let mut out: BTreeMap<String, f64> = BTreeMap::new();
    for (span, child) in spans.iter().zip(&child_ns) {
        let own = span.dur_ns().saturating_sub(*child);
        *out.entry(span.name.clone()).or_default() += own as f64 * 1e-9;
    }
    out
}

/// Total duration per span name, in seconds.
pub fn totals(spans: &[Span]) -> BTreeMap<String, f64> {
    let mut out: BTreeMap<String, f64> = BTreeMap::new();
    for span in spans {
        *out.entry(span.name.clone()).or_default() += span.dur_ns() as f64 * 1e-9;
    }
    out
}

/// The spans as Chrome-trace slices (microseconds, one lane per thread).
pub fn chrome_spans(spans: &[Span]) -> Vec<TraceSpan> {
    spans
        .iter()
        .filter(|s| s.end_ns.is_some())
        .map(|s| TraceSpan {
            name: s.name.clone(),
            tid: s.lane,
            start_us: s.start_ns / 1000,
            end_us: s.end_ns.unwrap_or(s.start_ns) / 1000,
        })
        .collect()
}
