//! In-memory span recorder for the traced run.
//!
//! A span is recorded around each call the benchmark makes into a
//! layer's public function: name, start, end, parent span and request
//! id, plus a work count (samples, vectors, operations) measured at the
//! same boundary. Spans stay in memory until [`take`] drains them when
//! the run ends. With recording off, [`span`] returns an inert guard and
//! records nothing.
//!
//! Parents are tracked per thread. Work handed to engine workers
//! carries its parent explicitly through [`current`] and [`within`].

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One finished span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique id (never 0).
    pub id: u64,
    /// Parent span id, 0 for a root.
    pub parent: u64,
    /// Request id shared by every span of one request.
    pub request: u64,
    /// Layer-qualified name, e.g. `netlist.power` or `apps.kmeans`.
    pub name: String,
    /// Start time.
    pub start_ns: u64,
    /// End time.
    pub end_ns: u64,
    /// Work done inside the span (samples, vectors, operations).
    pub work: u64,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    /// The open spans of this thread, innermost last: (span id, request).
    static STACK: RefCell<Vec<(u64, u64)>> = const { RefCell::new(Vec::new()) };
}

fn now_ns() -> u64 {
    let epoch = EPOCH.get_or_init(Instant::now);
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Turns recording on or off.
pub fn set_enabled(on: bool) {
    EPOCH.get_or_init(Instant::now);
    ENABLED.store(on, Ordering::SeqCst);
}

/// Whether spans are being recorded.
#[must_use]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Drains every finished span.
#[must_use]
pub fn take() -> Vec<Span> {
    std::mem::take(
        &mut *SPANS
            .lock()
            .expect("span store poisoned by a panicking recorder"),
    )
}

/// The innermost open span of this thread, as (span id, request id); the
/// handle worker closures pass to [`within`].
#[must_use]
pub fn current() -> (u64, u64) {
    STACK.with(|stack| stack.borrow().last().copied().unwrap_or((0, 0)))
}

/// Runs `f` with `parent` as this thread's innermost open span, so spans
/// started on an engine worker attach to the span that dispatched it.
pub fn within<R>(parent: (u64, u64), f: impl FnOnce() -> R) -> R {
    if !enabled() {
        return f();
    }
    STACK.with(|stack| stack.borrow_mut().push(parent));
    let result = f();
    STACK.with(|stack| stack.borrow_mut().pop());
    result
}

/// An open span; it is recorded when dropped.
#[derive(Debug)]
pub struct Guard {
    open: Option<Span>,
}

impl Guard {
    /// Adds to the span's work count.
    pub fn work(&mut self, amount: u64) {
        if let Some(span) = &mut self.open {
            span.work += amount;
        }
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some(mut span) = self.open.take() else {
            return;
        };
        span.end_ns = now_ns();
        STACK.with(|stack| stack.borrow_mut().pop());
        if let Ok(mut spans) = SPANS.lock() {
            spans.push(span);
        }
    }
}

/// Opens a span named `name` under this thread's innermost open span.
#[must_use]
pub fn span(name: &str) -> Guard {
    span_for_request(name, None)
}

/// Opens a span that starts a new request: it and every span beneath it
/// carry `request`.
#[must_use]
pub fn request_span(name: &str, request: u64) -> Guard {
    span_for_request(name, Some(request))
}

fn span_for_request(name: &str, request: Option<u64>) -> Guard {
    if !enabled() {
        return Guard { open: None };
    }
    let (parent, inherited) = current();
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let request = request.unwrap_or(inherited);
    STACK.with(|stack| stack.borrow_mut().push((id, request)));
    Guard {
        open: Some(Span {
            id,
            parent,
            request,
            name: name.to_owned(),
            start_ns: now_ns(),
            end_ns: 0,
            work: 0,
        }),
    }
}

/// Totals of all spans sharing one name.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct NameTotals {
    /// Spans recorded.
    pub count: u64,
    /// Sum of span durations, seconds.
    pub busy_s: f64,
    /// Sum of self times (duration minus the part covered by child
    /// spans), seconds.
    pub self_s: f64,
    /// Sum of work counts.
    pub work: u64,
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for (start, end) in intervals {
        let start = start.max(reach);
        let end = end.min(hi);
        if end > start {
            total += end - start;
            reach = end;
        }
    }
    total
}

/// Self time of every span, in nanoseconds, keyed by span id.
#[must_use]
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for span in spans {
        if span.parent != 0 {
            children
                .entry(span.parent)
                .or_default()
                .push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .map(|span| {
            let kids = children.remove(&span.id).unwrap_or_default();
            let busy = span.end_ns.saturating_sub(span.start_ns);
            (
                span.id,
                busy - covered(kids, span.start_ns, span.end_ns).min(busy),
            )
        })
        .collect()
}

/// Per-name totals over `spans`.
#[must_use]
pub fn totals(spans: &[Span]) -> BTreeMap<String, NameTotals> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<String, NameTotals> = BTreeMap::new();
    for span in spans {
        let entry = out.entry(span.name.clone()).or_default();
        entry.count += 1;
        entry.busy_s += span.end_ns.saturating_sub(span.start_ns) as f64 * 1e-9;
        entry.self_s += selfs[&span.id] as f64 * 1e-9;
        entry.work += span.work;
    }
    out
}

/// Whether a span name belongs to a measured layer. Spans named
/// `bench.*` only structure the run (root, steps, rounds); their self
/// time is time no layer accounts for.
#[must_use]
pub fn is_layer(name: &str) -> bool {
    !name.starts_with("bench.")
}

/// Share of the root spans' wall-clock that layer spans account for:
/// 1 − (self time of every `bench.*` span) / (duration of every root).
/// `bench.*` spans are opened only on the driving thread, so their self
/// time is exactly the wall-clock during which no layer span was open.
#[must_use]
pub fn coverage(spans: &[Span]) -> f64 {
    let selfs = self_times(spans);
    let wall: u64 = spans
        .iter()
        .filter(|s| s.parent == 0)
        .map(|s| s.end_ns.saturating_sub(s.start_ns))
        .sum();
    let unexplained: u64 = spans
        .iter()
        .filter(|s| !is_layer(&s.name))
        .map(|s| selfs[&s.id])
        .sum();
    if wall == 0 {
        return 0.0;
    }
    1.0 - unexplained as f64 / wall as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            request: 0,
            name: name.to_owned(),
            start_ns,
            end_ns,
            work: 1,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        // two parallel children overlap on [20, 30); one runs past the
        // parent's end and is clipped
        let spans = vec![
            span(1, 0, "bench.run", 0, 100),
            span(2, 1, "a", 10, 30),
            span(3, 1, "a", 20, 40),
            span(4, 1, "b", 90, 120),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&1], 100 - 30 - 10);
        assert_eq!(selfs[&2], 20);
        let totals = totals(&spans);
        assert_eq!(totals["a"].count, 2);
        assert_eq!(totals["a"].work, 2);
        assert!((coverage(&spans) - 0.4).abs() < 1e-12);
    }
}
