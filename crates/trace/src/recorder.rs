use crate::loghist::LogHistogram;
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Sentinel for "no disambiguating index" on an event (plain spans).
pub(crate) const NO_INDEX: u32 = u32::MAX;

/// What one recorded event is.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EventKind {
    /// A completed span.
    Span {
        /// Span duration (ns).
        dur_ns: u64,
        /// FLOPs attributed to the span (0 = unreported).
        flops: u64,
        /// Memory-traffic bytes attributed to the span (0 = unreported).
        bytes: u64,
    },
    /// A point-in-time marker (e.g. a supervisor degradation event).
    Instant,
    /// A named sampled value.
    Counter {
        /// The sampled value.
        value: f64,
    },
}

/// One trace event. `Copy` and small on purpose: the hot path is a
/// `Vec::push` of this struct into a thread-local buffer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Event {
    /// Static event name (the span taxonomy in DESIGN.md §8).
    pub name: &'static str,
    /// Disambiguator within a name (layer index, pyramid octave,
    /// worker id, frame number); `NO_INDEX` when unused.
    pub index: u32,
    /// Recording thread, numbered in order of first event.
    pub tid: u32,
    /// Start time in nanoseconds since the process-wide trace epoch.
    pub ts_ns: u64,
    /// Event payload.
    pub kind: EventKind,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static GENERATION: AtomicU64 = AtomicU64::new(1);
static NEXT_TID: AtomicU32 = AtomicU32::new(0);

/// Whether a trace session is currently recording. The disabled fast
/// path of every recording entry point is this one relaxed load.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Monotonic nanoseconds since the process-wide trace epoch. All
/// threads share the epoch, so timestamps order correctly across the
/// worker pool.
#[inline]
pub(crate) fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// The merged store. Guarded by one mutex that the hot path never
/// touches: merges happen at worker-thread exit and session finish.
struct Sink {
    events: Vec<Event>,
    hists: Vec<(&'static str, LogHistogram)>,
}

static SINK: Mutex<Sink> = Mutex::new(Sink { events: Vec::new(), hists: Vec::new() });

fn lock_sink() -> std::sync::MutexGuard<'static, Sink> {
    SINK.lock().unwrap_or_else(|p| p.into_inner())
}

/// Per-thread event buffer. Dropping it (worker thread exit) merges
/// its contents into the global sink — the only synchronization in a
/// worker's lifetime.
struct LocalBuf {
    generation: u64,
    tid: u32,
    events: Vec<Event>,
    hists: Vec<(&'static str, LogHistogram)>,
}

impl LocalBuf {
    /// Discards data left over from a previous session.
    fn sync_generation(&mut self) {
        let current = GENERATION.load(Ordering::Acquire);
        if self.generation != current {
            self.events.clear();
            self.hists.clear();
            self.generation = current;
        }
    }

    fn hist_mut(&mut self, name: &'static str) -> &mut LogHistogram {
        // Linear scan: a trace has a few dozen span names, and `find`
        // on a short Vec beats hashing a pointer-sized key.
        let idx = match self.hists.iter().position(|(n, _)| *n == name) {
            Some(i) => i,
            None => {
                self.hists.push((name, LogHistogram::new()));
                self.hists.len() - 1
            }
        };
        &mut self.hists[idx].1
    }

    fn merge_into_sink(&mut self) {
        if self.events.is_empty() && self.hists.is_empty() {
            return;
        }
        if self.generation != GENERATION.load(Ordering::Acquire) {
            // Stale data from a finished session: drop it.
            self.events.clear();
            self.hists.clear();
            return;
        }
        let mut sink = lock_sink();
        sink.events.append(&mut self.events);
        for (name, h) in self.hists.drain(..) {
            match sink.hists.iter_mut().find(|(n, _)| *n == name) {
                Some((_, existing)) => existing.merge(&h),
                None => sink.hists.push((name, h)),
            }
        }
    }
}

impl Drop for LocalBuf {
    fn drop(&mut self) {
        self.merge_into_sink();
    }
}

thread_local! {
    static LOCAL: RefCell<LocalBuf> = RefCell::new(LocalBuf {
        generation: 0,
        tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
        events: Vec::new(),
        hists: Vec::new(),
    });
}

fn record(kind: EventKind, name: &'static str, index: u32, ts_ns: u64) {
    let _ = LOCAL.try_with(|cell| {
        let mut buf = cell.borrow_mut();
        buf.sync_generation();
        let tid = buf.tid;
        if let EventKind::Span { dur_ns, .. } = kind {
            buf.hist_mut(name).record(dur_ns as f64 / 1e6);
        }
        buf.events.push(Event { name, index, tid, ts_ns, kind });
    });
}

/// An in-flight span. Records one [`EventKind::Span`] event when
/// dropped; inert (a branch on a bool) when tracing is disabled.
#[must_use = "a span measures the scope it is alive for"]
#[derive(Debug)]
pub struct Span {
    name: &'static str,
    index: u32,
    start_ns: u64,
    flops: u64,
    bytes: u64,
    armed: bool,
}

impl Span {
    /// Attributes a compute/memory cost to the span (rendered as
    /// `args` in the Chrome export). No-op on a disarmed span.
    pub fn with_cost(mut self, flops: u64, bytes: u64) -> Self {
        self.flops = flops;
        self.bytes = bytes;
        self
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if !self.armed || !enabled() {
            return;
        }
        let dur_ns = now_ns().saturating_sub(self.start_ns);
        record(
            EventKind::Span { dur_ns, flops: self.flops, bytes: self.bytes },
            self.name,
            self.index,
            self.start_ns,
        );
    }
}

const INERT: Span = Span { name: "", index: NO_INDEX, start_ns: 0, flops: 0, bytes: 0, armed: false };

/// Opens a span. The returned guard records on drop; disabled tracing
/// returns an inert guard after one relaxed atomic load.
#[inline]
pub fn span(name: &'static str) -> Span {
    span_at(name, NO_INDEX as usize)
}

/// [`span`] with a disambiguating index (layer number, pyramid octave,
/// worker id). Indexes are truncated to `u32`.
#[inline]
pub fn span_at(name: &'static str, index: usize) -> Span {
    if !enabled() {
        return INERT;
    }
    Span { name, index: index as u32, start_ns: now_ns(), flops: 0, bytes: 0, armed: true }
}

/// Records a point-in-time marker.
#[inline]
pub fn instant(name: &'static str) {
    instant_at(name, NO_INDEX as usize);
}

/// [`instant`] with a disambiguating index (e.g. frame number).
#[inline]
pub fn instant_at(name: &'static str, index: usize) {
    if !enabled() {
        return;
    }
    record(EventKind::Instant, name, index as u32, now_ns());
}

/// Records a named sampled value (e.g. an accumulated FLOP count).
#[inline]
pub fn counter(name: &'static str, value: f64) {
    if !enabled() {
        return;
    }
    record(EventKind::Counter { value }, name, NO_INDEX, now_ns());
}

/// Merges the calling thread's local buffer into the global sink now.
///
/// Short-lived scoped workers must call this as their last act:
/// `std::thread::scope` unblocks once every closure *returns*, which
/// can be before the worker thread runs its TLS destructors — so a
/// session could finish (and drain the sink) before the worker's
/// drop-merge lands. A no-op (no lock taken) when the buffer is
/// empty, i.e. whenever tracing was off for the thread's lifetime.
pub fn flush_thread() {
    let _ = LOCAL.try_with(|cell| cell.borrow_mut().merge_into_sink());
}

/// A finished trace: the merged event stream (sorted by timestamp) and
/// the per-span-name streaming histograms.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// All events, sorted by start timestamp (ties by thread id).
    pub events: Vec<Event>,
    hists: Vec<(&'static str, LogHistogram)>,
}

impl Trace {
    /// The streaming latency histogram for a span name, if any span
    /// with that name completed.
    pub fn histogram(&self, name: &str) -> Option<&LogHistogram> {
        self.hists.iter().find(|(n, _)| *n == name).map(|(_, h)| h)
    }

    /// Number of completed spans with the given name.
    pub fn span_count(&self, name: &str) -> u64 {
        self.histogram(name).map_or(0, |h| h.count())
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Per-span-name summary (counts, mean, tail quantiles).
    pub fn summary(&self) -> crate::summary::TraceSummary {
        crate::summary::TraceSummary::from_histograms(&self.hists)
    }

    /// The trace as Chrome trace-event JSON (Perfetto /
    /// `chrome://tracing` compatible).
    pub fn chrome_json(&self) -> String {
        crate::chrome::chrome_trace_json(&self.events)
    }
}

static SESSION_LOCK: Mutex<()> = Mutex::new(());

/// An exclusive recording session over the process-global recorder.
///
/// Sessions serialize on a global lock, so concurrent tests cannot
/// contaminate each other's traces; [`TraceSession::begin`] blocks
/// until the previous session ends. Dropping a session without calling
/// [`TraceSession::finish`] disables tracing and discards the data.
#[derive(Debug)]
pub struct TraceSession {
    guard: Option<std::sync::MutexGuard<'static, ()>>,
    recording: bool,
}

impl TraceSession {
    /// Starts recording: takes the session lock, discards stale data,
    /// and enables the recorder.
    pub fn begin() -> TraceSession {
        let guard = SESSION_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        GENERATION.fetch_add(1, Ordering::Release);
        {
            let mut sink = lock_sink();
            sink.events.clear();
            sink.hists.clear();
        }
        ENABLED.store(true, Ordering::SeqCst);
        TraceSession { guard: Some(guard), recording: true }
    }

    /// Holds the session lock *without* enabling the recorder, so the
    /// caller can measure the genuinely-disabled fast path while no
    /// concurrent session can turn recording on. [`TraceSession::finish`]
    /// returns an empty trace.
    pub fn quiesced() -> TraceSession {
        let guard = SESSION_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        TraceSession { guard: Some(guard), recording: false }
    }

    /// Stops recording and returns the merged trace. The calling
    /// thread's buffer is flushed explicitly; worker threads flushed
    /// when they exited their scoped regions. The sink is drained while
    /// the session lock is still held, so a back-to-back `begin()` on
    /// another thread cannot clear it first.
    pub fn finish(mut self) -> Trace {
        if !self.recording {
            self.guard.take();
            return Trace::default();
        }
        self.disable_and_flush();
        let mut sink = lock_sink();
        let mut events = std::mem::take(&mut sink.events);
        let hists = std::mem::take(&mut sink.hists);
        drop(sink);
        self.guard.take();
        events.sort_by(|a, b| a.ts_ns.cmp(&b.ts_ns).then(a.tid.cmp(&b.tid)));
        Trace { events, hists }
    }

    fn disable_and_flush(&mut self) {
        ENABLED.store(false, Ordering::SeqCst);
        // Flush this thread's buffer while the generation still
        // matches; a later generation bump invalidates stragglers.
        let _ = LOCAL.try_with(|cell| cell.borrow_mut().merge_into_sink());
    }
}

impl Drop for TraceSession {
    fn drop(&mut self) {
        if self.guard.is_some() {
            if self.recording {
                self.disable_and_flush();
            }
            self.guard.take();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_records_nothing() {
        assert!(!enabled());
        let _s = span("test.disabled");
        instant("test.disabled.instant");
        counter("test.disabled.counter", 1.0);
        drop(_s);
        let t = TraceSession::begin().finish();
        assert!(t.is_empty(), "events recorded while disabled: {:?}", t.events);
    }

    #[test]
    fn session_collects_spans_instants_and_counters() {
        let session = TraceSession::begin();
        {
            let _outer = span("test.outer");
            let _inner = span_at("test.inner", 3).with_cost(100, 400);
            instant_at("test.mark", 7);
            counter("test.value", 2.5);
        }
        let t = session.finish();
        assert_eq!(t.span_count("test.outer"), 1);
        assert_eq!(t.span_count("test.inner"), 1);
        let inner = t.events.iter().find(|e| e.name == "test.inner").unwrap();
        assert_eq!(inner.index, 3);
        assert!(matches!(inner.kind, EventKind::Span { flops: 100, bytes: 400, .. }));
        assert!(t.events.iter().any(|e| e.name == "test.mark" && e.kind == EventKind::Instant));
        assert!(t
            .events
            .iter()
            .any(|e| e.name == "test.value" && matches!(e.kind, EventKind::Counter { value } if value == 2.5)));
    }

    #[test]
    fn spans_nest_by_timestamp() {
        let session = TraceSession::begin();
        {
            let _outer = span("test.nest.outer");
            std::hint::black_box(0u64);
            let _inner = span("test.nest.inner");
        }
        let t = session.finish();
        let get = |name: &str| *t.events.iter().find(|e| e.name == name).unwrap();
        let (o, i) = (get("test.nest.outer"), get("test.nest.inner"));
        let dur = |e: Event| match e.kind {
            EventKind::Span { dur_ns, .. } => dur_ns,
            _ => panic!("not a span"),
        };
        assert!(i.ts_ns >= o.ts_ns);
        assert!(i.ts_ns + dur(i) <= o.ts_ns + dur(o), "inner contained in outer");
    }

    #[test]
    fn worker_thread_buffers_merge_at_exit() {
        let session = TraceSession::begin();
        std::thread::scope(|s| {
            let workers: Vec<_> = (0..4usize)
                .map(|w| s.spawn(move || drop(span_at("test.worker", w))))
                .collect();
            // An explicit join waits for the thread to exit, TLS
            // destructors (the drop-merge under test) included; the
            // scope's implicit wait only waits for the closures.
            for h in workers {
                h.join().expect("worker thread");
            }
        });
        let t = session.finish();
        assert_eq!(t.span_count("test.worker"), 4);
        let tids: std::collections::BTreeSet<u32> =
            t.events.iter().map(|e| e.tid).collect();
        assert!(tids.len() >= 2, "worker events keep distinct thread ids");
    }

    #[test]
    fn events_are_sorted_by_timestamp() {
        let session = TraceSession::begin();
        std::thread::scope(|s| {
            for _ in 0..3 {
                s.spawn(|| {
                    for _ in 0..50 {
                        let _sp = span("test.sorted");
                    }
                });
            }
        });
        let t = session.finish();
        assert!(t.events.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns));
    }

    #[test]
    fn sessions_are_isolated() {
        let first = TraceSession::begin();
        {
            let _s = span("test.first");
        }
        first.finish();
        let second = TraceSession::begin();
        {
            let _s = span("test.second");
        }
        let t = second.finish();
        assert_eq!(t.span_count("test.first"), 0, "previous session leaked in");
        assert_eq!(t.span_count("test.second"), 1);
    }

    #[test]
    fn dropping_a_session_disables_tracing() {
        {
            let _session = TraceSession::begin();
            assert!(enabled());
        }
        assert!(!enabled());
    }

    #[test]
    fn histograms_match_event_durations() {
        let session = TraceSession::begin();
        for _ in 0..10 {
            let _s = span("test.hist");
        }
        let t = session.finish();
        let h = t.histogram("test.hist").unwrap();
        assert_eq!(h.count(), 10);
        let max_event_ms = t
            .events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::Span { dur_ns, .. } if e.name == "test.hist" => {
                    Some(dur_ns as f64 / 1e6)
                }
                _ => None,
            })
            .fold(0.0, f64::max);
        assert_eq!(h.max(), max_event_ms);
    }
}
