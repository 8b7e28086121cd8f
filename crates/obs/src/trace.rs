//! Structured tracing: spans and events recorded into an installed
//! [`RingSubscriber`].
//!
//! A span brackets a stage of work ([`crate::span!`] returns a
//! [`SpanGuard`]; dropping it closes the span and emits its one record,
//! with its start fields and its duration); an event ([`crate::event!`])
//! is a point-in-time record. Both carry
//! key-value [`FieldValue`] fields, a monotonic timestamp relative to the
//! process's first read of the trace clock, and the id of the enclosing
//! span on the *same thread* (a thread-local span stack provides parentage;
//! cross-thread parentage is deliberately omitted — a span opened on a
//! worker thread is a root on that thread, and every record carries a
//! small per-thread id instead). A trace file is a ring's records written
//! by [`to_jsonl`], one JSON object per line.
//!
//! Spans are also the product's one clock: a guard stamps its start live
//! or not, and [`SpanGuard::elapsed_seconds`] reads a region's time off
//! the span that brackets it. The disabled path is the design center: with
//! no subscriber installed, a span is one relaxed atomic load ([`enabled`])
//! plus one clock read, the macros evaluate no field expressions, and
//! nothing allocates (the crate's test suite asserts this with a counting
//! allocator).

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};
use std::time::Instant;

use crate::json::{json_escape, json_f64};

/// A field value attached to a span or event.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point.
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// String (owned; only materialized when tracing is enabled).
    Str(String),
}

impl FieldValue {
    /// The value as `u64`, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            FieldValue::U64(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as `f64` (integers convert losslessly enough for reports).
    #[cfg(test)]
    pub(crate) fn as_f64(&self) -> Option<f64> {
        match self {
            FieldValue::U64(v) => Some(*v as f64),
            FieldValue::I64(v) => Some(*v as f64),
            FieldValue::F64(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            FieldValue::Str(s) => Some(s),
            _ => None,
        }
    }

    fn to_json(&self) -> String {
        match self {
            FieldValue::U64(v) => format!("{v}"),
            FieldValue::I64(v) => format!("{v}"),
            FieldValue::F64(v) => json_f64(*v),
            FieldValue::Bool(v) => format!("{v}"),
            FieldValue::Str(s) => format!("\"{}\"", json_escape(s)),
        }
    }
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::U64(v)
    }
}
impl From<usize> for FieldValue {
    fn from(v: usize) -> Self {
        FieldValue::U64(v as u64)
    }
}
impl From<u32> for FieldValue {
    fn from(v: u32) -> Self {
        FieldValue::U64(u64::from(v))
    }
}
impl From<i64> for FieldValue {
    fn from(v: i64) -> Self {
        FieldValue::I64(v)
    }
}
impl From<i32> for FieldValue {
    fn from(v: i32) -> Self {
        FieldValue::I64(i64::from(v))
    }
}
impl From<f64> for FieldValue {
    fn from(v: f64) -> Self {
        FieldValue::F64(v)
    }
}
impl From<bool> for FieldValue {
    fn from(v: bool) -> Self {
        FieldValue::Bool(v)
    }
}
impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.to_string())
    }
}
impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(v)
    }
}

/// Record severity. Only two levels, on purpose: `Info` for normal
/// structure, `Warn` for conditions an operator should see.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Level {
    /// Normal structural record.
    Info,
    /// Operator-visible anomaly (e.g. malformed `ARROW_THREADS`).
    Warn,
}

impl Level {
    /// Lower-case label used in serialized output.
    pub(crate) fn label(self) -> &'static str {
        match self {
            Level::Info => "info",
            Level::Warn => "warn",
        }
    }
}

/// One trace record: a closed span (`duration_nanos` is set) or an event.
#[derive(Debug, Clone)]
pub struct Record {
    /// Span or event name (a static string from the call site).
    pub name: &'static str,
    /// Span id (process-unique, starting at 1); 0 for events.
    pub span_id: u64,
    /// Id of the enclosing span on the same thread, if any.
    pub parent_id: Option<u64>,
    /// Monotonic nanoseconds since the process trace epoch: when the span
    /// closed, or when the event fired.
    pub(crate) t_nanos: u64,
    /// For a span: its wall-clock duration. `None` for an event.
    pub duration_nanos: Option<u64>,
    /// Severity.
    pub level: Level,
    /// Small per-thread id (assigned in first-trace order, starting at 1).
    pub thread: u64,
    /// Key-value payload (for a span, the fields it was opened with).
    pub fields: Vec<(&'static str, FieldValue)>,
}

impl Record {
    /// Looks up a field by key.
    pub fn field(&self, key: &str) -> Option<&FieldValue> {
        self.fields.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }

    /// Serializes the record as one JSON line (no trailing newline).
    fn to_json_line(&self) -> String {
        let kind = if self.duration_nanos.is_some() { "span_end" } else { "event" };
        let mut s = format!(
            "{{\"kind\":\"{kind}\",\"name\":\"{}\",\"span\":{},\"parent\":{},\"t_nanos\":{},\"duration_nanos\":{},\"level\":\"{}\",\"thread\":{},\"fields\":{{",
            json_escape(self.name),
            self.span_id,
            self.parent_id.map_or("null".to_string(), |p| p.to_string()),
            self.t_nanos,
            self.duration_nanos.map_or("null".to_string(), |d| d.to_string()),
            self.level.label(),
            self.thread,
        );
        for (i, (k, v)) in self.fields.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!("\"{}\":{}", json_escape(k), v.to_json()));
        }
        s.push_str("}}");
        s
    }
}

/// Writes records as JSONL: one JSON object per line, each line ending in
/// a newline. This is the `trace.jsonl` format
/// [`crate::analyze::SpanTree::from_jsonl`] reads.
pub fn to_jsonl(records: &[Record]) -> String {
    records.iter().map(|r| r.to_json_line() + "\n").collect()
}

/// Fast-path switch: true iff a subscriber is installed.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// The installed ring, if any.
static SUBSCRIBER: RwLock<Option<Arc<RingSubscriber>>> = RwLock::new(None);

/// Whether tracing is live. One relaxed atomic load — the macros call this
/// before evaluating any field expression, so instrumentation costs
/// nothing when no subscriber is installed.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Installs `ring` as the process-global subscriber, replacing any previous
/// one, and turns tracing on.
pub fn install(ring: Arc<RingSubscriber>) {
    *SUBSCRIBER.write().unwrap_or_else(|p| p.into_inner()) = Some(ring);
    ENABLED.store(true, Ordering::Release);
}

/// Turns tracing off and drops the installed subscriber, if any.
pub fn uninstall() {
    ENABLED.store(false, Ordering::Release);
    *SUBSCRIBER.write().unwrap_or_else(|p| p.into_inner()) = None;
}

/// Monotonic process trace epoch (set at the first clock read).
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_nanos() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// Per-thread id, assigned on first traced record (0 = unassigned).
    static THREAD_ID: Cell<u64> = const { Cell::new(0) };
    /// Stack of open span ids on this thread, for parentage.
    static SPAN_STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

fn thread_id() -> u64 {
    THREAD_ID.with(|id| {
        if id.get() == 0 {
            id.set(NEXT_THREAD_ID.fetch_add(1, Ordering::Relaxed));
        }
        id.get()
    })
}

fn dispatch(record: Record) {
    if let Some(ring) = SUBSCRIBER.read().unwrap_or_else(|p| p.into_inner()).as_ref() {
        ring.push(record);
    }
}

/// Emits an event record. Prefer the [`crate::event!`] macro, which guards
/// the field evaluation behind [`enabled`].
pub fn dispatch_event(name: &'static str, level: Level, fields: Vec<(&'static str, FieldValue)>) {
    if !enabled() {
        return;
    }
    let parent = SPAN_STACK.with(|s| s.borrow().last().copied());
    dispatch(Record {
        name,
        span_id: 0,
        parent_id: parent,
        t_nanos: now_nanos(),
        duration_nanos: None,
        level,
        thread: thread_id(),
        fields,
    });
}

/// Opens a span and returns its guard. Prefer the [`crate::span!`] macro,
/// which returns [`SpanGuard::disabled`] without evaluating fields when
/// tracing is off.
pub fn span_enter(name: &'static str, fields: Vec<(&'static str, FieldValue)>) -> SpanGuard {
    if !enabled() {
        return SpanGuard::disabled();
    }
    let span_id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
    let parent = SPAN_STACK.with(|s| {
        let mut stack = s.borrow_mut();
        let parent = stack.last().copied();
        stack.push(span_id);
        parent
    });
    SpanGuard { name, span_id, parent_id: parent, start_nanos: now_nanos(), active: true, fields }
}

/// Closes its span on drop, emitting the span's one record with the
/// measured duration.
#[must_use = "dropping the guard immediately closes the span"]
#[derive(Debug)]
pub struct SpanGuard {
    name: &'static str,
    span_id: u64,
    parent_id: Option<u64>,
    start_nanos: u64,
    active: bool,
    /// The start fields, carried to the record the span emits when it
    /// closes, so its duration and its labels land on one line.
    fields: Vec<(&'static str, FieldValue)>,
}

impl SpanGuard {
    /// An inert guard: the span was never opened (tracing was off) and
    /// dropping it emits nothing, but its clock runs from here, so
    /// [`SpanGuard::elapsed_seconds`] still times the region. Also the
    /// stopwatch for a region that must not open a span (one that would
    /// re-parent every span inside it). One clock read, allocation-free.
    pub fn disabled() -> Self {
        SpanGuard {
            name: "",
            span_id: 0,
            parent_id: None,
            start_nanos: now_nanos(),
            active: false,
            fields: Vec::new(),
        }
    }

    /// Seconds since the guard was opened, on the clock its record uses,
    /// so a value read inside the span is at most its recorded duration.
    pub fn elapsed_seconds(&self) -> f64 {
        now_nanos().saturating_sub(self.start_nanos) as f64 / 1e9
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        // Pop our id even if the subscriber vanished mid-span, so the
        // thread-local parentage stack stays balanced. Out-of-order drops
        // cannot happen: the guard is not `Send` into the stack's thread
        // and lexical scopes nest.
        SPAN_STACK.with(|s| {
            let mut stack = s.borrow_mut();
            if stack.last() == Some(&self.span_id) {
                stack.pop();
            } else {
                stack.retain(|&id| id != self.span_id);
            }
        });
        let end = now_nanos();
        dispatch(Record {
            name: self.name,
            span_id: self.span_id,
            parent_id: self.parent_id,
            t_nanos: end,
            duration_nanos: Some(end.saturating_sub(self.start_nanos)),
            level: Level::Info,
            thread: thread_id(),
            fields: std::mem::take(&mut self.fields),
        });
    }
}

/// Opens a span: `span!("name", "key" => value, ...)`. Returns a
/// [`SpanGuard`]; bind it (`let _span = span!(...)`) so the span covers
/// the enclosing scope. Fields are only evaluated when tracing is enabled.
#[macro_export]
macro_rules! span {
    ($name:expr $(, $k:literal => $v:expr)* $(,)?) => {
        if $crate::trace::enabled() {
            $crate::trace::span_enter(
                $name,
                ::std::vec![$(($k, $crate::trace::FieldValue::from($v))),*],
            )
        } else {
            $crate::trace::SpanGuard::disabled()
        }
    };
}

/// Emits an event: `event!("name", "key" => value, ...)`, or at warn
/// level: `event!(warn: "name", ...)`. Fields are only evaluated when
/// tracing is enabled.
#[macro_export]
macro_rules! event {
    (warn: $name:expr $(, $k:literal => $v:expr)* $(,)?) => {
        if $crate::trace::enabled() {
            $crate::trace::dispatch_event(
                $name,
                $crate::trace::Level::Warn,
                ::std::vec![$(($k, $crate::trace::FieldValue::from($v))),*],
            );
        }
    };
    ($name:expr $(, $k:literal => $v:expr)* $(,)?) => {
        if $crate::trace::enabled() {
            $crate::trace::dispatch_event(
                $name,
                $crate::trace::Level::Info,
                ::std::vec![$(($k, $crate::trace::FieldValue::from($v))),*],
            );
        }
    };
}

/// The one subscriber: keeps the most recent `capacity` records in
/// memory. Tests and sweeps read durations back out of it, the daemon's
/// flight recorder dumps it, and [`to_jsonl`] writes it to a trace file.
pub struct RingSubscriber {
    buf: Mutex<VecDeque<Record>>,
    capacity: usize,
}

impl RingSubscriber {
    /// A ring holding at most `capacity` records (oldest evicted first).
    pub fn new(capacity: usize) -> Self {
        RingSubscriber { buf: Mutex::new(VecDeque::with_capacity(capacity.min(1024))), capacity }
    }

    /// All buffered records, oldest first.
    pub fn records(&self) -> Vec<Record> {
        self.buf.lock().unwrap_or_else(|p| p.into_inner()).iter().cloned().collect()
    }

    /// Empties the buffer.
    pub fn clear(&self) {
        self.buf.lock().unwrap_or_else(|p| p.into_inner()).clear();
    }

    /// Buffered span records named `name`, oldest first — i.e. the
    /// completed spans with their durations.
    pub fn finished_spans(&self, name: &str) -> Vec<Record> {
        self.buf
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .iter()
            .filter(|r| r.duration_nanos.is_some() && r.name == name)
            .cloned()
            .collect()
    }

    /// Appends `record`, evicting the oldest when full. Called inline on
    /// the traced thread.
    fn push(&self, record: Record) {
        // A zero-capacity ring keeps nothing (and must not grow without
        // bound, which an equality check here once allowed).
        if self.capacity == 0 {
            return;
        }
        let mut buf = self.buf.lock().unwrap_or_else(|p| p.into_inner());
        while buf.len() >= self.capacity {
            buf.pop_front();
        }
        buf.push_back(record);
    }
}

#[cfg(test)]
mod counting_alloc {
    //! A counting global allocator so tests can assert the disabled
    //! tracing path allocates nothing. Counts are per-thread, so parallel
    //! test threads do not perturb each other's measurements.
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;

    thread_local! {
        pub(crate) static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
    }

    /// Allocations observed on the current thread so far.
    pub(crate) fn thread_allocs() -> u64 {
        THREAD_ALLOCS.with(Cell::get)
    }

    pub(crate) struct CountingAllocator;

    unsafe impl GlobalAlloc for CountingAllocator {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            THREAD_ALLOCS.with(|c| c.set(c.get() + 1));
            System.alloc(layout)
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout)
        }
    }

    #[global_allocator]
    static ALLOC: CountingAllocator = CountingAllocator;
}

/// Tests that install/uninstall the process-global subscriber must not
/// overlap; `cargo test` runs them on parallel threads. Shared across
/// every in-crate test module that touches the global subscriber slot
/// (trace and slo).
#[cfg(test)]
pub(crate) fn test_subscriber_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn subscriber_lock() -> std::sync::MutexGuard<'static, ()> {
        test_subscriber_lock()
    }

    #[test]
    fn disabled_path_allocates_nothing() {
        let _guard = subscriber_lock();
        uninstall();
        assert!(!enabled());
        // Warm up lazies outside the measured window (thread-local
        // registration, epoch, etc. — none should fire when disabled,
        // but keep the measurement honest).
        {
            let _s = crate::span!("test.warmup", "k" => 1_u64);
            crate::event!("test.warmup");
        }
        let before = counting_alloc::thread_allocs();
        for i in 0..1000_u64 {
            let s = crate::span!("test.disabled_span", "i" => i, "label" => "expensive");
            crate::event!("test.disabled_event", "i" => i);
            crate::event!(warn: "test.disabled_warn", "i" => i);
            std::hint::black_box(s.elapsed_seconds());
        }
        let after = counting_alloc::thread_allocs();
        assert_eq!(after - before, 0, "disabled tracing path allocated");
    }

    #[test]
    fn ring_subscriber_captures_span_tree() {
        let _guard = subscriber_lock();
        let ring = Arc::new(RingSubscriber::new(64));
        install(ring.clone());
        {
            let _outer = crate::span!("test.outer", "epoch" => 7_usize);
            {
                let _inner = crate::span!("test.inner");
                crate::event!("test.note", "msg" => "hello");
            }
        }
        uninstall();

        let outer = ring.finished_spans("test.outer");
        assert_eq!(outer.len(), 1);
        assert_eq!(outer[0].parent_id, None);
        assert_eq!(outer[0].field("epoch").and_then(FieldValue::as_u64), Some(7));

        let inner = ring.finished_spans("test.inner");
        assert_eq!(inner.len(), 1);
        assert_eq!(inner[0].parent_id, Some(outer[0].span_id));

        let records = ring.records();
        let note = records.iter().find(|r| r.name == "test.note").expect("event");
        assert_eq!(note.duration_nanos, None);
        assert_eq!(note.parent_id, Some(inner[0].span_id));
        assert_eq!(note.field("msg").and_then(FieldValue::as_str), Some("hello"));

        // Inner closes before outer; durations nest.
        let outer_dur = outer[0].duration_nanos.expect("duration");
        let inner_dur = inner[0].duration_nanos.expect("duration");
        assert!(outer_dur >= inner_dur);
    }

    #[test]
    fn a_span_is_one_record() {
        let _guard = subscriber_lock();
        let ring = Arc::new(RingSubscriber::new(64));
        install(ring.clone());
        {
            let _outer = crate::span!("test.one.outer", "epoch" => 3_u64);
            crate::event!("test.one.event", "k" => 1_u64);
            {
                let _first = crate::span!("test.one.inner", "i" => 0_u64);
            }
            {
                let _second = crate::span!("test.one.inner", "i" => 1_u64);
            }
        }
        uninstall();

        // Three spans and one event: four records, in close order.
        let records = ring.records();
        let names: Vec<&str> = records.iter().map(|r| r.name).collect();
        assert_eq!(names, ["test.one.event", "test.one.inner", "test.one.inner", "test.one.outer"]);
        let [event, first, second, outer] = &records[..] else { panic!("{names:?}") };
        assert_eq!(event.duration_nanos, None);
        assert_eq!(event.parent_id, Some(outer.span_id));
        assert_eq!(outer.parent_id, None);
        assert_eq!(outer.field("epoch").and_then(FieldValue::as_u64), Some(3));
        for (i, inner) in [first, second].into_iter().enumerate() {
            assert_eq!(inner.parent_id, Some(outer.span_id));
            assert_eq!(inner.field("i").and_then(FieldValue::as_u64), Some(i as u64));
            let duration = inner.duration_nanos.expect("a span record carries its duration");
            assert!(Some(duration) <= outer.duration_nanos);
        }
        assert_ne!(first.span_id, second.span_id);
    }

    #[test]
    fn events_at_warn_level_are_marked() {
        let _guard = subscriber_lock();
        let ring = Arc::new(RingSubscriber::new(8));
        install(ring.clone());
        crate::event!(warn: "test.warning", "reason" => "bad input");
        uninstall();
        let records = ring.records();
        let warn = records.iter().find(|r| r.name == "test.warning").expect("warn event");
        assert_eq!(warn.level, Level::Warn);
    }

    #[test]
    fn ring_evicts_oldest_beyond_capacity() {
        let _guard = subscriber_lock();
        let ring = Arc::new(RingSubscriber::new(4));
        install(ring.clone());
        for i in 0..10_u64 {
            crate::event!("test.evict", "i" => i);
        }
        uninstall();
        let records = ring.records();
        assert_eq!(records.len(), 4);
        assert_eq!(records[0].field("i").and_then(FieldValue::as_u64), Some(6));
        assert_eq!(records[3].field("i").and_then(FieldValue::as_u64), Some(9));
    }

    #[test]
    fn worker_thread_spans_are_roots_with_distinct_thread_ids() {
        let _guard = subscriber_lock();
        let ring = Arc::new(RingSubscriber::new(64));
        install(ring.clone());
        {
            let _offline = crate::span!("test.offline");
            std::thread::scope(|scope| {
                scope.spawn(|| {
                    let _worker = crate::span!("test.worker");
                });
            });
        }
        uninstall();
        let offline = &ring.finished_spans("test.offline")[0];
        let worker = &ring.finished_spans("test.worker")[0];
        // No cross-thread parentage: the worker span is a root on its
        // own thread, distinguished by thread id.
        assert_eq!(worker.parent_id, None);
        assert_ne!(worker.thread, offline.thread);
    }

    #[test]
    fn json_line_is_well_formed() {
        let span = Record {
            name: "test.json",
            span_id: 42,
            parent_id: Some(7),
            t_nanos: 1_000,
            duration_nanos: Some(500),
            level: Level::Info,
            thread: 1,
            fields: vec![("mode", FieldValue::from("warm")), ("n", FieldValue::from(3_u64))],
        };
        let event = Record { span_id: 0, duration_nanos: None, fields: Vec::new(), ..span.clone() };
        assert_eq!(
            to_jsonl(&[span, event]),
            "{\"kind\":\"span_end\",\"name\":\"test.json\",\"span\":42,\"parent\":7,\
             \"t_nanos\":1000,\"duration_nanos\":500,\"level\":\"info\",\"thread\":1,\
             \"fields\":{\"mode\":\"warm\",\"n\":3}}\n\
             {\"kind\":\"event\",\"name\":\"test.json\",\"span\":0,\"parent\":7,\
             \"t_nanos\":1000,\"duration_nanos\":null,\"level\":\"info\",\"thread\":1,\
             \"fields\":{}}\n"
        );
    }

    #[test]
    fn jsonl_writer_round_trips_through_the_span_tree() {
        let _guard = subscriber_lock();
        let ring = Arc::new(RingSubscriber::new(64));
        install(ring.clone());
        {
            let _outer = crate::span!("test.file_outer", "k" => 1_u64);
            let _inner = crate::span!("test.file_inner");
            crate::event!("test.file_event");
        }
        uninstall();
        let records = ring.records();
        let text = to_jsonl(&records);
        assert_eq!(text.lines().count(), 3, "two spans and an event, one line each");
        assert!(!text.contains("span_start"));

        let tree = crate::SpanTree::from_jsonl(&text).expect("the writer's output parses");
        let spans: Vec<&Record> = records.iter().filter(|r| r.duration_nanos.is_some()).collect();
        assert_eq!(tree.nodes.len(), spans.len());
        for (node, record) in tree.nodes.iter().zip(spans) {
            assert_eq!(node.name, record.name);
            assert_eq!(node.span_id, record.span_id);
            assert_eq!(node.parent_id, record.parent_id);
            assert_eq!(node.thread, record.thread);
            assert_eq!(Some(node.duration_nanos), record.duration_nanos);
        }
        let outer = tree.roots[0];
        assert_eq!(tree.nodes[outer].name, "test.file_outer");
        assert_eq!(tree.nodes[tree.nodes[outer].children[0]].name, "test.file_inner");
    }

    #[test]
    fn ring_capacity_zero_keeps_nothing_and_stays_bounded() {
        let _guard = subscriber_lock();
        let ring = Arc::new(RingSubscriber::new(0));
        install(ring.clone());
        for i in 0..100_u64 {
            crate::event!("test.zero_cap", "i" => i);
        }
        uninstall();
        // Regression guard: a zero-capacity ring used to grow without
        // bound because the eviction check was `len == capacity`.
        assert!(ring.records().is_empty());
    }

    #[test]
    fn ring_at_exact_capacity_holds_then_evicts_in_order() {
        let _guard = subscriber_lock();
        let ring = Arc::new(RingSubscriber::new(3));
        install(ring.clone());
        for i in 0..3_u64 {
            crate::event!("test.exact", "i" => i);
        }
        // Exactly full: everything retained, oldest first.
        let held: Vec<u64> = ring
            .records()
            .iter()
            .filter_map(|r| r.field("i").and_then(FieldValue::as_u64))
            .collect();
        assert_eq!(held, [0, 1, 2]);
        // One past capacity evicts exactly the oldest.
        crate::event!("test.exact", "i" => 3_u64);
        uninstall();
        let held: Vec<u64> = ring
            .records()
            .iter()
            .filter_map(|r| r.field("i").and_then(FieldValue::as_u64))
            .collect();
        assert_eq!(held, [1, 2, 3]);
        // clear() empties but the ring keeps accepting afterwards.
        ring.clear();
        assert!(ring.records().is_empty());
    }

    #[test]
    fn guard_from_disabled_period_is_inert_after_enable() {
        let _guard = subscriber_lock();
        uninstall();
        let stale = crate::span!("test.stale");
        assert!(!stale.active);
        let ring = Arc::new(RingSubscriber::new(8));
        install(ring.clone());
        drop(stale); // must not emit a bogus span record
        uninstall();
        assert!(ring.records().is_empty());
    }
}
