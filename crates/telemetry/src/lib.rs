//! # sca-telemetry — std-only pipeline telemetry
//!
//! Spans, counters, and histograms for the SCAGuard detection pipeline,
//! with JSONL export. The build environment is offline, so this crate
//! depends on nothing but `std`.
//!
//! * **Spans** ([`span`]) time a region of code with monotonic clocks and
//!   nest via a thread-local stack: a span opened while another is live on
//!   the same thread records it as its parent. Attributes (stage-specific
//!   counters, verdicts) attach to the guard and land in the record when
//!   it drops.
//! * **Counters** ([`counter`]) are named monotonic sums, merged across
//!   threads through the global registry.
//! * **Histograms** ([`record`]) are bucketed distributions with
//!   p50/p90/p99 estimation; every completed span also feeds a histogram
//!   keyed by its name, so repeated stages aggregate automatically.
//! * **Gauges** ([`gauge`]) carry instantaneous state (queue depth,
//!   in-flight requests); the last observed value wins.
//! * **Traces** ([`trace_scope`]) bind a request id to the current
//!   thread; spans opened under the scope carry a `trace` attribute and
//!   can be drained per request with [`take_trace_spans`].
//! * **Flight recorder** ([`FlightRecorder`]) keeps a bounded ring of
//!   per-request summaries independent of the global registry.
//!
//! The registry is **disabled by default**: every entry point checks one
//! relaxed atomic load and returns immediately, so instrumented code pays
//! no measurable cost until [`set_enabled`]`(true)` is called (the CLI
//! does this when `--telemetry` is passed).
//!
//! ```
//! sca_telemetry::set_enabled(true);
//! {
//!     let mut sp = sca_telemetry::span("pipeline.execute");
//!     sp.attr("steps", 128u64);
//!     sca_telemetry::counter("instructions_retired", 128);
//! }
//! let snap = sca_telemetry::snapshot();
//! assert_eq!(snap.spans.len(), 1);
//! sca_telemetry::set_enabled(false);
//! sca_telemetry::reset();
//! ```

mod export;
mod flight;
mod histogram;
mod json;

pub use export::{histogram_json, parse_line, request_json, span_json, write_jsonl, Record};
pub use flight::{FlightRecorder, Outcome, RequestSummary};
pub use histogram::Histogram;
pub use json::{Json, JsonError};

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::thread::{self, ThreadId};
use std::time::Instant;

/// A span/metric attribute value.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    /// A signed integer.
    Int(i64),
    /// An unsigned integer.
    UInt(u64),
    /// A float.
    Float(f64),
    /// A string.
    Str(String),
    /// A boolean.
    Bool(bool),
}

impl AttrValue {
    /// The value as `u64`, when it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            AttrValue::UInt(v) => Some(v),
            AttrValue::Int(v) if v >= 0 => Some(v as u64),
            AttrValue::Float(v) if v >= 0.0 && v.fract() == 0.0 => Some(v as u64),
            _ => None,
        }
    }

    /// The value as `f64`, when numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            AttrValue::UInt(v) => Some(v as f64),
            AttrValue::Int(v) => Some(v as f64),
            AttrValue::Float(v) => Some(v),
            _ => None,
        }
    }

    /// The value as `&str`, when it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            AttrValue::Str(s) => Some(s),
            _ => None,
        }
    }
}

macro_rules! impl_attr_from {
    ($($t:ty => $v:ident as $cast:ty),*) => {$(
        impl From<$t> for AttrValue {
            fn from(v: $t) -> AttrValue {
                AttrValue::$v(v as $cast)
            }
        }
    )*};
}

impl_attr_from!(
    u8 => UInt as u64, u16 => UInt as u64, u32 => UInt as u64,
    u64 => UInt as u64, usize => UInt as u64,
    i8 => Int as i64, i16 => Int as i64, i32 => Int as i64, i64 => Int as i64,
    f32 => Float as f64, f64 => Float as f64
);

impl From<bool> for AttrValue {
    fn from(v: bool) -> AttrValue {
        AttrValue::Bool(v)
    }
}

impl From<&str> for AttrValue {
    fn from(v: &str) -> AttrValue {
        AttrValue::Str(v.to_string())
    }
}

impl From<String> for AttrValue {
    fn from(v: String) -> AttrValue {
        AttrValue::Str(v)
    }
}

/// A completed span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Unique id (process-wide, monotonically assigned).
    pub id: u64,
    /// Id of the span that was live on the same thread at open time.
    pub parent: Option<u64>,
    /// Span name, e.g. `pipeline.model.cst_replay`.
    pub name: String,
    /// Nanoseconds from the telemetry epoch to span open.
    pub start_ns: u64,
    /// Wall-clock nanoseconds between open and drop.
    pub duration_ns: u64,
    /// Stage-specific attributes, in insertion order.
    pub attrs: Vec<(String, AttrValue)>,
}

impl SpanRecord {
    /// Look up an attribute by key.
    pub fn attr(&self, key: &str) -> Option<&AttrValue> {
        self.attrs.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }
}

/// A point-in-time copy of everything the registry has collected.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// Completed spans in completion order.
    pub spans: Vec<SpanRecord>,
    /// Named monotonic counters.
    pub counters: BTreeMap<String, u64>,
    /// Named histograms (span durations land under the span's name).
    pub histograms: BTreeMap<String, Histogram>,
    /// Named gauges: last observed value wins (set-on-observe semantics).
    pub gauges: BTreeMap<String, u64>,
}

impl Snapshot {
    const fn empty() -> Snapshot {
        Snapshot {
            spans: Vec::new(),
            counters: BTreeMap::new(),
            histograms: BTreeMap::new(),
            gauges: BTreeMap::new(),
        }
    }

    /// All completed spans with the given name, in completion order.
    pub fn spans_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a SpanRecord> {
        self.spans.iter().filter(move |s| s.name == name)
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static STATE: Mutex<Snapshot> = Mutex::new(Snapshot::empty());
/// While a [`collect`] runs: the first spawn-order number of threads
/// spawned after it began (0 = no collect in progress) ...
static COLLECT_FLOOR: AtomicU64 = AtomicU64::new(0);
/// ... and the spawn-order number of the thread that called it. Both
/// are written before `collect` resets the registry and read only under
/// the registry lock, so the lock orders them.
static COLLECT_CALLER: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static SPAN_STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static TRACE_ID: Cell<u64> = const { Cell::new(0) };
    static THREAD_SEQ: Cell<u64> = const { Cell::new(0) };
}

/// A thread's spawn-order number. `std` hands out `ThreadId`s from one
/// increasing process-wide counter when a thread is spawned and renders
/// them as `ThreadId(<n>)`; an id that does not parse counts as the
/// newest thread.
fn spawn_seq(id: ThreadId) -> u64 {
    format!("{id:?}")
        .strip_prefix("ThreadId(")
        .and_then(|rest| rest.strip_suffix(')'))
        .and_then(|n| n.parse().ok())
        .unwrap_or(u64::MAX)
}

/// The current thread's [`spawn_seq`], cached per thread.
fn thread_seq() -> u64 {
    THREAD_SEQ.with(|seq| {
        if seq.get() == 0 {
            seq.set(spawn_seq(thread::current().id()));
        }
        seq.get()
    })
}

/// Whether a span completing on the current thread may record. Always,
/// unless a [`collect`] is in progress and this thread is neither its
/// caller nor spawned after it began — such a thread is outside the
/// collected call. Called under the registry lock.
fn records_here() -> bool {
    let floor = COLLECT_FLOOR.load(Ordering::Relaxed);
    if floor == 0 {
        return true;
    }
    let seq = thread_seq();
    seq >= floor || seq == COLLECT_CALLER.load(Ordering::Relaxed)
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn state() -> MutexGuard<'static, Snapshot> {
    // A panic while holding the lock only interrupts metric bookkeeping;
    // the data is still consistent, so poisoning is safe to ignore.
    STATE.lock().unwrap_or_else(|e| e.into_inner())
}

/// Whether the registry is collecting.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turn collection on or off. Spans opened while enabled still record on
/// drop after a disable (their guard holds everything it needs).
pub fn set_enabled(on: bool) {
    if on {
        epoch(); // pin the epoch before the first span reads it
    }
    ENABLED.store(on, Ordering::Relaxed);
}

/// Add `delta` to the named counter. No-op while disabled.
pub fn counter(name: &str, delta: u64) {
    if !enabled() {
        return;
    }
    let mut st = state();
    *st.counters.entry(name.to_string()).or_insert(0) += delta;
}

/// The current value of the named counter (0 if it never fired). Reads
/// whatever the registry holds, so it works while enabled or after a
/// disable — handy for asserting on fault counters (`serve.panics`,
/// `serve.timeouts`, `client.retries`) without taking a full snapshot.
pub fn counter_value(name: &str) -> u64 {
    state().counters.get(name).copied().unwrap_or(0)
}

/// Record one sample into the named histogram. No-op while disabled.
pub fn record(name: &str, value: u64) {
    if !enabled() {
        return;
    }
    let mut st = state();
    st.histograms
        .entry(name.to_string())
        .or_default()
        .record(value);
}

/// Set the named gauge to `value` (last observation wins — gauges carry
/// instantaneous state like queue depth, not monotonic sums). No-op while
/// disabled.
pub fn gauge(name: &str, value: u64) {
    if !enabled() {
        return;
    }
    let mut st = state();
    st.gauges.insert(name.to_string(), value);
}

/// RAII guard binding a trace id to the current thread. While it lives,
/// every span opened on this thread carries a `trace` attribute with the
/// id, letting one request be reconstructed across the worker's call
/// stack. Dropping restores the previous binding (scopes nest).
pub struct TraceScope {
    prev: u64,
    armed: bool,
}

/// Bind `trace_id` to the current thread for the lifetime of the returned
/// guard. A no-op (beyond a thread-local store) while disabled, and 0 is
/// treated as "no trace".
pub fn trace_scope(trace_id: u64) -> TraceScope {
    if !enabled() {
        return TraceScope {
            prev: 0,
            armed: false,
        };
    }
    let prev = TRACE_ID.with(|t| t.replace(trace_id));
    TraceScope { prev, armed: true }
}

impl Drop for TraceScope {
    fn drop(&mut self) {
        if self.armed {
            TRACE_ID.with(|t| t.set(self.prev));
        }
    }
}

/// The trace id bound to the current thread (0 when none).
pub fn current_trace() -> u64 {
    TRACE_ID.with(|t| t.get())
}

/// Remove and return every completed span carrying `trace` == `trace_id`,
/// in completion order. Resident servers call this after each request so
/// the span log stays bounded no matter how long the process lives; the
/// drained spans feed timing breakdowns and slow-request dumps.
pub fn take_trace_spans(trace_id: u64) -> Vec<SpanRecord> {
    let mut st = state();
    let spans = std::mem::take(&mut st.spans);
    let (taken, kept) = spans
        .into_iter()
        .partition(|s| s.attr("trace").and_then(AttrValue::as_u64) == Some(trace_id));
    st.spans = kept;
    taken
}

/// Open a span. The returned guard records the span into the registry on
/// drop; attributes added via [`SpanGuard::attr`] are included. While the
/// registry is disabled this is a no-op costing one atomic load.
pub fn span(name: &str) -> SpanGuard {
    if !enabled() {
        return SpanGuard { live: None };
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = SPAN_STACK.with(|s| {
        let mut stack = s.borrow_mut();
        let parent = stack.last().copied();
        stack.push(id);
        parent
    });
    let start = Instant::now();
    let start_ns = start.duration_since(epoch()).as_nanos() as u64;
    let mut attrs = Vec::new();
    let trace = current_trace();
    if trace != 0 {
        attrs.push(("trace".to_string(), AttrValue::UInt(trace)));
    }
    SpanGuard {
        live: Some(LiveSpan {
            id,
            parent,
            name: name.to_string(),
            start,
            start_ns,
            attrs,
        }),
    }
}

struct LiveSpan {
    id: u64,
    parent: Option<u64>,
    name: String,
    start: Instant,
    start_ns: u64,
    attrs: Vec<(String, AttrValue)>,
}

/// RAII guard for an open span. Dropping it completes the span.
#[must_use = "dropping the guard immediately records a zero-length span"]
pub struct SpanGuard {
    live: Option<LiveSpan>,
}

impl SpanGuard {
    /// Whether this guard will record anything (i.e. telemetry was
    /// enabled when the span opened).
    pub fn is_recording(&self) -> bool {
        self.live.is_some()
    }

    /// Attach an attribute. No-op on a non-recording guard.
    pub fn attr(&mut self, key: &str, value: impl Into<AttrValue>) {
        if let Some(live) = &mut self.live {
            live.attrs.push((key.to_string(), value.into()));
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(live) = self.live.take() else {
            return;
        };
        let duration_ns = live.start.elapsed().as_nanos() as u64;
        SPAN_STACK.with(|s| {
            let mut stack = s.borrow_mut();
            // Guards normally drop in LIFO order; out-of-order drops
            // (e.g. mem::drop of an outer guard) just unlink this id.
            if stack.last() == Some(&live.id) {
                stack.pop();
            } else {
                stack.retain(|&x| x != live.id);
            }
        });
        let mut st = state();
        if !records_here() {
            return;
        }
        st.histograms
            .entry(live.name.clone())
            .or_default()
            .record(duration_ns);
        st.spans.push(SpanRecord {
            id: live.id,
            parent: live.parent,
            name: live.name,
            start_ns: live.start_ns,
            duration_ns,
            attrs: live.attrs,
        });
    }
}

/// A copy of everything collected so far.
pub fn snapshot() -> Snapshot {
    state().clone()
}

/// Discard all collected spans, counters, and histograms. The enabled
/// flag and span-id sequence are untouched.
pub fn reset() {
    let mut st = state();
    st.spans.clear();
    st.counters.clear();
    st.histograms.clear();
    st.gauges.clear();
}

/// Run `f` with telemetry enabled on a clean registry and return its
/// result together with the snapshot collected during the call, restoring
/// the previous enabled state afterwards.
///
/// The snapshot's spans come from the calling thread and from threads
/// spawned while `f` runs (the workers `f` starts). While the call is in
/// progress, spans completing on threads that already existed when it
/// began — a sibling test classifying outside any `collect`, a
/// long-lived pool — are not recorded at all, so they can never leak
/// into the snapshot. Counters,
/// histograms, and gauges still merge from every thread.
///
/// Concurrent `collect` calls serialize on an internal lock so their
/// snapshots never mix; prefer it in tests and experiment drivers over
/// manual `set_enabled`/`reset` pairs.
pub fn collect<T>(f: impl FnOnce() -> T) -> (T, Snapshot) {
    static COLLECT_LOCK: Mutex<()> = Mutex::new(());

    /// Restores the registry when the collected call ends, even by
    /// unwinding.
    struct Restore {
        was: bool,
    }
    impl Drop for Restore {
        fn drop(&mut self) {
            set_enabled(self.was);
            COLLECT_FLOOR.store(0, Ordering::Relaxed);
            reset();
        }
    }

    let _serialize = COLLECT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // Every thread spawned from here on gets a larger spawn-order number
    // than this probe's. Without the probe, span filtering stays off.
    let floor = thread::Builder::new().spawn(|| {}).map_or(0, |probe| {
        let seq = spawn_seq(probe.thread().id());
        let _ = probe.join();
        seq
    });
    let _restore = Restore { was: enabled() };
    COLLECT_CALLER.store(thread_seq(), Ordering::Relaxed);
    COLLECT_FLOOR.store(floor, Ordering::Relaxed);
    reset();
    set_enabled(true);
    let out = f();
    (out, snapshot())
}
