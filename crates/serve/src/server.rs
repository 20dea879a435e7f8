//! The resident detection server.
//!
//! One process owns the expensive state — a warm [`ModelBuilder`] whose
//! content-addressed cache persists across requests, and a [`Detector`]
//! whose similarity engine keeps the repository's models interned — and
//! serves classification over TCP. The offline CLI pays the full
//! pipeline (repository load, model build, engine preparation) on every
//! invocation; the server pays it once.
//!
//! Architecture:
//!
//! ```text
//! reactor (one thread: nonblocking accept + reads + writes, timed sweeps)
//!    │  control frames (ping/stats/metrics/flight/shutdown): inline
//!    │  watch frames: routed to the stream's dedicated thread
//!    │  reload-repo: transient thread (connection paused meanwhile)
//!    │  work frames (classify/classify-batch/model): queue
//!    ▼
//! BoundedQueue ──> worker pool ──> reply ──> conn outbox ──> reactor
//!                     │ scan inline
//!                     ▼
//!      shared Detector: frozen repository + scratch-engine free list
//! ```
//!
//! - **Event-driven connections**: there is no thread per connection.
//!   One reactor thread owns the nonblocking listener and every
//!   accepted socket, sweeping them on a short timer (plus a condvar
//!   wake whenever a producer enqueues output): each sweep accepts
//!   pending peers, drains each connection's [`Outbox`] into its
//!   socket, feeds whatever bytes are readable into a per-connection
//!   [`FrameAssembler`], and dispatches the complete frames. An idle
//!   connection is just a registry entry — a socket, an empty
//!   assembler, an empty outbox — so thousands of parked watchers cost
//!   file descriptors, not threads or stacks.
//! - **Write-path ownership**: the reactor is the only thing that ever
//!   writes a socket. Workers, stream threads, and the reload thread
//!   push whole rendered frames into the connection's outbox (one lock,
//!   one append), which is what keeps out-of-order completions from
//!   interleaving bytes mid-frame — the invariant the old per-
//!   connection writer thread provided, now without the thread.
//! - **Ordering without blocking**: untagged requests keep one-in-one-
//!   out ordering by *pausing* the connection — the reactor stops
//!   reading and parsing it until the worker has pushed the reply —
//!   so backpressure is TCP's, not an unbounded buffer's. Requests
//!   tagged with an envelope `id` are pipelined exactly as before:
//!   admitted without pausing, answered out of order.
//! - **Timeout split**: the per-connection io-timeout now distinguishes
//!   a *stalled* peer from a *parked* one. A connection mid-frame (or
//!   one that has never completed a frame, or one whose outbox cannot
//!   make write progress) is killed after [`ServeConfig::io_timeout_ms`]
//!   and counted in `timeouts`; a connection that has spoken and gone
//!   quiet — the resident-watcher steady state — parks indefinitely at
//!   zero cost.
//! - **Connection cap**: beyond [`ServeConfig::max_connections`] a new
//!   peer gets one structured `overloaded` frame and a clean close
//!   (`conns_rejected`) — the admission queue's shedding discipline,
//!   one layer down. Accept errors (fd exhaustion) back off
//!   exponentially instead of hot-looping, counted in `accept_errors`.
//! - **Admission control**: the queue is bounded; when it is full the
//!   reactor sheds the request with an explicit `overloaded` error
//!   instead of queueing unboundedly or stalling the connection.
//! - **Inline scans**: a worker scans on its own thread, against the
//!   generation's shared [`Detector`]. The repository and its prepared
//!   models are immutable; each scan checks a scratch similarity engine
//!   out of the detector's free list (a lock held for the pop and the
//!   push only), so concurrent workers and watch streams scan in
//!   parallel and keep their warm `D_IS` caches from request to request.
//! - **Deadline propagation**: a request deadline (per-request
//!   `deadline_ms` or the server default) is fixed at admission and
//!   propagated into the engine's bounded-DTW hook, so an expired
//!   request aborts mid-scan. The deadline only ever aborts — a
//!   detection that comes back is bitwise identical to the offline one.
//! - **Hot reload**: `reload-repo` builds the new [`Detector`] off to
//!   the side and swaps it in atomically (an `Arc` swap under a brief
//!   mutex). Workers snapshot the `Arc` at admission, so every response
//!   is computed against exactly one repository generation and in-flight
//!   work is never drained or mixed.
//! - **Observability**: every frame gets a server-unique trace id
//!   (returned in the response envelope); workers bind it to the thread
//!   with [`sca_telemetry::trace_scope`] so detector/engine spans carry
//!   it, then drain those spans per request — the registry stays bounded
//!   no matter how long the server lives. Stage timings are measured
//!   directly with `Instant` (so the `timings` breakdown works and sums
//!   to the total with the registry off), every request lands in a
//!   fixed-size [`FlightRecorder`] ring, and requests slower than
//!   [`ServeConfig::slow_ms`] dump their summary plus full span tree as
//!   JSONL to [`ServeConfig::slow_log`]. When telemetry is disabled the
//!   extra per-request cost is a handful of `Instant::now` calls and one
//!   uncontended mutex push — the registry entry points stay one relaxed
//!   atomic load.

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use sca_cpu::Victim;
use sca_telemetry::{
    request_json, span_json, AttrValue, FlightRecorder, Histogram, Json, Outcome, RequestSummary,
    SpanRecord,
};
use scaguard::persist::LoadRepoError;
use scaguard::{
    detection_json, index_sidecar_path, load_index, load_repository, model_text, Alarm, CstBbs,
    DeadlineExceeded, Detection, Detector, InvalidThreshold, ModelBuilder, ModelRepository,
    ModelingConfig, StreamConfig, StreamSession, StreamUpdate, StreamingModeler,
};

use crate::protocol::{
    self, error_frame, ok_frame, parse_victim, request_id, request_wants_timings, with_request_id,
    with_trace_id, ErrorKind, FrameAssembler, FrameTooLong, Request, KIND_BAD_REQUEST,
    KIND_DEADLINE_EXCEEDED, KIND_INTERNAL_ERROR, KIND_MODEL_ERROR, KIND_OVERLOADED,
    KIND_RELOAD_FAILED, KIND_SHUTTING_DOWN, PROTOCOL_VERSION,
};
use crate::queue::{BoundedQueue, Outbox};

/// Server configuration; see the field docs for defaults.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Address to bind (`127.0.0.1:0` by default: loopback, ephemeral
    /// port — read the bound address from [`ServerHandle::addr`]).
    pub addr: String,
    /// Worker-pool size (default 4).
    pub workers: usize,
    /// Admission-queue capacity (default 64); requests beyond it are
    /// shed with an `overloaded` response.
    pub queue_depth: usize,
    /// Default per-request deadline; `None` (the default) means no
    /// deadline unless the request carries its own `deadline_ms`.
    pub deadline_ms: Option<u64>,
    /// Detection threshold (default [`Detector::DEFAULT_THRESHOLD`]).
    pub threshold: f64,
    /// The repository file to load (and to re-read on `reload-repo`
    /// without an explicit path).
    pub repo_path: PathBuf,
    /// Per-connection stall timeout (default 30s). A peer that stalls
    /// mid-frame, never completes a first frame, or stops draining its
    /// responses is disconnected and counted in `timeouts`. A
    /// connection that has completed at least one frame and gone fully
    /// quiet is *parked* instead — under the reactor an idle connection
    /// costs a registry entry, not a thread, so it may sit past this
    /// timeout indefinitely. `None` disables the stall timeout too.
    pub io_timeout_ms: Option<u64>,
    /// Hard cap on concurrently open connections (default `None`:
    /// unbounded). At the cap a new peer is answered with one
    /// structured `overloaded` frame and cleanly closed (counted in
    /// `conns_rejected`) — the admission queue's shedding discipline
    /// applied one layer down, before the peer can occupy a registry
    /// slot.
    pub max_connections: Option<usize>,
    /// Hard cap on one request frame's length in bytes (default
    /// [`protocol::MAX_FRAME_LEN`]). An oversized frame is answered
    /// with a `bad_request` naming the limit and the connection is
    /// closed — the stream cannot be resynchronized mid-frame.
    pub max_frame_len: usize,
    /// Enable the telemetry registry at startup (default false), so the
    /// `metrics` command has counters/gauges/histograms to report and
    /// spans carry trace ids. Off, every registry entry point stays one
    /// relaxed atomic load.
    pub metrics: bool,
    /// Flight-recorder capacity in requests (default 256). The recorder
    /// itself is always on — it is server-owned and bounded, not gated
    /// by the telemetry flag.
    pub flight_capacity: usize,
    /// Slow-request threshold in milliseconds. A work request slower
    /// than this dumps its summary (plus its span tree, when telemetry
    /// is on) to [`ServeConfig::slow_log`]. `None` (the default)
    /// disables the dump; `Some(0)` dumps every request.
    pub slow_ms: Option<u64>,
    /// JSONL file receiving slow-request dumps (appended, created on
    /// demand). `None` (the default) logs nowhere even if `slow_ms` is
    /// set.
    pub slow_log: Option<PathBuf>,
}

impl ServeConfig {
    /// A default configuration serving `repo_path`.
    pub fn new(repo_path: impl Into<PathBuf>) -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 4,
            queue_depth: 64,
            deadline_ms: None,
            threshold: Detector::DEFAULT_THRESHOLD,
            repo_path: repo_path.into(),
            io_timeout_ms: Some(30_000),
            max_connections: None,
            max_frame_len: protocol::MAX_FRAME_LEN,
            metrics: false,
            flight_capacity: 256,
            slow_ms: None,
            slow_log: None,
        }
    }
}

/// Failure to start the server.
#[derive(Debug)]
pub enum ServeError {
    /// Socket setup failed.
    Io(io::Error),
    /// The repository file could not be loaded.
    Repo(LoadRepoError),
    /// The configured detection threshold is outside `[0, 1]`.
    Threshold(InvalidThreshold),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "cannot start server: {e}"),
            ServeError::Repo(e) => write!(f, "cannot load repository: {e}"),
            ServeError::Threshold(e) => write!(f, "cannot start server: {e}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Io(e) => Some(e),
            ServeError::Repo(e) => Some(e),
            ServeError::Threshold(e) => Some(e),
        }
    }
}

impl From<io::Error> for ServeError {
    fn from(e: io::Error) -> ServeError {
        ServeError::Io(e)
    }
}

impl From<LoadRepoError> for ServeError {
    fn from(e: LoadRepoError) -> ServeError {
        ServeError::Repo(e)
    }
}

impl From<InvalidThreshold> for ServeError {
    fn from(e: InvalidThreshold) -> ServeError {
        ServeError::Threshold(e)
    }
}

/// One loaded repository: the detector plus its provenance. Immutable
/// once published; `reload-repo` publishes a *new* `RepoState` and
/// in-flight work keeps its admission-time snapshot.
struct RepoState {
    generation: u64,
    path: PathBuf,
    detector: Detector,
}

impl RepoState {
    fn json(&self) -> Json {
        Json::Obj(vec![
            ("generation".into(), Json::Num(self.generation as f64)),
            (
                "entries".into(),
                Json::Num(self.detector.repository().len() as f64),
            ),
            ("path".into(), Json::Str(self.path.display().to_string())),
        ])
    }
}

/// Monotonic server counters (lock-free; read by `stats`).
#[derive(Debug, Default)]
struct Counters {
    received: AtomicU64,
    completed: AtomicU64,
    shed: AtomicU64,
    deadline_exceeded: AtomicU64,
    errors: AtomicU64,
    reloads: AtomicU64,
    panics: AtomicU64,
    timeouts: AtomicU64,
    accept_errors: AtomicU64,
    conns_rejected: AtomicU64,
    spawn_errors: AtomicU64,
}

/// A point-in-time copy of the server counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Work requests admitted or shed (classify + model).
    pub received: u64,
    /// Work requests answered with a detection or model.
    pub completed: u64,
    /// Work requests shed because the admission queue was full.
    pub shed: u64,
    /// Work requests that ran out of deadline (before or during the scan).
    pub deadline_exceeded: u64,
    /// Work requests answered with `bad_request` / `model_error`.
    pub errors: u64,
    /// Successful `reload-repo` commands.
    pub reloads: u64,
    /// Worker panics caught and answered with `internal_error` (the
    /// pool stays at full strength; this counter is how you notice).
    pub panics: u64,
    /// Connections dropped by the stall timeout: a peer stuck mid-frame,
    /// never completing a first frame, or not draining its responses.
    /// Parked-idle connections are deliberately not counted (or killed).
    pub timeouts: u64,
    /// `accept` failures (fd exhaustion and kin); each also arms the
    /// accept backoff so the reactor never hot-loops on a failing
    /// listener.
    pub accept_errors: u64,
    /// Connections refused at the [`ServeConfig::max_connections`] cap
    /// with a structured `overloaded` frame and a clean close.
    pub conns_rejected: u64,
    /// Thread-spawn failures surfaced as structured `internal_error`
    /// responses (stream threads, the reload thread) instead of being
    /// silently swallowed.
    pub spawn_errors: u64,
    /// Gauge: work requests admitted but not yet answered (queued or on
    /// a worker).
    pub in_flight: u64,
    /// Gauge: workers currently executing a job.
    pub busy_workers: u64,
    /// Gauge: connections currently registered with the reactor.
    pub conns_active: u64,
}

/// The reactor's doorbell. The reactor sleeps between sweeps on this
/// condvar; any producer with fresh output (a worker reply, a stream
/// event, the reload thread, shutdown) rings it so flushing never waits
/// for the next timed sweep. Socket *input* is not signalled — inbound
/// bytes are picked up by the timed sweep itself, which bounds the cost
/// of thousands of idle connections to one nonblocking read each per
/// sweep.
#[derive(Default)]
struct ReactorWake {
    rung: Mutex<bool>,
    bell: Condvar,
}

impl ReactorWake {
    fn notify(&self) {
        let mut rung = self.rung.lock().unwrap_or_else(|e| e.into_inner());
        *rung = true;
        self.bell.notify_one();
    }

    /// Sleep until rung, at most `timeout`; consumes the ring.
    fn wait(&self, timeout: Duration) {
        let mut rung = self.rung.lock().unwrap_or_else(|e| e.into_inner());
        if !*rung {
            let (guard, _) = self
                .bell
                .wait_timeout(rung, timeout)
                .unwrap_or_else(|e| e.into_inner());
            rung = guard;
        }
        *rung = false;
    }
}

/// The slice of one connection's state shared outside the reactor.
/// Workers, stream threads, and the transient reload thread hold an
/// `Arc` to it and push rendered reply frames into the outbox; the
/// reactor — sole owner of the socket — drains it. The reactor also
/// uses the `Arc`'s strong count as the liveness signal for a
/// half-closed connection: once it holds the only reference and the
/// outbox is dry, no late reply can ever arrive and the socket can
/// close.
struct ConnShared {
    outbox: Outbox,
    /// True while an ordered (untagged) request or reload is in flight:
    /// the reactor neither reads the socket nor parses buffered frames
    /// until the producer pushes the reply and lifts the pause — the
    /// blocking path's one-in-one-out ordering, with TCP backpressure
    /// instead of a blocked reader thread.
    paused: AtomicBool,
    wake: Arc<ReactorWake>,
}

impl ConnShared {
    fn new(wake: Arc<ReactorWake>) -> ConnShared {
        ConnShared {
            outbox: Outbox::new(),
            paused: AtomicBool::new(false),
            wake,
        }
    }

    /// Render `frame` and enqueue it for the reactor to write. A closed
    /// outbox (dead connection) makes this a no-op — a worker finishing
    /// after its peer hung up answers nowhere, exactly like the old
    /// dropped writer channel.
    fn push(&self, frame: Json) {
        let mut line = frame.to_string();
        line.push('\n');
        if self.outbox.push(line.as_bytes()) {
            self.wake.notify();
        }
    }

    /// Push a reply and lift the connection's pause, in that order —
    /// the reply must be in the outbox before the reactor may parse
    /// (and answer) the connection's next frame.
    fn push_and_unpause(&self, frame: Json) {
        self.push(frame);
        self.paused.store(false, Ordering::Release);
        self.wake.notify();
    }
}

/// Where a worker's answer goes: into the connection's outbox, drained
/// by the reactor. `Ordered` answers an untagged request — the reactor
/// paused the connection at admission and the worker lifts the pause
/// only after the decorated reply is enqueued. `Pipelined` answers a
/// tagged request: the worker decorates the frame (trace id + echoed
/// `id`) and the response may overtake other in-flight work.
enum Reply {
    Ordered { conn: Arc<ConnShared> },
    Pipelined { conn: Arc<ConnShared>, id: Json },
}

/// One admitted unit of work. The `repo` snapshot is taken at admission:
/// whatever generation was live when the request was accepted is the
/// generation that answers it, regardless of concurrent reloads.
struct Job {
    request: Request,
    repo: Arc<RepoState>,
    deadline: Option<Instant>,
    enqueued: Instant,
    reply: Reply,
    /// Server-unique id assigned to the frame at read time.
    trace_id: u64,
    /// Whether the response should carry the stage-timing breakdown.
    wants_timings: bool,
}

impl Job {
    /// The request kind, as recorded in the flight ring.
    fn kind(&self) -> &'static str {
        request_kind(&self.request)
    }
}

fn request_kind(request: &Request) -> &'static str {
    match request {
        Request::Classify { .. } => "classify",
        Request::ClassifyBatch { .. } => "classify-batch",
        Request::Model { .. } => "model",
        Request::ReloadRepo { .. } => "reload-repo",
        Request::Watch { .. } => "watch",
        Request::WatchPush { .. } => "watch-push",
        Request::WatchFinish { .. } => "watch-finish",
        Request::Stats => "stats",
        Request::Metrics => "metrics",
        Request::Flight => "flight",
        Request::Ping => "ping",
        Request::Shutdown => "shutdown",
    }
}

/// State shared by the acceptor, handlers, and workers.
struct Shared {
    config: ServeConfig,
    builder: ModelBuilder,
    repo: Mutex<Arc<RepoState>>,
    queue: BoundedQueue<Job>,
    counters: Counters,
    shutdown: AtomicBool,
    addr: SocketAddr,
    /// Next trace id; every frame read off a connection consumes one.
    next_trace: AtomicU64,
    /// Work requests admitted but not yet answered.
    in_flight: AtomicU64,
    /// Workers currently executing a job.
    busy_workers: AtomicU64,
    /// Open watch streams across all connections (each runs on its own
    /// dedicated thread, outside the worker pool).
    streams_active: AtomicU64,
    /// Connections currently registered with the reactor.
    conns_active: AtomicU64,
    /// Set by [`ServerHandle::join`] once the workers are gone: the
    /// reactor makes one final bounded flush pass and exits.
    reactor_stop: AtomicBool,
    /// The reactor's doorbell (see [`ReactorWake`]).
    wake: Arc<ReactorWake>,
    /// Always-on ring of per-request summaries.
    flight: FlightRecorder,
    /// Open slow-request log, when configured.
    slow_log: Option<Mutex<File>>,
}

impl Shared {
    fn repo_snapshot(&self) -> Arc<RepoState> {
        Arc::clone(&self.repo.lock().unwrap_or_else(|e| e.into_inner()))
    }

    fn stats(&self) -> StatsSnapshot {
        StatsSnapshot {
            received: self.counters.received.load(Ordering::Relaxed),
            completed: self.counters.completed.load(Ordering::Relaxed),
            shed: self.counters.shed.load(Ordering::Relaxed),
            deadline_exceeded: self.counters.deadline_exceeded.load(Ordering::Relaxed),
            errors: self.counters.errors.load(Ordering::Relaxed),
            reloads: self.counters.reloads.load(Ordering::Relaxed),
            panics: self.counters.panics.load(Ordering::Relaxed),
            timeouts: self.counters.timeouts.load(Ordering::Relaxed),
            accept_errors: self.counters.accept_errors.load(Ordering::Relaxed),
            conns_rejected: self.counters.conns_rejected.load(Ordering::Relaxed),
            spawn_errors: self.counters.spawn_errors.load(Ordering::Relaxed),
            in_flight: self.in_flight.load(Ordering::Relaxed),
            busy_workers: self.busy_workers.load(Ordering::Relaxed),
            conns_active: self.conns_active.load(Ordering::Relaxed),
        }
    }

    /// Append a slow request's summary and span tree to the slow log.
    /// Best-effort: a full disk must never take the serving path down.
    fn write_slow_dump(&self, summary: &RequestSummary, spans: &[SpanRecord]) {
        let Some(file) = &self.slow_log else { return };
        let mut out = request_json(summary).to_string();
        out.push('\n');
        for s in spans {
            out.push_str(&span_json(s).to_string());
            out.push('\n');
        }
        let mut f = file.lock().unwrap_or_else(|e| e.into_inner());
        let _ = f.write_all(out.as_bytes());
        let _ = f.flush();
    }

    /// Begin shutdown: refuse new work and let queued work drain. The
    /// reactor never blocks in `accept`, so it only needs its doorbell
    /// rung to observe the flag and drop the listener.
    fn begin_shutdown(&self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        self.queue.close();
        self.wake.notify();
    }
}

/// A running server: its bound address plus the thread handles.
pub struct ServerHandle {
    shared: Arc<Shared>,
    reactor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address the server actually bound (resolves `:0` ports).
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// A snapshot of the server counters.
    pub fn stats(&self) -> StatsSnapshot {
        self.shared.stats()
    }

    /// A copy of the flight recorder's resident entries, oldest first.
    pub fn flight(&self) -> Vec<RequestSummary> {
        self.shared.flight.snapshot()
    }

    /// Ask the server to stop: no new work is admitted, queued work
    /// drains, then the pool exits. Follow with [`ServerHandle::join`].
    pub fn shutdown(&self) {
        self.shared.begin_shutdown();
    }

    /// Wait for every worker and the reactor to exit.
    pub fn join(mut self) {
        // The reactor keeps sweeping while the workers drain so their
        // final replies still reach clients; it is stopped last.
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        // Every reply is now in its outbox: one final bounded flush
        // pass, then the reactor exits.
        self.shared.reactor_stop.store(true, Ordering::SeqCst);
        self.shared.wake.notify();
        if let Some(r) = self.reactor.take() {
            let _ = r.join();
        }
    }
}

/// Build the detector for a freshly loaded repository and attach its
/// sidecar index (`<repo>.idx`), rebuilding in memory when the sidecar
/// is missing, corrupt, or stale. The index only prunes — detections
/// are byte-identical with or without it — so a bad sidecar warns on
/// stderr and is never fatal. Runs at startup and on every
/// `reload-repo`, so a hot-reloaded generation keeps its index.
fn build_detector(
    repo: ModelRepository,
    repo_path: &Path,
    threshold: f64,
) -> Result<Detector, InvalidThreshold> {
    let mut detector = Detector::new(repo, threshold)?;
    let sidecar = index_sidecar_path(repo_path);
    match load_index(&sidecar) {
        Ok(index) => {
            if detector.set_index(index).is_ok() {
                return Ok(detector);
            }
            eprintln!(
                "sca-serve: index {} is stale for {}; rebuilding in memory",
                sidecar.display(),
                repo_path.display()
            );
        }
        Err(e) => eprintln!("sca-serve: index {e}; rebuilding in memory"),
    }
    let index = detector.build_index();
    detector
        .set_index(index)
        .expect("a freshly built index matches its repository");
    Ok(detector)
}

/// Start a server for `config`: load the repository, bind the listener,
/// spawn the worker pool and the reactor. Returns as soon as the server
/// is ready to accept connections.
///
/// # Errors
///
/// [`ServeError::Repo`] when the repository file cannot be loaded
/// (the error names the file, line, and reason); [`ServeError::Io`]
/// when the listen address cannot be bound.
pub fn spawn(config: ServeConfig) -> Result<ServerHandle, ServeError> {
    if config.metrics {
        sca_telemetry::set_enabled(true);
    }
    let slow_log = match &config.slow_log {
        Some(path) => Some(Mutex::new(
            OpenOptions::new().create(true).append(true).open(path)?,
        )),
        None => None,
    };
    let repo = load_repository(&config.repo_path)?;
    let detector = build_detector(repo, Path::new(&config.repo_path), config.threshold)?;
    let listener = TcpListener::bind(&config.addr)?;
    // The reactor owns every socket and must never block in a syscall:
    // accepts, reads, and writes all go nonblocking and are revisited
    // on the next sweep.
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let workers = config.workers.max(1);
    let shared = Arc::new(Shared {
        builder: ModelBuilder::new(&ModelingConfig::default()),
        repo: Mutex::new(Arc::new(RepoState {
            generation: 1,
            path: config.repo_path.clone(),
            detector,
        })),
        queue: BoundedQueue::new(config.queue_depth),
        counters: Counters::default(),
        shutdown: AtomicBool::new(false),
        addr,
        next_trace: AtomicU64::new(1),
        in_flight: AtomicU64::new(0),
        busy_workers: AtomicU64::new(0),
        streams_active: AtomicU64::new(0),
        conns_active: AtomicU64::new(0),
        reactor_stop: AtomicBool::new(false),
        wake: Arc::new(ReactorWake::default()),
        flight: FlightRecorder::new(config.flight_capacity),
        slow_log,
        config,
    });

    // A startup spawn failure is a hard error, never a silently smaller
    // pool: close the queue so the workers already spawned exit, join
    // them, and hand the caller the `io::Error`.
    let fail_spawn = |shared: &Arc<Shared>, workers: Vec<JoinHandle<()>>, e: io::Error| {
        shared.queue.close();
        for h in workers {
            let _ = h.join();
        }
        ServeError::Io(e)
    };

    let mut pool: Vec<JoinHandle<()>> = Vec::with_capacity(workers);
    for i in 0..workers {
        let s = Arc::clone(&shared);
        match thread::Builder::new()
            .name(format!("sca-serve-worker-{i}"))
            .spawn(move || worker_loop(&s))
        {
            Ok(h) => pool.push(h),
            Err(e) => return Err(fail_spawn(&shared, pool, e)),
        }
    }

    let reactor = {
        let shared = Arc::clone(&shared);
        thread::Builder::new()
            .name("sca-serve-reactor".into())
            .spawn(move || reactor_loop(listener, &shared))
    };
    let reactor = match reactor {
        Ok(h) => h,
        Err(e) => return Err(fail_spawn(&shared, pool, e)),
    };

    Ok(ServerHandle {
        shared,
        reactor: Some(reactor),
        workers: pool,
    })
}

/// How much one nonblocking read pulls off a socket at a time.
const READ_CHUNK: usize = 16 * 1024;
/// Per-connection per-sweep read budget: a firehose pipeliner is
/// revisited next sweep instead of starving every other connection.
const READ_BURST_MAX: usize = 256 * 1024;
/// The timed-sweep period when nothing is happening. Producers with
/// fresh output ring the doorbell instead of waiting it out; inbound
/// socket bytes and new peers wait at most this long.
const SWEEP_IDLE: Duration = Duration::from_millis(5);
/// First accept-error backoff; doubles per consecutive error.
const ACCEPT_BACKOFF_MIN: Duration = Duration::from_millis(10);
/// Accept-error backoff ceiling.
const ACCEPT_BACKOFF_MAX: Duration = Duration::from_secs(1);
/// How long the exiting reactor keeps flushing already-queued replies
/// to slow peers before dropping the remaining connections.
const FINAL_FLUSH_GRACE: Duration = Duration::from_millis(250);

/// Nonblocking-io "try again later" (plus the timeout spelling some
/// platforms use for it).
fn would_block(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// The accept backoff schedule: 10ms on the first error, doubling per
/// consecutive error, capped at 1s. A successful accept resets it (the
/// caller passes `None` again). This is what turns the old
/// `let Ok(stream) = stream else { continue }` 100%-CPU spin under fd
/// exhaustion into a bounded retry.
fn next_accept_backoff(previous: Option<Duration>) -> Duration {
    match previous {
        None => ACCEPT_BACKOFF_MIN,
        Some(d) => d.saturating_mul(2).min(ACCEPT_BACKOFF_MAX),
    }
}

/// One registered connection — the reactor-private half. An idle parked
/// connection is exactly this struct: a socket, an empty assembler, an
/// empty outbox, and a couple of timestamps. No thread, no stack.
struct Conn {
    stream: TcpStream,
    shared: Arc<ConnShared>,
    assembler: FrameAssembler,
    /// Open watch streams on this connection, keyed by stream id (the
    /// `watch` frame's trace id). A stream id is only routable on the
    /// connection that opened it; dropping the map drops the last
    /// command sender of every stream — each stream thread winds down
    /// on its own.
    watches: HashMap<u64, mpsc::Sender<WatchCmd>>,
    /// When the last byte arrived (connect time until then).
    last_read: Instant,
    /// Set while outbound bytes are pending and writes make no
    /// progress; cleared by any successful write (or an empty outbox).
    write_stalled_since: Option<Instant>,
    /// At least one complete frame has arrived. Until then the peer is
    /// mid-handshake and subject to the stall timeout; afterwards a
    /// fully quiet connection parks indefinitely.
    spoke: bool,
    /// Peer half-closed its write side. Buffered frames still parse and
    /// in-flight replies still flush; the socket closes once both are
    /// drained and no producer holds a reference.
    eof: bool,
    /// A fatal frame error (oversized) was answered; close as soon as
    /// the error frame is flushed — the stream cannot be resynchronized.
    draining: bool,
    /// A shutdown ack is in the outbox; `begin_shutdown` runs strictly
    /// after it (and everything before it) hits the socket, so the ack
    /// can never race process exit.
    shutdown_after_flush: bool,
}

impl Conn {
    fn new(stream: TcpStream, shared: Arc<ConnShared>, max_frame_len: usize) -> Conn {
        Conn {
            stream,
            shared,
            assembler: FrameAssembler::new(max_frame_len),
            watches: HashMap::new(),
            last_read: Instant::now(),
            write_stalled_since: None,
            spoke: false,
            eof: false,
            draining: false,
            shutdown_after_flush: false,
        }
    }
}

/// What one sweep concluded about one connection.
enum SweepOutcome {
    /// Something moved: bytes in, bytes out, a frame dispatched.
    Progress,
    /// Nothing to do.
    Idle,
    /// Deregister the connection.
    Close(CloseReason),
}

enum CloseReason {
    /// EOF fully drained, or a fatal frame error flushed.
    Clean,
    /// The stall timeout fired (mid-frame, handshake, or write stall).
    Timeout,
    /// The transport failed (reset, broken pipe).
    Transport,
}

/// The reactor: one thread owning the listener and every connection.
/// Each sweep accepts pending peers (with backoff on accept errors),
/// then serves every connection — flush outbox, nonblocking read into
/// the frame assembler, dispatch complete frames, stall-timeout checks
/// — and sleeps on the doorbell only when a full sweep made no
/// progress.
fn reactor_loop(listener: TcpListener, shared: &Arc<Shared>) {
    let io_timeout = shared
        .config
        .io_timeout_ms
        .map(|ms| Duration::from_millis(ms.max(1)));
    let mut listener = Some(listener);
    let mut conns: Vec<Conn> = Vec::new();
    let mut backoff: Option<Duration> = None;
    let mut retry_at: Option<Instant> = None;
    let mut buf = vec![0u8; READ_CHUNK];
    loop {
        let mut progress = false;
        // Shutdown begun (wire command or `ServerHandle::shutdown`):
        // drop the listener so no new peer is accepted, keep sweeping
        // so queued work's replies still drain.
        if shared.shutdown.load(Ordering::SeqCst) && listener.is_some() {
            listener = None;
            progress = true;
        }
        if let Some(l) = &listener {
            if retry_at.is_none_or(|t| Instant::now() >= t) {
                match accept_burst(l, shared, &mut conns) {
                    AcceptOutcome::Accepted => {
                        progress = true;
                        backoff = None;
                        retry_at = None;
                    }
                    AcceptOutcome::Quiet => {
                        backoff = None;
                        retry_at = None;
                    }
                    AcceptOutcome::Errored => {
                        let delay = next_accept_backoff(backoff);
                        backoff = Some(delay);
                        retry_at = Some(Instant::now() + delay);
                    }
                }
            }
        }
        let mut i = 0;
        while i < conns.len() {
            match sweep_conn(shared, &mut conns[i], io_timeout, &mut buf) {
                SweepOutcome::Progress => {
                    progress = true;
                    i += 1;
                }
                SweepOutcome::Idle => i += 1,
                SweepOutcome::Close(reason) => {
                    let conn = conns.swap_remove(i);
                    close_conn(shared, conn, &reason);
                    progress = true;
                }
            }
        }
        if shared.reactor_stop.load(Ordering::SeqCst) {
            final_flush(shared, conns);
            return;
        }
        if !progress {
            shared.wake.wait(SWEEP_IDLE);
        }
    }
}

enum AcceptOutcome {
    Accepted,
    Quiet,
    Errored,
}

/// Accept every peer currently pending on the nonblocking listener.
/// Stops at the first real error (the caller backs off) and never
/// blocks.
fn accept_burst(
    listener: &TcpListener,
    shared: &Arc<Shared>,
    conns: &mut Vec<Conn>,
) -> AcceptOutcome {
    let mut accepted = false;
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                accepted = true;
                // Without NODELAY, Nagle + delayed ACK adds ~40ms to
                // every small response frame.
                let _ = stream.set_nodelay(true);
                if stream.set_nonblocking(true).is_err() {
                    // A socket the reactor cannot make nonblocking
                    // would wedge every sweep; drop it.
                    continue;
                }
                if shared
                    .config
                    .max_connections
                    .is_some_and(|cap| conns.len() >= cap)
                {
                    reject_at_capacity(shared, stream, conns.len());
                    continue;
                }
                shared.conns_active.fetch_add(1, Ordering::Relaxed);
                let conn_shared = Arc::new(ConnShared::new(Arc::clone(&shared.wake)));
                conns.push(Conn::new(stream, conn_shared, shared.config.max_frame_len));
            }
            Err(e) if would_block(&e) => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => {
                shared
                    .counters
                    .accept_errors
                    .fetch_add(1, Ordering::Relaxed);
                sca_telemetry::counter("serve.accept_errors", 1);
                return AcceptOutcome::Errored;
            }
        }
    }
    if accepted {
        AcceptOutcome::Accepted
    } else {
        AcceptOutcome::Quiet
    }
}

/// Refuse a peer at the connection cap: one structured `overloaded`
/// frame (best effort — a fresh socket's send buffer holds it without
/// blocking), then a clean close.
fn reject_at_capacity(shared: &Arc<Shared>, mut stream: TcpStream, active: usize) {
    shared
        .counters
        .conns_rejected
        .fetch_add(1, Ordering::Relaxed);
    sca_telemetry::counter("serve.conns_rejected", 1);
    let trace = shared.next_trace.fetch_add(1, Ordering::Relaxed);
    let frame = with_trace_id(
        error_frame(
            KIND_OVERLOADED,
            &format!("connection limit reached ({active} active); retry later"),
        ),
        trace,
    );
    let mut line = frame.to_string();
    line.push('\n');
    let _ = stream.write(line.as_bytes());
}

/// Serve one connection for one sweep. Malformed frames get a
/// structured `bad_request` and the connection stays open — a client
/// typo (or one garbled frame mid-pipeline) never costs the session or
/// its other in-flight requests. The connection is *closed* (never left
/// hanging) in exactly three hostile cases: a stall timeout (mid-frame,
/// never-spoke, or never-draining peer — counted in `timeouts`), an
/// oversized frame (answered with a `bad_request` naming the limit
/// first), and a transport error.
fn sweep_conn(
    shared: &Arc<Shared>,
    conn: &mut Conn,
    io_timeout: Option<Duration>,
    buf: &mut [u8],
) -> SweepOutcome {
    let mut progress = false;
    // 1. Drain the outbox. The reactor owns the write half; producers
    // only ever append.
    match conn.shared.outbox.flush_into(&mut conn.stream) {
        Ok(0) => {}
        Ok(_) => progress = true,
        Err(e) if would_block(&e) => {}
        Err(_) => return SweepOutcome::Close(CloseReason::Transport),
    }
    // The write-stall clock runs only while bytes are pending and no
    // write makes progress; any flushed byte (or an emptied outbox)
    // resets it.
    if conn.shared.outbox.is_empty() || progress {
        conn.write_stalled_since = None;
    } else if conn.write_stalled_since.is_none() {
        conn.write_stalled_since = Some(Instant::now());
    }
    // 2. A flushed shutdown ack is the signal to actually begin.
    if conn.shutdown_after_flush && conn.shared.outbox.is_empty() {
        conn.shutdown_after_flush = false;
        shared.begin_shutdown();
        progress = true;
    }
    // 3. A connection that answered a fatal frame error closes as soon
    // as the error frame is out (the write-stall timeout below still
    // bounds a peer that never drains it).
    if conn.draining {
        if conn.shared.outbox.is_empty() {
            return SweepOutcome::Close(CloseReason::Clean);
        }
    } else {
        // 4. Read whatever is available, unless the connection is
        // paused (an ordered request or reload in flight: ordering is
        // preserved by TCP backpressure, not server-side buffering).
        let paused = conn.shared.paused.load(Ordering::Acquire) || conn.shutdown_after_flush;
        if !paused && !conn.eof {
            loop {
                match conn.stream.read(buf) {
                    Ok(0) => {
                        conn.eof = true;
                        conn.assembler.set_eof();
                        progress = true;
                        break;
                    }
                    Ok(n) => {
                        conn.assembler.feed(&buf[..n]);
                        conn.last_read = Instant::now();
                        progress = true;
                        if n < buf.len() || conn.assembler.buffered() >= READ_BURST_MAX {
                            break;
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(e) if would_block(&e) => break,
                    Err(_) => return SweepOutcome::Close(CloseReason::Transport),
                }
            }
        }
        // 5. Dispatch complete frames. The pause flag is re-read every
        // iteration: dispatching an ordered request pauses the
        // connection mid-loop and later frames stay buffered until its
        // reply is ordered ahead of them.
        while !conn.shared.paused.load(Ordering::Acquire)
            && !conn.shutdown_after_flush
            && !conn.draining
        {
            match conn.assembler.next_frame() {
                Ok(Some(line)) => {
                    progress = true;
                    conn.spoke = true;
                    handle_frame(shared, conn, &line);
                }
                Ok(None) => break,
                Err(FrameTooLong { limit }) => {
                    progress = true;
                    // The burn happens for the TooLong reply too: it
                    // answers a frame that never finished arriving.
                    let trace = shared.next_trace.fetch_add(1, Ordering::Relaxed);
                    shared.counters.errors.fetch_add(1, Ordering::Relaxed);
                    conn.shared.push(with_trace_id(
                        error_frame(
                            KIND_BAD_REQUEST,
                            &format!("frame exceeds the {limit}-byte limit; closing connection"),
                        ),
                        trace,
                    ));
                    conn.draining = true;
                }
            }
        }
        // 6. EOF wind-down. Once the assembler is drained no further
        // frame can arrive: drop the watch senders (each stream thread
        // winds down on its own), and close when the outbox is dry and
        // no worker/stream/reload still holds the connection — their
        // late replies must still be written first.
        if conn.eof && conn.assembler.is_drained() {
            if !conn.watches.is_empty() {
                conn.watches.clear();
                progress = true;
            }
            if conn.shared.outbox.is_empty() && Arc::strong_count(&conn.shared) == 1 {
                return SweepOutcome::Close(CloseReason::Clean);
            }
        }
    }
    // 7. The stall-timeout split. `timeouts` counts peers that are
    // *stuck* — mid-frame, never completed a first frame, or sitting on
    // undrained output — never peers that are merely parked: a
    // connection that has spoken, owes nothing, and is owed nothing may
    // idle past the timeout forever.
    if let Some(t) = io_timeout {
        if conn.write_stalled_since.is_some_and(|s| s.elapsed() >= t) {
            return SweepOutcome::Close(CloseReason::Timeout);
        }
        let paused = conn.shared.paused.load(Ordering::Acquire) || conn.shutdown_after_flush;
        let awaiting_frame = !conn.eof && !paused && (conn.assembler.has_partial() || !conn.spoke);
        if awaiting_frame && conn.last_read.elapsed() >= t {
            return SweepOutcome::Close(CloseReason::Timeout);
        }
    }
    if progress {
        SweepOutcome::Progress
    } else {
        SweepOutcome::Idle
    }
}

/// Deregister a connection: count it if it died to the stall timeout,
/// close its outbox so late producers become no-ops, and drop the
/// socket and watch senders.
fn close_conn(shared: &Arc<Shared>, conn: Conn, reason: &CloseReason) {
    if matches!(reason, CloseReason::Timeout) {
        shared.counters.timeouts.fetch_add(1, Ordering::Relaxed);
        sca_telemetry::counter("serve.timeouts", 1);
    }
    conn.shared.outbox.close();
    shared.conns_active.fetch_sub(1, Ordering::Relaxed);
}

/// The exiting reactor's last act: keep flushing already-queued replies
/// for a bounded grace period, then drop every connection. Workers are
/// already gone, so the outboxes can only shrink.
fn final_flush(shared: &Arc<Shared>, mut conns: Vec<Conn>) {
    let deadline = Instant::now() + FINAL_FLUSH_GRACE;
    loop {
        let mut pending = false;
        conns.retain_mut(|conn| {
            if conn.shared.outbox.flush_into(&mut conn.stream).is_err() {
                return false;
            }
            if conn.shared.outbox.is_empty() {
                false
            } else {
                pending = true;
                true
            }
        });
        if !pending || Instant::now() >= deadline {
            break;
        }
        thread::sleep(Duration::from_millis(2));
    }
    for conn in &conns {
        conn.shared.outbox.close();
    }
    shared.conns_active.store(0, Ordering::Relaxed);
}

/// Dispatch one complete frame. Every frame — work, control,
/// unparseable garbage — burns one trace id, so any response a client
/// ever sees can be named when reporting a problem.
fn handle_frame(shared: &Arc<Shared>, conn: &mut Conn, line: &str) {
    let trace = shared.next_trace.fetch_add(1, Ordering::Relaxed);
    if line.trim().is_empty() {
        return;
    }
    let parsed = match Json::parse(line) {
        Err(e) => {
            conn.shared.push(with_trace_id(
                error_frame(KIND_BAD_REQUEST, &format!("invalid JSON frame: {e}")),
                trace,
            ));
            return;
        }
        Ok(v) => v,
    };
    let id = request_id(&parsed);
    let wants_timings = request_wants_timings(&parsed);
    let (response, id) = match Request::from_json(&parsed) {
        Err(e) => (Some(error_frame(KIND_BAD_REQUEST, &e)), id),
        // Acknowledge shutdown *before* initiating it: once the worker
        // pool unwinds the whole process may exit (CLI `serve`), and
        // the ack must not race that exit — so `begin_shutdown` waits
        // until the sweep sees the ack flushed.
        Ok(Request::Shutdown) => {
            let mut frame =
                with_trace_id(ok_frame(vec![("stopping".into(), Json::Bool(true))]), trace);
            if let Some(id) = &id {
                frame = with_request_id(frame, id);
            }
            conn.shared.push(frame);
            conn.shutdown_after_flush = true;
            (None, None)
        }
        // Watch streams are per-connection state, so the three stream
        // commands are routed here. Pushed events flow from the stream
        // thread straight into the outbox; only the open ack (and
        // routing failures) answer inline.
        Ok(Request::Watch {
            name,
            program,
            victim,
            increment,
            threshold,
            sustain,
            deadline_ms,
        }) => {
            let open = WatchOpen {
                name,
                program,
                victim,
                increment,
                threshold,
                sustain,
                deadline_ms,
            };
            (
                Some(start_watch(
                    shared,
                    &conn.shared,
                    &mut conn.watches,
                    trace,
                    open,
                )),
                id,
            )
        }
        Ok(Request::WatchPush { stream, increments }) => {
            let cmd = WatchCmd::Push {
                increments,
                trace,
                id: id.clone(),
            };
            (route_watch_cmd(&mut conn.watches, stream, cmd), id)
        }
        Ok(Request::WatchFinish { stream }) => {
            let cmd = WatchCmd::Finish {
                trace,
                id: id.clone(),
            };
            let response = route_watch_cmd(&mut conn.watches, stream, cmd);
            // Finish closes the stream either way: a successfully
            // routed finish ends the thread, and a routing failure
            // means it is already gone.
            conn.watches.remove(&stream);
            (response, id)
        }
        // Reload rebuilds a whole detector — far too slow for the
        // reactor thread. It runs on a transient thread with the
        // connection paused, preserving the old inline ordering.
        Ok(Request::ReloadRepo { path }) => {
            submit_reload(shared, &conn.shared, trace, id, path);
            (None, None)
        }
        // Tagged work is pipelined: admitted without pausing, answered
        // whenever it completes, possibly out of order.
        Ok(
            work @ (Request::Classify { .. }
            | Request::ClassifyBatch { .. }
            | Request::Model { .. }),
        ) if id.is_some() => {
            let id = id.expect("guarded by is_some");
            submit_pipelined(work, shared, trace, wants_timings, id, &conn.shared);
            (None, None)
        }
        // Untagged work keeps one-in-one-out ordering by pausing the
        // connection until the worker's reply is in the outbox.
        Ok(
            work @ (Request::Classify { .. }
            | Request::ClassifyBatch { .. }
            | Request::Model { .. }),
        ) => {
            submit_ordered(work, shared, trace, wants_timings, &conn.shared);
            (None, None)
        }
        Ok(req) => (Some(dispatch(req, shared)), id),
    };
    if let Some(frame) = response {
        let mut frame = with_trace_id(frame, trace);
        if let Some(id) = &id {
            frame = with_request_id(frame, id);
        }
        conn.shared.push(frame);
    }
}

/// Answer a control request inline on the reactor; these are all cheap
/// snapshots (no model building, no scanning).
fn dispatch(request: Request, shared: &Arc<Shared>) -> Json {
    match request {
        Request::Ping => ok_frame(vec![
            ("pong".into(), Json::Bool(true)),
            ("protocol".into(), Json::Num(PROTOCOL_VERSION as f64)),
        ]),
        Request::Stats => stats_frame(shared),
        Request::Metrics => metrics_frame(shared),
        Request::Flight => flight_frame(shared),
        // Every other request is routed by `handle_frame` before it can
        // reach here; answer defensively rather than panicking the
        // reactor if that routing ever regresses.
        _ => error_frame(
            KIND_INTERNAL_ERROR,
            "request routed to the inline dispatcher by mistake",
        ),
    }
}

fn stats_frame(shared: &Arc<Shared>) -> Json {
    let s = shared.stats();
    let repo = shared.repo_snapshot();
    let num = |v: u64| Json::Num(v as f64);
    ok_frame(vec![
        (
            "stats".into(),
            Json::Obj(vec![
                ("received".into(), num(s.received)),
                ("completed".into(), num(s.completed)),
                ("shed".into(), num(s.shed)),
                ("deadline_exceeded".into(), num(s.deadline_exceeded)),
                ("errors".into(), num(s.errors)),
                ("reloads".into(), num(s.reloads)),
                ("panics".into(), num(s.panics)),
                ("timeouts".into(), num(s.timeouts)),
                ("accept_errors".into(), num(s.accept_errors)),
                ("conns_rejected".into(), num(s.conns_rejected)),
                ("spawn_errors".into(), num(s.spawn_errors)),
                ("conns_active".into(), num(s.conns_active)),
                ("queue_depth".into(), num(shared.queue.depth() as u64)),
                ("queue_capacity".into(), num(shared.queue.capacity() as u64)),
                ("in_flight".into(), num(s.in_flight)),
                ("busy_workers".into(), num(s.busy_workers)),
                (
                    "streams_active".into(),
                    num(shared.streams_active.load(Ordering::Relaxed)),
                ),
                ("workers".into(), num(shared.config.workers.max(1) as u64)),
                ("repo_generation".into(), num(repo.generation)),
                (
                    "repo_entries".into(),
                    num(repo.detector.repository().len() as u64),
                ),
                (
                    "model_cache_entries".into(),
                    num(shared.builder.len() as u64),
                ),
            ]),
        ),
        ("repo".into(), repo.json()),
    ])
}

/// The live server gauges, computed fresh on every call — gauges carry
/// instantaneous state, so they are observed at exposition time rather
/// than maintained incrementally.
fn live_gauges(shared: &Arc<Shared>) -> Vec<(String, u64)> {
    let s = shared.stats();
    let repo = shared.repo_snapshot();
    vec![
        ("serve.queue_depth".into(), shared.queue.depth() as u64),
        (
            "serve.queue_capacity".into(),
            shared.queue.capacity() as u64,
        ),
        ("serve.in_flight".into(), s.in_flight),
        ("serve.busy_workers".into(), s.busy_workers),
        ("serve.workers".into(), shared.config.workers.max(1) as u64),
        ("serve.repo_generation".into(), repo.generation),
        (
            "serve.repo_entries".into(),
            repo.detector.repository().len() as u64,
        ),
        (
            "serve.model_cache_entries".into(),
            shared.builder.len() as u64,
        ),
        ("serve.flight_recorded".into(), shared.flight.recorded()),
        (
            "serve.streams_active".into(),
            shared.streams_active.load(Ordering::Relaxed),
        ),
        ("serve.conns_active".into(), s.conns_active),
    ]
}

fn histogram_summary(h: &Histogram) -> Json {
    Json::Obj(vec![
        ("count".into(), Json::Num(h.count() as f64)),
        ("min".into(), Json::Num(h.min() as f64)),
        ("max".into(), Json::Num(h.max() as f64)),
        ("mean".into(), Json::Num(h.mean())),
        ("p50".into(), Json::Num(h.percentile(50.0) as f64)),
        ("p90".into(), Json::Num(h.percentile(90.0) as f64)),
        ("p99".into(), Json::Num(h.percentile(99.0) as f64)),
    ])
}

/// The full telemetry snapshot as one frame: counters, gauges (registry
/// gauges merged with the live server gauges, which always win), and
/// histogram summaries. Live gauges are also published back into the
/// registry so JSONL exports carry them — a no-op while disabled.
fn metrics_frame(shared: &Arc<Shared>) -> Json {
    let live = live_gauges(shared);
    for (k, v) in &live {
        sca_telemetry::gauge(k, *v);
    }
    let snap = sca_telemetry::snapshot();
    let mut gauges: BTreeMap<String, u64> = snap.gauges;
    gauges.extend(live);
    ok_frame(vec![(
        "metrics".into(),
        Json::Obj(vec![
            ("telemetry".into(), Json::Bool(sca_telemetry::enabled())),
            (
                "counters".into(),
                Json::Obj(
                    snap.counters
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Num(*v as f64)))
                        .collect(),
                ),
            ),
            (
                "gauges".into(),
                Json::Obj(
                    gauges
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Num(*v as f64)))
                        .collect(),
                ),
            ),
            (
                "histograms".into(),
                Json::Obj(
                    snap.histograms
                        .iter()
                        .map(|(k, h)| (k.clone(), histogram_summary(h)))
                        .collect(),
                ),
            ),
        ]),
    )])
}

/// The flight recorder's resident entries, oldest first, each in the
/// same shape `sca_telemetry::parse_line` accepts.
fn flight_frame(shared: &Arc<Shared>) -> Json {
    let entries: Vec<Json> = shared.flight.snapshot().iter().map(request_json).collect();
    ok_frame(vec![(
        "flight".into(),
        Json::Obj(vec![
            (
                "capacity".into(),
                Json::Num(shared.flight.capacity() as f64),
            ),
            (
                "recorded".into(),
                Json::Num(shared.flight.recorded() as f64),
            ),
            ("entries".into(), Json::Arr(entries)),
        ]),
    )])
}

/// Load a repository (the configured path unless the request named one)
/// and atomically publish it as the next generation. On failure the
/// current repository stays live and the error — with file, line, and
/// reason — goes back to the client.
fn reload_repo(shared: &Arc<Shared>, path: Option<&str>) -> Json {
    let current = shared.repo_snapshot();
    let path: PathBuf = path.map_or_else(|| current.path.clone(), PathBuf::from);
    let repo = match load_repository(&path) {
        Ok(repo) => repo,
        Err(e) => {
            shared.counters.errors.fetch_add(1, Ordering::Relaxed);
            return error_frame(KIND_RELOAD_FAILED, &e.to_string());
        }
    };
    // The threshold was validated when the server started; re-check
    // instead of unwrapping so a future config path can never panic a
    // handler thread.
    let detector = match build_detector(repo, &path, shared.config.threshold) {
        Ok(d) => d,
        Err(e) => {
            shared.counters.errors.fetch_add(1, Ordering::Relaxed);
            return error_frame(KIND_RELOAD_FAILED, &e.to_string());
        }
    };
    let mut slot = shared.repo.lock().unwrap_or_else(|e| e.into_inner());
    let next = Arc::new(RepoState {
        generation: slot.generation + 1,
        path,
        detector,
    });
    *slot = Arc::clone(&next);
    drop(slot);
    shared.counters.reloads.fetch_add(1, Ordering::Relaxed);
    sca_telemetry::counter("serve.reloads", 1);
    ok_frame(vec![("repo".into(), next.json())])
}

/// The parsed fields of a `watch` frame, bundled so the open path stays
/// one argument list.
struct WatchOpen {
    name: String,
    program: String,
    victim: String,
    increment: Option<u64>,
    threshold: Option<f64>,
    sustain: Option<u64>,
    deadline_ms: Option<u64>,
}

/// One command routed from the connection handler to a watch stream's
/// dedicated thread. Each carries the triggering frame's trace id and
/// echoed envelope `id`, so every pushed event can be attributed to the
/// frame that caused it.
enum WatchCmd {
    /// Commit `increments` whole increments, emitting one `progress`
    /// event per increment (plus `alarm`/`done` as they happen).
    Push {
        increments: u64,
        trace: u64,
        id: Option<Json>,
    },
    /// Close the stream: emit the final `done` event with the current
    /// prefix's detection, then exit.
    Finish { trace: u64, id: Option<Json> },
}

/// How a watch stream ended, for its one flight-recorder entry.
struct StreamEnd {
    outcome: Outcome,
    verdict: Option<String>,
    increments: u64,
    alarms: u64,
}

/// Open a watch stream: validate the inputs inline (victim spec,
/// assembly, threshold — all answered synchronously as `bad_request` /
/// `model_error`), snapshot the repository generation, and hand the
/// session to a dedicated detached thread. Streams deliberately run
/// *outside* the worker pool: a stream lives as long as its client
/// keeps pushing, and parking it on a worker would let a handful of
/// idle watchers starve classify traffic.
fn start_watch(
    shared: &Arc<Shared>,
    out: &Arc<ConnShared>,
    watches: &mut HashMap<u64, mpsc::Sender<WatchCmd>>,
    stream_id: u64,
    open: WatchOpen,
) -> Json {
    if shared.shutdown.load(Ordering::SeqCst) {
        return error_frame(KIND_SHUTTING_DOWN, "server is shutting down");
    }
    let victim = match parse_victim(&open.victim) {
        Ok(v) => v,
        Err(e) => return error_frame(KIND_BAD_REQUEST, &e),
    };
    let program = match sca_isa::assemble(&open.name, &open.program) {
        Ok(p) => p,
        Err(e) => return error_frame(KIND_BAD_REQUEST, &format!("assembly failed: {e}")),
    };
    let mut cfg = StreamConfig::default();
    if let Some(n) = open.increment {
        cfg.increment = n.max(1);
    }
    if let Some(t) = open.threshold {
        cfg.threshold = t;
    }
    if let Some(k) = open.sustain {
        cfg.sustain = u32::try_from(k.clamp(1, u64::from(u32::MAX))).expect("clamped");
    }
    if let Err(e) = StreamSession::validate_threshold(&cfg) {
        return error_frame(KIND_BAD_REQUEST, &e.to_string());
    }
    let modeling = ModelingConfig::default();
    // Fail empty programs at the ack, not as a first pushed event — the
    // rejection is the same one batch modeling gives.
    if let Err(e) = StreamingModeler::begin(&program, &victim, &modeling) {
        return error_frame(KIND_MODEL_ERROR, &e.to_string());
    }
    // Like work admission, the repository generation is fixed when the
    // stream opens: every increment of one stream scores against
    // exactly one generation, regardless of concurrent reloads.
    let repo = shared.repo_snapshot();
    let (cmd_tx, cmd_rx) = mpsc::channel();
    let stream = WatchStream {
        shared: Arc::clone(shared),
        repo: Arc::clone(&repo),
        out: Arc::clone(out),
        stream_id,
        program,
        victim,
        modeling,
        cfg: cfg.clone(),
        deadline_ms: open.deadline_ms.or(shared.config.deadline_ms),
    };
    if thread::Builder::new()
        .name(format!("sca-serve-stream-{stream_id}"))
        .spawn(move || stream.run(cmd_rx))
        .is_err()
    {
        shared.counters.spawn_errors.fetch_add(1, Ordering::Relaxed);
        sca_telemetry::counter("serve.spawn_errors", 1);
        return error_frame(KIND_INTERNAL_ERROR, "cannot spawn a stream thread");
    }
    watches.insert(stream_id, cmd_tx);
    sca_telemetry::counter("serve.streams_opened", 1);
    ok_frame(vec![
        ("event".into(), Json::Str("watching".into())),
        ("stream".into(), Json::Num(stream_id as f64)),
        ("increment".into(), Json::Num(cfg.increment as f64)),
        ("threshold".into(), Json::Num(cfg.threshold)),
        ("sustain".into(), Json::Num(f64::from(cfg.sustain.max(1)))),
        ("repo".into(), repo.json()),
    ])
}

/// Route one command to an open stream on this connection. `None` means
/// it was routed (the stream thread answers with events); `Some` is the
/// inline error frame for an unknown or already-closed stream.
fn route_watch_cmd(
    watches: &mut HashMap<u64, mpsc::Sender<WatchCmd>>,
    stream: u64,
    cmd: WatchCmd,
) -> Option<Json> {
    let Some(tx) = watches.get(&stream) else {
        return Some(error_frame(
            KIND_BAD_REQUEST,
            &format!("no open watch stream {stream} on this connection"),
        ));
    };
    if tx.send(cmd).is_err() {
        // The thread already exited (its trace ended, or it died to a
        // panic / deadline policy): the stream fails alone, and later
        // commands get a structured answer instead of silence.
        watches.remove(&stream);
        return Some(error_frame(
            KIND_BAD_REQUEST,
            &format!("watch stream {stream} is closed"),
        ));
    }
    None
}

/// One live watch stream: an online [`StreamSession`] plus the plumbing
/// to push its events into the connection's outbox (DESIGN.md §17).
struct WatchStream {
    shared: Arc<Shared>,
    repo: Arc<RepoState>,
    out: Arc<ConnShared>,
    stream_id: u64,
    program: sca_isa::Program,
    victim: Victim,
    modeling: ModelingConfig,
    cfg: StreamConfig,
    /// Per-push deadline budget; a miss ends the push, not the stream.
    deadline_ms: Option<u64>,
}

impl WatchStream {
    /// Thread body: serve commands until the stream ends, then record
    /// its one flight-recorder entry. The gauge and the summary are
    /// written outside the catch so even a panicking stream is
    /// accounted for and `serve.streams_active` always returns to zero.
    fn run(self, cmds: mpsc::Receiver<WatchCmd>) {
        self.shared.streams_active.fetch_add(1, Ordering::Relaxed);
        let started = Instant::now();
        let end =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.serve_stream(cmds)))
                .unwrap_or(StreamEnd {
                    outcome: Outcome::Panic,
                    verdict: None,
                    increments: 0,
                    alarms: 0,
                });
        // One summary per stream, not per increment — and deliberately
        // never recorded into the `serve.latency_ns` histogram: a
        // stream's lifetime is set by how long the client keeps
        // pushing, and folding that into the per-request histogram
        // would drown the worker latencies it summarizes.
        self.shared.flight.record(RequestSummary {
            trace_id: self.stream_id,
            name: "watch".into(),
            outcome: end.outcome,
            verdict: end.verdict,
            latency_ns: started.elapsed().as_nanos() as u64,
            stages: vec![
                ("increments".into(), end.increments),
                ("alarms".into(), end.alarms),
            ],
        });
        self.shared.streams_active.fetch_sub(1, Ordering::Relaxed);
    }

    /// The per-push deadline, re-armed fresh for each unit of work.
    fn deadline(&self) -> Option<Instant> {
        self.deadline_ms
            .map(|ms| Instant::now() + Duration::from_millis(ms))
    }

    /// Decorate an event with the triggering frame's ids and push it
    /// into the outbox. A closed outbox means a gone connection and the
    /// push is a silent no-op; the recv loop sees the disconnect next.
    fn emit(&self, trace: u64, id: Option<&Json>, frame: Json) {
        let mut frame = with_trace_id(frame, trace);
        if let Some(id) = id {
            frame = with_request_id(frame, id);
        }
        self.out.push(frame);
    }

    fn serve_stream(&self, cmds: mpsc::Receiver<WatchCmd>) -> StreamEnd {
        // The receiver lives in an Option so every terminal path can
        // drop it *before* emitting its last event. That ordering is
        // load-bearing: once a client has read a terminal event, a
        // subsequent `watch-push` must find a dead sender and get the
        // inline closed-stream error — if the receiver outlived the
        // emit, the push could be routed into this exiting thread and
        // never answered.
        let mut cmds = Some(cmds);
        let mut end = StreamEnd {
            outcome: Outcome::Error,
            verdict: None,
            increments: 0,
            alarms: 0,
        };
        let mut session = match StreamSession::begin(
            &self.repo.detector,
            &self.program,
            &self.victim,
            &self.modeling,
            &self.cfg,
        ) {
            Ok(s) => s,
            // Unreachable in practice: `start_watch` already ran the
            // same begin. Answered as a terminal event for safety.
            Err(e) => {
                drop(cmds.take());
                self.emit(
                    self.stream_id,
                    None,
                    error_event(self.stream_id, KIND_MODEL_ERROR, &e.to_string()),
                );
                return end;
            }
        };
        loop {
            let Ok(cmd) = cmds
                .as_ref()
                .expect("receiver lives until a terminal path")
                .recv()
            else {
                // The connection went away (handler dropped, or the
                // stream was finished and forgotten): this stream dies
                // alone, with whatever it counted so far.
                return end;
            };
            match cmd {
                WatchCmd::Push {
                    increments,
                    trace,
                    id,
                } => {
                    if !self.push(
                        &mut session,
                        &mut end,
                        increments,
                        trace,
                        id.as_ref(),
                        &mut cmds,
                    ) {
                        return end;
                    }
                }
                WatchCmd::Finish { trace, id } => {
                    self.finish(&mut session, &mut end, trace, id.as_ref(), &mut cmds);
                    return end;
                }
            }
        }
    }

    /// Serve one `watch-push`: commit up to `increments` increments,
    /// emitting events as they happen. Returns whether the stream is
    /// still alive afterwards; `end` tracks the running totals either
    /// way.
    fn push(
        &self,
        session: &mut StreamSession<'_>,
        end: &mut StreamEnd,
        increments: u64,
        trace: u64,
        id: Option<&Json>,
        cmds: &mut Option<mpsc::Receiver<WatchCmd>>,
    ) -> bool {
        let want = increments.max(1);
        for i in 0..want {
            // Panic isolation, stream edition: a panic mid-increment
            // costs exactly this stream — the connection, its other
            // streams, and the worker pool stay at full strength.
            let pushed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                session.push(None, self.deadline())
            }));
            let update = match pushed {
                Err(payload) => {
                    self.shared.counters.panics.fetch_add(1, Ordering::Relaxed);
                    sca_telemetry::counter("serve.panics", 1);
                    let what = payload
                        .downcast_ref::<&str>()
                        .copied()
                        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
                        .unwrap_or("<non-string panic payload>");
                    drop(cmds.take());
                    self.emit(
                        trace,
                        id,
                        error_event(
                            self.stream_id,
                            KIND_INTERNAL_ERROR,
                            &format!("stream panicked mid-increment: {what}"),
                        ),
                    );
                    end.outcome = Outcome::Panic;
                    return false;
                }
                Ok(Err(DeadlineExceeded)) => {
                    // The increment's instructions stay committed; the
                    // stream survives and the client may push again.
                    self.shared
                        .counters
                        .deadline_exceeded
                        .fetch_add(1, Ordering::Relaxed);
                    sca_telemetry::counter("serve.deadline_exceeded", 1);
                    self.emit(
                        trace,
                        id,
                        error_event(
                            self.stream_id,
                            KIND_DEADLINE_EXCEEDED,
                            "deadline passed mid-scan; the increment stays committed — push again to retry",
                        ),
                    );
                    return true;
                }
                Ok(Ok(update)) => update,
            };
            end.increments += 1;
            sca_telemetry::counter("serve.stream_increments", 1);
            if let Some(alarm) = &update.fired {
                end.alarms += 1;
                end.verdict = Some(format!("alarm:{}", alarm.family));
                sca_telemetry::counter("serve.stream_alarms", 1);
            }
            // `last` marks the final event of this push so a client can
            // read to a deterministic stop; it is never set on an event
            // another one follows — in particular not on the progress
            // event of the increment that completes the trace, because
            // the `done` frame still follows it.
            let push_ends = update.done || i + 1 == want;
            self.emit(
                trace,
                id,
                progress_event(
                    self.stream_id,
                    &update,
                    push_ends && update.fired.is_none() && !update.done,
                ),
            );
            if let Some(alarm) = &update.fired {
                self.emit(
                    trace,
                    id,
                    alarm_event(self.stream_id, alarm, push_ends && !update.done),
                );
            }
            if update.done {
                self.finish(session, end, trace, id, cmds);
                return false;
            }
        }
        true
    }

    /// Emit the terminal `done` event — increments, steps, the latched
    /// alarm if any, and the current prefix's full detection (rendered
    /// with the same `detection_json` as classify, so the `detection`
    /// object is byte-identical to classifying the prefix outright).
    fn finish(
        &self,
        session: &mut StreamSession<'_>,
        end: &mut StreamEnd,
        trace: u64,
        id: Option<&Json>,
        cmds: &mut Option<mpsc::Receiver<WatchCmd>>,
    ) {
        let detection = session
            .detection(self.deadline())
            .ok()
            .map(|d| detection_json(self.program.name(), &d));
        if end.verdict.is_none() {
            end.verdict = detection
                .as_ref()
                .and_then(|d| d.get("attack"))
                .and_then(|a| match a {
                    Json::Bool(true) => Some("attack".to_string()),
                    Json::Bool(false) => Some("benign".to_string()),
                    _ => None,
                });
        }
        let mut fields = vec![
            ("event".into(), Json::Str("done".into())),
            ("stream".into(), Json::Num(self.stream_id as f64)),
            ("increments".into(), Json::Num(session.increments() as f64)),
            ("steps".into(), Json::Num(session.steps() as f64)),
            ("done".into(), Json::Bool(session.is_done())),
            ("alarmed".into(), Json::Bool(session.alarm().is_some())),
        ];
        if let Some(alarm) = session.alarm() {
            fields.push(("alarm".into(), alarm_json(alarm)));
        }
        if let Some(d) = detection {
            fields.push(("detection".into(), d));
        }
        fields.push(("last".into(), Json::Bool(true)));
        // Close the command channel before the `done` event goes out:
        // a client that has read `done` and pushes again must find a
        // dead sender (inline closed-stream error), never a queued
        // command this exiting thread will silently drop.
        drop(cmds.take());
        self.emit(trace, id, ok_frame(fields));
        end.outcome = Outcome::Ok;
    }
}

/// Render a fired [`Alarm`] as its wire object.
fn alarm_json(alarm: &Alarm) -> Json {
    Json::Obj(vec![
        ("at_step".into(), Json::Num(alarm.at_step as f64)),
        ("at_increment".into(), Json::Num(alarm.at_increment as f64)),
        ("family".into(), Json::Str(alarm.family.to_string())),
        ("poc".into(), Json::Str(alarm.poc.to_string())),
        ("score".into(), Json::Num(alarm.score)),
    ])
}

/// One `progress` event: where the stream is after one increment.
fn progress_event(stream: u64, update: &StreamUpdate, last: bool) -> Json {
    let mut fields = vec![
        ("event".into(), Json::Str("progress".into())),
        ("stream".into(), Json::Num(stream as f64)),
        ("increment".into(), Json::Num(update.increment as f64)),
        ("committed".into(), Json::Num(update.committed as f64)),
        ("steps".into(), Json::Num(update.steps as f64)),
        ("done".into(), Json::Bool(update.done)),
    ];
    if let Some((_, score)) = update.best {
        fields.push(("score".into(), Json::Num(score)));
    }
    if let Some(poc) = &update.best_poc {
        fields.push(("best_poc".into(), Json::Str(poc.to_string())));
    }
    if let Some(family) = update.best_family {
        fields.push(("best_family".into(), Json::Str(family.to_string())));
    }
    if last {
        fields.push(("last".into(), Json::Bool(true)));
    }
    ok_frame(fields)
}

/// One `alarm` event: the early-alarm policy fired on this increment.
fn alarm_event(stream: u64, alarm: &Alarm, last: bool) -> Json {
    let mut fields = vec![
        ("event".into(), Json::Str("alarm".into())),
        ("stream".into(), Json::Num(stream as f64)),
        ("alarm".into(), alarm_json(alarm)),
    ];
    if last {
        fields.push(("last".into(), Json::Bool(true)));
    }
    ok_frame(fields)
}

/// A terminal error event on a stream: an error frame that also names
/// its stream and carries `"last":true`, because nothing follows it in
/// this push.
fn error_event(stream: u64, kind: &str, message: &str) -> Json {
    match error_frame(kind, message) {
        Json::Obj(mut fields) => {
            fields.push(("stream".into(), Json::Num(stream as f64)));
            fields.push(("last".into(), Json::Bool(true)));
            Json::Obj(fields)
        }
        other => other,
    }
}

/// Admit a work request onto the queue with the given reply route, or
/// hand back the error frame explaining why it was refused (shutdown or
/// shed). Successful admission bumps `in_flight`; the worker drops it
/// after answering.
fn admit(
    request: Request,
    shared: &Arc<Shared>,
    trace: u64,
    wants_timings: bool,
    reply: Reply,
) -> Result<(), Json> {
    shared.counters.received.fetch_add(1, Ordering::Relaxed);
    sca_telemetry::counter("serve.requests", 1);
    if shared.shutdown.load(Ordering::SeqCst) {
        return Err(error_frame(KIND_SHUTTING_DOWN, "server is shutting down"));
    }
    let deadline_ms = match &request {
        Request::Classify { deadline_ms, .. }
        | Request::ClassifyBatch { deadline_ms, .. }
        | Request::Model { deadline_ms, .. } => deadline_ms.or(shared.config.deadline_ms),
        _ => None,
    };
    let kind = request_kind(&request);
    let job = Job {
        request,
        repo: shared.repo_snapshot(),
        deadline: deadline_ms.map(|ms| Instant::now() + Duration::from_millis(ms)),
        enqueued: Instant::now(),
        reply,
        trace_id: trace,
        wants_timings,
    };
    match shared.queue.try_push(job) {
        Ok(depth) => {
            sca_telemetry::record("serve.queue_depth", depth as u64);
            shared.in_flight.fetch_add(1, Ordering::Relaxed);
            Ok(())
        }
        Err(_) => {
            shared.counters.shed.fetch_add(1, Ordering::Relaxed);
            sca_telemetry::counter("serve.shed", 1);
            // Shed requests never reach a worker, so the admission path
            // is the only place their story can enter the flight ring.
            shared.flight.record(RequestSummary {
                trace_id: trace,
                name: kind.into(),
                outcome: Outcome::Shed,
                verdict: None,
                latency_ns: 0,
                stages: Vec::new(),
            });
            Err(error_frame(
                KIND_OVERLOADED,
                &format!(
                    "admission queue full ({} queued); retry later",
                    shared.queue.capacity()
                ),
            ))
        }
    }
}

/// Admit an untagged work request with one-in-one-out ordering: pause
/// the connection first (the reactor stops reading and parsing it),
/// then admit — the worker pushes the decorated reply and lifts the
/// pause. Admission failures answer immediately and unpause.
fn submit_ordered(
    request: Request,
    shared: &Arc<Shared>,
    trace: u64,
    wants_timings: bool,
    out: &Arc<ConnShared>,
) {
    out.paused.store(true, Ordering::Release);
    let reply = Reply::Ordered {
        conn: Arc::clone(out),
    };
    if let Err(frame) = admit(request, shared, trace, wants_timings, reply) {
        out.push_and_unpause(with_trace_id(frame, trace));
    }
}

/// Admit a tagged work request without pausing the connection: the
/// worker's (decorated) reply lands in the outbox whenever it
/// completes, possibly overtaking other in-flight work. Admission
/// failures answer immediately, also via the outbox.
fn submit_pipelined(
    request: Request,
    shared: &Arc<Shared>,
    trace: u64,
    wants_timings: bool,
    id: Json,
    out: &Arc<ConnShared>,
) {
    let reply = Reply::Pipelined {
        conn: Arc::clone(out),
        id: id.clone(),
    };
    if let Err(frame) = admit(request, shared, trace, wants_timings, reply) {
        out.push(with_request_id(with_trace_id(frame, trace), &id));
    }
}

/// Run `reload-repo` on a transient thread with the connection paused:
/// rebuilding a detector is far too slow for the reactor thread, and
/// the pause preserves the old inline ordering (no later frame on this
/// connection is answered before the reload's own reply). A spawn
/// failure is surfaced as a structured `internal_error`, never
/// silenced.
fn submit_reload(
    shared: &Arc<Shared>,
    out: &Arc<ConnShared>,
    trace: u64,
    id: Option<Json>,
    path: Option<String>,
) {
    out.paused.store(true, Ordering::Release);
    let shared2 = Arc::clone(shared);
    let out2 = Arc::clone(out);
    let id2 = id.clone();
    let spawned = thread::Builder::new()
        .name("sca-serve-reload".into())
        .spawn(move || {
            let mut frame = with_trace_id(reload_repo(&shared2, path.as_deref()), trace);
            if let Some(id) = &id2 {
                frame = with_request_id(frame, id);
            }
            out2.push_and_unpause(frame);
        });
    if spawned.is_err() {
        shared.counters.spawn_errors.fetch_add(1, Ordering::Relaxed);
        sca_telemetry::counter("serve.spawn_errors", 1);
        let mut frame = with_trace_id(
            error_frame(KIND_INTERNAL_ERROR, "cannot spawn the reload thread"),
            trace,
        );
        if let Some(id) = &id {
            frame = with_request_id(frame, id);
        }
        out.push_and_unpause(frame);
    }
}

/// Wall-clock stage timings for one request, measured directly with
/// `Instant` rather than derived from spans, so the breakdown exists —
/// and sums to the reported total — whether or not the telemetry
/// registry is enabled.
#[derive(Default)]
struct Stages {
    entries: Vec<(String, u64)>,
}

impl Stages {
    fn push(&mut self, name: &str, ns: u64) {
        self.entries.push((format!("{name}_ns"), ns));
    }

    fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.push(name, start.elapsed().as_nanos() as u64);
        out
    }
}

/// The `timings` object attached to a response when the request asked
/// for one. The top-level `*_ns` stages sum to `total_ns` up to
/// measurement noise; the span-derived DTW/lower-bound split (only
/// available with telemetry on) nests under `detail`, so it never skews
/// that sum.
fn timings_json(total_ns: u64, stages: &Stages, detail: Option<(u64, u64)>) -> Json {
    let mut fields: Vec<(String, Json)> = vec![("total_ns".into(), Json::Num(total_ns as f64))];
    fields.extend(
        stages
            .entries
            .iter()
            .map(|(k, ns)| (k.clone(), Json::Num(*ns as f64))),
    );
    if let Some((lb_ns, dtw_ns)) = detail {
        fields.push((
            "detail".into(),
            Json::Obj(vec![
                ("lb_ns".into(), Json::Num(lb_ns as f64)),
                ("dtw_ns".into(), Json::Num(dtw_ns as f64)),
            ]),
        ));
    }
    Json::Obj(fields)
}

/// Split the drained compare spans into time resolved by the
/// lower-bound cascade (or early abandoning) vs. full DTW runs.
fn compare_split(spans: &[SpanRecord]) -> (u64, u64) {
    let (mut lb_ns, mut dtw_ns) = (0u64, 0u64);
    for s in spans {
        if s.name != "pipeline.compare.dtw" {
            continue;
        }
        let exact = matches!(s.attr("exact"), Some(AttrValue::Bool(true)));
        if exact {
            dtw_ns += s.duration_ns;
        } else {
            lb_ns += s.duration_ns;
        }
    }
    (lb_ns, dtw_ns)
}

fn worker_loop(shared: &Arc<Shared>) {
    while let Some(job) = shared.queue.pop() {
        shared.busy_workers.fetch_add(1, Ordering::Relaxed);
        // Key every span opened while handling this job — serve.request
        // here, detect.scan and the compare spans inside the detector —
        // to the request's trace id.
        let trace = sca_telemetry::trace_scope(job.trace_id);
        let mut sp = sca_telemetry::span("serve.request");
        let queue_wait_ns = job.enqueued.elapsed().as_nanos() as u64;
        sca_telemetry::record("serve.queue_wait_ns", queue_wait_ns);
        let mut stages = Stages::default();
        stages.push("queue_wait", queue_wait_ns);
        // Panic isolation: a panic anywhere in the classify/model work
        // must cost exactly one request, not a pool slot. Without the
        // catch, the panicking worker thread dies silently, the pool
        // shrinks forever, and the request's handler blocks on a reply
        // channel whose sender was dropped mid-unwind. `Shared` state
        // crossing the boundary is lock-protected with explicit
        // poison-recovery (queue, repo slot, builder shards) or atomic,
        // so observing it after an unwind is sound.
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            execute(shared, &job, &mut stages)
        }));
        let panicked = caught.is_err();
        let frame = caught.unwrap_or_else(|payload| {
            shared.counters.panics.fetch_add(1, Ordering::Relaxed);
            sca_telemetry::counter("serve.panics", 1);
            let what = payload
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
                .unwrap_or("<non-string panic payload>");
            error_frame(
                KIND_INTERNAL_ERROR,
                &format!("worker panicked serving the request: {what}"),
            )
        });
        if sp.is_recording() {
            sp.attr("ok", protocol::is_ok(&frame));
        }
        let latency_ns = job.enqueued.elapsed().as_nanos() as u64;
        sca_telemetry::record("serve.latency_ns", latency_ns);
        // Land the serve.request span, then drain this trace's spans out
        // of the registry: they feed the timing detail and the slow-log
        // dump, and draining them is what keeps a resident server's span
        // log bounded.
        drop(sp);
        drop(trace);
        let spans = if sca_telemetry::enabled() {
            sca_telemetry::take_trace_spans(job.trace_id)
        } else {
            Vec::new()
        };
        let outcome = if panicked {
            Outcome::Panic
        } else if protocol::is_ok(&frame) {
            Outcome::Ok
        } else {
            match protocol::error_kind(&frame).and_then(ErrorKind::parse) {
                Some(ErrorKind::DeadlineExceeded) => Outcome::Timeout,
                _ => Outcome::Error,
            }
        };
        let verdict = frame
            .get("detection")
            .and_then(|d| d.get("attack"))
            .and_then(|a| match a {
                Json::Bool(true) => Some("attack".to_string()),
                Json::Bool(false) => Some("benign".to_string()),
                _ => None,
            });
        let summary = RequestSummary {
            trace_id: job.trace_id,
            name: job.kind().into(),
            outcome,
            verdict,
            latency_ns,
            stages: stages.entries.clone(),
        };
        let slow = shared
            .config
            .slow_ms
            .is_some_and(|ms| latency_ns >= ms.saturating_mul(1_000_000));
        if slow {
            sca_telemetry::counter("serve.slow_requests", 1);
            shared.write_slow_dump(&summary, &spans);
        }
        shared.flight.record(summary);
        let frame = if job.wants_timings {
            let detail = (!spans.is_empty()).then(|| compare_split(&spans));
            match frame {
                Json::Obj(mut fields) => {
                    fields.push(("timings".into(), timings_json(latency_ns, &stages, detail)));
                    Json::Obj(fields)
                }
                other => other,
            }
        } else {
            frame
        };
        // `in_flight` is documented exact: it must drop *before* the
        // reply leaves, or a client that pipelines `metrics` right
        // behind a classify can observe its own answered request as
        // still in flight. `busy_workers` stays eventually consistent
        // (decremented after the send) by the same documentation.
        shared.in_flight.fetch_sub(1, Ordering::Relaxed);
        // A connection that went away closed its outbox; these are
        // no-ops there.
        match &job.reply {
            Reply::Ordered { conn } => {
                conn.push_and_unpause(with_trace_id(frame, job.trace_id));
            }
            Reply::Pipelined { conn, id } => {
                conn.push(with_request_id(with_trace_id(frame, job.trace_id), id));
            }
        }
        shared.busy_workers.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Victim parse, assembly, and the builder's (possibly cached) CST-BBS
/// lookup for one program — everything before the scan. Returns the
/// model plus the stage's wall-clock cost, or the error `(kind,
/// message)` pair for the caller to route (whole-frame failure for
/// `classify`/`model`, per-program result for `classify-batch`).
fn build_model(
    shared: &Arc<Shared>,
    name: &str,
    source: &str,
    victim_spec: &str,
) -> Result<(Arc<CstBbs>, u64), (&'static str, String)> {
    let start = Instant::now();
    let victim = parse_victim(victim_spec).map_err(|e| (KIND_BAD_REQUEST, e))?;
    let program = sca_isa::assemble(name, source)
        .map_err(|e| (KIND_BAD_REQUEST, format!("assembly failed: {e}")))?;
    let model = shared
        .builder
        .build_cst(&program, &victim)
        .map_err(|e| (KIND_MODEL_ERROR, e.to_string()))?;
    Ok((model, start.elapsed().as_nanos() as u64))
}

/// Classify one prebuilt model on the calling worker. The caller
/// renders the detection with [`detection_json`] in its render stage
/// (byte-identical to the offline CLI's).
fn classify_one(
    repo: &RepoState,
    model: &CstBbs,
    threshold: Option<f64>,
    deadline: Option<Instant>,
) -> Result<Detection, (&'static str, String)> {
    if let Some(t) = threshold {
        if !(0.0..=1.0).contains(&t) {
            return Err((KIND_BAD_REQUEST, format!("threshold out of range: {t}")));
        }
    }
    let scanned = match deadline {
        Some(d) => repo.detector.classify_model_deadline(model, d),
        None => Ok(repo.detector.classify_model(model)),
    };
    let mut detection = scanned.map_err(|_| {
        (
            KIND_DEADLINE_EXCEEDED,
            "deadline passed during similarity scan".to_string(),
        )
    })?;
    if let Some(t) = threshold {
        // The threshold gates only the verdict, never the scan: scores
        // are identical for every threshold, so a per-request override
        // is exact.
        detection.threshold = t;
    }
    Ok(detection)
}

/// Run one admitted job to an answer frame, pushing each stage's
/// wall-clock cost into `stages` as it completes (a request that fails
/// mid-way carries the stages it finished). Counter bookkeeping for the
/// terminal states (completed / deadline / error) happens here so the
/// `stats` command reflects worker outcomes, not admission outcomes.
fn execute(shared: &Arc<Shared>, job: &Job, stages: &mut Stages) -> Json {
    let fail = |kind: &str, message: &str| {
        let c = if kind == KIND_DEADLINE_EXCEEDED {
            &shared.counters.deadline_exceeded
        } else {
            &shared.counters.errors
        };
        c.fetch_add(1, Ordering::Relaxed);
        if kind == KIND_DEADLINE_EXCEEDED {
            sca_telemetry::counter("serve.deadline_exceeded", 1);
        }
        error_frame(kind, message)
    };

    let expired = |deadline: Option<Instant>| deadline.is_some_and(|d| Instant::now() >= d);
    if expired(job.deadline) {
        return fail(KIND_DEADLINE_EXCEEDED, "deadline passed while queued");
    }

    let sleep_ms = match &job.request {
        Request::Classify { debug_sleep_ms, .. }
        | Request::ClassifyBatch { debug_sleep_ms, .. }
        | Request::Model { debug_sleep_ms, .. } => *debug_sleep_ms,
        // Control requests are answered inline by the handler and never
        // reach the queue.
        _ => return fail(KIND_BAD_REQUEST, "not a work request"),
    };

    if sleep_ms > 0 {
        stages.time("debug_sleep", || {
            thread::sleep(Duration::from_millis(sleep_ms));
        });
        if expired(job.deadline) {
            return fail(KIND_DEADLINE_EXCEEDED, "deadline passed during debug sleep");
        }
    }

    // Fault-injection hook: stand in for any unexpected panic in the
    // pipeline below, at the point where the real work would start.
    // The catch_unwind in `worker_loop` must turn this into a
    // structured `internal_error` with the pool intact — the chaos
    // harness asserts exactly that.
    if let Request::Classify {
        debug_panic: true, ..
    } = &job.request
    {
        panic!("debug_panic requested by the client");
    }

    let frame = match &job.request {
        Request::Model {
            name,
            program,
            victim,
            ..
        } => {
            let model = match build_model(shared, name, program, victim) {
                Ok((model, ns)) => {
                    stages.push("model", ns);
                    model
                }
                Err((kind, msg)) => return fail(kind, &msg),
            };
            stages.time("render", || {
                ok_frame(vec![
                    ("repo".into(), job.repo.json()),
                    ("model".into(), Json::Str(model_text(&model))),
                    ("steps".into(), Json::Num(model.steps().len() as f64)),
                ])
            })
        }
        Request::Classify {
            name,
            program,
            victim,
            threshold,
            ..
        } => {
            let model = match build_model(shared, name, program, victim) {
                Ok((model, ns)) => {
                    stages.push("model", ns);
                    model
                }
                Err((kind, msg)) => return fail(kind, &msg),
            };
            let scan_start = Instant::now();
            let out = classify_one(&job.repo, &model, *threshold, job.deadline);
            // Record how long the scan ran even when it aborts: that is
            // exactly the number a timeout post-mortem needs.
            stages.push("scan", scan_start.elapsed().as_nanos() as u64);
            let detection = match out {
                Ok(d) => d,
                Err((kind, msg)) => return fail(kind, &msg),
            };
            stages.time("render", || {
                ok_frame(vec![
                    ("repo".into(), job.repo.json()),
                    ("detection".into(), detection_json(name, &detection)),
                ])
            })
        }
        Request::ClassifyBatch { programs, .. } => {
            let mut model_ns = 0u64;
            let mut scan_ns = 0u64;
            let mut outcomes = Vec::with_capacity(programs.len());
            for p in programs {
                // The deadline covers the whole frame; once it passes,
                // the remaining programs could only ever time out too,
                // so the frame fails as a unit — exactly like a single
                // classify that dies mid-scan.
                if expired(job.deadline) {
                    stages.push("model", model_ns);
                    stages.push("scan", scan_ns);
                    return fail(
                        KIND_DEADLINE_EXCEEDED,
                        &format!(
                            "deadline passed after {} of {} programs",
                            outcomes.len(),
                            programs.len()
                        ),
                    );
                }
                let one =
                    build_model(shared, &p.name, &p.program, &p.victim).and_then(|(model, ns)| {
                        model_ns += ns;
                        let scan_start = Instant::now();
                        let out = classify_one(&job.repo, &model, p.threshold, job.deadline);
                        scan_ns += scan_start.elapsed().as_nanos() as u64;
                        out
                    });
                match &one {
                    Err((kind, msg)) if *kind == KIND_DEADLINE_EXCEEDED => {
                        stages.push("model", model_ns);
                        stages.push("scan", scan_ns);
                        return fail(kind, msg);
                    }
                    // A bad program fails alone: its siblings' results
                    // stay exact and keep their submission-order slots.
                    Err(_) => sca_telemetry::counter("serve.batch_program_errors", 1),
                    Ok(_) => {}
                }
                outcomes.push(one);
            }
            stages.push("model", model_ns);
            stages.push("scan", scan_ns);
            sca_telemetry::counter("serve.batch_programs", programs.len() as u64);
            stages.time("render", || {
                let results = programs
                    .iter()
                    .zip(outcomes)
                    .map(|(p, one)| match one {
                        Ok(detection) => Json::Obj(vec![(
                            "detection".into(),
                            detection_json(&p.name, &detection),
                        )]),
                        Err((kind, msg)) => Json::Obj(vec![(
                            "error".into(),
                            Json::Obj(vec![
                                ("kind".into(), Json::Str(kind.into())),
                                ("message".into(), Json::Str(msg)),
                            ]),
                        )]),
                    })
                    .collect();
                ok_frame(vec![
                    ("repo".into(), job.repo.json()),
                    ("results".into(), Json::Arr(results)),
                ])
            })
        }
        _ => unreachable!("filtered above"),
    };
    shared.counters.completed.fetch_add(1, Ordering::Relaxed);
    sca_telemetry::counter("serve.completed", 1);
    frame
}

#[cfg(test)]
mod tests {
    use super::*;

    // EMFILE cannot be injected into an in-process listener, so the
    // backoff schedule — the part that turns a hot loop into a bounded
    // retry — is pinned directly.
    #[test]
    fn accept_backoff_starts_small_doubles_and_caps() {
        let first = next_accept_backoff(None);
        assert_eq!(first, ACCEPT_BACKOFF_MIN);
        let mut d = first;
        let mut steps = 0;
        while d < ACCEPT_BACKOFF_MAX {
            let next = next_accept_backoff(Some(d));
            assert_eq!(next, (d * 2).min(ACCEPT_BACKOFF_MAX));
            d = next;
            steps += 1;
            assert!(steps < 64, "backoff never reached its ceiling");
        }
        assert_eq!(d, ACCEPT_BACKOFF_MAX);
        // Saturated: further errors stay at the ceiling.
        assert_eq!(next_accept_backoff(Some(d)), ACCEPT_BACKOFF_MAX);
    }

    #[test]
    fn accept_backoff_resets_by_passing_none() {
        let saturated = next_accept_backoff(Some(ACCEPT_BACKOFF_MAX));
        assert_eq!(saturated, ACCEPT_BACKOFF_MAX);
        assert_eq!(next_accept_backoff(None), ACCEPT_BACKOFF_MIN);
    }
}
