//! Closed-loop load generators: every client waits for each reply before
//! sending its next request, so each workload is a fixed number of
//! clients, never a fixed rate.

use std::io;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;
use std::time::{Duration, Instant};

use sca_isa::rng::SmallRng;
use sca_serve::{with_timings_flag, Request};
use sca_telemetry::Json;

use crate::gen::{mix, FreshPrograms, Target};
use crate::wire::Conn;

/// What one timed operation was.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// A `ping` round trip.
    Ping,
    /// A `classify` of pool target `target`.
    Classify { target: usize },
    /// A `classify-batch` frame of `len` fresh programs starting at
    /// `first` in the run's program list.
    Batch { first: usize, len: usize },
    /// A whole `watch` stream of fresh program `target`.
    Stream { target: usize },
    /// A timed `classify` of fresh program `target`, sent after a traced
    /// `watch` phase to get the server-side stage split for the programs
    /// it streamed.
    Probe { target: usize },
}

impl OpKind {
    /// Programs this operation completes.
    pub fn programs(self) -> usize {
        match self {
            OpKind::Ping => 0,
            OpKind::Batch { len, .. } => len,
            _ => 1,
        }
    }
}

/// One timed operation and its raw replies.
#[derive(Debug, Clone)]
pub struct Op {
    /// Which connection ran it.
    pub conn: usize,
    /// What it was.
    pub kind: OpKind,
    /// First request byte written to last reply byte read; for a stream,
    /// `watch` sent to `done` received.
    pub rtt_ns: u64,
    /// For a stream, `watch` sent to the `alarm` event received.
    pub alarm_ns: Option<u64>,
    /// The reply frame (a stream's terminal event).
    pub reply: String,
    /// A stream's `alarm` event, if one fired.
    pub alarm_event: Option<String>,
    /// Request and reply bytes on the wire, newlines included.
    pub sent_bytes: u64,
    /// See `sent_bytes`.
    pub recv_bytes: u64,
    /// Completion time, ns since the phase started.
    pub done_ns: u64,
}

/// Everything one timed phase produced.
#[derive(Debug, Default)]
pub struct Phase {
    /// Completed operations, in completion order.
    pub ops: Vec<Op>,
    /// Operations that failed in transport (connection errors, torn or
    /// unparseable replies), with the reason.
    pub transport_errors: Vec<String>,
}

/// The settings of one closed-loop phase.
pub struct LoadSpec<'a> {
    /// Server address.
    pub addr: &'a str,
    /// Client connections, one thread each.
    pub clients: usize,
    /// The phase's clock origin: `Op::done_ns` counts from here.
    pub start: Instant,
    /// Stop starting new operations this long after `start`.
    pub seconds: f64,
    /// Put `"timings": true` on every work frame.
    pub timings: bool,
    /// Run seed (selects pool targets and think times per client).
    pub seed: u64,
    /// Mean think time between a reply and the client's next request,
    /// in ms (exponentially distributed; 0 for none).
    pub think_ms: f64,
}

fn frame(request: &Request, timings: bool) -> String {
    if timings {
        with_timings_flag(request).to_string()
    } else {
        request.to_json().to_string()
    }
}

/// Run `body` on `spec.clients` connections until `spec.seconds` pass;
/// every client finishes its in-flight operation before the phase ends.
fn closed_loop<F>(spec: &LoadSpec, body: F) -> Phase
where
    F: Fn(usize, &mut Conn, &mut SmallRng) -> io::Result<Op> + Sync,
{
    let start = spec.start;
    let stop_at = start + Duration::from_secs_f64(spec.seconds);
    let results: Vec<(Vec<Op>, Option<String>)> = thread::scope(|s| {
        let handles: Vec<_> = (0..spec.clients)
            .map(|c| {
                let body = &body;
                s.spawn(move || {
                    let mut ops = Vec::new();
                    let mut rng = SmallRng::seed_from_u64(mix(spec.seed, 0xc11e_0000 + c as u64));
                    let mut conn = match Conn::connect(spec.addr) {
                        Ok(conn) => conn,
                        Err(e) => return (ops, Some(format!("client {c}: connect: {e}"))),
                    };
                    while Instant::now() < stop_at {
                        match body(c, &mut conn, &mut rng) {
                            Ok(op) => ops.push(Op {
                                done_ns: start.elapsed().as_nanos() as u64,
                                ..op
                            }),
                            Err(e) => return (ops, Some(format!("client {c}: {e}"))),
                        }
                        if spec.think_ms > 0.0 {
                            thread::sleep(think(&mut rng, spec.think_ms));
                        }
                    }
                    (ops, None)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let mut phase = Phase::default();
    for (ops, err) in results {
        phase.ops.extend(ops);
        phase.transport_errors.extend(err);
    }
    phase.ops.sort_by_key(|o| o.done_ns);
    phase
}

/// An exponentially distributed think time with mean `mean_ms`.
fn think(rng: &mut SmallRng, mean_ms: f64) -> Duration {
    let unit = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
    Duration::from_secs_f64(-(1.0 - unit).ln() * mean_ms / 1e3)
}

/// One timed round trip of `line` on `conn`.
fn round_trip(conn: &mut Conn, c: usize, kind: OpKind, line: &str) -> io::Result<Op> {
    let (sent, recv) = (conn.sent_bytes, conn.recv_bytes);
    let (reply, rtt) = conn.call(line)?;
    Ok(Op {
        conn: c,
        kind,
        rtt_ns: rtt.as_nanos() as u64,
        alarm_ns: None,
        reply,
        alarm_event: None,
        sent_bytes: conn.sent_bytes - sent,
        recv_bytes: conn.recv_bytes - recv,
        done_ns: 0,
    })
}

/// Classify every pool target once, untimed, so the server's builder
/// holds all their models before a warm phase starts. The replies are
/// returned for the gate.
pub fn prewarm(addr: &str, pool: &[Target]) -> Phase {
    let mut phase = Phase::default();
    match Conn::connect(addr) {
        Ok(mut conn) => {
            for (target, t) in pool.iter().enumerate() {
                let kind = OpKind::Classify { target };
                match round_trip(&mut conn, 0, kind, &frame(&t.classify(), false)) {
                    Ok(op) => phase.ops.push(op),
                    Err(e) => phase.transport_errors.push(format!("prewarm: {e}")),
                }
            }
        }
        Err(e) => phase.transport_errors.push(format!("prewarm connect: {e}")),
    }
    phase
}

/// `interactive`: `ping` alternating with a warm `classify` of a random
/// pool target, on one connection.
pub fn interactive(spec: &LoadSpec, pool: &[Target]) -> Phase {
    let frames: Vec<String> = pool
        .iter()
        .map(|t| frame(&t.classify(), spec.timings))
        .collect();
    let turn = AtomicUsize::new(0);
    closed_loop(spec, |c, conn, rng| {
        if turn.fetch_add(1, Ordering::Relaxed).is_multiple_of(2) {
            round_trip(conn, c, OpKind::Ping, r#"{"cmd":"ping"}"#)
        } else {
            let target = rng.gen_range(0..frames.len());
            round_trip(conn, c, OpKind::Classify { target }, &frames[target])
        }
    })
}

/// `warm-scan`: every client classifies random pool targets.
pub fn warm_scan(spec: &LoadSpec, pool: &[Target]) -> Phase {
    let frames: Vec<String> = pool
        .iter()
        .map(|t| frame(&t.classify(), spec.timings))
        .collect();
    closed_loop(spec, |c, conn, rng| {
        let target = rng.gen_range(0..frames.len());
        round_trip(conn, c, OpKind::Classify { target }, &frames[target])
    })
}

/// Fresh programs shared by the clients of one phase: a pre-generated
/// prefix, extended from the generator should a phase outrun it.
pub struct FreshSupply {
    gen: Mutex<(FreshPrograms, Vec<Target>)>,
    next: AtomicUsize,
}

impl FreshSupply {
    /// A supply with `ready` programs generated up front.
    pub fn new(seed: u64, ready: usize) -> FreshSupply {
        let mut gen = FreshPrograms::new(seed);
        let list: Vec<Target> = gen.by_ref().take(ready).collect();
        FreshSupply {
            gen: Mutex::new((gen, list)),
            next: AtomicUsize::new(0),
        }
    }

    /// Claim the next `n` programs: their index in the run's list and
    /// copies of them.
    pub fn take(&self, n: usize) -> (usize, Vec<Target>) {
        let first = self.next.fetch_add(n, Ordering::Relaxed);
        let mut g = self
            .gen
            .lock()
            .expect("a client panicked while generating programs");
        let (gen, list) = &mut *g;
        while list.len() < first + n {
            list.push(gen.next().expect("the generator is endless"));
        }
        (first, list[first..first + n].to_vec())
    }

    /// Copies of every program handed out so far, in list order.
    pub fn claimed(&self) -> Vec<Target> {
        let claimed = self.next.load(Ordering::Relaxed);
        let g = self
            .gen
            .lock()
            .expect("a client panicked while generating programs");
        g.1[..claimed.min(g.1.len())].to_vec()
    }
}

/// `cold-batch`: every client sends `classify-batch` frames of `batch`
/// never-repeated programs.
pub fn cold_batch(spec: &LoadSpec, supply: &FreshSupply, batch: usize) -> Phase {
    closed_loop(spec, |c, conn, _| {
        let (first, programs) = supply.take(batch);
        let request = Request::ClassifyBatch {
            programs: programs.iter().map(Target::batch_entry).collect(),
            deadline_ms: None,
            debug_sleep_ms: 0,
        };
        round_trip(
            conn,
            c,
            OpKind::Batch { first, len: batch },
            &frame(&request, spec.timings),
        )
    })
}

fn event_is(frame: &Json, event: &str) -> bool {
    frame.get("event").and_then(Json::as_str) == Some(event)
}

/// Increments a `watch` client observes before it closes the stream with
/// `watch-finish` (an observation window of 12 x 64 instructions).
///
/// Generated programs run from 5 to ~1000 increments, and their alarms
/// fall into an early mode (3-10 increments) and a late one (20-100).
/// Streaming every program to its end would let a few long traces set
/// the run's pace, and put the alarm median in the gap between the
/// modes, where it jumps from seed to seed. A fixed window keeps every
/// stream comparable.
pub const WATCH_WINDOW: u64 = 12;

/// Read one push's events, up to the one marked `last`. Returns whether
/// the stream ended (a `done` or error event).
fn read_push(conn: &mut Conn, start: Instant, op: &mut Op) -> io::Result<bool> {
    loop {
        let line = conn.recv()?;
        let event = Json::parse(&line)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("watch event: {e}")))?;
        let failed = event.get("ok") != Some(&Json::Bool(true));
        if event_is(&event, "alarm") && op.alarm_ns.is_none() {
            op.alarm_ns = Some(start.elapsed().as_nanos() as u64);
            op.alarm_event = Some(line.clone());
        }
        if failed || event_is(&event, "done") {
            // An error event ends the stream too; the gate counts it.
            op.reply = line;
            return Ok(true);
        }
        if event.get("last") == Some(&Json::Bool(true)) {
            return Ok(false);
        }
    }
}

/// Stream one program: open a `watch`, push [`WATCH_WINDOW`] increments in
/// one frame, and close with `watch-finish` unless the trace ended first.
fn stream_one(conn: &mut Conn, c: usize, target: usize, t: &Target) -> io::Result<Op> {
    let (sent, recv) = (conn.sent_bytes, conn.recv_bytes);
    let start = Instant::now();
    let (ack, _) = conn.call(&t.watch().to_json().to_string())?;
    let stream = Json::parse(&ack)
        .ok()
        .and_then(|a| a.get("stream").and_then(Json::as_u64))
        .ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidData, format!("watch refused: {ack}"))
        })?;
    let mut op = Op {
        conn: c,
        kind: OpKind::Stream { target },
        rtt_ns: 0,
        alarm_ns: None,
        reply: String::new(),
        alarm_event: None,
        sent_bytes: 0,
        recv_bytes: 0,
        done_ns: 0,
    };
    let push = Request::WatchPush {
        stream,
        increments: WATCH_WINDOW,
    };
    conn.send(&push.to_json().to_string())?;
    if !read_push(conn, start, &mut op)? {
        conn.send(&Request::WatchFinish { stream }.to_json().to_string())?;
        read_push(conn, start, &mut op)?;
    }
    op.rtt_ns = start.elapsed().as_nanos() as u64;
    op.sent_bytes = conn.sent_bytes - sent;
    op.recv_bytes = conn.recv_bytes - recv;
    Ok(op)
}

/// `watch`: every client streams one fresh program at a time.
pub fn watch(spec: &LoadSpec, supply: &FreshSupply) -> Phase {
    closed_loop(spec, |c, conn, _| {
        let (target, mut t) = supply.take(1);
        let t = t.pop().expect("one program");
        stream_one(conn, c, target, &t)
    })
}

/// A timed `classify` (with `"timings": true`) of each listed program,
/// sequentially on one connection: the server-side stage split for
/// programs a traced `watch` phase streamed.
pub fn probes(addr: &str, programs: &[(usize, Target)]) -> Phase {
    let mut phase = Phase::default();
    match Conn::connect(addr) {
        Ok(mut conn) => {
            for (target, t) in programs {
                let kind = OpKind::Probe { target: *target };
                match round_trip(&mut conn, 0, kind, &frame(&t.classify(), true)) {
                    Ok(op) => phase.ops.push(op),
                    Err(e) => phase.transport_errors.push(format!("probe: {e}")),
                }
            }
        }
        Err(e) => phase.transport_errors.push(format!("probe connect: {e}")),
    }
    phase
}
