//! An in-memory span recorder for traced runs: one span around each call
//! the benchmark makes into a layer, with name, start, end and parent;
//! spans of one request share a trace id. Spans stay in memory and are
//! written out once, at the end of the run.

use std::collections::HashMap;
use std::fs;
use std::path::Path;
use std::time::Instant;

use sca_telemetry::Json;

/// One recorded span; times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique id.
    pub id: u64,
    /// The request (or probed program) this span belongs to.
    pub trace: u64,
    /// The enclosing span, if any.
    pub parent: Option<u64>,
    /// Layer boundary, e.g. `builder.miss`.
    pub name: String,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch.
    pub end_ns: u64,
}

impl Span {
    /// Wall-clock duration.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The recorder.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty recorder whose epoch is now.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Nanoseconds since the epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn next_id(&self) -> u64 {
        (self.spans.len() + self.open.len()) as u64 + 1
    }

    /// Open a span as a child of the innermost open span; close it with
    /// [`Tracer::close`].
    pub fn open(&mut self, trace: u64, name: &str) -> u64 {
        let id = self.next_id();
        let parent = self.open.last().map(|s| s.id);
        let start_ns = self.now_ns();
        self.open.push(Span {
            id,
            trace,
            parent,
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
        });
        id
    }

    /// Close the innermost open span, which must be `id`; returns its
    /// duration.
    pub fn close(&mut self, id: u64) -> u64 {
        let mut span = self.open.pop().expect("a span is open");
        assert_eq!(span.id, id, "spans close innermost first");
        span.end_ns = self.now_ns();
        let d = span.duration_ns();
        self.spans.push(span);
        d
    }

    /// Run `f` inside a span named `name`; returns `f`'s result and the
    /// span's duration.
    pub fn span<T>(&mut self, trace: u64, name: &str, f: impl FnOnce() -> T) -> (T, u64) {
        let id = self.open(trace, name);
        let out = f();
        let d = self.close(id);
        (out, d)
    }

    /// Record an already-finished span (e.g. one the program's own
    /// telemetry emitted), already mapped onto this tracer's clock.
    pub fn record(
        &mut self,
        trace: u64,
        parent: Option<u64>,
        name: &str,
        start_ns: u64,
        end_ns: u64,
    ) -> u64 {
        let id = self.next_id();
        self.spans.push(Span {
            id,
            trace,
            parent,
            name: name.to_string(),
            start_ns,
            end_ns,
        });
        id
    }

    /// Self times of every span named `name`, in microseconds.
    pub fn self_us(&self, name: &str) -> Vec<f64> {
        let selfs = self_times(&self.spans);
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| selfs[&s.id] as f64 / 1e3)
            .collect()
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let selfs = self_times(&self.spans);
        let mut out = String::new();
        for s in &self.spans {
            let line = Json::Obj(vec![
                ("id".into(), Json::Num(s.id as f64)),
                ("trace".into(), Json::Num(s.trace as f64)),
                (
                    "parent".into(),
                    s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                ),
                ("name".into(), Json::Str(s.name.clone())),
                ("start_ns".into(), Json::Num(s.start_ns as f64)),
                ("end_ns".into(), Json::Num(s.end_ns as f64)),
                ("self_ns".into(), Json::Num(selfs[&s.id] as f64)),
            ]);
            out.push_str(&line.to_string());
            out.push('\n');
        }
        fs::write(path, out)
    }
}

/// Self time of every span in `spans`: duration minus the union of its
/// children's intervals, clipped to its own.
pub fn self_times(spans: &[Span]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut kids: Vec<(u64, u64)> = children
                .get(&s.id)
                .map(|v| {
                    v.iter()
                        .map(|&(a, b)| (a.max(s.start_ns), b.min(s.end_ns)))
                        .filter(|(a, b)| a < b)
                        .collect()
                })
                .unwrap_or_default();
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = 0;
            for (a, b) in kids {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                }
                reach = reach.max(b);
            }
            (s.id, s.duration_ns().saturating_sub(covered))
        })
        .collect()
}
