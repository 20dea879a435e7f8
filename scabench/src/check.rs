//! The correctness gate: every detection the server sent must be
//! byte-identical to the in-process offline pipeline on the same input
//! (`ModelBuilder::build_cst` → `Detector::classify_model` →
//! `detection_json`), and every watch stream must match an in-process
//! `StreamSession` replay (alarm and final detection).

use std::path::Path;
use std::thread;

use sca_serve::protocol::parse_victim;
use sca_telemetry::Json;
use scaguard::{
    detection_json, index_sidecar_path, load_index, load_repository, Alarm, Detector, ModelBuilder,
    ModelingConfig, ShardedDetector, StreamConfig, StreamSession,
};

use crate::gen::Target;

/// The offline reference: the served repository, loaded the way the
/// server loads it (sidecar index attached, rebuilt when unusable).
#[derive(Clone)]
pub struct Oracle {
    /// The detector at the server's default threshold.
    pub detector: Detector,
}

impl Oracle {
    /// Load `repo` and its `.idx` sidecar.
    pub fn load(repo: &Path) -> Result<Oracle, String> {
        let repository = load_repository(repo).map_err(|e| e.to_string())?;
        let mut detector =
            Detector::new(repository, Detector::DEFAULT_THRESHOLD).map_err(|e| e.to_string())?;
        let index = match load_index(index_sidecar_path(repo)) {
            Ok(index) if index.matches(detector.repository()) => index,
            _ => detector.build_index(),
        };
        detector
            .set_index(index)
            .map_err(|_| "index does not match its repository".to_string())?;
        Ok(Oracle { detector })
    }

    /// The offline detection object for `t`, rendered.
    pub fn detection(&self, builder: &ModelBuilder, t: &Target) -> Result<String, String> {
        let program = sca_isa::assemble(&t.name, &t.source).map_err(|e| e.to_string())?;
        let victim = parse_victim(&t.victim)?;
        let model = builder
            .build_cst(&program, &victim)
            .map_err(|e| e.to_string())?;
        Ok(detection_json(&t.name, &self.detector.classify_model(&model)).to_string())
    }

    /// Replay `t` as a watch stream with the server's defaults (default
    /// increment, τ and k, no deadline), closed after at most `window`
    /// increments as the `watch` client closes it.
    pub fn stream(&self, t: &Target, window: u64) -> Result<StreamExpect, String> {
        let program = sca_isa::assemble(&t.name, &t.source).map_err(|e| e.to_string())?;
        let victim = parse_victim(&t.victim)?;
        let sharded = ShardedDetector::from_detector(self.detector.clone());
        let mut session = StreamSession::begin(
            &sharded,
            &program,
            &victim,
            &ModelingConfig::default(),
            &StreamConfig::default(),
        )
        .map_err(|e| e.to_string())?;
        for _ in 0..window {
            if session.push(None, None).map_err(|e| e.to_string())?.done {
                break;
            }
        }
        let detection = session.detection(None).map_err(|e| e.to_string())?;
        Ok(StreamExpect {
            alarm: session.alarm().map(|a| alarm_json(a).to_string()),
            increments: session.increments(),
            steps: session.steps(),
            detection: detection_json(program.name(), &detection).to_string(),
        })
    }
}

/// The wire rendering of a fired alarm (the `alarm` object of `alarm` and
/// `done` events).
pub fn alarm_json(alarm: &Alarm) -> Json {
    Json::Obj(vec![
        ("at_step".into(), Json::Num(alarm.at_step as f64)),
        ("at_increment".into(), Json::Num(alarm.at_increment as f64)),
        ("family".into(), Json::Str(alarm.family.to_string())),
        ("poc".into(), Json::Str(alarm.poc.to_string())),
        ("score".into(), Json::Num(alarm.score)),
    ])
}

/// What an in-process replay says a stream must report.
#[derive(Debug, Clone)]
pub struct StreamExpect {
    /// The rendered alarm, if the policy fires.
    pub alarm: Option<String>,
    /// Increments committed before the stream closed.
    pub increments: u64,
    /// Committed instructions at the end.
    pub steps: u64,
    /// The rendered final detection.
    pub detection: String,
}

/// Map `f` over `items` on `threads` threads, each with its own clone of
/// the oracle (the detector's scan state is per instance) and its own
/// cold builder. Results come back in `items` order.
pub fn par_map<T: Sync, R: Send>(
    oracle: &Oracle,
    items: &[T],
    threads: usize,
    f: impl Fn(&Oracle, &ModelBuilder, &T) -> R + Sync,
) -> Vec<R> {
    let chunk = items.len().div_ceil(threads.max(1)).max(1);
    thread::scope(|s| {
        let handles: Vec<_> = items
            .chunks(chunk)
            .map(|part| {
                let f = &f;
                let oracle = oracle.clone();
                s.spawn(move || {
                    let builder = ModelBuilder::new(&ModelingConfig::default());
                    part.iter()
                        .map(|t| f(&oracle, &builder, t))
                        .collect::<Vec<R>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("gate thread"))
            .collect()
    })
}

/// The verdict of one served detection against its expected bytes:
/// `Ok(is_attack)` or a description of the mismatch.
pub fn check_detection(
    served: Option<&Json>,
    expected: &Result<String, String>,
) -> Result<bool, String> {
    let served = served.ok_or("reply carries no detection")?;
    let expected = expected
        .as_ref()
        .map_err(|e| format!("offline pipeline failed: {e}"))?;
    let got = served.to_string();
    if &got != expected {
        return Err(format!(
            "detection differs from offline:\n  wire:    {got}\n  offline: {expected}"
        ));
    }
    Ok(served.get("attack") == Some(&Json::Bool(true)))
}

/// Parse a reply frame and require `"ok": true`.
pub fn ok_reply(reply: &str) -> Result<Json, String> {
    let frame = Json::parse(reply).map_err(|e| format!("unparseable reply: {e}"))?;
    if frame.get("ok") != Some(&Json::Bool(true)) {
        return Err(format!("error reply: {reply}"));
    }
    Ok(frame)
}

/// Check one stream's terminal `done` event (and its `alarm` event, if
/// any) against the replay. `Ok(alarmed)` when everything matches.
pub fn check_stream(
    done: &str,
    alarm_event: Option<&str>,
    expected: &Result<StreamExpect, String>,
) -> Result<bool, String> {
    let expected = expected
        .as_ref()
        .map_err(|e| format!("offline replay failed: {e}"))?;
    let done = ok_reply(done)?;
    let field = |k: &str| done.get(k).map(Json::to_string).unwrap_or_default();
    if field("event") != "\"done\"" {
        return Err(format!("stream ended without a done event: {done}"));
    }
    let mismatch = |what: &str, got: String, want: String| {
        Err(format!(
            "stream {what} differs from replay:\n  wire:   {got}\n  replay: {want}"
        ))
    };
    if field("increments") != expected.increments.to_string() {
        return mismatch(
            "increments",
            field("increments"),
            expected.increments.to_string(),
        );
    }
    if field("steps") != expected.steps.to_string() {
        return mismatch("steps", field("steps"), expected.steps.to_string());
    }
    if field("detection") != expected.detection {
        return mismatch("detection", field("detection"), expected.detection.clone());
    }
    let want_alarm = expected.alarm.clone().unwrap_or_default();
    if field("alarm") != want_alarm {
        return mismatch("latched alarm", field("alarm"), want_alarm);
    }
    let pushed = match alarm_event {
        Some(line) => ok_reply(line)?
            .get("alarm")
            .map(Json::to_string)
            .unwrap_or_default(),
        None => String::new(),
    };
    if pushed != want_alarm {
        return mismatch("alarm event", pushed, want_alarm);
    }
    Ok(expected.alarm.is_some())
}
