//! End-to-end tests for the resident detection service: wire/offline
//! byte-identity, admission control under load, deadline enforcement,
//! atomic hot reload, and protocol robustness.

use std::collections::BTreeSet;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread;
use std::time::Duration;

use sca_attacks::poc::{self, PocParams};
use sca_attacks::{AttackFamily, Sample};
use sca_serve::protocol::{
    self, error_kind, is_ok, Request, KIND_BAD_REQUEST, KIND_DEADLINE_EXCEEDED, KIND_OVERLOADED,
};
use sca_serve::{spawn, Client, ServeConfig, WatchOptions};
use sca_telemetry::Json;
use scaguard::{
    detection_json, load_repository, save_repository, Detector, ModelBuilder, ModelRepository,
    ModelingConfig,
};

/// Shared on-disk fixtures: a repository of all four PoC families and a
/// target program's assembly source.
struct Fixture {
    dir: PathBuf,
    repo_all: PathBuf,
    target_src: String,
    pocs: Vec<(AttackFamily, Sample)>,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let dir = std::env::temp_dir().join(format!("sca-serve-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tempdir");
        let params = PocParams::default();
        let pocs: Vec<(AttackFamily, Sample)> = AttackFamily::ALL
            .iter()
            .map(|&f| (f, poc::representative(f, &params)))
            .collect();
        let repo_all = dir.join("all.repo");
        save_pocs(&pocs, &repo_all);
        let target_src = poc::flush_reload_iaik(&params).program.disasm();
        Fixture {
            dir,
            repo_all,
            target_src,
            pocs,
        }
    })
}

fn save_pocs(pocs: &[(AttackFamily, Sample)], path: &Path) {
    let cfg = ModelingConfig::default();
    let mut repo = ModelRepository::new();
    for (family, sample) in pocs {
        repo.add_poc(*family, &sample.program, &sample.victim, &cfg)
            .expect("model poc");
    }
    save_repository(&repo, path).expect("save repo");
}

fn classify_request(name: &str, sleep_ms: u64, deadline_ms: Option<u64>) -> Request {
    let fx = fixture();
    Request::Classify {
        name: name.into(),
        program: fx.target_src.clone(),
        victim: "shared:3".into(),
        threshold: None,
        deadline_ms,
        debug_sleep_ms: sleep_ms,
        debug_panic: false,
    }
}

/// The set of PoC names a detection response scored against.
fn score_pocs(frame: &Json) -> BTreeSet<String> {
    let scores = frame
        .get("detection")
        .and_then(|d| d.get("scores"))
        .expect("detection.scores");
    match scores {
        Json::Arr(items) => items
            .iter()
            .map(|s| s.get("poc").and_then(Json::as_str).unwrap().to_string())
            .collect(),
        _ => panic!("scores is not an array"),
    }
}

fn generation(frame: &Json) -> u64 {
    frame
        .get("repo")
        .and_then(|r| r.get("generation"))
        .and_then(Json::as_u64)
        .expect("repo.generation")
}

#[test]
fn wire_detection_is_byte_identical_to_offline_json() {
    let fx = fixture();
    let handle = spawn(ServeConfig::new(&fx.repo_all)).expect("spawn server");
    let mut client = Client::connect(handle.addr()).expect("connect");

    let resp = client
        .classify("target", &fx.target_src, "shared:3")
        .expect("classify");
    assert!(is_ok(&resp), "unexpected failure: {resp}");
    let wire = resp.get("detection").expect("detection field").to_string();

    // The offline path: fresh builder, fresh detector, same inputs —
    // exactly what `scaguard classify --json` runs.
    let repo = load_repository(&fx.repo_all).expect("load repo");
    let detector = Detector::new(repo, Detector::DEFAULT_THRESHOLD).expect("threshold in range");
    let builder = ModelBuilder::new(&ModelingConfig::default());
    let program = sca_isa::assemble("target", &fx.target_src).expect("assemble");
    let victim = protocol::parse_victim("shared:3").expect("victim");
    let model = builder.build_cst(&program, &victim).expect("model");
    let offline = detection_json("target", &detector.classify_model(&model)).to_string();

    assert_eq!(wire, offline, "wire and offline detections diverge");
    // Sanity: the Flush+Reload variant is detected as an attack.
    assert_eq!(
        resp.get("detection").unwrap().get("attack"),
        Some(&Json::Bool(true))
    );

    handle.shutdown();
    handle.join();
}

#[test]
fn repeated_classifications_hit_the_resident_model_cache() {
    let fx = fixture();
    let handle = spawn(ServeConfig::new(&fx.repo_all)).expect("spawn server");
    let mut client = Client::connect(handle.addr()).expect("connect");

    let first = client
        .classify("target", &fx.target_src, "shared:3")
        .expect("first");
    let second = client
        .classify("target", &fx.target_src, "shared:3")
        .expect("second");
    // The envelope's trace_id is unique per request; the detections
    // themselves must be identical.
    assert_ne!(
        sca_serve::trace_id(&first),
        sca_serve::trace_id(&second),
        "trace ids must be unique per request"
    );
    assert_eq!(
        first.get("detection").expect("detection").to_string(),
        second.get("detection").expect("detection").to_string()
    );

    let stats = client.stats().expect("stats");
    let cached = stats
        .get("stats")
        .and_then(|s| s.get("model_cache_entries"))
        .and_then(Json::as_u64)
        .expect("model_cache_entries");
    assert!(cached >= 1, "resident builder cached nothing");
    assert_eq!(handle.stats().completed, 2);

    handle.shutdown();
    handle.join();
}

#[test]
fn full_queue_sheds_excess_requests_with_overloaded() {
    let fx = fixture();
    let mut cfg = ServeConfig::new(&fx.repo_all);
    cfg.workers = 1;
    cfg.queue_depth = 1;
    let handle = spawn(cfg).expect("spawn server");
    let addr = handle.addr();

    // Occupy the single worker for long enough that the burst below
    // arrives while it is busy.
    let blocker = thread::spawn(move || {
        let mut c = Client::connect(addr).expect("connect");
        c.send(&classify_request("blocker", 900, None))
            .expect("blocker reply")
    });
    thread::sleep(Duration::from_millis(200));

    let burst: Vec<_> = (0..4)
        .map(|i| {
            thread::spawn(move || {
                let mut c = Client::connect(addr).expect("connect");
                c.send(&classify_request(&format!("burst-{i}"), 300, None))
                    .expect("burst reply")
            })
        })
        .collect();
    let responses: Vec<Json> = burst.into_iter().map(|t| t.join().unwrap()).collect();

    // Every request was answered (nothing hung); with one worker busy
    // and one queue slot, at least one of the four must have been shed.
    let shed = responses
        .iter()
        .filter(|r| error_kind(r) == Some(KIND_OVERLOADED))
        .count();
    let served = responses.iter().filter(|r| is_ok(r)).count();
    assert!(shed >= 1, "no request was shed: {responses:?}");
    assert_eq!(shed + served, 4, "unexpected outcome mix: {responses:?}");
    assert!(is_ok(&blocker.join().unwrap()));
    assert!(handle.stats().shed >= 1);

    handle.shutdown();
    handle.join();
}

#[test]
fn deadlines_abort_requests_without_altering_results() {
    let fx = fixture();
    let handle = spawn(ServeConfig::new(&fx.repo_all)).expect("spawn server");
    let mut client = Client::connect(handle.addr()).expect("connect");

    // An expired deadline (1 ms budget, 80 ms of work) aborts with a
    // structured error, not a hang or a dropped connection.
    let expired = client
        .send(&classify_request("late", 80, Some(1)))
        .expect("reply");
    assert_eq!(error_kind(&expired), Some(KIND_DEADLINE_EXCEEDED));
    assert!(handle.stats().deadline_exceeded >= 1);

    // A generous deadline changes nothing: byte-identical detection.
    let with = client
        .send(&classify_request("target", 0, Some(60_000)))
        .expect("reply");
    let without = client
        .send(&classify_request("target", 0, None))
        .expect("reply");
    assert!(is_ok(&with), "generous deadline failed: {with}");
    assert_eq!(
        with.get("detection").unwrap().to_string(),
        without.get("detection").unwrap().to_string()
    );

    handle.shutdown();
    handle.join();
}

#[test]
fn hot_reload_swaps_repositories_atomically_mid_traffic() {
    let fx = fixture();
    let set_a: Vec<_> = fx.pocs[..2].to_vec();
    let set_b: Vec<_> = fx.pocs[2..].to_vec();
    let names_a: BTreeSet<String> = set_a.iter().map(|(_, s)| s.name().to_string()).collect();
    let names_b: BTreeSet<String> = set_b.iter().map(|(_, s)| s.name().to_string()).collect();
    let hot = fx.dir.join("hot.repo");
    save_pocs(&set_a, &hot);

    let handle = spawn(ServeConfig::new(&hot)).expect("spawn server");
    let addr = handle.addr();

    // Background traffic classifying as fast as it can while the swap
    // happens. Every response must be computed against exactly one
    // repository generation: generation 1 scores only set A, generation
    // 2 scores only set B — never a mixture.
    let stop = Arc::new(AtomicBool::new(false));
    let traffic: Vec<_> = (0..2)
        .map(|i| {
            let stop = Arc::clone(&stop);
            thread::spawn(move || {
                let mut c = Client::connect(addr).expect("connect");
                let mut seen = Vec::new();
                while !stop.load(Ordering::Relaxed) {
                    let resp = c
                        .send(&classify_request(&format!("traffic-{i}"), 0, None))
                        .expect("reply");
                    assert!(is_ok(&resp), "traffic request failed: {resp}");
                    seen.push((generation(&resp), score_pocs(&resp)));
                }
                seen
            })
        })
        .collect();

    thread::sleep(Duration::from_millis(150));
    save_pocs(&set_b, &hot);
    let mut control = Client::connect(addr).expect("connect");
    let reload = control.reload_repo(None).expect("reload");
    assert!(is_ok(&reload), "reload failed: {reload}");
    assert_eq!(generation(&reload), 2);
    thread::sleep(Duration::from_millis(150));
    stop.store(true, Ordering::Relaxed);

    let mut saw = BTreeSet::new();
    for t in traffic {
        for (generation, pocs) in t.join().unwrap() {
            match generation {
                1 => assert_eq!(pocs, names_a, "generation 1 answered with wrong entries"),
                2 => assert_eq!(pocs, names_b, "generation 2 answered with wrong entries"),
                g => panic!("unexpected generation {g}"),
            }
            saw.insert(generation);
        }
    }
    assert!(saw.contains(&1), "no pre-reload response observed");

    // After the acknowledged reload, answers come from set B.
    let after = control
        .send(&classify_request("after", 0, None))
        .expect("reply");
    assert_eq!(generation(&after), 2);
    assert_eq!(score_pocs(&after), names_b);
    assert_eq!(handle.stats().reloads, 1);

    handle.shutdown();
    handle.join();
}

#[test]
fn reload_failure_keeps_current_repository_live() {
    let fx = fixture();
    let handle = spawn(ServeConfig::new(&fx.repo_all)).expect("spawn server");
    let mut client = Client::connect(handle.addr()).expect("connect");

    let missing = fx.dir.join("nope.repo");
    let resp = client
        .reload_repo(Some(missing.to_str().unwrap()))
        .expect("reply");
    assert_eq!(error_kind(&resp), Some("reload_failed"));
    let message = resp
        .get("error")
        .and_then(|e| e.get("message"))
        .and_then(Json::as_str)
        .unwrap();
    assert!(
        message.contains("nope.repo"),
        "error does not name the file: {message}"
    );

    // Still generation 1, still serving.
    let resp = client
        .send(&classify_request("target", 0, None))
        .expect("reply");
    assert!(is_ok(&resp));
    assert_eq!(generation(&resp), 1);

    handle.shutdown();
    handle.join();
}

#[test]
fn malformed_frames_get_structured_errors_and_the_connection_survives() {
    let fx = fixture();
    let handle = spawn(ServeConfig::new(&fx.repo_all)).expect("spawn server");

    let stream = TcpStream::connect(handle.addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    let mut roundtrip = |frame: &str| -> Json {
        writeln!(writer, "{frame}").expect("write");
        writer.flush().expect("flush");
        let mut line = String::new();
        reader.read_line(&mut line).expect("read");
        Json::parse(line.trim_end()).expect("response is JSON")
    };

    for bad in [
        "this is not json",
        "{\"cmd\":\"wat\"}",
        "{\"cmd\":\"classify\"}",
        "{\"cmd\":\"classify\",\"program\":\"  halt\\n\",\"deadline_ms\":-1}",
        "[1,2,3]",
    ] {
        let resp = roundtrip(bad);
        assert_eq!(
            error_kind(&resp),
            Some(KIND_BAD_REQUEST),
            "frame {bad:?} got {resp}"
        );
        let message = resp
            .get("error")
            .and_then(|e| e.get("message"))
            .and_then(Json::as_str)
            .unwrap();
        assert!(!message.is_empty());
    }

    // A work request with an unknown victim kind fails in the worker
    // with the same structured shape.
    let resp = roundtrip(
        "{\"cmd\":\"classify\",\"name\":\"x\",\"program\":\"  halt\\n\",\"victim\":\"wat:1\"}",
    );
    assert_eq!(error_kind(&resp), Some(KIND_BAD_REQUEST));

    // The connection is still good.
    let resp = roundtrip("{\"cmd\":\"ping\"}");
    assert!(is_ok(&resp));

    handle.shutdown();
    handle.join();
}

#[test]
fn stats_reports_counters_and_shutdown_joins_cleanly() {
    let fx = fixture();
    let mut cfg = ServeConfig::new(&fx.repo_all);
    cfg.workers = 2;
    cfg.queue_depth = 8;
    let handle = spawn(cfg).expect("spawn server");
    let mut client = Client::connect(handle.addr()).expect("connect");

    let pong = client.ping().expect("ping");
    assert!(is_ok(&pong));
    assert_eq!(
        pong.get("protocol").and_then(Json::as_u64),
        Some(sca_serve::PROTOCOL_VERSION)
    );

    client
        .send(&classify_request("target", 0, None))
        .expect("classify");
    let resp = client
        .model("target", &fixture().target_src, "shared:3")
        .expect("model");
    assert!(is_ok(&resp));
    assert!(resp
        .get("model")
        .and_then(Json::as_str)
        .unwrap()
        .contains("step"));

    let stats = client.stats().expect("stats");
    let s = stats.get("stats").expect("stats object");
    assert_eq!(s.get("received").and_then(Json::as_u64), Some(2));
    assert_eq!(s.get("completed").and_then(Json::as_u64), Some(2));
    assert_eq!(s.get("workers").and_then(Json::as_u64), Some(2));
    assert_eq!(s.get("queue_capacity").and_then(Json::as_u64), Some(8));
    assert_eq!(
        stats
            .get("repo")
            .and_then(|r| r.get("entries"))
            .and_then(Json::as_u64),
        Some(4)
    );

    let resp = client.shutdown().expect("shutdown");
    assert!(is_ok(&resp));
    handle.join();
}

/// Drive a watch stream to its `done` event (bounded) and return it.
fn watch_to_done(client: &mut Client, name: &str, src: &str) -> Json {
    let ack = client
        .watch_open(name, src, "shared:3", &WatchOptions::default())
        .expect("watch open");
    assert!(is_ok(&ack), "watch refused: {ack}");
    let stream = ack.get("stream").and_then(Json::as_u64).expect("stream id");
    for _ in 0..500 {
        let events = client.watch_push(stream, 8).expect("watch push");
        if let Some(done) = events
            .into_iter()
            .find(|e| e.get("event").and_then(Json::as_str) == Some("done"))
        {
            return done;
        }
    }
    panic!("watch stream {name} never reached its done event");
}

#[test]
fn concurrent_clients_detections_match_offline() {
    let fx = fixture();
    // The offline path, once per target: what `scaguard classify --json`
    // prints. Targets include each family's PoC and the shared fixture
    // program, so both attack and near-miss shapes cross the wire.
    let repo = load_repository(&fx.repo_all).expect("load repo");
    let detector = Detector::new(repo, Detector::DEFAULT_THRESHOLD).expect("threshold");
    let builder = ModelBuilder::new(&ModelingConfig::default());
    let victim = protocol::parse_victim("shared:3").expect("victim");
    let targets: Vec<(String, String)> = fx
        .pocs
        .iter()
        .map(|(f, s)| (format!("poc-{f}"), s.program.disasm()))
        .chain([("target".to_string(), fx.target_src.clone())])
        .collect();
    let offline: Vec<String> = targets
        .iter()
        .map(|(name, src)| {
            let program = sca_isa::assemble(name, src).expect("assemble");
            let model = builder.build_cst(&program, &victim).expect("model");
            detection_json(name, &detector.classify_model(&model)).to_string()
        })
        .collect();

    // One default server; plain classifies, pipelined classify-batch
    // frames, and a watch stream all in flight at once, every
    // detection byte-identical to offline.
    let handle = spawn(ServeConfig::new(&fx.repo_all)).expect("spawn server");
    let addr = handle.addr();
    let (targets, offline) = (&targets, &offline);
    thread::scope(|s| {
        for k in 0..2 {
            s.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                for round in 0..3 {
                    for ((name, src), want) in targets
                        .iter()
                        .zip(offline)
                        .cycle()
                        .skip(k)
                        .take(targets.len())
                    {
                        let resp = client.classify(name, src, "shared:3").expect("classify");
                        assert!(is_ok(&resp), "classify failed: {resp}");
                        let wire = resp.get("detection").expect("detection").to_string();
                        assert_eq!(
                            want, &wire,
                            "client {k} round {round} target={name}: wire diverged from offline"
                        );
                    }
                }
            });
        }
        s.spawn(move || {
            let mut client = Client::connect(addr).expect("connect");
            let batch = Request::ClassifyBatch {
                programs: targets
                    .iter()
                    .map(|(name, src)| sca_serve::BatchProgram {
                        name: name.clone(),
                        program: src.clone(),
                        victim: "shared:3".into(),
                        threshold: None,
                    })
                    .collect(),
                deadline_ms: None,
                debug_sleep_ms: 0,
            };
            let frames = vec![batch.to_json(); 4];
            for (f, response) in client
                .pipeline(&frames)
                .expect("pipeline")
                .iter()
                .enumerate()
            {
                assert!(is_ok(response), "batch frame {f} failed: {response}");
                let Some(Json::Arr(results)) = response.get("results") else {
                    panic!("batch frame {f} has no results: {response}");
                };
                assert_eq!(results.len(), targets.len());
                for (((name, _), want), result) in targets.iter().zip(offline).zip(results) {
                    let wire = result.get("detection").expect("detection").to_string();
                    assert_eq!(
                        want, &wire,
                        "batch frame {f} target={name}: wire diverged from offline"
                    );
                }
            }
        });
        s.spawn(move || {
            let mut client = Client::connect(addr).expect("connect");
            let (name, src) = &targets[0];
            let done = watch_to_done(&mut client, name, src);
            assert_eq!(
                done.get("done"),
                Some(&Json::Bool(true)),
                "trace must run to its end"
            );
            let wire = done
                .get("detection")
                .expect("detection on done")
                .to_string();
            assert_eq!(
                &offline[0], &wire,
                "watch {name}: streamed detection diverged from offline"
            );
        });
    });

    let stats = handle.stats();
    assert_eq!(stats.shed, 0, "{stats:?}");
    assert_eq!(stats.panics, 0, "{stats:?}");
    // Workers scan inline: the server runs no scan threads of its own.
    if let Ok(tasks) = std::fs::read_dir("/proc/self/task") {
        for task in tasks.flatten() {
            let comm = std::fs::read_to_string(task.path().join("comm")).unwrap_or_default();
            assert!(
                !comm.starts_with("sca-serve-shar"),
                "scan thread {comm:?} is running"
            );
        }
    }
    handle.shutdown();
    handle.join();
}

#[test]
fn classify_batch_returns_per_program_results_in_submission_order() {
    let fx = fixture();
    let handle = spawn(ServeConfig::new(&fx.repo_all)).expect("spawn server");
    let mut client = Client::connect(handle.addr()).expect("connect");

    // One attack, one benign, one per-program failure (unknown victim
    // kind), then another attack: the failure must not poison siblings,
    // and results must come back in submission order.
    let programs = vec![
        sca_serve::BatchProgram {
            name: "first".into(),
            program: fx.target_src.clone(),
            victim: "shared:3".into(),
            threshold: None,
        },
        sca_serve::BatchProgram {
            name: "benign".into(),
            program: "  halt\n".into(),
            victim: "shared:3".into(),
            threshold: None,
        },
        sca_serve::BatchProgram {
            name: "broken".into(),
            program: fx.target_src.clone(),
            victim: "wat:1".into(),
            threshold: None,
        },
        sca_serve::BatchProgram {
            name: "last".into(),
            program: fx.target_src.clone(),
            victim: "shared:3".into(),
            threshold: Some(0.9),
        },
    ];
    let results = client.submit_batch(&programs).expect("batch");
    assert_eq!(results.len(), programs.len());

    // Each successful slot is byte-identical to the same program sent
    // through a plain classify frame.
    for (i, p) in programs.iter().enumerate() {
        if p.name == "broken" {
            continue;
        }
        let solo = client
            .send(&Request::Classify {
                name: p.name.clone(),
                program: p.program.clone(),
                victim: p.victim.clone(),
                threshold: p.threshold,
                deadline_ms: None,
                debug_sleep_ms: 0,
                debug_panic: false,
            })
            .expect("solo classify");
        assert!(is_ok(&solo), "solo classify failed: {solo}");
        let batched = results[i].get("detection").expect("detection in slot");
        assert_eq!(
            batched
                .get("program")
                .and_then(Json::as_str)
                .expect("program name"),
            p.name,
            "slot {i} out of submission order"
        );
        assert_eq!(
            batched.to_string(),
            solo.get("detection").unwrap().to_string(),
            "slot {i} ({}) diverged from the solo classify",
            p.name
        );
    }
    let err = results[2].get("error").expect("error object in slot 2");
    assert_eq!(
        err.get("kind").and_then(Json::as_str),
        Some(KIND_BAD_REQUEST)
    );
    assert!(err
        .get("message")
        .and_then(Json::as_str)
        .unwrap()
        .contains("wat"));

    // The whole batch was one queue slot: 1 batch + 3 solo classifies.
    assert_eq!(handle.stats().received, 4);
    assert_eq!(handle.stats().completed, 4);
    handle.shutdown();
    handle.join();
}

#[test]
fn pipelined_responses_may_arrive_out_of_order_and_reassemble_in_order() {
    let fx = fixture();
    let handle = spawn(ServeConfig::new(&fx.repo_all)).expect("spawn server");

    // Raw socket first, to observe the wire order: a slow request tagged
    // id 0 followed by two fast ones. With 4 workers the fast responses
    // overtake the slow one, so the first frame off the wire is not id 0.
    let stream = TcpStream::connect(handle.addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    for (id, sleep) in [(0u64, 500u64), (1, 0), (2, 0)] {
        let frame = sca_serve::with_request_id(
            classify_request(&format!("p{id}"), sleep, None).to_json(),
            &Json::Num(id as f64),
        );
        writeln!(writer, "{frame}").expect("write");
    }
    writer.flush().expect("flush");
    let mut wire_order = Vec::new();
    for _ in 0..3 {
        let mut line = String::new();
        reader.read_line(&mut line).expect("read");
        let resp = Json::parse(line.trim_end()).expect("response is JSON");
        assert!(is_ok(&resp), "pipelined request failed: {resp}");
        let id = sca_serve::request_id(&resp)
            .and_then(|id| id.as_u64())
            .expect("response carries its request id");
        let name = resp
            .get("detection")
            .and_then(|d| d.get("program"))
            .and_then(Json::as_str)
            .expect("detection.program")
            .to_string();
        assert_eq!(name, format!("p{id}"), "id routed to the wrong program");
        wire_order.push(id);
    }
    let mut sorted = wire_order.clone();
    sorted.sort_unstable();
    assert_eq!(sorted, vec![0, 1, 2], "a response was lost or duplicated");
    assert_ne!(
        wire_order[0], 0,
        "the slow request was first off the wire — no pipelining observed"
    );
    drop(writer);

    // The blocking client hides the reordering: responses come back in
    // submission order regardless of completion order.
    let mut client = Client::connect(handle.addr()).expect("connect");
    let frames: Vec<Json> = [("slow", 300u64), ("mid", 0), ("quick", 0)]
        .iter()
        .map(|(name, sleep)| classify_request(name, *sleep, None).to_json())
        .collect();
    let responses = client.pipeline(&frames).expect("pipeline");
    let names: Vec<&str> = responses
        .iter()
        .map(|r| {
            assert!(is_ok(r), "pipelined request failed: {r}");
            r.get("detection")
                .and_then(|d| d.get("program"))
                .and_then(Json::as_str)
                .expect("detection.program")
        })
        .collect();
    assert_eq!(names, ["slow", "mid", "quick"]);

    handle.shutdown();
    handle.join();
}
