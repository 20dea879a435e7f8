//! In-process layer probes for traced runs: the benchmark calls each
//! layer's public functions on the workload's own programs and
//! repository, with a span around every call, so the per-layer numbers
//! come from the same inputs the server saw.

use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::path::Path;

use sca_cfg::Cfg;
use sca_cpu::Machine;
use sca_serve::protocol::parse_victim;
use scaguard::{
    index_sidecar_path, load_index, load_repository, Detector, ModelBuilder, ModelingConfig,
    ShardedDetector, StreamConfig, StreamSession, StreamingModeler,
};

use crate::check::Oracle;
use crate::gen::Target;
use crate::stats::median;
use crate::trace::Tracer;

/// Repetitions of sub-microsecond calls per timed span.
const FAST_REPS: u32 = 64;
/// Repetitions of repository loads.
const LOAD_REPS: u64 = 5;
/// Increments streamed per program, at most.
const MAX_INCREMENTS: u64 = 512;

/// The program-telemetry stages reported as `modeling.<stage>_us`.
const MODELING_STAGES: [(&str, &str); 5] = [
    ("pipeline.execute", "modeling.execute_us"),
    ("pipeline.collect", "modeling.collect_us"),
    ("pipeline.model.relevant_bb", "modeling.relevant_bb_us"),
    ("pipeline.model.graph", "modeling.graph_us"),
    ("pipeline.model.cst_replay", "modeling.cst_replay_us"),
];

/// One per-layer number.
pub type Metric = (&'static str, f64, &'static str);

fn med(v: &[f64]) -> f64 {
    median(v).unwrap_or(0.0)
}

/// Time `reps` calls of `f` inside one span; returns µs per call.
fn per_call_us(tracer: &mut Tracer, trace: u64, name: &str, reps: u32, mut f: impl FnMut()) -> f64 {
    let (_, ns) = tracer.span(trace, name, || {
        for _ in 0..reps {
            f();
        }
    });
    ns as f64 / 1e3 / f64::from(reps)
}

/// Probe every layer on `programs` against the repository at `repo`.
/// `trace_base` keeps the probes' trace ids apart from the wire requests'.
pub fn probe(
    tracer: &mut Tracer,
    repo: &Path,
    oracle: &Oracle,
    programs: &[Target],
    trace_base: u64,
) -> Result<Vec<Metric>, String> {
    let mut out: Vec<Metric> = Vec::new();
    let cfg = ModelingConfig::default();

    // Set-up layers: repository load, index load, detector preparation.
    let (mut load_repo, mut load_idx, mut prepare) = (Vec::new(), Vec::new(), Vec::new());
    for r in 0..LOAD_REPS {
        let trace = trace_base + r;
        let root = tracer.open(trace, "probe.setup");
        let (repository, ns) = tracer.span(trace, "persist.load_repo", || load_repository(repo));
        let repository = repository.map_err(|e| e.to_string())?;
        load_repo.push(ns as f64 / 1e6);
        let (_, ns) = tracer.span(trace, "persist.load_index", || {
            load_index(index_sidecar_path(repo))
        });
        load_idx.push(ns as f64 / 1e6);
        let (detector, ns) = tracer.span(trace, "detector.prepare", || {
            Detector::new(repository, Detector::DEFAULT_THRESHOLD)
        });
        detector.map_err(|e| e.to_string())?;
        prepare.push(ns as f64 / 1e6);
        tracer.close(root);
    }
    out.push(("persist.load_repo_ms", med(&load_repo), "ms"));
    out.push(("persist.load_index_ms", med(&load_idx), "ms"));
    out.push(("detector.prepare_ms", med(&prepare), "ms"));

    // Per-program layers. `timed` is the builder whose cost is measured
    // with telemetry off; `traced` builds the same programs with the
    // program's own pipeline spans on, for the per-stage split. Both
    // persist across programs, as the server's builder does, so replay
    // memo sharing is representative.
    let timed = ModelBuilder::new(&cfg);
    let traced = ModelBuilder::new(&cfg);
    let detector = oracle.detector.clone();
    let mut m: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let entries = detector.repository().len() as f64;
    for (i, t) in programs.iter().enumerate() {
        let trace = trace_base + LOAD_REPS + i as u64;
        let root = tracer.open(trace, "probe.program");
        let asm = per_call_us(tracer, trace, "asm.assemble", FAST_REPS, || {
            black_box(sca_isa::assemble(black_box(&t.name), black_box(&t.source)))
                .expect("generated programs assemble");
        });
        m.entry("asm.assemble_us").or_default().push(asm);
        let pv = per_call_us(tracer, trace, "protocol.parse_victim", FAST_REPS, || {
            black_box(parse_victim(black_box(&t.victim))).expect("generated victim specs parse");
        });
        m.entry("protocol.parse_victim_us").or_default().push(pv);
        let program = sca_isa::assemble(&t.name, &t.source).map_err(|e| e.to_string())?;
        let victim = parse_victim(&t.victim)?;

        let (trace_out, ns) = tracer.span(trace, "machine.run", || {
            Machine::new(cfg.cpu.clone()).run(&program, &victim)
        });
        let run = trace_out.map_err(|e| e.to_string())?;
        m.entry("machine.run_us").or_default().push(ns as f64 / 1e3);
        m.entry("machine.steps").or_default().push(run.steps as f64);
        let (_, ns) = tracer.span(trace, "cfg.build", || Cfg::build(&program));
        m.entry("cfg.build_us").or_default().push(ns as f64 / 1e3);

        let (model, ns) = tracer.span(trace, "builder.miss", || timed.build_cst(&program, &victim));
        let model = model.map_err(|e| e.to_string())?;
        m.entry("builder.miss_us")
            .or_default()
            .push(ns as f64 / 1e3);
        let hit = per_call_us(tracer, trace, "builder.hit", FAST_REPS, || {
            black_box(timed.build_cst(black_box(&program), &victim)).expect("a cached model");
        });
        m.entry("builder.hit_us").or_default().push(hit);

        // The same miss with the program's pipeline spans on, mapped onto
        // the tracer's clock through an anchor span opened at a known
        // tracer time.
        let parent = tracer.open(trace, "builder.miss.traced");
        let anchor_ns = tracer.now_ns();
        let (_, snap) = sca_telemetry::collect(|| {
            drop(sca_telemetry::span("scabench.anchor"));
            traced.build_cst(&program, &victim)
        });
        tracer.close(parent);
        let anchor = snap
            .spans_named("scabench.anchor")
            .next()
            .map_or(0, |s| s.start_ns);
        let mut ids = HashMap::new();
        let mut spans: Vec<_> = snap
            .spans
            .iter()
            .filter(|s| s.name != "scabench.anchor")
            .collect();
        spans.sort_by_key(|s| s.start_ns);
        for s in spans {
            let start = anchor_ns + s.start_ns.saturating_sub(anchor);
            let p = s.parent.and_then(|p| ids.get(&p).copied()).or(Some(parent));
            let id = tracer.record(trace, p, &s.name, start, start + s.duration_ns);
            ids.insert(s.id, id);
        }

        // Scan: timed with telemetry off, counted with it on.
        let reps = 8;
        let (_, ns) = tracer.span(trace, "detector.scan", || {
            for _ in 0..reps {
                black_box(detector.classify_model(black_box(&model)));
            }
        });
        m.entry("detector.scan_us")
            .or_default()
            .push(ns as f64 / 1e3 / f64::from(reps));
        let (_, snap) = sca_telemetry::collect(|| detector.classify_model(&model));
        let count = |k: &str| snap.counters.get(k).copied().unwrap_or(0) as f64;
        m.entry("index.lb_evals")
            .or_default()
            .push(count("index.lb_evals"));
        m.entry("engine.dtw_cells")
            .or_default()
            .push(count("dtw.cells"));
        m.entry("index.full_dtw_frac")
            .or_default()
            .push(count("index.full_dtw_runs") / entries);

        // Streaming: the incremental modeler alone, then whole sessions.
        let mut modeler =
            StreamingModeler::begin(&program, &victim, &cfg).map_err(|e| e.to_string())?;
        let inc = StreamConfig::default().increment;
        for _ in 0..MAX_INCREMENTS {
            if modeler.is_done() {
                break;
            }
            let (_, ns) = tracer.span(trace, "stream.advance", || modeler.advance(inc));
            m.entry("stream.advance_us")
                .or_default()
                .push(ns as f64 / 1e3);
        }
        let sharded = ShardedDetector::from_detector(detector.clone());
        let mut session =
            StreamSession::begin(&sharded, &program, &victim, &cfg, &StreamConfig::default())
                .map_err(|e| e.to_string())?;
        for _ in 0..MAX_INCREMENTS {
            let (update, ns) = tracer.span(trace, "stream.score", || session.push(None, None));
            m.entry("stream.score_us")
                .or_default()
                .push(ns as f64 / 1e3);
            if update.map_err(|_| "stream deadline".to_string())?.done {
                break;
            }
        }
        if let Some(alarm) = session.alarm() {
            m.entry("stream.increments_to_alarm")
                .or_default()
                .push(alarm.at_increment as f64);
        }
        tracer.close(root);
    }

    let stats = traced.stats();
    let replays = stats.replays_memoized + stats.replays_simulated;
    out.push((
        "builder.replay_memo_frac",
        if replays == 0 {
            0.0
        } else {
            stats.replays_memoized as f64 / replays as f64
        },
        "ratio",
    ));
    for (stage, name) in MODELING_STAGES {
        out.push((name, med(&tracer.self_us(stage)), "us"));
    }
    let units = [
        ("asm.assemble_us", "us"),
        ("protocol.parse_victim_us", "us"),
        ("machine.run_us", "us"),
        ("machine.steps", "count"),
        ("cfg.build_us", "us"),
        ("builder.miss_us", "us"),
        ("builder.hit_us", "us"),
        ("detector.scan_us", "us"),
        ("index.lb_evals", "count"),
        ("engine.dtw_cells", "count"),
        ("index.full_dtw_frac", "ratio"),
        ("stream.advance_us", "us"),
        ("stream.score_us", "us"),
        ("stream.increments_to_alarm", "count"),
    ];
    for (name, unit) in units {
        out.push((name, med(m.get(name).map_or(&[][..], Vec::as_slice)), unit));
    }
    Ok(out)
}
