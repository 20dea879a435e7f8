//! The resident-service bench: `sca-serve` under concurrent client load
//! vs the single-shot pipeline every offline `scaguard classify` pays.
//!
//! Byte-exactness is asserted **before** any timing: for every target in
//! the workload, the detection object coming back over the wire must
//! render to exactly the bytes `detection_json` produces for the offline
//! pipeline on the same inputs. Only then are the two paths timed.
//!
//! The baseline is the *single-shot* cost of one classification the way
//! the offline CLI runs it: one OS process per request (the bench
//! re-executes itself in `--one-shot` mode), each loading the repository
//! from disk, constructing the detector (interning the repository into a
//! fresh similarity engine), building the target model with a cold
//! builder, and scanning — exactly the work a resident server amortizes:
//! process startup happens once, the builder cache stays warm, and the
//! detector stays prepared across requests.
//!
//! * `cargo run -p sca-bench --release --bin serve_bench` — full run;
//!   asserts the served throughput at `--workers 4` is >= 4x the
//!   single-shot baseline and writes `BENCH_serve.json` at the workspace
//!   root with throughput and p50/p90/p99/max latencies, computed with
//!   the same `sca_telemetry::Histogram` the server exposes over the
//!   `metrics` command.
//! * `... -- --smoke` — tiny workload, exactness assertions only (plus a
//!   pipelined `classify-batch` pass), no timing floor; the CI verify
//!   step runs this.
//!
//! The full run additionally sweeps batch size (1/8/32) against two
//! server replicas behind a tiny front door that round-robins
//! connections. Byte-exactness against the offline pipeline is asserted
//! before any timing; the sweep must finish with zero sheds and zero
//! panics, and batching must not lose throughput.
//! Cells are scored on the process CPU clock (utime+stime summed over
//! interleaved rounds, warmup discarded; wall clock where `/proc` is
//! unavailable) — everything in the sweep runs inside the bench
//! process, so CPU time prices a cell exactly while staying deaf to
//! other tenants of a shared box. The sweep rides into
//! `BENCH_serve.json` as a `sweep` array next to the legacy fields.

use std::io;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Instant;

use sca_attacks::dataset::mutated_family;
use sca_attacks::mutate::MutationConfig;
use sca_attacks::poc::{self, PocParams};
use sca_attacks::AttackFamily;
use sca_serve::{spawn, BatchProgram, Client, Request, ServeConfig, ServerHandle};
use sca_telemetry::Json;
use scaguard::{
    detection_json, load_repository, save_repository, Detector, ModelBuilder, ModelRepository,
    ModelingConfig,
};

const SEED: u64 = 0x5e47_e000;

/// One workload item: a named assembly source to classify.
struct Target {
    name: String,
    source: String,
}

/// The victim spec every request uses (same mapping as the CLI).
const VICTIM: &str = "shared:3";

fn build_repo(path: &PathBuf) {
    let cfg = ModelingConfig::default();
    let params = PocParams::default();
    let mut repo = ModelRepository::new();
    for family in AttackFamily::ALL {
        let s = poc::representative(family, &params);
        repo.add_poc(family, &s.program, &s.victim, &cfg)
            .expect("model poc");
    }
    save_repository(&repo, path).expect("save repo");
}

fn build_targets(per_family: usize) -> Vec<Target> {
    let mutation = MutationConfig::default();
    let mut targets = Vec::new();
    for family in AttackFamily::ALL {
        for sample in mutated_family(family, per_family, SEED, &mutation) {
            targets.push(Target {
                name: sample.program.name().to_string(),
                source: sample.program.disasm(),
            });
        }
    }
    targets
}

/// The in-process work of one offline classification, exactly as
/// `scaguard classify` runs it: cold repository, cold detector, cold
/// builder.
fn single_shot(repo_path: &PathBuf, name: &str, source: &str) -> String {
    let repo = load_repository(repo_path).expect("load repo");
    let detector = Detector::new(repo, Detector::DEFAULT_THRESHOLD).expect("threshold in range");
    let builder = ModelBuilder::new(&ModelingConfig::default());
    let program = sca_isa::assemble(name, source).expect("assemble");
    let victim = sca_serve::protocol::parse_victim(VICTIM).expect("victim");
    let model = builder.build_cst(&program, &victim).expect("model");
    detection_json(name, &detector.classify_model(&model)).to_string()
}

/// Build the sweep repository: the four representative PoCs plus
/// `per_family` enrolled mutated variants each (a different seed than
/// the workload targets, so the sweep never classifies an enrolled
/// duplicate). Returns the entry count.
fn build_sweep_repo(path: &PathBuf, per_family: usize) -> usize {
    let cfg = ModelingConfig::default();
    let params = PocParams::default();
    let mut repo = ModelRepository::new();
    for family in AttackFamily::ALL {
        let s = poc::representative(family, &params);
        repo.add_poc(family, &s.program, &s.victim, &cfg)
            .expect("model poc");
        for sample in mutated_family(
            family,
            per_family,
            SEED ^ 0xa5a5,
            &MutationConfig::default(),
        ) {
            repo.add_poc(family, &sample.program, &sample.victim, &cfg)
                .expect("model variant");
        }
    }
    let entries = repo.len();
    save_repository(&repo, path).expect("save sweep repo");
    entries
}

/// A tiny TCP front door: every accepted connection is relayed, bytes
/// both ways, to the next upstream replica in round-robin order. Stop
/// it by setting the flag and poking one last connection at the
/// returned address.
fn front_door(upstreams: Vec<SocketAddr>) -> (SocketAddr, Arc<AtomicBool>, thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind front door");
    let addr = listener.local_addr().expect("front door addr");
    let stop = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&stop);
    let pump = thread::spawn(move || {
        for (next, client) in listener.incoming().enumerate() {
            if flag.load(Ordering::Relaxed) {
                break;
            }
            let Ok(client) = client else { break };
            let upstream = upstreams[next % upstreams.len()];
            thread::spawn(move || {
                let Ok(server) = TcpStream::connect(upstream) else {
                    return;
                };
                // The relay must not add Nagle/delayed-ACK stalls on
                // multi-segment batch frames.
                let _ = client.set_nodelay(true);
                let _ = server.set_nodelay(true);
                let mut client_read = client.try_clone().expect("clone client");
                let mut server_write = server.try_clone().expect("clone server");
                let forward = thread::spawn(move || {
                    let _ = io::copy(&mut client_read, &mut server_write);
                    let _ = server_write.shutdown(Shutdown::Write);
                });
                let mut server_read = server;
                let mut client_write = client;
                let _ = io::copy(&mut server_read, &mut client_write);
                let _ = client_write.shutdown(Shutdown::Write);
                let _ = forward.join();
            });
        }
    });
    (addr, stop, pump)
}

/// Carve `count` programs (targets, cycled) into `batch`-sized
/// `classify-batch` payloads for one sweep client.
fn batch_payloads(
    targets: &[Target],
    count: usize,
    batch: usize,
    skew: usize,
) -> Vec<Vec<BatchProgram>> {
    let programs: Vec<BatchProgram> = (0..count)
        .map(|i| {
            let t = &targets[(skew + i) % targets.len()];
            BatchProgram {
                name: t.name.clone(),
                program: t.source.clone(),
                victim: VICTIM.into(),
                threshold: None,
            }
        })
        .collect();
    programs
        .chunks(batch)
        .map(<[BatchProgram]>::to_vec)
        .collect()
}

/// One timed sweep cell: `clients` threads, each submitting its share
/// of programs through the front door as `classify-batch` frames of
/// `batch` programs. Returns (wall_ns, cpu_ns if measurable, programs
/// served).
fn run_sweep_cell(
    door: SocketAddr,
    targets: &Arc<Vec<Target>>,
    clients: usize,
    per_client: usize,
    batch: usize,
) -> (u64, Option<u64>, usize) {
    let cpu_before = process_cpu_ns();
    let t = Instant::now();
    let threads: Vec<_> = (0..clients)
        .map(|c| {
            let targets = Arc::clone(targets);
            thread::spawn(move || {
                let mut client = Client::connect(door).expect("connect via front door");
                for payload in batch_payloads(&targets, per_client, batch, c * per_client) {
                    let results = client.submit_batch(&payload).expect("batch");
                    assert_eq!(results.len(), payload.len());
                }
            })
        })
        .collect();
    for t in threads {
        t.join().expect("sweep client");
    }
    let cpu = process_cpu_ns().zip(cpu_before).map(|(a, b)| a - b);
    (t.elapsed().as_nanos() as u64, cpu, clients * per_client)
}

/// Process-wide CPU time (user + system, across all threads) in
/// nanoseconds, from `/proc/self/stat`. `None` off Linux. Granularity
/// is one clock tick (10 ms at the universal USER_HZ=100), so cells
/// accumulate CPU over many rounds to average the quantization out.
/// The whole sweep — clients, front door, both server replicas — runs
/// inside this one process, so this clock captures the full cost of a
/// cell while ignoring other tenants of a shared box.
fn process_cpu_ns() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // comm (field 2) may contain spaces; fields resume after the last ')'.
    let rest = stat.rsplit(')').next()?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) * 10_000_000)
}

/// Sum a stat across replicas.
fn replica_sum(replicas: &[ServerHandle], f: impl Fn(&sca_serve::StatsSnapshot) -> u64) -> u64 {
    replicas.iter().map(|h| f(&h.stats())).sum()
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    // Child mode: the work of one offline `scaguard classify`, one
    // process per classification (see the module docs).
    if args.get(1).map(String::as_str) == Some("--one-shot") {
        let repo_path = PathBuf::from(&args[2]);
        let sasm = &args[3];
        let source = std::fs::read_to_string(sasm).expect("read sasm");
        let name = std::path::Path::new(sasm)
            .file_stem()
            .and_then(|s| s.to_str())
            .expect("sasm name");
        println!("{}", single_shot(&repo_path, name, &source));
        return;
    }

    let smoke = args.iter().any(|a| a == "--smoke");
    let (per_family, clients, requests_per_client, baseline_shots) =
        if smoke { (1, 2, 3, 2) } else { (4, 4, 24, 10) };

    let dir = std::env::temp_dir().join(format!("sca-serve-bench-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tempdir");
    let repo_path = dir.join("pocs.repo");
    eprintln!("modeling PoC repository ...");
    build_repo(&repo_path);
    let targets = Arc::new(build_targets(per_family));
    // Each target as a `.sasm` file for the one-shot children.
    let sasm_paths: Vec<String> = targets
        .iter()
        .map(|t| {
            let p = dir.join(format!("{}.sasm", t.name));
            std::fs::write(&p, &t.source).expect("write sasm");
            p.to_string_lossy().into_owned()
        })
        .collect();
    eprintln!("targets: {}", targets.len());

    let mut config = ServeConfig::new(&repo_path);
    config.workers = 4;
    let handle = spawn(config).expect("spawn server");
    let addr = handle.addr();

    // Exactness first: every target's wire detection must be
    // byte-identical to the offline pipeline's rendering.
    {
        let mut client = Client::connect(addr).expect("connect");
        for target in targets.iter() {
            let resp = client
                .classify(&target.name, &target.source, VICTIM)
                .expect("classify");
            assert!(
                sca_serve::protocol::is_ok(&resp),
                "{}: server refused: {resp}",
                target.name
            );
            let wire = resp.get("detection").expect("detection").to_string();
            let offline = single_shot(&repo_path, &target.name, &target.source);
            assert_eq!(wire, offline, "{}: wire and offline diverge", target.name);
        }
    }
    eprintln!(
        "exactness: wire detections byte-identical to offline classify ({} targets)",
        targets.len()
    );

    if smoke {
        // Batching sanity: pipelined classify-batch frames come back
        // with per-program detections byte-identical to offline.
        let frame = Request::ClassifyBatch {
            programs: targets
                .iter()
                .map(|t| BatchProgram {
                    name: t.name.clone(),
                    program: t.source.clone(),
                    victim: VICTIM.into(),
                    threshold: None,
                })
                .collect(),
            deadline_ms: None,
            debug_sleep_ms: 0,
        }
        .to_json();
        let mut client = Client::connect(addr).expect("connect");
        let responses = client.pipeline(&[frame.clone(), frame]).expect("pipeline");
        for response in &responses {
            let Some(Json::Arr(results)) = response.get("results") else {
                panic!("batch failed: {response}");
            };
            assert_eq!(results.len(), targets.len(), "batch lost programs");
            for (target, result) in targets.iter().zip(results) {
                let wire = result.get("detection").expect("detection").to_string();
                let offline = single_shot(&repo_path, &target.name, &target.source);
                assert_eq!(wire, offline, "{}: batched detection diverges", target.name);
            }
        }
        let stats = handle.stats();
        assert_eq!(stats.shed, 0, "smoke batch shed: {stats:?}");
        assert_eq!(stats.panics, 0, "smoke batch panicked: {stats:?}");
        eprintln!(
            "smoke: pipelined classify-batch byte-identical to offline ({} frames x {} programs)",
            responses.len(),
            targets.len()
        );

        handle.shutdown();
        handle.join();
        std::fs::remove_dir_all(&dir).ok();
        eprintln!("smoke OK");
        return;
    }

    // Baseline: one OS process per classification, sequential — the
    // offline CLI's deployment shape. Each child re-runs this binary in
    // `--one-shot` mode; its detection output doubles as a
    // process-isolated exactness check against the wire.
    let exe = std::env::current_exe().expect("current exe");
    let repo_arg = repo_path.to_string_lossy().into_owned();
    let mut wire_checks = Vec::new();
    {
        let mut client = Client::connect(addr).expect("connect");
        for i in 0..baseline_shots {
            let t = &targets[i % targets.len()];
            let resp = client
                .classify(&t.name, &t.source, VICTIM)
                .expect("classify");
            wire_checks.push(resp.get("detection").expect("detection").to_string());
        }
    }
    let baseline_t = Instant::now();
    let mut child_outputs = Vec::new();
    for i in 0..baseline_shots {
        let out = std::process::Command::new(&exe)
            .args(["--one-shot", &repo_arg, &sasm_paths[i % targets.len()]])
            .output()
            .expect("spawn one-shot child");
        assert!(out.status.success(), "one-shot child failed");
        child_outputs.push(String::from_utf8_lossy(&out.stdout).trim().to_string());
    }
    let baseline_ns = baseline_t.elapsed().as_nanos() as u64;
    for (wire, child) in wire_checks.iter().zip(&child_outputs) {
        assert_eq!(wire, child, "wire and one-shot child diverge");
    }
    let baseline_per_req_ns = baseline_ns / baseline_shots as u64;
    let baseline_rps = 1e9 / baseline_per_req_ns.max(1) as f64;

    // In-process pipeline cost, for context in the report: the one-shot
    // cost minus process startup.
    let in_process_t = Instant::now();
    for i in 0..baseline_shots {
        let t = &targets[i % targets.len()];
        std::hint::black_box(single_shot(&repo_path, &t.name, &t.source));
    }
    let in_process_per_req_ns = (in_process_t.elapsed().as_nanos() as u64) / baseline_shots as u64;

    // Served: N concurrent clients, each issuing its share of requests
    // over TCP against the resident (and by now warm) server.
    //
    // Counters are reported as deltas over this phase only: the
    // exactness sweep and the baseline's wire checks above also ran
    // through the server, and folding them in used to make `completed`
    // exceed `total_requests` in the report.
    let total_requests = clients * requests_per_client;
    let before = handle.stats();
    let served_t = Instant::now();
    let workers: Vec<_> = (0..clients)
        .map(|c| {
            let targets = Arc::clone(&targets);
            thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let mut latencies = Vec::with_capacity(requests_per_client);
                for r in 0..requests_per_client {
                    let target = &targets[(c * requests_per_client + r) % targets.len()];
                    let t = Instant::now();
                    let resp = client
                        .classify(&target.name, &target.source, VICTIM)
                        .expect("classify");
                    latencies.push(t.elapsed().as_nanos() as u64);
                    assert!(sca_serve::protocol::is_ok(&resp), "refused: {resp}");
                }
                latencies
            })
        })
        .collect();
    let latencies: Vec<u64> = workers
        .into_iter()
        .flat_map(|w| w.join().expect("client thread"))
        .collect();
    let served_ns = served_t.elapsed().as_nanos() as u64;
    let served_rps = total_requests as f64 / (served_ns as f64 / 1e9);
    // The same log-bucketed histogram the server exposes over `metrics`
    // (~6% relative quantile error), so bench numbers and live numbers
    // are directly comparable.
    let mut latency_hist = sca_telemetry::Histogram::new();
    for &l in &latencies {
        latency_hist.record(l);
    }
    let p50 = latency_hist.percentile(50.0);
    let p90 = latency_hist.percentile(90.0);
    let p99 = latency_hist.percentile(99.0);
    let speedup = served_rps / baseline_rps;

    let stats = handle.stats();
    let served_completed = stats.completed - before.completed;
    let served_shed = stats.shed - before.shed;
    assert_eq!(stats.shed, 0, "bench load must not shed: {stats:?}");
    assert_eq!(stats.panics, 0, "bench load must not panic: {stats:?}");
    assert_eq!(stats.timeouts, 0, "bench load must not stall: {stats:?}");
    assert_eq!(
        served_completed, total_requests as u64,
        "served phase completed {served_completed} of {total_requests} requests"
    );
    handle.shutdown();
    handle.join();

    // ------------------------------------------------------------------
    // Batching sweep: batch size, two replicas behind a round-robin
    // front door.
    // ------------------------------------------------------------------
    let sweep_repo = dir.join("sweep.repo");
    eprintln!("modeling sweep repository ...");
    // A small sweep repository keeps the per-program scan cheap, so the
    // per-frame overhead that batching amortizes (syscalls and relay
    // hops through the front door) is a visible fraction of each cell.
    let sweep_entries = build_sweep_repo(&sweep_repo, 2);
    let (sweep_clients, per_client) = (4usize, 192usize);
    let measured_rounds = 8usize;
    let mut sweep_rows = Vec::new();
    let replicas: Vec<ServerHandle> = (0..2)
        .map(|_| {
            let mut cfg = ServeConfig::new(&sweep_repo);
            // Two blocking clients land on each replica, so two
            // workers saturate the offered load; extra threads only
            // add scheduler noise to the timed cells.
            cfg.workers = 2;
            spawn(cfg).expect("spawn sweep replica")
        })
        .collect();
    let (door, stop, pump) = front_door(replicas.iter().map(ServerHandle::addr).collect());

    // Exactness before any timing: every target through the door,
    // once per replica (consecutive connections round-robin across
    // both), must be byte-identical to the offline pipeline. This
    // also warms both replicas' model caches so the timed cells
    // compare steady-state service, not first-touch model builds.
    for _replica in 0..2 {
        let mut client = Client::connect(door).expect("connect via front door");
        for target in targets.iter() {
            let resp = client
                .classify(&target.name, &target.source, VICTIM)
                .expect("classify");
            let wire = resp.get("detection").expect("detection").to_string();
            let offline = single_shot(&sweep_repo, &target.name, &target.source);
            assert_eq!(
                wire, offline,
                "{}: sweep wire and offline diverge",
                target.name
            );
        }
    }
    eprintln!("sweep: byte-exact over {} targets", targets.len());

    // N interleaved rounds per batch size, scored on the process
    // CPU clock: the structural gain from batching (fewer round
    // trips, so fewer syscalls and relay context switches per
    // program) is monotone, interleaving the rounds spreads any
    // drift evenly across the batch sizes, and — because the whole
    // sweep (clients, front door, both replicas) runs inside this
    // process — total utime+stime prices a cell exactly while
    // ignoring whatever else a shared box is running. Wall clock is
    // recorded alongside and used as the scoring fallback where
    // /proc is unavailable. The first round is a discarded warmup
    // so cold caches never bias a cell.
    const BATCHES: [usize; 3] = [1, 8, 32];
    let mut wall_total = [0u64; BATCHES.len()];
    let mut cpu_total = [Some(0u64); BATCHES.len()];
    let mut programs = 0usize;
    for round in 0..=measured_rounds {
        for (slot, &batch) in BATCHES.iter().enumerate() {
            let (wall, cpu, n) = run_sweep_cell(door, &targets, sweep_clients, per_client, batch);
            if round > 0 {
                wall_total[slot] += wall;
                cpu_total[slot] = cpu_total[slot].zip(cpu).map(|(a, b)| a + b);
            }
            programs = n;
        }
    }
    let shed = replica_sum(&replicas, |s| s.shed);
    let panics = replica_sum(&replicas, |s| s.panics);
    assert_eq!(shed, 0, "sweep shed requests");
    assert_eq!(panics, 0, "sweep panicked");
    let total_programs = programs * measured_rounds;
    let mut prev_rps = 0.0f64;
    for (slot, &batch) in BATCHES.iter().enumerate() {
        let scored_ns = cpu_total[slot].unwrap_or(wall_total[slot]);
        let rps = total_programs as f64 / (scored_ns as f64 / 1e9);
        eprintln!(
            "sweep: batch={batch:<2} {rps:>10.2} programs/s ({} over {measured_rounds} rounds)",
            if cpu_total[slot].is_some() {
                "cpu"
            } else {
                "wall"
            },
        );
        assert!(
            rps >= prev_rps,
            "batching lost throughput: batch={batch} ran {rps:.2}/s after {prev_rps:.2}/s"
        );
        prev_rps = rps;
        sweep_rows.push(Json::Obj(vec![
            ("batch".into(), Json::Num(batch as f64)),
            ("programs".into(), Json::Num(total_programs as f64)),
            ("wall_ns".into(), Json::Num(wall_total[slot] as f64)),
            (
                "cpu_ns".into(),
                cpu_total[slot].map_or(Json::Null, |c| Json::Num(c as f64)),
            ),
            (
                "programs_per_sec".into(),
                Json::Num((rps * 100.0).round() / 100.0),
            ),
            ("shed".into(), Json::Num(shed as f64)),
            ("panics".into(), Json::Num(panics as f64)),
        ]));
    }

    stop.store(true, Ordering::Relaxed);
    let _ = TcpStream::connect(door); // unblock the acceptor
    pump.join().expect("front door");
    for replica in replicas {
        replica.shutdown();
        replica.join();
    }

    println!(
        "resident service ({} targets, {clients} clients x {requests_per_client} requests, 4 workers)",
        targets.len()
    );
    println!(
        "  single-shot {baseline_per_req_ns:>13} ns/request   {baseline_rps:>10.2} req/s (one process per request; {in_process_per_req_ns} ns of that in-pipeline)"
    );
    println!(
        "  served      {:>13} ns/request   {served_rps:>10.2} req/s (wall), p50 {p50} ns, p90 {p90} ns, p99 {p99} ns",
        served_ns / total_requests as u64
    );
    println!("  speedup     {speedup:>12.2}x throughput, byte-exact");

    assert!(
        speedup >= 4.0,
        "full bench below the 4x acceptance floor: {speedup:.2}x"
    );

    let round2 = |v: f64| (v * 100.0).round() / 100.0;
    let json = Json::Obj(vec![
        (
            "bench".into(),
            Json::Str("resident detection service".into()),
        ),
        (
            "workload".into(),
            Json::Obj(vec![
                ("targets".into(), Json::Num(targets.len() as f64)),
                ("clients".into(), Json::Num(clients as f64)),
                (
                    "requests_per_client".into(),
                    Json::Num(requests_per_client as f64),
                ),
                ("total_requests".into(), Json::Num(total_requests as f64)),
                ("workers".into(), Json::Num(4.0)),
                ("baseline_shots".into(), Json::Num(baseline_shots as f64)),
            ]),
        ),
        (
            "single_shot".into(),
            Json::Obj(vec![
                (
                    "per_request_ns".into(),
                    Json::Num(baseline_per_req_ns as f64),
                ),
                ("requests_per_sec".into(), Json::Num(round2(baseline_rps))),
                (
                    "in_process_per_request_ns".into(),
                    Json::Num(in_process_per_req_ns as f64),
                ),
            ]),
        ),
        (
            "served".into(),
            Json::Obj(vec![
                ("wall_ns".into(), Json::Num(served_ns as f64)),
                ("requests_per_sec".into(), Json::Num(round2(served_rps))),
                ("latency_p50_ns".into(), Json::Num(p50 as f64)),
                ("latency_p90_ns".into(), Json::Num(p90 as f64)),
                ("latency_p99_ns".into(), Json::Num(p99 as f64)),
                (
                    "latency_max_ns".into(),
                    Json::Num(latency_hist.max() as f64),
                ),
                ("shed".into(), Json::Num(served_shed as f64)),
                ("completed".into(), Json::Num(served_completed as f64)),
            ]),
        ),
        ("throughput_speedup".into(), Json::Num(round2(speedup))),
        ("byte_exact".into(), Json::Bool(true)),
        (
            "sweep".into(),
            Json::Obj(vec![
                ("replicas".into(), Json::Num(2.0)),
                ("repo_entries".into(), Json::Num(sweep_entries as f64)),
                ("clients".into(), Json::Num(sweep_clients as f64)),
                ("programs_per_client".into(), Json::Num(per_client as f64)),
                ("measured_rounds".into(), Json::Num(measured_rounds as f64)),
                ("cells".into(), Json::Arr(sweep_rows)),
            ]),
        ),
    ]);
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serve.json");
    std::fs::write(out, format!("{json}\n")).expect("write BENCH_serve.json");
    eprintln!("wrote {out}");
    std::fs::remove_dir_all(&dir).ok();
}
