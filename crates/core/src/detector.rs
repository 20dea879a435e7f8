//! The model repository and the similarity-based detector/classifier
//! (Section III-B.3).
//!
//! Classification is powered by the [`crate::engine`] similarity engine:
//! the repository's models are prepared (interned) once per detector, a
//! scan threads the best distance seen so far through the entries so
//! later comparisons can be skipped by cheap lower bounds or abandoned
//! mid-DTW, and batch workloads fan out over a std-only worker pool
//! ([`Detector::classify_batch`]). The best score and verdict are always
//! bitwise identical to the naive full scan; only comparisons that
//! provably cannot win are cut short.
//!
//! A scan runs in two phases (DESIGN.md §15). **Phase 1** finds the best
//! entry: every entry gets the `O(log)` interval-envelope bound
//! ([`crate::engine::lb_interval`]) up front, then entries are visited —
//! in repository order, or cheapest-sort-key-first when a
//! [`RepoIndex`] is attached — through a cheapest-first cascade
//! (envelope → length bound → CSP envelope → pivot bound → early-abandoned
//! DTW) under the best-so-far cutoff; with an index, the scan *stops* at
//! the first sort key above the cutoff. **Phase 2** renders the per-entry
//! scores as a pure function of the target, the repository, and the best
//! distance — never of the visit order — which is what makes indexed,
//! linear, seeded, and parallel scans byte-identical.
//!
//! Every classify entry point is a thin call of one scan function
//! (phases 0 and 1, parameterised by a cutoff seed, a deadline, and a
//! thread count) and one render step (phase 2). The scan state is split
//! in two: the repository, the engine that interned it, and its prepared
//! models are frozen behind an `Arc`; each scan checks a mutable scratch
//! engine out of a small free list for its duration, so concurrent
//! callers share one detector without serializing on a lock.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use sca_attacks::AttackFamily;
use sca_cpu::Victim;
use sca_isa::Program;
use sca_telemetry::Json;

use crate::builder::ModelBuilder;
use crate::cst::CstBbs;
use crate::engine::{
    lb_csp_envelope, lb_interval, lb_length, Bounded, DeadlineExceeded, EngineStats, PreparedModel,
    SimilarityEngine,
};
use crate::index::{IndexConfig, IndexMismatch, QueryContext, RepoIndex};
use crate::modeling::{build_model, ModelError, ModelingConfig};

/// One PoC model in the repository.
#[derive(Debug, Clone)]
pub struct RepoEntry {
    /// The attack family this PoC belongs to.
    pub family: AttackFamily,
    /// The PoC's name (e.g. `"FR-IAIK"`). Shared, so score rendering
    /// can label thousands of entries per scan without allocating.
    pub name: Arc<str>,
    /// Its attack behavior model.
    pub model: CstBbs,
}

/// A repository of attack behavior models built from PoCs of known attacks.
#[derive(Debug, Clone, Default)]
pub struct ModelRepository {
    entries: Vec<RepoEntry>,
}

impl ModelRepository {
    /// An empty repository.
    pub fn new() -> ModelRepository {
        ModelRepository::default()
    }

    /// Add a prebuilt model.
    pub fn add_model(&mut self, family: AttackFamily, name: impl Into<String>, model: CstBbs) {
        self.entries.push(RepoEntry {
            family,
            name: name.into().into(),
            model,
        });
    }

    /// Model a PoC program and add the result.
    ///
    /// # Errors
    ///
    /// Propagates [`ModelError`] from the modeling pipeline.
    pub fn add_poc(
        &mut self,
        family: AttackFamily,
        program: &Program,
        victim: &Victim,
        config: &ModelingConfig,
    ) -> Result<(), ModelError> {
        let outcome = build_model(program, victim, config)?;
        self.add_model(family, program.name(), outcome.cst_bbs);
        Ok(())
    }

    /// [`ModelRepository::add_poc`] through a [`ModelBuilder`], so
    /// repeated repository builds (eval rounds, warm disk caches) model
    /// each PoC exactly once.
    ///
    /// # Errors
    ///
    /// Propagates [`ModelError`] from the modeling pipeline.
    pub fn add_poc_with(
        &mut self,
        family: AttackFamily,
        program: &Program,
        victim: &Victim,
        builder: &ModelBuilder,
    ) -> Result<(), ModelError> {
        let model = builder.build_cst(program, victim)?;
        self.add_model(family, program.name(), (*model).clone());
        Ok(())
    }

    /// The stored entries.
    pub fn entries(&self) -> &[RepoEntry] {
        &self.entries
    }

    /// Number of stored models.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the repository is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

impl Extend<RepoEntry> for ModelRepository {
    fn extend<I: IntoIterator<Item = RepoEntry>>(&mut self, iter: I) {
        self.entries.extend(iter);
    }
}

/// One repository entry's similarity to a classified target.
#[derive(Debug, Clone, PartialEq)]
pub struct EntryScore {
    /// The PoC's name (shared with the repository entry).
    pub poc: Arc<str>,
    /// The PoC's attack family.
    pub family: AttackFamily,
    /// The similarity score in `[0, 1]`. Exact when [`exact`] is set;
    /// otherwise an **upper bound**: the pruned scan proved the true
    /// score is at most this value without paying for the full
    /// comparison. An upper bound may exceed the best (exact) score —
    /// it only promises the true score is no higher, not that the entry
    /// came close.
    ///
    /// [`exact`]: EntryScore::exact
    pub score: f64,
    /// Whether [`score`] is the exact similarity (`true`) or the upper
    /// bound left behind by a pruned comparison (`false`).
    ///
    /// [`score`]: EntryScore::score
    pub exact: bool,
}

/// The outcome of classifying one target program.
#[derive(Debug, Clone)]
pub struct Detection {
    /// Per-entry similarity, in repository entry order. Entries the
    /// pruned scan skipped carry an upper bound (see [`EntryScore`]);
    /// the best entry is always exact.
    pub scores: Vec<EntryScore>,
    /// Index of the best-scoring entry in [`scores`], if any entry
    /// exists. Its score is exact and bitwise identical to what a naive
    /// full scan would report.
    ///
    /// [`scores`]: Detection::scores
    pub best: Option<usize>,
    /// The detection threshold used.
    pub threshold: f64,
}

impl Detection {
    /// The best-scoring repository entry, if any.
    pub fn best_entry(&self) -> Option<&EntryScore> {
        self.best.map(|i| &self.scores[i])
    }

    /// Whether the target is classified as an attack (best score clears
    /// the threshold).
    pub fn is_attack(&self) -> bool {
        self.best_entry().is_some_and(|e| e.score >= self.threshold)
    }

    /// The predicted attack family, or `None` for benign.
    pub fn family(&self) -> Option<AttackFamily> {
        if self.is_attack() {
            self.best_entry().map(|e| e.family)
        } else {
            None
        }
    }

    /// The best similarity score (0.0 for an empty repository).
    pub fn best_score(&self) -> f64 {
        self.best_entry().map_or(0.0, |e| e.score)
    }
}

impl fmt::Display for Detection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.family() {
            Some(fam) => write!(f, "ATTACK {fam} (score {:.2}%)", self.best_score() * 100.0),
            None => write!(f, "benign (best score {:.2}%)", self.best_score() * 100.0),
        }
    }
}

/// The full detection as one JSON object — the canonical machine-facing
/// rendering shared by `scaguard classify --json` and the `sca-serve`
/// wire protocol, so the two are byte-identical for the same detection.
pub fn detection_json(program: &str, detection: &Detection) -> Json {
    let scores = detection
        .scores
        .iter()
        .map(|entry| {
            Json::Obj(vec![
                ("poc".into(), Json::Str(entry.poc.to_string())),
                ("family".into(), Json::Str(entry.family.to_string())),
                ("score".into(), Json::Num(entry.score)),
                ("exact".into(), Json::Bool(entry.exact)),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("program".into(), Json::Str(program.to_string())),
        ("attack".into(), Json::Bool(detection.is_attack())),
        (
            "family".into(),
            match detection.family() {
                Some(f) => Json::Str(f.to_string()),
                None => Json::Null,
            },
        ),
        (
            "best_poc".into(),
            match detection.best_entry() {
                Some(entry) => Json::Str(entry.poc.to_string()),
                None => Json::Null,
            },
        ),
        ("best_score".into(), Json::Num(detection.best_score())),
        ("threshold".into(), Json::Num(detection.threshold)),
        ("scores".into(), Json::Arr(scores)),
    ])
}

/// The immutable half of a detector's scan state, shared by every clone:
/// the repository, the engine that interned it, and the repository's
/// prepared models. The engine here is never scanned with — it is the
/// template every scratch engine is cloned from, so the ids inside
/// `prepared` are valid in every scratch.
#[derive(Debug)]
struct Frozen {
    repo: ModelRepository,
    engine: SimilarityEngine,
    prepared: Vec<PreparedModel>,
}

/// Pool-size limit above which a scratch engine is dropped instead of
/// returned to its detector's free list, bounding memory on long-lived
/// detectors that classify an unbounded stream of targets.
const POOL_LIMIT: usize = 1 << 16;

/// The SCAGuard detector: a model repository plus a similarity threshold,
/// optionally accelerated by a [`RepoIndex`] (see [`Detector::set_index`]).
///
/// A detector is `Sync` and scans concurrently without holding any lock
/// across a scan: the repository and its prepared models are immutable
/// (and shared by every clone, so `clone` is cheap), and each scan checks
/// a scratch engine out of the detector's free list for its duration.
/// The free list's lock covers only the pop and the push; a scratch keeps
/// its warm `D_IS` cache from scan to scan.
#[derive(Debug)]
pub struct Detector {
    threshold: f64,
    index: Option<Arc<RepoIndex>>,
    frozen: Arc<Frozen>,
    scratch: Mutex<Vec<SimilarityEngine>>,
}

impl Clone for Detector {
    /// Shares the immutable repository state; the clone starts with an
    /// empty scratch free list of its own.
    fn clone(&self) -> Detector {
        Detector {
            threshold: self.threshold,
            index: self.index.clone(),
            frozen: Arc::clone(&self.frozen),
            scratch: Mutex::new(Vec::new()),
        }
    }
}

/// Map a DTW distance to the similarity score `1 / (D + 1)` — the same
/// expression [`crate::similarity::similarity_score`] uses.
fn score_of(distance: f64) -> f64 {
    1.0 / (distance + 1.0)
}

/// A detection threshold outside `[0, 1]` (or not a number at all).
///
/// Thresholds arrive from untrusted places — CLI flags, wire requests,
/// service configuration — so an invalid one must surface as an error
/// the caller can render, never as a panic inside the detector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InvalidThreshold(pub f64);

impl fmt::Display for InvalidThreshold {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "threshold {} out of range (similarity thresholds must be within [0, 1])",
            self.0
        )
    }
}

impl std::error::Error for InvalidThreshold {}

/// A scratch engine checked out of a detector's free list; dropping it
/// returns the engine, unless its intern pool has outgrown
/// [`POOL_LIMIT`].
struct Scratch<'d> {
    home: &'d Mutex<Vec<SimilarityEngine>>,
    engine: SimilarityEngine,
}

impl Drop for Scratch<'_> {
    fn drop(&mut self) {
        if self.engine.pool_len() <= POOL_LIMIT {
            let engine = std::mem::take(&mut self.engine);
            lock(self.home).push(engine);
        }
    }
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // Engines are pure bookkeeping; a panicked scan leaves them
    // consistent, so poisoning is safe to ignore.
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl Detector {
    /// The default similarity threshold.
    ///
    /// The paper uses 45%, the middle of *its* Fig.-5 plateau (30%–60%).
    /// On this reproduction's substrate the similarity scale is compressed
    /// (models are tens of blocks rather than thousands of x86 blocks),
    /// shifting the >90% plateau of the reproduced Fig. 5 to roughly
    /// 20%–30%. The default sits at that plateau's lower edge, which keeps
    /// recall on the far-variant tasks (E3/E4) where the compressed scale
    /// bites hardest, at a benign false-positive rate (1.25% at paper
    /// scale) below the 3.36% the paper reports; see EXPERIMENTS.md for
    /// the sweep.
    pub const DEFAULT_THRESHOLD: f64 = 0.20;

    /// Create a detector. The repository's models are interned into the
    /// similarity engine once, here.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidThreshold`] when `threshold` is outside `[0, 1]`
    /// (NaN included). Thresholds reach this constructor from CLI flags
    /// and wire requests, so a bad one is a rejected input, not a panic.
    pub fn new(repo: ModelRepository, threshold: f64) -> Result<Detector, InvalidThreshold> {
        if !(0.0..=1.0).contains(&threshold) {
            return Err(InvalidThreshold(threshold));
        }
        let mut engine = SimilarityEngine::new();
        let prepared = repo
            .entries()
            .iter()
            .map(|e| engine.prepare(&e.model))
            .collect();
        Ok(Detector {
            threshold,
            index: None,
            frozen: Arc::new(Frozen {
                repo,
                engine,
                prepared,
            }),
            scratch: Mutex::new(Vec::new()),
        })
    }

    /// The repository backing this detector.
    pub fn repository(&self) -> &ModelRepository {
        &self.frozen.repo
    }

    /// The detection threshold.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// Attach a [`RepoIndex`] so repository scans visit entries
    /// cheapest-first and stop early on the sort-key envelope. Detections
    /// are byte-identical with and without an index; only the amount of
    /// work changes.
    ///
    /// # Errors
    ///
    /// Returns [`IndexMismatch`] when the index was not built from this
    /// detector's repository (stale sidecar, foreign file); the detector
    /// keeps its previous index in that case.
    pub fn set_index(&mut self, index: RepoIndex) -> Result<(), IndexMismatch> {
        if !index.matches(&self.frozen.repo) {
            return Err(IndexMismatch);
        }
        self.index = Some(Arc::new(index));
        Ok(())
    }

    /// The attached index, if any.
    pub fn index(&self) -> Option<&RepoIndex> {
        self.index.as_deref()
    }

    /// Build a fresh [`RepoIndex`] for this detector's repository (with
    /// default [`IndexConfig`]); always valid for [`Detector::set_index`].
    pub fn build_index(&self) -> RepoIndex {
        RepoIndex::build(&self.frozen.repo, &IndexConfig::default())
    }

    /// Classify a prebuilt target model with the pruned repo scan.
    ///
    /// The best entry, score, and verdict are bitwise identical to a
    /// naive full scan; non-best entries may carry upper bounds (see
    /// [`EntryScore::exact`]).
    pub fn classify_model(&self, target: &CstBbs) -> Detection {
        self.detect(target, None, None, 1)
            .expect("no deadline was given")
    }

    /// [`Detector::classify_model`] under a wall-clock deadline,
    /// propagated into the engine's bounded-DTW hook: the scan checks the
    /// deadline before each repository entry and once per DTW row, so a
    /// request that runs out of time aborts within microseconds instead
    /// of finishing an arbitrarily large scan. A detection that *does*
    /// come back is bitwise identical to [`Detector::classify_model`] —
    /// the deadline only ever aborts, it never alters cutoffs or scores.
    ///
    /// # Errors
    ///
    /// Returns [`DeadlineExceeded`] when `deadline` passes mid-scan.
    pub fn classify_model_deadline(
        &self,
        target: &CstBbs,
        deadline: Instant,
    ) -> Result<Detection, DeadlineExceeded> {
        self.detect(target, None, Some(deadline), 1)
    }

    /// Phases 0 and 1 of the pruned scan only: the exact best entry
    /// (index and DTW distance) without rendering per-entry scores, with
    /// phase 1's best-so-far cutoff pre-seeded: `seed` is an entry index
    /// plus that entry's **exact** DTW distance to `target`, known before
    /// the scan starts (a streaming session carries the previous
    /// increment's winner forward via [`crate::engine::PrefixDtw`]).
    ///
    /// The result is bitwise identical to the unseeded scan. Every prune
    /// requires a lower bound strictly above the cutoff, and the cutoff
    /// never drops below the true best distance `d*` (the seed is an
    /// exact distance of one entry, so `seed.1 >= d*`); hence every entry
    /// with distance `<= d*` still completes its DTW (a distance equal to
    /// the cutoff never abandons — the row minimum is a lower bound on
    /// the final distance), and the tie rule (minimum distance, later
    /// index) resolves over the same completed set. Seeding only skips
    /// comparisons that provably cannot win.
    ///
    /// # Errors
    ///
    /// Returns [`DeadlineExceeded`] when `deadline` passes mid-scan.
    pub fn scan_best_seeded(
        &self,
        target: &CstBbs,
        seed: Option<(usize, f64)>,
        deadline: Option<Instant>,
    ) -> Result<Option<(usize, f64)>, DeadlineExceeded> {
        let scan = self.scan(target, seed, deadline, 1)?;
        flush_scan_counts(&scan.counts);
        Ok(scan.best)
    }

    /// Classify a prebuilt target model, scanning the repository with
    /// `jobs` worker threads (std-only; `jobs <= 1` degrades to the
    /// serial scan). Workers drain the shared visit order (index-sorted
    /// when an index is attached) and share the best-so-far distance
    /// through an atomic, so pruning works across threads; scores are
    /// rendered serially from the merged best distance, so the output is
    /// byte-identical to the serial scan's.
    pub fn classify_model_jobs(&self, target: &CstBbs, jobs: usize) -> Detection {
        self.detect(target, None, None, jobs)
            .expect("no deadline was given")
    }

    /// Classify a batch of prebuilt target models over a std-only worker
    /// pool (`jobs <= 1` degrades to a serial loop). Each scan checks its
    /// own scratch engine out of the free list, so workers never contend
    /// beyond the list's pop and push. Results are in `targets` order and
    /// identical to serial [`Detector::classify_model`] calls.
    pub fn classify_batch(&self, targets: &[CstBbs], jobs: usize) -> Vec<Detection> {
        let jobs = jobs.clamp(1, targets.len().max(1));
        if jobs <= 1 {
            return targets.iter().map(|t| self.classify_model(t)).collect();
        }
        let next = AtomicUsize::new(0);
        let mut out: Vec<(usize, Detection)> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..jobs)
                .map(|_| {
                    s.spawn(|| {
                        let mut mine = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            let Some(target) = targets.get(i) else { break };
                            mine.push((i, self.classify_model(target)));
                        }
                        mine
                    })
                })
                .collect();
            workers.into_iter().flat_map(join_scoped).collect()
        });
        out.sort_unstable_by_key(|(i, _)| *i);
        out.into_iter().map(|(_, d)| d).collect()
    }

    /// Model `program` and classify it.
    ///
    /// # Errors
    ///
    /// Propagates [`ModelError`] from the modeling pipeline.
    pub fn classify(
        &self,
        program: &Program,
        victim: &Victim,
        config: &ModelingConfig,
    ) -> Result<Detection, ModelError> {
        let mut sp = sca_telemetry::span("detect");
        sp.attr("program", program.name());
        sp.attr("threshold", self.threshold);
        let outcome = build_model(program, victim, config)?;
        let detection = self.classify_model(&outcome.cst_bbs);
        self.annotate(&mut sp, &detection);
        Ok(detection)
    }

    /// [`Detector::classify`] with the target model served by a
    /// [`ModelBuilder`] — repeated classifications of the same target
    /// (or a warm disk cache) skip the modeling pass entirely — and the
    /// repository scanned with `jobs` worker threads. The builder's
    /// configuration is used for modeling.
    ///
    /// # Errors
    ///
    /// Propagates [`ModelError`] from the modeling pipeline.
    pub fn classify_with_builder(
        &self,
        program: &Program,
        victim: &Victim,
        builder: &ModelBuilder,
        jobs: usize,
    ) -> Result<Detection, ModelError> {
        let mut sp = sca_telemetry::span("detect");
        sp.attr("program", program.name());
        sp.attr("threshold", self.threshold);
        let model = builder.build_cst(program, victim)?;
        let detection = self.classify_model_jobs(&model, jobs);
        self.annotate(&mut sp, &detection);
        Ok(detection)
    }

    /// Scan and render under one `detect.scan` span: the body of every
    /// classify entry point, and of a streaming session's full detection.
    pub(crate) fn detect(
        &self,
        target: &CstBbs,
        seed: Option<(usize, f64)>,
        deadline: Option<Instant>,
        jobs: usize,
    ) -> Result<Detection, DeadlineExceeded> {
        let mut sp = sca_telemetry::span("detect.scan");
        match self.scan(target, seed, deadline, jobs) {
            Ok(scan) => {
                let detection = self.render(scan);
                self.annotate(&mut sp, &detection);
                Ok(detection)
            }
            Err(e) => {
                sp.attr("deadline_exceeded", true);
                Err(e)
            }
        }
    }

    /// Check a scratch engine out of the free list, cloning the frozen
    /// engine when the list is empty. The lock is held for the pop only.
    fn checkout(&self) -> Scratch<'_> {
        let engine = lock(&self.scratch).pop();
        Scratch {
            home: &self.scratch,
            engine: engine.unwrap_or_else(|| self.frozen.engine.clone()),
        }
    }

    /// The scan core, phases 0 and 1: prepare the target, compute the
    /// per-entry interval envelopes (and, with an index, the sort keys),
    /// then find the exact best entry under the best-so-far cutoff —
    /// starting from `seed` when given (see
    /// [`Detector::scan_best_seeded`]), on `jobs` threads when more than
    /// one. The optional wall-clock deadline is checked before every
    /// phase-1 entry and once per DTW row.
    ///
    /// # Errors
    ///
    /// Returns [`DeadlineExceeded`] when `deadline` passes mid-scan.
    fn scan(
        &self,
        target: &CstBbs,
        seed: Option<(usize, f64)>,
        deadline: Option<Instant>,
        jobs: usize,
    ) -> Result<Scan, DeadlineExceeded> {
        let prepared = &self.frozen.prepared;
        let n = prepared.len();
        debug_assert!(seed.is_none_or(|(i, _)| i < n));
        let mut scratch = self.checkout();
        let mut counts = ScanCounts::default();
        let prepared_target = scratch.engine.prepare(target);
        let query = self.index.as_deref().map(|ix| ix.query(target));
        let env: Vec<f64> = prepared
            .iter()
            .map(|pm| lb_interval(&prepared_target, pm))
            .collect();
        counts.lb_evals += n as u64;
        let keys = query.as_ref().map(|q| {
            counts.lb_evals += n as u64;
            (0..n)
                .map(|i| env[i].max(q.interval_bound(i)))
                .collect::<Vec<f64>>()
        });
        let mut scan = Scan {
            target: prepared_target,
            env,
            lb1c: vec![f64::NAN; n],
            lb2c: vec![f64::NAN; n],
            best: seed,
            counts,
        };
        let visit = Visit {
            frozen: &self.frozen,
            query: query.as_ref(),
            keys: keys.as_deref(),
            deadline,
        };
        let jobs = jobs.clamp(1, n.max(1));
        if jobs <= 1 {
            visit.serial(&mut scratch.engine, &mut scan)?;
        } else {
            // The workers check out scratches of their own; this one goes
            // back to the list first so one of them can reuse it.
            drop(scratch);
            visit.parallel(self, target, jobs, &mut scan)?;
        }
        Ok(scan)
    }

    /// Phase 2: render the per-entry scores from the best distance found
    /// in phase 1 — a pure function of the target, the repository, and
    /// that distance, never of the visit order, so indexed, linear,
    /// seeded, and parallel scans produce byte-identical detections. The
    /// best entry reports its exact score; every other entry reports the
    /// tightest *deterministic* lower-bound cascade value as an
    /// upper-bound score (no DTW runs here).
    fn render(&self, mut scan: Scan) -> Detection {
        let prepared = &self.frozen.prepared;
        let scores = match scan.best {
            // A nonempty repository always yields a best entry (the first
            // visited entry's DTW runs under an infinite cutoff).
            None => Vec::new(),
            Some((best_idx, best_d)) => self
                .frozen
                .repo
                .entries()
                .iter()
                .enumerate()
                .map(|(i, entry)| {
                    if i == best_idx {
                        return EntryScore {
                            poc: entry.name.clone(),
                            family: entry.family,
                            score: score_of(best_d),
                            exact: true,
                        };
                    }
                    // The same cheapest-first cascade as phase 1, but
                    // against the fixed final distance: deepen the bound
                    // only while it has not yet proven the entry can't
                    // beat the best. Cached phase-1 values are pure
                    // functions of (target, entry), so reusing them cannot
                    // depend on the visit order.
                    let mut bound = scan.env[i];
                    if bound <= best_d {
                        if scan.lb1c[i].is_nan() {
                            scan.lb1c[i] = lb_length(&scan.target, &prepared[i]);
                            scan.counts.lb_evals += 1;
                        }
                        bound = bound.max(scan.lb1c[i]);
                        if bound <= best_d {
                            if scan.lb2c[i].is_nan() {
                                scan.lb2c[i] = lb_csp_envelope(&scan.target, &prepared[i]);
                                scan.counts.lb_evals += 1;
                            }
                            bound = bound.max(scan.lb2c[i]);
                        }
                    }
                    EntryScore {
                        poc: entry.name.clone(),
                        family: entry.family,
                        score: score_of(bound),
                        exact: false,
                    }
                })
                .collect(),
        };
        debug_assert!(scan.best.is_some() || self.frozen.repo.is_empty());
        flush_scan_counts(&scan.counts);
        Detection {
            scores,
            best: scan.best.map(|(i, _)| i),
            threshold: self.threshold,
        }
    }

    /// Attach the standard verdict attributes to a `detect` or
    /// `detect.scan` span.
    fn annotate(&self, sp: &mut sca_telemetry::SpanGuard, detection: &Detection) {
        if sp.is_recording() {
            sp.attr(
                "verdict",
                if detection.is_attack() {
                    "attack"
                } else {
                    "benign"
                },
            );
            if let Some(best) = detection.best_entry() {
                sp.attr("best_poc", &*best.poc);
                sp.attr("best_family", format!("{:?}", best.family));
                sp.attr("best_score", best.score);
            }
            // Best (possibly bounded) score per family, one attribute each.
            for family in AttackFamily::ALL {
                let best = detection
                    .scores
                    .iter()
                    .filter(|e| e.family == family)
                    .map(|e| e.score)
                    .fold(f64::NEG_INFINITY, f64::max);
                if best.is_finite() {
                    sp.attr(&format!("score.{family:?}"), best);
                }
            }
        }
    }
}

/// Join a scoped worker, re-raising its panic on the caller.
fn join_scoped<T>(handle: std::thread::ScopedJoinHandle<'_, T>) -> T {
    handle
        .join()
        .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
}

/// Bridge an engine stats delta into the telemetry counters.
fn flush_engine_stats(delta: EngineStats) {
    if !sca_telemetry::enabled() {
        return;
    }
    sca_telemetry::counter("dtw.cells", delta.cells);
    sca_telemetry::counter("dtw.cells_pruned", delta.cells_pruned);
    sca_telemetry::counter("dtw.lb_skips", delta.lb_skips);
    sca_telemetry::counter("simcache.hits", delta.cache_hits);
    sca_telemetry::counter("simcache.misses", delta.cache_misses);
}

/// Per-scan work counters for the index/pruning machinery, bridged into
/// the `index.*` telemetry counters by [`flush_scan_counts`] once per
/// scan. Accumulated locally (plain integers); the disabled-telemetry
/// cost is the single relaxed atomic load inside `sca_telemetry::enabled`.
#[derive(Debug, Clone, Copy, Default)]
struct ScanCounts {
    /// Lower-bound evaluations across all cascade stages and both phases
    /// (envelope, length, CSP envelope, pivot bounds).
    lb_evals: u64,
    /// Phase-1 entries rejected without running any DTW — by a cascade
    /// bound or by the index sort-key stop.
    entries_skipped: u64,
    /// DTW comparisons that ran to completion (an exact distance).
    /// Abandoned probes are partial by design and not counted here.
    full_dtw_runs: u64,
}

impl ScanCounts {
    fn absorb(&mut self, other: &ScanCounts) {
        self.lb_evals += other.lb_evals;
        self.entries_skipped += other.entries_skipped;
        self.full_dtw_runs += other.full_dtw_runs;
    }
}

/// Bridge one scan's pruning counters into the telemetry counters.
fn flush_scan_counts(counts: &ScanCounts) {
    if !sca_telemetry::enabled() {
        return;
    }
    sca_telemetry::counter("index.lb_evals", counts.lb_evals);
    sca_telemetry::counter("index.entries_skipped", counts.entries_skipped);
    sca_telemetry::counter("index.full_dtw_runs", counts.full_dtw_runs);
}

/// What phases 0 and 1 of one scan leave for phase 2.
struct Scan {
    /// The target, prepared in the scan's scratch engine.
    target: PreparedModel,
    /// Per-entry interval-envelope bound — index-free, so phase 2 renders
    /// from it identically with and without an index.
    env: Vec<f64>,
    /// Phase-1 length / CSP-envelope bounds, `NaN` where not computed —
    /// pure functions of (target, entry), reused by phase 2.
    lb1c: Vec<f64>,
    lb2c: Vec<f64>,
    /// The exact best entry: minimum distance, later index on ties.
    best: Option<(usize, f64)>,
    counts: ScanCounts,
}

/// Whether the completed distance `d` of entry `i` beats `best` under
/// the scan's tie rule: minimum distance, **later** entry on ties — the
/// naive `max_by` over all scores, stated in a form independent of the
/// visit order.
fn beats(i: usize, d: f64, best: Option<(usize, f64)>) -> bool {
    best.is_none_or(|(bi, bd)| d < bd || (d == bd && i > bi))
}

/// The read-only inputs of phase 1.
struct Visit<'a> {
    frozen: &'a Frozen,
    query: Option<&'a QueryContext<'a>>,
    /// Per-entry sort keys (`Some` only with an index): `max(env, pivot
    /// interval bound)`. Phase 1 visits entries in ascending `(key,
    /// index)` order — the serial scan through a lazy min-heap, worker
    /// pools through a precomputed sort; both produce the same sequence.
    /// Once a visited key exceeds the best-so-far distance, every
    /// unvisited entry's key does too, so the scan stops.
    keys: Option<&'a [f64]>,
    deadline: Option<Instant>,
}

impl Visit<'_> {
    fn expired(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// Phase 1 on the calling thread.
    fn serial(
        &self,
        engine: &mut SimilarityEngine,
        scan: &mut Scan,
    ) -> Result<(), DeadlineExceeded> {
        let prepared = &self.frozen.prepared;
        let n = prepared.len();
        // Lazy visit order: a min-heap over `(key bits, index)` pops
        // entries in exactly the ascending `(key, index)` sequence a full
        // sort would produce (keys are non-negative finite floats, whose
        // bit patterns order like their values), but costs `O(n)` to
        // build plus `O(log n)` per visited entry — and the indexed scan
        // visits only a short prefix before the sort-key stop.
        let mut heap: BinaryHeap<Reverse<(u64, usize)>> = match self.keys {
            Some(keys) => keys
                .iter()
                .enumerate()
                .map(|(i, k)| Reverse((k.to_bits(), i)))
                .collect(),
            None => BinaryHeap::new(),
        };
        let mut linear = 0..n;
        loop {
            // Without an index there are no keys: visit in repository
            // order with a key that can never trip the stop below.
            let next = if self.keys.is_some() {
                heap.pop().map(|Reverse((k, i))| (i, f64::from_bits(k)))
            } else {
                linear.next().map(|i| (i, f64::NEG_INFINITY))
            };
            let Some((i, key)) = next else { break };
            if self.expired() {
                return Err(DeadlineExceeded);
            }
            let cutoff = scan.best.map_or(f64::INFINITY, |(_, d)| d);
            if key > cutoff {
                // Keys ascend along the visit order: this entry and every
                // entry still in the heap are rejected by their sort key
                // alone.
                scan.counts.entries_skipped += (heap.len() + 1) as u64;
                engine.note_lb_skip(&scan.target, &prepared[i]);
                for &Reverse((_, j)) in heap.iter() {
                    engine.note_lb_skip(&scan.target, &prepared[j]);
                }
                break;
            }
            let distance = probe_entry(
                engine,
                &scan.target,
                &prepared[i],
                &self.frozen.repo.entries()[i],
                self.query,
                i,
                scan.env[i],
                cutoff,
                self.deadline,
                &mut scan.lb1c[i],
                &mut scan.lb2c[i],
                &mut scan.counts,
            )?;
            if let Some(d) = distance {
                if beats(i, d, scan.best) {
                    scan.best = Some((i, d));
                }
            }
        }
        Ok(())
    }

    /// Phase 1 on `jobs` scoped threads, each with its own scratch
    /// engine (the target is prepared once per scratch; distances do not
    /// depend on which engine interned the models). Workers drain the
    /// sorted visit order by a shared atomic position and share the
    /// best-so-far distance through an atomic minimum; the completed
    /// distances merge under the serial scan's tie rule, so the winner
    /// is independent of which worker got there first.
    fn parallel(
        &self,
        detector: &Detector,
        target: &CstBbs,
        jobs: usize,
        scan: &mut Scan,
    ) -> Result<(), DeadlineExceeded> {
        let prepared = &self.frozen.prepared;
        let n = prepared.len();
        let mut order: Vec<usize> = (0..n).collect();
        if let Some(keys) = self.keys {
            order.sort_by(|&a, &b| keys[a].total_cmp(&keys[b]).then(a.cmp(&b)));
        }
        let next = AtomicUsize::new(0);
        let aborted = AtomicBool::new(false);
        // Best distance so far, as bits: for non-negative IEEE floats the
        // bit pattern orders exactly like the value, so `fetch_min` on
        // bits is `fetch_min` on distances.
        let best_bits = AtomicU64::new(scan.best.map_or(f64::INFINITY, |(_, d)| d).to_bits());
        let env = &scan.env;
        let worker = || -> Result<(Vec<(usize, f64)>, ScanCounts), DeadlineExceeded> {
            let mut scratch = detector.checkout();
            let engine = &mut scratch.engine;
            let t = engine.prepare(target);
            let mut found = Vec::new();
            let mut counts = ScanCounts::default();
            loop {
                let pos = next.fetch_add(1, Ordering::Relaxed);
                let Some(&i) = order.get(pos) else { break };
                if aborted.load(Ordering::Relaxed) || self.expired() {
                    aborted.store(true, Ordering::Relaxed);
                    return Err(DeadlineExceeded);
                }
                let cutoff = f64::from_bits(best_bits.load(Ordering::Relaxed));
                if let Some(keys) = self.keys {
                    // The shared best only ever decreases, so a key above
                    // the cutoff now stays above it forever: skipping here
                    // is admissible even though other workers are still
                    // lowering the best.
                    if keys[i] > cutoff {
                        counts.entries_skipped += 1;
                        engine.note_lb_skip(&t, &prepared[i]);
                        continue;
                    }
                }
                let (mut lb1, mut lb2) = (f64::NAN, f64::NAN);
                let distance = probe_entry(
                    engine,
                    &t,
                    &prepared[i],
                    &self.frozen.repo.entries()[i],
                    self.query,
                    i,
                    env[i],
                    cutoff,
                    self.deadline,
                    &mut lb1,
                    &mut lb2,
                    &mut counts,
                )
                .inspect_err(|_| aborted.store(true, Ordering::Relaxed))?;
                if let Some(d) = distance {
                    best_bits.fetch_min(d.to_bits(), Ordering::Relaxed);
                    found.push((i, d));
                }
            }
            Ok((found, counts))
        };
        let results: Vec<_> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..jobs).map(|_| s.spawn(worker)).collect();
            workers.into_iter().map(join_scoped).collect()
        });
        for result in results {
            let (found, counts) = result?;
            scan.counts.absorb(&counts);
            for (i, d) in found {
                if beats(i, d, scan.best) {
                    scan.best = Some((i, d));
                }
            }
        }
        Ok(())
    }
}

/// Phase-1 probe of one entry under `cutoff`: the cheapest-first cascade
/// (precomputed interval envelope → length bound → CSP envelope → pivot
/// nearest-neighbor bound → early-abandoned DTW), each stage running only
/// if the previous one failed to disqualify the entry. Returns the exact
/// distance when the DTW ran to completion, `None` when the entry was
/// skipped or abandoned. `lb1`/`lb2` cache the heavy bounds (pure
/// functions of target and entry) for phase 2.
///
/// # Errors
///
/// Returns [`DeadlineExceeded`] when `deadline` passes mid-comparison.
#[allow(clippy::too_many_arguments)]
fn probe_entry(
    engine: &mut SimilarityEngine,
    target: &PreparedModel,
    entry_model: &PreparedModel,
    entry: &RepoEntry,
    query: Option<&QueryContext<'_>>,
    entry_idx: usize,
    env: f64,
    cutoff: f64,
    deadline: Option<Instant>,
    lb1: &mut f64,
    lb2: &mut f64,
    counts: &mut ScanCounts,
) -> Result<Option<f64>, DeadlineExceeded> {
    let mut sp = sca_telemetry::span("pipeline.compare.dtw");
    let before = engine.stats();
    let outcome = if env > cutoff {
        counts.entries_skipped += 1;
        engine.note_lb_skip(target, entry_model);
        Bounded::AtLeast(env)
    } else if !cutoff.is_finite() {
        // No best yet (first visited entry): the bounds can't disqualify
        // anything, go straight to the (unbounded) DTW.
        let r = engine.distance_bounded_until(target, entry_model, cutoff, deadline)?;
        counts.full_dtw_runs += 1;
        r
    } else {
        *lb1 = lb_length(target, entry_model);
        counts.lb_evals += 1;
        if *lb1 > cutoff {
            counts.entries_skipped += 1;
            engine.note_lb_skip(target, entry_model);
            Bounded::AtLeast(*lb1)
        } else {
            *lb2 = lb_csp_envelope(target, entry_model);
            counts.lb_evals += 1;
            if *lb2 > cutoff {
                counts.entries_skipped += 1;
                engine.note_lb_skip(target, entry_model);
                Bounded::AtLeast(lb2.max(*lb1))
            } else {
                let pivot = query.map_or(0.0, |q| {
                    counts.lb_evals += 1;
                    q.nn_bound(entry_idx)
                });
                if pivot > cutoff {
                    counts.entries_skipped += 1;
                    engine.note_lb_skip(target, entry_model);
                    Bounded::AtLeast(pivot)
                } else {
                    let r = engine.distance_bounded_until(target, entry_model, cutoff, deadline)?;
                    if matches!(r, Bounded::Exact(_)) {
                        counts.full_dtw_runs += 1;
                    }
                    r
                }
            }
        }
    };
    let distance = outcome.exact();
    if sp.is_recording() {
        let delta = engine.stats().since(&before);
        sp.attr("poc", &*entry.name);
        sp.attr("family", format!("{:?}", entry.family));
        sp.attr("cells", delta.cells);
        sp.attr("cells_pruned", delta.cells_pruned);
        sp.attr("score", score_of(outcome.lower_bound()));
        sp.attr("exact", distance.is_some());
        sca_telemetry::counter("dtw.comparisons", 1);
        flush_engine_stats(delta);
    }
    Ok(distance)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cst::{Cst, CstStep};
    use crate::similarity::similarity_score;

    fn dummy_model(n: usize, marker: u64) -> CstBbs {
        (0..n)
            .map(|i| CstStep {
                bb_addr: marker + i as u64,
                norm_insts: vec![sca_isa::NormInst::nullary(if marker == 0 {
                    "nop"
                } else {
                    "halt"
                })],
                cst: Cst::identity(),
                first_seen: i as u64,
            })
            .collect()
    }

    fn repo4() -> ModelRepository {
        let mut repo = ModelRepository::new();
        repo.add_model(AttackFamily::FlushReload, "fr", dummy_model(4, 0));
        repo.add_model(AttackFamily::PrimeProbe, "pp", dummy_model(10, 1));
        repo.add_model(AttackFamily::SpectreFlushReload, "sfr", dummy_model(7, 0));
        repo.add_model(AttackFamily::SpectrePrimeProbe, "spp", dummy_model(2, 1));
        repo
    }

    #[test]
    fn empty_repo_classifies_benign() {
        let d = Detector::new(ModelRepository::new(), 0.45).unwrap();
        let det = d.classify_model(&dummy_model(3, 0));
        assert!(!det.is_attack());
        assert_eq!(det.family(), None);
        assert_eq!(det.best_score(), 0.0);
    }

    #[test]
    fn identical_model_scores_one() {
        let mut repo = ModelRepository::new();
        repo.add_model(AttackFamily::FlushReload, "m", dummy_model(4, 0));
        let d = Detector::new(repo, 0.45).unwrap();
        let det = d.classify_model(&dummy_model(4, 0));
        assert!(det.is_attack());
        assert_eq!(det.family(), Some(AttackFamily::FlushReload));
        assert_eq!(det.best_score(), 1.0);
    }

    #[test]
    fn dissimilar_model_is_benign() {
        let mut repo = ModelRepository::new();
        repo.add_model(AttackFamily::PrimeProbe, "m", dummy_model(20, 0));
        let d = Detector::new(repo, 0.45).unwrap();
        let det = d.classify_model(&dummy_model(3, 1));
        assert!(!det.is_attack(), "score {}", det.best_score());
    }

    #[test]
    fn best_entry_wins_classification() {
        let mut repo = ModelRepository::new();
        repo.add_model(AttackFamily::PrimeProbe, "pp", dummy_model(10, 1));
        repo.add_model(AttackFamily::FlushReload, "fr", dummy_model(4, 0));
        let d = Detector::new(repo, 0.1).unwrap();
        let det = d.classify_model(&dummy_model(4, 0));
        assert_eq!(det.family(), Some(AttackFamily::FlushReload));
        assert_eq!(det.scores.len(), 2);
        assert_eq!(det.best_entry().map(|e| &*e.poc), Some("fr"));
    }

    #[test]
    fn pruned_scan_matches_naive_best() {
        let repo = repo4();
        let d = Detector::new(repo.clone(), 0.2).unwrap();
        let target = dummy_model(5, 0);
        let naive_best = repo
            .entries()
            .iter()
            .map(|e| similarity_score(&target, &e.model))
            .fold(f64::NEG_INFINITY, f64::max);
        let det = d.classify_model(&target);
        assert_eq!(det.best_score(), naive_best);
        assert!(det.best_entry().unwrap().exact);
        // Pruned entries report upper bounds at or above their true score.
        for (e, repo_entry) in det.scores.iter().zip(repo.entries()) {
            let true_score = similarity_score(&target, &repo_entry.model);
            if e.exact {
                assert_eq!(e.score, true_score);
            } else {
                assert!(e.score >= true_score);
            }
        }
    }

    #[test]
    fn seeded_scan_matches_unseeded_bitwise() {
        let mut d = Detector::new(repo4(), 0.2).unwrap();
        for indexed in [false, true] {
            if indexed {
                d.set_index(d.build_index()).unwrap();
            }
            for (t, marker) in [(1usize, 0u64), (4, 0), (5, 1), (10, 1)] {
                let target = dummy_model(t, marker);
                let want = d.scan_best_seeded(&target, None, None).unwrap();
                // Seed with the true winner's exact distance (the case a
                // streaming session produces), and with every other
                // entry's exact distance (a stale tracked entry after the
                // winner changed): all must reproduce the unseeded result
                // bit for bit.
                for i in 0..d.repository().len() {
                    let exact = crate::similarity::model_distance(
                        &target,
                        &d.repository().entries()[i].model,
                    );
                    let got = d.scan_best_seeded(&target, Some((i, exact)), None).unwrap();
                    let (wi, wd) = want.unwrap();
                    let (gi, gd) = got.unwrap();
                    assert_eq!(wi, gi, "indexed={indexed} t={t} marker={marker} seed={i}");
                    assert_eq!(
                        wd.to_bits(),
                        gd.to_bits(),
                        "indexed={indexed} t={t} marker={marker} seed={i}"
                    );
                }
            }
        }
    }

    #[test]
    fn scratch_engines_return_to_the_free_list() {
        let d = Detector::new(repo4(), 0.2).unwrap();
        let target = dummy_model(5, 0);
        let serial = d.classify_model(&target);
        assert_eq!(
            lock(&d.scratch).len(),
            1,
            "a serial scan checks out one scratch"
        );
        d.classify_model(&target);
        assert_eq!(lock(&d.scratch).len(), 1, "and reuses it");
        let parallel = d.classify_model_jobs(&target, 3);
        assert!((1..=3).contains(&lock(&d.scratch).len()));
        assert_eq!(serial.scores, parallel.scores);
        // A clone shares the frozen repository but not the free list.
        let c = d.clone();
        assert!(Arc::ptr_eq(&c.frozen, &d.frozen));
        assert!(lock(&c.scratch).is_empty());
        assert_eq!(c.classify_model(&target).scores, serial.scores);
    }

    #[test]
    fn jobs_scan_matches_serial() {
        let d = Detector::new(repo4(), 0.2).unwrap();
        for n in [0, 1, 3, 5, 12] {
            for marker in [0, 1] {
                let target = dummy_model(n, marker);
                let serial = d.classify_model(&target);
                let parallel = d.classify_model_jobs(&target, 3);
                assert_eq!(serial.best, parallel.best);
                assert_eq!(serial.best_score(), parallel.best_score());
                assert_eq!(serial.family(), parallel.family());
                // Phase 2 renders from the merged best distance alone, so
                // the full per-entry score list is identical too.
                assert_eq!(serial.scores, parallel.scores);
            }
        }
    }

    #[test]
    fn indexed_scan_is_byte_identical_to_linear() {
        let repo = repo4();
        let linear = Detector::new(repo.clone(), 0.2).unwrap();
        let mut indexed = Detector::new(repo, 0.2).unwrap();
        indexed.set_index(indexed.build_index()).unwrap();
        assert!(indexed.index().is_some());
        for n in [0, 1, 3, 5, 12] {
            for marker in [0, 1] {
                let target = dummy_model(n, marker);
                let a = detection_json("t", &linear.classify_model(&target)).to_string();
                let b = detection_json("t", &indexed.classify_model(&target)).to_string();
                assert_eq!(a, b, "indexed scan diverged (n={n}, marker={marker})");
                for jobs in [2, 3] {
                    let j = detection_json("t", &indexed.classify_model_jobs(&target, jobs))
                        .to_string();
                    assert_eq!(
                        a, j,
                        "indexed jobs={jobs} diverged (n={n}, marker={marker})"
                    );
                }
            }
        }
    }

    #[test]
    fn stale_index_is_rejected() {
        let mut small = ModelRepository::new();
        small.add_model(AttackFamily::FlushReload, "fr", dummy_model(4, 0));
        let other = Detector::new(small, 0.2).unwrap();
        let mut d = Detector::new(repo4(), 0.2).unwrap();
        assert_eq!(d.set_index(other.build_index()), Err(IndexMismatch));
        assert!(d.index().is_none(), "a rejected index must not stick");
        assert!(d.set_index(d.build_index()).is_ok());
    }

    #[test]
    fn batch_matches_serial() {
        let d = Detector::new(repo4(), 0.2).unwrap();
        let targets: Vec<CstBbs> = (0..7)
            .map(|i| dummy_model(i % 5 + 1, i as u64 % 2))
            .collect();
        let serial: Vec<Detection> = targets.iter().map(|t| d.classify_model(t)).collect();
        let batched = d.classify_batch(&targets, 4);
        assert_eq!(serial.len(), batched.len());
        for (s, b) in serial.iter().zip(&batched) {
            assert_eq!(s.best, b.best);
            assert_eq!(s.best_score(), b.best_score());
            assert_eq!(s.family(), b.family());
        }
    }

    #[test]
    fn bad_threshold_is_rejected_not_a_panic() {
        for t in [-0.1, 1.5, f64::NAN, f64::INFINITY] {
            let err = Detector::new(ModelRepository::new(), t)
                .err()
                .unwrap_or_else(|| panic!("threshold {t} must be rejected"));
            assert!(err.to_string().contains("out of range"), "{err}");
        }
        assert!(Detector::new(ModelRepository::new(), 0.0).is_ok());
        assert!(Detector::new(ModelRepository::new(), 1.0).is_ok());
    }

    #[test]
    fn deadline_scan_matches_serial_or_aborts() {
        let d = Detector::new(repo4(), 0.2).unwrap();
        let target = dummy_model(5, 0);
        // A generous deadline yields the exact same detection.
        let far = Instant::now() + std::time::Duration::from_secs(3600);
        let serial = d.classify_model(&target);
        let timed = d.classify_model_deadline(&target, far).expect("in time");
        assert_eq!(serial.best, timed.best);
        assert_eq!(serial.best_score(), timed.best_score());
        assert_eq!(serial.scores, timed.scores);
        // An already-passed deadline aborts before any entry.
        let past = Instant::now() - std::time::Duration::from_millis(1);
        assert_eq!(
            d.classify_model_deadline(&target, past).err(),
            Some(DeadlineExceeded)
        );
        // The detector still works after an aborted scan.
        let again = d.classify_model(&target);
        assert_eq!(serial.best_score(), again.best_score());
    }

    #[test]
    fn detection_json_is_stable_and_complete() {
        let d = Detector::new(repo4(), 0.2).unwrap();
        let det = d.classify_model(&dummy_model(4, 0));
        let json = detection_json("target", &det);
        let text = json.to_string();
        let parsed = Json::parse(&text).expect("valid JSON");
        assert_eq!(parsed, json, "rendering round-trips");
        assert_eq!(parsed.get("program").and_then(Json::as_str), Some("target"));
        assert!(parsed.get("attack").is_some());
        assert!(parsed.get("threshold").and_then(Json::as_f64).is_some());
        match parsed.get("scores") {
            Some(Json::Arr(scores)) => assert_eq!(scores.len(), det.scores.len()),
            other => panic!("scores must be an array: {other:?}"),
        }
    }
}
