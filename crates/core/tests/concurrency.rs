//! Concurrent scans of one shared detector. Four threads share an
//! `Arc<Detector>` over a repository of mutated PoC variants, linear and
//! indexed, and interleave the scan entry points on the same targets.
//! Every detection must be byte-identical to a serial scan on a separate
//! detector, and every best distance must be bitwise the paper-direct
//! DTW distance — the guarantee a detector-wide scan lock used to give,
//! checked directly now that scans run concurrently on scratch engines.

use std::sync::{Arc, Barrier};
use std::thread;
use std::time::{Duration, Instant};

use sca_attacks::dataset::mutated_family;
use sca_attacks::mutate::MutationConfig;
use sca_attacks::poc::{self, PocParams};
use sca_attacks::{AttackFamily, Sample};
use scaguard::similarity::model_distance;
use scaguard::{detection_json, CstBbs, Detector, ModelBuilder, ModelRepository, ModelingConfig};

const THREADS: usize = 4;
/// Mutated variants enrolled per family (plus one representative each).
const VARIANTS: usize = 16;
/// Mutated targets per family.
const TARGETS: usize = 4;

fn models(builder: &ModelBuilder, samples: &[Sample]) -> Vec<CstBbs> {
    samples
        .iter()
        .map(|s| (*builder.build_cst(&s.program, &s.victim).expect("model")).clone())
        .collect()
}

/// 4 representatives plus `VARIANTS` mutated variants per family, and
/// `TARGETS` further mutants per family (different seed) to classify.
fn workload() -> (ModelRepository, Vec<(String, CstBbs)>) {
    let builder = ModelBuilder::new(&ModelingConfig::default());
    let mutation = MutationConfig::default();
    let mut repo = ModelRepository::new();
    let mut targets = Vec::new();
    for family in AttackFamily::ALL {
        let mut enrolled = vec![poc::representative(family, &PocParams::default())];
        enrolled.extend(mutated_family(family, VARIANTS, 0xc0c0, &mutation));
        for (i, model) in models(&builder, &enrolled).into_iter().enumerate() {
            repo.add_model(family, format!("{}-{i:02}", family.abbrev()), model);
        }
        let probes = mutated_family(family, TARGETS, 0x7a26, &mutation);
        for (i, model) in models(&builder, &probes).into_iter().enumerate() {
            targets.push((format!("{}-target-{i}", family.abbrev()), model));
        }
    }
    (repo, targets)
}

fn detector(repo: &ModelRepository, indexed: bool) -> Detector {
    let mut d = Detector::new(repo.clone(), Detector::DEFAULT_THRESHOLD).expect("threshold");
    if indexed {
        d.set_index(d.build_index()).expect("fresh index");
    }
    d
}

#[test]
fn shared_detector_scans_concurrently_byte_identical_to_serial() {
    let (repo, targets) = workload();
    assert!(repo.len() >= 64, "repository has {} entries", repo.len());
    assert!(targets.len() >= 16);
    let n = repo.len();
    for indexed in [false, true] {
        // The serial reference runs on a detector of its own.
        let reference = detector(&repo, indexed);
        let want: Vec<(String, (usize, u64))> = targets
            .iter()
            .map(|(name, t)| {
                let json = detection_json(name, &reference.classify_model(t)).to_string();
                let (bi, bd) = reference
                    .scan_best_seeded(t, None, None)
                    .expect("no deadline")
                    .expect("nonempty repository");
                let naive = model_distance(t, &repo.entries()[bi].model);
                assert_eq!(
                    bd.to_bits(),
                    naive.to_bits(),
                    "{name}: serial best distance"
                );
                (json, (bi, bd.to_bits()))
            })
            .collect();

        let shared = Arc::new(detector(&repo, indexed));
        let start = Arc::new(Barrier::new(THREADS));
        let far = Instant::now() + Duration::from_secs(3600);
        thread::scope(|s| {
            for k in 0..THREADS {
                let (shared, start) = (Arc::clone(&shared), Arc::clone(&start));
                let (targets, want, repo) = (&targets, &want, &repo);
                s.spawn(move || {
                    start.wait();
                    // Each thread walks the targets from its own offset,
                    // so the same target is scanned by different threads
                    // at the same time.
                    for step in 0..targets.len() {
                        let ti = (step + k * targets.len() / THREADS) % targets.len();
                        let (name, t) = &targets[ti];
                        let (want_json, want_best) = &want[ti];
                        let plain = detection_json(name, &shared.classify_model(t)).to_string();
                        assert_eq!(&plain, want_json, "indexed={indexed} thread {k}: {name}");
                        let timed = shared
                            .classify_model_deadline(t, far)
                            .expect("far deadline");
                        let timed = detection_json(name, &timed).to_string();
                        assert_eq!(&timed, want_json, "indexed={indexed} thread {k}: {name}");
                        // Seed with some entry's exact distance: any exact
                        // distance is an admissible cutoff.
                        let j = (k + step) % n;
                        let seed = model_distance(t, &repo.entries()[j].model);
                        let (bi, bd) = shared
                            .scan_best_seeded(t, Some((j, seed)), Some(far))
                            .expect("far deadline")
                            .expect("nonempty repository");
                        assert_eq!(
                            (bi, bd.to_bits()),
                            *want_best,
                            "indexed={indexed} thread {k}: {name} seeded by entry {j}"
                        );
                        let naive = model_distance(t, &repo.entries()[bi].model);
                        assert_eq!(bd.to_bits(), naive.to_bits(), "{name}: best distance");
                    }
                });
            }
        });
    }
}
