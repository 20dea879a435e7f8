//! Workload inputs, all generated from the run's seed: mutated attack
//! variants (`sca_attacks::dataset::mutated_family`) and benign programs
//! (`sca_attacks::benign`). The server only ever sees these.

use std::collections::hash_map::DefaultHasher;
use std::collections::{HashSet, VecDeque};
use std::hash::{Hash, Hasher};

use sca_attacks::dataset::mutated_family;
use sca_attacks::mutate::MutationConfig;
use sca_attacks::{benign, AttackFamily, Sample};
use sca_cpu::Victim;
use sca_serve::protocol::{parse_victim, CACHE_LINE, CONFLICT_BASE, SHARED_BASE};
use sca_serve::{BatchProgram, Request};
use scaguard::{ModelKey, ModelingConfig};

/// One program as the server receives it: assembly text plus a victim
/// spec.
#[derive(Debug, Clone, PartialEq)]
pub struct Target {
    /// Program name (echoed back in its detection).
    pub name: String,
    /// Assembly source.
    pub source: String,
    /// Wire victim spec (`none`, `shared:<s>`, `conflict:<s>`).
    pub victim: String,
}

impl Target {
    fn from_sample(name: String, sample: &Sample) -> Target {
        Target {
            name,
            source: sca_isa::to_asm(&sample.program),
            victim: victim_spec(&sample.victim),
        }
    }

    /// The `classify` request for this program.
    pub fn classify(&self) -> Request {
        Request::Classify {
            name: self.name.clone(),
            program: self.source.clone(),
            victim: self.victim.clone(),
            threshold: None,
            deadline_ms: None,
            debug_sleep_ms: 0,
            debug_panic: false,
        }
    }

    /// This program as one entry of a `classify-batch` frame.
    pub fn batch_entry(&self) -> BatchProgram {
        BatchProgram {
            name: self.name.clone(),
            program: self.source.clone(),
            victim: self.victim.clone(),
            threshold: None,
        }
    }

    /// The `watch` request opening a stream on this program, with the
    /// server's default increment, τ and k.
    pub fn watch(&self) -> Request {
        Request::Watch {
            name: self.name.clone(),
            program: self.source.clone(),
            victim: self.victim.clone(),
            increment: None,
            threshold: None,
            sustain: None,
            deadline_ms: None,
        }
    }

    /// The builder's content key for this program exactly as the server
    /// sees it (assembled from the wire text, victim parsed from the
    /// spec).
    pub fn model_key(&self) -> ModelKey {
        let program =
            sca_isa::assemble(&self.name, &self.source).expect("generated programs assemble");
        let victim = parse_victim(&self.victim).expect("generated victim specs parse");
        ModelKey::new(&program, &victim, &ModelingConfig::default())
    }
}

/// The wire spec of a generated victim. Shared-memory victims sit at or
/// above the protocol's `SHARED_BASE` and conflict victims at or above
/// its `CONFLICT_BASE`, line-aligned; a spec names one secret, so the
/// base offset (in lines) folds into it and the victim touches the same
/// address it would in the sample.
pub fn victim_spec(victim: &Victim) -> String {
    match victim {
        Victim::None => "none".into(),
        Victim::Secret { base, secrets, .. } => {
            let secret = secrets.first().copied().unwrap_or(0);
            let (kind, wire_base) = if *base >= CONFLICT_BASE {
                ("conflict", CONFLICT_BASE)
            } else {
                ("shared", SHARED_BASE)
            };
            let offset = base - wire_base;
            assert_eq!(
                offset % CACHE_LINE,
                0,
                "victim base {base:#x} is not line-aligned"
            );
            format!("{kind}:{}", offset / CACHE_LINE + secret)
        }
    }
}

/// SplitMix64 finalizer: derives independent sub-seeds from the run seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// `per_family` mutated variants of every attack family, named
/// `pool-<abbrev>-<i>`. The seed space is disjoint from the repository's
/// enrolled variants, so targets are never enrolled models.
pub fn attack_pool(seed: u64, per_family: usize) -> Vec<Target> {
    AttackFamily::ALL
        .iter()
        .flat_map(|&family| {
            mutated_family(
                family,
                per_family,
                mix(seed, 0xa77a_c000),
                &MutationConfig::default(),
            )
            .into_iter()
            .enumerate()
            .map(move |(i, s)| Target::from_sample(format!("pool-{}-{i}", family.abbrev()), &s))
        })
        .collect()
}

/// A stream of never-repeated programs, attack variants and benign
/// programs alternating: no two programs it yields share a model-cache
/// key, so every one misses the server's builder.
///
/// Each chunk draws a few variants of one family (cycling through the
/// four) and as many benign programs, each from its own sub-seed;
/// duplicates are dropped by a 128-bit digest (FNV-1a from the builder
/// key plus SipHash) of the builder's canonical key.
pub struct FreshPrograms {
    seed: u64,
    chunk: u64,
    yielded: u64,
    seen: HashSet<(u64, u64)>,
    pending: VecDeque<Target>,
}

/// Programs of each kind per generator chunk.
const CHUNK_PER_KIND: usize = 3;

impl FreshPrograms {
    /// A generator for `seed`; it names its programs `fresh-<i>`.
    pub fn new(seed: u64) -> FreshPrograms {
        FreshPrograms {
            seed,
            chunk: 0,
            yielded: 0,
            seen: HashSet::new(),
            pending: VecDeque::new(),
        }
    }

    fn refill(&mut self) {
        let sub = mix(self.seed, 0xc01d_0000 + self.chunk);
        let family = AttackFamily::ALL[(self.chunk % 4) as usize];
        let attacks = mutated_family(family, CHUNK_PER_KIND, sub, &MutationConfig::default());
        let benigns = benign::generate_mix(CHUNK_PER_KIND, sub ^ 0xbe);
        self.chunk += 1;
        for (a, b) in attacks.iter().zip(&benigns) {
            for sample in [a, b] {
                let t = Target::from_sample(String::new(), sample);
                let key = t.model_key();
                let mut sip = DefaultHasher::new();
                key.canonical().hash(&mut sip);
                if self.seen.insert((key.hash(), sip.finish())) {
                    self.pending.push_back(t);
                }
            }
        }
    }
}

impl Iterator for FreshPrograms {
    type Item = Target;

    fn next(&mut self) -> Option<Target> {
        while self.pending.is_empty() {
            self.refill();
        }
        let mut t = self.pending.pop_front()?;
        t.name = format!("fresh-{}", self.yielded);
        self.yielded += 1;
        Some(t)
    }
}
