//! # scaguard — attack behavior modeling and similarity-based detection
//!
//! A faithful reproduction of **SCAGuard** (Wang, Bu, Song — DAC 2023):
//! detection and classification of cache side-channel attacks (CSCAs) via
//! attack behavior modeling and similarity comparison.
//!
//! ## Pipeline
//!
//! Given a program (and the victim it would run against), SCAGuard:
//!
//! 1. executes it on the simulated CPU, collecting HPC events, per-block
//!    memory accesses, and timestamps ([`sca_cpu`]);
//! 2. builds its CFG ([`sca_cfg`]) and identifies *attack-relevant* basic
//!    blocks — nonzero HPC value, then cache-set-overlap filtering
//!    ([`modeling`]);
//! 3. connects the relevant blocks into an *attack-relevant graph* with
//!    the most-probable attack paths (Algorithm 1: back-edge removal, path
//!    scoring by mean HPC, maximum spanning tree, path restoration);
//! 4. enhances each block with a *cache state transition* (CST) measured
//!    by replaying its accesses in a prefilled cache simulator, and
//!    flattens the graph by first-execution timestamp into a **CST-BBS**
//!    ([`CstBbs`]);
//! 5. compares CST-BBSes with dynamic time warping over a per-step
//!    distance that averages normalized-Levenshtein instruction distance
//!    and cache-state-pair distance ([`similarity`]);
//! 6. classifies the program as the attack family of the best-matching
//!    PoC model when the similarity score clears a threshold (45% by
//!    default), else benign ([`Detector`]).
//!
//! ```no_run
//! use scaguard::{Detector, ModelingConfig, ModelRepository};
//! use sca_attacks::poc::{self, PocParams};
//! use sca_attacks::AttackFamily;
//!
//! # fn main() -> Result<(), scaguard::ModelError> {
//! let cfg = ModelingConfig::default();
//! let mut repo = ModelRepository::new();
//! for family in AttackFamily::ALL {
//!     let poc = poc::representative(family, &PocParams::default());
//!     repo.add_poc(family, &poc.program, &poc.victim, &cfg)?;
//! }
//! let detector = Detector::new(repo, 0.45).expect("threshold in range");
//! let target = poc::flush_reload_mastik(&PocParams::default());
//! let detection = detector.classify(&target.program, &target.victim, &cfg)?;
//! assert!(detection.is_attack());
//! # Ok(())
//! # }
//! ```

pub mod builder;
pub mod engine;
pub mod index;
pub mod modeling;
pub mod persist;
pub mod similarity;
pub mod stream;

mod cst;
mod detector;

pub use builder::{BuilderStats, ModelBuilder, ModelKey};
pub use cst::{Cst, CstBbs, CstStep};
pub use detector::{
    detection_json, Detection, Detector, EntryScore, InvalidThreshold, ModelRepository, RepoEntry,
};
pub use engine::{
    Bounded, DeadlineExceeded, EngineStats, PrefixDtw, PreparedModel, SimilarityEngine,
};
pub use index::{repo_fingerprint, IndexConfig, IndexMismatch, QueryContext, RepoIndex};
pub use modeling::{
    build_model, build_models, model_from_blocks, ModelError, ModelingConfig, ModelingOutcome,
};
pub use persist::{
    index_sidecar_path, load_index, load_model_cache, load_repository, model_text, save_index,
    save_model_cache, save_repository, LoadRepoError,
};
pub use similarity::{
    cst_distance, dtw, dtw_with_path, explain_similarity, levenshtein, similarity_score, Alignment,
};
pub use stream::{Alarm, StreamConfig, StreamSession, StreamUpdate, StreamingModeler};

/// A one-field wrapper that exists only so the frozen `scabench/`
/// benchmark keeps compiling: it wraps a [`Detector`] with
/// `ShardedDetector::from_detector` and hands `&ShardedDetector` to
/// [`StreamSession::begin`], which derefs to the detector. Not part of
/// the API; use [`Detector`] directly.
#[doc(hidden)]
#[derive(Debug)]
pub struct ShardedDetector(Detector);

impl ShardedDetector {
    /// Wrap `detector`.
    pub fn from_detector(detector: Detector) -> ShardedDetector {
        ShardedDetector(detector)
    }
}

impl std::ops::Deref for ShardedDetector {
    type Target = Detector;

    fn deref(&self) -> &Detector {
        &self.0
    }
}
