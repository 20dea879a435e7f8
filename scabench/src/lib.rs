//! `scabench`: the socket-to-verdict benchmark of `scaguard serve`.
//!
//! One run starts the release `scaguard serve` as a child process on
//! loopback, drives it with one of four closed-loop workloads generated
//! from a seed, gates every reply against the in-process offline
//! pipeline, and prints every metric by name with its unit. A traced
//! run (`--trace 1`) splits the time by layer instead. See `README.md`
//! beside this package for the metrics and workloads.

pub mod bench;
pub mod check;
pub mod gen;
pub mod layers;
pub mod load;
pub mod procfs;
pub mod serverproc;
pub mod stats;
pub mod trace;
pub mod wire;
