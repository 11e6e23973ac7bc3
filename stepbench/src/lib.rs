//! Live training-step benchmark for `DistMoeLayer` on the thread-backed
//! collectives.
//!
//! Three 2-rank workloads (see [`workload`]) drive the real training
//! step in a closed loop. An untraced run reports the end-to-end
//! metrics; a traced run reports per-layer metrics from spans recorded
//! around calls into each layer ([`trace`]), with the stages the layer
//! offers no injection point for timed by a bit-identical stage replay
//! ([`replay`]). `README.md` in this directory maps every metric to the
//! layer it measures and the workload that should move it.

pub mod bench;
pub mod replay;
pub mod report;
pub mod run;
pub mod stats;
pub mod trace;
pub mod workload;

/// Error type of the benchmark: any layer, collective or check failure.
pub type Error = Box<dyn std::error::Error + Send + Sync>;

/// Result alias over [`Error`].
pub type Result<T> = std::result::Result<T, Error>;
