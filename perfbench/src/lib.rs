//! The regwin benchmark as a library, so its self-tests can drive the
//! same code the `regwin-perfbench` binary runs. See `RATIONALE.md` for
//! the workloads and metrics.

pub mod e2e;
pub mod layers;
pub mod report;
pub mod stats;
pub mod sys;
pub mod tracer;
pub mod workload;
