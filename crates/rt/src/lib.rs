//! # regwin-rt
//!
//! A deterministic, non-preemptive multi-threading runtime running on the
//! simulated register-window CPU — the execution substrate for the
//! evaluation in *"Multiple Threads in Cyclic Register Windows"*
//! (Hidaka, Koike, Tanaka — ISCA 1993).
//!
//! The runtime reproduces the paper's execution model (§5.1):
//!
//! * threads communicate through bounded **cyclic FIFO streams**;
//! * scheduling is **non-preemptive**: "a thread execution continues
//!   until an input (output) buffer becomes empty (full)";
//! * the base scheduler is **FIFO**; the **working-set** refinement
//!   (§4.6) dispatches awoken threads whose windows are still resident
//!   ahead of everything else (FIFO among themselves). Scheduling is a
//!   pluggable [`SchedPolicy`]: the crate also ships a conflict-aware
//!   **WindowGreedy** policy and a starvation-bounded **Aging** hybrid;
//! * every procedure call in a thread body maps to a `save`/`restore`
//!   pair on the simulated CPU (via [`Ctx::call`]), so the window
//!   activity of the workload is what drives the schemes' behaviour.
//!
//! Thread bodies are async Rust closures. Every simulated thread is a
//! coroutine on the OS thread that runs the simulation: the scheduler
//! polls the one future its policy picked, and a blocking stream
//! operation (`.await` on [`Ctx::read_byte`], [`Ctx::write_byte`], …)
//! suspends it and returns control to the scheduler. Execution is fully
//! deterministic, and a context switch costs no OS handoff. Bodies need
//! not be `Send`.
//!
//! ```rust
//! use regwin_rt::{SchedulingPolicy, Simulation};
//! use regwin_traps::SchemeKind;
//!
//! # fn main() -> Result<(), regwin_rt::RtError> {
//! let mut sim = Simulation::new(8, SchemeKind::Sp)?;
//! let pipe = sim.add_stream("pipe", 4, 1);
//! sim.spawn("producer", async move |ctx| {
//!     for b in 0u8..16 {
//!         ctx.write_byte(pipe, b).await?;
//!     }
//!     ctx.close_writer(pipe).await
//! });
//! sim.spawn("consumer", async move |ctx| {
//!     let mut sum = 0u64;
//!     while let Some(b) = ctx.read_byte(pipe).await? {
//!         sum += u64::from(b);
//!     }
//!     assert_eq!(sum, 120);
//!     Ok(())
//! });
//! let report = sim.run()?;
//! assert!(report.stats.context_switches > 0);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

mod ctx;
mod error;
mod fault;
pub mod fuzz;
pub mod report;
mod sched;
mod sim;
mod stream;
mod trace;
mod trace_io;

pub use ctx::Ctx;
pub use error::RtError;
pub use fault::{FaultEvent, FaultKind, FaultPlan, FaultPlanError, WorkerFault, MAX_FAULT_PES};
pub use fuzz::{fuzzed_policy, Fuzzed};
pub use report::{BusSummary, RunReport, ThreadReport};
pub use sched::{
    AgingPolicy, FifoPolicy, ReadyQueue, SchedPolicy, SchedulingPolicy, WakeInfo,
    WindowGreedyPolicy, WorkingSetPolicy, AGING_LIMIT,
};
pub use sim::{SendEvent, SimOptions, Simulation, StartedSim, StepOutcome, ThreadBody};
pub use stream::{Stream, StreamId};
pub use trace::{Trace, TraceEvent};

pub use regwin_machine::ThreadId;
pub use regwin_machine::{FaultSchedule, TransferFault};
