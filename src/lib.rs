//! # regwin — Multiple Threads in Cyclic Register Windows
//!
//! A complete, executable reproduction of *"Multiple Threads in Cyclic
//! Register Windows"* (Yasuo Hidaka, Hanpei Koike, Hidehiko Tanaka —
//! **ISCA 1993**): the proposed window-management algorithm, the two
//! baseline schemes, the SPARC-like register-window substrate they run
//! on, the multi-threaded runtime and spell-checker workload of the
//! paper's evaluation, and drivers regenerating every table and figure.
//!
//! ## The idea being reproduced
//!
//! Overlapping register windows make procedure calls fast but context
//! switches slow — unless several threads can *share* the window buffer.
//! Sharing breaks the conventional underflow handler, which restores a
//! missing caller window *below* the current one and therefore has to
//! spill other threads' windows from their stack-top end. The paper's
//! one-line fix: restore the caller **into the slot the callee used**
//! (the callee is dead at that point). Underflow then never spills, and
//! plain cyclic windows can host many threads with no extra hardware.
//!
//! ## Crate map
//!
//! | crate | contents |
//! |-------|----------|
//! | [`machine`] | the window-file simulator: CWP, WIM, overlap, traps, cost model |
//! | [`traps`] | trap handlers + the NS / SNP / SP schemes |
//! | [`rt`] | non-preemptive runtime: streams, schedulers, trace record/replay |
//! | [`spell`] | the 7-thread spell-checker workload + synthetic corpus |
//! | [`cluster`] | discrete-event multi-PE simulation over a contended shared bus |
//! | [`core`] | experiment drivers for every table and figure |
//! | [`sweep`] | parallel, cached, observable experiment orchestration |
//! | [`gen`] | seeded workload generator + schedule-fuzzing differential oracle |
//! | [`asm`] | SPARC-subset assembler/interpreter on the window machine |
//!
//! ## Quick start
//!
//! ```rust
//! use regwin::prelude::*;
//!
//! # fn main() -> Result<(), regwin::rt::RtError> {
//! // Run the paper's workload under the proposed SP scheme on a
//! // 7-window SPARC-like CPU (the S-20 had 7 windows).
//! let pipeline = SpellPipeline::new(SpellConfig::small());
//! let outcome = pipeline.run(7, SchemeKind::Sp)?;
//! println!(
//!     "{} cycles, {} context switches, trap probability {:.4}",
//!     outcome.report.total_cycles(),
//!     outcome.report.stats.context_switches,
//!     outcome.report.trap_probability(),
//! );
//! // The simulated pipeline reports exactly what a sequential
//! // reference implementation reports:
//! assert_eq!(outcome.sorted_misspellings(), pipeline.expected_sorted());
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub use regwin_asm as asm;
pub use regwin_cluster as cluster;
pub use regwin_core as core;
pub use regwin_gen as gen;
pub use regwin_machine as machine;
pub use regwin_rt as rt;
pub use regwin_spell as spell;
pub use regwin_sweep as sweep;
pub use regwin_traps as traps;

/// The most commonly used types, re-exported flat.
pub mod prelude {
    pub use regwin_cluster::{run_spell_cluster, ClusterConfig, PeConfig};
    pub use regwin_core::{Behavior, Concurrency, Granularity};
    pub use regwin_machine::{
        CostModel, Machine, MachineConfig, SchemeKind, ThreadId, TimingKind, WindowIndex,
    };
    pub use regwin_rt::{Ctx, RtError, RunReport, SchedulingPolicy, Simulation};
    pub use regwin_spell::{CorpusSpec, SpellConfig, SpellPipeline};
    pub use regwin_sweep::{SweepConfig, SweepEngine};
    pub use regwin_traps::{build_scheme, Cpu, NsScheme, Scheme, SnpScheme, SpScheme};
}
