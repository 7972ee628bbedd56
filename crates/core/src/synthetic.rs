//! Synthetic microworkload with directly controllable §5 behaviour.
//!
//! The spell checker's window activity emerges from its input; this
//! module provides the complement — a token-ring pipeline whose **window
//! activity per thread** (call depth), **concurrency** (thread count)
//! and **granularity** (buffer size) are set directly, for controlled
//! sweeps of the paper's behavioural model (total activity ≈ activity
//! per thread × concurrency, and the sharing schemes saturate once the
//! file covers it).

use regwin_machine::MachineConfig;
use regwin_rt::{Ctx, RtError, RunReport, SchedulingPolicy, Simulation, StreamId, Trace};
use regwin_traps::{build_scheme, SchemeKind};

/// Parameters of the synthetic ring workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SyntheticSpec {
    /// Threads in the ring (the concurrency knob).
    pub threads: usize,
    /// Items the generator injects (workload length).
    pub items: usize,
    /// Procedure-call depth of each item's processing (the
    /// window-activity-per-thread knob).
    pub call_depth: usize,
    /// Ring-stream capacity in bytes (the granularity knob).
    pub buffer: usize,
    /// Compute cycles charged in each call frame.
    pub compute_per_frame: u64,
}

impl SyntheticSpec {
    /// A small default: 4 threads, 200 items, depth 3, 1-byte buffers.
    pub fn small() -> Self {
        SyntheticSpec { threads: 4, items: 200, call_depth: 3, buffer: 1, compute_per_frame: 2 }
    }

    /// The exact SP window demand of this spec: each stage thread holds
    /// its base frame, a `call_depth + 1`-frame pump chain and one
    /// private reserved window; the sink holds base + read frame + PRW.
    /// With this many physical windows, every thread stays fully
    /// resident and the SP scheme saturates (verified by
    /// `sharing_saturation_tracks_nominal_total_activity`).
    pub fn nominal_total_activity(&self) -> usize {
        self.threads * (self.call_depth + 3) + 3
    }
}

/// Processes one item through a call chain of the given depth, with the
/// stream I/O at the *bottom* frame — where real code's `getc`/`putc`
/// sit, and where blocking must happen for resumed threads to re-enter
/// their dead windows trap-free (see `regwin-spell`'s T1).
async fn pump_item(
    ctx: &mut Ctx,
    depth: usize,
    compute: u64,
    input: Option<StreamId>,
    output: StreamId,
    inject: Option<u8>,
) -> Result<bool, RtError> {
    ctx.call(async |ctx| {
        ctx.compute(compute);
        if depth > 0 {
            return Box::pin(pump_item(ctx, depth - 1, compute, input, output, inject)).await;
        }
        let byte = match (input, inject) {
            (Some(input), _) => match ctx.read_byte(input).await? {
                Some(b) => b,
                None => return Ok(false),
            },
            (None, Some(b)) => b,
            (None, None) => return Ok(false),
        };
        ctx.write_byte(output, byte).await?;
        Ok(true)
    })
    .await
}

async fn stage_body(
    ctx: &mut Ctx,
    input: Option<StreamId>,
    output: StreamId,
    spec: SyntheticSpec,
) -> Result<(), RtError> {
    match input {
        None => {
            // The generator: inject items through its call chain.
            for i in 0..spec.items {
                pump_item(
                    ctx,
                    spec.call_depth,
                    spec.compute_per_frame,
                    None,
                    output,
                    Some((i % 251) as u8),
                )
                .await?;
            }
            ctx.close_writer(output).await
        }
        Some(input) => {
            while pump_item(ctx, spec.call_depth, spec.compute_per_frame, Some(input), output, None)
                .await?
            {}
            ctx.close_writer(output).await
        }
    }
}

fn build(
    spec: SyntheticSpec,
    nwindows: usize,
    scheme: SchemeKind,
    policy: SchedulingPolicy,
    traced: bool,
) -> Result<Simulation, RtError> {
    assert!(spec.threads >= 2, "a ring needs at least two threads");
    let mut sim = Simulation::with_config(MachineConfig::new(nwindows), build_scheme(scheme))?
        .with_policy(policy);
    if traced {
        sim = sim.with_trace_recording();
    }
    let streams: Vec<StreamId> =
        (0..spec.threads).map(|i| sim.add_stream(format!("ring{i}"), spec.buffer, 1)).collect();
    for i in 0..spec.threads {
        let input = if i == 0 { None } else { Some(streams[i - 1]) };
        let output = streams[i];
        sim.spawn(format!("stage{i}"), async move |ctx| stage_body(ctx, input, output, spec).await);
    }
    // A sink drains the last ring stream.
    let last = streams[spec.threads - 1];
    sim.spawn("sink", async move |ctx| {
        while ctx.call(async |ctx| ctx.read_byte(last).await).await?.is_some() {
            ctx.compute(1);
        }
        Ok(())
    });
    Ok(sim)
}

/// Runs the synthetic workload.
///
/// # Errors
///
/// Propagates runtime errors.
pub fn run(
    spec: SyntheticSpec,
    nwindows: usize,
    scheme: SchemeKind,
    policy: SchedulingPolicy,
) -> Result<RunReport, RtError> {
    build(spec, nwindows, scheme, policy, false)?.run()
}

/// Runs once with trace recording (for activity analysis and replays).
///
/// # Errors
///
/// Propagates runtime errors.
pub fn run_traced(
    spec: SyntheticSpec,
    nwindows: usize,
    scheme: SchemeKind,
) -> Result<(RunReport, Trace), RtError> {
    let (report, trace) =
        build(spec, nwindows, scheme, SchedulingPolicy::Fifo, true)?.run_with_trace()?;
    Ok((report, trace.expect("recording enabled")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activity;

    #[test]
    fn deeper_calls_mean_more_activity_per_thread() {
        let shallow = SyntheticSpec { call_depth: 1, ..SyntheticSpec::small() };
        let deep = SyntheticSpec { call_depth: 6, ..SyntheticSpec::small() };
        let (_, t1) = run_traced(shallow, 16, SchemeKind::Sp).unwrap();
        let (_, t2) = run_traced(deep, 16, SchemeKind::Sp).unwrap();
        let a1 = activity::analyze(&t1, 2_000).avg_activity_per_thread;
        let a2 = activity::analyze(&t2, 2_000).avg_activity_per_thread;
        assert!(a2 > a1 + 2.0, "shallow {a1} vs deep {a2}");
    }

    #[test]
    fn more_threads_mean_more_concurrency_and_total_activity() {
        let narrow = SyntheticSpec { threads: 2, ..SyntheticSpec::small() };
        let wide = SyntheticSpec { threads: 6, ..SyntheticSpec::small() };
        let (_, t1) = run_traced(narrow, 32, SchemeKind::Sp).unwrap();
        let (_, t2) = run_traced(wide, 32, SchemeKind::Sp).unwrap();
        let r1 = activity::analyze(&t1, 2_000);
        let r2 = activity::analyze(&t2, 2_000);
        assert!(r2.avg_concurrency > r1.avg_concurrency);
        assert!(r2.avg_total_activity > r1.avg_total_activity);
    }

    #[test]
    fn sharing_saturation_tracks_nominal_total_activity() {
        // The paper's central behavioural claim: the sharing schemes stop
        // improving once the file covers the total window activity.
        let spec = SyntheticSpec { threads: 3, call_depth: 2, ..SyntheticSpec::small() };
        let nominal = spec.nominal_total_activity(); // 18 for (3 threads, depth 2)
        let at =
            |w: usize| run(spec, w, SchemeKind::Sp, SchedulingPolicy::Fifo).unwrap().total_cycles();
        let scarce = at(4);
        let covered = at(nominal);
        let plenty = at(40);
        assert!(covered < scarce, "covering the activity must help");
        let covered_f = covered as f64;
        assert!(
            (plenty as f64 - covered_f).abs() / covered_f < 0.10,
            "beyond coverage, more windows change little: {covered} vs {plenty}"
        );
    }

    #[test]
    fn scheme_ordering_holds_on_the_synthetic_workload_too() {
        let spec = SyntheticSpec::small();
        let sp = run(spec, 32, SchemeKind::Sp, SchedulingPolicy::Fifo).unwrap();
        let ns = run(spec, 32, SchemeKind::Ns, SchedulingPolicy::Fifo).unwrap();
        assert!(sp.total_cycles() < ns.total_cycles());
    }

    #[test]
    fn results_are_deterministic() {
        let spec = SyntheticSpec::small();
        let a = run(spec, 8, SchemeKind::Snp, SchedulingPolicy::Fifo).unwrap();
        let b = run(spec, 8, SchemeKind::Snp, SchedulingPolicy::Fifo).unwrap();
        assert_eq!(a.total_cycles(), b.total_cycles());
    }
}
