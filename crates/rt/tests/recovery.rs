//! Self-healing window state, end to end: with auditing enabled a
//! *masked* corruption (spill or fill) must be detected and repaired so
//! transparently that the run report is byte-identical to a fault-free
//! run — while the repair counter proves the auditor actually worked.
//! An *unrecoverable* corruption (a bit-flip in a live dirty frame) must
//! quarantine exactly the owning thread and let every other thread run
//! to completion.

use regwin_obs::{Metric, Probe, RecordingProbe};
use regwin_rt::{Ctx, FaultKind, FaultPlan, RtError, RunReport, Simulation, StreamId};
use regwin_traps::SchemeKind;
use std::sync::Arc;

/// The fault-oracle workload (deep call chains over 4 windows feeding a
/// stream) with window auditing switched on.
fn run_audited(plan: Option<&FaultPlan>, probe: Arc<dyn Probe>) -> Result<RunReport, RtError> {
    let mut sim = Simulation::new(4, SchemeKind::Sp)?.with_window_audit().with_probe(probe);
    if let Some(plan) = plan {
        sim = sim.with_fault_plan(plan);
    }
    let pipe = sim.add_stream("pipe", 4, 1);
    sim.spawn("producer", async move |ctx| {
        for b in 0u8..32 {
            deep(ctx, 8, pipe, b).await?;
        }
        ctx.close_writer(pipe).await
    });
    sim.spawn("consumer", async move |ctx| {
        let mut sum = 0u64;
        while let Some(b) = ctx.read_byte(pipe).await? {
            sum += u64::from(b);
        }
        assert_eq!(sum, (0..32u64).sum::<u64>());
        Ok(())
    });
    sim.run()
}

async fn deep(ctx: &mut Ctx, depth: usize, pipe: StreamId, b: u8) -> Result<(), RtError> {
    if depth == 0 {
        return ctx.write_byte(pipe, b).await;
    }
    ctx.call(async |ctx| Box::pin(deep(ctx, depth - 1, pipe, b)).await).await
}

#[test]
fn audited_repairs_leave_the_report_byte_identical() {
    let baseline = run_audited(None, Arc::new(RecordingProbe::new())).unwrap();
    assert!(baseline.stats.overflow_spills > 0, "workload must spill");
    for at in [0, 1, 2, 5, 9] {
        for kind in [FaultKind::SpillCorrupt, FaultKind::FillCorrupt] {
            let plan = FaultPlan::new().with_event(kind, at).with_seed(0xDEAD_BEEF);
            let probe = Arc::new(RecordingProbe::new());
            let faulted = run_audited(Some(&plan), probe.clone())
                .unwrap_or_else(|e| panic!("audited {kind}@{at} must repair, not fail: {e}"));
            assert_eq!(faulted, baseline, "audited {kind}@{at} changed a reported number");
            assert!(
                probe.counter_total(Metric::WindowRepairs) > 0,
                "{kind}@{at}: the auditor must actually repair something"
            );
            assert!(
                faulted.threads.iter().all(|t| !t.quarantined),
                "{kind}@{at}: a repairable fault must never quarantine"
            );
        }
    }
}

#[test]
fn fault_free_audited_run_repairs_nothing() {
    let probe = Arc::new(RecordingProbe::new());
    run_audited(None, probe.clone()).unwrap();
    assert_eq!(probe.counter_total(Metric::WindowRepairs), 0);
    assert_eq!(probe.counter_total(Metric::ThreadsQuarantined), 0);
}

/// Three independent deep-calling threads (no shared streams, so the
/// survivors cannot deadlock on a quarantined peer).
fn run_independent(plan: &FaultPlan) -> Result<RunReport, RtError> {
    let mut sim = Simulation::new(4, SchemeKind::Sp)?.with_window_audit().with_fault_plan(plan);
    for name in ["alpha", "beta", "gamma"] {
        sim.spawn(name, async move |ctx| {
            for _ in 0..4 {
                burn(ctx, 10).await?;
            }
            Ok(())
        });
    }
    sim.run()
}

async fn burn(ctx: &mut Ctx, depth: usize) -> Result<(), RtError> {
    if depth == 0 {
        ctx.compute(3);
        return Ok(());
    }
    ctx.call(async |ctx| Box::pin(burn(ctx, depth - 1)).await).await
}

#[test]
fn unrecoverable_corruption_quarantines_only_the_owning_thread() {
    // Save #6 is deep in the first thread's first call chain, past the
    // 4-window capacity, so the corrupting save traps — and the audit at
    // the trap boundary catches the dirty-frame mismatch immediately.
    let plan = FaultPlan::new().with_event(FaultKind::ResidentCorrupt, 6).with_seed(7);
    let report = run_independent(&plan)
        .unwrap_or_else(|e| panic!("quarantine must contain the fault, not fail the run: {e}"));
    let quarantined: Vec<&str> =
        report.threads.iter().filter(|t| t.quarantined).map(|t| t.name.as_str()).collect();
    assert_eq!(quarantined, ["alpha"], "exactly the corrupted thread is quarantined");
    assert_eq!(report.as_metrics().get(Metric::ThreadsQuarantined), 1);
    for t in &report.threads {
        if !t.quarantined {
            assert!(t.saves > 0 && t.saves == t.restores, "{}: must run to completion", t.name);
        }
    }
}

#[test]
fn out_of_reach_resident_corruption_changes_nothing() {
    let baseline = run_independent(&FaultPlan::new()).unwrap();
    assert!(baseline.threads.iter().all(|t| !t.quarantined));
    let plan = FaultPlan::new().with_event(FaultKind::ResidentCorrupt, 1 << 40);
    assert_eq!(run_independent(&plan).unwrap(), baseline);
}
