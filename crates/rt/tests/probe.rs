//! Probe integration: the runtime's instrumentation must agree with the
//! numbers the run report itself carries.

use regwin_obs::{Metric, MetricProbe, Probe, RecordingProbe, SpanKind};
use regwin_rt::{RtError, Simulation};
use regwin_traps::SchemeKind;
use std::sync::Arc;

/// A two-thread producer/consumer workload with enough call depth to
/// exercise traps and enough stream pressure to exercise blocking.
fn run_with_probe(
    scheme: SchemeKind,
    probe: Arc<dyn Probe>,
) -> Result<regwin_rt::RunReport, RtError> {
    let mut sim = Simulation::new(6, scheme)?.with_probe(probe);
    let pipe = sim.add_stream("pipe", 2, 1);
    sim.spawn("producer", async move |ctx| {
        for i in 0u8..48 {
            let byte = ctx
                .call(async |ctx| {
                    ctx.call(async |ctx| {
                        ctx.compute(4);
                        Ok(())
                    })
                    .await?;
                    Ok(i)
                })
                .await?;
            ctx.write_byte(pipe, byte).await?;
        }
        ctx.close_writer(pipe).await
    });
    sim.spawn("consumer", async move |ctx| {
        while let Some(b) = ctx.read_byte(pipe).await? {
            ctx.call(async |ctx| {
                ctx.compute(u64::from(b) % 7);
                Ok(())
            })
            .await?;
        }
        Ok(())
    });
    sim.run()
}

#[test]
fn metric_probe_agrees_with_run_report() {
    for scheme in SchemeKind::ALL {
        let probe = Arc::new(MetricProbe::new());
        let report = run_with_probe(scheme, probe.clone()).unwrap();
        let live = probe.snapshot();
        let derived = report.as_metrics();

        // Every metric derivable from the report must match the live
        // probe counts exactly.
        for m in [
            Metric::SavesExecuted,
            Metric::RestoresExecuted,
            Metric::OverflowTraps,
            Metric::UnderflowTraps,
            Metric::OverflowSpills,
            Metric::UnderflowRestores,
            Metric::ContextSwitches,
            Metric::SwitchSaves,
            Metric::SwitchRestores,
            Metric::CyclesApp,
            Metric::CyclesWindowInstr,
            Metric::CyclesOverflowTrap,
            Metric::CyclesUnderflowTrap,
            Metric::CyclesContextSwitch,
            Metric::StreamWaitsRead,
            Metric::StreamWaitsWrite,
        ] {
            assert_eq!(live.get(m), derived.get(m), "{scheme}: {m}");
        }

        // Probe-only enrichments the report does not carry.
        assert_eq!(live.get(Metric::StreamBytesRead), 48, "{scheme}");
        assert_eq!(live.get(Metric::StreamBytesWritten), 48, "{scheme}");
        assert!(
            live.get(Metric::Dispatches) >= live.get(Metric::ContextSwitches),
            "{scheme}: a context switch only happens at a dispatch"
        );
    }
}

#[test]
fn simulation_span_wraps_the_run_and_carries_total_cycles() {
    let probe = Arc::new(RecordingProbe::new());
    let report = run_with_probe(SchemeKind::Sp, probe.clone()).unwrap();
    assert_eq!(probe.span_count(SpanKind::Simulation), 1);
    let events = probe.events();
    let first = events.first().unwrap();
    assert!(
        matches!(first, regwin_obs::OwnedProbeEvent::SpanStart { kind: SpanKind::Simulation, name } if name == "SP"),
        "run must open with the simulation span, got {first:?}"
    );
    let end_cycles = events
        .iter()
        .find_map(|e| match e {
            regwin_obs::OwnedProbeEvent::SpanEnd { kind: SpanKind::Simulation, cycles, .. } => {
                Some(*cycles)
            }
            _ => None,
        })
        .expect("simulation span must close");
    assert_eq!(end_cycles, report.total_cycles());

    // Trap and switch spans nest inside the simulation span and agree
    // with the report's event counts.
    let traps = report.stats.overflow_traps + report.stats.underflow_traps;
    assert_eq!(probe.span_count(SpanKind::Trap), traps as usize);
    assert_eq!(probe.span_count(SpanKind::Switch), report.stats.context_switches as usize);
}
