//! Integration tests for the runtime: pipelines over simulated windows.

use regwin_rt::{RtError, RunReport, SchedulingPolicy, Simulation};
use regwin_traps::SchemeKind;

/// Builds a three-stage pipeline (producer → doubler → consumer) with the
/// given buffer capacity, returning the run report and the consumer sum.
fn pipeline(
    scheme: SchemeKind,
    nwindows: usize,
    capacity: usize,
    policy: SchedulingPolicy,
    items: u32,
) -> (RunReport, u64) {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    let sum = Arc::new(AtomicU64::new(0));
    let mut sim = Simulation::new(nwindows, scheme).unwrap().with_policy(policy);
    let s1 = sim.add_stream("s1", capacity, 1);
    let s2 = sim.add_stream("s2", capacity, 1);

    sim.spawn("producer", async move |ctx| {
        for i in 0..items {
            // A small helper-call tree per item, to generate window
            // activity the way real code does.
            let byte = ctx
                .call(async |ctx| {
                    ctx.compute(5);
                    Ok((i % 251) as u8)
                })
                .await?;
            ctx.write_byte(s1, byte).await?;
        }
        ctx.close_writer(s1).await
    });
    sim.spawn("doubler", async move |ctx| {
        while let Some(b) = ctx.read_byte(s1).await? {
            let doubled = ctx
                .call(async |ctx| {
                    ctx.compute(3);
                    Ok(b.wrapping_mul(2))
                })
                .await?;
            ctx.write_byte(s2, doubled).await?;
        }
        ctx.close_writer(s2).await
    });
    let sum2 = Arc::clone(&sum);
    sim.spawn("consumer", async move |ctx| {
        while let Some(b) = ctx.read_byte(s2).await? {
            ctx.compute(2);
            sum2.fetch_add(u64::from(b), Ordering::Relaxed);
        }
        Ok(())
    });
    let report = sim.run().unwrap();
    let total = sum.load(Ordering::Relaxed);
    (report, total)
}

fn expected_sum(items: u32) -> u64 {
    (0..items).map(|i| u64::from((i % 251) as u8).wrapping_mul(2) & 0xff).sum()
}

#[test]
fn pipeline_computes_correctly_under_all_schemes() {
    for scheme in SchemeKind::ALL {
        let (report, sum) = pipeline(scheme, 8, 4, SchedulingPolicy::Fifo, 100);
        assert_eq!(sum, expected_sum(100), "{scheme}");
        assert!(report.stats.context_switches > 0, "{scheme}");
        assert!(report.total_cycles() > 0, "{scheme}");
    }
}

#[test]
fn results_identical_across_schemes_and_policies() {
    // The scheme affects cycles, never results.
    let mut sums = Vec::new();
    for scheme in SchemeKind::ALL {
        for policy in SchedulingPolicy::ALL {
            let (_, sum) = pipeline(scheme, 6, 2, policy, 64);
            sums.push(sum);
        }
    }
    assert!(sums.windows(2).all(|w| w[0] == w[1]));
}

#[test]
fn runs_are_deterministic() {
    let (a, _) = pipeline(SchemeKind::Sp, 8, 3, SchedulingPolicy::Fifo, 200);
    let (b, _) = pipeline(SchemeKind::Sp, 8, 3, SchedulingPolicy::Fifo, 200);
    assert_eq!(a.total_cycles(), b.total_cycles());
    assert_eq!(a.stats.context_switches, b.stats.context_switches);
    assert_eq!(a.stats.saves_executed, b.stats.saves_executed);
    assert_eq!(a.stats.switch_shapes, b.stats.switch_shapes);
}

#[test]
fn smaller_buffers_mean_finer_granularity() {
    // The paper's granularity knob: halving the buffer size must increase
    // the number of context switches.
    let (coarse, _) = pipeline(SchemeKind::Sp, 8, 16, SchedulingPolicy::Fifo, 256);
    let (fine, _) = pipeline(SchemeKind::Sp, 8, 1, SchedulingPolicy::Fifo, 256);
    assert!(
        fine.stats.context_switches > 2 * coarse.stats.context_switches,
        "fine {} vs coarse {}",
        fine.stats.context_switches,
        coarse.stats.context_switches
    );
}

#[test]
fn one_byte_buffers_switch_on_every_byte() {
    let items = 64;
    let (report, _) = pipeline(SchemeKind::Sp, 8, 1, SchedulingPolicy::Fifo, items);
    // The producer must block on (almost) every byte it writes.
    let producer = &report.threads[0];
    assert!(
        producer.blocked_on_write >= u64::from(items) - 1,
        "producer blocked {} times for {} items",
        producer.blocked_on_write,
        items
    );
}

#[test]
fn per_thread_reports_cover_all_threads() {
    let (report, _) = pipeline(SchemeKind::Snp, 8, 2, SchedulingPolicy::Fifo, 50);
    assert_eq!(report.threads.len(), 3);
    assert_eq!(report.threads[0].name, "producer");
    assert_eq!(report.threads[2].name, "consumer");
    // Producer and doubler perform one call per item.
    assert!(report.threads[0].saves >= 50);
    assert!(report.threads[1].saves >= 50);
    // Context switches per thread must sum to the machine's total.
    let per_thread: u64 = report.threads.iter().map(|t| t.context_switches).sum();
    assert_eq!(per_thread, report.stats.context_switches - countable_first_dispatches(&report));
}

/// Switches recorded with `from == None` (first dispatches after spawn or
/// termination) are not attributed to any thread.
fn countable_first_dispatches(report: &RunReport) -> u64 {
    report.stats.context_switches - report.threads.iter().map(|t| t.context_switches).sum::<u64>()
}

#[test]
fn deadlock_is_detected_and_described() {
    let mut sim = Simulation::new(8, SchemeKind::Sp).unwrap();
    let s = sim.add_stream("starved", 4, 1);
    sim.spawn("reader", async move |ctx| {
        // The writer never writes: this blocks forever.
        let _ = ctx.read_byte(s).await?;
        Ok(())
    });
    sim.spawn("idler", async move |ctx| {
        // Blocks on its own read of the same stream.
        let _ = ctx.read_byte(s).await?;
        Ok(())
    });
    match sim.run() {
        Err(RtError::Deadlock { detail }) => {
            assert!(detail.contains("starved"), "detail: {detail}");
        }
        other => panic!("expected deadlock, got {other:?}"),
    }
}

#[test]
fn thread_panic_is_reported_with_name() {
    let mut sim = Simulation::new(8, SchemeKind::Ns).unwrap();
    sim.spawn("kaboom", async |_ctx| panic!("intentional test panic"));
    match sim.run() {
        Err(RtError::ThreadPanicked { name }) => assert_eq!(name, "kaboom"),
        other => panic!("expected panic report, got {other:?}"),
    }
}

#[test]
fn write_after_close_is_an_error() {
    let mut sim = Simulation::new(8, SchemeKind::Sp).unwrap();
    let s = sim.add_stream("s", 4, 1);
    sim.spawn("bad-writer", async move |ctx| {
        ctx.close_writer(s).await?;
        ctx.write_byte(s, 1).await
    });
    sim.spawn("reader", async move |ctx| {
        while ctx.read_byte(s).await?.is_some() {}
        Ok(())
    });
    assert!(matches!(sim.run(), Err(RtError::WriteAfterClose(_))));
}

#[test]
fn two_writers_one_stream() {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    let got = Arc::new(AtomicU64::new(0));
    let mut sim = Simulation::new(8, SchemeKind::Sp).unwrap();
    let s = sim.add_stream("merged", 2, 2);
    for w in 0..2 {
        sim.spawn(format!("writer{w}"), async move |ctx| {
            for _ in 0..30 {
                ctx.write_byte(s, 1).await?;
            }
            ctx.close_writer(s).await
        });
    }
    let got2 = Arc::clone(&got);
    sim.spawn("reader", async move |ctx| {
        while let Some(b) = ctx.read_byte(s).await? {
            got2.fetch_add(u64::from(b), Ordering::Relaxed);
        }
        Ok(())
    });
    sim.run().unwrap();
    assert_eq!(got.load(Ordering::Relaxed), 60);
}

#[test]
fn deep_recursion_inside_a_thread() {
    // Recursion deeper than the window file, interleaved with another
    // thread, exercising trap handling under runtime control.
    async fn recurse(ctx: &mut regwin_rt::Ctx, depth: u32) -> Result<u64, RtError> {
        if depth == 0 {
            return Ok(0);
        }
        ctx.call(async |ctx| {
            ctx.compute(1);
            let below = Box::pin(recurse(ctx, depth - 1)).await?;
            Ok(below + 1)
        })
        .await
    }
    for scheme in SchemeKind::ALL {
        let mut sim = Simulation::new(5, scheme).unwrap();
        let s = sim.add_stream("tick", 1, 1);
        sim.spawn("recurser", async move |ctx| {
            for _ in 0..4 {
                let depth = recurse(ctx, 12).await?;
                assert_eq!(depth, 12);
                ctx.write_byte(s, 1).await?;
            }
            ctx.close_writer(s).await
        });
        sim.spawn("ticker", async move |ctx| {
            while ctx.read_byte(s).await?.is_some() {}
            Ok(())
        });
        let report = sim.run().unwrap();
        assert!(report.stats.overflow_traps > 0, "{scheme} must overflow at depth 12 on 5 windows");
    }
}

#[test]
fn working_set_policy_reduces_switch_cost_under_pressure() {
    // Many threads on few windows: the working-set policy should produce
    // no *more* window traffic than FIFO (usually strictly less).
    fn run(policy: SchedulingPolicy) -> RunReport {
        let mut sim = Simulation::new(6, SchemeKind::Sp).unwrap().with_policy(policy);
        let mut prev = None;
        let n = 5;
        let mut streams = Vec::new();
        for i in 0..n {
            streams.push(sim.add_stream(format!("s{i}"), 1, 1));
        }
        for (i, &out) in streams.iter().enumerate() {
            let inp = prev;
            sim.spawn(format!("stage{i}"), async move |ctx| match inp {
                None => {
                    for b in 0..120u32 {
                        ctx.call(async |ctx| {
                            ctx.compute(2);
                            Ok(())
                        })
                        .await?;
                        ctx.write_byte(out, (b % 256) as u8).await?;
                    }
                    ctx.close_writer(out).await
                }
                Some(inp) => {
                    while let Some(b) = ctx.read_byte(inp).await? {
                        ctx.call(async |ctx| {
                            ctx.compute(2);
                            Ok(())
                        })
                        .await?;
                        ctx.write_byte(out, b).await?;
                    }
                    ctx.close_writer(out).await
                }
            });
            prev = Some(out);
        }
        let last = prev.unwrap();
        sim.spawn("sink", async move |ctx| {
            while ctx.read_byte(last).await?.is_some() {}
            Ok(())
        });
        sim.run().unwrap()
    }
    let fifo = run(SchedulingPolicy::Fifo);
    let ws = run(SchedulingPolicy::WorkingSet);
    let fifo_traffic = fifo.stats.switch_saves + fifo.stats.overflow_spills;
    let ws_traffic = ws.stats.switch_saves + ws.stats.overflow_spills;
    assert!(
        ws_traffic <= fifo_traffic,
        "working set {ws_traffic} must not exceed FIFO {fifo_traffic}"
    );
}
