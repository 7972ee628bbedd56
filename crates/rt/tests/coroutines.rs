//! Edge paths of the coroutine executor: panics, deadlocks and teardown
//! while threads are suspended inside nested calls, and bodies that are
//! not `Send`.

use regwin_rt::{Ctx, RtError, RunReport, Simulation, StepOutcome, StreamId};
use regwin_traps::{Operand, Reg, RestoreInstr, SchemeKind};
use std::cell::{Cell, RefCell};
use std::rc::Rc;

/// Producer → consumer over a 2-byte stream; the consumer logs what it
/// reads. With `panicker`, a third thread blocks inside a call on a
/// trigger byte the producer sends last, then panics mid-call.
fn run(panicker: bool, log: Rc<RefCell<Vec<u8>>>) -> Result<RunReport, RtError> {
    let mut sim = Simulation::new(6, SchemeKind::Sp)?;
    let pipe = sim.add_stream("pipe", 2, 1);
    let trigger = sim.add_stream("trigger", 1, 1);
    sim.spawn("producer", async move |ctx| {
        for b in 0u8..12 {
            ctx.call(async |ctx| ctx.write_byte(pipe, b).await).await?;
        }
        ctx.close_writer(pipe).await?;
        ctx.write_byte(trigger, 1).await?;
        ctx.close_writer(trigger).await
    });
    sim.spawn("consumer", async move |ctx| {
        while let Some(b) = ctx.call(async |ctx| ctx.read_byte(pipe).await).await? {
            log.borrow_mut().push(b);
        }
        Ok(())
    });
    sim.spawn("kaboom", async move |ctx| {
        ctx.call(async |ctx| {
            ctx.read_byte(trigger).await?;
            if panicker {
                panic!("intentional test panic");
            }
            Ok(())
        })
        .await
    });
    sim.run()
}

#[test]
fn panic_mid_call_is_typed_and_leaves_other_runs_untouched() {
    let before = run(false, Rc::default()).unwrap();
    let log = Rc::new(RefCell::new(Vec::new()));
    match run(true, Rc::clone(&log)) {
        Err(RtError::ThreadPanicked { name }) => assert_eq!(name, "kaboom"),
        other => panic!("expected a panic report, got {other:?}"),
    }
    // What the consumer saw before the panic is an in-order prefix of
    // the producer's bytes.
    let seen = log.borrow().clone();
    assert!(seen.iter().copied().eq(0..seen.len() as u8), "consumer saw {seen:?}");
    // The unwind left nothing behind on this OS thread: a clean run
    // afterwards reports exactly what it reported before.
    let after = run(false, Rc::default()).unwrap();
    assert_eq!(after, before);
}

async fn nested_read(ctx: &mut Ctx, depth: usize, s: StreamId) -> Result<(), RtError> {
    if depth == 0 {
        ctx.read_byte(s).await?;
        return Ok(());
    }
    ctx.call(async |ctx| Box::pin(nested_read(ctx, depth - 1, s)).await).await
}

#[test]
fn deadlock_inside_nested_calls_is_reported() {
    let mut sim = Simulation::new(4, SchemeKind::Snp).unwrap();
    let a = sim.add_stream("never-a", 1, 1);
    let b = sim.add_stream("never-b", 1, 1);
    // Both threads suspend eight frames deep, deeper than the window
    // file, on streams nobody writes.
    sim.spawn("left", async move |ctx| nested_read(ctx, 8, a).await);
    sim.spawn("right", async move |ctx| nested_read(ctx, 8, b).await);
    match sim.run() {
        Err(RtError::Deadlock { detail }) => {
            assert!(detail.contains("left reading empty never-a"), "detail: {detail}");
            assert!(detail.contains("right reading empty never-b"), "detail: {detail}");
        }
        other => panic!("expected a deadlock, got {other:?}"),
    }
}

#[test]
fn suspending_outside_a_ctx_operation_is_a_typed_error() {
    let mut sim = Simulation::new(8, SchemeKind::Sp).unwrap();
    sim.spawn("stray", async |_ctx| {
        // Nothing will ever poll this thread again: it registered no
        // wait with the runtime.
        std::future::pending::<()>().await;
        Ok(())
    });
    match sim.run() {
        Err(RtError::Internal { detail }) => assert!(detail.contains("stray"), "detail: {detail}"),
        other => panic!("expected an internal error, got {other:?}"),
    }
}

/// Counts how many times it is dropped.
struct DropCounter(Rc<Cell<u32>>);

impl Drop for DropCounter {
    fn drop(&mut self) {
        self.0.set(self.0.get() + 1);
    }
}

#[test]
fn dropping_a_started_sim_mid_run_drops_suspended_threads() {
    let drops = Rc::new(Cell::new(0));
    let mut sim = Simulation::new(8, SchemeKind::Sp).unwrap();
    let inbound = sim.add_stream("inbound", 4, 1);
    sim.mark_stream_inbound(inbound);
    let guard = DropCounter(Rc::clone(&drops));
    sim.spawn("waiter", async move |ctx| {
        let _guard = guard;
        nested_read(ctx, 3, inbound).await
    });
    let mut started = sim.start();
    // The only thread waits on the bus inside three nested calls.
    assert_eq!(started.step().unwrap(), StepOutcome::Blocked);
    assert_eq!(drops.get(), 0);
    drop(started);
    assert_eq!(drops.get(), 1, "the suspended body was dropped exactly once");
}

#[test]
fn bodies_may_capture_non_send_state() {
    // `Rc` is not `Send`: this compiles only because every thread runs
    // on the OS thread that drives the simulation.
    let log = Rc::new(RefCell::new(Vec::new()));
    run(false, Rc::clone(&log)).unwrap();
    assert_eq!(*log.borrow(), (0u8..12).collect::<Vec<_>>());
}

#[test]
fn restore_add_calls_nest_and_balance_like_plain_calls() {
    fn run(with_add: bool) -> RunReport {
        let mut sim = Simulation::new(4, SchemeKind::Sp).unwrap();
        let pipe = sim.add_stream("pipe", 1, 1);
        sim.spawn("writer", async move |ctx| {
            for b in 0u8..6 {
                if with_add {
                    ctx.call_with_restore_add(RestoreInstr::trivial(), async |ctx| {
                        Box::pin(nested_write(ctx, 5, pipe, b)).await
                    })
                    .await?;
                } else {
                    ctx.call(async |ctx| Box::pin(nested_write(ctx, 5, pipe, b)).await).await?;
                }
            }
            ctx.close_writer(pipe).await
        });
        sim.spawn("reader", async move |ctx| nested_read_all(ctx, pipe).await);
        sim.run().unwrap()
    }
    let plain = run(false);
    let with_add = run(true);
    assert_eq!(with_add.stats.saves_executed, with_add.stats.restores_executed);
    assert_eq!(with_add, plain, "the trivial restore-with-add is a plain restore");
}

#[test]
fn restore_add_writes_the_sum_into_the_callers_window() {
    let mut sim = Simulation::new(8, SchemeKind::Sp).unwrap();
    let seen = Rc::new(Cell::new(0));
    let out = Rc::clone(&seen);
    sim.spawn("adder", async move |ctx| {
        // restore %l2, 2, %l3: the callee's %l2 plus 2 lands in the
        // caller's %l3.
        let add = RestoreInstr::new(Reg::L(2), Operand::Imm(2), Reg::L(3));
        ctx.call_with_restore_add(add, async |ctx| ctx.write_local(2, 40)).await?;
        out.set(ctx.read_local(3)?);
        Ok(())
    });
    sim.run().unwrap();
    assert_eq!(seen.get(), 42);
}

async fn nested_write(ctx: &mut Ctx, depth: usize, s: StreamId, b: u8) -> Result<(), RtError> {
    if depth == 0 {
        return ctx.write_byte(s, b).await;
    }
    ctx.call(async |ctx| Box::pin(nested_write(ctx, depth - 1, s, b)).await).await
}

async fn nested_read_all(ctx: &mut Ctx, s: StreamId) -> Result<(), RtError> {
    while ctx.call(async |ctx| ctx.read_byte(s).await).await?.is_some() {}
    Ok(())
}
