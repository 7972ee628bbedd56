//! The simulation driver: deterministic non-preemptive execution of
//! thread bodies over the simulated CPU.
//!
//! Every simulated thread is a coroutine — the future of its async body
//! — and all of them run on the calling OS thread. The scheduler loop in
//! [`StartedSim::step`] picks the next thread with the run's
//! [`SchedPolicy`] and polls that thread's future once; the body runs
//! until it finishes or a blocking [`Ctx`] operation registers what it
//! waits for and yields. Nothing else ever polls a body, so no wakers,
//! locks or OS handoffs exist, and execution order depends only on the
//! workload and the scheduling policy.

use crate::ctx::Ctx;
use crate::error::RtError;
use crate::fault::FaultPlan;
use crate::report::{RunReport, ThreadReport};
use crate::sched::{ReadyQueue, SchedPolicy, SchedulingPolicy, WakeInfo};
use crate::stream::{RemoteEnd, Stream, StreamId};
use crate::trace::{Trace, TraceEvent};
use regwin_machine::{MachineConfig, ThreadId, WindowIndex};
use regwin_obs::{Metric, Probe, ProbeEvent, SpanKind};
use regwin_traps::{build_scheme, Cpu, Scheme, SchemeKind};
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::future::Future;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::pin::Pin;
use std::rc::Rc;
use std::sync::Arc;
use std::task::{Context, Poll, Waker};

/// A spawned thread as the scheduler holds it: the future of the async
/// body passed to [`Simulation::spawn`], owning the [`Ctx`] the body
/// computes and communicates through. The scheduler polls it once per
/// dispatch; it completes when the body returns.
pub type ThreadBody = Pin<Box<dyn Future<Output = Result<(), RtError>>>>;

/// The simulation state, shared by the scheduler and every thread's
/// [`Ctx`] on the one OS thread that runs them. Borrows are never held
/// across an `.await`, so the scheduler and a running body never
/// overlap.
pub(crate) type SharedState = Rc<RefCell<SimState>>;

/// What a blocked thread is waiting for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Wait {
    ReadEmpty(StreamId),
    WriteFull(StreamId),
    /// Another writer holds the stream's record lock (see
    /// [`Ctx::write_record`](crate::Ctx::write_record)).
    WriteLocked(StreamId),
}

pub(crate) struct SimState {
    pub(crate) cpu: Cpu,
    pub(crate) streams: Vec<Stream>,
    pub(crate) ready: ReadyQueue,
    pub(crate) waiting: BTreeMap<ThreadId, Wait>,
    pub(crate) finished: Vec<bool>,
    /// Threads abandoned after unrecoverable window corruption (their
    /// machine state was evicted; the rest of the run continues).
    pub(crate) quarantined: Vec<bool>,
    pub(crate) error: Option<RtError>,
    /// Raised when the scheduler loop ends the run on an error; a later
    /// [`StartedSim::step`] returns the recorded error (or a typed
    /// internal one) instead of running.
    pub(crate) stop: bool,
    pub(crate) names: Vec<String>,
    pub(crate) blocked_on_read: Vec<u64>,
    pub(crate) blocked_on_write: Vec<u64>,
    pub(crate) stream_byte_cycles: u64,
    /// Per-stream record locks: while a writer holds one, other writers
    /// of the same stream block instead of interleaving bytes into its
    /// record (the rt analogue of POSIX `PIPE_BUF` atomicity).
    pub(crate) record_locks: BTreeMap<StreamId, ThreadId>,
    pub(crate) trace: Option<Trace>,
    /// Sum of ready-queue lengths observed at each dispatch, and the
    /// number of dispatches — the paper's *parallel slackness* (§5).
    pub(crate) slack_sum: u64,
    pub(crate) dispatches: u64,
    /// Event indices at which the N-th successful stream byte read /
    /// write fails with a typed error (installed by
    /// [`Simulation::with_fault_plan`]).
    pub(crate) stream_read_fails: BTreeSet<u64>,
    pub(crate) stream_write_fails: BTreeSet<u64>,
    /// Successful stream byte reads / writes seen so far.
    pub(crate) stream_reads_seen: u64,
    pub(crate) stream_writes_seen: u64,
}

impl SimState {
    pub(crate) fn record(&mut self, event: TraceEvent) {
        if let Some(trace) = &mut self.trace {
            trace.push(event);
        }
    }

    /// Reports a counter increment to the probe installed on the CPU, if
    /// any (runtime-level events ride the same probe as machine events).
    pub(crate) fn bump(&self, metric: Metric, delta: u64) {
        if let Some(p) = self.cpu.machine().probe() {
            p.record(&ProbeEvent::Counter { metric, delta });
        }
    }
}

impl SimState {
    /// The window-residency snapshot the scheduling policy sees when
    /// `t` wakes. Policies that ignore residency (per
    /// [`ReadyQueue::uses_residency`]) get a default snapshot so the
    /// FIFO hot path never scans the register file.
    pub(crate) fn wake_snapshot(&self, t: ThreadId) -> WakeInfo {
        if !self.ready.uses_residency() {
            return WakeInfo::default();
        }
        let machine = self.cpu.machine();
        let nwindows = machine.nwindows();
        let free_windows = (0..nwindows)
            .filter(|&w| machine.slot_use(WindowIndex::new(w)).is_discardable())
            .count();
        WakeInfo {
            resident: machine.thread(t).map(|ts| ts.resident()).unwrap_or(0),
            free_windows,
            nwindows,
        }
    }

    /// Wakes the lowest-id thread blocked reading `s` (one byte arrived).
    pub(crate) fn wake_one_reader(&mut self, s: StreamId) {
        let woken = self.waiting.iter().find(|(_, w)| **w == Wait::ReadEmpty(s)).map(|(t, _)| *t);
        if let Some(t) = woken {
            self.waiting.remove(&t);
            let wake = self.wake_snapshot(t);
            self.ready.enqueue_woken(t, wake);
        }
    }

    /// Wakes every thread blocked reading `s` (the stream closed; they
    /// must observe EOF).
    pub(crate) fn wake_all_readers(&mut self, s: StreamId) {
        let woken: Vec<ThreadId> = self
            .waiting
            .iter()
            .filter(|(_, w)| **w == Wait::ReadEmpty(s))
            .map(|(t, _)| *t)
            .collect();
        for t in woken {
            self.waiting.remove(&t);
            let wake = self.wake_snapshot(t);
            self.ready.enqueue_woken(t, wake);
        }
    }

    /// Wakes the lowest-id thread blocked writing `s` (one byte of space
    /// appeared).
    pub(crate) fn wake_one_writer(&mut self, s: StreamId) {
        let woken = self.waiting.iter().find(|(_, w)| **w == Wait::WriteFull(s)).map(|(t, _)| *t);
        if let Some(t) = woken {
            self.waiting.remove(&t);
            let wake = self.wake_snapshot(t);
            self.ready.enqueue_woken(t, wake);
        }
    }

    /// Wakes the lowest-id thread waiting for the record lock on `s`
    /// (the previous holder released it).
    pub(crate) fn wake_one_lock_waiter(&mut self, s: StreamId) {
        let woken = self.waiting.iter().find(|(_, w)| **w == Wait::WriteLocked(s)).map(|(t, _)| *t);
        if let Some(t) = woken {
            self.waiting.remove(&t);
            let wake = self.wake_snapshot(t);
            self.ready.enqueue_woken(t, wake);
        }
    }

    /// Abandons `t` after unrecoverable window corruption: evicts its
    /// windows from the machine wholesale (nothing is flushed — the data
    /// is untrustworthy), releases any stream record lock it holds, and
    /// marks it finished so the rest of the run can complete without it.
    /// Idempotent. Threads blocked on a stream only `t` feeds will
    /// surface as an ordinary typed [`RtError::Deadlock`].
    pub(crate) fn quarantine_thread(&mut self, t: ThreadId) {
        if self.quarantined.get(t.index()).copied().unwrap_or(true) {
            return;
        }
        self.quarantined[t.index()] = true;
        self.finished[t.index()] = true;
        self.waiting.remove(&t);
        let held: Vec<StreamId> =
            self.record_locks.iter().filter(|(_, h)| **h == t).map(|(s, _)| *s).collect();
        for s in held {
            self.record_locks.remove(&s);
            self.wake_one_lock_waiter(s);
        }
        let _ = self.cpu.release_thread(t);
        self.bump(Metric::ThreadsQuarantined, 1);
    }
}

/// The run options every harness threads through [`Simulation`]
/// construction: scheduling, auditing, tracing, fault injection. One
/// [`Simulation::assemble`] call applies them all, so the spell
/// pipeline, the workload generator and the cluster PEs build their
/// simulations through a single shared path instead of each repeating
/// the same builder chain.
#[derive(Debug, Default)]
pub struct SimOptions {
    /// Shipped scheduling policy id (ignored when `sched` is set).
    pub policy: SchedulingPolicy,
    /// A caller-supplied ready-queue implementation — the plug-in point
    /// custom and [fuzzed](crate::Fuzzed) policies use.
    pub sched: Option<Box<dyn SchedPolicy>>,
    /// Enable checksummed window auditing (detect–repair–quarantine).
    pub audit: bool,
    /// Record an event trace for later replay.
    pub traced: bool,
    /// Machine/stream fault plan to install (PE-0 events).
    pub fault: Option<FaultPlan>,
}

/// A configured simulation: a CPU (windows + scheme), a set of streams,
/// and a set of threads to run to completion. See the crate docs for an
/// example.
pub struct Simulation {
    state: SharedState,
    bodies: Vec<ThreadBody>,
    scheme: SchemeKind,
    nwindows: usize,
}

impl Simulation {
    /// Creates a simulation on `nwindows` windows managed by the given
    /// scheme (with its paper-default options), FIFO scheduling and the
    /// default machine configuration (S-20 cost model, `s20` timing).
    ///
    /// # Errors
    ///
    /// Fails if the window count is below the scheme's minimum.
    pub fn new(nwindows: usize, scheme: SchemeKind) -> Result<Self, RtError> {
        Self::with_config(MachineConfig::new(nwindows), build_scheme(scheme))
    }

    /// Creates a simulation from an explicit [`MachineConfig`] (cost
    /// model and timing backend) and scheme object (for non-default
    /// scheme options and ablations).
    ///
    /// # Errors
    ///
    /// Fails if the window count is below the scheme's minimum.
    pub fn with_config(config: MachineConfig, scheme: Box<dyn Scheme>) -> Result<Self, RtError> {
        let kind = scheme.kind();
        let nwindows = config.nwindows;
        let cpu = Cpu::with_config(config, scheme)?;
        let state = SimState {
            cpu,
            streams: Vec::new(),
            ready: ReadyQueue::new(SchedulingPolicy::Fifo),
            waiting: BTreeMap::new(),
            finished: Vec::new(),
            quarantined: Vec::new(),
            error: None,
            stop: false,
            names: Vec::new(),
            blocked_on_read: Vec::new(),
            blocked_on_write: Vec::new(),
            stream_byte_cycles: 4,
            record_locks: BTreeMap::new(),
            trace: None,
            slack_sum: 0,
            dispatches: 0,
            stream_read_fails: BTreeSet::new(),
            stream_write_fails: BTreeSet::new(),
            stream_reads_seen: 0,
            stream_writes_seen: 0,
        };
        Ok(Simulation {
            state: Rc::new(RefCell::new(state)),
            bodies: Vec::new(),
            scheme: kind,
            nwindows,
        })
    }

    /// Creates a simulation from a machine configuration, a scheme and
    /// a full [`SimOptions`] bundle — the one-call assembly path shared
    /// by the spell pipeline and the workload generator.
    ///
    /// # Errors
    ///
    /// Fails if the window count is below the scheme's minimum.
    pub fn assemble(
        config: MachineConfig,
        scheme: Box<dyn Scheme>,
        opts: SimOptions,
    ) -> Result<Self, RtError> {
        let mut sim = Simulation::with_config(config, scheme)?;
        sim = match opts.sched {
            Some(imp) => sim.with_sched_policy(imp),
            None => sim.with_policy(opts.policy),
        };
        if opts.audit {
            sim = sim.with_window_audit();
        }
        if opts.traced {
            sim = sim.with_trace_recording();
        }
        if let Some(plan) = &opts.fault {
            sim = sim.with_fault_plan(plan);
        }
        Ok(sim)
    }

    /// Sets the scheduling policy (default: FIFO).
    #[must_use]
    pub fn with_policy(self, policy: SchedulingPolicy) -> Self {
        self.state.borrow_mut().ready = ReadyQueue::new(policy);
        self
    }

    /// Installs a caller-supplied [`SchedPolicy`] object — the plug-in
    /// point for scheduling experiments not shipped in this crate. Must
    /// be called before any [`Simulation::spawn`] (spawned threads are
    /// already queued and would be lost with the old queue).
    #[must_use]
    pub fn with_sched_policy(self, imp: Box<dyn SchedPolicy>) -> Self {
        {
            let mut st = self.state.borrow_mut();
            debug_assert!(st.ready.is_empty(), "install the policy before spawning threads");
            st.ready = ReadyQueue::with_impl(imp);
        }
        self
    }

    /// Sets the cycles charged per stream byte transferred (default: 4).
    #[must_use]
    pub fn with_stream_byte_cycles(self, cycles: u64) -> Self {
        self.state.borrow_mut().stream_byte_cycles = cycles;
        self
    }

    /// Enables window-event trace recording (see [`crate::Trace`]). The
    /// recorded trace is returned by [`Simulation::run_with_trace`].
    #[must_use]
    pub fn with_trace_recording(self) -> Self {
        self.state.borrow_mut().trace = Some(Trace::new());
        self
    }

    /// Installs an instrumentation probe on the simulated CPU. The
    /// machine's counters, the CPU's trap and switch spans, the
    /// scheduler's dispatch events and ready-queue gauge, and the stream
    /// wait/byte counters are all reported through it, and the whole run
    /// is wrapped in a `Simulation` span named after the scheme.
    #[must_use]
    pub fn with_probe(self, probe: Arc<dyn Probe>) -> Self {
        self.state.borrow_mut().cpu.set_probe(Some(probe));
        self
    }

    /// Enables the window integrity auditor: per-frame checksums are
    /// verified at trap boundaries and context switches, *clean*
    /// (unmodified since fill) windows that fail the check are repaired
    /// transparently from the backing stack, and a thread whose *dirty*
    /// window fails is quarantined — abandoned with the `quarantined`
    /// mark in its [`ThreadReport`] — while the rest of the simulation
    /// keeps running.
    #[must_use]
    pub fn with_window_audit(self) -> Self {
        self.state.borrow_mut().cpu.enable_window_audit();
        self
    }

    /// Installs a deterministic [`FaultPlan`]: its machine-level faults
    /// become a fresh fault schedule on the CPU, and its stream faults
    /// fail the chosen byte transfers with typed errors. Worker faults
    /// in the plan are ignored here (they only apply to sweep jobs).
    #[must_use]
    pub fn with_fault_plan(self, plan: &FaultPlan) -> Self {
        {
            let mut st = self.state.borrow_mut();
            let schedule = plan.machine_schedule();
            st.cpu.set_fault_schedule(if schedule.is_empty() { None } else { Some(schedule) });
            st.stream_read_fails = plan.stream_read_fails();
            st.stream_write_fails = plan.stream_write_fails();
        }
        self
    }

    /// Adds a bounded FIFO stream with the given capacity in bytes and
    /// number of writer ends.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero; config-driven callers should use
    /// [`Simulation::try_add_stream`] instead.
    pub fn add_stream(
        &mut self,
        name: impl Into<String>,
        capacity: usize,
        writers: usize,
    ) -> StreamId {
        let mut st = self.state.borrow_mut();
        let id = StreamId(st.streams.len());
        st.streams.push(Stream::new(name, capacity, writers));
        id
    }

    /// Adds a bounded FIFO stream, validating the configuration instead
    /// of panicking — for streams whose parameters come from external
    /// configs.
    ///
    /// # Errors
    ///
    /// Returns [`RtError::BadConfig`] when `capacity` is zero.
    pub fn try_add_stream(
        &mut self,
        name: impl Into<String>,
        capacity: usize,
        writers: usize,
    ) -> Result<StreamId, RtError> {
        let name = name.into();
        if capacity == 0 {
            return Err(RtError::BadConfig {
                detail: format!("stream '{name}' has zero capacity"),
            });
        }
        Ok(self.add_stream(name, capacity, writers))
    }

    /// Marks `stream` as the *outbound* end of a cross-PE link: local
    /// threads write to it, the cluster bus drains it. Its capacity
    /// counts bytes still in flight on the bus, so writers see
    /// end-to-end backpressure. Only meaningful under an external
    /// driver ([`Simulation::start`]); the plain [`Simulation::run`]
    /// path never drains it.
    pub fn mark_stream_outbound(&mut self, stream: StreamId) {
        let mut st = self.state.borrow_mut();
        st.streams[stream.0].set_remote(RemoteEnd::Outbound);
    }

    /// Marks `stream` as the *inbound* end of a cross-PE link: the
    /// cluster bus delivers into it, local threads read from it. Create
    /// it with one writer (the bus); it closes when the sending PE's
    /// close message is delivered.
    pub fn mark_stream_inbound(&mut self, stream: StreamId) {
        let mut st = self.state.borrow_mut();
        st.streams[stream.0].set_remote(RemoteEnd::Inbound);
    }

    /// Spawns a simulated thread running the async `body`. Threads are
    /// dispatched in spawn order. The body runs on the OS thread that
    /// drives the simulation, so it need not be `Send`; it must suspend
    /// only inside the blocking [`Ctx`] operations.
    pub fn spawn(
        &mut self,
        name: impl Into<String>,
        body: impl AsyncFnOnce(&mut Ctx) -> Result<(), RtError> + 'static,
    ) -> ThreadId {
        let mut st = self.state.borrow_mut();
        let t = st.cpu.add_thread();
        st.names.push(name.into());
        st.finished.push(false);
        st.quarantined.push(false);
        st.blocked_on_read.push(0);
        st.blocked_on_write.push(0);
        st.ready.enqueue_new(t);
        drop(st);
        let mut ctx = Ctx::new(Rc::clone(&self.state), t);
        self.bodies.push(Box::pin(async move { body(&mut ctx).await }));
        t
    }

    /// Runs every thread to completion and returns the report.
    ///
    /// # Errors
    ///
    /// Returns the first thread error, a panic report, or a deadlock
    /// description if all unfinished threads end up blocked.
    pub fn run(self) -> Result<RunReport, RtError> {
        self.run_with_trace().map(|(report, _)| report)
    }

    /// Like [`Simulation::run`], but also returns the recorded event
    /// trace if [`Simulation::with_trace_recording`] was enabled.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Simulation::run`].
    pub fn run_with_trace(self) -> Result<(RunReport, Option<Trace>), RtError> {
        let mut started = self.start();
        // Without remote streams a step can only end at Done or an
        // error, so one step drives the whole run; the legacy path is
        // exactly start → step → finish.
        let stepped = started.step();
        debug_assert!(
            !matches!(stepped, Ok(StepOutcome::Blocked)),
            "a simulation without remote streams cannot block on the bus"
        );
        started.finish()
    }

    /// Opens the run and hands back a [`StartedSim`] that an external
    /// discrete-event driver (the `regwin-cluster` scheduler) clocks
    /// explicitly via [`StartedSim::step`]. The plain
    /// [`Simulation::run`] path is implemented on top of this and runs
    /// exactly one step.
    pub fn start(self) -> StartedSim {
        let nthreads = self.bodies.len();
        let probe = self.state.borrow().cpu.machine().probe().cloned();
        if let Some(p) = &probe {
            p.record(&ProbeEvent::SpanStart {
                kind: SpanKind::Simulation,
                name: self.scheme.name(),
            });
        }
        StartedSim {
            state: self.state,
            bodies: self.bodies.into_iter().map(Some).collect(),
            scheme: self.scheme,
            nwindows: self.nwindows,
            nthreads,
            probe,
            loop_result: Ok(()),
        }
    }
}

impl std::fmt::Debug for Simulation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("scheme", &self.scheme)
            .field("nwindows", &self.nwindows)
            .field("threads", &self.bodies.len())
            .finish()
    }
}

/// How a [`StartedSim::step`] ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// Every thread finished; call [`StartedSim::finish`].
    Done,
    /// No thread is runnable, but at least one is blocked on a cross-PE
    /// stream the bus can still make progress on — the PE is waiting
    /// for a bus grant or delivery.
    Blocked,
}

/// One byte (or close) drained from an outbound cross-PE stream: the
/// bus request the sending PE raises at local time `tick`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SendEvent {
    /// The outbound stream the event came from (sender-local id).
    pub stream: StreamId,
    /// The payload byte, or `None` for the writer-close message.
    pub payload: Option<u8>,
    /// The sender's local cycle count when the send completed.
    pub tick: u64,
}

/// A running simulation under external control: every thread is a
/// suspended coroutine, and the embedded scheduler only advances when
/// [`StartedSim::step`] is called. Between steps, an external driver
/// drains outbound bytes, grants bus requests and delivers inbound
/// bytes — the PE-side half of the cluster's discrete-event protocol.
///
/// Dropping a `StartedSim` without calling [`StartedSim::finish`] drops
/// the unfinished threads' futures, so an external driver that fails
/// mid-run leaks nothing.
pub struct StartedSim {
    state: SharedState,
    /// Each thread's future, `None` once it finished or was quarantined.
    bodies: Vec<Option<ThreadBody>>,
    scheme: SchemeKind,
    nwindows: usize,
    nthreads: usize,
    probe: Option<Arc<dyn Probe>>,
    /// The scheduler loop's terminal result, reproduced by
    /// [`StartedSim::finish`] in exactly the position the legacy
    /// single-call path reported it.
    loop_result: Result<(), RtError>,
}

impl StartedSim {
    /// Runs the embedded scheduler until every thread finished
    /// ([`StepOutcome::Done`]), no thread can run without bus progress
    /// ([`StepOutcome::Blocked`]), or the run fails. Deterministic: one
    /// thread runs at a time, on this OS thread, so the outcome depends
    /// only on workload state at entry.
    ///
    /// # Errors
    ///
    /// Returns the first thread error or a deadlock description exactly
    /// as [`Simulation::run`] would.
    pub fn step(&mut self) -> Result<StepOutcome, RtError> {
        loop {
            let mut st = self.state.borrow_mut();
            if st.error.is_some() || st.stop {
                st.stop = true;
                // The stop flag stays raised with no recorded error
                // after a deadlock; surface a later step as a typed
                // error rather than panicking on the empty slot.
                let e = st.error.clone().unwrap_or_else(|| RtError::Internal {
                    detail: "scheduler observed the stop flag with no recorded error".to_string(),
                });
                self.loop_result = Err(e.clone());
                return Err(e);
            }
            let finished_count = st.finished.iter().filter(|f| **f).count();
            if finished_count == self.nthreads {
                return Ok(StepOutcome::Done);
            }
            match st.ready.pop() {
                Some(next) => {
                    if st.quarantined[next.index()] {
                        continue;
                    }
                    // The switch-boundary audit may quarantine either
                    // side: the outgoing thread (retry the dispatch once
                    // without it) or `next` itself (skip it and pick
                    // another thread).
                    let mut dispatched = false;
                    for _ in 0..2 {
                        match st.cpu.switch_to(next) {
                            Ok(()) => {
                                dispatched = true;
                                break;
                            }
                            Err(e) => {
                                let e = RtError::from(e);
                                let Some(owner) = e.unrecoverable_owner() else {
                                    st.stop = true;
                                    self.loop_result = Err(e.clone());
                                    return Err(e);
                                };
                                st.quarantine_thread(owner);
                                self.bodies[owner.index()] = None;
                                if owner == next {
                                    break;
                                }
                            }
                        }
                    }
                    if !dispatched {
                        continue;
                    }
                    // The queue length *after* popping is the number of
                    // other runnable threads: the parallel slackness.
                    st.slack_sum += st.ready.len() as u64;
                    st.dispatches += 1;
                    st.bump(Metric::Dispatches, 1);
                    if let Some(p) = st.cpu.machine().probe() {
                        p.record(&ProbeEvent::Gauge {
                            name: "ready_queue_depth",
                            value: st.ready.len() as u64,
                        });
                    }
                    st.record(TraceEvent::SwitchTo(next));
                    drop(st);
                    self.run_turn(next);
                }
                None => {
                    // A thread blocked on a cross-PE stream is waiting
                    // on the bus, not on a local peer: an inbound read
                    // can be satisfied by a future delivery, and an
                    // outbound write frees up when a pending byte is
                    // granted. Only when no such external progress is
                    // possible is this a real deadlock.
                    let bus_can_progress = st.waiting.values().any(|w| match w {
                        Wait::ReadEmpty(s) => {
                            st.streams[s.0].remote() == Some(RemoteEnd::Inbound)
                                && !st.streams[s.0].is_closed()
                        }
                        Wait::WriteFull(s) => {
                            st.streams[s.0].remote() == Some(RemoteEnd::Outbound)
                                && st.streams[s.0].pending_send() > 0
                        }
                        Wait::WriteLocked(_) => false,
                    });
                    if bus_can_progress {
                        return Ok(StepOutcome::Blocked);
                    }
                    st.stop = true;
                    let e = RtError::Deadlock { detail: blocked_detail(&st) };
                    self.loop_result = Err(e.clone());
                    return Err(e);
                }
            }
        }
    }

    /// Gives `t` its turn: polls its future once, with no borrow of the
    /// state held, so the body runs until it finishes or a blocking
    /// [`Ctx`] operation yields. A finished (or panicked) body's future
    /// is dropped and its outcome recorded.
    fn run_turn(&mut self, t: ThreadId) {
        let body = self.bodies[t.index()].as_mut().expect("a dispatched thread has a live body");
        let polled = catch_unwind(AssertUnwindSafe(|| {
            body.as_mut().poll(&mut Context::from_waker(Waker::noop()))
        }));
        let outcome = match polled {
            Ok(Poll::Pending) => {
                let mut st = self.state.borrow_mut();
                if !st.waiting.contains_key(&t) && st.error.is_none() {
                    st.error = Some(RtError::Internal {
                        detail: format!(
                            "thread {} suspended outside a blocking Ctx operation",
                            st.names[t.index()]
                        ),
                    });
                }
                return;
            }
            Ok(Poll::Ready(result)) => Ok(result),
            Err(panic) => Err(panic),
        };
        self.bodies[t.index()] = None;
        let mut st = self.state.borrow_mut();
        st.finished[t.index()] = true;
        match outcome {
            Ok(Ok(())) => {
                // Release the thread's windows on the simulated CPU.
                if st.cpu.current_thread() == Some(t) {
                    st.record(TraceEvent::Terminate);
                    if let Err(e) = st.cpu.terminate_current() {
                        if st.error.is_none() {
                            st.error = Some(e.into());
                        }
                    }
                }
            }
            Ok(Err(e)) => {
                if e.unrecoverable_owner() == Some(t) {
                    st.quarantine_thread(t);
                } else if st.error.is_none() {
                    st.error = Some(e);
                }
            }
            Err(_) => {
                if st.error.is_none() {
                    st.error = Some(RtError::ThreadPanicked { name: st.names[t.index()].clone() });
                }
            }
        }
    }

    /// Drops any unfinished threads, closes the probe span and builds
    /// the report — byte-for-byte the tail of the legacy
    /// [`Simulation::run_with_trace`] path.
    ///
    /// # Errors
    ///
    /// Reports the first thread error, then any scheduler-loop error
    /// from a prior [`StartedSim::step`], in that precedence order.
    pub fn finish(mut self) -> Result<(RunReport, Option<Trace>), RtError> {
        self.bodies.clear();
        let mut st = self.state.borrow_mut();
        // Deliver whatever counter deltas the machine still holds before
        // the Simulation span closes, so every event lands inside it.
        st.cpu.flush_probe();
        if let Some(p) = &self.probe {
            p.record(&ProbeEvent::SpanEnd {
                kind: SpanKind::Simulation,
                name: self.scheme.name(),
                cycles: st.cpu.machine().cycles().total(),
            });
        }
        if let Some(e) = &st.error {
            return Err(e.clone());
        }
        self.loop_result.clone()?;
        let machine = st.cpu.machine();
        let threads = st
            .names
            .iter()
            .enumerate()
            .map(|(i, name)| {
                let ts = machine.stats().threads.get(i).copied().unwrap_or_default();
                ThreadReport {
                    name: name.clone(),
                    context_switches: ts.switches_out,
                    saves: ts.saves,
                    restores: ts.restores,
                    blocked_on_read: st.blocked_on_read[i],
                    blocked_on_write: st.blocked_on_write[i],
                    quarantined: st.quarantined[i],
                }
            })
            .collect();
        let report = RunReport {
            scheme: self.scheme,
            policy: st.ready.policy(),
            nwindows: self.nwindows,
            cycles: machine.cycles().clone(),
            stats: machine.stats().clone(),
            threads,
            avg_parallel_slackness: if st.dispatches == 0 {
                0.0
            } else {
                st.slack_sum as f64 / st.dispatches as f64
            },
            bus: None,
        };
        let slackness = report.avg_parallel_slackness;
        let trace = st.trace.take().map(|mut t| {
            t.set_threads(
                st.names.clone(),
                st.blocked_on_read.clone(),
                st.blocked_on_write.clone(),
                slackness,
            );
            t
        });
        Ok((report, trace))
    }

    /// The PE's local clock: total simulated cycles so far.
    pub fn local_tick(&self) -> u64 {
        self.state.borrow().cpu.total_cycles()
    }

    /// Drains every outbound cross-PE stream: buffered bytes become
    /// [`SendEvent`]s (bus requests timestamped with their local send
    /// tick), and a closed-and-drained stream emits its close message
    /// exactly once, after all its bytes. Drained bytes stay in flight —
    /// they occupy sender capacity until [`StartedSim::grant_send`].
    pub fn drain_outbound(&mut self) -> Vec<SendEvent> {
        let mut st = self.state.borrow_mut();
        let mut out = Vec::new();
        for i in 0..st.streams.len() {
            if st.streams[i].remote() != Some(RemoteEnd::Outbound) {
                continue;
            }
            while let Some((byte, tick)) = st.streams[i].take_send() {
                out.push(SendEvent { stream: StreamId(i), payload: Some(byte), tick });
            }
            if st.streams[i].is_closed()
                && st.streams[i].is_empty()
                && !st.streams[i].close_forwarded()
            {
                let tick = st.streams[i].close_tick().unwrap_or(0);
                st.streams[i].mark_close_forwarded();
                out.push(SendEvent { stream: StreamId(i), payload: None, tick });
            }
        }
        out
    }

    /// The bus granted one in-flight byte of the outbound `stream`:
    /// frees a unit of sender capacity and wakes one blocked writer.
    pub fn grant_send(&mut self, stream: StreamId) {
        let mut st = self.state.borrow_mut();
        st.streams[stream.0].grant_send();
        st.bump(Metric::BusGrants, 1);
        st.wake_one_writer(stream);
    }

    /// Delivers a bus message into the inbound `stream` at bus time
    /// `tick`: a payload byte is appended (the receive side is
    /// elastic), `None` closes the stream's bus writer. If the PE is
    /// quiesced (no runnable thread), its clock first advances to
    /// `tick`, charging the gap as bus-stall idle time — the receiving
    /// PE really did sit idle until the delivery arrived.
    pub fn deliver(&mut self, stream: StreamId, payload: Option<u8>, tick: u64) {
        let mut st = self.state.borrow_mut();
        if st.ready.is_empty() {
            st.cpu.step_to_tick(tick);
        }
        match payload {
            Some(byte) => {
                st.streams[stream.0].push_unbounded(byte);
                st.bump(Metric::CrossPeMessages, 1);
                st.wake_one_reader(stream);
            }
            None => {
                if st.streams[stream.0].close_writer() == 0 {
                    st.wake_all_readers(stream);
                }
            }
        }
    }

    /// A human-readable description of what every blocked thread is
    /// waiting for — the per-PE fragment of a cluster-level deadlock
    /// report.
    pub fn blocked_detail(&self) -> String {
        blocked_detail(&self.state.borrow())
    }
}

impl std::fmt::Debug for StartedSim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StartedSim")
            .field("scheme", &self.scheme)
            .field("nwindows", &self.nwindows)
            .field("threads", &self.nthreads)
            .finish()
    }
}

/// Formats what every blocked thread is waiting for (deadlock reports
/// and cluster diagnostics).
fn blocked_detail(st: &SimState) -> String {
    let detail: Vec<String> = st
        .waiting
        .iter()
        .map(|(t, w)| {
            let name = &st.names[t.index()];
            match w {
                Wait::ReadEmpty(s) => {
                    format!("{name} reading empty {}", st.streams[s.0].name())
                }
                Wait::WriteFull(s) => {
                    format!("{name} writing full {}", st.streams[s.0].name())
                }
                Wait::WriteLocked(s) => {
                    format!("{name} awaiting writer lock on {}", st.streams[s.0].name())
                }
            }
        })
        .collect();
    detail.join("; ")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The stop flag raised with no recorded error (as a deadlock leaves
    /// it) must surface as a typed [`RtError::Internal`] on the next
    /// step, not a panic on the empty error slot or a resumed run.
    #[test]
    fn stop_without_error_is_a_typed_internal_error() {
        let mut sim = Simulation::new(8, SchemeKind::Sp).unwrap();
        let pipe = sim.add_stream("pipe", 1, 1);
        sim.spawn("blocked", async move |ctx| {
            // Blocks forever: nothing ever writes the stream.
            ctx.read_byte(pipe).await?;
            Ok(())
        });
        let mut started = sim.start();
        started.state.borrow_mut().stop = true;
        let err = started.step().unwrap_err();
        assert!(matches!(err, RtError::Internal { .. }), "got {err:?}");
        // finish() reproduces the scheduler-loop error and drops the
        // never-dispatched thread cleanly.
        let finished = started.finish();
        assert!(matches!(finished, Err(RtError::Internal { .. })), "got {finished:?}");
    }
}
