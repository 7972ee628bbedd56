//! The API a thread body programs against.

use crate::error::RtError;
use crate::sim::{SharedState, SimState, Wait};
use crate::stream::{RemoteEnd, StreamId};
use crate::trace::TraceEvent;
use regwin_machine::ThreadId;
use regwin_obs::Metric;
use regwin_traps::RestoreInstr;
use std::cell::RefMut;
use std::future::poll_fn;
use std::task::Poll;

/// Handle through which a simulated thread computes, calls procedures and
/// performs stream I/O. Every operation is accounted on the simulated CPU;
/// blocking operations are `async`: they suspend the thread and hand
/// control back to the scheduler, exactly as the paper's non-preemptive
/// runtime does.
pub struct Ctx {
    state: SharedState,
    tid: ThreadId,
}

impl Ctx {
    pub(crate) fn new(state: SharedState, tid: ThreadId) -> Self {
        Ctx { state, tid }
    }

    /// This thread's id.
    pub fn thread_id(&self) -> ThreadId {
        self.tid
    }

    /// The simulation state. Callers drop the borrow before any
    /// `.await`.
    fn state(&self) -> RefMut<'_, SimState> {
        self.state.borrow_mut()
    }

    /// Charges `cycles` of application compute to the simulated CPU.
    pub fn compute(&mut self, cycles: u64) {
        let mut st = self.state();
        st.record(TraceEvent::Compute(cycles));
        st.cpu.compute(cycles);
    }

    /// Performs a procedure call: executes `save`, runs the async body
    /// `f`, then executes `restore` — the fundamental operation whose
    /// cost the register windows exist to minimise. A recursive body
    /// boxes its future at the recursion point (`Box::pin`).
    ///
    /// # Errors
    ///
    /// Propagates errors from `f` and from the window machinery.
    pub async fn call<R>(
        &mut self,
        f: impl AsyncFnOnce(&mut Ctx) -> Result<R, RtError>,
    ) -> Result<R, RtError> {
        self.framed(None, f).await
    }

    /// Like [`Ctx::call`], but the return uses the peephole-optimised
    /// `restore`-with-add form of paper §4.3.
    ///
    /// # Errors
    ///
    /// Propagates errors from `f` and from the window machinery.
    pub async fn call_with_restore_add<R>(
        &mut self,
        instr: RestoreInstr,
        f: impl AsyncFnOnce(&mut Ctx) -> Result<R, RtError>,
    ) -> Result<R, RtError> {
        self.framed(Some(instr), f).await
    }

    /// `save`, the body `f`, then a plain `restore` or, with `instr`,
    /// its restore-with-add form.
    async fn framed<R>(
        &mut self,
        instr: Option<RestoreInstr>,
        f: impl AsyncFnOnce(&mut Ctx) -> Result<R, RtError>,
    ) -> Result<R, RtError> {
        {
            let mut st = self.state();
            st.record(TraceEvent::Save);
            st.cpu.save()?;
        }
        let result = f(self).await;
        // The restore must happen even if the body failed, to keep the
        // simulated stack balanced for diagnostics; the body error wins.
        let restored = {
            let mut st = self.state();
            st.record(TraceEvent::Restore);
            match &instr {
                Some(instr) => st.cpu.restore_with(instr),
                None => st.cpu.restore(),
            }
        };
        let value = result?;
        restored?;
        Ok(value)
    }

    /// Runs `attempt` against the simulation state until it is ready.
    /// An attempt that must block registers the thread's [`Wait`] and
    /// returns `Pending`, which yields the thread's turn; only the
    /// scheduler's next dispatch of this thread polls it again, so no
    /// waker is needed. The state borrow ends before the thread yields.
    async fn block_on<T>(&self, mut attempt: impl FnMut(&mut SimState) -> Poll<T>) -> T {
        poll_fn(|_| attempt(&mut self.state())).await
    }

    /// Reads one byte from `stream`, blocking (and context-switching)
    /// while it is empty. Returns `None` at end-of-stream.
    ///
    /// # Errors
    ///
    /// Fails on an unknown stream id or an injected stream-read fault.
    pub async fn read_byte(&mut self, stream: StreamId) -> Result<Option<u8>, RtError> {
        let tid = self.tid;
        self.block_on(|st| {
            if st.streams.get(stream.0).is_none() {
                return Poll::Ready(Err(RtError::UnknownStream(stream.0)));
            }
            if !st.streams[stream.0].is_empty() {
                // Consult the fault plan before touching the stream, so
                // a failed read leaves the byte in place — mirroring the
                // machine's failed-spill-leaves-state-untouched ordering.
                let index = st.stream_reads_seen;
                st.stream_reads_seen += 1;
                if st.stream_read_fails.remove(&index) {
                    return Poll::Ready(Err(RtError::FaultInjected { site: "stream-read", index }));
                }
                let b = st.streams[stream.0].pop().expect("non-empty stream");
                let cycles = st.stream_byte_cycles;
                st.record(TraceEvent::Compute(cycles));
                st.cpu.compute(cycles);
                st.bump(Metric::StreamBytesRead, 1);
                st.wake_one_writer(stream);
                return Poll::Ready(Ok(Some(b)));
            }
            if st.streams[stream.0].is_closed() {
                return Poll::Ready(Ok(None));
            }
            st.waiting.insert(tid, Wait::ReadEmpty(stream));
            st.blocked_on_read[tid.index()] += 1;
            st.bump(Metric::StreamWaitsRead, 1);
            Poll::Pending
        })
        .await
    }

    /// Writes one byte to `stream`, blocking (and context-switching)
    /// while it is full.
    ///
    /// # Errors
    ///
    /// Fails if the stream is fully closed, on an unknown stream id or
    /// on an injected stream-write fault.
    pub async fn write_byte(&mut self, stream: StreamId, byte: u8) -> Result<(), RtError> {
        let tid = self.tid;
        self.block_on(|st| {
            if st.streams.get(stream.0).is_none() {
                return Poll::Ready(Err(RtError::UnknownStream(stream.0)));
            }
            if st.streams[stream.0].is_closed() {
                return Poll::Ready(Err(RtError::WriteAfterClose(stream.0)));
            }
            if !st.streams[stream.0].is_full() {
                // Fault check before the push: a failed write must not
                // have buffered the byte (see the read-side comment).
                let index = st.stream_writes_seen;
                st.stream_writes_seen += 1;
                if st.stream_write_fails.remove(&index) {
                    return Poll::Ready(Err(RtError::FaultInjected {
                        site: "stream-write",
                        index,
                    }));
                }
                let pushed = st.streams[stream.0].push(byte);
                debug_assert!(pushed, "non-full stream");
                let cycles = st.stream_byte_cycles;
                st.record(TraceEvent::Compute(cycles));
                st.cpu.compute(cycles);
                st.bump(Metric::StreamBytesWritten, 1);
                if st.streams[stream.0].remote() == Some(RemoteEnd::Outbound) {
                    // Timestamp the byte's completion for the cluster
                    // bus: it becomes the request's arrival tick.
                    let tick = st.cpu.total_cycles();
                    st.streams[stream.0].note_send_tick(tick);
                }
                st.wake_one_reader(stream);
                return Poll::Ready(Ok(()));
            }
            st.waiting.insert(tid, Wait::WriteFull(stream));
            st.blocked_on_write[tid.index()] += 1;
            st.bump(Metric::StreamWaitsWrite, 1);
            Poll::Pending
        })
        .await
    }

    /// Writes a whole byte slice, blocking as needed.
    ///
    /// Bytes from concurrent writers of the same stream may interleave
    /// if this thread blocks mid-slice on a full buffer; use
    /// [`Ctx::write_record`] when the slice must stay contiguous.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Ctx::write_byte`].
    pub async fn write_all(&mut self, stream: StreamId, bytes: &[u8]) -> Result<(), RtError> {
        for &b in bytes {
            self.write_byte(stream, b).await?;
        }
        Ok(())
    }

    /// Writes `bytes` as one atomic record with respect to the stream's
    /// other writers: a per-stream record lock is held across the whole
    /// write, so even when this thread blocks mid-record on a full
    /// buffer no other writer can interleave bytes into it — the rt
    /// analogue of POSIX `PIPE_BUF` atomicity. Records may be larger
    /// than the stream capacity; the lock simply stays held across the
    /// resulting blocking writes. Not reentrant: a thread must not call
    /// this while already holding the same stream's record lock.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Ctx::write_byte`].
    pub async fn write_record(&mut self, stream: StreamId, bytes: &[u8]) -> Result<(), RtError> {
        self.lock_record(stream).await?;
        let result = self.write_all(stream, bytes).await;
        // Release even when the write failed, so other writers are not
        // wedged behind a dead record.
        self.unlock_record(stream);
        result
    }

    /// Acquires the record lock on `stream`, blocking (and
    /// context-switching) while another writer holds it.
    async fn lock_record(&mut self, stream: StreamId) -> Result<(), RtError> {
        let tid = self.tid;
        self.block_on(|st| {
            if st.streams.get(stream.0).is_none() {
                return Poll::Ready(Err(RtError::UnknownStream(stream.0)));
            }
            match st.record_locks.get(&stream) {
                None => {
                    st.record_locks.insert(stream, tid);
                    Poll::Ready(Ok(()))
                }
                Some(owner) => {
                    debug_assert_ne!(*owner, tid, "record lock is not reentrant");
                    st.waiting.insert(tid, Wait::WriteLocked(stream));
                    st.blocked_on_write[tid.index()] += 1;
                    st.bump(Metric::StreamWaitsWrite, 1);
                    Poll::Pending
                }
            }
        })
        .await
    }

    /// Releases the record lock on `stream` and wakes one waiting writer.
    fn unlock_record(&mut self, stream: StreamId) {
        let mut st = self.state();
        if st.record_locks.remove(&stream).is_some() {
            st.wake_one_lock_waiter(stream);
        }
    }

    /// Closes this thread's writer end of `stream`, waking blocked
    /// readers so they can observe end-of-stream. Never suspends; it is
    /// `async` like every other stream operation.
    ///
    /// # Errors
    ///
    /// Fails on an unknown stream id.
    pub async fn close_writer(&mut self, stream: StreamId) -> Result<(), RtError> {
        let mut st = self.state();
        if st.streams.get(stream.0).is_none() {
            return Err(RtError::UnknownStream(stream.0));
        }
        if st.streams[stream.0].close_writer() == 0 {
            if st.streams[stream.0].remote() == Some(RemoteEnd::Outbound) {
                let tick = st.cpu.total_cycles();
                st.streams[stream.0].note_close_tick(tick);
            }
            st.wake_all_readers(stream);
        }
        Ok(())
    }

    /// Writes a marker into a `local` register of the thread's current
    /// window (used by tests to observe window preservation).
    ///
    /// # Errors
    ///
    /// Propagates machine errors.
    pub fn write_local(&mut self, reg: usize, value: u64) -> Result<(), RtError> {
        Ok(self.state().cpu.write_local(reg, value)?)
    }

    /// Reads a `local` register of the thread's current window.
    ///
    /// # Errors
    ///
    /// Propagates machine errors.
    pub fn read_local(&mut self, reg: usize) -> Result<u64, RtError> {
        Ok(self.state().cpu.read_local(reg)?)
    }
}

impl std::fmt::Debug for Ctx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ctx").field("tid", &self.tid).finish()
    }
}
