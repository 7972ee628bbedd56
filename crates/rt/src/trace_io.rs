//! Binary serialisation of window-event traces.
//!
//! A compact little-endian format so traces can be recorded once (the
//! expensive simulation) and replayed or analysed offline any number of
//! times. The format is versioned; readers reject unknown versions. A
//! trailing FNV-1a checksum covers every preceding byte, so a flipped
//! bit, a truncation or appended bytes fail to decode instead of
//! replaying into numbers from corrupt input.
//!
//! ```text
//! "RWTR" magic | u32 version | f64 slackness | u32 nthreads
//! per thread: u32 name_len, name bytes, u64 blocked_read, u64 blocked_write
//! u64 nevents
//! per event: u8 tag, payload (Compute: u64 cycles; SwitchTo: u32 thread)
//! u64 checksum (FNV-1a over every byte above)
//! ```

use crate::error::RtError;
use crate::trace::{Trace, TraceEvent};
use regwin_machine::{fnv1a, ThreadId};
use std::io::{self, Read, Write};

const MAGIC: &[u8; 4] = b"RWTR";
/// v2: a trailing checksum over the whole file.
const VERSION: u32 = 2;
/// Length of the magic number plus the version field.
const HEADER_LEN: usize = 8;
/// Length of the trailing checksum.
const SUM_LEN: usize = 8;

const TAG_SAVE: u8 = 0;
const TAG_RESTORE: u8 = 1;
const TAG_COMPUTE: u8 = 2;
const TAG_SWITCH: u8 = 3;
const TAG_TERMINATE: u8 = 4;

impl Trace {
    /// Writes the trace in the binary format. Accepts any [`Write`]; pass
    /// `&mut writer` to keep ownership.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write_to<W: Write>(&self, mut w: W) -> io::Result<()> {
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&VERSION.to_le_bytes());
        buf.extend_from_slice(&self.avg_parallel_slackness().to_le_bytes());
        let names = self.thread_names();
        buf.extend_from_slice(&(names.len() as u32).to_le_bytes());
        for (i, name) in names.iter().enumerate() {
            buf.extend_from_slice(&(name.len() as u32).to_le_bytes());
            buf.extend_from_slice(name.as_bytes());
            buf.extend_from_slice(&self.blocked_on_read_of(i).to_le_bytes());
            buf.extend_from_slice(&self.blocked_on_write_of(i).to_le_bytes());
        }
        buf.extend_from_slice(&(self.events().len() as u64).to_le_bytes());
        for event in self.events() {
            match *event {
                TraceEvent::Save => buf.push(TAG_SAVE),
                TraceEvent::Restore => buf.push(TAG_RESTORE),
                TraceEvent::Compute(c) => {
                    buf.push(TAG_COMPUTE);
                    buf.extend_from_slice(&c.to_le_bytes());
                }
                TraceEvent::SwitchTo(t) => {
                    buf.push(TAG_SWITCH);
                    buf.extend_from_slice(&(t.index() as u32).to_le_bytes());
                }
                TraceEvent::Terminate => buf.push(TAG_TERMINATE),
            }
        }
        let sum = fnv1a(&buf);
        buf.extend_from_slice(&sum.to_le_bytes());
        w.write_all(&buf)
    }

    /// Reads a trace from the binary format. Accepts any [`Read`]; pass
    /// `&mut reader` to keep ownership. Reads to the end of the input:
    /// the trace must be all of it.
    ///
    /// # Errors
    ///
    /// Fails with [`RtError::CorruptTrace`] on I/O errors, a bad magic
    /// number, an unknown version, a checksum mismatch, a corrupt event
    /// stream or bytes left over after it.
    pub fn read_from<R: Read>(mut r: R) -> Result<Trace, RtError> {
        let mut bytes = Vec::new();
        r.read_to_end(&mut bytes).map_err(|e| corrupt(&e.to_string()))?;
        // The header is checked before the checksum, so a file in
        // another format version says so instead of failing its sum.
        let mut header = bytes.as_slice();
        let magic: [u8; 4] = read_array(&mut header)?;
        if &magic != MAGIC {
            return Err(corrupt("bad magic number"));
        }
        if read_u32(&mut header)? != VERSION {
            return Err(corrupt("unsupported trace version"));
        }
        let Some(body_len) = bytes.len().checked_sub(SUM_LEN).filter(|&n| n >= HEADER_LEN) else {
            return Err(corrupt("truncated before the checksum"));
        };
        let (body, mut sum) = bytes.split_at(body_len);
        if fnv1a(body) != u64::from_le_bytes(read_array(&mut sum)?) {
            return Err(corrupt("checksum mismatch"));
        }
        let mut r = &body[HEADER_LEN..];
        let slackness = f64::from_le_bytes(read_array(&mut r)?);
        let nthreads = read_u32(&mut r)? as usize;
        if nthreads > 1 << 20 {
            return Err(corrupt("implausible thread count"));
        }
        let mut names = Vec::with_capacity(nthreads);
        let mut blocked_read = Vec::with_capacity(nthreads);
        let mut blocked_write = Vec::with_capacity(nthreads);
        for _ in 0..nthreads {
            let len = read_u32(&mut r)? as usize;
            if len > 1 << 16 {
                return Err(corrupt("implausible name length"));
            }
            let mut buf = vec![0u8; len];
            read_exact(&mut r, &mut buf)?;
            names.push(String::from_utf8(buf).map_err(|_| corrupt("name not UTF-8"))?);
            blocked_read.push(u64::from_le_bytes(read_array(&mut r)?));
            blocked_write.push(u64::from_le_bytes(read_array(&mut r)?));
        }
        let nevents = u64::from_le_bytes(read_array(&mut r)?) as usize;
        let mut trace = Trace::new();
        for _ in 0..nevents {
            let [tag] = read_array(&mut r)?;
            let event = match tag {
                TAG_SAVE => TraceEvent::Save,
                TAG_RESTORE => TraceEvent::Restore,
                TAG_COMPUTE => TraceEvent::Compute(u64::from_le_bytes(read_array(&mut r)?)),
                TAG_SWITCH => {
                    let t = read_u32(&mut r)? as usize;
                    if t >= nthreads {
                        return Err(corrupt("switch to unknown thread"));
                    }
                    TraceEvent::SwitchTo(ThreadId::new(t))
                }
                TAG_TERMINATE => TraceEvent::Terminate,
                _ => return Err(corrupt("unknown event tag")),
            };
            trace.push_raw(event);
        }
        if !r.is_empty() {
            return Err(corrupt("trailing bytes after the event stream"));
        }
        trace.set_threads(names, blocked_read, blocked_write, slackness);
        Ok(trace)
    }
}

fn corrupt(what: &str) -> RtError {
    RtError::CorruptTrace { detail: what.to_string() }
}

fn read_exact<R: Read>(r: &mut R, buf: &mut [u8]) -> Result<(), RtError> {
    r.read_exact(buf).map_err(|e| RtError::CorruptTrace { detail: e.to_string() })
}

fn read_u32<R: Read>(r: &mut R) -> Result<u32, RtError> {
    Ok(u32::from_le_bytes(read_array(r)?))
}

fn read_array<R: Read, const N: usize>(r: &mut R) -> Result<[u8; N], RtError> {
    let mut buf = [0u8; N];
    read_exact(r, &mut buf)?;
    Ok(buf)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> Trace {
        let mut t = Trace::new();
        t.push_raw(TraceEvent::SwitchTo(ThreadId::new(0)));
        t.push_raw(TraceEvent::Save);
        t.push_raw(TraceEvent::Compute(1234));
        t.push_raw(TraceEvent::SwitchTo(ThreadId::new(1)));
        t.push_raw(TraceEvent::Restore);
        t.push_raw(TraceEvent::Terminate);
        t.set_threads(vec!["alpha".into(), "beta".into()], vec![1, 2], vec![3, 4], 1.25);
        t
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let t = sample_trace();
        let mut buf = Vec::new();
        t.write_to(&mut buf).unwrap();
        let back = Trace::read_from(buf.as_slice()).unwrap();
        assert_eq!(back.events(), t.events());
        assert_eq!(back.thread_names(), t.thread_names());
        assert_eq!(back.avg_parallel_slackness(), 1.25);
    }

    #[test]
    fn bad_magic_is_rejected() {
        let err = Trace::read_from(&b"NOPE"[..]);
        assert!(matches!(err, Err(RtError::CorruptTrace { .. })));
    }

    #[test]
    fn truncated_stream_is_rejected() {
        let t = sample_trace();
        let mut buf = Vec::new();
        t.write_to(&mut buf).unwrap();
        buf.truncate(buf.len() - 3);
        assert!(matches!(Trace::read_from(buf.as_slice()), Err(RtError::CorruptTrace { .. })));
    }

    #[test]
    fn a_flipped_bit_fails_the_checksum() {
        let mut buf = Vec::new();
        sample_trace().write_to(&mut buf).unwrap();
        // A compute payload byte: the event stream still parses, so
        // only the checksum can catch the change.
        let at = buf.len() - SUM_LEN - 10;
        buf[at] ^= 0x10;
        match Trace::read_from(buf.as_slice()) {
            Err(RtError::CorruptTrace { detail }) => assert_eq!(detail, "checksum mismatch"),
            other => panic!("expected a checksum mismatch, got {other:?}"),
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut buf = Vec::new();
        sample_trace().write_to(&mut buf).unwrap();
        // Append a byte and re-seal the file with a matching checksum:
        // the sum holds, so the leftover byte itself must be refused.
        buf.truncate(buf.len() - SUM_LEN);
        buf.push(TAG_SAVE);
        let sum = fnv1a(&buf);
        buf.extend_from_slice(&sum.to_le_bytes());
        match Trace::read_from(buf.as_slice()) {
            Err(RtError::CorruptTrace { detail }) => {
                assert!(detail.contains("trailing"), "{detail}")
            }
            other => panic!("expected trailing-byte rejection, got {other:?}"),
        }
    }

    #[test]
    fn a_version_1_file_is_rejected_by_version() {
        let mut buf = Vec::new();
        sample_trace().write_to(&mut buf).unwrap();
        buf[4..8].copy_from_slice(&1u32.to_le_bytes());
        match Trace::read_from(buf.as_slice()) {
            Err(RtError::CorruptTrace { detail }) => {
                assert_eq!(detail, "unsupported trace version")
            }
            other => panic!("expected a version rejection, got {other:?}"),
        }
    }

    #[test]
    fn switch_to_unknown_thread_is_rejected() {
        let mut t = Trace::new();
        t.push_raw(TraceEvent::SwitchTo(ThreadId::new(9)));
        t.set_threads(vec!["only".into()], vec![0], vec![0], 0.0);
        let mut buf = Vec::new();
        t.write_to(&mut buf).unwrap();
        assert!(matches!(Trace::read_from(buf.as_slice()), Err(RtError::CorruptTrace { .. })));
    }
}
