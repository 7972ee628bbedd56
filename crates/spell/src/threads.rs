//! The seven thread bodies (paper Figure 10).
//!
//! Each body is written with the helper-procedure structure real code
//! has: scanning, hashing, lookup and I/O steps run inside [`Ctx::call`]
//! frames, so the workload exercises the register windows the way the
//! authors' lex/C implementation did. The compute charges are small
//! constants per unit of work — the absolute numbers only scale the
//! application-cycle baseline that is identical across schemes.

use crate::delatex::Delatex;
use crate::dict::Dictionary;
use crate::reference::MIN_CHECKED_LEN;
use regwin_rt::{Ctx, RtError, StreamId};
use std::sync::{Arc, Mutex};

/// Bytes copied per simulated kernel-thread call frame (one "block").
const IO_CHUNK: usize = 4;

/// T4 — the input kernel thread: copies the document from its internal
/// buffer ("disk cache") into S1.
pub(crate) async fn run_input(ctx: &mut Ctx, document: &[u8], s1: StreamId) -> Result<(), RtError> {
    for chunk in document.chunks(IO_CHUNK) {
        ctx.call(async |ctx| {
            ctx.compute(2);
            for &b in chunk {
                ctx.write_byte(s1, b).await?;
            }
            Ok(())
        })
        .await?;
    }
    ctx.close_writer(s1).await
}

/// T6 / T7 — a dictionary kernel thread: streams a dictionary file.
pub(crate) async fn run_dict_feed(
    ctx: &mut Ctx,
    dict: &[u8],
    out: StreamId,
) -> Result<(), RtError> {
    for chunk in dict.chunks(IO_CHUNK) {
        ctx.call(async |ctx| {
            ctx.compute(2);
            for &b in chunk {
                ctx.write_byte(out, b).await?;
            }
            Ok(())
        })
        .await?;
    }
    ctx.close_writer(out).await
}

/// T5 — the output kernel thread: drains S4 into its internal buffer.
pub(crate) async fn run_output(
    ctx: &mut Ctx,
    s4: StreamId,
    sink: Arc<Mutex<Vec<u8>>>,
) -> Result<(), RtError> {
    loop {
        let eof = ctx
            .call(async |ctx| {
                ctx.compute(2);
                for _ in 0..IO_CHUNK {
                    match ctx.read_byte(s4).await? {
                        Some(b) => sink.lock().expect("sink poisoned").push(b),
                        None => return Ok(true),
                    }
                }
                Ok(false)
            })
            .await?;
        if eof {
            return Ok(());
        }
    }
}

/// T5 (cluster variant) — the output kernel thread of a non-collector
/// PE: drains S4 into an uplink stream bound for the collector PE
/// instead of a local buffer, closing the uplink at end-of-stream. The
/// call-frame structure and per-chunk compute charge match
/// [`run_output`] exactly, so a PE's window behaviour is independent of
/// which variant it runs.
pub(crate) async fn run_output_to_stream(
    ctx: &mut Ctx,
    s4: StreamId,
    uplink: StreamId,
) -> Result<(), RtError> {
    loop {
        let eof = ctx
            .call(async |ctx| {
                ctx.compute(2);
                for _ in 0..IO_CHUNK {
                    match ctx.read_byte(s4).await? {
                        Some(b) => ctx.write_byte(uplink, b).await?,
                        None => return Ok(true),
                    }
                }
                Ok(false)
            })
            .await?;
        if eof {
            return ctx.close_writer(uplink).await;
        }
    }
}

/// T1 — delatex: strips LaTeX from S1, emits one word per line on S2.
///
/// The stream read happens *inside* the per-character scanner frame, as
/// it does in real code (blocking I/O sits deep in the call tree, inside
/// `getc`). This matters for the window behaviour: a thread that blocks
/// at its locally-deepest frame resumes into dead windows it may re-enter
/// trap-free, which is what makes the sharing schemes' trap probability
/// collapse at large window counts (paper Figure 13).
pub(crate) async fn run_delatex(ctx: &mut Ctx, s1: StreamId, s2: StreamId) -> Result<(), RtError> {
    let mut scanner = Delatex::new();
    loop {
        let mut words: Vec<String> = Vec::new();
        let byte = ctx
            .call(async |ctx| {
                // The process_char frame. Its helpers — getc, accumulate,
                // putc — all run one level deeper, so the thread blocks at
                // its maximum oscillation depth and resumes into windows it
                // can re-enter trap-free.
                ctx.compute(1);
                let b = ctx
                    .call(async |ctx| {
                        // getc: the blocking read lives in its own frame.
                        ctx.compute(1);
                        ctx.read_byte(s1).await
                    })
                    .await?;
                match b {
                    Some(b) if b.is_ascii_alphabetic() => {
                        ctx.call(async |ctx| {
                            ctx.compute(1);
                            scanner.push(b, |w| words.push(w.to_string()));
                            Ok(())
                        })
                        .await?;
                    }
                    Some(b) => scanner.push(b, |w| words.push(w.to_string())),
                    None => scanner.finish(|w| words.push(w.to_string())),
                }
                Ok(b)
            })
            .await?;
        for w in &words {
            // Emit with the word write one frame below the emit frame
            // (puts), matching the depth of the getc suspensions.
            ctx.call(async |ctx| {
                ctx.compute(1);
                emit_word(ctx, w, s2).await
            })
            .await?;
        }
        if byte.is_none() {
            return ctx.close_writer(s2).await;
        }
    }
}

/// Writes one word plus the line terminator (a call frame of its own).
async fn emit_word(ctx: &mut Ctx, word: &str, out: StreamId) -> Result<(), RtError> {
    ctx.call(async |ctx| {
        ctx.compute(word.len() as u64);
        // One atomic record: S4 has two writers (T2's stop-list hits and
        // T3's misspellings), and without record atomicity a writer that
        // blocks mid-word on a full buffer gets the other writer's bytes
        // spliced into its line.
        let mut record = Vec::with_capacity(word.len() + 1);
        record.extend_from_slice(word.as_bytes());
        record.push(b'\n');
        ctx.write_record(out, &record).await
    })
    .await
}

/// Reads one newline-terminated line (a call frame per byte, like a
/// `getc`-based reader). Returns `None` at end-of-stream.
async fn read_line(
    ctx: &mut Ctx,
    input: StreamId,
    line: &mut String,
) -> Result<Option<()>, RtError> {
    line.clear();
    loop {
        let b = ctx
            .call(async |ctx| {
                ctx.compute(1);
                ctx.read_byte(input).await
            })
            .await?;
        match b {
            Some(b'\n') => return Ok(Some(())),
            Some(b) => line.push(b as char),
            None => {
                return if line.is_empty() { Ok(None) } else { Ok(Some(())) };
            }
        }
    }
}

/// Builds a dictionary from a stream (phase 1 of T2 and T3).
async fn build_dictionary(ctx: &mut Ctx, input: StreamId) -> Result<Dictionary, RtError> {
    let mut dict = Dictionary::new();
    let mut line = String::new();
    while read_line(ctx, input, &mut line).await?.is_some() {
        if line.is_empty() {
            continue;
        }
        let word = std::mem::take(&mut line);
        ctx.call(async |ctx| {
            ctx.compute(2 + word.len() as u64); // hash + insert
            dict.insert(word);
            Ok(())
        })
        .await?;
    }
    Ok(dict)
}

/// T2 — spell1: builds the stop list from S5, then routes each word from
/// S2 — stop-list hits ("incorrect derivatives") to S4, the rest to S3.
pub(crate) async fn run_spell1(
    ctx: &mut Ctx,
    s5: StreamId,
    s2: StreamId,
    s3: StreamId,
    s4: StreamId,
) -> Result<(), RtError> {
    let stop = build_dictionary(ctx, s5).await?;
    let mut word = String::new();
    while read_line(ctx, s2, &mut word).await?.is_some() {
        if word.is_empty() {
            continue;
        }
        let is_stop = ctx
            .call(async |ctx| {
                ctx.compute(3 + word.len() as u64); // hash + probe
                Ok(word.len() >= MIN_CHECKED_LEN && stop.contains(&word))
            })
            .await?;
        if is_stop {
            emit_word(ctx, &word, s4).await?;
        } else {
            emit_word(ctx, &word, s3).await?;
        }
    }
    ctx.close_writer(s3).await?;
    ctx.close_writer(s4).await
}

/// T3 — spell2: builds the main dictionary from S6, then filters words
/// from S3 — correct words (including derivatives) are dropped,
/// misspellings go to S4.
pub(crate) async fn run_spell2(
    ctx: &mut Ctx,
    s6: StreamId,
    s3: StreamId,
    s4: StreamId,
) -> Result<(), RtError> {
    let main = build_dictionary(ctx, s6).await?;
    let mut word = String::new();
    while read_line(ctx, s3, &mut word).await?.is_some() {
        if word.is_empty() {
            continue;
        }
        if word.len() < MIN_CHECKED_LEN {
            continue; // fragments are never reported
        }
        let correct = ctx
            .call(async |ctx| {
                ctx.compute(3 + word.len() as u64); // hash + probe
                if main.contains(&word) {
                    return Ok(true);
                }
                // Derivative handling: one lookup frame per stem candidate.
                for stem in crate::affix::stems(&word) {
                    let hit = ctx
                        .call(async |ctx| {
                            ctx.compute(3 + stem.len() as u64);
                            Ok(main.contains(&stem))
                        })
                        .await?;
                    if hit {
                        return Ok(true);
                    }
                }
                Ok(false)
            })
            .await?;
        if !correct {
            emit_word(ctx, &word, s4).await?;
        }
    }
    ctx.close_writer(s4).await
}
