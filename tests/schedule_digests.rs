//! Pins the runtime's schedule: FNV-1a digests of every serialized run
//! report of the FIFO Figure 11 and working-set Figure 15 matrices, at a
//! small corpus scale, computed both from direct runs and from replaying
//! each cell's recorded trace. Any change to dispatch order, stream
//! blocking or window accounting moves a digest.

use regwin::core::figures::FigureId;
use regwin::core::{CorpusSpec, MatrixSpec};
use regwin::spell::{SpellConfig, SpellPipeline};
use regwin::sweep::{fnv1a, report_to_json};
use regwin::traps::build_scheme;

/// How each cell's report is produced.
#[derive(Clone, Copy)]
enum Mode {
    Direct,
    Replay,
}

/// FNV-1a over `"<behaviour> <scheme> <nwindows>\n<report json>\n"` for
/// every cell of `fig`'s matrix, in matrix order.
fn digest(fig: FigureId, mode: Mode) -> String {
    let spec = fig.spec(CorpusSpec::scaled(1), &MatrixSpec::quick_window_sweep());
    let mut bytes = Vec::new();
    for &behavior in &spec.behaviors {
        let (m, n) = behavior.buffers();
        let config = SpellConfig::new(spec.corpus, m, n).with_policy(spec.policy);
        let pipeline = SpellPipeline::new(config);
        for &scheme in &spec.schemes {
            for &nwindows in &spec.windows {
                let report = match mode {
                    Mode::Direct => pipeline.run(nwindows, scheme).unwrap().report,
                    Mode::Replay => {
                        let (_, trace) = pipeline.run_traced(nwindows, scheme).unwrap();
                        trace
                            .replay(pipeline.machine_config(nwindows), build_scheme(scheme))
                            .unwrap()
                    }
                };
                let cell = format!("{behavior} {scheme} {nwindows}\n");
                bytes.extend_from_slice(cell.as_bytes());
                bytes.extend_from_slice(report_to_json(&report).as_bytes());
                bytes.push(b'\n');
            }
        }
    }
    format!("{:016x}", fnv1a(&bytes))
}

#[test]
fn fig11_fifo_direct_schedule_is_pinned() {
    assert_eq!(digest(FigureId::Fig11, Mode::Direct), "56fa44c5dfda8b18");
}

#[test]
fn fig11_fifo_replayed_schedule_is_pinned() {
    assert_eq!(digest(FigureId::Fig11, Mode::Replay), "56fa44c5dfda8b18");
}

#[test]
fn fig15_working_set_direct_schedule_is_pinned() {
    assert_eq!(digest(FigureId::Fig15, Mode::Direct), "6336a07229a16cf3");
}

#[test]
fn fig15_working_set_replayed_schedule_is_pinned() {
    assert_eq!(digest(FigureId::Fig15, Mode::Replay), "fa03f7ba4f6a6098");
}
