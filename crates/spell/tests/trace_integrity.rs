//! Trace-file integrity regression: 300 seeded bit-flip and truncation
//! mutations of a recorded spell trace must each decode to a typed
//! [`RtError::CorruptTrace`] — never a panic, and never an `Ok` trace
//! that would replay into numbers from corrupt input.

use regwin_rt::{RtError, Trace};
use regwin_spell::{SpellConfig, SpellPipeline};
use regwin_traps::SchemeKind;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The splitmix64 step: a dependency-free, seeded mutation stream.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[test]
fn every_seeded_mutation_of_a_recorded_trace_is_a_typed_error() {
    let (_, trace) =
        SpellPipeline::new(SpellConfig::small()).run_traced(8, SchemeKind::Sp).unwrap();
    let mut encoded = Vec::new();
    trace.write_to(&mut encoded).unwrap();
    assert!(Trace::read_from(encoded.as_slice()).is_ok(), "the pristine trace must decode");

    let mut state = 0x5EED_7ACE;
    for i in 0..300 {
        let mut bytes = encoded.clone();
        let at = (splitmix64(&mut state) % bytes.len() as u64) as usize;
        let what = if i % 2 == 0 {
            let bit = splitmix64(&mut state) % 8;
            bytes[at] ^= 1 << bit;
            format!("bit {bit} of byte {at} flipped")
        } else {
            bytes.truncate(at);
            format!("truncated to {at} bytes")
        };
        match catch_unwind(AssertUnwindSafe(|| Trace::read_from(bytes.as_slice()))) {
            Ok(Err(RtError::CorruptTrace { .. })) => {}
            Ok(Err(other)) => panic!("mutation {i} ({what}): untyped error {other:?}"),
            Ok(Ok(_)) => panic!("mutation {i} ({what}) decoded as a valid trace"),
            Err(_) => panic!("mutation {i} ({what}) panicked the decoder"),
        }
    }
}
