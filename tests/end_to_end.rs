//! End-to-end tests across the whole workspace, through the umbrella
//! crate's public API.

use regwin::prelude::*;

fn small_pipeline() -> SpellPipeline {
    SpellPipeline::new(SpellConfig::small())
}

#[test]
fn the_full_stack_produces_correct_spellcheck_results() {
    let pipeline = small_pipeline();
    let expected = pipeline.expected_sorted();
    assert!(!expected.is_empty());
    for scheme in SchemeKind::ALL {
        for nwindows in [4, 7, 8, 16, 32] {
            let outcome = pipeline.run(nwindows, scheme).unwrap();
            assert_eq!(outcome.sorted_misspellings(), expected, "{scheme} at {nwindows} windows");
        }
    }
}

#[test]
fn all_planted_misspellings_are_caught() {
    let pipeline = small_pipeline();
    let outcome = pipeline.run(8, SchemeKind::Sp).unwrap();
    let found = outcome.sorted_misspellings();
    for planted in &pipeline.corpus().planted_misspellings {
        assert!(found.binary_search(planted).is_ok(), "{planted} missed");
    }
    for stop_form in &pipeline.corpus().planted_stop_forms {
        assert!(found.binary_search(stop_form).is_ok(), "{stop_form} missed");
    }
}

#[test]
fn execution_is_bit_for_bit_deterministic() {
    let a = small_pipeline().run(7, SchemeKind::Snp).unwrap();
    let b = small_pipeline().run(7, SchemeKind::Snp).unwrap();
    assert_eq!(a.report.total_cycles(), b.report.total_cycles());
    assert_eq!(a.report.stats, b.report.stats);
    assert_eq!(a.output, b.output);
}

#[test]
fn cycle_totals_decompose_exactly() {
    use regwin::machine::CycleCategory;
    let outcome = small_pipeline().run(8, SchemeKind::Sp).unwrap();
    let c = &outcome.report.cycles;
    let sum: u64 = CycleCategory::ALL.iter().map(|cat| c.category(*cat)).sum();
    assert_eq!(sum, c.total());
    assert_eq!(c.total() - c.category(CycleCategory::App), outcome.report.overhead_cycles());
}

#[test]
fn app_cycles_are_scheme_and_window_independent() {
    use regwin::machine::CycleCategory;
    // The application work is identical everywhere; schemes only change
    // the overhead categories.
    let mut app_cycles = Vec::new();
    let pipeline = small_pipeline();
    for scheme in SchemeKind::ALL {
        for nwindows in [4, 8, 32] {
            let outcome = pipeline.run(nwindows, scheme).unwrap();
            app_cycles.push(outcome.report.cycles.category(CycleCategory::App));
        }
    }
    assert!(app_cycles.windows(2).all(|w| w[0] == w[1]), "{app_cycles:?}");
}

#[test]
fn custom_runtime_apps_compose_with_any_scheme() {
    for scheme in SchemeKind::ALL {
        let mut sim = Simulation::new(6, scheme).unwrap();
        let s = sim.add_stream("numbers", 3, 1);
        sim.spawn("squares", async move |ctx| {
            for i in 1..=10u8 {
                let sq = ctx
                    .call(async |ctx| {
                        ctx.compute(4);
                        Ok(i.wrapping_mul(i))
                    })
                    .await?;
                ctx.write_byte(s, sq).await?;
            }
            ctx.close_writer(s).await
        });
        sim.spawn("sum", async move |ctx| {
            let mut total = 0u32;
            while let Some(b) = ctx.read_byte(s).await? {
                total += u32::from(b);
            }
            assert_eq!(total, (1..=10u32).map(|i| i * i).sum::<u32>());
            Ok(())
        });
        sim.run().unwrap();
    }
}

#[test]
fn machine_is_usable_standalone_through_the_umbrella() {
    use regwin::machine::{ExecOutcome, Machine};
    let mut m = Machine::new(8).unwrap();
    let t = m.add_thread();
    let slot = m.reserved().unwrap().above(8);
    m.start_initial_frame(t, slot).unwrap();
    m.set_current(Some(t)).unwrap();
    m.grant_all_free(t).unwrap();
    assert!(matches!(m.try_save().unwrap(), ExecOutcome::Completed));
    m.check_invariants().unwrap();
}
