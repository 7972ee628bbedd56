//! The traced run (`--trace 1`): per-layer host time, measured from
//! outside the program with spans around direct calls into each crate.
//!
//! One *traced pass* is:
//!
//! 1. the workload's **layer pass** — the same generated job set the
//!    end-to-end passes run, executed sequentially through the public
//!    functions the sweep engine itself calls (`Corpus::generate`,
//!    `SpellPipeline::run_traced`/`run`, `Trace::replay_with_options`,
//!    `Workload::synthesize`, `run_bundle`, `JobKey`, `ResultCache`),
//!    so its output digest must equal the engine's;
//! 2. the **probe kit** — small seeded probes of every layer (Cpu window
//!    ops and traps per scheme, one trace replayed under both timing
//!    backends, a few scenarios, a small corpus, the sweep's
//!    serializer, journal and per-job engine overhead), so every layer
//!    has a number on every workload.
//!
//! A per-layer metric comes from the layer pass when the workload
//! exercises that layer, and from the kit otherwise (see
//! `RATIONALE.md`). Passes alternate with tracing off and on while the
//! time budget lasts; the traced-over-untraced wall ratio is the tracing
//! overhead.

use crate::e2e::{RunConfig, PASS_WORKERS};
use crate::report::{golden_digest, Measured, Outcome};
use crate::stats::{median, spread, tail};
use crate::sys::{self, Usage};
use crate::tracer::Tracer;
use crate::workload::{
    corpus_spec, engine, scenario, scenario_key, Inputs, Pass, Size, Workload, DEFAULT_SEED,
};
use regwin_core::{Behavior, Concurrency, Granularity, MatrixSpec};
use regwin_machine::{CycleCategory, MachineConfig, SchemeKind, TimingKind};
use regwin_rt::{RtError, RunReport, SchedulingPolicy, Trace};
use regwin_spell::{reference, Corpus, SpellConfig, SpellOutcome, SpellPipeline};
use regwin_sweep::json::Value;
use regwin_sweep::{
    fnv1a, report_from_json, report_to_json, Job, JobKey, JobRecord, ResultCache, SweepJournal,
};
use regwin_traps::{build_scheme, Cpu};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Failed and attempted checks of one run.
#[derive(Debug, Default)]
struct Checks {
    attempted: usize,
    failed: usize,
    problems: Vec<String>,
}

impl Checks {
    fn check(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.problems.push(problem());
        }
    }
}

/// Measurements spans alone cannot give, per part of a traced pass.
#[derive(Debug, Default)]
struct Side {
    /// Direct-run ns and replay ns of the same cell, per sampled cell.
    direct_vs_replay_ns: Vec<(f64, f64)>,
    /// Direct runs: host ns, simulated context switches, OS usage.
    direct_ns: u64,
    direct_switches: u64,
    direct_usage: Usage,
    /// Replays: host ns and trace events replayed.
    replay_ns: u64,
    replay_events: u64,
    /// Engine probe: warm hits over warm jobs.
    warm_hits: usize,
    warm_jobs: usize,
    /// Hazard-stall cycles of the kit's `pipeline`-timed replays.
    pipeline_hazard_cycles: u64,
}

impl Side {
    fn add_usage(&mut self, u: Usage) {
        self.direct_usage.user_s += u.user_s;
        self.direct_usage.sys_s += u.sys_s;
        self.direct_usage.vcsw += u.vcsw;
    }
}

/// One job's result in the layer pass, in execution order.
type Keyed = Vec<(JobKey, Option<RunReport>)>;

/// Runs one direct spell cell under a span, accounting it in `side`.
fn direct_run(
    tr: &mut Tracer,
    side: &mut Side,
    pipeline: &SpellPipeline,
    scheme: SchemeKind,
    nwindows: usize,
) -> (Result<SpellOutcome, RtError>, u64) {
    let u0 = sys::usage();
    let open = tr.begin("rt.direct");
    let outcome = pipeline.run(nwindows, scheme);
    let ns = tr.end(open);
    side.add_usage(sys::usage().since(&u0));
    side.direct_ns += ns;
    if let Ok(o) = &outcome {
        side.direct_switches += o.report.stats.context_switches;
    }
    (outcome, ns)
}

/// Replays `trace` on one cell under a span named `name`.
fn replay(
    tr: &mut Tracer,
    side: &mut Side,
    name: String,
    trace: &Trace,
    scheme: SchemeKind,
    nwindows: usize,
    timing: TimingKind,
) -> (Option<RunReport>, u64) {
    let config = MachineConfig::new(nwindows).with_timing(timing);
    let open = tr.begin(name);
    let report = trace.replay_with_options(config, build_scheme(scheme), None, false).ok();
    let ns = tr.end(open);
    side.replay_ns += ns;
    side.replay_events += trace.len() as u64;
    (report, ns)
}

/// The cell sampled for behaviour `bi`'s direct-vs-replay comparison:
/// schemes and window counts rotate across behaviours.
fn sample_cell(spec: &MatrixSpec, bi: usize) -> (SchemeKind, usize) {
    (spec.schemes[bi % spec.schemes.len()], spec.windows[(bi * 2 + 1) % spec.windows.len()])
}

/// The FIFO matrices: one recording per behaviour, every cell replayed
/// — the engine's record-once/replay-many path — plus one direct run
/// per behaviour, which must serialize byte-identically to its replay.
fn fifo_pass(
    tr: &mut Tracer,
    inputs: &Inputs,
    cache: &ResultCache,
    ck: &mut Checks,
    side: &mut Side,
) -> Keyed {
    let mut out = Keyed::new();
    for spec in &inputs.matrices {
        let corpus = tr.span("spell.corpus", || Corpus::generate(&spec.corpus));
        let timing = spec.timing;
        for (bi, &behavior) in spec.behaviors.iter().enumerate() {
            let (m, n) = behavior.buffers();
            let config = SpellConfig::new(spec.corpus, m, n).with_policy(spec.policy);
            let recorder = SpellPipeline::with_corpus(corpus.clone(), config);
            let open = tr.begin("rt.record");
            let recorded = recorder.run_traced(8, SchemeKind::Sp);
            tr.end(open);
            let trace = match recorded {
                Ok((_, trace)) => trace,
                Err(e) => {
                    ck.check(false, || format!("recording {behavior} failed: {e}"));
                    continue;
                }
            };
            let sampled = sample_cell(spec, bi);
            let mut sampled_replay = None;
            for &scheme in &spec.schemes {
                for &w in &spec.windows {
                    let key = tr.span("sweep.key", || {
                        let key = JobKey::for_cell(spec, behavior, scheme, w);
                        black_box(key.id());
                        key
                    });
                    let name = format!("machine.replay#{}", timing.name());
                    let (report, ns) = replay(tr, side, name, &trace, scheme, w, timing);
                    if let Some(r) = &report {
                        tr.span("sweep.store", || cache.store(&key, r));
                        if (scheme, w) == sampled {
                            sampled_replay = Some((r.clone(), ns));
                        }
                    }
                    out.push((key, report));
                }
            }
            // Replay ≡ direct, byte for byte, on one cell per behaviour.
            let (scheme, w) = sampled;
            let direct = SpellPipeline::with_corpus(corpus.clone(), config.with_timing(timing));
            let (outcome, direct_ns) = direct_run(tr, side, &direct, scheme, w);
            let same = match (&outcome, &sampled_replay) {
                (Ok(o), Some((r, replay_ns))) => {
                    side.direct_vs_replay_ns.push((direct_ns as f64, *replay_ns as f64));
                    report_to_json(&o.report) == report_to_json(r)
                }
                _ => false,
            };
            ck.check(same, || format!("{behavior} {scheme}@{w} {timing}: replay != direct"));
        }
    }
    out
}

/// The working-set matrix: every cell a direct run whose misspellings
/// must equal the sequential reference; one cell per behaviour is also
/// recorded and replayed to split runtime handoff from machine work.
fn ws_pass(
    tr: &mut Tracer,
    inputs: &Inputs,
    cache: &ResultCache,
    ck: &mut Checks,
    side: &mut Side,
) -> Keyed {
    let mut out = Keyed::new();
    for spec in &inputs.matrices {
        let corpus = tr.span("spell.corpus", || Corpus::generate(&spec.corpus));
        let expected = tr.span("spell.reference", || {
            reference::check_sorted(&corpus.document, &corpus.dict1, &corpus.dict2)
        });
        for (bi, &behavior) in spec.behaviors.iter().enumerate() {
            let (m, n) = behavior.buffers();
            let config = SpellConfig::new(spec.corpus, m, n)
                .with_policy(spec.policy)
                .with_timing(spec.timing);
            let pipeline = SpellPipeline::with_corpus(corpus.clone(), config);
            let sampled = sample_cell(spec, bi);
            let mut sampled_direct_ns = 0;
            for &scheme in &spec.schemes {
                for &w in &spec.windows {
                    let key = tr.span("sweep.key", || {
                        let key = JobKey::for_cell(spec, behavior, scheme, w);
                        black_box(key.id());
                        key
                    });
                    let (outcome, ns) = direct_run(tr, side, &pipeline, scheme, w);
                    if (scheme, w) == sampled {
                        sampled_direct_ns = ns;
                    }
                    let ok = outcome.as_ref().is_ok_and(|o| o.sorted_misspellings() == expected);
                    ck.check(ok, || match &outcome {
                        Ok(_) => format!("{behavior} {scheme}@{w}: misspellings != reference"),
                        Err(e) => format!("{behavior} {scheme}@{w}: direct run failed: {e}"),
                    });
                    let report = outcome.ok().map(|o| o.report);
                    if let Some(r) = &report {
                        tr.span("sweep.store", || cache.store(&key, r));
                    }
                    out.push((key, report));
                }
            }
            let (scheme, w) = sampled;
            let open = tr.begin("rt.record");
            let recorded = pipeline.run_traced(w, scheme);
            tr.end(open);
            ck.check(recorded.is_ok(), || format!("recording {behavior} {scheme}@{w} failed"));
            if let Ok((_, trace)) = recorded {
                let name = format!("machine.replay#{}", spec.timing.name());
                let (_, replay_ns) = replay(tr, side, name, &trace, scheme, w, spec.timing);
                side.direct_vs_replay_ns.push((sampled_direct_ns as f64, replay_ns as f64));
            }
        }
    }
    out
}

/// The farm: every scenario synthesized and run through the
/// differential-oracle bundle, which must pass.
fn farm_pass(
    tr: &mut Tracer,
    scenarios: &[regwin_gen::Scenario],
    cache: Option<&ResultCache>,
    ck: &mut Checks,
) -> Keyed {
    let mut out = Keyed::new();
    for sc in scenarios {
        let key = tr.span("sweep.key", || {
            let key = scenario_key(sc);
            black_box(key.id());
            key
        });
        tr.span("gen.synthesize", || black_box(regwin_gen::Workload::synthesize(&sc.spec)));
        let open = tr.begin("gen.bundle");
        let result = regwin_gen::run_bundle(sc);
        tr.end(open);
        ck.check(result.is_ok(), || {
            format!(
                "bundle failed: {}: {}",
                sc.canonical(),
                result.as_ref().err().map(ToString::to_string).unwrap_or_default()
            )
        });
        let report = result.ok();
        if let (Some(cache), Some(r)) = (cache, &report) {
            tr.span("sweep.store", || cache.store(&key, r));
        }
        out.push((key, report));
    }
    out
}

/// Number of timed batches per Cpu-op probe.
const OP_BATCHES: usize = 40;
/// Operations per batch of the trap-free save/restore probe (a nesting
/// depth that never traps on 64 windows).
const DEPTH: u64 = 40;
/// Operations per batch of the trap and switch probes.
const TRAP_OPS: u64 = 64;

fn fresh_cpu(nwindows: usize, scheme: SchemeKind) -> (Cpu, regwin_machine::ThreadId) {
    let mut cpu = Cpu::with_config(MachineConfig::new(nwindows), build_scheme(scheme))
        .expect("probe window counts are valid");
    let t = cpu.add_thread();
    cpu.switch_to(t).expect("initial dispatch");
    (cpu, t)
}

/// Cpu window-op probes: trap-free save/restore, context switches, and
/// overflow/underflow traps under every scheme.
fn cpu_probes(tr: &mut Tracer) {
    let (mut cpu, _) = fresh_cpu(64, SchemeKind::Sp);
    for _ in 0..OP_BATCHES {
        let open = tr.begin_ops("machine.save", DEPTH);
        for _ in 0..DEPTH {
            cpu.save().expect("trap-free save");
        }
        tr.end(open);
        let open = tr.begin_ops("machine.restore", DEPTH);
        for _ in 0..DEPTH {
            cpu.restore().expect("trap-free restore");
        }
        tr.end(open);
    }

    let (mut cpu, a) = fresh_cpu(8, SchemeKind::Sp);
    let b = cpu.add_thread();
    for _ in 0..OP_BATCHES {
        let open = tr.begin_ops("machine.switch", TRAP_OPS);
        for _ in 0..TRAP_OPS / 2 {
            cpu.switch_to(b).expect("switch");
            cpu.switch_to(a).expect("switch");
        }
        tr.end(open);
    }

    for scheme in SchemeKind::ALL {
        let (mut cpu, t) = fresh_cpu(4, scheme);
        for _ in 0..8 {
            cpu.save().expect("saturating save");
        }
        for _ in 0..OP_BATCHES / 4 {
            let open = tr.begin_ops(format!("traps.overflow#{}", scheme.name()), TRAP_OPS);
            for _ in 0..TRAP_OPS {
                cpu.save().expect("overflowing save");
            }
            tr.end(open);
            while cpu.machine().live_windows_of(t).expect("live windows").len() > 1 {
                cpu.restore().expect("unwinding restore");
            }
            let open = tr.begin_ops(format!("traps.underflow#{}", scheme.name()), TRAP_OPS);
            for _ in 0..TRAP_OPS {
                cpu.restore().expect("underflowing restore");
            }
            tr.end(open);
            for _ in 0..TRAP_OPS + 8 {
                cpu.save().expect("re-deepening save");
            }
        }
    }
}

/// The probe kit: every layer measured on small seeded inputs, plus the
/// sweep layer on the layer pass's own reports.
fn kit(tr: &mut Tracer, seed: u64, reports: &Keyed, dir: &Path, ck: &mut Checks, side: &mut Side) {
    // spell + rt + machine: a small corpus, one behaviour recorded,
    // run directly and replayed on the recording cell.
    let spec = corpus_spec(seed ^ 0x4B17, 2.0);
    let corpus = tr.span("spell.corpus", || Corpus::generate(&spec));
    tr.span("spell.reference", || {
        black_box(reference::check(&corpus.document, &corpus.dict1, &corpus.dict2))
    });
    let (m, n) = Behavior::new(Concurrency::High, Granularity::Medium).buffers();
    let pipeline = SpellPipeline::with_corpus(corpus, SpellConfig::new(spec, m, n));
    let open = tr.begin("rt.record");
    let recorded = pipeline.run_traced(8, SchemeKind::Sp);
    tr.end(open);
    let (direct, direct_ns) = direct_run(tr, side, &pipeline, SchemeKind::Sp, 8);
    ck.check(recorded.is_ok() && direct.is_ok(), || "probe kit spell runs failed".into());
    if let Ok((_, trace)) = recorded {
        let name = "machine.replay#s20".to_string();
        let (_, replay_ns) = replay(tr, side, name, &trace, SchemeKind::Sp, 8, TimingKind::S20);
        side.direct_vs_replay_ns.push((direct_ns as f64, replay_ns as f64));
        // machine.timing: the same trace under both backends.
        for scheme in SchemeKind::ALL {
            for w in [4, 8, 16] {
                for timing in TimingKind::ALL {
                    let name = format!("machine.timing.replay#{}", timing.name());
                    let mut scratch = Side::default();
                    let (report, _) = replay(tr, &mut scratch, name, &trace, scheme, w, timing);
                    if let (TimingKind::Pipeline, Some(r)) = (timing, report) {
                        side.pipeline_hazard_cycles +=
                            r.cycles.category(CycleCategory::HazardStall);
                    }
                }
            }
        }
    }

    cpu_probes(tr);

    // gen: two scenarios per policy.
    let scenarios: Vec<_> = SchedulingPolicy::ALL
        .iter()
        .enumerate()
        .flat_map(|(i, &p)| {
            let timing = TimingKind::ALL[i % 2];
            [
                scenario(seed ^ 0x6E1, p, timing, 2 * i as u64),
                scenario(seed ^ 0x6E1, p, timing, 2 * i as u64 + 1),
            ]
        })
        .collect();
    farm_pass(tr, &scenarios, None, ck);

    // sweep: serializer, journal, and the engine's per-job overhead on
    // jobs whose reports are already computed.
    let done: Vec<(JobKey, RunReport)> =
        reports.iter().filter_map(|(k, r)| r.clone().map(|r| (k.clone(), r))).collect();
    for (_, report) in &done {
        let json = tr.span("sweep.encode", || report_to_json(report));
        let back = tr.span("sweep.decode", || report_from_json(&json));
        ck.check(back.as_ref().is_ok_and(|b| b == report), || {
            "report decode(encode) != report".into()
        });
    }
    if let Ok(journal) = SweepJournal::create(dir.join("journal.jsonl")) {
        for (key, report) in done.iter().take(32) {
            let record = JobRecord {
                id: key.id(),
                key: key.canonical(),
                label: key.label(),
                cache_hit: false,
                wall_ms: 0.0,
                total_cycles: report.total_cycles(),
            };
            let open = tr.begin("sweep.journal_append");
            let appended = journal.append_job(&record, report);
            tr.end(open);
            ck.check(appended.is_ok(), || "journal append failed".into());
        }
    }
    let jobs: Vec<Job> = done
        .iter()
        .map(|(key, report)| {
            let report = report.clone();
            Job::new(key.clone(), move || Ok(report.clone()))
        })
        .collect();
    let overhead_dir = dir.join("overhead-cache");
    let ops = jobs.len() as u64;
    let cold = engine(&overhead_dir, PASS_WORKERS);
    let open = tr.begin_ops("sweep.run_jobs#cold", ops);
    black_box(cold.run_jobs(&jobs));
    tr.end(open);
    let warm = engine(&overhead_dir, PASS_WORKERS);
    let open = tr.begin_ops("sweep.run_jobs#warm", ops);
    black_box(warm.run_jobs(&jobs));
    tr.end(open);
    side.warm_hits += warm.summary().cache_hits;
    side.warm_jobs += jobs.len();
}

/// One traced pass's products.
struct PassRun {
    tracer: Tracer,
    wall_s: f64,
    pass_side: Side,
    kit_side: Side,
    pass: Pass,
    keyed: Keyed,
}

/// Runs one full traced pass (layer pass, then kit) in `dir`.
fn traced_pass(
    config: &RunConfig,
    inputs: &Inputs,
    enabled: bool,
    run_id: u64,
    dir: &Path,
    ck: &mut Checks,
) -> PassRun {
    let _ = std::fs::remove_dir_all(dir);
    let cache = ResultCache::new(dir.join("cache"));
    let mut tr = Tracer::new(enabled, run_id);
    let (mut pass_side, mut kit_side) = (Side::default(), Side::default());
    let t0 = Instant::now();
    let root = tr.begin("run");
    let open = tr.begin("pass");
    let keyed = match config.workload {
        Workload::FifoReplay => fifo_pass(&mut tr, inputs, &cache, ck, &mut pass_side),
        Workload::WsDirect => ws_pass(&mut tr, inputs, &cache, ck, &mut pass_side),
        Workload::GenFarm => farm_pass(&mut tr, &inputs.scenarios, Some(&cache), ck),
    };
    // Warm: every stored report loads back identical.
    for (key, report) in &keyed {
        let loaded = tr.span("sweep.load", || cache.load(key));
        ck.check(report.is_some() && loaded == *report, || {
            format!("cache reload differs: {}", key.label())
        });
    }
    tr.end(open);
    let open = tr.begin("kit");
    kit(&mut tr, config.seed, &keyed, dir, ck, &mut kit_side);
    tr.end(open);
    tr.end(root);
    let wall_s = t0.elapsed().as_secs_f64();
    let _ = std::fs::remove_dir_all(dir);
    let mut pass = Pass::default();
    for (key, report) in &keyed {
        pass.reports.insert(key.canonical(), report.clone());
    }
    PassRun { tracer: tr, wall_s, pass_side, kit_side, pass, keyed }
}

/// The layer pass's side data of `run` when `has` holds for it, else
/// the kit's.
fn side_for(run: &PassRun, has: fn(&Side) -> bool) -> &Side {
    if has(&run.pass_side) {
        &run.pass_side
    } else {
        &run.kit_side
    }
}

/// Per-op samples (ns) of spans matching `name` inside the grouping
/// span `group` ("pass" or "kit") of every traced pass. A name with a
/// `#qualifier` matches exactly; a bare name matches every qualifier.
fn samples(runs: &[&PassRun], group: &str, name: &str) -> Vec<f64> {
    let mut out = Vec::new();
    for run in runs {
        let tr = &run.tracer;
        let Some(g) = tr.find(group) else { continue };
        for (i, s) in tr.spans().iter().enumerate() {
            let hit = if name.contains('#') { s.name == name } else { s.base() == name };
            if hit && tr.within(i, g) {
                out.push(s.ns() as f64 / s.ops as f64);
            }
        }
    }
    out
}

/// Samples from the layer pass when it has any, else from the kit.
fn pick(runs: &[&PassRun], name: &str) -> Vec<f64> {
    let from_pass = samples(runs, "pass", name);
    if from_pass.is_empty() {
        samples(runs, "kit", name)
    } else {
        from_pass
    }
}

/// Exact counts over the layer pass's reports: identical on every run
/// of the same seed, and unchanged by any speed-only change.
pub fn counts(reports: &[&RunReport]) -> Vec<(&'static str, &'static str, u64)> {
    let sum = |f: &dyn Fn(&RunReport) -> u64| reports.iter().map(|r| f(r)).sum::<u64>();
    vec![
        ("machine.saves", "count", sum(&|r| r.stats.saves_executed)),
        ("machine.restores", "count", sum(&|r| r.stats.restores_executed)),
        ("traps.overflow_traps", "count", sum(&|r| r.stats.overflow_traps)),
        ("traps.underflow_traps", "count", sum(&|r| r.stats.underflow_traps)),
        ("rt.context_switches", "count", sum(&|r| r.stats.context_switches)),
        (
            "rt.stream_waits",
            "count",
            sum(&|r| r.threads.iter().map(|t| t.blocked_on_read + t.blocked_on_write).sum()),
        ),
        (
            "machine.timing.hazard_cycles",
            "cycles",
            sum(&|r| r.cycles.category(CycleCategory::HazardStall)),
        ),
        ("machine.total_cycles", "cycles", sum(&RunReport::total_cycles)),
        ("sweep.jobs", "count", reports.len() as u64),
    ]
}

/// The layers self time is reported for, in report order.
pub const LAYERS: [&str; 8] =
    ["spell", "gen", "rt", "machine", "machine.timing", "traps", "sweep", "harness"];

/// Runs the traced measurement.
pub fn run(config: &RunConfig, work_dir: &Path) -> Outcome {
    let started = Instant::now();
    let inputs = Inputs::generate(config.workload, config.seed, config.size);
    let run_id = fnv1a(
        format!("{}|{}|{}", config.workload.name(), config.seed, std::process::id()).as_bytes(),
    );
    let mut ck = Checks::default();
    let mut traced: Vec<PassRun> = Vec::new();
    let mut untraced_s = Vec::new();
    let mut pair_s = Vec::new();
    loop {
        let t_pair = Instant::now();
        let k = pair_s.len();
        // Alternate which side runs first, so drift hits both alike.
        for enabled in if k % 2 == 0 { [false, true] } else { [true, false] } {
            let dir = work_dir.join(format!("pass-{k}-{}", u8::from(enabled)));
            let run = traced_pass(config, &inputs, enabled, run_id, &dir, &mut ck);
            if enabled {
                traced.push(run);
            } else {
                untraced_s.push(run.wall_s);
            }
        }
        pair_s.push(t_pair.elapsed().as_secs_f64());
        if started.elapsed().as_secs_f64() + median(&pair_s) > config.budget.as_secs_f64() {
            break;
        }
    }

    let last = traced.last().expect("at least one traced pass");
    if config.seed == DEFAULT_SEED && config.size == Size::STANDARD {
        let (got, want) = (last.pass.digest(), golden_digest(config.workload));
        ck.check(got == want, || format!("layer-pass digest {got} != golden {want}"));
    }
    let reports: Vec<&RunReport> = last.keyed.iter().filter_map(|(_, r)| r.as_ref()).collect();

    let runs: Vec<&PassRun> = traced.iter().collect();
    let mut metrics = Vec::new();
    let mut add = |name: &str, unit: &'static str, xs: &[f64]| {
        metrics.push(Measured {
            name: name.to_string(),
            unit,
            value: median(xs),
            spread: spread(xs),
        });
    };
    let ms = |xs: Vec<f64>| xs.into_iter().map(|x| x / 1e6).collect::<Vec<_>>();
    let us = |xs: Vec<f64>| xs.into_iter().map(|x| x / 1e3).collect::<Vec<_>>();

    add("spell.corpus_ms", "ms", &ms(pick(&runs, "spell.corpus")));
    add("spell.reference_ms", "ms", &ms(pick(&runs, "spell.reference")));
    add("gen.synthesize_us", "us", &us(pick(&runs, "gen.synthesize")));
    let bundle = ms(pick(&runs, "gen.bundle"));
    add("gen.bundle_ms", "ms", &bundle);
    let (tail_pct, tail_ms) = tail(&bundle);
    add("gen.bundle_ms.tail", "ms", &[tail_ms]);

    // rt and machine side data: the layer pass's when it ran any
    // direct cells (or replays), else the kit's.
    let sides: Vec<&Side> = runs.iter().map(|r| side_for(r, |s| s.direct_switches > 0)).collect();
    add("rt.direct_ms", "ms", &ms(pick(&runs, "rt.direct")));
    add("rt.record_ms", "ms", &ms(pick(&runs, "rt.record")));
    // Runtime handoff as direct over replay time of the same cell (the
    // replay does the direct run's machine work without the runtime), a
    // ratio so that timer noise cannot turn it negative; the difference
    // itself goes to the provenance record.
    let pairs: Vec<(f64, f64)> =
        sides.iter().flat_map(|s| s.direct_vs_replay_ns.iter().copied()).collect();
    add("rt.direct_over_replay", "ratio", &pairs.iter().map(|(d, r)| d / r).collect::<Vec<_>>());
    let handoff_ms = pairs.iter().map(|(d, r)| (d - r) / 1e6).collect::<Vec<_>>();
    let per = |f: &dyn Fn(&Side) -> f64| sides.iter().map(|s| f(s)).collect::<Vec<_>>();
    add(
        "rt.ns_per_sim_switch",
        "ns",
        &per(&|s| s.direct_ns as f64 / s.direct_switches.max(1) as f64),
    );
    add(
        "rt.os_vcsw_per_sim_switch",
        "ratio",
        &per(&|s| s.direct_usage.vcsw as f64 / s.direct_switches.max(1) as f64),
    );
    add(
        "rt.sys_cpu_share",
        "ratio",
        &per(&|s| s.direct_usage.sys_s / s.direct_usage.cpu_s().max(1e-9)),
    );

    add("machine.replay_ms", "ms", &ms(pick(&runs, "machine.replay")));
    let replay_sides: Vec<&Side> =
        runs.iter().map(|r| side_for(r, |s| s.replay_events > 0)).collect();
    add(
        "machine.ns_per_window_event",
        "ns",
        &replay_sides
            .iter()
            .map(|s| s.replay_ns as f64 / s.replay_events.max(1) as f64)
            .collect::<Vec<_>>(),
    );
    add("machine.save_ns", "ns", &pick(&runs, "machine.save"));
    add("machine.restore_ns", "ns", &pick(&runs, "machine.restore"));
    add("machine.switch_ns", "ns", &pick(&runs, "machine.switch"));
    for scheme in SchemeKind::ALL {
        let s = scheme.name();
        add(&format!("traps.overflow_ns.{s}"), "ns", &pick(&runs, &format!("traps.overflow#{s}")));
        add(
            &format!("traps.underflow_ns.{s}"),
            "ns",
            &pick(&runs, &format!("traps.underflow#{s}")),
        );
    }

    // machine.timing: the layer pass's replays when it replayed under
    // both backends (fifo-replay), else the kit's same-trace replays.
    let both = TimingKind::ALL
        .iter()
        .all(|t| !samples(&runs, "pass", &format!("machine.replay#{}", t.name())).is_empty());
    let timing_samples = |t: TimingKind| {
        if both {
            samples(&runs, "pass", &format!("machine.replay#{}", t.name()))
        } else {
            samples(&runs, "kit", &format!("machine.timing.replay#{}", t.name()))
        }
    };
    let (s20, pipe) =
        (ms(timing_samples(TimingKind::S20)), ms(timing_samples(TimingKind::Pipeline)));
    add("machine.timing.replay_ms.s20", "ms", &s20);
    add("machine.timing.replay_ms.pipeline", "ms", &pipe);
    let ratio = pipe.iter().sum::<f64>() / s20.iter().sum::<f64>().max(1e-12);
    add("machine.timing.pipeline_over_s20", "ratio", &[ratio]);

    add("sweep.key_us", "us", &us(pick(&runs, "sweep.key")));
    add("sweep.encode_us", "us", &us(pick(&runs, "sweep.encode")));
    add("sweep.decode_us", "us", &us(pick(&runs, "sweep.decode")));
    add("sweep.store_us", "us", &us(pick(&runs, "sweep.store")));
    add("sweep.load_us", "us", &us(pick(&runs, "sweep.load")));
    add("sweep.journal_append_us", "us", &us(pick(&runs, "sweep.journal_append")));
    add("sweep.cold_overhead_us_per_job", "us", &us(pick(&runs, "sweep.run_jobs#cold")));
    add("sweep.warm_overhead_us_per_job", "us", &us(pick(&runs, "sweep.run_jobs#warm")));
    let hit_ratio: Vec<f64> = runs
        .iter()
        .map(|r| r.kit_side.warm_hits as f64 / r.kit_side.warm_jobs.max(1) as f64)
        .collect();
    add("sweep.warm_hit_ratio", "ratio", &hit_ratio);

    // Hazard stalls exist only under `pipeline` timing; a workload whose
    // layer pass runs none (ws-direct) counts the kit's pipeline replays.
    let pass_pipelined = inputs.matrices.iter().any(|m| m.timing == TimingKind::Pipeline)
        || inputs.scenarios.iter().any(|sc| sc.timing == TimingKind::Pipeline);
    for (name, unit, mut value) in counts(&reports) {
        if name == "machine.timing.hazard_cycles" && !pass_pipelined {
            value = last.kit_side.pipeline_hazard_cycles;
        }
        add(name, unit, &[value as f64]);
    }

    // Self time per layer over each whole traced pass.
    let mut self_sum = Vec::new();
    for layer in LAYERS {
        let xs: Vec<f64> = runs
            .iter()
            .map(|r| r.tracer.layer_self_ns(0).get(layer).copied().unwrap_or(0) as f64 / 1e6)
            .collect();
        add(&format!("{layer}.self_ms"), "ms", &xs);
    }
    for r in &runs {
        let layers = r.tracer.layer_self_ns(0);
        self_sum.push(layers.values().sum::<u64>() as f64 / 1e6);
    }
    // Walls from `Instant`s around each whole pass, not from its spans,
    // so the self times above are checked against an independent clock.
    let traced_ms: Vec<f64> = runs.iter().map(|r| r.wall_s * 1e3).collect();
    let untraced_ms: Vec<f64> = untraced_s.iter().map(|s| s * 1e3).collect();
    add("trace.wall_ms", "ms", &traced_ms);
    add("trace.untraced_wall_ms", "ms", &untraced_ms);
    // Tracing overhead per traced/untraced pair (the two passes ran back
    // to back), as a ratio that noise cannot push below zero.
    let overhead: Vec<f64> = traced_ms.iter().zip(&untraced_ms).map(|(t, u)| t / u).collect();
    add("trace.overhead_ratio", "ratio", &overhead);
    let spans = runs.iter().map(|r| r.tracer.spans().len() as f64).collect::<Vec<_>>();
    add("trace.spans", "count", &spans);

    let extra = vec![
        ("rt_handoff_ms".to_string(), Value::Float(median(&handoff_ms))),
        ("trace_overhead_ms".to_string(), Value::Float(median(&traced_ms) - median(&untraced_ms))),
        ("gen_bundle_tail_percentile".to_string(), Value::Int(u64::from(tail_pct))),
        ("gen_bundle_samples".to_string(), Value::Int(bundle.len() as u64)),
        ("layer_self_sum_ms".to_string(), Value::Float(median(&self_sum))),
        (
            "spans".to_string(),
            Value::Str(format!(
                "{} spans in {} traced passes",
                spans.iter().sum::<f64>(),
                runs.len()
            )),
        ),
    ];
    Outcome {
        attempted: ck.attempted,
        failed: ck.failed,
        problems: ck.problems,
        metrics,
        iterations: runs.len(),
        jobs: last.keyed.len(),
        digest: last.pass.digest(),
        extra,
        spans_jsonl: Some(runs.iter().map(|r| r.tracer.to_jsonl()).collect()),
    }
}
