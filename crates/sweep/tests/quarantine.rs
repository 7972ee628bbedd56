//! Sweep-engine hardening: injected worker panics and unmasked
//! simulation faults must not abort the sweep — every other cell
//! completes, and the failures land in the quarantine section of the
//! artifact with their canonical keys. A hardened engine with no faults
//! must produce byte-identical records to the plain engine, and masked
//! simulation faults must too.

use regwin_core::{Behavior, Concurrency, Granularity, MatrixSpec};
use regwin_core::{CorpusSpec, SchedulingPolicy, SchemeKind};
use regwin_machine::TimingKind;
use regwin_rt::FaultPlan;
use regwin_sweep::{records_to_json, SweepConfig, SweepEngine};

fn spec() -> MatrixSpec {
    MatrixSpec {
        corpus: CorpusSpec::small(),
        behaviors: vec![Behavior::new(Concurrency::High, Granularity::Medium)],
        schemes: vec![SchemeKind::Sp],
        windows: vec![4, 6, 8, 12],
        policy: SchedulingPolicy::Fifo,
        timing: TimingKind::S20,
    }
}

fn hardened(plan: Option<FaultPlan>) -> SweepEngine {
    SweepEngine::with_config(SweepConfig { workers: 2, fault_plan: plan, ..SweepConfig::default() })
}

#[test]
fn injected_panic_and_unmasked_fault_quarantine_without_aborting_the_sweep() {
    let spec = spec();
    let clean = SweepEngine::quiet().run_matrix(&spec).unwrap();
    assert_eq!(clean.len(), 4);

    // Job sequence numbers follow cell order: seq 1 is the 6-window
    // cell. The spill failure fires in every cell that reaches its
    // 2501st backing-store spill: the 4- and 8-window cells do, the
    // 12-window cell finishes first.
    let plan = FaultPlan::parse("panic@1,spill-fail@2500").unwrap();
    let engine = hardened(Some(plan));
    let records = engine.run_matrix(&spec).unwrap();

    // The healthy cell completed and matches the clean run exactly.
    assert_eq!(
        records.iter().map(|r| r.nwindows).collect::<Vec<_>>(),
        vec![12],
        "only the faulted cells may be missing"
    );
    for record in &records {
        let reference = clean.iter().find(|c| c.nwindows == record.nwindows).unwrap();
        assert_eq!(record.report, reference.report);
    }

    // Every failure is quarantined after a single attempt, with its
    // reason, canonical key and detail.
    let mut quarantine = engine.quarantine();
    quarantine.sort_by(|a, b| a.key.cmp(&b.key));
    let found: Vec<(&str, &str)> = quarantine
        .iter()
        .map(|q| (q.reason, q.key.split('|').find(|f| f.starts_with("w=")).unwrap()))
        .collect();
    assert_eq!(found, vec![("error", "w=4"), ("panic", "w=6"), ("error", "w=8")]);
    for q in &quarantine {
        assert_eq!(q.attempts, 1, "{}", q.key);
        let want = if q.reason == "panic" {
            "injected worker panic"
        } else {
            "injected fault at spill event 2500"
        };
        assert!(q.detail.contains(want), "{}: {}", q.key, q.detail);
    }
    assert_eq!(engine.summary().quarantined, 3);

    // The artifact carries the quarantine section.
    let artifact = engine.artifact_value();
    assert_eq!(artifact.get("quarantined").unwrap().as_u64(), Some(3));
    assert_eq!(artifact.get("quarantine").unwrap().as_arr().unwrap().len(), 3);
}

#[test]
fn hardened_engine_without_faults_is_byte_identical_to_plain() {
    let spec = spec();
    let plain = SweepEngine::quiet().run_matrix(&spec).unwrap();
    let engine = hardened(None);
    let guarded = engine.run_matrix(&spec).unwrap();
    assert_eq!(records_to_json(&plain), records_to_json(&guarded));
    assert!(engine.quarantine().is_empty());
    assert_eq!(engine.summary().quarantined, 0);
}

#[test]
fn masked_simulation_faults_leave_records_byte_identical() {
    let spec = spec();
    let plain = SweepEngine::quiet().run_matrix(&spec).unwrap();
    let plan = FaultPlan::parse("spill-corrupt@0,fill-corrupt@1").unwrap().with_seed(7);
    assert!(plan.events().iter().all(|e| e.kind.is_masked()));
    let engine = hardened(Some(plan));
    let records = engine.run_matrix(&spec).unwrap();
    assert_eq!(records_to_json(&plain), records_to_json(&records));
    assert!(engine.quarantine().is_empty());
}

#[test]
fn unmasked_simulation_faults_quarantine_with_reason_error() {
    let spec = MatrixSpec { windows: vec![4], ..spec() };
    let plan = FaultPlan::parse("spill-fail@0").unwrap();
    let engine = hardened(Some(plan));
    let records = engine.run_matrix(&spec).unwrap();
    assert!(records.is_empty(), "the only cell must be quarantined");
    let quarantine = engine.quarantine();
    assert_eq!(quarantine.len(), 1);
    assert_eq!(quarantine[0].reason, "error");
    assert!(
        quarantine[0].detail.contains("injected fault at spill event 0"),
        "{}",
        quarantine[0].detail
    );
}

#[test]
fn fault_plans_bypass_the_cache_entirely() {
    let dir = std::env::temp_dir().join(format!("regwin-quarantine-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let spec = MatrixSpec { windows: vec![4], ..spec() };

    // Seed the cache with clean results.
    let warmup = SweepEngine::with_config(SweepConfig {
        cache_dir: Some(dir.clone()),
        ..SweepConfig::default()
    });
    warmup.run_matrix(&spec).unwrap();
    assert_eq!(warmup.summary().cache_misses, 1);

    // A faulted engine pointed at the same cache must neither read it
    // (the injection would be shadowed) nor write to it.
    let plan = FaultPlan::parse("spill-corrupt@0").unwrap();
    let engine = SweepEngine::with_config(SweepConfig {
        cache_dir: Some(dir.clone()),
        fault_plan: Some(plan),
        ..SweepConfig::default()
    });
    engine.run_matrix(&spec).unwrap();
    assert_eq!(engine.summary().cache_hits, 0, "fault runs must not read the cache");

    // And a later clean engine still hits the original entry.
    let clean = SweepEngine::with_config(SweepConfig {
        cache_dir: Some(dir.clone()),
        ..SweepConfig::default()
    });
    clean.run_matrix(&spec).unwrap();
    assert_eq!(clean.summary().cache_hits, 1);
    let _ = std::fs::remove_dir_all(&dir);
}
