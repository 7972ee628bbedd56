//! Multi-client cache-sharing torture tests: several engines hammer one
//! cache directory with overlapping keys — concurrently, and with a
//! vandal corrupting entries mid-flight — and every client must still
//! produce a byte-identical deterministic artifact, with zero
//! good-entries destroyed. Each engine journals to its own path, which
//! is what makes its artifact deterministic (independent of cache
//! state and timing).

use regwin_core::{Behavior, Concurrency, Granularity, MatrixSpec};
use regwin_machine::{SchemeKind, TimingKind};
use regwin_rt::SchedulingPolicy;
use regwin_spell::CorpusSpec;
use regwin_sweep::{JobKey, ResultCache, SweepConfig, SweepEngine};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};

fn shared_spec() -> MatrixSpec {
    MatrixSpec {
        corpus: CorpusSpec::small(),
        behaviors: vec![
            Behavior::new(Concurrency::High, Granularity::Medium),
            Behavior::new(Concurrency::Low, Granularity::Fine),
        ],
        schemes: vec![SchemeKind::Ns, SchemeKind::Sp],
        windows: vec![4, 8],
        policy: SchedulingPolicy::Fifo,
        timing: TimingKind::S20,
    }
}

fn spec_keys(spec: &MatrixSpec) -> Vec<JobKey> {
    let mut keys = Vec::new();
    for &behavior in &spec.behaviors {
        for &scheme in &spec.schemes {
            for &w in &spec.windows {
                keys.push(JobKey::for_cell(spec, behavior, scheme, w));
            }
        }
    }
    keys
}

/// A journaled (hence deterministic-artifact) engine config with two
/// workers, journaling to `journal` and caching in `cache` if given.
fn client_config(journal: &Path, cache: Option<&Path>) -> SweepConfig {
    let builder = SweepConfig::builder().journal(journal).workers(2);
    match cache {
        Some(dir) => builder.cache_dir(dir),
        None => builder,
    }
    .build()
    .unwrap()
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("regwin-multi-client-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn n_clients_hammering_one_cache_dir_agree_byte_for_byte() {
    const CLIENTS: usize = 4;
    let dir = tmpdir("hammer");
    let journals = tmpdir("hammer-journals");
    let spec = shared_spec();

    // The ground truth: a lone cold engine with no cache at all.
    let reference =
        SweepEngine::with_config(client_config(&journals.join("reference.jsonl"), None));
    reference.run_matrix(&spec).unwrap();
    let want_artifact = reference.artifact_value().to_json();
    let want_trace = reference.trace_string();

    // N clients over one shared cache dir, all sweeping the same (fully
    // overlapping) key set concurrently.
    let artifacts: Vec<(String, String, usize)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|client| {
                let (dir, journals, spec) = (&dir, &journals, &spec);
                scope.spawn(move || {
                    let journal = journals.join(format!("client-{client}.jsonl"));
                    let engine = SweepEngine::with_config(client_config(&journal, Some(dir)));
                    engine.run_matrix(spec).unwrap();
                    (
                        engine.artifact_value().to_json(),
                        engine.trace_string(),
                        engine.quarantine().len(),
                    )
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for (artifact, trace, quarantined) in &artifacts {
        assert_eq!(*quarantined, 0, "no client may quarantine");
        assert_eq!(artifact, &want_artifact, "every client must match the lone cold engine");
        assert_eq!(trace, &want_trace);
    }
    // Zero deleted-good-entry incidents: every key still hits.
    let cache = ResultCache::new(&dir);
    for key in spec_keys(&spec) {
        assert!(cache.load(&key).is_some(), "entry {} must survive the hammer", key.canonical());
    }
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&journals);
}

#[test]
fn a_vandal_corrupting_entries_mid_sweep_cannot_destroy_fresh_results() {
    let dir = tmpdir("vandal");
    let journals = tmpdir("vandal-journals");
    let spec = shared_spec();
    let keys = spec_keys(&spec);
    std::fs::create_dir_all(&dir).unwrap();

    let reference =
        SweepEngine::with_config(client_config(&journals.join("reference.jsonl"), None));
    reference.run_matrix(&spec).unwrap();
    let want_artifact = reference.artifact_value().to_json();

    // Two clients sweep while a vandal keeps scribbling garbage over
    // cache slots — every load that trips on garbage goes through the
    // reclaim path, which must never destroy a concurrently stored
    // fresh entry or corrupt a client's results.
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let vandal = {
            let (dir, keys, stop) = (&dir, &keys, &stop);
            scope.spawn(move || {
                let mut i = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    let key = &keys[i % keys.len()];
                    let _ = std::fs::write(dir.join(format!("{}.json", key.id())), "{vandal");
                    i += 1;
                    std::thread::sleep(std::time::Duration::from_micros(200));
                }
            })
        };
        let clients: Vec<_> = (0..2)
            .map(|client| {
                let (dir, journals, spec) = (&dir, &journals, &spec);
                scope.spawn(move || {
                    let journal = journals.join(format!("client-{client}.jsonl"));
                    let engine = SweepEngine::with_config(client_config(&journal, Some(dir)));
                    engine.run_matrix(spec).unwrap();
                    (engine.artifact_value().to_json(), engine.quarantine().len())
                })
            })
            .collect();
        for client in clients {
            let (artifact, quarantined) = client.join().unwrap();
            assert_eq!(quarantined, 0, "vandalism must never quarantine a client");
            assert_eq!(artifact, want_artifact, "vandalized cache must not change results");
        }
        stop.store(true, Ordering::Relaxed);
        vandal.join().unwrap();
    });

    // The dust settles: one more store of every key must stick (the
    // vandal's last scribbles may linger, but reclaim only ever deletes
    // invalid bytes, so a final sweep repopulates every slot).
    let repopulate = SweepEngine::with_config(
        SweepConfig::builder()
            .cache_dir(&dir)
            .journal(journals.join("repopulate.jsonl"))
            .build()
            .unwrap(),
    );
    repopulate.run_matrix(&spec).unwrap();
    let cache = ResultCache::new(&dir);
    for key in &keys {
        assert!(cache.load(key).is_some(), "slot {} must be whole again", key.canonical());
    }
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&journals);
}
