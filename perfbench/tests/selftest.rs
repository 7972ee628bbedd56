//! Self-tests of the benchmark, at a tiny input scale and a held-out
//! (non-default) seed:
//!
//! - every metric `BENCHMARK.json` declares comes out, with its unit, on
//!   every workload, and every output check passes;
//! - the deterministic counts repeat exactly across worker counts and
//!   between cold and warm passes;
//! - per-layer self times sum to the traced wall time, clocked apart from
//!   the spans.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use regwin_perfbench::e2e::{self, RunConfig};
use regwin_perfbench::layers::{self, counts, LAYERS};
use regwin_perfbench::report::{result_line, Outcome};
use regwin_perfbench::sys;
use regwin_perfbench::workload::{engine, run_pass, Inputs, Size, Workload, DEFAULT_SEED};
use regwin_sweep::json::{parse, Value};
use std::path::PathBuf;
use std::time::Duration;

const TINY: Size = Size { scale: 0.05 };
const SEED: u64 = 7;

fn config(workload: Workload) -> RunConfig {
    assert_ne!(SEED, DEFAULT_SEED, "self-tests run on a held-out seed");
    RunConfig {
        workload,
        seed: SEED,
        budget: Duration::from_millis(1),
        size: TINY,
        program: PathBuf::from(env!("CARGO_BIN_EXE_regwin-perfbench")),
    }
}

fn work_dir(test: &str, workload: Workload) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("{test}-{}", workload.name()))
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc = parse(&text).expect("BENCHMARK.json parses");
    let items = doc.get(section).and_then(Value::as_arr).expect("metric section");
    items
        .iter()
        .map(|m| {
            let field =
                |k: &str| m.get(k).and_then(Value::as_str).expect("name and unit").to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn reported(outcome: &Outcome) -> Vec<(String, String)> {
    outcome.metrics.iter().map(|m| (m.name.clone(), m.unit.to_string())).collect()
}

fn metric(outcome: &Outcome, name: &str) -> f64 {
    outcome.metrics.iter().find(|m| m.name == name).unwrap_or_else(|| panic!("{name}")).value
}

fn assert_clean(outcome: &Outcome, what: &str) {
    assert_eq!(outcome.failed, 0, "{what}: {:?}", outcome.problems);
    assert!(outcome.attempted > 0, "{what}");
    let line = parse(&result_line(outcome)).expect("result line is JSON");
    let keys: Vec<&str> = match &line {
        Value::Obj(pairs) => pairs.iter().map(|(k, _)| k.as_str()).collect(),
        _ => panic!("result line is an object"),
    };
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"], "{what}");
}

/// Every metric is a finite number above zero: none reads exactly 0 or
/// goes negative on a healthy run.
fn assert_positive(outcome: &Outcome, what: &str) {
    for m in &outcome.metrics {
        assert!(m.value.is_finite() && m.value > 0.0, "{what}: {} = {}", m.name, m.value);
    }
}

#[test]
fn every_declared_metric_is_reported_with_its_unit_on_every_workload() {
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    for workload in Workload::ALL {
        let e2e = e2e::run(&config(workload), &work_dir("smoke-e2e", workload));
        assert_clean(&e2e, workload.name());
        assert_eq!(reported(&e2e), end_to_end, "{}: end-to-end metrics", workload.name());
        assert_positive(&e2e, workload.name());

        let traced = layers::run(&config(workload), &work_dir("smoke-layers", workload));
        assert_clean(&traced, workload.name());
        assert_eq!(reported(&traced), per_layer, "{}: per-layer metrics", workload.name());
        assert_positive(&traced, workload.name());
    }
}

#[test]
fn counts_repeat_across_worker_counts_and_cache_states() {
    for workload in Workload::ALL {
        let inputs = Inputs::generate(workload, SEED, TINY);
        let dir = work_dir("counts", workload);
        let _ = std::fs::remove_dir_all(&dir);
        let counts_of = |workers: usize, sub: &str| {
            let engine = engine(&dir.join(sub), workers);
            let pass = run_pass(&engine, &inputs);
            assert_eq!(pass.failed(), 0, "{}", workload.name());
            let reports: Vec<_> = pass.reports.values().flatten().collect();
            (counts(&reports), pass.digest())
        };
        let serial_cold = counts_of(1, "serial");
        let serial_warm = counts_of(1, "serial");
        let parallel_cold = counts_of(sys::nproc().max(2), "parallel");
        assert_eq!(serial_cold, serial_warm, "{}: cold vs warm", workload.name());
        assert_eq!(serial_cold, parallel_cold, "{}: 1 vs n workers", workload.name());
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The stated tolerance: layer self times sum to the traced wall time
/// within 0.1%, and the benchmark's own glue (`harness`) stays under 5%
/// of it. `trace.wall_ms` is an `Instant` taken around the whole pass,
/// not a span, so time outside every span or a span counted twice
/// shows as a difference.
#[test]
fn layer_self_times_sum_to_the_traced_wall_time() {
    for workload in Workload::ALL {
        let traced = layers::run(&config(workload), &work_dir("selftime", workload));
        assert_clean(&traced, workload.name());
        assert_eq!(traced.iterations, 1, "one traced pass, so medians are that pass's values");
        let wall = metric(&traced, "trace.wall_ms");
        let sum: f64 = LAYERS.iter().map(|l| metric(&traced, &format!("{l}.self_ms"))).sum();
        assert!((sum - wall).abs() <= 1e-3 * wall + 1e-3, "{}: {sum} vs {wall}", workload.name());
        let harness = metric(&traced, "harness.self_ms");
        assert!(harness < 0.05 * wall, "{}: harness {harness} of {wall}", workload.name());
    }
}
