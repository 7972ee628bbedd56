//! Result assembly: the human-readable metric lines, the provenance
//! record written under the results directory, and the one-line JSON
//! result that ends standard output.

use crate::e2e::PASS_WORKERS;
use crate::sys;
use crate::workload::Workload;
use regwin_sweep::json::{obj, Value};
use std::path::Path;

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Measured {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// The reported value (a median where there are several samples).
    pub value: f64,
    /// Interquartile range over the samples as a share of the median
    /// (0 for single-sample metrics and exact counts).
    pub spread: f64,
}

/// Everything one run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Jobs (or checked operations) attempted.
    pub attempted: usize,
    /// Jobs that failed or failed an output check.
    pub failed: usize,
    /// One line per failed check.
    pub problems: Vec<String>,
    /// The metrics, in report order.
    pub metrics: Vec<Measured>,
    /// Measurement iterations (end-to-end) or traced passes (layers).
    pub iterations: usize,
    /// Jobs in the workload's job set.
    pub jobs: usize,
    /// Output digest of the last cold pass.
    pub digest: String,
    /// Extra provenance fields specific to the mode.
    pub extra: Vec<(String, Value)>,
    /// The traced run's spans, one JSON object per line.
    pub spans_jsonl: Option<String>,
}

impl Outcome {
    /// Failed jobs per attempted job.
    pub fn fail_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// The golden cold-pass digest of `workload` at the default seed and
/// standard size, from `golden.txt`.
pub fn golden_digest(workload: Workload) -> String {
    include_str!("../golden.txt")
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| l.split_once(' '))
        .find(|(name, _)| *name == workload.name())
        .map(|(_, digest)| digest.trim().to_string())
        .unwrap_or_default()
}

/// The run's provenance: what was measured, where, and how often.
pub fn provenance(workload: Workload, seed: u64, trace: bool, outcome: &Outcome) -> Value {
    let root = Path::new(".");
    let spreads: Vec<(&str, Value)> =
        outcome.metrics.iter().map(|m| (m.name.as_str(), Value::Float(m.spread))).collect();
    let mut fields = vec![
        ("benchmark", Value::Str("regwin-perfbench".to_string())),
        ("workload", Value::Str(workload.name().to_string())),
        ("trace", Value::Bool(trace)),
        ("seed", Value::Int(seed)),
        ("git_revision", Value::Str(sys::git_revision(root))),
        ("source_digest", Value::Str(sys::source_digest(root, &["crates", "shims", "perfbench"]))),
        ("nproc", Value::Int(sys::nproc() as u64)),
        ("cpu_model", Value::Str(sys::cpu_model())),
        ("workers", Value::Int(PASS_WORKERS as u64)),
        (
            "pinned_cpu",
            sys::measuring_cpu().map_or(Value::Str("none".to_string()), |c| Value::Int(c as u64)),
        ),
        ("runs", Value::Int(outcome.iterations as u64)),
        ("jobs", Value::Int(outcome.jobs as u64)),
        ("digest", Value::Str(outcome.digest.clone())),
        (
            "metrics",
            obj(outcome
                .metrics
                .iter()
                .map(|m| {
                    (
                        m.name.as_str(),
                        obj(vec![
                            ("value", Value::Float(m.value)),
                            ("unit", Value::Str(m.unit.into())),
                        ]),
                    )
                })
                .collect()),
        ),
        ("fail_ratio", Value::Float(outcome.fail_ratio())),
        ("spread", obj(spreads)),
    ];
    for (k, v) in &outcome.extra {
        fields.push((k.as_str(), v.clone()));
    }
    obj(fields)
}

/// The final stdout line: exactly `correct`, `attempted`, `failed` and
/// `metrics`.
pub fn result_line(outcome: &Outcome) -> String {
    let metrics: Vec<(&str, Value)> = outcome
        .metrics
        .iter()
        .map(|m| {
            (
                m.name.as_str(),
                obj(vec![("value", Value::Float(m.value)), ("unit", Value::Str(m.unit.into()))]),
            )
        })
        .collect();
    obj(vec![
        ("correct", Value::Bool(outcome.failed == 0)),
        ("attempted", Value::Int(outcome.attempted.max(1) as u64)),
        ("failed", Value::Int(outcome.failed as u64)),
        ("metrics", obj(metrics)),
    ])
    .to_json()
}

/// Prints every metric by name with its unit (and the failure ratio),
/// one per line.
pub fn print_metrics(outcome: &Outcome) {
    for m in &outcome.metrics {
        println!("{:<40} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!("{:<40} {:>16.6} ratio", "fail_ratio", outcome.fail_ratio());
}
