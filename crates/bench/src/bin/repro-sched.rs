//! Scheduling-policy frontier: the high-concurrency sweep of Figures
//! 11–13 executed once per shipped [`SchedulingPolicy`], so every
//! scheme × policy cell runs under the `regwin-sweep` engine
//! (content-addressed cache, worker pool, quarantine). The summary —
//! execution cycles per (policy, scheme, granularity, window count)
//! plus the per-series winning policy at each window count — is written
//! to the deterministic `BENCH_sched.json` artifact.
//!
//! Every number derives purely from simulated cycles, so the file is
//! byte-identical across `--jobs` counts, cache states and machines.
//!
//! Accepts the common repro flags (`--scale`, `--quick`, `--out <dir>`,
//! `--jobs`, `--cache-dir`/`--no-cache`, ...); `--policy` is ignored
//! here because this binary always sweeps every policy.

use regwin_bench::Args;
use regwin_core::figures::Sweep;
use regwin_core::report::Series;
use regwin_rt::SchedulingPolicy;
use regwin_sweep::json::{obj, Value};
use regwin_sweep::write_file_atomic;
use std::path::PathBuf;

fn main() {
    let args = Args::parse();
    let engine = args.engine();
    let windows = args.windows();

    // One high-concurrency sweep per policy; each policy's quarantine
    // count is the growth of the engine's quarantine list across its
    // matrix.
    let mut per_policy: Vec<(SchedulingPolicy, Vec<Series>)> = Vec::new();
    for policy in SchedulingPolicy::ALL {
        eprintln!("{policy} policy sweep ({}% corpus)...", args.scale);
        let before = engine.quarantine().len();
        let records = engine
            .run_matrix(&Sweep::high_spec(args.corpus(), &windows, policy).with_timing(args.timing))
            .unwrap_or_else(|e| {
                eprintln!("error: {policy} sweep failed: {e}");
                std::process::exit(1);
            });
        let jobs = records.len();
        let quarantined = engine.quarantine().len() - before;
        // The per-policy health line sched-smoke CI greps for.
        println!("policy {policy}: {jobs} runs, {quarantined} quarantined");
        per_policy.push((policy, Sweep::from_records(records).execution_time_series()));
    }

    // Frontier: for every (scheme, granularity) series and window
    // count, the policy with the fewest execution cycles.
    let labels: Vec<String> = per_policy[0].1.iter().map(|s| s.label.clone()).collect();
    let mut frontier_rows = Vec::new();
    println!("\n{:<14} {:>4}  {:<12} {:>14}", "series", "w", "best policy", "cycles");
    for label in &labels {
        for &w in &windows {
            let mut best: Option<(SchedulingPolicy, f64)> = None;
            for (policy, series) in &per_policy {
                let Some(cycles) = cycles_at(series, label, w) else { continue };
                // Strict `<` keeps the first (canonical-order) policy on
                // ties, so the winner column is deterministic.
                if best.is_none_or(|(_, b)| cycles < b) {
                    best = Some((*policy, cycles));
                }
            }
            let Some((policy, cycles)) = best else { continue };
            println!("{label:<14} {w:>4}  {:<12} {cycles:>14.0}", policy.name());
            frontier_rows.push(obj(vec![
                ("series", Value::Str(label.clone())),
                ("nwindows", Value::Int(w as u64)),
                ("best_policy", Value::Str(policy.name().to_string())),
                ("cycles", Value::Int(cycles as u64)),
            ]));
        }
    }

    let policy_rows = per_policy
        .iter()
        .map(|(policy, series)| {
            obj(vec![
                ("policy", Value::Str(policy.name().to_string())),
                (
                    "series",
                    Value::Arr(
                        series
                            .iter()
                            .map(|s| {
                                obj(vec![
                                    ("label", Value::Str(s.label.clone())),
                                    (
                                        "points",
                                        Value::Arr(
                                            s.points
                                                .iter()
                                                .map(|&(w, cycles)| {
                                                    obj(vec![
                                                        ("nwindows", Value::Int(w as u64)),
                                                        ("cycles", Value::Int(cycles as u64)),
                                                    ])
                                                })
                                                .collect(),
                                        ),
                                    ),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ])
        })
        .collect();

    let doc = obj(vec![
        ("schema", Value::Int(1)),
        ("kind", Value::Str("sched_policy_frontier".to_string())),
        ("quick", Value::Bool(args.quick)),
        ("scale_pct", Value::Int(args.scale as u64)),
        ("windows", Value::Arr(windows.iter().map(|&w| Value::Int(w as u64)).collect())),
        (
            "policies",
            Value::Arr(
                SchedulingPolicy::ALL.iter().map(|p| Value::Str(p.name().to_string())).collect(),
            ),
        ),
        ("rows", Value::Arr(policy_rows)),
        ("frontier", Value::Arr(frontier_rows)),
    ]);
    let path = args.out_dir.clone().unwrap_or_else(|| PathBuf::from(".")).join("BENCH_sched.json");
    if let Some(dir) = &args.out_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("error: cannot create {}: {e}", dir.display());
            std::process::exit(1);
        }
    }
    match write_file_atomic(&path, &(doc.to_json() + "\n")) {
        Ok(()) => eprintln!("wrote {}", path.display()),
        Err(e) => {
            eprintln!("error: cannot write {}: {e}", path.display());
            std::process::exit(1);
        }
    }
    args.finish(&engine);
}

/// The cycle count of `label`'s series at window count `w`, if present.
fn cycles_at(series: &[Series], label: &str, w: usize) -> Option<f64> {
    series
        .iter()
        .find(|s| s.label == label)?
        .points
        .iter()
        .find(|&&(pw, _)| pw == w)
        .map(|&(_, c)| c)
}
