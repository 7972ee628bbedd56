//! `regwin-perfbench`: the repository's benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <fifo-replay|ws-direct|gen-farm> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it measures the end-to-end metrics (set-up, cold
//! and warm pass wall time, throughput, CPU, peak RSS) over repeated
//! cold/warm iterations, each pass a process of its own pinned to one
//! CPU; with `--trace 1` it times each crate's layer from outside with
//! spans, on that same CPU (see `RATIONALE.md`). Either way it checks
//! the outputs, prints every metric with its unit, writes a provenance
//! record under `.perfbench/results/`, and ends standard output with
//! one JSON line: `{"correct", "attempted", "failed", "metrics"}`.
//! A failed check makes the exit status 1; bad arguments make it 2.
//!
//! Run from the repository root: inputs, caches and results all live
//! under `.perfbench/` there.

use regwin_perfbench::e2e::{self, RunConfig};
use regwin_perfbench::workload::{Size, Workload, DEFAULT_SEED};
use regwin_perfbench::{layers, report, sys};
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Where provenance records and span dumps go, relative to the
/// repository root the benchmark runs from.
const RESULTS_DIR: &str = ".perfbench/results";

/// Scratch space for result caches, removed when the run ends.
const WORK_DIR: &str = ".perfbench/work";

/// Parsed command line.
struct Args {
    config: RunConfig,
    trace: bool,
    /// `--pass`: run one pass on `--cache-dir` and print its
    /// measurements (the per-pass child process of the end-to-end run).
    pass: bool,
    cache_dir: Option<PathBuf>,
}

fn usage(problem: &str) -> ! {
    eprintln!("error: {problem}");
    eprintln!(
        "usage: regwin-perfbench --workload <{}> [--seed <n>] [--seconds <s>] [--trace <0|1>] \
         [--scale <x>]",
        Workload::ALL.map(Workload::name).join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut workload = None;
    let mut args = Args {
        config: RunConfig {
            workload: Workload::FifoReplay,
            seed: DEFAULT_SEED,
            budget: Duration::from_secs(10),
            size: Size::STANDARD,
            program: std::env::current_exe().unwrap_or_else(|e| {
                eprintln!("error: cannot locate this executable: {e}");
                std::process::exit(2)
            }),
        },
        trace: false,
        pass: false,
        cache_dir: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => {
                let v = value();
                workload = Some(
                    Workload::parse(&v).unwrap_or_else(|| usage(&format!("unknown workload {v}"))),
                );
            }
            "--seed" => {
                args.config.seed = value().parse().unwrap_or_else(|_| usage("--seed needs a u64"));
            }
            "--seconds" => {
                let s: f64 = value().parse().unwrap_or_else(|_| usage("--seconds needs a number"));
                if !(s.is_finite() && s > 0.0) {
                    usage("--seconds must be positive");
                }
                args.config.budget = Duration::from_secs_f64(s);
            }
            "--trace" => {
                args.trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                };
            }
            "--scale" => {
                let s: f64 = value().parse().unwrap_or_else(|_| usage("--scale needs a number"));
                if !(s.is_finite() && s > 0.0 && s <= 10.0) {
                    usage("--scale must be in (0, 10]");
                }
                args.config.size = Size { scale: s };
            }
            "--pass" => args.pass = true,
            "--cache-dir" => args.cache_dir = Some(PathBuf::from(value())),
            other => usage(&format!("unknown flag {other}")),
        }
    }
    args.config.workload = workload.unwrap_or_else(|| usage("--workload is required"));
    args
}

fn main() {
    let args = parse_args();
    let config = &args.config;
    if args.pass || args.trace {
        // Measuring processes run on one CPU; the parent of the pass
        // processes only waits.
        let _ = sys::pin_to_one_cpu();
    }
    if args.pass {
        let dir = args.cache_dir.as_deref().unwrap_or_else(|| usage("--pass needs --cache-dir"));
        println!("{}", e2e::PassStats::measure(config, dir).to_json());
        return;
    }
    let work_dir =
        PathBuf::from(WORK_DIR).join(format!("{}-{}", config.workload.name(), std::process::id()));
    let outcome =
        if args.trace { layers::run(config, &work_dir) } else { e2e::run(config, &work_dir) };
    let _ = std::fs::remove_dir_all(&work_dir);

    report::print_metrics(&outcome);
    for problem in &outcome.problems {
        eprintln!("check failed: {problem}");
    }
    let provenance = report::provenance(config.workload, config.seed, args.trace, &outcome);
    let name = format!(
        "{}-seed{}-trace{}-{}",
        config.workload.name(),
        config.seed,
        u8::from(args.trace),
        std::process::id()
    );
    let results_dir = Path::new(RESULTS_DIR);
    let path = results_dir.join(format!("{name}.json"));
    let written = std::fs::create_dir_all(results_dir)
        .and_then(|()| std::fs::write(&path, provenance.to_json() + "\n"))
        .and_then(|()| match &outcome.spans_jsonl {
            Some(spans) => std::fs::write(results_dir.join(format!("{name}.spans.jsonl")), spans),
            None => Ok(()),
        });
    match written {
        Ok(()) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
    }
    println!("{}", report::result_line(&outcome));
    if outcome.failed > 0 {
        std::process::exit(1);
    }
}
