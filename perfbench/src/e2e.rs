//! The end-to-end measurement (`--trace 0`): repeated iterations of a
//! cold pass into a fresh cache directory followed by warm passes
//! against that cache, with tracing off. Each metric is the median over
//! its samples.
//!
//! Every pass runs in a process of its own, as each `repro-*`
//! invocation does: the process sets up (generates the inputs, builds
//! the engine), runs the pass, and reports its own set-up time, pass
//! wall time, CPU time and peak RSS. A fresh process per pass also keeps
//! one pass's heap state from leaking into the next one's timing.

use crate::report::{golden_digest, Measured, Outcome};
use crate::stats::{median, spread};
use crate::sys;
use crate::workload::{engine, run_pass, Inputs, Size, Workload, DEFAULT_SEED};
use regwin_sweep::fnv1a;
use regwin_sweep::json::{obj, parse, Value};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Iterations every run makes, however short `--seconds` is.
const MIN_ITERATIONS: usize = 3;

/// Sweep workers of every engine the benchmark builds. A pass runs on
/// one CPU (see [`crate::sys::pin_to_one_cpu`]) with one worker, so its
/// wall time is the pipeline's own cost: with a worker per CPU, every
/// simulated-thread handoff could wake a thread on another CPU, and on
/// a shared host that wake-up latency swamps the work.
pub const PASS_WORKERS: usize = 1;

/// Warm passes per iteration: a warm pass is short, so several samples
/// per iteration keep its median steady.
const WARM_REPEATS: usize = 3;

/// What one run is asked to do.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// The workload.
    pub workload: Workload,
    /// The input seed.
    pub seed: u64,
    /// Measuring budget: no iteration starts that is expected to end
    /// past it (after the first [`MIN_ITERATIONS`]).
    pub budget: Duration,
    /// Input size.
    pub size: Size,
    /// The `regwin-perfbench` executable each pass process runs.
    pub program: PathBuf,
}

/// What one pass process measured and produced.
#[derive(Debug, Clone, PartialEq)]
pub struct PassStats {
    /// Input generation plus engine construction, in s.
    pub setup_s: f64,
    /// The pass's wall time, in s.
    pub wall_s: f64,
    /// User + sys CPU of the pass (all threads), in s.
    pub cpu_s: f64,
    /// The process's peak RSS, in MB.
    pub peak_rss_mb: f64,
    /// Jobs served from the cache.
    pub hits: u64,
    /// Simulated cycles over every report.
    pub sim_cycles: u64,
    /// Jobs that produced no report.
    pub failed: u64,
    /// Output digest over every job, in key order.
    pub digest: String,
    /// One hash per job (key and serialized report), in key order.
    pub job_hashes: Vec<String>,
}

impl PassStats {
    /// Sets up and runs one pass of `config`'s job set in this process,
    /// with `cache_dir` as the result cache.
    pub fn measure(config: &RunConfig, cache_dir: &Path) -> PassStats {
        let t0 = Instant::now();
        let inputs = Inputs::generate(config.workload, config.seed, config.size);
        let engine = engine(cache_dir, PASS_WORKERS);
        let setup_s = t0.elapsed().as_secs_f64();
        let u0 = sys::usage();
        let t0 = Instant::now();
        let pass = run_pass(&engine, &inputs);
        let wall_s = t0.elapsed().as_secs_f64();
        let cpu_s = sys::usage().since(&u0).cpu_s();
        let job_hashes = pass
            .serialized()
            .iter()
            .map(|(key, json)| {
                let text = format!("{key}\n{}", json.as_deref().unwrap_or("<failed>"));
                format!("{:016x}", fnv1a(text.as_bytes()))
            })
            .collect();
        PassStats {
            setup_s,
            wall_s,
            cpu_s,
            peak_rss_mb: sys::peak_rss_mb(),
            hits: engine.summary().cache_hits as u64,
            sim_cycles: pass.sim_cycles(),
            failed: pass.failed() as u64,
            digest: pass.digest(),
            job_hashes,
        }
    }

    /// The one-line JSON a pass process prints.
    pub fn to_json(&self) -> String {
        obj(vec![
            ("setup_s", Value::Float(self.setup_s)),
            ("wall_s", Value::Float(self.wall_s)),
            ("cpu_s", Value::Float(self.cpu_s)),
            ("peak_rss_mb", Value::Float(self.peak_rss_mb)),
            ("hits", Value::Int(self.hits)),
            ("sim_cycles", Value::Int(self.sim_cycles)),
            ("failed", Value::Int(self.failed)),
            ("digest", Value::Str(self.digest.clone())),
            ("job_hashes", Value::Arr(self.job_hashes.iter().cloned().map(Value::Str).collect())),
        ])
        .to_json()
    }

    /// Parses [`PassStats::to_json`] output.
    pub fn from_json(text: &str) -> Option<PassStats> {
        let v = parse(text).ok()?;
        let f = |k: &str| v.get(k).and_then(Value::as_f64);
        let n = |k: &str| v.get(k).and_then(Value::as_u64);
        Some(PassStats {
            setup_s: f("setup_s")?,
            wall_s: f("wall_s")?,
            cpu_s: f("cpu_s")?,
            peak_rss_mb: f("peak_rss_mb")?,
            hits: n("hits")?,
            sim_cycles: n("sim_cycles")?,
            failed: n("failed")?,
            digest: v.get("digest")?.as_str()?.to_string(),
            job_hashes: v
                .get("job_hashes")?
                .as_arr()?
                .iter()
                .map(|h| h.as_str().map(str::to_string))
                .collect::<Option<_>>()?,
        })
    }
}

/// Runs one pass in a child process and waits for it.
fn spawn_pass(config: &RunConfig, cache_dir: &Path) -> Result<PassStats, String> {
    let output = Command::new(&config.program)
        .arg("--pass")
        .args(["--workload", config.workload.name()])
        .args(["--seed", &config.seed.to_string()])
        .args(["--scale", &config.size.scale.to_string()])
        .arg("--cache-dir")
        .arg(cache_dir)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run {}: {e}", config.program.display()))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    match stdout.lines().last().and_then(PassStats::from_json) {
        Some(stats) if output.status.success() => Ok(stats),
        _ => Err(format!("pass process failed ({})", output.status)),
    }
}

/// Per-pass samples of every end-to-end metric.
#[derive(Debug, Default)]
struct Samples {
    setup_s: Vec<f64>,
    cold_wall_s: Vec<f64>,
    warm_wall_s: Vec<f64>,
    jobs_per_s: Vec<f64>,
    sim_mcycles_per_s: Vec<f64>,
    cpu_s: Vec<f64>,
    peak_rss_mb: Vec<f64>,
}

impl Samples {
    /// Every sample, for the provenance record.
    fn to_value(&self) -> Value {
        let arr = |xs: &[f64]| Value::Arr(xs.iter().map(|&x| Value::Float(x)).collect());
        obj(vec![
            ("setup_s", arr(&self.setup_s)),
            ("cold_wall_s", arr(&self.cold_wall_s)),
            ("warm_wall_s", arr(&self.warm_wall_s)),
            ("jobs_per_s", arr(&self.jobs_per_s)),
            ("sim_mcycles_per_s", arr(&self.sim_mcycles_per_s)),
            ("cpu_s", arr(&self.cpu_s)),
            ("peak_rss_mb", arr(&self.peak_rss_mb)),
        ])
    }
}

/// Checks one iteration's cold pass against its warm passes and, where
/// one applies, against the golden digest. Returns the failed-job count
/// and each problem.
pub fn check_passes(
    config: &RunConfig,
    cold: &PassStats,
    warms: &[PassStats],
) -> (usize, Vec<String>) {
    let mut failed = cold.failed as usize;
    let mut problems = Vec::new();
    if failed > 0 {
        problems.push(format!("{failed} cold job(s) produced no report"));
    }
    for warm in warms {
        let jobs = warm.job_hashes.len();
        let mismatched = cold.job_hashes.iter().zip(&warm.job_hashes).filter(|(c, w)| c != w);
        let mismatched = mismatched.count() + cold.job_hashes.len().abs_diff(jobs);
        let misses = jobs.saturating_sub(warm.hits as usize);
        if mismatched + misses > 0 {
            failed += mismatched + misses;
            problems.push(format!(
                "warm pass: {mismatched} report(s) differ from the cold pass, \
                 {misses} job(s) missed the cache"
            ));
        }
    }
    if config.seed == DEFAULT_SEED && config.size == Size::STANDARD {
        let want = golden_digest(config.workload);
        if cold.digest != want {
            failed += 1;
            problems.push(format!("cold digest {} != golden {want}", cold.digest));
        }
    }
    (failed, problems)
}

/// Runs the end-to-end measurement, using `work_dir` for cache
/// directories (removed again before returning).
pub fn run(config: &RunConfig, work_dir: &Path) -> Outcome {
    let started = Instant::now();
    let mut samples = Samples::default();
    let mut outcome = Outcome::default();
    let mut iteration_s = Vec::new();
    loop {
        let t_iter = Instant::now();
        let cache_dir = work_dir.join(format!("iter-{}", iteration_s.len()));
        let _ = std::fs::remove_dir_all(&cache_dir);
        let passes: Result<Vec<PassStats>, String> =
            (0..=WARM_REPEATS).map(|_| spawn_pass(config, &cache_dir)).collect();
        let _ = std::fs::remove_dir_all(&cache_dir);
        let passes = match passes {
            Ok(passes) => passes,
            Err(problem) => {
                // A crashed pass process: nothing to measure.
                outcome.attempted += 1;
                outcome.failed += 1;
                outcome.problems.push(problem);
                break;
            }
        };
        let (cold, warms) = passes.split_first().expect("a cold pass and its warm passes");
        let jobs = cold.job_hashes.len();
        samples.setup_s.extend(passes.iter().map(|p| p.setup_s));
        samples.cold_wall_s.push(cold.wall_s);
        samples.warm_wall_s.extend(warms.iter().map(|p| p.wall_s));
        samples.jobs_per_s.push(jobs as f64 / cold.wall_s);
        samples.sim_mcycles_per_s.push(cold.sim_cycles as f64 / 1e6 / cold.wall_s);
        samples.cpu_s.push(cold.cpu_s);
        samples.peak_rss_mb.push(cold.peak_rss_mb);

        let (failed, problems) = check_passes(config, cold, warms);
        outcome.attempted += jobs * passes.len();
        outcome.failed += failed;
        outcome.problems.extend(problems);
        outcome.jobs = jobs;
        outcome.digest = cold.digest.clone();

        iteration_s.push(t_iter.elapsed().as_secs_f64());
        let next_ends = started.elapsed().as_secs_f64() + median(&iteration_s);
        if iteration_s.len() >= MIN_ITERATIONS && next_ends > config.budget.as_secs_f64() {
            break;
        }
    }

    let measured = |name: &str, unit: &'static str, xs: &[f64]| Measured {
        name: name.to_string(),
        unit,
        value: median(xs),
        spread: spread(xs),
    };
    outcome.metrics = vec![
        measured("setup_s", "s", &samples.setup_s),
        measured("cold_wall_s", "s", &samples.cold_wall_s),
        measured("warm_wall_s", "s", &samples.warm_wall_s),
        measured("jobs_per_s", "jobs/s", &samples.jobs_per_s),
        measured("sim_mcycles_per_s", "Mcycles/s", &samples.sim_mcycles_per_s),
        measured("cpu_s", "s", &samples.cpu_s),
        measured("peak_rss_mb", "MB", &samples.peak_rss_mb),
    ];
    outcome.iterations = iteration_s.len();
    outcome.extra = vec![("samples".to_string(), samples.to_value())];
    outcome
}
