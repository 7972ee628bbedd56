//! The three benchmark workloads: their seeded inputs and one pass of
//! their job set through the sweep engine, by the same public entry
//! points the `repro-*` binaries use (`FigureId::spec` →
//! `SweepEngine::run_matrix`, and `Job::new(.., run_bundle)` →
//! `SweepEngine::run_jobs`).

use regwin_core::figures::FigureId;
use regwin_core::{MatrixSpec, RunRecord};
use regwin_gen::{run_bundle, Scenario, WorkloadSpec};
use regwin_machine::{SchemeKind, TimingKind};
use regwin_rt::{RunReport, SchedulingPolicy};
use regwin_spell::CorpusSpec;
use regwin_sweep::{fnv1a, report_to_json, Job, JobKey, SweepConfig, SweepEngine};
use std::collections::BTreeMap;
use std::path::Path;

/// The seed the golden digests in `golden.txt` were taken at.
pub const DEFAULT_SEED: u64 = 1;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// FIFO spell matrices (Fig 11 + Fig 14 cells) under both timing
    /// backends: one recorded trace per behaviour, every cell replayed.
    FifoReplay,
    /// The working-set Fig 15 matrix: every cell a direct run with one
    /// OS thread per simulated thread.
    WsDirect,
    /// Seeded generated scenarios × every policy × both timing
    /// backends, each job the `run_bundle` differential oracle.
    GenFarm,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [Workload::FifoReplay, Workload::WsDirect, Workload::GenFarm];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FifoReplay => "fifo-replay",
            Workload::WsDirect => "ws-direct",
            Workload::GenFarm => "gen-farm",
        }
    }

    /// Parses a command-line name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Input sizes, as a multiple of the benchmark's standard size (1.0).
/// Smaller scales keep the job structure (every behaviour, scheme,
/// window count, policy and timing backend) and shrink only the corpus
/// and the scenario count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Size {
    /// Multiplier on the standard size.
    pub scale: f64,
}

impl Size {
    /// The size benchmark runs use.
    pub const STANDARD: Size = Size { scale: 1.0 };

    /// Corpus of the FIFO matrices: 8% of the paper's document and
    /// dictionaries at the standard size.
    fn fifo_corpus_pct(self) -> f64 {
        8.0 * self.scale
    }

    /// Corpus of the working-set matrix: 2% of the paper's at the
    /// standard size (every cell is a full direct run).
    fn ws_corpus_pct(self) -> f64 {
        2.0 * self.scale
    }

    /// Generated scenarios per (policy × timing) combo.
    fn farm_per_combo(self) -> usize {
        ((80.0 * self.scale).round() as usize).max(1)
    }
}

/// The splitmix64 step the generator crates seed from.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A corpus of `pct`% of the paper's dimensions whose content seed
/// derives from the benchmark seed.
pub fn corpus_spec(seed: u64, pct: f64) -> CorpusSpec {
    let mut state = seed ^ 0xC0_4B05;
    CorpusSpec {
        doc_bytes: ((40_500.0 * pct / 100.0) as usize).max(400),
        dict_bytes: ((50_001.0 * pct / 100.0) as usize).max(600),
        seed: splitmix64(&mut state),
    }
}

/// Scenario `ordinal` of the farm for `seed`: spec seed, scheme, window
/// count and schedule-fuzz seed all derive from the benchmark seed and
/// the ordinal, as in `repro-fuzz`.
pub fn scenario(seed: u64, policy: SchedulingPolicy, timing: TimingKind, ordinal: u64) -> Scenario {
    let mut state = (seed.wrapping_mul(0x100_0000_01B3) ^ 0xFA2A_F00D) ^ ordinal;
    let mut sc = Scenario::new(WorkloadSpec::from_seed(splitmix64(&mut state)));
    sc.policy = policy;
    sc.timing = timing;
    sc.scheme = SchemeKind::ALL[(ordinal % 3) as usize];
    sc.nwindows = 4 + (ordinal % 5) as usize;
    if ordinal % 2 == 1 {
        sc.fuzz = Some(splitmix64(&mut state));
    }
    sc
}

/// The content-addressed key of a farm scenario, exactly as `repro-fuzz`
/// builds it.
pub fn scenario_key(sc: &Scenario) -> JobKey {
    JobKey {
        experiment: "fuzz".to_string(),
        corpus: CorpusSpec { doc_bytes: 0, dict_bytes: 0, seed: sc.spec.seed },
        m: 0,
        n: 0,
        policy: sc.policy,
        scheme: sc.scheme.name().to_string(),
        nwindows: sc.nwindows,
        timing: sc.timing,
        gen: Some(sc.canonical()),
        fuzz: sc.fuzz,
    }
}

/// Every generated input of one workload run: what set-up produces and
/// the passes consume.
pub struct Inputs {
    /// Spell matrices (spell workloads; empty for the farm). Each spec
    /// carries its seeded `CorpusSpec`; `run_matrix` generates the
    /// corpus itself on every pass, as in the `repro-*` binaries.
    pub matrices: Vec<MatrixSpec>,
    /// Generated scenarios (farm only).
    pub scenarios: Vec<Scenario>,
    /// The farm's job list, one `run_bundle` job per scenario.
    pub jobs: Vec<Job>,
}

impl Inputs {
    /// Generates the inputs of `workload` from `seed` at `size`.
    pub fn generate(workload: Workload, seed: u64, size: Size) -> Inputs {
        let windows = MatrixSpec::quick_window_sweep();
        let mut inputs = Inputs { matrices: Vec::new(), scenarios: Vec::new(), jobs: Vec::new() };
        match workload {
            Workload::FifoReplay => {
                let corpus = corpus_spec(seed, size.fifo_corpus_pct());
                for timing in TimingKind::ALL {
                    for fig in [FigureId::Fig11, FigureId::Fig14] {
                        inputs.matrices.push(fig.spec(corpus, &windows).with_timing(timing));
                    }
                }
            }
            Workload::WsDirect => {
                let corpus = corpus_spec(seed, size.ws_corpus_pct());
                inputs.matrices.push(FigureId::Fig15.spec(corpus, &windows));
            }
            Workload::GenFarm => {
                let mut ordinal = 0u64;
                for policy in SchedulingPolicy::ALL {
                    for timing in TimingKind::ALL {
                        for _ in 0..size.farm_per_combo() {
                            inputs.scenarios.push(scenario(seed, policy, timing, ordinal));
                            ordinal += 1;
                        }
                    }
                }
                inputs.jobs = inputs
                    .scenarios
                    .iter()
                    .map(|sc| {
                        let sc = sc.clone();
                        Job::new(scenario_key(&sc), move || run_bundle(&sc))
                    })
                    .collect();
            }
        }
        inputs
    }

    /// Canonical keys of every job, in the order passes report them.
    pub fn keys(&self) -> Vec<JobKey> {
        let mut keys: Vec<JobKey> = self.jobs.iter().map(|j| j.key().clone()).collect();
        for spec in &self.matrices {
            for &behavior in &spec.behaviors {
                for &scheme in &spec.schemes {
                    for &nwindows in &spec.windows {
                        keys.push(JobKey::for_cell(spec, behavior, scheme, nwindows));
                    }
                }
            }
        }
        keys
    }
}

/// A sweep engine on `cache_dir` with `workers` workers and no event
/// stream — the engine a `repro-*` binary builds, minus the progress
/// output.
pub fn engine(cache_dir: &Path, workers: usize) -> SweepEngine {
    let config = SweepConfig::builder()
        .workers(workers)
        .cache_dir(cache_dir.to_path_buf())
        .build()
        .expect("a cache dir and a worker count form a valid sweep config");
    SweepEngine::with_config(config)
}

/// The outcome of one pass: every job's report (or `None` when the job
/// failed), keyed by canonical job key.
#[derive(Debug, Default)]
pub struct Pass {
    /// Canonical key → report, in key order.
    pub reports: BTreeMap<String, Option<RunReport>>,
}

impl Pass {
    /// Jobs that produced no report (quarantined, or a matrix whose
    /// trace recording failed).
    pub fn failed(&self) -> usize {
        self.reports.values().filter(|r| r.is_none()).count()
    }

    /// Each job's serialized report (`None` for a failed job), in key
    /// order.
    pub fn serialized(&self) -> Vec<(String, Option<String>)> {
        self.reports.iter().map(|(k, r)| (k.clone(), r.as_ref().map(report_to_json))).collect()
    }

    /// FNV-1a over every serialized report in key order: the output
    /// digest compared between passes and against the golden value.
    pub fn digest(&self) -> String {
        let mut bytes = Vec::new();
        for (key, json) in self.serialized() {
            bytes.extend_from_slice(key.as_bytes());
            bytes.push(b'\n');
            bytes.extend_from_slice(json.as_deref().unwrap_or("<failed>").as_bytes());
            bytes.push(b'\n');
        }
        format!("{:016x}", fnv1a(&bytes))
    }

    /// Simulated cycles summed over every report.
    pub fn sim_cycles(&self) -> u64 {
        self.reports.values().flatten().map(RunReport::total_cycles).sum()
    }
}

/// Runs every job of `inputs` once through `engine`.
pub fn run_pass(engine: &SweepEngine, inputs: &Inputs) -> Pass {
    let mut pass = Pass::default();
    for key in inputs.keys() {
        pass.reports.insert(key.canonical(), None);
    }
    if !inputs.jobs.is_empty() {
        for (job, report) in inputs.jobs.iter().zip(engine.run_jobs(&inputs.jobs)) {
            pass.reports.insert(job.key().canonical(), report);
        }
    }
    for spec in &inputs.matrices {
        // A recording error leaves the matrix's slots `None`: failed.
        let records: Vec<RunRecord> = engine.run_matrix(spec).unwrap_or_default();
        for r in records {
            let key = JobKey::for_cell(spec, r.behavior, r.scheme, r.nwindows);
            pass.reports.insert(key.canonical(), Some(r.report));
        }
    }
    pass
}
