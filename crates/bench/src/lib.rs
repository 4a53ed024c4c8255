//! # eagle-bench
//!
//! The benchmark harness that regenerates every table and figure of the paper's
//! evaluation (see DESIGN.md for the experiment index):
//!
//! * `table1` — grouper comparison (feed-forward vs METIS vs NetworkX), Table I,
//!   with `--curves` emitting the BERT training curves of Fig. 2.
//! * `table2` — placer comparison (seq2seq before/after attention vs GCN), Table II.
//! * `table3` — training-algorithm comparison (REINFORCE / PPO / PPO+CE), Table III.
//! * `table4` — headline comparison against all baselines, Table IV, with
//!   `--curves` emitting the per-model curves of Figs. 5–7.
//! * `ablation_*` — design-choice sweeps beyond the paper's tables.
//!
//! Every binary accepts `--scale tiny|quick|paper` (default `quick`), `--samples N`
//! overrides per-model sample budgets, `--seed S`, `--out DIR` for CSV exports, and
//! `--metrics PATH` to stream structured telemetry (spans, counters, histograms) to
//! a JSONL file and print an end-of-run summary table. `--workers N` pins the
//! auto-detected worker-pool size so perf runs reproduce across differently
//! sized CI hosts.
//! Criterion micro-benchmarks live under `benches/`.

#![warn(missing_docs)]

use eagle_core::{
    load_checkpoint, AgentScale, Algo, Curve, EagleAgent, FixedGroupAgent, GraphSource, HpAgent,
    PlacementAgent, PlacerKind, TrainResult, Trainer, TrainerConfig, CHECKPOINT_FILE,
};
use eagle_devsim::{Benchmark, Machine, MeasureConfig};
use eagle_obs::Recorder;
use eagle_partition::{fluid::FluidCommunities, metis_like::MetisLike, Partitioner};
use eagle_tensor::Params;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Parsed command-line options shared by all experiment binaries.
#[derive(Debug, Clone)]
pub struct Cli {
    /// Agent scale preset.
    pub scale: AgentScale,
    /// Name of the scale preset (for reporting).
    pub scale_name: String,
    /// Per-model sample-budget override.
    pub samples_override: Option<usize>,
    /// RNG seed for agent init and sampling.
    pub seed: u64,
    /// Output directory for CSV/JSON artifacts.
    pub out_dir: std::path::PathBuf,
    /// Whether to export training curves.
    pub curves: bool,
    /// Telemetry JSONL destination (`--metrics PATH`), if requested.
    pub metrics: Option<std::path::PathBuf>,
    /// Root directory for training checkpoints (`--checkpoint-dir DIR`); each
    /// (benchmark, agent, algorithm) run checkpoints into its own subdirectory.
    pub checkpoint_dir: Option<std::path::PathBuf>,
    /// Minibatches between auto-checkpoints (`--checkpoint-every N`, default 10).
    pub checkpoint_every: usize,
    /// Resume interrupted runs from their checkpoints (`--resume`; requires
    /// `--checkpoint-dir`). Runs without a checkpoint start fresh; corrupt
    /// checkpoints abort rather than being silently clobbered.
    pub resume: bool,
    /// Worker-pool override (`--workers N`): pins the auto-detected core count
    /// every `workers = 0` consumer resolves to, so perf runs are reproducible
    /// across differently-sized CI hosts. `None` keeps auto-detection.
    pub workers: Option<usize>,
    /// The run's telemetry recorder: enabled iff `--metrics` was passed,
    /// otherwise a free no-op.
    pub recorder: Recorder,
}

impl Cli {
    /// Parses `std::env::args()`. Unknown flags abort with a usage message.
    pub fn parse() -> Self {
        let mut scale_name = "quick".to_string();
        let mut samples_override = None;
        let mut seed = 7u64;
        let mut out_dir = std::path::PathBuf::from("results");
        let mut curves = false;
        let mut metrics: Option<std::path::PathBuf> = None;
        let mut checkpoint_dir: Option<std::path::PathBuf> = None;
        let mut checkpoint_every = 10usize;
        let mut resume = false;
        let mut workers: Option<usize> = None;
        let args: Vec<String> = std::env::args().skip(1).collect();
        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--scale" => {
                    i += 1;
                    scale_name = args.get(i).expect("--scale needs a value").clone();
                }
                "--samples" => {
                    i += 1;
                    samples_override = Some(
                        args.get(i).expect("--samples needs a value").parse().expect("number"),
                    );
                }
                "--seed" => {
                    i += 1;
                    seed = args.get(i).expect("--seed needs a value").parse().expect("number");
                }
                "--out" => {
                    i += 1;
                    out_dir = args.get(i).expect("--out needs a value").into();
                }
                "--curves" => curves = true,
                "--metrics" => {
                    i += 1;
                    metrics = Some(args.get(i).expect("--metrics needs a value").into());
                }
                "--checkpoint-dir" => {
                    i += 1;
                    checkpoint_dir =
                        Some(args.get(i).expect("--checkpoint-dir needs a value").into());
                }
                "--checkpoint-every" => {
                    i += 1;
                    checkpoint_every = args
                        .get(i)
                        .expect("--checkpoint-every needs a value")
                        .parse()
                        .expect("number");
                }
                "--resume" => resume = true,
                "--workers" => {
                    i += 1;
                    workers = Some(
                        args.get(i).expect("--workers needs a value").parse().expect("number"),
                    );
                }
                other => {
                    eprintln!(
                        "unknown flag {other}; usage: [--scale tiny|quick|paper] [--samples N] [--seed S] [--out DIR] [--curves] [--metrics PATH] [--checkpoint-dir DIR] [--checkpoint-every N] [--resume] [--workers N]"
                    );
                    std::process::exit(2);
                }
            }
            i += 1;
        }
        let scale = AgentScale::from_name(&scale_name)
            .unwrap_or_else(|| panic!("unknown scale '{scale_name}'"));
        if resume && checkpoint_dir.is_none() {
            eprintln!("--resume requires --checkpoint-dir DIR");
            std::process::exit(2);
        }
        if let Some(n) = workers {
            if n == 0 {
                eprintln!("--workers needs a value >= 1 (omit the flag for auto-detection)");
                std::process::exit(2);
            }
            eagle_obs::set_available_workers(n);
        }
        let recorder = if metrics.is_some() { Recorder::new() } else { Recorder::disabled() };
        Self {
            scale,
            scale_name,
            samples_override,
            seed,
            out_dir,
            curves,
            metrics,
            checkpoint_dir,
            checkpoint_every,
            resume,
            workers,
            recorder,
        }
    }

    /// Default per-model training budgets at this scale: larger graphs get more
    /// samples, matching the paper's longer training times for GNMT/BERT.
    pub fn samples_for(&self, b: Benchmark) -> usize {
        if let Some(s) = self.samples_override {
            return s;
        }
        let base = match b {
            Benchmark::InceptionV3 => 300,
            Benchmark::Gnmt => 900,
            Benchmark::BertBase => 900,
        };
        match self.scale_name.as_str() {
            "tiny" => base / 10,
            "paper" => base * 4,
            _ => base,
        }
    }

    /// Flushes telemetry at the end of a run: writes the JSONL stream to the
    /// `--metrics` path and prints the human-readable summary table. A no-op
    /// when `--metrics` was not passed.
    pub fn finish_metrics(&self, run: &str) {
        let Some(path) = &self.metrics else { return };
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir).expect("create metrics dir");
        }
        eagle_obs::write_jsonl(&self.recorder, path, run).expect("write metrics JSONL");
        println!("wrote {}", path.display());
        print!("{}", eagle_obs::summary(&self.recorder));
    }

    /// Writes an artifact into the output directory, creating it if needed.
    pub fn write_artifact(&self, name: &str, contents: &str) {
        std::fs::create_dir_all(&self.out_dir).expect("create output dir");
        let path = self.out_dir.join(name);
        std::fs::write(&path, contents).expect("write artifact");
        println!("wrote {}", path.display());
    }
}

/// Which agent an experiment trains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AgentKind {
    /// Full EAGLE (learned grouper + linking RNN + seq2seq-before placer).
    Eagle,
    /// Hierarchical Planner (sampled grouping + seq2seq-after placer).
    HierarchicalPlanner,
    /// Fixed heuristic groups + a chosen placer network.
    FixedGroups(GrouperKind, PlacerKind),
    /// Post (fixed groups + simple placer; train with [`Algo::PpoCe`]).
    Post,
}

impl AgentKind {
    /// Filesystem-safe identifier used to give each run its own checkpoint
    /// subdirectory.
    pub fn slug(self) -> String {
        match self {
            AgentKind::Eagle => "eagle".to_string(),
            AgentKind::HierarchicalPlanner => "hp".to_string(),
            AgentKind::FixedGroups(g, p) => format!("{}-{}", g.label(), p.label())
                .to_lowercase()
                .replace(|c: char| !c.is_ascii_alphanumeric(), "-"),
            AgentKind::Post => "post".to_string(),
        }
    }
}

/// Which fixed grouping a [`AgentKind::FixedGroups`] agent uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GrouperKind {
    /// Multilevel k-way partitioner.
    Metis,
    /// Asynchronous fluid communities.
    Networkx,
}

impl GrouperKind {
    /// Table label.
    pub fn label(self) -> &'static str {
        match self {
            GrouperKind::Metis => "METIS",
            GrouperKind::Networkx => "Networkx",
        }
    }

    /// Runs the heuristic.
    pub fn partition(self, graph: &eagle_opgraph::OpGraph, k: usize) -> Vec<usize> {
        match self {
            GrouperKind::Metis => MetisLike::default().partition(graph, k),
            GrouperKind::Networkx => FluidCommunities::default().partition(graph, k),
        }
    }
}

/// Outcome of one (benchmark, agent, algorithm) training run.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Final per-step time of the best placement (`None` = never found a valid one).
    pub final_step_time: Option<f64>,
    /// Training curve.
    pub curve: Curve,
    /// Invalid placements encountered.
    pub num_invalid: usize,
}

/// Starts training fresh, or — when `resume` is set and `cfg.checkpoint_dir`
/// holds a readable checkpoint — continues the interrupted run bit-identically.
///
/// A missing checkpoint file starts fresh (the normal first run); a corrupt,
/// truncated, or mismatched one aborts with the typed error's message rather
/// than silently clobbering state the user asked to keep.
pub fn train_resumable(
    agent: &impl PlacementAgent,
    params: &mut Params,
    trainer: &Trainer,
    resume: bool,
) -> TrainResult {
    if resume {
        if let Some(dir) = &trainer.config().checkpoint_dir {
            let path = dir.join(CHECKPOINT_FILE);
            match load_checkpoint(&path) {
                Ok(state) => {
                    println!(
                        "resuming {} from {} (sample {}/{})",
                        agent.name(),
                        path.display(),
                        state.samples,
                        trainer.config().total_samples
                    );
                    return trainer.train_from(agent, params, state).unwrap_or_else(|e| {
                        eprintln!("cannot resume from {}: {e}", path.display());
                        std::process::exit(3);
                    });
                }
                Err(e) if e.is_not_found() => {
                    println!("no checkpoint at {}; starting fresh", path.display());
                }
                Err(e) => {
                    eprintln!("refusing to resume: {}: {e}", path.display());
                    std::process::exit(3);
                }
            }
        }
    }
    trainer.train(agent, params).expect("training run failed")
}

/// Trains the given agent kind on a benchmark and returns the outcome.
/// The environment seed is fixed per benchmark so approaches see identical noise.
pub fn run(b: Benchmark, kind: AgentKind, algo: Algo, cli: &Cli) -> RunOutcome {
    let machine = Machine::paper_machine();
    let graph = b.graph_for(&machine);
    let mut params = Params::new();
    let mut rng = ChaCha8Rng::seed_from_u64(cli.seed);
    let samples = cli.samples_for(b);
    let mut cfg = TrainerConfig::paper(algo, samples);
    cfg.seed = cli.seed.wrapping_add(13);
    if kind == AgentKind::HierarchicalPlanner {
        // HP's per-op grouping decisions make each sample several times more
        // expensive; cap its budget so tables finish in comparable time (its
        // convergence behaviour is visible well within this budget).
        cfg.total_samples = samples.min(samples / 2 + 100);
    }
    if let Some(root) = &cli.checkpoint_dir {
        // One subdirectory per (benchmark, agent, algorithm) so table binaries
        // that train many agents checkpoint each run independently.
        let slug = format!(
            "{}-{}-{}",
            b.name().to_lowercase().replace(|c: char| !c.is_ascii_alphanumeric(), "-"),
            kind.slug(),
            algo.label().to_lowercase().replace(|c: char| !c.is_ascii_alphanumeric(), "-"),
        );
        cfg.checkpoint_dir = Some(root.join(slug));
        cfg.checkpoint_every = Some(cli.checkpoint_every);
    }
    let trainer = Trainer::builder(GraphSource::fixed(graph.clone()), machine.clone())
        .config(cfg)
        .measure(MeasureConfig::default())
        .env_seed(1000 + cli.seed)
        .recorder(cli.recorder.clone())
        .build()
        .expect("benchmark trainer config is valid");

    let result: TrainResult = match kind {
        AgentKind::Eagle => {
            let agent = EagleAgent::new(&mut params, &graph, &machine, cli.scale, &mut rng);
            train_resumable(&agent, &mut params, &trainer, cli.resume)
        }
        AgentKind::HierarchicalPlanner => {
            let agent = HpAgent::new(&mut params, &graph, &machine, cli.scale, &mut rng);
            train_resumable(&agent, &mut params, &trainer, cli.resume)
        }
        AgentKind::FixedGroups(grouper, placer) => {
            let k = cli.scale.num_groups.min(graph.len());
            let group_of = grouper.partition(&graph, k);
            let agent = FixedGroupAgent::new(
                &mut params,
                format!("{}+{}", grouper.label(), placer.label()),
                &graph,
                &machine,
                group_of,
                k,
                placer,
                cli.scale,
                &mut rng,
            );
            train_resumable(&agent, &mut params, &trainer, cli.resume)
        }
        AgentKind::Post => {
            let k = cli.scale.num_groups.min(graph.len());
            let group_of = GrouperKind::Metis.partition(&graph, k);
            let agent = FixedGroupAgent::post(
                &mut params,
                &graph,
                &machine,
                group_of,
                k,
                cli.scale,
                &mut rng,
            );
            train_resumable(&agent, &mut params, &trainer, cli.resume)
        }
    };

    RunOutcome {
        final_step_time: result.final_step_time,
        curve: result.curve,
        num_invalid: result.num_invalid,
    }
}

/// Formats an optional step time like the paper's tables (`OOM` for invalid).
pub fn fmt_time(t: Option<f64>) -> String {
    match t {
        Some(v) => format!("{v:.3}"),
        None => "OOM".to_string(),
    }
}

/// Prints a table row.
pub fn print_row(model: &str, cells: &[String]) {
    println!("| {:<13} | {} |", model, cells.join(" | "));
}
