//! # eagle-bench
//!
//! The harness that regenerates every table and figure of the paper's
//! evaluation. One protocol drives them all — build an agent, train it with one
//! of three algorithms on one of three graphs, report the best placement's
//! final step time — so there is one driver: the `experiments` binary runs the
//! entries of [`Experiment::all`] named on its command line (or `all`), each
//! writing `<name>.csv` into `--out DIR`:
//!
//! * `table1`..`table4` — the paper's Tables I–IV (groupers, placers, training
//!   algorithms, headline comparison); `--curves` adds Fig. 2 (`table1`) and
//!   Figs. 5–7 (`table4`).
//! * `ablation_{baseline,entropy,groups,reward}` — design-choice sweeps of
//!   EAGLE(PPO) on GNMT beyond the paper's tables.
//! * `oracle` — simulated-annealing bounds on the calibrated landscape.
//!
//! Every trained cell is a [`RunSpec`] executed by [`run`]. Shared flags:
//! `--scale tiny|quick|paper` (default `quick`), `--samples N` overrides the
//! per-model sample budgets, `--seed S`, `--out DIR`, `--curves`,
//! `--metrics PATH` streams telemetry to a JSONL file and prints a summary,
//! `--checkpoint-dir DIR` / `--checkpoint-every N` / `--resume` checkpoint and
//! resume every trained cell, `--workers N` pins the worker-pool size.
//!
//! The other binaries (`matmul_bench`, `graph_scale`, `telemetry_overhead`,
//! `transfer`, `serve_throughput`) each gate or record one thing nothing else
//! does; commit-over-commit performance is `BENCHMARK.json` / `perf/`.

#![warn(missing_docs)]

use eagle_core::{
    load_checkpoint, AgentScale, Algo, Curve, EagleAgent, FixedGroupAgent, GraphSource, HpAgent,
    PlacementAgent, PlacerKind, TrainResult, Trainer, TrainerConfig, CHECKPOINT_FILE,
};
use eagle_devsim::{predefined, search, Benchmark, Environment, Machine, MeasureConfig, Placement};
use eagle_obs::Recorder;
use eagle_opgraph::OpGraph;
use eagle_partition::{fluid::FluidCommunities, metis_like::MetisLike, Partitioner};
use eagle_rl::RewardTransform;
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

const USAGE: &str = "[--scale tiny|quick|paper] [--samples N] [--seed S] [--out DIR] [--curves] \
    [--metrics PATH] [--checkpoint-dir DIR] [--checkpoint-every N] [--resume] [--workers N]";

/// Prints why the command line was refused plus the usage line, and exits 2.
fn usage_exit(problem: &str, positional: &str) -> ! {
    eprintln!("{problem}; usage: {positional}{USAGE}");
    std::process::exit(2);
}

impl Cli {
    /// Parses `std::env::args()`. Unknown flags, positional arguments and
    /// malformed values exit 2 with the usage line.
    pub fn parse() -> Self {
        match Self::parse_args(std::env::args().skip(1)) {
            Ok((cli, names)) if names.is_empty() => cli,
            Ok((_, names)) => usage_exit(&format!("unexpected argument {}", names[0]), ""),
            Err(problem) => usage_exit(&problem, ""),
        }
    }

    /// Splits the arguments into the shared flags and the positional ones.
    fn parse_args(args: impl Iterator<Item = String>) -> Result<(Self, Vec<String>), String> {
        fn value<T: std::str::FromStr>(
            flag: &str,
            args: &mut impl Iterator<Item = String>,
        ) -> Result<T, String> {
            let raw = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            raw.parse().map_err(|_| format!("{flag}: cannot read '{raw}'"))
        }
        let mut cli = Self {
            scale: AgentScale::quick(),
            scale_name: "quick".to_string(),
            samples_override: None,
            seed: 7,
            out_dir: "results".into(),
            curves: false,
            metrics: None,
            checkpoint_dir: None,
            checkpoint_every: 10,
            resume: false,
            workers: None,
            recorder: Recorder::disabled(),
        };
        let mut positional = Vec::new();
        let mut args = args;
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--scale" => {
                    cli.scale_name = value(&arg, &mut args)?;
                    cli.scale = AgentScale::from_name(&cli.scale_name)
                        .ok_or_else(|| format!("unknown scale '{}'", cli.scale_name))?;
                }
                "--samples" => cli.samples_override = Some(value(&arg, &mut args)?),
                "--seed" => cli.seed = value(&arg, &mut args)?,
                "--out" => cli.out_dir = value(&arg, &mut args)?,
                "--curves" => cli.curves = true,
                "--metrics" => cli.metrics = Some(value(&arg, &mut args)?),
                "--checkpoint-dir" => cli.checkpoint_dir = Some(value(&arg, &mut args)?),
                "--checkpoint-every" => cli.checkpoint_every = value(&arg, &mut args)?,
                "--resume" => cli.resume = true,
                "--workers" => cli.workers = Some(value(&arg, &mut args)?),
                flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
                _ => positional.push(arg),
            }
        }
        if cli.resume && cli.checkpoint_dir.is_none() {
            return Err("--resume requires --checkpoint-dir DIR".into());
        }
        if let Some(n) = cli.workers {
            if n == 0 {
                return Err(
                    "--workers needs a value >= 1 (omit the flag for auto-detection)".into()
                );
            }
            eagle_obs::set_available_workers(n);
        }
        if cli.metrics.is_some() {
            cli.recorder = Recorder::new();
        }
        Ok((cli, positional))
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
    pub fn partition(self, graph: &OpGraph, k: usize) -> Vec<usize> {
        match self {
            GrouperKind::Metis => MetisLike::default().partition(graph, k),
            GrouperKind::Networkx => FluidCommunities::default().partition(graph, k),
        }
    }
}

/// One trained cell of an experiment: which agent learns which benchmark with
/// which algorithm, from which seeds, under which deviation from the paper's
/// configuration. [`run`] executes it.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// The graph to place.
    pub benchmark: Benchmark,
    /// The agent to train.
    pub agent: AgentKind,
    /// The training algorithm.
    pub algo: Algo,
    /// Names what `tweak` sweeps (`0.05`, `none`, …; also the row's CSV cell).
    /// Empty for table cells, which run the agent's standing configuration.
    pub label: &'static str,
    /// Seed of the trainer's sampling RNG.
    pub trainer_seed: u64,
    /// Seed of the environment's measurement noise, shared by the cells an
    /// experiment compares so that they see identical noise.
    pub env_seed: u64,
    /// Edits the paper configuration (budget from `--samples`/`--scale` already
    /// set) and the `--scale` preset before agent and trainer are built.
    pub tweak: fn(&mut TrainerConfig, &mut AgentScale),
}

impl RunSpec {
    /// Checkpoint subdirectory of this run: `<benchmark>-<agent>-<algo>`, plus
    /// `-<label>` for sweep rows so the values of one sweep cannot resume each
    /// other's state. Cells that share a slug are the same run (Table I's and
    /// Table IV's Hierarchical Planner), so either resumes the other.
    pub fn slug(&self) -> String {
        let agent = match self.agent {
            AgentKind::Eagle => "eagle".to_string(),
            AgentKind::HierarchicalPlanner => "hp".to_string(),
            AgentKind::FixedGroups(g, p) => format!("{}-{}", g.label(), p.label()),
            AgentKind::Post => "post".to_string(),
        };
        let mut slug = format!("{}-{agent}-{}", self.benchmark.name(), self.algo.label());
        if !self.label.is_empty() {
            slug = format!("{slug}-{}", self.label);
        }
        slug.to_lowercase().replace(|c: char| !c.is_ascii_alphanumeric(), "-")
    }
}

/// Starts training fresh, or — when `resume` is set and `cfg.checkpoint_dir`
/// holds a readable checkpoint — continues the interrupted run bit-identically.
///
/// A missing checkpoint file starts fresh (the normal first run); a corrupt,
/// truncated, or mismatched one aborts with the typed error's message rather
/// than silently clobbering state the user asked to keep.
fn train_resumable(
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
                        state.progress.samples,
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

/// Trains one [`RunSpec`] under the command line's scale, budget, seed,
/// recorder and checkpoint options.
pub fn run(spec: &RunSpec, cli: &Cli) -> TrainResult {
    let machine = Machine::paper_machine();
    let graph = spec.benchmark.graph_for(&machine);
    let mut params = Params::new();
    let mut rng = ChaCha8Rng::seed_from_u64(cli.seed);
    let mut cfg = TrainerConfig::paper(spec.algo, cli.samples_for(spec.benchmark));
    cfg.seed = spec.trainer_seed;
    let mut scale = cli.scale;
    (spec.tweak)(&mut cfg, &mut scale);
    if let Some(root) = &cli.checkpoint_dir {
        cfg.checkpoint_dir = Some(root.join(spec.slug()));
        cfg.checkpoint_every = Some(cli.checkpoint_every);
    }
    let trainer = Trainer::builder(GraphSource::fixed(graph.clone()), machine.clone())
        .config(cfg)
        .measure(MeasureConfig::default())
        .env_seed(spec.env_seed)
        .recorder(cli.recorder.clone())
        .build()
        .expect("experiment trainer config is valid");

    let k = scale.num_groups.min(graph.len());
    match spec.agent {
        AgentKind::Eagle => {
            let agent = EagleAgent::new(&mut params, &graph, &machine, scale, &mut rng);
            train_resumable(&agent, &mut params, &trainer, cli.resume)
        }
        AgentKind::HierarchicalPlanner => {
            let agent = HpAgent::new(&mut params, &graph, &machine, scale, &mut rng);
            train_resumable(&agent, &mut params, &trainer, cli.resume)
        }
        AgentKind::FixedGroups(grouper, placer) => {
            let agent = FixedGroupAgent::new(
                &mut params,
                format!("{}+{}", grouper.label(), placer.label()),
                &graph,
                &machine,
                grouper.partition(&graph, k),
                k,
                placer,
                scale,
                &mut rng,
            );
            train_resumable(&agent, &mut params, &trainer, cli.resume)
        }
        AgentKind::Post => {
            let group_of = GrouperKind::Metis.partition(&graph, k);
            let agent =
                FixedGroupAgent::post(&mut params, &graph, &machine, group_of, k, scale, &mut rng);
            train_resumable(&agent, &mut params, &trainer, cli.resume)
        }
    }
}

/// Formats an optional step time like the paper's tables (`OOM` for invalid).
pub fn fmt_time(t: Option<f64>) -> String {
    match t {
        Some(v) => format!("{v:.3}"),
        None => "OOM".to_string(),
    }
}

/// One cell of an experiment's table: its column title and where the number
/// comes from.
struct Cell {
    column: &'static str,
    source: Source,
}

enum Source {
    /// Train an agent and report its best placement.
    Train(RunSpec),
    /// Measure a hand-written placement (if the model has one) under the
    /// final protocol, in the environment the row's fixed cells share.
    Fixed(fn(&OpGraph, &Machine) -> Option<Placement>),
}

enum Rows {
    /// One stdout row per benchmark, one CSV line per cell.
    Cells(Vec<(Benchmark, Vec<Cell>)>),
    /// A table that is not step times of placements per cell: the function
    /// prints its own rows and returns the whole CSV.
    Whole(fn(&Cli) -> String),
}

/// One entry of the experiment table: a named table, figure set or sweep that
/// [`Experiment::run`] prints and writes to `<name>.csv`.
pub struct Experiment {
    /// Command-line name and CSV file stem.
    pub name: &'static str,
    title: &'static str,
    /// CSV column naming what differs between a row's cells.
    axis: &'static str,
    rows: Rows,
    /// Where `--curves` writes the curves of a row's trained cells, if anywhere.
    curves: fn(Benchmark) -> Option<&'static str>,
}

type Tweak = fn(&mut TrainerConfig, &mut AgentScale);

fn no_tweak(_: &mut TrainerConfig, _: &mut AgentScale) {}

/// HP's per-op grouping decisions make each sample several times more
/// expensive; cap its budget so tables finish in comparable time (its
/// convergence behaviour is visible well within this budget).
fn hp_budget(cfg: &mut TrainerConfig, _: &mut AgentScale) {
    cfg.total_samples = cfg.total_samples.min(cfg.total_samples / 2 + 100);
}

/// A table cell. Its seeds derive from `--seed` and are the same for every
/// cell, so the approaches of one table see identical noise.
fn trained(seed: u64, b: Benchmark, column: &'static str, agent: AgentKind, algo: Algo) -> Cell {
    let tweak: Tweak = if agent == AgentKind::HierarchicalPlanner { hp_budget } else { no_tweak };
    let (trainer_seed, env_seed) = (seed.wrapping_add(13), 1000 + seed);
    let spec = RunSpec { benchmark: b, agent, algo, label: "", trainer_seed, env_seed, tweak };
    Cell { column, source: Source::Train(spec) }
}

/// A sweep: EAGLE(PPO) on GNMT under each labelled tweak, on the sweep's own
/// seeds (the trainer's default 7, one environment seed per sweep).
fn sweep(env_seed: u64, values: &[(&'static str, Tweak)]) -> Rows {
    let (benchmark, agent, algo) = (Benchmark::Gnmt, AgentKind::Eagle, Algo::Ppo);
    let cell = |&(label, tweak): &(&'static str, Tweak)| {
        let spec = RunSpec { benchmark, agent, algo, label, trainer_seed: 7, env_seed, tweak };
        Cell { column: label, source: Source::Train(spec) }
    };
    Rows::Cells(vec![(benchmark, values.iter().map(cell).collect())])
}

fn per_benchmark(cells: impl Fn(Benchmark) -> Vec<Cell>) -> Rows {
    Rows::Cells(Benchmark::ALL.iter().map(|&b| (b, cells(b))).collect())
}

impl Experiment {
    /// Every experiment, in the order `experiments all` runs them; `seed` is
    /// the command line's `--seed`.
    pub fn all(seed: u64) -> Vec<Experiment> {
        use AgentKind::{Eagle, FixedGroups, HierarchicalPlanner, Post};
        use GrouperKind::{Metis, Networkx};
        use PlacerKind::{Gcn, Seq2SeqAfter, Seq2SeqBefore};
        let (ppo, ppo_ce) = (Algo::Ppo, Algo::PpoCe);
        let cell = |b, column, agent, algo| trained(seed, b, column, agent, algo);
        let fixed = |column, placement| Cell { column, source: Source::Fixed(placement) };
        let no_curves: fn(Benchmark) -> Option<&'static str> = |_| None;
        let experiment =
            |name, title, axis, rows, curves| Experiment { name, title, axis, rows, curves };
        vec![
            experiment(
                "table1",
                "Table I: per-step time (s) by grouper",
                "grouper",
                per_benchmark(|b| {
                    vec![
                        cell(b, "Feed-forward", HierarchicalPlanner, ppo),
                        cell(b, "METIS", FixedGroups(Metis, Seq2SeqAfter), ppo),
                        cell(b, "Networkx", FixedGroups(Networkx, Seq2SeqAfter), ppo),
                    ]
                }),
                |b| (b == Benchmark::BertBase).then_some("fig2.csv"),
            ),
            experiment(
                "table2",
                "Table II: per-step time (s) by placer, METIS groups",
                "placer",
                per_benchmark(|b| {
                    let column = |p: PlacerKind| cell(b, p.label(), FixedGroups(Metis, p), ppo);
                    [Seq2SeqBefore, Seq2SeqAfter, Gcn].map(column).into()
                }),
                no_curves,
            ),
            experiment(
                "table3",
                "Table III: EAGLE per-step time (s) by training algorithm",
                "algo",
                per_benchmark(|b| {
                    [Algo::Reinforce, ppo, ppo_ce].map(|a| cell(b, a.label(), Eagle, a)).into()
                }),
                no_curves,
            ),
            experiment(
                "table4",
                "Table IV: per-step time (s) of found placements",
                "approach",
                per_benchmark(|b| {
                    vec![
                        fixed("Single GPU", |g, m| Some(predefined::single_gpu(g, m))),
                        fixed("Human Experts", predefined::human_expert),
                        cell(b, "Hierarchical Planner", HierarchicalPlanner, ppo),
                        cell(b, "Post", Post, ppo_ce),
                        cell(b, "EAGLE (PPO)", Eagle, ppo),
                        cell(b, "EAGLE (PPO+CE)", Eagle, ppo_ce),
                    ]
                }),
                |b| {
                    Some(match b {
                        Benchmark::InceptionV3 => "fig5.csv",
                        Benchmark::Gnmt => "fig6.csv",
                        Benchmark::BertBase => "fig7.csv",
                    })
                },
            ),
            experiment(
                "ablation_baseline",
                "Ablation: EMA reward baseline (paper: on), EAGLE(PPO) on GNMT",
                "baseline",
                sweep(42, &[("ema", no_tweak), ("none", |c, _| c.use_baseline = false)]),
                no_curves,
            ),
            experiment(
                "ablation_entropy",
                "Ablation: entropy coefficient (paper: 0.01), EAGLE(PPO) on GNMT",
                "ent_coef",
                sweep(
                    43,
                    &[
                        ("0", |c, _| c.optim.ent_coef = 0.0),
                        ("0.01", |c, _| c.optim.ent_coef = 0.01),
                        ("0.05", |c, _| c.optim.ent_coef = 0.05),
                        ("0.2", |c, _| c.optim.ent_coef = 0.2),
                    ],
                ),
                no_curves,
            ),
            experiment(
                "ablation_groups",
                "Ablation: group count (paper: 256), EAGLE(PPO) on GNMT",
                "num_groups",
                sweep(
                    44,
                    &[
                        ("8", |_, s| s.num_groups = 8),
                        ("16", |_, s| s.num_groups = 16),
                        ("32", |_, s| s.num_groups = 32),
                        ("64", |_, s| s.num_groups = 64),
                    ],
                ),
                no_curves,
            ),
            experiment(
                "ablation_reward",
                "Ablation: reward transform (paper: -sqrt(t)), EAGLE(PPO) on GNMT",
                "transform",
                sweep(
                    41,
                    &[
                        ("-sqrt(t)", |c, _| c.reward = RewardTransform::NegSqrt),
                        ("-t", |c, _| c.reward = RewardTransform::NegLinear),
                        ("-log(1+t)", |c, _| c.reward = RewardTransform::NegLog),
                    ],
                ),
                no_curves,
            ),
            experiment(
                "oracle",
                "Landscape oracle: simulated annealing over topo-chunk groups",
                "",
                Rows::Whole(oracle),
                no_curves,
            ),
        ]
    }

    /// Parses `experiments <name>... | all [flags]`: the selected experiments,
    /// in table order, and the shared flags. An unknown name exits 2 with the
    /// known ones and the usage line.
    pub fn from_args() -> (Vec<Experiment>, Cli) {
        let positional = "<experiment>... | all ";
        let (cli, names) = Cli::parse_args(std::env::args().skip(1))
            .unwrap_or_else(|problem| usage_exit(&problem, positional));
        let mut all = Self::all(cli.seed);
        let known: Vec<&str> = all.iter().map(|e| e.name).collect();
        let known = format!("(experiments: {}, or all)", known.join(" "));
        if names.is_empty() {
            usage_exit(&format!("no experiment named {known}"), positional);
        }
        let everything = names.iter().any(|n| n == "all");
        if let Some(unknown) =
            names.iter().find(|n| *n != "all" && !all.iter().any(|e| e.name == *n))
        {
            usage_exit(&format!("unknown experiment '{unknown}' {known}"), positional);
        }
        all.retain(|e| everything || names.iter().any(|n| n == e.name));
        (all, cli)
    }

    /// Runs the experiment: prints its table and writes `<name>.csv` (plus the
    /// figure CSVs under `--curves`) into the output directory.
    pub fn run(&self, cli: &Cli) {
        println!("{} (scale = {})", self.title, cli.scale_name);
        let csv = match &self.rows {
            Rows::Whole(table) => table(cli),
            Rows::Cells(rows) => self.run_cells(rows, cli),
        };
        cli.write_artifact(&format!("{}.csv", self.name), &csv);
    }

    fn run_cells(&self, rows: &[(Benchmark, Vec<Cell>)], cli: &Cli) -> String {
        let columns: Vec<&str> = rows[0].1.iter().map(|c| c.column).collect();
        let rule: Vec<String> = columns.iter().map(|c| "-".repeat(c.len() + 2)).collect();
        println!("| Models        | {} |", columns.join(" | "));
        println!("|---------------|{}|", rule.join("|"));
        // A sweep runs on one model and names it in its title, not in a column.
        let model_column = rows.len() > 1;
        let mut csv = format!(
            "{}{},step_time,invalid\n",
            if model_column { "model," } else { "" },
            self.axis
        );
        for (b, cells) in rows {
            let curve_file = (self.curves)(*b).filter(|_| cli.curves);
            let mut curves: Vec<Curve> = Vec::new();
            let mut env: Option<Environment> = None;
            let mut times = Vec::new();
            for cell in cells {
                let (time, invalid) = match &cell.source {
                    Source::Train(spec) => {
                        let out = run(spec, cli);
                        if curve_file.is_some() {
                            curves.push(Curve { label: cell.column.to_string(), ..out.curve });
                        }
                        (out.final_step_time, out.num_invalid)
                    }
                    Source::Fixed(placement) => {
                        let env = env.get_or_insert_with(|| {
                            let machine = Machine::paper_machine();
                            Environment::builder(b.graph_for(&machine), machine)
                                .measure(MeasureConfig::default())
                                .seed(500)
                                .recorder(cli.recorder.clone())
                                .build()
                                .expect("valid table environment")
                        });
                        let placement = placement(env.graph(), env.machine());
                        (placement.and_then(|p| env.evaluate_final(&p)), 0)
                    }
                };
                if model_column {
                    csv.push_str(&format!("{},", b.name()));
                }
                let time = fmt_time(time);
                csv.push_str(&format!("{},{time},{invalid}\n", cell.column));
                times.push(time);
            }
            println!("| {:<13} | {} |", b.name(), times.join(" | "));
            if let Some(file) = curve_file {
                cli.write_artifact(file, &Curve::multi_csv(&curves));
            }
        }
        csv
    }
}

/// The `oracle` table: simulated-annealing bounds for each benchmark, next to a
/// hand-written reference placement. Not a paper baseline — a certification of
/// how much headroom the calibrated landscape offers. `--samples` sets the
/// evaluation budget (default 4000).
fn oracle(cli: &Cli) -> String {
    let machine = Machine::paper_machine();
    let iters = cli.samples_override.unwrap_or(4000);
    println!("  {iters} evals, k = {}", cli.scale.num_groups);
    let mut csv = String::from("model,reference,oracle\n");
    for b in Benchmark::ALL {
        let graph = b.graph_for(&machine);
        let groups = search::topo_chunks(&graph, cli.scale.num_groups);
        let sa = search::simulated_annealing(&graph, &machine, &groups, iters, cli.seed);
        let reference = match b {
            Benchmark::InceptionV3 => Some(predefined::single_gpu(&graph, &machine)),
            Benchmark::Gnmt => predefined::human_expert(&graph, &machine),
            Benchmark::BertBase => Some(predefined::bert_layer_split(&graph, &machine)),
        }
        .and_then(|p| eagle_devsim::simulate(&graph, &machine, &p).step_time());
        let (reference, oracle) = (fmt_time(reference), fmt_time(sa.best_time));
        println!("  {:<13} reference {reference:<7} oracle {oracle}", b.name());
        csv.push_str(&format!("{},{reference},{oracle}\n", b.name()));
    }
    csv
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn rows_share_a_checkpoint_slug_only_if_they_are_the_same_run() {
        let all = Experiment::all(7);
        let mut seen = HashMap::new();
        let mut specs = 0;
        for e in &all {
            let Rows::Cells(rows) = &e.rows else { continue };
            for cell in rows.iter().flat_map(|(_, cells)| cells) {
                let Source::Train(s) = &cell.source else { continue };
                specs += 1;
                let run = (s.benchmark, s.agent, s.algo, s.trainer_seed, s.env_seed, s.label);
                let first = *seen.entry(s.slug()).or_insert(run);
                assert_eq!(first, run, "{}: slug {} names two different runs", e.name, s.slug());
            }
        }
        assert_eq!(specs, 9 + 9 + 9 + 12 + 2 + 4 + 4 + 3);
        // Table rows keep the slug existing checkpoints were written under;
        // the four values of a sweep get one each.
        assert!(seen.contains_key("bert-base-hp-ppo") && seen.contains_key("gnmt-post-ppo-ce"));
        assert!(seen.contains_key("gnmt-eagle-ppo") && seen.contains_key("gnmt-eagle-ppo-0-05"));
    }
}
