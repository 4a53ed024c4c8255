//! # eagle-bench
//!
//! The harness that regenerates every table and figure of the paper's
//! evaluation. One protocol drives them all — build an agent, train it with one
//! of three algorithms on one of three graphs, report the best placement's
//! final step time — so there is one driver: the `experiments` binary runs the
//! entries of [`Experiment::all`] named on its command line (or `all`), each
//! writing its artifact into `--out DIR`:
//!
//! * `table1`..`table4` — the paper's Tables I–IV (groupers, placers, training
//!   algorithms, headline comparison); `--curves` adds Fig. 2 (`table1`) and
//!   Figs. 5–7 (`table4`).
//! * `ablation_{baseline,entropy,groups,reward}` — design-choice sweeps of
//!   EAGLE(PPO) on GNMT beyond the paper's tables.
//! * `oracle` — simulated-annealing bounds on the calibrated landscape.
//! * `transfer` — a generalist trained on GraphGen graphs, zero-shot /
//!   fine-tuned / from-scratch on the benchmarks (`BENCH_transfer.json`).
//! * `telemetry_overhead` — the recorder's host-time cost
//!   (`BENCH_telemetry_overhead.json`).
//! * `matmul` — the matmul kernel loops and gradient products over a shape
//!   sweep (`BENCH_matmul.json`).
//! * `graph_scale` — generation, validation, features and simulation on
//!   10k–100k-op GraphGen graphs (`BENCH_graph_scale.json`).
//!
//! A failed gate still writes its entry's artifact; then the driver exits 1.
//!
//! Every trained cell is a [`RunSpec`] executed by [`run`]. Shared flags:
//! `--scale tiny|quick|paper` (default `quick`), `--samples N` overrides the
//! per-model sample budgets, `--seed S`, `--out DIR`, `--curves`,
//! `--metrics PATH` streams telemetry to a JSONL file and prints a summary,
//! `--checkpoint-dir DIR` / `--checkpoint-every N` / `--resume` checkpoint and
//! resume every trained cell, `--workers N` pins the worker-pool size.
//!
//! The one other binary, `serve_throughput`, drives a running daemon;
//! commit-over-commit performance is `BENCHMARK.json` / `perf/`.

#![warn(missing_docs)]

use eagle_core::infer::best_of;
use eagle_core::{
    load_checkpoint, AgentScale, Algo, Curve, EagleAgent, FixedGroupAgent, GraphSource, HpAgent,
    PlacementAgent, PlacerKind, TrainResult, Trainer, TrainerConfig, CHECKPOINT_FILE,
};
use eagle_devsim::{
    predefined, search, Benchmark, CostGraph, DeviceId, Environment, Machine, MeasureConfig,
    Placement,
};
use eagle_obs::Recorder;
use eagle_opgraph::{GraphGenConfig, OpGraph};
use eagle_partition::{fluid::FluidCommunities, metis_like::MetisLike, Partitioner};
use eagle_rl::RewardTransform;
use eagle_tensor::Params;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde_json::Value;
use std::cell::RefCell;

mod micro;

/// Parsed command-line options of the experiments driver.
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

const USAGE: &str = "<experiment>... | all [--scale tiny|quick|paper] [--samples N] [--seed S] \
    [--out DIR] [--curves] [--metrics PATH] [--checkpoint-dir DIR] [--checkpoint-every N] \
    [--resume] [--workers N]";

/// Prints why the command line was refused plus the usage line, and exits 2.
fn usage_exit(problem: &str) -> ! {
    eprintln!("{problem}; usage: {USAGE}");
    std::process::exit(2);
}

impl Cli {
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
        if cli.samples_override == Some(0) {
            return Err("--samples needs a value >= 1".into());
        }
        if cli.checkpoint_every == 0 {
            return Err("--checkpoint-every needs a value >= 1".into());
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

    /// Records how each of `experiments`' artifacts was made in
    /// `MANIFEST.json` of the output directory: the source `commit` (see
    /// [`source_commit`]), the `command` line, `scale`, `seed` (every trainer
    /// and environment seed derives from it), `samples` override, `curves`,
    /// `workers` override, `host_cores` and `libm`. Entries of artifacts this
    /// run did not write are kept, so regenerating one leaves the others.
    pub fn write_manifest(&self, experiments: &[Experiment], commit: &str, command: &str) {
        let path = self.out_dir.join(MANIFEST_FILE);
        let mut entries: Vec<(String, Value)> = std::fs::read_to_string(&path)
            .ok()
            .and_then(|text| serde_json::from_str::<Value>(&text).ok())
            .and_then(|doc| match doc.get("artifacts") {
                Some(Value::Object(entries)) => Some(entries.clone()),
                _ => None,
            })
            .unwrap_or_default();
        let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let libm = libm_identity();
        for experiment in experiments {
            for file in experiment.artifacts(self) {
                let entry = micro::obj(vec![
                    ("experiment", Value::from(experiment.name)),
                    ("commit", Value::from(commit)),
                    ("command", Value::from(command)),
                    ("scale", Value::from(self.scale_name.as_str())),
                    ("seed", Value::U64(self.seed)),
                    (
                        "samples",
                        self.samples_override.map_or(Value::Null, |n| Value::U64(n as u64)),
                    ),
                    ("curves", Value::Bool(self.curves)),
                    ("workers", self.workers.map_or(Value::Null, |n| Value::U64(n as u64))),
                    ("host_cores", Value::U64(host_cores as u64)),
                    ("libm", libm.clone()),
                ]);
                entries.retain(|(name, _)| *name != file);
                entries.push((file, entry));
            }
        }
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        let lines: Vec<String> = entries
            .iter()
            .map(|(file, entry)| {
                format!(
                    "    {}: {}",
                    serde_json::to_string(&Value::from(file.as_str())).expect("serialize"),
                    serde_json::to_string(entry).expect("serialize")
                )
            })
            .collect();
        let doc = format!(
            "{{\n  \"schema_version\": 1,\n  \"artifacts\": {{\n{}\n  }}\n}}\n",
            lines.join(",\n")
        );
        self.write_artifact(MANIFEST_FILE, &doc);
    }
}

/// The provenance file the driver keeps next to its artifacts.
const MANIFEST_FILE: &str = "MANIFEST.json";

/// Which libm computed the artifacts' `exp`, `ln` and sigmoid (a variant can
/// move the last bit of a trajectory): the glibc version (`null` off glibc)
/// and the `glibc.cpu.hwcaps` mask of `GLIBC_TUNABLES` (`default` if unset).
fn libm_identity() -> Value {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    let glibc = {
        extern "C" {
            fn gnu_get_libc_version() -> *const std::ffi::c_char;
        }
        // SAFETY: glibc returns its static, NUL-terminated version string.
        let version = unsafe { std::ffi::CStr::from_ptr(gnu_get_libc_version()) };
        Value::from(version.to_string_lossy().into_owned())
    };
    #[cfg(not(all(target_os = "linux", target_env = "gnu")))]
    let glibc = Value::Null;
    let tunables = std::env::var("GLIBC_TUNABLES").unwrap_or_default();
    let hwcaps = tunables.split(':').find_map(|t| t.strip_prefix("glibc.cpu.hwcaps="));
    micro::obj(vec![("glibc", glibc), ("hwcaps", Value::from(hwcaps.unwrap_or("default")))])
}

/// `git rev-parse HEAD` of the working directory, with `-dirty` appended
/// when tracked files differ from it, or `unknown` outside a git checkout.
/// The driver reads it before any entry writes, so the artifacts it is
/// about to overwrite do not count as edits.
pub fn source_commit() -> String {
    let git = |args: &[&str]| {
        std::process::Command::new("git")
            .args(args)
            .output()
            .ok()
            .filter(|out| out.status.success())
            .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
    };
    let Some(head) = git(&["rev-parse", "HEAD"]) else { return "unknown".to_string() };
    match git(&["status", "--porcelain", "--untracked-files=no"]) {
        Some(changes) if changes.is_empty() => head,
        _ => format!("{head}-dirty"),
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
    /// Names what `tweak` sweeps (`0.05`, `none`, …; also the row's CSV cell),
    /// or a run on seeds of its own (`from_scratch`). Empty for table cells,
    /// which run the agent's standing configuration.
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
                        state.progress.curve.points.len(),
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
    /// One stdout row per benchmark, one line of `<name>.csv` per cell.
    Cells(Vec<(Benchmark, Vec<Cell>)>),
    /// A table that is not step times of placements per cell: `table` prints
    /// its own rows and returns the whole artifact, written to `file`, and
    /// whether the gate it checks held (`true` for a table without one).
    Whole { file: &'static str, table: fn(&Cli) -> (String, bool) },
}

/// One entry of the experiment table: a named table, figure set or sweep that
/// [`Experiment::run`] prints and writes to its artifact.
pub struct Experiment {
    /// Command-line name, and the file stem of a table of cells.
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

/// A table cell's run. Its seeds derive from `--seed` and are the same for
/// every cell, so the approaches of one table see identical noise.
fn trained(seed: u64, benchmark: Benchmark, agent: AgentKind, algo: Algo) -> RunSpec {
    let tweak: Tweak = if agent == AgentKind::HierarchicalPlanner { hp_budget } else { no_tweak };
    let (trainer_seed, env_seed) = (seed.wrapping_add(13), 1000 + seed);
    RunSpec { benchmark, agent, algo, label: "", trainer_seed, env_seed, tweak }
}

/// `transfer`'s from-scratch column: EAGLE(PPO) on the fine-tune's seeds
/// (the trainer's default 7, environment `2000 + seed`), not Table IV's.
fn from_scratch(seed: u64, benchmark: Benchmark) -> RunSpec {
    RunSpec {
        benchmark,
        agent: AgentKind::Eagle,
        algo: Algo::Ppo,
        label: "from_scratch",
        trainer_seed: 7,
        env_seed: 2000 + seed,
        tweak: no_tweak,
    }
}

/// A sweep: EAGLE(PPO) on GNMT under each labelled tweak. Its seeds derive
/// from `--seed`: the trainer's is `seed` itself, the environment's
/// `seed + env_offset`, one offset per sweep (34..=37, so `--seed 7` runs
/// the trainer's default 7 on environment seeds 41..=44).
fn sweep(seed: u64, env_offset: u64, values: &[(&'static str, Tweak)]) -> Rows {
    let (benchmark, agent, algo) = (Benchmark::Gnmt, AgentKind::Eagle, Algo::Ppo);
    let (trainer_seed, env_seed) = (seed, seed.wrapping_add(env_offset));
    let cell = |&(label, tweak): &(&'static str, Tweak)| {
        let spec = RunSpec { benchmark, agent, algo, label, trainer_seed, env_seed, tweak };
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
        let cell = |b, column, agent, algo| Cell {
            column,
            source: Source::Train(trained(seed, b, agent, algo)),
        };
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
                sweep(seed, 35, &[("ema", no_tweak), ("none", |c, _| c.use_baseline = false)]),
                no_curves,
            ),
            experiment(
                "ablation_entropy",
                "Ablation: entropy coefficient (paper: 0.01), EAGLE(PPO) on GNMT",
                "ent_coef",
                sweep(
                    seed,
                    36,
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
                    seed,
                    37,
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
                    seed,
                    34,
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
                Rows::Whole { file: "oracle.csv", table: oracle },
                no_curves,
            ),
            experiment(
                "transfer",
                "Transfer: a generalist over GraphGen(target_ops=48), zero-shot / fine-tuned / \
                 from scratch",
                "",
                Rows::Whole { file: "BENCH_transfer.json", table: transfer },
                no_curves,
            ),
            experiment(
                "telemetry_overhead",
                "Telemetry overhead: EAGLE(PPO) on Inception-V3, recorder off vs on",
                "",
                Rows::Whole { file: "BENCH_telemetry_overhead.json", table: telemetry_overhead },
                no_curves,
            ),
            experiment(
                "matmul",
                "Matmul kernels: streaming vs packed loops, gradient products, dispatch",
                "",
                Rows::Whole { file: "BENCH_matmul.json", table: micro::matmul },
                no_curves,
            ),
            experiment(
                "graph_scale",
                "Graph scale: GraphGen generate / validate / features / simulate at 10k-100k ops",
                "",
                Rows::Whole { file: "BENCH_graph_scale.json", table: micro::graph_scale },
                no_curves,
            ),
        ]
    }

    /// Parses `experiments <name>... | all [flags]`: the selected experiments,
    /// in table order, and the shared flags. An unknown name exits 2 with the
    /// known ones and the usage line.
    pub fn from_args() -> (Vec<Experiment>, Cli) {
        let (cli, names) = Cli::parse_args(std::env::args().skip(1))
            .unwrap_or_else(|problem| usage_exit(&problem));
        let mut all = Self::all(cli.seed);
        let known: Vec<&str> = all.iter().map(|e| e.name).collect();
        let known = format!("(experiments: {}, or all)", known.join(" "));
        if names.is_empty() {
            usage_exit(&format!("no experiment named {known}"));
        }
        let everything = names.iter().any(|n| n == "all");
        if let Some(unknown) =
            names.iter().find(|n| *n != "all" && !all.iter().any(|e| e.name == *n))
        {
            usage_exit(&format!("unknown experiment '{unknown}' {known}"));
        }
        all.retain(|e| everything || names.iter().any(|n| n == e.name));
        (all, cli)
    }

    /// Runs the experiment: prints its table and writes its artifact (plus the
    /// figure CSVs under `--curves`) into the output directory. Returns
    /// whether the table's gate held; the artifact is written either way.
    pub fn run(&self, cli: &Cli) -> bool {
        println!("{} (scale = {})", self.title, cli.scale_name);
        let (contents, held) = match &self.rows {
            Rows::Whole { table, .. } => table(cli),
            Rows::Cells(rows) => (self.run_cells(rows, cli), true),
        };
        cli.write_artifact(&self.artifacts(cli)[0], &contents);
        held
    }

    /// The files [`Experiment::run`] writes under `cli`'s flags: its table,
    /// then its figure CSVs.
    fn artifacts(&self, cli: &Cli) -> Vec<String> {
        match &self.rows {
            Rows::Whole { file, .. } => vec![file.to_string()],
            Rows::Cells(rows) => std::iter::once(format!("{}.csv", self.name))
                .chain(
                    rows.iter()
                        .filter_map(|(b, _)| (self.curves)(*b).filter(|_| cli.curves))
                        .map(String::from),
                )
                .collect(),
        }
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
fn oracle(cli: &Cli) -> (String, bool) {
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
    (csv, true)
}

/// Candidates per best-of-K evaluation in `transfer`, identical for policy and
/// random baseline so the comparison is budget-fair.
const CANDIDATES: usize = 8;

/// Held-out GraphGen graphs (never drawn by training) `transfer`'s gate runs on.
const HOLDOUT: usize = 2;

/// Best-of-K random placements: each op on a uniformly random device.
fn best_of_random(graph: &OpGraph, machine: &Machine, seed: u64) -> Option<f64> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let devices = machine.devices.len();
    let placements: Vec<Placement> = (0..CANDIDATES)
        .map(|_| {
            let devs =
                (0..graph.len()).map(|_| DeviceId(rng.gen_range(0..devices) as u8)).collect();
            Placement::new(devs)
        })
        .collect();
    let cost = CostGraph::new(graph, machine);
    placements.iter().filter_map(|p| cost.simulate(p).step_time()).min_by(f64::total_cmp)
}

/// JSON-friendly rendering: `null` when every candidate OOMed.
fn json_time(t: Option<f64>) -> String {
    t.map_or("null".to_string(), |t| format!("{t}"))
}

/// The `transfer` table: what training on a *distribution* of graphs buys.
/// Trains one generalist policy on a GraphGen distribution (with a held-out
/// split and zero-shot probes), then reports the GDP-style three columns on
/// the benchmarks:
///
/// * **zero-shot** — the generalist's best-of-K placement on a graph it never
///   trained on, no gradient steps;
/// * **fine-tuned-N** — the generalist's parameters warm-start N samples of
///   benchmark-specific training;
/// * **from-scratch-N** — the same N samples from random initialization.
///
/// Its gate (CI's generalist smoke): on every held-out GraphGen graph the
/// generalist's zero-shot best-of-K must beat a best-of-K **random**
/// placement (per-op uniform device; a candidate whose every placement OOMs
/// scores +inf).
fn transfer(cli: &Cli) -> (String, bool) {
    let machine = Machine::paper_machine();
    // Sources are pure functions of (config, seed): `make_source()` always
    // yields the identical distribution and holdout split, so the gate below
    // never sees a training graph.
    let make_source = || {
        GraphSource::generated(GraphGenConfig::with_target(48), cli.seed)
            .expect("valid generated source")
    };
    let source = make_source();
    let holdout_origins = source.holdout_origins(HOLDOUT);
    let seed_graph = source.build(&holdout_origins[0]);
    let gen_samples = cli.samples_for(Benchmark::InceptionV3);
    println!("  generalist: {gen_samples} samples, {HOLDOUT} graphs held out");

    let mut gen_params = Params::new();
    let mut rng = ChaCha8Rng::seed_from_u64(cli.seed);
    let agent = EagleAgent::new(&mut gen_params, &seed_graph, &machine, cli.scale, &mut rng);
    let trainer = Trainer::builder(make_source(), machine.clone())
        .config(TrainerConfig::paper(Algo::Ppo, gen_samples))
        .measure(MeasureConfig::default())
        .env_seed(1000 + cli.seed)
        .recorder(cli.recorder.clone())
        .holdout(HOLDOUT)
        .probe_every((gen_samples / 10).max(1))
        .probe_candidates(CANDIDATES)
        .build()
        .expect("valid generalist trainer config");
    let gen_result = trainer.train(&agent, &mut gen_params).expect("generalist training failed");
    println!(
        "  trained on {} distinct graphs, {} probes recorded",
        gen_result.graphs.len(),
        gen_result.curve.probes.len()
    );
    let fits = "the generalist's parameters fit every graph at its own scale";

    let mut gate_rows = Vec::new();
    let mut gate_ok = true;
    for (i, origin) in holdout_origins.iter().enumerate() {
        let graph = source.build(origin);
        let name = source.name(origin);
        let agent = EagleAgent::for_params(&gen_params, &graph, &machine, cli.scale).expect(fits);
        let draw = [(7000 + i as u64, CANDIDATES)];
        let zs = best_of(&agent, &gen_params, &graph, &machine, &draw).remove(0).map(|b| b.0);
        let rnd = best_of_random(&graph, &machine, 9000 + i as u64);
        // All-OOM scores +inf, so a feasible side always beats an infeasible one.
        let beats = zs.unwrap_or(f64::INFINITY) < rnd.unwrap_or(f64::INFINITY);
        gate_ok &= beats;
        println!(
            "  holdout {name}: zero-shot {} vs random {} -> {}",
            fmt_time(zs),
            fmt_time(rnd),
            if beats { "ok" } else { "FAIL" }
        );
        gate_rows.push(format!(
            r#"    {{"graph": "{name}", "ops": {}, "zero_shot": {}, "random": {}, "beats_random": {beats}}}"#,
            graph.len(),
            json_time(zs),
            json_time(rnd)
        ));
    }

    let mut rows = Vec::new();
    for b in Benchmark::ALL {
        let graph = b.graph_for(&machine);
        let n = cli.samples_for(b);
        let agent = EagleAgent::for_params(&gen_params, &graph, &machine, cli.scale).expect(fits);
        let draw = [(100 + cli.seed, CANDIDATES)];
        let zero_shot =
            best_of(&agent, &gen_params, &graph, &machine, &draw).remove(0).map(|b| b.0);
        // Fine-tune: the same agent, parameters warm-started from the
        // generalist (ids align by construction order).
        let mut ft_params = gen_params.clone();
        let ft = Trainer::builder(GraphSource::fixed(graph.clone()), machine.clone())
            .config(TrainerConfig::paper(Algo::Ppo, n))
            .measure(MeasureConfig::default())
            .env_seed(2000 + cli.seed)
            .recorder(cli.recorder.clone())
            .build()
            .expect("valid fine-tune trainer config")
            .train(&agent, &mut ft_params)
            .expect("fine-tune training failed");
        let fs = run(&from_scratch(cli.seed, b), cli);
        println!(
            "  {b:?}: zero-shot {} | fine-tuned-{n} {} | from-scratch-{n} {}",
            fmt_time(zero_shot),
            fmt_time(ft.final_step_time),
            fmt_time(fs.final_step_time)
        );
        rows.push(format!(
            r#"    {{"benchmark": "{b:?}", "samples": {n}, "zero_shot": {}, "fine_tuned": {}, "from_scratch": {}}}"#,
            json_time(zero_shot),
            json_time(ft.final_step_time),
            json_time(fs.final_step_time)
        ));
    }
    if !gate_ok {
        eprintln!("generalist gate FAILED: zero-shot lost to random placement on a held-out graph");
    }
    let json = format!(
        "{{\n  \"scale\": \"{}\",\n  \"seed\": {},\n  \"candidates\": {CANDIDATES},\n  \
         \"generalist_samples\": {gen_samples},\n  \"distinct_training_graphs\": {},\n  \
         \"holdout\": [\n{}\n  ],\n  \"benchmarks\": [\n{}\n  ],\n  \
         \"gate_zero_shot_beats_random\": {gate_ok}\n}}\n",
        cli.scale_name,
        cli.seed,
        gen_result.graphs.len(),
        gate_rows.join(",\n"),
        rows.join(",\n")
    );
    (json, gate_ok)
}

/// The `telemetry_overhead` table: the host-time cost of telemetry, as Table
/// IV's EAGLE(PPO) run on Inception-V3 with the recorder off vs on, two
/// [`micro::bench`] columns over three rounds. Its gate is the determinism
/// contract: identical curves either way. The budget is <2% (DESIGN.md,
/// "Telemetry"). `--samples` sets each run's budget (default 200); the timed
/// runs never checkpoint. Each timing is the whole [`run`], graph and agent
/// construction included — the same cost in both modes.
fn telemetry_overhead(cli: &Cli) -> (String, bool) {
    let samples = cli.samples_override.unwrap_or(200);
    println!("  {samples} samples/run");
    let spec = trained(cli.seed, Benchmark::InceptionV3, AgentKind::Eagle, Algo::Ppo);
    let (off, on) = (RefCell::new(None), RefCell::new(None));
    let timed = |recorder: Recorder, result: &RefCell<Option<TrainResult>>| {
        let cli =
            Cli { samples_override: Some(samples), recorder, checkpoint_dir: None, ..cli.clone() };
        *result.borrow_mut() = Some(run(&spec, &cli));
    };
    let reps = 3;
    let [off_elapsed, on_elapsed] = micro::bench(
        reps,
        1,
        [&|| timed(Recorder::disabled(), &off), &|| timed(Recorder::new(), &on)],
    );
    let (off, on) = (off.into_inner().expect("ran"), on.into_inner().expect("ran"));

    // Observation-only contract: recording may not change the training run.
    let identical =
        off.curve.points == on.curve.points && off.final_step_time == on.final_step_time;
    if !identical {
        eprintln!("telemetry gate FAILED: enabling telemetry changed the training run");
    }

    let overhead_pct = 100.0 * (on_elapsed - off_elapsed) / off_elapsed;
    println!("  recorder off: {off_elapsed:>7.2}s  (best of {reps})");
    println!("  recorder on : {on_elapsed:>7.2}s  (best of {reps})");
    println!("  overhead    : {overhead_pct:>+7.2}%  (budget <2%)");

    let doc = micro::obj(vec![
        ("bench", Value::from("telemetry_overhead")),
        ("scale", Value::from(cli.scale_name.as_str())),
        ("seed", Value::U64(cli.seed)),
        ("samples", Value::U64(samples as u64)),
        ("reps", Value::U64(reps as u64)),
        ("off_elapsed_sec", Value::from(off_elapsed)),
        ("on_elapsed_sec", Value::from(on_elapsed)),
        ("overhead_pct", Value::from(overhead_pct)),
        ("curves_identical", Value::Bool(identical)),
        ("final_step_time", off.final_step_time.map_or(Value::Null, Value::from)),
    ]);
    (serde_json::to_string(&doc).expect("serialize"), identical)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    /// `(experiment, trainer_seed, env_seed)` of every trained ablation cell.
    fn ablation_seeds(seed: u64) -> Vec<(&'static str, u64, u64)> {
        let all = Experiment::all(seed);
        let ablations = all.iter().filter(|e| e.name.starts_with("ablation_"));
        let cells = ablations.flat_map(|e| match &e.rows {
            Rows::Cells(rows) => {
                rows.iter().flat_map(|(_, cells)| cells).map(|c| (e.name, c)).collect()
            }
            Rows::Whole { .. } => Vec::new(),
        });
        cells
            .filter_map(|(name, cell)| match &cell.source {
                Source::Train(s) => Some((name, s.trainer_seed, s.env_seed)),
                Source::Fixed(_) => None,
            })
            .collect()
    }

    #[test]
    fn ablation_seeds_follow_the_seed_flag() {
        let at7 = ablation_seeds(7);
        // `--seed 7` keeps the seeds the committed ablation CSVs were run on.
        let expected = |name| match name {
            "ablation_baseline" => 42,
            "ablation_entropy" => 43,
            "ablation_groups" => 44,
            "ablation_reward" => 41,
            other => panic!("unexpected ablation {other}"),
        };
        assert_eq!(at7.len(), 2 + 4 + 4 + 3);
        for &(name, trainer_seed, env_seed) in &at7 {
            assert_eq!((trainer_seed, env_seed), (7, expected(name)), "{name}");
        }
        let at8 = ablation_seeds(8);
        assert_eq!(at8.len(), at7.len());
        for (&(name, t7, e7), &(_, t8, e8)) in at7.iter().zip(&at8) {
            assert!(t8 != t7 && e8 != e7, "{name} ignores --seed");
        }
    }

    #[test]
    fn rows_share_a_checkpoint_slug_only_if_they_are_the_same_run() {
        let all = Experiment::all(7);
        let mut seen = HashMap::new();
        let mut specs = 0;
        let cells = all.iter().flat_map(|e| match &e.rows {
            Rows::Cells(rows) => rows.iter().flat_map(|(_, cells)| cells).collect(),
            Rows::Whole { .. } => Vec::new(),
        });
        let table_specs = cells.filter_map(|cell| match &cell.source {
            Source::Train(s) => Some(s.clone()),
            Source::Fixed(_) => None,
        });
        for s in table_specs.chain(Benchmark::ALL.map(|b| from_scratch(7, b))) {
            specs += 1;
            let run = (s.benchmark, s.agent, s.algo, s.trainer_seed, s.env_seed, s.label);
            let first = *seen.entry(s.slug()).or_insert(run);
            assert_eq!(first, run, "slug {} names two different runs", s.slug());
        }
        assert_eq!(specs, 9 + 9 + 9 + 12 + 2 + 4 + 4 + 3 + 3);
        // Table rows keep the slug existing checkpoints were written under;
        // the four values of a sweep get one each, and so does `transfer`'s
        // from-scratch column.
        assert!(seen.contains_key("bert-base-hp-ppo") && seen.contains_key("gnmt-post-ppo-ce"));
        assert!(seen.contains_key("gnmt-eagle-ppo") && seen.contains_key("gnmt-eagle-ppo-0-05"));
        assert!(seen.contains_key("gnmt-eagle-ppo-from-scratch"));
    }
}
