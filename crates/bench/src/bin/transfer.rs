//! Transfer bench: what does training on a *distribution* of graphs buy?
//!
//! Trains one generalist policy on a GraphGen distribution (with a held-out
//! split and zero-shot probes), then builds the GDP-style three-column table
//! on the hand benchmarks:
//!
//! * **zero-shot** — the generalist's best-of-K placement on a graph it never
//!   trained on, no gradient steps;
//! * **fine-tuned-N** — the generalist's parameters warm-start N samples of
//!   benchmark-specific training;
//! * **from-scratch-N** — the same N samples from random initialization.
//!
//! The run doubles as the CI generalist-smoke gate: on every held-out
//! GraphGen graph, the generalist's zero-shot best-of-K must beat a
//! best-of-K **random** placement baseline (per-op uniform device; a
//! candidate whose every placement OOMs scores +inf). The process exits
//! non-zero when the gate fails, so CI turns red on a regressed generalist.
//!
//! Artifact: `BENCH_transfer.json` in `--out`.

use eagle_bench::{fmt_time, Cli};
use eagle_core::infer::best_of;
use eagle_core::{Algo, EagleAgent, GraphSource, Trainer, TrainerConfig};
use eagle_devsim::{step_times, Benchmark, DeviceId, Machine, MeasureConfig, Placement};
use eagle_opgraph::{GraphGenConfig, OpGraph};
use eagle_tensor::Params;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Candidates per best-of-K evaluation, identical for policy and random
/// baseline so the comparison is budget-fair.
const CANDIDATES: usize = 8;

/// Held-out GraphGen graphs (never drawn by training) the smoke gate runs on.
const HOLDOUT: usize = 2;

/// The (graph-independent) agent architecture rebuilt around the generalist's
/// trained parameters for `graph`.
fn generalist_on(
    params: &Params,
    graph: &OpGraph,
    machine: &Machine,
    scale: eagle_core::AgentScale,
) -> EagleAgent {
    EagleAgent::for_params(params, graph, machine, scale)
        .expect("the generalist's parameters fit every graph at its own scale")
}

/// The policy's zero-shot best-of-K step time on `graph`: one seeded draw of
/// K candidates, no gradient steps.
fn best_of_policy(
    agent: &EagleAgent,
    params: &Params,
    graph: &OpGraph,
    machine: &Machine,
    seed: u64,
) -> Option<f64> {
    let best = best_of(agent, params, graph, machine, &[(seed, CANDIDATES)], 1).remove(0);
    best.map(|(t, _)| t)
}

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
    step_times(graph, machine, &placements, 1).into_iter().flatten().min_by(f64::total_cmp)
}

/// JSON-friendly rendering: `null` when every candidate OOMed.
fn json_time(t: Option<f64>) -> String {
    t.map_or("null".to_string(), |t| format!("{t}"))
}

fn main() {
    let cli = Cli::parse();
    let machine = Machine::paper_machine();

    // One GraphGen distribution for training and holdout; the split is a pure
    // function of (config, seed), so the gate below never sees a training
    // graph.
    // Sources are pure functions of (config, seed): `make_source()` always
    // yields the identical distribution and holdout split.
    let make_source = || {
        GraphSource::generated(GraphGenConfig::with_target(48), cli.seed)
            .expect("valid generated source")
    };
    let source = make_source();
    let holdout_origins = source.holdout_origins(HOLDOUT);
    let seed_graph = source.build(&holdout_origins[0]);

    let gen_samples = cli.samples_for(Benchmark::InceptionV3);
    println!(
        "Transfer: generalist over GraphGen(target_ops=48), {gen_samples} samples, \
         {HOLDOUT} held out (scale = {})",
        cli.scale_name
    );

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

    // --- CI gate: zero-shot beats random on every held-out graph. ----------
    let mut gate_rows = Vec::new();
    let mut gate_ok = true;
    for (i, origin) in holdout_origins.iter().enumerate() {
        let graph = source.build(origin);
        let name = source.name(origin);
        let agent = generalist_on(&gen_params, &graph, &machine, cli.scale);
        let zs = best_of_policy(&agent, &gen_params, &graph, &machine, 7000 + i as u64);
        let rnd = best_of_random(&graph, &machine, 9000 + i as u64);
        // All-OOM scores +inf, so a feasible side always beats an infeasible one.
        let zs_v = zs.unwrap_or(f64::INFINITY);
        let rnd_v = rnd.unwrap_or(f64::INFINITY);
        let beats = zs_v < rnd_v;
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

    // --- The three-column table on the hand benchmarks. --------------------
    let mut rows = Vec::new();
    for b in [Benchmark::InceptionV3, Benchmark::Gnmt, Benchmark::BertBase] {
        let graph = b.graph_for(&machine);
        let n = cli.samples_for(b);

        let agent = generalist_on(&gen_params, &graph, &machine, cli.scale);
        let zero_shot = best_of_policy(&agent, &gen_params, &graph, &machine, 100 + cli.seed);

        // Fine-tune: the same agent, parameters warm-started from the
        // generalist (ids align by construction order).
        let bench_trainer = |env_seed: u64| {
            Trainer::builder(GraphSource::fixed(graph.clone()), machine.clone())
                .config(TrainerConfig::paper(Algo::Ppo, n))
                .measure(MeasureConfig::default())
                .env_seed(env_seed)
                .recorder(cli.recorder.clone())
                .build()
                .expect("valid benchmark trainer config")
        };
        let mut ft_params = gen_params.clone();
        let ft = bench_trainer(2000 + cli.seed)
            .train(&agent, &mut ft_params)
            .expect("fine-tune training failed");

        let mut fs_params = Params::new();
        let mut rng = ChaCha8Rng::seed_from_u64(cli.seed);
        let fs_agent = EagleAgent::new(&mut fs_params, &graph, &machine, cli.scale, &mut rng);
        let fs = bench_trainer(2000 + cli.seed)
            .train(&fs_agent, &mut fs_params)
            .expect("from-scratch training failed");

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
    cli.write_artifact("BENCH_transfer.json", &json);
    cli.finish_metrics("transfer");

    if !gate_ok {
        eprintln!("generalist gate FAILED: zero-shot lost to random placement on a held-out graph");
        std::process::exit(1);
    }
}
