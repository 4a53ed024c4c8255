//! The repo's benchmark: one workload per process, outputs checked, every
//! metric printed by name with its unit. See README.md for the workloads and
//! the metric -> layer -> end-to-end map, `../BENCHMARK.json` for the contract.
//!
//! ```text
//! perf --workload <name> --seed <u64> --seconds <n> --trace <0|1>
//! perf --workload <name> --seed <u64> --trace <0|1> --smoke
//! ```
//!
//! `--trace 0` runs the workload untraced and prints the end-to-end metrics;
//! `--trace 1` runs its traced twin, prints the per-layer metrics and writes the
//! spans to `out/trace_<workload>.json`. The last line of standard output is
//! the result as one JSON object.

mod harness;
mod serve;
mod sim;
mod train;

use std::time::Instant;

use harness::{
    median, nproc, quantile, workers, Outcome, Size, Spec, Tracer, END_TO_END, PER_LAYER,
};

const WORKLOADS: &[&str] = &["train_gnmt", "paper_step", "sim_miss", "sim_hit", "serve_mix"];

/// What a traced run must account for and may cost; outside either, it fails.
const MIN_TRACED_SHARE: f64 = 0.85;
const MAX_TRACE_OVERHEAD: f64 = 0.05;
/// Traced / untraced pairs below which the overhead is reported, not gated.
const MIN_PAIRS: usize = 4;

struct Args {
    workload: String,
    seed: u64,
    size: Size,
    trace: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: perf --workload <{}> --seed <u64> --trace <0|1> (--seconds <n> | --smoke)",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace, mut smoke) =
        (None, 1u64, 20.0, false, false);
    let mut i = 0;
    while i < argv.len() {
        if argv[i] == "--smoke" {
            smoke = true;
            i += 1;
            continue;
        }
        let Some(value) = argv.get(i + 1) else { usage() };
        match argv[i].as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => seconds = value.parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            _ => usage(),
        }
        i += 2;
    }
    let Some(workload) = workload.filter(|w| WORKLOADS.contains(&w.as_str())) else { usage() };
    if !(seconds > 0.0 && seconds <= 60.0) {
        usage();
    }
    let size = if smoke { Size::SMOKE } else { Size { seconds, smoke } };
    Args { workload, seed, size, trace }
}

fn git_commit() -> String {
    let git = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown (no .git)".into();
    };
    let head = head.trim();
    head.strip_prefix("ref: ")
        .and_then(|r| std::fs::read_to_string(git.join(r)).ok())
        .map_or_else(|| head.to_string(), |s| s.trim().to_string())
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string())
}

/// Prints the named metrics and returns them as the JSON `metrics` object.
/// Exits non-zero if the workload's metrics are not exactly the table's.
fn report(table: &[Spec], out: &Outcome) -> String {
    let mut json = Vec::new();
    for spec in table {
        let values: Vec<f64> =
            out.metrics.iter().filter(|(n, _)| *n == spec.name).map(|(_, v)| *v).collect();
        let [value] = values[..] else {
            eprintln!("metric {} emitted {} times", spec.name, values.len());
            std::process::exit(1);
        };
        if !value.is_finite() {
            eprintln!("metric {} is not finite: {value}", spec.name);
            std::process::exit(1);
        }
        println!("{:<32} {value:>16.6} {}", spec.name, spec.unit);
        json.push(format!(
            "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            spec.name, spec.unit
        ));
    }
    if let Some((stray, _)) = out.metrics.iter().find(|(n, _)| !table.iter().any(|s| s.name == *n))
    {
        eprintln!("metric {stray} is in no table");
        std::process::exit(1);
    }
    format!("{{{}}}", json.join(", "))
}

/// The traced run of one workload.
fn trace(w: &str, seed: u64, size: Size, tr: &mut Tracer) -> Outcome {
    match w {
        "train_gnmt" => train::trace(&train::Spec::train_gnmt(size), seed, size, tr),
        "paper_step" => train::trace(&train::Spec::paper_step(size), seed, size, tr),
        "sim_miss" => sim::trace_miss(seed, size, tr),
        "sim_hit" => sim::trace_hit(seed, size, tr),
        _ => serve::trace(seed, size, tr),
    }
}

/// A traced run reports every per-layer metric, also those of layers its own
/// workload never calls: these are measured here by the smoke-size trace of a
/// workload that does call them (its checks count too), so that no figure is
/// a placeholder. Between them these four measure everything; `paper_step`
/// measures what `train_gnmt` does.
fn fill_other_layers(out: &mut Outcome, primary: &str, seed: u64) {
    let measured = |out: &Outcome, name: &str| out.metrics.iter().any(|(n, _)| *n == name);
    for other in ["sim_miss", "sim_hit", "serve_mix", "train_gnmt"] {
        if other == primary || PER_LAYER.iter().all(|s| measured(out, s.name)) {
            continue;
        }
        let fill = trace(other, seed, Size::SMOKE, &mut Tracer::new());
        out.attempted += fill.attempted;
        out.failed += fill.failed;
        let mut names = Vec::new();
        for (name, value) in fill.metrics {
            if !measured(out, name) {
                out.set(name, value);
                names.push(name);
            }
        }
        println!("measured by {other} at smoke size: {}", names.join(", "));
    }
}

fn main() {
    if cfg!(debug_assertions) {
        eprintln!("perf measures optimized builds only: build with --release");
        std::process::exit(2);
    }
    let args = parse_args();
    let (nproc, workers) = (nproc(), workers());
    // One worker count for every pool the crates size off the host.
    eagle_obs::set_available_workers(workers);
    println!(
        "perf: workload {} seed {} seconds {} trace {} smoke {}",
        args.workload, args.seed, args.size.seconds, args.trace as u8, args.size.smoke
    );
    println!(
        "host: nproc {nproc}, workers {workers}, {}, commit {}",
        rustc_version(),
        git_commit()
    );

    let (w, seed, size) = (args.workload.as_str(), args.seed, args.size);
    let started = Instant::now();
    let out = if args.trace {
        let mut tr = Tracer::new();
        let mut out = trace(w, seed, size, &mut tr);
        out.set("opgraph.build_s", tr.total("opgraph.build"));
        out.set("opgraph.features_s", tr.total("opgraph.features"));
        let traced_share = tr.traced_share();
        out.set("obs.traced_share", traced_share);
        out.check(traced_share >= MIN_TRACED_SHARE, || {
            format!(
                "named spans cover {traced_share:.3} of the traced run, under {MIN_TRACED_SHARE}"
            )
        });
        // The median pair is the figure; the run fails only when three
        // quarters of the pairs agree that tracing cost too much, which a
        // slow second on one side of a few pairs cannot bring about. Every
        // full-size run has six pairs or more; a smoke-size run of one or two
        // has no quartile to speak of and is not held to it.
        let overhead = median(&out.trace_pairs) - 1.0;
        let agreed = quantile(&out.trace_pairs, 0.25) - 1.0;
        out.set("obs.trace_overhead_share", overhead);
        println!(
            "tracing overhead: median {overhead:.4} over {} traced / untraced pairs, lower quartile {agreed:.4}",
            out.trace_pairs.len()
        );
        if out.trace_pairs.len() >= MIN_PAIRS {
            out.check(agreed <= MAX_TRACE_OVERHEAD, || {
                format!("tracing cost over {MAX_TRACE_OVERHEAD} of the untraced time in three quarters of the pairs")
            });
        }
        // Shares among the repo's layers; the benchmark's own work is apart.
        let layers = tr.self_time_by_layer();
        let repo_s: f64 = layers.iter().filter(|(l, _)| *l != "perf").map(|(_, t)| t).sum();
        let shares: Vec<String> = layers
            .iter()
            .map(|(layer, t)| match *layer {
                "perf" => format!("(perf itself {t:.3} s)"),
                _ => format!("{layer} {:.1}%", 100.0 * t / repo_s),
            })
            .collect();
        println!("traced self time by layer: {}", shares.join(", "));
        match tr.write(w) {
            Ok(path) => println!("trace: {}", path.display()),
            Err(e) => {
                eprintln!("cannot write the trace: {e}");
                std::process::exit(1);
            }
        }
        fill_other_layers(&mut out, w, seed);
        out
    } else {
        match w {
            "train_gnmt" => train::run(&train::Spec::train_gnmt(size), seed, size),
            "paper_step" => train::run(&train::Spec::paper_step(size), seed, size),
            "sim_miss" => sim::run_miss(seed, size),
            "sim_hit" => sim::run_hit(seed, size),
            _ => serve::run(seed, size),
        }
    };
    for note in &out.notes {
        println!("{note}");
    }
    println!(
        "checked: {} attempted, {} failed (failed share {:.6}); wall {:.2} s",
        out.attempted,
        out.failed,
        out.failed as f64 / out.attempted.max(1) as f64,
        started.elapsed().as_secs_f64()
    );
    let metrics = report(if args.trace { PER_LAYER } else { END_TO_END }, &out);
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        out.failed == 0,
        out.attempted.max(1),
        out.failed
    );
    if out.failed > 0 {
        std::process::exit(1);
    }
}
