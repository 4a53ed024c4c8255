//! The one experiment driver: `experiments <name>... | all [flags]` runs the
//! named entries of [`eagle_bench::Experiment::all`] — `table1`..`table4`,
//! `ablation_{baseline,entropy,groups,reward}`, `oracle`, `transfer`,
//! `telemetry_overhead`, `matmul`, `graph_scale` — each printing its table and writing its artifact
//! (see the crate docs for the shared flags), then records how each artifact
//! was made in `MANIFEST.json` of the output directory. Exits 1 after every
//! named entry has run if any entry's gate failed.

use eagle_bench::Experiment;

fn main() {
    let (experiments, cli) = Experiment::from_args();
    let commit = eagle_bench::source_commit();
    let mut gates_held = true;
    for experiment in &experiments {
        gates_held &= experiment.run(&cli);
        println!();
    }
    let command: Vec<String> =
        std::iter::once("experiments".to_string()).chain(std::env::args().skip(1)).collect();
    cli.write_manifest(&experiments, &commit, &command.join(" "));
    let names: Vec<&str> = experiments.iter().map(|e| e.name).collect();
    cli.finish_metrics(&names.join("+"));
    if !gates_held {
        std::process::exit(1);
    }
}
