//! The one experiment driver: `experiments <name>... | all [flags]` runs the
//! named entries of [`eagle_bench::Experiment::all`] — `table1`..`table4`,
//! `ablation_{baseline,entropy,groups,reward}`, `oracle` — each printing its
//! table and writing `<name>.csv` (see the crate docs for the shared flags).

use eagle_bench::Experiment;

fn main() {
    let (experiments, cli) = Experiment::from_args();
    for experiment in &experiments {
        experiment.run(&cli);
        println!();
    }
    let names: Vec<&str> = experiments.iter().map(|e| e.name).collect();
    cli.finish_metrics(&names.join("+"));
}
