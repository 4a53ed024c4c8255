//! Heuristic groupers under the microscope (the paper's Sec. III-B study).
//!
//! ```sh
//! cargo run --release --example heuristic_vs_learned
//! ```
//!
//! Runs the METIS-style multilevel partitioner and the NetworkX-style fluid
//! communities algorithm on all three benchmark graphs, reporting edge cut, balance
//! and how a simple device-striping of their groups performs in the simulator —
//! the raw material behind Table I's comparison.

use eagle::devsim::{Benchmark, DeviceId, Machine, Placement, SimOutcome};
use eagle::partition::{
    fluid::FluidCommunities, metis_like::MetisLike, metrics, Partitioner, WeightedGraph,
};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

fn main() {
    let machine = Machine::paper_machine();
    let k = 32;
    println!("groupers on k = {k} groups; striping groups over devices round-robin\n");
    for b in Benchmark::ALL {
        let graph = b.graph_for(&machine);
        let weighted = WeightedGraph::from_op_graph(&graph);
        println!("== {} ({} ops, {} edges)", b.name(), graph.len(), graph.num_edges());

        let metis = MetisLike::default().partition(&graph, k);
        let fluid = FluidCommunities::default().partition(&graph, k);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let random: Vec<usize> = (0..graph.len()).map(|_| rng.gen_range(0..k)).collect();

        for (name, assign) in [("METIS", &metis), ("Networkx", &fluid), ("random", &random)] {
            let cut_gib = metrics::cut_bytes(&graph, assign) as f64 / (1u64 << 30) as f64;
            let balance = metrics::balance(&weighted, assign, k);
            // Stripe groups across GPUs (a crude but deterministic placement of the
            // grouping, isolating grouping quality from placer learning).
            let gpus = machine.gpu_ids();
            let devices: Vec<DeviceId> = (0..k).map(|g| gpus[g % gpus.len()]).collect();
            let placement = Placement::from_groups(assign, &devices);
            let step = match eagle::devsim::simulate(&graph, &machine, &placement) {
                SimOutcome::Valid(s) => format!("{:.3} s/step", s.step_time),
                SimOutcome::Oom { .. } => "OOM".to_string(),
            };
            println!(
                "  {name:<9} cut {cut_gib:>7.2} GiB/step  balance {balance:>5.2}  striped: {step}"
            );
        }
        println!();
    }
    println!(
        "(the learned feed-forward grouper comparison is `cargo run -p eagle-bench --bin experiments -- table1`)"
    );
}
