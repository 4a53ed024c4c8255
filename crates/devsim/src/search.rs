//! A classical search baseline over the placement space: simulated annealing
//! on grouped placements, plus the topological chunking it searches over.
//!
//! This is not a paper baseline — the paper compares against RL agents — but it
//! certifies the optimization landscape: the annealing result is a practical lower
//! bound ("oracle") that EXPERIMENTS.md reports next to the learned placements, and
//! the tests use it to prove the headroom the RL agents are expected to find.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use eagle_opgraph::OpGraph;

use crate::cost::CostGraph;
use crate::device::{DeviceId, Machine};
use crate::placement::Placement;

/// Result of a search run.
#[derive(Debug, Clone)]
pub struct SearchResult {
    /// Best per-step time found (`None` if every evaluated placement OOMed).
    pub best_time: Option<f64>,
    /// The best placement.
    pub best_placement: Option<Placement>,
    /// Number of simulator evaluations spent.
    pub evals: usize,
}

fn eval(cost: &CostGraph, group_of: &[usize], gd: &[DeviceId]) -> f64 {
    cost.simulate(&Placement::from_groups(group_of, gd)).step_time().unwrap_or(f64::INFINITY)
}

/// Simulated annealing with a geometric temperature schedule proportional to the
/// current objective. The strongest classical baseline here; used as the
/// landscape "oracle" in EXPERIMENTS.md. One [`CostGraph`] serves the whole
/// search.
pub fn simulated_annealing(
    graph: &OpGraph,
    machine: &Machine,
    group_of: &[usize],
    iters: usize,
    seed: u64,
) -> SearchResult {
    let k = group_of.iter().copied().max().map_or(0, |m| m + 1);
    let nd = machine.num_devices() as u8;
    let cost = CostGraph::new(graph, machine);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut gd: Vec<DeviceId> = (0..k).map(|_| DeviceId(rng.gen_range(0..nd))).collect();
    let mut cur = eval(&cost, group_of, &gd);
    let mut best = cur;
    let mut best_gd = gd.clone();
    for i in 0..iters {
        let progress = i as f64 / iters.max(1) as f64;
        let temp = 0.3 * (1.0 - progress).powi(2) * cur.min(1e3) + 1e-9;
        let gi = rng.gen_range(0..k);
        let old = gd[gi];
        gd[gi] = DeviceId(rng.gen_range(0..nd));
        let t = eval(&cost, group_of, &gd);
        let accept = t < cur || (t.is_finite() && rng.gen::<f64>() < ((cur - t) / temp).exp());
        if accept {
            cur = t;
            if t < best {
                best = t;
                best_gd = gd.clone();
            }
        } else {
            gd[gi] = old;
        }
    }
    let found = best.is_finite();
    SearchResult {
        best_time: found.then_some(best),
        best_placement: found.then(|| Placement::from_groups(group_of, &best_gd)),
        evals: iters + 1,
    }
}

/// Topologically contiguous equal chunks — the standard structured grouping for
/// search baselines (and EAGLE's grouper warm start).
pub fn topo_chunks(graph: &OpGraph, k: usize) -> Vec<usize> {
    let n = graph.len();
    let k = k.min(n).max(1);
    let order = graph.topo_order();
    let mut group_of = vec![0usize; n];
    for (pos, id) in order.iter().enumerate() {
        group_of[id.index()] = pos * k / n;
    }
    group_of
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benchmarks::Benchmark;
    use crate::predefined;
    use crate::sim::simulate;

    #[test]
    fn searches_find_valid_placements_on_gnmt() {
        let machine = Machine::paper_machine();
        let graph = Benchmark::Gnmt.graph_for(&machine);
        let groups = topo_chunks(&graph, 24);
        let r = simulated_annealing(&graph, &machine, &groups, 50, 1);
        assert!(r.best_time.is_some(), "50 annealing steps find a valid placement");
        assert_eq!(r.evals, 51, "the starting placement counts as an evaluation");
    }

    #[test]
    fn best_placement_reproduces_best_time() {
        let machine = Machine::paper_machine();
        let graph = Benchmark::InceptionV3.graph_for(&machine);
        let groups = topo_chunks(&graph, 8);
        let r = simulated_annealing(&graph, &machine, &groups, 200, 4);
        let p = r.best_placement.expect("valid found");
        let t = simulate(&graph, &machine, &p).step_time().expect("valid");
        assert!((t - r.best_time.unwrap()).abs() < 1e-12);
    }

    #[test]
    fn topo_chunks_are_contiguous_and_balanced() {
        let machine = Machine::paper_machine();
        let graph = Benchmark::Gnmt.graph_for(&machine);
        let k = 10;
        let groups = topo_chunks(&graph, k);
        let mut counts = vec![0usize; k];
        for &g in &groups {
            counts[g] += 1;
        }
        let min = *counts.iter().min().unwrap();
        let max = *counts.iter().max().unwrap();
        assert!(max - min <= graph.len() / k, "roughly equal chunks: {counts:?}");
        // Respect topological order: group index is monotone along the topo order.
        let order = graph.topo_order();
        let mut prev = 0;
        for id in order {
            assert!(groups[id.index()] >= prev);
            prev = groups[id.index()];
        }
    }

    #[test]
    fn single_gpu_is_near_optimal_for_inception() {
        // The paper's core Inception observation: communication outweighs
        // parallelism at batch 1, so search barely improves on one GPU.
        let machine = Machine::paper_machine();
        let graph = Benchmark::InceptionV3.graph_for(&machine);
        let single = simulate(&graph, &machine, &predefined::single_gpu(&graph, &machine))
            .step_time()
            .unwrap();
        let groups = topo_chunks(&graph, 24);
        let sa = simulated_annealing(&graph, &machine, &groups, 2000, 5);
        let best = sa.best_time.unwrap();
        assert!(
            best > single * 0.5,
            "no placement should be dramatically better than one GPU: {best} vs {single}"
        );
    }
}
