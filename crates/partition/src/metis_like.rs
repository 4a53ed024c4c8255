//! METIS-style multilevel k-way partitioning.
//!
//! The classic three phases (Karypis & Kumar '98):
//! 1. **Coarsening** — heavy-edge matching repeatedly contracts the graph until it is
//!    small relative to `k`.
//! 2. **Initial partitioning** — greedy region growing over the coarsest graph,
//!    seeding groups round-robin and growing along heavy edges under a balance cap.
//! 3. **Uncoarsening + refinement** — project the assignment back level by level,
//!    running boundary Fiduccia–Mattheyses-style moves at each level.

use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::{Partitioner, WeightedGraph};

/// Multilevel k-way partitioner (the paper's "METIS" grouper).
#[derive(Debug, Clone)]
pub struct MetisLike {
    /// RNG seed (tie-breaking during matching and refinement order).
    pub seed: u64,
    /// Allowed imbalance: a group may carry up to `(1 + epsilon) * total / k`.
    pub epsilon: f64,
    /// Refinement passes per level.
    pub refine_passes: usize,
}

impl Default for MetisLike {
    fn default() -> Self {
        Self { seed: 1, epsilon: 0.30, refine_passes: 6 }
    }
}

impl Partitioner for MetisLike {
    fn partition(&self, graph: &eagle_opgraph::OpGraph, k: usize) -> Vec<usize> {
        let w = WeightedGraph::from_op_graph(graph);
        partition_weighted(&w, k, self)
    }
}

/// Partitions a pre-built weighted graph (exposed for tests and reuse).
pub fn partition_weighted(w: &WeightedGraph, k: usize, cfg: &MetisLike) -> Vec<usize> {
    let n = w.len();
    if n == 0 {
        return Vec::new();
    }
    let k = k.max(1).min(n);
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);

    // --- Phase 1: coarsen.
    let mut levels: Vec<(WeightedGraph, Vec<usize>)> = Vec::new(); // (graph, map fine->coarse)
    let mut current = w.clone();
    let target = (4 * k).max(64);
    while current.len() > target {
        let (coarse, map) = coarsen_once(&current, &mut rng);
        if coarse.len() as f64 > current.len() as f64 * 0.95 {
            break; // matching stalled; stop coarsening
        }
        levels.push((current, map));
        current = coarse;
    }

    // --- Phase 2: initial partition of the coarsest graph.
    let mut assign = initial_partition(&current, k, cfg.epsilon, &mut rng);
    refine(&current, &mut assign, k, cfg, &mut rng);

    // --- Phase 3: uncoarsen + refine.
    while let Some((fine, map)) = levels.pop() {
        let mut fine_assign = vec![0usize; fine.len()];
        for (v, &c) in map.iter().enumerate() {
            fine_assign[v] = assign[c];
        }
        assign = fine_assign;
        refine(&fine, &mut assign, k, cfg, &mut rng);
    }
    assign
}

/// One round of heavy-edge matching; returns the contracted graph and the
/// fine-to-coarse vertex map.
fn coarsen_once(w: &WeightedGraph, rng: &mut ChaCha8Rng) -> (WeightedGraph, Vec<usize>) {
    let n = w.len();
    let mut order: Vec<usize> = (0..n).collect();
    order.shuffle(rng);
    let mut matched = vec![usize::MAX; n];
    let mut next_coarse = 0usize;
    for &v in &order {
        if matched[v] != usize::MAX {
            continue;
        }
        // Heaviest unmatched neighbor.
        let mut best: Option<(usize, f64)> = None;
        for &(u, ew) in &w.adj[v] {
            if matched[u] == usize::MAX && u != v && best.is_none_or(|(_, bw)| ew > bw) {
                best = Some((u, ew));
            }
        }
        let c = next_coarse;
        next_coarse += 1;
        matched[v] = c;
        if let Some((u, _)) = best {
            matched[u] = c;
        }
    }
    let m = next_coarse;
    let mut node_weight = vec![0.0f64; m];
    for v in 0..n {
        node_weight[matched[v]] += w.node_weight[v];
    }
    let mut adj_maps: Vec<std::collections::HashMap<usize, f64>> =
        vec![std::collections::HashMap::new(); m];
    for v in 0..n {
        let cv = matched[v];
        for &(u, ew) in &w.adj[v] {
            let cu = matched[u];
            if cu != cv {
                *adj_maps[cv].entry(cu).or_insert(0.0) += ew;
            }
        }
    }
    let adj = adj_maps
        .into_iter()
        .map(|mp| {
            let mut v: Vec<(usize, f64)> = mp.into_iter().collect();
            v.sort_unstable_by_key(|&(i, _)| i);
            v
        })
        .collect();
    (WeightedGraph { node_weight, adj }, matched)
}

/// Greedy region growing: seed `k` groups at heavy, spread-out vertices, then grow
/// each along its heaviest boundary edges under the balance cap; leftovers go to the
/// lightest group.
fn initial_partition(
    w: &WeightedGraph,
    k: usize,
    epsilon: f64,
    rng: &mut ChaCha8Rng,
) -> Vec<usize> {
    let n = w.len();
    let cap = (1.0 + epsilon) * w.total_weight() / k as f64;
    let mut assign = vec![usize::MAX; n];
    let mut loads = vec![0.0f64; k];

    let mut seeds: Vec<usize> = (0..n).collect();
    seeds.shuffle(rng);
    seeds.truncate(k);
    // Frontier of (gain, vertex, group) candidates, greedily popped.
    let mut heap: std::collections::BinaryHeap<(ordered, usize, usize)> =
        std::collections::BinaryHeap::new();
    for (g, &s) in seeds.iter().enumerate() {
        assign[s] = g;
        loads[g] += w.node_weight[s];
        for &(u, ew) in &w.adj[s] {
            heap.push((ordered::from(ew), u, g));
        }
    }
    while let Some((_, v, g)) = heap.pop() {
        if assign[v] != usize::MAX || loads[g] + w.node_weight[v] > cap {
            continue;
        }
        assign[v] = g;
        loads[g] += w.node_weight[v];
        for &(u, ew) in &w.adj[v] {
            if assign[u] == usize::MAX {
                heap.push((ordered::from(ew), u, g));
            }
        }
    }
    // Unreached vertices (disconnected or capped out): lightest group.
    for (v, a) in assign.iter_mut().enumerate() {
        if *a == usize::MAX {
            let g = (0..k).min_by(|&x, &y| loads[x].total_cmp(&loads[y])).expect("k >= 1");
            *a = g;
            loads[g] += w.node_weight[v];
        }
    }
    assign
}

/// Boundary FM-style refinement: move vertices to the neighboring group with the
/// best cut gain, respecting the balance cap; repeats for `refine_passes` or until
/// a pass makes no move.
fn refine(
    w: &WeightedGraph,
    assign: &mut [usize],
    k: usize,
    cfg: &MetisLike,
    rng: &mut ChaCha8Rng,
) {
    let n = w.len();
    let cap = (1.0 + cfg.epsilon) * w.total_weight() / k as f64;
    let mut loads = vec![0.0f64; k];
    for v in 0..n {
        loads[assign[v]] += w.node_weight[v];
    }
    let mut order: Vec<usize> = (0..n).collect();
    for _ in 0..cfg.refine_passes {
        order.shuffle(rng);
        let mut moved = 0usize;
        for &v in &order {
            let from = assign[v];
            // Connectivity of v to each adjacent group.
            let mut conn: std::collections::HashMap<usize, f64> = std::collections::HashMap::new();
            for &(u, ew) in &w.adj[v] {
                *conn.entry(assign[u]).or_insert(0.0) += ew;
            }
            let internal = conn.get(&from).copied().unwrap_or(0.0);
            // Iterate groups in index order: HashMap order is randomized per
            // process, and equal-gain ties must break the same way every run
            // for a fixed seed to give a fixed partition.
            let mut groups: Vec<(usize, f64)> = conn.iter().map(|(&g, &c)| (g, c)).collect();
            groups.sort_unstable_by_key(|&(g, _)| g);
            let mut best: Option<(usize, f64)> = None;
            for (g, c) in groups {
                if g == from {
                    continue;
                }
                let gain = c - internal;
                if gain > 1e-12
                    && loads[g] + w.node_weight[v] <= cap
                    && best.is_none_or(|(_, bg)| gain > bg)
                {
                    best = Some((g, gain));
                }
            }
            if let Some((g, _)) = best {
                loads[from] -= w.node_weight[v];
                loads[g] += w.node_weight[v];
                assign[v] = g;
                moved += 1;
            }
        }
        if moved == 0 {
            break;
        }
    }
    let _ = rng.gen::<u8>(); // keep stream moving even on early exit (determinism aid)
}

/// f64 heap key ordered by `total_cmp`.
#[derive(PartialEq)]
#[allow(non_camel_case_types)]
struct ordered(f64);

impl ordered {
    fn from(x: f64) -> Self {
        Self(x)
    }
}
impl Eq for ordered {}
impl PartialOrd for ordered {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for ordered {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics;
    use eagle_opgraph::builders;

    #[test]
    fn two_cliques_split_cleanly() {
        // Two 6-cliques joined by one light edge: the 2-way partition must cut only
        // the bridge.
        let mut g = eagle_opgraph::OpGraph::new("cliques");
        use eagle_opgraph::{OpKind, OpNode, Phase};
        let mut ids = Vec::new();
        for i in 0..12 {
            ids.push(
                g.add_node(
                    OpNode::new(format!("n{i}"), OpKind::MatMul, Phase::Forward)
                        .with_flops(1.0)
                        .with_out_bytes(1000),
                ),
            );
        }
        for c in 0..2 {
            for i in 0..6 {
                for j in (i + 1)..6 {
                    g.add_edge(ids[c * 6 + i], ids[c * 6 + j]);
                }
            }
        }
        // Light bridge.
        g.node_mut(ids[5]).out_bytes = 0;
        g.add_edge(ids[5], ids[6]);

        let assign = MetisLike::default().partition(&g, 2);
        assert_eq!(assign.len(), 12);
        let first = assign[0];
        assert!(assign[..6].iter().all(|&a| a == first), "first clique together: {assign:?}");
        let second = assign[6];
        assert_ne!(first, second);
        assert!(assign[6..].iter().all(|&a| a == second), "second clique together: {assign:?}");
    }

    #[test]
    fn partitions_real_graph_with_balance() {
        let g = builders::try_gnmt(&builders::GnmtConfig {
            batch: 8,
            hidden: 16,
            layers: 2,
            seq_len: 6,
            vocab: 100,
        })
        .expect("valid GNMT config");
        let k = 8;
        let assign = MetisLike::default().partition(&g, k);
        assert_eq!(assign.len(), g.len());
        assert!(assign.iter().all(|&a| a < k));
        let w = WeightedGraph::from_op_graph(&g);
        let bal = metrics::balance(&w, &assign, k);
        assert!(bal < 2.0, "balance {bal} too skewed");
        assert!(metrics::used_groups(&assign, k) >= k / 2, "most groups used");
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let g = builders::try_inception_v3(&builders::InceptionConfig::default())
            .expect("default Inception config is valid");
        let a = MetisLike::default().partition(&g, 16);
        let b = MetisLike::default().partition(&g, 16);
        assert_eq!(a, b);
        let c = MetisLike { seed: 99, ..Default::default() }.partition(&g, 16);
        // Different seed is allowed to differ (and usually does).
        let _ = c;
    }

    #[test]
    fn beats_random_on_cut() {
        use rand::Rng;
        let g = builders::try_inception_v3(&builders::InceptionConfig::default())
            .expect("default Inception config is valid");
        let w = WeightedGraph::from_op_graph(&g);
        let k = 16;
        let metis = MetisLike::default().partition(&g, k);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let random: Vec<usize> = (0..g.len()).map(|_| rng.gen_range(0..k)).collect();
        assert!(
            metrics::edge_cut(&w, &metis) < metrics::edge_cut(&w, &random) / 2.0,
            "multilevel partitioner should crush random cuts"
        );
    }

    #[test]
    fn k_larger_than_n_is_clamped() {
        let g = builders::try_gnmt(&builders::GnmtConfig {
            batch: 1,
            hidden: 2,
            layers: 2,
            seq_len: 2,
            vocab: 10,
        })
        .expect("valid GNMT config");
        let assign = MetisLike::default().partition(&g, 10_000);
        assert!(assign.iter().all(|&a| a < g.len()));
    }
}
