//! Asynchronous fluid communities (Parés et al. '17), the algorithm behind
//! NetworkX's `asyn_fluidc` — the paper's "Networkx" grouper baseline.
//!
//! `k` communities start from random seeds; vertices are visited in random order and
//! adopt the community with the highest total *density* among themselves and their
//! neighbors, where a community's density is `1 / |community|`. Iteration stops when
//! a sweep changes nothing or the iteration cap is reached.

use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::{Partitioner, WeightedGraph};

/// Asynchronous fluid-communities partitioner.
#[derive(Debug, Clone)]
pub struct FluidCommunities {
    /// RNG seed for seeding and visit order.
    pub seed: u64,
    /// Maximum sweeps over all vertices (NetworkX defaults to 100).
    pub max_iter: usize,
}

impl Default for FluidCommunities {
    fn default() -> Self {
        Self { seed: 1, max_iter: 100 }
    }
}

impl Partitioner for FluidCommunities {
    fn partition(&self, graph: &eagle_opgraph::OpGraph, k: usize) -> Vec<usize> {
        let w = WeightedGraph::from_op_graph(graph);
        partition_weighted(&w, k, self)
    }
}

/// Runs fluid communities over a weighted view (exposed for tests).
pub fn partition_weighted(w: &WeightedGraph, k: usize, cfg: &FluidCommunities) -> Vec<usize> {
    let n = w.len();
    if n == 0 {
        return Vec::new();
    }
    let k = k.max(1).min(n);
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);

    let mut assign: Vec<Option<usize>> = vec![None; n];
    let mut sizes = vec![0usize; k];
    let mut seeds: Vec<usize> = (0..n).collect();
    seeds.shuffle(&mut rng);
    for (c, &s) in seeds.iter().take(k).enumerate() {
        assign[s] = Some(c);
        sizes[c] = 1;
    }

    let mut order: Vec<usize> = (0..n).collect();
    for _ in 0..cfg.max_iter {
        order.shuffle(&mut rng);
        let mut changed = false;
        for &v in &order {
            // Density votes from self and neighbors, weighted by edge weight so the
            // algorithm respects communication volume (NetworkX uses unweighted
            // counts; the weighting specializes it to the device-placement setting).
            let mut votes: std::collections::HashMap<usize, f64> = std::collections::HashMap::new();
            if let Some(c) = assign[v] {
                *votes.entry(c).or_insert(0.0) += 1.0 / sizes[c].max(1) as f64;
            }
            for &(u, ew) in &w.adj[v] {
                if let Some(c) = assign[u] {
                    *votes.entry(c).or_insert(0.0) += ew.ln_1p() / sizes[c].max(1) as f64;
                }
            }
            if votes.is_empty() {
                continue;
            }
            let (&best, _) = votes
                .iter()
                .max_by(|a, b| a.1.total_cmp(b.1).then(b.0.cmp(a.0)))
                .expect("non-empty votes");
            if assign[v] != Some(best) {
                // A community may not vanish: keep the last vertex of a community.
                if let Some(old) = assign[v] {
                    if sizes[old] <= 1 {
                        continue;
                    }
                    sizes[old] -= 1;
                }
                assign[v] = Some(best);
                sizes[best] += 1;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    // Unassigned vertices (isolated / unreachable from any seed): smallest group.
    assign
        .into_iter()
        .map(|a| a.unwrap_or_else(|| (0..k).min_by_key(|&c| sizes[c]).expect("k >= 1")))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics;
    use eagle_opgraph::builders;

    #[test]
    fn covers_all_vertices_within_k() {
        let g = builders::try_inception_v3(&builders::InceptionConfig::default())
            .expect("default Inception config is valid");
        let k = 16;
        let assign = FluidCommunities::default().partition(&g, k);
        assert_eq!(assign.len(), g.len());
        assert!(assign.iter().all(|&a| a < k));
        assert!(metrics::used_groups(&assign, k) > 1);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let g = builders::try_gnmt(&builders::GnmtConfig {
            batch: 4,
            hidden: 8,
            layers: 2,
            seq_len: 4,
            vocab: 64,
        })
        .expect("valid GNMT config");
        let a = FluidCommunities::default().partition(&g, 8);
        let b = FluidCommunities::default().partition(&g, 8);
        assert_eq!(a, b);
    }

    #[test]
    fn communities_are_locally_coherent() {
        // On two cliques with a bridge, fluid communities should separate them.
        use eagle_opgraph::{OpGraph, OpKind, OpNode, Phase};
        let mut g = OpGraph::new("cliques");
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
        g.node_mut(ids[5]).out_bytes = 0;
        g.add_edge(ids[5], ids[6]);
        let assign = FluidCommunities { seed: 4, max_iter: 100 }.partition(&g, 2);
        let w = WeightedGraph::from_op_graph(&g);
        // At most the bridge (+ a straggler) crosses.
        assert!(
            metrics::edge_cut(&w, &assign) <= 3.0 * 1001.0,
            "cut = {}",
            metrics::edge_cut(&w, &assign)
        );
    }

    #[test]
    fn better_cut_than_random_on_real_graph() {
        use rand::Rng;
        let g = builders::try_bert_base(&builders::BertConfig {
            batch: 2,
            seq_len: 8,
            hidden: 16,
            layers: 3,
            heads: 2,
            ff: 32,
            vocab: 50,
        })
        .expect("valid BERT config");
        let w = WeightedGraph::from_op_graph(&g);
        let k = 8;
        let fluid = FluidCommunities::default().partition(&g, k);
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let random: Vec<usize> = (0..g.len()).map(|_| rng.gen_range(0..k)).collect();
        assert!(metrics::edge_cut(&w, &fluid) < metrics::edge_cut(&w, &random));
    }
}
