//! The learned grouper: a feed-forward network mapping per-op features to group
//! logits (paper Sec. III-B: "a two-layer feed-forward neural network with 64 hidden
//! units is the best"), plus the soft group-embedding aggregation that lets placer
//! gradients flow back into the grouper — the coupling EAGLE's linking RNN rides on.

use eagle_tensor::{FusedAct, Params, Tape, Tensor, Var};
use rand::Rng;

use crate::linear::FeedForward;

/// Feed-forward grouper over per-op feature vectors.
#[derive(Debug, Clone)]
pub struct Grouper {
    net: FeedForward,
    /// Number of groups `k`.
    pub num_groups: usize,
}

impl Grouper {
    /// Registers a grouper: `feat_dim -> hidden -> hidden -> k` ReLU MLP.
    pub fn new(
        params: &mut Params,
        name: &str,
        feat_dim: usize,
        hidden: usize,
        num_groups: usize,
        rng: &mut impl Rng,
    ) -> Self {
        Self {
            net: FeedForward::new(
                params,
                name,
                &[feat_dim, hidden, hidden, num_groups],
                FusedAct::Relu,
                rng,
            ),
            num_groups,
        }
    }

    /// Group logits `(n_ops, k)` for op features `(n_ops, feat_dim)`.
    pub fn logits(&self, tape: &mut Tape, params: &Params, features: Var) -> Var {
        self.net.forward(tape, params, features)
    }

    /// Hard assignment: argmax group per op (used to decode the actual placement).
    pub fn hard_assign(logits: &Tensor) -> Vec<usize> {
        (0..logits.rows())
            .map(|r| {
                logits
                    .row(r)
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.total_cmp(b.1))
                    .map(|(i, _)| i)
                    .expect("non-empty row")
            })
            .collect()
    }

    /// Differentiable soft group embeddings: `softmax(logits)^T @ features`, scaled
    /// by `k / n` so magnitudes stay O(1) regardless of graph size. Row `g` is the
    /// (soft) sum of features of ops assigned to group `g` — the quantity the
    /// linking RNN transforms into placer inputs.
    pub fn soft_group_embeddings(&self, tape: &mut Tape, logits: Var, features: Var) -> Var {
        let n = tape.value(features).rows().max(1);
        let soft = tape.softmax(logits); // (n, k)
        let soft_t = tape.transpose(soft); // (k, n)
        let sums = tape.matmul(soft_t, features); // (k, f)
        tape.scale(sums, self.num_groups as f32 / n as f32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eagle_tensor::{optim::Adam, Grads};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn logits_shape_and_hard_assignment() {
        let mut params = Params::new();
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let grouper = Grouper::new(&mut params, "g", 5, 16, 8, &mut rng);
        let mut tape = Tape::new();
        let f = tape.leaf(Tensor::full(10, 5, 0.1));
        let logits = grouper.logits(&mut tape, &params, f);
        assert_eq!(tape.value(logits).shape(), (10, 8));
        let hard = Grouper::hard_assign(tape.value(logits));
        assert_eq!(hard.len(), 10);
        assert!(hard.iter().all(|&g| g < 8));
    }

    #[test]
    fn soft_embeddings_shape_and_magnitude() {
        let mut params = Params::new();
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let grouper = Grouper::new(&mut params, "g", 5, 16, 4, &mut rng);
        let mut tape = Tape::new();
        let f = tape.leaf(Tensor::full(100, 5, 1.0));
        let logits = grouper.logits(&mut tape, &params, f);
        let emb = grouper.soft_group_embeddings(&mut tape, logits, f);
        assert_eq!(tape.value(emb).shape(), (4, 5));
        // All ops have feature 1.0; soft masses sum to n over all groups, and the
        // k/n scaling means the *total* over groups is k per feature column.
        let col_total: f32 = (0..4).map(|g| tape.value(emb).get(g, 0)).sum();
        assert!((col_total - 4.0).abs() < 1e-3, "total = {col_total}");
    }

    #[test]
    fn grouper_gradients_flow_through_soft_embeddings() {
        let mut params = Params::new();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let grouper = Grouper::new(&mut params, "g", 4, 8, 3, &mut rng);
        let mut tape = Tape::new();
        let f = tape.leaf(Tensor::full(6, 4, 0.5));
        let logits = grouper.logits(&mut tape, &params, f);
        let emb = grouper.soft_group_embeddings(&mut tape, logits, f);
        let sq = tape.mul_elem(emb, emb);
        let loss = tape.mean_all(sq);
        let mut grads = Grads::for_params(&params);
        tape.backward_into(loss, &mut grads);
        assert!(grads.global_norm() > 0.0);
    }

    #[test]
    fn grouper_can_learn_a_target_grouping() {
        // Two clearly separable feature clusters must become separable groups when
        // trained against a simple supervised objective (sanity for capacity).
        let mut params = Params::new();
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let grouper = Grouper::new(&mut params, "g", 2, 16, 2, &mut rng);
        let mut opt = Adam::new(0.02);
        let mut grads = Grads::for_params(&params);
        let mut feats = Vec::new();
        let mut targets = Vec::new();
        for i in 0..20 {
            let cluster = i % 2;
            feats.extend_from_slice(&[cluster as f32, 1.0 - cluster as f32]);
            targets.push(cluster);
        }
        let f = Tensor::from_vec(20, 2, feats);
        for _ in 0..200 {
            grads.zero();
            let mut tape = Tape::new();
            let fv = tape.leaf(f.clone());
            let logits = grouper.logits(&mut tape, &params, fv);
            let picked = tape.log_softmax_pick(logits, &targets);
            let neg = tape.neg(picked);
            let loss = tape.mean_all(neg);
            tape.backward_into(loss, &mut grads);
            drop(tape);
            opt.step_grads(&mut params, &grads);
        }
        let mut tape = Tape::new();
        let fv = tape.leaf(f.clone());
        let logits = grouper.logits(&mut tape, &params, fv);
        let hard = Grouper::hard_assign(tape.value(logits));
        assert_eq!(hard, targets, "grouper should learn the separable clustering");
    }
}
