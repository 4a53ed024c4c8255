//! Finite-difference gradient checks for every differentiable op on the tape.
//!
//! Each check builds a scalar loss from one (or a few) ops, computes analytic
//! gradients via `Tape::backward_into`, then perturbs every parameter scalar by ±eps and
//! compares against the central difference. f32 finite differences are noisy, so the
//! comparison uses a mixed absolute/relative tolerance.

use eagle_tensor::{init, Grads, ParamId, Params, Tape, Tensor, Var};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

const EPS: f32 = 1e-2;
const TOL: f32 = 2e-2;

/// Checks d(loss)/d(param) for every scalar in every parameter against central
/// differences of `forward`.
fn gradcheck(params: &mut Params, forward: impl Fn(&mut Tape, &Params) -> Var) {
    // Analytic gradients.
    let mut grads = Grads::for_params(params);
    let mut tape = Tape::new();
    let loss = forward(&mut tape, params);
    assert_eq!(tape.value(loss).shape(), (1, 1), "loss must be scalar");
    tape.backward_into(loss, &mut grads);

    let ids: Vec<ParamId> = params.ids().collect();
    for id in ids {
        let n = params.get(id).len();
        for j in 0..n {
            let orig = params.get(id).data()[j];

            params.get_mut(id).data_mut()[j] = orig + EPS;
            let mut tp = Tape::new();
            let lp = forward(&mut tp, params);
            let fp = tp.value(lp).item();

            params.get_mut(id).data_mut()[j] = orig - EPS;
            let mut tm = Tape::new();
            let lm = forward(&mut tm, params);
            let fm = tm.value(lm).item();

            params.get_mut(id).data_mut()[j] = orig;

            let numeric = (fp - fm) / (2.0 * EPS);
            let analytic = grads.get(id).data()[j];
            let denom = 1.0f32.max(numeric.abs()).max(analytic.abs());
            assert!(
                (numeric - analytic).abs() / denom < TOL,
                "param {} elem {}: numeric {} vs analytic {}",
                params.name(id),
                j,
                numeric,
                analytic
            );
        }
    }
}

fn seeded_params(shapes: &[(usize, usize)], seed: u64) -> (Params, Vec<ParamId>) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut params = Params::new();
    let ids = shapes
        .iter()
        .enumerate()
        .map(|(i, &(r, c))| params.add(format!("p{i}"), init::xavier_uniform(r, c, &mut rng)))
        .collect();
    (params, ids)
}

#[test]
fn gradcheck_matmul_chain() {
    let (mut params, ids) = seeded_params(&[(3, 4), (4, 2)], 1);
    gradcheck(&mut params, |tape, p| {
        let a = tape.param(p, ids[0]);
        let b = tape.param(p, ids[1]);
        let c = tape.matmul(a, b);
        tape.sum_all(c)
    });
}

#[test]
fn gradcheck_shared_param_two_uses() {
    // w used twice: gradient must be the sum of both paths.
    let (mut params, ids) = seeded_params(&[(2, 2)], 2);
    gradcheck(&mut params, |tape, p| {
        let w = tape.param(p, ids[0]);
        let wt = tape.transpose(w);
        let prod = tape.matmul(w, wt);
        tape.sum_all(prod)
    });
}

#[test]
fn gradcheck_add_sub_mul() {
    let (mut params, ids) = seeded_params(&[(2, 3), (2, 3)], 3);
    gradcheck(&mut params, |tape, p| {
        let a = tape.param(p, ids[0]);
        let b = tape.param(p, ids[1]);
        let s = tape.add(a, b);
        let d = tape.sub(s, b);
        let m = tape.mul_elem(d, s);
        tape.mean_all(m)
    });
}

#[test]
fn gradcheck_row_broadcast_bias() {
    let (mut params, ids) = seeded_params(&[(4, 3), (1, 3)], 4);
    gradcheck(&mut params, |tape, p| {
        let x = tape.param(p, ids[0]);
        let b = tape.param(p, ids[1]);
        let y = tape.add_row_broadcast(x, b);
        let y2 = tape.mul_elem(y, y);
        tape.sum_all(y2)
    });
}

#[test]
fn gradcheck_activations() {
    let (mut params, ids) = seeded_params(&[(3, 3)], 5);
    gradcheck(&mut params, |tape, p| {
        let x = tape.param(p, ids[0]);
        let s = tape.sigmoid(x);
        let t = tape.tanh(s);
        let r = tape.relu(t);
        tape.sum_all(r)
    });
}

#[test]
fn gradcheck_exp_ln() {
    let (mut params, ids) = seeded_params(&[(2, 2)], 6);
    gradcheck(&mut params, |tape, p| {
        let x = tape.param(p, ids[0]);
        let e = tape.exp(x); // strictly positive, safe for ln
        let l = tape.ln(e);
        let m = tape.mul_elem(l, e);
        tape.mean_all(m)
    });
}

#[test]
fn gradcheck_softmax() {
    let (mut params, ids) = seeded_params(&[(3, 4), (3, 4)], 7);
    gradcheck(&mut params, |tape, p| {
        let x = tape.param(p, ids[0]);
        let w = tape.param(p, ids[1]);
        let s = tape.softmax(x);
        let weighted = tape.mul_elem(s, w);
        tape.sum_all(weighted)
    });
}

#[test]
fn gradcheck_log_softmax_nll() {
    // The actual policy-gradient loss shape: -mean(logsoftmax(x)[r, a_r]).
    let (mut params, ids) = seeded_params(&[(4, 5)], 8);
    gradcheck(&mut params, |tape, p| {
        let x = tape.param(p, ids[0]);
        let ls = tape.log_softmax(x);
        let picked = tape.pick_per_row(ls, &[1, 0, 4, 2]);
        let neg = tape.neg(picked);
        tape.mean_all(neg)
    });
}

#[test]
fn gradcheck_concat_slice_select() {
    let (mut params, ids) = seeded_params(&[(2, 3), (3, 3)], 9);
    gradcheck(&mut params, |tape, p| {
        let a = tape.param(p, ids[0]);
        let b = tape.param(p, ids[1]);
        let cat = tape.concat_rows(&[a, b]);
        let mid = tape.slice_rows(cat, 1, 3);
        let sel = tape.select_rows(mid, &[0, 0, 2]);
        let sq = tape.mul_elem(sel, sel);
        tape.sum_all(sq)
    });
}

#[test]
fn gradcheck_slice_cols() {
    let (mut params, ids) = seeded_params(&[(3, 6)], 21);
    gradcheck(&mut params, |tape, p| {
        let x = tape.param(p, ids[0]);
        let left = tape.slice_cols(x, 0, 2); // (3,2)
        let mid = tape.slice_cols(x, 2, 3); // (3,3)
        let left_t = tape.transpose(left); // (2,3)
        let prod = tape.matmul(left_t, mid); // (2,3)
        tape.sum_all(prod)
    });
}

#[test]
fn gradcheck_concat_cols() {
    let (mut params, ids) = seeded_params(&[(2, 2), (2, 3)], 10);
    gradcheck(&mut params, |tape, p| {
        let a = tape.param(p, ids[0]);
        let b = tape.param(p, ids[1]);
        let cat = tape.concat_cols(&[a, b]);
        let t = tape.tanh(cat);
        tape.sum_all(t)
    });
}

#[test]
fn gradcheck_row_sums() {
    let (mut params, ids) = seeded_params(&[(3, 4)], 11);
    gradcheck(&mut params, |tape, p| {
        let x = tape.param(p, ids[0]);
        let rs = tape.row_sums(x);
        let sq = tape.mul_elem(rs, rs);
        tape.sum_all(sq)
    });
}

#[test]
fn gradcheck_clamp_min_ppo_surrogate() {
    // The PPO clipped surrogate: min(r*A, clamp(r, 1-e, 1+e)*A).
    let (mut params, ids) = seeded_params(&[(4, 1)], 12);
    gradcheck(&mut params, |tape, p| {
        let logr = tape.param(p, ids[0]);
        let r = tape.exp(logr);
        let adv = tape.leaf(Tensor::from_vec(4, 1, vec![1.0, -2.0, 0.5, -0.3]));
        let unclipped = tape.mul_elem(r, adv);
        let clipped_r = tape.clamp(r, 0.7, 1.3);
        let clipped = tape.mul_elem(clipped_r, adv);
        let m = tape.min_elem(unclipped, clipped);
        let neg = tape.neg(m);
        tape.mean_all(neg)
    });
}

#[test]
fn gradcheck_scale_add_scalar() {
    let (mut params, ids) = seeded_params(&[(2, 3)], 13);
    gradcheck(&mut params, |tape, p| {
        let x = tape.param(p, ids[0]);
        let y = tape.scale(x, -2.5);
        let z = tape.add_scalar(y, 0.7);
        let sq = tape.mul_elem(z, z);
        tape.mean_all(sq)
    });
}

#[test]
fn gradcheck_lstm_cell_two_steps() {
    // z (2, 12) and c_prev (2, 3); the second step takes the first's `c`, so
    // `c`'s gradient has both of its sources (the next step and `h`).
    let (mut params, ids) = seeded_params(&[(2, 12), (2, 3), (3, 12)], 14);
    gradcheck(&mut params, |tape, p| {
        let z1 = tape.param(p, ids[0]);
        let c0 = tape.param(p, ids[1]);
        let w = tape.param(p, ids[2]);
        let (h1, c1) = tape.lstm_cell(z1, c0);
        let z2 = tape.matmul(h1, w);
        let (h2, c2) = tape.lstm_cell(z2, c1);
        let out = tape.concat_cols(&[h1, h2, c2]);
        let sq = tape.mul_elem(out, out);
        tape.sum_all(sq)
    });
}

#[test]
fn gradcheck_add_block_broadcast_and_reshape() {
    // Two key blocks of three rows, three query rows mapped to blocks
    // [1, 0, 1]; the (9, 1) scores then read as (3, 3) and soft-maxed per row.
    let (mut params, ids) = seeded_params(&[(6, 4), (3, 4), (4, 1)], 15);
    gradcheck(&mut params, |tape, p| {
        let keys = tape.param(p, ids[0]);
        let queries = tape.param(p, ids[1]);
        let v = tape.param(p, ids[2]);
        let pre = tape.add_block_broadcast(keys, 2, queries, &[1, 0, 1]); // (9, 4)
        let act = tape.tanh(pre);
        let scores = tape.matmul(act, v); // (9, 1)
        let mat = tape.reshape(scores, 3, 3);
        let alpha = tape.softmax(mat);
        let sq = tape.mul_elem(alpha, alpha);
        tape.sum_all(sq)
    });
}

#[test]
fn leaf_receives_no_gradient() {
    let mut params = Params::new();
    let w = params.add("w", Tensor::scalar(2.0));
    let mut tape = Tape::new();
    let wv = tape.param(&params, w);
    let c = tape.leaf(Tensor::scalar(5.0));
    let prod = tape.mul_elem(wv, c);
    let loss = tape.sum_all(prod);
    let mut grads = Grads::for_params(&params);
    tape.backward_into(loss, &mut grads);
    assert_eq!(grads.get(w).item(), 5.0);
}

#[test]
fn backward_accumulates_across_calls() {
    let mut params = Params::new();
    let w = params.add("w", Tensor::scalar(1.0));
    let mut grads = Grads::for_params(&params);
    for _ in 0..3 {
        let mut tape = Tape::new();
        let wv = tape.param(&params, w);
        let loss = tape.sum_all(wv);
        tape.backward_into(loss, &mut grads);
    }
    assert_eq!(grads.get(w).item(), 3.0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random two-layer tanh MLP loss must gradcheck for arbitrary shapes/seeds.
    #[test]
    fn gradcheck_random_mlp(seed in 0u64..1000, n in 1usize..4, h in 1usize..5) {
        let (mut params, ids) = seeded_params(&[(n, h), (h, 3), (1, 3)], seed);
        gradcheck(&mut params, |tape, p| {
            let x = tape.param(p, ids[0]);
            let w = tape.param(p, ids[1]);
            let b = tape.param(p, ids[2]);
            let h1 = tape.matmul(x, w);
            let h2 = tape.add_row_broadcast(h1, b);
            let a = tape.tanh(h2);
            let sq = tape.mul_elem(a, a);
            tape.mean_all(sq)
        });
    }

    /// Softmax rows always sum to 1 and log_softmax == ln(softmax).
    #[test]
    fn softmax_logsoftmax_consistency(seed in 0u64..1000) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let x = init::uniform(3, 6, 4.0, &mut rng);
        let mut tape = Tape::new();
        let v = tape.leaf(x);
        let s = tape.softmax(v);
        let ls = tape.log_softmax(v);
        for r in 0..3 {
            let sum: f32 = tape.value(s).row(r).iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-4);
            for c in 0..6 {
                let a = tape.value(s).get(r, c).ln();
                let b = tape.value(ls).get(r, c);
                prop_assert!((a - b).abs() < 1e-4);
            }
        }
    }
}
