//! Fused-op vs composed-op equivalence suite.
//!
//! The fused tape ops (`affine`, `log_softmax_pick`, `add_n`) exist purely for
//! speed; their contract is *bitwise* agreement with the composed op chains
//! they replace — forward values AND parameter gradients. Each test builds the
//! same computation twice (fused and composed), backpropagates both, and
//! compares every float by its bit pattern.

use eagle_tensor::{init, FusedAct, Grads, ParamId, Params, Tape, Tensor, Var};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

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

/// Runs `forward` twice against fresh gradient buffers and demands bitwise
/// agreement of the loss value and of every parameter gradient.
fn assert_bitwise_equivalent(
    params: &Params,
    fused: impl Fn(&mut Tape, &Params) -> Var,
    composed: impl Fn(&mut Tape, &Params) -> Var,
    ctx: &str,
) {
    let run = |forward: &dyn Fn(&mut Tape, &Params) -> Var| -> (f32, Grads) {
        let mut tape = Tape::new();
        let loss = forward(&mut tape, params);
        let mut grads = Grads::for_params(params);
        tape.backward_into(loss, &mut grads);
        (tape.value(loss).item(), grads)
    };
    let (loss_f, grads_f) = run(&fused);
    let (loss_c, grads_c) = run(&composed);
    assert_eq!(loss_f.to_bits(), loss_c.to_bits(), "{ctx}: loss {loss_f} vs {loss_c}");
    for id in params.ids() {
        let (gf, gc) = (grads_f.get(id), grads_c.get(id));
        assert_eq!(gf.is_some(), gc.is_some(), "{ctx}: {} reached by one side", params.name(id));
        for (j, (a, b)) in
            gf.iter().flat_map(|g| g.data()).zip(gc.iter().flat_map(|g| g.data())).enumerate()
        {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{ctx}: grad {}[{j}] fused {a} vs composed {b}",
                params.name(id)
            );
        }
    }
}

fn apply_act(tape: &mut Tape, z: Var, act: FusedAct) -> Var {
    match act {
        FusedAct::None => z,
        FusedAct::Tanh => tape.tanh(z),
        FusedAct::Relu => tape.relu(z),
    }
}

#[test]
fn affine_matches_composed_for_every_activation() {
    for (seed, act) in [(1, FusedAct::None), (2, FusedAct::Tanh), (3, FusedAct::Relu)] {
        // x: (5,4), w: (4,3), b: (1,3) — all gradient targets.
        let (params, ids) = seeded_params(&[(5, 4), (4, 3), (1, 3)], seed);
        let ctx = format!("affine/{act:?}");
        assert_bitwise_equivalent(
            &params,
            |tape, p| {
                let x = tape.param(p, ids[0]);
                let w = tape.param(p, ids[1]);
                let b = tape.param(p, ids[2]);
                let y = tape.affine(x, w, b, act);
                tape.sum_all(y)
            },
            |tape, p| {
                let x = tape.param(p, ids[0]);
                let w = tape.param(p, ids[1]);
                let b = tape.param(p, ids[2]);
                let z = tape.matmul(x, w);
                let z = tape.add_row_broadcast(z, b);
                let y = apply_act(tape, z, act);
                tape.sum_all(y)
            },
            &ctx,
        );
    }
}

#[test]
fn affine_with_constant_input_only_trains_weights() {
    let (params, ids) = seeded_params(&[(4, 6), (1, 6)], 7);
    let x_const = init::xavier_uniform(3, 4, &mut ChaCha8Rng::seed_from_u64(99));
    assert_bitwise_equivalent(
        &params,
        |tape, p| {
            let x = tape.leaf(x_const.clone());
            let w = tape.param(p, ids[0]);
            let b = tape.param(p, ids[1]);
            let y = tape.affine(x, w, b, FusedAct::Tanh);
            tape.mean_all(y)
        },
        |tape, p| {
            let x = tape.leaf(x_const.clone());
            let w = tape.param(p, ids[0]);
            let b = tape.param(p, ids[1]);
            let z = tape.matmul(x, w);
            let z = tape.add_row_broadcast(z, b);
            let y = tape.tanh(z);
            tape.mean_all(y)
        },
        "affine/leaf-input",
    );
}

#[test]
fn log_softmax_pick_matches_composed_pair() {
    // Weighted picked log-probs: exercises non-uniform incoming gradients.
    let (params, ids) = seeded_params(&[(6, 5)], 11);
    let picks = [0usize, 4, 2, 2, 1, 3];
    let weights = Tensor::from_vec(6, 1, vec![1.0, -0.5, 2.0, 0.25, -3.0, 0.125]);
    assert_bitwise_equivalent(
        &params,
        |tape, p| {
            let logits = tape.param(p, ids[0]);
            let picked = tape.log_softmax_pick(logits, &picks);
            let w = tape.leaf(weights.clone());
            let weighted = tape.mul_elem(picked, w);
            tape.sum_all(weighted)
        },
        |tape, p| {
            let logits = tape.param(p, ids[0]);
            let ls = tape.log_softmax(logits);
            let picked = tape.pick_per_row(ls, &picks);
            let w = tape.leaf(weights.clone());
            let weighted = tape.mul_elem(picked, w);
            tape.sum_all(weighted)
        },
        "log_softmax_pick",
    );
}

#[test]
fn log_softmax_pick_survives_extreme_logits() {
    // Large-magnitude logits stress the max-shift; fused and composed must
    // still agree bit for bit because they share the stable evaluation order.
    let mut params = Params::new();
    let id = params.add(
        "logits",
        Tensor::from_vec(
            3,
            4,
            vec![800.0, -800.0, 3.0, 2.5, 0.0, 0.0, 0.0, 0.0, -1e3, 1e3, 5.0, -5.0],
        ),
    );
    let picks = [2usize, 0, 1];
    assert_bitwise_equivalent(
        &params,
        |tape, p| {
            let logits = tape.param(p, id);
            let picked = tape.log_softmax_pick(logits, &picks);
            tape.sum_all(picked)
        },
        |tape, p| {
            let logits = tape.param(p, id);
            let ls = tape.log_softmax(logits);
            let picked = tape.pick_per_row(ls, &picks);
            tape.sum_all(picked)
        },
        "log_softmax_pick/extreme",
    );
}

#[test]
fn add_n_matches_chained_adds() {
    let (params, ids) = seeded_params(&[(2, 3), (2, 3), (2, 3), (2, 3)], 13);
    assert_bitwise_equivalent(
        &params,
        |tape, p| {
            let parts: Vec<Var> = ids.iter().map(|&id| tape.param(p, id)).collect();
            let total = tape.add_n(&parts);
            tape.sum_all(total)
        },
        |tape, p| {
            let parts: Vec<Var> = ids.iter().map(|&id| tape.param(p, id)).collect();
            let mut total = parts[0];
            for &part in &parts[1..] {
                total = tape.add(total, part);
            }
            tape.sum_all(total)
        },
        "add_n",
    );
}

#[test]
fn add_n_of_scalar_losses_sums_in_order() {
    // The single-backward update path folds per-episode scalar losses with
    // add_n; its value must equal the left-to-right running sum.
    let mut params = Params::new();
    let id = params.add("w", Tensor::scalar(0.3));
    let mut tape = Tape::new();
    let w = tape.param(&params, id);
    let losses: Vec<Var> = (0..5)
        .map(|i| {
            let s = tape.scale(w, 0.1 + i as f32);
            tape.sum_all(s)
        })
        .collect();
    let total = tape.add_n(&losses);
    let mut expect = 0.0f32;
    for &l in &losses {
        expect += tape.value(l).item();
    }
    assert_eq!(tape.value(total).item().to_bits(), expect.to_bits());
}

#[test]
fn backward_into_is_bitwise_repeatable_and_additive() {
    // Two tapes built from the same parameters deposit bit-identical
    // gradients, and a second deposit into the same buffers doubles them
    // exactly (`+=`, never assignment) — what lets `Grads` be zeroed once per
    // minibatch and shared by every backward pass of that minibatch.
    let (params, ids) = seeded_params(&[(3, 4), (4, 3), (1, 3)], 17);
    let build = |tape: &mut Tape, p: &Params| -> Var {
        let x = tape.param(p, ids[0]);
        let w = tape.param(p, ids[1]);
        let b = tape.param(p, ids[2]);
        let h = tape.affine(x, w, b, FusedAct::Tanh);
        let s = tape.softmax(h);
        let picked = tape.log_softmax_pick(h, &[0, 2, 1]);
        let e = tape.mul_elem(s, s);
        let l1 = tape.sum_all(e);
        let l2 = tape.sum_all(picked);
        tape.add(l1, l2)
    };
    let mut tape = Tape::new();
    let loss = build(&mut tape, &params);
    let mut once = Grads::for_params(&params);
    tape.backward_into(loss, &mut once);

    let mut twice = Grads::for_params(&params);
    for _ in 0..2 {
        let mut tape2 = Tape::new();
        let loss2 = build(&mut tape2, &params);
        tape2.backward_into(loss2, &mut twice);
    }

    for id in params.ids() {
        let (once, twice) = (once.get(id).unwrap(), twice.get(id).unwrap());
        for (j, (a, b)) in once.data().iter().zip(twice.data()).enumerate() {
            assert_eq!((a + a).to_bits(), b.to_bits(), "grad {}[{j}]", params.name(id));
        }
    }
}

#[test]
fn range_deposits_match_zero_padded_whole_slot_deposits() {
    // The slicing and gathering ops deposit their gradient into a sub-range
    // of the input's slot. Each is held against an op chain whose VJP deposits
    // a whole, zero-padded tensor — a 0/1 mask product, a 0/1 gather matrix —
    // with the ranged consumer visited after a whole-slot deposit, before
    // one, between two, and first of all (its deposit allocates the slot).
    let (params, ids) = seeded_params(&[(5, 4), (5, 4), (5, 4), (5, 4)], 23);
    let mask = |rows: std::ops::Range<usize>, cols: std::ops::Range<usize>| {
        let mut m = Tensor::zeros(5, 4);
        for r in rows {
            m.row_mut(r)[cols.clone()].fill(1.0);
        }
        m
    };
    let picks = [2usize, 0, 3, 3, 1];
    let gathered = [4usize, 1, 4, 0, 4];
    // `(ranged, zero_padded)`: the same function of `a` and a weight `w`.
    type Consumer = Box<dyn Fn(&mut Tape, Var, Var) -> Var>;
    let pairs: Vec<(&str, Consumer, Consumer)> = vec![
        (
            "slice_rows",
            Box::new(|t, a, w| {
                let (sa, sw) = (t.slice_rows(a, 1, 3), t.slice_rows(w, 1, 3));
                t.mul_elem(sa, sw)
            }),
            Box::new(move |t, a, w| {
                let m = t.leaf(mask(1..4, 0..4));
                let ma = t.mul_elem(a, m);
                t.mul_elem(ma, w)
            }),
        ),
        (
            "slice_cols",
            Box::new(|t, a, w| {
                let (sa, sw) = (t.slice_cols(a, 1, 2), t.slice_cols(w, 1, 2));
                t.mul_elem(sa, sw)
            }),
            Box::new(move |t, a, w| {
                let m = t.leaf(mask(0..5, 1..3));
                let ma = t.mul_elem(a, m);
                t.mul_elem(ma, w)
            }),
        ),
        (
            "select_rows",
            Box::new(move |t, a, w| {
                let sa = t.select_rows(a, &gathered);
                t.mul_elem(sa, w)
            }),
            Box::new(move |t, a, w| {
                let mut g = Tensor::zeros(5, 5);
                for (r, &idx) in gathered.iter().enumerate() {
                    g.set(r, idx, 1.0);
                }
                let g = t.leaf(g);
                let sa = t.matmul(g, a);
                t.mul_elem(sa, w)
            }),
        ),
        (
            "pick_per_row",
            Box::new(move |t, a, w| {
                let (pa, pw) = (t.pick_per_row(a, &picks), t.pick_per_row(w, &picks));
                t.mul_elem(pa, pw)
            }),
            Box::new(move |t, a, w| {
                let mut onehot = Tensor::zeros(5, 4);
                for (r, &c) in picks.iter().enumerate() {
                    onehot.set(r, c, 1.0);
                }
                let m = t.leaf(onehot);
                let ma = t.mul_elem(a, m);
                t.mul_elem(ma, w)
            }),
        ),
    ];
    for (name, ranged, padded) in &pairs {
        // Node order of the ranged consumer among two whole-slot ones; the
        // backward visits them in reverse.
        for position in 0..3 {
            let build = |consumer: &Consumer, tape: &mut Tape, p: &Params| -> Var {
                let a = tape.param(p, ids[0]);
                let mut terms = Vec::new();
                let mut whole = 1;
                for slot in 0..3 {
                    let w = tape.param(p, ids[slot + 1]);
                    let y = if slot == position {
                        consumer(tape, a, w)
                    } else {
                        whole += 1;
                        let s = tape.scale(a, 0.3 * whole as f32);
                        tape.mul_elem(s, w)
                    };
                    terms.push(tape.sum_all(y));
                }
                tape.add_n(&terms)
            };
            assert_bitwise_equivalent(
                &params,
                |tape, p| build(ranged, tape, p),
                |tape, p| build(padded, tape, p),
                &format!("{name} at position {position}"),
            );
        }
        // Alone: the ranged deposit is the slot's first and only one.
        assert_bitwise_equivalent(
            &params,
            |tape, p| {
                let (a, w) = (tape.param(p, ids[0]), tape.param(p, ids[1]));
                let y = ranged(tape, a, w);
                tape.sum_all(y)
            },
            |tape, p| {
                let (a, w) = (tape.param(p, ids[0]), tape.param(p, ids[1]));
                let y = padded(tape, a, w);
                tape.sum_all(y)
            },
            &format!("{name} alone"),
        );
    }
}

#[test]
fn stacking_one_part_and_slicing_every_row_record_nothing() {
    // The two identity rules batched code leans on to record, at batch size
    // one, the tape of code written for one episode.
    let mut tape = Tape::new();
    let a = tape.leaf(Tensor::full(3, 2, 1.0));
    assert_eq!(tape.concat_rows(&[a]), a);
    assert_eq!(tape.slice_rows(a, 0, 3), a);
    assert_eq!(tape.len(), 1);
    // A proper sub-range is still a copy node.
    assert_ne!(tape.slice_rows(a, 0, 2), a);
    assert_eq!(tape.len(), 2);
}
