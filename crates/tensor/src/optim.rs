//! The optimizer operating on a [`Params`] store.
//!
//! The paper trains every agent with Adam (lr = 0.01) and clips gradients by global
//! norm at 1.0: [`Adam::step_grads`] here, [`Grads::clip_global_norm`] beside the
//! buffers it scales.

use crate::grads::Grads;
use crate::params::{ParamId, Params};
use crate::tensor::Tensor;

/// Adam optimizer (Kingma & Ba) with bias correction.
///
/// Serializes its full state — step count and both moment buffers — so a
/// checkpointed training run resumes with bit-identical updates (the moments
/// are *not* reconstructable from the parameters alone).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Adam {
    /// Learning rate (`0.01` in the paper).
    pub lr: f32,
    /// First-moment decay (default `0.9`).
    pub beta1: f32,
    /// Second-moment decay (default `0.999`).
    pub beta2: f32,
    /// Numerical-stability constant (default `1e-8`).
    pub eps: f32,
    t: u64,
    m: Vec<Tensor>,
    v: Vec<Tensor>,
}

impl Adam {
    /// Creates an Adam optimizer with standard betas.
    pub fn new(lr: f32) -> Self {
        Self { lr, beta1: 0.9, beta2: 0.999, eps: 1e-8, t: 0, m: Vec::new(), v: Vec::new() }
    }

    /// Number of steps taken so far.
    pub fn steps(&self) -> u64 {
        self.t
    }

    /// Checks this is a state a run over `params` could have saved, so the next
    /// step can continue from it: hyperparameters an update can divide by
    /// (`lr` and `eps` finite, `eps > 0` — a zero gradient is `0 / (0 + eps)`
    /// — and both betas in `[0, 1)`, so the bias corrections are not zero),
    /// and no moments yet or one finite `m`/`v` pair per parameter, of that
    /// parameter's shape. Pre-empts the layout assertions of
    /// [`Adam::step_grads`] for state that was decoded, not computed.
    pub fn check_layout(&self, params: &Params) -> Result<(), String> {
        let Self { lr, beta1, beta2, eps, .. } = *self;
        let beta = |b: f32| (0.0..1.0).contains(&b);
        if !(lr.is_finite() && eps.is_finite() && eps > 0.0 && beta(beta1) && beta(beta2)) {
            return Err(format!("lr {lr}, beta1 {beta1}, beta2 {beta2}, eps {eps} are not Adam's"));
        }
        if self.m.is_empty() && self.v.is_empty() {
            return Ok(());
        }
        if self.m.len() != params.len() || self.v.len() != params.len() {
            return Err(format!(
                "{} first and {} second moments for {} parameters",
                self.m.len(),
                self.v.len(),
                params.len()
            ));
        }
        for (id, (m, v)) in params.ids().zip(self.m.iter().zip(&self.v)) {
            let (name, shape) = (params.name(id), params.get(id).shape());
            if m.shape() != shape || v.shape() != shape {
                let (r, c) = shape;
                return Err(format!("moments of {name} are not {r}x{c}"));
            }
            if !m.all_finite() || !v.all_finite() {
                return Err(format!("moments of {name} hold a non-finite value"));
            }
        }
        Ok(())
    }

    /// Allocates the moment buffers on first use and bumps the step counter.
    fn begin_step(&mut self, params: &Params) -> (f32, f32) {
        if self.m.is_empty() {
            for id in params.ids().collect::<Vec<_>>() {
                let (r, c) = params.get(id).shape();
                self.m.push(Tensor::zeros(r, c));
                self.v.push(Tensor::zeros(r, c));
            }
        }
        assert_eq!(self.m.len(), params.len(), "param store layout changed under Adam");
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        (bc1, bc2)
    }

    /// One parameter's update. The per-element op order is load-bearing:
    /// checkpointed runs replay it and must land on identical bits. An absent
    /// gradient is the same update with `gj = 0.0` — never a skip, which would
    /// leave the moments undecayed.
    fn update_one(
        &mut self,
        idx: usize,
        value: &mut Tensor,
        grad: Option<&Tensor>,
        bc1: f32,
        bc2: f32,
    ) {
        let (m, v) = (self.m[idx].data_mut(), self.v[idx].data_mut());
        assert!(
            m.len() == value.len() && grad.is_none_or(|g| g.len() == value.len()),
            "layout changed under Adam"
        );
        let (lr, beta1, beta2, eps) = (self.lr, self.beta1, self.beta2, self.eps);
        let elems = value.data_mut().iter_mut().zip(m).zip(v);
        let step = |((x, m), v): ((&mut f32, &mut f32), &mut f32), gj: f32| {
            *m = beta1 * *m + (1.0 - beta1) * gj;
            *v = beta2 * *v + (1.0 - beta2) * gj * gj;
            let m_hat = *m / bc1;
            let v_hat = *v / bc2;
            *x -= lr * m_hat / (v_hat.sqrt() + eps);
        };
        match grad {
            Some(g) => elems.zip(g.data()).for_each(|(e, &gj)| step(e, gj)),
            None => elems.for_each(|e| step(e, 0.0)),
        }
    }

    /// Applies one Adam update reading gradients from detached [`Grads`]
    /// buffers (filled by [`Tape::backward_into`](crate::tape::Tape::backward_into)).
    ///
    /// Moment buffers are allocated lazily on the first step; the store's layout
    /// (count and shapes of parameters) must stay fixed across steps. Drop
    /// every tape that read `params` first: [`Params::get_mut`] copies a value
    /// a tape still holds.
    pub fn step_grads(&mut self, params: &mut Params, grads: &Grads) {
        let (bc1, bc2) = self.begin_step(params);
        let ids: Vec<ParamId> = params.ids().collect();
        for id in ids {
            self.update_one(id.index(), params.get_mut(id), grads.get(id), bc1, bc2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tape::{Tape, Var};

    /// One Adam step on `loss(tape, params)`, through the detached buffers.
    fn descend(
        params: &mut Params,
        opt: &mut Adam,
        grads: &mut Grads,
        loss: impl Fn(&mut Tape, &Params) -> Var,
    ) {
        grads.zero();
        let mut tape = Tape::new();
        let l = loss(&mut tape, params);
        tape.backward_into(l, grads);
        drop(tape);
        opt.step_grads(params, grads);
    }

    /// `(w - 3)^2` for the store's first parameter.
    fn quadratic(tape: &mut Tape, params: &Params) -> Var {
        let w = tape.param(params, params.ids().next().unwrap());
        let shifted = tape.add_scalar(w, -3.0);
        let sq = tape.mul_elem(shifted, shifted);
        tape.sum_all(sq)
    }

    #[test]
    fn adam_minimizes_quadratic() {
        let mut params = Params::new();
        let id = params.add("w", Tensor::scalar(-5.0));
        let mut opt = Adam::new(0.05);
        let mut grads = Grads::for_params(&params);
        for _ in 0..400 {
            descend(&mut params, &mut opt, &mut grads, quadratic);
        }
        let w = params.get(id).item();
        assert!((w - 3.0).abs() < 0.1, "w = {w}");
        assert_eq!(opt.steps(), 400);
    }

    #[test]
    fn adam_state_roundtrip_resumes_bit_identically() {
        // Train half-way, snapshot optimizer + params, finish training twice —
        // once straight through, once from the restored snapshot — and demand
        // bit-identical trajectories.
        let run = |resume_at: Option<usize>| -> (f32, Adam) {
            let mut params = Params::new();
            let id = params.add("w", Tensor::scalar(-5.0));
            let mut opt = Adam::new(0.05);
            let mut grads = Grads::for_params(&params);
            let mut snapshot: Option<(Params, Adam)> = None;
            for step in 0..200 {
                if Some(step) == resume_at {
                    let (p, o) = snapshot.take().expect("snapshot taken earlier");
                    params = p;
                    opt = o;
                }
                descend(&mut params, &mut opt, &mut grads, quadratic);
                if step == 99 && resume_at.is_some() {
                    // JSON round-trip, not a clone: this is what a checkpoint
                    // does, and it must be bit-exact for every float.
                    let o = serde_json::to_string(&opt).unwrap();
                    let p = serde_json::to_string(&params).unwrap();
                    snapshot = Some((
                        serde_json::from_str(&p).unwrap(),
                        serde_json::from_str(&o).unwrap(),
                    ));
                }
            }
            (params.get(id).item(), opt)
        };
        let (w_straight, opt_straight) = run(None);
        let (w_resumed, opt_resumed) = run(Some(100));
        assert_eq!(w_straight.to_bits(), w_resumed.to_bits());
        assert_eq!(opt_straight, opt_resumed, "moments and step count must round-trip");
        assert_eq!(opt_resumed.steps(), 200);
    }

    #[test]
    fn check_layout_accepts_what_a_run_saves_and_names_what_it_could_not() {
        let mut params = Params::new();
        params.add("a", Tensor::scalar(1.0));
        params.add("b", Tensor::row_vector(&[-2.0, 4.0]));
        let mut opt = Adam::new(0.1);
        assert_eq!(opt.check_layout(&params), Ok(()), "no moments before the first step");
        let mut grads = Grads::for_params(&params);
        descend(&mut params, &mut opt, &mut grads, quadratic);
        assert_eq!(opt.check_layout(&params), Ok(()));

        let mut dropped = opt.clone();
        dropped.m.remove(0);
        let e = dropped.check_layout(&params).unwrap_err();
        assert_eq!(e, "1 first and 2 second moments for 2 parameters");
        let mut reshaped = opt.clone();
        reshaped.v[1] = Tensor::scalar(0.0);
        assert_eq!(reshaped.check_layout(&params).unwrap_err(), "moments of b are not 1x2");
        opt.m[0] = Tensor::scalar(f32::INFINITY);
        assert_eq!(opt.check_layout(&params).unwrap_err(), "moments of a hold a non-finite value");
        // JSON `1e300` decodes to an infinite `f32`; a beta of 1 zeroes the
        // bias correction every update divides by.
        let e = Adam { lr: f32::INFINITY, ..Adam::new(0.1) }.check_layout(&params).unwrap_err();
        assert_eq!(e, "lr inf, beta1 0.9, beta2 0.999, eps 0.00000001 are not Adam's");
        assert!(Adam { beta2: 1.0, ..Adam::new(0.1) }.check_layout(&params).is_err());
    }

    #[test]
    fn an_absent_gradient_steps_like_a_zero_filled_one() {
        // `b` gets nonzero gradients for three steps, then no backward reaches
        // it. One run leaves its slot absent, the other fills it with zeros:
        // value, moments, norm and clip must agree bit for bit (an absent slot
        // reads as 0.0 and is never skipped, so `b`'s moments keep decaying).
        let bits = |t: &Tensor| t.data().iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
        let run = |zero_fill: bool| {
            let mut params = Params::new();
            let a = params.add("a", Tensor::row_vector(&[0.5, -1.5]));
            let b = params.add("b", Tensor::row_vector(&[2.0, -3.0, 0.25]));
            let mut opt = Adam::new(0.1);
            let mut grads = Grads::for_params(&params);
            let (mut norms, mut b_at_three) = (Vec::new(), Vec::new());
            for step in 0..6 {
                grads.zero();
                let mut tape = Tape::new();
                let va = tape.param(&params, a);
                let mut used = vec![va];
                if step < 3 {
                    used.push(tape.param(&params, b));
                }
                let sums: Vec<Var> = used
                    .into_iter()
                    .map(|v| {
                        let sq = tape.mul_elem(v, v);
                        tape.sum_all(sq)
                    })
                    .collect();
                let loss = tape.add_n(&sums);
                tape.backward_into(loss, &mut grads);
                drop(tape);
                assert_eq!(grads.get(b).is_none(), step >= 3);
                if zero_fill && step >= 3 {
                    grads.deposit(b, Tensor::zeros(1, 3));
                }
                norms.push(grads.global_norm().to_bits());
                norms.push(grads.clip_global_norm(0.5).to_bits());
                assert_eq!(grads.get(b).is_none(), step >= 3 && !zero_fill, "clip allocates none");
                opt.step_grads(&mut params, &grads);
                if step == 2 {
                    b_at_three = bits(params.get(b));
                }
            }
            let state = [&opt.m[0], &opt.m[1], &opt.v[0], &opt.v[1], params.get(a), params.get(b)];
            (state.map(bits), norms, b_at_three)
        };
        let (absent, filled) = (run(false), run(true));
        assert_eq!(absent, filled);
        assert_ne!(absent.2, absent.0[5], "momentum moves b after its gradient stops");
    }

    #[test]
    fn adam_handles_multiple_params() {
        let mut params = Params::new();
        let a = params.add("a", Tensor::scalar(10.0));
        let b = params.add("b", Tensor::row_vector(&[-2.0, 4.0]));
        let mut opt = Adam::new(0.1);
        let mut grads = Grads::for_params(&params);
        for _ in 0..600 {
            descend(&mut params, &mut opt, &mut grads, |tape, params| {
                let va = tape.param(params, a);
                let vb = tape.param(params, b);
                let sa = tape.mul_elem(va, va);
                let sb = tape.mul_elem(vb, vb);
                let la = tape.sum_all(sa);
                let lb = tape.sum_all(sb);
                tape.add(la, lb)
            });
        }
        assert!(params.get(a).item().abs() < 1e-2);
        assert!(params.get(b).norm() < 1e-2);
    }
}
