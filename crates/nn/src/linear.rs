//! Affine layers and small multi-layer perceptrons.

use eagle_tensor::{init, FusedAct, ParamId, Params, Tape, Var};
use rand::Rng;

/// `y = x W + b` with `W: (in, out)`, `b: (1, out)`.
#[derive(Debug, Clone)]
pub struct Linear {
    w: ParamId,
    b: ParamId,
}

impl Linear {
    /// Registers a new layer's parameters (Xavier weights, zero bias).
    pub fn new(
        params: &mut Params,
        name: &str,
        in_dim: usize,
        out_dim: usize,
        rng: &mut impl Rng,
    ) -> Self {
        let w = params.add(format!("{name}/w"), init::xavier_uniform(in_dim, out_dim, rng));
        let b = params.add(format!("{name}/b"), init::zeros(1, out_dim));
        Self { w, b }
    }

    /// Applies the layer to `x: (n, in_dim)`, returning `(n, out_dim)`.
    pub fn forward(&self, tape: &mut Tape, params: &Params, x: Var) -> Var {
        self.forward_fused(tape, params, x, FusedAct::None)
    }

    /// Applies the layer with an activation fused into the same tape node
    /// (bitwise-equal to layer-then-activation, but one node and no
    /// intermediate tensors).
    pub fn forward_fused(&self, tape: &mut Tape, params: &Params, x: Var, act: FusedAct) -> Var {
        let w = tape.param(params, self.w);
        let b = tape.param(params, self.b);
        tape.affine(x, w, b, act)
    }
}

/// A stack of [`Linear`] layers with an activation between them — the paper's
/// grouper is `FeedForward` with two hidden layers of 64 ReLU units.
#[derive(Debug, Clone)]
pub struct FeedForward {
    layers: Vec<Linear>,
    activation: FusedAct,
}

impl FeedForward {
    /// Builds an MLP with the given layer sizes, e.g. `[in, 64, 64, out]`.
    /// The activation is applied after every layer except the last.
    pub fn new(
        params: &mut Params,
        name: &str,
        sizes: &[usize],
        activation: FusedAct,
        rng: &mut impl Rng,
    ) -> Self {
        assert!(sizes.len() >= 2, "need at least input and output sizes");
        let layers = sizes
            .windows(2)
            .enumerate()
            .map(|(i, wnd)| Linear::new(params, &format!("{name}/l{i}"), wnd[0], wnd[1], rng))
            .collect();
        Self { layers, activation }
    }

    /// Applies the MLP to `x: (n, in_dim)`. Hidden layers run as fused
    /// affine+activation nodes; the last layer stays affine-only.
    pub fn forward(&self, tape: &mut Tape, params: &Params, x: Var) -> Var {
        let mut h = x;
        let last = self.layers.len() - 1;
        for (i, layer) in self.layers.iter().enumerate() {
            let act = if i < last { self.activation } else { FusedAct::None };
            h = layer.forward_fused(tape, params, h, act);
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eagle_tensor::{optim::Adam, Grads, Tensor};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn linear_shapes_and_bias() {
        let mut params = Params::new();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let lin = Linear::new(&mut params, "l", 3, 2, &mut rng);
        // Set bias to known values to verify broadcasting.
        let bias_id = params.ids().find(|&id| params.name(id) == "l/b").unwrap();
        params.get_mut(bias_id).data_mut().copy_from_slice(&[10.0, 20.0]);
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::zeros(4, 3));
        let y = lin.forward(&mut tape, &params, x);
        assert_eq!(tape.value(y).shape(), (4, 2));
        for r in 0..4 {
            assert_eq!(tape.value(y).row(r), &[10.0, 20.0]);
        }
    }

    #[test]
    fn mlp_learns_xor() {
        let mut params = Params::new();
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let mlp = FeedForward::new(&mut params, "xor", &[2, 8, 1], FusedAct::Tanh, &mut rng);
        let xs = Tensor::from_vec(4, 2, vec![0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0]);
        let ys = Tensor::from_vec(4, 1, vec![0.0, 1.0, 1.0, 0.0]);
        let mut opt = Adam::new(0.02);
        let mut grads = Grads::for_params(&params);
        let mut last_loss = f32::INFINITY;
        for _ in 0..800 {
            grads.zero();
            let mut tape = Tape::new();
            let x = tape.leaf(xs.clone());
            let target = tape.leaf(ys.clone());
            let pred = mlp.forward(&mut tape, &params, x);
            let err = tape.sub(pred, target);
            let sq = tape.mul_elem(err, err);
            let loss = tape.mean_all(sq);
            last_loss = tape.value(loss).item();
            tape.backward_into(loss, &mut grads);
            opt.step_grads(&mut params, &grads);
        }
        assert!(last_loss < 0.05, "XOR not learned, loss = {last_loss}");
    }
}
