//! Gradient buffers, detached from the parameter store.
//!
//! [`Grads`] is the only gradient store: one slot per parameter of a
//! [`Params`] store. [`Tape::backward_into`](crate::tape::Tape::backward_into)
//! fills it and [`Adam::step_grads`](crate::optim::Adam::step_grads) consumes
//! it, so the store the forward pass reads from is never mutated by a backward
//! pass. A slot is absent until a backward pass reaches its parameter: the
//! first deposit hands the tape's finished buffer over, a later one adds into
//! it, and [`Grads::zero`] releases every buffer. Whatever reads a slot reads
//! an absent one as a tensor of `0.0`, element by element.

use crate::params::{ParamId, Params};
use crate::tensor::Tensor;

/// Gradient buffers mirroring the layout of one [`Params`] store.
#[derive(Debug, Clone)]
pub struct Grads {
    /// One gradient per parameter, absent until a deposit lands.
    slots: Vec<Option<Tensor>>,
    /// Each parameter's shape, which every deposit must have.
    shapes: Vec<(usize, usize)>,
}

impl Grads {
    /// Creates an empty slot for every parameter in `params`; no buffer is
    /// allocated until a gradient arrives. The layout (count and shapes) must
    /// stay fixed for the store's lifetime.
    pub fn for_params(params: &Params) -> Self {
        let shapes: Vec<_> = params.ids().map(|id| params.get(id).shape()).collect();
        Self { slots: vec![None; shapes.len()], shapes }
    }

    /// Number of gradient slots (one per parameter).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when no slots exist.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Releases every buffer, leaving each slot absent (call once per
    /// minibatch, before backward).
    pub fn zero(&mut self) {
        self.slots.fill(None);
    }

    /// Gradient of one parameter, `None` while no backward pass has reached it.
    pub fn get(&self, id: ParamId) -> Option<&Tensor> {
        self.slots[id.index()].as_ref()
    }

    /// Lands a finished gradient: an absent slot takes the buffer itself, a
    /// present one adds it. Exact against a zeroed buffer plus `grad` for any
    /// `grad` without a `-0.0`, which no tape slot holds (the deposit rules
    /// above `Tape::bump`): `0.0 + x` is `x`, bit for bit.
    ///
    /// # Panics
    /// Panics if `grad` is not the parameter's shape.
    pub(crate) fn deposit(&mut self, id: ParamId, grad: Tensor) {
        assert_eq!(grad.shape(), self.shapes[id.index()], "gradient shape mismatch");
        match &mut self.slots[id.index()] {
            Some(g) => g.add_assign(&grad),
            slot => *slot = Some(grad),
        }
    }

    /// Global L2 norm over all buffers (the quantity gradient clipping
    /// bounds): per-tensor `f32` sum of squares, summed across tensors, then
    /// one square root. An absent slot is summed as its zeros, not skipped.
    pub fn global_norm(&self) -> f32 {
        let squares = |(slot, &(r, c)): (&Option<Tensor>, &(usize, usize))| match slot {
            Some(s) => s.data().iter().map(|&g| g * g).sum::<f32>(),
            None => std::iter::repeat_n(0.0f32, r * c).map(|g| g * g).sum::<f32>(),
        };
        self.slots.iter().zip(&self.shapes).map(squares).sum::<f32>().sqrt()
    }

    /// Clips so the global norm is at most `max_norm` (the paper clips at
    /// 1.0; it must not be negative); returns the pre-clip norm. An absent
    /// slot stays absent: its zeros times a non-negative scale are `0.0`.
    pub fn clip_global_norm(&mut self, max_norm: f32) -> f32 {
        debug_assert!(max_norm >= 0.0, "negative clip norm {max_norm}");
        let norm = self.global_norm();
        if norm > max_norm && norm > 0.0 {
            let scale = max_norm / norm;
            for s in self.slots.iter_mut().flatten() {
                s.scale_inplace(scale);
            }
        }
        norm
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> (Params, ParamId, ParamId) {
        let mut p = Params::new();
        let a = p.add("a", Tensor::zeros(1, 2));
        let b = p.add("b", Tensor::zeros(2, 2));
        (p, a, b)
    }

    #[test]
    fn layout_mirrors_params_and_deposits_accumulate() {
        let (p, a, b) = store();
        let mut g = Grads::for_params(&p);
        assert_eq!(g.len(), 2);
        assert!(g.get(a).is_none() && g.get(b).is_none(), "nothing allocated up front");
        g.deposit(a, Tensor::row_vector(&[1.0, 2.0]));
        g.deposit(a, Tensor::row_vector(&[1.0, 2.0]));
        assert_eq!(g.get(a).unwrap().data(), &[2.0, 4.0]);
        assert!(g.get(b).is_none());
        g.zero();
        assert!(g.get(a).is_none(), "zero releases the buffer");
    }

    #[test]
    #[should_panic(expected = "gradient shape mismatch")]
    fn a_deposit_of_the_wrong_shape_panics() {
        let (p, _, b) = store();
        Grads::for_params(&p).deposit(b, Tensor::row_vector(&[1.0, 2.0]));
    }

    #[test]
    fn zero_clears() {
        let (p, a, _) = store();
        let mut g = Grads::for_params(&p);
        g.deposit(a, Tensor::row_vector(&[3.0, 4.0]));
        assert_eq!(g.global_norm(), 5.0);
        g.zero();
        assert_eq!(g.global_norm().to_bits(), 0.0f32.to_bits());
    }

    #[test]
    fn clip_global_norm_scales_down_only() {
        let (p, a, b) = store();
        let mut g = Grads::for_params(&p);
        g.deposit(a, Tensor::row_vector(&[3.0, 4.0]));
        assert_eq!(g.global_norm(), 5.0);
        let pre = g.clip_global_norm(1.0);
        assert_eq!(pre, 5.0);
        assert!((g.global_norm() - 1.0).abs() < 1e-6);
        assert!(g.get(b).is_none(), "clipping allocates no absent slot");
        // Already below threshold: untouched.
        let pre2 = g.clip_global_norm(10.0);
        assert!((pre2 - 1.0).abs() < 1e-6);
        assert!((g.global_norm() - 1.0).abs() < 1e-6);
    }
}
