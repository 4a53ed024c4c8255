//! Named parameter storage shared by all network modules.
//!
//! Modules do not own their weights; they hold [`ParamId`] handles into a [`Params`]
//! store. A fresh [`Tape`](crate::tape::Tape) is built per forward pass and parameters
//! are injected with [`Tape::param`](crate::tape::Tape::param), which records a
//! reference to the value (each entry is an `Arc<Tensor>`), not a copy;
//! [`Params::clone`] shares every value the same way until one side writes it.
//! The store holds values only: gradients live in detached
//! [`Grads`](crate::grads::Grads) buffers, filled by
//! [`Tape::backward_into`](crate::tape::Tape::backward_into) and consumed by
//! [`Adam::step_grads`](crate::optim::Adam::step_grads).

use std::sync::{Arc, Weak};

use crate::tensor::Tensor;

/// Handle to one parameter tensor inside a [`Params`] store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub struct ParamId(pub(crate) usize);

impl ParamId {
    /// Raw index of this parameter inside its store.
    pub fn index(self) -> usize {
        self.0
    }
}

#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
struct ParamEntry {
    name: String,
    value: Arc<Tensor>,
}

/// A flat store of named parameter tensors.
#[derive(Debug, Clone, Default, serde::Serialize, serde::Deserialize)]
pub struct Params {
    entries: Vec<ParamEntry>,
}

impl Params {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a parameter, returning its handle.
    pub fn add(&mut self, name: impl Into<String>, value: Tensor) -> ParamId {
        self.entries.push(ParamEntry { name: name.into(), value: Arc::new(value) });
        ParamId(self.entries.len() - 1)
    }

    /// Number of registered parameter tensors.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no parameters are registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total number of scalar parameters.
    pub fn num_scalars(&self) -> usize {
        self.entries.iter().map(|e| e.value.len()).sum()
    }

    /// Name the parameter was registered under.
    pub fn name(&self, id: ParamId) -> &str {
        &self.entries[id.0].name
    }

    /// Current value of a parameter.
    pub fn get(&self, id: ParamId) -> &Tensor {
        &self.entries[id.0].value
    }

    /// The shared value itself, for a tape to hold without copying it.
    pub(crate) fn shared(&self, id: ParamId) -> &Arc<Tensor> {
        &self.entries[id.0].value
    }

    /// Mutable value of a parameter (used by optimizers). Copies the value
    /// first if a tape or a cloned store still shares it, and moves it to a
    /// new allocation (no copy) if only a [`ParamsStamp`] refers to it.
    pub fn get_mut(&mut self, id: ParamId) -> &mut Tensor {
        Arc::make_mut(&mut self.entries[id.0].value)
    }

    /// Stamps the values this store holds now.
    pub fn stamp(&self) -> ParamsStamp {
        ParamsStamp(self.entries.iter().map(|e| Arc::downgrade(&e.value)).collect())
    }

    /// Iterator over all parameter handles.
    pub fn ids(&self) -> impl Iterator<Item = ParamId> + '_ {
        (0..self.entries.len()).map(ParamId)
    }
}

/// Per-tensor identity of a store's values, for a cache of values computed
/// from them. `Weak` pointers free a superseded value as usual but keep its
/// address reserved, and [`Params::get_mut`] moves or copies a stamped value,
/// so a store matches exactly while it holds the stamped values unwritten.
#[derive(Debug, Clone)]
pub struct ParamsStamp(Vec<Weak<Tensor>>);

impl ParamsStamp {
    /// True when `params` holds the very tensors the stamp was taken from,
    /// in the same order (a clone of the store matches; a reload does not).
    pub fn matches(&self, params: &Params) -> bool {
        self.0.len() == params.entries.len()
            && self.0.iter().zip(&params.entries).all(|(w, e)| w.as_ptr() == Arc::as_ptr(&e.value))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_get_and_names() {
        let mut p = Params::new();
        let w = p.add("w", Tensor::full(2, 3, 1.0));
        let b = p.add("b", Tensor::zeros(1, 3));
        assert_eq!(p.len(), 2);
        assert_eq!(p.num_scalars(), 9);
        assert_eq!(p.name(w), "w");
        assert_eq!(p.get(b).shape(), (1, 3));
    }

    #[test]
    fn a_clone_shares_until_one_side_writes() {
        let mut p = Params::new();
        let w = p.add("w", Tensor::row_vector(&[1.0, 2.0]));
        let snapshot = p.clone();
        assert!(std::ptr::eq(p.get(w), snapshot.get(w)), "a clone copies no value");
        p.get_mut(w).data_mut()[0] = 5.0;
        assert_eq!(p.get(w).data(), &[5.0, 2.0]);
        assert_eq!(snapshot.get(w).data(), &[1.0, 2.0], "the write did not reach the clone");
        let at = p.get(w) as *const Tensor;
        p.get_mut(w).data_mut()[1] = 6.0;
        assert!(std::ptr::eq(p.get(w), at), "an unshared value is written in place");
    }

    #[test]
    fn a_stamp_matches_until_a_value_is_written_or_replaced() {
        let mut p = Params::new();
        let w = p.add("w", Tensor::row_vector(&[1.0, 2.0]));
        p.add("b", Tensor::zeros(1, 1));
        let stamp = p.stamp();
        assert!(stamp.matches(&p) && stamp.matches(&p.clone()));
        let mut written = p.clone();
        written.get_mut(w).data_mut()[0] = 1.0; // shared: copied
        assert!(!stamp.matches(&written), "a copied value is another tensor");
        drop(written);
        p.get_mut(w).data_mut()[0] = 1.0; // unshared but stamped: moved
        assert!(!stamp.matches(&p), "an in-place write detaches the stamp");
        let mut longer = p.clone();
        longer.add("extra", Tensor::zeros(1, 1));
        assert!(!p.stamp().matches(&longer));
        let fresh: Params = serde_json::from_str(&serde_json::to_string(&p).unwrap()).unwrap();
        assert!(!p.stamp().matches(&fresh), "equal values, other tensors");
    }
}
