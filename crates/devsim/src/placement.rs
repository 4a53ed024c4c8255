//! Placement representation: one device per operation.

use eagle_opgraph::{OpGraph, OpId};
use serde::{Deserialize, Serialize};

use crate::device::{DeviceId, Machine};

/// Why a placement does not fit a graph/machine pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementError {
    /// The placement covers a different number of ops than the graph has.
    LengthMismatch {
        /// Ops covered by the placement.
        placement: usize,
        /// Ops in the graph.
        graph: usize,
    },
    /// An op is assigned to a device index the machine does not have.
    UnknownDevice {
        /// The offending op index.
        op: usize,
        /// The nonexistent device index.
        device: u8,
    },
}

impl std::fmt::Display for PlacementError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlacementError::LengthMismatch { placement, graph } => {
                write!(f, "placement covers {placement} ops but graph has {graph}")
            }
            PlacementError::UnknownDevice { op, device } => {
                write!(f, "op {op} placed on nonexistent device {device}")
            }
        }
    }
}

impl std::error::Error for PlacementError {}

/// A full device assignment for a graph: `device[i]` is where op `i` runs.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Placement {
    devices: Vec<DeviceId>,
}

impl Placement {
    /// Wraps a raw assignment vector (must have one entry per op).
    pub fn new(devices: Vec<DeviceId>) -> Self {
        Self { devices }
    }

    /// Places every op on `dev`.
    pub fn uniform(num_ops: usize, dev: DeviceId) -> Self {
        Self { devices: vec![dev; num_ops] }
    }

    /// Expands a grouped decision: `group_of[i]` maps op `i` to a group and
    /// `group_devices[g]` maps group `g` to a device — the decode step shared by
    /// every hierarchical agent in the paper.
    ///
    /// # Panics
    /// Panics if a group index is out of range of `group_devices`.
    pub fn from_groups(group_of: &[usize], group_devices: &[DeviceId]) -> Self {
        Self { devices: group_of.iter().map(|&g| group_devices[g]).collect() }
    }

    /// Number of ops covered.
    pub fn len(&self) -> usize {
        self.devices.len()
    }

    /// True when no ops are covered.
    pub fn is_empty(&self) -> bool {
        self.devices.is_empty()
    }

    /// Device of op `id`.
    #[inline]
    pub fn device(&self, id: OpId) -> DeviceId {
        self.devices[id.index()]
    }

    /// Raw assignment.
    pub fn devices(&self) -> &[DeviceId] {
        &self.devices
    }

    /// Per-device resident memory (params + activations) under this placement.
    pub fn memory_per_device(&self, graph: &OpGraph, machine: &Machine) -> Vec<u64> {
        let mut mem = vec![0u64; machine.num_devices()];
        for id in graph.ids() {
            let n = graph.node(id);
            mem[self.device(id).index()] += n.param_bytes + n.act_bytes;
        }
        mem
    }

    /// Number of graph edges whose endpoints sit on different devices.
    pub fn cut_edges(&self, graph: &OpGraph) -> usize {
        graph.edges().filter(|&(u, v)| self.device(u) != self.device(v)).count()
    }

    /// Total bytes crossing devices per step.
    pub fn cut_bytes(&self, graph: &OpGraph) -> u64 {
        graph
            .edges()
            .filter(|&(u, v)| self.device(u) != self.device(v))
            .map(|(u, _)| graph.node(u).out_bytes)
            .sum()
    }

    /// Checks the placement covers exactly the graph's ops and uses only devices
    /// that exist on the machine.
    pub fn validate(&self, graph: &OpGraph, machine: &Machine) -> Result<(), PlacementError> {
        if self.devices.len() != graph.len() {
            return Err(PlacementError::LengthMismatch {
                placement: self.devices.len(),
                graph: graph.len(),
            });
        }
        for (i, d) in self.devices.iter().enumerate() {
            if d.index() >= machine.num_devices() {
                return Err(PlacementError::UnknownDevice { op: i, device: d.0 });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eagle_opgraph::{OpKind, OpNode, Phase};

    fn chain(n: usize) -> OpGraph {
        let mut g = OpGraph::new("chain");
        let mut prev = None;
        for i in 0..n {
            let id = g.add_node(
                OpNode::new(format!("op{i}"), OpKind::MatMul, Phase::Forward)
                    .with_out_bytes(100)
                    .with_act_bytes(10),
            );
            if let Some(p) = prev {
                g.add_edge(p, id);
            }
            prev = Some(id);
        }
        g
    }

    #[test]
    fn uniform_and_from_groups() {
        let m = Machine::paper_machine();
        let p = Placement::uniform(4, DeviceId(1));
        assert_eq!(p.len(), 4);
        assert_eq!(p.device(OpId(3)), DeviceId(1));

        let group_of = vec![0, 0, 1, 1];
        let gd = vec![DeviceId(1), DeviceId(2)];
        let p2 = Placement::from_groups(&group_of, &gd);
        assert_eq!(p2.device(OpId(0)), DeviceId(1));
        assert_eq!(p2.device(OpId(3)), DeviceId(2));
        assert!(p2.validate(&chain(4), &m).is_ok());
    }

    #[test]
    fn cut_metrics() {
        let g = chain(4);
        let p = Placement::new(vec![DeviceId(1), DeviceId(1), DeviceId(2), DeviceId(2)]);
        assert_eq!(p.cut_edges(&g), 1);
        assert_eq!(p.cut_bytes(&g), 100);
        let all_one = Placement::uniform(4, DeviceId(1));
        assert_eq!(all_one.cut_edges(&g), 0);
    }

    #[test]
    fn memory_accounting() {
        let g = chain(3);
        let m = Machine::paper_machine();
        let p = Placement::new(vec![DeviceId(1), DeviceId(1), DeviceId(2)]);
        let mem = p.memory_per_device(&g, &m);
        assert_eq!(mem[1], 20);
        assert_eq!(mem[2], 10);
        assert_eq!(mem[0], 0);
    }

    #[test]
    fn validate_catches_errors() {
        let g = chain(3);
        let m = Machine::paper_machine();
        assert!(Placement::uniform(2, DeviceId(1)).validate(&g, &m).is_err());
        assert!(Placement::uniform(3, DeviceId(99)).validate(&g, &m).is_err());
        assert!(Placement::uniform(3, DeviceId(4)).validate(&g, &m).is_ok());
    }
}
