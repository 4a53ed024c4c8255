//! The per-(graph, machine) cost graph the event engine runs over.
//!
//! Everything a placement's simulation reads that does not depend on the
//! placement, flattened once: CSR successor lists, in-degrees, each op's
//! FLOPs, kind, output bytes and resident bytes, and the machine's per-device
//! throughput table, launch overheads, capacities and link constants. A
//! caller that simulates many placements of one graph builds one and reuses
//! it ([`Environment`](crate::Environment) on its first cache miss, the
//! serving router per cached agent, `eagle_core::infer::best_of` per call,
//! [`simulated_annealing`](crate::search::simulated_annealing) per search,
//! [`calibrate`](crate::calibrate) per probe); [`simulate`](crate::simulate)
//! builds one per call.
//!
//! An op's execution time is computed at dispatch from its FLOPs and the
//! throughput table, and a transfer's time when it is booked — the operands
//! and operations of [`Machine::exec_time`] and [`Machine::transfer_time`],
//! so the same bits. Tabulating them per (op, device) made the engine about
//! 3 % faster but the cost graph about 1.4x dearer to build, which a one-off
//! [`simulate`](crate::simulate) call pays in full.

use eagle_opgraph::{OpGraph, ALL_OP_KINDS};

use crate::device::{efficiency, Machine};
use crate::placement::{Placement, PlacementError};

/// Number of op kinds: the stride of the throughput table.
const KINDS: usize = ALL_OP_KINDS.len();

/// A graph's costs on one machine, laid out for the event engine.
#[derive(Debug, Clone)]
pub struct CostGraph {
    /// Op `i`'s successors are `succ[succ_start[i]..succ_start[i + 1]]`, in
    /// the graph's edge order.
    succ_start: Vec<u32>,
    succ: Vec<u32>,
    pub(crate) in_degree: Vec<u32>,
    /// Per op: FLOPs and kind (its `OpKind` discriminant).
    flops: Vec<f64>,
    kind: Vec<u8>,
    /// [`Machine::exec_time`]'s other operands: `rate[d * KINDS + kind]` is
    /// device `d`'s peak FLOP/s times its efficiency on `kind`, `launch[d]`
    /// its dispatch overhead.
    rate: Vec<f64>,
    launch: Vec<f64>,
    /// Per op: bytes of the output tensor, shipped once per remote device.
    pub(crate) out_bytes: Vec<u64>,
    /// Per op: parameter plus activation bytes resident on its device.
    resident: Vec<u64>,
    pub(crate) capacity: Vec<u64>,
    link_bandwidth: f64,
    pub(crate) transfer_latency: f64,
}

impl CostGraph {
    /// Flattens `graph`'s costs on `machine`.
    pub fn new(graph: &OpGraph, machine: &Machine) -> Self {
        Self::scaled(graph, machine, 1.0)
    }

    /// [`CostGraph::new`] of `graph` with every op's FLOPs multiplied by
    /// `flops_scale`: what [`crate::calibrate`] bisects over without cloning
    /// the graph.
    pub(crate) fn scaled(graph: &OpGraph, machine: &Machine, flops_scale: f64) -> Self {
        let n = graph.len();
        let mut rate = vec![0.0; machine.num_devices() * KINDS];
        for (d, spec) in machine.devices.iter().enumerate() {
            for &k in &ALL_OP_KINDS {
                rate[d * KINDS + k as usize] = spec.peak_flops * efficiency(k, spec.kind);
            }
        }
        let mut succ_start = Vec::with_capacity(n + 1);
        let mut succ = Vec::with_capacity(graph.num_edges());
        let mut in_degree = Vec::with_capacity(n);
        let mut flops = Vec::with_capacity(n);
        let mut kind = Vec::with_capacity(n);
        let mut out_bytes = Vec::with_capacity(n);
        let mut resident = Vec::with_capacity(n);
        succ_start.push(0);
        for id in graph.ids() {
            let node = graph.node(id);
            succ.extend(graph.succs(id).iter().map(|s| s.0));
            succ_start.push(succ.len() as u32);
            in_degree.push(graph.preds(id).len() as u32);
            flops.push(node.flops * flops_scale);
            kind.push(node.kind as u8);
            out_bytes.push(node.out_bytes);
            resident.push(node.param_bytes + node.act_bytes);
        }
        CostGraph {
            succ_start,
            succ,
            in_degree,
            flops,
            kind,
            rate,
            launch: machine.devices.iter().map(|d| d.launch_overhead).collect(),
            out_bytes,
            resident,
            capacity: machine.devices.iter().map(|d| d.mem_bytes).collect(),
            link_bandwidth: machine.link_bandwidth,
            transfer_latency: machine.transfer_latency,
        }
    }

    /// Number of ops.
    pub(crate) fn len(&self) -> usize {
        self.in_degree.len()
    }

    /// Number of devices.
    pub(crate) fn num_devices(&self) -> usize {
        self.launch.len()
    }

    /// [`Placement::validate`] against the graph and machine this was built from.
    pub(crate) fn validate(&self, placement: &Placement) -> Result<(), PlacementError> {
        placement.validate_shape(self.len(), self.num_devices())
    }

    /// Successors of op `op`.
    #[inline]
    pub(crate) fn succs(&self, op: u32) -> &[u32] {
        let i = op as usize;
        &self.succ[self.succ_start[i] as usize..self.succ_start[i + 1] as usize]
    }

    /// Op `op`'s execution time on device `d`, dispatch overhead included:
    /// [`Machine::exec_time`], bit for bit.
    #[inline]
    pub(crate) fn exec_time(&self, op: u32, d: usize) -> f64 {
        let i = op as usize;
        self.launch[d] + self.flops[i] / self.rate[d * KINDS + self.kind[i] as usize]
    }

    /// Time to ship op `op`'s output over a link: [`Machine::transfer_time`].
    #[inline]
    pub(crate) fn transfer_time(&self, op: u32) -> f64 {
        self.transfer_latency + self.out_bytes[op as usize] as f64 / self.link_bandwidth
    }

    /// Per-device resident bytes under `placement`:
    /// [`Placement::memory_per_device`].
    pub(crate) fn memory_per_device(&self, placement: &Placement) -> Vec<u64> {
        placement.memory_with(self.resident.iter().copied(), self.num_devices())
    }
}
