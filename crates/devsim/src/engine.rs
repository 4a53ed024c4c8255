//! The causal discrete-event scheduling core: the one definition of "the step
//! time of a placement". [`crate::simulate`] projects the reward from
//! [`schedule_stats`]; [`schedule`] also records every op's slot, which
//! [`Schedule::to_chrome_trace`] draws. It is built as a true discrete-event
//! engine:
//!
//! * **One time-ordered event queue.** Compute-finish and transfer-arrival
//!   events are processed in global time order, with a deterministic total
//!   order on ties: time first, then event kind (finishes before arrivals),
//!   then op index, then destination device. The same inputs therefore always
//!   produce the bit-identical schedule. Physically the queue is split by
//!   kind: a device runs one op at a time, so at most `num_devices` finish
//!   events are ever outstanding and they live in a per-device slot array;
//!   transfer arrivals (unbounded) live in a binary heap of packed
//!   `(time, producer, destination)` keys. Draining pops finishes at the
//!   current timestamp in op order, then arrivals in `(producer, dst)` order —
//!   exactly the logical queue's order at a fraction of the heap traffic.
//! * **Causal link reservations.** A cross-device transfer reserves its
//!   directed link *when the producing op actually finishes* — at the
//!   transfer's causal start time — never earlier. Per link, bookings are
//!   first-come-first-served in event order, so booked intervals are
//!   non-overlapping and non-decreasing in start time by construction (the
//!   property `tests/property_sim.rs` cross-checks against a brute-force
//!   reference).
//! * **Ready-queue dispatch.** Each device runs one op at a time. All events
//!   at a timestamp are drained before any op is started at that timestamp;
//!   an idle device then starts the waiting op with the smallest
//!   `(ready_time, op_index)` key.
//! * **Per-destination shipment dedup.** An op's output tensor ships at most
//!   once per destination device; additional consumers on that device reuse
//!   the one arrival (they fan out locally, as real runtimes do).
//!
//! The engine records a full schedule — every op slot and every booked
//! transfer — plus the counters the telemetry layer exposes (events processed,
//! peak queue depth, deduplicated shipments).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use eagle_opgraph::{OpGraph, OpId};

use crate::device::{DeviceId, Machine};
use crate::placement::Placement;

/// Packs `(ready_time, op)` into one integer key ordered like the tuple.
/// Simulated times are finite and non-negative, so the IEEE-754 bit pattern
/// of `t` is monotone in `t` and a single `u128` compare replaces an f64
/// `total_cmp` plus integer tie-breaks on the scheduler's hottest path.
#[inline]
fn ready_key(t: f64, op: u32) -> u128 {
    debug_assert!(t.is_finite() && t.is_sign_positive(), "simulated times are >= 0");
    ((t.to_bits() as u128) << 32) | op as u128
}

/// Packs an arrival event `(time, producer, dst)` into one ordered key.
#[inline]
fn arrival_key(t: f64, producer: u32, dst: u8) -> u128 {
    debug_assert!(t.is_finite() && t.is_sign_positive(), "simulated times are >= 0");
    ((t.to_bits() as u128) << 40) | ((producer as u128) << 8) | dst as u128
}

#[inline]
fn key_time(key: u128, payload_bits: u32) -> f64 {
    f64::from_bits((key >> payload_bits) as u64)
}

/// One op's scheduled execution window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpSlot {
    /// Op index.
    pub op: u32,
    /// Device the op ran on.
    pub device: u8,
    /// Start time in seconds from step begin.
    pub start: f64,
    /// Finish time in seconds.
    pub finish: f64,
}

/// One booked cross-device transfer on a directed link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransferSlot {
    /// The producing op whose output tensor is shipped.
    pub producer: u32,
    /// Source device (the producer's device).
    pub src: u8,
    /// Destination device.
    pub dst: u8,
    /// Payload size in bytes.
    pub bytes: u64,
    /// Causal start time: `max(producer finish, link free)`.
    pub start: f64,
    /// Arrival time on the destination device.
    pub finish: f64,
}

/// The complete causal schedule of one training step, plus engine counters.
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    /// Makespan in seconds (latest compute finish).
    pub step_time: f64,
    /// Per-op execution slots, in dispatch (start) order.
    pub ops: Vec<OpSlot>,
    /// Booked transfers, in causal booking order (non-decreasing start per link).
    pub transfers: Vec<TransferSlot>,
    /// Per-device busy time (compute only).
    pub device_busy: Vec<f64>,
    /// Total time spent in cross-device transfers (sum over links).
    pub comm_time: f64,
    /// Shipments skipped because the tensor was already bound for that
    /// destination device (consumers fanning out locally).
    pub transfers_deduped: u64,
    /// Events processed (compute finishes + transfer arrivals).
    pub events_processed: u64,
    /// Peak number of outstanding future events (running finishes plus
    /// in-flight arrivals).
    pub peak_queue_depth: usize,
}

impl Schedule {
    /// Exports the schedule in Chrome trace-event format (load in
    /// `chrome://tracing` or Perfetto) — which device runs what when, and
    /// where transfers serialize. Op names come from `graph`, the graph this
    /// schedule was built from; `ops` is empty on a [`schedule_stats`]
    /// schedule, so only [`schedule`]'s draws ops. Times are emitted in
    /// microseconds. Devices render as threads `0..num_devices`; each directed
    /// link with booked transfers renders as its own thread after the devices.
    pub fn to_chrome_trace(&self, graph: &OpGraph, machine: &Machine) -> String {
        use serde_json::Value;
        let obj = |entries: Vec<(&str, Value)>| {
            Value::Object(entries.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
        };
        let nd = machine.num_devices() as u64;
        let link_tid = |src: u8, dst: u8| nd + (src as u64) * nd + dst as u64;
        let mut events: Vec<Value> = self
            .ops
            .iter()
            .map(|op| {
                obj(vec![
                    ("name", Value::from(graph.node(OpId(op.op)).name.as_str())),
                    ("cat", Value::from("op")),
                    ("ph", Value::from("X")),
                    ("ts", Value::from(op.start * 1e6)),
                    ("dur", Value::from((op.finish - op.start) * 1e6)),
                    ("pid", Value::U64(0)),
                    ("tid", Value::U64(op.device as u64)),
                ])
            })
            .collect();
        events.extend(self.transfers.iter().map(|t| {
            obj(vec![
                ("name", Value::from(format!("xfer op{} ({} B)", t.producer, t.bytes))),
                ("cat", Value::from("transfer")),
                ("ph", Value::from("X")),
                ("ts", Value::from(t.start * 1e6)),
                ("dur", Value::from((t.finish - t.start) * 1e6)),
                ("pid", Value::U64(0)),
                ("tid", Value::U64(link_tid(t.src, t.dst))),
            ])
        }));
        // Thread names = device names, then one lane per used link.
        events.extend(machine.devices.iter().enumerate().map(|(i, d)| {
            obj(vec![
                ("name", Value::from("thread_name")),
                ("ph", Value::from("M")),
                ("pid", Value::U64(0)),
                ("tid", Value::U64(i as u64)),
                ("args", obj(vec![("name", Value::from(d.name.as_str()))])),
            ])
        }));
        let mut named_links: Vec<(u8, u8)> =
            self.transfers.iter().map(|t| (t.src, t.dst)).collect();
        named_links.sort_unstable();
        named_links.dedup();
        events.extend(named_links.into_iter().map(|(src, dst)| {
            let name = format!(
                "{}\u{2192}{}",
                machine.devices[src as usize].name, machine.devices[dst as usize].name
            );
            obj(vec![
                ("name", Value::from("thread_name")),
                ("ph", Value::from("M")),
                ("pid", Value::U64(0)),
                ("tid", Value::U64(link_tid(src, dst))),
                ("args", obj(vec![("name", Value::from(name))])),
            ])
        }));
        let doc = obj(vec![
            ("traceEvents", Value::Array(events)),
            ("displayTimeUnit", Value::from("ms")),
        ]);
        serde_json::to_string(&doc).expect("trace serializes")
    }
}

/// Runs the causal discrete-event engine over `graph` on `machine` under
/// `placement`, producing the full step schedule, every op slot recorded.
///
/// Memory feasibility is *not* checked here — gate on [`crate::simulate`]
/// returning [`SimOutcome::Valid`](crate::SimOutcome::Valid) first.
///
/// # Panics
/// Panics if the placement fails [`Placement::validate`] (a programming error:
/// agents only choose among existing devices).
pub fn schedule(graph: &OpGraph, machine: &Machine, placement: &Placement) -> Schedule {
    run_engine::<true>(graph, machine, placement)
}

/// Like [`schedule`], but skips recording the per-op [`OpSlot`] vector
/// (`Schedule::ops` comes back empty). Step time, transfers and every counter
/// are identical — this is the entry for stats-only callers on the hot path
/// ([`crate::simulate`] runs once per RL episode).
pub fn schedule_stats(graph: &OpGraph, machine: &Machine, placement: &Placement) -> Schedule {
    run_engine::<false>(graph, machine, placement)
}

/// `RECORD` is a const generic so the stats-only path (once per RL episode)
/// compiles with the op-slot recording deleted rather than branched over.
fn run_engine<const RECORD: bool>(
    graph: &OpGraph,
    machine: &Machine,
    placement: &Placement,
) -> Schedule {
    placement.validate(graph, machine).expect("placement matches graph and machine");
    Engine::new(graph, machine, placement, RECORD).run::<RECORD>()
}

/// Mutable state of one engine run. Only [`Engine::run`] drives it; the
/// methods are the event handlers.
struct Engine<'a> {
    graph: &'a OpGraph,
    machine: &'a Machine,
    placement: &'a Placement,
    nd: usize,
    /// Undelivered input count per op.
    in_remaining: Vec<u32>,
    /// Latest data-arrival time at each op, over all incoming edges.
    arrival: Vec<f64>,
    dev_free: Vec<f64>,
    /// Directed link availability, dense (num_devices is tiny).
    link_free: Vec<f64>,
    device_busy: Vec<f64>,
    /// Per-device queues of ready-but-not-started ops, keyed (ready, op index).
    ready: Vec<BinaryHeap<Reverse<u128>>>,
    /// Bitset of devices whose ready queue or idleness changed since the
    /// last dispatch (word `d >> 6`, bit `d & 63`; `DeviceId` is a `u8`, so
    /// four words cover every possible device).
    /// Number of `u64` words of `dirty`/`occupied` actually in use
    /// (`ceil(nd / 64)`); scans slice to this to skip dead words.
    nwords: usize,
    dirty: [u64; 4],
    /// Bitset of devices with an outstanding finish event.
    occupied: [u64; 4],
    /// Outstanding compute-finish events, one slot per device (a device runs
    /// one op at a time): `(finish_time, op)`, live iff the device's
    /// `occupied` bit is set.
    running: Vec<(f64, u32)>,
    running_count: usize,
    /// Outstanding transfer-arrival events, keyed (time, producer, dst).
    arrivals: BinaryHeap<Reverse<u128>>,
    /// Destination-device stamp of the producer whose fan-out last shipped
    /// there, for the one-shipment-per-destination dedup (each producer
    /// finishes exactly once, so stamps never need resetting).
    shipped: Vec<u32>,
    /// Ops dispatched so far (equals `ops.len()` when recording).
    scheduled: u32,
    ops: Vec<OpSlot>,
    transfers: Vec<TransferSlot>,
    comm_time: f64,
    transfers_deduped: u64,
    peak_queue_depth: usize,
    makespan: f64,
}

impl<'a> Engine<'a> {
    fn new(
        graph: &'a OpGraph,
        machine: &'a Machine,
        placement: &'a Placement,
        record_ops: bool,
    ) -> Self {
        // The zero-exec inline fan-out in `dispatch` relies on transfers
        // taking strictly positive time (DMA-style links always pay latency).
        debug_assert!(machine.transfer_latency > 0.0, "links must have positive latency");
        let n = graph.len();
        let nd = machine.num_devices();
        let in_remaining: Vec<u32> =
            (0..n).map(|i| graph.preds(OpId(i as u32)).len() as u32).collect();
        let mut eng = Engine {
            graph,
            machine,
            placement,
            nd,
            nwords: nd.div_ceil(64),
            in_remaining,
            arrival: vec![0.0; n],
            dev_free: vec![0.0; nd],
            link_free: vec![0.0; nd * nd],
            device_busy: vec![0.0; nd],
            ready: (0..nd).map(|_| BinaryHeap::new()).collect(),
            dirty: [0; 4],
            occupied: [0; 4],
            running: vec![(0.0, 0); nd],
            running_count: 0,
            arrivals: BinaryHeap::new(),
            shipped: vec![u32::MAX; nd],
            scheduled: 0,
            ops: Vec::with_capacity(if record_ops { n } else { 0 }),
            transfers: Vec::new(),
            comm_time: 0.0,
            transfers_deduped: 0,
            peak_queue_depth: 0,
            makespan: 0.0,
        };
        for i in 0..n {
            if eng.in_remaining[i] == 0 {
                let d = placement.device(OpId(i as u32)).index();
                eng.ready[d].push(Reverse(ready_key(0.0, i as u32)));
                eng.dirty[d >> 6] |= 1 << (d & 63);
            }
        }
        eng
    }

    fn run<const RECORD: bool>(mut self) -> Schedule {
        self.dispatch::<RECORD>(0.0);
        loop {
            // One scan of the (tiny) finish-slot array finds the logical
            // queue's head time, the earliest-finishing op under the
            // (time, op index) order, and whether the timestamp is contested.
            let mut now = f64::INFINITY;
            let mut fin_d = 0usize;
            let mut fin_op = u32::MAX;
            let mut fin_ties = 0u32;
            for (w, &word) in self.occupied[..self.nwords].iter().enumerate() {
                let mut bits = word;
                while bits != 0 {
                    let d = (w << 6) | bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    let (t, op) = self.running[d];
                    if t < now {
                        now = t;
                        fin_d = d;
                        fin_op = op;
                        fin_ties = 1;
                    } else if t == now {
                        fin_ties += 1;
                        if op < fin_op {
                            fin_d = d;
                            fin_op = op;
                        }
                    }
                }
            }
            let arrivals_due = match self.arrivals.peek() {
                Some(&Reverse(k)) => {
                    let at = key_time(k, 40);
                    if at < now {
                        now = at;
                        fin_ties = 0;
                    }
                    at <= now
                }
                None => false,
            };
            if !now.is_finite() {
                break;
            }
            // Drain every event at this exact timestamp before dispatching:
            // an op started at time t must observe all state transitions at t.
            if fin_ties == 1 && !arrivals_due {
                // The overwhelmingly common case: one uncontested finish. Its
                // fan-out delivers to this device only (remote consumers go
                // through transfers), so the follow-up dispatch is known to
                // concern `fin_d` alone and no other dispatch can be pending.
                self.occupied[fin_d >> 6] &= !(1 << (fin_d & 63));
                self.running_count -= 1;
                self.fanout(OpId(fin_op), now);
                self.dirty[fin_d >> 6] &= !(1 << (fin_d & 63));
                self.dispatch_device::<RECORD>(fin_d, now, false);
                continue;
            } else {
                // Contested timestamp. Finishes first, ascending op index …
                loop {
                    let mut best: Option<(u32, usize)> = None;
                    for (w, &word) in self.occupied[..self.nwords].iter().enumerate() {
                        let mut bits = word;
                        while bits != 0 {
                            let d = (w << 6) | bits.trailing_zeros() as usize;
                            bits &= bits - 1;
                            let (t, op) = self.running[d];
                            if t == now && best.is_none_or(|(bop, _)| op < bop) {
                                best = Some((op, d));
                            }
                        }
                    }
                    let Some((op, d)) = best else { break };
                    self.occupied[d >> 6] &= !(1 << (d & 63));
                    self.running_count -= 1;
                    self.dirty[d >> 6] |= 1 << (d & 63);
                    self.fanout(OpId(op), now);
                }
                // … then arrivals, ascending (producer, destination).
                while let Some(&Reverse(k)) = self.arrivals.peek() {
                    if key_time(k, 40) != now {
                        break;
                    }
                    self.arrivals.pop();
                    let producer = OpId(((k >> 8) & u128::from(u32::MAX)) as u32);
                    self.arrive(producer, DeviceId(k as u8), now);
                }
            }
            self.dispatch::<RECORD>(now);
        }
        assert_eq!(
            self.scheduled as usize,
            self.graph.len(),
            "all ops schedule once (graph is a DAG)"
        );
        // Every op contributes exactly one finish event and every booked
        // transfer exactly one arrival event; with the run complete, the
        // drained-event count is fully determined.
        let events_processed = self.scheduled as u64 + self.transfers.len() as u64;
        Schedule {
            step_time: self.makespan,
            ops: self.ops,
            transfers: self.transfers,
            device_busy: self.device_busy,
            comm_time: self.comm_time,
            transfers_deduped: self.transfers_deduped,
            events_processed,
            peak_queue_depth: self.peak_queue_depth,
        }
    }

    /// Starts every startable op at time `now`: device idle, op ready, smallest
    /// `(ready, op index)` first. A zero-exec op finishes the instant it
    /// starts; its fan-out is processed *inline* so same-device successors
    /// enter this very dispatch's ready queue and compete by `(ready, index)`
    /// immediately — the same visibility the pop-order list scheduler had.
    /// (Cross-device successors always go through a transfer, whose latency is
    /// strictly positive, so they never race a dispatch at `now`.)
    fn dispatch<const RECORD: bool>(&mut self, now: f64) {
        for w in 0..self.nwords {
            while self.dirty[w] != 0 {
                let d = (w << 6) | self.dirty[w].trailing_zeros() as usize;
                self.dirty[w] &= self.dirty[w] - 1;
                let pending = self.dirty[..self.nwords].iter().any(|&word| word != 0);
                self.dispatch_device::<RECORD>(d, now, pending);
            }
        }
    }

    /// Starts every startable op on device `d` at time `now`.
    ///
    /// When the op just started is guaranteed to produce the next event in the
    /// whole system — no other device finishes and no transfer arrives at or
    /// before its finish — the finish is processed inline ("fast-forward")
    /// instead of round-tripping through the outer event loop. Same-device
    /// chains, the dominant shape in real graphs, then drain in one tight loop.
    /// Ties fall back to the outer loop so the `(time, kind, op, dst)` drain
    /// order is untouched; every counter is updated exactly as the outer loop
    /// would have.
    ///
    /// `pending_dispatch` reports whether any *other* device still awaits its
    /// dispatch at this drain timestamp. It is loop-invariant here: within one
    /// `dispatch_device` call only this device's dirty bit can flip (fan-out
    /// delivers same-device only), so the caller computes it once.
    fn dispatch_device<const RECORD: bool>(
        &mut self,
        d: usize,
        mut now: f64,
        pending_dispatch: bool,
    ) {
        {
            while self.dev_free[d] <= now {
                let Some(Reverse(key)) = self.ready[d].pop() else { break };
                let (rt, op) = (key_time(key, 32), key as u32);
                let id = OpId(op);
                let node = self.graph.node(id);
                let exec = self.machine.exec_time(node.kind, node.flops, DeviceId(d as u8));
                let start = rt.max(self.dev_free[d]);
                let finish = start + exec;
                self.dev_free[d] = finish;
                self.device_busy[d] += exec;
                self.makespan = self.makespan.max(finish);
                self.scheduled += 1;
                if RECORD {
                    self.ops.push(OpSlot { op, device: d as u8, start, finish });
                }
                if exec == 0.0 {
                    self.fanout(id, finish);
                    // fanout re-marks this device dirty (same-device
                    // deliveries only — cross-device successors go through a
                    // positive-latency transfer); we are already draining its
                    // queue, so clear the flag again.
                    self.dirty[d >> 6] &= !(1 << (d & 63));
                } else {
                    let mut next_other = f64::INFINITY;
                    for (w, &word) in self.occupied[..self.nwords].iter().enumerate() {
                        let mut bits = word;
                        while bits != 0 {
                            let d2 = (w << 6) | bits.trailing_zeros() as usize;
                            bits &= bits - 1;
                            let t = self.running[d2].0;
                            if t < next_other {
                                next_other = t;
                            }
                        }
                    }
                    if let Some(&Reverse(k)) = self.arrivals.peek() {
                        let at = key_time(k, 40);
                        if at < next_other {
                            next_other = at;
                        }
                    }
                    // A still-dirty device has ops that start at the current
                    // drain timestamp but are not yet visible as finish
                    // events; their finishes could precede ours, so the
                    // lookahead is only sound when no dispatch is pending.
                    if !pending_dispatch && finish < next_other {
                        // Fast-forward: this finish is provably the sole next
                        // event. The op is "running" from `start` to `finish`
                        // with nothing else sampling the queue in between, so
                        // one peak sample at start covers the whole interval.
                        self.peak_queue_depth =
                            self.peak_queue_depth.max(self.running_count + 1 + self.arrivals.len());
                        now = finish;
                        self.fanout(id, finish);
                        // fanout re-marks this device dirty (same-device
                        // deliveries only); we keep draining it here.
                        self.dirty[d >> 6] &= !(1 << (d & 63));
                    } else {
                        self.running[d] = (finish, op);
                        self.occupied[d >> 6] |= 1 << (d & 63);
                        self.running_count += 1;
                        self.peak_queue_depth =
                            self.peak_queue_depth.max(self.running_count + self.arrivals.len());
                    }
                }
            }
        }
    }

    /// Processes op `a` finishing at time `t`: delivers same-device consumers
    /// and books one transfer per remote destination device at its causal
    /// start time `max(t, link free)`.
    fn fanout(&mut self, a: OpId, t: f64) {
        let node = self.graph.node(a);
        let dev = self.placement.device(a);
        for &succ in self.graph.succs(a) {
            let sdev = self.placement.device(succ);
            if sdev == dev {
                self.deliver(succ, t);
            } else if self.shipped[sdev.index()] == a.0 {
                // Already bound for that device within this fan-out: the
                // consumer reads the one shipped copy, delivered by the
                // pending arrival event.
                self.transfers_deduped += 1;
            } else {
                self.shipped[sdev.index()] = a.0;
                let link = &mut self.link_free[dev.index() * self.nd + sdev.index()];
                let start = t.max(*link);
                let dur = self.machine.transfer_time(node.out_bytes);
                *link = start + dur;
                self.comm_time += dur;
                self.transfers.push(TransferSlot {
                    producer: a.0,
                    src: dev.0,
                    dst: sdev.0,
                    bytes: node.out_bytes,
                    start,
                    finish: start + dur,
                });
                self.arrivals.push(Reverse(arrival_key(start + dur, a.0, sdev.0)));
                self.peak_queue_depth =
                    self.peak_queue_depth.max(self.running_count + self.arrivals.len());
            }
        }
    }

    /// Processes the arrival of `producer`'s tensor on `dst` at time `t`:
    /// delivers every consumer of `producer` placed there.
    fn arrive(&mut self, producer: OpId, dst: DeviceId, t: f64) {
        for &succ in self.graph.succs(producer) {
            if self.placement.device(succ) == dst {
                self.deliver(succ, t);
            }
        }
    }

    /// Delivers one input to `succ` at time `t`; readiness is discovered in
    /// causal order, so the ready key equals the delivery time of the last
    /// arriving input.
    fn deliver(&mut self, succ: OpId, t: f64) {
        let s = succ.index();
        self.arrival[s] = self.arrival[s].max(t);
        self.in_remaining[s] -= 1;
        if self.in_remaining[s] == 0 {
            let d = self.placement.device(succ).index();
            self.ready[d].push(Reverse(ready_key(self.arrival[s], succ.0)));
            self.dirty[d >> 6] |= 1 << (d & 63);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benchmarks::Benchmark;
    use crate::predefined;
    use crate::sim::simulate;
    use eagle_opgraph::{OpKind, OpNode, Phase};

    fn node(name: &str, flops: f64, out_bytes: u64) -> OpNode {
        OpNode::new(name, OpKind::MatMul, Phase::Forward)
            .with_flops(flops)
            .with_out_bytes(out_bytes)
    }

    #[test]
    fn schedule_is_causally_ordered_per_link() {
        // Three producers on gpu0 shipping to gpu1: bookings must be FIFO in
        // finish order with no overlap.
        let mut g = OpGraph::new("three_senders");
        let mut ids = Vec::new();
        for i in 0..3 {
            ids.push(g.add_node(node(&format!("p{i}"), 1e9, 64 << 20)));
        }
        let sink = g.add_node(node("sink", 0.0, 0));
        for &p in &ids {
            g.add_edge(p, sink);
        }
        let m = Machine::paper_machine();
        let gpus = m.gpu_ids();
        let p = Placement::new(vec![gpus[0], gpus[0], gpus[0], gpus[1]]);
        let s = schedule(&g, &m, &p);
        assert_eq!(s.transfers.len(), 3);
        for w in s.transfers.windows(2) {
            assert!(w[1].start >= w[0].start, "starts non-decreasing: {w:?}");
            assert!(w[1].start >= w[0].finish, "no overlap on one link: {w:?}");
            assert!(w[0].start >= 0.0);
        }
        for t in &s.transfers {
            let producer = s.ops.iter().find(|o| o.op == t.producer).unwrap();
            assert!(
                t.start >= producer.finish,
                "transfer cannot start before its producer finishes"
            );
        }
    }

    #[test]
    fn counters_count() {
        let mut g = OpGraph::new("fanout");
        let a = g.add_node(node("a", 1e9, 1024));
        let b = g.add_node(node("b", 1e9, 0));
        let c = g.add_node(node("c", 1e9, 0));
        g.add_edge(a, b);
        g.add_edge(a, c);
        let m = Machine::paper_machine();
        let gpus = m.gpu_ids();
        let p = Placement::new(vec![gpus[0], gpus[1], gpus[1]]);
        let s = schedule(&g, &m, &p);
        // One shipment a->gpu1 reused by both consumers.
        assert_eq!(s.transfers.len(), 1);
        assert_eq!(s.transfers_deduped, 1);
        // 3 finishes + 1 arrival.
        assert_eq!(s.events_processed, 4);
        assert!(s.peak_queue_depth >= 1);
    }

    #[test]
    fn zero_exec_chains_terminate_and_stack_at_one_time() {
        // A chain of free ops collapses to time 0 without hanging the engine.
        let mut g = OpGraph::new("free_chain");
        let mut prev = None;
        for i in 0..5 {
            let id = g.add_node(
                OpNode::new(format!("f{i}"), OpKind::Reshape, Phase::Forward).with_flops(0.0),
            );
            if let Some(p) = prev {
                g.add_edge(p, id);
            }
            prev = Some(id);
        }
        let mut m = Machine::paper_machine();
        for d in &mut m.devices {
            d.launch_overhead = 0.0;
        }
        let p = Placement::uniform(5, m.gpu_ids()[0]);
        let s = schedule(&g, &m, &p);
        assert_eq!(s.step_time, 0.0);
        assert_eq!(s.ops.len(), 5);
        // Dispatch order respects the dependency chain even at a single time.
        let order: Vec<u32> = s.ops.iter().map(|o| o.op).collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
    }

    /// The reference placement of each benchmark: Single-GPU Inception-V3,
    /// the human expert's GNMT, and BERT split layer-wise over the GPUs.
    fn reference_placement(b: Benchmark, graph: &OpGraph, machine: &Machine) -> Placement {
        match b {
            Benchmark::InceptionV3 => predefined::single_gpu(graph, machine),
            Benchmark::Gnmt => predefined::human_expert(graph, machine).unwrap(),
            Benchmark::BertBase => predefined::bert_layer_split(graph, machine),
        }
    }

    fn fnv1a64(bytes: &[u8]) -> u64 {
        bytes
            .iter()
            .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
    }

    #[test]
    fn schedule_matches_simulate_on_benchmarks() {
        let machine = Machine::paper_machine();
        for b in Benchmark::ALL {
            let graph = b.graph_for(&machine);
            let placement = reference_placement(b, &graph, &machine);
            let s = simulate(&graph, &machine, &placement).step_time().expect("valid placement");
            let sched = schedule(&graph, &machine, &placement);
            assert_eq!(sched.step_time, s, "{}: shared engine matches exactly", b.name());
            assert_eq!(sched.ops.len(), graph.len(), "every op scheduled once");
        }
    }

    #[test]
    fn transfers_are_causal_on_benchmarks() {
        let machine = Machine::paper_machine();
        let graph = Benchmark::Gnmt.graph_for(&machine);
        let placement = predefined::human_expert(&graph, &machine).unwrap();
        let s = schedule(&graph, &machine, &placement);
        assert!(!s.transfers.is_empty(), "expert GNMT placement crosses devices");
        let finish_of: std::collections::HashMap<u32, f64> =
            s.ops.iter().map(|o| (o.op, o.finish)).collect();
        let mut by_link: std::collections::HashMap<(u8, u8), Vec<&TransferSlot>> =
            Default::default();
        for tr in &s.transfers {
            assert!(
                tr.start >= finish_of[&tr.producer],
                "transfer starts before its producer finishes: {tr:?}"
            );
            by_link.entry((tr.src, tr.dst)).or_default().push(tr);
        }
        // Booking order per link is FIFO: non-decreasing starts, no overlap.
        for slots in by_link.values() {
            for w in slots.windows(2) {
                assert!(w[1].start >= w[0].start);
                assert!(w[1].start >= w[0].finish);
            }
        }
    }

    #[test]
    fn chrome_trace_is_json_with_device_names() {
        let machine = Machine::paper_machine();
        let graph = Benchmark::InceptionV3.graph_for(&machine);
        let placement = predefined::single_gpu(&graph, &machine);
        let json = schedule(&graph, &machine, &placement).to_chrome_trace(&graph, &machine);
        let doc: serde_json::Value = serde_json::from_str(&json).expect("valid JSON");
        let events = doc["traceEvents"].as_array().unwrap();
        assert!(events.len() >= graph.len());
        assert!(json.contains("/gpu:0"));
    }

    #[test]
    fn chrome_trace_renders_transfer_lanes() {
        let machine = Machine::paper_machine();
        let graph = Benchmark::BertBase.graph_for(&machine);
        let placement = predefined::bert_layer_split(&graph, &machine);
        let s = schedule(&graph, &machine, &placement);
        assert!(!s.transfers.is_empty());
        let json = s.to_chrome_trace(&graph, &machine);
        let doc: serde_json::Value = serde_json::from_str(&json).expect("valid JSON");
        let events = doc["traceEvents"].as_array().unwrap();
        let n_xfer = events.iter().filter(|e| e["cat"].as_str() == Some("transfer")).count();
        assert_eq!(n_xfer, s.transfers.len());
        assert!(json.contains('\u{2192}'), "link lanes are named src→dst");
    }

    #[test]
    fn chrome_trace_bytes_are_pinned() {
        // FNV-1a-64 and length of the export on the three reference
        // placements, pinned across commits: a change to the schedule, the
        // op names or the JSON layout moves them.
        let machine = Machine::paper_machine();
        let got: Vec<(&str, u64, usize)> = Benchmark::ALL
            .iter()
            .map(|&b| {
                let graph = b.graph_for(&machine);
                let placement = reference_placement(b, &graph, &machine);
                let json = schedule(&graph, &machine, &placement).to_chrome_trace(&graph, &machine);
                (b.name(), fnv1a64(json.as_bytes()), json.len())
            })
            .collect();
        let want = [
            ("inception_v3", 0xa01c_0d44_5832_ab8f, 138_195),
            ("gnmt", 0xe0c3_729a_6adf_57ca, 516_847),
            ("bert_base", 0xcdc4_5e64_76df_46bf, 291_050),
        ];
        assert_eq!(got, want, "{got:x?}");
    }
}
