//! The causal discrete-event scheduling core: the one definition of "the step
//! time of a placement". [`CostGraph::simulate`](crate::CostGraph::simulate)
//! projects the reward from the stats-only run ([`schedule_stats`]);
//! [`schedule`] also records every op's slot and every booked transfer, which
//! [`Schedule::to_chrome_trace`] draws. The engine reads nothing but a
//! [`CostGraph`] and the placement. It is a true discrete-event engine:
//!
//! * **One time-ordered event queue.** Compute-finish and transfer-arrival
//!   events are processed in global time order, with a deterministic total
//!   order on ties: time first, then event kind (finishes before arrivals),
//!   then op index, then destination device. The same inputs therefore always
//!   produce the bit-identical schedule. Physically the queue is split by
//!   kind: a device runs one op at a time, so at most `num_devices` finish
//!   events are ever outstanding and they live in a per-device slot array.
//!   Transfer arrivals (unbounded) wait in one FIFO per directed link behind a
//!   binary heap of the links' heads, keyed by packed `(time, producer,
//!   destination)`: a link's bookings are first come first served and every
//!   transfer takes positive time, so one link's arrivals come due in booking
//!   order and the heap holds at most one entry per link. Draining pops
//!   finishes at the current timestamp in op order, then arrivals in
//!   `(producer, dst)` order — exactly the logical queue's order.
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
//!   `(ready_time, op_index)` key, from a per-device binary heap of packed
//!   keys. An op becomes ready when its last input is delivered, at the
//!   current timestamp.
//! * **Per-destination shipment dedup.** An op's output tensor ships at most
//!   once per destination device; additional consumers on that device reuse
//!   the one arrival (they fan out locally, as real runtimes do).
//!
//! A recorded schedule holds every op slot and every booked transfer; both
//! paths report the counters the telemetry layer exposes (events processed,
//! peak queue depth, deduplicated shipments, transfers booked).

use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::{BinaryHeap, VecDeque};

use eagle_opgraph::{OpGraph, OpId};

use crate::cost::CostGraph;
use crate::device::{DeviceId, Machine};
use crate::placement::Placement;

/// Packs a ready op `(ready_time, op)` into one integer key ordered like the
/// tuple. Simulated times are finite and non-negative, so the IEEE-754 bit
/// pattern of `t` is monotone in `t` and a single `u128` compare replaces an
/// f64 `total_cmp` plus integer tie-breaks.
#[inline]
fn ready_key(t: f64, op: u32) -> u128 {
    debug_assert!(t.is_finite() && t.is_sign_positive(), "simulated times are >= 0");
    ((t.to_bits() as u128) << 32) | op as u128
}

/// Packs an arrival event `(time, producer, dst)` into one key the same way.
#[inline]
fn arrival_key(t: f64, producer: u32, dst: u8) -> u128 {
    debug_assert!(t.is_finite() && t.is_sign_positive(), "simulated times are >= 0");
    ((t.to_bits() as u128) << 40) | ((producer as u128) << 8) | dst as u128
}

/// The time of a key whose low `shift` bits hold the tie-breaks.
#[inline]
fn key_time(key: u128, shift: u32) -> f64 {
    f64::from_bits((key >> shift) as u64)
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
    /// Booked transfers, in causal booking order (non-decreasing start per
    /// link); empty on a [`schedule_stats`] schedule.
    pub transfers: Vec<TransferSlot>,
    /// Number of booked cross-device transfers (`transfers.len()` when
    /// recorded).
    pub num_transfers: usize,
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
    /// schedule was built from; `ops` and `transfers` are empty on a
    /// [`schedule_stats`] schedule, so only [`schedule`]'s draws anything.
    /// Times are emitted in microseconds. Devices render as threads
    /// `0..num_devices`; each directed link with booked transfers renders as
    /// its own thread after the devices.
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
/// `placement`, producing the full step schedule, every op slot and transfer
/// recorded.
///
/// Memory feasibility is *not* checked here — gate on [`crate::simulate`]
/// returning [`SimOutcome::Valid`](crate::SimOutcome::Valid) first.
///
/// # Panics
/// Panics if the placement fails [`Placement::validate`] (a programming error:
/// agents only choose among existing devices).
pub fn schedule(graph: &OpGraph, machine: &Machine, placement: &Placement) -> Schedule {
    placement.validate(graph, machine).expect("placement matches graph and machine");
    run_engine::<true>(&CostGraph::new(graph, machine), placement)
}

/// Like [`schedule`], but records neither the per-op [`OpSlot`]s nor the
/// [`TransferSlot`]s (`Schedule::ops` and `Schedule::transfers` come back
/// empty; `num_transfers` counts the bookings). Step time and every counter
/// are identical; this is the path [`crate::simulate`] runs.
pub fn schedule_stats(graph: &OpGraph, machine: &Machine, placement: &Placement) -> Schedule {
    placement.validate(graph, machine).expect("placement matches graph and machine");
    run_engine::<false>(&CostGraph::new(graph, machine), placement)
}

/// `RECORD` is a const generic so the stats-only path (once per RL episode)
/// compiles with the slot recording deleted rather than branched over. The
/// placement must already have passed [`CostGraph::validate`].
pub(crate) fn run_engine<const RECORD: bool>(cost: &CostGraph, placement: &Placement) -> Schedule {
    Engine::new::<RECORD>(cost, placement).run::<RECORD>()
}

/// In-flight transfer arrivals: one FIFO of `(arrival, producer)` per
/// directed link `src * nd + dst`, and a heap of packed [`arrival_key`]s
/// holding each non-empty link's head. A link's arrival times never
/// decrease. They strictly increase unless a transfer is shorter than half
/// an ulp of its start time; then two arrivals of one link tie and drain in
/// booking order rather than producer order, which changes nothing: an
/// arrival only delivers inputs, and the ops it readies at one timestamp
/// are dispatched by `(ready, op)` after the whole drain.
struct Arrivals {
    links: Vec<VecDeque<(f64, u32)>>,
    heads: BinaryHeap<Reverse<u128>>,
    len: usize,
}

impl Arrivals {
    fn new(links: usize) -> Self {
        Arrivals {
            links: (0..links).map(|_| VecDeque::new()).collect(),
            heads: BinaryHeap::new(),
            len: 0,
        }
    }

    /// Earliest pending arrival time.
    #[inline]
    fn next_time(&self) -> Option<f64> {
        self.heads.peek().map(|&Reverse(k)| key_time(k, 40))
    }

    #[inline]
    fn push(&mut self, link: usize, t: f64, producer: u32, dst: u8) {
        self.len += 1;
        let q = &mut self.links[link];
        debug_assert!(q.back().is_none_or(|&(last, _)| last <= t), "link arrivals never go back");
        if q.is_empty() {
            self.heads.push(Reverse(arrival_key(t, producer, dst)));
        }
        q.push_back((t, producer));
    }

    /// Pops the earliest arrival as `(producer, dst)`; `devices` is the
    /// placement, which names the producer's (source) device.
    #[inline]
    fn pop(&mut self, devices: &[DeviceId], nd: usize) -> (u32, u8) {
        let mut head = self.heads.peek_mut().expect("an arrival is pending");
        let Reverse(k) = *head;
        self.len -= 1;
        let (producer, dst) = ((k >> 8) as u32, k as u8);
        let q = &mut self.links[devices[producer as usize].index() * nd + dst as usize];
        q.pop_front();
        match q.front() {
            // The link's next arrival takes its head's place: one sift.
            Some(&(t, p)) => *head = Reverse(arrival_key(t, p, dst)),
            None => {
                PeekMut::pop(head);
            }
        }
        (producer, dst)
    }
}

/// Mutable state of one engine run. Only [`Engine::run`] drives it; the
/// methods are the event handlers.
struct Engine<'a> {
    cost: &'a CostGraph,
    devices: &'a [DeviceId],
    nd: usize,
    /// Undelivered input count per op.
    in_remaining: Vec<u32>,
    dev_free: Vec<f64>,
    /// Directed link availability, dense (num_devices is tiny).
    link_free: Vec<f64>,
    device_busy: Vec<f64>,
    /// Per-device queues of ready-but-not-started ops, keyed (ready, op).
    ready: Vec<BinaryHeap<Reverse<u128>>>,
    /// Number of `u64` words of `dirty`/`occupied` actually in use
    /// (`ceil(nd / 64)`); scans slice to this to skip dead words.
    nwords: usize,
    /// Bitset of devices whose ready queue or idleness changed since the
    /// last dispatch (word `d >> 6`, bit `d & 63`; `DeviceId` is a `u8`, so
    /// four words cover every possible device).
    dirty: [u64; 4],
    /// Bitset of devices with an outstanding finish event.
    occupied: [u64; 4],
    /// Outstanding compute-finish events, one slot per device (a device runs
    /// one op at a time): `(finish_time, op)`, live iff the device's
    /// `occupied` bit is set.
    running: Vec<(f64, u32)>,
    running_count: usize,
    arrivals: Arrivals,
    /// Destination-device stamp of the producer whose fan-out last shipped
    /// there, for the one-shipment-per-destination dedup (each producer
    /// finishes exactly once, so stamps never need resetting).
    shipped: Vec<u32>,
    /// Ops dispatched so far (equals `ops.len()` when recording).
    scheduled: u32,
    ops: Vec<OpSlot>,
    transfers: Vec<TransferSlot>,
    num_transfers: usize,
    comm_time: f64,
    transfers_deduped: u64,
    peak_queue_depth: usize,
    makespan: f64,
}

impl<'a> Engine<'a> {
    fn new<const RECORD: bool>(cost: &'a CostGraph, placement: &'a Placement) -> Self {
        // The zero-exec inline fan-out in `dispatch` relies on transfers
        // taking strictly positive time (DMA-style links always pay latency).
        debug_assert!(cost.transfer_latency > 0.0, "links must have positive latency");
        let n = cost.len();
        let nd = cost.num_devices();
        let devices = placement.devices();
        let mut eng = Engine {
            cost,
            devices,
            nd,
            nwords: nd.div_ceil(64),
            in_remaining: cost.in_degree.clone(),
            dev_free: vec![0.0; nd],
            link_free: vec![0.0; nd * nd],
            device_busy: vec![0.0; nd],
            ready: (0..nd).map(|_| BinaryHeap::new()).collect(),
            dirty: [0; 4],
            occupied: [0; 4],
            running: vec![(0.0, 0); nd],
            running_count: 0,
            arrivals: Arrivals::new(nd * nd),
            shipped: vec![u32::MAX; nd],
            scheduled: 0,
            ops: Vec::with_capacity(if RECORD { n } else { 0 }),
            transfers: Vec::new(),
            num_transfers: 0,
            comm_time: 0.0,
            transfers_deduped: 0,
            peak_queue_depth: 0,
            makespan: 0.0,
        };
        for (i, (&inputs, dev)) in cost.in_degree.iter().zip(devices).enumerate() {
            if inputs == 0 {
                let d = dev.index();
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
            let arrivals_due = match self.arrivals.next_time() {
                Some(at) => {
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
                self.fanout::<RECORD>(fin_op, now);
                self.dirty[fin_d >> 6] &= !(1 << (fin_d & 63));
                self.dispatch_device::<RECORD>(fin_d, now, false);
                continue;
            }
            // Contested timestamp. Finishes first, ascending op index (a
            // fan-out starts nothing, so exactly `fin_ties` finish now) …
            for _ in 0..fin_ties {
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
                let (op, d) = best.expect("a finish at the drain timestamp");
                self.occupied[d >> 6] &= !(1 << (d & 63));
                self.running_count -= 1;
                self.dirty[d >> 6] |= 1 << (d & 63);
                self.fanout::<RECORD>(op, now);
            }
            // … then arrivals, ascending (producer, destination).
            while self.arrivals.next_time() == Some(now) {
                let (producer, dst) = self.arrivals.pop(self.devices, self.nd);
                self.arrive(producer, dst, now);
            }
            self.dispatch::<RECORD>(now);
        }
        assert_eq!(
            self.scheduled as usize,
            self.cost.len(),
            "all ops schedule once (graph is a DAG)"
        );
        // Every op contributes exactly one finish event and every booked
        // transfer exactly one arrival event; with the run complete, the
        // drained-event count is fully determined.
        let events_processed = self.scheduled as u64 + self.num_transfers as u64;
        Schedule {
            step_time: self.makespan,
            ops: self.ops,
            transfers: self.transfers,
            num_transfers: self.num_transfers,
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
        while self.dev_free[d] <= now {
            let Some(Reverse(key)) = self.ready[d].pop() else { break };
            let (rt, op) = (key_time(key, 32), key as u32);
            let exec = self.cost.exec_time(op, d);
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
                self.fanout::<RECORD>(op, finish);
                // fanout re-marks this device dirty (same-device
                // deliveries only — cross-device successors go through a
                // positive-latency transfer); we are already draining its
                // queue, so clear the flag again.
                self.dirty[d >> 6] &= !(1 << (d & 63));
                continue;
            }
            let mut next_other = self.arrivals.next_time().unwrap_or(f64::INFINITY);
            for (w, &word) in self.occupied[..self.nwords].iter().enumerate() {
                let mut bits = word;
                while bits != 0 {
                    let d2 = (w << 6) | bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    next_other = next_other.min(self.running[d2].0);
                }
            }
            // A still-dirty device has ops that start at the current drain
            // timestamp but are not yet visible as finish events; their
            // finishes could precede ours, so the lookahead is only sound
            // when no dispatch is pending.
            if !pending_dispatch && finish < next_other {
                // Fast-forward: this finish is provably the sole next event.
                // The op is "running" from `start` to `finish` with nothing
                // else sampling the queue in between, so one peak sample at
                // start covers the whole interval.
                self.peak_queue_depth =
                    self.peak_queue_depth.max(self.running_count + 1 + self.arrivals.len);
                now = finish;
                self.fanout::<RECORD>(op, finish);
                // fanout re-marks this device dirty (same-device deliveries
                // only); we keep draining it here.
                self.dirty[d >> 6] &= !(1 << (d & 63));
            } else {
                self.running[d] = (finish, op);
                self.occupied[d >> 6] |= 1 << (d & 63);
                self.running_count += 1;
                self.peak_queue_depth =
                    self.peak_queue_depth.max(self.running_count + self.arrivals.len);
            }
        }
    }

    /// Processes op `a` finishing at time `t`: delivers same-device consumers
    /// and books one transfer per remote destination device at its causal
    /// start time `max(t, link free)`.
    fn fanout<const RECORD: bool>(&mut self, a: u32, t: f64) {
        let cost = self.cost;
        let dev = self.devices[a as usize].index();
        for &succ in cost.succs(a) {
            let sdev = self.devices[succ as usize].index();
            if sdev == dev {
                self.deliver(succ, t);
            } else if self.shipped[sdev] == a {
                // Already bound for that device within this fan-out: the
                // consumer reads the one shipped copy, delivered by the
                // pending arrival event.
                self.transfers_deduped += 1;
            } else {
                self.shipped[sdev] = a;
                let link_id = dev * self.nd + sdev;
                let link = &mut self.link_free[link_id];
                let start = t.max(*link);
                let dur = cost.transfer_time(a);
                *link = start + dur;
                self.comm_time += dur;
                self.num_transfers += 1;
                if RECORD {
                    self.transfers.push(TransferSlot {
                        producer: a,
                        src: dev as u8,
                        dst: sdev as u8,
                        bytes: cost.out_bytes[a as usize],
                        start,
                        finish: start + dur,
                    });
                }
                self.arrivals.push(link_id, start + dur, a, sdev as u8);
                self.peak_queue_depth =
                    self.peak_queue_depth.max(self.running_count + self.arrivals.len);
            }
        }
    }

    /// Processes the arrival of `producer`'s tensor on `dst` at time `t`:
    /// delivers every consumer of `producer` placed there.
    fn arrive(&mut self, producer: u32, dst: u8, t: f64) {
        for &succ in self.cost.succs(producer) {
            if self.devices[succ as usize].0 == dst {
                self.deliver(succ, t);
            }
        }
    }

    /// Delivers one input to `succ` at time `t`, the current timestamp.
    /// Inputs are delivered in causal order, so an op becomes ready at the
    /// delivery time of its last input.
    #[inline]
    fn deliver(&mut self, succ: u32, t: f64) {
        let s = succ as usize;
        self.in_remaining[s] -= 1;
        if self.in_remaining[s] == 0 {
            let d = self.devices[s].index();
            self.ready[d].push(Reverse(ready_key(t, succ)));
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
