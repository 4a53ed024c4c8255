//! Discrete-event simulation of one training step under a placement.
//!
//! The scheduling itself lives in [`crate::engine`], the one causal
//! discrete-event engine. This module wraps it with the memory-feasibility
//! (OOM) gate and projects its stats-only schedule down to the [`StepStats`]
//! summary the RL reward consumes: each
//! device executes one op at a time in ready-time order, every cross-device
//! data dependency pays a transfer serialized on its directed link, and an op's
//! output tensor is shipped at most **once per destination device** — real
//! runtimes send one copy and fan consumers out locally, so several consumers
//! on the same remote device share a single transfer. The resulting makespan is
//! the per-step time — the quantity the paper measures on real hardware and
//! feeds to the RL agent as (negated, square-rooted) reward.

use eagle_obs::{resolve_workers, Recorder};
use eagle_opgraph::OpGraph;

use crate::cost::CostGraph;
use crate::device::{DeviceId, Machine};
use crate::engine;
use crate::placement::Placement;

/// Result of simulating one training step.
#[derive(Debug, Clone, PartialEq)]
pub enum SimOutcome {
    /// The placement fits and the step completes.
    Valid(StepStats),
    /// A device's memory capacity is exceeded — the run would crash with OOM,
    /// which the paper treats as an invalid placement.
    Oom {
        /// The overflowing device.
        device: DeviceId,
        /// Bytes the placement tries to keep resident there.
        required: u64,
        /// The device's capacity.
        capacity: u64,
    },
}

impl SimOutcome {
    /// Step time if valid.
    pub fn step_time(&self) -> Option<f64> {
        match self {
            SimOutcome::Valid(s) => Some(s.step_time),
            SimOutcome::Oom { .. } => None,
        }
    }
}

/// Timing breakdown of a simulated step.
#[derive(Debug, Clone, PartialEq)]
pub struct StepStats {
    /// Makespan of the step in seconds.
    pub step_time: f64,
    /// Per-device busy time (compute only).
    pub device_busy: Vec<f64>,
    /// Total time spent in cross-device transfers (sum over links).
    pub comm_time: f64,
    /// Number of cross-device transfers: one per (producer op, destination
    /// device) pair, however many consumer edges fan out on that device.
    pub num_transfers: usize,
}

/// Simulates one training step of `graph` on `machine` under `placement`:
/// [`CostGraph::simulate`] over a cost graph built for this call. A caller
/// that simulates many placements of one graph builds the [`CostGraph`] once.
///
/// # Panics
/// Panics if the placement fails [`Placement::validate`] (programming error rather
/// than an agent decision — agents only choose among existing devices).
pub fn simulate(graph: &OpGraph, machine: &Machine, placement: &Placement) -> SimOutcome {
    CostGraph::new(graph, machine).simulate(placement)
}

/// [`simulate`] with engine telemetry recorded to `recorder`
/// ([`CostGraph::simulate_recorded`]).
pub fn simulate_recorded(
    graph: &OpGraph,
    machine: &Machine,
    placement: &Placement,
    recorder: &Recorder,
) -> SimOutcome {
    CostGraph::new(graph, machine).simulate_recorded(placement, recorder)
}

impl CostGraph {
    /// Simulates one training step under `placement`.
    ///
    /// # Panics
    /// Panics if the placement does not fit the graph and machine this cost
    /// graph was built from ([`Placement::validate`]).
    pub fn simulate(&self, placement: &Placement) -> SimOutcome {
        self.simulate_recorded(placement, &Recorder::disabled())
    }

    /// [`CostGraph::simulate`] with engine telemetry recorded to `recorder`.
    ///
    /// Only order-independent metrics are emitted (counters and a histogram),
    /// so recording from parallel rollout workers stays deterministic:
    /// `devsim.engine.events` (events processed),
    /// `devsim.engine.transfers_deduped` (shipments reused by same-device
    /// consumers), and `devsim.engine.queue_depth` (peak event-queue depth
    /// per step, histogram).
    pub fn simulate_recorded(&self, placement: &Placement, recorder: &Recorder) -> SimOutcome {
        self.validate(placement).expect("placement matches graph and machine");
        // Memory feasibility first: resident bytes per device must fit.
        for (i, &used) in self.memory_per_device(placement).iter().enumerate() {
            if used > self.capacity[i] {
                return SimOutcome::Oom {
                    device: DeviceId(i as u8),
                    required: used,
                    capacity: self.capacity[i],
                };
            }
        }

        // Stats-only scheduling: skips recording the op and transfer slots,
        // which only the Chrome export draws and the step-time reward path
        // never reads.
        let sched = engine::run_engine::<false>(self, placement);
        recorder.add("devsim.engine.events", sched.events_processed);
        recorder.add("devsim.engine.transfers_deduped", sched.transfers_deduped);
        recorder.observe("devsim.engine.queue_depth", sched.peak_queue_depth as f64);

        SimOutcome::Valid(StepStats {
            step_time: sched.step_time,
            device_busy: sched.device_busy,
            comm_time: sched.comm_time,
            num_transfers: sched.num_transfers,
        })
    }
}

/// Runs `sim` over `items`, contiguous chunks striped across up to `workers`
/// threads (0 = one per available core, 1 = serial), the first chunk on the
/// calling thread, results in item order. The one fan-out over simulations;
/// its one caller is
/// [`Environment::evaluate_batch`](crate::Environment::evaluate_batch), which
/// spreads a batch's cache misses over it. `sim` must be pure, so the result is
/// the same for every worker count.
pub(crate) fn fan_out<T: Sync, R: Send>(
    items: &[T],
    workers: usize,
    sim: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    let workers = resolve_workers(workers);
    if workers <= 1 || items.len() <= 1 {
        return items.iter().map(sim).collect();
    }
    let sim = &sim;
    let mut chunks = items.chunks(items.len().div_ceil(workers));
    let first = chunks.next().expect("at least two items");
    crossbeam::thread::scope(|s| {
        let rest: Vec<_> = chunks
            .map(|chunk| s.spawn(move |_| chunk.iter().map(sim).collect::<Vec<R>>()))
            .collect();
        let mut out: Vec<R> = first.iter().map(sim).collect();
        for h in rest {
            out.extend(h.join().expect("simulation worker panicked"));
        }
        out
    })
    .expect("simulation scope")
}

#[cfg(test)]
mod tests {
    use super::*;
    use eagle_opgraph::{OpId, OpKind, OpNode, Phase};

    /// chain: a -> b -> c, all MatMul with the given flops.
    fn chain(flops: f64, out_bytes: u64) -> OpGraph {
        let mut g = OpGraph::new("chain");
        let mut prev: Option<OpId> = None;
        for i in 0..3 {
            let id = g.add_node(
                OpNode::new(format!("op{i}"), OpKind::MatMul, Phase::Forward)
                    .with_flops(flops)
                    .with_out_bytes(out_bytes),
            );
            if let Some(p) = prev {
                g.add_edge(p, id);
            }
            prev = Some(id);
        }
        g
    }

    /// fork-join: a -> {b, c} -> d.
    fn diamond(flops: f64) -> OpGraph {
        let mut g = OpGraph::new("diamond");
        let mk = |g: &mut OpGraph, n: &str| {
            g.add_node(
                OpNode::new(n, OpKind::MatMul, Phase::Forward)
                    .with_flops(flops)
                    .with_out_bytes(1024),
            )
        };
        let a = mk(&mut g, "a");
        let b = mk(&mut g, "b");
        let c = mk(&mut g, "c");
        let d = mk(&mut g, "d");
        g.add_edge(a, b);
        g.add_edge(a, c);
        g.add_edge(b, d);
        g.add_edge(c, d);
        g
    }

    #[test]
    fn serial_chain_time_adds_up() {
        let g = chain(4.65e9, 0); // 1 ms each on a P100 at eff 0.5
        let m = Machine::paper_machine();
        let gpu = m.gpu_ids()[0];
        let out = simulate(&g, &m, &Placement::uniform(3, gpu));
        let t = out.step_time().unwrap();
        let expected = 3.0 * (30e-6 + 1e-3);
        assert!((t - expected).abs() < 1e-9, "t = {t}, expected {expected}");
    }

    #[test]
    fn parallel_branches_overlap_across_gpus() {
        let g = diamond(4.65e9);
        let m = Machine::paper_machine();
        let gpus = m.gpu_ids();
        // b and c on different GPUs overlap; same GPU serializes them.
        let same = simulate(&g, &m, &Placement::new(vec![gpus[0], gpus[0], gpus[0], gpus[0]]))
            .step_time()
            .unwrap();
        let split = simulate(&g, &m, &Placement::new(vec![gpus[0], gpus[0], gpus[1], gpus[0]]))
            .step_time()
            .unwrap();
        assert!(split < same, "parallel {split} should beat serial {same}");
    }

    #[test]
    fn heavy_transfers_penalize_splitting() {
        // Tiny compute, huge tensors: splitting a chain across devices must lose.
        let g = chain(1e6, 200 << 20);
        let m = Machine::paper_machine();
        let gpus = m.gpu_ids();
        let together = simulate(&g, &m, &Placement::uniform(3, gpus[0])).step_time().unwrap();
        let apart =
            simulate(&g, &m, &Placement::new(vec![gpus[0], gpus[1], gpus[2]])).step_time().unwrap();
        assert!(apart > together * 5.0, "apart {apart} vs together {together}");
    }

    #[test]
    fn oom_detected() {
        let mut g = chain(1e6, 0);
        g.node_mut(OpId(0)).act_bytes = 20 << 30; // 20 GiB on a 16 GiB GPU
        let m = Machine::paper_machine();
        let gpu = m.gpu_ids()[0];
        match simulate(&g, &m, &Placement::uniform(3, gpu)) {
            SimOutcome::Oom { device, required, capacity } => {
                assert_eq!(device, gpu);
                assert!(required > capacity);
            }
            SimOutcome::Valid(_) => panic!("expected OOM"),
        }
        // The CPU (125 GiB) can hold it.
        assert!(simulate(&g, &m, &Placement::uniform(3, m.cpu_id())).step_time().is_some());
    }

    #[test]
    fn fanout_to_same_device_pays_one_transfer() {
        // a on gpu0 fans out to b and c on gpu1: the tensor ships once, both
        // consumers read the same resident copy (one transfer, one latency).
        let g = diamond(4.65e9);
        let m = Machine::paper_machine();
        let gpus = m.gpu_ids();
        let p = Placement::new(vec![gpus[0], gpus[1], gpus[1], gpus[1]]);
        match simulate(&g, &m, &p) {
            SimOutcome::Valid(s) => {
                assert_eq!(s.num_transfers, 1, "a->{{b,c}} dedupes to one shipment");
                let one = m.transfer_time(1024);
                assert!((s.comm_time - one).abs() < 1e-15, "comm {} vs {}", s.comm_time, one);
            }
            _ => panic!("valid expected"),
        }
        // Distinct destination devices still pay one transfer each.
        let split = Placement::new(vec![gpus[0], gpus[1], gpus[2], gpus[1]]);
        match simulate(&g, &m, &split) {
            SimOutcome::Valid(s) => {
                // a->b (gpu1), a->c (gpu2), c->d (gpu2->gpu1).
                assert_eq!(s.num_transfers, 3);
            }
            _ => panic!("valid expected"),
        }
    }

    #[test]
    fn stats_are_consistent() {
        let g = diamond(4.65e9);
        let m = Machine::paper_machine();
        let gpus = m.gpu_ids();
        let p = Placement::new(vec![gpus[0], gpus[0], gpus[1], gpus[0]]);
        match simulate(&g, &m, &p) {
            SimOutcome::Valid(s) => {
                // a->c and c->d cross devices, to distinct destinations each —
                // the per-destination dedup leaves them as two transfers.
                assert_eq!(s.num_transfers, 2);
                assert!(s.comm_time > 0.0);
                assert!(s.device_busy[gpus[0].index()] > 0.0);
                assert!(s.device_busy[gpus[1].index()] > 0.0);
                assert!(s.device_busy[m.cpu_id().index()] == 0.0);
                assert!(s.step_time >= s.device_busy.iter().cloned().fold(0.0, f64::max));
            }
            _ => panic!("valid expected"),
        }
    }

    #[test]
    fn link_serialization_orders_transfers() {
        // Two producers on gpu0 both send to gpu1: second transfer waits for first.
        let mut g = OpGraph::new("two_senders");
        let mk = |g: &mut OpGraph, n: &str, bytes: u64| {
            g.add_node(
                OpNode::new(n, OpKind::MatMul, Phase::Forward)
                    .with_flops(0.0)
                    .with_out_bytes(bytes),
            )
        };
        let a = mk(&mut g, "a", 120 << 20);
        let b = mk(&mut g, "b", 120 << 20);
        let c = mk(&mut g, "c", 0);
        g.add_edge(a, c);
        g.add_edge(b, c);
        let m = Machine::paper_machine();
        let gpus = m.gpu_ids();
        let p = Placement::new(vec![gpus[0], gpus[0], gpus[1]]);
        let t = simulate(&g, &m, &p).step_time().unwrap();
        let one_transfer = m.transfer_time(120 << 20);
        // Both transfers share the gpu0->gpu1 link, so the step takes at least twice
        // a single transfer.
        assert!(t > 2.0 * one_transfer, "t = {t}, single transfer = {one_transfer}");
    }

    #[test]
    fn causal_link_contention_serializes_by_start_time() {
        // Regression test for the causal-ordering contract of the event engine.
        //
        // Two producers on one device whose *ready order is inverted relative
        // to op index*: `late` (op 0) becomes ready only after its heavy
        // predecessor finishes, `early` (op 1) is ready at t=0. A pop-order
        // scheduler keyed on (ready, index) still books `early`'s transfer
        // first — but the engine must book the gpu0→gpu1 link in *actual
        // transfer start* order, so `late`'s transfer queues strictly after
        // `early`'s, and the makespan is exact.
        let m = Machine::paper_machine();
        let gpus = m.gpu_ids();
        let mut g = OpGraph::new("inverted_ready_order");
        // Op 0: `late`, free compute, big output — ready at t = heavy finish.
        let late = g.add_node(
            OpNode::new("late", OpKind::MatMul, Phase::Forward)
                .with_flops(0.0)
                .with_out_bytes(120 << 20),
        );
        // Op 1: `early`, free compute, big output — ready at t = 0.
        let early = g.add_node(
            OpNode::new("early", OpKind::MatMul, Phase::Forward)
                .with_flops(0.0)
                .with_out_bytes(120 << 20),
        );
        // Op 2: `heavy` gates `late`; runs on gpu1 so it does not occupy the
        // producers' device. 4.65e9 flops = 1 ms on a P100 at eff 0.5.
        let heavy = g.add_node(
            OpNode::new("heavy", OpKind::MatMul, Phase::Forward)
                .with_flops(4.65e9)
                .with_out_bytes(0),
        );
        // Op 3: sink on gpu2 consuming both transfers over the gpu0→gpu2 link.
        let sink = g.add_node(OpNode::new("sink", OpKind::MatMul, Phase::Forward).with_flops(0.0));
        g.add_edge(heavy, late);
        g.add_edge(late, sink);
        g.add_edge(early, sink);
        let p = Placement::new(vec![gpus[0], gpus[0], gpus[1], gpus[2]]);

        let launch = 30e-6; // GPU launch overhead
        let heavy_finish = launch + 1e-3; // heavy: 4.65e9 / (9.3e12 * 0.5)
        let xfer = m.transfer_time(120 << 20); // 250e-6 + bytes / 12e9
                                               // `early` runs [0, launch]; its transfer starts at `launch`.
        let early_xfer_end = launch + xfer;
        // heavy→late crosses gpu1→gpu0: a zero-byte transfer still pays link
        // latency, so `late` becomes ready at heavy_finish + transfer_time(0),
        // runs for `launch`, and *requests* the gpu0→gpu2 link at:
        let late_request = heavy_finish + m.transfer_time(0) + launch;
        // `early`'s transfer is still in flight then (≈ 10.77 ms > 1.31 ms),
        // so `late`'s transfer queues behind it — FIFO by actual start time:
        let late_xfer_start = early_xfer_end.max(late_request);
        // sink (zero flops, launch only) starts when the last input arrives.
        let expected = late_xfer_start + xfer + launch;

        let s = match simulate(&g, &m, &p) {
            SimOutcome::Valid(s) => s,
            _ => panic!("valid expected"),
        };
        assert!(
            (s.step_time - expected).abs() < 1e-12,
            "makespan {} vs expected {expected}",
            s.step_time
        );
        // early→sink, heavy→late, late→sink.
        assert_eq!(s.num_transfers, 3);

        // The recorded schedule exposes the booked intervals: on the contended
        // gpu0→gpu2 link, `early`'s transfer is booked first even though
        // `late` has the smaller op index.
        let sched = engine::schedule(&g, &m, &p);
        let link: Vec<_> =
            sched.transfers.iter().filter(|t| t.src == gpus[0].0 && t.dst == gpus[2].0).collect();
        assert_eq!(link.len(), 2);
        assert_eq!(link[0].producer, early.0, "early books the link first");
        assert_eq!(link[1].producer, late.0);
        assert!(link[1].start >= link[0].finish, "no overlap");
        assert!(
            (link[1].start - late_xfer_start).abs() < 1e-12,
            "late transfer queues at {} (expected {late_xfer_start})",
            link[1].start
        );
    }

    #[test]
    fn deterministic() {
        let g = diamond(1e9);
        let m = Machine::paper_machine();
        let p = Placement::uniform(4, m.gpu_ids()[0]);
        let a = simulate(&g, &m, &p).step_time().unwrap();
        let b = simulate(&g, &m, &p).step_time().unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn recorded_simulate_counts_engine_events() {
        let g = diamond(1e9);
        let m = Machine::paper_machine();
        let gpus = m.gpu_ids();
        let p = Placement::new(vec![gpus[0], gpus[1], gpus[1], gpus[1]]);
        let rec = Recorder::new();
        let out = simulate_recorded(&g, &m, &p, &rec);
        assert!(matches!(out, SimOutcome::Valid(_)));
        // 4 compute finishes + 1 arrival (a->gpu1, shared by b and c).
        assert_eq!(rec.counter_value("devsim.engine.events"), 5);
        assert_eq!(rec.counter_value("devsim.engine.transfers_deduped"), 1);
        assert!(rec.histogram("devsim.engine.queue_depth").is_some());
        // The OOM path never reaches the engine.
        let mut big = diamond(1e9);
        big.node_mut(OpId(0)).act_bytes = 20 << 30;
        let rec2 = Recorder::new();
        simulate_recorded(&big, &m, &Placement::uniform(4, gpus[0]), &rec2);
        assert_eq!(rec2.counter_value("devsim.engine.events"), 0);
    }
}
