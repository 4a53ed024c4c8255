//! Property-based tests of the simulator and placement invariants over random DAGs
//! and random placements — including the differential-testing oracle that
//! cross-checks the event engine's reward path ([`eagle::devsim::simulate`] over
//! [`engine::schedule_stats`]) against its recorded schedule
//! ([`engine::schedule`]) and an independent brute-force reference, plus the
//! causal per-link booking and one-op-per-device properties.

use eagle::devsim::{engine, DeviceId, Machine, Placement, SimOutcome, StepStats};
use eagle::opgraph::{GraphGen, GraphGenConfig, OpGraph, OpId, OpKind, OpNode, Phase};
use proptest::prelude::*;

/// Case count for the differential-oracle slices. The default 256 is the fast
/// PR-gating slice; the nightly CI job sets `EAGLE_ORACLE_CASES=10000` (and
/// runs in release mode) to sweep a 10k+-case corpus.
fn oracle_cases() -> u32 {
    std::env::var("EAGLE_ORACLE_CASES").ok().and_then(|s| s.parse().ok()).unwrap_or(256)
}

/// Builds a random DAG: `n` ops, each with edges from up to 3 earlier ops
/// (guaranteeing acyclicity by construction).
fn arb_graph() -> impl Strategy<Value = OpGraph> {
    (2usize..40, any::<u64>()).prop_map(|(n, seed)| {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let kinds = [
            OpKind::Conv2d,
            OpKind::MatMul,
            OpKind::Elementwise,
            OpKind::Softmax,
            OpKind::Input,
            OpKind::Concat,
        ];
        let mut g = OpGraph::new("random");
        for i in 0..n {
            let kind = kinds[rng.gen_range(0..kinds.len())];
            let id = g.add_node(
                OpNode::new(format!("op{i}"), kind, Phase::Forward)
                    .with_flops(rng.gen_range(0.0..1e9))
                    .with_out_bytes(rng.gen_range(0..4u64 << 20))
                    .with_act_bytes(rng.gen_range(0..1u64 << 20)),
            );
            let preds = rng.gen_range(0..=3usize.min(i));
            for _ in 0..preds {
                let p = rng.gen_range(0..i);
                g.add_edge(eagle::opgraph::OpId(p as u32), id);
            }
        }
        g
    })
}

/// One of `nd` devices per op, uniformly — except that one case in four puts
/// every op on the first op's device: a uniform draw never yields an
/// all-on-one-device placement of more than a few ops, the shape on which the
/// engine's inline fast-forward does all the scheduling.
fn arb_placement(n: usize, nd: u8) -> impl Strategy<Value = Placement> {
    (proptest::collection::vec(0..nd, n), 0u8..4).prop_map(|(mut v, collapse)| {
        if let (0, Some(&d)) = (collapse, v.first()) {
            v.fill(d);
        }
        Placement::new(v.into_iter().map(DeviceId).collect())
    })
}

/// Builds a random machine: the paper CPU plus 1–16 GPUs (up to 272 directed
/// links, each with its own arrival queue), with randomized link
/// bandwidth/latency and launch overheads (memory kept at paper scale so the
/// small random graphs never OOM and the differential check always schedules).
fn arb_machine() -> impl Strategy<Value = Machine> {
    (1usize..=16, 1u64..=24, 1u64..=1000, 0u64..=100).prop_map(
        |(gpus, gb_per_s, latency_us, launch_us)| {
            let gib = 1u64 << 30;
            let mut b = Machine::builder().cpu(0.6e12, 125 * gib, 10e-6);
            for _ in 0..gpus {
                b = b.gpu(9.3e12, 16 * gib, launch_us as f64 * 1e-6);
            }
            b.link_bandwidth(gb_per_s as f64 * 1e9)
                .transfer_latency(latency_us as f64 * 1e-6)
                .build()
                .expect("randomized machine stays in the builder's valid range")
        },
    )
}

/// (graph, machine, placement) triple for the differential oracle.
fn arb_case() -> impl Strategy<Value = (OpGraph, Machine, Placement)> {
    (arb_graph(), arb_machine()).prop_flat_map(|(g, m)| {
        let placement = arb_placement(g.len(), m.num_devices() as u8);
        (Just(g), Just(m), placement)
    })
}

/// GraphGen-backed oracle case: a realistic generated *training* graph
/// (backward mirroring, colocation, wide fan-outs, shared variables — none of
/// which `arb_graph` produces) well beyond its 40-op cap, on a random machine
/// with a random placement.
fn arb_graphgen_case() -> impl Strategy<Value = (OpGraph, Machine, Placement)> {
    ((48usize..=160), any::<u64>(), arb_machine()).prop_flat_map(|(target, seed, m)| {
        let cfg = GraphGenConfig {
            target_ops: target,
            fan_out: (2, 4),
            depth: (1, 2),
            batch: (1, 4),
            // Spans OOM-inducing pressures too: the oracle checks the OOM
            // gate agreement as well as valid schedules.
            memory_pressure: (0.25, 64.0),
            ..GraphGenConfig::default()
        };
        let g = GraphGen::new(cfg).expect("oracle generator config is valid").sample(seed);
        let placement = arb_placement(g.len(), m.num_devices() as u8);
        (Just(g), Just(m), placement)
    })
}

/// A transfer booked by the brute-force reference scheduler.
#[derive(Debug, Clone, Copy, PartialEq)]
struct RefTransfer {
    producer: u32,
    src: u8,
    dst: u8,
    start: f64,
    finish: f64,
}

/// Brute-force reference scheduler: no event queue, no heaps — a fixpoint scan
/// over op states at each timestamp, advancing time by a linear search for the
/// next compute finish or transfer arrival. Deliberately structured nothing
/// like `eagle::devsim::engine` so a shared bug is unlikely; semantics are the
/// documented contract (DESIGN.md "Simulator event model"): finishes before
/// arrivals at equal times, finishes in op-index order, causal link bookings,
/// per-destination shipment dedup, idle devices picking min `(ready, index)`.
fn reference_schedule(g: &OpGraph, m: &Machine, p: &Placement) -> (f64, Vec<RefTransfer>) {
    #[derive(Debug, Clone, Copy)]
    enum St {
        Waiting,
        Ready(f64),
        Running(f64),
        Done,
    }
    let n = g.len();
    let nd = m.num_devices();
    let mut st: Vec<St> = (0..n)
        .map(|i| if g.preds(OpId(i as u32)).is_empty() { St::Ready(0.0) } else { St::Waiting })
        .collect();
    let mut delivered = vec![0usize; n];
    let mut arrival = vec![0.0f64; n];
    let mut busy: Vec<bool> = vec![false; nd];
    let mut link_free = vec![0.0f64; nd * nd];
    // (producer, dst, arrive time, consumed?)
    let mut inflight: Vec<(u32, usize, f64, bool)> = Vec::new();
    let mut transfers: Vec<RefTransfer> = Vec::new();
    let mut makespan = 0.0f64;
    let mut now = 0.0f64;
    let mut done = 0usize;

    let deliver = |s: OpId, t: f64, st: &mut [St], delivered: &mut [usize], arrival: &mut [f64]| {
        let i = s.index();
        delivered[i] += 1;
        arrival[i] = arrival[i].max(t);
        if delivered[i] == g.preds(s).len() {
            st[i] = St::Ready(arrival[i]);
        }
    };

    while done < n {
        // Fixpoint at `now`: finishes (ascending op index), arrivals, starts.
        loop {
            let mut changed = false;
            let finishing: Vec<usize> =
                (0..n).filter(|&i| matches!(st[i], St::Running(f) if f == now)).collect();
            for o in finishing {
                // (0..n) iteration order is already ascending op index.
                st[o] = St::Done;
                done += 1;
                changed = true;
                let id = OpId(o as u32);
                let dev = p.device(id);
                busy[dev.index()] = false;
                let mut sent_to = vec![false; nd];
                for &succ in g.succs(id) {
                    let sdev = p.device(succ);
                    if sdev == dev {
                        deliver(succ, now, &mut st, &mut delivered, &mut arrival);
                    } else if !sent_to[sdev.index()] {
                        sent_to[sdev.index()] = true;
                        let link = &mut link_free[dev.index() * nd + sdev.index()];
                        let start = now.max(*link);
                        let dur = m.transfer_time(g.node(id).out_bytes);
                        *link = start + dur;
                        transfers.push(RefTransfer {
                            producer: id.0,
                            src: dev.0,
                            dst: sdev.0,
                            start,
                            finish: start + dur,
                        });
                        inflight.push((id.0, sdev.index(), start + dur, false));
                    }
                }
            }
            for entry in inflight.iter_mut() {
                let (producer, dst, arrive, consumed) = *entry;
                if consumed || arrive != now {
                    continue;
                }
                entry.3 = true;
                changed = true;
                for &succ in g.succs(OpId(producer)) {
                    if p.device(succ).index() == dst {
                        deliver(succ, now, &mut st, &mut delivered, &mut arrival);
                    }
                }
            }
            for (d, busy_d) in busy.iter_mut().enumerate() {
                if *busy_d {
                    continue;
                }
                // Min (ready time, op index) among startable ops on device d.
                let pick = (0..n)
                    .filter_map(|i| match st[i] {
                        St::Ready(rt) if p.device(OpId(i as u32)).index() == d && rt <= now => {
                            Some((rt, i))
                        }
                        _ => None,
                    })
                    .min_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
                if let Some((_, o)) = pick {
                    let id = OpId(o as u32);
                    let node = g.node(id);
                    let exec = m.exec_time(node.kind, node.flops, p.device(id));
                    st[o] = St::Running(now + exec);
                    *busy_d = true;
                    makespan = makespan.max(now + exec);
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        let mut next = f64::INFINITY;
        for s in &st {
            if let St::Running(f) = s {
                next = next.min(*f);
            }
        }
        for &(_, _, arrive, consumed) in &inflight {
            if !consumed {
                next = next.min(arrive);
            }
        }
        if !next.is_finite() {
            break;
        }
        now = next;
    }
    assert_eq!(done, n, "reference scheduler must complete the DAG");
    (makespan, transfers)
}

/// Shared body of the differential oracle. Past the OOM gate, the reward
/// path, the recorded schedule and the brute-force reference must agree
/// exactly: recording changes nothing but `ops` and `transfers` (the stats
/// path counts the transfers it books), `simulate` is the stats-only
/// schedule's projection, and the reference books the same makespan (bitwise)
/// and the same transfers.
fn differential_check(g: &OpGraph, m: &Machine, p: &Placement) -> Result<(), TestCaseError> {
    let SimOutcome::Valid(stats) = eagle::devsim::simulate(g, m, p) else { return Ok(()) };
    let recorded = engine::schedule(g, m, p);
    prop_assert_eq!(recorded.ops.len(), g.len());
    prop_assert_eq!(recorded.num_transfers, recorded.transfers.len());
    let mut unrecorded = recorded.clone();
    unrecorded.ops.clear();
    unrecorded.transfers.clear();
    prop_assert_eq!(
        &engine::schedule_stats(g, m, p),
        &unrecorded,
        "recording the op and transfer slots changes only `ops` and `transfers`"
    );
    let projected = StepStats {
        step_time: recorded.step_time,
        device_busy: recorded.device_busy.clone(),
        comm_time: recorded.comm_time,
        num_transfers: recorded.transfers.len(),
    };
    prop_assert_eq!(&stats, &projected, "simulate projects the schedule");

    // The independent brute-force reference agrees exactly.
    let (ref_makespan, ref_transfers) = reference_schedule(g, m, p);
    prop_assert_eq!(ref_makespan, stats.step_time, "engine vs reference makespan");
    prop_assert_eq!(ref_transfers.len(), recorded.transfers.len());
    let mut a: Vec<(u32, u8, u8, u64, u64)> = recorded
        .transfers
        .iter()
        .map(|t| (t.producer, t.src, t.dst, t.start.to_bits(), t.finish.to_bits()))
        .collect();
    let mut b: Vec<(u32, u8, u8, u64, u64)> = ref_transfers
        .iter()
        .map(|t| (t.producer, t.src, t.dst, t.start.to_bits(), t.finish.to_bits()))
        .collect();
    a.sort_unstable();
    b.sort_unstable();
    prop_assert_eq!(a, b, "engine vs reference booked transfers");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn makespan_bounds_hold((g, p) in arb_graph().prop_flat_map(|g| {
        let n = g.len();
        (Just(g), arb_placement(n, 5))
    })) {
        let m = Machine::paper_machine();
        match eagle::devsim::simulate(&g, &m, &p) {
            SimOutcome::Valid(stats) => {
                // Makespan at least the busiest device's compute time.
                let busiest = stats.device_busy.iter().cloned().fold(0.0, f64::max);
                prop_assert!(stats.step_time + 1e-12 >= busiest);
                // Makespan at least any single op's execution time.
                for id in g.ids() {
                    let node = g.node(id);
                    let t = m.exec_time(node.kind, node.flops, p.device(id));
                    prop_assert!(stats.step_time + 1e-12 >= t);
                }
                // Comm accounting consistent with transfer count.
                if stats.num_transfers == 0 {
                    prop_assert!(stats.comm_time == 0.0);
                } else {
                    prop_assert!(stats.comm_time > 0.0);
                }
            }
            SimOutcome::Oom { device, required, capacity } => {
                prop_assert!(required > capacity);
                let mem = p.memory_per_device(&g, &m);
                prop_assert_eq!(mem[device.index()], required);
            }
        }
    }

    #[test]
    fn memory_accounting_partitions_total(g in arb_graph(), devs in proptest::collection::vec(0u8..5, 0..40)) {
        let m = Machine::paper_machine();
        let n = g.len();
        let p = Placement::new((0..n).map(|i| DeviceId(devs.get(i).copied().unwrap_or(1))).collect());
        let mem = p.memory_per_device(&g, &m);
        let total: u64 = mem.iter().sum();
        prop_assert_eq!(total, g.total_bytes());
    }

    #[test]
    fn colocated_placement_beats_or_equals_scatter_on_chains(n in 3usize..20, flops in 1e6f64..1e9) {
        // On a pure chain with non-trivial tensors, any placement that scatters
        // ops across devices pays transfers a single-device placement avoids.
        let mut g = OpGraph::new("chain");
        let mut prev = None;
        for i in 0..n {
            let id = g.add_node(
                OpNode::new(format!("c{i}"), OpKind::MatMul, Phase::Forward)
                    .with_flops(flops)
                    .with_out_bytes(1 << 20),
            );
            if let Some(p) = prev {
                g.add_edge(p, id);
            }
            prev = Some(id);
        }
        let m = Machine::paper_machine();
        let gpu = m.gpu_ids()[0];
        let together = eagle::devsim::simulate(&g, &m, &Placement::uniform(n, gpu))
            .step_time()
            .unwrap();
        let gpus = m.gpu_ids();
        let scattered = Placement::new((0..n).map(|i| gpus[i % gpus.len()]).collect());
        let apart = eagle::devsim::simulate(&g, &m, &scattered).step_time().unwrap();
        prop_assert!(apart >= together);
    }

    #[test]
    fn cached_and_uncached_evaluation_agree((g, p) in arb_graph().prop_flat_map(|g| {
        let n = g.len();
        (Just(g), arb_placement(n, 5))
    }), seed in any::<u64>()) {
        use eagle::devsim::{Environment, MeasureConfig};
        let m = Machine::paper_machine();
        // Noise-free protocol isolates what the cache stores: the OOM verdict
        // and the noiseless step time must be identical with and without it.
        let cfg = MeasureConfig {
            noise_sigma: 0.0,
            ..MeasureConfig::default()
        };
        let mut cached = Environment::builder(g.clone(), m.clone())
            .measure(cfg.clone())
            .seed(seed)
            .build()
            .expect("valid cached environment");
        let mut uncached = Environment::builder(g.clone(), m.clone())
            .measure(cfg)
            .seed(seed)
            .cache_capacity(0)
            .build()
            .expect("valid uncached environment");
        // Evaluate twice: the second cached evaluation is a guaranteed hit.
        for round in 0..2 {
            let a = cached.evaluate(&p);
            let b = uncached.evaluate(&p);
            prop_assert_eq!(a.step_time.is_some(), b.step_time.is_some(),
                "round {}: validity must not depend on the cache", round);
            prop_assert_eq!(a.step_time, b.step_time,
                "round {}: noiseless step time must not depend on the cache", round);
        }
        prop_assert_eq!(cached.snapshot().cache.hits, 1);
        prop_assert_eq!(uncached.snapshot().cache.hits, 0);
        // And the pure simulation agrees with what the hit returned.
        let base = cached.simulate_base(&p);
        prop_assert_eq!(base, cached.evaluate(&p).step_time);
    }

    #[test]
    fn group_decode_is_consistent(n in 1usize..50, k in 1usize..8) {
        // Placement::from_groups assigns exactly group_devices[group_of[i]].
        let group_of: Vec<usize> = (0..n).map(|i| i % k).collect();
        let group_devices: Vec<DeviceId> = (0..k).map(|g| DeviceId((g % 5) as u8)).collect();
        let p = Placement::from_groups(&group_of, &group_devices);
        for i in 0..n {
            prop_assert_eq!(p.devices()[i], group_devices[group_of[i]]);
        }
    }
}

// The differential-testing oracle: the reward path, the recorded schedule, and
// the brute-force reference must agree exactly — same makespan, same booked
// transfers — and every schedule must satisfy the causal-ordering contract.
// The classic slices run over `arb_graph`'s ≤40-op DAGs; the GraphGen slice
// holds the same exact-agreement contract over realistic generated training
// graphs (48-160 target ops, backward mirroring, wide fan-outs, shared
// variables). `EAGLE_ORACLE_CASES` tunes every slice: 256 by default
// (PR-gating), 10000+ in the nightly job.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(oracle_cases()))]

    #[test]
    fn engine_matches_reference_on_random_dags((g, m, p) in arb_case()) {
        differential_check(&g, &m, &p)?;
    }

    #[test]
    fn engine_matches_reference_on_graphgen_graphs((g, m, p) in arb_graphgen_case()) {
        differential_check(&g, &m, &p)?;
    }

    #[test]
    fn per_link_bookings_are_causal_and_fifo((g, m, p) in arb_case()) {
        if eagle::devsim::simulate(&g, &m, &p).step_time().is_none() {
            return Ok(());
        }
        let sched = engine::schedule(&g, &m, &p);
        // No device runs two ops at once: in dispatch order, each op starts
        // no earlier than the previous op on its device finished.
        let mut dev_free: std::collections::HashMap<u8, f64> = Default::default();
        for o in &sched.ops {
            prop_assert!(o.finish >= o.start);
            let free = dev_free.insert(o.device, o.finish).unwrap_or(0.0);
            prop_assert!(o.start >= free, "device {} runs two ops at once: {:?}", o.device, o);
        }
        let finish_of: std::collections::HashMap<u32, f64> =
            sched.ops.iter().map(|o| (o.op, o.finish)).collect();
        let mut per_link: std::collections::HashMap<(u8, u8), Vec<(f64, f64)>> =
            Default::default();
        for t in &sched.transfers {
            // Causality: a transfer starts no earlier than its producer
            // finishes, and takes positive time.
            prop_assert!(t.start >= finish_of[&t.producer], "non-causal booking: {:?}", t);
            prop_assert!(t.finish > t.start);
            prop_assert!(t.src != t.dst, "same-device data never ships");
            // Booking order (vector order) is per-link FIFO: the engine books
            // each link at causal start times, so within a link the intervals
            // appear sorted and disjoint without re-sorting.
            per_link.entry((t.src, t.dst)).or_default().push((t.start, t.finish));
        }
        for ((src, dst), intervals) in per_link {
            for w in intervals.windows(2) {
                prop_assert!(
                    w[1].0 >= w[0].0,
                    "link {}->{} starts must be non-decreasing: {:?}",
                    src, dst, w
                );
                prop_assert!(
                    w[1].0 >= w[0].1,
                    "link {}->{} bookings must not overlap: {:?}",
                    src, dst, w
                );
            }
        }
    }

    #[test]
    fn engine_paths_agree_on_the_paper_machine((g, p) in arb_graph().prop_flat_map(|g| {
        let n = g.len();
        (Just(g), arb_placement(n, 5))
    })) {
        // Same differential check pinned to the paper machine (the one every
        // training run uses), complementing the random machines above.
        let m = Machine::paper_machine();
        if let SimOutcome::Valid(stats) = eagle::devsim::simulate(&g, &m, &p) {
            let (ref_makespan, ref_transfers) = reference_schedule(&g, &m, &p);
            prop_assert_eq!(ref_makespan, stats.step_time);
            prop_assert_eq!(ref_transfers.len(), stats.num_transfers);
        }
    }
}

// GraphGen's own contract, property-tested across random configs and seeds:
// determinism (same seed → bit-identical serialized graph) and validity
// (every invariant of `GraphGen::validate` holds on every sample).
proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn graphgen_is_seed_deterministic_and_valid(
        seed in any::<u64>(),
        target in 32usize..=512,
        fan_lo in 1usize..=3,
        fan_span in 0usize..=4,
        depth_lo in 1usize..=2,
        depth_span in 0usize..=3,
        training in any::<bool>(),
    ) {
        let cfg = GraphGenConfig {
            target_ops: target,
            fan_out: (fan_lo, fan_lo + fan_span),
            depth: (depth_lo, depth_lo + depth_span),
            training,
            ..GraphGenConfig::default()
        };
        let gen = GraphGen::new(cfg).expect("constructed config is valid");
        let a = gen.sample(seed);
        let b = gen.sample(seed);
        prop_assert_eq!(a.to_json(), b.to_json(), "same seed must be bit-identical");
        if let Err(e) = GraphGen::validate(&a) {
            return Err(TestCaseError::fail(format!("seed {seed}: invalid sample: {e}")));
        }
        // Spot-check downstream usability: topo order exists and features are
        // finite for every sampled graph, not just the unit-test sweep.
        prop_assert_eq!(a.topo_order().len(), a.len());
    }
}

/// Regression corpus: minimized (graph, machine, placement) shapes that once
/// disagreed or crashed somewhere in the reward/recorded/reference triangle, kept
/// alive as plain unit checks independent of the random sweeps.
#[test]
fn oracle_regression_corpus() {
    // Shared-variable fan-out: one variable read by two consumers placed on
    // two different devices — exercises per-destination shipment dedup on the
    // smallest graph that has it.
    let mut g = OpGraph::new("regress/shared-var");
    let v = g.add_node(
        OpNode::new("w", OpKind::Variable, Phase::Forward).with_out_bytes(1 << 20).with_flops(0.0),
    );
    let a = g.add_node(
        OpNode::new("a", OpKind::MatMul, Phase::Forward).with_flops(1e8).with_out_bytes(1 << 10),
    );
    let b = g.add_node(
        OpNode::new("b", OpKind::MatMul, Phase::Forward).with_flops(1e8).with_out_bytes(1 << 10),
    );
    g.add_edge(v, a);
    g.add_edge(v, b);
    let m = Machine::paper_machine();
    let gpus = m.gpu_ids();
    let p = Placement::new(vec![gpus[0], gpus[0], gpus[1]]);
    differential_check(&g, &m, &p).unwrap();

    // Zero-cost ops at time 0: every op free, everything placed on one device,
    // makespans degenerate to launch overheads only.
    let mut g = OpGraph::new("regress/zero-cost");
    let x = g.add_node(OpNode::new("x", OpKind::Input, Phase::Forward));
    let y = g.add_node(OpNode::new("y", OpKind::Reshape, Phase::Forward));
    g.add_edge(x, y);
    let p = Placement::new(vec![gpus[0], gpus[1]]);
    differential_check(&g, &m, &p).unwrap();
}
