//! The event engine's output pinned across commits, and its worst case.
//!
//! `every_stat_is_pinned` hashes (FNV-1a-64) every field of `simulate`'s
//! [`StepStats`] — or of its OOM verdict — plus the engine counters
//! `events_processed`, `transfers_deduped` and `peak_queue_depth`, over 200
//! seeded group placements per (graph, machine) pair: the three calibrated
//! benchmarks and a 5k-op GraphGen graph, on the paper machine and on a
//! 16-GPU builder machine. A change to the engine's queues that moves one bit
//! of one counter moves a pin; never re-pin it in a change meant to keep them.
//!
//! `one_timestamp_fanout_stays_subquadratic` delivers a 20k-successor
//! fan-out at one timestamp in descending op order on a 64-device machine
//! (4,032 directed links): once onto one device's ready queue, once spread so
//! that every link carries transfers. Ten times the ops must cost under 40
//! times the time (linear is 10x, quadratic 100x; 9–14x measured in debug
//! builds). The engine counters of both cases are pinned too, but they count
//! events, not queue work, so only the timing bounds the queues' cost.

use std::time::Instant;

use eagle_devsim::search::topo_chunks;
use eagle_devsim::{engine, simulate, Benchmark, DeviceId, Machine, Placement, SimOutcome};
use eagle_opgraph::{GraphGen, GraphGenConfig, OpGraph, OpId, OpKind, OpNode, Phase};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Placements per (graph, machine) pair.
const PLACEMENTS: usize = 200;
/// Groups per placement (`topo_chunks`).
const GROUPS: usize = 32;

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
    }
}

/// The paper's CPU plus `gpus` P100-class GPUs, through the builder.
fn builder_machine(gpus: usize) -> Machine {
    let gib = 1u64 << 30;
    let mut b = Machine::builder().cpu(0.6e12, 125 * gib, 10e-6);
    for _ in 0..gpus {
        b = b.gpu(9.3e12, 16 * gib, 30e-6);
    }
    b.build().expect("builder machine is valid")
}

fn graphgen_5k() -> OpGraph {
    let cfg = GraphGenConfig {
        target_ops: 5_000,
        memory_pressure: (0.05, 0.1),
        batch: (2, 8),
        ..GraphGenConfig::default()
    };
    GraphGen::new(cfg).expect("valid config").sample(7 ^ 5_000)
}

/// Feeds every stat of one placement to `h`: `simulate`'s verdict and the
/// stats-only schedule's counters.
fn hash_stats(h: &mut Fnv, graph: &OpGraph, machine: &Machine, p: &Placement) {
    match simulate(graph, machine, p) {
        SimOutcome::Valid(s) => {
            h.word(0);
            h.word(s.step_time.to_bits());
            for b in &s.device_busy {
                h.word(b.to_bits());
            }
            h.word(s.comm_time.to_bits());
            h.word(s.num_transfers as u64);
        }
        SimOutcome::Oom { device, required, capacity } => {
            h.word(1);
            h.word(device.0 as u64);
            h.word(required);
            h.word(capacity);
        }
    }
    let sched = engine::schedule_stats(graph, machine, p);
    h.word(sched.events_processed);
    h.word(sched.transfers_deduped);
    h.word(sched.peak_queue_depth as u64);
}

/// FNV-1a-64 over every stat of `PLACEMENTS` seeded group placements, each
/// group on a uniformly drawn device of `machine`.
fn pin(graph: &OpGraph, machine: &Machine, seed: u64) -> u64 {
    let group_of = topo_chunks(graph, GROUPS);
    let nd = machine.num_devices() as u8;
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut h = Fnv::new();
    for _ in 0..PLACEMENTS {
        let devices: Vec<DeviceId> = (0..GROUPS).map(|_| DeviceId(rng.gen_range(0..nd))).collect();
        hash_stats(&mut h, graph, machine, &Placement::from_groups(&group_of, &devices));
    }
    h.0
}

#[test]
fn every_stat_is_pinned() {
    let machines = [("paper", Machine::paper_machine()), ("gpu16", builder_machine(16))];
    let graphs: Vec<(&str, OpGraph)> = Benchmark::ALL
        .iter()
        .map(|&b| (b.name(), b.graph()))
        .chain(std::iter::once(("graphgen_5k", graphgen_5k())))
        .collect();
    let mut got = Vec::new();
    for (mi, (mname, machine)) in machines.iter().enumerate() {
        for (gi, (gname, graph)) in graphs.iter().enumerate() {
            got.push((*gname, *mname, pin(graph, machine, (mi * 16 + gi) as u64)));
        }
    }
    let want = [
        ("inception_v3", "paper", 0xdc71_df3f_bcd1_aea4),
        ("gnmt", "paper", 0x2532_382e_5cbf_ac8c),
        ("bert_base", "paper", 0xf0e7_7459_8392_1570),
        ("graphgen_5k", "paper", 0x6a56_8441_0351_c918),
        ("inception_v3", "gpu16", 0xe094_c679_7318_06b3),
        ("gnmt", "gpu16", 0x82f2_dc11_1ea9_e85c),
        ("bert_base", "gpu16", 0x575b_1fa6_4261_dc71),
        ("graphgen_5k", "gpu16", 0x3c63_e3e7_825b_3517),
    ];
    assert_eq!(got, want, "{got:x?}");
}

/// One root fanning out to `n` successors, its edges added in descending op
/// order, each successor feeding one of 64 sinks. Placed `spread`, successor
/// `i` sits on device `i % 64` and feeds a sink on another device, so every
/// one of the 64 x 63 directed links carries transfers; otherwise everything
/// sits on device 1.
fn fanout_case(n: usize, spread: bool) -> (OpGraph, Placement) {
    const DEVICES: usize = 64;
    let mut g = OpGraph::new("fanout");
    let mk = |name: String, flops: f64| {
        OpNode::new(name, OpKind::MatMul, Phase::Forward).with_flops(flops).with_out_bytes(1 << 16)
    };
    let root = g.add_node(mk("root".into(), 1e6));
    let succs: Vec<OpId> = (0..n).map(|i| g.add_node(mk(format!("s{i}"), 1e6))).collect();
    let sinks: Vec<OpId> = (0..DEVICES).map(|j| g.add_node(mk(format!("k{j}"), 1e6))).collect();
    let mut devices = vec![DeviceId(1); g.len()];
    for &s in succs.iter().rev() {
        g.add_edge(root, s);
    }
    for (i, &s) in succs.iter().enumerate() {
        let (dev, k) = (i % DEVICES, i / DEVICES);
        let sink = if spread { (dev + 1 + k % (DEVICES - 1)) % DEVICES } else { i % DEVICES };
        g.add_edge(s, sinks[sink]);
        if spread {
            devices[s.index()] = DeviceId(dev as u8);
        }
    }
    if spread {
        devices[root.index()] = DeviceId(0);
        for (j, &k) in sinks.iter().enumerate() {
            devices[k.index()] = DeviceId(j as u8);
        }
    }
    (g, Placement::new(devices))
}

/// Best of three runs of the engine on one case, in seconds.
fn best_time(g: &OpGraph, m: &Machine, p: &Placement) -> f64 {
    (0..3)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(engine::schedule_stats(g, m, p));
            t0.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

#[test]
fn one_timestamp_fanout_stays_subquadratic() {
    let m = builder_machine(63);
    assert_eq!(m.num_devices() * (m.num_devices() - 1), 4_032);
    let mut h = Fnv::new();
    for spread in [false, true] {
        let (small_g, small_p) = fanout_case(2_000, spread);
        let (g, p) = fanout_case(20_000, spread);
        hash_stats(&mut h, &g, &m, &p);
        let SimOutcome::Valid(stats) = simulate(&g, &m, &p) else { panic!("fits in memory") };
        let links = if spread { 63 + 64 * 63 } else { 0 };
        assert!(stats.num_transfers >= links, "spread {spread}: every link carries a transfer");
        let ratio = best_time(&g, &m, &p) / best_time(&small_g, &m, &small_p);
        assert!(ratio < 40.0, "spread {spread}: 10x the ops cost {ratio:.1}x the time");
    }
    assert_eq!(h.0, 0xc090_184f_e42b_1f33, "{:x}", h.0);
}
