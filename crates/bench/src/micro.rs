//! The entries that time code instead of training it — the `matmul` kernel
//! sweep and the `graph_scale` stress — and [`bench`], the one best-of timer
//! every timed entry uses.

use std::cell::RefCell;

use eagle_devsim::{DeviceId, Machine, Placement};
use eagle_opgraph::features::node_features;
use eagle_opgraph::{GraphGen, GraphGenConfig};
use eagle_tensor::{tanh, Tensor, PAR_MATMUL_THRESHOLD, STREAM_MATMUL_ROWS};
use serde_json::Value;

use crate::Cli;

/// Seconds per call of each column: the fastest of `rounds` rounds of `iters`
/// calls (after one warm-up call), the columns taking turns within a round so
/// a neighbour's burst on a shared host falls on all of them and costs a
/// round, not one column's figure.
pub fn bench<const N: usize>(rounds: usize, iters: usize, columns: [&dyn Fn(); N]) -> [f64; N] {
    let mut best = [f64::INFINITY; N];
    for f in columns {
        f();
    }
    for _ in 0..rounds {
        for (f, best) in columns.iter().zip(&mut best) {
            let start = std::time::Instant::now();
            for _ in 0..iters {
                f();
            }
            *best = best.min(start.elapsed().as_secs_f64() / iters as f64);
        }
    }
    best
}

/// Drops a timed call's result where the optimizer cannot see it unused.
fn keep<T>(t: T) {
    drop(std::hint::black_box(t));
}

pub fn obj(entries: Vec<(&str, Value)>) -> Value {
    Value::Object(entries.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

/// `(m, k, n)` of the forward product `x (m, k) . w (k, n)`: squares
/// bracketing the threshold, then the op-count-tall grouper layers on GNMT
/// and Inception-V3. [`SHORT_ROWS`] x [`SHORT_WIDTHS`] follow.
const SHAPES: &[(usize, usize, usize)] = &[
    (16, 16, 16),
    (64, 64, 64),
    (128, 128, 128),
    (256, 256, 256),
    (1024, 64, 64),
    (64, 1024, 8),
    (2935, 81, 32),
    (1182, 81, 64),
];

/// Rows of the short products: one (a shared encoder or link step), a
/// 10-sample minibatch's decoder step, and both sides of it.
const SHORT_ROWS: [usize; 4] = [1, 4, 10, 16];

/// `(k, n)` of the short products: the paper-width gate products `h . w_hh`
/// and `x . w_ih`, the quick-scale ones, and the quick-scale grouper layer's
/// widths (issued op-count tall only).
const SHORT_WIDTHS: [(usize, usize); 5] =
    [(512, 2048), (1664, 2048), (48, 192), (156, 192), (81, 32)];

/// `(rows, cols)` of the tanh buffers: the attention's `(B·k, a)`
/// pre-activation of a quick-scale decode step and a 10-sample minibatch's
/// LSTM gate block `(10, 4h)`.
const TANH_SHAPES: [(usize, usize); 2] = [(320, 24), (10, 192)];

/// Values to push through each tanh column per timed round.
const TANH_VALUES: usize = 1 << 21;

/// Total multiply-adds to spend per timed column, so small shapes get many
/// repetitions and large ones few, at roughly constant wall-clock per cell.
const TARGET_MADDS: usize = 1 << 25;

/// Deterministic pseudo-random matrix; every 11th entry is exactly zero, as
/// in zero-padded batches, where a zero term must move no bit.
fn fill(rows: usize, cols: usize, salt: u64) -> Tensor {
    let mut state = salt.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    let data = (0..rows * cols)
        .map(|i| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            if i % 11 == 3 {
                0.0
            } else {
                ((state >> 33) as f32 / (1u64 << 31) as f32) - 0.5
            }
        })
        .collect();
    Tensor::from_vec(rows, cols, data)
}

/// The x86-64 vector extensions this binary was compiled for, so a sweep
/// measured on the SSE2 baseline (`RUSTFLAGS=""`) reads apart from one on
/// the repository's AVX2 build. `fma` would mean fused products whose bits
/// differ from the unfused sums every kernel promises.
fn target_features() -> Vec<&'static str> {
    let compiled = [
        ("sse2", cfg!(target_feature = "sse2")),
        ("avx", cfg!(target_feature = "avx")),
        ("avx2", cfg!(target_feature = "avx2")),
        ("fma", cfg!(target_feature = "fma")),
    ];
    compiled.into_iter().filter_map(|(name, on)| on.then_some(name)).collect()
}

fn bitwise_eq(x: &Tensor, y: &Tensor) -> bool {
    x.shape() == y.shape() && x.data().iter().zip(y.data()).all(|(a, b)| a.to_bits() == b.to_bits())
}

/// `a . b` with the rows of `a` halved over two threads, each running the
/// serial product (and reading all of `b`) on its half; a single row is not
/// split.
fn split2(a: &Tensor, b: &Tensor) -> Tensor {
    if a.rows() < 2 {
        return a.matmul(b);
    }
    let top = a.rows().div_ceil(2);
    let halves = [a.slice_rows(0, top), a.slice_rows(top, a.rows() - top)];
    let products = eagle_obs::fork_join(halves, |h| h.matmul(b));
    Tensor::concat_rows(&[&products[0], &products[1]])
}

/// The `matmul` table (`BENCH_matmul.json`): the two loops behind
/// `Tensor::matmul` (row-streaming below `STREAM_MATMUL_ROWS` rows,
/// cache-blocked packed-B from there up) and the gradient products `gy . wᵀ`
/// (`matmul_nt`) and `slot += xᵀ . gy` (`matmul_tn_segments` of one
/// segment), over squares and the shapes the training workloads run.
///
/// `serial_sec` is the forward on one worker through the loop the shape
/// picks, `packed_sec` the packed loop at any row count (`matmul_tn` of the
/// transposed `x`, whose inner dimension is never short here):
/// `STREAM_MATMUL_ROWS` is read off the two. `tn_acc_sec` runs the loop the
/// rows of `x` pick, so below the bound it times the streamed weight
/// gradient. `dispatch_sec`, `nt_dispatch_sec` and `tn_acc_dispatch_sec` run
/// the forward, `gy . wᵀ` and `slot += xᵀ . gy` under
/// `PAR_MATMUL_THRESHOLD`'s rule at the experiment's worker count (`--workers`),
/// `split2_sec` the forward's rows halved over two threads whatever the rule
/// says. Best of 7 rounds, 1 at `--scale tiny`.
///
/// `tanh` times the activation the tape applies to those products, per
/// value over [`TANH_SHAPES`]: libm's `f32::tanh` (`tanh_libm_ns`) against
/// the crate's branch-free port `eagle_tensor::tanh` (`tanh_exact_ns`).
///
/// Its gate: before each shape is timed, every layout's bits equal its
/// definition on explicitly transposed operands (the forward's the packed
/// loop's), on one worker and at the dispatch count; and the two tanh
/// columns write the same bits into their timed buffers.
pub fn matmul(cli: &Cli) -> (String, bool) {
    let dispatch_workers = eagle_obs::available_workers();
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let rounds = if cli.scale_name == "tiny" { 1 } else { 7 };
    println!(
        "  streaming below {STREAM_MATMUL_ROWS} rows vs cache-blocked packed-B ({}), dispatch at {dispatch_workers} worker(s) on {host_cores} core(s), threshold {PAR_MATMUL_THRESHOLD} madds per worker",
        target_features().join("+")
    );

    let short = SHORT_WIDTHS.iter().flat_map(|&(k, n)| SHORT_ROWS.map(|m| (m, k, n)));
    let mut shapes_out: Vec<Value> = Vec::new();
    let mut all_identical = true;
    for (m, k, n) in SHAPES.iter().copied().chain(short) {
        let x = fill(m, k, 1 + m as u64);
        let w = fill(k, n, 2 + n as u64);
        let gy = fill(m, n, 3 + k as u64);
        let madds = m * n * k;
        let iters = (TARGET_MADDS / madds.max(1)).clamp(2, 500);

        // Bitwise contract first: one ascending-k accumulation per output
        // element, whichever kernel streams it and however it is sharded.
        let (wt, xt) = (w.transpose(), x.transpose());
        let held = fill(k, n, 4 + m as u64);
        let mut held_plus_tn = held.clone();
        held_plus_tn.add_assign(&xt.matmul(&gy));
        let mut identical = [true; 3];
        for workers in [1, dispatch_workers] {
            eagle_obs::set_available_workers(workers);
            let mut acc = Some(held.clone());
            x.matmul_tn_segments(&gy, m, &mut acc);
            identical[0] &= bitwise_eq(&x.matmul(&w), &xt.matmul_tn(&w));
            identical[1] &= bitwise_eq(&gy.matmul_nt(&w), &gy.matmul(&wt));
            identical[2] &= bitwise_eq(&x.matmul_tn(&gy), &xt.matmul(&gy))
                && bitwise_eq(&acc.unwrap(), &held_plus_tn);
        }
        if !identical.iter().all(|&ok| ok) {
            eprintln!("matmul gate FAILED: {m}x{k}@{k}x{n}: kernels disagree {identical:?}");
            all_identical = false;
        }

        // Every column on one worker except `dispatch`, which runs the rule
        // at the configured count. The gradient products are timed as a VJP
        // issues them — `gy . wᵀ` into a fresh tensor, `xᵀ . gy` added into
        // the weight's gradient slot — against the transpose-then-multiply
        // (and, for the slot, temporary-then-add) they replace.
        eagle_obs::set_available_workers(1);
        let slot = RefCell::new(Some(held));
        let secs = bench(
            rounds,
            iters,
            [
                &|| keep(x.matmul(&w)),
                &|| keep(xt.matmul_tn(&w)),
                &|| {
                    eagle_obs::set_available_workers(dispatch_workers);
                    keep(x.matmul(&w));
                    eagle_obs::set_available_workers(1);
                },
                &|| keep(split2(&x, &w)),
                &|| keep(gy.matmul_nt(&w)),
                &|| keep(gy.matmul(&w.transpose())),
                &|| {
                    eagle_obs::set_available_workers(dispatch_workers);
                    keep(gy.matmul_nt(&w));
                    eagle_obs::set_available_workers(1);
                },
                &|| x.matmul_tn_segments(&gy, m, &mut slot.borrow_mut()),
                &|| slot.borrow_mut().as_mut().unwrap().add_assign(&x.transpose().matmul(&gy)),
                &|| {
                    eagle_obs::set_available_workers(dispatch_workers);
                    x.matmul_tn_segments(&gy, m, &mut slot.borrow_mut());
                    eagle_obs::set_available_workers(1);
                },
            ],
        );
        let [serial_sec, packed_sec, dispatch_sec, split2_sec, nt_sec, nt_transposing_sec, nt_dispatch_sec, tn_acc_sec, tn_transposing_sec, tn_acc_dispatch_sec] =
            secs;
        let split2_sec = (m >= 2).then_some(split2_sec);

        let gflops = |sec: f64| 2.0 * madds as f64 / sec / 1e9;
        let [serial, packed, dispatch, split2, nt, nt_t, nt_d, tn_acc, tn_t, tn_d] =
            secs.map(gflops);
        let split2 = if m >= 2 { split2 } else { f64::NAN };
        println!(
            "  {m:>5}x{k:<5}@{k:>5}x{n:<5} serial {serial:>6.2}  packed {packed:>6.2}  dispatch {dispatch:>6.2}  split2 {split2:>6.2}  nt {nt:>6.2} (transposing {nt_t:>6.2}, dispatch {nt_d:>6.2})  tn_acc {tn_acc:>6.2} (transposing {tn_t:>6.2}, dispatch {tn_d:>6.2}) GF/s"
        );
        shapes_out.push(obj(vec![
            ("m", Value::U64(m as u64)),
            ("k", Value::U64(k as u64)),
            ("n", Value::U64(n as u64)),
            ("madds", Value::U64(madds as u64)),
            ("iters", Value::U64(iters as u64)),
            ("serial_sec", Value::from(serial_sec)),
            ("packed_sec", Value::from(packed_sec)),
            ("dispatch_sec", Value::from(dispatch_sec)),
            ("split2_sec", split2_sec.map_or(Value::Null, Value::from)),
            ("nt_sec", Value::from(nt_sec)),
            ("nt_transposing_sec", Value::from(nt_transposing_sec)),
            ("nt_dispatch_sec", Value::from(nt_dispatch_sec)),
            ("tn_acc_sec", Value::from(tn_acc_sec)),
            ("tn_transposing_sec", Value::from(tn_transposing_sec)),
            ("tn_acc_dispatch_sec", Value::from(tn_acc_dispatch_sec)),
            ("gflops_serial", Value::from(gflops(serial_sec))),
            ("serial_vs_packed", Value::from(packed_sec / serial_sec)),
            ("dispatch_vs_serial", Value::from(serial_sec / dispatch_sec)),
            ("nt_dispatch_vs_serial", Value::from(nt_sec / nt_dispatch_sec)),
            ("tn_acc_dispatch_vs_serial", Value::from(tn_acc_sec / tn_acc_dispatch_sec)),
            ("split2_vs_serial", split2_sec.map_or(Value::Null, |s| Value::from(serial_sec / s))),
            ("bitwise_identical", Value::Bool(identical[0])),
            ("nt_bitwise_identical", Value::Bool(identical[1])),
            ("tn_bitwise_identical", Value::Bool(identical[2])),
        ]));
    }
    // Hand the driver's override (or auto-detection) back to later entries.
    eagle_obs::set_available_workers(cli.workers.unwrap_or(0));

    let mut tanh_out: Vec<Value> = Vec::new();
    for (rows, cols) in TANH_SHAPES {
        // Pre-activations in [-4, 4): every path of the C code that
        // |x| < 4 reaches.
        let x = fill(rows, cols, 5 + cols as u64).map(|v| 8.0 * v);
        let values = rows * cols;
        let (libm, exact) = (RefCell::new(vec![0.0; values]), RefCell::new(vec![0.0; values]));
        let apply = |out: &RefCell<Vec<f32>>, f: fn(f32) -> f32| {
            for (y, &v) in out.borrow_mut().iter_mut().zip(x.data()) {
                *y = f(v);
            }
        };
        let secs = bench(
            rounds,
            TANH_VALUES / values,
            [&|| apply(&libm, f32::tanh), &|| apply(&exact, tanh)],
        );
        let [libm_ns, exact_ns] = secs.map(|sec| sec / values as f64 * 1e9);
        let identical = libm
            .borrow()
            .iter()
            .zip(exact.borrow().iter())
            .all(|(a, b)| a.to_bits() == b.to_bits());
        if !identical {
            eprintln!(
                "matmul gate FAILED: tanh over {rows}x{cols}: the port's bits differ from libm's"
            );
            all_identical = false;
        }
        println!("  tanh {rows:>5}x{cols:<5} libm {libm_ns:>6.2}  exact {exact_ns:>6.2} ns/value");
        tanh_out.push(obj(vec![
            ("rows", Value::U64(rows as u64)),
            ("cols", Value::U64(cols as u64)),
            ("tanh_libm_ns", Value::from(libm_ns)),
            ("tanh_exact_ns", Value::from(exact_ns)),
            ("exact_vs_libm", Value::from(libm_ns / exact_ns)),
            ("bitwise_identical", Value::Bool(identical)),
        ]));
    }

    let doc = obj(vec![
        ("bench", Value::from("matmul")),
        ("seed", Value::U64(cli.seed)),
        ("host_cores", Value::U64(host_cores as u64)),
        ("dispatch_workers", Value::U64(dispatch_workers as u64)),
        ("par_matmul_threshold_madds_per_worker", Value::U64(PAR_MATMUL_THRESHOLD as u64)),
        ("stream_matmul_rows", Value::U64(STREAM_MATMUL_ROWS as u64)),
        ("target_features", Value::Array(target_features().into_iter().map(Value::from).collect())),
        ("shapes", Value::Array(shapes_out)),
        ("tanh", Value::Array(tanh_out)),
    ]);
    (serde_json::to_string(&doc).expect("serialize"), all_identical)
}

/// GraphGen sizes `graph_scale` stresses: one to two orders of magnitude
/// beyond the hand-built benchmarks.
const TARGETS: [usize; 3] = [10_000, 50_000, 100_000];

/// Timed rounds per `graph_scale` stage; the fastest is reported.
const STAGE_ROUNDS: usize = 3;

/// The `graph_scale` table (`BENCH_graph_scale.json`): generation,
/// validation, feature extraction and simulation wall-clock on GraphGen
/// graphs of [`TARGETS`] ops. Each size samples one deterministic training
/// graph (seed `--seed ^ target`) untimed, then times the four stages as
/// [`bench`] columns over [`STAGE_ROUNDS`] rounds, simulating a round-robin
/// placement over the paper machine's devices.
///
/// Its gate: every graph is valid and every simulation completes with a
/// finite makespan, not OOM — a 100k-op simulate that spins or OOMs the host
/// fails here first.
pub fn graph_scale(cli: &Cli) -> (String, bool) {
    let machine = Machine::paper_machine();
    let nd = machine.num_devices();
    let mut rows = Vec::new();
    let mut gate = true;

    println!(
        "| {:>8} | {:>8} | {:>9} | {:>10} | {:>10} | {:>10} | {:>9} |",
        "target", "ops", "edges", "gen (s)", "feat (s)", "sim (s)", "outcome"
    );
    for target in TARGETS {
        let cfg = GraphGenConfig {
            target_ops: target,
            // Low fixed pressure: the point is structural scale, and the graph
            // must stay schedulable on the paper machine's 16 GiB GPUs.
            memory_pressure: (0.05, 0.1),
            batch: (2, 8),
            ..GraphGenConfig::default()
        };
        let gen = GraphGen::new(cfg).expect("bench generator config is valid");
        let seed = cli.seed ^ target as u64;
        let graph = gen.sample(seed);
        let placement =
            Placement::new((0..graph.len()).map(|i| DeviceId((i % nd) as u8)).collect());
        let valid = GraphGen::validate(&graph).is_ok();
        let makespan = eagle_devsim::simulate(&graph, &machine, &placement).step_time();
        let [gen_sec, validate_sec, features_sec, sim_sec] = bench(
            STAGE_ROUNDS,
            1,
            [
                &|| keep(gen.sample(seed)),
                &|| keep(GraphGen::validate(&graph)),
                &|| keep(node_features(&graph)),
                &|| keep(eagle_devsim::simulate(&graph, &machine, &placement)),
            ],
        );
        let outcome_label = if makespan.is_some() { "valid" } else { "oom" };
        if !valid || !makespan.is_some_and(|t| t.is_finite() && t > 0.0) {
            eprintln!("graph_scale gate FAILED at {target} ops: invalid graph, OOM or degenerate makespan");
            gate = false;
        }

        let (n, edges) = (graph.len(), graph.num_edges());
        println!(
            "| {target:>8} | {n:>8} | {edges:>9} | {gen_sec:>10.4} | {features_sec:>10.4} | {sim_sec:>10.4} | {outcome_label:>9} |"
        );
        rows.push(obj(vec![
            ("target_ops", Value::from(target as u64)),
            ("ops", Value::from(n as u64)),
            ("edges", Value::from(edges as u64)),
            ("total_flops", Value::from(graph.total_flops())),
            ("generate_sec", Value::from(gen_sec)),
            ("validate_sec", Value::from(validate_sec)),
            ("node_features_sec", Value::from(features_sec)),
            ("simulate_sec", Value::from(sim_sec)),
            ("simulate_ops_per_sec", Value::from(n as f64 / sim_sec.max(1e-12))),
            ("features_ops_per_sec", Value::from(n as f64 / features_sec.max(1e-12))),
            ("outcome", Value::from(outcome_label)),
            ("makespan_sec", makespan.map_or(Value::Null, Value::from)),
        ]));
    }

    let doc = obj(vec![
        ("bench", Value::from("graph_scale")),
        ("seed", Value::from(cli.seed)),
        ("iters", Value::from(STAGE_ROUNDS as u64)),
        ("devices", Value::from(nd as u64)),
        (
            "note",
            Value::from(
                "best-of-iters wall-clock per stage on seeded GraphGen training graphs; \
                 absolute times are machine-dependent, the committed artifact documents \
                 scaling shape (ops/sec per stage), not a gate",
            ),
        ),
        ("rows", Value::Array(rows)),
    ]);
    (serde_json::to_string(&doc).expect("serialize"), gate)
}
