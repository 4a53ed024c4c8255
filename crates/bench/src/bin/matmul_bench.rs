//! Matmul kernel microbenchmark: the two loops behind `Tensor::matmul`
//! (row-streaming below `STREAM_MATMUL_ROWS` rows, cache-blocked packed-B
//! from there up) and the gradient products `gy . wᵀ` (`matmul_nt`) and
//! `slot += xᵀ . gy` (`matmul_tn_acc`), over squares and the shapes the
//! training workloads run.
//!
//! Emits `BENCH_matmul.json`. `serial_sec` is the forward on one worker
//! through the loop the shape picks, `packed_sec` the packed loop at any row
//! count (`matmul_tn` of the transposed `x`): `STREAM_MATMUL_ROWS` is read
//! off the two. `dispatch_sec` runs `PAR_MATMUL_THRESHOLD`'s rule at
//! `--workers N` or the host's count, `split2_sec` the rows halved over two
//! threads whatever the rule says. Each layout's bits are asserted equal to
//! its definition on explicitly transposed operands (the forward's to the
//! packed loop's) before it is timed: the binary exits non-zero if not.

use eagle_bench::Cli;
use eagle_tensor::{Tensor, PAR_MATMUL_THRESHOLD, STREAM_MATMUL_ROWS};
use serde_json::Value;

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

/// Total multiply-adds to spend per timed column, so small shapes get many
/// repetitions and large ones few, at roughly constant wall-clock per cell.
const TARGET_MADDS: usize = 1 << 25;

/// Timed rounds per column; the fastest is reported.
const ROUNDS: usize = 7;

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

/// Seconds per call of each column: the fastest of [`ROUNDS`] rounds of
/// `iters` calls (after one warm-up call), the columns taking turns within a
/// round so a neighbour's burst on a shared host falls on all of them and
/// costs a round, not one column's figure.
fn bench<const N: usize>(iters: usize, columns: [&dyn Fn(); N]) -> [f64; N] {
    let mut best = [f64::INFINITY; N];
    for f in columns {
        f();
    }
    for _ in 0..ROUNDS {
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

fn bitwise_eq(x: &Tensor, y: &Tensor) -> bool {
    x.shape() == y.shape() && x.data().iter().zip(y.data()).all(|(a, b)| a.to_bits() == b.to_bits())
}

/// `a . b` with the rows of `a` halved over two scoped threads, each running
/// the serial product (and reading all of `b`) on its half; a single row is
/// not split.
fn split2(a: &Tensor, b: &Tensor) -> Tensor {
    if a.rows() < 2 {
        return a.matmul(b);
    }
    let top = a.rows().div_ceil(2);
    let (lo, hi) = (a.slice_rows(0, top), a.slice_rows(top, a.rows() - top));
    let (x, y) = std::thread::scope(|s| {
        let h = s.spawn(|| hi.matmul(b));
        (lo.matmul(b), h.join().expect("matmul worker panicked"))
    });
    Tensor::concat_rows(&[&x, &y])
}

fn obj(entries: Vec<(&str, Value)>) -> Value {
    Value::Object(entries.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

fn main() {
    let cli = Cli::parse();
    let dispatch_workers = cli.workers.unwrap_or_else(eagle_obs::available_workers).max(1);
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    println!(
        "matmul kernels: streaming below {STREAM_MATMUL_ROWS} rows vs cache-blocked packed-B, dispatch at {dispatch_workers} worker(s) on {host_cores} core(s), threshold {PAR_MATMUL_THRESHOLD} madds per worker"
    );

    let short = SHORT_WIDTHS.iter().flat_map(|&(k, n)| SHORT_ROWS.map(|m| (m, k, n)));
    let mut shapes_out: Vec<Value> = Vec::new();
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
            let mut acc = held.clone();
            x.matmul_tn_acc(&gy, &mut acc);
            identical[0] &= bitwise_eq(&x.matmul(&w), &xt.matmul_tn(&w));
            identical[1] &= bitwise_eq(&gy.matmul_nt(&w), &gy.matmul(&wt));
            identical[2] &=
                bitwise_eq(&x.matmul_tn(&gy), &xt.matmul(&gy)) && bitwise_eq(&acc, &held_plus_tn);
        }
        assert!(identical.iter().all(|&ok| ok), "{m}x{k}@{k}x{n}: kernels disagree {identical:?}");

        // Every column on one worker except `dispatch`, which runs the rule
        // at the configured count. The gradient products are timed as a VJP
        // issues them — `gy . wᵀ` into a fresh tensor, `xᵀ . gy` added into
        // the weight's gradient slot — against the transpose-then-multiply
        // (and, for the slot, temporary-then-add) they replace.
        eagle_obs::set_available_workers(1);
        let keep = |t: Tensor| drop(std::hint::black_box(t));
        let slot = std::cell::RefCell::new(held);
        let [serial_sec, packed_sec, dispatch_sec, split2_sec, nt_sec, nt_transposing_sec, tn_acc_sec, tn_transposing_sec] =
            bench(
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
                    &|| x.matmul_tn_acc(&gy, &mut slot.borrow_mut()),
                    &|| slot.borrow_mut().add_assign(&x.transpose().matmul(&gy)),
                ],
            );
        let split2_sec = (m >= 2).then_some(split2_sec);

        let gflops = |sec: f64| 2.0 * madds as f64 / sec / 1e9;
        println!(
            "  {m:>5}x{k:<5}@{k:>5}x{n:<5} serial {:>6.2}  packed {:>6.2}  dispatch {:>6.2}  split2 {:>6.2}  nt {:>6.2} (transposing {:>6.2})  tn_acc {:>6.2} (transposing {:>6.2}) GF/s",
            gflops(serial_sec),
            gflops(packed_sec),
            gflops(dispatch_sec),
            split2_sec.map_or(f64::NAN, gflops),
            gflops(nt_sec),
            gflops(nt_transposing_sec),
            gflops(tn_acc_sec),
            gflops(tn_transposing_sec),
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
            ("tn_acc_sec", Value::from(tn_acc_sec)),
            ("tn_transposing_sec", Value::from(tn_transposing_sec)),
            ("gflops_serial", Value::from(gflops(serial_sec))),
            ("serial_vs_packed", Value::from(packed_sec / serial_sec)),
            ("dispatch_vs_serial", Value::from(serial_sec / dispatch_sec)),
            ("split2_vs_serial", split2_sec.map_or(Value::Null, |s| Value::from(serial_sec / s))),
            ("bitwise_identical", Value::Bool(identical[0])),
            ("nt_bitwise_identical", Value::Bool(identical[1])),
            ("tn_bitwise_identical", Value::Bool(identical[2])),
        ]));
    }

    let doc = obj(vec![
        ("bench", Value::from("matmul")),
        ("seed", Value::U64(cli.seed)),
        ("host_cores", Value::U64(host_cores as u64)),
        ("dispatch_workers", Value::U64(dispatch_workers as u64)),
        ("par_matmul_threshold_madds_per_worker", Value::U64(PAR_MATMUL_THRESHOLD as u64)),
        ("stream_matmul_rows", Value::U64(STREAM_MATMUL_ROWS as u64)),
        ("shapes", Value::Array(shapes_out)),
    ]);
    cli.write_artifact("BENCH_matmul.json", &serde_json::to_string(&doc).expect("serialize"));
    cli.finish_metrics("matmul");
}
