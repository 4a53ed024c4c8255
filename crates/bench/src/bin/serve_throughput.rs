//! Load generator for a running `eagle-serve` daemon: requests/sec and p50/p99
//! latency under synthetic closed-loop client load over real TCP.
//!
//! ```text
//! serve_throughput --addr HOST:PORT [--requests N] [--concurrency 1,4,16,32]
//!                  [--family inception_v3] [--candidates K] [--p99-budget-ms MS]
//! ```
//!
//! The CI serve-smoke job starts the real `eagle-serve` binary and points this
//! at it — the one check that crosses the process boundary. It registers the
//! family's graph, replays one request to prove the reply is deterministic,
//! then climbs the concurrency ladder. Hard asserts: zero error replies on
//! every phase, and the worst p99 within `--p99-budget-ms` when given.
//!
//! What needs the server's recorder or its store — wave coalescing, hot
//! reload, overload shedding — is asserted in `tests/serve_e2e.rs`; rates that
//! are compared commit over commit come from the `serve_mix` workload of
//! `BENCHMARK.json`. Latency here is measured client-side around each round
//! trip and is machine-dependent, hence the generous budget in CI.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use eagle_devsim::{Benchmark, Machine};
use eagle_serve::{api::PlaceRequest, Client};

const USAGE: &str = "usage: serve_throughput --addr HOST:PORT [--requests N] \
    [--concurrency 1,4,16,32] [--family inception_v3] [--candidates K] [--p99-budget-ms MS]";

fn usage_exit(problem: &str) -> ! {
    eprintln!("{problem}; {USAGE}");
    std::process::exit(2);
}

struct Args {
    addr: SocketAddr,
    requests: u64,
    concurrency: Vec<usize>,
    family: String,
    candidates: u32,
    p99_budget_ms: Option<f64>,
}

fn parse_args() -> Args {
    fn parse<T: std::str::FromStr>(flag: &str, value: &str) -> T {
        value.parse().unwrap_or_else(|_| usage_exit(&format!("{flag}: cannot read '{value}'")))
    }
    let mut addr = None;
    let mut requests = 1500u64;
    let mut concurrency: Vec<usize> = vec![1, 4, 16, 32];
    let mut family = "inception_v3".to_string();
    let mut candidates = 1u32;
    let mut p99_budget_ms = None;
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let value = argv.next().unwrap_or_else(|| usage_exit(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--addr" => addr = Some(parse(&flag, &value)),
            "--requests" => requests = parse(&flag, &value),
            "--concurrency" => {
                concurrency = value.split(',').map(|s| parse(&flag, s.trim())).collect()
            }
            "--family" => family = value,
            "--candidates" => candidates = parse(&flag, &value),
            "--p99-budget-ms" => p99_budget_ms = Some(parse(&flag, &value)),
            _ => usage_exit(&format!("unknown flag {flag}")),
        }
    }
    if requests == 0 || concurrency.contains(&0) {
        usage_exit("--requests and every --concurrency level must be at least 1");
    }
    let addr = addr.unwrap_or_else(|| usage_exit("--addr is required"));
    Args { addr, requests, concurrency, family, candidates, p99_budget_ms }
}

/// One closed-loop load phase: `concurrency` client connections issue
/// `requests` total placements by registered key.
struct Phase {
    concurrency: usize,
    errors: u64,
    rps: f64,
    p50_ms: f64,
    p99_ms: f64,
}

fn run_phase(args: &Args, graph_key: &str, concurrency: usize, seq: &AtomicU64) -> Phase {
    let issued = AtomicU64::new(0);
    let start = Instant::now();
    let results: Vec<(Vec<f64>, u64)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..concurrency)
            .map(|_| {
                let issued = &issued;
                s.spawn(move || {
                    let mut client = Client::connect(args.addr).expect("connect");
                    let mut latencies = Vec::new();
                    let mut errors = 0u64;
                    while issued.fetch_add(1, Ordering::SeqCst) < args.requests {
                        let id = seq.fetch_add(1, Ordering::SeqCst);
                        let mut req = PlaceRequest::by_key(id, &args.family, graph_key);
                        req.candidates = args.candidates;
                        let t0 = Instant::now();
                        let resp = client.place(req).expect("round-trip");
                        latencies.push(t0.elapsed().as_secs_f64() * 1e3);
                        errors += u64::from(resp.error.is_some());
                    }
                    (latencies, errors)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });
    let elapsed_s = start.elapsed().as_secs_f64();

    let errors = results.iter().map(|(_, e)| e).sum();
    let mut latencies: Vec<f64> = results.into_iter().flat_map(|(l, _)| l).collect();
    latencies.sort_by(f64::total_cmp);
    let pct = |p: f64| latencies[((latencies.len() - 1) as f64 * p) as usize];
    Phase {
        concurrency,
        errors,
        rps: latencies.len() as f64 / elapsed_s,
        p50_ms: pct(0.50),
        p99_ms: pct(0.99),
    }
}

fn main() {
    let args = parse_args();

    // Register the graph once; requests then reference it by key.
    let machine = Machine::paper_machine();
    let bench = Benchmark::ALL
        .iter()
        .copied()
        .find(|b| b.name() == args.family)
        .unwrap_or_else(|| usage_exit("--family must name a paper benchmark"));
    let graph = bench.graph_for(&machine);
    let mut client = Client::connect(args.addr).expect("connect");
    let graph_key = client.register_graph(&graph).expect("register graph");
    println!(
        "{}: {} ops, graph_key {graph_key}, serving at {}",
        args.family,
        graph.len(),
        args.addr
    );

    // Determinism: identical request twice => identical placement.
    let mut req = PlaceRequest::by_key(1_000_000, &args.family, &graph_key);
    req.seed = 42;
    req.candidates = args.candidates;
    let a = client.place(req.clone()).expect("place");
    let b = client.place(req).expect("place");
    assert!(a.error.is_none() && b.error.is_none(), "determinism probe failed: {a:?}");
    assert_eq!(a.placement, b.placement, "replayed request must yield the identical placement");
    assert_eq!(a.predicted_step_time, b.predicted_step_time);
    println!(
        "determinism probe ok: {} ops placed, predicted step time {:.6} s",
        a.placement.as_ref().expect("success has a placement").len(),
        a.predicted_step_time.expect("success has a step time")
    );

    // Concurrency ladder.
    let seq = AtomicU64::new(0);
    let mut phases: Vec<Phase> = Vec::new();
    for &c in &args.concurrency {
        let phase = run_phase(&args, &graph_key, c, &seq);
        println!(
            "concurrency {:>3}: {:>7.0} req/s  p50 {:>7.3} ms  p99 {:>7.3} ms  errors {}",
            phase.concurrency, phase.rps, phase.p50_ms, phase.p99_ms, phase.errors
        );
        assert_eq!(phase.errors, 0, "zero error replies expected under clean load");
        phases.push(phase);
    }

    let worst_p99 = phases.iter().map(|p| p.p99_ms).fold(0.0, f64::max);
    if let Some(budget) = args.p99_budget_ms {
        assert!(worst_p99 <= budget, "p99 {worst_p99:.3} ms exceeds budget {budget} ms");
        println!("p99 budget ok: {worst_p99:.3} ms <= {budget} ms");
    }
    println!(
        "summary: best {:.0} req/s, worst p99 {worst_p99:.3} ms",
        phases.iter().map(|p| p.rps).fold(0.0, f64::max)
    );
}
