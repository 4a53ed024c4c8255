//! `sim_miss` and `sim_hit`: `devsim` alone, the same layer used two ways.
//!
//! `sim_miss` streams distinct placements, so every evaluation runs the engine:
//! the rate phase on BERT-Base (~10k ops), the latency phase on a 50k-op
//! GraphGen graph where one batch is slow enough to wait for. `sim_hit` draws
//! from a pool of 64 placements, so every evaluation is a cache lookup. An
//! engine gain paid for with a dearer cache key shows as `sim_hit` falling.
//! `tensor`, `nn` and `rl` do nothing here.

use std::time::Instant;

use eagle_devsim::search::topo_chunks;
use eagle_devsim::{
    simulate, simulate_recorded, Benchmark, DeviceId, Environment, Machine, MeasureConfig,
    Placement,
};
use eagle_obs::Recorder;
use eagle_opgraph::features::node_features;
use eagle_opgraph::{GraphGen, GraphGenConfig, OpGraph};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::harness::{
    derive_seed, median, peak_rss_mb, quantile_by_slice, workers, Outcome, RateSlices, Size,
    Slices, Tracer,
};

/// Placements per `evaluate_batch` call: the trainer's minibatch.
const BATCH: usize = 10;
/// Groups per placement (`topo_chunks`), the quick-scale group count.
const GROUPS: usize = 32;
/// The large graph is an input like BERT is: fixed, so that `--seed` varies
/// the placement stream and not the graph the rates are stated on.
const LARGE_GRAPH_SEED: u64 = 7 ^ 50_000;
/// Distinct placements in the `sim_hit` pool.
const POOL: usize = 64;
/// Slices a timed phase's rate is taken over: a quarter to half a second each,
/// shorter than the host's slow stretches.
const RATE_SLICES: usize = 40;
/// Batches in a latency slice on the large graph (25 ms a batch: half a second).
const LARGE_SLICE: usize = 20;

/// A seeded stream of group placements over one graph.
struct PlacementStream {
    group_of: Vec<usize>,
    gpus: Vec<DeviceId>,
    rng: ChaCha8Rng,
}

impl PlacementStream {
    fn new(graph: &OpGraph, machine: &Machine, seed: u64) -> Self {
        Self {
            group_of: topo_chunks(graph, GROUPS),
            gpus: machine.gpu_ids(),
            rng: ChaCha8Rng::seed_from_u64(seed),
        }
    }

    /// A random GPU per group.
    fn next(&mut self) -> Placement {
        let devices: Vec<DeviceId> =
            (0..GROUPS).map(|_| self.gpus[self.rng.gen_range(0..self.gpus.len())]).collect();
        Placement::from_groups(&self.group_of, &devices)
    }

    fn batch(&mut self) -> Vec<Placement> {
        (0..BATCH).map(|_| self.next()).collect()
    }
}

fn large_graph(size: Size) -> OpGraph {
    let cfg = GraphGenConfig {
        target_ops: size.pick(50_000, 5_000),
        // As the `graph_scale` bench: structural scale, schedulable on 16 GiB GPUs.
        memory_pressure: (0.05, 0.1),
        batch: (2, 8),
        ..GraphGenConfig::default()
    };
    GraphGen::new(cfg).expect("large-graph config is valid").sample(LARGE_GRAPH_SEED)
}

/// An environment as the trainer builds one: the library's defaults (cache
/// capacity included) but for the measurement protocol and the seed.
fn env(graph: &OpGraph, machine: &Machine, measure: MeasureConfig, seed: u64) -> Environment {
    Environment::builder(graph.clone(), machine.clone())
        .measure(measure)
        .seed(seed)
        .build()
        .expect("benchmark graphs build an environment")
}

/// Order-independent checksum and exactness checks over a placement stream.
#[derive(Default)]
struct Checked {
    /// Wrapping sum of the step-time bit patterns of the first `limit` evaluations.
    checksum: u64,
    summed: usize,
    step_times: Vec<f64>,
    evals: u64,
    invalid: u64,
}

impl Checked {
    fn take(&mut self, step_times: impl Iterator<Item = Option<f64>>, limit: usize) {
        for t in step_times {
            self.evals += 1;
            if t.is_none() {
                self.invalid += 1;
            }
            if self.summed < limit {
                self.summed += 1;
                self.checksum = self.checksum.wrapping_add(t.map_or(1, f64::to_bits));
                if let Some(t) = t {
                    self.step_times.push(t);
                }
            }
        }
    }
}

/// Under `MeasureConfig::exact()` an evaluation must equal `simulate` bit for bit.
fn check_exact(out: &mut Outcome, exact: &mut Environment, p: &Placement, what: &str) {
    let measured = exact.evaluate(p).step_time.map(f64::to_bits);
    let direct = simulate(exact.graph(), exact.machine(), p).step_time().map(f64::to_bits);
    out.check(measured == direct, || {
        format!("{what}: exact evaluate {measured:?} != simulate {direct:?}")
    });
}

/// The distinct-placement stream over one graph: evaluates batches until
/// `seconds` have passed and at least `min_evals` evaluations are done.
/// Returns per-slice rates and per-batch latencies; the generator's own time
/// (building placements) is outside the busy time.
fn miss_phase(
    out: &mut Outcome,
    graph: &OpGraph,
    machine: &Machine,
    seed: u64,
    seconds: f64,
    min_evals: usize,
    what: &str,
) -> (RateSlices, Vec<f64>, Checked) {
    let workers = workers();
    let mut stream = PlacementStream::new(graph, machine, derive_seed(seed, 1));
    let mut timed = env(graph, machine, MeasureConfig::default(), derive_seed(seed, 2));
    let mut exact = env(graph, machine, MeasureConfig::exact(), derive_seed(seed, 3));
    let before = timed.snapshot();
    let start = Instant::now();
    let mut rate = RateSlices::new(start, seconds, RATE_SLICES);
    let mut latencies_ms = Vec::new();
    let mut checked = Checked::default();
    let mut batches = 0usize;
    while start.elapsed().as_secs_f64() < seconds || (checked.evals as usize) < min_evals {
        let batch = stream.batch();
        let t0 = Instant::now();
        let ms = timed.evaluate_batch(&batch, workers);
        let t1 = Instant::now();
        let busy = t1.duration_since(t0).as_secs_f64();
        rate.add(t1, BATCH as f64, busy);
        latencies_ms.push(busy * 1e3);
        checked.take(ms.iter().map(|m| m.step_time), min_evals);
        // A 1 % sample through the exact protocol, outside the busy time.
        if batches.is_multiple_of(10) {
            check_exact(out, &mut exact, &batch[0], what);
        }
        batches += 1;
    }
    out.attempted += checked.evals;
    let snap = timed.snapshot().since(&before);
    out.check(snap.cache.hits == 0 || snap.cache.hit_rate() < 0.01, || {
        format!("{what}: distinct stream hit the cache ({:?})", snap.cache)
    });
    out.note(format!(
        "{what}: {} evals in {batches} batches, {} OOM, cache {:?}, checksum(first {}) {:016x}",
        checked.evals, checked.invalid, snap.cache, checked.summed, checked.checksum
    ));
    (rate, latencies_ms, checked)
}

struct MissWorld {
    machine: Machine,
    bert: OpGraph,
    large: OpGraph,
}

fn miss_setup(size: Size) -> MissWorld {
    let machine = Machine::paper_machine();
    let bert = Benchmark::BertBase.graph_for(&machine);
    let large = large_graph(size);
    // What a user pays before the first evaluation: grouping and an environment.
    for g in [&bert, &large] {
        std::hint::black_box(topo_chunks(g, GROUPS));
        std::hint::black_box(env(g, &machine, MeasureConfig::default(), 0));
    }
    MissWorld { machine, bert, large }
}

/// Runs `setup` `n` times, each after the previous world is dropped; returns
/// the last world and the set-up time of the quiet repeats.
fn timed_setups<T>(n: usize, mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(n);
    let mut last = None;
    for _ in 0..n {
        drop(last.take());
        let t0 = Instant::now();
        last = Some(setup());
        times.push(t0.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), Slices { values: times }.quiet_low())
}

pub fn run_miss(seed: u64, size: Size) -> Outcome {
    let mut out = Outcome::default();
    let (world, setup_s) = timed_setups(size.pick(31, 1), || miss_setup(size));
    let half = size.seconds / 2.0;

    let (rate, _, small) = miss_phase(
        &mut out,
        &world.bert,
        &world.machine,
        seed,
        half,
        size.pick(2_000, 100),
        "bert",
    );
    // Read here, where memory is in its steady state: the BERT cache filled
    // (4096 placements) in the first half second. The large graph's never
    // fills within a run (100 KB an entry), so a peak read after it would
    // grow with however many evaluations the clock allowed.
    out.set("peak_rss_mb", peak_rss_mb());
    let (large_rate, large_ms, _) = miss_phase(
        &mut out,
        &world.large,
        &world.machine,
        derive_seed(seed, 10),
        half,
        size.pick(100, 20),
        "large",
    );

    let rates = rate.per_busy_second();
    let p50 = quantile_by_slice(&large_ms, LARGE_SLICE, 0.5);
    out.note(rates.describe("bert distinct evals/s"));
    out.note(large_rate.per_busy_second().describe("large distinct evals/s"));
    out.note(format!("large batch latency: n={} batches of {BATCH}", large_ms.len()));
    out.note(p50.describe("large batch p50 ms"));
    out.set("setup_s", setup_s);
    out.set("ops_per_s", rates.quiet_high());
    out.set("op_p50_ms", p50.quiet_low());
    out.set("step_time_s", median(&small.step_times));
    out
}

struct HitWorld {
    machine: Machine,
    bert: OpGraph,
    pool: Vec<Placement>,
    /// Pre-built batches drawn from the pool, so the timed loop clones nothing;
    /// each with the pool indices it was drawn from.
    batches: Vec<(Vec<usize>, Vec<Placement>)>,
    timed: Environment,
}

fn hit_setup(seed: u64, recorder: Recorder) -> HitWorld {
    let workers = workers();
    let machine = Machine::paper_machine();
    let bert = Benchmark::BertBase.graph_for(&machine);
    let mut stream = PlacementStream::new(&bert, &machine, derive_seed(seed, 1));
    let pool: Vec<Placement> = (0..POOL).map(|_| stream.next()).collect();
    let mut rng = ChaCha8Rng::seed_from_u64(derive_seed(seed, 4));
    let batches = (0..256)
        .map(|_| {
            let drawn: Vec<usize> = (0..BATCH).map(|_| rng.gen_range(0..POOL)).collect();
            let placements = drawn.iter().map(|&i| pool[i].clone()).collect();
            (drawn, placements)
        })
        .collect();
    let mut timed = Environment::builder(bert.clone(), machine.clone())
        .measure(MeasureConfig::default())
        .seed(derive_seed(seed, 2))
        .recorder(recorder)
        .build()
        .expect("bert builds an environment");
    // Fill the cache: the pool's 64 misses belong to set-up.
    timed.evaluate_batch(&pool, workers);
    HitWorld { machine, bert, pool, batches, timed }
}

pub fn run_hit(seed: u64, size: Size) -> Outcome {
    let mut out = Outcome::default();
    let workers = workers();
    let (mut world, setup_s) =
        timed_setups(size.pick(31, 1), || hit_setup(seed, Recorder::disabled()));
    let valid: Vec<bool> = world
        .pool
        .iter()
        .map(|p| simulate(&world.bert, &world.machine, p).step_time().is_some())
        .collect();
    let mut exact = env(&world.bert, &world.machine, MeasureConfig::exact(), derive_seed(seed, 3));
    for p in &world.pool {
        exact.evaluate(p);
    }
    for p in &world.pool {
        check_exact(&mut out, &mut exact, p, "cached");
    }

    let mut order = ChaCha8Rng::seed_from_u64(derive_seed(seed, 5));
    let before = world.timed.snapshot();
    let start = Instant::now();
    let mut rate = RateSlices::new(start, size.seconds, RATE_SLICES);
    let mut latencies_ms = Vec::new();
    let mut batches = 0u64;
    let mut checked = Checked::default();
    let prefix = size.pick(100_000, 1_000);
    while start.elapsed().as_secs_f64() < size.seconds || (checked.evals as usize) < prefix {
        let (drawn, batch) = &world.batches[order.gen_range(0..world.batches.len())];
        let t0 = Instant::now();
        let ms = world.timed.evaluate_batch(batch, workers);
        let t1 = Instant::now();
        let busy = t1.duration_since(t0).as_secs_f64();
        rate.add(t1, BATCH as f64, busy);
        // Every eighth batch: a million latencies would make the benchmark's
        // own vector a fifth of the resident set, growing with the rate.
        if batches.is_multiple_of(8) {
            latencies_ms.push(busy * 1e3);
        }
        batches += 1;
        // A cached OOM must stay an OOM and a cached time a time (a 1 % sample).
        if checked.evals.is_multiple_of(1_000) {
            let same = ms.iter().zip(drawn).all(|(m, &i)| m.step_time.is_some() == valid[i]);
            out.check(same, || "cached validity flipped".into());
        }
        checked.take(ms.iter().map(|m| m.step_time), prefix);
    }
    out.attempted += checked.evals;
    let snap = world.timed.snapshot().since(&before);
    out.check(snap.cache.hit_rate() >= 0.999, || {
        format!("pool stream missed the cache ({:?})", snap.cache)
    });
    let rates = rate.per_busy_second();
    out.note(rates.describe("cached evals/s"));
    out.note(format!(
        "hit: {} evals, pool {POOL} ({} valid), cache {:?}, checksum(first {}) {:016x}",
        checked.evals,
        valid.iter().filter(|v| **v).count(),
        snap.cache,
        checked.summed,
        checked.checksum
    ));
    let p50 = quantile_by_slice(&latencies_ms, latencies_ms.len() / RATE_SLICES, 0.5);
    out.note(p50.describe("cached batch p50 ms"));
    out.set("setup_s", setup_s);
    out.set("ops_per_s", rates.quiet_high());
    out.set("op_p50_ms", p50.quiet_low());
    out.set("step_time_s", median(&checked.step_times));
    out.set("peak_rss_mb", peak_rss_mb());
    out
}

/// The opgraph side of set-up on its own: the uncalibrated builder, then
/// feature extraction.
pub fn trace_opgraph(tr: &mut Tracer, bench: Benchmark) {
    let raw = tr.span("opgraph.build", 0, |_| bench.raw_graph());
    tr.span("opgraph.features", 0, |_| std::hint::black_box(node_features(&raw)));
}

/// Chunk pairs in the traced-against-untraced comparison: enough that the
/// median pair stands whatever happens to a few of them.
const CHUNK_PAIRS: f64 = 50.0;

/// The batched path traced per call, held against the same loop untraced in
/// alternating chunks, so that a noisy second lands on both sides. `batch`
/// hands out the next input, `eval` is the call under test. Records each
/// chunk pair's traced / untraced time per evaluation in `out` and returns the
/// overall `(untraced, traced)` evaluations per second.
fn traced_against_untraced<B>(
    tr: &mut Tracer,
    out: &mut Outcome,
    seconds: f64,
    mut batch: impl FnMut() -> B,
    mut eval: impl FnMut(&B) -> usize,
) -> (f64, f64) {
    let chunk_s = seconds / (2.0 * CHUNK_PAIRS);
    let (mut plain, mut traced) = ((0usize, 0.0f64), (0usize, 0.0f64));
    let start = Instant::now();
    let mut op = 0u64;
    while start.elapsed().as_secs_f64() < seconds {
        let (plain_evals, plain_s) = tr.reference(|| {
            let t0 = Instant::now();
            let mut evals = 0;
            while t0.elapsed().as_secs_f64() < chunk_s {
                evals += eval(&batch());
            }
            evals
        });
        let t0 = Instant::now();
        let mut traced_evals = 0;
        while t0.elapsed().as_secs_f64() < chunk_s {
            let b = tr.span("perf.generate", op, |_| batch());
            traced_evals += tr.span("devsim.evaluate_batch", op, |_| eval(&b));
            op += 1;
        }
        let traced_s = t0.elapsed().as_secs_f64();
        out.trace_pairs.push((traced_s / traced_evals as f64) / (plain_s / plain_evals as f64));
        plain = (plain.0 + plain_evals, plain.1 + plain_s);
        traced = (traced.0 + traced_evals, traced.1 + traced_s);
    }
    (plain.0 as f64 / plain.1, traced.0 as f64 / traced.1)
}

pub fn trace_miss(seed: u64, size: Size, tr: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let workers = workers();
    trace_opgraph(tr, Benchmark::BertBase);
    tr.span("opgraph.build", 1, |_| std::hint::black_box(large_graph(size)));
    let world = tr.span("devsim.setup", 0, |_| miss_setup(size));
    let rec = Recorder::new();

    // Per-call engine time and exact event counts, small and large.
    let mut events = [0u64; 2];
    let plans = [
        ("devsim.simulate_small", &world.bert, size.pick(2_000u64, 100)),
        ("devsim.simulate_large", &world.large, size.pick(100, 10)),
    ];
    let (mut oom, mut sims) = (0u64, 0u64);
    for (i, (name, graph, n)) in plans.into_iter().enumerate() {
        let mut stream = PlacementStream::new(graph, &world.machine, derive_seed(seed, 1));
        let before = rec.counter_value("devsim.engine.events");
        for op in 0..n {
            let p = tr.span("perf.generate", op, |_| stream.next());
            let outcome = tr.span(name, op, |_| simulate_recorded(graph, &world.machine, &p, &rec));
            oom += u64::from(outcome.step_time().is_none());
        }
        events[i] = rec.counter_value("devsim.engine.events") - before;
        sims += n;
    }
    out.attempted += sims;

    let mut stream = PlacementStream::new(&world.bert, &world.machine, derive_seed(seed, 6));
    let mut timed = env(&world.bert, &world.machine, MeasureConfig::default(), seed);
    let (plain, traced) = traced_against_untraced(
        tr,
        &mut out,
        size.seconds / 2.0,
        || stream.batch(),
        |b| timed.evaluate_batch(b, workers).len(),
    );
    let snap = timed.snapshot();
    out.attempted += snap.evals;

    let small = tr.durations("devsim.simulate_small");
    let large = tr.durations("devsim.simulate_large");
    let sim_s = small.iter().chain(&large).sum::<f64>();
    out.set("devsim.simulate_small_us", median(&small) * 1e6);
    out.set("devsim.simulate_large_us", median(&large) * 1e6);
    out.set("devsim.evaluate_batch_s", median(&tr.durations("devsim.evaluate_batch")));
    out.set("devsim.events_per_s", (events[0] + events[1]) as f64 / sim_s);
    out.set("devsim.events_per_eval", events[0] as f64 / small.len() as f64);
    out.set("devsim.cache_hit_rate", snap.cache.hit_rate());
    out.set("devsim.oom_share", oom as f64 / sims as f64);
    out.note(format!(
        "engine events: bert {} over {} sims, large {} over {} sims; batched {plain:.0} evals/s untraced, {traced:.0} traced",
        events[0],
        small.len(),
        events[1],
        large.len()
    ));
    out
}

pub fn trace_hit(seed: u64, size: Size, tr: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let workers = workers();
    let rec = Recorder::new();
    trace_opgraph(tr, Benchmark::BertBase);
    let HitWorld { pool, batches, mut timed, .. } =
        tr.span("devsim.setup", 0, |_| hit_setup(seed, rec.clone()));
    let mut order = ChaCha8Rng::seed_from_u64(derive_seed(seed, 5));

    // One cached evaluation per span: the lookup path alone.
    let n = size.pick(20_000u64, 1_000);
    for op in 0..n {
        let p = &pool[order.gen_range(0..POOL)];
        tr.span("devsim.cache_lookup", op, |_| timed.evaluate(p));
    }

    let (plain, traced) = traced_against_untraced(
        tr,
        &mut out,
        size.seconds / 2.0,
        || &batches[order.gen_range(0..batches.len())].1,
        |b| timed.evaluate_batch(b, workers).len(),
    );
    let snap = timed.snapshot();
    out.attempted += snap.evals;

    let events = rec.counter_value("devsim.engine.events");
    out.set("devsim.cache_lookup_us", median(&tr.durations("devsim.cache_lookup")) * 1e6);
    out.set("devsim.evaluate_batch_s", median(&tr.durations("devsim.evaluate_batch")));
    // Per engine run, as everywhere: only the pool's 64 fills were one.
    out.set("devsim.events_per_eval", events as f64 / snap.cache.misses as f64);
    out.set("devsim.cache_hit_rate", snap.cache.hit_rate());
    out.set("devsim.oom_share", snap.invalid_evals as f64 / snap.evals as f64);
    out.note(format!(
        "cached: {} evals, {events} engine events over {} cache misses, {plain:.0} evals/s untraced, {traced:.0} traced",
        snap.evals, snap.cache.misses
    ));
    out
}
