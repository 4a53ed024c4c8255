//! `serve_mix`: the placement daemon under a two-family request mix.
//!
//! An in-process `Server` on localhost TCP, its store seeded with untrained
//! (warm-started) quick-scale policies for `inception_v3` and `gnmt`; graphs
//! registered once, requests by key, four candidates, a distinct seed per
//! request, family drawn 70 / 30. Two phases over the same two connections:
//! *closed* (both send together and again when both have their replies: a
//! launcher asking for a placement waits for it; same-family pairs coalesce
//! into one forward, mixed pairs do not) gives the rate, *paced* (each sends
//! every 100 ms, 20 req/s offered, a fifth of the closed-loop capacity) gives
//! latency at a fixed offered load, timed from the instant each request was
//! due. Forward-only inference, wire and router: no backward, no Adam.

use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use eagle_core::{AgentScale, EagleAgent, PlacementAgent};
use eagle_devsim::{simulate, simulate_recorded, Benchmark, DeviceId, Machine, Placement};
use eagle_obs::Recorder;
use eagle_opgraph::OpGraph;
use eagle_rl::{fork_streams, StochasticPolicy};
use eagle_serve::api::{self, PlaceRequest, PlaceResponse, Request, Response};
use eagle_serve::{
    publish_state, untrained_state, Client, PolicyStore, RouterConfig, Server, ServerConfig,
};
use eagle_tensor::Params;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::harness::{
    derive_seed, median, out_dir, peak_rss_mb, quantile, quantile_by_slice, rates_by_count,
    workers, Outcome, Size, Slices, Tracer,
};
use crate::sim::trace_opgraph;

const CANDIDATES: u32 = 4;
/// Gap between one connection's paced sends; two connections offer 20 req/s,
/// a fifth of what the closed loop reaches. At 40 req/s the phase fell over
/// whenever the host slowed by a third for a minute: the daemon ran at two
/// thirds of its capacity then, every stall left a backlog that took seconds
/// to drain, and the median latency of four runs in ten read 20 to 100 ms
/// against 14. At a fifth a slow host shows as a slower reply, not as a queue.
const PACE: Duration = Duration::from_millis(100);
/// Paced replies in a latency slice: one second, and two of each
/// connection's blocks of ten, so every slice carries the same family mix.
const PACED_SLICE: usize = 20;
/// The published policies are inputs like the graphs are: fixed, so `--seed`
/// varies the request stream and not the policy the latencies are stated on.
const POLICY_SEED: u64 = 1;
const SCALE: &str = "quick";

struct Family {
    name: &'static str,
    graph: OpGraph,
    key: String,
}

/// The store directory under `perf/out/`, removed on drop.
struct StoreDir(PathBuf);

impl Drop for StoreDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

struct World {
    // Dropped in this order: the server stops before its store directory goes.
    server: Server,
    store: Arc<PolicyStore>,
    _dir: StoreDir,
    machine: Machine,
    families: Vec<Family>,
}

impl World {
    fn addr(&self) -> SocketAddr {
        self.server.local_addr()
    }
}

/// Seeds a store, starts the daemon, registers both graphs and sends one
/// request per family so the serving agents are built: everything a client
/// waits for before the first warm reply.
fn setup(nth: usize) -> World {
    let workers = workers();
    let dir = StoreDir(out_dir().join(format!("store-{}-{nth}", std::process::id())));
    let _ = std::fs::remove_dir_all(&dir.0);
    let machine = Machine::paper_machine();
    let scale = AgentScale::from_name(SCALE).expect("known scale");
    let mut families = Vec::new();
    for bench in [Benchmark::InceptionV3, Benchmark::Gnmt] {
        let graph = bench.graph_for(&machine);
        let state =
            untrained_state(&graph, &machine, scale, POLICY_SEED).expect("seed policy state");
        publish_state(&dir.0, bench.name(), SCALE, &state).expect("publish policy");
        families.push(Family { name: bench.name(), graph, key: String::new() });
    }
    let recorder = Recorder::new();
    let store = Arc::new(PolicyStore::open(&dir.0, recorder.clone()));
    let router = RouterConfig { sim_workers: workers, ..RouterConfig::default() };
    let server =
        Server::start(ServerConfig { addr: "127.0.0.1:0".into(), router }, store.clone(), recorder)
            .expect("server starts on a free localhost port");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    for (i, f) in families.iter_mut().enumerate() {
        f.key = client.register_graph(&f.graph).expect("register graph");
        let warm = client.place(request(u64::MAX - i as u64, f, 0)).expect("warm-up request");
        assert!(warm.error.is_none(), "warm-up request failed: {:?}", warm.error);
    }
    World { server, store, _dir: dir, machine, families }
}

fn request(id: u64, family: &Family, seed: u64) -> PlaceRequest {
    PlaceRequest {
        candidates: CANDIDATES,
        seed,
        ..PlaceRequest::by_key(id, family.name, family.key.clone())
    }
}

/// One connection's seeded request stream: family 70 / 30, a fresh seed each.
/// Families come from shuffled blocks of ten (seven and three), so every
/// slice of a phase carries the same mix and only the order is random.
struct RequestStream {
    rng: ChaCha8Rng,
    next_id: u64,
    block: Vec<usize>,
}

impl RequestStream {
    /// Connection `conn` numbers its requests `conn`, `conn + 2`, ...
    fn new(seed: u64, conn: u64) -> Self {
        let rng = ChaCha8Rng::seed_from_u64(derive_seed(seed, 20 + conn));
        Self { rng, next_id: conn, block: Vec::new() }
    }

    fn next(&mut self, world: &World) -> (usize, PlaceRequest) {
        if self.block.is_empty() {
            self.block = vec![0, 0, 0, 0, 0, 0, 0, 1, 1, 1];
            self.block.shuffle(&mut self.rng);
        }
        let fam = self.block.pop().expect("block refilled");
        let id = self.next_id;
        self.next_id += 2;
        (fam, request(id, &world.families[fam], self.rng.gen()))
    }
}

/// One answered request, kept for the checks that run after the clock stops.
struct Done {
    family: usize,
    req: PlaceRequest,
    resp: PlaceResponse,
    at: Instant,
    latency_ms: f64,
    late: bool,
}

/// Closed loop in lock step: both connections send, both wait for their
/// replies, both send again. Left to run free, two closed-loop connections
/// settle at random into one of two states that each last for seconds: they
/// either ask together (one wave of two, 100 to 110 req/s) or take turns
/// (waves of one, 75 to 90 req/s), because after a mixed-family wave the
/// second reply's sender races the router's 200 us coalesce window. Sending
/// in pairs pins the first state, so the rate is a function of the code and
/// the request mix: same-family pairs share one forward, mixed pairs take two.
fn closed_phase(world: &World, seed: u64, seconds: f64) -> (Instant, Vec<Done>) {
    let start = Instant::now();
    let together = Barrier::new(2);
    let last_round = AtomicU64::new(u64::MAX);
    let (together, last_round) = (&together, &last_round);
    let done = std::thread::scope(|s| {
        let handles: Vec<_> = (0..2u64)
            .map(|conn| {
                s.spawn(move || {
                    let mut client = Client::connect(world.addr()).expect("connect");
                    let mut stream = RequestStream::new(seed, conn);
                    let mut done = Vec::new();
                    for round in 0.. {
                        together.wait();
                        if round > last_round.load(Ordering::SeqCst) {
                            break;
                        }
                        // Connection 0 calls the last round, once, before the
                        // barrier that opens the next one.
                        if conn == 0 && start.elapsed().as_secs_f64() >= seconds {
                            last_round.store(round, Ordering::SeqCst);
                        }
                        let (family, req) = stream.next(world);
                        let t0 = Instant::now();
                        let resp = client.place(req.clone()).expect("round trip");
                        let at = Instant::now();
                        let latency_ms = at.duration_since(t0).as_secs_f64() * 1e3;
                        done.push(Done { family, req, resp, at, latency_ms, late: false });
                    }
                    done
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("client thread")).collect()
    });
    (start, done)
}

/// Paced loop: connection `c` sends at `start + c * PACE / 2 + i * PACE`;
/// latency runs from that due instant, so a stall delays later requests too.
fn paced_phase(world: &World, seed: u64, seconds: f64) -> Vec<Done> {
    let start = Instant::now();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..2u64)
            .map(|conn| {
                s.spawn(move || {
                    let mut client = Client::connect(world.addr()).expect("connect");
                    // Another stream than the closed phase used.
                    let mut stream = RequestStream::new(derive_seed(seed, 9), conn);
                    let mut done = Vec::new();
                    let mut due = start + PACE.mul_f64(conn as f64 / 2.0);
                    while due.duration_since(start).as_secs_f64() < seconds {
                        let (family, req) = stream.next(world);
                        if let Some(wait) = due.checked_duration_since(Instant::now()) {
                            std::thread::sleep(wait);
                        }
                        let late = Instant::now().duration_since(due) > Duration::from_millis(1);
                        let resp = client.place(req.clone()).expect("round trip");
                        let at = Instant::now();
                        let latency_ms = at.duration_since(due).as_secs_f64() * 1e3;
                        done.push(Done { family, req, resp, at, latency_ms, late });
                        due += PACE;
                    }
                    done
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("client thread")).collect()
    })
}

/// Every reply carries a placement of graph length whose `simulate` equals
/// `predicted_step_time` bit for bit. Returns the predicted times.
fn check_replies(out: &mut Outcome, world: &World, done: &[Done], what: &str) -> Vec<f64> {
    let mut predicted = Vec::with_capacity(done.len());
    for d in done {
        out.attempted += 1;
        let graph = &world.families[d.family].graph;
        let ok = match (&d.resp.error, &d.resp.placement, d.resp.predicted_step_time) {
            (None, Some(devs), Some(t)) if devs.len() == graph.len() => {
                predicted.push(t);
                let p = Placement::new(devs.iter().map(|&d| DeviceId(d)).collect());
                simulate(graph, &world.machine, &p).step_time().map(f64::to_bits)
                    == Some(t.to_bits())
            }
            _ => false,
        };
        if !ok {
            out.failed += 1;
            eprintln!("CHECK FAILED: {what} request {}: {:?}", d.req.id, d.resp.error);
        }
    }
    predicted
}

/// A replayed request returns the identical placement.
fn check_replay(out: &mut Outcome, world: &World, done: &[Done]) {
    let mut client = Client::connect(world.addr()).expect("connect");
    for d in done.iter().take(20) {
        let again = client.place(d.req.clone()).expect("round trip");
        out.check(again.placement == d.resp.placement, || {
            format!("replayed request {} returned another placement", d.req.id)
        });
    }
}

fn latencies(done: &[Done]) -> Vec<f64> {
    done.iter().map(|d| d.latency_ms).collect()
}

pub fn run(seed: u64, size: Size) -> Outcome {
    let mut out = Outcome::default();
    // Three daemons one after another, each set up (so `setup_s` is a median)
    // and driven closed-loop for a third of the closed time.
    let instances = size.pick(3, 1);
    let closed_s = size.seconds * 0.4 / instances as f64;
    let (mut setups, mut rates, mut closed_ms) = (vec![], vec![], vec![]);
    let (mut paced_ms, mut predicted, mut late) = (vec![], vec![], 0);
    for nth in 0..instances {
        let t0 = Instant::now();
        let world = setup(nth);
        setups.push(t0.elapsed().as_secs_f64());

        let (start, closed) = closed_phase(&world, derive_seed(seed, nth as u64), closed_s);
        check_replies(&mut out, &world, &closed, "closed");
        check_replay(&mut out, &world, &closed);
        let at = closed.iter().map(|d| d.at.duration_since(start).as_secs_f64()).collect();
        let rps = rates_by_count(at, 10);
        out.note(rps.describe(&format!("daemon {nth}: closed-loop req/s")));
        rates.extend(rps.values);
        closed_ms.extend(latencies(&closed));

        // The first daemon also serves the paced phase, and the peak resident
        // set is read when it has: one daemon's whole life. The allocator keeps
        // what a stopped daemon freed (15 to 27 MB each, never the same), so a
        // peak read after the later instances would count the repeats.
        if nth == 0 {
            let mut paced = paced_phase(&world, seed, size.seconds * 0.6);
            paced.sort_by_key(|d| d.at);
            predicted = check_replies(&mut out, &world, &paced, "paced");
            paced_ms = latencies(&paced);
            late = paced.iter().filter(|d| d.late).count();
            out.set("peak_rss_mb", peak_rss_mb());
        }
    }
    out.note(format!(
        "closed: {} requests, p50 {:.3} ms; paced: {} requests at {:.0} req/s offered, {late} sent > 1 ms late",
        closed_ms.len(),
        median(&closed_ms),
        paced_ms.len(),
        2.0 / PACE.as_secs_f64(),
    ));
    let p50 = quantile_by_slice(&paced_ms, PACED_SLICE, 0.5);
    out.note(p50.describe("paced p50 ms"));
    out.note(format!("paced p90 over the whole phase: {:.4} ms", quantile(&paced_ms, 0.9)));
    out.set("setup_s", Slices { values: setups }.quiet_low());
    out.set("ops_per_s", Slices { values: rates }.quiet_high());
    out.set("op_p50_ms", p50.quiet_low());
    out.set("step_time_s", median(&predicted));
    out
}

/// What the router does for one request, as direct calls into `nn`, `core` and
/// `devsim`, one span each; `engine` counts the simulator's events. Returns the
/// best candidate, as the router picks it.
fn direct_place(
    tr: &mut Tracer,
    agent: &EagleAgent,
    params: &Params,
    world: &World,
    family: usize,
    req: &PlaceRequest,
    engine: &Recorder,
) -> Option<Vec<u8>> {
    let graph = &world.families[family].graph;
    let op = req.id;
    let mut master = ChaCha8Rng::seed_from_u64(req.seed);
    let mut streams =
        fork_streams(&mut master, agent.rng_draws_per_sample(), req.candidates as usize);
    let mut refs: Vec<&mut dyn rand::RngCore> =
        streams.iter_mut().map(|s| s as &mut dyn rand::RngCore).collect();
    let placements = tr.span("nn.infer_forward", op, |_| {
        let actions: Vec<Vec<usize>> =
            agent.sample_batch(params, &mut refs).into_iter().map(|(a, _)| a).collect();
        agent.decode_batch(params, &actions)
    });
    let mut best: Option<(f64, usize)> = None;
    for (c, p) in placements.iter().enumerate() {
        let t = tr.span("devsim.simulate", op, |_| {
            simulate_recorded(graph, &world.machine, p, engine).step_time()
        });
        if let Some(t) = t {
            if best.is_none_or(|(b, _)| t < b) {
                best = Some((t, c));
            }
        }
    }
    best.map(|(_, c)| placements[c].devices().iter().map(|d| d.0).collect())
}

pub fn trace(seed: u64, size: Size, tr: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    trace_opgraph(tr, Benchmark::Gnmt);
    let world = tr.span("serve.setup", 0, |_| setup(0));
    let share = size.seconds / 4.0;
    let solo = size.pick(200u64, 10);
    let recorder = world.server.recorder().clone();
    let mut client = Client::connect(world.addr()).expect("connect");

    // Loaded phases first, so the recorder's wave and queue figures are theirs.
    let (_, closed) = tr.span("serve.closed_phase", 0, |_| closed_phase(&world, seed, share));
    let paced = tr.span("serve.paced_phase", 0, |_| paced_phase(&world, seed, share));
    tr.span("perf.check", 0, |_| {
        check_replies(&mut out, &world, &closed, "closed");
        check_replies(&mut out, &world, &paced, "paced");
    });
    let loaded_requests = (closed.len() + paced.len()) as f64;
    let forwards_per_request = recorder.counter_value("serve.forwards") as f64
        / recorder.counter_value("serve.requests").max(1) as f64;
    let waves = recorder.histogram("serve.wave_size");
    let depth = recorder.histogram("serve.queue_depth");

    // Solo replays: the same requests through TCP, through the router, and as
    // direct layer calls.
    let mut stream = RequestStream::new(derive_seed(seed, 8), 0);
    let requests: Vec<(usize, PlaceRequest)> = (0..solo).map(|_| stream.next(&world)).collect();
    // Blocks of ten, each sent untraced and then traced (the daemon answers a
    // replayed request with the same work): a slow second lands on both sides
    // of a pair.
    let (mut plain_s, mut traced_s) = (0.0, 0.0);
    let mut replies = Vec::new();
    for block in requests.chunks(10) {
        let ((), plain) = tr.reference(|| {
            for (_, req) in block {
                std::hint::black_box(client.place(req.clone()).expect("round trip"));
            }
        });
        let t0 = Instant::now();
        for (_, req) in block {
            replies.push(tr.span("serve.tcp_roundtrip", req.id, |_| {
                client.place(req.clone()).expect("round trip")
            }));
        }
        let traced = t0.elapsed().as_secs_f64();
        out.trace_pairs.push(traced / plain);
        plain_s += plain;
        traced_s += traced;
    }
    let forwards_before = recorder.counter_value("serve.forwards");
    for (_, req) in &requests {
        tr.span("serve.submit_roundtrip", req.id, |_| {
            let rx = world.server.router().submit(req.clone()).expect("admitted");
            rx.recv().expect("router replies")
        });
    }
    let solo_forwards =
        (recorder.counter_value("serve.forwards") - forwards_before) as f64 / solo as f64;

    let scale = AgentScale::from_name(SCALE).expect("known scale");
    let agents: Vec<EagleAgent> = world
        .families
        .iter()
        .map(|f| {
            tr.span("nn.infer_build", 0, |_| {
                let mut scratch = Params::new();
                let mut rng = ChaCha8Rng::seed_from_u64(0);
                EagleAgent::new_for_inference(
                    &mut scratch,
                    &f.graph,
                    &world.machine,
                    scale,
                    &mut rng,
                )
            })
        })
        .collect();
    let engine = Recorder::new();
    for ((family, req), reply) in requests.iter().zip(&replies) {
        let op = req.id;
        let entry = tr
            .span("serve.store_get", op, |_| world.store.get(world.families[*family].name))
            .expect("published family");
        let direct =
            direct_place(tr, &agents[*family], &entry.params, &world, *family, req, &engine);
        out.check(direct == reply.placement, || {
            format!("request {}: direct decode differs from the daemon's reply", req.id)
        });
        let line = api::encode_request(&Request::Place(req.clone()));
        tr.span("serve.decode_request", op, |_| {
            std::hint::black_box(api::decode_request(&line).expect("own request decodes"))
        });
        let response = Response::Place(reply.clone());
        tr.span("serve.encode_response", op, |_| {
            std::hint::black_box(api::encode_response(&response))
        });
    }

    // Off the by-key path: the parse-heavy requests.
    for (op, f) in world.families.iter().enumerate() {
        let op = op as u64;
        tr.span("serve.register_graph", op, |_| {
            client.register_graph(&f.graph).expect("register graph")
        });
        let inline = PlaceRequest {
            candidates: CANDIDATES,
            ..PlaceRequest::inline(op, f.name, f.graph.clone())
        };
        let resp = tr.span("serve.inline_place", op, |_| client.place(inline).expect("round trip"));
        out.check(resp.error.is_none(), || format!("inline request failed: {:?}", resp.error));
    }
    out.attempted += 3 * solo;

    let ms = |name: &str| median(&tr.durations(name)) * 1e3;
    let tcp_ms = ms("serve.tcp_roundtrip");
    let submit_ms = ms("serve.submit_roundtrip");
    // Paired per request: the mix is bimodal, so a difference of medians is not
    // the median difference.
    let wire: Vec<f64> = tr
        .durations("serve.tcp_roundtrip")
        .iter()
        .zip(tr.durations("serve.submit_roundtrip"))
        .map(|(tcp, submit)| (tcp - submit) * 1e3)
        .collect();
    let forward_s = median(&tr.durations("nn.infer_forward"));
    let simulate_ms = ms("devsim.simulate");
    out.set("nn.infer_build_s", median(&tr.durations("nn.infer_build")));
    out.set("nn.infer_forward_s", forward_s);
    out.set("devsim.simulate_small_us", simulate_ms * 1e3);
    out.set(
        "devsim.events_per_eval",
        engine.counter_value("devsim.engine.events") as f64
            / tr.durations("devsim.simulate").len() as f64,
    );
    out.set("serve.tcp_roundtrip_ms", tcp_ms);
    out.set("serve.submit_roundtrip_ms", submit_ms);
    out.set("serve.wire_ms", median(&wire));
    out.set("serve.decode_request_us", ms("serve.decode_request") * 1e3);
    out.set("serve.encode_response_us", ms("serve.encode_response") * 1e3);
    out.set(
        "serve.router_overhead_ms",
        submit_ms - forward_s * 1e3 - CANDIDATES as f64 * simulate_ms,
    );
    out.set("serve.forwards_per_request", forwards_per_request);
    out.set("serve.wave_size_mean", waves.as_ref().map_or(0.0, |h| h.sum / h.count.max(1) as f64));
    out.set("serve.queue_depth_max", depth.as_ref().map_or(0.0, |h| h.max));
    out.set("serve.errors", recorder.counter_value("serve.errors") as f64);
    out.set("serve.shed", recorder.counter_value("serve.shed") as f64);
    out.set("serve.closed_p50_ms", median(&latencies(&closed)));
    out.set("serve.p90_ms", quantile(&latencies(&paced), 0.9));
    out.set("serve.p99_ms", quantile(&latencies(&paced), 0.99));
    out.set(
        "serve.late_share",
        paced.iter().filter(|d| d.late).count() as f64 / paced.len().max(1) as f64,
    );
    out.set("serve.register_graph_ms", ms("serve.register_graph"));
    out.set("serve.inline_place_ms", ms("serve.inline_place"));
    out.set("serve.store_get_us", ms("serve.store_get") * 1e3);
    out.note(format!(
        "loaded: {loaded_requests} requests ({} closed, {} paced); solo: {solo} requests, {solo_forwards:.2} forwards each, TCP loop {plain_s:.4} s untraced, {traced_s:.4} s traced",
        closed.len(),
        paced.len()
    ));
    out
}
