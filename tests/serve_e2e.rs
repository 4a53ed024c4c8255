//! End-to-end test of the placement daemon: a real TCP server, concurrent
//! clients, wave coalescing, bit-identical results vs the direct in-process
//! decode path, typed error replies, and policy hot-reload.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use eagle::api::{
    encode_request, ErrorCode, PlaceRequest, RegisterGraphRequest, Request, API_SCHEMA_VERSION,
};
use eagle::core::{AgentScale, EagleAgent, PlacementAgent};
use eagle::devsim::{simulate, Benchmark, Machine};
use eagle::obs::Recorder;
use eagle::opgraph::{OpGraph, OpKind, OpNode, Phase};
use eagle::rl::{fork_streams, StochasticPolicy};
use eagle::serve::{publish_state, untrained_state, Client, PolicyStore, Server, ServerConfig};
use eagle::tensor::Params;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde_json::Value;

/// A fresh store directory seeded with one tiny-scale inception policy.
fn seeded_store(name: &str, graph: &OpGraph, machine: &Machine) -> (std::path::PathBuf, String) {
    let root = std::env::temp_dir().join("eagle-serve-e2e").join(name);
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).unwrap();
    let state = untrained_state(graph, machine, AgentScale::tiny(), 1).expect("fabricate state");
    let version = publish_state(&root, "inception_v3", "tiny", &state).expect("publish");
    (root, version)
}

fn start_server(root: &std::path::Path) -> Server {
    start_server_with(root, ServerConfig::default())
}

fn start_server_with(root: &std::path::Path, config: ServerConfig) -> Server {
    // One recorder across store and router, as the daemon binary wires it, so
    // `serve.policy_*` and `serve.requests` land in the same place.
    let recorder = Recorder::new();
    let store = Arc::new(PolicyStore::open(root, recorder.clone()));
    Server::start(config, store, recorder).expect("server starts")
}

/// The router's decode path, replicated in-process: one agent rebuild around
/// the stored parameters, per-request forked RNG streams, batched sample +
/// decode, simulate, best valid candidate (ties to the lowest index).
fn direct_placement(
    root: &std::path::Path,
    graph: &OpGraph,
    machine: &Machine,
    seed: u64,
    candidates: usize,
) -> (Vec<u8>, f64) {
    let store = PolicyStore::open(root, Recorder::new());
    let entry = store.get("inception_v3").expect("policy loads");
    let mut scratch = Params::new();
    let mut rng = ChaCha8Rng::seed_from_u64(0);
    let agent = EagleAgent::new_for_inference(&mut scratch, graph, machine, entry.scale, &mut rng);
    let mut master = ChaCha8Rng::seed_from_u64(seed);
    let mut streams = fork_streams(&mut master, agent.rng_draws_per_sample(), candidates);
    let mut refs: Vec<&mut dyn rand::RngCore> =
        streams.iter_mut().map(|r| r as &mut dyn rand::RngCore).collect();
    let actions: Vec<Vec<usize>> =
        agent.sample_batch(&entry.params, &mut refs).into_iter().map(|(a, _)| a).collect();
    let placements = agent.decode_batch(&entry.params, &actions);
    let best = placements
        .iter()
        .filter_map(|p| simulate(graph, machine, p).step_time().map(|t| (t, p)))
        .fold(None::<(f64, &eagle::devsim::Placement)>, |best, (t, p)| match best {
            Some((bt, _)) if bt <= t => best,
            _ => Some((t, p)),
        })
        .expect("some candidate is feasible");
    (best.1.devices().iter().map(|d| d.0).collect(), best.0)
}

#[test]
fn daemon_serves_concurrent_clients_with_coalescing() {
    let machine = Machine::paper_machine();
    let graph = Benchmark::InceptionV3.graph_for(&machine);
    let (root, version) = seeded_store("concurrent", &graph, &machine);
    let server = start_server(&root);
    let addr = server.local_addr();

    let mut setup = Client::connect(addr).expect("connect");
    let key = setup.register_graph(&graph).expect("register");

    // 8 closed-loop clients, 10 requests each: every reply valid, versioned,
    // and placing every op.
    let ops = graph.len();
    std::thread::scope(|s| {
        for c in 0..8u64 {
            let (key, version) = (key.clone(), version.clone());
            s.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                for i in 0..10u64 {
                    let id = c * 100 + i;
                    let resp = client
                        .place(PlaceRequest::by_key(id, "inception_v3", &key))
                        .expect("place");
                    assert_eq!(resp.schema_version, API_SCHEMA_VERSION);
                    assert_eq!(resp.id, id);
                    assert!(resp.error.is_none(), "unexpected error: {:?}", resp.error);
                    assert_eq!(resp.placement.as_ref().unwrap().len(), ops);
                    assert!(resp.predicted_step_time.unwrap() > 0.0);
                    assert_eq!(resp.policy_version.as_deref(), Some(version.as_str()));
                }
            });
        }
    });

    // Coalescing: 80 requests from 8 concurrent clients must share waves, so
    // the daemon runs strictly fewer forwards (one decoder forward per wave)
    // than requests.
    let rec = server.recorder();
    let requests = rec.counter_value("serve.requests");
    let forwards = rec.counter_value("serve.forwards");
    let waves = rec.counter_value("serve.waves");
    assert_eq!(requests, 80);
    assert_eq!(rec.counter_value("serve.errors"), 0);
    assert!(waves < requests, "80 concurrent requests must not get 1 wave each ({waves} waves)");
    assert!(
        forwards < requests,
        "wave batching must keep forwards ({forwards}) below requests ({requests})"
    );
    assert!(rec.histogram("serve.latency_us").is_some());
    assert!(rec.histogram("serve.wave_size").unwrap().max > 1.0, "some wave held > 1 request");

    // Bit-identity: the daemon's reply equals the direct in-process decode
    // path, regardless of what shared its wave above.
    for seed in [3u64, 17] {
        let mut req = PlaceRequest::by_key(seed, "inception_v3", &key);
        req.seed = seed;
        req.candidates = 3;
        let resp = setup.place(req).expect("place");
        let (want_placement, want_time) = direct_placement(&root, &graph, &machine, seed, 3);
        assert_eq!(resp.placement.unwrap(), want_placement, "seed {seed} placement drifted");
        assert_eq!(resp.predicted_step_time.unwrap(), want_time, "seed {seed} time drifted");
    }

    // Shutdown must complete while clients are still connected (handlers are
    // blocked in `read`); a hang here is the regression this pins.
    server.shutdown();
}

#[test]
fn daemon_replies_with_typed_errors() {
    let machine = Machine::paper_machine();
    let graph = Benchmark::InceptionV3.graph_for(&machine);
    let (root, _) = seeded_store("errors", &graph, &machine);
    let server = start_server(&root);
    let addr = server.local_addr();
    let mut client = Client::connect(addr).expect("connect");
    let key = client.register_graph(&graph).expect("register");

    // Unknown policy family.
    let resp = client.place(PlaceRequest::by_key(1, "resnet_slim", &key)).expect("reply");
    assert_eq!(resp.error.as_ref().unwrap().code, ErrorCode::UnknownFamily);
    assert!(resp.placement.is_none());

    // Unknown graph key.
    let resp =
        client.place(PlaceRequest::by_key(2, "inception_v3", "ffffffffffffffff")).expect("reply");
    assert_eq!(resp.error.as_ref().unwrap().code, ErrorCode::UnknownGraphKey);

    // Both graph and graph_key set.
    let mut req = PlaceRequest::by_key(3, "inception_v3", &key);
    req.graph = Some(graph.clone());
    let resp = client.place(req).expect("reply");
    assert_eq!(resp.error.as_ref().unwrap().code, ErrorCode::BadRequest);

    // Raw protocol-level garbage: the server answers (never disconnects) with
    // a `place_result` carrying id 0 and a `Protocol` error.
    let mut raw = TcpStream::connect(addr).expect("connect raw");
    raw.write_all(b"this is not json\n").unwrap();
    let mut reader = BufReader::new(raw.try_clone().unwrap());
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    let v: Value = serde_json::from_str(line.trim_end()).expect("error reply is JSON");
    assert_eq!(v["type"].as_str(), Some("place_result"));
    assert_eq!(v["id"].as_u64(), Some(0));
    assert_eq!(v["error"]["code"].as_str(), Some("Protocol"));

    // Wrong schema version on an otherwise plausible line.
    raw.write_all(b"{\"type\":\"place\",\"schema_version\":2,\"id\":9}\n").unwrap();
    line.clear();
    reader.read_line(&mut line).unwrap();
    let v: Value = serde_json::from_str(line.trim_end()).unwrap();
    assert_eq!(v["error"]["code"].as_str(), Some("SchemaVersion"));

    // The connection survived all of the above, and every error reply —
    // routed (unknown family) or boundary (validation, protocol) — counted.
    let resp = client.place(PlaceRequest::by_key(4, "inception_v3", &key)).expect("reply");
    assert!(resp.error.is_none());
    assert_eq!(server.recorder().counter_value("serve.errors"), 5);
    server.shutdown();
}

/// A wire graph whose adjacency does not fit its nodes is refused with a typed
/// `register_graph_result`; the connection stays up and no handler panics.
#[test]
fn malformed_wire_graph_gets_a_typed_reply_on_a_live_connection() {
    let root = std::env::temp_dir().join("eagle-serve-e2e").join("malformed_graph");
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).unwrap();
    let server = start_server(&root);

    let mut chain = OpGraph::new("chain");
    let a = chain.add_node(OpNode::new("a", OpKind::Input, Phase::Forward));
    let b = chain.add_node(OpNode::new("b", OpKind::MatMul, Phase::Forward).with_flops(4.0));
    chain.add_edge(a, b);
    let good = encode_request(&Request::RegisterGraph(RegisterGraphRequest {
        schema_version: API_SCHEMA_VERSION,
        id: 7,
        graph: chain,
    }));
    let tables = r#""succs":[[1],[]]"#;
    assert!(good.contains(tables), "{good}");

    let raw = TcpStream::connect(server.local_addr()).expect("connect raw");
    let mut writer = raw.try_clone().unwrap();
    let mut reader = BufReader::new(raw);
    let mut ask = |line: &str| -> Value {
        writer.write_all(format!("{line}\n").as_bytes()).unwrap();
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        serde_json::from_str(reply.trim_end()).expect("a reply line")
    };
    for bad in [r#""succs":[[7],[]]"#, r#""succs":[[1]]"#] {
        let v = ask(&good.replace(tables, bad));
        assert_eq!(v["type"].as_str(), Some("register_graph_result"));
        assert_eq!(v["id"].as_u64(), Some(7));
        assert_eq!(v["error"]["code"].as_str(), Some("BadRequest"), "{bad}");
        assert!(v["graph_key"].as_str().is_none());
    }
    let v = ask(&good);
    assert!(matches!(v["error"], Value::Null) && v["graph_key"].as_str().is_some(), "{v:?}");

    let rec = server.recorder();
    assert_eq!(rec.counter_value("serve.handler_panics"), 0);
    assert_eq!(rec.counter_value("serve.errors"), 2);
    server.shutdown();
}

#[test]
fn daemon_hot_reloads_policies_without_dropping_requests() {
    let machine = Machine::paper_machine();
    let graph = Benchmark::InceptionV3.graph_for(&machine);
    let (root, v1) = seeded_store("reload", &graph, &machine);
    let server = start_server(&root);
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let key = client.register_graph(&graph).expect("register");

    let resp = client.place(PlaceRequest::by_key(1, "inception_v3", &key)).expect("place");
    assert_eq!(resp.policy_version.as_deref(), Some(v1.as_str()));

    // Four clients in closed loops; each reports once its first reply is in,
    // so the swap below lands while all of them are mid-loop. Each keeps going
    // until it is served the new version (bounded).
    let addr = server.local_addr();
    let (started, all_started) = std::sync::mpsc::channel();
    let (v2, seen) = std::thread::scope(|s| {
        let clients: Vec<_> = (1..=4u64)
            .map(|c| {
                let (key, v1, started) = (&key, &v1, started.clone());
                s.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    let deadline = Instant::now() + Duration::from_secs(30);
                    let mut versions = Vec::new();
                    loop {
                        let id = c * 1_000_000 + versions.len() as u64;
                        let req = PlaceRequest::by_key(id, "inception_v3", key);
                        let resp = client.place(req).expect("place");
                        assert!(resp.error.is_none(), "no request may fail across the swap");
                        versions.push(resp.policy_version.expect("versioned reply"));
                        if versions.len() == 1 {
                            started.send(()).expect("main thread waits for every client");
                        }
                        if versions.last() != Some(v1) {
                            return versions;
                        }
                        assert!(Instant::now() < deadline, "client {c} never saw the new policy");
                    }
                })
            })
            .collect();
        for _ in 0..4 {
            all_started.recv_timeout(Duration::from_secs(30)).expect("every client gets a reply");
        }
        // Republish from different weights; the checkpoint's content hash
        // changes, so the store reloads on the next `get` (mtime granularity is
        // irrelevant to the content-identity check).
        let state2 = untrained_state(&graph, &machine, AgentScale::tiny(), 2).unwrap();
        let v2 = publish_state(&root, "inception_v3", "tiny", &state2).unwrap();
        let seen: Vec<Vec<String>> =
            clients.into_iter().map(|c| c.join().expect("client thread")).collect();
        (v2, seen)
    });
    assert_ne!(v1, v2, "different weights must yield a different content version");
    // In-flight service continued on every connection, and replies switched
    // to the new version and never to anything else.
    for versions in &seen {
        assert_eq!(versions.last(), Some(&v2), "{versions:?}");
        assert!(versions.iter().all(|v| *v == v1 || *v == v2), "unexpected version: {versions:?}");
    }
    assert!(server.recorder().counter_value("serve.policy_reloads") >= 1);

    // The reply after the swap is v2's answer, bit for bit: no value the
    // daemon prepared under v1 outlives v1's parameters.
    let mut req = PlaceRequest::by_key(7, "inception_v3", &key);
    req.candidates = 3;
    let resp = client.place(req).expect("place");
    assert_eq!(resp.policy_version.as_deref(), Some(v2.as_str()));
    let (want_placement, want_time) = direct_placement(&root, &graph, &machine, 7, 3);
    assert_eq!(resp.placement.unwrap(), want_placement, "placement is not v2's");
    assert_eq!(resp.predicted_step_time.unwrap().to_bits(), want_time.to_bits());
    server.shutdown();
}

#[test]
fn daemon_sheds_overload_with_typed_replies_and_bounded_queue() {
    let machine = Machine::paper_machine();
    let graph = Benchmark::InceptionV3.graph_for(&machine);
    let (root, _) = seeded_store("overload", &graph, &machine);
    // A deliberately tiny daemon: 4 queue slots, 2-request waves — 16 closed-
    // loop clients are 4x over capacity, so admission must shed.
    let queue_capacity = 4;
    let config = ServerConfig {
        router: eagle::serve::RouterConfig {
            queue_capacity,
            max_wave: 2,
            coalesce: Duration::from_millis(10),
            ..eagle::serve::RouterConfig::default()
        },
        ..ServerConfig::default()
    };
    let server = start_server_with(&root, config);
    let addr = server.local_addr();
    let mut setup = Client::connect(addr).expect("connect");
    let key = setup.register_graph(&graph).expect("register");

    // Every (seed -> placement) a client got back, plus shed/error tallies.
    let outcomes =
        std::sync::Mutex::new((Vec::<(u64, Vec<u8>)>::new(), 0u64, Vec::<String>::new()));
    std::thread::scope(|s| {
        for c in 0..16u64 {
            let (key, outcomes) = (key.clone(), &outcomes);
            s.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                for i in 0..6u64 {
                    let seed = c * 100 + i;
                    let mut req = PlaceRequest::by_key(seed, "inception_v3", &key);
                    req.seed = seed;
                    // Transport-level failure = dropped connection = bug; every
                    // outcome must arrive as a typed reply on the same socket.
                    let resp = client.place(req).expect("overload must not drop connections");
                    assert_eq!(resp.id, seed);
                    let mut o = outcomes.lock().unwrap();
                    match resp.error {
                        None => o.0.push((seed, resp.placement.expect("success has placement"))),
                        Some(err) if err.code == ErrorCode::Overloaded => {
                            assert!(
                                err.retry_after_ms.unwrap_or(0) >= 1,
                                "Overloaded reply must carry a usable retry hint"
                            );
                            o.1 += 1;
                        }
                        Some(err) => o.2.push(format!("{:?}: {}", err.code, err.message)),
                    }
                }
            });
        }
    });
    let (successes, shed, unexpected) = outcomes.into_inner().unwrap();
    assert!(unexpected.is_empty(), "non-overload errors under burst: {unexpected:?}");
    assert!(shed > 0, "16 clients against 4 queue slots must shed something");
    assert!(!successes.is_empty(), "admitted requests must still be served under burst");

    // Bounded memory: the queue depth at every wave cut stayed within the
    // admission bound.
    let depth = server.recorder().histogram("serve.queue_depth").expect("depth histogram");
    assert!(
        depth.max <= queue_capacity as f64,
        "queue depth {} exceeded capacity {queue_capacity}",
        depth.max
    );
    assert_eq!(server.recorder().counter_value("serve.shed"), shed);
    assert_eq!(server.recorder().counter_value("serve.overloaded"), shed);

    // A zero deadline budget is shed with the *other* typed code.
    let req = PlaceRequest::by_key(9999, "inception_v3", &key).with_deadline_ms(0);
    let resp = setup.place(req).expect("reply");
    assert_eq!(resp.error.as_ref().unwrap().code, ErrorCode::DeadlineExceeded);
    assert!(resp.error.unwrap().retry_after_ms.is_none());

    // Degradation, not corruption: replies served during the burst are
    // bit-identical to the same requests served at idle.
    for (seed, placement) in successes.iter().take(5) {
        let mut req = PlaceRequest::by_key(*seed, "inception_v3", &key);
        req.seed = *seed;
        let resp = setup.place(req).expect("idle replay");
        assert!(resp.error.is_none(), "idle replay failed: {:?}", resp.error);
        assert_eq!(
            resp.placement.as_ref().unwrap(),
            placement,
            "seed {seed}: burst-time reply differs from idle reply"
        );
    }
    server.shutdown();
}

#[test]
fn daemon_answers_unknown_families_and_zero_shot_via_generalist() {
    let machine = Machine::paper_machine();
    let graph = Benchmark::InceptionV3.graph_for(&machine);
    // The store publishes ONLY a generalist policy — no per-benchmark families.
    let root = std::env::temp_dir().join("eagle-serve-e2e").join("generalist");
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).unwrap();
    let state = untrained_state(&graph, &machine, AgentScale::tiny(), 7).expect("fabricate state");
    let version =
        publish_state(&root, eagle::serve::GENERALIST_FAMILY, "tiny", &state).expect("publish");

    let server = start_server(&root);
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let key = client.register_graph(&graph).expect("register");

    // A family the store has never heard of is answered by the generalist —
    // a valid placement, stamped with the generalist's policy version.
    let resp = client.place(PlaceRequest::by_key(1, "resnet_slim", &key)).expect("reply");
    assert!(resp.error.is_none(), "unknown family must fall back, got {:?}", resp.error);
    assert_eq!(resp.placement.as_ref().unwrap().len(), graph.len());
    assert_eq!(resp.policy_version.as_deref(), Some(version.as_str()));

    // Zero-shot: no family preference, inline graph the server has never seen
    // (GraphGen-sampled, not a benchmark). Parameters are graph-independent by
    // construction, so the generalist answers without any retraining.
    let novel = eagle::opgraph::GraphGen::new(eagle::opgraph::GraphGenConfig::with_target(48))
        .expect("valid generator config")
        .sample(5);
    let resp = client.place(PlaceRequest::zero_shot(2, novel.clone())).expect("reply");
    assert!(resp.error.is_none(), "zero-shot request failed: {:?}", resp.error);
    assert_eq!(resp.placement.as_ref().unwrap().len(), novel.len());
    assert!(resp.predicted_step_time.unwrap() > 0.0);

    // Only the unknown-family rescue counts as a fallback; asking for the
    // generalist (implicitly, via no preference) is a direct hit.
    assert_eq!(server.recorder().counter_value("serve.generalist_fallbacks"), 1);
    assert_eq!(server.recorder().counter_value("serve.errors"), 0);
    server.shutdown();
}
