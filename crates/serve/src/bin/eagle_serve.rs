//! The `eagle-serve` daemon binary.
//!
//! ```text
//! eagle-serve run     --store DIR [--addr 127.0.0.1:7711] [--coalesce-us N]
//!                     [--sim-workers N] [--metrics-every-s N] [--max-wave N]
//!                     [--queue-capacity N] [--family-quota N]
//! eagle-serve publish --store DIR --family NAME --scale SCALE --checkpoint FILE
//! eagle-serve seed    --store DIR --family NAME [--scale quick] [--seed 1]
//! ```
//!
//! `run` serves placement requests forever (newline-delimited JSON, see
//! `eagle_serve::api`). `publish` installs a training checkpoint's parameters
//! into the store — republishing over a served family hot-reloads it without a
//! restart.
//! `seed` publishes an untrained (warm-started) policy for one of the paper
//! benchmarks, so a demo or smoke store works without hours of training.

use std::sync::Arc;

use eagle_obs::Recorder;
use eagle_serve::{publish_checkpoint, publish_state, untrained_state, PolicyStore};

fn usage() -> ! {
    eprintln!(
        "usage:\n  eagle-serve run --store DIR [--addr A] [--coalesce-us N] [--sim-workers N] \
         [--metrics-every-s N] [--max-wave N] [--queue-capacity N] [--family-quota N]\n  \
         eagle-serve publish --store DIR --family NAME --scale SCALE \
         --checkpoint FILE\n  eagle-serve seed --store DIR --family BENCHMARK [--scale quick] \
         [--seed 1]"
    );
    std::process::exit(2);
}

/// Tiny flag parser: every flag takes one value; unknown flags abort.
fn parse_flags(args: &[String]) -> Vec<(String, String)> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].strip_prefix("--").unwrap_or_else(|| {
            eprintln!("unexpected argument `{}`", args[i]);
            usage()
        });
        let Some(value) = args.get(i + 1) else {
            eprintln!("flag --{flag} needs a value");
            usage()
        };
        out.push((flag.to_string(), value.clone()));
        i += 2;
    }
    out
}

fn get<'a>(flags: &'a [(String, String)], name: &str) -> Option<&'a str> {
    flags.iter().find(|(f, _)| f == name).map(|(_, v)| v.as_str())
}

fn require<'a>(flags: &'a [(String, String)], name: &str) -> &'a str {
    get(flags, name).unwrap_or_else(|| {
        eprintln!("missing required flag --{name}");
        usage()
    })
}

fn check_known(flags: &[(String, String)], known: &[&str]) {
    for (f, _) in flags {
        if !known.contains(&f.as_str()) {
            eprintln!("unknown flag --{f}");
            usage();
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else { usage() };
    let flags = parse_flags(&args[1..]);
    match cmd.as_str() {
        "run" => run(&flags),
        "publish" => publish(&flags),
        "seed" => seed(&flags),
        _ => usage(),
    }
}

fn run(flags: &[(String, String)]) {
    check_known(
        flags,
        &[
            "store",
            "addr",
            "coalesce-us",
            "sim-workers",
            "metrics-every-s",
            "max-wave",
            "queue-capacity",
            "family-quota",
        ],
    );
    let store_dir = require(flags, "store");
    let addr = get(flags, "addr").unwrap_or("127.0.0.1:7711");
    let mut router = eagle_serve::RouterConfig::default();
    if let Some(us) = get(flags, "coalesce-us") {
        let us: u64 = us.parse().expect("--coalesce-us takes an integer");
        router.coalesce = std::time::Duration::from_micros(us);
    }
    if let Some(w) = get(flags, "sim-workers") {
        router.sim_workers = w.parse().expect("--sim-workers takes an integer");
    }
    if let Some(n) = get(flags, "max-wave") {
        router.max_wave = n.parse().expect("--max-wave takes an integer");
        assert!(router.max_wave > 0, "--max-wave must be positive");
    }
    if let Some(n) = get(flags, "queue-capacity") {
        router.queue_capacity = n.parse().expect("--queue-capacity takes an integer");
        assert!(router.queue_capacity > 0, "--queue-capacity must be positive");
    }
    if let Some(n) = get(flags, "family-quota") {
        router.family_quota = n.parse().expect("--family-quota takes an integer");
    }
    let metrics_every: u64 =
        get(flags, "metrics-every-s").map_or(0, |s| s.parse().expect("--metrics-every-s integer"));

    let recorder = Recorder::new();
    let store = Arc::new(PolicyStore::open(store_dir, recorder.clone()));
    let config = eagle_serve::ServerConfig { addr: addr.to_string(), router };
    let server = match eagle_serve::Server::start(config, store, recorder.clone()) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("eagle-serve: {e}");
            std::process::exit(1);
        }
    };
    println!("eagle-serve listening on {}", server.local_addr());

    // The daemon runs until killed; optionally print a metrics line on a cadence.
    let mut last_requests = 0u64;
    loop {
        std::thread::sleep(std::time::Duration::from_secs(metrics_every.max(1)));
        if metrics_every == 0 {
            continue;
        }
        let requests = recorder.counter_value("serve.requests");
        let rps = (requests - last_requests) as f64 / metrics_every as f64;
        last_requests = requests;
        let (p50, p99) =
            recorder.histogram("serve.latency_us").map_or((0.0, 0.0), |h| (h.p50, h.p99));
        println!(
            "requests={requests} rps={rps:.0} p50_us={p50:.0} p99_us={p99:.0} errors={} \
             waves={} forwards={} reloads={} shed={} depth={:.0}",
            recorder.counter_value("serve.errors"),
            recorder.counter_value("serve.waves"),
            recorder.counter_value("serve.forwards"),
            recorder.counter_value("serve.policy_reloads"),
            recorder.counter_value("serve.shed"),
            recorder.gauge_value("serve.queue_depth").unwrap_or(0.0),
        );
    }
}

fn publish(flags: &[(String, String)]) {
    check_known(flags, &["store", "family", "scale", "checkpoint"]);
    let store = require(flags, "store");
    let family = require(flags, "family");
    let scale = require(flags, "scale");
    let checkpoint = require(flags, "checkpoint");
    match publish_checkpoint(
        std::path::Path::new(store),
        family,
        scale,
        std::path::Path::new(checkpoint),
    ) {
        Ok(version) => println!("published {family} version {version}"),
        Err(e) => {
            eprintln!("eagle-serve publish: {e}");
            std::process::exit(1);
        }
    }
}

fn seed(flags: &[(String, String)]) {
    check_known(flags, &["store", "family", "scale", "seed"]);
    let store = require(flags, "store");
    let family = require(flags, "family");
    let scale = get(flags, "scale").unwrap_or("quick");
    let seed: u64 = get(flags, "seed").map_or(1, |s| s.parse().expect("--seed takes an integer"));
    let Some(bench) = eagle_devsim::Benchmark::ALL.iter().find(|b| b.name() == family) else {
        eprintln!(
            "eagle-serve seed: --family must be a paper benchmark ({}); \
             use `publish` for trained checkpoints",
            eagle_devsim::Benchmark::ALL.map(|b| b.name()).join("/")
        );
        std::process::exit(1);
    };
    let Some(agent_scale) = eagle_core::AgentScale::from_name(scale) else {
        eprintln!("eagle-serve seed: unknown scale `{scale}`");
        std::process::exit(1);
    };
    let machine = eagle_devsim::Machine::paper_machine();
    let graph = bench.graph_for(&machine);
    let result = untrained_state(&graph, &machine, agent_scale, seed)
        .and_then(|state| publish_state(std::path::Path::new(store), family, scale, &state));
    match result {
        Ok(version) => println!("seeded {family} ({scale}) version {version}"),
        Err(e) => {
            eprintln!("eagle-serve seed: {e}");
            std::process::exit(1);
        }
    }
}
