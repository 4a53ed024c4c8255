//! The request router: coalesces concurrent placement requests into waves and
//! spreads each wave's policy work over the host's cores.
//!
//! Connection threads validate and [`submit`](Router::submit) requests into a
//! shared queue; a single router thread drains the queue into a **wave** and
//! groups it by (family, graph, machine). For each group it resolves the
//! policy and the serving agent, cached per (family, version, graph,
//! machine), which holds all of the forward that no request changes
//! ([`EagleAgent::for_params`]). It then cuts the wave's requests, in group
//! order, into at most `sim_workers` contiguous shares, runs them through
//! [`eagle_obs::fork_join`] (the first on the router thread), and sends every reply after
//! the whole wave. A share answers each run of a group's requests with one
//! [`best_of`] call: one batched decoder forward, then every candidate
//! simulated on that thread. A request's candidates never split across
//! shares. A reply is bit-identical to serving the request alone, because
//! every candidate consumes only its own seeded RNG stream.
//!
//! `serve.forwards` counts one decoder forward per group per wave, however
//! many shares compute it, as a product cut by output rows is still one
//! product. The best valid candidate — minimum predicted step time, ties to
//! the lowest candidate index — is returned with its predicted time and the
//! producing policy version. A request whose every candidate OOMs gets a
//! typed `infeasible` reply.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use eagle_core::infer::best_of;
use eagle_core::{fnv1a64, EagleAgent};
use eagle_devsim::Machine;
use eagle_obs::Recorder;
use eagle_opgraph::OpGraph;

use crate::api::{PlaceRequest, PlaceResponse, API_SCHEMA_VERSION};
use crate::error::EagleError;
use crate::store::{PolicyEntry, PolicyStore, GENERALIST_FAMILY};

/// Candidate count used when a request sends `candidates: 0`.
const DEFAULT_CANDIDATES: u32 = 1;
/// Upper bound on per-request `candidates` (typed error beyond).
const MAX_CANDIDATES: u32 = 16;
/// Registered-graph slots kept (FIFO eviction).
const GRAPH_CAPACITY: usize = 256;
/// Built serving agents kept, keyed by (family, version, graph, machine).
const AGENT_CAPACITY: usize = 32;

/// Router tuning knobs.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Extra time the router waits after the first pending request before
    /// cutting a wave, letting concurrent arrivals pile in. Zero disables the
    /// wait (waves still form naturally while a previous wave computes).
    pub coalesce: Duration,
    /// Maximum requests per wave.
    pub max_wave: usize,
    /// Threads a wave's requests are spread over, the router's own included
    /// (0 = one per available core); each request is decoded and simulated
    /// on one of them.
    pub sim_workers: usize,
    /// Upper bound on requests queued awaiting a wave. Admission beyond this
    /// replies with a typed `Overloaded` error (plus a `retry_after_ms` hint)
    /// instead of queueing, so a burst degrades by shedding rather than by
    /// unbounded memory growth and tail latency.
    pub queue_capacity: usize,
    /// Upper bound on queued requests *per policy family*, so one noisy family
    /// cannot starve the others out of the shared queue. `0` disables the
    /// per-family quota (the shared `queue_capacity` still applies).
    pub family_quota: usize,
}

impl Default for RouterConfig {
    fn default() -> Self {
        Self {
            coalesce: Duration::from_micros(200),
            max_wave: 64,
            sim_workers: 0,
            queue_capacity: 256,
            family_quota: 0,
        }
    }
}

/// A validated request waiting for its wave.
struct Pending {
    req: PlaceRequest,
    /// The family resolved at admission: the request's own, or
    /// [`GENERALIST_FAMILY`] when it named none. Quota accounting and wave
    /// grouping both key on this so the per-family counts stay consistent.
    family: String,
    candidates: u32,
    graph: Arc<OpGraph>,
    graph_fp: u64,
    machine: Arc<Machine>,
    machine_fp: u64,
    reply: mpsc::Sender<PlaceResponse>,
    enqueued: Instant,
    /// Absolute expiry computed from the request's `deadline_ms` at admission.
    deadline: Option<Instant>,
}

/// The admission-controlled queue: the pending FIFO plus per-family occupancy
/// counts, kept consistent under one mutex so quota checks are race-free.
#[derive(Default)]
struct Queue {
    pending: VecDeque<Pending>,
    per_family: HashMap<String, usize>,
}

#[derive(Default)]
struct GraphRegistry {
    by_key: HashMap<String, Arc<OpGraph>>,
    order: VecDeque<String>,
}

/// The shared router. Connection threads call [`submit`](Self::submit) /
/// [`register_graph`](Self::register_graph); one thread runs [`run`](Self::run).
pub struct Router {
    queue: Mutex<Queue>,
    cv: Condvar,
    store: Arc<PolicyStore>,
    graphs: Mutex<GraphRegistry>,
    default_machine: (Arc<Machine>, u64),
    cfg: RouterConfig,
    recorder: Recorder,
    stop: AtomicBool,
    /// EWMA of recent wave service time in microseconds, feeding the
    /// `retry_after_ms` hint on `Overloaded` replies.
    wave_us: AtomicU64,
}

fn machine_fingerprint(machine: &Machine) -> u64 {
    let json = serde_json::to_string(machine).expect("machine serializes");
    fnv1a64(json.as_bytes())
}

fn graph_fingerprint(graph: &OpGraph) -> u64 {
    fnv1a64(graph.to_json().as_bytes())
}

/// Re-validates a wire-supplied machine through the builder, yielding the same
/// typed errors local construction would.
fn validated_machine(machine: Machine) -> Result<Machine, EagleError> {
    let mut b = Machine::builder()
        .link_bandwidth(machine.link_bandwidth)
        .transfer_latency(machine.transfer_latency);
    for d in machine.devices {
        b = b.device(d);
    }
    Ok(b.build()?)
}

impl Router {
    /// Builds a router serving policies from `store`.
    pub fn new(store: Arc<PolicyStore>, cfg: RouterConfig, recorder: Recorder) -> Arc<Self> {
        let machine = Machine::paper_machine();
        let fp = machine_fingerprint(&machine);
        Arc::new(Self {
            queue: Mutex::new(Queue::default()),
            cv: Condvar::new(),
            store,
            graphs: Mutex::new(GraphRegistry::default()),
            default_machine: (Arc::new(machine), fp),
            cfg,
            recorder,
            stop: AtomicBool::new(false),
            wave_us: AtomicU64::new(0),
        })
    }

    /// The per-family queue quota actually enforced: `family_quota`, clamped to
    /// the shared bound; `0` means no separate per-family limit.
    fn effective_family_quota(&self) -> usize {
        match self.cfg.family_quota {
            0 => self.cfg.queue_capacity,
            q => q.min(self.cfg.queue_capacity),
        }
    }

    /// Estimates how long a shed client should wait before retrying: the
    /// number of waves queued ahead times the recent per-wave service time
    /// (coalesce window included), floored at 1 ms so clients never spin.
    fn retry_after_hint_ms(&self, queued: usize) -> u64 {
        let wave_us = self.wave_us.load(Ordering::Relaxed);
        let per_wave_us = wave_us + self.cfg.coalesce.as_micros() as u64;
        let waves_ahead = (queued / self.cfg.max_wave.max(1)) as u64 + 1;
        (waves_ahead * per_wave_us / 1000).max(1)
    }

    /// Publishes the shared and per-family queue-depth gauges. Called with the
    /// queue lock held so the gauges never go backwards against each other.
    fn publish_depth_gauges(&self, q: &Queue, family: &str) {
        self.recorder.gauge("serve.queue_depth", q.pending.len() as f64);
        let fam_depth = q.per_family.get(family).copied().unwrap_or(0);
        self.recorder.gauge(format!("serve.queue_depth.{family}"), fam_depth as f64);
    }

    /// The router's telemetry recorder.
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// Validates ([`OpGraph::validate`]) and registers `graph`, returning its
    /// content-addressed key. Registering the same graph twice returns the
    /// same key.
    pub fn register_graph(&self, graph: OpGraph) -> Result<String, EagleError> {
        graph.validate().map_err(|e| EagleError::BadRequest(e.to_string()))?;
        let key = format!("{:016x}", graph_fingerprint(&graph));
        let mut reg = self.graphs.lock().expect("graph registry lock");
        if !reg.by_key.contains_key(&key) {
            while reg.order.len() >= GRAPH_CAPACITY {
                if let Some(old) = reg.order.pop_front() {
                    reg.by_key.remove(&old);
                }
            }
            reg.by_key.insert(key.clone(), Arc::new(graph));
            reg.order.push_back(key.clone());
            self.recorder.add("serve.graphs_registered", 1);
        }
        Ok(key)
    }

    /// Validates `req` and enqueues it for the next wave. Returns the channel
    /// the (single) reply arrives on; validation failures are returned
    /// immediately instead of occupying wave capacity.
    pub fn submit(&self, req: PlaceRequest) -> Result<mpsc::Receiver<PlaceResponse>, EagleError> {
        let candidates = match req.candidates {
            0 => DEFAULT_CANDIDATES,
            k if k <= MAX_CANDIDATES => k,
            k => {
                return Err(EagleError::BadRequest(format!(
                    "candidates {k} exceeds the server cap {MAX_CANDIDATES}"
                )))
            }
        };
        let (graph, graph_fp) = match (&req.graph, &req.graph_key) {
            (Some(_), Some(_)) => {
                return Err(EagleError::BadRequest(
                    "set either `graph` or `graph_key`, not both".into(),
                ))
            }
            (None, None) => {
                return Err(EagleError::BadRequest("one of `graph`/`graph_key` required".into()))
            }
            (Some(g), None) => {
                g.validate().map_err(|e| EagleError::BadRequest(e.to_string()))?;
                (Arc::new(g.clone()), graph_fingerprint(g))
            }
            (None, Some(key)) => {
                let reg = self.graphs.lock().expect("graph registry lock");
                match reg.by_key.get(key) {
                    Some(g) => {
                        let fp = u64::from_str_radix(key, 16)
                            .expect("registered keys are hex fingerprints");
                        (g.clone(), fp)
                    }
                    None => return Err(EagleError::UnknownGraphKey(key.clone())),
                }
            }
        };
        let (machine, machine_fp) = match &req.machine {
            None => (self.default_machine.0.clone(), self.default_machine.1),
            Some(m) => {
                let m = validated_machine(m.clone())?;
                let fp = machine_fingerprint(&m);
                (Arc::new(m), fp)
            }
        };
        let enqueued = Instant::now();
        let deadline = match req.deadline_ms {
            // A zero budget can never survive even an empty queue's coalesce
            // window; shed it at admission rather than let it occupy a slot.
            Some(0) => {
                self.recorder.add("serve.deadline_exceeded", 1);
                self.recorder.add("serve.shed", 1);
                return Err(EagleError::DeadlineExceeded(
                    "deadline_ms 0 expires before any wave can run".into(),
                ));
            }
            Some(ms) => Some(enqueued + Duration::from_millis(ms)),
            None => None,
        };
        let (tx, rx) = mpsc::channel();
        // No family preference means "answer with the generalist policy": the
        // zero-shot path for graphs no dedicated family was trained on.
        let family = req.family.clone().unwrap_or_else(|| GENERALIST_FAMILY.to_string());
        let pending = Pending {
            req,
            family: family.clone(),
            candidates,
            graph,
            graph_fp,
            machine,
            machine_fp,
            reply: tx,
            enqueued,
            deadline,
        };
        {
            // Admission gate: bounded shared queue, then the per-family quota.
            // Both reject with a typed `Overloaded` carrying a retry hint —
            // the request never occupies a slot, so a burst costs O(capacity)
            // memory and admitted requests keep a bounded wait.
            let mut q = self.queue.lock().expect("router queue lock");
            let depth = q.pending.len();
            let quota = self.effective_family_quota();
            let fam_queued = q.per_family.get(&family).copied().unwrap_or(0);
            let full = if depth >= self.cfg.queue_capacity {
                Some((depth, self.cfg.queue_capacity))
            } else if fam_queued >= quota {
                Some((fam_queued, quota))
            } else {
                None
            };
            if let Some((queued, capacity)) = full {
                drop(q);
                self.recorder.add("serve.overloaded", 1);
                self.recorder.add("serve.shed", 1);
                let retry_after_ms = self.retry_after_hint_ms(depth);
                return Err(EagleError::Overloaded { queued, capacity, retry_after_ms });
            }
            q.pending.push_back(pending);
            *q.per_family.entry(family.clone()).or_insert(0) += 1;
            self.publish_depth_gauges(&q, &family);
        }
        self.cv.notify_one();
        Ok(rx)
    }

    /// Asks the router loop to exit after the current wave.
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst);
        self.cv.notify_all();
    }

    /// The router loop: runs until [`shutdown`](Self::shutdown). Call from a
    /// dedicated thread.
    pub fn run(&self) {
        let mut agents = AgentCache::default();
        loop {
            let wave = {
                let mut q = self.queue.lock().expect("router queue lock");
                while q.pending.is_empty() {
                    if self.stop.load(Ordering::SeqCst) {
                        return;
                    }
                    let (guard, _) =
                        self.cv.wait_timeout(q, Duration::from_millis(50)).expect("router wait");
                    q = guard;
                }
                // Let concurrent arrivals join the wave — but never delay a
                // wave that is already full: at saturation the coalesce window
                // would only inflate latency without growing the batch.
                if !self.cfg.coalesce.is_zero() && q.pending.len() < self.cfg.max_wave {
                    drop(q);
                    std::thread::sleep(self.cfg.coalesce);
                    q = self.queue.lock().expect("router queue lock");
                }
                // The depth each wave starts from; its max is the bench's
                // bounded-memory witness (<= queue_capacity by admission).
                self.recorder.observe("serve.queue_depth", q.pending.len() as f64);
                let n = q.pending.len().min(self.cfg.max_wave);
                let wave: Vec<Pending> = q.pending.drain(..n).collect();
                for p in &wave {
                    if let Some(count) = q.per_family.get_mut(&p.family) {
                        *count = count.saturating_sub(1);
                        if *count == 0 {
                            q.per_family.remove(&p.family);
                        }
                    }
                }
                for p in &wave {
                    self.publish_depth_gauges(&q, &p.family);
                }
                wave
            };
            if wave.is_empty() {
                continue;
            }
            // Shed admitted requests whose deadline has already passed before
            // spending any policy or simulation work on them.
            let started = Instant::now();
            let wave = self.prune_expired(wave, started);
            if wave.is_empty() {
                continue;
            }
            self.recorder.add("serve.waves", 1);
            self.recorder.observe("serve.wave_size", wave.len() as f64);
            // A panic inside the wave (a policy that decodes what the graph
            // cannot take) must not leave its requests, or any later one,
            // unanswered: fail the wave typed and go on. A request the wave
            // had already answered ignores the second reply.
            let waiting: Vec<_> =
                wave.iter().map(|p| (p.req.id, p.reply.clone(), p.enqueued)).collect();
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                self.process_wave(wave, &mut agents)
            }));
            if outcome.is_err() {
                self.recorder.add("serve.router_panics", 1);
                let err = EagleError::Internal("the router panicked answering this wave".into());
                for (id, reply, enqueued) in waiting {
                    self.finish(&reply, enqueued, PlaceResponse::failure(id, &err));
                }
            }
            let elapsed_us = started.elapsed().as_micros() as u64;
            let old = self.wave_us.load(Ordering::Relaxed);
            self.wave_us.store((old * 3 + elapsed_us) / 4, Ordering::Relaxed);
        }
    }

    /// Replies `DeadlineExceeded` to every request in `wave` whose deadline is
    /// at or before `now`, returning the still-live remainder.
    fn prune_expired(&self, wave: Vec<Pending>, now: Instant) -> Vec<Pending> {
        let mut live = Vec::with_capacity(wave.len());
        for p in wave {
            match p.deadline {
                Some(d) if d <= now => {
                    self.recorder.add("serve.deadline_exceeded", 1);
                    self.recorder.add("serve.shed", 1);
                    let err = EagleError::DeadlineExceeded(format!(
                        "deadline_ms {} expired while queued ({} ms elapsed)",
                        p.req.deadline_ms.unwrap_or(0),
                        p.enqueued.elapsed().as_millis()
                    ));
                    self.finish(&p.reply, p.enqueued, PlaceResponse::failure(p.req.id, &err));
                }
                _ => live.push(p),
            }
        }
        live
    }

    /// Answers one wave: resolves each (family, graph, machine) group's
    /// policy and serving agent, fails a group that has none, and spreads the
    /// rest over up to `sim_workers` threads (module doc).
    fn process_wave(&self, wave: Vec<Pending>, agents: &mut AgentCache) {
        // Groups in order of first arrival.
        let mut groups: Vec<Vec<Pending>> = Vec::new();
        let key = |p: &Pending| (p.family.clone(), p.graph_fp, p.machine_fp);
        for p in wave {
            match groups.iter_mut().find(|g| key(&g[0]) == key(&p)) {
                Some(group) => group.push(p),
                None => groups.push(vec![p]),
            }
        }
        let mut work: Vec<(Arc<PolicyEntry>, Arc<EagleAgent>, Pending)> = Vec::new();
        for group in groups {
            match self.resolve(&group[0], agents) {
                Ok((entry, agent)) => {
                    // One batched decoder forward per group, whether its
                    // requests run on one thread or several.
                    self.recorder.add("serve.forwards", 1);
                    work.extend(group.into_iter().map(|p| (entry.clone(), agent.clone(), p)));
                }
                Err(e) => self.fail_group(group, &e),
            }
        }

        // One `best_of` per run of a group's requests within a share; a
        // panicking share fails the whole wave in `run`.
        let answer = |share: &[(Arc<PolicyEntry>, Arc<EagleAgent>, Pending)]| {
            let runs = share.chunk_by(|a, b| Arc::ptr_eq(&a.1, &b.1));
            let answers = runs.flat_map(|run| {
                let (entry, agent, first) = &run[0];
                let draws: Vec<(u64, usize)> =
                    run.iter().map(|(_, _, p)| (p.req.seed, p.candidates as usize)).collect();
                best_of(&**agent, &entry.params, &first.graph, &first.machine, &draws)
            });
            answers.collect::<Vec<_>>()
        };
        let share_len = work.len().div_ceil(eagle_obs::resolve_workers(self.cfg.sim_workers));
        let best =
            eagle_obs::fork_join(work.chunks(share_len.max(1)), answer).into_iter().flatten();

        for ((entry, _, p), best) in work.iter().zip(best) {
            let resp = match best {
                Some((t, placement)) => PlaceResponse {
                    schema_version: API_SCHEMA_VERSION,
                    id: p.req.id,
                    placement: Some(placement.devices().iter().map(|d| d.0).collect()),
                    predicted_step_time: Some(t),
                    policy_version: Some(entry.version.clone()),
                    error: None,
                },
                None => {
                    self.recorder.add("serve.infeasible", 1);
                    PlaceResponse::failure(
                        p.req.id,
                        &EagleError::Infeasible(format!(
                            "all {} sampled candidates exceed device memory",
                            p.candidates
                        )),
                    )
                }
            };
            self.finish(&p.reply, p.enqueued, resp);
        }
    }

    /// The policy entry and serving agent a group of `p`'s is answered with.
    /// An unknown family falls back to the generalist policy when the store
    /// publishes one — the multi-graph-trained zero-shot path. The original
    /// error is kept if the fallback also misses, so a store with no
    /// generalist reports the family the client actually asked for.
    fn resolve(
        &self,
        p: &Pending,
        agents: &mut AgentCache,
    ) -> Result<(Arc<PolicyEntry>, Arc<EagleAgent>), EagleError> {
        let entry = match self.store.get(&p.family) {
            Err(EagleError::UnknownFamily(_)) if p.family != GENERALIST_FAMILY => {
                let fallback = self.store.get(GENERALIST_FAMILY);
                let entry = fallback.map_err(|_| EagleError::UnknownFamily(p.family.clone()))?;
                self.recorder.add("serve.generalist_fallbacks", 1);
                entry
            }
            other => other?,
        };
        let agent = agents.get(&entry, p)?;
        Ok((entry, agent))
    }

    fn fail_group(&self, group: Vec<Pending>, err: &EagleError) {
        for p in group {
            self.finish(&p.reply, p.enqueued, PlaceResponse::failure(p.req.id, err));
        }
    }

    fn finish(&self, reply: &mpsc::Sender<PlaceResponse>, enqueued: Instant, resp: PlaceResponse) {
        self.recorder.add("serve.requests", 1);
        if resp.error.is_some() {
            self.recorder.add("serve.errors", 1);
        }
        self.recorder.observe("serve.latency_us", enqueued.elapsed().as_secs_f64() * 1e6);
        // A gone client (disconnected while queued) is not a router error.
        let _ = reply.send(resp);
    }
}

/// FIFO-bounded cache of serving agents, each built around a policy's
/// parameters for one (graph, machine) pair; cached because construction walks
/// the whole graph and prepares everything before the decoder loop
/// ([`EagleAgent::for_params`]).
#[derive(Default)]
struct AgentCache {
    map: HashMap<(String, String, u64, u64), Arc<EagleAgent>>,
    order: VecDeque<(String, String, u64, u64)>,
}

impl AgentCache {
    /// The serving agent for (policy entry, the request's graph and machine),
    /// built and layout-validated on first use, and rebuilt in place when the
    /// store has reloaded the same version into other tensors.
    fn get(&mut self, entry: &PolicyEntry, p: &Pending) -> Result<Arc<EagleAgent>, EagleError> {
        let key = (entry.family.clone(), entry.version.clone(), p.graph_fp, p.machine_fp);
        let cached = self.map.get(&key);
        if let Some(a) = cached.filter(|a| a.is_prepared_for(&entry.params)) {
            return Ok(a.clone());
        }
        let agent = EagleAgent::for_params(&entry.params, &p.graph, &p.machine, entry.scale)
            .map_err(|e| EagleError::PolicyMismatch(format!("policy `{}` {e}", entry.family)))?;
        let agent = Arc::new(agent);
        if cached.is_none() {
            while self.order.len() >= AGENT_CAPACITY {
                if let Some(old) = self.order.pop_front() {
                    self.map.remove(&old);
                }
            }
            self.order.push_back(key.clone());
        }
        self.map.insert(key, agent.clone());
        Ok(agent)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{publish_state, untrained_state};
    use eagle_core::AgentScale;
    use eagle_devsim::Benchmark;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("eagle-serve-router-tests").join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn serve_setup(name: &str) -> (Arc<Router>, Arc<OpGraph>, Machine, String) {
        let root = tmp(name);
        let machine = Machine::small_machine();
        let graph = Benchmark::InceptionV3.graph_for(&machine);
        let state = untrained_state(&graph, &machine, AgentScale::tiny(), 5).unwrap();
        publish_state(&root, "fam", "tiny", &state).unwrap();
        let store = Arc::new(PolicyStore::open(&root, Recorder::new()));
        let router = Router::new(store, RouterConfig::default(), Recorder::new());
        (router, Arc::new(graph), machine, "fam".to_string())
    }

    #[test]
    fn submit_validates_before_queueing() {
        let (router, graph, _machine, family) = serve_setup("validate");
        // Neither graph nor key.
        let mut req = PlaceRequest::by_key(1, &family, "0000000000000000");
        req.graph_key = None;
        assert!(matches!(router.submit(req), Err(EagleError::BadRequest(_))));
        // Unknown key.
        let req = PlaceRequest::by_key(2, &family, "ffffffffffffffff");
        assert!(matches!(router.submit(req), Err(EagleError::UnknownGraphKey(_))));
        // Over the candidate cap.
        let mut req = PlaceRequest::inline(3, &family, (*graph).clone());
        req.candidates = 10_000;
        assert!(matches!(router.submit(req), Err(EagleError::BadRequest(_))));
        // Invalid wire machine.
        let mut req = PlaceRequest::inline(4, &family, (*graph).clone());
        let mut m = Machine::small_machine();
        m.transfer_latency = 0.0;
        req.machine = Some(m);
        assert!(matches!(router.submit(req), Err(EagleError::Machine(_))));
    }

    fn serve_setup_with(
        name: &str,
        cfg: RouterConfig,
    ) -> (Arc<Router>, Arc<OpGraph>, Machine, String) {
        let root = tmp(name);
        let machine = Machine::small_machine();
        let graph = Benchmark::InceptionV3.graph_for(&machine);
        let state = untrained_state(&graph, &machine, AgentScale::tiny(), 5).unwrap();
        publish_state(&root, "fam", "tiny", &state).unwrap();
        let store = Arc::new(PolicyStore::open(&root, Recorder::new()));
        let router = Router::new(store, cfg, Recorder::new());
        (router, Arc::new(graph), machine, "fam".to_string())
    }

    /// Regression: a full wave must not sit out the coalesce window. With a
    /// 2-second window and `max_wave` requests already queued, every reply must
    /// arrive well before the window elapses — the old loop slept
    /// unconditionally and would take >2 s here.
    #[test]
    fn full_wave_skips_the_coalesce_window() {
        let cfg = RouterConfig {
            coalesce: Duration::from_secs(2),
            max_wave: 4,
            ..RouterConfig::default()
        };
        let (router, graph, machine, family) = serve_setup_with("coalesce_skip", cfg);
        let start = Instant::now();
        let rxs: Vec<_> = (0..4)
            .map(|i| {
                let mut req = PlaceRequest::inline(i, &family, (*graph).clone());
                req.machine = Some(machine.clone());
                router.submit(req).expect("admit")
            })
            .collect();
        let r = router.clone();
        let handle = std::thread::spawn(move || r.run());
        for rx in rxs {
            let resp = rx.recv_timeout(Duration::from_secs(10)).expect("reply");
            assert!(resp.error.is_none(), "wave request failed: {:?}", resp.error);
        }
        assert!(
            start.elapsed() < Duration::from_millis(1500),
            "full wave waited out the coalesce window ({:?})",
            start.elapsed()
        );
        router.shutdown();
        handle.join().unwrap();
    }

    #[test]
    fn admission_sheds_beyond_queue_capacity_with_retry_hint() {
        let cfg = RouterConfig { queue_capacity: 2, ..RouterConfig::default() };
        let (router, graph, _machine, family) = serve_setup_with("overload", cfg);
        // No router thread: the queue only fills.
        for i in 0..2 {
            router.submit(PlaceRequest::inline(i, &family, (*graph).clone())).expect("admit");
        }
        match router.submit(PlaceRequest::inline(9, &family, (*graph).clone())) {
            Err(EagleError::Overloaded { queued, capacity, retry_after_ms }) => {
                assert_eq!(queued, 2);
                assert_eq!(capacity, 2);
                assert!(retry_after_ms >= 1, "hint must be at least 1 ms");
            }
            other => panic!("expected Overloaded, got {other:?}"),
        }
        assert_eq!(router.recorder().counter_value("serve.overloaded"), 1);
        assert_eq!(router.recorder().counter_value("serve.shed"), 1);
    }

    #[test]
    fn family_quota_sheds_one_family_without_starving_others() {
        let cfg = RouterConfig { queue_capacity: 8, family_quota: 1, ..RouterConfig::default() };
        let (router, graph, _machine, family) = serve_setup_with("quota", cfg);
        router.submit(PlaceRequest::inline(1, &family, (*graph).clone())).expect("admit");
        // Second request for the same family hits the quota...
        match router.submit(PlaceRequest::inline(2, &family, (*graph).clone())) {
            Err(EagleError::Overloaded { queued, capacity, .. }) => {
                assert_eq!(queued, 1);
                assert_eq!(capacity, 1);
            }
            other => panic!("expected Overloaded, got {other:?}"),
        }
        // ...but another family still gets a seat in the shared queue
        // (admission does not require the family's policy to exist).
        router.submit(PlaceRequest::inline(3, "other", (*graph).clone())).expect("admit");
    }

    #[test]
    fn zero_deadline_is_shed_at_admission() {
        let (router, graph, _machine, family) = serve_setup("deadline_zero");
        let req = PlaceRequest::inline(1, &family, (*graph).clone()).with_deadline_ms(0);
        match router.submit(req) {
            Err(EagleError::DeadlineExceeded(_)) => {}
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        assert_eq!(router.recorder().counter_value("serve.deadline_exceeded"), 1);
        assert_eq!(router.recorder().counter_value("serve.shed"), 1);
    }

    #[test]
    fn expired_deadline_is_shed_at_wave_start() {
        let (router, graph, _machine, family) = serve_setup("deadline_expired");
        let req = PlaceRequest::inline(1, &family, (*graph).clone()).with_deadline_ms(1);
        let rx = router.submit(req).expect("a 1 ms budget is admitted");
        // Let the deadline lapse before the router thread even starts.
        std::thread::sleep(Duration::from_millis(20));
        let r = router.clone();
        let handle = std::thread::spawn(move || r.run());
        let resp = rx.recv_timeout(Duration::from_secs(10)).expect("reply");
        let err = resp.error.expect("expired request must get a typed error");
        assert_eq!(err.code, crate::api::ErrorCode::DeadlineExceeded);
        assert_eq!(err.retry_after_ms, None);
        router.shutdown();
        handle.join().unwrap();
        assert_eq!(router.recorder().counter_value("serve.deadline_exceeded"), 1);
    }

    /// A wave that panics (GNMT queued under Inception's fingerprint: the
    /// cached agent decodes a placement of the wrong length for the graph it
    /// is simulated on) answers its requests typed, is counted, and leaves
    /// the router answering the next request exactly as it did the last.
    #[test]
    fn a_panicking_wave_is_answered_typed_and_the_router_goes_on() {
        let (router, graph, machine, family) = serve_setup("wave_panic");
        let handle = {
            let r = router.clone();
            std::thread::spawn(move || r.run())
        };
        let ordinary = |id| {
            let mut req = PlaceRequest::inline(id, &family, (*graph).clone());
            req.machine = Some(machine.clone());
            router.submit(req).unwrap().recv_timeout(Duration::from_secs(10)).expect("reply")
        };
        let before = ordinary(1);
        assert!(before.error.is_none(), "{:?}", before.error);

        let gnmt = Benchmark::Gnmt.graph_for(&machine);
        let (tx, rx) = mpsc::channel();
        let poisoned = Pending {
            req: PlaceRequest::inline(2, &family, gnmt.clone()),
            family: family.clone(),
            candidates: 1,
            graph: Arc::new(gnmt),
            graph_fp: graph_fingerprint(&graph),
            machine_fp: machine_fingerprint(&machine),
            machine: Arc::new(machine.clone()),
            reply: tx,
            enqueued: Instant::now(),
            deadline: None,
        };
        router.queue.lock().unwrap().pending.push_back(poisoned);
        router.cv.notify_one();
        let failed = rx.recv_timeout(Duration::from_secs(10)).expect("a typed reply, not a hang");
        assert_eq!(failed.id, 2);
        assert_eq!(failed.error.expect("typed failure").code, crate::api::ErrorCode::Internal);
        assert_eq!(router.recorder().counter_value("serve.router_panics"), 1);
        assert_eq!(router.recorder().counter_value("serve.errors"), 1);

        let after = ordinary(1);
        let line = |r: PlaceResponse| crate::api::encode_response(&crate::api::Response::Place(r));
        assert_eq!(line(after), line(before), "the router answers on, bit-identically");
        assert_eq!(router.recorder().counter_value("serve.requests"), 3);
        router.shutdown();
        handle.join().unwrap();
    }

    /// A router over two families on the small machine: `fam` serves
    /// Inception-V3 and `gnmt` GNMT, both untrained at tiny scale.
    fn two_family_router(name: &str, sim_workers: usize) -> (Arc<Router>, Machine, [OpGraph; 2]) {
        let root = tmp(name);
        let machine = Machine::small_machine();
        let graphs = [Benchmark::InceptionV3, Benchmark::Gnmt].map(|b| b.graph_for(&machine));
        for (family, graph) in ["fam", "gnmt"].into_iter().zip(&graphs) {
            let state = untrained_state(graph, &machine, AgentScale::tiny(), 5).unwrap();
            publish_state(&root, family, "tiny", &state).unwrap();
        }
        let store = Arc::new(PolicyStore::open(&root, Recorder::new()));
        let cfg = RouterConfig { sim_workers, ..RouterConfig::default() };
        (Router::new(store, cfg, Recorder::new()), machine, graphs)
    }

    /// Queues `reqs` (admitted by `submit` on a router that never runs)
    /// followed by `extra` on `router` under one lock, so its running loop
    /// cuts them as one wave.
    fn queue_one_wave(
        router: &Router,
        reqs: &[PlaceRequest],
        extra: Vec<Pending>,
    ) -> Vec<mpsc::Receiver<PlaceResponse>> {
        let staging = Router::new(router.store.clone(), router.cfg.clone(), Recorder::new());
        let rxs = reqs.iter().map(|r| staging.submit(r.clone()).expect("admit")).collect();
        let mut wave = std::mem::take(&mut staging.queue.lock().unwrap().pending);
        wave.extend(extra);
        router.queue.lock().unwrap().pending.extend(wave);
        router.cv.notify_one();
        rxs
    }

    fn reply_line(rx: mpsc::Receiver<PlaceResponse>) -> String {
        let resp = rx.recv_timeout(Duration::from_secs(30)).expect("a reply, not a hang");
        crate::api::encode_response(&crate::api::Response::Place(resp))
    }

    /// One wave of both families, assorted seeds and candidate counts, spread
    /// over 1, 2 and 3 threads: every reply line is byte for byte the line
    /// the same request gets alone.
    #[test]
    fn a_wave_on_any_thread_count_answers_each_request_as_alone() {
        for workers in [1, 2, 3] {
            let (router, machine, graphs) =
                two_family_router(&format!("spread_{workers}"), workers);
            let handle = {
                let r = router.clone();
                std::thread::spawn(move || r.run())
            };
            let reqs: Vec<PlaceRequest> = (0..7u64)
                .map(|i| {
                    let f = usize::from(i % 3 == 1);
                    PlaceRequest {
                        seed: 31 * i + workers as u64,
                        candidates: [1, 4, 0, 6][i as usize % 4],
                        machine: Some(machine.clone()),
                        ..PlaceRequest::inline(i, ["fam", "gnmt"][f], graphs[f].clone())
                    }
                })
                .collect();
            let waved: Vec<String> =
                queue_one_wave(&router, &reqs, vec![]).into_iter().map(reply_line).collect();
            assert_eq!(router.recorder().counter_value("serve.waves"), 1);
            assert_eq!(router.recorder().counter_value("serve.errors"), 0);
            for (req, waved) in reqs.iter().zip(waved) {
                let alone = reply_line(router.submit(req.clone()).expect("admit"));
                assert_eq!(waved, alone, "request {} at {workers} threads", req.id);
            }
            router.shutdown();
            handle.join().unwrap();
        }
    }

    /// A poisoned request (as in
    /// `a_panicking_wave_is_answered_typed_and_the_router_goes_on`) in the
    /// second of two shares, behind two GNMT requests: every request of its
    /// wave is answered, nothing hangs, and the router answers on
    /// bit-identically.
    #[test]
    fn a_poisoned_request_in_a_later_share_fails_its_wave_typed() {
        let (router, machine, [inception, gnmt]) = two_family_router("spread_panic", 2);
        let handle = {
            let r = router.clone();
            std::thread::spawn(move || r.run())
        };
        let on_small = |req: PlaceRequest| PlaceRequest { machine: Some(machine.clone()), ..req };
        let ordinary = || {
            let req = on_small(PlaceRequest::inline(1, "fam", inception.clone()));
            reply_line(router.submit(req).expect("admit"))
        };
        let before = ordinary();
        assert!(!before.contains("\"error\":{"), "{before}");

        let reqs: Vec<PlaceRequest> = (10..12)
            .map(|id| {
                on_small(PlaceRequest {
                    seed: id,
                    ..PlaceRequest::inline(id, "gnmt", gnmt.clone())
                })
            })
            .collect();
        let alone: Vec<String> =
            reqs.iter().map(|r| reply_line(router.submit(r.clone()).expect("admit"))).collect();
        let (tx, poisoned_rx) = mpsc::channel();
        let poisoned = Pending {
            req: PlaceRequest::inline(2, "fam", gnmt.clone()),
            family: "fam".into(),
            candidates: 1,
            graph: Arc::new(gnmt.clone()),
            graph_fp: graph_fingerprint(&inception),
            machine_fp: machine_fingerprint(&machine),
            machine: Arc::new(machine.clone()),
            reply: tx,
            enqueued: Instant::now(),
            deadline: None,
        };
        let rxs = queue_one_wave(&router, &reqs, vec![poisoned]);
        let internal = |line: &str| line.contains(r#""code":"Internal""#);
        assert!(internal(&reply_line(poisoned_rx)));
        for (rx, alone) in rxs.into_iter().zip(alone) {
            // Failed typed with the wave, or, where replies go out group by
            // group, answered before the panic: never dropped or mixed up.
            let line = reply_line(rx);
            assert!(internal(&line) || line == alone, "{line}");
        }
        assert_eq!(router.recorder().counter_value("serve.router_panics"), 1);
        assert_eq!(ordinary(), before, "the router answers on, bit-identically");
        router.shutdown();
        handle.join().unwrap();
    }

    /// A rollback republishes a version the cache has an agent for, loaded
    /// into new tensors: the cached agent is rebuilt around them in place of
    /// running every later request through the unprepared forward.
    #[test]
    fn a_rolled_back_version_gets_its_agent_rebuilt_in_place() {
        let root = tmp("rollback");
        let machine = Machine::small_machine();
        let graph = Benchmark::InceptionV3.graph_for(&machine);
        let publish = |seed| {
            let state = untrained_state(&graph, &machine, AgentScale::tiny(), seed).unwrap();
            publish_state(&root, "fam", "tiny", &state).unwrap()
        };
        let store = PolicyStore::open(&root, Recorder::new());
        let (tx, _rx) = mpsc::channel();
        let p = Pending {
            req: PlaceRequest::inline(1, "fam", graph.clone()),
            family: "fam".into(),
            candidates: 1,
            graph_fp: graph_fingerprint(&graph),
            graph: Arc::new(graph.clone()),
            machine_fp: machine_fingerprint(&machine),
            machine: Arc::new(machine.clone()),
            reply: tx,
            enqueued: Instant::now(),
            deadline: None,
        };
        let mut agents = AgentCache::default();
        let v1 = publish(5);
        let first = store.get("fam").unwrap();
        assert!(agents.get(&first, &p).unwrap().is_prepared_for(&first.params));
        publish(6);
        let second = store.get("fam").unwrap();
        assert!(agents.get(&second, &p).unwrap().is_prepared_for(&second.params));
        assert_eq!(publish(5), v1);
        let rolled_back = store.get("fam").unwrap();
        assert_eq!(rolled_back.version, v1);
        let agent = agents.get(&rolled_back, &p).unwrap();
        assert!(agent.is_prepared_for(&rolled_back.params));
        assert!(!agent.is_prepared_for(&first.params), "rebuilt, not the old agent");
        assert_eq!((agents.map.len(), agents.order.len()), (2, 2), "replaced, not added");
    }

    #[test]
    fn register_graph_is_content_addressed() {
        let (router, graph, _, _) = serve_setup("register");
        let k1 = router.register_graph((*graph).clone()).unwrap();
        let k2 = router.register_graph((*graph).clone()).unwrap();
        assert_eq!(k1, k2);
        assert!(matches!(
            router.register_graph(OpGraph::new("empty")),
            Err(EagleError::BadRequest(_))
        ));
    }

    /// Wire graphs whose adjacency tables do not fit their nodes are refused
    /// typed, by registration and by inline submission alike.
    #[test]
    fn malformed_adjacency_is_a_bad_request() {
        use eagle_opgraph::{OpKind, OpNode, Phase};
        let (router, _, _, family) = serve_setup("malformed");
        let mut chain = OpGraph::new("chain");
        let a = chain.add_node(OpNode::new("a", OpKind::Input, Phase::Forward));
        let b = chain.add_node(OpNode::new("b", OpKind::MatMul, Phase::Forward));
        chain.add_edge(a, b);
        let json = chain.to_json();
        for succs in [r#""succs":[[7],[]]"#, r#""succs":[[1]]"#] {
            let bad = OpGraph::from_json(&json.replace(r#""succs":[[1],[]]"#, succs)).unwrap();
            assert!(matches!(router.register_graph(bad.clone()), Err(EagleError::BadRequest(_))));
            let req = PlaceRequest::inline(1, &family, bad);
            assert!(matches!(router.submit(req), Err(EagleError::BadRequest(_))));
        }
    }
}
