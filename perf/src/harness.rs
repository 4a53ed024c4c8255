//! What every workload shares: the metric tables, slice statistics, the span
//! tracer, and the run record printed next to the medians.

use std::path::PathBuf;
use std::time::Instant;

/// One metric the benchmark emits, with the unit it is printed in.
/// `BENCHMARK.json` lists the same rows plus what only the driver reads
/// (direction, bound); `tests/smoke.rs` holds the names and units to it.
pub struct Spec {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn spec(name: &'static str, unit: &'static str) -> Spec {
    Spec { name, unit }
}

/// End-to-end metrics: every workload emits every one from its untraced run.
/// What each measures per workload is the table in README.md.
pub const END_TO_END: &[Spec] = &[
    spec("setup_s", "s"),
    spec("peak_rss_mb", "MB"),
    spec("ops_per_s", "1/s"),
    spec("op_p50_ms", "ms"),
    // Simulated seconds; the others are host time.
    spec("step_time_s", "s"),
];

/// Per-layer metrics (layer = crate, the prefix before the dot): every
/// traced run emits every one; `main` says where those come from that the
/// workload's own trace does not measure.
pub const PER_LAYER: &[Spec] = &[
    spec("opgraph.build_s", "s"),
    spec("opgraph.features_s", "s"),
    spec("tensor.matmul_gate_gflops", "GFLOP/s"),
    spec("tensor.matmul_grouper_gflops", "GFLOP/s"),
    spec("tensor.backward_adam_s", "s"),
    spec("nn.agent_build_s", "s"),
    spec("nn.infer_build_s", "s"),
    spec("nn.sample_batch_s", "s"),
    spec("nn.score_batch_s", "s"),
    spec("nn.infer_forward_s", "s"),
    spec("rl.update_s", "s"),
    spec("rl.updates", "count"),
    spec("devsim.simulate_small_us", "us"),
    spec("devsim.simulate_large_us", "us"),
    spec("devsim.cache_lookup_us", "us"),
    spec("devsim.evaluate_batch_s", "s"),
    spec("devsim.events_per_s", "1/s"),
    spec("devsim.events_per_eval", "count"),
    spec("devsim.cache_hit_rate", "ratio"),
    spec("devsim.oom_share", "ratio"),
    spec("core.decode_batch_s", "s"),
    spec("core.loop_overhead_share", "ratio"),
    spec("core.invalid_share", "ratio"),
    spec("core.samples_to_quality", "count"),
    spec("serve.tcp_roundtrip_ms", "ms"),
    spec("serve.submit_roundtrip_ms", "ms"),
    spec("serve.wire_ms", "ms"),
    spec("serve.decode_request_us", "us"),
    spec("serve.encode_response_us", "us"),
    spec("serve.router_overhead_ms", "ms"),
    spec("serve.forwards_per_request", "ratio"),
    spec("serve.wave_size_mean", "count"),
    spec("serve.queue_depth_max", "count"),
    spec("serve.errors", "count"),
    spec("serve.shed", "count"),
    spec("serve.closed_p50_ms", "ms"),
    spec("serve.p90_ms", "ms"),
    spec("serve.p99_ms", "ms"),
    spec("serve.late_share", "ratio"),
    spec("serve.register_graph_ms", "ms"),
    spec("serve.inline_place_ms", "ms"),
    spec("serve.store_get_us", "us"),
    spec("obs.traced_share", "ratio"),
    spec("obs.trace_overhead_share", "ratio"),
];

/// How big a run is: the timed seconds, and whether the fixed-size parts
/// (sample budgets, graph size, repeat counts) are cut to about 1/20.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    pub seconds: f64,
    pub smoke: bool,
}

impl Size {
    /// `--smoke`: the same code at about 1/20 size on a short clock of its own.
    pub const SMOKE: Size = Size { seconds: 1.0, smoke: true };

    /// `full` normally, `smoke` under `--smoke`.
    pub fn pick<T>(&self, full: T, smoke: T) -> T {
        if self.smoke {
            smoke
        } else {
            full
        }
    }
}

/// What a workload hands back to `main`.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted, output checks included.
    pub attempted: u64,
    /// Operations or checks that failed.
    pub failed: u64,
    /// `(metric name, value)`; names come from the table the run mode selects.
    pub metrics: Vec<(&'static str, f64)>,
    /// Free-form record lines: slice values, checksums, counts.
    pub notes: Vec<String>,
    /// Traced runs only: traced time over untraced time, one ratio per pair
    /// of units that did the same work next to each other.
    pub trace_pairs: Vec<f64>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Counts one output check; a failing one is reported on stderr.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("CHECK FAILED: {}", what());
        }
    }
}

/// How far in from its good end a set of per-slice values is read: at the
/// quartile. The box this runs on is a few cores of a shared host and slows by
/// a third to a half for seconds at a time; what the code costs is what the
/// slices cost that the host left alone. Over the ten-seed sets in README.md
/// (Steadiness) the quartile spread least from run to run: the median moves
/// with the share of a run that was disturbed, and the tenth or the best slice
/// with how lucky the luckiest slices were.
const QUIET: f64 = 0.25;

/// Per-slice values of one figure, in time order. A gated figure is read at
/// the quiet end ([`QUIET`]): a disturbed stretch moves the slices it falls
/// in, not the reported number.
pub struct Slices {
    pub values: Vec<f64>,
}

impl Slices {
    /// For times: the lower quartile of the slices.
    pub fn quiet_low(&self) -> f64 {
        quantile(&self.values, QUIET)
    }

    /// For rates: the upper quartile of the slices.
    pub fn quiet_high(&self) -> f64 {
        quantile(&self.values, 1.0 - QUIET)
    }

    pub fn describe(&self, what: &str) -> String {
        let list: Vec<String> = self.values.iter().map(|v| format!("{v:.4}")).collect();
        format!(
            "{what}: n={} slices, lower quartile {:.4}, median {:.4}, upper quartile {:.4} [{}]",
            self.values.len(),
            self.quiet_low(),
            quantile(&self.values, 0.5),
            self.quiet_high(),
            list.join(", ")
        )
    }
}

/// Linear-interpolated quantile of unsorted values (`q` in 0..=1).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The `q` quantile of each slice of `per` consecutive `values` (in the order
/// given, which callers keep as time order; a shorter tail is left out). The
/// percentile is taken inside a slice, so the code's own spread from one
/// operation to the next is in it; the host's slow stretches are between
/// slices, and [`Slices::quiet_low`] reads past them.
pub fn quantile_by_slice(values: &[f64], per: usize, q: f64) -> Slices {
    Slices { values: slices(values, per).map(|chunk| quantile(chunk, q)).collect() }
}

/// `values` cut into slices of `per` consecutive ones. A smoke-size run may
/// hold less than one slice: all of it is one then.
pub fn slices(values: &[f64], per: usize) -> impl Iterator<Item = &[f64]> {
    values.chunks_exact(per.clamp(1, values.len().max(1)))
}

/// Completions bucketed into `n` equal wall-time slices of a phase, each with
/// the busy time to divide by: a rate per slice.
pub struct RateSlices {
    start: Instant,
    slice_s: f64,
    /// `(operations, busy seconds)` per slice.
    acc: Vec<(f64, f64)>,
}

impl RateSlices {
    pub fn new(start: Instant, phase_s: f64, n: usize) -> Self {
        Self { start, slice_s: phase_s / n as f64, acc: vec![(0.0, 0.0); n] }
    }

    /// Credits `ops` operations that took `busy_s` to the slice `at` falls in;
    /// work that ends past the phase goes to the last slice.
    pub fn add(&mut self, at: Instant, ops: f64, busy_s: f64) {
        let i = (at.duration_since(self.start).as_secs_f64() / self.slice_s) as usize;
        let last = self.acc.len() - 1;
        let slot = &mut self.acc[i.min(last)];
        slot.0 += ops;
        slot.1 += busy_s;
    }

    /// Operations per busy second, one value per non-empty slice.
    pub fn per_busy_second(&self) -> Slices {
        Slices { values: self.acc.iter().filter(|(_, b)| *b > 0.0).map(|(o, b)| o / b).collect() }
    }
}

/// Completion rate over `n` equal-count slices of completion times (seconds
/// since `0.0`, any order): each slice's count over the time it spans.
pub fn rates_by_count(mut done_at_s: Vec<f64>, n: usize) -> Slices {
    done_at_s.sort_by(f64::total_cmp);
    let per = (done_at_s.len() / n).max(1);
    let mut from = 0.0;
    let values = done_at_s
        .chunks_exact(per)
        .map(|chunk| {
            let to = chunk[per - 1];
            let rate = per as f64 / (to - from);
            from = to;
            rate
        })
        .collect();
    Slices { values }
}

/// One traced interval. `parent` indexes the enclosing span; `op` ties the
/// spans of one operation (minibatch, request, evaluation) together.
pub struct SpanRec {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
}

/// In-memory span recorder for the traced run. Spans are taken here, in the
/// benchmark's own code, around each call into a layer's public functions.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<SpanRec>,
    open: Vec<usize>,
    /// Time spent in [`Tracer::reference`]: untraced work a traced run does
    /// only to have something to hold the traced work against.
    reference_s: f64,
}

impl Tracer {
    pub fn new() -> Self {
        Self { epoch: Instant::now(), spans: Vec::new(), open: Vec::new(), reference_s: 0.0 }
    }

    /// Runs `f` untraced and returns its result with the seconds it took.
    pub fn reference<T>(&mut self, f: impl FnOnce() -> T) -> (T, f64) {
        let t0 = Instant::now();
        let out = f();
        let s = t0.elapsed().as_secs_f64();
        self.reference_s += s;
        (out, s)
    }

    /// Share of the run's wall time, reference work aside, inside named spans.
    pub fn traced_share(&self) -> f64 {
        self.covered_s() / (self.epoch.elapsed().as_secs_f64() - self.reference_s)
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` (`<layer>.<function>`), nested
    /// under whichever span is open.
    pub fn span<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce(&mut Self) -> T) -> T {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(SpanRec {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    fn duration_s(&self, id: usize) -> f64 {
        (self.spans[id].end_ns - self.spans[id].start_ns) as f64 * 1e-9
    }

    /// Durations of every span with this name, in seconds.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        (0..self.spans.len())
            .filter(|&i| self.spans[i].name == name)
            .map(|i| self.duration_s(i))
            .collect()
    }

    /// Summed duration of every span with this name.
    pub fn total(&self, name: &str) -> f64 {
        self.durations(name).iter().sum()
    }

    /// Self time per layer (the span name's prefix): a span's duration minus
    /// its direct children, summed over the layer's spans. `perf` is the
    /// benchmark's own work: generating inputs and checking outputs.
    pub fn self_time_by_layer(&self) -> Vec<(&'static str, f64)> {
        let mut own: Vec<f64> = (0..self.spans.len()).map(|i| self.duration_s(i)).collect();
        for i in 0..self.spans.len() {
            if let Some(p) = self.spans[i].parent {
                own[p] -= self.duration_s(i);
            }
        }
        let mut layers: Vec<(&'static str, f64)> = Vec::new();
        for (s, t) in self.spans.iter().zip(own) {
            let layer = s.name.split('.').next().unwrap_or(s.name);
            match layers.iter_mut().find(|(l, _)| *l == layer) {
                Some(slot) => slot.1 += t,
                None => layers.push((layer, t)),
            }
        }
        layers
    }

    /// Total time covered by top-level spans.
    pub fn covered_s(&self) -> f64 {
        (0..self.spans.len())
            .filter(|&i| self.spans[i].parent.is_none())
            .map(|i| self.duration_s(i))
            .sum()
    }

    /// Writes the spans to `out/trace_<workload>.json` and returns the path.
    pub fn write(&self, workload: &str) -> std::io::Result<PathBuf> {
        let mut s = String::from("[\n");
        for (i, sp) in self.spans.iter().enumerate() {
            let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
            s.push_str(&format!(
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}{}\n",
                sp.name,
                sp.start_ns,
                sp.end_ns,
                sp.op,
                if i + 1 < self.spans.len() { "," } else { "" }
            ));
        }
        s.push_str("]\n");
        let dir = out_dir();
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("trace_{workload}.json"));
        std::fs::write(&path, s)?;
        Ok(path)
    }
}

/// `perf/out/`: traces and the serve store's scratch directory (git-ignored).
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Peak resident set of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Cores the OS reports.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The worker count the benchmark pins every pool to: load is sized for a
/// 2-core box, so more cores never mean more threads.
pub fn workers() -> usize {
    nproc().min(2)
}

/// splitmix64: derives the independent seeds (trainer, environment, request)
/// a workload needs from `--seed`.
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
