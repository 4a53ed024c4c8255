//! The recording handle threaded through trainer, environment and RL updates.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::histogram::{Histogram, HistogramSnapshot};

/// A metric name: a `&'static str` on hot paths (no allocation), or an owned
/// `String` for names built at runtime (e.g. the serving daemon's per-family
/// `serve.queue_depth.<family>` gauges).
pub type MetricName = Cow<'static, str>;

/// One completed span: a named, timed scope (e.g. one minibatch's decode phase).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpanEvent {
    /// Span name (also the histogram its duration was recorded into).
    pub name: &'static str,
    /// 1-based occurrence index of this span name.
    pub seq: u64,
    /// Wall-clock duration in microseconds.
    pub micros: f64,
}

#[derive(Debug, Default)]
struct State {
    counters: BTreeMap<MetricName, u64>,
    gauges: BTreeMap<MetricName, f64>,
    histograms: BTreeMap<MetricName, Histogram>,
    spans: Vec<SpanEvent>,
}

#[derive(Debug)]
struct Inner {
    state: Mutex<State>,
}

/// A cloneable telemetry handle.
///
/// Clones share one underlying store, so the same recorder can live in the
/// environment, the trainer and every RL algorithm at once and produce a
/// single coherent stream. The default recorder is *disabled*: every method
/// is a no-op behind one `Option` check, no clock is read, nothing is
/// allocated — instrumented code needs no `if telemetry` branches of its own.
///
/// All methods take `&self` and the store is internally synchronized, so
/// recording from rollout worker threads is safe. Determinism note: the
/// recorder never feeds back into the code it observes, so enabling it
/// cannot change curves, placements or cache behavior.
#[derive(Debug, Clone, Default)]
pub struct Recorder {
    inner: Option<Arc<Inner>>,
}

impl Recorder {
    /// Creates an enabled recorder with an empty store.
    pub fn new() -> Self {
        Self { inner: Some(Arc::new(Inner { state: Mutex::new(State::default()) })) }
    }

    /// Creates a disabled recorder: all operations are no-ops (same as
    /// `Recorder::default()`).
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// True when this recorder actually stores anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    fn with_state<R>(&self, f: impl FnOnce(&mut State) -> R) -> Option<R> {
        self.inner
            .as_ref()
            .map(|inner| f(&mut inner.state.lock().expect("telemetry store poisoned")))
    }

    /// Adds `delta` to the named monotonic counter.
    pub fn add(&self, name: impl Into<MetricName>, delta: u64) {
        self.with_state(|s| *s.counters.entry(name.into()).or_insert(0) += delta);
    }

    /// Sets the named gauge to its latest value.
    pub fn gauge(&self, name: impl Into<MetricName>, value: f64) {
        self.with_state(|s| {
            s.gauges.insert(name.into(), value);
        });
    }

    /// Records one observation into the named histogram.
    pub fn observe(&self, name: impl Into<MetricName>, value: f64) {
        self.with_state(|s| s.histograms.entry(name.into()).or_default().record(value));
    }

    /// Opens a timed scope. When the returned guard drops, the elapsed time in
    /// microseconds is recorded into the histogram `name` and appended to the
    /// span-event stream. On a disabled recorder no clock is read. The guard
    /// owns a handle to the store, so it can outlive borrows of the recorder.
    #[must_use = "a span records its duration when dropped; binding it to _ discards the timing"]
    pub fn span(&self, name: &'static str) -> Span {
        Span { active: self.inner.clone().map(|inner| (inner, name, Instant::now())) }
    }

    /// Current value of a counter (0 when absent or disabled).
    pub fn counter_value(&self, name: &str) -> u64 {
        self.with_state(|s| s.counters.get(name).copied().unwrap_or(0)).unwrap_or(0)
    }

    /// Current value of a gauge, if set.
    pub fn gauge_value(&self, name: &str) -> Option<f64> {
        self.with_state(|s| s.gauges.get(name).copied()).flatten()
    }

    /// Snapshot of a histogram, if any observation was recorded.
    pub fn histogram(&self, name: &str) -> Option<HistogramSnapshot> {
        self.with_state(|s| s.histograms.get(name).map(Histogram::snapshot)).flatten()
    }

    /// All counters, sorted by name.
    pub fn counters(&self) -> Vec<(MetricName, u64)> {
        self.with_state(|s| s.counters.iter().map(|(k, &v)| (k.clone(), v)).collect())
            .unwrap_or_default()
    }

    /// All gauges, sorted by name.
    pub fn gauges(&self) -> Vec<(MetricName, f64)> {
        self.with_state(|s| s.gauges.iter().map(|(k, &v)| (k.clone(), v)).collect())
            .unwrap_or_default()
    }

    /// Snapshots of all histograms, sorted by name.
    pub fn histograms(&self) -> Vec<(MetricName, HistogramSnapshot)> {
        self.with_state(|s| s.histograms.iter().map(|(k, h)| (k.clone(), h.snapshot())).collect())
            .unwrap_or_default()
    }

    /// All completed spans, in completion order.
    pub fn spans(&self) -> Vec<SpanEvent> {
        self.with_state(|s| s.spans.clone()).unwrap_or_default()
    }
}

/// Guard returned by [`Recorder::span`]; records the scope's duration on drop.
#[derive(Debug)]
pub struct Span {
    active: Option<(Arc<Inner>, &'static str, Instant)>,
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some((inner, name, start)) = self.active.take() {
            let micros = start.elapsed().as_secs_f64() * 1e6;
            let mut s = inner.state.lock().expect("telemetry store poisoned");
            let h = s.histograms.entry(Cow::Borrowed(name)).or_default();
            h.record(micros);
            let seq = h.count();
            s.spans.push(SpanEvent { name, seq, micros });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_is_inert() {
        let r = Recorder::disabled();
        r.add("c", 5);
        r.gauge("g", 1.0);
        r.observe("h", 2.0);
        drop(r.span("s"));
        assert!(!r.is_enabled());
        assert_eq!(r.counter_value("c"), 0);
        assert_eq!(r.gauge_value("g"), None);
        assert!(r.histogram("h").is_none());
        assert!(r.spans().is_empty());
        assert!(r.counters().is_empty());
    }

    #[test]
    fn counters_gauges_histograms_accumulate() {
        let r = Recorder::new();
        r.add("evals", 2);
        r.add("evals", 3);
        r.gauge("wall", 1.0);
        r.gauge("wall", 7.5);
        r.observe("t", 10.0);
        r.observe("t", 20.0);
        assert_eq!(r.counter_value("evals"), 5);
        assert_eq!(r.gauge_value("wall"), Some(7.5));
        let h = r.histogram("t").unwrap();
        assert_eq!(h.count, 2);
        assert_eq!(h.sum, 30.0);
    }

    #[test]
    fn runtime_built_names_work_alongside_static_ones() {
        let r = Recorder::new();
        r.gauge("serve.queue_depth", 3.0);
        for fam in ["inception_v3", "gnmt"] {
            r.gauge(format!("serve.queue_depth.{fam}"), 1.0);
            r.add(format!("serve.shed.{fam}"), 2);
        }
        assert_eq!(r.gauge_value("serve.queue_depth.gnmt"), Some(1.0));
        assert_eq!(r.counter_value("serve.shed.inception_v3"), 2);
        let names: Vec<_> = r.gauges().into_iter().map(|(n, _)| n.into_owned()).collect();
        assert_eq!(
            names,
            vec!["serve.queue_depth", "serve.queue_depth.gnmt", "serve.queue_depth.inception_v3"]
        );
    }

    #[test]
    fn clones_share_the_store() {
        let r = Recorder::new();
        let c = r.clone();
        c.add("x", 1);
        assert_eq!(r.counter_value("x"), 1);
    }

    #[test]
    fn spans_record_duration_and_sequence() {
        let r = Recorder::new();
        for _ in 0..3 {
            let _s = r.span("phase");
        }
        let spans = r.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[2].seq, 3);
        assert!(spans.iter().all(|s| s.micros >= 0.0));
        assert_eq!(r.histogram("phase").unwrap().count, 3);
    }

    #[test]
    fn recording_is_thread_safe() {
        let r = Recorder::new();
        crate::fork_join(0..4, |_| {
            for _ in 0..100 {
                r.add("n", 1);
                r.observe("v", 1.0);
            }
        });
        assert_eq!(r.counter_value("n"), 400);
        assert_eq!(r.histogram("v").unwrap().count, 400);
    }
}
