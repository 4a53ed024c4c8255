//! Calibrated benchmark instances: graph + machine + reference numbers.
//!
//! Builders produce structurally honest graphs; this module scales their FLOPs so a
//! documented reference placement lands on the paper's measured per-step time (see
//! DESIGN.md "Calibration notes"). All downstream experiments use these calibrated
//! instances, so table shapes are comparable to the paper's.

use eagle_opgraph::{builders, OpGraph};

use crate::cost::CostGraph;
use crate::device::Machine;
use crate::placement::Placement;
use crate::predefined;
use crate::sim::SimOutcome;

/// The three benchmark models of the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Benchmark {
    /// Inception-V3, batch 1 — small, fits one GPU.
    InceptionV3,
    /// GNMT 4-layer, batch 256 — OOMs one GPU.
    Gnmt,
    /// BERT-Base, seq 384 / batch 24 — OOMs one GPU.
    BertBase,
}

impl Benchmark {
    /// All benchmarks, in the paper's order.
    pub const ALL: [Benchmark; 3] = [Benchmark::InceptionV3, Benchmark::Gnmt, Benchmark::BertBase];

    /// Model name matching `OpGraph::model_name`.
    pub fn name(self) -> &'static str {
        match self {
            Benchmark::InceptionV3 => "inception_v3",
            Benchmark::Gnmt => "gnmt",
            Benchmark::BertBase => "bert_base",
        }
    }

    /// The uncalibrated graph.
    pub fn raw_graph(self) -> OpGraph {
        match self {
            Benchmark::InceptionV3 => builders::try_inception_v3(&Default::default())
                .expect("default Inception config is valid"),
            Benchmark::Gnmt => {
                builders::try_gnmt(&Default::default()).expect("default GNMT config is valid")
            }
            Benchmark::BertBase => {
                builders::try_bert_base(&Default::default()).expect("default BERT config is valid")
            }
        }
    }

    /// The calibration reference placement and its target per-step time.
    ///
    /// * Inception-V3: Single-GPU baseline at the paper's 0.071 s.
    /// * GNMT: Human-Expert layer striping at the paper's 1.661 s.
    /// * BERT: a balanced contiguous layer split at 3.2 s (between the paper's Post
    ///   result 2.812 s — a tuned placement — and Hierarchical Planner's 5.534 s).
    pub fn calibration(self, graph: &OpGraph, machine: &Machine) -> (Placement, f64) {
        match self {
            Benchmark::InceptionV3 => (predefined::single_gpu(graph, machine), 0.071),
            Benchmark::Gnmt => {
                (predefined::human_expert(graph, machine).expect("gnmt expert exists"), 1.661)
            }
            Benchmark::BertBase => (predefined::bert_layer_split(graph, machine), 3.2),
        }
    }

    /// Builds the calibrated graph for the paper machine.
    pub fn graph(self) -> OpGraph {
        self.graph_for(&Machine::paper_machine())
    }

    /// Builds the calibrated graph for an arbitrary machine.
    pub fn graph_for(self, machine: &Machine) -> OpGraph {
        let mut g = self.raw_graph();
        let (reference, target) = self.calibration(&g, machine);
        calibrate(&mut g, machine, &reference, target);
        g
    }
}

/// Scales the graph's FLOPs so `simulate(graph, machine, reference)` hits `target`
/// seconds. Launch overheads and transfer costs are scale-independent, so the search
/// bisects over the FLOP multiplier, each probe a [`CostGraph`] of the scaled
/// FLOPs (the graph itself is scaled once, at the end). Returns the multiplier
/// applied.
///
/// # Panics
/// Panics if the reference placement OOMs (calibration references must be valid) or
/// if the target is below the overhead floor (unreachable even at zero FLOPs).
pub fn calibrate(
    graph: &mut OpGraph,
    machine: &Machine,
    reference: &Placement,
    target: f64,
) -> f64 {
    let eval = |g: &OpGraph, scale: f64| -> f64 {
        match CostGraph::scaled(g, machine, scale).simulate(reference) {
            SimOutcome::Valid(stats) => stats.step_time,
            SimOutcome::Oom { device, required, capacity } => {
                panic!("calibration reference OOMs on device {device:?}: {required} > {capacity}")
            }
        }
    };

    let floor = eval(graph, 0.0);
    assert!(
        target > floor,
        "target {target}s is below the zero-FLOP floor {floor}s for {}",
        graph.model_name
    );

    let (mut lo, mut hi) = (1e-6f64, 1e6f64);
    for _ in 0..60 {
        let mid = (lo * hi).sqrt();
        if eval(graph, mid) < target {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    let s = (lo * hi).sqrt();
    if cfg!(debug_assertions) {
        let (base, achieved) = (eval(graph, 1.0), eval(graph, s));
        assert!(
            (achieved - target).abs() / target < 0.05,
            "calibration off: base {base}, achieved {achieved}, target {target}"
        );
    }
    for id in graph.ids().collect::<Vec<_>>() {
        graph.node_mut(id).flops *= s;
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::simulate;

    #[test]
    fn calibration_hits_targets() {
        let m = Machine::paper_machine();
        for b in Benchmark::ALL {
            let g = b.graph_for(&m);
            let (reference, target) = b.calibration(&g, &m);
            let t = simulate(&g, &m, &reference).step_time().expect("reference valid");
            assert!(
                (t - target).abs() / target < 0.02,
                "{}: calibrated {t} vs target {target}",
                b.name()
            );
        }
    }

    #[test]
    fn calibrate_is_monotone_fixture() {
        // Double the target, re-calibrate: scale must grow.
        let m = Machine::paper_machine();
        let mut g1 = Benchmark::InceptionV3.raw_graph();
        let mut g2 = Benchmark::InceptionV3.raw_graph();
        let (r, _) = Benchmark::InceptionV3.calibration(&g1, &m);
        let s1 = calibrate(&mut g1, &m, &r, 0.071);
        let s2 = calibrate(&mut g2, &m, &r, 0.142);
        assert!(s2 > s1, "s1 = {s1}, s2 = {s2}");
    }
}
