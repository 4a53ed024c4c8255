//! Training-curve recording — the data behind the paper's Figs. 2 and 5–7.

use serde::{Deserialize, Serialize};

/// One evaluated placement during training.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CurvePoint {
    /// 1-based sample index.
    pub sample: u64,
    /// Simulated wall-clock when the measurement finished (seconds) — the x-axis of
    /// the paper's figures.
    pub wall_clock: f64,
    /// Measured per-step time of this sample; `None` for invalid (OOM) placements.
    pub measured: Option<f64>,
    /// Best valid per-step time seen so far (the y-value the figures plot).
    pub best_so_far: Option<f64>,
}

/// One zero-shot evaluation of the policy on a held-out graph, taken during
/// training without touching the training stream (see
/// [`Trainer::builder`](crate::Trainer::builder)'s `probe_every`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProbePoint {
    /// Training-sample index the probe was taken at.
    pub sample: u64,
    /// Held-out graph name.
    pub graph: String,
    /// Best (noise-free) step time over the probe's sampled placements;
    /// `None` when every candidate OOMed.
    pub step_time: Option<f64>,
}

/// A labeled training curve.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Curve {
    /// Approach label ("EAGLE (PPO)", "Post", ...).
    pub label: String,
    /// Points in sampling order.
    pub points: Vec<CurvePoint>,
    /// Zero-shot probes on held-out graphs, in probe order (empty unless the
    /// producing trainer had probes enabled).
    pub probes: Vec<ProbePoint>,
}

impl Curve {
    /// Creates an empty curve.
    pub fn new(label: impl Into<String>) -> Self {
        Self { label: label.into(), points: Vec::new(), probes: Vec::new() }
    }

    /// Appends a measurement, maintaining `best_so_far`.
    pub fn push(&mut self, sample: u64, wall_clock: f64, measured: Option<f64>) {
        let prev_best = self.points.last().and_then(|p| p.best_so_far);
        let best_so_far = match (prev_best, measured) {
            (Some(b), Some(m)) => Some(b.min(m)),
            (None, m) => m,
            (b, None) => b,
        };
        self.points.push(CurvePoint { sample, wall_clock, measured, best_so_far });
    }

    /// Number of invalid samples recorded.
    pub fn num_invalid(&self) -> usize {
        self.points.iter().filter(|p| p.measured.is_none()).count()
    }

    /// Simulated wall-clock at the last point (seconds; 0 before any).
    pub fn wall_clock(&self) -> f64 {
        self.points.last().map_or(0.0, |p| p.wall_clock)
    }

    /// Final best value.
    pub fn best(&self) -> Option<f64> {
        self.points.last().and_then(|p| p.best_so_far)
    }

    /// Renders the curve as CSV (`sample,wall_clock,measured,best_so_far`), with
    /// empty fields for invalid samples.
    pub fn to_csv(&self) -> String {
        let mut s = String::from("sample,wall_clock,measured,best_so_far\n");
        for p in &self.points {
            s.push_str(&format!(
                "{},{:.3},{},{}\n",
                p.sample,
                p.wall_clock,
                p.measured.map(|m| format!("{m:.6}")).unwrap_or_default(),
                p.best_so_far.map(|b| format!("{b:.6}")).unwrap_or_default(),
            ));
        }
        s
    }

    /// Writes a set of curves as one CSV with a leading `label` column.
    pub fn multi_csv(curves: &[Curve]) -> String {
        let mut s = String::from("label,sample,wall_clock,measured,best_so_far\n");
        for c in curves {
            for p in &c.points {
                s.push_str(&format!(
                    "{},{},{:.3},{},{}\n",
                    c.label,
                    p.sample,
                    p.wall_clock,
                    p.measured.map(|m| format!("{m:.6}")).unwrap_or_default(),
                    p.best_so_far.map(|b| format!("{b:.6}")).unwrap_or_default(),
                ));
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn best_so_far_is_monotone_nonincreasing() {
        let mut c = Curve::new("t");
        c.push(1, 10.0, Some(5.0));
        c.push(2, 20.0, Some(7.0));
        c.push(3, 30.0, None);
        c.push(4, 40.0, Some(3.0));
        let bests: Vec<f64> = c.points.iter().map(|p| p.best_so_far.unwrap()).collect();
        assert_eq!(bests, vec![5.0, 5.0, 5.0, 3.0]);
        assert_eq!(c.num_invalid(), 1);
        assert_eq!(c.best(), Some(3.0));
    }

    #[test]
    fn invalid_prefix_has_no_best() {
        let mut c = Curve::new("t");
        c.push(1, 1.0, None);
        assert_eq!(c.points[0].best_so_far, None);
        c.push(2, 2.0, Some(9.0));
        assert_eq!(c.best(), Some(9.0));
    }

    #[test]
    fn csv_formats() {
        let mut c = Curve::new("EAGLE");
        c.push(1, 1.5, Some(2.0));
        c.push(2, 3.0, None);
        let csv = c.to_csv();
        assert!(csv.starts_with("sample,wall_clock"));
        assert!(csv.contains("1,1.500,2.000000,2.000000"));
        assert!(csv.contains("2,3.000,,2.000000"));
        let multi = Curve::multi_csv(&[c]);
        assert!(multi.contains("EAGLE,1,"));
    }

    #[test]
    fn serde_roundtrip() {
        let mut c = Curve::new("x");
        c.push(1, 1.0, Some(4.0));
        let j = serde_json::to_string(&c).unwrap();
        let c2: Curve = serde_json::from_str(&j).unwrap();
        assert_eq!(c2.points, c.points);
    }
}
