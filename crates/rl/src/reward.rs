//! Reward shaping and the moving-average baseline (paper Eq. 4).
//!
//! The paper uses `R_t = -sqrt(r_t)` where `r_t` is the measured per-step time, and
//! — after finding that a learned value network starves for samples — estimates
//! advantages against an exponential moving average of rewards:
//! `A_t = R_t - ExpMovAvg(R_t)`.

/// Alternative reward transforms, for the ablation of the paper's `-sqrt(t)` choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RewardTransform {
    /// The paper's `-sqrt(t)`.
    NegSqrt,
    /// Plain `-t` (heavily weights slow placements).
    NegLinear,
    /// `-ln(1 + t)` (compresses even harder than sqrt).
    NegLog,
}

impl RewardTransform {
    /// Applies the transform to a per-step time `t` seconds. An invalid (OOM)
    /// placement is scored as a valid one with the trainer's penalty time.
    ///
    /// # Panics
    /// Panics on a non-finite or negative `t`: a NaN reward would silently poison
    /// the EMA baseline and every subsequent advantage, so a corrupted step time
    /// must fail loudly at the boundary instead. The simulator engine only emits
    /// finite non-negative makespans.
    pub fn apply(self, t: f64) -> f64 {
        assert!(t.is_finite() && t >= 0.0, "step time must be finite and >= 0, got {t}");
        match self {
            RewardTransform::NegSqrt => -t.sqrt(),
            RewardTransform::NegLinear => -t,
            RewardTransform::NegLog => -(1.0 + t).ln(),
        }
    }

    /// Label for tables.
    pub fn label(self) -> &'static str {
        match self {
            RewardTransform::NegSqrt => "-sqrt(t)",
            RewardTransform::NegLinear => "-t",
            RewardTransform::NegLog => "-log(1+t)",
        }
    }
}

/// Exponential-moving-average reward baseline.
///
/// Serializable: the baseline is part of the trainer's resumable state — a
/// resumed run that re-seeded it would compute different advantages than the
/// uninterrupted run.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct EmaBaseline {
    alpha: f64,
    value: Option<f64>,
}

/// Holds a decoded baseline to the invariant [`EmaBaseline::new`] asserts: an
/// `alpha` outside `[0, 1]` is not an average, and drives `value` (and every
/// advantage computed from it) out of range within a few rewards.
impl serde::Deserialize for EmaBaseline {
    fn from_content(c: &serde::Content) -> Result<Self, serde::Error> {
        #[derive(serde::Deserialize)]
        struct EmaBaselineFields {
            alpha: f64,
            value: Option<f64>,
        }
        let EmaBaselineFields { alpha, value } = EmaBaselineFields::from_content(c)?;
        if !(0.0..=1.0).contains(&alpha) {
            return Err(serde::Error::msg(format!("baseline alpha {alpha} is not in [0, 1]")));
        }
        Ok(Self { alpha, value })
    }
}

impl EmaBaseline {
    /// `alpha` is the update weight of the newest reward (e.g. 0.1).
    pub fn new(alpha: f64) -> Self {
        assert!((0.0..=1.0).contains(&alpha), "alpha in [0, 1]");
        Self { alpha, value: None }
    }

    /// Current baseline (the first observed reward seeds it).
    pub fn value(&self) -> Option<f64> {
        self.value
    }

    /// Advantage of `reward` against the current baseline, then folds the reward
    /// into the average. The first reward has zero advantage by construction.
    pub fn advantage(&mut self, reward: f64) -> f64 {
        let baseline = self.value.unwrap_or(reward);
        let adv = reward - baseline;
        self.value = Some(baseline + self.alpha * (reward - baseline));
        adv
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const NEG_SQRT: RewardTransform = RewardTransform::NegSqrt;

    #[test]
    fn reward_monotone_decreasing_in_time() {
        assert!(NEG_SQRT.apply(1.0) > NEG_SQRT.apply(4.0));
        assert_eq!(NEG_SQRT.apply(4.0), -2.0);
        // An OOM sample's penalty time scores below any faster valid one.
        assert!(NEG_SQRT.apply(100.0) < NEG_SQRT.apply(25.0));
    }

    #[test]
    fn sqrt_compresses_large_times() {
        // The square root softens the penalty gap at large times relative to small
        // ones: 1s->4s loses 1.0 reward, 100s->103s loses ~0.15.
        let small_gap = NEG_SQRT.apply(1.0) - NEG_SQRT.apply(4.0);
        let large_gap = NEG_SQRT.apply(100.0) - NEG_SQRT.apply(103.0);
        assert!(small_gap > 5.0 * large_gap);
    }

    #[test]
    fn transforms_are_monotone_and_ordered() {
        for tr in [RewardTransform::NegSqrt, RewardTransform::NegLinear, RewardTransform::NegLog] {
            assert!(tr.apply(1.0) > tr.apply(9.0), "{tr:?} must prefer faster placements");
        }
        // At t = 9: -3 (sqrt) vs -9 (linear) vs -2.3 (log).
        assert!(RewardTransform::NegLinear.apply(9.0) < RewardTransform::NegSqrt.apply(9.0));
        assert!(RewardTransform::NegSqrt.apply(9.0) < RewardTransform::NegLog.apply(9.0));
    }

    #[test]
    fn ema_baseline_tracks_rewards() {
        let mut b = EmaBaseline::new(0.5);
        assert_eq!(b.advantage(-2.0), 0.0, "first reward has no advantage");
        assert_eq!(b.value(), Some(-2.0));
        // Better-than-baseline reward has positive advantage.
        let adv = b.advantage(-1.0);
        assert!(adv > 0.0);
        // Baseline moved halfway: -2 + 0.5 * 1 = -1.5.
        assert!((b.value().unwrap() + 1.5).abs() < 1e-12);
        // Worse reward now has negative advantage.
        assert!(b.advantage(-3.0) < 0.0);
    }

    #[test]
    #[should_panic(expected = "alpha in [0, 1]")]
    fn bad_alpha_panics() {
        let _ = EmaBaseline::new(1.5);
    }

    /// What `new` asserts, a decoded baseline is held to: JSON `1e300` for
    /// `alpha` would turn the first advantage into an infinity.
    #[test]
    fn bad_alpha_does_not_decode() {
        use serde::{Content, Deserialize, Serialize};
        let mut b = EmaBaseline::new(0.5);
        b.advantage(-2.0);
        assert_eq!(EmaBaseline::from_content(&b.to_content()).unwrap(), b);
        for alpha in [1e300, -1.0] {
            let stored = Content::Map(vec![
                ("alpha".into(), Content::F64(alpha)),
                ("value".into(), Content::Null),
            ]);
            let e = EmaBaseline::from_content(&stored).unwrap_err();
            assert!(e.to_string().contains("is not in [0, 1]"), "{e}");
        }
    }

    #[test]
    #[should_panic(expected = "finite and >= 0")]
    fn nan_step_time_panics() {
        let _ = NEG_SQRT.apply(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "finite and >= 0")]
    fn negative_step_time_panics() {
        let _ = RewardTransform::NegLog.apply(-1.0);
    }
}
