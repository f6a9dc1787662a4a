//! Hyper-parameters of Q-adaptive routing.

use serde::{Deserialize, Serialize};

/// All tunables of the Q-adaptive algorithm.
///
/// Defaults are the values the paper uses for the 1,056-node system
/// (Section 5.1): `α = 0.2`, `β = 0.04`, `ε = 0.001`, `q_thld1 = 0.2`,
/// `q_thld2 = 0.35`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QAdaptiveParams {
    /// Learning rate applied when the temporal-difference error is
    /// negative, i.e. the new information *lowers* the delivery-time
    /// estimate (good news learned quickly).
    pub alpha: f64,
    /// Learning rate applied when the temporal-difference error is
    /// non-negative, i.e. the estimate must grow (bad news learned slowly,
    /// the "hysteresis").
    pub beta: f64,
    /// ε-greedy exploration probability.
    pub epsilon: f64,
    /// Minimal-path bias threshold used at the source router: the minimal
    /// port is preferred unless the best port is more than `q_thld1`
    /// (relative) cheaper.
    pub q_thld1: f64,
    /// Minimal-path bias threshold used at the first router visited in an
    /// intermediate group.
    pub q_thld2: f64,
}

impl Default for QAdaptiveParams {
    fn default() -> Self {
        Self::paper_1056()
    }
}

impl QAdaptiveParams {
    /// The hyper-parameters used for the paper's 1,056-node experiments.
    pub fn paper_1056() -> Self {
        Self {
            alpha: 0.2,
            beta: 0.04,
            epsilon: 0.001,
            q_thld1: 0.2,
            q_thld2: 0.35,
        }
    }

    /// The hyper-parameters used for the paper's 2,550-node experiments
    /// (Section 6): only the two thresholds differ.
    pub fn paper_2550() -> Self {
        Self {
            q_thld1: 0.05,
            q_thld2: 0.4,
            ..Self::paper_1056()
        }
    }

    /// Plain (non-hysteretic) Q-learning: both learning rates equal
    /// (the baseline of a learning-rule ablation).
    pub fn plain_q_learning(alpha: f64) -> Self {
        Self {
            alpha,
            beta: alpha,
            ..Self::paper_1056()
        }
    }

    /// Validate that all parameters are in their meaningful ranges.
    pub fn validate(&self) -> Result<(), String> {
        if !(0.0..=1.0).contains(&self.alpha) || !(0.0..=1.0).contains(&self.beta) {
            return Err(format!(
                "learning rates must be in [0, 1]: alpha={}, beta={}",
                self.alpha, self.beta
            ));
        }
        if !(0.0..=1.0).contains(&self.epsilon) {
            return Err(format!("epsilon must be in [0, 1]: {}", self.epsilon));
        }
        if self.q_thld1 < 0.0 || self.q_thld2 < 0.0 {
            return Err(format!(
                "thresholds must be non-negative: q_thld1={}, q_thld2={}",
                self.q_thld1, self.q_thld2
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_paper_1056_setup() {
        let p = QAdaptiveParams::default();
        assert_eq!(p.alpha, 0.2);
        assert_eq!(p.beta, 0.04);
        assert_eq!(p.epsilon, 0.001);
        assert_eq!(p.q_thld1, 0.2);
        assert_eq!(p.q_thld2, 0.35);
        assert!(p.validate().is_ok());
    }

    #[test]
    fn paper_2550_only_changes_thresholds() {
        let a = QAdaptiveParams::paper_1056();
        let b = QAdaptiveParams::paper_2550();
        assert_eq!(a.alpha, b.alpha);
        assert_eq!(a.beta, b.beta);
        assert_eq!(a.epsilon, b.epsilon);
        assert_eq!(b.q_thld1, 0.05);
        assert_eq!(b.q_thld2, 0.4);
    }

    #[test]
    fn plain_q_learning_equalises_rates() {
        let p = QAdaptiveParams::plain_q_learning(0.3);
        assert_eq!(p.alpha, p.beta);
        assert!(p.validate().is_ok());
    }

    #[test]
    fn validation_rejects_out_of_range() {
        let p = QAdaptiveParams {
            alpha: 1.5,
            ..Default::default()
        };
        assert!(p.validate().is_err());
        let p = QAdaptiveParams {
            epsilon: -0.1,
            ..Default::default()
        };
        assert!(p.validate().is_err());
        let p = QAdaptiveParams {
            q_thld2: -1.0,
            ..Default::default()
        };
        assert!(p.validate().is_err());
    }
}
