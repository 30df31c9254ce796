//! Difficulty parameters `D` and `D0` (§3.2 "Difficulty parameters").
//!
//! * `D` — committee election: each `Status`/`Ack`/`Vote`/`Commit`/
//!   `Terminate` mining attempt succeeds with probability `λ/n`, so each
//!   committee has expected size `λ` (over the `n` potential members).
//! * `D0` — leader election: each `Propose` attempt succeeds with
//!   probability `1/(2n)`, so in an honest execution (one attempt per node
//!   per iteration) a leader appears on average once every two iterations.

use crate::tag::{MineTag, MsgKind};

/// Election probabilities for a protocol instance.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MineParams {
    /// Number of nodes `n`.
    pub n: usize,
    /// Expected committee size `λ` (the paper's `λ = ω(log κ)`).
    pub lambda: f64,
}

impl MineParams {
    /// Creates parameters for `n` nodes with expected committee size
    /// `lambda`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < lambda <= n` and `n > 0`.
    pub fn new(n: usize, lambda: f64) -> MineParams {
        assert!(n > 0, "n must be positive");
        assert!(
            lambda > 0.0 && lambda <= n as f64,
            "lambda must lie in (0, n]; the paper assumes n >= 2*lambda"
        );
        MineParams { n, lambda }
    }

    /// Success probability for one mining attempt on `tag`.
    pub fn probability(&self, tag: &MineTag) -> f64 {
        match tag.kind {
            MsgKind::Propose => 1.0 / (2.0 * self.n as f64),
            _ => self.lambda / self.n as f64,
        }
    }

    /// The `u64` threshold corresponding to `tag`'s difficulty: an attempt
    /// with uniform score `rho` succeeds iff `rho < threshold`.
    pub fn threshold(&self, tag: &MineTag) -> u64 {
        probability_to_threshold(self.probability(tag))
    }
}

/// Converts a probability in `[0, 1]` to a `u64` comparison threshold.
pub fn probability_to_threshold(p: f64) -> u64 {
    if p >= 1.0 {
        return u64::MAX;
    }
    if p <= 0.0 {
        return 0;
    }
    // Multiply in f64 then clamp; the error is ~2^-52 relative, irrelevant
    // for committee statistics.
    (p * (u64::MAX as f64)) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probabilities_follow_the_paper() {
        let p = MineParams::new(100, 20.0);
        assert!((p.probability(&MineTag::new(MsgKind::Vote, 1, true)) - 0.2).abs() < 1e-12);
        assert!((p.probability(&MineTag::terminate(false)) - 0.2).abs() < 1e-12);
        assert!((p.probability(&MineTag::new(MsgKind::Propose, 1, true)) - 0.005).abs() < 1e-12);
    }

    #[test]
    fn thresholds_monotone_in_probability() {
        let p = MineParams::new(100, 20.0);
        let vote = p.threshold(&MineTag::new(MsgKind::Vote, 1, true));
        let propose = p.threshold(&MineTag::new(MsgKind::Propose, 1, true));
        assert!(vote > propose);
    }

    #[test]
    fn threshold_edge_cases() {
        assert_eq!(probability_to_threshold(1.0), u64::MAX);
        assert_eq!(probability_to_threshold(2.0), u64::MAX);
        assert_eq!(probability_to_threshold(0.0), 0);
        assert_eq!(probability_to_threshold(-1.0), 0);
        let half = probability_to_threshold(0.5);
        let expected = u64::MAX / 2;
        assert!(half.abs_diff(expected) < 1 << 12);
    }

    #[test]
    #[should_panic(expected = "lambda must lie in (0, n]")]
    fn oversized_lambda_panics() {
        let _ = MineParams::new(10, 20.0);
    }
}
