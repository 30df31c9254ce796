//! Order statistics for the timing metrics.

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
    v
}

/// The median (mean of the two middle samples for an even count); 0 for an
/// empty sample.
pub fn median(samples: &[f64]) -> f64 {
    let v = sorted(samples);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The tail statistic reported as `op_ms_p90`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The percentile actually reported, as a fraction.
    pub q: f64,
    pub value: f64,
}

/// The tail percentile of the per-op walls that `samples` timed op
/// executions support. A percentile is reported only with at least ten
/// samples beyond it, so p90 needs 100 samples. Below that the result line
/// still has to carry a number, and it carries the highest percentile the
/// sample does support — the one with exactly ten samples beyond it, or the
/// median up to twenty samples — with `q` saying which one it is.
/// Nearest-rank, in integer arithmetic.
pub fn tail(op_walls: &[f64], samples: usize) -> Tail {
    if samples <= 20 || op_walls.is_empty() {
        return Tail { q: 0.5, value: median(op_walls) };
    }
    let (num, den) = if samples >= 100 { (9, 10) } else { (samples - 10, samples) };
    let rank = (num * op_walls.len()).div_ceil(den).max(1);
    Tail { q: num as f64 / den as f64, value: sorted(op_walls)[rank - 1] }
}

/// Relative worsening of `second` against `first` for a metric whose
/// better direction is `higher` (positive = worse).
pub fn worsening(first: f64, second: f64, higher_is_better: bool) -> f64 {
    if first == 0.0 {
        return if second == 0.0 { 0.0 } else { f64::INFINITY };
    }
    let change = (second - first) / first.abs();
    if higher_is_better {
        -change
    } else {
        change
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn p90_is_reported_only_from_a_hundred_samples() {
        let ramp = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        // 100 samples: p90, with exactly ten samples beyond it.
        assert_eq!(tail(&ramp(100), 100), Tail { q: 0.9, value: 90.0 });
        assert_eq!(tail(&ramp(101), 101).value, 91.0);
        // 24 op walls from 5 passes each are 120 samples: p90 of the walls.
        assert_eq!(tail(&ramp(24), 120), Tail { q: 0.9, value: 22.0 });
        assert_eq!(tail(&ramp(60), 180), Tail { q: 0.9, value: 54.0 });
        // 99 samples do not support p90: the reported percentile drops to
        // the one that still has ten samples beyond it.
        let t = tail(&ramp(99), 99);
        assert!(t.q < 0.9 && t.value == 89.0, "{t:?}");
        assert_eq!(tail(&ramp(40), 40), Tail { q: 0.75, value: 30.0 });
        assert_eq!(tail(&ramp(24), 96).value, 22.0);
        // Twenty samples or fewer support the median only.
        assert_eq!(tail(&ramp(20), 20), Tail { q: 0.5, value: 10.5 });
        assert_eq!(tail(&ramp(2), 4), Tail { q: 0.5, value: 1.5 });
    }

    #[test]
    fn worsening_follows_the_better_direction() {
        assert!((worsening(100.0, 110.0, false) - 0.1).abs() < 1e-12);
        assert!((worsening(100.0, 110.0, true) + 0.1).abs() < 1e-12);
        assert_eq!(worsening(5.0, 5.0, true), 0.0);
    }
}
