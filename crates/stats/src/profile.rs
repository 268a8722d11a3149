//! Performance profiles — the curves of Figures 5 and 6.
//!
//! For one heuristic over a set of instances, the profile maps a fraction
//! `x` in [0, 100] to the smallest ratio `y` such that the heuristic is
//! within a factor `y` of the baseline on `x` percent of the instances.
//! "A point at (80, 2) means that the heuristic leads to schedules that
//! are within a factor 2 of optimal for 80% of the instances." Lower
//! curves are better.

use crate::summary::percentile;

/// A named performance profile (one curve of Figure 5/6).
#[derive(Debug, Clone, PartialEq)]
pub struct Profile {
    /// Curve label (heuristic name).
    pub name: String,
    /// Ratios sorted in non-decreasing order.
    sorted_ratios: Vec<f64>,
}

impl Profile {
    /// Builds a profile from raw (unsorted) ratios.
    ///
    /// # Panics
    /// Panics on empty or non-finite input.
    pub fn new(name: impl Into<String>, ratios: &[f64]) -> Profile {
        assert!(!ratios.is_empty(), "profile of zero instances");
        assert!(
            ratios.iter().all(|r| r.is_finite()),
            "ratios must be finite"
        );
        let mut sorted = ratios.to_vec();
        sorted.sort_by(|a, b| a.total_cmp(b));
        Profile {
            name: name.into(),
            sorted_ratios: sorted,
        }
    }

    /// The ratio achieved at percentage `x` of the instances
    /// (the quantile function).
    pub fn ratio_at(&self, x_percent: f64) -> f64 {
        percentile(&self.sorted_ratios, x_percent)
    }

    /// Samples the curve on an `points`-point uniform percentage grid,
    /// returning `(percentage, ratio)` pairs ready for plotting.
    pub fn curve(&self, points: usize) -> Vec<(f64, f64)> {
        assert!(points >= 2, "a curve needs at least two points");
        (0..points)
            .map(|i| {
                let x = 100.0 * i as f64 / (points - 1) as f64;
                (x, self.ratio_at(x))
            })
            .collect()
    }

    /// Area under the curve on the percentage grid — a scalar quality
    /// score used to rank heuristics (smaller is better).
    pub fn auc(&self, points: usize) -> f64 {
        let c = self.curve(points);
        let mut area = 0.0;
        for w in c.windows(2) {
            area += (w[1].0 - w[0].0) * (w[0].1 + w[1].1) / 2.0;
        }
        area / 100.0
    }
}

/// Computes ratios-to-baseline from parallel cost arrays.
///
/// # Panics
/// Panics when lengths differ or a baseline cost is zero while the
/// candidate cost is not (the ratio would be infinite). When both are
/// zero the ratio is defined as 1.
pub fn ratios(candidate: &[f64], baseline: &[f64]) -> Vec<f64> {
    assert_eq!(candidate.len(), baseline.len(), "cost arrays must align");
    candidate
        .iter()
        .zip(baseline)
        .map(|(&c, &b)| {
            if b == 0.0 {
                assert!(c.abs() < 1e-12, "candidate {c} on a zero-cost baseline");
                1.0
            } else {
                c / b
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_quantiles() {
        let p = Profile::new("h", &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(p.ratio_at(0.0), 1.0);
        assert_eq!(p.ratio_at(100.0), 4.0);
        assert!((p.ratio_at(50.0) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn curve_is_monotone() {
        let p = Profile::new("h", &[3.0, 1.0, 2.0, 1.5, 7.0]);
        let c = p.curve(11);
        assert_eq!(c.len(), 11);
        assert!(c.windows(2).all(|w| w[0].1 <= w[1].1 + 1e-12));
        assert_eq!(c[0].0, 0.0);
        assert_eq!(c[10].0, 100.0);
    }

    #[test]
    fn auc_ranks_better_profiles_lower() {
        let good = Profile::new("good", &[1.0; 10]);
        let bad = Profile::new("bad", &[2.0; 10]);
        assert!(good.auc(21) < bad.auc(21));
        assert!((good.auc(21) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ratio_computation() {
        let r = ratios(&[2.0, 3.0, 0.0], &[1.0, 2.0, 0.0]);
        assert_eq!(r, vec![2.0, 1.5, 1.0]);
    }

    #[test]
    #[should_panic(expected = "zero-cost baseline")]
    fn infinite_ratio_panics() {
        ratios(&[1.0], &[0.0]);
    }
}
