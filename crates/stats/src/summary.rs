//! Ratio summaries — the paper's inline Figure-4 statistics.
//!
//! Section III-B summarizes the AND-tree experiment with four numbers:
//! the worst ratio of the read-once greedy to the optimal (1.86), the
//! fraction of instances more than 10% worse (19.54%), more than 1% worse
//! (60.20%), and the fraction of exact ties (11.29%). [`RatioSummary`]
//! computes those numbers (plus a few more robust aggregates) from a list
//! of cost ratios.

/// Tolerance below which two costs count as a tie.
pub(crate) const TIE_EPSILON: f64 = 1e-9;

/// Aggregate statistics over cost ratios (`candidate / baseline`, so 1.0
/// means "as good as the baseline" and ratios are `>= 1` when the baseline
/// is optimal).
#[derive(Debug, Clone, PartialEq)]
pub struct RatioSummary {
    /// Number of ratios summarized.
    pub count: usize,
    /// Largest ratio observed.
    pub max: f64,
    /// Arithmetic mean of the ratios.
    pub mean: f64,
    /// Geometric mean of the ratios.
    pub geometric_mean: f64,
    /// Fraction of ratios strictly above `1 + 10%`.
    pub frac_over_10pct: f64,
    /// Fraction of ratios strictly above `1 + 1%`.
    pub frac_over_1pct: f64,
    /// Fraction of ratios within `TIE_EPSILON` of 1 (exact ties).
    pub frac_ties: f64,
    /// Median ratio.
    pub median: f64,
    /// 99th percentile ratio.
    pub p99: f64,
}

impl RatioSummary {
    /// Summarizes a list of ratios.
    ///
    /// # Panics
    /// Panics on an empty list or non-finite ratios.
    pub fn from_ratios(ratios: &[f64]) -> RatioSummary {
        assert!(!ratios.is_empty(), "cannot summarize zero ratios");
        assert!(
            ratios.iter().all(|r| r.is_finite()),
            "ratios must be finite"
        );
        let n = ratios.len() as f64;
        let mut sorted = ratios.to_vec();
        sorted.sort_by(|a, b| a.total_cmp(b));
        let max = *sorted.last().expect("non-empty");
        let mean = ratios.iter().sum::<f64>() / n;
        let geometric_mean = (ratios.iter().map(|r| r.max(1e-300).ln()).sum::<f64>() / n).exp();
        let count_over = |thr: f64| ratios.iter().filter(|&&r| r > thr).count() as f64 / n;
        RatioSummary {
            count: ratios.len(),
            max,
            mean,
            geometric_mean,
            frac_over_10pct: count_over(1.10),
            frac_over_1pct: count_over(1.01),
            frac_ties: ratios
                .iter()
                .filter(|&&r| (r - 1.0).abs() <= TIE_EPSILON)
                .count() as f64
                / n,
            median: percentile(&sorted, 50.0),
            p99: percentile(&sorted, 99.0),
        }
    }

    /// Renders the summary as the sentence structure used in the paper.
    pub fn paper_sentence(&self, candidate: &str, baseline: &str) -> String {
        format!(
            "{candidate} can lead to costs up to {:.2} times larger than {baseline}. \
             It leads to costs more than 10% larger for {:.2}% of the instances, \
             and more than 1% larger for {:.2}% of the instances. \
             The two lead to the same cost for {:.2}% of the instances.",
            self.max,
            self.frac_over_10pct * 100.0,
            self.frac_over_1pct * 100.0,
            self.frac_ties * 100.0
        )
    }
}

/// Linear-interpolated percentile of a pre-sorted slice (`p` in 0..=100).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of empty slice");
    let p = p.clamp(0.0, 100.0);
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let w = rank - lo as f64;
        sorted[lo] * (1.0 - w) + sorted[hi] * w
    }
}

/// Counts, for each candidate, how often it is (one of) the best across
/// instances. `costs[i][h]` is the cost of candidate `h` on instance `i`;
/// returns per-candidate win counts (ties award a win to every tied
/// candidate, as in the paper's "best heuristic in 94.5% of the cases").
pub fn best_counts(costs: &[Vec<f64>]) -> Vec<usize> {
    best_counts_with_tolerance(costs, 0.0)
}

/// [`best_counts`] with a *relative* tie tolerance: a candidate within
/// `rel_tol` of the row minimum counts as best. Useful when several
/// near-identical variants trade sub-0.1% differences (as the AND-ordered
/// family does on large instances).
pub fn best_counts_with_tolerance(costs: &[Vec<f64>], rel_tol: f64) -> Vec<usize> {
    if costs.is_empty() {
        return Vec::new();
    }
    let h = costs[0].len();
    let mut wins = vec![0usize; h];
    for row in costs {
        assert_eq!(row.len(), h, "ragged cost matrix");
        let best = row.iter().copied().fold(f64::INFINITY, f64::min);
        let cutoff = best * (1.0 + rel_tol) + TIE_EPSILON;
        for (j, &c) in row.iter().enumerate() {
            if c <= cutoff {
                wins[j] += 1;
            }
        }
    }
    wins
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_on_known_data() {
        let ratios = [1.0, 1.0, 1.005, 1.05, 1.2, 1.86];
        let s = RatioSummary::from_ratios(&ratios);
        assert_eq!(s.count, 6);
        assert!((s.max - 1.86).abs() < 1e-12);
        assert!((s.frac_ties - 2.0 / 6.0).abs() < 1e-12);
        assert!((s.frac_over_10pct - 2.0 / 6.0).abs() < 1e-12);
        assert!((s.frac_over_1pct - 3.0 / 6.0).abs() < 1e-12);
        assert!(s.geometric_mean <= s.mean + 1e-12);
    }

    #[test]
    fn percentile_interpolates() {
        let sorted = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&sorted, 0.0), 1.0);
        assert_eq!(percentile(&sorted, 100.0), 4.0);
        assert!((percentile(&sorted, 50.0) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn paper_sentence_mentions_all_numbers() {
        let s = RatioSummary::from_ratios(&[1.0, 1.86]);
        let txt = s.paper_sentence("the algorithm in [7]", "optimal");
        assert!(txt.contains("1.86"));
        assert!(txt.contains("50.00%"));
    }

    #[test]
    fn best_counts_awards_ties() {
        let costs = vec![
            vec![1.0, 1.0, 2.0],
            vec![3.0, 2.0, 2.0],
            vec![5.0, 4.0, 3.0],
        ];
        assert_eq!(best_counts(&costs), vec![1, 2, 2]);
    }

    #[test]
    fn tolerant_best_counts_absorb_near_ties() {
        let costs = vec![vec![1.0, 1.0005, 1.2]];
        assert_eq!(best_counts(&costs), vec![1, 0, 0]);
        assert_eq!(best_counts_with_tolerance(&costs, 0.001), vec![1, 1, 0]);
    }

    #[test]
    #[should_panic(expected = "zero ratios")]
    fn empty_summary_panics() {
        RatioSummary::from_ratios(&[]);
    }
}
