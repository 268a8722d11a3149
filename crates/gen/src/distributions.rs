//! Parameter distributions for random instances.
//!
//! Section III-B of the paper fixes the sampling scheme used by all its
//! experiments: "Leaf success probabilities, numbers of data items needed
//! at each leaf, and per data item costs are sampled from uniform
//! distributions over the intervals [0, 1], [1, 5], and [1, 10],
//! respectively." [`ParamDistributions::paper`] encodes exactly that;
//! custom ranges support sensitivity studies.

use paotr_core::prelude::*;
use rand::Rng;

/// Uniform sampling ranges for leaf probabilities, item counts and stream
/// costs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ParamDistributions {
    /// Success probability range (closed-open), default `[0, 1)`.
    pub prob: (f64, f64),
    /// Item count range (inclusive), default `1..=5`.
    pub items: (u32, u32),
    /// Per-item cost range (closed-open), default `[1, 10)`.
    pub cost: (f64, f64),
}

impl ParamDistributions {
    /// The paper's Section III-B distributions.
    pub fn paper() -> ParamDistributions {
        ParamDistributions {
            prob: (0.0, 1.0),
            items: (1, 5),
            cost: (1.0, 10.0),
        }
    }

    /// Samples a success probability.
    pub(crate) fn sample_prob<R: Rng + ?Sized>(&self, rng: &mut R) -> Prob {
        let (lo, hi) = self.prob;
        let p = if lo >= hi { lo } else { rng.gen_range(lo..hi) };
        Prob::new(p).expect("distribution bounds inside [0,1]")
    }

    /// Samples an item count.
    pub(crate) fn sample_items<R: Rng + ?Sized>(&self, rng: &mut R) -> u32 {
        let (lo, hi) = self.items;
        rng.gen_range(lo..=hi)
    }

    /// Samples a per-item stream cost.
    pub(crate) fn sample_cost<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let (lo, hi) = self.cost;
        if lo >= hi {
            lo
        } else {
            rng.gen_range(lo..hi)
        }
    }

    /// Samples a full leaf on the given stream.
    pub(crate) fn sample_leaf<R: Rng + ?Sized>(&self, rng: &mut R, stream: StreamId) -> Leaf {
        Leaf::raw(stream, self.sample_items(rng), self.sample_prob(rng))
    }

    /// Builds a catalog of `n` streams with sampled costs.
    pub(crate) fn sample_catalog<R: Rng + ?Sized>(&self, rng: &mut R, n: usize) -> StreamCatalog {
        StreamCatalog::from_costs((0..n).map(|_| self.sample_cost(rng)))
            .expect("sampled costs are finite and non-negative")
    }
}

impl Default for ParamDistributions {
    fn default() -> ParamDistributions {
        ParamDistributions::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;

    #[test]
    fn paper_ranges() {
        let d = ParamDistributions::paper();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..1000 {
            let p = d.sample_prob(&mut rng).value();
            assert!((0.0..1.0).contains(&p));
            let i = d.sample_items(&mut rng);
            assert!((1..=5).contains(&i));
            let c = d.sample_cost(&mut rng);
            assert!((1.0..10.0).contains(&c));
        }
    }

    #[test]
    fn degenerate_ranges_are_constant() {
        let d = ParamDistributions {
            prob: (0.5, 0.5),
            items: (3, 3),
            cost: (2.0, 2.0),
        };
        let mut rng = StdRng::seed_from_u64(2);
        assert_eq!(d.sample_prob(&mut rng).value(), 0.5);
        assert_eq!(d.sample_items(&mut rng), 3);
        assert_eq!(d.sample_cost(&mut rng), 2.0);
    }

    #[test]
    fn catalog_has_requested_size() {
        let d = ParamDistributions::paper();
        let mut rng = StdRng::seed_from_u64(3);
        assert_eq!(d.sample_catalog(&mut rng, 7).len(), 7);
    }
}
