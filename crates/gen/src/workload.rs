//! Random multi-query workloads over one shared stream catalog.
//!
//! The paper plans one query at a time; the multi-query subsystem
//! (`paotr_multi`) plans sets of concurrent queries whose benefit comes
//! from *cross-query* stream sharing. This module generates such
//! workloads with a controllable degree of overlap: the catalog holds a
//! pool of **hot** streams every query may read plus a disjoint pool of
//! **cold** streams private to each query, and each leaf draws its
//! stream from the union of its query's hot + private pools. With `h`
//! hot and `c` private streams per query (and enough leaves to touch
//! most of them), the expected pairwise Jaccard overlap of two queries'
//! stream sets is roughly `h / (h + 2c)` — [`WorkloadConfig::with_overlap`]
//! inverts that formula to hit a target.

use crate::distributions::ParamDistributions;
use crate::seeds::{instance_seed, Experiment};
use paotr_core::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Shape of one generated workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadConfig {
    /// Number of concurrent queries.
    pub queries: usize,
    /// AND terms per query.
    pub terms_per_query: usize,
    /// Leaves per AND term.
    pub leaves_per_term: usize,
    /// Streams every query may read (the shared pool).
    pub hot_streams: usize,
    /// Additional streams private to each query.
    pub cold_streams_per_query: usize,
}

impl WorkloadConfig {
    /// A workload of `queries` DNF queries tuned so the mean pairwise
    /// stream overlap (Jaccard index of the queries' stream sets) lands
    /// near `overlap` (clamped to `[0.05, 1.0]`). Each query has 3 AND
    /// terms of 3 leaves — large enough to exercise short-circuiting,
    /// small enough that every planner stays polynomial-fast.
    pub fn with_overlap(queries: usize, overlap: f64) -> WorkloadConfig {
        let overlap = overlap.clamp(0.05, 1.0);
        let hot = 4usize;
        // Jaccard ~ hot / (hot + 2*cold)  =>  cold = hot*(1-j)/(2j).
        let cold = (hot as f64 * (1.0 - overlap) / (2.0 * overlap)).round() as usize;
        WorkloadConfig {
            queries,
            terms_per_query: 3,
            leaves_per_term: 3,
            hot_streams: hot,
            cold_streams_per_query: cold,
        }
    }

    /// The large-workload serving preset: [`LARGE_WORKLOAD_QUERIES`]
    /// concurrent queries with controllable overlap — the scale at which
    /// joint-planning wall time matters. Used by the `workload_plan`
    /// bench group and the experiments sweep; generation stays
    /// seed-stable through [`workload_instance`].
    pub fn large_workload(overlap: f64) -> WorkloadConfig {
        WorkloadConfig::with_overlap(LARGE_WORKLOAD_QUERIES, overlap)
    }

    /// Total number of streams in the generated catalog.
    pub(crate) fn num_streams(&self) -> usize {
        self.hot_streams + self.queries * self.cold_streams_per_query
    }
}

/// Generates one random workload: `queries` DNF trees over a single
/// shared catalog. Streams `0..hot_streams` are the shared pool; query
/// `q` additionally owns streams
/// `hot + q*cold .. hot + (q+1)*cold`. Each leaf picks uniformly from
/// its query's reachable pool, so overlap is governed by the hot/cold
/// ratio.
pub fn random_workload<R: Rng + ?Sized>(
    config: WorkloadConfig,
    dist: &ParamDistributions,
    rng: &mut R,
) -> (Vec<DnfTree>, StreamCatalog) {
    assert!(config.queries > 0, "a workload needs at least one query");
    assert!(config.hot_streams > 0, "the shared pool cannot be empty");
    let catalog = dist.sample_catalog(rng, config.num_streams());
    let trees = (0..config.queries)
        .map(|q| {
            let pool = config.hot_streams + config.cold_streams_per_query;
            let terms: Vec<Vec<Leaf>> = (0..config.terms_per_query)
                .map(|_| {
                    (0..config.leaves_per_term)
                        .map(|_| {
                            let slot = rng.gen_range(0..pool);
                            let stream = if slot < config.hot_streams {
                                StreamId(slot)
                            } else {
                                StreamId(
                                    config.hot_streams
                                        + q * config.cold_streams_per_query
                                        + (slot - config.hot_streams),
                                )
                            };
                            dist.sample_leaf(rng, stream)
                        })
                        .collect()
                })
                .collect();
            DnfTree::from_leaves(terms).expect("terms are non-empty")
        })
        .collect();
    (trees, catalog)
}

/// Queries in the [`WorkloadConfig::large_workload`] preset.
pub const LARGE_WORKLOAD_QUERIES: usize = 128;

/// Addressable workload generation: instance `index` of `config`, with
/// seed-stable output (see [`crate::seeds`]).
pub fn workload_instance(config: WorkloadConfig, index: usize) -> (Vec<DnfTree>, StreamCatalog) {
    let seed = instance_seed(Experiment::Workload, config.queries, index);
    let mut rng = StdRng::seed_from_u64(seed);
    random_workload(config, &ParamDistributions::paper(), &mut rng)
}

/// Mean pairwise Jaccard overlap of the queries' stream sets — the
/// workload-level counterpart of a single tree's sharing ratio. 0 for
/// single-query workloads. Thin alias
/// of [`paotr_core::tree::mean_pairwise_stream_overlap`], the canonical
/// definition shared with the interference analysis in `paotr_multi`.
pub fn mean_pairwise_overlap(trees: &[DnfTree]) -> f64 {
    paotr_core::tree::mean_pairwise_stream_overlap(trees)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_seed_deterministic_and_validates() {
        let cfg = WorkloadConfig::with_overlap(6, 0.5);
        let (a, cat_a) = workload_instance(cfg, 3);
        let (b, cat_b) = workload_instance(cfg, 3);
        assert_eq!(a, b);
        assert_eq!(cat_a, cat_b);
        assert_ne!(a, workload_instance(cfg, 4).0);
        assert_eq!(a.len(), 6);
        for t in &a {
            t.validate(&cat_a).unwrap();
            assert_eq!(t.num_leaves(), 9);
        }
    }

    #[test]
    fn overlap_targets_are_roughly_realised() {
        let mut rng = StdRng::seed_from_u64(7);
        let dist = ParamDistributions::paper();
        for (target, lo, hi) in [(0.2, 0.05, 0.45), (0.5, 0.3, 0.75), (0.9, 0.6, 1.0)] {
            let cfg = WorkloadConfig::with_overlap(8, target);
            let mut acc = 0.0;
            let reps = 20;
            for _ in 0..reps {
                let (trees, _) = random_workload(cfg, &dist, &mut rng);
                acc += mean_pairwise_overlap(&trees);
            }
            let mean = acc / reps as f64;
            assert!(
                (lo..=hi).contains(&mean),
                "target {target}: measured {mean}"
            );
        }
    }

    #[test]
    fn private_streams_stay_private() {
        let cfg = WorkloadConfig {
            queries: 4,
            terms_per_query: 2,
            leaves_per_term: 4,
            hot_streams: 2,
            cold_streams_per_query: 3,
        };
        let (trees, cat) = workload_instance(cfg, 0);
        assert_eq!(cat.len(), 2 + 4 * 3);
        for (q, t) in trees.iter().enumerate() {
            for s in t.streams() {
                let k = s.index();
                assert!(
                    k < 2 || (2 + q * 3..2 + (q + 1) * 3).contains(&k),
                    "query {q} read foreign stream {k}"
                );
            }
        }
    }

    #[test]
    fn single_query_workload_has_zero_pairwise_overlap() {
        let (trees, _) = workload_instance(WorkloadConfig::with_overlap(1, 0.5), 0);
        assert_eq!(mean_pairwise_overlap(&trees), 0.0);
    }

    #[test]
    fn large_workload_preset_is_seed_stable() {
        let (a, cat_a) = workload_instance(WorkloadConfig::large_workload(0.6), 1);
        let (b, cat_b) = workload_instance(WorkloadConfig::large_workload(0.6), 1);
        assert_eq!(a, b);
        assert_eq!(cat_a, cat_b);
        assert_eq!(a.len(), LARGE_WORKLOAD_QUERIES);
        assert_eq!(
            WorkloadConfig::large_workload(0.6),
            WorkloadConfig::with_overlap(LARGE_WORKLOAD_QUERIES, 0.6)
        );
        // distinct indices and overlaps generate distinct workloads
        assert_ne!(
            a,
            workload_instance(WorkloadConfig::large_workload(0.6), 2).0
        );
        assert_ne!(
            cat_a.len(),
            workload_instance(WorkloadConfig::large_workload(0.2), 1)
                .1
                .len()
        );
    }
}
