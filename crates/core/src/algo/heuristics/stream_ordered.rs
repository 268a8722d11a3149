//! The stream-ordered heuristic of Lim, Misra & Mo (reference \[4\] of the
//! paper) — the only previously published heuristic for shared-stream DNF
//! scheduling.
//!
//! For each stream `S` it computes
//!
//! ```text
//!          sum over leaves l_{i,j} on S of  q_{i,j} * n_{i,j}
//! R(S) = -----------------------------------------------------
//!          max over leaves l_{i,j} on S of  d_{i,j} * c(S)
//! ```
//!
//! where `n_{i,j}` is the number of leaf evaluations short-circuited if
//! `l_{i,j}` fails (statically: the other `m_i - 1` leaves of its AND
//! node). Streams are then processed one at a time — all leaves of a
//! stream scheduled consecutively — in increasing `R` order, as the paper
//! prescribes.
//!
//! Two design knobs are exposed as ablations:
//!
//! * **leaf order within a stream**: the original heuristic of \[4\]
//!   evaluates a stream's leaves in *decreasing* item order; the paper
//!   observes Proposition 1 also holds for DNF trees and switches to
//!   *increasing* order, which wins or ties "in the vast majority of
//!   cases" — our experiments reproduce this.
//! * **stream order**: the paper's text says increasing `R` while its
//!   stated rationale (prioritize high short-circuit power, low cost)
//!   reads like decreasing `R`; both orders are provided, increasing being
//!   the default (the literal reading).

use crate::leaf::LeafRef;
use crate::schedule::DnfSchedule;
use crate::stream::{StreamCatalog, StreamId};
use crate::tree::DnfTree;

/// Direction in which the `R(S)` metric orders the streams.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum StreamOrder {
    /// Increasing `R` — the paper's literal prescription (default).
    #[default]
    IncreasingR,
    /// Decreasing `R` — the order the paper's informal rationale suggests.
    DecreasingR,
}

/// Order of a stream's leaves within its block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum LeafOrder {
    /// Increasing `d` — the paper's Proposition-1-improved variant
    /// (default; used for the paper's experiments).
    #[default]
    IncreasingD,
    /// Decreasing `d` — the original behaviour of \[4\].
    DecreasingD,
}

/// Configuration of the stream-ordered heuristic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Config {
    /// Stream ordering direction.
    pub stream_order: StreamOrder,
    /// Within-stream leaf ordering.
    pub leaf_order: LeafOrder,
}

/// `R(S)` over pre-grouped leaves (one grouping pass serves both the
/// metric and the block assembly in [`schedule`]).
fn metrics_of_groups(
    tree: &DnfTree,
    catalog: &StreamCatalog,
    groups: &std::collections::BTreeMap<StreamId, Vec<LeafRef>>,
) -> Vec<(StreamId, f64)> {
    let term_sizes: Vec<usize> = tree.terms().iter().map(|t| t.len()).collect();
    groups
        .iter()
        .map(|(&k, refs)| {
            let mut power = 0.0;
            let mut max_cost = 0.0f64;
            for &r in refs {
                let leaf = tree.leaf(r);
                let shortcut = (term_sizes[r.term] - 1) as f64;
                power += leaf.fail() * shortcut;
                max_cost = max_cost.max(leaf.standalone_cost(catalog));
            }
            let r_value = if max_cost <= 0.0 {
                0.0
            } else {
                power / max_cost
            };
            (k, r_value)
        })
        .collect()
}

/// The shortcut-power metric `R(S)` for every stream that occurs in the
/// tree, as `(stream, R)` pairs.
pub fn stream_metrics(tree: &DnfTree, catalog: &StreamCatalog) -> Vec<(StreamId, f64)> {
    metrics_of_groups(tree, catalog, &tree.leaves_by_stream())
}

/// Builds the stream-ordered schedule.
pub fn schedule(tree: &DnfTree, catalog: &StreamCatalog, config: Config) -> DnfSchedule {
    // One grouping pass: the groups feed the metric and are then moved
    // (not cloned) into the schedule, stream block by stream block.
    let mut groups = tree.leaves_by_stream();
    let mut metrics = metrics_of_groups(tree, catalog, &groups);
    metrics.sort_by(|a, b| {
        let cmp = a.1.total_cmp(&b.1);
        match config.stream_order {
            StreamOrder::IncreasingR => cmp.then(a.0.cmp(&b.0)),
            StreamOrder::DecreasingR => cmp.reverse().then(a.0.cmp(&b.0)),
        }
    });
    let mut order: Vec<LeafRef> = Vec::with_capacity(tree.num_leaves());
    for (k, _) in metrics {
        // groups are pre-sorted by increasing d (ties by address)
        let mut refs = groups
            .remove(&k)
            .expect("metric streams come from the groups");
        if config.leaf_order == LeafOrder::DecreasingD {
            refs.sort_by(|&a, &b| tree.leaf(b).items.cmp(&tree.leaf(a).items).then(a.cmp(&b)));
        }
        order.extend(refs);
    }
    DnfSchedule::from_order_unchecked(order)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::dnf_eval;
    use crate::leaf::Leaf;
    use crate::prob::Prob;
    use crate::stream::StreamId;
    use rand::prelude::*;

    fn leaf(s: usize, d: u32, p: f64) -> Leaf {
        Leaf::new(StreamId(s), d, Prob::new(p).unwrap()).unwrap()
    }

    fn tree() -> (DnfTree, StreamCatalog) {
        (
            DnfTree::from_leaves(vec![
                vec![leaf(0, 2, 0.5), leaf(1, 1, 0.5), leaf(1, 3, 0.4)],
                vec![leaf(0, 1, 0.3), leaf(2, 2, 0.8)],
            ])
            .unwrap(),
            StreamCatalog::from_costs([1.0, 2.0, 4.0]).unwrap(),
        )
    }

    #[test]
    fn metric_values_follow_definition() {
        let (t, cat) = tree();
        let metrics: std::collections::BTreeMap<StreamId, f64> =
            stream_metrics(&t, &cat).into_iter().collect();
        // Stream 0: leaves (0,0) q=.5 n=2 and (1,0) q=.7 n=1;
        // max cost = 2*1. R = (1.0 + 0.7)/2 = 0.85
        assert!((metrics[&StreamId(0)] - 0.85).abs() < 1e-12);
        // Stream 1: leaves (0,1) q=.5 n=2, (0,2) q=.6 n=2; max cost = 6.
        // R = (1.0 + 1.2)/6 ~ 0.3667
        assert!((metrics[&StreamId(1)] - 2.2 / 6.0).abs() < 1e-12);
        // Stream 2: leaf (1,1) q=.2 n=1; max cost 8. R = 0.025
        assert!((metrics[&StreamId(2)] - 0.025).abs() < 1e-12);
    }

    #[test]
    fn groups_leaves_by_stream_blocks() {
        let (t, cat) = tree();
        let s = schedule(&t, &cat, Config::default());
        // increasing R: stream 2, stream 1, stream 0
        let streams: Vec<usize> = s.order().iter().map(|&r| t.leaf(r).stream.0).collect();
        assert_eq!(streams, vec![2, 1, 1, 0, 0]);
        // within stream 1: increasing d -> (0,1) d=1 then (0,2) d=3
        assert_eq!(s.order()[1], LeafRef::new(0, 1));
        assert_eq!(s.order()[2], LeafRef::new(0, 2));
    }

    #[test]
    fn decreasing_d_variant_reverses_within_stream_order() {
        let (t, cat) = tree();
        let s = schedule(
            &t,
            &cat,
            Config {
                leaf_order: LeafOrder::DecreasingD,
                ..Default::default()
            },
        );
        assert_eq!(s.order()[1], LeafRef::new(0, 2)); // d=3 first
        assert_eq!(s.order()[2], LeafRef::new(0, 1));
    }

    #[test]
    fn decreasing_r_variant_reverses_stream_order() {
        let (t, cat) = tree();
        let s = schedule(
            &t,
            &cat,
            Config {
                stream_order: StreamOrder::DecreasingR,
                ..Default::default()
            },
        );
        let streams: Vec<usize> = s.order().iter().map(|&r| t.leaf(r).stream.0).collect();
        assert_eq!(streams, vec![0, 0, 1, 1, 2]);
    }

    /// The paper: the increasing-d variant beats or ties the original
    /// decreasing-d variant "in the vast majority of the cases".
    #[test]
    fn increasing_d_beats_decreasing_d_in_aggregate() {
        let mut rng = StdRng::seed_from_u64(41);
        let mut wins = 0;
        let mut losses = 0;
        for _ in 0..200 {
            let n_streams = rng.gen_range(1..=4);
            let cat = StreamCatalog::from_costs((0..n_streams).map(|_| rng.gen_range(1.0..10.0)))
                .unwrap();
            let terms: Vec<Vec<Leaf>> = (0..rng.gen_range(2..=4))
                .map(|_| {
                    (0..rng.gen_range(1..=4))
                        .map(|_| {
                            leaf(
                                rng.gen_range(0..n_streams),
                                rng.gen_range(1..=5),
                                rng.gen_range(0.0..1.0),
                            )
                        })
                        .collect()
                })
                .collect();
            let t = DnfTree::from_leaves(terms).unwrap();
            let inc = dnf_eval::expected_cost(&t, &cat, &schedule(&t, &cat, Config::default()));
            let dec = dnf_eval::expected_cost(
                &t,
                &cat,
                &schedule(
                    &t,
                    &cat,
                    Config {
                        leaf_order: LeafOrder::DecreasingD,
                        ..Default::default()
                    },
                ),
            );
            if inc < dec - 1e-12 {
                wins += 1;
            } else if dec < inc - 1e-12 {
                losses += 1;
            }
        }
        assert!(wins > losses * 5, "wins {wins} losses {losses}");
    }

    #[test]
    fn schedule_is_valid_permutation() {
        let (t, cat) = tree();
        for so in [StreamOrder::IncreasingR, StreamOrder::DecreasingR] {
            for lo in [LeafOrder::IncreasingD, LeafOrder::DecreasingD] {
                let s = schedule(
                    &t,
                    &cat,
                    Config {
                        stream_order: so,
                        leaf_order: lo,
                    },
                );
                assert!(DnfSchedule::new(s.order().to_vec(), &t).is_ok());
            }
        }
    }
}
