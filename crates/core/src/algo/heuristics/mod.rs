//! The ten DNF scheduling heuristics evaluated in Section IV-D.
//!
//! [`Heuristic`] is a closed enumeration of every heuristic the paper
//! compares (4 leaf-ordered, 5 AND-ordered, 1 stream-ordered);
//! [`paper_set`] returns them in the order of the paper's figure legends,
//! so the experiment harness can iterate "one curve per heuristic".

pub mod and_ordered;
pub(crate) mod leaf_ordered;
pub mod stream_ordered;

use crate::cost::{CostModel, EvalScratch};
use crate::schedule::DnfSchedule;
use crate::stream::StreamCatalog;
use crate::tree::DnfTree;
use rand::rngs::StdRng;
use rand::SeedableRng;

pub use and_ordered::{AndKey, CostMode};
use leaf_ordered::LeafKey;
pub use stream_ordered::{Config as StreamConfig, LeafOrder, StreamOrder};

/// One of the paper's polynomial-time DNF scheduling heuristics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Heuristic {
    /// "Stream-ord." — Lim et al. \[4\], with the paper's Proposition-1 leaf
    /// order improvement by default.
    StreamOrdered(StreamConfig),
    /// "Leaf-ord., random" — baseline; the seed makes runs reproducible.
    LeafRandom { seed: u64 },
    /// "Leaf-ord., dec. q"
    LeafDecQ,
    /// "Leaf-ord., inc. C"
    LeafIncC,
    /// "Leaf-ord., inc. C/q"
    LeafIncCOverQ,
    /// "AND-ord., dec. p, stat"
    AndDecP,
    /// "AND-ord., inc. C, stat"
    AndIncCStatic,
    /// "AND-ord., inc. C/p, stat"
    AndIncCOverPStatic,
    /// "AND-ord., inc. C, dyn"
    AndIncCDynamic,
    /// "AND-ord., inc. C/p, dyn" — the paper's best heuristic.
    AndIncCOverPDynamic,
}

impl Heuristic {
    /// The label used in the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            Heuristic::StreamOrdered(c) => match (c.stream_order, c.leaf_order) {
                (StreamOrder::IncreasingR, LeafOrder::IncreasingD) => "Stream-ord.",
                (StreamOrder::IncreasingR, LeafOrder::DecreasingD) => "Stream-ord. (dec. d)",
                (StreamOrder::DecreasingR, LeafOrder::IncreasingD) => "Stream-ord. (dec. R)",
                (StreamOrder::DecreasingR, LeafOrder::DecreasingD) => {
                    "Stream-ord. (dec. R, dec. d)"
                }
            },
            Heuristic::LeafRandom { .. } => "Leaf-ord., random",
            Heuristic::LeafDecQ => "Leaf-ord., dec. q",
            Heuristic::LeafIncC => "Leaf-ord., inc. C",
            Heuristic::LeafIncCOverQ => "Leaf-ord., inc. C/q",
            Heuristic::AndDecP => "AND-ord., dec. p, stat",
            Heuristic::AndIncCStatic => "AND-ord., inc. C, stat",
            Heuristic::AndIncCOverPStatic => "AND-ord., inc. C/p, stat",
            Heuristic::AndIncCDynamic => "AND-ord., inc. C, dyn",
            Heuristic::AndIncCOverPDynamic => "AND-ord., inc. C/p, dyn",
        }
    }

    /// The stable kebab-case identifier, shared by [`FromStr`](std::str::FromStr),
    /// [`std::fmt::Display`], the CLI's `--heuristic` flag, and the
    /// planner registry (`crate::plan::PlannerRegistry`).
    ///
    /// `LeafRandom` maps to `leaf-random` regardless of its seed; parsing
    /// restores the default seed (`Heuristic::DEFAULT_RANDOM_SEED`),
    /// which [`Heuristic::with_seed`] can override.
    pub fn id(&self) -> &'static str {
        match self {
            Heuristic::StreamOrdered(c) => match (c.stream_order, c.leaf_order) {
                (StreamOrder::IncreasingR, LeafOrder::IncreasingD) => "stream-ordered",
                (StreamOrder::IncreasingR, LeafOrder::DecreasingD) => "stream-ordered-dec-d",
                (StreamOrder::DecreasingR, LeafOrder::IncreasingD) => "stream-ordered-dec-r",
                (StreamOrder::DecreasingR, LeafOrder::DecreasingD) => "stream-ordered-dec-r-dec-d",
            },
            Heuristic::LeafRandom { .. } => "leaf-random",
            Heuristic::LeafDecQ => "leaf-dec-q",
            Heuristic::LeafIncC => "leaf-inc-c",
            Heuristic::LeafIncCOverQ => "leaf-inc-cq",
            Heuristic::AndDecP => "and-dec-p",
            Heuristic::AndIncCStatic => "and-inc-c-stat",
            Heuristic::AndIncCOverPStatic => "and-inc-cp-stat",
            Heuristic::AndIncCDynamic => "and-inc-c-dyn",
            Heuristic::AndIncCOverPDynamic => "and-inc-cp-dyn",
        }
    }

    /// Seed that [`FromStr`](std::str::FromStr) gives `leaf-random`.
    pub(crate) const DEFAULT_RANDOM_SEED: u64 = 42;

    /// Returns `self` with the RNG seed replaced, for the variants that
    /// have one (currently only `leaf-random`); other heuristics are
    /// returned unchanged.
    #[must_use]
    pub fn with_seed(self, seed: u64) -> Heuristic {
        match self {
            Heuristic::LeafRandom { .. } => Heuristic::LeafRandom { seed },
            other => other,
        }
    }

    /// Computes the heuristic's schedule for an instance.
    pub fn schedule(&self, tree: &DnfTree, catalog: &StreamCatalog) -> DnfSchedule {
        match *self {
            Heuristic::StreamOrdered(config) => stream_ordered::schedule(tree, catalog, config),
            Heuristic::LeafRandom { seed } => {
                let mut rng = StdRng::seed_from_u64(seed);
                leaf_ordered::schedule_random(tree, &mut rng)
            }
            Heuristic::LeafDecQ => leaf_ordered::schedule(tree, catalog, LeafKey::DecreasingQ),
            Heuristic::LeafIncC => leaf_ordered::schedule(tree, catalog, LeafKey::IncreasingC),
            Heuristic::LeafIncCOverQ => {
                leaf_ordered::schedule(tree, catalog, LeafKey::IncreasingCOverQ)
            }
            Heuristic::AndDecP => {
                and_ordered::schedule(tree, catalog, AndKey::DecreasingP, CostMode::Static)
            }
            Heuristic::AndIncCStatic => {
                and_ordered::schedule(tree, catalog, AndKey::IncreasingC, CostMode::Static)
            }
            Heuristic::AndIncCOverPStatic => {
                and_ordered::schedule(tree, catalog, AndKey::IncreasingCOverP, CostMode::Static)
            }
            Heuristic::AndIncCDynamic => {
                and_ordered::schedule(tree, catalog, AndKey::IncreasingC, CostMode::Dynamic)
            }
            Heuristic::AndIncCOverPDynamic => {
                and_ordered::schedule(tree, catalog, AndKey::IncreasingCOverP, CostMode::Dynamic)
            }
        }
    }

    /// Schedule plus its expected cost.
    pub fn schedule_with_cost(
        &self,
        tree: &DnfTree,
        catalog: &StreamCatalog,
    ) -> (DnfSchedule, f64) {
        let s = self.schedule(tree, catalog);
        let model = CostModel::new(tree, catalog);
        let c = model.freeze_prefix(s.order(), &mut EvalScratch::new());
        (s, c)
    }
}

impl std::fmt::Display for Heuristic {
    /// Prints the stable kebab-case id (see [`Heuristic::id`]).
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.id())
    }
}

impl std::str::FromStr for Heuristic {
    type Err = crate::error::Error;

    /// Parses a stable kebab-case id (see [`Heuristic::id`]); the inverse
    /// of [`std::fmt::Display`] for every heuristic in [`all_variants`].
    fn from_str(s: &str) -> crate::error::Result<Heuristic> {
        all_variants()
            .into_iter()
            .find(|h| h.id() == s)
            .ok_or_else(|| crate::error::Error::UnknownPlanner(s.to_string()))
    }
}

/// Every heuristic variant with a distinct [`Heuristic::id`]: the paper's
/// ten plus the three stream-ordered ablations.
pub fn all_variants() -> Vec<Heuristic> {
    let mut out = paper_set(Heuristic::DEFAULT_RANDOM_SEED);
    for stream_order in [StreamOrder::IncreasingR, StreamOrder::DecreasingR] {
        for leaf_order in [LeafOrder::IncreasingD, LeafOrder::DecreasingD] {
            let config = StreamConfig {
                stream_order,
                leaf_order,
            };
            if config != StreamConfig::default() {
                out.push(Heuristic::StreamOrdered(config));
            }
        }
    }
    out
}

/// The ten heuristics of the paper's Figures 5 and 6, in legend order.
/// `random_seed` seeds the "Leaf-ord., random" baseline.
pub fn paper_set(random_seed: u64) -> Vec<Heuristic> {
    vec![
        Heuristic::StreamOrdered(StreamConfig::default()),
        Heuristic::LeafRandom { seed: random_seed },
        Heuristic::LeafDecQ,
        Heuristic::LeafIncC,
        Heuristic::LeafIncCOverQ,
        Heuristic::AndDecP,
        Heuristic::AndIncCStatic,
        Heuristic::AndIncCOverPStatic,
        Heuristic::AndIncCDynamic,
        Heuristic::AndIncCOverPDynamic,
    ]
}

/// Runs every heuristic and returns the cheapest schedule found, with its
/// cost — a good incumbent for the branch-and-bound search.
pub fn best_of_paper_set(
    tree: &DnfTree,
    catalog: &StreamCatalog,
    random_seed: u64,
) -> (DnfSchedule, f64) {
    paper_set(random_seed)
        .iter()
        .map(|h| h.schedule_with_cost(tree, catalog))
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .expect("paper set is non-empty")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::leaf::Leaf;
    use crate::prob::Prob;
    use crate::stream::StreamId;

    fn leaf(s: usize, d: u32, p: f64) -> Leaf {
        Leaf::new(StreamId(s), d, Prob::new(p).unwrap()).unwrap()
    }

    fn tree() -> (DnfTree, StreamCatalog) {
        (
            DnfTree::from_leaves(vec![
                vec![leaf(0, 3, 0.4), leaf(1, 1, 0.7)],
                vec![leaf(0, 5, 0.6), leaf(1, 2, 0.2)],
                vec![leaf(2, 1, 0.9)],
            ])
            .unwrap(),
            StreamCatalog::from_costs([2.0, 3.0, 0.5]).unwrap(),
        )
    }

    #[test]
    fn paper_set_has_ten_distinctly_named_heuristics() {
        let hs = paper_set(1);
        assert_eq!(hs.len(), 10);
        let names: std::collections::BTreeSet<&str> = hs.iter().map(|h| h.name()).collect();
        assert_eq!(names.len(), 10);
    }

    #[test]
    fn every_heuristic_returns_a_valid_schedule() {
        let (t, cat) = tree();
        for h in paper_set(7) {
            let (s, c) = h.schedule_with_cost(&t, &cat);
            assert!(
                DnfSchedule::new(s.order().to_vec(), &t).is_ok(),
                "{}",
                h.name()
            );
            assert!(c.is_finite() && c >= 0.0, "{}", h.name());
        }
    }

    #[test]
    fn best_of_set_is_minimum() {
        let (t, cat) = tree();
        let (_, best) = best_of_paper_set(&t, &cat, 7);
        for h in paper_set(7) {
            let (_, c) = h.schedule_with_cost(&t, &cat);
            assert!(best <= c + 1e-12);
        }
    }

    #[test]
    fn and_ordered_heuristics_are_depth_first() {
        let (t, cat) = tree();
        for h in [
            Heuristic::AndDecP,
            Heuristic::AndIncCStatic,
            Heuristic::AndIncCOverPStatic,
            Heuristic::AndIncCDynamic,
            Heuristic::AndIncCOverPDynamic,
        ] {
            assert!(h.schedule(&t, &cat).is_depth_first(&t), "{}", h.name());
        }
    }

    #[test]
    fn ids_round_trip_through_fromstr_and_display() {
        for h in all_variants() {
            let id = h.id();
            assert_eq!(h.to_string(), id);
            let parsed: Heuristic = id.parse().unwrap();
            assert_eq!(parsed.id(), id);
            assert_eq!(parsed, h, "{id} must parse back to the same variant");
        }
        assert!("no-such-heuristic".parse::<Heuristic>().is_err());
    }

    #[test]
    fn ids_are_distinct_and_kebab_case() {
        let ids: Vec<&str> = all_variants().iter().map(|h| h.id()).collect();
        let unique: std::collections::BTreeSet<&&str> = ids.iter().collect();
        assert_eq!(unique.len(), ids.len(), "duplicate heuristic id");
        for id in ids {
            assert!(
                id.chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-'),
                "`{id}` is not kebab-case"
            );
        }
    }

    #[test]
    fn with_seed_only_affects_leaf_random() {
        let h = Heuristic::LeafRandom { seed: 1 }.with_seed(9);
        assert_eq!(h, Heuristic::LeafRandom { seed: 9 });
        assert_eq!(Heuristic::LeafDecQ.with_seed(9), Heuristic::LeafDecQ);
        let parsed: Heuristic = "leaf-random".parse().unwrap();
        assert_eq!(
            parsed,
            Heuristic::LeafRandom {
                seed: Heuristic::DEFAULT_RANDOM_SEED
            }
        );
    }

    #[test]
    fn random_heuristic_is_seed_stable() {
        let (t, cat) = tree();
        let h = Heuristic::LeafRandom { seed: 99 };
        assert_eq!(h.schedule(&t, &cat), h.schedule(&t, &cat));
    }
}
