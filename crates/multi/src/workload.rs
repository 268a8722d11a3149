//! Workloads: sets of concurrent queries over one shared catalog, and
//! the shared-stream interference analysis between them.

use paotr_core::cost::{CostModel, EvalScratch};
use paotr_core::error::{Error, Result};
use paotr_core::plan::Engine;
use paotr_core::schedule::DnfSchedule;
use paotr_core::stream::{StreamCatalog, StreamId};
use paotr_core::tree::DnfTree;
use std::collections::BTreeSet;

/// One query of a workload: a DNF tree plus serving metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadQuery {
    /// Display name (unique within the workload).
    pub name: String,
    /// The query tree.
    pub tree: DnfTree,
    /// Relative weight — arrival rate or importance; scales this
    /// query's contribution to every aggregate cost.
    pub weight: f64,
}

/// A set of concurrent Boolean queries evaluated against **one shared
/// [`StreamCatalog`]** — the unit the joint planners
/// (see [`crate::planner`]) optimize. Items pulled for one query are
/// available to every other query in the same evaluation tick, so the
/// whole workload's cost is not the sum of its parts.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    queries: Vec<WorkloadQuery>,
    catalog: StreamCatalog,
}

impl Workload {
    /// Builds a workload after validating every query against the
    /// catalog, the weights (finite, `> 0`) and name uniqueness.
    pub fn new(queries: Vec<WorkloadQuery>, catalog: StreamCatalog) -> Result<Workload> {
        if queries.is_empty() {
            return Err(Error::InvalidWorkload(
                "a workload needs at least one query".into(),
            ));
        }
        let mut names = BTreeSet::new();
        for q in &queries {
            q.tree.validate(&catalog)?;
            if !q.weight.is_finite() || q.weight <= 0.0 {
                return Err(Error::InvalidWorkload(format!(
                    "query `{}` has weight {}, expected a finite value > 0",
                    q.name, q.weight
                )));
            }
            if !names.insert(q.name.as_str()) {
                return Err(Error::InvalidWorkload(format!(
                    "duplicate query name `{}`",
                    q.name
                )));
            }
        }
        Ok(Workload { queries, catalog })
    }

    /// Wraps bare trees as a uniformly-weighted workload with generated
    /// names `q0`, `q1`, ...
    pub fn from_trees(trees: Vec<DnfTree>, catalog: StreamCatalog) -> Result<Workload> {
        let queries = trees
            .into_iter()
            .enumerate()
            .map(|(i, tree)| WorkloadQuery {
                name: format!("q{i}"),
                tree,
                weight: 1.0,
            })
            .collect();
        Workload::new(queries, catalog)
    }

    /// Number of queries.
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// Always false: `new` rejects empty workloads.
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }

    /// The queries, in workload order.
    pub fn queries(&self) -> &[WorkloadQuery] {
        &self.queries
    }

    /// Query `i`.
    pub fn query(&self, i: usize) -> &WorkloadQuery {
        &self.queries[i]
    }

    /// The shared stream catalog.
    pub fn catalog(&self) -> &StreamCatalog {
        &self.catalog
    }

    /// The per-query weights, in workload order.
    pub fn weights(&self) -> Vec<f64> {
        self.queries.iter().map(|q| q.weight).collect()
    }

    /// Total number of leaves across the workload.
    pub fn num_leaves(&self) -> usize {
        self.queries.iter().map(|q| q.tree.num_leaves()).sum()
    }

    /// Shared-stream interference analysis: which streams are read by
    /// which queries, and how much pull traffic can be amortized.
    /// Expected item counts are computed under each query's default
    /// plan (the `engine`'s per-class optimal/best planner).
    pub fn interference(&self, engine: &Engine) -> Result<InterferenceReport> {
        let schedules = self.default_schedules(engine)?;
        let mut scratch = EvalScratch::new();
        let per_query_items: Vec<Vec<f64>> = self
            .queries
            .iter()
            .zip(&schedules)
            .map(|(q, s)| {
                let model = CostModel::new(&q.tree, &self.catalog);
                model.expected_cost(s, &mut scratch);
                model.items_vec(&scratch)
            })
            .collect();

        let stream_sets: Vec<BTreeSet<StreamId>> = self
            .queries
            .iter()
            .map(|q| q.tree.streams().into_iter().collect())
            .collect();

        let per_stream = (0..self.catalog.len())
            .map(StreamId)
            .filter_map(|k| {
                let readers: Vec<usize> = (0..self.len())
                    .filter(|&q| stream_sets[q].contains(&k))
                    .collect();
                if readers.is_empty() {
                    return None;
                }
                let expected_items: Vec<f64> =
                    readers.iter().map(|&q| per_query_items[q][k.0]).collect();
                let sum: f64 = expected_items.iter().sum();
                let max = expected_items.iter().cloned().fold(0.0, f64::max);
                Some(StreamInterference {
                    stream: k,
                    readers,
                    expected_items,
                    expected_overlap: sum - max,
                })
            })
            .collect();

        let trees: Vec<DnfTree> = self.queries.iter().map(|q| q.tree.clone()).collect();
        let pairwise = paotr_core::tree::pairwise_stream_overlap(&trees);
        Ok(InterferenceReport {
            per_stream,
            pairwise,
        })
    }

    /// Every query's default plan, converted to a [`DnfSchedule`] over
    /// its own tree.
    pub(crate) fn default_schedules(&self, engine: &Engine) -> Result<Vec<DnfSchedule>> {
        self.queries
            .iter()
            .map(|q| {
                let plan = engine.plan(&q.tree, &self.catalog)?;
                extract_schedule(&plan, &q.tree, &q.name)
            })
            .collect()
    }
}

/// Converts a per-query [`Plan`](paotr_core::plan::Plan) body into a
/// schedule over `tree`'s leaf addresses — the one place the
/// "non-schedule plan" failure is worded and raised.
pub(crate) fn extract_schedule(
    plan: &paotr_core::plan::Plan,
    tree: &DnfTree,
    query_name: &str,
) -> Result<DnfSchedule> {
    plan.body.to_dnf_schedule(tree).ok_or_else(|| {
        Error::InvalidWorkload(format!(
            "planner `{}` produced a non-schedule plan for `{query_name}`",
            plan.planner
        ))
    })
}

/// The catalog to re-plan against while some streams are in outage:
/// identical to `catalog` except that every stream flagged in `out`
/// costs `factor` times as much. Cost-optimal planners then sink dead
/// streams' leaves to the end of every schedule — the serving layers'
/// outage re-plan stops pulling dead streams first, without any new
/// planner machinery.
///
/// # Panics
/// Panics if `factor` is not a finite positive value (the penalized
/// catalog must stay valid).
pub fn outage_catalog(catalog: &StreamCatalog, out: &[bool], factor: f64) -> StreamCatalog {
    assert!(
        factor.is_finite() && factor > 0.0,
        "outage penalty factor must be finite and positive"
    );
    let mut penalized = StreamCatalog::new();
    for k in 0..catalog.len() {
        let id = StreamId(k);
        let dead = out.get(k).copied().unwrap_or(false);
        let cost = catalog.cost(id) * if dead { factor } else { 1.0 };
        penalized
            .add_named(catalog.name(id), cost)
            .expect("penalizing a valid catalog keeps it valid");
    }
    penalized
}

/// One shared stream's cross-query usage.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamInterference {
    /// The stream.
    pub stream: StreamId,
    /// Indices of the queries reading it.
    pub readers: Vec<usize>,
    /// Expected items each reader pulls per evaluation in isolation
    /// (aligned with `readers`).
    pub expected_items: Vec<f64>,
    /// Expected pull overlap: items per tick that perfect sharing could
    /// amortize away (`sum - max` of `expected_items`). 0 for
    /// single-reader streams.
    pub expected_overlap: f64,
}

/// The workload-level interference analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct InterferenceReport {
    /// Per-stream usage, for every stream with at least one reader.
    pub per_stream: Vec<StreamInterference>,
    /// Pairwise Jaccard overlap of the queries' stream sets
    /// (symmetric, 1 on the diagonal).
    pub pairwise: Vec<Vec<f64>>,
}

impl InterferenceReport {
    /// Mean off-diagonal pairwise stream overlap; 0 for single-query
    /// workloads. Delegates to the canonical definition in
    /// [`paotr_core::tree::mean_pairwise_overlap_from_matrix`].
    pub fn mean_pairwise_overlap(&self) -> f64 {
        paotr_core::tree::mean_pairwise_overlap_from_matrix(&self.pairwise)
    }

    /// Number of streams read by two or more queries.
    pub fn shared_streams(&self) -> usize {
        self.per_stream
            .iter()
            .filter(|s| s.readers.len() > 1)
            .count()
    }

    /// Total expected items per tick that cross-query sharing could
    /// amortize (summed over streams, unweighted).
    pub fn total_expected_overlap(&self) -> f64 {
        self.per_stream.iter().map(|s| s.expected_overlap).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paotr_core::leaf::Leaf;
    use paotr_core::prob::Prob;

    fn leaf(s: usize, d: u32, p: f64) -> Leaf {
        Leaf::new(StreamId(s), d, Prob::new(p).unwrap()).unwrap()
    }

    fn two_query_workload() -> Workload {
        let t0 = DnfTree::from_leaves(vec![
            vec![leaf(0, 3, 0.4), leaf(1, 1, 0.7)],
            vec![leaf(0, 5, 0.6)],
        ])
        .unwrap();
        let t1 = DnfTree::from_leaves(vec![vec![leaf(0, 2, 0.5), leaf(2, 1, 0.3)]]).unwrap();
        Workload::from_trees(
            vec![t0, t1],
            StreamCatalog::from_costs([2.0, 3.0, 1.0]).unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn outage_catalog_penalizes_only_dead_streams() {
        let cat = StreamCatalog::from_costs([1.0, 2.0, 3.0]).unwrap();
        let pen = outage_catalog(&cat, &[false, true], 1000.0);
        assert_eq!(pen.len(), 3);
        assert_eq!(pen.cost(StreamId(0)), 1.0);
        assert_eq!(pen.cost(StreamId(1)), 2000.0);
        assert_eq!(pen.cost(StreamId(2)), 3.0, "missing flags mean alive");
        assert_eq!(pen.name(StreamId(1)), cat.name(StreamId(1)));
    }

    #[test]
    fn construction_validates() {
        let cat = StreamCatalog::unit(1);
        let t = DnfTree::from_leaves(vec![vec![leaf(0, 1, 0.5)]]).unwrap();
        assert!(Workload::from_trees(vec![], cat.clone()).is_err());
        // tree referencing a missing stream
        let bad = DnfTree::from_leaves(vec![vec![leaf(3, 1, 0.5)]]).unwrap();
        assert!(Workload::from_trees(vec![bad], cat.clone()).is_err());
        // bad weight and duplicate names
        let mk = |w: f64, n: &str| WorkloadQuery {
            name: n.into(),
            tree: t.clone(),
            weight: w,
        };
        assert!(Workload::new(vec![mk(0.0, "a")], cat.clone()).is_err());
        assert!(Workload::new(vec![mk(f64::NAN, "a")], cat.clone()).is_err());
        let bare = Workload::from_trees(vec![t.clone(), t.clone()], cat.clone()).unwrap();
        assert_eq!(bare.weights(), vec![1.0; 2], "bare trees weigh 1");
        assert!(Workload::new(vec![mk(1.0, "a"), mk(1.0, "a")], cat.clone()).is_err());
        let ok = Workload::new(vec![mk(1.0, "a"), mk(2.0, "b")], cat).unwrap();
        assert_eq!(ok.len(), 2);
        assert_eq!(ok.weights(), vec![1.0, 2.0]);
        assert_eq!(ok.num_leaves(), 2);
    }

    #[test]
    fn interference_reports_shared_streams_and_overlap() {
        let w = two_query_workload();
        let report = w.interference(&Engine::new()).unwrap();
        // stream 0 is read by both queries, streams 1 and 2 by one each
        assert_eq!(report.per_stream.len(), 3);
        assert_eq!(report.shared_streams(), 1);
        let s0 = &report.per_stream[0];
        assert_eq!(s0.stream, StreamId(0));
        assert_eq!(s0.readers, vec![0, 1]);
        assert!(s0.expected_overlap > 0.0);
        for s in &report.per_stream[1..] {
            assert_eq!(s.readers.len(), 1);
            assert_eq!(s.expected_overlap, 0.0);
        }
        // q0 streams {0,1}, q1 streams {0,2}: Jaccard 1/3
        assert!((report.pairwise[0][1] - 1.0 / 3.0).abs() < 1e-12);
        assert!((report.mean_pairwise_overlap() - 1.0 / 3.0).abs() < 1e-12);
        assert!(report.total_expected_overlap() > 0.0);
    }
}
