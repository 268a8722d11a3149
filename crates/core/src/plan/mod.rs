//! # The unified planning surface
//!
//! The paper compares one optimal algorithm, one exponential search, and
//! ten polynomial heuristics over the same instances; this module gives
//! them all one polymorphic shape so consumers stop re-implementing
//! dispatch:
//!
//! * [`QueryRef`] — a borrowed view that uniformly wraps AND-trees
//!   ([`AndTree`]), DNF trees ([`DnfTree`]), and general AND-OR trees
//!   ([`QueryTree`]), with conversions between the classes;
//! * [`Plan`] — the unified output: an [`AndSchedule`], [`DnfSchedule`],
//!   or decision-tree [`Strategy`],
//!   together with its expected cost, the planner that produced it, and
//!   the planning wall-time;
//! * [`Planner`] — the trait every algorithm implements
//!   (see [`planners`]);
//! * [`PlannerRegistry`] — lookup by stable kebab-case name,
//!   `default_for` dispatch to the optimal planner when the query class
//!   admits one, and the paper's figure-legend heuristic set as a view;
//! * [`Engine`] — the serving facade: an LRU plan cache keyed by
//!   (query fingerprint, catalog fingerprint, planner name) plus
//!   [`Engine::plan_batch`]`(queries, catalog, threads)`, which plans
//!   many queries against one catalog over `threads` workers (one
//!   thread plans inline, in order, to the same plans).
//!
//! ## Quick start
//!
//! ```
//! use paotr_core::plan::{Engine, QueryRef};
//! use paotr_core::prelude::*;
//!
//! let mut b = InstanceBuilder::new();
//! let a = b.stream("A", 1.0);
//! let bb = b.stream("B", 1.0);
//! let inst = b
//!     .term(|t| t.leaf(a, 1, 0.75).leaf(a, 2, 0.1).leaf(bb, 1, 0.5))
//!     .build()
//!     .unwrap();
//!
//! let engine = Engine::new();
//! let and_tree = inst.tree.term(0).as_and_tree();
//! let plan = engine.plan(&and_tree, &inst.catalog).unwrap();
//! assert_eq!(plan.planner, "greedy"); // Algorithm 1: optimal for AND-trees
//! assert!((plan.expected_cost.unwrap() - 1.825).abs() < 1e-12);
//! ```

pub(crate) mod engine;
pub(crate) mod fingerprint;
pub mod planners;
pub(crate) mod registry;
pub mod verify;

pub use engine::{CacheStats, Engine};
pub use fingerprint::catalog_fingerprint;
pub use registry::PlannerRegistry;
pub use verify::{verify_plan, PlanViolation};

use crate::algo::nonlinear::Strategy;
use crate::error::{Error, Result};
use crate::schedule::{AndSchedule, DnfSchedule};
use crate::stream::StreamCatalog;
use crate::tree::{AndTree, DnfTree, QueryTree};
use std::borrow::Cow;
use std::fmt;
use std::time::Duration;

/// The structural class of a query, deciding which planners apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueryClass {
    /// Single-level AND of leaves (paper Section III).
    And,
    /// OR of AND terms (paper Section IV).
    Dnf,
    /// Arbitrary AND-OR nesting (the open general case).
    General,
}

impl fmt::Display for QueryClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            QueryClass::And => "AND-tree",
            QueryClass::Dnf => "DNF",
            QueryClass::General => "general AND-OR",
        })
    }
}

/// A borrowed, uniformly-shaped view of any supported query tree.
///
/// Planners take a `QueryRef` so that one trait signature covers all
/// three tree representations; the `to_*` conversions let an algorithm
/// for one class serve compatible queries of another (e.g. Algorithm 1
/// planning a single-term DNF).
#[derive(Debug, Clone, Copy)]
pub enum QueryRef<'a> {
    /// A single-level AND-tree.
    And(&'a AndTree),
    /// An OR of AND terms.
    Dnf(&'a DnfTree),
    /// A general AND-OR tree.
    General(&'a QueryTree),
}

impl<'a> QueryRef<'a> {
    /// The representation class of the underlying tree.
    pub(crate) fn class(&self) -> QueryClass {
        match self {
            QueryRef::And(_) => QueryClass::And,
            QueryRef::Dnf(_) => QueryClass::Dnf,
            QueryRef::General(_) => QueryClass::General,
        }
    }

    /// Total number of leaves.
    pub(crate) fn num_leaves(&self) -> usize {
        match self {
            QueryRef::And(t) => t.len(),
            QueryRef::Dnf(t) => t.num_leaves(),
            QueryRef::General(t) => t.num_leaves(),
        }
    }

    /// True when no stream is referenced by two leaves.
    pub(crate) fn is_read_once(&self) -> bool {
        match self {
            QueryRef::And(t) => t.is_read_once(),
            QueryRef::Dnf(t) => t.is_read_once(),
            QueryRef::General(t) => t.is_read_once(),
        }
    }

    /// Checks every leaf against the catalog.
    pub(crate) fn validate(&self, catalog: &StreamCatalog) -> Result<()> {
        match self {
            QueryRef::And(t) => t.validate(catalog),
            QueryRef::Dnf(t) => t.validate(catalog),
            QueryRef::General(t) => t.validate(catalog),
        }
    }

    /// Views the query as an AND-tree when its structure allows it:
    /// AND-trees themselves (borrowed), single-term DNF trees, and
    /// general trees whose normal form is a pure conjunction.
    pub(crate) fn to_and_tree(self) -> Option<Cow<'a, AndTree>> {
        match self {
            QueryRef::And(t) => Some(Cow::Borrowed(t)),
            QueryRef::Dnf(t) if t.num_terms() == 1 => Some(Cow::Owned(t.term(0).as_and_tree())),
            QueryRef::Dnf(_) => None,
            QueryRef::General(t) => t.as_and_tree().map(Cow::Owned),
        }
    }

    /// Views the query as a DNF tree when its structure allows it:
    /// DNF trees themselves (borrowed), AND-trees (a one-term DNF), and
    /// general trees of AND-of-leaves under a root OR.
    pub(crate) fn to_dnf_tree(self) -> Option<Cow<'a, DnfTree>> {
        match self {
            QueryRef::And(t) => Some(Cow::Owned(DnfTree::from_and_tree(t))),
            QueryRef::Dnf(t) => Some(Cow::Borrowed(t)),
            QueryRef::General(t) => t.as_dnf().map(Cow::Owned),
        }
    }

    /// Views the query as a general AND-OR tree (always possible).
    pub(crate) fn to_query_tree(self) -> Cow<'a, QueryTree> {
        match self {
            QueryRef::And(t) => Cow::Owned(QueryTree::from((*t).clone())),
            QueryRef::Dnf(t) => Cow::Owned(QueryTree::from((*t).clone())),
            QueryRef::General(t) => Cow::Borrowed(t),
        }
    }

    /// Stable structural fingerprint of this query (see [`fingerprint`]).
    /// Representation-level: an AND-tree and its one-term DNF wrapping
    /// hash differently.
    pub(crate) fn fingerprint(&self) -> u64 {
        fingerprint::query_fingerprint(self)
    }
}

impl<'a> From<&'a AndTree> for QueryRef<'a> {
    fn from(t: &'a AndTree) -> QueryRef<'a> {
        QueryRef::And(t)
    }
}

impl<'a> From<&'a DnfTree> for QueryRef<'a> {
    fn from(t: &'a DnfTree) -> QueryRef<'a> {
        QueryRef::Dnf(t)
    }
}

impl<'a> From<&'a QueryTree> for QueryRef<'a> {
    fn from(t: &'a QueryTree) -> QueryRef<'a> {
        QueryRef::General(t)
    }
}

impl<'a> From<&'a crate::tree::DnfInstance> for QueryRef<'a> {
    fn from(inst: &'a crate::tree::DnfInstance) -> QueryRef<'a> {
        QueryRef::Dnf(&inst.tree)
    }
}

/// The executable artifact a planner produces, expressed over the
/// *normalized* tree of the planner's native class (e.g. an AND-tree
/// planner serving a one-term DNF returns leaf indices of
/// `QueryRef::to_and_tree`).
#[derive(Debug, Clone, PartialEq)]
pub enum PlanBody {
    /// A total order on an AND-tree's leaves.
    And(AndSchedule),
    /// A total order on a DNF tree's leaf addresses.
    Dnf(DnfSchedule),
    /// A non-linear (decision-tree) strategy over a DNF tree.
    Decision(Strategy),
    /// A flat leaf order over a general AND-OR tree.
    LeafOrder(Vec<usize>),
}

impl PlanBody {
    /// Number of leaves the plan covers (for a decision tree, the number
    /// of distinct leaves it can probe on some path).
    pub fn len(&self) -> usize {
        match self {
            PlanBody::And(s) => s.len(),
            PlanBody::Dnf(s) => s.len(),
            PlanBody::Decision(s) => {
                fn collect(
                    s: &Strategy,
                    out: &mut std::collections::BTreeSet<crate::leaf::LeafRef>,
                ) {
                    if let Strategy::Probe {
                        leaf,
                        on_true,
                        on_false,
                    } = s
                    {
                        out.insert(*leaf);
                        collect(on_true, out);
                        collect(on_false, out);
                    }
                }
                let mut leaves = std::collections::BTreeSet::new();
                collect(s, &mut leaves);
                leaves.len()
            }
            PlanBody::LeafOrder(o) => o.len(),
        }
    }

    /// True for plans over zero leaves (never produced by the built-in
    /// planners — trees are non-empty by construction).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The AND-schedule, if this is an AND-tree plan.
    pub fn as_and(&self) -> Option<&AndSchedule> {
        match self {
            PlanBody::And(s) => Some(s),
            _ => None,
        }
    }

    /// The DNF schedule, if this is a DNF plan.
    pub fn as_dnf(&self) -> Option<&DnfSchedule> {
        match self {
            PlanBody::Dnf(s) => Some(s),
            _ => None,
        }
    }

    /// The plan as a schedule over `tree`'s leaf addresses, converting an
    /// AND-tree plan when `tree` is a single term (the normalization an
    /// AND-tree planner applies to such queries). `None` for decision
    /// trees, general-tree orders, and mismatched shapes.
    pub fn to_dnf_schedule(&self, tree: &DnfTree) -> Option<DnfSchedule> {
        match self {
            PlanBody::Dnf(s) if s.len() == tree.num_leaves() => Some(s.clone()),
            PlanBody::And(s) if tree.num_terms() == 1 && s.len() == tree.num_leaves() => {
                Some(DnfSchedule::from_order_unchecked(
                    s.order()
                        .iter()
                        .map(|&j| crate::leaf::LeafRef::new(0, j))
                        .collect(),
                ))
            }
            _ => None,
        }
    }
}

/// The unified result of planning one query against one catalog.
#[derive(Debug, Clone)]
pub struct Plan {
    /// The schedule or strategy to execute.
    pub body: PlanBody,
    /// Expected acquisition cost of `body` under the catalog's per-item
    /// costs; `None` when exact evaluation is intractable for the class
    /// (only the general-tree planner on large trees).
    pub expected_cost: Option<f64>,
    /// Registry name of the planner that produced this plan.
    pub planner: String,
    /// Wall-clock time spent planning (excludes cache lookups; a cached
    /// [`Engine`] hit reports the original planning time).
    pub planning_time: Duration,
    /// Fingerprint of the planned query (see `QueryRef::fingerprint`).
    pub query_fingerprint: u64,
    /// Fingerprint of the catalog (see [`catalog_fingerprint`]).
    pub catalog_fingerprint: u64,
}

impl Plan {
    /// The expected cost, or NaN when unavailable.
    pub fn cost_or_nan(&self) -> f64 {
        self.expected_cost.unwrap_or(f64::NAN)
    }

    /// Renders just the schedule/strategy (the [`fmt::Display`] impl also
    /// prints the planner name and cost).
    pub fn body_display(&self) -> String {
        match &self.body {
            PlanBody::And(s) => s.to_string(),
            PlanBody::Dnf(s) => s.to_string(),
            PlanBody::Decision(s) => format!("decision tree ({} probes)", s.size()),
            PlanBody::LeafOrder(o) => format!("{o:?}"),
        }
    }
}

/// Plans compare by what they prescribe (body, cost, planner and the
/// fingerprints) — planning wall-time is measurement noise, not
/// identity.
impl PartialEq for Plan {
    fn eq(&self, other: &Plan) -> bool {
        self.body == other.body
            && self.expected_cost == other.expected_cost
            && self.planner == other.planner
            && self.query_fingerprint == other.query_fingerprint
            && self.catalog_fingerprint == other.catalog_fingerprint
    }
}

impl fmt::Display for Plan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.planner, self.body_display())?;
        match self.expected_cost {
            Some(c) => write!(f, "  E[cost] = {c:.6}"),
            None => write!(f, "  E[cost] = (not evaluated)"),
        }
    }
}

/// A scheduling algorithm exposed through the uniform planning surface.
///
/// Implementations are stateless and cheap to construct; the registry
/// stores them behind `Arc<dyn Planner>`.
pub trait Planner: Send + Sync {
    /// Stable kebab-case identifier (unique within a registry); this is
    /// the name the CLI, the cache key, and [`PlannerRegistry::get`] use.
    fn name(&self) -> &str;

    /// One-line human description for help texts.
    fn description(&self) -> &str {
        ""
    }

    /// True when [`Planner::plan`] can handle this query (structure and
    /// tractable size).
    fn supports(&self, query: &QueryRef<'_>) -> bool;

    /// True when this planner provably minimizes expected cost for this
    /// query (e.g. Algorithm 1 on shared AND-trees, Theorem 1).
    fn is_optimal_for(&self, _query: &QueryRef<'_>) -> bool {
        false
    }

    /// Computes a plan. Returns [`Error::UnsupportedQuery`] when
    /// [`Planner::supports`] is false for `query`.
    fn plan(&self, query: &QueryRef<'_>, catalog: &StreamCatalog) -> Result<Plan>;
}

/// Shared helper: the `UnsupportedQuery` error for `planner` on `query`.
pub(crate) fn unsupported(planner: &dyn Planner, query: &QueryRef<'_>) -> Error {
    Error::UnsupportedQuery {
        planner: planner.name().to_string(),
        query: format!("{} ({} leaves)", query.class(), query.num_leaves()),
    }
}

/// Shared helper: assembles a [`Plan`], stamping fingerprints and the
/// elapsed planning time measured by the caller.
pub(crate) fn finish_plan(
    planner: &dyn Planner,
    query: &QueryRef<'_>,
    catalog: &StreamCatalog,
    body: PlanBody,
    expected_cost: Option<f64>,
    started: std::time::Instant,
) -> Plan {
    Plan {
        body,
        expected_cost,
        planner: planner.name().to_string(),
        planning_time: started.elapsed(),
        query_fingerprint: query.fingerprint(),
        catalog_fingerprint: catalog_fingerprint(catalog),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::leaf::Leaf;
    use crate::prob::Prob;
    use crate::stream::StreamId;
    use crate::tree::Node;

    fn leaf(s: usize, d: u32, p: f64) -> Leaf {
        Leaf::new(StreamId(s), d, Prob::new(p).unwrap()).unwrap()
    }

    #[test]
    fn query_ref_classes_and_conversions() {
        let and = AndTree::new(vec![leaf(0, 1, 0.5), leaf(1, 2, 0.25)]).unwrap();
        let q = QueryRef::from(&and);
        assert_eq!(q.class(), QueryClass::And);
        assert_eq!(q.num_leaves(), 2);
        assert!(q.to_and_tree().is_some());
        assert_eq!(q.to_dnf_tree().unwrap().num_terms(), 1);

        let dnf = DnfTree::from_leaves(vec![
            vec![leaf(0, 1, 0.5)],
            vec![leaf(1, 1, 0.5), leaf(2, 1, 0.5)],
        ])
        .unwrap();
        let q = QueryRef::from(&dnf);
        assert_eq!(q.class(), QueryClass::Dnf);
        assert!(q.to_and_tree().is_none(), "two terms are not an AND-tree");
        assert!(q.is_read_once());

        let single = DnfTree::from_leaves(vec![vec![leaf(0, 1, 0.5), leaf(0, 3, 0.5)]]).unwrap();
        let q = QueryRef::from(&single);
        assert_eq!(q.to_and_tree().unwrap().len(), 2);
        assert!(!q.is_read_once());

        let deep = QueryTree::new(Node::and(vec![
            Node::leaf(StreamId(0), 1, Prob::HALF).unwrap(),
            Node::or(vec![
                Node::leaf(StreamId(1), 1, Prob::HALF).unwrap(),
                Node::and(vec![
                    Node::leaf(StreamId(0), 2, Prob::HALF).unwrap(),
                    Node::leaf(StreamId(2), 1, Prob::HALF).unwrap(),
                ]),
            ]),
        ]))
        .unwrap();
        let q = QueryRef::from(&deep);
        assert_eq!(q.class(), QueryClass::General);
        assert!(q.to_and_tree().is_none());
        assert!(q.to_dnf_tree().is_none(), "AND over OR is not DNF");
        assert_eq!(q.to_query_tree().num_leaves(), 4);
    }

    #[test]
    fn fingerprints_separate_structure_not_representation_noise() {
        let a = AndTree::new(vec![leaf(0, 1, 0.5), leaf(1, 2, 0.25)]).unwrap();
        let b = AndTree::new(vec![leaf(0, 1, 0.5), leaf(1, 2, 0.25)]).unwrap();
        let c = AndTree::new(vec![leaf(0, 1, 0.5), leaf(1, 2, 0.26)]).unwrap();
        assert_eq!(
            QueryRef::from(&a).fingerprint(),
            QueryRef::from(&b).fingerprint()
        );
        assert_ne!(
            QueryRef::from(&a).fingerprint(),
            QueryRef::from(&c).fingerprint()
        );
        // representation matters: AND-tree vs its 1-term DNF wrapping
        let d = DnfTree::from_and_tree(&a);
        assert_ne!(
            QueryRef::from(&a).fingerprint(),
            QueryRef::from(&d).fingerprint()
        );
    }

    #[test]
    fn plan_equality_ignores_planning_time() {
        let and = AndTree::new(vec![leaf(0, 1, 0.5)]).unwrap();
        let cat = StreamCatalog::unit(1);
        let q = QueryRef::from(&and);
        let registry = PlannerRegistry::with_defaults();
        let p = registry.default_for(&q).unwrap().plan(&q, &cat).unwrap();
        let mut p2 = p.clone();
        p2.planning_time += Duration::from_secs(1);
        assert_eq!(p, p2);
    }
}
