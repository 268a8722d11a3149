//! Static verification of planner outputs.
//!
//! A [`Plan`] is an artifact: a schedule (or strategy) plus a priced
//! expected cost, stamped with the fingerprints of the query and
//! catalog it was planned against. Everything a plan claims is
//! re-checkable without executing anything, and this module does
//! exactly that:
//!
//! * **structure** — the body covers every leaf of the query exactly
//!   once (a permutation of leaf indices / leaf addresses), and the
//!   body class is compatible with the query class;
//! * **provenance** — the stamped fingerprints match the query and
//!   catalog presented, and every referenced stream resolves;
//! * **price** — the stored expected cost is finite, non-negative and
//!   reproduces under independent re-evaluation to ≤ 1e-9 relative
//!   error ([`and_eval`],
//!   [`dnf_eval`],
//!   `nonlinear::expected_cost`
//!   or `general::expected_cost`,
//!   by body class);
//! * **bound soundness** — for depth-first DNF schedules, the
//!   branch-and-bound admissible bound
//!   (`CostModel::completion_lower_bound`) evaluated at the
//!   empty search state never exceeds the verified cost. An inflated
//!   bound would let the B&B prune the optimum; a cost below the bound
//!   is a mispriced plan.
//!
//! [`verify_plan`] returns every violation found (not just the first)
//! as a typed [`PlanViolation`] carrying a `path` into the plan, so a
//! report can point at `body.order[3]` rather than "somewhere". The
//! [`Engine`](super::Engine) runs this check under `debug_assertions`
//! on every freshly planned (cache-miss) plan, so the whole test suite
//! doubles as verifier soak; release builds pay nothing.

use super::{Plan, PlanBody, QueryRef};
use crate::algo::{general, nonlinear};
use crate::cost::{and_eval, dnf_eval, CostModel, EvalScratch};
use crate::leaf::LeafRef;
use crate::plan::fingerprint::catalog_fingerprint;
use crate::stream::StreamCatalog;
use crate::tree::DnfTree;
use std::fmt;

/// Relative tolerance for cost reproduction: the verifier recomputes
/// the expected cost along the same arithmetic the evaluators use, so
/// anything past accumulated rounding is a real mispricing.
pub const COST_REL_TOL: f64 = 1e-9;

/// One statically checkable defect in a [`Plan`], with a `path` into
/// the plan document naming where it was found.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanViolation {
    /// A leaf of the query never appears in the plan's order.
    MissingLeaf {
        /// Path into the plan (e.g. `body.order`).
        path: String,
        /// Human-readable identification of the missing leaf.
        detail: String,
    },
    /// A leaf appears more than once in the plan's order.
    DuplicateLeaf {
        /// Path into the plan naming the offending slot.
        path: String,
        /// Human-readable identification of the duplicated leaf.
        detail: String,
    },
    /// A leaf references a stream the catalog does not know.
    UnresolvedStream {
        /// Path into the plan or query.
        path: String,
        /// Which stream failed to resolve, and from where.
        detail: String,
    },
    /// The body's shape is incompatible with the query (wrong class,
    /// wrong leaf count, out-of-range address).
    ShapeMismatch {
        /// Path into the plan.
        path: String,
        /// What failed to line up.
        detail: String,
    },
    /// The stamped query/catalog fingerprint differs from the presented
    /// query/catalog — the plan was made for something else.
    FingerprintMismatch {
        /// Path into the plan (`query_fingerprint` or
        /// `catalog_fingerprint`).
        path: String,
        /// Stamped vs. presented values.
        detail: String,
    },
    /// The plan carries no expected cost although its class prices
    /// exactly.
    MissingCost {
        /// Path into the plan.
        path: String,
    },
    /// The stored expected cost is NaN, infinite, or negative.
    NonFiniteCost {
        /// Path into the plan.
        path: String,
        /// The offending value.
        value: f64,
    },
    /// The stored expected cost does not reproduce under independent
    /// re-evaluation.
    CostMismatch {
        /// Path into the plan.
        path: String,
        /// The cost the plan claims.
        stored: f64,
        /// The cost re-evaluation produced.
        recomputed: f64,
    },
    /// The B&B admissible lower bound exceeds the plan's verified cost
    /// — either the bound is inadmissible or the cost is deflated.
    BoundExceedsCost {
        /// Path into the plan.
        path: String,
        /// The admissible bound at the empty search state.
        bound: f64,
        /// The plan's (recomputed) expected cost.
        cost: f64,
    },
}

impl PlanViolation {
    /// The path into the plan document where the violation sits.
    pub fn path(&self) -> &str {
        match self {
            PlanViolation::MissingLeaf { path, .. }
            | PlanViolation::DuplicateLeaf { path, .. }
            | PlanViolation::UnresolvedStream { path, .. }
            | PlanViolation::ShapeMismatch { path, .. }
            | PlanViolation::FingerprintMismatch { path, .. }
            | PlanViolation::MissingCost { path }
            | PlanViolation::NonFiniteCost { path, .. }
            | PlanViolation::CostMismatch { path, .. }
            | PlanViolation::BoundExceedsCost { path, .. } => path,
        }
    }

    /// Stable kebab-case rule name (one per variant).
    pub fn rule(&self) -> &'static str {
        match self {
            PlanViolation::MissingLeaf { .. } => "missing-leaf",
            PlanViolation::DuplicateLeaf { .. } => "duplicate-leaf",
            PlanViolation::UnresolvedStream { .. } => "unresolved-stream",
            PlanViolation::ShapeMismatch { .. } => "shape-mismatch",
            PlanViolation::FingerprintMismatch { .. } => "fingerprint-mismatch",
            PlanViolation::MissingCost { .. } => "missing-cost",
            PlanViolation::NonFiniteCost { .. } => "non-finite-cost",
            PlanViolation::CostMismatch { .. } => "cost-mismatch",
            PlanViolation::BoundExceedsCost { .. } => "bound-exceeds-cost",
        }
    }
}

impl fmt::Display for PlanViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanViolation::MissingLeaf { path, detail } => {
                write!(f, "{path}: leaf never scheduled: {detail}")
            }
            PlanViolation::DuplicateLeaf { path, detail } => {
                write!(f, "{path}: leaf scheduled twice: {detail}")
            }
            PlanViolation::UnresolvedStream { path, detail } => {
                write!(f, "{path}: unresolved stream: {detail}")
            }
            PlanViolation::ShapeMismatch { path, detail } => {
                write!(f, "{path}: shape mismatch: {detail}")
            }
            PlanViolation::FingerprintMismatch { path, detail } => {
                write!(f, "{path}: fingerprint mismatch: {detail}")
            }
            PlanViolation::MissingCost { path } => {
                write!(f, "{path}: expected cost missing")
            }
            PlanViolation::NonFiniteCost { path, value } => {
                write!(
                    f,
                    "{path}: expected cost {value} is not finite/non-negative"
                )
            }
            PlanViolation::CostMismatch {
                path,
                stored,
                recomputed,
            } => write!(
                f,
                "{path}: stored cost {stored} does not reproduce (re-evaluated {recomputed})"
            ),
            PlanViolation::BoundExceedsCost { path, bound, cost } => write!(
                f,
                "{path}: admissible bound {bound} exceeds verified cost {cost}"
            ),
        }
    }
}

/// Relative difference scaled to the larger magnitude (floored at 1 so
/// near-zero costs compare absolutely).
fn rel_diff(a: f64, b: f64) -> f64 {
    (a - b).abs() / f64::max(1.0, f64::max(a.abs(), b.abs()))
}

/// Statically verifies `plan` against the query and catalog it claims
/// to be for. Returns every violation found; an empty vector means the
/// plan passes all checks. Never executes the plan.
pub fn verify_plan(
    plan: &Plan,
    query: &QueryRef<'_>,
    catalog: &StreamCatalog,
) -> Vec<PlanViolation> {
    let mut out = Vec::new();

    // Provenance: every query leaf resolves in the catalog, and the
    // stamps match what was presented.
    if let Err(e) = query.validate(catalog) {
        out.push(PlanViolation::UnresolvedStream {
            path: "query".into(),
            detail: e.to_string(),
        });
        // Cost evaluators index the catalog by stream id; nothing else
        // is checkable safely.
        return out;
    }
    let query_fp = query.fingerprint();
    if plan.query_fingerprint != query_fp {
        out.push(PlanViolation::FingerprintMismatch {
            path: "query_fingerprint".into(),
            detail: format!(
                "plan stamped {:#x}, query is {query_fp:#x}",
                plan.query_fingerprint
            ),
        });
    }
    let catalog_fp = catalog_fingerprint(catalog);
    if plan.catalog_fingerprint != catalog_fp {
        out.push(PlanViolation::FingerprintMismatch {
            path: "catalog_fingerprint".into(),
            detail: format!(
                "plan stamped {:#x}, catalog is {catalog_fp:#x}",
                plan.catalog_fingerprint
            ),
        });
    }

    // Structure + price, by body class.
    let recomputed = match &plan.body {
        PlanBody::And(s) => {
            let Some(tree) = query.to_and_tree() else {
                out.push(PlanViolation::ShapeMismatch {
                    path: "body".into(),
                    detail: format!("AND schedule for a {} query", query.class()),
                });
                return out;
            };
            verify_and_order(s.order(), tree.len(), &mut out);
            Some(and_eval::expected_cost(&tree, catalog, s))
        }
        PlanBody::Dnf(s) => {
            let Some(tree) = query.to_dnf_tree() else {
                out.push(PlanViolation::ShapeMismatch {
                    path: "body".into(),
                    detail: format!("DNF schedule for a {} query", query.class()),
                });
                return out;
            };
            verify_dnf_order(s.order(), &tree, &mut out);
            if out
                .iter()
                .any(|v| matches!(v, PlanViolation::ShapeMismatch { .. }))
            {
                // An out-of-range address would index past the arena.
                return out;
            }
            let cost = dnf_eval::expected_cost(&tree, catalog, s);
            verify_bound(s, &tree, catalog, cost, plan.expected_cost, &mut out);
            Some(cost)
        }
        PlanBody::Decision(strategy) => {
            let Some(tree) = query.to_dnf_tree() else {
                out.push(PlanViolation::ShapeMismatch {
                    path: "body".into(),
                    detail: format!("decision strategy for a {} query", query.class()),
                });
                return out;
            };
            Some(nonlinear::expected_cost(&tree, catalog, strategy))
        }
        PlanBody::LeafOrder(order) => {
            let tree = query.to_query_tree();
            verify_and_order(order, tree.num_leaves(), &mut out);
            if order.iter().any(|&j| j >= tree.num_leaves()) {
                return out;
            }
            Some(general::expected_cost(&tree, catalog, order))
        }
    };

    match plan.expected_cost {
        None => {
            // Only the general-tree planner may decline to price (and
            // only on trees too large for exact evaluation); every
            // other class prices exactly.
            if !matches!(plan.body, PlanBody::LeafOrder(_)) {
                out.push(PlanViolation::MissingCost {
                    path: "expected_cost".into(),
                });
            }
        }
        Some(stored) => {
            if !stored.is_finite() || stored < 0.0 {
                out.push(PlanViolation::NonFiniteCost {
                    path: "expected_cost".into(),
                    value: stored,
                });
            } else if let Some(recomputed) = recomputed {
                if rel_diff(stored, recomputed) > COST_REL_TOL {
                    out.push(PlanViolation::CostMismatch {
                        path: "expected_cost".into(),
                        stored,
                        recomputed,
                    });
                }
            }
        }
    }

    out
}

/// Checks that `order` is a permutation of `0..n`.
fn verify_and_order(order: &[usize], n: usize, out: &mut Vec<PlanViolation>) {
    if order.len() != n {
        out.push(PlanViolation::ShapeMismatch {
            path: "body.order".into(),
            detail: format!("{} scheduled leaves, query has {n}", order.len()),
        });
    }
    let mut seen = vec![false; n];
    for (slot, &j) in order.iter().enumerate() {
        if j >= n {
            out.push(PlanViolation::ShapeMismatch {
                path: format!("body.order[{slot}]"),
                detail: format!("leaf index {j} out of range (query has {n})"),
            });
        } else if seen[j] {
            out.push(PlanViolation::DuplicateLeaf {
                path: format!("body.order[{slot}]"),
                detail: format!("leaf {j}"),
            });
        } else {
            seen[j] = true;
        }
    }
    for (j, s) in seen.iter().enumerate() {
        if !s && order.len() <= n {
            out.push(PlanViolation::MissingLeaf {
                path: "body.order".into(),
                detail: format!("leaf {j}"),
            });
        }
    }
}

/// Checks that `order` covers every leaf address of `tree` exactly once.
fn verify_dnf_order(order: &[LeafRef], tree: &DnfTree, out: &mut Vec<PlanViolation>) {
    if order.len() != tree.num_leaves() {
        out.push(PlanViolation::ShapeMismatch {
            path: "body.order".into(),
            detail: format!(
                "{} scheduled leaves, query has {}",
                order.len(),
                tree.num_leaves()
            ),
        });
    }
    let mut seen: Vec<Vec<bool>> = (0..tree.num_terms())
        .map(|t| vec![false; tree.term(t).len()])
        .collect();
    for (slot, r) in order.iter().enumerate() {
        if r.term >= tree.num_terms() || r.leaf >= tree.term(r.term.min(tree.num_terms() - 1)).len()
        {
            out.push(PlanViolation::ShapeMismatch {
                path: format!("body.order[{slot}]"),
                detail: format!("leaf address {}.{} out of range", r.term, r.leaf),
            });
        } else if seen[r.term][r.leaf] {
            out.push(PlanViolation::DuplicateLeaf {
                path: format!("body.order[{slot}]"),
                detail: format!("leaf {}.{}", r.term, r.leaf),
            });
        } else {
            seen[r.term][r.leaf] = true;
        }
    }
    if order.len() <= tree.num_leaves() {
        for (t, leaves) in seen.iter().enumerate() {
            for (l, s) in leaves.iter().enumerate() {
                if !s {
                    out.push(PlanViolation::MissingLeaf {
                        path: "body.order".into(),
                        detail: format!("leaf {t}.{l}"),
                    });
                }
            }
        }
    }
}

/// Bound-soundness check for depth-first DNF schedules: the admissible
/// completion bound of the first phase, at the empty search state, must
/// not exceed the schedule's total expected cost (the phase is a
/// prefix of it and costs are non-negative). Restricted to depth-first
/// schedules because the bound's admissibility argument freezes the
/// completed-term set for a whole phase — interleaved schedules can
/// legitimately complete other terms mid-phase and pay less.
fn verify_bound(
    schedule: &crate::schedule::DnfSchedule,
    tree: &DnfTree,
    catalog: &StreamCatalog,
    recomputed: f64,
    stored: Option<f64>,
    out: &mut Vec<PlanViolation>,
) {
    if schedule.is_empty() || !schedule.is_depth_first(tree) {
        return;
    }
    let first_term = schedule.order()[0].term;
    let phase: Vec<LeafRef> = schedule
        .order()
        .iter()
        .copied()
        .take_while(|r| r.term == first_term)
        .collect();
    let model = CostModel::new(tree, catalog);
    let mut state = EvalScratch::new();
    model.freeze_prefix(&[], &mut state);
    let bound = model.completion_lower_bound(first_term, &phase, &mut state);
    // Check against the *claimed* cost when present (that is what the
    // B&B compares incumbents with), falling back to the recomputed
    // one; the ≤-tolerance mirrors COST_REL_TOL.
    let cost = stored.filter(|c| c.is_finite()).unwrap_or(recomputed);
    if bound > cost && rel_diff(bound, cost) > COST_REL_TOL {
        out.push(PlanViolation::BoundExceedsCost {
            path: "expected_cost".into(),
            bound,
            cost,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::Engine;
    use crate::tree::InstanceBuilder;

    fn instance() -> crate::tree::DnfInstance {
        let mut b = InstanceBuilder::new();
        let a = b.stream("A", 1.0);
        let c = b.stream("B", 2.5);
        b.term(|t| t.leaf(a, 2, 0.7).leaf(c, 1, 0.4))
            .term(|t| t.leaf(a, 3, 0.5).leaf(c, 2, 0.9))
            .build()
            .unwrap()
    }

    #[test]
    fn engine_plans_verify_clean() {
        let inst = instance();
        let engine = Engine::new();
        for name in engine.registry().names() {
            let q = QueryRef::from(&inst.tree);
            let p = engine.registry().get(name).unwrap();
            if !p.supports(&q) {
                continue;
            }
            let plan = engine.plan_with(name, &inst.tree, &inst.catalog).unwrap();
            let violations = verify_plan(&plan, &q, &inst.catalog);
            assert!(violations.is_empty(), "{name}: {violations:?}");
        }
    }

    #[test]
    fn dropped_and_duplicated_leaves_are_caught() {
        let inst = instance();
        let engine = Engine::new();
        let plan = engine.plan(&inst.tree, &inst.catalog).unwrap();
        let q = QueryRef::from(&inst.tree);

        let mut dropped = plan.clone();
        if let PlanBody::Dnf(s) = &plan.body {
            let mut order = s.order().to_vec();
            order.pop();
            dropped.body = PlanBody::Dnf(crate::schedule::DnfSchedule::from_order_unchecked(order));
        }
        assert!(verify_plan(&dropped, &q, &inst.catalog)
            .iter()
            .any(|v| matches!(v, PlanViolation::MissingLeaf { .. })));

        let mut duped = plan.clone();
        if let PlanBody::Dnf(s) = &plan.body {
            let mut order = s.order().to_vec();
            order[0] = order[1];
            duped.body = PlanBody::Dnf(crate::schedule::DnfSchedule::from_order_unchecked(order));
        }
        assert!(verify_plan(&duped, &q, &inst.catalog)
            .iter()
            .any(|v| matches!(v, PlanViolation::DuplicateLeaf { .. })));
    }

    #[test]
    fn perturbed_cost_is_caught() {
        let inst = instance();
        let engine = Engine::new();
        let mut plan = engine.plan(&inst.tree, &inst.catalog).unwrap();
        plan.expected_cost = plan.expected_cost.map(|c| c * (1.0 + 1e-6));
        let q = QueryRef::from(&inst.tree);
        assert!(verify_plan(&plan, &q, &inst.catalog)
            .iter()
            .any(|v| matches!(v, PlanViolation::CostMismatch { .. })));
    }

    #[test]
    fn deflated_cost_breaks_the_admissible_bound() {
        let inst = instance();
        let engine = Engine::new();
        let mut plan = engine
            .plan_with("branch-and-bound", &inst.tree, &inst.catalog)
            .unwrap();
        plan.expected_cost = plan.expected_cost.map(|c| c * 1e-3);
        let q = QueryRef::from(&inst.tree);
        let violations = verify_plan(&plan, &q, &inst.catalog);
        assert!(
            violations
                .iter()
                .any(|v| matches!(v, PlanViolation::BoundExceedsCost { .. })),
            "{violations:?}"
        );
    }
}
