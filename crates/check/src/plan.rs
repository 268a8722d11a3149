//! Plan and joint-plan verification.
//!
//! Single plans are verified by [`paotr_core::plan::verify`] (that is
//! also the `debug_assertions` hook the `Engine` runs on every fresh
//! plan); this module wraps it into a [`CheckReport`] and adds the
//! joint-plan layer on top: execution-order and schedule integrity,
//! predicted-cost reproduction under the shared coverage model,
//! materialization acquirability, and worst-case per-tick energy
//! feasibility under an [`EnergyBudget`].

use crate::report::{CheckError, CheckReport};
use paotr_core::plan::verify::{self, COST_REL_TOL};
use paotr_core::plan::{Plan, QueryRef};
use paotr_core::schedule::DnfSchedule;
use paotr_core::stream::StreamCatalog;
use paotr_exec::{AdmissionCtx, EnergyBudget};
use paotr_multi::cost::{isolated_costs, predict_shared};
use paotr_multi::{JointPlan, Workload};
use std::fmt;

/// One statically checkable defect in a [`JointPlan`].
#[derive(Debug, Clone, PartialEq)]
pub enum JointViolation {
    /// `order` is not a permutation of the workload's query indices.
    OrderNotPermutation {
        /// What is missing, duplicated, or out of range.
        detail: String,
    },
    /// A per-query vector has the wrong length.
    LengthMismatch {
        /// Which field (`plans`, `schedules`, …).
        field: &'static str,
        /// Actual vs. expected lengths.
        detail: String,
    },
    /// A schedule is not a valid leaf permutation of its query's tree.
    ScheduleInvalid {
        /// Workload index of the query.
        query: usize,
        /// The schedule validation error.
        detail: String,
    },
    /// A stored cost is NaN, infinite, or negative.
    NonFiniteCost {
        /// Path into the joint plan.
        path: String,
        /// The offending value.
        value: f64,
    },
    /// A predicted per-query cost does not reproduce under the shared
    /// coverage model (or isolated evaluation, for non-shared plans).
    PredictedCostMismatch {
        /// Workload index of the query.
        query: usize,
        /// The cost the joint plan claims.
        stored: f64,
        /// The cost re-evaluation produced.
        recomputed: f64,
    },
    /// A materialization names a stream outside the catalog.
    MaterializedStreamUnresolved {
        /// Index into `materialized`.
        index: usize,
        /// The unresolved stream id.
        stream: usize,
    },
    /// A materialized window is not acquirable: zero, inconsistent with
    /// its priced term, or wider than the fill-amortization horizon.
    WindowNotAcquirable {
        /// Index into `materialized`.
        index: usize,
        /// What makes the window unacquirable.
        detail: String,
    },
    /// A materialization with no readers can never pay for itself.
    ZeroReaderMaterialization {
        /// Index into `materialized`.
        index: usize,
    },
    /// The workload's worst-case per-tick energy (retries included)
    /// exceeds the energy budget.
    EnergyInfeasible {
        /// Worst-case per-tick energy of the full workload.
        worst_case: f64,
        /// The budget it must fit under.
        budget: f64,
    },
}

impl JointViolation {
    /// Stable kebab-case rule name.
    pub(crate) fn rule(&self) -> &'static str {
        match self {
            JointViolation::OrderNotPermutation { .. } => "order-not-permutation",
            JointViolation::LengthMismatch { .. } => "length-mismatch",
            JointViolation::ScheduleInvalid { .. } => "schedule-invalid",
            JointViolation::NonFiniteCost { .. } => "non-finite-cost",
            JointViolation::PredictedCostMismatch { .. } => "predicted-cost-mismatch",
            JointViolation::MaterializedStreamUnresolved { .. } => "materialized-stream-unresolved",
            JointViolation::WindowNotAcquirable { .. } => "window-not-acquirable",
            JointViolation::ZeroReaderMaterialization { .. } => "zero-reader-materialization",
            JointViolation::EnergyInfeasible { .. } => "energy-infeasible",
        }
    }

    /// Path into the joint-plan document.
    pub(crate) fn path(&self) -> String {
        match self {
            JointViolation::OrderNotPermutation { .. } => "order".into(),
            JointViolation::LengthMismatch { field, .. } => (*field).into(),
            JointViolation::ScheduleInvalid { query, .. } => format!("schedules[{query}]"),
            JointViolation::NonFiniteCost { path, .. } => path.clone(),
            JointViolation::PredictedCostMismatch { query, .. } => {
                format!("predicted_costs[{query}]")
            }
            JointViolation::MaterializedStreamUnresolved { index, .. }
            | JointViolation::WindowNotAcquirable { index, .. }
            | JointViolation::ZeroReaderMaterialization { index } => {
                format!("materialized[{index}]")
            }
            JointViolation::EnergyInfeasible { .. } => "energy".into(),
        }
    }
}

impl fmt::Display for JointViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JointViolation::OrderNotPermutation { detail } => {
                write!(f, "order: not a permutation of the workload: {detail}")
            }
            JointViolation::LengthMismatch { field, detail } => {
                write!(f, "{field}: length mismatch: {detail}")
            }
            JointViolation::ScheduleInvalid { query, detail } => {
                write!(f, "schedules[{query}]: {detail}")
            }
            JointViolation::NonFiniteCost { path, value } => {
                write!(f, "{path}: cost {value} is not finite/non-negative")
            }
            JointViolation::PredictedCostMismatch {
                query,
                stored,
                recomputed,
            } => write!(
                f,
                "predicted_costs[{query}]: stored {stored} does not reproduce \
                 (re-evaluated {recomputed})"
            ),
            JointViolation::MaterializedStreamUnresolved { index, stream } => {
                write!(f, "materialized[{index}]: stream {stream} not in catalog")
            }
            JointViolation::WindowNotAcquirable { index, detail } => {
                write!(f, "materialized[{index}]: window not acquirable: {detail}")
            }
            JointViolation::ZeroReaderMaterialization { index } => {
                write!(f, "materialized[{index}]: zero readers — can never pay off")
            }
            JointViolation::EnergyInfeasible { worst_case, budget } => write!(
                f,
                "worst-case per-tick energy {worst_case} exceeds budget {budget}"
            ),
        }
    }
}

/// Verifies a single [`Plan`] against the query and catalog it claims
/// to be for, as a [`CheckReport`]. See
/// [`paotr_core::plan::verify::verify_plan`] for the invariants.
pub fn verify_plan(plan: &Plan, query: &QueryRef<'_>, catalog: &StreamCatalog) -> CheckReport {
    let mut report = CheckReport::new(format!("plan[{}]", plan.planner));
    // Structure, provenance, price, bound: one logical check per axis.
    report.checks_run += 4;
    for violation in verify::verify_plan(plan, query, catalog) {
        report.push(CheckError::Plan {
            query: None,
            violation,
        });
    }
    report
}

fn rel_diff(a: f64, b: f64) -> f64 {
    (a - b).abs() / f64::max(1.0, f64::max(a.abs(), b.abs()))
}

/// Verifies a [`JointPlan`] against the workload it was planned for:
///
/// * `order` is a permutation of the workload's query indices, and the
///   per-query vectors all have workload length;
/// * every per-query [`Plan`] passes single-plan verification against
///   its tree, and every execution schedule is a valid leaf permutation
///   of it;
/// * `independent_costs` are finite and non-negative;
/// * `predicted_costs` reproduce (≤ 1e-9 relative) under the shared
///   coverage model ([`predict_shared`]) when `shared_execution` holds,
///   or under isolated evaluation otherwise;
/// * every materialization resolves in the catalog, keeps
///   `window ≤ horizon` (the ring must be fillable within the ticks it
///   is amortized over), agrees with its priced term, and has readers.
///
/// Energy feasibility needs a budget, which is not part of the plan —
/// see [`verify_energy`].
pub fn verify_joint(joint: &JointPlan, workload: &Workload) -> CheckReport {
    let mut report = CheckReport::new(format!("joint-plan[{}]", joint.planner));
    let n = workload.len();
    let catalog = workload.catalog();

    // Execution order covers every query exactly once.
    report.checks_run += 1;
    let mut seen = vec![false; n];
    let mut order_ok = joint.order.len() == n;
    if !order_ok {
        report.push(CheckError::Joint(JointViolation::OrderNotPermutation {
            detail: format!("{} entries for {n} queries", joint.order.len()),
        }));
    }
    for &q in &joint.order {
        if q >= n {
            order_ok = false;
            report.push(CheckError::Joint(JointViolation::OrderNotPermutation {
                detail: format!("query index {q} out of range"),
            }));
        } else if seen[q] {
            order_ok = false;
            report.push(CheckError::Joint(JointViolation::OrderNotPermutation {
                detail: format!("query {q} appears twice"),
            }));
        } else {
            seen[q] = true;
        }
    }

    // Per-query vectors line up with the workload.
    report.checks_run += 1;
    for (field, len) in [
        ("plans", joint.plans.len()),
        ("schedules", joint.schedules.len()),
        ("independent_costs", joint.independent_costs.len()),
        ("predicted_costs", joint.predicted_costs.len()),
    ] {
        if len != n {
            report.push(CheckError::Joint(JointViolation::LengthMismatch {
                field,
                detail: format!("{len} entries for {n} queries"),
            }));
        }
    }
    if joint.plans.len() != n || joint.schedules.len() != n {
        return report;
    }

    // Every per-query plan passes single-plan verification, and every
    // execution schedule is a valid permutation of its tree's leaves.
    report.checks_run += 2;
    for (q, wq) in workload.queries().iter().enumerate() {
        let query = QueryRef::from(&wq.tree);
        for violation in verify::verify_plan(&joint.plans[q], &query, catalog) {
            report.push(CheckError::Plan {
                query: Some(q),
                violation,
            });
        }
        if let Err(e) = DnfSchedule::new(joint.schedules[q].order().to_vec(), &wq.tree) {
            report.push(CheckError::Joint(JointViolation::ScheduleInvalid {
                query: q,
                detail: e.to_string(),
            }));
        }
    }

    // Costs: independent finite, predicted reproducible.
    report.checks_run += 2;
    for (q, &c) in joint.independent_costs.iter().enumerate() {
        if !c.is_finite() || c < 0.0 {
            report.push(CheckError::Joint(JointViolation::NonFiniteCost {
                path: format!("independent_costs[{q}]"),
                value: c,
            }));
        }
    }
    if order_ok && joint.predicted_costs.len() == n {
        let recomputed = if joint.shared_execution {
            predict_shared(workload, &joint.order, &joint.schedules).per_query
        } else {
            isolated_costs(workload, &joint.schedules)
        };
        for (q, (&stored, &re)) in joint.predicted_costs.iter().zip(&recomputed).enumerate() {
            if !stored.is_finite() || stored < 0.0 {
                report.push(CheckError::Joint(JointViolation::NonFiniteCost {
                    path: format!("predicted_costs[{q}]"),
                    value: stored,
                }));
            } else if rel_diff(stored, re) > COST_REL_TOL {
                report.push(CheckError::Joint(JointViolation::PredictedCostMismatch {
                    query: q,
                    stored,
                    recomputed: re,
                }));
            }
        }
    }

    // Materializations are acquirable.
    report.checks_run += 1;
    for (i, m) in joint.materialized.iter().enumerate() {
        if m.stream.0 >= catalog.len() {
            report.push(CheckError::Joint(
                JointViolation::MaterializedStreamUnresolved {
                    index: i,
                    stream: m.stream.0,
                },
            ));
            continue;
        }
        if m.window == 0 {
            report.push(CheckError::Joint(JointViolation::WindowNotAcquirable {
                index: i,
                detail: "window is zero".into(),
            }));
        }
        if m.term.window != m.window {
            report.push(CheckError::Joint(JointViolation::WindowNotAcquirable {
                index: i,
                detail: format!(
                    "window {} disagrees with priced term window {}",
                    m.window, m.term.window
                ),
            }));
        }
        // NaN horizon must fail too, hence not `window > horizon`.
        if m.term.horizon.is_nan() || f64::from(m.window) > m.term.horizon {
            report.push(CheckError::Joint(JointViolation::WindowNotAcquirable {
                index: i,
                detail: format!(
                    "window {} exceeds the fill-amortization horizon {}",
                    m.window, m.term.horizon
                ),
            }));
        }
        if m.term.readers == 0 {
            report.push(CheckError::Joint(
                JointViolation::ZeroReaderMaterialization { index: i },
            ));
        }
    }

    report
}

/// Checks that serving the whole workload in one tick is feasible under
/// `budget`, in the worst case and retries included: the admission
/// layer's worst-case bound ([`AdmissionCtx::worst_case_set`]) over
/// *all* queries — shared-pull coalesced when the joint plan shares
/// execution — must fit in `budget.budget_per_tick`. `retry_factor` is
/// the fault layer's worst-case contact multiplier (`1.0` for
/// fault-free serving).
pub fn verify_energy(
    joint: &JointPlan,
    workload: &Workload,
    budget: &EnergyBudget,
    retry_factor: f64,
) -> CheckReport {
    let mut report = CheckReport::new(format!("joint-plan[{}].energy", joint.planner));
    report.checks_run += 1;
    let catalog = workload.catalog();
    let n_streams = catalog.len();
    // Per-query worst case on each stream: its widest window there.
    let windows: Vec<Vec<u32>> = workload
        .queries()
        .iter()
        .map(|wq| {
            let mut w = vec![0u32; n_streams];
            for (_, leaf) in wq.tree.leaves() {
                let k = leaf.stream.0;
                w[k] = w[k].max(leaf.items);
            }
            w
        })
        .collect();
    let weights = workload.weights();
    let costs = AdmissionCtx::stream_costs(catalog);
    let pending = vec![0u64; workload.len()];
    let ctx = AdmissionCtx {
        weights: &weights,
        windows: &windows,
        costs: &costs,
        pending_since: &pending,
        shared: joint.shared_execution,
        retry_factor,
    };
    let all: Vec<usize> = (0..workload.len()).collect();
    let worst_case = ctx.worst_case_set(&all);
    if worst_case > budget.budget_per_tick + 1e-9 {
        report.push(CheckError::Joint(JointViolation::EnergyInfeasible {
            worst_case,
            budget: budget.budget_per_tick,
        }));
    }
    report
}
