//! Workload-level reports: predicted and measured costs per planner.

use crate::planner::{JointPlan, WorkloadPlanner};
use crate::sim::{simulate, SimConfig, WorkloadSimReport};
use crate::workload::Workload;
use paotr_core::error::Result;
use paotr_core::plan::Engine;

/// One query's entry in a [`WorkloadOutcome`].
#[derive(Debug, Clone, PartialEq)]
pub struct QueryReport {
    /// Query name.
    pub name: String,
    /// Query weight.
    pub weight: f64,
    /// Expected cost of the per-query default plan in isolation.
    pub independent_cost: f64,
    /// Predicted expected cost under the joint plan.
    pub predicted_cost: f64,
    /// Measured mean energy per tick, when simulation ran.
    pub simulated_energy: Option<f64>,
}

/// Per-planner summary of planning a workload — the report the CLI,
/// benches and experiments print.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadOutcome {
    /// Workload planner name.
    pub planner: String,
    /// Per-query breakdown, in workload order.
    pub per_query: Vec<QueryReport>,
    /// Weighted aggregate of the independent baseline.
    pub aggregate_independent: f64,
    /// Weighted aggregate of the predicted joint costs.
    pub aggregate_predicted: f64,
    /// Predicted fraction of the baseline cost amortized away.
    pub sharing_ratio: f64,
    /// Predicted speedup over the independent baseline.
    pub speedup: f64,
    /// Measured mean energy per tick (all queries), when simulated.
    pub simulated_energy: Option<f64>,
    /// Measured speedup over the independent baseline's simulation,
    /// when both were simulated.
    pub simulated_speedup: Option<f64>,
}

impl WorkloadOutcome {
    /// Summarizes a joint plan (prediction only; attach measurements
    /// with [`WorkloadOutcome::attach_simulation`]).
    pub(crate) fn from_plan(workload: &Workload, joint: &JointPlan) -> WorkloadOutcome {
        let weights = workload.weights();
        let per_query = workload
            .queries()
            .iter()
            .enumerate()
            .map(|(i, q)| QueryReport {
                name: q.name.clone(),
                weight: q.weight,
                independent_cost: joint.independent_costs[i],
                predicted_cost: joint.predicted_costs[i],
                simulated_energy: None,
            })
            .collect();
        WorkloadOutcome {
            planner: joint.planner.clone(),
            per_query,
            aggregate_independent: joint.aggregate_independent(&weights),
            aggregate_predicted: joint.aggregate_predicted(&weights),
            sharing_ratio: joint.sharing_ratio(&weights),
            speedup: joint.speedup(&weights),
            simulated_energy: None,
            simulated_speedup: None,
        }
    }

    /// Records measured energies from a simulation run.
    pub(crate) fn attach_simulation(&mut self, sim: &WorkloadSimReport) {
        for (report, &e) in self.per_query.iter_mut().zip(&sim.per_query_energy) {
            report.simulated_energy = Some(e);
        }
        self.simulated_energy = Some(sim.total_energy);
    }
}

/// Plans `workload` with every planner, optionally simulating each
/// plan, and fills in measured speedups relative to the `independent`
/// baseline. The baseline simulation is always run when `sim` is set —
/// the caller's planner list does not need to contain `independent`,
/// nor put it first — and is reused for the `independent` row itself
/// rather than re-simulated. This is the engine behind
/// `paotr workload --compare`.
pub fn compare(
    workload: &Workload,
    engine: &Engine,
    planners: &[Box<dyn WorkloadPlanner>],
    sim: Option<SimConfig>,
) -> Result<Vec<WorkloadOutcome>> {
    let baseline_joint = match sim {
        Some(_) => Some(crate::planner::IndependentPlanner.plan(workload, engine)?),
        None => None,
    };
    let baseline = match (sim, &baseline_joint) {
        (Some(cfg), Some(jp)) => Some(simulate(workload, jp, cfg)),
        _ => None,
    };
    let mut outcomes = Vec::with_capacity(planners.len());
    for planner in planners {
        // reuse the already-planned baseline for the `independent` row
        let joint = match &baseline_joint {
            Some(jp) if planner.name() == "independent" => jp.clone(),
            _ => planner.plan(workload, engine)?,
        };
        let mut outcome = WorkloadOutcome::from_plan(workload, &joint);
        if let (Some(cfg), Some(base)) = (sim, baseline.as_ref()) {
            let report = if planner.name() == "independent" {
                base.clone()
            } else {
                simulate(workload, &joint, cfg)
            };
            outcome.attach_simulation(&report);
            if report.total_energy > 0.0 {
                outcome.simulated_speedup = Some(base.total_energy / report.total_energy);
            }
        }
        outcomes.push(outcome);
    }
    Ok(outcomes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::default_planners;
    use paotr_core::leaf::Leaf;
    use paotr_core::prob::Prob;
    use paotr_core::stream::{StreamCatalog, StreamId};
    use paotr_core::tree::DnfTree;

    fn leaf(s: usize, d: u32, p: f64) -> Leaf {
        Leaf::new(StreamId(s), d, Prob::new(p).unwrap()).unwrap()
    }

    fn workload() -> Workload {
        let trees = vec![
            DnfTree::from_leaves(vec![vec![leaf(0, 4, 0.8), leaf(1, 1, 0.5)]]).unwrap(),
            DnfTree::from_leaves(vec![vec![leaf(0, 3, 0.7)], vec![leaf(1, 2, 0.4)]]).unwrap(),
        ];
        Workload::from_trees(trees, StreamCatalog::from_costs([2.0, 1.0]).unwrap()).unwrap()
    }

    #[test]
    fn compare_fills_predictions_and_measurements() {
        let w = workload();
        let outcomes = compare(
            &w,
            &Engine::new(),
            &default_planners(),
            Some(SimConfig {
                ticks: 120,
                seed: 5,
                ticks_between: 1,
            }),
        )
        .unwrap();
        assert_eq!(outcomes.len(), 3);
        assert_eq!(outcomes[0].planner, "independent");
        assert!((outcomes[0].speedup - 1.0).abs() < 1e-12);
        assert_eq!(outcomes[0].simulated_speedup, Some(1.0));
        for o in &outcomes {
            assert_eq!(o.per_query.len(), 2);
            assert!(o.aggregate_independent > 0.0);
            assert!(o.simulated_energy.unwrap() > 0.0);
            assert!(o.per_query.iter().all(|q| q.simulated_energy.is_some()));
            // joint planners never predict worse than the baseline
            assert!(o.aggregate_predicted <= o.aggregate_independent + 1e-9);
        }
        // the shared planners actually measure cheaper here
        let base = outcomes[0].simulated_energy.unwrap();
        assert!(outcomes[1].simulated_energy.unwrap() <= base + 1e-9);
    }

    #[test]
    fn compare_defines_sim_speedup_without_an_independent_row() {
        use crate::planner::SharedGreedyPlanner;
        let w = workload();
        let planners: Vec<Box<dyn WorkloadPlanner>> =
            vec![Box::new(SharedGreedyPlanner::default())];
        let outcomes = compare(
            &w,
            &Engine::new(),
            &planners,
            Some(SimConfig {
                ticks: 60,
                seed: 9,
                ticks_between: 1,
            }),
        )
        .unwrap();
        assert_eq!(outcomes.len(), 1);
        assert_eq!(outcomes[0].planner, "shared-greedy");
        assert!(
            outcomes[0].simulated_speedup.is_some(),
            "baseline is simulated implicitly"
        );
    }

    #[test]
    fn compare_without_simulation_leaves_measurements_empty() {
        let w = workload();
        let outcomes = compare(&w, &Engine::new(), &default_planners(), None).unwrap();
        for o in &outcomes {
            assert_eq!(o.simulated_energy, None);
            assert_eq!(o.simulated_speedup, None);
        }
    }
}
