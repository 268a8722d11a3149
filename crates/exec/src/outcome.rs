//! Workload-level reports: predicted and measured costs per planner.

use crate::admission::AcceptAll;
use crate::serve::{ServeConfig, ServeLoop, ServeReport};
use paotr_core::error::Result;
use paotr_core::plan::Engine;
use paotr_multi::{IndependentPlanner, JointPlan, Workload, WorkloadPlanner};

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
    /// Measured mean energy per tick, when the plan was served.
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
    /// Measured mean energy per tick (all queries), when served.
    pub simulated_energy: Option<f64>,
    /// Measured speedup over the independent baseline's serve run,
    /// when both were served.
    pub simulated_speedup: Option<f64>,
}

impl WorkloadOutcome {
    /// Summarizes a joint plan (prediction only; attach measurements
    /// with [`WorkloadOutcome::attach_measurement`]).
    fn from_plan(workload: &Workload, joint: &JointPlan) -> WorkloadOutcome {
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

    /// Records measured energies from a serve run; returns the measured
    /// mean energy per tick: the sum of the per-query means, in
    /// workload order.
    fn attach_measurement(&mut self, report: &ServeReport) -> f64 {
        let per_query = report.mean_query_energy();
        for (row, &e) in self.per_query.iter_mut().zip(&per_query) {
            row.simulated_energy = Some(e);
        }
        let total = per_query.iter().sum();
        self.simulated_energy = Some(total);
        total
    }
}

/// Plans `workload` with every planner, optionally serving each plan
/// under `serve` with accept-all admission (the default periodic
/// arrivals evaluate every query every tick), and fills in measured
/// speedups relative to the `independent` baseline. The
/// baseline is always served when `serve` is set — the caller's planner
/// list does not need to contain `independent`, nor put it first — and
/// is reused for the `independent` row itself rather than served again.
/// This is the engine behind `paotr workload --compare`.
pub fn compare(
    workload: &Workload,
    engine: &Engine,
    planners: &[Box<dyn WorkloadPlanner>],
    serve: Option<ServeConfig>,
) -> Result<Vec<WorkloadOutcome>> {
    let measure = |joint: &JointPlan, config: ServeConfig| {
        ServeLoop::new(workload, joint, config).run(&mut AcceptAll, engine)
    };
    let baseline = match serve {
        Some(config) => {
            let joint = IndependentPlanner.plan(workload, engine)?;
            let report = measure(&joint, config)?;
            Some((joint, report))
        }
        None => None,
    };
    let mut outcomes = Vec::with_capacity(planners.len());
    for planner in planners {
        let reuse = planner.name() == "independent";
        // reuse the already-planned baseline for the `independent` row
        let joint = match &baseline {
            Some((jp, _)) if reuse => jp.clone(),
            _ => planner.plan(workload, engine)?,
        };
        let mut outcome = WorkloadOutcome::from_plan(workload, &joint);
        if let (Some(config), Some((_, base))) = (serve, &baseline) {
            let report = if reuse {
                base.clone()
            } else {
                measure(&joint, config)?
            };
            let energy = outcome.attach_measurement(&report);
            if energy > 0.0 {
                let base_energy: f64 = base.mean_query_energy().iter().sum();
                outcome.simulated_speedup = Some(base_energy / energy);
            }
        }
        outcomes.push(outcome);
    }
    Ok(outcomes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use paotr_core::leaf::Leaf;
    use paotr_core::prob::Prob;
    use paotr_core::stream::{StreamCatalog, StreamId};
    use paotr_core::tree::DnfTree;
    use paotr_multi::default_planners;

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
            Some(ServeConfig {
                ticks: 120,
                seed: 5,
                ..Default::default()
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
        use paotr_multi::SharedGreedyPlanner;
        let w = workload();
        let planners: Vec<Box<dyn WorkloadPlanner>> =
            vec![Box::new(SharedGreedyPlanner::default())];
        let outcomes = compare(
            &w,
            &Engine::new(),
            &planners,
            Some(ServeConfig {
                ticks: 60,
                seed: 9,
                ..Default::default()
            }),
        )
        .unwrap();
        assert_eq!(outcomes.len(), 1);
        assert_eq!(outcomes[0].planner, "shared-greedy");
        assert!(
            outcomes[0].simulated_speedup.is_some(),
            "baseline is served implicitly"
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
