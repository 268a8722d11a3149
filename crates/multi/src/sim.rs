//! Validation against the `stream-sim` substrate.
//!
//! The coverage cost model in [`crate::cost`] is an expected-state
//! approximation; this module checks it against *measured* energy. Each
//! abstract workload is lowered to concrete [`SimQuery`]s over Gaussian
//! sensor streams: a leaf with success probability `p` and window `d`
//! becomes `AVG(stream, d) < Φ⁻¹(p) / √d` — the mean of `d` i.i.d.
//! standard normals is `N(0, 1/d)`, so the predicate is true with
//! probability `p` marginally. (Leaves sharing a stream see overlapping
//! windows and are therefore correlated, unlike the paper's independence
//! assumption; both execution modes run on identical data, so the
//! shared-vs-isolated comparison stays apples-to-apples.)
//!
//! One simulated tick evaluates **every** query of the workload; in
//! shared mode they run back-to-back against one [`DeviceMemory`], so
//! items pulled by query A are free for query B — the mechanism the
//! joint planners bet on.
//!
//! [`DeviceMemory`]: stream_sim::DeviceMemory

use crate::planner::JointPlan;
use crate::workload::Workload;
use rand::rngs::StdRng;
use rand::SeedableRng;
use stream_sim::{
    gaussian_streams, Comparator, EnergyMeter, EnergyModel, MemoryPolicy, Predicate, Scheduler,
    SensorModel, SensorSource, SimLeaf, SimQuery, WindowOp,
};

/// Simulation parameters.
#[derive(Debug, Clone, Copy)]
pub struct SimConfig {
    /// Evaluation ticks to run.
    pub ticks: usize,
    /// RNG seed for the sensor data.
    pub seed: u64,
    /// Sensor ticks between consecutive evaluations.
    pub ticks_between: usize,
}

impl Default for SimConfig {
    fn default() -> SimConfig {
        SimConfig {
            ticks: 400,
            seed: 0,
            ticks_between: 1,
        }
    }
}

/// Measured energies for one simulated workload run.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSimReport {
    /// Mean energy per tick spent on each query (workload order).
    pub per_query_energy: Vec<f64>,
    /// Mean total energy per tick (weighted sum of `per_query_energy`
    /// is intentionally *not* applied here — weights model arrival
    /// rates, the simulation runs every query every tick).
    pub total_energy: f64,
    /// Total items pulled per stream over the whole run.
    pub items_pulled: Vec<u64>,
    /// Fraction of ticks each query evaluated TRUE.
    pub truth_rates: Vec<f64>,
}

/// Lowers the abstract workload to concrete simulator queries: one
/// standard-normal Gaussian source per stream, and per leaf an `AVG`
/// predicate whose threshold hits the leaf's success probability.
pub fn synthesize(workload: &Workload) -> (Vec<SimQuery>, Vec<SensorSource>) {
    let queries = workload
        .queries()
        .iter()
        .map(|q| {
            let terms = q
                .tree
                .terms()
                .iter()
                .map(|t| {
                    t.leaves()
                        .iter()
                        .map(|l| {
                            let p = l.prob.value().clamp(1e-4, 1.0 - 1e-4);
                            let threshold = normal_quantile(p) / f64::from(l.items).sqrt();
                            SimLeaf {
                                stream: l.stream,
                                predicate: Predicate::new(
                                    WindowOp::Avg,
                                    l.items,
                                    Comparator::Lt,
                                    threshold,
                                ),
                            }
                        })
                        .collect()
                })
                .collect();
            SimQuery::new(terms).expect("workload trees are non-empty")
        })
        .collect();
    let sources = (0..workload.catalog().len())
        .map(|_| {
            SensorSource::new(SensorModel::Gaussian {
                mean: 0.0,
                std_dev: 1.0,
            })
        })
        .collect();
    (queries, sources)
}

/// Runs `joint` against simulated sensors and reports measured energy —
/// a thin adapter over the unified runtime: one [`Scheduler`] tick per
/// evaluation round, metered by one [`EnergyMeter`]. Shared-memory
/// execution follows `joint.shared_execution`: joint plans share one
/// device memory per tick, the independent baseline wipes memory
/// between queries.
pub fn simulate(workload: &Workload, joint: &JointPlan, config: SimConfig) -> WorkloadSimReport {
    let catalog = workload.catalog();
    let (queries, _sources) = synthesize(workload);
    let mut rng = StdRng::seed_from_u64(config.seed);

    // Per-stream history horizon: the widest window any query uses.
    let mut horizons = vec![1u32; catalog.len()];
    for q in &queries {
        for (k, &w) in q.max_windows(catalog.len()).iter().enumerate() {
            horizons[k] = horizons[k].max(w);
        }
    }
    let mut streams = gaussian_streams(&horizons, &mut rng);

    let mut scheduler = Scheduler::new(catalog.len(), MemoryPolicy::ClearEachQuery);
    let mut meter = EnergyMeter::new(EnergyModel::from_catalog(catalog));

    // Evaluation order: the joint plan's, with each query's schedule.
    let ordered: Vec<(&SimQuery, &paotr_core::schedule::DnfSchedule)> = joint
        .order
        .iter()
        .map(|&q| (&queries[q], &*joint.schedules[q]))
        .collect();

    let n = workload.len();
    let mut energy = vec![0.0f64; n];
    let mut truths = vec![0usize; n];
    let mut items = vec![0u64; catalog.len()];
    for _ in 0..config.ticks {
        let outcomes =
            scheduler.run_tick(&ordered, &streams, joint.shared_execution, &mut meter, None);
        for (pos, out) in outcomes.iter().enumerate() {
            let q = joint.order[pos];
            energy[q] += out.cost;
            truths[q] += usize::from(out.value);
            for (acc, &pulled) in items.iter_mut().zip(&out.items_pulled) {
                *acc += u64::from(pulled);
            }
        }
        for s in &mut streams {
            s.advance_by(config.ticks_between.max(1), &mut rng);
        }
    }

    let ticks = config.ticks.max(1) as f64;
    let per_query_energy: Vec<f64> = energy.iter().map(|e| e / ticks).collect();
    WorkloadSimReport {
        total_energy: per_query_energy.iter().sum(),
        per_query_energy,
        items_pulled: items,
        truth_rates: truths.iter().map(|&t| t as f64 / ticks).collect(),
    }
}

/// Acklam's rational approximation of the standard normal quantile
/// function Φ⁻¹ (absolute error < 1.2e-9 on (0, 1)).
pub(crate) fn normal_quantile(p: f64) -> f64 {
    assert!((0.0..1.0).contains(&p) && p > 0.0, "p must be in (0, 1)");
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.38357751867269e+02,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;
    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        -normal_quantile(1.0 - p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::{IndependentPlanner, SharedGreedyPlanner, WorkloadPlanner};
    use paotr_core::leaf::Leaf;
    use paotr_core::plan::Engine;
    use paotr_core::prob::Prob;
    use paotr_core::stream::{StreamCatalog, StreamId};
    use paotr_core::tree::DnfTree;

    fn leaf(s: usize, d: u32, p: f64) -> Leaf {
        Leaf::new(StreamId(s), d, Prob::new(p).unwrap()).unwrap()
    }

    #[test]
    fn quantile_hits_known_values() {
        assert!(normal_quantile(0.5).abs() < 1e-9);
        assert!((normal_quantile(0.975) - 1.959964).abs() < 1e-4);
        assert!((normal_quantile(0.025) + 1.959964).abs() < 1e-4);
        assert!((normal_quantile(0.001) + 3.090232).abs() < 1e-4);
    }

    #[test]
    fn synthesized_leaf_probabilities_match_the_tree() {
        // One leaf, p = 0.3, window 4: measure its empirical truth rate.
        let tree = DnfTree::from_leaves(vec![vec![leaf(0, 4, 0.3)]]).unwrap();
        let w = Workload::from_trees(vec![tree], StreamCatalog::unit(1)).unwrap();
        let jp = IndependentPlanner.plan(&w, &Engine::new()).unwrap();
        let report = simulate(
            &w,
            &jp,
            SimConfig {
                ticks: 4000,
                seed: 11,
                // decorrelate consecutive windows
                ticks_between: 4,
            },
        );
        assert!(
            (report.truth_rates[0] - 0.3).abs() < 0.05,
            "measured {}",
            report.truth_rates[0]
        );
        // a single unconditional 4-item leaf costs 4 per tick
        assert!((report.total_energy - 4.0).abs() < 1e-9);
    }

    #[test]
    fn shared_execution_measures_below_isolated_on_overlapping_workloads() {
        let trees = vec![
            DnfTree::from_leaves(vec![vec![leaf(0, 5, 0.8), leaf(1, 2, 0.5)]]).unwrap(),
            DnfTree::from_leaves(vec![vec![leaf(0, 4, 0.7)], vec![leaf(1, 3, 0.4)]]).unwrap(),
            DnfTree::from_leaves(vec![vec![leaf(0, 3, 0.9), leaf(1, 4, 0.6)]]).unwrap(),
        ];
        let w =
            Workload::from_trees(trees, StreamCatalog::from_costs([2.0, 1.0]).unwrap()).unwrap();
        let engine = Engine::new();
        let cfg = SimConfig {
            ticks: 300,
            seed: 3,
            ticks_between: 1,
        };
        let indep = simulate(&w, &IndependentPlanner.plan(&w, &engine).unwrap(), cfg);
        let shared = simulate(
            &w,
            &SharedGreedyPlanner::default().plan(&w, &engine).unwrap(),
            cfg,
        );
        assert!(
            shared.total_energy < indep.total_energy,
            "shared {} vs isolated {}",
            shared.total_energy,
            indep.total_energy
        );
    }
}
