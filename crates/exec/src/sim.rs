//! Lowering abstract workloads to concrete simulator queries.
//!
//! The coverage cost model in `paotr_multi::cost` is an expected-state
//! approximation; serving a joint plan checks it against *measured*
//! energy. Each abstract workload is lowered to concrete [`SimQuery`]s
//! over standard-normal Gaussian streams: a leaf with success
//! probability `p` and window `d` becomes `AVG(stream, d) < Φ⁻¹(p) / √d`
//! — the mean of `d` i.i.d. standard normals is `N(0, 1/d)`, so the
//! predicate is true with probability `p` marginally. (Leaves sharing a
//! stream see overlapping windows and are therefore correlated, unlike
//! the paper's independence assumption; shared and isolated execution
//! run on identical data, so the comparison stays apples-to-apples.)

use paotr_multi::Workload;
use stream_sim::{Comparator, Predicate, SimLeaf, SimQuery, WindowOp};

/// Lowers the abstract workload to concrete simulator queries: per leaf
/// an `AVG` predicate whose threshold hits the leaf's success
/// probability on a standard-normal stream.
pub(crate) fn synthesize(workload: &Workload) -> Vec<SimQuery> {
    workload
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
        .collect()
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
    use crate::{AcceptAll, ServeConfig, ServeLoop, ServeReport};
    use paotr_core::leaf::Leaf;
    use paotr_core::plan::Engine;
    use paotr_core::prob::Prob;
    use paotr_core::stream::{StreamCatalog, StreamId};
    use paotr_core::tree::DnfTree;
    use paotr_multi::{IndependentPlanner, JointPlan, SharedGreedyPlanner, WorkloadPlanner};

    fn leaf(s: usize, d: u32, p: f64) -> Leaf {
        Leaf::new(StreamId(s), d, Prob::new(p).unwrap()).unwrap()
    }

    fn serve(w: &Workload, joint: &JointPlan, config: ServeConfig) -> ServeReport {
        ServeLoop::new(w, joint, config)
            .run(&mut AcceptAll, &Engine::new())
            .unwrap()
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
        let report = serve(
            &w,
            &jp,
            ServeConfig {
                ticks: 4000,
                seed: 11,
                // decorrelate consecutive windows
                ticks_between: 4,
                ..Default::default()
            },
        );
        assert!(
            (report.truth_rate - 0.3).abs() < 0.05,
            "measured {}",
            report.truth_rate
        );
        // a single unconditional 4-item leaf costs 4 per tick
        assert!((report.mean_tick_energy() - 4.0).abs() < 1e-9);
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
        let cfg = ServeConfig {
            ticks: 300,
            seed: 3,
            ticks_between: 1,
            ..Default::default()
        };
        let indep = serve(&w, &IndependentPlanner.plan(&w, &engine).unwrap(), cfg);
        let shared = serve(
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
