//! The shared-tick cost model.
//!
//! Within one evaluation tick every leaf's window ends at the same
//! timestamp, so the device memory a later query sees on stream `k` is
//! always a *prefix* of the most recent items — fully described by one
//! number per stream. The model tracks the **expected** prefix length
//! (`coverage`) as queries execute in order, and prices each query with
//! [`CostModel::expected_cost_with_coverage`]: items already covered by
//! an earlier query's pull are free, and the per-stream items of that
//! pricing advance the coverage. This is the expected-state
//! approximation of the true (stochastic) shared execution; the
//! `streamsim` path in `crate::sim` validates it against measured
//! energy.

use crate::workload::Workload;
use paotr_core::cost::{CostModel, EvalScratch};
use paotr_core::schedule::DnfSchedule;

/// Predicted costs of executing a workload jointly in `order` (one
/// shared memory per tick), per query.
#[derive(Debug, Clone, PartialEq)]
pub struct SharedPrediction {
    /// Predicted expected cost per query (workload order, unweighted).
    pub per_query: Vec<f64>,
    /// Expected per-stream memory coverage after the whole tick.
    pub final_coverage: Vec<f64>,
}

/// Prices each query of `order` under the shared coverage model, using
/// `schedules[q]` for query `q` (workload indexing). Schedules may be
/// owned or shared (`Arc`) — anything that borrows as a [`DnfSchedule`].
pub fn predict_shared<S: std::borrow::Borrow<DnfSchedule>>(
    workload: &Workload,
    order: &[usize],
    schedules: &[S],
) -> SharedPrediction {
    let catalog = workload.catalog();
    let mut coverage = vec![0.0f64; catalog.len()];
    let mut per_query = vec![0.0f64; workload.len()];
    let mut scratch = EvalScratch::new();
    for &q in order {
        let model = CostModel::new(&workload.query(q).tree, catalog);
        let order = schedules[q].borrow().order();
        per_query[q] = model.expected_cost_with_coverage(order, &coverage, &mut scratch);
        model.add_items_to(&scratch, &mut coverage);
    }
    SharedPrediction {
        per_query,
        final_coverage: coverage,
    }
}

/// Expected cost of every query in isolation (empty memory), under the
/// given schedules.
pub fn isolated_costs<S: std::borrow::Borrow<DnfSchedule>>(
    workload: &Workload,
    schedules: &[S],
) -> Vec<f64> {
    let mut scratch = EvalScratch::new();
    workload
        .queries()
        .iter()
        .zip(schedules)
        .map(|(q, s)| {
            CostModel::new(&q.tree, workload.catalog()).expected_cost(s.borrow(), &mut scratch)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;
    use paotr_core::leaf::Leaf;
    use paotr_core::plan::Engine;
    use paotr_core::prob::Prob;
    use paotr_core::stream::{StreamCatalog, StreamId};
    use paotr_core::tree::DnfTree;

    fn leaf(s: usize, d: u32, p: f64) -> Leaf {
        Leaf::new(StreamId(s), d, Prob::new(p).unwrap()).unwrap()
    }

    fn workload() -> Workload {
        let t0 = DnfTree::from_leaves(vec![vec![leaf(0, 4, 0.9)]]).unwrap();
        let t1 = DnfTree::from_leaves(vec![vec![leaf(0, 4, 0.8), leaf(1, 1, 0.5)]]).unwrap();
        Workload::from_trees(vec![t0, t1], StreamCatalog::from_costs([2.0, 1.0]).unwrap()).unwrap()
    }

    #[test]
    fn shared_prediction_discounts_overlapping_pulls() {
        let w = workload();
        let schedules = w.default_schedules(&Engine::new()).unwrap();
        let iso = isolated_costs(&w, &schedules);
        // q0 pulls 4 items of stream 0 unconditionally: cost 8.
        assert!((iso[0] - 8.0).abs() < 1e-12);

        let pred = predict_shared(&w, &[0, 1], &schedules);
        assert!(
            (pred.per_query[0] - 8.0).abs() < 1e-12,
            "first query pays full"
        );
        // q1's 4 items of stream 0 are fully covered; it only risks
        // paying for stream 1.
        assert!(pred.per_query[1] < iso[1] - 1.0);
        assert!(pred.final_coverage[0] >= 4.0 - 1e-12);

        // order flipped: q1 pays full first; q0 rides on whatever
        // fraction of the window q1 was expected to pull.
        let flipped = predict_shared(&w, &[1, 0], &schedules);
        assert!((flipped.per_query[1] - iso[1]).abs() < 1e-12);
        assert!(flipped.per_query[0] < iso[0] - 1.0);
        // joint totals are far below the isolated sum either way
        let sum_iso: f64 = iso.iter().sum();
        assert!(pred.per_query.iter().sum::<f64>() < sum_iso);
        assert!(flipped.per_query.iter().sum::<f64>() < sum_iso);
    }

    #[test]
    fn empty_coverage_model_matches_isolated_costs() {
        let w = workload();
        let schedules = w.default_schedules(&Engine::new()).unwrap();
        let iso = isolated_costs(&w, &schedules);
        for (q, iso_q) in iso.iter().enumerate() {
            let solo = predict_shared(&w, &[q], &schedules);
            assert!((solo.per_query[q] - iso_q).abs() < 1e-12);
        }
    }
}
