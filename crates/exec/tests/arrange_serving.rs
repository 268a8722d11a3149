//! Arrangement acceptance: on a recurring high-overlap workload,
//! serving with persistent arrangements must fetch substantially fewer
//! stream items than per-tick re-pulling — at identical query results.

use paotr_core::plan::Engine;
use paotr_exec::{AcceptAll, ArrangeConfig, ArrivalSpec, ServeConfig, ServeLoop, ServeReport};
use paotr_gen::workload::{workload_instance, WorkloadConfig};
use paotr_multi::{planner_by_name, Workload};

fn serve(workload: &Workload, planner: &str, arrange: Option<ArrangeConfig>) -> ServeReport {
    let engine = Engine::new();
    let joint = planner_by_name(planner)
        .unwrap()
        .plan(workload, &engine)
        .unwrap();
    let serve = ServeLoop::new(
        workload,
        &joint,
        ServeConfig {
            ticks: 200,
            seed: 7,
            arrivals: ArrivalSpec::Periodic { every: 1 },
            arrange,
            ..Default::default()
        },
    );
    serve.run(&mut AcceptAll, &engine).unwrap()
}

/// The PR's acceptance bar: 64 recurring queries at >= 50% pairwise
/// overlap, 200 ticks. Arranged serving must fetch >= 30% fewer stream
/// items (pulls + maintenance) than per-tick re-pull, with identical
/// query results.
#[test]
fn arranged_serving_cuts_fetched_items_by_thirty_percent() {
    let (trees, catalog) = workload_instance(WorkloadConfig::with_overlap(64, 0.5), 0);
    let w = Workload::from_trees(trees, catalog).unwrap();

    for planner in ["shared-greedy", "batch-aware"] {
        let plain = serve(&w, planner, None);
        let arranged = serve(&w, planner, Some(ArrangeConfig::default()));

        // Identical query results: same evaluations served, same truth
        // outcomes, query by query.
        assert_eq!(arranged.evals, plain.evals, "{planner}");
        assert_eq!(
            arranged.per_query_served, plain.per_query_served,
            "{planner}"
        );
        assert_eq!(arranged.truth_rate, plain.truth_rate, "{planner}");

        // The physical item bill: everything fetched from sensors.
        assert_eq!(plain.maintained_items, 0);
        assert!(arranged.arrangements > 0, "{planner} materializes streams");
        assert!(arranged.arrangement_hit_items > 0, "{planner}");
        let saved = 1.0 - arranged.fetched_items() as f64 / plain.fetched_items() as f64;
        assert!(
            saved >= 0.30,
            "{planner}: arranged fetches {} vs {} items — only {:.1}% saved",
            arranged.fetched_items(),
            plain.fetched_items(),
            saved * 100.0
        );
        // Energy follows the item bill.
        assert!(arranged.total_energy < plain.total_energy, "{planner}");
    }
}

/// Arrangements off is the PR 6 behaviour: the new config knob defaults
/// to `None` and a `None` run reports zero arrangement activity.
#[test]
fn arrangements_off_reports_no_arrangement_activity() {
    let (trees, catalog) = workload_instance(WorkloadConfig::with_overlap(8, 0.6), 1);
    let w = Workload::from_trees(trees, catalog).unwrap();
    let r = serve(&w, "shared-greedy", None);
    assert_eq!(r.maintained_items, 0);
    assert_eq!(r.maintain_energy, 0.0);
    assert_eq!(r.arrangements, 0);
    assert_eq!(r.arrangement_hit_items, 0);
    assert_eq!(r.fetched_items(), r.pulled_items);
    assert_eq!(r.total_energy, r.pull_energy);
}
