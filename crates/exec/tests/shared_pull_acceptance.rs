//! End-to-end acceptance: on a generated 16-query workload with >= 50%
//! pairwise stream overlap, joint planning measurably beats the
//! independent baseline in *measured* energy (every query served every
//! tick), and the planner's predictions point the same way.

use paotr_core::plan::Engine;
use paotr_exec::{compare, AcceptAll, ServeConfig, ServeLoop};
use paotr_gen::workload::{mean_pairwise_overlap, workload_instance, WorkloadConfig};
use paotr_multi::{
    default_planners, IndependentPlanner, JointPlan, SharedGreedyPlanner, Workload, WorkloadPlanner,
};

fn sixteen_query_workload() -> Workload {
    let cfg = WorkloadConfig::with_overlap(16, 0.6);
    // pick a seed whose measured overlap clears the 50% bar; a bounded
    // search so a generator regression fails loudly instead of hanging
    let mut best = 0.0f64;
    for index in 0..200 {
        let (trees, catalog) = workload_instance(cfg, index);
        let overlap = mean_pairwise_overlap(&trees);
        if overlap >= 0.5 {
            return Workload::from_trees(trees, catalog).unwrap();
        }
        best = best.max(overlap);
    }
    panic!("no instance in 200 reached 50% pairwise overlap (best: {best:.3})")
}

#[test]
fn shared_greedy_simulated_energy_beats_independent_on_16_query_workload() {
    let workload = sixteen_query_workload();
    let engine = Engine::new();
    let report = workload.interference(&engine).unwrap();
    assert!(
        report.mean_pairwise_overlap() >= 0.5,
        "workload must have >= 50% pairwise stream overlap, got {}",
        report.mean_pairwise_overlap()
    );
    assert!(report.shared_streams() >= 2);

    let cfg = ServeConfig {
        ticks: 250,
        seed: 42,
        ticks_between: 1,
        ..Default::default()
    };
    let serve = |joint: &JointPlan| {
        ServeLoop::new(&workload, joint, cfg)
            .run(&mut AcceptAll, &engine)
            .unwrap()
    };
    let indep = serve(&IndependentPlanner.plan(&workload, &engine).unwrap());
    let shared = serve(
        &SharedGreedyPlanner::default()
            .plan(&workload, &engine)
            .unwrap(),
    );
    assert!(
        shared.total_energy < indep.total_energy * 0.9,
        "shared-greedy must be measurably (>10%) cheaper: shared {} vs independent {}",
        shared.total_energy,
        indep.total_energy
    );
}

#[test]
fn compare_table_reports_sharing_ratio_and_speedup_for_every_planner() {
    let workload = sixteen_query_workload();
    let engine = Engine::new();
    let outcomes = compare(
        &workload,
        &engine,
        &default_planners(),
        Some(ServeConfig {
            ticks: 120,
            seed: 7,
            ticks_between: 1,
            ..Default::default()
        }),
    )
    .unwrap();
    assert_eq!(outcomes.len(), 3);
    let indep = &outcomes[0];
    assert_eq!(indep.planner, "independent");
    assert!((indep.sharing_ratio).abs() < 1e-12);
    for o in &outcomes[1..] {
        assert!(
            o.sharing_ratio > 0.0,
            "{} predicts no sharing on a 50%-overlap workload",
            o.planner
        );
        assert!(o.speedup > 1.0);
        let sim_speedup = o.simulated_speedup.expect("plans were served");
        assert!(
            sim_speedup > 1.0,
            "{} measured speedup {sim_speedup} <= 1",
            o.planner
        );
    }
}
