// Golden constants are pinned at full captured precision on purpose.
#![allow(clippy::excessive_precision)]

//! Serving-loop acceptance tests: admission-control edge cases, the
//! per-tick budget guarantee, the shared-vs-independent throughput
//! comparison, and drift-triggered re-planning.

use paotr_core::plan::Engine;
use paotr_core::stream::{StreamCatalog, StreamId};
use paotr_core::tree::DnfTree;
use paotr_exec::{
    AcceptAll, ArrivalSpec, DriftConfig, EnergyBudget, ServeConfig, ServeLoop, ServeReport,
};
use paotr_gen::workload::{workload_instance, WorkloadConfig};
use paotr_multi::{planner_by_name, JointPlan, Workload};
use stream_sim::{Comparator, Predicate, SimLeaf, SimQuery, WindowOp};

fn workload16() -> Workload {
    let (trees, catalog) = workload_instance(WorkloadConfig::with_overlap(16, 0.6), 0);
    Workload::from_trees(trees, catalog).unwrap()
}

fn plan(workload: &Workload, planner: &str, engine: &Engine) -> JointPlan {
    planner_by_name(planner)
        .unwrap()
        .plan(workload, engine)
        .unwrap()
}

#[test]
fn zero_budget_sheds_every_request() {
    let w = workload16();
    let engine = Engine::new();
    let joint = plan(&w, "shared-greedy", &engine);
    let serve = ServeLoop::new(
        &w,
        &joint,
        ServeConfig {
            ticks: 40,
            ..Default::default()
        },
    );
    let r = serve
        .run(&mut EnergyBudget::shedding(0.0), &engine)
        .unwrap();
    assert_eq!(r.evals, 0, "nothing fits a zero budget");
    assert_eq!(r.total_energy, 0.0);
    assert_eq!(r.max_tick_energy, 0.0);
    assert!(r.shed > 0);
    assert_eq!(r.arrivals, 16 * 40, "every-tick periodic arrivals");
}

#[test]
fn infinite_budget_equals_accept_all_bitwise() {
    let w = workload16();
    let engine = Engine::new();
    let joint = plan(&w, "shared-greedy", &engine);
    let config = ServeConfig {
        ticks: 60,
        arrivals: ArrivalSpec::Poisson { rate: 0.7 },
        seed: 11,
        ..Default::default()
    };
    let serve = ServeLoop::new(&w, &joint, config);
    let unconstrained = serve.run(&mut AcceptAll, &engine).unwrap();
    let infinite = serve
        .run(&mut EnergyBudget::shedding(f64::INFINITY), &engine)
        .unwrap();
    // Identical admissions => identical executions, bitwise.
    assert_eq!(unconstrained.total_energy, infinite.total_energy);
    assert_eq!(unconstrained.max_tick_energy, infinite.max_tick_energy);
    assert_eq!(unconstrained.evals, infinite.evals);
    assert_eq!(unconstrained.per_query_served, infinite.per_query_served);
    assert_eq!(unconstrained.truth_rate, infinite.truth_rate);
    assert_eq!(infinite.shed, 0);
    assert_eq!(unconstrained.admission, "accept-all");
    assert_eq!(infinite.admission, "energy-budget");
}

#[test]
fn per_tick_energy_never_exceeds_the_budget() {
    let w = workload16();
    let engine = Engine::new();
    for planner in ["independent", "shared-greedy"] {
        let joint = plan(&w, planner, &engine);
        let serve = ServeLoop::new(
            &w,
            &joint,
            ServeConfig {
                ticks: 120,
                arrivals: ArrivalSpec::Poisson { rate: 0.8 },
                seed: 5,
                ..Default::default()
            },
        );
        for budget in [10.0, 40.0, 120.0] {
            let mut worst_seen = 0.0f64;
            let r = serve
                .run_with_progress(&mut EnergyBudget::shedding(budget), &engine, |t| {
                    worst_seen = worst_seen.max(t.energy);
                })
                .unwrap();
            assert!(
                r.max_tick_energy <= budget + 1e-9,
                "{planner} @ {budget}: max tick {}",
                r.max_tick_energy
            );
            assert!((worst_seen - r.max_tick_energy).abs() < 1e-12);
        }
    }
}

#[test]
fn shared_greedy_serves_at_least_the_independent_throughput() {
    // The acceptance scenario: a generated 16-query workload served
    // under a tight per-tick energy budget. Shared execution coalesces
    // pulls, so its worst-case admission bound is lower and more
    // queries fit the same budget.
    let w = workload16();
    let engine = Engine::new();
    let config = ServeConfig {
        ticks: 150,
        arrivals: ArrivalSpec::Poisson { rate: 0.9 },
        seed: 2,
        ..Default::default()
    };
    let indep = ServeLoop::new(&w, &plan(&w, "independent", &engine), config);
    let shared = ServeLoop::new(&w, &plan(&w, "shared-greedy", &engine), config);
    let mut strictly_better = 0;
    for budget in [30.0, 80.0, 200.0] {
        let ri = indep
            .run(&mut EnergyBudget::shedding(budget), &engine)
            .unwrap();
        let rs = shared
            .run(&mut EnergyBudget::shedding(budget), &engine)
            .unwrap();
        assert!(ri.max_tick_energy <= budget + 1e-9);
        assert!(rs.max_tick_energy <= budget + 1e-9);
        assert!(
            rs.throughput() >= ri.throughput(),
            "budget {budget}: shared {} < independent {}",
            rs.throughput(),
            ri.throughput()
        );
        if rs.evals > ri.evals {
            strictly_better += 1;
        }
    }
    assert!(
        strictly_better >= 1,
        "a tight budget must admit strictly more shared-greedy evaluations"
    );
}

#[test]
fn deferred_requests_are_served_later_instead_of_dropped() {
    let w = workload16();
    let engine = Engine::new();
    let joint = plan(&w, "shared-greedy", &engine);
    let config = ServeConfig {
        ticks: 100,
        arrivals: ArrivalSpec::Poisson { rate: 0.4 },
        seed: 9,
        ..Default::default()
    };
    let serve = ServeLoop::new(&w, &joint, config);
    let budget = 40.0;
    let shed = serve
        .run(&mut EnergyBudget::shedding(budget), &engine)
        .unwrap();
    let defer = serve
        .run(&mut EnergyBudget::deferring(budget), &engine)
        .unwrap();
    assert_eq!(defer.shed, 0);
    assert!(defer.deferred > 0, "the tight budget must defer something");
    assert!(
        defer.evals >= shed.evals,
        "deferring keeps requests alive: {} vs {}",
        defer.evals,
        shed.evals
    );
    assert!(defer.max_tick_energy <= budget + 1e-9);
}

#[test]
fn drift_triggers_replanning_and_reduces_energy() {
    // One query, two streams: an expensive stream whose leaf is
    // calibrated at p = 0.05 (so the planner evaluates the cheap
    // stream's leaf first and the expensive leaf is rarely reached...
    // actually: within one AND term, a low-p leaf short-circuits best
    // first). We mis-calibrate: the data makes the "p = 0.05" leaf
    // almost always TRUE, so serving keeps evaluating both leaves. A
    // drift re-plan should flip the order so the genuinely selective
    // leaf runs first.
    let mk_leaf = |s: usize, d: u32, p: f64| {
        paotr_core::leaf::Leaf::new(StreamId(s), d, paotr_core::prob::Prob::new(p).unwrap())
            .unwrap()
    };
    // Calibration claims: leaf A (stream 0, window 8, cost 5/item)
    // fails often (p=0.05) while leaf B (stream 1, window 1, cost 1)
    // virtually never fails (p=0.999). Smith-ratio order under that
    // calibration evaluates the expensive A first (40/0.95 ≈ 42 beats
    // 1/0.001 = 1000).
    let tree = DnfTree::from_leaves(vec![vec![mk_leaf(0, 8, 0.05), mk_leaf(1, 1, 0.999)]]).unwrap();
    let catalog = StreamCatalog::from_costs([5.0, 1.0]).unwrap();
    let w = Workload::from_trees(vec![tree], catalog).unwrap();
    let engine = Engine::new();
    let joint = plan(&w, "independent", &engine);

    // Reality: leaf A is almost always TRUE (threshold 10 on a standard
    // normal AVG) so it never short-circuits, and leaf B is almost
    // always FALSE (threshold -10) — the truly selective leaf. The
    // re-plan must flip the order and stop paying A's 40-unit pull.
    let queries = vec![SimQuery::new(vec![vec![
        SimLeaf {
            stream: StreamId(0),
            predicate: Predicate::new(WindowOp::Avg, 8, Comparator::Lt, 10.0),
        },
        SimLeaf {
            stream: StreamId(1),
            predicate: Predicate::new(WindowOp::Avg, 1, Comparator::Lt, -10.0),
        },
    ]])
    .unwrap()];
    let config = ServeConfig {
        ticks: 300,
        seed: 4,
        drift: Some(DriftConfig {
            tolerance: 0.2,
            min_samples: 20,
        }),
        ..Default::default()
    };
    let drifting = ServeLoop::with_queries(queries.clone(), &w, &joint, config);
    let frozen = ServeLoop::with_queries(
        queries,
        &w,
        &joint,
        ServeConfig {
            drift: None,
            ..config
        },
    );
    let with_drift = drifting.run(&mut AcceptAll, &engine).unwrap();
    let without = frozen.run(&mut AcceptAll, &engine).unwrap();
    assert!(
        with_drift.drift_replans >= 1,
        "mis-calibration must trigger a re-plan"
    );
    assert_eq!(without.drift_replans, 0);
    assert!(
        with_drift.total_energy < without.total_energy,
        "re-planned schedule must beat the mis-calibrated one: {} vs {}",
        with_drift.total_energy,
        without.total_energy
    );
}

#[test]
fn well_calibrated_serving_does_not_thrash_replans() {
    let w = workload16();
    let engine = Engine::new();
    let joint = plan(&w, "shared-greedy", &engine);
    let serve = ServeLoop::new(
        &w,
        &joint,
        ServeConfig {
            ticks: 200,
            seed: 8,
            drift: Some(DriftConfig {
                // Synthesized predicates hit their calibrated marginals,
                // but windows overlapping across ticks correlate
                // observations; a generous tolerance models the
                // "re-plan only on real drift" operating point.
                tolerance: 0.35,
                min_samples: 60,
            }),
            ..Default::default()
        },
    );
    let r = serve.run(&mut AcceptAll, &engine).unwrap();
    assert!(
        r.drift_replans <= w.len() as u64,
        "well-calibrated queries should rarely re-plan (got {})",
        r.drift_replans
    );
}

/// The serving loop with accept-all admission and every-tick periodic
/// arrivals evaluates every query every tick, and therefore reproduces
/// the original simulator's golden trace of the 4-query bench shape.
#[test]
fn serve_loop_accept_all_matches_the_simulator_golden_trace() {
    let (trees, catalog) = workload_instance(WorkloadConfig::with_overlap(4, 0.6), 0);
    let w = Workload::from_trees(trees, catalog).unwrap();
    let engine = Engine::new();
    let joint = plan(&w, "shared-greedy", &engine);
    let ticks = 50usize;
    let serve = ServeLoop::new(
        &w,
        &joint,
        ServeConfig {
            ticks,
            seed: 1,
            ..Default::default()
        },
    );
    let report = serve.run(&mut AcceptAll, &engine).unwrap();
    // The golden total is mean energy per tick; the serve loop reports
    // the cumulative total over the same data.
    let rel = |a: f64, b: f64| (a - b).abs() <= 1e-9 * (1.0 + a.abs().max(b.abs()));
    // The pre-refactor golden total for this shape (mean/tick).
    assert!(rel(
        report.total_energy,
        8.34097789353874361e1 * ticks as f64
    ));
    assert_eq!(report.evals, 4 * 50);
    assert_eq!(report.shed, 0);
}

#[test]
fn summary_table_renders_every_run() {
    let w = workload16();
    let engine = Engine::new();
    let joint = plan(&w, "shared-greedy", &engine);
    let serve = ServeLoop::new(
        &w,
        &joint,
        ServeConfig {
            ticks: 20,
            ..Default::default()
        },
    );
    let a = serve.run(&mut AcceptAll, &engine).unwrap();
    let b = serve
        .run(&mut EnergyBudget::shedding(0.0), &engine)
        .unwrap();
    let table = ServeReport::summary_table(&[a, b]);
    let md = table.to_markdown();
    assert!(md.contains("accept-all"));
    assert!(md.contains("energy-budget"));
    assert!(md.contains("n/a"), "zero served renders n/a energy/eval");
}
