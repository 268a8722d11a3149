// Golden constants are pinned at full captured precision on purpose.
#![allow(clippy::excessive_precision)]

//! Golden-trace equivalence: serving a joint plan (every query due
//! every tick, accept-all admission, joint-plan order) must reproduce
//! the multi-query energy traces captured before execution was unified
//! on `stream_sim::runtime` (`Scheduler` + `EnergyMeter`). The
//! scenarios are a 3-query seed workload plus the three bench workload
//! shapes (4 / 16 / 64 queries at 0.6 overlap, instance 0). Energies
//! are mean per tick. Any divergence beyond 1e-9 relative means
//! execution semantics changed, not just the plumbing.

use paotr_core::leaf::Leaf;
use paotr_core::plan::Engine;
use paotr_core::prob::Prob;
use paotr_core::stream::{StreamCatalog, StreamId};
use paotr_core::tree::DnfTree;
use paotr_exec::{AcceptAll, ServeConfig, ServeLoop, ServeReport};
use paotr_gen::workload::{workload_instance, WorkloadConfig};
use paotr_multi::{planner_by_name, Workload};

fn leaf(s: usize, d: u32, p: f64) -> Leaf {
    Leaf::new(StreamId(s), d, Prob::new(p).unwrap()).unwrap()
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * (1.0 + a.abs().max(b.abs()))
}

fn run(workload: &Workload, planner: &str, cfg: ServeConfig) -> ServeReport {
    let engine = Engine::new();
    let joint = planner_by_name(planner)
        .unwrap()
        .plan(workload, &engine)
        .unwrap();
    ServeLoop::new(workload, &joint, cfg)
        .run(&mut AcceptAll, &engine)
        .unwrap()
}

fn check(tag: &str, report: &ServeReport, total: f64, per_query: Option<&[f64]>) {
    let per_query_energy = report.mean_query_energy();
    let total_energy: f64 = per_query_energy.iter().sum();
    assert!(
        close(total_energy, total),
        "{tag}: total {total_energy:.17e} vs golden {total:.17e}"
    );
    if let Some(golden) = per_query {
        assert_eq!(per_query_energy.len(), golden.len(), "{tag}");
        for (q, (&got, &want)) in per_query_energy.iter().zip(golden).enumerate() {
            assert!(
                close(got, want),
                "{tag} q{q}: {got:.17e} vs golden {want:.17e}"
            );
        }
    }
}

/// The overlapping 3-query seed scenario, all three planners,
/// per-query energies pinned.
#[test]
fn seed_scenario_traces_match_pre_refactor() {
    let trees = vec![
        DnfTree::from_leaves(vec![vec![leaf(0, 5, 0.8), leaf(1, 2, 0.5)]]).unwrap(),
        DnfTree::from_leaves(vec![vec![leaf(0, 4, 0.7)], vec![leaf(1, 3, 0.4)]]).unwrap(),
        DnfTree::from_leaves(vec![vec![leaf(0, 3, 0.9), leaf(1, 4, 0.6)]]).unwrap(),
    ];
    let w = Workload::from_trees(trees, StreamCatalog::from_costs([2.0, 1.0]).unwrap()).unwrap();
    let cfg = ServeConfig {
        ticks: 300,
        seed: 3,
        ticks_between: 1,
        ..Default::default()
    };

    let r = run(&w, "independent", cfg);
    check(
        "seed3q/independent",
        &r,
        2.27400000000000020e1,
        Some(&[
            7.23333333333333339e0,
            7.82666666666666710e0,
            7.67999999999999972e0,
        ]),
    );
    assert_eq!(r.pulled_items, vec![2061, 2700]);

    let r = run(&w, "shared-greedy", cfg);
    check(
        "seed3q/shared-greedy",
        &r,
        1.29066666666666663e1,
        Some(&[
            1.80000000000000004e0,
            7.82666666666666710e0,
            3.27999999999999980e0,
        ]),
    );
    assert_eq!(r.pulled_items, vec![1336, 1200]);

    let r = run(&w, "batch-aware", cfg);
    check(
        "seed3q/batch-aware",
        &r,
        1.29066666666666663e1,
        Some(&[
            7.23333333333333339e0,
            4.41333333333333311e0,
            1.26000000000000001e0,
        ]),
    );
}

/// The three bench workload shapes (`workload_sim`'s configuration at
/// 4, 16 and 64 queries), totals pinned for the independent and
/// shared-greedy paths.
#[test]
fn bench_shape_traces_match_pre_refactor() {
    let golden: [(usize, f64, f64); 3] = [
        (4, 1.19903344483631940e2, 8.34097789353874361e1),
        (16, 8.33654903070334854e2, 1.93886131786296005e2),
        (64, 3.85179642689052798e3, 4.68246814888279914e2),
    ];
    for (queries, indep_total, shared_total) in golden {
        let (trees, catalog) = workload_instance(WorkloadConfig::with_overlap(queries, 0.6), 0);
        let w = Workload::from_trees(trees, catalog).unwrap();
        let cfg = ServeConfig {
            ticks: 50,
            seed: 1,
            ticks_between: 1,
            ..Default::default()
        };
        check(
            &format!("bench{queries}q/independent"),
            &run(&w, "independent", cfg),
            indep_total,
            None,
        );
        check(
            &format!("bench{queries}q/shared-greedy"),
            &run(&w, "shared-greedy", cfg),
            shared_total,
            None,
        );
    }
}

/// Per-query energies on the 4-query bench shape (finer-grained pin
/// than the totals above).
#[test]
fn bench4_per_query_traces_match_pre_refactor() {
    let (trees, catalog) = workload_instance(WorkloadConfig::with_overlap(4, 0.6), 0);
    let w = Workload::from_trees(trees, catalog).unwrap();
    let cfg = ServeConfig {
        ticks: 50,
        seed: 1,
        ticks_between: 1,
        ..Default::default()
    };
    check(
        "bench4q/independent",
        &run(&w, "independent", cfg),
        1.19903344483631940e2,
        Some(&[
            1.97740966209563602e1,
            4.26818385797674935e1,
            3.32734728895852570e1,
            2.41739363933228333e1,
        ]),
    );
    check(
        "bench4q/shared-greedy",
        &run(&w, "shared-greedy", cfg),
        8.34097789353874361e1,
        Some(&[
            1.56513093803403898e1,
            2.09999879516255277e1,
            3.32734728895852570e1,
            1.34850087138362724e1,
        ]),
    );
}
