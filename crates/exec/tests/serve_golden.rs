// Golden constants are pinned at full captured precision on purpose.
#![allow(clippy::excessive_precision)]

//! Golden pin of one serve run with every serving feature on at once:
//! a 16-query shared-greedy workload under a deferring energy budget,
//! with drift re-planning, seeded faults (transient reads plus stream
//! outages, stale serving allowed) and maintained arrangements.
//!
//! Counts are pinned exactly and energies to 1e-12 relative, so any
//! change to the tick body — admission, maintenance, the evaluation
//! loop, verdict counting, drift or outage re-planning, or the energy
//! accounting — shows up here.

use paotr_core::plan::Engine;
use paotr_exec::{
    ArrangeConfig, ArrivalSpec, DriftConfig, EnergyBudget, FaultSpec, ServeConfig, ServeLoop,
    ServeReport,
};
use paotr_gen::workload::{workload_instance, WorkloadConfig};
use paotr_multi::{planner_by_name, Workload};

fn run() -> ServeReport {
    let (trees, catalog) = workload_instance(WorkloadConfig::with_overlap(16, 0.6), 0);
    let w = Workload::from_trees(trees, catalog).unwrap();
    let engine = Engine::new();
    let joint = planner_by_name("shared-greedy")
        .unwrap()
        .plan(&w, &engine)
        .unwrap();
    let config = ServeConfig {
        ticks: 150,
        seed: 11,
        arrivals: ArrivalSpec::Poisson { rate: 0.8 },
        drift: Some(DriftConfig {
            tolerance: 0.12,
            min_samples: 20,
        }),
        arrange: Some(ArrangeConfig::default()),
        faults: Some(FaultSpec {
            seed: 5,
            transient_rate: 0.06,
            outage_streams: 0.25,
            outage_len: 10,
            outage_gap: 25,
            max_attempts: 3,
            stale_serve: true,
        }),
        record_verdicts: false,
    };
    ServeLoop::new(&w, &joint, config)
        .run(&mut EnergyBudget::deferring(BUDGET), &engine)
        .unwrap()
}

/// Binds on most ticks (requests are deferred) without starving any
/// query.
const BUDGET: f64 = 800.0;

fn assert_rel(name: &str, got: f64, want: f64) {
    let rel = (got - want).abs() / want.abs().max(f64::MIN_POSITIVE);
    assert!(rel <= 1e-12, "{name}: got {got:.17e}, pinned {want:.17e}");
}

#[test]
fn all_features_on_serve_run_is_pinned() {
    let r = run();
    assert_eq!(r.evals, 1352);
    assert_eq!(r.shed, 0);
    assert_eq!(r.deferred, 652);
    assert_eq!(r.drift_replans, 45);
    assert_eq!(r.outage_replans, 51);
    assert_eq!(r.determined(), 1270);
    assert_eq!(r.unknown_verdicts, 6);
    assert_eq!(r.degraded_verdicts, 76);
    assert_eq!(r.retries, 19);
    assert_eq!(r.stale_serves, 235);
    assert_eq!(
        r.per_query_served,
        vec![98, 129, 86, 81, 117, 73, 87, 64, 89, 69, 82, 67, 72, 60, 64, 114]
    );
    assert_rel("total_energy", r.total_energy, 1.01129845291597248e4);
    assert_rel("max_tick_energy", r.max_tick_energy, 1.72047246917404209e2);
    assert_rel("maintain_energy", r.maintain_energy, 6.24347655597466473e3);
    assert_rel("retry_energy", r.retry_energy, 2.10339935459894832e2);
}
