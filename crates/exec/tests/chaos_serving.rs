//! Chaos acceptance: a 64-query, >=50%-overlap workload served for 200
//! ticks under a seeded fault plan failing ~10% of streams
//! intermittently must (a) keep every determined verdict bit-for-bit
//! equal to the fault-free run's, (b) keep >= 70% of evaluations
//! determined, (c) never exceed the admission budget in any tick, and
//! (d) re-plan around outages. Faults are derived, never stored, so
//! the same `FaultSpec` replays the same chaos schedule every run.

use paotr_core::plan::Engine;
use paotr_exec::{
    AcceptAll, AdmissionPolicy, ArrangeConfig, ArrivalSpec, EnergyBudget, FaultSpec, ServeConfig,
    ServeLoop, ServeReport, Verdict,
};
use paotr_gen::workload::{workload_instance, WorkloadConfig};
use paotr_multi::{planner_by_name, Workload};
use std::collections::HashMap;

/// The issue's chaos schedule: ~10% of streams cycle through outages,
/// 5% of reads fail transiently, three attempts per leaf, no stale
/// serving (so every non-unknown verdict is live-determined).
fn chaos_spec() -> FaultSpec {
    FaultSpec {
        seed: 42,
        transient_rate: 0.05,
        outage_streams: 0.10,
        outage_len: 12,
        outage_gap: 30,
        max_attempts: 3,
        stale_serve: false,
    }
}

fn workload() -> Workload {
    let (trees, catalog) = workload_instance(WorkloadConfig::with_overlap(64, 0.5), 0);
    Workload::from_trees(trees, catalog).unwrap()
}

fn serve(
    w: &Workload,
    policy: &mut dyn AdmissionPolicy,
    faults: Option<FaultSpec>,
    arrange: Option<ArrangeConfig>,
) -> ServeReport {
    let engine = Engine::new();
    let joint = planner_by_name("shared-greedy")
        .unwrap()
        .plan(w, &engine)
        .unwrap();
    let serve = ServeLoop::new(
        w,
        &joint,
        ServeConfig {
            ticks: 200,
            seed: 7,
            arrivals: ArrivalSpec::Periodic { every: 1 },
            arrange,
            faults,
            record_verdicts: true,
            ..Default::default()
        },
    );
    serve.run_with_progress(policy, &engine, |_| {}).unwrap()
}

/// The acceptance bar proper: determined verdicts match the fault-free
/// run bit-for-bit, at least 70% of evaluations stay determined, and
/// outage transitions actually re-plan.
#[test]
fn determined_verdicts_match_the_fault_free_run_bit_for_bit() {
    let w = workload();
    let clean = serve(&w, &mut AcceptAll, None, None);
    let faulted = serve(&w, &mut AcceptAll, Some(chaos_spec()), None);

    // Fault-free serving under the always-wrapped decorator is fully
    // determined and burns nothing on retries.
    assert_eq!(clean.determined(), clean.evals);
    assert_eq!(clean.retries, 0);
    assert_eq!(clean.retry_energy, 0.0);

    // The chaos schedule really fired.
    assert!(faulted.retries > 0, "transient failures should retry");
    assert!(faulted.failed_reads > 0, "outages should abort leaves");
    assert!(
        faulted.outage_replans > 0,
        "outage transitions should re-plan affected queries"
    );
    assert_eq!(faulted.degraded_verdicts, 0, "stale serving is off");

    // >= 70% of evaluations determined despite the chaos schedule.
    let frac = faulted.determined() as f64 / faulted.evals.max(1) as f64;
    assert!(
        frac >= 0.70,
        "only {:.1}% of {} evaluations determined",
        frac * 100.0,
        faulted.evals
    );

    // Every determined verdict equals the fault-free run's at the same
    // (tick, query). Kleene evaluation only short-circuits on live
    // determinations, and live reads see the same sensor data, so a
    // determined verdict cannot depend on which streams were down.
    let baseline: HashMap<(u64, usize), Verdict> = clean
        .verdicts
        .iter()
        .map(|v| ((v.tick, v.query), v.verdict))
        .collect();
    let mut compared = 0u64;
    for v in &faulted.verdicts {
        if v.verdict == Verdict::Unknown {
            continue;
        }
        let expect = baseline.get(&(v.tick, v.query)).unwrap_or_else(|| {
            panic!("no fault-free verdict at tick {} query {}", v.tick, v.query)
        });
        assert_eq!(
            v.verdict, *expect,
            "tick {} query {}: determined verdict diverged from the fault-free run",
            v.tick, v.query
        );
        compared += 1;
    }
    assert_eq!(compared, faulted.determined());
    assert_eq!(
        faulted.determined() + faulted.unknown_verdicts + faulted.degraded_verdicts,
        faulted.evals
    );
}

/// Under an energy envelope the chaos run must never exceed the budget
/// in any tick: the admission bound prices worst-case retries through
/// `retry_factor`, so even a tick where every contact fails stays
/// inside it.
#[test]
fn budgeted_chaos_never_exceeds_the_envelope_in_any_tick() {
    let w = workload();
    let unconstrained = serve(&w, &mut AcceptAll, Some(chaos_spec()), None);
    let budget = unconstrained.max_tick_energy * 0.6;

    let capped = serve(
        &w,
        &mut EnergyBudget::deferring(budget),
        Some(chaos_spec()),
        None,
    );
    assert!(capped.evals > 0, "the envelope should still admit work");
    assert!(
        capped.max_tick_energy <= budget + 1e-9,
        "tick energy {} exceeded budget {budget}",
        capped.max_tick_energy
    );
}

/// With arrangements maintained and stale serving enabled, heavy
/// outages degrade verdicts (served from the last maintained rings,
/// with a staleness bound) instead of failing them.
#[test]
fn stale_serving_degrades_verdicts_instead_of_failing_them() {
    let w = workload();
    let spec = FaultSpec {
        seed: 7,
        transient_rate: 0.0,
        outage_streams: 1.0,
        outage_len: 12,
        outage_gap: 30,
        max_attempts: 1,
        stale_serve: true,
    };
    let r = serve(
        &w,
        &mut AcceptAll,
        Some(spec),
        Some(ArrangeConfig::default()),
    );
    assert!(r.arrangements > 0, "the joint plan materializes streams");
    assert!(r.stale_serves > 0, "outaged leaves should serve stale");
    assert!(r.max_staleness > 0, "stale windows carry a staleness bound");
    assert!(
        r.degraded_verdicts > 0,
        "stale data should resolve some verdicts (degraded)"
    );
    assert_eq!(
        r.determined() + r.unknown_verdicts + r.degraded_verdicts,
        r.evals
    );
}

/// `faults: None` is exactly the PR 7 serving path: zero chaos
/// counters, fully determined, and no retry energy.
#[test]
fn faults_off_reports_zero_chaos_counters() {
    let w = workload();
    let r = serve(&w, &mut AcceptAll, None, None);
    assert_eq!(r.retries, 0);
    assert_eq!(r.retry_energy, 0.0);
    assert_eq!(r.failed_reads, 0);
    assert_eq!(r.unknown_verdicts, 0);
    assert_eq!(r.degraded_verdicts, 0);
    assert_eq!(r.stale_serves, 0);
    assert_eq!(r.max_staleness, 0);
    assert_eq!(r.outage_replans, 0);
    assert_eq!(r.determined(), r.evals);
    assert_eq!(r.verdicts.len() as u64, r.evals);
}
