//! Chaos soak: the daemon soak's churn scripts replayed under a seeded
//! fault plan — intermittent outages plus transient read failures —
//! asserting no panics, per-tick budget compliance (retries included in
//! the bill), bounded memory, arrangement refcount consistency, and
//! that every *determined* verdict matches the fault-free daemon's
//! bit-for-bit.
//!
//! The smoke variant is always on (CI runs it in the `chaos-smoke`
//! job); the full chaos soak runs behind `--ignored`:
//! `cargo test --test chaos_soak -- --ignored full_chaos_soak`.

use paotr::gen::{churn_script, ChurnConfig, ChurnEvent};
use paotr::serverd::{Config, Daemon};
use stream_sim::{ArrangeConfig, FaultSpec, Verdict};

const BUDGET: f64 = 10.0;
const MAX_SESSIONS: usize = 24;

fn chaos_spec() -> FaultSpec {
    FaultSpec {
        seed: 42,
        transient_rate: 0.05,
        outage_streams: 0.25,
        outage_len: 12,
        outage_gap: 30,
        max_attempts: 3,
        stale_serve: false,
    }
}

fn soak_config(faults: Option<FaultSpec>) -> Config {
    Config {
        seed: 11,
        budget: Some(BUDGET),
        replan_after: 6,
        max_sessions: MAX_SESSIONS,
        max_window: 16,
        faults,
        ..Config::default()
    }
}

/// Replays `events` churn events under the fault plan, checking budget
/// and memory invariants after every event, and snapshot/restore
/// consistency at the end.
fn run_chaos_soak(events: usize, config_idx: usize, instance: usize) {
    let cfg = ChurnConfig {
        events,
        max_live: MAX_SESSIONS,
        max_window: 16,
        ..ChurnConfig::default()
    };
    let script = churn_script(&cfg, config_idx, instance);

    let mut daemon = Daemon::new(soak_config(Some(chaos_spec()))).unwrap();
    let mut live: Vec<u64> = Vec::new();
    let mut ticked = 0u64;

    for (i, ev) in script.iter().enumerate() {
        match ev {
            ChurnEvent::Register { source, weight } => {
                let id = daemon
                    .register(source, *weight)
                    .unwrap_or_else(|e| panic!("event {i}: register failed: {e}"));
                live.push(id);
            }
            ChurnEvent::Unregister { nth_live } => {
                let id = live.remove(*nth_live);
                daemon.unregister(id).unwrap();
            }
            ChurnEvent::Tick { n } => {
                let batch = daemon.run_ticks(*n).unwrap();
                ticked += n;
                // The budget holds with retries on the bill: admission
                // prices worst-case retry energy via the retry factor.
                assert!(
                    batch.max_energy() <= BUDGET + 1e-9,
                    "event {i}: tick energy {} over budget under chaos",
                    batch.max_energy()
                );
            }
        }
        assert!(daemon.registry().len() <= MAX_SESSIONS);
        assert_eq!(daemon.registry().len(), live.len());
        assert!(daemon.pending_requests() <= live.len());
        assert_eq!(daemon.trace_len(), 0, "event {i}: trace log not drained");
    }

    assert_eq!(daemon.tick(), ticked);
    assert!(ticked > 0, "script never ticked — degenerate soak");
    let t = daemon.telemetry();
    assert!(t.retries > 0, "the chaos schedule never fired a transient");
    assert!(
        t.unknown_verdicts + t.degraded_verdicts <= t.evals,
        "verdict counters exceed evaluations"
    );

    // Mid-soak state (fault counters included) survives a snapshot
    // round trip and the restored daemon replays identically.
    let snap = daemon.snapshot();
    let mut restored = Daemon::from_snapshot(&snap).unwrap();
    assert_eq!(restored.telemetry(), daemon.telemetry());
    let a = daemon.run_ticks(10).unwrap();
    let b = restored.run_ticks(10).unwrap();
    assert_eq!(a, b, "restored chaos soak must replay tick-for-tick");
}

/// CI smoke: 10k churn events under the seeded chaos schedule.
#[test]
fn chaos_soak_smoke_10k_events() {
    run_chaos_soak(10_000, 0, 0);
}

/// Arrangements under chaos: same churn, stale serving on, refcount
/// consistency enforced by the snapshot round trip (restore
/// cross-checks persisted reader counts against the live sessions).
#[test]
fn chaos_soak_with_arrangements_and_stale_serving() {
    let cfg = ChurnConfig {
        events: 2_000,
        max_live: MAX_SESSIONS,
        max_window: 16,
        ..ChurnConfig::default()
    };
    let script = churn_script(&cfg, 0, 2);
    let mut daemon = Daemon::new(Config {
        arrange: Some(ArrangeConfig::default()),
        // No budget: arrangement maintenance is not admission-gated,
        // so this variant soaks the stale-serving path instead.
        budget: None,
        faults: Some(FaultSpec {
            stale_serve: true,
            outage_streams: 0.6,
            ..chaos_spec()
        }),
        ..soak_config(None)
    })
    .unwrap();
    let mut live: Vec<u64> = Vec::new();
    for ev in &script {
        match ev {
            ChurnEvent::Register { source, weight } => {
                live.push(daemon.register(source, *weight).unwrap());
            }
            ChurnEvent::Unregister { nth_live } => {
                daemon.unregister(live.remove(*nth_live)).unwrap();
            }
            ChurnEvent::Tick { n } => {
                daemon.run_ticks(*n).unwrap();
            }
        }
    }
    // The refcount cross-check in from_snapshot is the consistency
    // audit: it fails typed if any session/arrangement refcount drifted
    // during faulted churn.
    let restored = Daemon::from_snapshot(&daemon.snapshot()).unwrap();
    assert_eq!(restored.telemetry(), daemon.telemetry());
}

/// Determined verdicts under the soak's fault schedule equal the
/// fault-free run's: replay the same churn script with and without the
/// fault plan (no budget, so both admit everything) and compare every
/// non-unknown verdict per session per tick.
#[test]
fn chaos_soak_determined_verdicts_match_fault_free() {
    let cfg = ChurnConfig {
        events: 1_500,
        max_live: MAX_SESSIONS,
        max_window: 16,
        ..ChurnConfig::default()
    };
    let script = churn_script(&cfg, 0, 3);
    let mut faulted = Daemon::new(Config {
        budget: None,
        faults: Some(FaultSpec {
            outage_streams: 1.0,
            ..chaos_spec()
        }),
        ..soak_config(None)
    })
    .unwrap();
    let mut clean = Daemon::new(Config {
        budget: None,
        ..soak_config(None)
    })
    .unwrap();

    let (mut live_f, mut live_c) = (Vec::new(), Vec::new());
    let (mut determined, mut unknown) = (0u64, 0u64);
    for ev in &script {
        match ev {
            ChurnEvent::Register { source, weight } => {
                live_f.push(faulted.register(source, *weight).unwrap());
                live_c.push(clean.register(source, *weight).unwrap());
            }
            ChurnEvent::Unregister { nth_live } => {
                faulted.unregister(live_f.remove(*nth_live)).unwrap();
                clean.unregister(live_c.remove(*nth_live)).unwrap();
            }
            ChurnEvent::Tick { n } => {
                for _ in 0..*n {
                    faulted.run_ticks(1).unwrap();
                    clean.run_ticks(1).unwrap();
                    let base: std::collections::BTreeMap<u64, Verdict> = clean
                        .last_verdicts()
                        .iter()
                        .map(|&(id, v, _)| (id, v))
                        .collect();
                    for &(id, verdict, degraded) in faulted.last_verdicts() {
                        if verdict == Verdict::Unknown {
                            unknown += 1;
                            continue;
                        }
                        assert!(!degraded, "stale serving is off in this variant");
                        assert_eq!(
                            verdict,
                            base[&id],
                            "tick {}: session {id} determined verdict diverged",
                            faulted.tick()
                        );
                        determined += 1;
                    }
                }
            }
        }
    }
    assert!(determined > 0, "chaos determined nothing — degenerate");
    assert!(unknown > 0, "chaos never caused an unknown — degenerate");
}

/// Full chaos soak: an order of magnitude more churn plus a second
/// script. Run with `cargo test --test chaos_soak -- --ignored`.
#[test]
#[ignore = "long-running full chaos soak; CI runs the smoke variant"]
fn full_chaos_soak() {
    run_chaos_soak(100_000, 0, 1);
    run_chaos_soak(50_000, 1, 0);
}
