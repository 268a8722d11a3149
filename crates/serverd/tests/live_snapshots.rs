//! Every snapshot a live daemon writes passes `Snapshot::validate` and
//! restores. Seeded churn scripts drive daemons with arrangements,
//! budget and faults each on and off; a snapshot is taken after every
//! tick. This is what licenses the strict rules, the arrangement
//! `maintained_to` bound and `telemetry.ticks == tick` among them.

use paotr_gen::{churn_script, ChurnConfig, ChurnEvent};
use paotr_serverd::{Config, Daemon, FaultSpec};
use stream_sim::ArrangeConfig;

const TICKS: u64 = 120;
const MAX_SESSIONS: usize = 8;

/// Seed `s` picks arrangements, budget and faults from its low bits, so
/// the eight seeds cover every combination.
fn config(seed: u64) -> Config {
    Config {
        seed,
        budget: (seed & 2 != 0).then_some(8.0),
        replan_after: 4,
        max_sessions: MAX_SESSIONS,
        max_window: 12,
        arrange: (seed & 1 != 0).then_some(ArrangeConfig { grace: 3 }),
        faults: (seed & 4 != 0).then_some(FaultSpec {
            seed: seed ^ 0x5a,
            transient_rate: 0.05,
            outage_streams: 0.25,
            outage_len: 6,
            outage_gap: 20,
            max_attempts: 2,
            stale_serve: seed & 8 == 0,
        }),
        ..Config::default()
    }
}

fn assert_snapshot_is_valid(daemon: &Daemon, seed: u64) {
    let snap = daemon.snapshot();
    let violations = snap.validate();
    assert!(
        violations.is_empty(),
        "seed {seed} tick {}: {violations:?}",
        daemon.tick()
    );
    let restored = Daemon::from_snapshot(&snap)
        .unwrap_or_else(|e| panic!("seed {seed} tick {}: {e}", daemon.tick()));
    assert_eq!(restored.snapshot(), snap, "seed {seed}: restore round trip");
}

#[test]
fn every_live_snapshot_validates_clean_and_restores() {
    let churn = ChurnConfig {
        events: 400,
        max_live: MAX_SESSIONS,
        streams: 6,
        max_window: 12,
        max_tick_burst: 3,
        ..ChurnConfig::default()
    };
    for seed in 0..8u64 {
        let mut daemon = Daemon::new(config(seed)).unwrap();
        let mut live: Vec<u64> = Vec::new();
        let mut script = churn_script(&churn, 0, seed as usize).into_iter();
        while daemon.tick() < TICKS {
            match script.next() {
                Some(ChurnEvent::Register { source, weight }) => {
                    live.push(daemon.register(&source, weight).unwrap());
                }
                Some(ChurnEvent::Unregister { nth_live }) => {
                    daemon.unregister(live.remove(nth_live)).unwrap();
                }
                Some(ChurnEvent::Tick { n }) => {
                    for _ in 0..n {
                        daemon.run_ticks(1).unwrap();
                        assert_snapshot_is_valid(&daemon, seed);
                    }
                }
                None => {
                    daemon.run_ticks(1).unwrap();
                    assert_snapshot_is_valid(&daemon, seed);
                }
            }
        }
        assert!(daemon.telemetry().registers > 0, "seed {seed}: no churn");
        assert!(daemon.telemetry().unregisters > 0, "seed {seed}: no churn");
        if let Some(store) = daemon.arrangements() {
            assert!(
                store.stats().maintained_items > 0,
                "seed {seed}: idle store"
            );
        }
    }
}
