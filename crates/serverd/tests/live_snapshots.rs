//! Every snapshot a live daemon writes passes `Snapshot::validate` and
//! restores, and the restored daemon serves its next tick exactly as
//! the live one does. Seeded churn scripts drive daemons with
//! arrangements, budget and faults each on and off; a snapshot is taken
//! before every tick. This is what licenses the strict rules, the
//! arrangement `maintained_to` bound and `telemetry.ticks == tick`
//! among them.

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

/// Snapshots `daemon`, checks the snapshot validates and restores, then
/// steps the live daemon and its restored copy one tick each: both must
/// serve the same verdicts at the same energy, bit for bit.
fn restore_and_step(daemon: &mut Daemon, seed: u64) {
    let tick = daemon.tick();
    let snap = daemon.snapshot();
    let violations = snap.validate();
    assert!(
        violations.is_empty(),
        "seed {seed} tick {tick}: {violations:?}"
    );
    let mut restored =
        Daemon::from_snapshot(&snap).unwrap_or_else(|e| panic!("seed {seed} tick {tick}: {e}"));
    assert_eq!(restored.snapshot(), snap, "seed {seed}: restore round trip");
    let live = daemon.run_ticks(1).unwrap().energies;
    let replayed = restored.run_ticks(1).unwrap().energies;
    assert_eq!(
        restored.last_verdicts(),
        daemon.last_verdicts(),
        "seed {seed} tick {tick}: restored verdicts"
    );
    assert_eq!(
        replayed[0].to_bits(),
        live[0].to_bits(),
        "seed {seed} tick {tick}: restored tick energy"
    );
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
                        restore_and_step(&mut daemon, seed);
                    }
                }
                None => restore_and_step(&mut daemon, seed),
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
