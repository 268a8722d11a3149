//! # stream-sim — the sensor-stream substrate
//!
//! The paper's setting is a mobile device evaluating boolean queries over
//! wearable sensor streams (SHIMMER-class platforms). We do not have the
//! hardware, so this crate simulates the whole data path the scheduling
//! problem lives in:
//!
//! * `source` — synthetic sensor models (sine, random walk, spikes,
//!   Gaussian), deterministic given a seed;
//! * [`stream`] — per-sensor history buffers with a pull interface
//!   ("give me the last `n` items");
//! * `device` — device-side item memory, the mechanism that makes
//!   streams *shared* across leaves;
//! * `predicate` — windowed predicates (`AVG(A,5) < 70`, ...);
//! * `query` — DNF queries over concrete predicates, and their abstract
//!   scheduling skeletons;
//! * `energy` — the paper's linear per-item energy model;
//! * `arrange` — persistent shared arrangements: the refcounted
//!   [`ArrangementStore`] of maintained rings, fed straight from each
//!   [`SimStream`]'s buffer and refilled on restore as the stream
//!   replays;
//! * `faults` — deterministic fault injection: a [`FaultSpec`] compiles
//!   to a [`FaultPlan`], a pure function of `(stream, tick[, attempt])`
//!   deciding outages and transient read failures, and a
//!   [`FaultySource`] is the catalog's streams seen through one plan;
//! * `runtime` — the **unified tick-driven execution runtime**: the
//!   pull-coalescing [`Scheduler`], which prices each sensor contact
//!   through the [`FaultySource`] view's plan and then reads the
//!   concrete [`SimStream`] window once, and the [`EnergyMeter`] — the
//!   single implementation both execution paths (the single-query
//!   pipeline and the multi-query tick driver in `paotr_exec`) run on;
//! * `trace` — execution traces and probability calibration ("inferred
//!   from historical traces", as the paper assumes);
//! * `simulate` — the calibrate–schedule–measure pipeline.
#![forbid(unsafe_code)]

pub(crate) mod arrange;
pub(crate) mod device;
pub(crate) mod energy;
pub(crate) mod faults;
pub(crate) mod predicate;
pub(crate) mod query;
pub(crate) mod runtime;
pub(crate) mod simulate;
pub(crate) mod source;
pub mod stream;
pub(crate) mod trace;

pub use arrange::{ArrangeConfig, ArrangeStats, ArrangementStore};
pub use device::{DeviceMemory, MemoryPolicy};
pub use energy::EnergyModel;
pub use faults::{FaultPlan, FaultSpec, FaultySource};
pub use predicate::{Comparator, Predicate, WindowOp};
pub use query::{SimLeaf, SimQuery};
pub use runtime::{gaussian_streams, EnergyMeter, QueryOutcome, Scheduler, Verdict};
pub use simulate::{run_pipeline, PipelineConfig, PipelineReport};
pub use source::{SensorModel, SensorSource};
pub use stream::SimStream;
pub use trace::{LeafRecord, TraceLog};

/// Tests of the fault schedule ([`faults`]), of the view the scheduler
/// reads through, and of the arrangement store ([`arrange`]).
#[cfg(test)]
mod tests {
    use super::*;
    use paotr_core::schedule::DnfSchedule;
    use paotr_core::stream::{StreamCatalog, StreamId};
    use rand::prelude::*;

    #[test]
    fn none_plan_never_fails() {
        let plan = FaultPlan::none();
        for k in 0..32 {
            for now in 0..200 {
                assert!(!plan.is_out(StreamId(k), now));
                assert!(!plan.read_fails(StreamId(k), now, 0));
            }
        }
    }

    #[test]
    fn plans_are_deterministic_and_seed_sensitive() {
        let a = FaultPlan::new(FaultSpec {
            seed: 7,
            ..FaultSpec::default()
        });
        let b = FaultPlan::new(FaultSpec {
            seed: 7,
            ..FaultSpec::default()
        });
        let c = FaultPlan::new(FaultSpec {
            seed: 8,
            ..FaultSpec::default()
        });
        let sig_a: Vec<Vec<bool>> = (0..100).map(|t| a.outage_signature(64, t)).collect();
        let sig_b: Vec<Vec<bool>> = (0..100).map(|t| b.outage_signature(64, t)).collect();
        let sig_c: Vec<Vec<bool>> = (0..100).map(|t| c.outage_signature(64, t)).collect();
        assert_eq!(sig_a, sig_b, "same seed, same schedule");
        assert_ne!(sig_a, sig_c, "different seed, different schedule");
    }

    #[test]
    fn outage_share_roughly_matches_spec() {
        let plan = FaultPlan::new(FaultSpec {
            seed: 3,
            outage_streams: 0.10,
            ..FaultSpec::default()
        });
        let prone = (0..1000)
            .filter(|&k| (0..60).any(|t| plan.is_out(StreamId(k), t)))
            .count();
        assert!(
            (60..160).contains(&prone),
            "~10% of 1000 streams should be outage-prone, got {prone}"
        );
    }

    #[test]
    fn outages_cycle_up_and_down() {
        let plan = FaultPlan::new(FaultSpec {
            seed: 1,
            outage_streams: 1.0,
            ..FaultSpec::default()
        });
        let k = StreamId(0);
        let out: Vec<bool> = (0..200).map(|t| plan.is_out(k, t)).collect();
        assert!(out.iter().any(|&b| b), "a prone stream goes down");
        assert!(out.iter().any(|&b| !b), "and comes back up");
    }

    #[test]
    fn transient_rate_is_roughly_honoured() {
        let plan = FaultPlan::new(FaultSpec {
            seed: 5,
            transient_rate: 0.05,
            ..FaultSpec::default()
        });
        let fails = (0..10_000)
            .filter(|&i| plan.read_fails(StreamId(i % 16), i as u64 / 16, 0))
            .count();
        assert!(
            (300..800).contains(&fails),
            "~5% of 10k contacts should fail, got {fails}"
        );
    }

    #[test]
    fn forced_outages_are_permanent() {
        let plan = FaultPlan::with_forced_outages(FaultSpec::none(), vec![2]);
        for now in 0..100 {
            assert!(plan.is_out(StreamId(2), now));
            assert!(!plan.is_out(StreamId(1), now));
        }
    }

    #[test]
    fn faulty_source_gates_contacts_not_local_reads() {
        let mut rng = StdRng::seed_from_u64(11);
        let streams = gaussian_streams(&[8], &mut rng);
        let query = SimQuery::new(vec![vec![SimLeaf {
            stream: StreamId(0),
            predicate: Predicate::new(WindowOp::Avg, 8, Comparator::Lt, 0.0),
        }]])
        .unwrap();
        let schedule = DnfSchedule::from_order_unchecked(query.leaf_refs());
        let catalog = StreamCatalog::from_costs(vec![1.0]).unwrap();
        let mut meter = EnergyMeter::new(EnergyModel::from_catalog(&catalog));
        let mut retain = Scheduler::new(1, MemoryPolicy::Retain);
        let none = FaultPlan::none();
        let src = FaultySource::wrap(&streams, &none);
        let live = retain.run_query(&query, &schedule, &src, &mut meter, None);
        assert_eq!(live.cost, 8.0);

        let dead = FaultPlan::with_forced_outages(FaultSpec::none(), vec![0]);
        let flaky = FaultPlan::new(FaultSpec {
            transient_rate: 1.0,
            ..FaultSpec::none()
        });
        for plan in [&dead, &flaky] {
            let src = FaultySource::wrap(&streams, plan);
            // The window is already on the device: no contact is made,
            // so the plan has nothing to refuse.
            let local = retain.run_query(&query, &schedule, &src, &mut meter, None);
            let free = QueryOutcome {
                cost: 0.0,
                items_pulled: vec![0],
                ..live.clone()
            };
            assert_eq!(local, free);
            // An empty device needs a contact, which the plan refuses.
            let mut cleared = Scheduler::new(1, MemoryPolicy::ClearEachQuery);
            let refused = cleared.run_query(&query, &schedule, &src, &mut meter, None);
            assert_eq!(refused.verdict, Verdict::Unknown);
            assert_eq!(refused.failed_reads, 1);
        }
    }

    // The arrangement store, maintained from and replayed on real
    // streams: a ring's expected contents are its stream's own `recent`
    // read at the ring's `maintained_to`.

    const A: StreamId = StreamId(0);
    const B: StreamId = StreamId(1);

    /// A seeded Gaussian stream that retains 16 items, advanced to time
    /// `now`, and the RNG that keeps producing its items.
    fn stream_at(seed: u64, now: usize) -> (SimStream, StdRng) {
        let mut rng = StdRng::seed_from_u64(seed);
        let gaussian = SensorModel::Gaussian {
            mean: 0.0,
            std_dev: 1.0,
        };
        let mut stream = SimStream::new(SensorSource::new(gaussian), 16);
        stream.advance_by(now, &mut rng);
        (stream, rng)
    }

    fn store() -> ArrangementStore {
        ArrangementStore::new(ArrangeConfig { grace: 2 })
    }

    /// A current read of the ring: `covers` counts the hit, and the
    /// contents come back through `serve_stale` at age 0.
    fn serve(s: &mut ArrangementStore, k: StreamId, now: u64, window: u32) -> Option<Vec<f64>> {
        if !s.covers(k, now, window) {
            return None;
        }
        let (data, age) = s
            .serve_stale(k, now, window)
            .expect("a covering ring is servable");
        assert_eq!(age, 0, "a covering ring is current");
        Some(data)
    }

    #[test]
    fn cold_fill_then_incremental_maintenance() {
        let (mut a, mut rng) = stream_at(1, 10);
        let mut s = store();
        s.acquire(A, 4);
        assert_eq!(
            s.maintenance_need(A, 10),
            4,
            "cold ring needs a full window"
        );
        assert_eq!(s.maintain(A, &a), 4);
        assert_eq!(s.maintenance_need(A, 10), 0, "current ring needs nothing");
        a.advance_by(1, &mut rng);
        assert_eq!(s.maintain(A, &a), 1, "one new item per tick");
        assert_eq!(serve(&mut s, A, 11, 4), a.recent(4));
        assert_eq!(s.stats().maintained_items, 5);
        assert_eq!(s.stats().hit_items, 4);
    }

    #[test]
    fn serve_misses_stale_or_uncovered_reads() {
        let (a, _) = stream_at(1, 10);
        let mut s = store();
        s.acquire(A, 4);
        s.maintain(A, &a);
        assert_eq!(serve(&mut s, A, 11, 4), None, "stale by one tick");
        assert_eq!(serve(&mut s, A, 10, 5), None, "window wider than the spec");
        assert_eq!(serve(&mut s, B, 10, 1), None, "unknown stream");
        assert_eq!(serve(&mut s, A, 10, 3), a.recent(3), "narrower is fine");
        assert_eq!(s.stats().hits, 1);
    }

    #[test]
    fn one_fetch_maintains_every_arrangement_of_the_stream() {
        let (a, _) = stream_at(1, 20);
        let mut s = store();
        s.acquire(A, 3);
        s.acquire(A, 6);
        assert_eq!(s.maintenance_need(A, 20), 6, "widest need wins");
        assert_eq!(s.maintain(A, &a), 6, "one physical fetch");
        assert_eq!(serve(&mut s, A, 20, 3), a.recent(3));
        assert_eq!(serve(&mut s, A, 20, 6), a.recent(6));
        assert_eq!(
            s.stats().maintained_items,
            6,
            "the narrow ring rode for free"
        );
    }

    #[test]
    fn gap_larger_than_window_rebuilds_the_ring() {
        let (mut a, mut rng) = stream_at(1, 10);
        let mut s = store();
        s.acquire(A, 4);
        s.maintain(A, &a);
        // 90 ticks later: only the newest 4 items matter.
        a.advance_by(90, &mut rng);
        assert_eq!(s.maintenance_need(A, 100), 4);
        s.maintain(A, &a);
        assert_eq!(serve(&mut s, A, 100, 4), a.recent(4));
    }

    #[test]
    fn refcounts_gate_eviction_through_the_grace_period() {
        let mut s = store();
        assert!(s.acquire(A, 4), "first acquire creates");
        assert!(!s.acquire(A, 4), "second acquire only counts");
        s.release(A, 4).unwrap();
        s.begin_tick();
        assert_eq!(s.stats().arrangements, 1, "one reader left");
        s.release(A, 4).unwrap();
        // grace = 2: survives two more ticks, gone on the third.
        s.begin_tick();
        s.begin_tick();
        assert_eq!(s.stats().arrangements, 1, "in grace");
        assert_eq!(s.begin_tick(), 1, "grace expired");
        assert_eq!(s.stats().arrangements, 0);
        assert_eq!(s.stats().evictions, 1);
        assert!(s.release(A, 4).is_err(), "evicted arrangements are gone");
    }

    #[test]
    fn grace_arrangements_go_stale_for_free_and_catch_up_on_reacquire() {
        let (mut a, mut rng) = stream_at(1, 10);
        let mut s = store();
        s.acquire(A, 4);
        s.maintain(A, &a);
        s.release(A, 4).unwrap();
        s.begin_tick();
        a.advance_by(1, &mut rng);
        assert_eq!(s.maintenance_need(A, 11), 0, "no readers, no maintenance");
        assert_eq!(s.maintain(A, &a), 0);
        s.acquire(A, 4);
        a.advance_by(1, &mut rng);
        assert_eq!(s.maintenance_need(A, 12), 2, "catches up the missed gap");
        s.maintain(A, &a);
        assert_eq!(serve(&mut s, A, 12, 4), a.recent(4));
    }

    #[test]
    fn release_balances_are_checked() {
        let mut s = store();
        assert!(s.release(A, 4).is_err(), "never acquired");
        s.acquire(A, 4);
        s.release(A, 4).unwrap();
        assert!(s.release(A, 4).is_err(), "double release");
    }

    #[test]
    fn restore_rebuilds_shells_and_refills_rings() {
        let mut s = store();
        s.restore_arrangement(A, 4, 2, 30, None).unwrap();
        s.restore_arrangement(B, 2, 0, 12, Some(5)).unwrap();
        s.restore_counters(7, 3, 12, 40, 1);
        assert_eq!(s.clock(), 7);
        assert_eq!(s.stats().hits, 3);
        assert!(
            s.restore_arrangement(A, 4, 1, 30, None).is_err(),
            "duplicate key"
        );
        assert!(
            s.restore_arrangement(A, 8, 1, 30, Some(2)).is_err(),
            "readers and grace are exclusive"
        );
        // Replay both streams to time 30. A's ring refills at 30. B's
        // lags 18 ticks behind (as behind an outage) and refills at 12,
        // although by time 30 the stream's 16-item buffer starts at 15.
        let (mut a, mut rng) = stream_at(1, 0);
        s.replay(A, &mut a, 30, &mut rng);
        let (mut b, mut rng_b) = stream_at(2, 0);
        s.replay(B, &mut b, 30, &mut rng_b);
        assert_eq!((a.now(), b.now()), (30, 30));
        assert_eq!(serve(&mut s, A, 30, 4), a.recent(4));
        let (b_at_12, _) = stream_at(2, 12);
        assert_eq!(
            s.serve_stale(B, 30, 2),
            Some((b_at_12.recent(2).unwrap(), 18))
        );
        assert_eq!(s.stats().maintained_items, 40, "replay is counter-free");
        a.advance_by(1, &mut rng);
        assert_eq!(s.maintain(A, &a), 1);
        assert_eq!(serve(&mut s, A, 31, 4), a.recent(4));
    }

    #[test]
    fn store_equality_and_clone_cover_live_state() {
        let (mut a, mut rng) = stream_at(1, 10);
        let mut s = store();
        s.acquire(A, 4);
        s.maintain(A, &a);
        let c = s.clone();
        assert_eq!(s, c);
        a.advance_by(1, &mut rng);
        s.maintain(A, &a);
        assert_ne!(s, c, "maintenance moves observable state");
    }
}
