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

pub use device::{DeviceMemory, MemoryPolicy};
pub use energy::EnergyModel;
pub use faults::{FaultPlan, FaultSpec, FaultySource};
pub use paotr_arrange::{ArrangeConfig, ArrangeStats, ArrangementStore};
pub use predicate::{Comparator, Predicate, WindowOp};
pub use query::{SimLeaf, SimQuery};
pub use runtime::{gaussian_streams, EnergyMeter, QueryOutcome, Scheduler, Verdict};
pub use simulate::{run_pipeline, PipelineConfig, PipelineReport};
pub use source::{SensorModel, SensorSource};
pub use stream::SimStream;
pub use trace::{LeafRecord, TraceLog};

/// Tests of the fault schedule ([`faults`]) and of the view the
/// scheduler reads through.
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
}
