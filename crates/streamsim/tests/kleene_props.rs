//! Property tests for three-valued (Kleene) evaluation under injected
//! stream outages and transient read failures.
//!
//! The oracle is the textbook characterisation of Kleene logic on a
//! monotone DNF: a query with unknown leaves is determined iff the
//! all-false and all-true completions of those leaves agree — in which
//! case the verdict must equal the fault-free truth value bit-for-bit.

use paotr_core::schedule::DnfSchedule;
use paotr_core::stream::{StreamCatalog, StreamId};
use proptest::prelude::*;
use rand::prelude::*;
use stream_sim::{
    gaussian_streams, Comparator, EnergyMeter, EnergyModel, FaultPlan, FaultSpec, FaultySource,
    MemoryPolicy, Predicate, Scheduler, SimLeaf, SimQuery, Verdict, WindowOp,
};

const N_STREAMS: usize = 5;
const MAX_WINDOW: u32 = 6;

fn build_query(terms: &[Vec<(usize, u32, f64)>]) -> SimQuery {
    let leaves = terms
        .iter()
        .map(|t| {
            t.iter()
                .map(|&(s, w, thr)| SimLeaf {
                    stream: StreamId(s),
                    predicate: Predicate::new(WindowOp::Avg, w, Comparator::Lt, thr),
                })
                .collect()
        })
        .collect();
    SimQuery::new(leaves).expect("generated terms are non-empty")
}

fn meter() -> EnergyMeter {
    let cat = StreamCatalog::from_costs(vec![1.0; N_STREAMS]).unwrap();
    EnergyMeter::new(EnergyModel::from_catalog(&cat))
}

/// DNF truth with dead-stream leaves substituted by `sub` and live
/// leaves evaluated on the real stream data.
fn completion(query: &SimQuery, streams: &[stream_sim::SimStream], dead: u32, sub: bool) -> bool {
    query.terms().iter().any(|leaves| {
        leaves.iter().all(|leaf| {
            if dead & (1 << leaf.stream.0) != 0 {
                sub
            } else {
                let data = streams[leaf.stream.0]
                    .recent(leaf.predicate.window as usize)
                    .expect("streams are warm");
                leaf.predicate.eval(&data)
            }
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// With zero unknown leaves (the empty fault plan), three-valued
    /// evaluation is bitwise-identical to the standard evaluator:
    /// same outcome struct, always determined, never degraded.
    #[test]
    fn no_faults_is_bitwise_the_standard_evaluator(
        seed in 0u64..10_000,
        terms in prop::collection::vec(
            prop::collection::vec((0usize..N_STREAMS, 1u32..=MAX_WINDOW, -2.0f64..2.0), 1..4),
            1..4,
        ),
    ) {
        let query = build_query(&terms);
        let schedule = DnfSchedule::from_order_unchecked(query.leaf_refs());
        let mut rng = StdRng::seed_from_u64(seed);
        let streams = gaussian_streams(&[MAX_WINDOW; N_STREAMS], &mut rng);

        let none = FaultPlan::none();
        let wrapped = FaultySource::wrap(&streams, &none);
        let mut plain = Scheduler::new(N_STREAMS, MemoryPolicy::ClearEachQuery);
        let mut pm = meter();
        let base = plain.run_query(&query, &schedule, &wrapped, &mut pm, None);

        let mut kleene = Scheduler::new(N_STREAMS, MemoryPolicy::ClearEachQuery);
        kleene.set_fault_policy(3, true);
        let mut km = meter();
        let out = kleene.run_query(&query, &schedule, &wrapped, &mut km, None);

        prop_assert_eq!(&out, &base, "a fault policy without faults changes nothing");
        prop_assert!(out.verdict.is_determined());
        prop_assert!(!out.degraded && out.retries == 0 && out.failed_reads == 0);
        prop_assert_eq!(km.total_cost(), pm.total_cost());
    }

    /// Against the completion oracle: the scheduler reports `unknown`
    /// exactly when the dead streams can affect the verdict, and every
    /// determined verdict equals the fault-free truth value.
    #[test]
    fn kleene_matches_the_completion_oracle(
        seed in 0u64..10_000,
        dead in 0u32..(1 << N_STREAMS),
        terms in prop::collection::vec(
            prop::collection::vec((0usize..N_STREAMS, 1u32..=MAX_WINDOW, -2.0f64..2.0), 1..4),
            1..4,
        ),
    ) {
        let query = build_query(&terms);
        let schedule = DnfSchedule::from_order_unchecked(query.leaf_refs());
        let mut rng = StdRng::seed_from_u64(seed);
        let streams = gaussian_streams(&[MAX_WINDOW; N_STREAMS], &mut rng);

        let dead_streams: Vec<usize> = (0..N_STREAMS).filter(|k| dead & (1 << k) != 0).collect();
        let plan = FaultPlan::with_forced_outages(FaultSpec::none(), dead_streams);
        let wrapped = FaultySource::wrap(&streams, &plan);
        let mut sched = Scheduler::new(N_STREAMS, MemoryPolicy::ClearEachQuery);
        let mut m = meter();
        let out = sched.run_query(&query, &schedule, &wrapped, &mut m, None);

        let all_false = completion(&query, &streams, dead, false);
        let all_true = completion(&query, &streams, dead, true);
        if all_false == all_true {
            // Dead streams cannot affect the verdict: `unknown` must
            // not appear, and the value is the fault-free one.
            let expect = if all_true { Verdict::True } else { Verdict::False };
            prop_assert_eq!(out.verdict, expect);
            prop_assert!(!out.degraded, "no stale source was available");
            prop_assert_eq!(out.verdict == Verdict::True, all_true);
        } else {
            prop_assert_eq!(out.verdict, Verdict::Unknown);
            prop_assert!(!(out.verdict == Verdict::True));
        }
    }

    /// Under transient failures alone (no outages, no stale rings), a
    /// read either succeeds within its attempts or leaves its leaf
    /// unknown: every determined verdict is the fault-free one and is
    /// never degraded, retries are billed exactly when they happen,
    /// and no leaf retries past its attempt budget.
    #[test]
    fn transient_faults_never_flip_a_determined_verdict(
        seed in 0u64..10_000,
        fault_seed in 0u64..1_000_000,
        transient_rate in 0.0f64..=0.9,
        max_attempts in 1u32..=4,
        terms in prop::collection::vec(
            prop::collection::vec((0usize..N_STREAMS, 1u32..=MAX_WINDOW, -2.0f64..2.0), 1..4),
            1..4,
        ),
    ) {
        let query = build_query(&terms);
        let schedule = DnfSchedule::from_order_unchecked(query.leaf_refs());
        let mut rng = StdRng::seed_from_u64(seed);
        let streams = gaussian_streams(&[MAX_WINDOW; N_STREAMS], &mut rng);

        let none = FaultPlan::none();
        let mut plain = Scheduler::new(N_STREAMS, MemoryPolicy::ClearEachQuery);
        let mut pm = meter();
        let base_src = FaultySource::wrap(&streams, &none);
        let base = plain.run_query(&query, &schedule, &base_src, &mut pm, None);

        let plan = FaultPlan::new(FaultSpec {
            seed: fault_seed,
            transient_rate,
            max_attempts,
            ..FaultSpec::none()
        });
        let mut sched = Scheduler::new(N_STREAMS, MemoryPolicy::ClearEachQuery);
        sched.set_fault_policy(max_attempts, true);
        let mut m = meter();
        let src = FaultySource::wrap(&streams, &plan);
        let out = sched.run_query(&query, &schedule, &src, &mut m, None);

        if out.verdict.is_determined() {
            prop_assert_eq!(out.verdict, base.verdict);
        }
        prop_assert!(!out.degraded, "no stale source was available");
        prop_assert_eq!(m.retry_cost_total() == 0.0, out.retries == 0);
        prop_assert!(out.retries as usize <= max_attempts as usize * out.evaluated);
    }
}
