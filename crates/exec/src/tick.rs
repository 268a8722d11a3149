//! The tick driver: the one implementation of a serving tick, shared by
//! the [`ServeLoop`](crate::ServeLoop) and the `paotr_serverd` daemon.
//!
//! [`run_tick`] admits due requests, maintains arrangements, evaluates
//! the admitted queries in joint-plan order, counts their Kleene
//! verdicts, folds each evaluation's trace into the query's drift
//! estimator, and settles the shed/defer and energy bookkeeping. Every
//! read goes through [`FaultySource`] decorators; under the empty fault
//! plan they are pass-throughs, so faulted and fault-free serving share
//! this one path, which is what makes determined verdicts bit-for-bit
//! comparable.

use crate::admission::{AdmissionCtx, AdmissionPolicy};
use crate::serve::{DriftConfig, DriftState};
use paotr_core::schedule::DnfSchedule;
use paotr_faults::{FaultPlan, FaultySource};
use stream_sim::{EnergyMeter, QueryOutcome, Scheduler, SimQuery, SimStream, TraceLog, Verdict};

/// The counters every serving layer keeps, updated by [`run_tick`].
/// The daemon's `Telemetry` and the serve loop's `ServeReport` both
/// report from this one struct.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TickCounters {
    /// Ticks served.
    pub ticks: u64,
    /// Query evaluations served.
    pub evals: u64,
    /// Served evaluations that came out TRUE.
    pub truths: u64,
    /// Requests dropped by admission.
    pub shed: u64,
    /// Defer events (one request can be deferred on several ticks).
    pub deferred: u64,
    /// Drift-triggered per-query re-plans.
    pub drift_replans: u64,
    /// Transient read failures retried (each priced as a pull).
    pub retries: u64,
    /// Leaves given up on (stream outage, or retries exhausted).
    pub failed_reads: u64,
    /// Evaluations that ended `unknown`.
    pub unknown_verdicts: u64,
    /// Evaluations resolved only through stale arrangement data.
    pub degraded_verdicts: u64,
    /// Leaves answered from stale arrangement rings.
    pub stale_serves: u64,
    /// Total energy spent.
    pub total_energy: f64,
    /// Largest energy spent in any single tick.
    pub max_tick_energy: f64,
    /// Energy spent in the most recent tick.
    pub last_tick_energy: f64,
    /// Energy spent maintaining arrangements (included in
    /// `total_energy`; this splits the bill).
    pub maintain_energy: f64,
    /// Energy burnt by failed stream contacts (included in
    /// `total_energy`; this splits the bill).
    pub retry_energy: f64,
}

impl TickCounters {
    /// Evaluations whose verdict live streams alone determined.
    pub fn determined(&self) -> u64 {
        self.evals - self.unknown_verdicts - self.degraded_verdicts
    }
}

/// One tick's headline numbers, for live progress callbacks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TickStats {
    /// The tick index.
    pub tick: u64,
    /// Queries due this tick.
    pub due: usize,
    /// Queries admitted and evaluated.
    pub admitted: usize,
    /// Queries shed.
    pub shed: usize,
    /// Queries deferred.
    pub deferred: usize,
    /// Energy spent this tick.
    pub energy: f64,
}

/// One query as the driver sees it: what to run, and the drift
/// estimator its trace records fold into.
pub struct TickQuery<'a> {
    /// The query's executable form.
    pub sim: &'a SimQuery,
    /// Its current leaf schedule.
    pub schedule: &'a DnfSchedule,
    /// Its per-leaf hit-rate estimator.
    pub drift: &'a mut DriftState,
}

/// One tick's inputs, and the state it advances.
pub struct Tick<'a> {
    /// The tick index.
    pub tick: u64,
    /// Per-query admission weights.
    pub weights: &'a [f64],
    /// Per-query maximum window on every stream.
    pub windows: &'a [Vec<u32>],
    /// Per-stream per-item costs.
    pub costs: &'a [f64],
    /// Whether admitted queries share one device memory.
    pub shared: bool,
    /// Query indices in joint-plan execution order.
    pub order: &'a [usize],
    /// Per query, the tick its pending request arrived (`None` = not
    /// due). Served and shed requests are cleared; deferred ones stay.
    pub pending: &'a mut [Option<u64>],
    /// Decides which due requests run.
    pub policy: &'a mut dyn AdmissionPolicy,
    /// The scheduler (and any arrangements it carries).
    pub scheduler: &'a mut Scheduler,
    /// The sensor streams at this tick.
    pub streams: &'a [SimStream],
    /// The fault schedule every read goes through.
    pub faults: &'a FaultPlan,
    /// Prices every pull; the tick's energy is its delta.
    pub meter: &'a mut EnergyMeter,
    /// Drift detection; `None` runs untraced.
    pub drift: Option<DriftConfig>,
    /// Scratch log for one evaluation's per-leaf records.
    pub trace: &'a mut TraceLog,
}

/// Serves one tick over `queries`: admission, maintenance, the ordered
/// evaluation loop, verdict counting, drift estimation, and the
/// shed/defer and energy bookkeeping. `on_eval` sees every evaluation
/// in execution order.
///
/// Returns the tick's headline numbers (its energy is the meter's
/// delta over the tick) and the queries whose leaves drifted, each
/// with its re-calibrated probabilities. The caller re-plans those
/// once the tick is over; every query runs at most once per tick, so
/// that is the same as re-planning right after its evaluation.
pub fn run_tick(
    t: Tick<'_>,
    queries: &mut [TickQuery<'_>],
    counters: &mut TickCounters,
    mut on_eval: impl FnMut(usize, &QueryOutcome),
) -> (TickStats, Vec<(usize, Vec<f64>)>) {
    // With up to `attempts` contacts per leaf, admission scales every
    // worst case by the same factor (1 under the empty plan).
    let spec = t.faults.spec();
    let attempts = spec.max_attempts.max(1);
    t.scheduler.set_fault_policy(attempts, spec.stale_serve);

    let due: Vec<usize> = (0..t.pending.len())
        .filter(|&q| t.pending[q].is_some())
        .collect();
    let pending_since: Vec<u64> = t.pending.iter().map(|p| p.unwrap_or(t.tick)).collect();
    let ctx = AdmissionCtx {
        weights: t.weights,
        windows: t.windows,
        costs: t.costs,
        pending_since: &pending_since,
        shared: t.shared,
        retry_factor: f64::from(attempts),
    };
    let admission = t.policy.admit(t.tick, &due, &ctx);

    let energy_before = t.meter.total_cost();
    let maintain_before = t.meter.maintain_cost_total();
    let retry_before = t.meter.retry_cost_total();
    let sources = FaultySource::wrap(t.streams, t.faults);
    t.scheduler.maintain_tick(&sources, t.meter);

    // Execute the admitted set in the joint plan's order so the planned
    // cross-query sharing materializes.
    let mut admitted = vec![false; queries.len().min(t.pending.len())];
    for &q in &admission.admitted {
        if let Some(a) = admitted.get_mut(q) {
            *a = true;
        }
    }
    let run: Vec<usize> = t
        .order
        .iter()
        .copied()
        .filter(|&q| admitted.get(q) == Some(&true))
        .collect();
    if t.shared {
        let sims: Vec<&SimQuery> = run.iter().map(|&q| queries[q].sim).collect();
        t.scheduler.begin_tick(&sims, &sources);
    }
    let mut drifted = Vec::new();
    for &q in &run {
        let query = &mut queries[q];
        if !t.shared {
            t.scheduler
                .begin_tick(std::slice::from_ref(query.sim), &sources);
        }
        let trace = t.drift.is_some().then_some(&mut *t.trace);
        let out = t
            .scheduler
            .run_query(query.sim, query.schedule, &sources, t.meter, trace);
        counters.evals += 1;
        counters.truths += u64::from(out.value);
        counters.retries += u64::from(out.retries);
        counters.failed_reads += u64::from(out.failed_reads);
        counters.stale_serves += u64::from(out.stale_leaves);
        match out.verdict {
            Verdict::Unknown => counters.unknown_verdicts += 1,
            _ if out.degraded => counters.degraded_verdicts += 1,
            _ => {}
        }
        t.pending[q] = None;
        on_eval(q, &out);

        // Only this evaluation's records are ever needed; clearing them
        // keeps the log bounded over arbitrarily long runs.
        if let Some(cfg) = &t.drift {
            if let Some(probs) = query.drift.observe_eval(t.trace.records(), cfg) {
                counters.drift_replans += 1;
                drifted.push((q, probs));
            }
            t.trace.clear();
        }
    }
    for &q in &admission.shed {
        if let Some(p) = t.pending.get_mut(q) {
            *p = None;
        }
    }
    counters.shed += admission.shed.len() as u64;
    counters.deferred += admission.deferred.len() as u64;

    let energy = t.meter.total_cost() - energy_before;
    counters.ticks += 1;
    counters.last_tick_energy = energy;
    counters.total_energy += energy;
    counters.max_tick_energy = counters.max_tick_energy.max(energy);
    counters.maintain_energy += t.meter.maintain_cost_total() - maintain_before;
    counters.retry_energy += t.meter.retry_cost_total() - retry_before;
    let stats = TickStats {
        tick: t.tick,
        due: due.len(),
        admitted: admission.admitted.len(),
        shed: admission.shed.len(),
        deferred: admission.deferred.len(),
        energy,
    };
    (stats, drifted)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admission::AcceptAll;
    use paotr_core::stream::{StreamCatalog, StreamId};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use stream_sim::{
        Comparator, EnergyModel, MemoryPolicy, Predicate, SensorModel, SensorSource, SimLeaf,
        WindowOp,
    };

    fn constant_stream(v: f64, ticks: usize) -> SimStream {
        let mut s = SimStream::new(SensorSource::new(SensorModel::Constant(v)), 64);
        let mut rng = StdRng::seed_from_u64(0);
        s.advance_by(ticks, &mut rng);
        s
    }

    fn cmp_leaf(stream: usize, window: u32, cmp: Comparator, thr: f64) -> SimLeaf {
        SimLeaf {
            stream: StreamId(stream),
            predicate: Predicate::new(WindowOp::Avg, window, cmp, thr),
        }
    }

    fn leaf(stream: usize, window: u32, thr: f64) -> SimLeaf {
        cmp_leaf(stream, window, Comparator::Lt, thr)
    }

    fn meter(costs: &[f64]) -> EnergyMeter {
        let cat = StreamCatalog::from_costs(costs.iter().copied()).unwrap();
        EnergyMeter::new(EnergyModel::from_catalog(&cat))
    }

    fn schedule(q: &SimQuery) -> DnfSchedule {
        DnfSchedule::from_order_unchecked(q.leaf_refs())
    }

    /// Serves one tick in which every query is due and admitted, in
    /// the order given; returns the outcomes in execution order.
    fn tick(
        scheduler: &mut Scheduler,
        meter: &mut EnergyMeter,
        pairs: &[(&SimQuery, &DnfSchedule)],
        streams: &[SimStream],
        shared: bool,
    ) -> (Vec<QueryOutcome>, TickCounters) {
        let n = pairs.len();
        let n_streams = streams.len();
        let mut drift: Vec<DriftState> = pairs
            .iter()
            .map(|(q, _)| DriftState::new(&q.skeleton(&vec![0.5; q.num_leaves()])))
            .collect();
        let mut queries: Vec<TickQuery> = pairs
            .iter()
            .zip(&mut drift)
            .map(|(&(sim, schedule), drift)| TickQuery {
                sim,
                schedule,
                drift,
            })
            .collect();
        let windows: Vec<Vec<u32>> = pairs
            .iter()
            .map(|(q, _)| q.max_windows(n_streams))
            .collect();
        let order: Vec<usize> = (0..n).collect();
        let mut counters = TickCounters::default();
        let mut outcomes = Vec::new();
        run_tick(
            Tick {
                tick: 0,
                weights: &vec![1.0; n],
                windows: &windows,
                costs: &vec![1.0; n_streams],
                shared,
                order: &order,
                pending: &mut vec![Some(0); n],
                policy: &mut AcceptAll,
                scheduler,
                streams,
                faults: &FaultPlan::none(),
                meter,
                drift: None,
                trace: &mut TraceLog::default(),
            },
            &mut queries,
            &mut counters,
            |_, out| outcomes.push(out.clone()),
        );
        (outcomes, counters)
    }

    /// One query on its own: the memory policy, then the loop.
    fn evaluate(
        scheduler: &mut Scheduler,
        meter: &mut EnergyMeter,
        q: &SimQuery,
        s: &DnfSchedule,
        streams: &[SimStream],
    ) -> QueryOutcome {
        scheduler.begin_tick(std::slice::from_ref(&q), streams);
        scheduler.run_query(q, s, streams, meter, None)
    }

    fn clearing(n_streams: usize) -> Scheduler {
        Scheduler::new(n_streams, MemoryPolicy::ClearEachQuery)
    }

    #[test]
    fn shared_tick_makes_items_free_for_later_queries() {
        // Two queries reading the same stream: q0 pulls 8 items, q1
        // needs 5 of them.
        let q0 = SimQuery::new(vec![vec![leaf(0, 8, 70.0)]]).unwrap();
        let q1 = SimQuery::new(vec![vec![leaf(0, 5, 70.0)]]).unwrap();
        let streams = vec![constant_stream(50.0, 20)];
        let (s0, s1) = (schedule(&q0), schedule(&q1));
        let workload = [(&q0, &s0), (&q1, &s1)];

        let mut iso = meter(&[1.0]);
        let (outs, _) = tick(&mut clearing(1), &mut iso, &workload, &streams, false);
        assert_eq!(outs[0].cost, 8.0);
        assert_eq!(outs[1].cost, 5.0, "isolated queries repay the pull");
        assert_eq!(iso.total_cost(), 13.0);

        let mut shared = meter(&[1.0]);
        let (outs, _) = tick(&mut clearing(1), &mut shared, &workload, &streams, true);
        assert_eq!(outs[0].cost, 8.0);
        assert_eq!(outs[1].cost, 0.0, "q0's items are free for q1");
        assert_eq!(shared.total_cost(), 8.0);
        assert_eq!(outs[1].items_pulled, vec![0]);
    }

    #[test]
    fn shared_tick_order_changes_who_pays() {
        let big = SimQuery::new(vec![vec![leaf(0, 8, 70.0)]]).unwrap();
        let small = SimQuery::new(vec![vec![leaf(0, 5, 70.0)]]).unwrap();
        let streams = vec![constant_stream(50.0, 20)];
        let (sb, ss) = (schedule(&big), schedule(&small));

        // small first: pays 5, then big tops up 3. Total unchanged.
        let mut m = meter(&[1.0]);
        let pairs = [(&small, &ss), (&big, &sb)];
        let (outs, _) = tick(&mut clearing(1), &mut m, &pairs, &streams, true);
        assert_eq!(outs[0].cost, 5.0);
        assert_eq!(outs[1].cost, 3.0);
        assert_eq!(m.total_cost(), 8.0);
    }

    #[test]
    fn workload_matches_per_query_evaluate_when_isolated() {
        let q0 = SimQuery::new(vec![vec![
            leaf(0, 4, 70.0),
            cmp_leaf(1, 2, Comparator::Gt, 100.0),
        ]])
        .unwrap();
        let q1 = SimQuery::new(vec![vec![leaf(1, 3, 70.0)]]).unwrap();
        let streams = vec![constant_stream(50.0, 20), constant_stream(50.0, 20)];
        let (s0, s1) = (schedule(&q0), schedule(&q1));
        let pairs = [(&q0, &s0), (&q1, &s1)];

        let mut a = meter(&[1.0, 2.0]);
        let (outs, counters) = tick(&mut clearing(2), &mut a, &pairs, &streams, false);
        let (mut sched, mut b) = (clearing(2), meter(&[1.0, 2.0]));
        let o0 = evaluate(&mut sched, &mut b, &q0, &s0, &streams);
        let o1 = evaluate(&mut sched, &mut b, &q1, &s1, &streams);
        assert_eq!(outs, vec![o0, o1]);
        assert_eq!(a.total_cost(), b.total_cost());
        assert_eq!(counters.evals, 2);

        // ...including under Retain, whose cross-evaluation retention
        // must not be wiped by the non-shared path.
        let mut sched = Scheduler::new(2, MemoryPolicy::Retain);
        let mut a = meter(&[1.0, 2.0]);
        let (outs, _) = tick(&mut sched, &mut a, &pairs, &streams, false);
        let mut sched = Scheduler::new(2, MemoryPolicy::Retain);
        let mut b = meter(&[1.0, 2.0]);
        let o0 = evaluate(&mut sched, &mut b, &q0, &s0, &streams);
        let o1 = evaluate(&mut sched, &mut b, &q1, &s1, &streams);
        assert_eq!(outs, vec![o0, o1]);
        assert!(
            outs[1].items_pulled[1] < 3,
            "retained items from q0 serve part of q1's window"
        );
    }

    #[test]
    fn run_tick_shared_coalesces_pulls_across_queries() {
        let q0 = SimQuery::new(vec![vec![leaf(0, 8, 70.0)]]).unwrap();
        let q1 = SimQuery::new(vec![vec![leaf(0, 5, 70.0)]]).unwrap();
        let streams = vec![constant_stream(50.0, 20)];
        let (s0, s1) = (schedule(&q0), schedule(&q1));
        let pairs = [(&q0, &s0), (&q1, &s1)];

        let mut m = meter(&[1.0]);
        let (outs, counters) = tick(&mut clearing(1), &mut m, &pairs, &streams, true);
        assert_eq!(outs[0].cost, 8.0);
        assert_eq!(outs[1].cost, 0.0, "q0's items are free for q1");
        assert_eq!(m.total_cost(), 8.0);
        assert_eq!(counters.evals, 2);

        let mut m = meter(&[1.0]);
        let (outs, _) = tick(&mut clearing(1), &mut m, &pairs, &streams, false);
        assert_eq!(outs[1].cost, 5.0, "isolated queries repay the pull");
        assert_eq!(m.total_cost(), 13.0);
    }
}
