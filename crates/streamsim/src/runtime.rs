//! The unified tick-driven execution runtime.
//!
//! Both execution paths of the workspace — the single-query
//! calibrate–schedule–measure pipeline in [`crate::simulate`], and the
//! multi-query tick driver `paotr_exec::run_tick` behind the serve loop
//! and the daemon — run on the two pieces of this module:
//!
//! * [`Scheduler`] — the tick-driven pull scheduler: executes any set
//!   of `(SimQuery, DnfSchedule)` pairs against **one shared
//!   [`DeviceMemory`]**, coalescing per-stream pulls (a later leaf or
//!   query only pays for items missing from memory) and applying the
//!   [`MemoryPolicy`] per tick or per query. It reads the concrete
//!   [`SimStream`]s through a [`FaultySource`] view, whose
//!   [`FaultPlan`](crate::FaultPlan) prices each sensor contact (is
//!   the stream out; does this attempt fail);
//! * [`EnergyMeter`] — the single energy/trace accounting
//!   implementation: per-leaf pull pricing through an [`EnergyModel`],
//!   lifetime totals, and per-stream item counters.
//!
//! The split matters because the pull-coalescing loop is the semantics
//! the paper's cost model prices; having exactly one implementation
//! (instead of one per execution path) is what makes the
//! serving-layer features — admission control, drift re-planning —
//! safe to build: they observe the same energies the planners predict.

use crate::arrange::ArrangementStore;
use crate::device::{DeviceMemory, MemoryPolicy};
use crate::energy::EnergyModel;
use crate::faults::FaultySource;
use crate::query::SimQuery;
use crate::source::{SensorModel, SensorSource};
use crate::stream::SimStream;
use crate::trace::{LeafRecord, TraceLog};
use paotr_core::schedule::DnfSchedule;
use paotr_core::stream::StreamId;
use rand::Rng;
use std::borrow::Borrow;

/// Three-valued (Kleene) verdict of a query evaluation. Under fault
/// injection some leaves may be unreadable; a query still resolves to
/// [`Verdict::True`]/[`Verdict::False`] whenever the live leaves alone
/// determine the monotone DNF — otherwise it reports
/// [`Verdict::Unknown`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Determined true.
    True,
    /// Determined false.
    False,
    /// Undetermined: some unreadable leaf could still flip the result.
    Unknown,
}

impl Verdict {
    /// True iff the verdict is not [`Verdict::Unknown`].
    pub fn is_determined(self) -> bool {
        !matches!(self, Verdict::Unknown)
    }
}

/// Result of one query evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryOutcome {
    /// Three-valued verdict. Always determined on fault-free runs.
    pub verdict: Verdict,
    /// The verdict was only reached by substituting stale arrangement
    /// data for unreadable leaves. Degraded verdicts carry no
    /// bit-for-bit guarantee against the fault-free run.
    pub degraded: bool,
    /// Worst staleness (ticks behind `now`) of any stale window used.
    pub staleness: u64,
    /// Leaves answered from a stale arrangement ring.
    pub stale_leaves: u32,
    /// Transient read failures retried during this evaluation.
    pub retries: u32,
    /// Leaves given up on (outage, retries exhausted, or a stream too
    /// cold for the window).
    pub failed_reads: u32,
    /// Energy spent on this evaluation (including priced retries).
    pub cost: f64,
    /// Leaves actually evaluated.
    pub evaluated: usize,
    /// Items pulled per stream during this evaluation.
    pub items_pulled: Vec<u32>,
}

/// The single energy/trace accounting implementation: prices every pull
/// through one [`EnergyModel`] and accumulates lifetime totals.
#[derive(Debug, Clone)]
pub struct EnergyMeter {
    model: EnergyModel,
    total: f64,
    maintain_total: f64,
    retry_total: f64,
    items: Vec<u64>,
    maintain_items: Vec<u64>,
}

impl EnergyMeter {
    /// A meter over the given pricing model.
    pub fn new(model: EnergyModel) -> EnergyMeter {
        let items = vec![0; model.len()];
        let maintain_items = vec![0; model.len()];
        EnergyMeter {
            model,
            total: 0.0,
            maintain_total: 0.0,
            retry_total: 0.0,
            items,
            maintain_items,
        }
    }

    /// Total energy spent since construction: query pulls plus
    /// arrangement maintenance plus failed-read retries.
    pub fn total_cost(&self) -> f64 {
        self.total + self.maintain_total + self.retry_total
    }

    /// Energy spent on query pulls alone.
    pub fn pull_cost_total(&self) -> f64 {
        self.total
    }

    /// Energy spent on arrangement maintenance alone.
    pub fn maintain_cost_total(&self) -> f64 {
        self.maintain_total
    }

    /// Energy spent on failed sensor contacts (transient-read retries).
    pub fn retry_cost_total(&self) -> f64 {
        self.retry_total
    }

    /// Lifetime items pulled per stream by query evaluation.
    pub fn items_pulled(&self) -> &[u64] {
        &self.items
    }

    /// Lifetime items fetched per stream by arrangement maintenance.
    pub fn items_maintained(&self) -> &[u64] {
        &self.maintain_items
    }

    /// Prices a pull of `items` new items from stream `k`, adds it to
    /// the totals and returns the energy charged.
    pub(crate) fn charge(&mut self, k: StreamId, items: u32) -> f64 {
        let cost = self.model.pull_cost(k, items);
        self.total += cost;
        self.items[k.0] += u64::from(items);
        cost
    }

    /// Prices an arrangement-maintenance fetch of `items` from stream
    /// `k` — same per-item rates as a pull, but accounted separately so
    /// serving reports can split "paid to maintain" from "paid to pull".
    pub(crate) fn charge_maintenance(&mut self, k: StreamId, items: u32) -> f64 {
        let cost = self.model.pull_cost(k, items);
        self.maintain_total += cost;
        self.maintain_items[k.0] += u64::from(items);
        cost
    }

    /// Prices one *failed* contact with stream `k` that attempted to
    /// pull `items`: a retry is a pull and burns the same energy, but
    /// the items never arrive, so the per-stream pulled counters stay
    /// untouched and the charge lands in a separate retry account.
    pub(crate) fn charge_retry(&mut self, k: StreamId, items: u32) -> f64 {
        let cost = self.model.pull_cost(k, items);
        self.retry_total += cost;
        cost
    }
}

/// The tick-driven pull scheduler: one shared [`DeviceMemory`], a
/// [`MemoryPolicy`], and the short-circuiting schedule interpreter.
/// A scheduler may additionally carry an [`ArrangementStore`]: leaves
/// whose pull a current arrangement covers are served from the
/// maintained ring instead of charging the meter.
#[derive(Debug, Clone)]
pub struct Scheduler {
    memory: DeviceMemory,
    policy: MemoryPolicy,
    arrangements: Option<ArrangementStore>,
    max_attempts: u32,
    stale_fallback: bool,
}

impl Scheduler {
    /// A scheduler over `n_streams` streams.
    pub fn new(n_streams: usize, policy: MemoryPolicy) -> Scheduler {
        Scheduler {
            memory: DeviceMemory::new(n_streams),
            policy,
            arrangements: None,
            max_attempts: 1,
            stale_fallback: false,
        }
    }

    /// Configures fault handling: up to `max_attempts` sensor contacts
    /// per leaf (each failed attempt priced as a retry through the
    /// meter), and, when `stale_fallback` is set and a store is
    /// attached, unreadable leaves may be answered from a stale
    /// arrangement ring — producing *degraded* verdicts flagged on the
    /// outcome. Defaults are one attempt and no stale serving, which is
    /// exactly the fault-free behaviour.
    ///
    /// # Panics
    /// Panics if `max_attempts` is zero.
    pub fn set_fault_policy(&mut self, max_attempts: u32, stale_fallback: bool) {
        assert!(max_attempts >= 1, "at least one attempt is required");
        self.max_attempts = max_attempts;
        self.stale_fallback = stale_fallback;
    }

    /// The attached arrangement store, if any.
    pub fn arrangements(&self) -> Option<&ArrangementStore> {
        self.arrangements.as_ref()
    }

    /// Lends a store to this scheduler, which then serves pulls from
    /// it where possible. Owners whose store outlives the scheduler (the
    /// serving daemon builds a fresh scheduler per batch) attach before
    /// a batch and [`Scheduler::take_arrangements`] after.
    pub fn attach_arrangements(&mut self, store: ArrangementStore) {
        self.arrangements = Some(store);
    }

    /// Detaches and returns the store.
    pub fn take_arrangements(&mut self) -> Option<ArrangementStore> {
        self.arrangements.take()
    }

    /// Runs one maintenance round on the attached store: advances the
    /// arrangement clock (evicting arrangements past their zero-reader
    /// grace) and fetches, per stream, the widest catch-up any live
    /// arrangement needs — charged to the meter's maintenance
    /// accounts. Call once per tick, before executing queries; a no-op
    /// without a store.
    pub fn maintain_tick(&mut self, src: &FaultySource<'_>, meter: &mut EnergyMeter) {
        let Some(store) = self.arrangements.as_mut() else {
            return;
        };
        store.begin_tick();
        for (i, stream) in src.streams.iter().enumerate() {
            // An out stream cannot be contacted: its arrangements fall
            // behind and catch up (capped at the ring width) once the
            // outage lifts. Their stale contents stay servable through
            // `serve_stale` in the meantime.
            let (k, now) = (StreamId(i), stream.now());
            if src.plan.is_out(k, now) {
                continue;
            }
            let fetched = store.maintain(k, stream);
            if fetched > 0 {
                meter.charge_maintenance(k, fetched);
            }
        }
    }

    /// Applies the memory policy for the evaluation of `queries` at the
    /// current tick: clear everything, or ([`MemoryPolicy::Retain`])
    /// prune items older than the set's per-stream relevance horizon.
    pub fn begin_tick<Q: Borrow<SimQuery>>(&mut self, queries: &[Q], src: &FaultySource<'_>) {
        let streams = src.streams;
        if self.policy != MemoryPolicy::Retain {
            self.memory.clear();
            return;
        }
        let mut horizons = vec![0u32; streams.len()];
        for q in queries {
            for (k, &w) in q.borrow().max_windows(streams.len()).iter().enumerate() {
                horizons[k] = horizons[k].max(w);
            }
        }
        for (k, &w) in horizons.iter().enumerate() {
            if w > 0 {
                let now = streams[k].now();
                let horizon = now.saturating_sub(u64::from(w) - 1);
                self.memory.prune(StreamId(k), horizon);
            }
        }
    }

    /// The evaluation loop proper: follows the schedule with AND/OR
    /// short-circuiting, paying (through `meter`) only for items
    /// missing from memory, optionally appending per-leaf records to a
    /// trace. Call [`Scheduler::begin_tick`] first to apply the memory
    /// policy.
    ///
    /// Under fault injection (streams the view's
    /// [`FaultPlan`](crate::FaultPlan) holds out, or contacts it fails)
    /// evaluation is three-valued: an unreadable leaf becomes `unknown`
    /// instead of aborting. Because the DNF is monotone, the query still
    /// resolves whenever the *live* leaves determine it — a term
    /// completing all-true forces [`Verdict::True`], every term
    /// holding a live false leaf forces [`Verdict::False`] — and those
    /// determined verdicts are bit-for-bit what a fault-free run
    /// produces, since live reads see identical data. Early exits only
    /// ever fire on live determinations. Anything else reports
    /// [`Verdict::Unknown`] unless the stale fallback
    /// ([`Scheduler::set_fault_policy`]) resolves it from arrangement
    /// rings, in which case the outcome is marked `degraded` and
    /// carries its worst-case staleness.
    ///
    /// A stream too cold to provide a leaf's window makes that leaf
    /// unreadable, exactly like an outage: `unknown`, counted in
    /// `failed_reads`, nothing billed.
    ///
    /// # Panics
    /// Panics if the schedule shape does not match the query.
    pub fn run_query(
        &mut self,
        query: &SimQuery,
        schedule: &DnfSchedule,
        src: &FaultySource<'_>,
        meter: &mut EnergyMeter,
        mut trace: Option<&mut TraceLog>,
    ) -> QueryOutcome {
        assert_eq!(
            schedule.len(),
            query.num_leaves(),
            "schedule does not cover the query's leaves"
        );
        let n_terms = query.terms().len();
        // Two truth lattices per term. The *live* lattice only counts
        // leaves evaluated on real data and is what determines
        // fault-free-equivalent verdicts; the *degraded* lattice
        // additionally folds in stale-ring answers and is consulted
        // only when the live lattice ends undetermined.
        let mut term_failed = vec![false; n_terms];
        let mut remaining: Vec<usize> = query.terms().iter().map(Vec::len).collect();
        let mut live_unknown = vec![0usize; n_terms];
        let mut deg_failed = vec![false; n_terms];
        let mut deg_unknown = vec![0usize; n_terms];
        let mut alive = n_terms;
        let mut items_pulled = vec![0u32; src.streams.len()];
        let mut cost = 0.0;
        let mut evaluated = 0;
        let mut retries = 0u32;
        let mut failed_reads = 0u32;
        let mut stale_leaves = 0u32;
        let mut staleness = 0u64;
        let mut verdict = Verdict::Unknown;

        for &r in schedule.order() {
            if term_failed[r.term] || remaining[r.term] == 0 {
                continue;
            }
            let leaf = query.leaf(r);
            let k = leaf.stream;
            let stream = &src.streams[k.0];
            let now = stream.now();
            let window = leaf.predicate.window;
            // Price the read first: items on the device or covered by a
            // current ring are free; the rest need a sensor contact,
            // which an outage refuses and each failed attempt bills as
            // a retry.
            let mut missing = self.memory.missing(k, now, window);
            let store = self.arrangements.as_mut();
            if missing > 0 && store.is_some_and(|s| s.covers(k, now, window)) {
                missing = 0;
            }
            let mut live = missing == 0 || !src.plan.is_out(k, now);
            let mut failed = 0u32;
            while live && missing > 0 && src.plan.read_fails(k, now, failed) {
                failed += 1;
                live = failed < self.max_attempts;
            }
            // Then read the live window once. A stream too cold to hold
            // it leaves the leaf unreadable with nothing billed.
            let data = live.then(|| stream.recent(window as usize)).flatten();
            if live && data.is_none() {
                failed = 0;
            }
            let mut pull_cost = 0.0;
            for _ in 0..failed {
                pull_cost += meter.charge_retry(k, missing);
            }
            retries += failed;
            if data.is_some() && missing > 0 {
                pull_cost += meter.charge(k, missing);
            }
            cost += pull_cost;
            evaluated += 1;
            remaining[r.term] -= 1;
            if let Some(data) = data {
                items_pulled[k.0] += missing;
                self.memory.insert_window(k, now, window);
                let truth = leaf.predicate.eval(&data);
                if let Some(t) = trace.as_deref_mut() {
                    t.push(LeafRecord {
                        tick: now,
                        leaf: r,
                        value: truth,
                        items_paid: missing,
                        cost: pull_cost,
                    });
                }
                if truth {
                    if remaining[r.term] == 0 && live_unknown[r.term] == 0 {
                        verdict = Verdict::True;
                        break;
                    }
                } else {
                    term_failed[r.term] = true;
                    deg_failed[r.term] = true;
                    alive -= 1;
                    if alive == 0 {
                        verdict = Verdict::False;
                        break;
                    }
                }
            } else {
                // Unreadable leaf: unknown in the live lattice. No
                // memory insert (nothing arrived), no trace record
                // (drift estimation must only see live observations).
                failed_reads += 1;
                live_unknown[r.term] += 1;
                let stale = self
                    .arrangements
                    .as_ref()
                    .filter(|_| self.stale_fallback)
                    .and_then(|store| store.serve_stale(k, now, window));
                match stale {
                    Some((data, age)) => {
                        stale_leaves += 1;
                        staleness = staleness.max(age);
                        if !leaf.predicate.eval(&data) {
                            deg_failed[r.term] = true;
                        }
                    }
                    None => deg_unknown[r.term] += 1,
                }
            }
        }

        let mut degraded = false;
        if verdict == Verdict::Unknown {
            // The live lattice ended undetermined (a live determination
            // would have broken out above). Try the degraded lattice:
            // same monotone-DNF rules with stale answers filled in.
            let open = |t: usize| !term_failed[t] && !deg_failed[t];
            if (0..n_terms).any(|t| open(t) && deg_unknown[t] == 0) {
                verdict = Verdict::True;
            } else if !(0..n_terms).any(open) {
                verdict = Verdict::False;
            }
            degraded = verdict.is_determined();
        }

        QueryOutcome {
            verdict,
            degraded,
            staleness,
            stale_leaves,
            retries,
            failed_reads,
            cost,
            evaluated,
            items_pulled,
        }
    }
}

/// Catalog-backed synthetic sources: one standard-normal Gaussian
/// sensor per stream (`horizons[k]` is stream `k`'s relevance horizon —
/// the widest window any query uses on it), warmed far enough that
/// every window is servable from tick one. Consumes `rng` exactly in
/// stream order, so data is deterministic under one seed.
pub fn gaussian_streams<R: Rng + ?Sized>(horizons: &[u32], rng: &mut R) -> Vec<SimStream> {
    let mut streams: Vec<SimStream> = horizons
        .iter()
        .map(|&w| {
            SimStream::new(
                SensorSource::new(SensorModel::Gaussian {
                    mean: 0.0,
                    std_dev: 1.0,
                }),
                (w.max(1) as usize) * 2,
            )
        })
        .collect();
    let warm = horizons.iter().copied().max().unwrap_or(1).max(1) as usize;
    for s in &mut streams {
        s.advance_by(warm, rng);
    }
    streams
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{FaultPlan, FaultSpec};
    use crate::predicate::{Comparator, Predicate, WindowOp};
    use crate::query::SimLeaf;
    use paotr_core::stream::StreamCatalog;
    use rand::prelude::*;

    fn constant_stream(v: f64, ticks: usize) -> SimStream {
        let mut s = SimStream::new(SensorSource::new(SensorModel::Constant(v)), 64);
        let mut rng = StdRng::seed_from_u64(0);
        s.advance_by(ticks, &mut rng);
        s
    }

    fn leaf(stream: usize, window: u32, thr: f64) -> SimLeaf {
        cmp_leaf(stream, window, Comparator::Lt, thr)
    }

    fn meter(costs: &[f64]) -> EnergyMeter {
        let cat = StreamCatalog::from_costs(costs.iter().copied()).unwrap();
        EnergyMeter::new(EnergyModel::from_catalog(&cat))
    }

    fn cmp_leaf(stream: usize, window: u32, cmp: Comparator, thr: f64) -> SimLeaf {
        SimLeaf {
            stream: StreamId(stream),
            predicate: Predicate::new(WindowOp::Avg, window, cmp, thr),
        }
    }

    /// A scheduler with no retention and a meter over `costs`.
    fn device(costs: &[f64]) -> (Scheduler, EnergyMeter) {
        let sched = Scheduler::new(costs.len(), MemoryPolicy::ClearEachQuery);
        (sched, meter(costs))
    }

    /// One query at the current tick: the memory policy, then the loop.
    fn evaluate(
        (sched, m): &mut (Scheduler, EnergyMeter),
        q: &SimQuery,
        s: &DnfSchedule,
        streams: &[SimStream],
        trace: Option<&mut TraceLog>,
    ) -> QueryOutcome {
        let none = FaultPlan::none();
        let src = FaultySource::wrap(streams, &none);
        sched.begin_tick(std::slice::from_ref(&q), &src);
        sched.run_query(q, s, &src, m, trace)
    }

    /// A plan under which exactly the first `n` contacts with stream 0
    /// at stream time `now` fail: the first seed, in order, whose
    /// transient draws say so.
    fn failing_first(n: u32, now: u64) -> FaultPlan {
        (0..)
            .map(|seed| {
                FaultPlan::new(FaultSpec {
                    seed,
                    transient_rate: 0.5,
                    ..FaultSpec::none()
                })
            })
            .find(|p| (0..=n).all(|a| p.read_fails(StreamId(0), now, a) == (a < n)))
            .expect("some seed fails exactly the first n contacts")
    }

    #[test]
    fn true_query_shortcircuits_remaining_terms() {
        // stream 0 constant 50: AVG < 70 true. Term 0 true -> stop.
        let q = SimQuery::new(vec![
            vec![cmp_leaf(0, 5, Comparator::Lt, 70.0)],
            vec![cmp_leaf(1, 4, Comparator::Gt, 100.0)],
        ])
        .unwrap();
        let streams = vec![constant_stream(50.0, 20), constant_stream(50.0, 20)];
        let mut d = device(&[1.0, 1.0]);
        let s = DnfSchedule::from_order_unchecked(q.leaf_refs());
        let out = evaluate(&mut d, &q, &s, &streams, None);
        assert_eq!(out.verdict, Verdict::True);
        assert_eq!(out.evaluated, 1);
        assert_eq!(out.cost, 5.0);
        assert_eq!(out.items_pulled, vec![5, 0]);
    }

    #[test]
    fn shared_windows_pay_only_missing_items() {
        // Both leaves on stream 0, same term: windows 5 then 8 -> 5 + 3.
        let q = SimQuery::new(vec![vec![leaf(0, 5, 70.0), leaf(0, 8, 70.0)]]).unwrap();
        let streams = vec![constant_stream(50.0, 20)];
        let mut d = device(&[2.0]);
        let s = DnfSchedule::from_order_unchecked(q.leaf_refs());
        let out = evaluate(&mut d, &q, &s, &streams, None);
        assert_eq!(out.verdict, Verdict::True);
        assert_eq!(out.items_pulled, vec![8]);
        assert_eq!(out.cost, 16.0);
    }

    #[test]
    fn false_leaf_kills_term_and_skips_its_leaves() {
        let q = SimQuery::new(vec![
            vec![cmp_leaf(0, 2, Comparator::Gt, 100.0), leaf(1, 6, 70.0)],
            vec![leaf(1, 3, 70.0)],
        ])
        .unwrap();
        let streams = vec![constant_stream(50.0, 20), constant_stream(50.0, 20)];
        let mut d = device(&[1.0, 1.0]);
        let s = DnfSchedule::from_order_unchecked(q.leaf_refs());
        let out = evaluate(&mut d, &q, &s, &streams, None);
        // leaf (0,0): avg 50 > 100 false -> term 0 dead, (0,1) skipped.
        // leaf (1,0): true -> query true. Cost = 2 + 3.
        assert_eq!(out.verdict, Verdict::True);
        assert_eq!(out.evaluated, 2);
        assert_eq!(out.cost, 5.0);
    }

    #[test]
    fn retain_policy_reuses_overlapping_windows_across_ticks() {
        let q = SimQuery::new(vec![vec![leaf(0, 5, 70.0)]]).unwrap();
        let mut d = (Scheduler::new(1, MemoryPolicy::Retain), meter(&[1.0]));
        let mut stream = constant_stream(50.0, 10);
        let s = DnfSchedule::from_order_unchecked(q.leaf_refs());
        let out1 = evaluate(&mut d, &q, &s, std::slice::from_ref(&stream), None);
        assert_eq!(out1.cost, 5.0);
        // advance one tick: only 1 new item needed
        let mut rng = StdRng::seed_from_u64(1);
        stream.advance(&mut rng);
        let out2 = evaluate(&mut d, &q, &s, std::slice::from_ref(&stream), None);
        assert_eq!(out2.cost, 1.0);
        assert_eq!(d.1.total_cost(), 6.0);
    }

    #[test]
    fn clear_policy_matches_abstract_model_every_time() {
        let q = SimQuery::new(vec![vec![leaf(0, 5, 70.0)]]).unwrap();
        let mut d = device(&[1.0]);
        let mut stream = constant_stream(50.0, 10);
        let s = DnfSchedule::from_order_unchecked(q.leaf_refs());
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..3 {
            let out = evaluate(&mut d, &q, &s, std::slice::from_ref(&stream), None);
            assert_eq!(out.cost, 5.0);
            stream.advance(&mut rng);
        }
    }

    #[test]
    fn trace_records_every_evaluated_leaf() {
        let q = SimQuery::new(vec![vec![
            leaf(0, 2, 70.0),
            cmp_leaf(1, 3, Comparator::Gt, 100.0),
        ]])
        .unwrap();
        let streams = vec![constant_stream(50.0, 10), constant_stream(50.0, 10)];
        let mut d = device(&[1.0, 1.0]);
        let s = DnfSchedule::from_order_unchecked(q.leaf_refs());
        let mut log = TraceLog::default();
        let out = evaluate(&mut d, &q, &s, &streams, Some(&mut log));
        assert_eq!(out.evaluated, 2);
        assert_eq!(log.records().len(), 2);
        assert!(log.records()[0].value);
        assert!(!log.records()[1].value);
    }

    #[test]
    fn meter_accumulates_totals_and_items() {
        let mut m = meter(&[2.0, 1.0]);
        assert_eq!(m.charge(StreamId(0), 3), 6.0);
        assert_eq!(m.charge(StreamId(1), 2), 2.0);
        assert_eq!(m.charge(StreamId(0), 0), 0.0);
        assert_eq!(m.total_cost(), 8.0);
        assert_eq!(m.items_pulled(), &[3, 2]);
        assert_eq!(m.model.len(), 2);
    }

    #[test]
    fn scheduler_policy_and_memory_are_observable() {
        let sched = Scheduler::new(2, MemoryPolicy::Retain);
        assert_eq!(sched.policy, MemoryPolicy::Retain);
        assert_eq!(
            sched.memory.missing(StreamId(0), 10, 3),
            3,
            "memory starts empty"
        );
    }

    #[test]
    fn gaussian_streams_are_warm_and_seed_deterministic() {
        let horizons = [3u32, 7, 1];
        let mut rng = StdRng::seed_from_u64(9);
        let streams = gaussian_streams(&horizons, &mut rng);
        assert_eq!(streams.len(), 3);
        for (s, &w) in streams.iter().zip(&horizons) {
            assert_eq!(s.now(), 7, "warmed to the widest horizon");
            assert!(s.recent(w as usize).is_some());
        }
        let mut rng = StdRng::seed_from_u64(9);
        let again = gaussian_streams(&horizons, &mut rng);
        assert_eq!(streams[1].recent(7), again[1].recent(7));
    }

    #[test]
    fn arranged_scheduler_serves_pulls_from_maintained_rings() {
        use crate::arrange::{ArrangeConfig, ArrangementStore};

        let query = SimQuery::new(vec![vec![leaf(0, 8, 70.0)]]).unwrap();
        let schedule = DnfSchedule::from_order_unchecked(query.leaf_refs());
        let mut rng = StdRng::seed_from_u64(3);
        let mut streams = gaussian_streams(&[8], &mut rng);

        let mut store = ArrangementStore::new(ArrangeConfig::default());
        assert!(store.acquire(StreamId(0), 8));
        let mut arranged = Scheduler::new(1, MemoryPolicy::ClearEachQuery);
        arranged.attach_arrangements(store);
        assert!(arranged.arrangements().is_some());
        let mut plain = Scheduler::new(1, MemoryPolicy::ClearEachQuery);
        let mut am = meter(&[1.0]);
        let mut pm = meter(&[1.0]);

        let none = FaultPlan::none();
        for tick in 0..5 {
            let src = FaultySource::wrap(&streams, &none);
            arranged.maintain_tick(&src, &mut am);
            arranged.begin_tick(std::slice::from_ref(&query), &src);
            let a = arranged.run_query(&query, &schedule, &src, &mut am, None);
            plain.begin_tick(std::slice::from_ref(&query), &src);
            let p = plain.run_query(&query, &schedule, &src, &mut pm, None);
            assert_eq!(a.verdict, p.verdict, "tick {tick}: truth must not change");
            assert_eq!(a.cost, 0.0, "arranged evaluation pays no pull");
            assert_eq!(a.items_pulled, vec![0]);
            streams[0].advance_by(1, &mut rng);
        }

        // Maintenance: an 8-item fill, then 1 item per subsequent tick.
        assert_eq!(am.items_maintained(), &[8 + 4]);
        assert_eq!(am.items_pulled(), &[0]);
        assert_eq!(pm.items_pulled(), &[8 * 5]);
        assert!(am.total_cost() < pm.total_cost());
        assert_eq!(am.total_cost(), am.maintain_cost_total());
        assert_eq!(am.pull_cost_total(), 0.0);
        let stats = arranged.arrangements().unwrap().stats();
        assert_eq!(stats.hits, 5);
        assert_eq!(stats.hit_items, 40);
        assert_eq!(stats.maintained_items, 12);
    }

    #[test]
    fn unarranged_streams_fall_back_to_priced_pulls() {
        use crate::arrange::{ArrangeConfig, ArrangementStore};

        // Arrangement only covers a 4-item window; the query needs 8.
        let query = SimQuery::new(vec![vec![leaf(0, 8, 70.0)]]).unwrap();
        let schedule = DnfSchedule::from_order_unchecked(query.leaf_refs());
        let streams = vec![constant_stream(50.0, 20)];

        let mut store = ArrangementStore::new(ArrangeConfig::default());
        assert!(store.acquire(StreamId(0), 4));
        let mut sched = Scheduler::new(1, MemoryPolicy::ClearEachQuery);
        sched.attach_arrangements(store);
        let mut m = meter(&[1.0]);
        let none = FaultPlan::none();
        let src = FaultySource::wrap(&streams, &none);
        sched.maintain_tick(&src, &mut m);
        sched.begin_tick(std::slice::from_ref(&query), &src);
        let out = sched.run_query(&query, &schedule, &src, &mut m, None);
        assert_eq!(out.items_pulled, vec![8], "4-item ring cannot serve 8");
        assert_eq!(m.items_maintained(), &[4]);
    }

    #[test]
    fn retries_are_priced_and_the_verdict_stays_determined() {
        let query = SimQuery::new(vec![vec![leaf(0, 4, 70.0)]]).unwrap();
        let schedule = DnfSchedule::from_order_unchecked(query.leaf_refs());
        let streams = vec![constant_stream(50.0, 20)];
        let plan = failing_first(2, streams[0].now());
        let mut sched = Scheduler::new(1, MemoryPolicy::ClearEachQuery);
        sched.set_fault_policy(3, false);
        let mut m = meter(&[1.0]);
        let src = FaultySource::wrap(&streams, &plan);
        let out = sched.run_query(&query, &schedule, &src, &mut m, None);
        assert_eq!(out.verdict, Verdict::True);
        assert!(!out.degraded);
        assert_eq!(out.retries, 2);
        assert_eq!(out.failed_reads, 0);
        assert_eq!(out.cost, 12.0, "two failed 4-item contacts plus the pull");
        assert_eq!(m.retry_cost_total(), 8.0);
        assert_eq!(m.total_cost(), 12.0);
        assert_eq!(m.items_pulled(), &[4], "failed contacts deliver no items");
    }

    #[test]
    fn exhausted_retries_leave_the_leaf_unknown() {
        let query = SimQuery::new(vec![vec![leaf(0, 4, 70.0)]]).unwrap();
        let schedule = DnfSchedule::from_order_unchecked(query.leaf_refs());
        let streams = vec![constant_stream(50.0, 20)];
        let plan = failing_first(3, streams[0].now());
        let mut sched = Scheduler::new(1, MemoryPolicy::ClearEachQuery);
        sched.set_fault_policy(3, false);
        let mut m = meter(&[1.0]);
        let src = FaultySource::wrap(&streams, &plan);
        let out = sched.run_query(&query, &schedule, &src, &mut m, None);
        assert_eq!(out.verdict, Verdict::Unknown);
        assert_eq!(out.retries, 3, "every allowed attempt was made and priced");
        assert_eq!(out.failed_reads, 1);
        assert_eq!(m.total_cost(), 12.0);
        assert_eq!(m.items_pulled(), &[0]);
    }

    #[test]
    fn outages_charge_nothing_and_live_leaves_still_determine() {
        // (A) OR (B): A is out; B alone determines the query.
        let query = SimQuery::new(vec![vec![leaf(0, 4, 70.0)], vec![leaf(1, 4, 70.0)]]).unwrap();
        let schedule = DnfSchedule::from_order_unchecked(query.leaf_refs());
        let a_out = FaultPlan::with_forced_outages(FaultSpec::none(), vec![0]);

        // B true -> live True despite A's outage.
        let streams = vec![constant_stream(50.0, 20), constant_stream(50.0, 20)];
        let mut sched = Scheduler::new(2, MemoryPolicy::ClearEachQuery);
        let mut m = meter(&[1.0, 1.0]);
        let src = FaultySource::wrap(&streams, &a_out);
        let out = sched.run_query(&query, &schedule, &src, &mut m, None);
        assert_eq!(out.verdict, Verdict::True);
        assert!(!out.degraded);
        assert_eq!(out.failed_reads, 1);
        assert_eq!(out.cost, 4.0, "only B's pull is paid; outages are free");
        assert_eq!(out.items_pulled, vec![0, 4]);

        // B false -> A's outage leaves the verdict open.
        let streams = vec![constant_stream(50.0, 20), constant_stream(90.0, 20)];
        let mut sched = Scheduler::new(2, MemoryPolicy::ClearEachQuery);
        let mut m = meter(&[1.0, 1.0]);
        let src = FaultySource::wrap(&streams, &a_out);
        let out = sched.run_query(&query, &schedule, &src, &mut m, None);
        assert_eq!(out.verdict, Verdict::Unknown);
        assert!(!out.degraded);
    }

    #[test]
    fn a_stream_too_cold_for_its_window_leaves_the_leaf_unknown() {
        // Two items produced, a four-item window asked for.
        let query = SimQuery::new(vec![vec![leaf(0, 4, 70.0)]]).unwrap();
        let schedule = DnfSchedule::from_order_unchecked(query.leaf_refs());
        let streams = vec![constant_stream(50.0, 2)];
        let mut d = device(&[1.0]);
        let out = evaluate(&mut d, &query, &schedule, &streams, None);
        assert_eq!(out.verdict, Verdict::Unknown);
        assert_eq!(out.failed_reads, 1);
        assert_eq!(out.retries, 0);
        assert_eq!(out.cost, 0.0);
        assert_eq!(out.items_pulled, vec![0]);
        assert_eq!(d.1.total_cost(), 0.0, "nothing is billed for a cold read");
    }

    #[test]
    fn stale_fallback_resolves_outages_with_a_degraded_verdict() {
        use crate::arrange::{ArrangeConfig, ArrangementStore};

        let query = SimQuery::new(vec![vec![leaf(0, 4, 70.0)]]).unwrap();
        let schedule = DnfSchedule::from_order_unchecked(query.leaf_refs());
        let mut rng = StdRng::seed_from_u64(0);
        let mut streams = [constant_stream(50.0, 10)];

        let mut store = ArrangementStore::new(ArrangeConfig::default());
        assert!(store.acquire(StreamId(0), 4));
        let mut sched = Scheduler::new(1, MemoryPolicy::ClearEachQuery);
        sched.attach_arrangements(store);
        sched.set_fault_policy(1, true);
        let mut m = meter(&[1.0]);

        // Maintain while healthy, then the stream advances and dies:
        // the ring is one tick behind and the only source of data.
        let none = FaultPlan::none();
        sched.maintain_tick(&FaultySource::wrap(&streams, &none), &mut m);
        streams[0].advance_by(1, &mut rng);
        let dead = FaultPlan::with_forced_outages(FaultSpec::none(), vec![0]);
        let src = FaultySource::wrap(&streams, &dead);
        sched.maintain_tick(&src, &mut m); // skipped: stream is out
        sched.begin_tick(std::slice::from_ref(&query), &src);
        let out = sched.run_query(&query, &schedule, &src, &mut m, None);
        assert_eq!(out.verdict, Verdict::True, "stale constant window is < 70");
        assert!(out.degraded, "stale answers carry no live guarantee");
        assert_eq!(out.staleness, 1);
        assert_eq!(out.stale_leaves, 1);
        assert_eq!(out.cost, 0.0);
        let stats = sched.arrangements().unwrap().stats();
        assert_eq!(stats.hits, 0, "stale serves do not count as hits");
    }

    #[test]
    fn attach_and_take_move_the_store_between_schedulers() {
        use crate::arrange::{ArrangeConfig, ArrangementStore};

        let mut store = ArrangementStore::new(ArrangeConfig::default());
        assert!(store.acquire(StreamId(0), 3));
        let mut sched = Scheduler::new(1, MemoryPolicy::ClearEachQuery);
        assert!(sched.take_arrangements().is_none());
        assert!(sched.arrangements().is_none());
        sched.attach_arrangements(store);
        assert!(sched.arrangements().is_some());
        assert_eq!(sched.arrangements().unwrap().stats().arrangements, 1);
        let back = sched.take_arrangements().expect("store comes back");
        assert_eq!(back.stats().arrangements, 1);
        assert_eq!(sched.policy, MemoryPolicy::ClearEachQuery);
        assert!(sched.arrangements().is_none());

        // Lending a store leaves the caller's memory policy alone.
        let mut retain = Scheduler::new(1, MemoryPolicy::Retain);
        retain.attach_arrangements(back);
        assert!(retain.take_arrangements().is_some());
        assert_eq!(retain.policy, MemoryPolicy::Retain);
    }
}
