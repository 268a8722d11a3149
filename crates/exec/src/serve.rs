//! The serving loop: a long-running, tick-driven multiplexer of one
//! workload over arrival processes, with admission control and
//! drift-triggered re-planning.
//!
//! Each tick the loop (1) polls every query's `ArrivalProcess`,
//! (2) hands the due set to the [`AdmissionPolicy`], (3) executes the
//! admitted queries on the unified runtime (`stream_sim::runtime`
//! [`Scheduler`] + [`EnergyMeter`] — the same scheduler the single-query
//! pipeline runs on, so served energies are directly comparable to
//! measured and predicted ones), and (4) feeds the
//! execution trace into per-leaf hit-rate estimators. When a query's
//! observed rates diverge from its calibrated probabilities beyond the
//! [`DriftConfig`] tolerance, the query is re-planned through the
//! [`Engine`]'s cached planning path against a re-calibrated skeleton.

use crate::admission::{AdmissionCtx, AdmissionPolicy};
use crate::arrivals::{ArrivalProcess, ArrivalSpec};
use crate::sim::synthesize;
use crate::tick::{run_tick, Tick, TickCounters, TickQuery, TickStats};
use paotr_core::error::{Error, Result};
use paotr_core::plan::Engine;
use paotr_core::schedule::DnfSchedule;
use paotr_core::stream::StreamCatalog;
use paotr_faults::{FaultPlan, FaultSpec};
use paotr_multi::{outage_catalog, JointPlan, Workload};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::ops::Deref;
use std::sync::Arc;
use stream_sim::{
    gaussian_streams, ArrangeConfig, ArrangementStore, EnergyMeter, EnergyModel, LeafRecord,
    MemoryPolicy, Scheduler, SimQuery, TraceLog, Verdict,
};

/// Cost multiplier applied to dead streams during outage re-planning:
/// large enough that any alive alternative is preferred, small enough
/// to keep the cost model finite and well-ordered.
const OUTAGE_PENALTY: f64 = 1e3;

/// Drift detection knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftConfig {
    /// Absolute divergence between a leaf's observed success rate and
    /// its calibrated probability that triggers a re-plan.
    pub tolerance: f64,
    /// Observations a leaf needs before its rate is trusted.
    pub min_samples: u64,
}

impl Default for DriftConfig {
    fn default() -> DriftConfig {
        DriftConfig {
            tolerance: 0.15,
            min_samples: 30,
        }
    }
}

/// Serving-loop configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeConfig {
    /// Ticks to serve.
    pub ticks: usize,
    /// Seed for sensor data and arrival processes.
    pub seed: u64,
    /// Arrival process applied to every query.
    pub arrivals: ArrivalSpec,
    /// Sensor ticks between consecutive serve ticks.
    pub ticks_between: usize,
    /// Drift-triggered re-planning; `None` disables it.
    pub drift: Option<DriftConfig>,
    /// Maintain the joint plan's materialization set as persistent
    /// arrangements (`None` re-pulls every tick, the pre-arrangement
    /// behaviour). Only effective under shared execution.
    pub arrange: Option<ArrangeConfig>,
    /// Replay the run under this seeded fault plan (`None` = fault
    /// free). Faults enable bounded retries, three-valued verdicts and
    /// outage-triggered re-planning.
    pub faults: Option<FaultSpec>,
    /// Record every evaluation's `(tick, query, verdict)` in the report
    /// — the hook chaos tests use to compare runs bit-for-bit. Off by
    /// default to keep long runs light.
    pub record_verdicts: bool,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            ticks: 400,
            seed: 0,
            arrivals: ArrivalSpec::Periodic { every: 1 },
            ticks_between: 1,
            drift: None,
            arrange: None,
            faults: None,
            record_verdicts: false,
        }
    }
}

/// The aggregate outcome of one serve run: the tick driver's
/// [`TickCounters`] plus what only the serve loop tracks. Derefs to the
/// counters, so `report.evals` reads through.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeReport {
    /// Joint planner that produced the served plan.
    pub planner: String,
    /// Admission policy name.
    pub admission: String,
    /// Total arrival events.
    pub arrivals: u64,
    /// Ticks, evaluations, verdicts, admission and energy counters.
    pub counters: TickCounters,
    /// Evaluations served per query (workload order).
    pub per_query_served: Vec<u64>,
    /// Energy spent on each query over the run (workload order),
    /// summed evaluation by evaluation in execution order.
    pub per_query_energy: Vec<f64>,
    /// Fraction of served evaluations that came out TRUE.
    pub truth_rate: f64,
    /// Stream items paid for by query pulls, per stream.
    pub pulled_items: Vec<u64>,
    /// Stream items paid for by arrangement maintenance (0 with
    /// arrangements off).
    pub maintained_items: u64,
    /// Energy spent on query pulls.
    pub pull_energy: f64,
    /// Arrangements live at the end of the run.
    pub arrangements: usize,
    /// Items served from maintained rings instead of priced pulls.
    pub arrangement_hit_items: u64,
    /// Worst staleness (ticks) of any stale window served.
    pub max_staleness: u64,
    /// Re-plans triggered by outage transitions (separate from drift
    /// re-plans).
    pub outage_replans: u64,
    /// Per-evaluation verdict log (empty unless
    /// [`ServeConfig::record_verdicts`] is set).
    pub verdicts: Vec<VerdictRecord>,
}

impl Deref for ServeReport {
    type Target = TickCounters;

    fn deref(&self) -> &TickCounters {
        &self.counters
    }
}

/// One served evaluation's verdict, for bit-for-bit run comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VerdictRecord {
    /// Serve tick.
    pub tick: u64,
    /// Workload query index.
    pub query: usize,
    /// Three-valued verdict.
    pub verdict: Verdict,
    /// Resolved only via stale arrangement data.
    pub degraded: bool,
}

impl ServeReport {
    /// Served evaluations per tick.
    pub fn throughput(&self) -> f64 {
        self.evals as f64 / self.ticks.max(1) as f64
    }

    /// Mean energy per tick.
    pub fn mean_tick_energy(&self) -> f64 {
        self.total_energy / self.ticks.max(1) as f64
    }

    /// Mean energy per tick spent on each query (workload order).
    pub fn mean_query_energy(&self) -> Vec<f64> {
        let ticks = self.ticks.max(1) as f64;
        self.per_query_energy.iter().map(|e| e / ticks).collect()
    }

    /// Energy per served evaluation (`None` when nothing was served).
    pub(crate) fn energy_per_served(&self) -> Option<f64> {
        (self.evals > 0).then(|| self.total_energy / self.evals as f64)
    }

    /// Total stream items physically fetched from sensors: query pulls
    /// plus arrangement maintenance — the acceptance metric arranged
    /// serving is judged on.
    pub fn fetched_items(&self) -> u64 {
        self.pulled_items.iter().sum::<u64>() + self.maintained_items
    }

    /// A `paotr_stats` summary table over several runs — the report the
    /// CLI renders.
    pub fn summary_table(reports: &[ServeReport]) -> paotr_stats::Table {
        let mut t = paotr_stats::Table::new([
            "planner",
            "admission",
            "served/tick",
            "shed",
            "replans",
            "energy/tick",
            "max tick",
            "energy/eval",
        ]);
        for r in reports {
            t.push_row([
                r.planner.clone(),
                r.admission.clone(),
                format!("{:.2}", r.throughput()),
                format!("{}", r.shed),
                format!("{}", r.drift_replans),
                format!("{:.2}", r.mean_tick_energy()),
                format!("{:.2}", r.max_tick_energy),
                r.energy_per_served()
                    .map(|e| format!("{e:.2}"))
                    .unwrap_or_else(|| "n/a".into()),
            ]);
        }
        t
    }
}

/// Per-query drift estimator state (flat term-major leaf order): the
/// calibrated probabilities the current plan assumed plus observed
/// success counters per leaf.
///
/// Public because long-lived serving layers (the `paotr_serverd`
/// daemon) persist this calibration state across restarts — it is
/// exactly the "estimated from historical traces" state the paper
/// assumes, and it outlives any single query's session.
#[derive(Debug, Clone, PartialEq)]
pub struct DriftState {
    /// Per-leaf calibrated probability (what the current plan assumed).
    calibrated: Vec<f64>,
    /// Per-leaf observed successes.
    successes: Vec<u64>,
    /// Per-leaf observations.
    totals: Vec<u64>,
    /// Flat index offsets per term.
    offsets: Vec<usize>,
}

impl DriftState {
    /// Fresh estimators calibrated to `tree`'s leaf probabilities.
    pub fn new(tree: &paotr_core::tree::DnfTree) -> DriftState {
        let mut offsets = Vec::with_capacity(tree.num_terms());
        let mut acc = 0;
        for t in tree.terms() {
            offsets.push(acc);
            acc += t.len();
        }
        DriftState {
            calibrated: tree.leaves().map(|(_, l)| l.prob.value()).collect(),
            successes: vec![0; acc],
            totals: vec![0; acc],
            offsets,
        }
    }

    /// Folds one evaluation's trace records into the per-leaf counters.
    /// When any sufficiently-observed leaf has drifted past `cfg`'s
    /// tolerance, returns the re-calibrated probabilities: observed
    /// rates where trusted, the old calibration elsewhere.
    pub(crate) fn observe_eval(
        &mut self,
        records: &[LeafRecord],
        cfg: &DriftConfig,
    ) -> Option<Vec<f64>> {
        for rec in records {
            let i = self.offsets[rec.leaf.term] + rec.leaf.leaf;
            self.totals[i] += 1;
            self.successes[i] += u64::from(rec.value);
        }
        let rate = |i: usize| {
            let n = self.totals[i];
            (n >= cfg.min_samples).then(|| self.successes[i] as f64 / n as f64)
        };
        let p = &self.calibrated;
        (0..p.len())
            .any(|i| rate(i).is_some_and(|r| (r - p[i]).abs() > cfg.tolerance))
            .then(|| (0..p.len()).map(|i| rate(i).unwrap_or(p[i])).collect())
    }

    /// Adopts a new calibration and restarts the estimators.
    pub fn reset_to(&mut self, probs: Vec<f64>) {
        self.calibrated = probs;
        self.successes.iter_mut().for_each(|s| *s = 0);
        self.totals.iter_mut().for_each(|t| *t = 0);
    }

    /// The calibrated per-leaf probabilities (flat term-major order).
    pub fn calibrated(&self) -> &[f64] {
        &self.calibrated
    }

    /// Observed successes per leaf (flat term-major order).
    pub fn successes(&self) -> &[u64] {
        &self.successes
    }

    /// Observations per leaf (flat term-major order).
    pub fn totals(&self) -> &[u64] {
        &self.totals
    }

    /// Restores persisted estimator state (snapshot restore). Lengths
    /// must match the tree this state was built for.
    pub fn restore(
        &mut self,
        calibrated: Vec<f64>,
        successes: Vec<u64>,
        totals: Vec<u64>,
    ) -> std::result::Result<(), String> {
        let n = self.calibrated.len();
        if calibrated.len() != n || successes.len() != n || totals.len() != n {
            return Err(format!(
                "calibration state covers {} leaves, query has {n}",
                calibrated.len()
            ));
        }
        if successes.iter().zip(&totals).any(|(s, t)| s > t) {
            return Err("leaf successes exceed observations".into());
        }
        self.calibrated = calibrated;
        self.successes = successes;
        self.totals = totals;
        Ok(())
    }
}

/// A workload wired for serving: concrete queries, the joint plan's
/// schedules and order, and the serve configuration.
#[derive(Debug, Clone)]
pub struct ServeLoop {
    queries: Vec<SimQuery>,
    schedules: Vec<Arc<DnfSchedule>>,
    order: Vec<usize>,
    shared: bool,
    weights: Vec<f64>,
    catalog: StreamCatalog,
    planner: String,
    config: ServeConfig,
    drift_seed: Vec<DriftState>,
    /// The joint plan's materialization set: `(stream, window)` pairs
    /// to maintain when serving with arrangements enabled.
    materialized: Vec<(paotr_core::stream::StreamId, u32)>,
}

impl ServeLoop {
    /// Wires `workload` for serving under `joint`: concrete predicates
    /// are synthesized from the abstract trees, so each leaf's marginal
    /// truth rate matches its calibrated probability.
    pub fn new(workload: &Workload, joint: &JointPlan, config: ServeConfig) -> ServeLoop {
        ServeLoop::with_queries(synthesize(workload), workload, joint, config)
    }

    /// Wires custom concrete queries (shape-compatible with the
    /// workload's trees) — the hook drift tests use to serve data whose
    /// true rates disagree with the calibrated probabilities.
    ///
    /// # Panics
    /// Panics when a query's leaf count does not match its tree.
    pub fn with_queries(
        queries: Vec<SimQuery>,
        workload: &Workload,
        joint: &JointPlan,
        config: ServeConfig,
    ) -> ServeLoop {
        assert_eq!(queries.len(), workload.len(), "one sim query per tree");
        for (q, wq) in queries.iter().zip(workload.queries()) {
            assert_eq!(
                q.num_leaves(),
                wq.tree.num_leaves(),
                "query `{}` shape mismatch",
                wq.name
            );
        }
        let drift_seed = workload
            .queries()
            .iter()
            .map(|q| DriftState::new(&q.tree))
            .collect();
        ServeLoop {
            queries,
            schedules: joint.schedules.clone(),
            order: joint.order.clone(),
            shared: joint.shared_execution,
            weights: workload.weights(),
            catalog: workload.catalog().clone(),
            planner: joint.planner.clone(),
            config,
            drift_seed,
            materialized: joint
                .materialized
                .iter()
                .map(|m| (m.stream, m.window))
                .collect(),
        }
    }

    /// Serves the configured number of ticks under `policy`, using
    /// `engine` for drift re-planning.
    pub fn run(&self, policy: &mut dyn AdmissionPolicy, engine: &Engine) -> Result<ServeReport> {
        self.run_with_progress(policy, engine, |_| {})
    }

    /// [`ServeLoop::run`] with a per-tick callback (live dashboards).
    pub fn run_with_progress(
        &self,
        policy: &mut dyn AdmissionPolicy,
        engine: &Engine,
        mut on_tick: impl FnMut(&TickStats),
    ) -> Result<ServeReport> {
        let n = self.queries.len();
        let n_streams = self.catalog.len();
        let mut rng = StdRng::seed_from_u64(self.config.seed);

        // Streams, warmed to the widest window.
        let mut horizons = vec![1u32; n_streams];
        for q in &self.queries {
            for (k, &w) in q.max_windows(n_streams).iter().enumerate() {
                horizons[k] = horizons[k].max(w);
            }
        }
        let mut streams = gaussian_streams(&horizons, &mut rng);

        // With arrangements on, the serving loop is the (sole) reader
        // of every materialized stream: acquire the joint plan's
        // materialization set once and maintain it for the whole run.
        let mut scheduler = Scheduler::new(n_streams, MemoryPolicy::ClearEachQuery);
        if let Some(cfg) = self.config.arrange {
            if self.shared && !self.materialized.is_empty() {
                let mut store = ArrangementStore::new(cfg);
                for &(k, window) in &self.materialized {
                    store.acquire(k, window);
                }
                scheduler.attach_arrangements(store);
            }
        }
        let mut meter = EnergyMeter::new(EnergyModel::from_catalog(&self.catalog));
        let faults = FaultPlan::new(self.config.faults.unwrap_or_else(FaultSpec::none));
        // Outage signature of the previous tick.
        let mut last_out = vec![false; n_streams];

        let mut arrivals: Vec<ArrivalProcess> = (0..n)
            .map(|q| ArrivalProcess::new(self.config.arrivals, self.config.seed, q))
            .collect();
        let windows: Vec<Vec<u32>> = AdmissionCtx::query_windows(&self.queries, n_streams);
        let costs = AdmissionCtx::stream_costs(&self.catalog);

        let mut schedules = self.schedules.clone();
        let mut drift = self.drift_seed.clone();
        // The catalog re-plans see: dead streams are penalized during an
        // outage, so re-plans pull them last.
        let mut live_catalog = self.catalog.clone();
        let replan = |q: usize, probs: &[f64], catalog: &StreamCatalog, why: &str| {
            let tree = self.queries[q].skeleton(probs);
            let plan = engine.plan(&tree, catalog)?;
            let schedule = plan.body.to_dnf_schedule(&tree).ok_or_else(|| {
                Error::InvalidWorkload(format!(
                    "planner `{}` produced a non-schedule plan during {why} re-planning",
                    plan.planner
                ))
            })?;
            Ok::<_, Error>(Arc::new(schedule))
        };
        // `Some(t)` = a request has been pending since tick `t`; deferred
        // requests keep their original arrival tick so admission's
        // equal-weight tie-break serves the oldest request first.
        let mut pending: Vec<Option<u64>> = vec![None; n];
        let mut trace = TraceLog::default();
        let mut counters = TickCounters::default();
        let mut total_arrivals = 0u64;
        let mut outage_replans = 0u64;
        let mut per_query_served = vec![0u64; n];
        let mut per_query_energy = vec![0.0f64; n];
        let mut max_staleness = 0u64;
        let mut verdicts: Vec<VerdictRecord> = Vec::new();

        for t in 0..self.config.ticks as u64 {
            // Outage transitions re-plan the affected queries against a
            // penalized catalog, so schedules stop pulling dead streams
            // first; recoveries re-plan back (a cache hit in `engine`).
            if self.config.faults.is_some() {
                let now = streams.first().map(|s| s.now()).unwrap_or(0);
                let out = faults.outage_signature(n_streams, now);
                if out != last_out {
                    live_catalog = if out.iter().any(|&b| b) {
                        outage_catalog(&self.catalog, &out, OUTAGE_PENALTY)
                    } else {
                        self.catalog.clone()
                    };
                    for (q, w) in windows.iter().enumerate() {
                        if (0..n_streams).any(|k| out[k] != last_out[k] && w[k] > 0) {
                            schedules[q] =
                                replan(q, drift[q].calibrated(), &live_catalog, "outage")?;
                            outage_replans += 1;
                        }
                    }
                    last_out = out;
                }
            }

            for (q, arrival) in arrivals.iter_mut().enumerate() {
                let fired = arrival.poll(t);
                total_arrivals += fired;
                if fired > 0 && pending[q].is_none() {
                    pending[q] = Some(t);
                }
            }
            let mut queries: Vec<TickQuery> = self
                .queries
                .iter()
                .zip(&schedules)
                .zip(&mut drift)
                .map(|((sim, schedule), drift)| TickQuery {
                    sim,
                    schedule,
                    drift,
                })
                .collect();
            let (stats, drifted) = run_tick(
                Tick {
                    tick: t,
                    weights: &self.weights,
                    windows: &windows,
                    costs: &costs,
                    shared: self.shared,
                    order: &self.order,
                    pending: &mut pending,
                    policy: &mut *policy,
                    scheduler: &mut scheduler,
                    streams: &streams,
                    faults: &faults,
                    meter: &mut meter,
                    drift: self.config.drift,
                    trace: &mut trace,
                },
                &mut queries,
                &mut counters,
                |q, out| {
                    per_query_served[q] += 1;
                    per_query_energy[q] += out.cost;
                    max_staleness = max_staleness.max(out.staleness);
                    if self.config.record_verdicts {
                        verdicts.push(VerdictRecord {
                            tick: t,
                            query: q,
                            verdict: out.verdict,
                            degraded: out.degraded,
                        });
                    }
                },
            );
            for (q, probs) in drifted {
                schedules[q] = replan(q, &probs, &live_catalog, "drift")?;
                drift[q].reset_to(probs);
            }
            on_tick(&stats);

            for s in &mut streams {
                s.advance_by(self.config.ticks_between.max(1), &mut rng);
            }
        }

        // The run-long meter's own totals are exact; summing per-tick
        // deltas instead can differ in the last bits.
        counters.total_energy = meter.total_cost();
        counters.maintain_energy = meter.maintain_cost_total();
        counters.retry_energy = meter.retry_cost_total();
        let stats = scheduler.arrangements().map(|s| s.stats());
        Ok(ServeReport {
            planner: self.planner.clone(),
            admission: policy.name().to_string(),
            arrivals: total_arrivals,
            per_query_served,
            per_query_energy,
            truth_rate: if counters.evals > 0 {
                counters.truths as f64 / counters.evals as f64
            } else {
                0.0
            },
            counters,
            pulled_items: meter.items_pulled().to_vec(),
            maintained_items: meter.items_maintained().iter().sum(),
            pull_energy: meter.pull_cost_total(),
            arrangements: stats.map_or(0, |s| s.arrangements),
            arrangement_hit_items: stats.map_or(0, |s| s.hit_items),
            max_staleness,
            outage_replans,
            verdicts,
        })
    }
}
