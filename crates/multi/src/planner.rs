//! Joint workload planners.
//!
//! A workload planner decides (1) the order queries execute in within a
//! tick and (2) each query's leaf schedule, knowing that all queries
//! share one device memory. Three strategies are built in:
//!
//! * [`IndependentPlanner`] (`independent`) — the baseline: today's
//!   per-query [`Engine::plan`], no cross-query awareness, memory wiped
//!   between queries;
//! * [`SharedGreedyPlanner`] (`shared-greedy`) — greedy multi-query
//!   optimization in the spirit of Roy et al.'s MQO heuristics
//!   (arXiv:cs/9910021): queries are sequenced one at a time, each step
//!   picking the query whose marginal cost minus the coverage benefit
//!   it creates for the rest is smallest, and each query may be
//!   *re-planned* against an effective catalog in which already-covered
//!   streams are discounted — coalescing cross-query pulls;
//! * `BatchAwarePlanner` (`batch-aware`) — groups queries by their
//!   dominant stream and runs each group back-to-back (heaviest puller
//!   first), so items pulled this tick are reused while still hot.
//!
//! ## Planning-time engineering
//!
//! `shared-greedy` is quadratic in the number of queries (every round
//! re-scores every remaining candidate). Three levers keep that loop
//! fast enough for 128-query workloads:
//!
//! * every candidate is priced through a compiled, allocation-free
//!   [`CostModel`] (per-call work scales with the query's own streams,
//!   not the catalog): coverage sets where its push state starts and
//!   the candidate's schedule is pushed onto it — the same arithmetic
//!   that stamps every per-query plan's cost;
//! * wide rounds fan candidate evaluation out over `paotr_par`'s scoped
//!   threads ([`SharedGreedyPlanner::threads`]) with one evaluation
//!   scratch per participating thread per round. The scratch is reused,
//!   but each candidate evaluation still collects its per-stream item
//!   counts into a fresh `Vec<f64>` (a second one when the coalescing
//!   re-plan wins), so the round loop allocates per candidate;
//! * the expensive coalescing *re-plan* of a candidate is cached and
//!   recomputed only when the coverage on that query's streams has moved
//!   since the cached re-plan — the cached plan is reused exactly when it
//!   is provably identical, so results match the always-replan loop
//!   while skipping its redundant work.

use crate::cost::predict_shared;
use crate::workload::{extract_schedule, Workload};
use paotr_core::cost::arrange::{ArrangeTerm, DEFAULT_HORIZON};
use paotr_core::cost::model::{CostModel, EvalScratch};
use paotr_core::error::Result;
use paotr_core::plan::{Engine, Plan};
use paotr_core::schedule::DnfSchedule;
use paotr_core::stream::{StreamCatalog, StreamId};
use paotr_par::ThreadCount;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The output of joint planning: per-query plans plus the cross-query
/// execution order, with predicted costs under the shared-tick model.
/// Plans and schedules are shared (`Arc`) with the planner's internal
/// baseline — cloning a `JointPlan` or keeping the baseline plan for a
/// query costs a reference count, not a deep copy.
#[derive(Debug, Clone)]
pub struct JointPlan {
    /// Registry name of the workload planner.
    pub planner: String,
    /// Query evaluation order within a tick (workload indices).
    pub order: Vec<usize>,
    /// Per-query plan, in workload order.
    pub plans: Vec<Arc<Plan>>,
    /// Per-query schedule extracted from `plans`, in workload order.
    pub schedules: Vec<Arc<DnfSchedule>>,
    /// Expected cost of each query's *default* plan in isolation — the
    /// independent baseline every planner is measured against.
    pub independent_costs: Vec<f64>,
    /// Predicted expected cost of each query under this joint plan
    /// (equals `independent_costs` for the `independent` planner).
    pub predicted_costs: Vec<f64>,
    /// Whether the plan assumes one shared memory per tick (joint
    /// planners) or isolated per-query memory (the baseline).
    pub shared_execution: bool,
    /// Streams the plan recommends maintaining as persistent
    /// arrangements during recurring serving (empty for the
    /// `independent` baseline, and for one-shot execution). Computed
    /// post-hoc from the committed plan's expected per-stream traffic,
    /// so order, schedules and predicted costs are identical whether or
    /// not a runtime acts on it.
    pub materialized: Vec<Materialization>,
    /// Wall-clock time spent planning the workload.
    pub planning_time: Duration,
}

/// One stream a joint plan recommends maintaining as a persistent
/// arrangement (see `stream_sim::ArrangementStore`), with the crossover
/// term that justified it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Materialization {
    /// The stream to maintain.
    pub stream: StreamId,
    /// Ring size: the widest window any query needs on the stream.
    pub window: u32,
    /// The maintain-vs-repull term the decision was priced with.
    pub term: ArrangeTerm,
}

/// The materialization pass shared by the joint planners: price every
/// stream's maintain-vs-repull crossover against the plan's expected
/// per-tick pull traffic (`final_coverage`, catalog-indexed) and keep
/// the streams where maintenance wins. Recurring serving advances every
/// stream by one item per tick, so `delta = 1`; the fill amortizes over
/// the default serving horizon.
fn materialization_pass(workload: &Workload, final_coverage: &[f64]) -> Vec<Materialization> {
    let n_streams = workload.catalog().len();
    let mut windows = vec![0u32; n_streams];
    let mut readers = vec![0u32; n_streams];
    for q in workload.queries() {
        let mut touched = vec![false; n_streams];
        for (_, l) in q.tree.leaves() {
            windows[l.stream.0] = windows[l.stream.0].max(l.items);
            touched[l.stream.0] = true;
        }
        for (k, &t) in touched.iter().enumerate() {
            readers[k] += u32::from(t);
        }
    }
    (0..n_streams)
        .filter_map(|k| {
            if windows[k] == 0 {
                return None;
            }
            let term = ArrangeTerm {
                window: windows[k],
                readers: readers[k],
                delta: 1.0,
                repull_items: final_coverage[k],
                horizon: DEFAULT_HORIZON,
            };
            term.should_materialize().then_some(Materialization {
                stream: StreamId(k),
                window: windows[k],
                term,
            })
        })
        .collect()
}

impl JointPlan {
    /// Weighted aggregate of the independent baseline costs.
    pub fn aggregate_independent(&self, weights: &[f64]) -> f64 {
        dot(&self.independent_costs, weights)
    }

    /// Weighted aggregate of the predicted joint costs.
    pub fn aggregate_predicted(&self, weights: &[f64]) -> f64 {
        dot(&self.predicted_costs, weights)
    }

    /// Fraction of the independent baseline cost the joint plan is
    /// predicted to amortize away (0 = no sharing benefit).
    pub fn sharing_ratio(&self, weights: &[f64]) -> f64 {
        let indep = self.aggregate_independent(weights);
        if indep <= 0.0 {
            return 0.0;
        }
        1.0 - self.aggregate_predicted(weights) / indep
    }

    /// Predicted speedup over the independent baseline (`>= 1` for the
    /// built-in joint planners).
    pub fn speedup(&self, weights: &[f64]) -> f64 {
        let pred = self.aggregate_predicted(weights);
        if pred <= 0.0 {
            return f64::INFINITY;
        }
        self.aggregate_independent(weights) / pred
    }
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// A joint planning strategy for multi-query workloads.
pub trait WorkloadPlanner: Send + Sync {
    /// Stable kebab-case identifier (`independent`, `shared-greedy`,
    /// `batch-aware`).
    fn name(&self) -> &str;

    /// One-line human description for help texts.
    fn description(&self) -> &str {
        ""
    }

    /// Plans the workload, using `engine` for all per-query planning
    /// (and its cache across re-plans).
    fn plan(&self, workload: &Workload, engine: &Engine) -> Result<JointPlan>;
}

/// Every built-in workload planner, in comparison order (baseline
/// first).
pub fn default_planners() -> Vec<Box<dyn WorkloadPlanner>> {
    vec![
        Box::new(IndependentPlanner),
        Box::new(SharedGreedyPlanner::default()),
        Box::new(BatchAwarePlanner),
    ]
}

/// Looks a built-in workload planner up by its stable name.
pub fn planner_by_name(name: &str) -> Option<Box<dyn WorkloadPlanner>> {
    default_planners().into_iter().find(|p| p.name() == name)
}

/// The stable names of the built-in workload planners.
pub fn planner_names() -> Vec<&'static str> {
    vec!["independent", "shared-greedy", "batch-aware"]
}

/// Shared first phase of every planner (and of the interference
/// analysis): the per-query default plans, their schedules, their
/// isolated costs and per-stream demand. Plans and schedules are
/// `Arc`'d here once and shared into every [`JointPlan`] that keeps
/// them, so "keep the default plan for query q" is free.
pub(crate) struct Baseline {
    plans: Vec<Arc<Plan>>,
    pub(crate) schedules: Vec<Arc<DnfSchedule>>,
    costs: Vec<f64>,
    /// Expected items each query pulls per stream in isolation
    /// (catalog-indexed; only touched entries are non-zero).
    pub(crate) demand: Vec<Vec<f64>>,
}

pub(crate) fn baseline(
    workload: &Workload,
    engine: &Engine,
    threads: ThreadCount,
) -> Result<Baseline> {
    // One batched call through the core facade: the catalog is
    // fingerprinted once. `Workload::new` has already validated the weights.
    let queries: Vec<paotr_core::plan::QueryRef<'_>> = workload
        .queries()
        .iter()
        .map(|q| paotr_core::plan::QueryRef::from(&q.tree))
        .collect();
    let plans = engine.plan_batch(&queries, workload.catalog(), threads)?;
    let schedules: Vec<Arc<DnfSchedule>> = plans
        .iter()
        .zip(workload.queries())
        .map(|(p, q)| extract_schedule(p, &q.tree, &q.name).map(Arc::new))
        .collect::<Result<_>>()?;
    let mut scratch = EvalScratch::new();
    let (costs, demand) = workload
        .queries()
        .iter()
        .zip(&schedules)
        .map(|(q, s)| {
            let model = CostModel::new(&q.tree, workload.catalog());
            let cost = model.expected_cost(s, &mut scratch);
            (cost, model.items_vec(&scratch))
        })
        .unzip();
    Ok(Baseline {
        plans: plans.into_iter().map(Arc::new).collect(),
        schedules,
        costs,
        demand,
    })
}

/// The baseline: every query planned in isolation, executed with its
/// own memory. No cross-query sharing is assumed or exploited.
#[derive(Debug, Clone, Copy, Default)]
pub struct IndependentPlanner;

impl WorkloadPlanner for IndependentPlanner {
    fn name(&self) -> &str {
        "independent"
    }

    fn description(&self) -> &str {
        "per-query default plans, isolated memory (the status-quo baseline)"
    }

    fn plan(&self, workload: &Workload, engine: &Engine) -> Result<JointPlan> {
        let started = Instant::now();
        let base = baseline(workload, engine, ThreadCount::Fixed(1))?;
        Ok(JointPlan {
            planner: self.name().to_string(),
            order: (0..workload.len()).collect(),
            predicted_costs: base.costs.clone(),
            independent_costs: base.costs,
            plans: base.plans,
            schedules: base.schedules,
            shared_execution: false,
            materialized: Vec::new(),
            planning_time: started.elapsed(),
        })
    }
}

/// Greedy MQO: sequences queries one at a time, re-planning each
/// candidate against a coverage-discounted catalog so that cross-query
/// stream pulls coalesce, and scoring candidates by marginal cost minus
/// the coverage benefit they create for the queries still waiting.
///
/// See the module docs for the planning-time levers (`threads`, the
/// re-plan cache, the [`CostModel`] kernel).
#[derive(Debug, Clone, Copy, Default)]
pub struct SharedGreedyPlanner {
    /// Worker threads for per-round candidate evaluation
    /// (`ThreadCount::Auto` by default; results are identical at any
    /// thread count).
    pub threads: ThreadCount,
}

impl SharedGreedyPlanner {
    /// Catalog in which stream `k`'s per-item cost is scaled by the
    /// fraction of the query's widest window on `k` that is *not*
    /// already covered — a covered stream looks cheap, so the per-query
    /// planner schedules its leaves early and the pulls coalesce.
    fn effective_catalog(
        max_window: &[u32],
        catalog: &StreamCatalog,
        coverage: &[f64],
    ) -> StreamCatalog {
        let mut out = StreamCatalog::new();
        for (k, info) in catalog.iter() {
            let discount = if max_window[k.0] == 0 || coverage[k.0] <= 0.0 {
                1.0
            } else {
                (1.0 - coverage[k.0] / f64::from(max_window[k.0])).max(0.0)
            };
            out.add(info.cost * discount)
                .expect("scaled costs stay finite and >= 0");
        }
        out
    }
}

/// One candidate's exact evaluation for the current round.
struct CandidateEval {
    /// Exact predicted cost under the current coverage.
    cost: f64,
    /// Expected items pulled, aligned with the query model's touched
    /// streams.
    items: Vec<f64>,
    plan: Arc<Plan>,
    sched: Arc<DnfSchedule>,
    /// A freshly computed coalescing re-plan to cache for later rounds.
    fresh_replan: Option<ReplanCache>,
}

/// A cached coalescing re-plan and the coverage it was computed under
/// (restricted to the query's own streams).
#[derive(Clone)]
struct ReplanCache {
    plan: Arc<Plan>,
    sched: Arc<DnfSchedule>,
    cov_snapshot: Vec<f64>,
}

impl SharedGreedyPlanner {
    /// Exact evaluation of candidate `q` under `coverage`: price the
    /// default schedule, re-plan (or reuse a cached re-plan) against the
    /// coverage-discounted catalog, keep the cheaper.
    #[allow(clippy::too_many_arguments)]
    fn evaluate_candidate(
        q: usize,
        workload: &Workload,
        engine: &Engine,
        base: &Baseline,
        model: &CostModel,
        max_window: &[u32],
        coverage: &[f64],
        cached: Option<&ReplanCache>,
        catalog_fp: u64,
        scratch: &mut EvalScratch,
    ) -> Result<CandidateEval> {
        let catalog = workload.catalog();
        let tree = &workload.query(q).tree;
        let cost_a =
            model.expected_cost_with_coverage(base.schedules[q].order(), coverage, scratch);
        let items_a: Vec<f64> = model.items_per_stream(scratch).map(|(_, i)| i).collect();

        // Re-planning can only help once some of this query's streams
        // are covered (an undiscounted catalog reproduces the default
        // plan).
        let any_covered = model.touched_streams().any(|s| coverage[s.0] > 0.0);
        if !any_covered {
            return Ok(CandidateEval {
                cost: cost_a,
                items: items_a,
                plan: base.plans[q].clone(),
                sched: base.schedules[q].clone(),
                fresh_replan: None,
            });
        }

        // Candidate B: the coalescing re-plan. Reuse the cached one
        // while the coverage on this query's streams has not moved since
        // it was computed (a re-plan would then be identical).
        let cache_valid = cached.is_some_and(|c| {
            model
                .touched_streams()
                .zip(&c.cov_snapshot)
                // `<= 0.0`, not `==`: non-finite coverage never counts
                // as unchanged.
                .all(|(s, &snap)| (coverage[s.0] - snap).abs() <= 0.0)
        });
        let (plan_b, sched_b, fresh_replan) = if cache_valid {
            let c = cached.expect("checked above");
            (c.plan.clone(), c.sched.clone(), None)
        } else {
            let eff = Self::effective_catalog(max_window, catalog, coverage);
            let mut plan_b = engine.plan(tree, &eff)?;
            let sched_b = Arc::new(extract_schedule(&plan_b, tree, &workload.query(q).name)?);
            // Re-price the stored plan against the *real* catalog: the
            // effective catalog exists only to steer the per-query
            // planner, and a plan whose expected_cost reflects
            // discounted stream costs would misreport itself.
            plan_b.expected_cost = Some(model.expected_cost(&sched_b, scratch));
            plan_b.catalog_fingerprint = catalog_fp;
            let plan_b = Arc::new(plan_b);
            let cov_snapshot: Vec<f64> = model.touched_streams().map(|s| coverage[s.0]).collect();
            let cache = ReplanCache {
                plan: plan_b.clone(),
                sched: sched_b.clone(),
                cov_snapshot,
            };
            (plan_b, sched_b, Some(cache))
        };
        let cost_b = model.expected_cost_with_coverage(sched_b.order(), coverage, scratch);
        if cost_b < cost_a - 1e-12 {
            let items_b: Vec<f64> = model.items_per_stream(scratch).map(|(_, i)| i).collect();
            Ok(CandidateEval {
                cost: cost_b,
                items: items_b,
                plan: plan_b,
                sched: sched_b,
                fresh_replan,
            })
        } else {
            Ok(CandidateEval {
                cost: cost_a,
                items: items_a,
                plan: base.plans[q].clone(),
                sched: base.schedules[q].clone(),
                fresh_replan,
            })
        }
    }
}

impl WorkloadPlanner for SharedGreedyPlanner {
    fn name(&self) -> &str {
        "shared-greedy"
    }

    fn description(&self) -> &str {
        "greedy MQO: coverage-aware query sequencing + coalescing re-plans (cs/9910021-style)"
    }

    fn plan(&self, workload: &Workload, engine: &Engine) -> Result<JointPlan> {
        let started = Instant::now();
        let workers = self.threads.resolve();
        let base = baseline(workload, engine, self.threads)?;
        let catalog = workload.catalog();
        let weights = workload.weights();
        let catalog_fp = paotr_core::plan::catalog_fingerprint(catalog);
        let n = workload.len();

        // Compile the cost kernel once per query; every candidate
        // evaluation below is then allocation-free array arithmetic.
        let models: Vec<CostModel> = workload
            .queries()
            .iter()
            .map(|q| CostModel::new(&q.tree, catalog))
            .collect();
        let max_windows: Vec<Vec<u32>> = models
            .iter()
            .map(|m| {
                (0..catalog.len())
                    .map(|k| m.max_window(StreamId(k)))
                    .collect()
            })
            .collect();

        // Independent per-stream demand, for the benefit estimate.
        let demand = &base.demand;

        let mut scratch = EvalScratch::new();
        let mut coverage = vec![0.0f64; catalog.len()];
        let mut remaining: Vec<usize> = (0..n).collect();
        let mut order = Vec::with_capacity(n);
        let mut plans = base.plans.clone();
        let mut schedules = base.schedules.clone();
        let mut predicted = vec![0.0f64; n];
        let mut replans: Vec<Option<ReplanCache>> = vec![None; n];

        while !remaining.is_empty() {
            // Phase 1: exact candidate evaluations — independent per
            // candidate, fanned out over scoped threads for wide rounds.
            let evaluate = |&q: &usize, scratch: &mut EvalScratch| {
                Self::evaluate_candidate(
                    q,
                    workload,
                    engine,
                    &base,
                    &models[q],
                    &max_windows[q],
                    &coverage,
                    replans[q].as_ref(),
                    catalog_fp,
                    scratch,
                )
            };
            let evals: Vec<CandidateEval> = if workers > 1 && remaining.len() >= 16 {
                // One scratch per participating thread for the whole
                // round (not one per candidate).
                paotr_par::par_map_init(&remaining, self.threads, EvalScratch::new, |q, scratch| {
                    evaluate(q, scratch)
                })
                .into_iter()
                .collect::<Result<_>>()?
            } else {
                remaining
                    .iter()
                    .map(|q| evaluate(q, &mut scratch))
                    .collect::<Result<_>>()?
            };

            // Phase 2: deterministic scoring and pick. Benefit: coverage
            // this candidate adds, valued against the independent demand
            // of the queries still waiting (only the candidate's own
            // streams can contribute).
            let mut best: Option<(f64, usize)> = None;
            for (idx, (&q, eval)) in remaining.iter().zip(&evals).enumerate() {
                let mut benefit = 0.0;
                for &r in &remaining {
                    if r == q {
                        continue;
                    }
                    for (s, &iq) in models[q].touched_streams().zip(&eval.items) {
                        if iq <= 0.0 {
                            continue;
                        }
                        let k = s.0;
                        let before = demand[r][k].min(coverage[k]);
                        let after = demand[r][k].min(coverage[k] + iq);
                        benefit += weights[r] * (after - before) * catalog.cost(s);
                    }
                }
                let score = weights[q] * eval.cost - benefit;
                // `remaining` ascends, so on ties the earlier query
                // already holds `best` — strict improvement only.
                let better = match &best {
                    None => true,
                    Some((b, _)) => score < *b - 1e-12,
                };
                if better {
                    best = Some((score, idx));
                }
            }
            let (_, idx) = best.expect("remaining is non-empty");
            let q = remaining[idx];

            // Commit: cache fresh re-plans for later rounds, install the
            // winner, advance coverage.
            for (&r, eval) in remaining.iter().zip(&evals) {
                if let Some(cache) = &eval.fresh_replan {
                    replans[r] = Some(cache.clone());
                }
            }
            let eval = &evals[idx];
            for (s, &i) in models[q].touched_streams().zip(&eval.items) {
                coverage[s.0] += i;
            }
            plans[q] = eval.plan.clone();
            schedules[q] = eval.sched.clone();
            predicted[q] = eval.cost;
            order.push(q);
            remaining.remove(idx);
        }

        Ok(JointPlan {
            planner: self.name().to_string(),
            order,
            plans,
            schedules,
            independent_costs: base.costs,
            predicted_costs: predicted,
            shared_execution: true,
            materialized: materialization_pass(workload, &coverage),
            planning_time: started.elapsed(),
        })
    }
}

/// Groups queries by their dominant stream (the stream carrying the
/// largest share of their expected pull cost) and executes each group
/// back-to-back, heaviest puller first, so the group's shared items are
/// reused while still in memory this tick.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct BatchAwarePlanner;

impl WorkloadPlanner for BatchAwarePlanner {
    fn name(&self) -> &str {
        "batch-aware"
    }

    fn description(&self) -> &str {
        "group queries by dominant stream; heaviest puller first within each group"
    }

    fn plan(&self, workload: &Workload, engine: &Engine) -> Result<JointPlan> {
        let started = Instant::now();
        let base = baseline(workload, engine, ThreadCount::Fixed(1))?;
        let catalog = workload.catalog();
        let weights = workload.weights();
        let demand = &base.demand;

        // Dominant stream per query: the stream with the largest
        // expected pull cost.
        let dominant: Vec<usize> = demand
            .iter()
            .map(|items| {
                (0..catalog.len())
                    .max_by(|&a, &b| {
                        let ca = items[a] * catalog.cost(StreamId(a));
                        let cb = items[b] * catalog.cost(StreamId(b));
                        ca.total_cmp(&cb)
                    })
                    .unwrap_or(0)
            })
            .collect();

        // Group queries by dominant stream; order groups by their
        // weighted traffic on that stream (descending), then stream id.
        let mut groups: std::collections::BTreeMap<usize, Vec<usize>> =
            std::collections::BTreeMap::new();
        for (q, &k) in dominant.iter().enumerate() {
            groups.entry(k).or_default().push(q);
        }
        let mut ordered_groups: Vec<(f64, usize, Vec<usize>)> = groups
            .into_iter()
            .map(|(k, qs)| {
                let traffic: f64 = qs
                    .iter()
                    .map(|&q| weights[q] * demand[q][k] * catalog.cost(StreamId(k)))
                    .sum();
                (traffic, k, qs)
            })
            .collect();
        ordered_groups.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));

        let mut order = Vec::with_capacity(workload.len());
        for (_, k, mut qs) in ordered_groups {
            // Heaviest puller of the group's stream first: its pull
            // covers the widest window for everyone behind it.
            qs.sort_by(|&a, &b| demand[b][k].total_cmp(&demand[a][k]).then(a.cmp(&b)));
            order.extend(qs);
        }

        let prediction = predict_shared(workload, &order, &base.schedules);
        Ok(JointPlan {
            planner: self.name().to_string(),
            order,
            plans: base.plans,
            schedules: base.schedules,
            independent_costs: base.costs,
            predicted_costs: prediction.per_query,
            shared_execution: true,
            materialized: materialization_pass(workload, &prediction.final_coverage),
            planning_time: started.elapsed(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paotr_core::cost::dnf_eval;
    use paotr_core::leaf::Leaf;
    use paotr_core::prob::Prob;
    use paotr_core::tree::DnfTree;

    fn leaf(s: usize, d: u32, p: f64) -> Leaf {
        Leaf::new(StreamId(s), d, Prob::new(p).unwrap()).unwrap()
    }

    fn overlapping_workload() -> Workload {
        // Four queries, all leaning on streams 0/1, plus private tails.
        let trees = vec![
            DnfTree::from_leaves(vec![
                vec![leaf(0, 4, 0.7), leaf(2, 1, 0.5)],
                vec![leaf(1, 2, 0.6)],
            ])
            .unwrap(),
            DnfTree::from_leaves(vec![vec![leaf(0, 3, 0.8), leaf(1, 3, 0.4)]]).unwrap(),
            DnfTree::from_leaves(vec![
                vec![leaf(1, 4, 0.5)],
                vec![leaf(0, 2, 0.3), leaf(3, 1, 0.9)],
            ])
            .unwrap(),
            DnfTree::from_leaves(vec![vec![leaf(0, 5, 0.6), leaf(2, 2, 0.7)]]).unwrap(),
        ];
        Workload::from_trees(
            trees,
            StreamCatalog::from_costs([2.0, 3.0, 1.0, 0.5]).unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn planner_names_round_trip() {
        for name in planner_names() {
            let p = planner_by_name(name).unwrap();
            assert_eq!(p.name(), name);
        }
        assert!(planner_by_name("nope").is_none());
        assert_eq!(default_planners().len(), 3);
    }

    #[test]
    fn independent_planner_is_the_identity_baseline() {
        let w = overlapping_workload();
        let engine = Engine::new();
        let jp = IndependentPlanner.plan(&w, &engine).unwrap();
        assert_eq!(jp.order, vec![0, 1, 2, 3]);
        assert_eq!(jp.predicted_costs, jp.independent_costs);
        assert!(!jp.shared_execution);
        assert!((jp.sharing_ratio(&w.weights()) - 0.0).abs() < 1e-12);
        assert!((jp.speedup(&w.weights()) - 1.0).abs() < 1e-12);
        for (p, q) in jp.plans.iter().zip(w.queries()) {
            assert_eq!(**p, engine.plan(&q.tree, w.catalog()).unwrap());
        }
    }

    #[test]
    fn joint_planners_beat_or_match_the_baseline_prediction() {
        let w = overlapping_workload();
        let engine = Engine::new();
        let weights = w.weights();
        let indep = IndependentPlanner
            .plan(&w, &engine)
            .unwrap()
            .aggregate_predicted(&weights);
        let shared_greedy = SharedGreedyPlanner::default();
        for planner in [&shared_greedy as &dyn WorkloadPlanner, &BatchAwarePlanner] {
            let jp = planner.plan(&w, &engine).unwrap();
            assert!(jp.shared_execution);
            // order is a permutation of the queries
            let mut o = jp.order.clone();
            o.sort_unstable();
            assert_eq!(o, vec![0, 1, 2, 3], "{}", planner.name());
            let agg = jp.aggregate_predicted(&weights);
            assert!(
                agg <= indep + 1e-9,
                "{}: {agg} vs independent {indep}",
                planner.name()
            );
            assert!(jp.sharing_ratio(&weights) >= -1e-12);
            assert!(jp.speedup(&weights) >= 1.0 - 1e-12);
            // every schedule is valid for its tree, and every stored
            // plan is priced against the *real* catalog (re-plans must
            // not leak effective-catalog costs)
            for ((s, p), q) in jp.schedules.iter().zip(&jp.plans).zip(w.queries()) {
                DnfSchedule::new(s.order().to_vec(), &q.tree).unwrap();
                let real = dnf_eval::expected_cost(&q.tree, w.catalog(), s);
                let stored = p.expected_cost.expect("DNF plans carry costs");
                assert!(
                    (stored - real).abs() < 1e-9,
                    "{}: stored {stored} vs real-catalog {real}",
                    planner.name()
                );
            }
        }
        // with this much overlap, shared-greedy must strictly win
        let sg = SharedGreedyPlanner::default().plan(&w, &engine).unwrap();
        assert!(sg.aggregate_predicted(&weights) < indep * 0.95);
    }

    #[test]
    fn parallel_and_sequential_shared_greedy_agree() {
        // 20 queries: wide enough that the first rounds take the
        // par_map fan-out path (it engages at >= 16 remaining
        // candidates), then drain through the sequential tail.
        for seed in 0..4 {
            let (trees, catalog) = paotr_gen::workload::workload_instance(
                paotr_gen::workload::WorkloadConfig::with_overlap(20, 0.6),
                seed,
            );
            let w = Workload::from_trees(trees, catalog).unwrap();
            let engine = Engine::new();
            let seq = SharedGreedyPlanner {
                threads: ThreadCount::Fixed(1),
            }
            .plan(&w, &engine)
            .unwrap();
            for threads in [2, 3, 4] {
                let par = SharedGreedyPlanner {
                    threads: ThreadCount::Fixed(threads),
                }
                .plan(&w, &engine)
                .unwrap();
                assert_eq!(seq.order, par.order, "seed {seed}, {threads} threads");
                assert_eq!(seq.predicted_costs, par.predicted_costs);
                assert_eq!(seq.plans, par.plans);
                assert_eq!(seq.schedules, par.schedules);
                assert_eq!(seq.materialized, par.materialized);
            }
        }
    }

    #[test]
    fn joint_planners_materialize_hot_streams_only() {
        let w = overlapping_workload();
        let engine = Engine::new();
        for planner in [
            &SharedGreedyPlanner::default() as &dyn WorkloadPlanner,
            &BatchAwarePlanner,
        ] {
            let jp = planner.plan(&w, &engine).unwrap();
            let streams: Vec<usize> = jp.materialized.iter().map(|m| m.stream.0).collect();
            // Stream 0 carries all four queries' windows (up to 5
            // items): its expected shared traffic dwarfs the one-item
            // maintenance delta.
            assert!(streams.contains(&0), "{}: {streams:?}", planner.name());
            // Stream 3 is one 1-item leaf behind an OR: re-pulling at
            // most one item sometimes can never beat maintaining one
            // item every tick.
            assert!(!streams.contains(&3), "{}: {streams:?}", planner.name());
            for m in &jp.materialized {
                assert!(m.term.should_materialize());
                assert_eq!(m.window, m.term.window);
                assert!(m.term.readers > 0);
            }
        }
    }

    #[test]
    fn independent_baseline_never_materializes() {
        let w = overlapping_workload();
        let jp = IndependentPlanner.plan(&w, &Engine::new()).unwrap();
        assert!(jp.materialized.is_empty());
    }

    #[test]
    fn single_query_workload_reduces_to_the_per_query_plan() {
        let tree = DnfTree::from_leaves(vec![
            vec![leaf(0, 3, 0.4), leaf(1, 1, 0.7)],
            vec![leaf(0, 5, 0.6)],
        ])
        .unwrap();
        let cat = StreamCatalog::from_costs([2.0, 3.0]).unwrap();
        let w = Workload::from_trees(vec![tree.clone()], cat.clone()).unwrap();
        let engine = Engine::new();
        let per_query = engine.plan(&tree, &cat).unwrap();
        for planner in default_planners() {
            let jp = planner.plan(&w, &engine).unwrap();
            assert_eq!(jp.order, vec![0], "{}", planner.name());
            assert_eq!(*jp.plans[0], per_query, "{}", planner.name());
            assert!(
                (jp.predicted_costs[0] - per_query.expected_cost.unwrap()).abs() < 1e-12,
                "{}",
                planner.name()
            );
        }
    }

    #[test]
    fn weights_skew_the_aggregates() {
        let w = overlapping_workload();
        let engine = Engine::new();
        let jp = SharedGreedyPlanner::default().plan(&w, &engine).unwrap();
        let uniform = jp.aggregate_independent(&[1.0, 1.0, 1.0, 1.0]);
        let skewed = jp.aggregate_independent(&[10.0, 1.0, 1.0, 1.0]);
        assert!(skewed > uniform);
    }
}
