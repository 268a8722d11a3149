//! The serving facade: registry dispatch + an LRU plan cache.
//!
//! A production deployment re-plans the same queries constantly (every
//! device evaluation wave, every calibration refresh), so the [`Engine`]
//! memoizes [`Plan`]s keyed by `(query fingerprint, catalog fingerprint,
//! planner name)`. Planning runs outside the cache lock; the cache is a
//! `Mutex`-protected map, so one `Engine` can be shared across threads
//! (`Engine: Send + Sync`).

use super::fingerprint::catalog_fingerprint;
use super::registry::PlannerRegistry;
use super::{Plan, QueryRef};
use crate::error::Result;
use crate::stream::StreamCatalog;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Tuning knobs for [`Engine`].
#[derive(Debug, Clone)]
pub(crate) struct EngineConfig {
    /// Maximum number of cached plans; the least-recently-used entry is
    /// evicted on overflow. `0` disables caching.
    pub cache_capacity: usize,
}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig {
            cache_capacity: 1024,
        }
    }
}

/// Cache effectiveness counters (monotonic since construction or the
/// last [`Engine::clear_cache`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Plans served from the cache.
    pub hits: u64,
    /// Plans computed by a planner.
    pub misses: u64,
    /// Entries currently cached.
    pub entries: usize,
    /// Configured capacity.
    pub capacity: usize,
    /// Total wall-time spent actually planning (cache misses), in
    /// nanoseconds. Together with `hit_nanos` this makes cache wins
    /// attributable: work paid once vs. the latency of serving it again.
    pub miss_nanos: u64,
    /// Total wall-time spent serving plans from the cache (lookup +
    /// clone on hits), in nanoseconds.
    pub hit_nanos: u64,
}

impl CacheStats {
    /// Fraction of lookups served from the cache (0 when none yet).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Wall-time spent computing plans (cache misses).
    pub fn planned_time(&self) -> std::time::Duration {
        std::time::Duration::from_nanos(self.miss_nanos)
    }

    /// Wall-time spent serving plans from the cache (hits).
    pub fn served_time(&self) -> std::time::Duration {
        std::time::Duration::from_nanos(self.hit_nanos)
    }
}

type CacheKey = (u64, u64, String);

/// A small LRU map: `HashMap` plus a monotone recency stamp per entry.
/// Eviction scans for the minimum stamp — O(capacity), which is fine for
/// the few-thousand-entry caches the engine uses (no pointer-chasing
/// list to maintain, trivially correct).
struct LruCache {
    capacity: usize,
    tick: u64,
    map: HashMap<CacheKey, (Plan, u64)>,
}

impl LruCache {
    fn new(capacity: usize) -> LruCache {
        LruCache {
            capacity,
            tick: 0,
            map: HashMap::new(),
        }
    }

    fn get(&mut self, key: &CacheKey) -> Option<Plan> {
        self.tick += 1;
        let tick = self.tick;
        self.map.get_mut(key).map(|(plan, stamp)| {
            *stamp = tick;
            plan.clone()
        })
    }

    fn insert(&mut self, key: CacheKey, plan: Plan) {
        if self.capacity == 0 {
            return;
        }
        self.tick += 1;
        if self.map.len() >= self.capacity && !self.map.contains_key(&key) {
            if let Some(oldest) = self
                .map
                .iter()
                .min_by_key(|(_, (_, stamp))| *stamp)
                .map(|(k, _)| k.clone())
            {
                self.map.remove(&oldest);
            }
        }
        self.map.insert(key, (plan, self.tick));
    }

    fn clear(&mut self) {
        self.map.clear();
    }

    fn len(&self) -> usize {
        self.map.len()
    }
}

/// The unified planning entry point: looks planners up in a
/// [`PlannerRegistry`], dispatches [`QueryRef`]s to the right algorithm,
/// and memoizes results.
///
/// ```
/// use paotr_core::plan::Engine;
/// use paotr_core::prelude::*;
///
/// let engine = Engine::new();
/// let mut b = InstanceBuilder::new();
/// let a = b.stream("A", 2.0);
/// let c = b.stream("C", 0.5);
/// let inst = b
///     .term(|t| t.leaf(a, 3, 0.4).leaf(c, 1, 0.7))
///     .term(|t| t.leaf(a, 5, 0.6))
///     .build()
///     .unwrap();
///
/// let first = engine.plan(&inst.tree, &inst.catalog).unwrap();
/// let again = engine.plan(&inst.tree, &inst.catalog).unwrap();
/// assert_eq!(first, again);
/// assert_eq!(engine.cache_stats().hits, 1);
/// ```
pub struct Engine {
    registry: PlannerRegistry,
    cache: Mutex<LruCache>,
    hits: AtomicU64,
    misses: AtomicU64,
    hit_nanos: AtomicU64,
    miss_nanos: AtomicU64,
}

impl Engine {
    /// Engine over [`PlannerRegistry::with_defaults`] with the default
    /// cache size.
    pub fn new() -> Engine {
        Engine::with_registry(PlannerRegistry::with_defaults(), EngineConfig::default())
    }

    /// Engine over a custom registry and configuration.
    pub(crate) fn with_registry(registry: PlannerRegistry, config: EngineConfig) -> Engine {
        Engine {
            registry,
            cache: Mutex::new(LruCache::new(config.cache_capacity)),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            hit_nanos: AtomicU64::new(0),
            miss_nanos: AtomicU64::new(0),
        }
    }

    /// The registry backing this engine.
    pub fn registry(&self) -> &PlannerRegistry {
        &self.registry
    }

    /// Plans with the registry's default planner for the query class
    /// (see `PlannerRegistry::default_for`).
    pub fn plan<'a>(
        &self,
        query: impl Into<QueryRef<'a>>,
        catalog: &StreamCatalog,
    ) -> Result<Plan> {
        let query = query.into();
        let planner_name = self.registry.default_for(&query)?.name().to_string();
        self.plan_cached(&planner_name, &query, catalog, catalog_fingerprint(catalog))
    }

    /// Plans with a specific planner by registry name.
    pub fn plan_with<'a>(
        &self,
        planner: &str,
        query: impl Into<QueryRef<'a>>,
        catalog: &StreamCatalog,
    ) -> Result<Plan> {
        let query = query.into();
        self.registry.get_required(planner)?;
        self.plan_cached(planner, &query, catalog, catalog_fingerprint(catalog))
    }

    /// Plans many queries against one catalog (the shared-stream serving
    /// shape: hundreds of queries over the same sensor fleet), fanned out
    /// over `threads` with [`paotr_par::par_map`]. The catalog is
    /// fingerprinted once; each query gets its class-appropriate default
    /// planner, and the cache carries repeated queries across the batch.
    /// One thread plans inline on the caller in query order; since plans
    /// are deterministic per `(query, catalog, planner)` key, every thread
    /// count returns the same plans and fills the same cache entries.
    pub fn plan_batch(
        &self,
        queries: &[QueryRef<'_>],
        catalog: &StreamCatalog,
        threads: paotr_par::ThreadCount,
    ) -> Result<Vec<Plan>> {
        let catalog_fp = catalog_fingerprint(catalog);
        paotr_par::par_map(queries, threads, |query| {
            let name = self.registry.default_for(query)?.name().to_string();
            self.plan_cached(&name, query, catalog, catalog_fp)
        })
        .into_iter()
        .collect()
    }

    /// Current cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        let cache = self.lock_cache();
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: cache.len(),
            capacity: cache.capacity,
            hit_nanos: self.hit_nanos.load(Ordering::Relaxed),
            miss_nanos: self.miss_nanos.load(Ordering::Relaxed),
        }
    }

    /// Drops every cached plan and resets the counters.
    pub fn clear_cache(&self) {
        self.lock_cache().clear();
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
        self.hit_nanos.store(0, Ordering::Relaxed);
        self.miss_nanos.store(0, Ordering::Relaxed);
    }

    fn lock_cache(&self) -> std::sync::MutexGuard<'_, LruCache> {
        self.cache
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn plan_cached(
        &self,
        planner_name: &str,
        query: &QueryRef<'_>,
        catalog: &StreamCatalog,
        catalog_fp: u64,
    ) -> Result<Plan> {
        let started = std::time::Instant::now();
        let key = (query.fingerprint(), catalog_fp, planner_name.to_string());
        if let Some(plan) = self.lock_cache().get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            self.hit_nanos
                .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
            return Ok(plan);
        }
        // Plan outside the lock: planning can be orders of magnitude
        // slower than a lookup, and concurrent planners must not serialize
        // on the cache. Racing threads may duplicate work; last insert
        // wins, which is harmless (plans for one key are deterministic).
        let planner = self.registry.get_required(planner_name)?;
        // Planners index the catalog by stream id and would panic on a
        // leaf past its end; reject such a query with a typed error.
        query.validate(catalog)?;
        let planning_started = std::time::Instant::now();
        let plan = planner.plan(query, catalog)?;
        // Every `Engine::plan*` entry point funnels through here, so in
        // debug builds each freshly planned (cache-miss) plan passes
        // the static verifier before it is served or cached — the whole
        // test suite doubles as verifier soak. Cache hits were verified
        // when inserted; release builds skip the check entirely.
        #[cfg(debug_assertions)]
        {
            let violations = super::verify::verify_plan(&plan, query, catalog);
            assert!(
                violations.is_empty(),
                "planner `{planner_name}` produced a plan that fails static verification:\n{}",
                violations
                    .iter()
                    .map(|v| format!("  - {v}"))
                    .collect::<Vec<_>>()
                    .join("\n")
            );
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.miss_nanos.fetch_add(
            planning_started.elapsed().as_nanos() as u64,
            Ordering::Relaxed,
        );
        self.lock_cache().insert(key, plan.clone());
        Ok(plan)
    }
}

impl Default for Engine {
    fn default() -> Engine {
        Engine::new()
    }
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("registry", &self.registry)
            .field("cache", &self.cache_stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::leaf::Leaf;
    use crate::prob::Prob;
    use crate::stream::StreamId;
    use crate::tree::{AndTree, DnfTree};

    fn leaf(s: usize, d: u32, p: f64) -> Leaf {
        Leaf::new(StreamId(s), d, Prob::new(p).unwrap()).unwrap()
    }

    fn shared_dnf(seed: usize) -> DnfTree {
        DnfTree::from_leaves(vec![
            vec![leaf(0, 1 + (seed as u32 % 3), 0.4), leaf(1, 1, 0.7)],
            vec![leaf(0, 5, 0.6)],
        ])
        .unwrap()
    }

    #[test]
    fn cache_hit_returns_identical_plan() {
        let engine = Engine::new();
        let tree = shared_dnf(0);
        let cat = StreamCatalog::from_costs([2.0, 3.0]).unwrap();
        let cold = engine.plan(&tree, &cat).unwrap();
        assert_eq!(engine.cache_stats().misses, 1);
        let warm = engine.plan(&tree, &cat).unwrap();
        assert_eq!(engine.cache_stats().hits, 1);
        assert_eq!(cold, warm);
        assert_eq!(
            cold.planning_time, warm.planning_time,
            "hits report original time"
        );
    }

    #[test]
    fn cache_distinguishes_planner_catalog_and_query() {
        let engine = Engine::new();
        let tree = shared_dnf(0);
        let cat_a = StreamCatalog::from_costs([2.0, 3.0]).unwrap();
        let cat_b = StreamCatalog::from_costs([2.0, 4.0]).unwrap();
        engine.plan(&tree, &cat_a).unwrap();
        engine.plan_with("leaf-dec-q", &tree, &cat_a).unwrap();
        engine.plan(&tree, &cat_b).unwrap();
        engine.plan(&shared_dnf(1), &cat_a).unwrap();
        let stats = engine.cache_stats();
        assert_eq!(stats.hits, 0, "four distinct keys");
        assert_eq!(stats.misses, 4);
        assert_eq!(stats.entries, 4);
    }

    #[test]
    fn plan_batch_shares_the_cache() {
        let engine = Engine::new();
        let trees: Vec<DnfTree> = (0..6).map(|i| shared_dnf(i % 2)).collect();
        let queries: Vec<QueryRef<'_>> = trees.iter().map(QueryRef::from).collect();
        let cat = StreamCatalog::from_costs([2.0, 3.0]).unwrap();
        let plans = engine
            .plan_batch(&queries, &cat, paotr_par::ThreadCount::Fixed(1))
            .unwrap();
        assert_eq!(plans.len(), 6);
        let stats = engine.cache_stats();
        assert_eq!(stats.misses, 2, "two distinct trees");
        assert_eq!(stats.hits, 4);
        // batch output matches per-query planning
        for (q, p) in queries.iter().zip(&plans) {
            assert_eq!(&engine.plan(*q, &cat).unwrap(), p);
        }
        assert!(engine.cache_stats().hit_rate() > 0.5);
    }

    #[test]
    fn lru_evicts_the_least_recently_used() {
        let engine = Engine::with_registry(
            PlannerRegistry::with_defaults(),
            EngineConfig { cache_capacity: 2 },
        );
        let t0 = shared_dnf(0);
        let t1 = shared_dnf(1);
        let t2 = shared_dnf(2);
        let cat = StreamCatalog::from_costs([2.0, 3.0]).unwrap();
        engine.plan(&t0, &cat).unwrap(); // {t0}
        engine.plan(&t1, &cat).unwrap(); // {t0, t1}
        engine.plan(&t0, &cat).unwrap(); // hit; t0 freshened
        engine.plan(&t2, &cat).unwrap(); // evicts t1
        engine.plan(&t0, &cat).unwrap(); // still a hit
        engine.plan(&t1, &cat).unwrap(); // miss: was evicted
        let stats = engine.cache_stats();
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.misses, 4);
        assert_eq!(stats.entries, 2);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let engine = Engine::with_registry(
            PlannerRegistry::with_defaults(),
            EngineConfig { cache_capacity: 0 },
        );
        let tree = shared_dnf(0);
        let cat = StreamCatalog::from_costs([2.0, 3.0]).unwrap();
        engine.plan(&tree, &cat).unwrap();
        engine.plan(&tree, &cat).unwrap();
        let stats = engine.cache_stats();
        assert_eq!(stats.hits, 0);
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.entries, 0);
    }

    #[test]
    fn cache_stats_attribute_planned_vs_served_time() {
        let engine = Engine::new();
        let tree = shared_dnf(0);
        let cat = StreamCatalog::from_costs([2.0, 3.0]).unwrap();
        engine.plan(&tree, &cat).unwrap();
        let after_miss = engine.cache_stats();
        assert!(after_miss.miss_nanos > 0, "planning time was metered");
        assert_eq!(after_miss.hit_nanos, 0);
        engine.plan(&tree, &cat).unwrap();
        let after_hit = engine.cache_stats();
        assert_eq!(after_hit.miss_nanos, after_miss.miss_nanos);
        assert!(after_hit.hit_nanos > 0, "cache-serve latency was metered");
        assert_eq!(
            after_hit.planned_time().as_nanos() as u64,
            after_hit.miss_nanos
        );
        assert_eq!(
            after_hit.served_time().as_nanos() as u64,
            after_hit.hit_nanos
        );
        engine.clear_cache();
        let cleared = engine.cache_stats();
        assert_eq!((cleared.hit_nanos, cleared.miss_nanos), (0, 0));
    }

    #[test]
    fn parallel_batch_matches_sequential_batch() {
        let trees: Vec<DnfTree> = (0..12).map(|i| shared_dnf(i % 4)).collect();
        let queries: Vec<QueryRef<'_>> = trees.iter().map(QueryRef::from).collect();
        let cat = StreamCatalog::from_costs([2.0, 3.0]).unwrap();
        let one = paotr_par::ThreadCount::Fixed(1);
        let sequential = Engine::new().plan_batch(&queries, &cat, one).unwrap();
        let engine = Engine::new();
        let parallel = engine
            .plan_batch(&queries, &cat, paotr_par::ThreadCount::Fixed(4))
            .unwrap();
        assert_eq!(sequential, parallel);
        // the parallel path populates the same cache
        assert_eq!(engine.cache_stats().entries, 3, "seeds 0 and 3 collide");
        assert!(engine.plan_batch(&[], &cat, one).unwrap().is_empty());
    }

    #[test]
    fn plan_workload_defaults_weights_and_sums_costs() {
        // Workload weights live on `paotr_multi::Workload`; the engine's
        // batch path plans each query at unit weight, so the batch total
        // is the plain sum of the per-query plan costs at any thread count.
        let engine = Engine::new();
        let trees: Vec<DnfTree> = (0..3).map(shared_dnf).collect();
        let queries: Vec<QueryRef<'_>> = trees.iter().map(QueryRef::from).collect();
        let cat = StreamCatalog::from_costs([2.0, 3.0]).unwrap();
        let sum: f64 = queries
            .iter()
            .map(|q| Engine::new().plan(*q, &cat).unwrap().expected_cost.unwrap())
            .sum();
        for threads in [1, 3] {
            let plans = engine
                .plan_batch(&queries, &cat, paotr_par::ThreadCount::Fixed(threads))
                .unwrap();
            assert_eq!(plans.len(), 3);
            let total: f64 = plans.iter().map(|p| p.expected_cost.unwrap()).sum();
            assert!((total - sum).abs() < 1e-12, "{threads} threads");
        }
    }

    #[test]
    fn plan_workload_rejects_malformed_inputs() {
        // A query over a stream the catalog lacks fails the whole batch
        // with a typed error, whichever thread plans it.
        let engine = Engine::new();
        let good = shared_dnf(0);
        let bad = DnfTree::from_leaves(vec![vec![leaf(2, 1, 0.5)]]).unwrap();
        let cat = StreamCatalog::from_costs([2.0, 3.0]).unwrap();
        let queries = [QueryRef::from(&good), QueryRef::from(&bad)];
        for threads in [1, 2] {
            let err = engine
                .plan_batch(&queries, &cat, paotr_par::ThreadCount::Fixed(threads))
                .unwrap_err();
            assert!(
                matches!(err, crate::error::Error::UnknownStream { stream: 2, .. }),
                "{threads} threads: {err}"
            );
        }
    }

    #[test]
    fn seeded_leaf_random_planners_get_distinct_names_and_cache_entries() {
        use super::super::planners::HeuristicPlanner;
        use crate::algo::heuristics::Heuristic;
        use crate::plan::Planner;
        use std::sync::Arc;

        // The default seed keeps the stable registry id…
        let default_named = HeuristicPlanner::new(Heuristic::LeafRandom {
            seed: Heuristic::DEFAULT_RANDOM_SEED,
        });
        assert_eq!(default_named.name(), "leaf-random");
        // …while other seeds fold the seed into the name, so two
        // registrations with different seeds can coexist and cannot
        // serve each other's cached plans.
        let mut registry = PlannerRegistry::new();
        let a = HeuristicPlanner::new(Heuristic::LeafRandom { seed: 1 });
        let b = HeuristicPlanner::new(Heuristic::LeafRandom { seed: 2 });
        let (name_a, name_b) = (a.name().to_string(), b.name().to_string());
        assert_ne!(name_a, name_b);
        assert_eq!(name_a, "leaf-random@seed=1");
        registry.register(Arc::new(a)).unwrap();
        registry.register(Arc::new(b)).unwrap();
        let engine = Engine::with_registry(registry, EngineConfig::default());

        let tree = DnfTree::from_leaves(vec![
            vec![leaf(0, 1, 0.4), leaf(1, 2, 0.6), leaf(0, 3, 0.5)],
            vec![leaf(1, 1, 0.7), leaf(0, 2, 0.3), leaf(1, 4, 0.8)],
            vec![leaf(0, 4, 0.2), leaf(1, 3, 0.9)],
        ])
        .unwrap();
        let cat = StreamCatalog::from_costs([2.0, 3.0]).unwrap();
        let plan_a = engine.plan_with(&name_a, &tree, &cat).unwrap();
        let plan_b = engine.plan_with(&name_b, &tree, &cat).unwrap();
        assert_eq!(engine.cache_stats().misses, 2, "two distinct cache keys");
        assert_ne!(
            plan_a.body, plan_b.body,
            "different seeds shuffle differently"
        );
        // Each name keeps serving its own plan from the cache.
        assert_eq!(engine.plan_with(&name_a, &tree, &cat).unwrap(), plan_a);
        assert_eq!(engine.plan_with(&name_b, &tree, &cat).unwrap(), plan_b);
        assert_eq!(engine.cache_stats().hits, 2);
    }

    #[test]
    fn unknown_planner_name_errors() {
        let engine = Engine::new();
        let tree = shared_dnf(0);
        let cat = StreamCatalog::from_costs([2.0, 3.0]).unwrap();
        assert!(matches!(
            engine.plan_with("nope", &tree, &cat),
            Err(crate::error::Error::UnknownPlanner(_))
        ));
    }

    #[test]
    fn and_tree_defaults_to_algorithm_1() {
        let engine = Engine::new();
        let tree = AndTree::new(vec![leaf(0, 1, 0.75), leaf(0, 2, 0.1), leaf(1, 1, 0.5)]).unwrap();
        let plan = engine.plan(&tree, &StreamCatalog::unit(2)).unwrap();
        assert_eq!(plan.planner, "greedy");
        assert!((plan.expected_cost.unwrap() - 1.825).abs() < 1e-12);
    }

    #[test]
    fn engine_is_shareable_across_threads() {
        let engine = Engine::new();
        let cat = StreamCatalog::from_costs([2.0, 3.0]).unwrap();
        let trees: Vec<DnfTree> = (0..4).map(shared_dnf).collect();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for t in &trees {
                        engine.plan(t, &cat).unwrap();
                    }
                });
            }
        });
        let stats = engine.cache_stats();
        assert_eq!(stats.hits + stats.misses, 16);
        assert_eq!(stats.entries, 3, "seeds 0 and 3 build the same tree");
    }
}
