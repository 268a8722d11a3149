//! The session registry: live queries, the union catalog, and the
//! incrementally-maintained joint plan.
//!
//! Clients register qlang queries at any tick and unregister them
//! later; the registry keeps the surviving set planned as one
//! [`Workload`] the whole time. Churn is absorbed in two steps:
//!
//! * **patch** — a `register` plans only the new query (through the
//!   [`Engine`]'s cached per-query path) and appends it to the current
//!   execution order; an `unregister` splices the session out of the
//!   order. Serving never pauses for a full joint plan.
//! * **re-plan** — after enough churn (or on demand) the configured
//!   joint planner re-runs over the survivors. Unchanged queries hit
//!   the engine's fingerprint-keyed plan cache, so only new or drifted
//!   queries re-enter the planner — and the result is byte-identical
//!   to a cold full re-plan of the same surviving set, a property the
//!   daemon's end-to-end test pins via [`SessionRegistry::plan_digest`].

use crate::{Error, Result};
use paotr_core::leaf::LeafRef;
use paotr_core::plan::Engine;
use paotr_core::schedule::DnfSchedule;
use paotr_core::stream::StreamCatalog;
use paotr_core::tree::DnfTree;
use paotr_exec::{DriftState, TickQuery};
use paotr_multi::{planner_by_name, Workload, WorkloadQuery};
use paotr_qlang as qlang;
use std::collections::BTreeMap;
use std::sync::Arc;
use stream_sim::{SimLeaf, SimQuery};

/// Largest accepted `max_window`. Every stream buffer is sized from
/// `max_window` and a new stream replays `max_window + tick` items, so
/// the ceiling keeps one configuration value from wedging or aborting
/// the daemon at its first tick.
pub const MAX_WINDOW: u32 = 65_536;

/// One live registered query.
#[derive(Debug, Clone)]
pub struct Session {
    /// Registry-assigned id (stable for the session's lifetime).
    pub id: u64,
    /// Workload name (`c{id}` — unique by construction).
    pub name: String,
    /// The qlang source the client registered.
    pub source: String,
    /// Admission weight.
    pub weight: f64,
    /// Tick at which the session was registered.
    pub registered_tick: u64,
    /// Concrete executable query (streams remapped onto the union
    /// catalog).
    pub sim: SimQuery,
    /// The scheduling tree under the session's current calibration.
    pub tree: DnfTree,
    /// The session's current leaf schedule.
    pub schedule: Arc<DnfSchedule>,
    /// Per-leaf calibration / drift estimators.
    pub drift: DriftState,
}

/// Live sessions, their union stream catalog, and the joint execution
/// order.
#[derive(Debug, Clone)]
pub struct SessionRegistry {
    sessions: BTreeMap<u64, Session>,
    catalog: StreamCatalog,
    order: Vec<u64>,
    next_id: u64,
    planner: String,
    shared: bool,
    max_sessions: usize,
    max_window: u32,
}

impl SessionRegistry {
    /// An empty registry planning through `planner` (a
    /// `paotr_multi::planner_names()` entry), holding at most
    /// `max_sessions` sessions with windows at most `max_window`
    /// (itself at most [`MAX_WINDOW`]).
    pub(crate) fn new(
        planner: &str,
        max_sessions: usize,
        max_window: u32,
    ) -> Result<SessionRegistry> {
        if planner_by_name(planner).is_none() {
            return Err(Error::Rejected(format!(
                "unknown planner `{planner}` (expected one of {:?})",
                paotr_multi::planner_names()
            )));
        }
        if max_sessions == 0 || max_window == 0 {
            return Err(Error::Rejected(
                "max_sessions and max_window must be positive".into(),
            ));
        }
        if max_window > MAX_WINDOW {
            return Err(Error::Rejected(format!(
                "max_window {max_window} exceeds the limit {MAX_WINDOW}"
            )));
        }
        Ok(SessionRegistry {
            sessions: BTreeMap::new(),
            catalog: StreamCatalog::new(),
            order: Vec::new(),
            next_id: 0,
            shared: planner != "independent",
            planner: planner.to_string(),
            max_sessions,
            max_window,
        })
    }

    /// Number of live sessions.
    pub fn len(&self) -> usize {
        self.sessions.len()
    }

    /// True when no sessions are registered.
    pub fn is_empty(&self) -> bool {
        self.sessions.is_empty()
    }

    /// The union catalog (append-only: streams survive their readers).
    pub fn catalog(&self) -> &StreamCatalog {
        &self.catalog
    }

    /// The joint execution order, as session ids.
    pub fn order(&self) -> &[u64] {
        &self.order
    }

    /// Whether admitted sessions share one device memory per tick.
    pub fn shared(&self) -> bool {
        self.shared
    }

    /// The session with id `id`.
    pub fn session(&self, id: u64) -> Option<&Session> {
        self.sessions.get(&id)
    }

    /// Live sessions in id order.
    pub fn sessions(&self) -> impl Iterator<Item = &Session> {
        self.sessions.values()
    }

    /// Compiles `source`, merges its streams into the union catalog,
    /// plans it through `engine`'s cached path, and appends it to the
    /// execution order. Returns the new session id.
    pub(crate) fn register(
        &mut self,
        source: &str,
        weight: f64,
        tick: u64,
        engine: &Engine,
    ) -> Result<u64> {
        if self.sessions.len() >= self.max_sessions {
            return Err(Error::Rejected(format!(
                "registry full ({} sessions)",
                self.max_sessions
            )));
        }
        if !weight.is_finite() || weight <= 0.0 {
            return Err(Error::Rejected(format!(
                "weight {weight} must be a finite value > 0"
            )));
        }
        let expr = qlang::parse(source)
            .map_err(|e| Error::Query(format!("{} (at offset {})", e.message, e.offset)))?;
        let compiled = qlang::compile(&expr, &std::collections::HashMap::new())
            .map_err(|e| Error::Query(e.message))?;
        let local_sim = qlang::to_sim_query(&expr, &compiled).ok_or_else(|| {
            Error::Query("query is not in DNF shape (OR of ANDs of predicates)".into())
        })?;
        let widest = local_sim
            .max_windows(compiled.catalog.len())
            .into_iter()
            .max()
            .unwrap_or(0);
        if widest > self.max_window {
            return Err(Error::Rejected(format!(
                "window {widest} exceeds the daemon's max window {}",
                self.max_window
            )));
        }

        // Merge the query's streams into the union catalog (by name;
        // first registration fixes a stream's cost) and remap.
        let mut map = Vec::with_capacity(compiled.catalog.len());
        for k in 0..compiled.catalog.len() {
            let local = paotr_core::stream::StreamId(k);
            let name = compiled.catalog.name(local);
            let global = match self.catalog.find(&name) {
                Some(id) => id,
                None => self
                    .catalog
                    .add_named(&name, compiled.catalog.cost(local))
                    .map_err(|e| Error::Rejected(format!("catalog: {e}")))?,
            };
            map.push(global);
        }
        let sim = SimQuery::new(
            local_sim
                .terms()
                .iter()
                .map(|term| {
                    term.iter()
                        .map(|l| SimLeaf {
                            stream: map[l.stream.0],
                            predicate: l.predicate,
                        })
                        .collect()
                })
                .collect(),
        )
        .map_err(|e| Error::Query(format!("invalid query: {e}")))?;

        // Calibrated probabilities come from the source's `@`
        // annotations (default 0.5), in flat term-major order.
        let dnf = compiled
            .tree
            .as_dnf()
            .ok_or_else(|| Error::Query("query is not DNF-shaped".into()))?;
        let probs: Vec<f64> = dnf.leaves().map(|(_, l)| l.prob.value()).collect();
        let tree = sim.skeleton(&probs);
        let schedule = plan_schedule(engine, &tree, &self.catalog)?;

        let id = self.next_id;
        self.next_id += 1;
        let drift = DriftState::new(&tree);
        self.sessions.insert(
            id,
            Session {
                id,
                name: format!("c{id}"),
                source: source.to_string(),
                weight,
                registered_tick: tick,
                sim,
                tree,
                schedule: Arc::new(schedule),
                drift,
            },
        );
        self.order.push(id);
        Ok(id)
    }

    /// Removes session `id` and splices it out of the execution order.
    pub(crate) fn unregister(&mut self, id: u64) -> Result<()> {
        if self.sessions.remove(&id).is_none() {
            return Err(Error::Rejected(format!("unknown session id {id}")));
        }
        self.order.retain(|&q| q != id);
        Ok(())
    }

    /// The survivors as a [`Workload`] (sessions in id order).
    pub(crate) fn workload(&self) -> Result<Workload> {
        let queries = self
            .sessions
            .values()
            .map(|s| WorkloadQuery {
                name: s.name.clone(),
                tree: s.tree.clone(),
                weight: s.weight,
            })
            .collect();
        Workload::new(queries, self.catalog.clone())
            .map_err(|e| Error::Plan(format!("invalid workload: {e}")))
    }

    /// Full joint re-plan of the surviving set through `engine`.
    /// Survivors whose trees are unchanged hit the engine's plan cache,
    /// so only new or re-calibrated queries re-enter the planner.
    pub fn replan(&mut self, engine: &Engine) -> Result<()> {
        if self.sessions.is_empty() {
            self.order.clear();
            return Ok(());
        }
        let workload = self.workload()?;
        let planner = planner_by_name(&self.planner).expect("validated in new");
        let joint = planner
            .plan(&workload, engine)
            .map_err(|e| Error::Plan(format!("joint planning failed: {e}")))?;
        let ids: Vec<u64> = self.sessions.keys().copied().collect();
        self.order = joint.order.iter().map(|&i| ids[i]).collect();
        self.shared = joint.shared_execution;
        for (i, id) in ids.iter().enumerate() {
            let session = self.sessions.get_mut(id).expect("live id");
            session.schedule = joint.schedules[i].clone();
        }
        Ok(())
    }

    /// Every session in id order, as the tick driver runs it: its
    /// query and schedule, and its drift estimator to fold traces into.
    pub(crate) fn tick_queries(&mut self) -> Vec<TickQuery<'_>> {
        self.sessions
            .values_mut()
            .map(|s| TickQuery {
                sim: &s.sim,
                schedule: &s.schedule,
                drift: &mut s.drift,
            })
            .collect()
    }

    /// Adopts a re-calibrated probability vector for session `id` and
    /// re-plans that query alone through `engine`.
    pub(crate) fn recalibrate(&mut self, id: u64, probs: Vec<f64>, engine: &Engine) -> Result<()> {
        let catalog = self.catalog.clone();
        let session = self
            .sessions
            .get_mut(&id)
            .ok_or_else(|| Error::Rejected(format!("unknown session id {id}")))?;
        let tree = session.sim.skeleton(&probs);
        let schedule = plan_schedule(engine, &tree, &catalog)?;
        session.tree = tree;
        session.schedule = Arc::new(schedule);
        session.drift.reset_to(probs);
        Ok(())
    }

    /// A canonical one-line rendering of the current joint plan, as the
    /// `plan` reply carries it: the execution order (session ids) plus
    /// every session's leaf schedule in id order. Two plans are
    /// byte-identical exactly when their digests are equal.
    pub fn plan_digest(&self) -> String {
        self.plan_json().to_string_compact()
    }

    /// The current joint plan as a JSON document (see
    /// [`SessionRegistry::plan_digest`]).
    pub(crate) fn plan_json(&self) -> crate::json::Json {
        use crate::json::Json;
        let schedules: Vec<Json> = self
            .sessions
            .values()
            .map(|s| {
                Json::Obj(vec![
                    ("id".into(), Json::from_u64(s.id)),
                    (
                        "order".into(),
                        Json::Arr(
                            s.schedule
                                .order()
                                .iter()
                                .map(|r| Json::u64_arr([r.term as u64, r.leaf as u64]))
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect();
        Json::obj([
            ("order", Json::u64_arr(self.order.iter().copied())),
            ("schedules", Json::Arr(schedules)),
        ])
    }

    /// What a **cold** full re-plan of the surviving set would produce:
    /// the same workload planned through a caller-supplied engine
    /// (pass a fresh `Engine::new()` for a genuinely cold run), rendered
    /// as a [`SessionRegistry::plan_digest`]-comparable digest.
    pub fn cold_plan_digest(&self, engine: &Engine) -> Result<String> {
        let mut cold = self.clone();
        cold.replan(engine)?;
        Ok(cold.plan_digest())
    }

    /// Restores a registry from snapshot parts (crate-internal; the
    /// parts come from a snapshot that passed `Snapshot::validate`).
    pub(crate) fn from_restored_parts(parts: RestoredParts) -> Result<SessionRegistry> {
        let RestoredParts {
            planner,
            max_sessions,
            max_window,
            shared,
            catalog,
            sessions,
            order,
            next_id,
        } = parts;
        let mut registry = SessionRegistry::new(&planner, max_sessions, max_window)?;
        registry.shared = shared;
        registry.catalog = catalog;
        registry.sessions = sessions.into_iter().map(|s| (s.id, s)).collect();
        registry.order = order;
        registry.next_id = next_id;
        Ok(registry)
    }

    /// The value `next_id` will assign (persisted so ids never recycle
    /// across restarts).
    pub(crate) fn next_id(&self) -> u64 {
        self.next_id
    }
}

/// Everything [`SessionRegistry::from_restored_parts`] needs to rebuild
/// a registry from a validated snapshot.
pub(crate) struct RestoredParts {
    pub planner: String,
    pub max_sessions: usize,
    pub max_window: u32,
    pub shared: bool,
    pub catalog: StreamCatalog,
    pub sessions: Vec<Session>,
    pub order: Vec<u64>,
    pub next_id: u64,
}

/// Plans one tree through the engine and extracts its leaf schedule.
fn plan_schedule(engine: &Engine, tree: &DnfTree, catalog: &StreamCatalog) -> Result<DnfSchedule> {
    let plan = engine
        .plan(tree, catalog)
        .map_err(|e| Error::Plan(format!("planning failed: {e}")))?;
    plan.body.to_dnf_schedule(tree).ok_or_else(|| {
        Error::Plan(format!(
            "planner `{}` produced a non-schedule plan",
            plan.planner
        ))
    })
}

/// Validates that `order` (as `(term, leaf)` pairs) is a permutation of
/// `tree`'s leaves; used by snapshot restore.
pub(crate) fn schedule_from_pairs(
    pairs: &[(usize, usize)],
    tree: &DnfTree,
) -> std::result::Result<DnfSchedule, String> {
    let refs: Vec<LeafRef> = pairs
        .iter()
        .map(|&(term, leaf)| LeafRef { term, leaf })
        .collect();
    DnfSchedule::new(refs, tree).map_err(|e| format!("invalid schedule: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    const Q_AB: &str = "AVG(A,5) < 0.5 AND MAX(B,3) > 0.1";
    const Q_BC: &str = "(B < 0.2 AND C < 0.3) OR AVG(C,4) > 0.0";
    const Q_A: &str = "LAST(A,2) < 0.0 @ 0.4";

    fn registry() -> SessionRegistry {
        SessionRegistry::new("shared-greedy", 16, 64).unwrap()
    }

    #[test]
    fn register_merges_streams_into_a_union_catalog() {
        let engine = Engine::new();
        let mut r = registry();
        let a = r.register(Q_AB, 1.0, 0, &engine).unwrap();
        let b = r.register(Q_BC, 2.0, 1, &engine).unwrap();
        assert_eq!((a, b), (0, 1));
        assert_eq!(r.catalog().len(), 3, "A, B, C shared across sessions");
        let b_id = r.catalog().find("B").unwrap();
        let s1 = r.session(1).unwrap();
        assert!(
            s1.sim.terms()[0].iter().any(|l| l.stream == b_id),
            "session 1's B leaf must reference the shared stream id"
        );
        assert_eq!(r.order(), &[0, 1], "patched order appends registrations");
    }

    #[test]
    fn register_validates_input() {
        let engine = Engine::new();
        let mut r = registry();
        assert!(matches!(
            r.register("AVG(A,", 1.0, 0, &engine),
            Err(Error::Query(_))
        ));
        assert!(matches!(
            r.register(Q_AB, f64::NAN, 0, &engine),
            Err(Error::Rejected(_))
        ));
        assert!(matches!(
            r.register("AVG(A,500) < 1", 1.0, 0, &engine),
            Err(Error::Rejected(_)),
        ));
        // non-DNF shape: AND of ORs
        assert!(matches!(
            r.register("(a < 1 OR b < 2) AND c < 3", 1.0, 0, &engine),
            Err(Error::Query(_))
        ));
        assert!(r.is_empty(), "failed registrations leave no sessions");

        // The window ceiling is checked before any stream exists.
        for bad in [0, MAX_WINDOW + 1, u32::MAX] {
            assert!(matches!(
                SessionRegistry::new("shared-greedy", 16, bad),
                Err(Error::Rejected(_))
            ));
        }
        assert!(SessionRegistry::new("shared-greedy", 16, MAX_WINDOW).is_ok());

        let mut tiny = SessionRegistry::new("shared-greedy", 1, 64).unwrap();
        tiny.register(Q_A, 1.0, 0, &engine).unwrap();
        assert!(matches!(
            tiny.register(Q_AB, 1.0, 0, &engine),
            Err(Error::Rejected(_))
        ));
    }

    #[test]
    fn probability_annotations_calibrate_the_tree() {
        let engine = Engine::new();
        let mut r = registry();
        let id = r.register(Q_A, 1.0, 0, &engine).unwrap();
        let s = r.session(id).unwrap();
        assert_eq!(s.drift.calibrated(), &[0.4]);
        assert_eq!(s.tree.leaf(LeafRef { term: 0, leaf: 0 }).prob.value(), 0.4);
    }

    #[test]
    fn unregister_splices_the_order_and_keeps_streams() {
        let engine = Engine::new();
        let mut r = registry();
        let a = r.register(Q_AB, 1.0, 0, &engine).unwrap();
        let b = r.register(Q_BC, 1.0, 0, &engine).unwrap();
        let c = r.register(Q_A, 1.0, 0, &engine).unwrap();
        r.unregister(b).unwrap();
        assert_eq!(r.order(), &[a, c]);
        assert_eq!(r.len(), 2);
        assert_eq!(r.catalog().len(), 3, "union catalog is append-only");
        assert!(matches!(r.unregister(b), Err(Error::Rejected(_))));
    }

    #[test]
    fn incremental_replan_matches_a_cold_full_replan() {
        let engine = Engine::new();
        let mut r = registry();
        for (q, w) in [(Q_AB, 1.0), (Q_BC, 2.0), (Q_A, 0.5), (Q_AB, 3.0)] {
            // Q_AB twice is fine: session names differ.
            r.register(q, w, 0, &engine).unwrap();
        }
        r.unregister(1).unwrap();
        r.replan(&engine).unwrap();
        let warm = r.plan_digest();
        let cold = r.cold_plan_digest(&Engine::new()).unwrap();
        assert_eq!(
            warm, cold,
            "cached incremental re-plan must be byte-identical"
        );
        let stats = engine.cache_stats();
        assert!(stats.hits > 0, "survivors should hit the plan cache");
    }

    #[test]
    fn replan_on_empty_registry_clears_the_order() {
        let engine = Engine::new();
        let mut r = registry();
        let id = r.register(Q_A, 1.0, 0, &engine).unwrap();
        r.unregister(id).unwrap();
        r.replan(&engine).unwrap();
        assert!(r.order().is_empty());
    }

    #[test]
    fn recalibrate_replaces_tree_and_resets_estimators() {
        let engine = Engine::new();
        let mut r = registry();
        let id = r.register(Q_A, 1.0, 0, &engine).unwrap();
        r.recalibrate(id, vec![0.9], &engine).unwrap();
        let s = r.session(id).unwrap();
        assert_eq!(s.drift.calibrated(), &[0.9]);
        assert_eq!(s.tree.leaf(LeafRef { term: 0, leaf: 0 }).prob.value(), 0.9);
        assert_eq!(s.drift.totals(), &[0]);
    }

    #[test]
    fn rejects_unknown_planner() {
        assert!(matches!(
            SessionRegistry::new("optimal-magic", 8, 32),
            Err(Error::Rejected(_))
        ));
    }
}
