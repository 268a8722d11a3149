//! The serving daemon: explicit-tick execution of the live session set
//! under admission control, drift re-planning, and the line-protocol
//! serve loops.
//!
//! Ticks advance only on explicit `tick` commands, so scripted runs
//! (tests, the soak harness, the bench group) are fully deterministic:
//! the same command script against the same seed produces the same
//! energies, the same admission decisions, and the same snapshots.
//! Between ticks the registry absorbs churn by patching; a full joint
//! re-plan runs after [`Config::replan_after`] churn events (or on an
//! explicit `replan` command) through the engine's plan cache.
//!
//! Stream `k`'s sensor data is a pure function of `(seed, k, tick)`:
//! every stream owns a dedicated RNG seeded from the daemon seed and
//! the stream index, is warmed by [`Config::max_window`] items at
//! creation, and advances by exactly one item per tick. A restored
//! daemon replays each stream to its snapshot tick, and the arrangement
//! store refills each ring when the replay reaches the ring's
//! `maintained_to`, so serving after a restart continues on the same
//! data and the same rings the uninterrupted run would have seen.

use crate::json::Json;
use crate::proto::{error_response, ok_response, parse_command, Command};
use crate::registry::SessionRegistry;
use crate::snapshot::{Restored, SessionSnap, Snapshot, SnapshotError};
use crate::telemetry::Telemetry;
use crate::{Error, Result};
use paotr_core::cost::ArrangeTerm;
use paotr_core::plan::Engine;
use paotr_core::stream::StreamId;
use paotr_exec::{
    run_tick, AcceptAll, AdmissionCtx, AdmissionPolicy, DriftConfig, EnergyBudget, Tick,
};
use paotr_gen::seeds;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::io::{BufRead, Read as IoRead, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;
use stream_sim::{
    ArrangeConfig, ArrangementStore, EnergyMeter, EnergyModel, FaultPlan, FaultSpec, MemoryPolicy,
    Scheduler, SensorModel, SensorSource, SimQuery, SimStream, TraceLog, Verdict,
};

/// Domain separation for per-stream RNG seeds.
const STREAM_SALT: u64 = 0x5eed_57ea_4000_0000;

/// Daemon configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct Config {
    /// Seed for all sensor data.
    pub seed: u64,
    /// Joint planner (a `paotr_multi::planner_names()` entry).
    pub planner: String,
    /// Per-tick worst-case energy budget; `None` admits everything.
    pub budget: Option<f64>,
    /// Over-budget requests are deferred (true) or shed (false).
    pub defer: bool,
    /// Drift-triggered re-planning; `None` disables trace estimation.
    pub drift: Option<DriftConfig>,
    /// Churn events (register/unregister) that trigger a full joint
    /// re-plan at the next tick; 0 re-plans only on explicit `replan`.
    pub replan_after: u64,
    /// Hard ceiling on live sessions (keeps daemon memory bounded).
    pub max_sessions: usize,
    /// Hard ceiling on any predicate window (bounds stream buffers);
    /// at most [`crate::MAX_WINDOW`].
    pub max_window: u32,
    /// Persistent stream arrangements; `None` re-pulls every window.
    pub arrange: Option<ArrangeConfig>,
    /// Seeded fault injection; `None` serves fault free. The plan is
    /// derived, never stored, so a restored daemon replays the exact
    /// chaos schedule of the uninterrupted run.
    pub faults: Option<FaultSpec>,
}

impl Default for Config {
    fn default() -> Config {
        Config {
            seed: 0,
            planner: "shared-greedy".into(),
            budget: None,
            defer: true,
            drift: Some(DriftConfig::default()),
            replan_after: 8,
            max_sessions: 64,
            max_window: 64,
            arrange: None,
            faults: None,
        }
    }
}

impl Config {
    /// Serializes to the snapshot JSON object. The `arrange` key is
    /// emitted only when arrangements are on, so arrangement-free
    /// configs render exactly the version-1 object.
    pub(crate) fn to_json(&self) -> Json {
        let mut fields = vec![
            ("seed", Json::from_u64(self.seed)),
            ("planner", Json::Str(self.planner.clone())),
            ("budget", self.budget.map(Json::Num).unwrap_or(Json::Null)),
            ("defer", Json::Bool(self.defer)),
            (
                "drift",
                self.drift
                    .map(|d| {
                        Json::obj([
                            ("tolerance", Json::Num(d.tolerance)),
                            ("min_samples", Json::from_u64(d.min_samples)),
                        ])
                    })
                    .unwrap_or(Json::Null),
            ),
            ("replan_after", Json::from_u64(self.replan_after)),
            ("max_sessions", Json::from_u64(self.max_sessions as u64)),
            ("max_window", Json::from_u64(u64::from(self.max_window))),
        ];
        if let Some(a) = self.arrange {
            fields.push(("arrange", Json::obj([("grace", Json::from_u64(a.grace))])));
        }
        if let Some(f) = self.faults {
            fields.push((
                "faults",
                Json::obj([
                    ("seed", Json::from_u64(f.seed)),
                    ("transient_rate", Json::Num(f.transient_rate)),
                    ("outage_streams", Json::Num(f.outage_streams)),
                    ("outage_len", Json::from_u64(f.outage_len)),
                    ("outage_gap", Json::from_u64(f.outage_gap)),
                    ("max_attempts", Json::from_u64(u64::from(f.max_attempts))),
                    ("stale_serve", Json::Bool(f.stale_serve)),
                ]),
            ));
        }
        Json::obj(fields)
    }

    /// Deserializes from the snapshot JSON object.
    pub(crate) fn from_json(v: &Json) -> std::result::Result<Config, String> {
        let u32_of = |x: &Json| x.as_u64().and_then(|n| u32::try_from(n).ok());
        let section = |k: &str| v.get(k).filter(|x| !matches!(x, Json::Null));
        let drift = section("drift")
            .map(|d| {
                Ok::<_, String>(DriftConfig {
                    tolerance: d.field("config.drift", "tolerance", Json::as_f64)?,
                    min_samples: d.field("config.drift", "min_samples", Json::as_u64)?,
                })
            })
            .transpose()?;
        let arrange = section("arrange")
            .map(|a| {
                a.field("config.arrange", "grace", Json::as_u64)
                    .map(|grace| ArrangeConfig { grace })
            })
            .transpose()?;
        let faults = section("faults")
            .map(|f| {
                Ok::<_, String>(FaultSpec {
                    seed: f.field("config.faults", "seed", Json::as_u64)?,
                    transient_rate: f.field("config.faults", "transient_rate", Json::as_f64)?,
                    outage_streams: f.field("config.faults", "outage_streams", Json::as_f64)?,
                    outage_len: f.field("config.faults", "outage_len", Json::as_u64)?,
                    outage_gap: f.field("config.faults", "outage_gap", Json::as_u64)?,
                    max_attempts: f.field("config.faults", "max_attempts", u32_of)?,
                    stale_serve: f.field("config.faults", "stale_serve", Json::as_bool)?,
                })
            })
            .transpose()?;
        Ok(Config {
            seed: v.field("config", "seed", Json::as_u64)?,
            planner: v.field("config", "planner", Json::as_str)?.to_string(),
            budget: section("budget")
                .map(|_| v.field("config", "budget", Json::as_f64))
                .transpose()?,
            defer: v.field("config", "defer", Json::as_bool)?,
            drift,
            replan_after: v.field("config", "replan_after", Json::as_u64)?,
            max_sessions: v.field("config", "max_sessions", Json::as_u64)? as usize,
            max_window: v.field("config", "max_window", u32_of)?,
            arrange,
            faults,
        })
    }
}

/// Per-tick energies of one `run_ticks` batch.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchReport {
    /// Tick index of the batch's first tick.
    pub start_tick: u64,
    /// Energy spent on each tick of the batch, in order.
    pub energies: Vec<f64>,
}

impl BatchReport {
    /// Ticks in the batch.
    pub(crate) fn ticks(&self) -> u64 {
        self.energies.len() as u64
    }

    /// Total energy across the batch.
    pub fn total_energy(&self) -> f64 {
        self.energies.iter().sum()
    }

    /// Largest single-tick energy in the batch.
    pub fn max_energy(&self) -> f64 {
        self.energies.iter().cloned().fold(0.0, f64::max)
    }
}

/// The long-running daemon: registry + streams + telemetry + engine.
#[derive(Debug)]
pub struct Daemon {
    config: Config,
    engine: Engine,
    registry: SessionRegistry,
    telemetry: Telemetry,
    tick: u64,
    churn_since_replan: u64,
    /// Pending request per session: the tick it first arrived.
    pending: BTreeMap<u64, u64>,
    streams: Vec<SimStream>,
    stream_rngs: Vec<StdRng>,
    trace: TraceLog,
    /// The persistent arrangement store (present iff `config.arrange`).
    /// Lives here between ticks; `run_ticks` lends it to its scheduler.
    arrangements: Option<ArrangementStore>,
    /// The derived fault schedule (the empty pass-through plan when
    /// `config.faults` is off). Never persisted: it is a pure function
    /// of the config.
    faults: FaultPlan,
    /// `(session id, verdict, degraded)` of every evaluation in the
    /// most recent tick — the diagnostic chaos tests compare against a
    /// fault-free daemon.
    last_verdicts: Vec<(u64, Verdict, bool)>,
}

/// The arrangements one session's reads should go through: each stream
/// the query touches at the session's widest window there, whenever
/// maintaining beats re-pulling even for this single reader (the store
/// coalesces further readers for free). A pure function of the query,
/// so a session holds the same pairs from `register` to `unregister`.
pub(crate) fn session_acquisitions(sim: &SimQuery) -> Vec<(StreamId, u32)> {
    let streams = sim.terms().iter().flatten().map(|l| l.stream.0 + 1).max();
    sim.max_windows(streams.unwrap_or(0))
        .iter()
        .enumerate()
        .filter(|&(_, &w)| {
            // A session reads its streams every tick, so without the
            // arrangement each tick re-pulls up to `w` items; with it,
            // one delta item plus the amortized fill.
            w > 0 && ArrangeTerm::new(w, 1, 1.0, f64::from(w)).should_materialize()
        })
        .map(|(k, &w)| (StreamId(k), w))
        .collect()
}

/// A restored arrangement the store refuses, as a typed snapshot error.
fn invalid_arrangement(m: String) -> Error {
    Error::Snapshot(SnapshotError::Invalid(format!("arrangements: {m}")))
}

impl Daemon {
    /// An empty daemon under `config`.
    pub fn new(config: Config) -> Result<Daemon> {
        let registry =
            SessionRegistry::new(&config.planner, config.max_sessions, config.max_window)?;
        let arrangements = config.arrange.map(ArrangementStore::new);
        let faults = FaultPlan::new(config.faults.unwrap_or_else(FaultSpec::none));
        Ok(Daemon {
            config,
            engine: Engine::new(),
            registry,
            telemetry: Telemetry::default(),
            tick: 0,
            churn_since_replan: 0,
            pending: BTreeMap::new(),
            streams: Vec::new(),
            stream_rngs: Vec::new(),
            trace: TraceLog::default(),
            arrangements,
            faults,
            last_verdicts: Vec::new(),
        })
    }

    /// The configuration.
    pub fn config(&self) -> &Config {
        &self.config
    }

    /// The live session registry.
    pub fn registry(&self) -> &SessionRegistry {
        &self.registry
    }

    /// The live counters.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The current tick.
    pub fn tick(&self) -> u64 {
        self.tick
    }

    /// The planning engine (exposed for cache statistics).
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Churn events since the last full joint re-plan.
    pub fn churn_since_replan(&self) -> u64 {
        self.churn_since_replan
    }

    /// Requests currently pending admission (the defer queue). Bounded
    /// by the number of live sessions.
    pub fn pending_requests(&self) -> usize {
        self.pending.len()
    }

    /// Records in the internal trace buffer (drained after every
    /// evaluation, so this is 0 between ticks).
    pub fn trace_len(&self) -> usize {
        self.trace.records().len()
    }

    /// The live arrangement store, when arrangements are on.
    pub fn arrangements(&self) -> Option<&ArrangementStore> {
        self.arrangements.as_ref()
    }

    /// `(session id, verdict, degraded)` of every evaluation in the
    /// most recent tick, in execution order.
    pub fn last_verdicts(&self) -> &[(u64, Verdict, bool)] {
        &self.last_verdicts
    }

    /// Registers a qlang query; returns its session id.
    pub fn register(&mut self, source: &str, weight: f64) -> Result<u64> {
        let id = self
            .registry
            .register(source, weight, self.tick, &self.engine)?;
        if let (Some(store), Some(session)) =
            (self.arrangements.as_mut(), self.registry.session(id))
        {
            for (k, w) in session_acquisitions(&session.sim) {
                store.acquire(k, w);
            }
        }
        self.churn_since_replan += 1;
        self.telemetry.registers += 1;
        Ok(id)
    }

    /// Removes a live session and releases its arrangements. A release
    /// the store refuses is reported, once the session is gone, as a
    /// typed error.
    pub fn unregister(&mut self, id: u64) -> Result<()> {
        let held = match (&self.arrangements, self.registry.session(id)) {
            (Some(_), Some(session)) => session_acquisitions(&session.sim),
            _ => Vec::new(),
        };
        self.registry.unregister(id)?;
        let mut released = Ok(());
        if let Some(store) = self.arrangements.as_mut() {
            for (k, w) in held {
                released = released.and(store.release(k, w));
            }
        }
        self.pending.remove(&id);
        self.churn_since_replan += 1;
        self.telemetry.unregisters += 1;
        released.map_err(|e| Error::Rejected(format!("unregister {id}: {e}")))
    }

    /// Forces a full joint re-plan of the live set.
    pub fn replan(&mut self) -> Result<()> {
        self.registry.replan(&self.engine)?;
        self.telemetry.churn_replans += 1;
        self.churn_since_replan = 0;
        Ok(())
    }

    /// Serves `n` ticks and returns the batch's per-tick energies.
    pub fn run_ticks(&mut self, n: u64) -> Result<BatchReport> {
        let start_tick = self.tick;
        self.ensure_streams();
        let mut energies = Vec::new();
        let mut scheduler = Scheduler::new(self.streams.len(), MemoryPolicy::ClearEachQuery);
        // Lend the persistent store to this batch's scheduler; it must
        // come back even when a tick fails, so failures are deferred.
        if let Some(store) = self.arrangements.take() {
            scheduler.attach_arrangements(store);
        }
        let mut budget = self.config.budget.map(|b| EnergyBudget {
            budget_per_tick: b,
            defer: self.config.defer,
        });
        let policy: &mut dyn AdmissionPolicy = match &mut budget {
            Some(b) => b,
            None => &mut AcceptAll,
        };
        let batch = (0..n).try_for_each(|_| -> Result<()> {
            if self.config.replan_after > 0
                && self.churn_since_replan >= self.config.replan_after
                && !self.registry.is_empty()
            {
                self.replan()?;
            }
            energies.push(self.run_one_tick(&mut scheduler, &mut *policy)?);
            Ok(())
        });
        self.arrangements = scheduler.take_arrangements();
        batch.map(|()| BatchReport {
            start_tick,
            energies,
        })
    }

    fn run_one_tick(
        &mut self,
        scheduler: &mut Scheduler,
        policy: &mut dyn AdmissionPolicy,
    ) -> Result<f64> {
        let t = self.tick;
        let ids: Vec<u64> = self.registry.sessions().map(|s| s.id).collect();
        // Every live session is due every tick; deferred requests keep
        // their original arrival tick for the admission tie-break.
        let mut pending: Vec<Option<u64>> = ids
            .iter()
            .map(|id| Some(self.pending.get(id).copied().unwrap_or(t)))
            .collect();
        let n_streams = self.registry.catalog().len();
        let weights: Vec<f64> = self.registry.sessions().map(|s| s.weight).collect();
        let windows: Vec<Vec<u32>> = self
            .registry
            .sessions()
            .map(|s| s.sim.max_windows(n_streams))
            .collect();
        let costs = AdmissionCtx::stream_costs(self.registry.catalog());
        // Session ids are sorted, so a session's index is its rank.
        let order: Vec<usize> = self
            .registry
            .order()
            .iter()
            .filter_map(|id| ids.binary_search(id).ok())
            .collect();
        let mut meter = EnergyMeter::new(EnergyModel::from_catalog(self.registry.catalog()));
        self.last_verdicts.clear();
        let (stats, drifted) = run_tick(
            Tick {
                tick: t,
                weights: &weights,
                windows: &windows,
                costs: &costs,
                shared: self.registry.shared(),
                order: &order,
                pending: &mut pending,
                policy,
                scheduler: &mut *scheduler,
                streams: &self.streams,
                faults: &self.faults,
                meter: &mut meter,
                drift: self.config.drift,
                trace: &mut self.trace,
            },
            &mut self.registry.tick_queries(),
            &mut self.telemetry.counters,
            |q, out| self.last_verdicts.push((ids[q], out.verdict, out.degraded)),
        );
        self.pending = ids
            .iter()
            .zip(&pending)
            .filter_map(|(&id, since)| since.map(|since| (id, since)))
            .collect();
        for (q, probs) in drifted {
            self.registry.recalibrate(ids[q], probs, &self.engine)?;
        }
        if let Some(arranged) = scheduler.arrangements().map(|s| s.stats()) {
            self.telemetry.arrangements = arranged.arrangements as u64;
            self.telemetry.arrange_hit_items = arranged.hit_items;
        }

        for (s, rng) in self.streams.iter_mut().zip(&mut self.stream_rngs) {
            s.advance_by(1, rng);
        }
        self.tick += 1;
        Ok(stats.energy)
    }

    /// Creates (and warms) streams for catalog entries that do not have
    /// one yet. Stream `k`'s data depends only on `(seed, k, tick)`.
    /// The warm-up replays the stream through the arrangement store,
    /// which refills each restored ring of the stream when the replay
    /// reaches the ring's `maintained_to`.
    fn ensure_streams(&mut self) {
        while self.streams.len() < self.registry.catalog().len() {
            let k = self.streams.len() as u64;
            let mut rng =
                StdRng::seed_from_u64(seeds::mix(self.config.seed ^ seeds::mix(STREAM_SALT ^ k)));
            let mut stream = SimStream::new(
                SensorSource::new(SensorModel::Gaussian {
                    mean: 0.0,
                    std_dev: 1.0,
                }),
                self.config.max_window as usize,
            );
            let items = self.config.max_window as usize + self.tick as usize;
            match self.arrangements.as_mut() {
                Some(store) => store.replay(StreamId(k as usize), &mut stream, items, &mut rng),
                None => stream.advance_by(items, &mut rng),
            }
            self.streams.push(stream);
            self.stream_rngs.push(rng);
        }
    }

    /// The daemon's full persistent state as a [`Snapshot`]. Daemons
    /// without arrangements keep writing the version-1 document, so
    /// their snapshots stay readable by earlier builds.
    pub fn snapshot(&self) -> Snapshot {
        let arrangements = self.arrangements.as_ref().map(|store| {
            let stats = store.stats();
            crate::snapshot::ArrangeSnap {
                clock: store.clock(),
                hits: stats.hits,
                hit_items: stats.hit_items,
                maintained_items: stats.maintained_items,
                evictions: stats.evictions,
                entries: store
                    .iter()
                    .map(|a| crate::snapshot::ArrangeEntrySnap {
                        stream: a.stream().0,
                        window: a.window(),
                        readers: a.readers(),
                        maintained_to: a.maintained_to(),
                        zero_reader_since: a.zero_reader_since(),
                    })
                    .collect(),
            }
        });
        Snapshot {
            version: if arrangements.is_some() {
                crate::snapshot::SNAPSHOT_VERSION
            } else {
                1
            },
            config: self.config.clone(),
            tick: self.tick,
            next_id: self.registry.next_id(),
            churn_since_replan: self.churn_since_replan,
            shared: self.registry.shared(),
            catalog: (0..self.registry.catalog().len())
                .map(|k| {
                    let id = paotr_core::stream::StreamId(k);
                    (
                        self.registry.catalog().name(id),
                        self.registry.catalog().cost(id),
                    )
                })
                .collect(),
            sessions: self
                .registry
                .sessions()
                .map(|s| SessionSnap {
                    id: s.id,
                    source: s.source.clone(),
                    weight: s.weight,
                    registered_tick: s.registered_tick,
                    calibrated: s.drift.calibrated().to_vec(),
                    successes: s.drift.successes().to_vec(),
                    totals: s.drift.totals().to_vec(),
                    schedule: s
                        .schedule
                        .order()
                        .iter()
                        .map(|r| (r.term, r.leaf))
                        .collect(),
                    pending_since: self.pending.get(&s.id).copied(),
                })
                .collect(),
            order: self.registry.order().to_vec(),
            telemetry: self.telemetry.clone(),
            arrangements,
        }
    }

    /// Restores a daemon from a snapshot that passes
    /// [`Snapshot::validate`]: sessions are recompiled from their
    /// sources against the persisted catalog, calibration and schedules
    /// are adopted verbatim, arrangement shells and refcounts are
    /// restored, and every stream is replayed to the snapshot tick,
    /// refilling each ring on the way. Counters continue exactly from
    /// their persisted values.
    pub fn from_snapshot(snap: &Snapshot) -> Result<Daemon> {
        let Restored { registry, pending } = snap.restore()?;
        let mut arrangements = snap.config.arrange.map(ArrangementStore::new);
        if let (Some(store), Some(asnap)) = (arrangements.as_mut(), &snap.arrangements) {
            for e in &asnap.entries {
                store
                    .restore_arrangement(
                        StreamId(e.stream),
                        e.window,
                        e.readers,
                        e.maintained_to,
                        e.zero_reader_since,
                    )
                    .map_err(invalid_arrangement)?;
            }
            store.restore_counters(
                asnap.clock,
                asnap.hits,
                asnap.hit_items,
                asnap.maintained_items,
                asnap.evictions,
            );
        }

        let faults = FaultPlan::new(snap.config.faults.unwrap_or_else(FaultSpec::none));
        let mut daemon = Daemon {
            config: snap.config.clone(),
            engine: Engine::new(),
            registry,
            telemetry: snap.telemetry.clone(),
            tick: snap.tick,
            churn_since_replan: snap.churn_since_replan,
            pending,
            streams: Vec::new(),
            stream_rngs: Vec::new(),
            trace: TraceLog::default(),
            arrangements,
            faults,
            last_verdicts: Vec::new(),
        };
        daemon.ensure_streams();
        Ok(daemon)
    }

    /// Saves a snapshot to `path`.
    pub fn save_snapshot(&self, path: &str) -> Result<()> {
        self.snapshot().save(path).map_err(Error::Snapshot)
    }

    /// Restores a daemon from a snapshot file. A corrupt or truncated
    /// primary falls back to the rotated last-good generation
    /// (`<path>.1`) written by the previous save.
    pub fn load_snapshot(path: &str) -> Result<Daemon> {
        let (snap, _) = Snapshot::load_with_fallback(path).map_err(Error::Snapshot)?;
        Daemon::from_snapshot(&snap)
    }

    /// Handles one protocol line; returns the response line and whether
    /// a shutdown was requested.
    pub fn handle_line(&mut self, line: &str) -> (String, bool) {
        let cmd = match parse_command(line) {
            Ok(c) => c,
            Err(e) => return (error_response(&e), false),
        };
        let resp = match cmd {
            Command::Register { query, weight } => self
                .register(&query, weight)
                .map(|id| ok_response([("id", Json::from_u64(id))])),
            Command::Unregister { id } => self.unregister(id).map(|()| ok_response([])),
            Command::Tick { n } => self.run_ticks(n).map(|batch| {
                ok_response([
                    ("ticks", Json::from_u64(batch.ticks())),
                    ("tick", Json::from_u64(self.tick)),
                    ("energy", Json::Num(batch.total_energy())),
                    ("max_tick_energy", Json::Num(batch.max_energy())),
                ])
            }),
            Command::Stats => {
                let cache = self.engine.cache_stats();
                let mut fields = vec![
                    ("tick", Json::from_u64(self.tick)),
                    ("sessions", Json::from_u64(self.registry.len() as u64)),
                    (
                        "headroom",
                        self.telemetry
                            .headroom(self.config.budget)
                            .map(Json::Num)
                            .unwrap_or(Json::Null),
                    ),
                    ("stats", self.telemetry.to_json()),
                    (
                        "cache",
                        Json::obj([
                            ("hits", Json::from_u64(cache.hits)),
                            ("misses", Json::from_u64(cache.misses)),
                            ("entries", Json::from_u64(cache.entries as u64)),
                            ("capacity", Json::from_u64(cache.capacity as u64)),
                        ]),
                    ),
                ];
                if let Some(stats) = self.arrangements.as_ref().map(|s| s.stats()) {
                    fields.push((
                        "arrange",
                        Json::obj([
                            ("arrangements", Json::from_u64(stats.arrangements as u64)),
                            ("hits", Json::from_u64(stats.hits)),
                            ("hit_items", Json::from_u64(stats.hit_items)),
                            ("maintained_items", Json::from_u64(stats.maintained_items)),
                            ("evictions", Json::from_u64(stats.evictions)),
                        ]),
                    ));
                }
                fields.push((
                    "table",
                    Json::Str(
                        self.telemetry
                            .table(self.registry.len(), self.config.budget)
                            .to_markdown(),
                    ),
                ));
                Ok(ok_response(fields))
            }
            Command::Plan => Ok(ok_response([("plan", self.registry.plan_json())])),
            Command::Replan => self.replan().map(|()| ok_response([])),
            Command::Snapshot { path: Some(path) } => self
                .save_snapshot(&path)
                .map(|()| ok_response([("path", Json::Str(path))])),
            Command::Snapshot { path: None } => {
                let doc = self.snapshot().to_json();
                Ok(ok_response([("snapshot", doc)]))
            }
            Command::Shutdown => return (ok_response([]), true),
        };
        match resp {
            Ok(r) => (r, false),
            Err(e) => (error_response(&e.to_string()), false),
        }
    }

    /// Serves the line protocol until EOF or a `shutdown` command.
    /// Returns true when shutdown was requested (vs. plain EOF). Lines
    /// are framed as on TCP: invalid UTF-8 gets an error reply, not an
    /// exit.
    pub fn serve<R: BufRead, W: Write>(
        &mut self,
        mut reader: R,
        writer: &mut W,
    ) -> std::io::Result<bool> {
        let mut raw = Vec::new();
        loop {
            raw.clear();
            if reader.read_until(b'\n', &mut raw)? == 0 {
                return Ok(false);
            }
            let Some(line) = frame_line(&raw) else {
                continue;
            };
            let (resp, stop) = self.handle_line(&line);
            writeln!(writer, "{resp}")?;
            writer.flush()?;
            if stop {
                return Ok(true);
            }
        }
    }

    /// Serves concurrent connections from `listener`, one thread per
    /// client over the shared daemon, until any client sends
    /// `shutdown`. Commands from all clients interleave line-by-line
    /// against one state: registrations, ticks and arrangements are
    /// shared. The daemon lock is held only while handling a line, so a
    /// slow or idle client never blocks the others.
    ///
    /// Hardening:
    /// * every connection reads with [`TcpOptions::read_timeout`], so a
    ///   silent client never wedges its worker — on each timeout the
    ///   worker re-checks the shared stop flag and exits promptly after
    ///   a shutdown from any other client;
    /// * a connection idle longer than [`TcpOptions::idle_timeout`] is
    ///   evicted (the daemon state it touched stays live);
    /// * malformed bytes — invalid UTF-8, unparseable JSON — get an
    ///   error *reply* on the same connection instead of a disconnect.
    pub fn serve_tcp_shared_with(
        daemon: Arc<Mutex<Daemon>>,
        listener: &std::net::TcpListener,
        opts: TcpOptions,
    ) -> std::io::Result<()> {
        let stop = Arc::new(AtomicBool::new(false));
        let addr = listener.local_addr()?;
        let mut workers = Vec::new();
        for conn in listener.incoming() {
            let stream = conn?;
            // A shutdown handler wakes this accept loop by connecting
            // to our own address; that wake connection is not served.
            if stop.load(Ordering::SeqCst) {
                break;
            }
            let daemon = Arc::clone(&daemon);
            let stop = Arc::clone(&stop);
            workers.push(std::thread::spawn(move || -> std::io::Result<()> {
                serve_connection(&daemon, stream, &opts, &stop, addr)
            }));
        }
        for worker in workers {
            let _ = worker.join();
        }
        Ok(())
    }
}

/// Per-connection knobs for [`Daemon::serve_tcp_shared_with`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TcpOptions {
    /// Socket read timeout: the longest any worker blocks before
    /// re-checking the shared stop flag (and the idle clock).
    pub read_timeout: Duration,
    /// Evict a connection after this much time without receiving any
    /// bytes; `None` keeps idle connections forever.
    pub idle_timeout: Option<Duration>,
}

impl Default for TcpOptions {
    fn default() -> TcpOptions {
        TcpOptions {
            read_timeout: Duration::from_millis(200),
            idle_timeout: None,
        }
    }
}

/// One protocol line from raw bytes, as both serve loops frame it:
/// decoded lossily (invalid UTF-8 cannot parse as a command, so it
/// earns an error reply rather than a disconnect), with the line end
/// and a trailing `\r` stripped; `None` for a blank line.
fn frame_line(raw: &[u8]) -> Option<std::borrow::Cow<'_, str>> {
    let raw = raw.strip_suffix(b"\n").unwrap_or(raw);
    let raw = raw.strip_suffix(b"\r").unwrap_or(raw);
    let line = String::from_utf8_lossy(raw);
    (!line.trim().is_empty()).then_some(line)
}

/// One worker's connection loop: timeout-aware reads, line framing
/// over a persistent buffer, error replies for malformed input, idle
/// eviction, and a partial final line processed at EOF.
fn serve_connection(
    daemon: &Arc<Mutex<Daemon>>,
    stream: std::net::TcpStream,
    opts: &TcpOptions,
    stop: &Arc<AtomicBool>,
    addr: std::net::SocketAddr,
) -> std::io::Result<()> {
    stream.set_read_timeout(Some(opts.read_timeout))?;
    let mut reader = stream.try_clone()?;
    let mut writer = stream;
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    let mut idle = Duration::ZERO;
    loop {
        let n = match reader.read(&mut chunk) {
            Ok(0) => {
                // EOF: a trailing line without a newline still gets
                // served (the reply goes out before the socket closes).
                if !buf.is_empty() {
                    handle_connection_line(daemon, &mut writer, &buf, stop, addr)?;
                }
                return Ok(());
            }
            Ok(n) => n,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if stop.load(Ordering::SeqCst) {
                    return Ok(());
                }
                idle += opts.read_timeout;
                if opts.idle_timeout.is_some_and(|limit| idle >= limit) {
                    return Ok(());
                }
                continue;
            }
            Err(e) => return Err(e),
        };
        idle = Duration::ZERO;
        buf.extend_from_slice(&chunk[..n]);
        while let Some(nl) = buf.iter().position(|&b| b == b'\n') {
            let raw: Vec<u8> = buf.drain(..=nl).collect();
            if handle_connection_line(daemon, &mut writer, &raw, stop, addr)? {
                return Ok(());
            }
        }
    }
}

/// Frames and handles one raw line; returns whether shutdown was
/// requested.
fn handle_connection_line(
    daemon: &Arc<Mutex<Daemon>>,
    writer: &mut std::net::TcpStream,
    raw: &[u8],
    stop: &Arc<AtomicBool>,
    addr: std::net::SocketAddr,
) -> std::io::Result<bool> {
    let Some(line) = frame_line(raw) else {
        return Ok(false);
    };
    let (resp, shutdown) = daemon.lock().expect("daemon lock").handle_line(&line);
    writeln!(writer, "{resp}")?;
    writer.flush()?;
    if shutdown {
        stop.store(true, Ordering::SeqCst);
        let _ = std::net::TcpStream::connect(addr);
    }
    Ok(shutdown)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    const Q1: &str = "AVG(A,8) < 0.5 AND MAX(B,4) > 0.0";
    const Q2: &str = "(B < 0.2 AND C < 0.3) OR AVG(C,6) > 0.1";
    const Q3: &str = "LAST(A,2) < 0.5";

    fn daemon(budget: Option<f64>) -> Daemon {
        Daemon::new(Config {
            budget,
            ..Config::default()
        })
        .unwrap()
    }

    #[test]
    fn ticks_are_deterministic_under_one_seed() {
        let run = || {
            let mut d = daemon(None);
            d.register(Q1, 1.0).unwrap();
            d.register(Q2, 2.0).unwrap();
            d.run_ticks(25).unwrap().energies
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn budget_bounds_every_tick() {
        let mut d = daemon(Some(10.0));
        d.register(Q1, 1.0).unwrap();
        d.register(Q2, 2.0).unwrap();
        d.register(Q3, 0.5).unwrap();
        let batch = d.run_ticks(40).unwrap();
        for (i, &e) in batch.energies.iter().enumerate() {
            assert!(e <= 10.0 + 1e-9, "tick {i} spent {e}");
        }
        assert!(d.telemetry().deferred > 0, "the budget must actually bind");
    }

    #[test]
    fn unconstrained_daemon_serves_everything_every_tick() {
        let mut d = daemon(None);
        d.register(Q1, 1.0).unwrap();
        d.register(Q3, 1.0).unwrap();
        d.run_ticks(10).unwrap();
        let t = d.telemetry();
        assert_eq!(t.evals, 20);
        assert_eq!(t.shed + t.deferred, 0);
    }

    #[test]
    fn churn_triggers_a_full_replan_at_the_next_tick() {
        let mut d = Daemon::new(Config {
            replan_after: 2,
            ..Config::default()
        })
        .unwrap();
        d.register(Q1, 1.0).unwrap();
        d.register(Q2, 1.0).unwrap();
        assert_eq!(d.churn_since_replan(), 2);
        d.run_ticks(1).unwrap();
        assert_eq!(d.churn_since_replan(), 0);
        assert_eq!(d.telemetry().churn_replans, 1);
    }

    fn arranged_daemon(budget: Option<f64>) -> Daemon {
        Daemon::new(Config {
            budget,
            arrange: Some(ArrangeConfig::default()),
            ..Config::default()
        })
        .unwrap()
    }

    #[test]
    fn arrangements_cut_daemon_energy_at_identical_decisions() {
        let run = |arrange: bool| {
            let mut d = if arrange {
                arranged_daemon(None)
            } else {
                daemon(None)
            };
            d.register(Q1, 1.0).unwrap();
            d.register(Q2, 2.0).unwrap();
            d.register(Q3, 0.5).unwrap();
            d.run_ticks(50).unwrap();
            d
        };
        let plain = run(false);
        let arranged = run(true);
        // Same queries, same sensor data, same admission: the served
        // work is identical, only the item bill differs.
        assert_eq!(arranged.telemetry().evals, plain.telemetry().evals);
        assert_eq!(arranged.telemetry().truths, plain.telemetry().truths);
        assert!(arranged.telemetry().arrange_hit_items > 0);
        assert!(arranged.telemetry().maintain_energy > 0.0);
        assert_eq!(plain.telemetry().maintain_energy, 0.0);
        assert!(
            arranged.telemetry().total_energy < plain.telemetry().total_energy,
            "arranged {} J vs plain {} J",
            arranged.telemetry().total_energy,
            plain.telemetry().total_energy
        );
    }

    #[test]
    fn unregister_releases_arrangements_into_grace_and_eviction() {
        let mut d = arranged_daemon(None);
        let a = d.register(Q1, 1.0).unwrap();
        d.register(Q3, 1.0).unwrap();
        d.run_ticks(2).unwrap();
        let live_before = d.arrangements().unwrap().stats().arrangements;
        assert!(live_before > 0);
        d.unregister(a).unwrap();
        // Q1's exclusive arrangements lose their reader, survive the
        // grace period, then fall to eviction.
        d.run_ticks(ArrangeConfig::default().grace + 2).unwrap();
        let stats = d.arrangements().unwrap().stats();
        assert!(stats.evictions > 0, "grace-expired arrangements evict");
        assert!(stats.arrangements < live_before);
    }

    #[test]
    fn an_unbalanced_release_is_a_typed_error_not_a_panic() {
        let mut d = arranged_daemon(None);
        let a = d.register(Q3, 1.0).unwrap();
        // Drop the session's reader behind its back: its own release
        // then finds no reader left.
        let pairs = session_acquisitions(&d.registry().session(a).unwrap().sim);
        let store = d.arrangements.as_mut().unwrap();
        for (k, w) in pairs {
            store.release(k, w).unwrap();
        }
        assert!(matches!(d.unregister(a), Err(Error::Rejected(_))));
        assert_eq!(d.registry().len(), 0, "the session is gone regardless");
        assert!(d.unregister(a).is_err(), "and cannot be removed twice");
    }

    #[test]
    fn stats_exposes_plan_cache_and_arrangement_counters() {
        let mut d = arranged_daemon(None);
        d.register(Q1, 1.0).unwrap();
        d.run_ticks(3).unwrap();
        let (r, _) = d.handle_line(r#"{"cmd":"stats"}"#);
        assert!(r.contains(r#""cache":{"hits":"#), "{r}");
        assert!(r.contains(r#""misses":"#), "{r}");
        assert!(r.contains(r#""capacity":"#), "{r}");
        assert!(r.contains(r#""arrange":{"arrangements":"#), "{r}");
        assert!(r.contains(r#""maintained_items":"#), "{r}");
        // Without arrangements the cache block stays, the arrange
        // block is absent.
        let mut plain = daemon(None);
        plain.register(Q1, 1.0).unwrap();
        let (r, _) = plain.handle_line(r#"{"cmd":"stats"}"#);
        assert!(r.contains(r#""cache":{"hits":"#), "{r}");
        assert!(!r.contains(r#""arrange":"#), "{r}");
    }

    #[test]
    fn protocol_round_trip() {
        let mut d = daemon(None);
        let (r, stop) = d.handle_line(r#"{"cmd":"register","query":"AVG(A,4) < 0.0","weight":2}"#);
        assert!(!stop);
        assert_eq!(r, r#"{"ok":true,"id":0}"#);
        let (r, _) = d.handle_line(r#"{"cmd":"tick","n":3}"#);
        assert!(r.starts_with(r#"{"ok":true,"ticks":3,"tick":3,"#), "{r}");
        let (r, _) = d.handle_line(r#"{"cmd":"stats"}"#);
        assert!(r.contains(r#""sessions":1"#), "{r}");
        assert!(r.contains(r#""ticks":3"#), "{r}");
        let (r, _) = d.handle_line(r#"{"cmd":"plan"}"#);
        assert!(r.contains(r#""order":[0]"#), "{r}");
        let (r, _) = d.handle_line(r#"{"cmd":"unregister","id":0}"#);
        assert_eq!(r, r#"{"ok":true}"#);
        let (r, _) = d.handle_line(r#"{"cmd":"unregister","id":0}"#);
        assert!(r.contains(r#""ok":false"#), "{r}");
        let (r, stop) = d.handle_line(r#"{"cmd":"shutdown"}"#);
        assert_eq!(r, r#"{"ok":true}"#);
        assert!(stop);
    }

    #[test]
    fn serve_loop_answers_line_per_line_and_survives_garbage() {
        let script = concat!(
            "{\"cmd\":\"register\",\"query\":\"a < 1\"}\n",
            "this is not json\n",
            "\n",
            "{\"cmd\":\"tick\"}\n",
            "{\"cmd\":\"shutdown\"}\n",
        );
        let mut out = Vec::new();
        let mut d = daemon(None);
        let shutdown = d
            .serve(BufReader::new(script.as_bytes()), &mut out)
            .unwrap();
        assert!(shutdown);
        let lines: Vec<&str> = std::str::from_utf8(&out).unwrap().lines().collect();
        assert_eq!(lines.len(), 4, "one response per non-empty line");
        assert!(lines[0].contains(r#""ok":true"#));
        assert!(lines[1].contains(r#""ok":false"#));
    }

    #[test]
    fn tcp_serving_works_end_to_end() {
        use std::io::{BufRead, Write};
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let d = Arc::new(Mutex::new(daemon(None)));
            Daemon::serve_tcp_shared_with(Arc::clone(&d), &listener, TcpOptions::default())
                .unwrap();
            let ticks = d.lock().unwrap().telemetry().ticks;
            ticks
        });
        let stream = std::net::TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        let mut ask = |line: &str| {
            writeln!(writer, "{line}").unwrap();
            let mut resp = String::new();
            reader.read_line(&mut resp).unwrap();
            resp
        };
        assert!(ask(r#"{"cmd":"register","query":"AVG(x,3) > 0.0"}"#).contains(r#""id":0"#));
        assert!(ask(r#"{"cmd":"tick","n":5}"#).contains(r#""ok":true"#));
        assert!(ask(r#"{"cmd":"shutdown"}"#).contains(r#""ok":true"#));
        assert_eq!(server.join().unwrap(), 5);
    }

    #[test]
    fn two_simultaneous_tcp_clients_share_one_daemon() {
        use std::io::{BufRead, Write};
        use std::net::TcpStream;

        struct Client {
            reader: BufReader<TcpStream>,
            writer: TcpStream,
        }
        impl Client {
            fn connect(addr: std::net::SocketAddr) -> Client {
                let stream = TcpStream::connect(addr).unwrap();
                Client {
                    reader: BufReader::new(stream.try_clone().unwrap()),
                    writer: stream,
                }
            }
            fn ask(&mut self, line: &str) -> String {
                writeln!(self.writer, "{line}").unwrap();
                let mut resp = String::new();
                self.reader.read_line(&mut resp).unwrap();
                resp
            }
        }

        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let daemon = Arc::new(Mutex::new(arranged_daemon(None)));
        let server = {
            let daemon = Arc::clone(&daemon);
            std::thread::spawn(move || {
                Daemon::serve_tcp_shared_with(daemon, &listener, TcpOptions::default()).unwrap()
            })
        };

        // Both connections are open at once; their commands interleave
        // against the one shared daemon state.
        let mut a = Client::connect(addr);
        let mut b = Client::connect(addr);
        assert!(a
            .ask(r#"{"cmd":"register","query":"AVG(x,6) > 0.0"}"#)
            .contains(r#""id":0"#));
        assert!(b
            .ask(r#"{"cmd":"register","query":"MAX(x,4) > 0.5"}"#)
            .contains(r#""id":1"#,));
        assert!(a.ask(r#"{"cmd":"tick","n":4}"#).contains(r#""tick":4"#));
        // B sees A's ticks and both sessions.
        let stats = b.ask(r#"{"cmd":"stats"}"#);
        assert!(stats.contains(r#""tick":4"#), "{stats}");
        assert!(stats.contains(r#""sessions":2"#), "{stats}");
        assert!(b.ask(r#"{"cmd":"tick","n":1}"#).contains(r#""tick":5"#));
        // A client disconnecting (without shutdown) leaves the daemon
        // serving the other.
        drop(a);
        assert!(b
            .ask(r#"{"cmd":"unregister","id":0}"#)
            .contains(r#""ok":true"#));
        assert!(b.ask(r#"{"cmd":"shutdown"}"#).contains(r#""ok":true"#));
        server.join().unwrap();

        let d = Arc::try_unwrap(daemon)
            .expect("all workers joined")
            .into_inner()
            .unwrap();
        assert_eq!(d.telemetry().ticks, 5);
        assert_eq!(d.telemetry().registers, 2);
        assert_eq!(d.telemetry().unregisters, 1);
        assert!(d.arrangements().is_some());
    }
}
