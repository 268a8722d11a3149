//! Versioned on-disk daemon state.
//!
//! A snapshot captures everything the daemon cannot recompute: the
//! configuration, the union catalog, every session's source text,
//! calibration estimators, current schedule and pending request, the
//! joint execution order, and the telemetry counters. Sensor data is
//! *not* persisted — stream `k`'s items are a pure function of
//! `(seed, k, tick)`, so a restore replays each stream to the snapshot
//! tick and serving continues on the data the uninterrupted run would
//! have produced.
//!
//! The format is versioned single-line JSON. Rendering is
//! deterministic: parsing a rendered snapshot and rendering it again
//! reproduces the bytes exactly (pinned by test and by the committed
//! compatibility fixture). Corrupt or truncated input surfaces as a
//! typed [`SnapshotError`], never a panic.

use crate::daemon::Config;
use crate::json::{parse, Json, JsonError};
use crate::registry::{schedule_from_pairs, Session, SessionRegistry};
use crate::telemetry::Telemetry;
use crate::{Error, Result};
use paotr_core::stream::StreamCatalog;
use paotr_exec::DriftState;
use std::collections::BTreeMap;
use std::sync::Arc;
use stream_sim::{SimLeaf, SimQuery};

/// Current snapshot format version. Version 2 added the optional
/// `arrangements` section (and arrangement telemetry); daemons without
/// arrangements still write version 1, and this build reads both.
pub const SNAPSHOT_VERSION: u64 = 2;

/// Why a snapshot failed to save or load.
#[derive(Debug, Clone, PartialEq)]
pub enum SnapshotError {
    /// Filesystem failure.
    Io(String),
    /// The document is not valid JSON (corrupted or truncated file).
    Json(JsonError),
    /// The document is JSON but not a valid snapshot.
    Invalid(String),
    /// The document's version is not supported by this build.
    UnsupportedVersion(u64),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Io(m) => write!(f, "io: {m}"),
            SnapshotError::Json(e) => write!(f, "not valid JSON: {e}"),
            SnapshotError::Invalid(m) => write!(f, "invalid snapshot: {m}"),
            SnapshotError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported snapshot version {v} (this build reads 1..={SNAPSHOT_VERSION})"
                )
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

/// One persisted session.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionSnap {
    /// Session id.
    pub id: u64,
    /// The registered qlang source.
    pub source: String,
    /// Admission weight.
    pub weight: f64,
    /// Tick the session was registered at.
    pub registered_tick: u64,
    /// Calibrated per-leaf probabilities (flat term-major order).
    pub calibrated: Vec<f64>,
    /// Observed per-leaf successes.
    pub successes: Vec<u64>,
    /// Observed per-leaf totals.
    pub totals: Vec<u64>,
    /// The session's leaf schedule as `(term, leaf)` pairs.
    pub schedule: Vec<(usize, usize)>,
    /// Tick of the session's pending request, when one was in flight.
    pub pending_since: Option<u64>,
}

/// One persisted arrangement shell. Ring contents are *not* persisted:
/// stream data is a pure function of `(seed, k, tick)`, so a restore
/// refills each ring from the replayed streams.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArrangeEntrySnap {
    /// Arranged stream index.
    pub stream: usize,
    /// Window spec (ring capacity).
    pub window: u32,
    /// Live reader refcount.
    pub readers: u32,
    /// Timestamp of the newest maintained item (0 = never maintained).
    pub maintained_to: u64,
    /// Store clock at which the reader count hit zero, while in grace.
    pub zero_reader_since: Option<u64>,
}

/// The persisted arrangement store: lifetime counters plus the live
/// arrangement shells.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArrangeSnap {
    /// Maintenance ticks seen (drives grace-period eviction).
    pub clock: u64,
    /// Reads served from maintained state.
    pub hits: u64,
    /// Items served from maintained state.
    pub hit_items: u64,
    /// Items fetched by maintenance.
    pub maintained_items: u64,
    /// Arrangements evicted after their grace period.
    pub evictions: u64,
    /// Live arrangements in `(stream, window)` order.
    pub entries: Vec<ArrangeEntrySnap>,
}

/// The daemon's complete persistent state.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Format version ([`SNAPSHOT_VERSION`]).
    pub version: u64,
    /// Daemon configuration.
    pub config: Config,
    /// Tick the snapshot was taken at.
    pub tick: u64,
    /// Next session id to assign (ids never recycle).
    pub next_id: u64,
    /// Churn events since the last full joint re-plan.
    pub churn_since_replan: u64,
    /// Whether execution shares one device memory per tick.
    pub shared: bool,
    /// The union catalog as `(name, cost)` in stream-id order.
    pub catalog: Vec<(String, f64)>,
    /// Live sessions in id order.
    pub sessions: Vec<SessionSnap>,
    /// Joint execution order (session ids).
    pub order: Vec<u64>,
    /// Lifetime counters.
    pub telemetry: Telemetry,
    /// Persistent arrangement store (version >= 2, arrangements on).
    pub arrangements: Option<ArrangeSnap>,
}

impl Snapshot {
    /// Serializes to the snapshot JSON document.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("version", Json::from_u64(self.version)),
            ("config", self.config.to_json()),
            ("tick", Json::from_u64(self.tick)),
            ("next_id", Json::from_u64(self.next_id)),
            (
                "churn_since_replan",
                Json::from_u64(self.churn_since_replan),
            ),
            ("shared", Json::Bool(self.shared)),
            (
                "catalog",
                Json::Arr(
                    self.catalog
                        .iter()
                        .map(|(name, cost)| {
                            Json::obj([
                                ("name", Json::Str(name.clone())),
                                ("cost", Json::Num(*cost)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "sessions",
                Json::Arr(self.sessions.iter().map(session_to_json).collect()),
            ),
            ("order", Json::u64_arr(self.order.iter().copied())),
            ("telemetry", self.telemetry.to_json()),
        ];
        if let Some(a) = &self.arrangements {
            fields.push(("arrangements", arrange_to_json(a)));
        }
        Json::obj(fields)
    }

    /// The canonical one-line file rendering (trailing newline).
    /// Deterministic: `parse(render(s)).render() == render(s)`.
    pub fn render(&self) -> String {
        let mut s = self.to_json().to_string_compact();
        s.push('\n');
        s
    }

    /// Parses a rendered snapshot.
    pub fn parse(input: &str) -> std::result::Result<Snapshot, SnapshotError> {
        let v = parse(input.trim_end()).map_err(SnapshotError::Json)?;
        let invalid = |m: &str| SnapshotError::Invalid(m.to_string());
        let version = v
            .get("version")
            .and_then(Json::as_u64)
            .ok_or_else(|| invalid("missing `version`"))?;
        if !(1..=SNAPSHOT_VERSION).contains(&version) {
            return Err(SnapshotError::UnsupportedVersion(version));
        }
        let config = Config::from_json(v.get("config").ok_or_else(|| invalid("missing `config`"))?)
            .map_err(SnapshotError::Invalid)?;
        let u = |k: &str| {
            v.field("snapshot", k, Json::as_u64)
                .map_err(SnapshotError::Invalid)
        };
        let catalog = v
            .get("catalog")
            .and_then(Json::as_arr)
            .ok_or_else(|| invalid("missing `catalog`"))?
            .iter()
            .map(|e| {
                Some((
                    e.get("name")?.as_str()?.to_string(),
                    e.get("cost")?.as_f64()?,
                ))
            })
            .collect::<Option<Vec<_>>>()
            .ok_or_else(|| invalid("malformed catalog entry"))?;
        let sessions = v
            .get("sessions")
            .and_then(Json::as_arr)
            .ok_or_else(|| invalid("missing `sessions`"))?
            .iter()
            .map(session_from_json)
            .collect::<std::result::Result<Vec<_>, _>>()
            .map_err(SnapshotError::Invalid)?;
        let order = v
            .get("order")
            .and_then(Json::as_arr)
            .ok_or_else(|| invalid("missing `order`"))?
            .iter()
            .map(|x| x.as_u64())
            .collect::<Option<Vec<_>>>()
            .ok_or_else(|| invalid("malformed order entry"))?;
        let telemetry = Telemetry::from_json(
            v.get("telemetry")
                .ok_or_else(|| invalid("missing `telemetry`"))?,
        )
        .map_err(SnapshotError::Invalid)?;
        let arrangements = match v.get("arrangements") {
            None | Some(Json::Null) => None,
            Some(a) => Some(arrange_from_json(a)?),
        };
        Ok(Snapshot {
            version,
            config,
            tick: u("tick")?,
            next_id: u("next_id")?,
            churn_since_replan: u("churn_since_replan")?,
            shared: v
                .get("shared")
                .and_then(Json::as_bool)
                .ok_or_else(|| invalid("missing `shared`"))?,
            catalog,
            sessions,
            order,
            telemetry,
            arrangements,
        })
    }

    /// Writes the rendered snapshot to `path` (write-then-rename, so a
    /// crash never leaves a truncated snapshot in place). An existing
    /// snapshot is first rotated to `<path>.1` as the last-good
    /// generation, so even if the new primary is later corrupted on
    /// disk, [`Snapshot::load_with_fallback`] still has a complete
    /// document to restore from.
    pub fn save(&self, path: &str) -> std::result::Result<(), SnapshotError> {
        let tmp = format!("{path}.tmp");
        std::fs::write(&tmp, self.render())
            .map_err(|e| SnapshotError::Io(format!("write {tmp}: {e}")))?;
        if std::fs::metadata(path).is_ok() {
            let previous = format!("{path}.1");
            std::fs::rename(path, &previous)
                .map_err(|e| SnapshotError::Io(format!("rotate to {previous}: {e}")))?;
        }
        std::fs::rename(&tmp, path).map_err(|e| SnapshotError::Io(format!("rename to {path}: {e}")))
    }

    /// Reads and parses a snapshot file.
    pub fn load(path: &str) -> std::result::Result<Snapshot, SnapshotError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| SnapshotError::Io(format!("read {path}: {e}")))?;
        Snapshot::parse(&text)
    }

    /// Loads `path`, falling back to the rotated last-good generation
    /// `<path>.1` when the primary is missing, corrupt or truncated.
    /// Returns the snapshot and whether the fallback was used; when
    /// both generations fail, the *primary's* error is reported.
    pub fn load_with_fallback(path: &str) -> std::result::Result<(Snapshot, bool), SnapshotError> {
        match Snapshot::load(path) {
            Ok(snap) => Ok((snap, false)),
            Err(primary) => match Snapshot::load(&format!("{path}.1")) {
                Ok(snap) => Ok((snap, true)),
                Err(_) => Err(primary),
            },
        }
    }

    /// Rebuilds the session registry (and the pending-request map) this
    /// snapshot describes. Every session's source is recompiled against
    /// the persisted catalog; calibration and schedules are adopted
    /// verbatim after validation.
    pub(crate) fn restore_registry(&self) -> Result<(SessionRegistry, BTreeMap<u64, u64>)> {
        let mut catalog = StreamCatalog::new();
        for (name, cost) in &self.catalog {
            catalog
                .add_named(name, *cost)
                .map_err(|e| SnapshotError::Invalid(format!("catalog: {e}")))?;
        }
        let mut sessions = Vec::with_capacity(self.sessions.len());
        let mut pending = BTreeMap::new();
        for snap in &self.sessions {
            let session = restore_session(snap, &catalog)?;
            if let Some(t) = snap.pending_since {
                pending.insert(snap.id, t);
            }
            sessions.push(session);
        }
        let registry = SessionRegistry::from_restored_parts(crate::registry::RestoredParts {
            planner: self.config.planner.clone(),
            max_sessions: self.config.max_sessions,
            max_window: self.config.max_window,
            shared: self.shared,
            catalog,
            sessions,
            order: self.order.clone(),
            next_id: self.next_id,
        })?;
        Ok((registry, pending))
    }
}

fn arrange_to_json(a: &ArrangeSnap) -> Json {
    Json::obj([
        ("clock", Json::from_u64(a.clock)),
        ("hits", Json::from_u64(a.hits)),
        ("hit_items", Json::from_u64(a.hit_items)),
        ("maintained_items", Json::from_u64(a.maintained_items)),
        ("evictions", Json::from_u64(a.evictions)),
        (
            "entries",
            Json::Arr(
                a.entries
                    .iter()
                    .map(|e| {
                        Json::obj([
                            ("stream", Json::from_u64(e.stream as u64)),
                            ("window", Json::from_u64(u64::from(e.window))),
                            ("readers", Json::from_u64(u64::from(e.readers))),
                            ("maintained_to", Json::from_u64(e.maintained_to)),
                            (
                                "zero_reader_since",
                                e.zero_reader_since
                                    .map(Json::from_u64)
                                    .unwrap_or(Json::Null),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn arrange_from_json(v: &Json) -> std::result::Result<ArrangeSnap, SnapshotError> {
    let u = |k: &str| {
        v.field("arrangements", k, Json::as_u64)
            .map_err(SnapshotError::Invalid)
    };
    let entries = v
        .get("entries")
        .and_then(Json::as_arr)
        .ok_or_else(|| SnapshotError::Invalid("arrangements: missing `entries`".into()))?
        .iter()
        .map(|e| {
            let eu = |k: &str| e.get(k).and_then(Json::as_u64);
            let zero_reader_since = match e.get("zero_reader_since") {
                None | Some(Json::Null) => None,
                Some(t) => Some(t.as_u64()?),
            };
            Some(ArrangeEntrySnap {
                stream: eu("stream")? as usize,
                window: u32::try_from(eu("window")?).ok()?,
                readers: u32::try_from(eu("readers")?).ok()?,
                maintained_to: eu("maintained_to")?,
                zero_reader_since,
            })
        })
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| SnapshotError::Invalid("arrangements: malformed entry".into()))?;
    Ok(ArrangeSnap {
        clock: u("clock")?,
        hits: u("hits")?,
        hit_items: u("hit_items")?,
        maintained_items: u("maintained_items")?,
        evictions: u("evictions")?,
        entries,
    })
}

fn session_to_json(s: &SessionSnap) -> Json {
    Json::obj([
        ("id", Json::from_u64(s.id)),
        ("source", Json::Str(s.source.clone())),
        ("weight", Json::Num(s.weight)),
        ("registered_tick", Json::from_u64(s.registered_tick)),
        ("calibrated", Json::f64_arr(s.calibrated.iter().copied())),
        ("successes", Json::u64_arr(s.successes.iter().copied())),
        ("totals", Json::u64_arr(s.totals.iter().copied())),
        (
            "schedule",
            Json::Arr(
                s.schedule
                    .iter()
                    .map(|&(t, l)| Json::u64_arr([t as u64, l as u64]))
                    .collect(),
            ),
        ),
        (
            "pending_since",
            s.pending_since.map(Json::from_u64).unwrap_or(Json::Null),
        ),
    ])
}

/// Reads a JSON array whose every item `get` accepts.
fn all<'a, T>(get: impl Fn(&'a Json) -> Option<T>) -> impl Fn(&'a Json) -> Option<Vec<T>> {
    move |x| x.as_arr()?.iter().map(&get).collect()
}

fn session_from_json(v: &Json) -> std::result::Result<SessionSnap, String> {
    let pair = |p: &Json| match p.as_arr()? {
        [t, l] => Some((t.as_u64()? as usize, l.as_u64()? as usize)),
        _ => None,
    };
    let pending_since = match v.get("pending_since") {
        None | Some(Json::Null) => None,
        Some(_) => Some(v.field("session", "pending_since", Json::as_u64)?),
    };
    Ok(SessionSnap {
        id: v.field("session", "id", Json::as_u64)?,
        source: v.field("session", "source", Json::as_str)?.to_string(),
        weight: v.field("session", "weight", Json::as_f64)?,
        registered_tick: v.field("session", "registered_tick", Json::as_u64)?,
        calibrated: v.field("session", "calibrated", all(Json::as_f64))?,
        successes: v.field("session", "successes", all(Json::as_u64))?,
        totals: v.field("session", "totals", all(Json::as_u64))?,
        schedule: v.field("session", "schedule", all(pair))?,
        pending_since,
    })
}

/// Recompiles one persisted session against the restored catalog and
/// adopts its calibration and schedule after validating both.
fn restore_session(snap: &SessionSnap, catalog: &StreamCatalog) -> Result<Session> {
    let fail = |m: String| Error::Snapshot(SnapshotError::Invalid(m));
    let expr = paotr_qlang::parse(&snap.source).map_err(|e| {
        fail(format!(
            "session {}: unparseable source: {}",
            snap.id, e.message
        ))
    })?;
    let compiled = paotr_qlang::compile(&expr, &std::collections::HashMap::new())
        .map_err(|e| fail(format!("session {}: {}", snap.id, e.message)))?;
    let local_sim = paotr_qlang::to_sim_query(&expr, &compiled)
        .ok_or_else(|| fail(format!("session {}: source is not DNF-shaped", snap.id)))?;
    let mut map = Vec::with_capacity(compiled.catalog.len());
    for k in 0..compiled.catalog.len() {
        let name = compiled.catalog.name(paotr_core::stream::StreamId(k));
        let global = catalog.find(&name).ok_or_else(|| {
            fail(format!(
                "session {}: stream `{name}` missing from catalog",
                snap.id
            ))
        })?;
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
    .map_err(|e| fail(format!("session {}: {e}", snap.id)))?;

    if snap.calibrated.len() != sim.num_leaves() {
        return Err(fail(format!(
            "session {}: calibration covers {} leaves, query has {}",
            snap.id,
            snap.calibrated.len(),
            sim.num_leaves()
        )));
    }
    if snap.calibrated.iter().any(|p| !p.is_finite()) {
        return Err(fail(format!(
            "session {}: non-finite calibrated probability",
            snap.id
        )));
    }
    let tree = sim.skeleton(&snap.calibrated);
    let mut drift = DriftState::new(&tree);
    drift
        .restore(
            snap.calibrated.clone(),
            snap.successes.clone(),
            snap.totals.clone(),
        )
        .map_err(|e| fail(format!("session {}: {e}", snap.id)))?;
    let schedule = schedule_from_pairs(&snap.schedule, &tree)
        .map_err(|e| fail(format!("session {}: {e}", snap.id)))?;
    Ok(Session {
        id: snap.id,
        name: format!("c{}", snap.id),
        source: snap.source.clone(),
        weight: snap.weight,
        registered_tick: snap.registered_tick,
        sim,
        tree,
        schedule: Arc::new(schedule),
        drift,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::daemon::Daemon;

    fn populated_daemon() -> Daemon {
        let mut d = Daemon::new(Config {
            budget: Some(15.0),
            ..Config::default()
        })
        .unwrap();
        d.register("AVG(A,8) < 0.5 AND MAX(B,4) > 0.0", 1.0)
            .unwrap();
        d.register("(B < 0.2 AND C < 0.3) OR AVG(C,6) > 0.1", 2.0)
            .unwrap();
        d.register("LAST(A,2) < 0.5 @ 0.3", 0.5).unwrap();
        d.run_ticks(30).unwrap();
        d.unregister(1).unwrap();
        d.run_ticks(5).unwrap();
        d
    }

    #[test]
    fn render_parse_render_is_byte_identical() {
        let snap = populated_daemon().snapshot();
        let once = snap.render();
        let reparsed = Snapshot::parse(&once).unwrap();
        assert_eq!(reparsed, snap);
        assert_eq!(reparsed.render(), once, "round trip must be byte-identical");
    }

    #[test]
    fn restore_continues_counters_exactly() {
        let d = populated_daemon();
        let before = d.telemetry().clone();
        let tick = d.tick();
        let restored = Daemon::from_snapshot(&d.snapshot()).unwrap();
        assert_eq!(restored.telemetry(), &before);
        assert_eq!(restored.tick(), tick);
        assert_eq!(restored.registry().len(), 2);
        assert_eq!(restored.registry().order(), d.registry().order());
        assert_eq!(
            restored.registry().plan_digest(),
            d.registry().plan_digest(),
            "plan state survives the round trip"
        );
    }

    #[test]
    fn restored_daemon_serves_the_same_data_as_the_uninterrupted_run() {
        let mut d = populated_daemon();
        let mut restored = Daemon::from_snapshot(&d.snapshot()).unwrap();
        let a = d.run_ticks(20).unwrap();
        let b = restored.run_ticks(20).unwrap();
        assert_eq!(a, b, "restore must replay streams to the snapshot tick");
    }

    fn populated_arranged_daemon() -> Daemon {
        let mut d = Daemon::new(Config {
            budget: Some(15.0),
            arrange: Some(stream_sim::ArrangeConfig::default()),
            ..Config::default()
        })
        .unwrap();
        d.register("AVG(A,8) < 0.5 AND MAX(B,4) > 0.0", 1.0)
            .unwrap();
        d.register("(B < 0.2 AND C < 0.3) OR AVG(C,6) > 0.1", 2.0)
            .unwrap();
        d.register("LAST(A,2) < 0.5 @ 0.3", 0.5).unwrap();
        d.run_ticks(30).unwrap();
        d.unregister(1).unwrap();
        d.run_ticks(5).unwrap();
        d
    }

    #[test]
    fn arranged_snapshot_round_trips_and_replays_tick_for_tick() {
        let mut d = populated_arranged_daemon();
        let snap = d.snapshot();
        assert_eq!(snap.version, SNAPSHOT_VERSION);
        let arr = snap.arrangements.as_ref().expect("store persisted");
        assert!(!arr.entries.is_empty());
        assert!(arr.maintained_items > 0);
        let once = snap.render();
        let reparsed = Snapshot::parse(&once).unwrap();
        assert_eq!(reparsed, snap);
        assert_eq!(reparsed.render(), once);

        // The PR's replay bar: a restore with live arrangements serves
        // the exact energies of the uninterrupted run, and the store
        // counters march in lockstep.
        let mut restored = Daemon::from_snapshot(&snap).unwrap();
        let a = d.run_ticks(20).unwrap();
        let b = restored.run_ticks(20).unwrap();
        assert_eq!(a, b, "arranged replay must be tick-for-tick identical");
        assert_eq!(
            d.arrangements().unwrap().stats(),
            restored.arrangements().unwrap().stats()
        );
        assert_eq!(d.telemetry(), restored.telemetry());
    }

    #[test]
    fn arranged_snapshot_with_wrong_refcounts_fails_typed() {
        let snap = populated_arranged_daemon().snapshot();
        let mut bad = snap.clone();
        bad.arrangements.as_mut().unwrap().entries[0].readers += 1;
        assert!(matches!(
            Daemon::from_snapshot(&bad),
            Err(Error::Snapshot(SnapshotError::Invalid(_)))
        ));
        // Arrangements persisted while the config has them off.
        let mut off = snap;
        off.config.arrange = None;
        assert!(matches!(
            Daemon::from_snapshot(&off),
            Err(Error::Snapshot(SnapshotError::Invalid(_)))
        ));
    }

    #[test]
    fn save_and_load_round_trip_through_disk() {
        let d = populated_daemon();
        let path = std::env::temp_dir().join("paotr_serverd_snapshot_test.json");
        let path = path.to_str().unwrap();
        d.save_snapshot(path).unwrap();
        let restored = Daemon::load_snapshot(path).unwrap();
        assert_eq!(restored.telemetry(), d.telemetry());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn corrupted_and_truncated_snapshots_fail_typed_not_panicking() {
        let good = populated_daemon().snapshot().render();
        // Truncations at every length must never panic.
        for cut in 0..good.len() {
            let _ = Snapshot::parse(&good[..cut]);
        }
        assert!(matches!(
            Snapshot::parse(&good[..good.len() / 2]),
            Err(SnapshotError::Json(_) | SnapshotError::Invalid(_))
        ));
        assert!(matches!(
            Snapshot::parse("not json at all"),
            Err(SnapshotError::Json(_))
        ));
        let wrong_version = good.replace("\"version\":1", "\"version\":99");
        assert!(matches!(
            Snapshot::parse(&wrong_version),
            Err(SnapshotError::UnsupportedVersion(99))
        ));
        // A schedule that is not a permutation of the tree's leaves.
        let mut bad_schedule = Snapshot::parse(&good).unwrap();
        bad_schedule.sessions[0].schedule = vec![(0, 0), (0, 0)];
        assert!(matches!(
            Daemon::from_snapshot(&bad_schedule),
            Err(Error::Snapshot(SnapshotError::Invalid(_)))
        ));
        // Calibration state that does not fit the query.
        let mut bad_calib = Snapshot::parse(&good).unwrap();
        bad_calib.sessions[0].calibrated = vec![0.5];
        assert!(matches!(
            Daemon::from_snapshot(&bad_calib),
            Err(Error::Snapshot(SnapshotError::Invalid(_)))
        ));
        assert!(matches!(
            Snapshot::load("/nonexistent/paotr.snap"),
            Err(SnapshotError::Io(_))
        ));
    }
}
