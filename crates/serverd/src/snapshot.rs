//! Versioned on-disk daemon state.
//!
//! A snapshot captures everything the daemon cannot recompute: the
//! configuration, the union catalog, every session's source text,
//! calibration estimators, current schedule and pending request, the
//! joint execution order, and the telemetry counters. Sensor data is
//! *not* persisted — stream `k`'s items are a pure function of
//! `(seed, k, tick)`, so a restore replays each stream to the snapshot
//! tick and serving continues on the data the uninterrupted run would
//! have produced. Arrangement rings are not persisted either: each is
//! refilled from its stream when the replay reaches the ring's
//! `maintained_to`.
//!
//! The format is versioned single-line JSON. Rendering is
//! deterministic: parsing a rendered snapshot and rendering it again
//! reproduces the bytes exactly (pinned by test and by the committed
//! compatibility fixture). Corrupt or truncated input surfaces as a
//! typed [`SnapshotError`], never a panic.
//!
//! [`Snapshot::validate`] holds every rule a parsed snapshot must keep
//! — catalog, registry, counters, per-session state, arrangements and
//! their refcounts. A restore refuses any violation before building
//! anything, and `paotr check snapshot` reports the same list.

use crate::daemon::{session_acquisitions, Config};
use crate::json::{parse, Json, JsonError};
use crate::registry::{schedule_from_pairs, session_query, Session, SessionRegistry};
use crate::telemetry::Telemetry;
use crate::Result;
use paotr_core::stream::StreamCatalog;
use paotr_exec::DriftState;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Current snapshot format version. Version 2 added the optional
/// `arrangements` section (and arrangement telemetry); daemons without
/// arrangements still write version 1, and this build reads both.
pub(crate) const SNAPSHOT_VERSION: u64 = 2;

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

/// One rule of [`Snapshot::validate`], with a stable kebab-case
/// [`Rule::name`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rule {
    /// The document does not parse (reported by `paotr check`; a parsed
    /// [`Snapshot`] cannot break it).
    ParseFailed,
    /// The config names an unknown planner, a zero ceiling, or a
    /// `max_window` above [`crate::MAX_WINDOW`].
    ConfigInvalid,
    /// A catalog entry has a duplicate name, or a cost that is not
    /// finite and > 0.
    CatalogInvalid,
    /// Two sessions share an id.
    DuplicateSessionId,
    /// `order` is not a permutation of the session ids.
    OrderMismatch,
    /// `next_id` does not exceed every session id, so a future
    /// registration would collide.
    NextIdBehind,
    /// More sessions than `config.max_sessions`.
    SessionLimitExceeded,
    /// A counter runs backwards: telemetry ticks other than `tick`, a
    /// registration or pending request after `tick`, an idle time after
    /// the arrangement clock.
    NonMonotoneTick,
    /// A session's source does not compile to a DNF query.
    SessionSourceInvalid,
    /// A session reads a stream the catalog lacks.
    UnresolvedStream,
    /// A session's window exceeds `config.max_window`.
    WindowLimitExceeded,
    /// A session's weight, calibration, observations or schedule do not
    /// fit its query.
    SessionStateInvalid,
    /// Arrangements are persisted while `config.arrange` is off.
    ArrangementsUnexpected,
    /// An arrangement entry is malformed: stream outside the catalog,
    /// zero window, duplicate `(stream, window)`, readers while in
    /// grace, or maintained past the stream's time.
    ArrangementInvalid,
    /// A persisted reader refcount differs from the acquisitions the
    /// sessions hold.
    RefcountImbalance,
    /// Sessions read through an arrangement the snapshot does not
    /// persist.
    MissingArrangement,
}

impl Rule {
    /// Every rule.
    pub const ALL: [Rule; 16] = [
        Rule::ParseFailed,
        Rule::ConfigInvalid,
        Rule::CatalogInvalid,
        Rule::DuplicateSessionId,
        Rule::OrderMismatch,
        Rule::NextIdBehind,
        Rule::SessionLimitExceeded,
        Rule::NonMonotoneTick,
        Rule::SessionSourceInvalid,
        Rule::UnresolvedStream,
        Rule::WindowLimitExceeded,
        Rule::SessionStateInvalid,
        Rule::ArrangementsUnexpected,
        Rule::ArrangementInvalid,
        Rule::RefcountImbalance,
        Rule::MissingArrangement,
    ];

    /// Stable kebab-case rule name.
    pub fn name(self) -> &'static str {
        match self {
            Rule::ParseFailed => "parse-failed",
            Rule::ConfigInvalid => "config-invalid",
            Rule::CatalogInvalid => "catalog-invalid",
            Rule::DuplicateSessionId => "duplicate-session-id",
            Rule::OrderMismatch => "order-mismatch",
            Rule::NextIdBehind => "next-id-behind",
            Rule::SessionLimitExceeded => "session-limit-exceeded",
            Rule::NonMonotoneTick => "non-monotone-tick",
            Rule::SessionSourceInvalid => "session-source-invalid",
            Rule::UnresolvedStream => "unresolved-stream",
            Rule::WindowLimitExceeded => "window-limit-exceeded",
            Rule::SessionStateInvalid => "session-state-invalid",
            Rule::ArrangementsUnexpected => "arrangements-unexpected",
            Rule::ArrangementInvalid => "arrangement-invalid",
            Rule::RefcountImbalance => "refcount-imbalance",
            Rule::MissingArrangement => "missing-arrangement",
        }
    }
}

/// One broken [`Rule`], located by a path into the snapshot document.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotViolation {
    /// The rule.
    pub rule: Rule,
    /// Where, e.g. `sessions[id=2].calibrated[0]`.
    pub path: String,
    /// What is wrong there.
    pub detail: String,
}

impl SnapshotViolation {
    /// A violation of `rule` at `path`.
    pub fn new(rule: Rule, path: impl Into<String>, detail: impl Into<String>) -> Self {
        SnapshotViolation {
            rule,
            path: path.into(),
            detail: detail.into(),
        }
    }
}

impl std::fmt::Display for SnapshotViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at {}: {}", self.rule.name(), self.path, self.detail)
    }
}

/// What [`Snapshot::check`] builds on its way through the rules: the
/// violations, plus the catalog and compiled sessions a restore adopts
/// when there are none.
struct Checked {
    violations: Vec<SnapshotViolation>,
    catalog: StreamCatalog,
    sessions: Vec<Session>,
}

/// The restored state of a valid snapshot.
pub(crate) struct Restored {
    pub registry: SessionRegistry,
    /// Pending request per session: the tick it first arrived.
    pub pending: BTreeMap<u64, u64>,
}

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
/// refills each ring from its stream when the stream's replay reaches
/// `maintained_to` (`ArrangementStore::replay`).
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
    /// Format version (`SNAPSHOT_VERSION`).
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
    pub(crate) fn to_json(&self) -> Json {
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
    pub(crate) fn save(&self, path: &str) -> std::result::Result<(), SnapshotError> {
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

    /// Every rule this snapshot breaks, in document order — not just the
    /// first. [`Daemon::from_snapshot`](crate::Daemon::from_snapshot)
    /// refuses a snapshot with any violation and `paotr check snapshot`
    /// reports them, so both apply exactly this rule set.
    pub fn validate(&self) -> Vec<SnapshotViolation> {
        self.check().violations
    }

    /// Runs the rules, compiling each session through the one restore
    /// path ([`restore_session`]) and deriving its arrangement
    /// acquisitions through the rule `register` uses.
    fn check(&self) -> Checked {
        use Rule::*;
        let mut out = Vec::new();
        let mut flag = |rule, path: String, detail: String| {
            out.push(SnapshotViolation::new(rule, path, detail));
        };
        let cfg = &self.config;
        if let Err(e) = SessionRegistry::new(&cfg.planner, cfg.max_sessions, cfg.max_window) {
            flag(ConfigInvalid, "config".into(), e.to_string());
        }

        // A bad catalog entry still takes its id (at unit cost, unnamed
        // when its name is taken), so sessions resolve names to the ids
        // the snapshot means.
        let mut catalog = StreamCatalog::new();
        for (k, (name, cost)) in self.catalog.iter().enumerate() {
            let usable = cost.is_finite() && *cost > 0.0;
            if !usable {
                let detail = format!("stream `{name}` has unusable cost {cost}");
                flag(CatalogInvalid, format!("catalog[{k}]"), detail);
            }
            if let Err(e) = catalog.add_named(name, if usable { *cost } else { 1.0 }) {
                flag(CatalogInvalid, format!("catalog[{k}]"), e.to_string());
                catalog.add(1.0).expect("unit cost is valid");
            }
        }

        let mut ids = BTreeSet::new();
        for s in &self.sessions {
            if !ids.insert(s.id) {
                let path = format!("sessions[id={}]", s.id);
                flag(DuplicateSessionId, path, "id appears twice".into());
            }
        }
        if let Some(&max) = ids.last().filter(|&&max| self.next_id <= max) {
            let detail = format!("{} does not exceed live session id {max}", self.next_id);
            flag(NextIdBehind, "next_id".into(), detail);
        }
        if self.sessions.len() > cfg.max_sessions {
            let detail = format!(
                "{} sessions exceed max_sessions {}",
                self.sessions.len(),
                cfg.max_sessions
            );
            flag(SessionLimitExceeded, "sessions".into(), detail);
        }
        if self.order.iter().copied().collect::<BTreeSet<_>>() != ids
            || self.order.len() != self.sessions.len()
        {
            let detail = format!(
                "lists {} ids over {} sessions, not a permutation of the session ids",
                self.order.len(),
                self.sessions.len()
            );
            flag(OrderMismatch, "order".into(), detail);
        }

        if self.telemetry.ticks != self.tick {
            let detail = format!(
                "{} ticks counted, snapshot is at tick {}",
                self.telemetry.ticks, self.tick
            );
            flag(NonMonotoneTick, "telemetry.ticks".into(), detail);
        }
        for s in &self.sessions {
            for (field, t) in [
                ("registered_tick", Some(s.registered_tick)),
                ("pending_since", s.pending_since),
            ] {
                if let Some(t) = t.filter(|&t| t > self.tick) {
                    let path = format!("sessions[id={}].{field}", s.id);
                    let detail = format!("tick {t} is after snapshot tick {}", self.tick);
                    flag(NonMonotoneTick, path, detail);
                }
            }
        }

        let mut sessions = Vec::with_capacity(self.sessions.len());
        let mut holds: BTreeMap<(usize, u32), u32> = BTreeMap::new();
        for snap in &self.sessions {
            if !(snap.weight.is_finite() && snap.weight > 0.0) {
                let path = format!("sessions[id={}].weight", snap.id);
                flag(
                    SessionStateInvalid,
                    path,
                    format!("unusable weight {}", snap.weight),
                );
            }
            let session = match restore_session(snap, &catalog) {
                Ok(session) => session,
                Err(v) => {
                    flag(v.rule, v.path, v.detail);
                    continue;
                }
            };
            let widest = session.sim.max_windows(catalog.len()).into_iter().max();
            if let Some(w) = widest.filter(|&w| w > cfg.max_window) {
                let path = format!("sessions[id={}]", snap.id);
                let detail = format!("window {w} exceeds max_window {}", cfg.max_window);
                flag(WindowLimitExceeded, path, detail);
            }
            if cfg.arrange.is_some() {
                for (k, w) in session_acquisitions(&session.sim) {
                    *holds.entry((k.0, w)).or_default() += 1;
                }
            }
            sessions.push(session);
        }

        if self.arrangements.is_some() && cfg.arrange.is_none() {
            let detail = "snapshot persists arrangements but config.arrange is off";
            flag(ArrangementsUnexpected, "arrangements".into(), detail.into());
        }
        let (clock, entries) = self
            .arrangements
            .as_ref()
            .map_or((0, &[][..]), |a| (a.clock, &a.entries[..]));
        // Stream `k` holds `max_window + tick` items at the snapshot
        // tick (`Daemon::ensure_streams`); maintenance never runs ahead.
        let stream_time = self.tick.saturating_add(u64::from(cfg.max_window));
        let mut keys = BTreeSet::new();
        for (i, e) in entries.iter().enumerate() {
            let path = || format!("arrangements.entries[{i}]");
            if e.stream >= self.catalog.len() {
                let detail = format!("stream {} not in catalog", e.stream);
                flag(ArrangementInvalid, path(), detail);
            }
            if e.window == 0 {
                flag(ArrangementInvalid, path(), "zero-item window".into());
            }
            if !keys.insert((e.stream, e.window)) {
                let detail = format!("duplicate (stream {}, window {})", e.stream, e.window);
                flag(ArrangementInvalid, path(), detail);
            }
            if e.readers > 0 && e.zero_reader_since.is_some() {
                let detail = "an arrangement with readers cannot be in grace";
                flag(ArrangementInvalid, path(), detail.into());
            }
            if e.maintained_to >= stream_time {
                let detail = format!(
                    "maintained to {}, but the stream is at {stream_time} (max_window + tick)",
                    e.maintained_to
                );
                flag(ArrangementInvalid, path(), detail);
            }
            if let Some(z) = e.zero_reader_since.filter(|&z| z > clock) {
                let detail = format!("idle since {z}, after store clock {clock}");
                flag(NonMonotoneTick, path() + ".zero_reader_since", detail);
            }
        }
        // Refcounts balance against what the sessions hold, once every
        // session compiled (a failed one was reported above).
        if cfg.arrange.is_some() && sessions.len() == self.sessions.len() {
            for e in entries {
                let want = holds.remove(&(e.stream, e.window)).unwrap_or(0);
                if e.readers != want {
                    let path = format!("arrangements[stream={},window={}]", e.stream, e.window);
                    let detail = format!("persists {} readers, sessions hold {want}", e.readers);
                    flag(RefcountImbalance, path, detail);
                }
            }
            for (k, w) in holds.into_keys() {
                let detail = "sessions read through an arrangement the snapshot does not persist";
                flag(
                    MissingArrangement,
                    format!("arrangements[stream={k},window={w}]"),
                    detail.into(),
                );
            }
        }

        Checked {
            violations: out,
            catalog,
            sessions,
        }
    }

    /// Rebuilds the session registry and pending requests of a snapshot
    /// that passes [`Snapshot::validate`]; any violation is a
    /// [`SnapshotError::Invalid`] naming them all.
    pub(crate) fn restore(&self) -> Result<Restored> {
        let checked = self.check();
        if !checked.violations.is_empty() {
            let all: Vec<String> = checked.violations.iter().map(|v| v.to_string()).collect();
            return Err(SnapshotError::Invalid(all.join("; ")).into());
        }
        let registry = SessionRegistry::from_restored_parts(crate::registry::RestoredParts {
            planner: self.config.planner.clone(),
            max_sessions: self.config.max_sessions,
            max_window: self.config.max_window,
            shared: self.shared,
            catalog: checked.catalog,
            sessions: checked.sessions,
            order: self.order.clone(),
            next_id: self.next_id,
        })?;
        let pending = self
            .sessions
            .iter()
            .filter_map(|s| Some((s.id, s.pending_since?)))
            .collect();
        Ok(Restored { registry, pending })
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

/// Recompiles one persisted session against the snapshot catalog and
/// adopts its calibration and schedule; the first rule the session
/// breaks on the way is the error.
fn restore_session(
    snap: &SessionSnap,
    catalog: &StreamCatalog,
) -> std::result::Result<Session, SnapshotViolation> {
    let at = |field: &str| format!("sessions[id={}].{field}", snap.id);
    let source =
        |detail: String| SnapshotViolation::new(Rule::SessionSourceInvalid, at("source"), detail);
    let state = |field: &str, detail: String| {
        SnapshotViolation::new(Rule::SessionStateInvalid, at(field), detail)
    };
    let (sim, _) = session_query(&snap.source, source, |name, _| {
        catalog.find(name).ok_or_else(|| {
            let path = format!("sessions[id={}]", snap.id);
            let detail = format!("stream `{name}` missing from catalog");
            SnapshotViolation::new(Rule::UnresolvedStream, path, detail)
        })
    })?;

    // One probability in [0, 1] per leaf.
    if snap.calibrated.len() != sim.num_leaves() {
        let detail = format!(
            "calibration covers {} leaves, query has {}",
            snap.calibrated.len(),
            sim.num_leaves()
        );
        return Err(state("calibrated", detail));
    }
    let mut calibrated = snap.calibrated.iter().enumerate();
    if let Some((i, p)) = calibrated.find(|(_, p)| !(0.0..=1.0).contains(*p)) {
        return Err(state(
            &format!("calibrated[{i}]"),
            format!("probability {p} outside [0, 1]"),
        ));
    }
    let tree = sim.skeleton(&snap.calibrated);
    let mut drift = DriftState::new(&tree);
    drift
        .restore(
            snap.calibrated.clone(),
            snap.successes.clone(),
            snap.totals.clone(),
        )
        .map_err(|e| state("successes", e))?;
    let schedule = schedule_from_pairs(&snap.schedule, &tree).map_err(|e| state("schedule", e))?;
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
    use crate::Error;

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
