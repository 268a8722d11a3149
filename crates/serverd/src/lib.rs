//! # paotr-serverd — the long-running serving daemon
//!
//! The serving loop in `paotr_exec` answers "how would this *fixed*
//! workload behave under arrivals and a budget"; a deployment is never
//! fixed. This crate is the live surface on top of the same runtime:
//! a daemon that admits qlang queries over a newline-delimited JSON
//! protocol (stdin/stdout or TCP), keeps the live set jointly planned
//! as sessions come and go, and survives restarts through versioned
//! snapshots.
//!
//! * `registry` — the [`SessionRegistry`]: live sessions over one
//!   append-only union [`StreamCatalog`](paotr_core::stream::StreamCatalog);
//!   churn *patches* the shared execution order immediately and
//!   re-plans jointly through the [`Engine`](paotr_core::plan::Engine)'s
//!   cached path, so an incremental re-plan is byte-identical to a cold
//!   full re-plan of the surviving set;
//! * [`daemon`] — the [`Daemon`]: explicit-tick serving under
//!   [`EnergyBudget`](paotr_exec::EnergyBudget) admission with
//!   drift-triggered per-query re-planning, plus the line-protocol
//!   serve loops (stdin/stdout and TCP);
//! * [`snapshot`] — the versioned on-disk state: calibration, plan
//!   state, telemetry. Rendering a parsed snapshot reproduces it
//!   byte-for-byte, [`Snapshot::validate`] is the one rule set a
//!   restore enforces, and restores continue counters exactly;
//! * `telemetry` — live counters rendered through `paotr_stats` and
//!   queryable over the protocol;
//! * [`proto`] — the wire commands (`register`, `unregister`, `tick`,
//!   `stats`, `plan`, `replan`, `snapshot`, `shutdown`);
//! * [`json`] — the crate's hand-rolled deterministic JSON (the
//!   workspace builds without serde).
//!
//! ## Quick start
//!
//! ```
//! use paotr_serverd::daemon::{Config, Daemon};
//!
//! let mut d = Daemon::new(Config {
//!     budget: Some(12.0),
//!     ..Config::default()
//! })
//! .unwrap();
//! let id = d.register("AVG(hr,8) > 0.5 AND spo2 < 0.0", 2.0).unwrap();
//! let batch = d.run_ticks(20).unwrap();
//! assert!(batch.max_energy() <= 12.0 + 1e-9);
//! d.unregister(id).unwrap();
//! assert_eq!(d.telemetry().ticks, 20);
//! ```
#![forbid(unsafe_code)]

pub mod daemon;
pub mod json;
pub mod proto;
pub(crate) mod registry;
pub mod snapshot;
pub(crate) mod telemetry;

pub use daemon::{Config, Daemon, TcpOptions};
pub use registry::{Session, SessionRegistry, MAX_WINDOW};
pub use snapshot::{
    ArrangeEntrySnap, ArrangeSnap, Rule, Snapshot, SnapshotError, SnapshotViolation,
};
pub use stream_sim::{FaultPlan, FaultSpec, FaultySource};
pub use telemetry::Telemetry;

use std::fmt;

/// Everything that can go wrong serving.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// The query text could not be parsed, compiled, or executed
    /// (non-DNF shape).
    Query(String),
    /// A structurally valid request the daemon refuses: full registry,
    /// bad weight, unknown session id, window over the ceiling.
    Rejected(String),
    /// Planning failed.
    Plan(String),
    /// Snapshot save/load failed.
    Snapshot(SnapshotError),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Query(m) => write!(f, "query error: {m}"),
            Error::Rejected(m) => write!(f, "rejected: {m}"),
            Error::Plan(m) => write!(f, "planning error: {m}"),
            Error::Snapshot(e) => write!(f, "snapshot error: {e}"),
        }
    }
}

impl std::error::Error for Error {}

impl From<SnapshotError> for Error {
    fn from(e: SnapshotError) -> Error {
        Error::Snapshot(e)
    }
}

/// Crate-wide result.
pub type Result<T> = std::result::Result<T, Error>;
