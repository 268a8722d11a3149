//! Static verification for paotr: plan/joint-plan verifiers, the
//! snapshot rules a restore enforces, qlang query lints, and the repo's
//! custom source lint.
//!
//! Everything here analyses *artifacts* — a [`paotr_core::plan::Plan`],
//! a [`paotr_multi::JointPlan`], a serialized
//! [`paotr_serverd::snapshot::Snapshot`], a qlang source string, a Rust
//! source tree — without executing anything. `paotr check snapshot`
//! runs [`paotr_serverd::Snapshot::validate`], the rule set
//! `Daemon::from_snapshot` refuses violations of. The same single-plan
//! checks also run automatically (debug builds only) at every
//! `Engine::plan*` exit via `paotr_core::plan::verify`.
//!
//! All checkers return a [`CheckReport`] collecting every violation
//! found rather than stopping at the first, so one run paints the full
//! picture.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod plan;
pub mod qlint;
pub mod report;
pub mod snapshot;
pub mod srclint;

pub use plan::{verify_energy, verify_joint, verify_plan, JointViolation};
pub use qlint::{lint_query, LintRule, QueryLint};
pub use report::{CheckError, CheckReport};
pub use snapshot::{
    check_snapshot, check_snapshot_file, check_snapshot_str, Rule, SnapshotViolation,
};
pub use srclint::{lint_source, lint_tree, LintHit};
