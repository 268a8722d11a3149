//! # paotr-stats — statistics and figure plumbing for the experiments
//!
//! * `summary` — ratio aggregates (the paper's inline Figure-4 numbers:
//!   max ratio, %>10%, %>1%, tie rate) and best-heuristic win counting;
//! * `profile` — performance profiles (the ratio-vs-fraction curves of
//!   Figures 5 and 6);
//! * `table` — dependency-free CSV / Markdown table writers;
//! * `svg` — dependency-free SVG line/scatter charts.
#![forbid(unsafe_code)]

pub(crate) mod profile;
pub(crate) mod summary;
pub(crate) mod svg;
pub(crate) mod table;

pub use profile::{ratios, Profile};
pub use summary::{best_counts, best_counts_with_tolerance, percentile, RatioSummary};
pub use svg::{Chart, Series};
pub use table::{fmt_f64, Table};
