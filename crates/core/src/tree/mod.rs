//! Query tree representations.
//!
//! Three levels of generality, mirroring the paper:
//!
//! * [`and_tree::AndTree`] — single-level AND trees (Section III; optimal
//!   polynomial algorithm).
//! * [`dnf::DnfTree`] — OR of ANDs (Section IV; NP-complete, depth-first
//!   schedules dominant, heuristics).
//! * [`general::QueryTree`] — arbitrary AND-OR nesting (open problem; we
//!   provide exact-but-exponential evaluation and heuristics as an
//!   extension).

pub(crate) mod and_tree;
pub mod builder;
pub mod display;
pub(crate) mod dnf;
pub(crate) mod general;

pub use and_tree::AndTree;
pub use builder::{InstanceBuilder, TermBuilder};
pub use dnf::{
    mean_pairwise_overlap_from_matrix, mean_pairwise_stream_overlap, pairwise_stream_overlap,
    AndTerm, DnfInstance, DnfTree,
};
pub use general::{Node, QueryTree};
