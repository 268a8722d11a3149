//! Scheduling algorithms.
//!
//! * [`smith`] — the classical read-once AND-tree greedy (baseline).
//! * `greedy` — **Algorithm 1**, the paper's optimal shared AND-tree
//!   greedy (Theorem 1).
//! * [`read_once_dnf`] — Greiner's optimal read-once DNF algorithm.
//! * [`exhaustive`] — exponential optimal searches (test oracles and the
//!   Figure 5 baseline).
//! * [`heuristics`] — the ten polynomial DNF heuristics of Section IV-D.
//! * [`nonlinear`] — decision-tree strategies (Section V extension).
//! * `general` — heuristic + tiny-exhaustive scheduling of arbitrary
//!   AND-OR trees (the open general case, as an extension).

pub mod exhaustive;
pub(crate) mod general;
pub(crate) mod greedy;
pub mod heuristics;
pub mod nonlinear;
pub mod read_once_dnf;
pub mod smith;

pub use heuristics::{paper_set, Heuristic};
