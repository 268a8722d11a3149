//! # paotr-core — Probabilistic AND-OR Tree Resolution with shared streams
//!
//! Rust implementation of
//! *"Cost-Optimal Execution of Boolean Query Trees with Shared Streams"*
//! (Casanova, Lim, Robert, Vivien, Zaidouni — IPDPS 2014).
//!
//! A query is an AND-OR tree whose leaves are independent probabilistic
//! predicates over sensor data streams; evaluating leaf `l_j` needs the
//! last `d_j` items of stream `S(j)` at `c(S(j))` per item, and pulled
//! items stay in device memory (**shared streams**). The goal is a leaf
//! evaluation order (*schedule*) minimizing expected acquisition cost
//! under AND/OR short-circuiting.
//!
//! ## Map of the crate
//!
//! | concern | module |
//! |---|---|
//! | streams, probabilities, leaves | [`stream`], [`prob`], [`leaf`] |
//! | trees (AND, DNF, general) | [`tree`] |
//! | schedules | [`schedule`] |
//! | cost evaluation (interpreter, enumeration, closed forms, Prop. 2, Monte-Carlo) | [`cost`] |
//! | optimal algorithms & heuristics | [`algo`] |
//! | unified planning surface (trait, registry, caching engine) | [`plan`] |
//!
//! ## Quick start
//!
//! All algorithms are served through one polymorphic surface: wrap a
//! query in a [`plan::QueryRef`] (or pass the tree directly) and let the
//! [`plan::Engine`] dispatch to the optimal planner for its class.
//!
//! ```
//! use paotr_core::plan::Engine;
//! use paotr_core::prelude::*;
//!
//! // The paper's Figure 2 AND-tree: two streams, three leaves.
//! let mut b = InstanceBuilder::new();
//! let a = b.stream("A", 1.0);
//! let bb = b.stream("B", 1.0);
//! let inst = b
//!     .term(|t| t.leaf(a, 1, 0.75).leaf(a, 2, 0.1).leaf(bb, 1, 0.5))
//!     .build()
//!     .unwrap();
//!
//! // AND-trees dispatch to Algorithm 1 (optimal, Theorem 1):
//! let engine = Engine::new();
//! let and_tree = inst.tree.term(0).as_and_tree();
//! let plan = engine.plan(&and_tree, &inst.catalog).unwrap();
//! assert_eq!(plan.planner, "greedy");
//! assert_eq!(plan.body.as_and().unwrap().order(), &[0, 1, 2]);
//! assert!((plan.expected_cost.unwrap() - 1.825).abs() < 1e-12);
//!
//! // Any registered algorithm is one name away:
//! let smith = engine.plan_with("smith", &and_tree, &inst.catalog).unwrap();
//! assert!(smith.expected_cost.unwrap() >= plan.expected_cost.unwrap());
//! ```
#![forbid(unsafe_code)]

pub mod algo;
pub mod cost;
pub mod error;
pub mod leaf;
pub mod plan;
pub mod prob;
pub mod schedule;
pub mod stream;
pub mod tree;

/// Convenient glob-import surface: `use paotr_core::prelude::*`.
pub mod prelude {
    pub use crate::algo::heuristics::{paper_set, Heuristic};
    pub use crate::error::{Error, Result};
    pub use crate::leaf::{Leaf, LeafRef};
    pub use crate::plan::{Engine, Plan, PlanBody, Planner, PlannerRegistry, QueryClass, QueryRef};
    pub use crate::prob::Prob;
    pub use crate::schedule::{AndSchedule, DnfSchedule};
    pub use crate::stream::{StreamCatalog, StreamId};
    pub use crate::tree::{
        AndTerm, AndTree, DnfInstance, DnfTree, InstanceBuilder, Node, QueryTree,
    };
}
