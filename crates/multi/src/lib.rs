//! # paotr-multi — the multi-query workload subsystem
//!
//! The paper optimizes *one* query at a time; its central premise —
//! leaves share data streams, so evaluation order decides how much
//! acquisition cost is amortized — applies equally **across** queries.
//! A fleet device rarely serves one query: it serves a workload, and
//! items pulled for one query sit in device memory where every other
//! query evaluated this tick can read them for free. This crate plans
//! such workloads jointly (in the spirit of shared query execution,
//! arXiv:1809.00159, and greedy multi-query optimization,
//! arXiv:cs/9910021); `paotr_exec` executes the plans:
//!
//! * [`Workload`] — queries + weights over one shared
//!   [`StreamCatalog`](paotr_core::stream::StreamCatalog), with a
//!   shared-stream [interference analysis](Workload::interference)
//!   (which streams are read by which queries, expected pull overlap);
//! * [`planner`] — the [`WorkloadPlanner`] trait and three strategies:
//!   `independent` (the per-query baseline), `shared-greedy` (greedy
//!   MQO: coverage-aware sequencing + coalescing re-plans) and
//!   `batch-aware` (dominant-stream grouping);
//! * [`cost`] — the shared-tick coverage cost model pricing a joint
//!   plan without executing it.
//!
//! ## Quick start
//!
//! ```
//! use paotr_core::plan::Engine;
//! use paotr_core::prelude::*;
//! use paotr_multi::{planner_by_name, Workload};
//!
//! // Two queries leaning on the same expensive stream.
//! let leaf = |s, d, p| Leaf::new(StreamId(s), d, Prob::new(p).unwrap()).unwrap();
//! let q0 = DnfTree::from_leaves(vec![vec![leaf(0, 5, 0.8), leaf(1, 1, 0.5)]]).unwrap();
//! let q1 = DnfTree::from_leaves(vec![vec![leaf(0, 4, 0.7)]]).unwrap();
//! let catalog = StreamCatalog::from_costs([4.0, 1.0]).unwrap();
//! let workload = Workload::from_trees(vec![q0, q1], catalog).unwrap();
//!
//! let engine = Engine::new();
//! let joint = planner_by_name("shared-greedy")
//!     .unwrap()
//!     .plan(&workload, &engine)
//!     .unwrap();
//! let weights = workload.weights();
//! // q1's four items of stream 0 ride on q0's five-item pull:
//! assert!(joint.speedup(&weights) > 1.2);
//! assert!(joint.aggregate_predicted(&weights) <= joint.aggregate_independent(&weights));
//! ```
#![forbid(unsafe_code)]

pub mod cost;
pub mod planner;
pub mod workload;

pub use planner::{
    default_planners, planner_by_name, planner_names, IndependentPlanner, JointPlan,
    SharedGreedyPlanner, WorkloadPlanner,
};
pub use workload::{
    outage_catalog, plan_schedule, InterferenceReport, StreamInterference, Workload, WorkloadQuery,
};
