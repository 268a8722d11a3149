//! # paotr-exec — the multi-query execution runtime
//!
//! `paotr_multi` plans a workload jointly; this crate executes the
//! plans. Serving every query every tick under accept-all admission
//! answers "what does this joint plan cost per tick"; a deployment asks
//! a harder question: queries *arrive* on their own clocks, the device
//! has an energy envelope, and the probabilities the plans were
//! calibrated against drift. Both run on one path, built on the unified
//! tick runtime (`stream_sim::runtime`):
//!
//! * `arrivals` — per-query arrival processes ([`ArrivalSpec::Periodic`],
//!   [`ArrivalSpec::Poisson`]), seeded through `paotr_gen::seeds` for
//!   reproducible traffic;
//! * `admission` — the [`AdmissionPolicy`] trait with the
//!   [`AcceptAll`] baseline and worst-case [`EnergyBudget`] control
//!   (shed or defer low-weight queries; admitted sets provably fit the
//!   per-tick budget);
//! * `serve` — the [`ServeLoop`]: multiplexes a planned workload over
//!   the arrivals, executes admitted queries on one shared-memory
//!   scheduler tick, estimates per-leaf hit rates from the execution
//!   trace, and re-plans queries whose observed rates drift beyond a
//!   [`DriftConfig`] tolerance;
//! * `tick` — [`run_tick`], the one tick driver the serve loop and
//!   the `paotr_serverd` daemon share, and the [`TickCounters`] both
//!   report from;
//! * `sim` — the lowering of abstract workload trees to concrete
//!   predicates over Gaussian streams, whose marginal truth rates
//!   match the trees' leaf probabilities;
//! * `outcome` — [`WorkloadOutcome`] reports (per-query and aggregate
//!   cost, sharing ratio, predicted and measured speedup vs.
//!   independent) and the [`compare`] harness behind
//!   `paotr workload --compare`.
//!
//! ## Quick start
//!
//! ```
//! use paotr_core::plan::Engine;
//! use paotr_exec::{AcceptAll, ArrivalSpec, EnergyBudget, ServeConfig, ServeLoop};
//! use paotr_gen::workload::{workload_instance, WorkloadConfig};
//! use paotr_multi::{planner_by_name, Workload};
//!
//! let (trees, catalog) = workload_instance(WorkloadConfig::with_overlap(6, 0.6), 0);
//! let workload = Workload::from_trees(trees, catalog).unwrap();
//! let engine = Engine::new();
//! let joint = planner_by_name("shared-greedy")
//!     .unwrap()
//!     .plan(&workload, &engine)
//!     .unwrap();
//!
//! let config = ServeConfig {
//!     ticks: 50,
//!     arrivals: ArrivalSpec::Poisson { rate: 0.5 },
//!     ..Default::default()
//! };
//! let serve = ServeLoop::new(&workload, &joint, config);
//! let unconstrained = serve.run(&mut AcceptAll, &engine).unwrap();
//! let budgeted = serve
//!     .run(&mut EnergyBudget::shedding(25.0), &engine)
//!     .unwrap();
//! assert!(budgeted.max_tick_energy <= 25.0 + 1e-9);
//! assert!(budgeted.evals <= unconstrained.evals);
//! ```
#![forbid(unsafe_code)]

pub(crate) mod admission;
pub(crate) mod arrivals;
pub(crate) mod outcome;
pub(crate) mod serve;
pub(crate) mod sim;
pub(crate) mod tick;

pub use admission::{AcceptAll, Admission, AdmissionCtx, AdmissionPolicy, EnergyBudget};
pub use arrivals::ArrivalSpec;
pub use outcome::{compare, QueryReport, WorkloadOutcome};
pub use paotr_faults::{FaultPlan, FaultSpec, FaultySource};
pub use serve::{DriftConfig, DriftState, ServeConfig, ServeLoop, ServeReport, VerdictRecord};
pub use stream_sim::{ArrangeConfig, ArrangeStats, ArrangementStore, Verdict};
pub use tick::{run_tick, Tick, TickCounters, TickQuery, TickStats};
