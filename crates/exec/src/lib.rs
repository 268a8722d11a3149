//! # paotr-exec — the serving runtime
//!
//! The simulator answers "what would this workload cost per tick"; a
//! deployment asks a harder question: queries *arrive* on their own
//! clocks, the device has an energy envelope, and the probabilities the
//! plans were calibrated against drift. This crate is the serving layer
//! the ROADMAP's "heavy traffic" framing requires, built on the unified
//! tick runtime (`stream_sim::runtime`):
//!
//! * [`arrivals`] — per-query arrival processes ([`ArrivalSpec::Periodic`],
//!   [`ArrivalSpec::Poisson`]), seeded through `paotr_gen::seeds` for
//!   reproducible traffic;
//! * [`admission`] — the [`AdmissionPolicy`] trait with the
//!   [`AcceptAll`] baseline and worst-case [`EnergyBudget`] control
//!   (shed or defer low-weight queries; admitted sets provably fit the
//!   per-tick budget);
//! * [`serve`] — the [`ServeLoop`]: multiplexes a planned workload over
//!   the arrivals, executes admitted queries on one shared-memory
//!   scheduler tick, estimates per-leaf hit rates from the execution
//!   trace, and re-plans queries whose observed rates drift beyond a
//!   [`DriftConfig`] tolerance;
//! * [`tick`] — [`run_tick`], the one tick driver the serve loop and
//!   the `paotr_serverd` daemon share, and the [`TickCounters`] both
//!   report from.
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

pub mod admission;
pub mod arrivals;
pub mod serve;
pub mod tick;

pub use admission::{AcceptAll, Admission, AdmissionCtx, AdmissionPolicy, EnergyBudget};
pub use arrivals::{ArrivalProcess, ArrivalSpec};
pub use paotr_faults::{FaultPlan, FaultSpec, FaultySource};
pub use serve::{DriftConfig, DriftState, ServeConfig, ServeLoop, ServeReport, VerdictRecord};
pub use stream_sim::{ArrangeConfig, ArrangeStats, ArrangementStore, Verdict};
pub use tick::{run_tick, Tick, TickCounters, TickQuery, TickStats};
