//! # stream-sim — the sensor-stream substrate
//!
//! The paper's setting is a mobile device evaluating boolean queries over
//! wearable sensor streams (SHIMMER-class platforms). We do not have the
//! hardware, so this crate simulates the whole data path the scheduling
//! problem lives in:
//!
//! * `source` — synthetic sensor models (sine, random walk, spikes,
//!   Gaussian), deterministic given a seed;
//! * [`stream`] — per-sensor history buffers with a pull interface
//!   ("give me the last `n` items");
//! * `device` — device-side item memory, the mechanism that makes
//!   streams *shared* across leaves;
//! * `predicate` — windowed predicates (`AVG(A,5) < 70`, ...);
//! * `query` — DNF queries over concrete predicates, and their abstract
//!   scheduling skeletons;
//! * `energy` — the paper's linear per-item energy model;
//! * `runtime` — the **unified tick-driven execution runtime**: the
//!   [`StreamSource`] read interface (`is_out`/`contact_fails` price
//!   the sensor contact, `recent` then reads the window once), the
//!   pull-coalescing [`Scheduler`] and the [`EnergyMeter`] — the single
//!   implementation both execution paths (the single-query pipeline
//!   and the multi-query tick driver in `paotr_exec`) run on;
//! * `trace` — execution traces and probability calibration ("inferred
//!   from historical traces", as the paper assumes);
//! * `simulate` — the calibrate–schedule–measure pipeline.
#![forbid(unsafe_code)]

pub(crate) mod device;
pub(crate) mod energy;
pub(crate) mod predicate;
pub(crate) mod query;
pub(crate) mod runtime;
pub(crate) mod simulate;
pub(crate) mod source;
pub mod stream;
pub(crate) mod trace;

pub use device::{DeviceMemory, MemoryPolicy};
pub use energy::EnergyModel;
pub use paotr_arrange::{ArrangeConfig, ArrangeStats, ArrangementStore};
pub use predicate::{Comparator, Predicate, WindowOp};
pub use query::{SimLeaf, SimQuery};
pub use runtime::{gaussian_streams, EnergyMeter, QueryOutcome, Scheduler, StreamSource, Verdict};
pub use simulate::{run_pipeline, PipelineConfig, PipelineReport};
pub use source::{SensorModel, SensorSource};
pub use stream::SimStream;
pub use trace::{LeafRecord, TraceLog};
