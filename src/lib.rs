//! Facade crate re-exporting the PAOTR workspace public API.

#![forbid(unsafe_code)]
pub use paotr_core as core;
pub use paotr_exec as exec;
pub use paotr_gen as gen;
pub use paotr_multi as multi;
pub use paotr_par as par;
pub use paotr_qlang as qlang;
pub use paotr_serverd as serverd;
pub use paotr_stats as stats;
pub use stream_sim as sim;
