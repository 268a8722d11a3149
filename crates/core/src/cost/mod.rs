//! Schedule cost evaluation.
//!
//! Four independent implementations of the same semantics, used to
//! cross-validate one another:
//!
//! | module | method | scope | complexity |
//! |---|---|---|---|
//! | [`execution`] | ground-truth interpreter (one assignment) | any tree | `O(L)` per run |
//! | [`assignment`] | exact expectation by enumeration | any tree, small `L` | `O(2^L * L)` |
//! | [`and_eval`] | closed form | AND-trees | `O(m)` |
//! | [`dnf_eval`] | Proposition 2, literal (the oracle) | DNF trees | `O(L * D * N^2)` |
//! | [`model`] | Proposition 2, compiled push/pop state | DNF trees | same, allocation-free |
//! | [`montecarlo`] | sampling | any tree | `O(samples * L)` |

pub mod and_eval;
pub mod arrange;
pub mod assignment;
pub mod dnf_eval;
pub mod execution;
pub mod model;
pub mod montecarlo;

pub use arrange::ArrangeTerm;
pub use execution::{Execution, LeafIndexer};
pub use model::{CostModel, EvalScratch};
pub use montecarlo::Estimate;
