//! # paotr-qlang — a textual query language for PAOTR trees
//!
//! Queries are written the way the paper's Figure 1 draws them:
//!
//! ```text
//! (AVG(A, 5) < 70 AND MAX(B, 4) > 100) OR C < 3
//! ```
//!
//! * aggregates `AVG`, `MAX`, `MIN`, `SUM`, `LAST` over the last `n`
//!   items of a stream; `stream < x` is sugar for `LAST(stream, 1) < x`;
//! * `AND` / `&&` binds tighter than `OR` / `||`; parentheses group;
//! * an optional `@ p` annotation attaches a success probability to a
//!   predicate (default 0.5; in a deployment these come from trace
//!   calibration — see `stream_sim::trace`).
//!
//! The `compile` module lowers parsed queries to `paotr_core` trees
//! (with stream catalogs) and to `stream_sim` executable queries.
//!
//! ```
//! let compiled = paotr_qlang::compile_str(
//!     "(AVG(A,5) < 70 AND MAX(B,4) > 100) OR C < 3",
//! ).unwrap();
//! assert_eq!(compiled.tree.num_leaves(), 3);
//! assert_eq!(compiled.catalog.len(), 3);
//! ```
#![forbid(unsafe_code)]

pub(crate) mod ast;
pub(crate) mod compile;
pub mod error;
pub(crate) mod lexer;
pub(crate) mod parser;
pub(crate) mod token;

pub use ast::{Agg, CmpOp, Expr, PredicateAst};
pub use compile::{compile, compile_str, to_sim_query, Compiled};
pub use error::ParseError;
pub use parser::{parse, parse_spanned};
