//! # cfront — ANSI-C-subset frontend
//!
//! The frontend substrate for the reproduction of Boehm's *Simple
//! Garbage-Collector-Safety* (PLDI 1996). It provides everything the
//! paper's C-to-C preprocessor needed from its (gcc-derived) grammar and
//! scanner:
//!
//! * a [`lexer`] and recursive-descent [`parser`] for a C89 subset covering
//!   every construct the annotation algorithm's rules mention;
//! * an [`ast`] in which the paper's annotation primitives (`KEEP_LIVE`,
//!   `GC_same_obj`) are first-class expression forms;
//! * [`types`] with LP64-style layout and struct/union records;
//! * [`sema`]: name resolution, type checking, address-taken analysis, and
//!   the pointer-hygiene warnings of the paper's "Source Checking" section;
//! * an [`edit`] list ("insertions and deletions, sorted by character
//!   position") for source-to-source output, plus a [`pretty`] printer.
//!
//! ## Example
//!
//! ```
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut prog = cfront::parse("int inc(int x) { return x + 1; }")?;
//! let sema = cfront::analyze(&mut prog)?;
//! assert!(sema.warnings.is_empty());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod ast;
pub mod edit;
pub mod error;
pub mod lexer;
pub mod normalize;
pub mod parser;
pub mod pretty;
pub mod sema;
pub mod span;
pub mod types;

pub use ast::{Block, Expr, ExprKind, FuncDef, NodeId, Program, Stmt};
pub use edit::EditList;
pub use error::{FrontError, FrontResult};
pub use normalize::{normalize_expr, normalize_program};
pub use parser::{parse, parse_expr};
pub use sema::{analyze, Builtin, Resolution, SemaInfo, VarId};
pub use span::Span;
pub use types::{Type, TypeTable};
