//! # `ir` — an MLIR-style SSA compiler IR core
//!
//! This crate provides the infrastructure the HIR dialect is built on, in the
//! spirit of MLIR: operations with operands, typed results, named attributes
//! and nested regions; SSA values with use-def chains; a round-trippable
//! textual format; dialect registration with op traits and verifiers; a pass
//! manager with timing statistics; and a greedy pattern-rewrite driver.
//!
//! ## Quick tour
//!
//! ```
//! use ir::{Module, Builder, Type, Attribute};
//!
//! let mut module = Module::new();
//! let mut b = Builder::new(&mut module);
//!
//! // A function-like op with one region.
//! let func = b.op("demo.func").attr("sym_name", Attribute::string("main")).build();
//! let (_region, entry) = b.region_with_entry(func, vec![Type::int(32)]);
//! b.at_block_end(entry);
//!
//! let arg = b.module_ref().block(entry).args()[0];
//! let add = b.op("demo.add").operand(arg).operand(arg).result(Type::int(32)).build();
//!
//! let text = ir::print_module(&module);
//! let reparsed = ir::parse_module(&text).unwrap();
//! assert_eq!(text, ir::print_module(&reparsed));
//! # let _ = add;
//! ```

pub mod arena;
pub mod attributes;
pub mod builder;
pub mod diagnostics;
pub mod dialect;
pub mod location;
pub mod module;
pub mod parser;
pub mod pass;
pub mod printer;
pub mod reproducer;
pub mod rewrite;
pub mod symbol;
pub mod types;
pub mod verifier;

pub use attributes::{AttrMap, Attribute};
pub use builder::{Builder, InsertPoint, OpBuilder};
pub use diagnostics::{Diagnostic, DiagnosticEngine, Note, Severity, SourceManager};
pub use dialect::{traits, Arity, Dialect, DialectRegistry, OpSpec};
pub use location::Location;
pub use module::{
    BlockId, Module, OpData, OpId, OpName, RegionId, Use, ValueData, ValueDef, ValueId,
};
pub use parser::{
    parse_module, parse_module_recover, ParseError, RecoveredParse, DEFAULT_ERROR_LIMIT,
};
pub use pass::{
    IrPrintInstrumentation, Pass, PassContext, PassInstrumentation, PassManager, PassResult,
    PassTiming, PipelineError,
};
pub use printer::{print_module, print_module_with, print_op, PrintOptions};
pub use reproducer::{format_reproducer, parse_reproducer, Reproducer, REPRODUCER_HEADER};
pub use rewrite::{apply_patterns_greedily, RewritePattern, RewriteStats, RewriteStatus, Rewriter};
pub use symbol::{SymbolTable, SYM_NAME};
pub use types::{FloatKind, Signedness, Type, TypeKind};
pub use verifier::{value_visible_at, verify_module};

// Kept only because the benchmark package, which may not change, calls this
// name; nothing in the toolchain runs worker threads, so the count is unused.
#[doc(hidden)]
pub fn resolve_thread_count(requested: usize) -> usize {
    requested.max(1)
}
