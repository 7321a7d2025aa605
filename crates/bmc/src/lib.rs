//! Formal equivalence backend: translation validation for the HIR
//! optimization pipeline.
//!
//! The crate stacks four layers:
//!
//! 1. [`verilog::tsys`] (lives in the `verilog` crate) lowers a simulator
//!    bytecode tape into a word-level transition system with BTOR2 export.
//! 2. [`sat`] — a small in-house CDCL SAT solver (two watched literals,
//!    VSIDS-style activities, Luby restarts, assumptions, budgets).
//! 3. [`blast`] — bit-blasting of bit-vector operations into one
//!    hash-consed AIG, so identical subterms across the two miter sides
//!    collapse to identical literals. Building the AIG touches no solver;
//!    each query and root constraint Tseitin-encodes only the
//!    not-yet-encoded part of its own cone.
//! 4. [`equiv`] — the miter: both designs unrolled K cycles under one
//!    shared symbolic environment, divergence queried per cycle,
//!    SAT models replay-confirmed, budget exhaustion loudly degraded to a
//!    sampled differential.

pub mod blast;
pub mod equiv;
pub mod sat;
pub mod unroll;

pub use equiv::{
    check_func_equivalence, check_module_equivalence, export_btor2, sampled_divergence,
    Counterexample, EquivError, EquivOptions, EquivStatus, FrameStats, FuncReport, SolverStats,
    StimulusArg,
};
pub use sat::{Budget, Lit, SatResult, Solver};
