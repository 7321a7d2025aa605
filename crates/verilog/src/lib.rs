//! # `verilog` — synthesizable Verilog AST, printer and cycle simulator
//!
//! The substrate both compilers in this workspace (the HIR code generator
//! and the Vivado-HLS-stand-in baseline) target. Provides:
//!
//! * [`ast`]: an AST for the synthesizable subset (modules, wires/regs,
//!   inferred memories, continuous assigns, `always @(posedge clk)`
//!   processes, instances, immediate assertions);
//! * [`printer`]: Verilog-2001 text output;
//! * [`elaborate`]: hierarchy flattening;
//! * [`sim`]: a two-state cycle-accurate simulator with assertion support —
//!   the stand-in for vendor RTL simulation used to validate generated
//!   hardware end-to-end.
//!
//! ```
//! use verilog::{VModule, Design, Dir, Expr, Simulator};
//!
//! let mut m = VModule::new("passthrough");
//! m.port("clk", Dir::Input, 1);
//! m.port("x", Dir::Input, 8);
//! m.port("y", Dir::Output, 8);
//! m.assign("y", Expr::r("x"));
//! let mut d = Design::new();
//! d.add(m);
//! let mut sim = Simulator::new(&d, "passthrough")?;
//! sim.set("x", 42);
//! assert_eq!(sim.get("y"), 42);
//! # Ok::<(), verilog::BuildError>(())
//! ```

pub mod ast;
pub mod elaborate;
mod interp;
pub mod printer;
pub mod sim;
pub mod tsys;

pub use ast::{
    AlwaysBlock, Assign, BinOp, Design, Dir, Expr, Instance, LValue, MemDecl, NetDecl, NetKind,
    PortDecl, Stmt, UnOp, VModule,
};
pub use elaborate::{flatten, ElabError};
pub use printer::{print_design, print_expr, print_module};
pub use sim::{
    BuildError, ConeTelemetry, Engine, InsnTelemetry, NetTelemetry, SchedConeWakes,
    SchedStatsReport, Simulator, TelemetryReport, UnitActivity, VSimError,
};
pub use tsys::{to_btor2, InputVar, Node, NodeId, StateVar, TransitionSystem};
