//! # `hir-verify` — schedule verification for HIR (paper §6.1)
//!
//! HIR's SSA values carry *validity* information: the exact clock cycle
//! (relative to a time variable) at which they hold valid data. This crate
//! exploits that, plus the explicitly specified schedule, to detect at
//! compile time errors that an HDL cannot express:
//!
//! * **mismatched delays** — an operand consumed at a cycle where it no
//!   longer (or does not yet) hold its value, e.g. the paper's Figure 1
//!   (a loop with II=1 using the induction variable one cycle late);
//! * **pipeline imbalance** — Figure 2's multiply-accumulate where swapping
//!   a 2-stage multiplier for a 3-stage one desynchronizes the adder inputs;
//! * **memory-port conflicts** — two accesses through one port in the same
//!   cycle that are not provably same-address or different-bank.
//!
//! Run it as a [`SchedulePass`] in an [`ir::PassManager`], or call
//! [`verify_schedule`] directly.

pub mod conflict;
pub mod report;
pub mod validity;

pub use conflict::check_port_conflicts;
pub use report::{schedule_report, FunctionSchedule, LoopSchedule, OpSchedule, ScheduleReport};
pub use validity::{analyze_function, ScheduleInfo, Validity};

use hir::ops::FuncOp;
use ir::{DiagnosticEngine, Module, Pass, PassContext, PassResult, SymbolTable};

/// Verify the schedules of every function in the module.
///
/// # Errors
/// Emits diagnostics and returns `Err(error_count)` when schedule errors are
/// found.
pub fn verify_schedule(m: &Module, diags: &mut DiagnosticEngine) -> Result<(), usize> {
    let _span = obs::span("verify_schedule");
    let before = diags.error_count();
    let symbols = SymbolTable::build(m);
    for &top in m.top_ops() {
        let Some(func) = FuncOp::wrap(m, top) else {
            continue;
        };
        obs::counter_add("verify", "functions", 1);
        let info = validity::analyze_function(m, func, &symbols, diags);
        obs::counter_add("verify", "values_analyzed", info.validity.len() as u64);
        conflict::check_port_conflicts(m, func, &info, diags);
    }
    let found = diags.error_count() - before;
    obs::counter_add("verify", "schedule_errors", found as u64);
    if found == 0 {
        Ok(())
    } else {
        Err(found)
    }
}

// Kept only because the benchmark package, which may not change, calls this
// name; it forwards to `verify_schedule` and ignores `_threads`.
#[doc(hidden)]
pub fn verify_schedule_with_threads(
    m: &Module,
    diags: &mut DiagnosticEngine,
    _threads: usize,
) -> Result<(), usize> {
    verify_schedule(m, diags)
}

/// Compute the schedule analysis for a single function without verifying the
/// whole module (used by optimization passes that need validity facts).
pub fn schedule_info(m: &Module, func: FuncOp) -> (ScheduleInfo, DiagnosticEngine) {
    let symbols = SymbolTable::build(m);
    let mut diags = DiagnosticEngine::new();
    let info = validity::analyze_function(m, func, &symbols, &mut diags);
    (info, diags)
}

/// Schedule verification as a pipeline pass.
#[derive(Debug, Default)]
pub struct SchedulePass;

impl Pass for SchedulePass {
    fn name(&self) -> &str {
        "hir-schedule-verify"
    }

    fn run(&mut self, module: &mut Module, cx: &mut PassContext<'_>) -> PassResult {
        match verify_schedule(module, cx.diags) {
            Ok(()) => PassResult::Unchanged,
            Err(_) => PassResult::Failed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hir::types::{MemKind, MemrefInfo, Port};
    use hir::HirBuilder;
    use ir::{Location, Type};

    /// Paper Figure 1a: array add whose mem_write consumes `%i` one cycle
    /// after the loop (II=1) has already incremented it.
    fn figure1_module(fix: bool) -> Module {
        let mut hb = HirBuilder::new();
        hb.set_loc(Location::file_line_col("test/HIR/err_add.mlir", 3, 1));
        let a = MemrefInfo::packed(&[128], Type::int(32), Port::Read, MemKind::BlockRam);
        let b = a.clone();
        let c = a.with_port(Port::Write);
        let f = hb.func(
            "Array_Add",
            &[("A", a.to_type()), ("B", b.to_type()), ("C", c.to_type())],
            &[],
        );
        let t = f.time_var(hb.module());
        let args = f.args(hb.module());
        let (c0, c128, c1) = (hb.const_val(0), hb.const_val(128), hb.const_val(1));
        hb.set_loc(Location::file_line_col("test/HIR/err_add.mlir", 8, 3));
        let lp = hb.for_loop(c0, c128, c1, t, 1, Type::int(8));
        hb.in_loop(lp, |hb, i, ti| {
            hb.set_loc(Location::file_line_col("test/HIR/err_add.mlir", 10, 5));
            let va = hb.mem_read(args[0], &[i], ti, 0);
            let vb = hb.mem_read(args[1], &[i], ti, 0);
            let sum = hb.add(va, vb);
            let addr = if fix { hb.delay(i, 1, ti, 0) } else { i };
            hb.set_loc(Location::file_line_col("test/HIR/err_add.mlir", 13, 5));
            hb.mem_write(sum, args[2], &[addr], ti, 1);
            hb.yield_at(ti, 1);
        });
        hb.return_(&[]);
        hb.finish()
    }

    #[test]
    fn figure1_schedule_error_detected() {
        let m = figure1_module(false);
        let mut diags = DiagnosticEngine::new();
        let err = verify_schedule(&m, &mut diags).unwrap_err();
        assert!(err >= 1);
        let text = diags.render();
        assert!(
            text.contains("Schedule error: mismatched delay (0 vs 1) in address 0!"),
            "expected the paper's Figure 1b message, got:\n{text}"
        );
        assert!(
            text.contains("test/HIR/err_add.mlir:13:5: error:"),
            "{text}"
        );
        assert!(text.contains("note: Prior definition here."), "{text}");
    }

    #[test]
    fn figure1_fixed_design_verifies() {
        let m = figure1_module(true);
        let mut diags = DiagnosticEngine::new();
        assert!(
            verify_schedule(&m, &mut diags).is_ok(),
            "{}",
            diags.render()
        );
    }

    #[test]
    fn figure1_would_be_legal_at_ii_2() {
        // The paper explains the error exists *because* II = 1. Widening the
        // initiation interval to 2 makes the late use legal.
        let mut hb = HirBuilder::new();
        let a = MemrefInfo::packed(&[128], Type::int(32), Port::Read, MemKind::BlockRam);
        let c = a.with_port(Port::Write);
        let f = hb.func("AA", &[("A", a.to_type()), ("C", c.to_type())], &[]);
        let t = f.time_var(hb.module());
        let args = f.args(hb.module());
        let (c0, c128, c1) = (hb.const_val(0), hb.const_val(128), hb.const_val(1));
        let lp = hb.for_loop(c0, c128, c1, t, 1, Type::int(8));
        hb.in_loop(lp, |hb, i, ti| {
            let v = hb.mem_read(args[0], &[i], ti, 0);
            hb.mem_write(v, args[1], &[i], ti, 1); // i used at ti+1
            hb.yield_at(ti, 2); // II = 2: i is stable for two cycles
        });
        hb.return_(&[]);
        let m = hb.finish();
        let mut diags = DiagnosticEngine::new();
        assert!(
            verify_schedule(&m, &mut diags).is_ok(),
            "{}",
            diags.render()
        );
    }

    /// Paper Figure 2a: a MAC built from an external pipelined multiplier.
    fn figure2_module(mult_stages: i64) -> Module {
        let mut hb = HirBuilder::new();
        hb.set_loc(Location::file_line_col("test/HIR/mac.mlir", 1, 1));
        hb.extern_func(
            "mult",
            &[Type::int(32), Type::int(32)],
            &[Type::int(32)],
            &[mult_stages],
        );
        let f = hb.func(
            "mac",
            &[
                ("a", Type::int(32)),
                ("b", Type::int(32)),
                ("c", Type::int(32)),
            ],
            &[mult_stages.max(2)],
        );
        let t = f.time_var(hb.module());
        let args = f.args(hb.module());
        hb.set_loc(Location::file_line_col("test/HIR/mac.mlir", 7, 8));
        let m_val = hb.call("mult", &[args[0], args[1]], t, 0)[0];
        hb.set_loc(Location::file_line_col("test/HIR/mac.mlir", 8, 8));
        let c2 = hb.delay(args[2], 2, t, 0);
        hb.set_loc(Location::file_line_col("test/HIR/mac.mlir", 9, 10));
        let res = hb.add(m_val, c2);
        hb.return_(&[res]);
        hb.finish()
    }

    #[test]
    fn figure2_pipeline_imbalance_detected() {
        // 3-stage multiplier against a 2-cycle delay on the addend.
        let m = figure2_module(3);
        let mut diags = DiagnosticEngine::new();
        assert!(verify_schedule(&m, &mut diags).is_err());
        let text = diags.render();
        assert!(
            text.contains("Schedule error: mismatched delay (2 vs 3) in right operand!"),
            "expected the paper's Figure 2b message, got:\n{text}"
        );
        assert!(text.contains("test/HIR/mac.mlir:9:10: error:"), "{text}");
    }

    #[test]
    fn figure2_balanced_design_verifies() {
        let m = figure2_module(2);
        let mut diags = DiagnosticEngine::new();
        assert!(
            verify_schedule(&m, &mut diags).is_ok(),
            "{}",
            diags.render()
        );
    }

    #[test]
    fn port_conflict_in_pipelined_loop_detected() {
        // Two writes through ONE port at congruent offsets (mod II).
        let mut hb = HirBuilder::new();
        let f = hb.func("pc", &[], &[]);
        let t = f.time_var(hb.module());
        let (_r, w) = hb.alloc_rw(&[16], Type::int(32), MemKind::BlockRam);
        let (c0, c8, c1) = (hb.const_val(0), hb.const_val(8), hb.const_val(1));
        let lp = hb.for_loop(c0, c8, c1, t, 1, Type::int(8));
        hb.in_loop(lp, |hb, i, ti| {
            let v = hb.typed_const(1, Type::int(32));
            hb.mem_write(v, w, &[i], ti, 0);
            let i1 = hb.delay(i, 1, ti, 0);
            hb.mem_write(v, w, &[i1], ti, 1); // collides with next iteration's write
            hb.yield_at(ti, 1);
        });
        hb.return_(&[]);
        let m = hb.finish();
        let mut diags = DiagnosticEngine::new();
        assert!(verify_schedule(&m, &mut diags).is_err());
        assert!(
            diags.render().contains("same memory port"),
            "{}",
            diags.render()
        );
    }

    #[test]
    fn banked_writes_do_not_conflict() {
        use hir::types::Dim;
        // The paper's stencil window: packing=[] distributes all dims, so two
        // same-cycle writes at distinct constant indices go to distinct banks.
        let mut hb = HirBuilder::new();
        let f = hb.func("banked", &[], &[]);
        let t = f.time_var(hb.module());
        let ports = hb.alloc(
            &[Dim::Distributed(2)],
            Type::int(32),
            MemKind::Reg,
            &[Port::Read, Port::Write],
        );
        let (c0, c1) = (hb.const_val(0), hb.const_val(1));
        let v = hb.typed_const(9, Type::int(32));
        hb.mem_write(v, ports[1], &[c0], t, 2);
        hb.mem_write(v, ports[1], &[c1], t, 2);
        hb.return_(&[]);
        let m = hb.finish();
        let mut diags = DiagnosticEngine::new();
        assert!(
            verify_schedule(&m, &mut diags).is_ok(),
            "{}",
            diags.render()
        );
    }

    #[test]
    fn same_address_parallel_reads_allowed() {
        let mut hb = HirBuilder::new();
        let a = MemrefInfo::packed(&[8], Type::int(32), Port::Read, MemKind::BlockRam);
        let f = hb.func("sar", &[("A", a.to_type())], &[]);
        let t = f.time_var(hb.module());
        let args = f.args(hb.module());
        let c3 = hb.const_val(3);
        hb.mem_read(args[0], &[c3], t, 0);
        hb.mem_read(args[0], &[c3], t, 0);
        hb.return_(&[]);
        let m = hb.finish();
        let mut diags = DiagnosticEngine::new();
        assert!(
            verify_schedule(&m, &mut diags).is_ok(),
            "{}",
            diags.render()
        );
    }

    #[test]
    fn cross_scope_ancestor_use_is_legal() {
        // The transpose pattern: outer %i used inside the inner j-loop.
        let mut hb = HirBuilder::new();
        let a = MemrefInfo::packed(&[4, 4], Type::int(32), Port::Read, MemKind::BlockRam);
        let f = hb.func("x", &[("A", a.to_type())], &[]);
        let t = f.time_var(hb.module());
        let args = f.args(hb.module());
        let (c0, c4, c1) = (hb.const_val(0), hb.const_val(4), hb.const_val(1));
        let outer = hb.for_loop(c0, c4, c1, t, 1, Type::int(8));
        hb.in_loop(outer, |hb, i, ti| {
            let inner = hb.for_loop(c0, c4, c1, ti, 1, Type::int(8));
            hb.in_loop(inner, |hb, j, tj| {
                hb.mem_read(args[0], &[i, j], tj, 0);
                hb.yield_at(tj, 1);
            });
            let tf = inner.result_time(hb.module());
            hb.yield_at(tf, 1);
        });
        hb.return_(&[]);
        let m = hb.finish();
        let mut diags = DiagnosticEngine::new();
        assert!(
            verify_schedule(&m, &mut diags).is_ok(),
            "{}",
            diags.render()
        );
    }

    #[test]
    fn return_delay_mismatch_detected() {
        let mut hb = HirBuilder::new();
        let a = MemrefInfo::packed(&[4], Type::int(32), Port::Read, MemKind::BlockRam);
        let f = hb.func("r", &[("A", a.to_type())], &[5]); // declares delay 5
        let t = f.time_var(hb.module());
        let args = f.args(hb.module());
        let c0 = hb.const_val(0);
        let v = hb.mem_read(args[0], &[c0], t, 0); // valid at t+1
        hb.return_(&[v]);
        let m = hb.finish();
        let mut diags = DiagnosticEngine::new();
        assert!(verify_schedule(&m, &mut diags).is_err());
        assert!(
            diags
                .render()
                .contains("mismatched delay (1 vs 5) in return value 0"),
            "{}",
            diags.render()
        );
    }

    #[test]
    fn zero_ii_for_loop_rejected() {
        let mut hb = HirBuilder::new();
        let f = hb.func("z", &[], &[]);
        let t = f.time_var(hb.module());
        let (c0, c4, c1) = (hb.const_val(0), hb.const_val(4), hb.const_val(1));
        let lp = hb.for_loop(c0, c4, c1, t, 1, Type::int(8));
        hb.in_loop(lp, |hb, _i, ti| hb.yield_at(ti, 0));
        hb.return_(&[]);
        let m = hb.finish();
        let mut diags = DiagnosticEngine::new();
        assert!(verify_schedule(&m, &mut diags).is_err());
        assert!(
            diags.render().contains("initiation interval"),
            "{}",
            diags.render()
        );
    }

    #[test]
    fn pass_integrates_with_pass_manager() {
        let m = figure1_module(false);
        let mut pm = ir::PassManager::new();
        pm.add(SchedulePass);
        let reg = hir::hir_registry();
        let mut diags = DiagnosticEngine::new();
        let mut module = m;
        let err = pm.run(&mut module, &reg, &mut diags).unwrap_err();
        assert_eq!(err.pass_name(), "hir-schedule-verify");
        assert!(!err.is_internal(), "diagnosed failure, not a crash");
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;
    use hir::types::{MemKind, MemrefInfo, Port};
    use hir::HirBuilder;
    use ir::{DiagnosticEngine, Type};

    #[test]
    fn same_scope_cross_root_use_is_rejected() {
        // A value produced at %t+1 consumed by an op scheduled on the loop's
        // completion time %tf: different roots in the same scope, which the
        // analysis cannot prove stable.
        let mut hb = HirBuilder::new();
        let a = MemrefInfo::packed(&[8], Type::int(32), Port::Read, MemKind::BlockRam);
        let c = a.with_port(Port::Write);
        let f = hb.func("x", &[("A", a.to_type()), ("C", c.to_type())], &[]);
        let t = f.time_var(hb.module());
        let args = f.args(hb.module());
        let (c0, c4, c1) = (hb.const_val(0), hb.const_val(4), hb.const_val(1));
        let early = hb.mem_read(args[0], &[c0], t, 0); // valid at t+1
        let lp = hb.for_loop(c0, c4, c1, t, 2, Type::int(8));
        hb.in_loop(lp, |hb, _i, ti| hb.yield_at(ti, 1));
        let tf = lp.result_time(hb.module());
        hb.mem_write(early, args[1], &[c0], tf, 0); // stale wire at %tf
        hb.return_(&[]);
        let m = hb.finish();
        let mut diags = DiagnosticEngine::new();
        assert!(verify_schedule(&m, &mut diags).is_err());
        assert!(
            diags.render().contains("different time scope"),
            "{}",
            diags.render()
        );
    }

    #[test]
    fn memref_and_time_values_cannot_be_data() {
        let mut hb = HirBuilder::new();
        let a = MemrefInfo::packed(&[8], Type::int(32), Port::Write, MemKind::BlockRam);
        let f = hb.func("y", &[("C", a.to_type())], &[]);
        let t = f.time_var(hb.module());
        let args = f.args(hb.module());
        let c0 = hb.const_val(0);
        // Write the TIME VARIABLE as data: nonsense the verifier flags.
        hb.mem_write(t, args[0], &[c0], t, 0);
        hb.return_(&[]);
        let m = hb.finish();
        let mut diags = DiagnosticEngine::new();
        assert!(verify_schedule(&m, &mut diags).is_err());
        assert!(
            diags.render().contains("time variable used as data"),
            "{}",
            diags.render()
        );
    }

    #[test]
    fn call_argument_delays_are_checked() {
        // A callee declaring arg_delays=[1] must receive its argument valid
        // one cycle after the call pulse.
        let mut hb = HirBuilder::new();
        let callee = hb.extern_func("consumer", &[Type::int(32)], &[], &[]);
        let _ = callee;
        // Patch in an arg_delays attribute on the declaration.
        let m_tmp = hb.module();
        let ext = m_tmp.top_ops()[0];
        let _ = ext;
        let f = hb.func("caller", &[("x", Type::int(32))], &[]);
        let t = f.time_var(hb.module());
        let x = f.args(hb.module())[0];
        // x is valid at t+0; a call at offset 0 passing it is fine with
        // delay 0.
        hb.call("consumer", &[x], t, 0);
        hb.return_(&[]);
        let m = hb.finish();
        let mut diags = DiagnosticEngine::new();
        assert!(
            verify_schedule(&m, &mut diags).is_ok(),
            "{}",
            diags.render()
        );
    }

    #[test]
    fn dynamic_ii_loops_get_conservative_windows() {
        // Outer loop yields on the inner %tf (dynamic II): an outer value
        // used one cycle later than defined must be rejected (window 1).
        let mut hb = HirBuilder::new();
        let a = MemrefInfo::packed(&[8], Type::int(32), Port::ReadWrite, MemKind::BlockRam);
        let f = hb.func("dynii", &[("A", a.to_type())], &[]);
        let t = f.time_var(hb.module());
        let args = f.args(hb.module());
        let (c0, c4, c1) = (hb.const_val(0), hb.const_val(4), hb.const_val(1));
        let outer = hb.for_loop(c0, c4, c1, t, 1, Type::int(8));
        hb.in_loop(outer, |hb, i, ti| {
            let inner = hb.for_loop(c0, c4, c1, ti, 1, Type::int(8));
            hb.in_loop(inner, |hb, _j, tj| hb.yield_at(tj, 1));
            let tf = inner.result_time(hb.module());
            // i is rooted in the outer scope: fine at any inner instant.
            // But an outer-scope COMPUTED value at ti+1 used at ti+2 is
            // outside the window (dynamic II -> window 1).
            let v = hb.mem_read(args[0], &[i], ti, 0); // valid ti+1
            hb.mem_write(v, args[0], &[i], ti, 2); // consumed at ti+2: stale
            hb.yield_at(tf, 1);
        });
        hb.return_(&[]);
        let m = hb.finish();
        let mut diags = DiagnosticEngine::new();
        assert!(verify_schedule(&m, &mut diags).is_err());
        assert!(
            diags.render().contains("mismatched delay (1 vs 2)"),
            "{}",
            diags.render()
        );
    }
}
