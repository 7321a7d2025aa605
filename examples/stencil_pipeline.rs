//! Loop pipelining and deterministic task-level parallelism (paper §7.1,
//! §7.2, Listings 2 & 3).
//!
//! Runs the 1-d stencil twice: first as a single pipelined stage, then as
//! two chained stages whose execution *overlaps* — the second stage starts
//! as soon as the first has produced enough data, with no FIFOs and no
//! handshaking (the lock-step, synchronization-free parallelism of §5.3).
//!
//! Run with: `cargo run --example stencil_pipeline`

use hir_suite::hir::interp::{ArgValue, Interpreter};
use hir_suite::kernels::stencil;

fn main() {
    let n = 64u64;
    let input: Vec<i128> = (0..n as i128).map(|x| (x * x + 7) % 101).collect();

    // ---- Single stage, pipelined at II=1 (Listing 2). -------------------
    let single = stencil::hir_stencil(n, 32);
    let mut diags = hir_suite::ir::DiagnosticEngine::new();
    hir_suite::hir_verify::verify_schedule(&single, &mut diags).expect("verified");
    let r1 = Interpreter::new(&single)
        .run(
            stencil::FUNC,
            &[
                ArgValue::tensor_from(&input),
                ArgValue::uninit_tensor(n as usize),
            ],
        )
        .expect("simulate");
    println!(
        "single stage : {} cycles for {n} elements (II=1: ~1 elem/cycle)",
        r1.cycles
    );

    let expect1 = stencil::reference(n, &input);
    for (i, &e) in expect1.iter().enumerate().take(n as usize) {
        assert_eq!(r1.tensors[&1][i], Some(e));
    }

    // ---- Two overlapped stages (Listing 3). ------------------------------
    let tp = stencil::hir_stencil_task_parallel(n, 32);
    let mut diags = hir_suite::ir::DiagnosticEngine::new();
    hir_suite::hir_verify::verify_schedule(&tp, &mut diags).expect("verified");
    let r2 = Interpreter::new(&tp)
        .run(
            "task_parallel",
            &[
                ArgValue::tensor_from(&input),
                ArgValue::uninit_tensor(n as usize),
            ],
        )
        .expect("simulate");
    println!(
        "two stages   : {} cycles (overlapped, not {} = 2x single)",
        r2.cycles,
        2 * r1.cycles
    );

    let expect2 = stencil::reference(n, &expect1);
    for (i, &e) in expect2.iter().enumerate().take(n as usize) {
        assert_eq!(r2.tensors[&1][i], Some(e), "element {i}");
    }

    assert!(
        r2.cycles < r1.cycles + 24,
        "the stages must overlap: {} vs single {}",
        r2.cycles,
        r1.cycles
    );
    println!("\nStage B started only 8 cycles after stage A — both then run in");
    println!("lock-step, one element per cycle, with zero synchronization logic:");
    println!("the explicit schedules prove the producer is always ahead.");
}
