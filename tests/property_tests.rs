//! Property-based tests over the core invariants:
//!
//! * the textual IR round-trips (print → parse → print is a fixpoint);
//! * memref banking is a bijection onto flat storage;
//! * the optimizer preserves interpreter semantics on random expression
//!   designs;
//! * the generated RTL matches the interpreter on random workloads;
//! * the HIR FIFO matches the queue model under random command streams;
//! * random HLS kernels compute the same function as direct evaluation.

use hir_suite::hir::interp::{ArgValue, Interpreter};
use hir_suite::hir::types::{Dim, MemKind, MemrefInfo, Port};
use hir_suite::hir::HirBuilder;
use hir_suite::hir_codegen::testbench::{Harness, HarnessArg};
use hir_suite::ir::Type;
use hir_suite::kernels;
use proptest::prelude::*;

// ------------------------------------------------------------ IR round-trip

/// A random flat module of pure ops: constants feeding adds/xors.
fn arb_flat_module() -> impl Strategy<Value = ir::Module> {
    proptest::collection::vec((any::<i32>(), 0u8..3), 1..20).prop_map(|ops| {
        let mut m = ir::Module::new();
        let mut values: Vec<ir::ValueId> = Vec::new();
        for (c, kind) in ops {
            let op = if values.len() < 2 || kind == 0 {
                let mut attrs = ir::AttrMap::new();
                attrs.insert("value".into(), ir::Attribute::int(c as i128, 32));
                m.create_op(
                    "t.const",
                    vec![],
                    vec![Type::int(32)],
                    attrs,
                    ir::Location::unknown(),
                )
            } else {
                let a = values[(c as usize) % values.len()];
                let b = values[(c as usize / 7) % values.len()];
                let name = if kind == 1 { "t.add" } else { "t.xor" };
                m.create_op(
                    name,
                    vec![a, b],
                    vec![Type::int(32)],
                    ir::AttrMap::new(),
                    ir::Location::unknown(),
                )
            };
            m.push_top(op);
            values.push(m.op(op).results()[0]);
        }
        m
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn printed_ir_reparses_to_fixpoint(m in arb_flat_module()) {
        let text = ir::print_module(&m);
        let reparsed = ir::parse_module(&text).expect("parse printed IR");
        let text2 = ir::print_module(&reparsed);
        prop_assert_eq!(text, text2);
    }
}

// -------------------------------------------------------- banking bijection

fn arb_dims() -> impl Strategy<Value = Vec<Dim>> {
    proptest::collection::vec((1u64..5, any::<bool>()), 1..4).prop_map(|dims| {
        dims.into_iter()
            .map(|(n, dist)| {
                if dist {
                    Dim::Distributed(n)
                } else {
                    Dim::Packed(n)
                }
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn flat_index_is_a_bijection(dims in arb_dims()) {
        let info = MemrefInfo::new(dims.clone(), Type::int(8), Port::Read, MemKind::BlockRam);
        let total = info.num_elements();
        let mut seen = vec![false; total as usize];
        let mut coords = vec![0u64; dims.len()];
        loop {
            let f = info.flat_index(&coords);
            prop_assert!(f < total);
            prop_assert!(!seen[f as usize], "collision at {:?}", coords);
            seen[f as usize] = true;
            // Also: flat = bank * bank_size + linear.
            prop_assert_eq!(
                f,
                info.bank_index(&coords) * info.bank_size() + info.linear_index(&coords)
            );
            // Advance odometer; stop after the last coordinate wraps.
            let mut k = dims.len();
            let mut done = false;
            loop {
                if k == 0 {
                    break;
                }
                k -= 1;
                coords[k] += 1;
                if coords[k] < dims[k].size() {
                    break;
                }
                coords[k] = 0;
                if k == 0 {
                    done = true;
                    break;
                }
            }
            if done {
                break;
            }
        }
        prop_assert!(seen.iter().all(|&b| b));
    }
}

// ------------------------------------------- optimizer preserves semantics

/// A random combinational design: out = f(x, y) over adds/sub/mult/shifts
/// with random constants, wrapped in a function returning the result.
#[derive(Clone, Debug)]
enum ExprTree {
    X,
    Y,
    Const(i8),
    Bin(u8, Box<ExprTree>, Box<ExprTree>),
}

fn arb_expr() -> impl Strategy<Value = ExprTree> {
    let leaf = prop_oneof![
        Just(ExprTree::X),
        Just(ExprTree::Y),
        any::<i8>().prop_map(ExprTree::Const),
    ];
    leaf.prop_recursive(4, 24, 2, |inner| {
        (0u8..5, inner.clone(), inner)
            .prop_map(|(k, a, b)| ExprTree::Bin(k, Box::new(a), Box::new(b)))
    })
}

fn build_expr(hb: &mut HirBuilder, e: &ExprTree, x: ir::ValueId, y: ir::ValueId) -> ir::ValueId {
    match e {
        ExprTree::X => x,
        ExprTree::Y => y,
        ExprTree::Const(c) => hb.typed_const(*c as i64, Type::int(32)),
        ExprTree::Bin(k, a, b) => {
            let va = build_expr(hb, a, x, y);
            let vb = build_expr(hb, b, x, y);
            match k % 5 {
                0 => hb.add(va, vb),
                1 => hb.sub(va, vb),
                2 => hb.mult(va, vb),
                3 => hb.and(va, vb),
                _ => hb.xor(va, vb),
            }
        }
    }
}

fn eval_expr(e: &ExprTree, x: i32, y: i32) -> i32 {
    match e {
        ExprTree::X => x,
        ExprTree::Y => y,
        ExprTree::Const(c) => *c as i32,
        ExprTree::Bin(k, a, b) => {
            let va = eval_expr(a, x, y);
            let vb = eval_expr(b, x, y);
            match k % 5 {
                0 => va.wrapping_add(vb),
                1 => va.wrapping_sub(vb),
                2 => va.wrapping_mul(vb),
                3 => va & vb,
                _ => va ^ vb,
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn optimizer_preserves_combinational_semantics(
        e in arb_expr(),
        x in any::<i32>(),
        y in any::<i32>(),
    ) {
        let mut hb = HirBuilder::new();
        let f = hb.func("k", &[("x", Type::int(32)), ("y", Type::int(32))], &[0]);
        let args = f.args(hb.module());
        let out = build_expr(&mut hb, &e, args[0], args[1]);
        hb.return_(&[out]);
        let mut m = hb.finish();

        let run = |m: &ir::Module| {
            Interpreter::new(m)
                .run("k", &[ArgValue::Int(x as i128), ArgValue::Int(y as i128)])
                .expect("simulate")
                .results[0] as i32
        };
        let before = run(&m);
        prop_assert_eq!(before, eval_expr(&e, x, y), "interpreter vs direct eval");
        hir_suite::hir_opt::optimize(&mut m).expect("optimize");
        let after = run(&m);
        prop_assert_eq!(before, after, "optimization changed semantics");
    }
}

// ----------------------------------------------- interpreter vs RTL on vadd

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn rtl_matches_interpreter_on_random_scaled_add(
        n in 2u64..24,
        scale in 0i64..16,
        data in proptest::collection::vec(-1000i64..1000, 24),
    ) {
        // C[i] = A[i] * scale + A[i]  (exercises strength reduction too).
        let mut hb = HirBuilder::new();
        let a = MemrefInfo::packed(&[n], Type::int(32), Port::Read, MemKind::BlockRam);
        let c = a.with_port(Port::Write);
        let f = hb.func("sadd", &[("A", a.to_type()), ("C", c.to_type())], &[]);
        let t = f.time_var(hb.module());
        let args = f.args(hb.module());
        let (c0, cn, c1) = (hb.const_val(0), hb.const_val(n as i64), hb.const_val(1));
        let lp = hb.for_loop(c0, cn, c1, t, 1, Type::int(32));
        hb.in_loop(lp, |hb, i, ti| {
            let v = hb.mem_read(args[0], &[i], ti, 0);
            let k = hb.typed_const(scale, Type::int(32));
            let prod = hb.mult(v, k);
            let s = hb.add(prod, v);
            let i1 = hb.delay(i, 1, ti, 0);
            hb.mem_write(s, args[1], &[i1], ti, 1);
            hb.yield_at(ti, 1);
        });
        hb.return_(&[]);
        let mut m = hb.finish();

        let input: Vec<i128> = data[..n as usize].iter().map(|&v| v as i128).collect();
        let interp = Interpreter::new(&m)
            .run("sadd", &[ArgValue::tensor_from(&input), ArgValue::uninit_tensor(n as usize)])
            .expect("interp");

        let (design, _) = kernels::compile_hir(&mut m, true).expect("compile");
        let func = kernels::find_func(&m, "sadd");
        let mut h = Harness::new(
            &design,
            &m,
            func,
            &[HarnessArg::mem_from(&input), HarnessArg::zero_mem(n as usize)],
        )
        .expect("harness");
        let rtl = h.run(10_000).expect("RTL");
        for (i, &x) in input.iter().enumerate().take(n as usize) {
            let expect = (x * scale as i128 + x) as i32 as i128;
            prop_assert_eq!(interp.tensors[&1][i], Some(expect));
            prop_assert_eq!(rtl.mems[&1][i], expect);
        }
    }
}

// ---------------------------------------------------- FIFO random streams

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn hir_fifo_matches_queue_model(seed in any::<u64>()) {
        let (depth, n) = (8u64, 24u64);
        let cmds = kernels::workload::random_fifo_commands(seed, n as usize, depth as usize);
        let din: Vec<i128> = (0..n as i128).map(|i| i * 7 - 50).collect();
        let expect = kernels::fifo::reference(n, &cmds, &din);
        let m = kernels::fifo::hir_fifo(depth, n, 32);
        let r = Interpreter::new(&m)
            .run(
                kernels::fifo::FUNC,
                &[
                    ArgValue::tensor_from(&cmds),
                    ArgValue::tensor_from(&din),
                    ArgValue::uninit_tensor(n as usize),
                ],
            )
            .expect("simulate");
        for (i, &e) in expect.iter().enumerate().take(n as usize) {
            if let Some(v) = e {
                prop_assert_eq!(r.tensors[&2][i], Some(v), "dout[{}]", i);
            }
        }
    }
}

// ------------------------------------------------- random HLS kernels

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn hls_random_affine_kernel_is_correct(
        mul_c in 1i64..10,
        add_c in -50i64..50,
        pipeline in any::<bool>(),
    ) {
        use hir_suite::hls::{KExpr, KStmt, Kernel, LoopPragmas, SchedOptions};
        let n = 16u64;
        let mut k = Kernel::new("aff");
        k.in_array("a", 32, &[n]).out_array("o", 32, &[n]);
        k.body = vec![KStmt::For {
            var: "i".into(),
            lb: 0,
            ub: n as i64,
            step: 1,
            pragmas: LoopPragmas {
                pipeline_ii: if pipeline { Some(1) } else { None },
                unroll: false,
            },
            body: vec![KStmt::Store {
                array: "o".into(),
                indices: vec![KExpr::var("i")],
                value: KExpr::add(
                    KExpr::mul(KExpr::read("a", vec![KExpr::var("i")]), KExpr::c(mul_c, 32)),
                    KExpr::c(add_c, 32),
                ),
            }],
        }];
        let c = hir_suite::hls::compile(&k, &SchedOptions::default()).expect("compile");
        let input: Vec<i128> = (0..n as i128).map(|x| x * 3 - 11).collect();
        let r = Interpreter::new(&c.hir_module)
            .run(
                "hls_aff",
                &[ArgValue::tensor_from(&input), ArgValue::uninit_tensor(n as usize)],
            )
            .expect("simulate");
        for (i, &x) in input.iter().enumerate().take(n as usize) {
            prop_assert_eq!(
                r.tensors[&1][i],
                Some(x * mul_c as i128 + add_c as i128),
                "o[{}]", i
            );
        }
    }
}

// ------------------------------------ verifier accepts what the interp runs

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn schedule_verifier_accepts_well_formed_pipelines(ii in 1i64..4, extra_delay in 0i64..3) {
        // A loop where the write address is delayed to exactly match the
        // data path; valid for every II >= 1.
        let n = 8u64;
        let mut hb = HirBuilder::new();
        let a = MemrefInfo::packed(&[n], Type::int(32), Port::Read, MemKind::BlockRam);
        let c = a.with_port(Port::Write);
        let f = hb.func("p", &[("A", a.to_type()), ("C", c.to_type())], &[]);
        let t = f.time_var(hb.module());
        let args = f.args(hb.module());
        let (c0, cn, c1) = (hb.const_val(0), hb.const_val(n as i64), hb.const_val(1));
        let lp = hb.for_loop(c0, cn, c1, t, 1, Type::int(32));
        hb.in_loop(lp, |hb, i, ti| {
            let v = hb.mem_read(args[0], &[i], ti, 0);
            let v2 = hb.delay(v, extra_delay, ti, 1);
            let i1 = hb.delay(i, 1 + extra_delay, ti, 0);
            hb.mem_write(v2, args[1], &[i1], ti, 1 + extra_delay);
            hb.yield_at(ti, ii);
        });
        hb.return_(&[]);
        let m = hb.finish();
        let mut diags = ir::DiagnosticEngine::new();
        prop_assert!(
            hir_suite::hir_verify::verify_schedule(&m, &mut diags).is_ok(),
            "II={} delay={}:\n{}", ii, extra_delay, diags.render()
        );
        // And the design actually runs.
        let input: Vec<i128> = (0..n as i128).collect();
        let r = Interpreter::new(&m)
            .run("p", &[ArgValue::tensor_from(&input), ArgValue::uninit_tensor(n as usize)])
            .expect("simulate");
        for (i, &x) in input.iter().enumerate().take(n as usize) {
            prop_assert_eq!(r.tensors[&1][i], Some(x));
        }
    }

    #[test]
    fn schedule_verifier_rejects_late_uses(late_by in 1i64..4) {
        // Using the induction variable `late_by` cycles past its window is
        // always a schedule error at II=1.
        let n = 8u64;
        let mut hb = HirBuilder::new();
        let c = MemrefInfo::packed(&[n], Type::int(32), Port::Write, MemKind::BlockRam);
        let f = hb.func("bad", &[("C", c.to_type())], &[]);
        let t = f.time_var(hb.module());
        let args = f.args(hb.module());
        let (c0, cn, c1) = (hb.const_val(0), hb.const_val(n as i64), hb.const_val(1));
        let lp = hb.for_loop(c0, cn, c1, t, 1, Type::int(32));
        hb.in_loop(lp, |hb, i, ti| {
            let v = hb.typed_const(1, Type::int(32));
            hb.mem_write(v, args[0], &[i], ti, late_by); // i is stale here
            hb.yield_at(ti, 1);
        });
        hb.return_(&[]);
        let m = hb.finish();
        let mut diags = ir::DiagnosticEngine::new();
        prop_assert!(hir_suite::hir_verify::verify_schedule(&m, &mut diags).is_err());
        prop_assert!(diags.render().contains("mismatched delay"));
    }
}
