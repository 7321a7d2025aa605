//! Symbolic evaluation of a [`TransitionSystem`] for bounded unrolling.
//!
//! One [`eval_frame`] call computes every node of the system for one cycle
//! as bit vectors over the blaster, given the cycle's state and input
//! vectors. The caller owns the cross-cycle plumbing (state advance,
//! environment models, observables) — see [`crate::equiv`].

use crate::blast::{Blaster, BV};
use verilog::ast::BinOp;
use verilog::tsys::{Node, NodeId, TransitionSystem};

/// All node values for one cycle, indexed by [`NodeId`].
pub struct Frame {
    pub values: Vec<BV>,
}

impl Frame {
    pub fn get(&self, id: NodeId) -> &BV {
        &self.values[id as usize]
    }
}

/// Evaluate every node of `ts` for one cycle. `state[i]` must be a vector
/// of the i-th state variable's width; `inputs[i]` likewise for inputs.
pub fn eval_frame(bl: &mut Blaster, ts: &TransitionSystem, state: &[BV], inputs: &[BV]) -> Frame {
    let mut values: Vec<BV> = Vec::with_capacity(ts.nodes.len());
    for (i, n) in ts.nodes.iter().enumerate() {
        let v: BV = match n {
            Node::Const { value, width } => bl.bv_const(*value, *width),
            Node::Input { index, width } => {
                debug_assert_eq!(inputs[*index as usize].len(), *width as usize);
                inputs[*index as usize].clone()
            }
            Node::State { index, width } => {
                debug_assert_eq!(state[*index as usize].len(), *width as usize);
                state[*index as usize].clone()
            }
            Node::Not { a, .. } => bl.bv_not(&values[*a as usize]),
            Node::RedOr { a } => {
                let mut acc = bl.fals();
                for &l in &values[*a as usize] {
                    acc = bl.or(acc, l);
                }
                vec![acc]
            }
            Node::Binary { op, a, b, .. } => {
                let (a, b) = (&values[*a as usize], &values[*b as usize]);
                match op {
                    BinOp::Add => bl.bv_add(a, b),
                    BinOp::Sub => bl.bv_sub(a, b),
                    BinOp::Mul => bl.bv_mul(a, b),
                    BinOp::And => bl.bv_and(a, b),
                    BinOp::Or => bl.bv_or(a, b),
                    BinOp::Xor => bl.bv_xor(a, b),
                    BinOp::Shl => bl.bv_sll(a, b),
                    BinOp::LShr => bl.bv_srl(a, b),
                    BinOp::AShr => bl.bv_sra(a, b),
                    BinOp::Eq => vec![bl.bv_eq(a, b)],
                    BinOp::Ne => vec![bl.bv_eq(a, b).flip()],
                    BinOp::ULt => vec![bl.bv_ult(a, b)],
                    BinOp::ULe => vec![bl.bv_ule(a, b)],
                    BinOp::SLt => vec![bl.bv_slt(a, b)],
                    BinOp::SLe => vec![bl.bv_sle(a, b)],
                    BinOp::SGt => vec![bl.bv_slt(b, a)],
                    BinOp::SGe => vec![bl.bv_sle(b, a)],
                }
            }
            Node::Ite { cond, t, e, .. } => {
                let c = values[*cond as usize][0];
                bl.bv_ite(c, &values[*t as usize], &values[*e as usize])
            }
            Node::Slice { a, hi, lo } => values[*a as usize][*lo as usize..=*hi as usize].to_vec(),
            Node::Ext { a, width, signed } => {
                let a = &values[*a as usize];
                if *signed {
                    bl.bv_sext(a, *width)
                } else {
                    bl.bv_fit(a, *width)
                }
            }
            Node::Concat { hi, lo, .. } => {
                let mut v = values[*lo as usize].clone();
                v.extend_from_slice(&values[*hi as usize]);
                v
            }
        };
        values.push(v);
        debug_assert_eq!(
            values[i].len(),
            n.width() as usize,
            "node {i} width mismatch"
        );
    }
    Frame { values }
}

/// The next-state vectors implied by a frame.
pub fn next_state(ts: &TransitionSystem, frame: &Frame) -> Vec<BV> {
    ts.states
        .iter()
        .map(|s| frame.get(s.next).clone())
        .collect()
}

/// Constant initial state vectors.
pub fn initial_state(bl: &Blaster, ts: &TransitionSystem) -> Vec<BV> {
    ts.states
        .iter()
        .map(|s| bl.bv_const(s.init, s.width))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sat::{Budget, SatResult};
    use verilog::ast::{BinOp, Design, Dir, Expr, LValue, Stmt, VModule};

    /// Unrolled frames must agree with the transition system's own
    /// concrete evaluator on a counter design, cycle by cycle.
    #[test]
    fn unrolling_matches_concrete_eval() {
        let mut m = VModule::new("ctr");
        m.port("clk", Dir::Input, 1);
        m.port("step_by", Dir::Input, 4);
        m.port("total", Dir::Output, 12);
        m.reg("acc", 12);
        m.assign("total", Expr::r("acc"));
        m.main_always().stmts.push(Stmt::NonBlocking {
            lhs: LValue::Net("acc".into()),
            rhs: Expr::bin(BinOp::Add, Expr::r("acc"), Expr::r("step_by")),
        });
        let mut d = Design::new();
        d.add(m);
        let ts = verilog::tsys::lower(&d, "ctr").expect("lower");

        let mut bl = Blaster::new();
        let mut state = initial_state(&bl, &ts);
        let mut conc_state = ts.initial_state();
        for cycle in 0..8u64 {
            let stim = (cycle * 3 + 1) % 16;
            let inputs: Vec<BV> = ts
                .inputs
                .iter()
                .map(|iv| {
                    if iv.name == "step_by" {
                        bl.bv_const(stim, iv.width)
                    } else {
                        bl.bv_const(iv.init, iv.width)
                    }
                })
                .collect();
            let conc_inputs: Vec<u64> = ts
                .inputs
                .iter()
                .map(|iv| if iv.name == "step_by" { stim } else { iv.init })
                .collect();
            let frame = eval_frame(&mut bl, &ts, &state, &inputs);
            let conc = ts.eval_nodes(&conc_state, &conc_inputs);
            // With constant inputs everything folds to constants — compare
            // every node against the concrete evaluator.
            for (i, v) in frame.values.iter().enumerate() {
                assert_eq!(
                    bl.bv_value(v),
                    Some(conc[i]),
                    "cycle {cycle} node {i} did not fold"
                );
            }
            state = next_state(&ts, &frame);
            conc_state = ts.next_state(&conc);
        }
    }

    /// With a *symbolic* input, asking the solver to violate the counter's
    /// adder semantics must be UNSAT.
    #[test]
    fn symbolic_unrolling_is_consistent() {
        let mut m = VModule::new("ctr2");
        m.port("clk", Dir::Input, 1);
        m.port("x", Dir::Input, 8);
        m.port("y", Dir::Output, 8);
        m.reg("acc", 8);
        m.assign("y", Expr::r("acc"));
        m.main_always().stmts.push(Stmt::NonBlocking {
            lhs: LValue::Net("acc".into()),
            rhs: Expr::bin(BinOp::Add, Expr::r("acc"), Expr::r("x")),
        });
        let mut d = Design::new();
        d.add(m);
        let ts = verilog::tsys::lower(&d, "ctr2").expect("lower");

        let mut bl = Blaster::new();
        let x = bl.bv_fresh(8);
        let mut state = initial_state(&bl, &ts);
        // Two cycles with the same symbolic x: acc = x + x afterwards.
        for _ in 0..2 {
            let inputs: Vec<BV> = ts
                .inputs
                .iter()
                .map(|iv| {
                    if iv.name == "x" {
                        x.clone()
                    } else {
                        bl.bv_const(iv.init, iv.width)
                    }
                })
                .collect();
            let frame = eval_frame(&mut bl, &ts, &state, &inputs);
            state = next_state(&ts, &frame);
        }
        let acc = &state[0].clone();
        let two_x = {
            let xx = x.clone();
            bl.bv_add(&xx, &x)
        };
        let differs = bl.bv_eq(acc, &two_x).flip();
        assert_eq!(
            bl.solve(&[differs], Budget::UNLIMITED),
            SatResult::Unsat,
            "acc after two cycles must equal x + x for every x"
        );
    }
}
