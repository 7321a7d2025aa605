//! Bit-blasting onto a hash-consed AIG, with CNF built on demand.
//!
//! A [`Blaster`] lowers bit-vector operations to single-bit gates
//! (`and`/`xor`/`ite`) in one append-only arena. Every gate constructor
//! folds constants and normalizes its operands, then hash-conses the gate,
//! and the arena is global across everything built on one blaster — when
//! the optimized and unoptimized sides of a miter compute the same function
//! of the same inputs, they collapse to the *same literal* and their
//! disagreement literal folds to false. This lightweight structural
//! sweeping is what keeps K-cycle miters of mostly-similar designs
//! tractable.
//!
//! Building a gate creates no solver variable and no clause. CNF is built
//! on demand: a query ([`Blaster::solve`]) or a root constraint
//! ([`Blaster::assert_true`]) Tseitin-encodes the not-yet-encoded part of
//! its literal's cone, so gates no query reaches never reach the solver.
//! This is the AIG-plus-lazy-CNF layout of
//! ABC-style equivalence checkers (Mishchenko et al., "FRAIGs", 2005).
//! Every root constraint is encoded when it is asserted, so an UNSAT answer
//! holds for the whole AIG, not just the encoded part.
//!
//! A literal ([`Lit`]) names an AIG node, not a solver variable: node 0 is
//! constant true, node ids are allocated in construction order (so a gate's
//! operands always have smaller ids), and a node's solver variable is
//! allocated only when the node is first encoded.
//!
//! Bit vectors ([`BV`]) are LSB-first.

use crate::sat::{Budget, Lit, SatResult, Solver};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A word value: literals, least significant bit first.
pub type BV = Vec<Lit>;

/// Multiplicative (Fx-style) hasher for the hash-cons table. Its keys are
/// gates over literals the blaster allocated itself, never outside input,
/// so the collision resistance of the default SipHash buys nothing and its
/// cost is paid on millions of lookups per miter.
#[derive(Default)]
struct GateHasher(u64);

impl GateHasher {
    const K: u64 = 0x517c_c1b7_2722_0a95;

    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(Self::K);
    }
}

impl Hasher for GateHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

type NodeMap<K, V> = HashMap<K, V, BuildHasherDefault<GateHasher>>;

/// One AIG node.
#[derive(Clone, Copy)]
enum Gate {
    /// A free variable (and node 0, constant true, pinned by a unit clause).
    Input,
    And(Lit, Lit),
    Xor(Lit, Lit),
    Ite(Lit, Lit, Lit),
}

/// Third key slot of an `and` / `xor` gate, where an `ite` keeps its else
/// literal. Neither is ever a node literal: node ids stay below
/// `AND_TAG.var()`.
const AND_TAG: Lit = Lit(u32::MAX);
const XOR_TAG: Lit = Lit(u32::MAX - 1);

/// A gate's hash-cons key. Twelve bytes for every gate kind keep the one
/// table compact: on a mostly-shared miter, lookups are the blaster's
/// main cost.
type GateKey = (Lit, Lit, Lit);

impl Gate {
    fn key(self) -> GateKey {
        match self {
            Gate::Input => unreachable!("inputs are not hash-consed"),
            Gate::And(a, b) => (a, b, AND_TAG),
            Gate::Xor(a, b) => (a, b, XOR_TAG),
            Gate::Ite(c, t, e) => (c, t, e),
        }
    }

    /// Operand literals, in order.
    fn operands(self) -> impl Iterator<Item = Lit> {
        let (ops, n) = match self {
            Gate::Input => ([Lit(0); 3], 0),
            Gate::And(a, b) | Gate::Xor(a, b) => ([a, b, b], 2),
            Gate::Ite(c, t, e) => ([c, t, e], 3),
        };
        ops.into_iter().take(n)
    }
}

/// `var_of` entry of a node that has no solver variable yet.
const UNENCODED: u32 = u32::MAX;

/// Bit-blasting context: the AIG arena plus the solver its encoded part
/// lives in.
pub struct Blaster {
    solver: Solver,
    /// Node id → gate.
    gates: Vec<Gate>,
    /// Node id → solver variable, [`UNENCODED`] until [`Blaster::encode`]
    /// reaches the node.
    var_of: Vec<u32>,
    /// Hash-cons table: every `and`/`xor`/`ite` gate built, to its node id.
    table: NodeMap<GateKey, u32>,
    /// Structural-hash statistics: gate lookups served from the table vs
    /// gates that appended a new node.
    pub cache_hits: u64,
    pub cache_misses: u64,
}

impl Default for Blaster {
    fn default() -> Self {
        Blaster::new()
    }
}

impl Blaster {
    pub fn new() -> Blaster {
        let mut bl = Blaster {
            solver: Solver::new(),
            gates: Vec::new(),
            var_of: Vec::new(),
            table: NodeMap::default(),
            cache_hits: 0,
            cache_misses: 0,
        };
        let t = bl.fresh();
        bl.assert_true(t);
        bl
    }

    /// The solver holding the encoded part of the AIG. Its literals are
    /// solver variables, not node literals: query through
    /// [`Blaster::solve`].
    pub(crate) fn solver(&self) -> &Solver {
        &self.solver
    }

    /// AIG nodes built so far, inputs and the constant included.
    pub(crate) fn num_nodes(&self) -> u64 {
        self.gates.len() as u64
    }

    /// The constant-true literal.
    pub fn tru(&self) -> Lit {
        Lit::pos(0)
    }

    /// The constant-false literal.
    pub fn fals(&self) -> Lit {
        Lit::neg(0)
    }

    pub fn lit_const(&self, v: bool) -> Lit {
        if v {
            self.tru()
        } else {
            self.fals()
        }
    }

    fn is_true(&self, l: Lit) -> bool {
        l == self.tru()
    }

    fn is_false(&self, l: Lit) -> bool {
        l == self.fals()
    }

    fn push_node(&mut self, g: Gate) -> Lit {
        // The hash-cons keys rely on node literals never reaching the tags.
        let id = u32::try_from(self.gates.len())
            .ok()
            .filter(|&id| id < AND_TAG.var())
            .expect("AIG node ids exhausted");
        self.gates.push(g);
        self.var_of.push(UNENCODED);
        Lit::pos(id)
    }

    /// The node of gate `g`, appended unless an identical gate exists.
    fn gate(&mut self, g: Gate) -> Lit {
        let key = g.key();
        if let Some(&id) = self.table.get(&key) {
            self.cache_hits += 1;
            return Lit::pos(id);
        }
        self.cache_misses += 1;
        let x = self.push_node(g);
        self.table.insert(key, x.var());
        x
    }

    /// Fresh unconstrained literal.
    pub fn fresh(&mut self) -> Lit {
        self.push_node(Gate::Input)
    }

    /// `a ∧ b` (hash-consed, folded).
    pub fn and(&mut self, a: Lit, b: Lit) -> Lit {
        if self.is_false(a) || self.is_false(b) || a == b.flip() {
            return self.fals();
        }
        if self.is_true(a) || a == b {
            return b;
        }
        if self.is_true(b) {
            return a;
        }
        self.gate(if a.0 <= b.0 {
            Gate::And(a, b)
        } else {
            Gate::And(b, a)
        })
    }

    /// `a ∨ b`.
    pub fn or(&mut self, a: Lit, b: Lit) -> Lit {
        self.and(a.flip(), b.flip()).flip()
    }

    /// `a ⊕ b` (cached, folded; complements share one gate).
    pub fn xor(&mut self, a: Lit, b: Lit) -> Lit {
        if self.is_false(a) {
            return b;
        }
        if self.is_false(b) {
            return a;
        }
        if self.is_true(a) {
            return b.flip();
        }
        if self.is_true(b) {
            return a.flip();
        }
        if a == b {
            return self.fals();
        }
        if a == b.flip() {
            return self.tru();
        }
        // Normalize to positive inputs: ¬a⊕b = ¬(a⊕b).
        let mut flip_out = false;
        let mut a = a;
        let mut b = b;
        if a.is_neg() {
            a = a.flip();
            flip_out = !flip_out;
        }
        if b.is_neg() {
            b = b.flip();
            flip_out = !flip_out;
        }
        let x = self.gate(if a.0 <= b.0 {
            Gate::Xor(a, b)
        } else {
            Gate::Xor(b, a)
        });
        if flip_out {
            x.flip()
        } else {
            x
        }
    }

    /// `c ? t : e`.
    pub fn ite(&mut self, c: Lit, t: Lit, e: Lit) -> Lit {
        if self.is_true(c) {
            return t;
        }
        if self.is_false(c) {
            return e;
        }
        if t == e {
            return t;
        }
        if self.is_true(t) {
            return self.or(c, e);
        }
        if self.is_false(t) {
            return self.and(c.flip(), e);
        }
        if self.is_true(e) {
            return self.or(c.flip(), t);
        }
        if self.is_false(e) {
            return self.and(c, t);
        }
        if t == e.flip() {
            return self.xor(c, e);
        }
        self.gate(Gate::Ite(c, t, e))
    }

    /// `a == b` for single literals.
    pub fn lit_eq(&mut self, a: Lit, b: Lit) -> Lit {
        self.xor(a, b).flip()
    }

    /// Force a literal true at the root level. Its cone is encoded now, so
    /// every later query sees the constraint.
    pub fn assert_true(&mut self, l: Lit) {
        let l = self.encode(l);
        self.solver.add_clause(&[l]);
    }

    // ----------------------------------------------------------------- CNF

    /// The solver literal of an encoded node literal.
    fn solver_lit(&self, l: Lit) -> Lit {
        let v = self.var_of[l.var() as usize];
        debug_assert_ne!(v, UNENCODED, "node {} is not encoded", l.var());
        Lit(v << 1 | (l.0 & 1))
    }

    /// Tseitin-encode the not-yet-encoded part of `l`'s cone and return
    /// `l`'s solver literal. Each node gets its solver variable and clauses
    /// once, after its operands (an iterative post-order walk: cones can be
    /// arbitrarily deep), so encoding is incremental across calls.
    pub(crate) fn encode(&mut self, l: Lit) -> Lit {
        let mut stack = vec![l.var()];
        while let Some(&n) = stack.last() {
            if self.var_of[n as usize] != UNENCODED {
                stack.pop();
                continue;
            }
            let gate = self.gates[n as usize];
            let open = stack.len();
            for o in gate.operands() {
                if self.var_of[o.var() as usize] == UNENCODED {
                    stack.push(o.var());
                }
            }
            if stack.len() == open {
                stack.pop();
                self.emit(n, gate);
            }
        }
        self.solver_lit(l)
    }

    /// Allocate node `n`'s solver variable and add its Tseitin clauses; its
    /// operands are already encoded.
    fn emit(&mut self, n: u32, gate: Gate) {
        let x = Lit::pos(self.solver.new_var());
        self.var_of[n as usize] = x.var();
        match gate {
            Gate::Input => {}
            Gate::And(a, b) => {
                let (a, b) = (self.solver_lit(a), self.solver_lit(b));
                self.solver.add_clause(&[a.flip(), b.flip(), x]);
                self.solver.add_clause(&[a, x.flip()]);
                self.solver.add_clause(&[b, x.flip()]);
            }
            Gate::Xor(a, b) => {
                let (a, b) = (self.solver_lit(a), self.solver_lit(b));
                self.solver.add_clause(&[a.flip(), b.flip(), x.flip()]);
                self.solver.add_clause(&[a, b, x.flip()]);
                self.solver.add_clause(&[a.flip(), b, x]);
                self.solver.add_clause(&[a, b.flip(), x]);
            }
            Gate::Ite(c, t, e) => {
                let (c, t, e) = (self.solver_lit(c), self.solver_lit(t), self.solver_lit(e));
                self.solver.add_clause(&[c.flip(), t.flip(), x]);
                self.solver.add_clause(&[c.flip(), t, x.flip()]);
                self.solver.add_clause(&[c, e.flip(), x]);
                self.solver.add_clause(&[c, e, x.flip()]);
            }
        }
    }

    /// Solve under assumptions, encoding their cones first. The model is
    /// readable through [`Blaster::model_bv`] until the next call that
    /// changes the CNF.
    pub fn solve(&mut self, assumptions: &[Lit], budget: Budget) -> SatResult {
        let assumptions: Vec<Lit> = assumptions.iter().map(|&l| self.encode(l)).collect();
        self.solver.solve(&assumptions, budget)
    }

    // -------------------------------------------------------------- words

    /// Constant bit vector.
    pub fn bv_const(&self, value: u64, width: u32) -> BV {
        (0..width)
            .map(|i| self.lit_const(value >> i & 1 != 0))
            .collect()
    }

    /// Fresh unconstrained bit vector.
    pub fn bv_fresh(&mut self, width: u32) -> BV {
        (0..width).map(|_| self.fresh()).collect()
    }

    /// The constant value of a vector, if fully constant.
    pub fn bv_value(&self, a: &BV) -> Option<u64> {
        let mut v = 0u64;
        for (i, &l) in a.iter().enumerate() {
            if self.is_true(l) {
                v |= 1 << i;
            } else if !self.is_false(l) {
                return None;
            }
        }
        Some(v)
    }

    pub fn bv_not(&mut self, a: &BV) -> BV {
        a.iter().map(|l| l.flip()).collect()
    }

    pub fn bv_and(&mut self, a: &BV, b: &BV) -> BV {
        debug_assert_eq!(a.len(), b.len());
        a.iter().zip(b).map(|(&x, &y)| self.and(x, y)).collect()
    }

    pub fn bv_or(&mut self, a: &BV, b: &BV) -> BV {
        debug_assert_eq!(a.len(), b.len());
        a.iter().zip(b).map(|(&x, &y)| self.or(x, y)).collect()
    }

    pub fn bv_xor(&mut self, a: &BV, b: &BV) -> BV {
        debug_assert_eq!(a.len(), b.len());
        a.iter().zip(b).map(|(&x, &y)| self.xor(x, y)).collect()
    }

    /// Ripple-carry addition (modular).
    pub fn bv_add(&mut self, a: &BV, b: &BV) -> BV {
        debug_assert_eq!(a.len(), b.len());
        let mut out = Vec::with_capacity(a.len());
        let mut carry = self.fals();
        for (&x, &y) in a.iter().zip(b) {
            let xy = self.xor(x, y);
            out.push(self.xor(xy, carry));
            // carry' = (x ∧ y) ∨ (carry ∧ (x ⊕ y))
            let g = self.and(x, y);
            let p = self.and(carry, xy);
            carry = self.or(g, p);
        }
        out
    }

    /// Modular subtraction `a - b` (as `a + ¬b + 1`).
    pub fn bv_sub(&mut self, a: &BV, b: &BV) -> BV {
        debug_assert_eq!(a.len(), b.len());
        let mut out = Vec::with_capacity(a.len());
        let mut carry = self.tru();
        for (&x, &yr) in a.iter().zip(b) {
            let y = yr.flip();
            let xy = self.xor(x, y);
            out.push(self.xor(xy, carry));
            let g = self.and(x, y);
            let p = self.and(carry, xy);
            carry = self.or(g, p);
        }
        out
    }

    /// Shift-add multiplication (modular).
    pub fn bv_mul(&mut self, a: &BV, b: &BV) -> BV {
        debug_assert_eq!(a.len(), b.len());
        let w = a.len();
        let mut acc = self.bv_const(0, w as u32);
        for (i, &bi) in b.iter().enumerate() {
            if self.is_false(bi) {
                continue;
            }
            // (a << i) & {w × b_i}
            let shifted: BV = (0..w)
                .map(|k| if k >= i { a[k - i] } else { self.fals() })
                .collect();
            let addend: BV = shifted.iter().map(|&l| self.and(l, bi)).collect();
            acc = self.bv_add(&acc, &addend);
        }
        acc
    }

    /// `c ? t : e` per bit.
    pub fn bv_ite(&mut self, c: Lit, t: &BV, e: &BV) -> BV {
        debug_assert_eq!(t.len(), e.len());
        t.iter().zip(e).map(|(&x, &y)| self.ite(c, x, y)).collect()
    }

    /// `a == b` as one literal.
    pub fn bv_eq(&mut self, a: &BV, b: &BV) -> Lit {
        debug_assert_eq!(a.len(), b.len());
        let mut acc = self.tru();
        for (&x, &y) in a.iter().zip(b) {
            let e = self.lit_eq(x, y);
            acc = self.and(acc, e);
        }
        acc
    }

    /// Unsigned `a < b`.
    pub fn bv_ult(&mut self, a: &BV, b: &BV) -> Lit {
        debug_assert_eq!(a.len(), b.len());
        // LSB→MSB: higher bits take priority.
        let mut lt = self.fals();
        for (&x, &y) in a.iter().zip(b) {
            let xlty = self.and(x.flip(), y);
            let eq = self.lit_eq(x, y);
            let keep = self.and(eq, lt);
            lt = self.or(xlty, keep);
        }
        lt
    }

    /// Unsigned `a <= b`.
    pub fn bv_ule(&mut self, a: &BV, b: &BV) -> Lit {
        self.bv_ult(b, a).flip()
    }

    /// Signed `a < b` (flip sign bits, compare unsigned).
    pub fn bv_slt(&mut self, a: &BV, b: &BV) -> Lit {
        let (mut a2, mut b2) = (a.clone(), b.clone());
        let n = a2.len();
        debug_assert!(n > 0);
        a2[n - 1] = a2[n - 1].flip();
        b2[n - 1] = b2[n - 1].flip();
        self.bv_ult(&a2, &b2)
    }

    /// Signed `a <= b`.
    pub fn bv_sle(&mut self, a: &BV, b: &BV) -> Lit {
        self.bv_slt(b, a).flip()
    }

    /// Zero-extend or truncate to `w` bits.
    pub fn bv_fit(&self, a: &BV, w: u32) -> BV {
        let w = w as usize;
        let mut out = a.clone();
        out.truncate(w);
        while out.len() < w {
            out.push(self.fals());
        }
        out
    }

    /// Sign-extend to `w` bits (`w >= a.len()`).
    pub fn bv_sext(&self, a: &BV, w: u32) -> BV {
        let mut out = a.clone();
        let sign = *out.last().expect("sign extension of empty vector");
        while out.len() < w as usize {
            out.push(sign);
        }
        out
    }

    /// Left shift by a symbolic amount; zeros shifted in, amount ≥ width
    /// yields zero.
    pub fn bv_sll(&mut self, a: &BV, amt: &BV) -> BV {
        self.barrel(a, amt, false, false)
    }

    /// Logical right shift; amount ≥ width yields zero.
    pub fn bv_srl(&mut self, a: &BV, amt: &BV) -> BV {
        self.barrel(a, amt, true, false)
    }

    /// Arithmetic right shift; amount ≥ width yields all-sign.
    pub fn bv_sra(&mut self, a: &BV, amt: &BV) -> BV {
        self.barrel(a, amt, true, true)
    }

    fn barrel(&mut self, a: &BV, amt: &BV, right: bool, arith: bool) -> BV {
        let w = a.len();
        let fill = if arith {
            *a.last().expect("shift of empty vector")
        } else {
            self.fals()
        };
        let mut cur = a.clone();
        let mut overshoot = self.fals();
        for (b, &amt_bit) in amt.iter().enumerate() {
            if b >= 63 || (1usize << b) >= w {
                // A set bit at or beyond the width shifts everything out.
                overshoot = self.or(overshoot, amt_bit);
                continue;
            }
            let sh = 1usize << b;
            let shifted: BV = (0..w)
                .map(|k| {
                    let src = if right {
                        k.checked_add(sh).filter(|&s| s < w)
                    } else {
                        k.checked_sub(sh)
                    };
                    match src {
                        Some(s) => cur[s],
                        None => fill,
                    }
                })
                .collect();
            cur = self.bv_ite(amt_bit, &shifted, &cur);
        }
        let all_fill = vec![fill; w];
        self.bv_ite(overshoot, &all_fill, &cur)
    }

    /// Read the value of a vector from the solver's current model. Encoded
    /// nodes read the model; unencoded ones are evaluated from their
    /// operands, and an unencoded input reads 0, like an unconstrained
    /// solver variable.
    pub fn model_bv(&self, a: &BV) -> u64 {
        let mut memo = NodeMap::default();
        let mut v = 0u64;
        for (i, &l) in a.iter().enumerate() {
            if self.model_lit(l, &mut memo) {
                v |= 1 << i;
            }
        }
        v
    }

    /// The model value of `l`; `memo` holds the unencoded nodes evaluated
    /// so far (an iterative post-order walk: cones can be arbitrarily
    /// deep).
    fn model_lit(&self, l: Lit, memo: &mut NodeMap<u32, bool>) -> bool {
        let known = |memo: &NodeMap<u32, bool>, n: u32| match self.var_of[n as usize] {
            UNENCODED => memo.get(&n).copied(),
            v => Some(self.solver.model_value(Lit::pos(v))),
        };
        let mut stack = vec![l.var()];
        while let Some(&n) = stack.last() {
            if known(memo, n).is_some() {
                stack.pop();
                continue;
            }
            let gate = self.gates[n as usize];
            let open = stack.len();
            for o in gate.operands() {
                if known(memo, o.var()).is_none() {
                    stack.push(o.var());
                }
            }
            if stack.len() == open {
                stack.pop();
                let val = |o: Lit| known(memo, o.var()).expect("operand evaluated") ^ o.is_neg();
                let v = match gate {
                    Gate::Input => false,
                    Gate::And(a, b) => val(a) && val(b),
                    Gate::Xor(a, b) => val(a) ^ val(b),
                    Gate::Ite(c, t, e) => {
                        if val(c) {
                            val(t)
                        } else {
                            val(e)
                        }
                    }
                };
                memo.insert(n, v);
            }
        }
        known(memo, l.var()).expect("literal evaluated") ^ l.is_neg()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sat::{Budget, SatResult};

    /// Exhaustively check a binary blasted op against a reference over all
    /// small operand values.
    fn check2(
        width: u32,
        f: impl Fn(&mut Blaster, &BV, &BV) -> BV,
        reference: impl Fn(u64, u64) -> u64,
    ) {
        let mut bl = Blaster::new();
        let a = bl.bv_fresh(width);
        let b = bl.bv_fresh(width);
        let out = f(&mut bl, &a, &b);
        let m = if width >= 64 {
            u64::MAX
        } else {
            (1 << width) - 1
        };
        // out != reference(a, b) must be UNSAT: encode by asking the solver
        // for any assignment where they differ.
        for av in 0..=m.min(15) {
            for bv in 0..=m.min(15) {
                let mut assum = Vec::new();
                for (i, &l) in a.iter().enumerate() {
                    assum.push(if av >> i & 1 != 0 { l } else { l.flip() });
                }
                for (i, &l) in b.iter().enumerate() {
                    assum.push(if bv >> i & 1 != 0 { l } else { l.flip() });
                }
                assert_eq!(bl.solve(&assum, Budget::UNLIMITED), SatResult::Sat);
                assert_eq!(
                    bl.model_bv(&out),
                    reference(av, bv) & m,
                    "a={av} b={bv} w={width}"
                );
            }
        }
    }

    #[test]
    fn adder_matches_reference() {
        check2(4, |bl, a, b| bl.bv_add(a, b), |a, b| a.wrapping_add(b));
    }

    #[test]
    fn subtractor_matches_reference() {
        check2(4, |bl, a, b| bl.bv_sub(a, b), |a, b| a.wrapping_sub(b));
    }

    #[test]
    fn multiplier_matches_reference() {
        check2(4, |bl, a, b| bl.bv_mul(a, b), |a, b| a.wrapping_mul(b));
    }

    #[test]
    fn shifts_match_reference() {
        check2(
            4,
            |bl, a, b| bl.bv_sll(a, b),
            |a, b| if b >= 4 { 0 } else { a << b },
        );
        check2(
            4,
            |bl, a, b| bl.bv_srl(a, b),
            |a, b| if b >= 4 { 0 } else { a >> b },
        );
        check2(
            4,
            |bl, a, b| bl.bv_sra(a, b),
            |a, b| {
                let sa = (a as i64) << 60 >> 60; // sign-extend 4 bits
                (sa >> b.min(63)) as u64
            },
        );
    }

    #[test]
    fn comparisons_match_reference() {
        check2(4, |bl, a, b| vec![bl.bv_ult(a, b)], |a, b| u64::from(a < b));
        check2(
            4,
            |bl, a, b| vec![bl.bv_slt(a, b)],
            |a, b| {
                let sx = |v: u64| (v as i64) << 60 >> 60;
                u64::from(sx(a) < sx(b))
            },
        );
        check2(4, |bl, a, b| vec![bl.bv_eq(a, b)], |a, b| u64::from(a == b));
    }

    #[test]
    fn structural_sharing_collapses_identical_terms() {
        let mut bl = Blaster::new();
        let a = bl.bv_fresh(8);
        let b = bl.bv_fresh(8);
        let s1 = bl.bv_add(&a, &b);
        let s2 = bl.bv_add(&a, &b);
        assert_eq!(s1, s2, "identical structure must share literals");
        let d = bl.bv_eq(&s1, &s2);
        assert_eq!(d, bl.tru(), "equality of shared terms folds to true");
    }

    /// A query that folds to constant false reaches the solver without a
    /// single clause: the structure behind it is never encoded.
    #[test]
    fn constant_false_query_adds_no_clauses() {
        let mut bl = Blaster::new();
        let a = bl.bv_fresh(16);
        let b = bl.bv_fresh(16);
        let p1 = bl.bv_mul(&a, &b);
        let p2 = bl.bv_mul(&a, &b);
        let diff = bl.bv_eq(&p1, &p2).flip();
        assert_eq!(diff, bl.fals());
        assert!(bl.num_nodes() > 100, "the multiplier was built");
        assert_eq!(bl.solve(&[diff], Budget::UNLIMITED), SatResult::Unsat);
        assert_eq!(bl.solver().num_clauses(), 0);
        assert_eq!(bl.solver().num_vars(), 1, "only the constant is encoded");
    }

    /// Querying one output of a wide structure encodes that output's cone
    /// only; the rest of the structure stays out of the CNF until asked for.
    #[test]
    fn query_encodes_only_its_cone() {
        let mut bl = Blaster::new();
        let a = bl.bv_fresh(16);
        let b = bl.bv_fresh(16);
        let p = bl.bv_mul(&a, &b);
        assert_eq!(bl.solve(&[p[0]], Budget::UNLIMITED), SatResult::Sat);
        assert_eq!(
            bl.model_bv(&a) & bl.model_bv(&b) & 1,
            1,
            "p[0] = a[0] ∧ b[0]"
        );
        let one = bl.solver().num_clauses();
        for &l in &p {
            bl.encode(l);
        }
        let all = bl.solver().num_clauses();
        assert!(one < all, "bit 0 encoded {one} clauses, the product {all}");
        assert!(u64::from(bl.solver().num_vars()) <= bl.num_nodes());
    }

    /// A root constraint on a cone no query touches still binds every
    /// query: `assert_true` encodes its cone immediately.
    #[test]
    fn asserted_cone_constrains_later_queries() {
        let mut bl = Blaster::new();
        let x = bl.fresh();
        let y = bl.fresh();
        let xy = bl.and(x, y);
        bl.assert_true(xy);
        assert_eq!(bl.solve(&[x.flip()], Budget::UNLIMITED), SatResult::Unsat);
        assert_eq!(bl.solve(&[y], Budget::UNLIMITED), SatResult::Sat);
        assert_eq!(bl.model_bv(&vec![x, y]), 0b11);
    }

    /// `model_bv` evaluates an unencoded node from its operands, without
    /// recursion: a 100k-deep xor chain neither overflows the stack nor
    /// disagrees with the parity of the inputs the model sets.
    #[test]
    fn model_of_deep_unencoded_chain_matches_reference() {
        const DEPTH: usize = 100_000;
        let mut bl = Blaster::new();
        let xs = bl.bv_fresh(DEPTH as u32);
        let mut chain = xs[0];
        for &x in &xs[1..] {
            chain = bl.xor(chain, x);
        }
        let set = [3, 500, DEPTH - 1];
        let mut assumptions: Vec<Lit> = set.iter().map(|&i| xs[i]).collect();
        assumptions.extend([xs[0].flip(), xs[7].flip()]);
        assert_eq!(bl.solve(&assumptions, Budget::UNLIMITED), SatResult::Sat);
        assert!(bl.solver().num_vars() < 10, "the chain itself is unencoded");
        // Unencoded inputs read 0, so the chain is the parity of `set`.
        let parity = (set.len() % 2) as u64;
        assert_eq!(bl.model_bv(&vec![chain]), parity);
        assert_eq!(bl.model_bv(&vec![chain.flip()]), 1 - parity);
    }
}
