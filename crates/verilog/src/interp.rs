//! The tape interpreter: every [`Insn`] arm written once, monomorphized
//! over a value domain and an observer.
//!
//! [`run`] executes a pc range of the settle or step tape the simulator
//! compiles. What differs between engines is a type parameter, not a copy
//! of the loop:
//!
//! - the **domain** ([`Domain`]) owns the register file and net state:
//!   [`Scalar`] registers (one `u64` each), [`Lanes`], lane-major
//!   `[u64; L]` rows evaluated under a divergence mask with SIMT-style
//!   branching, or the transition-system lowering's symbolic domain (see
//!   [`crate::tsys`]), whose registers are word-level node ids. Register
//!   operations arrive as `Copy` op descriptors ([`Op1`], [`Op2`],
//!   [`Op3`]) whose `eval` is the one concrete semantics both concrete
//!   domains call; control flow (`Jump`, `JumpIfZero`) goes through domain
//!   hooks that see the pc, so the symbolic domain can walk both arms of
//!   an `if` where the concrete ones branch;
//! - the **effects** ([`Fx`]) decide where stores, emits and assertion
//!   failures go: pending-update buffers ([`Commit`]), a compare-and-set
//!   store that lists the changed nets ([`NetList`]) or changed-lane masks
//!   ([`LaneList`]), or per-lane pending buffers ([`LaneCommit`]);
//! - the **observer** ([`Observer`]) sees every dispatched instruction and
//!   every changed destination: [`NoObs`] is zero-sized and its hooks
//!   compile away, so an unobserved run is the bare interpreter; [`PerPc`]
//!   counts per instruction. Telemetry counts only full-tape scalar runs:
//!   the bytecode engine's live run, or the scratch run every other engine
//!   makes, so event-scheduled ranges always run unobserved. [`Lanes`]
//!   implements [`Domain`] for [`NoObs`] only: telemetry never rides the
//!   lane domain.

use crate::ast::BinOp;
use crate::sim::{eval_binary, sign_extend, Insn};

/// Execute tape pcs `[start, end)`: a linear sweep with no recursion and
/// no allocation (assertion failure aside). Jump targets are absolute pcs
/// and never leave the range (ranges follow statement boundaries).
/// Branches go through the domain's [`Domain::jump`] and
/// [`Domain::jump_if_zero`] hooks.
#[inline(always)]
pub(crate) fn run<O: Observer, D: Domain<O>>(
    tape: &[Insn],
    start: usize,
    end: usize,
    d: &mut D,
    o: &mut O,
) {
    let tape = &tape[..end];
    let mut pc = start;
    loop {
        if pc >= tape.len() || d.idle() {
            match d.resume() {
                Some(p) => {
                    pc = p;
                    continue;
                }
                None => return,
            }
        }
        o.exec(pc);
        match tape[pc] {
            Insn::LoadNet { dst, net } => d.load_net(o, pc, dst, net),
            Insn::MemRead { dst, mem, addr, m } => d.mem_read(o, pc, dst, mem, addr, m),
            Insn::Slice { dst, src, lo, m } => d.op1(o, pc, dst, src, Op1::Slice { lo, m }),
            Insn::Not { dst, src, m } => d.op1(o, pc, dst, src, Op1::Not { m }),
            Insn::LNot { dst, src } => d.op1(o, pc, dst, src, Op1::LNot),
            Insn::RedOr { dst, src } => d.op1(o, pc, dst, src, Op1::RedOr),
            Insn::Binary {
                op,
                dst,
                a,
                b,
                aw,
                bw,
                m,
            } => {
                // The operator match is hoisted out of the domain's lane
                // loop: each arm passes a constant operator, so after
                // inlining each is one flat, auto-vectorizable sweep.
                macro_rules! hoist {
                    ($($op:ident)*) => {
                        match op {
                            $(BinOp::$op => {
                                let op = BinOp::$op;
                                d.op2(o, pc, dst, a, b, Op2::Bin { op, aw, bw, m })
                            })*
                        }
                    };
                }
                hoist!(Add Sub Mul And Or Xor Shl LShr AShr Eq Ne SLt SLe SGt SGe ULt ULe)
            }
            Insn::Select {
                dst,
                cond,
                then,
                els,
                m,
            } => d.op3(o, pc, dst, cond, then, els, Op3::Select { m }),
            Insn::ConcatFirst { dst, src, m } => d.op1(o, pc, dst, src, Op1::Mask { m }),
            Insn::ConcatPush { dst, src, shift, m } => {
                d.op2(o, pc, dst, dst, src, Op2::ConcatPush { shift, m });
            }
            Insn::MaskReg { dst, m } => d.op1(o, pc, dst, dst, Op1::Mask { m }),
            Insn::SignExtend {
                dst,
                src,
                from,
                fm,
                m,
            } => d.op1(o, pc, dst, src, Op1::SignExtend { from, fm, m }),
            Insn::StoreNet { net, src, m } => d.store_net(o, pc, net, src, m),
            Insn::EmitNet { net, src, m } => d.emit_net(o, pc, net, src, m),
            Insn::EmitMem { mem, addr, src, m } => d.emit_mem(o, pc, mem, addr, src, m),
            Insn::Assert { guard, cond, msg } => d.assert(pc, guard, cond, msg),
            Insn::Jump { target } => {
                pc = d.jump(pc, target);
                continue;
            }
            Insn::JumpIfZero { src, target } => {
                if d.jump_if_zero(pc, src, target) {
                    pc = target as usize;
                    continue;
                }
            }
        }
        pc += 1;
    }
}

/// [`run`] over the scalar domain: one out-of-line instance per observer
/// and effects type, shared by every call site.
#[inline(never)]
pub(crate) fn run_scalar<O: Observer, X: Fx>(
    tape: &[Insn],
    start: usize,
    end: usize,
    d: &mut Scalar<'_, X>,
    o: &mut O,
) {
    run(tape, start, end, d, o);
}

/// [`run`] over the lane domain. Dispatches on the CPU's vector features
/// and specializes the common lane counts, so the per-lane loops get
/// compile-time trip counts.
pub(crate) fn run_lanes<X: Fx>(tape: &[Insn], start: usize, end: usize, d: Lanes<'_, X>) {
    fn go<const L: usize, X: Fx>(tape: &[Insn], start: usize, end: usize, mut d: Lanes<'_, X, L>) {
        debug_assert!(d.work.is_empty());
        d.mask &= d.shape().2;
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: the CPU feature was checked just above.
            return unsafe { run_avx2(tape, start, end, d) };
        }
        run(tape, start, end, &mut d, &mut NoObs);
    }
    match d.lanes {
        64 => go(tape, start, end, d.rows::<64>()),
        32 => go(tape, start, end, d.rows::<32>()),
        16 => go(tape, start, end, d.rows::<16>()),
        8 => go(tape, start, end, d.rows::<8>()),
        _ => go(tape, start, end, d),
    }
}

/// [`run`] compiled with AVX2 enabled: the dense lane loops auto-vectorize
/// to 256-bit ops. Safety: the caller checked the CPU feature at runtime.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn run_avx2<D: Domain<NoObs>>(tape: &[Insn], start: usize, end: usize, mut d: D) {
    run(tape, start, end, &mut d, &mut NoObs);
}

// ------------------------------------------------------------ operations

/// A one-operand register operation, `regs[dst] = op(regs[a])`.
#[derive(Clone, Copy)]
pub(crate) enum Op1 {
    Slice {
        lo: u32,
        m: u64,
    },
    Not {
        m: u64,
    },
    LNot,
    RedOr,
    /// `ConcatFirst` and `MaskReg`.
    Mask {
        m: u64,
    },
    /// Sign-extend the low `from` bits (of `x & fm`) to the width of `m`.
    SignExtend {
        from: u32,
        fm: u64,
        m: u64,
    },
}

/// A two-operand register operation, `regs[dst] = op(regs[a], regs[b])`.
#[derive(Clone, Copy)]
pub(crate) enum Op2 {
    /// `aw`/`bw` are the declared operand widths, `m` the result mask.
    Bin { op: BinOp, aw: u32, bw: u32, m: u64 },
    /// `(acc << shift) | (part & m)`: append the second operand below the
    /// accumulator.
    ConcatPush { shift: u32, m: u64 },
}

/// A three-operand register operation.
#[derive(Clone, Copy)]
pub(crate) enum Op3 {
    /// `regs[a] != 0 ? regs[b] : regs[c]`, masked to `m`.
    Select { m: u64 },
}

// The concrete semantics, shared by the scalar and lane domains. Always
// inlined, so a call site that passes a constant descriptor compiles to
// the one arm it names.
impl Op1 {
    #[inline(always)]
    pub(crate) fn eval(self, x: u64) -> u64 {
        match self {
            Op1::Slice { lo, m } => (x >> lo) & m,
            Op1::Not { m } => !x & m,
            Op1::LNot => u64::from(x == 0),
            Op1::RedOr => u64::from(x != 0),
            Op1::Mask { m } => x & m,
            Op1::SignExtend { from, fm, m } => (sign_extend(x & fm, from) as u64) & m,
        }
    }
}

impl Op2 {
    #[inline(always)]
    pub(crate) fn eval(self, x: u64, y: u64) -> u64 {
        match self {
            Op2::Bin { op, aw, bw, m } => eval_binary(op, x, y, aw, bw) & m,
            Op2::ConcatPush { shift, m } => (x << shift) | (y & m),
        }
    }
}

impl Op3 {
    #[inline(always)]
    pub(crate) fn eval(self, c: u64, t: u64, e: u64) -> u64 {
        match self {
            Op3::Select { m } => (if c != 0 { t } else { e }) & m,
        }
    }
}

// ------------------------------------------------------------- observers

/// Sees every dispatched instruction and every changed destination.
pub(crate) trait Observer {
    /// Instruction `pc` is dispatched.
    fn exec(&mut self, pc: usize);
    /// Instruction `pc` changed its destination (a register, a stored net,
    /// or the net or memory word an emit will overwrite) when `changed()`
    /// holds. Only counting observers evaluate the predicate.
    fn changed(&mut self, pc: usize, changed: impl FnOnce() -> bool);
}

/// The zero-sized observer: an unobserved run costs nothing extra.
pub(crate) struct NoObs;

impl Observer for NoObs {
    #[inline(always)]
    fn exec(&mut self, _pc: usize) {}
    #[inline(always)]
    fn changed(&mut self, _pc: usize, _changed: impl FnOnce() -> bool) {}
}

/// Per-instruction executed/changed counters, indexed by pc.
pub(crate) struct PerPc {
    pub exec: Vec<u64>,
    pub changed: Vec<u64>,
}

impl PerPc {
    pub fn new(len: usize) -> PerPc {
        PerPc {
            exec: vec![0; len],
            changed: vec![0; len],
        }
    }
}

impl Observer for PerPc {
    #[inline(always)]
    fn exec(&mut self, pc: usize) {
        self.exec[pc] += 1;
    }
    #[inline(always)]
    fn changed(&mut self, pc: usize, changed: impl FnOnce() -> bool) {
        if changed() {
            self.changed[pc] += 1;
        }
    }
}

// --------------------------------------------------------------- effects

/// Where a tape's stores, emits and assertion failures go. `lane` is the
/// stimulus lane (always 0 in the scalar domain). Settle tapes only store
/// and step tapes never do, so each side defaults to unreachable.
pub(crate) trait Fx {
    /// A `StoreNet` wrote `net`: `lane0` is lane 0's new value, and bit k
    /// of `changed` is set when lane k's value changed.
    fn stored(&mut self, _net: u32, _lane0: u64, _changed: u64) {
        unreachable!("step tapes hold no StoreNet")
    }
    fn emit_net(&mut self, _lane: usize, _net: u32, _v: u64) {
        unreachable!("settle tapes hold only pure ops and StoreNet")
    }
    fn emit_mem(&mut self, _lane: usize, _mem: u32, _addr: u64, _v: u64) {
        unreachable!("settle tapes hold only pure ops and StoreNet")
    }
    /// An assertion failed; the first failure per lane wins.
    fn fail(&mut self, _lane: usize, _msg: u32) {
        unreachable!("settle tapes hold only pure ops and StoreNet")
    }
}

/// Plain stores; emits and the first failure go to the pending buffers
/// the clock edge commits.
pub(crate) struct Commit<'a> {
    pub nets: &'a mut Vec<(u32, u64)>,
    pub mems: &'a mut Vec<(u32, u64, u64)>,
    pub failure: &'a mut Option<String>,
    pub msgs: &'a [String],
}

impl Fx for Commit<'_> {
    #[inline(always)]
    fn stored(&mut self, _net: u32, _lane0: u64, _changed: u64) {}
    #[inline(always)]
    fn emit_net(&mut self, _lane: usize, net: u32, v: u64) {
        self.nets.push((net, v));
    }
    #[inline(always)]
    fn emit_mem(&mut self, _lane: usize, mem: u32, addr: u64, v: u64) {
        self.mems.push((mem, addr, v));
    }
    fn fail(&mut self, _lane: usize, msg: u32) {
        if self.failure.is_none() {
            *self.failure = Some(self.msgs[msg as usize].clone());
        }
    }
}

/// Compare-and-set stores that list the nets whose value changed: the
/// dirty-set driving the event scheduler. Settle tapes only.
pub(crate) struct NetList<'a>(pub &'a mut Vec<u32>);

impl Fx for NetList<'_> {
    #[inline(always)]
    fn stored(&mut self, net: u32, _lane0: u64, changed: u64) {
        if changed != 0 {
            self.0.push(net);
        }
    }
}

/// Lane-domain compare-and-set stores: mirror lane 0 into the scalar
/// values and list `(net, changed-lane-mask)` pairs. Settle tapes only.
pub(crate) struct LaneList<'a> {
    pub mirror: &'a mut [u64],
    pub changed: &'a mut Vec<(u32, u64)>,
}

impl Fx for LaneList<'_> {
    #[inline(always)]
    fn stored(&mut self, net: u32, lane0: u64, changed: u64) {
        self.mirror[net as usize] = lane0;
        if changed != 0 {
            self.changed.push((net, changed));
        }
    }
}

/// Lane-domain step effects: lane 0 commits into the scalar engine's
/// buffers, every other lane into its own. Step tapes only.
pub(crate) struct LaneCommit<'a> {
    pub lane0: Commit<'a>,
    pub nets: &'a mut [Vec<(u32, u64)>],
    pub mems: &'a mut [Vec<(u32, u64, u64)>],
    pub failures: &'a mut [Option<String>],
}

impl Fx for LaneCommit<'_> {
    #[inline(always)]
    fn emit_net(&mut self, lane: usize, net: u32, v: u64) {
        match lane {
            0 => self.lane0.emit_net(0, net, v),
            k => self.nets[k].push((net, v)),
        }
    }
    #[inline(always)]
    fn emit_mem(&mut self, lane: usize, mem: u32, addr: u64, v: u64) {
        match lane {
            0 => self.lane0.emit_mem(0, mem, addr, v),
            k => self.mems[k].push((mem, addr, v)),
        }
    }
    fn fail(&mut self, lane: usize, msg: u32) {
        match lane {
            0 => self.lane0.fail(0, msg),
            k => {
                if self.failures[k].is_none() {
                    self.failures[k] = Some(self.lane0.msgs[msg as usize].clone());
                }
            }
        }
    }
}

// --------------------------------------------------------------- domains

/// The state an instruction operates on. The interpreter maps each
/// [`Insn`] to one of these calls; `pc` identifies the instruction to the
/// observer.
pub(crate) trait Domain<O: Observer> {
    fn load_net(&mut self, o: &mut O, pc: usize, dst: u32, net: u32);
    /// `regs[dst] = memory[regs[addr]] & m`, 0 when out of range.
    fn mem_read(&mut self, o: &mut O, pc: usize, dst: u32, mem: u32, addr: u32, m: u64);
    fn op1(&mut self, o: &mut O, pc: usize, dst: u32, a: u32, op: Op1);
    fn op2(&mut self, o: &mut O, pc: usize, dst: u32, a: u32, b: u32, op: Op2);
    #[allow(clippy::too_many_arguments)]
    fn op3(&mut self, o: &mut O, pc: usize, dst: u32, a: u32, b: u32, c: u32, op: Op3);
    /// `values[net] = regs[src] & m`, reported to the effects.
    fn store_net(&mut self, o: &mut O, pc: usize, net: u32, src: u32, m: u64);
    /// Non-blocking `net <= regs[src]`; `m` is the net's width mask.
    fn emit_net(&mut self, o: &mut O, pc: usize, net: u32, src: u32, m: u64);
    /// Non-blocking `mem[regs[addr]] <= regs[src]`; `m` is the word mask.
    fn emit_mem(&mut self, o: &mut O, pc: usize, mem: u32, addr: u32, src: u32, m: u64);
    fn assert(&mut self, pc: usize, guard: u32, cond: u32, msg: u32);
    /// `Jump` at `pc`: the pc to continue at.
    fn jump(&mut self, pc: usize, target: u32) -> usize;
    /// `JumpIfZero` at `pc`: whether every active lane takes the branch.
    /// Lanes that diverge are parked at `target` until
    /// [`resume`](Self::resume).
    fn jump_if_zero(&mut self, pc: usize, src: u32, target: u32) -> bool;
    /// Whether no lane is active on the current path.
    fn idle(&self) -> bool;
    /// The current path ended: the pc of a parked path to continue, if any.
    fn resume(&mut self) -> Option<usize>;
}

/// Scalar state: one `u64` per register, net and memory word.
pub(crate) struct Scalar<'a, X> {
    pub regs: &'a mut [u64],
    pub values: &'a mut [u64],
    pub memories: &'a [Vec<u64>],
    pub fx: X,
}

impl<X> Scalar<'_, X> {
    /// `regs[dst] = v`, counting a change when the register held a
    /// different value (from the previous cycle, or an earlier path).
    #[inline(always)]
    fn put<O: Observer>(&mut self, o: &mut O, pc: usize, dst: u32, v: u64) {
        let r = &mut self.regs[dst as usize];
        o.changed(pc, || *r != v);
        *r = v;
    }
}

impl<X: Fx, O: Observer> Domain<O> for Scalar<'_, X> {
    #[inline(always)]
    fn load_net(&mut self, o: &mut O, pc: usize, dst: u32, net: u32) {
        let v = self.values[net as usize];
        self.put(o, pc, dst, v);
    }
    #[inline(always)]
    fn mem_read(&mut self, o: &mut O, pc: usize, dst: u32, mem: u32, addr: u32, m: u64) {
        let a = self.regs[addr as usize] as usize;
        let v = self.memories[mem as usize].get(a).copied().unwrap_or(0) & m;
        self.put(o, pc, dst, v);
    }
    #[inline(always)]
    fn op1(&mut self, o: &mut O, pc: usize, dst: u32, a: u32, op: Op1) {
        let v = op.eval(self.regs[a as usize]);
        self.put(o, pc, dst, v);
    }
    #[inline(always)]
    fn op2(&mut self, o: &mut O, pc: usize, dst: u32, a: u32, b: u32, op: Op2) {
        // Bounds-check `dst` before evaluating: with this order the
        // seventeen binary arms keep the register file's base in a register
        // (measured: without it the bytecode engine ran ~15% slower on
        // conv 64x64 and GEMM N=16).
        let (x, y) = (self.regs[a as usize], self.regs[b as usize]);
        let r = &mut self.regs[dst as usize];
        let v = op.eval(x, y);
        o.changed(pc, || *r != v);
        *r = v;
    }
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    fn op3(&mut self, o: &mut O, pc: usize, dst: u32, a: u32, b: u32, c: u32, op: Op3) {
        let r = &self.regs;
        let v = op.eval(r[a as usize], r[b as usize], r[c as usize]);
        self.put(o, pc, dst, v);
    }
    #[inline(always)]
    fn store_net(&mut self, o: &mut O, pc: usize, net: u32, src: u32, m: u64) {
        let v = self.regs[src as usize] & m;
        let cur = &mut self.values[net as usize];
        let changed = *cur != v;
        *cur = v;
        o.changed(pc, || changed);
        self.fx.stored(net, v, u64::from(changed));
    }
    #[inline(always)]
    fn emit_net(&mut self, o: &mut O, pc: usize, net: u32, src: u32, m: u64) {
        let v = self.regs[src as usize];
        o.changed(pc, || (v & m) != self.values[net as usize]);
        self.fx.emit_net(0, net, v);
    }
    #[inline(always)]
    fn emit_mem(&mut self, o: &mut O, pc: usize, mem: u32, addr: u32, src: u32, m: u64) {
        let (a, v) = (self.regs[addr as usize], self.regs[src as usize]);
        o.changed(pc, || {
            let words = &self.memories[mem as usize];
            words.get(a as usize).is_some_and(|&cur| (v & m) != cur)
        });
        self.fx.emit_mem(0, mem, a, v);
    }
    #[inline(always)]
    fn assert(&mut self, _pc: usize, guard: u32, cond: u32, msg: u32) {
        if self.regs[guard as usize] != 0 && self.regs[cond as usize] == 0 {
            self.fx.fail(0, msg);
        }
    }
    #[inline(always)]
    fn jump(&mut self, _pc: usize, target: u32) -> usize {
        target as usize
    }
    #[inline(always)]
    fn jump_if_zero(&mut self, _pc: usize, src: u32, _target: u32) -> bool {
        self.regs[src as usize] == 0
    }
    #[inline(always)]
    fn idle(&self) -> bool {
        false
    }
    #[inline(always)]
    fn resume(&mut self) -> Option<usize> {
        None
    }
}

/// Lane-major state for N independent stimulus lanes (`slot = index *
/// lanes + lane`), so each instruction's lane loop is one contiguous sweep
/// the compiler auto-vectorizes. `L` is the lane count when known at
/// compile time (0: use `lanes`). Only lanes in `mask` execute; a branch
/// that splits them parks the taken subset on `work` and continues with
/// the rest, so each lane still walks its own path in tape order and
/// per-lane emission order and first-failure semantics match a
/// one-lane-at-a-time run.
pub(crate) struct Lanes<'a, X, const L: usize = 0> {
    pub lanes: usize,
    pub regs: &'a mut [u64],
    pub values: &'a mut [u64],
    pub mems: &'a [Vec<u64>],
    pub mask: u64,
    /// Parked `(pc, lane-mask)` paths (empty between runs).
    pub work: &'a mut Vec<(u32, u64)>,
    pub fx: X,
}

impl<'a, X, const L: usize> Lanes<'a, X, L> {
    /// `(active mask, lane count, all-lanes mask)`.
    #[inline(always)]
    fn shape(&self) -> (u64, usize, u64) {
        let l = if L == 0 { self.lanes } else { L };
        let full = if l >= 64 { u64::MAX } else { (1u64 << l) - 1 };
        (self.mask, l, full)
    }

    /// Offset of register `r`'s row, bounds-checked once so the lane loops
    /// run check-free.
    #[inline(always)]
    fn row(&self, r: u32) -> usize {
        let l = self.shape().1;
        let at = r as usize * l;
        assert!(at + l <= self.regs.len());
        at
    }

    fn rows<const M: usize>(self) -> Lanes<'a, X, M> {
        Lanes {
            lanes: self.lanes,
            regs: self.regs,
            values: self.values,
            mems: self.mems,
            mask: self.mask,
            work: self.work,
            fx: self.fx,
        }
    }
}

/// The set lanes of `mask`, ascending.
struct Bits(u64);

impl Iterator for Bits {
    type Item = usize;
    #[inline(always)]
    fn next(&mut self) -> Option<usize> {
        if self.0 == 0 {
            return None;
        }
        let k = self.0.trailing_zeros() as usize;
        self.0 &= self.0 - 1;
        Some(k)
    }
}

/// Run `$body` for each active lane `$k` of `$shape` (see
/// [`Lanes::shape`]): a dense loop when every lane is active (the
/// auto-vectorizable common case) and a set-bit walk otherwise. A macro,
/// not a closure-taking function, so the body is always inlined into the
/// loops, however large the interpreter around it grows.
macro_rules! for_lanes {
    ($shape:expr, |$k:ident| $body:expr) => {{
        let (mask, l, full) = $shape;
        if mask == full {
            for $k in 0..l {
                $body;
            }
        } else {
            for $k in Bits(mask) {
                $body;
            }
        }
    }};
}

impl<X: Fx, const L: usize> Domain<NoObs> for Lanes<'_, X, L> {
    #[inline(always)]
    fn load_net(&mut self, _: &mut NoObs, _: usize, dst: u32, net: u32) {
        let shape = self.shape();
        let (d, n, l) = (self.row(dst), net as usize * shape.1, shape.1);
        assert!(n + l <= self.values.len());
        let (regs, values) = (&mut *self.regs, &*self.values);
        for_lanes!(shape, |k| regs[d + k] = values[n + k]);
    }
    #[inline(always)]
    fn mem_read(&mut self, _: &mut NoObs, _: usize, dst: u32, mem: u32, addr: u32, m: u64) {
        let shape = self.shape();
        let (d, a, l) = (self.row(dst), self.row(addr), shape.1);
        let words = &self.mems[mem as usize];
        let depth = words.len() / l;
        let regs = &mut *self.regs;
        for_lanes!(shape, |k| {
            let idx = regs[a + k] as usize;
            regs[d + k] = if idx < depth {
                words[idx * l + k] & m
            } else {
                0
            };
        });
    }
    #[inline(always)]
    fn op1(&mut self, _: &mut NoObs, _: usize, dst: u32, a: u32, op: Op1) {
        let shape = self.shape();
        let (d, a) = (self.row(dst), self.row(a));
        let regs = &mut *self.regs;
        for_lanes!(shape, |k| regs[d + k] = op.eval(regs[a + k]));
    }
    #[inline(always)]
    fn op2(&mut self, _: &mut NoObs, _: usize, dst: u32, a: u32, b: u32, op: Op2) {
        let shape = self.shape();
        let (d, a, b) = (self.row(dst), self.row(a), self.row(b));
        let regs = &mut *self.regs;
        for_lanes!(shape, |k| regs[d + k] = op.eval(regs[a + k], regs[b + k]));
    }
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    fn op3(&mut self, _: &mut NoObs, _: usize, dst: u32, a: u32, b: u32, c: u32, op: Op3) {
        let shape = self.shape();
        let (d, a, b, c) = (self.row(dst), self.row(a), self.row(b), self.row(c));
        let regs = &mut *self.regs;
        for_lanes!(shape, |k| regs[d + k] =
            op.eval(regs[a + k], regs[b + k], regs[c + k]));
    }
    #[inline(always)]
    fn store_net(&mut self, _: &mut NoObs, _: usize, net: u32, src: u32, m: u64) {
        let shape = self.shape();
        let (s, n, l) = (self.row(src), net as usize * shape.1, shape.1);
        assert!(n + l <= self.values.len());
        let (regs, values) = (&*self.regs, &mut *self.values);
        let mut changed = 0u64;
        for_lanes!(shape, |k| {
            let v = regs[s + k] & m;
            if values[n + k] != v {
                values[n + k] = v;
                changed |= 1u64 << k;
            }
        });
        self.fx.stored(net, self.values[n], changed);
    }
    #[inline(always)]
    fn emit_net(&mut self, _: &mut NoObs, _: usize, net: u32, src: u32, _m: u64) {
        let s = self.row(src);
        for k in Bits(self.mask) {
            self.fx.emit_net(k, net, self.regs[s + k]);
        }
    }
    #[inline(always)]
    fn emit_mem(&mut self, _: &mut NoObs, _: usize, mem: u32, addr: u32, src: u32, _m: u64) {
        let (a, s) = (self.row(addr), self.row(src));
        for k in Bits(self.mask) {
            self.fx.emit_mem(k, mem, self.regs[a + k], self.regs[s + k]);
        }
    }
    #[inline(always)]
    fn assert(&mut self, _pc: usize, guard: u32, cond: u32, msg: u32) {
        let (g, c) = (self.row(guard), self.row(cond));
        for k in Bits(self.mask) {
            if self.regs[g + k] != 0 && self.regs[c + k] == 0 {
                self.fx.fail(k, msg);
            }
        }
    }
    #[inline(always)]
    fn jump(&mut self, _pc: usize, target: u32) -> usize {
        target as usize
    }
    #[inline(always)]
    fn jump_if_zero(&mut self, _pc: usize, src: u32, target: u32) -> bool {
        let shape = self.shape();
        let s = self.row(src);
        let regs = &*self.regs;
        let mut taken = 0u64;
        for_lanes!(shape, |k| taken |= u64::from(regs[s + k] == 0) << k);
        if taken == self.mask {
            return true;
        }
        if taken != 0 {
            self.work.push((target, taken));
            self.mask &= !taken;
        }
        false
    }
    #[inline(always)]
    fn idle(&self) -> bool {
        self.mask == 0
    }
    #[inline(always)]
    fn resume(&mut self) -> Option<usize> {
        let (pc, mask) = self.work.pop()?;
        self.mask = mask;
        Some(pc as usize)
    }
}
