//! Word-level transition systems lowered from the simulator's bytecode tapes.
//!
//! The settle/step tapes (see [`crate::sim`]) are a linearized form of the
//! design's combinational and sequential behavior: the settle tape is a
//! topologically ordered sweep of continuous assigns, the step tape the
//! single-clock always blocks with structured `if` regions encoded as
//! `JumpIfZero`/`Jump` pairs. The lowering runs both tapes through the
//! simulator's own interpreter, `interp::run`, over a symbolic domain
//! (`Sym`) whose registers hold node ids instead of values:
//!
//! * each instruction's op descriptor (`Op1`/`Op2`/`Op3`) builds
//!   width-fitted nodes, and constant operands fold through the simulator's
//!   own `eval_binary`, so the two cannot disagree;
//! * `JumpIfZero` opens an `if` region and falls into its then branch, and
//!   the `Jump` hook ending that branch flips the region to its else sense
//!   and falls through: one linear pass visits both branches, and every
//!   emit and assertion is guarded by the open regions.
//!
//! The result is a cycle-free word-level transition system:
//!
//! * every net written by a non-blocking assign becomes a **state variable**
//!   whose `next` function folds the tape's pending updates in program order;
//! * every inferred memory is expanded **word-wise** into one state variable
//!   per word (reads become bounded mux chains, writes per-word conditional
//!   updates), so the system stays pure bit-vector — no array sorts;
//! * input ports become free **inputs**, undriven internal nets become
//!   constants at their reset value;
//! * immediate assertions become **bad** properties (`guard && !cond`).
//!
//! The result can be printed as textual [BTOR2] (`hirc --emit=btor2`) or
//! bit-blasted to CNF by the `bmc` crate for bounded equivalence checking.
//! Both consumers rely on the node list being in topological order and on
//! the printer/lowering being fully deterministic: same design in, byte
//! identical system out, at every thread count.
//!
//! [BTOR2]: https://fmv.jku.at/btor2/ (the word-level model-checking format
//! of Btor2MLIR and btormc)

use crate::ast::{BinOp, Design, Dir, PortDecl};
use crate::elaborate::flatten;
use crate::interp::{self, Domain, NoObs, Op1, Op2, Op3};
use crate::sim::{self, eval_binary, mask, sign_extend, BuildError, Insn, Simulator};
use std::collections::{BTreeMap, HashMap, HashSet};

/// Index of a node in [`TransitionSystem::nodes`]. Nodes are hash-consed and
/// topologically ordered: a node's operands always have smaller indices.
pub type NodeId = u32;

/// One node of the word-level DAG. Values are unsigned bit-vectors of an
/// explicit width between 1 and 64.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Node {
    Const {
        value: u64,
        width: u32,
    },
    /// Free input; `index` into [`TransitionSystem::inputs`].
    Input {
        index: u32,
        width: u32,
    },
    /// Current-cycle state value; `index` into [`TransitionSystem::states`].
    State {
        index: u32,
        width: u32,
    },
    /// Bitwise complement.
    Not {
        a: NodeId,
        width: u32,
    },
    /// OR-reduction to 1 bit (`value != 0`).
    RedOr {
        a: NodeId,
    },
    /// A simulator operator ([`BinOp`]), evaluated by `sim::eval_binary` at
    /// the operands' (common) width and masked to the node's width: the
    /// operand width, or 1 bit for comparisons. The lowering emits
    /// `SGt`/`SGe` as `SLt`/`SLe` with swapped operands.
    Binary {
        op: BinOp,
        a: NodeId,
        b: NodeId,
        width: u32,
    },
    /// `cond` is 1 bit; arms have the node's width.
    Ite {
        cond: NodeId,
        t: NodeId,
        e: NodeId,
        width: u32,
    },
    /// Bits `[hi:lo]` of `a`; width `hi - lo + 1`.
    Slice {
        a: NodeId,
        hi: u32,
        lo: u32,
    },
    /// Zero or sign extension of `a` to `width`.
    Ext {
        a: NodeId,
        width: u32,
        signed: bool,
    },
    /// `{hi, lo}`; width is the sum of the part widths.
    Concat {
        hi: NodeId,
        lo: NodeId,
        width: u32,
    },
}

impl Node {
    /// The width of the node's value in bits.
    pub fn width(&self) -> u32 {
        match self {
            Node::Const { width, .. }
            | Node::Input { width, .. }
            | Node::State { width, .. }
            | Node::Not { width, .. }
            | Node::Binary { width, .. }
            | Node::Ite { width, .. }
            | Node::Ext { width, .. }
            | Node::Concat { width, .. } => *width,
            Node::RedOr { .. } => 1,
            Node::Slice { hi, lo, .. } => hi - lo + 1,
        }
    }
}

/// A free input (a top-level input port of the flattened design).
#[derive(Clone, Debug)]
pub struct InputVar {
    pub name: String,
    pub width: u32,
    /// The net's reset value in the simulator — what an environment that
    /// never drives this input would observe.
    pub init: u64,
    pub node: NodeId,
}

/// A state variable: a non-blocking-assigned net, or one word of an
/// inferred memory (named `mem[word]`).
#[derive(Clone, Debug)]
pub struct StateVar {
    pub name: String,
    pub width: u32,
    /// Reset value (net initializers; memories reset to zero).
    pub init: u64,
    /// Next-state function, evaluated over the current cycle's nodes.
    pub next: NodeId,
    pub node: NodeId,
}

/// A word-level transition system. One transition = one clock edge plus the
/// following settle; the clock itself is abstracted away.
#[derive(Clone, Debug, Default)]
pub struct TransitionSystem {
    /// Topologically ordered, hash-consed node DAG.
    pub nodes: Vec<Node>,
    pub inputs: Vec<InputVar>,
    pub states: Vec<StateVar>,
    /// Assertion properties: (sanitized message, 1-bit "violated" node).
    pub bads: Vec<(String, NodeId)>,
    /// Settled value of every named net, for environment models and output
    /// tracing. Deterministically ordered.
    pub nets: BTreeMap<String, NodeId>,
    /// Output ports of the flattened design, in port order.
    pub outputs: Vec<(String, NodeId)>,
}

impl TransitionSystem {
    /// Evaluate every node for one cycle. `state` holds the current value of
    /// each state variable (in order), `inputs` the value of each input; the
    /// returned vector is indexed by [`NodeId`]. This is the lowering's
    /// executable semantics — the reference the bit-blaster and the BTOR2
    /// printer must both agree with.
    pub fn eval_nodes(&self, state: &[u64], inputs: &[u64]) -> Vec<u64> {
        let mut vals = vec![0u64; self.nodes.len()];
        for (i, n) in self.nodes.iter().enumerate() {
            let width_of = |id: NodeId| self.nodes[id as usize].width();
            vals[i] = match n {
                Node::Const { value, .. } => *value,
                Node::Input { index, width } => inputs[*index as usize] & mask(*width),
                Node::State { index, width } => state[*index as usize] & mask(*width),
                Node::Not { a, width } => !vals[*a as usize] & mask(*width),
                Node::RedOr { a } => u64::from(vals[*a as usize] != 0),
                Node::Binary { op, a, b, width } => {
                    let aw = width_of(*a);
                    eval_binary(*op, vals[*a as usize], vals[*b as usize], aw, aw) & mask(*width)
                }
                Node::Ite { cond, t, e, .. } => {
                    if vals[*cond as usize] != 0 {
                        vals[*t as usize]
                    } else {
                        vals[*e as usize]
                    }
                }
                Node::Slice { a, hi, lo } => (vals[*a as usize] >> lo) & mask(hi - lo + 1),
                Node::Ext { a, width, signed } => {
                    let v = vals[*a as usize];
                    if *signed {
                        sign_extend(v, width_of(*a)) as u64 & mask(*width)
                    } else {
                        v
                    }
                }
                Node::Concat { hi, lo, .. } => {
                    (vals[*hi as usize] << width_of(*lo)) | vals[*lo as usize]
                }
            };
        }
        vals
    }

    /// Advance one cycle: returns the next state vector given this cycle's
    /// evaluated nodes.
    pub fn next_state(&self, vals: &[u64]) -> Vec<u64> {
        self.states.iter().map(|s| vals[s.next as usize]).collect()
    }

    /// Initial state vector.
    pub fn initial_state(&self) -> Vec<u64> {
        self.states.iter().map(|s| s.init).collect()
    }
}

// --------------------------------------------------------------- builder

/// Hash-consing node builder with constant folding.
#[derive(Default)]
struct Builder {
    nodes: Vec<Node>,
    cons: HashMap<Node, NodeId>,
}

impl Builder {
    fn push(&mut self, n: Node) -> NodeId {
        if let Some(&id) = self.cons.get(&n) {
            return id;
        }
        let id = self.nodes.len() as NodeId;
        self.nodes.push(n.clone());
        self.cons.insert(n, id);
        id
    }

    fn width(&self, id: NodeId) -> u32 {
        self.nodes[id as usize].width()
    }

    fn const_value(&self, id: NodeId) -> Option<u64> {
        match self.nodes[id as usize] {
            Node::Const { value, .. } => Some(value),
            _ => None,
        }
    }

    fn konst(&mut self, value: u64, width: u32) -> NodeId {
        debug_assert!((1..=64).contains(&width));
        self.push(Node::Const {
            value: value & mask(width),
            width,
        })
    }

    fn not(&mut self, a: NodeId) -> NodeId {
        let w = self.width(a);
        if let Some(v) = self.const_value(a) {
            return self.konst(!v, w);
        }
        // ¬¬x = x.
        if let Node::Not { a: inner, .. } = self.nodes[a as usize] {
            return inner;
        }
        self.push(Node::Not { a, width: w })
    }

    fn redor(&mut self, a: NodeId) -> NodeId {
        if self.width(a) == 1 {
            return a;
        }
        if let Some(v) = self.const_value(a) {
            return self.konst(u64::from(v != 0), 1);
        }
        self.push(Node::RedOr { a })
    }

    fn binary(&mut self, op: BinOp, a: NodeId, b: NodeId) -> NodeId {
        let aw = self.width(a);
        debug_assert_eq!(aw, self.width(b), "binary operand widths must match");
        let w = if op.is_comparison() { 1 } else { aw };
        if let (Some(av), Some(bv)) = (self.const_value(a), self.const_value(b)) {
            return self.konst(eval_binary(op, av, bv, aw, aw), w);
        }
        // Cheap neutral-element folds keep guard chains readable.
        match op {
            BinOp::And => {
                if self.const_value(a) == Some(mask(aw)) {
                    return b;
                }
                if self.const_value(b) == Some(mask(aw)) {
                    return a;
                }
                if self.const_value(a) == Some(0) || self.const_value(b) == Some(0) {
                    return self.konst(0, w);
                }
                if a == b {
                    return a;
                }
            }
            BinOp::Or => {
                if self.const_value(a) == Some(0) {
                    return b;
                }
                if self.const_value(b) == Some(0) {
                    return a;
                }
                if a == b {
                    return a;
                }
            }
            _ => {}
        }
        self.push(Node::Binary { op, a, b, width: w })
    }

    fn ite(&mut self, cond: NodeId, t: NodeId, e: NodeId) -> NodeId {
        debug_assert_eq!(self.width(cond), 1);
        let w = self.width(t);
        debug_assert_eq!(w, self.width(e));
        if let Some(c) = self.const_value(cond) {
            return if c != 0 { t } else { e };
        }
        if t == e {
            return t;
        }
        self.push(Node::Ite {
            cond,
            t,
            e,
            width: w,
        })
    }

    fn slice(&mut self, a: NodeId, hi: u32, lo: u32) -> NodeId {
        let w = self.width(a);
        debug_assert!(lo <= hi && hi < w);
        if lo == 0 && hi == w - 1 {
            return a;
        }
        if let Some(v) = self.const_value(a) {
            return self.konst(v >> lo, hi - lo + 1);
        }
        self.push(Node::Slice { a, hi, lo })
    }

    fn ext(&mut self, a: NodeId, width: u32, signed: bool) -> NodeId {
        let aw = self.width(a);
        debug_assert!(width >= aw);
        if width == aw {
            return a;
        }
        if let Some(v) = self.const_value(a) {
            let filled = if signed { sign_extend(v, aw) as u64 } else { v };
            return self.konst(filled, width);
        }
        self.push(Node::Ext { a, width, signed })
    }

    /// Truncate or zero-extend to exactly `w` bits.
    fn fit(&mut self, a: NodeId, w: u32) -> NodeId {
        let aw = self.width(a);
        if aw == w {
            a
        } else if aw > w {
            self.slice(a, w - 1, 0)
        } else {
            self.ext(a, w, false)
        }
    }

    fn and1(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.binary(BinOp::And, a, b)
    }
}

/// Width of a contiguous low-bit mask as produced by `sim::mask`.
fn mask_width(m: u64) -> u32 {
    debug_assert!(
        m != 0 && (m & m.wrapping_add(1)) == 0,
        "mask {m:#x} not contiguous"
    );
    64 - m.leading_zeros()
}

// -------------------------------------------------------------- lowering

/// Lower the design's behavior (as compiled into the simulator's bytecode
/// tapes) into a [`TransitionSystem`] for module `top`.
///
/// # Errors
/// Fails when the design does not elaborate or uses a construct outside the
/// lowering's fragment (e.g. a net driven by both an assign and an always).
pub fn lower(design: &Design, top: &str) -> Result<TransitionSystem, BuildError> {
    let flat = flatten(design, top)?;
    let simulator = Simulator::from_flat(&flat)?;
    let view = simulator.tape_view();
    let mut sym = Sym::new(view, &flat.ports)?;
    for (in_step, tape) in [(false, view.settle_tape), (true, view.step_tape)] {
        sym.in_step = in_step;
        interp::run(tape, 0, tape.len(), &mut sym, &mut NoObs);
        if let Some(e) = sym.err.take() {
            return Err(e);
        }
    }
    sym.finish(&flat.ports)
}

/// Per-memory word-state bookkeeping.
struct MemWords {
    /// State index of each word.
    state_index: Vec<u32>,
    width: u32,
}

/// The symbolic interpreter domain: registers and nets hold nodes, and
/// stores, emits and assertions collect the transition system's pieces.
struct Sym<'a> {
    view: sim::TapeView<'a>,
    b: Builder,
    inputs: Vec<InputVar>,
    states: Vec<StateVar>,
    /// The net of each register state, in state order (register states
    /// precede the memory words).
    state_net: Vec<usize>,
    mems: Vec<MemWords>,
    /// Settled value node per net (combinational nets are filled by the
    /// settle run).
    net_node: Vec<Option<NodeId>>,
    /// Symbolic register file, filled on first write (or, for registers
    /// preloaded with a constant, first read).
    regs: Vec<Option<NodeId>>,
    /// Running the step tape (the settle tape otherwise).
    in_step: bool,
    /// Open structured-`if` regions, innermost last: `(cond, then-sense,
    /// end pc)`.
    open: Vec<(NodeId, bool, u32)>,
    /// Guarded pending updates in program order: `(net, guard, value)` and
    /// `(mem, guard, addr, value)`.
    pend_nets: Vec<(u32, Option<NodeId>, NodeId)>,
    pend_mems: Vec<(u32, Option<NodeId>, NodeId, NodeId)>,
    bads: Vec<(String, NodeId)>,
    /// The first construct outside the fragment; stops the run.
    err: Option<BuildError>,
}

impl<'a> Sym<'a> {
    /// Classify nets: non-blocking targets are states, assign targets are
    /// combinational, input ports are free, the rest are constants. Then
    /// give every memory word a state, reset to the simulator's initial
    /// contents (zero).
    fn new(view: sim::TapeView<'a>, ports: &[PortDecl]) -> Result<Self, BuildError> {
        let nets = view.net_names.len();
        let mut s = Sym {
            view,
            b: Builder::default(),
            inputs: Vec::new(),
            states: Vec::new(),
            state_net: Vec::new(),
            mems: Vec::new(),
            net_node: vec![None; nets],
            regs: vec![None; view.regs.len()],
            in_step: false,
            open: Vec::new(),
            pend_nets: Vec::new(),
            pend_mems: Vec::new(),
            bads: Vec::new(),
            err: None,
        };
        let mut emitted = vec![false; nets];
        let mut stored = vec![false; nets];
        for insn in view.step_tape {
            if let Insn::EmitNet { net, .. } = insn {
                emitted[*net as usize] = true;
            }
        }
        for insn in view.settle_tape {
            if let Insn::StoreNet { net, .. } = insn {
                stored[*net as usize] = true;
            }
        }
        let input_ports: HashSet<&str> = ports
            .iter()
            .filter(|p| p.dir == Dir::Input)
            .map(|p| p.name.as_str())
            .collect();
        for (i, name) in view.net_names.iter().enumerate() {
            let (width, init) = (view.net_width[i].max(1), view.values[i]);
            let is_input = input_ports.contains(name.as_str());
            match (is_input, emitted[i], stored[i]) {
                (true, false, false) => {
                    let index = s.inputs.len() as u32;
                    let node = s.b.push(Node::Input { index, width });
                    s.inputs.push(InputVar {
                        name: name.clone(),
                        width,
                        init,
                        node,
                    });
                    s.net_node[i] = Some(node);
                }
                (false, true, false) => {
                    let si = s.state(name.clone(), width, init);
                    s.state_net.push(i);
                    s.net_node[i] = Some(s.states[si as usize].node);
                }
                (false, false, true) => {} // defined by the settle run
                (false, false, false) => s.net_node[i] = Some(s.b.konst(init, width)),
                _ => {
                    return Err(BuildError::Unsupported(format!(
                        "net '{name}' has conflicting drivers (input={is_input}, \
                         always={}, assign={})",
                        emitted[i], stored[i]
                    )))
                }
            }
        }
        for (mi, words) in view.memories.iter().enumerate() {
            let width = view.mem_width[mi].max(1);
            let state_index = (words.iter().enumerate())
                .map(|(wi, &init)| s.state(format!("{}[{wi}]", view.mem_names[mi]), width, init))
                .collect();
            s.mems.push(MemWords { state_index, width });
        }
        Ok(s)
    }

    /// A new state variable (its next function is itself until
    /// [`finish`](Self::finish)); returns its index.
    fn state(&mut self, name: String, width: u32, init: u64) -> u32 {
        let index = self.states.len() as u32;
        let node = self.b.push(Node::State { index, width });
        self.states.push(StateVar {
            name,
            width,
            init,
            next: node,
            node,
        });
        index
    }

    /// Fold the pending updates into next-state functions and collect the
    /// settled nets and outputs.
    fn finish(mut self, ports: &[PortDecl]) -> Result<TransitionSystem, BuildError> {
        // Register nets, in state order: updates apply in program order (the
        // simulator commits them sequentially, so a later write wins).
        for (si, &net) in self.state_net.iter().enumerate() {
            let (width, mut next) = (self.states[si].width, self.states[si].node);
            for &(pnet, guard, v) in &self.pend_nets {
                if pnet as usize != net {
                    continue;
                }
                let v = self.b.fit(v, width);
                next = match guard {
                    Some(g) => self.b.ite(g, v, next),
                    None => v,
                };
            }
            self.states[si].next = next;
        }

        // Memory words: a write lands on word `w` when its address selects
        // `w` and its guard holds; writes apply in program order.
        for (mi, mem) in self.mems.iter().enumerate() {
            for (wi, &si) in mem.state_index.iter().enumerate() {
                let mut next = self.states[si as usize].node;
                for &(pmem, guard, addr, v) in &self.pend_mems {
                    if pmem as usize != mi {
                        continue;
                    }
                    let aw = self.b.width(addr);
                    if aw < 64 && (wi as u64) >= (1u64 << aw) {
                        continue; // word index not representable: never hit
                    }
                    let widx = self.b.konst(wi as u64, aw);
                    let mut sel = self.b.binary(BinOp::Eq, addr, widx);
                    if let Some(g) = guard {
                        sel = self.b.and1(g, sel);
                    }
                    let v = self.b.fit(v, mem.width);
                    next = self.b.ite(sel, v, next);
                }
                self.states[si as usize].next = next;
            }
        }

        let mut nets = BTreeMap::new();
        for (name, node) in self.view.net_names.iter().zip(&self.net_node) {
            let node = node.ok_or_else(|| {
                BuildError::Unsupported(format!("net '{name}' has no settled definition"))
            })?;
            nets.insert(name.clone(), node);
        }
        let outputs = (ports.iter().filter(|p| p.dir == Dir::Output))
            .filter_map(|p| Some((p.name.clone(), *nets.get(&p.name)?)))
            .collect();
        Ok(TransitionSystem {
            nodes: self.b.nodes,
            inputs: self.inputs,
            states: self.states,
            bads: self.bads,
            nets,
            outputs,
        })
    }

    /// Record the first construct outside the fragment; the run stops
    /// before the next instruction.
    fn fail(&mut self, what: String) {
        self.err.get_or_insert(BuildError::Unsupported(what));
    }

    /// Node for a tape register: defined earlier in the run, or a constant
    /// preloaded at simulator build time.
    fn reg(&mut self, r: u32) -> NodeId {
        if let Some(n) = self.regs[r as usize] {
            return n;
        }
        let n = self.b.konst(self.view.regs[r as usize], 64);
        self.regs[r as usize] = Some(n);
        n
    }

    fn set(&mut self, r: u32, n: NodeId) {
        self.regs[r as usize] = Some(n);
    }

    /// Whether the sequential instruction at `pc` is on the step tape (the
    /// run fails otherwise); closes the `if` regions that ended before it.
    fn sequential(&mut self, pc: usize) -> bool {
        if !self.in_step {
            self.fail(format!("settle tape contains a sequential insn at pc {pc}"));
            return false;
        }
        while self.open.last().is_some_and(|r| r.2 as usize <= pc) {
            self.open.pop();
        }
        true
    }

    /// Conjunction of the open region guards (None when unconditional).
    fn guard(&mut self) -> Option<NodeId> {
        let mut acc: Option<NodeId> = None;
        for &(cond, sense, _) in &self.open {
            let lit = if sense { cond } else { self.b.not(cond) };
            acc = Some(match acc {
                Some(a) => self.b.and1(a, lit),
                None => lit,
            });
        }
        acc
    }

    /// Bounded mux chain over the memory's word states; out-of-range
    /// addresses read 0, exactly like the simulator.
    fn read_words(&mut self, mem: usize, addr: NodeId, m: u64) -> NodeId {
        let width = self.mems[mem].width;
        let aw = self.b.width(addr);
        let depth = self.mems[mem].state_index.len() as u64;
        let reachable = if aw >= 63 {
            depth
        } else {
            depth.min(1u64 << aw)
        };
        let mut val = self.b.konst(0, width);
        for wi in (0..reachable).rev() {
            let widx = self.b.konst(wi, aw);
            let sel = self.b.binary(BinOp::Eq, addr, widx);
            let word = self.states[self.mems[mem].state_index[wi as usize] as usize].node;
            val = self.b.ite(sel, word, val);
        }
        self.b.fit(val, mask_width(m))
    }
}

impl Domain<NoObs> for Sym<'_> {
    fn load_net(&mut self, _: &mut NoObs, _: usize, dst: u32, net: u32) {
        match self.net_node[net as usize] {
            Some(n) => self.set(dst, n),
            None => self.fail(format!(
                "load of net '{}' before its definition",
                self.view.net_names[net as usize]
            )),
        }
    }

    fn mem_read(&mut self, _: &mut NoObs, _: usize, dst: u32, mem: u32, addr: u32, m: u64) {
        let a = self.reg(addr);
        let n = self.read_words(mem as usize, a, m);
        self.set(dst, n);
    }

    fn op1(&mut self, _: &mut NoObs, _: usize, dst: u32, a: u32, op: Op1) {
        let x = self.reg(a);
        let b = &mut self.b;
        let n = match op {
            Op1::Slice { lo, m } => {
                let (wm, xw) = (mask_width(m), b.width(x));
                if lo >= xw {
                    b.konst(0, wm)
                } else {
                    let part = b.slice(x, (lo + wm - 1).min(xw - 1), lo);
                    b.fit(part, wm)
                }
            }
            Op1::Not { m } => {
                let x = b.fit(x, mask_width(m));
                b.not(x)
            }
            Op1::LNot => {
                let r = b.redor(x);
                b.not(r)
            }
            Op1::RedOr => b.redor(x),
            Op1::Mask { m } => b.fit(x, mask_width(m)),
            Op1::SignExtend { from, fm, m } => {
                let x = b.fit(x, mask_width(fm));
                let x = b.fit(x, from.max(1));
                let wm = mask_width(m);
                if wm <= from {
                    b.fit(x, wm)
                } else {
                    b.ext(x, wm, true)
                }
            }
        };
        self.set(dst, n);
    }

    fn op2(&mut self, _: &mut NoObs, _: usize, dst: u32, a: u32, b: u32, op: Op2) {
        let (x, y) = (self.reg(a), self.reg(b));
        let bd = &mut self.b;
        let n = match op {
            Op2::Bin { op, aw, bw, m } => {
                let (wm, aw, bw) = (mask_width(m), aw.max(1), bw.max(1));
                match op {
                    // Modular arithmetic and bitwise ops only depend on the
                    // low result-width bits of each operand.
                    BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::And | BinOp::Or | BinOp::Xor => {
                        let x = bd.fit(x, wm);
                        let y = bd.fit(y, wm);
                        bd.binary(op, x, y)
                    }
                    // Shifts: compute at a width covering both operands and
                    // the result so amount saturation matches the 64-bit
                    // semantics.
                    BinOp::Shl | BinOp::LShr | BinOp::AShr => {
                        let w = wm.max(aw).max(bw);
                        let x = bd.fit(x, aw);
                        let x = if op == BinOp::AShr {
                            bd.ext(x, w, true)
                        } else {
                            bd.fit(x, w)
                        };
                        let y = bd.fit(y, w);
                        let r = bd.binary(op, x, y);
                        bd.fit(r, wm)
                    }
                    BinOp::Eq | BinOp::Ne | BinOp::ULt | BinOp::ULe => {
                        let w = aw.max(bw);
                        let x = bd.fit(x, w);
                        let y = bd.fit(y, w);
                        bd.binary(op, x, y)
                    }
                    BinOp::SLt | BinOp::SLe | BinOp::SGt | BinOp::SGe => {
                        let w = aw.max(bw);
                        let x = bd.fit(x, aw);
                        let x = bd.ext(x, w, true);
                        let y = bd.fit(y, bw);
                        let y = bd.ext(y, w, true);
                        // a > b == b < a; a >= b == b <= a.
                        match op {
                            BinOp::SGt => bd.binary(BinOp::SLt, y, x),
                            BinOp::SGe => bd.binary(BinOp::SLe, y, x),
                            _ => bd.binary(op, x, y),
                        }
                    }
                }
            }
            Op2::ConcatPush { shift, m } => {
                let part = bd.fit(y, mask_width(m));
                let part = bd.fit(part, shift.max(1));
                let xw = bd.width(x);
                if shift == 0 {
                    x
                } else if xw + shift > 64 {
                    self.fail(format!("concat wider than 64 bits ({xw} + {shift})"));
                    return;
                } else {
                    bd.push(Node::Concat {
                        hi: x,
                        lo: part,
                        width: xw + shift,
                    })
                }
            }
        };
        self.set(dst, n);
    }

    fn op3(&mut self, _: &mut NoObs, _: usize, dst: u32, a: u32, b: u32, c: u32, op: Op3) {
        let Op3::Select { m } = op;
        let wm = mask_width(m);
        let cond = self.reg(a);
        let cond = self.b.redor(cond);
        let t = self.reg(b);
        let t = self.b.fit(t, wm);
        let e = self.reg(c);
        let e = self.b.fit(e, wm);
        let n = self.b.ite(cond, t, e);
        self.set(dst, n);
    }

    fn store_net(&mut self, _: &mut NoObs, pc: usize, net: u32, src: u32, m: u64) {
        if self.in_step {
            return self.fail(format!("blocking net store in step tape at pc {pc}"));
        }
        let v = self.reg(src);
        let v = self.b.fit(v, mask_width(m));
        let v = self.b.fit(v, self.view.net_width[net as usize].max(1));
        self.net_node[net as usize] = Some(v);
    }

    fn emit_net(&mut self, _: &mut NoObs, pc: usize, net: u32, src: u32, _m: u64) {
        if self.sequential(pc) {
            let guard = self.guard();
            let v = self.reg(src);
            self.pend_nets.push((net, guard, v));
        }
    }

    fn emit_mem(&mut self, _: &mut NoObs, pc: usize, mem: u32, addr: u32, src: u32, _m: u64) {
        if self.sequential(pc) {
            let guard = self.guard();
            let a = self.reg(addr);
            let v = self.reg(src);
            self.pend_mems.push((mem, guard, a, v));
        }
    }

    fn assert(&mut self, pc: usize, guard: u32, cond: u32, msg: u32) {
        if !self.sequential(pc) {
            return;
        }
        let region = self.guard();
        let g = self.reg(guard);
        let g = self.b.redor(g);
        let c = self.reg(cond);
        let c = self.b.redor(c);
        let nc = self.b.not(c);
        let mut fail = self.b.and1(g, nc);
        if let Some(r) = region {
            fail = self.b.and1(r, fail);
        }
        self.bads.push((self.view.msgs[msg as usize].clone(), fail));
    }

    /// The then branch's terminator: the innermost region must end right
    /// after it. Flip the region to cover the else branch and fall through.
    fn jump(&mut self, pc: usize, target: u32) -> usize {
        if self.sequential(pc) {
            match self.open.last_mut() {
                Some(r) if r.1 && r.2 as usize == pc + 1 => *r = (r.0, false, target),
                _ => self.fail(format!("unstructured jump at step pc {pc}")),
            }
        }
        pc + 1
    }

    /// Open an `if` region on `src` and fall into its then branch.
    fn jump_if_zero(&mut self, pc: usize, src: u32, target: u32) -> bool {
        if self.sequential(pc) {
            let c = self.reg(src);
            let cond = self.b.redor(c);
            self.open.push((cond, true, target));
        }
        false
    }

    fn idle(&self) -> bool {
        self.err.is_some()
    }

    fn resume(&mut self) -> Option<usize> {
        None
    }
}

// ---------------------------------------------------------- BTOR2 export

/// Replace characters BTOR2 symbols cannot carry (whitespace) and keep the
/// output printable.
fn symbol(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_graphic() { c } else { '_' })
        .collect()
}

/// The BTOR2 keyword of a word operator.
fn btor2_op(op: BinOp) -> &'static str {
    match op {
        BinOp::Add => "add",
        BinOp::Sub => "sub",
        BinOp::Mul => "mul",
        BinOp::And => "and",
        BinOp::Or => "or",
        BinOp::Xor => "xor",
        BinOp::Shl => "sll",
        BinOp::LShr => "srl",
        BinOp::AShr => "sra",
        BinOp::Eq => "eq",
        BinOp::Ne => "neq",
        BinOp::ULt => "ult",
        BinOp::ULe => "ulte",
        BinOp::SLt => "slt",
        BinOp::SLe => "slte",
        BinOp::SGt => "sgt",
        BinOp::SGe => "sgte",
    }
}

/// Print the transition system in textual BTOR2 format. Deterministic:
/// byte-identical output for identical systems.
pub fn to_btor2(ts: &TransitionSystem) -> String {
    let mut out = String::with_capacity(ts.nodes.len() * 24);
    let mut next_id: u32 = 1;
    let mut sorts: HashMap<u32, u32> = HashMap::new();
    let mut node_id: Vec<u32> = vec![0; ts.nodes.len()];
    let mut emit = |out: &mut String, s: String| -> u32 {
        let id = next_id;
        next_id += 1;
        out.push_str(&format!("{id} {s}\n"));
        id
    };

    for (i, n) in ts.nodes.iter().enumerate() {
        let w = n.width();
        let s = {
            if let Some(&s) = sorts.get(&w) {
                s
            } else {
                let id = emit(&mut out, format!("sort bitvec {w}"));
                sorts.insert(w, id);
                id
            }
        };
        let line = match n {
            Node::Const { value, .. } => format!("constd {s} {value}"),
            Node::Input { index, .. } => {
                format!("input {s} {}", symbol(&ts.inputs[*index as usize].name))
            }
            Node::State { index, .. } => {
                format!("state {s} {}", symbol(&ts.states[*index as usize].name))
            }
            Node::Not { a, .. } => format!("not {s} {}", node_id[*a as usize]),
            Node::RedOr { a } => format!("redor {s} {}", node_id[*a as usize]),
            Node::Binary { op, a, b, .. } => format!(
                "{} {s} {} {}",
                btor2_op(*op),
                node_id[*a as usize],
                node_id[*b as usize]
            ),
            Node::Ite { cond, t, e, .. } => format!(
                "ite {s} {} {} {}",
                node_id[*cond as usize], node_id[*t as usize], node_id[*e as usize]
            ),
            Node::Slice { a, hi, lo } => {
                format!("slice {s} {} {hi} {lo}", node_id[*a as usize])
            }
            Node::Ext { a, width, signed } => {
                let n = width - ts.nodes[*a as usize].width();
                let kw = if *signed { "sext" } else { "uext" };
                format!("{kw} {s} {} {n}", node_id[*a as usize])
            }
            Node::Concat { hi, lo, .. } => format!(
                "concat {s} {} {}",
                node_id[*hi as usize], node_id[*lo as usize]
            ),
        };
        node_id[i] = emit(&mut out, line);
    }

    // init / next per state, then properties and outputs.
    for st in &ts.states {
        let w = st.width;
        let s = *sorts.get(&w).expect("state sort emitted with its node");
        let cid = {
            // Reuse an existing constant node when the DAG has one.
            let key = Node::Const {
                value: st.init & mask(w),
                width: w,
            };
            match ts.nodes.iter().position(|n| *n == key) {
                Some(i) => node_id[i],
                None => emit(&mut out, format!("constd {s} {}", st.init & mask(w))),
            }
        };
        let state_btor = node_id[st.node as usize];
        emit(&mut out, format!("init {s} {state_btor} {cid}"));
        emit(
            &mut out,
            format!("next {s} {state_btor} {}", node_id[st.next as usize]),
        );
    }
    for (name, n) in &ts.bads {
        emit(
            &mut out,
            format!("bad {} {}", node_id[*n as usize], symbol(name)),
        );
    }
    for (name, n) in &ts.outputs {
        emit(
            &mut out,
            format!("output {} {}", node_id[*n as usize], symbol(name)),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Expr, Stmt, VModule};

    /// An 8-bit wrap-around counter with an enable input and a rollover
    /// flag: one state, one input.
    fn counter_design() -> Design {
        let mut m = VModule::new("counter8");
        m.port("clk", Dir::Input, 1);
        m.port("en", Dir::Input, 1);
        m.port("count", Dir::Output, 8);
        m.port("wrapped", Dir::Output, 1);
        m.reg("cnt", 8);
        m.assign("count", Expr::r("cnt"));
        m.assign(
            "wrapped",
            Expr::bin(BinOp::Eq, Expr::r("cnt"), Expr::c(0xFF, 8)),
        );
        m.main_always().stmts.push(Stmt::If {
            cond: Expr::r("en"),
            then: vec![Stmt::NonBlocking {
                lhs: crate::ast::LValue::Net("cnt".into()),
                rhs: Expr::bin(BinOp::Add, Expr::r("cnt"), Expr::c(1, 8)),
            }],
            els: vec![],
        });
        let mut d = Design::new();
        d.add(m);
        d
    }

    #[test]
    fn counter_lowering_matches_simulator() {
        let d = counter_design();
        let ts = lower(&d, "counter8").expect("lower");
        let mut sim = Simulator::new(&d, "counter8").expect("sim");

        let en_index = ts
            .inputs
            .iter()
            .position(|i| i.name == "en")
            .expect("en input");
        let mut inputs = vec![0u64; ts.inputs.len()];
        let mut state = ts.initial_state();
        for cycle in 0..300u64 {
            let en = u64::from(cycle % 3 != 0);
            inputs[en_index] = en;
            sim.set("en", en);
            let vals = ts.eval_nodes(&state, &inputs);
            let count = ts.nets["count"];
            let wrapped = ts.nets["wrapped"];
            assert_eq!(vals[count as usize], sim.get("count"), "cycle {cycle}");
            assert_eq!(vals[wrapped as usize], sim.get("wrapped"), "cycle {cycle}");
            state = ts.next_state(&vals);
            sim.step().expect("step");
        }
    }

    #[test]
    fn btor2_export_is_deterministic_and_structured() {
        let d = counter_design();
        let a = to_btor2(&lower(&d, "counter8").expect("lower"));
        let b = to_btor2(&lower(&d, "counter8").expect("lower"));
        assert_eq!(a, b, "export must be byte-identical across runs");
        assert!(a.contains("sort bitvec 8"), "{a}");
        assert!(a.contains(" state "), "{a}");
        assert!(a.contains(" next "), "{a}");
        assert!(a.contains(" input "), "{a}");
        // Every line is "<id> <op> ...." with strictly increasing ids.
        let mut last = 0u32;
        for line in a.lines() {
            let id: u32 = line
                .split_whitespace()
                .next()
                .and_then(|t| t.parse().ok())
                .unwrap_or_else(|| panic!("bad line: {line}"));
            assert!(id > last, "ids must increase: {line}");
            last = id;
        }
    }

    /// Memory writes/reads and if/else regions survive the round trip
    /// through tape reconstruction.
    #[test]
    fn memory_design_matches_simulator() {
        let mut m = VModule::new("memdut");
        m.port("clk", Dir::Input, 1);
        m.port("we", Dir::Input, 1);
        m.port("waddr", Dir::Input, 3);
        m.port("raddr", Dir::Input, 3);
        m.port("wdata", Dir::Input, 16);
        m.port("rdata", Dir::Output, 16);
        m.memory("scratch", 16, 6, None);
        m.reg("acc", 16);
        let read = Expr::MemRead {
            mem: "scratch".into(),
            addr: Box::new(Expr::r("raddr")),
        };
        m.assign("rdata", read.clone());
        m.main_always().stmts.push(Stmt::If {
            cond: Expr::r("we"),
            then: vec![Stmt::NonBlocking {
                lhs: crate::ast::LValue::MemElem {
                    mem: "scratch".into(),
                    addr: Expr::r("waddr"),
                },
                rhs: Expr::r("wdata"),
            }],
            els: vec![Stmt::NonBlocking {
                lhs: crate::ast::LValue::Net("acc".into()),
                rhs: Expr::bin(BinOp::Add, Expr::r("acc"), read),
            }],
        });
        let mut d = Design::new();
        d.add(m);

        let ts = lower(&d, "memdut").expect("lower");
        let mut sim = Simulator::new(&d, "memdut").expect("sim");
        let idx: HashMap<&str, usize> = ts
            .inputs
            .iter()
            .enumerate()
            .map(|(i, v)| (v.name.as_str(), i))
            .collect();
        let mut inputs = vec![0u64; ts.inputs.len()];
        let mut state = ts.initial_state();
        // A little deterministic driver that writes, reads back (including
        // the out-of-range addresses 6 and 7) and accumulates.
        for cycle in 0..200u64 {
            let stim = [
                ("we", cycle % 2),
                ("waddr", cycle % 8),
                ("raddr", (cycle / 2) % 8),
                ("wdata", (cycle * 37) % 65536),
            ];
            for (name, v) in stim {
                inputs[idx[name]] = v;
                sim.set(name, v);
            }
            let vals = ts.eval_nodes(&state, &inputs);
            assert_eq!(
                vals[ts.nets["rdata"] as usize],
                sim.get("rdata"),
                "cycle {cycle}"
            );
            state = ts.next_state(&vals);
            sim.step().expect("step");
        }
        // Final state agrees word for word.
        for (si, st) in ts.states.iter().enumerate() {
            if let Some(word) = st.name.strip_prefix("scratch[") {
                let wi: u64 = word.trim_end_matches(']').parse().unwrap();
                assert_eq!(state[si], sim.read_mem("scratch", wi), "{}", st.name);
            }
        }
    }

    /// Input-name to input-index map, for driving `eval_nodes`.
    fn input_index(ts: &TransitionSystem) -> HashMap<&str, usize> {
        (ts.inputs.iter().enumerate())
            .map(|(i, v)| (v.name.as_str(), i))
            .collect()
    }

    /// Signed comparisons at 64 bits read the sign bit: a symbolic `x < 0`
    /// and the constant-folded `$signed(-1) < 0` both agree with the
    /// simulator at `x = -1`.
    #[test]
    fn signed_compare_at_64_bits_matches_simulator() {
        let mut m = VModule::new("slt64");
        m.port("clk", Dir::Input, 1);
        m.port("x", Dir::Input, 64);
        m.port("neg", Dir::Output, 1);
        m.port("k", Dir::Output, 1);
        m.assign("neg", Expr::bin(BinOp::SLt, Expr::r("x"), Expr::c(0, 64)));
        m.assign(
            "k",
            Expr::bin(BinOp::SLt, Expr::c(u64::MAX, 64), Expr::c(0, 64)),
        );
        let mut d = Design::new();
        d.add(m);

        let ts = lower(&d, "slt64").expect("lower");
        let mut sim = Simulator::new(&d, "slt64").expect("sim");
        let mut inputs = vec![0u64; ts.inputs.len()];
        inputs[input_index(&ts)["x"]] = u64::MAX;
        sim.set("x", u64::MAX);
        let vals = ts.eval_nodes(&ts.initial_state(), &inputs);
        for out in ["neg", "k"] {
            assert_eq!(sim.get(out), 1, "{out}");
            assert_eq!(vals[ts.nets[out] as usize], 1, "{out}");
        }
        let btor = to_btor2(&ts);
        assert!(btor.starts_with("1 sort bitvec 1\n"), "{btor}");
        assert!(!btor.contains("constd 1 0"), "{btor}");
    }

    /// The simulator's coverage fixture holds every tape instruction
    /// variant. Its lowering pins the BTOR2 golden and tracks the bytecode
    /// simulator over 2,000 seeded cycles: every output each cycle, the
    /// assertion never firing, and every memory word at the end.
    #[test]
    fn every_insn_variant_lowers_to_match_the_simulator() {
        use rand::{rngs::StdRng, RngCore, SeedableRng};

        let d = crate::sim::tests::mx_design();
        let ts = lower(&d, "mx").expect("lower");
        assert_eq!(
            to_btor2(&ts),
            include_str!("../tests/golden/mx.btor2"),
            "BTOR2 drifted from tests/golden/mx.btor2"
        );
        assert_eq!(ts.bads.len(), 1);
        let mut sim = Simulator::new(&d, "mx").expect("sim");
        let idx = input_index(&ts);
        let mut rng = StdRng::seed_from_u64(20260806);
        let mut inputs = vec![0u64; ts.inputs.len()];
        let mut state = ts.initial_state();
        for cycle in 0..2000 {
            for (name, width) in [("we", 1), ("waddr", 4), ("wdata", 16), ("raddr", 4)] {
                let v = rng.next_u64() & mask(width);
                inputs[idx[name]] = v;
                sim.set(name, v);
            }
            let vals = ts.eval_nodes(&state, &inputs);
            for out in ["rdata", "sum", "flags", "peek"] {
                let got = vals[ts.nets[out] as usize];
                assert_eq!(got, sim.get(out), "{out} at cycle {cycle}");
            }
            assert_eq!(vals[ts.bads[0].1 as usize], 0, "cycle {cycle}");
            state = ts.next_state(&vals);
            sim.step().expect("step");
        }
        let mut words = 0;
        for (si, st) in ts.states.iter().enumerate() {
            if let Some((mem, word)) = st.name.strip_suffix(']').and_then(|n| n.split_once('[')) {
                let addr = word.parse().unwrap();
                assert_eq!(state[si], sim.read_mem(mem, addr), "{}", st.name);
                words += 1;
            }
        }
        assert_eq!(words, 16 + 12, "every ram and rom word is a state");
    }
}
