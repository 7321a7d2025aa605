//! Word-level transition systems lowered from the simulator's bytecode tapes.
//!
//! The settle/step tapes (see [`crate::sim`]) are a linearized form of the
//! design's combinational and sequential behavior: the settle tape is a
//! topologically ordered sweep of continuous assigns, the step tape the
//! single-clock always blocks with structured `if` regions encoded as
//! `JumpIfZero`/`Jump` pairs. This module reconstructs a cycle-free
//! word-level transition system from those tapes:
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

use crate::ast::{BinOp, Design, Dir};
use crate::elaborate::flatten;
use crate::sim::{self, BuildError, Simulator};
use std::collections::{BTreeMap, HashMap};

/// Index of a node in [`TransitionSystem::nodes`]. Nodes are hash-consed and
/// topologically ordered: a node's operands always have smaller indices.
pub type NodeId = u32;

/// Word-level operators. All operands of a `Binary` node have the node's
/// width, except comparisons whose operands share a width and whose result
/// is 1 bit. Shift amounts are full operand values: `Sll`/`Srl` produce 0
/// and `Sra` produces all-sign once the amount reaches the width (matching
/// both BTOR2 and the simulator's `eval_binary`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TOp {
    Add,
    Sub,
    Mul,
    And,
    Or,
    Xor,
    Sll,
    Srl,
    Sra,
    Eq,
    Ne,
    Ult,
    Ule,
    Slt,
    Sle,
}

impl TOp {
    fn is_comparison(self) -> bool {
        matches!(
            self,
            TOp::Eq | TOp::Ne | TOp::Ult | TOp::Ule | TOp::Slt | TOp::Sle
        )
    }

    /// The BTOR2 keyword.
    fn btor2(self) -> &'static str {
        match self {
            TOp::Add => "add",
            TOp::Sub => "sub",
            TOp::Mul => "mul",
            TOp::And => "and",
            TOp::Or => "or",
            TOp::Xor => "xor",
            TOp::Sll => "sll",
            TOp::Srl => "srl",
            TOp::Sra => "sra",
            TOp::Eq => "eq",
            TOp::Ne => "neq",
            TOp::Ult => "ult",
            TOp::Ule => "ulte",
            TOp::Slt => "slt",
            TOp::Sle => "slte",
        }
    }
}

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
    Binary {
        op: TOp,
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
    /// The width of a node's value in bits.
    pub fn width(&self, id: NodeId) -> u32 {
        match &self.nodes[id as usize] {
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

    /// Evaluate every node for one cycle. `state` holds the current value of
    /// each state variable (in order), `inputs` the value of each input; the
    /// returned vector is indexed by [`NodeId`]. This is the lowering's
    /// executable semantics — the reference the bit-blaster and the BTOR2
    /// printer must both agree with.
    pub fn eval_nodes(&self, state: &[u64], inputs: &[u64]) -> Vec<u64> {
        let mut vals = vec![0u64; self.nodes.len()];
        for (i, n) in self.nodes.iter().enumerate() {
            vals[i] = match n {
                Node::Const { value, .. } => *value,
                Node::Input { index, width } => inputs[*index as usize] & sim::mask(*width),
                Node::State { index, width } => state[*index as usize] & sim::mask(*width),
                Node::Not { a, width } => !vals[*a as usize] & sim::mask(*width),
                Node::RedOr { a } => u64::from(vals[*a as usize] != 0),
                Node::Binary { op, a, b, width } => {
                    let aw = self.width(*a);
                    fold_binary(*op, vals[*a as usize], vals[*b as usize], aw, *width)
                }
                Node::Ite { cond, t, e, .. } => {
                    if vals[*cond as usize] != 0 {
                        vals[*t as usize]
                    } else {
                        vals[*e as usize]
                    }
                }
                Node::Slice { a, hi, lo } => (vals[*a as usize] >> lo) & sim::mask(hi - lo + 1),
                Node::Ext { a, width, signed } => {
                    let aw = self.width(*a);
                    let v = vals[*a as usize];
                    if *signed && aw < 64 && v & (1 << (aw - 1)) != 0 {
                        (v | !sim::mask(aw)) & sim::mask(*width)
                    } else {
                        v
                    }
                }
                Node::Concat { hi, lo, .. } => {
                    let lw = self.width(*lo);
                    (vals[*hi as usize] << lw) | vals[*lo as usize]
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

/// Evaluate a binary word operator; `aw` is the operand width (used by
/// comparisons, where the result is 1 bit of width `w`), `w` the result
/// width. Shared by constant folding and [`TransitionSystem::eval_nodes`].
fn fold_binary(op: TOp, a: u64, b: u64, aw: u32, w: u32) -> u64 {
    let m = sim::mask(w);
    let se = |v: u64| -> i128 {
        if aw < 64 && v & (1 << (aw - 1)) != 0 {
            v as i128 - (1i128 << aw)
        } else {
            v as i128
        }
    };
    match op {
        TOp::Add => a.wrapping_add(b) & m,
        TOp::Sub => a.wrapping_sub(b) & m,
        TOp::Mul => a.wrapping_mul(b) & m,
        TOp::And => a & b,
        TOp::Or => a | b,
        TOp::Xor => a ^ b,
        TOp::Sll => {
            if b >= u64::from(w) {
                0
            } else {
                (a << b) & m
            }
        }
        TOp::Srl => {
            if b >= u64::from(w) {
                0
            } else {
                a >> b
            }
        }
        TOp::Sra => {
            let sign = w < 64 && a & (1 << (w - 1)) != 0 || w == 64 && a & (1 << 63) != 0;
            if b >= u64::from(w) {
                if sign {
                    m
                } else {
                    0
                }
            } else {
                let filled = if sign { a | !m } else { a };
                (((filled as i64) >> b) as u64) & m
            }
        }
        TOp::Eq => u64::from(a == b),
        TOp::Ne => u64::from(a != b),
        TOp::Ult => u64::from(a < b),
        TOp::Ule => u64::from(a <= b),
        TOp::Slt => u64::from(se(a) < se(b)),
        TOp::Sle => u64::from(se(a) <= se(b)),
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
        match &self.nodes[id as usize] {
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

    fn const_value(&self, id: NodeId) -> Option<u64> {
        match self.nodes[id as usize] {
            Node::Const { value, .. } => Some(value),
            _ => None,
        }
    }

    fn konst(&mut self, value: u64, width: u32) -> NodeId {
        debug_assert!((1..=64).contains(&width));
        self.push(Node::Const {
            value: value & sim::mask(width),
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

    fn binary(&mut self, op: TOp, a: NodeId, b: NodeId) -> NodeId {
        let aw = self.width(a);
        debug_assert_eq!(aw, self.width(b), "binary operand widths must match");
        let w = if op.is_comparison() { 1 } else { aw };
        if let (Some(av), Some(bv)) = (self.const_value(a), self.const_value(b)) {
            return self.konst(fold_binary(op, av, bv, aw, w), w);
        }
        // Cheap neutral-element folds keep guard chains readable.
        match op {
            TOp::And => {
                if self.const_value(a) == Some(sim::mask(aw)) {
                    return b;
                }
                if self.const_value(b) == Some(sim::mask(aw)) {
                    return a;
                }
                if self.const_value(a) == Some(0) || self.const_value(b) == Some(0) {
                    return self.konst(0, w);
                }
                if a == b {
                    return a;
                }
            }
            TOp::Or => {
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
            let filled = if signed && v & (1 << (aw - 1)) != 0 {
                v | !sim::mask(aw)
            } else {
                v
            };
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
        self.binary(TOp::And, a, b)
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
    let simulator = Simulator::new(design, top)?;
    let flat = flatten(design, top)?;
    Lowering::new(&simulator, &flat.ports).run()
}

/// Per-memory word-state bookkeeping.
struct MemWords {
    /// State index of each word.
    state_index: Vec<u32>,
    width: u32,
}

struct Lowering<'a> {
    view: sim::TapeView<'a>,
    b: Builder,
    inputs: Vec<InputVar>,
    states: Vec<StateVar>,
    bads: Vec<(String, NodeId)>,
    /// Settled value node per net (filled for combinational nets during the
    /// settle sweep).
    net_node: Vec<Option<NodeId>>,
    /// State index of each register net (`None` for non-state nets).
    net_state: Vec<Option<u32>>,
    mems: Vec<MemWords>,
    /// Symbolic register file of the tape walk.
    regs: HashMap<u32, NodeId>,
    ports: &'a [crate::ast::PortDecl],
}

/// An open structured-`if` region during the step-tape walk.
struct Region {
    cond: NodeId,
    sense: bool,
    /// Tape pc one past the region's last insn.
    end: u32,
}

impl<'a> Lowering<'a> {
    fn new(simulator: &'a Simulator, ports: &'a [crate::ast::PortDecl]) -> Self {
        Lowering {
            view: simulator.tape_view(),
            b: Builder::default(),
            inputs: Vec::new(),
            states: Vec::new(),
            bads: Vec::new(),
            net_node: Vec::new(),
            net_state: Vec::new(),
            mems: Vec::new(),
            regs: HashMap::new(),
            ports,
        }
    }

    fn unsupported(what: impl Into<String>) -> BuildError {
        BuildError::Unsupported(what.into())
    }

    fn run(mut self) -> Result<TransitionSystem, BuildError> {
        use sim::Insn;
        let nets = self.view.net_names.len();
        self.net_node = vec![None; nets];
        self.net_state = vec![None; nets];

        // Classify nets: non-blocking targets are states, assign targets are
        // combinational, input ports are free, the rest are constants.
        let mut emitted = vec![false; nets];
        let mut stored = vec![false; nets];
        for insn in self.view.step_tape {
            if let Insn::EmitNet { net, .. } = insn {
                emitted[*net as usize] = true;
            }
        }
        for insn in self.view.settle_tape {
            if let Insn::StoreNet { net, .. } = insn {
                stored[*net as usize] = true;
            }
        }
        let input_ports: HashMap<&str, u32> = self
            .ports
            .iter()
            .filter(|p| p.dir == Dir::Input)
            .map(|p| (p.name.as_str(), p.width))
            .collect();

        for i in 0..nets {
            let name = &self.view.net_names[i];
            let width = self.view.net_width[i].max(1);
            let is_input = input_ports.contains_key(name.as_str());
            match (is_input, emitted[i], stored[i]) {
                (true, false, false) => {
                    let index = self.inputs.len() as u32;
                    let node = self.b.push(Node::Input { index, width });
                    self.inputs.push(InputVar {
                        name: name.clone(),
                        width,
                        init: self.view.values[i],
                        node,
                    });
                    self.net_node[i] = Some(node);
                }
                (false, true, false) => {
                    let index = self.states.len() as u32;
                    let node = self.b.push(Node::State { index, width });
                    self.states.push(StateVar {
                        name: name.clone(),
                        width,
                        init: self.view.values[i],
                        next: node, // overwritten after the step walk
                        node,
                    });
                    self.net_state[i] = Some(index);
                    self.net_node[i] = Some(node);
                }
                (false, false, true) => {} // filled by the settle sweep
                (false, false, false) => {
                    self.net_node[i] = Some(self.b.konst(self.view.values[i], width));
                }
                _ => {
                    return Err(Self::unsupported(format!(
                        "net '{name}' has conflicting drivers (input={is_input}, \
                         always={}, assign={})",
                        emitted[i], stored[i]
                    )))
                }
            }
        }

        // Memories: one state variable per word, reset to the simulator's
        // initial contents (zero).
        for (mi, words) in self.view.memories.iter().enumerate() {
            let width = self.view.mem_width[mi].max(1);
            let mut state_index = Vec::with_capacity(words.len());
            for (wi, &init) in words.iter().enumerate() {
                let index = self.states.len() as u32;
                let node = self.b.push(Node::State { index, width });
                self.states.push(StateVar {
                    name: format!("{}[{wi}]", self.view.mem_names[mi]),
                    width,
                    init,
                    next: node,
                    node,
                });
                state_index.push(index);
            }
            self.mems.push(MemWords { state_index, width });
        }

        // Settle sweep: symbolically execute the topologically ordered
        // assign tape, defining every combinational net.
        let settle_tape = self.view.settle_tape;
        for (pc, insn) in settle_tape.iter().enumerate() {
            match insn {
                Insn::StoreNet { net, src, m } => {
                    let v = self.reg(*src);
                    let v = self.b.fit(v, mask_width(*m));
                    let v = self.b.fit(v, self.view.net_width[*net as usize].max(1));
                    self.net_node[*net as usize] = Some(v);
                }
                Insn::EmitNet { .. }
                | Insn::EmitMem { .. }
                | Insn::Assert { .. }
                | Insn::Jump { .. }
                | Insn::JumpIfZero { .. } => {
                    return Err(Self::unsupported(format!(
                        "settle tape contains a sequential insn at pc {pc}"
                    )))
                }
                other => self.pure(other)?,
            }
        }

        // Step walk: reconstruct the structured if regions from the jump
        // pattern (`JumpIfZero cond, else; ...then...; Jump end; ...else...`)
        // and collect guarded pending updates in program order.
        let mut regions: Vec<Region> = Vec::new();
        let mut pend_nets: Vec<(u32, Option<NodeId>, NodeId)> = Vec::new();
        let mut pend_mems: Vec<(u32, Option<NodeId>, NodeId, NodeId)> = Vec::new();
        let step_tape = self.view.step_tape;
        for (pc, insn) in step_tape.iter().enumerate() {
            let pc = pc as u32;
            while regions.last().is_some_and(|r| r.end <= pc) {
                regions.pop();
            }
            match insn {
                Insn::JumpIfZero { src, target } => {
                    let c = self.reg(*src);
                    let cond = self.b.redor(c);
                    regions.push(Region {
                        cond,
                        sense: true,
                        end: *target,
                    });
                }
                Insn::Jump { target } => {
                    // Terminator of a then branch: the innermost region ends
                    // right here; its complement covers the else branch.
                    let Some(then_region) = regions.pop() else {
                        return Err(Self::unsupported(format!(
                            "unstructured jump at step pc {pc}"
                        )));
                    };
                    if then_region.end != pc + 1 || !then_region.sense {
                        return Err(Self::unsupported(format!(
                            "unstructured jump at step pc {pc}"
                        )));
                    }
                    regions.push(Region {
                        cond: then_region.cond,
                        sense: false,
                        end: *target,
                    });
                }
                Insn::EmitNet { net, src, .. } => {
                    let guard = self.guard(&regions);
                    let v = self.reg(*src);
                    pend_nets.push((*net, guard, v));
                }
                Insn::EmitMem { mem, addr, src, .. } => {
                    let guard = self.guard(&regions);
                    let a = self.reg(*addr);
                    let v = self.reg(*src);
                    pend_mems.push((*mem, guard, a, v));
                }
                Insn::Assert { guard, cond, msg } => {
                    let region = self.guard(&regions);
                    let g = self.reg(*guard);
                    let g = self.b.redor(g);
                    let c = self.reg(*cond);
                    let c = self.b.redor(c);
                    let nc = self.b.not(c);
                    let mut fail = self.b.and1(g, nc);
                    if let Some(r) = region {
                        fail = self.b.and1(r, fail);
                    }
                    self.bads
                        .push((self.view.msgs[*msg as usize].clone(), fail));
                }
                Insn::StoreNet { .. } => {
                    return Err(Self::unsupported(format!(
                        "blocking net store in step tape at pc {pc}"
                    )))
                }
                other => self.pure(other)?,
            }
        }

        // Fold the pending non-blocking net updates, in program order (the
        // simulator applies them sequentially, so a later write wins).
        for si in 0..self.states.len() {
            // Memory words are handled below; register nets first.
            let Some(net) = (0..nets).find(|&n| self.net_state[n] == Some(si as u32)) else {
                continue;
            };
            let width = self.states[si].width;
            let mut next = self.states[si].node;
            for &(pnet, guard, v) in &pend_nets {
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
        for mi in 0..self.mems.len() {
            let width = self.mems[mi].width;
            for wi in 0..self.mems[mi].state_index.len() {
                let si = self.mems[mi].state_index[wi] as usize;
                let mut next = self.states[si].node;
                for &(pmem, guard, addr, v) in &pend_mems {
                    if pmem as usize != mi {
                        continue;
                    }
                    let aw = self.b.width(addr);
                    if aw < 64 && (wi as u64) >= (1u64 << aw) {
                        continue; // word index not representable: never hit
                    }
                    let widx = self.b.konst(wi as u64, aw);
                    let mut sel = self.b.binary(TOp::Eq, addr, widx);
                    if let Some(g) = guard {
                        sel = self.b.and1(g, sel);
                    }
                    let v = self.b.fit(v, width);
                    next = self.b.ite(sel, v, next);
                }
                self.states[si].next = next;
            }
        }

        let mut nets_map = BTreeMap::new();
        for i in 0..nets {
            let node = self.net_node[i].ok_or_else(|| {
                Self::unsupported(format!(
                    "net '{}' has no settled definition",
                    self.view.net_names[i]
                ))
            })?;
            nets_map.insert(self.view.net_names[i].clone(), node);
        }
        let mut outputs = Vec::new();
        for p in self.ports.iter().filter(|p| p.dir == Dir::Output) {
            if let Some(&n) = nets_map.get(&p.name) {
                outputs.push((p.name.clone(), n));
            }
        }

        Ok(TransitionSystem {
            nodes: self.b.nodes,
            inputs: self.inputs,
            states: self.states,
            bads: self.bads,
            nets: nets_map,
            outputs,
        })
    }

    /// Conjunction of the open region guards (None when unconditional).
    fn guard(&mut self, regions: &[Region]) -> Option<NodeId> {
        let mut acc: Option<NodeId> = None;
        for r in regions {
            let lit = if r.sense { r.cond } else { self.b.not(r.cond) };
            acc = Some(match acc {
                Some(a) => self.b.and1(a, lit),
                None => lit,
            });
        }
        acc
    }

    /// Node for a tape register: defined earlier in the walk, or a constant
    /// preloaded at simulator build time.
    fn reg(&mut self, r: u32) -> NodeId {
        if let Some(&n) = self.regs.get(&r) {
            return n;
        }
        let n = self.b.konst(self.view.regs[r as usize], 64);
        self.regs.insert(r, n);
        n
    }

    /// Execute one pure (register-defining) insn symbolically.
    fn pure(&mut self, insn: &sim::Insn) -> Result<(), BuildError> {
        use sim::Insn;
        match *insn {
            Insn::LoadNet { dst, net } => {
                let n = self.net_node[net as usize].ok_or_else(|| {
                    Self::unsupported(format!(
                        "load of net '{}' before its definition",
                        self.view.net_names[net as usize]
                    ))
                })?;
                self.regs.insert(dst, n);
            }
            Insn::MemRead { dst, mem, addr, m } => {
                let a = self.reg(addr);
                let n = self.mem_read(mem as usize, a, m);
                self.regs.insert(dst, n);
            }
            Insn::Slice { dst, src, lo, m } => {
                let s = self.reg(src);
                let wm = mask_width(m);
                let sw = self.b.width(s);
                let n = if lo >= sw {
                    self.b.konst(0, wm)
                } else {
                    let hi = (lo + wm - 1).min(sw - 1);
                    let part = self.b.slice(s, hi, lo);
                    self.b.fit(part, wm)
                };
                self.regs.insert(dst, n);
            }
            Insn::Not { dst, src, m } => {
                let s = self.reg(src);
                let s = self.b.fit(s, mask_width(m));
                let n = self.b.not(s);
                self.regs.insert(dst, n);
            }
            Insn::LNot { dst, src } => {
                let s = self.reg(src);
                let r = self.b.redor(s);
                let n = self.b.not(r);
                self.regs.insert(dst, n);
            }
            Insn::RedOr { dst, src } => {
                let s = self.reg(src);
                let n = self.b.redor(s);
                self.regs.insert(dst, n);
            }
            Insn::Binary {
                op,
                dst,
                a,
                b,
                aw,
                bw,
                m,
            } => {
                let an = self.reg(a);
                let bn = self.reg(b);
                let n = self.lower_binary(op, an, bn, aw, bw, m);
                self.regs.insert(dst, n);
            }
            Insn::Select {
                dst,
                cond,
                then,
                els,
                m,
            } => {
                let c = self.reg(cond);
                let c = self.b.redor(c);
                let wm = mask_width(m);
                let t = self.reg(then);
                let t = self.b.fit(t, wm);
                let e = self.reg(els);
                let e = self.b.fit(e, wm);
                let n = self.b.ite(c, t, e);
                self.regs.insert(dst, n);
            }
            Insn::ConcatFirst { dst, src, m } => {
                let s = self.reg(src);
                let n = self.b.fit(s, mask_width(m));
                self.regs.insert(dst, n);
            }
            Insn::ConcatPush { dst, src, shift, m } => {
                let acc = self.reg(dst);
                let part = self.reg(src);
                let part = self.b.fit(part, mask_width(m));
                let part = self.b.fit(part, shift.max(1));
                let aw = self.b.width(acc);
                let n = if shift == 0 {
                    acc
                } else if aw + shift > 64 {
                    return Err(Self::unsupported(format!(
                        "concat wider than 64 bits ({} + {shift})",
                        aw
                    )));
                } else {
                    self.b.push(Node::Concat {
                        hi: acc,
                        lo: part,
                        width: aw + shift,
                    })
                };
                self.regs.insert(dst, n);
            }
            Insn::MaskReg { dst, m } => {
                let v = self.reg(dst);
                let n = self.b.fit(v, mask_width(m));
                self.regs.insert(dst, n);
            }
            Insn::SignExtend {
                dst,
                src,
                from,
                fm,
                m,
            } => {
                let s = self.reg(src);
                let s = self.b.fit(s, mask_width(fm));
                let s = self.b.fit(s, from.max(1));
                let wm = mask_width(m);
                let n = if wm <= from {
                    self.b.fit(s, wm)
                } else {
                    self.b.ext(s, wm, true)
                };
                self.regs.insert(dst, n);
            }
            _ => {
                return Err(Self::unsupported(format!(
                    "non-pure insn in expression position: {insn:?}"
                )))
            }
        }
        Ok(())
    }

    /// Bounded mux chain over the memory's word states; out-of-range
    /// addresses read 0, exactly like the simulator.
    fn mem_read(&mut self, mem: usize, addr: NodeId, m: u64) -> NodeId {
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
            let sel = self.b.binary(TOp::Eq, addr, widx);
            let word = self.states[self.mems[mem].state_index[wi as usize] as usize].node;
            val = self.b.ite(sel, word, val);
        }
        self.b.fit(val, mask_width(m))
    }

    /// Lower a tape binary op to width-normalized word nodes, preserving
    /// `eval_binary`'s exact semantics (`aw`/`bw` are the declared operand
    /// widths, `m` the result mask).
    fn lower_binary(
        &mut self,
        op: BinOp,
        a: NodeId,
        b: NodeId,
        aw: u32,
        bw: u32,
        m: u64,
    ) -> NodeId {
        let wm = mask_width(m);
        let aw = aw.max(1);
        let bw = bw.max(1);
        match op {
            // Modular arithmetic and bitwise ops only depend on the low
            // result-width bits of each operand.
            BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::And | BinOp::Or | BinOp::Xor => {
                let top = match op {
                    BinOp::Add => TOp::Add,
                    BinOp::Sub => TOp::Sub,
                    BinOp::Mul => TOp::Mul,
                    BinOp::And => TOp::And,
                    BinOp::Or => TOp::Or,
                    _ => TOp::Xor,
                };
                let x = self.b.fit(a, wm);
                let y = self.b.fit(b, wm);
                self.b.binary(top, x, y)
            }
            // Shifts: compute at a width covering both operands and the
            // result so amount saturation matches the 64-bit semantics.
            BinOp::Shl | BinOp::LShr | BinOp::AShr => {
                let w = wm.max(aw).max(bw);
                let x = self.b.fit(a, aw);
                let x = if op == BinOp::AShr {
                    self.b.ext(x, w, true)
                } else {
                    self.b.fit(x, w)
                };
                let y = self.b.fit(b, w);
                let top = match op {
                    BinOp::Shl => TOp::Sll,
                    BinOp::LShr => TOp::Srl,
                    _ => TOp::Sra,
                };
                let r = self.b.binary(top, x, y);
                self.b.fit(r, wm)
            }
            BinOp::Eq | BinOp::Ne | BinOp::ULt | BinOp::ULe => {
                let w = aw.max(bw);
                let x = self.b.fit(a, w);
                let y = self.b.fit(b, w);
                let top = match op {
                    BinOp::Eq => TOp::Eq,
                    BinOp::Ne => TOp::Ne,
                    BinOp::ULt => TOp::Ult,
                    _ => TOp::Ule,
                };
                self.b.binary(top, x, y)
            }
            BinOp::SLt | BinOp::SLe | BinOp::SGt | BinOp::SGe => {
                let w = aw.max(bw);
                let x = self.b.fit(a, aw);
                let x = self.b.ext(x, w, true);
                let y = self.b.fit(b, bw);
                let y = self.b.ext(y, w, true);
                // a > b == b < a; a >= b == b <= a.
                let (top, x, y) = match op {
                    BinOp::SLt => (TOp::Slt, x, y),
                    BinOp::SLe => (TOp::Sle, x, y),
                    BinOp::SGt => (TOp::Slt, y, x),
                    _ => (TOp::Sle, y, x),
                };
                self.b.binary(top, x, y)
            }
        }
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
        let w = ts.width(i as NodeId);
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
                op.btor2(),
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
                let n = width - ts.width(*a);
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
                value: st.init & sim::mask(w),
                width: w,
            };
            match ts.nodes.iter().position(|n| *n == key) {
                Some(i) => node_id[i],
                None => emit(&mut out, format!("constd {s} {}", st.init & sim::mask(w))),
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
}
