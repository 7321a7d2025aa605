//! A small CDCL SAT solver.
//!
//! Classic architecture — two watched literals, first-UIP conflict-clause
//! learning with activity-based branching (VSIDS-lite: additive bumps with
//! periodic rescale), phase saving, and Luby restarts — kept deliberately
//! compact: this solver exists to discharge the bounded equivalence queries
//! of [`crate::equiv`], offline, with no external dependencies.
//!
//! Solving is incremental: clauses may be added between [`Solver::solve`]
//! calls, and queries take assumption literals. Every query accepts a
//! conflict budget and an optional wall-clock deadline and returns
//! [`SatResult::Unknown`] when exceeded — budget exhaustion is a first-class
//! outcome the callers must surface, never an error.
//!
//! Storage is laid out for miters of millions of clauses:
//!
//! * **Order heap.** Decisions pop the unassigned variable with the highest
//!   activity, the lowest index winning ties, from a binary max-heap keyed
//!   on exactly that order. Bumps sift up, backtracking reinserts the
//!   variables it unassigns, and the rare 1e100 rescale re-heapifies. The
//!   pick is the one a linear scan over all variables would make (debug
//!   builds check that at every decision), so the search path — and every
//!   counter in the equivalence reports — is independent of the heap.
//! * **Literal pool.** Every clause is a `(start, len)` range of one flat
//!   literal vector, appended in clause order; learnt-clause reduction
//!   compacts the pool in place. No clause owns an allocation.

use std::time::Instant;

/// A literal: variable index shifted left once, low bit = negated.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Lit(pub u32);

impl Lit {
    pub fn pos(var: u32) -> Lit {
        Lit(var << 1)
    }

    pub fn neg(var: u32) -> Lit {
        Lit(var << 1 | 1)
    }

    pub fn var(self) -> u32 {
        self.0 >> 1
    }

    pub fn is_neg(self) -> bool {
        self.0 & 1 != 0
    }

    /// The complement literal.
    #[must_use]
    pub fn flip(self) -> Lit {
        Lit(self.0 ^ 1)
    }

    /// DIMACS integer form (1-based, negative when negated).
    pub fn dimacs(self) -> i64 {
        let v = i64::from(self.var()) + 1;
        if self.is_neg() {
            -v
        } else {
            v
        }
    }

    /// Parse DIMACS integer form.
    pub fn from_dimacs(n: i64) -> Option<Lit> {
        let v = u32::try_from(n.unsigned_abs().checked_sub(1)?).ok()?;
        Some(if n < 0 { Lit::neg(v) } else { Lit::pos(v) })
    }
}

impl std::fmt::Debug for Lit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.dimacs())
    }
}

/// Result of a query.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SatResult {
    Sat,
    Unsat,
    /// Budget (conflicts or wall clock) exhausted before an answer.
    Unknown,
}

/// Resource budget for one [`Solver::solve`] call.
#[derive(Clone, Copy, Debug)]
pub struct Budget {
    /// Maximum number of conflicts before giving up.
    pub max_conflicts: u64,
    /// Optional wall-clock deadline.
    pub deadline: Option<Instant>,
}

impl Budget {
    pub const UNLIMITED: Budget = Budget {
        max_conflicts: u64::MAX,
        deadline: None,
    };

    pub fn conflicts(n: u64) -> Budget {
        Budget {
            max_conflicts: n,
            deadline: None,
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Assign {
    Unset,
    True,
    False,
}

/// A clause: the range `start..start + len` of [`Solver::lits`].
struct Clause {
    start: u32,
    len: u32,
    learnt: bool,
    /// Move-to-front score for learnt-clause reduction.
    activity: f64,
}

impl Clause {
    fn range(&self) -> std::ops::Range<usize> {
        self.start as usize..self.start as usize + self.len as usize
    }
}

/// Watcher entry: clause index plus the blocking literal fast path.
#[derive(Clone, Copy)]
struct Watch {
    clause: u32,
    blocker: Lit,
}

/// Binary max-heap of variables ordered by activity, the lowest index first
/// among equal activities. Every comparison reads the activities passed in,
/// so the caller must re-establish the order ([`OrderHeap::increased`],
/// [`OrderHeap::rebuild`]) after changing them.
#[derive(Default)]
struct OrderHeap {
    heap: Vec<u32>,
    /// Position of each variable in `heap`, or `NOT_IN_HEAP`.
    pos: Vec<u32>,
}

const NOT_IN_HEAP: u32 = u32::MAX;

impl OrderHeap {
    /// Whether `a` is picked before `b`.
    fn before(act: &[f64], a: u32, b: u32) -> bool {
        let (x, y) = (act[a as usize], act[b as usize]);
        x > y || (x == y && a < b)
    }

    fn insert(&mut self, v: u32, act: &[f64]) {
        if self.pos.len() <= v as usize {
            self.pos.resize(v as usize + 1, NOT_IN_HEAP);
        }
        if self.pos[v as usize] == NOT_IN_HEAP {
            self.pos[v as usize] = self.heap.len() as u32;
            self.heap.push(v);
            self.sift_up(self.heap.len() - 1, act);
        }
    }

    /// Restore `v`'s position after its activity grew.
    fn increased(&mut self, v: u32, act: &[f64]) {
        let i = self.pos[v as usize];
        if i != NOT_IN_HEAP {
            self.sift_up(i as usize, act);
        }
    }

    /// Remove and return the first variable in order.
    fn pop(&mut self, act: &[f64]) -> Option<u32> {
        let top = *self.heap.first()?;
        let last = self.heap.pop().expect("non-empty heap");
        self.pos[top as usize] = NOT_IN_HEAP;
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.pos[last as usize] = 0;
            self.sift_down(0, act);
        }
        Some(top)
    }

    /// Re-heapify after activities changed in ways that may reorder them.
    fn rebuild(&mut self, act: &[f64]) {
        for i in (0..self.heap.len() / 2).rev() {
            self.sift_down(i, act);
        }
    }

    fn sift_up(&mut self, mut i: usize, act: &[f64]) {
        let v = self.heap[i];
        while i > 0 {
            let parent = (i - 1) / 2;
            let p = self.heap[parent];
            if !Self::before(act, v, p) {
                break;
            }
            self.heap[i] = p;
            self.pos[p as usize] = i as u32;
            i = parent;
        }
        self.heap[i] = v;
        self.pos[v as usize] = i as u32;
    }

    fn sift_down(&mut self, mut i: usize, act: &[f64]) {
        let v = self.heap[i];
        loop {
            let left = 2 * i + 1;
            if left >= self.heap.len() {
                break;
            }
            let right = left + 1;
            let child = if right < self.heap.len()
                && Self::before(act, self.heap[right], self.heap[left])
            {
                right
            } else {
                left
            };
            let c = self.heap[child];
            if !Self::before(act, c, v) {
                break;
            }
            self.heap[i] = c;
            self.pos[c as usize] = i as u32;
            i = child;
        }
        self.heap[i] = v;
        self.pos[v as usize] = i as u32;
    }
}

/// The solver.
pub struct Solver {
    num_vars: u32,
    clauses: Vec<Clause>,
    /// The literal pool every [`Clause`] indexes into, in clause order.
    lits: Vec<Lit>,
    /// Indexed by `Lit.0`: clauses watching that literal.
    watches: Vec<Vec<Watch>>,
    assigns: Vec<Assign>,
    /// Saved phase per variable.
    phase: Vec<bool>,
    /// Decision level per variable.
    level: Vec<u32>,
    /// Reason clause per variable (u32::MAX = decision/assumption).
    reason: Vec<u32>,
    trail: Vec<Lit>,
    /// Start of each decision level in `trail`.
    trail_lim: Vec<u32>,
    prop_head: usize,
    /// VSIDS activity per variable, plus the additive bump.
    activity: Vec<f64>,
    var_inc: f64,
    /// Decision candidates: every unassigned variable, plus assigned ones
    /// not yet popped.
    order: OrderHeap,
    /// Per-variable mark for [`Solver::analyze`]; all false between calls.
    seen: Vec<bool>,
    /// Empty clause added → permanently unsat.
    unsat: bool,
    /// Statistics over the solver's lifetime.
    pub conflicts: u64,
    pub decisions: u64,
    pub propagations: u64,
    pub restarts: u64,
    /// Length of every learnt clause (including unit learnts).
    pub learnt_len: obs::Histogram,
    /// Decision level at each decision (trail depth in levels).
    pub decision_depth: obs::Histogram,
}

const NO_REASON: u32 = u32::MAX;

impl Default for Solver {
    fn default() -> Self {
        Solver::new()
    }
}

impl Solver {
    pub fn new() -> Solver {
        Solver {
            num_vars: 0,
            clauses: Vec::new(),
            lits: Vec::new(),
            watches: Vec::new(),
            assigns: Vec::new(),
            phase: Vec::new(),
            level: Vec::new(),
            reason: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            prop_head: 0,
            activity: Vec::new(),
            var_inc: 1.0,
            order: OrderHeap::default(),
            seen: Vec::new(),
            unsat: false,
            conflicts: 0,
            decisions: 0,
            propagations: 0,
            restarts: 0,
            learnt_len: obs::Histogram::new(),
            decision_depth: obs::Histogram::new(),
        }
    }

    /// Allocate a fresh variable and return its index.
    pub fn new_var(&mut self) -> u32 {
        let v = self.num_vars;
        self.num_vars += 1;
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.assigns.push(Assign::Unset);
        self.phase.push(false);
        self.level.push(0);
        self.reason.push(NO_REASON);
        self.activity.push(0.0);
        self.seen.push(false);
        self.order.insert(v, &self.activity);
        v
    }

    pub fn num_vars(&self) -> u32 {
        self.num_vars
    }

    /// Total clauses in the database (problem + surviving learnts).
    pub fn num_clauses(&self) -> usize {
        self.clauses.len()
    }

    fn value(&self, l: Lit) -> Assign {
        match self.assigns[l.var() as usize] {
            Assign::Unset => Assign::Unset,
            Assign::True => {
                if l.is_neg() {
                    Assign::False
                } else {
                    Assign::True
                }
            }
            Assign::False => {
                if l.is_neg() {
                    Assign::True
                } else {
                    Assign::False
                }
            }
        }
    }

    /// Add a clause. Backtracks to the root level first, so any model from
    /// a previous [`Solver::solve`] call is invalidated. Returns `false`
    /// when the clause makes the instance unsat.
    pub fn add_clause(&mut self, lits: &[Lit]) -> bool {
        if !self.trail_lim.is_empty() {
            self.backtrack_to(0);
        }
        if self.unsat {
            return false;
        }
        // Simplify in place at the pool's tail: drop duplicate/false
        // literals, detect tautology.
        let start = self.lits.len();
        for &l in lits {
            debug_assert!(l.var() < self.num_vars, "literal for unallocated var");
            let redundant = match self.value(l) {
                Assign::True => true, // satisfied at level 0
                Assign::False => continue,
                Assign::Unset => self.lits[start..].contains(&l.flip()), // tautology
            };
            if redundant {
                self.lits.truncate(start);
                return true;
            }
            if !self.lits[start..].contains(&l) {
                self.lits.push(l);
            }
        }
        match self.lits.len() - start {
            0 => {
                self.unsat = true;
                false
            }
            1 => {
                let unit = self.lits.pop().expect("one simplified literal");
                self.enqueue(unit, NO_REASON);
                if self.propagate().is_some() {
                    self.unsat = true;
                    false
                } else {
                    true
                }
            }
            _ => {
                self.attach(start, false);
                true
            }
        }
    }

    /// Turn the pool's tail `lits[start..]` (at least two literals) into a
    /// clause and watch its first two literals.
    fn attach(&mut self, start: usize, learnt: bool) -> u32 {
        let idx = self.clauses.len() as u32;
        let (l0, l1) = (self.lits[start], self.lits[start + 1]);
        self.watches[l0.flip().0 as usize].push(Watch {
            clause: idx,
            blocker: l1,
        });
        self.watches[l1.flip().0 as usize].push(Watch {
            clause: idx,
            blocker: l0,
        });
        let end = u32::try_from(self.lits.len()).expect("literal pool exceeds u32 range");
        self.clauses.push(Clause {
            start: start as u32,
            len: end - start as u32,
            learnt,
            activity: 0.0,
        });
        idx
    }

    fn enqueue(&mut self, l: Lit, reason: u32) {
        debug_assert_eq!(self.value(l), Assign::Unset);
        let v = l.var() as usize;
        self.assigns[v] = if l.is_neg() {
            Assign::False
        } else {
            Assign::True
        };
        self.phase[v] = !l.is_neg();
        self.level[v] = self.trail_lim.len() as u32;
        self.reason[v] = reason;
        self.trail.push(l);
    }

    /// Unit propagation; returns the conflicting clause index if any.
    fn propagate(&mut self) -> Option<u32> {
        while self.prop_head < self.trail.len() {
            let l = self.trail[self.prop_head];
            self.prop_head += 1;
            self.propagations += 1;
            // All clauses watching ¬l (stored under l) must find new homes.
            let mut ws = std::mem::take(&mut self.watches[l.0 as usize]);
            let mut i = 0;
            while i < ws.len() {
                let w = ws[i];
                if self.value(w.blocker) == Assign::True {
                    i += 1;
                    continue;
                }
                let c = self.clauses[w.clause as usize].range();
                // Normalize: watched literal we're processing at slot 1.
                let false_lit = l.flip();
                if self.lits[c.start] == false_lit {
                    self.lits.swap(c.start, c.start + 1);
                }
                debug_assert_eq!(self.lits[c.start + 1], false_lit);
                let first = self.lits[c.start];
                if first != w.blocker && self.value(first) == Assign::True {
                    ws[i] = Watch {
                        clause: w.clause,
                        blocker: first,
                    };
                    i += 1;
                    continue;
                }
                // Look for a non-false literal to watch instead.
                let mut moved = false;
                for k in c.start + 2..c.end {
                    if self.value(self.lits[k]) != Assign::False {
                        self.lits.swap(c.start + 1, k);
                        let nw = self.lits[c.start + 1];
                        self.watches[nw.flip().0 as usize].push(Watch {
                            clause: w.clause,
                            blocker: first,
                        });
                        ws.swap_remove(i);
                        moved = true;
                        break;
                    }
                }
                if moved {
                    continue;
                }
                // Unit or conflicting.
                if self.value(first) == Assign::False {
                    self.watches[l.0 as usize] = ws;
                    // Re-append anything we haven't processed is not needed:
                    // ws still contains all remaining watches.
                    return Some(w.clause);
                }
                self.enqueue(first, w.clause);
                i += 1;
            }
            self.watches[l.0 as usize] = ws;
        }
        None
    }

    fn bump_var(&mut self, v: u32) {
        self.activity[v as usize] += self.var_inc;
        if self.activity[v as usize] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
            // Scaling keeps the order except where small activities collapse
            // onto the same value; the index tie-break then reorders them.
            self.order.rebuild(&self.activity);
        } else {
            self.order.increased(v, &self.activity);
        }
    }

    /// First-UIP learning. Returns (learnt clause, backtrack level); the
    /// asserting literal is first.
    fn analyze(&mut self, confl: u32) -> (Vec<Lit>, u32) {
        let mut learnt: Vec<Lit> = vec![Lit(0)]; // slot for the UIP
        let mut counter = 0u32;
        let mut confl = confl as usize;
        let mut trail_idx = self.trail.len();
        let cur_level = self.trail_lim.len() as u32;
        #[allow(unused_assignments)]
        let mut uip = Lit(0);
        loop {
            self.clauses[confl].activity += 1.0;
            for k in self.clauses[confl].range() {
                let q = self.lits[k];
                let v = q.var() as usize;
                if self.seen[v] || self.level[v] == 0 {
                    continue;
                }
                // Skip the literal currently being resolved (it is assigned
                // true; every other clause literal is false).
                if self.value(q) == Assign::True {
                    continue;
                }
                self.seen[v] = true;
                self.bump_var(q.var());
                if self.level[v] == cur_level {
                    counter += 1;
                } else {
                    learnt.push(q);
                }
            }
            // Pick the next current-level literal off the trail.
            loop {
                trail_idx -= 1;
                if self.seen[self.trail[trail_idx].var() as usize] {
                    break;
                }
            }
            uip = self.trail[trail_idx];
            self.seen[uip.var() as usize] = false;
            counter -= 1;
            if counter == 0 {
                break;
            }
            confl = self.reason[uip.var() as usize] as usize;
        }
        learnt[0] = uip.flip();
        // Every current-level mark was cleared as its literal was resolved;
        // the lower-level ones are exactly the learnt clause's tail.
        for l in &learnt[1..] {
            self.seen[l.var() as usize] = false;
        }
        // Backtrack level: highest level among the other literals.
        let bt = learnt[1..]
            .iter()
            .map(|l| self.level[l.var() as usize])
            .max()
            .unwrap_or(0);
        // Move a literal of the backtrack level into slot 1 so the watches
        // are on the two highest levels.
        if learnt.len() > 1 {
            let mut mi = 1;
            for k in 2..learnt.len() {
                if self.level[learnt[k].var() as usize] > self.level[learnt[mi].var() as usize] {
                    mi = k;
                }
            }
            learnt.swap(1, mi);
        }
        (learnt, bt)
    }

    fn backtrack_to(&mut self, level: u32) {
        while self.trail_lim.len() as u32 > level {
            let lim = self.trail_lim.pop().unwrap() as usize;
            for &l in &self.trail[lim..] {
                self.assigns[l.var() as usize] = Assign::Unset;
                self.reason[l.var() as usize] = NO_REASON;
                self.order.insert(l.var(), &self.activity);
            }
            self.trail.truncate(lim);
        }
        self.prop_head = self.prop_head.min(self.trail.len());
    }

    /// Drop the least active half of the learnt clauses. Rebuilds watches
    /// from scratch and forces full re-propagation of the trail, so it must
    /// only run at decision level 0 (we call it on restart).
    fn reduce_learnts(&mut self) {
        debug_assert!(self.trail_lim.is_empty());
        let mut learnt_idx: Vec<usize> = (0..self.clauses.len())
            .filter(|&i| self.clauses[i].learnt && self.clauses[i].len > 2)
            .collect();
        if learnt_idx.len() < 64 {
            return;
        }
        // Locked clauses (reason of a current assignment) must survive.
        let locked: std::collections::HashSet<u32> = self
            .trail
            .iter()
            .map(|l| self.reason[l.var() as usize])
            .filter(|&r| r != NO_REASON)
            .collect();
        learnt_idx.sort_by(|&a, &b| {
            self.clauses[a]
                .activity
                .partial_cmp(&self.clauses[b].activity)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let drop: std::collections::HashSet<usize> = learnt_idx[..learnt_idx.len() / 2]
            .iter()
            .copied()
            .filter(|&i| !locked.contains(&(i as u32)))
            .collect();
        if drop.is_empty() {
            return;
        }
        // Compact the clause database and the literal pool (clauses sit in
        // the pool in index order, so survivors only move down), and remap
        // indices.
        let mut remap = vec![NO_REASON; self.clauses.len()];
        let mut kept: Vec<Clause> = Vec::with_capacity(self.clauses.len() - drop.len());
        let mut tail = 0u32;
        for (i, mut c) in std::mem::take(&mut self.clauses).into_iter().enumerate() {
            if drop.contains(&i) {
                continue;
            }
            remap[i] = kept.len() as u32;
            self.lits.copy_within(c.range(), tail as usize);
            c.start = tail;
            tail += c.len;
            kept.push(c);
        }
        self.clauses = kept;
        self.lits.truncate(tail as usize);
        for r in &mut self.reason {
            if *r != NO_REASON {
                *r = remap[*r as usize];
                debug_assert_ne!(*r, NO_REASON, "dropped a locked clause");
            }
        }
        for w in &mut self.watches {
            w.clear();
        }
        for (i, c) in self.clauses.iter().enumerate() {
            let (l0, l1) = (self.lits[c.start as usize], self.lits[c.start as usize + 1]);
            self.watches[l0.flip().0 as usize].push(Watch {
                clause: i as u32,
                blocker: l1,
            });
            self.watches[l1.flip().0 as usize].push(Watch {
                clause: i as u32,
                blocker: l0,
            });
        }
        // The rebuilt watches may sit on literals that are already false;
        // re-propagating the whole trail restores the watch invariant.
        self.prop_head = 0;
    }

    /// Luby restart sequence (unit 256 conflicts).
    fn luby(i: u64) -> u64 {
        // Find the finite subsequence containing i and its position.
        let (mut k, mut size) = (1u64, 1u64);
        while size < i + 1 {
            k += 1;
            size = 2 * size + 1;
        }
        let mut i = i;
        while size - 1 != i {
            size = (size - 1) / 2;
            k -= 1;
            i %= size;
        }
        1u64 << (k - 1)
    }

    /// Decide: pick the unassigned variable with highest activity (lowest
    /// index on ties), assign its saved phase.
    fn decide(&mut self) -> bool {
        let best = loop {
            match self.order.pop(&self.activity) {
                Some(v) if self.assigns[v as usize] != Assign::Unset => {}
                other => break other,
            }
        };
        debug_assert_eq!(best, self.scan_best(), "order heap disagrees with scan");
        let Some(v) = best else {
            return false;
        };
        self.decisions += 1;
        self.decision_depth.record(self.trail_lim.len() as u64);
        self.trail_lim.push(self.trail.len() as u32);
        let l = if self.phase[v as usize] {
            Lit::pos(v)
        } else {
            Lit::neg(v)
        };
        self.enqueue(l, NO_REASON);
        true
    }

    /// The reference pick for [`Solver::decide`]: a linear scan for the
    /// unassigned variable of highest activity, the lowest index on ties.
    fn scan_best(&self) -> Option<u32> {
        let mut best: Option<u32> = None;
        for v in 0..self.num_vars {
            if self.assigns[v as usize] == Assign::Unset {
                match best {
                    Some(b) if self.activity[b as usize] >= self.activity[v as usize] => {}
                    _ => best = Some(v),
                }
            }
        }
        best
    }

    /// Solve under assumptions. The model (for Sat) is readable via
    /// [`Solver::model_value`] until the next call that modifies the solver.
    pub fn solve(&mut self, assumptions: &[Lit], budget: Budget) -> SatResult {
        if self.unsat {
            return SatResult::Unsat;
        }
        self.backtrack_to(0);
        if self.propagate().is_some() {
            self.unsat = true;
            return SatResult::Unsat;
        }

        let start_conflicts = self.conflicts;
        let mut restart_round = 0u64;
        let mut conflicts_this_round = 0u64;
        let mut restart_limit = Self::luby(0) * 256;

        'outer: loop {
            // An already-expired deadline must yield Unknown even for
            // queries that would never conflict (the in-conflict check
            // below only fires every 512 conflicts).
            if let Some(d) = budget.deadline {
                if Instant::now() >= d {
                    self.backtrack_to(0);
                    return SatResult::Unknown;
                }
            }
            // (Re-)apply assumptions above the root level.
            self.backtrack_to(0);
            for &a in assumptions {
                match self.value(a) {
                    Assign::True => continue,
                    Assign::False => return SatResult::Unsat,
                    Assign::Unset => {
                        self.trail_lim.push(self.trail.len() as u32);
                        self.enqueue(a, NO_REASON);
                        if self.propagate().is_some() {
                            return SatResult::Unsat;
                        }
                    }
                }
            }
            let assumption_level = self.trail_lim.len() as u32;

            loop {
                if let Some(confl) = self.propagate() {
                    self.conflicts += 1;
                    conflicts_this_round += 1;
                    if self.trail_lim.len() as u32 <= assumption_level {
                        // Conflict at (or below) the assumption level: the
                        // assumptions themselves are inconsistent.
                        return SatResult::Unsat;
                    }
                    let (learnt, bt) = self.analyze(confl);
                    self.learnt_len.record(learnt.len() as u64);
                    self.var_inc *= 1.0 / 0.95;
                    self.backtrack_to(bt.max(assumption_level));
                    if learnt.len() == 1 {
                        self.backtrack_to(assumption_level);
                        if self.value(learnt[0]) == Assign::False {
                            return SatResult::Unsat;
                        }
                        if self.value(learnt[0]) == Assign::Unset {
                            self.enqueue(learnt[0], NO_REASON);
                        }
                    } else {
                        let start = self.lits.len();
                        self.lits.extend_from_slice(&learnt);
                        let ci = self.attach(start, true);
                        if self.value(learnt[0]) == Assign::Unset {
                            self.enqueue(learnt[0], ci);
                        }
                    }
                    if self.conflicts - start_conflicts >= budget.max_conflicts {
                        self.backtrack_to(0);
                        return SatResult::Unknown;
                    }
                    if self.conflicts.is_multiple_of(512) {
                        if let Some(d) = budget.deadline {
                            if Instant::now() >= d {
                                self.backtrack_to(0);
                                return SatResult::Unknown;
                            }
                        }
                    }
                    if conflicts_this_round >= restart_limit {
                        self.restarts += 1;
                        restart_round += 1;
                        conflicts_this_round = 0;
                        restart_limit = Self::luby(restart_round) * 256;
                        self.backtrack_to(0);
                        self.reduce_learnts();
                        continue 'outer;
                    }
                } else if !self.decide() {
                    return SatResult::Sat;
                }
            }
        }
    }

    /// Value of a literal in the current model (valid after Sat).
    pub fn model_value(&self, l: Lit) -> bool {
        match self.value(l) {
            Assign::True => true,
            // Unconstrained variables default to false.
            Assign::False | Assign::Unset => false,
        }
    }

    // ----------------------------------------------------------- DIMACS

    /// Serialize the problem clauses (not learnt ones) as DIMACS CNF.
    pub fn to_dimacs(&self) -> String {
        let n = self
            .clauses
            .iter()
            .filter(|c| !c.learnt)
            .count()
            // Level-0 units live on the trail, not in the clause list.
            + self.trail_level0_len();
        let mut out = format!("p cnf {} {n}\n", self.num_vars);
        for i in 0..self.trail_level0_len() {
            out.push_str(&format!("{} 0\n", self.trail[i].dimacs()));
        }
        for c in self.clauses.iter().filter(|c| !c.learnt) {
            for &l in &self.lits[c.range()] {
                out.push_str(&format!("{} ", l.dimacs()));
            }
            out.push_str("0\n");
        }
        out
    }

    fn trail_level0_len(&self) -> usize {
        match self.trail_lim.first() {
            Some(&lim) => lim as usize,
            None => self.trail.len(),
        }
    }

    /// Parse DIMACS CNF into a fresh solver.
    ///
    /// # Errors
    /// Returns a description of the first malformed line.
    pub fn from_dimacs(text: &str) -> Result<Solver, String> {
        let mut solver = Solver::new();
        let mut declared_vars: Option<u32> = None;
        let mut clause: Vec<Lit> = Vec::new();
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('c') {
                continue;
            }
            if let Some(rest) = line.strip_prefix("p cnf") {
                let mut it = rest.split_whitespace();
                let nv: u32 = it
                    .next()
                    .and_then(|t| t.parse().ok())
                    .ok_or_else(|| format!("line {}: bad p header", lineno + 1))?;
                declared_vars = Some(nv);
                while solver.num_vars < nv {
                    solver.new_var();
                }
                continue;
            }
            for tok in line.split_whitespace() {
                let n: i64 = tok
                    .parse()
                    .map_err(|_| format!("line {}: bad literal '{tok}'", lineno + 1))?;
                if n == 0 {
                    solver.add_clause(&clause);
                    clause.clear();
                    continue;
                }
                let l = Lit::from_dimacs(n)
                    .ok_or_else(|| format!("line {}: bad literal '{tok}'", lineno + 1))?;
                if l.var() >= solver.num_vars {
                    if declared_vars.is_some_and(|nv| l.var() >= nv) {
                        return Err(format!(
                            "line {}: variable {} beyond declared count",
                            lineno + 1,
                            l.var() + 1
                        ));
                    }
                    while solver.num_vars <= l.var() {
                        solver.new_var();
                    }
                }
                clause.push(l);
            }
        }
        if !clause.is_empty() {
            return Err("unterminated clause at end of input".into());
        }
        Ok(solver)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(n: i64) -> Lit {
        Lit::from_dimacs(n).unwrap()
    }

    fn solver_with(num_vars: u32, clauses: &[&[i64]]) -> Solver {
        let mut s = Solver::new();
        for _ in 0..num_vars {
            s.new_var();
        }
        for c in clauses {
            let lits: Vec<Lit> = c.iter().map(|&n| lit(n)).collect();
            s.add_clause(&lits);
        }
        s
    }

    #[test]
    fn golden_sat_instance() {
        // (1 ∨ 2) ∧ (¬1 ∨ 3) ∧ (¬2 ∨ ¬3) ∧ (1 ∨ 3)
        let mut s = solver_with(3, &[&[1, 2], &[-1, 3], &[-2, -3], &[1, 3]]);
        assert_eq!(s.solve(&[], Budget::UNLIMITED), SatResult::Sat);
        // Model must actually satisfy every clause.
        for c in [[1i64, 2], [-1, 3], [-2, -3], [1, 3]] {
            assert!(c.iter().any(|&n| s.model_value(lit(n))), "clause {c:?}");
        }
    }

    #[test]
    fn golden_unsat_instance() {
        // All four sign combinations over two variables: classic UNSAT core.
        let mut s = solver_with(2, &[&[1, 2], &[1, -2], &[-1, 2], &[-1, -2]]);
        assert_eq!(s.solve(&[], Budget::UNLIMITED), SatResult::Unsat);
    }

    #[test]
    fn pigeonhole_3_into_2_is_unsat() {
        // p_{i,h}: pigeon i in hole h. Vars 1..=6 as (i,h) row-major.
        let p = |i: i64, h: i64| i * 2 + h + 1; // i in 0..3, h in 0..2
        let mut clauses: Vec<Vec<i64>> = Vec::new();
        for i in 0..3 {
            clauses.push(vec![p(i, 0), p(i, 1)]);
        }
        for h in 0..2 {
            for a in 0..3 {
                for b in (a + 1)..3 {
                    clauses.push(vec![-p(a, h), -p(b, h)]);
                }
            }
        }
        let refs: Vec<&[i64]> = clauses.iter().map(Vec::as_slice).collect();
        let mut s = solver_with(6, &refs);
        assert_eq!(s.solve(&[], Budget::UNLIMITED), SatResult::Unsat);
    }

    #[test]
    fn assumptions_flip_outcomes_incrementally() {
        let mut s = solver_with(3, &[&[-1, 2], &[-2, 3]]);
        assert_eq!(
            s.solve(&[lit(1), lit(-3)], Budget::UNLIMITED),
            SatResult::Unsat
        );
        assert_eq!(s.solve(&[lit(1)], Budget::UNLIMITED), SatResult::Sat);
        assert!(s.model_value(lit(3)), "1 → 2 → 3 must propagate");
        // Adding a clause between queries must be honored.
        s.add_clause(&[lit(-1)]);
        assert_eq!(s.solve(&[lit(1)], Budget::UNLIMITED), SatResult::Unsat);
        assert_eq!(s.solve(&[], Budget::UNLIMITED), SatResult::Sat);
    }

    #[test]
    fn conflict_budget_returns_unknown() {
        // A hard-enough instance: pigeonhole 5→4.
        let p = |i: i64, h: i64| i * 4 + h + 1;
        let mut s = Solver::new();
        for _ in 0..20 {
            s.new_var();
        }
        for i in 0..5 {
            let c: Vec<Lit> = (0..4).map(|h| lit(p(i, h))).collect();
            s.add_clause(&c);
        }
        for h in 0..4 {
            for a in 0..5 {
                for b in (a + 1)..5 {
                    s.add_clause(&[lit(-p(a, h)), lit(-p(b, h))]);
                }
            }
        }
        assert_eq!(s.solve(&[], Budget::conflicts(3)), SatResult::Unknown);
        // And with a real budget it finishes (pigeonhole 5→4 is small).
        assert_eq!(s.solve(&[], Budget::UNLIMITED), SatResult::Unsat);
    }

    #[test]
    fn dimacs_round_trip_preserves_semantics() {
        let mut s = solver_with(4, &[&[1, 2], &[-1, 3], &[-3, -2], &[2, 4], &[-4, 1]]);
        let text = s.to_dimacs();
        assert!(text.starts_with("p cnf 4 5"), "{text}");
        let mut s2 = Solver::from_dimacs(&text).expect("parse");
        let r1 = s.solve(&[], Budget::UNLIMITED);
        let r2 = s2.solve(&[], Budget::UNLIMITED);
        assert_eq!(r1, r2);
        // Round-trip again: output of parse prints back to the same clause
        // set. Literal order within a clause is not significant (solving
        // normalizes watched positions), so compare sorted sets.
        let text2 = s2.to_dimacs();
        let norm = |t: &str| {
            let mut lines: Vec<Vec<i64>> = t
                .lines()
                .filter(|l| !l.starts_with('p'))
                .map(|l| {
                    let mut c: Vec<i64> = l
                        .split_whitespace()
                        .map(|w| w.parse().unwrap())
                        .filter(|&x| x != 0)
                        .collect();
                    c.sort_unstable();
                    c
                })
                .collect();
            lines.sort_unstable();
            lines
        };
        assert_eq!(norm(&text), norm(&text2));
    }

    #[test]
    fn dimacs_rejects_malformed_input() {
        assert!(Solver::from_dimacs("p cnf x 1\n1 0\n").is_err());
        assert!(Solver::from_dimacs("p cnf 2 1\n1 banana 0\n").is_err());
        assert!(
            Solver::from_dimacs("p cnf 2 1\n1 2\n").is_err(),
            "unterminated"
        );
        assert!(
            Solver::from_dimacs("p cnf 1 1\n5 0\n").is_err(),
            "var beyond p"
        );
    }

    /// Decide once and check the heap's pick against the linear scan.
    fn pick(s: &mut Solver) -> u32 {
        let expect = s.scan_best().expect("an unassigned variable");
        assert!(s.decide());
        let v = s.trail.last().expect("decision on the trail").var();
        assert_eq!(v, expect, "heap pick differs from the linear scan");
        v
    }

    #[test]
    fn order_heap_picks_what_the_scan_picks() {
        let mut s = solver_with(8, &[]);
        // Equal activities: the lowest index wins.
        assert_eq!(pick(&mut s), 0);
        s.backtrack_to(0);
        s.bump_var(5);
        s.bump_var(3);
        assert_eq!(pick(&mut s), 3);
        s.bump_var(5);
        assert_eq!(pick(&mut s), 5);
        assert_eq!(pick(&mut s), 0);
        s.backtrack_to(0);
        assert_eq!(pick(&mut s), 5, "backtracking reinserts unassigned vars");

        // The 1e100 rescale flushes tiny activities to zero, so var 4 drops
        // from first place into a tie that the lowest index (0) wins.
        let mut s = solver_with(8, &[]);
        s.var_inc = 1e-250;
        s.bump_var(6);
        s.bump_var(6);
        s.bump_var(4);
        assert_eq!(pick(&mut s), 6);
        s.var_inc = 1e101;
        s.bump_var(6);
        assert_eq!(s.activity[4], 0.0, "rescale underflowed");
        assert_eq!(pick(&mut s), 0);

        // Pseudo-random bumps, rescales, decisions and backtracks.
        let mut s = solver_with(64, &[]);
        let mut x = 0x2545_f491_4f6c_dd1du64;
        for _ in 0..4000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            match x % 8 {
                0..=3 => s.bump_var((x >> 8) as u32 % 64),
                4 if x >> 8 & 63 == 0 => s.var_inc *= 1e30,
                5 if s.trail.len() < 64 => {
                    pick(&mut s);
                }
                6 => s.backtrack_to((x >> 8) as u32 % (s.trail_lim.len() as u32 + 1)),
                _ => {}
            }
        }
    }

    #[test]
    fn xor_chain_forces_unique_model() {
        // x1 ⊕ x2 = 1, x2 ⊕ x3 = 1, x1 = 1  ⇒  x2 = 0, x3 = 1.
        let mut s = solver_with(3, &[&[1, 2], &[-1, -2], &[2, 3], &[-2, -3], &[1]]);
        assert_eq!(s.solve(&[], Budget::UNLIMITED), SatResult::Sat);
        assert!(s.model_value(lit(1)));
        assert!(!s.model_value(lit(2)));
        assert!(s.model_value(lit(3)));
    }
}
