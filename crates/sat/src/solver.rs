//! A CDCL SAT solver with two-watched literals, VSIDS, phase saving, Luby
//! restarts and learnt-clause database reduction.
//!
//! The solver supports incremental use (add clauses between `solve` calls)
//! and solving under assumptions, which the oracle-guided SAT attack and
//! the equivalence checker rely on.

use crate::lit::{LBool, Lit, Var};

/// Result of a satisfiability query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveResult {
    /// A satisfying assignment was found (read it with
    /// [`Solver::model_value`]).
    Sat,
    /// The formula (under the given assumptions) is unsatisfiable.
    Unsat,
}

#[derive(Debug, Clone)]
struct Clause {
    lits: Vec<Lit>,
    learnt: bool,
    deleted: bool,
    activity: f64,
}

#[derive(Debug, Clone, Copy)]
struct Watcher {
    clause: u32,
    blocker: Lit,
}

/// Cumulative solver statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Number of conflicts encountered.
    pub conflicts: u64,
    /// Number of decisions made.
    pub decisions: u64,
    /// Number of unit propagations performed.
    pub propagations: u64,
    /// Number of restarts performed.
    pub restarts: u64,
}

/// CDCL SAT solver.
///
/// # Examples
///
/// ```
/// use gnnunlock_sat::{Lit, SolveResult, Solver};
/// let mut s = Solver::new();
/// let a = s.new_var();
/// let b = s.new_var();
/// s.add_clause(&[Lit::positive(a), Lit::positive(b)]);
/// s.add_clause(&[!Lit::positive(a)]);
/// assert_eq!(s.solve(), SolveResult::Sat);
/// assert_eq!(s.model_value(b), Some(true));
/// ```
#[derive(Debug, Clone)]
pub struct Solver {
    clauses: Vec<Clause>,
    watches: Vec<Vec<Watcher>>,
    assign: Vec<LBool>,
    level: Vec<u32>,
    reason: Vec<Option<u32>>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    activity: Vec<f64>,
    var_inc: f64,
    cla_inc: f64,
    heap: VarHeap,
    phase: Vec<bool>,
    seen: Vec<bool>,
    ok: bool,
    stats: SolverStats,
    num_learnts: usize,
    max_learnts: usize,
    conflict_budget: Option<u64>,
}

impl Default for Solver {
    fn default() -> Self {
        Solver::new()
    }
}

impl Solver {
    /// Create an empty solver.
    pub fn new() -> Self {
        Solver {
            clauses: Vec::new(),
            watches: Vec::new(),
            assign: Vec::new(),
            level: Vec::new(),
            reason: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            activity: Vec::new(),
            var_inc: 1.0,
            cla_inc: 1.0,
            heap: VarHeap::new(),
            phase: Vec::new(),
            seen: Vec::new(),
            ok: true,
            stats: SolverStats::default(),
            num_learnts: 0,
            max_learnts: 8000,
            conflict_budget: None,
        }
    }

    /// Allocate a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var(self.assign.len() as u32);
        self.assign.push(LBool::Undef);
        self.level.push(0);
        self.reason.push(None);
        self.activity.push(0.0);
        self.phase.push(false);
        self.seen.push(false);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.heap.insert(v, &self.activity);
        v
    }

    /// Number of allocated variables.
    pub fn num_vars(&self) -> usize {
        self.assign.len()
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> SolverStats {
        self.stats
    }

    /// Number of learnt clauses currently live in the database (grows
    /// with conflicts, shrinks on DB reduction).
    pub fn num_learnts(&self) -> usize {
        self.num_learnts
    }

    /// Limit the number of conflicts for subsequent `solve` calls; `None`
    /// removes the limit. When the budget is exhausted the query returns
    /// `Unsat`-like `None` from [`Solver::solve_limited`].
    pub fn set_conflict_budget(&mut self, budget: Option<u64>) {
        self.conflict_budget = budget;
    }

    /// Add a clause. An empty clause makes the formula trivially
    /// unsatisfiable.
    ///
    /// Note: adding a clause invalidates the current model (incremental
    /// callers must read the model before extending the formula).
    pub fn add_clause(&mut self, lits: &[Lit]) {
        if !self.ok {
            return;
        }
        self.cancel_until(0);
        // Simplify: drop duplicate/false literals, detect tautologies.
        let mut simplified: Vec<Lit> = Vec::with_capacity(lits.len());
        for &l in lits {
            match self.lit_value(l) {
                LBool::True => return, // satisfied at level 0
                LBool::False => continue,
                LBool::Undef => {}
            }
            if simplified.contains(&!l) {
                return; // tautology
            }
            if !simplified.contains(&l) {
                simplified.push(l);
            }
        }
        match simplified.len() {
            0 => self.ok = false,
            1 => {
                self.enqueue(simplified[0], None);
                if self.propagate().is_some() {
                    self.ok = false;
                }
            }
            _ => {
                self.attach_clause(simplified, false);
            }
        }
    }

    fn attach_clause(&mut self, lits: Vec<Lit>, learnt: bool) -> u32 {
        let idx = self.clauses.len() as u32;
        let w0 = Watcher {
            clause: idx,
            blocker: lits[1],
        };
        let w1 = Watcher {
            clause: idx,
            blocker: lits[0],
        };
        self.watches[(!lits[0]).code()].push(w0);
        self.watches[(!lits[1]).code()].push(w1);
        if learnt {
            self.num_learnts += 1;
        }
        self.clauses.push(Clause {
            lits,
            learnt,
            deleted: false,
            activity: 0.0,
        });
        idx
    }

    /// Solve the formula without assumptions.
    pub fn solve(&mut self) -> SolveResult {
        self.solve_with_assumptions(&[])
    }

    /// Solve under the given assumption literals.
    pub fn solve_with_assumptions(&mut self, assumptions: &[Lit]) -> SolveResult {
        self.solve_limited(assumptions)
            .unwrap_or(SolveResult::Unsat)
    }

    /// Solve under assumptions, returning `None` if the conflict budget
    /// (see [`Solver::set_conflict_budget`]) was exhausted.
    pub fn solve_limited(&mut self, assumptions: &[Lit]) -> Option<SolveResult> {
        if !self.ok {
            return Some(SolveResult::Unsat);
        }
        self.cancel_until(0);
        let start_conflicts = self.stats.conflicts;
        let mut restart_idx = 0u64;
        loop {
            restart_idx += 1;
            let budget = 64 * luby(restart_idx);
            match self.search(budget, assumptions, start_conflicts) {
                SearchResult::Sat => {
                    let r = SolveResult::Sat;
                    // Keep the model readable; backtrack on next call.
                    return Some(r);
                }
                SearchResult::Unsat => {
                    self.cancel_until(0);
                    return Some(SolveResult::Unsat);
                }
                SearchResult::Restart => {
                    self.stats.restarts += 1;
                    self.cancel_until(0);
                }
                SearchResult::BudgetExhausted => {
                    self.cancel_until(0);
                    return None;
                }
            }
        }
    }

    /// Value of `v` in the most recent satisfying model.
    pub fn model_value(&self, v: Var) -> Option<bool> {
        match self.assign[v.index()] {
            LBool::True => Some(true),
            LBool::False => Some(false),
            LBool::Undef => None,
        }
    }

    /// Value of a literal in the most recent model.
    pub fn model_lit(&self, l: Lit) -> Option<bool> {
        self.model_value(l.var())
            .map(|b| if l.is_positive() { b } else { !b })
    }

    // ------------------------------------------------------------------

    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    fn lit_value(&self, l: Lit) -> LBool {
        match self.assign[l.var().index()] {
            LBool::Undef => LBool::Undef,
            LBool::True => {
                if l.is_positive() {
                    LBool::True
                } else {
                    LBool::False
                }
            }
            LBool::False => {
                if l.is_positive() {
                    LBool::False
                } else {
                    LBool::True
                }
            }
        }
    }

    fn enqueue(&mut self, l: Lit, reason: Option<u32>) {
        debug_assert_eq!(self.lit_value(l), LBool::Undef);
        let v = l.var();
        self.assign[v.index()] = LBool::from_bool(l.is_positive());
        self.level[v.index()] = self.decision_level();
        self.reason[v.index()] = reason;
        self.phase[v.index()] = l.is_positive();
        self.trail.push(l);
    }

    /// Propagate enqueued literals; returns the conflicting clause index if
    /// a conflict arises.
    fn propagate(&mut self) -> Option<u32> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;
            let mut i = 0;
            let mut watchers = std::mem::take(&mut self.watches[p.code()]);
            let mut conflict = None;
            while i < watchers.len() {
                let w = watchers[i];
                if self.lit_value(w.blocker) == LBool::True {
                    i += 1;
                    continue;
                }
                let ci = w.clause as usize;
                if self.clauses[ci].deleted {
                    watchers.swap_remove(i);
                    continue;
                }
                // Make sure the false literal is lits[1].
                let false_lit = !p;
                if self.clauses[ci].lits[0] == false_lit {
                    self.clauses[ci].lits.swap(0, 1);
                }
                debug_assert_eq!(self.clauses[ci].lits[1], false_lit);
                let first = self.clauses[ci].lits[0];
                if self.lit_value(first) == LBool::True {
                    watchers[i].blocker = first;
                    i += 1;
                    continue;
                }
                // Look for a new literal to watch.
                let mut moved = false;
                for k in 2..self.clauses[ci].lits.len() {
                    let l = self.clauses[ci].lits[k];
                    if self.lit_value(l) != LBool::False {
                        self.clauses[ci].lits.swap(1, k);
                        self.watches[(!l).code()].push(Watcher {
                            clause: w.clause,
                            blocker: first,
                        });
                        watchers.swap_remove(i);
                        moved = true;
                        break;
                    }
                }
                if moved {
                    continue;
                }
                // Clause is unit or conflicting.
                if self.lit_value(first) == LBool::False {
                    conflict = Some(w.clause);
                    self.qhead = self.trail.len();
                    break;
                }
                self.enqueue(first, Some(w.clause));
                i += 1;
            }
            self.watches[p.code()].extend(watchers.drain(i.min(watchers.len())..));
            // Put back the untouched prefix.
            let mut kept = watchers;
            kept.extend(std::mem::take(&mut self.watches[p.code()]));
            self.watches[p.code()] = kept;
            if let Some(c) = conflict {
                return Some(c);
            }
        }
        None
    }

    /// 1-UIP conflict analysis; returns the learnt clause (asserting
    /// literal first) and the backtrack level.
    fn analyze(&mut self, confl: u32) -> (Vec<Lit>, u32) {
        let mut learnt: Vec<Lit> = vec![Lit(0)]; // placeholder for UIP
        let mut counter = 0usize;
        let mut p: Option<Lit> = None;
        let mut confl = confl as usize;
        let mut index = self.trail.len();
        let current_level = self.decision_level();
        loop {
            self.bump_clause(confl);
            let start = usize::from(p.is_some());
            // Collect literals from the conflicting/reason clause.
            let lits: Vec<Lit> = self.clauses[confl].lits[start..].to_vec();
            for q in lits {
                let v = q.var();
                if !self.seen[v.index()] && self.level[v.index()] > 0 {
                    self.seen[v.index()] = true;
                    self.bump_var(v);
                    if self.level[v.index()] >= current_level {
                        counter += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Find the next seen literal on the trail.
            loop {
                index -= 1;
                if self.seen[self.trail[index].var().index()] {
                    break;
                }
            }
            let uip = self.trail[index];
            self.seen[uip.var().index()] = false;
            counter -= 1;
            if counter == 0 {
                learnt[0] = !uip;
                break;
            }
            confl = self.reason[uip.var().index()].expect("non-decision has reason") as usize;
            p = Some(uip);
        }
        // Simple clause minimization: drop literals implied by the rest.
        let backtrack = if learnt.len() == 1 {
            0
        } else {
            let mut max_i = 1;
            for i in 2..learnt.len() {
                if self.level[learnt[i].var().index()] > self.level[learnt[max_i].var().index()] {
                    max_i = i;
                }
            }
            learnt.swap(1, max_i);
            self.level[learnt[1].var().index()]
        };
        for l in &learnt {
            self.seen[l.var().index()] = false;
        }
        (learnt, backtrack)
    }

    fn cancel_until(&mut self, level: u32) {
        if self.decision_level() <= level {
            return;
        }
        let bound = self.trail_lim[level as usize];
        for i in (bound..self.trail.len()).rev() {
            let v = self.trail[i].var();
            self.assign[v.index()] = LBool::Undef;
            self.reason[v.index()] = None;
            self.heap.insert(v, &self.activity);
        }
        self.trail.truncate(bound);
        self.trail_lim.truncate(level as usize);
        self.qhead = self.trail.len();
    }

    fn bump_var(&mut self, v: Var) {
        self.activity[v.index()] += self.var_inc;
        if self.activity[v.index()] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        self.heap.update(v, &self.activity);
    }

    fn bump_clause(&mut self, ci: usize) {
        if !self.clauses[ci].learnt {
            return;
        }
        self.clauses[ci].activity += self.cla_inc;
        if self.clauses[ci].activity > 1e20 {
            for c in self.clauses.iter_mut().filter(|c| c.learnt) {
                c.activity *= 1e-20;
            }
            self.cla_inc *= 1e-20;
        }
    }

    fn reduce_db(&mut self) {
        let mut learnt_indices: Vec<usize> = (0..self.clauses.len())
            .filter(|&i| {
                self.clauses[i].learnt && !self.clauses[i].deleted && self.clauses[i].lits.len() > 2
            })
            .collect();
        learnt_indices.sort_by(|&a, &b| {
            self.clauses[a]
                .activity
                .partial_cmp(&self.clauses[b].activity)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let locked: Vec<bool> = learnt_indices
            .iter()
            .map(|&i| {
                let first = self.clauses[i].lits[0];
                self.reason[first.var().index()] == Some(i as u32)
                    && self.lit_value(first) == LBool::True
            })
            .collect();
        let target = learnt_indices.len() / 2;
        let mut removed = 0;
        for (k, &i) in learnt_indices.iter().enumerate() {
            if removed >= target {
                break;
            }
            if locked[k] {
                continue;
            }
            self.clauses[i].deleted = true;
            self.num_learnts -= 1;
            removed += 1;
        }
        // Watches lazily skip deleted clauses (see `propagate`).
    }

    fn search(
        &mut self,
        conflicts_allowed: u64,
        assumptions: &[Lit],
        start_conflicts: u64,
    ) -> SearchResult {
        let mut local_conflicts = 0u64;
        loop {
            if let Some(confl) = self.propagate() {
                self.stats.conflicts += 1;
                local_conflicts += 1;
                if self.decision_level() == 0 {
                    self.ok = false;
                    return SearchResult::Unsat;
                }
                if self.decision_level() <= assumptions.len() as u32 {
                    // Conflict depends only on assumptions.
                    return SearchResult::Unsat;
                }
                let (learnt, backtrack) = self.analyze(confl);
                let backtrack = backtrack.max(assumptions.len() as u32);
                self.cancel_until(backtrack);
                if learnt.len() == 1 && backtrack <= assumptions.len() as u32 {
                    if self.lit_value(learnt[0]) == LBool::False {
                        return SearchResult::Unsat;
                    }
                    if self.lit_value(learnt[0]) == LBool::Undef {
                        self.enqueue(learnt[0], None);
                    }
                } else if learnt.len() == 1 {
                    self.cancel_until(0);
                    self.enqueue(learnt[0], None);
                } else {
                    let ci = self.attach_clause(learnt, true);
                    self.bump_clause(ci as usize);
                    let first = self.clauses[ci as usize].lits[0];
                    if self.lit_value(first) == LBool::Undef {
                        self.enqueue(first, Some(ci));
                    }
                }
                self.var_inc /= 0.95;
                self.cla_inc /= 0.999;
                if self.num_learnts > self.max_learnts {
                    self.reduce_db();
                    self.max_learnts += self.max_learnts / 10;
                }
                if let Some(budget) = self.conflict_budget {
                    if self.stats.conflicts - start_conflicts >= budget {
                        return SearchResult::BudgetExhausted;
                    }
                }
            } else {
                if local_conflicts >= conflicts_allowed {
                    return SearchResult::Restart;
                }
                // Apply pending assumptions as decisions.
                let dl = self.decision_level() as usize;
                let next = if dl < assumptions.len() {
                    let a = assumptions[dl];
                    match self.lit_value(a) {
                        LBool::True => {
                            // Already implied: open a dummy level.
                            self.trail_lim.push(self.trail.len());
                            continue;
                        }
                        LBool::False => return SearchResult::Unsat,
                        LBool::Undef => a,
                    }
                } else {
                    match self.pick_branch() {
                        Some(l) => l,
                        None => return SearchResult::Sat,
                    }
                };
                self.stats.decisions += 1;
                self.trail_lim.push(self.trail.len());
                self.enqueue(next, None);
            }
        }
    }

    fn pick_branch(&mut self) -> Option<Lit> {
        while let Some(v) = self.heap.pop(&self.activity) {
            if self.assign[v.index()] == LBool::Undef {
                return Some(Lit::with_polarity(v, self.phase[v.index()]));
            }
        }
        None
    }
}

enum SearchResult {
    Sat,
    Unsat,
    Restart,
    BudgetExhausted,
}

/// Luby restart sequence (1-based: 1, 1, 2, 1, 1, 2, 4, …).
fn luby(mut i: u64) -> u64 {
    loop {
        let mut k = 1u32;
        while (1u64 << k) - 1 < i {
            k += 1;
        }
        if (1u64 << k) - 1 == i {
            return 1 << (k - 1);
        }
        i -= (1u64 << (k - 1)) - 1;
    }
}

/// Binary max-heap over variable activities with lazy re-insertion.
#[derive(Debug, Clone, Default)]
struct VarHeap {
    heap: Vec<Var>,
    pos: Vec<i32>,
}

impl VarHeap {
    fn new() -> Self {
        VarHeap::default()
    }

    fn insert(&mut self, v: Var, act: &[f64]) {
        while self.pos.len() <= v.index() {
            self.pos.push(-1);
        }
        if self.pos[v.index()] >= 0 {
            return;
        }
        self.pos[v.index()] = self.heap.len() as i32;
        self.heap.push(v);
        self.sift_up(self.heap.len() - 1, act);
    }

    fn update(&mut self, v: Var, act: &[f64]) {
        if v.index() < self.pos.len() && self.pos[v.index()] >= 0 {
            self.sift_up(self.pos[v.index()] as usize, act);
        }
    }

    fn pop(&mut self, act: &[f64]) -> Option<Var> {
        if self.heap.is_empty() {
            return None;
        }
        let top = self.heap[0];
        self.pos[top.index()] = -1;
        let last = self.heap.pop().expect("non-empty");
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.pos[last.index()] = 0;
            self.sift_down(0, act);
        }
        Some(top)
    }

    fn sift_up(&mut self, mut i: usize, act: &[f64]) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if act[self.heap[i].index()] <= act[self.heap[parent].index()] {
                break;
            }
            self.swap(i, parent);
            i = parent;
        }
    }

    fn sift_down(&mut self, mut i: usize, act: &[f64]) {
        loop {
            let l = 2 * i + 1;
            let r = 2 * i + 2;
            let mut best = i;
            if l < self.heap.len() && act[self.heap[l].index()] > act[self.heap[best].index()] {
                best = l;
            }
            if r < self.heap.len() && act[self.heap[r].index()] > act[self.heap[best].index()] {
                best = r;
            }
            if best == i {
                break;
            }
            self.swap(i, best);
            i = best;
        }
    }

    fn swap(&mut self, a: usize, b: usize) {
        self.heap.swap(a, b);
        self.pos[self.heap[a].index()] = a as i32;
        self.pos[self.heap[b].index()] = b as i32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(s: &mut Solver, vars: &mut Vec<Var>, i: usize, pos: bool) -> Lit {
        while vars.len() <= i {
            vars.push(s.new_var());
        }
        Lit::with_polarity(vars[i], pos)
    }

    #[test]
    fn trivial_sat_and_unsat() {
        let mut s = Solver::new();
        let v = s.new_var();
        s.add_clause(&[Lit::positive(v)]);
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.model_value(v), Some(true));
        s.add_clause(&[Lit::negative(v)]);
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn empty_clause_is_unsat() {
        let mut s = Solver::new();
        let _ = s.new_var();
        s.add_clause(&[]);
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn pigeonhole_3_into_2_unsat() {
        // p_{i,j}: pigeon i in hole j. 3 pigeons, 2 holes.
        let mut s = Solver::new();
        let mut p = [[Lit(0); 2]; 3];
        for row in &mut p {
            for cell in row.iter_mut() {
                *cell = Lit::positive(s.new_var());
            }
        }
        for row in &p {
            s.add_clause(&[row[0], row[1]]);
        }
        #[allow(clippy::needless_range_loop)] // j indexes columns of `p`
        for j in 0..2 {
            for i in 0..3 {
                for k in (i + 1)..3 {
                    s.add_clause(&[!p[i][j], !p[k][j]]);
                }
            }
        }
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn xor_chain_sat_with_model() {
        // x0 ^ x1 = 1, x1 ^ x2 = 1, x0 = 1  =>  x1 = 0, x2 = 1.
        let mut s = Solver::new();
        let mut vars = Vec::new();
        let (x0, x1, x2) = (
            lit(&mut s, &mut vars, 0, true),
            lit(&mut s, &mut vars, 1, true),
            lit(&mut s, &mut vars, 2, true),
        );
        for (a, b) in [(x0, x1), (x1, x2)] {
            s.add_clause(&[a, b]);
            s.add_clause(&[!a, !b]);
        }
        s.add_clause(&[x0]);
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.model_lit(x0), Some(true));
        assert_eq!(s.model_lit(x1), Some(false));
        assert_eq!(s.model_lit(x2), Some(true));
    }

    #[test]
    fn assumptions_toggle_satisfiability() {
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause(&[Lit::positive(a), Lit::positive(b)]);
        s.add_clause(&[!Lit::positive(a), !Lit::positive(b)]);
        assert_eq!(
            s.solve_with_assumptions(&[Lit::positive(a), Lit::positive(b)]),
            SolveResult::Unsat
        );
        assert_eq!(
            s.solve_with_assumptions(&[Lit::positive(a), Lit::negative(b)]),
            SolveResult::Sat
        );
        // Solver remains usable afterwards.
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    fn random_3sat_against_brute_force() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(99);
        for round in 0..60 {
            let n = 8usize;
            let m = rng.random_range(8..40usize);
            let clauses: Vec<Vec<(usize, bool)>> = (0..m)
                .map(|_| {
                    (0..3)
                        .map(|_| (rng.random_range(0..n), rng.random_bool(0.5)))
                        .collect()
                })
                .collect();
            // Brute force.
            let mut brute_sat = false;
            'outer: for bits in 0..(1u32 << n) {
                for c in &clauses {
                    if !c.iter().any(|&(v, pos)| ((bits >> v) & 1 == 1) == pos) {
                        continue 'outer;
                    }
                }
                brute_sat = true;
                break;
            }
            // Solver.
            let mut s = Solver::new();
            let vars: Vec<Var> = (0..n).map(|_| s.new_var()).collect();
            for c in &clauses {
                let lits: Vec<Lit> = c
                    .iter()
                    .map(|&(v, pos)| Lit::with_polarity(vars[v], pos))
                    .collect();
                s.add_clause(&lits);
            }
            let got = s.solve() == SolveResult::Sat;
            assert_eq!(got, brute_sat, "round {round} mismatch");
            if got {
                // Verify the model satisfies every clause.
                for c in &clauses {
                    assert!(c
                        .iter()
                        .any(|&(v, pos)| { s.model_value(vars[v]).expect("assigned") == pos }));
                }
            }
        }
    }

    #[test]
    fn luby_sequence_prefix() {
        let seq: Vec<u64> = (1..=15).map(luby).collect();
        assert_eq!(seq, vec![1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]);
    }
}
