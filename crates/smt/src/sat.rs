//! A CDCL SAT solver: two-watched-literal propagation, 1UIP conflict
//! analysis, VSIDS-style activities, phase saving, and Luby restarts.
//!
//! The solver is incremental in the sense the lazy DPLL(T) loop needs:
//! clauses may be added between `solve` calls, and a theory callback
//! consulted during search may add theory clauses and fresh split
//! variables without restarting it (see [`TheoryView`]).
//!
//! With [`SatSolver::enable_proof`] the solver additionally records a
//! DRAT-style clause trace (inputs, learned clauses, deletions) that the
//! independent checker in [`crate::drat`] can replay to certify `unsat`
//! answers.

use crate::drat::ProofStep;
use std::fmt;
pub use sygus_ast::trace::RestartEpisode;

/// A propositional variable (0-based index).
pub type Var = u32;

/// A literal: a variable with a polarity.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Lit(u32);

impl Lit {
    /// The positive literal of `v`.
    pub fn pos(v: Var) -> Lit {
        Lit(v << 1)
    }

    /// The negative literal of `v`.
    pub fn neg(v: Var) -> Lit {
        Lit((v << 1) | 1)
    }

    /// Builds a literal from a variable and a sign (`true` = negated).
    pub fn new(v: Var, negated: bool) -> Lit {
        Lit((v << 1) | u32::from(negated))
    }

    /// The underlying variable.
    pub fn var(self) -> Var {
        self.0 >> 1
    }

    /// Whether the literal is negated.
    pub fn is_neg(self) -> bool {
        self.0 & 1 == 1
    }

    /// The complementary literal.
    #[must_use]
    pub fn negate(self) -> Lit {
        Lit(self.0 ^ 1)
    }

    fn index(self) -> usize {
        self.0 as usize
    }

    /// The dense code of the literal (`2·var + is_neg`), usable as an array
    /// index by external tooling such as the DRAT checker.
    pub fn code(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{}", if self.is_neg() { "¬" } else { "" }, self.var())
    }
}

impl fmt::Display for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self)
    }
}

/// Result of a [`SatSolver::solve`] call.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SatResult {
    /// Satisfiable; the witness assigns every variable.
    Sat(Vec<bool>),
    /// Unsatisfiable.
    Unsat,
}

const INVALID: usize = usize::MAX;

/// The SAT search as a theory callback sees it: the current assignment,
/// whether it is complete, and the two ways a theory can steer the search
/// besides returning a clause — growing the problem with fresh split
/// variables, and giving up.
///
/// A callback that allocates variables with [`TheoryView::new_var`] and
/// returns no clause makes the search decide the fresh variables before it
/// may answer `sat`, so a complete assignment always reaches the theory
/// again after a split.
pub struct TheoryView<'a> {
    sat: &'a mut SatSolver,
    complete: bool,
    give_up: bool,
}

impl TheoryView<'_> {
    /// The current (partial) assignment, indexed by variable.
    pub fn assignment(&self) -> &[Option<bool>] {
        &self.sat.assign
    }

    /// Whether every variable is assigned: the callback is the final check,
    /// and answering no clause and no fresh variable makes the search
    /// return `sat`.
    pub fn is_complete(&self) -> bool {
        self.complete
    }

    /// Allocates a fresh, unassigned variable whose first decision takes
    /// `phase` (the split atoms of splitting on demand).
    pub fn new_var(&mut self, phase: bool) -> Var {
        let v = self.sat.new_var();
        self.sat.phase[v as usize] = phase;
        v
    }

    /// Ends the search without an answer (the solve entry point returns
    /// `None`, root level restored), e.g. when the theory check ran out of
    /// budget.
    pub fn give_up(&mut self) {
        self.give_up = true;
    }
}

/// Conflicts between cancellation polls in the `*_polled` solve entry
/// points: frequent enough that a daemon cancel lands within milliseconds,
/// rare enough that the branch is noise next to clause learning.
pub const POLL_CONFLICT_STRIDE: u64 = 64;

/// A CDCL SAT solver.
///
/// # Examples
///
/// ```
/// use smtkit::{Lit, SatResult, SatSolver};
/// let mut s = SatSolver::new();
/// let a = s.new_var();
/// let b = s.new_var();
/// s.add_clause(vec![Lit::pos(a), Lit::pos(b)]);
/// s.add_clause(vec![Lit::neg(a)]);
/// match s.solve(None) {
///     SatResult::Sat(model) => {
///         assert!(!model[a as usize]);
///         assert!(model[b as usize]);
///     }
///     SatResult::Unsat => unreachable!(),
/// }
/// ```
pub struct SatSolver {
    clauses: Vec<Vec<Lit>>,
    /// `watches[lit]`: indices of clauses currently watching `lit`.
    watches: Vec<Vec<usize>>,
    assign: Vec<Option<bool>>,
    /// Saved phases for polarity selection.
    phase: Vec<bool>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    /// Index of the antecedent clause of each assigned var, or `INVALID`.
    reason: Vec<usize>,
    level: Vec<u32>,
    activity: Vec<f64>,
    var_inc: f64,
    prop_head: usize,
    unsat_at_root: bool,
    conflicts_total: u64,
    /// DRAT-style trace, recorded only when proof logging is enabled.
    proof: Option<Vec<ProofStep>>,
    /// Test hook: corrupt clause learning to exercise the proof checker.
    sabotage_learning: bool,
    /// Interval-sampled search analytics (plain counters: the solver is
    /// single-threaded, so the hot loop pays no atomics).
    search: SearchStats,
}

/// Conflicts per closed search-analytics interval: the solve loop cuts an
/// interval record every this many analyzed conflicts (and the drain layer
/// closes the partial tail at the end of a query).
pub const SEARCH_SAMPLE_CONFLICTS: u64 = 4096;

/// One sampling interval of SAT-core search activity. All fields are
/// *deltas over the interval* except `db_clauses`, a gauge read when the
/// interval closes. `lbds` keeps the raw per-learned-clause LBDs so the
/// drain layer can feed a histogram at full resolution.
#[derive(Clone, Debug, Default)]
pub struct SearchInterval {
    /// Conflicts hit (including terminal root-level ones).
    pub conflicts: u64,
    /// Branching decisions made.
    pub decisions: u64,
    /// Literals assigned by unit propagation or clause learning (everything
    /// enqueued with an antecedent clause).
    pub propagations: u64,
    /// Restarts taken.
    pub restarts: u64,
    /// Assignments that flipped the variable's saved phase.
    pub phase_flips: u64,
    /// Total literals across clauses learned by conflict analysis.
    pub learned_literals: u64,
    /// Sum of learned-clause LBDs (`lbd_count` divides it to a mean).
    pub lbd_sum: u64,
    /// Learned clauses with a recorded LBD (= analyzed conflicts).
    pub lbd_count: u64,
    /// Clause-DB size (attached clauses, learned included) at close.
    pub db_clauses: u64,
    /// Raw per-learned-clause LBDs, in learn order.
    pub lbds: Vec<u16>,
    /// Restart episodes that *ended* during this interval.
    pub episodes: Vec<RestartEpisode>,
}

/// Accumulator behind [`SatSolver::take_search_intervals`]: the open
/// interval, closed-but-undrained intervals, the running restart-episode
/// aggregates, and a scratch buffer for LBD computation.
#[derive(Debug, Default)]
struct SearchStats {
    open: SearchInterval,
    closed: Vec<SearchInterval>,
    episode_conflicts: u64,
    episode_lbd_sum: u64,
    episode_lbd_count: u64,
    scratch_levels: Vec<u32>,
}

impl SearchInterval {
    /// Whether any search activity landed in this interval.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.conflicts == 0 && self.decisions == 0 && self.propagations == 0
    }
}

impl Default for SatSolver {
    fn default() -> SatSolver {
        SatSolver::new()
    }
}

impl SatSolver {
    /// Creates an empty solver.
    pub fn new() -> SatSolver {
        SatSolver {
            clauses: Vec::new(),
            watches: Vec::new(),
            assign: Vec::new(),
            phase: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            reason: Vec::new(),
            level: Vec::new(),
            activity: Vec::new(),
            var_inc: 1.0,
            prop_head: 0,
            unsat_at_root: false,
            conflicts_total: 0,
            proof: None,
            sabotage_learning: false,
            search: SearchStats::default(),
        }
    }

    /// Turns on DRAT-style proof logging. Every clause added from here on
    /// is traced (inputs as axioms, conflict-analysis results as RUP-checkable
    /// derivations, preprocessing drops as deletions); see [`crate::drat`].
    /// Enable *before* adding clauses, or the trace will be incomplete.
    pub fn enable_proof(&mut self) {
        if self.proof.is_none() {
            self.proof = Some(Vec::new());
        }
    }

    /// The recorded proof trace (empty unless [`SatSolver::enable_proof`]
    /// was called).
    pub fn proof_steps(&self) -> &[ProofStep] {
        self.proof.as_deref().unwrap_or(&[])
    }

    /// Seeds a soundness bug into clause learning (the asserting literal of
    /// every learned clause is flipped). Exists solely so tests can verify
    /// that the DRAT checker catches a corrupted derivation; never call this
    /// outside of tests.
    #[doc(hidden)]
    pub fn seed_clause_learning_bug(&mut self) {
        self.sabotage_learning = true;
    }

    fn log(&mut self, step: impl FnOnce() -> ProofStep) {
        if let Some(p) = self.proof.as_mut() {
            p.push(step());
        }
    }

    /// Allocates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = self.assign.len() as Var;
        self.assign.push(None);
        self.phase.push(false);
        self.reason.push(INVALID);
        self.level.push(0);
        self.activity.push(0.0);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        v
    }

    /// The number of allocated variables.
    pub fn num_vars(&self) -> usize {
        self.assign.len()
    }

    /// The number of attached (≥ 2-literal) clauses, learned ones included.
    /// Unit clauses become root assignments and are not counted. Sessions
    /// use the delta across a query as the "clauses retained" measure.
    pub fn num_clauses(&self) -> usize {
        self.clauses.len()
    }

    /// Total conflicts encountered so far (a work measure).
    pub fn conflicts(&self) -> u64 {
        self.conflicts_total
    }

    /// Drains the accumulated search-analytics intervals. With
    /// `close_open`, the partial interval since the last
    /// [`SEARCH_SAMPLE_CONFLICTS`]-conflict cut is closed and included
    /// (callers do this at the end of a query so no activity is lost);
    /// otherwise it keeps accumulating toward its natural cut. Counter
    /// totals derived from the drained records sum exactly to the search
    /// activity since the previous drain — the analytics layer's
    /// intervals-sum-to-totals invariant holds by construction.
    pub fn take_search_intervals(&mut self, close_open: bool) -> Vec<SearchInterval> {
        if close_open && !self.search.open.is_empty() {
            self.search_close_interval();
        }
        std::mem::take(&mut self.search.closed)
    }

    /// Closes the open interval: stamp the clause-DB gauge, ship it.
    fn search_close_interval(&mut self) {
        self.search.open.db_clauses = self.clauses.len() as u64;
        let closed = std::mem::take(&mut self.search.open);
        self.search.closed.push(closed);
    }

    /// Records the learned clause of one analyzed conflict. Must run while
    /// the pre-backjump `level[]` entries are still valid (i.e. between
    /// [`SatSolver::analyze`] and `cancel_until`): the LBD is the number of
    /// distinct decision levels among the clause's literals.
    fn search_record_learned(&mut self, learned: &[Lit]) {
        let levels = &mut self.search.scratch_levels;
        levels.clear();
        levels.extend(learned.iter().map(|l| self.level[l.var() as usize]));
        levels.sort_unstable();
        levels.dedup();
        let lbd = levels.len() as u64;
        self.search.open.lbd_sum += lbd;
        self.search.open.lbd_count += 1;
        self.search.open.lbds.push(lbd.min(u64::from(u16::MAX)) as u16);
        self.search.open.learned_literals += learned.len() as u64;
        self.search.episode_lbd_sum += lbd;
        self.search.episode_lbd_count += 1;
    }

    /// Closes the current restart episode at a restart point.
    fn search_record_restart(&mut self) {
        self.search.open.restarts += 1;
        self.search.open.episodes.push(RestartEpisode {
            conflicts: self.search.episode_conflicts,
            lbd_sum: self.search.episode_lbd_sum,
            lbd_count: self.search.episode_lbd_count,
        });
        self.search.episode_conflicts = 0;
        self.search.episode_lbd_sum = 0;
        self.search.episode_lbd_count = 0;
    }

    fn value(&self, l: Lit) -> Option<bool> {
        self.assign[l.var() as usize].map(|b| b != l.is_neg())
    }

    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    /// Adds a clause. Duplicate literals are removed and tautologies are
    /// ignored. Adding the empty clause (or a clause falsified at the root
    /// level) makes the instance unsatisfiable.
    ///
    /// May be called between `solve` invocations; the solver backtracks to
    /// the root level first.
    pub fn add_clause(&mut self, lits: Vec<Lit>) {
        self.insert_clause(lits, true);
    }

    /// [`SatSolver::add_clause`] with control over proof logging: callers
    /// that already traced the clause (theory-lemma integration) pass
    /// `log_input = false` to avoid a duplicate axiom in the trace.
    fn insert_clause(&mut self, mut lits: Vec<Lit>, log_input: bool) {
        self.cancel_until(0);
        lits.sort();
        lits.dedup();
        // The canonical (sorted, deduplicated) form is what the trace
        // records, and doubles as the deletion key when preprocessing drops
        // the clause below. Root-falsified literals are *not* re-derived in
        // the trace: the checker reaches the same shrunk clause through the
        // root-level units it replays.
        let canonical = self.proof.is_some().then(|| lits.clone());
        if log_input {
            if let Some(c) = canonical.clone() {
                self.log(|| ProofStep::Input(c));
            }
        }
        // Tautology check (sorted: l and ¬l are adjacent).
        for w in lits.windows(2) {
            if w[0].var() == w[1].var() {
                if let Some(c) = canonical {
                    self.log(|| ProofStep::Delete(c));
                }
                return; // contains both polarities
            }
        }
        // Remove literals already false at root; stop if any is true at root.
        lits.retain(|&l| !(self.level[l.var() as usize] == 0 && self.value(l) == Some(false)));
        if lits
            .iter()
            .any(|&l| self.level[l.var() as usize] == 0 && self.value(l) == Some(true))
        {
            if let Some(c) = canonical {
                self.log(|| ProofStep::Delete(c));
            }
            return; // satisfied at root
        }
        match lits.len() {
            0 => self.unsat_at_root = true,
            1 => {
                if !self.enqueue(lits[0], INVALID) || self.propagate().is_some() {
                    self.unsat_at_root = true;
                }
            }
            _ => {
                self.attach(lits);
            }
        }
    }

    /// Removes every attached clause containing `lit` and rebuilds the
    /// watch lists. Intended for scope-aware clause GC in incremental
    /// sessions: once a scope's selector is fixed false at the root, every
    /// clause guarded by it — and every lemma learned under it, which
    /// carries the negated selector — is permanently satisfied and can be
    /// dropped. Deletions are recorded in the proof trace so DRAT replay
    /// stays aligned (a key the checker cannot match is a conservative
    /// no-op there). Returns the number of clauses removed.
    pub fn retire_clauses_with(&mut self, lit: Lit) -> usize {
        self.cancel_until(0);
        let old = std::mem::take(&mut self.clauses);
        let before = old.len();
        for w in &mut self.watches {
            w.clear();
        }
        for c in old {
            if c.contains(&lit) {
                if self.proof.is_some() {
                    let mut key = c;
                    key.sort();
                    key.dedup();
                    self.log(|| ProofStep::Delete(key));
                }
            } else {
                let idx = self.clauses.len();
                self.watches[c[0].index()].push(idx);
                self.watches[c[1].index()].push(idx);
                self.clauses.push(c);
            }
        }
        // Clause indices moved, so no stored antecedent may survive. Root
        // assignments keep their values; level-0 reasons are never
        // traversed by conflict analysis.
        for r in &mut self.reason {
            *r = INVALID;
        }
        self.prop_head = 0;
        before - self.clauses.len()
    }

    /// Enqueues an assignment; returns `false` on immediate conflict.
    fn enqueue(&mut self, l: Lit, reason: usize) -> bool {
        match self.value(l) {
            Some(true) => true,
            Some(false) => false,
            None => {
                let v = l.var() as usize;
                let value = !l.is_neg();
                self.assign[v] = Some(value);
                if self.phase[v] != value {
                    self.search.open.phase_flips += 1;
                }
                if reason != INVALID {
                    self.search.open.propagations += 1;
                }
                self.phase[v] = value;
                self.reason[v] = reason;
                self.level[v] = self.decision_level();
                self.trail.push(l);
                true
            }
        }
    }

    /// Unit propagation; returns the index of a conflicting clause, if any.
    fn propagate(&mut self) -> Option<usize> {
        while self.prop_head < self.trail.len() {
            let p = self.trail[self.prop_head];
            self.prop_head += 1;
            let false_lit = p.negate();
            let mut watchers = std::mem::take(&mut self.watches[false_lit.index()]);
            let mut i = 0;
            while i < watchers.len() {
                let ci = watchers[i];
                // Normalize: watched literals are clause[0] and clause[1].
                {
                    let clause = &mut self.clauses[ci];
                    if clause[0] == false_lit {
                        clause.swap(0, 1);
                    }
                }
                let first = self.clauses[ci][0];
                if self.value(first) == Some(true) {
                    i += 1;
                    continue;
                }
                // Find a new literal to watch.
                let mut moved = false;
                for k in 2..self.clauses[ci].len() {
                    let lk = self.clauses[ci][k];
                    if self.value(lk) != Some(false) {
                        self.clauses[ci].swap(1, k);
                        self.watches[lk.index()].push(ci);
                        watchers.swap_remove(i);
                        moved = true;
                        break;
                    }
                }
                if moved {
                    continue;
                }
                // Clause is unit or conflicting.
                if !self.enqueue(first, ci) {
                    // Conflict: restore remaining watchers.
                    self.watches[false_lit.index()].extend_from_slice(&watchers);
                    return Some(ci);
                }
                i += 1;
            }
            self.watches[false_lit.index()].extend_from_slice(&watchers);
        }
        None
    }

    fn bump_var(&mut self, v: Var) {
        self.activity[v as usize] += self.var_inc;
        if self.activity[v as usize] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
    }

    /// 1UIP conflict analysis; returns (learned clause, backjump level).
    fn analyze(&mut self, mut conflict: usize) -> (Vec<Lit>, u32) {
        let mut learned: Vec<Lit> = vec![Lit::pos(0)]; // placeholder for asserting literal
        let mut seen = vec![false; self.num_vars()];
        let mut counter = 0usize;
        let mut p: Option<Lit> = None;
        let mut trail_idx = self.trail.len();
        // synthlint: allow(unpolled-loop) — 1UIP resolution walks the finite trail backwards
        loop {
            // The reason side of the current conflict/antecedent.
            let start = usize::from(p.is_some());
            for k in start..self.clauses[conflict].len() {
                let q = self.clauses[conflict][k];
                let v = q.var() as usize;
                if !seen[v] && self.level[v] > 0 {
                    seen[v] = true;
                    self.bump_var(q.var());
                    if self.level[v] == self.decision_level() {
                        counter += 1;
                    } else {
                        learned.push(q);
                    }
                }
            }
            // Select next literal to expand: last trail literal seen.
            // synthlint: allow(unpolled-loop) — scans the trail for a seen literal; bounded by trail length
            loop {
                trail_idx -= 1;
                let l = self.trail[trail_idx];
                if seen[l.var() as usize] {
                    p = Some(l);
                    break;
                }
            }
            let pv = p.expect("found").var() as usize;
            counter -= 1;
            if counter == 0 {
                learned[0] = p.expect("found").negate();
                break;
            }
            conflict = self.reason[pv];
            debug_assert_ne!(conflict, INVALID);
            seen[pv] = false;
        }
        // Backjump level: second-highest level in the learned clause.
        let bj = learned[1..]
            .iter()
            .map(|l| self.level[l.var() as usize])
            .max()
            .unwrap_or(0);
        // Put a literal of the backjump level in position 1 for watching.
        if learned.len() > 1 {
            let pos = learned[1..]
                .iter()
                .position(|l| self.level[l.var() as usize] == bj)
                .expect("bj literal exists")
                + 1;
            learned.swap(1, pos);
        }
        (learned, bj)
    }

    /// Adds a theory lemma between searches: logged as a
    /// [`ProofStep::TheoryLemma`] (its justification is the theory, not
    /// the clause database) and otherwise handled like
    /// [`SatSolver::add_clause`].
    pub(crate) fn add_theory_lemma(&mut self, mut lits: Vec<Lit>) {
        lits.sort();
        lits.dedup();
        if self.proof.is_some() {
            let logged = lits.clone();
            self.log(|| ProofStep::TheoryLemma(logged));
        }
        self.insert_clause(lits, false);
    }

    /// Integrates a theory clause during search: backjumps just far enough
    /// for the clause to become unit (or free) and attaches it — in place,
    /// without a backjump, when two of its literals are unassigned (a
    /// lemma over fresh split atoms). Returns `false` when the clause is
    /// conflicting at the root level (unsat).
    fn learn_theory_clause(&mut self, mut lits: Vec<Lit>) -> bool {
        lits.sort();
        lits.dedup();
        // Theory lemmas are axioms of the propositional abstraction: the
        // trace records them as theory-lemma steps — replayed like inputs
        // (their justification lives in the theory solver, not in
        // resolution) but tagged so certificate provenance is auditable.
        if self.proof.is_some() {
            let logged = lits.clone();
            self.log(|| ProofStep::TheoryLemma(logged));
        }
        if lits.is_empty() {
            self.unsat_at_root = true;
            return false;
        }
        // Unassigned literals first (they count as the current level), then
        // by assignment level, highest first.
        let lvl = |me: &SatSolver, l: Lit| -> u32 {
            if me.assign[l.var() as usize].is_some() {
                me.level[l.var() as usize]
            } else {
                me.decision_level()
            }
        };
        lits.sort_by_key(|&l| (self.value(l).is_some(), std::cmp::Reverse(lvl(self, l))));
        if lits.len() >= 2 && self.value(lits[1]).is_none() {
            self.attach(lits);
            return true;
        }
        let top = lvl(self, lits[0]);
        if lits.len() == 1 || top == 0 {
            self.cancel_until(0);
            self.prop_head = 0;
            self.insert_clause(lits, false); // already traced above
            return !self.unsat_at_root;
        }
        let second = lvl(self, lits[1]);
        let target = if second == top {
            top.saturating_sub(1)
        } else {
            second
        };
        self.cancel_until(target);
        self.prop_head = self.trail.len();
        let first = lits[0];
        let now_unit =
            lits[1..].iter().all(|&l| self.value(l) == Some(false)) && self.value(first).is_none();
        let idx = self.attach(lits);
        if now_unit && !self.enqueue(first, idx) {
            // Cannot happen (first was unassigned), but stay safe.
            self.unsat_at_root = self.decision_level() == 0;
            return !self.unsat_at_root;
        }
        true
    }

    /// Attaches a clause of two or more literals, watching its first two,
    /// and returns its index.
    fn attach(&mut self, lits: Vec<Lit>) -> usize {
        let idx = self.clauses.len();
        self.watches[lits[0].index()].push(idx);
        self.watches[lits[1].index()].push(idx);
        self.clauses.push(lits);
        idx
    }

    fn cancel_until(&mut self, lvl: u32) {
        // synthlint: allow(unpolled-loop) — pops the trail down to a level; bounded by trail length
        while self.decision_level() > lvl {
            let lim = self.trail_lim.pop().expect("level");
            while self.trail.len() > lim {
                let l = self.trail.pop().expect("trail");
                self.assign[l.var() as usize] = None;
                self.reason[l.var() as usize] = INVALID;
            }
        }
        self.prop_head = self.trail.len().min(self.prop_head);
        if lvl == 0 {
            self.prop_head = self.prop_head.min(self.trail.len());
        }
    }

    fn pick_branch(&self) -> Option<Var> {
        let mut best: Option<(Var, f64)> = None;
        for v in 0..self.num_vars() {
            if self.assign[v].is_none() {
                let a = self.activity[v];
                match best {
                    Some((_, ba)) if ba >= a => {}
                    _ => best = Some((v as Var, a)),
                }
            }
        }
        best.map(|(v, _)| v)
    }

    /// Solves the current clause set.
    ///
    /// `max_conflicts` bounds the search effort; `None` means unbounded.
    /// Returns [`SatResult::Sat`] with a full model, [`SatResult::Unsat`],
    /// or — only when the conflict budget runs out — `Unsat` is *not*
    /// returned; instead the caller gets `None` via [`SatSolver::solve_budgeted`].
    pub fn solve(&mut self, max_conflicts: Option<u64>) -> SatResult {
        self.solve_budgeted(max_conflicts)
            .expect("conflict budget exhausted; use solve_budgeted for budgeted solving")
    }

    /// Like [`SatSolver::solve`] but returns `None` when the conflict budget
    /// is exhausted instead of panicking.
    pub fn solve_budgeted(&mut self, max_conflicts: Option<u64>) -> Option<SatResult> {
        self.solve_with_theory(max_conflicts, |_| None)
    }

    /// DPLL(T)-style solving: `theory` is consulted through a
    /// [`TheoryView`] after propagation settles, on partial assignments and
    /// always on the complete one before answering `sat`. Returning
    /// `Some(clause)` adds a theory clause (a conflict, or a lemma over
    /// fresh split variables) through the backjumping lemma path; the
    /// search continues from there rather than restarting.
    pub fn solve_with_theory(
        &mut self,
        max_conflicts: Option<u64>,
        theory: impl FnMut(&mut TheoryView<'_>) -> Option<Vec<Lit>>,
    ) -> Option<SatResult> {
        self.solve_under(&[], max_conflicts, theory)
    }

    /// [`SatSolver::solve_with_theory`] under *assumptions*: the given
    /// literals are installed as pseudo-decisions (one per decision level,
    /// in order) before any real branching, MiniSat-style. `Unsat` then
    /// means "unsatisfiable together with the assumptions" — the clause
    /// database itself may still be satisfiable, and the solver stays
    /// usable for later calls with different assumptions. This is the
    /// engine under [`crate::SmtSession`] scopes: scope selectors are
    /// assumed true while the scope is open.
    ///
    /// Learned clauses may mention negated assumption literals but are
    /// derived by resolution from the clause database alone, so the DRAT
    /// trace stays checkable; an unsat-under-assumptions answer certifies
    /// by replaying the trace with one extra `Input` unit per assumption.
    pub fn solve_under(
        &mut self,
        assumptions: &[Lit],
        max_conflicts: Option<u64>,
        theory: impl FnMut(&mut TheoryView<'_>) -> Option<Vec<Lit>>,
    ) -> Option<SatResult> {
        self.solve_under_polled(assumptions, max_conflicts, || true, theory)
    }

    /// [`SatSolver::solve_under`] with a cancellation hook: `poll` is
    /// consulted every [`POLL_CONFLICT_STRIDE`] conflicts and a `false`
    /// return abandons the search (`None`, root level restored). This is how
    /// a daemon cancel reaches the middle of a conflict chunk instead of
    /// waiting out up to `max_conflicts` of CDCL churn.
    pub fn solve_under_polled(
        &mut self,
        assumptions: &[Lit],
        max_conflicts: Option<u64>,
        mut poll: impl FnMut() -> bool,
        mut theory: impl FnMut(&mut TheoryView<'_>) -> Option<Vec<Lit>>,
    ) -> Option<SatResult> {
        if self.unsat_at_root {
            return Some(SatResult::Unsat);
        }
        self.cancel_until(0);
        self.prop_head = 0;
        if self.propagate().is_some() {
            self.unsat_at_root = true;
            return Some(SatResult::Unsat);
        }
        let mut conflicts_this_call: u64 = 0;
        let mut restart_unit = 0u32;
        let mut restart_budget = luby(restart_unit) * 128;
        loop {
            match self.propagate() {
                Some(conflict) => {
                    self.conflicts_total += 1;
                    conflicts_this_call += 1;
                    self.search.open.conflicts += 1;
                    self.search.episode_conflicts += 1;
                    if let Some(max) = max_conflicts {
                        if conflicts_this_call > max {
                            self.cancel_until(0);
                            return None;
                        }
                    }
                    if conflicts_this_call.is_multiple_of(POLL_CONFLICT_STRIDE) && !poll() {
                        self.cancel_until(0);
                        return None;
                    }
                    if self.decision_level() == 0 {
                        self.unsat_at_root = true;
                        return Some(SatResult::Unsat);
                    }
                    let (mut learned, bj) = self.analyze(conflict);
                    // Levels are still pre-backjump here, so the LBD of the
                    // learned clause is computable exactly at learn time.
                    self.search_record_learned(&learned);
                    if self.sabotage_learning {
                        // Seeded soundness bug (tests only): assert the
                        // wrong polarity of the 1UIP literal.
                        learned[0] = learned[0].negate();
                    }
                    if self.proof.is_some() {
                        let logged = learned.clone();
                        self.log(|| ProofStep::Learn(logged));
                    }
                    self.cancel_until(bj);
                    self.prop_head = self.trail.len();
                    if learned.len() == 1 {
                        if !self.enqueue(learned[0], INVALID) {
                            self.unsat_at_root = true;
                            return Some(SatResult::Unsat);
                        }
                    } else {
                        let asserting = learned[0];
                        let idx = self.attach(learned);
                        let ok = self.enqueue(asserting, idx);
                        debug_assert!(ok || self.sabotage_learning);
                    }
                    self.var_inc *= 1.05;
                    restart_budget = restart_budget.saturating_sub(1);
                    if restart_budget == 0 {
                        restart_unit += 1;
                        restart_budget = luby(restart_unit) * 128;
                        self.cancel_until(0);
                        self.prop_head = 0;
                        self.search_record_restart();
                    }
                    if self.search.open.conflicts >= SEARCH_SAMPLE_CONFLICTS {
                        self.search_close_interval();
                    }
                }
                None => {
                    // Install pending assumptions first, one per level (so a
                    // restart or backjump re-installs them naturally). A
                    // falsified assumption ends the search: unsat *under the
                    // assumptions*, with the root database untouched.
                    if (self.decision_level() as usize) < assumptions.len() {
                        let a = assumptions[self.decision_level() as usize];
                        match self.value(a) {
                            Some(false) => {
                                self.cancel_until(0);
                                return Some(SatResult::Unsat);
                            }
                            Some(true) => {
                                // Already implied: open an empty level to
                                // keep level k ↔ assumption k aligned.
                                self.trail_lim.push(self.trail.len());
                            }
                            None => {
                                self.trail_lim.push(self.trail.len());
                                let ok = self.enqueue(a, INVALID);
                                debug_assert!(ok);
                            }
                        }
                        continue;
                    }
                    // Propagation settled: consult the theory before
                    // extending the assignment (the final check when every
                    // variable is assigned).
                    let vars = self.num_vars();
                    let mut view = TheoryView {
                        complete: self.trail.len() == vars,
                        give_up: false,
                        sat: self,
                    };
                    let lemma = theory(&mut view);
                    if view.give_up {
                        self.cancel_until(0);
                        return None;
                    }
                    if let Some(clause) = lemma {
                        if !self.learn_theory_clause(clause) {
                            return Some(SatResult::Unsat);
                        }
                        continue;
                    }
                    match self.pick_branch() {
                        None => {
                            let model: Vec<bool> =
                                self.assign.iter().map(|a| a.unwrap_or(false)).collect();
                            return Some(SatResult::Sat(model));
                        }
                        Some(v) => {
                            self.search.open.decisions += 1;
                            self.trail_lim.push(self.trail.len());
                            let lit = Lit::new(v, !self.phase[v as usize]);
                            let ok = self.enqueue(lit, INVALID);
                            debug_assert!(ok);
                        }
                    }
                }
            }
        }
    }
}

/// The Luby restart sequence (1,1,2,1,1,2,4,…).
fn luby(i: u32) -> u64 {
    // Find the finite subsequence containing index i.
    let mut k = 1u32;
    // synthlint: allow(unpolled-loop) — Luby index arithmetic; bounded by the u64 bit width
    while (1u64 << k) - 1 < u64::from(i) + 1 {
        k += 1;
    }
    let mut i = u64::from(i) + 1;
    let mut kk = k;
    // synthlint: allow(unpolled-loop) — strictly decreasing subsequence index; terminates in ≤ 64 rounds
    while i != (1u64 << kk) - 1 {
        i -= (1u64 << (kk - 1)) - 1;
        kk = 1;
        // synthlint: allow(unpolled-loop) — Luby index arithmetic; bounded by the u64 bit width
        while (1u64 << kk) - 1 < i {
            kk += 1;
        }
    }
    1u64 << (kk - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_model(clauses: &[Vec<Lit>], model: &[bool]) {
        for c in clauses {
            assert!(
                c.iter().any(|l| model[l.var() as usize] != l.is_neg()),
                "clause {c:?} falsified by model"
            );
        }
    }

    #[test]
    fn trivial_sat() {
        let mut s = SatSolver::new();
        let a = s.new_var();
        s.add_clause(vec![Lit::pos(a)]);
        match s.solve(None) {
            SatResult::Sat(m) => assert!(m[a as usize]),
            SatResult::Unsat => panic!("should be sat"),
        }
    }

    #[test]
    fn trivial_unsat() {
        let mut s = SatSolver::new();
        let a = s.new_var();
        s.add_clause(vec![Lit::pos(a)]);
        s.add_clause(vec![Lit::neg(a)]);
        assert_eq!(s.solve(None), SatResult::Unsat);
    }

    #[test]
    fn empty_clause_unsat() {
        let mut s = SatSolver::new();
        s.add_clause(vec![]);
        assert_eq!(s.solve(None), SatResult::Unsat);
    }

    #[test]
    fn no_clauses_sat() {
        let mut s = SatSolver::new();
        s.new_var();
        assert!(matches!(s.solve(None), SatResult::Sat(_)));
    }

    #[test]
    fn tautology_ignored() {
        let mut s = SatSolver::new();
        let a = s.new_var();
        s.add_clause(vec![Lit::pos(a), Lit::neg(a)]);
        assert!(matches!(s.solve(None), SatResult::Sat(_)));
    }

    #[test]
    fn chain_implication() {
        // a, a->b, b->c, c->d ⟹ d
        let mut s = SatSolver::new();
        let vars: Vec<Var> = (0..4).map(|_| s.new_var()).collect();
        s.add_clause(vec![Lit::pos(vars[0])]);
        for w in vars.windows(2) {
            s.add_clause(vec![Lit::neg(w[0]), Lit::pos(w[1])]);
        }
        match s.solve(None) {
            SatResult::Sat(m) => assert!(vars.iter().all(|&v| m[v as usize])),
            SatResult::Unsat => panic!("sat expected"),
        }
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // index pairs (i, j) with i < j
    fn pigeonhole_3_into_2_unsat() {
        // 3 pigeons, 2 holes: p_{i,h}
        let mut s = SatSolver::new();
        let mut p = [[0; 2]; 3];
        for row in p.iter_mut() {
            for cell in row.iter_mut() {
                *cell = s.new_var();
            }
        }
        // each pigeon in some hole
        for row in &p {
            s.add_clause(row.iter().map(|&v| Lit::pos(v)).collect());
        }
        // no two pigeons share a hole
        for h in 0..2 {
            for i in 0..3 {
                for j in (i + 1)..3 {
                    s.add_clause(vec![Lit::neg(p[i][h]), Lit::neg(p[j][h])]);
                }
            }
        }
        assert_eq!(s.solve(None), SatResult::Unsat);
    }

    #[test]
    fn search_intervals_account_for_every_conflict_and_lbd() {
        let mut s = SatSolver::new();
        pigeonhole(6, 5, &mut s);
        assert_eq!(s.solve(None), SatResult::Unsat);
        let conflicts = s.conflicts();
        assert!(conflicts > 0);
        let intervals = s.take_search_intervals(true);
        assert!(!intervals.is_empty());
        // Every conflict lands in exactly one drained interval.
        let total: u64 = intervals.iter().map(|i| i.conflicts).sum();
        assert_eq!(total, conflicts);
        let decisions: u64 = intervals.iter().map(|i| i.decisions).sum();
        let propagations: u64 = intervals.iter().map(|i| i.propagations).sum();
        assert!(decisions > 0, "pigeonhole needs branching");
        assert!(propagations > 0, "pigeonhole needs propagation");
        for iv in &intervals {
            // One raw LBD per learned clause, and the aggregates match.
            assert_eq!(iv.lbds.len() as u64, iv.lbd_count);
            assert_eq!(iv.lbds.iter().map(|&l| u64::from(l)).sum::<u64>(), iv.lbd_sum);
            // LBD of any learned clause is at least 1, so sum >= count.
            assert!(iv.lbd_sum >= iv.lbd_count);
            // Only the terminal root-level conflict learns nothing.
            assert!(iv.conflicts - iv.lbd_count <= 1);
        }
        // The final interval saw the clause DB grow past the input clauses.
        assert!(intervals.last().unwrap().db_clauses as usize >= s.num_clauses());
        // Drain is a take: a second call returns nothing new.
        assert!(s.take_search_intervals(true).is_empty());
    }

    #[test]
    fn search_intervals_record_restart_episodes() {
        let mut s = SatSolver::new();
        pigeonhole(8, 7, &mut s);
        assert_eq!(s.solve(None), SatResult::Unsat);
        let intervals = s.take_search_intervals(true);
        let restarts: u64 = intervals.iter().map(|i| i.restarts).sum();
        let episodes: usize = intervals.iter().map(|i| i.episodes.len()).sum();
        assert_eq!(restarts as usize, episodes, "one episode record per restart");
        assert!(restarts > 0, "PHP(8,7) should outlast the first Luby budget");
        for ep in intervals.iter().flat_map(|i| &i.episodes) {
            // The Luby unit is 128 conflicts, so a closed episode saw at
            // least that many, and learned a clause per conflict.
            assert!(ep.conflicts >= 128, "short episode: {ep:?}");
            assert_eq!(ep.lbd_count, ep.conflicts);
            assert!(ep.lbd_sum >= ep.lbd_count);
        }
    }

    #[test]
    fn incremental_blocking() {
        let mut s = SatSolver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause(vec![Lit::pos(a), Lit::pos(b)]);
        let mut models = 0;
        while let SatResult::Sat(m) = s.solve(None) {
            models += 1;
            // block this model
            let block: Vec<Lit> = (0..2).map(|v| Lit::new(v as Var, m[v])).collect();
            s.add_clause(block);
            assert!(models <= 4, "too many models");
        }
        assert_eq!(models, 3); // (T,T), (T,F), (F,T)
    }

    #[test]
    fn random_3sat_vs_bruteforce() {
        // Deterministic LCG; compare with brute force for n ≤ 10.
        let mut seed = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            seed >> 33
        };
        for trial in 0..60 {
            let n = 4 + (next() % 6) as usize; // 4..9 vars
            let m = n * 4;
            let mut clauses: Vec<Vec<Lit>> = Vec::new();
            for _ in 0..m {
                let mut c: Vec<Lit> = Vec::new();
                for _ in 0..3 {
                    let v = (next() % n as u64) as Var;
                    let negated = next() % 2 == 0;
                    c.push(Lit::new(v, negated));
                }
                clauses.push(c);
            }
            // brute force
            let mut brute_sat = false;
            'outer: for bits in 0u32..(1 << n) {
                let model: Vec<bool> = (0..n).map(|i| bits >> i & 1 == 1).collect();
                for c in &clauses {
                    if !c.iter().any(|l| model[l.var() as usize] != l.is_neg()) {
                        continue 'outer;
                    }
                }
                brute_sat = true;
                break;
            }
            let mut s = SatSolver::new();
            for _ in 0..n {
                s.new_var();
            }
            for c in &clauses {
                s.add_clause(c.clone());
            }
            match s.solve(None) {
                SatResult::Sat(model) => {
                    assert!(brute_sat, "trial {trial}: solver sat, brute unsat");
                    check_model(&clauses, &model);
                }
                SatResult::Unsat => {
                    assert!(!brute_sat, "trial {trial}: solver unsat, brute sat");
                }
            }
        }
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // index pairs (i, j) with i < j
    fn budget_exhaustion_returns_none_or_result() {
        let mut s = SatSolver::new();
        let mut p = vec![[0; 4]; 5];
        for row in p.iter_mut() {
            for cell in row.iter_mut() {
                *cell = s.new_var();
            }
        }
        for row in &p {
            s.add_clause(row.iter().map(|&v| Lit::pos(v)).collect());
        }
        for h in 0..4 {
            for i in 0..5 {
                for j in (i + 1)..5 {
                    s.add_clause(vec![Lit::neg(p[i][h]), Lit::neg(p[j][h])]);
                }
            }
        }
        // Tiny budget: must either finish (Unsat) or politely give up.
        match s.solve_budgeted(Some(3)) {
            None | Some(SatResult::Unsat) => {}
            Some(SatResult::Sat(_)) => panic!("pigeonhole cannot be sat"),
        }
        // Full solve still works afterwards.
        assert_eq!(s.solve(None), SatResult::Unsat);
    }

    fn pigeonhole(pigeons: usize, holes: usize, s: &mut SatSolver) {
        let mut p = vec![vec![0; holes]; pigeons];
        for row in p.iter_mut() {
            for cell in row.iter_mut() {
                *cell = s.new_var();
            }
        }
        for row in &p {
            s.add_clause(row.iter().map(|&v| Lit::pos(v)).collect());
        }
        for i in 0..pigeons {
            for j in (i + 1)..pigeons {
                for (&a, &b) in p[i].iter().zip(&p[j]) {
                    s.add_clause(vec![Lit::neg(a), Lit::neg(b)]);
                }
            }
        }
    }

    #[test]
    fn unsat_proof_certifies() {
        let mut s = SatSolver::new();
        s.enable_proof();
        pigeonhole(4, 3, &mut s);
        assert_eq!(s.solve(None), SatResult::Unsat);
        let stats = crate::drat::check_refutation(s.proof_steps()).expect("valid refutation");
        assert!(stats.learned > 0, "expected learned clauses: {stats:?}");
    }

    #[test]
    fn sat_model_satisfies_traced_clauses() {
        let mut s = SatSolver::new();
        s.enable_proof();
        let vars: Vec<Var> = (0..4).map(|_| s.new_var()).collect();
        s.add_clause(vec![Lit::pos(vars[0])]);
        for w in vars.windows(2) {
            s.add_clause(vec![Lit::neg(w[0]), Lit::pos(w[1])]);
        }
        match s.solve(None) {
            SatResult::Sat(m) => assert!(crate::drat::model_satisfies(s.proof_steps(), &m)),
            SatResult::Unsat => panic!("sat expected"),
        }
    }

    #[test]
    fn seeded_clause_learning_bug_is_caught() {
        // Same instance as `unsat_proof_certifies`, but with the learning
        // mutation seeded: the trace must be rejected. This is the
        // end-to-end demonstration that a soundness bug in the CDCL loop
        // cannot slip past the certifier.
        let mut s = SatSolver::new();
        s.enable_proof();
        s.seed_clause_learning_bug();
        pigeonhole(4, 3, &mut s);
        match s.solve_budgeted(Some(200_000)) {
            Some(SatResult::Unsat) => {
                assert!(
                    crate::drat::check_refutation(s.proof_steps()).is_err(),
                    "corrupted derivation must not certify"
                );
            }
            // The mutation may instead surface as a bogus model or budget
            // exhaustion; a bogus model is caught by the model check.
            Some(SatResult::Sat(m)) => {
                assert!(
                    !crate::drat::model_satisfies(s.proof_steps(), &m),
                    "pigeonhole has no model; a claimed one must fail the check"
                );
            }
            None => {}
        }
    }

    #[test]
    fn proof_trace_is_deterministic() {
        let run = || {
            let mut s = SatSolver::new();
            s.enable_proof();
            pigeonhole(4, 3, &mut s);
            let _ = s.solve(None);
            crate::drat::drat_text(s.proof_steps())
        };
        let a = run();
        assert_eq!(a, run());
        assert!(a.lines().any(|l| l.starts_with("i ")));
    }

    #[test]
    fn assumptions_scope_the_answer() {
        // DB: a ∨ b. Under assumption ¬a the model must set b; under
        // assumptions ¬a ∧ ¬b the query is unsat, but the DB itself stays
        // satisfiable for later calls.
        let mut s = SatSolver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause(vec![Lit::pos(a), Lit::pos(b)]);
        match s.solve_under(&[Lit::neg(a)], None, |_| None) {
            Some(SatResult::Sat(m)) => {
                assert!(!m[a as usize] && m[b as usize]);
            }
            other => panic!("expected sat, got {other:?}"),
        }
        assert_eq!(
            s.solve_under(&[Lit::neg(a), Lit::neg(b)], None, |_| None),
            Some(SatResult::Unsat)
        );
        // Not root-unsat: a plain solve still finds a model.
        assert!(matches!(s.solve(None), SatResult::Sat(_)));
        // And the same assumptions still answer unsat on the reused solver.
        assert_eq!(
            s.solve_under(&[Lit::neg(b), Lit::neg(a)], None, |_| None),
            Some(SatResult::Unsat)
        );
    }

    #[test]
    fn assumption_unsat_certifies_with_assumption_units() {
        // Pigeonhole guarded by a selector: unsat only under the selector.
        let mut s = SatSolver::new();
        s.enable_proof();
        let sel = s.new_var();
        let mut p = [[0; 3]; 4];
        for row in p.iter_mut() {
            for cell in row.iter_mut() {
                *cell = s.new_var();
            }
        }
        for row in &p {
            let mut c: Vec<Lit> = vec![Lit::neg(sel)];
            c.extend(row.iter().map(|&v| Lit::pos(v)));
            s.add_clause(c);
        }
        for i in 0..4 {
            for j in (i + 1)..4 {
                for (&x, &y) in p[i].iter().zip(&p[j]) {
                    s.add_clause(vec![Lit::neg(sel), Lit::neg(x), Lit::neg(y)]);
                }
            }
        }
        assert_eq!(
            s.solve_under(&[Lit::pos(sel)], None, |_| None),
            Some(SatResult::Unsat)
        );
        // The trace refutes once the assumption is added as an input unit.
        let mut steps = s.proof_steps().to_vec();
        steps.push(ProofStep::Input(vec![Lit::pos(sel)]));
        crate::drat::check_refutation(&steps).expect("assumption-unsat trace certifies");
        // Without the selector the instance is satisfiable.
        assert!(matches!(s.solve(None), SatResult::Sat(_)));
    }

    #[test]
    fn retire_clauses_drops_guarded_scope() {
        let mut s = SatSolver::new();
        s.enable_proof();
        let sel = s.new_var();
        let a = s.new_var();
        let b = s.new_var();
        // Guarded scope: sel → (a ∧ ¬b); global: a ∨ b.
        s.add_clause(vec![Lit::neg(sel), Lit::pos(a)]);
        s.add_clause(vec![Lit::neg(sel), Lit::neg(b)]);
        s.add_clause(vec![Lit::pos(a), Lit::pos(b)]);
        let before = s.num_clauses();
        assert_eq!(before, 3);
        // Pop the scope: fix the selector false, then retire its clauses.
        s.add_clause(vec![Lit::neg(sel)]);
        let removed = s.retire_clauses_with(Lit::neg(sel));
        assert_eq!(removed, 2);
        assert_eq!(s.num_clauses(), 1);
        // The remaining database still solves and its model respects a ∨ b.
        match s.solve(None) {
            SatResult::Sat(m) => assert!(m[a as usize] || m[b as usize]),
            SatResult::Unsat => panic!("sat expected"),
        }
        // The trace (with deletions) still replays for a model check.
        match s.solve(None) {
            SatResult::Sat(m) => assert!(crate::drat::model_satisfies(s.proof_steps(), &m)),
            SatResult::Unsat => unreachable!(),
        }
    }

    #[test]
    fn luby_sequence() {
        let expect = [1u64, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8];
        for (i, &e) in expect.iter().enumerate() {
            assert_eq!(luby(i as u32), e, "luby({i})");
        }
    }

    #[test]
    fn lit_encoding() {
        let l = Lit::pos(5);
        assert_eq!(l.var(), 5);
        assert!(!l.is_neg());
        assert_eq!(l.negate().var(), 5);
        assert!(l.negate().is_neg());
        assert_eq!(l.negate().negate(), l);
        assert_eq!(Lit::new(3, true), Lit::neg(3));
    }
}
