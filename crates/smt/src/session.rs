//! Persistent SMT sessions with scoped assertions — the lazy DPLL(T) loop
//! behind every query: the CEGIS loops keep one session across queries, and
//! [`SmtSolver`](crate::SmtSolver) answers each one-shot query in a fresh
//! one.
//!
//! A [`SmtSession`] keeps one CDCL SAT core, one Tseitin/atom encoding
//! cache, and one warm theory engine alive across queries. Assertions are
//! grouped into scopes ([`SmtSession::push`] / [`SmtSession::pop`]),
//! implemented MiniSat-style with *selector literals*: scope `k` gets a
//! fresh selector variable `s_k`, every clause asserted inside the scope is
//! guarded as `¬s_k ∨ C`, and a query solves under the assumptions
//! `s_1 … s_k` of the open scopes. Popping a scope fixes `¬s_k` at the root
//! — permanently satisfying, and then retiring from the SAT core, every
//! clause guarded by it, *including* lemmas learned while it was open,
//! which carry `¬s_k` by construction.
//!
//! What persists across queries and pops:
//!
//! * learned clauses, VSIDS activities, and saved phases of the SAT core —
//!   a CEGIS re-query only pays for the delta, not a re-search;
//! * the hash-consed `Term → Lit` encoding cache and atom table (cache hits
//!   surface as the `smt.encode_cache_hits` metric);
//! * purification results: each distinct integer `ite` is lifted to a fresh
//!   variable once, with its defining side constraints asserted globally
//!   (they are definitional, so they must outlive the scope that first
//!   mentioned them);
//! * the theory engine: new variables and linear forms grow it in place
//!   ([`TheorySolver::add_var`] / [`TheorySolver::add_atom`]);
//! * the static-lemma dedup set, so eager theory lemmas are emitted once.
//!
//! Certification (always on): `sat` models are re-evaluated with exact
//! integer arithmetic against the conjunction of the *active* assertions,
//! and `unsat` answers replay the DRAT trace — extended with one input unit
//! per open-scope selector, which is precisely the statement "unsat under
//! these assumptions".

use crate::drat::ProofStep;
use crate::inc_lra::LinearAtom;
use crate::solver::{
    add_static_lemmas, certify_sat_model, certify_unsat_steps, poll_budget, Atom, Encoder, Model,
    Purifier, SmtConfig, SmtError, SmtResult, TheoryChecker, TheoryOutcome, Validity,
};
use crate::theory::{fits_dl, TheorySelect, TheorySolver};
use crate::{DifferenceLogic, IncrementalLra, Lit, SatResult};
use std::collections::{BTreeMap, HashSet};
use sygus_ast::trace::Stage;
use sygus_ast::{Sort, Symbol, Term};

/// Pivot cap for the *eager* incremental feasibility check consulted from
/// inside the SAT search. Normal repair takes a handful of pivots; on
/// tableaus whose rational coefficients explode, the eager check gives up
/// at the cap and the authoritative (node- and pivot-budgeted) full-model
/// check decides instead — without this, a single `IncrementalLra::check`
/// can pivot for minutes while the deadline is never consulted.
const THEORY_PIVOT_CAP: u64 = 200_000;

/// The static counter name for a retry-ladder rung (allocation-free; the
/// ladder is short — the default config takes at most 2 escalations).
fn retry_rung_counter(escalation: u32) -> &'static str {
    match escalation {
        1 => "smt.retry.rung1",
        2 => "smt.retry.rung2",
        3 => "smt.retry.rung3",
        4 => "smt.retry.rung4",
        _ => "smt.retry.rung5+",
    }
}

/// One open assertion scope.
struct Scope {
    /// The selector literal assumed true while the scope is open.
    selector: Lit,
    /// Purified main terms asserted in this scope (for sat certification).
    asserted: Vec<Term>,
}

/// A persistent incremental SMT solver with `push`/`pop` assertion scopes.
///
/// # Examples
///
/// ```
/// use smtkit::{SmtConfig, SmtResult, SmtSession};
/// use sygus_ast::Term;
/// let x = Term::int_var("x");
/// let mut s = SmtSession::new(SmtConfig::default());
/// s.assert_term(&Term::ge(x.clone(), Term::int(0))).unwrap();
/// s.push();
/// s.assert_term(&Term::lt(x.clone(), Term::int(0))).unwrap();
/// assert_eq!(s.check_sat().unwrap(), SmtResult::Unsat);
/// s.pop();
/// assert!(matches!(s.check_sat().unwrap(), SmtResult::Sat(_)));
/// ```
pub struct SmtSession {
    cfg: SmtConfig,
    pur: Purifier,
    enc: Encoder,
    /// Root-scope assertions (purified) plus every purification side
    /// constraint, for sat-model certification.
    base_asserts: Vec<Term>,
    scopes: Vec<Scope>,
    /// First-come integer-variable indexing shared by all queries.
    index: BTreeMap<Symbol, usize>,
    /// Warm theory state, grown as new atoms appear; `None` until the first
    /// check that sees an atom picks the engine (see
    /// [`SmtSession::sync_theory`]).
    inc: Option<Box<dyn TheorySolver>>,
    /// Every registered atom in registration order — the source the engine
    /// is built (or migrated) from.
    lin_atoms: Vec<LinearAtom>,
    /// Sorted literal pairs of static lemmas already emitted.
    lemma_seen: HashSet<(Lit, Lit)>,
    /// Clauses learned during earlier checks that are still attached.
    learned_live: usize,
    /// Completed `check_sat` calls.
    checks: u64,
}

impl SmtSession {
    /// Creates a session. Bumps the `smt.sessions` metric on the budget's
    /// tracer.
    pub fn new(cfg: SmtConfig) -> SmtSession {
        cfg.budget.tracer().metrics().bump("smt.sessions");
        SmtSession {
            enc: Encoder::new(),
            pur: Purifier::new(),
            base_asserts: Vec::new(),
            scopes: Vec::new(),
            index: BTreeMap::new(),
            inc: None,
            lin_atoms: Vec::new(),
            lemma_seen: HashSet::new(),
            learned_live: 0,
            checks: 0,
            cfg,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &SmtConfig {
        &self.cfg
    }

    /// The number of open scopes.
    pub fn depth(&self) -> usize {
        self.scopes.len()
    }

    /// Opens a new assertion scope. Bumps the `smt.scopes_pushed` metric.
    pub fn push(&mut self) {
        let v = self.enc.sat.new_var();
        self.scopes.push(Scope {
            selector: Lit::pos(v),
            asserted: Vec::new(),
        });
        // Keep the theory engine's assertion frames aligned with the
        // selector scopes (the callback resync makes this redundant for
        // correctness, but it bounds the engine's trail and keeps the
        // TheorySolver contract honest for engines that rely on it).
        if let Some(inc) = &mut self.inc {
            inc.push();
        }
        self.cfg.budget.tracer().metrics().bump("smt.scopes_pushed");
    }

    /// Closes the innermost scope, discarding its assertions. The scope's
    /// selector is fixed false at the root, permanently satisfying every
    /// clause guarded by it (including lemmas learned while it was open).
    /// Those clauses would only slow down propagation, so they are then
    /// retired from the SAT core, with matching deletions in the DRAT trace.
    ///
    /// A `pop` with no open scope is a no-op.
    pub fn pop(&mut self) {
        let Some(scope) = self.scopes.pop() else {
            return;
        };
        let dead = scope.selector.negate();
        self.enc.sat.add_clause(vec![dead]);
        if let Some(inc) = &mut self.inc {
            inc.pop();
        }
        let removed = self.enc.sat.retire_clauses_with(dead);
        self.learned_live = self.learned_live.saturating_sub(removed);
    }

    /// Asserts a boolean term in the current (innermost) scope.
    ///
    /// Purification side constraints introduced here are asserted globally
    /// regardless of the current scope: they only *define* fresh variables,
    /// and the encoding cache lets a later scope reuse them.
    ///
    /// # Errors
    ///
    /// [`SmtError::Unsupported`] for non-QF_LIA input. After an error the
    /// session stays usable, but fragments of the failed term's encoding
    /// may remain cached.
    pub fn assert_term(&mut self, t: &Term) -> Result<(), SmtError> {
        if t.sort() != Sort::Bool {
            return Err(SmtError::Unsupported("assertion must be boolean".into()));
        }
        let hits_before = self.enc.cache_hits;
        let main = self.pur.purify_bool(t)?;
        let side: Vec<Term> = self.pur.side.drain(..).collect();
        for s in side {
            let l = self.enc.encode(&s)?;
            self.enc.sat.add_clause(vec![l]);
            self.base_asserts.push(s);
        }
        let l = self.enc.encode(&main)?;
        match self.scopes.last_mut() {
            None => {
                self.enc.sat.add_clause(vec![l]);
                self.base_asserts.push(main);
            }
            Some(scope) => {
                let guard = scope.selector.negate();
                scope.asserted.push(main);
                self.enc.sat.add_clause(vec![guard, l]);
            }
        }
        // New atoms may relate to old ones; emit only the fresh lemmas.
        add_static_lemmas(&mut self.enc, &mut self.lemma_seen);
        let hits = self.enc.cache_hits - hits_before;
        if hits > 0 {
            self.cfg
                .budget
                .tracer()
                .metrics()
                .add("smt.encode_cache_hits", hits);
        }
        Ok(())
    }

    /// Checks satisfiability of the active assertions (root scope plus all
    /// open scopes), with the same retry ladder, metrics, and certification
    /// contract as [`SmtSolver::check`](crate::SmtSolver::check).
    ///
    /// # Errors
    ///
    /// Same conditions as [`SmtSolver::check`](crate::SmtSolver::check).
    pub fn check_sat(&mut self) -> Result<SmtResult, SmtError> {
        self.cfg.budget.note_smt_query();
        let tracer = self.cfg.budget.tracer().clone();
        // Session queries have no single formula; the active clause count
        // is the closest "query size" for the progress line.
        tracer
            .progress()
            .note_smt_check(self.enc.sat.num_clauses() as u64);
        let span = tracer.span(Stage::Smt);
        if self.checks > 0 && self.learned_live > 0 {
            // Work carried over from earlier queries of this session.
            tracer
                .metrics()
                .add("smt.clauses_retained", self.learned_live as u64);
        }
        let clauses_before = self.enc.sat.num_clauses();
        let mut escalation: u32 = 0;
        let result = loop {
            let factor = 1u64 << (2 * escalation.min(16));
            let lia_budget = self.cfg.lia_budget.max(1).saturating_mul(factor);
            let rounds = self.cfg.max_theory_rounds.max(1).saturating_mul(factor);
            match self.check_once(lia_budget, rounds) {
                Err(SmtError::ResourceLimit(which)) => {
                    if escalation >= self.cfg.retry_escalations || self.cfg.budget.check().is_err()
                    {
                        break Err(SmtError::ResourceLimit(which));
                    }
                    escalation += 1;
                    self.cfg.budget.note_smt_retry();
                    tracer.metrics().bump(retry_rung_counter(escalation));
                }
                other => break other,
            }
        };
        // Everything added during the search (learned, blocking, and theory
        // lemma clauses) is retained for the next query.
        self.learned_live += self.enc.sat.num_clauses().saturating_sub(clauses_before);
        self.checks += 1;
        let answer = match &result {
            Ok(SmtResult::Sat(_)) => "sat",
            Ok(SmtResult::Unsat) => "unsat",
            Err(_) => "unknown",
        };
        tracer.metrics().bump(match answer {
            "sat" => "smt.sat",
            "unsat" => "smt.unsat",
            _ => "smt.unknown",
        });
        let depth = self.scopes.len();
        drop(span.with_detail(|| format!("answer={answer} rung={escalation} scopes={depth}")));
        result
    }

    /// Checks validity of `formula` given the active assertions: pushes a
    /// scope, asserts `¬formula`, checks, and pops. `Valid` means the
    /// active assertions entail `formula`; `Invalid` carries a model of the
    /// assertions falsifying it.
    ///
    /// # Errors
    ///
    /// Same conditions as [`SmtSession::check_sat`].
    pub fn check_valid(&mut self, formula: &Term) -> Result<Validity, SmtError> {
        self.push();
        let result = self
            .assert_term(&Term::not(formula.clone()))
            .and_then(|()| self.check_sat());
        self.pop();
        match result? {
            SmtResult::Unsat => Ok(Validity::Valid),
            SmtResult::Sat(m) => Ok(Validity::Invalid(m)),
        }
    }

    /// Registers encoder atoms that appeared since the last check with the
    /// theory engine. The first check that sees atoms picks the engine from
    /// all of them: difference logic when the configuration allows it and
    /// every atom fits the fragment, simplex otherwise. Later atoms grow the
    /// engine in place; one outside the DL fragment migrates a DL session to
    /// simplex, once and permanently (asserted state is rebuilt by the
    /// callback resync on the next check).
    fn sync_theory(&mut self) {
        let first_new = self.lin_atoms.len();
        for atom in &self.enc.atom_list[first_new..] {
            for &(s, _) in &atom.coeffs {
                let next = self.index.len();
                self.index.entry(s).or_insert(next);
            }
            self.lin_atoms.push((
                atom.coeffs.iter().map(|&(s, c)| (self.index[&s], c)).collect(),
                atom.is_eq,
                atom.rhs,
            ));
        }
        if self.inc.is_none() {
            if !self.lin_atoms.is_empty() {
                let dl = self.cfg.theory != TheorySelect::Simplex
                    && self.lin_atoms.iter().all(fits_dl);
                self.inc = Some(self.engine_from(self.lin_atoms.len(), dl));
            }
            return;
        }
        for next in first_new..self.lin_atoms.len() {
            let lin = &self.lin_atoms[next];
            let inc = self.inc.as_mut().expect("engine picked at the first check");
            if let Some(&top) = lin.0.iter().map(|(v, _)| v).max() {
                for _ in inc.num_vars()..=top {
                    inc.add_var();
                }
            }
            if inc.add_atom(lin).is_none() {
                self.cfg.budget.tracer().metrics().bump("theory.dl_migrations");
                self.inc = Some(self.engine_from(next + 1, false));
            }
        }
    }

    /// A difference-logic (`dl`) or simplex engine holding the first `atoms`
    /// registered atoms and the variables they mention, with one assertion
    /// frame per open scope so later pops stay paired with engine frames.
    fn engine_from(&self, atoms: usize, dl: bool) -> Box<dyn TheorySolver> {
        let atoms = &self.lin_atoms[..atoms];
        // Variables are indexed in first-mention order.
        let vars = atoms
            .iter()
            .flat_map(|(coeffs, _, _)| coeffs.iter().map(|&(v, _)| v + 1))
            .max()
            .unwrap_or(0);
        let mut inc: Box<dyn TheorySolver> = if dl {
            Box::new(DifferenceLogic::new(vars, atoms))
        } else {
            Box::new(IncrementalLra::new(vars, atoms))
        };
        for _ in 0..self.scopes.len() {
            inc.push();
        }
        inc
    }

    /// The conjunction certified against a sat model: all global assertions
    /// (side constraints included) plus the asserted terms of open scopes.
    fn active_formula(&self) -> Term {
        Term::and(
            self.base_asserts
                .iter()
                .chain(self.scopes.iter().flat_map(|s| s.asserted.iter()))
                .cloned(),
        )
    }

    /// One attempt of the lazy DPLL(T) loop under explicit limits, driving
    /// [`crate::SatSolver::solve_under`] with the open-scope selectors as
    /// assumptions.
    fn check_once(
        &mut self,
        lia_budget: u64,
        max_theory_rounds: u64,
    ) -> Result<SmtResult, SmtError> {
        poll_budget(&self.cfg.budget)?;
        self.sync_theory();
        let active = self.active_formula();
        let assumptions: Vec<Lit> = self.scopes.iter().map(|s| s.selector).collect();

        // Split disjoint field borrows: the SAT core is driven mutably while
        // the theory callback owns the warm theory engine.
        let cfg = &self.cfg;
        let enc = &mut self.enc;
        let inc = &mut self.inc;
        let index = &self.index;

        let checker = TheoryChecker {
            index: index.clone(),
            cfg,
            lia_budget,
        };
        let min_checker = TheoryChecker {
            index: index.clone(),
            cfg,
            lia_budget: (lia_budget / 64).max(200),
        };

        // The SAT variable of each registered atom, in theory-index order.
        let atom_vars: Vec<u32> = enc.atom_list.iter().map(|a| enc.atoms[a]).collect();
        // Dispatch metrics: which engine serves this check (a DL session may
        // have migrated to simplex by now).
        let use_dl = inc.as_ref().is_some_and(|inc| inc.name() == "dl");
        if cfg.theory != TheorySelect::Simplex && !atom_vars.is_empty() {
            cfg.budget.tracer().metrics().bump(if use_dl {
                "theory.dl_dispatched"
            } else {
                "theory.dl_fallbacks"
            });
        }
        let deadline_hit = std::cell::Cell::new(false);
        // Search-analytics accumulators for theory work. The callback runs
        // after every propagation settle — far too hot for the registry's
        // counter mutex — so it writes plain cells that get flushed to
        // `search.*` counters at conflict-chunk boundaries. Sessions reuse
        // the engine across checks, so the work counter is differenced
        // from the engine's lifetime total.
        let theory_checks = std::cell::Cell::new(0u64);
        let theory_conflicts = std::cell::Cell::new(0u64);
        let theory_cert_lits = std::cell::Cell::new(0u64);
        let work_before = inc.as_ref().map_or(0, |inc| inc.search_work());
        let theory_work_seen = std::cell::Cell::new(work_before);
        let theory_work_flushed = std::cell::Cell::new(work_before);
        let mut theory_cb = |assign: &[Option<bool>]| -> Option<Vec<Lit>> {
            // No engine means no atoms: a pure boolean query.
            let inc = inc.as_deref_mut()?;
            if deadline_hit.get() {
                return None;
            }
            if poll_budget(&cfg.budget).is_err() {
                deadline_hit.set(true);
                return None;
            }
            let dl_span = use_dl.then(|| cfg.budget.tracer().span(Stage::Dl));
            for (i, &v) in atom_vars.iter().enumerate() {
                match assign.get(v as usize).copied().flatten() {
                    Some(b) => inc.assert_atom(i, b),
                    None => inc.retract_atom(i),
                }
            }
            let verdict = inc.check(THEORY_PIVOT_CAP, &mut || poll_budget(&cfg.budget).is_ok());
            theory_checks.set(theory_checks.get() + 1);
            theory_work_seen.set(inc.search_work());
            drop(dl_span);
            match verdict {
                None => {
                    // The eager check gave up (deadline, or a pathological
                    // pivot sequence): report no conflict and let the
                    // authoritative budgeted full-model check decide.
                    if poll_budget(&cfg.budget).is_err() {
                        deadline_hit.set(true);
                    }
                    None
                }
                Some(Ok(())) => None,
                Some(Err(core)) => {
                    theory_conflicts.set(theory_conflicts.get() + 1);
                    theory_cert_lits.set(theory_cert_lits.get() + core.len() as u64);
                    Some(
                        core.iter()
                            .map(|&i| {
                                let pol = inc.polarity(i).expect("core atoms are asserted");
                                Lit::new(atom_vars[i], pol)
                            })
                            .collect(),
                    )
                }
            }
        };
        let flush_theory = |m: &sygus_ast::trace::MetricsRegistry| {
            let checks = theory_checks.take();
            if checks > 0 {
                m.add("search.theory_checks_total", checks);
            }
            let conflicts = theory_conflicts.take();
            if conflicts > 0 {
                m.add("search.theory_conflicts_total", conflicts);
            }
            let lits = theory_cert_lits.take();
            if lits > 0 {
                m.add("search.theory_cert_lits_total", lits);
            }
            let delta = theory_work_seen.get() - theory_work_flushed.get();
            theory_work_flushed.set(theory_work_seen.get());
            if delta > 0 {
                let name = if use_dl {
                    "search.dl_relaxations_total"
                } else {
                    "search.simplex_pivots_total"
                };
                m.add(name, delta);
            }
        };

        let mut rounds: u64 = 0;
        loop {
            poll_budget(&cfg.budget)?;
            let _ = cfg.budget.charge_fuel(1);
            cfg.budget.tracer().metrics().bump("smt.theory_rounds");
            rounds += 1;
            if rounds > max_theory_rounds {
                return Err(SmtError::ResourceLimit("theory rounds"));
            }
            // Solve the propositional abstraction in conflict chunks so the
            // deadline is honored; within a chunk the conflict-stride poll
            // lets cancellation land mid-search.
            let poll_handle = cfg.budget.clone();
            let bool_model = loop {
                let step = enc.sat.solve_under_polled(
                    &assumptions,
                    Some(20_000),
                    || poll_handle.exceeded().is_none(),
                    &mut theory_cb,
                );
                // Chunk boundary: drain search intervals and theory cells
                // (terminal answers close the open tail).
                let done = step.is_some();
                crate::search::drain_search(&mut enc.sat, cfg.budget.tracer(), done);
                flush_theory(cfg.budget.tracer().metrics());
                match step {
                    Some(SatResult::Unsat) => {
                        // The refutation is conditional on the open scopes:
                        // certify the trace extended with one input unit per
                        // assumed selector.
                        let mut steps = enc.sat.proof_steps().to_vec();
                        steps.extend(assumptions.iter().map(|&a| ProofStep::Input(vec![a])));
                        certify_unsat_steps(cfg, &steps)?;
                        return Ok(SmtResult::Unsat);
                    }
                    Some(SatResult::Sat(m)) => break m,
                    None => poll_budget(&cfg.budget)?,
                }
            };
            // Collect asserted theory literals.
            let asserted: Vec<(usize, bool)> = atom_vars
                .iter()
                .enumerate()
                .map(|(i, &v)| (i, bool_model[v as usize]))
                .collect();
            let lits: Vec<(&Atom, bool)> = asserted
                .iter()
                .map(|&(i, pol)| (&enc.atom_list[i], pol))
                .collect();
            match checker.check(&lits)? {
                TheoryOutcome::Sat(point) => {
                    let mut model = Model::default();
                    for (&s, &vi) in index {
                        model.ints.insert(s, point[vi].clone());
                    }
                    for (&s, &v) in &enc.bool_vars {
                        model.bools.insert(s, bool_model[v as usize]);
                    }
                    // Certify on the *full* (purification vars included)
                    // model, then drop purification-internal variables.
                    certify_sat_model(cfg, &active, &model)?;
                    model.ints.retain(|s, _| !s.as_str().starts_with("ite!"));
                    return Ok(SmtResult::Sat(model));
                }
                TheoryOutcome::Unsat => {
                    cfg.budget.tracer().metrics().bump("smt.conflicts");
                    cfg.budget.tracer().progress().note_smt_conflict();
                    // Core minimization: binary-search the minimal failing
                    // prefix ("prefix is unsat" is monotone, so O(log n)
                    // checks locate it), then greedy deletion on the
                    // survivor when it is small enough.
                    let mut core: Vec<(usize, bool)> = asserted.clone();
                    if core.len() > 1 {
                        let unsat_prefix = |k: usize| -> Result<bool, SmtError> {
                            poll_budget(&cfg.budget)?;
                            let lits: Vec<(&Atom, bool)> = asserted[..k]
                                .iter()
                                .map(|&(i, pol)| (&enc.atom_list[i], pol))
                                .collect();
                            Ok(matches!(min_checker.check(&lits), Ok(TheoryOutcome::Unsat)))
                        };
                        let (mut lo, mut hi) = (1usize, asserted.len());
                        if unsat_prefix(hi)? {
                            // synthlint: allow(unpolled-loop) — O(log n) core binary search; every probe re-checks the theory under the budget
                            while lo < hi {
                                let mid = lo + (hi - lo) / 2;
                                if unsat_prefix(mid)? {
                                    hi = mid;
                                } else {
                                    lo = mid + 1;
                                }
                            }
                            core = asserted[..lo].to_vec();
                        }
                        if core.len() <= 40 {
                            let mut i = core.len();
                            while i > 0 {
                                i -= 1;
                                poll_budget(&cfg.budget)?;
                                if core.len() <= 1 {
                                    break;
                                }
                                let mut trial = core.clone();
                                trial.remove(i);
                                let trial_lits: Vec<(&Atom, bool)> = trial
                                    .iter()
                                    .map(|&(k, pol)| (&enc.atom_list[k], pol))
                                    .collect();
                                if matches!(
                                    min_checker.check(&trial_lits),
                                    Ok(TheoryOutcome::Unsat)
                                ) {
                                    core = trial;
                                }
                            }
                        }
                    }
                    // Theory lemmas are scope-independent (they speak about
                    // atom semantics), so they are added unguarded and
                    // survive pops.
                    // The negation of each asserted core literal.
                    let clause: Vec<Lit> = core
                        .iter()
                        .map(|&(i, pol)| Lit::new(atom_vars[i], pol))
                        .collect();
                    // Full-model conflicts count as theory conflicts with
                    // the blocking clause as certificate (cold path).
                    let m = cfg.budget.tracer().metrics();
                    m.add("search.theory_conflicts_total", 1);
                    m.add("search.theory_cert_lits_total", clause.len() as u64);
                    enc.sat.add_clause(clause);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SmtResult, SmtSolver};

    fn x() -> Term {
        Term::int_var("x")
    }

    fn y() -> Term {
        Term::int_var("y")
    }

    fn session() -> SmtSession {
        SmtSession::new(SmtConfig::default())
    }

    #[test]
    fn push_pop_reuses_session_across_checks() {
        let mut s = session();
        s.assert_term(&Term::ge(x(), Term::int(0))).unwrap();
        assert!(matches!(s.check_sat().unwrap(), SmtResult::Sat(_)));
        s.push();
        s.assert_term(&Term::lt(x(), Term::int(0))).unwrap();
        assert_eq!(s.check_sat().unwrap(), SmtResult::Unsat);
        s.pop();
        assert_eq!(s.depth(), 0);
        // Popping the contradictory scope restores satisfiability.
        match s.check_sat().unwrap() {
            SmtResult::Sat(m) => assert!(m.ints[&Symbol::from("x")] >= 0.into()),
            SmtResult::Unsat => panic!("expected sat after pop"),
        }
    }

    #[test]
    fn incremental_matches_one_shot() {
        // x + y <= 5 ∧ x >= 2 ∧ y >= 2  (sat), then additionally y >= 4 (unsat).
        let base = [
            Term::le(Term::add(x(), y()), Term::int(5)),
            Term::ge(x(), Term::int(2)),
            Term::ge(y(), Term::int(2)),
        ];
        let extra = Term::ge(y(), Term::int(4));

        let mut s = session();
        for t in &base {
            s.assert_term(t).unwrap();
        }
        assert!(matches!(s.check_sat().unwrap(), SmtResult::Sat(_)));
        s.push();
        s.assert_term(&extra).unwrap();
        assert_eq!(s.check_sat().unwrap(), SmtResult::Unsat);
        s.pop();
        assert!(matches!(s.check_sat().unwrap(), SmtResult::Sat(_)));

        // One-shot agreement on both configurations.
        let one = SmtSolver::new();
        assert!(matches!(
            one.check(&Term::and(base.iter().cloned())).unwrap(),
            SmtResult::Sat(_)
        ));
        assert_eq!(
            one.check(&Term::and(base.iter().cloned().chain([extra])))
                .unwrap(),
            SmtResult::Unsat
        );
    }

    #[test]
    fn clauses_are_retained_across_checks() {
        let mut s = session();
        s.assert_term(&Term::le(Term::add(x(), y()), Term::int(3)))
            .unwrap();
        s.assert_term(&Term::ge(Term::sub(x(), y()), Term::int(1)))
            .unwrap();
        assert!(matches!(s.check_sat().unwrap(), SmtResult::Sat(_)));
        let live = s.learned_live;
        s.push();
        s.assert_term(&Term::ge(y(), Term::int(0))).unwrap();
        assert!(matches!(s.check_sat().unwrap(), SmtResult::Sat(_)));
        // The second check starts from the first check's clause database.
        assert!(s.learned_live >= live);
        assert_eq!(s.checks, 2);
    }

    #[test]
    fn popped_scopes_retire_their_clauses() {
        let mut s = session();
        s.assert_term(&Term::ge(x(), Term::int(0))).unwrap();
        for round in 0..4 {
            s.push();
            s.assert_term(&Term::eq(x(), Term::int(round))).unwrap();
            assert!(matches!(s.check_sat().unwrap(), SmtResult::Sat(_)));
            s.assert_term(&Term::lt(x(), Term::int(round))).unwrap();
            assert_eq!(s.check_sat().unwrap(), SmtResult::Unsat);
            s.pop();
        }
        assert!(matches!(s.check_sat().unwrap(), SmtResult::Sat(_)));
    }

    /// The session's `theory.*` dispatch counters after running `script`
    /// on a fresh session under [`TheorySelect::Auto`].
    fn dispatch_counters(script: impl FnOnce(&mut SmtSession)) -> [u64; 3] {
        let tracer = sygus_ast::Tracer::metrics_only();
        let cfg = SmtConfig::builder()
            .budget(crate::Budget::unlimited().with_tracer(tracer.clone()))
            .theory(TheorySelect::Auto)
            .build();
        script(&mut SmtSession::new(cfg));
        let m = tracer.metrics();
        ["theory.dl_dispatched", "theory.dl_fallbacks", "theory.dl_migrations"]
            .map(|name| m.counter(name))
    }

    #[test]
    fn engine_is_picked_from_all_atoms_at_the_first_check() {
        let diff = || Term::le(Term::sub(x(), y()), Term::int(3));
        let sum = || Term::le(Term::add(x(), y()), Term::int(5));
        // A DL-only query runs on difference logic.
        let dl_only = dispatch_counters(|s| {
            s.assert_term(&diff()).unwrap();
            assert!(matches!(s.check_sat().unwrap(), SmtResult::Sat(_)));
        });
        assert_eq!(dl_only, [1, 0, 0]);
        // A fresh mixed query starts on simplex: no DL engine to migrate.
        let mixed = dispatch_counters(|s| {
            s.assert_term(&Term::and([diff(), sum()])).unwrap();
            assert!(matches!(s.check_sat().unwrap(), SmtResult::Sat(_)));
        });
        assert_eq!(mixed, [0, 1, 0]);
        // A DL session that later gains a non-DL atom migrates once.
        let grown = dispatch_counters(|s| {
            s.assert_term(&diff()).unwrap();
            assert!(matches!(s.check_sat().unwrap(), SmtResult::Sat(_)));
            s.push();
            s.assert_term(&sum()).unwrap();
            assert!(matches!(s.check_sat().unwrap(), SmtResult::Sat(_)));
            s.pop();
            assert!(matches!(s.check_sat().unwrap(), SmtResult::Sat(_)));
        });
        assert_eq!(grown, [1, 2, 1]);
    }

    #[test]
    fn ground_false_in_scope_recovers_after_pop() {
        let mut s = session();
        s.push();
        s.assert_term(&Term::ff()).unwrap();
        assert_eq!(s.check_sat().unwrap(), SmtResult::Unsat);
        s.pop();
        assert!(matches!(s.check_sat().unwrap(), SmtResult::Sat(_)));
    }

    #[test]
    fn check_valid_scopes_do_not_leak() {
        let mut s = session();
        s.assert_term(&Term::ge(x(), Term::int(0))).unwrap();
        assert_eq!(
            s.check_valid(&Term::ge(x(), Term::int(0))).unwrap(),
            Validity::Valid
        );
        match s.check_valid(&Term::ge(x(), Term::int(1))).unwrap() {
            Validity::Invalid(m) => assert_eq!(m.ints[&Symbol::from("x")], 0.into()),
            Validity::Valid => panic!("x >= 1 is not entailed"),
        }
        // The negated queries must not have polluted the session.
        assert_eq!(s.depth(), 0);
        assert!(matches!(s.check_sat().unwrap(), SmtResult::Sat(_)));
        assert_eq!(
            s.check_valid(&Term::ge(x(), Term::int(0))).unwrap(),
            Validity::Valid
        );
    }

    #[test]
    fn nested_scopes_unwind_in_order() {
        let mut s = session();
        s.assert_term(&Term::ge(x(), Term::int(0))).unwrap();
        s.push();
        s.assert_term(&Term::le(x(), Term::int(10))).unwrap();
        s.push();
        s.assert_term(&Term::gt(x(), Term::int(10))).unwrap();
        assert_eq!(s.depth(), 2);
        assert_eq!(s.check_sat().unwrap(), SmtResult::Unsat);
        s.pop();
        assert!(matches!(s.check_sat().unwrap(), SmtResult::Sat(_)));
        s.pop();
        match s.check_sat().unwrap() {
            SmtResult::Sat(m) => assert!(m.ints[&Symbol::from("x")] >= 0.into()),
            SmtResult::Unsat => panic!("root scope is satisfiable"),
        }
    }

    #[test]
    fn purification_side_constraints_survive_pops() {
        // ite(x >= 0, x, -x) is purified once; the defining constraints must
        // keep holding after the scope that introduced the term is popped.
        let abs_x = Term::ite(
            Term::ge(x(), Term::int(0)),
            x(),
            Term::sub(Term::int(0), x()),
        );
        let mut s = session();
        s.push();
        s.assert_term(&Term::ge(abs_x.clone(), Term::int(5))).unwrap();
        assert!(matches!(s.check_sat().unwrap(), SmtResult::Sat(_)));
        s.pop();
        s.push();
        // Reuses the cached purification of abs_x.
        s.assert_term(&Term::le(abs_x, Term::int(0))).unwrap();
        match s.check_sat().unwrap() {
            SmtResult::Sat(m) => assert_eq!(m.ints[&Symbol::from("x")], 0.into()),
            SmtResult::Unsat => panic!("|x| <= 0 has the model x = 0"),
        }
        s.pop();
    }
}
