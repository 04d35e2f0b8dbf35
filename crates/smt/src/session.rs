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
//! * the theory engine: new variables, linear forms and split atoms grow
//!   it in place ([`TheorySolver::add_var`] / [`TheorySolver::add_atom`]);
//!   only its point restarts from the origin at each check
//!   ([`TheorySolver::reset_model`]), so models do not drift with the
//!   session;
//! * the static-lemma dedup set, so eager theory lemmas are emitted once.
//!
//! Certification (always on): `sat` models are re-evaluated with exact
//! integer arithmetic against the conjunction of the *active* assertions,
//! and `unsat` answers replay the DRAT trace — extended with one input unit
//! per open-scope selector, which is precisely the statement "unsat under
//! these assumptions".

use crate::drat::ProofStep;
use crate::inc_lra::LinearAtom;
use crate::sat::TheoryView;
use crate::solver::{
    add_static_lemmas, certify_sat_model, certify_unsat_steps, poll_budget, Atom, Encoder, Model,
    Purifier, SmtConfig, SmtError, SmtResult, Validity,
};
use crate::theory::{fits_dl, solve_equalities, Equalities, TheorySelect, TheorySolver};
use crate::{BigInt, DifferenceLogic, IncrementalLra, Lit, Rat, SatResult};
use std::collections::{BTreeMap, HashMap, HashSet};
use sygus_ast::trace::{Stage, Tracer};
use sygus_ast::{Sort, Symbol, Term};

/// Pivot cap for the *eager* partial checks consulted from inside the SAT
/// search. Normal repair takes a handful of pivots; on tableaus whose
/// rational coefficients explode, a partial check gives up at the cap and
/// reports no conflict, leaving the decision to the final check of the
/// complete assignment, which has no cap but polls the budget.
const THEORY_PIVOT_CAP: u64 = 200_000;

/// Integer splits (branch atoms and disequality lemmas) allowed in one
/// check. Branching on unbounded variables need not terminate; past the
/// cap the check answers [`SmtError::ResourceLimit`].
const MAX_SPLITS_PER_CHECK: u64 = 4_096;

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
    /// open scopes), with the same metrics and certification contract as
    /// [`SmtSolver::check`](crate::SmtSolver::check).
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
        let result = self.check_once();
        // Everything added during the search (learned clauses and theory
        // lemmas) is retained for the next query.
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
        drop(span.with_detail(|| format!("answer={answer} scopes={depth}")));
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

    /// The lazy DPLL(T) loop: one SAT search under the open-scope
    /// selectors as assumptions ([`crate::SatSolver::solve_under_polled`],
    /// in conflict chunks so the deadline is honored), with the warm theory
    /// engine answering every partial check and the final check of each
    /// complete assignment (see [`TheoryBridge`]).
    fn check_once(&mut self) -> Result<SmtResult, SmtError> {
        poll_budget(&self.cfg.budget)?;
        self.sync_theory();
        if let Some(inc) = &mut self.inc {
            inc.reset_model();
        }
        let active = self.active_formula();
        let assumptions: Vec<Lit> = self.scopes.iter().map(|s| s.selector).collect();
        let cfg = &self.cfg;
        let enc = &mut self.enc;
        // Dispatch metrics: which engine serves this check (a DL session may
        // have migrated to simplex by now).
        let use_dl = self.inc.as_ref().is_some_and(|inc| inc.name() == "dl");
        if cfg.theory != TheorySelect::Simplex && !enc.atom_list.is_empty() {
            cfg.budget.tracer().metrics().bump(if use_dl {
                "theory.dl_dispatched"
            } else {
                "theory.dl_fallbacks"
            });
        }
        let mut by_index: Vec<(usize, Symbol)> = self.index.iter().map(|(&s, &i)| (i, s)).collect();
        by_index.sort_unstable();
        // Sessions reuse the engine across checks, so its work counter is
        // differenced from the engine's lifetime total.
        let work = self.inc.as_ref().map_or(0, |inc| inc.search_work());
        let mut bridge = TheoryBridge {
            cfg,
            inc: &mut self.inc,
            use_dl,
            atom_vars: enc.atom_list.iter().map(|a| enc.atoms[a]).collect(),
            atoms: &mut enc.atoms,
            atom_list: &mut enc.atom_list,
            lin_atoms: &mut self.lin_atoms,
            index: &self.index,
            symbols: by_index.into_iter().map(|(_, s)| s).collect(),
            splits: 0,
            reduced: None,
            error: None,
            model: None,
            checks: 0,
            conflicts: 0,
            cert_lits: 0,
            split_count: 0,
            work_seen: work,
            work_flushed: work,
        };
        let poll_handle = cfg.budget.clone();
        let bool_model = loop {
            let step = enc.sat.solve_under_polled(
                &assumptions,
                Some(20_000),
                || poll_handle.exceeded().is_none(),
                |view| bridge.on_assignment(view),
            );
            let stop = match step {
                None => poll_budget(&cfg.budget)
                    .err()
                    .or_else(|| bridge.error.take()),
                Some(_) => None,
            };
            // Chunk boundary: drain search intervals and theory counters
            // (answers and errors close the open tail).
            let done = step.is_some() || stop.is_some();
            crate::search::drain_search(&mut enc.sat, cfg.budget.tracer(), done);
            bridge.flush(cfg.budget.tracer());
            if let Some(e) = stop {
                return Err(e);
            }
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
                None => {}
            }
        };
        let mut model = Model::default();
        // No engine means no atoms: a pure boolean query has no integers.
        for (&s, value) in bridge
            .symbols
            .iter()
            .zip(bridge.model.take().unwrap_or_default())
        {
            model.ints.insert(s, value);
        }
        for (&s, &v) in &enc.bool_vars {
            model.bools.insert(s, bool_model[v as usize]);
        }
        // Certify on the *full* (purification vars included) model, then
        // drop purification-internal variables.
        certify_sat_model(cfg, &active, &model)?;
        model.ints.retain(|s, _| !s.as_str().starts_with("ite!"));
        Ok(SmtResult::Sat(model))
    }
}

/// The theory side of one check, consulted by the SAT search after every
/// propagation settle: it mirrors the assignment into the warm engine and
/// checks it — eagerly under [`THEORY_PIVOT_CAP`] on partial assignments,
/// authoritatively on complete ones, where it also makes the engine's
/// model integral by *splitting on demand* (Barrett, Nieuwenhuis, Oliveras
/// & Tinelli 2006; Dutertre & de Moura 2006):
///
/// * a fractional model is first tried against the asserted equalities:
///   their reduction either refutes them (the GCD test, a conflict over
///   the equalities) or yields the integer point nearest the model, which
///   is the answer when it satisfies every asserted atom;
/// * otherwise a fractional variable `x = v` becomes the fresh bound atom
///   `x ≤ ⌊v⌋` for the SAT core to decide (its negation is `x ≥ ⌊v⌋+1`);
/// * an asserted disequality `e ≠ r` that the model violates gets the
///   integer-valid lemma `(e = r) ∨ (e ≤ r−1) ∨ ¬(e ≤ r)` over fresh atoms;
/// * otherwise the integral model is the answer.
///
/// Split atoms register with the encoder's atom cache and grow the engine
/// in place, so later checks of the session reuse them. The search-work
/// counters are plain fields (the callback is far too hot for the metric
/// registry's mutex), flushed at conflict-chunk boundaries.
struct TheoryBridge<'a> {
    cfg: &'a SmtConfig,
    /// The warm engine; `None` for a pure boolean query.
    inc: &'a mut Option<Box<dyn TheorySolver>>,
    use_dl: bool,
    atoms: &'a mut HashMap<Atom, u32>,
    atom_list: &'a mut Vec<Atom>,
    lin_atoms: &'a mut Vec<LinearAtom>,
    index: &'a BTreeMap<Symbol, usize>,
    /// Theory variable index → symbol.
    symbols: Vec<Symbol>,
    /// The SAT variable of each registered atom, in theory-index order.
    atom_vars: Vec<u32>,
    /// Splits taken in this check, against [`MAX_SPLITS_PER_CHECK`].
    splits: u64,
    /// The asserted equalities of the last fractional final check, and
    /// their reduction.
    reduced: Option<(Vec<usize>, Equalities)>,
    /// Why the search was given up, when the budget was not the reason.
    error: Option<SmtError>,
    /// The integral model the final check accepted.
    model: Option<Vec<BigInt>>,
    checks: u64,
    conflicts: u64,
    cert_lits: u64,
    split_count: u64,
    work_seen: u64,
    work_flushed: u64,
}

impl TheoryBridge<'_> {
    /// The theory callback: `Some(clause)` is a theory conflict or a split
    /// lemma; fresh split atoms are allocated through `view`.
    fn on_assignment(&mut self, view: &mut TheoryView<'_>) -> Option<Vec<Lit>> {
        let cfg = self.cfg;
        let inc = self.inc.as_deref_mut()?;
        if poll_budget(&cfg.budget).is_err() {
            view.give_up();
            return None;
        }
        let complete = view.is_complete();
        let dl_span = self.use_dl.then(|| cfg.budget.tracer().span(Stage::Dl));
        for (i, &v) in self.atom_vars.iter().enumerate() {
            match view.assignment()[v as usize] {
                Some(b) => inc.assert_atom(i, b),
                None => inc.retract_atom(i),
            }
        }
        let cap = if complete { u64::MAX } else { THEORY_PIVOT_CAP };
        let verdict = inc.check(cap, &mut || poll_budget(&cfg.budget).is_ok());
        self.checks += 1;
        self.work_seen = inc.search_work();
        drop(dl_span);
        match verdict {
            // Only the budget stops an uncapped check.
            None if complete => {
                view.give_up();
                None
            }
            // The eager check gave up at the pivot cap: no conflict known.
            None | Some(Ok(())) if !complete => None,
            Some(Err(core)) => {
                let clause: Vec<Lit> = core
                    .iter()
                    .map(|&i| {
                        let pol = inc.polarity(i).expect("core atoms are asserted");
                        Lit::new(self.atom_vars[i], pol)
                    })
                    .collect();
                self.conflicts += 1;
                self.cert_lits += clause.len() as u64;
                Some(clause)
            }
            _ => self.final_check(view),
        }
    }

    /// The integer part of the final check on a rationally consistent,
    /// complete assignment.
    fn final_check(&mut self, view: &mut TheoryView<'_>) -> Option<Vec<Lit>> {
        let _ = self.cfg.budget.charge_fuel(1);
        let values = self.inc.as_deref().expect("only engines check").model();
        if let Some(var) = values.iter().position(|v| !v.is_integer()) {
            // Reduce the asserted equalities: the GCD test may refute them,
            // and otherwise the integer point nearest the rational one may
            // satisfy every asserted atom already.
            self.reduce_equalities();
            let (eqs, reduced) = self.reduced.as_ref().expect("just reduced");
            match reduced {
                Equalities::Infeasible => {
                    let clause: Vec<Lit> =
                        eqs.iter().map(|&i| Lit::neg(self.atom_vars[i])).collect();
                    self.conflicts += 1;
                    self.cert_lits += clause.len() as u64;
                    return Some(clause);
                }
                Equalities::Solved(p) => {
                    let point = p.point_near(&values);
                    if self.satisfies_asserted(&point) {
                        self.model = Some(point);
                        return None;
                    }
                }
                Equalities::Unknown => {}
            }
            if !self.take_split(view) {
                return None;
            }
            let Some(k) = values[var].floor().to_i64() else {
                return self.fail(view, "split bound out of range");
            };
            let atom = Atom {
                coeffs: vec![(self.symbols[var], 1)],
                is_eq: false,
                rhs: k,
            };
            if self.atoms.contains_key(&atom) {
                // The bound is already decided, so the model obeys it.
                return self.fail(view, "repeated branch atom");
            }
            // Try the nearer side first.
            let down = &values[var] - &Rat::from(k) <= Rat::new(BigInt::one(), BigInt::from(2));
            self.atom_lit(view, atom, down);
            return None;
        }
        let inc = self.inc.as_deref().expect("only engines check");
        let violated = (0..self.lin_atoms.len()).find(|&i| {
            let (coeffs, is_eq, rhs) = &self.lin_atoms[i];
            *is_eq
                && inc.polarity(i) == Some(false)
                && coeffs.iter().fold(Rat::zero(), |sum, &(v, c)| {
                    &sum + &(&Rat::from(c) * &values[v])
                }) == Rat::from(*rhs)
        });
        if let Some(i) = violated {
            if !self.take_split(view) {
                return None;
            }
            let Atom { coeffs, rhs, .. } = self.atom_list[i].clone();
            let Some(below) = rhs.checked_sub(1) else {
                return self.fail(view, "split bound out of range");
            };
            let lt = Atom {
                coeffs: coeffs.clone(),
                is_eq: false,
                rhs: below,
            };
            let le = Atom {
                coeffs,
                is_eq: false,
                rhs,
            };
            let lt = self.atom_lit(view, lt, true);
            let le = self.atom_lit(view, le, true);
            return Some(vec![Lit::pos(self.atom_vars[i]), lt, le.negate()]);
        }
        self.model = Some(values.iter().map(Rat::floor).collect());
        None
    }

    /// Counts one split; past [`MAX_SPLITS_PER_CHECK`] gives the search up.
    fn take_split(&mut self, view: &mut TheoryView<'_>) -> bool {
        self.splits += 1;
        if self.splits > MAX_SPLITS_PER_CHECK {
            self.fail(view, "theory splits");
            return false;
        }
        self.split_count += 1;
        true
    }

    /// Gives the search up with a resource-limit error.
    fn fail(&mut self, view: &mut TheoryView<'_>, why: &'static str) -> Option<Vec<Lit>> {
        self.error = Some(SmtError::ResourceLimit(why));
        view.give_up();
        None
    }

    /// Caches the asserted equalities (atom indices) with their reduction,
    /// so a run of branches over the same equalities reduces them once.
    fn reduce_equalities(&mut self) {
        let inc = self.inc.as_deref().expect("only engines check");
        let eqs: Vec<usize> = (0..self.lin_atoms.len())
            .filter(|&i| self.lin_atoms[i].1 && inc.polarity(i) == Some(true))
            .collect();
        if self
            .reduced
            .as_ref()
            .is_none_or(|(cached, _)| *cached != eqs)
        {
            let system: Vec<&LinearAtom> = eqs.iter().map(|&i| &self.lin_atoms[i]).collect();
            let reduced = solve_equalities(&system, inc.num_vars());
            self.reduced = Some((eqs, reduced));
        }
    }

    /// Whether the integer `point` satisfies every asserted atom.
    fn satisfies_asserted(&self, point: &[BigInt]) -> bool {
        let inc = self.inc.as_deref().expect("only engines check");
        self.lin_atoms
            .iter()
            .enumerate()
            .all(|(i, (coeffs, is_eq, rhs))| {
                let Some(polarity) = inc.polarity(i) else {
                    return true;
                };
                let sum = coeffs.iter().fold(BigInt::zero(), |sum, &(v, c)| {
                    &sum + &(&BigInt::from(c) * &point[v])
                });
                let rhs = BigInt::from(*rhs);
                match (is_eq, polarity) {
                    (true, true) => sum == rhs,
                    (true, false) => sum != rhs,
                    (false, true) => sum <= rhs,
                    (false, false) => sum > rhs,
                }
            })
    }

    /// The literal of `atom`, registering it as a fresh split atom when it
    /// is new: a SAT variable whose first decision takes `phase`, an entry
    /// in the encoder's atom cache, and an atom of the engine.
    fn atom_lit(&mut self, view: &mut TheoryView<'_>, atom: Atom, phase: bool) -> Lit {
        if let Some(&v) = self.atoms.get(&atom) {
            return Lit::pos(v);
        }
        let lin: LinearAtom = (
            atom.coeffs
                .iter()
                .map(|&(s, c)| (self.index[&s], c))
                .collect(),
            atom.is_eq,
            atom.rhs,
        );
        let inc = self.inc.as_deref_mut().expect("only engines split");
        // A split atom shares its linear form with a registered atom, or
        // bounds a variable of a simplex (fractional) model: every engine
        // accepts it.
        let idx = inc.add_atom(&lin).expect("split atoms fit the engine");
        debug_assert_eq!(idx, self.lin_atoms.len());
        let v = view.new_var(phase);
        self.atoms.insert(atom.clone(), v);
        self.atom_list.push(atom);
        self.lin_atoms.push(lin);
        self.atom_vars.push(v);
        Lit::pos(v)
    }

    /// Flushes the theory counters to `search.*` metrics and the
    /// watchdog's conflict count.
    fn flush(&mut self, tracer: &Tracer) {
        let m = tracer.metrics();
        for (name, value) in [
            (
                "search.theory_checks_total",
                std::mem::take(&mut self.checks),
            ),
            ("search.theory_conflicts_total", self.conflicts),
            (
                "search.theory_cert_lits_total",
                std::mem::take(&mut self.cert_lits),
            ),
            (
                "search.theory_splits_total",
                std::mem::take(&mut self.split_count),
            ),
        ] {
            if value > 0 {
                m.add(name, value);
            }
        }
        tracer
            .progress()
            .note_smt_conflicts(std::mem::take(&mut self.conflicts));
        let delta = self.work_seen - self.work_flushed;
        self.work_flushed = self.work_seen;
        if delta > 0 {
            let name = if self.use_dl {
                "search.dl_relaxations_total"
            } else {
                "search.simplex_pivots_total"
            };
            m.add(name, delta);
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
        let cfg = SmtConfig {
            budget: crate::Budget::unlimited().with_tracer(tracer.clone()),
            theory: TheorySelect::Auto,
        };
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

    /// `x ∉ {1, 2, 3} ∧ 1 ≤ x ≤ 3` is unsat only through disequality
    /// splits. Every clause the theory adds — static lemmas, eager
    /// conflicts, split lemmas — speaks only about atoms and is traced as a
    /// theory lemma, never as an input, and the refutation replays.
    #[test]
    fn theory_clauses_are_logged_as_theory_lemmas() {
        let tracer = sygus_ast::Tracer::metrics_only();
        let mut s = SmtSession::new(SmtConfig {
            budget: crate::Budget::unlimited().with_tracer(tracer.clone()),
            ..SmtConfig::default()
        });
        let diseq = |k: i64| Term::not(Term::eq(x(), Term::int(k)));
        s.assert_term(&Term::and([
            diseq(1),
            diseq(2),
            diseq(3),
            Term::ge(x(), Term::int(1)),
            Term::le(x(), Term::int(3)),
        ]))
        .unwrap();
        assert_eq!(s.check_sat().unwrap(), SmtResult::Unsat);
        assert!(tracer.metrics().counter("search.theory_splits_total") > 0);
        let atom_vars: HashSet<u32> = s.enc.atoms.values().copied().collect();
        let theory_only = |c: &[Lit]| c.iter().all(|l| atom_vars.contains(&l.var()));
        let steps = s.enc.sat.proof_steps();
        let lemmas: Vec<&Vec<Lit>> = steps
            .iter()
            .filter_map(|st| match st {
                ProofStep::TheoryLemma(c) => Some(c),
                _ => None,
            })
            .collect();
        assert!(!lemmas.is_empty());
        assert!(lemmas.iter().all(|c| theory_only(c)), "{lemmas:?}");
        assert!(
            !steps
                .iter()
                .any(|st| matches!(st, ProofStep::Input(c) if theory_only(c))),
            "a theory clause entered the trace as an input"
        );
        let stats = crate::drat::check_refutation(steps).expect("refutation replays");
        assert_eq!(stats.theory_lemmas, lemmas.len());
    }

    /// The watchdog's `conflicts=` field counts every conflict the search
    /// drains: CDCL conflicts plus theory conflicts.
    #[test]
    fn watchdog_counts_cdcl_and_theory_conflicts() {
        let tracer = sygus_ast::Tracer::metrics_only();
        let mut s = SmtSession::new(SmtConfig {
            budget: crate::Budget::unlimited().with_tracer(tracer.clone()),
            ..SmtConfig::default()
        });
        // Four pigeons in three holes (CDCL conflicts), each pigeon's hole
        // also fixing an integer that must stay below 2 (theory conflicts).
        let hole = |p: usize, h: usize| Term::var(format!("ph{p}_{h}").as_str(), Sort::Bool);
        let mut parts = Vec::new();
        for p in 0..4 {
            parts.push(Term::or((0..3).map(|h| hole(p, h))));
            for h in 0..3 {
                let at = Term::int_var(format!("pos{p}").as_str());
                parts.push(Term::implies(hole(p, h), Term::eq(at, Term::int(h as i64))));
            }
        }
        for h in 0..3 {
            for p in 0..4 {
                for q in p + 1..4 {
                    parts.push(Term::not(Term::and([hole(p, h), hole(q, h)])));
                }
            }
        }
        for p in 0..4 {
            parts.push(Term::le(
                Term::int_var(format!("pos{p}").as_str()),
                Term::int(1),
            ));
        }
        s.assert_term(&Term::and(parts)).unwrap();
        assert_eq!(s.check_sat().unwrap(), SmtResult::Unsat);
        let m = tracer.metrics();
        let cdcl = m.counter("search.conflicts_total");
        let theory = m.counter("search.theory_conflicts_total");
        assert!(cdcl > 0, "the pigeonhole needs CDCL conflicts");
        assert_eq!(tracer.progress().snapshot().smt_conflicts, cdcl + theory);
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
