//! The term-level SMT front end: configuration, answers, and the pieces the
//! lazy DPLL(T) loop in [`SmtSession`] is built from.
//!
//! Pipeline: integer `ite`s are purified out of atoms with fresh variables,
//! the boolean skeleton is Tseitin-encoded with comparison atoms mapped to
//! SAT variables, and the session's incremental theory engine checks the
//! asserted atoms during search — eagerly on partial assignments, and with
//! integer splits on demand on complete ones. [`SmtSolver`] answers one
//! formula at a time by running it through a fresh session.

use crate::theory::TheorySelect;
use crate::{BigInt, Lit, SatSolver, SmtSession};
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use sygus_ast::runtime::{Budget, BudgetError};
use sygus_ast::{Env, LinearExpr, Op, Sort, Symbol, Term, TermNode, Value};

/// Configuration for [`SmtSolver`] and [`SmtSession`]. Construct by
/// struct update from `SmtConfig::default()`.
#[derive(Clone, Debug)]
pub struct SmtConfig {
    /// Shared resource governor: deadline, cancellation, and fuel. Queries
    /// past the deadline (or on a cancelled budget) fail with
    /// [`SmtError::Timeout`]; an exhausted fuel/memory allowance fails with
    /// [`SmtError::ResourceLimit`]. The budget also accumulates the query
    /// telemetry surfaced by `--stats`.
    pub budget: Budget,
    /// Which theory engine serves the DPLL(T) checks:
    /// [`TheorySelect::Auto`] dispatches queries whose atoms all fit the
    /// difference-logic fragment to the specialized constraint-graph engine
    /// and everything else to the warm simplex. `Default` reads the
    /// process-wide default ([`crate::process_default_theory`]), which
    /// binaries set from `--theory`.
    pub theory: TheorySelect,
}

impl Default for SmtConfig {
    fn default() -> SmtConfig {
        SmtConfig {
            budget: Budget::unlimited(),
            theory: crate::process_default_theory(),
        }
    }
}

/// An error from the SMT solver. `Sat`/`Unsat`/`Valid` answers are exact;
/// errors mean "no answer", never a wrong one.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SmtError {
    /// The formula uses features outside QF_LIA (e.g. uninstantiated
    /// function applications or nonlinear multiplication).
    Unsupported(String),
    /// A budget ran out: the fuel or memory allowance, or the cap on
    /// integer splits per check.
    ResourceLimit(&'static str),
    /// The configured deadline passed.
    Timeout,
    /// An answer was produced but failed its independent certificate check
    /// (DRAT/RUP replay for `unsat`, exact model evaluation for `sat`).
    /// This indicates a solver bug; the answer is withheld.
    Certification(String),
}

impl fmt::Display for SmtError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SmtError::Unsupported(what) => write!(f, "unsupported formula: {what}"),
            SmtError::ResourceLimit(which) => write!(f, "resource limit reached: {which}"),
            SmtError::Timeout => f.write_str("deadline exceeded"),
            SmtError::Certification(why) => write!(f, "answer failed certification: {why}"),
        }
    }
}

impl std::error::Error for SmtError {}

/// A first-order model: integer values for integer variables and booleans
/// for boolean variables. Variables absent from the maps are unconstrained
/// (read them as 0 / false).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Model {
    /// Integer variable assignments.
    pub ints: BTreeMap<Symbol, BigInt>,
    /// Boolean variable assignments.
    pub bools: BTreeMap<Symbol, bool>,
}

impl Model {
    /// The integer value of `v` (0 when unconstrained).
    pub fn int(&self, v: Symbol) -> BigInt {
        self.ints.get(&v).cloned().unwrap_or_default()
    }

    /// The boolean value of `v` (false when unconstrained).
    pub fn boolean(&self, v: Symbol) -> bool {
        self.bools.get(&v).copied().unwrap_or(false)
    }

    /// Converts to an evaluation [`Env`]; `None` if an integer does not fit
    /// in `i64`.
    pub fn to_env(&self) -> Option<Env> {
        let mut env = Env::new();
        for (&s, b) in &self.ints {
            env.bind(s, Value::Int(b.to_i64()?));
        }
        for (&s, &b) in &self.bools {
            env.bind(s, Value::Bool(b));
        }
        Some(env)
    }
}

impl fmt::Display for Model {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        let mut first = true;
        for (s, v) in &self.ints {
            if !first {
                write!(f, ", ")?;
            }
            first = false;
            write!(f, "{s} = {v}")?;
        }
        for (s, v) in &self.bools {
            if !first {
                write!(f, ", ")?;
            }
            first = false;
            write!(f, "{s} = {v}")?;
        }
        write!(f, "}}")
    }
}

/// Result of a satisfiability check.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SmtResult {
    /// Satisfiable, with a witness model.
    Sat(Model),
    /// Unsatisfiable.
    Unsat,
}

/// Result of a validity check.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Validity {
    /// The formula holds for all assignments.
    Valid,
    /// A counterexample assignment falsifying the formula.
    Invalid(Model),
}

/// The QF_LIA SMT solver (the paper's background decision procedure): a
/// stateless front end that answers each query in a fresh [`SmtSession`].
/// Callers that re-query related formulas should keep a session instead.
///
/// # Examples
///
/// ```
/// use smtkit::{SmtSolver, SmtResult, Validity};
/// use sygus_ast::Term;
/// let x = Term::int_var("x");
/// let solver = SmtSolver::new();
/// // x > 3 ∧ x < 5 has the single solution x = 4.
/// let f = Term::and([Term::gt(x.clone(), Term::int(3)), Term::lt(x.clone(), Term::int(5))]);
/// match solver.check(&f).unwrap() {
///     SmtResult::Sat(m) => assert_eq!(m.int("x".into()).to_i64(), Some(4)),
///     SmtResult::Unsat => unreachable!(),
/// }
/// // x >= x is valid.
/// assert_eq!(solver.check_valid(&Term::ge(x.clone(), x.clone())).unwrap(), Validity::Valid);
/// ```
#[derive(Clone, Debug, Default)]
pub struct SmtSolver {
    cfg: SmtConfig,
}

// ---------------------------------------------------------------------------
// Atom canonicalization
// ---------------------------------------------------------------------------

/// Canonical integer atom: `Σ coeffs·vars ⋈ rhs` with `⋈ ∈ {≤, =}`.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub(crate) struct Atom {
    pub(crate) coeffs: Vec<(Symbol, i64)>,
    pub(crate) is_eq: bool,
    pub(crate) rhs: i64,
}

/// Converts a comparison term into a canonical [`Atom`].
pub(crate) fn canonical_atom(op: Op, lhs: &Term, rhs: &Term) -> Result<Atom, SmtError> {
    let unsupported = |t: &Term| SmtError::Unsupported(format!("non-linear atom side: {t}"));
    let l = LinearExpr::from_term(lhs).map_err(|_| unsupported(lhs))?;
    let r = LinearExpr::from_term(rhs).map_err(|_| unsupported(rhs))?;
    let diff = l
        .checked_sub(&r)
        .map_err(|_| SmtError::Unsupported("coefficient overflow in atom".into()))?;
    let konst = diff.constant();
    // `Σ c·x + konst ⋈ 0`  ⇒  `Σ c·x ⋈ -konst` (rel and sign fixed below)
    let coeffs: Vec<(Symbol, i64)> = diff.iter().collect();
    let negate = |cs: &[(Symbol, i64)]| -> Result<Vec<(Symbol, i64)>, SmtError> {
        cs.iter()
            .map(|&(s, c)| {
                c.checked_neg()
                    .map(|n| (s, n))
                    .ok_or_else(|| SmtError::Unsupported("coefficient overflow".into()))
            })
            .collect()
    };
    let ovf = || SmtError::Unsupported("constant overflow in atom".into());
    // GCD tightening: dividing by the coefficient gcd (with floor on the
    // bound) is integer-equivalent but rationally stronger, which lets the
    // incremental rational engine catch integer conflicts early.
    fn tighten(mut atom: Atom) -> Atom {
        let mut g: i64 = 0;
        for &(_, c) in &atom.coeffs {
            g = gcd_i64(g, c);
        }
        if g > 1 {
            if atom.is_eq {
                if atom.rhs % g != 0 {
                    // Unsatisfiable equality: canonical ground-false atom.
                    return Atom {
                        coeffs: Vec::new(),
                        is_eq: true,
                        rhs: 1,
                    };
                }
                atom.rhs /= g;
            } else {
                atom.rhs = atom.rhs.div_euclid(g);
            }
            for c in &mut atom.coeffs {
                c.1 /= g;
            }
        }
        atom
    }
    fn gcd_i64(a: i64, b: i64) -> i64 {
        let (mut a, mut b) = (a.abs(), b.abs());
        // synthlint: allow(unpolled-loop) — Euclid on i64; at most ~47 iterations
        while b != 0 {
            let r = a % b;
            a = b;
            b = r;
        }
        a
    }
    let atom = match op {
        // e + konst <= 0  ⇔  e <= -konst
        Op::Le => Atom {
            coeffs,
            is_eq: false,
            rhs: konst.checked_neg().ok_or_else(ovf)?,
        },
        // e + konst < 0 over Z ⇔ e <= -konst - 1
        Op::Lt => Atom {
            coeffs,
            is_eq: false,
            rhs: konst
                .checked_neg()
                .and_then(|k| k.checked_sub(1))
                .ok_or_else(ovf)?,
        },
        // e + konst >= 0 ⇔ -e <= konst
        Op::Ge => Atom {
            coeffs: negate(&coeffs)?,
            is_eq: false,
            rhs: konst,
        },
        // e + konst > 0 ⇔ -e <= konst - 1
        Op::Gt => Atom {
            coeffs: negate(&coeffs)?,
            is_eq: false,
            rhs: konst.checked_sub(1).ok_or_else(ovf)?,
        },
        Op::Eq => Atom {
            coeffs,
            is_eq: true,
            rhs: konst.checked_neg().ok_or_else(ovf)?,
        },
        _ => unreachable!("caller checked comparison"),
    };
    Ok(tighten(atom))
}

// ---------------------------------------------------------------------------
// Purification: lift integer `ite` out of atoms
// ---------------------------------------------------------------------------

pub(crate) struct Purifier {
    pub(crate) side: Vec<Term>,
    cache: HashMap<Term, Term>,
}

impl Purifier {
    pub(crate) fn new() -> Purifier {
        Purifier {
            side: Vec::new(),
            cache: HashMap::new(),
        }
    }

    /// Rewrites an *integer* term so it contains no `ite`; encountered `ite`s
    /// become fresh variables constrained in `self.side`.
    fn purify_int(&mut self, t: &Term) -> Result<Term, SmtError> {
        if let Some(hit) = self.cache.get(t) {
            return Ok(hit.clone());
        }
        let result = match t.node() {
            TermNode::IntConst(_) | TermNode::Var(_, _) => t.clone(),
            TermNode::BoolConst(_) => {
                return Err(SmtError::Unsupported("boolean in integer position".into()))
            }
            TermNode::App(op, args) => match op {
                Op::Ite => {
                    let c = self.purify_bool(&args[0])?;
                    let a = self.purify_int(&args[1])?;
                    let b = self.purify_int(&args[2])?;
                    let fresh = Symbol::fresh("ite");
                    let v = Term::var(fresh, Sort::Int);
                    self.side
                        .push(Term::implies(c.clone(), Term::eq(v.clone(), a)));
                    self.side
                        .push(Term::implies(Term::not(c), Term::eq(v.clone(), b)));
                    v
                }
                Op::Add | Op::Sub | Op::Neg | Op::Mul => {
                    let new_args: Result<Vec<Term>, SmtError> =
                        args.iter().map(|a| self.purify_int(a)).collect();
                    Term::app(*op, new_args?)
                }
                Op::Apply(f, _) => {
                    return Err(SmtError::Unsupported(format!(
                        "uninterpreted function application `{f}`"
                    )))
                }
                _ => {
                    return Err(SmtError::Unsupported(format!(
                        "boolean operator `{op}` in integer position"
                    )))
                }
            },
        };
        self.cache.insert(t.clone(), result.clone());
        Ok(result)
    }

    /// Rewrites a boolean term, purifying the integer sides of its atoms.
    pub(crate) fn purify_bool(&mut self, t: &Term) -> Result<Term, SmtError> {
        match t.node() {
            TermNode::BoolConst(_) | TermNode::Var(_, Sort::Bool) => Ok(t.clone()),
            TermNode::Var(_, Sort::Int) | TermNode::IntConst(_) => {
                Err(SmtError::Unsupported("integer in boolean position".into()))
            }
            TermNode::App(op, args) => match op {
                Op::And | Op::Or | Op::Not | Op::Implies => {
                    let new_args: Result<Vec<Term>, SmtError> =
                        args.iter().map(|a| self.purify_bool(a)).collect();
                    Ok(Term::app(*op, new_args?))
                }
                Op::Ite => {
                    // Boolean-valued ite (condition + boolean branches).
                    let c = self.purify_bool(&args[0])?;
                    let a = self.purify_bool(&args[1])?;
                    let b = self.purify_bool(&args[2])?;
                    Ok(Term::app(Op::Ite, vec![c, a, b]))
                }
                Op::Eq if args[0].sort() == Sort::Bool => {
                    let a = self.purify_bool(&args[0])?;
                    let b = self.purify_bool(&args[1])?;
                    Ok(Term::app(Op::Eq, vec![a, b]))
                }
                Op::Eq | Op::Le | Op::Lt | Op::Ge | Op::Gt => {
                    let a = self.purify_int(&args[0])?;
                    let b = self.purify_int(&args[1])?;
                    Ok(Term::app(*op, vec![a, b]))
                }
                Op::Apply(f, _) => Err(SmtError::Unsupported(format!(
                    "uninterpreted predicate application `{f}`"
                ))),
                _ => Err(SmtError::Unsupported(format!(
                    "integer operator `{op}` in boolean position"
                ))),
            },
        }
    }
}

// ---------------------------------------------------------------------------
// Tseitin encoding
// ---------------------------------------------------------------------------

pub(crate) struct Encoder {
    pub(crate) sat: SatSolver,
    /// Canonical atom → SAT var.
    pub(crate) atoms: HashMap<Atom, u32>,
    pub(crate) atom_list: Vec<Atom>,
    pub(crate) bool_vars: HashMap<Symbol, u32>,
    cache: HashMap<Term, Lit>,
    true_lit: Lit,
    /// Term/atom encodings served from cache (the amortization a session
    /// buys; surfaced as the `smt.encode_cache_hits` metric).
    pub(crate) cache_hits: u64,
}

impl Encoder {
    pub(crate) fn new() -> Encoder {
        let mut sat = SatSolver::new();
        // Must precede the very first clause (the true-literal unit) or the
        // DRAT replay sees an incomplete database.
        sat.enable_proof();
        let t = sat.new_var();
        sat.add_clause(vec![Lit::pos(t)]);
        Encoder {
            sat,
            atoms: HashMap::new(),
            atom_list: Vec::new(),
            bool_vars: HashMap::new(),
            cache: HashMap::new(),
            true_lit: Lit::pos(t),
            cache_hits: 0,
        }
    }

    fn atom_lit(&mut self, atom: Atom) -> Lit {
        if atom.coeffs.is_empty() {
            // Ground atom decided immediately.
            let holds = if atom.is_eq {
                atom.rhs == 0
            } else {
                0 <= atom.rhs
            };
            return if holds {
                self.true_lit
            } else {
                self.true_lit.negate()
            };
        }
        if let Some(&v) = self.atoms.get(&atom) {
            self.cache_hits += 1;
            return Lit::pos(v);
        }
        let v = self.sat.new_var();
        self.atoms.insert(atom.clone(), v);
        self.atom_list.push(atom);
        debug_assert_eq!(self.atom_list.len(), self.atoms.len());
        Lit::pos(v)
    }

    pub(crate) fn encode(&mut self, t: &Term) -> Result<Lit, SmtError> {
        if let Some(&l) = self.cache.get(t) {
            self.cache_hits += 1;
            return Ok(l);
        }
        let lit = match t.node() {
            TermNode::BoolConst(true) => self.true_lit,
            TermNode::BoolConst(false) => self.true_lit.negate(),
            TermNode::Var(s, Sort::Bool) => {
                let v = match self.bool_vars.get(s) {
                    Some(&v) => v,
                    None => {
                        let v = self.sat.new_var();
                        self.bool_vars.insert(*s, v);
                        v
                    }
                };
                Lit::pos(v)
            }
            TermNode::Var(_, Sort::Int) | TermNode::IntConst(_) => {
                return Err(SmtError::Unsupported(
                    "integer term in boolean position".into(),
                ))
            }
            TermNode::App(op, args) => match op {
                Op::Not => self.encode(&args[0])?.negate(),
                Op::And => {
                    let lits: Result<Vec<Lit>, SmtError> =
                        args.iter().map(|a| self.encode(a)).collect();
                    let lits = lits?;
                    let v = self.sat.new_var();
                    let vp = Lit::pos(v);
                    let mut big: Vec<Lit> = vec![vp];
                    for &l in &lits {
                        self.sat.add_clause(vec![vp.negate(), l]);
                        big.push(l.negate());
                    }
                    self.sat.add_clause(big);
                    vp
                }
                Op::Or => {
                    let lits: Result<Vec<Lit>, SmtError> =
                        args.iter().map(|a| self.encode(a)).collect();
                    let lits = lits?;
                    let v = self.sat.new_var();
                    let vp = Lit::pos(v);
                    let mut big: Vec<Lit> = vec![vp.negate()];
                    for &l in &lits {
                        self.sat.add_clause(vec![vp, l.negate()]);
                        big.push(l);
                    }
                    self.sat.add_clause(big);
                    vp
                }
                Op::Implies => {
                    let a = self.encode(&args[0])?;
                    let b = self.encode(&args[1])?;
                    let v = self.sat.new_var();
                    let vp = Lit::pos(v);
                    // v ↔ (¬a ∨ b)
                    self.sat.add_clause(vec![vp.negate(), a.negate(), b]);
                    self.sat.add_clause(vec![vp, a]);
                    self.sat.add_clause(vec![vp, b.negate()]);
                    vp
                }
                Op::Eq if args[0].sort() == Sort::Bool => {
                    let a = self.encode(&args[0])?;
                    let b = self.encode(&args[1])?;
                    let v = self.sat.new_var();
                    let vp = Lit::pos(v);
                    self.sat.add_clause(vec![vp.negate(), a.negate(), b]);
                    self.sat.add_clause(vec![vp.negate(), a, b.negate()]);
                    self.sat.add_clause(vec![vp, a, b]);
                    self.sat.add_clause(vec![vp, a.negate(), b.negate()]);
                    vp
                }
                Op::Ite => {
                    let c = self.encode(&args[0])?;
                    let a = self.encode(&args[1])?;
                    let b = self.encode(&args[2])?;
                    let v = self.sat.new_var();
                    let vp = Lit::pos(v);
                    self.sat.add_clause(vec![vp.negate(), c.negate(), a]);
                    self.sat.add_clause(vec![vp.negate(), c, b]);
                    self.sat.add_clause(vec![vp, c.negate(), a.negate()]);
                    self.sat.add_clause(vec![vp, c, b.negate()]);
                    vp
                }
                Op::Eq | Op::Le | Op::Lt | Op::Ge | Op::Gt => {
                    let atom = canonical_atom(*op, &args[0], &args[1])?;
                    self.atom_lit(atom)
                }
                other => {
                    return Err(SmtError::Unsupported(format!(
                        "operator `{other}` in boolean position"
                    )))
                }
            },
        };
        self.cache.insert(t.clone(), lit);
        Ok(lit)
    }
}

/// Static theory lemmas ("eager propagation"): relations among atoms over
/// the same (or negated) linear form are encoded as clauses up front, so
/// the SAT core never proposes the bulk of theory-inconsistent assignments
/// and the lazy loop converges in few rounds.
///
/// Every emitted lemma is *binary*, so `seen` (a set of sorted literal
/// pairs) makes re-runs incremental: a session calls this after each
/// assertion and only genuinely new lemmas reach the SAT core.
pub(crate) fn add_static_lemmas(enc: &mut Encoder, seen: &mut std::collections::HashSet<(Lit, Lit)>) {
    // Group atoms by coefficient vector, in a fixed order: the order the
    // lemmas reach the SAT core shows in its work counters.
    let mut groups: BTreeMap<Vec<(Symbol, i64)>, Vec<usize>> = BTreeMap::new();
    for (i, atom) in enc.atom_list.iter().enumerate() {
        groups.entry(atom.coeffs.clone()).or_default().push(i);
    }
    let var_of = |enc: &Encoder, i: usize| enc.atoms[&enc.atom_list[i]];
    let mut clauses: Vec<Vec<Lit>> = Vec::new();
    for (coeffs, members) in &groups {
        // Within a group: `e ≤ r1 → e ≤ r2` for r1 ≤ r2; equality links.
        let mut les: Vec<usize> = members
            .iter()
            .copied()
            .filter(|&i| !enc.atom_list[i].is_eq)
            .collect();
        les.sort_by_key(|&i| enc.atom_list[i].rhs);
        for w in les.windows(2) {
            let (a, b) = (w[0], w[1]);
            clauses.push(vec![Lit::neg(var_of(enc, a)), Lit::pos(var_of(enc, b))]);
        }
        let eqs: Vec<usize> = members
            .iter()
            .copied()
            .filter(|&i| enc.atom_list[i].is_eq)
            .collect();
        for &e in &eqs {
            let er = enc.atom_list[e].rhs;
            // e = r implies the tightest e ≤ r' with r' ≥ r …
            if let Some(&above) = les.iter().find(|&&l| enc.atom_list[l].rhs >= er) {
                clauses.push(vec![Lit::neg(var_of(enc, e)), Lit::pos(var_of(enc, above))]);
            }
            // … and refutes the tightest e ≤ r' with r' < r.
            if let Some(&below) = les.iter().rev().find(|&&l| enc.atom_list[l].rhs < er) {
                clauses.push(vec![Lit::neg(var_of(enc, e)), Lit::neg(var_of(enc, below))]);
            }
            // Distinct equalities on the same form are mutually exclusive.
            for &e2 in &eqs {
                if e2 > e && enc.atom_list[e2].rhs != er {
                    clauses.push(vec![Lit::neg(var_of(enc, e)), Lit::neg(var_of(enc, e2))]);
                }
            }
        }
        // Across the negated form: `e ≤ r ∧ −e ≤ r'` needs `r + r' ≥ 0`;
        // `e = r` clashes with `−e ≤ r'` when `r < −r'`, and with
        // `−e = r'` when `r ≠ −r'`.
        let neg_coeffs: Vec<(Symbol, i64)> =
            coeffs.iter().map(|&(v, c)| (v, c.wrapping_neg())).collect();
        if neg_coeffs <= *coeffs {
            continue; // handle each pair once
        }
        let Some(opp) = groups.get(&neg_coeffs) else {
            continue;
        };
        if members.len() * opp.len() > 4096 {
            continue; // cap eager work on pathological inputs
        }
        for &i in members {
            for &j in opp {
                let (ai, aj) = (&enc.atom_list[i], &enc.atom_list[j]);
                let clash = match (ai.is_eq, aj.is_eq) {
                    (false, false) => ai.rhs.checked_add(aj.rhs).map(|s| s < 0).unwrap_or(false),
                    (true, false) => ai.rhs.checked_add(aj.rhs).map(|s| s < 0).unwrap_or(false),
                    (false, true) => aj.rhs.checked_add(ai.rhs).map(|s| s < 0).unwrap_or(false),
                    (true, true) => ai.rhs.checked_neg().map(|n| n != aj.rhs).unwrap_or(true),
                };
                if clash {
                    clauses.push(vec![Lit::neg(var_of(enc, i)), Lit::neg(var_of(enc, j))]);
                }
            }
        }
    }
    for c in clauses {
        debug_assert_eq!(c.len(), 2, "static lemmas are binary");
        let key = (c[0].min(c[1]), c[0].max(c[1]));
        if seen.insert(key) {
            enc.sat.add_theory_lemma(c);
        }
    }
}

// ---------------------------------------------------------------------------
// The solver proper
// ---------------------------------------------------------------------------

impl SmtSolver {
    /// Creates a solver with default configuration.
    pub fn new() -> SmtSolver {
        SmtSolver::default()
    }

    /// Creates a solver with a custom configuration.
    pub fn with_config(cfg: SmtConfig) -> SmtSolver {
        SmtSolver { cfg }
    }

    /// The configuration in use.
    pub fn config(&self) -> &SmtConfig {
        &self.cfg
    }

    /// Checks satisfiability of a quantifier-free CLIA formula: asserts it
    /// in a fresh [`SmtSession`] and checks once, so answers,
    /// certification, and metrics are exactly the session's
    /// ([`SmtSession::check_sat`]). Constant formulas are answered without a
    /// session.
    ///
    /// The formula is purified here and asserted together with its `ite`
    /// definitions as one root conjunction. A one-shot query has no scopes
    /// for the definitions to outlive, and one conjunction encodes the
    /// formula's own atoms first, ahead of the definitions.
    ///
    /// # Errors
    ///
    /// [`SmtError::Unsupported`] for non-QF_LIA input (remaining function
    /// applications, nonlinear arithmetic), [`SmtError::Timeout`] /
    /// [`SmtError::ResourceLimit`] when budgets run out.
    pub fn check(&self, formula: &Term) -> Result<SmtResult, SmtError> {
        poll_budget(&self.cfg.budget)?;
        match formula.as_bool_const() {
            Some(true) => return Ok(SmtResult::Sat(Model::default())),
            Some(false) => return Ok(SmtResult::Unsat),
            None => {}
        }
        let mut pur = Purifier::new();
        let main = pur.purify_bool(formula)?;
        let full = Term::and(std::iter::once(main).chain(pur.side.drain(..)));
        let mut session = SmtSession::new(self.cfg.clone());
        session.assert_term(&full)?;
        session.check_sat()
    }

    /// Checks validity: `Valid` iff `¬formula` is unsatisfiable; otherwise
    /// returns the falsifying model.
    ///
    /// # Errors
    ///
    /// Same conditions as [`SmtSolver::check`].
    pub fn check_valid(&self, formula: &Term) -> Result<Validity, SmtError> {
        match self.check(&Term::not(formula.clone()))? {
            SmtResult::Unsat => Ok(Validity::Valid),
            SmtResult::Sat(m) => Ok(Validity::Invalid(m)),
        }
    }

    /// Convenience: `true` iff `formula` is valid.
    ///
    /// # Errors
    ///
    /// Same conditions as [`SmtSolver::check`].
    pub fn is_valid(&self, formula: &Term) -> Result<bool, SmtError> {
        Ok(matches!(self.check_valid(formula)?, Validity::Valid))
    }

    /// Convenience: `true` iff `a` and `b` are equivalent CLIA terms of the
    /// same sort.
    ///
    /// # Errors
    ///
    /// Same conditions as [`SmtSolver::check`].
    pub fn equivalent(&self, a: &Term, b: &Term) -> Result<bool, SmtError> {
        if a.sort() != b.sort() {
            return Ok(false);
        }
        self.is_valid(&Term::eq(a.clone(), b.clone()))
    }
}

/// Maps a [`Budget`] poll onto [`SmtError`]: stop conditions (deadline,
/// cancellation) become [`SmtError::Timeout`], exhausted allowances become
/// [`SmtError::ResourceLimit`].
pub(crate) fn poll_budget(budget: &Budget) -> Result<(), SmtError> {
    match budget.exceeded() {
        None => Ok(()),
        Some(e) if e.is_stop() => Err(SmtError::Timeout),
        Some(BudgetError::FuelExhausted) => Err(SmtError::ResourceLimit("fuel allowance")),
        Some(_) => Err(SmtError::ResourceLimit("memory allowance")),
    }
}

/// Replays a DRAT trace through the independent RUP checker before an
/// `unsat` answer is allowed out. Certification is always on: a failed
/// certificate surfaces as [`SmtError::Certification`], never as a wrong
/// answer.
pub(crate) fn certify_unsat_steps(
    cfg: &SmtConfig,
    steps: &[crate::drat::ProofStep],
) -> Result<(), SmtError> {
    let tracer = cfg.budget.tracer().clone();
    match crate::drat::check_refutation(steps) {
        Ok(_) => {
            tracer.metrics().bump("smt.certified_unsat");
            Ok(())
        }
        Err(e) => {
            tracer.metrics().bump("smt.certification_failures");
            Err(SmtError::Certification(format!("unsat proof rejected: {e}")))
        }
    }
}

/// Re-evaluates the asserted formula under the model with exact integer
/// arithmetic before a `sat` answer is allowed out.
pub(crate) fn certify_sat_model(
    cfg: &SmtConfig,
    formula: &Term,
    model: &Model,
) -> Result<(), SmtError> {
    let tracer = cfg.budget.tracer().clone();
    match eval_exact(formula, model) {
        Ok(BigVal::Bool(true)) => {
            tracer.metrics().bump("smt.certified_sat");
            Ok(())
        }
        Ok(_) => {
            tracer.metrics().bump("smt.certification_failures");
            Err(SmtError::Certification(
                "model does not satisfy the asserted formula".into(),
            ))
        }
        Err(why) => {
            tracer.metrics().bump("smt.certification_failures");
            Err(SmtError::Certification(format!(
                "model evaluation failed: {why}"
            )))
        }
    }
}

/// An exact value during certification-time model evaluation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum BigVal {
    Int(BigInt),
    Bool(bool),
}

/// Evaluates a purified QF_LIA term under `model` with arbitrary-precision
/// integers — deliberately independent of [`Term::eval`] (which computes in
/// `i64` and can overflow). Unconstrained variables read as 0 / `false`;
/// that cannot flip the verdict, because any variable whose value matters
/// to the formula's truth is pinned by the model.
pub(crate) fn eval_exact(t: &Term, model: &Model) -> Result<BigVal, String> {
    use BigVal::{Bool, Int};
    let ints = |args: &[Term]| -> Result<Vec<BigInt>, String> {
        args.iter()
            .map(|a| match eval_exact(a, model)? {
                Int(n) => Ok(n),
                Bool(_) => Err(format!("expected an integer operand in {t}")),
            })
            .collect()
    };
    let bools = |args: &[Term]| -> Result<Vec<bool>, String> {
        args.iter()
            .map(|a| match eval_exact(a, model)? {
                Bool(b) => Ok(b),
                Int(_) => Err(format!("expected a boolean operand in {t}")),
            })
            .collect()
    };
    match t.node() {
        TermNode::IntConst(n) => Ok(Int(BigInt::from(*n))),
        TermNode::BoolConst(b) => Ok(Bool(*b)),
        TermNode::Var(s, Sort::Int) => Ok(Int(model.int(*s))),
        TermNode::Var(s, Sort::Bool) => Ok(Bool(model.boolean(*s))),
        TermNode::App(op, args) => match op {
            Op::Add => Ok(Int(ints(args)?
                .into_iter()
                .fold(BigInt::zero(), |a, b| &a + &b))),
            Op::Mul => Ok(Int(ints(args)?
                .into_iter()
                .fold(BigInt::one(), |a, b| &a * &b))),
            Op::Sub => {
                let vs = ints(args)?;
                let (first, rest) = vs
                    .split_first()
                    .ok_or_else(|| "empty subtraction".to_owned())?;
                Ok(Int(rest.iter().fold(first.clone(), |a, b| &a - b)))
            }
            Op::Neg => {
                let vs = ints(args)?;
                match vs.as_slice() {
                    [n] => Ok(Int(-n)),
                    _ => Err(format!("negation arity in {t}")),
                }
            }
            Op::Ite => {
                if args.len() != 3 {
                    return Err(format!("ite arity in {t}"));
                }
                match eval_exact(&args[0], model)? {
                    Bool(c) => eval_exact(&args[if c { 1 } else { 2 }], model),
                    Int(_) => Err(format!("non-boolean ite condition in {t}")),
                }
            }
            Op::Eq => {
                if args.len() != 2 {
                    return Err(format!("equality arity in {t}"));
                }
                match (eval_exact(&args[0], model)?, eval_exact(&args[1], model)?) {
                    (Int(a), Int(b)) => Ok(Bool(a == b)),
                    (Bool(a), Bool(b)) => Ok(Bool(a == b)),
                    _ => Err(format!("mixed-sort equality in {t}")),
                }
            }
            Op::Le | Op::Lt | Op::Ge | Op::Gt => {
                let vs = ints(args)?;
                match vs.as_slice() {
                    [a, b] => Ok(Bool(match op {
                        Op::Le => a <= b,
                        Op::Lt => a < b,
                        Op::Ge => a >= b,
                        _ => a > b,
                    })),
                    _ => Err(format!("comparison arity in {t}")),
                }
            }
            Op::And => Ok(Bool(bools(args)?.into_iter().all(|b| b))),
            Op::Or => Ok(Bool(bools(args)?.into_iter().any(|b| b))),
            Op::Not => {
                let vs = bools(args)?;
                match vs.as_slice() {
                    [b] => Ok(Bool(!b)),
                    _ => Err(format!("negation arity in {t}")),
                }
            }
            Op::Implies => {
                let vs = bools(args)?;
                match vs.as_slice() {
                    [a, b] => Ok(Bool(!a || *b)),
                    _ => Err(format!("implication arity in {t}")),
                }
            }
            Op::Apply(f, _) => Err(format!("unexpanded function application `{f}`")),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn x() -> Term {
        Term::int_var("sx")
    }
    fn y() -> Term {
        Term::int_var("sy")
    }

    fn solver() -> SmtSolver {
        SmtSolver::new()
    }

    fn expect_sat(f: &Term) -> Model {
        match solver().check(f).expect("no error") {
            SmtResult::Sat(m) => m,
            SmtResult::Unsat => panic!("expected sat: {f}"),
        }
    }

    fn expect_unsat(f: &Term) {
        assert_eq!(
            solver().check(f).expect("no error"),
            SmtResult::Unsat,
            "expected unsat: {f}"
        );
    }

    #[test]
    fn constants() {
        assert!(matches!(
            solver().check(&Term::tt()).unwrap(),
            SmtResult::Sat(_)
        ));
        expect_unsat(&Term::ff());
    }

    #[test]
    fn single_interval() {
        let f = Term::and([Term::gt(x(), Term::int(3)), Term::lt(x(), Term::int(5))]);
        let m = expect_sat(&f);
        assert_eq!(m.int(Symbol::new("sx")).to_i64(), Some(4));
    }

    #[test]
    fn empty_int_interval() {
        let f = Term::and([Term::gt(x(), Term::int(3)), Term::lt(x(), Term::int(4))]);
        expect_unsat(&f);
        expect_unsat(&branching_unsat_formula());
    }

    #[test]
    fn model_satisfies_formula() {
        let f = Term::or([
            Term::and([Term::ge(x(), Term::int(10)), Term::le(y(), Term::int(-3))]),
            Term::eq(Term::add(x(), y()), Term::int(7)),
        ]);
        let m = expect_sat(&f);
        let mut env = m.to_env().expect("small model");
        let defs = sygus_ast::Definitions::new();
        for s in ["sx", "sy"] {
            if env.lookup(Symbol::new(s)).is_none() {
                env.bind(Symbol::new(s), Value::Int(0));
            }
        }
        assert_eq!(f.eval(&env, &defs), Ok(Value::Bool(true)));
    }

    #[test]
    fn disequality_splitting() {
        // x ≠ 0 ∧ 0 ≤ x ≤ 1 → x = 1
        let f = Term::and([
            Term::not(Term::eq(x(), Term::int(0))),
            Term::ge(x(), Term::int(0)),
            Term::le(x(), Term::int(1)),
        ]);
        let m = expect_sat(&f);
        assert_eq!(m.int(Symbol::new("sx")).to_i64(), Some(1));
        // x ≠ 0 ∧ x ≠ 1 ∧ 0 ≤ x ≤ 1 → unsat
        let g = Term::and([
            Term::not(Term::eq(x(), Term::int(0))),
            Term::not(Term::eq(x(), Term::int(1))),
            Term::ge(x(), Term::int(0)),
            Term::le(x(), Term::int(1)),
        ]);
        expect_unsat(&g);
    }

    #[test]
    fn parity_reasoning() {
        // 2x = 2y + 1 unsat over integers.
        let f = Term::eq(
            Term::scale(2, x()),
            Term::add(Term::scale(2, y()), Term::int(1)),
        );
        expect_unsat(&f);
    }

    #[test]
    fn boolean_structure() {
        let p = Term::var("sp", Sort::Bool);
        let q = Term::var("sq", Sort::Bool);
        let f = Term::and([Term::or([p.clone(), q.clone()]), Term::not(p.clone())]);
        let m = expect_sat(&f);
        assert!(!m.boolean(Symbol::new("sp")));
        assert!(m.boolean(Symbol::new("sq")));
    }

    #[test]
    fn mixed_bool_int() {
        let p = Term::var("smb", Sort::Bool);
        // (p → x ≥ 5) ∧ (¬p → x ≤ -5) ∧ x = 3: unsat
        let f = Term::and([
            Term::implies(p.clone(), Term::ge(x(), Term::int(5))),
            Term::implies(Term::not(p.clone()), Term::le(x(), Term::int(-5))),
            Term::eq(x(), Term::int(3)),
        ]);
        expect_unsat(&f);
    }

    #[test]
    fn ite_purification() {
        let max = Term::ite(Term::ge(x(), y()), x(), y());
        let f = Term::and([
            Term::eq(x(), Term::int(3)),
            Term::eq(y(), Term::int(8)),
            Term::eq(max.clone(), Term::int(8)),
        ]);
        let m = expect_sat(&f);
        assert_eq!(m.int(Symbol::new("sx")).to_i64(), Some(3));
        assert!(
            !m.ints.keys().any(|s| s.as_str().starts_with("ite!")),
            "purification variables must not leak into models"
        );
        let g = Term::and([
            Term::eq(x(), Term::int(3)),
            Term::eq(y(), Term::int(8)),
            Term::eq(max, Term::int(3)),
        ]);
        expect_unsat(&g);
    }

    #[test]
    fn nested_ite() {
        let z = Term::int_var("sz");
        let max3 = Term::ite(
            Term::and([Term::ge(x(), y()), Term::ge(x(), z.clone())]),
            x(),
            Term::ite(Term::ge(y(), z.clone()), y(), z.clone()),
        );
        let f = Term::and([
            Term::eq(x(), Term::int(9)),
            Term::eq(y(), Term::int(1)),
            Term::eq(z.clone(), Term::int(5)),
            Term::eq(max3, Term::int(9)),
        ]);
        expect_sat(&f);
    }

    #[test]
    fn validity_of_max_spec() {
        let max = Term::ite(Term::ge(x(), y()), x(), y());
        assert_eq!(
            solver().check_valid(&Term::ge(max, x())).unwrap(),
            Validity::Valid
        );
    }

    #[test]
    fn invalidity_gives_counterexample() {
        let f = Term::ge(x(), y());
        match solver().check_valid(&f).unwrap() {
            Validity::Invalid(m) => {
                assert!(m.int(Symbol::new("sx")) < m.int(Symbol::new("sy")));
            }
            Validity::Valid => panic!("x >= y is not valid"),
        }
    }

    #[test]
    fn equivalence() {
        let a = Term::add(x(), x());
        let b = Term::scale(2, x());
        assert!(solver().equivalent(&a, &b).unwrap());
        assert!(!solver().equivalent(&a, &Term::scale(3, x())).unwrap());
        assert!(!solver()
            .equivalent(&a, &Term::ge(x(), Term::int(0)))
            .unwrap());
    }

    #[test]
    fn unsupported_function_application() {
        let f = Term::ge(Term::apply("unk_f", Sort::Int, vec![x()]), Term::int(0));
        assert!(matches!(solver().check(&f), Err(SmtError::Unsupported(_))));
    }

    #[test]
    fn nonlinear_rejected() {
        let f = Term::ge(Term::app(Op::Mul, vec![x(), y()]), Term::int(0));
        assert!(matches!(solver().check(&f), Err(SmtError::Unsupported(_))));
    }

    #[test]
    fn timeout_honored() {
        let past = std::time::Instant::now() - std::time::Duration::from_secs(1);
        let cfg = SmtConfig {
            budget: Budget::with_deadline(past),
            ..SmtConfig::default()
        };
        let s = SmtSolver::with_config(cfg);
        let f = Term::ge(x(), Term::int(0));
        assert_eq!(s.check(&f), Err(SmtError::Timeout));
    }

    #[test]
    fn cancellation_honored() {
        let budget = Budget::unlimited();
        budget.cancel();
        let s = SmtSolver::with_config(SmtConfig {
            budget,
            ..SmtConfig::default()
        });
        assert_eq!(s.check(&Term::ge(x(), Term::int(0))), Err(SmtError::Timeout));
    }

    /// `x = y ∧ 2x + 3y ∈ [6, 7]`: rationally feasible (`x = y = 1.3`) so
    /// the eager simplex check never objects, but integrally unsat — the
    /// final check must branch (`x ≤ 1 ∨ x ≥ 2`) to refute it.
    fn branching_unsat_formula() -> Term {
        let lhs = Term::add(Term::scale(2, x()), Term::scale(3, y()));
        Term::and([
            Term::ge(Term::sub(x(), y()), Term::int(0)),
            Term::le(Term::sub(x(), y()), Term::int(0)),
            Term::ge(lhs.clone(), Term::int(6)),
            Term::le(lhs, Term::int(7)),
        ])
    }

    #[test]
    fn bool_equality_encoding() {
        let p = Term::var("xp", Sort::Bool);
        let q = Term::var("xq", Sort::Bool);
        let f = Term::and([Term::app(Op::Eq, vec![p.clone(), q.clone()]), p.clone()]);
        let m = expect_sat(&f);
        assert!(m.boolean(Symbol::new("xq")));
    }

    #[test]
    fn big_conjunction_of_bounds() {
        // c0 < c1 < ... < c7, c0 >= 0, c7 <= 7 → unique chain 0..7
        let vars: Vec<Term> = (0..8)
            .map(|i| Term::int_var(format!("c{i}").as_str()))
            .collect();
        let mut cs: Vec<Term> = vars
            .windows(2)
            .map(|w| Term::lt(w[0].clone(), w[1].clone()))
            .collect();
        cs.push(Term::ge(vars[0].clone(), Term::int(0)));
        cs.push(Term::le(vars[7].clone(), Term::int(7)));
        let m = expect_sat(&Term::and(cs));
        for (i, v) in vars.iter().enumerate() {
            let s = v.as_var().expect("var");
            assert_eq!(m.int(s).to_i64(), Some(i as i64), "chain position {i}");
        }
    }

    #[test]
    fn structured_formulas_model_eval() {
        let defs = sygus_ast::Definitions::new();
        let formulas = vec![
            Term::and([
                Term::ge(Term::add(x(), Term::scale(3, y())), Term::int(10)),
                Term::le(Term::sub(x(), y()), Term::int(2)),
            ]),
            Term::or([
                Term::eq(x(), Term::int(-7)),
                Term::and([Term::lt(x(), y()), Term::lt(y(), Term::int(0))]),
            ]),
            Term::implies(
                Term::ge(x(), Term::int(0)),
                Term::gt(Term::add(x(), y()), Term::sub(y(), Term::int(1))),
            ),
        ];
        for f in formulas {
            match solver().check(&f).unwrap() {
                SmtResult::Sat(m) => {
                    let mut env = m.to_env().expect("fits");
                    for s in ["sx", "sy"] {
                        if env.lookup(Symbol::new(s)).is_none() {
                            env.bind(Symbol::new(s), Value::Int(0));
                        }
                    }
                    assert_eq!(f.eval(&env, &defs), Ok(Value::Bool(true)), "formula {f}");
                }
                SmtResult::Unsat => panic!("expected sat: {f}"),
            }
        }
    }
}
