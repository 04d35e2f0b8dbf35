//! The pluggable theory-solver seam: a common trait over the incremental
//! theory engines consulted during DPLL(T) search, plus the selection knob
//! that picks between them.
//!
//! Two engines implement [`TheorySolver`] today:
//!
//! * [`IncrementalLra`](crate::IncrementalLra) — the general warm-tableau
//!   rational simplex (sound for conflicts; its rational models are made
//!   integral by the session's splitting on demand);
//! * [`DifferenceLogic`](crate::DifferenceLogic) — a specialized
//!   constraint-graph engine for the difference-logic fragment
//!   (`x - y ⋈ c`, unary bounds included), exact over the integers via
//!   negative-cycle detection.
//!
//! A fragment detector ([`fits_dl`]) over the purified, canonicalized atoms
//! picks the DL engine when every atom fits the fragment; anything else
//! falls back to simplex. [`TheorySelect`] overrides the choice per
//! configuration, with a process-wide default settable from CLI flags.
//!
//! Either engine answers both the eager partial checks and the final check
//! of a complete assignment ([`TheorySolver::model`]); the integer part of
//! the final check (branching on fractional values, splitting violated
//! disequalities, and the equality reduction of `solve_equalities`) lives
//! in the session, on top of the engine.

use crate::inc_lra::LinearAtom;
use crate::{BigInt, Rat};
use std::fmt;
use std::str::FromStr;
use std::sync::atomic::{AtomicU8, Ordering};

/// Which theory engine an [`SmtConfig`](crate::SmtConfig) uses for the
/// difference-logic-eligible part of its workload.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum TheorySelect {
    /// Dispatch on the fragment: difference logic when every atom of the
    /// query fits `x - y ⋈ c` (unary bounds via the zero node), simplex
    /// otherwise.
    #[default]
    Auto,
    /// Always use the general simplex path, even on pure-DL queries.
    Simplex,
}

impl TheorySelect {
    /// The stable flag spelling (`auto`, `simplex`).
    pub fn as_str(self) -> &'static str {
        match self {
            TheorySelect::Auto => "auto",
            TheorySelect::Simplex => "simplex",
        }
    }
}

impl fmt::Display for TheorySelect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl FromStr for TheorySelect {
    type Err = String;

    fn from_str(s: &str) -> Result<TheorySelect, String> {
        match s.to_ascii_lowercase().as_str() {
            "auto" => Ok(TheorySelect::Auto),
            "simplex" => Ok(TheorySelect::Simplex),
            other => Err(format!("unknown theory `{other}` (expected auto or simplex)")),
        }
    }
}

/// The process-wide default read by `SmtConfig::default()`. Binaries set it
/// once at startup from `--theory`; library consumers that need a specific
/// engine set [`SmtConfig::theory`](crate::SmtConfig::theory) instead
/// (tests must: the process default is shared across threads).
// synthlint: allow(relaxed-handoff) — set once at binary startup before solver threads exist; later readers only need eventual visibility of a plain u8
static PROCESS_DEFAULT: AtomicU8 = AtomicU8::new(0);

/// Sets the process-wide default theory selection (see
/// [`process_default_theory`]). Intended for binary startup, before any
/// solver is constructed.
pub fn set_process_default_theory(sel: TheorySelect) {
    PROCESS_DEFAULT.store(sel as u8, Ordering::Relaxed);
}

/// The current process-wide default theory selection ([`TheorySelect::Auto`]
/// unless a binary overrode it at startup).
pub fn process_default_theory() -> TheorySelect {
    match PROCESS_DEFAULT.load(Ordering::Relaxed) {
        1 => TheorySelect::Simplex,
        _ => TheorySelect::Auto,
    }
}

/// A theory-conflict explanation in certificate form: the asserted atom
/// indices of an inconsistent subset, tagged with the proof shape that
/// justifies them. The SMT layer turns the certificate into a blocking
/// clause (logged as a theory lemma in the DRAT trace); the tag survives
/// into debug output so certificate provenance stays auditable.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TheoryCertificate {
    /// Proof shape: `"farkas"` (simplex ray), `"neg-cycle"` (difference-
    /// logic negative cycle), or `"pinned-diseq"` (bounds pin a form to a
    /// forbidden value).
    pub kind: &'static str,
    /// Indices of the asserted atoms forming the inconsistent subset.
    pub atoms: Vec<usize>,
}

/// The incremental theory-engine interface consulted from inside the SAT
/// search (the DPLL(T) partial check) and by persistent sessions.
///
/// Contract:
///
/// * atoms are registered once via [`TheorySolver::add_atom`] and addressed
///   by the returned dense index thereafter;
/// * [`assert_atom`](TheorySolver::assert_atom) /
///   [`retract_atom`](TheorySolver::retract_atom) mirror the boolean
///   assignment; re-asserting the same polarity is a no-op, flipping
///   polarity is retract + assert;
/// * [`check`](TheorySolver::check) decides the asserted conjunction under
///   a step budget. `None` means the budget (or `poll`) ran out: a partial
///   check then reports no conflict, and the final check (unlimited steps,
///   still polled) gives the query up; `Some(Err(core))` is a conflict with
///   the asserted atom indices of an inconsistent subset;
/// * [`model`](TheorySolver::model) reads the point a consistent check
///   found, which the final check makes integral by splitting;
/// * [`push`](TheorySolver::push) / [`pop`](TheorySolver::pop) bracket
///   assertion state (aligned with [`SmtSession`](crate::SmtSession)
///   selector scopes): `pop` restores every atom's asserted polarity to its
///   state at the matching `push`.
///
/// The trait is object-safe; the SMT driver holds `Box<dyn TheorySolver>`.
pub trait TheorySolver {
    /// A short stable engine name (`"simplex"`, `"dl"`) for metrics and
    /// debug output.
    fn name(&self) -> &'static str;

    /// Appends a fresh problem variable and returns its dense index.
    fn add_var(&mut self) -> usize;

    /// The number of problem variables registered so far.
    fn num_vars(&self) -> usize;

    /// Registers an atom over already-added variables and returns its dense
    /// index, or `None` when the atom lies outside the engine's fragment
    /// (the caller must then migrate the query to a complete engine).
    /// Engines must either accept an atom fully or reject it without
    /// registering anything.
    fn add_atom(&mut self, atom: &LinearAtom) -> Option<usize>;

    /// The number of registered atoms.
    fn num_atoms(&self) -> usize;

    /// Asserts atom `idx` with the given polarity.
    fn assert_atom(&mut self, idx: usize, polarity: bool);

    /// Retracts atom `idx` (no-op if not asserted).
    fn retract_atom(&mut self, idx: usize);

    /// The currently asserted polarity of atom `idx`.
    fn polarity(&self, idx: usize) -> Option<bool>;

    /// Opens an assertion frame: the next [`pop`](TheorySolver::pop)
    /// restores all atom polarities to their state as of this call.
    fn push(&mut self);

    /// Closes the innermost assertion frame (no-op with none open).
    fn pop(&mut self);

    /// Decides the asserted conjunction under a step budget, polling
    /// `poll` periodically (a `false` return cancels). `None`: budget or
    /// poll ran out, answer unknown. `Some(Ok(()))`: consistent (for the
    /// simplex engine, rationally consistent only). `Some(Err(core))`:
    /// conflict, with the asserted atom indices of an inconsistent subset.
    fn check(
        &mut self,
        max_steps: u64,
        poll: &mut dyn FnMut() -> bool,
    ) -> Option<Result<(), Vec<usize>>>;

    /// The certificate of the most recent conflict reported by
    /// [`check`](TheorySolver::check), if still current (assertion changes
    /// invalidate it).
    fn explain_conflict(&self) -> Option<TheoryCertificate>;

    /// The values of the problem variables, in variable order. Right after
    /// a consistent [`check`](TheorySolver::check) they satisfy every
    /// asserted atom except possibly a disequality: a rational point for
    /// simplex, an integral one for difference logic.
    fn model(&self) -> Vec<Rat>;

    /// Forgets the current point, keeping the asserted state: the next
    /// check searches from the origin, as a fresh engine would. Sessions
    /// call it before each query, so that a query's model does not drift
    /// with the models of the queries before it.
    fn reset_model(&mut self);

    /// Lifetime count of the engine's unit of search work: simplex pivots
    /// for the LRA engine, label relaxations for difference logic.
    /// Monotone; the search-analytics layer differences successive reads
    /// to attribute work to theory checks.
    fn search_work(&self) -> u64;
}

/// Whether a canonical atom fits the integer difference-logic fragment:
/// `±x ⋈ c` (a unary bound, routed through the zero node) or
/// `x - y ⋈ c`. Canonicalization GCD-tightens coefficients, so scaled
/// difference constraints (`2x - 2y ≤ 5`) normalize into the fragment
/// before this test sees them.
pub fn fits_dl(atom: &LinearAtom) -> bool {
    let (coeffs, _, _) = atom;
    match coeffs.as_slice() {
        [] => true, // ground; never enters the atom list, but harmless
        [(_, c)] => *c == 1 || *c == -1,
        [(u, a), (v, b)] => u != v && ((*a == 1 && *b == -1) || (*a == -1 && *b == 1)),
        _ => false,
    }
}

/// Bit-length ceiling on the coefficients produced by equality reduction.
/// Repeated extended-gcd substitutions can square coefficient sizes per
/// step; past this cap the reduction stops and proves nothing, which is
/// sound — branching still decides the query, just more slowly.
const REDUCE_COEFF_BIT_CAP: usize = 512;

/// One equality `Σ coeff·var = rhs` with merged, nonzero coefficients.
type IntEquality = (Vec<(usize, BigInt)>, BigInt);

/// One step of equality elimination.
#[derive(Clone, Debug)]
enum Elim {
    /// `var := konst + Σ c·v`, replayed backwards to build a point.
    Solve {
        var: usize,
        expr: Vec<(usize, BigInt)>,
        konst: BigInt,
    },
    /// A fresh variable with `var = Σ c·v` over the variables it replaces,
    /// replayed forwards to carry a rational point over to it.
    Fresh {
        var: usize,
        expr: Vec<(usize, BigInt)>,
    },
}

/// What equality reduction found out about a conjunction of equalities.
#[derive(Clone, Debug)]
pub(crate) enum Equalities {
    /// No integer solution: the GCD test refutes the conjunction.
    Infeasible,
    /// Every integer solution, as eliminations over free integer variables.
    Solved(Parametrization),
    /// The reduction hit its caps.
    Unknown,
}

/// The integer solutions of a conjunction of equalities: each choice of
/// integers for the variables left free, replayed through the
/// eliminations, is a solution.
#[derive(Clone, Debug)]
pub(crate) struct Parametrization {
    elims: Vec<Elim>,
    /// Problem variables plus the fresh ones the pair steps introduced.
    num_vars: usize,
}

impl Parametrization {
    /// An integer solution near the rational point `near` (one value per
    /// problem variable): free variables take the nearest integer to the
    /// value the point gives them, and the eliminated ones follow.
    pub(crate) fn point_near(&self, near: &[Rat]) -> Vec<BigInt> {
        let mut want: Vec<Rat> = near.to_vec();
        want.resize(self.num_vars, Rat::zero());
        for elim in &self.elims {
            if let Elim::Fresh { var, expr } = elim {
                want[*var] = expr.iter().fold(Rat::zero(), |sum, (v, c)| {
                    &sum + &(&Rat::from(c.clone()) * &want[*v])
                });
            }
        }
        let half = Rat::new(BigInt::one(), BigInt::from(2));
        let mut point: Vec<BigInt> = want.iter().map(|v| (v + &half).floor()).collect();
        for elim in self.elims.iter().rev() {
            if let Elim::Solve { var, expr, konst } = elim {
                point[*var] = expr
                    .iter()
                    .fold(konst.clone(), |sum, (v, c)| &sum + &(c * &point[*v]));
            }
        }
        point.truncate(near.len());
        point
    }
}

/// Equality reduction over `num_vars` variables: the GCD test, which
/// refutes equalities with rational but no integer solutions
/// (`x = 2y ∧ x = 2z + 1`, which branching alone may never refute on
/// unbounded variables), and otherwise the parametrization of all integer
/// solutions.
///
/// The reduction repeats two moves until every equality is eliminated or
/// one shows a coefficient gcd that does not divide its right-hand side:
///
/// 1. an equality with a `±1` coefficient on `v` is solved for `v`, which
///    is substituted away everywhere else;
/// 2. otherwise an equality `a·x + b·y + … = r` has `x, y` reparametrized
///    with fresh `w, u` (`x := s·w + (b/g)·u`, `y := t·w − (a/g)·u`, where
///    `a·s + b·t = g = gcd(a, b)`), turning `a·x + b·y` into `g·w`,
///    shrinking the equality by one variable per step.
pub(crate) fn solve_equalities(eqs: &[&LinearAtom], mut num_vars: usize) -> Equalities {
    let mut cons: Vec<IntEquality> = eqs
        .iter()
        .map(|(coeffs, _, rhs)| {
            let coeffs = coeffs.iter().map(|&(v, c)| (v, BigInt::from(c))).collect();
            (merged(coeffs), BigInt::from(*rhs))
        })
        .collect();
    let mut elims: Vec<Elim> = Vec::new();
    // Pair reparametrizations can widen *other* equalities, so the loop has
    // no simple termination measure; cap the total step count outright.
    let mut steps_left = 16 + 8 * cons.len();
    loop {
        // Normalize: divide each equality by its coefficient gcd, which
        // must divide the right-hand side.
        let mut i = 0;
        while i < cons.len() {
            let (coeffs, rhs) = &mut cons[i];
            let g = coeffs.iter().fold(BigInt::zero(), |g, (_, c)| g.gcd(c));
            if g.is_zero() {
                if !rhs.is_zero() {
                    return Equalities::Infeasible; // 0 = r with r ≠ 0
                }
                cons.swap_remove(i);
                continue;
            }
            if !(&*rhs % &g).is_zero() {
                return Equalities::Infeasible;
            }
            if g != BigInt::one() {
                for (_, c) in coeffs.iter_mut() {
                    *c = &*c / &g;
                }
                *rhs = &*rhs / &g;
            }
            i += 1;
        }
        if cons.is_empty() {
            return Equalities::Solved(Parametrization { elims, num_vars });
        }
        let oversized = cons.iter().any(|(coeffs, rhs)| {
            rhs.bits() > REDUCE_COEFF_BIT_CAP
                || coeffs.iter().any(|(_, c)| c.bits() > REDUCE_COEFF_BIT_CAP)
        });
        if oversized || steps_left == 0 {
            return Equalities::Unknown;
        }
        steps_left -= 1;
        // After normalization a one-variable equality has a unit
        // coefficient, so move 2 always finds two variables.
        let unit = cons.iter().enumerate().find_map(|(ci, (coeffs, _))| {
            coeffs
                .iter()
                .find(|(_, c)| c.abs() == BigInt::one())
                .map(|(v, c)| (ci, *v, c.is_positive()))
        });
        match unit {
            Some((ci, var, positive)) => {
                // ±v + Σ a·x = r  ⇒  v = ±(r − Σ a·x)
                let (coeffs, rhs) = cons.swap_remove(ci);
                let sign = if positive {
                    BigInt::one()
                } else {
                    -&BigInt::one()
                };
                let expr: Vec<(usize, BigInt)> = coeffs
                    .iter()
                    .filter(|(w, _)| *w != var)
                    .map(|(w, c)| (*w, -&(&sign * c)))
                    .collect();
                let konst = &sign * &rhs;
                for (coeffs, rhs) in &mut cons {
                    let Some(k) = take_coeff(coeffs, var) else {
                        continue;
                    };
                    coeffs.extend(expr.iter().map(|(w, c)| (*w, &k * c)));
                    *rhs = &*rhs - &(&k * &konst);
                    *coeffs = merged(std::mem::take(coeffs));
                }
                elims.push(Elim::Solve { var, expr, konst });
            }
            None => {
                let (x, a) = cons[0].0[0].clone();
                let (y, b) = cons[0].0[1].clone();
                let (g, s, t) = BigInt::extended_gcd(&a, &b);
                let (w, u) = (num_vars, num_vars + 1);
                num_vars += 2;
                let (a_g, b_g) = (&a / &g, &b / &g);
                // The inverse substitution, for carrying points over.
                elims.push(Elim::Fresh {
                    var: w,
                    expr: vec![(x, a_g.clone()), (y, b_g.clone())],
                });
                elims.push(Elim::Fresh {
                    var: u,
                    expr: vec![(x, t.clone()), (y, -&s)],
                });
                let x_expr = vec![(w, s), (u, b_g)];
                let y_expr = vec![(w, t), (u, -&a_g)];
                for (coeffs, _) in &mut cons {
                    let kx = take_coeff(coeffs, x);
                    let ky = take_coeff(coeffs, y);
                    for (k, expr) in [(kx, &x_expr), (ky, &y_expr)] {
                        if let Some(k) = k {
                            coeffs.extend(expr.iter().map(|(v, c)| (*v, &k * c)));
                        }
                    }
                    *coeffs = merged(std::mem::take(coeffs));
                }
                let konst = BigInt::zero();
                elims.push(Elim::Solve {
                    var: x,
                    expr: x_expr,
                    konst: konst.clone(),
                });
                elims.push(Elim::Solve {
                    var: y,
                    expr: y_expr,
                    konst,
                });
            }
        }
    }
}

/// Sums duplicate variables and drops zero coefficients.
fn merged(coeffs: Vec<(usize, BigInt)>) -> Vec<(usize, BigInt)> {
    let mut m: std::collections::BTreeMap<usize, BigInt> = Default::default();
    for (v, c) in coeffs {
        *m.entry(v).or_default() += &c;
    }
    m.into_iter().filter(|(_, c)| !c.is_zero()).collect()
}

/// Removes `var` from a merged coefficient list, returning its coefficient.
fn take_coeff(coeffs: &mut Vec<(usize, BigInt)>, var: usize) -> Option<BigInt> {
    let pos = coeffs.iter().position(|(v, _)| *v == var)?;
    Some(coeffs.remove(pos).1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn select_round_trips_through_strings() {
        for sel in [TheorySelect::Auto, TheorySelect::Simplex] {
            assert_eq!(sel.as_str().parse::<TheorySelect>().unwrap(), sel);
        }
        assert_eq!("SIMPLEX".parse::<TheorySelect>().unwrap(), TheorySelect::Simplex);
        // Only the two selections parse; `dl` is not a spelling.
        assert!("dl".parse::<TheorySelect>().is_err());
        assert!("cvc5".parse::<TheorySelect>().is_err());
    }

    #[test]
    fn gcd_test_refutes_parity_systems() {
        let eq = |coeffs: &[(usize, i64)], rhs: i64| -> LinearAtom { (coeffs.to_vec(), true, rhs) };
        let solve = |eqs: &[LinearAtom], vars: usize| {
            solve_equalities(&eqs.iter().collect::<Vec<_>>(), vars)
        };
        let infeasible =
            |eqs: &[LinearAtom], vars: usize| matches!(solve(eqs, vars), Equalities::Infeasible);
        // x = 2y ∧ x = 2z + 1: x both even and odd.
        assert!(infeasible(
            &[eq(&[(0, 1), (1, -2)], 0), eq(&[(0, 1), (2, -2)], 1)],
            3
        ));
        // 6x + 10y = 7: gcd 2 does not divide 7.
        assert!(infeasible(&[eq(&[(0, 6), (1, 10)], 7)], 2));
        // 3x + 6y = 9 ∧ x + 2y = 4: 3 = 4 after substitution.
        assert!(infeasible(
            &[eq(&[(0, 3), (1, 6)], 9), eq(&[(0, 1), (1, 2)], 4)],
            2
        ));
        // Solvable systems come back parametrized; a point near any
        // rational guess solves them exactly.
        let near = |eqs: &[LinearAtom], guess: &[i64]| -> Vec<BigInt> {
            let Equalities::Solved(p) = solve(eqs, guess.len()) else {
                panic!("solvable system");
            };
            let guess: Vec<Rat> = guess.iter().map(|&g| Rat::from(g)).collect();
            let point = p.point_near(&guess);
            for (coeffs, _, rhs) in eqs {
                let sum = coeffs.iter().fold(BigInt::zero(), |sum, &(v, c)| {
                    &sum + &(&BigInt::from(c) * &point[v])
                });
                assert_eq!(sum, BigInt::from(*rhs));
            }
            point
        };
        // 6x + 10y + 15z = 1 needs the pair step.
        near(&[eq(&[(0, 6), (1, 10), (2, 15)], 1)], &[0, 0, 0]);
        // 4x + 6y = 2 ∧ x - y = 3 has x = 2, y = -1 only.
        let p = near(
            &[eq(&[(0, 4), (1, 6)], 2), eq(&[(0, 1), (1, -1)], 3)],
            &[7, 7],
        );
        assert_eq!(p, vec![BigInt::from(2), BigInt::from(-1)]);
        // x - y = 0 keeps an integral guess.
        let p = near(&[eq(&[(0, 1), (1, -1)], 0)], &[5, 5]);
        assert_eq!(p, vec![BigInt::from(5), BigInt::from(5)]);
        // No equalities: the point is the rounded guess.
        assert_eq!(near(&[], &[3]), vec![BigInt::from(3)]);
    }

    #[test]
    fn fragment_detector() {
        // x <= 3
        assert!(fits_dl(&(vec![(0, 1)], false, 3)));
        // -y <= -2
        assert!(fits_dl(&(vec![(1, -1)], false, -2)));
        // x - y <= 7, both coefficient orders
        assert!(fits_dl(&(vec![(0, 1), (1, -1)], false, 7)));
        assert!(fits_dl(&(vec![(0, -1), (1, 1)], true, 7)));
        // 2x <= 3 (post-tightening this cannot appear, but reject anyway)
        assert!(!fits_dl(&(vec![(0, 2)], false, 3)));
        // x + y <= 3
        assert!(!fits_dl(&(vec![(0, 1), (1, 1)], false, 3)));
        // three variables
        assert!(!fits_dl(&(vec![(0, 1), (1, -1), (2, 1)], false, 0)));
    }
}
