//! Answer checks that do not rely on the solver's own verification: every
//! answer is evaluated with the AST evaluator on seeded concrete points,
//! and `certify` mutants are kept only when such a point refutes them.

use crate::workloads::Rng;
use sygus_ast::{Env, Problem, Sort, Term, Value};

/// Concrete points checked per answer.
const POINTS: usize = 256;

/// `POINTS` seeded assignments to the problem's declared variables. Half
/// the values are small, where most case splits sit; the rest reach past
/// the largest loop bound the generators draw (1000).
pub fn points(problem: &Problem, name: &str, seed: u64) -> Vec<Env> {
    let mut rng = Rng::seeded(seed, name);
    (0..POINTS)
        .map(|_| {
            problem
                .declared_vars
                .iter()
                .map(|&(v, sort)| {
                    let value = match sort {
                        Sort::Bool => Value::Bool(rng.next_u64() & 1 == 1),
                        Sort::Int if rng.next_u64() & 1 == 0 => Value::Int(rng.range(-10, 10)),
                        Sort::Int => Value::Int(rng.range(-1200, 1200)),
                    };
                    (v, value)
                })
                .collect()
        })
        .collect()
}

/// Whether `body` violates the spec on one of `points`. Points where
/// evaluation fails (overflow) prove nothing and are skipped.
pub fn refuted(problem: &Problem, body: &Term, points: &[Env]) -> bool {
    let formula = problem.verification_formula(body);
    points
        .iter()
        .any(|env| formula.eval(env, &problem.definitions) == Ok(Value::Bool(false)))
}

/// A seeded mutant of `body`: the whole answer shifted by 1, -1 or 2, or
/// negated when it is a predicate. Every answer gets a mutant of its own
/// size, so the cost of refuting it does not depend on where a mutation
/// landed.
pub fn mutate(body: &Term, rng: &mut Rng) -> Term {
    match body.sort() {
        Sort::Bool => Term::not(body.clone()),
        Sort::Int => Term::add(body.clone(), Term::int([1, -1, 2][rng.index(3)])),
    }
}
