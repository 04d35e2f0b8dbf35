//! Integer-feasibility tests of the DPLL(T) loop on conjunctions of linear
//! constraints: the cases where the rational relaxation and the integers
//! disagree, decided by the session's splits on demand, its GCD test and
//! atom canonicalization.

#[cfg(test)]
mod tests {
    use crate::solver::{eval_exact, BigVal};
    use crate::{BigInt, Budget, Model, SmtConfig, SmtError, SmtResult, SmtSolver};
    use sygus_ast::Term;

    /// Relation of a linear constraint `Σ cᵢ·xᵢ ⋈ rhs`.
    #[derive(Clone, Copy)]
    pub(super) enum Rel {
        Le,
        Ge,
        Eq,
    }

    pub(super) fn var(v: usize) -> Term {
        Term::int_var(format!("l{v}").as_str())
    }

    /// `Σ c·x_v ⋈ rhs` as a term (variables may repeat).
    pub(super) fn lin(coeffs: &[(usize, i64)], rel: Rel, rhs: i64) -> Term {
        let lhs = coeffs.iter().fold(Term::int(0), |sum, &(v, c)| {
            Term::add(sum, Term::scale(c, var(v)))
        });
        match rel {
            Rel::Le => Term::le(lhs, Term::int(rhs)),
            Rel::Ge => Term::ge(lhs, Term::int(rhs)),
            Rel::Eq => Term::eq(lhs, Term::int(rhs)),
        }
    }

    pub(super) fn check_with(cfg: SmtConfig, cons: &[Term]) -> Result<SmtResult, SmtError> {
        SmtSolver::with_config(cfg).check(&Term::and(cons.iter().cloned()))
    }

    pub(super) fn check(cons: &[Term]) -> Result<SmtResult, SmtError> {
        check_with(SmtConfig::default(), cons)
    }

    /// The model of a satisfiable conjunction, checked against every
    /// constraint.
    pub(super) fn sat(cons: &[Term]) -> Model {
        match check(cons) {
            Ok(SmtResult::Sat(m)) => {
                for c in cons {
                    assert!(holds(c, &m), "violated: {c}");
                }
                m
            }
            other => panic!("expected sat, got {other:?}"),
        }
    }

    pub(super) fn holds(c: &Term, m: &Model) -> bool {
        eval_exact(c, m) == Ok(BigVal::Bool(true))
    }

    pub(super) fn values(m: &Model, n: usize) -> Vec<i64> {
        (0..n)
            .map(|v| {
                let s = var(v).as_var().expect("variable");
                m.int(s).to_i64().expect("fits i64")
            })
            .collect()
    }

    pub(super) fn unsat(cons: &[Term]) {
        assert_eq!(check(cons), Ok(SmtResult::Unsat));
    }

    #[test]
    fn trivially_sat() {
        assert!(matches!(check(&[]), Ok(SmtResult::Sat(_))));
    }

    #[test]
    fn cancelled_poll_answers_unknown() {
        let cons = [lin(&[(0, 1)], Rel::Ge, 3), lin(&[(0, 1)], Rel::Le, 5)];
        let budget = Budget::unlimited();
        budget.cancel();
        let cfg = SmtConfig {
            budget,
            ..SmtConfig::default()
        };
        assert_eq!(check_with(cfg, &cons), Err(SmtError::Timeout));
    }

    #[test]
    fn simple_bounds_sat() {
        let m = sat(&[lin(&[(0, 1)], Rel::Ge, 3), lin(&[(0, 1)], Rel::Le, 5)]);
        assert!((3..=5).contains(&values(&m, 1)[0]));
    }

    #[test]
    fn parity_unsat() {
        // 2x - 2y = 1 is rationally sat but integrally unsat.
        unsat(&[lin(&[(0, 2), (1, -2)], Rel::Eq, 1)]);
    }

    #[test]
    fn fractional_forced_to_integer() {
        // 2x = 6 → x = 3
        let m = sat(&[lin(&[(0, 2)], Rel::Eq, 6)]);
        assert_eq!(values(&m, 1), vec![3]);
    }

    #[test]
    fn branch_needed() {
        // 3 <= 2x <= 5 → x = 2
        let m = sat(&[lin(&[(0, 2)], Rel::Ge, 3), lin(&[(0, 2)], Rel::Le, 5)]);
        assert_eq!(values(&m, 1), vec![2]);
    }

    #[test]
    fn tight_window_unsat() {
        // 3x >= 6 and 3x <= 5: x >= 2 and x <= 1.
        unsat(&[lin(&[(0, 3)], Rel::Ge, 6), lin(&[(0, 3)], Rel::Le, 5)]);
    }

    #[test]
    fn two_var_system() {
        // x + y = 7, x - y = 3 → x = 5, y = 2
        let m = sat(&[
            lin(&[(0, 1), (1, 1)], Rel::Eq, 7),
            lin(&[(0, 1), (1, -1)], Rel::Eq, 3),
        ]);
        assert_eq!(values(&m, 2), vec![5, 2]);
    }

    #[test]
    fn knapsack_like() {
        // 3x + 5y = 14, x,y >= 0 → (3, 1)
        let m = sat(&[
            lin(&[(0, 3), (1, 5)], Rel::Eq, 14),
            lin(&[(0, 1)], Rel::Ge, 0),
            lin(&[(1, 1)], Rel::Ge, 0),
        ]);
        assert_eq!(values(&m, 2), vec![3, 1]);
    }

    #[test]
    fn solution_satisfies_all_constraints() {
        sat(&[
            lin(&[(0, 7), (1, -3), (2, 1)], Rel::Le, 11),
            lin(&[(0, 1), (1, 1), (2, 1)], Rel::Ge, 5),
            lin(&[(0, 2), (1, 1)], Rel::Eq, 4),
            lin(&[(2, 1)], Rel::Le, 10),
            lin(&[(2, 1)], Rel::Ge, -10),
        ]);
    }

    #[test]
    fn repeated_variable_coefficients_merge() {
        // x + x <= 3 → x <= 1 (integers)
        let m = sat(&[
            lin(&[(0, 1), (0, 1)], Rel::Le, 3),
            lin(&[(0, 1)], Rel::Ge, 1),
        ]);
        assert_eq!(values(&m, 1), vec![1]);
    }

    #[test]
    fn budget_exhaustion_is_unknown() {
        // Every final check spends a unit of fuel: with one unit, the
        // branch this query needs (x = y ∧ 5y ∈ [6, 7]) runs it out.
        let cons = [
            lin(&[(0, 1), (1, -1)], Rel::Ge, 0),
            lin(&[(0, 1), (1, -1)], Rel::Le, 0),
            lin(&[(0, 2), (1, 3)], Rel::Ge, 6),
            lin(&[(0, 2), (1, 3)], Rel::Le, 7),
        ];
        assert_eq!(check(&cons), Ok(SmtResult::Unsat));
        let cfg = SmtConfig {
            budget: Budget::unlimited().with_fuel(1),
            ..SmtConfig::default()
        };
        let r = check_with(cfg, &cons);
        assert!(matches!(r, Err(SmtError::ResourceLimit(_))), "{r:?}");
    }

    #[test]
    fn gcd_tightening_decides_parity_without_branching() {
        // 2x - 2y = 1 canonicalizes to the ground-false atom: no theory
        // split, no full check.
        let tracer = sygus_ast::Tracer::metrics_only();
        let cfg = SmtConfig {
            budget: Budget::unlimited().with_tracer(tracer.clone()),
            ..SmtConfig::default()
        };
        let cons = [lin(&[(0, 2), (1, -2)], Rel::Eq, 1)];
        assert_eq!(check_with(cfg, &cons), Ok(SmtResult::Unsat));
        assert_eq!(tracer.metrics().counter("search.theory_splits_total"), 0);
    }

    #[test]
    fn gcd_tightening_inequalities() {
        // 3x >= 4 ∧ 3x <= 5 → x >= 2 ∧ x <= 1 → unsat, no branching needed.
        unsat(&[lin(&[(0, 3)], Rel::Ge, 4), lin(&[(0, 3)], Rel::Le, 5)]);
    }

    #[test]
    fn ground_constraints() {
        // 0 <= -1 after merging x - x.
        unsat(&[lin(&[(0, 1), (0, -1)], Rel::Le, -1)]);
        assert!(matches!(
            check(&[lin(&[(0, 1), (0, -1)], Rel::Le, 0)]),
            Ok(SmtResult::Sat(_))
        ));
    }

    #[test]
    fn holds_on_eval() {
        // The exact evaluator that certifies every sat model.
        let c = lin(&[(0, 2), (1, -1)], Rel::Le, 3);
        let mut m = Model::default();
        m.ints
            .insert(var(0).as_var().expect("var"), BigInt::from(1));
        assert!(holds(&c, &m));
        m.ints
            .insert(var(0).as_var().expect("var"), BigInt::from(5));
        assert!(!holds(&c, &m));
    }
}

#[cfg(test)]
mod pair_reduction_tests {
    use super::tests::{check, lin, sat, unsat, values, Rel};
    use crate::SmtResult;

    #[test]
    fn non_unit_equality_pair_reduced() {
        // 3x = 2y with 1 ≤ x ≤ 4 forces x ∈ {2, 4} (x must be even).
        let m = sat(&[
            lin(&[(0, 3), (1, -2)], Rel::Eq, 0),
            lin(&[(0, 1)], Rel::Ge, 1),
            lin(&[(0, 1)], Rel::Le, 4),
        ]);
        let x = values(&m, 1)[0];
        assert!(x == 2 || x == 4, "x = {x}");
    }

    #[test]
    fn non_unit_equality_infeasible_window() {
        // 3x = 2y, 1 ≤ x ≤ 1: x = 1 is odd ⇒ unsat.
        unsat(&[
            lin(&[(0, 3), (1, -2)], Rel::Eq, 0),
            lin(&[(0, 1)], Rel::Ge, 1),
            lin(&[(0, 1)], Rel::Le, 1),
        ]);
    }

    #[test]
    fn bound_pair_becomes_equality() {
        // 3x − 2y ≥ 1 and 3x − 2y ≤ 1: 3x − 2y = 1 has x = 1, y = 1.
        sat(&[
            lin(&[(0, 3), (1, -2)], Rel::Ge, 1),
            lin(&[(0, 3), (1, -2)], Rel::Le, 1),
        ]);
    }

    #[test]
    fn three_var_equality_chain() {
        // 6a + 10b + 15c = 1 has integer solutions (gcd(6,10,15) = 1).
        let cons = [lin(&[(0, 6), (1, 10), (2, 15)], Rel::Eq, 1)];
        let r = check(&cons);
        assert!(matches!(r, Ok(SmtResult::Sat(_))), "{r:?}");
        sat(&cons);
    }

    /// `x = 2y ∧ x = 2z + 1` is rationally feasible on an unbounded ray,
    /// where branching alone never ends; the GCD test refutes it.
    #[test]
    fn parity_of_two_equalities_unsat() {
        unsat(&[
            lin(&[(0, 1), (1, -2)], Rel::Eq, 0),
            lin(&[(0, 1), (2, -2)], Rel::Eq, 1),
        ]);
    }
}
