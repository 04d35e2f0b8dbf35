//! End-to-end solution certification: before a `Solved` outcome is reported,
//! the candidate body is re-checked by three independent gates — grammar
//! membership, sort checking, and a fresh SMT validity query (itself running
//! with proof-logged certification) — mirroring the re-validation SyGuS-Comp
//! performs on submitted solutions.
//!
//! The certifier shares no state with the engine that produced the solution:
//! grammar membership goes through [`Problem::grammar_admits`], sorts through
//! [`Term::check_sorts`], and the spec through a brand-new
//! [`SmtSession`] on the inlined verification formula.

use smtkit::{SmtConfig, SmtSession, Validity};
use std::fmt;
use sygus_ast::{Budget, Problem, SortError, Stage, Term};

/// The spec-satisfaction verdict of the independent SMT query.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SpecVerdict {
    /// The verification formula is valid: the candidate meets the spec on
    /// every input.
    Proved,
    /// The query produced a counterexample input.
    Refuted,
    /// The query could not be decided (budget exhausted or solver error);
    /// the string records why.
    Unknown(String),
}

/// The result of certifying one solution: each gate's finding, combined by
/// [`Certificate::certified`].
#[derive(Clone, Debug)]
pub struct Certificate {
    /// The body is derivable from the problem grammar.
    pub grammar_ok: bool,
    /// Every application in the body is well-sorted and the body has the
    /// synth-fun's return sort.
    pub sort_ok: bool,
    /// The sort diagnostic when `sort_ok` is false (absent when the failure
    /// is a correct-but-wrong-sort body).
    pub sort_error: Option<SortError>,
    /// The independent spec check.
    pub spec: SpecVerdict,
}

impl Certificate {
    /// Whether every gate passed.
    pub fn certified(&self) -> bool {
        self.grammar_ok && self.sort_ok && self.spec == SpecVerdict::Proved
    }

    /// A one-line description of the first failing gate, `None` when
    /// certified.
    pub fn failure_reason(&self) -> Option<String> {
        // Sort problems first: an ill-sorted body also fails grammar
        // membership, and the sort diagnostic is the more precise message.
        if !self.sort_ok {
            return Some(match &self.sort_error {
                Some(e) => format!("solution is ill-sorted: {e}"),
                None => "solution has the wrong return sort".into(),
            });
        }
        if !self.grammar_ok {
            return Some("solution is not derivable from the problem grammar".into());
        }
        match &self.spec {
            SpecVerdict::Proved => None,
            SpecVerdict::Refuted => {
                Some("independent SMT check found a counterexample".into())
            }
            SpecVerdict::Unknown(why) => {
                Some(format!("independent SMT check was inconclusive: {why}"))
            }
        }
    }
}

impl fmt::Display for Certificate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.failure_reason() {
            None => write!(f, "certified"),
            Some(why) => write!(f, "not certified: {why}"),
        }
    }
}

/// Certifies `body` as a solution of `problem`. `None` for `budget` runs
/// unbounded. Never panics: inconclusive SMT answers come back as
/// [`SpecVerdict::Unknown`].
pub fn certify_solution(problem: &Problem, body: &Term, budget: Option<&Budget>) -> Certificate {
    let budget = budget.cloned().unwrap_or_default();
    let tracer = budget.tracer().clone();
    let _span = tracer.span(Stage::Verify);

    let grammar_ok = problem.grammar_admits(body);

    let (sort_ok, sort_error) = match body.check_sorts() {
        Ok(sort) => (sort == problem.synth_fun.ret, None),
        Err(e) => (false, Some(e)),
    };

    // Independent verification query on a fresh session; `certify` defaults
    // on, so an `unsat` here (validity) is itself DRAT-checked — with the
    // scope selector of the `check_valid` push recorded as an assumption
    // unit in the replayed trace.
    let mut smt = SmtSession::new(SmtConfig {
        budget,
        ..SmtConfig::default()
    });
    let formula = problem.verification_formula(body);
    let spec = match smt.check_valid(&formula) {
        Ok(Validity::Valid) => SpecVerdict::Proved,
        Ok(Validity::Invalid(_)) => SpecVerdict::Refuted,
        Err(e) => SpecVerdict::Unknown(e.to_string()),
    };

    let cert = Certificate {
        grammar_ok,
        sort_ok,
        sort_error,
        spec,
    };
    tracer.metrics().bump(if cert.certified() {
        "certify.passed"
    } else {
        "certify.failed"
    });
    cert
}

#[cfg(test)]
mod tests {
    use super::*;
    use sygus_parser::parse_problem;

    const MAX2: &str = r#"
        (set-logic LIA)
        (synth-fun max2 ((x Int) (y Int)) Int)
        (declare-var x Int)
        (declare-var y Int)
        (constraint (>= (max2 x y) x))
        (constraint (>= (max2 x y) y))
        (constraint (or (= (max2 x y) x) (= (max2 x y) y)))
        (check-synth)
    "#;

    fn max2_problem() -> Problem {
        parse_problem(MAX2).unwrap()
    }

    fn max2_body() -> Term {
        let x = Term::int_var("x");
        let y = Term::int_var("y");
        Term::ite(Term::ge(x.clone(), y.clone()), x, y)
    }

    #[test]
    fn correct_solution_certifies() {
        let p = max2_problem();
        let cert = certify_solution(&p, &max2_body(), None);
        assert!(cert.grammar_ok);
        assert!(cert.sort_ok);
        assert_eq!(cert.spec, SpecVerdict::Proved);
        assert!(cert.certified());
        assert_eq!(cert.failure_reason(), None);
        assert_eq!(cert.to_string(), "certified");
    }

    #[test]
    fn wrong_solution_is_refuted() {
        let p = max2_problem();
        // min2 is in-grammar and well-sorted but violates the spec.
        let x = Term::int_var("x");
        let y = Term::int_var("y");
        let min2 = Term::ite(Term::le(x.clone(), y.clone()), x, y);
        let cert = certify_solution(&p, &min2, None);
        assert!(cert.grammar_ok);
        assert!(cert.sort_ok);
        assert_eq!(cert.spec, SpecVerdict::Refuted);
        assert!(!cert.certified());
        assert!(cert.failure_reason().unwrap().contains("counterexample"));
    }

    #[test]
    fn out_of_grammar_solution_fails_the_grammar_gate() {
        const RESTRICTED: &str = r#"
            (set-logic LIA)
            (synth-fun id ((x Int)) Int ((S Int (x 0 (+ S S)))))
            (declare-var x Int)
            (constraint (= (id x) x))
            (check-synth)
        "#;
        let p = parse_problem(RESTRICTED).unwrap();
        // Behaviourally correct but uses `-`, which the grammar lacks.
        let body = Term::app(
            sygus_ast::Op::Sub,
            vec![Term::int_var("x"), Term::int(0)],
        );
        let cert = certify_solution(&p, &body, None);
        assert!(!cert.grammar_ok);
        assert!(!cert.certified());
        assert!(cert.failure_reason().unwrap().contains("grammar"));
    }

    #[test]
    fn ill_sorted_solution_fails_the_sort_gate() {
        let p = max2_problem();
        // ite with an integer condition: never well-sorted.
        let body = Term::app(
            sygus_ast::Op::Ite,
            vec![Term::int_var("x"), Term::int_var("x"), Term::int_var("y")],
        );
        let cert = certify_solution(&p, &body, None);
        assert!(!cert.sort_ok);
        assert!(cert.sort_error.is_some());
        assert!(!cert.certified());
        assert!(cert.failure_reason().unwrap().contains("ill-sorted"));
    }

    #[test]
    fn wrong_return_sort_fails_without_a_diagnostic() {
        let p = max2_problem();
        let body = Term::ge(Term::int_var("x"), Term::int_var("y"));
        let cert = certify_solution(&p, &body, None);
        assert!(!cert.sort_ok);
        assert!(cert.sort_error.is_none());
        assert!(cert.failure_reason().unwrap().contains("return sort"));
    }
}
