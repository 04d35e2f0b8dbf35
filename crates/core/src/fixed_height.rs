//! Fixed-height synthesis (Section 5, Algorithm 2): CEGIS where the
//! inductive-synthesis step is a single symbolic QF_LIA query over the
//! decision-tree (or general-grammar) encoding of all height-`h` programs.

use crate::{CliaTreeEncoding, GeneralEncoding};
use enum_synth::counterexample_env;
use smtkit::{SmtConfig, SmtError, SmtResult, SmtSession, SmtSolver, Validity};
use std::sync::{Mutex, MutexGuard};
use sygus_ast::runtime::{Budget, BudgetError};
use sygus_ast::{simplify, Env, GrammarFlavor, Op, Problem, Sort, Symbol, Term, TermNode, Value};

/// A thread-shared counterexample pool (Section 5.1: parallel heights share
/// counterexamples). Locking is poison-tolerant: a panicking worker (caught
/// and recorded as an engine fault upstream) must not wedge its siblings or
/// a later reuse of the pool, and the pool's contents — a set of observed
/// counterexamples — stay meaningful across an interrupted push.
#[derive(Debug, Default)]
pub struct ExamplePool(Mutex<Vec<Env>>);

impl ExamplePool {
    /// Locks the pool, recovering from a poisoned lock.
    pub fn lock(&self) -> MutexGuard<'_, Vec<Env>> {
        self.0.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }
}

/// Configuration for the fixed-height engine.
#[derive(Clone, Debug)]
pub struct FixedHeightConfig {
    /// Bound on variable coefficients in the decision-tree encoding; the
    /// ladder widens this geometrically when a height is exhausted.
    pub coeff_bounds: Vec<i64>,
    /// Bound on constant offsets (adapted upward to the spec's constants).
    pub const_bound: i64,
    /// Maximum CEGIS rounds per `(height, bound)` pair.
    pub max_cegis_rounds: usize,
    /// Shared resource governor (deadline, cancellation, fuel).
    pub budget: Budget,
}

impl Default for FixedHeightConfig {
    fn default() -> FixedHeightConfig {
        FixedHeightConfig {
            coeff_bounds: vec![1, 2],
            const_bound: 16,
            max_cegis_rounds: 160,
            budget: Budget::unlimited(),
        }
    }
}

impl FixedHeightConfig {
    /// Widens `const_bound` so constants mentioned by the spec are
    /// representable (e.g. a loop bound of 100 in an invariant problem),
    /// and appends a ladder rung for variable coefficients when the spec
    /// multiplies by small constants (`s = 3·i` needs coefficient 3).
    pub fn adapted_to(&self, problem: &Problem) -> FixedHeightConfig {
        let mut max_const = self.const_bound;
        let mut small_consts: Vec<i64> = Vec::new();
        for c in &problem.constraints {
            for sub in c.inline_defs(&problem.definitions).subterms() {
                if let Some(n) = sub.as_int_const() {
                    max_const = max_const.max(n.saturating_abs().saturating_mul(2));
                    let a = n.saturating_abs();
                    if (3..=64).contains(&a) {
                        small_consts.push(a);
                    }
                }
            }
        }
        let mut coeff_bounds = self.coeff_bounds.clone();
        if let Some(&m) = small_consts.iter().max() {
            let top = coeff_bounds.last().copied().unwrap_or(2);
            if m > top {
                coeff_bounds.push(m.min(64));
            }
        }
        FixedHeightConfig {
            const_bound: max_const,
            coeff_bounds,
            ..self.clone()
        }
    }
}

/// Result of a fixed-height attempt.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FixedHeightResult {
    /// A verified solution at this height.
    Solved(Term),
    /// Provably no solution of this height exists within the coefficient
    /// bounds.
    NoSolution,
    /// The deadline passed.
    Timeout,
    /// The engine could not express the problem (nested applications of the
    /// target function, non-integer parameters for the CLIA tree, solver
    /// resource limits).
    Failed(String),
    /// A backend or worker panicked; the payload was contained and is
    /// reported upstream as an [`EngineFault`](crate::EngineFault).
    Fault(String),
}

/// The fixed-height synthesizer: decision-tree normal form for the full
/// CLIA grammar, selector encoding for custom grammars.
#[derive(Clone, Debug, Default)]
pub struct FixedHeightSolver {
    config: FixedHeightConfig,
}

enum Encoder {
    Clia(CliaTreeEncoding),
    General(GeneralEncoding),
}

impl Encoder {
    fn interpret(&self, point: &[Value]) -> Result<Term, String> {
        match self {
            Encoder::Clia(e) => {
                let ints: Option<Vec<i64>> = point.iter().map(|v| v.as_int()).collect();
                ints.map(|p| e.interpret(&p))
                    .ok_or_else(|| "boolean argument for CLIA tree".to_owned())
            }
            Encoder::General(e) => Ok(e.interpret(point)),
        }
    }

    fn decode(&self, model: &smtkit::Model) -> Term {
        match self {
            Encoder::Clia(e) => e.decode(model),
            Encoder::General(e) => e.decode(model),
        }
    }

    fn bounds(&self, coeff: i64, konst: i64) -> Term {
        match self {
            Encoder::Clia(e) => e.bound_constraints(coeff, konst),
            Encoder::General(e) => e.bound_constraints(konst),
        }
    }
}

/// A fresh SMT session under the engine's budget.
fn new_session(cfg: &FixedHeightConfig) -> SmtSession {
    SmtSession::new(SmtConfig {
        budget: cfg.budget.clone(),
        ..SmtConfig::default()
    })
}

impl FixedHeightSolver {
    /// Creates a solver with the given configuration.
    pub fn new(config: FixedHeightConfig) -> FixedHeightSolver {
        FixedHeightSolver { config }
    }

    /// The configuration.
    pub fn config(&self) -> &FixedHeightConfig {
        &self.config
    }

    /// Polls the budget; `Some(result)` means the engine must stop now.
    fn interrupted(&self) -> Option<FixedHeightResult> {
        match self.config.budget.exceeded() {
            None => None,
            Some(e) if e.is_stop() => Some(FixedHeightResult::Timeout),
            Some(e @ (BudgetError::FuelExhausted | BudgetError::MemoryExhausted)) => {
                Some(FixedHeightResult::Failed(format!("budget: {e}")))
            }
            Some(_) => Some(FixedHeightResult::Timeout),
        }
    }

    /// Algorithm 2: searches for a solution whose syntax tree has height
    /// exactly `height`, sharing `examples` (the counterexample pool) with
    /// the caller across heights — the parallel version of Section 5.1
    /// passes the same pool to every height's thread.
    pub fn solve_at_height(
        &self,
        problem: &Problem,
        height: usize,
        examples: &ExamplePool,
    ) -> FixedHeightResult {
        let tracer = self.config.budget.tracer().clone();
        let _span = tracer
            .span(sygus_ast::trace::Stage::FixedHeight)
            .with_detail(|| format!("height={height}"));
        tracer.progress().set_height(height as u64);
        let cfg = self.config.adapted_to(problem);
        let sf = &problem.synth_fun;
        let encoder = match sf.grammar.flavor() {
            GrammarFlavor::Clia => {
                if sf.params.iter().any(|&(_, s)| s != Sort::Int) {
                    return FixedHeightResult::Failed("CLIA tree needs integer parameters".into());
                }
                let params: Vec<Symbol> = sf.param_syms();
                Encoder::Clia(CliaTreeEncoding::new(height, &params, sf.ret))
            }
            GrammarFlavor::Custom => {
                // The selector encoding shines when the grammar has
                // `(Constant Int)` holes (symbolic constants); otherwise the
                // space is finite per height and bounded concrete
                // enumeration with observational-equivalence pruning is far
                // faster than our SMT substrate on these queries — and at
                // height ≥ 3 the symbolic query is out of its comfort zone
                // either way. See DESIGN.md §4.
                let has_const_holes = sf
                    .grammar
                    .nonterminals()
                    .iter()
                    .flat_map(|nt| &nt.productions)
                    .any(has_any_const);
                if height >= 3 || !has_const_holes {
                    return self.solve_custom_by_enumeration(problem, height, examples, &cfg);
                }
                match GeneralEncoding::new(&sf.grammar, &problem.definitions, &sf.params, height) {
                    Some(e) => Encoder::General(e),
                    None => return FixedHeightResult::NoSolution,
                }
            }
        };
        // Spec with interpreted functions inlined (the target stays).
        let spec = problem.spec().inline_defs(&problem.definitions);
        {
            let mut pool = examples.lock();
            if pool.is_empty() {
                pool.extend(default_examples(problem));
            }
        }
        self.symbolic_cegis(problem, &cfg, &encoder, &spec, examples)
    }

    /// The symbolic CEGIS loop: one persistent synthesis session and one
    /// persistent verification session per height. Example constraints are
    /// asserted exactly once and live at the session's root scope; each
    /// coefficient bound gets its own assertion scope, so widening the bound
    /// pops only the bound constraint while everything learned from the
    /// examples is retained.
    fn symbolic_cegis(
        &self,
        problem: &Problem,
        cfg: &FixedHeightConfig,
        encoder: &Encoder,
        spec: &Term,
        examples: &ExamplePool,
    ) -> FixedHeightResult {
        let sf = &problem.synth_fun;
        let mut synth = new_session(cfg);
        let mut verify = new_session(cfg);
        fn smt_fail(e: SmtError) -> FixedHeightResult {
            match e {
                SmtError::Timeout => FixedHeightResult::Timeout,
                other => FixedHeightResult::Failed(other.to_string()),
            }
        }
        // Number of pool examples asserted at the synthesis session's root.
        let mut root_count = 0usize;
        for &coeff_bound in &cfg.coeff_bounds {
            // Hoist examples learned under the previous bound (their scoped
            // assertions died with its pop) to the root: the encoding is
            // already cached, only the clauses are re-attached.
            {
                let snapshot = examples.lock().clone();
                for env in &snapshot[root_count.min(snapshot.len())..] {
                    match instantiate_spec(spec, env, sf.name, &sf.params, encoder) {
                        Ok(t) => {
                            if let Err(e) = synth.assert_term(&t) {
                                return smt_fail(e);
                            }
                        }
                        Err(msg) => return FixedHeightResult::Failed(msg),
                    }
                    root_count += 1;
                }
            }
            synth.push();
            if let Err(e) = synth.assert_term(&encoder.bounds(coeff_bound, cfg.const_bound)) {
                return smt_fail(e);
            }
            // Examples asserted so far (root plus the open bound scope).
            let mut asserted = root_count;
            let mut rounds = 0;
            loop {
                if let Some(stop) = self.interrupted() {
                    return stop;
                }
                let _ = cfg.budget.charge_fuel(1);
                rounds += 1;
                cfg.budget.tracer().metrics().bump("cegis.rounds");
                cfg.budget.tracer().progress().note_cegis_round();
                if rounds > cfg.max_cegis_rounds {
                    return FixedHeightResult::Failed("CEGIS round limit".into());
                }
                // Inductive synthesis: push only the constraints of examples
                // the session has not seen yet.
                let snapshot = examples.lock().clone();
                for env in &snapshot[asserted.min(snapshot.len())..] {
                    match instantiate_spec(spec, env, sf.name, &sf.params, encoder) {
                        Ok(t) => {
                            if let Err(e) = synth.assert_term(&t) {
                                return smt_fail(e);
                            }
                        }
                        Err(msg) => return FixedHeightResult::Failed(msg),
                    }
                    asserted += 1;
                }
                let model = match synth.check_sat() {
                    Ok(SmtResult::Sat(m)) => m,
                    Ok(SmtResult::Unsat) => {
                        // Widen the bound: drop only its scope.
                        synth.pop();
                        break;
                    }
                    Err(e) => return smt_fail(e),
                };
                let candidate = simplify(&encoder.decode(&model));
                // Verification (condition 2.4 of the paper) in the reused
                // verification session (scoped, so nothing leaks between
                // candidates).
                let formula = problem.verification_formula(&candidate);
                match verify.check_valid(&formula) {
                    Ok(Validity::Valid) => return FixedHeightResult::Solved(candidate),
                    Ok(Validity::Invalid(cex)) => match counterexample_env(problem, &cex) {
                        Some(env) => {
                            if snapshot.contains(&env) {
                                // The candidate passed this example yet the
                                // verifier rejects at the same point:
                                // evaluation and solving disagree.
                                return FixedHeightResult::Failed(format!(
                                    "duplicate counterexample {env} for {candidate}"
                                ));
                            }
                            // Another height's thread may have raced it in.
                            let mut pool = examples.lock();
                            if !pool.contains(&env) {
                                pool.push(env);
                                cfg.budget.tracer().progress().note_counterexample();
                            }
                        }
                        None => {
                            return FixedHeightResult::Failed("counterexample outside i64".into())
                        }
                    },
                    Err(e) => return smt_fail(e),
                }
            }
        }
        FixedHeightResult::NoSolution
    }

    /// Height-bounded concrete enumeration (CEGIS with the bottom-up
    /// enumerator): finds a term of height ≤ `height` consistent with the
    /// shared counterexample pool, verifying and growing the pool as usual.
    /// The enumerator runs under the request's budget and bounds the height
    /// itself; each round's layer construction and candidate checks are one
    /// [`Stage::BottomUp`](sygus_ast::trace::Stage::BottomUp) span.
    fn solve_custom_by_enumeration(
        &self,
        problem: &Problem,
        height: usize,
        examples: &ExamplePool,
        cfg: &FixedHeightConfig,
    ) -> FixedHeightResult {
        use enum_synth::{EnumConfig, TermEnumerator};
        let sf = &problem.synth_fun;
        let spec = problem.spec();
        let tracer = cfg.budget.tracer();
        {
            let mut pool = examples.lock();
            if pool.is_empty() {
                pool.extend(default_examples(problem));
            }
        }
        // One verification session for the whole CEGIS loop:
        // counterexample queries share learned clauses and the encoding
        // cache across rounds.
        let mut smt = new_session(cfg);
        // Full tree of height h has 2^h − 1 nodes; cap the size budget there.
        let max_size = ((1usize << height.min(6)) - 1).min(31);
        let econfig = EnumConfig {
            max_size,
            max_height: Some(height),
            constant_pool: enum_synth::constant_pool(problem, &EnumConfig::default()),
            budget: cfg.budget.clone(),
            ..EnumConfig::default()
        };
        let mut rounds = 0;
        loop {
            if let Some(stop) = self.interrupted() {
                return stop;
            }
            let _ = cfg.budget.charge_fuel(1);
            rounds += 1;
            tracer.metrics().bump("cegis.rounds");
            tracer.progress().note_cegis_round();
            if rounds > cfg.max_cegis_rounds {
                return FixedHeightResult::Failed("CEGIS round limit".into());
            }
            let snapshot = examples.lock().clone();
            let search = tracer
                .span(sygus_ast::trace::Stage::BottomUp)
                .with_detail(|| format!("round={rounds} examples={}", snapshot.len()));
            let mut en = TermEnumerator::new(
                &sf.grammar,
                &problem.definitions,
                snapshot.clone(),
                econfig.clone(),
            );
            let mut work_defs = problem.definitions.clone();
            let mut candidate: Option<Term> = None;
            'search: for size in 1..=max_size {
                for t in en.terms_of_size(size) {
                    if let Some(stop) = self.interrupted() {
                        return stop;
                    }
                    work_defs.define(
                        sf.name,
                        sygus_ast::FuncDef::new(sf.params.clone(), sf.ret, t.clone()),
                    );
                    let ok = snapshot
                        .iter()
                        .all(|env| spec.eval(env, &work_defs) == Ok(Value::Bool(true)));
                    if ok {
                        candidate = Some(t.clone());
                        break 'search;
                    }
                }
            }
            drop(search);
            let Some(candidate) = candidate else {
                // An enumerator stopped by the budget is not an exhausted
                // height.
                return self.interrupted().unwrap_or(FixedHeightResult::NoSolution);
            };
            let formula = problem.verification_formula(&candidate);
            match smt.check_valid(&formula) {
                Ok(Validity::Valid) => return FixedHeightResult::Solved(candidate),
                Ok(Validity::Invalid(cex)) => match counterexample_env(problem, &cex) {
                    Some(env) => {
                        let mut pool = examples.lock();
                        if snapshot.contains(&env) {
                            return FixedHeightResult::Failed(format!(
                                "duplicate counterexample {env} for {candidate}"
                            ));
                        }
                        if !pool.contains(&env) {
                            pool.push(env);
                            tracer.progress().note_counterexample();
                        }
                    }
                    None => return FixedHeightResult::Failed("counterexample outside i64".into()),
                },
                Err(SmtError::Timeout) => return FixedHeightResult::Timeout,
                Err(e) => return FixedHeightResult::Failed(e.to_string()),
            }
        }
    }

    /// Produces an unverified candidate consistent with the default example
    /// seeds at the given height — the "failed CEGIS candidate" used as the
    /// fixed term by fixed-term division (Section 4.2).
    pub fn propose_candidate(&self, problem: &Problem, height: usize) -> Option<Term> {
        let cfg = self.config.adapted_to(problem);
        let sf = &problem.synth_fun;
        let encoder = match sf.grammar.flavor() {
            GrammarFlavor::Clia => {
                if sf.params.iter().any(|&(_, s)| s != Sort::Int) {
                    return None;
                }
                Encoder::Clia(CliaTreeEncoding::new(height, &sf.param_syms(), sf.ret))
            }
            GrammarFlavor::Custom => Encoder::General(GeneralEncoding::new(
                &sf.grammar,
                &problem.definitions,
                &sf.params,
                height,
            )?),
        };
        let spec = problem.spec().inline_defs(&problem.definitions);
        let examples = default_examples(problem);
        let mut conjuncts = Vec::new();
        for env in &examples {
            conjuncts.push(instantiate_spec(&spec, env, sf.name, &sf.params, &encoder).ok()?);
        }
        conjuncts.push(encoder.bounds(*cfg.coeff_bounds.last()?, cfg.const_bound));
        let smt = SmtSolver::with_config(SmtConfig {
            budget: cfg.budget.clone(),
            ..SmtConfig::default()
        });
        match smt.check(&Term::and(conjuncts)) {
            Ok(SmtResult::Sat(m)) => Some(simplify(&encoder.decode(&m))),
            _ => None,
        }
    }

    /// The sequential height loop: tries heights `1..=max_height`, returning
    /// the first (hence smallest-height) solution.
    pub fn solve(&self, problem: &Problem, max_height: usize) -> FixedHeightResult {
        let examples = ExamplePool::default();
        let mut last_failure: Option<String> = None;
        for h in 1..=max_height {
            match self.solve_at_height(problem, h, &examples) {
                FixedHeightResult::NoSolution => continue,
                FixedHeightResult::Failed(msg) => {
                    last_failure = Some(msg);
                    continue;
                }
                done => return done,
            }
        }
        match last_failure {
            Some(msg) => FixedHeightResult::Failed(msg),
            None => FixedHeightResult::NoSolution,
        }
    }
}

/// Whether a production pattern contains a `(Constant _)` hole.
fn has_any_const(pat: &sygus_ast::GTerm) -> bool {
    match pat {
        sygus_ast::GTerm::AnyConst(_) => true,
        sygus_ast::GTerm::App(_, args) => args.iter().any(has_any_const),
        _ => false,
    }
}

/// Default counterexample seeds: the all-zero point and a spread point.
pub fn default_examples(problem: &Problem) -> Vec<Env> {
    let vars = &problem.declared_vars;
    let zeros: Env = vars
        .iter()
        .map(|&(v, s)| {
            (
                v,
                match s {
                    Sort::Int => Value::Int(0),
                    Sort::Bool => Value::Bool(false),
                },
            )
        })
        .collect();
    let spread: Env = vars
        .iter()
        .enumerate()
        .map(|(i, &(v, s))| {
            (
                v,
                match s {
                    Sort::Int => Value::Int(if i % 2 == 0 {
                        i as i64 + 1
                    } else {
                        -(i as i64) - 2
                    }),
                    Sort::Bool => Value::Bool(i % 2 == 0),
                },
            )
        })
        .collect();
    if zeros == spread {
        vec![zeros]
    } else {
        vec![zeros, spread]
    }
}

/// Instantiates the spec at a concrete counterexample: declared variables
/// become constants and each application `f(args)` becomes the symbolic
/// `interpret` term of the encoder on the evaluated arguments.
fn instantiate_spec(
    spec: &Term,
    env: &Env,
    f: Symbol,
    params: &[(Symbol, Sort)],
    encoder: &Encoder,
) -> Result<Term, String> {
    let grounded = {
        let map: std::collections::BTreeMap<Symbol, Term> = env
            .iter()
            .map(|(v, val)| {
                let t = match val {
                    Value::Int(n) => Term::int(n),
                    Value::Bool(b) => Term::bool(b),
                };
                (v, t)
            })
            .collect();
        spec.subst_vars(&map)
    };
    replace_f(&grounded, f, params.len(), encoder)
}

fn replace_f(t: &Term, f: Symbol, arity: usize, encoder: &Encoder) -> Result<Term, String> {
    match t.node() {
        TermNode::App(op, args) => {
            let new_args: Result<Vec<Term>, String> = args
                .iter()
                .map(|a| replace_f(a, f, arity, encoder))
                .collect();
            let new_args = new_args?;
            if matches!(op, Op::Apply(g, _) if *g == f) {
                if new_args.len() != arity {
                    return Err(format!("`{f}` applied with wrong arity"));
                }
                let point: Option<Vec<Value>> = new_args
                    .iter()
                    .map(|a| match a.node() {
                        TermNode::IntConst(n) => Some(Value::Int(*n)),
                        TermNode::BoolConst(b) => Some(Value::Bool(*b)),
                        _ => None,
                    })
                    .collect();
                match point {
                    Some(p) => encoder.interpret(&p),
                    None => Err(format!(
                        "nested or symbolic application of `{f}` is not supported \
                         by the fixed-height encoder"
                    )),
                }
            } else {
                Ok(Term::rebuild(op, new_args))
            }
        }
        _ => Ok(t.clone()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sygus_parser::parse_problem;

    fn solver() -> FixedHeightSolver {
        FixedHeightSolver::new(FixedHeightConfig::default())
    }

    fn assert_solved(src: &str, max_height: usize) -> Term {
        let p = parse_problem(src).unwrap();
        match solver().solve(&p, max_height) {
            FixedHeightResult::Solved(t) => {
                let formula = p.verification_formula(&t);
                assert_eq!(
                    SmtSolver::new().check_valid(&formula),
                    Ok(Validity::Valid),
                    "solution {t} fails re-verification"
                );
                t
            }
            other => panic!("expected solved, got {other:?}"),
        }
    }

    #[test]
    fn solves_identity_at_height_one() {
        let p = parse_problem(
            "(set-logic LIA)(synth-fun f ((x Int)) Int)(declare-var x Int)\
             (constraint (= (f x) x))(check-synth)",
        )
        .unwrap();
        let ex = ExamplePool::default();
        match solver().solve_at_height(&p, 1, &ex) {
            FixedHeightResult::Solved(t) => assert_eq!(t, Term::int_var("x")),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn no_height_one_solution_for_max2() {
        let p = parse_problem(
            "(set-logic LIA)(synth-fun max2 ((x Int) (y Int)) Int)\
             (declare-var x Int)(declare-var y Int)\
             (constraint (>= (max2 x y) x))(constraint (>= (max2 x y) y))\
             (constraint (or (= (max2 x y) x) (= (max2 x y) y)))(check-synth)",
        )
        .unwrap();
        let ex = ExamplePool::default();
        assert_eq!(
            solver().solve_at_height(&p, 1, &ex),
            FixedHeightResult::NoSolution
        );
    }

    #[test]
    fn solves_max2_at_height_two() {
        // Session-backed CEGIS; `assert_solved` re-verifies the answer in
        // a fresh session.
        let t = assert_solved(
            "(set-logic LIA)(synth-fun max2 ((x Int) (y Int)) Int)\
             (declare-var x Int)(declare-var y Int)\
             (constraint (>= (max2 x y) x))(constraint (>= (max2 x y) y))\
             (constraint (or (= (max2 x y) x) (= (max2 x y) y)))(check-synth)",
            2,
        );
        assert!(t.to_string().contains("ite"), "{t}");
    }

    #[test]
    fn solves_offset_function() {
        // f(x) = x - 7 requires the adapted constant bound.
        let t = assert_solved(
            "(set-logic LIA)(synth-fun f ((x Int)) Int)(declare-var x Int)\
             (constraint (= (f x) (- x 7)))(check-synth)",
            1,
        );
        assert_eq!(t.size(), 3, "{t}");
    }

    #[test]
    fn solves_predicate_invariant_style() {
        // p(x) must hold exactly when x >= 5.
        let t = assert_solved(
            "(set-logic LIA)(synth-fun p ((x Int)) Bool)(declare-var x Int)\
             (constraint (= (p x) (>= x 5)))(check-synth)",
            1,
        );
        assert_eq!(t.sort(), Sort::Bool);
    }

    #[test]
    fn custom_grammar_routed_to_general_encoder() {
        let t = assert_solved(
            "(set-logic LIA)\
             (define-fun double ((a Int)) Int (+ a a))\
             (synth-fun f ((x Int)) Int ((S Int (x 1 (double S)))))\
             (declare-var x Int)\
             (constraint (= (f x) (+ x x)))(check-synth)",
            2,
        );
        assert_eq!(t.to_string(), "(double x)");
    }

    #[test]
    fn custom_grammar_exhaustion_is_no_solution() {
        let p = parse_problem(
            "(set-logic LIA)(synth-fun f ((x Int)) Int ((S Int (x))))\
             (declare-var x Int)(constraint (= (f x) (+ x 1)))(check-synth)",
        )
        .unwrap();
        assert_eq!(solver().solve(&p, 3), FixedHeightResult::NoSolution);
    }

    #[test]
    fn nested_application_fails_cleanly() {
        let p = parse_problem(
            "(set-logic LIA)(synth-fun f ((x Int)) Int)(declare-var x Int)\
             (constraint (= (f (f x)) x))(check-synth)",
        )
        .unwrap();
        let ex = ExamplePool::default();
        match solver().solve_at_height(&p, 1, &ex) {
            FixedHeightResult::Failed(msg) => assert!(msg.contains("nested"), "{msg}"),
            other => panic!("expected failure, got {other:?}"),
        }
    }

    #[test]
    fn timeout_respected() {
        let cfg = FixedHeightConfig {
            budget: Budget::with_deadline(std::time::Instant::now()),
            ..FixedHeightConfig::default()
        };
        let p = parse_problem(
            "(set-logic LIA)(synth-fun f ((x Int)) Int)(declare-var x Int)\
             (constraint (= (f x) x))(check-synth)",
        )
        .unwrap();
        let ex = ExamplePool::default();
        assert_eq!(
            FixedHeightSolver::new(cfg).solve_at_height(&p, 1, &ex),
            FixedHeightResult::Timeout
        );
    }

    #[test]
    fn concrete_enumeration_charges_the_request_fuel() {
        // No height-3 term over {x, 1, +} reaches f(0) = 100, so an unlimited
        // run exhausts the height; the kept terms of that search charge the
        // request's fuel, so a small allowance stops it instead.
        let p = parse_problem(
            "(set-logic LIA)(synth-fun f ((x Int)) Int ((S Int (x 1 (+ S S)))))\
             (declare-var x Int)(constraint (= (f x) (+ x 100)))(check-synth)",
        )
        .unwrap();
        let unlimited = FixedHeightConfig::default();
        let budget = unlimited.budget.clone();
        let ex = ExamplePool::default();
        assert_eq!(
            FixedHeightSolver::new(unlimited).solve_at_height(&p, 3, &ex),
            FixedHeightResult::NoSolution
        );
        let kept = budget.tracer().metrics().counter("enum.terms_kept");
        assert!(kept > 10, "kept {kept}");
        // One fuel unit for the round plus one per kept term.
        assert_eq!(budget.fuel_spent(), 1 + kept);
        let cfg = FixedHeightConfig {
            budget: Budget::unlimited().with_fuel(10),
            ..FixedHeightConfig::default()
        };
        let ex = ExamplePool::default();
        match FixedHeightSolver::new(cfg).solve_at_height(&p, 3, &ex) {
            FixedHeightResult::Failed(msg) => assert!(msg.contains("fuel"), "{msg}"),
            other => panic!("expected the fuel error, got {other:?}"),
        }
    }

    #[test]
    fn examples_accumulate_across_heights() {
        let p = parse_problem(
            "(set-logic LIA)(synth-fun max2 ((x Int) (y Int)) Int)\
             (declare-var x Int)(declare-var y Int)\
             (constraint (>= (max2 x y) x))(constraint (>= (max2 x y) y))\
             (constraint (or (= (max2 x y) x) (= (max2 x y) y)))(check-synth)",
        )
        .unwrap();
        let ex = ExamplePool::default();
        let _ = solver().solve_at_height(&p, 1, &ex);
        let after_h1 = ex.lock().len();
        assert!(after_h1 >= 2, "seeds plus any counterexamples");
        match solver().solve_at_height(&p, 2, &ex) {
            FixedHeightResult::Solved(_) => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn applications_on_shifted_arguments() {
        // f applied to x+1: argument grounding must evaluate it.
        let t = assert_solved(
            "(set-logic LIA)(synth-fun f ((x Int)) Int)(declare-var x Int)\
             (constraint (= (f (+ x 1)) (+ x 2)))(check-synth)",
            1,
        );
        // f(y) = y + 1
        assert_eq!(t.size(), 3, "{t}");
    }
}
