//! The cooperative synthesis framework (Section 3, Algorithm 1): a
//! subproblem graph, a deduction-first queue discipline, divide-and-conquer
//! expansion, and height-based enumeration as the last resort.

use crate::runtime::{panic_message, Budget, EngineFault};
use crate::{
    DeductOutcome, DeductionConfig, DeductiveEngine, Divider, Division, EnumBackend, ExamplePool,
    FixedHeightResult, TypeBOutcome,
};
use smtkit::{SmtConfig, SmtSession, Validity};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use sygus_ast::trace::{GraphEvent, Stage};
use sygus_ast::{span, Problem, Term};

/// Outcome of a cooperative synthesis run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SynthOutcome {
    /// A verified solution body over the synth-fun parameters.
    Solved(Term),
    /// The wall-clock deadline passed.
    Timeout,
    /// A governed resource other than the deadline stopped the run: a fuel
    /// or memory allowance ran out, or the budget was cancelled (the reason
    /// string is `"cancelled"` in that case).
    ResourceExhausted(String),
    /// All queues drained without a solution (or the spec is
    /// unsatisfiable).
    GaveUp(String),
}

impl SynthOutcome {
    /// The solution, if any.
    pub fn solution(&self) -> Option<&Term> {
        match self {
            SynthOutcome::Solved(t) => Some(t),
            _ => None,
        }
    }
}

/// Statistics of one cooperative run (used by the ablation figures).
#[derive(Clone, Debug, Default)]
pub struct CoopStats {
    /// Subproblem-graph nodes created (including the source).
    pub nodes: usize,
    /// Problems solved purely by the deductive engine.
    pub solved_by_deduction: usize,
    /// Problems solved by the enumeration backend.
    pub solved_by_enumeration: usize,
    /// Whether the *source* was finally solved without any enumeration.
    pub source_solved_deductively: bool,
    /// Divisions proposed, by strategy name (subterm / fixed-term /
    /// weaker-spec-and / weaker-spec-or).
    pub divisions_proposed: Vec<(&'static str, usize)>,
    /// Type-B steps fired (a child's solution consumed at a parent).
    pub type_b_fired: usize,
    /// Engine panics caught and isolated by the cooperative driver. The run
    /// continues past each one; the faulting step counts as a failure.
    pub faults: Vec<EngineFault>,
    /// SMT queries issued under the run's budget.
    pub smt_queries: u64,
    /// Fuel units charged under the run's budget.
    pub fuel_spent: u64,
}

impl CoopStats {
    fn count_division(&mut self, strategy: &'static str) {
        match self
            .divisions_proposed
            .iter_mut()
            .find(|(s, _)| *s == strategy)
        {
            Some((_, n)) => *n += 1,
            None => self.divisions_proposed.push((strategy, 1)),
        }
    }

    fn record_fault(
        &mut self,
        stage: &'static str,
        node: usize,
        payload: &(dyn std::any::Any + Send),
    ) {
        self.faults.push(EngineFault {
            stage,
            node,
            message: panic_message(payload),
        });
    }
}

/// A parent edge: when the child is solved, this division's Type-B step
/// fires at the parent (once).
struct ParentLink {
    parent: usize,
    division: Division,
    fired: bool,
}

struct Node {
    /// The current (possibly Type-B-simplified) problem.
    problem: Problem,
    /// The problem as it was at node creation, for final verification.
    original: Problem,
    /// Composition of pending wrappers (applied innermost-first).
    wrappers: Vec<Arc<dyn Fn(Term) -> Term + Send + Sync>>,
    solution: Option<Term>,
    parents: Vec<ParentLink>,
    examples: ExamplePool,
    /// Bumped whenever the node's problem is replaced; stale queue entries
    /// are skipped.
    version: u64,
    divided: bool,
    dead: bool,
}

/// Verifies unwound candidate solutions. One persistent [`SmtSession`] is
/// reused across every check of the run: each `check_valid` is fully scoped
/// (push, assert the negated formula, pop), so the root scope never
/// accumulates assertions and the same session is sound across *different*
/// subproblems — while learned clauses and the encoding cache survive from
/// one candidate to the next.
#[derive(Default)]
struct SessionVerifier {
    session: Mutex<Option<SmtSession>>,
}

impl SessionVerifier {
    /// Checks that `body` satisfies `problem`'s constraints on every input.
    fn verify(&self, problem: &Problem, body: &Term, budget: &Budget) -> bool {
        let tracer = budget.tracer().clone();
        let _span = tracer.span(Stage::Verify);
        // A contained panic elsewhere may have poisoned the lock; the
        // session itself is left in a consistent state by `check_valid`
        // (its pop runs even on error), so recover rather than propagate.
        let mut guard = self.session.lock().unwrap_or_else(|e| e.into_inner());
        let session = guard.get_or_insert_with(|| {
            SmtSession::new(SmtConfig {
                budget: budget.clone(),
                ..SmtConfig::default()
            })
        });
        let formula = problem.verification_formula(body);
        matches!(session.check_valid(&formula), Ok(Validity::Valid))
    }
}

/// The cooperative solver (Algorithm 1), generic in its enumeration
/// backend.
pub struct CooperativeSolver {
    deduction: DeductiveEngine,
    divider: Divider,
    backend: Arc<dyn EnumBackend>,
    budget: Budget,
    max_nodes: usize,
    /// Skip the deductive engine entirely (the plain-enumeration ablation).
    enumeration_only: bool,
    /// Skip enumeration entirely (the plain-deduction ablation).
    deduction_only: bool,
    /// Session-backed solution verification.
    verifier: SessionVerifier,
}

impl CooperativeSolver {
    /// Creates a solver with the given components.
    pub fn new(
        deduction_config: DeductionConfig,
        divider: Divider,
        backend: Arc<dyn EnumBackend>,
        budget: Budget,
    ) -> CooperativeSolver {
        CooperativeSolver {
            deduction: DeductiveEngine::new(deduction_config),
            divider,
            backend,
            budget,
            max_nodes: 48,
            enumeration_only: false,
            deduction_only: false,
            verifier: SessionVerifier::default(),
        }
    }

    /// The run's resource governor (cancel it to stop the solver).
    pub fn budget(&self) -> &Budget {
        &self.budget
    }

    /// Disables deduction and divide-and-conquer (plain height-based
    /// enumeration, the Figure 14 ablation).
    pub fn enumeration_only(mut self) -> CooperativeSolver {
        self.enumeration_only = true;
        self
    }

    /// Disables enumeration (plain deduction, the Figure 15 ablation).
    pub fn deduction_only(mut self) -> CooperativeSolver {
        self.deduction_only = true;
        self
    }

    /// Caps the subproblem graph size.
    pub fn with_max_nodes(mut self, n: usize) -> CooperativeSolver {
        self.max_nodes = n.max(1);
        self
    }

    /// Maps budget exhaustion to the outcome that should end the run. Only
    /// a passed deadline reports [`SynthOutcome::Timeout`]; cancellation
    /// (like fuel and memory exhaustion) reports
    /// [`SynthOutcome::ResourceExhausted`] so a host that cancelled one
    /// request of many (the daemon scheduler) can tell a deliberate stop
    /// apart from a request that ran out of wall clock.
    fn interrupted(&self) -> Option<SynthOutcome> {
        self.budget.exceeded().map(|e| match e {
            crate::BudgetError::Timeout => SynthOutcome::Timeout,
            other => SynthOutcome::ResourceExhausted(other.to_string()),
        })
    }

    /// Runs Algorithm 1 on `problem`.
    pub fn solve(&self, problem: &Problem) -> SynthOutcome {
        self.solve_with_stats(problem).0
    }

    /// Runs Algorithm 1 and reports the run statistics.
    pub fn solve_with_stats(&self, problem: &Problem) -> (SynthOutcome, CoopStats) {
        let mut stats = CoopStats::default();
        let outcome = self.run(problem, &mut stats);
        stats.smt_queries = self.budget.smt_queries();
        stats.fuel_spent = self.budget.fuel_spent();
        // Deterministic order so `--stats`/`--json` diffs are stable across
        // runs regardless of which strategy proposed first.
        stats.divisions_proposed.sort_by_key(|&(s, _)| s);
        if let SynthOutcome::Solved(body) = &outcome {
            self.budget
                .tracer()
                .metrics()
                .record_size(sygus_ast::solution_size(body));
        }
        (outcome, stats)
    }

    fn run(&self, problem: &Problem, stats: &mut CoopStats) -> SynthOutcome {
        let tracer = self.budget.tracer().clone();
        tracer.graph_event(|| GraphEvent::Node {
            id: 0,
            label: node_label(problem),
        });
        let mut nodes: Vec<Node> = vec![Node {
            problem: problem.clone(),
            original: problem.clone(),
            wrappers: Vec::new(),
            solution: None,
            parents: Vec::new(),
            examples: ExamplePool::default(),
            version: 0,
            divided: false,
            dead: false,
        }];
        stats.nodes = 1;
        tracer.progress().set_nodes(1);
        // Dedup key → node index (the subproblem-graph sharing of §3.2).
        let mut keys: HashMap<String, usize> = HashMap::new();
        keys.insert(node_key(problem), 0);

        let mut ded_queue: VecDeque<usize> = VecDeque::new();
        // (height, node-priority, node, version) min-heap: smallest height
        // first; within a height, deepest (most recently created, hence
        // smallest) subproblems first — they are the cheap ones whose
        // solutions simplify their parents.
        let mut enum_queue: BinaryHeap<Reverse<(usize, usize, usize, u64)>> = BinaryHeap::new();
        ded_queue.push_back(0);

        loop {
            if let Some(sol) = nodes[0].solution.clone() {
                return SynthOutcome::Solved(sol);
            }
            if let Some(stop) = self.interrupted() {
                return stop;
            }
            if let Some(i) = ded_queue.pop_front() {
                if nodes[i].solution.is_some() || nodes[i].dead {
                    continue;
                }
                // Deduction first (lines 7–13). A panicking rule is caught,
                // recorded as a fault, and treated as "no rule applied".
                if !self.enumeration_only {
                    let deduced = {
                        let _span = span!(tracer, Stage::Deduct, i);
                        catch_unwind(AssertUnwindSafe(|| self.deduction.deduct(&nodes[i].problem)))
                            .unwrap_or_else(|payload| {
                                stats.record_fault("deduct", i, &*payload);
                                DeductOutcome::Unchanged
                            })
                    };
                    match deduced {
                        DeductOutcome::Solved(body) => {
                            let accepted = self.on_solved(
                                i,
                                body,
                                &mut nodes,
                                &mut ded_queue,
                                &mut enum_queue,
                                stats,
                            );
                            if accepted {
                                stats.solved_by_deduction += 1;
                                tracer.graph_event(|| GraphEvent::Solved {
                                    id: i,
                                    engine: "deduction".into(),
                                });
                                if i == 0 && ded_queue.is_empty() && enum_queue.is_empty() {
                                    stats.source_solved_deductively = true;
                                }
                                continue;
                            }
                            // Unverifiable deduction result: fall through to
                            // division and enumeration.
                        }
                        DeductOutcome::Simplified(d) => {
                            nodes[i].problem = d.problem;
                            nodes[i].wrappers.push(d.wrap);
                            nodes[i].version += 1;
                            nodes[i].examples = ExamplePool::default();
                        }
                        DeductOutcome::Unsolvable => {
                            nodes[i].dead = true;
                            tracer.graph_event(|| GraphEvent::Dead { id: i });
                            if i == 0 {
                                return SynthOutcome::GaveUp(
                                    "specification is unsatisfiable".into(),
                                );
                            }
                            continue;
                        }
                        DeductOutcome::Unchanged => {}
                    }
                    // Divide (lines 10–13); a panicking strategy proposes
                    // nothing.
                    if !nodes[i].divided && nodes.len() < self.max_nodes {
                        nodes[i].divided = true;
                        let divisions = {
                            let _span = span!(tracer, Stage::Divide, i);
                            catch_unwind(AssertUnwindSafe(|| self.divider.divide(&nodes[i].problem)))
                                .unwrap_or_else(|payload| {
                                    stats.record_fault("divide", i, &*payload);
                                    Vec::new()
                                })
                        };
                        for division in divisions {
                            if nodes.len() >= self.max_nodes {
                                break;
                            }
                            stats.count_division(division.strategy);
                            tracer.metrics().bump(division_counter(division.strategy));
                            let key = node_key(&division.type_a);
                            let child = match keys.get(&key) {
                                Some(&c) => c,
                                None => {
                                    let c = nodes.len();
                                    nodes.push(Node {
                                        problem: division.type_a.clone(),
                                        original: division.type_a.clone(),
                                        wrappers: Vec::new(),
                                        solution: None,
                                        parents: Vec::new(),
                                        examples: ExamplePool::default(),
                                        version: 0,
                                        divided: false,
                                        dead: false,
                                    });
                                    stats.nodes += 1;
                                    tracer.progress().set_nodes(stats.nodes as u64);
                                    keys.insert(key, c);
                                    ded_queue.push_back(c);
                                    tracer.graph_event(|| GraphEvent::Node {
                                        id: c,
                                        label: node_label(&division.type_a),
                                    });
                                    c
                                }
                            };
                            tracer.graph_event(|| GraphEvent::Edge {
                                parent: i,
                                child,
                                strategy: division.strategy.into(),
                            });
                            // A child solved before this edge existed fires
                            // immediately.
                            let already = nodes[child].solution.clone();
                            nodes[child].parents.push(ParentLink {
                                parent: i,
                                division,
                                fired: false,
                            });
                            if let Some(sol) = already {
                                let li = nodes[child].parents.len() - 1;
                                nodes[child].parents[li].fired = true;
                                let parent = nodes[child].parents[li].parent;
                                let div = nodes[child].parents[li].division.clone();
                                self.fire_type_b(
                                    parent,
                                    &div,
                                    &sol,
                                    &mut nodes,
                                    &mut ded_queue,
                                    &mut enum_queue,
                                    stats,
                                );
                            }
                        }
                    }
                }
                // Last resort: enumeration, starting at height 1 (line 18).
                if !self.deduction_only {
                    enum_queue.push(Reverse((1, usize::MAX - i, i, nodes[i].version)));
                }
                continue;
            }
            if let Some(Reverse((h, _prio, i, version))) = enum_queue.pop() {
                if nodes[i].solution.is_some() || nodes[i].dead || nodes[i].version != version {
                    continue;
                }
                // Enumeration step, panic-isolated: a crashing backend is
                // recorded as a fault and the step counts as failed, so the
                // queue (and the sibling subproblems) keep running.
                let result = {
                    let _span = span!(tracer, Stage::Enumerate, i)
                        .with_detail(|| format!("height={h}"));
                    catch_unwind(AssertUnwindSafe(|| {
                        self.backend
                            .solve_step(&nodes[i].problem, h, &nodes[i].examples)
                    }))
                    .unwrap_or_else(|payload| FixedHeightResult::Fault(panic_message(&*payload)))
                };
                match result {
                    FixedHeightResult::Solved(body) => {
                        let accepted = self.on_solved(
                            i,
                            body,
                            &mut nodes,
                            &mut ded_queue,
                            &mut enum_queue,
                            stats,
                        );
                        if accepted {
                            stats.solved_by_enumeration += 1;
                            tracer.graph_event(|| GraphEvent::Solved {
                                id: i,
                                engine: "enumeration".into(),
                            });
                        } else {
                            // A wrapper produced an unverifiable candidate:
                            // keep searching this node at the next height.
                            let next = h + self.backend.stride();
                            if next <= self.backend.max_steps() {
                                enum_queue.push(Reverse((next, usize::MAX - i, i, version)));
                            }
                        }
                    }
                    FixedHeightResult::Timeout => {
                        // The backend saw the shared budget trip; let the
                        // loop head translate it (timeout vs exhaustion).
                        if let Some(stop) = self.interrupted() {
                            return stop;
                        }
                        return SynthOutcome::Timeout;
                    }
                    FixedHeightResult::Fault(message) => {
                        stats.faults.push(EngineFault {
                            stage: "enumerate",
                            node: i,
                            message,
                        });
                        // The step counts as failed; the queue continues.
                        let next = h + self.backend.stride();
                        if next <= self.backend.max_steps() {
                            enum_queue.push(Reverse((next, usize::MAX - i, i, version)));
                        }
                    }
                    FixedHeightResult::NoSolution | FixedHeightResult::Failed(_) => {
                        let next = h + self.backend.stride();
                        if next <= self.backend.max_steps() {
                            enum_queue.push(Reverse((next, usize::MAX - i, i, version)));
                        }
                    }
                }
                continue;
            }
            return SynthOutcome::GaveUp("search space exhausted".into());
        }
    }

    /// Records a raw solution of node `i` (over its *current* problem),
    /// unwinds the wrappers, verifies, and fires Type-B at the parents
    /// (lines 19–22). Returns whether the solution was accepted.
    #[allow(clippy::too_many_arguments)]
    fn on_solved(
        &self,
        i: usize,
        raw: Term,
        nodes: &mut Vec<Node>,
        ded_queue: &mut VecDeque<usize>,
        enum_queue: &mut BinaryHeap<Reverse<(usize, usize, usize, u64)>>,
        stats: &mut CoopStats,
    ) -> bool {
        let mut body = raw;
        for w in nodes[i].wrappers.iter().rev() {
            body = w(body);
        }
        if !self.verifier.verify(&nodes[i].original, &body, &self.budget) {
            // A wrapper or rule produced an unverifiable candidate: treat
            // the node as unsolved and let enumeration continue.
            return false;
        }
        nodes[i].solution = Some(body.clone());
        if i == 0 {
            return true;
        }
        let links: Vec<(usize, Division)> = nodes[i]
            .parents
            .iter()
            .filter(|l| !l.fired)
            .map(|l| (l.parent, l.division.clone()))
            .collect();
        for l in nodes[i].parents.iter_mut() {
            l.fired = true;
        }
        for (parent, division) in links {
            self.fire_type_b(
                parent, &division, &body, nodes, ded_queue, enum_queue, stats,
            );
        }
        true
    }

    /// `TypeBSubproblem` of Algorithm 1: consume a child's solution at a
    /// parent.
    #[allow(clippy::too_many_arguments)]
    fn fire_type_b(
        &self,
        parent: usize,
        division: &Division,
        child_solution: &Term,
        nodes: &mut Vec<Node>,
        ded_queue: &mut VecDeque<usize>,
        enum_queue: &mut BinaryHeap<Reverse<(usize, usize, usize, u64)>>,
        stats: &mut CoopStats,
    ) {
        if nodes[parent].solution.is_some() || nodes[parent].dead {
            return;
        }
        stats.type_b_fired += 1;
        let tracer = self.budget.tracer();
        let _span = span!(tracer, Stage::TypeB, parent);
        // Type-B recombination is panic-isolated like every other step.
        let recombined = catch_unwind(AssertUnwindSafe(|| {
            division.type_b(&nodes[parent].problem, child_solution)
        }));
        let recombined = match recombined {
            Ok(o) => o,
            Err(payload) => {
                stats.record_fault("type-b", parent, &*payload);
                return;
            }
        };
        match recombined {
            TypeBOutcome::Solved(body) => {
                if self.on_solved(parent, body, nodes, ded_queue, enum_queue, stats) {
                    tracer.graph_event(|| GraphEvent::Solved {
                        id: parent,
                        engine: "type-b".into(),
                    });
                }
            }
            TypeBOutcome::Subproblem { problem, wrap } => {
                // A vacuous Type-A solution (e.g. `false` under ∨) leaves
                // the parent spec unchanged modulo renaming; replacing the
                // problem would only churn. Keep searching the current one.
                if node_key(&problem) == node_key(&nodes[parent].problem) {
                    return;
                }
                nodes[parent].problem = problem;
                nodes[parent].wrappers.push(wrap);
                nodes[parent].version += 1;
                nodes[parent].examples = ExamplePool::default();
                nodes[parent].divided = false; // the new problem may divide again
                ded_queue.push_back(parent);
            }
        }
    }
}

/// A short human-readable label for the DOT sink (the spec, truncated).
fn node_label(p: &Problem) -> String {
    let spec = p.spec().to_string();
    let mut label: String = spec.chars().take(48).collect();
    if label.len() < spec.len() {
        label.push_str("...");
    }
    label
}

/// The static counter name for a division strategy (allocation-free on the
/// hot path; strategies are a closed set).
fn division_counter(strategy: &str) -> &'static str {
    match strategy {
        "subterm" => "divide.subterm",
        "fixed-term" => "divide.fixed-term",
        "weaker-spec-and" => "divide.weaker-spec-and",
        "weaker-spec-or" => "divide.weaker-spec-or",
        _ => "divide.other",
    }
}

/// A canonical key for subproblem sharing: the spec with the target
/// function's name abstracted, plus parameters and grammar shape.
fn node_key(p: &Problem) -> String {
    let fname = p.synth_fun.name.as_str();
    let spec = p.spec().to_string().replace(fname, "?f");
    let params: Vec<String> = p
        .synth_fun
        .params
        .iter()
        .map(|(v, s)| format!("{v}:{s}"))
        .collect();
    format!(
        "{}|{}|{}|{}",
        spec,
        params.join(","),
        p.synth_fun.ret,
        p.synth_fun.grammar
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{verify_solution, DivideConfig, FixedHeightBackend, FixedHeightConfig};
    use sygus_parser::parse_problem;

    fn coop_with_budget(budget: Budget) -> CooperativeSolver {
        CooperativeSolver::new(
            DeductionConfig {
                budget: budget.clone(),
            },
            Divider::new(DivideConfig {
                budget: budget.clone(),
                ..DivideConfig::default()
            }),
            Arc::new(FixedHeightBackend::new(
                FixedHeightConfig {
                    budget: budget.clone(),
                    ..FixedHeightConfig::default()
                },
                5,
            )),
            budget,
        )
    }

    fn coop() -> CooperativeSolver {
        // Tests run with a generous safety deadline so a regression can
        // never hang the suite.
        coop_with_budget(Budget::from_timeout(std::time::Duration::from_secs(120)))
    }

    fn assert_solves(src: &str) -> Term {
        let p = parse_problem(src).unwrap();
        match coop().solve(&p) {
            SynthOutcome::Solved(t) => {
                assert!(verify_solution(&p, &t, None), "unverified solution {t}");
                t
            }
            other => panic!("expected solved, got {other:?}"),
        }
    }

    #[test]
    fn solves_identity() {
        assert_solves(
            "(set-logic LIA)(synth-fun f ((x Int)) Int)(declare-var x Int)\
             (constraint (= (f x) x))(check-synth)",
        );
    }

    #[test]
    fn solves_max2_by_deduction_alone() {
        let p = parse_problem(
            "(set-logic LIA)(synth-fun max2 ((x Int) (y Int)) Int)\
             (declare-var x Int)(declare-var y Int)\
             (constraint (>= (max2 x y) x))(constraint (>= (max2 x y) y))\
             (constraint (or (= (max2 x y) x) (= (max2 x y) y)))(check-synth)",
        )
        .unwrap();
        let (outcome, stats) = coop().solve_with_stats(&p);
        assert!(matches!(outcome, SynthOutcome::Solved(_)));
        assert!(stats.solved_by_deduction >= 1, "{stats:?}");
    }

    #[test]
    fn deduction_only_mode_gives_up_on_enumeration_problems() {
        // Multi-invocation symmetric spec needs enumeration.
        let p = parse_problem(
            "(set-logic LIA)(synth-fun f ((x Int)) Int)\
             (declare-var a Int)(declare-var b Int)\
             (constraint (= (f a) (f b)))(check-synth)",
        )
        .unwrap();
        match coop().deduction_only().solve(&p) {
            SynthOutcome::GaveUp(_) => {}
            other => panic!("expected give-up, got {other:?}"),
        }
        // …while the full solver handles it.
        assert!(matches!(coop().solve(&p), SynthOutcome::Solved(_)));
    }

    #[test]
    fn enumeration_only_mode_still_solves() {
        let p = parse_problem(
            "(set-logic LIA)(synth-fun max2 ((x Int) (y Int)) Int)\
             (declare-var x Int)(declare-var y Int)\
             (constraint (>= (max2 x y) x))(constraint (>= (max2 x y) y))\
             (constraint (or (= (max2 x y) x) (= (max2 x y) y)))(check-synth)",
        )
        .unwrap();
        let (outcome, stats) = coop().enumeration_only().solve_with_stats(&p);
        assert!(matches!(outcome, SynthOutcome::Solved(_)), "{outcome:?}");
        assert_eq!(stats.solved_by_deduction, 0);
        assert!(stats.solved_by_enumeration >= 1);
    }

    #[test]
    fn solves_paper_example_max3_in_qm_grammar() {
        // Example 2.12/3.2: max3 over the qm grammar, via subterm division.
        let t = assert_solves(
            r#"
            (set-logic LIA)
            (define-fun qm ((a Int) (b Int)) Int (ite (< a 0) b a))
            (synth-fun max3 ((x Int) (y Int) (z Int)) Int
                ((S Int (x y z 0 1 (+ S S) (- S S) (qm S S)))))
            (declare-var x Int)
            (declare-var y Int)
            (declare-var z Int)
            (constraint (= (max3 x y z)
                (ite (and (>= x y) (>= x z)) x (ite (>= y z) y z))))
            (check-synth)
        "#,
        );
        // The solution must stay within the qm grammar (no raw ite).
        assert!(!t.to_string().contains("ite"), "solution uses ite: {t}");
    }

    #[test]
    fn solves_simple_invariant() {
        // Example 2.14: x=0; while (x<100) x++; assert x==100.
        let t = assert_solves(
            r#"
            (set-logic LIA)
            (synth-inv inv ((x Int)))
            (define-fun pre ((x Int)) Bool (= x 0))
            (define-fun trans ((x Int) (x! Int)) Bool (= x! (ite (< x 100) (+ x 1) x)))
            (define-fun post ((x Int)) Bool (=> (not (< x 100)) (= x 100)))
            (inv-constraint inv pre trans post)
            (check-synth)
        "#,
        );
        assert_eq!(t.sort(), sygus_ast::Sort::Bool);
    }

    #[test]
    fn gives_up_on_unsatisfiable_spec() {
        let p = parse_problem(
            "(set-logic LIA)(synth-fun f ((x Int)) Int)(declare-var a Int)\
             (constraint (> a a))(check-synth)",
        )
        .unwrap();
        match coop().solve(&p) {
            SynthOutcome::GaveUp(msg) => assert!(msg.contains("unsatisfiable"), "{msg}"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn timeout_propagates() {
        let p = parse_problem(
            "(set-logic LIA)(synth-fun f ((x Int)) Int)(declare-var x Int)\
             (constraint (= (f x) x))(check-synth)",
        )
        .unwrap();
        let solver = coop_with_budget(Budget::from_timeout(std::time::Duration::ZERO));
        assert_eq!(solver.solve(&p), SynthOutcome::Timeout);
    }

    #[test]
    fn cancellation_maps_to_resource_exhausted() {
        let p = parse_problem(
            "(set-logic LIA)(synth-fun f ((x Int)) Int)(declare-var x Int)\
             (constraint (= (f x) x))(check-synth)",
        )
        .unwrap();
        let solver = coop();
        solver.budget().cancel();
        match solver.solve(&p) {
            SynthOutcome::ResourceExhausted(reason) => {
                assert!(reason.contains("cancel"), "{reason}");
            }
            other => panic!("cancelled run reported {other:?}"),
        }
    }

    #[test]
    fn fuel_exhaustion_reports_resource_outcome() {
        // Multi-invocation spec forces enumeration; one fuel unit cannot
        // finish it, so the run must end in ResourceExhausted (not hang,
        // not claim a timeout).
        let p = parse_problem(
            "(set-logic LIA)(synth-fun f ((x Int)) Int)\
             (declare-var a Int)(declare-var b Int)\
             (constraint (= (f a) (f b)))(check-synth)",
        )
        .unwrap();
        let budget = Budget::unlimited().with_fuel(1);
        let (outcome, stats) = coop_with_budget(budget).solve_with_stats(&p);
        assert!(
            matches!(outcome, SynthOutcome::ResourceExhausted(_)),
            "{outcome:?}"
        );
        assert!(stats.fuel_spent >= 1, "{stats:?}");
    }

    #[test]
    fn stats_count_divisions_and_type_b() {
        // The qm max3 example forces subterm division + a Type-B step.
        let p = parse_problem(
            r#"
            (set-logic LIA)
            (define-fun qm ((a Int) (b Int)) Int (ite (< a 0) b a))
            (synth-fun max3 ((x Int) (y Int) (z Int)) Int
                ((S Int (x y z 0 1 (+ S S) (- S S) (qm S S)))))
            (declare-var x Int)
            (declare-var y Int)
            (declare-var z Int)
            (constraint (= (max3 x y z)
                (ite (and (>= x y) (>= x z)) x (ite (>= y z) y z))))
            (check-synth)
        "#,
        )
        .unwrap();
        let (outcome, stats) = coop().solve_with_stats(&p);
        assert!(matches!(outcome, SynthOutcome::Solved(_)), "{outcome:?}");
        assert!(
            stats
                .divisions_proposed
                .iter()
                .any(|&(s, n)| s == "subterm" && n > 0),
            "{stats:?}"
        );
        assert!(stats.type_b_fired >= 1, "{stats:?}");
        assert!(stats.nodes >= 2, "{stats:?}");
    }

    #[test]
    fn node_keys_share_subproblems() {
        let p1 = parse_problem(
            "(set-logic LIA)(synth-fun f ((x Int)) Int)(declare-var a Int)\
             (constraint (= (f a) a))(check-synth)",
        )
        .unwrap();
        let mut p2 = p1.clone();
        p2.synth_fun.name = sygus_ast::Symbol::new("g_renamed");
        // Same spec modulo the function name: keys must still differ because
        // constraints mention the old name — rename constraints too.
        let key1 = node_key(&p1);
        assert!(key1.contains("?f"));
    }
}
