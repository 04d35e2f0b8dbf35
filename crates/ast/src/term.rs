//! Immutable, shareable CLIA terms.
//!
//! A [`Term`] is an `Arc`-shared tree; cloning is O(1) and terms are
//! `Send + Sync`, which the parallel height search relies on. Smart
//! constructors perform light canonicalization (constant folding, trivial
//! identities); the heavier rewriting lives in [`crate::simplify`].

use crate::sort::SortError;
use crate::{Env, Op, Sort, Symbol, Value};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;

/// The node payload of a [`Term`].
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum TermNode {
    /// An integer literal.
    IntConst(i64),
    /// A boolean literal.
    BoolConst(bool),
    /// A sorted variable.
    Var(Symbol, Sort),
    /// An operator applied to argument terms.
    App(Op, Vec<Term>),
}

/// An immutable CLIA term (expression of sort `Int` or `Bool`).
///
/// # Examples
///
/// ```
/// use sygus_ast::{Term, Sort};
/// let x = Term::var("x", Sort::Int);
/// let t = Term::ite(Term::ge(x.clone(), Term::int(0)), x.clone(), Term::neg(x));
/// assert_eq!(t.to_string(), "(ite (>= x 0) x (- x))");
/// assert_eq!(t.sort(), Sort::Int);
/// ```
#[derive(Clone, Eq)]
pub struct Term(Arc<TermNode>);

impl PartialEq for Term {
    fn eq(&self, other: &Term) -> bool {
        Arc::ptr_eq(&self.0, &other.0) || *self.0 == *other.0
    }
}

impl std::hash::Hash for Term {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.0.hash(state);
    }
}

impl fmt::Debug for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Term({self})")
    }
}

/// An error raised while evaluating a term on a concrete environment.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EvalError {
    /// A variable had no binding in the environment.
    UnboundVar(Symbol),
    /// An applied function had no definition.
    UnknownFunction(Symbol),
    /// Integer overflow during checked arithmetic.
    Overflow,
    /// An operator was applied to values of the wrong sort.
    SortMismatch,
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::UnboundVar(s) => write!(f, "unbound variable `{s}`"),
            EvalError::UnknownFunction(s) => write!(f, "unknown function `{s}`"),
            EvalError::Overflow => write!(f, "integer overflow during evaluation"),
            EvalError::SortMismatch => write!(f, "operator applied to value of wrong sort"),
        }
    }
}

impl std::error::Error for EvalError {}

/// A named interpreted function definition (`define-fun`): parameters, return
/// sort, and a body term over the parameters.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FuncDef {
    /// Parameter names and sorts, in order.
    pub params: Vec<(Symbol, Sort)>,
    /// Return sort.
    pub ret: Sort,
    /// Body over the parameters.
    pub body: Term,
}

impl FuncDef {
    /// Creates a definition.
    pub fn new(params: Vec<(Symbol, Sort)>, ret: Sort, body: Term) -> FuncDef {
        FuncDef { params, ret, body }
    }

    /// Instantiates the body with the given argument terms.
    ///
    /// # Panics
    ///
    /// Panics if the number of arguments differs from the number of
    /// parameters.
    pub fn instantiate(&self, args: &[Term]) -> Term {
        assert_eq!(args.len(), self.params.len(), "arity mismatch");
        let map: BTreeMap<Symbol, Term> = self
            .params
            .iter()
            .map(|&(p, _)| p)
            .zip(args.iter().cloned())
            .collect();
        self.body.subst_vars(&map)
    }
}

/// A table of interpreted function definitions, consulted during evaluation
/// and inlining.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Definitions {
    defs: BTreeMap<Symbol, FuncDef>,
}

impl Definitions {
    /// Creates an empty table.
    pub fn new() -> Definitions {
        Definitions::default()
    }

    /// Adds (or replaces) a definition.
    pub fn define(&mut self, name: Symbol, def: FuncDef) -> Option<FuncDef> {
        self.defs.insert(name, def)
    }

    /// Looks up a definition.
    pub fn get(&self, name: Symbol) -> Option<&FuncDef> {
        self.defs.get(&name)
    }

    /// Whether `name` is defined.
    pub fn contains(&self, name: Symbol) -> bool {
        self.defs.contains_key(&name)
    }

    /// Iterates over all definitions in name order.
    pub fn iter(&self) -> impl Iterator<Item = (Symbol, &FuncDef)> {
        self.defs.iter().map(|(&k, v)| (k, v))
    }

    /// The number of definitions.
    pub fn len(&self) -> usize {
        self.defs.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.defs.is_empty()
    }
}

impl Term {
    fn mk(node: TermNode) -> Term {
        Term(Arc::new(node))
    }

    /// A view of the underlying node.
    pub fn node(&self) -> &TermNode {
        &self.0
    }

    // ----- Leaf constructors -------------------------------------------------

    /// Integer literal.
    pub fn int(n: i64) -> Term {
        Term::mk(TermNode::IntConst(n))
    }

    /// Boolean literal.
    pub fn bool(b: bool) -> Term {
        Term::mk(TermNode::BoolConst(b))
    }

    /// The literal `true`.
    pub fn tt() -> Term {
        Term::bool(true)
    }

    /// The literal `false`.
    pub fn ff() -> Term {
        Term::bool(false)
    }

    /// A sorted variable.
    pub fn var(name: impl Into<Symbol>, sort: Sort) -> Term {
        Term::mk(TermNode::Var(name.into(), sort))
    }

    /// An integer variable (shorthand for `var(name, Sort::Int)`).
    pub fn int_var(name: impl Into<Symbol>) -> Term {
        Term::var(name, Sort::Int)
    }

    // ----- Arithmetic constructors -------------------------------------------

    /// `a + b`, folding constants and dropping zero.
    #[allow(clippy::should_implement_trait)] // smart constructor named after the SMT-LIB op
    pub fn add(a: Term, b: Term) -> Term {
        match (a.as_int_const(), b.as_int_const()) {
            (Some(x), Some(y)) => {
                if let Some(s) = x.checked_add(y) {
                    return Term::int(s);
                }
            }
            (Some(0), _) => return b,
            (_, Some(0)) => return a,
            _ => {}
        }
        Term::mk(TermNode::App(Op::Add, vec![a, b]))
    }

    /// n-ary sum: flattens nested sums, folds the constant part, and drops
    /// zeros (an empty sum is `0`).
    pub fn sum(terms: impl IntoIterator<Item = Term>) -> Term {
        let mut parts: Vec<Term> = Vec::new();
        let mut konst: i64 = 0;
        let mut overflowed = false;
        fn push(t: Term, parts: &mut Vec<Term>, konst: &mut i64, overflowed: &mut bool) {
            match t.node() {
                TermNode::IntConst(n) => match konst.checked_add(*n) {
                    Some(s) if !*overflowed => *konst = s,
                    _ => {
                        *overflowed = true;
                        parts.push(t);
                    }
                },
                TermNode::App(Op::Add, args) => {
                    for a in args {
                        push(a.clone(), parts, konst, overflowed);
                    }
                }
                _ => parts.push(t),
            }
        }
        for t in terms {
            push(t, &mut parts, &mut konst, &mut overflowed);
        }
        if konst != 0 || (parts.is_empty() && !overflowed) {
            parts.push(Term::int(konst));
        }
        match parts.len() {
            0 => Term::int(0),
            1 => parts.pop().expect("len checked"),
            _ => Term::mk(TermNode::App(Op::Add, parts)),
        }
    }

    /// `a - b`, folding constants and `a - 0`.
    #[allow(clippy::should_implement_trait)] // smart constructor named after the SMT-LIB op
    pub fn sub(a: Term, b: Term) -> Term {
        match (a.as_int_const(), b.as_int_const()) {
            (Some(x), Some(y)) => {
                if let Some(d) = x.checked_sub(y) {
                    return Term::int(d);
                }
            }
            (_, Some(0)) => return a,
            _ => {}
        }
        if a == b {
            return Term::int(0);
        }
        Term::mk(TermNode::App(Op::Sub, vec![a, b]))
    }

    /// `-a`, folding constants and double negation.
    #[allow(clippy::should_implement_trait)] // smart constructor named after the SMT-LIB op
    pub fn neg(a: Term) -> Term {
        if let Some(x) = a.as_int_const() {
            if let Some(n) = x.checked_neg() {
                return Term::int(n);
            }
        }
        if let TermNode::App(Op::Neg, args) = a.node() {
            return args[0].clone();
        }
        Term::mk(TermNode::App(Op::Neg, vec![a]))
    }

    /// `a * b`, folding constants, zero, and one.
    #[allow(clippy::should_implement_trait)] // smart constructor named after the SMT-LIB op
    pub fn mul(a: Term, b: Term) -> Term {
        match (a.as_int_const(), b.as_int_const()) {
            (Some(x), Some(y)) => {
                if let Some(p) = x.checked_mul(y) {
                    return Term::int(p);
                }
            }
            (Some(0), _) | (_, Some(0)) => return Term::int(0),
            (Some(1), _) => return b,
            (_, Some(1)) => return a,
            _ => {}
        }
        Term::mk(TermNode::App(Op::Mul, vec![a, b]))
    }

    /// `c * t` for an integer constant coefficient.
    pub fn scale(c: i64, t: Term) -> Term {
        Term::mul(Term::int(c), t)
    }

    // ----- Comparisons --------------------------------------------------------

    fn cmp_fold(op: Op, a: &Term, b: &Term) -> Option<Term> {
        let (x, y) = (a.as_int_const()?, b.as_int_const()?);
        let r = match op {
            Op::Eq => x == y,
            Op::Le => x <= y,
            Op::Lt => x < y,
            Op::Ge => x >= y,
            Op::Gt => x > y,
            _ => return None,
        };
        Some(Term::bool(r))
    }

    /// `a = b` (works at both sorts), folding constants and reflexivity.
    pub fn eq(a: Term, b: Term) -> Term {
        if a == b {
            return Term::tt();
        }
        if let Some(t) = Term::cmp_fold(Op::Eq, &a, &b) {
            return t;
        }
        if let (Some(x), Some(y)) = (a.as_bool_const(), b.as_bool_const()) {
            return Term::bool(x == y);
        }
        Term::mk(TermNode::App(Op::Eq, vec![a, b]))
    }

    /// `a <= b`.
    pub fn le(a: Term, b: Term) -> Term {
        if a == b {
            return Term::tt();
        }
        Term::cmp_fold(Op::Le, &a, &b)
            .unwrap_or_else(|| Term::mk(TermNode::App(Op::Le, vec![a, b])))
    }

    /// `a < b`.
    pub fn lt(a: Term, b: Term) -> Term {
        if a == b {
            return Term::ff();
        }
        Term::cmp_fold(Op::Lt, &a, &b)
            .unwrap_or_else(|| Term::mk(TermNode::App(Op::Lt, vec![a, b])))
    }

    /// `a >= b`.
    pub fn ge(a: Term, b: Term) -> Term {
        if a == b {
            return Term::tt();
        }
        Term::cmp_fold(Op::Ge, &a, &b)
            .unwrap_or_else(|| Term::mk(TermNode::App(Op::Ge, vec![a, b])))
    }

    /// `a > b`.
    pub fn gt(a: Term, b: Term) -> Term {
        if a == b {
            return Term::ff();
        }
        Term::cmp_fold(Op::Gt, &a, &b)
            .unwrap_or_else(|| Term::mk(TermNode::App(Op::Gt, vec![a, b])))
    }

    // ----- Boolean connectives -------------------------------------------------

    /// n-ary conjunction with flattening, unit/zero laws, and deduplication.
    pub fn and(terms: impl IntoIterator<Item = Term>) -> Term {
        let mut flat: Vec<Term> = Vec::new();
        let mut seen: BTreeSet<Term> = BTreeSet::new();
        for t in terms {
            match t.node() {
                TermNode::BoolConst(true) => {}
                TermNode::BoolConst(false) => return Term::ff(),
                TermNode::App(Op::And, args) => {
                    for a in args {
                        if seen.insert(a.clone()) {
                            flat.push(a.clone());
                        }
                    }
                }
                _ => {
                    if seen.insert(t.clone()) {
                        flat.push(t);
                    }
                }
            }
        }
        match flat.len() {
            0 => Term::tt(),
            1 => flat.pop().expect("len checked"),
            _ => Term::mk(TermNode::App(Op::And, flat)),
        }
    }

    /// Binary conjunction.
    pub fn and2(a: Term, b: Term) -> Term {
        Term::and([a, b])
    }

    /// n-ary disjunction with flattening, unit/zero laws, and deduplication.
    pub fn or(terms: impl IntoIterator<Item = Term>) -> Term {
        let mut flat: Vec<Term> = Vec::new();
        let mut seen: BTreeSet<Term> = BTreeSet::new();
        for t in terms {
            match t.node() {
                TermNode::BoolConst(false) => {}
                TermNode::BoolConst(true) => return Term::tt(),
                TermNode::App(Op::Or, args) => {
                    for a in args {
                        if seen.insert(a.clone()) {
                            flat.push(a.clone());
                        }
                    }
                }
                _ => {
                    if seen.insert(t.clone()) {
                        flat.push(t);
                    }
                }
            }
        }
        match flat.len() {
            0 => Term::ff(),
            1 => flat.pop().expect("len checked"),
            _ => Term::mk(TermNode::App(Op::Or, flat)),
        }
    }

    /// Binary disjunction.
    pub fn or2(a: Term, b: Term) -> Term {
        Term::or([a, b])
    }

    /// `not a`, folding constants and double negation.
    #[allow(clippy::should_implement_trait)] // smart constructor named after the SMT-LIB op
    pub fn not(a: Term) -> Term {
        match a.node() {
            TermNode::BoolConst(b) => Term::bool(!b),
            TermNode::App(Op::Not, args) => args[0].clone(),
            _ => Term::mk(TermNode::App(Op::Not, vec![a])),
        }
    }

    /// `a => b`, folding constants.
    pub fn implies(a: Term, b: Term) -> Term {
        match (a.as_bool_const(), b.as_bool_const()) {
            (Some(false), _) | (_, Some(true)) => return Term::tt(),
            (Some(true), _) => return b,
            (_, Some(false)) => return Term::not(a),
            _ => {}
        }
        if a == b {
            return Term::tt();
        }
        Term::mk(TermNode::App(Op::Implies, vec![a, b]))
    }

    /// `ite(c, t, e)`, folding a constant condition and equal branches.
    pub fn ite(c: Term, t: Term, e: Term) -> Term {
        match c.as_bool_const() {
            Some(true) => return t,
            Some(false) => return e,
            None => {}
        }
        if t == e {
            return t;
        }
        Term::mk(TermNode::App(Op::Ite, vec![c, t, e]))
    }

    /// Application of the named function `f` with return sort `ret`.
    pub fn apply(f: impl Into<Symbol>, ret: Sort, args: Vec<Term>) -> Term {
        Term::mk(TermNode::App(Op::Apply(f.into(), ret), args))
    }

    /// A raw application node with no simplification (useful for tests and for
    /// building terms that must keep their exact shape).
    pub fn app(op: Op, args: Vec<Term>) -> Term {
        Term::mk(TermNode::App(op, args))
    }

    // ----- Inspection ---------------------------------------------------------

    /// The integer constant, if this term is one.
    pub fn as_int_const(&self) -> Option<i64> {
        match self.node() {
            TermNode::IntConst(n) => Some(*n),
            _ => None,
        }
    }

    /// The boolean constant, if this term is one.
    pub fn as_bool_const(&self) -> Option<bool> {
        match self.node() {
            TermNode::BoolConst(b) => Some(*b),
            _ => None,
        }
    }

    /// The variable symbol, if this term is a variable.
    pub fn as_var(&self) -> Option<Symbol> {
        match self.node() {
            TermNode::Var(s, _) => Some(*s),
            _ => None,
        }
    }

    /// The `(op, args)` view, if this term is an application.
    pub fn as_app(&self) -> Option<(&Op, &[Term])> {
        match self.node() {
            TermNode::App(op, args) => Some((op, args)),
            _ => None,
        }
    }

    /// The sort of this term.
    pub fn sort(&self) -> Sort {
        match self.node() {
            TermNode::IntConst(_) => Sort::Int,
            TermNode::BoolConst(_) => Sort::Bool,
            TermNode::Var(_, s) => *s,
            TermNode::App(op, args) => match op {
                Op::Add | Op::Sub | Op::Neg | Op::Mul => Sort::Int,
                Op::Eq | Op::Le | Op::Lt | Op::Ge | Op::Gt => Sort::Bool,
                Op::And | Op::Or | Op::Not | Op::Implies => Sort::Bool,
                Op::Ite => args[1].sort(),
                Op::Apply(_, ret) => *ret,
            },
        }
    }

    /// Checks that every application in the term is well-sorted and returns
    /// the term's sort.
    ///
    /// [`Term::sort`] trusts the tree shape (e.g. it reads an `ite`'s sort
    /// off its second argument without looking at the condition); this walks
    /// the whole term and rejects ill-sorted nodes — `ite` with a non-boolean
    /// condition or disagreeing branches, comparisons over booleans,
    /// connectives over integers, wrong arities — with a diagnostic instead
    /// of a fallback sort.
    ///
    /// # Errors
    ///
    /// Returns the first [`SortError`] found (leftmost-innermost).
    pub fn check_sorts(&self) -> Result<Sort, SortError> {
        match self.node() {
            TermNode::IntConst(_) => Ok(Sort::Int),
            TermNode::BoolConst(_) => Ok(Sort::Bool),
            TermNode::Var(_, s) => Ok(*s),
            TermNode::App(op, args) => {
                let sorts: Vec<Sort> = args
                    .iter()
                    .map(Term::check_sorts)
                    .collect::<Result<_, _>>()?;
                check_app_sorts(op, &sorts)
            }
        }
    }

    /// Number of nodes in the syntax tree.
    pub fn size(&self) -> usize {
        match self.node() {
            TermNode::App(_, args) => 1 + args.iter().map(Term::size).sum::<usize>(),
            _ => 1,
        }
    }

    /// Height of the syntax tree (a leaf has height 1).
    pub fn height(&self) -> usize {
        match self.node() {
            TermNode::App(_, args) => 1 + args.iter().map(Term::height).max().unwrap_or(0),
            _ => 1,
        }
    }

    /// Collects the free variables (with sorts) into `out`.
    pub fn collect_vars(&self, out: &mut BTreeMap<Symbol, Sort>) {
        match self.node() {
            TermNode::Var(s, sort) => {
                out.insert(*s, *sort);
            }
            TermNode::App(_, args) => {
                for a in args {
                    a.collect_vars(out);
                }
            }
            _ => {}
        }
    }

    /// The free variables of this term, in symbol order.
    pub fn free_vars(&self) -> BTreeMap<Symbol, Sort> {
        let mut out = BTreeMap::new();
        self.collect_vars(&mut out);
        out
    }

    /// Collects the names of all applied functions into `out`.
    pub fn collect_applied_funcs(&self, out: &mut BTreeSet<Symbol>) {
        if let TermNode::App(op, args) = self.node() {
            if let Op::Apply(f, _) = op {
                out.insert(*f);
            }
            for a in args {
                a.collect_applied_funcs(out);
            }
        }
    }

    /// Names of all functions applied anywhere in this term.
    pub fn applied_funcs(&self) -> BTreeSet<Symbol> {
        let mut out = BTreeSet::new();
        self.collect_applied_funcs(&mut out);
        out
    }

    /// Whether the function `f` is applied anywhere in this term.
    pub fn applies(&self, f: Symbol) -> bool {
        match self.node() {
            TermNode::App(op, args) => {
                matches!(op, Op::Apply(g, _) if *g == f) || args.iter().any(|a| a.applies(f))
            }
            _ => false,
        }
    }

    /// All application sites of `f`: the argument vectors, deduplicated, in
    /// first-encounter order.
    pub fn application_sites(&self, f: Symbol) -> Vec<Vec<Term>> {
        fn go(t: &Term, f: Symbol, out: &mut Vec<Vec<Term>>) {
            if let TermNode::App(op, args) = t.node() {
                if matches!(op, Op::Apply(g, _) if *g == f) && !out.contains(&args.to_vec()) {
                    out.push(args.to_vec());
                }
                for a in args {
                    go(a, f, out);
                }
            }
        }
        let mut out = Vec::new();
        go(self, f, &mut out);
        out
    }

    /// Enumerates all distinct subterms (including `self`), parents before
    /// children.
    pub fn subterms(&self) -> Vec<Term> {
        let mut out = Vec::new();
        let mut seen = BTreeSet::new();
        fn go(t: &Term, out: &mut Vec<Term>, seen: &mut BTreeSet<Term>) {
            if seen.insert(t.clone()) {
                out.push(t.clone());
                if let TermNode::App(_, args) = t.node() {
                    for a in args {
                        go(a, out, seen);
                    }
                }
            }
        }
        go(self, &mut out, &mut seen);
        out
    }

    /// Whether `sub` occurs as a subterm of `self` (`sub ≼ self`).
    pub fn contains(&self, sub: &Term) -> bool {
        if self == sub {
            return true;
        }
        match self.node() {
            TermNode::App(_, args) => args.iter().any(|a| a.contains(sub)),
            _ => false,
        }
    }

    // ----- Transformation -------------------------------------------------------

    /// Substitutes variables by terms simultaneously.
    pub fn subst_vars(&self, map: &BTreeMap<Symbol, Term>) -> Term {
        match self.node() {
            TermNode::Var(s, _) => map.get(s).cloned().unwrap_or_else(|| self.clone()),
            TermNode::App(op, args) => {
                let new_args: Vec<Term> = args.iter().map(|a| a.subst_vars(map)).collect();
                Term::rebuild(op, new_args)
            }
            _ => self.clone(),
        }
    }

    /// Substitutes a single variable.
    pub fn subst_var(&self, var: Symbol, replacement: &Term) -> Term {
        let mut map = BTreeMap::new();
        map.insert(var, replacement.clone());
        self.subst_vars(&map)
    }

    /// Replaces every occurrence of the exact subterm `from` with `to`.
    pub fn replace_term(&self, from: &Term, to: &Term) -> Term {
        if self == from {
            return to.clone();
        }
        match self.node() {
            TermNode::App(op, args) => {
                let new_args: Vec<Term> = args.iter().map(|a| a.replace_term(from, to)).collect();
                Term::rebuild(op, new_args)
            }
            _ => self.clone(),
        }
    }

    /// Replaces every application `f(args…)` by `make(args…)`, bottom-up.
    ///
    /// This is the workhorse of `Φ[E/f]`: instantiating the function being
    /// synthesized with a candidate implementation.
    pub fn replace_apps(&self, f: Symbol, make: &dyn Fn(&[Term]) -> Term) -> Term {
        match self.node() {
            TermNode::App(op, args) => {
                let new_args: Vec<Term> = args.iter().map(|a| a.replace_apps(f, make)).collect();
                if matches!(op, Op::Apply(g, _) if *g == f) {
                    make(&new_args)
                } else {
                    Term::rebuild(op, new_args)
                }
            }
            _ => self.clone(),
        }
    }

    /// Instantiates applications of `f` with a definition body:
    /// `Φ[λparams. body / f]`.
    pub fn instantiate_func(&self, f: Symbol, def: &FuncDef) -> Term {
        self.replace_apps(f, &|args| def.instantiate(args))
    }

    /// Inlines every function with a definition in `defs`, to fixpoint
    /// (definitions may reference each other acyclically).
    ///
    /// # Panics
    ///
    /// Panics if definitions are cyclic (depth limit exceeded).
    pub fn inline_defs(&self, defs: &Definitions) -> Term {
        let mut cur = self.clone();
        for _ in 0..64 {
            let funcs = cur.applied_funcs();
            let mut changed = false;
            for f in funcs {
                if let Some(def) = defs.get(f) {
                    cur = cur.instantiate_func(f, def);
                    changed = true;
                }
            }
            if !changed {
                return cur;
            }
        }
        panic!("cyclic function definitions while inlining");
    }

    /// Rebuilds an application through the smart constructors so that folded
    /// forms stay folded after substitution.
    pub fn rebuild(op: &Op, mut args: Vec<Term>) -> Term {
        match op {
            Op::Add => {
                let b = args.pop().expect("binary");
                let a = args.pop().expect("binary");
                if args.is_empty() {
                    Term::add(a, b)
                } else {
                    args.push(a);
                    args.push(b);
                    Term::sum(args)
                }
            }
            Op::Sub => {
                let b = args.pop().expect("binary");
                let a = args.pop().expect("binary");
                Term::sub(a, b)
            }
            Op::Neg => Term::neg(args.pop().expect("unary")),
            Op::Mul => {
                let b = args.pop().expect("binary");
                let a = args.pop().expect("binary");
                Term::mul(a, b)
            }
            Op::Ite => {
                let e = args.pop().expect("ternary");
                let t = args.pop().expect("ternary");
                let c = args.pop().expect("ternary");
                Term::ite(c, t, e)
            }
            Op::Eq => {
                let b = args.pop().expect("binary");
                let a = args.pop().expect("binary");
                Term::eq(a, b)
            }
            Op::Le => {
                let b = args.pop().expect("binary");
                let a = args.pop().expect("binary");
                Term::le(a, b)
            }
            Op::Lt => {
                let b = args.pop().expect("binary");
                let a = args.pop().expect("binary");
                Term::lt(a, b)
            }
            Op::Ge => {
                let b = args.pop().expect("binary");
                let a = args.pop().expect("binary");
                Term::ge(a, b)
            }
            Op::Gt => {
                let b = args.pop().expect("binary");
                let a = args.pop().expect("binary");
                Term::gt(a, b)
            }
            Op::And => Term::and(args),
            Op::Or => Term::or(args),
            Op::Not => Term::not(args.pop().expect("unary")),
            Op::Implies => {
                let b = args.pop().expect("binary");
                let a = args.pop().expect("binary");
                Term::implies(a, b)
            }
            Op::Apply(f, ret) => Term::apply(*f, *ret, args),
        }
    }

    // ----- Evaluation -------------------------------------------------------------

    /// Evaluates the term under `env`, consulting `defs` for applied
    /// functions.
    ///
    /// # Errors
    ///
    /// Returns an [`EvalError`] on unbound variables, unknown functions,
    /// checked-arithmetic overflow, or ill-sorted applications.
    pub fn eval(&self, env: &Env, defs: &Definitions) -> Result<Value, EvalError> {
        match self.node() {
            TermNode::IntConst(n) => Ok(Value::Int(*n)),
            TermNode::BoolConst(b) => Ok(Value::Bool(*b)),
            TermNode::Var(s, _) => env.lookup(*s).ok_or(EvalError::UnboundVar(*s)),
            TermNode::App(op, args) => eval_app(op, args.len(), defs, |k| args[k].eval(env, defs)),
        }
    }
}

/// The semantics of one application of `op` to `arity` arguments: the single
/// definition of operator evaluation. `arg(k)` yields the value of argument
/// `k` and is called lazily, in argument order, only for the arguments the
/// operator needs (`ite` reads one branch, `and`/`or`/`=>` short-circuit),
/// so an argument that would fail does not fail the application when it is
/// not read. [`Term::eval`] passes recursive evaluation; a bottom-up
/// enumerator can pass "the stored value of child `k` on this example".
///
/// # Errors
///
/// Errors from `arg` propagate; checked-arithmetic overflow, ill-sorted
/// arguments and unknown or misapplied functions raise an [`EvalError`]
/// converted into `E`.
///
/// # Examples
///
/// ```
/// use sygus_ast::{eval_app, Definitions, EvalError, Op, Value};
/// let defs = Definitions::new();
/// let args = [Value::Int(2), Value::Int(3)];
/// let sum = eval_app::<EvalError>(&Op::Add, 2, &defs, |k| Ok(args[k]));
/// assert_eq!(sum, Ok(Value::Int(5)));
/// // `ite` never reads the branch it does not take.
/// let pick = eval_app::<EvalError>(&Op::Ite, 3, &defs, |k| match k {
///     0 => Ok(Value::Bool(true)),
///     1 => Ok(Value::Int(7)),
///     _ => Err(EvalError::Overflow),
/// });
/// assert_eq!(pick, Ok(Value::Int(7)));
/// ```
pub fn eval_app<E: From<EvalError>>(
    op: &Op,
    arity: usize,
    defs: &Definitions,
    mut arg: impl FnMut(usize) -> Result<Value, E>,
) -> Result<Value, E> {
    match op {
        Op::Add => {
            let mut acc = 0i64;
            for k in 0..arity {
                acc = acc
                    .checked_add(int_of(arg(k))?)
                    .ok_or(EvalError::Overflow)?;
            }
            Ok(Value::Int(acc))
        }
        Op::Sub => {
            let mut acc = int_of(arg(0))?;
            for k in 1..arity {
                acc = acc
                    .checked_sub(int_of(arg(k))?)
                    .ok_or(EvalError::Overflow)?;
            }
            Ok(Value::Int(acc))
        }
        Op::Neg => Ok(Value::Int(
            int_of(arg(0))?.checked_neg().ok_or(EvalError::Overflow)?,
        )),
        Op::Mul => {
            let mut acc = 1i64;
            for k in 0..arity {
                acc = acc
                    .checked_mul(int_of(arg(k))?)
                    .ok_or(EvalError::Overflow)?;
            }
            Ok(Value::Int(acc))
        }
        Op::Ite => {
            if bool_of(arg(0))? {
                arg(1)
            } else {
                arg(2)
            }
        }
        Op::Eq => {
            let a = arg(0)?;
            let b = arg(1)?;
            if a.sort() != b.sort() {
                return Err(EvalError::SortMismatch.into());
            }
            Ok(Value::Bool(a == b))
        }
        Op::Le => Ok(Value::Bool(int_of(arg(0))? <= int_of(arg(1))?)),
        Op::Lt => Ok(Value::Bool(int_of(arg(0))? < int_of(arg(1))?)),
        Op::Ge => Ok(Value::Bool(int_of(arg(0))? >= int_of(arg(1))?)),
        Op::Gt => Ok(Value::Bool(int_of(arg(0))? > int_of(arg(1))?)),
        Op::And => {
            for k in 0..arity {
                if !bool_of(arg(k))? {
                    return Ok(Value::Bool(false));
                }
            }
            Ok(Value::Bool(true))
        }
        Op::Or => {
            for k in 0..arity {
                if bool_of(arg(k))? {
                    return Ok(Value::Bool(true));
                }
            }
            Ok(Value::Bool(false))
        }
        Op::Not => Ok(Value::Bool(!bool_of(arg(0))?)),
        Op::Implies => Ok(Value::Bool(!bool_of(arg(0))? || bool_of(arg(1))?)),
        Op::Apply(f, _) => {
            let def = defs.get(*f).ok_or(EvalError::UnknownFunction(*f))?;
            if def.params.len() != arity {
                return Err(EvalError::SortMismatch.into());
            }
            let mut inner = Env::new();
            for (k, (p, _)) in def.params.iter().enumerate() {
                inner.bind(*p, arg(k)?);
            }
            Ok(def.body.eval(&inner, defs)?)
        }
    }
}

/// An integer argument value, or a sort error.
fn int_of<E: From<EvalError>>(v: Result<Value, E>) -> Result<i64, E> {
    Ok(v?.as_int().ok_or(EvalError::SortMismatch)?)
}

/// A boolean argument value, or a sort error.
fn bool_of<E: From<EvalError>>(v: Result<Value, E>) -> Result<bool, E> {
    Ok(v?.as_bool().ok_or(EvalError::SortMismatch)?)
}

/// Sort rules for a single application node, given the (already checked)
/// argument sorts.
fn check_app_sorts(op: &Op, sorts: &[Sort]) -> Result<Sort, SortError> {
    let arity = |expected: &'static str| SortError::Arity {
        op: op.name().to_string(),
        expected,
        found: sorts.len(),
    };
    let want = |index: usize, expected: Sort| -> Result<(), SortError> {
        if sorts[index] == expected {
            Ok(())
        } else {
            Err(SortError::Expected {
                op: op.name().to_string(),
                index,
                expected,
                found: sorts[index],
            })
        }
    };
    let all = |expected: Sort| -> Result<(), SortError> {
        (0..sorts.len()).try_for_each(|i| want(i, expected))
    };
    let mismatch = |left: Sort, right: Sort| SortError::Mismatch {
        op: op.name().to_string(),
        left,
        right,
    };
    match op {
        Op::Add | Op::Sub | Op::Mul => {
            if sorts.is_empty() {
                return Err(arity("at least 1"));
            }
            all(Sort::Int)?;
            Ok(Sort::Int)
        }
        Op::Neg => {
            if sorts.len() != 1 {
                return Err(arity("exactly 1"));
            }
            want(0, Sort::Int)?;
            Ok(Sort::Int)
        }
        Op::Ite => {
            if sorts.len() != 3 {
                return Err(arity("exactly 3"));
            }
            want(0, Sort::Bool)?;
            if sorts[1] != sorts[2] {
                return Err(mismatch(sorts[1], sorts[2]));
            }
            Ok(sorts[1])
        }
        Op::Eq => {
            if sorts.len() != 2 {
                return Err(arity("exactly 2"));
            }
            if sorts[0] != sorts[1] {
                return Err(mismatch(sorts[0], sorts[1]));
            }
            Ok(Sort::Bool)
        }
        Op::Le | Op::Lt | Op::Ge | Op::Gt => {
            if sorts.len() != 2 {
                return Err(arity("exactly 2"));
            }
            all(Sort::Int)?;
            Ok(Sort::Bool)
        }
        Op::And | Op::Or => {
            if sorts.is_empty() {
                return Err(arity("at least 1"));
            }
            all(Sort::Bool)?;
            Ok(Sort::Bool)
        }
        Op::Not => {
            if sorts.len() != 1 {
                return Err(arity("exactly 1"));
            }
            want(0, Sort::Bool)?;
            Ok(Sort::Bool)
        }
        Op::Implies => {
            if sorts.len() != 2 {
                return Err(arity("exactly 2"));
            }
            all(Sort::Bool)?;
            Ok(Sort::Bool)
        }
        // The signature of a named function is not recorded on the node, so
        // only the (already checked) arguments and the declared return sort
        // constrain an application.
        Op::Apply(_, ret) => Ok(*ret),
    }
}

impl PartialOrd for Term {
    fn partial_cmp(&self, other: &Term) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Term {
    fn cmp(&self, other: &Term) -> std::cmp::Ordering {
        if Arc::ptr_eq(&self.0, &other.0) {
            return std::cmp::Ordering::Equal;
        }
        // Cheap size/structural comparison via the printed form would be
        // wasteful; compare nodes recursively instead.
        fn node_cmp(a: &TermNode, b: &TermNode) -> std::cmp::Ordering {
            use std::cmp::Ordering;
            use TermNode::*;
            fn rank(n: &TermNode) -> u8 {
                match n {
                    IntConst(_) => 0,
                    BoolConst(_) => 1,
                    Var(..) => 2,
                    App(..) => 3,
                }
            }
            match (a, b) {
                (IntConst(x), IntConst(y)) => x.cmp(y),
                (BoolConst(x), BoolConst(y)) => x.cmp(y),
                (Var(x, sx), Var(y, sy)) => x.cmp(y).then(sx.cmp(sy)),
                (App(ox, ax), App(oy, ay)) => ox.cmp(oy).then_with(|| {
                    let mut it = ax.iter().zip(ay.iter());
                    loop {
                        match it.next() {
                            None => return ax.len().cmp(&ay.len()),
                            Some((p, q)) => {
                                let c = node_cmp(p.node(), q.node());
                                if c != Ordering::Equal {
                                    return c;
                                }
                            }
                        }
                    }
                }),
                _ => rank(a).cmp(&rank(b)),
            }
        }
        node_cmp(self.node(), other.node())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn x() -> Term {
        Term::int_var("x")
    }
    fn y() -> Term {
        Term::int_var("y")
    }

    #[test]
    fn constant_folding_arith() {
        assert_eq!(Term::add(Term::int(2), Term::int(3)), Term::int(5));
        assert_eq!(Term::sub(Term::int(2), Term::int(3)), Term::int(-1));
        assert_eq!(Term::mul(Term::int(2), Term::int(3)), Term::int(6));
        assert_eq!(Term::neg(Term::int(7)), Term::int(-7));
        assert_eq!(Term::add(Term::int(0), x()), x());
        assert_eq!(Term::mul(Term::int(1), x()), x());
        assert_eq!(Term::mul(Term::int(0), x()), Term::int(0));
        assert_eq!(Term::sub(x(), x()), Term::int(0));
        assert_eq!(Term::neg(Term::neg(x())), x());
    }

    #[test]
    fn constant_folding_bool() {
        assert_eq!(Term::and([Term::tt(), Term::tt()]), Term::tt());
        assert_eq!(Term::and([Term::tt(), Term::ff()]), Term::ff());
        assert_eq!(Term::or([Term::ff(), Term::ff()]), Term::ff());
        assert_eq!(Term::not(Term::tt()), Term::ff());
        assert_eq!(Term::not(Term::not(Term::eq(x(), y()))), Term::eq(x(), y()));
        assert_eq!(Term::implies(Term::ff(), Term::eq(x(), y())), Term::tt());
        assert_eq!(Term::ite(Term::tt(), x(), y()), x());
        assert_eq!(Term::ite(Term::eq(x(), y()), x(), x()), x());
    }

    #[test]
    fn and_or_flatten_and_dedup() {
        let p = Term::ge(x(), Term::int(0));
        let q = Term::le(y(), Term::int(1));
        let nested = Term::and([Term::and([p.clone(), q.clone()]), p.clone()]);
        assert_eq!(nested, Term::and([p.clone(), q.clone()]));
        let (op, args) = nested.as_app().expect("app");
        assert_eq!(*op, Op::And);
        assert_eq!(args.len(), 2);
        let o = Term::or([p.clone(), Term::or([p.clone(), q.clone()])]);
        let (_, oargs) = o.as_app().expect("app");
        assert_eq!(oargs.len(), 2);
    }

    #[test]
    fn comparison_folding() {
        assert_eq!(Term::ge(Term::int(3), Term::int(2)), Term::tt());
        assert_eq!(Term::lt(Term::int(3), Term::int(2)), Term::ff());
        assert_eq!(Term::eq(x(), x()), Term::tt());
        assert_eq!(Term::lt(x(), x()), Term::ff());
        assert_eq!(Term::ge(x(), x()), Term::tt());
    }

    #[test]
    fn sorts() {
        assert_eq!(x().sort(), Sort::Int);
        assert_eq!(Term::ge(x(), y()).sort(), Sort::Bool);
        assert_eq!(Term::ite(Term::ge(x(), y()), x(), y()).sort(), Sort::Int);
        let b = Term::ite(Term::ge(x(), y()), Term::tt(), Term::ff());
        // ite folds branches only when equal; sort comes from branch.
        assert_eq!(b.sort(), Sort::Bool);
        assert_eq!(Term::apply("f", Sort::Int, vec![x()]).sort(), Sort::Int);
    }

    #[test]
    fn size_and_height() {
        let t = Term::ite(Term::ge(x(), y()), x(), y());
        assert_eq!(t.size(), 6);
        assert_eq!(t.height(), 3);
        assert_eq!(x().size(), 1);
        assert_eq!(x().height(), 1);
    }

    #[test]
    fn free_vars() {
        let t = Term::ite(Term::ge(x(), y()), x(), Term::int(0));
        let fv = t.free_vars();
        assert_eq!(fv.len(), 2);
        assert_eq!(fv.get(&Symbol::new("x")), Some(&Sort::Int));
    }

    #[test]
    fn substitution() {
        let t = Term::add(x(), y());
        let r = t.subst_var(Symbol::new("x"), &Term::int(1));
        assert_eq!(r, Term::add(Term::int(1), y()));
        // Substitution triggers re-simplification.
        let t2 = Term::sub(x(), y());
        let r2 = t2.subst_var(Symbol::new("x"), &y());
        assert_eq!(r2, Term::int(0));
    }

    #[test]
    fn replace_term_substitutes_subterms() {
        let sub = Term::ge(x(), y());
        let t = Term::ite(sub.clone(), x(), y());
        let z = Term::var("z_bool", Sort::Bool);
        let r = t.replace_term(&sub, &z);
        assert_eq!(r, Term::ite(z, x(), y()));
    }

    #[test]
    fn replace_apps_instantiates_candidate() {
        let f = Symbol::new("fr");
        let spec = Term::ge(Term::apply(f, Sort::Int, vec![x(), y()]), x());
        let inst = spec.replace_apps(f, &|args| Term::add(args[0].clone(), args[1].clone()));
        assert_eq!(inst, Term::ge(Term::add(x(), y()), x()));
    }

    #[test]
    fn application_sites_dedup() {
        let f = Symbol::new("fsite");
        let a1 = Term::apply(f, Sort::Int, vec![x()]);
        let a2 = Term::apply(f, Sort::Int, vec![y()]);
        let t = Term::and([
            Term::ge(a1.clone(), Term::int(0)),
            Term::ge(a1.clone(), y()),
            Term::le(a2.clone(), Term::int(3)),
        ]);
        let sites = t.application_sites(f);
        assert_eq!(sites.len(), 2);
        assert_eq!(sites[0], vec![x()]);
        assert_eq!(sites[1], vec![y()]);
    }

    #[test]
    fn eval_arith_and_bool() {
        let defs = Definitions::new();
        let env = Env::from_pairs(
            &[Symbol::new("x"), Symbol::new("y")],
            &[Value::Int(3), Value::Int(-4)],
        );
        let t = Term::ite(Term::ge(x(), y()), Term::sub(x(), y()), Term::int(0));
        assert_eq!(t.eval(&env, &defs), Ok(Value::Int(7)));
        let b = Term::and([Term::ge(x(), Term::int(0)), Term::lt(y(), Term::int(0))]);
        assert_eq!(b.eval(&env, &defs), Ok(Value::Bool(true)));
    }

    #[test]
    fn eval_overflow_is_error() {
        let defs = Definitions::new();
        let env = Env::from_pairs(&[Symbol::new("x")], &[Value::Int(i64::MAX)]);
        let t = Term::app(Op::Add, vec![x(), Term::int(1)]);
        assert_eq!(t.eval(&env, &defs), Err(EvalError::Overflow));
    }

    #[test]
    fn eval_defined_function() {
        // qm(a, b) = ite(a < 0, b, a)
        let mut defs = Definitions::new();
        let a = Symbol::new("qa");
        let b = Symbol::new("qb");
        let body = Term::ite(
            Term::lt(Term::var(a, Sort::Int), Term::int(0)),
            Term::var(b, Sort::Int),
            Term::var(a, Sort::Int),
        );
        defs.define(
            Symbol::new("qm"),
            FuncDef::new(vec![(a, Sort::Int), (b, Sort::Int)], Sort::Int, body),
        );
        let call = Term::apply("qm", Sort::Int, vec![Term::int(-5), Term::int(9)]);
        assert_eq!(call.eval(&Env::new(), &defs), Ok(Value::Int(9)));
        let call2 = Term::apply("qm", Sort::Int, vec![Term::int(5), Term::int(9)]);
        assert_eq!(call2.eval(&Env::new(), &defs), Ok(Value::Int(5)));
    }

    #[test]
    fn eval_errors() {
        let defs = Definitions::new();
        assert_eq!(
            x().eval(&Env::new(), &defs),
            Err(EvalError::UnboundVar(Symbol::new("x")))
        );
        let call = Term::apply("nodef", Sort::Int, vec![]);
        assert_eq!(
            call.eval(&Env::new(), &defs),
            Err(EvalError::UnknownFunction(Symbol::new("nodef")))
        );
    }

    #[test]
    fn inline_defs_nested() {
        let mut defs = Definitions::new();
        let p = Symbol::new("dp");
        defs.define(
            Symbol::new("double"),
            FuncDef::new(
                vec![(p, Sort::Int)],
                Sort::Int,
                Term::add(Term::var(p, Sort::Int), Term::var(p, Sort::Int)),
            ),
        );
        defs.define(
            Symbol::new("quad"),
            FuncDef::new(
                vec![(p, Sort::Int)],
                Sort::Int,
                Term::apply(
                    "double",
                    Sort::Int,
                    vec![Term::apply(
                        "double",
                        Sort::Int,
                        vec![Term::var(p, Sort::Int)],
                    )],
                ),
            ),
        );
        let t = Term::apply("quad", Sort::Int, vec![x()]);
        let inlined = t.inline_defs(&defs);
        assert!(inlined.applied_funcs().is_empty());
        let env = Env::from_pairs(&[Symbol::new("x")], &[Value::Int(3)]);
        assert_eq!(inlined.eval(&env, &Definitions::new()), Ok(Value::Int(12)));
    }

    #[test]
    fn contains_and_subterms() {
        let t = Term::ite(Term::ge(x(), y()), x(), y());
        assert!(t.contains(&Term::ge(x(), y())));
        assert!(t.contains(&x()));
        assert!(!t.contains(&Term::int(42)));
        let subs = t.subterms();
        assert!(subs.contains(&t));
        assert!(subs.contains(&x()));
        assert_eq!(subs.len(), 4); // t, (>= x y), x, y — deduplicated
    }

    #[test]
    fn ordering_total_and_consistent() {
        let a = Term::int(1);
        let b = Term::int(2);
        assert!(a < b);
        assert_eq!(a.cmp(&a), std::cmp::Ordering::Equal);
        let t1 = Term::add(x(), y());
        let t2 = Term::add(x(), x());
        assert_ne!(t1.cmp(&t2), std::cmp::Ordering::Equal);
    }

    #[test]
    fn check_sorts_accepts_well_sorted_terms() {
        let t = Term::ite(Term::ge(x(), y()), x(), Term::neg(y()));
        assert_eq!(t.check_sorts(), Ok(Sort::Int));
        let b = Term::and([Term::ge(x(), Term::int(0)), Term::eq(x(), y())]);
        assert_eq!(b.check_sorts(), Ok(Sort::Bool));
        assert_eq!(
            Term::apply("f", Sort::Bool, vec![x()]).check_sorts(),
            Ok(Sort::Bool)
        );
    }

    #[test]
    fn check_sorts_rejects_bad_ite() {
        // Integer condition.
        let t = Term::app(Op::Ite, vec![x(), x(), y()]);
        assert_eq!(
            t.check_sorts(),
            Err(SortError::Expected {
                op: "ite".to_string(),
                index: 0,
                expected: Sort::Bool,
                found: Sort::Int,
            })
        );
        // Branches of different sorts.
        let t = Term::app(Op::Ite, vec![Term::ge(x(), y()), x(), Term::tt()]);
        assert_eq!(
            t.check_sorts(),
            Err(SortError::Mismatch {
                op: "ite".to_string(),
                left: Sort::Int,
                right: Sort::Bool,
            })
        );
        // Wrong arity.
        let t = Term::app(Op::Ite, vec![Term::tt(), x()]);
        assert!(matches!(t.check_sorts(), Err(SortError::Arity { .. })));
    }

    #[test]
    fn check_sorts_rejects_bad_comparisons_and_connectives() {
        // Comparison over booleans.
        let t = Term::app(Op::Le, vec![Term::tt(), Term::ff()]);
        assert!(matches!(
            t.check_sorts(),
            Err(SortError::Expected { index: 0, .. })
        ));
        // Equality across sorts.
        let t = Term::app(Op::Eq, vec![x(), Term::tt()]);
        assert!(matches!(t.check_sorts(), Err(SortError::Mismatch { .. })));
        // Connective over integers.
        let t = Term::app(Op::And, vec![x(), Term::tt()]);
        assert!(matches!(
            t.check_sorts(),
            Err(SortError::Expected { index: 0, .. })
        ));
        // Arithmetic over booleans, nested: error surfaces from the inside.
        let t = Term::ge(Term::app(Op::Add, vec![x(), Term::tt()]), Term::int(0));
        assert!(matches!(
            t.check_sorts(),
            Err(SortError::Expected { index: 1, .. })
        ));
        // Neg arity.
        let t = Term::app(Op::Neg, vec![x(), y()]);
        assert!(matches!(t.check_sorts(), Err(SortError::Arity { .. })));
    }

    #[test]
    fn sort_error_display_is_informative() {
        let t = Term::app(Op::Ite, vec![x(), x(), y()]);
        let e = t.check_sorts().unwrap_err();
        assert_eq!(
            e.to_string(),
            "argument 0 of `ite` must have sort Bool, got Int"
        );
    }

    #[test]
    fn rebuild_preserves_semantics() {
        // rebuild through smart constructors after substitution keeps folds.
        let t = Term::app(Op::Add, vec![Term::int(1), Term::int(2)]);
        // raw app did not fold
        assert!(t.as_app().is_some());
        let r = t.subst_vars(&BTreeMap::new());
        assert_eq!(r, Term::int(3));
    }
}
