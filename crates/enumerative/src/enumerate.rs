//! Bottom-up term enumeration from an expression grammar, by term size,
//! with observational-equivalence pruning — the enumeration core of the
//! EUSolver-style baseline and of the fixed-height engine's concrete path.
//!
//! Every kept term is banked with its signature (its values on the
//! examples) and its height. A candidate application's signature is
//! composed pointwise from its children's banked signatures — one
//! [`eval_app`] call per example, the same operator semantics as
//! [`Term::eval`] — and its [`Term`] is built only when that signature is
//! new to its non-terminal.

use std::borrow::Cow;
use std::collections::hash_map::{Entry, RandomState};
use std::collections::{HashMap, HashSet};
use std::hash::BuildHasher;
use std::ops::ControlFlow;
use sygus_ast::runtime::Budget;
use sygus_ast::{
    eval_app, Definitions, Env, EvalError, GTerm, Grammar, NonterminalId, Op, SizeFeasibility,
    Sort, Term, Value,
};

/// Generated candidates between two budget polls inside a layer.
const CANDIDATES_PER_POLL: u64 = 256;

/// Configuration for a [`TermEnumerator`].
#[derive(Clone, Debug)]
pub struct EnumConfig {
    /// Largest term size (node count) to enumerate.
    pub max_size: usize,
    /// Largest term height to enumerate (a leaf has height 1); `None` is
    /// unbounded. A taller term is never kept, so it never becomes the
    /// representative that prunes a same-behaviour term within the bound.
    pub max_height: Option<usize>,
    /// Integer constants substituted for `(Constant Int)` productions.
    pub constant_pool: Vec<i64>,
    /// Hard cap on terms kept per (non-terminal, size) layer.
    pub max_terms_per_layer: usize,
    /// Shared resource governor, polled between layers and every
    /// [`CANDIDATES_PER_POLL`] generated candidates inside one; when it
    /// trips, layer construction stops (complete layers stay queryable, the
    /// interrupted one is dropped). Each kept term charges one fuel unit.
    pub budget: Budget,
}

impl Default for EnumConfig {
    fn default() -> EnumConfig {
        EnumConfig {
            max_size: 20,
            max_height: None,
            constant_pool: vec![0, 1, -1, 2],
            max_terms_per_layer: 50_000,
            budget: Budget::unlimited(),
        }
    }
}

/// Words of a packed signature over `n` examples. A term's signature is its
/// value on each example environment (`None` when evaluation fails, e.g. on
/// overflow), packed by [`put_value`] and read back by [`value_at`]; kept
/// signatures bound the enumerator's memory, and packing halves their bytes
/// per example against `Option<Value>`. The layout: `n.div_ceil(32)` words of
/// 2-bit tags (0 undefined, 1 `Int`, 2 `Bool`), then one value word per
/// example (0 when undefined, so equal signatures pack to equal words).
fn packed_len(n: usize) -> usize {
    n.div_ceil(32) + n
}

/// Stores the value on example `i` of `n` into a zeroed packed signature.
fn put_value(words: &mut [u64], n: usize, i: usize, value: Option<Value>) {
    let (tag, word) = match value {
        None => (0, 0),
        Some(Value::Int(v)) => (1, v as u64),
        Some(Value::Bool(b)) => (2, u64::from(b)),
    };
    words[i / 32] |= tag << (2 * (i % 32));
    words[n.div_ceil(32) + i] = word;
}

/// The value on example `i` of `n` in a packed signature.
fn value_at(words: &[u64], n: usize, i: usize) -> Option<Value> {
    let word = words[n.div_ceil(32) + i];
    match (words[i / 32] >> (2 * (i % 32))) & 3 {
        1 => Some(Value::Int(word as i64)),
        2 => Some(Value::Bool(word != 0)),
        _ => None,
    }
}

/// Terms of one (non-terminal, size) slot — or the instantiations of a
/// nested production pattern — each with its signature and height.
#[derive(Clone, Debug, Default)]
struct Layer {
    terms: Vec<Term>,
    /// The terms' packed signatures, back to back, `width` words each.
    sigs: Vec<u64>,
    width: usize,
    /// Heights saturate at `u16::MAX`; a height never exceeds the size, and
    /// sizes stay far below that.
    heights: Vec<u16>,
}

impl Layer {
    /// An empty layer for signatures of `width` words.
    fn new(width: usize) -> Layer {
        Layer {
            width,
            ..Layer::default()
        }
    }

    fn len(&self) -> usize {
        self.terms.len()
    }

    fn push(&mut self, term: Term, sig: &[u64], height: usize) {
        self.terms.push(term);
        self.sigs.extend_from_slice(sig);
        self.heights.push(u16::try_from(height).unwrap_or(u16::MAX));
    }

    fn sig(&self, j: usize) -> &[u64] {
        &self.sigs[j * self.width..(j + 1) * self.width]
    }

    /// Drops the spare capacity of a finished layer: banked layers live
    /// until the enumerator does.
    fn shrink_to_fit(&mut self) {
        self.terms.shrink_to_fit();
        self.sigs.shrink_to_fit();
        self.heights.shrink_to_fit();
    }

    fn pick(&self, j: usize) -> Pick<'_> {
        Pick {
            term: &self.terms[j],
            sig: self.sig(j),
            height: usize::from(self.heights[j]),
        }
    }
}

/// One child of a candidate application, borrowed from its layer.
#[derive(Clone, Copy)]
struct Pick<'s> {
    term: &'s Term,
    sig: &'s [u64],
    height: usize,
}

/// A failed evaluation in a composed signature: every [`EvalError`]
/// collapses to it, as `Term::eval(..).ok()` collapses them to `None`.
struct Undefined;

impl From<EvalError> for Undefined {
    fn from(_: EvalError) -> Undefined {
        Undefined
    }
}

/// The signatures a non-terminal has kept, for observational pruning. The
/// signatures live in the bank: `first` maps a signature's hash to the slot
/// (size, index) of the first kept term with that hash, and a different
/// signature with a taken hash (a 64-bit collision) is kept in `collided`.
#[derive(Clone, Debug, Default)]
struct Seen {
    first: HashMap<u64, (usize, usize)>,
    collided: HashSet<Box<[u64]>>,
}

/// The layer under construction for one (non-terminal, size) slot.
struct Fill<'f> {
    nt: NonterminalId,
    size: usize,
    layer: Layer,
    seen: &'f mut Seen,
    /// Candidates offered to the slot (counted before the `seen` check).
    generated: u64,
    /// The budget tripped while the slot was being filled.
    tripped: bool,
    /// Reused buffer for a candidate's composed signature.
    scratch: Vec<u64>,
}

/// Bottom-up enumerator producing grammar terms in non-decreasing size
/// order, deduplicated by behaviour on a set of example environments.
///
/// With no examples, deduplication is purely syntactic (every term has the
/// empty signature — so pruning is disabled and terms are kept distinct).
///
/// # Examples
///
/// ```
/// use enum_synth::{EnumConfig, TermEnumerator};
/// use sygus_ast::{Definitions, Env, Grammar, Sort, Symbol, Value};
/// let g = Grammar::clia(&[(Symbol::new("x"), Sort::Int)], Sort::Int);
/// let defs = Definitions::new();
/// let examples = vec![Env::from_pairs(&[Symbol::new("x")], &[Value::Int(3)])];
/// let mut e = TermEnumerator::new(&g, &defs, examples, EnumConfig::default());
/// let layer1 = e.terms_of_size(1).to_vec();
/// assert!(!layer1.is_empty()); // x and the constant pool
/// ```
pub struct TermEnumerator<'a> {
    grammar: &'a Grammar,
    defs: &'a Definitions,
    examples: Vec<Env>,
    config: EnumConfig,
    /// `config.max_height`, with `usize::MAX` for unbounded.
    max_height: usize,
    /// `bank[nt][size]` = the distinct-behaviour terms of that exact size
    /// (index 0 unused).
    bank: Vec<Vec<Layer>>,
    /// Seen signatures per non-terminal (disabled when `examples` is empty).
    seen: Vec<Seen>,
    /// Hashes signatures for `seen`.
    hasher: RandomState,
    /// Grammar dataflow table: which (production, exact size) slots can be
    /// non-empty at all. Provably-empty slots are skipped without expansion.
    feasible: SizeFeasibility,
    built_size: usize,
}

impl<'a> TermEnumerator<'a> {
    /// Creates an enumerator. `examples` drive observational-equivalence
    /// pruning; `defs` interpret applied functions during evaluation.
    pub fn new(
        grammar: &'a Grammar,
        defs: &'a Definitions,
        examples: Vec<Env>,
        config: EnumConfig,
    ) -> TermEnumerator<'a> {
        let n = grammar.nonterminals().len();
        TermEnumerator {
            grammar,
            defs,
            examples,
            max_height: config.max_height.unwrap_or(usize::MAX),
            config,
            bank: vec![vec![Layer::default()]; n],
            seen: vec![Seen::default(); n],
            hasher: RandomState::new(),
            feasible: SizeFeasibility::new(grammar),
            built_size: 0,
        }
    }

    /// The example environments driving pruning.
    pub fn examples(&self) -> &[Env] {
        &self.examples
    }

    /// Terms of the start non-terminal with exactly the given size,
    /// building layers on demand.
    pub fn terms_of_size(&mut self, size: usize) -> &[Term] {
        self.terms_of_nt_size(self.grammar.start(), size)
    }

    /// Terms of a specific non-terminal with exactly the given size.
    pub fn terms_of_nt_size(&mut self, nt: NonterminalId, size: usize) -> &[Term] {
        self.build_to(size);
        self.bank[nt].get(size).map_or(&[], |l| &l.terms)
    }

    fn build_to(&mut self, requested: usize) {
        let size = requested.min(self.config.max_size);
        let grammar = self.grammar;
        while self.built_size < size {
            // Budget checkpoint between layers: stop growing the table the
            // moment the governor trips (deadline, cancellation, or fuel).
            if self.config.budget.is_exhausted() {
                return;
            }
            let next = self.built_size + 1;
            for nt in 0..grammar.nonterminals().len() {
                // Dataflow pre-check: when the fixpoint proves no term of
                // exactly `next` nodes can come from a production, skip its
                // whole expansion for the slot.
                let prods: Vec<&GTerm> = grammar
                    .nonterminal(nt)
                    .productions
                    .iter()
                    .filter(|prod| {
                        let ok = self.feasible.pattern_feasible(prod, next);
                        if !ok {
                            self.config
                                .budget
                                .tracer()
                                .metrics()
                                .bump("enum.slots_pruned");
                        }
                        ok
                    })
                    .collect();
                let mut seen = std::mem::take(&mut self.seen[nt]);
                let mut fill = Fill {
                    nt,
                    size: next,
                    layer: Layer::new(packed_len(self.examples.len())),
                    seen: &mut seen,
                    generated: 0,
                    tripped: false,
                    scratch: Vec::with_capacity(packed_len(self.examples.len())),
                };
                for prod in prods {
                    if self.expand(prod, next, &mut fill).is_break() {
                        break;
                    }
                }
                let Fill {
                    mut layer,
                    generated,
                    tripped,
                    ..
                } = fill;
                self.seen[nt] = seen;
                let metrics = self.config.budget.tracer().metrics();
                metrics.add("enum.terms_generated", generated);
                if tripped {
                    // Drop the interrupted size everywhere, so every bank
                    // row ends at the last complete size, and build nothing
                    // more: `seen` still points into the dropped size.
                    for row in &mut self.bank {
                        row.truncate(next);
                    }
                    self.config.max_size = self.built_size;
                    return;
                }
                // One fuel unit per kept (behaviourally distinct) term.
                let _ = self.config.budget.charge_fuel(layer.len() as u64);
                metrics.add("enum.terms_kept", layer.len() as u64);
                layer.shrink_to_fit();
                self.bank[nt].push(layer);
            }
            self.built_size = next;
        }
    }

    /// Offers every instantiation of the top-level production `prod` with
    /// exactly `size` nodes to `fill`; `Break` once the slot is full or the
    /// budget trips.
    fn expand(&self, prod: &GTerm, size: usize, fill: &mut Fill<'_>) -> ControlFlow<()> {
        let GTerm::App(op, children) = prod else {
            // Banked terms are within the height bound already.
            let source = self.source(prod, size, self.max_height);
            for j in 0..source.len() {
                self.offer_kept(source.pick(j), fill)?;
            }
            return ControlFlow::Continue(());
        };
        if self.max_height < 2 {
            return ControlFlow::Continue(());
        }
        let child_height = self.max_height - 1;
        let sources = self.child_sources(children, size - 1, child_height);
        let mut picks = Vec::with_capacity(children.len());
        for_each_combination(&sources, child_height, size - 1, &mut picks, &mut |picks| {
            self.offer_app(op, picks, fill)
        })
    }

    /// Offers a term that already carries its signature (a leaf, or a term
    /// of another non-terminal through a renaming production).
    fn offer_kept(&self, pick: Pick<'_>, fill: &mut Fill<'_>) -> ControlFlow<()> {
        self.tick(fill)?;
        let keep = if self.examples.is_empty() {
            !fill.layer.terms.contains(pick.term)
        } else {
            self.admit(fill, pick.sig)
        };
        if keep {
            fill.layer.push(pick.term.clone(), pick.sig, pick.height);
        }
        ControlFlow::Continue(())
    }

    /// Offers the application of `op` to `picks`, composing its signature
    /// and building its term only when the signature is new.
    fn offer_app(&self, op: &Op, picks: &[Pick<'_>], fill: &mut Fill<'_>) -> ControlFlow<()> {
        self.tick(fill)?;
        let height = app_height(picks);
        if self.examples.is_empty() {
            let term = app_term(op, picks);
            if !fill.layer.terms.contains(&term) {
                fill.layer.push(term, &[], height);
            }
            return ControlFlow::Continue(());
        }
        let mut sig = std::mem::take(&mut fill.scratch);
        self.compose(op, picks, &mut sig);
        if self.admit(fill, &sig) {
            fill.layer.push(app_term(op, picks), &sig, height);
        }
        fill.scratch = sig;
        ControlFlow::Continue(())
    }

    /// Records `sig` as kept at the next index of the slot being filled;
    /// `false` when the non-terminal kept an equal signature before.
    fn admit(&self, fill: &mut Fill<'_>, sig: &[u64]) -> bool {
        let at = (fill.size, fill.layer.len());
        match fill.seen.first.entry(self.hasher.hash_one(sig)) {
            Entry::Vacant(slot) => {
                slot.insert(at);
                true
            }
            Entry::Occupied(slot) => {
                let (size, j) = *slot.get();
                let kept = if size == fill.size {
                    fill.layer.sig(j)
                } else {
                    self.bank[fill.nt][size].sig(j)
                };
                kept != sig && fill.seen.collided.insert(sig.into())
            }
        }
    }

    /// Counts one generated candidate; `Break` when the slot is full or the
    /// periodic budget poll finds the governor tripped.
    fn tick(&self, fill: &mut Fill<'_>) -> ControlFlow<()> {
        if fill.layer.len() >= self.config.max_terms_per_layer {
            return ControlFlow::Break(());
        }
        fill.generated += 1;
        if fill.generated.is_multiple_of(CANDIDATES_PER_POLL) && self.config.budget.is_exhausted() {
            fill.tripped = true;
            return ControlFlow::Break(());
        }
        ControlFlow::Continue(())
    }

    /// The signature of `op` applied to `picks`, composed pointwise from the
    /// children's signatures into `out`.
    fn compose(&self, op: &Op, picks: &[Pick<'_>], out: &mut Vec<u64>) {
        let n = self.examples.len();
        out.clear();
        out.resize(packed_len(n), 0);
        for i in 0..n {
            let value = eval_app(op, picks.len(), self.defs, |k| {
                value_at(picks[k].sig, n, i).ok_or(Undefined)
            });
            put_value(out, n, i, value.ok());
        }
    }

    /// The terms a pattern contributes at exactly `size ≥ 1` nodes and at
    /// most `max_height` levels: a banked layer for a non-terminal (its
    /// entries are height-filtered by the caller), the leaves at size 1,
    /// and every instantiation of a nested application.
    fn source(&self, pat: &GTerm, size: usize, max_height: usize) -> Cow<'_, Layer> {
        match pat {
            GTerm::Nonterminal(id) => match self.bank[*id].get(size) {
                Some(layer) => Cow::Borrowed(layer),
                None => Cow::Owned(Layer::default()),
            },
            GTerm::App(op, children) => {
                let mut out = Layer::new(packed_len(self.examples.len()));
                if max_height >= 2 {
                    let sources = self.child_sources(children, size - 1, max_height - 1);
                    let mut scratch = Vec::with_capacity(packed_len(self.examples.len()));
                    let mut picks = Vec::with_capacity(children.len());
                    let _ = for_each_combination(
                        &sources,
                        max_height - 1,
                        size - 1,
                        &mut picks,
                        &mut |picks| {
                            self.compose(op, picks, &mut scratch);
                            out.push(app_term(op, picks), &scratch, app_height(picks));
                            ControlFlow::Continue(())
                        },
                    );
                }
                Cow::Owned(out)
            }
            leaf if size == 1 && max_height >= 1 => Cow::Owned(self.leaves(leaf)),
            _ => Cow::Owned(Layer::default()),
        }
    }

    /// `source` for each child pattern at every size `0..=total` (size 0 is
    /// always empty).
    fn child_sources(
        &self,
        children: &[GTerm],
        total: usize,
        max_height: usize,
    ) -> Vec<Vec<Cow<'_, Layer>>> {
        children
            .iter()
            .map(|child| {
                (0..=total)
                    .map(|sz| match sz {
                        0 => Cow::Owned(Layer::default()),
                        _ => self.source(child, sz, max_height),
                    })
                    .collect()
            })
            .collect()
    }

    /// The size-1 terms of a leaf pattern, with their signatures.
    fn leaves(&self, pat: &GTerm) -> Layer {
        let terms: Vec<Term> = match pat {
            GTerm::Const(n) => vec![Term::int(*n)],
            GTerm::BoolConst(b) => vec![Term::bool(*b)],
            GTerm::Var(v, s) => vec![Term::var(*v, *s)],
            GTerm::AnyConst(Sort::Int) => self
                .config
                .constant_pool
                .iter()
                .map(|&c| Term::int(c))
                .collect(),
            GTerm::AnyConst(Sort::Bool) => vec![Term::tt(), Term::ff()],
            GTerm::AnyVar(s) => {
                // All example-scope variables of the sort.
                let mut vars: Vec<Term> = Vec::new();
                for env in &self.examples {
                    for (sym, val) in env.iter() {
                        let t = Term::var(sym, *s);
                        if val.sort() == *s && !vars.contains(&t) {
                            vars.push(t);
                        }
                    }
                }
                vars
            }
            GTerm::Nonterminal(_) | GTerm::App(..) => Vec::new(),
        };
        let n = self.examples.len();
        let mut out = Layer::new(packed_len(n));
        let mut sig = vec![0; packed_len(n)];
        for t in terms {
            sig.fill(0);
            for (i, env) in self.examples.iter().enumerate() {
                put_value(&mut sig, n, i, t.eval(env, self.defs).ok());
            }
            out.push(t, &sig, 1);
        }
        out
    }
}

/// The application term of `op` to the picked children.
fn app_term(op: &Op, picks: &[Pick<'_>]) -> Term {
    Term::app(*op, picks.iter().map(|p| p.term.clone()).collect())
}

/// The height of an application of the picked children.
fn app_height(picks: &[Pick<'_>]) -> usize {
    1 + picks.iter().map(|p| p.height).max().unwrap_or(0)
}

/// Calls `visit` for every choice of one term per child source whose sizes
/// sum to `remaining` and whose heights are at most `max_height`, in
/// generation order: the first child's size ascending, then its terms in
/// layer order, then the next child likewise. `sources[k][sz]` holds child
/// `k`'s terms of size `sz`.
fn for_each_combination<'s>(
    sources: &'s [Vec<Cow<'s, Layer>>],
    max_height: usize,
    remaining: usize,
    picks: &mut Vec<Pick<'s>>,
    visit: &mut dyn FnMut(&[Pick<'s>]) -> ControlFlow<()>,
) -> ControlFlow<()> {
    let Some(options) = sources.get(picks.len()) else {
        return match remaining {
            0 => visit(picks),
            _ => ControlFlow::Continue(()),
        };
    };
    let rest = sources.len() - picks.len() - 1;
    // Every later child takes at least one node; the last takes the rest.
    let smallest = if rest == 0 { remaining } else { 1 };
    let largest = remaining.saturating_sub(rest);
    for (sz, layer) in options.iter().enumerate().take(largest + 1).skip(smallest) {
        for j in 0..layer.len() {
            let pick = layer.pick(j);
            if pick.height > max_height {
                continue;
            }
            picks.push(pick);
            let flow = for_each_combination(sources, max_height, remaining - sz, picks, visit);
            picks.pop();
            flow?;
        }
    }
    ControlFlow::Continue(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sygus_ast::Symbol;

    fn x_sym() -> Symbol {
        Symbol::new("x")
    }

    fn simple_grammar() -> Grammar {
        // S -> x | 0 | 1 | (+ S S)
        let mut g = Grammar::new();
        let s = g.add_nonterminal("S", Sort::Int);
        g.add_production(s, GTerm::Var(x_sym(), Sort::Int));
        g.add_production(s, GTerm::Const(0));
        g.add_production(s, GTerm::Const(1));
        g.add_production(
            s,
            GTerm::App(Op::Add, vec![GTerm::Nonterminal(s), GTerm::Nonterminal(s)]),
        );
        g
    }

    #[test]
    fn size_one_terms() {
        let g = simple_grammar();
        let defs = Definitions::new();
        let mut e = TermEnumerator::new(&g, &defs, Vec::new(), EnumConfig::default());
        let t1: Vec<String> = e.terms_of_size(1).iter().map(|t| t.to_string()).collect();
        assert_eq!(t1, vec!["x", "0", "1"]);
    }

    #[test]
    fn size_three_sums() {
        let g = simple_grammar();
        let defs = Definitions::new();
        let mut e = TermEnumerator::new(&g, &defs, Vec::new(), EnumConfig::default());
        let t3 = e.terms_of_size(3).to_vec();
        // Pairs of size-1 terms under +: 3 × 3 = 9 raw applications.
        assert_eq!(t3.len(), 9);
        assert!(t3.iter().any(|t| t.to_string() == "(+ x x)"));
    }

    #[test]
    fn observational_pruning_collapses_equivalents() {
        let g = simple_grammar();
        let defs = Definitions::new();
        let examples = vec![
            Env::from_pairs(&[x_sym()], &[Value::Int(2)]),
            Env::from_pairs(&[x_sym()], &[Value::Int(-5)]),
        ];
        let mut e = TermEnumerator::new(&g, &defs, examples, EnumConfig::default());
        let _ = e.terms_of_size(1);
        let t3 = e.terms_of_size(3).to_vec();
        // (+ 0 0) ≡ 0, (+ x 0) ≡ x, (+ 0 1) ≡ 1 … only genuinely new
        // behaviours survive: x+x, x+1, 1+1.
        let strs: Vec<String> = t3.iter().map(|t| t.to_string()).collect();
        assert_eq!(strs.len(), 3, "{strs:?}");
    }

    #[test]
    fn no_size_two_terms_in_binary_grammar() {
        let g = simple_grammar();
        let defs = Definitions::new();
        let mut e = TermEnumerator::new(&g, &defs, Vec::new(), EnumConfig::default());
        assert!(e.terms_of_size(2).is_empty());
    }

    #[test]
    fn clia_grammar_enumerates_conditions() {
        let g = Grammar::clia(&[(x_sym(), Sort::Int)], Sort::Int);
        let defs = Definitions::new();
        let examples = vec![Env::from_pairs(&[x_sym()], &[Value::Int(1)])];
        let mut e = TermEnumerator::new(&g, &defs, examples, EnumConfig::default());
        // StartBool is non-terminal 1; size-3 conditions include (>= x 0).
        let _ = e.terms_of_size(3);
        let bools = e.terms_of_nt_size(1, 3).to_vec();
        assert!(
            bools.iter().any(|t| t.sort() == Sort::Bool),
            "expected boolean layer, got {bools:?}"
        );
    }

    #[test]
    fn interpreted_functions_evaluated_in_signatures() {
        // S -> x | 0 | qm(S, S); qm(a,b) = ite(a<0, b, a)
        let mut defs = Definitions::new();
        let a = Symbol::new("ea");
        let b = Symbol::new("eb");
        defs.define(
            Symbol::new("qm"),
            sygus_ast::FuncDef::new(
                vec![(a, Sort::Int), (b, Sort::Int)],
                Sort::Int,
                Term::ite(
                    Term::lt(Term::var(a, Sort::Int), Term::int(0)),
                    Term::var(b, Sort::Int),
                    Term::var(a, Sort::Int),
                ),
            ),
        );
        let mut g = Grammar::new();
        let s = g.add_nonterminal("S", Sort::Int);
        g.add_production(s, GTerm::Var(x_sym(), Sort::Int));
        g.add_production(s, GTerm::Const(0));
        g.add_production(
            s,
            GTerm::App(
                Op::Apply(Symbol::new("qm"), Sort::Int),
                vec![GTerm::Nonterminal(s), GTerm::Nonterminal(s)],
            ),
        );
        let examples = vec![Env::from_pairs(&[x_sym()], &[Value::Int(-3)])];
        let mut e = TermEnumerator::new(&g, &defs, examples, EnumConfig::default());
        let _ = e.terms_of_size(1);
        let t3 = e.terms_of_size(3).to_vec();
        // qm(x, 0) on x = -3 gives 0 ≡ constant 0 → pruned; qm(0, x) gives 0
        // → pruned; qm(x, x) gives -3 ≡ x → pruned. Everything collapses.
        assert!(t3.is_empty(), "{t3:?}");
    }

    #[test]
    fn constant_pool_honored() {
        let mut g = Grammar::new();
        let s = g.add_nonterminal("S", Sort::Int);
        g.add_production(s, GTerm::AnyConst(Sort::Int));
        let defs = Definitions::new();
        let cfg = EnumConfig {
            constant_pool: vec![7, 9],
            ..EnumConfig::default()
        };
        let mut e = TermEnumerator::new(&g, &defs, Vec::new(), cfg);
        let t1: Vec<String> = e.terms_of_size(1).iter().map(|t| t.to_string()).collect();
        assert_eq!(t1, vec!["7", "9"]);
    }

    #[test]
    fn max_size_respected() {
        let g = simple_grammar();
        let defs = Definitions::new();
        let cfg = EnumConfig {
            max_size: 3,
            ..EnumConfig::default()
        };
        let mut e = TermEnumerator::new(&g, &defs, Vec::new(), cfg);
        assert!(e.terms_of_size(5).is_empty());
    }

    #[test]
    fn infeasible_slots_are_pruned_without_changing_results() {
        // S -> x | (+ S S): every even size slot is provably empty, so each
        // production is skipped there; odd slots still enumerate fully.
        let mut g = Grammar::new();
        let s = g.add_nonterminal("S", Sort::Int);
        g.add_production(s, GTerm::Var(x_sym(), Sort::Int));
        g.add_production(
            s,
            GTerm::App(Op::Add, vec![GTerm::Nonterminal(s), GTerm::Nonterminal(s)]),
        );
        let defs = Definitions::new();
        let cfg = EnumConfig::default();
        let budget = cfg.budget.clone();
        let mut e = TermEnumerator::new(&g, &defs, Vec::new(), cfg);
        assert!(e.terms_of_size(2).is_empty());
        assert!(e.terms_of_size(4).is_empty());
        assert_eq!(e.terms_of_size(3).len(), 1); // (+ x x)
        assert!(
            budget.tracer().metrics().counter("enum.slots_pruned") > 0,
            "expected the dataflow pre-check to skip empty slots"
        );
    }

    #[test]
    fn unproductive_nonterminal_is_always_pruned() {
        // S -> x | (+ S U); U -> U : the dead production never expands.
        let mut g = Grammar::new();
        let s = g.add_nonterminal("S", Sort::Int);
        let u = g.add_nonterminal("U", Sort::Int);
        g.add_production(s, GTerm::Var(x_sym(), Sort::Int));
        g.add_production(
            s,
            GTerm::App(Op::Add, vec![GTerm::Nonterminal(s), GTerm::Nonterminal(u)]),
        );
        g.add_production(u, GTerm::Nonterminal(u));
        let defs = Definitions::new();
        let mut e = TermEnumerator::new(&g, &defs, Vec::new(), EnumConfig::default());
        let t1: Vec<String> = e.terms_of_size(1).iter().map(|t| t.to_string()).collect();
        assert_eq!(t1, vec!["x"]);
        for size in 2..=6 {
            assert!(e.terms_of_size(size).is_empty(), "size {size}");
        }
    }

    #[test]
    fn nested_pattern_production() {
        // S -> (+ S 1) | x : production with an embedded constant child.
        let mut g = Grammar::new();
        let s = g.add_nonterminal("S", Sort::Int);
        g.add_production(s, GTerm::Var(x_sym(), Sort::Int));
        g.add_production(
            s,
            GTerm::App(Op::Add, vec![GTerm::Nonterminal(s), GTerm::Const(1)]),
        );
        let defs = Definitions::new();
        let mut e = TermEnumerator::new(&g, &defs, Vec::new(), EnumConfig::default());
        let t3: Vec<String> = e.terms_of_size(3).iter().map(|t| t.to_string()).collect();
        assert_eq!(t3, vec!["(+ x 1)"]);
        let t5: Vec<String> = e.terms_of_size(5).iter().map(|t| t.to_string()).collect();
        assert_eq!(t5, vec!["(+ (+ x 1) 1)"]);
    }

    #[test]
    fn colliding_hashes_compare_signatures() {
        // Point the hash of a new signature at `x`'s slot, as a 64-bit
        // collision would: admission compares the words, keeps the new
        // signature aside, and still prunes its duplicate.
        let g = simple_grammar();
        let defs = Definitions::new();
        let examples = vec![Env::from_pairs(&[x_sym()], &[Value::Int(2)])];
        let mut e = TermEnumerator::new(&g, &defs, examples, EnumConfig::default());
        let _ = e.terms_of_size(1);
        let mut sig = vec![0; packed_len(1)];
        put_value(&mut sig, 1, 0, Some(Value::Int(7)));
        let hash = e.hasher.hash_one(&sig[..]);
        e.seen[0].first.insert(hash, (1, 0));
        let x_sig = e.bank[0][1].sig(0).to_vec();
        let mut seen = std::mem::take(&mut e.seen[0]);
        let mut fill = Fill {
            nt: 0,
            size: 2,
            layer: Layer::new(packed_len(1)),
            seen: &mut seen,
            generated: 0,
            tripped: false,
            scratch: Vec::new(),
        };
        assert!(
            e.admit(&mut fill, &sig),
            "a colliding new signature is kept"
        );
        assert!(!e.admit(&mut fill, &sig), "its duplicate is pruned");
        assert!(!e.admit(&mut fill, &x_sig), "x's signature stays seen");
    }

    /// Values the differential test draws example inputs from: small
    /// integers plus the edges of `i64`, so `+`/`-` overflow yields `None`.
    const PROP_VALUES: [i64; 8] = [-2, -1, 0, 1, 2, i64::MAX, i64::MAX - 1, i64::MIN];

    /// `qm(a, b) = ite(a < 0, b, a)`, as the benchmarks define it.
    fn qm_defs() -> Definitions {
        let mut defs = Definitions::new();
        let (a, b) = (Symbol::new("qa"), Symbol::new("qb"));
        defs.define(
            Symbol::new("qm"),
            sygus_ast::FuncDef::new(
                vec![(a, Sort::Int), (b, Sort::Int)],
                Sort::Int,
                Term::ite(
                    Term::lt(Term::var(a, Sort::Int), Term::int(0)),
                    Term::var(b, Sort::Int),
                    Term::var(a, Sort::Int),
                ),
            ),
        );
        defs
    }

    /// A small random grammar over `x`, `y`: `S` (Int) always derives `x`
    /// and `B` (Bool) its two constants; each bit of `mask` adds one more
    /// production to `S`, `B` or `T` (Int), including a nested pattern and a
    /// renaming `S -> T`.
    fn random_grammar(mask: u32) -> Grammar {
        let mut g = Grammar::new();
        let s = g.add_nonterminal("S", Sort::Int);
        let b = g.add_nonterminal("B", Sort::Bool);
        let t = g.add_nonterminal("T", Sort::Int);
        let nt = GTerm::Nonterminal;
        let y = Symbol::new("y");
        let qm = Op::Apply(Symbol::new("qm"), Sort::Int);
        g.add_production(s, GTerm::Var(x_sym(), Sort::Int));
        g.add_production(b, GTerm::AnyConst(Sort::Bool));
        let menu: Vec<(usize, GTerm)> = vec![
            (s, GTerm::Var(y, Sort::Int)),
            (s, GTerm::Const(i64::MAX)),
            (s, GTerm::App(Op::Add, vec![nt(s), nt(s)])),
            (s, GTerm::App(Op::Sub, vec![nt(s), nt(s)])),
            (s, GTerm::App(Op::Ite, vec![nt(b), nt(s), nt(s)])),
            (s, GTerm::App(qm, vec![nt(s), nt(s)])),
            (s, GTerm::App(Op::Add, vec![nt(s), GTerm::Const(1)])),
            (
                s,
                GTerm::App(
                    Op::Ite,
                    vec![GTerm::App(Op::Le, vec![nt(s), nt(t)]), nt(t), nt(s)],
                ),
            ),
            (s, nt(t)),
            (t, GTerm::Const(-1)),
            (
                t,
                GTerm::App(Op::Sub, vec![nt(s), GTerm::Var(y, Sort::Int)]),
            ),
            (b, GTerm::App(Op::Le, vec![nt(s), nt(s)])),
            (b, GTerm::App(Op::And, vec![nt(b), nt(b)])),
        ];
        for (i, (owner, prod)) in menu.into_iter().enumerate() {
            if mask & (1 << i) != 0 {
                g.add_production(owner, prod);
            }
        }
        g
    }

    /// The tree-walking reference: every instantiation of `pat` at exactly
    /// `size` nodes, built as a term, children from `layers`.
    fn reference_expand(
        pat: &GTerm,
        size: usize,
        layers: &[Vec<Vec<Term>>],
        pool: &[i64],
    ) -> Vec<Term> {
        match pat {
            GTerm::Const(n) if size == 1 => vec![Term::int(*n)],
            GTerm::Var(v, s) if size == 1 => vec![Term::var(*v, *s)],
            GTerm::AnyConst(Sort::Int) if size == 1 => pool.iter().map(|&c| Term::int(c)).collect(),
            GTerm::AnyConst(Sort::Bool) if size == 1 => vec![Term::tt(), Term::ff()],
            GTerm::Nonterminal(id) => layers[*id].get(size).cloned().unwrap_or_default(),
            GTerm::App(op, children) if size > children.len() => {
                let mut out = Vec::new();
                reference_children(children, size - 1, Vec::new(), layers, pool, &mut |args| {
                    out.push(Term::app(*op, args.to_vec()));
                });
                out
            }
            _ => Vec::new(),
        }
    }

    fn reference_children(
        children: &[GTerm],
        remaining: usize,
        acc: Vec<Term>,
        layers: &[Vec<Vec<Term>>],
        pool: &[i64],
        emit: &mut dyn FnMut(&[Term]),
    ) {
        let Some((first, rest)) = children.split_first() else {
            if remaining == 0 {
                emit(&acc);
            }
            return;
        };
        for sz in 1..=remaining.saturating_sub(rest.len()) {
            for t in reference_expand(first, sz, layers, pool) {
                let mut next = acc.clone();
                next.push(t);
                reference_children(rest, remaining - sz, next, layers, pool, emit);
            }
        }
    }

    /// The layers a whole-tree-signature enumerator keeps: every candidate
    /// built, evaluated by `Term::eval` on each example, kept when within
    /// the height bound and new (syntactically new without examples).
    fn reference_layers(
        g: &Grammar,
        defs: &Definitions,
        examples: &[Env],
        cfg: &EnumConfig,
    ) -> Vec<Vec<Vec<Term>>> {
        let n = g.nonterminals().len();
        let max_height = cfg.max_height.unwrap_or(usize::MAX);
        let mut layers: Vec<Vec<Vec<Term>>> = vec![vec![Vec::new()]; n];
        let mut seen: Vec<HashSet<Vec<Option<Value>>>> = vec![HashSet::new(); n];
        for size in 1..=cfg.max_size {
            for nt in 0..n {
                let mut layer: Vec<Term> = Vec::new();
                for prod in &g.nonterminal(nt).productions {
                    for t in reference_expand(prod, size, &layers, &cfg.constant_pool) {
                        if t.height() > max_height {
                            continue;
                        }
                        let sig: Vec<Option<Value>> =
                            examples.iter().map(|env| t.eval(env, defs).ok()).collect();
                        let new = if examples.is_empty() {
                            !layer.contains(&t)
                        } else {
                            seen[nt].insert(sig)
                        };
                        if new {
                            layer.push(t);
                        }
                    }
                }
                layers[nt].push(layer);
            }
        }
        layers
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(256))]

        #[test]
        fn composed_signatures_match_tree_walking_reference(
            mask in 0u32..(1 << 13),
            points in proptest::collection::vec((0usize..8, 0usize..8), 0..4),
            max_size in 1usize..9,
            height in 0usize..5,
        ) {
            let g = random_grammar(mask);
            let defs = qm_defs();
            let examples: Vec<Env> = points
                .iter()
                .map(|&(i, j)| {
                    Env::from_pairs(
                        &[x_sym(), Symbol::new("y")],
                        &[Value::Int(PROP_VALUES[i]), Value::Int(PROP_VALUES[j])],
                    )
                })
                .collect();
            let cfg = EnumConfig {
                max_size,
                max_height: (height > 0).then_some(height),
                ..EnumConfig::default()
            };
            let expected = reference_layers(&g, &defs, &examples, &cfg);
            let mut e = TermEnumerator::new(&g, &defs, examples.clone(), cfg);
            for (nt, want) in expected.iter().enumerate() {
                for (size, want) in want.iter().enumerate().skip(1) {
                    let got = e.terms_of_nt_size(nt, size).to_vec();
                    proptest::prop_assert_eq!(&got, want, "nt {} size {}", nt, size);
                    let layer = &e.bank[nt][size];
                    for (j, t) in layer.terms.iter().enumerate() {
                        let (n, sig) = (examples.len(), layer.sig(j));
                        proptest::prop_assert_eq!(sig.len(), packed_len(n));
                        for (i, env) in examples.iter().enumerate() {
                            let walked = t.eval(env, &defs).ok();
                            proptest::prop_assert_eq!(value_at(sig, n, i), walked, "signature of {}", t);
                        }
                    }
                    for (t, &h) in layer.terms.iter().zip(&layer.heights) {
                        proptest::prop_assert_eq!(usize::from(h), t.height(), "height of {}", t);
                    }
                }
            }
        }
    }
}
