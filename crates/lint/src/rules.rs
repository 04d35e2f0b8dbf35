//! The four synthlint rule passes.
//!
//! All passes run over the token stream from [`crate::lexer`] plus a light
//! structural model: function spans (by brace matching), `#[test]` /
//! `#[cfg(test)]` ranges, and a name-keyed call graph. The analyses are
//! deliberately over-approximate in the quiet direction — a rule stays silent
//! when any function sharing a name satisfies it — so a finding is a strong
//! signal while a clean run is a budget-friendly sanity check, not a proof.
//!
//! Rule catalogue (see DESIGN.md §12 for the rationale):
//!
//! * `unpolled-loop` (R1): a `loop`/`while` in the theory/enumeration/simplex
//!   modules whose condition+body reaches neither a budget-poll idiom nor a
//!   bounded-cap constant. This is the PR 5 bug class (BigInt equality
//!   reduction churning for minutes between polls).
//! * `lock-order` (R2): each function's direct mutex-acquisition sequence
//!   contributes adjacency edges to one global lock graph; any cross-lock
//!   cycle (an SCC of two or more locks) is a potential deadlock.
//!   Sequential re-acquisition of the same lock (`a → a`) is the normal
//!   drop-and-retake pattern and is ignored.
//! * `relaxed-handoff` (R3): an atomic field with an `Ordering::Relaxed`
//!   store that is touched from more than one function, at least one of them
//!   reachable from a `spawn` call site. Pure RMW/load statistic counters
//!   never fire — a Relaxed *store* is what loses increments or reorders
//!   against the data it publishes.
//! * `panic-surface` (R4): `unwrap`/`expect`/`panic!`-family macros/indexing
//!   in the daemon request path, which must answer `engine_fault` instead of
//!   dying.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

use crate::lexer::{lex, BadPragma, Pragma, Tok, TokKind};
use crate::report::{Finding, Level, LintRun, Suppressed};

/// One source file handed to the linter: a display path plus its text. The
/// path doubles as the scope key (rules match on path substrings), so tests
/// can exercise scoping with virtual paths.
#[derive(Debug, Clone)]
pub struct SourceFile {
    pub path: String,
    pub text: String,
}

impl SourceFile {
    pub fn new(path: impl Into<String>, text: impl Into<String>) -> SourceFile {
        SourceFile {
            path: path.into(),
            text: text.into(),
        }
    }
}

/// Budget-poll idioms recognized by R1. Matching is by exact identifier, so
/// `check_sorts` does not count as `check`.
const POLL_IDENTS: &[&str] = &[
    "poll",
    "poll_budget",
    "check_deadline",
    "check_budgeted",
    "solve_budgeted",
    "check",
    "exceeded",
    "is_cancelled",
    "is_exhausted",
    "interrupted",
    "charge_fuel",
    "charge_memory",
];

/// Path fragments that place a file in R1's theory/enumeration scope: the
/// search and theory loops whose iteration count depends on solver state.
/// Arithmetic kernels (`bigint.rs`, `rat.rs`) are out of scope — their loops
/// are bounded by operand width; the PR 5 blowup lived in the *theory* loop
/// that kept calling them with growing operands. The proof checker
/// (`drat.rs`) replays a finite trace and is likewise excluded.
const R1_SCOPE: &[&str] = &[
    "crates/smt/src/sat.rs",
    "crates/smt/src/simplex.rs",
    "crates/smt/src/inc_lra.rs",
    "crates/smt/src/theory.rs",
    "crates/smt/src/dl.rs",
    "crates/smt/src/session.rs",
    "crates/smt/src/solver.rs",
    "crates/enumerative/src",
];

/// Path fragments that place a file in R4's daemon request path.
const R4_SCOPE: &[&str] = &["crates/core/src/daemon", "bin/dryadsynthd.rs"];

const ATOMIC_METHODS: &[&str] = &[
    "store",
    "load",
    "swap",
    "fetch_add",
    "fetch_sub",
    "fetch_max",
    "fetch_min",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "fetch_update",
    "compare_exchange",
    "compare_exchange_weak",
];

/// Identifiers that cannot be call targets even when followed by `(`.
const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "return", "loop", "in", "as", "fn", "move", "let", "else",
    "mut", "ref", "dyn", "impl", "unsafe", "where", "await", "box", "pub", "use",
];

/// Function names too generic to carry poll credit through the name-merged
/// call graph: `Vec::new()` inside a loop must not inherit the polling of
/// some unrelated project `fn new`.
const GENERIC_FN_NAMES: &[&str] = &[
    "new", "default", "from", "clone", "into", "to_string", "fmt", "drop", "eq", "ne", "cmp",
    "partial_cmp", "hash", "build", "len", "get", "push", "pop", "insert", "remove", "next",
];

struct Func {
    name: String,
    #[allow(dead_code)] // kept for future rules that anchor on the signature
    line: u32,
    /// Token index of the body `{`.
    start: usize,
    /// Token index of the matching `}`.
    end: usize,
}

struct LoopSite {
    line: u32,
    /// Token range covering condition (for `while`) and body, inclusive.
    range: (usize, usize),
    is_while: bool,
    /// Condition token range for `while` loops.
    cond: Option<(usize, usize)>,
}

struct FileModel {
    path: String,
    toks: Vec<Tok>,
    pragmas: Vec<Pragma>,
    bad_pragmas: Vec<BadPragma>,
    funcs: Vec<Func>,
    loops: Vec<LoopSite>,
    /// Token ranges under `#[test]` / `#[cfg(test)]` items, inclusive.
    test_ranges: Vec<(usize, usize)>,
}

fn match_brace(toks: &[Tok], open: usize) -> Option<usize> {
    let mut depth = 0i64;
    for (i, t) in toks.iter().enumerate().skip(open) {
        match t.kind {
            TokKind::Punct('{') => depth += 1,
            TokKind::Punct('}') => {
                depth -= 1;
                if depth == 0 {
                    return Some(i);
                }
            }
            _ => {}
        }
    }
    None
}

fn in_ranges(idx: usize, ranges: &[(usize, usize)]) -> bool {
    ranges.iter().any(|&(a, b)| idx >= a && idx <= b)
}

fn build_model(file: &SourceFile) -> FileModel {
    let lexed = lex(&file.text);
    let toks = lexed.toks;

    // Function spans: `fn <name> ... {` with the first `{` outside parens
    // taken as the body. Trait signatures (`;` first) have no body.
    let mut funcs = Vec::new();
    for i in 0..toks.len() {
        if !toks[i].is_ident("fn") {
            continue;
        }
        let Some(name) = toks.get(i + 1).and_then(|t| t.ident()) else {
            continue; // `fn(i32)` pointer type
        };
        let mut paren = 0i64;
        let mut j = i + 2;
        let mut body = None;
        while j < toks.len() {
            match toks[j].kind {
                TokKind::Punct('(') | TokKind::Punct('[') => paren += 1,
                TokKind::Punct(')') | TokKind::Punct(']') => paren -= 1,
                TokKind::Punct('{') if paren == 0 => {
                    body = Some(j);
                    break;
                }
                TokKind::Punct(';') if paren == 0 => break,
                _ => {}
            }
            j += 1;
        }
        if let Some(open) = body {
            if let Some(close) = match_brace(&toks, open) {
                funcs.push(Func {
                    name: name.to_string(),
                    line: toks[i].line,
                    start: open,
                    end: close,
                });
            }
        }
    }

    // Test ranges: an attribute containing `test` (but not `not(test)`)
    // marks the next braced item as test-only.
    let mut test_ranges = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if toks[i].is_punct('#') {
            let mut j = i + 1;
            if toks.get(j).is_some_and(|t| t.is_punct('!')) {
                j += 1;
            }
            if toks.get(j).is_some_and(|t| t.is_punct('[')) {
                // Find the matching `]`.
                let mut depth = 0i64;
                let mut close = None;
                for (k, t) in toks.iter().enumerate().skip(j) {
                    match t.kind {
                        TokKind::Punct('[') => depth += 1,
                        TokKind::Punct(']') => {
                            depth -= 1;
                            if depth == 0 {
                                close = Some(k);
                                break;
                            }
                        }
                        _ => {}
                    }
                }
                if let Some(close) = close {
                    let attr = &toks[j..=close];
                    let has = |s: &str| attr.iter().any(|t| t.is_ident(s));
                    if has("test") && !has("not") {
                        // Skip over any further attributes, then take the
                        // first braced block as the test item body.
                        let mut k = close + 1;
                        let mut paren = 0i64;
                        while k < toks.len() {
                            match toks[k].kind {
                                TokKind::Punct('(') | TokKind::Punct('[') => paren += 1,
                                TokKind::Punct(')') | TokKind::Punct(']') => paren -= 1,
                                TokKind::Punct('{') if paren == 0 => {
                                    if let Some(end) = match_brace(&toks, k) {
                                        test_ranges.push((i, end));
                                        i = end;
                                    }
                                    break;
                                }
                                TokKind::Punct(';') if paren == 0 => break,
                                _ => {}
                            }
                            k += 1;
                        }
                    }
                    i = i.max(close);
                }
            }
        }
        i += 1;
    }

    // Loop sites.
    let mut loops = Vec::new();
    for i in 0..toks.len() {
        if toks[i].is_ident("loop") {
            if let Some(open) = toks.get(i + 1).filter(|t| t.is_punct('{')).map(|_| i + 1) {
                if let Some(end) = match_brace(&toks, open) {
                    loops.push(LoopSite {
                        line: toks[i].line,
                        range: (open, end),
                        is_while: false,
                        cond: None,
                    });
                }
            }
        } else if toks[i].is_ident("while") {
            let mut paren = 0i64;
            let mut j = i + 1;
            while j < toks.len() {
                match toks[j].kind {
                    TokKind::Punct('(') | TokKind::Punct('[') => paren += 1,
                    TokKind::Punct(')') | TokKind::Punct(']') => paren -= 1,
                    TokKind::Punct('{') if paren == 0 => break,
                    _ => {}
                }
                j += 1;
            }
            if j < toks.len() {
                if let Some(end) = match_brace(&toks, j) {
                    loops.push(LoopSite {
                        line: toks[i].line,
                        range: (i + 1, end),
                        is_while: true,
                        cond: Some((i + 1, j.saturating_sub(1))),
                    });
                }
            }
        }
    }

    FileModel {
        path: file.path.clone(),
        toks,
        pragmas: lexed.pragmas,
        bad_pragmas: lexed.bad_pragmas,
        funcs,
        loops,
        test_ranges,
    }
}

impl FileModel {
    /// Innermost function containing token index `idx`.
    fn enclosing_fn(&self, idx: usize) -> Option<&Func> {
        self.funcs
            .iter()
            .filter(|f| idx >= f.start && idx <= f.end)
            .min_by_key(|f| f.end - f.start)
    }

    fn is_test(&self, idx: usize) -> bool {
        in_ranges(idx, &self.test_ranges)
    }
}

/// Called identifiers in a token range: `name(` and `.name(` sites, macros
/// (`name!`) excluded.
fn called_names(toks: &[Tok], range: (usize, usize)) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for i in range.0..=range.1.min(toks.len().saturating_sub(1)) {
        let Some(name) = toks[i].ident() else { continue };
        if NON_CALL_KEYWORDS.contains(&name) {
            continue;
        }
        if toks.get(i + 1).is_some_and(|t| t.is_punct('(')) {
            out.insert(name.to_string());
        }
    }
    out
}

/// ALL_CAPS constant that names an explicit bound: `THEORY_PIVOT_CAP`,
/// `MAX_BRANCH_DEPTH`, `FLIGHT_RING_CAPACITY`... A bare `MAX` (as in
/// `u64::MAX`, often an "unbounded" sentinel) does not qualify.
fn is_cap_const(name: &str) -> bool {
    if !name.contains('_')
        || !name
            .chars()
            .all(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_')
    {
        return false;
    }
    ["CAP", "MAX", "LIMIT", "BUDGET", "BOUND", "FUEL", "STEPS", "DEPTH"]
        .iter()
        .any(|frag| name.contains(frag))
}

struct CallGraph {
    /// fn name -> union of called names, merged across same-named functions.
    calls: HashMap<String, BTreeSet<String>>,
    /// Names that poll a budget directly or transitively.
    polls: HashSet<String>,
    /// Names reachable (as callees) from any function containing `spawn`.
    thread_reachable: HashSet<String>,
}

fn build_call_graph(models: &[FileModel]) -> CallGraph {
    let mut calls: HashMap<String, BTreeSet<String>> = HashMap::new();
    let mut direct_poll: HashSet<String> = HashSet::new();
    let mut spawners: HashSet<String> = HashSet::new();
    for m in models {
        for f in &m.funcs {
            let entry = calls.entry(f.name.clone()).or_default();
            entry.extend(called_names(&m.toks, (f.start, f.end)));
            let mut has_spawn = false;
            for t in &m.toks[f.start..=f.end] {
                if let Some(id) = t.ident() {
                    if POLL_IDENTS.contains(&id) && !GENERIC_FN_NAMES.contains(&f.name.as_str()) {
                        direct_poll.insert(f.name.clone());
                    }
                    if id == "spawn" {
                        has_spawn = true;
                    }
                }
            }
            if has_spawn {
                spawners.insert(f.name.clone());
            }
        }
    }

    // Polls: direct pollers only — no transitive closure. The call graph is
    // name-merged (no receiver types), so a fixpoint saturates through
    // ubiquitous names like `new`/`push`/`from` and silences everything. One
    // call level covers the real helpers (the `check_budgeted` wrappers);
    // anything deeper takes a cap or a pragma.
    let polls = direct_poll;

    // Thread reachability: propagate from spawners down to callees.
    let mut thread_reachable = spawners;
    loop {
        let mut changed = false;
        let mut next = Vec::new();
        for name in &thread_reachable {
            if let Some(callees) = calls.get(name) {
                for c in callees {
                    if !thread_reachable.contains(c) {
                        next.push(c.clone());
                    }
                }
            }
        }
        for c in next {
            if thread_reachable.insert(c) {
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    CallGraph {
        calls,
        polls,
        thread_reachable,
    }
}

// ---------------------------------------------------------------------------
// Rule passes
// ---------------------------------------------------------------------------

fn r1_unpolled_loops(m: &FileModel, graph: &CallGraph, out: &mut Vec<Finding>) {
    if !R1_SCOPE.iter().any(|frag| m.path.contains(frag)) {
        return;
    }
    for lp in &m.loops {
        if m.is_test(lp.range.0) {
            continue;
        }
        // `while i < xs.len()` style scans are bounded by the collection.
        if lp.is_while {
            if let Some(cond) = lp.cond {
                let mut bounded = false;
                for i in cond.0..=cond.1.min(m.toks.len().saturating_sub(1)) {
                    if m.toks[i].is_ident("len") && i > 0 && m.toks[i - 1].is_punct('.') {
                        bounded = true;
                    }
                }
                if bounded {
                    continue;
                }
            }
        }
        let mut ok = false;
        for i in lp.range.0..=lp.range.1.min(m.toks.len().saturating_sub(1)) {
            if let Some(id) = m.toks[i].ident() {
                if POLL_IDENTS.contains(&id) || is_cap_const(id) {
                    ok = true;
                    break;
                }
            }
        }
        if !ok {
            let called = called_names(&m.toks, lp.range);
            ok = called.iter().any(|c| graph.polls.contains(c));
        }
        if !ok {
            let func = m.enclosing_fn(lp.range.0).map(|f| f.name.clone());
            out.push(Finding {
                rule: "unpolled-loop",
                level: Level::Error,
                file: m.path.clone(),
                line: lp.line,
                function: func,
                message: format!(
                    "{} reaches neither a budget poll ({}) nor a bounded-cap constant",
                    if lp.is_while { "`while` loop" } else { "`loop`" },
                    "poll/check_budgeted/check_deadline/..."
                ),
            });
        }
    }
}

fn r2_lock_order(models: &[FileModel], out: &mut Vec<Finding>) {
    // Edge set: (from, to) -> first acquisition site, deterministic by
    // (file, line) ordering of discovery over the sorted model list.
    let mut edges: BTreeMap<(String, String), (String, u32, String)> = BTreeMap::new();
    for m in models {
        for f in &m.funcs {
            let mut last: Option<String> = None;
            for i in f.start..=f.end {
                if m.is_test(i) {
                    continue;
                }
                // Direct acquisition at token i?
                if m.toks[i].is_ident("lock")
                    && m.toks.get(i + 1).is_some_and(|t| t.is_punct('('))
                    && i >= 2
                    && m.toks[i - 1].is_punct('.')
                {
                    if let Some(name) = m.toks[i - 2].ident() {
                        if let Some(prev) = &last {
                            if prev != name {
                                edges
                                    .entry((prev.clone(), name.to_string()))
                                    .or_insert_with(|| (m.path.clone(), m.toks[i].line, f.name.clone()));
                            }
                        }
                        last = Some(name.to_string());
                        continue;
                    }
                }
                // Calls between acquisitions are NOT lifted into edges: the
                // call graph is name-merged, and lifting through it welds
                // every lock into one spurious component. Direct
                // per-function sequences keep the graph honest; a real
                // cross-function inversion still shows up as a -> b in one
                // function and b -> a in another.
            }
        }
    }

    // Cycle detection: any strongly connected component with two or more
    // locks contains an acquisition cycle. SCCs keep the pass linear even on
    // dense call-lifted graphs, and one finding per component is the
    // actionable unit anyway — the fix is a global order for those locks.
    let mut nodes: BTreeSet<&str> = BTreeSet::new();
    for (from, to) in edges.keys() {
        nodes.insert(from);
        nodes.insert(to);
    }
    let index_of: BTreeMap<&str, usize> = nodes.iter().enumerate().map(|(i, n)| (*n, i)).collect();
    let names: Vec<&str> = nodes.iter().copied().collect();
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); names.len()];
    for (from, to) in edges.keys() {
        adj[index_of[from.as_str()]].push(index_of[to.as_str()]);
    }
    for scc in tarjan_sccs(&adj) {
        if scc.len() < 2 {
            continue;
        }
        let mut members: Vec<&str> = scc.iter().map(|&i| names[i]).collect();
        members.sort_unstable();
        // Anchor at the smallest in-component edge's acquisition site.
        let anchor = edges
            .iter()
            .find(|((from, to), _)| {
                members.contains(&from.as_str()) && members.contains(&to.as_str())
            })
            .map(|(_, site)| site.clone())
            .unwrap_or_default();
        let (file, line, func) = anchor;
        out.push(Finding {
            rule: "lock-order",
            level: Level::Error,
            file,
            line,
            function: Some(func),
            message: format!(
                "locks {{{}}} form an acquisition cycle (potential deadlock); pick one global order",
                members.join(", ")
            ),
        });
    }
}

/// Iterative Tarjan SCC. Returns components in a deterministic order
/// (sorted by their smallest node index).
fn tarjan_sccs(adj: &[Vec<usize>]) -> Vec<Vec<usize>> {
    let n = adj.len();
    let mut index = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0usize;
    let mut sccs: Vec<Vec<usize>> = Vec::new();
    // Explicit call stack: (node, child position).
    for root in 0..n {
        if index[root] != usize::MAX {
            continue;
        }
        let mut call: Vec<(usize, usize)> = vec![(root, 0)];
        while let Some(&(v, ci)) = call.last() {
            if ci == 0 {
                index[v] = next_index;
                low[v] = next_index;
                next_index += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            if ci < adj[v].len() {
                call.last_mut().expect("non-empty").1 += 1;
                let w = adj[v][ci];
                if index[w] == usize::MAX {
                    call.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                call.pop();
                if let Some(&(parent, _)) = call.last() {
                    low[parent] = low[parent].min(low[v]);
                }
                if low[v] == index[v] {
                    let mut comp = Vec::new();
                    while let Some(w) = stack.pop() {
                        on_stack[w] = false;
                        comp.push(w);
                        if w == v {
                            break;
                        }
                    }
                    comp.sort_unstable();
                    sccs.push(comp);
                }
            }
        }
    }
    sccs.sort_by_key(|c| c[0]);
    sccs
}

fn r3_relaxed_handoff(models: &[FileModel], graph: &CallGraph, out: &mut Vec<Finding>) {
    const ORDERINGS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];
    struct Site {
        method: String,
        relaxed: bool,
        func: String,
        file: String,
        line: u32,
    }
    let mut by_field: BTreeMap<String, Vec<Site>> = BTreeMap::new();
    let mut decls: BTreeMap<String, (String, u32)> = BTreeMap::new();
    for m in models {
        // Field declarations `name: AtomicFoo` give the finding its anchor.
        for i in 0..m.toks.len() {
            if let (Some(name), true) = (
                m.toks[i].ident(),
                m.toks.get(i + 1).is_some_and(|t| t.is_punct(':')),
            ) {
                if let Some(ty) = m.toks.get(i + 2).and_then(|t| t.ident()) {
                    if ty.starts_with("Atomic") {
                        decls
                            .entry(name.to_string())
                            .or_insert_with(|| (m.path.clone(), m.toks[i].line));
                    }
                }
            }
        }
        for i in 0..m.toks.len() {
            if m.is_test(i) {
                continue;
            }
            let Some(method) = m.toks[i].ident() else { continue };
            if !ATOMIC_METHODS.contains(&method) {
                continue;
            }
            if i < 2 || !m.toks[i - 1].is_punct('.') {
                continue;
            }
            let Some(field) = m.toks[i - 2].ident() else { continue };
            if !m.toks.get(i + 1).is_some_and(|t| t.is_punct('(')) {
                continue;
            }
            // Scan the argument list for an Ordering name; its presence is
            // what marks this as an atomic access rather than e.g. Vec::swap.
            let mut depth = 0i64;
            let mut ordering: Option<&str> = None;
            for t in m.toks.iter().skip(i + 1) {
                match &t.kind {
                    TokKind::Punct('(') => depth += 1,
                    TokKind::Punct(')') => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    TokKind::Ident(id) => {
                        if let Some(o) = ORDERINGS.iter().copied().find(|o| o == id) {
                            ordering.get_or_insert(o);
                        }
                    }
                    _ => {}
                }
            }
            let Some(ord) = ordering else { continue };
            let func = m
                .enclosing_fn(i)
                .map(|f| f.name.clone())
                .unwrap_or_else(|| "<top>".to_string());
            by_field.entry(field.to_string()).or_default().push(Site {
                method: method.to_string(),
                relaxed: ord == "Relaxed",
                func,
                file: m.path.clone(),
                line: m.toks[i].line,
            });
        }
    }

    for (field, sites) in &by_field {
        let Some(store) = sites
            .iter()
            .find(|s| s.relaxed && (s.method == "store" || s.method == "swap"))
        else {
            continue; // RMW/load-only statistic counters are allowed.
        };
        let funcs: BTreeSet<&str> = sites.iter().map(|s| s.func.as_str()).collect();
        if funcs.len() < 2 {
            continue; // Single-function use: no cross-thread handoff here.
        }
        if !funcs.iter().any(|f| graph.thread_reachable.contains(*f)) {
            continue;
        }
        let (file, line) = decls
            .get(field)
            .cloned()
            .unwrap_or_else(|| (store.file.clone(), store.line));
        let mut fn_list: Vec<&str> = funcs.iter().copied().collect();
        fn_list.truncate(4);
        out.push(Finding {
            rule: "relaxed-handoff",
            level: Level::Error,
            file,
            line,
            function: None,
            message: format!(
                "atomic field `{field}` has a Relaxed store in `{}` ({}:{}) and is accessed from {} function(s) ({}), at least one thread-reachable; document the handoff or strengthen the ordering",
                store.func,
                store.file,
                store.line,
                funcs.len(),
                fn_list.join(", "),
            ),
        });
    }
}

fn r4_panic_surface(m: &FileModel, out: &mut Vec<Finding>) {
    if !R4_SCOPE.iter().any(|frag| m.path.contains(frag)) {
        return;
    }
    const PANIC_MACROS: &[&str] = &[
        "panic",
        "unreachable",
        "todo",
        "unimplemented",
        "assert",
        "assert_eq",
        "assert_ne",
    ];
    let push = |out: &mut Vec<Finding>, m: &FileModel, i: usize, what: String| {
        let func = m.enclosing_fn(i).map(|f| f.name.clone());
        out.push(Finding {
            rule: "panic-surface",
            level: Level::Error,
            file: m.path.clone(),
            line: m.toks[i].line,
            function: func,
            message: format!("{what} in the daemon request path (must answer engine_fault, not die)"),
        });
    };
    for i in 0..m.toks.len() {
        if m.is_test(i) {
            continue;
        }
        let Some(id) = m.toks[i].ident() else { continue };
        let next_is = |c: char| m.toks.get(i + 1).is_some_and(|t| t.is_punct(c));
        let prev_is_dot = i > 0 && m.toks[i - 1].is_punct('.');
        if (id == "unwrap" || id == "expect") && prev_is_dot && next_is('(') {
            push(out, m, i, format!("`.{id}()`"));
        } else if PANIC_MACROS.contains(&id) && next_is('!') {
            push(out, m, i, format!("`{id}!`"));
        } else if next_is('[') && !NON_CALL_KEYWORDS.contains(&id) {
            push(out, m, i, format!("slice/index expression `{id}[..]`"));
        }
    }
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

/// Run all rule passes over `files` and apply suppression pragmas.
pub fn lint_sources(files: &[SourceFile]) -> LintRun {
    let mut sorted: Vec<&SourceFile> = files.iter().collect();
    sorted.sort_by(|a, b| a.path.cmp(&b.path));
    let models: Vec<FileModel> = sorted.into_iter().map(build_model).collect();
    let graph = build_call_graph(&models);

    let mut findings = Vec::new();
    for m in &models {
        r1_unpolled_loops(m, &graph, &mut findings);
        r4_panic_surface(m, &mut findings);
    }
    r2_lock_order(&models, &mut findings);
    r3_relaxed_handoff(&models, &graph, &mut findings);

    // Pragma application: a pragma suppresses findings for its rules on its
    // own line and the line directly below.
    let mut run = LintRun {
        files: models.len(),
        ..LintRun::default()
    };
    let mut used: HashSet<(usize, u32)> = HashSet::new(); // (model idx, pragma line)
    let model_idx: HashMap<&str, usize> = models
        .iter()
        .enumerate()
        .map(|(i, m)| (m.path.as_str(), i))
        .collect();
    for f in findings {
        let mi = model_idx.get(f.file.as_str()).copied();
        let pragma = mi.and_then(|i| {
            models[i]
                .pragmas
                .iter()
                .find(|p| {
                    (p.line == f.line || p.line + 1 == f.line)
                        && p.rules.iter().any(|r| r == f.rule)
                })
                .map(|p| (i, p))
        });
        match pragma {
            Some((i, p)) => {
                used.insert((i, p.line));
                run.suppressed.push(Suppressed {
                    reason: p.reason.clone(),
                    finding: f,
                });
            }
            None => run.findings.push(f),
        }
    }

    // Pragma hygiene: malformed pragmas are errors, unused ones warnings.
    for (i, m) in models.iter().enumerate() {
        for bp in &m.bad_pragmas {
            run.findings.push(Finding {
                rule: "pragma",
                level: Level::Error,
                file: m.path.clone(),
                line: bp.line,
                function: None,
                message: bp.message.clone(),
            });
        }
        for p in &m.pragmas {
            if !used.contains(&(i, p.line)) {
                run.findings.push(Finding {
                    rule: "pragma",
                    level: Level::Warning,
                    file: m.path.clone(),
                    line: p.line,
                    function: None,
                    message: format!(
                        "pragma allow({}) matches no finding; remove it or move it next to the site",
                        p.rules.join(", ")
                    ),
                });
            }
        }
    }

    run.sort();
    run
}

// Suppress an unused-field warning: `calls` is part of the graph's public
// face for future rules even though current passes use the derived sets.
impl CallGraph {
    #[allow(dead_code)]
    fn callees(&self, name: &str) -> Option<&BTreeSet<String>> {
        self.calls.get(name)
    }
}
