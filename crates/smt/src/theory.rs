//! The pluggable theory-solver seam: a common trait over the incremental
//! theory engines consulted during DPLL(T) search, plus the selection knob
//! that picks between them.
//!
//! Two engines implement [`TheorySolver`] today:
//!
//! * [`IncrementalLra`](crate::IncrementalLra) — the general warm-tableau
//!   rational simplex (sound for conflicts, incomplete for integer
//!   satisfiability, which the authoritative branch-and-bound full-model
//!   check covers);
//! * [`DifferenceLogic`](crate::DifferenceLogic) — a specialized
//!   constraint-graph engine for the difference-logic fragment
//!   (`x - y ⋈ c`, unary bounds included), exact over the integers via
//!   negative-cycle detection.
//!
//! A fragment detector ([`fits_dl`]) over the purified, canonicalized atoms
//! picks the DL engine when every atom fits the fragment; anything else
//! falls back to simplex. [`TheorySelect`] overrides the choice per
//! configuration, with a process-wide default settable from CLI flags.

use crate::inc_lra::LinearAtom;
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
/// engine use [`SmtConfigBuilder::theory`](crate::SmtConfigBuilder::theory)
/// instead (tests must: the process default is shared across threads).
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
///   a step budget. `None` means the budget (or `poll`) ran out and the
///   caller must fall back to its authoritative full-model check;
///   `Some(Err(core))` is a conflict with the asserted atom indices of an
///   inconsistent subset;
/// * [`push`](TheorySolver::push) / [`pop`](TheorySolver::pop) bracket
///   assertion state (aligned with [`SmtSession`](crate::SmtSession)
///   selector scopes and with disequality splitting in full checks): `pop`
///   restores every atom's asserted polarity to its state at the matching
///   `push`.
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
