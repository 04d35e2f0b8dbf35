//! `smtkit`: a from-scratch SMT solver for quantifier-free conditional
//! linear integer arithmetic (QF_LIA), serving as the "background decision
//! procedure" (Definition 2.2) of the DryadSynth reproduction.
//!
//! Layers, bottom-up:
//!
//! * [`BigInt`] / [`Rat`]: exact arbitrary-precision arithmetic;
//! * [`SatSolver`]: a CDCL SAT core;
//! * [`Simplex`]: general simplex over the rationals;
//! * [`IncrementalLra`] / [`DifferenceLogic`]: the incremental theory
//!   engines behind the [`TheorySolver`] seam;
//! * [`SmtSession`]: the lazy DPLL(T) loop tying it together — a persistent
//!   solver with `push`/`pop` assertion scopes that retains learned clauses,
//!   the encoding cache, and the warm theory engine across queries, and
//!   makes the engine integer-complete by splitting on demand;
//! * [`SmtSolver`]: the one-shot [`Term`](sygus_ast::Term)-level API over a
//!   fresh session per query: satisfiability checking with model extraction
//!   and validity checking with counterexamples.

#![warn(missing_docs)]

mod bigint;
mod dl;
pub mod drat;
mod inc_lra;
#[cfg(test)]
#[path = "lia_tests.rs"]
mod lia;
mod rat;
mod sat;
pub mod search;
mod session;
mod simplex;
mod solver;
pub mod theory;

pub use bigint::BigInt;
pub use dl::DifferenceLogic;
pub use drat::{check_refutation, drat_text, model_satisfies, DratError, DratStats, ProofStep};
pub use inc_lra::{IncrementalLra, LinearAtom};
pub use rat::Rat;
pub use sat::{
    Lit, RestartEpisode, SatResult, SatSolver, SearchInterval, TheoryView, Var,
    SEARCH_SAMPLE_CONFLICTS,
};
pub use search::drain_search;
pub use session::SmtSession;
pub use simplex::{BoundSide, Simplex, SimplexResult};
pub use solver::{Model, SmtConfig, SmtError, SmtResult, SmtSolver, Validity};
pub use theory::{
    fits_dl, process_default_theory, set_process_default_theory, TheoryCertificate, TheorySelect,
    TheorySolver,
};
// The shared resource-governance handle (defined next to the AST so every
// layer can use it without a dependency cycle).
pub use sygus_ast::runtime::{Budget, BudgetError};
