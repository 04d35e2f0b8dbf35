//! Core abstract syntax for the CLIA SyGuS reproduction of *Reconciling
//! Enumerative and Deductive Program Synthesis* (PLDI 2020).
//!
//! This crate provides:
//!
//! * [`Term`]: immutable, cheaply clonable CLIA terms with smart constructors,
//!   evaluation ([`Term::eval`]), substitution, and SMT-LIB printing;
//! * [`Grammar`]: expression grammars (Definition 2.6), including the
//!   built-in full-CLIA grammar [`Grammar::clia`] and membership testing;
//! * [`Problem`]: SyGuS problem instances (Definition 2.11) and invariant
//!   problems (Definition 2.13);
//! * [`LinearExpr`]/[`LinearAtom`]: canonical linear forms for the LIA
//!   encoder;
//! * simplification utilities ([`nnf`], [`simplify`]) and the SyGuS
//!   competition metrics used by the paper's evaluation ([`time_bucket`],
//!   [`size_bucket`]).
//!
//! # Example
//!
//! Build the `max2` term and evaluate it:
//!
//! ```
//! use sygus_ast::{Definitions, Env, Symbol, Term, Value};
//! let x = Term::int_var("x");
//! let y = Term::int_var("y");
//! let max2 = Term::ite(Term::ge(x.clone(), y.clone()), x, y);
//! let env = Env::from_pairs(
//!     &[Symbol::new("x"), Symbol::new("y")],
//!     &[Value::Int(3), Value::Int(8)],
//! );
//! assert_eq!(max2.eval(&env, &Definitions::new()), Ok(Value::Int(8)));
//! ```

#![warn(missing_docs)]

mod analysis;
mod grammar;
pub mod json;
mod linear;
mod metrics;
mod op;
mod print;
mod problem;
pub mod progress;
pub mod runtime;
mod simplify;
mod sort;
mod symbol;
mod term;
pub mod trace;
mod value;

pub use analysis::{
    lint_grammar, GrammarAnalysis, LintFinding, LintLevel, LintReport, SizeFeasibility,
};
pub use grammar::{GTerm, Grammar, GrammarFlavor, Nonterminal, NonterminalId};
pub use json::Json;
pub use linear::{LinearAtom, LinearExpr, NonlinearError};
pub use metrics::{
    faster_bucketed, latency_bucket, latency_bucket_bounds, median, size_bucket,
    smaller_bucketed, solution_size, time_bucket, value_bucket, value_bucket_bounds,
    LatencyBankSnapshot, LatencyHistogram, LatencySnapshot, ValueBankSnapshot, ValueHistogram,
    ValueSnapshot, LATENCY_BUCKETS, LATENCY_SUBBUCKET_BITS, SIZE_BUCKETS, TIME_BUCKETS,
    VALUE_BUCKETS, VALUE_SUBBUCKET_BITS,
};
pub use op::Op;
pub use print::{display_define_fun, is_sexpr_op};
pub use problem::{InvInfo, Problem, SynthFun};
pub use progress::{ProgressSnapshot, ProgressState};
pub use runtime::{Budget, BudgetError};
pub use simplify::{conjuncts, disjuncts, nnf, simplify};
pub use sort::{Sort, SortError};
pub use symbol::{interner_stats, InternerStats, Symbol};
pub use term::{eval_app, Definitions, EvalError, FuncDef, Term, TermNode};
pub use trace::{
    EventRing, GraphEvent, MetricsRegistry, MetricsSnapshot, Record, RestartEpisode,
    SearchRecord, Stage, StageSnapshot, Stamp, Tracer,
};
pub use value::{Env, Value};
