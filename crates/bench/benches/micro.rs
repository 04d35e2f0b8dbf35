//! Criterion micro-benchmarks for the substrate layers: the SMT solver (one
//! query, and a warm session refined example by example), the bottom-up
//! enumerator, and the fixed-height encoders.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use dryadsynth::{CliaTreeEncoding, ExamplePool, FixedHeightConfig, FixedHeightSolver};
use enum_synth::{EnumConfig, TermEnumerator};
use smtkit::{SmtConfig, SmtResult, SmtSession, SmtSolver};
use sygus_ast::{Definitions, Env, Grammar, Sort, Symbol, Term, Value};

fn bench_smt(c: &mut Criterion) {
    let x = Term::int_var("bx");
    let y = Term::int_var("by");
    // A conjunction of interval and relational constraints with one ite.
    let formula = Term::and([
        Term::ge(x.clone(), Term::int(-50)),
        Term::le(x.clone(), Term::int(50)),
        Term::eq(
            Term::ite(Term::ge(x.clone(), y.clone()), x.clone(), y.clone()),
            Term::int(17),
        ),
        Term::gt(Term::add(x.clone(), y.clone()), Term::int(3)),
    ]);
    c.bench_function("smt/sat_with_ite", |b| {
        b.iter(|| {
            let r = SmtSolver::new().check(&formula).expect("ok");
            assert!(matches!(r, SmtResult::Sat(_)));
        })
    });
    let valid = Term::ge(
        Term::ite(Term::ge(x.clone(), y.clone()), x.clone(), y.clone()),
        y.clone(),
    );
    c.bench_function("smt/validity_max_ge", |b| {
        b.iter(|| {
            assert!(SmtSolver::new().is_valid(&valid).expect("ok"));
        })
    });
}

fn bench_smt_session(c: &mut Criterion) {
    // The fixed-height loop's synthesis query for max3 at height 3: the
    // template `ite(g1, x, ite(g2, y, z))` with linear guards
    // `g = k0·x + k1·y + k2·z + k3 ≥ 0` over unknown coefficients, asserted
    // one example instance at a time in one warm session under a
    // coefficient-bound scope, with a re-check after each instance.
    let unknowns = |prefix: &str| -> Vec<Term> {
        (0..4)
            .map(|i| Term::int_var(format!("{prefix}{i}").as_str()))
            .collect()
    };
    let (g1, g2) = (unknowns("sg"), unknowns("sh"));
    let guard = |k: &[Term], e: [i64; 3]| {
        let terms = e.iter().zip(k).map(|(&v, k)| Term::scale(v, k.clone()));
        Term::ge(Term::sum(terms.chain([k[3].clone()])), Term::int(0))
    };
    let instance = |e: [i64; 3]| {
        let out = Term::ite(
            guard(&g1, e),
            Term::int(e[0]),
            Term::ite(guard(&g2, e), Term::int(e[1]), Term::int(e[2])),
        );
        Term::eq(out, Term::int(e.into_iter().max().expect("three values")))
    };
    let bounds = Term::and(g1.iter().chain(&g2).flat_map(|k| {
        [
            Term::ge(k.clone(), Term::int(-4)),
            Term::le(k.clone(), Term::int(4)),
        ]
    }));
    let examples: Vec<Term> = [
        [3, -1, 2],
        [-2, 5, 0],
        [1, 1, 7],
        [0, -3, -3],
        [6, 2, 5],
        [-5, -4, -1],
        [2, 9, 4],
        [8, -7, 3],
    ]
    .into_iter()
    .map(instance)
    .collect();
    c.bench_function("smt/session_refine_max3_8_examples", |b| {
        b.iter(|| {
            let mut session = SmtSession::new(SmtConfig::default());
            session.push();
            session.assert_term(&bounds).expect("linear");
            for example in &examples {
                session.assert_term(example).expect("linear");
                let r = session.check_sat().expect("decided");
                assert!(matches!(r, SmtResult::Sat(_)));
            }
        })
    });
}

fn bench_enumeration(c: &mut Criterion) {
    let x = Symbol::new("ex");
    let y = Symbol::new("ey");
    let g = Grammar::clia(&[(x, Sort::Int), (y, Sort::Int)], Sort::Int);
    let defs = Definitions::new();
    let examples = vec![
        Env::from_pairs(&[x, y], &[Value::Int(3), Value::Int(-2)]),
        Env::from_pairs(&[x, y], &[Value::Int(-1), Value::Int(7)]),
    ];
    c.bench_function("enum/clia_size_5", |b| {
        b.iter_batched(
            || TermEnumerator::new(&g, &defs, examples.clone(), EnumConfig::default()),
            |mut e| {
                let n = e.terms_of_size(5).len();
                assert!(n > 0);
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_encoding(c: &mut Criterion) {
    let params = [Symbol::new("k0"), Symbol::new("k1")];
    c.bench_function("encode/clia_tree_h3_interpret", |b| {
        b.iter(|| {
            let enc = CliaTreeEncoding::new(3, &params, Sort::Int);
            let t = enc.interpret(&[5, -3]);
            assert!(t.size() > 10);
        })
    });
}

fn bench_fixed_height(c: &mut Criterion) {
    let p = sygus_parser::parse_problem(
        "(set-logic LIA)(synth-fun f ((x Int)) Int)(declare-var x Int)\
         (constraint (= (f x) (+ x 3)))(check-synth)",
    )
    .expect("parses");
    c.bench_function("fixed_height/identity_plus_3", |b| {
        b.iter(|| {
            let solver = FixedHeightSolver::new(FixedHeightConfig::default());
            let pool = ExamplePool::default();
            let r = solver.solve_at_height(&p, 1, &pool);
            assert!(matches!(r, dryadsynth::FixedHeightResult::Solved(_)));
        })
    });
}

criterion_group!(
    benches,
    bench_smt,
    bench_smt_session,
    bench_enumeration,
    bench_encoding,
    bench_fixed_height
);
criterion_main!(benches);
