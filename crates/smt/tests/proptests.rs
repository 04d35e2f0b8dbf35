//! Property-based tests: arithmetic laws against `i128` references,
//! SAT-solver agreement with brute force, integer conjunctions against box
//! enumeration, and model soundness of the full SMT pipeline.

use proptest::prelude::*;
use smtkit::{BigInt, Lit, Rat, SatResult, SatSolver, SmtResult, SmtSolver};
use sygus_ast::{Definitions, Env, Symbol, Term, Value};

// ---------------------------------------------------------------------------
// BigInt vs i128
// ---------------------------------------------------------------------------

proptest! {
    #[test]
    fn bigint_add_matches_i128(a in any::<i64>(), b in any::<i64>()) {
        let expect = i128::from(a) + i128::from(b);
        prop_assert_eq!(&BigInt::from(a) + &BigInt::from(b), BigInt::from(expect));
    }

    #[test]
    fn bigint_mul_matches_i128(a in any::<i64>(), b in any::<i64>()) {
        let expect = i128::from(a) * i128::from(b);
        prop_assert_eq!(&BigInt::from(a) * &BigInt::from(b), BigInt::from(expect));
    }

    #[test]
    fn bigint_divrem_matches_i128(a in any::<i64>(), b in any::<i64>().prop_filter("nonzero", |b| *b != 0)) {
        let (q, r) = BigInt::from(a).div_rem(&BigInt::from(b));
        prop_assert_eq!(q, BigInt::from(i128::from(a) / i128::from(b)));
        prop_assert_eq!(r, BigInt::from(i128::from(a) % i128::from(b)));
    }

    #[test]
    fn bigint_floor_div_matches_i128(a in any::<i64>(), b in any::<i64>().prop_filter("nonzero", |b| *b != 0)) {
        let expect = i128::from(a).div_euclid(i128::from(b))
            + if i128::from(b) < 0 && i128::from(a).rem_euclid(i128::from(b)) != 0 { -1 } else { 0 };
        // div_euclid rounds toward -inf only for positive divisors; compute
        // floor directly instead:
        let fa = i128::from(a);
        let fb = i128::from(b);
        let mut fl = fa / fb;
        if fa % fb != 0 && ((fa < 0) != (fb < 0)) {
            fl -= 1;
        }
        let _ = expect;
        prop_assert_eq!(BigInt::from(a).div_floor(&BigInt::from(b)), BigInt::from(fl));
    }

    #[test]
    fn bigint_ordering_matches_i128(a in any::<i64>(), b in any::<i64>()) {
        prop_assert_eq!(BigInt::from(a).cmp(&BigInt::from(b)), a.cmp(&b));
    }

    #[test]
    fn bigint_display_matches_i128(a in any::<i64>(), b in any::<i64>()) {
        let big = &BigInt::from(a) * &BigInt::from(b);
        prop_assert_eq!(big.to_string(), (i128::from(a) * i128::from(b)).to_string());
    }

    #[test]
    fn bigint_gcd_divides_both(a in any::<i32>(), b in any::<i32>()) {
        let g = BigInt::from(i64::from(a)).gcd(&BigInt::from(i64::from(b)));
        if !g.is_zero() {
            prop_assert!((&BigInt::from(i64::from(a)) % &g).is_zero());
            prop_assert!((&BigInt::from(i64::from(b)) % &g).is_zero());
        } else {
            prop_assert_eq!(a, 0);
            prop_assert_eq!(b, 0);
        }
    }
}

// ---------------------------------------------------------------------------
// BigInt across its two representations
// ---------------------------------------------------------------------------
//
// A value in `i64` is stored inline and everything else in limbs, so the
// operands below straddle ±2^63 (the inline edge) and ±2^64 (the one-limb
// edge), and products of two of them give multi-limb values.

/// `i128` operands: `i64` draws, full-width draws, and small offsets around
/// the representation edges.
fn wide_i128() -> impl Strategy<Value = i128> {
    const EDGES: [i128; 6] = [
        1 << 63,
        -(1 << 63),
        1 << 64,
        -(1 << 64),
        i128::MAX,
        i128::MIN,
    ];
    prop_oneof![
        any::<i64>().prop_map(i128::from),
        (any::<i64>(), any::<u64>()).prop_map(|(hi, lo)| (i128::from(hi) << 64) | i128::from(lo)),
        (0..EDGES.len(), -3i64..=3).prop_map(|(k, off)| EDGES[k].saturating_add(i128::from(off))),
    ]
}

/// Values of up to four limbs: an `i128` operand, or a product of two.
fn multi_limb() -> impl Strategy<Value = BigInt> {
    prop_oneof![
        wide_i128().prop_map(BigInt::from),
        (wide_i128(), wide_i128()).prop_map(|(a, b)| &BigInt::from(a) * &BigInt::from(b)),
    ]
}

fn hash_of(v: &BigInt) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    v.hash(&mut h);
    h.finish()
}

/// `n = q·d + r` with `|r| < |d|` and `r` carrying the sign of `n`.
fn check_truncated_division(n: &BigInt, d: &BigInt) -> Result<(), TestCaseError> {
    let (q, r) = n.div_rem(d);
    prop_assert_eq!(&(&q * d) + &r, n.clone());
    prop_assert!(r.abs() < d.abs());
    prop_assert!(r.is_zero() || r.is_negative() == n.is_negative());
    let inexact = !r.is_zero();
    let floor = if inexact && n.is_negative() != d.is_negative() {
        &q - &BigInt::one()
    } else {
        q.clone()
    };
    let ceil = if inexact && n.is_negative() == d.is_negative() {
        &q + &BigInt::one()
    } else {
        q
    };
    prop_assert_eq!(n.div_floor(d), floor);
    prop_assert_eq!(n.div_ceil(d), ceil);
    Ok(())
}

proptest! {
    #[test]
    fn bigint_ring_ops_match_i128_across_the_edges(a in wide_i128(), b in wide_i128()) {
        let (x, y) = (BigInt::from(a), BigInt::from(b));
        let sum = &x + &y;
        let diff = &x - &y;
        let prod = &x * &y;
        if let Some(s) = a.checked_add(b) {
            prop_assert_eq!(&sum, &BigInt::from(s));
        }
        if let Some(d) = a.checked_sub(b) {
            prop_assert_eq!(&diff, &BigInt::from(d));
        }
        if let Some(p) = a.checked_mul(b) {
            prop_assert_eq!(&prod, &BigInt::from(p));
        }
        // Where the result leaves i128, check it through the inverse.
        prop_assert_eq!(&(&sum - &y), &x);
        prop_assert_eq!(&(&diff + &y), &x);
        if b != 0 {
            prop_assert_eq!(prod.div_rem(&y), (x.clone(), BigInt::zero()));
        }
        prop_assert_eq!(x.cmp(&y), a.cmp(&b));
        prop_assert_eq!(sum.cmp(&x), b.cmp(&0));
    }

    #[test]
    fn bigint_unary_ops_match_i128_across_the_edges(a in wide_i128()) {
        let x = BigInt::from(a);
        prop_assert_eq!(x.to_i64(), i64::try_from(a).ok());
        prop_assert_eq!(x.bits(), 128 - a.unsigned_abs().leading_zeros() as usize);
        prop_assert_eq!(x.to_string(), a.to_string());
        prop_assert_eq!(x.signum(), a.signum() as i32);
        match a.checked_neg() {
            Some(n) => {
                prop_assert_eq!(-&x, BigInt::from(n));
                prop_assert_eq!(x.abs(), BigInt::from(a.abs()));
            }
            None => {
                // i128::MIN: its negation and magnitude is 2^127.
                let two_127 = "170141183460469231731687303715884105728";
                prop_assert_eq!((-&x).to_string(), two_127);
                prop_assert_eq!(x.abs().to_string(), two_127);
            }
        }
        prop_assert_eq!(-(-x.clone()), x);
    }

    #[test]
    fn bigint_division_matches_i128_across_the_edges(
        a in wide_i128(),
        b in wide_i128().prop_filter("nonzero", |b| *b != 0),
    ) {
        let (x, y) = (BigInt::from(a), BigInt::from(b));
        if let (Some(q), Some(r)) = (a.checked_div(b), a.checked_rem(b)) {
            prop_assert_eq!(x.div_rem(&y), (BigInt::from(q), BigInt::from(r)));
            let adjust = i128::from(r != 0 && (r < 0) != (b < 0));
            prop_assert_eq!(x.div_floor(&y), BigInt::from(q - adjust));
            let adjust = i128::from(r != 0 && (r < 0) == (b < 0));
            prop_assert_eq!(x.div_ceil(&y), BigInt::from(q + adjust));
        }
        check_truncated_division(&x, &y)?;
    }

    #[test]
    fn bigint_gcd_matches_u128_euclid(a in wide_i128(), b in wide_i128()) {
        let (mut m, mut n) = (a.unsigned_abs(), b.unsigned_abs());
        while n != 0 {
            (m, n) = (n, m % n);
        }
        prop_assert_eq!(BigInt::from(a).gcd(&BigInt::from(b)).to_string(), m.to_string());
    }

    #[test]
    fn bigint_multi_limb_division_reconstructs(
        n in multi_limb(),
        d in multi_limb().prop_filter("nonzero", |d| !d.is_zero()),
    ) {
        check_truncated_division(&n, &d)?;
        let g = n.gcd(&d);
        prop_assert!(!g.is_negative());
        prop_assert!((&n % &g).is_zero() && (&d % &g).is_zero());
    }

    #[test]
    fn bigint_round_trip_through_limbs_is_canonical(
        v in any::<i64>(),
        big in multi_limb().prop_filter("outside i64", |b| b.to_i64().is_none()),
        probe in any::<i64>(),
    ) {
        let x = BigInt::from(v);
        let back = [
            &(&x + &big) - &big,
            &(&x - &big) + &big,
            &(&x * &big) / &big,
            &-(-(&x * &big)) / &big,
        ];
        for y in &back {
            prop_assert_eq!(y, &x);
            prop_assert_eq!(hash_of(y), hash_of(&x));
            prop_assert_eq!(y.to_i64(), Some(v));
            prop_assert_eq!(y.cmp(&BigInt::from(probe)), v.cmp(&probe));
            prop_assert_eq!(y.cmp(&big), x.cmp(&big));
        }
    }
}

#[test]
fn bigint_stays_within_four_words() {
    assert!(std::mem::size_of::<BigInt>() <= 32);
}

// ---------------------------------------------------------------------------
// Rat laws
// ---------------------------------------------------------------------------

fn rat_strategy() -> impl Strategy<Value = Rat> {
    (any::<i32>(), 1i32..1000).prop_map(|(n, d)| Rat::new(i64::from(n).into(), i64::from(d).into()))
}

proptest! {
    #[test]
    fn rat_add_commutes(a in rat_strategy(), b in rat_strategy()) {
        prop_assert_eq!(&a + &b, &b + &a);
    }

    #[test]
    fn rat_mul_distributes(a in rat_strategy(), b in rat_strategy(), c in rat_strategy()) {
        prop_assert_eq!(&a * &(&b + &c), &(&a * &b) + &(&a * &c));
    }

    #[test]
    fn rat_sub_then_add_roundtrips(a in rat_strategy(), b in rat_strategy()) {
        prop_assert_eq!(&(&a - &b) + &b, a);
    }

    #[test]
    fn rat_floor_ceil_bracket(a in rat_strategy()) {
        let fl = Rat::from(a.floor());
        let ce = Rat::from(a.ceil());
        prop_assert!(fl <= a && a <= ce);
        prop_assert!(&ce - &fl <= Rat::one());
    }

    #[test]
    fn rat_recip_of_nonzero(a in rat_strategy().prop_filter("nonzero", |a| !a.is_zero())) {
        prop_assert_eq!(&a * &a.recip(), Rat::one());
    }

    #[test]
    fn rat_integer_shortcuts_match_normalization(
        i in any::<i64>(),
        j in any::<i64>(),
        a in rat_strategy(),
    ) {
        // Every result must equal the one the general constructor
        // normalizes from the cross-multiplied parts.
        let general = |num: BigInt, den: &BigInt| Rat::new(num, den.clone());
        let (ri, rj) = (Rat::from(i), Rat::from(j));
        let (bi, bj) = (BigInt::from(i), BigInt::from(j));
        let (n, d) = (a.num(), a.den());
        prop_assert_eq!(&ri + &rj, general(&bi + &bj, &BigInt::one()));
        prop_assert_eq!(&ri - &rj, general(&bi - &bj, &BigInt::one()));
        prop_assert_eq!(&ri * &rj, general(&bi * &bj, &BigInt::one()));
        prop_assert_eq!(&ri + &a, general(&(&bi * d) + n, d));
        prop_assert_eq!(&a + &ri, general(n + &(&bi * d), d));
        prop_assert_eq!(&ri - &a, general(&(&bi * d) - n, d));
        prop_assert_eq!(&a - &ri, general(n - &(&bi * d), d));
        prop_assert_eq!(&ri * &a, general(&bi * n, d));
        prop_assert_eq!(ri.cmp(&rj), i.cmp(&j));
        prop_assert_eq!(ri.cmp(&a), (&bi * d).cmp(n));
    }
}

// ---------------------------------------------------------------------------
// SAT vs brute force
// ---------------------------------------------------------------------------

fn clause_strategy(nvars: u32) -> impl Strategy<Value = Vec<Lit>> {
    proptest::collection::vec((0..nvars, any::<bool>()), 1..=3)
        .prop_map(|lits| lits.into_iter().map(|(v, n)| Lit::new(v, n)).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn sat_matches_bruteforce(
        nvars in 2u32..8,
        clauses in proptest::collection::vec(clause_strategy(8), 1..24),
    ) {
        let clauses: Vec<Vec<Lit>> = clauses
            .into_iter()
            .map(|c| c.into_iter().map(|l| Lit::new(l.var() % nvars, l.is_neg())).collect())
            .collect();
        let mut brute_sat = false;
        'outer: for bits in 0u32..(1 << nvars) {
            for c in &clauses {
                if !c.iter().any(|l| ((bits >> l.var()) & 1 == 1) != l.is_neg()) {
                    continue 'outer;
                }
            }
            brute_sat = true;
            break;
        }
        let mut s = SatSolver::new();
        for _ in 0..nvars {
            s.new_var();
        }
        for c in &clauses {
            s.add_clause(c.clone());
        }
        match s.solve(None) {
            SatResult::Sat(m) => {
                prop_assert!(brute_sat);
                for c in &clauses {
                    prop_assert!(c.iter().any(|l| m[l.var() as usize] != l.is_neg()));
                }
            }
            SatResult::Unsat => prop_assert!(!brute_sat),
        }
    }
}

// ---------------------------------------------------------------------------
// Proof-logged SAT: every unsat answer carries a checkable refutation, every
// sat answer a model the trace's live clauses accept.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn sat_answers_are_certified(
        nvars in 2u32..8,
        clauses in proptest::collection::vec(clause_strategy(8), 1..24),
    ) {
        let clauses: Vec<Vec<Lit>> = clauses
            .into_iter()
            .map(|c| c.into_iter().map(|l| Lit::new(l.var() % nvars, l.is_neg())).collect())
            .collect();
        let mut s = SatSolver::new();
        s.enable_proof();
        for _ in 0..nvars {
            s.new_var();
        }
        for c in &clauses {
            s.add_clause(c.clone());
        }
        match s.solve(None) {
            SatResult::Unsat => {
                let stats = smtkit::check_refutation(s.proof_steps())
                    .expect("unsat trace must pass the DRAT checker");
                prop_assert_eq!(stats.inputs, clauses.len());
            }
            SatResult::Sat(m) => {
                prop_assert!(
                    smtkit::model_satisfies(s.proof_steps(), &m),
                    "model must satisfy every live traced clause"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Integer conjunctions vs box enumeration
// ---------------------------------------------------------------------------

/// A linear constraint `c₀·x₀ + c₁·x₁ ⋈ rhs` with `⋈` one of `≤`, `≥`,
/// `=` (0, 1, 2).
type LinCon = (Vec<i64>, u8, i64);

fn lincon_strategy(nvars: usize) -> impl Strategy<Value = LinCon> {
    (
        proptest::collection::vec(-3i64..=3, nvars),
        0u8..3,
        -6i64..=6,
    )
}

fn lin_var(v: usize) -> Term {
    Term::int_var(format!("q{v}").as_str())
}

fn lincon_term((coeffs, rel, rhs): &LinCon) -> Term {
    let lhs = coeffs
        .iter()
        .enumerate()
        .fold(Term::int(0), |sum, (v, &c)| {
            Term::add(sum, Term::scale(c, lin_var(v)))
        });
    match rel {
        0 => Term::le(lhs, Term::int(*rhs)),
        1 => Term::ge(lhs, Term::int(*rhs)),
        _ => Term::eq(lhs, Term::int(*rhs)),
    }
}

fn lincon_holds((coeffs, rel, rhs): &LinCon, point: &[i64]) -> bool {
    let sum: i64 = coeffs.iter().zip(point).map(|(c, x)| c * x).sum();
    match rel {
        0 => sum <= *rhs,
        1 => sum >= *rhs,
        _ => sum == *rhs,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn lia_matches_box_enumeration(
        cons in proptest::collection::vec(lincon_strategy(2), 1..6),
    ) {
        // Brute force over the box [-8, 8]^2; restrict the solver to the
        // same box so the answers are comparable. The conjunction goes
        // through the whole DPLL(T) loop, so integer-only infeasibility is
        // decided by its splits.
        let mut boxed: Vec<Term> = cons.iter().map(lincon_term).collect();
        for v in 0..2 {
            boxed.push(Term::ge(lin_var(v), Term::int(-8)));
            boxed.push(Term::le(lin_var(v), Term::int(8)));
        }
        let mut brute_sat = false;
        'outer: for x in -8i64..=8 {
            for y in -8i64..=8 {
                if cons.iter().all(|c| lincon_holds(c, &[x, y])) {
                    brute_sat = true;
                    break 'outer;
                }
            }
        }
        match SmtSolver::new().check(&Term::and(boxed)) {
            Ok(SmtResult::Sat(m)) => {
                prop_assert!(brute_sat, "solver sat but box has no solution");
                let point: Vec<i64> = (0..2)
                    .map(|v| {
                        let s = lin_var(v).as_var().expect("variable");
                        m.int(s).to_i64().expect("boxed model fits i64")
                    })
                    .collect();
                prop_assert!((-8..=8).contains(&point[0]) && (-8..=8).contains(&point[1]));
                for c in &cons {
                    prop_assert!(lincon_holds(c, &point), "model violates {:?}", c);
                }
            }
            Ok(SmtResult::Unsat) => prop_assert!(!brute_sat, "solver unsat but box has a solution"),
            Err(e) => prop_assert!(false, "no answer on a boxed conjunction: {}", e),
        }
    }
}

// ---------------------------------------------------------------------------
// Full SMT pipeline: random small formulas, model soundness + agreement with
// exhaustive evaluation over a box.
// ---------------------------------------------------------------------------

fn var_x() -> Term {
    Term::int_var("px")
}
fn var_y() -> Term {
    Term::int_var("py")
}

fn atom_strategy() -> impl Strategy<Value = Term> {
    (-3i64..=3, -3i64..=3, -5i64..=5, 0usize..5).prop_map(|(a, b, c, rel)| {
        let lhs = Term::add(
            Term::scale(a, var_x()),
            Term::add(Term::scale(b, var_y()), Term::int(c)),
        );
        let rhs = Term::int(0);
        match rel {
            0 => Term::le(lhs, rhs),
            1 => Term::lt(lhs, rhs),
            2 => Term::ge(lhs, rhs),
            3 => Term::gt(lhs, rhs),
            _ => Term::eq(lhs, rhs),
        }
    })
}

fn formula_strategy() -> impl Strategy<Value = Term> {
    let leaf = atom_strategy();
    leaf.prop_recursive(3, 16, 3, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 2..4).prop_map(Term::and),
            proptest::collection::vec(inner.clone(), 2..4).prop_map(Term::or),
            inner.clone().prop_map(Term::not),
            (inner.clone(), inner).prop_map(|(a, b)| Term::implies(a, b)),
        ]
    })
}

/// Brute force: whether `f` holds at some point of the box [-6,6]² over
/// `px`, `py`.
fn box_sat(f: &Term) -> bool {
    let defs = Definitions::new();
    (-6i64..=6).any(|x| {
        (-6i64..=6).any(|y| {
            let env = Env::from_pairs(
                &[Symbol::new("px"), Symbol::new("py")],
                &[Value::Int(x), Value::Int(y)],
            );
            f.eval(&env, &defs) == Ok(Value::Bool(true))
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]
    #[test]
    fn smt_agrees_with_box_enumeration(f in formula_strategy()) {
        // Constrain to a box so brute force is exact.
        let bounded = Term::and([
            f.clone(),
            Term::ge(var_x(), Term::int(-6)),
            Term::le(var_x(), Term::int(6)),
            Term::ge(var_y(), Term::int(-6)),
            Term::le(var_y(), Term::int(6)),
        ]);
        let defs = Definitions::new();
        let brute_sat = box_sat(&f);
        match SmtSolver::new().check(&bounded) {
            Ok(SmtResult::Sat(m)) => {
                prop_assert!(brute_sat, "solver sat, brute unsat: {}", f);
                let mut env = m.to_env().expect("boxed model fits i64");
                for s in ["px", "py"] {
                    if env.lookup(Symbol::new(s)).is_none() {
                        env.bind(Symbol::new(s), Value::Int(0));
                    }
                }
                prop_assert_eq!(bounded.eval(&env, &defs), Ok(Value::Bool(true)));
            }
            Ok(SmtResult::Unsat) => prop_assert!(!brute_sat, "solver unsat, brute sat: {}", f),
            Err(e) => prop_assert!(false, "solver error {e} on {}", f),
        }
    }
}

// ---------------------------------------------------------------------------
// Incremental sessions vs brute force: over randomized push/pop/assert
// scripts, a persistent session must give the same sat/unsat answer as box
// enumeration of the conjunction of the active assertions (every assertion
// is boxed to [-6,6]², so enumeration is exact), and its models must
// satisfy that conjunction under exact evaluation.
// ---------------------------------------------------------------------------

#[derive(Clone, Debug)]
enum ScriptOp {
    Push,
    Pop,
    Assert(Term),
    Check,
}

fn script_strategy() -> impl Strategy<Value = Vec<ScriptOp>> {
    // The vendored `prop_oneof` is unweighted; repetition biases the mix
    // toward assertions.
    let op = prop_oneof![
        Just(ScriptOp::Push),
        Just(ScriptOp::Pop),
        atom_strategy().prop_map(ScriptOp::Assert),
        atom_strategy().prop_map(ScriptOp::Assert),
        formula_strategy().prop_map(ScriptOp::Assert),
        Just(ScriptOp::Check),
        Just(ScriptOp::Check),
    ];
    proptest::collection::vec(op, 1..14)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn session_agrees_with_box_enumeration(script in script_strategy()) {
        use smtkit::{SmtConfig, SmtSession};

        let mut session = SmtSession::new(SmtConfig::default());
        // Reference scope stack maintained independently of the session.
        let mut stack: Vec<Vec<Term>> = vec![Vec::new()];
        let mut checks = script.iter().filter(|op| matches!(op, ScriptOp::Check)).count();
        for op in script {
            match op {
                ScriptOp::Push => {
                    session.push();
                    stack.push(Vec::new());
                }
                ScriptOp::Pop => {
                    session.pop();
                    if stack.len() > 1 {
                        stack.pop();
                    }
                }
                ScriptOp::Assert(t) => {
                    // Keep the problems box-bounded so every check is cheap.
                    let t = Term::and([
                        t,
                        Term::ge(var_x(), Term::int(-6)),
                        Term::le(var_x(), Term::int(6)),
                        Term::ge(var_y(), Term::int(-6)),
                        Term::le(var_y(), Term::int(6)),
                    ]);
                    session.assert_term(&t).expect("CLIA assertion");
                    stack.last_mut().unwrap().push(t);
                }
                ScriptOp::Check => {
                    checks -= 1;
                    let active = Term::and(stack.iter().flatten().cloned());
                    let incremental = session.check_sat().expect("session check");
                    prop_assert_eq!(
                        matches!(incremental, SmtResult::Sat(_)),
                        box_sat(&active),
                        "divergence at depth {} on {}",
                        session.depth(),
                        active
                    );
                    // Session models must satisfy the active conjunction
                    // under exact evaluation (beyond the built-in certifier).
                    if let SmtResult::Sat(m) = &incremental {
                        let mut env = m.to_env().expect("boxed model fits i64");
                        for s in ["px", "py"] {
                            if env.lookup(Symbol::new(s)).is_none() {
                                env.bind(Symbol::new(s), Value::Int(0));
                            }
                        }
                        prop_assert_eq!(
                            active.eval(&env, &Definitions::new()),
                            Ok(Value::Bool(true))
                        );
                    }
                }
            }
        }
        // Every script ends with a final agreement check even if the random
        // tail had none.
        if checks == 0 {
            let active = Term::and(stack.iter().flatten().cloned());
            let incremental = session.check_sat().expect("session check");
            prop_assert_eq!(
                matches!(incremental, SmtResult::Sat(_)),
                box_sat(&active),
                "final divergence on {}",
                active
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Difference logic vs simplex: over randomized assert/retract/push/pop
// scripts in the DL fragment, the two incremental theory engines must give
// the same verdict at every check; DL conflict cores must be independently
// unsat on a fresh simplex; and DL models must satisfy every active atom
// under exact i128 evaluation.
// ---------------------------------------------------------------------------

use smtkit::{DifferenceLogic, IncrementalLra, LinearAtom, TheorySolver};

/// One atom from the DL fragment over `nvars` integer variables.
fn dl_atom_strategy(nvars: usize) -> impl Strategy<Value = LinearAtom> {
    let v = 0..nvars;
    (v.clone(), 0..nvars, -8i64..=8, 0usize..4, any::<bool>()).prop_map(
        |(u, v, w, shape, is_eq)| {
            let coeffs = match shape {
                0 => vec![(u, 1i64)],
                1 => vec![(u, -1i64)],
                _ if u != v => {
                    if shape == 2 {
                        vec![(u, 1), (v, -1)]
                    } else {
                        vec![(u, -1), (v, 1)]
                    }
                }
                _ => vec![(u, 1)],
            };
            (coeffs, is_eq, w)
        },
    )
}

#[derive(Clone, Debug)]
enum DlOp {
    Assert(usize, bool),
    Retract(usize),
    Push,
    Pop,
    Check,
}

fn dl_script_strategy(natoms: usize) -> impl Strategy<Value = Vec<DlOp>> {
    let op = prop_oneof![
        (0..natoms, any::<bool>()).prop_map(|(i, p)| DlOp::Assert(i, p)),
        (0..natoms, any::<bool>()).prop_map(|(i, p)| DlOp::Assert(i, p)),
        (0..natoms, any::<bool>()).prop_map(|(i, p)| DlOp::Assert(i, p)),
        (0..natoms).prop_map(DlOp::Retract),
        Just(DlOp::Push),
        Just(DlOp::Pop),
        Just(DlOp::Check),
        Just(DlOp::Check),
    ];
    proptest::collection::vec(op, 1..24)
}

/// Exact evaluation of `atom` under `model` with the DL engine's negation
/// semantics: positive `e <= w` / `e == w`, negative `e >= w + 1`.
/// Negative equalities (disequalities) are not enforced by the partial
/// check, so callers skip them.
fn atom_holds(atom: &LinearAtom, polarity: bool, model: &[smtkit::BigInt]) -> bool {
    let (coeffs, is_eq, w) = atom;
    let mut sum = 0i128;
    for (var, c) in coeffs {
        let v = model[*var].to_i64().expect("small model");
        sum += i128::from(*c) * i128::from(v);
    }
    match (is_eq, polarity) {
        (false, true) => sum <= i128::from(*w),
        (false, false) => sum > i128::from(*w),
        (true, true) => sum == i128::from(*w),
        (true, false) => unreachable!("disequalities are skipped"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn dl_and_simplex_agree_on_dl_scripts(
        atoms in proptest::collection::vec(dl_atom_strategy(4), 1..10),
        script in dl_script_strategy(10),
    ) {
        const NVARS: usize = 4;
        let mut dl = DifferenceLogic::new(NVARS, &atoms);
        let mut lra = IncrementalLra::new(NVARS, &atoms);
        let mut depth = 0usize;
        for op in &script {
            match *op {
                DlOp::Assert(i, p) => {
                    if i < atoms.len() {
                        TheorySolver::assert_atom(&mut dl, i, p);
                        TheorySolver::assert_atom(&mut lra, i, p);
                    }
                }
                DlOp::Retract(i) => {
                    if i < atoms.len() {
                        TheorySolver::retract_atom(&mut dl, i);
                        TheorySolver::retract_atom(&mut lra, i);
                    }
                }
                DlOp::Push => {
                    TheorySolver::push(&mut dl);
                    TheorySolver::push(&mut lra);
                    depth += 1;
                }
                DlOp::Pop => {
                    if depth > 0 {
                        TheorySolver::pop(&mut dl);
                        TheorySolver::pop(&mut lra);
                        depth -= 1;
                    }
                }
                DlOp::Check => {
                    let dv = TheorySolver::check(&mut dl, 1_000_000, &mut || true)
                        .expect("dl budget");
                    let sv = TheorySolver::check(&mut lra, 1_000_000, &mut || true)
                        .expect("lra budget");
                    // Disequality detection differs in strength (the DL
                    // engine only sees directly pinned bounds), so exact
                    // agreement is only required without active diseqs.
                    let any_diseq = (0..atoms.len())
                        .any(|i| atoms[i].1 && TheorySolver::polarity(&dl, i) == Some(false));
                    if !any_diseq {
                        prop_assert_eq!(
                            dv.is_ok(),
                            sv.is_ok(),
                            "engines diverge: dl={:?} simplex={:?} atoms={:?}",
                            dv,
                            sv,
                            atoms
                        );
                    }
                    if let Err(core) = &dv {
                        // The DL conflict core must be unsat on its own,
                        // independently re-checked by a fresh simplex.
                        prop_assert!(!core.is_empty());
                        let mut fresh = IncrementalLra::new(NVARS, &atoms);
                        for &i in core {
                            let p = TheorySolver::polarity(&dl, i).expect("core atom asserted");
                            TheorySolver::assert_atom(&mut fresh, i, p);
                        }
                        let replay = TheorySolver::check(&mut fresh, 1_000_000, &mut || true)
                            .expect("core budget");
                        prop_assert!(
                            replay.is_err(),
                            "dl core {:?} not refuted by simplex; atoms={:?}",
                            core,
                            atoms
                        );
                        // And the engine's certificate must describe it.
                        let cert = TheorySolver::explain_conflict(&dl).expect("certificate");
                        prop_assert_eq!(&cert.atoms, core);
                    }
                    if dv.is_ok() {
                        // Exact model check: every active atom holds under
                        // the integral model (diseqs excepted — the partial
                        // check does not enforce them).
                        let model = TheorySolver::model(&dl);
                        prop_assert!(model.iter().all(Rat::is_integer), "{:?}", model);
                        let model: Vec<BigInt> = model.iter().map(Rat::floor).collect();
                        for (i, atom) in atoms.iter().enumerate() {
                            match TheorySolver::polarity(&dl, i) {
                                Some(false) if atom.1 => {}
                                Some(p) => prop_assert!(
                                    atom_holds(atom, p, &model),
                                    "model violates atom {} ({:?}, polarity {})",
                                    i,
                                    atom,
                                    p
                                ),
                                None => {}
                            }
                        }
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// End-to-end differential: on random boolean combinations of DL-fragment
// atoms, a solver pinned to the DL engine and one pinned to simplex must
// agree sat/unsat. Certification defaults on, so every unsat answer has
// been replayed through the DRAT checker (with `t`-tagged theory lemmas)
// and every sat answer model-checked before it reaches the assertion.
// ---------------------------------------------------------------------------

fn dl_term_atom() -> impl Strategy<Value = Term> {
    (0usize..3, 0usize..3, -6i64..=6, 0usize..4).prop_map(|(u, v, c, rel)| {
        let name = |i: usize| Term::int_var(["dx", "dy", "dz"][i]);
        let lhs = if u == v {
            name(u)
        } else {
            Term::sub(name(u), name(v))
        };
        let rhs = Term::int(c);
        match rel {
            0 => Term::le(lhs, rhs),
            1 => Term::lt(lhs, rhs),
            2 => Term::ge(lhs, rhs),
            _ => Term::eq(lhs, rhs),
        }
    })
}

fn dl_formula_strategy() -> impl Strategy<Value = Term> {
    let leaf = dl_term_atom();
    leaf.prop_recursive(3, 12, 3, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 2..4).prop_map(Term::and),
            proptest::collection::vec(inner.clone(), 2..4).prop_map(Term::or),
            inner.clone().prop_map(Term::not),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn solver_theory_dl_matches_simplex(f in dl_formula_strategy()) {
        use smtkit::{SmtConfig, TheorySelect};

        let dl = SmtSolver::with_config(SmtConfig {
            theory: TheorySelect::Auto,
            ..SmtConfig::default()
        });
        let simplex = SmtSolver::with_config(SmtConfig {
            theory: TheorySelect::Simplex,
            ..SmtConfig::default()
        });
        let a = dl.check(&f).expect("auto-dispatched solver");
        let b = simplex.check(&f).expect("simplex-pinned solver");
        prop_assert_eq!(
            matches!(a, SmtResult::Sat(_)),
            matches!(b, SmtResult::Sat(_)),
            "theory engines disagree on {}",
            f
        );
    }
}
