//! A general simplex solver for quantifier-free linear rational arithmetic,
//! in the style of Dutertre and de Moura's *A Fast Linear-Arithmetic Solver
//! for DPLL(T)*: variables carry optional lower/upper bounds, linear forms
//! are named by slack variables, and `check` repairs violated basic-variable
//! bounds by pivoting (with Bland's rule, so termination is guaranteed).

use crate::Rat;
use std::collections::BTreeMap;

/// Result of a simplex feasibility check.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimplexResult {
    /// The bounds are satisfiable; query values via [`Simplex::value`].
    Sat,
    /// The bounds are unsatisfiable.
    Unsat,
}

/// Which bound of a variable participates in an infeasibility explanation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BoundSide {
    /// The lower bound.
    Lower,
    /// The upper bound.
    Upper,
}

#[derive(Clone, Debug, Default)]
struct VarState {
    lower: Option<Rat>,
    upper: Option<Rat>,
    value: Rat,
    /// Index into `rows` if basic.
    row: Option<usize>,
}

#[derive(Clone, Debug)]
struct Row {
    basic: usize,
    /// Coefficients over *nonbasic* variables.
    coeffs: BTreeMap<usize, Rat>,
}

/// A simplex tableau over rational arithmetic.
///
/// # Examples
///
/// ```
/// use smtkit::{Rat, Simplex, SimplexResult};
/// // x + y >= 4, x - y >= 2, x <= 1  — unsat
/// let mut s = Simplex::new(2);
/// let s1 = s.add_row(&[(0, Rat::from(1)), (1, Rat::from(1))]);
/// let s2 = s.add_row(&[(0, Rat::from(1)), (1, Rat::from(-1))]);
/// s.set_lower(s1, Rat::from(4));
/// s.set_lower(s2, Rat::from(2));
/// s.set_upper(0, Rat::from(1));
/// assert_eq!(s.check(), SimplexResult::Unsat);
/// ```
#[derive(Clone, Debug)]
pub struct Simplex {
    vars: Vec<VarState>,
    rows: Vec<Row>,
    /// Lifetime pivot count across every check (search analytics).
    pivots_total: u64,
}

impl Simplex {
    /// Creates a tableau with `num_vars` unconstrained problem variables
    /// (ids `0..num_vars`).
    pub fn new(num_vars: usize) -> Simplex {
        Simplex {
            vars: (0..num_vars).map(|_| VarState::default()).collect(),
            rows: Vec::new(),
            pivots_total: 0,
        }
    }

    /// Lifetime pivots performed across every check on this tableau (a
    /// monotone work measure; budget-aborted checks still count theirs).
    pub fn pivots_total(&self) -> u64 {
        self.pivots_total
    }

    /// The total number of variables (problem + slack).
    pub fn num_vars(&self) -> usize {
        self.vars.len()
    }

    /// Appends a fresh unconstrained variable to a (possibly warm) tableau
    /// and returns its id. The variable starts nonbasic at value zero with
    /// no bounds, so the current basis, assignment, and all existing rows
    /// are untouched — incremental sessions use this to grow the problem
    /// between checks without rebuilding the tableau.
    pub fn add_var(&mut self) -> usize {
        let v = self.vars.len();
        self.vars.push(VarState::default());
        v
    }

    /// Introduces a slack variable `s = Σ coeffs` and returns its id. The
    /// coefficient list must mention only existing variables; mentions of
    /// basic variables are substituted by their row definitions.
    pub fn add_row(&mut self, coeffs: &[(usize, Rat)]) -> usize {
        let s = self.vars.len();
        self.vars.push(VarState::default());
        // Express the row over nonbasic variables only.
        let mut flat: BTreeMap<usize, Rat> = BTreeMap::new();
        for (v, c) in coeffs {
            if c.is_zero() {
                continue;
            }
            match self.vars[*v].row {
                Some(ri) => {
                    let inner: Vec<(usize, Rat)> = self.rows[ri]
                        .coeffs
                        .iter()
                        .map(|(&k, q)| (k, q.clone()))
                        .collect();
                    for (k, q) in inner {
                        let add = c * &q;
                        let e = flat.entry(k).or_insert_with(Rat::zero);
                        *e = &*e + &add;
                    }
                }
                None => {
                    let e = flat.entry(*v).or_insert_with(Rat::zero);
                    *e = &*e + c;
                }
            }
        }
        flat.retain(|_, c| !c.is_zero());
        // β(s) = Σ c_k β(x_k)
        let mut val = Rat::zero();
        for (k, c) in &flat {
            val = &val + &(c * &self.vars[*k].value);
        }
        self.vars[s].value = val;
        self.vars[s].row = Some(self.rows.len());
        self.rows.push(Row {
            basic: s,
            coeffs: flat,
        });
        s
    }

    /// Moves every nonbasic variable to the point of its bounds nearest
    /// zero and recomputes the basic ones, keeping basis and bounds: the
    /// next check repairs the assignment from there, as a fresh tableau
    /// would from the origin, instead of from wherever earlier checks left
    /// it.
    pub(crate) fn reset_assignment(&mut self) {
        for st in self.vars.iter_mut().filter(|st| st.row.is_none()) {
            st.value = match (&st.lower, &st.upper) {
                (Some(l), _) if l.is_positive() => l.clone(),
                (_, Some(u)) if u.is_negative() => u.clone(),
                _ => Rat::zero(),
            };
        }
        for ri in 0..self.rows.len() {
            let value = self.rows[ri]
                .coeffs
                .iter()
                .fold(Rat::zero(), |sum, (k, c)| {
                    &sum + &(c * &self.vars[*k].value)
                });
            let basic = self.rows[ri].basic;
            self.vars[basic].value = value;
        }
    }

    /// The current assignment of a variable.
    pub fn value(&self, v: usize) -> &Rat {
        &self.vars[v].value
    }

    /// Tightens the lower bound of `v` (keeps the stronger of old and new).
    pub fn set_lower(&mut self, v: usize, b: Rat) {
        let cur = &self.vars[v].lower;
        if cur.as_ref().is_none_or(|c| b > *c) {
            self.vars[v].lower = Some(b.clone());
            if self.vars[v].row.is_none() && self.vars[v].value < b {
                self.update_nonbasic(v, b);
            }
        }
    }

    /// Tightens the upper bound of `v`.
    pub fn set_upper(&mut self, v: usize, b: Rat) {
        let cur = &self.vars[v].upper;
        if cur.as_ref().is_none_or(|c| b < *c) {
            self.vars[v].upper = Some(b.clone());
            if self.vars[v].row.is_none() && self.vars[v].value > b {
                self.update_nonbasic(v, b);
            }
        }
    }

    /// Sets a nonbasic variable's value and propagates to dependent basics.
    fn update_nonbasic(&mut self, v: usize, newval: Rat) {
        let delta = &newval - &self.vars[v].value;
        if delta.is_zero() {
            return;
        }
        self.vars[v].value = newval;
        for row in &self.rows {
            if let Some(c) = row.coeffs.get(&v) {
                let b = row.basic;
                self.vars[b].value = &self.vars[b].value + &(c * &delta);
            }
        }
    }

    fn below_lower(&self, v: usize) -> bool {
        matches!(&self.vars[v].lower, Some(l) if self.vars[v].value < *l)
    }

    fn above_upper(&self, v: usize) -> bool {
        matches!(&self.vars[v].upper, Some(u) if self.vars[v].value > *u)
    }

    /// Pivot: make nonbasic `xj` basic in row `ri`, making the old basic
    /// variable nonbasic, then set the old basic variable to `target`.
    fn pivot_and_update(&mut self, ri: usize, xj: usize, target: Rat) {
        let xi = self.rows[ri].basic;
        debug_assert_eq!(
            self.vars[xi].row,
            Some(ri),
            "pivot row out of sync with its basic variable"
        );
        debug_assert!(
            self.vars[xj].row.is_none(),
            "entering variable must be nonbasic"
        );
        let aij = self.rows[ri].coeffs[&xj].clone();
        debug_assert!(!aij.is_zero(), "pivot coefficient must be nonzero");
        // θ = (target - β(xi)) / aij ; new β(xj) = β(xj) + θ
        let theta = &(&target - &self.vars[xi].value) / &aij;
        self.vars[xi].value = target;
        let new_xj_val = &self.vars[xj].value + &theta;
        self.vars[xj].value = new_xj_val;
        // Update other basic values that depend on xj.
        for (k, row) in self.rows.iter().enumerate() {
            if k == ri {
                continue;
            }
            if let Some(c) = row.coeffs.get(&xj) {
                let b = row.basic;
                self.vars[b].value = &self.vars[b].value + &(c * &theta);
            }
        }
        // Rewrite row ri: xi = Σ a_k x_k  ⇒  xj = (1/aij)·xi − Σ_{k≠j} (a_k/aij)·x_k
        let old: BTreeMap<usize, Rat> = std::mem::take(&mut self.rows[ri].coeffs);
        let inv = aij.recip();
        let mut newrow: BTreeMap<usize, Rat> = BTreeMap::new();
        newrow.insert(xi, inv.clone());
        for (k, c) in &old {
            if *k != xj {
                newrow.insert(*k, -&(&inv * c));
            }
        }
        self.rows[ri].basic = xj;
        self.rows[ri].coeffs = newrow.clone();
        self.vars[xj].row = Some(ri);
        self.vars[xi].row = None;
        // Substitute xj in all other rows.
        for k in 0..self.rows.len() {
            if k == ri {
                continue;
            }
            if let Some(c) = self.rows[k].coeffs.remove(&xj) {
                for (v, q) in &newrow {
                    let add = &c * q;
                    let e = self.rows[k].coeffs.entry(*v).or_insert_with(Rat::zero);
                    *e = &*e + &add;
                }
                self.rows[k].coeffs.retain(|_, q| !q.is_zero());
            }
        }
    }

    /// Checks feasibility of the current bounds.
    pub fn check(&mut self) -> SimplexResult {
        match self.check_explained() {
            Ok(()) => SimplexResult::Sat,
            Err(_) => SimplexResult::Unsat,
        }
    }

    /// Checks feasibility; on infeasibility returns the Farkas explanation:
    /// the set of variable bounds that jointly contradict (for a violated
    /// basic row, the basic variable's bound plus the blocking bound of
    /// every nonbasic variable in its row).
    pub fn check_explained(&mut self) -> Result<(), Vec<(usize, BoundSide)>> {
        self.check_budgeted(u64::MAX, &mut || true)
            .expect("an unlimited simplex check cannot give up")
    }

    /// [`Simplex::check_explained`] under a pivot budget: gives up (`None`)
    /// after `max_pivots` pivots, or when `poll` returns `false` (consulted
    /// every 64 pivots). Bland's rule guarantees termination, but on
    /// adversarial tableaus the rational coefficients can grow without
    /// bound, making each pivot arbitrarily expensive — this is the hook
    /// that keeps a single feasibility check from outliving the run's
    /// deadline. A `Some` answer is exact; `None` says nothing.
    pub fn check_budgeted(
        &mut self,
        max_pivots: u64,
        poll: &mut dyn FnMut() -> bool,
    ) -> Option<Result<(), Vec<(usize, BoundSide)>>> {
        // Immediately contradictory interval on any variable.
        for (v, st) in self.vars.iter().enumerate() {
            if let (Some(l), Some(u)) = (&st.lower, &st.upper) {
                if l > u {
                    return Some(Err(vec![(v, BoundSide::Lower), (v, BoundSide::Upper)]));
                }
            }
        }
        let mut pivots: u64 = 0;
        loop {
            if pivots >= max_pivots || (pivots.is_multiple_of(64) && !poll()) {
                return None;
            }
            pivots += 1;
            self.pivots_total += 1;
            // Bland's rule: smallest violated basic variable.
            let violated = self
                .rows
                .iter()
                .map(|r| r.basic)
                .filter(|&b| self.below_lower(b) || self.above_upper(b))
                .min();
            let Some(xi) = violated else {
                return Some(Ok(()));
            };
            let ri = self.vars[xi].row.expect("basic var has a row");
            if self.below_lower(xi) {
                let target = self.vars[xi].lower.clone().expect("violated lower");
                // Need to increase xi: find xj with (a>0, xj can increase) or
                // (a<0, xj can decrease); Bland: smallest xj.
                let xj = self.rows[ri]
                    .coeffs
                    .iter()
                    .filter(|(&j, c)| {
                        (c.is_positive() && !self.at_upper(j))
                            || (c.is_negative() && !self.at_lower(j))
                    })
                    .map(|(&j, _)| j)
                    .min();
                match xj {
                    Some(xj) => self.pivot_and_update(ri, xj, target),
                    None => {
                        // xi is stuck below its lower bound: every positive
                        // coefficient is at its upper bound, every negative
                        // one at its lower bound.
                        #[cfg(debug_assertions)]
                        {
                            // Farkas certificate: the row's maximum value
                            // under the blocking bounds still misses lb(xi).
                            let mut max = Rat::zero();
                            for (&j, c) in &self.rows[ri].coeffs {
                                let b = if c.is_positive() {
                                    self.vars[j].upper.clone()
                                } else {
                                    self.vars[j].lower.clone()
                                };
                                let b = b.expect("blocking bound must exist");
                                max = &max + &(c * &b);
                            }
                            let lb = self.vars[xi].lower.clone().expect("violated lower");
                            debug_assert!(
                                max < lb,
                                "lower-bound explanation is not a Farkas certificate"
                            );
                        }
                        let mut expl = vec![(xi, BoundSide::Lower)];
                        for (&j, c) in &self.rows[ri].coeffs {
                            expl.push((
                                j,
                                if c.is_positive() {
                                    BoundSide::Upper
                                } else {
                                    BoundSide::Lower
                                },
                            ));
                        }
                        return Some(Err(expl));
                    }
                }
            } else {
                let target = self.vars[xi].upper.clone().expect("violated upper");
                let xj = self.rows[ri]
                    .coeffs
                    .iter()
                    .filter(|(&j, c)| {
                        (c.is_positive() && !self.at_lower(j))
                            || (c.is_negative() && !self.at_upper(j))
                    })
                    .map(|(&j, _)| j)
                    .min();
                match xj {
                    Some(xj) => self.pivot_and_update(ri, xj, target),
                    None => {
                        #[cfg(debug_assertions)]
                        {
                            // Dual certificate: the row's minimum value under
                            // the blocking bounds still exceeds ub(xi).
                            let mut min = Rat::zero();
                            for (&j, c) in &self.rows[ri].coeffs {
                                let b = if c.is_positive() {
                                    self.vars[j].lower.clone()
                                } else {
                                    self.vars[j].upper.clone()
                                };
                                let b = b.expect("blocking bound must exist");
                                min = &min + &(c * &b);
                            }
                            let ub = self.vars[xi].upper.clone().expect("violated upper");
                            debug_assert!(
                                min > ub,
                                "upper-bound explanation is not a Farkas certificate"
                            );
                        }
                        let mut expl = vec![(xi, BoundSide::Upper)];
                        for (&j, c) in &self.rows[ri].coeffs {
                            expl.push((
                                j,
                                if c.is_positive() {
                                    BoundSide::Lower
                                } else {
                                    BoundSide::Upper
                                },
                            ));
                        }
                        return Some(Err(expl));
                    }
                }
            }
        }
    }

    /// The current bounds of `v`.
    pub fn bounds(&self, v: usize) -> (Option<&Rat>, Option<&Rat>) {
        (self.vars[v].lower.as_ref(), self.vars[v].upper.as_ref())
    }

    /// Overwrites the bounds of `v` without feasibility repair. Intended
    /// for *loosening* during backtracking: any assignment feasible for
    /// tighter bounds stays feasible for looser ones. Tightening through
    /// this method leaves the assignment possibly violating the new bound
    /// until the next [`Simplex::check`].
    pub fn set_bounds_raw(&mut self, v: usize, lower: Option<Rat>, upper: Option<Rat>) {
        self.vars[v].lower = lower;
        self.vars[v].upper = upper;
    }

    fn at_upper(&self, v: usize) -> bool {
        matches!(&self.vars[v].upper, Some(u) if self.vars[v].value >= *u)
    }

    fn at_lower(&self, v: usize) -> bool {
        matches!(&self.vars[v].lower, Some(l) if self.vars[v].value <= *l)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(n: i64) -> Rat {
        Rat::from(n)
    }

    fn rq(n: i64, d: i64) -> Rat {
        Rat::new(n.into(), d.into())
    }

    #[test]
    fn unconstrained_is_sat() {
        let mut s = Simplex::new(3);
        assert_eq!(s.check(), SimplexResult::Sat);
    }

    #[test]
    fn single_bounds() {
        let mut s = Simplex::new(1);
        s.set_lower(0, r(3));
        s.set_upper(0, r(5));
        assert_eq!(s.check(), SimplexResult::Sat);
        let v = s.value(0).clone();
        assert!(v >= r(3) && v <= r(5));
    }

    #[test]
    fn contradictory_interval() {
        let mut s = Simplex::new(1);
        s.set_lower(0, r(5));
        s.set_upper(0, r(3));
        assert_eq!(s.check(), SimplexResult::Unsat);
    }

    #[test]
    fn system_sat_with_witness() {
        // x + y <= 10, x >= 3, y >= 4
        let mut s = Simplex::new(2);
        let sum = s.add_row(&[(0, r(1)), (1, r(1))]);
        s.set_upper(sum, r(10));
        s.set_lower(0, r(3));
        s.set_lower(1, r(4));
        assert_eq!(s.check(), SimplexResult::Sat);
        let x = s.value(0).clone();
        let y = s.value(1).clone();
        assert!(x >= r(3));
        assert!(y >= r(4));
        assert!(&x + &y <= r(10));
        // slack equals the sum
        assert_eq!(s.value(sum), &(&x + &y));
    }

    #[test]
    fn system_unsat() {
        // x + y >= 4, x - y >= 2, x <= 1
        let mut s = Simplex::new(2);
        let p = s.add_row(&[(0, r(1)), (1, r(1))]);
        let q = s.add_row(&[(0, r(1)), (1, r(-1))]);
        s.set_lower(p, r(4));
        s.set_lower(q, r(2));
        s.set_upper(0, r(1));
        assert_eq!(s.check(), SimplexResult::Unsat);
    }

    #[test]
    fn pivot_budget_gives_up_instead_of_answering() {
        // The same system as `system_sat_with_witness`, which needs pivots
        // to repair: a zero-pivot budget must give up, not guess.
        let mut s = Simplex::new(2);
        let sum = s.add_row(&[(0, r(1)), (1, r(1))]);
        s.set_upper(sum, r(10));
        s.set_lower(0, r(3));
        s.set_lower(1, r(4));
        assert!(s.check_budgeted(0, &mut || true).is_none());
        // A cancelled poll gives up the same way.
        assert!(s.check_budgeted(u64::MAX, &mut || false).is_none());
        // With headroom the answer is exact and matches the unlimited path.
        assert_eq!(
            s.check_budgeted(u64::MAX, &mut || true),
            Some(Ok(()))
        );
    }

    #[test]
    fn equalities_via_two_bounds() {
        // x + 2y = 7, x - y = 1 → x = 3, y = 2
        let mut s = Simplex::new(2);
        let a = s.add_row(&[(0, r(1)), (1, r(2))]);
        let b = s.add_row(&[(0, r(1)), (1, r(-1))]);
        s.set_lower(a, r(7));
        s.set_upper(a, r(7));
        s.set_lower(b, r(1));
        s.set_upper(b, r(1));
        assert_eq!(s.check(), SimplexResult::Sat);
        assert_eq!(s.value(0), &r(3));
        assert_eq!(s.value(1), &r(2));
    }

    #[test]
    fn rational_solution() {
        // 2x = 1 → x = 1/2
        let mut s = Simplex::new(1);
        let a = s.add_row(&[(0, r(2))]);
        s.set_lower(a, r(1));
        s.set_upper(a, r(1));
        assert_eq!(s.check(), SimplexResult::Sat);
        assert_eq!(s.value(0), &rq(1, 2));
    }

    #[test]
    fn incremental_tightening_to_unsat() {
        let mut s = Simplex::new(2);
        let d = s.add_row(&[(0, r(1)), (1, r(-1))]);
        s.set_lower(d, r(0)); // x >= y
        assert_eq!(s.check(), SimplexResult::Sat);
        s.set_lower(1, r(10)); // y >= 10
        s.set_upper(0, r(5)); // x <= 5
        assert_eq!(s.check(), SimplexResult::Unsat);
    }

    #[test]
    fn row_mentioning_basic_var() {
        // Build s1 = x + y, make it basic via checking, then s2 = s1 + x must
        // still behave as 2x + y.
        let mut s = Simplex::new(2);
        let s1 = s.add_row(&[(0, r(1)), (1, r(1))]);
        s.set_lower(s1, r(2));
        assert_eq!(s.check(), SimplexResult::Sat);
        let s2 = s.add_row(&[(s1, r(1)), (0, r(1))]);
        s.set_upper(s2, r(3));
        s.set_lower(0, r(1));
        s.set_lower(1, r(1));
        assert_eq!(s.check(), SimplexResult::Sat);
        let x = s.value(0).clone();
        let y = s.value(1).clone();
        let two_x_plus_y = &(&x + &x) + &y;
        assert!(two_x_plus_y <= r(3));
        assert!(&x + &y >= r(2));
    }

    #[test]
    fn degenerate_zero_row() {
        // s = 0·x: the slack is constantly 0; bound 1 ≤ s is unsat.
        let mut s = Simplex::new(1);
        let z = s.add_row(&[]);
        s.set_lower(z, r(1));
        assert_eq!(s.check(), SimplexResult::Unsat);
    }

    #[test]
    fn many_constraints_feasible() {
        // Chain: x0 <= x1 <= ... <= x5, x0 >= 0, x5 <= 3
        let n = 6;
        let mut s = Simplex::new(n);
        for i in 0..n - 1 {
            let d = s.add_row(&[(i + 1, r(1)), (i, r(-1))]);
            s.set_lower(d, r(0));
        }
        s.set_lower(0, r(0));
        s.set_upper(n - 1, r(3));
        assert_eq!(s.check(), SimplexResult::Sat);
        for i in 0..n - 1 {
            assert!(s.value(i) <= s.value(i + 1), "chain order at {i}");
        }
    }
}
