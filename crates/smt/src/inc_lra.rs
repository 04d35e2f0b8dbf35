//! Incremental linear *rational* arithmetic for DPLL(T) partial checks.
//!
//! One simplex tableau is built per query with a slack variable per
//! distinct linear form; asserting an atom literal just (un)tightens a
//! bound on its slack, and feasibility repair is a handful of pivots.
//! Infeasibility comes back with a Farkas explanation mapped to the
//! asserted atom literals — the learned clause.
//!
//! Rational reasoning under-approximates integer infeasibility (rational-
//! unsat implies integer-unsat, never the converse), so every conflict
//! reported here is sound. Integer completeness comes from the session's
//! final check, which reads the rational point ([`TheorySolver::model`])
//! and splits on demand: a fractional variable becomes a fresh bound atom
//! for the SAT core to decide. Disequalities (negated equalities) only
//! conflict here when the bounds pin their form to the forbidden value.

use crate::simplex::BoundSide;
use crate::theory::{TheoryCertificate, TheorySolver};
use crate::{Rat, Simplex};
use std::collections::{BTreeMap, HashMap};

/// A theory atom as a `(coeffs, is_eq, rhs)` triple: the sparse linear
/// form `Σ coeff·var`, whether the relation is `=` (else `≤`), and the
/// right-hand side.
pub type LinearAtom = (Vec<(usize, i64)>, bool, i64);

/// One trail record: an atom index and its pre-frame polarity.
type TrailEntry = (usize, Option<bool>);

/// An atom in slack form: `linear form ⋈ rhs`, referencing a registered
/// slack variable.
#[derive(Clone, Debug)]
struct SlackAtom {
    slack: usize,
    is_eq: bool,
    rhs: i64,
}

/// Per-variable bookkeeping of the active asserted bounds: values with
/// multiplicity, plus the atom that currently justifies the effective
/// (tightest) bound.
#[derive(Clone, Debug, Default)]
struct ActiveBounds {
    /// value → asserting atom ids (multiplicity = length)
    lowers: BTreeMap<i64, Vec<usize>>,
    uppers: BTreeMap<i64, Vec<usize>>,
}

/// The incremental rational theory state for one SMT query — or, via
/// [`IncrementalLra::add_var`]/[`IncrementalLra::add_atom`], a warm tableau
/// grown across the queries of a persistent session: new variables and
/// linear forms are appended in place, keeping the current basis and pivot
/// work from earlier checks.
#[derive(Clone, Debug)]
pub struct IncrementalLra {
    sx: Simplex,
    /// Problem-variable index → simplex variable id. Identity for variables
    /// present at construction; variables added later land *after* existing
    /// slack variables, so the indirection keeps caller-facing indices dense.
    var_ids: Vec<usize>,
    /// Canonical (sorted, problem-indexed) linear form → shared slack id.
    slack_of: HashMap<Vec<(usize, i64)>, usize>,
    atoms: Vec<SlackAtom>,
    active: HashMap<usize, ActiveBounds>,
    /// Atom literals currently asserted: `asserted[atom] = Some(polarity)`.
    asserted: Vec<Option<bool>>,
    /// Open trail frames for [`TheorySolver::push`]/[`TheorySolver::pop`]:
    /// each records the pre-frame polarity of atoms first touched inside it.
    /// Empty (and cost-free) for callers that never push.
    frames: Vec<(u64, Vec<TrailEntry>)>,
    /// Monotone frame counter; ids are never reused so stale stamps cannot
    /// alias a reopened frame.
    next_frame: u64,
    /// `stamp[atom]`: id of the frame that already recorded this atom.
    stamp: Vec<u64>,
    /// Certificate of the most recent conflict from
    /// [`check_budgeted`](IncrementalLra::check_budgeted).
    last_conflict: Option<TheoryCertificate>,
}

impl IncrementalLra {
    /// Builds the state for `atoms`, each a `(coeffs, is_eq, rhs)` triple
    /// over variables indexed `0..num_vars`. Linear forms are shared.
    pub fn new(num_vars: usize, atoms: &[LinearAtom]) -> IncrementalLra {
        let mut st = IncrementalLra {
            sx: Simplex::new(num_vars),
            var_ids: (0..num_vars).collect(),
            slack_of: HashMap::new(),
            atoms: Vec::with_capacity(atoms.len()),
            active: HashMap::new(),
            asserted: Vec::with_capacity(atoms.len()),
            frames: Vec::new(),
            next_frame: 0,
            stamp: Vec::with_capacity(atoms.len()),
            last_conflict: None,
        };
        for atom in atoms {
            st.add_atom(atom);
        }
        st
    }

    /// Appends a fresh problem variable and returns its (dense) index.
    /// Safe mid-session: the warm simplex state is untouched.
    pub fn add_var(&mut self) -> usize {
        let id = self.sx.add_var();
        self.var_ids.push(id);
        self.var_ids.len() - 1
    }

    /// The number of problem variables (excluding internal slacks).
    pub fn num_problem_vars(&self) -> usize {
        self.var_ids.len()
    }

    /// The number of registered atoms.
    pub fn num_atoms(&self) -> usize {
        self.atoms.len()
    }

    /// Registers a new atom over already-added variables and returns its
    /// index. Linear forms are shared with all earlier atoms; a genuinely
    /// new form grows the warm tableau by one slack row in place.
    pub fn add_atom(&mut self, atom: &LinearAtom) -> usize {
        let (coeffs, is_eq, rhs) = atom;
        let mut canon = coeffs.clone();
        canon.sort();
        let slack = match self.slack_of.get(&canon) {
            Some(&s) => s,
            None => {
                let parts: Vec<(usize, Rat)> = canon
                    .iter()
                    .map(|&(v, c)| (self.var_ids[v], Rat::from(c)))
                    .collect();
                let s = self.sx.add_row(&parts);
                self.slack_of.insert(canon, s);
                s
            }
        };
        self.atoms.push(SlackAtom {
            slack,
            is_eq: *is_eq,
            rhs: *rhs,
        });
        self.asserted.push(None);
        self.stamp.push(u64::MAX);
        self.atoms.len() - 1
    }

    /// Records `idx`'s pre-change polarity in the innermost open frame
    /// (first touch per frame only; a no-op with no frame open).
    fn note(&mut self, idx: usize) {
        if let Some((id, entries)) = self.frames.last_mut() {
            if self.stamp[idx] != *id {
                self.stamp[idx] = *id;
                entries.push((idx, self.asserted[idx]));
            }
        }
    }

    /// Asserts atom `idx` with the given polarity. Positive `e ≤ r` adds an
    /// upper bound, negative adds the lower bound `e ≥ r+1`; equalities add
    /// both bounds positively and are ignored when negated (disequality).
    pub fn assert_atom(&mut self, idx: usize, polarity: bool) {
        if self.asserted[idx] == Some(polarity) {
            return;
        }
        self.note(idx);
        self.apply_assert(idx, polarity);
    }

    /// Asserts without recording a trail entry (shared by the public
    /// assert and pop's replay).
    fn apply_assert(&mut self, idx: usize, polarity: bool) {
        if self.asserted[idx].is_some() {
            self.apply_retract(idx);
        }
        self.asserted[idx] = Some(polarity);
        let atom = self.atoms[idx].clone();
        match (atom.is_eq, polarity) {
            (false, true) => self.add_bound(atom.slack, BoundSide::Upper, atom.rhs, idx),
            (false, false) => self.add_bound(
                atom.slack,
                BoundSide::Lower,
                atom.rhs.saturating_add(1),
                idx,
            ),
            (true, true) => {
                self.add_bound(atom.slack, BoundSide::Upper, atom.rhs, idx);
                self.add_bound(atom.slack, BoundSide::Lower, atom.rhs, idx);
            }
            (true, false) => {} // disequality: not representable as a bound
        }
    }

    /// Retracts atom `idx` (no-op if not asserted).
    pub fn retract_atom(&mut self, idx: usize) {
        if self.asserted[idx].is_none() {
            return;
        }
        self.note(idx);
        self.apply_retract(idx);
    }

    /// Retracts without recording a trail entry (shared by the public
    /// retract and pop's replay).
    fn apply_retract(&mut self, idx: usize) {
        let Some(polarity) = self.asserted[idx].take() else {
            return;
        };
        let atom = self.atoms[idx].clone();
        match (atom.is_eq, polarity) {
            (false, true) => self.remove_bound(atom.slack, BoundSide::Upper, atom.rhs, idx),
            (false, false) => self.remove_bound(
                atom.slack,
                BoundSide::Lower,
                atom.rhs.saturating_add(1),
                idx,
            ),
            (true, true) => {
                self.remove_bound(atom.slack, BoundSide::Upper, atom.rhs, idx);
                self.remove_bound(atom.slack, BoundSide::Lower, atom.rhs, idx);
            }
            (true, false) => {}
        }
    }

    fn add_bound(&mut self, var: usize, side: BoundSide, value: i64, atom: usize) {
        let entry = self.active.entry(var).or_default();
        let map = match side {
            BoundSide::Lower => &mut entry.lowers,
            BoundSide::Upper => &mut entry.uppers,
        };
        map.entry(value).or_default().push(atom);
        self.sync_bound(var, side);
    }

    fn remove_bound(&mut self, var: usize, side: BoundSide, value: i64, atom: usize) {
        if let Some(entry) = self.active.get_mut(&var) {
            let map = match side {
                BoundSide::Lower => &mut entry.lowers,
                BoundSide::Upper => &mut entry.uppers,
            };
            if let Some(cell) = map.get_mut(&value) {
                // Remove exactly this atom's assertion so the remaining ids
                // always point at still-asserted atoms (justifications stay
                // sound).
                if let Some(pos) = cell.iter().position(|&a| a == atom) {
                    cell.remove(pos);
                }
                if cell.is_empty() {
                    map.remove(&value);
                }
            }
        }
        self.sync_bound(var, side);
    }

    /// Rewrites the simplex bound of `var` on `side` to the effective
    /// (tightest) active value: clear the side first (pure loosening keeps
    /// the assignment feasible), then re-tighten through the checked API so
    /// nonbasic values are repaired.
    fn sync_bound(&mut self, var: usize, side: BoundSide) {
        let entry = self.active.entry(var).or_default();
        match side {
            BoundSide::Lower => {
                let eff = entry.lowers.keys().next_back().copied().map(Rat::from);
                let upper = self.sx.bounds(var).1.cloned();
                self.sx.set_bounds_raw(var, None, upper);
                if let Some(b) = eff {
                    self.sx.set_lower(var, b);
                }
            }
            BoundSide::Upper => {
                let eff = entry.uppers.keys().next().copied().map(Rat::from);
                let lower = self.sx.bounds(var).0.cloned();
                self.sx.set_bounds_raw(var, lower, None);
                if let Some(b) = eff {
                    self.sx.set_upper(var, b);
                }
            }
        }
    }

    /// Checks rational feasibility of the asserted bounds. On conflict,
    /// returns the asserted atom indices of a Farkas explanation.
    ///
    /// Disequalities participate when the bounds *pin* their form to the
    /// forbidden value: `e ≠ r` with `r ≤ e ≤ r` is an immediate conflict
    /// whose core is the disequality plus the two pinning bounds.
    pub fn check(&mut self) -> Result<(), Vec<usize>> {
        self.check_budgeted(u64::MAX, &mut || true)
            .expect("an unlimited feasibility check cannot give up")
    }

    /// [`IncrementalLra::check`] under a pivot budget: gives up (`None`)
    /// after `max_pivots` simplex pivots or when `poll` returns `false`. A
    /// `Some` answer is exact; `None` says nothing.
    pub fn check_budgeted(
        &mut self,
        max_pivots: u64,
        poll: &mut dyn FnMut() -> bool,
    ) -> Option<Result<(), Vec<usize>>> {
        match self.sx.check_budgeted(max_pivots, poll)? {
            Ok(()) => {
                for idx in 0..self.atoms.len() {
                    if self.asserted[idx] != Some(false) || !self.atoms[idx].is_eq {
                        continue;
                    }
                    let slack = self.atoms[idx].slack;
                    let r = Rat::from(self.atoms[idx].rhs);
                    let (l, u) = self.sx.bounds(slack);
                    if l == Some(&r) && u == Some(&r) {
                        let mut core = vec![idx];
                        if let Some(entry) = self.active.get(&slack) {
                            if let Some(a) = entry
                                .lowers
                                .iter()
                                .next_back()
                                .and_then(|(_, v)| v.last().copied())
                            {
                                if !core.contains(&a) {
                                    core.push(a);
                                }
                            }
                            if let Some(a) = entry
                                .uppers
                                .iter()
                                .next()
                                .and_then(|(_, v)| v.last().copied())
                            {
                                if !core.contains(&a) {
                                    core.push(a);
                                }
                            }
                        }
                        self.last_conflict = Some(TheoryCertificate {
                            kind: "pinned-diseq",
                            atoms: core.clone(),
                        });
                        return Some(Err(core));
                    }
                }
                self.last_conflict = None;
                Some(Ok(()))
            }
            Err(expl) => {
                let mut atoms: Vec<usize> = Vec::new();
                for (var, side) in expl {
                    let Some(entry) = self.active.get(&var) else {
                        continue; // structural bound (none here)
                    };
                    let justifying = match side {
                        BoundSide::Lower => entry
                            .lowers
                            .iter()
                            .next_back()
                            .and_then(|(_, v)| v.last().copied()),
                        BoundSide::Upper => entry
                            .uppers
                            .iter()
                            .next()
                            .and_then(|(_, v)| v.last().copied()),
                    };
                    if let Some(a) = justifying {
                        if !atoms.contains(&a) {
                            atoms.push(a);
                        }
                    }
                }
                self.last_conflict = Some(TheoryCertificate {
                    kind: "farkas",
                    atoms: atoms.clone(),
                });
                Some(Err(atoms))
            }
        }
    }

    /// The currently asserted polarity of an atom.
    pub fn polarity(&self, idx: usize) -> Option<bool> {
        self.asserted[idx]
    }
}

impl TheorySolver for IncrementalLra {
    fn name(&self) -> &'static str {
        "simplex"
    }

    fn add_var(&mut self) -> usize {
        IncrementalLra::add_var(self)
    }

    fn num_vars(&self) -> usize {
        self.num_problem_vars()
    }

    fn add_atom(&mut self, atom: &LinearAtom) -> Option<usize> {
        // The simplex fragment is all of linear arithmetic: never rejects.
        Some(IncrementalLra::add_atom(self, atom))
    }

    fn num_atoms(&self) -> usize {
        IncrementalLra::num_atoms(self)
    }

    fn assert_atom(&mut self, idx: usize, polarity: bool) {
        IncrementalLra::assert_atom(self, idx, polarity);
    }

    fn retract_atom(&mut self, idx: usize) {
        IncrementalLra::retract_atom(self, idx);
    }

    fn polarity(&self, idx: usize) -> Option<bool> {
        IncrementalLra::polarity(self, idx)
    }

    fn push(&mut self) {
        let id = self.next_frame;
        self.next_frame += 1;
        self.frames.push((id, Vec::new()));
    }

    fn pop(&mut self) {
        let Some((_, entries)) = self.frames.pop() else {
            return;
        };
        for (idx, prev) in entries.into_iter().rev() {
            // Replay without noting: the enclosing frame's records for
            // these atoms (taken before this frame opened, if any) remain
            // correct.
            match prev {
                Some(pol) => {
                    if self.asserted[idx] != Some(pol) {
                        self.apply_assert(idx, pol);
                    }
                }
                None => self.apply_retract(idx),
            }
        }
    }

    fn check(
        &mut self,
        max_steps: u64,
        poll: &mut dyn FnMut() -> bool,
    ) -> Option<Result<(), Vec<usize>>> {
        self.check_budgeted(max_steps, poll)
    }

    fn explain_conflict(&self) -> Option<TheoryCertificate> {
        self.last_conflict.clone()
    }

    fn model(&self) -> Vec<Rat> {
        self.var_ids
            .iter()
            .map(|&id| self.sx.value(id).clone())
            .collect()
    }

    fn reset_model(&mut self) {
        self.sx.reset_assignment();
    }

    fn search_work(&self) -> u64 {
        self.sx.pivots_total()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// atoms over x (var 0): a0: x ≤ 5, a1: x ≤ 2, a2: x = 7 (as eq)
    fn state() -> IncrementalLra {
        IncrementalLra::new(
            1,
            &[
                (vec![(0, 1)], false, 5),
                (vec![(0, 1)], false, 2),
                (vec![(0, 1)], true, 7),
            ],
        )
    }

    #[test]
    fn assert_and_check_sat() {
        let mut st = state();
        st.assert_atom(0, true); // x <= 5
        assert!(st.check().is_ok());
        st.assert_atom(1, false); // x >= 3
        assert!(st.check().is_ok());
    }

    #[test]
    fn conflict_has_explanation() {
        let mut st = state();
        st.assert_atom(1, true); // x <= 2
        st.assert_atom(2, true); // x = 7
        let core = st.check().expect_err("conflict");
        assert!(core.contains(&1) && core.contains(&2), "{core:?}");
    }

    #[test]
    fn retract_restores_feasibility() {
        let mut st = state();
        st.assert_atom(1, true); // x <= 2
        st.assert_atom(2, true); // x = 7
        assert!(st.check().is_err());
        st.retract_atom(1);
        assert!(st.check().is_ok());
        // Re-assert: conflict returns.
        st.assert_atom(1, true);
        assert!(st.check().is_err());
    }

    #[test]
    fn nested_bounds_keep_effective() {
        let mut st = state();
        st.assert_atom(0, true); // x <= 5
        st.assert_atom(1, true); // x <= 2 (tighter)
        st.retract_atom(1); // back to x <= 5
        st.assert_atom(2, true); // x = 7 conflicts with x <= 5
        let core = st.check().expect_err("conflict");
        assert!(core.contains(&0), "core {core:?} must cite x <= 5");
        st.retract_atom(0);
        assert!(st.check().is_ok());
    }

    #[test]
    fn disequalities_ignored() {
        let mut st = state();
        st.assert_atom(2, false); // x ≠ 7: no rational content
        assert!(st.check().is_ok());
        assert_eq!(st.polarity(2), Some(false));
    }

    #[test]
    fn shared_linear_forms_one_slack() {
        // Two atoms on the same form x+y and one on 2x.
        let mut st = IncrementalLra::new(
            2,
            &[
                (vec![(0, 1), (1, 1)], false, 4),
                (vec![(1, 1), (0, 1)], false, 9),
                (vec![(0, 2)], false, 0),
            ],
        );
        st.assert_atom(0, false); // x+y >= 5
        st.assert_atom(1, true); // x+y <= 9
        st.assert_atom(2, true); // 2x <= 0
        assert!(st.check().is_ok());
        st.assert_atom(1, false); // flip: x+y >= 10 — still sat (y free)
        assert!(st.check().is_ok());
    }

    #[test]
    fn warm_growth_adds_vars_and_atoms() {
        let mut st = IncrementalLra::new(1, &[(vec![(0, 1)], false, 5)]);
        st.assert_atom(0, true); // x <= 5
        assert!(st.check().is_ok());
        // Grow mid-session: y's simplex id lands after x's slack, but the
        // caller-facing index stays dense.
        let y = st.add_var();
        assert_eq!(y, 1);
        assert_eq!(st.num_problem_vars(), 2);
        let a1 = st.add_atom(&(vec![(0, 1), (1, -1)], false, 0)); // x - y <= 0
        let a2 = st.add_atom(&(vec![(1, 1)], false, 5)); // y <= 5
        st.assert_atom(a1, false); // x - y >= 1
        st.assert_atom(a2, false); // y >= 6
        let core = st.check().expect_err("x<=5, x>=y+1, y>=6 is unsat");
        assert!(
            core.contains(&0) && core.contains(&a1) && core.contains(&a2),
            "{core:?}"
        );
        st.retract_atom(a2);
        assert!(st.check().is_ok());
        // A repeated linear form shares its slack with the earlier atom.
        let before = st.num_atoms();
        let a3 = st.add_atom(&(vec![(0, 1)], false, 100)); // x <= 100
        assert_eq!(st.num_atoms(), before + 1);
        st.assert_atom(a3, true);
        assert!(st.check().is_ok());
    }

    /// The trait-level push/pop restores exact assertion state, including
    /// across polarity flips, and `explain_conflict` reports the Farkas
    /// certificate of the latest conflict.
    #[test]
    fn trait_push_pop_and_certificates() {
        let mut st = state();
        st.assert_atom(0, true); // x <= 5
        TheorySolver::push(&mut st);
        st.assert_atom(0, false); // flip: x >= 6
        st.assert_atom(2, true); // x = 7
        assert!(st.check().is_ok());
        TheorySolver::push(&mut st);
        st.assert_atom(1, true); // x <= 2: conflict with x = 7
        assert!(st.check().is_err());
        let cert = st.explain_conflict().expect("certificate");
        assert_eq!(cert.kind, "farkas");
        assert!(cert.atoms.contains(&1) && cert.atoms.contains(&2));
        TheorySolver::pop(&mut st);
        assert_eq!(st.polarity(1), None);
        assert_eq!(st.polarity(0), Some(false));
        assert!(st.check().is_ok());
        TheorySolver::pop(&mut st);
        assert_eq!(st.polarity(0), Some(true));
        assert_eq!(st.polarity(2), None);
        assert!(st.check().is_ok());
        assert!(st.explain_conflict().is_none(), "cleared on success");
    }

    /// After `reset_model` the next check starts from the origin: a value
    /// pushed away by a since-retracted bound comes back to the nearest
    /// point of the remaining bounds.
    #[test]
    fn reset_model_returns_to_the_origin() {
        let mut st =
            IncrementalLra::new(1, &[(vec![(0, -1)], false, -50), (vec![(0, -1)], false, 0)]);
        st.assert_atom(0, true); // x >= 50
        st.assert_atom(1, true); // x >= 0
        assert!(st.check().is_ok());
        assert_eq!(TheorySolver::model(&st), vec![Rat::from(50)]);
        st.retract_atom(0);
        assert!(st.check().is_ok());
        assert_eq!(
            TheorySolver::model(&st),
            vec![Rat::from(50)],
            "still feasible"
        );
        TheorySolver::reset_model(&mut st);
        assert!(st.check().is_ok());
        assert_eq!(TheorySolver::model(&st), vec![Rat::from(0)]);
    }

    #[test]
    fn multi_var_conflict() {
        // x - y >= 1 and y - x >= 1 is rationally unsat.
        let mut st = IncrementalLra::new(
            2,
            &[
                (vec![(0, 1), (1, -1)], false, 0),
                (vec![(0, -1), (1, 1)], false, 0),
            ],
        );
        st.assert_atom(0, false); // x - y >= 1
        st.assert_atom(1, false); // y - x >= 1
        let core = st.check().expect_err("conflict");
        assert_eq!(core.len(), 2, "{core:?}");
    }
}
