//! Live progress counters for the solver runtime.
//!
//! A [`ProgressState`] is a block of relaxed atomics carried by every
//! [`Tracer`](crate::trace::Tracer) (and therefore by every
//! [`Budget`](crate::runtime::Budget) clone): engines write their current
//! position into it as they work, and a background reporter — the watchdog
//! in `dryadsynth` — reads it to print heartbeats and to detect stalls.
//!
//! Every mutating call also bumps a monotonically increasing *tick*
//! counter. "Progress" for stall detection is defined as the tick moving:
//! as long as any engine layer keeps updating any counter, the solver is
//! alive; a tick frozen for longer than the configured stall window means
//! no layer has advanced and a diagnostic dump is warranted.
//!
//! All operations are a handful of relaxed atomic stores, so the engines
//! can leave the calls permanently enabled on their hot loops.

use crate::trace::Stage;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Shared live-progress counters; see the module docs. One instance lives
/// inside every tracer and is shared by all of its clones.
#[derive(Debug, Default)]
pub struct ProgressState {
    /// Monotonic change counter: bumped by every mutating call.
    ticks: AtomicU64,
    /// Index of the current [`Stage`] plus one; 0 = no stage entered yet.
    // synthlint: allow(relaxed-handoff) — display-only gauge; heartbeat readers tolerate stale snapshots
    stage: AtomicUsize,
    /// Current CEGIS/enumeration height (or bottom-up layer size).
    // synthlint: allow(relaxed-handoff) — display-only gauge; heartbeat readers tolerate stale snapshots
    height: AtomicU64,
    /// CEGIS rounds completed across all engines.
    cegis_rounds: AtomicU64,
    /// Counterexamples learned across all engines.
    counterexamples: AtomicU64,
    /// Subproblem-graph nodes created by the cooperative driver.
    // synthlint: allow(relaxed-handoff) — display-only gauge; heartbeat readers tolerate stale snapshots
    nodes: AtomicU64,
    /// SMT checks started.
    smt_checks: AtomicU64,
    /// SMT conflicts observed (CDCL plus theory).
    smt_conflicts: AtomicU64,
    /// Term size of the most recently started SMT query.
    // synthlint: allow(relaxed-handoff) — display-only gauge; heartbeat readers tolerate stale snapshots
    smt_query_size: AtomicU64,
}

impl ProgressState {
    fn tick(&self) {
        self.ticks.fetch_add(1, Ordering::Relaxed);
    }

    /// The monotonic change counter. A watchdog that sees the same value
    /// twice across its stall window knows no counter has advanced.
    pub fn ticks(&self) -> u64 {
        self.ticks.load(Ordering::Relaxed)
    }

    /// Records the stage the solver is currently inside.
    pub fn set_stage(&self, stage: Stage) {
        self.stage
            .store(stage as usize + 1, Ordering::Relaxed);
        self.tick();
    }

    /// Clears the current stage (no span active on any thread).
    pub fn clear_stage(&self) {
        self.stage.store(0, Ordering::Relaxed);
        self.tick();
    }

    /// Records the height (or layer size) the search is working at.
    pub fn set_height(&self, height: u64) {
        self.height.store(height, Ordering::Relaxed);
        self.tick();
    }

    /// Records one completed CEGIS round.
    pub fn note_cegis_round(&self) {
        self.cegis_rounds.fetch_add(1, Ordering::Relaxed);
        self.tick();
    }

    /// Records one learned counterexample.
    pub fn note_counterexample(&self) {
        self.counterexamples.fetch_add(1, Ordering::Relaxed);
        self.tick();
    }

    /// Records the subproblem-graph node count.
    pub fn set_nodes(&self, nodes: u64) {
        self.nodes.store(nodes, Ordering::Relaxed);
        self.tick();
    }

    /// Records the start of one SMT check of a query of `size` term nodes.
    pub fn note_smt_check(&self, size: u64) {
        self.smt_checks.fetch_add(1, Ordering::Relaxed);
        self.smt_query_size.store(size, Ordering::Relaxed);
        self.tick();
    }

    /// Records `n` conflicts (CDCL or theory) inside the SMT substrate; a
    /// zero count is not an update.
    pub fn note_smt_conflicts(&self, n: u64) {
        if n > 0 {
            self.smt_conflicts.fetch_add(n, Ordering::Relaxed);
            self.tick();
        }
    }

    /// A point-in-time copy of every counter.
    pub fn snapshot(&self) -> ProgressSnapshot {
        let stage = self.stage.load(Ordering::Relaxed);
        ProgressSnapshot {
            ticks: self.ticks(),
            stage: stage
                .checked_sub(1)
                .and_then(|i| Stage::ALL.get(i))
                .map(|s| s.name()),
            height: self.height.load(Ordering::Relaxed),
            cegis_rounds: self.cegis_rounds.load(Ordering::Relaxed),
            counterexamples: self.counterexamples.load(Ordering::Relaxed),
            nodes: self.nodes.load(Ordering::Relaxed),
            smt_checks: self.smt_checks.load(Ordering::Relaxed),
            smt_conflicts: self.smt_conflicts.load(Ordering::Relaxed),
            smt_query_size: self.smt_query_size.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of a [`ProgressState`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProgressSnapshot {
    /// The monotonic change counter at snapshot time.
    pub ticks: u64,
    /// The stage name the solver was inside (`None` before any stage).
    pub stage: Option<&'static str>,
    /// Current CEGIS/enumeration height.
    pub height: u64,
    /// CEGIS rounds completed.
    pub cegis_rounds: u64,
    /// Counterexamples learned.
    pub counterexamples: u64,
    /// Subproblem-graph nodes.
    pub nodes: u64,
    /// SMT checks started.
    pub smt_checks: u64,
    /// SMT conflicts observed: CDCL conflicts plus theory conflicts.
    pub smt_conflicts: u64,
    /// Term size of the most recently started SMT query.
    pub smt_query_size: u64,
}

impl std::fmt::Display for ProgressSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "stage={} height={} cegis={} cex={} nodes={} smt={} conflicts={} query_size={}",
            self.stage.unwrap_or("-"),
            self.height,
            self.cegis_rounds,
            self.counterexamples,
            self.nodes,
            self.smt_checks,
            self.smt_conflicts,
            self.smt_query_size,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_update_advances_the_tick() {
        let p = ProgressState::default();
        assert_eq!(p.ticks(), 0);
        p.set_stage(Stage::Smt);
        p.set_height(3);
        p.note_cegis_round();
        p.note_counterexample();
        p.set_nodes(2);
        p.note_smt_check(41);
        p.note_smt_conflicts(3);
        p.note_smt_conflicts(0);
        p.clear_stage();
        assert_eq!(p.ticks(), 8);
        let snap = p.snapshot();
        assert_eq!(snap.stage, None);
        assert_eq!(snap.height, 3);
        assert_eq!(snap.cegis_rounds, 1);
        assert_eq!(snap.counterexamples, 1);
        assert_eq!(snap.nodes, 2);
        assert_eq!(snap.smt_checks, 1);
        assert_eq!(snap.smt_conflicts, 3);
        assert_eq!(snap.smt_query_size, 41);
    }

    #[test]
    fn snapshot_reports_the_stage_name() {
        let p = ProgressState::default();
        assert_eq!(p.snapshot().stage, None);
        p.set_stage(Stage::FixedHeight);
        assert_eq!(p.snapshot().stage, Some("fixed-height"));
        let line = p.snapshot().to_string();
        assert!(line.contains("stage=fixed-height"), "{line}");
    }
}
