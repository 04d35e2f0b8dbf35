//! The resource-governance primitive shared by every layer of the solver.
//!
//! A [`Budget`] is a cheap, cloneable handle (one `Arc` clone) bundling the
//! wall-clock deadline, a cooperative cancellation flag, and fuel/memory
//! accounting that used to be threaded through ad-hoc `Option<Instant>`
//! fields. Every engine hot loop polls the same handle, so cancelling or
//! exhausting it stops deduction, enumeration, and the SMT substrate alike.
//!
//! The handle also carries the run's SMT query counter, so statistics
//! surface without extra plumbing: whoever holds any clone of the budget
//! can read it.

use crate::trace::Tracer;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why a [`Budget`] refused further work.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BudgetError {
    /// The wall-clock deadline passed.
    Timeout,
    /// [`Budget::cancel`] was called on some clone of the handle.
    Cancelled,
    /// The fuel (node) allowance is spent.
    FuelExhausted,
    /// The advisory memory allowance is spent.
    MemoryExhausted,
}

impl BudgetError {
    /// Whether this exhaustion is a deliberate stop (deadline/cancel) rather
    /// than a resource cap (fuel/memory).
    pub fn is_stop(self) -> bool {
        matches!(self, BudgetError::Timeout | BudgetError::Cancelled)
    }
}

impl fmt::Display for BudgetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BudgetError::Timeout => write!(f, "deadline exceeded"),
            BudgetError::Cancelled => write!(f, "cancelled"),
            BudgetError::FuelExhausted => write!(f, "fuel exhausted"),
            BudgetError::MemoryExhausted => write!(f, "memory allowance exhausted"),
        }
    }
}

#[derive(Debug)]
struct BudgetInner {
    /// Budget this one is scoped under: the parent's limits apply in
    /// addition to the local ones, and fuel/memory/telemetry charges
    /// propagate upward. Cancelling the child does NOT cancel the parent.
    parent: Option<Budget>,
    deadline: Option<Instant>,
    // synthlint: allow(relaxed-handoff) — monotonic cancel latch; pollers only need eventual visibility
    cancelled: AtomicBool,
    /// Node allowance; `u64::MAX` means unlimited.
    fuel_limit: u64,
    fuel_spent: AtomicU64,
    /// Advisory byte allowance; `u64::MAX` means unlimited.
    memory_limit: u64,
    memory_charged: AtomicU64,
    smt_queries: AtomicU64,
    /// Observability handle; clones and children share the same tracer, so
    /// metrics aggregate across parallel workers automatically.
    tracer: Tracer,
}

/// A cloneable resource-governance handle: deadline + cancellation flag +
/// fuel/memory counters. Clones share state; see the module docs.
#[derive(Clone, Debug)]
pub struct Budget(Arc<BudgetInner>);

impl Default for Budget {
    fn default() -> Budget {
        Budget::unlimited()
    }
}

impl Budget {
    fn with_limits(deadline: Option<Instant>, fuel: u64, memory: u64, tracer: Tracer) -> Budget {
        Budget(Arc::new(BudgetInner {
            parent: None,
            deadline,
            cancelled: AtomicBool::new(false),
            fuel_limit: fuel,
            fuel_spent: AtomicU64::new(0),
            memory_limit: memory,
            memory_charged: AtomicU64::new(0),
            smt_queries: AtomicU64::new(0),
            tracer,
        }))
    }

    /// A budget with no deadline and no fuel/memory caps. It can still be
    /// stopped through [`Budget::cancel`].
    pub fn unlimited() -> Budget {
        Budget::with_limits(None, u64::MAX, u64::MAX, Tracer::default())
    }

    /// A budget expiring at the absolute instant `deadline`. A deadline of
    /// `Instant::now()` (e.g. `--timeout 0`) expires immediately.
    pub fn with_deadline(deadline: Instant) -> Budget {
        Budget::with_limits(Some(deadline), u64::MAX, u64::MAX, Tracer::default())
    }

    /// A budget expiring `timeout` from now. `Duration::ZERO` expires
    /// immediately.
    pub fn from_timeout(timeout: Duration) -> Budget {
        Budget::with_deadline(Instant::now() + timeout)
    }

    /// Returns a fresh budget with the same deadline and the given fuel
    /// (node) allowance. Counters restart at zero; the cancellation flag is
    /// *not* shared with `self`.
    pub fn with_fuel(&self, fuel: u64) -> Budget {
        Budget::with_limits(
            self.deadline(),
            fuel,
            self.0.memory_limit,
            self.0.tracer.clone(),
        )
    }

    /// Returns a fresh budget with the same deadline/fuel and the given
    /// advisory memory allowance in bytes.
    pub fn with_memory_limit(&self, bytes: u64) -> Budget {
        Budget::with_limits(
            self.deadline(),
            self.0.fuel_limit,
            bytes,
            self.0.tracer.clone(),
        )
    }

    /// Returns a budget with the same deadline/fuel/memory limits carrying
    /// `tracer`. Counters restart at zero, so attach the tracer right after
    /// construction, before any work is charged.
    pub fn with_tracer(&self, tracer: Tracer) -> Budget {
        Budget::with_limits(self.deadline(), self.0.fuel_limit, self.0.memory_limit, tracer)
    }

    /// The observability handle carried by this budget. Clones and children
    /// share it, so metrics recorded anywhere aggregate into one registry.
    pub fn tracer(&self) -> &Tracer {
        &self.0.tracer
    }

    /// Returns a child budget scoped under `self`: the parent's deadline,
    /// cancellation, and allowances still apply (and fuel/memory/telemetry
    /// charges propagate upward), but cancelling the child stops only work
    /// polling the child. Used for sibling cancellation inside parallel
    /// bands.
    ///
    /// The parent's *resolved* deadline is snapshotted into the child at
    /// creation. Deadlines are immutable once a budget exists, so this is
    /// semantically equivalent to walking the parent chain on every poll —
    /// but it keeps `deadline()`/`exceeded()` O(1) even for children minted
    /// inside a CEGIS loop, instead of O(depth) per iteration.
    pub fn child(&self) -> Budget {
        self.child_with(None, None)
    }

    /// Returns a child budget like [`Budget::child`], optionally with its
    /// own wall-clock `deadline` and its own observability `tracer`.
    ///
    /// The effective deadline is the *earlier* of the parent's resolved
    /// deadline and the requested one — a child can only shrink its window,
    /// never outlive the parent. A `tracer` of `None` shares the parent's
    /// tracer (the [`Budget::child`] behaviour); `Some` gives the child its
    /// own registry so a multi-request host (the daemon scheduler) gets
    /// per-request metrics, progress, and live span stacks while
    /// fuel/memory/telemetry charges still aggregate into the parent.
    pub fn child_with(&self, deadline: Option<Instant>, tracer: Option<Tracer>) -> Budget {
        let deadline = match (self.deadline(), deadline) {
            (Some(p), Some(d)) => Some(p.min(d)),
            (p, d) => p.or(d),
        };
        Budget(Arc::new(BudgetInner {
            parent: Some(self.clone()),
            deadline,
            cancelled: AtomicBool::new(false),
            fuel_limit: u64::MAX,
            fuel_spent: AtomicU64::new(0),
            memory_limit: u64::MAX,
            memory_charged: AtomicU64::new(0),
            smt_queries: AtomicU64::new(0),
            tracer: tracer.unwrap_or_else(|| self.0.tracer.clone()),
        }))
    }

    /// The absolute deadline, if any (inherited from the parent for child
    /// budgets).
    pub fn deadline(&self) -> Option<Instant> {
        self.0
            .deadline
            .or_else(|| self.0.parent.as_ref().and_then(|p| p.deadline()))
    }

    /// Time left until the deadline (`None` = no deadline). Zero when
    /// already expired.
    pub fn remaining_time(&self) -> Option<Duration> {
        self.deadline()
            .map(|d| d.saturating_duration_since(Instant::now()))
    }

    /// Raises the cancellation flag; every clone observes it at its next
    /// checkpoint. Idempotent.
    pub fn cancel(&self) {
        self.0.cancelled.store(true, Ordering::Relaxed);
    }

    /// Whether some clone has been cancelled.
    pub fn is_cancelled(&self) -> bool {
        self.0.cancelled.load(Ordering::Relaxed)
    }

    /// Polls every governed resource. `Ok(())` means work may continue.
    pub fn check(&self) -> Result<(), BudgetError> {
        match self.exceeded() {
            None => Ok(()),
            Some(e) => Err(e),
        }
    }

    /// Like [`Budget::check`], shaped for `if let` call sites.
    pub fn exceeded(&self) -> Option<BudgetError> {
        if let Some(e) = self.0.parent.as_ref().and_then(|p| p.exceeded()) {
            return Some(e);
        }
        if self.is_cancelled() {
            return Some(BudgetError::Cancelled);
        }
        if self.0.deadline.is_some_and(|d| Instant::now() >= d) {
            return Some(BudgetError::Timeout);
        }
        if self.0.fuel_spent.load(Ordering::Relaxed) >= self.0.fuel_limit {
            return Some(BudgetError::FuelExhausted);
        }
        if self.0.memory_charged.load(Ordering::Relaxed) >= self.0.memory_limit {
            return Some(BudgetError::MemoryExhausted);
        }
        None
    }

    /// Convenience: whether any resource is exhausted.
    pub fn is_exhausted(&self) -> bool {
        self.exceeded().is_some()
    }

    /// Spends `n` fuel units (nodes, candidates, rounds — the caller picks
    /// the granularity) and then polls the budget.
    pub fn charge_fuel(&self, n: u64) -> Result<(), BudgetError> {
        self.add_fuel(n);
        self.check()
    }

    fn add_fuel(&self, n: u64) {
        self.0.fuel_spent.fetch_add(n, Ordering::Relaxed);
        if let Some(p) = &self.0.parent {
            p.add_fuel(n);
        }
    }

    /// Records `bytes` of advisory allocation and then polls the budget.
    pub fn charge_memory(&self, bytes: u64) -> Result<(), BudgetError> {
        self.add_memory(bytes);
        self.check()
    }

    fn add_memory(&self, bytes: u64) {
        self.0.memory_charged.fetch_add(bytes, Ordering::Relaxed);
        if let Some(p) = &self.0.parent {
            p.add_memory(bytes);
        }
    }

    /// Fuel spent so far across all clones.
    pub fn fuel_spent(&self) -> u64 {
        self.0.fuel_spent.load(Ordering::Relaxed)
    }

    /// The fuel allowance (`None` = unlimited).
    pub fn fuel_limit(&self) -> Option<u64> {
        (self.0.fuel_limit != u64::MAX).then_some(self.0.fuel_limit)
    }

    /// Advisory bytes charged so far.
    pub fn memory_charged(&self) -> u64 {
        self.0.memory_charged.load(Ordering::Relaxed)
    }

    /// Records one SMT query issued under this budget.
    pub fn note_smt_query(&self) {
        self.0.smt_queries.fetch_add(1, Ordering::Relaxed);
        if let Some(p) = &self.0.parent {
            p.note_smt_query();
        }
    }

    /// SMT queries issued under this budget.
    pub fn smt_queries(&self) -> u64 {
        self.0.smt_queries.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_never_trips() {
        let b = Budget::unlimited();
        assert_eq!(b.check(), Ok(()));
        assert!(b.charge_fuel(1_000_000).is_ok());
        assert_eq!(b.exceeded(), None);
    }

    #[test]
    fn zero_timeout_expires_immediately() {
        let b = Budget::from_timeout(Duration::ZERO);
        assert_eq!(b.exceeded(), Some(BudgetError::Timeout));
    }

    #[test]
    fn cancellation_is_shared_across_clones() {
        let b = Budget::unlimited();
        let c = b.clone();
        assert_eq!(c.check(), Ok(()));
        b.cancel();
        assert_eq!(c.exceeded(), Some(BudgetError::Cancelled));
        // Cancellation outranks any other state.
        assert!(c.exceeded().unwrap().is_stop());
    }

    #[test]
    fn fuel_runs_out_and_is_shared() {
        let b = Budget::unlimited().with_fuel(10);
        let c = b.clone();
        assert!(b.charge_fuel(6).is_ok());
        assert_eq!(c.charge_fuel(6), Err(BudgetError::FuelExhausted));
        assert_eq!(b.exceeded(), Some(BudgetError::FuelExhausted));
        assert_eq!(b.fuel_spent(), 12);
        assert_eq!(b.fuel_limit(), Some(10));
    }

    #[test]
    fn with_fuel_resets_counters_but_keeps_deadline() {
        let deadline = Instant::now() + Duration::from_secs(3600);
        let b = Budget::with_deadline(deadline);
        b.charge_fuel(99).unwrap();
        let fresh = b.with_fuel(50);
        assert_eq!(fresh.fuel_spent(), 0);
        assert_eq!(fresh.deadline(), Some(deadline));
    }

    #[test]
    fn memory_allowance_trips() {
        let b = Budget::unlimited().with_memory_limit(1024);
        assert!(b.charge_memory(512).is_ok());
        assert_eq!(b.charge_memory(512), Err(BudgetError::MemoryExhausted));
    }

    #[test]
    fn child_budget_scopes_cancellation() {
        let parent = Budget::unlimited().with_fuel(100);
        let band = parent.child();
        // Cancelling the band stops band pollers but not the parent.
        band.cancel();
        assert_eq!(band.exceeded(), Some(BudgetError::Cancelled));
        assert_eq!(parent.exceeded(), None);
        // Cancelling the parent stops the band too.
        let band2 = parent.child();
        parent.cancel();
        assert_eq!(band2.exceeded(), Some(BudgetError::Cancelled));
    }

    #[test]
    fn child_budget_charges_propagate_upward() {
        let parent = Budget::unlimited().with_fuel(10);
        let band = parent.child();
        assert!(band.charge_fuel(4).is_ok());
        assert_eq!(parent.fuel_spent(), 4);
        band.note_smt_query();
        assert_eq!(parent.smt_queries(), 1);
        // Parent's fuel cap applies to the child.
        assert_eq!(band.charge_fuel(6), Err(BudgetError::FuelExhausted));
    }

    #[test]
    fn child_budget_snapshots_deadline_at_creation() {
        // Regression: children used to store `deadline: None` and re-resolve
        // the parent chain on every `deadline()`/`exceeded()` poll, so a
        // CEGIS loop minting a child per iteration paid O(depth) per check.
        // The resolved deadline must now be hoisted into the child once.
        let deadline = Instant::now() + Duration::from_secs(3600);
        let root = Budget::with_deadline(deadline);
        let mut b = root.clone();
        for _ in 0..64 {
            b = b.child();
            // The snapshot lives in the child itself, not behind the chain.
            assert_eq!(b.0.deadline, Some(deadline));
        }
        assert_eq!(b.deadline(), Some(deadline));
        assert_eq!(b.exceeded(), None);
        // Children of deadline-free budgets stay deadline-free.
        let free = Budget::unlimited().child();
        assert_eq!(free.0.deadline, None);
        assert_eq!(free.deadline(), None);
    }

    #[test]
    fn child_with_clamps_deadline_to_the_parent_window() {
        let near = Instant::now() + Duration::from_secs(10);
        let far = Instant::now() + Duration::from_secs(3600);
        // Request window later than the parent's: parent wins.
        let parent = Budget::with_deadline(near);
        assert_eq!(parent.child_with(Some(far), None).deadline(), Some(near));
        // Request window earlier than the parent's: the request wins.
        let parent = Budget::with_deadline(far);
        assert_eq!(parent.child_with(Some(near), None).deadline(), Some(near));
        // Deadline-free parent: the request's own deadline applies.
        let free = Budget::unlimited();
        assert_eq!(free.child_with(Some(near), None).deadline(), Some(near));
        assert_eq!(free.child_with(None, None).deadline(), None);
    }

    #[test]
    fn child_with_own_tracer_still_charges_the_parent() {
        let parent = Budget::unlimited().with_tracer(Tracer::metrics_only());
        let request = parent.child_with(None, Some(Tracer::metrics_only()));
        // Metrics recorded on the child stay on the child's registry...
        request.tracer().metrics().bump("request.local");
        assert_eq!(parent.tracer().metrics().counter("request.local"), 0);
        assert_eq!(request.tracer().metrics().counter("request.local"), 1);
        // ...but budget charges and cancellation still chain to the parent.
        request.charge_fuel(3).unwrap();
        request.note_smt_query();
        assert_eq!(parent.fuel_spent(), 3);
        assert_eq!(parent.smt_queries(), 1);
        parent.cancel();
        assert_eq!(request.exceeded(), Some(BudgetError::Cancelled));
    }

    #[test]
    fn tracer_is_shared_by_clones_and_children() {
        use crate::trace::Stage;
        let b = Budget::unlimited().with_tracer(Tracer::metrics_only());
        let band = b.child();
        let worker = band.clone();
        worker.tracer().metrics().bump("test.worker");
        drop(worker.tracer().span(Stage::Smt));
        assert_eq!(b.tracer().metrics().counter("test.worker"), 1);
        assert_eq!(b.tracer().metrics().stage(Stage::Smt).count(), 1);
        // Derived budgets keep the tracer too.
        assert_eq!(b.with_fuel(5).tracer().metrics().counter("test.worker"), 1);
    }

    #[test]
    fn telemetry_counters_accumulate() {
        let b = Budget::unlimited();
        let c = b.clone();
        b.note_smt_query();
        c.note_smt_query();
        assert_eq!(b.smt_queries(), 2);
    }
}
