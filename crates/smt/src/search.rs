//! Drain layer of the search-analytics pipeline: turns the SAT core's
//! interval records ([`SatSolver::take_search_intervals`]) into named
//! `search.*` counters, the `search.lbd` value histogram, and — when the
//! tracer keeps records — one [`SearchRecord`] per interval in the trace
//! stream (`--render search` prints them as the search log).
//!
//! The discipline is *counters are derived from intervals*: every
//! `search.*` total is incremented only here, from the same drained
//! intervals that become search records. The records therefore sum exactly
//! to the counter totals (and to the RunReport `search` block built from
//! them) by construction, across timeouts and budget aborts alike. The SMT
//! driver drains after every conflict chunk, and with `close = true` at
//! each query's return point — an answer or an error — so a query loses
//! nothing of its search.
//!
//! One search record serialises to (all integers; deltas over the interval
//! unless noted):
//!
//! ```json
//! {"type": "search_interval", "seq": 3, "conflicts": 4096,
//!  "decisions": 5120, "propagations": 81234, "restarts": 2,
//!  "phase_flips": 900, "learned_literals": 30000,
//!  "lbd_sum": 20480, "lbd_count": 4096, "db_clauses": 5200,
//!  "episodes": [{"conflicts": 128, "lbd_sum": 640, "lbd_count": 128}]}
//! ```
//!
//! `seq` is the zero-based interval index within the run (monotone across
//! queries — it continues the `search.intervals_total` counter);
//! `db_clauses` is a gauge read when the interval closed; `episodes` lists
//! the restart episodes that ended inside the interval, each carrying the
//! LBD trend (`lbd_sum / lbd_count`) that preceded its restart.

use crate::sat::SatSolver;
use sygus_ast::trace::{SearchRecord, Tracer};

/// Drains the solver's accumulated search intervals into `tracer`: bumps
/// the `search.*` counters, records per-clause LBDs into the `search.lbd`
/// histogram, sets the `search.db_clauses` gauge, feeds the conflicts to
/// the watchdog's progress line, and (when the tracer keeps records) emits
/// one [`SearchRecord`] per interval. With `close`,
/// the partial interval since the last cut is included — callers pass
/// `true` at a query's return points and `false` between conflict chunks.
pub fn drain_search(sat: &mut SatSolver, tracer: &Tracer, close: bool) {
    let intervals = sat.take_search_intervals(close);
    if intervals.is_empty() {
        return;
    }
    let metrics = tracer.metrics();
    let mut conflicts = 0u64;
    let mut decisions = 0u64;
    let mut propagations = 0u64;
    let mut restarts = 0u64;
    let mut phase_flips = 0u64;
    let mut learned_literals = 0u64;
    let mut lbd_sum = 0u64;
    let mut lbd_count = 0u64;
    for iv in &intervals {
        conflicts += iv.conflicts;
        decisions += iv.decisions;
        propagations += iv.propagations;
        restarts += iv.restarts;
        phase_flips += iv.phase_flips;
        learned_literals += iv.learned_literals;
        lbd_sum += iv.lbd_sum;
        lbd_count += iv.lbd_count;
    }
    if lbd_count > 0 {
        let hist = metrics.latency("search.lbd");
        for iv in &intervals {
            for &lbd in &iv.lbds {
                hist.record(u64::from(lbd));
            }
        }
    }
    if tracer.is_recording() {
        let seq_base = metrics.counter("search.intervals_total");
        for (i, iv) in intervals.iter().enumerate() {
            tracer.search(|| SearchRecord {
                seq: seq_base + i as u64,
                conflicts: iv.conflicts,
                decisions: iv.decisions,
                propagations: iv.propagations,
                restarts: iv.restarts,
                phase_flips: iv.phase_flips,
                learned_literals: iv.learned_literals,
                lbd_sum: iv.lbd_sum,
                lbd_count: iv.lbd_count,
                db_clauses: iv.db_clauses,
                episodes: iv.episodes.clone(),
            });
        }
    }
    metrics.add("search.intervals_total", intervals.len() as u64);
    metrics.add("search.conflicts_total", conflicts);
    tracer.progress().note_smt_conflicts(conflicts);
    metrics.add("search.decisions_total", decisions);
    metrics.add("search.propagations_total", propagations);
    metrics.add("search.restarts_total", restarts);
    metrics.add("search.phase_flips_total", phase_flips);
    metrics.add("search.learned_literals_total", learned_literals);
    metrics.add("search.lbd_sum", lbd_sum);
    metrics.add("search.lbd_count", lbd_count);
    // Last closed interval carries the freshest clause-DB gauge.
    if let Some(last) = intervals.last() {
        metrics.set("search.db_clauses", last.db_clauses);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sat::{Lit, SatResult};
    use sygus_ast::trace::Record;
    use sygus_ast::Json;

    /// PHP(n+1, n): forces real CDCL search.
    fn pigeonhole(pigeons: usize, holes: usize, s: &mut SatSolver) {
        let vars: Vec<Vec<_>> = (0..pigeons)
            .map(|_| (0..holes).map(|_| s.new_var()).collect())
            .collect();
        for row in &vars {
            s.add_clause(row.iter().map(|&v| Lit::pos(v)).collect());
        }
        for h in 0..holes {
            for (i, row_i) in vars.iter().enumerate() {
                for row_j in &vars[i + 1..] {
                    s.add_clause(vec![Lit::neg(row_i[h]), Lit::neg(row_j[h])]);
                }
            }
        }
    }

    #[test]
    fn counters_sum_to_logged_intervals() {
        let tracer = Tracer::recording();
        let metrics = tracer.metrics();
        let mut s = SatSolver::new();
        pigeonhole(7, 6, &mut s);
        assert_eq!(s.solve(None), SatResult::Unsat);
        drain_search(&mut s, &tracer, true);

        let samples: Vec<String> = tracer
            .records()
            .iter()
            .filter(|r| matches!(r, Record::Search(_)))
            .map(|r| r.to_json().to_string())
            .collect();
        assert!(!samples.is_empty());
        assert_eq!(samples.len() as u64, metrics.counter("search.intervals_total"));
        // Every JSONL record parses, and the per-field sums equal the
        // drained counter totals exactly.
        let mut sums = std::collections::BTreeMap::new();
        for line in &samples {
            let v = Json::parse(line).expect("search sample parses");
            assert_eq!(v.get("type").and_then(Json::as_str), Some("search_interval"));
            for key in [
                "conflicts",
                "decisions",
                "propagations",
                "restarts",
                "phase_flips",
                "learned_literals",
                "lbd_sum",
                "lbd_count",
            ] {
                let n = v.get(key).and_then(Json::as_i64).expect(key) as u64;
                *sums.entry(key).or_insert(0u64) += n;
            }
        }
        for (key, total) in sums {
            let counter = match key {
                "lbd_sum" | "lbd_count" => format!("search.{key}"),
                _ => format!("search.{key}_total"),
            };
            assert_eq!(metrics.counter(&counter), total, "{counter}");
        }
        assert_eq!(metrics.counter("search.conflicts_total"), s.conflicts());
        // The LBD histogram saw one recording per learned clause.
        let lbd = metrics.latency("search.lbd").snapshot().lifetime;
        assert_eq!(lbd.count, metrics.counter("search.lbd_count"));
        assert_eq!(lbd.total, metrics.counter("search.lbd_sum"));
        assert!(lbd.p90() >= 1);
    }

    #[test]
    fn drain_without_log_skips_buffering_but_keeps_counters() {
        let tracer = Tracer::metrics_only();
        let metrics = tracer.metrics();
        let mut s = SatSolver::new();
        pigeonhole(5, 4, &mut s);
        assert_eq!(s.solve(None), SatResult::Unsat);
        drain_search(&mut s, &tracer, true);
        assert!(tracer.records().is_empty());
        assert!(metrics.counter("search.conflicts_total") > 0);
        // A second drain with nothing accumulated is a no-op.
        let before = metrics.counter("search.intervals_total");
        drain_search(&mut s, &tracer, true);
        assert_eq!(metrics.counter("search.intervals_total"), before);
    }
}
