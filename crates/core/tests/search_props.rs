//! Property tests for the search-analytics pipeline: over random CNF
//! instances, the search records a recording tracer keeps (the lines
//! `--render search` prints) must sum *exactly* to the totals the RunReport
//! `search` block reports — the two views are derived from the same drained
//! intervals, and this test pins that invariant across sat, unsat,
//! restart-heavy, and trivially-propagated instances alike.

use dryadsynth::{search_log, CoopStats, RunReport, SynthOutcome, REPORT_VERSION};
use proptest::prelude::*;
use smtkit::{drain_search, Lit, SatSolver};
use sygus_ast::{Json, Tracer};

fn clause_strategy(nvars: u32) -> impl Strategy<Value = Vec<Lit>> {
    proptest::collection::vec((0..nvars, any::<bool>()), 1..=3)
        .prop_map(|lits| lits.into_iter().map(|(v, n)| Lit::new(v, n)).collect())
}

/// Reads one u64 field out of a parsed JSON object.
fn field(v: &Json, name: &str) -> u64 {
    v.get(name).and_then(Json::as_i64).unwrap_or(0).max(0) as u64
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn search_log_intervals_sum_to_the_report_block(
        nvars in 2u32..10,
        clauses in proptest::collection::vec(clause_strategy(10), 1..40),
    ) {
        let tracer = Tracer::recording();
        let mut s = SatSolver::new();
        for _ in 0..nvars {
            s.new_var();
        }
        for c in &clauses {
            let c: Vec<Lit> = c.iter().map(|l| Lit::new(l.var() % nvars, l.is_neg())).collect();
            s.add_clause(c);
        }
        let _ = s.solve(None);
        drain_search(&mut s, &tracer, true);

        let report = RunReport::new(
            "prop",
            "search_props",
            SynthOutcome::GaveUp("property run".to_owned()),
            0.0,
            CoopStats::default(),
            &tracer,
        );
        let doc = report.to_json();
        prop_assert_eq!(field(&doc, "version"), REPORT_VERSION);

        let log = search_log(&tracer.records());
        let samples: Vec<&str> = log.lines().collect();
        let mut conflicts = 0u64;
        let mut decisions = 0u64;
        let mut propagations = 0u64;
        let mut restarts = 0u64;
        let mut phase_flips = 0u64;
        let mut learned_literals = 0u64;
        let mut lbd_sum = 0u64;
        let mut lbd_count = 0u64;
        for line in &samples {
            let v = Json::parse(line).expect("interval record parses");
            prop_assert_eq!(v.get("type").and_then(Json::as_str), Some("search_interval"));
            conflicts += field(&v, "conflicts");
            decisions += field(&v, "decisions");
            propagations += field(&v, "propagations");
            restarts += field(&v, "restarts");
            phase_flips += field(&v, "phase_flips");
            learned_literals += field(&v, "learned_literals");
            lbd_sum += field(&v, "lbd_sum");
            lbd_count += field(&v, "lbd_count");
        }

        match doc.get("search") {
            None => {
                // No block means the run never moved the SAT core — and
                // then there must be no interval records either.
                prop_assert!(samples.is_empty(), "records without a search block");
                prop_assert_eq!(conflicts + decisions + propagations, 0);
            }
            Some(block) => {
                prop_assert_eq!(field(block, "conflicts"), conflicts);
                prop_assert_eq!(field(block, "decisions"), decisions);
                prop_assert_eq!(field(block, "propagations"), propagations);
                prop_assert_eq!(field(block, "restarts"), restarts);
                prop_assert_eq!(field(block, "phase_flips"), phase_flips);
                prop_assert_eq!(field(block, "learned_literals"), learned_literals);
                prop_assert_eq!(field(block, "intervals"), samples.len() as u64);
                // mean_lbd is the exact ratio of the summed interval fields.
                if lbd_count > 0 {
                    let mean = block.get("mean_lbd").and_then(Json::as_f64).expect("mean_lbd");
                    prop_assert!(
                        (mean - lbd_sum as f64 / lbd_count as f64).abs() < 1e-9,
                        "mean_lbd {} != {}/{}",
                        mean,
                        lbd_sum,
                        lbd_count
                    );
                }
                // And the solver's own lifetime totals agree: no conflict
                // was lost between chunking, drain, and report assembly.
                prop_assert_eq!(conflicts, s.conflicts());
            }
        }
    }
}
