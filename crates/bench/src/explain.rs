//! The `bench explain` mode: a deterministic per-stage × per-family diff
//! table between two trajectory documents.
//!
//! Where `bench compare` answers *whether* the new trajectory regressed,
//! `explain` answers *where the time and search work moved*: it matches
//! runs by `(solver, benchmark)` key, folds each benchmark into its
//! *family* (the name with trailing digits and `_`/`-` separators
//! stripped, so `array_search_2` and `array_search_7` aggregate), and
//! prints one row per `(family, stage)` with the old and new totals, the
//! absolute delta, and the relative change. Wall time and the CDCL
//! conflict count ride along as the pseudo-stages `(wall_us)` and
//! `(search_conflicts)`, so a search-strategy change that shifted work
//! without shifting any single stage is still visible.
//!
//! The output is fully deterministic for a given pair of documents (rows
//! are sorted by family, then stage; all aggregation is integer), so two
//! CI runs over the same artifacts produce byte-identical tables.

use crate::compare::BenchDoc;
use std::collections::BTreeMap;

/// Folds a benchmark name into its family: trailing ASCII digits are
/// stripped, then trailing `_`/`-` separators (`max3` → `max`,
/// `array_search_15` → `array_search`). A name that is *all* digits keeps
/// its last character rather than collapsing to the empty string.
pub fn family(benchmark: &str) -> String {
    let mut name = benchmark;
    while name.len() > 1 && name.ends_with(|c: char| c.is_ascii_digit()) {
        name = &name[..name.len() - 1];
    }
    while name.len() > 1 && (name.ends_with('_') || name.ends_with('-')) {
        name = &name[..name.len() - 1];
    }
    name.to_owned()
}

/// Renders the per-family × per-stage diff table between two trajectory
/// documents. Only runs present in both documents (matched by
/// `(solver, benchmark)` key) contribute; families are aggregated across
/// solvers per family so the table stays readable for multi-solver
/// matrices — the solver is part of the match key, never of the row key.
pub fn explain(old: &BenchDoc, new: &BenchDoc) -> String {
    let new_by_key: BTreeMap<String, &crate::BenchRun> =
        new.runs.iter().map(|r| (r.key(), r)).collect();
    // (family, stage) -> (old total, new total); all integer micros/counts.
    let mut cells: BTreeMap<(String, String), (u64, u64)> = BTreeMap::new();
    let mut matched = 0usize;
    for old_run in &old.runs {
        let Some(new_run) = new_by_key.get(&old_run.key()) else {
            continue;
        };
        matched += 1;
        let fam = family(&old_run.benchmark);
        let mut bump = |stage: String, old_v: u64, new_v: u64| {
            let cell = cells.entry((fam.clone(), stage)).or_insert((0, 0));
            cell.0 += old_v;
            cell.1 += new_v;
        };
        bump(
            "(wall_us)".to_owned(),
            (old_run.seconds * 1e6) as u64,
            (new_run.seconds * 1e6) as u64,
        );
        if let (Some(&o), Some(&n)) = (
            old_run.search.get("conflicts_total"),
            new_run.search.get("conflicts_total"),
        ) {
            bump("(search_conflicts)".to_owned(), o, n);
        }
        for (stage, &old_micros) in &old_run.stage_micros {
            let new_micros = new_run.stage_micros.get(stage).copied().unwrap_or(0);
            bump(stage.clone(), old_micros, new_micros);
        }
        // Stages that only exist in the new run still get a row.
        for (stage, &new_micros) in &new_run.stage_micros {
            if !old_run.stage_micros.contains_key(stage) {
                bump(stage.clone(), 0, new_micros);
            }
        }
    }
    let mut out = String::new();
    out.push_str(&format!(
        "[explain] per-family x per-stage deltas ({matched} matched runs)\n"
    ));
    out.push_str(&format!(
        "{:<28}{:<20}{:>12}{:>12}{:>12}{:>9}\n",
        "family", "stage", "old", "new", "delta", "pct"
    ));
    for ((fam, stage), (old_v, new_v)) in &cells {
        if *old_v == 0 && *new_v == 0 {
            continue;
        }
        let delta = *new_v as i64 - *old_v as i64;
        let pct = if *old_v == 0 {
            "new".to_owned()
        } else {
            format!("{:+.1}%", 100.0 * delta as f64 / *old_v as f64)
        };
        out.push_str(&format!(
            "{fam:<28}{stage:<20}{old_v:>12}{new_v:>12}{delta:>+12}{pct:>9}\n"
        ));
    }
    if cells.is_empty() {
        out.push_str("(no matched runs)\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BenchRun;
    use std::collections::BTreeMap as Map;

    fn run(b: &str, seconds: f64, smt: u64, enumerate: u64, conflicts: u64) -> BenchRun {
        BenchRun {
            benchmark: b.to_owned(),
            solver: "A".to_owned(),
            solved: true,
            seconds,
            stage_micros: [("smt".to_owned(), smt), ("enum".to_owned(), enumerate)]
                .into_iter()
                .collect(),
            search: [("conflicts_total".to_owned(), conflicts)]
                .into_iter()
                .collect(),
        }
    }

    fn doc(runs: Vec<BenchRun>) -> BenchDoc {
        BenchDoc {
            version: 5,
            theory: None,
            runs,
        }
    }

    #[test]
    fn families_strip_trailing_indices() {
        assert_eq!(family("max3"), "max");
        assert_eq!(family("array_search_15"), "array_search");
        assert_eq!(family("fg_max-7"), "fg_max");
        assert_eq!(family("plain"), "plain");
        assert_eq!(family("42"), "4", "all-digit names keep a character");
    }

    #[test]
    fn table_aggregates_by_family_and_is_deterministic() {
        let old = doc(vec![
            run("max2", 1.0, 100, 50, 1000),
            run("max3", 1.0, 200, 50, 2000),
            run("search_1", 2.0, 400, 0, 500),
        ]);
        let new = doc(vec![
            run("max2", 1.0, 150, 50, 1500),
            run("max3", 1.0, 250, 50, 2500),
            run("search_1", 2.0, 400, 0, 500),
            run("only_new_9", 1.0, 10, 0, 10),
        ]);
        let table = explain(&old, &new);
        assert!(table.contains("3 matched runs"), "{table}");
        // max2 + max3 fold into one family; smt 300 -> 400.
        let smt_row = table
            .lines()
            .find(|l| l.starts_with("max") && l.contains("smt"))
            .expect("max/smt row");
        assert!(smt_row.contains("300"), "{smt_row}");
        assert!(smt_row.contains("400"), "{smt_row}");
        assert!(smt_row.contains("+33.3%"), "{smt_row}");
        // Search conflicts ride along: 3000 -> 4000 for the max family.
        let conflicts_row = table
            .lines()
            .find(|l| l.starts_with("max") && l.contains("(search_conflicts)"))
            .expect("conflicts row");
        assert!(conflicts_row.contains("+1000"), "{conflicts_row}");
        // Unmatched runs contribute nothing.
        assert!(!table.contains("only_new"), "{table}");
        // Byte-for-byte deterministic.
        assert_eq!(table, explain(&old, &new));
    }

    #[test]
    fn zero_baselines_render_as_new() {
        let mut old_run = run("b1", 1.0, 0, 0, 0);
        old_run.stage_micros = Map::new();
        old_run.search = Map::new();
        let mut new_run = run("b1", 1.0, 900, 0, 0);
        new_run.search = Map::new();
        let table = explain(&doc(vec![old_run]), &doc(vec![new_run]));
        let smt_row = table.lines().find(|l| l.contains("smt")).expect("smt row");
        assert!(smt_row.trim_end().ends_with("new"), "{smt_row}");
    }

    #[test]
    fn empty_intersection_says_so() {
        let old = doc(vec![run("b1", 1.0, 1, 1, 1)]);
        let new = doc(vec![run("b2", 1.0, 1, 1, 1)]);
        assert!(explain(&old, &new).contains("(no matched runs)"));
    }
}
