//! At one thread the benchmark repeats itself exactly: the same seed gives
//! the same inputs, the same answers and the same work counts, and another
//! seed gives other inputs.

mod common;

use common::run;

/// Per-layer counts that repeat exactly on `deduce` and `cegis` when no
/// call runs into its limit. The fixed-height probe does run into its
/// limit, so its counts are not among them.
const EXACT: [&str; 9] = [
    "deduction.smt_conflicts",
    "deduction.solved_frac",
    "divide.proposals_per_req",
    "smt.conflicts_per_req",
    "smt.decisions_per_req",
    "smt.propagations_per_req",
    "smt.simplex_pivots_per_req",
    "smt.dl_relaxations_per_req",
    "certify.smt_conflicts_per_req",
];

fn traced(workload: &str, seed: &str) -> common::Output {
    let spans = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("determinism-{workload}-{seed}.jsonl"));
    let out = run(&[
        "--workload",
        workload,
        "--seed",
        seed,
        "--requests",
        "8",
        "--timeout-ms",
        "20000",
        "--trace",
        "1",
        "--spans",
        spans.to_str().expect("utf-8 path"),
    ]);
    assert_eq!(out.code, Some(0), "{workload} traced run failed");
    out
}

#[test]
fn same_seed_repeats_inputs_answers_and_counts() {
    for workload in ["deduce", "cegis"] {
        let a = traced(workload, "1");
        let b = traced(workload, "1");
        for key in ["digest.inputs", "digest.answers"].iter().chain(&EXACT) {
            let value = |o: &common::Output| o.lines.get(*key).map(|l| l.0.clone());
            assert!(value(&a).is_some(), "{workload}: no {key}");
            assert_eq!(
                value(&a),
                value(&b),
                "{workload}: {key} differs between runs"
            );
        }
    }
}

#[test]
fn another_seed_gives_other_inputs() {
    let digest = |seed: &str| {
        let out = run(&[
            "--workload",
            "deduce",
            "--seed",
            seed,
            "--requests",
            "2",
            "--timeout-ms",
            "20000",
        ]);
        assert_eq!(out.code, Some(0));
        out.lines
            .get("digest.inputs")
            .expect("input digest")
            .0
            .clone()
    };
    assert_ne!(digest("1"), digest("2"));
}
