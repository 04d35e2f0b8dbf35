//! Every workload at tiny size: every metric the manifest names is printed
//! with its unit, the result line has the agreed shape, and the traced
//! run's spans are well formed.

mod common;

use common::{manifest, metrics, run, tiny, Output};
use sygus_ast::Json;

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[test]
fn manifest_stays_within_the_limits() {
    let doc = manifest();
    let workloads = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads");
    assert!((2..=8).contains(&workloads.len()));
    let e2e = metrics("end_to_end");
    let layer = metrics("per_layer");
    assert!((1..=16).contains(&e2e.len()));
    assert!((1..=128).contains(&layer.len()));
    assert!(e2e.iter().any(|(n, u)| n == "setup_s" && u == "s"));
    let mut names: Vec<&str> = workloads
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("workload name"))
        .chain(e2e.iter().chain(&layer).map(|(n, _)| n.as_str()))
        .collect();
    assert!(names.iter().all(|n| valid_name(n)), "{names:?}");
    let total = names.len();
    names.sort();
    names.dedup();
    assert_eq!(names.len(), total, "names are used once");
}

fn assert_prints(workload: &str, out: &Output, section: &str) {
    assert_eq!(out.code, Some(0), "{workload} {section} run failed");
    assert_eq!(
        out.result.get("correct").and_then(Json::as_bool),
        Some(true)
    );
    assert!(out.result.get("attempted").and_then(Json::as_i64) >= Some(1));
    assert_eq!(out.result.get("failed").and_then(Json::as_i64), Some(0));
    let printed = out.result.get("metrics").expect("metrics object");
    let expected = metrics(section);
    let Json::Obj(fields) = printed else {
        panic!("metrics is not an object")
    };
    assert_eq!(
        fields.len(),
        expected.len(),
        "{workload}: exactly the {section} metrics"
    );
    for (name, unit) in expected {
        let m = printed
            .get(&name)
            .unwrap_or_else(|| panic!("{workload}: no {name}"));
        assert_eq!(
            m.get("unit").and_then(Json::as_str),
            Some(unit.as_str()),
            "{name}"
        );
        assert!(
            m.get("value").and_then(Json::as_f64).is_some(),
            "{workload}: {name} is a number"
        );
        let line = out
            .lines
            .get(&name)
            .unwrap_or_else(|| panic!("{workload}: no {name} line"));
        assert_eq!(
            line.1.as_deref(),
            Some(unit.as_str()),
            "{workload}: {name} line unit"
        );
    }
}

/// Parents exist and belong to the same request, children fall inside
/// their parent, and no span's children cover more than the span.
fn assert_spans_well_formed(path: &std::path::Path) {
    let text = std::fs::read_to_string(path).expect("spans written");
    let spans: Vec<Json> = text
        .lines()
        .map(|l| Json::parse(l).expect("span line parses"))
        .collect();
    assert!(!spans.is_empty());
    let int = |s: &Json, k: &str| {
        s.get(k)
            .and_then(Json::as_i64)
            .unwrap_or_else(|| panic!("{k}"))
    };
    let mut covered = vec![0i64; spans.len()];
    for (i, s) in spans.iter().enumerate() {
        assert_eq!(int(s, "id"), i as i64);
        assert!(s.get("counters").is_some());
        assert!(int(s, "end_us") >= int(s, "start_us"));
        if let Some(p) = s.get("parent").and_then(Json::as_i64) {
            let parent = &spans[p as usize];
            assert_eq!(int(parent, "req"), int(s, "req"));
            assert!(int(s, "start_us") >= int(parent, "start_us"));
            assert!(int(s, "end_us") <= int(parent, "end_us"));
            covered[p as usize] += int(s, "end_us") - int(s, "start_us");
        }
    }
    for (s, c) in spans.iter().zip(covered) {
        assert!(
            int(s, "end_us") - int(s, "start_us") - c >= 0,
            "negative self time"
        );
    }
}

fn smoke(workload: &str) {
    let args = tiny(workload);
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    let out = run(&[args.as_slice(), &["--trace", "0"]].concat());
    assert_prints(workload, &out, "end_to_end");

    let spans =
        std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("spans-{workload}.jsonl"));
    let spans_arg = spans.to_str().expect("utf-8 path");
    let out = run(&[args.as_slice(), &["--trace", "1", "--spans", spans_arg]].concat());
    assert_prints(workload, &out, "per_layer");
    assert_spans_well_formed(&spans);
}

#[test]
fn deduce_prints_every_metric() {
    smoke("deduce");
}

#[test]
fn cegis_prints_every_metric() {
    smoke("cegis");
}

#[test]
fn hard_prints_every_metric() {
    smoke("hard");
}

#[test]
fn certify_prints_every_metric() {
    smoke("certify");
}

#[test]
fn bad_arguments_are_a_usage_error() {
    for args in [
        &["--workload", "nope"][..],
        &["--trace", "2"],
        &["--seconds"],
    ] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args(args)
            .output()
            .expect("runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty());
    }
}
