//! Helpers shared by the benchmark's integration tests: run the binary and
//! read back what it printed.

#![allow(dead_code)]

use std::collections::BTreeMap;
use std::process::Command;
use sygus_ast::Json;

/// What one run printed.
pub struct Output {
    pub code: Option<i32>,
    /// `workload key value [unit]` lines, keyed by `key`: (value, unit).
    pub lines: BTreeMap<String, (String, Option<String>)>,
    /// The final JSON result line.
    pub result: Json,
}

/// Runs the benchmark with `args` and parses its standard output.
pub fn run(args: &[&str]) -> Output {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let mut text: Vec<&str> = stdout.lines().collect();
    let last = text.pop().unwrap_or_else(|| {
        panic!(
            "no output from {args:?}; stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        )
    });
    let result = Json::parse(last).unwrap_or_else(|e| panic!("bad result line `{last}`: {e}"));
    let mut lines = BTreeMap::new();
    for line in text {
        let fields: Vec<&str> = line.split(' ').collect();
        match fields.as_slice() {
            [_, key, value] => lines.insert(key.to_string(), (value.to_string(), None)),
            [_, key, value, unit] => {
                lines.insert(key.to_string(), (value.to_string(), Some(unit.to_string())))
            }
            _ => panic!("unexpected output line `{line}`"),
        };
    }
    Output {
        code: out.status.code(),
        lines,
        result,
    }
}

/// The repository's `BENCHMARK.json`.
pub fn manifest() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

/// (name, unit) of every metric in one section of the manifest.
pub fn metrics(section: &str) -> Vec<(String, String)> {
    manifest()
        .get(section)
        .and_then(Json::as_arr)
        .expect("metric section")
        .iter()
        .map(|m| {
            let field = |k| m.get(k).and_then(Json::as_str).expect(k).to_owned();
            (field("name"), field("unit"))
        })
        .collect()
}

/// Arguments for a tiny run: five requests (two `hard` problems) with a
/// short limit.
pub fn tiny(workload: &str) -> Vec<String> {
    let requests = if workload == "hard" { "2" } else { "5" };
    [
        "--workload",
        workload,
        "--seed",
        "1",
        "--seconds",
        "60",
        "--requests",
        requests,
        "--timeout-ms",
        "500",
    ]
    .map(str::to_owned)
    .to_vec()
}
