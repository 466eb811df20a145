//! A `--quick` run of all four workloads, untraced and traced, must pass
//! every correctness check and report every catalogued metric.

use sdbp_artifacts::Json;
use std::process::Command;

fn run(trace: &str) -> Vec<Json> {
    let output = Command::new(env!("CARGO_BIN_EXE_sdbp-benchmark"))
        .args(["run", "--quick", "--seconds", "0", "--trace", trace])
        .output()
        .expect("the benchmark binary starts");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(output.status.success(), "--trace {trace} failed:\n{stdout}");
    stdout
        .lines()
        .filter(|l| l.starts_with('{'))
        .map(|l| Json::parse(l).expect("result lines are JSON"))
        .collect()
}

fn metric_names(result: &Json) -> Vec<&str> {
    result
        .get("metrics")
        .and_then(Json::as_obj)
        .expect("a metrics object")
        .iter()
        .map(|(name, _)| name.as_str())
        .collect()
}

#[test]
fn quick_runs_pass_their_checks_and_report_every_metric() {
    for (trace, expected) in [("0", 4), ("1", 42)] {
        let results = run(trace);
        assert_eq!(results.len(), 4, "one result line per workload");
        for result in &results {
            assert_eq!(result.get("correct").and_then(Json::as_bool), Some(true));
            assert_eq!(result.get("failed").and_then(Json::as_u64), Some(0));
            assert!(result.get("attempted").and_then(Json::as_u64) > Some(0));
            assert_eq!(metric_names(result).len(), expected, "--trace {trace}");
        }
    }
}
