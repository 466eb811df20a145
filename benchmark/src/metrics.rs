//! The metric catalog, host measurements, and the result line.
//!
//! End-to-end metrics use host time and are measured with tracing off.
//! Per-layer metrics come from a separate traced run (see `traced.rs`).
//! `BENCHMARK.json` at the repository root lists the same names, units and
//! directions plus the regression bound of each end-to-end metric; a test
//! keeps the two in step.

use sdbp_artifacts::Json;

/// One metric: name, unit, and which direction is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// Stable metric name.
    pub name: &'static str,
    /// Unit of the value.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn def(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// What a user of the stack sees, reported on every workload.
pub const END_TO_END: [MetricDef; 4] = [
    def("wall_s", "s", "lower"),
    def("cpu_s", "s", "lower"),
    def("peak_rss_mb", "MB", "lower"),
    def("setup_s", "s", "lower"),
];

/// Per-layer metrics of the traced run, named after the module measured.
pub const PER_LAYER: [MetricDef; 42] = [
    def("workloads.gen_s", "s", "lower"),
    def("workloads.gen_events", "count", "lower"),
    def("workloads.gen_mbr_per_s", "Mbr/s", "higher"),
    def("trace.decode_s", "s", "lower"),
    def("trace.decode_events", "count", "lower"),
    def("trace.decode_mb_per_s", "MB/s", "higher"),
    def("trace.admit_s", "s", "lower"),
    def("trace.decode_errors", "count", "lower"),
    def("trace.stats_s", "s", "lower"),
    def("check.preflight_s", "s", "lower"),
    def("check.rejected", "count", "lower"),
    def("profiles.bias_s", "s", "lower"),
    def("profiles.accuracy_s", "s", "lower"),
    def("profiles.select_s", "s", "lower"),
    def("profiles.interference_s", "s", "lower"),
    def("profiles.events", "count", "lower"),
    def("profiles.hints", "count", "higher"),
    def("core.cache.trace_hits", "count", "higher"),
    def("core.cache.trace_misses", "count", "lower"),
    def("core.cache.trace_bypassed", "count", "lower"),
    def("core.cache.profile_hits", "count", "higher"),
    def("core.cache.profile_misses", "count", "lower"),
    def("core.cache.hit_rate", "frac", "higher"),
    def("passes.traversals", "count", "lower"),
    def("passes.fused_saved", "count", "higher"),
    def("passes.lockstep_saved", "count", "higher"),
    def("passes.self_s", "s", "lower"),
    def("core.simulator.measure_s", "s", "lower"),
    def("core.simulator.branches", "count", "higher"),
    def("core.simulator.mbr_per_s", "Mbr/s", "higher"),
    def("core.simulator.static_frac", "frac", "higher"),
    def("predictors.kernel_s", "s", "lower"),
    def("predictors.kernel_mbr_per_s", "Mbr/s", "higher"),
    def("core.combined.self_s", "s", "lower"),
    def("core.sweep.groups", "count", "lower"),
    def("core.sweep.threads", "count", "higher"),
    def("core.sweep.busy_s", "s", "lower"),
    def("core.sweep.idle_s", "s", "lower"),
    def("core.sweep.self_s", "s", "lower"),
    def("core.sweep.coverage", "frac", "higher"),
    def("bench.traced_wall_s", "s", "lower"),
    def("bench.tracing_overhead_frac", "frac", "lower"),
];

/// Looks a metric up in either catalog.
pub fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
}

/// The median of `values` (the mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// `numerator / denominator`, or 0 when there is nothing to divide by.
pub fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

/// User plus system CPU time of this process, in seconds, from
/// `/proc/self/stat`. It covers every thread, including those already
/// joined. Linux reports it in clock ticks of 1/100 s.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    // Fields after the parenthesised command name, which may hold spaces:
    // utime and stime are the 14th and 15th fields overall.
    let rest = &stat[stat.rfind(')').expect("stat has a command field") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields[i].parse::<u64>().expect("numeric tick count");
    (ticks(11) + ticks(12)) as f64 / 100.0
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .expect("VmHWM is reported");
    kib as f64 / 1024.0
}

/// The outcome of one benchmark run, printed as the last stdout line.
#[derive(Debug)]
pub struct RunResult {
    /// Operations attempted: cells, admissions and correctness checks.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Metric name and value, in catalog order.
    pub metrics: Vec<(&'static str, f64)>,
}

impl RunResult {
    /// Whether every operation succeeded.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The one-line JSON result.
    pub fn to_json(&self) -> String {
        let metrics = self.metrics.iter().map(|&(name, value)| {
            let unit = find(name)
                .expect("every reported metric is catalogued")
                .unit;
            (
                name,
                Json::obj([("value", Json::Float(value)), ("unit", Json::str(unit))]),
            )
        });
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Int(self.attempted as i64)),
            ("failed", Json::Int(self.failed as i64)),
            ("metrics", Json::obj(metrics)),
        ])
        .render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'.' || b == b'-')
    }

    #[test]
    fn metric_names_are_plain_and_unique() {
        let all: Vec<&MetricDef> = END_TO_END.iter().chain(PER_LAYER.iter()).collect();
        for m in &all {
            assert!(valid_name(m.name), "{}", m.name);
            assert!(m.name.as_bytes()[0].is_ascii_alphanumeric(), "{}", m.name);
            assert!(m.better == "lower" || m.better == "higher", "{}", m.name);
            assert!(
                m.unit
                    .bytes()
                    .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b)),
                "{}",
                m.unit
            );
        }
        let mut names: Vec<&str> = all.iter().map(|m| m.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len(), "names are unique");
    }

    #[test]
    fn median_and_ratio() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }

    #[test]
    fn proc_readers_see_this_process() {
        assert!(peak_rss_mb() > 0.0);
        assert!(cpu_seconds() >= 0.0);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let result = RunResult {
            attempted: 3,
            failed: 0,
            metrics: vec![("wall_s", 1.25), ("setup_s", 0.5)],
        };
        let json = Json::parse(&result.to_json()).unwrap();
        let keys: Vec<&str> = json
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(json.get("correct").and_then(Json::as_bool), Some(true));
        let wall = json.get("metrics").and_then(|m| m.get("wall_s")).unwrap();
        assert_eq!(wall.get("unit").and_then(Json::as_str), Some("s"));
    }
}
