//! The sdbp benchmark: four workloads, end-to-end metrics measured with
//! tracing off, and a per-layer split from a separate traced run.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- run \
//!     [--workload W] [--seed N] [--seconds N] [--trace 0|1] [--quick]
//! ```
//!
//! `run` is the parent: it never simulates anything itself. Each round is a
//! fresh child process (this binary's `child` command) that sets up the
//! workload, runs its timed phase once and reports one sample, so peak RSS
//! never leaks between rounds or workloads. Rounds repeat until their timed
//! phases add up to `--seconds`; see [`estimate`] for how their samples
//! become one value, and `benchmark/README.md` for the workloads and metrics.

#![forbid(unsafe_code)]

mod metrics;
mod spans;
mod traced;
mod workloads;

use metrics::{cpu_seconds, median, peak_rss_mb, RunResult, END_TO_END, PER_LAYER};
use sdbp_artifacts::Json;
use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Instant, SystemTime, UNIX_EPOCH};
use workloads::{Budgets, Check, Workload};

/// Default length of the measured part of a run, in seconds.
const DEFAULT_SECONDS: f64 = 10.0;

/// Rounds a run takes at least, however long they are: a slow round must
/// not leave a run with a single, disturbed sample.
const MIN_ROUNDS: usize = 2;

/// Set-up samples a run takes at least, spawning set-up-only children when
/// the timed rounds alone give fewer.
const MIN_SETUPS: usize = 5;

/// Environment variable carrying the parent's spawn time (ns since the Unix
/// epoch) to a child, so `setup_s` includes process start.
const SPAWN_ENV: &str = "SDBP_BENCH_SPAWN_NS";

const USAGE: &str =
    "usage: sdbp-benchmark run [--workload W] [--seed N] [--seconds N] [--trace 0|1] [--quick]";

fn unix_ns() -> u128 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos())
}

/// Parsed command-line options shared by `run` and `child`.
#[derive(Debug, Clone)]
struct Options {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    traced: bool,
    quick: bool,
    role: Role,
    deep_checks: bool,
}

/// What a child process does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    /// Set-up only: reports `setup_s`.
    Setup,
    /// Set-up, the production timed phase, then checks.
    Timed,
    /// Set-up, the traced timed phase, then the traced-vs-untraced check.
    Traced,
}

impl Role {
    fn name(self) -> &'static str {
        match self {
            Role::Setup => "setup",
            Role::Timed => "timed",
            Role::Traced => "traced",
        }
    }
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        workloads: Workload::ALL.to_vec(),
        seed: 1,
        seconds: DEFAULT_SECONDS,
        traced: false,
        quick: false,
        role: Role::Timed,
        deep_checks: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                options.workloads =
                    vec![Workload::parse(name).ok_or(format!("unknown workload '{name}'"))?];
            }
            "--seed" => {
                options.seed = value()?
                    .parse()
                    .map_err(|e| format!("invalid --seed: {e}"))?
            }
            "--seconds" => {
                options.seconds = value()?
                    .parse()
                    .map_err(|e| format!("invalid --seconds: {e}"))?
            }
            "--trace" => {
                options.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            "--quick" => options.quick = true,
            "--role" => {
                options.role = match value()?.as_str() {
                    "setup" => Role::Setup,
                    "timed" => Role::Timed,
                    "traced" => Role::Traced,
                    other => return Err(format!("unknown role '{other}'")),
                }
            }
            "--deep-checks" => options.deep_checks = true,
            other => return Err(format!("unknown argument '{other}'\n{USAGE}")),
        }
    }
    Ok(options)
}

/// The per-run value of an end-to-end metric from its rounds, each round
/// given as the values of its steps (one step for all but the timed phase
/// of the paper suite, which times each of its experiments).
///
/// Interference from other tenants of the host only ever slows work down,
/// in bursts of seconds, so the fastest measurement of a deterministic step
/// is its least disturbed one: times sum each step's fastest round. Peak
/// memory does not suffer from interference but varies with thread
/// interleaving, and set-up is one short step: those take the median round.
fn estimate(metric: &str, rounds: &[Vec<f64>]) -> f64 {
    match metric {
        "wall_s" | "cpu_s" => {
            let steps = rounds.iter().map(Vec::len).min().unwrap_or(0);
            (0..steps)
                .map(|i| rounds.iter().map(|r| r[i]).fold(f64::INFINITY, f64::min))
                .sum()
        }
        _ => median(&rounds.iter().map(|r| r.iter().sum()).collect::<Vec<f64>>()),
    }
}

/// Worker threads of every sweep: at most two, never more than the host has.
fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

fn budgets(quick: bool) -> Budgets {
    if quick {
        Budgets::QUICK
    } else {
        Budgets::FULL
    }
}

fn num(json: &Json) -> Option<f64> {
    match json {
        Json::Int(v) => Some(*v as f64),
        Json::Float(v) => Some(*v),
        _ => None,
    }
}

/// One child's report, as parsed by the parent.
struct Sample(Json);

impl Sample {
    fn value(&self, key: &str) -> f64 {
        self.0.get(key).and_then(num).unwrap_or(0.0)
    }

    /// A metric's per-step values (`steps.<key>`), or its single value.
    fn steps(&self, key: &str) -> Vec<f64> {
        match self
            .0
            .get("steps")
            .and_then(|s| s.get(key))
            .and_then(Json::as_arr)
        {
            Some(values) => values.iter().filter_map(num).collect(),
            None => vec![self.value(key)],
        }
    }

    fn count(&self, key: &str) -> u64 {
        self.0.get(key).and_then(Json::as_u64).unwrap_or(0)
    }

    fn layers(&self) -> BTreeMap<String, f64> {
        self.0
            .get("layers")
            .and_then(Json::as_obj)
            .map(|members| {
                members
                    .iter()
                    .filter_map(|(k, v)| num(v).map(|v| (k.clone(), v)))
                    .collect()
            })
            .unwrap_or_default()
    }

    fn failures(&self) -> Vec<String> {
        self.0
            .get("failures")
            .and_then(Json::as_arr)
            .map(|a| {
                a.iter()
                    .filter_map(|f| f.as_str().map(str::to_string))
                    .collect()
            })
            .unwrap_or_default()
    }
}

/// Spawns one child and waits for its sample.
fn spawn(
    options: &Options,
    workload: Workload,
    role: Role,
    deep_checks: bool,
) -> Result<Sample, String> {
    let exe =
        std::env::current_exe().map_err(|e| format!("cannot locate the benchmark binary: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args([
            "child",
            "--workload",
            workload.name(),
            "--role",
            role.name(),
        ])
        .args(["--seed", &options.seed.to_string()])
        .env("SDBP_THREADS", threads().to_string())
        .env(SPAWN_ENV, unix_ns().to_string())
        // Pin the stack's own knobs: every child runs the configuration
        // the benchmark defines, whatever the caller's environment says.
        .env_remove("SDBP_TRACE_CACHE")
        .env_remove("SDBP_STORE")
        .env_remove("SDBP_RESUME")
        .env_remove("SDBP_SCALE")
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if options.quick {
        command.arg("--quick");
    }
    if let Some(scale) = budgets(options.quick).suite_scale {
        command.env("SDBP_SCALE", scale);
    }
    if deep_checks {
        command.arg("--deep-checks");
    }
    let output = command
        .output()
        .map_err(|e| format!("cannot start a {} child: {e}", role.name()))?;
    if !output.status.success() {
        return Err(format!(
            "{} child for {} failed: {}",
            role.name(),
            workload.name(),
            output.status
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .unwrap_or("");
    Json::parse(line)
        .map(Sample)
        .map_err(|e| format!("unreadable {} child output: {e}", role.name()))
}

/// Runs one workload as the parent and returns its result.
fn run_workload(options: &Options, workload: Workload) -> RunResult {
    let mut result = RunResult {
        attempted: 0,
        failed: 0,
        metrics: Vec::new(),
    };
    // Failure messages, and the children that could not run at all: each
    // of those is one more failed operation.
    let mut failures = Vec::new();
    let mut broken = 0u64;
    let note = |result: &mut RunResult, failures: &mut Vec<String>, sample: &Sample| {
        result.attempted += sample.count("attempted");
        result.failed += sample.count("failed");
        failures.extend(sample.failures());
    };
    let mut rounds = 0;
    let mut round_samples: Vec<(&str, Vec<f64>)> = Vec::new();
    if options.traced {
        match (
            spawn(options, workload, Role::Timed, false),
            spawn(options, workload, Role::Traced, false),
        ) {
            (Ok(untraced), Ok(traced)) => {
                note(&mut result, &mut failures, &untraced);
                note(&mut result, &mut failures, &traced);
                let mut layers = traced.layers();
                layers.extend(untraced.layers());
                let overhead = traced.value("wall_s") / untraced.value("wall_s") - 1.0;
                layers.insert("bench.tracing_overhead_frac".to_string(), overhead);
                for def in PER_LAYER {
                    match layers.get(def.name) {
                        Some(&v) => result.metrics.push((def.name, v)),
                        None => {
                            broken += 1;
                            failures.push(format!("metric {} was not measured", def.name));
                        }
                    }
                }
            }
            (a, b) => {
                for e in [a.err(), b.err()].into_iter().flatten() {
                    broken += 1;
                    failures.push(e);
                }
            }
        }
    } else {
        let mut samples = Vec::new();
        let mut measured = 0.0;
        while samples.len() < MIN_ROUNDS || measured < options.seconds {
            // Oracle reruns cost time outside the timed phase: one round
            // per run carries them.
            match spawn(options, workload, Role::Timed, samples.is_empty()) {
                Ok(sample) => {
                    note(&mut result, &mut failures, &sample);
                    measured += sample.value("wall_s");
                    samples.push(sample);
                }
                Err(e) => {
                    broken += 1;
                    failures.push(e);
                    break;
                }
            }
        }
        rounds = samples.len();
        let mut setups: Vec<f64> = samples.iter().map(|s| s.value("setup_s")).collect();
        while !samples.is_empty() && setups.len() < MIN_SETUPS {
            match spawn(options, workload, Role::Setup, false) {
                Ok(sample) => setups.push(sample.value("setup_s")),
                Err(e) => {
                    broken += 1;
                    failures.push(e);
                    break;
                }
            }
        }
        if !samples.is_empty() {
            for def in END_TO_END {
                let rounds: Vec<Vec<f64>> = if def.name == "setup_s" {
                    setups.iter().map(|&v| vec![v]).collect()
                } else {
                    samples.iter().map(|s| s.steps(def.name)).collect()
                };
                result.metrics.push((def.name, estimate(def.name, &rounds)));
                round_samples.push((def.name, rounds.iter().map(|r| r.iter().sum()).collect()));
            }
        }
    }
    result.attempted += broken;
    result.failed += broken;

    let mode = if options.traced {
        "traced".to_string()
    } else {
        format!("{rounds} rounds")
    };
    println!(
        "workload {} (seed {}, {} threads, {mode}): {}",
        workload.name(),
        options.seed,
        threads(),
        workload.why()
    );
    for &(name, value) in &result.metrics {
        let unit = metrics::find(name).map_or("", |m| m.unit);
        println!("  {name:<30} {value:>14.6} {unit}");
    }
    for (name, values) in &round_samples {
        let values: Vec<String> = values.iter().map(|v| format!("{v:.6}")).collect();
        println!("  samples {name}: {}", values.join(" "));
    }
    println!(
        "  {:<30} {:>14} failed/attempted",
        "error_rate",
        format!("{}/{}", result.failed, result.attempted)
    );
    for failure in &failures {
        println!("  FAILED: {failure}");
    }
    result
}

/// A child's `attempted`, `failed` and `failures` fields: operations are
/// cells, admissions and checks, and every failure is listed.
fn verdict(operations: u64, failed: &[String], checks: &[Check]) -> [(&'static str, Json); 3] {
    let failures: Vec<Json> = failed
        .iter()
        .chain(checks.iter().filter_map(|c| c.as_ref().err()))
        .map(|e| Json::str(e.as_str()))
        .collect();
    let attempted = operations + checks.len() as u64;
    [
        ("attempted", Json::Int(attempted as i64)),
        ("failed", Json::Int(failures.len() as i64)),
        ("failures", Json::Arr(failures)),
    ]
}

/// Runs as a child: one set-up and at most one timed phase, then prints its
/// sample as one JSON line.
fn child(options: &Options) -> Result<Json, String> {
    let started = Instant::now();
    let workload = options.workloads[0];
    let budgets = budgets(options.quick);
    let prepared = workloads::setup(workload, options.seed, budgets)
        .map_err(|e| format!("set-up of {} failed: {e}", workload.name()))?;
    let setup_s = std::env::var(SPAWN_ENV)
        .ok()
        .and_then(|v| v.parse::<u128>().ok())
        .map_or(started.elapsed().as_secs_f64(), |spawned| {
            unix_ns().saturating_sub(spawned) as f64 / 1e9
        });
    let threads = threads();
    match options.role {
        Role::Setup => Ok(Json::obj([("setup_s", Json::Float(setup_s))])),
        Role::Timed => {
            let cpu_before = cpu_seconds();
            let timed = Instant::now();
            let outcome = workloads::run(&prepared, threads);
            let wall_s = timed.elapsed().as_secs_f64();
            let cpu_s = cpu_seconds() - cpu_before;
            let rss = peak_rss_mb();
            let steps = |pick: fn(&(f64, f64)) -> f64| {
                Json::Arr(outcome.steps.iter().map(|s| Json::Float(pick(s))).collect())
            };
            let steps = Json::obj([("wall_s", steps(|s| s.0)), ("cpu_s", steps(|s| s.1))]);
            let checks = workloads::check(&prepared, &outcome, options.deep_checks);
            let c = outcome.cache;
            let cache = [
                ("core.cache.trace_hits", c.trace_hits as f64),
                ("core.cache.trace_misses", c.trace_misses as f64),
                ("core.cache.trace_bypassed", c.trace_bypassed as f64),
                (
                    "core.cache.profile_hits",
                    (c.bias_hits + c.accuracy_hits) as f64,
                ),
                (
                    "core.cache.profile_misses",
                    (c.bias_misses + c.accuracy_misses) as f64,
                ),
                ("core.cache.hit_rate", c.hit_rate()),
                ("passes.fused_saved", c.fused_traversals_saved as f64),
                ("passes.lockstep_saved", c.lockstep_traversals_saved as f64),
            ];
            let mut sample = vec![
                ("setup_s", Json::Float(setup_s)),
                ("wall_s", Json::Float(wall_s)),
                ("cpu_s", Json::Float(cpu_s)),
                ("peak_rss_mb", Json::Float(rss)),
                ("steps", steps),
                ("layers", Json::obj(cache.map(|(k, v)| (k, Json::Float(v))))),
            ];
            sample.extend(verdict(outcome.operations, &outcome.failures, &checks));
            Ok(Json::obj(sample))
        }
        Role::Traced => {
            let run = traced::run(&prepared, threads);
            let checks = traced::oracle(&prepared, &run, threads);
            let layers = run.layers.iter().map(|(&k, &v)| (k, Json::Float(v)));
            let mut sample = vec![
                ("wall_s", Json::Float(run.layers["bench.traced_wall_s"])),
                ("layers", Json::obj(layers)),
            ];
            sample.extend(verdict(0, &[], &checks));
            Ok(Json::obj(sample))
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let options = match parse(&args[1..]) {
        Ok(options) => options,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    match command.as_str() {
        "run" => {
            let mut all_correct = true;
            for &workload in &options.workloads {
                let result = run_workload(&options, workload);
                all_correct &= result.correct();
                println!("{}", result.to_json());
            }
            if all_correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        "child" => match child(&options) {
            Ok(sample) => {
                for failure in sample.get("failures").and_then(Json::as_arr).unwrap_or(&[]) {
                    eprintln!("check failed: {}", failure.as_str().unwrap_or("?"));
                }
                println!("{}", sample.render());
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("{e}");
                ExitCode::FAILURE
            }
        },
        _ => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn repo_benchmark_json() -> Json {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        Json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn names(json: &Json, key: &str) -> Vec<String> {
        json.get(key)
            .and_then(Json::as_arr)
            .expect("array")
            .iter()
            .map(|m| {
                m.get("name")
                    .and_then(Json::as_str)
                    .expect("name")
                    .to_string()
            })
            .collect()
    }

    #[test]
    fn benchmark_json_matches_what_the_runner_emits() {
        let json = repo_benchmark_json();
        let workloads: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(names(&json, "workloads"), workloads);
        for (entry, w) in json
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .zip(Workload::ALL)
        {
            assert_eq!(entry.get("why").and_then(Json::as_str), Some(w.why()));
        }
        for (key, catalog) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let entries = json.get(key).and_then(Json::as_arr).unwrap();
            assert_eq!(entries.len(), catalog.len(), "{key}");
            for (entry, def) in entries.iter().zip(catalog) {
                assert_eq!(entry.get("name").and_then(Json::as_str), Some(def.name));
                assert_eq!(entry.get("unit").and_then(Json::as_str), Some(def.unit));
                assert_eq!(entry.get("better").and_then(Json::as_str), Some(def.better));
            }
        }
        let seconds = json.get("run_seconds").and_then(Json::as_u64).unwrap();
        assert_eq!(seconds as f64, DEFAULT_SECONDS);
    }

    #[test]
    fn times_sum_each_steps_fastest_round_and_the_rest_take_the_median() {
        let single: Vec<Vec<f64>> = [3.0, 1.0, 2.0, 10.0].iter().map(|&v| vec![v]).collect();
        assert_eq!(estimate("wall_s", &single), 1.0);
        assert_eq!(estimate("peak_rss_mb", &single), 2.5);
        assert_eq!(estimate("setup_s", &single), 2.5);
        // Two rounds of three steps, each disturbed in a different step.
        let stepped = vec![vec![1.0, 9.0, 3.0], vec![5.0, 2.0, 3.0]];
        assert_eq!(estimate("cpu_s", &stepped), 1.0 + 2.0 + 3.0);
    }

    #[test]
    fn driver_flags_parse() {
        let args: Vec<String> = [
            "--workload",
            "long_stream",
            "--seed",
            "9",
            "--seconds",
            "3",
            "--trace",
            "1",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let o = parse(&args).unwrap();
        assert_eq!(o.workloads, vec![Workload::LongStream]);
        assert_eq!((o.seed, o.seconds, o.traced), (9, 3.0, true));
        assert!(parse(&["--trace".to_string(), "2".to_string()]).is_err());
        assert!(parse(&["--bogus".to_string()]).is_err());
    }
}
