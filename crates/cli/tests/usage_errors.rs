//! Command lines `sdbp` must refuse before running anything: each exits 2
//! (a usage error) and its stderr names the option or the problem.

use std::process::Command;

/// Runs `sdbp` and returns its exit code and stderr.
fn sdbp(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_sdbp"))
        .args(args)
        .current_dir(std::env::temp_dir())
        .output()
        .expect("sdbp runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// Asserts `args` exit 2 with every needle in stderr.
fn assert_usage_error(args: &[&str], needles: &[&str]) {
    let (code, stderr) = sdbp(args);
    assert_eq!(code, Some(2), "{args:?}: {stderr}");
    for needle in needles {
        assert!(stderr.contains(needle), "{args:?}: {stderr}");
    }
}

#[test]
fn a_misspelt_option_suggests_the_declared_one() {
    let sim = [
        "sim",
        "--benchmark",
        "compress",
        "--size",
        "2048",
        "--instructions",
        "200000",
        "--sheme",
        "static_95",
    ];
    assert_usage_error(&sim, &["'--sheme'", "did you mean '--scheme'?"]);
    let check = ["check", "--benchmark", "compress", "--sheme", "static_95"];
    assert_usage_error(&check, &["'--sheme'", "did you mean '--scheme'?"]);
    let grid = [
        "grid",
        "--benchmark",
        "compress",
        "--size",
        "2048",
        "--instructions",
        "20000",
        "--store",
        "D",
        "--max-cell",
        "3",
    ];
    assert_usage_error(&grid, &["'--max-cell'", "did you mean '--max-cells'?"]);
}

#[test]
fn a_retired_option_is_unknown() {
    // The history length is derived from the size; there is no option to
    // declare it.
    assert_usage_error(&["check", "--history", "12"], &["'--history'"]);
}

#[test]
fn a_value_option_needs_its_value() {
    let grid = [
        "grid",
        "--benchmark",
        "compress",
        "--size",
        "2048",
        "--instructions",
        "20000",
        "--store",
        "D",
        "--max-cells",
    ];
    assert_usage_error(&grid, &["'--max-cells' needs a value"]);
    let sim = [
        "sim",
        "--benchmark",
        "compress",
        "--size",
        "--instructions",
        "200000",
    ];
    assert_usage_error(&sim, &["'--size' needs a value"]);
}

#[test]
fn a_flag_takes_no_value() {
    let sim = ["sim", "--benchmark", "compress", "--shift", "yes"];
    assert_usage_error(&sim, &["'--shift' takes no value"]);
    assert_usage_error(&["sim", "--shift=1"], &["'--shift' takes no value"]);
}

#[test]
fn a_required_option_must_be_given() {
    assert_usage_error(&["gen", "--benchmark", "compress"], &["requires --out"]);
    assert_usage_error(&["ingest"], &["requires --trace"]);
}

#[test]
fn an_option_the_mode_never_reads_is_refused() {
    let dir = std::env::temp_dir().join(format!("sdbp-usage-errors-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("t.sdbt");
    let trace = trace.to_str().unwrap();
    let (code, stderr) = sdbp(&[
        "gen",
        "--benchmark",
        "compress",
        "--instructions",
        "20000",
        "--out",
        trace,
    ]);
    assert_eq!(code, Some(0), "{stderr}");
    assert_usage_error(
        &["sim", "--trace", trace, "--scheme", "static_95"],
        &["--scheme cannot be combined with --trace"],
    );
    assert_usage_error(
        &["sim", "--benchmark", "compress", "--hints", "H"],
        &["--hints requires --trace"],
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_bad_spec_value_carries_its_diagnostic() {
    assert_usage_error(
        &["sim", "--benchmark", "compres"],
        &["SDBP013", "did you mean 'compress'?"],
    );
    // Retired predictor kinds are unknown names, not silent aliases.
    for retired in ["yags", "e-gskew", "local"] {
        let unknown = format!("unknown predictor '{retired}'");
        assert_usage_error(
            &["sim", "--predictor", retired],
            &["SDBP001", unknown.as_str()],
        );
    }
}
