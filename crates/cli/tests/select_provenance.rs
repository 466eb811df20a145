//! `sdbp select --profile FILE` checks FILE's provenance header against the
//! run it selects for, with the same diagnostics `sdbp check --profile`
//! reports: a profile of another benchmark is refused (exit 1), a matching
//! one still yields its hints.

use std::path::Path;
use std::process::{Command, Output};

fn sdbp(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_sdbp"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("sdbp runs")
}

#[test]
fn select_refuses_a_profile_of_another_benchmark() {
    let dir = std::env::temp_dir().join(format!("sdbp-select-provenance-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let budget = ["--instructions", "50000"];
    let mut profile = vec!["profile", "--benchmark", "compress", "--out", "c.prof"];
    profile.extend_from_slice(&budget);
    assert!(sdbp(&dir, &profile).status.success());

    let select = |benchmark: &str, out: &str| {
        let mut args = vec!["select", "--profile", "c.prof", "--benchmark", benchmark];
        args.extend_from_slice(&["--scheme", "static_acc", "--out", out]);
        args.extend_from_slice(&budget);
        sdbp(&dir, &args)
    };

    let mismatched = select("gcc", "gcc.hints");
    let stderr = String::from_utf8_lossy(&mismatched.stderr);
    assert_eq!(mismatched.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("SDBP030"), "{stderr}");
    assert!(
        !dir.join("gcc.hints").exists(),
        "no hints from a foreign profile"
    );

    let matching = select("compress", "compress.hints");
    let stdout = String::from_utf8_lossy(&matching.stdout);
    assert!(matching.status.success(), "{stdout}");
    assert!(stdout.contains("static hints"), "{stdout}");
    let hints = std::fs::read_to_string(dir.join("compress.hints")).unwrap();
    assert!(
        hints.lines().count() > 0,
        "a matching profile still selects hints"
    );
    std::fs::remove_dir_all(&dir).ok();
}
