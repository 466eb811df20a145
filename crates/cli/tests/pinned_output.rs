//! Per-branch diagnostics whose stdout is pinned byte for byte: `sdbp
//! hotspots` and `sdbp bench diag_classes` each run their own pass next to
//! the measurement's accounting rule, so any drift in either shows here.

use std::process::Command;

/// Runs `sdbp` and returns its stdout, asserting it succeeded.
fn stdout(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_sdbp"))
        .args(args)
        .current_dir(std::env::temp_dir())
        .output()
        .expect("sdbp runs");
    assert!(
        out.status.success(),
        "{args:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

#[test]
fn hotspots_on_compress_are_pinned() {
    let args = [
        "hotspots",
        "--benchmark",
        "compress",
        "--instructions",
        "200000",
    ];
    assert_eq!(stdout(&args), HOTSPOTS);
}

#[test]
fn diag_classes_on_compress_are_pinned() {
    let args = ["bench", "diag_classes", "--benchmark", "compress"];
    assert_eq!(stdout(&args), DIAG_CLASSES);
}

const HOTSPOTS: &str = r"gshare 8192B on compress.ref: 10.845 MISPs/KI (90.74% accuracy, 23422 branches, 374 collisions) — top 15 branches cover 60% of mispredictions

pc       executed  mispredicted   rate  collisions
--------------------------------------------------
0xd6c74     1,867           241  12.9%          14
0xd6c24     1,867           196  10.5%          18
0xf5a70       640           112  17.5%          21
0xd4cc4       189            88  46.6%          18
0xf2f24       272            86  31.6%           3
0xf5ae8       640            85  13.3%          23
0xd6c50     1,867            79   4.2%          19
0xd6bb4     1,867            77   4.1%          35
0xf5b14       640            70  10.9%          11
0xf5a28       640            69  10.8%          14
0xd0d60       110            47  42.7%           1
0xf4820        78            43  55.1%           8
0xd0d7c       110            40  36.4%           0
0xf5a54       640            38   5.9%           7
0xd4c54       189            35  18.5%           6

";

const DIAG_CLASSES: &str = r"compress / gshare 8192B: overall acc 93.10%  misp/KI 8.34  collisions 24062
  strong        208060 execs ( 28.7%)  acc  97.74%
  weak          187325 execs ( 25.8%)  acc  91.72%
  backedge      137201 execs ( 18.9%)  acc  90.51%
  follow         90291 execs ( 12.5%)  acc  91.83%
  moderate       67627 execs (  9.3%)  acc  94.71%
  loop           18792 execs (  2.6%)  acc  78.22%
  pattern        15701 execs (  2.2%)  acc  88.71%
";
