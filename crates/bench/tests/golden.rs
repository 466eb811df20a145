//! The golden-output identity: the full experiment suite, run in
//! `all_experiments` order on one `Lab`, must reproduce the checked-in
//! `results_full.txt` byte for byte.
//!
//! About 13 s optimised, so debug builds skip it:
//!
//! ```console
//! cargo test --release -p sdbp-bench --test golden
//! ```

use sdbp_bench::experiments::SUITE;
use sdbp_core::Lab;

const GOLDEN: &str = include_str!("../../../results_full.txt");

#[test]
#[cfg_attr(debug_assertions, ignore = "release-only: ~13 s optimised")]
fn all_experiments_reproduce_results_full() {
    assert_eq!(
        sdbp_bench::scale(),
        1.0,
        "SDBP_SCALE changes every number; unset it"
    );
    let lab = Lab::new();
    let mut text = String::new();
    for experiment in SUITE {
        text.push_str(&experiment(&lab));
        text.push('\n');
    }
    if text != GOLDEN {
        let same = text
            .lines()
            .zip(GOLDEN.lines())
            .take_while(|(got, want)| got == want)
            .count();
        panic!(
            "output differs from results_full.txt from line {}",
            same + 1
        );
    }
}
