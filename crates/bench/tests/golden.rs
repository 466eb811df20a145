//! The golden-output identity: the full experiment suite, rendered by
//! `experiments::all_experiments` on one `Lab` (what `sdbp bench
//! all_experiments` writes), must reproduce the checked-in
//! `results_full.txt` byte for byte, and `headline` must print the
//! abstract's two cells as pinned below.
//!
//! About 13 s optimised, so debug builds skip it:
//!
//! ```console
//! cargo test --release -p sdbp-bench --test golden
//! ```

use sdbp_bench::experiments;
use sdbp_core::Lab;

const GOLDEN: &str = include_str!("../../../results_full.txt");

/// `sdbp bench headline`'s text at the default scale.
const HEADLINE: &str = "\
Headline 1: ghist 4KB on m88ksim (paper: up to +75% MISPs/KI with static prediction)
  measured: best improvement +34.0%
Headline 2: 2bcgskew 2KB on gcc (paper: up to +14% MISPs/KI with static prediction)
  measured: best improvement +9.9%";

fn assert_default_scale() {
    assert_eq!(
        sdbp_bench::scale(),
        1.0,
        "SDBP_SCALE changes every number; unset it"
    );
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release-only: ~13 s optimised")]
fn all_experiments_reproduce_results_full() {
    assert_default_scale();
    let text = experiments::all_experiments(&Lab::new());
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

#[test]
#[cfg_attr(debug_assertions, ignore = "release-only: ~1 s optimised")]
fn headline_reproduces_the_pinned_cells() {
    assert_default_scale();
    assert_eq!(experiments::headline(&Lab::new()), HEADLINE);
}
