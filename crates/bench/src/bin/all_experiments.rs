//! Runs the complete experiment suite — every table and figure of the paper
//! plus the ablations — sharing one [`sdbp_core::Lab`] (and therefore one
//! artifact cache) so each workload is profiled once across all grids. Every
//! grid runs through the parallel sweep engine; scale budgets with
//! `SDBP_SCALE` (default 1.0) and pin worker threads with `SDBP_THREADS`.
use sdbp_bench::experiments;

fn main() {
    let lab = sdbp_core::Lab::new();
    let started = std::time::Instant::now();
    for experiment in experiments::SUITE {
        println!("{}", experiment(&lab));
    }
    eprintln!(
        "all experiments completed in {:.1?} on {} threads; lifetime cache: {}",
        started.elapsed(),
        sdbp_core::default_threads(),
        lab.cache().stats()
    );
}
