//! Build your own workload: a custom `WorkloadSpec` pushed through the
//! pipeline, plus a hand-written trace imported from a text file.
//!
//! Shows the two ways to feed the simulator something that is not one of
//! the six calibrated SPECINT95 models: (1) a parameterized synthetic
//! program, (2) an external trace in the line-oriented text format.
//!
//! Run with: `cargo run --release --example custom_workload`

use sdbp::prelude::*;
use sdbp::workloads::{Mixture, Perturbation, WorkloadSpec};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A synthetic "interpreter" workload: a big dispatch population of
    //    weakly biased branches plus a strongly biased error-check mass.
    let spec = WorkloadSpec {
        name: "interp",
        static_sites: 3000,
        cbrs_per_ki_train: 140.0,
        cbrs_per_ki_ref: 140.0,
        mixture: Mixture {
            strong_biased: 0.55,
            moderate_biased: 0.15,
            weak_biased: 0.15,
            correlated: 0.10,
            pattern: 0.03,
            loop_sites: 0.02,
        },
        zipf_exponent: 0.9,
        biased_stickiness: 0.9,
        latch_noise: 0.15,
        micro_chains: 0.3,
        straight_chains: 0.3,
        fixed_iter_chains: 0.6,
        mean_iterations: 8.0,
        perturbation: Perturbation::none(),
        train_instructions: 2_000_000,
        ref_instructions: 2_000_000,
    };
    let workload = Workload::from_spec(spec);

    // One traversal does double duty: a `tee` observer rides the first
    // simulation's event stream and feeds the trace statistics, instead of
    // spending a whole extra generation on a dedicated profiling pass.
    let mut stats = TraceStats::new();
    let mut results = Vec::new();
    {
        let mut predictor = CombinedPredictor::pure_dynamic(
            PredictorConfig::new(PredictorKind::Bimodal, 8 * 1024)?.build_any(),
        );
        let sim = Simulator::new().run(
            workload
                .generator(InputSet::Ref, 7)
                .take_instructions(2_000_000)
                .tee(|e| stats.record(e)),
            &mut predictor,
        );
        results.push((PredictorKind::Bimodal, sim));
    }
    println!(
        "custom workload 'interp': {} sites executed, {:.0} CBRs/KI, {:.1}% highly biased",
        stats.static_branches(),
        stats.cbrs_per_ki(),
        stats.dynamic_fraction_biased(0.95) * 100.0
    );

    for kind in [PredictorKind::Gshare, PredictorKind::TwoBcGskew] {
        let mut predictor =
            CombinedPredictor::pure_dynamic(PredictorConfig::new(kind, 8 * 1024)?.build_any());
        let sim = Simulator::new().run(
            workload
                .generator(InputSet::Ref, 7)
                .take_instructions(2_000_000),
            &mut predictor,
        );
        results.push((kind, sim));
    }
    for (kind, sim) in &results {
        println!("  {:<9} {:.3} MISPs/KI", kind.name(), sim.misp_per_ki());
    }

    // 2. An external trace in the text interchange format — e.g. produced
    //    by a Pin/DynamoRIO tool. Here: a tight alternating loop branch.
    let mut text = String::from("!name handwritten\n");
    for i in 0..2000 {
        text.push_str(if i % 2 == 0 {
            "1000 T 3\n"
        } else {
            "1000 N 3\n"
        });
    }
    let path = std::env::temp_dir().join(format!("handwritten-{}.txt", std::process::id()));
    std::fs::write(&path, text)?;
    let trace = sdbp::trace::import_trace(&path)?;
    std::fs::remove_file(&path)?;
    println!(
        "\nimported external trace '{}': {} branches",
        trace.meta().name,
        trace.len()
    );
    for kind in [PredictorKind::Bimodal, PredictorKind::Ghist] {
        let mut predictor =
            CombinedPredictor::pure_dynamic(PredictorConfig::new(kind, 1024)?.build_any());
        let stats = Simulator::new().run(SliceSource::from_trace(&trace), &mut predictor);
        println!(
            "  {:<9} accuracy {:.1}% on the alternating branch",
            kind.name(),
            stats.accuracy() * 100.0
        );
    }
    println!("\n(bimodal cannot learn alternation; any history predictor can)");
    Ok(())
}
