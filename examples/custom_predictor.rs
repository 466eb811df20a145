//! Bring your own predictor: implementing [`DynamicPredictor`] for a custom
//! scheme and running it through the full experiment pipeline.
//!
//! The example implements a *loop predictor* — a per-address table that
//! learns a branch's last run length of taken outcomes and predicts
//! not-taken exactly at the learned trip count — and combines it with
//! static hints, exactly like the built-in predictors.
//!
//! Run with: `cargo run --release --example custom_predictor`

use sdbp::prelude::*;

/// A toy per-address loop predictor.
///
/// Each entry tracks the current run of consecutive taken outcomes and the
/// length of the last completed run. Prediction: taken, unless the current
/// run has reached the learned length (then the loop is about to exit).
struct LoopPredictor {
    entries: Vec<LoopEntry>,
    collisions: u64,
    tags: Vec<Option<BranchAddr>>,
}

#[derive(Debug, Clone, Copy, Default)]
struct LoopEntry {
    current_run: u32,
    learned_trip: u32,
    confident: bool,
}

impl LoopPredictor {
    fn new(size_bytes: usize) -> Self {
        // Each entry is modeled as ~8 bytes of state.
        let entries = (size_bytes / 8).next_power_of_two();
        Self {
            entries: vec![LoopEntry::default(); entries],
            collisions: 0,
            tags: vec![None; entries],
        }
    }

    fn index(&self, pc: BranchAddr) -> u64 {
        pc.word_index() & (self.entries.len() as u64 - 1)
    }
}

impl DynamicPredictor for LoopPredictor {
    fn name(&self) -> &'static str {
        "loop"
    }

    fn size_bytes(&self) -> usize {
        self.entries.len() * 8
    }

    fn predict_update(&mut self, pc: BranchAddr, taken: bool) -> Prediction {
        let i = self.index(pc) as usize;
        let collision = matches!(self.tags[i], Some(prev) if prev != pc);
        if collision {
            self.collisions += 1;
        }
        self.tags[i] = Some(pc);
        let e = &mut self.entries[i];
        // Predict not-taken exactly at the learned exit point.
        let predicted = !(e.confident && e.current_run >= e.learned_trip);
        if taken {
            e.current_run = e.current_run.saturating_add(1);
        } else {
            // A run just ended: learn (or confirm) the trip count.
            e.confident = e.learned_trip == e.current_run;
            e.learned_trip = e.current_run;
            e.current_run = 0;
        }
        Prediction {
            taken: predicted,
            collision,
        }
    }

    fn shift_history(&mut self, _taken: bool) {
        // No global history in this scheme.
    }

    fn total_collisions(&self) -> u64 {
        self.collisions
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Compare the toy predictor against bimodal on the loop-heavy ijpeg
    // model, with and without Static_95 hints.
    let workload = Workload::spec95(Benchmark::Ijpeg);
    let source = || {
        workload
            .generator(InputSet::Ref, 2000)
            .take_instructions(4_000_000)
    };

    // Phase one: profile for Static_95 hints. The source combinators window
    // the profiling stream declaratively: skip the first 500k instructions
    // of cold start, then keep one branch in four — bias *rates* survive
    // systematic sampling even though counts shrink.
    let bias = BiasProfile::from_source(source().skip_instructions(500_000).sample(4));
    let hints = SelectionScheme::static_95().select(&bias, None)?;
    println!("selected {} static hints on ijpeg", hints.len());

    for (label, hint_db) in [
        ("dynamic only", HintDatabase::new()),
        ("with static_95", hints),
    ] {
        for predictor in [
            Box::new(LoopPredictor::new(8 * 1024)) as Box<dyn DynamicPredictor>,
            Box::new(Bimodal::new(8 * 1024)),
        ] {
            let name = predictor.name();
            let mut combined =
                CombinedPredictor::new(predictor, hint_db.clone(), ShiftPolicy::NoShift);
            let stats = MeasurePass::new(&mut combined).run(source());
            println!(
                "  {name:<8} {label:<16} {:.3} MISPs/KI (accuracy {:.2}%)",
                stats.misp_per_ki(),
                stats.accuracy() * 100.0
            );
        }
    }
    println!("\nThe trait is open: any scheme that can predict, update, and");
    println!("optionally track global history plugs into the same harness.");
    Ok(())
}
