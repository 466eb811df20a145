//! Property-based tests pinning the pass framework's fusion contract at the
//! experiment layer: running the bias, accuracy, and simulation consumers
//! *fused* in one traversal — at an arbitrary chunk size, so chunk
//! boundaries straddle warm-up and event positions arbitrarily — must be
//! bit-identical to running each consumer alone over its own traversal.
//! Measurement runs with an arbitrary hint database and shift policy, so the
//! hinted per-event resolve path is pinned alongside the pure-dynamic batch
//! path.

#![cfg(test)]

use crate::{CombinedPredictor, MeasurePass, ShiftPolicy, Simulator};
use proptest::prelude::*;
use sdbp_passes::{Pass, PassRunner};
use sdbp_predictors::{Gshare, PredictorConfig, PredictorKind};
use sdbp_profiles::{AccuracyPass, AccuracyProfile, BiasPass, BiasProfile, HintDatabase};
use sdbp_trace::{BranchAddr, BranchEvent, SliceSource};

fn arb_events() -> impl Strategy<Value = Vec<BranchEvent>> {
    proptest::collection::vec((0u64..512, any::<bool>(), 0u32..40), 1..400).prop_map(|v| {
        v.into_iter()
            .map(|(w, taken, gap)| BranchEvent::new(BranchAddr(w * 4), taken, gap))
            .collect()
    })
}

/// A hint set over the same word range as [`arb_events`], so hints hit.
fn arb_hints() -> impl Strategy<Value = HintDatabase> {
    proptest::collection::vec((0u64..512, any::<bool>()), 0..64).prop_map(|v| {
        v.into_iter()
            .map(|(w, taken)| (BranchAddr(w * 4), taken))
            .collect()
    })
}

fn policy(shift: bool) -> ShiftPolicy {
    if shift {
        ShiftPolicy::Shift
    } else {
        ShiftPolicy::NoShift
    }
}

fn measure(
    events: &[BranchEvent],
    warmup: u64,
    hints: &HintDatabase,
    shift: ShiftPolicy,
) -> crate::SimStats {
    let mut combined = CombinedPredictor::new(Gshare::new(1024), hints.clone(), shift);
    Simulator::new()
        .with_warmup(warmup)
        .run(SliceSource::new(events), &mut combined)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// One fused traversal of all three consumer kinds — bias profiling,
    /// accuracy profiling, and warm-up-straddling measurement — equals
    /// three dedicated traversals, for every chunk size.
    #[test]
    fn fused_traversal_is_bit_identical_to_sequential_passes(
        events in arb_events(),
        chunk in 1usize..70,
        warmup_events in 0usize..40,
        hints in arb_hints(),
        shift in any::<bool>(),
    ) {
        // A warm-up boundary placed on an arbitrary event (possibly past
        // the end of the stream), so chunk straddles hit it everywhere.
        let warmup: u64 = events
            .iter()
            .take(warmup_events)
            .map(|e| e.instructions())
            .sum();

        // Sequential reference: each consumer over its own traversal.
        let seq_bias = BiasProfile::from_source(SliceSource::new(&events));
        let config = PredictorConfig::new(PredictorKind::Gshare, 1024).expect("valid");
        let mut engine = config.build_any();
        let seq_accuracy =
            AccuracyProfile::collect(SliceSource::new(&events), &mut engine);
        let seq_stats = measure(&events, warmup, &hints, policy(shift));

        // Fused: all three ride one chunked traversal.
        let mut bias_pass = BiasPass::new();
        let mut acc_engine = config.build_any();
        let mut acc_pass = AccuracyPass::new(&mut acc_engine);
        let mut combined = CombinedPredictor::new(config.build_any(), hints, policy(shift));
        let mut measure_pass = MeasurePass::new(&mut combined).with_warmup(warmup);
        let stats = PassRunner::new().with_chunk(chunk).run(
            SliceSource::new(&events),
            &mut [&mut bias_pass, &mut acc_pass, &mut measure_pass],
        );

        prop_assert_eq!(stats.events, events.len() as u64);
        prop_assert_eq!(bias_pass.into_profile(), seq_bias);
        prop_assert_eq!(acc_pass.into_profile(), seq_accuracy);
        prop_assert_eq!(measure_pass.into_stats(), seq_stats);
    }

    /// Lockstep multi-config execution — arbitrary sets of predictor
    /// configurations, each hinted or not under its own shift policy, with
    /// arbitrary per-member warm-up boundaries riding
    /// one arbitrarily chunked traversal — is bit-identical to measuring
    /// each configuration on its own dedicated traversal. This is the
    /// equivalence the sweep's lockstep grouping relies on.
    #[test]
    fn lockstep_measurement_is_bit_identical_to_sequential_runs(
        events in arb_events(),
        chunk in 1usize..70,
        hints in arb_hints(),
        members in proptest::collection::vec(
            (
                0usize..PredictorKind::ALL.len(),
                5u32..10,
                0usize..40,
                any::<bool>(),
                any::<bool>(),
            ),
            1..6,
        ),
    ) {
        let configs: Vec<(PredictorConfig, u64, HintDatabase, ShiftPolicy)> = members
            .iter()
            .map(|&(kind_idx, size_shift, warmup_events, hinted, shift)| {
                let config = PredictorConfig::new(
                    PredictorKind::ALL[kind_idx],
                    1usize << size_shift,
                )
                .expect("valid");
                // A warm-up boundary on an arbitrary event, per member.
                let warmup = events
                    .iter()
                    .take(warmup_events)
                    .map(|e| e.instructions())
                    .sum();
                // Unhinted members take the pure-dynamic batch path.
                let db = if hinted { hints.clone() } else { HintDatabase::new() };
                (config, warmup, db, policy(shift))
            })
            .collect();

        // Sequential reference: one dedicated traversal per member.
        let sequential: Vec<crate::SimStats> = configs
            .iter()
            .map(|(config, warmup, db, shift)| {
                let mut combined = CombinedPredictor::new(config.build_any(), db.clone(), *shift);
                let mut pass = MeasurePass::new(&mut combined).with_warmup(*warmup);
                PassRunner::new()
                    .with_chunk(chunk)
                    .run(SliceSource::new(&events), &mut [&mut pass]);
                pass.into_stats()
            })
            .collect();

        // Lockstep: every member rides the same traversal.
        let mut combineds: Vec<CombinedPredictor> = configs
            .iter()
            .map(|(config, _, db, shift)| {
                CombinedPredictor::new(config.build_any(), db.clone(), *shift)
            })
            .collect();
        let mut measures: Vec<MeasurePass> = combineds
            .iter_mut()
            .zip(&configs)
            .map(|(combined, &(_, warmup, ..))| MeasurePass::new(combined).with_warmup(warmup))
            .collect();
        let stats = {
            let mut passes: Vec<&mut dyn Pass> =
                measures.iter_mut().map(|m| m as &mut dyn Pass).collect();
            PassRunner::new()
                .with_chunk(chunk)
                .run(SliceSource::new(&events), &mut passes)
        };
        prop_assert_eq!(stats.passes, configs.len());
        prop_assert_eq!(stats.events, events.len() as u64);
        for (measure, want) in measures.into_iter().zip(sequential) {
            prop_assert_eq!(measure.into_stats(), want);
        }
    }

    /// The chunk size never leaks into any consumer: two fused runs at
    /// different chunk sizes agree with each other.
    #[test]
    fn chunk_size_is_unobservable(
        events in arb_events(),
        chunk_a in 1usize..90,
        chunk_b in 1usize..90,
    ) {
        let run = |chunk: usize| {
            let mut bias_pass = BiasPass::new();
            let mut engine = Gshare::new(512);
            let mut acc_pass = AccuracyPass::new(&mut engine);
            PassRunner::new().with_chunk(chunk).run(
                SliceSource::new(&events),
                &mut [&mut bias_pass, &mut acc_pass],
            );
            (bias_pass.into_profile(), acc_pass.into_profile())
        };
        prop_assert_eq!(run(chunk_a), run(chunk_b));
    }
}
