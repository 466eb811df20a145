//! Property-based tests of cross-crate invariants.

use proptest::prelude::*;
use sdbp::prelude::*;

fn arb_event() -> impl Strategy<Value = BranchEvent> {
    // Word-aligned PCs in a modest window, so streams actually alias.
    (0u64..4096, any::<bool>(), 0u32..64)
        .prop_map(|(word, taken, gap)| BranchEvent::new(BranchAddr(word * 4), taken, gap))
}

fn arb_events() -> impl Strategy<Value = Vec<BranchEvent>> {
    proptest::collection::vec(arb_event(), 1..400)
}

fn arb_hints() -> impl Strategy<Value = Vec<(u64, bool)>> {
    proptest::collection::vec((0u64..4096, any::<bool>()), 0..64)
}

proptest! {
    /// The simulator's accounting identities hold for arbitrary streams and
    /// arbitrary hint databases, on every predictor kind.
    #[test]
    fn simulator_accounting_holds(
        events in arb_events(),
        hints in arb_hints(),
        kind_idx in 0usize..PredictorKind::ALL.len(),
        shift in any::<bool>(),
    ) {
        let kind = PredictorKind::ALL[kind_idx];
        let db: HintDatabase = hints
            .iter()
            .map(|(w, taken)| (BranchAddr(w * 4), *taken))
            .collect();
        let policy = if shift { ShiftPolicy::Shift } else { ShiftPolicy::NoShift };
        let mut combined = CombinedPredictor::new(
            PredictorConfig::new(kind, 1024).expect("valid").build_any(),
            db.clone(),
            policy,
        );
        let stats = Simulator::new().run(SliceSource::new(&events), &mut combined);

        prop_assert_eq!(stats.branches, events.len() as u64);
        prop_assert_eq!(
            stats.instructions,
            events.iter().map(|e| e.instructions()).sum::<u64>()
        );
        prop_assert!(stats.mispredictions <= stats.branches);
        prop_assert!(stats.static_mispredictions <= stats.static_predicted);
        prop_assert_eq!(
            stats.static_predicted,
            events.iter().filter(|e| db.contains(e.pc)).count() as u64
        );
        prop_assert_eq!(
            stats.collisions.total,
            stats.collisions.constructive + stats.collisions.destructive
        );
    }

    /// Simulation is a pure function of (events, hints, predictor, policy).
    #[test]
    fn simulation_is_deterministic(events in arb_events(), hints in arb_hints()) {
        let db: HintDatabase = hints
            .iter()
            .map(|(w, taken)| (BranchAddr(w * 4), *taken))
            .collect();
        let run = || {
            let mut combined = CombinedPredictor::new(
                PredictorConfig::new(PredictorKind::TwoBcGskew, 1024)
                    .expect("valid")
                    .build_any(),
                db.clone(),
                ShiftPolicy::Shift,
            );
            Simulator::new().run(SliceSource::new(&events), &mut combined)
        };
        prop_assert_eq!(run(), run());
    }

    /// Selection never hints a branch against its own majority, and every
    /// scheme's output is a subset of the profiled branches.
    #[test]
    fn selection_respects_majority_direction(events in arb_events(), cutoff in 0.5f64..0.99) {
        let bias = BiasProfile::from_source(SliceSource::new(&events));
        let hints = SelectionScheme::Bias { cutoff }
            .select(&bias, None)
            .expect("bias scheme needs no accuracy profile");
        for (pc, hint) in hints.iter() {
            let site = bias.site(pc).expect("hinted branches were profiled");
            prop_assert_eq!(hint, site.majority_taken(), "hint against majority at {}", pc);
            prop_assert!(site.bias() > cutoff);
        }
    }

    /// Stricter cutoffs select subsets.
    #[test]
    fn stricter_cutoffs_select_subsets(events in arb_events()) {
        let bias = BiasProfile::from_source(SliceSource::new(&events));
        let lax = SelectionScheme::Bias { cutoff: 0.7 }.select(&bias, None).expect("ok");
        let strict = SelectionScheme::Bias { cutoff: 0.9 }.select(&bias, None).expect("ok");
        prop_assert!(strict.len() <= lax.len());
        for (pc, _) in strict.iter() {
            prop_assert!(lax.contains(pc));
        }
    }

    /// Hint databases round-trip through their text format.
    #[test]
    fn hint_database_text_roundtrip(hints in arb_hints()) {
        let db: HintDatabase = hints
            .iter()
            .map(|(w, taken)| (BranchAddr(w * 4), *taken))
            .collect();
        let back = HintDatabase::from_text(&db.to_text()).expect("own output parses");
        prop_assert_eq!(back, db);
    }

    /// Profile merging is commutative and preserves totals.
    #[test]
    fn profile_merge_commutes(a in arb_events(), b in arb_events()) {
        let pa = BiasProfile::from_source(SliceSource::new(&a));
        let pb = BiasProfile::from_source(SliceSource::new(&b));
        let mut ab = pa.clone();
        ab.merge(&pb);
        let mut ba = pb.clone();
        ba.merge(&pa);
        prop_assert_eq!(&ab, &ba);
        prop_assert_eq!(
            ab.total_executions(),
            (a.len() + b.len()) as u64
        );
    }
}
