//! Property-based tests over the predictor substrate.
//!
//! These verify structural invariants that hold for *every* scheme on
//! arbitrary branch streams: safety (no panics, deterministic replay),
//! counter/history bounds, hash bijectivity, and collision
//! accounting.

#![cfg(test)]

use crate::counter::SaturatingCounter;
use crate::history::HistoryRegister;
use crate::skew::{h, h_inv, h_inv_pow, h_pow, skew};
use crate::table::{PredictionTable, ReferenceTable};
use crate::{PredictorConfig, PredictorKind};
use proptest::prelude::*;
use sdbp_trace::BranchAddr;

fn arb_stream() -> impl Strategy<Value = Vec<(u64, bool)>> {
    proptest::collection::vec((0u64..2048, any::<bool>()), 1..300)
        .prop_map(|v| v.into_iter().map(|(w, t)| (w * 4, t)).collect())
}

proptest! {
    /// Every predictor kind survives arbitrary streams and replays
    /// deterministically.
    #[test]
    fn predictors_are_deterministic_on_arbitrary_streams(
        stream in arb_stream(),
        kind_idx in 0usize..PredictorKind::ALL.len(),
        size_shift in 4u32..10,
    ) {
        let kind = PredictorKind::ALL[kind_idx];
        let size = 1usize << size_shift.max(5); // >= 32 bytes, covers hybrids
        let run = || {
            let mut p = PredictorConfig::new(kind, size).expect("valid").build();
            let mut outcomes = Vec::new();
            for &(pc, taken) in &stream {
                let pred = p.predict_update(BranchAddr(pc), taken);
                outcomes.push((pred.taken, pred.collision));
            }
            (outcomes, p.total_collisions())
        };
        let (a, ca) = run();
        let (b, cb) = run();
        prop_assert_eq!(a, b);
        prop_assert_eq!(ca, cb);
    }

    /// Collision counters are monotone and bounded by lookups.
    #[test]
    fn collisions_bounded_by_lookups(stream in arb_stream()) {
        let mut p = PredictorConfig::new(PredictorKind::Gshare, 64)
            .expect("valid")
            .build();
        let mut last = 0;
        for (i, &(pc, taken)) in stream.iter().enumerate() {
            p.predict_update(BranchAddr(pc), taken);
            let now = p.total_collisions();
            prop_assert!(now >= last, "collision counter went backwards");
            prop_assert!(now <= (i as u64 + 1), "more collisions than lookups");
            last = now;
        }
    }

    /// Saturating counters stay in range and predict their MSB.
    #[test]
    fn counter_invariants(bits in 1u8..8, updates in proptest::collection::vec(any::<bool>(), 0..200)) {
        let mut c = SaturatingCounter::new(bits, 0);
        let max = (1u8 << bits) - 1;
        for taken in updates {
            c.train(taken);
            prop_assert!(c.value() <= max);
            prop_assert_eq!(c.predict_taken(), c.value() > max / 2);
        }
    }

    /// A counter trained n times in one direction from anywhere saturates
    /// within n >= 2^bits steps and then stays put.
    #[test]
    fn counter_saturates(bits in 1u8..8, start_frac in 0.0f64..1.0) {
        let max = (1u8 << bits) - 1;
        let start = (start_frac * max as f64) as u8;
        let mut c = SaturatingCounter::new(bits, start);
        for _ in 0..=max {
            c.train(true);
        }
        prop_assert_eq!(c.value(), max);
        c.train(true);
        prop_assert_eq!(c.value(), max);
    }

    /// History register: `bits(n)` always returns the newest n outcomes.
    #[test]
    fn history_tracks_newest_bits(
        len in 1u32..64,
        pushes in proptest::collection::vec(any::<bool>(), 1..100),
    ) {
        let mut h = HistoryRegister::new(len);
        for &taken in &pushes {
            h.push(taken);
        }
        let n = len.min(pushes.len() as u32);
        let got = h.bits(n);
        for i in 0..n {
            let expected = pushes[pushes.len() - 1 - i as usize];
            prop_assert_eq!((got >> i) & 1 == 1, expected, "bit {} mismatch", i);
        }
    }

    /// Folding never exceeds the fold width and is deterministic.
    #[test]
    fn history_folding_is_bounded(
        len in 1u32..64,
        take_frac in 0.0f64..1.0,
        into in 1u32..20,
        pushes in proptest::collection::vec(any::<bool>(), 0..100),
    ) {
        let mut h = HistoryRegister::new(len);
        for &taken in &pushes {
            h.push(taken);
        }
        let take = ((take_frac * len as f64) as u32).min(len);
        let folded = h.folded(take, into);
        if into < 64 {
            prop_assert!(folded < (1u64 << into));
        }
        prop_assert_eq!(folded, h.folded(take, into));
    }

    /// The skewing shift is a bijection for every width: h_inv ∘ h = id.
    #[test]
    fn skew_shift_is_bijective(n in 2u32..24, x in any::<u64>()) {
        let mask = (1u64 << n) - 1;
        let x = x & mask;
        prop_assert_eq!(h_inv(h(x, n), n), x);
        prop_assert_eq!(h(h_inv(x, n), n), x);
    }

    /// Powered shifts compose and invert.
    #[test]
    fn skew_powers_invert(n in 2u32..24, k in 0u32..10, x in any::<u64>()) {
        let mask = (1u64 << n) - 1;
        let x = x & mask;
        prop_assert_eq!(h_inv_pow(h_pow(x, n, k), n, k), x);
    }

    /// skew() output always fits in n bits and differs between banks for
    /// most inputs (weak anti-correlation check).
    #[test]
    fn skew_is_masked(n in 2u32..24, v1 in any::<u64>(), v2 in any::<u64>(), v3 in any::<u64>()) {
        for k in 0..4 {
            let out = skew(k, v1, v2, v3, n);
            prop_assert!(out < (1u64 << n));
        }
    }

    /// The bit-packed [`PredictionTable`] and the naive [`ReferenceTable`]
    /// stay in lockstep on arbitrary op sequences: same predictions, same
    /// collision flags, same lookup/collision totals, same modeled size.
    /// Indices are drawn well past the table size to exercise the internal
    /// masking contract.
    #[test]
    fn packed_table_matches_reference(
        entries_shift in 1u32..10,
        bits in 1u8..6,
        init_frac in 0.0f64..1.0,
        ops in proptest::collection::vec(
            (0u8..4, any::<u64>(), 0u64..96, any::<bool>()),
            1..400,
        ),
    ) {
        let entries = 1usize << entries_shift;
        let max = (1u8 << bits) - 1;
        let template = SaturatingCounter::new(bits, (init_frac * max as f64) as u8);
        let mut packed = PredictionTable::new(entries, template);
        let mut reference = ReferenceTable::new(entries, template);
        prop_assert_eq!(packed.entries(), reference.entries());
        prop_assert_eq!(packed.size_bytes(), reference.size_bytes());
        prop_assert_eq!(packed.index_bits(), reference.index_bits());
        for (i, &(op, index, pc_word, taken)) in ops.iter().enumerate() {
            let pc = BranchAddr(pc_word * 4);
            match op {
                0 => {
                    let (p, r) = (packed.lookup(index, pc), reference.lookup(index, pc));
                    prop_assert_eq!(p, r, "lookup diverged at op {}", i);
                }
                1 => {
                    packed.train(index, taken);
                    reference.train(index, taken);
                }
                2 => prop_assert_eq!(
                    packed.peek(index), reference.peek(index),
                    "peek diverged at op {}", i
                ),
                _ => prop_assert_eq!(
                    packed.counter(index).value(),
                    reference.counter(index).value(),
                    "counter diverged at op {}", i
                ),
            }
        }
        prop_assert_eq!(packed.lookups(), reference.lookups());
        prop_assert_eq!(packed.collisions(), reference.collisions());
        // Full-table sweep: every counter cell agrees after the op storm.
        for i in 0..entries as u64 {
            prop_assert_eq!(
                packed.counter(i).value(),
                reference.counter(i).value(),
                "cell {} diverged", i
            );
        }
    }

    /// The soundness anchor of the exact GF(2) analyzer: for every linear
    /// predictor, symbolic [`crate::IndexSpec`] evaluation equals the live
    /// `probe_indices` over arbitrary `(pc, history)` pairs — so whatever
    /// the linear algebra proves about the spec holds for the simulator.
    /// PCs range past every table's modeled span to exercise dead high
    /// bits; histories are raw 64-bit values the predictors must mask.
    #[test]
    fn index_spec_evaluation_matches_probe_indices(
        kind_idx in 0usize..PredictorKind::ALL.len(),
        size_shift in 5u32..16,
        pc_word in 0u64..(1u64 << 32),
        history in any::<u64>(),
    ) {
        let kind = PredictorKind::ALL[kind_idx];
        let config = PredictorConfig::new(kind, 1usize << size_shift).expect("valid");
        let p = config.build();
        match p.index_spec() {
            None => prop_assert!(!config.index_capability().is_linear(), "{}", kind),
            Some(spec) => {
                prop_assert_eq!(spec.history_bits, p.history_bits());
                let pc = BranchAddr(pc_word * 4);
                let mut probed = Vec::new();
                prop_assert!(p.probe_indices(pc, history, &mut probed));
                let mut symbolic = Vec::new();
                spec.evaluate(pc, history, &mut symbolic);
                prop_assert_eq!(
                    probed, symbolic,
                    "{} pc={:#x} history={:#x}", kind, pc_word * 4, history
                );
            }
        }
    }

    /// The batched `predict_update_batch` path — including every SWAR
    /// bank-parallel override — matches the scalar `predict_update` path
    /// event for event on arbitrary streams, arbitrary chunk partitions and
    /// arbitrary sizes, with identical collision totals afterwards. This is
    /// the equivalence oracle the scalar path is retained for.
    #[test]
    fn batched_path_matches_scalar_protocol_for_every_kind(
        stream in arb_stream(),
        kind_idx in 0usize..PredictorKind::ALL.len(),
        size_shift in 5u32..10,
        chunk in 1usize..64,
    ) {
        let kind = PredictorKind::ALL[kind_idx];
        let size = 1usize << size_shift;
        let config = PredictorConfig::new(kind, size).expect("valid");
        let mut batched = config.build();
        let mut scalar = config.build();
        let events: Vec<sdbp_trace::BranchEvent> = stream
            .iter()
            .map(|&(pc, taken)| sdbp_trace::BranchEvent::new(BranchAddr(pc), taken, 0))
            .collect();
        let mut out = Vec::new();
        for slice in events.chunks(chunk) {
            out.clear();
            batched.predict_update_batch(slice, &mut out);
            prop_assert_eq!(out.len(), slice.len());
            for (e, got) in slice.iter().zip(&out) {
                let want = scalar.predict_update(e.pc, e.taken);
                prop_assert_eq!(*got, want, "{} @{}", kind, e);
            }
        }
        prop_assert_eq!(batched.total_collisions(), scalar.total_collisions());
    }

    /// `shift_history` between predictions must never corrupt the
    /// per-branch path (e.g. static branches interleaved anywhere).
    #[test]
    fn interleaved_history_shifts_are_safe(
        stream in arb_stream(),
        kind_idx in 0usize..PredictorKind::ALL.len(),
    ) {
        let kind = PredictorKind::ALL[kind_idx];
        let mut p = PredictorConfig::new(kind, 256).expect("valid").build();
        for (i, &(pc, taken)) in stream.iter().enumerate() {
            if i % 3 == 0 {
                // A "statically predicted" branch: history only.
                p.shift_history(taken);
            } else {
                p.predict_update(BranchAddr(pc), taken);
            }
        }
    }
}
