//! Exercises every predictor kind across sizes on real workload streams,
//! checking protocol soundness and sanity bounds, and pins every kind's exact
//! outcomes on one stream.

use sdbp::prelude::*;

fn stream(benchmark: Benchmark) -> impl BranchSource {
    Workload::spec95(benchmark)
        .generator(InputSet::Ref, 2000)
        .take_instructions(600_000)
}

fn run(
    kind: PredictorKind,
    size: usize,
    benchmark: Benchmark,
    hints: HintDatabase,
    policy: ShiftPolicy,
) -> SimStats {
    let mut predictor = CombinedPredictor::new(
        PredictorConfig::new(kind, size)
            .expect("valid size")
            .build_any(),
        hints,
        policy,
    );
    Simulator::new().run(stream(benchmark), &mut predictor)
}

fn measure(kind: PredictorKind, size: usize, benchmark: Benchmark) -> SimStats {
    run(
        kind,
        size,
        benchmark,
        HintDatabase::new(),
        ShiftPolicy::NoShift,
    )
}

#[test]
fn every_predictor_beats_a_coin_on_a_biased_workload() {
    for kind in PredictorKind::ALL {
        let stats = measure(kind, 4096, Benchmark::M88ksim);
        assert!(
            stats.accuracy() > 0.80,
            "{kind}: accuracy {:.3} on m88ksim",
            stats.accuracy()
        );
    }
}

#[test]
fn every_predictor_runs_at_every_sweep_size() {
    for kind in PredictorKind::ALL {
        for size in [1024usize, 8 * 1024, 64 * 1024] {
            let stats = measure(kind, size, Benchmark::Compress);
            assert!(
                stats.branches > 10_000,
                "{kind} at {size}: too few branches"
            );
            assert!(
                (0.0..=1.0).contains(&stats.accuracy()),
                "{kind} at {size}: accuracy out of range"
            );
        }
    }
}

#[test]
fn bigger_tables_never_explode_mispredictions() {
    // Capacity can only help (or at worst plateau) on an aliasing-bound
    // program; allow a small tolerance for indexing noise.
    for kind in [
        PredictorKind::Bimodal,
        PredictorKind::Gshare,
        PredictorKind::TwoBcGskew,
    ] {
        let small = measure(kind, 1024, Benchmark::Gcc);
        let large = measure(kind, 64 * 1024, Benchmark::Gcc);
        assert!(
            large.misp_per_ki() <= small.misp_per_ki() * 1.05,
            "{kind}: 64KB ({:.3}) worse than 1KB ({:.3})",
            large.misp_per_ki(),
            small.misp_per_ki()
        );
    }
}

#[test]
fn collision_counts_scale_down_with_table_size() {
    for kind in [PredictorKind::Ghist, PredictorKind::Gshare] {
        let small = measure(kind, 1024, Benchmark::Gcc);
        let large = measure(kind, 64 * 1024, Benchmark::Gcc);
        assert!(
            large.collisions.total < small.collisions.total,
            "{kind}: collisions must drop with capacity ({} -> {})",
            small.collisions.total,
            large.collisions.total
        );
    }
}

#[test]
fn bimodal_shows_least_aliasing() {
    // The paper: almost no aliasing in bimodal tables above 2KB, while the
    // history-indexed schemes alias heavily at equal size.
    let bimodal = measure(PredictorKind::Bimodal, 8 * 1024, Benchmark::Gcc);
    let gshare = measure(PredictorKind::Gshare, 8 * 1024, Benchmark::Gcc);
    assert!(
        bimodal.collisions.total * 10 < gshare.collisions.total,
        "bimodal {} vs gshare {}",
        bimodal.collisions.total,
        gshare.collisions.total
    );
}

#[test]
fn declared_sizes_are_honored() {
    for kind in PredictorKind::ALL {
        let p = PredictorConfig::new(kind, 16 * 1024)
            .expect("valid")
            .build_any();
        let size = p.size_bytes();
        // agree carries a 1-bit bias table on top of its counters (1.5x);
        // the frontier designs round their tables down; everything else
        // matches exactly.
        assert!(
            (8 * 1024..=24 * 1024).contains(&size),
            "{kind}: {size} bytes for a 16KB budget"
        );
    }
}

/// One pinned configuration: `(kind, size, run, mispredictions, destructive
/// collisions, total collisions)`, where `run` is `dynamic` (no hints) or the
/// shift policy of the hinted run.
type PinnedRow = (&'static str, usize, &'static str, u64, u64, u64);

/// Every kind at 1 KB and 8 KB on compress (Ref, seed 2000, 600 000
/// instructions), three ways each: pure dynamic, which runs the batch
/// kernels, and behind one Static_95 hint database under both shift
/// policies, which resolves branch by branch through `predict_update` and
/// `shift_history`. A change to any predictor's per-branch rule moves a row.
#[test]
fn every_predictor_outcome_is_pinned() {
    let hints = SelectionScheme::static_95()
        .select(&BiasProfile::from_source(stream(Benchmark::Compress)), None)
        .expect("Static_95 needs no accuracy profile");
    let mut actual: Vec<PinnedRow> = Vec::new();
    for kind in PredictorKind::ALL {
        for size in [1024usize, 8 * 1024] {
            for (label, hints, policy) in [
                ("dynamic", HintDatabase::new(), ShiftPolicy::NoShift),
                ("no-shift", hints.clone(), ShiftPolicy::NoShift),
                ("shift", hints.clone(), ShiftPolicy::Shift),
            ] {
                let s = run(kind, size, Benchmark::Compress, hints, policy);
                actual.push((
                    kind.name(),
                    size,
                    label,
                    s.mispredictions,
                    s.collisions.destructive,
                    s.collisions.total,
                ));
            }
        }
    }
    let mismatched: Vec<String> = PINNED
        .iter()
        .zip(&actual)
        .filter(|(want, got)| want != got)
        .map(|(want, got)| format!("want {want:?}, got {got:?}"))
        .collect();
    assert!(
        mismatched.is_empty() && actual.len() == PINNED.len(),
        "{} of {} rows moved:\n{}",
        mismatched.len(),
        actual.len(),
        mismatched.join("\n")
    );
}

const PINNED: [PinnedRow; 60] = [
    ("bimodal", 1024, "dynamic", 5733, 12, 24),
    ("bimodal", 1024, "no-shift", 5630, 4, 6),
    ("bimodal", 1024, "shift", 5630, 4, 6),
    ("bimodal", 8192, "dynamic", 5732, 0, 2),
    ("bimodal", 8192, "no-shift", 5630, 0, 1),
    ("bimodal", 8192, "shift", 5630, 0, 1),
    ("ghist", 1024, "dynamic", 6566, 1750, 4897),
    ("ghist", 1024, "no-shift", 5437, 2147, 10901),
    ("ghist", 1024, "shift", 4992, 713, 2068),
    ("ghist", 8192, "dynamic", 7104, 751, 2614),
    ("ghist", 8192, "no-shift", 6340, 1498, 8738),
    ("ghist", 8192, "shift", 5502, 342, 1040),
    ("gshare", 1024, "dynamic", 6710, 1654, 3721),
    ("gshare", 1024, "no-shift", 6258, 1764, 3990),
    ("gshare", 1024, "shift", 5077, 593, 1402),
    ("gshare", 8192, "dynamic", 6511, 634, 1516),
    ("gshare", 8192, "no-shift", 6194, 754, 1928),
    ("gshare", 8192, "shift", 5087, 213, 506),
    ("bi-mode", 1024, "dynamic", 5498, 1244, 4836),
    ("bi-mode", 1024, "no-shift", 5200, 1620, 4905),
    ("bi-mode", 1024, "shift", 4946, 770, 2050),
    ("bi-mode", 8192, "dynamic", 6505, 481, 1674),
    ("bi-mode", 8192, "no-shift", 6377, 894, 2307),
    ("bi-mode", 8192, "shift", 5273, 269, 677),
    ("2bcgskew", 1024, "dynamic", 4436, 1694, 16128),
    ("2bcgskew", 1024, "no-shift", 4200, 2234, 12754),
    ("2bcgskew", 1024, "shift", 4235, 1212, 5787),
    ("2bcgskew", 8192, "dynamic", 4130, 1035, 10824),
    ("2bcgskew", 8192, "no-shift", 4123, 1622, 9185),
    ("2bcgskew", 8192, "shift", 4012, 645, 3000),
    ("agree", 1024, "dynamic", 6555, 1016, 3721),
    ("agree", 1024, "no-shift", 6285, 1704, 3990),
    ("agree", 1024, "shift", 5162, 548, 1402),
    ("agree", 8192, "dynamic", 8650, 265, 1061),
    ("agree", 8192, "no-shift", 7550, 571, 1428),
    ("agree", 8192, "shift", 5834, 125, 331),
    ("tournament", 1024, "dynamic", 4418, 851, 5100),
    ("tournament", 1024, "no-shift", 4407, 1219, 5106),
    ("tournament", 1024, "shift", 4263, 555, 1935),
    ("tournament", 8192, "dynamic", 4208, 368, 2084),
    ("tournament", 8192, "no-shift", 4291, 579, 2421),
    ("tournament", 8192, "shift", 4061, 227, 749),
    ("gselect", 1024, "dynamic", 5827, 371, 815),
    ("gselect", 1024, "no-shift", 4868, 290, 877),
    ("gselect", 1024, "shift", 5247, 131, 317),
    ("gselect", 8192, "dynamic", 5744, 66, 123),
    ("gselect", 8192, "no-shift", 5158, 70, 141),
    ("gselect", 8192, "shift", 5096, 22, 42),
    ("perceptron", 1024, "dynamic", 5056, 1007, 17188),
    ("perceptron", 1024, "no-shift", 4194, 238, 1337),
    ("perceptron", 1024, "shift", 4266, 205, 1337),
    ("perceptron", 8192, "dynamic", 4274, 115, 286),
    ("perceptron", 8192, "no-shift", 3689, 36, 86),
    ("perceptron", 8192, "shift", 3941, 37, 86),
    ("tage-lite", 1024, "dynamic", 4638, 104, 232),
    ("tage-lite", 1024, "no-shift", 4335, 49, 119),
    ("tage-lite", 1024, "shift", 4414, 41, 90),
    ("tage-lite", 8192, "dynamic", 4348, 9, 57),
    ("tage-lite", 8192, "no-shift", 4109, 22, 33),
    ("tage-lite", 8192, "shift", 4151, 9, 23),
];
