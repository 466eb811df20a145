//! Workload specifications: mixtures, inputs, and perturbations.

use crate::benchmarks::Benchmark;
use crate::generator::WorkloadGenerator;
use crate::program::ProgramModel;
use std::fmt;
use std::str::FromStr;

/// Which input set drives a run — the SPEC convention the paper follows.
///
/// `Train` is the profiling input, `Ref` the measurement input. The two
/// share program structure but differ in behavior (Table 5 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InputSet {
    /// The training/profiling input.
    Train,
    /// The reference/measurement input.
    Ref,
}

impl InputSet {
    /// The SPEC-style lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            InputSet::Train => "train",
            InputSet::Ref => "ref",
        }
    }
}

impl fmt::Display for InputSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for InputSet {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "train" => Ok(InputSet::Train),
            "ref" => Ok(InputSet::Ref),
            other => Err(format!(
                "unknown input set '{other}' (expected train or ref)"
            )),
        }
    }
}

/// Site-behavior mixture weights for one benchmark model.
///
/// Weights are relative (normalized internally). They control the
/// populations the paper's analysis hinges on: the *biased* mass determines
/// what bimodal and `Static_95` capture; the *history* mass (correlated +
/// pattern + loop) determines how much ghist-style predictors can win.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mixture {
    /// Bernoulli sites with bias drawn from 0.965–0.999.
    pub strong_biased: f64,
    /// Bernoulli sites with bias drawn from 0.80–0.96.
    pub moderate_biased: f64,
    /// Bernoulli sites with bias drawn from 0.55–0.80.
    pub weak_biased: f64,
    /// Global-history parity sites (depth 2–6, small noise).
    pub correlated: f64,
    /// Short repeating-pattern sites.
    pub pattern: f64,
    /// Deterministic loop-cycle sites (period 2–8).
    pub loop_sites: f64,
}

impl Mixture {
    /// The class weights as an array, in declaration order.
    pub fn weights(&self) -> [f64; 6] {
        [
            self.strong_biased,
            self.moderate_biased,
            self.weak_biased,
            self.correlated,
            self.pattern,
            self.loop_sites,
        ]
    }

    /// Validates that weights are non-negative and not all zero.
    pub fn is_valid(&self) -> bool {
        let w = self.weights();
        w.iter().all(|x| x.is_finite() && *x >= 0.0) && w.iter().sum::<f64>() > 0.0
    }
}

/// How the `Ref` input perturbs site behavior relative to `Train`.
///
/// Calibrated per benchmark against the paper's Table 5: most branches move
/// by <5 percentage points, a few percent flip majority direction, and a
/// small tail moves by >50 points.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Perturbation {
    /// Fraction of biased sites whose taken-probability reflects
    /// (`p := 1 - p`) under `Ref` — the majority-direction reversals.
    pub flip_fraction: f64,
    /// Standard deviation of Gaussian drift added to every biased site's
    /// taken-probability under `Ref`.
    pub drift_sd: f64,
    /// Fraction of chains that only execute under `Ref` (input-dependent
    /// code paths; reduces the `Train` input's coverage).
    pub ref_only_chains: f64,
    /// Fraction of chains that only execute under `Train`.
    pub train_only_chains: f64,
}

impl Perturbation {
    /// No behavioral change between inputs (useful in tests).
    pub fn none() -> Self {
        Self {
            flip_fraction: 0.0,
            drift_sd: 0.0,
            ref_only_chains: 0.0,
            train_only_chains: 0.0,
        }
    }
}

/// The full static description of one synthetic benchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// Benchmark name (e.g. `"gcc"`).
    pub name: &'static str,
    /// Number of static conditional branch sites (paper Table 1).
    pub static_sites: usize,
    /// Dynamic conditional branches per thousand instructions under `Train`.
    pub cbrs_per_ki_train: f64,
    /// Dynamic conditional branches per thousand instructions under `Ref`.
    pub cbrs_per_ki_ref: f64,
    /// Behavior mixture for non-back-edge sites.
    pub mixture: Mixture,
    /// Zipf exponent of chain execution weights (higher = more concentrated
    /// hot code, more aliasing pressure per table entry).
    pub zipf_exponent: f64,
    /// Mean `stickiness` of biased sites: the probability that a repeat
    /// execution inside one chain activation reuses the activation-latched
    /// outcome (what history-indexed predictors can recover beyond the
    /// bias).
    pub biased_stickiness: f64,
    /// Mean latch noise of biased sites: the probability that an
    /// activation's latch ignores the hidden variant and draws fresh
    /// (`1.0` = pure Bernoulli branches, `0.0` = fully data-determined).
    pub latch_noise: f64,
    /// Fraction of chains that are straight-line code (no loop; back-edge
    /// never taken).
    pub straight_chains: f64,
    /// Fraction of chains that are tight *micro-loops* (1–2 branches, trip
    /// counts 2–9) — `while (p) p = p->next` style code. Their short periods
    /// fit inside a global-history window, so history-indexed predictors
    /// predict their exits while a bimodal counter misses 1–2 per traversal;
    /// this population is the main source of the ghist/gshare advantage.
    pub micro_chains: f64,
    /// Of the looping chains, the fraction with a *fixed* trip count
    /// (history-predictable exits); the rest draw geometric counts.
    pub fixed_iter_chains: f64,
    /// Mean trip count of looping chains.
    pub mean_iterations: f64,
    /// `Train`→`Ref` behavioral perturbation.
    pub perturbation: Perturbation,
    /// Default instruction budget for a `Train` run.
    pub train_instructions: u64,
    /// Default instruction budget for a `Ref` run.
    pub ref_instructions: u64,
}

impl WorkloadSpec {
    /// The CBRs/KI target for an input.
    pub fn cbrs_per_ki(&self, input: InputSet) -> f64 {
        match input {
            InputSet::Train => self.cbrs_per_ki_train,
            InputSet::Ref => self.cbrs_per_ki_ref,
        }
    }

    /// The default instruction budget for an input.
    pub fn default_instructions(&self, input: InputSet) -> u64 {
        match input {
            InputSet::Train => self.train_instructions,
            InputSet::Ref => self.ref_instructions,
        }
    }
}

/// A runnable workload: a spec plus constructors for generators.
///
/// # Examples
///
/// ```
/// use sdbp_workloads::{Benchmark, InputSet, Workload};
///
/// let w = Workload::spec95(Benchmark::M88ksim);
/// assert_eq!(w.spec().name, "m88ksim");
/// let gen = w.generator(InputSet::Ref, 7);
/// assert!(gen.program().sites().len() >= 5000);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    spec: WorkloadSpec,
}

impl Workload {
    /// Creates a workload from a custom spec.
    pub fn from_spec(spec: WorkloadSpec) -> Self {
        Self { spec }
    }

    /// One of the six calibrated SPECINT95 models.
    pub fn spec95(benchmark: Benchmark) -> Self {
        Self {
            spec: benchmark.spec(),
        }
    }

    /// The underlying specification.
    pub fn spec(&self) -> &WorkloadSpec {
        &self.spec
    }

    /// Materializes the program model for an input.
    ///
    /// Two calls with the same `(input, seed)` produce identical models; the
    /// `Train` and `Ref` models of one seed share their site structure.
    pub fn program(&self, input: InputSet, seed: u64) -> ProgramModel {
        ProgramModel::materialize(&self.spec, input, seed)
    }

    /// Creates an event generator for an input.
    ///
    /// The generator is unbounded; cap it with
    /// [`sdbp_trace::BranchSource::take_instructions`], typically at
    /// [`WorkloadSpec::default_instructions`].
    pub fn generator(&self, input: InputSet, seed: u64) -> WorkloadGenerator {
        WorkloadGenerator::new(self.program(input, seed), seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn input_set_parses_its_own_names() {
        for input in [InputSet::Train, InputSet::Ref] {
            assert_eq!(input.name().parse::<InputSet>(), Ok(input));
        }
        let err = "test".parse::<InputSet>().unwrap_err();
        assert!(err.contains("'test'"), "{err}");
    }

    #[test]
    fn input_names() {
        assert_eq!(InputSet::Train.to_string(), "train");
        assert_eq!(InputSet::Ref.to_string(), "ref");
    }

    #[test]
    fn mixture_validation() {
        let m = Mixture {
            strong_biased: 1.0,
            moderate_biased: 0.0,
            weak_biased: 0.0,
            correlated: 0.0,
            pattern: 0.0,
            loop_sites: 0.0,
        };
        assert!(m.is_valid());
        let zero = Mixture {
            strong_biased: 0.0,
            moderate_biased: 0.0,
            weak_biased: 0.0,
            correlated: 0.0,
            pattern: 0.0,
            loop_sites: 0.0,
        };
        assert!(!zero.is_valid());
        let neg = Mixture {
            strong_biased: -1.0,
            ..m
        };
        assert!(!neg.is_valid());
    }

    #[test]
    fn spec_accessors() {
        let spec = Benchmark::Go.spec();
        assert!(spec.cbrs_per_ki(InputSet::Train) > 50.0);
        assert!(spec.default_instructions(InputSet::Ref) > 0);
    }

    #[test]
    fn same_seed_same_program() {
        let w = Workload::spec95(Benchmark::Compress);
        let a = w.program(InputSet::Train, 5);
        let b = w.program(InputSet::Train, 5);
        assert_eq!(a.sites().len(), b.sites().len());
        assert_eq!(a.sites()[0].pc, b.sites()[0].pc);
    }

    #[test]
    fn train_and_ref_share_site_structure() {
        let w = Workload::spec95(Benchmark::Compress);
        let t = w.program(InputSet::Train, 5);
        let r = w.program(InputSet::Ref, 5);
        assert_eq!(t.sites().len(), r.sites().len());
        for (a, b) in t.sites().iter().zip(r.sites().iter()) {
            assert_eq!(a.pc, b.pc, "site addresses must be input-invariant");
        }
    }
}
