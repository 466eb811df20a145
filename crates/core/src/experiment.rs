//! The two-phase experiment protocol.
//!
//! Phase one (selection) profiles a run and selects static hints; phase two
//! (measurement) simulates the combined predictor on the measurement input.
//! [`ProfileSource`] picks between the paper's three training regimes:
//! self-trained (§5's upper bound), naive cross-trained, and cross-trained
//! with the merged/filtered Spike-style database (§5.1 / Figure 13).

use crate::cache::{ArtifactCache, ArtifactKey};
use crate::combined::{CombinedPredictor, ShiftPolicy};
use crate::report::Report;
use crate::simulator::MeasurePass;
use sdbp_artifacts::{CodecError, StoreError};
use sdbp_passes::Pass;
use sdbp_predictors::PredictorConfig;
use sdbp_profiles::{
    rank_interference, BiasProfile, HintDatabase, InterferenceOptions, ProfileDatabase,
    SelectError, SelectionScheme,
};
use sdbp_workloads::{Benchmark, InputSet};
use std::fmt;
use std::str::FromStr;
use std::sync::Arc;

/// Where the profile that drives hint selection comes from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ProfileSource {
    /// Profile the *measurement* input itself — the paper's "self-trained"
    /// upper bound.
    SelfTrained,
    /// Profile the `Train` input, measure on `Ref` — naive cross-training.
    CrossTrained,
    /// Merge `Train` and `Ref` profiles and drop branches whose taken-rate
    /// moved by more than the threshold — the Spike database fix
    /// (Figure 13, fourth bar).
    MergedCrossTrained {
        /// Maximum tolerated taken-rate change (the paper suggests 5%).
        max_bias_change: f64,
    },
}

impl ProfileSource {
    /// The input profiled for bias/accuracy in phase one.
    pub fn profile_input(self, measure_input: InputSet) -> InputSet {
        match self {
            ProfileSource::SelfTrained => measure_input,
            ProfileSource::CrossTrained | ProfileSource::MergedCrossTrained { .. } => {
                InputSet::Train
            }
        }
    }

    /// Label used in Figure 13.
    pub fn label(self) -> &'static str {
        match self {
            ProfileSource::SelfTrained => "self",
            ProfileSource::CrossTrained => "cross",
            ProfileSource::MergedCrossTrained { .. } => "cross-merged",
        }
    }
}

/// Parses a training regime: `self`, `cross`, or merged cross-training as
/// `merged` or its [`label`](ProfileSource::label) `cross-merged`, with the
/// paper's 5% bias-change threshold.
///
/// This is the single source of truth for training names — `sdbp sim
/// --training` and `sdbp check`'s spec parser both call it.
impl FromStr for ProfileSource {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "self" => Ok(ProfileSource::SelfTrained),
            "cross" => Ok(ProfileSource::CrossTrained),
            "merged" | "cross-merged" => Ok(ProfileSource::MergedCrossTrained {
                max_bias_change: 0.05,
            }),
            other => Err(format!(
                "unknown training '{other}' (expected self, cross, merged, or cross-merged)"
            )),
        }
    }
}

/// A complete experiment description.
///
/// Build with [`ExperimentSpec::self_trained`] and refine with the `with_*`
/// builders.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentSpec {
    /// The workload.
    pub benchmark: Benchmark,
    /// The dynamic predictor.
    pub predictor: PredictorConfig,
    /// The static selection scheme.
    pub scheme: SelectionScheme,
    /// History shifting for statically predicted branches.
    pub shift: ShiftPolicy,
    /// The training regime.
    pub profile: ProfileSource,
    /// The measurement input.
    pub measure_input: InputSet,
    /// The experiment seed (fixes workload structure and event streams).
    pub seed: u64,
    /// Instruction budget of the profiling run (`None` = workload default).
    pub profile_instructions: Option<u64>,
    /// Instruction budget of the measurement run (`None` = workload default).
    pub measure_instructions: Option<u64>,
    /// Instructions excluded from the measured statistics at the start of
    /// the measurement run (tables still train). `0` measures everything,
    /// like the paper's multi-billion-instruction runs effectively do.
    pub warmup_instructions: u64,
}

impl ExperimentSpec {
    /// The paper's basic configuration: self-trained profiling, measured on
    /// `Ref`, no history shifting.
    pub fn self_trained(
        benchmark: Benchmark,
        predictor: PredictorConfig,
        scheme: SelectionScheme,
    ) -> Self {
        Self {
            benchmark,
            predictor,
            scheme,
            shift: ShiftPolicy::NoShift,
            profile: ProfileSource::SelfTrained,
            measure_input: InputSet::Ref,
            seed: 2000,
            profile_instructions: None,
            measure_instructions: None,
            warmup_instructions: 0,
        }
    }

    /// Replaces the selection scheme.
    pub fn with_scheme(mut self, scheme: SelectionScheme) -> Self {
        self.scheme = scheme;
        self
    }

    /// Replaces the shift policy.
    pub fn with_shift(mut self, shift: ShiftPolicy) -> Self {
        self.shift = shift;
        self
    }

    /// Replaces the training regime.
    pub fn with_profile(mut self, profile: ProfileSource) -> Self {
        self.profile = profile;
        self
    }

    /// Replaces the measurement input.
    pub fn with_measure_input(mut self, input: InputSet) -> Self {
        self.measure_input = input;
        self
    }

    /// Caps both the profiling and the measurement runs at `instructions`.
    pub fn with_instructions(mut self, instructions: u64) -> Self {
        self.profile_instructions = Some(instructions);
        self.measure_instructions = Some(instructions);
        self
    }

    /// Replaces the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Excludes the first `instructions` of the measurement run from the
    /// statistics (cold-start discounting).
    pub fn with_warmup(mut self, instructions: u64) -> Self {
        self.warmup_instructions = instructions;
        self
    }

    fn budget(&self, input: InputSet, explicit: Option<u64>) -> u64 {
        explicit.unwrap_or_else(|| self.benchmark.default_instructions(input))
    }

    /// The instruction budget of the measurement run, resolving the
    /// workload default when none was set explicitly.
    pub fn measure_budget(&self) -> u64 {
        self.budget(self.measure_input, self.measure_instructions)
    }

    /// The instruction budget of the profiling run, resolving the workload
    /// default when none was set explicitly.
    pub fn profile_budget(&self) -> u64 {
        let input = self.profile.profile_input(self.measure_input);
        self.budget(input, self.profile_instructions)
    }

    /// The run the measurement phase traverses. Cells with equal measurement
    /// runs can share one traversal ([`Lab::run_lockstep`]).
    pub(crate) fn measure_run(&self) -> ArtifactKey {
        (
            self.benchmark,
            self.measure_input,
            self.seed,
            self.measure_budget(),
        )
    }

    /// The profile artifacts hint selection reads, or `None` for the `None`
    /// scheme, which reads none. [`Lab::select_hints`] reads exactly these,
    /// and a [`Sweep`](crate::Sweep) computes them for all its cells before
    /// any cell runs.
    pub(crate) fn profile_reads(&self) -> Option<ProfileReads> {
        if self.scheme == SelectionScheme::None {
            return None;
        }
        let input = self.profile.profile_input(self.measure_input);
        let merge = match self.profile {
            ProfileSource::SelfTrained | ProfileSource::CrossTrained => None,
            ProfileSource::MergedCrossTrained { max_bias_change } => {
                let budget = self.budget(InputSet::Ref, self.profile_instructions);
                let reference = (self.benchmark, InputSet::Ref, self.seed, budget);
                Some((reference, max_bias_change))
            }
        };
        Some(ProfileReads {
            run: (self.benchmark, input, self.seed, self.profile_budget()),
            accuracy: self
                .scheme
                .needs_accuracy_profile()
                .then_some(self.predictor),
            merge,
        })
    }

    /// Checks the structural invariants a spec must satisfy to produce a
    /// meaningful experiment, without running anything.
    ///
    /// These are the only run-blocking spec rules: [`Lab::run`],
    /// [`Lab::run_lockstep`] and every [`Sweep`](crate::Sweep) reject a spec
    /// that breaks one, and `sdbp check` reports each problem as a coded
    /// error (SDBP007–SDBP009). A valid spec is guaranteed not to panic
    /// inside [`Lab::run`] for spec-level reasons.
    ///
    /// # Errors
    ///
    /// Returns every violated invariant as a [`SpecProblem`] naming the
    /// offending field.
    pub fn validate(&self) -> Result<(), Vec<SpecProblem>> {
        let mut problems = Vec::new();
        let mut problem = |field: &'static str, message: String| {
            problems.push(SpecProblem { field, message });
        };
        if self.profile_instructions == Some(0) {
            problem(
                "profile_instructions",
                "profiling budget is zero; no branch would be profiled".to_string(),
            );
        }
        if self.measure_instructions == Some(0) {
            problem(
                "measure_instructions",
                "measurement budget is zero; no branch would be measured".to_string(),
            );
        }
        let measure = self.measure_budget();
        if measure > 0 && self.warmup_instructions >= measure {
            problem(
                "warmup_instructions",
                format!(
                    "warm-up of {} instructions consumes the whole measurement \
                     budget of {measure}",
                    self.warmup_instructions
                ),
            );
        }
        match self.scheme {
            SelectionScheme::None | SelectionScheme::VsAccuracy => {}
            SelectionScheme::Bias { cutoff } => {
                if !(cutoff > 0.0 && cutoff < 1.0) {
                    problem(
                        "scheme",
                        format!("bias cutoff {cutoff} outside the open interval (0, 1)"),
                    );
                }
            }
            SelectionScheme::Factor { factor } => {
                if !(factor > 0.0 && factor.is_finite()) {
                    problem(
                        "scheme",
                        format!("accuracy factor {factor} must be positive and finite"),
                    );
                }
            }
            SelectionScheme::CollisionAware {
                min_bias,
                min_collision_rate,
            } => {
                if !(min_bias > 0.0 && min_bias < 1.0) {
                    problem(
                        "scheme",
                        format!("minimum bias {min_bias} outside the open interval (0, 1)"),
                    );
                }
                if !(0.0..1.0).contains(&min_collision_rate) {
                    problem(
                        "scheme",
                        format!("minimum collision rate {min_collision_rate} outside [0, 1)"),
                    );
                }
            }
            SelectionScheme::Collide {
                min_bias,
                min_score_rate,
            } => {
                if !(min_bias > 0.0 && min_bias < 1.0) {
                    problem(
                        "scheme",
                        format!("minimum bias {min_bias} outside the open interval (0, 1)"),
                    );
                }
                if !(0.0..1.0).contains(&min_score_rate) {
                    problem(
                        "scheme",
                        format!("minimum score rate {min_score_rate} outside [0, 1)"),
                    );
                }
            }
        }
        if let ProfileSource::MergedCrossTrained { max_bias_change } = self.profile {
            if !(0.0..=1.0).contains(&max_bias_change) {
                problem(
                    "profile",
                    format!("maximum bias change {max_bias_change} outside [0, 1]"),
                );
            }
        }
        if problems.is_empty() {
            Ok(())
        } else {
            Err(problems)
        }
    }

    /// [`validate`](Self::validate) as the runners' gate: every problem,
    /// rendered `field: message` and joined by `; `, becomes the reason of
    /// one [`ExperimentError::Rejected`].
    pub(crate) fn admit(&self) -> Result<(), ExperimentError> {
        self.validate()
            .map_err(|problems| ExperimentError::Rejected {
                reason: problems
                    .iter()
                    .map(SpecProblem::to_string)
                    .collect::<Vec<_>>()
                    .join("; "),
            })
    }
}

/// The profile artifacts hint selection for one spec reads (see
/// [`ExperimentSpec::profile_reads`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct ProfileReads {
    /// The profiling run; selection reads its bias profile.
    pub(crate) run: ArtifactKey,
    /// The predictor whose accuracy profile on `run` the scheme reads.
    pub(crate) accuracy: Option<PredictorConfig>,
    /// Merged cross-training: the `Ref` run whose bias profile is merged
    /// with `run`'s, and the largest taken-rate change the merge keeps.
    pub(crate) merge: Option<(ArtifactKey, f64)>,
}

/// One violated invariant found by [`ExperimentSpec::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecProblem {
    /// The [`ExperimentSpec`] field at fault.
    pub field: &'static str,
    /// What is wrong with it.
    pub message: String,
}

impl fmt::Display for SpecProblem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.field, self.message)
    }
}

/// Errors from experiment execution and artifact persistence.
///
/// The taxonomy distinguishes what went wrong — a selection failure, a
/// pre-flight rejection, an I/O failure of the artifact store, a codec or
/// schema-version mismatch, or store corruption — so callers can react per
/// class (the CLI maps classes to distinct exit codes). Every variant
/// implements [`std::error::Error`] with [`source`](std::error::Error::source)
/// chaining to the underlying cause where one exists.
#[derive(Debug, Clone)]
pub enum ExperimentError {
    /// Hint selection failed.
    Select(SelectError),
    /// The spec was rejected before any simulation ran: it breaks a rule
    /// of [`ExperimentSpec::validate`], which [`Lab`] and every
    /// [`Sweep`](crate::Sweep) apply.
    Rejected {
        /// The violated rules, each as `field: message`, joined by `; `.
        reason: String,
    },
    /// The cell was not executed at all (e.g. a sweep hit its cell cap
    /// before reaching it). A resumed sweep runs skipped cells.
    Skipped {
        /// Why the cell was passed over.
        reason: String,
    },
    /// An artifact-store or manifest I/O operation failed.
    Io {
        /// What was being read or written.
        context: String,
        /// The underlying I/O error.
        source: Arc<std::io::Error>,
    },
    /// An artifact failed to encode or decode (including schema-version
    /// mismatches from a store written by a different build).
    Codec {
        /// What was being (de)serialized.
        context: String,
        /// The underlying codec error.
        source: CodecError,
    },
    /// A stored artifact's bytes do not match their content digest or
    /// envelope checksum — on-disk corruption, not a logic error.
    StoreCorrupt {
        /// Path of the damaged object.
        path: String,
        /// What the validation found.
        source: CodecError,
    },
    /// An error replayed from a previous run's manifest whose precise
    /// variant could not be reconstructed; `kind` preserves the original
    /// class label.
    Replayed {
        /// The original [`kind_label`](ExperimentError::kind_label).
        kind: String,
        /// The original rendered message.
        message: String,
    },
}

impl ExperimentError {
    /// A stable one-word class label, used by manifests to record (and
    /// later replay) the error class.
    pub fn kind_label(&self) -> &str {
        match self {
            ExperimentError::Select(_) => "select",
            ExperimentError::Rejected { .. } => "rejected",
            ExperimentError::Skipped { .. } => "skipped",
            ExperimentError::Io { .. } => "io",
            ExperimentError::Codec { .. } => "codec",
            ExperimentError::StoreCorrupt { .. } => "store-corrupt",
            ExperimentError::Replayed { kind, .. } => kind,
        }
    }
}

impl PartialEq for ExperimentError {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (ExperimentError::Select(a), ExperimentError::Select(b)) => a == b,
            (ExperimentError::Rejected { reason: a }, ExperimentError::Rejected { reason: b })
            | (ExperimentError::Skipped { reason: a }, ExperimentError::Skipped { reason: b }) => {
                a == b
            }
            (
                ExperimentError::Io {
                    context: ca,
                    source: sa,
                },
                ExperimentError::Io {
                    context: cb,
                    source: sb,
                },
            ) => ca == cb && sa.kind() == sb.kind(),
            (
                ExperimentError::Codec {
                    context: ca,
                    source: sa,
                },
                ExperimentError::Codec {
                    context: cb,
                    source: sb,
                },
            ) => ca == cb && sa == sb,
            (
                ExperimentError::StoreCorrupt {
                    path: pa,
                    source: sa,
                },
                ExperimentError::StoreCorrupt {
                    path: pb,
                    source: sb,
                },
            ) => pa == pb && sa == sb,
            (
                ExperimentError::Replayed {
                    kind: ka,
                    message: ma,
                },
                ExperimentError::Replayed {
                    kind: kb,
                    message: mb,
                },
            ) => ka == kb && ma == mb,
            _ => false,
        }
    }
}

impl fmt::Display for ExperimentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExperimentError::Select(e) => write!(f, "hint selection failed: {e}"),
            ExperimentError::Rejected { reason } => {
                write!(f, "spec rejected by pre-flight checks: {reason}")
            }
            ExperimentError::Skipped { reason } => write!(f, "cell skipped: {reason}"),
            ExperimentError::Io { context, source } => {
                write!(f, "artifact I/O failed while {context}: {source}")
            }
            ExperimentError::Codec { context, source } => {
                write!(f, "artifact codec failed while {context}: {source}")
            }
            ExperimentError::StoreCorrupt { path, source } => {
                write!(f, "corrupt artifact at {path}: {source}")
            }
            ExperimentError::Replayed { kind, message } => {
                write!(f, "replayed {kind} error from manifest: {message}")
            }
        }
    }
}

impl std::error::Error for ExperimentError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ExperimentError::Select(e) => Some(e),
            ExperimentError::Io { source, .. } => Some(source.as_ref()),
            ExperimentError::Codec { source, .. }
            | ExperimentError::StoreCorrupt { source, .. } => Some(source),
            ExperimentError::Rejected { .. }
            | ExperimentError::Skipped { .. }
            | ExperimentError::Replayed { .. } => None,
        }
    }
}

impl From<SelectError> for ExperimentError {
    fn from(e: SelectError) -> Self {
        ExperimentError::Select(e)
    }
}

impl From<StoreError> for ExperimentError {
    fn from(e: StoreError) -> Self {
        match e {
            StoreError::Io { path, source } => ExperimentError::Io {
                context: format!("accessing {path}"),
                source,
            },
            StoreError::Corrupt { path, source } => ExperimentError::StoreCorrupt { path, source },
        }
    }
}

/// Runs one experiment end to end with a throwaway cache.
///
/// Sweeps should use a [`Lab`] (serial) or a [`Sweep`](crate::Sweep)
/// (parallel), which memoize profiles and event streams across runs —
/// profiling gcc once instead of forty times makes the `sdbp bench`
/// experiments an order of magnitude faster.
///
/// # Errors
///
/// [`ExperimentError::Rejected`] for a spec that fails
/// [`ExperimentSpec::validate`]; otherwise propagates [`SelectError`] from
/// hint selection (e.g. `Static_Collide` on a predictor whose index function
/// is opaque to static analysis).
pub fn run_experiment(spec: &ExperimentSpec) -> Result<Report, ExperimentError> {
    Lab::new().run(spec)
}

/// An experiment runner with memoized profiling, backed by an
/// [`ArtifactCache`].
///
/// Bias profiles depend only on `(benchmark, input, seed, budget)` and are
/// shared across predictor configurations; accuracy profiles additionally
/// depend on the predictor and are keyed accordingly; the generated event
/// streams behind both (and behind the measurement phase) are memoized the
/// same way. The cache is thread-safe and can be shared with a
/// [`Sweep`](crate::Sweep) — or across several labs — via [`Lab::with_cache`].
pub struct Lab {
    cache: Arc<ArtifactCache>,
}

impl Default for Lab {
    fn default() -> Self {
        Self::new()
    }
}

impl Lab {
    /// Creates a lab with a fresh artifact cache.
    pub fn new() -> Self {
        Self::with_cache(Arc::new(ArtifactCache::new()))
    }

    /// Creates a lab sharing an existing artifact cache.
    pub fn with_cache(cache: Arc<ArtifactCache>) -> Self {
        Self { cache }
    }

    /// The shared artifact cache behind this lab.
    pub fn cache(&self) -> Arc<ArtifactCache> {
        Arc::clone(&self.cache)
    }

    /// Selects the hint database for a spec (phase one).
    ///
    /// The profiling run's bias profile and the accuracy profile of the
    /// spec's predictor — when its scheme needs one — are collected in a
    /// single traversal of the event stream
    /// ([`ArtifactCache::profile_bundle`]).
    ///
    /// A `Static_Collide` scheme additionally runs the static interference
    /// ranking ([`rank_interference`]) over the selection bias; that analysis
    /// needs the predictor's index function, so opaque predictors fail with
    /// [`SelectError::MissingInterferenceRanking`].
    pub fn select_hints(&self, spec: &ExperimentSpec) -> Result<HintDatabase, ExperimentError> {
        let Some(reads) = spec.profile_reads() else {
            return Ok(HintDatabase::new());
        };
        let (benchmark, input, seed, budget) = reads.run;
        let (profiled_bias, mut accuracies) =
            self.cache
                .profile_bundle(benchmark, input, seed, budget, reads.accuracy.as_slice());
        let accuracy = accuracies.pop();
        let bias: Arc<BiasProfile> = match reads.merge {
            None => profiled_bias,
            Some(((benchmark, input, seed, budget), max_bias_change)) => {
                let (reference, _) = self
                    .cache
                    .profile_bundle(benchmark, input, seed, budget, &[]);
                let mut db = ProfileDatabase::new(spec.benchmark.name());
                db.add_run("train", (*profiled_bias).clone());
                db.add_run("ref", (*reference).clone());
                Arc::new(db.merged_stable(max_bias_change))
            }
        };

        let ranking = if spec.scheme.needs_interference_ranking() {
            rank_interference(&bias, spec.predictor, &InterferenceOptions::default())
        } else {
            None
        };
        Ok(spec
            .scheme
            .select_with_interference(&bias, accuracy.as_deref(), ranking.as_ref())?)
    }

    /// Phase one for one spec: the [`ExperimentSpec::validate`] gate, hint
    /// selection, and the combined predictor ready for measurement (plus
    /// the hint count for the report).
    fn phase_one(
        &self,
        spec: &ExperimentSpec,
    ) -> Result<(CombinedPredictor, usize), ExperimentError> {
        spec.admit()?;
        let hints = self.select_hints(spec)?;
        let hints_len = hints.len();
        // build_any: the measurement loop dispatches on the enum, not a
        // vtable — this is the system's hottest path.
        let combined = CombinedPredictor::new(spec.predictor.build_any(), hints, spec.shift);
        Ok((combined, hints_len))
    }

    /// Runs one experiment end to end (phase one + phase two): a lockstep
    /// group of one ([`Lab::run_lockstep`]).
    pub fn run(&self, spec: &ExperimentSpec) -> Result<Report, ExperimentError> {
        self.run_lockstep(&[spec])
            .pop()
            .expect("one member, one result")
    }

    /// Runs a group of experiments whose measurement runs share one event
    /// stream — same benchmark, measurement input, seed and measurement
    /// budget — in **lockstep**: phase one runs per member as usual (and is
    /// memoized by the cache), then every member's measurement pass rides a
    /// single traversal of the shared stream instead of one traversal per
    /// member. Results come back in `specs` order and are bit-identical to
    /// measuring each member on a traversal of its own — measurement passes
    /// are independent chunk-invariant consumers of one
    /// [`PassRunner`](sdbp_passes::PassRunner) traversal. Cached streams
    /// replay zero-copy, and budgets too large for the trace store stream
    /// straight off the generator in chunk-sized memory
    /// ([`ArtifactCache::run_passes`]).
    ///
    /// Members that fail validation or selection report their error and
    /// simply do not join the traversal; the remaining members still share
    /// one. The traversals avoided are recorded in
    /// [`CacheStats`](crate::CacheStats)`::lockstep_traversals_saved`.
    ///
    /// # Panics
    ///
    /// Panics if the specs disagree on the measurement-stream key
    /// `(benchmark, measure_input, seed, measure_budget)` — callers group
    /// cells by that key (as [`Sweep`](crate::Sweep) does) before calling.
    pub fn run_lockstep(&self, specs: &[&ExperimentSpec]) -> Vec<Result<Report, ExperimentError>> {
        let Some(first) = specs.first() else {
            return Vec::new();
        };
        let key = first.measure_run();
        assert!(
            specs.iter().all(|spec| spec.measure_run() == key),
            "lockstep members must share the measurement stream key"
        );
        let (benchmark, input, seed, budget) = key;
        let mut slots: Vec<Option<Result<Report, ExperimentError>>> =
            Vec::with_capacity(specs.len());
        let mut metas: Vec<(usize, usize)> = Vec::new();
        let mut combineds: Vec<CombinedPredictor> = Vec::new();
        for (i, spec) in specs.iter().enumerate() {
            match self.phase_one(spec) {
                Ok((combined, hints_len)) => {
                    slots.push(None);
                    metas.push((i, hints_len));
                    combineds.push(combined);
                }
                Err(e) => slots.push(Some(Err(e))),
            }
        }
        if !combineds.is_empty() {
            let mut measures: Vec<MeasurePass<'_>> = combineds
                .iter_mut()
                .zip(&metas)
                .map(|(combined, &(i, _))| {
                    MeasurePass::new(combined).with_warmup(specs[i].warmup_instructions)
                })
                .collect();
            {
                let mut passes: Vec<&mut dyn Pass> =
                    measures.iter_mut().map(|m| m as &mut dyn Pass).collect();
                self.cache
                    .run_passes(benchmark, input, seed, budget, &mut passes);
            }
            self.cache.note_lockstep_saved(measures.len() as u64 - 1);
            for (measure, &(i, hints_len)) in measures.into_iter().zip(&metas) {
                let spec = specs[i];
                slots[i] = Some(Ok(Report {
                    benchmark: spec.benchmark,
                    predictor: spec.predictor,
                    scheme_label: spec.scheme.label(),
                    shift: spec.shift,
                    measure_input: spec.measure_input,
                    hints: hints_len,
                    stats: measure.into_stats(),
                }));
            }
        }
        slots
            .into_iter()
            .map(|slot| slot.expect("every member settled"))
            .collect()
    }
}

impl fmt::Debug for Lab {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Lab")
            .field("bias_profiles", &self.cache.bias_profiles())
            .field("accuracy_profiles", &self.cache.accuracy_profiles())
            .field("cached_traces", &self.cache.cached_traces())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdbp_predictors::PredictorKind;

    fn spec(scheme: SelectionScheme) -> ExperimentSpec {
        ExperimentSpec::self_trained(
            Benchmark::Compress,
            PredictorConfig::new(PredictorKind::Gshare, 1024).unwrap(),
            scheme,
        )
        .with_instructions(300_000)
    }

    #[test]
    fn profile_source_parses_every_training_name() {
        let merged = ProfileSource::MergedCrossTrained {
            max_bias_change: 0.05,
        };
        for (name, want) in [
            ("self", ProfileSource::SelfTrained),
            ("cross", ProfileSource::CrossTrained),
            ("merged", merged),
            ("cross-merged", merged),
        ] {
            assert_eq!(name.parse::<ProfileSource>(), Ok(want), "{name}");
        }
        for source in [
            ProfileSource::SelfTrained,
            ProfileSource::CrossTrained,
            merged,
        ] {
            assert_eq!(source.label().parse::<ProfileSource>(), Ok(source));
        }
        let err = "Self".parse::<ProfileSource>().unwrap_err();
        assert!(err.contains("'Self'"), "{err}");
    }

    #[test]
    fn baseline_run_produces_sane_stats() {
        let report = run_experiment(&spec(SelectionScheme::None)).unwrap();
        assert_eq!(report.hints, 0);
        assert!(report.stats.branches > 10_000);
        assert!(report.stats.accuracy() > 0.6, "{}", report.stats.accuracy());
        assert!(report.stats.misp_per_ki() < report.stats.cbrs_per_ki());
    }

    #[test]
    fn static_95_selects_hints_and_never_breaks_the_run() {
        let report = run_experiment(&spec(SelectionScheme::static_95())).unwrap();
        assert!(report.hints > 50, "hints: {}", report.hints);
        assert!(report.stats.static_predicted > 0);
        assert!(report.stats.static_accuracy() > 0.9);
    }

    #[test]
    fn static_acc_beats_or_matches_baseline_when_self_trained() {
        let baseline = run_experiment(&spec(SelectionScheme::None)).unwrap();
        let improved = run_experiment(&spec(SelectionScheme::static_acc())).unwrap();
        assert!(
            improved.stats.misp_per_ki() <= baseline.stats.misp_per_ki() * 1.02,
            "static_acc {:.3} vs baseline {:.3}",
            improved.stats.misp_per_ki(),
            baseline.stats.misp_per_ki()
        );
    }

    #[test]
    fn identical_specs_reproduce_identical_stats() {
        let a = run_experiment(&spec(SelectionScheme::static_95())).unwrap();
        let b = run_experiment(&spec(SelectionScheme::static_95())).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn lab_caches_profiles() {
        let lab = Lab::new();
        let s = spec(SelectionScheme::static_acc());
        let _ = lab.run(&s).unwrap();
        let _ = lab
            .run(&s.clone().with_scheme(SelectionScheme::static_95()))
            .unwrap();
        let debug = format!("{lab:?}");
        assert!(debug.contains("bias_profiles: 1"), "{debug}");
        assert!(debug.contains("accuracy_profiles: 1"), "{debug}");
    }

    #[test]
    fn fused_lab_profiles_in_one_traversal() {
        let lab = Lab::new();
        let _ = lab.run(&spec(SelectionScheme::static_acc())).unwrap();
        let stats = lab.cache().stats();
        assert_eq!(
            stats.fused_traversals_saved, 1,
            "bias + accuracy collected together: {stats}"
        );
    }

    #[test]
    fn lockstep_group_matches_sequential_runs_bit_for_bit() {
        let specs = [
            spec(SelectionScheme::None),
            spec(SelectionScheme::static_95()),
            spec(SelectionScheme::static_acc()).with_shift(ShiftPolicy::Shift),
            {
                let mut s = spec(SelectionScheme::None).with_warmup(100_000);
                s.predictor = PredictorConfig::new(PredictorKind::TwoBcGskew, 2048).unwrap();
                s
            },
        ];
        let sequential: Vec<Report> = specs.iter().map(|s| Lab::new().run(s).unwrap()).collect();
        let lab = Lab::new();
        let refs: Vec<&ExperimentSpec> = specs.iter().collect();
        let lockstep = lab.run_lockstep(&refs);
        assert_eq!(lockstep.len(), specs.len());
        for (got, want) in lockstep.iter().zip(&sequential) {
            assert_eq!(got.as_ref().unwrap(), want);
        }
        let stats = lab.cache().stats();
        assert_eq!(
            stats.lockstep_traversals_saved, 3,
            "four members on one traversal save three: {stats}"
        );
    }

    #[test]
    fn lockstep_failed_members_report_without_blocking_the_group() {
        let lab = Lab::new();
        let good = spec(SelectionScheme::static_95());
        let mut bad = spec(SelectionScheme::static_collide());
        // Opaque predictor: selection fails with a missing-ranking error.
        bad.predictor = PredictorConfig::new(PredictorKind::BiMode, 1024).unwrap();
        let results = lab.run_lockstep(&[&good, &bad, &good]);
        assert!(results[0].is_ok());
        assert!(matches!(
            results[1],
            Err(ExperimentError::Select(
                SelectError::MissingInterferenceRanking
            ))
        ));
        assert_eq!(
            results[0].as_ref().unwrap(),
            results[2].as_ref().unwrap(),
            "identical members agree"
        );
        assert_eq!(
            results[0].as_ref().unwrap(),
            &Lab::new().run(&good).unwrap()
        );
        assert_eq!(lab.cache().stats().lockstep_traversals_saved, 1);
    }

    #[test]
    fn lockstep_degenerate_groups() {
        let lab = Lab::new();
        assert!(lab.run_lockstep(&[]).is_empty());
        let single = spec(SelectionScheme::None);
        let results = lab.run_lockstep(&[&single]);
        assert_eq!(results.len(), 1);
        assert_eq!(
            results[0].as_ref().unwrap(),
            &Lab::new().run(&single).unwrap()
        );
        assert_eq!(
            lab.cache().stats().lockstep_traversals_saved,
            0,
            "a single member saves nothing"
        );
    }

    #[test]
    #[should_panic(expected = "measurement stream key")]
    fn lockstep_rejects_mismatched_measurement_keys() {
        let a = spec(SelectionScheme::None);
        let b = spec(SelectionScheme::None).with_seed(7);
        let _ = Lab::new().run_lockstep(&[&a, &b]);
    }

    #[test]
    fn profile_source_inputs() {
        assert_eq!(
            ProfileSource::SelfTrained.profile_input(InputSet::Ref),
            InputSet::Ref
        );
        assert_eq!(
            ProfileSource::CrossTrained.profile_input(InputSet::Ref),
            InputSet::Train
        );
        assert_eq!(
            ProfileSource::MergedCrossTrained {
                max_bias_change: 0.05
            }
            .profile_input(InputSet::Ref),
            InputSet::Train
        );
        assert_eq!(ProfileSource::SelfTrained.label(), "self");
        assert_eq!(ProfileSource::CrossTrained.label(), "cross");
    }

    #[test]
    fn merged_cross_training_runs() {
        let s =
            spec(SelectionScheme::static_95()).with_profile(ProfileSource::MergedCrossTrained {
                max_bias_change: 0.05,
            });
        let report = run_experiment(&s).unwrap();
        assert!(report.stats.branches > 10_000);
    }

    #[test]
    fn warmup_discounts_cold_start() {
        let with = run_experiment(&spec(SelectionScheme::None).with_warmup(100_000)).unwrap();
        let without = run_experiment(&spec(SelectionScheme::None)).unwrap();
        assert!(with.stats.branches < without.stats.branches);
        // On short runs the warm-up window isn't necessarily the worst
        // window, but the rates must stay in the same neighborhood.
        let ratio = with.stats.misp_per_ki() / without.stats.misp_per_ki();
        assert!(
            (0.7..1.3).contains(&ratio),
            "warm-up shifted rate by {ratio}"
        );
    }

    #[test]
    fn validate_accepts_the_paper_configurations() {
        spec(SelectionScheme::None).validate().unwrap();
        spec(SelectionScheme::static_95()).validate().unwrap();
        spec(SelectionScheme::static_acc()).validate().unwrap();
        spec(SelectionScheme::collision_aware()).validate().unwrap();
        spec(SelectionScheme::static_collide()).validate().unwrap();
        spec(SelectionScheme::static_95())
            .with_profile(ProfileSource::MergedCrossTrained {
                max_bias_change: 0.05,
            })
            .validate()
            .unwrap();
    }

    #[test]
    fn static_collide_runs_end_to_end_on_an_analyzable_predictor() {
        let report = run_experiment(&spec(SelectionScheme::static_collide())).unwrap();
        assert!(report.stats.branches > 10_000);
        assert_eq!(report.scheme_label, "static_collide");
        // The ranking-gated selection is a subset of plain Static_95.
        let bias_only = run_experiment(&spec(SelectionScheme::Bias { cutoff: 0.80 })).unwrap();
        assert!(
            report.hints <= bias_only.hints,
            "collide {} vs bias {}",
            report.hints,
            bias_only.hints
        );
    }

    #[test]
    fn static_collide_rejects_opaque_predictors() {
        let mut s = spec(SelectionScheme::static_collide());
        s.predictor = PredictorConfig::new(PredictorKind::BiMode, 1024).unwrap();
        match run_experiment(&s) {
            Err(ExperimentError::Select(SelectError::MissingInterferenceRanking)) => {}
            other => panic!("expected a missing-ranking error, got {other:?}"),
        }
    }

    #[test]
    fn validate_rejects_zero_budgets() {
        let mut s = spec(SelectionScheme::None);
        s.measure_instructions = Some(0);
        s.profile_instructions = Some(0);
        let problems = s.validate().unwrap_err();
        let fields: Vec<&str> = problems.iter().map(|p| p.field).collect();
        assert!(fields.contains(&"profile_instructions"), "{problems:?}");
        assert!(fields.contains(&"measure_instructions"), "{problems:?}");
    }

    #[test]
    fn validate_rejects_warmup_swallowing_the_run() {
        let s = spec(SelectionScheme::None).with_warmup(300_000);
        let problems = s.validate().unwrap_err();
        assert_eq!(problems.len(), 1);
        assert_eq!(problems[0].field, "warmup_instructions");
        assert!(problems[0].to_string().contains("warm-up"), "{problems:?}");
    }

    #[test]
    fn validate_rejects_out_of_range_scheme_parameters() {
        for scheme in [
            SelectionScheme::Bias { cutoff: 0.0 },
            SelectionScheme::Bias { cutoff: 1.0 },
            SelectionScheme::Factor { factor: 0.0 },
            SelectionScheme::Factor {
                factor: f64::INFINITY,
            },
            SelectionScheme::CollisionAware {
                min_bias: 1.5,
                min_collision_rate: 0.05,
            },
            SelectionScheme::CollisionAware {
                min_bias: 0.8,
                min_collision_rate: 1.0,
            },
            SelectionScheme::Collide {
                min_bias: 0.0,
                min_score_rate: 0.05,
            },
            SelectionScheme::Collide {
                min_bias: 0.8,
                min_score_rate: -0.5,
            },
        ] {
            let problems = spec(scheme).validate().unwrap_err();
            assert!(
                problems.iter().all(|p| p.field == "scheme"),
                "{scheme:?}: {problems:?}"
            );
        }
        let s = spec(SelectionScheme::None).with_profile(ProfileSource::MergedCrossTrained {
            max_bias_change: -0.1,
        });
        assert_eq!(s.validate().unwrap_err()[0].field, "profile");
    }

    #[test]
    fn lab_preflight_rejects_before_any_simulation() {
        let lab = Lab::new();
        let bad = spec(SelectionScheme::Bias { cutoff: 2.0 });
        match lab.run(&bad) {
            Err(ExperimentError::Rejected { reason }) => {
                assert!(reason.contains("cutoff"), "{reason}");
                assert_eq!(
                    reason,
                    "scheme: bias cutoff 2 outside the open interval (0, 1)"
                );
            }
            other => panic!("expected rejection, got {other:?}"),
        }
        assert!(
            format!("{lab:?}").contains("bias_profiles: 0"),
            "nothing may have been profiled"
        );
        let good = spec(SelectionScheme::static_95());
        assert!(lab.run(&good).is_ok(), "valid specs still run");
        let results = lab.run_lockstep(&[&bad, &good]);
        assert!(matches!(results[0], Err(ExperimentError::Rejected { .. })));
        assert!(
            results[1].is_ok(),
            "a rejected member does not block the group"
        );
    }

    #[test]
    fn builders_apply() {
        let s = spec(SelectionScheme::None)
            .with_shift(ShiftPolicy::Shift)
            .with_seed(7)
            .with_measure_input(InputSet::Train)
            .with_profile(ProfileSource::CrossTrained);
        assert_eq!(s.shift, ShiftPolicy::Shift);
        assert_eq!(s.seed, 7);
        assert_eq!(s.measure_input, InputSet::Train);
        assert_eq!(s.profile, ProfileSource::CrossTrained);
    }
}
