//! The memoized artifact cache shared by serial labs and parallel sweeps.
//!
//! Every cell of a paper-style grid (predictor × size × scheme × benchmark)
//! needs the same expensive artifacts: the generated branch event stream of
//! a `(benchmark, input, seed, instruction budget)` run, the bias profile of
//! that run, and — for accuracy-based selection schemes — the per-branch
//! accuracy profile of a given predictor on it. [`ArtifactCache`] computes
//! each artifact **once per key** and shares it via [`Arc`] across every
//! experiment (and every worker thread) that asks, instead of once per
//! experiment as the pre-sweep [`Lab`](crate::Lab) did.
//!
//! The cache is fully thread-safe: keys are claimed under a short-lived map
//! lock, and each artifact lands in a per-key [`OnceLock`]. Event streams
//! are generated inside it, so two threads racing on the *same* stream
//! block only each other while threads working on *different* keys proceed
//! in parallel. Profiles are computed outside it, so two threads racing on
//! one profile may both compute it and the slot keeps one copy; a
//! [`Sweep`](crate::Sweep) avoids the race by computing every profile its
//! cells read before any cell runs. Because generation is deterministic
//! (seeded [`sdbp_util`] RNG all the way down), a cached artifact is
//! bit-identical to a freshly computed one — which is what keeps parallel
//! sweeps bit-identical to serial runs.
//!
//! Event streams dominate memory (tens of MB per default-budget run), so
//! the trace store is bounded: completed traces are evicted
//! least-recently-used once their summed instruction budgets exceed a cap
//! (default 128 M instructions, override with `SDBP_TRACE_CACHE`; `0`
//! disables trace caching entirely). Profiles are small and never evicted.

use sdbp_artifacts::{Codec, Digest, Hasher, Store, StoreError};
use sdbp_passes::{Pass, PassRunner, TraversalStats};
use sdbp_predictors::PredictorConfig;
use sdbp_profiles::{AccuracyPass, AccuracyProfile, BiasPass, BiasProfile};
use sdbp_trace::{BranchEvent, BranchSource, SliceSource};
use sdbp_workloads::{imports, open_source, Benchmark, InputSet};
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// The memoization key: a fully determined generated run.
///
/// Two experiments share artifacts exactly when all four components match;
/// in particular the same benchmark under a **different seed is a miss**
/// (its event stream is a different random draw).
pub type ArtifactKey = (Benchmark, InputSet, u64, u64);

/// Default trace-store capacity in summed instruction budgets.
pub const DEFAULT_TRACE_CACHE_INSTRUCTIONS: u64 = 128_000_000;

/// Hit/miss counters of an [`ArtifactCache`], observable at any time.
///
/// A *miss* is a call that performed the computation; a *hit* found the
/// artifact already present (or waited for another thread computing it).
/// `trace_bypassed` counts event streams regenerated without caching
/// because their budget exceeded the trace-store capacity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Bias-profile lookups served from the cache.
    pub bias_hits: u64,
    /// Bias-profile lookups that computed the profile.
    pub bias_misses: u64,
    /// Accuracy-profile lookups served from the cache.
    pub accuracy_hits: u64,
    /// Accuracy-profile lookups that computed the profile.
    pub accuracy_misses: u64,
    /// Event-stream lookups served from the cache.
    pub trace_hits: u64,
    /// Event-stream lookups that generated (and cached) the stream.
    pub trace_misses: u64,
    /// Event-stream lookups too large for the store, regenerated uncached.
    pub trace_bypassed: u64,
    /// Profile computations avoided by reading the persistent disk tier.
    pub disk_hits: u64,
    /// Disk-tier probes that found nothing usable (absent, damaged, or
    /// unreadable) and fell through to computation.
    pub disk_misses: u64,
    /// Whole-trace traversals avoided by pass fusion: a fused call that
    /// computed `m` artifacts in one traversal saves `m - 1` traversals
    /// over the sequential one-artifact-per-traversal protocol.
    pub fused_traversals_saved: u64,
    /// Whole-trace traversals avoided by lockstep multi-config execution: a
    /// lockstep group that measured `m` predictor configurations over one
    /// shared traversal saves `m - 1` traversals over the sequential
    /// one-cell-per-traversal protocol.
    pub lockstep_traversals_saved: u64,
}

impl CacheStats {
    /// Total lookups served from the in-memory cache. The disk tier is
    /// counted separately (`disk_hits`/`disk_misses`): a disk hit is still a
    /// memory miss that was satisfied without recomputation.
    pub fn hits(&self) -> u64 {
        self.bias_hits + self.accuracy_hits + self.trace_hits
    }

    /// Total lookups that had to compute their artifact.
    pub fn misses(&self) -> u64 {
        self.bias_misses + self.accuracy_misses + self.trace_misses + self.trace_bypassed
    }

    /// Fraction of lookups served from the cache (0 when idle).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits() + self.misses();
        if total == 0 {
            0.0
        } else {
            self.hits() as f64 / total as f64
        }
    }

    /// The counter deltas accumulated since an earlier snapshot.
    pub fn since(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            bias_hits: self.bias_hits - earlier.bias_hits,
            bias_misses: self.bias_misses - earlier.bias_misses,
            accuracy_hits: self.accuracy_hits - earlier.accuracy_hits,
            accuracy_misses: self.accuracy_misses - earlier.accuracy_misses,
            trace_hits: self.trace_hits - earlier.trace_hits,
            trace_misses: self.trace_misses - earlier.trace_misses,
            trace_bypassed: self.trace_bypassed - earlier.trace_bypassed,
            disk_hits: self.disk_hits - earlier.disk_hits,
            disk_misses: self.disk_misses - earlier.disk_misses,
            fused_traversals_saved: self.fused_traversals_saved - earlier.fused_traversals_saved,
            lockstep_traversals_saved: self.lockstep_traversals_saved
                - earlier.lockstep_traversals_saved,
        }
    }
}

impl fmt::Display for CacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cache {:.0}% hit (traces {}/{}, bias {}/{}, accuracy {}/{} hit/miss{})",
            self.hit_rate() * 100.0,
            self.trace_hits,
            self.trace_misses,
            self.bias_hits,
            self.bias_misses,
            self.accuracy_hits,
            self.accuracy_misses,
            if self.trace_bypassed > 0 {
                format!(", {} bypassed", self.trace_bypassed)
            } else {
                String::new()
            }
        )?;
        if self.disk_hits + self.disk_misses > 0 {
            write!(f, ", disk {}/{} hit/miss", self.disk_hits, self.disk_misses)?;
        }
        if self.fused_traversals_saved > 0 {
            write!(
                f,
                ", {} traversals saved by fusion",
                self.fused_traversals_saved
            )?;
        }
        if self.lockstep_traversals_saved > 0 {
            write!(
                f,
                ", {} traversals saved by lockstep",
                self.lockstep_traversals_saved
            )?;
        }
        Ok(())
    }
}

type Slot<T> = Arc<OnceLock<Arc<T>>>;

struct TraceEntry {
    slot: Slot<Vec<BranchEvent>>,
    instructions: u64,
    last_use: u64,
}

struct TraceStore {
    entries: HashMap<ArtifactKey, TraceEntry>,
    capacity: u64,
    tick: u64,
}

/// Thread-safe memoization of generated event streams and profiles.
///
/// See the [module docs](self) for the caching and eviction policy. Share
/// one cache across many [`Lab`](crate::Lab)s / [`Sweep`](crate::Sweep)s by
/// cloning the surrounding [`Arc`].
pub struct ArtifactCache {
    bias: Mutex<HashMap<ArtifactKey, Slot<BiasProfile>>>,
    accuracy: Mutex<HashMap<(ArtifactKey, PredictorConfig), Slot<AccuracyProfile>>>,
    traces: Mutex<TraceStore>,
    disk: OnceLock<Arc<Store>>,
    bias_hits: AtomicU64,
    bias_misses: AtomicU64,
    accuracy_hits: AtomicU64,
    accuracy_misses: AtomicU64,
    trace_hits: AtomicU64,
    trace_misses: AtomicU64,
    trace_bypassed: AtomicU64,
    disk_hits: AtomicU64,
    disk_misses: AtomicU64,
    fused_traversals_saved: AtomicU64,
    lockstep_traversals_saved: AtomicU64,
}

impl ArtifactCache {
    /// An empty cache with the default trace-store capacity, honouring the
    /// `SDBP_TRACE_CACHE` environment override (instructions; `0` disables
    /// trace caching).
    pub fn new() -> Self {
        let capacity = std::env::var("SDBP_TRACE_CACHE")
            .ok()
            .and_then(|v| v.trim().parse::<u64>().ok())
            .unwrap_or(DEFAULT_TRACE_CACHE_INSTRUCTIONS);
        Self::with_trace_capacity(capacity)
    }

    /// An empty cache whose trace store holds at most `capacity` summed
    /// instruction budgets (`0` disables trace caching).
    pub fn with_trace_capacity(capacity: u64) -> Self {
        Self {
            bias: Mutex::new(HashMap::new()),
            accuracy: Mutex::new(HashMap::new()),
            traces: Mutex::new(TraceStore {
                entries: HashMap::new(),
                capacity,
                tick: 0,
            }),
            disk: OnceLock::new(),
            bias_hits: AtomicU64::new(0),
            bias_misses: AtomicU64::new(0),
            accuracy_hits: AtomicU64::new(0),
            accuracy_misses: AtomicU64::new(0),
            trace_hits: AtomicU64::new(0),
            trace_misses: AtomicU64::new(0),
            trace_bypassed: AtomicU64::new(0),
            disk_hits: AtomicU64::new(0),
            disk_misses: AtomicU64::new(0),
            fused_traversals_saved: AtomicU64::new(0),
            lockstep_traversals_saved: AtomicU64::new(0),
        }
    }

    /// Attaches a persistent disk tier: profile lookups that miss in memory
    /// first probe `store` (keyed by [`bias_profile_digest`] /
    /// [`accuracy_profile_digest`] links) and persist what they compute.
    /// Damaged entries self-heal — they are deleted and recomputed, never
    /// surfaced. At most one store can be attached; later calls are ignored.
    pub fn attach_store(&self, store: Arc<Store>) {
        let _ = self.disk.set(store);
    }

    /// A snapshot of the hit/miss counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            bias_hits: self.bias_hits.load(Ordering::Relaxed),
            bias_misses: self.bias_misses.load(Ordering::Relaxed),
            accuracy_hits: self.accuracy_hits.load(Ordering::Relaxed),
            accuracy_misses: self.accuracy_misses.load(Ordering::Relaxed),
            trace_hits: self.trace_hits.load(Ordering::Relaxed),
            trace_misses: self.trace_misses.load(Ordering::Relaxed),
            trace_bypassed: self.trace_bypassed.load(Ordering::Relaxed),
            disk_hits: self.disk_hits.load(Ordering::Relaxed),
            disk_misses: self.disk_misses.load(Ordering::Relaxed),
            fused_traversals_saved: self.fused_traversals_saved.load(Ordering::Relaxed),
            lockstep_traversals_saved: self.lockstep_traversals_saved.load(Ordering::Relaxed),
        }
    }

    /// Records `n` whole-trace traversals avoided by lockstep multi-config
    /// execution (a group of `m` measurement cells sharing one traversal
    /// records `m - 1`). Observable as
    /// [`CacheStats::lockstep_traversals_saved`].
    pub fn note_lockstep_saved(&self, n: u64) {
        if n > 0 {
            self.lockstep_traversals_saved
                .fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Number of distinct bias profiles held.
    pub fn bias_profiles(&self) -> usize {
        self.bias.lock().expect("cache lock").len()
    }

    /// Number of distinct accuracy profiles held.
    pub fn accuracy_profiles(&self) -> usize {
        self.accuracy.lock().expect("cache lock").len()
    }

    /// Number of event streams currently resident in the trace store.
    pub fn cached_traces(&self) -> usize {
        self.traces.lock().expect("cache lock").entries.len()
    }

    /// The (cached) branch event stream of a generated run.
    ///
    /// Streams whose budget exceeds the trace-store capacity are generated
    /// fresh on every call and never cached (counted as `trace_bypassed`).
    pub fn events(
        &self,
        benchmark: Benchmark,
        input: InputSet,
        seed: u64,
        instructions: u64,
    ) -> Arc<Vec<BranchEvent>> {
        let key = (benchmark, input, seed, instructions);
        let capacity = self.traces.lock().expect("cache lock").capacity;
        if instructions > capacity {
            self.trace_bypassed.fetch_add(1, Ordering::Relaxed);
            return Arc::new(generate_events(key));
        }
        let slot = {
            let mut store = self.traces.lock().expect("cache lock");
            store.tick += 1;
            let tick = store.tick;
            let entry = store.entries.entry(key).or_insert_with(|| TraceEntry {
                slot: Arc::new(OnceLock::new()),
                instructions,
                last_use: tick,
            });
            entry.last_use = tick;
            Arc::clone(&entry.slot)
        };
        let mut computed = false;
        let events = slot.get_or_init(|| {
            computed = true;
            Arc::new(generate_events(key))
        });
        if computed {
            self.trace_misses.fetch_add(1, Ordering::Relaxed);
            self.evict_lru(key);
        } else {
            self.trace_hits.fetch_add(1, Ordering::Relaxed);
        }
        Arc::clone(events)
    }

    /// Streams one generated run through `passes` in a single traversal.
    ///
    /// This is the cache-aware entry point of the pass framework: cached
    /// streams are replayed zero-copy from the trace store (with the usual
    /// hit/miss accounting), while streams whose budget exceeds the store
    /// capacity are generated **once for the whole traversal** and fed to
    /// every pass chunk-by-chunk — peak memory is bounded by the runner's
    /// chunk size, not the trace length, and `trace_bypassed` counts one
    /// generation per traversal rather than one per consumer.
    pub fn run_passes(
        &self,
        benchmark: Benchmark,
        input: InputSet,
        seed: u64,
        instructions: u64,
        passes: &mut [&mut dyn Pass],
    ) -> TraversalStats {
        let capacity = self.traces.lock().expect("cache lock").capacity;
        if instructions > capacity {
            self.trace_bypassed.fetch_add(1, Ordering::Relaxed);
            let source = open_source(benchmark, input, seed).take_instructions(instructions);
            return PassRunner::new().run(source, passes);
        }
        let events = self.events(benchmark, input, seed, instructions);
        PassRunner::new().run(SliceSource::new(&events), passes)
    }

    /// The (cached) bias profile of a run **and** the accuracy profiles of
    /// every predictor in `predictors` on it, computing whatever is missing
    /// in one fused traversal. With no predictors this is a bias-only
    /// lookup.
    ///
    /// Each artifact is looked up in memory, then in the disk tier; every
    /// artifact that neither tier holds is collected in a **single**
    /// traversal of the event stream and persisted. Each artifact counts as
    /// one hit or one miss, and each one computed beyond the first in that
    /// traversal counts in [`CacheStats::fused_traversals_saved`]. Every
    /// pass is chunk-invariant, so a fused artifact is bit-identical to one
    /// collected on a traversal of its own.
    ///
    /// Accuracy profiles are returned in `predictors` order.
    pub fn profile_bundle(
        &self,
        benchmark: Benchmark,
        input: InputSet,
        seed: u64,
        instructions: u64,
        predictors: &[PredictorConfig],
    ) -> (Arc<BiasProfile>, Vec<Arc<AccuracyProfile>>) {
        let key = (benchmark, input, seed, instructions);
        // Claim every slot up front under short map locks, then decide
        // which artifacts actually need computing.
        let bias_slot = {
            let mut map = self.bias.lock().expect("cache lock");
            Arc::clone(map.entry(key).or_insert_with(|| Arc::new(OnceLock::new())))
        };
        let acc_slots: Vec<Slot<AccuracyProfile>> = {
            let mut map = self.accuracy.lock().expect("cache lock");
            predictors
                .iter()
                .map(|&p| {
                    Arc::clone(
                        map.entry((key, p))
                            .or_insert_with(|| Arc::new(OnceLock::new())),
                    )
                })
                .collect()
        };

        // Probe the disk tier only for artifacts that are cold in memory.
        // Whatever the disk cannot supply joins the fused traversal.
        let mut bias_value: Option<Arc<BiasProfile>> = None;
        let mut bias_cold = false;
        if bias_slot.get().is_none() {
            let disk_key = bias_profile_digest(benchmark, input, seed, instructions);
            match self.disk_fetch::<BiasProfile>(disk_key) {
                Some(stored) => bias_value = Some(Arc::new(stored)),
                None => bias_cold = true,
            }
        }
        let mut acc_values: Vec<Option<Arc<AccuracyProfile>>> = vec![None; predictors.len()];
        let mut acc_cold: Vec<usize> = Vec::new();
        for (i, (&predictor, slot)) in predictors.iter().zip(&acc_slots).enumerate() {
            if slot.get().is_some() {
                continue;
            }
            let disk_key = accuracy_profile_digest(benchmark, input, seed, instructions, predictor);
            match self.disk_fetch::<AccuracyProfile>(disk_key) {
                Some(stored) => acc_values[i] = Some(Arc::new(stored)),
                None => acc_cold.push(i),
            }
        }

        // One traversal computes every cold artifact simultaneously. Two
        // threads racing on overlapping bundles may both compute; the slots
        // below keep exactly one copy (results are deterministic, so either
        // copy is bit-identical).
        if bias_cold || !acc_cold.is_empty() {
            let mut bias_pass = bias_cold.then(BiasPass::new);
            let mut engines: Vec<_> = acc_cold
                .iter()
                .map(|&i| predictors[i].build_any())
                .collect();
            let mut acc_passes: Vec<_> = engines.iter_mut().map(AccuracyPass::new).collect();
            let mut passes: Vec<&mut dyn Pass> = Vec::new();
            if let Some(p) = bias_pass.as_mut() {
                passes.push(p);
            }
            for p in acc_passes.iter_mut() {
                passes.push(p);
            }
            let fused = passes.len() as u64;
            self.run_passes(benchmark, input, seed, instructions, &mut passes);
            if fused > 1 {
                self.fused_traversals_saved
                    .fetch_add(fused - 1, Ordering::Relaxed);
            }
            if let Some(pass) = bias_pass {
                let profile = Arc::new(pass.into_profile());
                let disk_key = bias_profile_digest(benchmark, input, seed, instructions);
                self.disk_persist(disk_key, &*profile);
                bias_value = Some(profile);
            }
            for (&i, pass) in acc_cold.iter().zip(acc_passes) {
                let profile = Arc::new(pass.into_profile());
                let disk_key =
                    accuracy_profile_digest(benchmark, input, seed, instructions, predictors[i]);
                self.disk_persist(disk_key, &*profile);
                acc_values[i] = Some(profile);
            }
        }

        // Fill the slots and settle the counters: an artifact we computed
        // (or revived from disk) is a miss, one already present — including
        // one another thread filled while we worked — is a hit.
        let bias = {
            let mut computed = false;
            let profile = bias_slot.get_or_init(|| {
                computed = true;
                bias_value.expect("cold bias computed above")
            });
            let counter = if computed {
                &self.bias_misses
            } else {
                &self.bias_hits
            };
            counter.fetch_add(1, Ordering::Relaxed);
            Arc::clone(profile)
        };
        let accuracies = acc_slots
            .into_iter()
            .zip(acc_values)
            .map(|(slot, value)| {
                let mut computed = false;
                let profile = slot.get_or_init(|| {
                    computed = true;
                    value.expect("cold accuracy computed above")
                });
                let counter = if computed {
                    &self.accuracy_misses
                } else {
                    &self.accuracy_hits
                };
                counter.fetch_add(1, Ordering::Relaxed);
                Arc::clone(profile)
            })
            .collect();
        (bias, accuracies)
    }

    /// Drops completed least-recently-used traces until the store fits its
    /// capacity again (never the entry just touched).
    fn evict_lru(&self, keep: ArtifactKey) {
        let mut store = self.traces.lock().expect("cache lock");
        let mut total: u64 = store
            .entries
            .values()
            .filter(|e| e.slot.get().is_some())
            .map(|e| e.instructions)
            .sum();
        while total > store.capacity {
            let Some((&victim, _)) = store
                .entries
                .iter()
                .filter(|(k, e)| **k != keep && e.slot.get().is_some())
                .min_by_key(|(_, e)| e.last_use)
            else {
                break;
            };
            let removed = store.entries.remove(&victim).expect("victim present");
            total -= removed.instructions;
        }
    }

    /// Probes the disk tier for a profile filed under a derived key.
    ///
    /// Corruption self-heals: the damaged link/object is deleted, the probe
    /// reports a miss, and the caller's recomputation re-persists a healthy
    /// copy. I/O failures also degrade to a miss — the disk tier is an
    /// accelerator, never a correctness dependency.
    fn disk_fetch<T: Codec>(&self, key: Digest) -> Option<T> {
        let store = self.disk.get()?;
        let fetched = store
            .get_link(key)
            .and_then(|target| target.map_or(Ok(None), |t| store.get::<T>(t)));
        match fetched {
            Ok(Some(value)) => {
                self.disk_hits.fetch_add(1, Ordering::Relaxed);
                return Some(value);
            }
            Ok(None) => {}
            Err(StoreError::Corrupt { .. }) => {
                if let Ok(Some(target)) = store.get_link(key) {
                    let _ = store.remove(target);
                }
                let _ = store.remove_link(key);
            }
            Err(StoreError::Io { .. }) => {}
        }
        self.disk_misses.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// Best-effort write-through of a freshly computed profile.
    fn disk_persist<T: Codec>(&self, key: Digest, value: &T) {
        if let Some(store) = self.disk.get() {
            if let Ok(target) = store.put(value) {
                let _ = store.put_link(key, target);
            }
        }
    }
}

/// The disk-tier key of a bias profile: a digest of the run coordinates
/// `(benchmark, input, seed, instruction budget)`.
///
/// For imported benchmarks the content digest recorded at admission is also
/// mixed in, so a re-registered file with *different* contents under the
/// same display name can never replay stale persisted profiles.
pub fn bias_profile_digest(
    benchmark: Benchmark,
    input: InputSet,
    seed: u64,
    instructions: u64,
) -> Digest {
    let mut h = Hasher::new();
    h.write_str("sdbp-bias-profile");
    h.write_str(benchmark.name());
    h.write_str(input.name());
    h.write_u64(seed);
    h.write_u64(instructions);
    mix_import_digest(&mut h, benchmark);
    h.finish()
}

/// Mixes an imported benchmark's admission-time content digest into a
/// disk-tier key (no-op for synthetic benchmarks, keeping their keys — and
/// every previously persisted profile — unchanged).
fn mix_import_digest(h: &mut Hasher, benchmark: Benchmark) {
    if let Benchmark::Imported(slot) = benchmark {
        if let Some(info) = imports::info(slot) {
            h.write_str("imported-content");
            h.write_u64(info.digest);
        }
    }
}

/// The disk-tier key of an accuracy profile: the bias coordinates plus the
/// predictor configuration the profile was collected against.
pub fn accuracy_profile_digest(
    benchmark: Benchmark,
    input: InputSet,
    seed: u64,
    instructions: u64,
    predictor: PredictorConfig,
) -> Digest {
    let mut h = Hasher::new();
    h.write_str("sdbp-accuracy-profile");
    h.write_str(benchmark.name());
    h.write_str(input.name());
    h.write_u64(seed);
    h.write_u64(instructions);
    h.write_str(predictor.kind().name());
    h.write_u64(predictor.size_bytes() as u64);
    mix_import_digest(&mut h, benchmark);
    h.finish()
}

/// Generates one run's event stream from scratch (the uncached path).
///
/// Dispatch over generator-backed, interleaved-server, and imported-trace
/// benchmarks is [`open_source`]'s job; this path only caps and collects.
fn generate_events(key: ArtifactKey) -> Vec<BranchEvent> {
    let (benchmark, input, seed, instructions) = key;
    let mut source = open_source(benchmark, input, seed).take_instructions(instructions);
    // Pre-size from the workload's branch density to avoid regrowth churn.
    let expected = (instructions as f64 * benchmark.expected_cbrs_per_ki(input) / 1000.0) as usize;
    let mut events = Vec::with_capacity(expected.min(1 << 26));
    // Chunked pulls amortize the per-event source indirection; the generator
    // overrides `fill_events` with a straight batch loop.
    while source.fill_events(&mut events, 8192) > 0 {}
    events
}

impl Default for ArtifactCache {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for ArtifactCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ArtifactCache")
            .field("bias_profiles", &self.bias_profiles())
            .field("accuracy_profiles", &self.accuracy_profiles())
            .field("cached_traces", &self.cached_traces())
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdbp_predictors::PredictorKind;

    const BUDGET: u64 = 50_000;

    fn cache() -> ArtifactCache {
        ArtifactCache::with_trace_capacity(DEFAULT_TRACE_CACHE_INSTRUCTIONS)
    }

    fn gshare() -> PredictorConfig {
        PredictorConfig::new(PredictorKind::Gshare, 1024).unwrap()
    }

    /// A bias-only bundle of compress/ref at `seed`.
    fn bias(c: &ArtifactCache, seed: u64) -> Arc<BiasProfile> {
        c.profile_bundle(Benchmark::Compress, InputSet::Ref, seed, BUDGET, &[])
            .0
    }

    /// The accuracy profile of `predictor` on compress/ref at seed 1, from
    /// a bundle that also reads the run's bias profile.
    fn accuracy(c: &ArtifactCache, predictor: PredictorConfig) -> Arc<AccuracyProfile> {
        let (_, mut accs) =
            c.profile_bundle(Benchmark::Compress, InputSet::Ref, 1, BUDGET, &[predictor]);
        accs.pop().expect("one predictor, one profile")
    }

    #[test]
    fn repeated_lookups_hit() {
        let c = cache();
        let a = bias(&c, 1);
        let b = bias(&c, 1);
        assert!(Arc::ptr_eq(&a, &b), "second lookup must share the Arc");
        let s = c.stats();
        assert_eq!((s.bias_misses, s.bias_hits), (1, 1));
        // The bias profile's first computation also generated the trace.
        assert_eq!(s.trace_misses, 1);
    }

    #[test]
    fn different_seed_is_a_miss() {
        let c = cache();
        let a = bias(&c, 1);
        let b = bias(&c, 2);
        assert!(!Arc::ptr_eq(&a, &b));
        assert_ne!(*a, *b, "different seeds draw different streams");
        let s = c.stats();
        assert_eq!((s.bias_misses, s.bias_hits), (2, 0));
        assert_eq!(c.cached_traces(), 2);
    }

    #[test]
    fn every_key_component_separates_entries() {
        let c = cache();
        let base = c.events(Benchmark::Compress, InputSet::Ref, 1, BUDGET);
        for (bench, input, seed, budget) in [
            (Benchmark::Go, InputSet::Ref, 1, BUDGET),
            (Benchmark::Compress, InputSet::Train, 1, BUDGET),
            (Benchmark::Compress, InputSet::Ref, 9, BUDGET),
            (Benchmark::Compress, InputSet::Ref, 1, BUDGET / 2),
        ] {
            let other = c.events(bench, input, seed, budget);
            assert!(!Arc::ptr_eq(&base, &other));
        }
        assert_eq!(c.stats().trace_misses, 5);
        assert_eq!(c.stats().trace_hits, 0);
    }

    #[test]
    fn accuracy_profiles_key_on_predictor_too() {
        let c = cache();
        let bimodal = PredictorConfig::new(PredictorKind::Bimodal, 1024).unwrap();
        let a = accuracy(&c, gshare());
        let b = accuracy(&c, bimodal);
        let a2 = accuracy(&c, gshare());
        assert!(!Arc::ptr_eq(&a, &b));
        assert!(Arc::ptr_eq(&a, &a2));
        let s = c.stats();
        assert_eq!((s.accuracy_misses, s.accuracy_hits), (2, 1));
        // The run's bias profile is shared by every bundle.
        assert_eq!((s.bias_misses, s.bias_hits), (1, 2));
        // Both profiles replayed the single cached trace.
        assert_eq!((s.trace_misses, s.trace_hits), (1, 1));
    }

    #[test]
    fn cached_events_match_fresh_generation() {
        let c = cache();
        let cached = c.events(Benchmark::Go, InputSet::Train, 7, BUDGET);
        let fresh = generate_events((Benchmark::Go, InputSet::Train, 7, BUDGET));
        assert_eq!(*cached, fresh);
    }

    #[test]
    fn oversized_streams_bypass_the_store() {
        let c = ArtifactCache::with_trace_capacity(BUDGET / 2);
        let _ = c.events(Benchmark::Compress, InputSet::Ref, 1, BUDGET);
        let _ = c.events(Benchmark::Compress, InputSet::Ref, 1, BUDGET);
        let s = c.stats();
        assert_eq!(s.trace_bypassed, 2);
        assert_eq!(c.cached_traces(), 0);
    }

    #[test]
    fn lru_eviction_respects_capacity() {
        // Capacity fits two of the three streams.
        let c = ArtifactCache::with_trace_capacity(2 * BUDGET);
        let _ = c.events(Benchmark::Compress, InputSet::Ref, 1, BUDGET);
        let _ = c.events(Benchmark::Compress, InputSet::Ref, 2, BUDGET);
        // Touch seed 1 so seed 2 is the LRU victim.
        let _ = c.events(Benchmark::Compress, InputSet::Ref, 1, BUDGET);
        let _ = c.events(Benchmark::Compress, InputSet::Ref, 3, BUDGET);
        assert_eq!(c.cached_traces(), 2);
        // Seed 1 must still be resident (a hit), seed 2 evicted (a miss).
        let before = c.stats();
        let _ = c.events(Benchmark::Compress, InputSet::Ref, 1, BUDGET);
        assert_eq!(c.stats().trace_hits, before.trace_hits + 1);
        let _ = c.events(Benchmark::Compress, InputSet::Ref, 2, BUDGET);
        assert_eq!(c.stats().trace_misses, before.trace_misses + 1);
    }

    #[test]
    fn profile_bundle_matches_sequential_lookups() {
        let gshare = gshare();
        let bimodal = PredictorConfig::new(PredictorKind::Bimodal, 1024).unwrap();

        // Sequential reference: each profile over a traversal of its own.
        let events = cache().events(Benchmark::Compress, InputSet::Ref, 1, BUDGET);
        let collect = |predictor: PredictorConfig| {
            AccuracyProfile::collect(SliceSource::new(&events), &mut predictor.build_any())
        };

        let c = cache();
        let (bias, accs) = c.profile_bundle(
            Benchmark::Compress,
            InputSet::Ref,
            1,
            BUDGET,
            &[gshare, bimodal],
        );
        assert_eq!(
            *bias,
            BiasProfile::from_source(SliceSource::new(&events)),
            "fused bias is bit-identical"
        );
        assert_eq!(*accs[0], collect(gshare), "fused accuracy is bit-identical");
        assert_eq!(*accs[1], collect(bimodal));
        let s = c.stats();
        assert_eq!((s.bias_misses, s.accuracy_misses), (1, 2));
        assert_eq!(s.trace_misses, 1, "one traversal generated the trace");
        assert_eq!(
            s.fused_traversals_saved, 2,
            "three artifacts in one traversal saves two"
        );

        // Everything is now hot: a repeat bundle is pure hits and no
        // further traversals are saved (none were needed).
        let before = c.stats();
        let _ = c.profile_bundle(
            Benchmark::Compress,
            InputSet::Ref,
            1,
            BUDGET,
            &[gshare, bimodal],
        );
        let delta = c.stats().since(&before);
        assert_eq!((delta.bias_hits, delta.accuracy_hits), (1, 2));
        assert_eq!(delta.misses(), 0, "{delta}");
        assert_eq!(delta.fused_traversals_saved, 0);
    }

    #[test]
    fn profile_bundle_with_no_predictors_is_a_bias_lookup() {
        let c = cache();
        let (bias, accs) = c.profile_bundle(Benchmark::Compress, InputSet::Ref, 1, BUDGET, &[]);
        assert!(accs.is_empty());
        assert!(!bias.is_empty());
        let s = c.stats();
        assert_eq!((s.bias_misses, s.accuracy_misses), (1, 0));
        assert_eq!(s.fused_traversals_saved, 0, "one artifact saves nothing");
    }

    #[test]
    fn fused_bypass_generates_once_per_traversal() {
        let gshare = PredictorConfig::new(PredictorKind::Gshare, 1024).unwrap();
        let bimodal = PredictorConfig::new(PredictorKind::Bimodal, 1024).unwrap();
        // Oversized: the bundle must stream one generation through all
        // three passes instead of regenerating per consumer.
        let c = ArtifactCache::with_trace_capacity(BUDGET / 2);
        let (bias, accs) = c.profile_bundle(
            Benchmark::Compress,
            InputSet::Ref,
            1,
            BUDGET,
            &[gshare, bimodal],
        );
        let s = c.stats();
        assert_eq!(s.trace_bypassed, 1, "one generation fed every pass: {s}");
        assert_eq!(
            c.cached_traces(),
            0,
            "nothing was materialized into the store"
        );
        assert_eq!(s.fused_traversals_saved, 2);

        // The streamed artifacts are bit-identical to the cached-path ones.
        let full = cache();
        let (bias2, accs2) = full.profile_bundle(
            Benchmark::Compress,
            InputSet::Ref,
            1,
            BUDGET,
            &[gshare, bimodal],
        );
        assert_eq!(*bias, *bias2);
        assert_eq!(*accs[0], *accs2[0]);
        assert_eq!(*accs[1], *accs2[1]);
    }

    #[test]
    fn run_passes_streams_oversized_budgets_in_bounded_memory() {
        use sdbp_passes::{FnPass, DEFAULT_CHUNK};
        // Capacity 0 disables trace caching entirely: the traversal must
        // stream generator chunks, never materializing the event vector.
        let c = ArtifactCache::with_trace_capacity(0);
        let mut events = 0u64;
        let mut max_chunk = 0usize;
        let mut pass = FnPass::new("count", |chunk: &[BranchEvent]| {
            events += chunk.len() as u64;
            max_chunk = max_chunk.max(chunk.len());
        });
        let stats = c.run_passes(
            Benchmark::Compress,
            InputSet::Ref,
            1,
            BUDGET,
            &mut [&mut pass],
        );
        drop(pass);
        assert_eq!(stats.events, events);
        assert!(max_chunk <= DEFAULT_CHUNK, "peak buffer is one chunk");
        assert_eq!(c.cached_traces(), 0);
        let s = c.stats();
        assert_eq!((s.trace_bypassed, s.trace_misses, s.trace_hits), (1, 0, 0));
        // The streamed event count matches a materialized generation.
        assert_eq!(
            events as usize,
            generate_events((Benchmark::Compress, InputSet::Ref, 1, BUDGET)).len()
        );
    }

    fn temp_store(tag: &str) -> Arc<Store> {
        let dir =
            std::env::temp_dir().join(format!("sdbp-cache-disk-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Arc::new(Store::open(dir).unwrap())
    }

    #[test]
    fn disk_tier_shares_profiles_across_processes() {
        let store = temp_store("share");
        let warm = cache();
        warm.attach_store(Arc::clone(&store));
        let original = bias(&warm, 1);
        assert_eq!(
            warm.stats().disk_misses,
            1,
            "cold store probes then computes"
        );

        // A fresh cache models a new process: memory is cold, disk is warm.
        let cold = cache();
        cold.attach_store(Arc::clone(&store));
        let revived = bias(&cold, 1);
        assert_eq!(*revived, *original);
        let s = cold.stats();
        assert_eq!((s.disk_hits, s.disk_misses), (1, 0));
        assert_eq!(s.trace_misses, 0, "disk hit avoids regenerating the trace");
        assert!(cold.stats().since(&CacheStats::default()).disk_hits > 0);
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn corrupt_disk_entries_self_heal() {
        let store = temp_store("heal");
        let warm = cache();
        warm.attach_store(Arc::clone(&store));
        let original = bias(&warm, 1);
        // Damage the stored object behind the link.
        let key = bias_profile_digest(Benchmark::Compress, InputSet::Ref, 1, BUDGET);
        let target = store.get_link(key).unwrap().unwrap();
        std::fs::write(store.object_path(target), b"garbage").unwrap();

        let healing = cache();
        healing.attach_store(Arc::clone(&store));
        let recomputed = bias(&healing, 1);
        assert_eq!(*recomputed, *original, "corruption never surfaces");
        assert_eq!(healing.stats().disk_misses, 1);

        // The rewrite healed the store: a third cache hits cleanly.
        let healed = cache();
        healed.attach_store(Arc::clone(&store));
        let _ = bias(&healed, 1);
        assert_eq!(healed.stats().disk_hits, 1);
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn bundle_heals_a_corrupt_accuracy_while_the_bias_loads_from_disk() {
        let store = temp_store("mixed");
        let warm = cache();
        warm.attach_store(Arc::clone(&store));
        let original = accuracy(&warm, gshare());
        let key = accuracy_profile_digest(Benchmark::Compress, InputSet::Ref, 1, BUDGET, gshare());
        let target = store.get_link(key).unwrap().unwrap();
        std::fs::write(store.object_path(target), b"garbage").unwrap();

        // One bundle: the bias revives from disk, the damaged accuracy
        // object is deleted and recomputed on the bundle's one traversal.
        let healing = cache();
        healing.attach_store(Arc::clone(&store));
        let recomputed = accuracy(&healing, gshare());
        assert_eq!(*recomputed, *original, "corruption never surfaces");
        let s = healing.stats();
        assert_eq!((s.disk_hits, s.disk_misses), (1, 1), "{s}");
        assert_eq!((s.bias_misses, s.accuracy_misses), (1, 1));
        assert_eq!(s.trace_misses, 1, "only the accuracy needed a traversal");
        assert_eq!(s.fused_traversals_saved, 0);

        let healed = cache();
        healed.attach_store(Arc::clone(&store));
        let _ = accuracy(&healed, gshare());
        let s = healed.stats();
        assert_eq!((s.disk_hits, s.disk_misses), (2, 0), "{s}");
        assert_eq!(s.trace_misses, 0);
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn lockstep_savings_are_recorded_and_displayed() {
        let c = cache();
        assert_eq!(c.stats().lockstep_traversals_saved, 0);
        c.note_lockstep_saved(0); // no-op
        assert_eq!(c.stats().lockstep_traversals_saved, 0);
        let before = c.stats();
        assert!(!format!("{before}").contains("lockstep"));
        c.note_lockstep_saved(3);
        c.note_lockstep_saved(2);
        let s = c.stats();
        assert_eq!(s.lockstep_traversals_saved, 5);
        assert_eq!(s.since(&before).lockstep_traversals_saved, 5);
        assert!(format!("{s}").contains("5 traversals saved by lockstep"));
    }

    #[test]
    fn stats_since_subtracts() {
        let c = cache();
        let _ = bias(&c, 1);
        let before = c.stats();
        let _ = bias(&c, 1);
        let delta = c.stats().since(&before);
        assert_eq!(delta.bias_hits, 1);
        assert_eq!(delta.bias_misses, 0);
        assert!(delta.hit_rate() > 0.99);
    }
}
