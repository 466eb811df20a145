//! Append-only run manifests and the on-disk run store.
//!
//! A sweep given a `--store` directory records every finished cell as one
//! JSON line in `manifest.jsonl`: the cell index, the spec's content digest
//! (see [`spec_digest`]) and the outcome — a flattened [`Report`] or a typed
//! error. Every field is deterministic, so two runs of one grid write the
//! same lines, in completion order. Lines written by earlier builds also
//! carry a `wall_ms` field, which the parser reads past. The file is
//! **append-only** and each entry is written with a single `write` call, so
//! a killed run leaves at most one torn final line; [`RunManifest::parse`]
//! tolerates exactly that and reports it as [`RunManifest::torn`], while
//! damage anywhere else is a hard error.
//!
//! Resume semantics: a sweep re-opened on the same store skips every cell
//! whose spec digest already appears with a completed outcome (anything but
//! a [`ExperimentError::Skipped`] record), replaying the recorded outcome
//! instead of recomputing it. Combined with the cache's persistent disk
//! tier (profiles keyed by run coordinates), an interrupted grid finishes
//! from where it stopped, byte-identical to an uninterrupted run.

use crate::experiment::{ExperimentError, ExperimentSpec, ProfileSource};
use crate::metrics::{CollisionStats, SimStats};
use crate::report::Report;
use sdbp_artifacts::{Digest, Hasher, Json, Store};
use sdbp_predictors::{PredictorConfig, PredictorKind};
use sdbp_profiles::{SelectError, SelectionScheme};
use sdbp_workloads::Benchmark;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// The stable content digest of a spec: the key under which its manifest
/// entry is filed and `--resume` finds it again.
///
/// It hashes a domain tag, then every field in declaration order: the
/// benchmark, predictor, shift policy and input by name, the scheme and the
/// training regime as a tag per variant followed by the
/// [`f64::to_bits`] of each of its parameters, and each explicit budget
/// behind a presence tag, so `None` and `Some(0)` differ.
pub fn spec_digest(spec: &ExperimentSpec) -> Digest {
    fn tagged(h: &mut Hasher, tag: &str, params: &[f64]) {
        h.write_str(tag);
        for param in params {
            h.write_u64(param.to_bits());
        }
    }
    let mut h = Hasher::new();
    h.write_str("sdbp-spec");
    h.write_str(spec.benchmark.name());
    h.write_str(spec.predictor.kind().name());
    h.write_u64(spec.predictor.size_bytes() as u64);
    match spec.scheme {
        SelectionScheme::None => tagged(&mut h, "none", &[]),
        SelectionScheme::Bias { cutoff } => tagged(&mut h, "bias", &[cutoff]),
        SelectionScheme::VsAccuracy => tagged(&mut h, "vs-accuracy", &[]),
        SelectionScheme::Factor { factor } => tagged(&mut h, "factor", &[factor]),
        SelectionScheme::CollisionAware {
            min_bias,
            min_collision_rate,
        } => tagged(&mut h, "collision-aware", &[min_bias, min_collision_rate]),
        SelectionScheme::Collide {
            min_bias,
            min_score_rate,
        } => tagged(&mut h, "collide", &[min_bias, min_score_rate]),
    }
    h.write_str(spec.shift.label());
    match spec.profile {
        ProfileSource::SelfTrained => tagged(&mut h, "self", &[]),
        ProfileSource::CrossTrained => tagged(&mut h, "cross", &[]),
        ProfileSource::MergedCrossTrained { max_bias_change } => {
            tagged(&mut h, "cross-merged", &[max_bias_change])
        }
    }
    h.write_str(spec.measure_input.name());
    h.write_u64(spec.seed);
    for budget in [spec.profile_instructions, spec.measure_instructions] {
        match budget {
            None => h.write_str("default"),
            Some(instructions) => {
                h.write_str("explicit");
                h.write_u64(instructions);
            }
        }
    }
    h.write_u64(spec.warmup_instructions);
    h.finish()
}

/// One line of a run manifest: a finished (or deliberately skipped) cell.
#[derive(Debug, Clone, PartialEq)]
pub struct ManifestEntry {
    /// Position of the cell in its sweep's spec order.
    pub cell: usize,
    /// Content digest of the cell's [`ExperimentSpec`].
    pub spec_digest: Digest,
    /// What the cell produced.
    pub outcome: Result<Report, ExperimentError>,
}

fn report_to_json(r: &Report) -> Json {
    Json::obj([
        ("benchmark", Json::str(r.benchmark.name())),
        // Derived from the benchmark at render time (imported traces that
        // mirror a synthetic run adopt its family, so their lines stay
        // byte-identical to generator-backed ones); the parser rederives it
        // and tolerates its absence in pre-family manifests.
        ("family", Json::str(r.benchmark.family().name())),
        ("predictor", Json::str(r.predictor.kind().name())),
        ("size_bytes", Json::Int(r.predictor.size_bytes() as i64)),
        ("scheme", Json::str(&r.scheme_label)),
        ("shift", Json::str(r.shift.label())),
        ("input", Json::str(r.measure_input.name())),
        ("hints", Json::Int(r.hints as i64)),
        ("instructions", Json::Int(r.stats.instructions as i64)),
        ("branches", Json::Int(r.stats.branches as i64)),
        ("mispredictions", Json::Int(r.stats.mispredictions as i64)),
        (
            "static_predicted",
            Json::Int(r.stats.static_predicted as i64),
        ),
        (
            "static_mispredictions",
            Json::Int(r.stats.static_mispredictions as i64),
        ),
        ("collisions", Json::Int(r.stats.collisions.total as i64)),
        (
            "constructive",
            Json::Int(r.stats.collisions.constructive as i64),
        ),
        (
            "destructive",
            Json::Int(r.stats.collisions.destructive as i64),
        ),
    ])
}

fn field<'j>(obj: &'j Json, key: &str, line: usize) -> Result<&'j Json, ManifestError> {
    obj.get(key).ok_or_else(|| ManifestError {
        line,
        message: format!("missing field '{key}'"),
    })
}

fn u64_field(obj: &Json, key: &str, line: usize) -> Result<u64, ManifestError> {
    field(obj, key, line)?
        .as_u64()
        .ok_or_else(|| ManifestError {
            line,
            message: format!("field '{key}' is not an unsigned integer"),
        })
}

fn str_field<'j>(obj: &'j Json, key: &str, line: usize) -> Result<&'j str, ManifestError> {
    field(obj, key, line)?
        .as_str()
        .ok_or_else(|| ManifestError {
            line,
            message: format!("field '{key}' is not a string"),
        })
}

fn report_from_json(obj: &Json, line: usize) -> Result<Report, ManifestError> {
    let bad = |message: String| ManifestError { line, message };
    let benchmark: Benchmark = str_field(obj, "benchmark", line)?
        .parse()
        .map_err(|e| bad(format!("{e}")))?;
    let kind: PredictorKind = str_field(obj, "predictor", line)?
        .parse()
        .map_err(|e| bad(format!("{e}")))?;
    let predictor = PredictorConfig::new(kind, u64_field(obj, "size_bytes", line)? as usize)
        .map_err(|e| bad(format!("{e}")))?;
    let stats = SimStats {
        instructions: u64_field(obj, "instructions", line)?,
        branches: u64_field(obj, "branches", line)?,
        mispredictions: u64_field(obj, "mispredictions", line)?,
        static_predicted: u64_field(obj, "static_predicted", line)?,
        static_mispredictions: u64_field(obj, "static_mispredictions", line)?,
        collisions: CollisionStats {
            total: u64_field(obj, "collisions", line)?,
            constructive: u64_field(obj, "constructive", line)?,
            destructive: u64_field(obj, "destructive", line)?,
        },
    };
    let c = stats.collisions;
    if stats.mispredictions > stats.branches
        || stats.static_predicted > stats.branches
        || c.constructive.saturating_add(c.destructive) > c.total
    {
        return Err(bad("report counters exceed their totals".to_string()));
    }
    Ok(Report {
        benchmark,
        predictor,
        scheme_label: str_field(obj, "scheme", line)?.to_string(),
        shift: str_field(obj, "shift", line)?.parse().map_err(bad)?,
        measure_input: str_field(obj, "input", line)?.parse().map_err(bad)?,
        hints: u64_field(obj, "hints", line)? as usize,
        stats,
    })
}

/// Reconstructs an error from its manifest record, the inverse of
/// [`ManifestEntry::to_line`]'s `kind` plus rendered message: rejected,
/// skipped and both selection errors come back as the exact error that was
/// recorded; anything else becomes [`ExperimentError::Replayed`] preserving
/// kind and message.
fn error_from_record(kind: &str, message: &str) -> ExperimentError {
    let reason = |rebuild: fn(String) -> ExperimentError| {
        // The reason is what follows the variant's fixed rendered prefix.
        let prefix = rebuild(String::new()).to_string();
        message
            .strip_prefix(prefix.as_str())
            .map(|reason| rebuild(reason.to_string()))
    };
    let exact = match kind {
        "rejected" => reason(|reason| ExperimentError::Rejected { reason }),
        "skipped" => reason(|reason| ExperimentError::Skipped { reason }),
        "select" => [
            SelectError::MissingAccuracyProfile,
            SelectError::MissingInterferenceRanking,
        ]
        .into_iter()
        .map(ExperimentError::Select)
        .find(|e| e.to_string() == message),
        _ => None,
    };
    exact.unwrap_or_else(|| ExperimentError::Replayed {
        kind: kind.to_string(),
        message: message.to_string(),
    })
}

impl ManifestEntry {
    /// Renders the entry as its manifest line (no trailing newline).
    pub fn to_line(&self) -> String {
        let mut members = vec![
            ("cell".to_string(), Json::Int(self.cell as i64)),
            ("spec".to_string(), Json::str(self.spec_digest.to_string())),
        ];
        match &self.outcome {
            Ok(report) => {
                members.push(("status".to_string(), Json::str("ok")));
                members.push(("report".to_string(), report_to_json(report)));
            }
            Err(e) => {
                members.push(("status".to_string(), Json::str("error")));
                members.push((
                    "error".to_string(),
                    Json::obj([
                        ("kind", Json::str(e.kind_label())),
                        ("message", Json::str(e.to_string())),
                    ]),
                ));
            }
        }
        Json::Obj(members).render()
    }

    /// Parses one manifest line. `line` is the 1-based line number used in
    /// error messages. Fields it does not read, such as the `wall_ms` of
    /// lines written by earlier builds, are ignored.
    pub fn parse_line(text: &str, line: usize) -> Result<Self, ManifestError> {
        let bad = |message: String| ManifestError { line, message };
        let obj = Json::parse(text).map_err(|e| bad(format!("{e}")))?;
        let cell = u64_field(&obj, "cell", line)? as usize;
        let spec_digest: Digest = str_field(&obj, "spec", line)?
            .parse()
            .map_err(|e| bad(format!("spec digest: {e}")))?;
        let outcome = match str_field(&obj, "status", line)? {
            "ok" => Ok(report_from_json(field(&obj, "report", line)?, line)?),
            "error" => {
                let err = field(&obj, "error", line)?;
                Err(error_from_record(
                    str_field(err, "kind", line)?,
                    str_field(err, "message", line)?,
                ))
            }
            other => return Err(bad(format!("unknown status '{other}'"))),
        };
        Ok(ManifestEntry {
            cell,
            spec_digest,
            outcome,
        })
    }

    /// Whether this record completes its cell: everything except a
    /// [`ExperimentError::Skipped`] marker (a resumed sweep re-runs those).
    pub fn is_completed(&self) -> bool {
        !matches!(self.outcome, Err(ExperimentError::Skipped { .. }))
    }
}

/// A structurally damaged manifest (not a torn tail — see
/// [`RunManifest::parse`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManifestError {
    /// 1-based line number of the offending record.
    pub line: usize,
    /// What is wrong with it.
    pub message: String,
}

impl std::fmt::Display for ManifestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "manifest line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ManifestError {}

/// A parsed `manifest.jsonl`.
#[derive(Debug, Clone, PartialEq)]
pub struct RunManifest {
    /// The entries, in file order (completion order, not cell order).
    pub entries: Vec<ManifestEntry>,
    /// Whether the final line was torn (half-written by a killed run) and
    /// dropped. Torn tails are expected damage; they are recorded, not
    /// errors.
    pub torn: bool,
}

impl RunManifest {
    /// Parses manifest text. An unparseable **final** line is tolerated as a
    /// torn tail from a killed writer; an unparseable line anywhere else is
    /// real damage and errors.
    pub fn parse(text: &str) -> Result<Self, ManifestError> {
        let lines: Vec<&str> = text.lines().filter(|l| !l.trim().is_empty()).collect();
        let mut entries = Vec::with_capacity(lines.len());
        let mut torn = false;
        for (i, line) in lines.iter().enumerate() {
            match ManifestEntry::parse_line(line, i + 1) {
                Ok(entry) => entries.push(entry),
                Err(_) if i + 1 == lines.len() => torn = true,
                Err(e) => return Err(e),
            }
        }
        Ok(RunManifest { entries, torn })
    }

    /// The canonical form used for byte-identity comparisons between runs:
    /// entries sorted by cell index, one line per cell (the first recorded).
    pub fn canonical(&self) -> String {
        let mut entries: Vec<&ManifestEntry> = self.entries.iter().collect();
        entries.sort_by_key(|e| e.cell);
        entries.dedup_by_key(|e| e.cell);
        entries
            .iter()
            .map(|e| format!("{}\n", e.to_line()))
            .collect()
    }
}

/// The on-disk home of a sweep: a key-addressed [`Store`] (profile disk
/// tier) plus the append-only `manifest.jsonl`, both under one root.
pub struct RunStore {
    root: PathBuf,
    store: Arc<Store>,
    prior: RunManifest,
    manifest: Mutex<fs::File>,
}

impl RunStore {
    /// The manifest path under a run-store root.
    pub fn manifest_path(root: &Path) -> PathBuf {
        root.join("manifest.jsonl")
    }

    /// Opens a run store. With `resume` false any existing manifest is
    /// truncated (a fresh run); with `resume` true prior entries are loaded
    /// for replay and a torn tail, if present, is cut off the file before
    /// appending continues.
    ///
    /// # Errors
    ///
    /// [`ExperimentError::Io`] on filesystem failures;
    /// [`ExperimentError::StoreCorrupt`] naming the manifest path when the
    /// existing manifest is structurally damaged beyond a torn tail.
    pub fn open(root: impl Into<PathBuf>, resume: bool) -> Result<Self, ExperimentError> {
        let root = root.into();
        let store = Arc::new(Store::open(&root)?);
        let path = Self::manifest_path(&root);
        let io = |e: std::io::Error| ExperimentError::Io {
            context: format!("opening {}", path.display()),
            source: Arc::new(e),
        };
        let prior = if resume && path.exists() {
            let text = fs::read_to_string(&path).map_err(io)?;
            let manifest =
                RunManifest::parse(&text).map_err(|e| ExperimentError::StoreCorrupt {
                    path: path.display().to_string(),
                    reason: e.to_string(),
                })?;
            if manifest.torn {
                // Rewrite the good prefix, dropping the torn tail.
                let good: String = manifest
                    .entries
                    .iter()
                    .map(|e| format!("{}\n", e.to_line()))
                    .collect();
                fs::write(&path, good).map_err(io)?;
            }
            manifest
        } else {
            RunManifest {
                entries: Vec::new(),
                torn: false,
            }
        };
        let file = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .truncate(false)
            .open(&path)
            .map_err(io)?;
        if !resume {
            let file_truncate = fs::OpenOptions::new()
                .write(true)
                .truncate(true)
                .open(&path)
                .map_err(io)?;
            drop(file_truncate);
        }
        Ok(RunStore {
            root,
            store,
            prior,
            manifest: Mutex::new(file),
        })
    }

    /// The run store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The profile store living under this root (attach it to an
    /// [`ArtifactCache`](crate::ArtifactCache) as the profile disk tier).
    pub fn store(&self) -> Arc<Store> {
        Arc::clone(&self.store)
    }

    /// Prior manifest entries loaded at open (empty for fresh runs).
    pub fn prior(&self) -> &RunManifest {
        &self.prior
    }

    /// The replayable outcome of a spec, if a prior entry completed it.
    pub fn replay(&self, spec: &ExperimentSpec) -> Option<&ManifestEntry> {
        let digest = spec_digest(spec);
        self.prior
            .entries
            .iter()
            .rev()
            .find(|e| e.spec_digest == digest && e.is_completed())
    }

    /// Appends one entry to the manifest — a single `write` call, so a kill
    /// can tear at most the final line.
    ///
    /// # Errors
    ///
    /// [`ExperimentError::Io`] when the write fails.
    pub fn append(&self, entry: &ManifestEntry) -> Result<(), ExperimentError> {
        let line = format!("{}\n", entry.to_line());
        let mut file = self.manifest.lock().expect("manifest lock");
        file.write_all(line.as_bytes())
            .and_then(|()| file.flush())
            .map_err(|e| ExperimentError::Io {
                context: format!("appending to {}", Self::manifest_path(&self.root).display()),
                source: Arc::new(e),
            })
    }
}

impl std::fmt::Debug for RunStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunStore")
            .field("root", &self.root)
            .field("prior_entries", &self.prior.entries.len())
            .field("torn", &self.prior.torn)
            .finish()
    }
}

/// Builds the manifest entry for one finished sweep cell.
pub fn entry_for(
    cell: usize,
    spec: &ExperimentSpec,
    outcome: &Result<Report, ExperimentError>,
) -> ManifestEntry {
    ManifestEntry {
        cell,
        spec_digest: spec_digest(spec),
        outcome: outcome.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::combined::ShiftPolicy;
    use sdbp_profiles::SelectionScheme;
    use sdbp_workloads::InputSet;

    fn spec() -> ExperimentSpec {
        ExperimentSpec::self_trained(
            Benchmark::Compress,
            PredictorConfig::new(PredictorKind::Gshare, 1024).unwrap(),
            SelectionScheme::static_95(),
        )
        .with_instructions(100_000)
    }

    #[test]
    fn spec_digest_is_stable() {
        assert_eq!(spec_digest(&spec()), spec_digest(&spec().clone()));
        // Pinned: a digest that drifts between builds strands every
        // manifest written before the drift (resume would replay nothing).
        assert_eq!(
            spec_digest(&spec()).to_string(),
            "819fb452df753f58437e3f6736e9ee73"
        );
    }

    #[test]
    fn spec_digest_changes_with_every_field() {
        fn config(kind: PredictorKind, size: usize) -> PredictorConfig {
            PredictorConfig::new(kind, size).unwrap()
        }
        let base = spec();
        let with = |edit: fn(&mut ExperimentSpec)| {
            let mut spec = base.clone();
            edit(&mut spec);
            spec
        };
        let schemes = [
            SelectionScheme::None,
            SelectionScheme::Bias { cutoff: 0.95 },
            SelectionScheme::Bias { cutoff: 0.9 },
            SelectionScheme::VsAccuracy,
            SelectionScheme::Factor { factor: 1.0 },
            SelectionScheme::Factor { factor: 1.25 },
            SelectionScheme::CollisionAware {
                min_bias: 0.8,
                min_collision_rate: 0.05,
            },
            SelectionScheme::CollisionAware {
                min_bias: 0.9,
                min_collision_rate: 0.05,
            },
            SelectionScheme::CollisionAware {
                min_bias: 0.8,
                min_collision_rate: 0.1,
            },
            SelectionScheme::Collide {
                min_bias: 0.8,
                min_score_rate: 0.05,
            },
            SelectionScheme::Collide {
                min_bias: 0.9,
                min_score_rate: 0.05,
            },
            SelectionScheme::Collide {
                min_bias: 0.8,
                min_score_rate: 0.1,
            },
        ];
        let mut specs: Vec<ExperimentSpec> = schemes
            .into_iter()
            .map(|scheme| base.clone().with_scheme(scheme))
            .collect();
        specs.extend([
            with(|s| s.benchmark = Benchmark::Gcc),
            with(|s| s.predictor = config(PredictorKind::Bimodal, 1024)),
            with(|s| s.predictor = config(PredictorKind::Gshare, 2048)),
            with(|s| s.shift = ShiftPolicy::Shift),
            with(|s| s.profile = ProfileSource::CrossTrained),
            with(|s| {
                s.profile = ProfileSource::MergedCrossTrained {
                    max_bias_change: 0.05,
                }
            }),
            with(|s| {
                s.profile = ProfileSource::MergedCrossTrained {
                    max_bias_change: 0.1,
                }
            }),
            with(|s| s.measure_input = InputSet::Train),
            with(|s| s.seed = 1),
            with(|s| s.profile_instructions = None),
            with(|s| s.profile_instructions = Some(0)),
            with(|s| s.measure_instructions = None),
            with(|s| s.measure_instructions = Some(0)),
            with(|s| s.warmup_instructions = 10_000),
        ]);
        // `spec()` is static_95: the Bias { cutoff: 0.95 } entry is the base.
        let digests: std::collections::BTreeSet<Digest> = specs.iter().map(spec_digest).collect();
        assert_eq!(digests.len(), specs.len(), "two specs share a digest");
        assert!(digests.contains(&spec_digest(&base)));
    }

    fn report() -> Report {
        Report {
            benchmark: Benchmark::Compress,
            predictor: PredictorConfig::new(PredictorKind::Gshare, 1024).unwrap(),
            scheme_label: "static_95".into(),
            shift: ShiftPolicy::NoShift,
            measure_input: InputSet::Ref,
            hints: 42,
            stats: SimStats {
                instructions: 100_000,
                branches: 12_000,
                mispredictions: 900,
                static_predicted: 3_000,
                static_mispredictions: 60,
                collisions: CollisionStats {
                    total: 500,
                    constructive: 100,
                    destructive: 350,
                },
            },
        }
    }

    fn ok_entry(cell: usize) -> ManifestEntry {
        entry_for(cell, &spec().with_seed(cell as u64), &Ok(report()))
    }

    #[test]
    fn entries_roundtrip_through_their_line() {
        let entry = ok_entry(3);
        let back = ManifestEntry::parse_line(&entry.to_line(), 1).unwrap();
        assert_eq!(back, entry);

        for error in [
            ExperimentError::Rejected {
                reason: "measure_instructions: measurement budget is zero".into(),
            },
            ExperimentError::Skipped {
                reason: "cell cap of 3 reached before this cell".into(),
            },
            ExperimentError::Select(SelectError::MissingAccuracyProfile),
            ExperimentError::Select(SelectError::MissingInterferenceRanking),
        ] {
            let err_entry = entry_for(4, &spec(), &Err(error));
            let back = ManifestEntry::parse_line(&err_entry.to_line(), 1).unwrap();
            assert_eq!(back, err_entry);
            assert_eq!(back.to_line(), err_entry.to_line(), "lines stay identical");
        }
    }

    #[test]
    fn reports_with_impossible_counters_are_rejected() {
        let mut misp = report();
        misp.stats.mispredictions = misp.stats.branches + 1;
        let mut statics = report();
        statics.stats.static_predicted = statics.stats.branches + 1;
        let mut collisions = report();
        collisions.stats.collisions.constructive = collisions.stats.collisions.total;
        for bad in [misp, statics, collisions] {
            let line = entry_for(0, &spec(), &Ok(bad)).to_line();
            let err = ManifestEntry::parse_line(&line, 5).unwrap_err();
            assert_eq!(err.line, 5);
            assert!(err.message.contains("counters exceed"), "{err}");
        }
        let bad_shift = ok_entry(0)
            .to_line()
            .replace("\"no-shift\"", "\"sideways\"");
        let err = ManifestEntry::parse_line(&bad_shift, 1).unwrap_err();
        assert!(err.message.contains("'sideways'"), "{err}");
    }

    #[test]
    fn unknown_error_kinds_replay_as_replayed() {
        let entry = entry_for(
            0,
            &spec(),
            &Err(ExperimentError::StoreCorrupt {
                path: "objects/ab/cd".into(),
                reason: "body hashes to 1, header says 2".into(),
            }),
        );
        let back = ManifestEntry::parse_line(&entry.to_line(), 1).unwrap();
        match &back.outcome {
            Err(ExperimentError::Replayed { kind, message }) => {
                assert_eq!(kind, "store-corrupt");
                assert!(message.contains("objects/ab/cd"), "{message}");
            }
            other => panic!("expected Replayed, got {other:?}"),
        }
        assert!(back.is_completed());
    }

    #[test]
    fn torn_tail_is_tolerated_midfile_damage_is_not() {
        let good = format!("{}\n{}\n", ok_entry(0).to_line(), ok_entry(1).to_line());
        let torn = format!("{good}{{\"cell\":2,\"spec\":\"dead");
        let manifest = RunManifest::parse(&torn).unwrap();
        assert_eq!(manifest.entries.len(), 2);
        assert!(manifest.torn);

        let damaged = format!("not json at all\n{good}");
        let err = RunManifest::parse(&damaged).unwrap_err();
        assert_eq!(err.line, 1);
    }

    #[test]
    fn canonical_sorts_dedups_and_zeroes_wall_time() {
        let (a, b) = (ok_entry(1), ok_entry(0));
        // The same cells as lines of an earlier build, whose wall times
        // differ from run to run.
        let timed = |entry: &ManifestEntry, ms: u32| {
            let line = entry.to_line();
            line.replacen(",\"status\"", &format!(",\"wall_ms\":{ms},\"status\""), 1)
        };
        let m1 = RunManifest::parse(&format!("{}\n{}\n", timed(&a, 900), timed(&b, 5))).unwrap();
        let m2 = RunManifest {
            entries: vec![a.clone(), b.clone(), a.clone()],
            torn: true,
        };
        assert_eq!(m1.canonical(), m2.canonical());
        assert_eq!(
            m1.canonical(),
            format!("{}\n{}\n", b.to_line(), a.to_line())
        );
        assert!(!m1.canonical().contains("wall_ms"));
    }

    #[test]
    fn lines_with_a_wall_time_parse_and_replay() {
        // Earlier builds wrote each line with a `wall_ms` after the spec
        // digest.
        let entry = ok_entry(2);
        let line = entry.to_line();
        let timed = line.replacen(",\"status\"", ",\"wall_ms\":412,\"status\"", 1);
        assert!(timed.contains("\"wall_ms\":412"), "{timed}");
        let back = ManifestEntry::parse_line(&timed, 1).unwrap();
        assert_eq!(back, entry);
        assert_eq!(back.to_line(), line);

        let root = std::env::temp_dir().join(format!("sdbp-timed-store-{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        fs::create_dir_all(&root).unwrap();
        fs::write(RunStore::manifest_path(&root), format!("{timed}\n")).unwrap();
        let resumed = RunStore::open(&root, true).unwrap();
        let replay = resumed
            .replay(&spec().with_seed(2))
            .expect("cell 2 completed");
        assert_eq!(replay.outcome, Ok(report()));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn run_store_resume_replays_completed_cells() {
        let root = std::env::temp_dir().join(format!("sdbp-run-store-{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);

        let fresh = RunStore::open(&root, false).unwrap();
        let s = spec();
        fresh.append(&entry_for(0, &s, &Ok(report()))).unwrap();
        // Simulate a kill mid-write of the next cell.
        drop(fresh);
        let path = RunStore::manifest_path(&root);
        let mut file = fs::OpenOptions::new().append(true).open(&path).unwrap();
        file.write_all(b"{\"cell\":1,\"spec\":\"tr").unwrap();
        drop(file);

        let resumed = RunStore::open(&root, true).unwrap();
        assert!(resumed.prior().torn);
        assert_eq!(resumed.prior().entries.len(), 1);
        let replay = resumed.replay(&s).expect("cell 0 completed");
        assert_eq!(replay.outcome, Ok(report()));
        assert!(resumed.replay(&s.clone().with_seed(99)).is_none());
        // The torn tail was cut: the file now parses clean.
        let text = fs::read_to_string(&path).unwrap();
        assert!(!RunManifest::parse(&text).unwrap().torn);

        // Re-opening without resume truncates.
        let wiped = RunStore::open(&root, false).unwrap();
        assert_eq!(wiped.prior().entries.len(), 0);
        assert_eq!(fs::read_to_string(&path).unwrap(), "");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn skipped_records_do_not_complete_a_cell() {
        let entry = entry_for(
            7,
            &spec(),
            &Err(ExperimentError::Skipped {
                reason: "cell cap reached".into(),
            }),
        );
        assert!(!entry.is_completed());
        let back = ManifestEntry::parse_line(&entry.to_line(), 1).unwrap();
        assert!(!back.is_completed());
    }
}
