//! The binary artifact codec for experiment specs.
//!
//! Implements [`Codec`] for [`ExperimentSpec`], which gives every spec a
//! stable content digest ([`spec_digest`]) — the key under which a sweep
//! manifest records the cell and `--resume` finds it again.
//!
//! Encodings are canonical: enums are written as fixed tags or as their
//! stable lowercase names, floats as IEEE-754 bit patterns, so two equal
//! specs always serialize to identical bytes and therefore identical
//! digests across processes and runs.

use crate::combined::ShiftPolicy;
use crate::experiment::{ExperimentSpec, ProfileSource};
use sdbp_artifacts::{Codec, CodecError, Decoder, Digest, Encoder};
use sdbp_predictors::{PredictorConfig, PredictorKind};
use sdbp_profiles::SelectionScheme;
use sdbp_workloads::{Benchmark, InputSet};

/// The stable content digest of a spec: the key under which its manifest
/// entry and derived artifacts are filed.
pub fn spec_digest(spec: &ExperimentSpec) -> Digest {
    Digest::of(&spec.to_bytes())
}

fn invalid(context: impl Into<String>) -> CodecError {
    CodecError::Invalid {
        context: context.into(),
    }
}

fn encode_predictor(p: &PredictorConfig, e: &mut Encoder) {
    e.str(p.kind().name());
    e.u64(p.size_bytes() as u64);
}

fn decode_predictor(d: &mut Decoder<'_>) -> Result<PredictorConfig, CodecError> {
    let kind: PredictorKind = d
        .str("predictor kind")?
        .parse()
        .map_err(|e| invalid(format!("predictor kind: {e}")))?;
    let size = d.u64("predictor size")? as usize;
    PredictorConfig::new(kind, size).map_err(|e| invalid(format!("predictor config: {e}")))
}

fn encode_input(input: InputSet, e: &mut Encoder) {
    e.u8(match input {
        InputSet::Train => 0,
        InputSet::Ref => 1,
    });
}

fn decode_input(d: &mut Decoder<'_>) -> Result<InputSet, CodecError> {
    match d.u8("input set")? {
        0 => Ok(InputSet::Train),
        1 => Ok(InputSet::Ref),
        tag => Err(invalid(format!("input set tag {tag}"))),
    }
}

fn encode_shift(shift: ShiftPolicy, e: &mut Encoder) {
    e.u8(match shift {
        ShiftPolicy::NoShift => 0,
        ShiftPolicy::Shift => 1,
    });
}

fn decode_shift(d: &mut Decoder<'_>) -> Result<ShiftPolicy, CodecError> {
    match d.u8("shift policy")? {
        0 => Ok(ShiftPolicy::NoShift),
        1 => Ok(ShiftPolicy::Shift),
        tag => Err(invalid(format!("shift policy tag {tag}"))),
    }
}

fn encode_scheme(scheme: &SelectionScheme, e: &mut Encoder) {
    match scheme {
        SelectionScheme::None => e.u8(0),
        SelectionScheme::Bias { cutoff } => {
            e.u8(1);
            e.f64(*cutoff);
        }
        SelectionScheme::VsAccuracy => e.u8(2),
        SelectionScheme::Factor { factor } => {
            e.u8(3);
            e.f64(*factor);
        }
        SelectionScheme::CollisionAware {
            min_bias,
            min_collision_rate,
        } => {
            e.u8(4);
            e.f64(*min_bias);
            e.f64(*min_collision_rate);
        }
        SelectionScheme::Collide {
            min_bias,
            min_score_rate,
        } => {
            e.u8(5);
            e.f64(*min_bias);
            e.f64(*min_score_rate);
        }
    }
}

fn decode_scheme(d: &mut Decoder<'_>) -> Result<SelectionScheme, CodecError> {
    match d.u8("selection scheme")? {
        0 => Ok(SelectionScheme::None),
        1 => Ok(SelectionScheme::Bias {
            cutoff: d.f64("bias cutoff")?,
        }),
        2 => Ok(SelectionScheme::VsAccuracy),
        3 => Ok(SelectionScheme::Factor {
            factor: d.f64("accuracy factor")?,
        }),
        4 => Ok(SelectionScheme::CollisionAware {
            min_bias: d.f64("minimum bias")?,
            min_collision_rate: d.f64("minimum collision rate")?,
        }),
        5 => Ok(SelectionScheme::Collide {
            min_bias: d.f64("minimum bias")?,
            min_score_rate: d.f64("minimum score rate")?,
        }),
        tag => Err(invalid(format!("selection scheme tag {tag}"))),
    }
}

fn encode_profile_source(profile: ProfileSource, e: &mut Encoder) {
    match profile {
        ProfileSource::SelfTrained => e.u8(0),
        ProfileSource::CrossTrained => e.u8(1),
        ProfileSource::MergedCrossTrained { max_bias_change } => {
            e.u8(2);
            e.f64(max_bias_change);
        }
    }
}

fn decode_profile_source(d: &mut Decoder<'_>) -> Result<ProfileSource, CodecError> {
    match d.u8("profile source")? {
        0 => Ok(ProfileSource::SelfTrained),
        1 => Ok(ProfileSource::CrossTrained),
        2 => Ok(ProfileSource::MergedCrossTrained {
            max_bias_change: d.f64("maximum bias change")?,
        }),
        tag => Err(invalid(format!("profile source tag {tag}"))),
    }
}

fn encode_option_u64(value: Option<u64>, e: &mut Encoder) {
    e.bool(value.is_some());
    e.u64(value.unwrap_or(0));
}

fn decode_option_u64(
    d: &mut Decoder<'_>,
    context: &'static str,
) -> Result<Option<u64>, CodecError> {
    let present = d.bool(context)?;
    let value = d.u64(context)?;
    Ok(present.then_some(value))
}

impl Codec for ExperimentSpec {
    const SCHEMA: &'static str = "sdbp-spec";
    const VERSION: u32 = 1;

    fn encode_payload(&self, e: &mut Encoder) {
        e.str(self.benchmark.name());
        encode_predictor(&self.predictor, e);
        encode_scheme(&self.scheme, e);
        encode_shift(self.shift, e);
        encode_profile_source(self.profile, e);
        encode_input(self.measure_input, e);
        e.u64(self.seed);
        encode_option_u64(self.profile_instructions, e);
        encode_option_u64(self.measure_instructions, e);
        e.u64(self.warmup_instructions);
    }

    fn decode_payload(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        let benchmark: Benchmark = d
            .str("benchmark name")?
            .parse()
            .map_err(|e| invalid(format!("benchmark: {e}")))?;
        Ok(ExperimentSpec {
            benchmark,
            predictor: decode_predictor(d)?,
            scheme: decode_scheme(d)?,
            shift: decode_shift(d)?,
            profile: decode_profile_source(d)?,
            measure_input: decode_input(d)?,
            seed: d.u64("seed")?,
            profile_instructions: decode_option_u64(d, "profile instructions")?,
            measure_instructions: decode_option_u64(d, "measure instructions")?,
            warmup_instructions: d.u64("warmup instructions")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use sdbp_predictors::PredictorKind;

    fn spec() -> ExperimentSpec {
        ExperimentSpec::self_trained(
            Benchmark::Gcc,
            PredictorConfig::new(PredictorKind::Gshare, 4096).unwrap(),
            SelectionScheme::static_95(),
        )
    }

    #[test]
    fn specs_roundtrip_across_every_variant() {
        let variants = [
            spec(),
            spec()
                .with_scheme(SelectionScheme::None)
                .with_shift(ShiftPolicy::Shift),
            spec()
                .with_scheme(SelectionScheme::collision_aware())
                .with_profile(ProfileSource::CrossTrained)
                .with_measure_input(InputSet::Train),
            spec()
                .with_scheme(SelectionScheme::static_collide())
                .with_measure_input(InputSet::Train),
            spec()
                .with_scheme(SelectionScheme::Factor { factor: 1.25 })
                .with_profile(ProfileSource::MergedCrossTrained {
                    max_bias_change: 0.05,
                })
                .with_instructions(500_000)
                .with_seed(7)
                .with_warmup(10_000),
        ];
        for s in variants {
            let back = ExperimentSpec::from_bytes(&s.to_bytes()).unwrap();
            assert_eq!(back, s);
        }
    }

    #[test]
    fn digest_is_stable_and_separates_specs() {
        let a = spec_digest(&spec());
        let b = spec_digest(&spec());
        assert_eq!(a, b);
        assert_ne!(a, spec_digest(&spec().with_seed(1)));
        assert_ne!(
            a,
            spec_digest(&spec().with_scheme(SelectionScheme::static_acc()))
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn truncated_specs_error_not_panic(cut in any::<u32>()) {
            let bytes = spec().to_bytes();
            let cut = cut as usize % bytes.len();
            prop_assert!(ExperimentSpec::from_bytes(&bytes[..cut]).is_err());
        }
    }
}
