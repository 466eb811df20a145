//! Static dispatch over the predictor zoo for the simulation hot path.
//!
//! [`AnyPredictor`] is a closed enum covering the paper's five predictors
//! and the ablation set. The simulator's per-branch inner loop dispatches on
//! the enum discriminant — a predictable branch that monomorphizes into the
//! concrete `predict_update` bodies — instead of paying a virtual call per
//! event through `Box<dyn DynamicPredictor>`. User-defined predictors
//! keep working through the [`AnyPredictor::Custom`] escape hatch, which
//! preserves the boxed-trait path for exactly that variant.

use crate::index_spec::IndexSpec;
use crate::traits::{DynamicPredictor, Prediction};
use crate::{
    Agree, BiMode, Bimodal, EGskew, Ghist, Gselect, Gshare, Local, Perceptron, TageLite,
    Tournament, TwoBcGskew, Yags,
};
use sdbp_trace::{BranchAddr, BranchEvent};

/// A dynamic predictor with enum (static) dispatch on the hot path.
///
/// Construct one from any concrete predictor via `From`/`Into` — plain or
/// boxed values both convert, so existing `Box::new(Gshare::new(..))` call
/// sites keep compiling — or from
/// [`PredictorConfig::build_any`](crate::PredictorConfig::build_any).
/// A `Box<dyn DynamicPredictor>`
/// converts into [`AnyPredictor::Custom`].
///
/// # Examples
///
/// ```
/// use sdbp_predictors::{AnyPredictor, DynamicPredictor, Gshare};
/// use sdbp_trace::BranchAddr;
///
/// let mut p = AnyPredictor::from(Gshare::new(4096));
/// p.predict_update(BranchAddr(0x40), true);
/// assert_eq!(p.name(), "gshare");
/// ```
pub enum AnyPredictor {
    /// Per-address 2-bit counters (no history).
    Bimodal(Bimodal),
    /// GAg: global history indexes the counter table directly.
    Ghist(Ghist),
    /// Global history XOR branch address.
    Gshare(Gshare),
    /// Bi-Mode: choice table steering taken/not-taken direction banks.
    BiMode(BiMode),
    /// 2Bc-gskew: bimodal + two skewed global banks + meta chooser.
    TwoBcGskew(TwoBcGskew),
    /// Agree: counters predict agreement with a per-branch bias bit.
    Agree(Agree),
    /// YAGS: choice table with tagged direction exception caches.
    Yags(Yags),
    /// Raw enhanced-gskew majority vote.
    EGskew(EGskew),
    /// 21264-style chooser between bimodal and gshare components.
    Tournament(Tournament),
    /// PAg: per-branch histories indexing a shared pattern table.
    Local(Local),
    /// Concatenated address/history index bits.
    Gselect(Gselect),
    /// Hashed perceptron: signed weight rows over global history.
    Perceptron(Perceptron),
    /// TAGE-lite: tagged geometric-history tables over a bimodal base.
    TageLite(TageLite),
    /// Escape hatch: any user-supplied predictor, virtually dispatched.
    Custom(Box<dyn DynamicPredictor>),
}

/// Expands `$body` once per variant with `$p` bound to the payload.
macro_rules! dispatch {
    ($self:expr, $p:ident => $body:expr) => {
        match $self {
            AnyPredictor::Bimodal($p) => $body,
            AnyPredictor::Ghist($p) => $body,
            AnyPredictor::Gshare($p) => $body,
            AnyPredictor::BiMode($p) => $body,
            AnyPredictor::TwoBcGskew($p) => $body,
            AnyPredictor::Agree($p) => $body,
            AnyPredictor::Yags($p) => $body,
            AnyPredictor::EGskew($p) => $body,
            AnyPredictor::Tournament($p) => $body,
            AnyPredictor::Local($p) => $body,
            AnyPredictor::Gselect($p) => $body,
            AnyPredictor::Perceptron($p) => $body,
            AnyPredictor::TageLite($p) => $body,
            AnyPredictor::Custom($p) => $body,
        }
    };
}

impl AnyPredictor {
    /// Unwraps into a boxed trait object (boxing the enum unless it already
    /// holds a [`AnyPredictor::Custom`] box).
    pub fn into_boxed(self) -> Box<dyn DynamicPredictor> {
        match self {
            AnyPredictor::Custom(b) => b,
            other => Box::new(other),
        }
    }
}

impl DynamicPredictor for AnyPredictor {
    fn name(&self) -> &'static str {
        dispatch!(self, p => p.name())
    }

    fn size_bytes(&self) -> usize {
        dispatch!(self, p => p.size_bytes())
    }

    /// The simulator's per-event hot path: a *single* dispatch straight into
    /// the concrete [`DynamicPredictor::predict_update`], whose lookup
    /// context stays in registers.
    #[inline]
    fn predict_update(&mut self, pc: BranchAddr, taken: bool) -> Prediction {
        dispatch!(self, p => p.predict_update(pc, taken))
    }

    /// One dispatch per *batch*, not per event: the concrete batched loops
    /// (and the default per-event fallback) run with the discriminant check
    /// entirely outside the inner loop.
    #[inline]
    fn predict_update_batch(&mut self, events: &[BranchEvent], out: &mut Vec<Prediction>) {
        dispatch!(self, p => p.predict_update_batch(events, out))
    }

    #[inline]
    fn shift_history(&mut self, taken: bool) {
        dispatch!(self, p => p.shift_history(taken))
    }

    fn total_collisions(&self) -> u64 {
        dispatch!(self, p => p.total_collisions())
    }

    fn history_bits(&self) -> u32 {
        dispatch!(self, p => p.history_bits())
    }

    fn probe_indices(&self, pc: BranchAddr, history: u64, out: &mut Vec<(u32, u64)>) -> bool {
        dispatch!(self, p => p.probe_indices(pc, history, out))
    }

    fn index_spec(&self) -> Option<IndexSpec> {
        dispatch!(self, p => p.index_spec())
    }
}

impl std::fmt::Debug for AnyPredictor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "AnyPredictor({}, {} bytes)",
            self.name(),
            self.size_bytes()
        )
    }
}

/// `From` conversions for plain and boxed concrete predictors, so call
/// sites written against `Box<dyn DynamicPredictor>` unbox into static
/// dispatch when the concrete type is known.
macro_rules! from_concrete {
    ($($variant:ident($ty:ty)),* $(,)?) => {$(
        impl From<$ty> for AnyPredictor {
            fn from(p: $ty) -> Self {
                AnyPredictor::$variant(p)
            }
        }

        impl From<Box<$ty>> for AnyPredictor {
            fn from(p: Box<$ty>) -> Self {
                AnyPredictor::$variant(*p)
            }
        }
    )*};
}

from_concrete!(
    Bimodal(Bimodal),
    Ghist(Ghist),
    Gshare(Gshare),
    BiMode(BiMode),
    TwoBcGskew(TwoBcGskew),
    Agree(Agree),
    Yags(Yags),
    EGskew(EGskew),
    Tournament(Tournament),
    Local(Local),
    Gselect(Gselect),
    Perceptron(Perceptron),
    TageLite(TageLite),
);

impl From<Box<dyn DynamicPredictor>> for AnyPredictor {
    fn from(p: Box<dyn DynamicPredictor>) -> Self {
        AnyPredictor::Custom(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PredictorConfig, PredictorKind};

    /// Drives the enum and the raw concrete predictor in lockstep over a
    /// deterministic branch mix; dispatch must be semantics-free.
    #[test]
    fn enum_dispatch_matches_direct_calls() {
        for kind in PredictorKind::ALL {
            let config = PredictorConfig::new(kind, 2048).unwrap();
            let mut direct = config.build();
            let mut via_enum = config.build_any();
            assert_eq!(via_enum.name(), direct.name());
            assert_eq!(via_enum.size_bytes(), direct.size_bytes());
            for i in 0..2000u64 {
                let pc = BranchAddr((i % 37) * 4);
                let taken = (i * 7 + i / 5) % 3 != 0;
                assert_eq!(
                    via_enum.predict_update(pc, taken),
                    direct.predict_update(pc, taken),
                    "{kind:?} @{i}"
                );
            }
            assert_eq!(via_enum.total_collisions(), direct.total_collisions());
        }
    }

    /// The batched path must equal the per-event path for every kind —
    /// exercising both the hand-hoisted overrides and the default loop.
    #[test]
    fn batched_predict_update_matches_per_event() {
        for kind in PredictorKind::ALL {
            let config = PredictorConfig::new(kind, 2048).unwrap();
            let mut per_event = config.build_any();
            let mut batched = config.build_any();
            let events: Vec<BranchEvent> = (0..3000u64)
                .map(|i| {
                    let pc = BranchAddr((i % 43) * 4);
                    BranchEvent::new(pc, (i * 13 + i / 3) % 3 != 0, 0)
                })
                .collect();
            let mut out = Vec::new();
            for chunk in events.chunks(257) {
                out.clear();
                batched.predict_update_batch(chunk, &mut out);
                for (e, got) in chunk.iter().zip(&out) {
                    let want = per_event.predict_update(e.pc, e.taken);
                    assert_eq!(*got, want, "{kind:?} @{e}");
                }
            }
            assert_eq!(batched.total_collisions(), per_event.total_collisions());
        }
    }

    /// The `probe_indices` out-vector contract, for every kind through the
    /// dispatch layer: append-only (a prior occupant survives), identical
    /// probes on repeat calls, contiguous bank ids from 0 — and the
    /// supported/unsupported answer consistent with the capability source
    /// and with `index_spec` availability.
    #[test]
    fn probe_indices_append_contract_holds_for_every_kind() {
        for kind in PredictorKind::ALL {
            let config = PredictorConfig::new(kind, 4096).unwrap();
            let p = config.build_any();
            let capability = config.index_capability();
            let pc = BranchAddr(0x1b3c);
            let history = 0x2d5;
            let sentinel = (u32::MAX, u64::MAX);
            let mut out = vec![sentinel];
            let supported = p.probe_indices(pc, history, &mut out);
            assert_eq!(supported, capability.is_analyzable(), "{kind}");
            assert_eq!(p.index_spec().is_some(), capability.is_linear(), "{kind}");
            assert_eq!(out[0], sentinel, "{kind}: probe must not clear the buffer");
            if !supported {
                assert_eq!(out.len(), 1, "{kind}: unsupported probes append nothing");
                continue;
            }
            assert!(out.len() > 1, "{kind}: supported probes append");
            for (position, &(bank, _)) in out[1..].iter().enumerate() {
                assert_eq!(bank, position as u32, "{kind}: contiguous bank ids");
            }
            let mut again = Vec::new();
            assert!(p.probe_indices(pc, history, &mut again));
            assert_eq!(&out[1..], &again[..], "{kind}: probing is pure");
        }
    }

    #[test]
    fn boxed_concrete_unboxes_into_a_static_variant() {
        let p: AnyPredictor = Box::new(Gshare::new(1024)).into();
        assert!(matches!(p, AnyPredictor::Gshare(_)));
    }

    #[test]
    fn boxed_dyn_lands_in_custom() {
        let boxed: Box<dyn DynamicPredictor> = Box::new(Gshare::new(1024));
        let p: AnyPredictor = boxed.into();
        assert!(matches!(p, AnyPredictor::Custom(_)));
        assert_eq!(p.name(), "gshare");
        assert_eq!(p.size_bytes(), 1024);
    }

    #[test]
    fn into_boxed_does_not_double_box_custom() {
        let boxed: Box<dyn DynamicPredictor> = Box::new(Bimodal::new(256));
        let p = AnyPredictor::from(boxed).into_boxed();
        assert_eq!(p.name(), "bimodal");
        let q = AnyPredictor::from(Bimodal::new(256)).into_boxed();
        assert_eq!(q.size_bytes(), 256);
    }
}
