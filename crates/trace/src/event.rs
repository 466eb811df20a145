//! The branch event observed by every predictor in the stack.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

/// The address (program counter) of a static conditional branch instruction.
///
/// A newtype rather than a bare `u64` so that branch addresses cannot be
/// confused with table indices, history values, or instruction counts, all of
/// which also travel as 64-bit integers through the simulator.
///
/// # Examples
///
/// ```
/// use sdbp_trace::BranchAddr;
///
/// let pc = BranchAddr(0x0001_2000);
/// assert_eq!(pc.word_index(), 0x0000_4800, "Alpha instructions are 4 bytes");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct BranchAddr(pub u64);

impl BranchAddr {
    /// The address divided by the 4-byte instruction width.
    ///
    /// Branch predictor tables are indexed with instruction-granular address
    /// bits; the two always-zero byte-offset bits would otherwise waste index
    /// entropy (the paper's predictors all discard them).
    pub fn word_index(self) -> u64 {
        self.0 >> 2
    }
}

impl fmt::Display for BranchAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl From<u64> for BranchAddr {
    fn from(v: u64) -> Self {
        BranchAddr(v)
    }
}

impl From<BranchAddr> for u64 {
    fn from(a: BranchAddr) -> Self {
        a.0
    }
}

/// A [`HashMap`] keyed by branch address, hashed with [`PcHasher`].
pub type PcMap<V> = HashMap<BranchAddr, V, BuildHasherDefault<PcHasher>>;

/// A [`HashSet`] of branch addresses, hashed with [`PcHasher`].
pub type PcSet = HashSet<BranchAddr, BuildHasherDefault<PcHasher>>;

/// A deterministic hasher for program counters.
///
/// The per-event maps — the hint database probed on every branch, the
/// bias, accuracy and trace-statistics accumulators — key on one `u64`.
/// std's SipHash-1-3 spends more time on that key than the predictor
/// kernel spends on the branch. This hasher costs one folded multiply per
/// `write_u64`: the 128-bit product of the key and a 64-bit odd constant,
/// with its high and low halves XOR-ed. The low half spreads the pc's low
/// bits upward into hashbrown's tag bits (the top 7); the high half folds
/// the pc's high bits down into its bucket bits (the bottom ones), so
/// word-aligned, page-strided and high-only addresses all spread.
///
/// The hash is unkeyed, so it is not resistant to hash flooding. The keys
/// come from a trace the user runs locally: a crafted one can slow only its
/// own run.
///
/// # Examples
///
/// ```
/// use sdbp_trace::{BranchAddr, PcMap};
///
/// let mut counts: PcMap<u64> = PcMap::default();
/// *counts.entry(BranchAddr(0x400)).or_default() += 1;
/// assert_eq!(counts[&BranchAddr(0x400)], 1);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct PcHasher(u64);

impl PcHasher {
    /// The golden-ratio multiplier `2^64 / φ`, odd so the multiply is a
    /// bijection on the low half.
    const K: u64 = 0x9e37_79b9_7f4a_7c15;
}

impl Hasher for PcHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        let product = u128::from(self.0 ^ n) * u128::from(Self::K);
        self.0 = (product as u64) ^ ((product >> 64) as u64);
    }

    /// Generic keys fold through [`PcHasher::write_u64`] eight bytes at a
    /// time.
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }
}

/// The resolved direction of a conditional branch.
///
/// A two-variant enum rather than a bare `bool` at API boundaries where the
/// meaning of `true` would be ambiguous.
///
/// # Examples
///
/// ```
/// use sdbp_trace::Outcome;
///
/// let o = Outcome::from_taken(true);
/// assert_eq!(o, Outcome::Taken);
/// assert!(o.is_taken());
/// assert_eq!(!o, Outcome::NotTaken);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Outcome {
    /// The branch was taken (control transferred to the target).
    Taken,
    /// The branch fell through.
    NotTaken,
}

impl Outcome {
    /// Converts from the `taken` flag representation.
    pub fn from_taken(taken: bool) -> Self {
        if taken {
            Outcome::Taken
        } else {
            Outcome::NotTaken
        }
    }

    /// Whether this outcome is [`Outcome::Taken`].
    pub fn is_taken(self) -> bool {
        matches!(self, Outcome::Taken)
    }
}

impl std::ops::Not for Outcome {
    type Output = Outcome;

    fn not(self) -> Outcome {
        match self {
            Outcome::Taken => Outcome::NotTaken,
            Outcome::NotTaken => Outcome::Taken,
        }
    }
}

impl fmt::Display for Outcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Outcome::Taken => f.write_str("T"),
            Outcome::NotTaken => f.write_str("N"),
        }
    }
}

/// One executed conditional branch.
///
/// `gap` records the number of non-branch instructions retired since the
/// previous conditional branch (or since program start for the first event),
/// which is what lets the simulator compute the paper's MISPs/KI metric —
/// mispredictions per thousand *instructions* — without carrying a separate
/// instruction stream.
///
/// # Examples
///
/// ```
/// use sdbp_trace::{BranchAddr, BranchEvent, Outcome};
///
/// let e = BranchEvent::new(BranchAddr(0x400), true, 6);
/// assert_eq!(e.outcome(), Outcome::Taken);
/// assert_eq!(e.instructions(), 7, "gap plus the branch itself");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BranchEvent {
    /// Address of the branch instruction.
    pub pc: BranchAddr,
    /// Whether the branch was taken.
    pub taken: bool,
    /// Non-branch instructions retired since the previous conditional branch.
    pub gap: u32,
}

impl BranchEvent {
    /// Creates an event.
    pub fn new(pc: BranchAddr, taken: bool, gap: u32) -> Self {
        Self { pc, taken, gap }
    }

    /// The direction as an [`Outcome`].
    pub fn outcome(&self) -> Outcome {
        Outcome::from_taken(self.taken)
    }

    /// Instructions this event accounts for: the preceding gap plus the
    /// branch instruction itself.
    pub fn instructions(&self) -> u64 {
        self.gap as u64 + 1
    }
}

impl fmt::Display for BranchEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} gap={}", self.pc, self.outcome(), self.gap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn word_index_strips_byte_offset() {
        assert_eq!(BranchAddr(0).word_index(), 0);
        assert_eq!(BranchAddr(4).word_index(), 1);
        assert_eq!(BranchAddr(0x1000).word_index(), 0x400);
    }

    #[test]
    fn addr_conversions_roundtrip() {
        let a = BranchAddr::from(0xdead_beefu64);
        let v: u64 = a.into();
        assert_eq!(v, 0xdead_beef);
        assert_eq!(a.to_string(), "0xdeadbeef");
    }

    #[test]
    fn pc_hasher_spreads_structured_addresses() {
        use std::hash::{BuildHasher, BuildHasherDefault};
        let build = BuildHasherDefault::<PcHasher>::default();
        // 4096 keys into 4096 buckets: a uniformly random hash fills
        // 4096·(1 − 1/e) ≈ 2589 of them. Each pattern must reach 90% of that.
        let uniform = 4096.0 * (1.0 - (1.0f64 - 1.0 / 4096.0).powi(4096));
        for (name, shift) in [
            ("stride 4", 2),
            ("stride 4 KiB", 12),
            ("high bits only", 52),
        ] {
            let hashes: Vec<u64> = (0..4096u64)
                .map(|i| build.hash_one(BranchAddr(i << shift)))
                .collect();
            let buckets: HashSet<u64> = hashes.iter().map(|h| h & 4095).collect();
            assert!(
                buckets.len() as f64 >= 0.9 * uniform,
                "{name}: {} distinct buckets",
                buckets.len()
            );
            // hashbrown's 7-bit tag comes from the top bits: all 128 used.
            let tags: HashSet<u64> = hashes.iter().map(|h| h >> 57).collect();
            assert_eq!(tags.len(), 128, "{name}: tag bits unused");
        }
    }

    #[test]
    fn outcome_negation_and_flags() {
        assert!(Outcome::Taken.is_taken());
        assert!(!Outcome::NotTaken.is_taken());
        assert_eq!(!Outcome::Taken, Outcome::NotTaken);
        assert_eq!(!!Outcome::Taken, Outcome::Taken);
        assert_eq!(Outcome::from_taken(false), Outcome::NotTaken);
    }

    #[test]
    fn outcome_display_is_single_letter() {
        assert_eq!(Outcome::Taken.to_string(), "T");
        assert_eq!(Outcome::NotTaken.to_string(), "N");
    }

    #[test]
    fn event_accounting() {
        let e = BranchEvent::new(BranchAddr(0x8), false, 0);
        assert_eq!(e.instructions(), 1);
        let e = BranchEvent::new(BranchAddr(0x8), true, 9);
        assert_eq!(e.instructions(), 10);
    }

    #[test]
    fn event_display_mentions_all_fields() {
        let e = BranchEvent::new(BranchAddr(0x10), true, 3);
        let s = e.to_string();
        assert!(s.contains("0x10"));
        assert!(s.contains('T'));
        assert!(s.contains("gap=3"));
    }
}
