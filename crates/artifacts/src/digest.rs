//! Content digests for artifact addressing.
//!
//! [`Digest`] is a 128-bit fingerprint built from two independent FNV-1a
//! lanes. It is *not* cryptographic — the store trusts its own producers —
//! but 128 bits of a decent mixing function makes accidental collisions
//! across a sweep's few thousand objects vanishingly unlikely, and FNV keeps
//! the hot profile-hashing path allocation- and dependency-free.

use std::fmt;
use std::str::FromStr;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
/// Offset basis of the second lane: the standard basis perturbed by the
/// golden-ratio constant so the lanes start decorrelated.
const FNV_OFFSET_B: u64 = FNV_OFFSET ^ 0x9e37_79b9_7f4a_7c15;

/// A 128-bit content digest, printed as 32 lowercase hex digits.
///
/// # Examples
///
/// ```
/// use sdbp_artifacts::Digest;
///
/// let d = Digest::of(b"hello");
/// let text = d.to_string();
/// assert_eq!(text.len(), 32);
/// assert_eq!(text.parse::<Digest>().unwrap(), d);
/// assert_ne!(d, Digest::of(b"hello "));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Digest(pub [u64; 2]);

impl Digest {
    /// Digests a byte slice in one call.
    pub fn of(bytes: &[u8]) -> Self {
        let mut h = Hasher::new();
        h.update(bytes);
        h.finish()
    }
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}{:016x}", self.0[0], self.0[1])
    }
}

impl fmt::Debug for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Digest({self})")
    }
}

impl FromStr for Digest {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s.len() != 32 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
            return Err(format!("digest '{s}' is not 32 hex digits"));
        }
        let hi = u64::from_str_radix(&s[..16], 16).expect("validated hex");
        let lo = u64::from_str_radix(&s[16..], 16).expect("validated hex");
        Ok(Digest([hi, lo]))
    }
}

/// Incremental digest builder.
///
/// The convenience writers ([`Hasher::write_u64`], [`Hasher::write_str`])
/// frame their input (fixed width, or length-prefixed) so that distinct
/// field sequences cannot collide by concatenation.
#[derive(Debug, Clone)]
pub struct Hasher {
    a: u64,
    b: u64,
}

impl Hasher {
    /// Starts a fresh digest.
    pub fn new() -> Self {
        Self {
            a: FNV_OFFSET,
            b: FNV_OFFSET_B,
        }
    }

    /// Feeds raw bytes.
    pub fn update(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.a = (self.a ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
            // The second lane sees each byte bit-flipped, so the lanes never
            // walk through the same state sequence.
            self.b = (self.b ^ u64::from(!byte)).wrapping_mul(FNV_PRIME);
        }
    }

    /// Feeds a `u64` as 8 little-endian bytes.
    pub fn write_u64(&mut self, value: u64) {
        self.update(&value.to_le_bytes());
    }

    /// Feeds a string, length-prefixed.
    pub fn write_str(&mut self, value: &str) {
        self.write_u64(value.len() as u64);
        self.update(value.as_bytes());
    }

    /// Finalizes the digest (the hasher may keep accumulating afterwards).
    pub fn finish(&self) -> Digest {
        // One avalanche round per lane: plain FNV's final state weakly mixes
        // the high bits, and store sharding uses the top byte.
        Digest([mix(self.a), mix(self.b)])
    }
}

impl Default for Hasher {
    fn default() -> Self {
        Self::new()
    }
}

/// SplitMix64-style finalizer.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn display_parse_roundtrip() {
        let d = Digest([0x0123_4567_89ab_cdef, 0xfedc_ba98_7654_3210]);
        assert_eq!(d.to_string(), "0123456789abcdeffedcba9876543210");
        assert_eq!(d.to_string().parse::<Digest>().unwrap(), d);
        assert_eq!(format!("{d:?}"), format!("Digest({d})"));
    }

    #[test]
    fn parse_rejects_bad_input() {
        assert!("".parse::<Digest>().is_err());
        assert!("0123".parse::<Digest>().is_err());
        assert!("zz23456789abcdeffedcba9876543210"
            .parse::<Digest>()
            .is_err());
        assert!("0123456789abcdeffedcba98765432100"
            .parse::<Digest>()
            .is_err());
    }

    #[test]
    fn incremental_equals_one_shot() {
        let mut h = Hasher::new();
        h.update(b"hel");
        h.update(b"lo");
        assert_eq!(h.finish(), Digest::of(b"hello"));
    }

    #[test]
    fn framing_prevents_concatenation_collisions() {
        let mut a = Hasher::new();
        a.write_str("ab");
        a.write_str("c");
        let mut b = Hasher::new();
        b.write_str("a");
        b.write_str("bc");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn lanes_are_independent() {
        // A pure single-lane FNV would make both halves equal for empty
        // input; the perturbed second lane must not.
        let d = Digest::of(b"");
        assert_ne!(d.0[0], d.0[1]);
        let d = Digest::of(b"x");
        assert_ne!(d.0[0], d.0[1]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn distinct_small_inputs_do_not_collide(a in proptest::collection::vec(any::<u8>(), 0..24),
                                                b in proptest::collection::vec(any::<u8>(), 0..24)) {
            if a != b {
                prop_assert_ne!(Digest::of(&a), Digest::of(&b));
            }
        }

        #[test]
        fn hex_roundtrip_holds(hi in any::<u64>(), lo in any::<u64>()) {
            let d = Digest([hi, lo]);
            prop_assert_eq!(d.to_string().parse::<Digest>().unwrap(), d);
        }
    }
}
