//! Trace serialization.
//!
//! Two interchange formats:
//!
//! * **binary** ([`write_binary`] / [`read_binary`]) — compact
//!   varint-delta encoding, the native on-disk format,
//! * **text** ([`write_text`] / [`read_text`]) — one branch per line
//!   (`<hex pc> T|N <gap>`), easy to produce from external tracers such as
//!   Pin/DynamoRIO scripts or `perf` post-processing.
//!
//! Both formats round-trip a [`crate::Trace`] exactly, including metadata.

pub(crate) mod binary;
pub(crate) mod text;

pub use binary::{read_binary, write_binary};
pub use text::{read_text, write_text};

pub(crate) mod varint {
    //! LEB128-style unsigned varint primitives shared by the binary codec.

    use crate::error::TraceError;
    use std::io::{Read, Write};

    /// Writes `value` as a little-endian base-128 varint.
    pub fn write_u64<W: Write>(w: &mut W, mut value: u64) -> std::io::Result<()> {
        loop {
            let byte = (value & 0x7f) as u8;
            value >>= 7;
            if value == 0 {
                w.write_all(&[byte])?;
                return Ok(());
            }
            w.write_all(&[byte | 0x80])?;
        }
    }

    /// Reads a varint written by [`write_u64`].
    ///
    /// # Errors
    ///
    /// [`TraceError::TruncatedVarint`] if input ends mid-varint or the value
    /// would exceed 64 bits; [`TraceError::Io`] on other read failures.
    pub fn read_u64<R: Read>(r: &mut R) -> Result<u64, TraceError> {
        let mut value = 0u64;
        let mut shift = 0u32;
        loop {
            let mut byte = [0u8; 1];
            match r.read_exact(&mut byte) {
                Ok(()) => {}
                Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => {
                    return Err(TraceError::TruncatedVarint)
                }
                Err(e) => return Err(TraceError::Io(e)),
            }
            let b = byte[0];
            if shift >= 64 || (shift == 63 && b > 1) {
                return Err(TraceError::TruncatedVarint);
            }
            value |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                return Ok(value);
            }
            shift += 7;
        }
    }

    /// Decodes a varint from the front of `bytes`, returning it with its
    /// length in bytes.
    ///
    /// `None` when `bytes` ends mid-varint or the varint is overlong: the
    /// caller hands both cases to [`read_u64`], which reads past the end of
    /// `bytes` and reports the errors.
    #[inline]
    pub fn decode_u64(bytes: &[u8]) -> Option<(u64, usize)> {
        let mut value = 0u64;
        for (i, &b) in bytes.iter().take(10).enumerate() {
            let shift = 7 * i as u32;
            if shift == 63 && b > 1 {
                return None;
            }
            value |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                return Some((value, i + 1));
            }
        }
        None
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        fn roundtrip(v: u64) -> u64 {
            let mut buf = Vec::new();
            write_u64(&mut buf, v).unwrap();
            read_u64(&mut &buf[..]).unwrap()
        }

        #[test]
        fn roundtrips_edge_values() {
            for v in [0, 1, 127, 128, 16383, 16384, u32::MAX as u64, u64::MAX] {
                assert_eq!(roundtrip(v), v);
            }
        }

        #[test]
        fn small_values_are_one_byte() {
            let mut buf = Vec::new();
            write_u64(&mut buf, 127).unwrap();
            assert_eq!(buf.len(), 1);
        }

        #[test]
        fn truncated_input_is_detected() {
            let buf = [0x80u8, 0x80];
            assert!(matches!(
                read_u64(&mut &buf[..]),
                Err(TraceError::TruncatedVarint)
            ));
        }

        #[test]
        fn overlong_input_is_rejected() {
            // Eleven continuation bytes exceed 64 bits of payload.
            let buf = [0xffu8; 11];
            assert!(matches!(
                read_u64(&mut &buf[..]),
                Err(TraceError::TruncatedVarint)
            ));
            assert_eq!(decode_u64(&buf), None);
        }

        #[test]
        fn slice_decoder_agrees_with_the_reader() {
            for v in [0, 1, 127, 128, 16383, 16384, u32::MAX as u64, u64::MAX] {
                let mut buf = Vec::new();
                write_u64(&mut buf, v).unwrap();
                let len = buf.len();
                buf.push(0x55);
                assert_eq!(decode_u64(&buf), Some((v, len)));
                assert_eq!(decode_u64(&buf[..len - 1]), None, "cut mid-varint");
            }
            // A tenth byte may carry only bit 63.
            let mut top = [0xffu8; 10];
            top[9] = 0x02;
            assert!(read_u64(&mut &top[..]).is_err());
            assert_eq!(decode_u64(&top), None);
        }
    }
}

#[cfg(test)]
mod proptests {
    use crate::event::{BranchAddr, BranchEvent};
    use crate::trace::{Trace, TraceBuilder};
    use proptest::prelude::*;

    fn arb_event() -> impl Strategy<Value = BranchEvent> {
        (any::<u64>(), any::<bool>(), 0u32..100_000)
            .prop_map(|(pc, taken, gap)| BranchEvent::new(BranchAddr(pc), taken, gap))
    }

    fn arb_trace() -> impl Strategy<Value = Trace> {
        (
            proptest::collection::vec(arb_event(), 0..200),
            "[a-z.0-9]{0,16}",
        )
            .prop_map(|(events, name)| {
                let mut b = TraceBuilder::named(name);
                b.extend(events);
                b.finish()
            })
    }

    proptest! {
        #[test]
        fn binary_roundtrip(trace in arb_trace()) {
            let mut buf = Vec::new();
            super::write_binary(&mut buf, &trace).unwrap();
            let back = super::read_binary(&mut &buf[..]).unwrap();
            prop_assert_eq!(back, trace);
        }

        #[test]
        fn text_roundtrip(trace in arb_trace()) {
            let mut buf = Vec::new();
            super::write_text(&mut buf, &trace).unwrap();
            let back = super::read_text(&mut &buf[..]).unwrap();
            prop_assert_eq!(back.events(), trace.events());
            prop_assert_eq!(
                back.meta().total_instructions,
                trace.meta().total_instructions
            );
        }

        #[test]
        fn binary_is_compact(trace in arb_trace()) {
            // Sanity bound: header + at most ~20 bytes per event.
            let mut buf = Vec::new();
            super::write_binary(&mut buf, &trace).unwrap();
            prop_assert!(buf.len() <= 64 + trace.meta().name.len() + 20 * trace.len());
        }
    }
}
