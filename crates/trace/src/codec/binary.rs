//! Compact binary trace format.
//!
//! Layout (all multi-byte integers are varints unless noted):
//!
//! ```text
//! magic    : 4 bytes  "SDBT"
//! version  : u16 little-endian (currently 1)
//! name_len : varint, then that many UTF-8 bytes
//! events   : varint count
//! instrs   : varint total_instructions
//! per event:
//!   pc_zig : varint zig-zag delta of pc from the previous event's pc
//!   packed : varint ((gap << 1) | taken)
//! ```
//!
//! PC deltas are zig-zag encoded because consecutive branches are usually
//! close together in the address space, so deltas are small in magnitude but
//! signed; packing `taken` into the gap word saves one byte per event.
//!
//! The decode path is split into [`read_header`] and [`EventDecoder`] so the
//! streaming importer in [`crate::import`] can drive the same decoder in
//! bounded memory, a buffered chunk or one event at a time; [`read_binary`]
//! is the materializing wrapper.

use super::varint;
use crate::error::TraceError;
use crate::event::{BranchAddr, BranchEvent};
use crate::trace::{Trace, TraceMeta};
use std::io::{Read, Write};

/// The 4-byte magic prefix of the binary format, shared with format
/// autodetection in [`crate::import`].
pub(crate) const MAGIC: [u8; 4] = *b"SDBT";
const VERSION: u16 = 1;
/// Sanity cap on the declared trace-name length, far above any real name.
const MAX_NAME_LEN: u64 = 64 * 1024;

fn zigzag_encode(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn zigzag_decode(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// The decoded fixed header of a binary trace.
#[derive(Debug, Clone)]
pub(crate) struct BinaryHeader {
    /// The embedded trace name (may be empty).
    pub name: String,
    /// Number of events the payload promises.
    pub events: u64,
    /// Total retired instructions recorded at encode time.
    pub total_instructions: u64,
}

/// Reads and validates the magic, version, and metadata fields, leaving the
/// reader positioned at the first event record.
pub(crate) fn read_header<R: Read>(r: &mut R) -> Result<BinaryHeader, TraceError> {
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if magic != MAGIC {
        return Err(TraceError::BadMagic { found: magic });
    }
    let mut version = [0u8; 2];
    r.read_exact(&mut version)?;
    let version = u16::from_le_bytes(version);
    if version != VERSION {
        return Err(TraceError::UnsupportedVersion { found: version });
    }
    let name_len = varint::read_u64(r)?;
    // A corrupt length here would otherwise drive an arbitrarily large
    // allocation before read_exact ever touches the payload.
    if name_len > MAX_NAME_LEN {
        return Err(TraceError::NameTooLong {
            declared: name_len,
            limit: MAX_NAME_LEN,
        });
    }
    let mut name_bytes = vec![0u8; name_len as usize];
    r.read_exact(&mut name_bytes)?;
    let name = String::from_utf8_lossy(&name_bytes).into_owned();
    let events = varint::read_u64(r)?;
    let total_instructions = varint::read_u64(r)?;
    Ok(BinaryHeader {
        name,
        events,
        total_instructions,
    })
}

/// Incremental decoder for the per-event records following the header.
///
/// Holds the pc-delta chain state so events can be pulled one at a time in
/// bounded memory.
#[derive(Debug, Default, Clone)]
pub(crate) struct EventDecoder {
    prev_pc: u64,
    decoded: u64,
}

impl EventDecoder {
    /// Events successfully decoded so far.
    pub fn decoded(&self) -> u64 {
        self.decoded
    }

    /// Decodes the next event record, given the header's promised count.
    ///
    /// A varint cut off mid-event is reported as
    /// [`TraceError::TruncatedEvents`] carrying how far the decode got, and
    /// a gap above `u32::MAX` as [`TraceError::GapOverflow`].
    pub fn next<R: Read>(&mut self, r: &mut R, expected: u64) -> Result<BranchEvent, TraceError> {
        let decoded = self.decoded;
        let truncated = |e| match e {
            TraceError::TruncatedVarint => TraceError::TruncatedEvents { expected, decoded },
            e => e,
        };
        let pc_zig = varint::read_u64(r).map_err(truncated)?;
        let packed = varint::read_u64(r).map_err(truncated)?;
        self.event(pc_zig, packed)
    }

    /// Decodes the whole records at the front of `bytes` into `out`, at
    /// most `max` of them and never past the header's `expected` count,
    /// returning how many bytes they took.
    ///
    /// Stops at the first record not wholly inside `bytes`, or not
    /// well-formed: [`EventDecoder::next`] decodes that one from the
    /// reader, which sees past the end of `bytes` and reports the errors.
    pub fn decode_slice(
        &mut self,
        bytes: &[u8],
        expected: u64,
        out: &mut Vec<BranchEvent>,
        max: usize,
    ) -> Result<usize, TraceError> {
        let mut used = 0;
        for _ in 0..max {
            if self.decoded >= expected {
                break;
            }
            let Some((pc_zig, a)) = varint::decode_u64(&bytes[used..]) else {
                break;
            };
            let Some((packed, b)) = varint::decode_u64(&bytes[used + a..]) else {
                break;
            };
            out.push(self.event(pc_zig, packed)?);
            used += a + b;
        }
        Ok(used)
    }

    /// Turns one record's two varints into the next event.
    fn event(&mut self, pc_zig: u64, packed: u64) -> Result<BranchEvent, TraceError> {
        let gap = u32::try_from(packed >> 1).map_err(|_| TraceError::GapOverflow {
            event: self.decoded,
            gap: packed >> 1,
        })?;
        let pc = self.prev_pc.wrapping_add(zigzag_decode(pc_zig) as u64);
        self.prev_pc = pc;
        self.decoded += 1;
        Ok(BranchEvent::new(BranchAddr(pc), packed & 1 == 1, gap))
    }
}

/// Writes `trace` in the binary format.
///
/// # Errors
///
/// Propagates I/O failures from `w`.
///
/// # Examples
///
/// ```
/// use sdbp_trace::{read_binary, write_binary, BranchAddr, BranchEvent, TraceBuilder};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = TraceBuilder::named("tiny");
/// b.push(BranchEvent::new(BranchAddr(0x1000), true, 5));
/// let trace = b.finish();
///
/// let mut buf = Vec::new();
/// write_binary(&mut buf, &trace)?;
/// let back = read_binary(&mut &buf[..])?;
/// assert_eq!(back, trace);
/// # Ok(())
/// # }
/// ```
pub fn write_binary<W: Write>(w: &mut W, trace: &Trace) -> Result<(), TraceError> {
    w.write_all(&MAGIC)?;
    w.write_all(&VERSION.to_le_bytes())?;
    let name = trace.meta().name.as_bytes();
    varint::write_u64(w, name.len() as u64)?;
    w.write_all(name)?;
    varint::write_u64(w, trace.len() as u64)?;
    varint::write_u64(w, trace.meta().total_instructions)?;
    let mut prev_pc = 0u64;
    for e in trace.iter() {
        let delta = e.pc.0.wrapping_sub(prev_pc) as i64;
        varint::write_u64(w, zigzag_encode(delta))?;
        varint::write_u64(w, (u64::from(e.gap) << 1) | u64::from(e.taken))?;
        prev_pc = e.pc.0;
    }
    Ok(())
}

/// Reads a trace written by [`write_binary`].
///
/// # Errors
///
/// * [`TraceError::BadMagic`] / [`TraceError::UnsupportedVersion`] for
///   foreign input,
/// * [`TraceError::TruncatedVarint`] / [`TraceError::TruncatedEvents`] for
///   cut-off payloads,
/// * [`TraceError::GapOverflow`] for a record whose gap exceeds `u32`,
/// * [`TraceError::Io`] for underlying reader failures.
pub fn read_binary<R: Read>(r: &mut R) -> Result<Trace, TraceError> {
    let header = read_header(r)?;
    let mut events = Vec::with_capacity(header.events.min(1 << 24) as usize);
    let mut decoder = EventDecoder::default();
    for _ in 0..header.events {
        events.push(decoder.next(r, header.events)?);
    }
    Ok(Trace::from_parts(
        TraceMeta {
            total_instructions: header.total_instructions,
            name: header.name,
        },
        events,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceBuilder;

    fn sample_trace() -> Trace {
        let mut b = TraceBuilder::named("sample");
        b.push(BranchEvent::new(BranchAddr(0x12000), true, 6));
        b.push(BranchEvent::new(BranchAddr(0x12010), false, 2));
        b.push(BranchEvent::new(BranchAddr(0x11ff0), true, 0));
        b.finish()
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let trace = sample_trace();
        let mut buf = Vec::new();
        write_binary(&mut buf, &trace).unwrap();
        let back = read_binary(&mut &buf[..]).unwrap();
        assert_eq!(back, trace);
    }

    #[test]
    fn empty_trace_roundtrips() {
        let trace = Trace::default();
        let mut buf = Vec::new();
        write_binary(&mut buf, &trace).unwrap();
        let back = read_binary(&mut &buf[..]).unwrap();
        assert_eq!(back, trace);
    }

    #[test]
    fn zigzag_is_involutive() {
        for v in [-1i64, 0, 1, i64::MIN, i64::MAX, -123456, 123456] {
            assert_eq!(zigzag_decode(zigzag_encode(v)), v);
        }
    }

    #[test]
    fn bad_magic_is_rejected() {
        let buf = b"NOPE\x01\x00".to_vec();
        assert!(matches!(
            read_binary(&mut &buf[..]),
            Err(TraceError::BadMagic { .. })
        ));
    }

    #[test]
    fn wrong_version_is_rejected() {
        let mut buf = Vec::new();
        write_binary(&mut buf, &sample_trace()).unwrap();
        buf[4] = 99; // corrupt the version field
        assert!(matches!(
            read_binary(&mut &buf[..]),
            Err(TraceError::UnsupportedVersion { found: 99 })
        ));
    }

    #[test]
    fn absurd_name_length_is_rejected_without_allocating() {
        // Header with a name length claiming ~4 GB: must error out, not
        // attempt the allocation.
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC);
        buf.extend_from_slice(&VERSION.to_le_bytes());
        varint::write_u64(&mut buf, u64::from(u32::MAX)).unwrap();
        assert!(matches!(
            read_binary(&mut &buf[..]),
            Err(TraceError::NameTooLong {
                declared,
                limit: MAX_NAME_LEN,
            }) if declared == u64::from(u32::MAX)
        ));
    }

    #[test]
    fn truncated_payload_is_reported() {
        let mut buf = Vec::new();
        write_binary(&mut buf, &sample_trace()).unwrap();
        buf.truncate(buf.len() - 3);
        let err = read_binary(&mut &buf[..]).unwrap_err();
        assert!(
            matches!(
                err,
                TraceError::TruncatedEvents { .. } | TraceError::TruncatedVarint
            ),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn oversized_gaps_are_rejected_by_both_decode_paths() {
        // One valid record, then one whose gap is 2^32: a bare `as u32`
        // would wrap it to 0.
        let mut buf = Vec::new();
        for (pc_zig, packed) in [(8, 5 << 1), (2, (1u64 << 33) | 1)] {
            varint::write_u64(&mut buf, pc_zig).unwrap();
            varint::write_u64(&mut buf, packed).unwrap();
        }
        let overflow = |e: TraceError| matches!(e, TraceError::GapOverflow { event: 1, gap } if gap == 1 << 32);

        let mut reader = &buf[..];
        let mut decoder = EventDecoder::default();
        assert_eq!(decoder.next(&mut reader, 2).unwrap().gap, 5);
        assert!(overflow(decoder.next(&mut reader, 2).unwrap_err()));

        let mut out = Vec::new();
        let err = EventDecoder::default()
            .decode_slice(&buf, 2, &mut out, 8)
            .unwrap_err();
        assert!(overflow(err));
        assert_eq!(out.len(), 1, "the valid record before it is kept");
    }

    #[test]
    fn slice_decoding_stops_at_a_record_cut_by_the_buffer_end() {
        let trace = sample_trace();
        let mut buf = Vec::new();
        write_binary(&mut buf, &trace).unwrap();
        let mut r = &buf[..];
        read_header(&mut r).unwrap();
        let mut out = Vec::new();
        let mut decoder = EventDecoder::default();
        let used = decoder
            .decode_slice(&r[..r.len() - 1], 3, &mut out, 8)
            .unwrap();
        assert_eq!(out, trace.events()[..2]);
        // The reader finishes the cut record from where the slice stopped.
        let mut rest = &r[used..];
        assert_eq!(decoder.next(&mut rest, 3).unwrap(), trace.events()[2]);
        assert_eq!(decoder.decode_slice(rest, 3, &mut out, 8).unwrap(), 0);
    }

    #[test]
    fn delta_encoding_is_compact_for_local_branches() {
        // 1000 branches within one 4KB page should encode in ~2-3 bytes each.
        let mut b = TraceBuilder::new();
        for i in 0..1000u64 {
            b.push(BranchEvent::new(
                BranchAddr(0x40_0000 + 4 * (i % 256)),
                i % 3 == 0,
                4,
            ));
        }
        let trace = b.finish();
        let mut buf = Vec::new();
        write_binary(&mut buf, &trace).unwrap();
        assert!(
            buf.len() < 4 * trace.len(),
            "encoded {} bytes for {} events",
            buf.len(),
            trace.len()
        );
    }
}
