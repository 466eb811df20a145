//! External trace ingestion: format autodetection and streaming importers.
//!
//! The simulator's front door is [`crate::BranchSource`]; this module makes
//! that literal for *files*. [`open_path`] turns an on-disk trace in any
//! supported [`TraceFormat`] into an [`ImportStream`] — a bounded-memory
//! `BranchSource` that decodes chunks straight out of one fixed read buffer,
//! so a multi-gigabyte ChampSim-style capture streams through the pass
//! framework exactly like a synthetic generator.
//!
//! Three formats are supported:
//!
//! * [`TraceFormat::SdbtBinary`] — the native varint-delta binary codec
//!   (`codec/binary.rs`), recognized by its `SDBT` magic,
//! * [`TraceFormat::SdbpText`] — the line-oriented interchange format
//!   (`codec/text.rs`),
//! * [`TraceFormat::PerfText`] — `perf script`-style branch records: each
//!   line may carry prefix tokens (comm, pid, cpu, timestamp — the last one
//!   ends with `:`), followed by `pc direction [gap]`.
//!
//! [`autodetect`] picks the format from the first bytes of the input;
//! [`open_path`] is the one-call entry point. Because `BranchSource` has no
//! error channel, a decode error mid-stream ends the stream and is parked on
//! [`ImportStream::error`]; [`scan_path`] (used by `sdbp ingest` and the
//! `sdbp check` admission lints) surfaces it up front.

use crate::codec::binary::{read_header, EventDecoder};
use crate::codec::text::{
    is_blank, parse_record_bytes, parse_record_fields, parse_text_line, ParsedLine,
};
use crate::error::TraceError;
use crate::event::{BranchEvent, PcSet};
use crate::source::BranchSource;
use crate::trace::{Trace, TraceMeta};
use std::fmt;
use std::fs::File;
use std::io::{BufRead, BufReader, Read, Write};
use std::path::Path;
use std::str::FromStr;

/// How many bytes of the input [`autodetect`] inspects.
const SNIFF_LEN: usize = 4096;
/// The read buffer of a stream opened from a file: the chunked decoder
/// works on it in place, and a record cut by its end goes to the reference
/// decoder, so it only needs to hold many lines.
const READ_BUF_LEN: usize = 64 * 1024;
/// Events per [`BranchSource::fill_events`] pull in the whole-file readers.
const CHUNK_EVENTS: usize = 8192;

/// The on-disk trace formats [`open_path`] understands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceFormat {
    /// Native varint-delta binary format (`SDBT` magic).
    SdbtBinary,
    /// Line-oriented sdbp text format (`<hex pc> T|N [gap]`).
    SdbpText,
    /// `perf script` branch-record text (prefix tokens ending in `:`).
    PerfText,
}

impl TraceFormat {
    /// All supported formats, in autodetection order: framed binary first,
    /// then the stricter text grammar, then perf text.
    pub const ALL: [TraceFormat; 3] = [
        TraceFormat::SdbtBinary,
        TraceFormat::SdbpText,
        TraceFormat::PerfText,
    ];

    /// Stable lowercase name, used by CLI flags and reports.
    pub fn name(self) -> &'static str {
        match self {
            TraceFormat::SdbtBinary => "sdbt-binary",
            TraceFormat::SdbpText => "sdbp-text",
            TraceFormat::PerfText => "perf-text",
        }
    }

    /// Whether `prefix` (the first bytes of an input, trimmed to whole lines
    /// for the text formats) looks like this format.
    fn sniff(self, prefix: &[u8]) -> bool {
        match self {
            TraceFormat::SdbtBinary => prefix.len() >= 4 && prefix[..4] == *b"SDBT",
            TraceFormat::SdbpText => first_significant_line(prefix).is_some_and(|line| {
                line.starts_with('!') || parse_record_fields(line.split_whitespace(), 1).is_ok()
            }),
            TraceFormat::PerfText => first_significant_line(prefix)
                .is_some_and(|line| matches!(parse_perf_line(&line, 1), Ok(Some(_)))),
        }
    }
}

impl fmt::Display for TraceFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for TraceFormat {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        TraceFormat::ALL
            .into_iter()
            .find(|f| f.name() == s)
            .ok_or_else(|| {
                format!(
                    "unknown trace format '{s}', expected one of sdbt-binary, sdbp-text, perf-text"
                )
            })
    }
}

/// First non-blank, non-comment line of a byte prefix, for sniffing.
fn first_significant_line(prefix: &[u8]) -> Option<String> {
    let text = String::from_utf8_lossy(prefix);
    text.lines()
        .map(str::trim)
        .find(|l| !l.is_empty() && !l.starts_with('#'))
        .map(str::to_string)
}

/// Picks the format of an input from its first bytes.
///
/// Binary is recognized by magic on the raw bytes; text formats by parsing
/// the first significant line. Returns `None` when nothing matches — the
/// caller turns that into [`TraceError::UnknownFormat`].
pub fn autodetect(prefix: &[u8]) -> Option<TraceFormat> {
    // A prefix cut mid-line must not make the last (partial) line vote.
    let trimmed: &[u8] = if prefix.len() >= SNIFF_LEN {
        match prefix.iter().rposition(|&b| b == b'\n') {
            Some(i) => &prefix[..i],
            None => &[],
        }
    } else {
        prefix
    };
    TraceFormat::ALL.into_iter().find(|&format| {
        let probe = if format == TraceFormat::SdbtBinary {
            prefix
        } else {
            trimmed
        };
        format.sniff(probe)
    })
}

/// Opens `path` as a streaming branch source, autodetecting its format.
///
/// # Errors
///
/// [`TraceError::UnknownFormat`] when no format recognizes the input;
/// otherwise whatever [`ImportStream::open`] reports for that format.
pub fn open_path(path: &Path) -> Result<ImportStream, TraceError> {
    let mut f = File::open(path)?;
    let mut prefix = vec![0u8; SNIFF_LEN];
    let mut n = 0;
    // File reads may return short counts; fill the sniff window.
    loop {
        let got = f.read(&mut prefix[n..])?;
        if got == 0 {
            break;
        }
        n += got;
        if n == SNIFF_LEN {
            break;
        }
    }
    prefix.truncate(n);
    let format = autodetect(&prefix).ok_or_else(|| TraceError::UnknownFormat {
        prefix: prefix[..n.min(8)].to_vec(),
    })?;
    open_as(format, path)
}

/// Opens `path`, whose content is in `format`, as a bounded-memory streaming
/// source labelled by the file's stem.
fn open_as(format: TraceFormat, path: &Path) -> Result<ImportStream, TraceError> {
    let file = File::open(path)?;
    let label = path
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| "<import>".to_string());
    let reader = BufReader::with_capacity(READ_BUF_LEN, file);
    ImportStream::open(format, Box::new(reader), label)
}

/// Reads a whole trace file into memory, autodetecting its format.
///
/// The strict counterpart of [`open_path`]: any decode error anywhere in the
/// file is returned instead of truncating the stream.
///
/// # Errors
///
/// Everything [`open_path`] reports, plus any mid-stream decode error.
pub fn import_trace(path: &Path) -> Result<Trace, TraceError> {
    let mut stream = open_path(path)?;
    let mut events = Vec::new();
    while stream.fill_events(&mut events, CHUNK_EVENTS) > 0 {}
    if let Some(e) = stream.take_error() {
        return Err(e);
    }
    let meta = TraceMeta {
        total_instructions: stream.instructions_emitted(),
        name: stream.label().to_string(),
    };
    Ok(Trace::from_parts(meta, events))
}

enum StreamKind {
    Binary {
        decoder: EventDecoder,
        expected: u64,
    },
    Text,
    Perf,
}

/// A bounded-memory streaming [`BranchSource`] over an imported trace file.
///
/// Never materializes the file. [`next_event`](BranchSource::next_event)
/// decodes one record through the reference decoders: `EventDecoder::next`
/// for binary, and a line read into a `String` for `parse_text_line` or
/// [`parse_perf_line`]. [`fill_events`](BranchSource::fill_events) decodes
/// whole records straight out of the reader's buffer, and hands every record
/// its byte-level parser does not accept to the same reference decoders: a
/// record cut by the buffer end, a directive, a comment, an unusual spelling
/// or an error. Both produce the same events, label and errors.
///
/// Because `BranchSource` has no error channel, a decode failure ends the
/// stream; the failure is retained and exposed via
/// [`error`](ImportStream::error) so admission tooling (`sdbp ingest`, the
/// SDBP07x lints) can distinguish clean EOF from truncation.
pub struct ImportStream {
    reader: Box<dyn BufRead + Send>,
    kind: StreamKind,
    label: String,
    /// Declared instruction total from a binary header, if any.
    declared_instructions: Option<u64>,
    lineno: usize,
    pending: Option<BranchEvent>,
    error: Option<TraceError>,
    emitted: u64,
    instructions: u64,
    line_buf: String,
}

impl fmt::Debug for ImportStream {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ImportStream")
            .field("format", &self.format().name())
            .field("label", &self.label)
            .field("emitted", &self.emitted)
            .field("error", &self.error)
            .finish_non_exhaustive()
    }
}

impl ImportStream {
    /// Opens a stream of `format` over `reader`, with `label` as the
    /// fallback report label (a text `!name` directive overrides it).
    ///
    /// # Errors
    ///
    /// For the binary format, header validation errors; text formats never
    /// fail at open (their errors surface on the first pull).
    pub fn open(
        format: TraceFormat,
        mut reader: Box<dyn BufRead + Send>,
        label: String,
    ) -> Result<ImportStream, TraceError> {
        let mut stream = match format {
            TraceFormat::SdbtBinary => {
                let header = read_header(&mut reader)?;
                let label = if header.name.is_empty() {
                    label
                } else {
                    header.name.clone()
                };
                ImportStream {
                    reader,
                    kind: StreamKind::Binary {
                        decoder: EventDecoder::default(),
                        expected: header.events,
                    },
                    label,
                    declared_instructions: Some(header.total_instructions),
                    lineno: 0,
                    pending: None,
                    error: None,
                    emitted: 0,
                    instructions: 0,
                    line_buf: String::new(),
                }
            }
            TraceFormat::SdbpText | TraceFormat::PerfText => ImportStream {
                reader,
                kind: if format == TraceFormat::SdbpText {
                    StreamKind::Text
                } else {
                    StreamKind::Perf
                },
                label,
                declared_instructions: None,
                lineno: 0,
                pending: None,
                error: None,
                emitted: 0,
                instructions: 0,
                line_buf: String::new(),
            },
        };
        // Resolve a leading `!name` directive before the first pull so the
        // label is right from the start; the first event (if reached) is
        // parked in `pending`.
        if matches!(stream.kind, StreamKind::Text) {
            let first = stream.pull();
            stream.pending = first;
        }
        Ok(stream)
    }

    /// Replaces the stream's report label (builder-style), overriding both
    /// the fallback label and any embedded trace name.
    #[must_use]
    pub fn with_label(mut self, label: impl Into<String>) -> Self {
        self.label = label.into();
        self
    }

    /// The stream's format.
    pub fn format(&self) -> TraceFormat {
        match self.kind {
            StreamKind::Binary { .. } => TraceFormat::SdbtBinary,
            StreamKind::Text => TraceFormat::SdbpText,
            StreamKind::Perf => TraceFormat::PerfText,
        }
    }

    /// The decode error that ended the stream, if any.
    pub fn error(&self) -> Option<&TraceError> {
        self.error.as_ref()
    }

    /// Takes ownership of the decode error that ended the stream, if any.
    pub fn take_error(&mut self) -> Option<TraceError> {
        self.error.take()
    }

    /// Events emitted so far.
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// Instructions accounted to the events emitted so far.
    pub fn instructions_emitted(&self) -> u64 {
        self.instructions
    }

    /// The instruction total declared by a binary header, when present.
    pub fn declared_instructions(&self) -> Option<u64> {
        self.declared_instructions
    }

    /// Pulls the next event from the underlying decoder, recording errors.
    fn pull(&mut self) -> Option<BranchEvent> {
        if self.error.is_some() {
            return None;
        }
        match &mut self.kind {
            StreamKind::Binary { decoder, expected } => {
                if decoder.decoded() >= *expected {
                    return None;
                }
                match decoder.next(&mut self.reader, *expected) {
                    Ok(e) => Some(e),
                    Err(e) => {
                        self.error = Some(e);
                        None
                    }
                }
            }
            StreamKind::Text | StreamKind::Perf => {
                let perf = matches!(self.kind, StreamKind::Perf);
                loop {
                    self.line_buf.clear();
                    match self.reader.read_line(&mut self.line_buf) {
                        Ok(0) => return None,
                        Ok(_) => {}
                        Err(e) => {
                            self.error = Some(TraceError::Io(e));
                            return None;
                        }
                    }
                    self.lineno += 1;
                    let parsed = if perf {
                        parse_perf_line(&self.line_buf, self.lineno).map(|o| match o {
                            Some(e) => ParsedLine::Event(e),
                            None => ParsedLine::Nothing,
                        })
                    } else {
                        parse_text_line(&self.line_buf, self.lineno)
                    };
                    match parsed {
                        Ok(ParsedLine::Event(e)) => return Some(e),
                        Ok(ParsedLine::Name(n)) => {
                            self.label = n;
                        }
                        Ok(ParsedLine::Nothing) => {}
                        Err(e) => {
                            self.error = Some(e);
                            return None;
                        }
                    }
                }
            }
        }
    }
}

impl BranchSource for ImportStream {
    fn next_event(&mut self) -> Option<BranchEvent> {
        let e = match self.pending.take() {
            Some(e) => e,
            None => self.pull()?,
        };
        self.emitted += 1;
        self.instructions += e.instructions();
        Some(e)
    }

    fn fill_events(&mut self, buf: &mut Vec<BranchEvent>, max: usize) -> usize {
        let start = buf.len();
        if max > 0 {
            buf.extend(self.pending.take());
        }
        while buf.len() - start < max && self.error.is_none() {
            let before = buf.len();
            let want = max - (before - start);
            // A read error here is left for the reference decoder to meet.
            if let Ok(bytes) = self.reader.fill_buf() {
                let used = match &mut self.kind {
                    StreamKind::Binary { decoder, expected } => {
                        match decoder.decode_slice(bytes, *expected, buf, want) {
                            Ok(used) => used,
                            Err(e) => {
                                self.error = Some(e);
                                0
                            }
                        }
                    }
                    StreamKind::Text => decode_lines(bytes, false, buf, want, &mut self.lineno),
                    StreamKind::Perf => decode_lines(bytes, true, buf, want, &mut self.lineno),
                };
                self.reader.consume(used);
            }
            if buf.len() == before {
                match self.pull() {
                    Some(e) => buf.push(e),
                    None => break,
                }
            }
        }
        let filled = &buf[start..];
        self.emitted += filled.len() as u64;
        self.instructions += filled.iter().map(BranchEvent::instructions).sum::<u64>();
        filled.len()
    }

    fn label(&self) -> &str {
        &self.label
    }
}

/// Decodes the whole lines at the front of `bytes` that the byte-level
/// parser accepts into `out`, at most `max` of them, and returns how many
/// bytes they took. Stops at the first line cut by the end of `bytes` or
/// declined by the parser, for the reference parser to take.
fn decode_lines(
    bytes: &[u8],
    perf: bool,
    out: &mut Vec<BranchEvent>,
    max: usize,
    lineno: &mut usize,
) -> usize {
    let mut used = 0;
    for _ in 0..max {
        let rest = &bytes[used..];
        let Some(len) = find_newline(rest) else {
            break;
        };
        let line = &rest[..len];
        let record = if perf { perf_record(line) } else { Some(line) };
        let Some(e) = record.and_then(parse_record_bytes) else {
            break;
        };
        out.push(e);
        *lineno += 1;
        used += len + 1;
    }
    used
}

/// The index of the first `\n` in `bytes`, found eight bytes per step.
fn find_newline(bytes: &[u8]) -> Option<usize> {
    const ONES: u64 = u64::from_le_bytes([1; 8]);
    const NEWLINES: u64 = u64::from_le_bytes([b'\n'; 8]);
    let mut words = bytes.chunks_exact(8);
    let mut at = 0;
    for word in &mut words {
        let x = u64::from_le_bytes(word.try_into().expect("8-byte chunk")) ^ NEWLINES;
        // High bit set in each zero byte of `x`, exact up to the first one.
        let zeros = x.wrapping_sub(ONES) & !x & (ONES << 7);
        if zeros != 0 {
            return Some(at + zeros.trailing_zeros() as usize / 8);
        }
        at += 8;
    }
    let tail = words.remainder().iter().position(|&b| b == b'\n');
    tail.map(|i| at + i)
}

/// The record of a perf line for the byte-level parser: the bytes after the
/// last token ending in `:`, found by scanning back from the line end, or
/// the whole line when no token ends in `:`.
///
/// `None` leaves the line to [`parse_perf_line`]: blank and comment lines,
/// non-ASCII bytes (which may be whitespace or invalid UTF-8), and a last
/// `:` that does not end a token.
fn perf_record(line: &[u8]) -> Option<&[u8]> {
    let first = *line.iter().find(|&&b| !is_blank(b))?;
    if first == b'#' || !first.is_ascii_graphic() || !line.is_ascii() {
        return None;
    }
    match line.iter().rposition(|&b| b == b':') {
        Some(colon) => {
            let record = &line[colon + 1..];
            record
                .first()
                .is_some_and(|&b| is_blank(b))
                .then_some(record)
        }
        None => Some(line),
    }
}

/// Parses one `perf script` branch-record line.
///
/// Grammar: optional prefix tokens (comm, pid/tid, cpu, timestamp, event
/// name) of which the last ends with `:`, then `pc direction [gap]`.
/// Direction tokens accept `T|t|1|taken` and `N|n|0|not-taken`. Lines with
/// no `:`-terminated prefix are parsed as bare records, so post-processed
/// captures work too. Returns `Ok(None)` for blank and `#`-comment lines.
///
/// # Errors
///
/// [`TraceError::BadRecord`] with the failing line number and a typed
/// [`crate::RecordError`].
pub fn parse_perf_line(line: &str, lineno: usize) -> Result<Option<BranchEvent>, TraceError> {
    let line = line.trim();
    if line.is_empty() || line.starts_with('#') {
        return Ok(None);
    }
    let tokens: Vec<&str> = line.split_whitespace().collect();
    let start = tokens
        .iter()
        .rposition(|t| t.ends_with(':'))
        .map(|i| i + 1)
        .unwrap_or(0);
    parse_record_fields(tokens[start..].iter().copied(), lineno).map(Some)
}

/// Writes `trace` as `perf script`-style branch-record text.
///
/// The synthetic prefix carries the trace name as the comm field and a fake
/// monotonically increasing timestamp derived from the retired-instruction
/// total, so the output autodetects as [`TraceFormat::PerfText`] and
/// round-trips through [`open_path`] event-for-event (perf text has no name
/// channel, so the name itself does not survive).
///
/// # Errors
///
/// Propagates I/O failures from `w`.
pub fn write_perf_text<W: Write>(w: &mut W, trace: &Trace) -> Result<(), TraceError> {
    let name = &trace.meta().name;
    let comm: String = if name.is_empty() {
        "sdbp".to_string()
    } else {
        name.split_whitespace().collect::<Vec<_>>().join("_")
    };
    writeln!(w, "# synthetic perf script branch records: {comm}")?;
    let mut cycles = 0u64;
    for e in trace.iter() {
        cycles += e.instructions();
        writeln!(
            w,
            "{comm} 0 [000] {}.{:06}: branches: {:x} {} {}",
            cycles / 1_000_000,
            cycles % 1_000_000,
            e.pc.0,
            if e.taken { 'T' } else { 'N' },
            e.gap
        )?;
    }
    Ok(())
}

/// Aggregate statistics from one full streaming pass over a trace file,
/// produced by [`scan_path`] — the substrate for `sdbp ingest` and the
/// SDBP07x admission lints.
#[derive(Debug, Clone)]
pub struct TraceScan {
    /// The detected format.
    pub format: TraceFormat,
    /// The stream label (embedded name, or the file stem).
    pub name: String,
    /// Events successfully decoded.
    pub events: u64,
    /// Instructions accounted to the decoded events.
    pub total_instructions: u64,
    /// Decoded events with a taken outcome.
    pub taken: u64,
    /// Distinct branch pcs seen.
    pub distinct_sites: u64,
    /// FNV-1a content digest over the decoded event stream.
    pub digest: u64,
    /// The decode error that cut the scan short, rendered, if any.
    pub error: Option<String>,
}

impl TraceScan {
    /// Conditional branches per thousand instructions.
    pub fn cbrs_per_ki(&self) -> f64 {
        if self.total_instructions == 0 {
            0.0
        } else {
            self.events as f64 * 1000.0 / self.total_instructions as f64
        }
    }

    /// Fraction of decoded events that were taken.
    pub fn taken_rate(&self) -> f64 {
        if self.events == 0 {
            0.0
        } else {
            self.taken as f64 / self.events as f64
        }
    }
}

/// Streams the whole file once, collecting [`TraceScan`] statistics.
///
/// Decode errors mid-file do not fail the scan — they are recorded on
/// [`TraceScan::error`] with the statistics of the valid prefix, which is
/// exactly what admission lints need to report.
///
/// # Errors
///
/// Only open-time failures: I/O, unknown format, or a bad binary header.
pub fn scan_path(path: &Path) -> Result<TraceScan, TraceError> {
    let mut stream = open_path(path)?;
    let format = stream.format();
    let mut taken = 0u64;
    let mut sites = PcSet::default();
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    let mut fold = |bytes: &[u8]| {
        for &b in bytes {
            digest ^= u64::from(b);
            digest = digest.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    let mut chunk = Vec::with_capacity(CHUNK_EVENTS);
    while stream.fill_events(&mut chunk, CHUNK_EVENTS) > 0 {
        for e in &chunk {
            taken += u64::from(e.taken);
            sites.insert(e.pc);
            fold(&e.pc.0.to_le_bytes());
            fold(&[u8::from(e.taken)]);
            fold(&e.gap.to_le_bytes());
        }
        chunk.clear();
    }
    Ok(TraceScan {
        format,
        name: stream.label().to_string(),
        events: stream.emitted(),
        total_instructions: stream.instructions_emitted(),
        taken,
        distinct_sites: sites.len() as u64,
        digest,
        error: stream.error().map(|e| e.to_string()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{write_binary, write_text};
    use crate::event::BranchAddr;
    use crate::source::BranchSource;
    use crate::trace::TraceBuilder;
    use std::io::Cursor;

    fn sample_trace() -> Trace {
        let mut b = TraceBuilder::named("go.train");
        b.push(BranchEvent::new(BranchAddr(0x12000), true, 6));
        b.push(BranchEvent::new(BranchAddr(0x12010), false, 2));
        b.push(BranchEvent::new(BranchAddr(0x11ff0), true, 0));
        b.finish()
    }

    fn stream_of(format: TraceFormat, bytes: Vec<u8>) -> ImportStream {
        ImportStream::open(format, Box::new(Cursor::new(bytes)), "fallback".into()).unwrap()
    }

    fn drain(stream: &mut ImportStream) -> Vec<BranchEvent> {
        std::iter::from_fn(|| stream.next_event()).collect()
    }

    #[test]
    fn binary_stream_matches_materializing_reader() {
        let trace = sample_trace();
        let mut buf = Vec::new();
        write_binary(&mut buf, &trace).unwrap();
        let mut s = stream_of(TraceFormat::SdbtBinary, buf);
        assert_eq!(s.label(), "go.train", "header name wins over fallback");
        assert_eq!(
            s.declared_instructions(),
            Some(trace.meta().total_instructions)
        );
        assert_eq!(drain(&mut s), trace.events());
        assert!(s.error().is_none());
        assert_eq!(s.emitted(), 3);
    }

    #[test]
    fn text_stream_resolves_name_before_first_pull() {
        let text = "# c\n!name perl.ref\nabc T 3\nac0 N 0\n";
        let s = stream_of(TraceFormat::SdbpText, text.into());
        assert_eq!(s.label(), "perl.ref");
        let mut s = s;
        let events = drain(&mut s);
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].pc, BranchAddr(0xabc));
    }

    #[test]
    fn perf_lines_parse_with_and_without_prefixes() {
        let e = parse_perf_line("nginx 4242 [003] 17.654321: branches: 401234 T 5", 1)
            .unwrap()
            .unwrap();
        assert_eq!(e.pc, BranchAddr(0x401234));
        assert!(e.taken);
        assert_eq!(e.gap, 5);
        let e = parse_perf_line("401238 not-taken", 2).unwrap().unwrap();
        assert!(!e.taken);
        assert_eq!(e.gap, 0);
        assert!(parse_perf_line("# comment", 3).unwrap().is_none());
        assert!(parse_perf_line("", 4).unwrap().is_none());
        assert!(matches!(
            parse_perf_line("nginx 4242 17.0: branches: zz T", 5),
            Err(TraceError::BadRecord { line: 5, .. })
        ));
    }

    #[test]
    fn perf_roundtrip_preserves_events() {
        let trace = sample_trace();
        let mut buf = Vec::new();
        write_perf_text(&mut buf, &trace).unwrap();
        let mut s = stream_of(TraceFormat::PerfText, buf);
        assert_eq!(drain(&mut s), trace.events());
        assert!(s.error().is_none());
    }

    #[test]
    fn autodetect_recognizes_all_three_formats() {
        let trace = sample_trace();
        let mut binary = Vec::new();
        write_binary(&mut binary, &trace).unwrap();
        assert_eq!(autodetect(&binary), Some(TraceFormat::SdbtBinary));
        let mut text = Vec::new();
        write_text(&mut text, &trace).unwrap();
        assert_eq!(autodetect(&text), Some(TraceFormat::SdbpText));
        let mut perf = Vec::new();
        write_perf_text(&mut perf, &trace).unwrap();
        assert_eq!(autodetect(&perf), Some(TraceFormat::PerfText));
        assert_eq!(autodetect(b"\x7fELF garbage"), None);
        assert_eq!(autodetect(b""), None);
    }

    #[test]
    fn truncated_binary_ends_stream_with_typed_error() {
        let trace = sample_trace();
        let mut buf = Vec::new();
        write_binary(&mut buf, &trace).unwrap();
        buf.truncate(buf.len() - 3);
        let mut s = stream_of(TraceFormat::SdbtBinary, buf);
        let events = drain(&mut s);
        assert!(events.len() < 3, "stream stops at the cut");
        assert!(matches!(
            s.error(),
            Some(TraceError::TruncatedEvents { expected: 3, .. })
        ));
        // The valid prefix matches the original stream.
        assert_eq!(events[..], trace.events()[..events.len()]);
    }

    #[test]
    fn corrupt_text_line_ends_stream_after_valid_prefix() {
        let text = "10 T 1\n14 N 2\nZZZ T 1\n18 T 0\n";
        let mut s = stream_of(TraceFormat::SdbpText, text.into());
        let events = drain(&mut s);
        assert_eq!(events.len(), 2);
        assert!(matches!(
            s.take_error(),
            Some(TraceError::BadRecord { line: 3, .. })
        ));
    }

    #[test]
    fn open_path_autodetects_and_import_trace_is_strict() {
        let dir = std::env::temp_dir().join("sdbp-import-test");
        std::fs::create_dir_all(&dir).unwrap();
        let trace = sample_trace();

        let bin_path = dir.join("roundtrip.sdbt");
        let mut buf = Vec::new();
        write_binary(&mut buf, &trace).unwrap();
        std::fs::write(&bin_path, &buf).unwrap();
        let mut s = open_path(&bin_path).unwrap();
        assert_eq!(s.format(), TraceFormat::SdbtBinary);
        assert_eq!(drain(&mut s), trace.events());
        let back = import_trace(&bin_path).unwrap();
        assert_eq!(back.events(), trace.events());
        assert_eq!(back.meta().name, "go.train");

        // A truncated file streams a prefix via open_path but fails
        // import_trace outright.
        let cut_path = dir.join("truncated.sdbt");
        std::fs::write(&cut_path, &buf[..buf.len() - 2]).unwrap();
        assert!(matches!(
            import_trace(&cut_path),
            Err(TraceError::TruncatedEvents { .. })
        ));

        let junk_path = dir.join("junk.bin");
        std::fs::write(&junk_path, b"\x00\x01\x02\x03 nothing here").unwrap();
        assert!(matches!(
            open_path(&junk_path),
            Err(TraceError::UnknownFormat { .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn scan_reports_stats_and_survives_corruption() {
        let dir = std::env::temp_dir().join("sdbp-scan-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("scan.txt");
        std::fs::write(&path, "!name scanme\n10 T 4\n10 N 0\n20 T 1\n").unwrap();
        let scan = scan_path(&path).unwrap();
        assert_eq!(scan.format, TraceFormat::SdbpText);
        assert_eq!(scan.name, "scanme");
        assert_eq!(scan.events, 3);
        assert_eq!(scan.total_instructions, 5 + 1 + 2);
        assert_eq!(scan.taken, 2);
        assert_eq!(scan.distinct_sites, 2);
        assert!(scan.error.is_none());
        let clean_digest = scan.digest;

        std::fs::write(&path, "!name scanme\n10 T 4\n10 N 0\n20 T 1\nbroken!\n").unwrap();
        let scan = scan_path(&path).unwrap();
        assert_eq!(scan.events, 3, "valid prefix still counted");
        assert_eq!(scan.digest, clean_digest, "digest covers the same prefix");
        assert!(scan.error.unwrap().contains("line 5"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn find_newline_agrees_with_a_byte_scan() {
        // Neighbours of `\n` in value and in the high bit, and two newlines
        // within one word, at every alignment and length.
        let text = b"ab\ncd\x0b\x8a\x09\x8b\n\nefghijklmnop\x0a\x0a\x8aq\n";
        for start in 0..text.len() {
            for end in start..=text.len() {
                let s = &text[start..end];
                assert_eq!(find_newline(s), s.iter().position(|&b| b == b'\n'));
            }
        }
    }

    /// `trace` exported in every format.
    pub(super) fn export_all(trace: &Trace) -> [(TraceFormat, Vec<u8>); 3] {
        TraceFormat::ALL.map(|format| {
            let mut buf = Vec::new();
            match format {
                TraceFormat::SdbtBinary => write_binary(&mut buf, trace),
                TraceFormat::SdbpText => write_text(&mut buf, trace),
                TraceFormat::PerfText => write_perf_text(&mut buf, trace),
            }
            .unwrap();
            (format, buf)
        })
    }

    #[test]
    fn scan_values_are_pinned_in_every_format() {
        // The digest keys imported profiles in the disk store, so no decode
        // path may change it, in any format.
        const DIGEST: u64 = 0xbe32_baf2_f2c4_90f9;
        let dir = std::env::temp_dir().join(format!("sdbp-scan-pin-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for (format, bytes) in export_all(&sample_trace()) {
            let path = dir.join(format.name());
            std::fs::write(&path, bytes).unwrap();
            let scan = scan_path(&path).unwrap();
            assert_eq!(scan.format, format);
            assert_eq!(
                (
                    scan.events,
                    scan.total_instructions,
                    scan.taken,
                    scan.distinct_sites,
                    scan.digest
                ),
                (3, 11, 2, 3, DIGEST),
                "{format}"
            );
            assert!(scan.error.is_none(), "{format}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn format_names_roundtrip_through_fromstr() {
        for f in TraceFormat::ALL {
            assert_eq!(f.name().parse::<TraceFormat>().unwrap(), f);
        }
        assert!("bt9".parse::<TraceFormat>().is_err());
    }
}

#[cfg(test)]
mod proptests {
    use super::tests::export_all;
    use super::*;
    use crate::codec::write_binary;
    use crate::event::BranchAddr;
    use crate::source::BranchSource;
    use crate::trace::TraceBuilder;
    use proptest::prelude::*;
    use std::io::Cursor;

    fn arb_trace() -> impl Strategy<Value = Trace> {
        (
            proptest::collection::vec(
                (any::<u64>(), any::<bool>(), 0u32..100_000)
                    .prop_map(|(pc, taken, gap)| BranchEvent::new(BranchAddr(pc), taken, gap)),
                0..200,
            ),
            "[a-z.0-9]{0,16}",
        )
            .prop_map(|(events, name)| {
                let mut b = TraceBuilder::named(name);
                b.extend(events);
                b.finish()
            })
    }

    fn drain_stream(format: TraceFormat, bytes: Vec<u8>) -> (Vec<BranchEvent>, Option<String>) {
        let mut s = ImportStream::open(format, Box::new(Cursor::new(bytes)), "x".into()).unwrap();
        let events = std::iter::from_fn(|| s.next_event()).collect();
        (events, s.error().map(|e| e.to_string()))
    }

    proptest! {
        // The tentpole invariant: export -> import produces a bit-identical
        // BranchSource stream, for both importers.
        #[test]
        fn binary_import_roundtrip(trace in arb_trace()) {
            let mut buf = Vec::new();
            write_binary(&mut buf, &trace).unwrap();
            let (events, error) = drain_stream(TraceFormat::SdbtBinary, buf);
            prop_assert!(error.is_none(), "unexpected error: {error:?}");
            prop_assert_eq!(events, trace.events());
        }

        #[test]
        fn perf_import_roundtrip(trace in arb_trace()) {
            let mut buf = Vec::new();
            write_perf_text(&mut buf, &trace).unwrap();
            let (events, error) = drain_stream(TraceFormat::PerfText, buf);
            prop_assert!(error.is_none(), "unexpected error: {error:?}");
            prop_assert_eq!(events, trace.events());
        }

        // Mirrors the SDBA codec corruption tests: any truncation of a
        // binary payload yields a clean prefix of the original stream plus
        // a recorded error (or a shorter valid stream, never garbage).
        #[test]
        fn binary_truncation_never_fabricates_events(
            trace in arb_trace(),
            cut_back in 1usize..32,
        ) {
            let mut buf = Vec::new();
            write_binary(&mut buf, &trace).unwrap();
            let cut = buf.len().saturating_sub(cut_back).max(1);
            // A cut inside the header fails at open — also a clean outcome.
            let opened = ImportStream::open(
                TraceFormat::SdbtBinary,
                Box::new(Cursor::new(buf[..cut].to_vec())),
                "x".into(),
            );
            if let Ok(mut s) = opened {
                let events: Vec<_> = std::iter::from_fn(|| s.next_event()).collect();
                prop_assert!(events.len() <= trace.len());
                prop_assert_eq!(&events[..], &trace.events()[..events.len()]);
            }
        }

        // The chunked decoder against the reference decoder: in every
        // format, with any read-buffer capacity (so records straddle
        // refills), any chunk sizes and any truncation, `fill_events`
        // yields what `next_event` yields, and a whole export round-trips.
        #[test]
        fn chunked_import_matches_next_event(
            trace in arb_trace(),
            format in 0usize..3,
            capacity in 1usize..65,
            chunks in proptest::collection::vec(1usize..40, 1..5),
            cut in any::<u64>(),
        ) {
            let (format, mut bytes) = export_all(&trace)[format].clone();
            let whole = cut.is_multiple_of(4);
            match cut % 4 {
                0 => {}
                // Bytes past the header's event count, or a bad last line.
                1 => bytes.extend_from_slice(b"\x01\x02 junk\n"),
                _ => bytes.truncate((cut % (bytes.len() as u64 + 1)) as usize),
            }
            let chunked = drain_with(format, &bytes, capacity, Some(&chunks[..]));
            prop_assert_eq!(&chunked, &drain_with(format, &bytes, capacity, None));
            if whole {
                let drained = chunked.unwrap();
                prop_assert_eq!(drained.error, None);
                prop_assert_eq!(drained.events, trace.events());
            }
        }
    }

    const FALLBACK: &str = "<fallback>";

    /// Everything a drain of a stream observes.
    #[derive(Debug, PartialEq)]
    struct Drained {
        events: Vec<BranchEvent>,
        label: String,
        error: Option<String>,
        emitted: u64,
        instructions: u64,
    }

    /// Drains `bytes` read through a buffer of `capacity` bytes: through
    /// `fill_events` with the `chunks` sizes in turn, or through
    /// `next_event` when `chunks` is `None`.
    fn drain_with(
        format: TraceFormat,
        bytes: &[u8],
        capacity: usize,
        chunks: Option<&[usize]>,
    ) -> Result<Drained, String> {
        let reader = BufReader::with_capacity(capacity, Cursor::new(bytes.to_vec()));
        let mut s = ImportStream::open(format, Box::new(reader), FALLBACK.into())
            .map_err(|e| e.to_string())?;
        let mut events = Vec::new();
        match chunks {
            None => events.extend(std::iter::from_fn(|| s.next_event())),
            Some(chunks) => {
                assert_eq!(s.fill_events(&mut events, 0), 0);
                for &max in chunks.iter().cycle() {
                    let n = s.fill_events(&mut events, max);
                    assert!(n <= max);
                    if n == 0 {
                        break;
                    }
                }
            }
        }
        Ok(Drained {
            events,
            label: s.label().to_string(),
            error: s.error().map(|e| e.to_string()),
            emitted: s.emitted(),
            instructions: s.instructions_emitted(),
        })
    }

    /// What one line contributes to a stream.
    #[derive(Debug, PartialEq)]
    enum LineOutcome {
        Event(BranchEvent),
        Name(String),
        Nothing,
        Error(String),
    }

    /// Lines assembled from prefix, pc, separator, direction and tail
    /// pieces. Half the draws take the first, well-formed piece; the others
    /// spell each field every way the byte-level parser must decline or
    /// reject: non-ASCII bytes (Unicode whitespace among them), `\x0B`,
    /// tabs, `\r`, `0x`, direction words, 17+ hex digits, gaps of 10+
    /// digits, stray colons, comments and directives.
    fn arb_line() -> impl Strategy<Value = Vec<u8>> {
        const PREFIX: [&[u8]; 16] = [
            b"",
            b"nginx 4242 [003] 17.654321: branches: ",
            b"cpu:\t",
            b"a:b ",
            b"x :",
            b":",
            b" \t",
            b"\x0b",
            b"#",
            b"# cycles: ",
            b"!name ",
            b"\xc2\xa0",
            b"\xc2\xa0# ",
            b"\xc3\xa9: ",
            b"c\xff: ",
            b"\xe2\x80\x83",
        ];
        const PC: [&[u8]; 13] = [
            b"12a3",
            b"0",
            b"FFFFffffFFFFffff",
            b"00000000000000001",
            b"10000000000000000",
            b"0x10",
            b"0x0x10",
            b"0x",
            b"+1f",
            b"g1",
            b"",
            b"\xc3\xa9",
            b"1:",
        ];
        const SEP: [&[u8]; 12] = [
            b" ",
            b"\t",
            b" \r ",
            b"\r",
            b"\x0b",
            b"\x0c",
            b"\xc2\xa0",
            b"\xc2\x85",
            b"\xe2\x80\x83",
            b"",
            b":",
            b": ",
        ];
        const DIR: [&[u8]; 12] = [
            b"T",
            b"N",
            b"t",
            b"n",
            b"1",
            b"0",
            b"taken",
            b"not-taken",
            b"X",
            b"",
            b"TT",
            b"10",
        ];
        const TAIL: [&[u8]; 19] = [
            b" 5",
            b"",
            b"\t999999999",
            b" 4294967295",
            b" 4294967296",
            b" 0000000005",
            b" 12345678901",
            b" +5",
            b" 5 6",
            b" 5\r",
            b" \r",
            b" ",
            b" \xc3\xa9",
            b"\x0b5",
            b" 5:",
            b": 7 T 1",
            b"\xc2\xa0",
            b" 5\x0c",
            b"\t\t7\t",
        ];
        fn pick<'a>(pieces: &[&'a [u8]], i: usize) -> &'a [u8] {
            pieces.get(i).copied().unwrap_or(pieces[0])
        }
        (
            0..2 * PREFIX.len(),
            0..2 * PC.len(),
            0..2 * SEP.len(),
            0..2 * DIR.len(),
            0..2 * TAIL.len(),
        )
            .prop_map(|(p, c, s, d, t)| {
                [
                    pick(&PREFIX, p),
                    pick(&PC, c),
                    pick(&SEP, s),
                    pick(&DIR, d),
                    pick(&TAIL, t),
                ]
                .concat()
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        // The byte-level parser against the reference grammar, one line at
        // a time after a well-formed first line: the chunked decoder agrees
        // with `next_event`, and with `parse_text_line`/`parse_perf_line` on
        // the event, the name, or the error and its line number.
        #[test]
        fn chunked_lines_match_the_reference_parsers(
            line in arb_line(),
            capacity in 1usize..129,
        ) {
            let bytes = [&b"1 T\n"[..], &line, b"\n"].concat();
            for format in [TraceFormat::SdbpText, TraceFormat::PerfText] {
                let drained = drain_with(format, &bytes, capacity, Some(&[CHUNK_EVENTS][..])).unwrap();
                prop_assert_eq!(&drained, &drain_with(format, &bytes, capacity, None).unwrap());
                let got = match (&drained.error, drained.events.get(1)) {
                    (Some(e), _) => LineOutcome::Error(e.clone()),
                    (None, Some(&e)) => LineOutcome::Event(e),
                    (None, None) if drained.label != FALLBACK => {
                        LineOutcome::Name(drained.label.clone())
                    }
                    (None, None) => LineOutcome::Nothing,
                };
                let Ok(text) = std::str::from_utf8(&line) else {
                    // Not UTF-8: `read_line` fails, on either path.
                    prop_assert!(matches!(got, LineOutcome::Error(_)), "{got:?}");
                    continue;
                };
                let expected = match format {
                    TraceFormat::PerfText => match parse_perf_line(text, 2) {
                        Ok(Some(e)) => LineOutcome::Event(e),
                        Ok(None) => LineOutcome::Nothing,
                        Err(e) => LineOutcome::Error(e.to_string()),
                    },
                    _ => match parse_text_line(text, 2) {
                        Ok(ParsedLine::Event(e)) => LineOutcome::Event(e),
                        Ok(ParsedLine::Name(n)) => LineOutcome::Name(n),
                        Ok(ParsedLine::Nothing) => LineOutcome::Nothing,
                        Err(e) => LineOutcome::Error(e.to_string()),
                    },
                };
                prop_assert_eq!(got, expected, "line {:?} as {}", text, format);
            }
        }
    }
}
