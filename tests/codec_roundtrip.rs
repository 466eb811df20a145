//! Cross-crate codec tests: real workload traces through both codecs and
//! back through the streaming importer, including on-disk files.

use sdbp::prelude::*;
use sdbp::trace::{import_trace, write_binary, write_text, ImportStream, TraceError, TraceFormat};
use std::fs;
use std::io::Cursor;

/// Decodes an in-memory trace through the streaming importer, failing with
/// the decode error that ended the stream, if any.
fn decode(format: TraceFormat, bytes: &[u8]) -> Result<Trace, TraceError> {
    let reader = Box::new(Cursor::new(bytes.to_vec()));
    let mut stream = ImportStream::open(format, reader, String::new())?;
    let trace = (&mut stream).collect_trace();
    stream.take_error().map_or(Ok(trace), Err)
}

fn workload_trace(instructions: u64) -> Trace {
    Workload::spec95(Benchmark::Perl)
        .generator(InputSet::Train, 99)
        .take_instructions(instructions)
        .collect_trace()
}

#[test]
fn binary_roundtrips_a_real_workload_trace() {
    let trace = workload_trace(200_000);
    let mut buf = Vec::new();
    write_binary(&mut buf, &trace).expect("in-memory write");
    let back = decode(TraceFormat::SdbtBinary, &buf).expect("own output parses");
    assert_eq!(back, trace);
    // Delta+varint coding should be compact on real streams.
    assert!(
        buf.len() < trace.len() * 4,
        "{} bytes for {} events",
        buf.len(),
        trace.len()
    );
}

#[test]
fn text_roundtrips_a_real_workload_trace() {
    let trace = workload_trace(100_000);
    let mut buf = Vec::new();
    write_text(&mut buf, &trace).expect("in-memory write");
    let back = decode(TraceFormat::SdbpText, &buf).expect("own output parses");
    assert_eq!(back.events(), trace.events());
    assert_eq!(back.meta().name, trace.meta().name);
}

#[test]
fn formats_agree_with_each_other() {
    let trace = workload_trace(50_000);
    let mut bin = Vec::new();
    write_binary(&mut bin, &trace).expect("write");
    let mut text = Vec::new();
    write_text(&mut text, &trace).expect("write");
    let from_bin = decode(TraceFormat::SdbtBinary, &bin).expect("read");
    let from_text = decode(TraceFormat::SdbpText, &text).expect("read");
    assert_eq!(from_bin.events(), from_text.events());
}

#[test]
fn file_roundtrip_and_simulation_equivalence() {
    // Simulating from a file must give bit-identical results to simulating
    // the live generator.
    let dir = std::env::temp_dir().join(format!("sdbp-codec-{}", std::process::id()));
    fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("perl.sdbt");

    let trace = workload_trace(200_000);
    let mut buf = Vec::new();
    write_binary(&mut buf, &trace).expect("write");
    fs::write(&path, &buf).expect("write file");

    let loaded = import_trace(&path).expect("read file");
    let mut live = CombinedPredictor::pure_dynamic(
        PredictorConfig::new(PredictorKind::Gshare, 2048)
            .expect("valid")
            .build_any(),
    );
    let live_stats = Simulator::new().run(SliceSource::from_trace(&trace), &mut live);
    let mut from_file = CombinedPredictor::pure_dynamic(
        PredictorConfig::new(PredictorKind::Gshare, 2048)
            .expect("valid")
            .build_any(),
    );
    let file_stats = Simulator::new().run(SliceSource::from_trace(&loaded), &mut from_file);
    assert_eq!(live_stats, file_stats);

    fs::remove_dir_all(&dir).ok();
}
