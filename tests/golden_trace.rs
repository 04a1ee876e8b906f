//! Golden-fixture test pinning the on-disk `CCTR` trace format.
//!
//! `tests/fixtures/golden_v1.cctr` is a checked-in byte-exact encoding of
//! the trace constructed below. If either direction of this test fails,
//! the binary format has changed: bump the format version in
//! `crates/trace/src/io.rs` and add a *new* fixture instead of editing
//! this one, so old trace files stay readable.

use ccsim::trace::{
    read_trace, read_trace_header, write_trace, AccessKind, DecodeTraceError, Trace, TraceReader,
    TraceRecord,
};

const FIXTURE: &[u8] = include_bytes!("fixtures/golden_v1.cctr");

/// The trace the fixture encodes, spelled out record by record.
fn golden_trace() -> Trace {
    let records = vec![
        TraceRecord {
            pc: 0x400100,
            vaddr: 0x1000_0000,
            size: 8,
            kind: AccessKind::Load,
            nonmem_before: 3,
        },
        TraceRecord {
            pc: 0x400108,
            vaddr: 0x1000_0040,
            size: 4,
            kind: AccessKind::Store,
            nonmem_before: 0,
        },
        TraceRecord {
            pc: 0x40010C,
            vaddr: 0xDEAD_BEEF,
            size: 1,
            kind: AccessKind::Load,
            nonmem_before: u16::MAX,
        },
        TraceRecord {
            pc: 0xFFFF_FFFF_FFFF,
            vaddr: 0xFFF_FFFF_FFFF,
            size: 2,
            kind: AccessKind::Store,
            nonmem_before: 1,
        },
        TraceRecord { pc: 0, vaddr: 0, size: 64, kind: AccessKind::Load, nonmem_before: 0 },
    ];
    Trace::from_parts("golden", records, 7)
}

#[test]
fn fixture_decodes_to_known_trace() {
    let decoded = read_trace(FIXTURE).expect("golden fixture must stay readable");
    assert_eq!(decoded, golden_trace());
    assert_eq!(decoded.name(), "golden");
    assert_eq!(decoded.trailing_nonmem(), 7);
}

#[test]
fn encoding_is_byte_stable() {
    let mut bytes = Vec::new();
    write_trace(&golden_trace(), &mut bytes).unwrap();
    assert_eq!(
        bytes, FIXTURE,
        "write_trace no longer produces the v1 byte stream; bump the \
         format version and add a new fixture rather than changing this one"
    );
}

#[test]
fn fixture_header_is_v1() {
    assert_eq!(&FIXTURE[0..4], b"CCTR");
    assert_eq!(u32::from_le_bytes(FIXTURE[4..8].try_into().unwrap()), 1);
    // 4 magic + 4 version + 4 namelen + 6 name + 8 trailing + 8 count
    // + 5 records x 20 bytes.
    assert_eq!(FIXTURE.len(), 34 + 5 * 20);
}

#[test]
fn roundtrip_through_disk_bytes() {
    let decoded = read_trace(FIXTURE).unwrap();
    let mut reencoded = Vec::new();
    write_trace(&decoded, &mut reencoded).unwrap();
    let redecoded = read_trace(&reencoded[..]).unwrap();
    assert_eq!(redecoded, decoded);
}

/// `bytes` decoded by `read_chunk` calls of at most `max`
/// records, to the first error.
fn read_by_chunks(bytes: &[u8], max: usize) -> Result<Vec<TraceRecord>, DecodeTraceError> {
    let mut reader = TraceReader::new(bytes)?;
    let mut records = Vec::new();
    while reader.read_chunk(&mut records, max)? > 0 {}
    Ok(records)
}

/// Every cut and every one-bit flip of the fixture (134 + 1,072 inputs)
/// through each decoder: none panics, a cut never decodes, and a flip of
/// the magic, the version, the name length or the record count never
/// decodes — a record count lowered by a flip leaves bytes after the
/// last record it declares, and those are refused.
#[test]
fn every_cut_and_bit_flip_of_the_fixture_is_handled() {
    const HEADER: usize = 34;
    // Magic, version and name length, then the record count.
    let framing = |at: usize| at < 12 || (26..HEADER).contains(&at);
    let mut inputs: Vec<(Vec<u8>, Option<usize>)> =
        (0..FIXTURE.len()).map(|cut| (FIXTURE[..cut].to_vec(), None)).collect();
    for at in 0..FIXTURE.len() {
        for bit in 0..8 {
            let mut flipped = FIXTURE.to_vec();
            flipped[at] ^= 1 << bit;
            inputs.push((flipped, Some(at)));
        }
    }
    assert_eq!(inputs.len(), 1_206);
    for (bytes, flipped_at) in &inputs {
        let whole = read_trace(&bytes[..]);
        let header = read_trace_header(&bytes[..]);
        for max in [1, 3, 4096] {
            assert_eq!(
                read_by_chunks(bytes, max).ok().as_deref(),
                whole.as_ref().ok().map(|t| t.records()),
                "{flipped_at:?} len {}, chunks of {max}",
                bytes.len()
            );
        }
        match flipped_at {
            None => {
                assert!(whole.is_err(), "cut at {}", bytes.len());
                assert_eq!(header.is_err(), bytes.len() < HEADER, "cut at {}", bytes.len());
            }
            Some(at) if framing(*at) => {
                assert!(whole.is_err(), "flip at byte {at}");
                if *at < 8 {
                    assert!(header.is_err(), "flip at byte {at}");
                }
            }
            Some(_) => {}
        }
    }
    let mut fewer = FIXTURE.to_vec();
    fewer[26] = 4;
    assert!(matches!(read_trace(&fewer[..]), Err(DecodeTraceError::Corrupt("trailing bytes"))));
    let mut longer = FIXTURE.to_vec();
    longer.extend([0; 20]);
    assert!(matches!(read_trace(&longer[..]), Err(DecodeTraceError::Corrupt("trailing bytes"))));
}
