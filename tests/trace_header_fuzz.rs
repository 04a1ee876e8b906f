//! Generated `CCTR` headers against [`TraceReader`]: every field at its
//! edge values, and every cut of every case, must open and read to the
//! end with `Ok` or `Err` — never a panic — while the heap grows by no
//! more than a small multiple of the input's length.
//!
//! A header is magic, version, name length, name, trailing non-memory
//! count and record count, then the records. Each field is drawn from
//! its edge values: the reader's bounds and one past them, counts that
//! disagree with the bytes that follow, names that are not UTF-8.
//!
//! The binary installs the counting allocator and holds one `#[test]`:
//! the heap measurement is process-wide.

use ccsim::trace::{TraceReader, TraceRecord};
use proptest::prelude::*;

mod alloc_track;
use alloc_track::{counting_enabled, peak_growth, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Records per `read_chunk` call: the most a streamed replay asks for.
const MAX_CHUNK: usize = 65_536;

/// Heap growth allowed per input byte, and in all: decoded records take
/// 24 bytes per 20 read, and a growing buffer may double.
const BYTES_PER_INPUT_BYTE: u64 = 4;
const SLACK_BYTES: u64 = 256;

/// A declared length or count: off from the true one by a delta, or a
/// fixed value whatever follows.
#[derive(Debug, Clone, Copy)]
enum Declared {
    Off(i64),
    Is(u64),
}

impl Declared {
    fn of(self, actual: usize) -> u64 {
        match self {
            Declared::Off(delta) => (actual as i64 + delta).max(0) as u64,
            Declared::Is(value) => value,
        }
    }
}

/// The `CCTR` v1 magic and version first, then neighbours and extremes.
const MAGICS: [[u8; 4]; 4] = [*b"CCTR", *b"CCTS", *b"cctr", [0; 4]];
const VERSIONS: [u32; 5] = [1, 0, 2, 1 << 31, u32::MAX];
const NAMES: [&[u8]; 5] = [
    b"",
    b"bfs.kron",
    "gr\u{e4}ph".as_bytes(), // UTF-8 beyond ASCII
    b"\xff\xfe",             // never UTF-8
    b"tc\xe2\x82",           // a cut multi-byte character
];
/// The declared name length: the name's own, one off either way, and
/// the reader's bound (1 MiB) and past it.
const NAME_LENS: [Declared; 6] = [
    Declared::Off(0),
    Declared::Off(-1),
    Declared::Off(1),
    Declared::Is(1 << 20),
    Declared::Is((1 << 20) + 1),
    Declared::Is(u32::MAX as u64),
];
/// The trailing non-memory count, up to the reader's bound (2^48) and
/// past it.
const TRAILING: [u64; 5] = [0, 7, 1 << 48, (1 << 48) + 1, u64::MAX];
/// The declared record count: the records present, one off either way,
/// far more than are present, and the reader's bound (2^40) and past it.
const COUNTS: [Declared; 7] = [
    Declared::Off(0),
    Declared::Off(-1),
    Declared::Off(1),
    Declared::Is(1 << 20),
    Declared::Is(1 << 40),
    Declared::Is((1 << 40) + 1),
    Declared::Is(u64::MAX),
];
/// Records present; every 33rd has a corrupt kind byte.
const RECORDS: [usize; 4] = [0, 1, 3, 70];
/// What follows the records: nothing, a stray byte, or a record with a
/// corrupt kind byte.
const TAILS: [&[u8]; 3] = [b"", b"\0", &CORRUPT_RECORD];
const CORRUPT_RECORD: [u8; 20] = {
    let mut rec = [0; 20];
    rec[17] = 9;
    rec
};

/// Record `i`'s 20 bytes, `kind` in its kind byte (0 load, 1 store, more
/// is corrupt).
fn record_bytes(i: u64, kind: u8) -> [u8; 20] {
    let mut rec = [0u8; 20];
    rec[0..8].copy_from_slice(&(0x400 + 4 * i).to_le_bytes());
    rec[8..16].copy_from_slice(&(0x1000_0000 + 64 * i).to_le_bytes());
    rec[16] = 8;
    rec[17] = kind;
    rec[18..20].copy_from_slice(&(i as u16).to_le_bytes());
    rec
}

/// A header's fields, each an index into its edge values.
#[derive(Debug, Clone, Copy)]
struct Header {
    magic: usize,
    version: usize,
    name: usize,
    name_len: usize,
    trailing: usize,
    count: usize,
    records: usize,
    tail: usize,
}

impl Header {
    fn bytes(&self) -> Vec<u8> {
        let name = NAMES[self.name];
        let records = RECORDS[self.records];
        let mut bytes = MAGICS[self.magic].to_vec();
        bytes.extend(VERSIONS[self.version].to_le_bytes());
        bytes.extend((NAME_LENS[self.name_len].of(name.len()) as u32).to_le_bytes());
        bytes.extend(name);
        bytes.extend(TRAILING[self.trailing].to_le_bytes());
        bytes.extend(COUNTS[self.count].of(records).to_le_bytes());
        for i in 0..records as u64 {
            bytes.extend(record_bytes(i, if i % 33 == 32 { 2 } else { (i % 2) as u8 }));
        }
        bytes.extend(TAILS[self.tail]);
        bytes
    }

    /// Whether every field is the first, valid, edge value and the
    /// records hold no corrupt one: the stream reads back clean.
    fn is_well_formed(&self) -> bool {
        let firsts = [self.magic, self.version, self.name_len, self.count, self.tail];
        firsts == [0; 5]
            && std::str::from_utf8(NAMES[self.name]).is_ok()
            && TRAILING[self.trailing] <= 1 << 48
            && RECORDS[self.records] < 33
    }
}

/// Headers whose fields each take their first, valid, value half the
/// time and one of their edge values otherwise, so that the reader meets
/// a bad field behind valid ones as often as in front of them.
fn headers() -> impl Strategy<Value = Header> {
    fn field(values: usize) -> impl Strategy<Value = usize> {
        (0..2 * values).prop_map(move |i| i.saturating_sub(values))
    }
    let fields = (field(MAGICS.len()), field(VERSIONS.len()), 0..NAMES.len());
    let lengths = (field(NAME_LENS.len()), field(TRAILING.len()), field(COUNTS.len()));
    (fields, lengths, 0..RECORDS.len(), field(TAILS.len())).prop_map(
        |((magic, version, name), (name_len, trailing, count), records, tail)| Header {
            magic,
            version,
            name,
            name_len,
            trailing,
            count,
            records,
            tail,
        },
    )
}

/// Opens `bytes` and reads chunks until the stream ends or errs; returns
/// the records read and whether the stream was clean to its end.
fn read_all(bytes: &[u8]) -> (usize, bool) {
    let Ok(mut reader) = TraceReader::new(bytes) else { return (0, false) };
    let mut out: Vec<TraceRecord> = Vec::new();
    loop {
        match reader.read_chunk(&mut out, MAX_CHUNK) {
            Ok(0) => return (out.len(), true),
            Ok(_) => {}
            Err(_) => return (out.len(), false),
        }
    }
}

/// Every cut of `bytes`, each read to its end under the heap bound.
fn check_every_cut(bytes: &[u8]) -> Result<(), String> {
    for cut in 0..=bytes.len() {
        let ((records, _), grew) = peak_growth(|| read_all(&bytes[..cut]));
        let bound = BYTES_PER_INPUT_BYTE * cut as u64 + SLACK_BYTES;
        if grew > bound {
            return Err(format!("{grew} heap bytes for a {cut}-byte input ({records} records)"));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn generated_headers_and_their_cuts_are_read_without_panic_or_unbounded_heap(
        header in headers(),
    ) {
        prop_assert!(counting_enabled(), "the counting allocator must be installed");
        let bytes = header.bytes();
        check_every_cut(&bytes).map_err(|e| format!("{header:?}: {e}"))?;
        if header.is_well_formed() {
            prop_assert_eq!(read_all(&bytes), (RECORDS[header.records], true));
        }
    }
}
